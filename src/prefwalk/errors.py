"""Exception hierarchy.

Split into three families so the command-line layer can map failures to
distinct exit codes: bad input data, impossible requests against valid
data, and numerical trouble inside the solvers.
"""


class PrefwalkError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PrefwalkError):
    """Input data is malformed or unusable."""


class ParseError(DataError):
    """A ratings file could not be parsed."""


class EmptyDatasetError(DataError):
    """A dataset with zero ratings where at least one is required."""


class EmptySplitError(DataError):
    """A train/test split kept no users at all."""


class EmptyGraphError(DataError):
    """A preference graph with no edges where edges are required."""


class UsageError(PrefwalkError):
    """A request that is impossible against otherwise valid data."""


class ColdStartError(UsageError):
    """The target user has no observed preferences to walk from."""


class PreferenceConflictError(UsageError):
    """Both orientations of the same item pair were asserted for one user."""


class DimensionGuardError(UsageError):
    """A dense reference computation was asked to exceed its size guard."""


class NumericalError(PrefwalkError):
    """An iteration produced non-finite values or otherwise went wrong."""
