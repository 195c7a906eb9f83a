"""Collaborative ranking from pairwise preferences.

Ratings become strict pairwise preferences; two coupled restart walks
turn them into per-item scores.  The first walk runs on a bipartite
user/preference graph and refines user similarities together with
preference concordances, personalized to a target user.  The second
walk spreads that concordance mass over the full universe of ordered
item pairs and collapses it onto per-item win/loss poles; an item's
score is its win share.
"""

from .datasets import (RatingsDataset, SplitSpec, load_ratings, loads_ratings,
                       upl_split, write_ratings)
from .errors import (ColdStartError, DataError, DimensionGuardError, EmptyDatasetError,
                     EmptyGraphError, EmptySplitError, NumericalError, ParseError,
                     PrefwalkError, PreferenceConflictError, UsageError)
from .evaluation import (DiagnosticsReport, EvalReport, RankedBlock, RankOutcome,
                         collect_diagnostics, distinct_levels, ndcg_at_k, ndcg_rows,
                         rank_block, rank_items_for_user, run_evaluation)
from .graph import (ConnectivityReport, StochasticOperator, UserPrefGraph,
                    UserPrefOperators, connectivity_report, user_pref_operators)
from .item_walk import (ItemWalkConfig, ScoredItems, exclusion_mask, item_scores,
                        recommend_topk, topk_rows)
from .preferences import (PreferenceStore, decode_pair, dense_index, derive_preferences,
                          encode_pair, universe_size)
from .user_walk import (UserWalkBlock, UserWalkConfig, UserWalkResult, restart_vector,
                        solve_user_walk, solve_user_walks)
from .walk_state import (ItemWalkResult, RestartVector, build_restart, item_pole_operators,
                         run_item_walk, run_user_walk, score_items, solve_item_walk)

__version__ = "0.1.0"

__all__ = [
    "RatingsDataset", "SplitSpec", "load_ratings", "loads_ratings", "upl_split",
    "write_ratings",
    "PrefwalkError", "DataError", "ParseError", "EmptyDatasetError", "EmptySplitError",
    "EmptyGraphError", "UsageError", "ColdStartError", "PreferenceConflictError",
    "DimensionGuardError", "NumericalError",
    "PreferenceStore", "encode_pair", "decode_pair", "dense_index", "universe_size",
    "derive_preferences",
    "UserPrefGraph", "StochasticOperator", "UserPrefOperators", "ConnectivityReport",
    "user_pref_operators", "item_pole_operators", "connectivity_report",
    "UserWalkConfig", "UserWalkResult", "UserWalkBlock", "restart_vector", "run_user_walk",
    "solve_user_walk", "solve_user_walks",
    "ItemWalkConfig", "ItemWalkResult", "RestartVector", "ScoredItems", "build_restart",
    "run_item_walk", "solve_item_walk", "score_items", "item_scores", "recommend_topk",
    "topk_rows", "exclusion_mask",
    "RankOutcome", "RankedBlock", "rank_items_for_user", "rank_block", "ndcg_at_k",
    "ndcg_rows", "run_evaluation", "EvalReport",
    "collect_diagnostics", "DiagnosticsReport", "distinct_levels",
    "__version__",
]
