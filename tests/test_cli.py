import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import random_ratings

from prefwalk import load_ratings, write_ratings
from prefwalk.cli import COMMANDS, OPTIONS, load_config, main
from prefwalk.errors import NumericalError
from prefwalk.evaluation import EVAL_BLOCK, rank_block
from prefwalk.reference import dense_reference_ranking
from prefwalk import derive_preferences


@pytest.fixture
def ratings_file(tmp_path):
    rng = np.random.default_rng(42)
    ds = random_ratings(rng, n_users=6, n_items=12, min_per_user=6,
                        max_per_user=7, raw_offset=1)
    path = tmp_path / "ratings.tsv"
    write_ratings(ds, path)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_split_writes_files(ratings_file, tmp_path, capsys):
    out = tmp_path / "splits"
    code, stdout, _ = run_cli(capsys, "split", ratings_file, "--upl", "3",
                              "--min-test", "2", "--repetitions", "2",
                              "--seed", "5", "--out", out)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["test_upl3_rep0.tsv", "test_upl3_rep1.tsv",
                     "train_upl3_rep0.tsv", "train_upl3_rep1.tsv"]
    train = load_ratings(out / "train_upl3_rep0.tsv")
    assert all(n == 3 for n in train.profile_sizes())
    assert "kept 6 users" in stdout


def test_split_reruns_byte_identical(ratings_file, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "split", ratings_file, "--upl", "3",
                             "--min-test", "2", "--seed", "5", "--out", out)
        assert code == 0
    for p in out1.iterdir():
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_split_impossible_upl_is_data_error(ratings_file, tmp_path, capsys):
    code, _, err = run_cli(capsys, "split", ratings_file, "--upl", "500",
                           "--out", tmp_path / "x")
    assert code == 2
    assert "error" in err
    # a possible upl before the impossible one writes nothing either
    out = tmp_path / "y"
    code, stdout, err = run_cli(capsys, "split", ratings_file, "--upl", "3,500",
                                "--min-test", "2", "--out", out)
    assert code == 2
    assert "no user has >= 502 ratings" in err
    assert stdout == "" and not out.exists()


def test_recommend_output_shape(ratings_file, capsys):
    code, stdout, _ = run_cli(capsys, "recommend", ratings_file,
                              "--user", "1", "--top-k", "2")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 2
    for rank, line in enumerate(lines, start=1):
        user, got_rank, item, score = line.split("\t")
        assert user == "1" and int(got_rank) == rank
        assert 0.0 <= float(score) <= 1.0


def test_recommend_deterministic(ratings_file, capsys):
    args = ["recommend", ratings_file, "--user", "2,3", "--top-k", "3"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_recommend_agrees_with_dense_reference(tmp_path, capsys):
    lines = ["1\t10\t5", "1\t11\t3", "1\t12\t1",
             "2\t10\t2", "2\t11\t5", "2\t12\t4",
             "3\t10\t4", "3\t12\t5"]
    path = tmp_path / "tiny.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = load_ratings(path)
    code, stdout, _ = run_cli(capsys, "recommend", path, "--user", "3", "--top-k", "1")
    assert code == 0
    got_items = [int(line.split("\t")[2]) for line in stdout.strip().splitlines()]
    store = derive_preferences(ds)
    ref = dense_reference_ranking(store, target=2, k=1,
                                  exclude=set(int(i) for i in ds.user_rows(2)[0]))
    assert got_items == [int(ds.raw_item_ids[i]) for i in ref.items]


def test_recommend_cold_user_warns(tmp_path, capsys):
    path = tmp_path / "mixed.tsv"
    path.write_text("1\t10\t5\n1\t11\t2\n2\t10\t3\n2\t11\t3\n2\t12\t3\n",
                    encoding="utf-8")
    code, stdout, err = run_cli(capsys, "recommend", path, "--user", "2,1", "--top-k", "1")
    assert code == 0
    assert "warning" in err and "user 2" in err
    assert stdout.strip().splitlines()[0].startswith("1\t")
    # all requested users cold -> usage error
    code, _, err = run_cli(capsys, "recommend", path, "--user", "2")
    assert code == 1


def test_recommend_batch_with_cold_user_between_warm(tmp_path, capsys):
    # user 2 ties every rating, so it has no strict preference
    path = tmp_path / "mixed.tsv"
    path.write_text("1\t10\t5\n1\t11\t2\n2\t10\t3\n2\t11\t3\n2\t12\t3\n"
                    "3\t10\t1\n3\t12\t4\n3\t13\t2\n", encoding="utf-8")
    single = [run_cli(capsys, "recommend", path, "--user", u, "--top-k", "3")
              for u in ("1", "3")]
    assert all(code == 0 and out and not err for code, out, err in single)
    code, out, err = run_cli(capsys, "recommend", path, "--user", "1,2,3", "--top-k", "3")
    assert code == 0
    assert out == single[0][1] + single[1][1]
    assert err == "warning: user 2 has no strict preferences, skipped\n"


def _many_users_file(tmp_path):
    rng = np.random.default_rng(11)
    ds = random_ratings(rng, n_users=EVAL_BLOCK + 8, n_items=10, min_per_user=4,
                        max_per_user=7, raw_offset=1)
    path = tmp_path / "many.tsv"
    write_ratings(ds, path)
    return path, [str(u) for u in ds.raw_user_ids]


def test_recommend_ranks_long_user_lists_in_slices(tmp_path, capsys, monkeypatch):
    import prefwalk.cli as cli_mod

    path, raw = _many_users_file(tmp_path)
    single = [run_cli(capsys, "recommend", path, "--user", u, "--top-k", "3") for u in raw]
    sizes = []

    def spy(ops, targets, *args):
        sizes.append(len(targets))
        return rank_block(ops, targets, *args)

    monkeypatch.setattr(cli_mod, "rank_block", spy)
    code, out, _ = run_cli(capsys, "recommend", path, "--user", ",".join(raw), "--top-k", "3")
    assert code == 0
    assert out == "".join(o for _, o, _ in single)
    assert len(sizes) == 2 and max(sizes) <= EVAL_BLOCK


def test_recommend_prints_slices_before_a_failure(tmp_path, capsys, monkeypatch):
    import prefwalk.cli as cli_mod

    path, raw = _many_users_file(tmp_path)
    first = run_cli(capsys, "recommend", path, "--user", ",".join(raw[:EVAL_BLOCK]),
                    "--top-k", "3")
    assert first[0] == 0
    calls = []

    def fail_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise NumericalError("synthetic failure")
        return rank_block(*args)

    monkeypatch.setattr(cli_mod, "rank_block", fail_second)
    code, out, err = run_cli(capsys, "recommend", path, "--user", ",".join(raw), "--top-k", "3")
    assert code == 3 and "synthetic failure" in err
    assert out == first[1]


def test_recommend_unknown_user(ratings_file, capsys):
    code, _, err = run_cli(capsys, "recommend", ratings_file, "--user", "99")
    assert code == 1
    assert "does not appear" in err


def test_evaluate_writes_report(ratings_file, tmp_path, capsys):
    out = tmp_path / "report"
    code, stdout, _ = run_cli(capsys, "evaluate", ratings_file, "--upl", "3",
                              "--min-test", "2", "--repetitions", "1",
                              "--cutoffs", "1,2", "--out", out)
    assert code == 0
    assert "upl" in stdout and "cutoff" in stdout
    report = (out / "ndcg_report.tsv").read_text(encoding="utf-8")
    assert "# repetitions=1" in report
    data_rows = [l for l in report.splitlines()
                 if l and not l.startswith(("#", "upl\t"))]
    assert len(data_rows) == 2  # one per cutoff
    std_col = [float(r.split("\t")[3]) for r in data_rows]
    assert std_col == [0.0, 0.0]


def test_verbose_writes_progress_to_stderr(ratings_file, capsys):
    # one line per repetition from evaluate, one per sampled user from diagnose
    for argv, starts in ((["evaluate", ratings_file, "--upl", "3", "--min-test", "2",
                           "--repetitions", "2"], ["upl=3 rep=0: ", "upl=3 rep=1: "]),
                         (["diagnose", ratings_file, "--sample", "3"], ["user "] * 3)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        code, out_v, err_v = run_cli(capsys, *argv, "-v")
        assert code == 0 and out_v == out
        lines = err_v.splitlines()
        assert len(lines) == len(starts)
        assert all(line.startswith(start) for line, start in zip(lines, starts))


def test_diagnose_runs(ratings_file, tmp_path, capsys):
    out = tmp_path / "diag"
    code, stdout, _ = run_cli(capsys, "diagnose", ratings_file, "--sample", "3",
                              "--seed", "1", "--out", out)
    assert code == 0
    assert "second-walk coverage" in stdout
    assert (out / "diagnostics.tsv").exists()


def test_diagnose_after_split(ratings_file, capsys):
    code, stdout, _ = run_cli(capsys, "diagnose", ratings_file, "--upl", "4",
                              "--min-test", "2", "--sample", "2")
    assert code == 0
    assert "sampled users: 2" in stdout


def test_diagnose_takes_one_upl(ratings_file, tmp_path, capsys):
    # only one split's train side is diagnosed, so a list is refused
    code, out, err = run_cli(capsys, "diagnose", ratings_file, "--upl", "3,4",
                             "--min-test", "2")
    assert code == 1 and out == ""
    assert err == "error: diagnose takes one upl, got 3,4\n"
    cfg = tmp_path / "two.cfg"
    cfg.write_text("upl=3,4\n", encoding="utf-8")
    assert run_cli(capsys, "diagnose", ratings_file, "--min-test", "2",
                   "--config", cfg) == (1, "", err)


def test_config_file_and_precedence(ratings_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("top_k=2\nseed=5\n# a comment\nalpha=0.2\n", encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "recommend", ratings_file, "--user", "1",
                              "--config", cfg)
    assert code == 0
    assert len(stdout.strip().splitlines()) == 2  # top_k from config
    code, stdout, _ = run_cli(capsys, "recommend", ratings_file, "--user", "1",
                              "--config", cfg, "--top-k", "4")
    assert code == 0
    assert len(stdout.strip().splitlines()) == 4  # flag beats config


def test_config_rejects_unknown_keys(ratings_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key=3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "recommend", ratings_file, "--user", "1",
                           "--config", cfg)
    assert code == 1 and "unknown key" in err
    cfg.write_text("alpha 0.2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "recommend", ratings_file, "--user", "1",
                           "--config", cfg)
    assert code == 1 and "key=value" in err
    cfg.write_text("alpha=fast\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "recommend", ratings_file, "--user", "1",
                         "--config", cfg)
    assert code == 1


def test_config_parses_types(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("upl=10,20\ntol=1e-8\nrepetitions=3\nformat=csv_umr\n", encoding="utf-8")
    values = load_config(cfg)
    assert values == {"upl": [10, 20], "tol": 1e-8, "repetitions": 3, "format": "csv_umr"}


def test_option_table_matches_readme_and_commands():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").split())
    start = readme.index("Keys match the long flags")
    keys = re.findall(r"`(\w+)`", readme[start:readme.index("Precedence", start)])
    assert sorted(keys) == sorted(OPTIONS)
    read = {key for command in COMMANDS.values() for key in command.options}
    assert read == set(OPTIONS)
    # each row of the per-subcommand table names exactly what COMMANDS gives it
    start = readme.index("| subcommand | options |")
    rows = dict(re.findall(r"\| `(\w+)` \| ([^|]*) \|",
                           readme[start:readme.index("| option |", start)]))
    assert sorted(rows) == sorted(COMMANDS)

    def flags(keys):
        return sorted(key.replace("_", "-") for key in keys)

    for name, command in COMMANDS.items():
        assert sorted(re.findall(r"`--([\w-]+)", rows[name])) == flags(
            command.options + command.flags), name
        assert sorted(re.findall(r"`--([\w-]+)[^`]*` \(required\)", rows[name])) == flags(
            command.required), name


def test_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "recommend", tmp_path / "absent.tsv", "--user", "1")
    assert code == 2


def test_malformed_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "broken.tsv"
    path.write_text("1\t2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "recommend", path, "--user", "1")
    assert code == 2 and "line 1" in err


def test_non_finite_rating_is_data_error(tmp_path, capsys):
    path = tmp_path / "nan.tsv"
    path.write_text("1\t1\t4\n1\t2\tnan\n1\t3\t2\n", encoding="utf-8")
    code, stdout, err = run_cli(capsys, "recommend", path, "--user", "1")
    assert code == 2 and "line 2" in err and "not finite" in err
    assert stdout == ""


def test_max_iter_removed(ratings_file, tmp_path, capsys):
    # both walks are solved exactly, so a sweep cap has nothing to set
    with pytest.raises(SystemExit) as exc:
        main(["recommend", str(ratings_file), "--user", "1", "--max-iter", "5"])
    assert exc.value.code == 1
    cfg = tmp_path / "old.cfg"
    cfg.write_text("max_iter=5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "recommend", ratings_file, "--user", "1",
                           "--config", cfg)
    assert code == 1 and "unknown key" in err


def test_jobs_removed(ratings_file, tmp_path, capsys):
    # evaluation runs in one process, so a pool size has nothing to set
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", str(ratings_file), "--upl", "3", "--jobs", "2"])
    assert exc.value.code == 1
    cfg = tmp_path / "old.cfg"
    cfg.write_text("jobs=2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "evaluate", ratings_file, "--upl", "3",
                           "--config", cfg)
    assert code == 1 and "unknown key" in err


def test_invalid_alpha_is_usage_error(ratings_file, capsys):
    code, _, err = run_cli(capsys, "recommend", ratings_file, "--user", "1",
                           "--alpha", "2.0")
    assert code == 1 and "alpha" in err
    # a tolerance must be a positive finite number, and NaN compares false
    for tol in ("nan", "inf"):
        code, out, err = run_cli(capsys, "diagnose", ratings_file, "--tol", tol)
        assert code == 1 and out == "" and "tol" in err


@pytest.mark.parametrize("command, flags, key, value", [
    ("evaluate", ["--upl", "3"], "cutoffs", "0,2"),
    ("evaluate", ["--upl", "3"], "cutoffs", "-1,2"),
    ("evaluate", ["--upl", "3"], "repetitions", "0"),
    ("evaluate", ["--upl", "3"], "sample", "-3"),
    ("evaluate", ["--upl", "3"], "seed", "-1"),
    ("diagnose", [], "sample", "-1"),
    ("diagnose", ["--upl", "3"], "rep", "-1"),
    ("diagnose", [], "upl", "0"),
    ("diagnose", ["--upl", "3"], "min-test", "-1"),
    ("recommend", ["--user", "1"], "top-k", "-1"),
    ("diagnose", [], "min-test", "-1"),
    ("split", ["--upl", "3", "--out", "splits"], "repetitions", "0"),
    ("evaluate", [], "upl", "0"),
])
def test_out_of_range_option_is_usage_error(ratings_file, tmp_path, capsys, monkeypatch,
                                            command, flags, key, value):
    monkeypatch.chdir(tmp_path)  # a relative --out stays inside the test's directory
    code, out, err = run_cli(capsys, command, ratings_file, *flags, f"--{key}={value}")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {key} must be at least") and err.count("\n") == 1
    # the same value from the config file fails the same way
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key.replace('-', '_')}={value}\n", encoding="utf-8")
    assert run_cli(capsys, command, ratings_file, *flags, "--config", cfg) == (1, "", err)


def test_empty_int_list_is_usage_error(ratings_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", str(ratings_file), "--upl", "3", "--cutoffs=,"])
    assert exc.value.code == 1


def test_bad_flags_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recommend", "--no-such-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1
    # no abbreviations (--rep is diagnose's repetition, --top is not --top-k),
    # and no flag that a command would not read
    for argv in (["evaluate", "r.tsv", "--upl", "3", "--rep", "2"],
                 ["recommend", "r.tsv", "--user", "1", "--top", "3"],
                 ["recommend", "r.tsv", "--user", "1", "--seed", "-1"],
                 ["recommend", "r.tsv", "--user", "1", "--tol", "1e-8"],
                 ["recommend", "r.tsv", "--user", "1", "--verbose"],
                 ["split", "r.tsv", "--upl", "3", "--out", "s", "-v"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_recommend_ignores_shared_tol(ratings_file, tmp_path, capsys):
    # recommend reads no tol, so a shared config's tol is not range-checked there
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("tol=nan\n", encoding="utf-8")
    plain = run_cli(capsys, "recommend", ratings_file, "--user", "1")
    assert plain[0] == 0
    assert run_cli(capsys, "recommend", ratings_file, "--user", "1", "--config", cfg) == plain
    code, out, err = run_cli(capsys, "diagnose", ratings_file, "--config", cfg)
    assert code == 1 and out == "" and "tol" in err


def test_non_utf8_inputs_exit_with_their_codes(ratings_file, tmp_path, capsys):
    ratings = tmp_path / "latin1.tsv"
    ratings.write_bytes(ratings_file.read_bytes() + b"1\t2\xff\t3\n")
    code, out, err = run_cli(capsys, "recommend", ratings, "--user", "1")
    assert (code, out) == (2, "") and err.startswith("error: ") and "latin1.tsv" in err
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# r\xe9glages\nalpha=0.2\n")
    code, out, err = run_cli(capsys, "evaluate", ratings_file, "--upl", "3",
                             "--config", cfg)
    assert (code, out) == (1, "") and err.startswith("error: ") and "latin1.cfg" in err


def test_id_beyond_int64_exits_two(tmp_path, capsys):
    ratings = tmp_path / "huge.tsv"
    ratings.write_text("99999999999999999999\t2\t3\n1\t2\t4\n")
    code, out, err = run_cli(capsys, "recommend", ratings, "--user", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {ratings}, line 1: ids must fit in a signed 64-bit integer\n"


def test_missing_upl_is_usage_error(ratings_file, tmp_path, capsys):
    code, _, err = run_cli(capsys, "split", ratings_file, "--out", tmp_path / "s")
    assert code == 1 and "--upl" in err


def test_numerical_error_exit_code(ratings_file, capsys, monkeypatch):
    import prefwalk.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_mod, "rank_block", boom)
    code, _, err = run_cli(capsys, "recommend", ratings_file, "--user", "1")
    assert code == 3 and "synthetic failure" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "prefwalk.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "split" in proc.stdout and "diagnose" in proc.stdout
