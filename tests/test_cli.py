"""CLI harness: config resolution, determinism, manifests, and exit codes."""

import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import numpy as np
import pytest

import gamescale
import gamescale.cli
from gamescale import psgd
from gamescale.cli import COMMON, EXPERIMENTS, load_config, main, table
from gamescale.core import GameSpec, JointAction
from gamescale.equilibrium import MAX_RUNS, MAX_STEPS, best_response, psgd_nash
from gamescale.instances import coupled_quadratic, selection_arms
from gamescale.participation import EquilibriumOutcome, equilibrium_pair
from gamescale.psgd import NOISE_BLOCK, NOISE_CELLS
from gamescale.regression import MAX_DIM
from gamescale.selection import confidence_radius, successive_elimination
from gamescale.sets import ConvergenceError, box_1d
from gamescale.svg import line_chart
from gamescale.tables import csv_text
from oracles import gradient_bad_at, non_finite_game


def read_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_regression_run_reports_expected_equilibria(tmp_path):
    out = tmp_path / "reg"
    assert main(["regression", "--out-dir", str(out), "--curve-step", "0.1"]) == 0
    rows = read_rows(out / "regression_equilibrium.csv")
    by_class = {r["model_class"]: r for r in rows}
    assert abs(float(by_class["small"]["learner_loss"]) - 0.5) <= 1e-9
    large = float(by_class["large"]["learner_loss"])
    assert 0.76 <= large <= 0.80
    assert abs(float(by_class["large"]["k_star"]) - 3.4) <= 0.1
    manifest = read_manifest(out)
    assert manifest["error"] is None
    assert set(manifest["outputs"]) == {
        "regression_curve.csv",
        "regression_equilibrium.csv",
        "regression_summary.csv",
        "regression_curve.svg",
    }
    summary = read_rows(out / "regression_summary.csv")[0]
    assert summary["reverse_scaling"] == "1"
    assert summary["pointwise_dominance"] == "1"


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(
            ["markov", "--n", "8", "--points", "40", "--gamma", "0.8", "--out-dir", str(out)]
        )
        assert code == 0
    assert sha(a / "markov_sweep.csv") == sha(b / "markov_sweep.csv")
    assert sha(a / "markov_sweep.svg") == sha(b / "markov_sweep.svg")
    assert read_manifest(a)["outputs"] == read_manifest(b)["outputs"]


def test_manifest_checksums_match_files(tmp_path):
    out = tmp_path / "p"
    assert main(["participation", "--alpha-points", "5", "--out-dir", str(out)]) == 0
    manifest = read_manifest(out)
    for name, digest in manifest["outputs"].items():
        assert sha(out / name) == digest


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "markov.cfg"
    cfg.write_text("# chain sweep\nn = 6\ngamma = 0.7\npoints = 10\n")
    out = tmp_path / "m"
    assert main(
        ["markov", "--config", str(cfg), "--points", "12", "--out-dir", str(out)]
    ) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["n"] == 6
    assert manifest["config"]["gamma"] == 0.7
    assert manifest["config"]["points"] == 12  # command line wins
    rows = read_rows(out / "markov_sweep.csv")
    assert len(rows) == 12


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("horizon_typo=12\n")
    assert main(["psgd", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 2


def test_malformed_config_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    assert main(["markov", "--config", str(cfg)]) == 2


def test_missing_config_file_rejected(tmp_path):
    assert main(["markov", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_config_that_is_a_directory_rejected(tmp_path, capsys):
    assert main(["markov", "--config", str(tmp_path), "--out-dir", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "config"
    assert str(tmp_path) in record["error"]["message"]


def test_config_that_is_not_utf8_names_its_file(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"\xd0\xd0")
    assert main(["markov", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "config"
    assert str(cfg) in record["error"]["message"]
    assert "utf-8" in record["error"]["message"]


@pytest.mark.parametrize("flag, named", [("--out-dir", "out_dir"), ("--config", "config file")])
def test_a_path_with_a_nul_exits_with_config_error(tmp_path, capsys, flag, named):
    # open() raises ValueError, not OSError, for a NUL in a path
    argv = ["restrict", "--out-dir", str(tmp_path / "out"), flag, str(tmp_path / "a\0b")]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "config"
    assert named in record["error"]["message"]


def test_zero_sum_restriction_exits_with_certification_failure(tmp_path):
    out = tmp_path / "zs"
    assert main(["restrict", "--instance", "zero_sum", "--out-dir", str(out)]) == 3
    manifest = read_manifest(out)
    assert manifest["error"]["type"] == "HypothesisNotSatisfiedError"
    assert manifest["error"]["stage"] == "pareto_check"
    assert manifest["error"]["where"] == "restriction.py:certify_restriction"


def test_stage_failure_record_names_where_its_cause_was_raised(tmp_path, monkeypatch, capsys):
    # the stage error is raised in restriction.py; `where` follows __cause__ to the solver
    def solve_nash(*args):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr("gamescale.restriction.solve_nash", solve_nash)
    assert main(["restrict", "--out-dir", str(tmp_path)]) == 3
    error = {"type": "RestrictionStageError", "message": "[nash_solve] no convergence", "stage": "nash_solve",
             "where": "test_cli.py:solve_nash"}
    assert read_manifest(tmp_path)["error"] == error
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {"error": error}


def test_restrict_coupled_writes_certificate(tmp_path):
    out = tmp_path / "rc"
    assert main(["restrict", "--out-dir", str(out)]) == 0
    record = dict(
        line.split("=", 1) for line in (out / "certificate.txt").read_text().splitlines()
    )
    assert float(record["improvement"]) > 1e-4
    assert float(record["restricted_residual"]) <= 1e-6


def test_select_writes_elimination_log(tmp_path):
    out = tmp_path / "sel"
    assert main(["select", "--out-dir", str(out)]) == 0
    rows = read_rows(out / "elimination_log.csv")
    assert list(rows[0]) == ["epoch", "T", "arm", "estimate", "radius", "active"]
    summary = read_rows(out / "selection_summary.csv")[0]
    assert summary["winner"] == "0"
    assert summary["inconclusive"] == "0"


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """python -m gamescale argv, in a fresh interpreter that imports this tree's package."""
    src = str(Path(gamescale.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "gamescale", *argv], env=env, capture_output=True, text=True, timeout=60)


def test_python_dash_m_gamescale_runs_the_cli():
    done = run_module("--help")
    assert done.returncode == 0, done.stderr
    assert "usage: gamescale" in done.stdout


def test_python_dash_m_gamescale_returns_the_run_exit_code(tmp_path):
    done = run_module("markov", "--n", "2", "--points", "2", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert read_manifest(tmp_path)["error"] is None


def test_every_export_resolves():
    # a function removed from the package must leave no name behind in __all__
    assert len(set(gamescale.__all__)) == len(gamescale.__all__)
    assert [name for name in gamescale.__all__ if not hasattr(gamescale, name)] == []


def parser_tokens(source: str) -> int:
    """Tokens of source as tokenize gives them on Python 3.10 and 3.11: no
    COMMENT or NL, and each f-string one token (3.12+ splits it into
    FSTRING_START ... FSTRING_END, nested ones inside)."""
    count, depth = 0, 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        name = tokenize.tok_name[tok.type]
        if name == "FSTRING_START":
            count += depth == 0
            depth += 1
        elif name == "FSTRING_END":
            depth -= 1
        elif depth == 0 and tok.type not in (tokenize.COMMENT, tokenize.NL):
            count += 1
    return count


def test_every_module_stays_under_the_parser_token_line():
    """CPython's parser doubles its token array at 4,096 tokens. Past that
    line, compiling a module at import (as a process without bytecode caches
    does) peaks higher: ~0.25 MB for cli.py, which psgd-seeds' peak_rss_mb
    shows, and ~0.3 MB in the ladder's ru_maxrss for equilibrium.py."""
    assert parser_tokens('x = f"{a} b {c!r:>{w}}"  # note\n\ny = f"{f\'{a}\'}"\n') == 9
    for path in sorted(Path(gamescale.cli.__file__).parent.glob("*.py")):
        assert parser_tokens(path.read_text(encoding="utf-8")) < 4096, path.name


def test_psgd_run_small(tmp_path):
    # 10 runs at T=64 and T=1024 keep the ratio of mean gaps below 0.35 on
    # every --seed 0-199; 3 runs at T=64 and T=256 fail the 0.8 factor on 31
    out = tmp_path / "psgd"
    assert main(
        ["psgd", "--horizons", "64,1024", "--n-seeds", "10", "--out-dir", str(out)]
    ) == 0
    rows = read_rows(out / "psgd.csv")
    assert len(rows) == 20
    summary = read_rows(out / "psgd_summary.csv")
    assert float(summary[1]["mean_f_l_gap"]) < float(summary[0]["mean_f_l_gap"]) * 0.8


def test_psgd_horizons_share_one_batch_with_the_bytes_of_one_cohort_at_a_time(tmp_path, monkeypatch):
    # repeated and unordered horizons; MAX_RUNS = 3 leaves room for one 3-run cohort at a time,
    # which runs one batch per entry in --horizons order
    run, widths = psgd.PSGDBatch.run, []

    def spy(batch):
        widths.append((len(batch.cohorts), sum(len(c.sets) for c in batch.cohorts)))
        return run(batch)

    monkeypatch.setattr(psgd.PSGDBatch, "run", spy)
    outputs = []
    for max_runs, expected in ((MAX_RUNS, [(2, 6)] * 3 + [(1, 3)]), (3, [(1, 3)] * 4)):
        monkeypatch.setattr("gamescale.cli.MAX_RUNS", max_runs)
        widths.clear()
        out = tmp_path / str(max_runs)
        assert main(["psgd", "--horizons", "64,8,64,16", "--n-seeds", "3", "--out-dir", str(out)]) == 0
        assert widths == expected
        assert all(cohorts <= 2 and rows <= max_runs for cohorts, rows in widths)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"})
    assert list(outputs[0]) == ["psgd.csv", "psgd.svg", "psgd_summary.csv"]
    assert outputs[0] == outputs[1]
    horizons = [r["horizon"] for r in read_rows(tmp_path / "3" / "psgd.csv")]
    assert horizons == ["64"] * 3 + ["8"] * 3 + ["64"] * 3 + ["16"] * 3


def test_psgd_seeds_argv_steps_its_horizons_side_by_side(tmp_path, monkeypatch):
    # T = 512 and 4096 share the batch: 4,096 batch steps (one learner-oracle call each), not 512 + 4,096;
    # 40 rows for the first 512, then T = 4096's 20
    rows = []

    def counted(sigma):
        bench = coupled_quadratic(sigma)
        game = bench.game
        logged = dataclasses.replace(game, grad_learner=lambda t, e: rows.append(t.shape) or game.grad_learner(t, e))
        return dataclasses.replace(bench, game=logged)

    monkeypatch.setattr("gamescale.cli.coupled_quadratic", counted)
    argv = ["psgd", "--sigma", "0.3", "--horizons", "512,4096", "--n-seeds", "20"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    batch_steps = [shape for shape in rows if shape[0] > 1]
    assert batch_steps == [(40, 1)] * 512 + [(20, 1)] * 3584


def test_scaling_curve_runs_all_regimes(tmp_path):
    for regime in ("stationary", "stackelberg_leader", "stackelberg_follower", "nash"):
        out = tmp_path / regime
        assert main(
            ["scaling-curve", "--regime", regime, "--radii", "0.25,0.5,1.0", "--out-dir", str(out)]
        ) == 0
        rows = read_rows(out / "scaling_curve.csv")
        assert len(rows) == 3
        losses = [float(r["learner_loss"]) for r in rows]
        if regime in ("stationary", "stackelberg_leader"):
            assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_emit_plot_validates_columns():
    # charts are drawn from the rows in memory: an unknown column or no rows
    # raise ValueError (exit 2 from main); one row still draws a chart
    spec = dict(x="x", ys=["y"], title="t", x_label="x", y_label="y")
    with pytest.raises(ValueError, match="'y' is not in list"):
        line_chart(["x", "z"], [(0, 1.0)], **spec)
    with pytest.raises(ValueError, match="no data to plot"):
        line_chart(["x", "y"], [], **spec)
    text = line_chart(["x", "y"], [(0, 1.0)], **spec)
    assert text.startswith("<svg")
    assert "polyline" in text


def test_load_config_parses_comments_and_spacing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# header\n\n key = value \nother=1\n")
    assert load_config(str(cfg)) == {"key": "value", "other": "1"}


def test_csv_floats_are_full_precision():
    value = 0.1234567890123456789
    rows = list(csv.DictReader(io.StringIO(csv_text("f.csv", ["v"], [(value,)]))))
    assert float(rows[0]["v"]) == value


def test_every_shipped_config_runs(tmp_path):
    cases = [
        ("regression", "configs/regression.cfg", 0),
        ("psgd", "configs/psgd.cfg", 0),
        ("select", "configs/select.cfg", 0),
        ("restrict", "configs/restrict.cfg", 0),
        ("restrict", "configs/restrict_zero_sum.cfg", 3),
        ("markov", "configs/markov.cfg", 0),
        ("participation", "configs/participation.cfg", 0),
        ("scaling-curve", "configs/scaling_stationary.cfg", 0),
        ("scaling-curve", "configs/scaling_stackelberg.cfg", 0),
    ]
    repo_root = Path(__file__).resolve().parents[1]
    for idx, (experiment, config, expected) in enumerate(cases):
        out = tmp_path / f"run{idx}"
        code = main([experiment, "--config", str(repo_root / config), "--out-dir", str(out)])
        assert code == expected, (experiment, config, code)
        # a failed run (restrict_zero_sum.cfg) leaves manifest.json alone
        on_disk = {p.name for p in out.iterdir()}
        assert on_disk == {"manifest.json", *read_manifest(out)["outputs"]}, (config, on_disk)


BAD_VALUES = [
    (["psgd", "--horizons", "abc"], None, "horizons"),
    (["psgd"], "horizons = 5,x\n", "horizons"),
    (["select", "--losses", "a,b"], None, "losses"),
    (["regression", "--beta", "x"], None, "beta"),
    (["scaling-curve", "--radii", "1,x"], None, "radii"),
    (["markov", "--n", "0"], None, "n='0': must be at least 1"),
    (["regression", "--curve-step", "0"], None, "curve_step"),
    (["psgd", "--n-seeds", "0", "--horizons", "8"], None, "n_seeds"),
    (["psgd", "--sigma", "nan", "--horizons", "8", "--n-seeds", "1"], None,
     "sigma='nan': must be finite and nonnegative"),
    (["psgd", "--sigma", "inf", "--horizons", "8", "--n-seeds", "1"], None,
     "sigma='inf': must be finite and nonnegative"),
    (["select", "--losses", "-1"], None, "losses"),
    (["markov", "--points", "0"], None, "points"),
    (["participation", "--alpha-points", "0"], None, "alpha_points"),
    (["markov", "--gamma", "1"], None, "gamma='1': must lie in [0, 1)"),
    (["select", "--losses", ""], None, "losses"),
    (["psgd", "--horizons", ""], None, "horizons"),
    (["scaling-curve", "--radii", ""], None, "radii"),
    (["regression", "--beta", ""], None, "beta"),
    (["markov", "--p-min", "0.4"], None, "p_min"),
    (["markov", "--p-max", "1.5"], None, "p_max"),
    (["scaling-curve", "--regime", "bogus"], None, "regime"),
    (["restrict", "--instance", "bogus"], None, "instance"),
    (["scaling-curve", "--radii", "1,0.5"], None, "radii"),
    (["regression", "--beta", "1e200,0"], None, "beta"),
    (["participation", "--alpha-min", "2", "--alpha-max", "3", "--alpha-points", "2"], None, "alpha_min"),
    (["participation", "--alpha-max", "1.5"], None, "alpha_max"),
    (["select", "--alpha", "inf"], None, "alpha"),
    (["select", "--alpha", "nan"], None, "alpha"),
    (["select", "--scale", "inf"], None, "scale"),
    (["scaling-curve", "--radii", "nan"], None, "radii"),
    (["scaling-curve", "--radii", "0.1,inf"], None, "radii"),
    (["regression", "--curve-step", "nan"], None, "curve_step"),
    (["psgd", "--horizons", "0"], None, "horizons"),
    (["psgd", "--horizons", "8,-1", "--n-seeds", "1"], None, "horizons"),
    (["select", "--budget", "-5"], None, "budget"),
    (["psgd", "--seed", "-1"], None, "seed"),
    (["markov", "--seed", "-1"], None, "seed"),
    # 22,223 k values, past the 20,001 of the 1e-3 dominance grid
    (["regression", "--curve-step", "0.0009"], None, "curve_step"),
    # one past each markov work cap
    (["markov", "--n", "5001"], None, "n='5001': must be at least 1 and at most 5000"),
    (["markov", "--points", "20002"], None, "points='20002': must be at least 1 and at most 20001"),
    # one past each psgd and select work cap; before the caps the first psgd argv ran without end
    (["psgd", "--horizons", "100000000000", "--n-seeds", "1"], None, "n_seeds * sum(horizons)"),
    (["psgd", "--n-seeds", "10001", "--horizons", "1"], None,
     "n_seeds='10001': must be at least 1 and at most 10000"),
    # a value too long to echo is named by its key alone
    (["select", "--losses", ",".join(["0"] * 10001)], None, "losses: must have at most 10000 values"),
    (["select", "--budget", "100000001"], None,
     "budget='100000001': must be at least 1 and at most 100000000"),
    # keys whose range the library checked, in its own wording
    (["psgd", "--sigma", "-1"], None, "sigma='-1': must be finite and nonnegative"),
    (["select", "--sigma", "-1"], None, "sigma='-1': must be finite and nonnegative"),
    (["markov", "--gamma", "1.5"], None, "gamma='1.5': must lie in [0, 1)"),
    (["markov", "--gamma-env", "-0.5"], None, "gamma_env='-0.5': must lie in [0, 1)"),
    (["select", "--delta", "2"], None, "delta='2': must lie in (0, 1)"),
    (["select", "--delta", "0"], None, "delta='0': must lie in (0, 1)"),
    (["select", "--scale", "-1"], None, "scale='-1': must be finite and positive"),
    (["select", "--alpha", "0"], None, "alpha='0': must be finite and positive"),
    (["regression", "--beta", "0,0"], None, "beta='0,0': must have a finite, nonzero |beta|^2"),
    # in (0, 1), but delta / (2 n T^2) would underflow inside successive elimination
    (["select", "--delta", "1e-320", "--budget", "1000"], None,
     "delta='1e-320': must lie in (0, 1) and be at least 4.45e-288"),
    # one past the beta cap; the bump-class closed form is NaN from ~880 entries
    (["regression", "--beta", ",".join(["1"] * (MAX_DIM + 1))], None, "beta: must have at most 512 values"),
]


# ids stay argv<i>-<config>, leaving the message out of the test names
@pytest.mark.parametrize(
    "argv, config, message",
    BAD_VALUES,
    ids=[f"argv{i}-{config}" for i, (_, config, _) in enumerate(BAD_VALUES)],
)
def test_bad_values_exit_with_config_error(tmp_path, capsys, argv, config, message):
    argv = [*argv, "--out-dir", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "config"
    assert message in record["error"]["message"]


def test_every_key_has_a_bad_value_row():
    # a row names a key when its argv or config sets the key and its message starts with it
    def named(experiment, key):
        flag = "--" + key.replace("_", "-")
        return any(
            experiment in (None, argv[0])
            and (flag in argv or (config or "").startswith(f"{key} ="))
            and re.match(rf"{key}\b", message)
            for argv, config, message in BAD_VALUES
        )

    unnamed = [(e, key) for e, (_, keys) in EXPERIMENTS.items() for key in keys if not named(e, key)]
    assert unnamed + [key for key in COMMON if not named(None, key)] == []


def test_a_value_at_an_included_bound_runs(tmp_path):
    assert main(["markov", "--gamma", "0", "--n", "4", "--points", "3", "--out-dir", str(tmp_path)]) == 0


def test_delta_floor_keeps_every_epoch_radius_finite(tmp_path):
    # the smallest per-test budget the caps allow is still a normal float
    worst = gamescale.cli._DELTA_FLOOR / (2.0 * MAX_RUNS * MAX_STEPS * MAX_STEPS)
    assert worst >= sys.float_info.min
    assert math.isfinite(confidence_radius(2.0, 1.0, MAX_STEPS, worst))
    argv = ["select", "--delta", repr(gamescale.cli._DELTA_FLOOR), "--budget", "1000"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("error", [ValueError, KeyError, MemoryError])
def test_any_runner_failure_exits_3_with_a_manifest(tmp_path, monkeypatch, capsys, error):
    def runner(params):
        raise error("runner failed")

    monkeypatch.setitem(EXPERIMENTS, "restrict", (runner, EXPERIMENTS["restrict"][1]))
    assert main(["restrict", "--out-dir", str(tmp_path)]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == read_manifest(tmp_path)["error"]["type"] == error.__name__
    assert record["error"]["where"] == "test_cli.py:runner"
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize(
    "flag, value, code",
    [("--n", "5001", 2), ("--points", "20002", 2), ("--n", "5000", 3), ("--points", "20001", 3)],
)
def test_markov_caps_are_checked_before_the_game_is_built(tmp_path, monkeypatch, flag, value, code):
    # a build stands in for the run: exit 3 when it is reached, exit 2 past a cap
    def build(*args, **kwargs):
        raise RuntimeError("build reached")

    monkeypatch.setattr("gamescale.cli.build_chain_game", build)
    assert main(["markov", flag, value, "--out-dir", str(tmp_path / "out")]) == code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["psgd", "--n-seeds", "10001", "--horizons", "1"], 2),
        (["psgd", "--n-seeds", "10000", "--horizons", "5000,5001"], 2),
        (["psgd", "--n-seeds", "10000", "--horizons", "5000,5000"], 3),
        (["select", "--losses", ",".join(["1"] * 10001)], 2),
        (["select", "--losses", ",".join(["1"] * 10000)], 3),
        (["select", "--budget", "100000001"], 2),
        (["select", "--budget", "100000000"], 3),
        (["scaling-curve", "--radii", ",".join(str(r) for r in range(1, 10002))], 2),
        (["scaling-curve", "--radii", ",".join(str(r) for r in range(1, 10001))], 3),
        (["participation", "--alpha-points", "20002"], 2),
        (["participation", "--alpha-points", "20001"], 3),
    ],
)
def test_run_caps_are_checked_before_any_run(tmp_path, monkeypatch, argv, code, capsys):
    # a stub stands in for the runs: exit 3 when it is reached, exit 2 past a cap
    def stub(*args, **kwargs):
        raise RuntimeError("solver reached")

    monkeypatch.setattr("gamescale.cli.PSGDBatch", stub)
    monkeypatch.setattr("gamescale.selection.PSGDBatch", stub)
    monkeypatch.setattr("gamescale.cli.scaling_curve", stub)
    monkeypatch.setattr("gamescale.cli.default_instance", stub)
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == code
    if argv[0] == "scaling-curve" and code == 2:
        assert "radii: must have at most 10000 values, strictly increasing" in capsys.readouterr().err
    if argv[0] == "participation" and code == 2:
        assert "alpha_points='20002': must be at least 1 and at most 20001" in capsys.readouterr().err


def test_regression_at_the_beta_cap_runs(tmp_path):
    assert main(["regression", "--beta", ",".join(["1"] * MAX_DIM), "--out-dir", str(tmp_path)]) == 0
    assert read_manifest(tmp_path)["config"]["beta"] == [1.0] * MAX_DIM


def test_participation_certificate_failure_exits_3_without_outputs(tmp_path, monkeypatch, capsys):
    def uncertified(model_class, *args):
        return EquilibriumOutcome(equilibrium_pair(model_class, *args).loss, model_class == "full")

    monkeypatch.setattr("gamescale.cli.equilibrium_pair", uncertified)
    assert main(["participation", "--alpha-points", "2", "--out-dir", str(tmp_path)]) == 3
    error = read_manifest(tmp_path)["error"]
    assert error["type"] == "RuntimeError"
    assert error["message"] == "equilibrium certificate failed at alpha=0.0"
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_config_of_defaults_matches_no_config(tmp_path, monkeypatch, experiment):
    _, keys = EXPERIMENTS[experiment]
    monkeypatch.setitem(EXPERIMENTS, experiment, (lambda params: {}, keys))
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(
        "".join(f"{key} = {default}\n" for key, (_, default) in keys.items() if default is not None)
    )
    configs = []
    for name, extra in (("bare", []), ("cfg", ["--config", str(cfg)])):
        out = tmp_path / name
        assert main([experiment, "--out-dir", str(out), *extra]) == 0
        configs.append(read_manifest(out)["config"])
    assert configs[0] == configs[1]
    assert set(configs[0]) == {"seed", *keys}


def test_non_finite_gradient_exits_with_solver_failure(tmp_path, monkeypatch, capsys):
    # psgd_nash and gradient_operator raise FloatingPointError, an
    # ArithmeticError rather than a RuntimeError, on a non-finite gradient
    def runner(params):
        raise FloatingPointError("non-finite gradient components")

    monkeypatch.setitem(EXPERIMENTS, "psgd", (runner, EXPERIMENTS["psgd"][1]))
    out = tmp_path / "fpe"
    assert main(["psgd", "--out-dir", str(out)]) == 3
    error = {"type": "FloatingPointError", "message": "non-finite gradient components", "where": "test_cli.py:runner"}
    assert read_manifest(out)["error"] == error
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {"error": error}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_best_response_gradient_exits_with_solver_failure(tmp_path, monkeypatch, capsys, value):
    # the descent checks each gradient before it steps, so the first call fails the run
    def runner(params):
        best_response(non_finite_game(value, []), "learner", np.zeros(1), box_1d(-1.0, 1.0))
        return {}

    monkeypatch.setitem(EXPERIMENTS, "psgd", (runner, EXPERIMENTS["psgd"][1]))
    out = tmp_path / "fpe-best-response"
    started = time.perf_counter()
    assert main(["psgd", "--out-dir", str(out)]) == 3
    assert time.perf_counter() - started < 0.05
    error = {"type": "FloatingPointError", "message": "non-finite gradient components", "where": "core.py:_finite"}
    assert read_manifest(out)["error"] == error
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {"error": error}


def test_non_finite_gradient_in_one_batch_row_exits_with_solver_failure(tmp_path, monkeypatch):
    # row 1's box starts it where its gradient is nan; row 0 stays finite
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.0,
        loss_env=lambda t, e: 0.0,
        grad_learner=lambda t, e: np.where(t > 4.0, np.nan, t),
        grad_env=lambda t, e: e,
        mu=1.0,
        lipschitz=1.0,
        noise_bound=0.1,
    )

    def runner(params):
        rngs = [np.random.default_rng(i) for i in range(2)]
        x0 = JointAction(np.zeros(1), np.zeros(1))
        psgd_nash(game, [box_1d(-1.0, 1.0), box_1d(5.0, 6.0)], box_1d(-1.0, 1.0), x0, 8, rngs)
        return {}

    monkeypatch.setitem(EXPERIMENTS, "psgd", (runner, EXPERIMENTS["psgd"][1]))
    out = tmp_path / "fpe-row"
    assert main(["psgd", "--out-dir", str(out)]) == 3
    assert read_manifest(out)["error"]["type"] == "FloatingPointError"


TWO_ROW_BLOCK = max(NOISE_BLOCK, NOISE_CELLS // 2)  # steps in a full noise block of a two-row batch


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad_step", [30, 2 * TWO_ROW_BLOCK + 3])  # mid-block; last of a partial third block
def test_non_finite_gradient_at_one_step_exits_with_solver_failure(tmp_path, monkeypatch, capsys, bad_step):
    bench = coupled_quadratic(sigma=0.3)
    game = gradient_bad_at(bench.game, bad_step, np.nan, [])

    def runner(params):
        x0 = JointAction(np.zeros(1), np.zeros(1))
        rngs = np.random.default_rng(0).spawn(2)
        psgd_nash(game, [bench.learner_set] * 2, bench.env_set, x0, 2 * TWO_ROW_BLOCK + 3, rngs)
        return {}

    monkeypatch.setitem(EXPERIMENTS, "psgd", (runner, EXPERIMENTS["psgd"][1]))
    out = tmp_path / "fpe-step"
    assert main(["psgd", "--out-dir", str(out)]) == 3
    error = {"type": "FloatingPointError", "message": "non-finite gradient components", "where": "core.py:_finite"}
    assert read_manifest(out)["error"] == error
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {"error": error}


def test_non_finite_gradient_in_a_confirmed_epoch_exits_with_solver_failure(tmp_path, monkeypatch, capsys):
    # arm 1's interval starts past theta = 3, where the learner gradient is nan, so epoch 1 fails
    # beside the runs of epoch 2 started early, and again when the selection reruns one epoch at a time
    arms, game, env_set = selection_arms([0.0, 5.0], sigma=0.5)
    nan_game = dataclasses.replace(game, grad_learner=lambda t, e: np.where(t > 3.0, np.nan, game.grad_learner(t, e)))

    def runner(params):
        successive_elimination(arms, nan_game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng(0))
        return {}

    monkeypatch.setitem(EXPERIMENTS, "select", (runner, EXPERIMENTS["select"][1]))
    out = tmp_path / "fpe-select"
    assert main(["select", "--out-dir", str(out)]) == 3
    error = {"type": "FloatingPointError", "message": "non-finite gradient components", "where": "core.py:_finite"}
    assert read_manifest(out)["error"] == error
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {"error": error}


def test_main_builds_the_parser_once(tmp_path):
    # argparse leaves ~450 objects in reference cycles per build; a run leaves a few dozen
    argv = ["markov", "--n", "4", "--points", "3", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() < 150
    assert gamescale.cli.build_parser() is gamescale.cli.build_parser()


def test_non_finite_result_exits_with_output_failure(tmp_path, capsys):
    # the finite a.csv is formatted first, but no file is written before every
    # table is: the run leaves manifest.json alone
    def runner(params):
        return {
            **table("a.csv", ["x", "y"], [(0, 1.0)]),
            **table("r.csv", ["x", "y"], [(0, 1.0), (1, float("nan"))]),
        }

    out = tmp_path / "nan"
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(EXPERIMENTS, "psgd", (runner, EXPERIMENTS["psgd"][1]))
        assert main(["psgd", "--out-dir", str(out)]) == 3
    error = read_manifest(out)["error"]
    assert error["type"] == "OutputError"
    assert error["stage"] == "output"
    assert "r.csv" in error["message"] and "column y" in error["message"]
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert read_manifest(out)["outputs"] == {}
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {"error": error}


def test_curve_step_of_dominance_grid_runs(tmp_path):
    out = tmp_path / "fine"
    assert main(["regression", "--curve-step", "0.001", "--out-dir", str(out)]) == 0
    assert len(read_rows(out / "regression_curve.csv")) == 20_001


def test_unwritable_output_exits_with_output_failure(tmp_path, capsys):
    # markov_sweep.csv is written before the directory blocks markov_sweep.svg
    out = tmp_path / "blocked"
    (out / "markov_sweep.svg").mkdir(parents=True)
    assert main(["markov", "--n", "4", "--points", "3", "--out-dir", str(out)]) == 3
    error = read_manifest(out)["error"]
    assert error["type"] == "OutputError"
    assert error["stage"] == "output"
    assert "markov_sweep.svg" in error["message"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "markov_sweep.svg"]
    assert read_manifest(out)["outputs"] == {}
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {"error": error}


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
def test_out_dir_that_is_a_file_exits_with_config_error(tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / below if below else blocker
    assert main(["markov", "--n", "4", "--points", "3", "--out-dir", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "config"
    assert "out_dir" in record["error"]["message"]
    assert blocker.read_text() == ""
