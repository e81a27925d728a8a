"""CLI harness: config resolution, determinism, manifests, and exit codes."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from gamescale.cli import EXPERIMENTS, PlotSpec, emit_plot, load_config, main, write_csv


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


def test_zero_sum_restriction_exits_with_certification_failure(tmp_path):
    out = tmp_path / "zs"
    assert main(["restrict", "--instance", "zero_sum", "--out-dir", str(out)]) == 3
    manifest = read_manifest(out)
    assert manifest["error"]["type"] == "HypothesisNotSatisfiedError"
    assert manifest["error"]["stage"] == "pareto_check"


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


def test_psgd_run_small(tmp_path):
    out = tmp_path / "psgd"
    assert main(
        ["psgd", "--horizons", "64,256", "--n-seeds", "3", "--out-dir", str(out)]
    ) == 0
    rows = read_rows(out / "psgd.csv")
    assert len(rows) == 6
    summary = read_rows(out / "psgd_summary.csv")
    assert float(summary[1]["mean_f_l_gap"]) < float(summary[0]["mean_f_l_gap"]) * 0.8


def test_scaling_curve_runs_all_regimes(tmp_path):
    for regime in ("stationary", "stackelberg_leader", "nash"):
        out = tmp_path / regime
        assert main(
            ["scaling-curve", "--regime", regime, "--radii", "0.25,0.5,1.0", "--out-dir", str(out)]
        ) == 0
        rows = read_rows(out / "scaling_curve.csv")
        assert len(rows) == 3
        losses = [float(r["learner_loss"]) for r in rows]
        if regime != "nash":
            assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_emit_plot_validates_columns(tmp_path):
    data = tmp_path / "d.csv"
    write_csv(data, ["x", "y"], [(0, 1.0), (1, 2.0)])
    from gamescale.cli import ConfigError

    with pytest.raises(ConfigError):
        emit_plot(data, PlotSpec(x="x", ys=["missing"], title="", x_label="", y_label=""), tmp_path / "o.svg")
    empty = tmp_path / "e.csv"
    write_csv(empty, ["x", "y"], [])
    with pytest.raises(ConfigError):
        emit_plot(empty, PlotSpec(x="x", ys=["y"], title="", x_label="", y_label=""), tmp_path / "o.svg")
    svg = emit_plot(
        data, PlotSpec(x="x", ys=["y"], title="t", x_label="x", y_label="y"), tmp_path / "ok.svg"
    )
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_load_config_parses_comments_and_spacing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# header\n\n key = value \nother=1\n")
    assert load_config(str(cfg)) == {"key": "value", "other": "1"}


def test_csv_floats_are_full_precision(tmp_path):
    path = tmp_path / "f.csv"
    value = 0.1234567890123456789
    write_csv(path, ["v"], [(value,)])
    rows = read_rows(path)
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
        assert (out / "manifest.json").exists()


BAD_VALUES = [
    (["psgd", "--horizons", "abc"], None, "horizons"),
    (["psgd"], "horizons = 5,x\n", "horizons"),
    (["select", "--losses", "a,b"], None, "losses"),
    (["regression", "--beta", "x"], None, "beta"),
    (["scaling-curve", "--radii", "1,x"], None, "radii"),
    (["markov", "--n", "0"], None, "at least one state"),
    (["regression", "--curve-step", "0"], None, "curve_step"),
    (["psgd", "--n-seeds", "0", "--horizons", "8"], None, "n_seeds"),
    (["psgd", "--sigma", "nan", "--horizons", "8", "--n-seeds", "1"], None, "noise_bound"),
    (["psgd", "--sigma", "inf", "--horizons", "8", "--n-seeds", "1"], None, "noise_bound"),
    (["select", "--losses", "-1"], None, "losses"),
    (["markov", "--points", "0"], None, "points"),
    (["participation", "--alpha-points", "0"], None, "alpha_points"),
    (["markov", "--gamma", "1"], None, "discount"),
    (["select", "--losses", ""], None, "losses"),
    (["psgd", "--horizons", ""], None, "horizons"),
    (["scaling-curve", "--radii", ""], None, "radii"),
    (["regression", "--beta", ""], None, "beta"),
    (["markov", "--p-min", "0.4"], None, "p_min"),
    (["markov", "--p-max", "1.5"], None, "p_max"),
    (["scaling-curve", "--regime", "bogus"], None, "regime"),
    (["restrict", "--instance", "bogus"], None, "instance"),
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


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_config_of_defaults_matches_no_config(tmp_path, monkeypatch, experiment):
    _, table = EXPERIMENTS[experiment]
    monkeypatch.setitem(EXPERIMENTS, experiment, (lambda params, out_dir: [], table))
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(
        "".join(f"{key} = {default}\n" for key, (_, default) in table.items() if default is not None)
    )
    configs = []
    for name, extra in (("bare", []), ("cfg", ["--config", str(cfg)])):
        out = tmp_path / name
        assert main([experiment, "--out-dir", str(out), *extra]) == 0
        configs.append(read_manifest(out)["config"])
    assert configs[0] == configs[1]
    assert set(configs[0]) == {"seed", *table}
