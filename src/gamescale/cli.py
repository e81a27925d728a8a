"""Experiment harness: config parsing, seeded runs, CSV/SVG emission, manifests.

Subcommands: psgd, select, restrict, markov, regression, participation,
scaling-curve. Parameters resolve as defaults < config file < command-line
flags; every run writes its outputs plus a manifest.json with the resolved
config and per-file checksums. Exit codes: 0 success, 2 invalid config,
3 solver or certification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .core import JointAction
from .equilibrium import REGIMES, nash_residual, psgd_nash, scaling_curve
from .instances import (
    coupled_quadratic,
    nested_box_ladder,
    restriction_instance,
    selection_arms,
    stackelberg_scaling_factory,
    stationary_scaling_factory,
    zero_sum_instance,
)
from .markov import build_chain_game, payoff_sweep
from .participation import alpha_threshold, default_instance, equilibrium_pair
from .regression import (
    RegressionInstance,
    compare_model_classes,
    large_model_env_objective,
    large_model_learner_loss,
    small_model_env_objective,
    small_model_loss,
)
from .restriction import RestrictionCertificate, RestrictionStageError, certify_restriction
from .selection import successive_elimination
from .svg import Series, line_chart


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config and output plumbing
# ---------------------------------------------------------------------------


def load_config(path: Optional[str]) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored."""
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def fmt_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, np.ndarray):
        return ",".join(fmt_value(float(c)) for c in v)
    return str(v)


def certificate_record(cert: RestrictionCertificate) -> dict[str, str]:
    """Flat key-value serialization (vectors as comma-separated decimals)."""
    fields = {
        "original_theta": cert.original_nash.theta,
        "original_env": cert.original_nash.env,
        "direction": cert.direction,
        "delta": cert.delta,
        "restricted_theta": cert.restricted_point.theta,
        "restricted_env": cert.restricted_point.env,
        "original_loss": cert.original_loss,
        "restricted_loss": cert.restricted_loss,
        "improvement": cert.improvement,
        "restricted_residual": cert.restricted_residual,
    }
    return {key: fmt_value(value) for key, value in fields.items()}


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_value(v) for v in row])
    return path


@dataclass
class PlotSpec:
    x: str
    ys: Sequence[str]
    title: str
    x_label: str
    y_label: str
    step: bool = False
    markers: bool = False
    vlines: Sequence[tuple[float, str]] = ()


def emit_plot(csv_path: Path, spec: PlotSpec, out_path: Path) -> Path:
    """Static chart from CSV columns; missing columns or empty data fail."""
    with Path(csv_path).open() as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"{csv_path}: no data rows to plot")
    missing = [c for c in (spec.x, *spec.ys) if c not in rows[0]]
    if missing:
        raise ConfigError(f"{csv_path}: missing columns {missing}")
    xs = [float(r[spec.x]) for r in rows]
    series = [
        Series(name=col, x=xs, y=[float(r[col]) for r in rows], step=spec.step, markers=spec.markers)
        for col in spec.ys
    ]
    out_path.write_text(
        line_chart(series, spec.title, spec.x_label, spec.y_label, vlines=list(spec.vlines))
    )
    return out_path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(
    out_dir: Path,
    experiment: str,
    config: dict,
    outputs: Sequence[Path],
    runtime: float,
    error: Optional[dict] = None,
) -> Path:
    manifest = {
        "experiment": experiment,
        "config": config,
        "version": __version__,
        "outputs": {p.name: _sha256(p) for p in outputs},
        "runtime_seconds": runtime,
        "error": error,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_psgd(params: dict, out_dir: Path) -> list[Path]:
    """averaged stochastic gradient Nash estimation"""
    bench = coupled_quadratic(sigma=params["sigma"])
    game = bench.game
    rows = []
    summary = []
    for h_idx, horizon in enumerate(params["horizons"]):
        gaps, residuals = [], []
        for s in range(params["n_seeds"]):
            rng = np.random.default_rng([params["seed"], h_idx, s])
            x0 = JointAction(
                bench.learner_set.project(np.zeros(1)), bench.env_set.project(np.zeros(1))
            )
            trace = psgd_nash(game, bench.learner_set, bench.env_set, x0, horizon, rng)
            avg = trace.averaged_point
            gap = abs(float(game.loss_learner(avg.theta, avg.env)) - bench.nash_learner_loss)
            res = nash_residual(game, avg, bench.learner_set, bench.env_set)
            gaps.append(gap)
            residuals.append(res)
            rows.append((horizon, s, gap, res))
        summary.append((horizon, float(np.mean(gaps)), float(np.mean(residuals))))
    out = [
        write_csv(out_dir / "psgd.csv", ["horizon", "seed", "f_l_gap", "nash_residual"], rows),
        write_csv(
            out_dir / "psgd_summary.csv",
            ["horizon", "mean_f_l_gap", "mean_nash_residual"],
            summary,
        ),
    ]
    out.append(
        emit_plot(
            out[1],
            PlotSpec(
                x="horizon",
                ys=["mean_f_l_gap"],
                title="Averaged-iterate loss gap vs horizon",
                x_label="horizon T",
                y_label="mean |f_l(avg) - f_l(nash)|",
                markers=True,
            ),
            out_dir / "psgd.svg",
        )
    )
    return out


def run_select(params: dict, out_dir: Path) -> list[Path]:
    """successive elimination over model classes"""
    arms, factory = selection_arms(params["losses"], sigma=params["sigma"])
    rng = np.random.default_rng([params["seed"]])
    report = successive_elimination(
        arms,
        factory,
        delta=params["delta"],
        alpha=params["alpha"],
        rng=rng,
        scale=params["scale"],
        max_total_steps=params["budget"],
    )
    log_rows = [
        (r.epoch, r.horizon, r.arm, r.estimate, r.radius, r.active_after)
        for r in report.evaluations
    ]
    summary = [
        (
            -1 if report.winner is None else report.winner,
            "|".join(str(i) for i in report.survivors),
            report.inconclusive,
            report.epochs,
            report.total_steps,
            report.delta,
        )
    ]
    return [
        write_csv(
            out_dir / "elimination_log.csv",
            ["epoch", "T", "arm", "estimate", "radius", "active"],
            log_rows,
        ),
        write_csv(
            out_dir / "selection_summary.csv",
            ["winner", "survivors", "inconclusive", "epochs", "total_steps", "delta"],
            summary,
        ),
    ]


def run_restrict(params: dict, out_dir: Path) -> list[Path]:
    """improving model-class restriction certificate"""
    bench = restriction_instance() if params["instance"] == "coupled" else zero_sum_instance()
    cert = certify_restriction(
        bench.game, bench.learner_set, bench.env_set, seed=params["seed"]
    )
    record = certificate_record(cert)
    path = out_dir / "certificate.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in record.items()))
    return [path]


def run_markov(params: dict, out_dir: Path) -> list[Path]:
    """chain Markov game payoff sweep"""
    for key in ("p_min", "p_max"):
        if not 0.5 <= params[key] <= 1.0:
            raise ConfigError(f"{key} must lie in [0.5, 1], got {params[key]}")
    game = build_chain_game(
        params["n"], gamma_l=params["gamma"], gamma_e=params["gamma_env"]
    )
    grid = np.linspace(params["p_min"], params["p_max"], params["points"])
    rows = [
        (eq.p_bar, eq.learner_value, eq.env_value, eq.absorbing_state, params["gamma"])
        for eq in payoff_sweep(game, grid)
    ]
    out = [
        write_csv(
            out_dir / "markov_sweep.csv",
            ["p_bar", "learner_value", "env_value", "absorbing_state", "gamma"],
            rows,
        )
    ]
    out.append(
        emit_plot(
            out[0],
            PlotSpec(
                x="p_bar",
                ys=["learner_value"],
                title=f"Chain game: learner value vs policy cap (n={params['n']})",
                x_label="policy cap p_bar",
                y_label="equilibrium learner value",
                step=True,
            ),
            out_dir / "markov_sweep.svg",
        )
    )
    return out


def run_regression(params: dict, out_dir: Path) -> list[Path]:
    """strategic regression loss comparison"""
    if params["curve_step"] <= 0:
        raise ConfigError("curve_step must be positive")
    instance = RegressionInstance(np.array(params["beta"]))
    comparison = compare_model_classes(instance)
    lo, hi = instance.k_range
    ks = np.arange(lo, hi + 1e-12, params["curve_step"])
    curve_rows = [
        (
            k,
            small_model_loss(instance, k),
            large_model_learner_loss(instance, k),
            small_model_env_objective(instance, k),
            large_model_env_objective(instance, k),
        )
        for k in ks
    ]
    eq_rows = [
        (o.model_class, o.k_star, o.learner_loss, o.env_objective,
         o.learner_loss / instance.beta_norm**2)
        for o in (comparison.small, comparison.large)
    ]
    summary_rows = [
        (
            comparison.reverse_scaling,
            comparison.pointwise_dominance,
            comparison.large.learner_loss - comparison.small.learner_loss,
        )
    ]
    out = [
        write_csv(
            out_dir / "regression_curve.csv",
            ["k", "small_loss", "large_loss", "env_obj_small", "env_obj_large"],
            curve_rows,
        ),
        write_csv(
            out_dir / "regression_equilibrium.csv",
            ["model_class", "k_star", "learner_loss", "env_objective", "loss_over_beta_sq"],
            eq_rows,
        ),
        write_csv(
            out_dir / "regression_summary.csv",
            ["reverse_scaling", "pointwise_dominance", "loss_gap"],
            summary_rows,
        ),
    ]
    out.append(
        emit_plot(
            out[0],
            PlotSpec(
                x="k",
                ys=["small_loss", "large_loss"],
                title="Best-response losses vs shift magnitude",
                x_label="shift magnitude k",
                y_label="learner loss",
                vlines=[
                    (comparison.small.k_star, "#1f77b4"),
                    (comparison.large.k_star, "#d62728"),
                ],
            ),
            out_dir / "regression_curve.svg",
        )
    )
    return out


def run_participation(params: dict, out_dir: Path) -> list[Path]:
    """participation dynamics alpha sweep"""
    base, phi = default_instance()
    n_labels = base.n_labels
    threshold = alpha_threshold(base, phi, n_labels)
    rows = []
    for alpha in np.linspace(params["alpha_min"], params["alpha_max"], params["alpha_points"]):
        full = equilibrium_pair("full", base, phi, float(alpha))
        restricted = equilibrium_pair("restricted", base, phi, float(alpha))
        if not (full.certificate.passed and restricted.certificate.passed):
            raise RuntimeError(f"equilibrium certificate failed at alpha={alpha}")
        rows.append(
            (alpha, full.loss, restricted.loss, threshold, full.loss > restricted.loss)
        )
    out = [
        write_csv(
            out_dir / "participation_sweep.csv",
            ["alpha", "full_loss", "restricted_loss", "threshold", "reverse_scaling_flag"],
            rows,
        )
    ]
    out.append(
        emit_plot(
            out[0],
            PlotSpec(
                x="alpha",
                ys=["full_loss", "restricted_loss"],
                title="Participation game: equilibrium losses vs alpha",
                x_label="manipulating fraction alpha",
                y_label="zero-one loss",
                markers=True,
            ),
            out_dir / "participation_sweep.svg",
        )
    )
    return out


def run_scaling_curve(params: dict, out_dir: Path) -> list[Path]:
    """equilibrium losses across a nested ladder"""
    regime = params["regime"]
    radii = params["radii"]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii must be strictly increasing (small class first)")
    if regime == "stationary":
        ladder = nested_box_ladder(radii, dim=2)
        factory = stationary_scaling_factory(np.array([2.0, 0.0]))
    else:
        ladder = nested_box_ladder(radii, dim=1)
        factory = stackelberg_scaling_factory()
    curve = scaling_curve(factory, ladder, regime)
    rows = [
        (k, radii[k], rep.loss_learner, rep.loss_env, rep.nash_residual, rep.regime, rep.certified)
        for k, rep in curve
    ]
    out = [
        write_csv(
            out_dir / "scaling_curve.csv",
            ["class_index", "radius", "learner_loss", "env_loss", "nash_residual", "regime", "certified"],
            rows,
        )
    ]
    out.append(
        emit_plot(
            out[0],
            PlotSpec(
                x="class_index",
                ys=["learner_loss"],
                title=f"Learner loss across the ladder ({regime})",
                x_label="model class index",
                y_label="equilibrium learner loss",
                markers=True,
            ),
            out_dir / "scaling_curve.svg",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def _one_of(*choices: str) -> Callable[[str], str]:
    def cast(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {list(choices)}, got {text!r}")
        return text

    return cast


# experiment -> (runner, {key: (cast, default)}); the key is also the flag
# (--n-seeds for n_seeds) and the config-file name. Defaults are written as on
# the command line and cast like any other value.
EXPERIMENTS: dict[str, tuple[Callable[[dict, Path], list[Path]], dict]] = {
    "psgd": (run_psgd, {
        "sigma": (float, "0.3"), "horizons": (_ints, "512,4096"), "n_seeds": (_positive_int, "20"),
    }),
    "select": (run_select, {
        "losses": (_floats, "0,0.25,0.5,1.0"), "delta": (float, "0.1"), "alpha": (float, "8.0"),
        "sigma": (float, "0.5"), "scale": (float, "1.0"), "budget": (int, "1000000"),
    }),
    "restrict": (run_restrict, {"instance": (_one_of("coupled", "zero_sum"), "coupled")}),
    "markov": (run_markov, {
        "n": (int, "50"), "gamma": (float, "0.9"), "gamma_env": (float, None),
        "points": (_positive_int, "200"), "p_min": (float, "0.5"), "p_max": (float, "1.0"),
    }),
    "regression": (run_regression, {"beta": (_floats, "1,0"), "curve_step": (float, "0.01")}),
    "participation": (run_participation, {
        "alpha_points": (_positive_int, "21"), "alpha_min": (float, "0.0"), "alpha_max": (float, "1.0"),
    }),
    "scaling-curve": (run_scaling_curve, {
        "regime": (_one_of(*REGIMES), "stationary"),
        "radii": (_floats, "0.2,0.4,0.6,0.8,1.0"),
    }),
}
COMMON = {"seed": (int, "0")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamescale",
        description="Equilibrium scaling experiments for games under model-class restrictions",
    )
    subs = parser.add_subparsers(dest="experiment", required=True)
    for experiment, (runner, table) in EXPERIMENTS.items():
        sub = subs.add_parser(experiment, help=runner.__doc__)
        sub.add_argument("--out-dir", help="output directory (default out/<experiment>)")
        sub.add_argument("--config", help="key=value config file")
        for key, (_, default) in {**COMMON, **table}.items():
            sub.add_argument("--" + key.replace("_", "-"), help=f"default {default}")
    return parser


def _resolve_params(args: argparse.Namespace, cfg: dict[str, str]) -> dict:
    """Command-line value wins over the config file, which wins over the default."""
    table = {**COMMON, **EXPERIMENTS[args.experiment][1]}
    unknown = set(cfg) - set(table) - {"out_dir"}
    if unknown:
        raise ConfigError(f"unknown config keys for {args.experiment}: {sorted(unknown)}")
    params = {}
    for key, (cast, default) in table.items():
        raw = getattr(args, key)
        if raw is None:
            raw = cfg.get(key, default)
        try:
            params[key] = None if raw is None else cast(raw)
            if params[key] == []:
                raise ValueError("needs at least one value")
        except ValueError as exc:
            raise ConfigError(f"{key}={raw!r}: {exc}") from exc
    return params


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg = load_config(args.config)
        params = _resolve_params(args, cfg)
        out_dir = Path(args.out_dir or cfg.get("out_dir") or f"out/{args.experiment}")
        out_dir.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}), file=sys.stderr)
        return 2
    try:
        outputs = EXPERIMENTS[args.experiment][0](params, out_dir)
    except ValueError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, RestrictionStageError):
            error["stage"] = exc.stage
        write_manifest(out_dir, args.experiment, params, [], time.monotonic() - started, error)
        print(json.dumps({"error": error}), file=sys.stderr)
        return 3
    write_manifest(out_dir, args.experiment, params, outputs, time.monotonic() - started)
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
