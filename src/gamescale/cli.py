"""Experiment harness: config parsing, seeded runs, CSV/SVG emission, manifests.

Subcommands: psgd, select, restrict, markov, regression, participation,
scaling-curve. Parameters resolve as defaults < config file < command-line
flags. Each runner returns its output texts by file name and touches no file;
`main` writes them only after all of them are formatted, then a manifest.json
with the resolved config and per-file checksums; a failed run, a failed write
included, leaves only manifest.json. Exit codes: 0 success, 2 invalid config
(a bad --out-dir too), 3 solver, certification or output failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .core import JointAction
from .equilibrium import MAX_RUNS, MAX_STEPS, REGIMES, nash_residual, psgd_nash, scaling_curve
from .instances import (
    coupled_quadratic,
    nested_box_ladder,
    restriction_instance,
    selection_arms,
    stackelberg_scaling_game,
    stationary_scaling_game,
    zero_sum_instance,
)
from .markov import MAX_POINTS, MAX_STATES, build_chain_game, payoff_sweep
from .participation import alpha_threshold, default_instance, equilibrium_pair
from .regression import K_RANGE, RegressionInstance, compare_model_classes, loss_curves
from .restriction import RestrictionCertificate, certify_restriction
from .selection import successive_elimination
from .svg import line_chart


class ConfigError(ValueError):
    pass


class OutputError(RuntimeError):
    """A result value is not finite, or an output file cannot be written; the run fails."""

    stage = "output"


# ---------------------------------------------------------------------------
# Config and output plumbing
# ---------------------------------------------------------------------------


def load_config(path: Optional[str]) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        why = getattr(exc, "strerror", exc)  # a decode error has no strerror
        why = "not found" if isinstance(exc, FileNotFoundError) else f"unreadable ({why})"
        raise ConfigError(f"config file {why}: {path}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
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
        if not math.isfinite(v):
            raise OutputError(f"non-finite result value {float(v)}")
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


def csv_text(name: str, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The table as CSV text; an unwritable value raises OutputError naming file and column."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        cells = []
        for col, v in zip(header, row, strict=True):
            try:
                cells.append(fmt_value(v))
            except OutputError as exc:
                raise OutputError(f"{name}, column {col}: {exc}") from None
        writer.writerow(cells)
    return buf.getvalue()


def table(
    name: str, header: Sequence[str], rows: Sequence[Sequence], chart: Optional[str] = None, **spec
) -> dict[str, str]:
    """The table's CSV text and, given a chart file name, its `line_chart` of spec, by file name."""
    texts = {name: csv_text(name, header, rows)}
    if chart is not None:
        texts[chart] = line_chart(header, rows, **spec)
    return texts


def check_caps(caps: dict) -> None:
    """Each key's value against its work cap, before any work: {key: (value, cap)}."""
    for key, (value, cap) in caps.items():
        if value > cap:
            raise ConfigError(f"{key} must be at most {cap}, got {value}")


def write_manifest(
    out_dir: Path,
    experiment: str,
    config: dict,
    outputs: dict[str, bytes],
    runtime: float,
    error: Optional[dict] = None,
) -> None:
    manifest = {
        "experiment": experiment,
        "config": config,
        "version": __version__,
        "outputs": {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()},
        "runtime_seconds": runtime,
        "error": error,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_psgd(params: dict) -> dict[str, str]:
    """averaged stochastic gradient Nash estimation"""
    n_seeds = params["n_seeds"]
    steps = n_seeds * sum(params["horizons"])
    check_caps({"n_seeds": (n_seeds, MAX_RUNS), "n_seeds * sum(horizons)": (steps, MAX_STEPS)})
    bench = coupled_quadratic(sigma=params["sigma"])
    game = bench.game
    x0 = JointAction(np.zeros(1), np.zeros(1))
    rows, summary = [], []
    for h_idx, horizon in enumerate(params["horizons"]):
        gaps, residuals = [], []
        rngs = [np.random.default_rng([params["seed"], h_idx, s]) for s in range(n_seeds)]
        averages = psgd_nash(game, [bench.learner_set] * n_seeds, bench.env_set, x0, horizon, rngs)
        for s, avg in enumerate(averages):
            gap = abs(float(game.loss_learner(avg.theta, avg.env)) - bench.nash_learner_loss)
            res = nash_residual(game, avg, bench.learner_set, bench.env_set)
            gaps.append(gap)
            residuals.append(res)
            rows.append((horizon, s, gap, res))
        summary.append((horizon, float(np.mean(gaps)), float(np.mean(residuals))))
    return {
        **table("psgd.csv", ["horizon", "seed", "f_l_gap", "nash_residual"], rows),
        **table(
            "psgd_summary.csv",
            ["horizon", "mean_f_l_gap", "mean_nash_residual"],
            summary,
            chart="psgd.svg",
            x="horizon",
            ys=["mean_f_l_gap"],
            title="Averaged-iterate loss gap vs horizon",
            x_label="horizon T",
            y_label="mean |f_l(avg) - f_l(nash)|",
            markers=True,
        ),
    }


def run_select(params: dict) -> dict[str, str]:
    """successive elimination over model classes"""
    check_caps({"len(losses)": (len(params["losses"]), MAX_RUNS), "budget": (params["budget"], MAX_STEPS)})
    arms, game, env_set = selection_arms(params["losses"], sigma=params["sigma"])
    rng = np.random.default_rng([params["seed"]])
    report = successive_elimination(
        arms,
        game,
        env_set,
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
    return {
        **table("elimination_log.csv", ["epoch", "T", "arm", "estimate", "radius", "active"], log_rows),
        **table(
            "selection_summary.csv",
            ["winner", "survivors", "inconclusive", "epochs", "total_steps", "delta"],
            summary,
        ),
    }


def run_restrict(params: dict) -> dict[str, str]:
    """improving model-class restriction certificate"""
    bench = restriction_instance() if params["instance"] == "coupled" else zero_sum_instance()
    cert = certify_restriction(
        bench.game, bench.learner_set, bench.env_set, seed=params["seed"]
    )
    record = certificate_record(cert)
    return {"certificate.txt": "".join(f"{k}={v}\n" for k, v in record.items())}


def run_markov(params: dict) -> dict[str, str]:
    """chain Markov game payoff sweep"""
    for key in ("p_min", "p_max"):
        if not 0.5 <= params[key] <= 1.0:
            raise ConfigError(f"{key} must lie in [0.5, 1], got {params[key]}")
    check_caps({"n": (params["n"], MAX_STATES), "points": (params["points"], MAX_POINTS)})
    game = build_chain_game(
        params["n"], gamma_l=params["gamma"], gamma_e=params["gamma_env"]
    )
    grid = np.linspace(params["p_min"], params["p_max"], params["points"])
    rows = [
        (eq.p_bar, eq.learner_value, eq.env_value, eq.absorbing_state, params["gamma"])
        for eq in payoff_sweep(game, grid)
    ]
    return table(
        "markov_sweep.csv",
        ["p_bar", "learner_value", "env_value", "absorbing_state", "gamma"],
        rows,
        chart="markov_sweep.svg",
        x="p_bar",
        ys=["learner_value"],
        title=f"Chain game: learner value vs policy cap (n={params['n']})",
        x_label="policy cap p_bar",
        y_label="equilibrium learner value",
        step=True,
    )


def run_regression(params: dict) -> dict[str, str]:
    """strategic regression loss comparison"""
    step = params["curve_step"]
    lo, hi = K_RANGE
    # np.arange's length is this quotient rounded up; at most the 1e-3 dominance grid's 20,001
    if not (step > 0 and (hi + 1e-12 - lo) / step <= 20_001):
        raise ConfigError(f"curve_step must be positive and give at most 20001 k values, got {step}")
    instance = RegressionInstance(np.array(params["beta"]))
    comparison = compare_model_classes(instance)
    curve_rows = loss_curves(instance, np.arange(lo, hi + 1e-12, step))
    eq_rows = [
        (o.model_class, o.k_star, o.learner_loss, o.env_objective,
         o.learner_loss / instance.beta_norm**2)
        for o in (comparison.small, comparison.large)
    ]
    gap = comparison.large.learner_loss - comparison.small.learner_loss
    summary_rows = [(comparison.reverse_scaling, comparison.pointwise_dominance, gap)]
    return {
        **table(
            "regression_curve.csv",
            ["k", "small_loss", "large_loss", "env_obj_small", "env_obj_large"],
            curve_rows,
            chart="regression_curve.svg",
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
        **table(
            "regression_equilibrium.csv",
            ["model_class", "k_star", "learner_loss", "env_objective", "loss_over_beta_sq"],
            eq_rows,
        ),
        **table(
            "regression_summary.csv",
            ["reverse_scaling", "pointwise_dominance", "loss_gap"],
            summary_rows,
        ),
    }


def run_participation(params: dict) -> dict[str, str]:
    """participation dynamics alpha sweep"""
    for key in ("alpha_min", "alpha_max"):
        if not 0.0 <= params[key] <= 1.0:
            raise ConfigError(f"{key} must lie in [0, 1], got {params[key]}")
    base, phi = default_instance()
    threshold = alpha_threshold(base, phi)
    rows = []
    for alpha in np.linspace(params["alpha_min"], params["alpha_max"], params["alpha_points"]):
        full = equilibrium_pair("full", base, phi, float(alpha))
        restricted = equilibrium_pair("restricted", base, phi, float(alpha))
        if not (full.certified and restricted.certified):
            raise RuntimeError(f"equilibrium certificate failed at alpha={alpha}")
        rows.append(
            (alpha, full.loss, restricted.loss, threshold, full.loss > restricted.loss)
        )
    return table(
        "participation_sweep.csv",
        ["alpha", "full_loss", "restricted_loss", "threshold", "reverse_scaling_flag"],
        rows,
        chart="participation_sweep.svg",
        x="alpha",
        ys=["full_loss", "restricted_loss"],
        title="Participation game: equilibrium losses vs alpha",
        x_label="manipulating fraction alpha",
        y_label="zero-one loss",
        markers=True,
    )


def run_scaling_curve(params: dict) -> dict[str, str]:
    """equilibrium losses across a nested ladder"""
    regime = params["regime"]
    radii = params["radii"]
    if not all(0.0 <= r < math.inf for r in radii):
        raise ConfigError(f"radii must be finite and nonnegative, got {radii}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii must be strictly increasing (small class first)")
    if regime == "stationary":
        game = stationary_scaling_game(np.array([2.0, 0.0]))
        curve = scaling_curve(game, nested_box_ladder(radii, dim=2), regime)
    else:
        game, env_set = stackelberg_scaling_game()
        curve = scaling_curve(game, nested_box_ladder(radii, dim=1), regime, env_set=env_set)
    rows = [
        (k, radii[k], rep.loss_learner, rep.loss_env, rep.nash_residual, rep.regime, rep.certified)
        for k, rep in curve
    ]
    return table(
        "scaling_curve.csv",
        ["class_index", "radius", "learner_loss", "env_loss", "nash_residual", "regime", "certified"],
        rows,
        chart="scaling_curve.svg",
        x="class_index",
        ys=["learner_loss"],
        title=f"Learner loss across the ladder ({regime})",
        x_label="model class index",
        y_label="equilibrium learner loss",
        markers=True,
    )


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _at_least(low: int) -> Callable[[str], int]:
    def cast(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return cast


def _positive_ints(text: str) -> list[int]:
    return [_at_least(1)(v) for v in text.split(",") if v.strip()]


def _one_of(*choices: str) -> Callable[[str], str]:
    def cast(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {list(choices)}, got {text!r}")
        return text

    return cast


# experiment -> (runner, {key: (cast, default)}); the key is also the flag
# (--n-seeds for n_seeds) and the config-file name. Defaults are written as on
# the command line and cast like any other value.
EXPERIMENTS: dict[str, tuple[Callable[[dict], dict[str, str]], dict]] = {
    "psgd": (run_psgd, {
        "sigma": (float, "0.3"), "horizons": (_positive_ints, "512,4096"),
        "n_seeds": (_at_least(1), "20"),
    }),
    "select": (run_select, {
        "losses": (_floats, "0,0.25,0.5,1.0"), "delta": (float, "0.1"), "alpha": (float, "8.0"),
        "sigma": (float, "0.5"), "scale": (float, "1.0"), "budget": (_at_least(1), "1000000"),
    }),
    "restrict": (run_restrict, {"instance": (_one_of("coupled", "zero_sum"), "coupled")}),
    "markov": (run_markov, {
        "n": (int, "50"), "gamma": (float, "0.9"), "gamma_env": (float, None),
        "points": (_at_least(1), "200"), "p_min": (float, "0.5"), "p_max": (float, "1.0"),
    }),
    "regression": (run_regression, {"beta": (_floats, "1,0"), "curve_step": (float, "0.01")}),
    "participation": (run_participation, {
        "alpha_points": (_at_least(1), "21"), "alpha_min": (float, "0.0"), "alpha_max": (float, "1.0"),
    }),
    "scaling-curve": (run_scaling_curve, {
        "regime": (_one_of(*REGIMES), "stationary"),
        "radii": (_floats, "0.2,0.4,0.6,0.8,1.0"),
    }),
}
COMMON = {"seed": (_at_least(0), "0")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamescale",
        description="Equilibrium scaling experiments for games under model-class restrictions",
    )
    subs = parser.add_subparsers(dest="experiment", required=True)
    for experiment, (runner, keys) in EXPERIMENTS.items():
        sub = subs.add_parser(experiment, help=runner.__doc__)
        sub.add_argument("--out-dir", help="output directory (default out/<experiment>)")
        sub.add_argument("--config", help="key=value config file")
        for key, (_, default) in {**COMMON, **keys}.items():
            sub.add_argument("--" + key.replace("_", "-"), help=f"default {default}")
    return parser


def _resolve_params(args: argparse.Namespace, cfg: dict[str, str]) -> dict:
    """Command-line value wins over the config file, which wins over the default."""
    keys = {**COMMON, **EXPERIMENTS[args.experiment][1]}
    unknown = set(cfg) - set(keys) - {"out_dir"}
    if unknown:
        raise ConfigError(f"unknown config keys for {args.experiment}: {sorted(unknown)}")
    params = {}
    for key, (cast, default) in keys.items():
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
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out_dir={str(out_dir)!r}: {exc}") from exc
        texts = EXPERIMENTS[args.experiment][0](params)
        outputs = {name: text.encode() for name, text in texts.items()}
        opened = []
        try:
            for name, data in outputs.items():
                with (out_dir / name).open("wb") as fh:
                    opened.append(name)
                    fh.write(data)
        except OSError as exc:
            for done in opened:
                (out_dir / done).unlink(missing_ok=True)
            raise OutputError(f"cannot write {name}: {exc}") from exc
    except ValueError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}), file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        # only the runner and the writes raise these, so out_dir is set and no output is on disk
        error = {"type": type(exc).__name__, "message": str(exc)}
        stage = getattr(exc, "stage", None)
        if stage is not None:
            error["stage"] = stage
        write_manifest(out_dir, args.experiment, params, {}, time.monotonic() - started, error)
        print(json.dumps({"error": error}), file=sys.stderr)
        return 3
    write_manifest(out_dir, args.experiment, params, outputs, time.monotonic() - started)
    for name in outputs:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
