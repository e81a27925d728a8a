"""Experiment harness: config parsing, seeded runs, CSV/SVG emission, manifests.

Subcommands: psgd, select, restrict, markov, regression, participation,
scaling-curve. Parameters resolve as defaults < config file < command-line
flags. Each key's cast in EXPERIMENTS checks its whole domain, so a runner
gets only values it can run; the one cross-key rule, psgd's step cap, is
checked in run_psgd. Each runner returns its output texts by file name and
touches no file; `main` writes them only after all of them are formatted,
then a manifest.json with the resolved config and per-file checksums.
Exit codes: 0 success; 2 a value outside its key's domain, named (a bad
--out-dir or --config file too); 3 any failure after the config is accepted,
a failed write included, which leaves only manifest.json with an error record.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .core import JointAction
from .equilibrium import MAX_RUNS, MAX_STEPS, REGIMES, nash_residual, scaling_curve
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
from .psgd import PSGDBatch
from .regression import K_RANGE, MAX_DIM, RegressionInstance, compare_model_classes, loss_curves
from .restriction import RestrictionCertificate, certify_restriction
from .selection import successive_elimination
from .tables import OutputError, fmt_value, table


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config and output plumbing
# ---------------------------------------------------------------------------


def load_config(path: Optional[str]) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
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
    # Entry h of --horizons is a cohort of n_seeds runs, run s on default_rng([seed, h, s]), in one
    # psgd.PSGDBatch: the next entry joins each time a cohort ends, with at most two cohorts (each
    # run call re-stacks them all) and MAX_RUNS rows in the batch at a time. Rows are written in
    # --horizons order, with the bits of one batch per entry.
    n_seeds, horizons = params["n_seeds"], params["horizons"]
    steps = n_seeds * sum(horizons)
    if steps > MAX_STEPS:
        raise ConfigError(f"n_seeds * sum(horizons) must be at most {MAX_STEPS}, got {steps}")
    bench = coupled_quadratic(sigma=params["sigma"])
    game = bench.game
    batch = PSGDBatch(game, bench.env_set, JointAction(np.zeros(1), np.zeros(1)))
    width = 2 if 2 * n_seeds <= MAX_RUNS else 1  # cohorts in the batch at a time
    joined, averages, h_idx = {}, {}, 0  # cohort -> its entry; entry -> its (n_seeds, d) averages
    while h_idx < len(horizons) or joined:
        if h_idx < len(horizons) and len(joined) < width:
            rngs = [np.random.default_rng([params["seed"], h_idx, s]) for s in range(n_seeds)]
            joined[batch.join([bench.learner_set] * n_seeds, horizons[h_idx], rngs)] = h_idx
            h_idx += 1
        else:
            cohort, runs = batch.run()
            averages[joined.pop(cohort)] = runs
    rows, summary = [], []
    for h_idx, horizon in enumerate(horizons):
        gaps, residuals = [], []
        for s, row in enumerate(averages[h_idx]):
            avg = JointAction.from_concat(row, game.dim_learner)
            gap = abs(game.loss("learner", avg.theta, avg.env, f"seed {s}'s average") - bench.nash_learner_loss)
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
    game = build_chain_game(
        params["n"], gamma_l=params["gamma"], gamma_e=params["gamma_env"]
    )
    grid = np.linspace(params["p_min"], params["p_max"], params["points"])
    # the state index as a float, which '%.17g' writes as the int
    rows = np.column_stack([*payoff_sweep(game, grid), np.full(grid.size, params["gamma"])])
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
    lo, hi = K_RANGE
    instance = RegressionInstance(np.array(params["beta"]))
    comparison = compare_model_classes(instance)
    curve_rows = loss_curves(instance, np.arange(lo, hi + 1e-12, params["curve_step"]))
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


def _checked(cast: Callable[[str], object], ok: Callable, rule: str) -> Callable[[str], object]:
    """cast, then a ValueError stating the rule unless ok(value)"""
    def checked(text: str):
        value = cast(text)
        if not ok(value):
            raise ValueError(f"must {rule}")
        return value

    return checked


def _listed(cast: Callable[[str], object]) -> Callable[[str], list]:
    """Comma-separated values, each cast; no value at all is an error."""
    return _checked(lambda text: [cast(v) for v in text.split(",") if v.strip()], bool, "list a value")


def _count(cap: int) -> Callable[[str], int]:
    return _checked(int, lambda v: 1 <= v <= cap, f"be at least 1 and at most {cap}")


@np.errstate(over="ignore")
def _finite_nonzero_norm(values: list[float]) -> bool:
    """0 < |beta|^2 < inf, with |beta|^2 computed as RegressionInstance computes it"""
    return 0.0 < float(np.array(values) @ np.array(values)) < math.inf


_NONNEGATIVE = _checked(float, lambda v: 0.0 <= v < math.inf, "be finite and nonnegative")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "be finite and positive")
_DISCOUNT = _checked(float, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
_POLICY_CAP = _checked(float, lambda v: 0.5 <= v <= 1.0, "lie in [0.5, 1]")
_FRACTION = _checked(float, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_RUNS = f"have at most {MAX_RUNS} values"
# successive elimination divides delta by 2 n T^2; above this floor the quotient stays normal at the caps
_DELTA_FLOOR = 2 * MAX_RUNS * MAX_STEPS**2 * sys.float_info.min

# experiment -> (runner, {key: (cast, default)}); the key is also the flag
# (--n-seeds for n_seeds) and the config-file name. Each cast checks the key's
# whole domain, work caps included; defaults are cast like any other value.
EXPERIMENTS: dict[str, tuple[Callable[[dict], dict[str, str]], dict]] = {
    "psgd": (run_psgd, {
        "sigma": (_NONNEGATIVE, "0.3"),
        "horizons": (_listed(_checked(int, lambda v: v >= 1, "be at least 1")), "512,4096"),
        "n_seeds": (_count(MAX_RUNS), "20"),
    }),
    "select": (run_select, {
        # each arm sits at sqrt(2 * loss) (selection_arms)
        "losses": (_checked(_listed(_checked(float, lambda v: 0.0 <= 2.0 * v < math.inf,
                                             "be nonnegative, with 2 * loss finite")),
                            lambda v: len(v) <= MAX_RUNS, _RUNS), "0,0.25,0.5,1.0"),
        "delta": (_checked(float, lambda v: _DELTA_FLOOR <= v < 1.0,
                           f"lie in (0, 1) and be at least {_DELTA_FLOOR:.3g}"), "0.1"),
        "alpha": (_POSITIVE, "8.0"), "sigma": (_NONNEGATIVE, "0.5"), "scale": (_POSITIVE, "1.0"),
        "budget": (_count(MAX_STEPS), "1000000"),
    }),
    "restrict": (run_restrict, {
        "instance": (_checked(str, lambda v: v in ("coupled", "zero_sum"), "be coupled or zero_sum"),
                     "coupled"),
    }),
    "markov": (run_markov, {
        "n": (_count(MAX_STATES), "50"), "gamma": (_DISCOUNT, "0.9"), "gamma_env": (_DISCOUNT, None),
        "points": (_count(MAX_POINTS), "200"), "p_min": (_POLICY_CAP, "0.5"), "p_max": (_POLICY_CAP, "1.0"),
    }),
    "regression": (run_regression, {
        "beta": (_checked(_checked(_listed(float), lambda v: len(v) <= MAX_DIM, f"have at most {MAX_DIM} values"),
                          _finite_nonzero_norm, "have a finite, nonzero |beta|^2"), "1,0"),
        # np.arange's length is this quotient rounded up; at most the 1e-3 dominance grid's 20,001
        "curve_step": (_checked(float, lambda v: v > 0 and (K_RANGE[1] + 1e-12 - K_RANGE[0]) / v <= 20_001,
                                "be positive and give at most 20001 k values"), "0.01"),
    }),
    "participation": (run_participation, {
        "alpha_points": (_count(MAX_POINTS), "21"),
        "alpha_min": (_FRACTION, "0.0"), "alpha_max": (_FRACTION, "1.0"),
    }),
    "scaling-curve": (run_scaling_curve, {
        "regime": (_checked(str, lambda v: v in REGIMES, f"be one of {list(REGIMES)}"), "stationary"),
        "radii": (_checked(_listed(_NONNEGATIVE), lambda v: len(v) <= MAX_RUNS and v == sorted(set(v)),
                           _RUNS + ", strictly increasing"), "0.2,0.4,0.6,0.8,1.0"),
    }),
}
COMMON = {"seed": (_checked(int, lambda v: v >= 0, "be at least 0"), "0")}


@functools.cache  # one per process: each build leaves ~450 objects in reference cycles
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
        except ValueError as exc:
            shown = f"{key}={raw!r}" if len(raw) <= 80 else key  # a long list is named, not echoed
            raise ConfigError(f"{shown}: {exc}") from exc
    return params


def _where(exc: BaseException) -> str:
    """file:function of the root cause's innermost frame (through __cause__); no line, so edits keep records."""
    while exc.__cause__ is not None and exc.__cause__.__traceback__ is not None:
        exc = exc.__cause__
    tb = exc.__traceback__
    while tb.tb_next is not None:  # walked by hand: traceback.extract_tb would read and cache the source
        tb = tb.tb_next
    return f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_frame.f_code.co_name}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg = load_config(args.config)
        params = _resolve_params(args, cfg)
        out_dir = Path(args.out_dir or cfg.get("out_dir") or f"out/{args.experiment}")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
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
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}), file=sys.stderr)
        return 2
    except Exception as exc:
        # the config stage raises only ConfigError, so out_dir is set and no output is on disk
        error = {"type": type(exc).__name__, "message": str(exc)}
        stage = getattr(exc, "stage", None)
        if stage is not None:
            error["stage"] = stage
        error["where"] = _where(exc)
        write_manifest(out_dir, args.experiment, params, {}, time.monotonic() - started, error)
        print(json.dumps({"error": error}), file=sys.stderr)
        return 3
    write_manifest(out_dir, args.experiment, params, outputs, time.monotonic() - started)
    for name in outputs:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
