"""Outside-in tracer for gamescale: wraps public functions by name, no source edits.

`Tracer.install()` replaces each target in every `gamescale` module that binds
it (and on the class, for methods), so calls made through module globals are
seen too. A target that no longer exists is recorded in `absent` instead of
failing. Each call is a span with a name, start, end and parent. Hot per-step
calls (`hot=True`) are only aggregated by (name, parent name); the others are
also kept one by one and written by `write_spans` when the run ends. A span's
self time is its duration minus the time of its direct child spans.

`METRICS` is the per-layer table reported by the traced run. Each row names
the end-to-end metric it should move and the workloads it mostly and little
runs on, so a later optimisation knows where to look for its effect.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """A function or method to wrap, as `<module>.<qualname>` under gamescale."""

    span: str
    module: str
    qualname: str
    hot: bool = False
    # on_return(counters, bound_arguments, result); on_error(counters, exception)
    on_return: Optional[Callable] = None
    on_error: Optional[Callable] = None


def _count_steps(c, args, result):
    c["psgd_steps"] += args["horizon"]


def _count_leader_evals(c, args, result):
    c["leader_evals"] += result.iterations


def _count_nash_iterations(c, args, result):
    c["nash_iterations"] += result[1]


def _count_grid(c, args, result):
    box = args.get("box")
    dim = args["feasible"].dimension if box is None else box.dimension
    c["grid_kept"] += result.shape[0]
    c["grid_total"] += args["resolution"] ** dim


def _count_selection(c, args, result):
    c["selection_epochs"] += result.epochs
    c["selection_steps"] += result.total_steps
    if result.winner is not None:
        c["selection_winner_steps"] += result.arms[result.winner].pulls


def _count_stage(c, exc):
    stage = getattr(exc, "stage", None)
    if stage is not None:
        c[f"failed_stage.{stage}"] += 1


def _count_bytes(c, args, result):
    c["csv_bytes"] += Path(result).stat().st_size


TARGETS = (
    Target("core.Box.project", "core", "Box.project", hot=True),
    Target("core.Halfspace.project", "core", "Halfspace.project", hot=True),
    Target("core.Intersection.project", "core", "Intersection.project", hot=True),
    Target("core.Product.project", "core", "Product.project", hot=True),
    Target("core.GameSpec.grad", "core", "GameSpec.grad_l", hot=True),
    Target("core.GameSpec.grad", "core", "GameSpec.grad_e", hot=True),
    Target("core.gradient_operator", "core", "gradient_operator", hot=True),
    Target("core.noisy_gradient_operator", "core", "noisy_gradient_operator", hot=True),
    Target("core.central_difference", "core", "central_difference", hot=True),
    Target("core.monotonicity_audit", "core", "monotonicity_audit"),
    Target("equilibrium.psgd_nash", "equilibrium", "psgd_nash", on_return=_count_steps),
    Target("equilibrium.best_response", "equilibrium", "best_response", hot=True),
    Target("equilibrium.stackelberg_leader", "equilibrium", "stackelberg_leader",
           on_return=_count_leader_evals),
    Target("equilibrium.solve_nash", "equilibrium", "solve_nash", on_return=_count_nash_iterations),
    Target("equilibrium.pareto_improvement_search", "equilibrium", "pareto_improvement_search"),
    Target("equilibrium.grid_points", "equilibrium", "grid_points", on_return=_count_grid),
    Target("selection.successive_elimination", "selection", "successive_elimination",
           on_return=_count_selection),
    Target("restriction.certify_restriction", "restriction", "certify_restriction",
           on_error=_count_stage),
    Target("restriction.fbar_gradient", "restriction", "fbar_gradient"),
    Target("restriction.delta_search", "restriction", "delta_search"),
    Target("markov.build_chain_game", "markov", "build_chain_game"),
    Target("markov.env_best_response_mdp", "markov", "env_best_response_mdp", hot=True),
    Target("markov.verify_dominance", "markov", "verify_dominance", hot=True),
    Target("markov.payoff_sweep", "markov", "payoff_sweep"),
    Target("regression.compare_model_classes", "regression", "compare_model_classes"),
    Target("regression.large_model_closed_form", "regression", "large_model_closed_form", hot=True),
    Target("participation.equilibrium_pair", "participation", "equilibrium_pair"),
    Target("cli.write_csv", "cli", "write_csv", on_return=_count_bytes),
    Target("cli.emit_plot", "cli", "emit_plot"),
    Target("cli.write_manifest", "cli", "write_manifest"),
)

# The CLI experiments the workloads run; each gets a `cli.run.<experiment>.wall_s` row.
EXPERIMENTS = ("psgd", "select", "scaling-curve", "restrict", "markov", "regression", "participation")


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open frames: [span id, name, child seconds]
        self._ids = itertools.count(1)
        self.aggregate: dict[tuple[str, Optional[str]], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, parent name)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    def span(self, name: str, fn: Callable, *args):
        """Call fn inside a kept span (used by the benchmark around each item)."""
        return self._wrap(Target(name, "", ""), fn)(*args)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        # Runs around every hot call, so it binds everything it touches locally.
        stack, aggregate, spans, ids = self._stack, self.aggregate, self.spans, self._ids
        counters, name, hot = self.counters, target.span, target.hot
        signature = inspect.signature(fn) if target.on_return else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if target.on_error is not None:
                    target.on_error(counters, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is None:
                    key = (name, None)
                else:
                    parent[2] += duration
                    key = (name, parent[1])
                row = aggregate.get(key)
                if row is None:
                    row = aggregate[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]
                if not hot:
                    spans.append((frame[0], name, start, end, parent and parent[0], key[1]))
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                target.on_return(counters, bound.arguments, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gamescale" or n.startswith("gamescale."))]
        for target in TARGETS:
            label = f"{target.module}.{target.qualname}"
            owner = sys.modules.get(f"gamescale.{target.module}")
            *outer, attr = target.qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.absent.append(label)
                continue
            wrapper = self._wrap(target, original)
            if outer:
                setattr(owner, attr, wrapper)
            else:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

    # -- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write kept spans as JSON lines, then one line per aggregated (name, parent)."""
        with path.open("w") as fh:
            for sid, name, start, end, parent, parent_name in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "parent_name": parent_name}) + "\n")
            for (name, parent_name), (calls, total, self_s) in sorted(
                self.aggregate.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            ):
                fh.write(json.dumps({"aggregate": name, "parent_name": parent_name,
                                     "calls": calls, "total_s": total, "self_s": self_s}) + "\n")


class Summary:
    """Per-name totals over all parents, plus the counters, for metric rows."""

    def __init__(self, tracer: Tracer):
        self.counters = tracer.counters
        self.aggregate = tracer.aggregate
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        for (name, _), (calls, total, self_s) in tracer.aggregate.items():
            self.calls[name] += calls
            self.total[name] += total
            self.self_s[name] += self_s

    def calls_under(self, parent: str, suffix: str) -> int:
        """Calls of spans whose name ends with suffix made directly under parent."""
        return sum(row[0] for (name, par), row in self.aggregate.items()
                   if par == parent and name.endswith(suffix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric this row should move
    workloads: str  # "mostly on / little on"
    value: Callable[[Summary], float]


def _calls(name):
    return lambda s: float(s.calls[name])


def _self(name):
    return lambda s: s.self_s[name]


def _total(name):
    return lambda s: s.total[name]


PSGD_LOAD = "psgd-seeds, select-narrow / chain-regression"
SETS_LOAD = "ladder / psgd-seeds, select-narrow, chain-regression"
DET_LOAD = "chain-regression (L/mu=202), ladder (L/mu<=2) / psgd-seeds"
CLI_LOAD = "every workload (small)"

METRICS = (
    Metric("core.Box.project.calls", "count", "lower", "wall_s", PSGD_LOAD, _calls("core.Box.project")),
    Metric("core.Box.project.self_s", "s", "lower", "wall_s", PSGD_LOAD, _self("core.Box.project")),
    Metric("core.Product.project.self_s", "s", "lower", "wall_s", PSGD_LOAD, _self("core.Product.project")),
    Metric("core.noisy_gradient_operator.calls", "count", "lower", "wall_s", PSGD_LOAD,
           _calls("core.noisy_gradient_operator")),
    Metric("core.noisy_gradient_operator.self_s", "s", "lower", "wall_s", PSGD_LOAD,
           _self("core.noisy_gradient_operator")),
    Metric("core.gradient_operator.self_s", "s", "lower", "wall_s", PSGD_LOAD, _self("core.gradient_operator")),
    Metric("core.GameSpec.grad.calls", "count", "lower", "wall_s", PSGD_LOAD, _calls("core.GameSpec.grad")),
    Metric("core.central_difference.calls", "count", "lower", "wall_s", PSGD_LOAD,
           _calls("core.central_difference")),
    Metric("core.Intersection.project.calls", "count", "lower", "wall_s", SETS_LOAD,
           _calls("core.Intersection.project")),
    Metric("core.Intersection.project.member_calls_per_call", "count", "lower", "wall_s", SETS_LOAD,
           lambda s: _ratio(s.calls_under("core.Intersection.project", ".project"),
                            s.calls["core.Intersection.project"])),
    Metric("core.monotonicity_audit.self_s", "s", "lower", "wall_s", SETS_LOAD, _self("core.monotonicity_audit")),
    Metric("equilibrium.psgd_nash.steps", "count", "lower", "wall_s, peak_rss_mb",
           "psgd-seeds (wide), select-narrow (narrow) / ladder", lambda s: s.counters["psgd_steps"]),
    Metric("equilibrium.psgd_nash.us_per_step", "us", "lower", "wall_s, peak_rss_mb",
           "psgd-seeds (wide), select-narrow (narrow) / ladder",
           lambda s: _ratio(1e6 * s.total["equilibrium.psgd_nash"], s.counters["psgd_steps"])),
    Metric("equilibrium.psgd_nash.self_s", "s", "lower", "wall_s, peak_rss_mb",
           "psgd-seeds (wide), select-narrow (narrow) / ladder", _self("equilibrium.psgd_nash")),
    Metric("equilibrium.best_response.calls", "count", "lower", "wall_s", DET_LOAD,
           _calls("equilibrium.best_response")),
    Metric("equilibrium.best_response.self_s", "s", "lower", "wall_s", DET_LOAD,
           _self("equilibrium.best_response")),
    Metric("equilibrium.best_response.grad_calls_per_call", "count", "lower", "wall_s", DET_LOAD,
           lambda s: _ratio(s.calls_under("equilibrium.best_response", "core.GameSpec.grad"),
                            s.calls["equilibrium.best_response"])),
    Metric("equilibrium.stackelberg_leader.total_s", "s", "lower", "wall_s", DET_LOAD,
           _total("equilibrium.stackelberg_leader")),
    Metric("equilibrium.stackelberg_leader.leader_evals", "count", "lower", "wall_s", DET_LOAD,
           lambda s: s.counters["leader_evals"]),
    Metric("equilibrium.solve_nash.calls", "count", "lower", "wall_s", DET_LOAD, _calls("equilibrium.solve_nash")),
    Metric("equilibrium.solve_nash.iterations", "count", "lower", "wall_s", DET_LOAD,
           lambda s: s.counters["nash_iterations"]),
    Metric("equilibrium.pareto_improvement_search.self_s", "s", "lower", "wall_s", DET_LOAD,
           _self("equilibrium.pareto_improvement_search")),
    Metric("equilibrium.grid_points.kept_ratio", "ratio", "higher", "wall_s", DET_LOAD,
           lambda s: _ratio(s.counters["grid_kept"], s.counters["grid_total"])),
    Metric("selection.successive_elimination.self_s", "s", "lower", "wall_s", "select-narrow / all others",
           _self("selection.successive_elimination")),
    Metric("selection.successive_elimination.epochs", "count", "lower", "wall_s", "select-narrow / all others",
           lambda s: s.counters["selection_epochs"]),
    Metric("selection.successive_elimination.total_steps", "count", "lower", "wall_s",
           "select-narrow / all others", lambda s: s.counters["selection_steps"]),
    Metric("selection.winner_step_ratio", "ratio", "higher", "wall_s", "select-narrow / all others",
           lambda s: _ratio(s.counters["selection_winner_steps"], s.counters["selection_steps"])),
    Metric("restriction.certify_restriction.total_s", "s", "lower", "wall_s", "ladder / all others",
           _total("restriction.certify_restriction")),
    Metric("restriction.fbar_gradient.self_s", "s", "lower", "wall_s", "ladder / all others",
           _self("restriction.fbar_gradient")),
    Metric("restriction.delta_search.self_s", "s", "lower", "wall_s", "ladder / all others",
           _self("restriction.delta_search")),
    Metric("restriction.failed_stage.pareto_check", "count", "lower", "wall_s, failed_ratio",
           "ladder / all others", lambda s: s.counters["failed_stage.pareto_check"]),
    Metric("markov.build_chain_game.total_s", "s", "lower", "wall_s, peak_rss_mb",
           "chain-regression / all others", _total("markov.build_chain_game")),
    Metric("markov.build_chain_game.self_s", "s", "lower", "wall_s, peak_rss_mb",
           "chain-regression / all others", _self("markov.build_chain_game")),
    Metric("markov.env_best_response_mdp.calls", "count", "lower", "wall_s, peak_rss_mb",
           "chain-regression / all others", _calls("markov.env_best_response_mdp")),
    Metric("markov.env_best_response_mdp.self_s", "s", "lower", "wall_s, peak_rss_mb",
           "chain-regression / all others", _self("markov.env_best_response_mdp")),
    Metric("markov.verify_dominance.self_s", "s", "lower", "wall_s, peak_rss_mb",
           "chain-regression / all others", _self("markov.verify_dominance")),
    Metric("markov.payoff_sweep.total_s", "s", "lower", "wall_s, peak_rss_mb",
           "chain-regression / all others", _total("markov.payoff_sweep")),
    Metric("regression.compare_model_classes.self_s", "s", "lower", "wall_s", "chain-regression / all others",
           _self("regression.compare_model_classes")),
    Metric("regression.large_model_closed_form.calls", "count", "lower", "wall_s",
           "chain-regression / all others", _calls("regression.large_model_closed_form")),
    Metric("participation.equilibrium_pair.self_s", "s", "lower", "wall_s", "chain-regression / all others",
           _self("participation.equilibrium_pair")),
    *(
        Metric(f"cli.run.{exp}.wall_s", "s", "lower", "wall_s", CLI_LOAD, _total(f"cli.run.{exp}"))
        for exp in EXPERIMENTS
    ),
    Metric("cli.write_csv.self_s", "s", "lower", "wall_s", CLI_LOAD, _self("cli.write_csv")),
    Metric("cli.write_csv.bytes", "bytes", "lower", "wall_s", CLI_LOAD, lambda s: s.counters["csv_bytes"]),
    Metric("cli.emit_plot.self_s", "s", "lower", "wall_s", CLI_LOAD, _self("cli.emit_plot")),
    Metric("cli.write_manifest.self_s", "s", "lower", "wall_s, setup_s", CLI_LOAD, _self("cli.write_manifest")),
)

# Filled in by the benchmark from its own passes rather than from spans.
RUN_METRICS = (
    Metric("cli.outputs_changed", "count", "lower", "failed_ratio (reported, not counted)", CLI_LOAD, None),
    Metric("trace.overhead_s", "s", "lower", "none (traced minus untraced wall_s)", "every workload", None),
)
