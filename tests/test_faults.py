"""Fault matrix: each library entry point that reads a loss, run with a faulty loss oracle.

Each row puts one fault (oracles.faulty_loss) into loss_learner or loss_env: NaN, +inf or -inf
on a region or everywhere, each through batches and through single points only; a wrong batch
shape; an oracle that raises ValueError. The faulty oracle stays pure, and a call budget turns
a hang into a failure. An entry point may end only in
- the result without the fault, bit for bit, when no faulty value was read;
- FloatingPointError or ValueError naming the oracle, or the oracle's own exception;
- RestrictionStageError caused by one of those;
- through the CLI, exit 3 with a manifest error record that has a `where` field.
A result or HypothesisNotSatisfiedError after a non-finite read, a result holding a non-finite
number, TypeError, IndexError, AttributeError, StopIteration and the budget being hit all fail.
The CLI rows run the four experiments whose game is a GameSpec; markov, regression and
participation read no GameSpec loss.
"""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

import gamescale.cli
from gamescale.cli import main
from gamescale.core import GameSpec, JointAction
from gamescale.equilibrium import (
    REGIMES,
    best_response,
    pareto_improvement_search,
    psgd_nash,
    scaling_curve,
    solve_nash,
    stackelberg_leader,
)
from gamescale.instances import coupled_quadratic, nested_box_ladder, restriction_instance, selection_arms
from gamescale.restriction import HypothesisNotSatisfiedError, RestrictionStageError, certify_restriction
from gamescale.selection import successive_elimination
from gamescale.sets import Box, box_1d
from oracles import CallBudgetExceeded, FaultLog, InjectedFault, faulty_loss


class LooseBox(Box):
    """A box whose bounding box is ten times as wide, so that 21 of the Pareto grid's 201 points
    per axis fall in it and a scan one pair at a time stays cheap."""

    def bounding_box(self) -> Box:
        mid, half = (self.lower + self.upper) / 2, 5.0 * (self.upper - self.lower)
        return Box(mid - half, mid + half)


BOX, LOOSE = box_1d(-2.0, 2.0), LooseBox(-2.0 * np.ones(1), 2.0 * np.ones(1))
LADDER = nested_box_ladder([0.25, 0.5, 1.0])
COUPLED, RESTRICT = coupled_quadratic().game, restriction_instance().game
NO_GRADIENTS = dataclasses.replace(COUPLED, grad_learner=None, grad_env=None)  # central differences of the losses
ARMS, DECOUPLED, ARM_ENV = selection_arms([0.0, 1.0])

# entry point -> (game, the region's theta[0] bound, run); each run reads the losses of its game
ENTRIES = {
    "best_response": (NO_GRADIENTS, 0.5, lambda g: [best_response(g, "learner", np.ones(1), BOX),
                                                    best_response(g, "env", np.zeros(1), BOX)]),
    "solve_nash": (NO_GRADIENTS, 0.5, lambda g: solve_nash(g, BOX, BOX, 1e-6)),
    **{f"scaling_curve-{regime}": (COUPLED, 0.5, lambda g, r=regime: scaling_curve(g, LADDER, r, BOX))
       for regime in REGIMES},
    "stackelberg_leader-learner": (COUPLED, 0.5, lambda g: stackelberg_leader(g, "learner", BOX, BOX, 11)),
    "stackelberg_leader-env": (COUPLED, 0.5, lambda g: stackelberg_leader(g, "env", BOX, BOX, 11)),
    "pareto_improvement_search": (
        RESTRICT, -1e-4, lambda g: pareto_improvement_search(g, JointAction([0.0], [0.0]), LOOSE, LOOSE)),
    "certify_restriction": (RESTRICT, -1e-4, lambda g: certify_restriction(g, LOOSE, LOOSE)),
    "successive_elimination": (DECOUPLED, 0.5, lambda g: successive_elimination(
        ARMS, g, ARM_ENV, delta=0.1, alpha=8.0, rng=np.random.default_rng(0), max_total_steps=2_000)),
    "psgd_nash": (COUPLED, 0.5, lambda g: psgd_nash(
        g, [BOX, BOX], BOX, JointAction([0.0], [0.0]), 64, [np.random.default_rng(s) for s in range(2)])),
}

# (fault, where, path): path "single" is a loss that raises TypeError on a batch
FAULTS = [
    *((value, where, path) for value in ("nan", "inf", "-inf") for where in ("region", "everywhere")
      for path in ("batch", "single")),
    ("shape", "everywhere", "batch"),
    ("raises", "region", "batch"),
    ("raises", "everywhere", "single"),
]
FORBIDDEN = (TypeError, IndexError, AttributeError, StopIteration)


def with_fault(game: GameSpec, oracle: str, fault: tuple, below: float, log: FaultLog) -> GameSpec:
    value, where, path = fault
    loss = faulty_loss(getattr(game, oracle), value, below if where == "region" else math.inf, path == "batch", log)
    return dataclasses.replace(game, **{oracle: loss})


def leaves(value):
    """The numbers, strings and None in value, through dataclasses, lists and tuples."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from leaves(getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def snapshot(result) -> tuple:
    """result's leaves, floats and arrays as bytes; raises AssertionError on a non-finite number."""
    snap = []
    for leaf in leaves(result):
        if isinstance(leaf, (float, np.floating, np.ndarray)):
            leaf = np.asarray(leaf)
            if leaf.dtype.kind == "f":
                assert np.isfinite(leaf).all(), "a non-finite number in the result"
            leaf = leaf.tobytes()
        snap.append(leaf)
    return tuple(snap)


@functools.cache
def baseline(entry: str) -> tuple:
    game, _, run = ENTRIES[entry]
    return snapshot(run(game))


def error_problem(exc: BaseException, oracle: str, log: FaultLog):
    """None if exc is an allowed end of a faulty run, else what is wrong with it."""
    if isinstance(exc, InjectedFault):
        return None
    if isinstance(exc, (FloatingPointError, ValueError)) and oracle in str(exc):
        return None
    if isinstance(exc, RestrictionStageError) and exc.__cause__ is not None:
        return error_problem(exc.__cause__, oracle, log)
    after = " after a non-finite read" if log.non_finite else ""
    return f"{type(exc).__name__}{after}: {exc}"


@pytest.mark.parametrize("fault", FAULTS, ids=["-".join(f) for f in FAULTS])
@pytest.mark.parametrize("oracle", ["loss_learner", "loss_env"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_faulty_loss_ends_in_the_clean_result_or_a_typed_error(entry, oracle, fault):
    game, below, run = ENTRIES[entry]
    log = FaultLog()
    try:
        result = run(with_fault(game, oracle, fault, below, log))
    except CallBudgetExceeded as exc:
        pytest.fail(f"the call budget was hit: {exc}")
    except Exception as exc:
        problem = error_problem(exc, oracle, log)
        assert problem is None, problem
        return
    assert not log.non_finite, "a result after a non-finite read"
    assert snapshot(result) == baseline(entry), "a result unlike the one without the fault"


# experiment -> (the gamescale.cli name that builds its game, argv, the region's theta[0] bound)
CLI_RUNS = {
    "psgd": ("coupled_quadratic", ["psgd", "--horizons", "8,16", "--n-seeds", "2"], 0.5),
    "select": ("selection_arms", ["select", "--losses", "0,1", "--budget", "2000"], 0.5),
    "scaling-curve": ("stackelberg_scaling_game",
                      ["scaling-curve", "--regime", "stackelberg_leader", "--radii", "0.2,0.4"], 0.1),
    "restrict": ("restriction_instance", ["restrict", "--instance", "coupled"], -1e-4),
}
CLI_FAULTS = [("nan", "region", "batch"), ("-inf", "everywhere", "single"), ("raises", "region", "batch")]


def cli_run(argv: list, out) -> tuple[int, dict, dict]:
    code = main([*argv, "--out-dir", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    return code, files, json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("fault", CLI_FAULTS, ids=["-".join(f) for f in CLI_FAULTS])
@pytest.mark.parametrize("oracle", ["loss_learner", "loss_env"])
@pytest.mark.parametrize("experiment", sorted(CLI_RUNS))
def test_cli_with_a_faulty_loss_exits_3_with_a_where_field_or_writes_the_clean_outputs(
    monkeypatch, tmp_path, experiment, oracle, fault
):
    builder, argv, below = CLI_RUNS[experiment]
    clean_code, clean_files, _ = cli_run(argv, tmp_path / "clean")
    assert clean_code == 0
    build, log = getattr(gamescale.cli, builder), FaultLog()

    def faulty_build(*args, **kwargs):
        built = build(*args, **kwargs)
        if isinstance(built, tuple):
            return tuple(with_fault(x, oracle, fault, below, log) if isinstance(x, GameSpec) else x for x in built)
        return dataclasses.replace(built, game=with_fault(built.game, oracle, fault, below, log))

    monkeypatch.setattr(gamescale.cli, builder, faulty_build)
    try:
        code, files, manifest = cli_run(argv, tmp_path / "faulty")
    except CallBudgetExceeded as exc:
        pytest.fail(f"the call budget was hit: {exc}")
    if code == 0:
        assert not log.non_finite and files == clean_files
        return
    assert code == 3
    error = manifest["error"]
    assert error["type"] not in {e.__name__ for e in FORBIDDEN} | {"HypothesisNotSatisfiedError"}
    assert error["where"] and (oracle in error["message"] or "injected fault" in error["message"]), error


@pytest.mark.parametrize("oracle", ["loss_learner", "loss_env"])
@pytest.mark.parametrize("fault", ["nan", "inf"])
def test_non_finite_loss_on_the_improving_side_fails_the_certificate_at_pareto_check(oracle, fault):
    # below theta = -1e-4, the side the restriction improves on; a NaN env loss once gave a
    # certificate, and a NaN or +inf learner or env loss a "Nash appears Pareto optimal" verdict
    bench, value = restriction_instance(), {"nan": math.nan, "inf": math.inf}[fault]
    loss = getattr(bench.game, oracle)
    game = dataclasses.replace(bench.game, **{oracle: lambda t, e: np.where(t.T[0] < -1e-4, value, loss(t, e))})
    with pytest.raises(RestrictionStageError) as err:
        certify_restriction(game, bench.learner_set, bench.env_set)
    assert not isinstance(err.value, HypothesisNotSatisfiedError)
    assert err.value.stage == "pareto_check" and f"{oracle} is not finite" in str(err.value)


@pytest.mark.parametrize("regime", REGIMES)
def test_nan_learner_loss_on_a_ladder_raises_in_every_regime(regime):
    # the stationary and Nash regimes once returned reports whose loss_learner was NaN
    bench = coupled_quadratic()
    loss = bench.game.loss_learner
    game = dataclasses.replace(bench.game, loss_learner=lambda t, e: np.where(t.T[0] < 0.5, math.nan, loss(t, e)))
    with pytest.raises(FloatingPointError, match="loss_learner is not finite"):
        scaling_curve(game, LADDER, regime, bench.env_set)
