"""Fault matrix: each library entry point that reads a loss or a gradient, run with a faulty oracle.

Each loss row puts one fault (oracles.faulty_loss) into loss_learner or loss_env: NaN, +inf or
-inf on a region or everywhere, each through batches and through single points only; a wrong
batch shape; an oracle that raises ValueError. Each gradient row puts one fault
(oracles.faulty_grad) into grad_learner or grad_env: a non-finite value on a region or
everywhere, through batches or single points only; a batch of shape (B,) or (B, dim + 1); an
oracle that raises. The faulty oracle stays pure, and a call budget turns a hang into a
failure. An entry point may end only in
- the result without the fault, bit for bit, when no faulty value was read;
- FloatingPointError or ValueError naming the oracle, or the oracle's own exception;
- after a non-finite gradient read, core._finite's FloatingPointError, which checks both
  players' gradients at once and so names neither;
- RestrictionStageError caused by one of those;
- through the CLI, exit 3 with a manifest error record that has a `where` field.
A result or HypothesisNotSatisfiedError after a non-finite read, a result holding a non-finite
number, TypeError, IndexError, AttributeError, StopIteration and the budget being hit all fail.
The CLI rows run the four experiments whose game is a GameSpec; markov, regression and
participation read no GameSpec oracle.
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
from gamescale.grid import grid_points
from gamescale.instances import coupled_quadratic, nested_box_ladder, restriction_instance, selection_arms
from gamescale.restriction import HypothesisNotSatisfiedError, RestrictionStageError, certify_restriction
from gamescale.selection import successive_elimination
from gamescale.sets import Box, box_1d
from oracles import CallBudgetExceeded, FaultLog, InjectedFault, faulty_grad, faulty_loss


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

# the entries that read a gradient, best_response and solve_nash on COUPLED's gradient oracles
GRAD_ENTRIES = {name: (COUPLED if game is NO_GRADIENTS else game, below, run)
                for name, (game, below, run) in ENTRIES.items() if name != "pareto_improvement_search"}

# (fault, where, path): path "single" is an oracle that raises TypeError on a batch
FAULTS = [
    *((value, where, path) for value in ("nan", "inf", "-inf") for where in ("region", "everywhere")
      for path in ("batch", "single")),
    ("shape", "everywhere", "batch"),
    ("raises", "region", "batch"),
    ("raises", "everywhere", "single"),
]
# one region fault per entry and oracle for each kind, everywhere once
GRAD_FAULTS = [
    ("nan", "region", "batch"),
    ("inf", "region", "single"),
    ("-inf", "everywhere", "batch"),
    ("flat", "region", "batch"),
    ("wide", "region", "batch"),
    ("raises", "region", "batch"),
    ("raises", "everywhere", "single"),
]
FORBIDDEN = (TypeError, IndexError, AttributeError, StopIteration)
NON_FINITE_F = "non-finite gradient components"  # core._finite's message


def with_fault(game: GameSpec, oracle: str, fault: tuple, below: float, log: FaultLog) -> GameSpec:
    value, where, path = fault
    faulty = faulty_grad if oracle.startswith("grad") else faulty_loss
    f = faulty(getattr(game, oracle), value, below if where == "region" else math.inf, path == "batch", log)
    return dataclasses.replace(game, **{oracle: f})


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
def baseline(entry: str, gradients: bool = False) -> tuple:
    game, _, run = (GRAD_ENTRIES if gradients else ENTRIES)[entry]
    return snapshot(run(game))


def names_the_fault(message: str, oracle: str, log: FaultLog) -> bool:
    """Whether an error message names the faulty oracle, or is _finite's after a non-finite gradient."""
    finite_check = message == NON_FINITE_F or message.endswith(f"] {NON_FINITE_F}")  # "[stage] ..." in the CLI
    return oracle in message or (oracle.startswith("grad") and log.non_finite and finite_check)


def error_problem(exc: BaseException, oracle: str, log: FaultLog):
    """None if exc is an allowed end of a faulty run, else what is wrong with it."""
    if isinstance(exc, InjectedFault):
        return None
    if isinstance(exc, (FloatingPointError, ValueError)) and names_the_fault(str(exc), oracle, log):
        return None
    if isinstance(exc, RestrictionStageError) and exc.__cause__ is not None:
        return error_problem(exc.__cause__, oracle, log)
    after = " after a non-finite read" if log.non_finite else ""
    return f"{type(exc).__name__}{after}: {exc}"


def check_entry(entry: str, oracle: str, fault: tuple) -> None:
    gradients = oracle.startswith("grad")
    game, below, run = (GRAD_ENTRIES if gradients else ENTRIES)[entry]
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
    assert snapshot(result) == baseline(entry, gradients), "a result unlike the one without the fault"


@pytest.mark.parametrize("fault", FAULTS, ids=["-".join(f) for f in FAULTS])
@pytest.mark.parametrize("oracle", ["loss_learner", "loss_env"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_faulty_loss_ends_in_the_clean_result_or_a_typed_error(entry, oracle, fault):
    check_entry(entry, oracle, fault)


@pytest.mark.parametrize("fault", GRAD_FAULTS, ids=["-".join(f) for f in GRAD_FAULTS])
@pytest.mark.parametrize("oracle", ["grad_learner", "grad_env"])
@pytest.mark.parametrize("entry", sorted(GRAD_ENTRIES))
def test_faulty_gradient_ends_in_the_clean_result_or_a_typed_error(entry, oracle, fault):
    check_entry(entry, oracle, fault)


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


def check_cli(monkeypatch, tmp_path, experiment: str, oracle: str, fault: tuple) -> None:
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
    message = error["message"]
    assert error["where"] and (names_the_fault(message, oracle, log) or "injected fault" in message), error


@pytest.mark.parametrize("fault", CLI_FAULTS, ids=["-".join(f) for f in CLI_FAULTS])
@pytest.mark.parametrize("oracle", ["loss_learner", "loss_env"])
@pytest.mark.parametrize("experiment", sorted(CLI_RUNS))
def test_cli_with_a_faulty_loss_exits_3_with_a_where_field_or_writes_the_clean_outputs(
    monkeypatch, tmp_path, experiment, oracle, fault
):
    check_cli(monkeypatch, tmp_path, experiment, oracle, fault)


@pytest.mark.parametrize("fault", CLI_FAULTS, ids=["-".join(f) for f in CLI_FAULTS])
@pytest.mark.parametrize("oracle", ["grad_learner", "grad_env"])
@pytest.mark.parametrize("experiment", sorted(CLI_RUNS))
def test_cli_with_a_faulty_gradient_exits_3_with_a_where_field_or_writes_the_clean_outputs(
    monkeypatch, tmp_path, experiment, oracle, fault
):
    check_cli(monkeypatch, tmp_path, experiment, oracle, fault)


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


@pytest.mark.parametrize("oracle", ["loss_learner", "loss_env"])
def test_pareto_search_with_a_nan_in_its_last_block_only_raises_at_that_block(oracle):
    # 201 learner grid points on [-1, 1] against LOOSE's 21 env points: blocks of 195 and 6
    # learner points, the last from 0.95 on; the loss is NaN past 0.95 only
    reads, loss = [], getattr(RESTRICT, oracle)  # the first learner point of each batch read

    def faulty(t, e):
        if np.ndim(t) == 2:
            reads.append(float(t[0, 0]))
        return np.where(t.T[0] > 0.95, math.nan, loss(t, e))

    game = dataclasses.replace(RESTRICT, **{oracle: faulty})
    with pytest.raises(FloatingPointError, match=f"{oracle} is not finite at a grid pair"):
        pareto_improvement_search(game, JointAction([0.0], [0.0]), box_1d(-1.0, 1.0), LOOSE)
    assert reads == [-1.0, 0.95]


@pytest.mark.parametrize("oracle", ["loss_learner", "loss_env"])
def test_pareto_search_with_a_batch_raising_mid_block_scans_on_one_pair_at_a_time(oracle):
    # blocks of 20 of the 201 learner grid points on [-2, 2]: a batch holding the point 0.2, in
    # the middle of the block from 0.0 to 0.38, raises; that block and every later one is scanned
    # one pair at a time, and finds the witness past 0 with the bits of the search without the fault
    bench = restriction_instance()
    reads, loss = [], getattr(bench.game, oracle)

    def faulty(t, e):
        if np.ndim(t) == 2:
            reads.append(float(t[0, 0]))
            if np.any(np.abs(t.T[0] - 0.2) < 1e-9):
                raise InjectedFault("injected fault")
        return loss(t, e)

    x, game = JointAction([1.1], [0.4]), dataclasses.replace(bench.game, **{oracle: faulty})
    clean = pareto_improvement_search(bench.game, x, bench.learner_set, bench.env_set)
    witness = pareto_improvement_search(game, x, bench.learner_set, bench.env_set)
    assert float(clean.theta[0]) > 0.0 and snapshot(witness) == snapshot(clean)
    assert reads == grid_points(bench.learner_set, 201)[:101:20, 0].tolist()  # the block starts up to 0.0


@pytest.mark.parametrize("regime", REGIMES)
def test_nan_learner_loss_on_a_ladder_raises_in_every_regime(regime):
    # the stationary and Nash regimes once returned reports whose loss_learner was NaN
    bench = coupled_quadratic()
    loss = bench.game.loss_learner
    game = dataclasses.replace(bench.game, loss_learner=lambda t, e: np.where(t.T[0] < 0.5, math.nan, loss(t, e)))
    with pytest.raises(FloatingPointError, match="loss_learner is not finite"):
        scaling_curve(game, LADDER, regime, bench.env_set)
