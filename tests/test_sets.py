"""The set layer's one row projector, unbounded boxes and the module's boundaries."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import gamescale
from gamescale import core, sets
from gamescale.core import JointAction, monotonicity_audit
from gamescale.descent import _projected_descent
from gamescale.equilibrium import best_response, pareto_improvement_search, psgd_nash, stackelberg_leader
from gamescale.instances import coupled_quadratic, restriction_instance
from gamescale.restriction import RestrictionStageError, certify_restriction, construct_restriction
from gamescale.sets import (
    Box, ConvergenceError, Halfspace, Intersection, Product, UnboundedSetError, box_1d, row_projector,
)
from oracles import single_run_psgd

INF = np.inf
SQUARE = Box(-np.ones(2), np.ones(2))
CUT_1D = Intersection([box_1d(-2.0, 0.5), Halfspace(np.array([1.0]), 0.25)])
# name -> (per-row sets, whether row_projector clips against stacked bounds)
PROJECTOR_CASES = {
    "box": ([SQUARE, Box(np.array([-0.5, 0.0]), np.array([0.5, 0.0])), SQUARE], True),
    "product_of_boxes": ([Product(box_1d(-1.0, 1.0), box_1d(0.0, 2.0)), Product(box_1d(0.5, 0.5), box_1d(-3.0, 3.0))], True),
    "product_with_intersection": ([Product(box_1d(-1.0, 1.0), CUT_1D), SQUARE, Product(CUT_1D, box_1d(0.0, 1.0))], False),
    "infinite_box": ([Box([-INF, 0.0], [INF, 1.0]), Product(box_1d(-INF, 0.0), box_1d(0.0, INF)), SQUARE], True),
}


def _points(rows: int, far: bool) -> np.ndarray:
    points = np.random.default_rng(rows).standard_normal((rows, 2)) * 3.0
    if far:  # where only infinite bounds leave a row be (Dykstra is not asked to go this far)
        points[0] = [1e150, -1e150]
    return points


@pytest.mark.parametrize("case", sorted(PROJECTOR_CASES))
def test_row_projector_has_each_sets_project_bits_in_place(case):
    row_sets, clips = PROJECTOR_CASES[case]
    project, got_clips = row_projector(row_sets)
    assert got_clips == clips
    points = _points(len(row_sets), clips)
    z = points.copy()
    assert project(z) is z
    assert z.tobytes() == np.array([s.project(p) for s, p in zip(row_sets, points)]).tobytes()
    last = len(row_sets) - 1
    rows = np.array([last, 0, last])  # a subset of the rows, repeated and out of order
    z = _points(len(rows), clips)
    expected = np.array([row_sets[r].project(p) for r, p in zip(rows, z)])
    assert project(z, rows) is z
    assert z.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", sorted(PROJECTOR_CASES))
def test_row_projector_bits_do_not_depend_on_the_rows_layout(case):
    # psgd projects the transpose of a coordinate-major (d, B) array, an F-ordered (B, d) view;
    # descent projects C-ordered rows; the stacked bounds are column-major
    row_sets, clips = PROJECTOR_CASES[case]
    project, _ = row_projector(row_sets)
    for rows in (None, np.array([len(row_sets) - 1, 0, len(row_sets) - 1])):
        points = _points(len(row_sets) if rows is None else len(rows), clips)
        column_major = points.T.copy().T
        row_major = points.copy()
        assert column_major.flags.f_contiguous and not column_major.flags.c_contiguous
        assert project(column_major, rows) is column_major and project(row_major, rows) is row_major
        assert column_major.tobytes() == row_major.tobytes()


def test_row_projector_gives_a_strided_row_the_bits_of_the_row_alone():
    # numpy's dot may sum a strided vector of 4 or more entries in another order than a
    # contiguous one, so each row of an F-ordered z reaches a set's project contiguous
    cut = Halfspace(np.random.default_rng(1).standard_normal(8), 0.5)
    points = np.random.default_rng(2).standard_normal((20, 8)) * 3.0
    z = points.T.copy().T
    row_projector([cut] * len(z))[0](z)
    assert z.tobytes() == np.array([cut.project(p) for p in points]).tobytes()


def test_row_projector_of_no_rows_projects_nothing():
    project, _ = row_projector([])
    z = np.empty((0, 2))
    assert project(z) is z


@pytest.mark.parametrize("shared", [True, False], ids=["one_set", "per_row_sets"])
def test_projected_descent_leaves_the_callers_x0_unchanged(shared):
    x0 = np.array([[3.0, -3.0], [0.25, 5.0]])
    before = x0.tobytes()
    region = SQUARE if shared else [SQUARE, Intersection([SQUARE, Halfspace(np.ones(2), 0.5)])]
    points, _, _ = _projected_descent(lambda x, rows: x - x0[rows], region, x0, 0.5, False, 1e-9, 1_000)
    assert x0.tobytes() == before
    assert np.all(np.abs(points) <= 1.0)


@pytest.mark.parametrize("horizon", [1, 70])
def test_psgd_batch_of_box_intersection_and_infinite_box_rows_equals_single_runs(horizon):
    bench = coupled_quadratic(sigma=0.3)
    learner_sets = [bench.learner_set, CUT_1D, box_1d(-INF, INF)]
    x0 = JointAction(np.array([1.0]), np.array([1.0]))
    batch = psgd_nash(bench.game, learner_sets, bench.env_set, x0, horizon, [np.random.default_rng(i) for i in range(3)])
    for i, (learner_set, row) in enumerate(zip(learner_sets, batch)):
        alone = single_run_psgd(bench.game, learner_set, bench.env_set, x0, horizon, np.random.default_rng(i))
        assert row.concat().tobytes() == alone.concat().tobytes()


def test_best_response_on_an_infinite_box_is_the_unconstrained_minimizer():
    # f_l = (theta - 1)^2/2 + theta e: theta = 1 - e with no bound in the way
    game = coupled_quadratic().game
    np.testing.assert_allclose(best_response(game, "learner", np.array([5.0]), box_1d(-INF, INF)), [-4.0])


@pytest.mark.parametrize("far", [3e8, 1e9, 1e150])
def test_a_1d_intersection_past_the_dykstra_cap_is_clipped_to_its_interval(far):
    # Dykstra would crawl from here to its sweep cap; a 1-D set clips first
    assert CUT_1D.project(np.array([far])).tolist() == [0.25]


@pytest.mark.parametrize("point", [3e8, -1.0, 7.0])
def test_a_non_empty_1d_intersection_projects_with_no_sweep(point, monkeypatch):
    def sweep(self, point):
        raise AssertionError("a member projection ran")

    monkeypatch.setattr(Box, "project", sweep)
    monkeypatch.setattr(Halfspace, "project", sweep)
    assert CUT_1D.project(np.array([point])).tolist() == [min(point, 0.25)]


def test_an_empty_1d_intersection_still_raises_past_the_cap():
    nested = Intersection([box_1d(0.0, 1.0), Intersection([Halfspace(np.array([-2.0]), -4.0)])])  # x >= 2
    with pytest.raises(ConvergenceError):
        nested.project(np.array([1e9]))


def test_a_1d_restriction_whose_rounded_interval_is_empty_keeps_the_point_its_cuts_contain():
    # theta' = 0.1, v = 1, grad = 3: the cuts are x <= 0.1 and -3x <= -0.30000000000000004, whose
    # quotient rounds to 0.10000000000000002 > 0.1; both halfspaces hold 0.1, so the sweeps decide
    game = dataclasses.replace(coupled_quadratic().game, grad_learner=lambda t, e: np.full_like(t, 3.0))
    cut = construct_restriction(game, np.array([0.1]), np.array([0.0]), np.array([1.0]), box_1d(-1.0, 1.0))
    assert sets._interval(cut)[0] > sets._interval(cut)[1]
    assert all(m.contains(np.array([0.1]), tol=0.0) for m in cut.members)
    assert cut.project(np.array([0.1])).tolist() == [0.1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("region", [CUT_1D, Intersection([box_1d(0.0, 1.0), Halfspace(np.array([1.0]), -1.0)])],
                         ids=["interval", "empty"])
def test_a_1d_intersection_raises_floating_point_error_on_a_non_finite_point(bad, region):
    with pytest.raises(FloatingPointError):
        region.project(np.array([bad]))


@pytest.mark.parametrize("point", [-3.0, -2.0, -0.0, 0.0, 0.1, 0.25, 0.5, 7.0])
def test_a_1d_intersection_projects_as_its_interval_clip(point):
    assert CUT_1D.project(np.array([point])).tobytes() == np.clip(np.array([point]), -2.0, 0.25).tobytes()


# ---------------------------------------------------------------------------
# Unbounded boxes in grid and sampling consumers
# ---------------------------------------------------------------------------

UNBOUNDED = Box([-INF], [INF])


@pytest.mark.parametrize("region", [UNBOUNDED, Box([0.0], [INF]), Product(box_1d(0.0, 1.0), UNBOUNDED)])
def test_a_box_with_an_infinite_bound_has_no_bounding_box(region):
    with pytest.raises(UnboundedSetError):
        region.bounding_box()
    with pytest.raises(UnboundedSetError):
        region.sample(np.random.default_rng(0))


def test_an_infinite_box_member_leaves_an_intersection_its_bounded_members_box():
    region = Intersection([UNBOUNDED, box_1d(0.0, 1.0)])
    bounds = region.bounding_box()
    assert (bounds.lower.tolist(), bounds.upper.tolist()) == ([0.0], [1.0])
    assert region.contains(region.sample(np.random.default_rng(0)))


def test_monotonicity_audit_of_an_unbounded_box_raises_unbounded():
    bench = coupled_quadratic()
    with pytest.raises(UnboundedSetError):
        monotonicity_audit(bench.game, Product(UNBOUNDED, bench.env_set), 8, np.random.default_rng(0))


def test_stackelberg_leader_on_an_unbounded_box_raises_unbounded():
    bench = coupled_quadratic()
    with pytest.raises(UnboundedSetError):
        stackelberg_leader(bench.game, "learner", UNBOUNDED, bench.env_set, 11)


def test_pareto_search_on_an_unbounded_box_raises_unbounded():
    # before, the empty grid of an infinite box read as "Pareto optimal" (None)
    bench = restriction_instance()
    with pytest.raises(UnboundedSetError):
        pareto_improvement_search(bench.game, bench.nash, UNBOUNDED, bench.env_set)


def test_certify_restriction_on_an_unbounded_box_fails_at_the_monotonicity_audit():
    bench = restriction_instance()
    with pytest.raises(RestrictionStageError) as caught:
        certify_restriction(bench.game, UNBOUNDED, bench.env_set)
    assert caught.value.stage == "monotonicity_audit"
    assert isinstance(caught.value.__cause__, UnboundedSetError)


# ---------------------------------------------------------------------------
# Module boundaries
# ---------------------------------------------------------------------------


def test_core_names_the_set_classes_of_sets_and_the_package_exports_are_unchanged():
    for name in ("Box", "Halfspace", "Intersection", "Product"):
        assert getattr(core, name) is getattr(sets, name)
    assert gamescale.__all__ == [
        "ActionSet", "Box", "ConvergenceError", "EquilibriumReport", "GameSpec", "Halfspace",
        "HypothesisNotSatisfiedError", "Intersection", "JointAction", "ModelClassLadder", "Product",
        "RestrictionCertificate", "SelectionReport", "UnboundedSetError", "best_response", "box_1d",
        "certify_restriction", "confidence_radius", "gradient_noise", "gradient_operator",
        "monotonicity_audit", "nash_residual", "pareto_improvement_search", "psgd_nash", "scaling_curve",
        "solve_nash", "stackelberg_leader", "successive_elimination", "__version__",
    ]


def test_sets_imports_no_gamescale_module_and_only_sets_touches_its_clip_and_bounds():
    # one projector: a module that clips rows or reads set bounds itself is a second copy of it
    for path in sorted(Path(sets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if path.name == "sets.py":
                    assert node.level == 0 and not (node.module or "").startswith("gamescale"), path.name
                else:
                    assert not names & {"_clip", "_bounds"}, path.name
            elif isinstance(node, ast.Import) and path.name == "sets.py":
                assert not any(alias.name.startswith("gamescale") for alias in node.names), path.name


def test_only_core_and_the_best_responses_per_row_map_read_the_gradient_oracles():
    # one checked gradient read (GameSpec.grad, its batch read bound by grad_reader): a module
    # that reads grad_learner or grad_env itself is a second gradient path. best_responses'
    # per-row map calls the raw oracle on each row, the hot path of its single-point check
    readers = []
    for path in sorted(Path(sets.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "equilibrium.py":
            responses = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "best_responses")
            per_row = next(n for n in ast.walk(responses) if isinstance(n, ast.FunctionDef) and n.name == "per_row")
            allowed = {id(n) for n in ast.walk(per_row)}
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and node.attr in ("grad_learner", "grad_env") and id(node) not in allowed]
    assert readers == []
