"""Action sets, projections, gradient oracles, and regularity audits."""

import math
import time
import warnings

import numpy as np
import pytest

from gamescale.core import (
    GameSpec,
    JointAction,
    ModelClassLadder,
    central_difference,
    gradient_noise,
    gradient_operator,
    monotonicity_audit,
)
from gamescale.sets import (
    Box,
    ConvergenceError,
    Halfspace,
    Intersection,
    Product,
    UnboundedSetError,
    box_1d,
)
from oracles import check_gradients, check_nested, loop_monotonicity_audit, plain_dykstra, uniform_gradient_noise


def coupling_game(c: float, mu: float = 1.0, lipschitz: float = 2.0, sigma: float = 0.0) -> GameSpec:
    """f_l = theta^2/2 + c theta e, f_e = e^2/2 - c theta e (skew coupling);
    the gradients broadcast over a batch of points (rows)."""
    return GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2 + c * t[0] * e[0],
        loss_env=lambda t, e: 0.5 * e[0] ** 2 - c * t[0] * e[0],
        grad_learner=lambda t, e: t + c * e,
        grad_env=lambda t, e: e - c * t,
        mu=mu,
        lipschitz=lipschitz,
        noise_bound=sigma,
    )


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def test_box_projection_clamps():
    box = Box(np.zeros(2), np.ones(2))
    np.testing.assert_allclose(box.project(np.array([2.0, 0.5])), [1.0, 0.5])


def test_halfspace_projection_closed_form():
    hs = Halfspace(np.array([1.0, 0.0]), 0.0)
    np.testing.assert_allclose(hs.project(np.array([1.0, 1.0])), [0.0, 1.0])
    # interior points are untouched
    np.testing.assert_allclose(hs.project(np.array([-0.5, 2.0])), [-0.5, 2.0])


def test_intersection_projection_matches_grid_oracle():
    region = Intersection([Box(np.zeros(2), np.ones(2)), Halfspace(np.ones(2), 1.0)])
    got = region.project(np.array([1.0, 1.0]))
    np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-10)
    # brute-force oracle: nearest feasible grid point
    axis = np.linspace(0.0, 1.0, 401)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    feasible = xx + yy <= 1.0 + 1e-12
    d2 = (xx - 1.0) ** 2 + (yy - 1.0) ** 2
    d2[~feasible] = np.inf
    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
    assert abs(axis[i] - got[0]) <= 1.0 / 400 + 1e-12
    assert abs(axis[j] - got[1]) <= 1.0 / 400 + 1e-12


def test_projection_idempotent():
    rng = np.random.default_rng(0)
    region = Intersection(
        [Box(-np.ones(3), np.ones(3)), Halfspace(np.array([1.0, 1.0, 0.0]), 0.5)]
    )
    for _ in range(50):
        x = rng.normal(size=3) * 3.0
        p = region.project(x)
        np.testing.assert_allclose(region.project(p), p, atol=1e-12)


def test_projection_optimality_boxes():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        lower = rng.normal(size=dim)
        upper = lower + rng.uniform(0.1, 2.0, size=dim)
        box = Box(lower, upper)
        x = rng.normal(size=dim) * 4.0
        p = box.project(x)
        inside = rng.uniform(lower, upper, size=(100, dim))
        dist_p = np.linalg.norm(x - p)
        dists = np.linalg.norm(x - inside, axis=1)
        assert np.all(dist_p <= dists + 1e-12)


def random_halfspace(rng, d):
    return Halfspace(rng.standard_normal(d), rng.uniform(-1.0, 1.0))


def random_intersection(rng, d):
    # nonnegative offsets keep the origin feasible, so the set is never empty
    cuts = [Halfspace(rng.standard_normal(d), rng.uniform(0.0, 1.0)) for _ in range(2)]
    return Intersection([Box(-np.ones(d), np.ones(d)), *cuts])


@pytest.mark.parametrize("make", [random_halfspace, random_intersection], ids=["halfspace", "intersection"])
def test_projection_nonexpansive_and_variational_inequality(make):
    # |P(x) - P(z)| <= |x - z|, and <x - P(x), y - P(x)> <= 0 for every feasible y
    rng = np.random.default_rng(64)
    # Dykstra stops on a move of 1e-12 max(1, |x|), which does not bound its error by 1e-12
    atol = 1e-9 if make is random_intersection else 1e-12
    for trial in range(200):
        d = 1 + trial % 4
        region = make(rng, d)
        x, z, w = rng.standard_normal((3, d)) * 3.0
        px, pz, y = region.project(x), region.project(z), region.project(w)
        assert np.linalg.norm(px - pz) <= np.linalg.norm(x - z) + atol
        scale = (1.0 + np.linalg.norm(x - px)) * (1.0 + np.linalg.norm(y - px))
        assert float((x - px) @ (y - px)) <= atol * scale


def test_empty_intersection_raises_after_cap():
    empty = Intersection(
        [Halfspace(np.array([1.0]), -1.0), Halfspace(np.array([-1.0]), -1.0)]
    )
    with pytest.raises(ConvergenceError):
        empty.project(np.array([0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dykstra_raises_floating_point_error_at_once_on_a_non_finite_point(bad):
    # without the check the sweeps run to their cap (~0.4 s) and blame the set
    region = Intersection([Box(-np.ones(3), np.ones(3)), Halfspace(np.ones(3), 0.5)])
    started = time.perf_counter()
    with pytest.raises(FloatingPointError):
        region.project(np.array([0.2, bad, -0.1]))
    assert time.perf_counter() - started < 0.05


def test_dykstra_terminates_at_large_scale():
    # at coordinates ~1e6 one rounding of a member's projection moves x by
    # ~1e-10, so an absolute 1e-12 stop test could run to the sweep cap
    rng = np.random.default_rng(65)
    for trial in range(50):
        d = 2 + trial % 3
        lower, upper = -rng.uniform(0.5, 1.0, d) * 1e6, rng.uniform(0.5, 1.0, d) * 1e6
        normal = rng.standard_normal(d)
        # the cut passes through a point of the box, so the set is never empty
        region = Intersection(
            [Box(lower, upper), Halfspace(normal, float(normal @ rng.uniform(lower, upper)))]
        )
        x, w = rng.standard_normal((2, d)) * 2e6
        px, y = region.project(x), region.project(w)
        # the stop test and the roundings are relative to the size of the point
        size = np.linalg.norm(px)
        for member in region.members:
            assert np.linalg.norm(px - member.project(px)) <= 1e-11 * size
        scale = (size + np.linalg.norm(x - px)) * (size + np.linalg.norm(y - px))
        assert float((x - px) @ (y - px)) <= 1e-12 * scale


def test_dykstra_runs_on_while_corrections_move():
    # from this far point each box-then-halfspace sweep ends at (1/6, 1/6, 1/6)
    # again while the box correction is still shrinking; the projection is
    # clip(y - 40.5, -1, 1), which sums to the offset 0.5
    region = Intersection([Box(-np.ones(3), np.ones(3)), Halfspace(np.ones(3), 0.5)])
    got = region.project(np.array([48.0, 9.0, 41.0]))
    np.testing.assert_allclose(got, [1.0, -1.0, 0.5], atol=1e-9)


def test_dykstra_skips_repeating_sweeps_from_a_far_point():
    # from here the plain iteration needs ~10,600 sweeps: the iterate cycles
    # between two points while the corrections drift ~1 per sweep toward
    # |x - P(x)| ~ 1.7e4; KKT gives clip(x - 4378.2, -1, 1) = (0.5, 1, -1)
    region = Intersection([Box(-np.ones(3), np.ones(3)), Halfspace(np.ones(3), 0.5)])
    x = np.array([4378.70, 15599.43, 3279.14])
    px = region.project(x)
    np.testing.assert_allclose(px, [0.5, 1.0, -1.0], atol=1e-9)
    for member in region.members:  # the stop test's 1e-12 move, relative to |P(x)|
        assert np.linalg.norm(px - member.project(px)) <= 1e-11
    # <x - P(x), y - P(x)> <= 0 at the box corners' and random draws' projections
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T
    draws = np.random.default_rng(66).standard_normal((50, 3)) * 3.0
    scale = 1.0 + np.linalg.norm(x - px)
    for w in np.vstack([corners, draws]):
        y = region.project(w)
        assert float((x - px) @ (y - px)) <= 1e-9 * scale * (1.0 + np.linalg.norm(y - px))


def test_dykstra_jumps_agree_with_plain_sweeps_at_far_points():
    # norms up to 1e3 keep the plain iteration within its cap; the skipped
    # sweeps must not move the answer beyond the stop test's rounding
    rng = np.random.default_rng(67)
    for trial in range(40):
        d = 2 + trial % 3
        region = random_intersection(rng, d)
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(1.0, 3.0)
        np.testing.assert_allclose(region.project(x), plain_dykstra(region, x), rtol=0, atol=1e-9)


def test_invalid_sets_rejected():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Halfspace(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        Intersection([box_1d(0, 1), Box(np.zeros(2), np.ones(2))])
    with pytest.raises(UnboundedSetError):
        Halfspace(np.ones(2), 0.0).bounding_box()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Box([np.nan], [1.0]), "lower <= upper"),
        (lambda: Box([0.0], [np.nan]), "lower <= upper"),
        (lambda: Box(np.zeros((1, 1)), np.ones((1, 1))), "expected a vector"),
        (lambda: Halfspace(1.0, np.nan), "finite offset"),  # a scalar normal is a 1-vector
        (lambda: Halfspace([np.nan], 1.0), "finite nonzero normal"),
        (lambda: Halfspace([np.inf, 0.0], 1.0), "finite nonzero normal"),
        (lambda: Halfspace([1e200], 1.0), "finite nonzero normal"),  # its squared norm overflows
        (lambda: Intersection([]), "at least one member"),
        (lambda: GameSpec(0, 1, lambda t, e: 0.0, lambda t, e: 0.0, 1.0, 1.0), "dimensions must be positive"),
        (lambda: GameSpec(1, 1, lambda t, e: 0.0, lambda t, e: 0.0, math.nan, 1.0), "must be finite"),
        (lambda: ModelClassLadder([]), "at least one class"),
        (lambda: ModelClassLadder([box_1d(0, 1), Box(np.zeros(2), np.ones(2))]), "share the learner dimension"),
    ],
)
def test_bad_constructor_input_rejected(build, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ValueError only, with no warning before it
        with pytest.raises(ValueError, match=message):
            build()


def test_infinite_box_bounds_build_and_project():
    box = Box([-np.inf, 0.0], [np.inf, 1.0])
    np.testing.assert_array_equal(box.project(np.array([-1e300, 2.0])), [-1e300, 1.0])


def test_product_projects_componentwise():
    joint = Product(box_1d(0.0, 1.0), box_1d(-1.0, 0.0))
    np.testing.assert_allclose(joint.project(np.array([2.0, 0.5])), [1.0, 0.0])


SQUARE = Box(-np.ones(2), np.ones(2))
CUT = Halfspace(np.array([1.0, 1.0]), 0.5)
# name -> (set, rows A and offsets b with set = {x : A x <= b}, bounding box or None)
SET_CASES = {
    "halfspace": (CUT, [[1, 1]], [0.5], None),
    "intersection": (
        Intersection([SQUARE, CUT, Box(np.array([-0.5, -2.0]), np.array([2.0, 0.8]))]),
        [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, 0], [-1, 0], [0, 1], [0, -1]],
        [1, 1, 1, 1, 0.5, 2, 0.5, 0.8, 2],
        ([-0.5, -1.0], [1.0, 0.8]),
    ),
    "halfspaces_only": (
        Intersection([CUT, Halfspace(np.array([-1.0, 0.0]), 1.0)]), [[1, 1], [-1, 0]], [0.5, 1], None
    ),
    "product": (
        Product(box_1d(-1.0, 1.0), Intersection([SQUARE, CUT])),
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [0, 1, 1]],
        [1, 1, 1, 1, 1, 1, 0.5],
        ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
    ),
}


@pytest.mark.parametrize("case", ["box", *sorted(SET_CASES)])
def test_project_rows_matches_project_bitwise(case):
    region = Box(np.array([-1.0, -0.5]), np.array([0.5, 2.0])) if case == "box" else SET_CASES[case][0]
    points = np.random.default_rng(65).standard_normal((40, region.dimension)) * 2.0
    rows = region.project_rows(points)
    assert rows.shape == points.shape
    assert rows.tobytes() == np.array([region.project(p) for p in points]).tobytes()


@pytest.mark.parametrize(
    "region",
    [
        Product(CUT, box_1d(-1.0, 0.5)),
        Product(Product(box_1d(0.0, 1.0), CUT), Intersection([SQUARE, CUT])),
        Product(box_1d(-0.5, 0.5), box_1d(0.25, 0.25)),
    ],
    ids=["halfspace_box", "nested_products", "boxes"],
)
@pytest.mark.parametrize("rows", [0, 1, 40])
def test_product_project_rows_has_per_row_project_bits(region, rows):
    # the members' project_rows side by side, on non-contiguous column slices
    points = np.random.default_rng(rows).standard_normal((rows, region.dimension)) * 2.0
    got = region.project_rows(points)
    assert got.shape == points.shape
    assert got.tobytes() == np.array([region.project(p) for p in points]).tobytes()


@pytest.mark.parametrize("case", ["box", *sorted(SET_CASES)])
def test_contains_rows_is_the_norm_filter_of_each_row(case):
    region = Box(np.array([-1.0, -0.5]), np.array([0.5, 2.0])) if case == "box" else SET_CASES[case][0]
    rng = np.random.default_rng(66)
    points = rng.standard_normal((40, region.dimension)) * 2.0
    base = region.project_rows(points)
    away = points - base
    away /= np.maximum(np.linalg.norm(away, axis=1, keepdims=True), 1e-300)
    # on the set and around the tolerance out of it, where the last bits decide
    near = np.concatenate([base + s * away for s in (0.0, 5e-10, 1e-9, 1.0000001e-9, 2e-9)])
    for tol in (1e-9, 1e-12):
        expected = [float(np.linalg.norm(p - region.project(p))) <= tol for p in near]
        assert region.contains_rows(near, tol).tolist() == expected
        assert [region.contains(p, tol) for p in near] == expected
        assert set(expected) == {True, False}
    distances = [float(np.linalg.norm(p - region.project(p))) for p in near]
    assert all(region.contains(p, d) for p, d in zip(near, distances))  # at tol counts as in
    with pytest.raises(ValueError, match="dimension"):
        region.contains(np.zeros(region.dimension + 1))


@pytest.mark.parametrize("case", sorted(SET_CASES))
def test_interiority_sampling_and_bounding_box(case):
    region, rows, offsets, box = SET_CASES[case]
    rows, offsets = np.array(rows, dtype=float), np.array(offsets, dtype=float)
    rng = np.random.default_rng(0)
    # interior with margin m: the ball of radius m around p meets no constraint
    seen = set()
    for _ in range(200):
        p = rng.uniform(-1.5, 1.5, region.dimension)
        depth = float(np.min((offsets - rows @ p) / np.linalg.norm(rows, axis=1)))
        for margin in (0.0, 0.1):
            inside = region.is_interior(p, margin)
            assert inside == (depth >= margin)
            seen.add(inside)
    assert seen == {True, False}
    if box is None:
        with pytest.raises(UnboundedSetError):
            region.bounding_box()
    else:
        bounds = region.bounding_box()
        np.testing.assert_array_equal(bounds.lower, box[0])
        np.testing.assert_array_equal(bounds.upper, box[1])
    if case == "halfspaces_only":
        with pytest.raises(UnboundedSetError):
            region.sample(rng)
    else:
        assert all(region.contains(region.sample(rng)) for _ in range(20))


# ---------------------------------------------------------------------------
# Gradient operator
# ---------------------------------------------------------------------------


def test_gradient_operator_decoupled():
    game = coupling_game(0.0, lipschitz=1.0)
    out = gradient_operator(game, JointAction(np.array([3.0]), np.array([-2.0])).concat())
    np.testing.assert_allclose(out, [3.0, -2.0])


def test_gradient_operator_coupled_by_hand():
    game = coupling_game(1.0, lipschitz=2.0)
    out = gradient_operator(game, JointAction(np.array([1.0]), np.array([1.0])).concat())
    np.testing.assert_allclose(out, [2.0, 0.0])


def test_gradient_operator_rejects_nonfinite():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: float("nan"),
        loss_env=lambda t, e: 0.0,
        grad_learner=lambda t, e: np.array([float("nan")]),
        grad_env=lambda t, e: np.array([0.0]),
        mu=1.0,
        lipschitz=1.0,
    )
    with pytest.raises(FloatingPointError):
        gradient_operator(game, JointAction(np.zeros(1), np.zeros(1)).concat())


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    for trial in range(5):
        a, b, c = rng.uniform(0.5, 2.0, size=3)
        game = GameSpec(
            dim_learner=2,
            dim_env=2,
            loss_learner=lambda t, e, a=a, c=c: a * float(t @ t) + c * float(t @ e),
            loss_env=lambda t, e, b=b, c=c: b * float(e @ e) - c * float(t @ e),
            grad_learner=lambda t, e, a=a, c=c: 2 * a * t + c * e,
            grad_env=lambda t, e, b=b, c=c: 2 * b * e - c * t,
            mu=0.5,
            lipschitz=8.0,
        )
        region = Product(Box(-np.ones(2), np.ones(2)), Box(-np.ones(2), np.ones(2)))
        assert check_gradients(game, region, rng, samples=20, step=1e-5, rel_tol=1e-5)


def test_omitted_gradients_fall_back_to_finite_differences():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2 + t[0] * e[0],
        loss_env=lambda t, e: 0.5 * e[0] ** 2,
        mu=1.0,
        lipschitz=2.0,
    )
    out = gradient_operator(game, JointAction(np.array([1.0]), np.array([1.0])).concat())
    np.testing.assert_allclose(out, [2.0, 1.0], atol=1e-7)


def test_central_difference_on_quadratic():
    f = lambda x: float(x @ x)
    np.testing.assert_allclose(
        central_difference(f, np.array([1.0, -2.0])), [2.0, -4.0], atol=1e-7
    )


def test_game_spec_validation():
    mk = lambda **kw: GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.0,
        loss_env=lambda t, e: 0.0,
        **kw,
    )
    with pytest.raises(ValueError):
        mk(mu=2.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        mk(mu=-1.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        mk(mu=0.5, lipschitz=1.0, noise_bound=-0.1)


# ---------------------------------------------------------------------------
# Noisy oracle
# ---------------------------------------------------------------------------


def test_noisy_gradient_zero_sigma_is_exact():
    game = coupling_game(0.0, lipschitz=1.0, sigma=0.0)
    x = JointAction(np.array([0.3]), np.array([-0.7])).concat()
    rng = np.random.default_rng(3)
    noise = gradient_noise([rng.spawn(3)], game.noise_bound, np.empty((1, 1, 2)))
    np.testing.assert_array_equal(gradient_operator(game, x) + noise[0, 0], gradient_operator(game, x))


def test_noisy_gradient_mean_and_bound():
    sigma = 0.5
    game = coupling_game(0.0, lipschitz=1.0, sigma=sigma)
    x = JointAction(np.array([0.3]), np.array([-0.7])).concat()
    base = gradient_operator(game, x)
    rng = np.random.default_rng(4)
    n = 100_000
    draws = base + gradient_noise([rng.spawn(3)], game.noise_bound, np.empty((n, 1, 2)))[:, 0]
    noise = draws - base
    norms = np.linalg.norm(noise, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)
    assert float(np.mean(norms**2)) <= sigma**2 + 3e-3
    # componentwise mean within 3 sigma / sqrt(n)
    assert np.all(np.abs(noise.mean(axis=0)) <= 3.0 * sigma / math.sqrt(n))


def test_noisy_gradient_deterministic_given_seed():
    game = coupling_game(0.0, lipschitz=1.0, sigma=0.3)
    a = gradient_noise([np.random.default_rng(42).spawn(3)], game.noise_bound, np.empty((5, 1, 2)))
    b = gradient_noise([np.random.default_rng(42).spawn(3)], game.noise_bound, np.empty((5, 1, 2)))
    np.testing.assert_array_equal(a, b)


def test_gradient_noise_does_not_depend_on_the_block_split():
    # each run reads its own children, so blocks of 3 and 5 steps give the
    # bits of one 8-step block, and a run's rows do not depend on the others
    whole = gradient_noise([np.random.default_rng(s).spawn(3) for s in (1, 2)], 0.4, np.empty((8, 2, 3)))
    streams = [np.random.default_rng(s).spawn(3) for s in (1, 2)]
    split = np.concatenate([gradient_noise(streams, 0.4, np.empty((k, 2, 3))) for k in (3, 5)])
    assert whole.shape == (8, 2, 3)
    assert whole.tobytes() == split.tobytes()
    alone = gradient_noise([np.random.default_rng(2).spawn(3)], 0.4, np.empty((8, 1, 3)))
    assert alone[:, 0].tobytes() == whole[:, 1].tobytes()


@pytest.mark.parametrize("noise_bound", [0.0, 0.3, 2.0])  # at 2.0 the magnitude's upper end is clipped to 1
def test_gradient_noise_equals_uniform_magnitude_draws_bitwise(noise_bound):
    # random(out=) times high is uniform(0.0, high)'s 0.0 + high * random(), in one block and in blocks of 3 and 5
    def streams():
        return [np.random.default_rng([17, s]).spawn(3) for s in range(3)]

    reference = uniform_gradient_noise(streams(), noise_bound, 8, 2)
    whole = gradient_noise(streams(), noise_bound, np.empty((8, 3, 2)))
    split_streams = streams()
    split = np.concatenate([gradient_noise(split_streams, noise_bound, np.empty((k, 3, 2))) for k in (3, 5)])
    assert whole.tobytes() == split.tobytes() == reference.tobytes()
    assert (np.abs(reference).max() == 0.0) == (noise_bound == 0.0)


# ---------------------------------------------------------------------------
# Monotonicity audit
# ---------------------------------------------------------------------------

JOINT_BOX = Product(box_1d(-2.0, 2.0), box_1d(-2.0, 2.0))


def test_audit_decoupled_quadratics():
    modulus = monotonicity_audit(coupling_game(0.0, lipschitz=1.0), JOINT_BOX, 200, np.random.default_rng(5))
    assert modulus >= 1.0 - 1e-7


def test_audit_skew_coupling_cancels():
    modulus = monotonicity_audit(coupling_game(1.0), JOINT_BOX, 200, np.random.default_rng(6))
    assert modulus >= 1.0 - 1e-7


def test_audit_flags_concave_player():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: -0.5 * t[0] ** 2,
        loss_env=lambda t, e: 0.5 * e[0] ** 2,
        grad_learner=lambda t, e: np.array([-t[0]]),
        grad_env=lambda t, e: np.array([e[0]]),
        mu=0.5,
        lipschitz=1.0,
    )
    modulus = monotonicity_audit(game, JOINT_BOX, 200, np.random.default_rng(7))
    assert modulus < 0.5 - 1e-7


class ScriptedRegion:
    """A region whose samples are the given points, in order."""

    def __init__(self, points):
        self.points = [np.array(p, dtype=float) for p in points]
        self.drawn = 0

    def sample(self, rng):
        self.drawn += 1
        return self.points[self.drawn - 1]


def test_audit_redraws_a_coincident_pair_and_keeps_the_draw_order():
    # F(t, e) = (t + e^3, e): the quotient depends on the pair, so the pair used shows
    game = GameSpec(
        dim_learner=1, dim_env=1, loss_learner=lambda t, e: 0.5 * t[0] ** 2 + t[0] * e[0] ** 3,
        loss_env=lambda t, e: 0.5 * e[0] ** 2, grad_learner=lambda t, e: t + e**3, grad_env=lambda t, e: e,
        mu=0.1, lipschitz=10.0,
    )
    pairs = [([0.5, 0.5], [0.5, 0.5]), ([1.0, -1.0], [0.0, 1.0]), ([0.2, 0.3], [0.2, 0.3]), ([0.0, 0.5], [1.0, 0.0])]
    region = ScriptedRegion([p for pair in pairs for p in pair])
    modulus = monotonicity_audit(game, region, 2, np.random.default_rng(0))
    quotients = []
    for a, b in (pairs[1], pairs[3]):
        diff = np.subtract(a, b)
        g = gradient_operator(game, np.array(a)) - gradient_operator(game, np.array(b))
        quotients.append(float(g @ diff) / float(diff @ diff))
    assert region.drawn == 8
    assert modulus == min(quotients) != max(quotients)


def test_audit_of_nan_points_is_nan():
    # finite gradients at a NaN point give a NaN quotient, which the running minimum once skipped
    game = coupling_game(0.0, lipschitz=1.0)
    game.grad_learner = game.grad_env = lambda t, e: np.zeros(1)
    region = ScriptedRegion([[0.0, 0.0], [1.0, 0.0], [np.nan, 0.0], [0.0, 1.0], [0.0, 0.0], [0.5, 0.0]])
    assert math.isnan(monotonicity_audit(game, region, 3, np.random.default_rng(0)))


def test_audit_of_a_point_region_raises_at_its_draw_limit():
    # before the limit this loop never returned: every pair coincides
    region = Product(box_1d(0.5, 0.5), box_1d(1.0, 1.0))
    with pytest.raises(ValueError, match="30 pairs drawn, 0 of them more than 1e-9 apart"):
        monotonicity_audit(coupling_game(0.0), region, 3, np.random.default_rng(0))


@pytest.mark.parametrize("samples", [0, -3, 2.5, np.float64(4.0), None])
def test_audit_rejects_a_sample_count_that_is_not_an_integer_of_at_least_1(samples):
    # 0 and -3 once returned inf, which passes any modulus >= mu test; 2.5 raised TypeError
    with pytest.raises(ValueError, match="^samples must be an integer >= 1"):
        monotonicity_audit(coupling_game(0.0), JOINT_BOX, samples, np.random.default_rng(0))


def cubic_coupling_game():
    """F(t, e) = (t + e^3, e): the quotient depends on the pair, so the pair used shows."""
    return GameSpec(
        dim_learner=1, dim_env=1, loss_learner=lambda t, e: 0.5 * t[0] ** 2 + t[0] * e[0] ** 3,
        loss_env=lambda t, e: 0.5 * e[0] ** 2, grad_learner=lambda t, e: t + e**3, grad_env=lambda t, e: e,
        mu=0.1, lipschitz=10.0,
    )


class SampledBox(Box):
    """A box with its own sample (a normal draw, clipped): the audit draws it point by point."""

    def sample(self, rng):
        return self.project(rng.standard_normal(self.dimension))


# name -> (region, samples); the audit draws a chunk of pairs per call only for
# regions that keep ActionSet.sample
AUDIT_REGIONS = {
    "box": (JOINT_BOX, 128),
    "intersection": (Product(Intersection([box_1d(-2.0, 2.0), Halfspace([1.0], 0.3)]), box_1d(-1.0, 1.0)), 64),
    # pairs within 1e-9 of each other, one in five or so, are skipped and redrawn
    "thin_skips": (Product(box_1d(0.0, 1e-8), box_1d(0.5, 0.5)), 50),
    # three of four pairs skipped: some seeds reach the 10 * samples limit
    "thinner_limit": (Product(box_1d(0.0, 1.5e-9), box_1d(0.5, 0.5)), 8),
    "point_limit": (Product(box_1d(0.5, 0.5), box_1d(1.0, 1.0)), 3),
    "own_sample": (SampledBox(-np.ones(2), np.ones(2)), 40),
}


@pytest.mark.parametrize("case", sorted(AUDIT_REGIONS))
def test_audit_has_the_point_by_point_loops_bits_and_rng_state(case):
    region, samples = AUDIT_REGIONS[case]
    outcomes = set()
    for seed in range(6):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        results = []
        for audit, rng in zip((monotonicity_audit, loop_monotonicity_audit), rngs):
            try:
                results.append(float(audit(cubic_coupling_game(), region, samples, rng)).hex())
            except ValueError as err:
                results.append(str(err))
        assert results[0] == results[1]
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        outcomes.add(results[0].endswith("too small"))
        if case != "own_sample":  # more draws than samples pairs: some were skipped
            exact = np.random.default_rng(seed)
            exact.uniform(size=(2 * samples, 2))
            assert (rngs[0].bit_generator.state != exact.bit_generator.state) == case.startswith(("thin", "point"))
    assert outcomes == ({True} if case == "point_limit" else {True, False} if case == "thinner_limit" else {False})


def test_audit_of_a_matrix_valued_point_oracle_raises():
    game = cubic_coupling_game()
    game.grad_learner = lambda t, e: np.array([[t[0] + e[0] ** 3]])  # shape (1, 1) at a point
    for region in (JOINT_BOX, AUDIT_REGIONS["own_sample"][0]):
        with pytest.raises(ValueError, match="expected a vector"):
            monotonicity_audit(game, region, 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Ladders
# ---------------------------------------------------------------------------


def test_ladder_nested_boxes_pass():
    ladder = ModelClassLadder(
        [Box(-r * np.ones(2), r * np.ones(2)) for r in (0.25, 0.5, 1.0)]
    )
    assert check_nested(ladder, np.random.default_rng(8))


def test_ladder_non_nested_fails():
    ladder = ModelClassLadder([Box(np.array([0.0, 0.0]), np.array([2.0, 2.0])),
                               Box(np.array([1.0, 1.0]), np.array([3.0, 3.0]))])
    assert not check_nested(ladder, np.random.default_rng(9))
