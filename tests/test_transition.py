"""Tests for rescaled holonomy families and their half-pipe limits."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from test_fuchsian import ATLAS_MULTICURVES, _sl2, reduced_words, trace_points

from halfpipe import bending, transition
from halfpipe.bending import bent_holonomy
from halfpipe.fuchsian import (
    EndpointOnLeafError,
    TeichPoint,
    WeightedMulticurve,
    build_punctured_torus,
    holonomy_segment_crossings,
)
from halfpipe.geometry import (
    ADS,
    HP,
    HYP,
    GeometryError,
    Plane,
    SpacelikeGeodesicH2,
    disk_point,
)
from halfpipe.isometry import reflection, rescale_conjugate, rotation
from halfpipe.transition import (
    DEFAULT_GRID,
    EPS_RESIDUAL_FLOOR,
    InsufficientGridError,
    TransitionFamily,
    _fit_order,
    _projective_gap,
    direct_hp_matrix,
    extrapolate_limit,
    holonomy_family,
    least_squares_slope,
    normalized_projective,
    pleated_surface_convergence,
    projective_distance,
    richardson_limit,
)

SYMMETRIC = TeichPoint(3.0, 3.0, 3.0)

TOL_TWO_SIDED = 1e-6
TOL_LAW = 1e-8
TOL_SYNTHETIC = 1e-10


def _group():
    return build_punctured_torus(SYMMETRIC)


def _lamination():
    return WeightedMulticurve.single("A", 1.0)


def _hp_shaped(rng):
    # A valid half-pipe matrix: identity linear part would be too special, so
    # use a small hyperbolic linear block with a random translation row.
    c, s = math.cosh(0.4), math.sinh(0.4)
    m = np.eye(4)
    m[:3, :3] = np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    m[3, :3] = rng.normal(size=3)
    return m


def _random_axis(rng):
    u = rng.normal(size=2)
    v = rng.normal(size=2)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    if np.linalg.norm(u - v) < 0.3:
        v = -v
    return SpacelikeGeodesicH2.from_ideal_endpoints_klein(u, v)


def _disk_points(rng, count, radius=0.9):
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    radii = radius * np.sqrt(rng.uniform(size=count))
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


def test_default_grid_is_sorted_two_sided():
    fam = holonomy_family(_group(), _lamination(), 1.0, "B")
    assert fam.grid == tuple(sorted(DEFAULT_GRID, key=lambda t: (abs(t), t)))
    assert all(abs(fam.grid[i]) <= abs(fam.grid[i + 1]) for i in range(len(fam.grid) - 1))
    assert {transition.geometry_of(t) for t in fam.grid} == {HYP, ADS}
    assert all(isinstance(m, np.ndarray) and m.shape == (4, 4) for m in fam.matrices)


def test_grid_validation_rejects_zero_and_duplicates():
    with pytest.raises(GeometryError):
        holonomy_family(_group(), _lamination(), 1.0, "B", grid=(0.0, 1e-2, -1e-2))
    with pytest.raises(GeometryError):
        holonomy_family(_group(), _lamination(), 1.0, "B", grid=(1e-2, 1e-2, -1e-2))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build", ["holonomy_family", "pleated_surface_convergence"])
def test_grid_values_that_are_not_finite_are_refused_by_name(build, bad):
    grid = (bad, 0.1, 0.01, -0.1, -0.01, -0.001)
    with pytest.raises(GeometryError, match=rf"grid values must be finite; got \[{bad!r}, 0\.1, "):
        if build == "holonomy_family":
            holonomy_family(_group(), _lamination(), 1.0, "B", grid=grid)
        else:
            pleated_surface_convergence(_group(), _lamination(), 1.0, [(0.1, 0.2)], grid=grid)


def test_an_empty_grid_is_refused_as_insufficient():
    with pytest.raises(InsufficientGridError, match="grid is empty"):
        holonomy_family(_group(), _lamination(), 1.0, "B", grid=[])
    with pytest.raises(InsufficientGridError, match="grid is empty"):
        pleated_surface_convergence(_group(), _lamination(), 1.0, [(0.1, 0.2)], grid=())


@pytest.mark.parametrize("weight", (1.0, 0.3))
def test_tiny_grid_values_give_the_half_pipe_matrix_and_subnormal_angles_are_refused(weight):
    # At |t| = 1e-300 the square underflows and t * weight keeps its digits:
    # each member is the half-pipe holonomy.  At t = 5e-320 and weight 0.3,
    # t * weight keeps about 13 bits, which would put the members 5e-5 off it.
    group, lam = _group(), WeightedMulticurve.single("A", weight)
    tiny = (1e-300, -1e-300, 2e-300, -2e-300, 3e-300, -3e-300)
    for word in ("B", "AB", "bAbb"):
        hp = direct_hp_matrix(group, lam, 1.0, word)
        family = holonomy_family(group, lam, 1.0, word, grid=tiny)
        assert np.max(np.abs(family.matrices - hp)) <= 1e-15 * np.max(np.abs(hp))
    named = r"is subnormal at t = \[-5e-320, 5e-320, -6e-320, 6e-320\]"
    with pytest.raises(GeometryError, match=named):
        holonomy_family(group, lam, 1.0, "B", grid=(5e-320, -5e-320, 6e-320, -6e-320, 1e-3, -1e-3))
    with pytest.raises(GeometryError, match=named):
        pleated_surface_convergence(group, lam, 1.0, [(0.1, 0.2)], grid=(5e-320, -5e-320, 6e-320, -6e-320, 1e-3))


def test_extrapolate_needs_three_points_per_side():
    fam = holonomy_family(
        _group(), _lamination(), 1.0, "B", grid=(1e-1, 1e-2, 1e-3, -1e-1, -1e-2)
    )
    with pytest.raises(InsufficientGridError):
        extrapolate_limit(fam)


def test_constant_synthetic_family():
    rng = np.random.default_rng(3)
    m = _hp_shaped(rng)
    grid = tuple(sorted(DEFAULT_GRID, key=lambda t: (abs(t), t)))
    fam = TransitionFamily(word="w", grid=grid, matrices=tuple(m.copy() for _ in grid))
    rep = extrapolate_limit(fam)
    assert rep.residuals == tuple(0.0 for _ in grid)
    assert math.isinf(rep.order_positive) and math.isinf(rep.order_negative)
    assert rep.two_sided_gap == 0.0
    assert np.allclose(rep.limit, m / m[3, 3], atol=1e-15)


def test_linear_synthetic_family_recovers_base_matrix():
    rng = np.random.default_rng(4)
    m = _hp_shaped(rng)
    n = rng.normal(size=(4, 4))
    grid = tuple(sorted(DEFAULT_GRID, key=lambda t: (abs(t), t)))
    fam = TransitionFamily(
        word="w", grid=grid, matrices=tuple(m + t * n for t in grid)
    )
    rep = extrapolate_limit(fam)
    assert projective_distance(rep.limit, m) < TOL_SYNTHETIC
    assert rep.two_sided_gap < TOL_SYNTHETIC
    assert 0.9 < rep.order_positive < 1.1
    assert 0.9 < rep.order_negative < 1.1


def test_richardson_limit_with_known_order():
    m = np.eye(4)
    k = np.full((4, 4), 0.7)
    samples = [(t, m + t * t * k) for t in (1e-1, 1e-2, 1e-3)]
    assert np.max(np.abs(richardson_limit(samples, order=2.0) - m)) < 1e-14
    # order-1 extrapolation of a quadratic family leaves an O(t1 t2) error
    assert np.max(np.abs(richardson_limit(samples) - m)) == pytest.approx(0.7e-5, rel=1e-3)
    with pytest.raises(InsufficientGridError):
        richardson_limit(samples[:1])
    with pytest.raises(GeometryError):
        richardson_limit(samples, order=0.0)
    # A NaN or infinite order used to return NaN, and equal |t| (the two
    # sides of a signed grid) -inf, with a RuntimeWarning each.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (math.nan, math.inf):
            with pytest.raises(GeometryError, match=f"got {order}"):
                richardson_limit(samples, order=order)
        for grid, smallest in (((1e-1, -1e-1), "0.1"), (DEFAULT_GRID, "0.0001")):
            with pytest.raises(GeometryError, match=rf"\|t\|, {smallest} and {smallest},"):
                richardson_limit([(t, m + t * t * k) for t in grid], order=2.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_richardson_limit_refuses_a_parameter_that_is_not_finite(bad):
    m = np.eye(4)
    with pytest.raises(GeometryError, match=r"sample parameters must be finite"):
        richardson_limit([(bad, m), (0.1, 2.0 * m)], order=2.0)


@pytest.mark.parametrize("xs", [(1.0,), (2.0, 2.0), (0.0, 0.0, 0.0)])
def test_least_squares_slope_needs_two_distinct_x(xs):
    with pytest.raises(GeometryError, match=r"at least two distinct x"):
        least_squares_slope(xs, [1.0] * len(xs))


# 2 to 8 values spread out: consecutive ones at least 0.2 apart, in shuffled order.
spread_xs = st.tuples(st.floats(-30.0, 5.0), st.lists(st.floats(0.2, 3.0), min_size=1, max_size=7)).flatmap(
    lambda pair: st.permutations(list(itertools.accumulate(pair[1], initial=pair[0])))
)


@given(
    xs=spread_xs,
    slope=st.floats(0.5, 4.0) | st.floats(-4.0, -0.5),
    intercept=st.floats(-40.0, 40.0),
    noise=st.lists(st.floats(-0.1, 0.1), min_size=8, max_size=8),
)
def test_least_squares_slope_matches_polyfit(xs, slope, intercept, noise):
    ys = [slope * x + intercept + e for x, e in zip(xs, noise)]
    assert least_squares_slope(xs, ys) == pytest.approx(float(np.polyfit(xs, ys, 1)[0]), rel=1e-13, abs=0.0)


def test_fit_order_is_infinite_below_the_floor_and_nan_for_a_residual_that_is_not_finite():
    ts = (1e-4, 1e-3, 1e-2, 1e-1)
    assert _fit_order(ts, (1e-8, 1e-7, 1e-6, 1e-5)) == pytest.approx(1.0, rel=1e-13)
    assert _fit_order([-t for t in ts], (1e-8, 1e-7, 1e-6, 1e-5)) == pytest.approx(1.0, rel=1e-13)
    floor = EPS_RESIDUAL_FLOOR
    for residuals in ((0.0, 0.0, 0.0, 0.0), (floor, floor, floor, 1e-5), (0.0, 1e-20, 1e-16, 1e-3)):
        assert _fit_order(ts, residuals) == math.inf, residuals
    # A NaN residual used to be read as converged, and left a finite order
    # or an infinite one; an infinite one gave NaN.
    for residuals in (
        (math.nan, 1e-7, 1e-6, 1e-5),
        (math.nan, 0.0, 0.0, 1e-5),
        (math.nan, math.nan, math.nan, math.nan),
        (math.inf, 1e-7, 1e-6, 1e-5),
        (1e-8, 1e-7, 1e-6, -math.inf),
    ):
        assert math.isnan(_fit_order(ts, residuals)), residuals


def _per_side_limits(family):
    """The limit, residuals and two-sided gap of extrapolate_limit as its loop over the sides computed them."""
    grid = [float(t) for t in family.grid]
    order = sorted(range(len(grid)), key=lambda i: grid[i] > 0)
    split = sum(not t > 0 for t in grid)
    matrices = np.asarray(family.matrices, dtype=float)
    grid, matrices = np.array(grid)[order], matrices[order]
    normalized = normalized_projective(matrices, grid.tolist())

    def step(t1, m1, t2, m2, p):
        w1, w2 = abs(t1) ** p, abs(t2) ** p
        return (w2 * m1 - w1 * m2) / (w2 - w1)

    limits, residuals = {}, []
    for positive, rows in ((True, slice(split, None)), (False, slice(split))):
        ts, side = grid[rows], normalized[rows]
        (t1, t2, t3), (m1, m2, m3) = ts[:3].tolist(), matrices[rows][:3]
        d1, d2 = _projective_gap(side[:2], side[1:3]).tolist()
        if min(d1, d2) <= EPS_RESIDUAL_FLOOR:
            limit = m1
        else:
            p = max(1, round(math.log(d2 / d1) / math.log(abs(t3) / abs(t2))))
            limit = step(t1, step(t1, m1, t2, m2, p), t3, step(t2, m2, t3, m3, p), p)
        limits[positive] = normalized_projective(limit)
        residuals.extend(zip(ts.tolist(), _projective_gap(side, limits[positive]).tolist()))
    residuals.sort(key=lambda pair: (abs(pair[0]), pair[0]))
    a, b = limits[True], limits[False]
    if float(np.sum(a * b)) < 0.0:
        b = -b
    return 0.5 * (a + b), tuple(r for _, r in residuals), float(_projective_gap(a, b))


def _assert_one_pass_equals_the_per_side_loop(family):
    report = extrapolate_limit(family)
    limit, residuals, gap = _per_side_limits(family)
    assert report.limit.tobytes() == limit.tobytes()
    assert repr(report.residuals) == repr(residuals)
    assert repr(report.two_sided_gap) == repr(gap)


@pytest.mark.parametrize(
    "point, mc, words",
    (
        (SYMMETRIC, WeightedMulticurve.single("A"), ("A", "B", "AB", "bAbb")),
        (TeichPoint.from_xy(20.0, 3.0), WeightedMulticurve.single("AAB", 0.5), ("AAb", "B", "abAB")),
        (TeichPoint.from_xy(3.0, 40.0), WeightedMulticurve.single("ABB"), ("abAB", "A", "Ab")),
    ),
    ids=("A@(3,3,3)", "0.5AAB@xy(20,3)", "ABB@xy(3,40)"),
)
def test_one_neville_pass_equals_the_loop_over_the_sides_bit_for_bit(point, mc, words):
    group = build_punctured_torus(point)
    rng = np.random.default_rng(41)
    grids = [DEFAULT_GRID]
    for _ in range(4):
        sides = [sign * rng.uniform(1e-4, 0.3, size=int(rng.integers(3, 6))) for sign in (1.0, -1.0)]
        grids.append(tuple(rng.permutation(np.concatenate(sides)).tolist()))
    for word in words:
        for grid in grids:
            family = holonomy_family(group, mc, 1.0, word, grid=grid)
            _assert_one_pass_equals_the_per_side_loop(family)
            # The family's own grid unsorted: each side reads its first three samples in grid order.
            shuffle = rng.permutation(len(family.grid))
            _assert_one_pass_equals_the_per_side_loop(
                TransitionFamily(word, tuple(family.grid[i] for i in shuffle), family.matrices[shuffle])
            )
    # One side converged to rounding, which takes its first sample, and one that is not.
    m, n = _hp_shaped(rng), rng.normal(size=(4, 4))
    grid = tuple(sorted(DEFAULT_GRID, key=lambda t: (abs(t), t)))
    for scale in (1e-13, 1.0):
        _assert_one_pass_equals_the_per_side_loop(
            TransitionFamily("w", grid, np.array([m + t * (1e-13 if t > 0 else scale) * n for t in grid]))
        )


def test_projective_normalization_branches():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4))
    m[3, 3] = 1.3
    assert projective_distance(m, 4.2 * m) < 1e-15
    vertical = rng.normal(size=(4, 4))
    vertical[3, 3] = 0.0
    assert projective_distance(vertical, -vertical) < 1e-15
    assert np.allclose(np.linalg.norm(normalized_projective(vertical)), 1.0)
    with pytest.raises(GeometryError):
        normalized_projective(np.zeros((4, 4)))
    # A finite matrix whose Frobenius norm overflows is refused, by its t when given, with no warning.
    huge = np.stack([vertical, 1e200 * vertical, m])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=r"the Frobenius norm of the matrix is not finite"):
            normalized_projective(huge[1])
        with pytest.raises(GeometryError, match=r"the Frobenius norm of the matrix at t = \[0.02\] is not"):
            normalized_projective(huge, [0.01, 0.02, 0.03])


def test_rotation_families_transit_to_half_pipe_rotations():
    rng = np.random.default_rng(6)
    for _ in range(10):
        axis = _random_axis(rng)
        a = rng.uniform(0.1, 1.2)
        target = rotation(HP, axis, a).matrix
        for tag, sgn in ((HYP, 1.0), (ADS, -1.0)):
            samples = [
                (sgn * t, rescale_conjugate(sgn * t, rotation(tag, axis, sgn * t * a)))
                for t in (1e-1, 1e-2, 1e-3, 1e-4)
            ]
            residuals = np.array([np.max(np.abs(m - target)) for _, m in samples])
            ts = np.array([abs(t) for t, _ in samples])
            order = np.polyfit(np.log(ts), np.log(residuals), 1)[0]
            assert order > 0.9
            limit = richardson_limit(samples, order=2.0)
            assert np.max(np.abs(limit - target)) < TOL_LAW


def test_generator_words_have_agreeing_two_sided_limits():
    # Beyond A and B, words whose families reach the asymptotic order only at
    # the smallest |t|: an order fitted to the whole grid leaves gaps of 7e-5
    # to 27 on them.
    inputs = (
        (_group(), _lamination(), ("A", "B", "BBaB", "bABB", "bAbb", "bbaB")),
        (
            build_punctured_torus(TeichPoint.from_xy(4.0, 5.0)),
            WeightedMulticurve.single("AB", 0.8),
            ("bbbb", "BBBB"),
        ),
    )
    for group, lam, words in inputs:
        for word in words:
            rep = extrapolate_limit(holonomy_family(group, lam, 1.0, word))
            assert rep.two_sided_gap < TOL_TWO_SIDED, word
            direct = direct_hp_matrix(group, lam, 1.0, word)
            assert projective_distance(rep.limit, direct) < TOL_TWO_SIDED, word


def test_family_contexts_share_one_atlas_and_one_crossing_query(monkeypatch):
    group, lam = _group(), _lamination()
    base = np.array(transition.DEFAULT_BASE_POINT)
    queries = []
    query = transition.holonomy_segment_crossings
    monkeypatch.setattr(transition, "holonomy_segment_crossings", lambda *args: queries.append(args) or query(*args))
    fam = holonomy_family(group, lam, 1.0, "AB")
    assert len(queries) == 1
    for t, matrix in zip(fam.grid, fam.matrices):
        _assert_family_member(group, lam, 1.0, "AB", t, matrix)
    contexts = [transition.signed_context(group, lam, base, 1.0, t) for t in fam.grid]
    atlas = group.atlas(lam.root)
    ctx = contexts[0]
    derived = (
        bending.BendingContext(group, lam, base, ctx.tag, ctx.sign, 0.5),
        bending.BendingContext(group, lam, base, HP, ctx.sign, ctx.scale),
        bending.BendingContext(group, lam, base, ADS, ctx.sign, 2.0),
    )
    assert all(c.group.atlas(c.multicurve.root) is atlas for c in (*contexts, *derived))


def _assert_family_member(group, mc, sign, word, t, matrix):
    """A family member is its one-value family bit for bit, and its context's holonomy rescaled afterwards to rounding.

    The gate is relative to the largest entry, and loose enough for the
    anti-de Sitter side at |t| of 2 to 4, where the entries grow as cosh of
    the angles.  At from_xy(5, 6), ABB and AAAA, t = -3, they reach 1.5e11;
    the family is 3.9e-13 from the 60-digit oracle below there, the rescaled
    context's product 1.3e-12.
    """
    alone = holonomy_family(group, mc, sign, word, grid=(t,)).matrices[0]
    assert matrix.tobytes() == alone.tobytes(), t
    ctx = transition.signed_context(group, mc, np.array(transition.DEFAULT_BASE_POINT), sign, t)
    rescaled = rescale_conjugate(t, bent_holonomy(ctx)(word))
    assert np.max(np.abs(matrix - rescaled)) <= 1e-11 * np.max(np.abs(matrix)), t


# 3 to 5 values of |t| per side, in shuffled order.  One hyperbolic value is
# past 2*pi, where every weight of ATLAS_MULTICURVES turns by more than pi.
magnitudes = st.lists(st.floats(1e-4, 2.0), min_size=2, max_size=4, unique=True)
shuffled_grids = st.tuples(magnitudes, st.floats(6.5, 12.0), magnitudes, st.floats(2.5, 4.0)).flatmap(
    lambda sides: st.permutations([*sides[0], sides[1], *(-t for t in sides[2]), -sides[3]])
)


@given(
    point=trace_points,
    mc=st.sampled_from(ATLAS_MULTICURVES),
    word=reduced_words,
    sign=st.sampled_from((1.0, -1.0)),
    grid=shuffled_grids,
)
def test_stacked_family_equals_the_per_context_products(point, mc, word, sign, grid):
    group = build_punctured_torus(point)
    base = np.array(transition.DEFAULT_BASE_POINT)
    try:
        fam = holonomy_family(group, mc, sign, word, grid=grid)
    except EndpointOnLeafError:
        assume(False)
    assert sorted(fam.grid) == sorted(grid)
    for t, matrix in zip(fam.grid, fam.matrices):
        _assert_family_member(group, mc, sign, word, t, matrix)


@pytest.mark.parametrize(
    "xy, word, sign, t",
    [((5.649388068915812, 6.0354087868896675), "aaBa", -1.0, -3.4161335493285048), ((3.0, 5.0), "BBBB", 1.0, -3.0)],
)
def test_large_anti_de_sitter_turns_keep_their_digits(xy, word, sign, t):
    # Two draws of the stacked-family test with ABB, where the products of a
    # and m b, of size 5e7, cancelled to factors of size 1e3: the family and
    # the rescaled context were 1.4e-11 and 1.2e-11 apart and 3.6e-12 to
    # 8.8e-12 from the oracle.  Held as their factors, they are within 1e-14 of it.
    group, mc = build_punctured_torus(TeichPoint.from_xy(*xy)), WeightedMulticurve.single("ABB")
    matrix = holonomy_family(group, mc, sign, word, grid=(t,)).matrices[0]
    ctx = transition.signed_context(group, mc, np.array(transition.DEFAULT_BASE_POINT), sign, t)
    rescaled = rescale_conjugate(t, bent_holonomy(ctx)(word))
    (exact,) = _oracle_family(group, mc, sign, word, (t,))
    assert _relative_to_oracle(matrix, exact) <= 1e-14
    assert _relative_to_oracle(rescaled, exact) <= 1e-14


def test_negative_bending_sign_also_transits():
    group, lam = _group(), _lamination()
    rep = extrapolate_limit(holonomy_family(group, lam, -1.0, "B"))
    direct = direct_hp_matrix(group, lam, -1.0, "B")
    assert rep.two_sided_gap < TOL_TWO_SIDED
    assert projective_distance(rep.limit, direct) < TOL_TWO_SIDED


def test_pleated_surface_chart_residuals_shrink_linearly():
    rng = np.random.default_rng(7)
    points = _disk_points(rng, 30)
    rep = pleated_surface_convergence(_group(), _lamination(), 1.0, points)
    res = dict(zip(rep.grid, rep.max_residuals))
    assert res[1e-4] < 10.0 * res[1e-3] * 0.2
    assert res[-1e-4] < 10.0 * res[-1e-3] * 0.2
    assert rep.order_positive > 0.9
    assert rep.order_negative > 0.9


def test_rescaled_geodesic_points_converge_for_shrinking_arcs():
    # The unit-speed hyperbolic geodesic from the origin along the fiber is
    # cosh(d) e0 + sinh(d) e3.  With d = t * delta the rescaled arc-length
    # points converge to the half-pipe graph point at height delta over the
    # basepoint.
    delta = 0.8
    samples = []
    for t in (1e-2, 1e-3, 1e-4):
        vec = np.array([math.cosh(t * delta), 0.0, 0.0, math.sinh(t * delta)])
        samples.append((t, (np.diag([1.0, 1.0, 1.0, 1.0 / t]) @ vec).reshape(4, 1)))
    limit = richardson_limit(samples, order=2.0)
    assert np.allclose(limit.ravel(), [1.0, 0.0, 0.0, delta], atol=1e-12)


def test_reflection_limit_constant_family_is_exact():
    base = reflection(Plane.base_plane(HYP))
    target = reflection(Plane.base_plane(HP)).matrix
    for t in (t for t in DEFAULT_GRID if t > 0):
        assert np.array_equal(rescale_conjugate(t, base), target), t


def test_reflection_limit_tilted_family_reproduces_translation_form():
    c = np.array([0.3, -0.2, 0.4])

    def family(t):
        return Plane(np.array([t * c[0], t * c[1], t * c[2], 1.0]), HYP)

    limit_plane = Plane(np.array([c[0], c[1], c[2], 1.0]), HP)
    target = np.eye(4)
    target[3, 3] = -1.0
    target[3, :3] = -2.0 * c
    assert np.max(np.abs(reflection(limit_plane).matrix - target)) < 1e-15
    samples = [(t, rescale_conjugate(t, reflection(family(t)))) for t in (1e-1, 1e-2, 1e-3, 1e-4)]
    # At least first order: each decade of t shrinks the residual tenfold.
    residuals = [np.max(np.abs(m - target)) for _, m in samples]
    assert all(b < 0.1 * a for a, b in zip(residuals, residuals[1:]))
    limit = richardson_limit(samples, order=2.0)
    assert np.max(np.abs(limit - target)) < TOL_LAW


# ---------------------------------------------------------------------------
# A 60-digit oracle of transition families over R[mu].
# ---------------------------------------------------------------------------

ORACLE_DIGITS = 60


def _mp_times(x, y, mu2):
    """(a + mu b)(c + mu d) for pairs of mpmath 2x2 matrices."""
    (a, b), (c, d) = x, y
    return a * c + mu2 * (b * d), a * d + b * c


def _mp_model_matrix(pair, mu2):
    """The 4x4 matrix of H -> A H A^dagger on the points P(x0, x1, x2) + mu x3 J, read off point by point."""
    a, b = pair
    dagger = (a.T, -b.T)
    zero = mpmath.zeros(2)
    basis = [
        (mpmath.matrix([[1, 0], [0, 1]]), zero),
        (mpmath.matrix([[0, 1], [1, 0]]), zero),
        (mpmath.matrix([[-1, 0], [0, 1]]), zero),
        (zero, mpmath.matrix([[0, -1], [1, 0]])),
    ]
    out = mpmath.matrix(4, 4)
    for j, point in enumerate(basis):
        h, k = _mp_times(_mp_times(pair, point, mu2), dagger, mu2)
        column = ((h[0, 0] + h[1, 1]) / 2, h[0, 1], (h[1, 1] - h[0, 0]) / 2, k[1, 0])
        for i, value in enumerate(column):
            out[i, j] = value
    return out


def _oracle_family(group, mc, sign, word, grid):
    """tau rho_t(word) tau^-1 for each t, a 0 for the half-pipe holonomy at full weights, in mpmath.

    The inputs taken as exact are the group's float SL(2) letters, the float
    unit normal of the axis of the curve's root (normalized again in
    mpmath) and the crossings found in floats.  Each leaf's rotation is
    formed whole, g_v (c + mu s X) g_v^-1, and the product is not telescoped.
    """
    _, sides, _, words = holonomy_segment_crossings(group, mc, np.array(transition.DEFAULT_BASE_POINT), word)
    with mpmath.workdps(ORACLE_DIGITS):
        letters = {letter: mpmath.matrix(_sl2(group, letter).tolist()) for letter in "ABab"}

        def sl2(w):
            out = mpmath.eye(2)
            for letter in w:
                out = out * letters[letter]
            return out

        n0, n1, n2 = (mpmath.mpf(c) for c in group.axis(mc.root).normal.tolist())
        norm = mpmath.sqrt(-n0 * n0 + n1 * n1 + n2 * n2)
        x = mpmath.matrix([[n1, n2 - n0], [n2 + n0, -n1]]) / norm
        out = []
        for t in grid:
            t = mpmath.mpf(t)
            lam = abs(t) if t else mpmath.mpf(1)
            theta = mpmath.mpf(sign) * (t if t else 1) * mpmath.mpf(float(mc.weight))
            if t > 0:
                c, s, mu2 = mpmath.cos(theta / 2), mpmath.sin(theta / 2) / lam, -lam * lam
            elif t < 0:
                c, s, mu2 = mpmath.cosh(theta / 2), -mpmath.sinh(theta / 2) / lam, lam * lam
            else:
                c, s, mu2 = mpmath.mpf(1), theta / 2, mpmath.mpf(0)
            product = (mpmath.eye(2), mpmath.zeros(2))
            for side, conjugator in zip(sides, words):
                g, g_inverse = sl2(conjugator), sl2(conjugator[::-1].swapcase())
                turn = (g * (c * mpmath.eye(2)) * g_inverse, g * (side * s * x) * g_inverse)
                product = _mp_times(product, turn, mu2)
            product = _mp_times(product, (sl2(word), mpmath.zeros(2)), mu2)
            out.append(_mp_model_matrix(product, mu2))
        return out


def _relative_to_oracle(found, reference):
    size = max(abs(reference[i, j]) for i in range(4) for j in range(4))
    return float(max(abs(mpmath.mpf(float(found[i, j])) - reference[i, j]) for i in range(4) for j in range(4)) / size)


ORACLE_CASES = (
    (SYMMETRIC, WeightedMulticurve.single("A"), ("A", "B", "a", "AB", "Ab", "BA", "aB", "ABA", "BAb", "bAB", "abAB")),
    (
        TeichPoint.from_xy(4.0, 5.0),
        WeightedMulticurve.single("AB", 0.8),
        ("A", "B", "AB", "bbbb", "BBBB", "bbAb", "abAB"),
    ),
    # The two points where the families of the previous form missed EPS_LIMIT.
    (TeichPoint.from_xy(20.0, 3.0), WeightedMulticurve.single("AAB", 0.5), ("AAb",)),
    (TeichPoint.from_xy(3.0, 40.0), WeightedMulticurve.single("ABB"), ("abAB",)),
)


@pytest.mark.parametrize(
    "point, mc, words", ORACLE_CASES, ids=("A@(3,3,3)", "0.8AB@xy(4,5)", "AAb@xy(20,3)", "abAB@xy(3,40)")
)
def test_families_and_half_pipe_holonomies_match_a_60_digit_oracle(point, mc, words):
    group = build_punctured_torus(point)
    for word in words:
        fam = holonomy_family(group, mc, 1.0, word)
        reference = _oracle_family(group, mc, 1.0, word, (*fam.grid, 0.0))
        for t, matrix, exact in zip(fam.grid, fam.matrices, reference):
            assert _relative_to_oracle(matrix, exact) <= 1e-12, (word, t)
        assert _relative_to_oracle(direct_hp_matrix(group, mc, 1.0, word), reference[-1]) <= 1e-12, word
