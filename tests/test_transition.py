"""Tests for rescaled holonomy families and their half-pipe limits."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from test_fuchsian import ATLAS_MULTICURVES, reduced_words, trace_points

from halfpipe import bending, transition
from halfpipe.bending import bent_holonomy
from halfpipe.fuchsian import EndpointOnLeafError, TeichPoint, WeightedMulticurve, build_punctured_torus
from halfpipe.geometry import (
    ADS,
    HP,
    HYP,
    GeometryError,
    Plane,
    SpacelikeGeodesicH2,
)
from halfpipe.isometry import reflection, rescale_conjugate, rotation
from halfpipe.transition import (
    DEFAULT_GRID,
    InsufficientGridError,
    TransitionFamily,
    direct_hp_matrix,
    extrapolate_limit,
    holonomy_family,
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


def test_an_empty_grid_is_refused_as_insufficient():
    with pytest.raises(InsufficientGridError, match="grid is empty"):
        holonomy_family(_group(), _lamination(), 1.0, "B", grid=[])
    with pytest.raises(InsufficientGridError, match="grid is empty"):
        pleated_surface_convergence(_group(), _lamination(), 1.0, [(0.1, 0.2)], grid=())


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
    contexts = [transition.signed_context(group, lam, base, 1.0, t) for t in fam.grid]
    for t, ctx, matrix in zip(fam.grid, contexts, fam.matrices):
        assert np.array_equal(matrix, rescale_conjugate(t, bent_holonomy(ctx)("AB")))
    atlas = group.atlas(lam)
    ctx = contexts[0]
    derived = (
        bending.BendingContext(group, lam, base, ctx.tag, ctx.sign, 0.5),
        bending.BendingContext(group, lam, base, HP, ctx.sign, ctx.scale),
        bending.BendingContext(group, lam, base, ADS, ctx.sign, 2.0),
    )
    assert all(c.group.atlas(c.multicurve) is atlas for c in (*contexts, *derived))


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
        ctx = transition.signed_context(group, mc, base, sign, t)
        assert np.array_equal(matrix, rescale_conjugate(t, bent_holonomy(ctx)(word))), t


def test_negative_bending_sign_also_transits():
    group, lam = _group(), _lamination()
    rep = extrapolate_limit(holonomy_family(group, lam, -1.0, "B"))
    direct = direct_hp_matrix(group, lam, -1.0, "B")
    assert rep.two_sided_gap < TOL_TWO_SIDED
    assert projective_distance(rep.limit, direct) < TOL_TWO_SIDED


def test_report_json_round_trip():
    rep = extrapolate_limit(holonomy_family(_group(), _lamination(), 1.0, "ab"))
    payload = rep.to_json_dict()
    assert set(payload) == {"word", "grid", "residuals", "order_pos", "order_neg", "two_sided_gap"}
    assert payload["word"] == "ab"
    assert payload["grid"] == list(rep.grid)
    decoded = json.loads(json.dumps(payload))
    assert decoded["two_sided_gap"] == rep.two_sided_gap


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
