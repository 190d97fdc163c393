"""Tests for bending cocycles, bent holonomies, and half-pipe surfaces."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_fuchsian import (
    ATLAS_MULTICURVES,
    SIMPLE_CURVES,
    _all_reduced_words,
    _coset_key,
    base_points,
    disk_points,
    extreme_trace_points,
    reduced_words,
    trace_points,
)

from halfpipe.bending import (
    BendingContext,
    bending_cocycle,
    bending_map,
    bent_holonomy,
    bent_translation,
    psi_lambda,
    sigma_embed,
    support_plane_at,
)
from halfpipe.fuchsian import (
    ATLAS_RADIUS_LIMIT,
    EndpointOnLeafError,
    TeichPoint,
    WeightedMulticurve,
    build_punctured_torus,
    free_reduce,
    holonomy_segment_crossings,
    leaves_crossing,
    segment_crossings,
)
from halfpipe.geometry import (
    ADS,
    HP,
    HYP,
    GeometryError,
    OutsideModelError,
    Plane,
    ProjectivePoint,
    TagMismatchError,
    disk_lift,
    embed_h2_point,
    klein_hp,
    minkowski_dot,
)
from halfpipe.isometry import Isometry, classify_isometry, group_residual, hp_to_minkowski

SYMMETRIC = TeichPoint(3.0, 3.0, 3.0)
KERCKHOFF = TeichPoint(2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0), 4.0)
BASE = np.array([0.11, 0.07])
ALL_TAGS = (HYP, ADS, HP)

TOL_IDENTITY = 1e-10
TOL_COCYCLE = 1e-9
TOL_GRAPH = 1e-10
TOL_CONCAVE = 1e-10


def _context(tag, word="A", weight=1.0, sign=1.0, scale=0.2, traces=SYMMETRIC):
    group = build_punctured_torus(traces)
    return BendingContext(
        group=group,
        multicurve=WeightedMulticurve.single(word, weight=weight),
        base_point=BASE,
        tag=tag,
        sign=sign,
        scale=scale,
    )


def _disk_points(rng, count, radius=0.9):
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


def _random_word(rng, length):
    word = rng.choice(list("ABab"))
    while len(word) < length:
        ch = rng.choice(list("ABab"))
        if ch != word[-1].swapcase():
            word += ch
    return word


def _act(group, word, z):
    w = group.lorentz(word) @ disk_lift(z)
    return w[1:] / w[0]


def _same_line(a, b, tol):
    # All 2x2 minors of the unit representatives vanish exactly on proportional pairs.
    wedge = np.outer(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return np.max(np.abs(wedge - wedge.T)) < tol


def test_context_validation():
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A")
    for outside in ([0.8, 0.7], [math.nan, 0.0], [math.inf, 0.0]):
        with pytest.raises(OutsideModelError):
            BendingContext(group=group, multicurve=mc, base_point=np.array(outside), tag=HP)
    with pytest.raises(GeometryError):
        BendingContext(group=group, multicurve=mc, base_point=BASE, tag=HP, sign=0.5)
    assert not _context(HP, scale=0.3).base_point.flags.writeable


def test_context_refuses_a_tag_that_is_not_a_geometry():
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A")
    for tag in ("HP", None, 0, 1, HP.value):
        with pytest.raises(GeometryError, match="Geometry"):
            BendingContext(group=group, multicurve=mc, base_point=BASE, tag=tag)


def test_cocycle_trivial_cases():
    for tag in ALL_TAGS:
        ctx = _context(tag)
        same = bending_cocycle(ctx, BASE, BASE)
        assert np.array_equal(same.matrix, np.eye(4))
        # zero scale: every crossing contributes the zero angle and is skipped
        frozen = _context(tag, scale=0.0)
        across = bending_cocycle(frozen, BASE, np.array([-0.4, 0.2]))
        assert np.array_equal(across.matrix, np.eye(4))


def test_cocycle_inverse_segments():
    rng = np.random.default_rng(17)
    for tag in ALL_TAGS:
        ctx = _context(tag, scale=0.3)
        for _ in range(10):
            x, y = _disk_points(rng, 2, radius=0.93)
            product = bending_cocycle(ctx, x, y) @ bending_cocycle(ctx, y, x)
            assert np.max(np.abs(product.matrix - np.eye(4))) < TOL_IDENTITY


def test_cocycle_condition_on_triples():
    rng = np.random.default_rng(23)
    for tag in ALL_TAGS:
        ctx = _context(tag, scale=0.25)
        for _ in range(50):
            x, y, z = _disk_points(rng, 3, radius=0.95)
            lhs = bending_cocycle(ctx, x, y) @ bending_cocycle(ctx, y, z)
            rhs = bending_cocycle(ctx, x, z)
            assert np.max(np.abs(lhs.matrix - rhs.matrix)) < TOL_COCYCLE


def test_cocycle_group_covariance():
    rng = np.random.default_rng(29)
    for tag in ALL_TAGS:
        ctx = _context(tag, scale=0.25)
        for _ in range(25):
            x, y = _disk_points(rng, 2, radius=0.9)
            word = free_reduce(_random_word(rng, int(rng.integers(1, 4)))) or "B"
            gx, gy = _act(ctx.group, word, x), _act(ctx.group, word, y)
            push = sigma_embed(ctx, word)
            lhs = bending_cocycle(ctx, gx, gy)
            rhs = push @ bending_cocycle(ctx, x, y) @ push.inverse()
            assert np.max(np.abs(lhs.matrix - rhs.matrix)) < TOL_COCYCLE


def test_bent_holonomy_is_a_homomorphism():
    rng = np.random.default_rng(31)
    pairs = []
    while len(pairs) < 30:
        w1 = free_reduce(_random_word(rng, int(rng.integers(1, 5))))
        w2 = free_reduce(_random_word(rng, int(rng.integers(1, 5))))
        if w1 and w2:
            pairs.append((w1, w2))
    for tag in ALL_TAGS:
        for scale in (0.2, 0.05):
            rho = bent_holonomy(_context(tag, scale=1.0 if tag is HP else scale))
            for w1, w2 in pairs:
                lhs = rho(free_reduce(w1 + w2)).matrix
                rhs = (rho(w1) @ rho(w2)).matrix
                assert np.max(np.abs(lhs - rhs)) < TOL_COCYCLE


def test_bent_holonomy_is_a_homomorphism_at_extreme_traces():
    # The segment from the default basepoint to AAb . x0 ends 2e-12 from the
    # rim, and three leaves pass within rounding of that end.
    group = build_punctured_torus(TeichPoint.from_xy(9.64, 11.61))
    lam = WeightedMulticurve.single("AAB", 1.47)
    for base in (np.array([0.03, 0.44]), BASE):
        rho = bent_holonomy(BendingContext(group, lam, base, HYP, 1.0, 0.3))
        lhs = rho("AAb").matrix
        rhs = (rho("A") @ rho("Ab")).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(lhs))


laminations = st.sampled_from(ATLAS_MULTICURVES)


@given(
    point=trace_points,
    mc=laminations,
    tag=st.sampled_from(ALL_TAGS),
    scale=st.floats(0.05, 1.0),
    x=disk_points,
    y=disk_points,
    z=disk_points,
)
def test_cocycle_identity_at_random_points(point, mc, tag, scale, x, y, z):
    ctx = BendingContext(build_punctured_torus(point), mc, BASE, tag, 1.0, scale)
    try:
        lhs = (bending_cocycle(ctx, x, y) @ bending_cocycle(ctx, y, z)).matrix
        rhs = bending_cocycle(ctx, x, z).matrix
    except EndpointOnLeafError:
        assume(False)
    assert np.max(np.abs(lhs - rhs)) < TOL_COCYCLE * np.max(np.abs(rhs))


@given(
    point=trace_points,
    mc=laminations,
    tag=st.sampled_from(ALL_TAGS),
    scale=st.floats(0.05, 1.0),
    base=disk_points,
    word=reduced_words.filter(lambda w: len(w) > 1),
    cut=st.integers(1, 3),
)
def test_bent_holonomy_is_a_homomorphism_at_random_points(point, mc, tag, scale, base, word, cut):
    cut = min(cut, len(word) - 1)
    w1, w2 = word[:cut], word[cut:]
    rho = bent_holonomy(BendingContext(build_punctured_torus(point), mc, base, tag, 1.0, scale))
    try:
        lhs = rho(word).matrix
        rhs = (rho(w1) @ rho(w2)).matrix
    except EndpointOnLeafError:
        assume(False)
    assert np.max(np.abs(lhs - rhs)) < TOL_COCYCLE * np.max(np.abs(lhs))


@given(
    point=trace_points,
    mc=laminations,
    tag=st.sampled_from(ALL_TAGS),
    scale=st.floats(0.05, 1.0),
    word=reduced_words,
    angle=st.floats(0.0, 2.0 * math.pi),
)
def test_bent_holonomy_does_not_depend_on_the_groups_query_history(point, mc, tag, scale, word, angle):
    # A segment from x0 to Klein radius 0.98 (distance 2.3 from the centre)
    # regrows the group's atlas unless it already reaches ATLAS_RADIUS_LIMIT.
    # The prefixes of the word, the shortest segments, are the likeliest to
    # be answered from the smaller atlas before and from the larger after.
    group = build_punctured_torus(point)
    rho = bent_holonomy(BendingContext(group, mc, BASE, tag, 1.0, scale))
    prefixes = [word[:k] for k in range(1, len(word) + 1)]
    try:
        before = [rho(prefix).matrix for prefix in prefixes]
        radius = group.atlas(mc).radius
        assume(radius < ATLAS_RADIUS_LIMIT)
        leaves_crossing(group, mc, BASE, 0.98 * np.array([math.cos(angle), math.sin(angle)]))
    except EndpointOnLeafError:
        assume(False)
    assert group.atlas(mc).radius > radius
    fresh = bent_holonomy(BendingContext(build_punctured_torus(point), mc, BASE, tag, 1.0, scale))
    for prefix, matrix in zip(prefixes, before):
        assert np.array_equal(rho(prefix).matrix, matrix), prefix
        assert np.array_equal(fresh(prefix).matrix, matrix), prefix


def test_bent_holonomy_degenerate_inputs():
    for tag in ALL_TAGS:
        rho = bent_holonomy(_context(tag, scale=0.3))
        assert np.array_equal(rho("").matrix, np.eye(4))
        # unbent contexts reproduce the embedded Fuchsian action exactly
        flat = bent_holonomy(_context(tag, scale=0.0))
        for word in ("A", "B", "AbaB"):
            expected = sigma_embed(flat.context, word)
            assert np.array_equal(flat(word).matrix, expected.matrix)


# Curve words h . r . h^-1 and their cyclic reductions r, with trace points
# where the axis of h . r . h^-1 lies far from the disk centre.
CONJUGATE_CURVES = (
    ("Abaa", "ba", TeichPoint.from_xy(18.551686291445424, 16.900173399065306)),
    ("bABB", "AB", TeichPoint.from_xy(6.50, 15.86)),
)


@pytest.mark.parametrize("word, root, traces", CONJUGATE_CURVES)
def test_a_curve_word_bends_as_its_cyclic_reduction_bit_for_bit(word, root, traces):
    # Both bend along the same lines, and leaves are named and framed by the axis of the root.
    assert WeightedMulticurve.single(word).components[0].root == root
    group = build_punctured_torus(traces)
    contexts = [
        BendingContext(group, WeightedMulticurve.single(curve, 0.7), BASE, tag, 1.0, 0.1)
        for curve in (word, root) for tag in ALL_TAGS
    ]
    for conjugate, reduced in zip(contexts[:3], contexts[3:]):
        for g in ("A", "B", "AB", "aB"):
            assert np.array_equal(bent_holonomy(conjugate)(g).matrix, bent_holonomy(reduced)(g).matrix), g
            if conjugate.tag is HP:
                assert np.array_equal(bent_translation(conjugate, g), bent_translation(reduced, g)), g
    # A segment past the root's axis, halfway from its nearest point to the rim.
    anchor = group.axis(root).closest_point_to_origin()
    near = anchor[1:] / anchor[0]
    far = near * (0.5 + 0.5 / np.linalg.norm(near))
    found = segment_crossings(group, contexts[0].multicurve, BASE, far)
    expected = segment_crossings(group, contexts[3].multicurve, BASE, far)
    assert found[3] == expected[3] and len(found[3]) > 0
    for array, want in zip(found[:3], expected[:3]):
        assert np.array_equal(array, want)


def test_bent_holonomy_keeps_cusp_parabolic():
    for tag in ALL_TAGS:
        rho = bent_holonomy(_context(tag, scale=1.0 if tag is HP else 0.2))
        assert classify_isometry(rho("ABab")) == "parabolic"
        assert classify_isometry(rho("A")) == "hyperbolic"


def test_bending_map_fixes_base_face():
    near = BASE + np.array([0.05, -0.03])
    for tag in ALL_TAGS:
        ctx = _context(tag, scale=0.3)
        image = bending_map(ctx, near)
        assert _same_line(image.vec, embed_h2_point(tag, near).vec, tol=1e-12)
        # a point on the central leaf develops with the basepoint-side cocycle
        on_leaf = np.array([0.0, 0.3])
        image = bending_map(ctx, on_leaf)
        assert _same_line(image.vec, embed_h2_point(tag, on_leaf).vec, tol=1e-9)


def test_bending_map_equivariance():
    rng = np.random.default_rng(37)
    for tag in ALL_TAGS:
        ctx = _context(tag, scale=0.25)
        rho = bent_holonomy(ctx)
        for _ in range(20):
            (z,) = _disk_points(rng, 1, radius=0.88)
            word = free_reduce(_random_word(rng, int(rng.integers(1, 3)))) or "A"
            lhs = bending_map(ctx, _act(ctx.group, word, z))
            rhs = rho(word).apply(bending_map(ctx, z))
            assert _same_line(lhs.vec, rhs.vec, tol=TOL_COCYCLE)


def test_hp_bent_surface_is_graph_of_height_function():
    rng = np.random.default_rng(41)
    ctx = _context(HP, weight=0.8, scale=0.4)
    with pytest.raises(TagMismatchError):
        psi_lambda(_context(HYP), np.array([0.1, 0.1]))
    with pytest.raises(TagMismatchError):
        bent_translation(_context(ADS), "A")
    for z in _disk_points(rng, 60, radius=0.93):
        chart, height = klein_hp(bending_map(ctx, z))
        assert np.max(np.abs(chart - z)) < TOL_GRAPH
        assert abs(height - psi_lambda(ctx, z)) < TOL_GRAPH


def test_height_function_values():
    ctx = _context(HP, weight=0.8, scale=0.3)
    near = BASE + np.array([-0.04, 0.05])
    assert psi_lambda(ctx, near) == 0.0
    # one crossing of the central leaf {z1 = 0}, whose outward normal from the
    # basepoint side is -e1: the height is angle * z1 < 0 beyond the leaf
    mirror = np.array([-BASE[0], BASE[1]])
    assert len(leaves_crossing(ctx.group, ctx.multicurve, BASE, mirror)) == 1
    angle = ctx.sign * ctx.scale * 0.8
    assert psi_lambda(ctx, mirror) == pytest.approx(angle * mirror[0], abs=1e-14)
    assert psi_lambda(ctx, mirror) < 0.0
    # flipping the bending sign negates the height exactly
    flipped = BendingContext(
        group=ctx.group,
        multicurve=ctx.multicurve,
        base_point=BASE,
        tag=HP,
        sign=-1.0,
        scale=0.3,
    )
    rng = np.random.default_rng(43)
    for z in _disk_points(rng, 20, radius=0.9):
        assert psi_lambda(flipped, z) == -psi_lambda(ctx, z)


@given(
    point=extreme_trace_points,
    curve=st.sampled_from(ATLAS_MULTICURVES),
    weight=st.floats(0.01, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    scale=st.floats(-2.0, 2.0),
    base=disk_points,
    z=disk_points,
)
def test_height_function_is_the_sum_over_the_crossings_bit_for_bit(point, curve, weight, sign, scale, base, z):
    # The sum as it was written over the oriented unit leaves of leaves_crossing.
    mc = WeightedMulticurve.single(curve.components[0].word, weight)
    ctx = BendingContext(build_punctured_torus(point), mc, base, HP, sign, scale)
    try:
        height = psi_lambda(ctx, z)
        crossings = leaves_crossing(ctx.group, mc, base, z)
    except EndpointOnLeafError:
        assume(False)
    lift = np.array([1.0, z[0], z[1]])
    total = 0.0
    for crossing in crossings:
        total -= ctx.sign * ctx.scale * crossing.weight * float(minkowski_dot(crossing.leaf.normal, lift))
    assert height.hex() == total.hex()


def test_height_function_concavity_and_support():
    rng = np.random.default_rng(47)
    ctx = _context(HP, weight=0.7, scale=0.35)
    pairs = _disk_points(rng, 600, radius=0.95).reshape(300, 2, 2)
    for u, v in pairs:
        mid = psi_lambda(ctx, 0.5 * (u + v))
        assert mid >= 0.5 * (psi_lambda(ctx, u) + psi_lambda(ctx, v)) - TOL_CONCAVE
    # each face plane touches the graph on its own face and dominates it
    anchors = _disk_points(rng, 15, radius=0.85)
    samples = _disk_points(rng, 40, radius=0.9)
    for w in anchors:
        try:
            plane = support_plane_at(ctx, w)
        except EndpointOnLeafError:
            continue
        # the plane {u . (1, z, h) = 0} is the graph of h = -(u0 + u1 z1 + u2 z2) / u3
        u = plane.covector
        heights = -(u[0] + samples @ u[1:3]) / u[3]
        assert abs(-(u[0] + w @ u[1:3]) / u[3] - psi_lambda(ctx, w)) < TOL_GRAPH
        for z, h in zip(samples, heights):
            assert h >= psi_lambda(ctx, z) - TOL_GRAPH


def test_height_graph_invariant_under_bent_holonomy():
    rng = np.random.default_rng(53)
    ctx = _context(HP, weight=0.9, scale=0.5)
    rho = bent_holonomy(ctx)
    for word in ("A", "B", "ab", "BAb"):
        g = rho(word)
        for z in _disk_points(rng, 10, radius=0.85):
            chart, height = klein_hp(g.apply(ProjectivePoint([1.0, z[0], z[1], psi_lambda(ctx, z)], HP)))
            assert abs(height - psi_lambda(ctx, chart)) < TOL_COCYCLE


def test_support_planes():
    for tag in ALL_TAGS:
        ctx = _context(tag, weight=0.8, scale=0.25)
        assert np.max(np.abs(support_plane_at(ctx, BASE).covector - Plane.base_plane(tag).covector)) < 1e-10
        with pytest.raises(EndpointOnLeafError):
            support_plane_at(ctx, np.array([0.0, 0.3]))


def test_bent_surface_stays_on_one_side_of_support_planes():
    rng = np.random.default_rng(59)
    samples = _disk_points(rng, 200, radius=0.9)
    for tag in ALL_TAGS:
        ctx = _context(tag, weight=0.8, scale=0.25)
        # bending_map develops the unit lift of z, so its vector has q = -1;
        # orient it into x0 > 0
        vecs = np.array([bending_map(ctx, z).vec for z in samples])
        lifts = vecs * np.sign(vecs[:, :1])
        # base-face plane: positive bending pushes the far sheet to x3 <= 0 in the
        # hyperbolic and half-pipe models and to x3 >= 0 in anti-de Sitter
        heights = lifts @ Plane.base_plane(tag).covector
        if tag is ADS:
            assert np.min(heights) > -1e-12
        else:
            assert np.max(heights) < 1e-12
        # a generic face plane still bounds the surface on one side
        plane = support_plane_at(ctx, np.array([-0.5, 0.1]))
        sides = lifts @ plane.covector
        assert np.min(sides) > -1e-10 or np.max(sides) < 1e-10


def _translation_part(iso):
    a = iso.matrix[:3, :3]
    return np.array([-1.0, 1.0, 1.0]) * np.linalg.solve(a.T, iso.matrix[3, :3])


def _coboundary_fit(rho_upper, rho_lower):
    rows, rhs = [], []
    for word in ("A", "B"):
        linear = rho_upper(word).matrix[:3, :3]
        rows.append(np.eye(3) - linear)
        rhs.append(_translation_part(rho_upper(word)) - _translation_part(rho_lower(word)))
    matrix, target = np.vstack(rows), np.concatenate(rhs)
    shift, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    return shift, float(np.max(np.abs(matrix @ shift - target)))


def test_bent_holonomies_conjugate_exactly_at_the_critical_point():
    # at the minimizer of the combined length function the two half-pipe
    # translation cocycles differ by a coboundary, so one vertical-translation
    # conjugation carries the negatively bent holonomy onto the positive one
    def holonomies(traces):
        group = build_punctured_torus(traces)
        upper = BendingContext(
            group=group, multicurve=WeightedMulticurve.single("A"), base_point=BASE, tag=HP, sign=1.0
        )
        lower = BendingContext(
            group=group, multicurve=WeightedMulticurve.single("B"), base_point=BASE, tag=HP, sign=-1.0
        )
        return bent_holonomy(upper), bent_holonomy(lower)

    rho_u, rho_l = holonomies(KERCKHOFF)
    shift, residual = _coboundary_fit(rho_u, rho_l)
    assert residual < 1e-10
    conjugator = np.eye(4)
    conjugator[3, :3] = np.array([-1.0, 1.0, 1.0]) * shift
    conj = Isometry(conjugator, HP)
    for word in ("A", "B", "AB", "ABab", "aabAB"):
        lhs = rho_u(word).matrix
        rhs = (conj @ rho_l(word) @ conj.inverse()).matrix
        assert np.max(np.abs(lhs - rhs)) < TOL_COCYCLE
    # away from the critical point the cocycles are not cohomologous
    rho_u, rho_l = holonomies(SYMMETRIC)
    _, residual = _coboundary_fit(rho_u, rho_l)
    assert residual > 1e-2


# A 50-digit reference of the half-pipe translation cocycle.  The group's
# double-precision SL(2) letter matrices and the crossings found in floats
# are its exact inputs; the adjoint images and the axis normal are formed
# in mpmath.
REFERENCE_DIGITS = 50


def _mp_sl2(letters, word):
    out = mpmath.eye(2)
    for letter in word:
        out = out * letters[letter]
    return out


def _mp_adjoint(g):
    """sl2_to_so12 of an mpmath 2x2 matrix: g . e . adj(g) on the basis e of trace-free matrices."""
    adjugate = mpmath.matrix([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
    columns = []
    for e in ([[0, -1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]):
        m = g * mpmath.matrix(e) * adjugate
        columns.append([(m[1, 0] - m[0, 1]) / 2, m[0, 0], (m[1, 0] + m[0, 1]) / 2])
    return mpmath.matrix([[column[i] for column in columns] for i in range(3)])


def _mp_axis_normal(g):
    """axis_of_sl2's unit normal, the trace-free part of g signed by the trace, in mpmath."""
    trace = g[0, 0] + g[1, 1]
    m = g - (trace / 2) * mpmath.eye(2)
    eta = [(m[1, 0] - m[0, 1]) / 2, m[0, 0], (m[1, 0] + m[0, 1]) / 2]
    norm = mpmath.sqrt(-eta[0] ** 2 + eta[1] ** 2 + eta[2] ** 2)
    return mpmath.matrix([mpmath.sign(trace) * c / norm for c in eta])


def _relative_gap(found, reference):
    size = max(abs(c) for c in reference)
    gap = max(abs(mpmath.mpf(float(f)) - c) for f, c in zip(found, reference))
    return float(gap / size) if size else float(gap)


def _reference_translation(ctx, word):
    """The reference -theta * sum_i side_i * L(word_i) . n, and the input floor.

    The floor is the relative distance to the same sum with the group's
    float Lorentz images L(word_i) and float axis normal taken as exact: what
    the inputs of :func:`bent_translation` lose before it rounds anything.
    """
    group, curve = ctx.group, ctx.multicurve.components[0]
    _, sides, _, words = holonomy_segment_crossings(group, ctx.multicurve, ctx.base_point, word)
    with mpmath.workdps(REFERENCE_DIGITS):
        letters = {letter: mpmath.matrix(group.sl2(letter).tolist()) for letter in "ABab"}
        normal = _mp_axis_normal(_mp_sl2(letters, curve.root))
        float_normal = mpmath.matrix(group.axis(curve.root).normal.tolist())
        total, from_floats = mpmath.matrix(3, 1), mpmath.matrix(3, 1)
        for side, conjugator in zip(sides.tolist(), words):
            total += side * (_mp_adjoint(_mp_sl2(letters, conjugator)) * normal)
            from_floats += side * (mpmath.matrix(group.lorentz(conjugator).tolist()) * float_normal)
        theta = -mpmath.mpf(ctx.sign) * mpmath.mpf(ctx.scale) * mpmath.mpf(float(curve.weight))
        reference = [theta * c for c in total]
        return reference, _relative_gap([theta * c for c in from_floats], reference)


SHORT_SIMPLE_CURVES = [word for word in SIMPLE_CURVES if len(word) <= 4]
HOLONOMY_WORDS = ("A", "B", "AB", "aB")


@given(
    point=extreme_trace_points,
    curve=st.sampled_from(SHORT_SIMPLE_CURVES),
    weight=st.floats(0.01, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    scale=st.floats(0.01, 2.0),
    base=disk_points,
    word=st.sampled_from(HOLONOMY_WORDS),
)
@settings(max_examples=300)
@example(
    point=TeichPoint.from_xy(18.551686291445424, 16.900173399065306), curve="Abaa", weight=1.0, sign=1.0,
    scale=0.05, base=BASE, word="AB",
)
def test_bent_translation_matches_a_50_digit_reference(point, curve, weight, sign, scale, base, word):
    ctx = BendingContext(build_punctured_torus(point), WeightedMulticurve.single(curve, weight), base, HP, sign, scale)
    try:
        found = bent_translation(ctx, word)
    except (EndpointOnLeafError, OutsideModelError):
        assume(False)
    reference, floor = _reference_translation(ctx, word)
    # Far out at extreme traces the float images alone lose more than the gate allows.
    assume(floor <= 1e-13)
    with mpmath.workdps(REFERENCE_DIGITS):
        assert _relative_gap(found, reference) <= 1e-12


@given(
    point=trace_points,
    curve=st.sampled_from(SHORT_SIMPLE_CURVES),
    weight=st.floats(0.01, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    scale=st.floats(0.01, 2.0),
    base=base_points,
    word=st.sampled_from(HOLONOMY_WORDS),
)
def test_bent_translation_is_that_of_the_4x4_bent_holonomy(point, curve, weight, sign, scale, base, word):
    ctx = BendingContext(build_punctured_torus(point), WeightedMulticurve.single(curve, weight), base, HP, sign, scale)
    try:
        found = bent_translation(ctx, word)
        holonomy = bent_holonomy(ctx)(word)
    except (EndpointOnLeafError, OutsideModelError):
        assume(False)
    # The 4x4 translation loses up to a few times the group residual of its
    # linear block, and hp_to_minkowski refuses one that is off by 1e-8.
    assume(group_residual(holonomy.matrix, HP) <= 1e-10)
    through_4x4 = hp_to_minkowski(holonomy).translation
    assert np.max(np.abs(through_4x4 - found)) <= 1e-9 * np.max(np.abs(found))


@given(
    point=extreme_trace_points,
    curve=st.sampled_from(SHORT_SIMPLE_CURVES),
    weight=st.floats(0.01, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    scale=st.floats(0.01, 2.0),
    base=disk_points,
    word=st.sampled_from(HOLONOMY_WORDS),
)
def test_bent_translation_sums_the_whole_word_leaf_normals_bit_for_bit(point, curve, weight, sign, scale, base, word):
    ctx = BendingContext(build_punctured_torus(point), WeightedMulticurve.single(curve, weight), base, HP, sign, scale)
    try:
        found = bent_translation(ctx, word)
    except (EndpointOnLeafError, OutsideModelError):
        assume(False)
    group, root = ctx.group, ctx.multicurve.components[0].root
    _, sides, _, words = holonomy_segment_crossings(group, ctx.multicurve, base, word)
    axis = group.axis(root).normal
    total = np.zeros(3)
    for side, conjugator in zip(sides.tolist(), words):
        total += side * (group.lorentz(conjugator) @ axis)
    assert found.tobytes() == (-(sign * scale * weight) * total).tobytes()


# Basepoints where [x0, aB . x0] ends within 1e-8 of the rim at traces near 37:
# leaves far along the segment pair with its far end in the last digits.
RIM_SEGMENTS = (
    (TeichPoint.from_xy(36.54421736702381, 19.88390559576092), 0.7982560333168152),
    (TeichPoint.from_xy(37.84985098133422, 35.45117573662722), 0.7798096860677832),
)


@pytest.mark.parametrize("point, radius", RIM_SEGMENTS)
def test_rim_crossings_of_a_holonomy_segment_are_those_of_an_mpmath_sign_test(point, radius):
    # The float generators and basepoint are the exact inputs; every leaf
    # named by a word of up to six letters is tested at REFERENCE_DIGITS.
    group = build_punctured_torus(point)
    mc = WeightedMulticurve.single("Abaa")
    root = mc.components[0].root
    x0 = radius * np.array([0.6, 0.8])
    _, sides, _, words = holonomy_segment_crossings(group, mc, x0, "aB")
    with mpmath.workdps(REFERENCE_DIGITS):
        letters = {letter: mpmath.matrix(group.sl2(letter).tolist()) for letter in "ABab"}
        normal = _mp_axis_normal(_mp_sl2(letters, root))
        near = mpmath.matrix([1, float(x0[0]), float(x0[1])])
        far = _mp_adjoint(_mp_sl2(letters, "aB")) * near
        form = mpmath.diag([-1, 1, 1])
        crossed, total = [], mpmath.matrix(3, 1)
        for key in sorted({_coset_key(v, root) for v in ["", *_all_reduced_words(6)]}):
            leaf = _mp_adjoint(_mp_sl2(letters, key)) * normal
            f0, f1 = ((leaf.T * form * end)[0] for end in (near, far))
            if f0 * f1 < 0:
                crossed.append((f0 / (f0 - f1 / far[0]), key, mpmath.sign(-f0)))
                total += mpmath.sign(-f0) * leaf
        crossed.sort()
        assert [_coset_key(word, root) for word in words] == [key for _, key, _ in crossed]
        assert sides.tolist() == [float(side) for _, _, side in crossed]
        ctx = BendingContext(group, mc, x0, HP, 1.0, 1.0)
        assert _relative_gap(bent_translation(ctx, "aB"), [-c for c in total]) <= 1e-12
