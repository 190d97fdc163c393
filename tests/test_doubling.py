"""Tests for doubled holonomies, meridian cone angles, and cusp stabilizers."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_fuchsian import SIMPLE_CURVES, extreme_trace_points, trace_points

from halfpipe import cli, fuchsian
from halfpipe.bending import BendingContext, bent_holonomy, support_plane_at
from halfpipe.cli import DEFAULT_CONE_GRID as CONE_GRID
from halfpipe.doubling import (
    DoubledHolonomy,
    NoConjugatingTranslationError,
    cusp_stabilizer_check,
    double_convex_core_pair,
    meridian_cone_angle,
    meridian_cone_angles,
    pair_aligner,
)
from halfpipe.fuchsian import (
    EndpointOnLeafError,
    TeichPoint,
    WeightedMulticurve,
    build_punctured_torus,
    kerckhoff_point,
    segment_crossings,
)
from halfpipe.geometry import ADS, HP, HYP, GeometryError, OutsideModelError
from halfpipe.isometry import reflection
from halfpipe.transition import DEFAULT_BASE_POINT, richardson_limit

SYMMETRIC = TeichPoint(3.0, 3.0, 3.0)
KERCKHOFF = TeichPoint(2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0), 4.0)
BASE = np.array([0.11, 0.07])
MIRROR = np.array([-0.11, 0.07])

TOL_EXACT = 1e-12
TOL_TABLE = 1e-9
TOL_SLOPE = 1e-8
TOL_CUSP = 1e-8


def _context(tag=HYP, scale=0.2, traces=SYMMETRIC, word="A", weight=1.0, sign=1.0):
    group = build_punctured_torus(traces)
    return BendingContext(
        group=group,
        multicurve=WeightedMulticurve.single(word, weight),
        base_point=BASE,
        tag=tag,
        sign=sign,
        scale=scale,
    )


def _face_reflections(ctx):
    # The reflections in the support planes of the basepoint's face (face 0)
    # and of the face across the A-axis (face 1).
    return tuple(reflection(support_plane_at(ctx, point)) for point in (BASE, MIRROR))


def _double(tag=HYP, scale=0.2):
    ctx = _context(tag=tag, scale=scale)
    return DoubledHolonomy(rho=bent_holonomy(ctx), reflections=_face_reflections(ctx))


def _kerckhoff_pair(scale=0.05):
    group = build_punctured_torus(KERCKHOFF)
    upper = BendingContext(
        group=group,
        multicurve=WeightedMulticurve.single("A", 1.0),
        base_point=BASE,
        tag=HP,
        sign=1.0,
        scale=scale,
    )
    lower = BendingContext(
        group=group,
        multicurve=WeightedMulticurve.single("B", 1.0),
        base_point=BASE,
        tag=HP,
        sign=-1.0,
        scale=scale,
    )
    return upper, lower


def test_double_restricts_to_base_representation():
    dbl = _double()
    for word in ("A", "B", "aB", "ABab"):
        assert np.array_equal(dbl(word).matrix, dbl.rho(word).matrix)


def test_face_tokens_are_exact_reflection_products():
    for tag in (HYP, ADS, HP):
        dbl = _double(tag=tag)
        r0, r1 = dbl.reflections
        assert np.array_equal(dbl("e1").matrix, (r1 @ r0).matrix)
        assert np.array_equal(dbl("E1").matrix, (r0 @ r1).matrix)
        assert np.max(np.abs((r0 @ r0).matrix - np.eye(4))) < TOL_EXACT
        assert np.max(np.abs((r1 @ r1).matrix - np.eye(4))) < TOL_EXACT
        assert np.max(np.abs((dbl("e1") @ dbl("E1")).matrix - np.eye(4))) < TOL_EXACT


def test_reflections_fix_their_support_planes():
    ctx = _context()
    for point, refl in zip((BASE, MIRROR), _face_reflections(ctx)):
        plane = support_plane_at(ctx, point)
        moved = refl.apply_plane(plane)
        assert np.max(np.abs(plane.covector - moved.covector)) < 1e-11
    upper, lower = _kerckhoff_pair()
    doubled = double_convex_core_pair(upper, lower)
    aligner = pair_aligner(upper, lower)
    planes = (support_plane_at(upper, BASE), aligner.apply_plane(support_plane_at(lower, BASE)))
    for plane, refl in zip(planes, doubled.reflections):
        assert np.max(np.abs(plane.covector - refl.apply_plane(plane).covector)) < 1e-11


def test_extended_word_evaluation_is_multiplicative():
    dbl = _double()
    lhs = dbl("Ae1Be1a")
    rhs = dbl("A") @ dbl("e1") @ dbl("B") @ dbl("e1") @ dbl("a")
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < TOL_EXACT


def test_extended_word_parsing_rejects_garbage():
    dbl = _double()
    for bad in ("xA", "e", "A e1", "e0", "e7", "E0", "e10", "e2"):
        with pytest.raises(GeometryError):
            dbl(bad)
    # A double has two faces, so one face token.
    for reflections in (dbl.reflections[:1], dbl.reflections + dbl.reflections[:1]):
        with pytest.raises(GeometryError):
            DoubledHolonomy(rho=dbl.rho, reflections=reflections)


def test_unbent_double_collapses_to_base_reflection():
    dbl = _double(scale=0.0)
    assert np.allclose(dbl.reflections[0].matrix, np.diag([1.0, 1.0, 1.0, -1.0]), atol=0.0)
    assert np.array_equal(dbl.reflections[0].matrix, dbl.reflections[1].matrix)
    assert np.max(np.abs(dbl("e1").matrix - np.eye(4))) == 0.0


def test_hnn_relation_for_face_stabilizer():
    # The A-axis bounds both faces, so A stabilizes face 1 as well; the
    # doubled relation sends conjugation by e1 to the mirror copy.
    dbl = _double()
    r0 = dbl.reflections[0]
    lhs = dbl("E1Ae1").matrix
    rhs = (r0 @ dbl.rho("A") @ r0).matrix
    assert np.max(np.abs(lhs - rhs)) < TOL_EXACT


def test_reflections_conjugate_with_the_holonomy():
    ctx = _context()
    rho = bent_holonomy(ctx)
    for word in ("A", "B", "ab"):
        g = rho(word)
        for point, refl in zip((BASE, MIRROR), _face_reflections(ctx)):
            plane = support_plane_at(ctx, point)
            lhs = (g @ refl @ g.inverse()).matrix
            rhs = reflection(g.apply_plane(plane)).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_meridian_cone_angle_table():
    for weight in (1.0, 0.7):
        hyp = _context(tag=HYP, weight=weight)
        ads = _context(tag=ADS, weight=weight)
        for t in (0.2, 0.1, 0.05, 0.01):
            assert meridian_cone_angle(hyp, "A", t) == pytest.approx(
                2.0 * (math.pi - t * weight), abs=TOL_TABLE
            )
            assert meridian_cone_angle(ads, "A", t) == pytest.approx(
                -2.0 * t * weight, abs=TOL_TABLE
            )


def test_meridian_cone_angle_is_affine_with_slope_minus_two_weights():
    weight = 0.8
    ts = np.array([0.2, 0.1, 0.05, 0.01])
    for tag in (HYP, ADS):
        ctx = _context(tag=tag, weight=weight)
        angles = np.array([meridian_cone_angle(ctx, "A", t) for t in ts])
        coeffs = np.polyfit(ts, angles, 1)
        assert coeffs[0] == pytest.approx(-2.0 * weight, abs=TOL_SLOPE)
        assert np.max(np.abs(np.polyval(coeffs, ts) - angles)) < TOL_SLOPE


def test_meridian_half_pipe_values():
    ctx = _context(tag=HP)
    assert meridian_cone_angle(ctx, "A", 1.0) == pytest.approx(-2.0, abs=1e-12)
    assert meridian_cone_angle(ctx, "A", 0.25) == pytest.approx(-0.5, abs=1e-12)


def test_meridian_rescaled_family_limit():
    # The hyperbolic deficit (angle - 2*pi) scaled by 1/t recovers the
    # half-pipe meridian angle -2 * weight as t shrinks.
    samples = []
    for t in (1e-2, 1e-3, 1e-4):
        ctx = _context(tag=HYP, scale=t)
        deficit = meridian_cone_angle(ctx, "A") - 2.0 * math.pi
        samples.append((t, np.array([[deficit / t]])))
    limit = richardson_limit(samples, order=2.0)
    assert float(limit[0, 0]) == pytest.approx(-2.0, abs=1e-9)
    assert all(abs(float(m[0, 0]) + 2.0) < 1e-9 for _, m in samples)


def test_meridian_validation():
    ctx = _context(tag=HYP)
    with pytest.raises(GeometryError):
        meridian_cone_angle(ctx, "B", 0.1)
    with pytest.raises(GeometryError):
        meridian_cone_angle(ctx, "A", 4.0)
    with pytest.raises(GeometryError, match="slices is empty"):
        meridian_cone_angles(ctx.multicurve, [])
    # A tag that is not a Geometry failed in the rotations, with an AttributeError.
    for tag in ("HP", None, 0):
        with pytest.raises(GeometryError, match="slice tag must be a Geometry"):
            meridian_cone_angles(ctx.multicurve, [(HP, 0.1), (tag, 0.1)])


@pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan])
def test_meridian_cone_angles_refuse_a_scale_that_is_not_finite(scale):
    for tag in (HYP, ADS, HP):
        with pytest.raises(GeometryError):
            meridian_cone_angles(WeightedMulticurve.single("A"), [(HP, 0.1), (tag, scale)])
    with pytest.raises(GeometryError, match="rotation angle -inf is not finite"):
        meridian_cone_angles(WeightedMulticurve.single("A", 1e300), [(ADS, 1e10)])


def _double_config(path, traces=(3.0, 3.0, 3.0), word="A", weight=1.0, base_point=None):
    cfg = {"traces": list(traces), "multicurves": {"lambda": [{"word": word, "weight": weight}]}}
    if base_point is not None:
        cfg["base_point"] = list(base_point)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_outside_basepoints_are_refused_by_the_contexts_and_the_double_config(tmp_path):
    # The cone-angle table takes no basepoint; a context and the CLI config refuse one outside the disk.
    group = build_punctured_torus(SYMMETRIC)
    for index, base in enumerate(((1.0, 0.0), (0.8, 0.8), (math.nan, 0.0))):
        with pytest.raises(OutsideModelError):
            BendingContext(group, WeightedMulticurve.single("A"), base, HYP)
        config = _double_config(tmp_path / f"cfg{index}.json", base_point=base)
        assert cli.main(["double", "--config", config, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG, base
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("theta", (1.7, -1.7, 3.0, -3.0))
def test_hyperbolic_cone_angle_past_a_quarter_turn(theta):
    # The meridian turns by 2 * theta, past pi: its rotation angle read in
    # [-pi, pi) is 2 * (pi - theta) shifted by a multiple of 2 * pi.
    group = build_punctured_torus(SYMMETRIC)
    ctx = BendingContext(group, WeightedMulticurve.single("A", 1.0), DEFAULT_BASE_POINT, HYP, math.copysign(1.0, theta))
    assert meridian_cone_angle(ctx, "A", abs(theta)) == pytest.approx(2.0 * (math.pi - theta), abs=TOL_TABLE)


# Bending angles as fractions of pi; a grid of two or more reaches both sides of pi/2.
cone_fractions = st.lists(st.floats(0.02, 0.98), min_size=1, max_size=5, unique=True).filter(
    lambda fs: len(fs) == 1 or min(fs) < 0.5 < max(fs)
)


@given(
    point=trace_points,
    word=st.sampled_from(("A", "B", "AB", "Ab", "AAB", "ABB")),
    weight=st.floats(0.3, 1.5),
    sign=st.sampled_from((1.0, -1.0)),
    base=st.sampled_from((DEFAULT_BASE_POINT, (-0.2, 0.15))),
    fractions=cone_fractions,
    data=st.data(),
)
def test_stacked_cone_angle_table_equals_one_slice_cells_bit_for_bit(point, word, weight, sign, base, fractions, data):
    group = build_punctured_torus(point)
    multicurve = WeightedMulticurve.single(word, weight)
    cells = [(tag, f * math.pi / weight) for tag in (HYP, ADS, HP) for f in fractions]
    cells = data.draw(st.permutations(cells))
    one_slice = [meridian_cone_angle(BendingContext(group, multicurve, base, tag, sign), word, t) for tag, t in cells]
    table = meridian_cone_angles(multicurve, [(tag, sign * t) for tag, t in cells])
    for (tag, t), angle, cell in zip(cells, table, one_slice):
        assert angle.hex() == cell.hex(), (tag, t)
        theta = sign * t * weight
        assert angle == pytest.approx(2.0 * (math.pi - theta) if tag is HYP else -2.0 * theta, abs=1e-8), (tag, t)


# Trace points out to from_xy(20, 20), the extremes included.
cone_trace_points = (
    st.tuples(st.floats(2.1, 20.0), st.floats(2.1, 20.0))
    .filter(lambda xy: xy[0] ** 2 * xy[1] ** 2 >= 4.0 * (xy[0] ** 2 + xy[1] ** 2))
    .map(lambda xy: TeichPoint.from_xy(*xy))
)
cone_base_points = st.tuples(st.floats(0.0, 0.95, exclude_max=True), st.floats(0.0, 2.0 * math.pi)).map(
    lambda polar: (polar[0] * math.cos(polar[1]), polar[0] * math.sin(polar[1]))
)


@settings(max_examples=150)
@given(
    point=cone_trace_points,
    word=st.sampled_from([word for word in SIMPLE_CURVES if len(word) <= 4]),
    weight=st.floats(0.3, 2.0),
    base=cone_base_points,
)
@example(point=TeichPoint.from_xy(20.0, 20.0), word="ab", weight=2.0, base=(0.0, 0.0))
@example(point=TeichPoint.from_xy(3.0, 20.0), word="AAAB", weight=2.0, base=(0.0, 0.0))
@example(point=TeichPoint.from_xy(18.551686291445424, 16.900173399065306), word="Abaa", weight=1.8, base=(0.0, 0.0))
def test_every_cone_angle_table_cell_is_its_exact_angle(point, word, weight, base):
    # 2 * (pi - theta) in the hyperbolic model and -2 * theta in the others,
    # through contexts at any basepoint as through the table, which has none.
    group = build_punctured_torus(point)
    multicurve = WeightedMulticurve.single(word, weight)
    slices = [(tag, t) for tag in (HYP, ADS, HP) for t in CONE_GRID]
    table = meridian_cone_angles(multicurve, slices)
    for (tag, t), angle in zip(slices, table):
        exact = 2.0 * (math.pi - t * weight) if tag is HYP else -2.0 * t * weight
        assert abs(angle - exact) <= 1e-12, (tag, t, angle, exact)
        assert meridian_cone_angle(BendingContext(group, multicurve, base, tag), word, t) == angle


def test_cone_angles_at_a_basepoint_next_to_the_rim():
    # Both face segments from x0 = (0.99999, 0) crossed the leaf BAbAB next to x0;
    # in four slices the meridian read as moving the axis.
    group = build_punctured_torus(SYMMETRIC)
    for tag in (HYP, ADS, HP):
        ctx = BendingContext(group, WeightedMulticurve.single("A"), (0.99999, 0.0), tag)
        for t in CONE_GRID:
            exact = 2.0 * (math.pi - t) if tag is HYP else -2.0 * t
            assert abs(meridian_cone_angle(ctx, "A", t) - exact) <= 1e-12, (tag, t)


@pytest.mark.parametrize("t", (2.5, 2.7489, 3.0, 3.1))
def test_large_anti_de_sitter_cone_angles(t):
    # From (-0.2, 0.15), both face segments crossed the leaf a; at 2.7489 and
    # beyond the meridian read as moving the axis.
    group = build_punctured_torus(TeichPoint.from_xy(3.0, 4.0))
    ctx = BendingContext(group, WeightedMulticurve.single("Ab"), (-0.2, 0.15), ADS)
    assert abs(meridian_cone_angle(ctx, "Ab", t) + 2.0 * t) <= 1e-12


@settings(max_examples=150)
@given(point=extreme_trace_points, word=st.sampled_from([word for word in SIMPLE_CURVES if len(word) <= 4]))
@example(point=TeichPoint.from_xy(60.0, 60.0), word="aaab")
def test_a_segment_inside_the_collar_crosses_the_roots_axis_alone(point, word):
    # The crossing that meridian_cone_angles takes without a query: the
    # lifts of the curve are disjoint, each with an embedded collar of
    # half-width arcsinh(1 / sinh(l / 2)), so a segment across the axis of
    # the root, half as long each way, meets that leaf only.
    group = build_punctured_torus(point)
    multicurve = WeightedMulticurve.single(word)
    root = multicurve.root
    leaf = group.axis(root)
    half = 0.5 * math.asinh(1.0 / math.sinh(group.translation_length(root) / 2.0))
    anchor = leaf.closest_point_to_origin()
    far, near = (math.cosh(half) * anchor + side * math.sinh(half) * leaf.normal for side in (1.0, -1.0))
    try:
        _, sides, _, words = segment_crossings(group, multicurve, far[1:] / far[0], near[1:] / near[0])
    except EndpointOnLeafError:
        # A collar too thin for the endpoints' Klein coordinates to resolve them off the leaf.
        assume(False)
    assert words == [""] and sides == [-1.0]


def test_cone_angle_tables_make_no_leaf_query_and_no_tile_search(monkeypatch, tmp_path):
    single = _context(tag=ADS)
    ctx = _context()
    slices = [(tag, t) for tag in (HYP, ADS, HP) for t in CONE_GRID]
    config = _double_config(tmp_path / "cfg.json")

    def refused(*args):
        raise AssertionError("a cone-angle table made a leaf query or a tile search")

    monkeypatch.setattr(fuchsian, "_tiles_within", refused)
    monkeypatch.setattr(fuchsian, "_crossings", refused)
    # Fresh groups, whose atlases and tile memos are empty.
    meridian_cone_angle(single, "A", 0.1)
    assert len(meridian_cone_angles(ctx.multicurve, slices)) == len(slices)
    assert cli.main(["double", "--config", config, "--out", str(tmp_path)]) == cli.EXIT_OK


def test_cone_angle_cells_equal_fresh_group_cells_bit_for_bit():
    cases = ((SYMMETRIC, "A", 1.0), (TeichPoint.from_xy(6.0, 3.5), "AAB", 0.5))
    for traces, word, weight in cases:
        group = build_punctured_torus(traces)
        multicurve = WeightedMulticurve.single(word, weight)
        # Both basepoints on one group, whose atlas and memos they share.
        for base in (DEFAULT_BASE_POINT, (-0.2, 0.15)):
            for tag in (HYP, ADS, HP):
                for t in CONE_GRID:
                    shared = BendingContext(group, multicurve, base, tag)
                    fresh = BendingContext(build_punctured_torus(traces), multicurve, base, tag)
                    cell = meridian_cone_angle(shared, word, t)
                    assert cell == meridian_cone_angle(fresh, word, t), (traces, base, tag, t)


def test_pair_aligner_exists_at_the_critical_point():
    upper, lower = _kerckhoff_pair()
    aligner = pair_aligner(upper, lower)
    assert np.allclose(aligner.matrix[:3, :3], np.eye(3), atol=0.0)
    rho_u, rho_l = bent_holonomy(upper), bent_holonomy(lower)
    for word in ("A", "B", "AB", "BabA", "aabAB"):
        lhs = (aligner @ rho_l(word) @ aligner.inverse()).matrix
        assert np.max(np.abs(lhs - rho_u(word).matrix)) < 1e-12


def test_pair_aligner_refuses_non_critical_points():
    group = build_punctured_torus(SYMMETRIC)
    upper = BendingContext(
        group=group,
        multicurve=WeightedMulticurve.single("A", 1.0),
        base_point=BASE,
        tag=HP,
        sign=1.0,
        scale=0.05,
    )
    lower = BendingContext(
        group=group,
        multicurve=WeightedMulticurve.single("B", 1.0),
        base_point=BASE,
        tag=HP,
        sign=-1.0,
        scale=0.05,
    )
    with pytest.raises(NoConjugatingTranslationError):
        pair_aligner(upper, lower)
    with pytest.raises(GeometryError):
        pair_aligner(BendingContext(group, upper.multicurve, BASE, HYP, 1.0, 0.05), lower)
    # At the critical point only the pair preconditions can refuse these.
    upper, lower = _kerckhoff_pair()
    moved = BendingContext(lower.group, lower.multicurve, np.array([0.1, 0.05]), HP, -1.0, 0.05)
    for bad_pair in ((lower, upper), (upper, moved)):
        for construction in (pair_aligner, double_convex_core_pair):
            with pytest.raises(GeometryError):
                construction(*bad_pair)


@pytest.mark.parametrize("lam_word, mu_word", [("A", "B"), ("A", "AB"), ("AB", "Ab"), ("AAB", "B"), ("A", "ABB")])
def test_face_reflections_are_those_in_the_support_planes_at_the_basepoint_bit_for_bit(lam_word, mu_word):
    # The cocycle from the basepoint to itself is the identity, so the double
    # reflects in the base plane instead of querying the support planes.
    lam, mu = WeightedMulticurve.single(lam_word), WeightedMulticurve.single(mu_word)
    group = build_punctured_torus(kerckhoff_point(lam, mu, SYMMETRIC).point)
    for base in (BASE, np.array([-0.2, 0.15])):
        upper = BendingContext(group, lam, base, HP, 1.0, 0.05)
        lower = BendingContext(group, mu, base, HP, -1.0, 0.05)
        aligner = pair_aligner(upper, lower)
        expected = (
            reflection(support_plane_at(upper, base)),
            aligner @ reflection(support_plane_at(lower, base)) @ aligner.inverse(),
        )
        for found, want in zip(double_convex_core_pair(upper, lower).reflections, expected):
            assert np.array_equal(found.matrix, want.matrix)


def test_a_basepoint_on_a_leaf_is_refused_by_the_double():
    # At (3,3,3) the axis of A passes through the disk centre.
    group = build_punctured_torus(SYMMETRIC)
    origin = np.zeros(2)
    upper = BendingContext(group, WeightedMulticurve.single("A"), origin, HP, 1.0, 0.05)
    lower = BendingContext(group, WeightedMulticurve.single("B"), origin, HP, -1.0, 0.05)
    with pytest.raises(EndpointOnLeafError):
        double_convex_core_pair(upper, lower)


def test_doubled_cusp_stabilizer_is_rank_two():
    upper, lower = _kerckhoff_pair()
    doubled = double_convex_core_pair(upper, lower)
    report = cusp_stabilizer_check(doubled, "BabA")
    assert report.cusp_class == "parabolic"
    assert report.commutator_norm < TOL_CUSP
    assert report.shared_point_residual < TOL_CUSP
    assert report.rank2_defect > 1e-3


def test_wrong_cusp_word_fails_commutation():
    # ABab is parabolic but fixes a different ideal point than the face pair.
    upper, lower = _kerckhoff_pair()
    doubled = double_convex_core_pair(upper, lower)
    report = cusp_stabilizer_check(doubled, "ABab")
    assert report.cusp_class == "parabolic"
    assert report.commutator_norm > 1e-3


def test_unbent_cusp_pair_degenerates():
    dbl = _double(scale=0.0)
    report = cusp_stabilizer_check(dbl, "ABab")
    assert report.cusp_class == "parabolic"
    assert report.commutator_norm < 1e-12
    assert report.shared_point_residual < 1e-12
    # the face product collapses to the identity, so no rank-2 pair remains
    assert report.rank2_defect == 0.0


def test_convex_core_pair_requires_shared_basepoint():
    upper, lower = _kerckhoff_pair()
    shifted = BendingContext(
        group=lower.group,
        multicurve=lower.multicurve,
        base_point=np.array([0.1, 0.05]),
        tag=HP,
        sign=-1.0,
        scale=0.05,
    )
    with pytest.raises(GeometryError):
        double_convex_core_pair(upper, shifted)


# (lambda, mu, weights) choices of the benchmark's double workload under
# which the Kerckhoff point missed the gradient tolerance, or doubled with an
# aligner residual above its tolerance, in eight (choice, start) combinations:
# the first and third choice from (3,3,3) and from_xy(4,5), the third and
# fourth from from_xy(6,3.5), the fourth from (3,3,3), and the second from
# from_xy(6,3.5).  The test runs every choice from all three starts.
FORMERLY_FAILING_DOUBLES = (
    ("A", "Ab", (0.7, 1.3)),
    ("A", "Ab", (0.9, 1.1)),
    ("AAB", "AB", (1.3, 0.7)),
    ("AAB", "AB", (1.1, 0.9)),
)
KERCKHOFF_STARTS = (SYMMETRIC, TeichPoint.from_xy(4.0, 5.0), TeichPoint.from_xy(6.0, 3.5))


def test_formerly_failing_doubles_converge_from_every_start():
    for lam_word, mu_word, (a, b) in FORMERLY_FAILING_DOUBLES:
        lam, mu = WeightedMulticurve.single(lam_word, a), WeightedMulticurve.single(mu_word, b)
        results = [kerckhoff_point(lam, mu, start) for start in KERCKHOFF_STARTS]
        assert max(r.gradient_norm for r in results) <= 1e-11
        points = np.array([r.point.as_array() for r in results])
        assert np.max(np.abs(points - points[0])) < 1e-8
        for result in results:
            group = build_punctured_torus(result.point)
            upper = BendingContext(group, lam, BASE, HP, 1.0, 0.05)
            lower = BendingContext(group, mu, BASE, HP, -1.0, 0.05)
            assert double_convex_core_pair(upper, lower).face_count == 2
