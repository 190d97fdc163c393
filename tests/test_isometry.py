"""Tests for isometries: rotations, reflections, rescaling, classification."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from halfpipe.geometry import (
    ADS,
    EPS_MEMBERSHIP,
    HP,
    HYP,
    J3,
    DegeneratePlaneError,
    NotSpacelikeError,
    Plane,
    ProjectivePoint,
    SpacelikeGeodesicH2,
    form_eval,
    klein_hp,
)
from halfpipe.isometry import (
    EPS_GROUP,
    EPS_ROTATION,
    Isometry,
    MinkowskiIsometry,
    NotRotationAboutAxisError,
    RotationOverflowError,
    boost_from_origin,
    boost_to_origin,
    classify_isometry,
    embed_h2_isometry,
    group_residual,
    h2_rotation,
    hp_to_minkowski,
    minkowski_to_hp,
    reflection,
    reflection_stack,
    rescale_conjugate,
    rotation,
    standard_rotation_angles,
    standard_rotations,
    transport_to_standard_axis,
)

STANDARD_AXIS = SpacelikeGeodesicH2(np.array([0.0, 0.0, 1.0]))
TAGS = (HYP, ADS, HP)


def _standard_rotation(tag, angle):
    return standard_rotations((tag,), (angle,))[0]


def _hp_point(z, h):
    return ProjectivePoint([1.0, z[0], z[1], h], HP)


def _random_axis(rng, near_origin=False):
    theta = rng.uniform(0.0, 2.0 * math.pi)
    if near_origin:
        gap = math.pi + rng.uniform(-0.4, 0.4)
    else:
        gap = rng.uniform(1.2, 2.0 * math.pi - 1.2)
    start = np.array([math.cos(theta), math.sin(theta)])
    end = np.array([math.cos(theta + gap), math.sin(theta + gap)])
    return SpacelikeGeodesicH2.from_ideal_endpoints_klein(start, end)


def _random_spacelike_plane(tag, rng):
    # A bounded isometry image of {x3 = 0}, so the reflection has moderate
    # entries (reflections along distant planes are numerically huge).
    g = _random_isometry(tag, rng)
    return g.apply_plane(Plane.base_plane(tag))


def _random_h2_linear(rng, scale=0.3):
    u = np.concatenate(([0.0], rng.normal(scale=scale, size=2)))
    u[0] = math.sqrt(1.0 + u[1] ** 2 + u[2] ** 2)
    return boost_from_origin(u) @ h2_rotation(rng.uniform(0.0, 2.0 * math.pi))


def _random_isometry(tag, rng):
    if tag is HP:
        return minkowski_to_hp(MinkowskiIsometry(_random_h2_linear(rng), rng.normal(size=3)))
    g = rotation(tag, _random_axis(rng), rng.uniform(-1.0, 1.0))
    return embed_h2_isometry(tag, _random_h2_linear(rng)) @ g


def test_standard_rotation_hyperbolic_quarter_turn():
    g = rotation(HYP, STANDARD_AXIS, math.pi / 2)
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )
    assert np.allclose(g.matrix, expected, atol=1e-14)


def test_standard_rotation_half_pipe_is_vertical_shear():
    g = rotation(HP, STANDARD_AXIS, 0.7)
    expected = np.eye(4)
    expected[3, 2] = -0.7
    assert np.allclose(g.matrix, expected, atol=1e-14)


def test_standard_rotation_anti_de_sitter_block():
    g = _standard_rotation(ADS, 0.4)
    c, s = math.cosh(0.4), math.sinh(0.4)
    assert np.allclose(g[2:, 2:], [[c, s], [s, c]], atol=1e-15)
    assert np.allclose(g[:2, :2], np.eye(2), atol=1e-15)
    with pytest.raises(RotationOverflowError, match="1000.0"):
        _standard_rotation(ADS, 1000.0)


def test_transport_to_standard_axis_frames():
    rng = np.random.default_rng(7)
    for _ in range(20):
        axis = _random_axis(rng)
        a = transport_to_standard_axis(axis)
        assert np.allclose(a.T @ J3 @ a, J3, atol=1e-12)
        assert np.linalg.det(a) > 0
        assert np.allclose(a @ axis.normal, [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(a @ axis.closest_point_to_origin(), [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(transport_to_standard_axis(STANDARD_AXIS), np.eye(3), atol=1e-15)


def test_rotation_fixes_axis_pointwise():
    rng = np.random.default_rng(11)
    for tag in TAGS:
        axis = _random_axis(rng)
        g = rotation(tag, axis, 0.83)
        p = axis.closest_point_to_origin()
        for point in (p, p + 0.5 * axis.tangent_at(p)):
            vec = np.concatenate((point, [0.0]))
            assert np.allclose(g.matrix @ vec, vec, atol=1e-12)


def test_rotation_is_the_frame_rotation_bit_for_bit():
    # (angle, the angle in [-pi, pi) that a hyperbolic rotation turns by)
    angles = (
        (math.pi, -math.pi), (-math.pi, -math.pi), (0.0, 0.0), (0.4, 0.4), (-2.5, -2.5), (7.0, 7.0 - 2.0 * math.pi)
    )
    rng = np.random.default_rng(17)
    for _ in range(5):
        axis = _random_axis(rng)
        transport = transport_to_standard_axis(axis)
        for tag in TAGS:
            phi = embed_h2_isometry(tag, transport)
            for angle, hyperbolic in angles:
                turn = hyperbolic if tag is HYP else angle
                expected = (phi.inverse() @ Isometry(_standard_rotation(tag, turn), tag) @ phi).matrix
                assert np.array_equal(rotation(tag, axis, angle).matrix, expected), (tag, angle)


def test_rotation_angle_roundtrip():
    rng = np.random.default_rng(13)
    for tag in TAGS:
        for _ in range(10):
            axis = _random_axis(rng)
            angle = rng.uniform(-1.4, 1.4)
            g = rotation(tag, axis, angle)
            phi = embed_h2_isometry(tag, transport_to_standard_axis(axis))
            pulled_back = (phi @ g @ phi.inverse()).matrix[np.newaxis]
            assert standard_rotation_angles(pulled_back, tag) == pytest.approx([angle], abs=1e-10)
            standard = _standard_rotation(tag, angle)[np.newaxis]
            assert standard_rotation_angles(standard, tag) == pytest.approx([angle], abs=1e-15)


def test_rotation_angle_hyperbolic_branch():
    stack = np.stack([rotation(HYP, STANDARD_AXIS, angle).matrix for angle in (3.0 * math.pi / 2, math.pi)])
    assert standard_rotation_angles(stack, HYP) == pytest.approx([-math.pi / 2, -math.pi])


def test_rotation_angle_rejects_moved_axis():
    rng = np.random.default_rng(17)
    other = _random_axis(rng)
    with pytest.raises(NotRotationAboutAxisError):
        standard_rotation_angles(rotation(HYP, other, 0.5).matrix[np.newaxis], HYP)


def test_composition_words_stay_in_group():
    rng = np.random.default_rng(19)
    for tag in TAGS:
        g = Isometry(np.eye(4), tag)
        for _ in range(8):
            if rng.uniform() < 0.3:
                plane = Plane.hp_plane_dual_to(rng.normal(size=3)) if tag is HP else _random_spacelike_plane(tag, rng)
                g = g @ reflection(plane)
            else:
                g = g @ _random_isometry(tag, rng)
        assert group_residual(g.matrix, tag) < EPS_GROUP
        assert np.allclose((g @ g.inverse()).matrix, np.eye(4), atol=1e-11)
        assert np.allclose((g.inverse() @ g).matrix, np.eye(4), atol=1e-11)


def test_apply_plane_preserves_incidence():
    rng = np.random.default_rng(23)
    for tag in (HYP, ADS):
        g = _random_isometry(tag, rng)
        plane = _random_spacelike_plane(tag, rng)
        # Build a point on the plane by reflecting a basepoint's midpoint trick:
        # project the origin lift onto the plane along its normal.
        n = plane.geometry.form_matrix @ plane.covector
        x = np.array([1.0, 0.0, 0.0, 0.0])
        x = x - (float(plane.covector @ x) / float(plane.covector @ n)) * n
        # Incidence u . x = 0 on the unit representatives x.
        assert abs(plane.covector @ x) / np.linalg.norm(x) < 1e-10
        image, gx = g.apply_plane(plane), g.matrix @ x
        assert abs(image.covector @ gx) / np.linalg.norm(gx) < 1e-10


def test_reflection_base_plane_flips_fiber():
    for tag in TAGS:
        r = reflection(Plane.base_plane(tag))
        assert np.allclose(r.matrix, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-15)


def test_reflection_hyperbolic_coordinate_plane():
    r = reflection(Plane(np.array([0.0, 1.0, 0.0, 0.0]), HYP))
    assert np.allclose(r.matrix, np.diag([1.0, -1.0, 1.0, 1.0]), atol=1e-15)


def test_reflections_are_involutions_fixing_their_plane():
    rng = np.random.default_rng(29)
    for tag in TAGS:
        for _ in range(8):
            if tag is HP:
                plane = Plane.hp_plane_dual_to(rng.normal(size=3))
            else:
                plane = _random_spacelike_plane(tag, rng)
            r = reflection(plane)
            assert group_residual(r.matrix, tag) < 1e-11
            assert np.allclose((r @ r).matrix, np.eye(4), atol=1e-11)
            assert np.max(np.abs(r.apply_plane(plane).covector - plane.covector)) < 1e-11
            assert np.trace(r.matrix) == pytest.approx(2.0, abs=1e-11)


def test_reflection_fixes_half_pipe_graph_pointwise():
    y = np.array([0.4, -0.3, 0.8])
    plane = Plane.hp_plane_dual_to(y)
    r = reflection(plane)
    rng = np.random.default_rng(31)
    for _ in range(5):
        z = rng.uniform(-0.6, 0.6, size=2)
        u = plane.covector
        h = -(u[0] + u[1] * z[0] + u[2] * z[1]) / u[3]
        image_z, image_h = klein_hp(r.apply(_hp_point(z, h)))
        assert np.allclose(image_z, z, atol=1e-14)
        assert image_h == pytest.approx(h, abs=1e-14)
        # Points off the graph reflect through it.
        _, flipped = klein_hp(r.apply(_hp_point(z, h + 0.25)))
        assert flipped == pytest.approx(h - 0.25, abs=1e-14)


def test_reflection_refuses_bad_planes():
    with pytest.raises(DegeneratePlaneError):
        reflection(Plane(np.array([0.3, 1.0, -0.2, 0.0]), HP))
    with pytest.raises(NotSpacelikeError):
        reflection(Plane(np.array([0.0, 1.0, 0.0, 0.0]), ADS))
    with pytest.raises(NotSpacelikeError):
        reflection_stack(ADS, [Plane.base_plane(ADS).covector, [0.0, 1.0, 0.0, 0.0]])


def test_reflection_stack_equals_the_plane_reflections_bit_for_bit():
    rng = np.random.default_rng(41)
    for tag in TAGS:
        planes = [Plane.base_plane(tag)]
        for _ in range(6):
            planes.append(Plane.hp_plane_dual_to(rng.normal(size=3)) if tag is HP else _random_spacelike_plane(tag, rng))
        signs = rng.choice((-1.0, 1.0), size=len(planes))
        stack = reflection_stack(tag, [sign * plane.covector for sign, plane in zip(signs, planes)])
        for matrix, plane in zip(stack, planes):
            assert matrix.tobytes() == reflection(plane).matrix.tobytes()


def test_rescale_conjugate_fixes_h2_block():
    rng = np.random.default_rng(37)
    a = _random_h2_linear(rng)
    g = embed_h2_isometry(HYP, a)
    assert np.allclose(rescale_conjugate(0.01, g), g.matrix, atol=1e-14)


def test_rescaled_rotations_converge_to_half_pipe_rotation():
    theta = 0.9
    target = _standard_rotation(HP, theta)
    for t in (1e-3, 1e-4):
        hyp = rescale_conjugate(t, _standard_rotation(HYP, t * theta))
        ads = rescale_conjugate(-t, _standard_rotation(ADS, -t * theta))
        assert np.max(np.abs(hyp - target)) < theta * t
        assert np.max(np.abs(ads - target)) < theta * t


def test_minkowski_semidirect_product_matches_matrices():
    # Half-pipe matrices compose and invert as the affine maps y -> A y + v:
    # (A1, v1)(A2, v2) = (A1 A2, v1 + A1 v2) and (A, v)^-1 = (A^-1, -A^-1 v).
    rng = np.random.default_rng(41)
    for _ in range(6):
        (a1, v1), (a2, v2) = ((_random_h2_linear(rng), rng.normal(size=3)) for _ in range(2))
        m1 = MinkowskiIsometry(a1, v1)
        lhs = minkowski_to_hp(MinkowskiIsometry(a1 @ a2, v1 + a1 @ v2)).matrix
        rhs = (minkowski_to_hp(m1) @ minkowski_to_hp(MinkowskiIsometry(a2, v2))).matrix
        assert np.allclose(lhs, rhs, atol=1e-12)
        back = hp_to_minkowski(minkowski_to_hp(m1))
        assert np.allclose(back.linear, m1.linear, atol=1e-12)
        assert np.allclose(back.translation, m1.translation, atol=1e-12)
        inv = hp_to_minkowski(minkowski_to_hp(m1).inverse())
        a_inv = J3 @ a1.T @ J3
        assert np.allclose(inv.linear @ a1, np.eye(3), atol=1e-12)
        assert np.allclose(inv.translation, -(a_inv @ v1), atol=1e-12)


def test_vertical_translation_in_klein_chart():
    g = minkowski_to_hp(MinkowskiIsometry(np.eye(3), np.array([1.0, 0.0, 0.0])))
    z, h = klein_hp(g.apply(_hp_point(np.zeros(2), 0.0)))
    assert np.allclose(z, 0.0)
    assert h == pytest.approx(-1.0)


def test_hp_rotation_is_spacelike_minkowski_translation():
    rng = np.random.default_rng(47)
    for _ in range(8):
        axis = _random_axis(rng)
        theta = rng.uniform(-1.2, 1.2)
        g = rotation(HP, axis, theta)
        expected = minkowski_to_hp(MinkowskiIsometry(np.eye(3), -theta * axis.normal))
        assert np.allclose(g.matrix, expected.matrix, atol=1e-12)


def _so12_parabolic(s):
    n = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 1.0, 0.0]])
    return np.eye(3) + s * n + 0.5 * s * s * (n @ n)


def test_classify_rotations_and_translations():
    rng = np.random.default_rng(53)
    axis = _random_axis(rng)
    assert classify_isometry(rotation(HYP, axis, 0.4)) == "elliptic"
    for tag in (HYP, ADS):
        translation = embed_h2_isometry(tag, boost_from_origin(np.array([math.cosh(0.8), math.sinh(0.8), 0.0])))
        assert classify_isometry(translation) == "hyperbolic"
        parabolic = embed_h2_isometry(tag, _so12_parabolic(0.7))
        assert group_residual(parabolic.matrix, tag) < 1e-12
        assert classify_isometry(parabolic) == "parabolic"
        assert classify_isometry(Isometry(np.eye(4), tag)) == "other"
        assert classify_isometry(reflection(Plane.base_plane(tag))) == "other"


def test_classify_half_pipe_elements():
    rng = np.random.default_rng(59)
    axis = _random_axis(rng)
    assert classify_isometry(rotation(HP, axis, 0.6)) == "elliptic"
    assert classify_isometry(minkowski_to_hp(MinkowskiIsometry(_so12_parabolic(0.5), np.zeros(3)))) == "parabolic"
    hyp_linear = boost_from_origin(np.array([math.cosh(1.0), 0.0, math.sinh(1.0)]))
    assert classify_isometry(minkowski_to_hp(MinkowskiIsometry(hyp_linear, np.zeros(3)))) == "hyperbolic"
    null_translation = minkowski_to_hp(MinkowskiIsometry(np.eye(3), np.array([1.0, 1.0, 0.0])))
    assert classify_isometry(null_translation) == "parabolic"
    timelike_translation = minkowski_to_hp(MinkowskiIsometry(np.eye(3), np.array([1.0, 0.0, 0.0])))
    assert classify_isometry(timelike_translation) == "other"
    assert classify_isometry(Isometry(np.eye(4), HP)) == "other"


def test_boost_round_trip():
    rng = np.random.default_rng(71)
    for _ in range(10):
        u = np.concatenate(([0.0], rng.normal(size=2)))
        u[0] = math.sqrt(1.0 + u[1] ** 2 + u[2] ** 2)
        assert np.allclose(boost_to_origin(u) @ u, [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(boost_from_origin(u) @ np.array([1.0, 0.0, 0.0]), u, atol=1e-12)
        assert np.allclose(boost_from_origin(u) @ boost_to_origin(u), np.eye(3), atol=1e-12)


def test_group_residual_flags_wrong_tag():
    g = _standard_rotation(HYP, 0.3)
    assert group_residual(g, HYP) < 1e-15
    assert group_residual(g, ADS) > 1e-2
    assert group_residual(g, HP) > 1e-2


# ---------------------------------------------------------------------------
# The cone table's helpers in floats, against their numpy forms bit for bit.
# ---------------------------------------------------------------------------

# Finite floats with zeros of both signs among them, so that signed zeros count.
coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-50.0, 50.0))


def _numpy_reflection_stack(tag, u):
    out = np.eye(4)[np.newaxis].repeat(len(u), axis=0)
    if tag is HP:
        if not np.all(np.abs(u[:, 3]) >= EPS_MEMBERSHIP):
            raise DegeneratePlaneError("plane contains a fiber; no dual point")
        out[:, 3, 3] = -1.0
        out[:, 3, :3] = 2.0 * (u[:, :3] / -u[:, 3:]) + 0.0
        return out
    d = np.diagonal(tag.form_matrix)
    n = u * d
    q = form_eval(tag, n)
    if not np.all(q > EPS_MEMBERSHIP if tag is HYP else q < -EPS_MEMBERSHIP):
        raise NotSpacelikeError("reflections are implemented along spacelike planes only")
    n = n / np.sqrt(np.abs(q))[:, np.newaxis]
    q = form_eval(tag, n)
    u = n * d
    return out - ((2.0 / q)[:, np.newaxis, np.newaxis] * d[:, np.newaxis]) * (u[:, :, np.newaxis] * u[:, np.newaxis, :])


def _numpy_standard_rotation_angle(m, tag):
    off = np.ones((4, 4), dtype=bool)
    off[2:, 2:] = False
    block_defect = float(np.abs(m - np.eye(4))[off].max())
    if block_defect > EPS_ROTATION:
        raise NotRotationAboutAxisError(f"isometry moves the axis (defect {block_defect:.3e})")
    b = m[2:, 2:]
    if tag is HYP:
        angle = math.atan2(b[0, 1], b[0, 0])
        return -math.pi if angle == math.pi else angle
    if tag is ADS:
        angle = math.asinh(b[0, 1])
        if abs(b[0, 0] - math.cosh(angle)) > EPS_ROTATION or abs(b[1, 0] - b[0, 1]) > EPS_ROTATION:
            raise NotRotationAboutAxisError("transversal block is not an anti-de Sitter rotation")
        return angle
    if abs(b[0, 0] - 1.0) > EPS_ROTATION or abs(b[1, 1] - 1.0) > EPS_ROTATION or abs(b[0, 1]) > EPS_ROTATION:
        raise NotRotationAboutAxisError("transversal block is not a half-pipe rotation")
    return float(-b[1, 0])


def _outcome(f, *args):
    """What f returns (as bytes for arrays, as the hex of a float), or the type and message of what it raises."""
    try:
        value = f(*args)
    except (NotSpacelikeError, DegeneratePlaneError, NotRotationAboutAxisError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return [float(v).hex() for v in value] if isinstance(value, list) else float(value).hex()


@given(
    tag=st.sampled_from(TAGS),
    covectors=arrays(np.float64, st.tuples(st.integers(1, 5), st.just(4)), elements=coordinates),
    lift=st.sampled_from([100.0, 0.0]),
)
def test_reflection_stack_equals_its_numpy_form_bit_for_bit(tag, covectors, lift):
    if lift:
        # A large last coordinate makes every plane one that the model reflects in.
        covectors[:, 3] += lift
    assert _outcome(reflection_stack, tag, covectors) == _outcome(_numpy_reflection_stack, tag, covectors)


# A matrix near a rotation about the standard axis: the rotation by an angle,
# its transversal block and the rest perturbed by scaled unit noise.
near_rotations = st.tuples(
    st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]), st.floats(-3.5, 3.5)),
    st.sampled_from([0.0, 1e-9, 1e-3]),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    st.sampled_from([0.0, 1e-9, 1e-7]),
    st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
)


@given(tag=st.sampled_from(TAGS), draws=st.lists(near_rotations, min_size=1, max_size=4))
def test_rotation_read_out_of_a_stack_equals_its_numpy_form_matrix_by_matrix_bit_for_bit(tag, draws):
    off = np.ones((4, 4), dtype=bool)
    off[2:, 2:] = False
    stack = standard_rotations([tag] * len(draws), [angle for angle, *_ in draws])
    for m, (_, block_scale, block_noise, off_scale, off_noise) in zip(stack, draws):
        m[2:, 2:] += block_scale * np.reshape(block_noise, (2, 2))
        m[off] += off_scale * np.array(off_noise)
    expected = [_outcome(_numpy_standard_rotation_angle, m, tag) for m in stack]
    # Each matrix alone, as a stack of one.
    alone = [_outcome(standard_rotation_angles, m[np.newaxis], tag) for m in stack]
    assert alone == [e if isinstance(e, tuple) else [e] for e in expected]
    # The stack raises what its first refused matrix raises, else reads every angle.
    refused = [e for e in expected if isinstance(e, tuple)]
    assert _outcome(standard_rotation_angles, stack, tag) == (refused[0] if refused else expected)
