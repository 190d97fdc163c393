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
    GeometryError,
    NotSpacelikeError,
    Plane,
    ProjectivePoint,
    SpacelikeGeodesicH2,
    form_eval,
    klein_hp,
)
from halfpipe.isometry import (
    EPS_ROTATION,
    Isometry,
    NotRotationAboutAxisError,
    RotationOverflowError,
    adjoint_polar,
    adjoint_rows,
    adjugate,
    boost_from_origin,
    classify_isometry,
    embed_h2,
    embed_h2_isometry,
    group_residual,
    h2_rotation,
    model_matrix,
    reflection,
    reflection_stack,
    rescale_conjugate,
    rotation,
    rotation_pairs,
    sl2_to_so12,
    split_model_matrix,
    standard_rotation_angles,
)

STANDARD_AXIS = SpacelikeGeodesicH2(np.array([0.0, 0.0, 1.0]))
TAGS = (HYP, ADS, HP)
# Residual target for invariance checks on composed words.
EPS_GROUP = 1e-11
# Gate of the half-pipe semidirect-product checks, in units of the product of
# the largest entries of the factors that each checked identity multiplies:
# 128 unit roundoffs (the worst of 30,000 random draws was 26).
EPS_SEMIDIRECT = 128.0 * 2.0**-53
# The hyperbolic distance from the origin at which a boost's largest entry,
# cosh r, reaches 1e6.
FAR_BOOST = math.acosh(1e6)


def _standard_rotation(tag, angle):
    """The rotation about STANDARD_AXIS as a 4x4 block on (x2, x3), hyperbolic angles taken mod 2*pi."""
    out = np.eye(4)
    if tag is HYP:
        c, s = math.cos(math.remainder(angle, 2.0 * math.pi)), math.sin(math.remainder(angle, 2.0 * math.pi))
        out[2:, 2:] = [[c, s], [-s, c]]
    elif tag is ADS:
        c, s = math.cosh(angle), math.sinh(angle)
        out[2:, 2:] = [[c, s], [s, c]]
    else:
        out[3, 2] = -angle
    return out


def _axis_frames(axis):
    """The frame phi = block-diag(T, 1) carrying an oriented geodesic to STANDARD_AXIS, and phi^-1.

    T maps the geodesic's closest-to-origin point, travel direction and left
    normal onto (1,0,0), (0,1,0) and (0,0,1); phi^-1 = block-diag(F, 1) for
    the frame F of those vectors, and T = J3 F^T J3.
    """
    p = axis.closest_point_to_origin()
    frame = np.column_stack((p, axis.tangent_at(p), axis.normal))
    return embed_h2(J3 @ frame.T @ J3), embed_h2(frame)


def _hp(a, v):
    """The half-pipe isometry [[A, 0], [(J3 v)^T A, 1]] of the affine map y -> A y + v of Minkowski space."""
    out = np.eye(4)
    out[:3, :3] = a
    out[3, :3] = (J3 @ v) @ a
    return Isometry(out, HP)


def _translation(m):
    """The translation v = A J3 w of the half-pipe matrix m = [[A, 0], [w, 1]]."""
    return m[:3, :3] @ (J3 @ m[3, :3])


def _h2_linear(r, theta, phi):
    """The SO0(1,2) matrix of a rotation by phi about the origin, then the boost by r in the direction theta."""
    u = np.array([math.cosh(r), math.sinh(r) * math.cos(theta), math.sinh(r) * math.sin(theta)])
    return boost_from_origin(u) @ h2_rotation(phi)


def _largest(*matrices):
    """The product of the largest absolute entries of the matrices."""
    return math.prod(float(np.max(np.abs(m))) for m in matrices)


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
        return _hp(_random_h2_linear(rng), rng.normal(size=3))
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
    g = rotation(ADS, STANDARD_AXIS, 0.4).matrix
    c, s = math.cosh(0.4), math.sinh(0.4)
    assert np.allclose(g[2:, 2:], [[c, s], [s, c]], atol=1e-15)
    assert np.allclose(g[:2, :2], np.eye(2), atol=1e-15)
    with pytest.raises(RotationOverflowError, match="1000.0"):
        rotation(ADS, STANDARD_AXIS, 1000.0)
    # Refused at exactly the angles whose cosh overflows: the largest finite one is kept, finite.
    low, high = 700.0, 720.0
    while math.nextafter(low, high) < high:
        middle = (low + high) / 2.0
        middle = middle if low < middle < high else math.nextafter(low, high)
        try:
            math.cosh(middle)
            low = middle
        except OverflowError:
            high = middle
    for angle in (low, -low):
        assert np.isfinite(rotation(ADS, STANDARD_AXIS, angle).matrix).all()
    for angle in (high, -high):
        with pytest.raises(RotationOverflowError):
            rotation(ADS, STANDARD_AXIS, angle)


def test_axis_frames_carry_the_axis_to_the_standard_axis():
    rng = np.random.default_rng(7)
    for _ in range(20):
        axis = _random_axis(rng)
        phi, phi_inverse = _axis_frames(axis)
        a = phi[:3, :3]
        assert np.allclose(a.T @ J3 @ a, J3, atol=1e-12)
        assert np.linalg.det(a) > 0
        assert np.allclose(a @ axis.normal, [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(a @ axis.closest_point_to_origin(), [1.0, 0.0, 0.0], atol=1e-12)
        for frame in (phi, phi_inverse):
            assert np.array_equal(frame[3], [0.0, 0.0, 0.0, 1.0]) and np.array_equal(frame[:3, 3], [0.0, 0.0, 0.0])
        assert np.allclose(phi_inverse @ phi, np.eye(4), atol=1e-12)
    for frame in _axis_frames(STANDARD_AXIS):
        assert np.allclose(frame, np.eye(4), atol=1e-15)


def _random_sl2(rng):
    a = rng.normal(size=(2, 2))
    det = float(np.linalg.det(a))
    return (a if det > 0 else a[:, ::-1]) / math.sqrt(abs(det))


def _random_rmu(rng, tag, lam):
    """A real SL(2) matrix times a rotation about a random axis, as the pair (a, b) of a + mu b, and mu^2."""
    (a,), (b,), (mu2,) = rotation_pairs(((tag, rng.uniform(-1.5, 1.5), lam),), _random_axis(rng).normal)
    g = _random_sl2(rng)
    return g @ a, g @ b, mu2


@given(
    stack=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 4), st.just(2), st.just(2)), elements=st.floats(-1e150, 1e150))
)
def test_stacked_adjoint_images_equal_each_matrix_alone_bit_for_bit(stack):
    # Any entries, determinant one or not: the map is elementwise arithmetic on them.
    found = sl2_to_so12(stack)
    assert found.shape == stack.shape[:-2] + (3, 3)
    for index in np.ndindex(*stack.shape[:-2]):
        (a, b), (c, d) = stack[index].tolist()
        alone = sl2_to_so12(stack[index])
        assert found[index].tobytes() == alone.tobytes() == np.array(adjoint_rows(a, b, c, d)).tobytes()


def test_split_model_matrix_is_the_model_matrix_of_its_factors():
    rng = np.random.default_rng(44)
    basis = [np.array(e) for e in ([[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]])]
    for _ in range(20):
        g, h = _random_sl2(rng), _random_sl2(rng)
        # The polar form is the symmetrised g E_j adj(h) in the coordinates of sl2_to_so12, and its diagonal the adjoint.
        columns = [(g @ e @ adjugate(h) + h @ e @ adjugate(g)) / 2.0 for e in basis]
        expected = np.array([[(c[1, 0] - c[0, 1]) / 2.0, c[0, 0], (c[1, 0] + c[0, 1]) / 2.0] for c in columns]).T
        assert np.allclose(adjoint_polar(g.ravel(), h.ravel()), expected, rtol=0.0, atol=1e-13)
        assert np.allclose(adjoint_polar(g.ravel(), g.ravel()), sl2_to_so12(g), rtol=0.0, atol=1e-13)
        mu2 = np.array([rng.uniform(0.01, 100.0)])
        m = math.sqrt(mu2[0])
        found = split_model_matrix(g[np.newaxis], h[np.newaxis], mu2)
        expected = model_matrix(((g + h) / 2.0)[np.newaxis], ((g - h) / (2.0 * m))[np.newaxis], mu2)
        assert np.max(np.abs(found - expected)) <= 1e-12 * np.max(np.abs(expected))
        # At mu^2 = 1 the matrix is an anti-de Sitter isometry.
        assert group_residual(split_model_matrix(g[np.newaxis], h[np.newaxis], np.ones(1))[0], ADS) < 1e-12


def test_model_matrix_of_a_real_matrix_is_its_adjoint_image():
    rng = np.random.default_rng(43)
    for mu2 in (-1.0, 1.0, 0.0, -1e-4):
        for _ in range(5):
            a = _random_sl2(rng)
            assert np.array_equal(model_matrix(a, np.zeros((2, 2)), mu2), embed_h2(sl2_to_so12(a)))
    assert np.array_equal(adjugate(np.array([[2.0, 3.0], [5.0, 7.0]])), [[7.0, -3.0], [-5.0, 2.0]])


@pytest.mark.parametrize("tag, lam", ((HYP, 1.0), (ADS, 1.0), (HP, 1.0), (HYP, 0.1), (ADS, 0.1)))
def test_model_matrix_is_a_homomorphism_into_the_group_of_its_form(tag, lam):
    # (a + mu b)(c + mu d) = (ac + mu^2 bd) + mu (ad + bc), and a + mu b preserves
    # det(P + mu x3 J) = x0^2 - x1^2 - x2^2 + mu^2 x3^2.
    rng = np.random.default_rng(47)
    for _ in range(10):
        (a, b, mu2), (c, d, _) = _random_rmu(rng, tag, lam), _random_rmu(rng, tag, lam)
        form = np.diag([-1.0, 1.0, 1.0, -mu2])
        m, n = model_matrix(a, b, mu2), model_matrix(c, d, mu2)
        product = model_matrix(a @ c + mu2 * (b @ d), a @ d + b @ c, mu2)
        assert np.max(np.abs(product - m @ n)) <= 1e-13 * np.max(np.abs(product))
        if mu2:
            assert np.max(np.abs(m.T @ form @ m - form)) <= 1e-13 * np.max(np.abs(m)) ** 2
        else:
            assert group_residual(m, HP) <= 1e-13 * np.max(np.abs(m)) ** 2
        # Rescaling the fiber by 1/lam is dividing b by lam and multiplying mu^2 by lam^2.
        for scale in (0.5, 1e-3):
            rescaled = model_matrix(a, b / scale, mu2 * scale * scale)
            assert np.max(np.abs(rescaled - rescale_conjugate(scale, m))) <= 1e-13 * np.max(np.abs(rescaled))


def test_rotation_fixes_axis_pointwise():
    rng = np.random.default_rng(11)
    for tag in TAGS:
        axis = _random_axis(rng)
        g = rotation(tag, axis, 0.83)
        p = axis.closest_point_to_origin()
        for point in (p, p + 0.5 * axis.tangent_at(p)):
            vec = np.concatenate((point, [0.0]))
            assert np.allclose(g.matrix @ vec, vec, atol=1e-12)


def test_rotation_is_the_frame_rotation_to_rounding():
    # The standard rotation carried to the axis by its frame, for angles at and past pi.
    angles = (math.pi, -math.pi, 0.0, 0.4, -2.5, 7.0, 30.0)
    rng = np.random.default_rng(17)
    for _ in range(20):
        axis = _random_axis(rng)
        frame, _ = _axis_frames(axis)
        for tag in TAGS:
            phi = Isometry(frame, tag)
            for angle in angles:
                expected = (phi.inverse() @ Isometry(_standard_rotation(tag, angle), tag) @ phi).matrix
                found = rotation(tag, axis, angle).matrix
                assert np.max(np.abs(found - expected)) <= 1e-13 * np.max(np.abs(expected)), (tag, angle)


def test_rotation_angle_roundtrip():
    rng = np.random.default_rng(13)
    for tag in TAGS:
        for _ in range(10):
            axis = _random_axis(rng)
            angle = rng.uniform(-1.4, 1.4)
            g = rotation(tag, axis, angle)
            phi, phi_inverse = _axis_frames(axis)
            pulled_back = (phi @ g.matrix @ phi_inverse)[np.newaxis]
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
    target = rotation(HP, STANDARD_AXIS, theta).matrix
    for t in (1e-3, 1e-4):
        hyp = rescale_conjugate(t, rotation(HYP, STANDARD_AXIS, t * theta))
        ads = rescale_conjugate(-t, rotation(ADS, STANDARD_AXIS, -t * theta))
        assert np.max(np.abs(hyp - target)) < theta * t
        assert np.max(np.abs(ads - target)) < theta * t


h2_linears = st.builds(
    _h2_linear, st.floats(0.0, FAR_BOOST), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)
)
translations = arrays(float, 3, elements=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.just(0.0))


@given(a1=h2_linears, v1=translations, a2=h2_linears, v2=translations)
def test_minkowski_semidirect_product_matches_matrices(a1, v1, a2, v2):
    # Half-pipe matrices compose and invert as the affine maps y -> A y + v:
    # (A1, v1)(A2, v2) = (A1 A2, v1 + A1 v2) and (A, v)^-1 = (A^-1, -A^-1 v).
    # Linear parts reach entries of 1e6, where A^T J3 A = J3 holds in floats
    # only to about 1e-4; each identity below uses it, so each gate is relative
    # to the largest entries of the factors that the identity multiplies.
    g1, g2 = _hp(a1, v1), _hp(a2, v2)
    lhs = _hp(a1 @ a2, v1 + a1 @ v2).matrix
    rhs = (g1 @ g2).matrix
    assert np.max(np.abs(lhs - rhs)) <= EPS_SEMIDIRECT * _largest(a1, a1, a2, [1.0, *v1, *v2])
    assert np.array_equal(g1.matrix[:3, :3], a1)
    assert np.max(np.abs(_translation(g1.matrix) - v1)) <= EPS_SEMIDIRECT * _largest(a1, a1, v1)
    inv = g1.inverse().matrix
    a_inv = J3 @ a1.T @ J3
    assert np.max(np.abs(inv[:3, :3] @ a1 - np.eye(3))) <= EPS_SEMIDIRECT * _largest(a1, a1)
    assert np.max(np.abs(_translation(inv) + a_inv @ v1)) <= EPS_SEMIDIRECT * _largest(a1, a1, a1, v1)


def test_vertical_translation_in_klein_chart():
    g = _hp(np.eye(3), np.array([1.0, 0.0, 0.0]))
    z, h = klein_hp(g.apply(_hp_point(np.zeros(2), 0.0)))
    assert np.allclose(z, 0.0)
    assert h == pytest.approx(-1.0)


def test_hp_rotation_is_spacelike_minkowski_translation():
    rng = np.random.default_rng(47)
    for _ in range(8):
        axis = _random_axis(rng)
        theta = rng.uniform(-1.2, 1.2)
        g = rotation(HP, axis, theta)
        expected = _hp(np.eye(3), -theta * axis.normal)
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
    assert classify_isometry(_hp(_so12_parabolic(0.5), np.zeros(3))) == "parabolic"
    hyp_linear = boost_from_origin(np.array([math.cosh(1.0), 0.0, math.sinh(1.0)]))
    assert classify_isometry(_hp(hyp_linear, np.zeros(3))) == "hyperbolic"
    null_translation = _hp(np.eye(3), np.array([1.0, 1.0, 0.0]))
    assert classify_isometry(null_translation) == "parabolic"
    timelike_translation = _hp(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert classify_isometry(timelike_translation) == "other"
    assert classify_isometry(Isometry(np.eye(4), HP)) == "other"


def test_classify_reads_the_translation_of_a_half_pipe_element_off_the_group():
    # The linear part is within EPS_PARABOLIC of Id but 8e-8 off O(1,2); its
    # translation A J3 w = (5e-8, 1 + 4e-8, 0) is spacelike, a rotation.
    m = np.eye(4)
    m[0, 1] = m[1, 0] = 5e-8
    m[1, 1] = 1.0 + 4e-8
    m[3, :3] = (0.0, 1.0, 0.0)
    assert group_residual(m, HP) > 1e-8
    assert classify_isometry(Isometry(m, HP)) == "elliptic"


def test_boost_round_trip():
    rng = np.random.default_rng(71)
    for _ in range(10):
        u = np.concatenate(([0.0], rng.normal(size=2)))
        u[0] = math.sqrt(1.0 + u[1] ** 2 + u[2] ** 2)
        boost = boost_from_origin(u)
        inverse = J3 @ boost.T @ J3
        assert np.allclose(inverse @ u, [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(boost @ np.array([1.0, 0.0, 0.0]), u, atol=1e-12)
        assert np.allclose(boost @ inverse, np.eye(3), atol=1e-12)


def _boost_by_inverting_signs(u):
    """boost_from_origin as it was once formed: the boost taking u to (1,0,0), with row 0 and column 0 negated."""
    u = np.asarray(u, dtype=float).reshape(3)
    b = -u[1:]
    out = np.eye(3)
    out[0, 0] = u[0]
    out[0, 1:] = b
    out[1:, 0] = b
    out[1:, 1:] += np.outer(b, b) / (1.0 + u[0])
    out[0, 1:] *= -1.0
    out[1:, 0] *= -1.0
    return out


@given(u1=st.floats(-1e3, 1e3), u2=st.floats(-1e3, 1e3))
def test_boost_from_origin_equals_the_sign_flipped_inverse_boost_bit_for_bit(u1, u2):
    for v1, v2 in ((u1, u2), (0.0, -0.0), (-0.0, u2)):
        u = np.array([math.sqrt(1.0 + v1 * v1 + v2 * v2), v1, v2])
        assert boost_from_origin(u).tobytes() == _boost_by_inverting_signs(u).tobytes()


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_rotation_refuses_an_angle_that_is_not_finite(tag, angle):
    with pytest.raises(GeometryError, match="not finite"):
        rotation(tag, STANDARD_AXIS, angle)


def test_group_residual_flags_wrong_tag():
    g = rotation(HYP, STANDARD_AXIS, 0.3).matrix
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
    stack = model_matrix(*rotation_pairs([(tag, angle, 1.0) for angle, *_ in draws], STANDARD_AXIS.normal))
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
