from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from halfpipe.geometry import (
    ADS,
    HP,
    HYP,
    J3,
    DegeneratePlaneError,
    OutsideModelError,
    Plane,
    ProjectivePoint,
    SpacelikeGeodesicH2,
    TagMismatchError,
    ZeroVectorError,
    classify_point,
    disk_lift,
    embed_h2_vector,
    form_eval,
    klein_hp,
    minkowski_dot,
    radial_project,
    _unit,
    _unit_rows,
)
from halfpipe.isometry import Isometry, reflection, standard_rotation_angles

ALL_TAGS = [HYP, ADS, HP]


def test_form_eval_signature():
    e0, e3 = np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0, 1])
    assert form_eval(HYP, e0) == -1.0
    assert form_eval(HYP, e3) == 1.0
    assert form_eval(ADS, e3) == -1.0
    assert form_eval(HP, e3) == 0.0
    assert form_eval(HP, np.array([1.0, 1.0, 0, 5.0])) == 0.0


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_classify_point(tag):
    assert classify_point(tag, [1, 0.2, 0.1, 0]) == "interior"
    assert classify_point(tag, [1, 1, 0, 0]) == "boundary"
    assert classify_point(tag, [1, 2, 0, 0]) == "exterior"
    with pytest.raises(ZeroVectorError):
        classify_point(tag, [0, 0, 0, 0])


def test_hp_interior_ignores_fiber_coordinate():
    assert classify_point(HP, [1, 0, 0, 100.0]) == "interior"
    assert classify_point(ADS, [1, 0, 0, 100.0]) == "interior"


def test_klein_chart_example_and_roundtrip():
    z, h = klein_hp(ProjectivePoint([2.0, 0.0, 0.0, 1.0], HP))
    assert np.allclose(z, [0.0, 0.0])
    assert h == pytest.approx(0.5)

    rng = np.random.default_rng(3)
    for _ in range(25):
        z = rng.uniform(-0.6, 0.6, size=2)
        h = rng.normal()
        z2, h2 = klein_hp(ProjectivePoint([1.0, z[0], z[1], h], HP))
        assert np.allclose(z2, z, atol=1e-14)
        assert h2 == pytest.approx(h, abs=1e-14)


def test_duality_roundtrips():
    # The covector of the plane dual to y is proportional to (-y0, y1, y2, -1).
    y = np.array([0.4, -0.1, 0.25])
    u = Plane.hp_plane_dual_to(y).covector
    assert np.allclose(np.array([-u[0], u[1], u[2]]) / -u[3], y, atol=1e-14)


def test_hp_plane_is_graph_of_affine_height():
    y = np.array([0.0, 1.0, 0.0])
    plane = Plane.hp_plane_dual_to(y)
    u = plane.covector
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = rng.uniform(-0.6, 0.6, size=2)
        # the height h with u . (1, z, h) = 0
        h = -(u[0] + u[1] * z[0] + u[2] * z[1]) / u[3]
        assert h == pytest.approx(z[0])
        # Incidence u . x = 0 on the unit representatives x.
        on, off = np.array([1.0, z[0], z[1], h]), np.array([1.0, z[0], z[1], h + 0.1])
        assert abs(u @ on) / np.linalg.norm(on) < 1e-10
        assert not abs(u @ off) / np.linalg.norm(off) < 1e-10


def _reflection_product_angle(p, q):
    # Two planes through the standard axis {x2 = x3 = 0} at dihedral angle
    # theta: the product of their reflections rotates about the axis by 2 theta
    # (hyperbolic) or -2 theta (anti-de Sitter and half-pipe), as the
    # meridian cone angles of a double read it.
    return standard_rotation_angles((reflection(q) @ reflection(p)).matrix[np.newaxis], p.geometry)[0]


def test_hp_angle_example():
    p = Plane.hp_plane_dual_to([0.0, 0.0, 0.0])
    q = Plane.hp_plane_dual_to([0.0, 0.0, 1.0])
    assert _reflection_product_angle(p, q) == pytest.approx(-2.0, abs=1e-12)
    assert _reflection_product_angle(p, p) == 0.0


@pytest.mark.parametrize("theta", [0.1, math.pi / 6, 1.2])
def test_hyperbolic_dihedral_angle(theta):
    base = Plane.base_plane(HYP)
    tilted = Plane(np.array([0.0, 0.0, math.sin(theta), math.cos(theta)]), HYP)
    assert _reflection_product_angle(base, tilted) == pytest.approx(2.0 * theta, abs=1e-12)


@pytest.mark.parametrize("theta", [0.1, 0.75, 2.0])
def test_ads_dihedral_angle(theta):
    # {x3 = 0} against {x3 = -tanh(theta) x2}: timelike unit normals pair to
    # cosh(theta), so the angle comes out theta.
    base = Plane.base_plane(ADS)
    tilted = Plane(np.array([0.0, 0.0, math.sinh(theta), math.cosh(theta)]), ADS)
    assert _reflection_product_angle(base, tilted) == pytest.approx(-2.0 * theta, abs=1e-12)


def test_plane_covector_sign_canonicalization():
    p = Plane(np.array([0.0, 0.0, 0.0, -2.0]), HP)
    assert p.covector[3] == pytest.approx(1.0)
    assert np.max(np.abs(p.covector - Plane.base_plane(HP).covector)) < 1e-10


def test_degenerate_hp_plane_has_no_dual():
    # A plane containing a fiber is no graph over the disk: no dual point, so
    # no reflection.
    vertical = Plane(np.array([0.0, 1.0, 0.0, 0.0]), HP)
    with pytest.raises(DegeneratePlaneError):
        reflection(vertical)


def test_disk_lift_and_projection_roundtrip():
    rng = np.random.default_rng(5)
    z = rng.uniform(-0.5, 0.5, size=(30, 2))
    lifts = disk_lift(z)
    assert np.allclose(minkowski_dot(lifts, lifts), -1.0, atol=1e-12)
    assert np.allclose(radial_project(lifts), z, atol=1e-12)
    with pytest.raises(OutsideModelError):
        disk_lift([1.0, 0.2])


def test_embed_h2_vector_lies_on_every_quadric():
    v = embed_h2_vector([0.3, -0.4])
    for tag in ALL_TAGS:
        assert form_eval(tag, v) == pytest.approx(-1.0, abs=1e-12)


def test_geodesic_orientation_conventions():
    axis = SpacelikeGeodesicH2([0.0, 0.0, 1.0])
    start, end = axis.ideal_endpoints_klein()
    assert np.allclose(start, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(end, [1.0, 0.0], atol=1e-12)
    # Rebuilding from the endpoints reproduces the normal, and reversing the
    # endpoints reverses it.
    assert np.allclose(SpacelikeGeodesicH2.from_ideal_endpoints_klein(start, end).normal, axis.normal)
    assert np.allclose(SpacelikeGeodesicH2.from_ideal_endpoints_klein(end, start).normal, -axis.normal)
    # The left normal of eastward travel points north.
    assert minkowski_dot(axis.normal, disk_lift([0.0, 0.5])) > 0
    assert minkowski_dot(axis.normal, disk_lift([0.0, -0.5])) < 0


def test_geodesic_tangent_is_unit_and_orthogonal():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = rng.normal(size=3)
        n[0] = 0.3 * n[0]  # keep spacelike likely
        if minkowski_dot(n, n) <= 0.01:
            continue
        geo = SpacelikeGeodesicH2(n)
        p = geo.closest_point_to_origin()
        v = geo.tangent_at(p)
        assert minkowski_dot(p, p) == pytest.approx(-1.0, abs=1e-12)
        assert minkowski_dot(v, v) == pytest.approx(1.0, abs=1e-10)
        assert minkowski_dot(v, p) == pytest.approx(0.0, abs=1e-10)
        assert minkowski_dot(v, geo.normal) == pytest.approx(0.0, abs=1e-10)


def test_tag_mismatch_is_loud():
    p = ProjectivePoint([1.0, 0, 0, 0], HYP)
    q = ProjectivePoint([1.0, 0, 0, 0], ADS)
    g = Isometry(np.eye(4), HYP)
    with pytest.raises(TagMismatchError):
        g.apply(q)
    with pytest.raises(TagMismatchError):
        g.apply_plane(Plane.base_plane(ADS))
    with pytest.raises(TagMismatchError):
        g @ Isometry(np.eye(4), ADS)
    assert g.apply(p).geometry is HYP


# Finite floats with zeros of both signs among them, so that signed zeros count.
coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-50.0, 50.0))


def _numpy_disk_lift(z):
    r2 = np.sum(z * z, axis=-1)
    w = np.concatenate((np.ones(z.shape[:-1] + (1,)), z), axis=-1)
    return w / np.sqrt(1.0 - r2)[..., None]


def _numpy_unit(v):
    return v / float(np.linalg.norm(v))


@given(normal=st.tuples(coordinates, coordinates, coordinates), p=st.tuples(coordinates, coordinates, coordinates))
def test_tangent_equals_j3_times_the_cross_product_bit_for_bit(normal, p):
    n = np.array(normal)
    assume(-n[0] * n[0] + n[1] * n[1] + n[2] * n[2] > 1e-9)
    geodesic = SpacelikeGeodesicH2(n)
    assert geodesic.tangent_at(np.array(p)).tobytes() == (J3 @ np.cross(geodesic.normal, np.array(p))).tobytes()


@given(z=st.tuples(st.sampled_from([0.0, -0.0, 0.5, -0.5]), st.floats(-0.99, 0.99)).map(np.array))
def test_one_point_lift_equals_the_stacked_form_bit_for_bit(z):
    assume(float(z @ z) < 1.0)
    assert disk_lift(z).tobytes() == _numpy_disk_lift(z).tobytes()
    assert disk_lift(z).tobytes() == disk_lift(z[np.newaxis])[0].tobytes()
    assert disk_lift(np.stack([z, z[::-1]])).tobytes() == _numpy_disk_lift(np.stack([z, z[::-1]])).tobytes()


@given(rows=arrays(np.float64, st.tuples(st.integers(1, 5), st.just(4)), elements=coordinates))
def test_unit_rows_equal_each_row_normalised_alone_bit_for_bit(rows):
    assume(all(np.linalg.norm(row) >= 1e-10 for row in rows))
    expected = np.array([_numpy_unit(row) for row in rows])
    assert _unit_rows(rows).tobytes() == expected.tobytes()
    assert np.array([_unit(row) for row in rows]).tobytes() == expected.tobytes()
    stack = np.stack([np.eye(4)] * len(rows))
    stack[:, 3] = rows
    assert _unit_rows(stack[:, 3]).tobytes() == expected.tobytes()


def test_unit_rows_refuse_a_zero_row():
    with pytest.raises(ZeroVectorError):
        _unit_rows(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
