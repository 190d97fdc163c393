"""Projective models of the three constant-curvature target geometries.

Hyperbolic space (H3), anti-de Sitter space (AdS3) and half-pipe space (HP3)
are realized inside RP^3 as the projectivized negative cones of the quadratic
forms

    q_s(x) = -x0^2 + x1^2 + x2^2 + s * x3^2,      s = +1, -1, 0.

All three contain the hyperbolic plane H2 = {x3 = 0} as a totally geodesic
surface, which is what makes it possible to deform structures from one
geometry to another through the degenerate half-pipe model.  This module
provides the point/plane/geodesic value types shared by the rest of the
package, the affine (Klein) charts, the half-pipe duality with Minkowski
2+1 space, dihedral angles, and horoball membership.

Conventions
-----------
* Points are projective classes of 4-vectors; planes are stored as dual
  covectors ``u`` with incidence ``u . x = 0`` (plain dot product).
* The Minkowski plane R^{1,2} uses the bilinear form
  ``<u, v> = -u0 v0 + u1 v1 + u2 v2``.
* A half-pipe point [x0, x1, x2, x3] with -x0^2+x1^2+x2^2 < 0 is written in
  the Klein chart as ``(z, h)`` with z = (x1/x0, x2/x0) in the open unit disk
  and fiber coordinate h = x3/x0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Membership / projective-equality tolerance on normalized representatives.
EPS_MEMBERSHIP = 1e-10


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class ZeroVectorError(GeometryError):
    """A projective object was built from (numerically) the zero vector."""


class OutsideModelError(GeometryError):
    """A point is not interior to the model that the operation requires."""


class ChartError(GeometryError):
    """A point cannot be written in the requested affine chart (x0 ~ 0)."""


class TagMismatchError(GeometryError):
    """Two objects from different geometries were combined."""


class DegeneratePlaneError(GeometryError):
    """A half-pipe plane contains a fiber, so it has no dual Minkowski point."""


class NonIntersectingPlanesError(GeometryError):
    """Two planes do not meet along a geodesic of the required type."""


class NotSpacelikeError(GeometryError):
    """A plane (or plane pair) fails the required spacelike condition."""


class Geometry(Enum):
    """Tag selecting the quadratic form q_s; the value is the coefficient s."""

    HYPERBOLIC = 1
    ANTI_DE_SITTER = -1
    HALF_PIPE = 0

    @property
    def s(self) -> int:
        return self.value

    @property
    def form_matrix(self) -> np.ndarray:
        """diag(-1, 1, 1, s), one read-only array per geometry shared by every caller."""
        return _FORM_MATRICES[self]


HYP = Geometry.HYPERBOLIC
ADS = Geometry.ANTI_DE_SITTER
HP = Geometry.HALF_PIPE

_FORM_MATRICES = {tag: np.diag([-1.0, 1.0, 1.0, float(tag.value)]) for tag in Geometry}
for _form in _FORM_MATRICES.values():
    _form.flags.writeable = False

# The Minkowski form on R^{1,2} as a matrix.
J3 = np.diag([-1.0, 1.0, 1.0])


def minkowski_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray | float:
    """Bilinear form of signature (1,2) on 3-vectors; broadcasts."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return -u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def form_dot(tag: Geometry, x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    """Bilinear form of q_s on 4-vectors; broadcasts."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = -x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]
    if tag.s:
        out = out + tag.s * x[..., 3] * y[..., 3]
    return out


def form_eval(tag: Geometry, x: np.ndarray) -> np.ndarray | float:
    """q_s(x) for 4-vectors; broadcasts."""
    return form_dot(tag, x, x)


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < EPS_MEMBERSHIP:
        raise ZeroVectorError("cannot normalize a (numerically) zero vector")
    return v / n


def classify_point(tag: Geometry, vec: np.ndarray) -> str:
    """Classify a projective 4-vector as 'interior'/'boundary'/'exterior'.

    The sign of q_s is evaluated on the Euclidean-normalized representative so
    that the tolerance EPS_MEMBERSHIP is scale free.
    """
    q = float(form_eval(tag, _unit(np.asarray(vec, dtype=float))))
    if q < -EPS_MEMBERSHIP:
        return "interior"
    if q > EPS_MEMBERSHIP:
        return "exterior"
    return "boundary"


def projectively_equal(a: np.ndarray, b: np.ndarray, tol: float = EPS_MEMBERSHIP) -> bool:
    """Whether two 4-vectors span the same line.

    Tested on the antisymmetrized outer product (all 2x2 minors) of the
    Euclidean-normalized representatives, which vanishes exactly on
    proportional pairs.
    """
    a = _unit(np.asarray(a, dtype=float))
    b = _unit(np.asarray(b, dtype=float))
    wedge = np.outer(a, b)
    return bool(np.max(np.abs(wedge - wedge.T)) < tol)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of RP^3 together with the geometry it is tested against."""

    vec: np.ndarray
    geometry: Geometry

    def __post_init__(self) -> None:
        v = np.array(self.vec, dtype=float).reshape(4)
        if np.linalg.norm(v) < EPS_MEMBERSHIP:
            raise ZeroVectorError("projective point needs a nonzero representative")
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)

    def classify(self) -> str:
        return classify_point(self.geometry, self.vec)

    def is_interior(self) -> bool:
        return self.classify() == "interior"

    def unit_lift(self) -> np.ndarray:
        """Representative with q_s = -1, normalized into the x0 > 0 chart.

        Raises
        ------
        OutsideModelError
            If the point is not interior.
        ChartError
            If x0 ~ 0 (possible for interior anti-de Sitter points), so the
            point has no representative in the x0 > 0 chart near this line.
        """
        q = float(form_eval(self.geometry, self.vec))
        if q >= 0.0:
            raise OutsideModelError("unit lift requires an interior point")
        v = self.vec / math.sqrt(-q)
        if abs(v[0]) < EPS_MEMBERSHIP:
            raise ChartError("point lies outside the x0 > 0 chart")
        return v if v[0] > 0 else -v

    def affine_chart(self) -> np.ndarray:
        """(x1, x2, x3)/x0; raises ChartError when x0 ~ 0."""
        v = _unit(self.vec)
        if abs(v[0]) < EPS_MEMBERSHIP:
            raise ChartError("point lies outside the x0 != 0 chart")
        return v[1:] / v[0]

    def same_point_as(self, other: "ProjectivePoint", tol: float = EPS_MEMBERSHIP) -> bool:
        if self.geometry is not other.geometry:
            raise TagMismatchError("cannot compare points from different geometries")
        return projectively_equal(self.vec, other.vec, tol)


def _canonical_covector(u: np.ndarray) -> np.ndarray:
    """Unit-Euclidean covector whose last coordinate above noise is positive."""
    u = _unit(np.asarray(u, dtype=float).reshape(4))
    scale = np.max(np.abs(u))
    for i in (3, 2, 1, 0):
        if abs(u[i]) > EPS_MEMBERSHIP * scale:
            return u if u[i] > 0 else -u
    return u


@dataclass(frozen=True)
class Plane:
    """A projective plane, stored as a sign-canonical unit dual covector.

    The plane consists of the projective points ``[x]`` with
    ``covector . x = 0``.  In the hyperbolic and anti-de Sitter models the
    normal vector is ``J_s @ covector``; in the half-pipe model a plane that
    contains no fiber is the graph of an affine function of the disk
    coordinates and is dual to a point of Minkowski R^{1,2}.
    """

    covector: np.ndarray
    geometry: Geometry

    def __post_init__(self) -> None:
        u = _canonical_covector(self.covector)
        u.flags.writeable = False
        object.__setattr__(self, "covector", u)

    @classmethod
    def hp_plane_dual_to(cls, y: np.ndarray) -> "Plane":
        """The half-pipe plane {(z, h) : h = <y, (1, z)>} dual to y in R^{1,2}."""
        y = np.asarray(y, dtype=float).reshape(3)
        return cls(np.array([-y[0], y[1], y[2], -1.0]), HP)

    @classmethod
    def base_plane(cls, tag: Geometry) -> "Plane":
        """The copy of H2 given by {x3 = 0}."""
        return cls(np.array([0.0, 0.0, 0.0, 1.0]), tag)

    def normal(self) -> np.ndarray:
        """J_s @ covector (not normalized; zero x3-entry in the HP case)."""
        return self.geometry.form_matrix @ self.covector

    def unit_normal(self) -> np.ndarray:
        """Normal scaled to |q_s| = 1 (hyperbolic/anti-de Sitter only)."""
        if self.geometry is HP:
            raise TagMismatchError("half-pipe planes have no unit normal; use hp_dual_point")
        n = self.normal()
        q = float(form_eval(self.geometry, n))
        if abs(q) < EPS_MEMBERSHIP:
            raise DegeneratePlaneError("plane normal is null")
        return n / math.sqrt(abs(q))

    def is_spacelike(self) -> bool:
        """Whether the plane meets the model in a copy of H2.

        Hyperbolic planes need a spacelike normal (q > 0), anti-de Sitter
        spacelike planes have a timelike normal (q < 0), and a half-pipe plane
        is spacelike exactly when it contains no fiber, i.e. the last covector
        coordinate is nonzero.
        """
        if self.geometry is HP:
            return abs(self.covector[3]) > EPS_MEMBERSHIP
        q = float(form_eval(self.geometry, self.normal()))
        return q > EPS_MEMBERSHIP if self.geometry is HYP else q < -EPS_MEMBERSHIP

    def hp_dual_point(self) -> np.ndarray:
        """The Minkowski point y with this plane equal to {h = <y, (1, z)>}."""
        if self.geometry is not HP:
            raise TagMismatchError("dual Minkowski points only exist for half-pipe planes")
        u = self.covector
        if abs(u[3]) < EPS_MEMBERSHIP:
            raise DegeneratePlaneError("plane contains a fiber; no dual point")
        c = -u[3]
        return np.array([-u[0] / c, u[1] / c, u[2] / c])

    def hp_graph_height(self, z: np.ndarray) -> float:
        """Height of the plane over the disk point z (half-pipe, spacelike)."""
        y = self.hp_dual_point()
        z = np.asarray(z, dtype=float).reshape(2)
        return float(minkowski_dot(y, np.array([1.0, z[0], z[1]])))

    def contains_point(self, point: ProjectivePoint | np.ndarray, tol: float = EPS_MEMBERSHIP) -> bool:
        vec = point.vec if isinstance(point, ProjectivePoint) else np.asarray(point, dtype=float)
        return bool(abs(float(self.covector @ _unit(vec))) < tol)

    def same_plane_as(self, other: "Plane", tol: float = EPS_MEMBERSHIP) -> bool:
        if self.geometry is not other.geometry:
            raise TagMismatchError("cannot compare planes from different geometries")
        # Covectors are stored sign-canonically normalized, so compare directly.
        return bool(np.max(np.abs(self.covector - other.covector)) < tol)


def angle_between_planes(p: Plane, q: Plane) -> float:
    """Dihedral angle between two planes meeting along a spacelike geodesic.

    Hyperbolic: arccos |<n1, n2>| of the unit spacelike normals.
    Anti-de Sitter: arccosh |<n1, n2>| of the unit timelike normals.
    Half-pipe: sqrt <y1 - y2, y1 - y2> of the dual Minkowski points, defined
    when the difference is spacelike.

    Raises
    ------
    NonIntersectingPlanesError
        If the planes do not meet along a geodesic of the required type
        (hyperbolic/anti-de Sitter case).
    NotSpacelikeError
        If a plane is not spacelike, or the half-pipe duals differ by a
        non-spacelike vector.
    """
    if p.geometry is not q.geometry:
        raise TagMismatchError("angle needs two planes of the same geometry")
    if p.same_plane_as(q):
        return 0.0
    tag = p.geometry
    if tag is HP:
        d = p.hp_dual_point() - q.hp_dual_point()
        qd = float(minkowski_dot(d, d))
        if qd <= EPS_MEMBERSHIP:
            raise NotSpacelikeError("dual points differ by a non-spacelike vector")
        return math.sqrt(qd)
    if not (p.is_spacelike() and q.is_spacelike()):
        raise NotSpacelikeError("dihedral angles need spacelike planes")
    c = abs(float(form_dot(tag, p.unit_normal(), q.unit_normal())))
    if tag is HYP:
        if c >= 1.0 + EPS_MEMBERSHIP:
            raise NonIntersectingPlanesError("hyperbolic planes are disjoint or tangent")
        return math.acos(min(c, 1.0))
    if c <= 1.0 - EPS_MEMBERSHIP:
        raise NonIntersectingPlanesError("planes meet along a non-spacelike geodesic")
    return math.acosh(max(c, 1.0))


# ---------------------------------------------------------------------------
# Hyperboloid / Klein charts for H2 and the half-pipe fiber coordinate.
# ---------------------------------------------------------------------------


def disk_lift(z: np.ndarray) -> np.ndarray:
    """Hyperboloid lift (1, z)/sqrt(1-|z|^2) of a Klein disk point; broadcasts."""
    z = np.asarray(z, dtype=float)
    r2 = np.sum(z * z, axis=-1)
    if np.any(r2 >= 1.0):
        raise OutsideModelError("disk point must satisfy |z| < 1")
    w = np.concatenate((np.ones(z.shape[:-1] + (1,)), z), axis=-1)
    return w / np.sqrt(1.0 - r2)[..., None]


def radial_project(x: np.ndarray) -> np.ndarray:
    """Klein disk coordinates (x1/x0, x2/x0) of a hyperboloid point."""
    x = np.asarray(x, dtype=float)
    return x[..., 1:] / x[..., :1]


def embed_h2_vector(z: np.ndarray) -> np.ndarray:
    """4-vector (disk_lift(z), 0) of a disk point on the surface {x3 = 0}."""
    z = np.asarray(z, dtype=float)
    lift = disk_lift(z)
    return np.concatenate((lift, np.zeros(lift.shape[:-1] + (1,))), axis=-1)


def embed_h2_point(tag: Geometry, z: np.ndarray) -> ProjectivePoint:
    return ProjectivePoint(embed_h2_vector(z), tag)


def klein_hp(point: ProjectivePoint) -> tuple[np.ndarray, float]:
    """Klein coordinates (z, h) of an interior half-pipe point."""
    if point.geometry is not HP:
        raise TagMismatchError("klein_hp expects a half-pipe point")
    if not point.is_interior():
        raise OutsideModelError("klein_hp expects an interior point")
    v = point.vec / point.vec[0]
    return v[1:3].copy(), float(v[3])


def klein_hp_inverse(z: np.ndarray, h: float) -> ProjectivePoint:
    z = np.asarray(z, dtype=float).reshape(2)
    if float(z @ z) >= 1.0:
        raise OutsideModelError("disk coordinates must satisfy |z| < 1")
    return ProjectivePoint(np.array([1.0, z[0], z[1], float(h)]), HP)


def hp_height(point: ProjectivePoint) -> float:
    """Fiber length coordinate t / sqrt(-<x, x>) of a half-pipe point.

    Evaluated on the representative with x0 > 0; invariant under positive
    rescaling of the representative.
    """
    if point.geometry is not HP:
        raise TagMismatchError("hp_height expects a half-pipe point")
    v = point.vec if point.vec[0] > 0 else -point.vec
    if v[0] <= 0:
        raise ChartError("half-pipe height needs a representative with x0 > 0")
    x, t = v[:3], v[3]
    q = float(minkowski_dot(x, x))
    if q >= 0.0:
        raise OutsideModelError("half-pipe height needs an interior point")
    return float(t) / math.sqrt(-q)


# ---------------------------------------------------------------------------
# Half-pipe duality with Minkowski R^{1,2}.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinkowskiPlane:
    """The affine plane {y : <timelike_normal, y> = offset} of R^{1,2}.

    The normal is normalized to <n, n> = -1 with n0 > 0, which makes the
    (normal, offset) pair unique.
    """

    timelike_normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        n = np.array(self.timelike_normal, dtype=float).reshape(3)
        q = float(minkowski_dot(n, n))
        if q >= 0.0:
            raise NotSpacelikeError("a Minkowski plane here needs a timelike normal")
        scale = math.sqrt(-q)
        n, off = n / scale, float(self.offset) / scale
        if n[0] < 0:
            n, off = -n, -off
        n.flags.writeable = False
        object.__setattr__(self, "timelike_normal", n)
        object.__setattr__(self, "offset", off)

    def contains(self, y: np.ndarray) -> bool:
        value = float(minkowski_dot(self.timelike_normal, np.asarray(y, dtype=float)))
        return abs(value - self.offset) < EPS_MEMBERSHIP


def minkowski_plane_dual_to_hp_point(point: ProjectivePoint) -> MinkowskiPlane:
    """The spacelike affine plane of R^{1,2} dual to an interior HP point [x, t]."""
    if point.geometry is not HP:
        raise TagMismatchError("duality expects a half-pipe point")
    v = point.vec if point.vec[0] > 0 else -point.vec
    x, t = v[:3], float(v[3])
    if float(minkowski_dot(x, x)) >= 0.0:
        raise OutsideModelError("duality needs an interior point")
    return MinkowskiPlane(x, t)


def hp_point_dual_to_minkowski_plane(plane: MinkowskiPlane) -> ProjectivePoint:
    """Inverse of :func:`minkowski_plane_dual_to_hp_point`."""
    return ProjectivePoint(np.concatenate((plane.timelike_normal, [plane.offset])), HP)


# ---------------------------------------------------------------------------
# Oriented spacelike geodesics of H2 (in the hyperboloid model).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpacelikeGeodesicH2:
    """An oriented geodesic of H2, stored as its unit spacelike normal.

    The normal is the *left* normal of the travel direction: rotating the
    travel direction by +90 degrees in the Klein chart gives the normal.  The
    positive side {<normal, p> > 0} is the side the normal points into.
    Reversing the orientation negates the normal.
    """

    normal: np.ndarray

    def __post_init__(self) -> None:
        n = np.array(self.normal, dtype=float).reshape(3)
        q = float(minkowski_dot(n, n))
        if q <= EPS_MEMBERSHIP:
            raise NotSpacelikeError("geodesic normal must be spacelike")
        n = n / math.sqrt(q)
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)

    @classmethod
    def from_ideal_endpoints_klein(cls, start: np.ndarray, end: np.ndarray) -> "SpacelikeGeodesicH2":
        """Oriented geodesic running from one boundary-circle point to another."""
        a = np.concatenate(([1.0], np.asarray(start, dtype=float).reshape(2)))
        b = np.concatenate(([1.0], np.asarray(end, dtype=float).reshape(2)))
        return cls(J3 @ np.cross(a, b))

    def side_of(self, p: np.ndarray) -> float:
        """Signed pairing <normal, p> with a hyperboloid point (broadcasts)."""
        return minkowski_dot(self.normal, np.asarray(p, dtype=float))

    def side_of_disk_point(self, z: np.ndarray) -> float:
        return float(minkowski_dot(self.normal, disk_lift(z)))

    def closest_point_to_origin(self) -> np.ndarray:
        """The hyperboloid point of the geodesic closest to (1, 0, 0)."""
        n = self.normal
        p = np.array([1.0, 0.0, 0.0]) + n[0] * n
        return p / math.sqrt(1.0 + n[0] * n[0])

    def tangent_at(self, p: np.ndarray) -> np.ndarray:
        """Unit travel direction at a point p of the geodesic."""
        return J3 @ np.cross(self.normal, np.asarray(p, dtype=float))

    def ideal_endpoints_klein(self) -> tuple[np.ndarray, np.ndarray]:
        """Klein-disk endpoints (start, end) of the oriented geodesic."""
        p = self.closest_point_to_origin()
        v = self.tangent_at(p)
        n_minus, n_plus = p - v, p + v
        return n_minus[1:] / n_minus[0], n_plus[1:] / n_plus[0]

    def distance_to_point(self, p: np.ndarray) -> float:
        """Hyperbolic distance from a hyperboloid point to the geodesic."""
        return math.asinh(abs(float(self.side_of(p))))


# ---------------------------------------------------------------------------
# Horoballs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Horoball:
    """Sublevel region {<x, p> > level} at an ideal point p.

    The ideal point is rescaled so the reference basepoint (1,0,0,0) pairs to
    -1 (i.e. p0 = 1); the level must be negative.  Pairings at interior points
    increase toward 0 as the point goes deeper into the horoball.
    """

    ideal_point: np.ndarray
    level: float
    geometry: Geometry

    def __post_init__(self) -> None:
        p = np.array(self.ideal_point, dtype=float).reshape(4)
        if classify_point(self.geometry, p) != "boundary":
            raise OutsideModelError("horoball ideal point must be on the boundary quadric")
        if abs(p[0]) < EPS_MEMBERSHIP * np.max(np.abs(p)):
            raise ChartError("ideal point pairs to 0 with the reference basepoint")
        p = p / p[0]
        if not self.level < 0:
            raise GeometryError("horoball level must be negative")
        p.flags.writeable = False
        object.__setattr__(self, "ideal_point", p)

    def classify_point(self, point: ProjectivePoint) -> str:
        """'inside' / 'on_horosphere' / 'outside' for an interior point."""
        if point.geometry is not self.geometry:
            raise TagMismatchError("horoball and point live in different geometries")
        value = float(form_dot(self.geometry, point.unit_lift(), self.ideal_point))
        if abs(value - self.level) < EPS_MEMBERSHIP:
            return "on_horosphere"
        return "inside" if value > self.level else "outside"
