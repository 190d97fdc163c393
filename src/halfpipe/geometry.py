"""Projective models of the three constant-curvature target geometries.

Hyperbolic space (H3), anti-de Sitter space (AdS3) and half-pipe space (HP3)
are realized inside RP^3 as the projectivized negative cones of the quadratic
forms

    q_s(x) = -x0^2 + x1^2 + x2^2 + s * x3^2,      s = +1, -1, 0.

All three contain the hyperbolic plane H2 = {x3 = 0} as a totally geodesic
surface, which is what makes it possible to deform structures from one
geometry to another through the degenerate half-pipe model.  This module
provides the point/plane/geodesic value types shared by the rest of the
package and the affine (Klein) charts.

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

# Membership tolerance on normalized representatives.
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


class NotSpacelikeError(GeometryError):
    """A plane or geodesic normal fails the required spacelike condition."""


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


def form_eval(tag: Geometry, x: np.ndarray) -> np.ndarray | float:
    """q_s(x) for 4-vectors; broadcasts."""
    x = np.asarray(x, dtype=float)
    out = -x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1] + x[..., 2] * x[..., 2]
    if tag.s:
        out = out + tag.s * x[..., 3] * x[..., 3]
    return out


def _unit(v: np.ndarray) -> np.ndarray:
    """A vector divided by its Euclidean norm, the square root of v @ v as np.linalg.norm takes it."""
    n = math.sqrt(float(v @ v))
    if n < EPS_MEMBERSHIP:
        raise ZeroVectorError("cannot normalize a (numerically) zero vector")
    return v / n


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of a (k, n) array as :func:`_unit` makes it, with one division for the stack."""
    norms = [math.sqrt(float(row @ row)) for row in v]
    if any(n < EPS_MEMBERSHIP for n in norms):
        raise ZeroVectorError("cannot normalize a (numerically) zero vector")
    return v / np.array(norms)[:, np.newaxis]


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


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of RP^3 together with the geometry it is tested against."""

    vec: np.ndarray
    geometry: Geometry

    def __post_init__(self) -> None:
        v = np.array(self.vec, dtype=float).reshape(4)
        # In Python floats, which overflow to inf without a warning (as a long curve's developed points do).
        square = sum(c * c for c in v.tolist())
        if not square < math.inf:
            raise GeometryError(f"projective point {v.tolist()} is not finite, or its squared norm overflows")
        if math.sqrt(square) < EPS_MEMBERSHIP:
            raise ZeroVectorError("projective point needs a nonzero representative")
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)

    def classify(self) -> str:
        return classify_point(self.geometry, self.vec)

    def is_interior(self) -> bool:
        return self.classify() == "interior"

    def affine_chart(self) -> np.ndarray:
        """(x1, x2, x3)/x0; raises ChartError when x0 ~ 0."""
        v = _unit(self.vec)
        if abs(v[0]) < EPS_MEMBERSHIP:
            raise ChartError("point lies outside the x0 != 0 chart")
        return v[1:] / v[0]


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


# ---------------------------------------------------------------------------
# Hyperboloid / Klein charts for H2 and the half-pipe fiber coordinate.
# ---------------------------------------------------------------------------


class DiskPoint(tuple):
    """(z1, z2, sqrt(1 - |z|^2)) of a Klein disk point, made only by :func:`disk_point`; it is not checked again."""


def disk_point(z, name: str | None = None) -> DiskPoint:
    """The DiskPoint (z1, z2, sqrt(1 - |z|^2)) of a Klein disk point, any two numbers of shape (2,), in Python floats.

    |z|^2 is the float sum z1 * z1 + z2 * z2.  Raises OutsideModelError,
    naming the point (or ``name``) and |z|^2, for |z| >= 1 or a NaN coordinate.
    """
    z1, z2 = np.asarray(z, dtype=float).reshape(2).tolist()
    r2 = z1 * z1 + z2 * z2
    if not r2 < 1.0:  # written so that NaN fails too
        raise OutsideModelError(f"disk point must satisfy |z| < 1: {name or [z1, z2]} has |z|^2 = {r2!r}")
    return DiskPoint((z1, z2, math.sqrt(1.0 - r2)))


def as_disk_point(z) -> DiskPoint:
    """z if it is a DiskPoint, else disk_point(z): a public function takes a point as either and checks it once."""
    return z if isinstance(z, DiskPoint) else disk_point(z)


def disk_lift(z: np.ndarray) -> np.ndarray:
    """Hyperboloid lift (1, z)/sqrt(1-|z|^2) of a Klein disk point; broadcasts."""
    z = np.asarray(z, dtype=float)
    if z.shape == (2,):
        # One point, in floats: the same sum and quotients as the stacked form.
        z1, z2, root = disk_point(z)
        return np.array((1.0 / root, z1 / root, z2 / root))
    r2 = np.sum(z * z, axis=-1)
    if not np.all(r2 < 1.0):  # written so that NaN fails too
        raise OutsideModelError("disk point must satisfy |z| < 1")
    w = np.concatenate((np.ones(z.shape[:-1] + (1,)), z), axis=-1)
    return w / np.sqrt(1.0 - r2)[..., None]


def embed_h2_vector(z) -> np.ndarray:
    """The 4-vector (1, z1, z2, 0) / sqrt(1 - |z|^2) on {x3 = 0} of a disk point z, two numbers or a DiskPoint."""
    z1, z2, root = as_disk_point(z)
    return np.array((1.0 / root, z1 / root, z2 / root, 0.0))


def klein_hp(point: ProjectivePoint) -> tuple[np.ndarray, float]:
    """Klein coordinates (z, h) of an interior half-pipe point."""
    if point.geometry is not HP:
        raise TagMismatchError("klein_hp expects a half-pipe point")
    if not point.is_interior():
        raise OutsideModelError("klein_hp expects an interior point")
    v = point.vec / point.vec[0]
    return v[1:3].copy(), float(v[3])


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

    def closest_point_to_origin(self) -> np.ndarray:
        """The hyperboloid point of the geodesic closest to (1, 0, 0)."""
        n = self.normal
        p = np.array([1.0, 0.0, 0.0]) + n[0] * n
        return p / math.sqrt(1.0 + n[0] * n[0])

    def tangent_at(self, p: np.ndarray) -> np.ndarray:
        """Unit travel direction at a point p of the geodesic."""
        # J3 (normal x p), written out: np.cross's products and differences,
        # and J3's row sums, which add 0.0 and so write -0.0 as +0.0.
        (n0, n1, n2), (p0, p1, p2) = self.normal.tolist(), np.asarray(p, dtype=float).reshape(3).tolist()
        return np.array((0.0 - (n1 * p2 - n2 * p1), 0.0 + (n2 * p0 - n0 * p2), 0.0 + (n0 * p1 - n1 * p0)))

    def ideal_endpoints_klein(self) -> tuple[np.ndarray, np.ndarray]:
        """Klein-disk endpoints (start, end) of the oriented geodesic."""
        p = self.closest_point_to_origin()
        v = self.tangent_at(p)
        n_minus, n_plus = p - v, p + v
        return n_minus[1:] / n_minus[0], n_plus[1:] / n_plus[0]
