"""Isometries of the three projective models and their rescaled limits.

Hyperbolic and anti-de Sitter isometries are 4x4 matrices preserving the
bilinear form diag(-1,1,1,s); half-pipe isometries are block lower-triangular

    [[A, 0],
     [w, eps]],       A in O(1,2) preserving x0 > 0,  eps = +-1,

equivalently pairs (A, v) acting on Minkowski R^{1,2} by y -> A y + v, with
w = (J3 v)^T A and eps = +1 for the orientation-preserving ones.  The
degeneration from the curved models to the half-pipe model is implemented by
conjugating with the fiber rescaling diag(1, 1, 1, 1/|t|) and letting
t -> 0.

Rotations about geodesics of the shared hyperbolic plane H2 = {x3 = 0} are
the basic building blocks of bending; their standard forms about the axis
{x2 = x3 = 0} (oriented toward increasing x1, left normal e2) act on the
(x2, x3) coordinates as

    hyperbolic       [[cos a,  sin a], [-sin a, cos a]]
    anti-de Sitter   [[cosh a, sinh a], [sinh a, cosh a]]
    half-pipe        [[1, 0], [-a, 1]].
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from halfpipe.geometry import (
    ADS,
    HP,
    HYP,
    J3,
    EPS_MEMBERSHIP,
    DegeneratePlaneError,
    Geometry,
    GeometryError,
    NotSpacelikeError,
    Plane,
    ProjectivePoint,
    SpacelikeGeodesicH2,
    TagMismatchError,
    minkowski_dot,
)

# Residual below which a matrix is accepted as a group element.
EPS_GROUP_MEMBER = 1e-8
# Residual target for invariance checks on composed words.
EPS_GROUP = 1e-11
# Largest block-structure defect of a rotation about a given axis.
EPS_ROTATION = 1e-8

_IDENTITY = np.eye(4)[np.newaxis]
_IDENTITY.flags.writeable = False
# The entries of a 4x4 matrix outside its transversal (x2, x3) block.
_OFF_TRANSVERSAL = np.ones((4, 4), dtype=bool)
_OFF_TRANSVERSAL[2:, 2:] = False


class InvalidIsometryError(GeometryError):
    """A matrix fails the defining relations of the isometry group."""


class NotRotationAboutAxisError(GeometryError):
    """An isometry does not fix the requested axis pointwise."""


class RotationOverflowError(GeometryError):
    """An anti-de Sitter rotation angle is too large for its matrix entries to be finite."""


def group_residual(matrix: np.ndarray, tag: Geometry) -> float:
    """Max-norm violation of the defining relations of Isom for this tag."""
    m = np.asarray(matrix, dtype=float)
    if tag is HP:
        a = m[:3, :3]
        res = np.max(np.abs(a.T @ J3 @ a - J3))
        res = max(res, float(np.max(np.abs(m[:3, 3]))))
        res = max(res, abs(abs(m[3, 3]) - 1.0))
        if a[0, 0] <= 0:
            res = max(res, 1.0)
        return float(res)
    j = tag.form_matrix
    return float(np.max(np.abs(m.T @ j @ m - j)))


def _group_inverse(m: np.ndarray, tag: Geometry) -> np.ndarray:
    """The inverse of a group element of the tag, or of each slice of a (k, 4, 4) stack, from the form relations."""
    if tag is HP:
        a, w, eps = m[..., :3, :3], m[..., 3:, :3], m[..., 3:, 3:]
        a_inv = J3 @ np.swapaxes(a, -1, -2) @ J3
        out = np.zeros(m.shape)
        out[..., :3, :3] = a_inv
        out[..., 3:, :3] = -eps * (w @ a_inv)
        out[..., 3:, 3:] = eps
        return out
    j = tag.form_matrix
    return j @ np.swapaxes(m, -1, -2) @ j


@dataclass(frozen=True)
class Isometry:
    """A 4x4 projective isometry together with its geometry tag.

    The constructor trusts its input; :func:`group_residual` measures how far
    a matrix is from the group.  All public builders in this module produce
    valid group elements by construction.
    """

    matrix: np.ndarray
    geometry: Geometry

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float).reshape(4, 4)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        if self.geometry is not other.geometry:
            raise TagMismatchError("cannot compose isometries of different geometries")
        return Isometry(self.matrix @ other.matrix, self.geometry)

    def inverse(self) -> "Isometry":
        """Group inverse, computed from the form relations (no linear solve)."""
        return Isometry(_group_inverse(self.matrix, self.geometry), self.geometry)

    def apply(self, point: ProjectivePoint) -> ProjectivePoint:
        if point.geometry is not self.geometry:
            raise TagMismatchError("isometry and point live in different geometries")
        return ProjectivePoint(self.matrix @ point.vec, self.geometry)

    def apply_plane(self, plane: Plane) -> Plane:
        if plane.geometry is not self.geometry:
            raise TagMismatchError("isometry and plane live in different geometries")
        return Plane(self.inverse().matrix.T @ plane.covector, self.geometry)


# ---------------------------------------------------------------------------
# H2 building blocks.
# ---------------------------------------------------------------------------


def boost_to_origin(u: np.ndarray) -> np.ndarray:
    """The SO0(1,2) matrix taking a unit timelike u (u0 > 0) to (1,0,0).

    Inverse of the symmetric boost e0 -> u; deterministic in u.
    """
    u = np.asarray(u, dtype=float).reshape(3)
    b = -u[1:]
    out = np.eye(3)
    out[0, 0] = u[0]
    out[0, 1:] = b
    out[1:, 0] = b
    out[1:, 1:] += np.outer(b, b) / (1.0 + u[0])
    return out


def boost_from_origin(u: np.ndarray) -> np.ndarray:
    """The SO0(1,2) matrix taking (1,0,0) to a unit timelike u (u0 > 0)."""
    flipped = boost_to_origin(u)
    flipped[0, 1:] *= -1.0
    flipped[1:, 0] *= -1.0
    return flipped


def h2_rotation(angle: float) -> np.ndarray:
    """Rotation of H2 about (1,0,0), acting on (x1, x2)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def embed_h2(a: np.ndarray) -> np.ndarray:
    """The matrix block-diag(A, 1)."""
    out = _IDENTITY[0].copy()
    out[:3, :3] = np.asarray(a, dtype=float)
    return out


def embed_h2_isometry(tag: Geometry, a: np.ndarray) -> Isometry:
    """block-diag(A, 1): the copy of Isom(H2) fixing the fiber direction."""
    return Isometry(embed_h2(a), tag)


def transport_to_standard_axis(axis: SpacelikeGeodesicH2) -> np.ndarray:
    """The SO0(1,2) matrix carrying an oriented geodesic to the standard axis.

    Maps the geodesic's closest-to-origin point, travel direction and left
    normal onto (1,0,0), (0,1,0) and (0,0,1) respectively, so the oriented
    axis lands on {x2 = 0} traveled toward increasing x1.
    """
    p = axis.closest_point_to_origin()
    v = axis.tangent_at(p)
    frame = np.column_stack((p, v, axis.normal))
    # frame is in SO0(1,2); its form-inverse undoes it.
    return J3 @ frame.T @ J3


def identity_stack(k: int) -> np.ndarray:
    """k copies of the 4x4 identity matrix, as one array of shape (k, 4, 4)."""
    return _IDENTITY.repeat(k, axis=0)


def standard_rotations(tags: Sequence[Geometry], angles: Sequence[float]) -> np.ndarray:
    """The stack of rotations about {x2 = x3 = 0}, slice j by ``angles[j]`` in the model ``tags[j]``.

    Hyperbolic angles are taken mod 2*pi into [-pi, pi).
    """
    out = identity_stack(len(tags))
    for j, (tag, angle) in enumerate(zip(tags, angles)):
        if tag is HYP:
            angle = math.remainder(angle, 2.0 * math.pi)
            angle = -math.pi if angle == math.pi else angle
            c, s = math.cos(angle), math.sin(angle)
            out[j, 2, 2], out[j, 2, 3], out[j, 3, 2], out[j, 3, 3] = c, s, -s, c
        elif tag is ADS:
            try:
                c, s = math.cosh(angle), math.sinh(angle)
            except OverflowError as exc:
                raise RotationOverflowError(f"anti-de Sitter rotation by {angle!r} overflows") from exc
            out[j, 2, 2], out[j, 2, 3], out[j, 3, 2], out[j, 3, 3] = c, s, s, c
        else:
            out[j, 3, 2] = -angle
    return out


def rotation(tag: Geometry, axis: SpacelikeGeodesicH2, angle: float) -> Isometry:
    """Rotation of the given angle about an oriented geodesic of H2.

    Transport the axis to standard position, apply the standard rotation,
    transport back.  Hyperbolic angles are taken mod 2*pi into [-pi, pi).
    """
    phi = embed_h2_isometry(tag, transport_to_standard_axis(axis))
    return Isometry((phi.inverse().matrix @ standard_rotations((tag,), (angle,))[0]) @ phi.matrix, tag)


def standard_rotation_angles(stack: np.ndarray, tag: Geometry) -> list[float]:
    """The angles of rotations about the standard axis {x2 = x3 = 0}, from a (k, 4, 4) stack of their matrices.

    Each matrix is in the model ``tag``, checked in stack order; hyperbolic
    angles are read into [-pi, pi).  Raises NotRotationAboutAxisError if a
    matrix moves the axis (by more than EPS_ROTATION in its block structure)
    or its transversal block is no rotation.
    """
    defects = np.abs(stack - _IDENTITY)[:, _OFF_TRANSVERSAL].max(axis=1).tolist()
    angles = []
    for defect, ((b00, b01), (b10, b11)) in zip(defects, stack[:, 2:, 2:].tolist()):
        if defect > EPS_ROTATION:
            raise NotRotationAboutAxisError(f"isometry moves the axis (defect {defect:.3e})")
        if tag is HYP:
            angle = math.atan2(b01, b00)
            angles.append(-math.pi if angle == math.pi else angle)
        elif tag is ADS:
            angle = math.asinh(b01)
            if abs(b00 - math.cosh(angle)) > EPS_ROTATION or abs(b10 - b01) > EPS_ROTATION:
                raise NotRotationAboutAxisError("transversal block is not an anti-de Sitter rotation")
            angles.append(angle)
        else:
            if abs(b00 - 1.0) > EPS_ROTATION or abs(b11 - 1.0) > EPS_ROTATION or abs(b01) > EPS_ROTATION:
                raise NotRotationAboutAxisError("transversal block is not a half-pipe rotation")
            angles.append(-b10)
    return angles


# ---------------------------------------------------------------------------
# Reflections.
# ---------------------------------------------------------------------------


def reflection(plane: Plane) -> Isometry:
    """Reflection along a spacelike plane.

    Hyperbolic/anti-de Sitter: Id - 2 (J n)(J n)^T J / q(n) evaluated on the
    unit normal, which fixes the plane pointwise and squares to the identity.
    Half-pipe: the plane dual to y reflects fiber coordinates through the
    plane's affine graph, with matrix [[Id, 0], [2 (J3 y)^T, -1]].  Degenerate
    half-pipe planes (containing a fiber) admit a one-parameter family of
    reflections and are refused.
    """
    return Isometry(reflection_stack(plane.geometry, plane.covector[np.newaxis])[0], plane.geometry)


def reflection_stack(tag: Geometry, covectors: np.ndarray) -> np.ndarray:
    """The (k, 4, 4) stack of reflections along the planes of k unit covectors in the model ``tag``.

    Slice j is :func:`reflection` of the plane of ``covectors[j]``, bit for
    bit, whatever the covector's sign.  Raises NotSpacelikeError or
    DegeneratePlaneError as :func:`reflection` does.
    """
    rows = np.asarray(covectors, dtype=float).tolist()
    out = identity_stack(len(rows))
    if tag is HP:
        if not all(abs(u3) >= EPS_MEMBERSHIP for *_, u3 in rows):
            raise DegeneratePlaneError("plane contains a fiber; no dual point")
        # Row 3 is 2 (J3 y)^T for the dual point y = (-u0, u1, u2) / (-u3);
        # adding 0.0 writes its zeros as +0.0, as the product J3 @ y does.
        out[:, 3] = [
            [2.0 * (u0 / -u3) + 0.0, 2.0 * (u1 / -u3) + 0.0, 2.0 * (u2 / -u3) + 0.0, -1.0] for u0, u1, u2, u3 in rows
        ]
        return out
    # The normals n = J u and their form values q (+1 Hyp, -1 AdS spacelike),
    # in floats; J is diagonal, so J @ x is d * x, and q sums as form_eval does.
    s, diagonal = tag.s, np.diagonal(tag.form_matrix)
    d = diagonal.tolist()

    def form(n0: float, n1: float, n2: float, n3: float) -> float:
        return -n0 * n0 + n1 * n1 + n2 * n2 + s * n3 * n3

    normals = [[c * e for c, e in zip(row, d)] for row in rows]
    q = [form(*n) for n in normals]
    if not all(v > EPS_MEMBERSHIP if tag is HYP else v < -EPS_MEMBERSHIP for v in q):
        raise NotSpacelikeError("reflections are implemented along spacelike planes only")
    normals = [[c / root for c in n] for n, root in zip(normals, (math.sqrt(abs(v)) for v in q))]
    # The unit covectors of the planes, and 2 / q for their unit normals.
    u = np.array([[c * e for c, e in zip(n, d)] for n in normals])
    halves = 2.0 / np.array([form(*n) for n in normals])
    return out - (halves[:, np.newaxis, np.newaxis] * diagonal[:, np.newaxis]) * (u[:, :, np.newaxis] * u[:, np.newaxis, :])


# ---------------------------------------------------------------------------
# Rescaling toward the half-pipe model.
# ---------------------------------------------------------------------------


def rescale_conjugate(t: float | np.ndarray, g: Isometry | np.ndarray) -> np.ndarray:
    """The raw matrix tau_t m tau_t^{-1} (row 3 divided, column 3 multiplied by |t|).

    A (k, 4, 4) stack takes k values of t.  The result is generally not a
    group element of any fixed tag, hence a plain matrix; families of such
    conjugates converge entrywise to half-pipe isometries.
    """
    m = g.matrix if isinstance(g, Isometry) else g
    scale = np.abs(np.asarray(t, dtype=float))[..., None]
    out = np.array(m, dtype=float)
    out[..., 3, :] /= scale
    out[..., :, 3] *= scale
    return out


# ---------------------------------------------------------------------------
# The Minkowski model of half-pipe isometries.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinkowskiIsometry:
    """An affine isometry y -> A y + v of Minkowski R^{1,2}, A in O0(1,2): the validated
    form of a half-pipe isometry, which composes and inverts as a 4x4 :class:`Isometry`."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.linear, dtype=float).reshape(3, 3)
        v = np.array(self.translation, dtype=float).reshape(3)
        if float(np.max(np.abs(a.T @ J3 @ a - J3))) > EPS_GROUP_MEMBER or a[0, 0] <= 0:
            raise InvalidIsometryError("linear part must preserve the Minkowski form and time orientation")
        a.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "linear", a)
        object.__setattr__(self, "translation", v)


def minkowski_to_hp(iso: MinkowskiIsometry) -> Isometry:
    """The half-pipe isometry [[A, 0], [(J3 v)^T A, 1]] matching the duality.

    Under the duality between half-pipe points and affine Minkowski planes,
    this element acts on dual planes exactly as (A, v) acts on R^{1,2}.
    """
    out = np.eye(4)
    out[:3, :3] = iso.linear
    out[3, :3] = (J3 @ iso.translation) @ iso.linear
    return Isometry(out, HP)


def hp_to_minkowski(g: Isometry) -> MinkowskiIsometry:
    """Inverse of :func:`minkowski_to_hp` (orientation-preserving input)."""
    if g.geometry is not HP:
        raise TagMismatchError("expected a half-pipe isometry")
    m = g.matrix
    if m[3, 3] < 0:
        raise InvalidIsometryError("fiber-reversing half-pipe isometries have no affine Minkowski form")
    a, w = m[:3, :3], m[3, :3]
    return MinkowskiIsometry(a, a @ (J3 @ w))


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------


def _classify_linear_so12(a: np.ndarray, parabolic_tol: float) -> str:
    tr = float(np.trace(a))
    if float(np.max(np.abs(a - np.eye(3)))) < parabolic_tol:
        return "other"
    if abs(tr - 3.0) <= parabolic_tol:
        return "parabolic"
    return "elliptic" if tr < 3.0 else "hyperbolic"


def classify_isometry(g: Isometry, parabolic_tol: float = 1e-7) -> str:
    """Coarse dynamical type: 'elliptic', 'parabolic', 'hyperbolic' or 'other'.

    Half-pipe elements classify through their linear part (trace against 3 in
    O0(1,2)), with pure translations sub-classified by the causal type of the
    translation vector (spacelike translations are the half-pipe rotations).
    Curved-model elements use the cubed-nilpotency test ||(m - Id)^3|| for
    parabolics -- stable where eigensolvers are not -- then the spectral
    radius to split hyperbolic from elliptic.  Identities and
    orientation/fiber-reversing elements report 'other'.
    """
    m = g.matrix
    if g.geometry is HP:
        if m[3, 3] < 0:
            return "other"
        kind = _classify_linear_so12(m[:3, :3], parabolic_tol)
        if kind != "other":
            return kind
        v = hp_to_minkowski(g).translation
        qv = float(minkowski_dot(v, v))
        if float(np.max(np.abs(v))) < parabolic_tol:
            return "other"
        if qv > parabolic_tol:
            return "elliptic"
        if qv < -parabolic_tol:
            return "other"
        return "parabolic"
    if float(np.linalg.det(m)) < 0:
        return "other"
    delta = m - np.eye(4)
    if float(np.max(np.abs(delta))) < parabolic_tol:
        return "other"
    if float(np.max(np.abs(delta @ delta @ delta))) < parabolic_tol:
        return "parabolic"
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    return "hyperbolic" if radius > 1.0 + parabolic_tol else "elliptic"
