"""Isometries of the three projective models and their rescaled limits.

Hyperbolic and anti-de Sitter isometries are 4x4 matrices preserving the
bilinear form diag(-1,1,1,s); half-pipe isometries are block lower-triangular

    [[A, 0],
     [w, eps]],       A in O(1,2) preserving x0 > 0,  eps = +-1,

the one form of a half-pipe isometry in this library.  With eps = +1 it acts
on the dual affine planes of Minkowski R^{1,2} as the affine map y -> A y + v,
whose translation is v = A J3 w (so w = (J3 v)^T A).

All three are one algebra (Danciger, "A geometric transition from hyperbolic
to anti de Sitter geometry", Geom. Topol. 17, 2013): over R[mu], mu^2 = -s,
the point x is P + mu x3 J, P = [[x0 - x2, x1], [x1, x0 + x2]], J = [[0, -1],
[1, 0]], and a + mu b acts by H -> (a + mu b) H (a + mu b)^dagger, mu^dagger =
-mu (:func:`model_matrix`).  The fiber rescaling diag(1, 1, 1, 1/lam) is mu ->
lam mu.  Bending's rotation by a about the geodesic of H2 = {x3 = 0} with
unit normal n is c + mu s X, X the trace-free matrix of n (X^2 = 1):

    hyperbolic       (c, s) = (cos a/2, sin a/2),      mu^2 = -1
    anti-de Sitter   (c, s) = (cosh a/2, -sinh a/2),   mu^2 = +1
    half-pipe        (c, s) = (1, a/2),                mu^2 = 0.

For mu^2 = m^2 > 0, a + mu b is also the pair a +- m b in SL(2, R) x SL(2, R)
(:func:`split_model_matrix`).
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

# Largest block-structure defect of a rotation about a given axis.
EPS_ROTATION = 1e-8

# Scale below which classify_isometry reads a defect or a trace gap as zero.
EPS_PARABOLIC = 1e-7

_IDENTITY = np.eye(4)[np.newaxis]
_IDENTITY2 = np.eye(2)
_IDENTITY.flags.writeable = _IDENTITY2.flags.writeable = False
# The entries of a 4x4 matrix outside its transversal (x2, x3) block.
_OFF_TRANSVERSAL = np.ones((4, 4), dtype=bool)
_OFF_TRANSVERSAL[2:, 2:] = False
# The signs that take a 2x2 matrix, its diagonal and its off-diagonal swapped, to its adjugate.
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


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
        m, tag = self.matrix, self.geometry
        if tag is HP:
            a_inv = J3 @ m[:3, :3].T @ J3
            out = embed_h2(a_inv)
            out[3:, :3] = -m[3:, 3:] * (m[3:, :3] @ a_inv)
            out[3, 3] = m[3, 3]
            return Isometry(out, tag)
        j = tag.form_matrix
        return Isometry(j @ m.T @ j, tag)

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


def boost_from_origin(u: np.ndarray) -> np.ndarray:
    """The symmetric SO0(1,2) matrix taking (1,0,0) to a unit timelike u (u0 > 0); deterministic in u.

    Its inverse, taking u to (1,0,0), is J3 B^T J3.
    """
    u = np.asarray(u, dtype=float).reshape(3)
    b = u[1:]
    out = np.eye(3)
    out[0, 0] = u[0]
    out[0, 1:] = b
    out[1:, 0] = b
    out[1:, 1:] += np.outer(b, b) / (1.0 + u[0])
    return out


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


def identity_stack(k: int) -> np.ndarray:
    """k copies of the 4x4 identity matrix, as one array of shape (k, 4, 4)."""
    return _IDENTITY.repeat(k, axis=0)


# ---------------------------------------------------------------------------
# SL(2, R) and SL(2, R[mu]).
# ---------------------------------------------------------------------------


def adjugate(g: np.ndarray) -> np.ndarray:
    """[[d, -b], [-c, a]] for each 2x2 matrix [[a, b], [c, d]], the inverse of a determinant-one one; broadcasts."""
    return np.multiply(np.swapaxes(g[..., ::-1, ::-1], -1, -2), _ADJUGATE_SIGNS, order="C")


def adjoint_rows(a, b, c, d):
    """The rows of the adjoint image in SO0(1,2) of [[a, b], [c, d]] in SL(2, R), elementwise: floats or arrays alike.

    Column j holds the coordinates of g E_j adj(g), for the trace-free basis
    E0 = [[0, -1], [1, 0]], E1 = [[1, 0], [0, -1]], E2 = [[0, 1], [1, 0]], in
    which x0 E0 + x1 E1 + x2 E2 has -det equal to the Minkowski norm of x.
    Squares are products, as x * x overflows to inf where x ** 2 raises.
    Elementwise numpy rounds as Python floats do, so arrays of entries map as
    each matrix alone, bit for bit.
    """
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    return (
        ((aa + bb + cc + dd) / 2.0, a * b + c * d, (bb + dd - aa - cc) / 2.0),
        (a * c + b * d, a * d + b * c, b * d - a * c),
        ((cc + dd - aa - bb) / 2.0, c * d - a * b, (aa + dd - bb - cc) / 2.0),
    )


def adjoint_polar(g, h):
    """(B(g, h) + B(h, g)) / 2 for entries g and h, B(g, h) the map X -> g X adj(h): the polar form of adjoint_rows."""
    (a, b, c, d), (e, f, k, m) = g, h
    ae, bf, ck, dm, ak, ce, bm, df = a * e, b * f, c * k, d * m, a * k, c * e, b * m, d * f
    return (
        ((ae + bf + ck + dm) / 2.0, (a * f + b * e + c * m + d * k) / 2.0, (bf + dm - ae - ck) / 2.0),
        ((ak + ce + bm + df) / 2.0, (a * m + d * e + b * k + c * f) / 2.0, (bm + df - ak - ce) / 2.0),
        ((ck + dm - ae - bf) / 2.0, (c * m + d * k - a * f - b * e) / 2.0, (ae + dm - bf - ck) / 2.0),
    )


def sl2_to_so12(g: np.ndarray) -> np.ndarray:
    """Adjoint image of g in SO0(1,2), acting on trace-free matrices; broadcasts.

    The map is a 2-to-1 homomorphism with sl2_to_so12(-g) = sl2_to_so12(g),
    :func:`adjoint_rows` on the stacked entries of g: each matrix of a stack
    maps as its entries do in Python floats, bit for bit.
    """
    g = np.asarray(g, dtype=float)
    a, b, c, d = g.reshape(-1, 4).T
    return np.array(adjoint_rows(a, b, c, d)).transpose(2, 0, 1).reshape(g.shape[:-2] + (3, 3))


def model_matrix(a: np.ndarray, b: np.ndarray, mu2: float | np.ndarray) -> np.ndarray:
    """The 4x4 matrices of a + mu b in SL(2, R[mu]), mu^2 = mu2, on the model of the module docstring, for a stack.

    The block is sl2_to_so12(a) - mu2 sl2_to_so12(b), row 3 is -2 J3 times the
    coordinates of adj(a) b, column 3 -2 mu2 times those of b adj(a), and the
    corner is 1 - 2 mu2 det b (det(a + mu b) = 1 solved for det a; det a -
    mu2 det b cancels).  A real a (b = 0) maps as sl2_to_so12 bit for bit.
    """
    mu2 = np.asarray(mu2, dtype=float)
    blocks = sl2_to_so12(np.array((a, b)))
    adj = adjugate(a)
    out = np.empty(a.shape[:-2] + (4, 4))
    out[..., :3, :3] = blocks[0] - mu2[..., np.newaxis, np.newaxis] * blocks[1]
    out[..., 3, 3] = 1.0 - 2.0 * mu2 * (b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0])
    return _fiber_entries(out, adj @ b, b @ adj, mu2)


def split_model_matrix(p: np.ndarray, q: np.ndarray, mu2: np.ndarray) -> np.ndarray:
    """model_matrix of a + mu b, mu^2 = m^2 > 0, for a stack, from its factors p = a + m b and q = a - m b.

    The block is adjoint_polar(p, q), adj(a) b is (adj(q) p - adj(p) q) / 4m,
    b adj(a) is (p adj(q) - q adj(p)) / 4m and the corner is tr(adj(p) q) / 2.
    Nothing cancels where p and q differ in size, as after turns by large
    anti-de Sitter angles, where a and m b nearly cancel.
    """
    adj_p, adj_q, m = adjugate(p), adjugate(q), np.sqrt(mu2)[..., np.newaxis, np.newaxis]
    out = np.empty(p.shape[:-2] + (4, 4))
    block = np.array(adjoint_polar(p.reshape(-1, 4).T, q.reshape(-1, 4).T))
    out[..., :3, :3] = block.transpose(2, 0, 1).reshape(p.shape[:-2] + (3, 3))
    corner = adj_p @ q
    out[..., 3, 3] = (corner[..., 0, 0] + corner[..., 1, 1]) / 2.0
    return _fiber_entries(out, (adj_q @ p - adj_p @ q) / (4.0 * m), (p @ adj_q - q @ adj_p) / (4.0 * m), mu2)


def _fiber_entries(out: np.ndarray, ab: np.ndarray, ba: np.ndarray, mu2: np.ndarray) -> np.ndarray:
    """Row 3 and column 3 of out from the trace-free coordinates of adj(a) b and b adj(a), times 2 written out."""
    out[..., 3, 0] = ab[..., 1, 0] - ab[..., 0, 1]
    out[..., 3, 1] = -2.0 * ab[..., 0, 0]
    out[..., 3, 2] = -(ab[..., 1, 0] + ab[..., 0, 1])
    out[..., 0, 3] = -mu2 * (ba[..., 1, 0] - ba[..., 0, 1])
    out[..., 1, 3] = -2.0 * mu2 * ba[..., 0, 0]
    out[..., 2, 3] = -mu2 * (ba[..., 1, 0] + ba[..., 0, 1])
    return out


def rotation_pairs(slices: Sequence[tuple[Geometry, float, float]], normal: Sequence[float]) -> tuple[np.ndarray, ...]:
    """Rotations a + mu b = c + mu s X about the geodesic of unit normal n, as arrays (a, b, mu2).

    One entry per slice (tag, angle, lam), conjugated by diag(1, 1, 1, 1/lam):
    (c, s / lam) and mu2 = -s lam^2 from the module docstring's table.  Raises
    GeometryError for an angle that is not finite, and RotationOverflowError
    for an anti-de Sitter angle whose cosh overflows.
    """
    out = []
    for tag, angle, lam in slices:
        if not math.isfinite(angle):
            raise GeometryError(f"rotation angle {angle!r} is not finite")
        half = angle / 2.0
        if tag is HYP:
            out.append((math.cos(half), math.sin(half) / lam, -lam * lam))
        elif tag is ADS:
            try:
                math.cosh(angle)
            except OverflowError as exc:
                raise RotationOverflowError(f"anti-de Sitter rotation by {angle!r} overflows") from exc
            out.append((math.cosh(half), -math.sinh(half) / lam, lam * lam))
        else:
            out.append((1.0, half / lam, 0.0))
    c, s, mu2 = np.array(out).reshape(-1, 3).T
    n0, n1, n2 = np.asarray(normal, dtype=float).tolist()
    x = np.array([[n1, n2 - n0], [n2 + n0, -n1]])
    return c[:, np.newaxis, np.newaxis] * _IDENTITY2, s[:, np.newaxis, np.newaxis] * x, mu2


def rotation(tag: Geometry, axis: SpacelikeGeodesicH2, angle: float) -> Isometry:
    """Rotation of the given angle about an oriented geodesic of H2 (its left normal n), from :func:`rotation_pairs`."""
    return Isometry(model_matrix(*rotation_pairs(((tag, angle, 1.0),), axis.normal))[0], tag)


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
    # Row 3 overflows to inf at |t| near the float minimum, which the result shows.
    with np.errstate(over="ignore"):
        out[..., 3, :] /= scale
    out[..., :, 3] *= scale
    return out


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------


def classify_isometry(g: Isometry) -> str:
    """Coarse dynamical type: 'elliptic', 'parabolic', 'hyperbolic' or 'other'.

    Half-pipe elements classify through their linear part A (trace against 3
    in O0(1,2)), with pure translations sub-classified by the causal type of
    the translation v = A J3 w, read off the matrix with no group check
    (spacelike translations are the half-pipe rotations).  Curved-model
    elements use the cubed-nilpotency test ||(m - Id)^3|| for parabolics --
    stable where eigensolvers are not -- then the spectral radius to split
    hyperbolic from elliptic.  Identities and orientation/fiber-reversing
    elements report 'other'.
    """
    m = g.matrix
    if g.geometry is HP:
        a = m[:3, :3]
        if m[3, 3] < 0:
            return "other"
        if not float(np.max(np.abs(a - np.eye(3)))) < EPS_PARABOLIC:
            tr = float(np.trace(a))
            if abs(tr - 3.0) <= EPS_PARABOLIC:
                return "parabolic"
            return "elliptic" if tr < 3.0 else "hyperbolic"
        v = a @ (J3 @ m[3, :3])
        qv = float(minkowski_dot(v, v))
        if float(np.max(np.abs(v))) < EPS_PARABOLIC or qv < -EPS_PARABOLIC:
            return "other"
        return "elliptic" if qv > EPS_PARABOLIC else "parabolic"
    if float(np.linalg.det(m)) < 0:
        return "other"
    delta = m - np.eye(4)
    if float(np.max(np.abs(delta))) < EPS_PARABOLIC:
        return "other"
    if float(np.max(np.abs(delta @ delta @ delta))) < EPS_PARABOLIC:
        return "parabolic"
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    return "hyperbolic" if radius > 1.0 + EPS_PARABOLIC else "elliptic"
