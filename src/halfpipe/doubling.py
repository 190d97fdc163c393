"""Doubling bent structures across their boundary surfaces.

Reflecting a bent surface in the support planes of its flat faces doubles the
structure: each face contributes an involution, the products of two face
reflections extend the holonomy to the doubled manifold, meridians around the
bending lines become cone axes, and a cusp of the surface doubles to a torus
cusp.

The two boundary surfaces of a half-pipe convex core are bent along two
curves, lambda and mu, over one Fuchsian group.  In half-pipe geometry a
bent holonomy is an affine map (L(w), v(w)) of Minkowski space R^{1,2}: its
linear part is the Fuchsian holonomy L(w), and its translation v is the
infinitesimal-bending cocycle of the curve (Danciger, "A geometric transition
from hyperbolic to anti de Sitter geometry", Geom. Topol. 17, 2013).  The
surfaces are aligned by a translation u with v_lambda - v_mu = delta u, which
exists at the critical point of l_lambda + l_mu (Kerckhoff, "Earthquakes are
analytic", Comment. Math. Helv. 60, 1985).  This module reads v off the
crossings of the generators' holonomy segments
(:func:`halfpipe.bending.bent_translation`), solves for u on the generators,
and doubles the core across the two surfaces.  A double has two faces, one
per boundary surface, so it extends the representation to words in the
surface generators and one face token, e1 (with its inverse E1).  The module
also computes meridian cone angles from adjacent support-plane reflections,
read as the rotation about a leaf in the leaf's own frame (a whole table of
models and scales as one stacked computation), which needs no group, and
checks that doubled cusp stabilizers are rank-2 abelian.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from halfpipe.bending import BendingContext, BentHolonomy, bent_holonomy, bent_translation
from halfpipe.fuchsian import WeightedMulticurve
from halfpipe.geometry import HP, HYP, J3, Geometry, GeometryError, Plane, TagMismatchError, _unit_rows
from halfpipe.isometry import (
    Isometry,
    classify_isometry,
    reflection,
    reflection_stack,
    model_matrix,
    rotation_pairs,
    standard_rotation_angles,
)

# Largest translation residual of two aligned surfaces.
EPS_ALIGNMENT = 1e-8

_EXTENDED_TOKEN = re.compile(r"[AaBb]|[eE]1")


class NoConjugatingTranslationError(GeometryError):
    """No translation conjugates the lower holonomy onto the upper one."""


def _tokenize_extended(word: str) -> list[str]:
    tokens = _EXTENDED_TOKEN.findall(word)
    if "".join(tokens) != word:
        raise GeometryError(f"not a word in the extended generators: {word!r}")
    return tokens


@dataclass(frozen=True, eq=False)
class DoubledHolonomy:
    """Holonomy of a doubled structure over extended words.

    A double has two faces, with reflections r_0 and r_1, and one face
    token.  Words mix surface letters (A, a, B, b) with it: e1 maps to the
    exact product r_1 r_0 of the two face reflections, and E1 to its inverse
    r_0 r_1.
    """

    rho: BentHolonomy
    reflections: tuple[Isometry, ...]

    def __post_init__(self) -> None:
        if len(self.reflections) != 2:
            raise GeometryError(f"a double has two faces; got {len(self.reflections)} reflections")

    @property
    def tag(self) -> Geometry:
        return self.reflections[0].geometry

    @property
    def face_count(self) -> int:
        return len(self.reflections)

    def __call__(self, word: str) -> Isometry:
        r0, r1 = self.reflections
        out = Isometry(np.eye(4), self.tag)
        chunk = ""
        for token in _tokenize_extended(word):
            if len(token) == 1:
                chunk += token
                continue
            if chunk:
                out = out @ self.rho(chunk)
                chunk = ""
            out = out @ (r1 @ r0 if token == "e1" else r0 @ r1)
        if chunk:
            out = out @ self.rho(chunk)
        return out


def _check_surface_pair(upper: BendingContext, lower: BendingContext) -> None:
    if upper.tag is not HP or lower.tag is not HP:
        raise TagMismatchError("surface pairs are aligned in the half-pipe model")
    if not (upper.sign > 0.0 > lower.sign):
        raise GeometryError("expected a positively bent upper and a negatively bent lower context")
    if upper.group != lower.group:
        raise GeometryError("the two contexts must share the holonomy group")
    if upper.base_point.tolist() != lower.base_point.tolist():
        raise GeometryError("the two contexts must share the basepoint")


def pair_aligner(upper: BendingContext, lower: BendingContext) -> Isometry:
    """The half-pipe translation conjugating the lower holonomy to the upper.

    Both bent holonomies are affine maps (L(w), v(w)) of Minkowski space
    with the one linear part L(w), the group's Lorentz image of w, as the
    two contexts share the group.  The translations v_upper and v_lower
    are read off the crossings of [x0, w . x0] by
    :func:`halfpipe.bending.bent_translation`, and the aligner is the
    translation u with (Id - L(w)) u = v_upper(w) - v_lower(w) for w = A
    and B, solved by least squares, as the matrix [[Id, 0], [(J3 u)^T, 1]].
    A solution exists precisely when the difference of the two bending
    cocycles is a coboundary, which happens at the critical point of the
    combined length.  The pair is refused when the least-squares residual
    exceeds EPS_ALIGNMENT, and so is any pair but a positively bent upper
    and a negatively bent lower half-pipe context over one group and one
    basepoint.
    """
    _check_surface_pair(upper, lower)
    rows, rhs = [], []
    for word in ("A", "B"):
        rows.append(np.eye(3) - upper.group.lorentz(word))
        rhs.append(bent_translation(upper, word) - bent_translation(lower, word))
    system, target = np.concatenate(rows), np.concatenate(rhs)
    u, *_ = np.linalg.lstsq(system, target, rcond=None)
    residual = float(np.abs(system @ u - target).max())
    if residual > EPS_ALIGNMENT:
        raise NoConjugatingTranslationError(
            f"no conjugating translation: generator residual {residual:.3e}"
        )
    out = np.eye(4)
    out[3, :3] = J3 @ u
    return Isometry(out, HP)


def double_convex_core_pair(upper: BendingContext, lower: BendingContext) -> DoubledHolonomy:
    """Double a half-pipe convex core across both boundary surfaces.

    Face 0 is the upper surface's face at the basepoint and face 1 the lower
    surface's face there, carried over by :func:`pair_aligner`, whose
    surface-pair preconditions apply.  Both faces at the basepoint lie in
    the base plane {x3 = 0}, the support plane of each surface there.  The
    token e1 is the product of the two boundary reflections at the
    basepoint: the meridian of the doubled cusp region.
    """
    aligner = pair_aligner(upper, lower)
    # The cocycle from the basepoint to itself is the identity, so both faces
    # at the basepoint lie in {x3 = 0}; the aligner has already refused a
    # basepoint on a leaf of either curve.
    mirror = reflection(Plane.base_plane(HP))
    # aligner . mirror . aligner^-1 for the translation aligner [[Id, 0], [w, 1]]
    # and mirror diag(1, 1, 1, -1): the identity with row 3 (2 w, -1), bit for bit.
    carried = np.eye(4)
    carried[3] = 2.0 * aligner.matrix[3]
    carried[3, 3] = -1.0
    return DoubledHolonomy(rho=bent_holonomy(upper), reflections=(mirror, Isometry(carried, HP)))


def meridian_cone_angles(multicurve: WeightedMulticurve, slices: Sequence[tuple[Geometry, float]]) -> list[float]:
    """Cone angles of the meridian around the bending line of the multicurve's curve, one per slice.

    Doubling turns each bending leaf into a cone axis whose meridian is the
    product of the reflections in the two support planes beside the leaf.
    Slice j is (tag, sign * scale) of a context over the multicurve; entry j
    of the returned list of k floats is its cone angle, 2*(pi - theta) in
    the hyperbolic model and -2*theta in the others, for theta = sign *
    scale * weight.  A hyperbolic angle is read mod 2*pi and returned as the
    representative nearest 2*(pi - theta), which is 2*pi plus the read-out
    in [-pi, pi) whenever |theta| <= pi/2.

    The angle is read in the leaf's own frame, where it is the axis {x2 = x3
    = 0} with normal e2.  The lifts of a simple closed geodesic of length l
    are disjoint, each with an embedded collar of half-width arcsinh(1 /
    sinh(l / 2)) (Keen, "Collars on Riemann surfaces", 1974).  So a segment
    across the leaf, from a far face on the side e2 points into to a near
    face on the other, shorter than that half-width each way, crosses that
    one leaf, and C(far, near) is the rotation about it by -theta.  With P0 =
    {x3 = 0} the near face's plane, the meridian is r(P0) . r(C(near, far) .
    P0): no group and no basepoint enter.  r(P0) is diag(1, 1, 1, -1) in
    every model, and the covector of C(near, far) . P0 is row 3 of C(far,
    near), so the table is one stacked computation, slice by slice that of
    one context.  No slices, a slice tag that is not a Geometry, a theta that
    is not finite (:func:`rotation_pairs`) and a hyperbolic |theta| >= pi
    raise GeometryError.

    The closed form above is what criterion 09, the slope gates of the
    ``double`` command and the benchmark's ``double`` checks compare the
    table with.  The 4x4 round trip (a rotation, two reflections and an
    angle read back) is kept as the independent computation they check;
    returning the closed form itself would test the formula against itself.
    """
    if not slices:
        raise GeometryError("slices is empty: a cone-angle table needs at least one (geometry, scale) slice")
    tags, scales = zip(*slices)
    weight = multicurve.weight
    for tag, s in slices:
        if not isinstance(tag, Geometry):
            raise GeometryError(f"slice tag must be a Geometry, not {tag!r}")
        if tag is HYP and abs(s * weight) >= math.pi:
            raise GeometryError(f"hyperbolic bending angle {s * weight!r} must stay below pi")
    far_to_near = model_matrix(*rotation_pairs([(tag, -(s * weight), 1.0) for tag, s in slices], (0.0, 0.0, 1.0)))
    covectors = _unit_rows(far_to_near[:, 3])
    by_tag = {tag: [j for j, other in enumerate(tags) if other is tag] for tag in dict.fromkeys(tags)}
    meridians = np.empty((len(tags), 4, 4))
    for tag, rows in by_tag.items():
        meridians[rows] = reflection_stack(tag, covectors[rows])
    # Times r(P0) on the left, which negates row 3 exactly.
    meridians[:, 3] *= -1.0
    angles = [0.0] * len(tags)
    for tag, rows in by_tag.items():
        for j, angle in zip(rows, standard_rotation_angles(meridians[rows], tag)):
            angles[j] = angle
            if tag is HYP:
                angles[j] += math.tau * round((2.0 * (math.pi - scales[j] * weight) - angles[j]) / math.tau)
    return angles


def meridian_cone_angle(ctx: BendingContext, word: str, t: float | None = None) -> float:
    """Cone angle of the meridian around a bending line in the double.

    The one-slice table of :func:`meridian_cone_angles` at the context's
    model and sign * scale, with ``t`` in place of the scale when given.  A
    word other than the multicurve's curve raises GeometryError.
    """
    if word != ctx.multicurve.word:
        raise GeometryError(f"{word!r} is not the curve {ctx.multicurve.word!r} of the multicurve")
    scale = ctx.scale if t is None else t
    return meridian_cone_angles(ctx.multicurve, ((ctx.tag, ctx.sign * scale),))[0]


def _parabolic_fixed_direction(g: Isometry) -> np.ndarray:
    """The null direction fixed by a parabolic isometry, as a unit 4-vector."""
    if g.geometry is HP:
        block = g.matrix[:3, :3]
        _, _, vt = np.linalg.svd(block - np.eye(3))
        v = vt[-1]
        out = np.array([v[0], v[1], v[2], 0.0])
    else:
        _, s, vt = np.linalg.svd(g.matrix - np.eye(4))
        kernel = vt[s < 1e-6 * s[0]] if s[0] > 0 else vt
        if kernel.shape[0] == 0:
            kernel = vt[-1:]
        j = g.geometry.form_matrix
        gram = kernel @ j @ kernel.T
        if kernel.shape[0] == 1:
            out = kernel[0]
        else:
            _, _, wt = np.linalg.svd(gram)
            out = wt[-1] @ kernel
    out = out / np.linalg.norm(out)
    return out if out[0] >= 0 else -out


def _moves_direction(g: Isometry, v: np.ndarray) -> float:
    image = g.matrix @ v
    image = image / np.linalg.norm(image)
    return float(min(np.max(np.abs(image - v)), np.max(np.abs(image + v))))


@dataclass(frozen=True, eq=False)
class CuspStabilizerReport:
    """Diagnostics for a doubled cusp: commutation, type, and independence."""

    cusp_class: str
    commutator_norm: float
    shared_point_residual: float
    rank2_defect: float


def cusp_stabilizer_check(doubled: DoubledHolonomy, cusp_word: str) -> CuspStabilizerReport:
    """Verify that a doubled cusp has a rank-2 abelian stabilizer.

    The two candidate generators are the holonomy of ``cusp_word`` and the
    face product e1.  The report records whether the cusp holonomy
    is parabolic, how far the two generators are from commuting, how far the
    face product moves the cusp's fixed ideal point, and the smallest
    deviation of any mixed power c^m e^n (0 < |m|, |n| <= 4) from the
    identity — a genuine rank-2 pair keeps that defect large.
    """
    c = doubled(cusp_word)
    pair = doubled.reflections[1] @ doubled.reflections[0]
    commutator = (c @ pair @ c.inverse() @ pair.inverse()).matrix
    commutator_norm = float(np.max(np.abs(commutator - np.eye(4))))
    cusp_class = classify_isometry(c)
    if cusp_class == "parabolic":
        v = _parabolic_fixed_direction(c)
        shared = max(_moves_direction(c, v), _moves_direction(pair, v))
    else:
        shared = np.inf
    c_powers = {m: np.linalg.matrix_power(c.matrix, m) for m in range(-4, 5)}
    p_powers = {n: np.linalg.matrix_power(pair.matrix, n) for n in range(-4, 5)}
    defect = np.inf
    for m in range(-4, 5):
        for n in range(-4, 5):
            if m == 0 and n == 0:
                continue
            defect = min(defect, float(np.max(np.abs(c_powers[m] @ p_powers[n] - np.eye(4)))))
    return CuspStabilizerReport(
        cusp_class=cusp_class,
        commutator_norm=commutator_norm,
        shared_point_residual=float(shared),
        rank2_defect=defect,
    )
