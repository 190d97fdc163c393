"""Doubling bent structures across their boundary surfaces.

Reflecting a bent surface in the support planes of its flat faces doubles the
structure: each face contributes an involution, the products of two face
reflections extend the holonomy to the doubled manifold, meridians around the
bending lines become cone axes, and a cusp of the surface doubles to a torus
cusp.  This module aligns the two boundary surfaces of a half-pipe convex
core by a common conjugating translation and doubles the core across them.
A double has two faces, one per boundary surface, so it extends the
representation to words in the surface generators and one face token, e1
(with its inverse E1).  The module computes meridian cone angles from
adjacent support-plane reflections (a whole table of models and scales as
one stacked computation), and checks that doubled cusp stabilizers are
rank-2 abelian.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from halfpipe.bending import (
    BendingContext,
    BentHolonomy,
    _base_point,
    _bracketed_product,
    bent_holonomy,
)
from halfpipe.fuchsian import EndpointOnLeafError, PuncturedTorusGroup, WeightedMulticurve, segment_crossings
from halfpipe.geometry import HP, HYP, Geometry, GeometryError, Plane, TagMismatchError, _unit_rows
from halfpipe.isometry import (
    Isometry,
    MinkowskiIsometry,
    _group_inverse,
    classify_isometry,
    hp_to_minkowski,
    minkowski_to_hp,
    reflection,
    reflection_stack,
    standard_rotation_angles,
)

# Largest linear-part gap and translation residual of two aligned surfaces.
EPS_ALIGNMENT = 1e-8

# Nudge (disk units) used to sample the two faces adjacent to a bending leaf.
LEAF_NUDGE = 1e-3

_EXTENDED_TOKEN = re.compile(r"[AaBb]|[eE]1")


class FacePointOnLeafError(GeometryError):
    """A face base point lies on a leaf of the bending locus."""


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

    Solves the linear system (Id - A_w) u = v_upper(w) - v_lower(w) over the
    generators, where A_w is the shared linear part and v the translation
    parts.  A solution exists precisely when the two bent holonomies are
    conjugate by a vertical-graph translation.  The pair is refused when the
    linear parts differ by more than EPS_ALIGNMENT or the least-squares
    residual exceeds it, and so is any pair but a positively bent upper and a
    negatively bent lower half-pipe context over one group and one basepoint.
    """
    _check_surface_pair(upper, lower)
    rho_u, rho_l = bent_holonomy(upper), bent_holonomy(lower)
    rows, rhs = [], []
    for word in ("A", "B"):
        mu, ml = hp_to_minkowski(rho_u(word)), hp_to_minkowski(rho_l(word))
        if float(np.abs(mu.linear - ml.linear).max()) > EPS_ALIGNMENT:
            raise NoConjugatingTranslationError(
                f"linear parts of the two holonomies differ on {word!r}"
            )
        rows.append(np.eye(3) - mu.linear)
        rhs.append(mu.translation - ml.translation)
    system, target = np.concatenate(rows), np.concatenate(rhs)
    u, *_ = np.linalg.lstsq(system, target, rcond=None)
    residual = float(np.abs(system @ u - target).max())
    if residual > EPS_ALIGNMENT:
        raise NoConjugatingTranslationError(
            f"no conjugating translation: generator residual {residual:.3e}"
        )
    return minkowski_to_hp(MinkowskiIsometry(np.eye(3), u))


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
    reflections = (mirror, aligner @ mirror @ aligner.inverse())
    return DoubledHolonomy(rho=bent_holonomy(upper), reflections=reflections)


def _adjacent_face_points(group: PuncturedTorusGroup, multicurve: WeightedMulticurve):
    # Nudge across the multicurve's axis at its point nearest the disk centre
    # until the segment between the two points crosses exactly that leaf.
    leaf = group.axis(multicurve.components[0].word)
    anchor = leaf.closest_point_to_origin()
    z = anchor[1:] / anchor[0]
    direction = leaf.normal[1:] - z * leaf.normal[0]
    direction /= np.linalg.norm(direction)
    eps = LEAF_NUDGE
    for _ in range(4):
        near, far = z - eps * direction, z + eps * direction
        try:
            words = segment_crossings(group, multicurve, near, far)[3]
        except EndpointOnLeafError:
            eps *= 0.1
            continue
        if words == [""]:
            return near, far
        eps *= 0.1
    raise GeometryError("could not isolate the leaf between its two adjacent faces")


def meridian_cone_angles(
    group: PuncturedTorusGroup, multicurve: WeightedMulticurve, base_point, slices: Sequence[tuple[Geometry, float]]
) -> list[float]:
    """Cone angles of the meridian around the bending line of the multicurve's curve, one per slice.

    Doubling turns each bending leaf into a cone axis whose meridian is the
    product of the reflections in the two support planes beside the leaf.
    Slice j is (tag, sign * scale) of a context over the group, multicurve
    and basepoint; entry j of the returned list of k floats is its cone
    angle, 2*(pi - theta) in the hyperbolic model and -2*theta in the others,
    for theta = sign * scale * weight.  A hyperbolic angle is read mod 2*pi
    and returned as the representative nearest 2*(pi - theta), which is
    2*pi plus the read-out in [-pi, pi) whenever |theta| <= pi/2.  The leaves
    crossed from x0 to the two faces are queried once each, and the table
    is two stacked products, slice by slice those of one context.  A
    non-finite scale, a hyperbolic |theta| >= pi and a basepoint outside the
    open disk raise GeometryError before any leaf query, and a far face
    point on a leaf FacePointOnLeafError.
    """
    tags, scales = zip(*slices)
    curve = multicurve.components[0]
    weight = curve.weight
    for tag, s in slices:
        if not math.isfinite(s):
            raise GeometryError(f"scale {s!r} is not finite")
        if tag is HYP and abs(s * weight) >= math.pi:
            raise GeometryError(f"hyperbolic bending angle {s * weight!r} must stay below pi")
    base = _base_point(base_point)
    near, far = _adjacent_face_points(group, multicurve)
    near_crossings = segment_crossings(group, multicurve, base, near)
    try:
        far_crossings = segment_crossings(group, multicurve, base, far)
    except EndpointOnLeafError as exc:
        raise FacePointOnLeafError(f"face point {far} lies on a leaf") from exc
    cocycles = _bracketed_product(group, multicurve, near_crossings, "", slices)
    far_cocycles = _bracketed_product(group, multicurve, far_crossings, "", slices)
    phi, phi_inverses = group.axis_frame(curve.word, tags)
    angles = [0.0] * len(tags)
    for tag in dict.fromkeys(tags):
        rows = [j for j, other in enumerate(tags) if other is tag]
        inverses, far_inverses = _group_inverse(cocycles[rows], tag), _group_inverse(far_cocycles[rows], tag)
        # Row 3 of a cocycle's inverse is the covector of its image of {x3 = 0}.
        mirrors = [reflection_stack(tag, _unit_rows(stack[:, 3])) for stack in (inverses, far_inverses)]
        blocks = (phi @ ((inverses @ (mirrors[0] @ mirrors[1])) @ cocycles[rows])) @ phi_inverses[rows]
        for j, angle in zip(rows, standard_rotation_angles(blocks, tag)):
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
    curve = ctx.multicurve.components[0]
    if word != curve.word:
        raise GeometryError(f"{word!r} is not the curve {curve.word!r} of the multicurve")
    scale = ctx.scale if t is None else t
    return meridian_cone_angles(ctx.group, ctx.multicurve, ctx.base_point, ((ctx.tag, ctx.sign * scale),))[0]


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
