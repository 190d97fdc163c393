"""Bending cocycles, bent holonomies, and half-pipe support functions.

Bending deforms the totally geodesic surface {x3 = 0} along the leaves of a
lifted weighted multicurve: crossing a leaf of weight a rotates the ambient
space about that leaf by the angle (sign * scale * a).  The ordered product
of these rotations along an arc is the bending cocycle; composing it with
the Fuchsian holonomy produces the bent holonomy representation, and
applying it to embedded disk points develops the bent (pleated) surface.

In the half-pipe model every bending rotation is a Minkowski translation, so
the bent surface is the graph of a piecewise-affine height function over the
disk; for positive bending that function is concave, vanishes on the face of
the basepoint, and the affine pieces are the support planes of the surface.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from halfpipe.fuchsian import (
    Crossings,
    EndpointOnLeafError,
    PuncturedTorusGroup,
    WeightedMulticurve,
    free_reduce,
    holonomy_segment_crossings,
    invert_word,
    segment_crossings,
)
from halfpipe.geometry import (
    HP,
    Geometry,
    GeometryError,
    OutsideModelError,
    Plane,
    ProjectivePoint,
    TagMismatchError,
    embed_h2_point,
)
from halfpipe.isometry import (
    Isometry,
    embed_h2,
    embed_h2_isometry,
    identity_stack,
    standard_rotations,
)

# Inward pullback (as a fraction of the chord) used to evaluate a bending
# cocycle at a point lying on a leaf from the basepoint side.
PULLBACK = 1e-6


def _base_point(base_point) -> np.ndarray:
    """A basepoint as a read-only array of shape (2,); OutsideModelError unless it lies in the open disk."""
    z = np.array(base_point, dtype=float).reshape(2)
    # Written so that a NaN basepoint fails too.
    if not float(z @ z) < 1.0:
        raise OutsideModelError("the basepoint must lie in the open disk")
    z.flags.writeable = False
    return z


@dataclass(frozen=True, eq=False)
class BendingContext:
    """Everything needed to bend the flat surface along one multicurve.

    The basepoint must be off every leaf; the effective bending angle about a
    crossed leaf of weight ``a`` is ``sign * scale * a``.  Contexts are
    immutable.  Crossing data lives in the group's leaf atlas for the
    multicurve, so every context over one group and multicurve shares it,
    whatever its tag, sign or scale.

    Parameters
    ----------
    group : PuncturedTorusGroup
        The Fuchsian holonomy of the surface.
    multicurve : WeightedMulticurve
        The bending locus with its weights.
    base_point : array of shape (2,)
        Disk coordinates of the basepoint x0.
    tag : Geometry
        Which of the three models the bending lives in.
    sign : float
        +1.0 for positive bending, -1.0 for negative bending.
    scale : float
        Uniform multiplier on all weights (the transition parameter).
    """

    group: PuncturedTorusGroup
    multicurve: WeightedMulticurve
    base_point: np.ndarray
    tag: Geometry
    sign: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_point", _base_point(self.base_point))
        if not isinstance(self.tag, Geometry):
            raise GeometryError(f"tag must be a Geometry, not {self.tag!r}")
        if self.sign not in (1.0, -1.0):
            raise GeometryError("sign must be +1.0 or -1.0")
        if not math.isfinite(self.scale):
            raise GeometryError("scale must be finite")


def _bracketed_product(
    group: PuncturedTorusGroup, multicurve: WeightedMulticurve, crossings: Crossings, closing_word: str,
    slices: Sequence[tuple[Geometry, float]],
) -> np.ndarray:
    """The (k, 4, 4) stack of cocycles along a segment times the unbent holonomy of closing_word.

    ``crossings`` are the segment's leaf crossings from :func:`segment_crossings`,
    the same in every model and scale; slice j is (tag, sign * scale) of one
    context.  Each leaf turns by its side times the slice's angle.  Steps are
    formed once per crossing, the frames of the axis of the curve's root
    (memoised by the group) once, and a crossing whose angle is zero in
    every slice is skipped.

    Rotations about far leaves have matrix entries of size exp(2 distance),
    so multiplying them directly squanders precision on cancellations.  Each
    factor is a group conjugate of a rotation about the curve's axis, so the
    product telescopes into base-axis rotations joined by the holonomies of
    the relative conjugator words; every factor stays moderate when the
    closing word matches the far end of the segment, and the rounding error
    stays on the scale of the answer.
    """
    tags, scales = zip(*slices)
    curve = multicurve.components[0]
    weight = float(curve.weight)
    phi, inverses = group.axis_frame(curve.root, tags)
    _, sides, _, words = crossings
    out = identity_stack(len(tags))
    previous = ""
    for side, word in zip(sides.tolist(), words):
        angles = [side * (scale * weight) for scale in scales]
        if not any(angles):
            continue
        step = free_reduce(invert_word(previous) + word)
        if step:
            out = out @ embed_h2(group.lorentz(step))
        out = out @ ((inverses @ standard_rotations(tags, angles)) @ phi)
        previous = word
    closing = free_reduce(invert_word(previous) + closing_word)
    if closing:
        out = out @ embed_h2(group.lorentz(closing))
    return out


def _context_product(ctx: BendingContext, crossings: Crossings, closing_word: str) -> Isometry:
    """The bracketed product of the context's own slice, as an isometry."""
    slices = ((ctx.tag, ctx.sign * ctx.scale),)
    return Isometry(_bracketed_product(ctx.group, ctx.multicurve, crossings, closing_word, slices)[0], ctx.tag)


def bending_cocycle(ctx: BendingContext, x: np.ndarray, y: np.ndarray) -> Isometry:
    """Ordered product of leaf rotations along the segment from x to y.

    The factor nearest x is leftmost; each rotation turns about the crossed
    leaf oriented away from x, by the context's signed, scaled weight.
    Raises EndpointOnLeafError when an endpoint lies on a leaf.
    """
    return _context_product(ctx, segment_crossings(ctx.group, ctx.multicurve, x, y), "")


def sigma_embed(ctx: BendingContext, word: str) -> Isometry:
    """The unbent holonomy of a word, acting in the plane {x3 = 0}."""
    return embed_h2_isometry(ctx.tag, ctx.group.lorentz(word))


@dataclass(frozen=True, eq=False)
class BentHolonomy:
    """The representation  word -> B(x0, word . x0) . sigma(word)."""

    context: BendingContext

    def __call__(self, word: str) -> Isometry:
        ctx = self.context
        return _context_product(ctx, holonomy_segment_crossings(ctx.group, ctx.multicurve, ctx.base_point, word), word)


def bent_translation(ctx: BendingContext, word: str) -> np.ndarray:
    """The Minkowski translation v(word) of the half-pipe bent holonomy of a word.

    A half-pipe rotation by theta about the leaf of unit normal m is the
    translation by -theta * m, so the bent holonomy (L(w), v(w)) has
    v(w) = -theta * sum_i side_i * n_i over the crossings of [x0, word . x0],
    where n_i is the leaf normal that :func:`holonomy_segment_crossings`
    returns, the group's image of the whole conjugator word applied to the
    unit normal of the axis of the curve's root.  In exact arithmetic this
    is the translation of ``hp_to_minkowski(bent_holonomy(ctx)(word))``;
    here it is formed from those normals alone, with no axis frame and no
    4x4 matrix.
    """
    if ctx.tag is not HP:
        raise TagMismatchError("bent holonomies are Minkowski affine maps in the half-pipe model")
    normals, sides, _, _ = holonomy_segment_crossings(ctx.group, ctx.multicurve, ctx.base_point, word)
    total = np.zeros(3)
    for side, normal in zip(sides.tolist(), normals):
        total += side * normal
    return -(ctx.sign * ctx.scale * float(ctx.multicurve.components[0].weight)) * total


def bent_holonomy(ctx: BendingContext) -> BentHolonomy:
    """The bent holonomy representation of the context."""
    return BentHolonomy(ctx)


def _crossings_to(ctx: BendingContext, x: np.ndarray) -> Crossings:
    """The leaves crossed by [x0, x], evaluating on-leaf points as the limit from the x0 side."""
    try:
        return segment_crossings(ctx.group, ctx.multicurve, ctx.base_point, x)
    except EndpointOnLeafError:
        inner = ctx.base_point + (1.0 - PULLBACK) * (x - ctx.base_point)
        return segment_crossings(ctx.group, ctx.multicurve, ctx.base_point, inner)


def bending_map(ctx: BendingContext, x: np.ndarray) -> ProjectivePoint:
    """Develop the disk point x onto the bent surface.

    Applies the bending cocycle from the basepoint to the canonical embedding
    of x in {x3 = 0}.  A point on a leaf is developed with the cocycle of the
    basepoint side, which is one of the two one-sided limits.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    return _context_product(ctx, _crossings_to(ctx, x), "").apply(embed_h2_point(ctx.tag, x))


def psi_lambda(ctx: BendingContext, z: np.ndarray) -> float:
    """Height of the bent half-pipe surface over the disk point z.

    The sum of ``-(sign * scale * weight) * <eta, (1, z)>`` over the leaves
    crossed by the segment from the basepoint, with each leaf normal eta
    oriented away from the basepoint.  Piecewise affine; concave, nonpositive
    and vanishing on the basepoint's face when the sign is positive.
    """
    if ctx.tag is not HP:
        raise TagMismatchError("the bent-surface height function lives in the half-pipe model")
    z = np.asarray(z, dtype=float).reshape(2)
    normals, sides, _, _ = segment_crossings(ctx.group, ctx.multicurve, ctx.base_point, z)
    z1, z2 = z.tolist()
    coefficient = ctx.sign * ctx.scale * float(ctx.multicurve.components[0].weight)
    total = 0.0
    for side, (n0, n1, n2) in zip(sides.tolist(), normals.tolist()):
        # The unit normal, oriented and divided by its Minkowski norm as SpacelikeGeodesicH2 does.
        n0, n1, n2 = side * n0, side * n1, side * n2
        norm = math.sqrt(-n0 * n0 + n1 * n1 + n2 * n2)
        total -= coefficient * (-(n0 / norm) + (n1 / norm) * z1 + (n2 / norm) * z2)
    return total


def support_plane_at(ctx: BendingContext, x: np.ndarray) -> Plane:
    """The totally geodesic plane carrying the face of the bent surface at x.

    The image of {x3 = 0} under the bending cocycle from the basepoint; the
    bent surface touches it along x's face and stays on one side of it.
    Raises EndpointOnLeafError when x lies on a leaf (two faces meet there).
    """
    x = np.asarray(x, dtype=float).reshape(2)
    return bending_cocycle(ctx, ctx.base_point, x).apply_plane(Plane.base_plane(ctx.tag))
