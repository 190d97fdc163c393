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
    ADS,
    HP,
    DiskPoint,
    Geometry,
    GeometryError,
    Plane,
    ProjectivePoint,
    TagMismatchError,
    disk_point,
    embed_h2_vector,
)
from halfpipe.isometry import (
    Isometry,
    embed_h2_isometry,
    identity_stack,
    model_matrix,
    rotation_pairs,
    split_model_matrix,
)

# Inward pullback (as a fraction of the chord) used to evaluate a bending
# cocycle at a point lying on a leaf from the basepoint side.
PULLBACK = 1e-6

# From this anti-de Sitter angle, 2 asinh(1), a turn is held as its factors a +- m b in SL(2, R) x SL(2, R): their
# difference, of size sinh(angle / 2), reaches 1, while products of a and m b cancel more the larger the angles.
SPLIT_ANGLE = 2.0 * math.asinh(1.0)


@dataclass(frozen=True, eq=False)
class BendingContext:
    """Everything needed to bend the flat surface along one multicurve.

    The basepoint must be off every leaf; the effective bending angle about a
    crossed leaf of weight ``a`` is ``sign * scale * a``.  Contexts are
    immutable.  Crossing data lives in the group's leaf layer, keyed by the
    curve's root, so every context over one group and curve shares it,
    whatever its weight, tag, sign or scale.  The basepoint is checked here,
    once; its DiskPoint from ``disk_point`` goes to the leaf layer unchecked.

    Parameters
    ----------
    group : PuncturedTorusGroup
        The Fuchsian holonomy of the surface.
    multicurve : WeightedMulticurve
        The bending locus with its weights.
    base_point : array of shape (2,)
        Disk coordinates of the basepoint x0, in the open disk; stored read-only.
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
        base_point = np.array(self.base_point, dtype=float).reshape(2)
        object.__setattr__(self, "_base", disk_point(base_point, "the basepoint"))
        base_point.flags.writeable = False
        object.__setattr__(self, "base_point", base_point)
        if not isinstance(self.group, PuncturedTorusGroup):
            raise GeometryError(f"group must be a PuncturedTorusGroup, not {self.group!r}")
        if not isinstance(self.multicurve, WeightedMulticurve):
            raise GeometryError(f"multicurve must be a WeightedMulticurve, not {self.multicurve!r}")
        if not isinstance(self.tag, Geometry):
            raise GeometryError(f"tag must be a Geometry, not {self.tag!r}")
        if self.sign not in (1.0, -1.0):
            raise GeometryError("sign must be +1.0 or -1.0")
        if not math.isfinite(self.scale):
            raise GeometryError("scale must be finite")


def _bracketed_product(
    group: PuncturedTorusGroup, multicurve: WeightedMulticurve, crossings: Crossings, closing_word: str,
    slices: Sequence[tuple[Geometry, float, float]],
) -> np.ndarray:
    """The (k, 4, 4) stack of cocycles along a segment times the unbent holonomy of closing_word.

    ``crossings`` are the segment's leaf crossings from :func:`segment_crossings`,
    the same in every model and scale.  Slice j is (tag, sign * scale, lam) of
    one context conjugated by diag(1, 1, 1, 1/lam), lam = 1 for a context and
    |t| for a family member; each leaf turns by its side times its angle.

    Over R[mu] (:mod:`halfpipe.isometry`) the leaf v . axis(r) of the root r
    turns by g_v R g_v^-1, R = a + mu b the turn about axis(r) and g_v the
    SL(2) image of v.  Telescoped, the product is turns about axis(r) joined
    by the SL(2) images of the relative conjugator words, moderate when the
    closing word matches the far end of the segment, held in the regular
    representation [[a, mu^2 b], [b, a]] and mapped to 4x4 once.  A slice
    whose turns are anti-de Sitter ones by SPLIT_ANGLE or more is held as
    diag(a + m b, a - m b), m^2 = mu^2, instead, and mapped by
    :func:`~halfpipe.isometry.split_model_matrix`: there a and m b grow
    alike and nearly cancel, which their factors in SL(2, R) x SL(2, R) do not.
    """
    _, sides, _, words = crossings
    angles = [(tag, scale * float(multicurve.weight), lam) for tag, scale, lam in slices]
    out = identity_stack(len(angles))
    # A product that turns about no leaf has b = 0, which every mu^2 maps alike.
    mu2 = np.zeros(len(angles))
    crossed = list(zip(sides, words)) if any(angle for _, angle, _ in angles) else []
    split = [tag is ADS and abs(angle) >= SPLIT_ANGLE for tag, angle, _ in angles] if crossed else []
    if crossed:
        a, b, mu2 = rotation_pairs(angles, group.axis(multicurve.root).normal)
        # The regular representations [[a, side mu^2 b], [side b, a]] of the turns on sides +1 and -1,
        # or diag(a + side m b, a - side m b) for the split slices.
        even, odd = np.zeros((2, len(angles), 4, 4))
        even[:, :2, :2] = even[:, 2:, 2:] = a
        odd[:, 2:, :2], odd[:, :2, 2:] = b, mu2[:, np.newaxis, np.newaxis] * b
        if any(split):
            mb = np.sqrt(mu2[split])[:, np.newaxis, np.newaxis] * b[split]
            odd[split] = 0.0
            odd[split, :2, :2], odd[split, 2:, 2:] = mb, -mb
        turns = {1.0: even + odd, -1.0: even - odd}
    legs = [*crossed, (0.0, closing_word)]
    steps = [free_reduce(invert_word(u) + v) for (_, u), (_, v) in zip([(0.0, ""), *legs], legs)]
    # The steps' SL(2) images g, formed in one array; an empty step is skipped, so an overflow never meets 0 * inf.
    for (side, _), step, g in zip(legs, steps, np.array([group.entries(s) for s in steps]).reshape(-1, 2, 2)):
        if step:  # times [[g, 0], [0, g]]
            out = (out.reshape(-1, 4, 2, 2) @ g).reshape(-1, 4, 4)
        if side:
            out = out @ turns[side]
    matrices = model_matrix(out[:, :2, :2], out[:, 2:, :2], mu2)
    if any(split):
        matrices[split] = split_model_matrix(out[split, :2, :2], out[split, 2:, 2:], mu2[split])
    return matrices


def _context_product(ctx: BendingContext, crossings: Crossings, closing_word: str) -> Isometry:
    """The bracketed product of the context's own slice, as an isometry."""
    slices = ((ctx.tag, ctx.sign * ctx.scale, 1.0),)
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
        return _context_product(ctx, holonomy_segment_crossings(ctx.group, ctx.multicurve, ctx._base, word), word)


def bent_translation(ctx: BendingContext, word: str) -> np.ndarray:
    """The Minkowski translation v(word) of the half-pipe bent holonomy of a word.

    A half-pipe rotation by theta about the leaf of unit normal m is the
    translation by -theta * m, so the bent holonomy (L(w), v(w)) has
    v(w) = -theta * sum_i side_i * n_i over the crossings of [x0, word . x0],
    where n_i is the leaf normal row that :func:`holonomy_segment_crossings`
    returns, the group's image of the whole conjugator word applied to the
    unit normal of the axis of the curve's root.  In exact arithmetic this
    is the translation A J3 w of the matrix [[A, 0], [w, 1]] of
    ``bent_holonomy(ctx)(word)``; here it is summed from those rows alone,
    in Python floats in crossing order, with no 4x4 matrix.
    """
    if ctx.tag is not HP:
        raise TagMismatchError("bent holonomies are Minkowski affine maps in the half-pipe model")
    rows, sides, _, _ = holonomy_segment_crossings(ctx.group, ctx.multicurve, ctx._base, word)
    t0 = t1 = t2 = 0.0
    for side, (n0, n1, n2) in zip(sides, rows):
        t0, t1, t2 = t0 + side * n0, t1 + side * n1, t2 + side * n2
    return -(ctx.sign * ctx.scale * float(ctx.multicurve.weight)) * np.array((t0, t1, t2))


def bent_holonomy(ctx: BendingContext) -> BentHolonomy:
    """The bent holonomy representation of the context."""
    return BentHolonomy(ctx)


def _crossings_to(ctx: BendingContext, x) -> tuple[DiskPoint, Crossings]:
    """x checked once, as its triple p, and the leaves crossed by [x0, x], from the x0 side for a point on a leaf."""
    p = disk_point(x)
    try:
        return p, segment_crossings(ctx.group, ctx.multicurve, ctx._base, p)
    except EndpointOnLeafError:
        inner = ctx.base_point + (1.0 - PULLBACK) * (np.array(p[:2]) - ctx.base_point)
        return p, segment_crossings(ctx.group, ctx.multicurve, ctx._base, inner)


def _height(ctx: BendingContext, p: DiskPoint, crossings: Crossings) -> float:
    """The height of the bent half-pipe surface over the disk point p, from the crossings of [x0, p]."""
    rows, sides, _, _ = crossings
    z1, z2, _ = p
    coefficient = ctx.sign * ctx.scale * float(ctx.multicurve.weight)
    total = 0.0
    for side, (n0, n1, n2) in zip(sides, rows):
        # The unit normal, oriented and divided by its Minkowski norm as SpacelikeGeodesicH2 does.
        n0, n1, n2 = side * n0, side * n1, side * n2
        norm = math.sqrt(-n0 * n0 + n1 * n1 + n2 * n2)
        total -= coefficient * (-(n0 / norm) + (n1 / norm) * z1 + (n2 / norm) * z2)
    return total


def _develop(ctx: BendingContext, p: DiskPoint, crossings: Crossings) -> ProjectivePoint:
    """The disk point p developed onto the bent surface by the crossings of [x0, p], as :func:`bending_map` does."""
    lift = embed_h2_vector(p)
    if ctx.tag is HP:
        lift[3] = _height(ctx, p, crossings) * lift[0]
        return ProjectivePoint(lift, HP)
    return _context_product(ctx, crossings, "").apply(ProjectivePoint(lift, ctx.tag))


def bending_map(ctx: BendingContext, x: np.ndarray) -> ProjectivePoint:
    """Develop the disk point x onto the bent surface.

    Applies the bending cocycle from the basepoint to the canonical embedding
    of x in {x3 = 0}.  A point on a leaf is developed with the cocycle of the
    basepoint side, which is one of the two one-sided limits.  In the
    half-pipe model the cocycle is a Minkowski translation, so x develops
    onto the graph of the height :func:`psi_lambda`, with no 4x4 product.
    x is any two numbers, checked once, here; its crossings are found once.
    """
    return _develop(ctx, *_crossings_to(ctx, x))


def psi_lambda(ctx: BendingContext, z: np.ndarray) -> float:
    """Height of the bent half-pipe surface over the disk point z.

    The sum of ``-(sign * scale * weight) * <eta, (1, z)>`` over the leaves
    crossed by the segment from the basepoint, with each leaf normal eta
    oriented away from the basepoint.  Piecewise affine; concave, nonpositive
    and vanishing on the basepoint's face when the sign is positive.  The
    height is continuous across a leaf, so a point on a leaf takes the
    crossings of the basepoint side.  :func:`bending_map` develops its graph.
    z is any two numbers, checked once, here.
    """
    if ctx.tag is not HP:
        raise TagMismatchError("the bent-surface height function lives in the half-pipe model")
    return _height(ctx, *_crossings_to(ctx, z))


def support_plane_at(ctx: BendingContext, x: np.ndarray) -> Plane:
    """The totally geodesic plane carrying the face of the bent surface at x.

    The image of {x3 = 0} under the bending cocycle from the basepoint; the
    bent surface touches it along x's face and stays on one side of it.
    Raises EndpointOnLeafError when x lies on a leaf (two faces meet there).
    """
    return bending_cocycle(ctx, ctx.base_point, x).apply_plane(Plane.base_plane(ctx.tag))
