"""Rescaled holonomy families and their half-pipe limits.

Bending a surface by angles proportional to t produces structures that
collapse onto the bending surface as t -> 0; conjugating by the rescaling
diag(1, 1, 1, 1/|t|) blows the collapse back up, and the rescaled families
converge to half-pipe data.  This module builds those families over a fixed
Fuchsian base (hyperbolic for t > 0, anti-de Sitter for t < 0), one stacked
product per grid, extrapolates their limits by Neville's scheme in |t|^p with
the leading order p read off the samples nearest 0, both sides in one pass,
fits empirical convergence orders as closed-form least-squares slopes of
log residual against log |t|, and packages the diagnostics for reporting,
together with the uniform convergence of the rescaled bent surfaces to the
half-pipe surface.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from halfpipe.bending import BendingContext, _bracketed_product, _crossings_to, _develop, bent_holonomy
from halfpipe.fuchsian import PuncturedTorusGroup, WeightedMulticurve, holonomy_segment_crossings
from halfpipe.geometry import ADS, HP, HYP, Geometry, GeometryError, embed_h2_vector

# Default geometric basepoint for fixed-base families; off the axis leaves of
# the short punctured-torus curves.
DEFAULT_BASE_POINT = (0.11, 0.07)

# Signed default grid: hyperbolic side positive, anti-de Sitter side negative.
DEFAULT_GRID = (-1e-1, 1e-1, -1e-2, 1e-2, -1e-3, 1e-3, -1e-4, 1e-4)

# Two-sided limits and matrix identities of limits are compared at this scale.
EPS_LIMIT = 1e-6

# Residuals below this scale count as exactly converged when fitting orders.
EPS_RESIDUAL_FLOOR = 1e-14


class InsufficientGridError(GeometryError):
    """Too few grid values: a family needs one, extrapolation three on each side."""


def normalized_projective(m: np.ndarray, ts: list[float] | None = None) -> np.ndarray:
    """Scale a matrix to a canonical representative of its projective class.

    Divides by the bottom-right entry when it carries weight; otherwise
    Frobenius-normalizes (the sign ambiguity left by that branch is handled
    by :func:`projective_distance`), a (k, 4, 4) stack matrix by matrix.
    Raises GeometryError for the zero matrix and for a Frobenius norm that is
    not finite, naming its matrix's value in ``ts``, one per matrix, if given.
    """
    m = np.asarray(m, dtype=float)
    scale = np.abs(m).max(axis=(-2, -1))
    if (scale == 0.0).any():
        raise GeometryError("the zero matrix has no projective class")
    divisor = np.array(m[..., 3, 3])
    # Written so that a NaN divisor counts as weak too.
    weak = ~(np.abs(divisor) > 1e-8 * scale)
    if weak.any():
        # A norm that overflows is refused below, by its t, instead of warned about.
        with np.errstate(over="ignore"):
            for i in np.ndindex(divisor.shape):
                if weak[i]:
                    divisor[i] = np.linalg.norm(m[i])
        if not np.isfinite(divisor).all():
            where = "" if ts is None else f" at t = {[ts[i] for i in np.flatnonzero(~np.isfinite(divisor))]}"
            raise GeometryError(f"the Frobenius norm of the matrix{where} is not finite")
    return m / divisor[..., None, None]


def _projective_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise gap between normalized matrices up to sign, slice by slice for stacks."""
    return np.minimum(np.abs(a - b).max(axis=(-2, -1)), np.abs(a + b).max(axis=(-2, -1)))


def projective_distance(m1: np.ndarray, m2: np.ndarray) -> float:
    """Entrywise gap between projective classes of two matrices."""
    return float(_projective_gap(normalized_projective(m1), normalized_projective(m2)))


def geometry_of(t: float) -> Geometry:
    """The model at parameter t: hyperbolic, anti-de Sitter or half-pipe as t is >, < or = 0."""
    return HYP if t > 0 else ADS if t < 0 else HP


def signed_context(
    group: PuncturedTorusGroup,
    multicurve: WeightedMulticurve,
    base_point: np.ndarray,
    sign: float,
    t: float,
) -> BendingContext:
    """The context bending by |t| times the weights in the model of t; at t = 0, the half-pipe limit.

    Angles are signed t * a: the anti-de Sitter side (t < 0) bends the other
    way, which is what makes its rescaled limit agree with the hyperbolic
    side's.  That limit, the context at t = 0, bends at full weights.
    """
    return BendingContext(
        group=group,
        multicurve=multicurve,
        base_point=base_point,
        tag=geometry_of(t),
        sign=-sign if t < 0 else sign,
        scale=abs(t) or 1.0,
    )


def _signed_slices(grid, multicurve: WeightedMulticurve, sign: float) -> tuple[tuple[float, ...], list[tuple]]:
    """The checked grid, sorted by |t|, and each t's slice of a rescaled product: (model of t, sign * t, |t|)."""
    weight, ts = float(multicurve.weight), tuple(float(t) for t in grid)
    if not ts:
        raise InsufficientGridError("grid is empty: a family needs at least one nonzero t")
    if not all(math.isfinite(t) for t in ts):
        raise GeometryError(f"grid values must be finite; got {list(ts)}")
    if any(t == 0.0 for t in ts):
        raise GeometryError("grid values must be nonzero")
    if len(set(ts)) != len(ts):
        raise GeometryError("grid values must be distinct")
    ts = tuple(sorted(ts, key=lambda t: (abs(t), t)))
    # A subnormal angle has lost digits, which its turn, rescaled by 1/|t|, would carry.
    lossy = [t for t in ts if abs(t * weight) < sys.float_info.min]
    if lossy:
        raise GeometryError(f"the bending angle |t| * {weight!r} is subnormal at t = {lossy}")
    return ts, [(geometry_of(t), sign * t, abs(t)) for t in ts]


@dataclass(frozen=True, eq=False)
class TransitionFamily:
    """Rescaled holonomy matrices of one word over a signed t-grid.

    Entry i is rho_{t_i}(word) conjugated by diag(1, 1, 1, 1/|t_i|), where rho_t
    bends by |t| times the weights, in the hyperbolic model for t > 0 and the
    anti-de Sitter model for t < 0, stacked in grid order, sorted by |t|.
    """

    word: str
    grid: tuple[float, ...]
    matrices: np.ndarray


def holonomy_family(
    group: PuncturedTorusGroup,
    multicurve: WeightedMulticurve,
    sign: float,
    word: str,
    base_point=DEFAULT_BASE_POINT,
    grid=DEFAULT_GRID,
) -> TransitionFamily:
    """Rescaled bent-holonomy family of a word over the signed grid.

    For each grid value t the word's bent holonomy is computed with weights
    scaled by |t| (hyperbolic for t > 0, anti-de Sitter for t < 0) and
    conjugated by diag(1,1,1,1/|t|), as one product over R[mu], mu^2 =
    -sign(t) t^2, whose turns are rescaled: a t whose square underflows gives
    the half-pipe matrix, and one whose angle t * weight is subnormal is
    refused.  The leaf crossings of [x0, word . x0] are queried once, and the
    grid is one stacked product, slice by slice that of ``signed_context`` at t.
    """
    ts, slices = _signed_slices(grid, multicurve, sign)
    # The context checks the basepoint and the sign.
    ctx = signed_context(group, multicurve, base_point, sign, ts[0])
    crossings = holonomy_segment_crossings(group, multicurve, ctx._base, word)
    # The steps of a long curve's leaf words overflow; extrapolate_limit refuses that, naming the t.
    with np.errstate(over="ignore", invalid="ignore"):
        matrices = _bracketed_product(group, multicurve, crossings, word, slices)
    return TransitionFamily(word=word, grid=ts, matrices=matrices)


def richardson_limit(samples, order: float = 1.0) -> np.ndarray:
    """Richardson extrapolation of a matrix family at t -> 0.

    ``samples`` is a sequence of (t, matrix) pairs; the two of smallest |t|
    cancel the leading error term of the given order p:
    (|t2|^p m(t1) - |t1|^p m(t2)) / (|t2|^p - |t1|^p).  The default p = 1
    handles generic families; pass the fitted order when it is known to be
    higher (rescaled families are often even in t).  Raises GeometryError
    for a t or an order that is not finite, an order that is not positive,
    and when the two samples of smallest |t| weigh the same, as the two sides
    of a signed grid do.
    """
    pairs = sorted(((float(t), np.asarray(m, dtype=float)) for t, m in samples), key=lambda p: abs(p[0]))
    if len(pairs) < 2:
        raise InsufficientGridError("Richardson extrapolation needs at least two samples")
    if not all(math.isfinite(t) for t, _ in pairs):
        raise GeometryError(f"sample parameters must be finite; got t = {[t for t, _ in pairs]}")
    # Written so that a NaN order fails too.
    if not (order > 0.0 and math.isfinite(order)):
        raise GeometryError(f"the error order must be positive and finite; got {order!r}")
    (t1, m1), (t2, m2) = pairs[0], pairs[1]
    w1, w2 = abs(t1) ** order, abs(t2) ** order
    if w1 == w2:
        raise GeometryError(
            f"the two samples of smallest |t|, {abs(t1)!r} and {abs(t2)!r}, have equal weights |t|^{order!r}"
        )
    return _richardson_step(w1, m1, w2, m2)


def _richardson_step(w1, m1: np.ndarray, w2, m2: np.ndarray) -> np.ndarray:
    """(w2 m1 - w1 m2) / (w2 - w1) for the weights w = |t|^p: exact for m(t) = m0 + |t|^p m1; broadcasts."""
    return (w2 * m1 - w1 * m2) / (w2 - w1)


def least_squares_slope(xs, ys) -> float:
    """The least-squares slope of ys against xs, in closed form in Python floats.

    Centred on x / max|x|, so that no square under- or overflows: the sum of
    d (y - mean y) over the sum of d^2, divided by max|x|, d the offsets of
    x / max|x| from their mean.  Raises GeometryError for fewer than two
    distinct x, which fix no slope.
    """
    if len(set(xs)) < 2:
        raise GeometryError(f"a least-squares slope needs at least two distinct x; got {list(xs)}")
    top = max(abs(x) for x in xs)
    scaled = [x / top for x in xs]
    middle = sum(scaled) / len(scaled)
    offsets = [s - middle for s in scaled]
    mean = sum(ys) / len(ys)
    return sum(d * (y - mean) for d, y in zip(offsets, ys)) / sum(d * d for d in offsets) / top


def _fit_order(ts, residuals) -> float:
    """The convergence order: the least-squares slope of log residual against log |t| over the live residuals.

    A residual is live above EPS_RESIDUAL_FLOOR.  The order is infinite when
    fewer than two are live (a family converged to rounding), and NaN when a
    residual is not finite, which no floor can make converged.
    """
    if not all(math.isfinite(r) for r in residuals):
        return math.nan
    live = [(math.log(abs(t)), math.log(r)) for t, r in zip(ts, residuals) if r > EPS_RESIDUAL_FLOOR]
    if len(live) < 2:
        return math.inf
    xs, ys = zip(*live)
    return least_squares_slope(xs, ys)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Extrapolated limit of a transition family with residual diagnostics.

    The residuals measure each grid matrix against its own side's Richardson
    limit in the projective metric; orders are closed-form least-squares
    slopes of log residual against log |t| (infinite for families converged
    to rounding).  The headline limit averages the two one-sided limits after
    projective normalization.
    """

    word: str
    grid: tuple[float, ...]
    residuals: tuple[float, ...]
    limit: np.ndarray
    order_positive: float
    order_negative: float
    two_sided_gap: float


def extrapolate_limit(family: TransitionFamily) -> ConvergenceReport:
    """Measured-order Neville limits of both sides in one pass, with order and gap diagnostics.

    Each side's first three samples (those of smallest |t| in a family's
    sorted grid) give its leading order p, from the ratio of consecutive
    differences (each dominated by its larger-|t| member), and Neville's
    scheme in |t|^p, exact for the terms of orders 0, p and 2p; a side whose
    differences are converged to rounding takes its first sample.  Each step
    is element-wise, so running it once over both sides, each with its own
    weights, gives each side's limit bit for bit.  Orders are closed-form
    log-log slopes (:func:`_fit_order`).
    """
    grid = [float(t) for t in family.grid]
    # One stack with the t <= 0 side first, each side in grid order.
    order = sorted(range(len(grid)), key=lambda i: grid[i] > 0)
    split = sum(not t > 0 for t in grid)
    if min(split, len(grid) - split) < 3:
        raise InsufficientGridError("need at least three grid points per side")
    matrices = np.asarray(family.matrices, dtype=float)
    finite = np.isfinite(matrices).all(axis=(1, 2)).tolist()
    if not all(finite):
        bad = [t for t, ok in zip(grid, finite) if not ok]
        raise GeometryError(f"the rescaled holonomy of {family.word!r} is not finite at t = {bad}")
    grid, matrices = [grid[i] for i in order], matrices[order]
    normalized = normalized_projective(matrices, grid)
    # Rows of each side's first three samples, the t <= 0 side first.
    heads = np.array(((0, 1, 2), (split, split + 1, split + 2)))
    firsts = normalized[heads]
    steps = _projective_gap(firsts[:, :2], firsts[:, 1:]).tolist()
    limits = matrices[heads[:, 0]]
    live, weights = [], []
    for side, ((d1, d2), row) in enumerate(zip(steps, heads.tolist())):
        if min(d1, d2) > EPS_RESIDUAL_FLOOR:
            t1, t2, t3 = (abs(grid[i]) for i in row)
            p = max(1, round(math.log(d2 / d1) / math.log(t3 / t2)))
            live.append(side)
            weights.append((t1**p, t2**p, t3**p))
    if live:
        w1, w2, w3 = np.array(weights).T[:, :, np.newaxis, np.newaxis]
        m1, m2, m3 = matrices[heads[live]].transpose(1, 0, 2, 3)
        near, far = _richardson_step(w1, m1, w2, m2), _richardson_step(w2, m2, w3, m3)
        limits[live] = _richardson_step(w1, near, w3, far)
    limits = normalized_projective(limits)
    residuals = _projective_gap(normalized, np.repeat(limits, (split, len(grid) - split), axis=0)).tolist()
    order_negative = _fit_order(grid[:split], residuals[:split])
    order_positive = _fit_order(grid[split:], residuals[split:])
    pairs = sorted(zip(grid, residuals), key=lambda pair: (abs(pair[0]), pair[0]))
    b, a = limits
    if float(np.sum(a * b)) < 0.0:
        b = -b
    return ConvergenceReport(
        word=family.word,
        grid=tuple(t for t, _ in pairs),
        residuals=tuple(r for _, r in pairs),
        limit=0.5 * (a + b),
        order_positive=order_positive,
        order_negative=order_negative,
        two_sided_gap=float(_projective_gap(a, b)),
    )


def direct_hp_matrix(
    group: PuncturedTorusGroup,
    multicurve: WeightedMulticurve,
    sign: float,
    word: str,
    base_point=DEFAULT_BASE_POINT,
) -> np.ndarray:
    """The word's holonomy in the half-pipe model at full weights."""
    return bent_holonomy(signed_context(group, multicurve, base_point, sign, 0.0))(word).matrix


@dataclass(frozen=True, eq=False)
class PleatedConvergenceReport:
    """Chart residuals of rescaled bent surfaces against the half-pipe graph."""

    grid: tuple[float, ...]
    max_residuals: tuple[float, ...]
    order_positive: float
    order_negative: float


def pleated_surface_convergence(
    group: PuncturedTorusGroup,
    multicurve: WeightedMulticurve,
    sign: float,
    samples,
    base_point=DEFAULT_BASE_POINT,
    grid=DEFAULT_GRID,
) -> PleatedConvergenceReport:
    """Uniform-on-samples convergence of rescaled bent surfaces.

    For each grid value t, develops every sample point onto the surface bent
    by |t| times the weights, rescales by diag(1,1,1,1/|t|), and measures the
    affine-chart distance to the half-pipe surface bent at full weights; each
    point's leaf crossings are found once, and its grid is one stacked
    product.  Reports the per-t maxima and the log-log order on each side.
    """
    ts, slices = _signed_slices(grid, multicurve, sign)
    hp_ctx = signed_context(group, multicurve, base_point, sign, 0.0)
    maxima = np.zeros(len(ts))
    for z in samples:
        p, crossings = _crossings_to(hp_ctx, z)
        vecs = _bracketed_product(group, multicurve, crossings, "", slices) @ embed_h2_vector(p)
        gaps = np.max(np.abs(vecs[:, 1:] / vecs[:, :1] - _develop(hp_ctx, p, crossings).affine_chart()), axis=1)
        maxima = np.maximum(maxima, gaps)
    def side_order(positive: bool) -> float:
        side = [(t, r) for t, r in zip(ts, maxima.tolist()) if (t > 0) == positive]
        return _fit_order(*zip(*side)) if len(side) >= 2 else math.nan
    return PleatedConvergenceReport(
        grid=ts,
        max_residuals=tuple(maxima.tolist()),
        order_positive=side_order(True),
        order_negative=side_order(False),
    )
