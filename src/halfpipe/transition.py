"""Rescaled holonomy families and their half-pipe limits.

Bending a surface by angles proportional to t produces structures that
collapse onto the bending surface as t -> 0; conjugating by the rescaling
diag(1, 1, 1, 1/|t|) blows the collapse back up, and the rescaled families
converge to half-pipe data.  This module builds those families over a fixed
Fuchsian base (hyperbolic for t > 0, anti-de Sitter for t < 0), one stacked
product per grid, extrapolates their limits by Neville's scheme in |t|^p with
the leading order p read off the samples nearest 0, fits empirical convergence
orders, and packages the diagnostics for reporting, together with the
uniform convergence of the rescaled bent surfaces to the half-pipe surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from halfpipe.bending import BendingContext, _bracketed_product, _crossings_to, bending_map, bent_holonomy
from halfpipe.fuchsian import PuncturedTorusGroup, WeightedMulticurve, holonomy_segment_crossings
from halfpipe.geometry import ADS, HP, HYP, Geometry, GeometryError, embed_h2_vector
from halfpipe.isometry import rescale_conjugate

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


def normalized_projective(m: np.ndarray) -> np.ndarray:
    """Scale a matrix to a canonical representative of its projective class.

    Divides by the bottom-right entry when it carries weight; otherwise
    Frobenius-normalizes (the sign ambiguity left by that branch is handled
    by :func:`projective_distance`), a (k, 4, 4) stack matrix by matrix.
    """
    m = np.asarray(m, dtype=float)
    scale = np.abs(m).max(axis=(-2, -1))
    if (scale == 0.0).any():
        raise GeometryError("the zero matrix has no projective class")
    divisor = np.array(m[..., 3, 3])
    # Written so that a NaN divisor counts as weak too.
    weak = ~(np.abs(divisor) > 1e-8 * scale)
    if weak.any():
        for i in np.ndindex(divisor.shape):
            if weak[i]:
                divisor[i] = np.linalg.norm(m[i])
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
    """The context bending by |t| times the weights in the model of t.

    Angles are signed t * a: the anti-de Sitter side (t < 0) bends the other
    way, which is what makes its rescaled limit agree with the hyperbolic
    side's.
    """
    return BendingContext(
        group=group,
        multicurve=multicurve,
        base_point=base_point,
        tag=geometry_of(t),
        sign=-sign if t < 0 else sign,
        scale=abs(t),
    )


def _checked_grid(grid) -> tuple[float, ...]:
    ts = tuple(float(t) for t in grid)
    if not ts:
        raise InsufficientGridError("grid is empty: a family needs at least one nonzero t")
    if any(t == 0.0 for t in ts):
        raise GeometryError("grid values must be nonzero")
    if len(set(ts)) != len(ts):
        raise GeometryError("grid values must be distinct")
    return tuple(sorted(ts, key=lambda t: (abs(t), t)))


@dataclass(frozen=True, eq=False)
class TransitionFamily:
    """Rescaled holonomy matrices of one word over a signed t-grid.

    Entry i is rescale_conjugate(t_i, rho_{t_i}(word)) where rho_t bends by
    |t| times the weights, in the hyperbolic model for t_i > 0 and the
    anti-de Sitter model for t_i < 0, stacked in grid order, sorted by |t|.
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
    conjugated by the rescaling diag(1,1,1,1/|t|).  The leaf crossings of
    [x0, word . x0] do not depend on t: they are queried once, and the grid
    is one stacked product, slice by slice that of ``signed_context`` at t.
    """
    ts = _checked_grid(grid)
    # The context checks the basepoint and the sign.
    ctx = signed_context(group, multicurve, base_point, sign, ts[0])
    slices = [(geometry_of(t), sign * t) for t in ts]
    crossings = holonomy_segment_crossings(group, multicurve, ctx.base_point, word)
    stack = _bracketed_product(group, multicurve, crossings, word, slices)
    return TransitionFamily(word=word, grid=ts, matrices=rescale_conjugate(np.array(ts), stack))


def richardson_limit(samples, order: float = 1.0) -> np.ndarray:
    """Richardson extrapolation of a matrix family at t -> 0.

    ``samples`` is a sequence of (t, matrix) pairs; the two of smallest |t|
    cancel the leading error term of the given order p:
    (|t2|^p m(t1) - |t1|^p m(t2)) / (|t2|^p - |t1|^p).  The default p = 1
    handles generic families; pass the fitted order when it is known to be
    higher (rescaled families are often even in t).
    """
    pairs = sorted(((float(t), np.asarray(m, dtype=float)) for t, m in samples), key=lambda p: abs(p[0]))
    if len(pairs) < 2:
        raise InsufficientGridError("Richardson extrapolation needs at least two samples")
    if order <= 0.0:
        raise GeometryError("the error order must be positive")
    (t1, m1), (t2, m2) = pairs[0], pairs[1]
    return _richardson_step(t1, m1, t2, m2, order)


def _richardson_step(t1: float, m1: np.ndarray, t2: float, m2: np.ndarray, order: float) -> np.ndarray:
    """(|t2|^p m1 - |t1|^p m2) / (|t2|^p - |t1|^p) for the order p: exact for m(t) = m0 + |t|^p m1."""
    w1, w2 = abs(t1) ** order, abs(t2) ** order
    return (w2 * m1 - w1 * m2) / (w2 - w1)


def _fit_order(ts: np.ndarray, residuals: np.ndarray) -> float:
    live = residuals > EPS_RESIDUAL_FLOOR
    if np.count_nonzero(live) < 2:
        return math.inf
    slope = np.polyfit(np.log(ts[live]), np.log(residuals[live]), 1)[0]
    return float(slope)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Extrapolated limit of a transition family with residual diagnostics.

    The residuals measure each grid matrix against its own side's Richardson
    limit in the projective metric; orders are log-log slopes of residual
    against |t| (infinite for families converged to rounding).  The headline
    limit averages the two one-sided limits after projective normalization.
    """

    word: str
    grid: tuple[float, ...]
    residuals: tuple[float, ...]
    limit: np.ndarray
    order_positive: float
    order_negative: float
    two_sided_gap: float

    def to_json_dict(self) -> dict:
        return {
            "word": self.word,
            "grid": list(self.grid),
            "residuals": list(self.residuals),
            "order_pos": self.order_positive,
            "order_neg": self.order_negative,
            "two_sided_gap": self.two_sided_gap,
        }


def extrapolate_limit(family: TransitionFamily) -> ConvergenceReport:
    """Measured-order Neville limits per side with order and gap diagnostics."""
    grid = [float(t) for t in family.grid]
    # One stack with the t <= 0 side first, each side in grid order, so that each side is a view of it.
    order = sorted(range(len(grid)), key=lambda i: grid[i] > 0)
    split = sum(not t > 0 for t in grid)
    if min(split, len(grid) - split) < 3:
        raise InsufficientGridError("need at least three grid points per side")
    matrices = np.asarray(family.matrices, dtype=float)
    finite = np.isfinite(matrices).all(axis=(1, 2)).tolist()
    if not all(finite):
        bad = [t for t, ok in zip(grid, finite) if not ok]
        raise GeometryError(f"the rescaled holonomy of {family.word!r} is not finite at t = {bad}")
    grid, matrices = np.array(grid)[order], matrices[order]
    normalized = normalized_projective(matrices)
    limits, orders, residuals = {}, {}, []
    for positive, rows in ((True, slice(split, None)), (False, slice(split))):
        ts, side = grid[rows], normalized[rows]
        # The three samples of smallest |t|: the leading order p from the ratio
        # of consecutive differences (each dominated by its larger-|t| member),
        # then Neville's scheme in |t|^p, exact for the terms of orders 0, p and 2p.
        (t1, t2, t3), (m1, m2, m3) = ts[:3].tolist(), matrices[rows][:3]
        d1, d2 = _projective_gap(side[:2], side[1:3]).tolist()
        if min(d1, d2) <= EPS_RESIDUAL_FLOOR:
            limit = m1
        else:
            p = max(1, round(math.log(d2 / d1) / math.log(abs(t3) / abs(t2))))
            near, far = _richardson_step(t1, m1, t2, m2, p), _richardson_step(t2, m2, t3, m3, p)
            limit = _richardson_step(t1, near, t3, far, p)
        limits[positive] = normalized_projective(limit)
        res = _projective_gap(side, limits[positive])
        orders[positive] = _fit_order(np.abs(ts), res)
        residuals.extend(zip(ts.tolist(), res.tolist()))
    residuals.sort(key=lambda pair: (abs(pair[0]), pair[0]))
    a, b = limits[True], limits[False]
    if float(np.sum(a * b)) < 0.0:
        b = -b
    return ConvergenceReport(
        word=family.word,
        grid=tuple(t for t, _ in residuals),
        residuals=tuple(r for _, r in residuals),
        limit=0.5 * (a + b),
        order_positive=orders[True],
        order_negative=orders[False],
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
    base = np.asarray(base_point, dtype=float).reshape(2)
    ctx = BendingContext(
        group=group, multicurve=multicurve, base_point=base, tag=HP, sign=sign, scale=1.0
    )
    return bent_holonomy(ctx)(word).matrix


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
    ts = _checked_grid(grid)
    hp_ctx = BendingContext(group=group, multicurve=multicurve, base_point=base_point, tag=HP, sign=sign, scale=1.0)
    slices = [(geometry_of(t), sign * t) for t in ts]
    inverse_scales = np.array([1.0 / abs(t) for t in ts])
    maxima = np.zeros(len(ts))
    for z in samples:
        z = np.asarray(z, dtype=float).reshape(2)
        vecs = _bracketed_product(group, multicurve, _crossings_to(hp_ctx, z), "", slices) @ embed_h2_vector(z)
        vecs[:, 3] *= inverse_scales
        gaps = np.max(np.abs(vecs[:, 1:] / vecs[:, :1] - bending_map(hp_ctx, z).affine_chart()), axis=1)
        maxima = np.maximum(maxima, gaps)
    def side_order(positive: bool) -> float:
        side = (np.array(ts) > 0) == positive
        return _fit_order(np.abs(np.array(ts)[side]), maxima[side]) if np.count_nonzero(side) >= 2 else math.nan
    return PleatedConvergenceReport(
        grid=ts,
        max_residuals=tuple(maxima.tolist()),
        order_positive=side_order(True),
        order_negative=side_order(False),
    )
