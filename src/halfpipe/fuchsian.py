"""Fuchsian punctured-torus groups, multicurves, and leaf enumeration.

The base hyperbolic structure is a once-punctured torus, described by trace
coordinates (x, y, z) = (tr A, tr B, tr AB) of a pair of SL(2, R) generators,
subject to the Fricke relation x^2 + y^2 + z^2 = xyz (equivalent to the
commutator [A, B] being parabolic of trace -2, i.e. a cusp).  Holonomies act
on H2 through the adjoint representation SL(2, R) -> SO0(1, 2) on trace-free
2x2 matrices with the Minkowski norm -det.

Two distinct simple closed curves on this surface meet, so a measured
multicurve is one weighted curve (``WeightedMulticurve``).  Its preimage in
H2, the leaves, are the lifts of the axis of the curve's cyclic reduction r
(its root): they depend on r alone.  The translates w.Q of an ideal
quadrilateral Q with sides paired by A and B (Jorgensen, "On pairs of
once-punctured tori"), one per reduced word w, tile the disk; tiles whose
words differ by one letter on the right share a side.  The sides are
disjoint geodesics, so a side separates two points exactly when it lies on
the path of this adjacency tree (the Cayley tree of F(A, B)) between their
tiles (C. Series, "The geometry of Markoff numbers", 1985), and the tiles
meeting a ball are connected: crossing queries are complete by construction.

Every leaf query is one pipeline: a tile source, then one leaf namer
(``_tile_leaves``, the lifts v . axis(r) through those tiles in walk order,
each with the normal L(v) . n from the group's Lorentz image of the whole
word v), then one sign test (``_crossings``, the leaves whose pairings with
the two ends differ in sign; it raises EndpointOnLeafError for an end on a
leaf).  Leaf normals pass between the steps, and on to the bending layer, as
rows (n0, n1, n2) of Python floats, not arrays.  A disk point is checked
once, by ``geometry.disk_point``, where it enters a public function or a
bending context, and passes inward as the DiskPoint (z1, z2, sqrt(1 - |z|^2))
it returns, which public functions take unchecked.  There are two tile sources:

- the atlas ball: each group keeps a leaf atlas per curve root, the leaves
  meeting the hyperbolic ball B(o, ATLAS_RADIUS) about the disk centre o,
  found by one search on first use and never changed; segments inside the
  ball are answered from it;
- the tree path: a segment meets the tiles on the tree path between the
  tiles of its ends.  It answers segments past the atlas, and each [x0,
  g.x0], whose far tile is the g-image of the near one (g.x0 is checked
  once formed: OutsideModelError when it rounds onto the rim).

Both find tiles by one search about a point (``_tiles_within``), which
raises EnumerationBudgetError past MAX_NODES tiles (as deep in a cusp) and
GeometryError for a side pairing that is not finite (as next to the rim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from halfpipe.geometry import DiskPoint, GeometryError, SpacelikeGeodesicH2, as_disk_point, disk_point
from halfpipe.isometry import adjoint_rows

# |x^2 + y^2 + z^2 - xyz| accepted as "on the relation variety": at most EPS_FRICKE while the terms
# x^2 + y^2 + z^2 + |xyz| stay below about 5.6e5, and EPS_FRICKE_RELATIVE times the terms past them.
EPS_FRICKE = 1e-9
EPS_FRICKE_RELATIVE = 16.0 * 2.0**-53
# A leaf whose pairing with a segment endpoint is below this passes through it.
EPS_ENDPOINT = 1e-9

# The budget of tiles that one tile search tests.
MAX_NODES = 400_000

# The hyperbolic radius of the ball about the disk centre that a leaf atlas
# covers (Klein radius tanh 2.5 = 0.987).
ATLAS_RADIUS = 2.5

# The Kerckhoff search's step budget and default tolerance of the projected gradient norm.
KERCKHOFF_MAX_STEPS = 50
KERCKHOFF_GRADIENT_TOL = 1e-7

GENERATOR_LETTERS = "ABab"


class BadTracesError(GeometryError):
    """Trace coordinates violate the cusped punctured-torus constraints."""


class NotHyperbolicError(GeometryError):
    """A group element expected to be hyperbolic is not."""


class BadWordError(GeometryError):
    """A curve word is empty, uses letters outside A, B, a, b, or is not one simple closed curve."""


class EndpointOnLeafError(GeometryError):
    """A segment endpoint lies on a leaf of the multicurve preimage."""


class EnumerationBudgetError(GeometryError):
    """A tile search, of the atlas ball or about an end of a tree path, tested more than MAX_NODES tiles.

    The message and the attributes give the tiles tested, the shell of the
    search reached and the region searched.
    """

    def __init__(self, nodes: int, depth: int, region: str):
        super().__init__(f"leaf enumeration exceeded the node budget after {nodes} nodes at depth {depth} ({region})")
        self.nodes = nodes
        self.depth = depth
        self.region = region


class NoConvergenceError(GeometryError):
    """The length minimization did not reach the requested tolerance.

    The message and the attributes give the projected gradient norm where
    the minimization stopped, the tolerance and the number of steps taken.
    """

    def __init__(self, gradient_norm: float, tolerance: float, steps: int):
        super().__init__(
            f"length minimization did not reach the gradient tolerance {tolerance:.3e}: "
            f"projected gradient norm {gradient_norm:.3e} after {steps} steps"
        )
        self.gradient_norm = gradient_norm
        self.tolerance = tolerance
        self.steps = steps


# ---------------------------------------------------------------------------
# Words in the free group on A, B, and their images in SL(2, R).
# ---------------------------------------------------------------------------

# A 2x2 matrix [[a, b], [c, d]] is held as its entries (a, b, c, d), a 3x3 one as its rows, in Python floats.
SL2 = tuple[float, float, float, float]
Rows = tuple[tuple[float, float, float], tuple[float, float, float], tuple[float, float, float]]


def _check_word(word: str) -> str:
    if not word or any(ch not in GENERATOR_LETTERS for ch in word):
        raise BadWordError(f"curve words are nonempty strings over A, B, a, b; got {word!r}")
    return word


def invert_word(word: str) -> str:
    if not word:
        return ""
    return _check_word(word)[::-1].swapcase()


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _cyclic_reduce(word: str) -> str:
    w = free_reduce(word)
    while len(w) > 1 and w[0] == w[-1].swapcase():
        w = w[1:-1]
    return w


def words_conjugate(w1: str, w2: str) -> bool:
    """Whether two words are conjugate in the free group (cyclic equality)."""
    a, b = _cyclic_reduce(w1), _cyclic_reduce(w2)
    if len(a) != len(b):
        return False
    return b in (a + a) if a else b == ""


def word_homology(word: str) -> tuple[int, int]:
    """Exponent sums (over A and over B) of a word."""
    _check_word(word)
    return (
        word.count("A") - word.count("a"),
        word.count("B") - word.count("b"),
    )


def christoffel(p: int, q: int) -> str:
    """The lower Christoffel word with |p| letters A and |q| letters B, signed by p and q.

    Letter i (from 1) is B exactly when floor(i |q| / (|p| + |q|)) steps up.
    """
    n = abs(p) + abs(q)
    a, b = ("A" if p > 0 else "a"), ("B" if q > 0 else "b")
    return "".join(b if (i * abs(q)) // n > ((i - 1) * abs(q)) // n else a for i in range(1, n + 1))


def translation_length_sl2(g) -> float:
    """2 arccosh(|tr|/2) for hyperbolic elements, 0 otherwise; g is a 2x2 matrix, an array or rows ((a, b), (c, d))."""
    (a, _), (_, d) = g
    half = abs(a + d) / 2.0
    return 2.0 * math.acosh(half) if half > 1.0 else 0.0


def axis_of_sl2(g) -> SpacelikeGeodesicH2:
    """The oriented axis of a hyperbolic 2x2 matrix (as for :func:`translation_length_sl2`), repelling to attracting.

    The normal is the trace-free part of g, in the coordinates of
    :func:`~halfpipe.isometry.adjoint_rows`, signed by the trace; the
    left-normal convention makes the attracting ideal endpoint the forward one.
    """
    (a, b), (c, d) = g
    tr = a + d
    if abs(tr) <= 2.0 + 1e-9:
        raise NotHyperbolicError(f"axis needs |trace| > 2; got {tr:.6f}")
    sign = math.copysign(1.0, tr)
    return SpacelikeGeodesicH2(((c - b) / 2.0 * sign, (a - tr / 2.0) * sign, (c + b) / 2.0 * sign))


# ---------------------------------------------------------------------------
# Trace coordinates and the group normal form.
# ---------------------------------------------------------------------------


def fricke_defect(x: float, y: float, z: float) -> float:
    return x * x + y * y + z * z - x * y * z


def _fricke_bound(x: float, y: float, z: float) -> float:
    return max(EPS_FRICKE, EPS_FRICKE_RELATIVE * (x * x + y * y + z * z + abs(x * y * z)))


@dataclass(frozen=True)
class TeichPoint:
    """Trace coordinates (x, y, z), all > 2, on the Fricke variety.

    The float defect x^2 + y^2 + z^2 - xyz may reach max(EPS_FRICKE,
    EPS_FRICKE_RELATIVE * T), T = x^2 + y^2 + z^2 + |xyz|, EPS_FRICKE_RELATIVE
    = 16u, u = 2^-53.  At z = z*(1 + d), |d| <= u, the root z* of the relation
    rounded, the exact defect is d z*(2 z* - xy) + O(u^2), at most 2u T;
    rounding the terms (xyz twice, the others once) adds at most 2u T and the
    three sums 3u T, as no partial sum exceeds T: 7u T in all, under half the
    bound.  Non-finite traces, and a defect or T that overflow, are refused.
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        if not all(math.isfinite(v) for v in (x, y, z)):
            raise BadTracesError(f"trace coordinates must be finite: ({x!r}, {y!r}, {z!r})")
        if min(x, y, z) <= 2.0:
            raise BadTracesError(f"trace coordinates must all exceed 2: ({x!r}, {y!r}, {z!r})")
        defect, bound = fricke_defect(x, y, z), _fricke_bound(x, y, z)
        # Written so that a defect that overflows to NaN, or terms that overflow to inf, fail too.
        if not abs(defect) <= bound < math.inf:
            raise BadTracesError(f"trace relation violated at traces ({x!r}, {y!r}, {z!r}) (defect {defect:.3e})")

    @classmethod
    def from_xy(cls, x: float, y: float, branch: str = "minus") -> "TeichPoint":
        """Solve the trace relation for z; 'minus'/'plus' pick the roots (xy -+ sqrt(disc)) / 2."""
        if branch not in ("minus", "plus"):
            raise BadTracesError(f"branch must be 'minus' or 'plus', not {branch!r}")
        disc = x * x * y * y - 4.0 * (x * x + y * y)
        # Written so that NaN fails too; past this, xy + sqrt(disc) exceeds 4.
        if not (x > 2.0 and y > 2.0 and disc >= 0.0):
            raise BadTracesError(f"no trace point over ({x!r}, {y!r}): x, y > 2 and x^2 y^2 >= 4 (x^2 + y^2) are needed")
        far = x * y + math.sqrt(disc)
        # The roots multiply to x^2 + y^2, so the minus one is found as a quotient, with no cancellation.
        z = 2.0 * (x * x + y * y) / far if branch == "minus" else far / 2.0
        return cls(x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def _normal_form_generators(x: float, y: float, z: float) -> tuple[SL2, SL2]:
    """Deterministic SL2 pair with traces (x, y, z), as entries (a, b, c, d): A diagonal, B's c > 0."""
    lam = (x + math.sqrt(x * x - 4.0)) / 2.0
    gen_a = (lam, 0.0, 0.0, 1.0 / lam)
    p = (z - y / lam) / (lam - 1.0 / lam)
    s = y - p
    ps = p * s
    # On the trace variety qr = ps - 1 = 4 / (x^2 - 4) > 0, as tr[A, B] = -2, so ps <= 1 comes of rounding alone.
    if not ps > 1.0:
        raise BadTracesError(
            f"generators are reducible; traces do not give a cusped torus: ({x!r}, {y!r}, {z!r}), ps - 1 = {ps - 1.0:.3e}"
        )
    q = r = math.sqrt(ps - 1.0)
    return gen_a, (p, q, r, s)


@dataclass(frozen=True)
class PuncturedTorusGroup:
    """A cusped once-punctured-torus group in deterministic normal form.

    Words over the letters A, B (and inverses a, b) evaluate left-to-right to
    SL2 matrices, and through the adjoint to Lorentz matrices acting on the
    shared hyperbolic plane.  The commutator word is the cusp.

    The group works in Python floats: a word's SL(2) product is its entries
    (a, b, c, d) (``entries``) and its Lorentz image the rows of their
    adjoint (``rows``, :func:`~halfpipe.isometry.adjoint_rows`), each
    computed when first asked for and memoised, with the word's axis.
    ``lorentz`` builds a read-only array of the rows on each call.  The
    group forms the cusp's entries once, for the tile sides (``tile_sides``,
    the side normals of its fundamental quadrilateral as float rows) and the
    cusp check, which refuses the traces (BadTracesError) unless the cusp
    trace + 2, a Fricke defect, is within the Fricke bound.
    The group also keeps one leaf atlas per curve root (``atlas``, a tuple
    of float rows and one of words) and the tiles near the start of each
    tree path (``tiles_near``), but not near its far end, which is often
    fresh.  Each memo holds only what was asked of this group, never a
    failed query, and lives as long as the group.
    """

    trace_point: TeichPoint

    CUSP_WORD = "ABab"

    def __post_init__(self) -> None:
        tp = self.trace_point
        gen_a, gen_b = _normal_form_generators(tp.x, tp.y, tp.z)
        (a, b, c, d), (p, q, r, s) = gen_a, gen_b
        # The inverse of a determinant-one (a, b, c, d) is its adjugate (d, -b, -c, a).
        object.__setattr__(self, "_sl2_gens", {"A": gen_a, "B": gen_b, "a": (d, -b, -c, a), "b": (s, -q, -r, p)})
        object.__setattr__(self, "_sl2", {"": (1.0, 0.0, 0.0, 1.0)})
        object.__setattr__(self, "_cusp", self.entries(self.CUSP_WORD))
        trace = self.cusp_trace()
        if not abs(trace + 2.0) <= _fricke_bound(tp.x, tp.y, tp.z):
            raise BadTracesError(f"constructed group fails the cusp trace check: cusp trace {trace!r}, not -2")
        object.__setattr__(self, "_atlases", {})
        object.__setattr__(self, "_lorentz", {})
        object.__setattr__(self, "_axes", {})
        object.__setattr__(self, "_sides", None)
        object.__setattr__(self, "_near_tiles", {})

    def entries(self, word: str) -> SL2:
        """The word's SL(2) product (a, b, c, d), left to right from the identity; memoised with every prefix.

        A new word extends its longest memoised prefix one letter at a time,
        one 2x2 product in floats each, the products a walk from the identity
        takes, so the bits do not depend on which words were asked for before.
        """
        image = self._sl2.get(word)
        if image is None:
            _check_word(word)
            memo = self._sl2
            # The memoised prefixes of a word are those up to some length: bisect for it.
            low, high = 0, len(word) - 1
            while low < high:
                middle = (low + high + 1) // 2
                low, high = (middle, high) if word[:middle] in memo else (low, middle - 1)
            image = memo[word[:low]]
            for k in range(low + 1, len(word) + 1):
                (a, b, c, d), (e, f, g, h) = image, self._sl2_gens[word[k - 1]]
                image = memo[word[:k]] = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        return image

    def rows(self, word: str) -> Rows:
        """The rows of the word's Lorentz image, the adjoint of its SL(2) product; memoised."""
        rows = self._lorentz.get(word)
        if rows is None:
            rows = self._lorentz[word] = adjoint_rows(*self.entries(word))
        return rows

    def lorentz(self, word: str) -> np.ndarray:
        """The word's Lorentz image (``rows``) as a read-only 3x3 array."""
        image = np.array(self.rows(word))
        image.flags.writeable = False
        return image

    def axis(self, word: str) -> SpacelikeGeodesicH2:
        axis = self._axes.get(word)
        if axis is None:
            a, b, c, d = self.entries(word)
            axis = self._axes[word] = axis_of_sl2(((a, b), (c, d)))
        return axis

    def tile_sides(self) -> tuple[tuple[float, float, float], ...]:
        """Inward unit normals, as float rows, of the sides of the ideal quadrilateral Q.

        Q has the vertices p, a.p, ba.p and Aba.p, p the cusp's fixed point.
        Normal g (in the order A, B, a, b) is that of the side Q shares with g.Q.
        """
        if self._sides is None:
            # The cusp fixes the column space of its matrix plus the identity (rank
            # one); a vector v there maps to the null vector of v (v2, -v1).  The
            # column with the largest absolute sum is v; adding 0.0 writes -0.0 as +0.0.
            c00, c01, c10, c11 = self._cusp
            shifted = ((c00 + 1.0, c10 + 0.0), (c01 + 0.0, c11 + 1.0))
            sizes = [abs(top) + abs(bottom) for top, bottom in shifted]
            u, w = shifted[sizes.index(max(sizes))]
            vertices = []
            for word in ("", "a", "ba", "Aba"):
                a, b, c, d = self.entries(word)
                v1, v2 = a * u + b * w, c * u + d * w
                vertices.append(((v1 * v1 + v2 * v2) / 2.0, v1 * v2, (v2 * v2 - v1 * v1) / 2.0))
            sides = []
            for j in range(4):
                # J3 (u x w) for the ends u, w, made unit and facing the other vertices.
                (u0, u1, u2), (w0, w1, w2) = vertices[j - 1], vertices[j]
                n0, n1, n2 = u2 * w1 - u1 * w2, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0
                p0, p1, p2 = (a + b for a, b in zip(vertices[(j + 1) % 4], vertices[(j + 2) % 4]))
                scale = math.copysign(1.0 / math.sqrt(n1 * n1 + n2 * n2 - n0 * n0), n1 * p1 + n2 * p2 - n0 * p0)
                sides.append((n0 * scale, n1 * scale, n2 * scale))
            object.__setattr__(self, "_sides", tuple(sides))
        return self._sides

    def tiles_near(self, x) -> tuple[str, ...]:
        """The words of the tiles w.Q within EPS_ENDPOINT of the disk point x, the tile that holds it first.

        One tile search about x, of radius 0, with its errors, memoised by (z1, z2) of ``as_disk_point(x)``.
        """
        p = as_disk_point(x)
        tiles = self._near_tiles.get(p[:2])
        if tiles is None:
            tiles = self._near_tiles[p[:2]] = tuple(_tiles_within(self, p, 0.0))
        return tiles

    def translation_length(self, word: str) -> float:
        a, b, c, d = self.entries(word)
        return translation_length_sl2(((a, b), (c, d)))

    def cusp_trace(self) -> float:
        a, _, _, d = self._cusp
        return a + d

    def atlas(self, root: str) -> "Leaves":
        """The normal rows and conjugator words of the leaves of a curve root that meet B(o, ATLAS_RADIUS).

        o is the disk centre and the radius is hyperbolic.  One tile search
        about o finds them on first use; every multicurve of that root, of
        any weight or conjugate word, shares them after that.
        """
        leaves = self._atlases.get(root)
        if leaves is None:
            # Only the leaves that meet the ball, fewer rows for every sign test the atlas
            # answers; a leaf within EPS_ENDPOINT of an endpoint on the ball's rim still counts.
            reach = math.sinh(ATLAS_RADIUS + EPS_ENDPOINT)
            found = zip(*_tile_leaves(self, root, _tiles_within(self, (0.0, 0.0, 1.0), ATLAS_RADIUS)))
            kept = [(row, word) for row, word in found if abs(row[0]) <= reach]
            leaves = self._atlases[root] = tuple(row for row, _ in kept), tuple(word for _, word in kept)
        return leaves


def build_punctured_torus(tp: TeichPoint) -> PuncturedTorusGroup:
    """The normal-form group at a trace point, ``PuncturedTorusGroup(tp)`` with its cusp trace check."""
    return PuncturedTorusGroup(tp)


# ---------------------------------------------------------------------------
# Weighted multicurves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedMulticurve:
    """A measured multicurve: one simple closed curve, as a freely reduced word, with a positive weight.

    Simple closed curves are the primitive conjugacy classes, one for each
    primitive homology class (p, q) (Osborne-Zieschang): that of
    ``christoffel(p, q)``.  This refuses the cusp, proper powers and curves
    that cross themselves.  ``word`` stays as given, for reports; ``root``
    is its cyclic reduction r, for a word h . r . h^-1.  Both bend along
    the same lines, each named and turned as an image of the axis of r,
    which lies nearer the disk centre; the leaf layer is keyed by r.
    """

    word: str
    weight: float = 1.0
    root: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_word(self.word)
        if free_reduce(self.word) != self.word:
            raise BadWordError(f"component word {self.word!r} is not freely reduced")
        p, q = word_homology(self.word)
        if math.gcd(p, q) != 1 or not words_conjugate(self.word, christoffel(p, q)):
            raise BadWordError(
                f"component word {self.word!r} (homology ({p}, {q})) is not a non-peripheral simple closed curve"
            )
        if not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise BadWordError("component weights must be positive and finite")
        object.__setattr__(self, "root", _cyclic_reduce(self.word))

    @classmethod
    def single(cls, word: str, weight: float = 1.0) -> "WeightedMulticurve":
        return cls(word, weight)

    @property
    def components(self) -> tuple["WeightedMulticurve"]:
        """``(self,)``.  Only ``perfbench/`` reads it; ROADMAP item 2's change to the benchmark removes it."""
        return (self,)


def multicurve_length(point_or_group: TeichPoint | PuncturedTorusGroup, mc: WeightedMulticurve) -> float:
    """Weighted geodesic length of the multicurve."""
    group = point_or_group if isinstance(point_or_group, PuncturedTorusGroup) else build_punctured_torus(point_or_group)
    length = group.translation_length(mc.word)
    if length == 0.0:
        raise NotHyperbolicError(f"curve {mc.word!r} is not hyperbolic at this point")
    return mc.weight * length


def filling_advisory(lam: WeightedMulticurve, mu: WeightedMulticurve) -> str | None:
    """None when the two multicurves fill the surface, else a diagnostic message.

    Simple closed curves of slopes (p, q) and (r, s) meet |ps - qr| times,
    so the pair fills exactly when that intersection number is positive.
    """
    (p, q), (r, s) = (word_homology(mc.word) for mc in (lam, mu))
    if p * s - q * r == 0:
        return f"the curves of slopes ({p}, {q}) and ({r}, {s}) do not fill: their intersection number |ps - qr| is 0"
    return None


# ---------------------------------------------------------------------------
# Leaf enumeration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafCrossing:
    """One leaf crossing an oriented disk segment, its left normal pointing away from the segment start.

    The parameter locates the crossing in (0, 1); ``component_index`` is always 0.
    """

    leaf: SpacelikeGeodesicH2
    weight: float
    parameter: float
    conjugator_word: str
    component_index: int = 0


# Leaves: normal rows (n0, n1, n2) of Python floats and words; Crossings: lists of rows, sides, parameters and words.
Leaves = tuple[tuple[tuple[float, float, float], ...], tuple[str, ...]]
Crossings = tuple[list[tuple[float, float, float]], list[float], list[float], list[str]]

def _walk_order(word: str) -> tuple[int, str]:
    """Shortest first, then by the reversed word in the letter order A, B, a, b (that of ASCII)."""
    return len(word), word[::-1]


def _join(u: str, v: str) -> str:
    """free_reduce(u + v) for freely reduced words u and v: only their junction cancels."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == v[k].swapcase():
        k += 1
    return u[: len(u) - k] + v[k:]


def _first_word(prefix: str, root: str) -> str:
    """The first in walk order of the reduced words prefix . root^j, j an integer.

    root is cyclically reduced, so only the powers s^j of root or of its
    inverse, whichever cancels the last letter of the reduced prefix, can
    beat j = 0.  prefix . s^j cancels min(m, j |s|) letters, m the common start
    of prefix^-1 and s s s ...: the shortest are j = m // |s| and j + 1.
    """
    step = root if prefix[-1:] == root[0].swapcase() else root[::-1].swapcase()
    if prefix[-1:] != step[0].swapcase():
        return prefix
    inverse, n = prefix[::-1].swapcase(), len(step)
    powers = step * (len(prefix) // n + 1)
    # m by bisection, each probe one comparison of string slices.
    low, high = 0, len(prefix)
    while low < high:
        middle = (low + high + 1) // 2
        low, high = (middle, high) if inverse[:middle] == powers[:middle] else (low, middle - 1)
    k = low // n
    return min(prefix[: len(prefix) - k * n], prefix[: len(prefix) - low] + powers[low : (k + 1) * n], key=_walk_order)


def _compose(m: Rows, g: Rows) -> Rows:
    """The 3x3 product m g of two matrices held as rows, in Python floats."""
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = g
    return tuple(
        (a * g00 + b * g10 + c * g20, a * g01 + b * g11 + c * g21, a * g02 + b * g12 + c * g22) for a, b, c in m
    )


def _tiles_within(group: PuncturedTorusGroup, x: DiskPoint, radius: float) -> list[str]:
    """The words of the tiles w.Q within distance radius + EPS_ENDPOINT of a checked disk point x, the root tile first.

    From Q, a descent crosses the side x violates most until x is within
    reach of the tile, the root; from there the search goes shell by shell,
    never stepping back, and each shell letter by letter.  A tile is kept
    when each side pairs with the lift of x to at least -sinh(radius +
    EPS_ENDPOINT), an exact test, as a point outside an ideal polygon lies
    beyond one side only: the kept tiles form a subtree of the adjacency
    tree.  In Python floats: a tile's matrix is its parent's times the
    letter's Lorentz rows (``_compose``), and the pairings are d . (M S), d
    the lift of x times J3 and S the side normals, side by side.  Raises
    EnumerationBudgetError past MAX_NODES tiles, counted before a shell is
    formed, and GeometryError as soon as a pairing is not finite.
    """
    sides = group.tile_sides()
    letters = [group.rows(ch) for ch in GENERATOR_LETTERS]
    x1, x2, root = x
    d0, d1, d2 = -(1.0 / root), x1 / root, x2 / root
    reach = -math.sinh(radius + EPS_ENDPOINT)
    point = f"the disk point {(x1, x2)}"
    region = f"atlas radius {radius}" if radius else f"tiles near {point}"

    def pairings(mat: Rows, nodes: int, depth: int) -> list[float]:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = mat
        at = [
            d0 * (a0 * n0 + a1 * n1 + a2 * n2) + d1 * (b0 * n0 + b1 * n1 + b2 * n2) + d2 * (c0 * n0 + c1 * n1 + c2 * n2)
            for n0, n1, n2 in sides
        ]
        if not all(map(math.isfinite, at)):
            raise GeometryError(f"side pairings of {point} are not finite after {nodes} nodes at depth {depth}")
        return at

    word, mat, nodes = "", group.rows(""), 0
    while True:
        nodes += 1
        if nodes > MAX_NODES:
            raise EnumerationBudgetError(nodes, 0, region)
        at = pairings(mat, nodes, 0)
        j = min(range(4), key=at.__getitem__)
        if at[j] >= reach:
            break
        word = _join(word, GENERATOR_LETTERS[j])
        mat = _compose(mat, letters[j])
    tiles, shell, depth = [word], [(word, mat, -1)], 0
    while shell:
        depth += 1
        # Every letter but the one that steps back to the parent, -1 for the root.
        nodes += 4 if depth == 1 else 3 * len(shell)
        # Checked before the shell's products, so a search over budget never
        # forms or tests the shell that crosses it.
        if nodes > MAX_NODES:
            raise EnumerationBudgetError(nodes, depth, region)
        kept = []
        for j, letter in enumerate(letters):
            back = (j + 2) % 4
            for parent, mat, last in shell:
                if last != back:
                    child = _compose(mat, letter)
                    if all(a >= reach for a in pairings(child, nodes, depth)):
                        kept.append((_join(parent, GENERATOR_LETTERS[j]), child, j))
        tiles += [child_word for child_word, _, _ in kept]
        shell = kept
    return tiles


def _tree_path(start: str, end: str) -> list[str]:
    """The tiles on the adjacency-tree path from start.Q to end.Q: the prefixes of each down to their common one."""
    common = 0
    while common < min(len(start), len(end)) and start[common] == end[common]:
        common += 1
    return [start[:k] for k in range(len(start), common, -1)] + [end[:k] for k in range(common, len(end) + 1)]


def _tile_leaves(group: PuncturedTorusGroup, root: str, tiles) -> Leaves:
    """Every lift of the axis of a curve root through the given tiles, as normal rows and conjugator words in walk order.

    For the cyclically reduced root r of a curve, the lifts through a tile w.Q
    are w . (r_1 ... r_k)^-1 . axis(r), 0 <= k < |r|, as the axis of r
    crosses the tiles r^n . r_1 ... r_k . Q.  Each is named by its first
    word v in walk order (v . axis(r) is the lift), found once per distinct
    word before any product; its normal is L(v) . n, the group's Lorentz
    image of the whole word v applied to the unit normal n of the axis of
    r, all of them in one stacked numpy product.  The name depends on the
    leaf alone, not on the tile it was reached from.
    """
    offsets = [invert_word(root[:k]) for k in range(len(root))]
    heads = {_join(tile, offset) for tile in tiles for offset in offsets}
    order = sorted({_first_word(head, root) for head in heads}, key=_walk_order)
    # numpy's products keep digits that dot products in Python floats lose to cancellation for long words.
    normals = np.array([group.rows(first) for first in order]) @ group.axis(root).normal
    return tuple(map(tuple, normals.tolist())), tuple(order)


def segment_crossings(group: PuncturedTorusGroup, mc: WeightedMulticurve, x, y) -> Crossings:
    """The leaves of the lifted multicurve crossing the open segment (x, y), as lists of Python floats and words.

    In increasing order of crossing parameter, each leaf comes as its normal
    row as found, its side (+1.0 when that normal points away from x, else
    -1.0), its parameter and its conjugator word.  A segment whose ends lie in
    the ball of the group's leaf atlas of ``mc.root`` is answered from it, as
    the ball is convex and so meets every leaf crossing the segment; past the
    ball, from the tiles near x (``tiles_near``) and near y, and the tree path
    between them.  x and y go through ``as_disk_point``.  Raises
    OutsideModelError when an endpoint is off the open disk,
    EndpointOnLeafError when one is within tolerance of a leaf, and the
    errors of the tile searches.
    """
    p, q = as_disk_point(x), as_disk_point(y)
    # The end farther from the disk centre has the smaller root sqrt(1 - |z|^2).
    if math.acosh(1.0 / min(p[2], q[2])) <= ATLAS_RADIUS:
        leaves = group.atlas(mc.root)
    else:
        near, far = group.tiles_near(p), _tiles_within(group, q, 0.0)
        leaves = _tile_leaves(group, mc.root, {*near, *far, *_tree_path(near[0], far[0])})
    return _crossings(leaves, p, q)


def image_point(group: PuncturedTorusGroup, word: str, x) -> np.ndarray:
    """The point word . x of the Klein disk or off it, from the word's Lorentz rows and the lift of x, in Python floats.

    x goes through ``as_disk_point``.  A lift's image whose first coordinate rounds to 0 or below gives (NaN, NaN).
    """
    x1, x2, root = as_disk_point(x)
    lift = 1.0 / root, x1 / root, x2 / root
    u0, u1, u2 = (a * lift[0] + b * lift[1] + c * lift[2] for a, b, c in group.rows(word))
    return np.array((u1 / u0, u2 / u0) if u0 > 0.0 else (math.nan, math.nan))


def holonomy_segment_crossings(group: PuncturedTorusGroup, mc: WeightedMulticurve, x0, word: str) -> Crossings:
    """The leaves of the lifted multicurve crossing the open segment (x0, word . x0).

    The lists are those of :func:`segment_crossings`, read off the tiling's
    adjacency tree, with no tile search beyond the group's tiles near x0
    (``tiles_near``).  For g the reduced word and w.Q the tile holding x0,
    g.x0 lies in u.Q, u the reduced word of g w, so the segment meets the
    tiles of the tree path from w to u.  To those come the tiles within
    EPS_ENDPOINT of x0, so that a leaf through x0 is refused, and with it
    one through g.x0 (``image_point``), the image of a leaf through x0.
    x0 goes through ``as_disk_point`` (a context hands in its DiskPoint); g.x0 is checked once formed.
    Raises OutsideModelError when word . x0 rounds onto the rim or past it,
    EndpointOnLeafError when an endpoint is within tolerance of a leaf, and
    the errors of ``tiles_near`` for x0.
    """
    if word:
        _check_word(word)
    p0 = as_disk_point(x0)
    reduced = free_reduce(word)
    far = disk_point(image_point(group, reduced, p0), f"{word!r} . x0")
    near = group.tiles_near(p0)
    return _crossings(_tile_leaves(group, mc.root, {*near, *_tree_path(near[0], _join(reduced, near[0]))}), p0, far)


def _crossings(leaves: Leaves, p: DiskPoint, q: DiskPoint) -> Crossings:
    """The crossings of (p, q), checked disk points, among the leaves, by the sign test, in order of parameter."""
    rows, words = leaves
    # Affine pairings are sign- and root-compatible with the lifted ones;
    # the lift rescaling only matters for the endpoint-distance tolerance.
    (x1, x2, root0), (y1, y2, root1) = p, q
    scale0, scale1 = 1.0 / root0, 1.0 / root1
    # In Python floats, a leaf at a time: a segment meets a few leaves, too few to pay for
    # numpy's per-call cost, and Python floats overflow to inf and NaN without a warning.
    hits = []
    for i, (n0, n1, n2) in enumerate(rows):
        f0 = -n0 + x1 * n1 + x2 * n2
        f1 = -n0 + y1 * n1 + y2 * n2
        if abs(f0) * scale0 < EPS_ENDPOINT or abs(f1) * scale1 < EPS_ENDPOINT:
            end, pairing = (p, f0 * scale0) if abs(f0) * scale0 < EPS_ENDPOINT else (q, f1 * scale1)
            raise EndpointOnLeafError(
                "segment endpoint lies on a leaf; nudge the basepoint: "
                f"endpoint {list(end[:2])} on the leaf of {words[i]!r}, scaled pairing {pairing:.3e}"
            )
        if f0 * f1 < 0.0:
            hits.append((f0 / (f0 - f1), i, math.copysign(1.0, -f0)))
    hits.sort(key=lambda hit: (hit[0] != hit[0], hit[0]))  # stable, a NaN parameter last, as numpy sorts
    parameters, order, sides = zip(*hits) if hits else ((), (), ())
    return [rows[i] for i in order], list(sides), list(parameters), [words[i] for i in order]


def leaves_crossing(group: PuncturedTorusGroup, mc: WeightedMulticurve, x, y) -> list[LeafCrossing]:
    """The crossings of (x, y) from :func:`segment_crossings`, as LeafCrossing objects; only ``perfbench/`` calls it."""
    return [
        LeafCrossing(SpacelikeGeodesicH2((side * n0, side * n1, side * n2)), float(mc.weight), parameter, word)
        for (n0, n1, n2), side, parameter, word in zip(*segment_crossings(group, mc, x, y))
    ]


# ---------------------------------------------------------------------------
# Length minimization over the trace variety.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KerckhoffResult:
    point: TeichPoint
    objective: float
    gradient_norm: float
    hessian_condition: float
    advisory: str | None


def _project_to_variety(p) -> np.ndarray:
    """(S / yz, S / zx, S / xy), S = x^2 + y^2 + z^2, on the trace variety for p = (x, y, z) > 0; other p as given.

    Its coordinates multiply to S^3 / (xyz)^2, as their squares sum, and it
    fixes the variety, where S = xyz (the lambda-length form of the traces:
    Penner, "The decorated Teichmueller space of punctured surfaces", 1987).
    """
    x, y, z = (float(c) for c in p)
    if not (x > 0.0 and y > 0.0 and z > 0.0):
        return np.array((x, y, z))
    s = x * x + y * y + z * z
    return np.array((s / (y * z), s / (z * x), s / (x * y)))


def _fricke_gradient(p) -> np.ndarray:
    x, y, z = p
    return np.array((2.0 * x - y * z, 2.0 * y - x * z, 2.0 * z - x * y))


def _fricke_hessian(p) -> list[list[float]]:
    x, y, z = p
    return [[2.0, -z, -y], [-z, 2.0, -x], [-y, -x, 2.0]]


def _tangent_basis(gradient: np.ndarray, square: float) -> np.ndarray:
    """An orthonormal basis, as the columns of a (3, 2) array, of the plane normal to a Fricke gradient.

    ``square`` is the gradient's squared norm, ``float(gradient @ gradient)``.
    """
    norm = math.sqrt(square)
    normal = n0, n1, n2 = tuple(g / norm for g in gradient.tolist())
    k = min(range(3), key=lambda i: abs(normal[i]))
    t1 = np.array([float(i == k) - normal[k] * c for i, c in enumerate(normal)])
    length = math.sqrt(float(t1 @ t1))
    u0, u1, u2 = (c / length for c in t1.tolist())
    # n x t1, written out: the products and differences np.cross takes, at a fraction of its set-up.
    return np.array([[u0, n1 * u2 - n2 * u1], [u1, n2 * u0 - n0 * u2], [u2, n0 * u1 - n1 * u0]])


def _trace_jet(homology: tuple[int, int], point) -> tuple[float, list[float], list[list[float]]]:
    """Value, gradient and Hessian in (x, y, z) of the trace of the simple closed curve of a homology class.

    Traces of simple closed curves satisfy the Markoff edge relation on the
    Farey tree, tr(L + R) = tr L tr R - tr(L - R) (Bowditch, "Markoff
    triples and quasifuchsian groups", 1998).  The Stern-Brocot descent to
    (|p|, |q|) from A, B and AB forms one product minus one term per step,
    in Python floats, with its derivatives by the product rule.  For p and q
    of opposite signs, B^-1 replaces B, and tr AB^-1 = xy - z replaces z.
    """
    p, q = abs(homology[0]), abs(homology[1])
    x, y, z = point
    zero = [[0.0] * 3] * 3
    left, right = (x, [1.0, 0.0, 0.0], zero), (y, [0.0, 1.0, 0.0], zero)
    if p == 0 or q == 0:
        return left if q == 0 else right
    if homology[0] * homology[1] > 0:
        middle = (z, [0.0, 0.0, 1.0], zero)
    else:
        middle = (x * y - z, [y, x, -1.0], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    while (p, q) != (1, 1):
        # middle = left + right; the class lies under left + middle below its slope, else under middle + right.
        if q < p:
            f, g, h, right, p = left, middle, right, middle, p - q
        else:
            f, g, h, left, q = middle, right, left, middle, q - p
        (fv, fd, fdd), (gv, gd, gdd), (hv, hd, hdd) = f, g, h
        middle = (
            fv * gv - hv,
            [fv * gi + gv * fi - hi for fi, gi, hi in zip(fd, gd, hd)],
            [
                [fv * gij + gv * fij + fi * gj + gi * fj - hij for fij, gij, hij, fj, gj in zip(f_row, g_row, h_row, fd, gd)]
                for f_row, g_row, h_row, fi, gi in zip(fdd, gdd, hdd, fd, gd)
            ],
        )
    return middle


def _reduced_model(terms: list[tuple[float, tuple[int, int]]], p: np.ndarray):
    """The Kerckhoff objective's local model at p on the trace variety.

    The objective is the sum of w * 2 arccosh(|tr|/2) over the (weight w,
    homology class) terms, each trace read from the Farey recursion of
    :func:`_trace_jet`.  Returns it with a tangent basis, the reduced
    gradient, the reduced Lagrangian Hessian and the gradient's norm at p;
    (inf, None, None, None, inf) where a coordinate of p is NaN or not above
    2, a trace is not hyperbolic or a value overflows, as for a long curve.
    """
    point = p.tolist()
    if not all(c > 2.0 for c in point):
        return math.inf, None, None, None, math.inf
    # The sums of the weighted jets, element by element in Python floats;
    # the products that numpy hands to BLAS stay numpy calls.
    total, grad, hess = 0.0, [0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]] * 3
    for weight, homology in terms:
        trace, d, dd_trace = _trace_jet(homology, point)
        if not abs(trace) / 2.0 > 1.0 + 1e-12:
            return math.inf, None, None, None, math.inf
        room = trace * trace - 4.0
        first = 2.0 * math.copysign(1.0, trace) / math.sqrt(room)
        try:
            second = -2.0 * abs(trace) / room**1.5
        except OverflowError:
            return math.inf, None, None, None, math.inf
        total += weight * 2.0 * math.acosh(abs(trace) / 2.0)
        scale = weight * first
        grad = [g + scale * di for g, di in zip(grad, d)]
        hess = [
            [h + weight * (first * dd + second * (di * dj)) for h, dd, dj in zip(row, dd_row, d)]
            for row, dd_row, di in zip(hess, dd_trace, d)
        ]
    normal = _fricke_gradient(point)
    square = float(normal @ normal)
    grad = np.array(grad)
    lagrange = float(grad @ normal) / square
    hess = np.array([[h - lagrange * f for h, f in zip(row, f_row)] for row, f_row in zip(hess, _fricke_hessian(point))])
    basis = _tangent_basis(normal, square)
    grad, hess = basis.T @ grad, basis.T @ hess @ basis
    # |v| as np.linalg.norm takes it: the square root of the dot product v @ v.
    norm = math.sqrt(float(grad @ grad))
    if not (math.isfinite(total) and math.isfinite(norm) and np.isfinite(hess).all()):
        return math.inf, None, None, None, math.inf
    return total, basis, grad, hess, norm


# Values that overflow are refused by _reduced_model, by name, instead of warned about.
@np.errstate(over="ignore", invalid="ignore")
def kerckhoff_point(
    lam: WeightedMulticurve,
    mu: WeightedMulticurve,
    init: TeichPoint,
    *,
    gradient_tol: float = KERCKHOFF_GRADIENT_TOL,
) -> KerckhoffResult:
    """Minimize the combined multicurve length over the trace variety.

    Each curve's trace and its derivatives in (x, y, z) are read from the
    Markoff edge relation on the Farey tree (Bowditch 1998, :func:`_trace_jet`),
    so the objective sum of w * 2 arccosh(|tr|/2) has exact derivatives.  From
    ``init``, a damped Newton iteration works in the tangent plane of the
    trace variety: the step solves the reduced Lagrangian Hessian with its
    eigenvalues replaced by their absolute values (floored), an Armijo
    backtracking search shortens it, and :func:`_project_to_variety` puts
    each trial point back on the variety.  Trial points with a trace not
    above 2 are shortened too, so the iteration never leaves that domain.
    It stops once the projected gradient is below 1e-4 * ``gradient_tol``,
    when no shortened step lowers the objective, or after KERCKHOFF_MAX_STEPS steps.

    Returns the minimizer with its projected gradient norm, the condition
    number of the reduced Hessian there (a flatness diagnostic; the minimizer
    is unique in theory but may sit in a numerically flat valley), and the
    filling advisory.  Raises NoConvergenceError when a curve is not
    hyperbolic or overflows at the start (reported with an infinite gradient
    norm after 0 steps), or when the final projected gradient is not below
    ``gradient_tol``, as for a pair with no minimum, and GeometryError at
    once for a ``gradient_tol`` that is not finite and positive.
    """
    if not 0.0 < gradient_tol < math.inf:  # written so that NaN fails too
        raise GeometryError(f"the gradient tolerance must be finite and positive; got {gradient_tol!r}")
    terms = [(mc.weight, word_homology(mc.word)) for mc in (lam, mu)]
    p = init.as_array()
    objective, basis, grad, hess, grad_norm = _reduced_model(terms, p)
    steps = 0
    while steps < KERCKHOFF_MAX_STEPS and math.inf > grad_norm > 1e-4 * gradient_tol:
        eigvals, eigvecs = np.linalg.eigh(hess)
        sizes = [abs(e) for e in eigvals.tolist()]
        floor = 1e-8 * max(1.0, max(sizes))
        along = (eigvecs.T @ grad).tolist()
        direction = -eigvecs @ np.array([a / max(s, floor) for a, s in zip(along, sizes)])
        slope = float(grad @ direction)
        # Slack of some rounding units, so that steps at the rounding floor
        # of the objective are still taken.
        slack = 1e-14 * abs(objective)
        start, move = p.tolist(), (basis @ direction).tolist()
        alpha = 1.0
        while alpha > 1e-10:
            trial = _project_to_variety([c + alpha * m for c, m in zip(start, move)])
            found = _reduced_model(terms, trial)
            if found[0] <= objective + 1e-4 * alpha * slope + slack:
                break
            alpha /= 2.0
        else:
            break
        p = trial
        objective, basis, grad, hess, grad_norm = found
        steps += 1
    if not grad_norm < gradient_tol:
        raise NoConvergenceError(grad_norm, gradient_tol, steps)
    eigs = np.abs(np.linalg.eigvalsh(hess))
    point = TeichPoint(*p)
    group = build_punctured_torus(point)
    return KerckhoffResult(
        point=point,
        objective=multicurve_length(group, lam) + multicurve_length(group, mu),
        gradient_norm=grad_norm,
        hessian_condition=math.inf if eigs.min() < 1e-12 else float(eigs.max() / eigs.min()),
        advisory=filling_advisory(lam, mu),
    )
