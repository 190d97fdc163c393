"""Fuchsian punctured-torus groups, multicurves, and leaf enumeration.

The base hyperbolic structure is a once-punctured torus, described by trace
coordinates (x, y, z) = (tr A, tr B, tr AB) of a pair of SL(2, R) generators,
subject to the Fricke relation x^2 + y^2 + z^2 = xyz (equivalent to the
commutator [A, B] being parabolic of trace -2, i.e. a cusp).  Holonomies act
on H2 through the adjoint representation SL(2, R) -> SO0(1, 2) on trace-free
2x2 matrices with the Minkowski norm -det.

A weighted multicurve is one non-peripheral simple closed curve with a
positive weight: two distinct simple closed curves on this surface meet, so
a measured multicurve has a single component.  Its preimage in H2 is a
disjoint union of complete geodesics (leaves).  The translates w.Q of an
ideal quadrilateral Q with sides paired by A and B (Jorgensen, "On pairs of
once-punctured tori"), one per reduced word w, tile the disk; tiles whose
words differ by one letter on the right share a side.  The tiles meeting a
convex region are connected, so a breadth-first search finds them all, and
with them every leaf meeting the region: crossing queries are complete by
construction.

Every leaf query is one pipeline: a tile source, then one leaf namer
(``_tile_leaves``, the lifts v . axis(r) through those tiles in walk order,
each with the normal L(v) . n from the group's Lorentz image of the whole
word v), then one sign test (``_crossings``, the leaves whose pairings with
the two ends differ in sign).  There are three tile sources:

- the atlas ball: each group keeps a leaf atlas per multicurve, the leaves
  meeting a hyperbolic ball about the disk centre, found by one search and
  grown on demand; segments inside the ball are answered from it;
- the segment walk: a segment past the atlas's reach is searched on its own;
- the tree path: the tiles that a segment from a point x0 to its image g.x0
  meets are the path of the tiling's adjacency tree (the Cayley tree of
  F(A, B)) from the tile of x0 to its g-image, so no search is needed beyond
  the tiles near x0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from halfpipe.geometry import (
    J3,
    Geometry,
    GeometryError,
    OutsideModelError,
    SpacelikeGeodesicH2,
    disk_lift,
    radial_project,
)
from halfpipe.isometry import _group_inverse, embed_h2, transport_to_standard_axis

# |x^2 + y^2 + z^2 - xyz| accepted as "on the relation variety".
EPS_FRICKE = 1e-9
# A leaf whose pairing with a segment endpoint is below this passes through it.
EPS_ENDPOINT = 1e-9

# Leaf searches: the budget of tiles tested, and the rounding slack of the
# test whether a tile meets a segment, relative to the terms of its side
# pairings; those grow as 1 / sqrt(1 - |z|^2) at an endpoint z, and a slack
# of 1e-12 let a search run past its budget for an endpoint 2e-12 from the rim.
MAX_NODES = 400_000
EPS_CLIP = 1e-14

# Leaf atlases grow in steps of this hyperbolic radius about the disk centre,
# up to the limit (Klein radius tanh 2.5 = 0.987).
ATLAS_STEP = 0.5
ATLAS_RADIUS_LIMIT = 2.5

# The Kerckhoff search keeps every trace in (2, KERCKHOFF_TRACE_MAX] and
# takes at most KERCKHOFF_MAX_STEPS Newton steps.
KERCKHOFF_TRACE_MAX = 80.0
KERCKHOFF_MAX_STEPS = 50

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
    """Leaf enumeration hit its node budget before completing.

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
# Words in the free group on A, B.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# SL(2, R) and its adjoint action on Minkowski R^{1,2}.
# ---------------------------------------------------------------------------

_SL2_BASIS = np.array([[[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_IDENTITY2, _IDENTITY3 = np.eye(2), np.eye(3)
_IDENTITY2.flags.writeable = _IDENTITY3.flags.writeable = False
_IDENTITY_ROWS = _IDENTITY3.tolist()


def _traceless_coords(m: np.ndarray) -> np.ndarray:
    """Coordinates of trace-free 2x2 matrices (the last two axes of m), along a new first axis."""
    return np.array([(m[..., 1, 0] - m[..., 0, 1]) / 2.0, m[..., 0, 0], (m[..., 1, 0] + m[..., 0, 1]) / 2.0])


def _sl2_inverse(g: np.ndarray) -> np.ndarray:
    """The inverse of a determinant-one 2x2 matrix (its adjugate, [[d, -b], [-c, a]]); broadcasts."""
    return np.multiply(np.swapaxes(g[..., ::-1, ::-1], -1, -2), _ADJUGATE_SIGNS, order="C")


def _word_sl2(gens: dict[str, np.ndarray], word: str) -> np.ndarray:
    """Left-to-right product of a word over A, B, a, b given the images of all four letters."""
    out = _IDENTITY2
    for ch in word:
        out = out @ gens[ch]
    # The shared identity is read-only; the empty word gets a copy of its own.
    return out if word else _IDENTITY2.copy()


def sl2_to_so12(g: np.ndarray) -> np.ndarray:
    """Adjoint image of g in SO0(1,2), acting on trace-free matrices; broadcasts.

    Coordinates are chosen so that -det of a trace-free matrix is the
    Minkowski norm; the map is a 2-to-1 homomorphism with sl2_to_so12(-g) =
    sl2_to_so12(g).  A stack of matrices takes the same 2x2 products as each
    matrix alone.  Column j holds the coordinates of g E_j g^-1, E_j the
    basis matrix j, in the order of :func:`_traceless_coords`.
    """
    g = np.asarray(g, dtype=float)
    conjugates = (g[..., np.newaxis, :, :] @ _SL2_BASIS) @ _sl2_inverse(g)[..., np.newaxis, :, :]
    c00, c01, c10 = conjugates[..., 0, 0], conjugates[..., 0, 1], conjugates[..., 1, 0]
    out = np.empty(g.shape[:-2] + (3, 3))
    out[..., 0, :] = (c10 - c01) / 2.0
    out[..., 1, :] = c00
    out[..., 2, :] = (c10 + c01) / 2.0
    return out


def translation_length_sl2(g: np.ndarray) -> float:
    """2 arccosh(|tr|/2) for hyperbolic elements, 0 otherwise."""
    half = abs(float(np.trace(g))) / 2.0
    return 2.0 * math.acosh(half) if half > 1.0 else 0.0


def axis_of_sl2(g: np.ndarray) -> SpacelikeGeodesicH2:
    """The oriented axis of a hyperbolic element, repelling to attracting.

    The normal is the suitably scaled trace-free part of g; the left-normal
    convention makes the attracting ideal endpoint the forward one.
    """
    g = np.asarray(g, dtype=float)
    tr = float(np.trace(g))
    if abs(tr) <= 2.0 + 1e-9:
        raise NotHyperbolicError(f"axis needs |trace| > 2; got {tr:.6f}")
    eta = _traceless_coords(g - (tr / 2.0) * np.eye(2))
    return SpacelikeGeodesicH2(eta * math.copysign(1.0, tr))


# ---------------------------------------------------------------------------
# Trace coordinates and the group normal form.
# ---------------------------------------------------------------------------


def fricke_defect(x: float, y: float, z: float) -> float:
    return x * x + y * y + z * z - x * y * z


@dataclass(frozen=True)
class TeichPoint:
    """Trace coordinates (x, y, z), all > 2, on the Fricke variety."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise BadTracesError("trace coordinates must be finite")
        if min(self.x, self.y, self.z) <= 2.0:
            raise BadTracesError("trace coordinates must all exceed 2")
        defect = fricke_defect(self.x, self.y, self.z)
        # Written so that a defect that overflows to NaN fails too.
        if not abs(defect) <= EPS_FRICKE:
            raise BadTracesError(
                f"trace relation violated at traces ({self.x!r}, {self.y!r}, {self.z!r}) (defect {defect:.3e})"
            )

    @classmethod
    def from_xy(cls, x: float, y: float, branch: str = "minus") -> "TeichPoint":
        """Solve the trace relation for z; 'minus'/'plus' pick the two roots."""
        if branch not in ("minus", "plus"):
            raise BadTracesError(f"branch must be 'minus' or 'plus', not {branch!r}")
        disc = x * x * y * y - 4.0 * (x * x + y * y)
        if disc < 0.0:
            raise BadTracesError("no real trace relation solution for these (x, y)")
        root = math.sqrt(disc)
        z = (x * y - root) / 2.0 if branch == "minus" else (x * y + root) / 2.0
        return cls(x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def _normal_form_generators(x: float, y: float, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic SL2 pair with traces (x, y, z): A diagonal, B[1,0] > 0."""
    lam = (x + math.sqrt(x * x - 4.0)) / 2.0
    gen_a = np.diag([lam, 1.0 / lam])
    p = (z - y / lam) / (lam - 1.0 / lam)
    s = y - p
    ps = p * s
    if ps >= 1.0:
        q = r = math.sqrt(ps - 1.0)
    else:
        r = math.sqrt(1.0 - ps)
        q = -r
    if r == 0.0:
        raise BadTracesError("generators are reducible; traces do not give a cusped torus")
    gen_b = np.array([[p, q], [r, s]])
    return gen_a, gen_b


@dataclass(frozen=True)
class PuncturedTorusGroup:
    """A cusped once-punctured-torus group in deterministic normal form.

    Words over the letters A, B (and inverses a, b) evaluate left-to-right to
    SL2 matrices, and through the adjoint to Lorentz matrices acting on the
    shared hyperbolic plane.  The commutator word is the cusp.

    A group forms the cusp's SL(2) image once, for the cusp check and the
    tile sides.  It computes a word's Lorentz image, axis and axis frames
    when first asked for them and returns the same object after that; the
    arrays are read-only.  So are the stacked images of the four letters
    (``letter_images``) and the side normals of its fundamental
    quadrilateral (``tile_sides``).  A word's Lorentz image is the adjoint
    of its SL(2) product, the one evaluation of a word that leaf normals,
    bent holonomies and translations all read.  The group also keeps one
    leaf atlas per multicurve and the tiles near each point asked about
    (``tiles_near``).  Each memo holds only what was asked of this group,
    never a failed query, and lives as long as the group.
    """

    trace_point: TeichPoint

    CUSP_WORD = "ABab"

    def __post_init__(self) -> None:
        tp = self.trace_point
        gen_a, gen_b = _normal_form_generators(tp.x, tp.y, tp.z)
        gens = {"A": gen_a, "B": gen_b, "a": _sl2_inverse(gen_a), "b": _sl2_inverse(gen_b)}
        object.__setattr__(self, "_sl2_gens", gens)
        object.__setattr__(self, "_cusp", _word_sl2(gens, self.CUSP_WORD))
        object.__setattr__(self, "_atlases", {})
        object.__setattr__(self, "_lorentz", {})
        object.__setattr__(self, "_axes", {})
        object.__setattr__(self, "_frames", {})
        object.__setattr__(self, "_letters", None)
        object.__setattr__(self, "_sides", None)
        object.__setattr__(self, "_near_tiles", {})

    def sl2(self, word: str) -> np.ndarray:
        if word:
            _check_word(word)
        return _word_sl2(self._sl2_gens, word)

    def lorentz(self, word: str) -> np.ndarray:
        image = self._lorentz.get(word)
        if image is None:
            image = sl2_to_so12(self.sl2(word))
            image.flags.writeable = False
            self._lorentz[word] = image
        return image

    def letter_images(self) -> np.ndarray:
        """The Lorentz images of A, B, a and b, stacked in that order, from one stacked adjoint."""
        if self._letters is None:
            images = sl2_to_so12(np.stack([self.sl2(ch) for ch in GENERATOR_LETTERS]))
            images.flags.writeable = False
            object.__setattr__(self, "_letters", images)
            for ch, image in zip(GENERATOR_LETTERS, images):
                self._lorentz.setdefault(ch, image)
        return self._letters

    def axis(self, word: str) -> SpacelikeGeodesicH2:
        axis = self._axes.get(word)
        if axis is None:
            axis = self._axes[word] = axis_of_sl2(self.sl2(word))
        return axis

    def axis_frame(self, word: str, tags: tuple[Geometry, ...]) -> tuple[np.ndarray, np.ndarray]:
        """phi = block-diag(transport_to_standard_axis(axis(word)), 1) and its group inverses in the models ``tags``."""
        frame = self._frames.get((word, tags))
        if frame is None:
            phi = embed_h2(transport_to_standard_axis(self.axis(word)))
            by_tag = {tag: _group_inverse(phi, tag) for tag in set(tags)}
            inverses = np.array([by_tag[tag] for tag in tags])
            phi.flags.writeable = inverses.flags.writeable = False
            frame = self._frames[word, tags] = (phi, inverses)
        return frame

    def tile_sides(self) -> np.ndarray:
        """Inward unit normals, as columns, of the sides of the ideal quadrilateral Q.

        Q has the vertices p, a.p, ba.p and Aba.p, p the cusp's fixed point.
        Column g (in the order A, B, a, b) is the side Q shares with g.Q.
        """
        if self._sides is None:
            # The cusp fixes the column space of its matrix plus the identity (rank
            # one); a vector v there maps to the null vector of v (v2, -v1).  The
            # column with the largest absolute sum is v; adding 0.0 writes -0.0 as +0.0.
            (c00, c01), (c10, c11) = self._cusp.tolist()
            shifted = ((c00 + 1.0, c10 + 0.0), (c01 + 0.0, c11 + 1.0))
            sizes = [abs(top) + abs(bottom) for top, bottom in shifted]
            v = np.array(shifted[sizes.index(max(sizes))])
            vertices = []
            for word in ("", "a", "ba", "Aba"):
                v1, v2 = (self.sl2(word) @ v).tolist()
                vertices.append(((v1 * v1 + v2 * v2) / 2.0, v1 * v2, (v2 * v2 - v1 * v1) / 2.0))
            columns = []
            for j in range(4):
                # J3 (u x w) for the ends u, w, made unit and facing the other vertices.
                (u0, u1, u2), (w0, w1, w2) = vertices[j - 1], vertices[j]
                n0, n1, n2 = u2 * w1 - u1 * w2, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0
                p0, p1, p2 = (a + b for a, b in zip(vertices[(j + 1) % 4], vertices[(j + 2) % 4]))
                scale = math.copysign(1.0 / math.sqrt(n1 * n1 + n2 * n2 - n0 * n0), n1 * p1 + n2 * p2 - n0 * p0)
                columns.append((n0 * scale, n1 * scale, n2 * scale))
            sides = np.array(columns).T
            sides.flags.writeable = False
            object.__setattr__(self, "_sides", sides)
        return self._sides

    def tiles_near(self, x: np.ndarray) -> tuple[str, ...]:
        """The words of the tiles w.Q within EPS_ENDPOINT of the disk point x, the tile that holds it first.

        One tile search of the segment [x, x]; it does not depend on a multicurve.
        """
        key = x.tobytes()
        tiles = self._near_tiles.get(key)
        if tiles is None:
            tiles = self._near_tiles[key] = tuple(_tiles_near_segment(self, x, x, 0.0))
        return tiles

    def translation_length(self, word: str) -> float:
        return translation_length_sl2(self.sl2(word))

    def cusp_trace(self) -> float:
        (c00, _), (_, c11) = self._cusp.tolist()
        return c00 + c11

    def atlas(self, mc: "WeightedMulticurve") -> "LeafAtlas":
        """The leaf atlas of a multicurve, shared by every caller of this group."""
        atlas = self._atlases.get(mc)
        if atlas is None:
            atlas = self._atlases[mc] = LeafAtlas(mc)
        return atlas


def build_punctured_torus(tp: TeichPoint) -> PuncturedTorusGroup:
    """The normal-form group at a trace point (cusp trace -2 guaranteed)."""
    group = PuncturedTorusGroup(tp)
    if abs(group.cusp_trace() + 2.0) > 1e-9:
        raise BadTracesError("constructed group fails the cusp trace check")
    return group


# ---------------------------------------------------------------------------
# Weighted multicurves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MulticurveComponent:
    """A weighted simple closed curve, as a freely reduced word.

    Simple closed curves are the primitive conjugacy classes, one for each
    primitive homology class (p, q) (Osborne-Zieschang): that of
    ``christoffel(p, q)``.  This refuses the cusp, proper powers and curves
    that cross themselves.  ``word`` stays as given, for reports; ``root``
    is its cyclic reduction r, for a word h . r . h^-1.  Both bend along
    the same lines, and every leaf is named and framed by the axis of r,
    which lies nearer the disk centre than the axis of h . r . h^-1.
    """

    word: str
    weight: float
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


@dataclass(frozen=True)
class WeightedMulticurve:
    """Exactly one weighted simple closed curve: distinct simple closed curves of
    slopes (p, q) and (r, s) meet |ps - qr| >= 1 times, so disjoint ones are isotopic."""

    components: tuple[MulticurveComponent, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if len(comps) != 1:
            raise BadWordError(f"a multicurve is one weighted simple closed curve; got {len(comps)} components")
        object.__setattr__(self, "components", comps)

    @classmethod
    def single(cls, word: str, weight: float = 1.0) -> "WeightedMulticurve":
        return cls((MulticurveComponent(word, weight),))


def multicurve_length(point_or_group: TeichPoint | PuncturedTorusGroup, mc: WeightedMulticurve) -> float:
    """Weighted geodesic length of the multicurve."""
    group = point_or_group if isinstance(point_or_group, PuncturedTorusGroup) else build_punctured_torus(point_or_group)
    comp = mc.components[0]
    length = group.translation_length(comp.word)
    if length == 0.0:
        raise NotHyperbolicError(f"component {comp.word!r} is not hyperbolic at this point")
    return comp.weight * length


def filling_advisory(lam: WeightedMulticurve, mu: WeightedMulticurve) -> str | None:
    """None when the two multicurves fill the surface, else a diagnostic message.

    Simple closed curves of slopes (p, q) and (r, s) meet |ps - qr| times,
    so the pair fills exactly when that intersection number is positive.
    """
    (p, q), (r, s) = (word_homology(mc.components[0].word) for mc in (lam, mu))
    if p * s - q * r == 0:
        return f"the curves of slopes ({p}, {q}) and ({r}, {s}) do not fill: their intersection number |ps - qr| is 0"
    return None


# ---------------------------------------------------------------------------
# Leaf enumeration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafCrossing:
    """One leaf of the lifted multicurve crossing an oriented disk segment.

    The leaf is oriented so that its left normal points away from the segment
    start; the parameter locates the crossing along the segment in (0, 1).
    ``component_index`` is always 0, the index of the multicurve's one curve.
    """

    leaf: SpacelikeGeodesicH2
    weight: float
    parameter: float
    conjugator_word: str
    component_index: int = 0


Leaves = tuple[np.ndarray, list[str]]
# The crossings of a segment: leaf normals, sides, parameters and conjugator words.
Crossings = tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]

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

    root is cyclically reduced, so only the powers of root or of its
    inverse, whichever cancels the last letter of the prefix, can beat
    j = 0.  The prefix is reduced.
    """
    best = prefix
    if prefix[-1:] == root[0].swapcase():
        step = root
    elif prefix[-1:] == root[-1]:
        step = invert_word(root)
    else:
        return best
    head = prefix
    while True:
        # |prefix . step^j| falls and then rises by |step| per step.
        longer = _join(head, step)
        if len(longer) > len(head):
            return best
        head = longer
        if _walk_order(head) < _walk_order(best):
            best = head


def _tiles_near_segment(group: PuncturedTorusGroup, x: np.ndarray, y: np.ndarray, radius: float) -> list[str]:
    """The words of the tiles w.Q that meet [x, y] or B(x, radius), or pass near y, the root tile first.

    Searches the tiles breadth first, shell by shell and never stepping
    back, from a tile near x.  A tile is kept when it meets [x, y] (up to a
    rounding slack), lies within distance radius + EPS_ENDPOINT of x or
    within sinh-distance EPS_ENDPOINT of y: exact tests, as a point outside
    an ideal polygon violates one side only.  The kept tiles form a subtree
    of the side-adjacency tree, so the search is complete; MAX_NODES bounds
    the tiles it tests.
    """
    sides = group.tile_sides()
    gens = group.letter_images()
    duals = disk_lift(np.stack([x, y])) @ J3
    size = EPS_CLIP * np.abs(duals)
    reach = np.array([[-math.sinh(radius + EPS_ENDPOINT)], [-math.sinh(EPS_ENDPOINT)]])

    def meets(mats: np.ndarray) -> np.ndarray:
        # The half-planes beyond the sides are disjoint, so a segment misses
        # a tile exactly when both ends lie beyond one side.
        normals = mats @ sides
        at = duals @ normals
        missed = (at + size @ np.abs(normals) < 0.0).all(axis=1).any(axis=1)
        return ~missed | (at >= reach).all(axis=2).any(axis=1)

    def budget_error(nodes: int, depth: int) -> EnumerationBudgetError:
        cosh_len = max(1.0, float(-(duals[0] @ J3 @ duals[1])))
        region = f"atlas radius {radius}" if radius else f"segment length {math.acosh(cosh_len):.3f}"
        return EnumerationBudgetError(nodes, depth, region)

    # The root: from Q, cross the side x violates most until x is within
    # reach of the tile, which then passes ``meets``.
    word, mat, nodes = "", _IDENTITY3, 0
    while True:
        nodes += 1
        if nodes > MAX_NODES:
            raise budget_error(nodes, 0)
        at_x = (duals @ (mat @ sides))[0]
        j = int(np.argmin(at_x))
        if at_x[j] >= reach[0, 0]:
            break
        word = _join(word, GENERATOR_LETTERS[j])
        mat = mat @ gens[j]
    # backtrack[j]: the letter that generator j cancels (A and a, B and b).
    backtrack = ((np.arange(4) + 2) % 4)[:, np.newaxis]
    tiles = words = [word]
    mats, last, depth = mat[np.newaxis], np.array([-1]), 0
    while words:
        allowed = last != backtrack
        last, parent = np.nonzero(allowed)
        depth += 1
        nodes += len(last)
        # Checked before the shell's product, so a search over budget never
        # forms or tests the shell that crosses it.
        if nodes > MAX_NODES:
            raise budget_error(nodes, depth)
        mats = (mats[np.newaxis] @ gens[:, np.newaxis])[allowed]
        kept = np.nonzero(meets(mats))[0]
        words = [_join(words[i], GENERATOR_LETTERS[j]) for i, j in zip(parent[kept].tolist(), last[kept].tolist())]
        tiles = tiles + words
        mats, last = mats[kept], last[kept]
    return tiles


def _tile_leaves(group: PuncturedTorusGroup, mc: WeightedMulticurve, tiles) -> Leaves:
    """Every lift of the curve through the given tiles, as normals and conjugator words in walk order.

    For the curve's cyclically reduced root r, the lifts through a tile w.Q
    are w . (r_1 ... r_k)^-1 . axis(r), 0 <= k < |r|, as the axis of r
    crosses the tiles r^n . r_1 ... r_k . Q.  Each is named by its first
    word v in walk order (v . axis(r) is the lift), found once per distinct
    word before any product; its normal is L(v) . n, the group's Lorentz
    image of the whole word v applied to the unit normal n of the axis of
    r.  The name depends on the leaf alone, not on the tile it was reached
    from.
    """
    root = mc.components[0].root
    offsets = [invert_word(root[:k]) for k in range(len(root))]
    heads = {_join(tile, offset) for tile in tiles for offset in offsets}
    order = sorted({_first_word(head, root) for head in heads}, key=_walk_order)
    axis = group.axis(root).normal
    return np.array([group.lorentz(first) @ axis for first in order]).reshape(-1, 3), order


def _walk_segment(group: PuncturedTorusGroup, mc: WeightedMulticurve, x: np.ndarray, y: np.ndarray) -> Leaves:
    """The leaves through the tiles that meet [x, y] or pass near an endpoint, found by a search of their own."""
    return _tile_leaves(group, mc, _tiles_near_segment(group, x, y, 0.0))


class LeafAtlas:
    """The leaves of one multicurve's preimage that meet the ball B(o, radius).

    o is the disk centre and the radius is hyperbolic.  The atlas starts
    empty and is rebuilt by one leaf search about o whenever a query reaches
    past its radius, at that query's distance rounded up to ATLAS_STEP, up
    to ATLAS_RADIUS_LIMIT.  ``leaves`` holds their normals and conjugator
    words.
    """

    def __init__(self, multicurve: WeightedMulticurve):
        self.multicurve = multicurve
        self.radius = -math.inf
        self.leaves: Leaves = (np.zeros((0, 3)), [])

    def covering(self, group: PuncturedTorusGroup, x: np.ndarray, y: np.ndarray) -> Leaves | None:
        """The atlas leaves when its ball holds both endpoints, else None.

        The ball is convex, so every leaf crossing [x, y] meets it.
        """
        squares = [u * u + v * v for u, v in (x.tolist(), y.tolist())]
        if not (squares[0] < 1.0 and squares[1] < 1.0):  # written so that a NaN endpoint fails too
            raise OutsideModelError("disk point must satisfy |z| < 1")
        needed = math.acosh(1.0 / math.sqrt(1.0 - max(squares)))
        if self.radius < needed <= ATLAS_RADIUS_LIMIT:
            radius = math.ceil(needed / ATLAS_STEP) * ATLAS_STEP
            # A leaf within EPS_ENDPOINT of an endpoint on the rim still counts.
            bound = math.sinh(radius + EPS_ENDPOINT)
            origin = np.zeros(2)
            normals, words = _tile_leaves(group, self.multicurve, _tiles_near_segment(group, origin, origin, radius))
            # Only the leaves that meet the ball: fewer rows for every sign test the atlas answers.
            near = np.abs(normals[:, 0]) <= bound
            self.leaves = normals[near], [word for word, kept in zip(words, near.tolist()) if kept]
            self.radius = radius
        return self.leaves if needed <= self.radius else None


def segment_crossings(group: PuncturedTorusGroup, mc: WeightedMulticurve, x: np.ndarray, y: np.ndarray) -> Crossings:
    """The leaves of the lifted multicurve crossing the open segment (x, y), as arrays.

    In increasing order of crossing parameter, each leaf comes as its normal
    as found, its side (+1.0 when that normal points away from x, else -1.0),
    its parameter and its conjugator word.  Segments inside the group's leaf
    atlas for ``mc`` are answered from it, growing it when needed; segments
    beyond its reach are searched on their own.  Raises EndpointOnLeafError
    when an endpoint is within tolerance of a leaf, and
    EnumerationBudgetError when a search tests more than MAX_NODES tiles.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    y = np.asarray(y, dtype=float).reshape(2)
    leaves = group.atlas(mc).covering(group, x, y)
    return _crossings(leaves if leaves is not None else _walk_segment(group, mc, x, y), x, y)


def holonomy_segment_crossings(
    group: PuncturedTorusGroup, mc: WeightedMulticurve, x0: np.ndarray, word: str
) -> Crossings:
    """The leaves of the lifted multicurve crossing the open segment (x0, word . x0), as arrays.

    The arrays are those of :func:`segment_crossings`, read off the tiling's
    adjacency tree, with no tile search beyond the group's tiles near x0
    (``tiles_near``).  For g the reduced word and w.Q the tile holding x0,
    g.x0 lies in u.Q, u the reduced word of g w, and a side of the tiling
    separates the two ends exactly when it lies on the tree path from w to
    u.  So the segment meets the tiles of that path, the prefixes of w and
    of u down to their common prefix.  To those come the tiles within
    EPS_ENDPOINT of x0, so that a leaf through x0 is refused, and with it
    one through g.x0, the image of a leaf through x0.  Raises
    OutsideModelError when word . x0 rounds onto the rim or past it, and
    EndpointOnLeafError when an endpoint is within tolerance of a leaf.
    """
    if word:
        _check_word(word)
    reduced = free_reduce(word)
    far = radial_project(group.lorentz(reduced) @ disk_lift(x0))
    u, v = far.tolist()
    if not u * u + v * v < 1.0:
        raise OutsideModelError("disk point must satisfy |z| < 1")
    near = group.tiles_near(x0)
    start, end = near[0], _join(reduced, near[0])
    common = 0
    while common < min(len(start), len(end)) and start[common] == end[common]:
        common += 1
    path = [start[:k] for k in range(common, len(start))] + [end[:k] for k in range(common, len(end) + 1)]
    return _crossings(_tile_leaves(group, mc, {*near, *path}), x0, far)


def _crossings(leaves: Leaves, x: np.ndarray, y: np.ndarray) -> Crossings:
    """The crossings of (x, y) among the given leaves, by the sign test, in stable order of parameter."""
    normals, words = leaves
    # Affine pairings are sign- and root-compatible with the lifted ones;
    # the lift rescaling only matters for the endpoint-distance tolerance.
    # |z|^2 as float products of the coordinates, as LeafAtlas.covering reads it.
    (x1, x2), (y1, y2) = x.tolist(), y.tolist()
    duals = np.array([[[-1.0, x1, x2]], [[-1.0, y1, y2]]])  # J3 (1, x) and J3 (1, y)
    scale0 = 1.0 / math.sqrt(1.0 - (x1 * x1 + x2 * x2))
    scale1 = 1.0 / math.sqrt(1.0 - (y1 * y1 + y2 * y2))
    # Summed column by column: a matrix-vector product rounds by stack height.
    products = duals * normals
    f0, f1 = products[..., 0] + products[..., 1] + products[..., 2]
    on_leaf = (np.abs(f0) * scale0 < EPS_ENDPOINT) | (np.abs(f1) * scale1 < EPS_ENDPOINT)
    # Array methods: numpy's module-level wrappers cost more than a segment's few crossings.
    if on_leaf.any():
        raise EndpointOnLeafError("segment endpoint lies on a leaf; nudge the basepoint")
    hit = (f0 * f1 < 0.0).nonzero()[0]
    parameters = f0[hit] / (f0[hit] - f1[hit])
    order = parameters.argsort(kind="stable")
    hit = hit[order]
    return normals[hit], np.copysign(1.0, -f0[hit]), parameters[order], [words[i] for i in hit.tolist()]


def leaves_crossing(
    group: PuncturedTorusGroup, mc: WeightedMulticurve, x: np.ndarray, y: np.ndarray
) -> list[LeafCrossing]:
    """All leaves of the lifted multicurve crossing the open segment (x, y), as :func:`segment_crossings` finds them.

    In increasing order of crossing parameter, each leaf oriented with its
    left normal pointing away from x.
    """
    normals, sides, parameters, words = segment_crossings(group, mc, x, y)
    weight = float(mc.components[0].weight)
    return [
        LeafCrossing(SpacelikeGeodesicH2(side * normal), weight, parameter, word)
        for normal, side, parameter, word in zip(normals, sides.tolist(), parameters.tolist(), words)
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
    """Newton steps along the Fricke gradient from p until |fricke_defect| < 1e-13 (at most 60)."""
    x, y, z = (float(c) for c in p)
    for _ in range(60):
        defect = fricke_defect(x, y, z)
        if abs(defect) < 1e-13:
            break
        grad = _fricke_gradient((x, y, z))
        square = float(grad @ grad)
        g0, g1, g2 = grad.tolist()
        x, y, z = x - defect * g0 / square, y - defect * g1 / square, z - defect * g2 / square
    return np.array((x, y, z))


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
    along = float(_IDENTITY3[k] @ np.array(normal))
    t1 = np.array([e - along * c for e, c in zip(_IDENTITY_ROWS[k], normal)])
    length = math.sqrt(float(t1 @ t1))
    u0, u1, u2 = (c / length for c in t1.tolist())
    # n x t1, written out: the products and differences np.cross takes, at a fraction of its set-up.
    return np.array([[u0, n1 * u2 - n2 * u1], [u1, n2 * u0 - n0 * u2], [u2, n0 * u1 - n1 * u0]])


# Monomials x^i y^j z^k as exponent triples.
_ONE, _X, _Y, _Z, _XY = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)

# Right multiplication of c0 I + c1 A + c2 B + c3 AB by A and by B, from
# A^2 = xA - I, B^2 = yB - I and BA = yA + xB + (z - xy)I - AB.  A term
# (target, source, coefficient, monomial) adds coefficient * monomial *
# c[source] to the target coefficient.
_LETTER_PRODUCTS = {
    "A": (
        (0, 1, -1, _ONE), (0, 2, 1, _Z), (0, 2, -1, _XY), (0, 3, -1, _Y),
        (1, 0, 1, _ONE), (1, 1, 1, _X), (1, 2, 1, _Y), (1, 3, 1, _Z),
        (2, 2, 1, _X), (2, 3, 1, _ONE),
        (3, 2, -1, _ONE),
    ),
    "B": (
        (0, 2, -1, _ONE),
        (1, 3, -1, _ONE),
        (2, 0, 1, _ONE), (2, 2, 1, _Y),
        (3, 1, 1, _ONE), (3, 3, 1, _Y),
    ),
}
# a = xI - A and b = yI - B.
_LETTER_PRODUCTS.update(
    {
        inverse: tuple((t, t, 1, monomial) for t in range(4))
        + tuple((t, s, -c, m) for t, s, c, m in _LETTER_PRODUCTS[letter])
        for letter, inverse, monomial in (("A", "a", _X), ("B", "b", _Y))
    }
)
# tr I = 2, tr A = x, tr B = y, tr AB = z, as (source, coefficient, monomial).
_TRACE_TERMS = ((0, 2, _ONE), (1, 1, _X), (2, 1, _Y), (3, 1, _Z))

Polynomial = tuple[np.ndarray, np.ndarray]


def _add_term(out: dict, poly: dict, coefficient: int, monomial: tuple[int, int, int]) -> None:
    i, j, k = monomial
    for (a, b, c), value in poly.items():
        key = (a + i, b + j, c + k)
        out[key] = out.get(key, 0) + coefficient * value


def _trace_polynomial(word: str) -> Polynomial:
    """The trace of a word's SL(2) image as a polynomial in (x, y, z).

    The image is carried as c0 I + c1 A + c2 B + c3 AB with integer
    polynomial coefficients, one letter at a time.  Returns the exponents
    (one row per monomial) and the coefficients.
    """
    coeffs: list[dict] = [{_ONE: 1}, {}, {}, {}]
    for letter in _check_word(word):
        product: list[dict] = [{}, {}, {}, {}]
        for target, source, coefficient, monomial in _LETTER_PRODUCTS[letter]:
            _add_term(product[target], coeffs[source], coefficient, monomial)
        coeffs = product
    trace: dict = {}
    for source, coefficient, monomial in _TRACE_TERMS:
        _add_term(trace, coeffs[source], coefficient, monomial)
    terms = [(key, value) for key, value in trace.items() if value != 0]
    exponents = np.array([key for key, _ in terms], dtype=float).reshape(-1, 3)
    return exponents, np.array([value for _, value in terms], dtype=float)


def _polynomial_jet(poly: Polynomial, p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of a polynomial at p (all coordinates nonzero)."""
    exponents, coefficients = poly
    terms = coefficients * np.multiply.reduce(p**exponents, axis=1)
    first = exponents * terms[:, None]
    grad = first.sum(axis=0) / p
    hess = (exponents.T @ first) / (p[:, None] * p)
    # The diagonal of a fresh C-ordered 3x3 array, as a view: np.diag's subtraction, without its zeros.
    hess.reshape(9)[::4] -= grad / p
    return float(terms.sum()), grad, hess


def _reduced_model(terms: list[tuple[float, Polynomial]], p: np.ndarray):
    """The Kerckhoff objective's local model at p on the trace variety.

    The objective is the sum of w * 2 arccosh(|tr|/2) over the (weight w,
    trace polynomial) terms.  Returns it with a tangent basis, the reduced
    gradient and the reduced Lagrangian Hessian at p; (inf, None, None,
    None) where p leaves the domain (2, KERCKHOFF_TRACE_MAX]^3 or a trace is
    not hyperbolic.
    """
    point = p.tolist()
    if not (min(point) > 2.0 and max(point) <= KERCKHOFF_TRACE_MAX):
        return math.inf, None, None, None
    # The sums of the weighted jets, element by element in Python floats;
    # the products that numpy hands to BLAS stay numpy calls.
    total, grad, hess = 0.0, [0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]] * 3
    for weight, poly in terms:
        trace, d_trace, dd_trace = _polynomial_jet(poly, p)
        if not abs(trace) / 2.0 > 1.0 + 1e-12:
            return math.inf, None, None, None
        room = trace * trace - 4.0
        first = 2.0 * math.copysign(1.0, trace) / math.sqrt(room)
        second = -2.0 * abs(trace) / room**1.5
        total += weight * 2.0 * math.acosh(abs(trace) / 2.0)
        d = d_trace.tolist()
        scale = weight * first
        grad = [g + scale * di for g, di in zip(grad, d)]
        hess = [
            [h + weight * (first * dd + second * (di * dj)) for h, dd, dj in zip(row, dd_row, d)]
            for row, dd_row, di in zip(hess, dd_trace.tolist(), d)
        ]
    normal = _fricke_gradient(point)
    square = float(normal @ normal)
    grad = np.array(grad)
    lagrange = float(grad @ normal) / square
    hess = np.array([[h - lagrange * f for h, f in zip(row, f_row)] for row, f_row in zip(hess, _fricke_hessian(point))])
    basis = _tangent_basis(normal, square)
    return total, basis, basis.T @ grad, basis.T @ hess @ basis


def kerckhoff_point(
    lam: WeightedMulticurve,
    mu: WeightedMulticurve,
    init: TeichPoint,
    *,
    gradient_tol: float = 1e-7,
) -> KerckhoffResult:
    """Minimize the combined multicurve length over the trace variety.

    Each component's trace is a polynomial in (x, y, z), so the objective
    sum of w * 2 arccosh(|tr|/2) has exact gradient and Hessian.  From
    ``init``, a damped Newton iteration works in the tangent plane of the
    trace variety: the step solves the reduced Lagrangian Hessian with its
    eigenvalues replaced by their absolute values (floored), an Armijo
    backtracking search shortens it, and each trial point is projected back
    onto the variety.  Trial points with a trace outside (2, 80] are
    shortened too, so the iteration never leaves that domain.  It stops once
    the projected gradient is below 1e-4 * ``gradient_tol``, when no
    shortened step lowers the objective, or after KERCKHOFF_MAX_STEPS steps.

    Returns the minimizer with its projected gradient norm, the condition
    number of the reduced Hessian there (a flatness diagnostic; the minimizer
    is unique in theory but may sit in a numerically flat valley), and the
    filling advisory.  Raises NoConvergenceError when the start is
    outside the domain or a component is not hyperbolic there (reported with
    an infinite gradient norm after 0 steps), or when the final projected
    gradient is not below ``gradient_tol``, as for a pair with no minimum.
    """
    terms = [(comp.weight, _trace_polynomial(comp.word)) for comp in (*lam.components, *mu.components)]
    p = init.as_array()
    objective, basis, grad, hess = _reduced_model(terms, p)
    if not math.isfinite(objective):
        raise NoConvergenceError(math.inf, gradient_tol, 0)
    steps = 0
    # |v| as np.linalg.norm takes it: the square root of the dot product v @ v.
    while steps < KERCKHOFF_MAX_STEPS and math.sqrt(float(grad @ grad)) > 1e-4 * gradient_tol:
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
        objective, basis, grad, hess = found
        steps += 1
    grad_norm = math.sqrt(float(grad @ grad))
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
