"""The three workloads: their inputs, their operations and the checks on them.

A workload hands out rounds of operations, each drawn from the seed and the
round's index alone.  No input repeats within a round, and each round runs in
a process of its own (see run.py), so every operation meets inputs new to its
process.  A round takes about six seconds on the reference host.  An
operation is timed as a whole; right after its timer stops, the outputs it
wrote are read back, and after the round its check runs on them.  Checks use separately made computations or
properties the method must have, never a stored copy of an earlier output.

Library functions are called through their modules (``bending.psi_lambda``,
``cli.main``) so that the traced mode can wrap them where they are looked up.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from halfpipe import bending, cli, doubling, fuchsian, transition
from halfpipe.fuchsian import TeichPoint, WeightedMulticurve
from halfpipe.geometry import HP

BASE_POINT = transition.DEFAULT_BASE_POINT
J3 = np.diag([-1.0, 1.0, 1.0])

# surface: disk points are drawn uniformly from the disk of this radius.
SURFACE_RADIUS = 0.95
# surface: operations per round of each configuration (a 3:1 mix).
SURFACE_ROUND = (375, 125)
# surface: share of operations whose crossing set is compared with the
# brute-force enumeration, and the word-length bound of that enumeration.
BRUTE_SHARE = 0.1
BRUTE_LENGTH = 8

# transition: gate on the two-sided gap and on the match with the direct
# half-pipe holonomy.
EPS_LIMIT = 1e-6

# double: gradient gate of the critical point, cone-angle gate, the scale of
# the doubled half-pipe convex core, and the step of the 8-direction test.
GRADIENT_TOL = 1e-7
EPS_ANGLE = 1e-9
DOUBLE_SCALE = 0.05
TANGENT_STEP = 1e-3


@dataclass
class Operation:
    """One timed unit of work.

    ``run`` is timed and may raise; ``read`` collects its outputs right after
    the timer stops; ``check`` returns the list of problems found in them.
    """

    label: str
    run: Callable[[], object]
    read: Callable[[object], object]
    check: Callable[[object], list[str]]


def _identity(out):
    return out


class OperationFailed(Exception):
    """An operation ended in a non-zero exit of the command-line front end."""


def _run_cli(*argv: str) -> None:
    code = cli.main(list(argv))
    if code != 0:
        raise OperationFailed(f"halfpipe {argv[0]} exited {code}")


def _config(tp: TeichPoint, **multicurves: WeightedMulticurve) -> dict:
    return {
        "traces": [tp.x, tp.y, tp.z],
        "multicurves": {
            key: [{"word": c.word, "weight": c.weight} for c in mc.components]
            for key, mc in multicurves.items()
        },
    }


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# surface: criterion-08 queries on the half-pipe bent surface
# ---------------------------------------------------------------------------

SURFACE_CONFIGS = (
    ("A@(3,3,3)", TeichPoint(3.0, 3.0, 3.0), "A", 1.0),
    ("0.5AAB@xy(6,3.5)", TeichPoint.from_xy(6.0, 3.5), "AAB", 0.5),
)


def _disk_points(rng: np.random.Generator, count: int) -> np.ndarray:
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    radii = SURFACE_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return np.stack((radii * np.cos(angles), radii * np.sin(angles)), axis=1)


def _word_matrices(group, length: int) -> np.ndarray:
    """Lorentz images of every reduced word up to ``length``, shortest first."""
    gens = [group.lorentz(ch) for ch in "ABab"]
    mats, last = np.eye(3)[np.newaxis], np.array([-1])
    layers = [mats]
    for _ in range(length):
        nxt, nxt_last = [], []
        for j, gen in enumerate(gens):
            mask = last != (j + 2) % 4
            nxt.append(mats[mask] @ gen)
            nxt_last.append(np.full(int(mask.sum()), j))
        mats, last = np.concatenate(nxt), np.concatenate(nxt_last)
        layers.append(mats)
    return np.concatenate(layers)


class BruteForceCrossings:
    """Crossings of a segment found by testing every leaf of bounded word length.

    The leaves are g . axis for every reduced word g up to the length bound;
    a leaf crosses the open segment when its pairing changes sign between the
    endpoints.  Copies of one leaf reached by several words are merged,
    keeping the shortest word, whose normal carries the least rounding.
    """

    def __init__(self, group, multicurve: WeightedMulticurve, length: int = BRUTE_LENGTH):
        mats = _word_matrices(group, length)
        self.normals = [mats @ group.axis(c.word).normal for c in multicurve.components]

    def parameters(self, x: np.ndarray, y: np.ndarray) -> list[tuple[float, int]]:
        out = []
        for index, normals in enumerate(self.normals):
            f0 = normals @ (J3 @ np.concatenate(([1.0], x)))
            f1 = normals @ (J3 @ np.concatenate(([1.0], y)))
            hits = np.nonzero(f0 * f1 < 0.0)[0]
            kept: list[float] = []
            for p in f0[hits] / (f0[hits] - f1[hits]):
                if all(abs(p - q) > 1e-7 for q in kept):
                    kept.append(float(p))
            out.extend((p, index) for p in kept)
        return sorted(out)


class SurfaceConfig:
    """One bent half-pipe surface and the last point queried on it."""

    def __init__(self, name: str, tp: TeichPoint, word: str, weight: float, anchor: np.ndarray):
        self.name = name
        self.ctx = bending.BendingContext(
            group=fuchsian.build_punctured_torus(tp),
            multicurve=WeightedMulticurve.single(word, weight),
            base_point=np.array(BASE_POINT),
            tag=HP,
            sign=1.0,
            scale=1.0,
        )
        self.prev = (anchor, bending.psi_lambda(self.ctx, anchor))
        self._brute: BruteForceCrossings | None = None

    def query(self, z: np.ndarray):
        """bending_map and psi_lambda at z, and psi_lambda at the midpoint with
        the previous point queried on this surface."""
        prev, prev_height = self.prev
        image = bending.bending_map(self.ctx, z)
        height = bending.psi_lambda(self.ctx, z)
        mid_height = bending.psi_lambda(self.ctx, 0.5 * (prev + z))
        self.prev = (z, height)
        return z, prev, prev_height, image, height, mid_height

    def check(self, out, brute: bool) -> list[str]:
        z, prev, prev_height, image, height, mid_height = out
        errors = []
        vec = image.vec / image.vec[0]
        if np.max(np.abs(vec[1:3] - z)) > 1e-10:
            errors.append(f"{self.name}: bending_map({z}) leaves the vertical line over the point")
        if not abs(vec[3] - height) < 1e-10:
            errors.append(f"{self.name}: graph gap {abs(vec[3] - height):.2e} at {z}")
        sag = 0.5 * (height + prev_height) - mid_height
        if not sag <= 1e-12:
            errors.append(f"{self.name}: midpoint sag {sag:.2e} between {prev} and {z}")
        if brute:
            if self._brute is None:
                self._brute = BruteForceCrossings(self.ctx.group, self.ctx.multicurve)
            base = self.ctx.base_point
            walk = [
                (c.parameter, c.component_index)
                for c in fuchsian.leaves_crossing(self.ctx.group, self.ctx.multicurve, base, z)
            ]
            found = self._brute.parameters(base, z)
            if len(walk) != len(found) or any(
                abs(p - q) > 1e-8 or i != j for (p, i), (q, j) in zip(walk, found)
            ):
                errors.append(f"{self.name}: crossings of [x0, {z}]: walk {walk}, brute force {found}")
        return errors


def surface_workload(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    configs = [
        SurfaceConfig(name, tp, word, weight, _disk_points(rng, 1)[0])
        for name, tp, word, weight in SURFACE_CONFIGS
    ]

    def round_ops(index: int) -> list[Operation]:
        rng = np.random.default_rng([seed, index])
        kinds = np.repeat(np.arange(len(configs)), SURFACE_ROUND)
        rng.shuffle(kinds)
        points = _disk_points(rng, kinds.size)
        brute = rng.uniform(size=kinds.size) < BRUTE_SHARE
        ops = []
        for kind, z, sample in zip(kinds, points, brute):
            cfg = configs[kind]
            ops.append(
                Operation(
                    label=f"{cfg.name} z=({z[0]:.6f}, {z[1]:.6f})",
                    run=lambda cfg=cfg, z=z: cfg.query(z),
                    read=_identity,
                    check=lambda out, cfg=cfg, sample=bool(sample): cfg.check(out, sample),
                )
            )
        return ops

    return round_ops


# ---------------------------------------------------------------------------
# transition: one `halfpipe transition` run per word
# ---------------------------------------------------------------------------

TRANSITION_CONFIGS = (
    ("A@(3,3,3)", TeichPoint(3.0, 3.0, 3.0), "A", 1.0),
    ("0.8AB@xy(4,5)", TeichPoint.from_xy(4.0, 5.0), "AB", 0.8),
)


def reduced_words(max_length: int = 4) -> list[str]:
    """Every freely reduced word over A, B, a, b of length 1 to max_length."""
    out = []
    for n in range(1, max_length + 1):
        for letters in itertools.product("ABab", repeat=n):
            if all(letters[i] != letters[i + 1].swapcase() for i in range(n - 1)):
                out.append("".join(letters))
    return out


def hp_matrix_gap(m1: np.ndarray, m2: np.ndarray) -> float:
    """Entrywise gap of two half-pipe matrices scaled to a unit corner entry."""
    return float(np.max(np.abs(m1 / m1[3, 3] - m2 / m2[3, 3])))


def transition_workload(seed: int, workdir: Path):
    outdir = workdir / "transition"
    grid = sorted(transition.DEFAULT_GRID, key=lambda t: (abs(t), t))
    cases = []
    for name, tp, word, weight in TRANSITION_CONFIGS:
        lam = WeightedMulticurve.single(word, weight)
        group = fuchsian.build_punctured_torus(tp)
        for w in reduced_words():
            cfg = dict(_config(tp, **{"lambda": lam}), words=[w])
            path = _write_json(workdir / f"transition-{name}-{w}.json", cfg)
            cases.append((name, group, lam, w, path))

    def check(report: dict, group, lam, word: str) -> list[str]:
        errors = []
        if report["word"] != word or report["grid"] != grid:
            errors.append(f"{word}: report names word {report['word']!r} and grid {report['grid']}")
        gap = report["two_sided_gap"]
        if not gap < EPS_LIMIT:
            errors.append(f"{word}: two-sided gap {gap:.2e} with exit 0")
        again = transition.extrapolate_limit(transition.holonomy_family(group, lam, 1.0, word))
        if abs(again.two_sided_gap - gap) > 1e-14:
            errors.append(f"{word}: report gap {gap:.3e} but the library gives {again.two_sided_gap:.3e}")
        match = hp_matrix_gap(again.limit, transition.direct_hp_matrix(group, lam, 1.0, word))
        if not match < EPS_LIMIT:
            errors.append(f"{word}: limit is {match:.2e} from the direct half-pipe holonomy")
        return errors

    def round_ops(index: int) -> list[Operation]:
        return [
            Operation(
                label=f"{name} {word}",
                run=lambda path=path: _run_cli("transition", "--config", path, "--out", str(outdir)),
                read=lambda _, word=word: json.loads((outdir / f"transition_00_{word}.json").read_text()),
                check=lambda report, group=group, lam=lam, word=word: check(report, group, lam, word),
            )
            for name, group, lam, word, path in (
                cases[i] for i in np.random.default_rng([seed, index]).permutation(len(cases))
            )
        ]

    return round_ops


# ---------------------------------------------------------------------------
# double: critical point, doubled half-pipe convex core, cone-angle table
# ---------------------------------------------------------------------------

DOUBLE_PAIRS = (
    ("A", "B"), ("A", "AB"), ("B", "AB"), ("A", "Ab"),
    ("AAB", "AB"), ("AB", "Ab"), ("AAB", "B"), ("A", "ABB"),
)
DOUBLE_WEIGHTS = ((1.0, 1.0), (0.7, 1.3), (1.3, 0.7), (1.1, 0.9), (0.9, 1.1))
DOUBLE_INITS = {
    "(3,3,3)": TeichPoint(3.0, 3.0, 3.0),
    "xy(4,5)": TeichPoint.from_xy(4.0, 5.0),
    "xy(6,3.5)": TeichPoint.from_xy(6.0, 3.5),
}
# (lambda, mu, weights, initial traces) left out.  With BLAS on one thread
# the first group fails: the Kerckhoff gradient tolerance (1e-7) or the pair
# aligner's residual tolerance (1e-8) is missed (see CHANGES.md).  The second
# group passes, but within a factor 2 of one of those tolerances, where a
# different BLAS build or thread count can tip it over.
DOUBLE_FAILING = (
    ("A", "Ab", (0.7, 1.3), "(3,3,3)"), ("A", "Ab", (0.7, 1.3), "xy(4,5)"),
    ("A", "Ab", (0.9, 1.1), "xy(6,3.5)"),
    ("AAB", "AB", (1.3, 0.7), "(3,3,3)"), ("AAB", "AB", (1.3, 0.7), "xy(4,5)"),
    ("AAB", "AB", (1.3, 0.7), "xy(6,3.5)"),
    ("AAB", "AB", (1.1, 0.9), "(3,3,3)"), ("AAB", "AB", (1.1, 0.9), "xy(6,3.5)"),
)
DOUBLE_MARGINAL = (
    ("A", "Ab", (1.0, 1.0), "xy(6,3.5)"), ("A", "Ab", (0.7, 1.3), "xy(6,3.5)"),
    ("A", "Ab", (0.9, 1.1), "(3,3,3)"), ("A", "Ab", (0.9, 1.1), "xy(4,5)"),
    ("AAB", "AB", (1.0, 1.0), "xy(6,3.5)"), ("AAB", "AB", (1.1, 0.9), "xy(4,5)"),
    ("AB", "Ab", (0.7, 1.3), "xy(6,3.5)"), ("AAB", "B", (1.1, 0.9), "xy(6,3.5)"),
    ("A", "ABB", (0.7, 1.3), "xy(4,5)"), ("A", "ABB", (0.9, 1.1), "xy(6,3.5)"),
)
DOUBLE_EXCLUDED = frozenset(DOUBLE_FAILING + DOUBLE_MARGINAL)


def double_combos() -> list[tuple[str, str, tuple[float, float], str]]:
    return [
        (lam, mu, weights, init)
        for lam, mu in DOUBLE_PAIRS
        for weights in DOUBLE_WEIGHTS
        for init in DOUBLE_INITS
        if (lam, mu, weights, init) not in DOUBLE_EXCLUDED
    ]


def _homology(word: str) -> tuple[int, int]:
    return word.count("A") - word.count("a"), word.count("B") - word.count("b")


def meet_once(lam: str, mu: str) -> bool:
    """Whether two simple curves meet once: on the punctured torus they meet
    as often as the determinant of their homology classes says."""
    (p, q), (r, s) = _homology(lam), _homology(mu)
    return abs(p * s - q * r) == 1


@functools.cache
def one_curve_pair_minimum(a: float, b: float) -> float:
    """Minimum of a*l1 + b*l2 subject to sinh(l1/2) sinh(l2/2) = 1.

    Lengths of two simple closed geodesics that meet once on a cusped
    punctured torus obey this relation at the critical point of the combined
    length, so this is the Kerckhoff minimum for such a pair.
    """
    res = minimize_scalar(
        lambda l1: a * l1 + b * 2.0 * math.asinh(1.0 / math.sinh(0.5 * l1)),
        bounds=(1e-3, 20.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.fun)


def _fricke(p: np.ndarray) -> float:
    x, y, z = p
    return x * x + y * y + z * z - x * y * z


def _fricke_gradient(p: np.ndarray) -> np.ndarray:
    x, y, z = p
    return np.array([2.0 * x - y * z, 2.0 * y - x * z, 2.0 * z - x * y])


def _onto_variety(p: np.ndarray) -> np.ndarray:
    for _ in range(50):
        defect = _fricke(p)
        if abs(defect) < 1e-13:
            break
        grad = _fricke_gradient(p)
        p = p - defect * grad / float(grad @ grad)
    return p


def tangent_points(p: np.ndarray) -> list[TeichPoint]:
    """Points of the trace variety TANGENT_STEP away from p in 8 directions."""
    n = _fricke_gradient(p)
    n = n / np.linalg.norm(n)
    t1 = np.eye(3)[np.argmin(np.abs(n))]
    t1 = t1 - float(t1 @ n) * n
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    out = []
    for k in range(8):
        angle = 2.0 * math.pi * k / 8
        q = _onto_variety(p + TANGENT_STEP * (math.cos(angle) * t1 + math.sin(angle) * t2))
        out.append(TeichPoint(*q))
    return out


def double_workload(seed: int, workdir: Path):
    outdir = workdir / "double"
    base = np.array(BASE_POINT)
    cases = []
    for lam_word, mu_word, (a, b), init in double_combos():
        lam = WeightedMulticurve.single(lam_word, a)
        mu = WeightedMulticurve.single(mu_word, b)
        label = f"{a}*{lam_word},{b}*{mu_word} from {init}"
        path = _write_json(
            workdir / f"kerckhoff-{lam_word}-{mu_word}-{a}-{b}-{init}.json",
            _config(DOUBLE_INITS[init], **{"lambda": lam, "mu": mu}),
        )
        cases.append((label, lam, mu, path))

    def run(lam, mu, path):
        _run_cli("kerckhoff", "--config", path, "--out", str(outdir))
        report = json.loads((outdir / "kerckhoff.json").read_text())
        tp = TeichPoint(*report["traces"])
        group = fuchsian.build_punctured_torus(tp)
        upper = bending.BendingContext(group, lam, base, HP, 1.0, DOUBLE_SCALE)
        lower = bending.BendingContext(group, mu, base, HP, -1.0, DOUBLE_SCALE)
        doubled = doubling.double_convex_core_pair(upper, lower)
        cone_config = _write_json(outdir / "double-config.json", _config(tp, **{"lambda": lam}))
        _run_cli("double", "--config", cone_config, "--out", str(outdir))
        return report, doubled

    def read(out):
        report, doubled = out
        with open(outdir / "cone_angles.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        return report, doubled, rows

    def check(out, lam, mu) -> list[str]:
        report, doubled, rows = out
        errors = []
        p = np.array(report["traces"])
        tp = TeichPoint(*p)
        if not report["gradient_norm"] < GRADIENT_TOL:
            errors.append(f"gradient norm {report['gradient_norm']:.2e}")

        def objective(point):
            return fuchsian.multicurve_length(point, lam) + fuchsian.multicurve_length(point, mu)

        value = objective(tp)
        if abs(value - report["objective"]) > 1e-10:
            errors.append(f"objective {report['objective']!r} but the lengths sum to {value!r}")
        for q in tangent_points(p):
            if not objective(q) > value:
                errors.append(f"objective does not increase toward {q}")
        a, b = lam.components[0].weight, mu.components[0].weight
        if meet_once(lam.components[0].word, mu.components[0].word):
            expected = one_curve_pair_minimum(a, b)
            if abs(value - expected) > 1e-8:
                errors.append(f"objective {value!r} but the one-variable minimum is {expected!r}")
        if doubled.face_count != 2:
            errors.append(f"doubled core has {doubled.face_count} faces, expected 2")
        expected_rows = 3 * len(cli.DEFAULT_CONE_GRID)
        if len(rows) != expected_rows:
            errors.append(f"cone-angle table has {len(rows)} rows, expected {expected_rows}")
        for row in rows:
            t, w, angle = float(row["t"]), float(row["weight"]), float(row["cone_angle"])
            exact = 2.0 * (math.pi - t * w) if row["geometry"] == "hyperbolic" else -2.0 * t * w
            if not abs(angle - exact) < EPS_ANGLE:
                errors.append(f"{row['geometry']} cone angle {angle!r} at t={t}, expected {exact!r}")
        return errors

    def round_ops(index: int) -> list[Operation]:
        # Half of the combinations per round: rounds 2k and 2k + 1 split one
        # seeded order between them.
        order = np.random.default_rng([seed, index // 2]).permutation(len(cases))
        return [
            Operation(
                label=label,
                run=lambda lam=lam, mu=mu, path=path: run(lam, mu, path),
                read=read,
                check=lambda out, lam=lam, mu=mu: check(out, lam, mu),
            )
            for label, lam, mu, path in (cases[i] for i in order[index % 2 :: 2])
        ]

    return round_ops


WORKLOADS = {
    "surface": surface_workload,
    "transition": transition_workload,
    "double": double_workload,
}
