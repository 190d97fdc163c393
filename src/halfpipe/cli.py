"""Command-line front end: deterministic reports and static surface exports.

Subcommands drive the library modules and write JSON/CSV files whose bytes
depend only on the config, the grid, and the seed.  Exit codes: 0 success,
2 config error (an output path that cannot be written included, and a
grid or curve pair that the config alone rules out), 3 numerical-budget
error, 4 acceptance-threshold failure.  Each of the four JSON documents (a
word's transition report, the transition summary, the Kerckhoff report and
the surface scene) is one dict literal in its subcommand, and
``test_each_json_document_has_its_fields_and_the_library_values`` in
tests/test_cli.py pins their fields and value types.

Every report is written by ``_write_report``, which rewrites an existing file
in place and then cuts it to length instead of truncating it to zero first.
On ext4 with its default ``auto_da_alloc``, closing a file that was truncated
to zero starts its writeback at once.  On a 2-core host with an ext4 root,
overwriting a 317-byte report that way took about 100 us back to back, and
about five times as long as writing it in place; a ``transition`` run that
rewrites the reports of an earlier one pays that per report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bending import BendingContext, _crossings_to, _develop
from .doubling import meridian_cone_angles
from .fuchsian import (
    KERCKHOFF_GRADIENT_TOL,
    PuncturedTorusGroup,
    TeichPoint,
    WeightedMulticurve,
    build_punctured_torus,
    filling_advisory,
    kerckhoff_point,
)
from .geometry import ADS, HP, HYP, GeometryError, SpacelikeGeodesicH2, disk_point, form_eval
from .transition import (
    DEFAULT_BASE_POINT,
    DEFAULT_GRID,
    EPS_LIMIT,
    extrapolate_limit,
    holonomy_family,
    least_squares_slope,
    signed_context,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4

EPS_GEOM = 1e-10
EPS_SLOPE = 1e-8
EPS_HP_GAP = 1e-6
DEFAULT_CONE_GRID = (0.2, 0.1, 0.05, 0.01)
DEFAULT_SAMPLES = 200
# Largest sample count export-surface accepts (20,000 took 4.8 s and wrote
# 1.7 MB on a 2-core host); larger ones are refused before anything is drawn.
MAX_SAMPLES = 1_000_000
POLYLINE_POINTS = 24
SCHEMA_VERSION = 1


class ConfigError(Exception):
    """A config file could not be parsed or fails field validation."""


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # nesting too deep to parse, or an integer past Python's digit limit
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _numbers(field: str, value):
    """``value``, refused when it is or holds a JSON boolean, which Python would read as the number 0 or 1, or an
    integer too large for a float; walked with a stack, so that no nesting json.loads accepts exhausts the call stack."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, list):
            items.extend(item)
        elif isinstance(item, bool):
            raise ConfigError(f"field '{field}' must hold numbers, not booleans; got {json.dumps(value)}")
        elif isinstance(item, int) and abs(item) > sys.float_info.max:
            raise ConfigError(f"field '{field}' holds an integer of {len(str(abs(item)))} digits, too large for a float")
    return value


def _group_from_config(cfg: dict) -> PuncturedTorusGroup:
    has_traces = "traces" in cfg
    has_gens = "generators" in cfg
    if has_traces == has_gens:
        raise ConfigError("config needs exactly one of the fields 'traces' or 'generators'")
    field = "traces" if has_traces else "generators"
    if has_traces:
        traces = _numbers("traces", cfg["traces"])
        if not (isinstance(traces, list) and len(traces) == 3):
            raise ConfigError("field 'traces' must be a list of three numbers")
    else:
        gens = _numbers("generators", cfg["generators"])
        try:
            a, b = (np.asarray(g, dtype=float).reshape(2, 2) for g in gens)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'generators' must hold two 2x2 matrices: {exc}") from exc
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ConfigError(f"field 'generators' must hold finite numbers; got {[a.tolist(), b.tolist()]}")
        dets = np.linalg.det(np.stack((a, b)))
        # Written so that a NaN determinant fails too.
        if not np.all(np.abs(dets - 1.0) <= 1e-9):
            raise ConfigError(f"field 'generators' must have determinant 1; got {dets.tolist()}")
        traces = (float(np.trace(a)), float(np.trace(b)), float(np.trace(a @ b)))
    try:
        return build_punctured_torus(TeichPoint(*map(float, traces)))
    except (TypeError, ValueError) as exc:  # BadTracesError is a ValueError
        raise ConfigError(f"field '{field}': {exc}") from exc


def _multicurve_from_config(cfg: dict, key: str) -> WeightedMulticurve:
    table = cfg.get("multicurves")
    if not isinstance(table, dict) or key not in table:
        raise ConfigError(f"config needs field 'multicurves.{key}'")
    entries = table[key]
    if not (isinstance(entries, list) and len(entries) == 1 and isinstance(entries[0], dict) and "word" in entries[0]):
        raise ConfigError(f"field 'multicurves.{key}' must be a list of one entry with a 'word'")
    weight = _numbers(f"multicurves.{key}.weight", entries[0].get("weight", 1.0))
    try:
        return WeightedMulticurve.single(str(entries[0]["word"]), float(weight))
    except (TypeError, ValueError, GeometryError) as exc:
        raise ConfigError(f"field 'multicurves.{key}': {exc}") from exc


def _grid_from(args, cfg: dict, default) -> tuple[float, ...]:
    if args.grid is not None:
        raw = args.grid.split(",")
    elif "grid" in cfg:
        raw = _numbers("grid", cfg["grid"])
        if not isinstance(raw, list):
            raise ConfigError("field 'grid' must be a list of numbers")
    else:
        return tuple(default)
    try:
        grid = tuple(float(v) for v in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid value: {exc}") from exc
    if not grid:
        raise ConfigError("grid must not be empty")
    if not all(math.isfinite(t) for t in grid):
        raise ConfigError("grid values must be finite")
    if len(set(grid)) != len(grid):
        raise ConfigError(f"grid values must be distinct; got {list(grid)}")
    return grid


def _base_point_from(cfg: dict) -> np.ndarray:
    try:
        base = np.asarray(_numbers("base_point", cfg.get("base_point", DEFAULT_BASE_POINT)), dtype=float).reshape(2)
        disk_point(base)  # its OutsideModelError is a ValueError
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'base_point' must hold two numbers of the open unit disk: {exc}") from exc
    return base


def _words_from(cfg: dict) -> tuple[str, ...]:
    words = cfg.get("words", ["A", "B", "AB"])
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ConfigError("field 'words' must be a list of strings")
    if not words:
        raise ConfigError("field 'words' is empty: a transition report needs at least one word")
    for word in words:
        if not word or not set(word) <= set("ABab"):
            raise ConfigError(f"field 'words': {word!r} is not a nonempty word over A, B, a, b")
    return tuple(words)


def _finite_or_none(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def _write_report(outdir: Path, name: str, text: str) -> Path:
    """Write ``text`` to outdir/name, creating the directory and file as needed.

    The text is encoded once and written through a buffered binary file,
    which writes every byte.  Reports are ASCII, so the bytes and the
    new-file mode are those of a text-mode ``open(path, "w")``, but an
    existing file is overwritten in place and then truncated at the end of
    the new bytes, never truncated to zero first (see the module
    docstring).  Nothing is synced, so this is no more
    durable than truncating first: a crash can leave the file holding older
    bytes, or new bytes followed by the tail of a longer old report, where
    truncating first could leave a short or empty file.  Any OSError becomes
    a ConfigError that names the path.
    """
    path = outdir / name
    try:
        if not outdir.is_dir():
            outdir.mkdir(parents=True, exist_ok=True)
        with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
            handle.write(text.encode())
            handle.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc
    return path


def _check_transition_grid(grid: tuple[float, ...]) -> None:
    """Refuse a grid that the transition extrapolation cannot use: a value of 0, or fewer than three values on a side."""
    if 0.0 in grid:
        raise ConfigError(f"field 'grid': transition grid values must be nonzero; got {list(grid)}")
    positive, negative = sum(t > 0.0 for t in grid), sum(t < 0.0 for t in grid)
    if min(positive, negative) < 3:
        raise ConfigError(
            f"field 'grid': transition needs at least three values on each side of 0; "
            f"got {positive} positive and {negative} negative in {list(grid)}"
        )


def _check_cone_grid(grid: tuple[float, ...], lam: WeightedMulticurve) -> None:
    """Refuse a cone-angle grid that holds a nonpositive value or a hyperbolic bending angle t * weight of pi or more."""
    if any(t <= 0.0 for t in grid):
        raise ConfigError(f"field 'grid': cone-angle grid values must be positive; got {list(grid)}")
    for t in grid:
        # The product the cone-angle table refuses, so the two checks agree to the bit.
        if t * lam.weight >= math.pi:
            raise ConfigError(
                f"field 'grid': value {t!r} times the weight {lam.weight!r} of 'multicurves.lambda' is "
                f"{t * lam.weight!r}, a hyperbolic bending angle of pi or more"
            )


def _write_json(outdir: Path, name: str, doc: dict) -> Path:
    return _write_report(outdir, name, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands, each given the arguments, the config, its group and lambda, which main reads in that order.
# ---------------------------------------------------------------------------


def cmd_transition(args, cfg: dict, group: PuncturedTorusGroup, lam: WeightedMulticurve) -> int:
    grid = _grid_from(args, cfg, DEFAULT_GRID)
    _check_transition_grid(grid)
    words = _words_from(cfg)
    _base_point_from(cfg)  # validated, though the families take the default basepoint
    tol = args.tol if args.tol is not None else EPS_LIMIT
    outdir = Path(args.out)

    gaps = []
    for index, word in enumerate(words):
        family = holonomy_family(group, lam, 1.0, word, grid=grid)
        report = extrapolate_limit(family)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "seed": args.seed,
            "word": report.word,
            "grid": list(report.grid),
            "residuals": list(report.residuals),
            # JSON has no Infinity literal, so the infinite order of a side converged to rounding is null.
            "order_pos": _finite_or_none(report.order_positive),
            "order_neg": _finite_or_none(report.order_negative),
            "two_sided_gap": report.two_sided_gap,
        }
        _write_json(outdir, f"transition_{index:02d}_{word}.json", doc)
        gaps.append(report.two_sided_gap)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "grid": [float(t) for t in grid],
        "words": list(words),
        "gaps": gaps,
        "tolerance": tol,
    }
    _write_json(outdir, "transition_summary.json", summary)
    return EXIT_OK if all(g < tol for g in gaps) else EXIT_THRESHOLD


def cmd_kerckhoff(args, cfg: dict, group: PuncturedTorusGroup, lam: WeightedMulticurve) -> int:
    mu = _multicurve_from_config(cfg, "mu")
    advisory = filling_advisory(lam, mu)
    if advisory is not None:
        # Such a pair has no length minimum, so the search would only run out of steps.
        raise ConfigError(f"fields 'multicurves.lambda' and 'multicurves.mu': {advisory}")
    tol = args.tol if args.tol is not None else KERCKHOFF_GRADIENT_TOL
    result = kerckhoff_point(lam, mu, group.trace_point, gradient_tol=tol)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "traces": [float(result.point.x), float(result.point.y), float(result.point.z)],
        "objective": float(result.objective),
        "gradient_norm": float(result.gradient_norm),
        "hessian_condition": float(result.hessian_condition),
        "advisory": result.advisory,
    }
    _write_json(Path(args.out), "kerckhoff.json", doc)
    return EXIT_OK


def cmd_double(args, cfg: dict, group: PuncturedTorusGroup, lam: WeightedMulticurve) -> int:
    # The group is validated, though the table does not depend on the traces.
    grid = _grid_from(args, cfg, DEFAULT_CONE_GRID)
    _check_cone_grid(grid, lam)
    slope_tol = args.tol if args.tol is not None else EPS_SLOPE
    hp_tol = args.tol if args.tol is not None else EPS_HP_GAP
    _base_point_from(cfg)  # validated, though the table does not depend on a basepoint

    slices = [(tag, t) for tag in (HYP, ADS, HP) for t in grid]
    table = meridian_cone_angles(lam, slices)
    hyp, ads, hp = (table[i : i + len(grid)] for i in range(0, len(table), len(grid)))
    # The doubled metrics close up affinely: slope -2 * weight on each side,
    # checked relative to 2 * weight, so that tiny weights are checked too.
    two_weight = 2.0 * lam.weight
    slope_gaps = []
    if len(grid) >= 2:
        # A grid this small is refused as too small for the slope fit (exit 3).
        if not any(t * t for t in grid):
            raise GeometryError(f"the cone-angle slope fit fails on the grid {list(grid)}: all squares underflow to 0")
        for angles in (hyp, ads):
            slope_gaps.append(abs(least_squares_slope(grid, angles) + two_weight) / two_weight)
    hp_gap = max(abs(angle + 2.0 * lam.weight * t) for t, angle in zip(grid, hp))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["geometry", "word", "weight", "t", "cone_angle"])
    for (tag, t), angle in zip(slices, table):
        writer.writerow([tag.name.lower(), lam.word, repr(float(lam.weight)), repr(float(t)), repr(angle)])

    _write_report(Path(args.out), "cone_angles.csv", buffer.getvalue())
    # Written so that a NaN gap fails.
    passed = all(gap < slope_tol for gap in slope_gaps) and hp_gap < hp_tol
    return EXIT_OK if passed else EXIT_THRESHOLD


def _vertex(ctx: BendingContext, p, crossings, tol: float) -> list[float]:
    """The chart point of the disk point p developed by its crossings, refused off the chart region of the model."""
    vertex = _develop(ctx, p, crossings).affine_chart()
    if not form_eval(ctx.tag, (1.0, *vertex)) < tol:
        raise GeometryError(f"exported vertex {vertex} leaves the {ctx.tag.name} chart region")
    return [float(c) for c in vertex]


def _sample_disk(rng: np.random.Generator, count: int) -> np.ndarray:
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    radii = 0.55 * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return np.stack((radii * np.cos(angles), radii * np.sin(angles)), axis=1)


def _leaf_polyline(ctx: BendingContext, leaf, tol: float) -> list:
    start, end = leaf.ideal_endpoints_klein()
    steps = np.linspace(0.02, 0.98, POLYLINE_POINTS)
    return [_vertex(ctx, *_crossings_to(ctx, (1.0 - u) * start + u * end), tol) for u in steps]


def cmd_export_surface(args, cfg: dict, group: PuncturedTorusGroup, lam: WeightedMulticurve) -> int:
    grid = _grid_from(args, cfg, (0.1,))
    if len(grid) != 1:
        raise ConfigError(f"export-surface takes one grid value; got {list(grid)}")
    (t,) = grid
    samples = cfg.get("samples", DEFAULT_SAMPLES)
    if isinstance(samples, bool) or not isinstance(samples, int) or not 0 < samples <= MAX_SAMPLES:
        raise ConfigError(f"field 'samples' must be an integer from 1 to {MAX_SAMPLES}; got {samples!r}")
    tol = args.tol if args.tol is not None else EPS_GEOM
    ctx = signed_context(group, lam, _base_point_from(cfg), 1.0, t)

    rng = np.random.default_rng(args.seed)
    disk_points = _sample_disk(rng, samples)
    vertices = []
    normals = {}  # conjugator word -> leaf normal pointing away from the basepoint, on every segment from it
    for z in disk_points:
        # One crossing query develops the sample and names its leaves; a sample on a leaf takes the basepoint side.
        p, crossings = _crossings_to(ctx, z)
        vertices.append(_vertex(ctx, p, crossings, tol))
        for (n0, n1, n2), side, word in zip(crossings[0], crossings[1], crossings[3]):
            normals.setdefault(word, (side * n0, side * n1, side * n2))
    leaves = sorted(map(SpacelikeGeodesicH2, normals.values()), key=lambda leaf: tuple(np.round(leaf.normal, 9)))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "vertices": vertices,
        "polylines": [_leaf_polyline(ctx, leaf, tol) for leaf in leaves],
        "metadata": {
            "geometry": ctx.tag.name.lower(),
            "t": t,
            "multicurve": [{"word": lam.word, "weight": lam.weight}],
            "chart": "x0=1",
        },
    }
    _write_json(Path(args.out), "scene.json", doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="halfpipe",
        description="Deterministic reports and exports for bent geometric structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "transition": (cmd_transition, "Extrapolate rescaled holonomy families per word; base_point is validated only."),
        "kerckhoff": (cmd_kerckhoff, "Locate the combined-length critical point."),
        "double": (
            cmd_double,
            "Tabulate meridian cone angles of the doubled metrics; base_point is validated but does not enter the table.",
        ),
        "export-surface": (cmd_export_surface, "Export a bent surface mesh with bending lines."),
    }
    grid_help = {
        "transition": "comma-separated nonzero t values overriding the config grid, at least three on each side of 0",
        "double": "comma-separated positive t values overriding the config grid, each tabulated in all three models",
        "export-surface": "one t value overriding the config grid: t > 0 hyperbolic, t < 0 anti-de Sitter, 0 half-pipe",
    }
    tol_help = {
        "transition": f"threshold on each word's two-sided gap (default {EPS_LIMIT:g})",
        "kerckhoff": f"gradient-norm tolerance of the search (default {KERCKHOFF_GRADIENT_TOL:g})",
        "double": f"threshold on both the relative slope gap (default {EPS_SLOPE:g}) and the half-pipe gap "
        f"(default {EPS_HP_GAP:g})",
        "export-surface": f"slack of the chart-region check of each exported vertex (default {EPS_GEOM:g})",
    }
    for name, (handler, help_text) in handlers.items():
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=".", help="output directory")
        if name in grid_help:
            cmd.add_argument("--grid", help=grid_help[name])
        cmd.add_argument("--seed", type=int, default=0, help="seed recorded in outputs (non-negative)")
        cmd.add_argument("--tol", type=float, default=None, help=f"{tol_help[name]}; finite, positive")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Written so that a NaN threshold fails too.
        if args.tol is not None and not 0.0 < args.tol < math.inf:
            raise ConfigError(f"--tol must be a finite positive number; got {args.tol!r}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer; got {args.seed}")
        cfg = _load_config(args.config)
        return args.handler(args, cfg, _group_from_config(cfg), _multicurve_from_config(cfg, "lambda"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
