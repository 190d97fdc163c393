"""Command-line front end: deterministic reports and static surface exports.

Subcommands drive the library modules and write JSON/CSV files whose bytes
depend only on the config, the grid, and the seed.  Exit codes: 0 success,
2 config error (an output path that cannot be written included, and a
grid or curve pair that the config alone rules out), 3 numerical-budget
error, 4 acceptance-threshold failure.

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

from .bending import BendingContext, bending_map
from .doubling import meridian_cone_angles
from .fuchsian import (
    BadTracesError,
    PuncturedTorusGroup,
    TeichPoint,
    WeightedMulticurve,
    build_punctured_torus,
    filling_advisory,
    kerckhoff_point,
    leaves_crossing,
)
from .geometry import ADS, HP, HYP, Geometry, GeometryError
from .transition import (
    DEFAULT_BASE_POINT,
    DEFAULT_GRID,
    EPS_LIMIT,
    extrapolate_limit,
    holonomy_family,
    signed_context,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4

EPS_GEOM = 1e-10
DEFAULT_CONE_GRID = (0.2, 0.1, 0.05, 0.01)
DEFAULT_SAMPLES = 200
# Largest sample count export-surface accepts (20,000 took 4.8 s and wrote
# 1.7 MB on a 2-core host); larger ones are refused before anything is drawn.
MAX_SAMPLES = 1_000_000
POLYLINE_POINTS = 24
SCHEMA_VERSION = 1

# field name -> type accepted by each output document; versioned with the repo
_SCHEMAS = {
    "transition_report": {
        "schema_version": int,
        "seed": int,
        "word": str,
        "grid": list,
        "residuals": list,
        "order_pos": (float, type(None)),
        "order_neg": (float, type(None)),
        "two_sided_gap": float,
    },
    "transition_summary": {
        "schema_version": int,
        "seed": int,
        "grid": list,
        "words": list,
        "gaps": list,
        "tolerance": float,
    },
    "kerckhoff_report": {
        "schema_version": int,
        "seed": int,
        "traces": list,
        "objective": float,
        "gradient_norm": float,
        "hessian_condition": float,
        "advisory": (str, type(None)),
    },
    "scene_export": {
        "schema_version": int,
        "seed": int,
        "vertices": list,
        "polylines": list,
        "metadata": dict,
    },
}


class ConfigError(Exception):
    """A config file could not be parsed or fails field validation."""


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _numbers(field: str, value):
    """``value``, refused when it is or holds a JSON boolean, which Python would read as the number 0 or 1."""

    def holds_boolean(item) -> bool:
        return isinstance(item, bool) or (isinstance(item, list) and any(map(holds_boolean, item)))

    if holds_boolean(value):
        raise ConfigError(f"field '{field}' must hold numbers, not booleans; got {json.dumps(value)}")
    return value


def _group_from_config(cfg: dict) -> PuncturedTorusGroup:
    has_traces = "traces" in cfg
    has_gens = "generators" in cfg
    if has_traces == has_gens:
        raise ConfigError("config needs exactly one of the fields 'traces' or 'generators'")
    if has_traces:
        traces = _numbers("traces", cfg["traces"])
        if not (isinstance(traces, list) and len(traces) == 3):
            raise ConfigError("field 'traces' must be a list of three numbers")
        try:
            return build_punctured_torus(TeichPoint(*map(float, traces)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'traces': {exc}") from exc
    gens = _numbers("generators", cfg["generators"])
    try:
        a, b = (np.asarray(g, dtype=float).reshape(2, 2) for g in gens)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'generators' must hold two 2x2 matrices: {exc}") from exc
    dets = np.linalg.det(np.stack((a, b)))
    # Written so that a NaN determinant fails too.
    if not np.all(np.abs(dets - 1.0) <= 1e-9):
        raise ConfigError(f"field 'generators' must have determinant 1; got {dets.tolist()}")
    traces = (float(np.trace(a)), float(np.trace(b)), float(np.trace(a @ b)))
    try:
        return build_punctured_torus(TeichPoint(*traces))
    except BadTracesError as exc:
        raise ConfigError(f"field 'generators': {exc}") from exc


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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'base_point' must hold two numbers: {exc}") from exc
    if not float(base @ base) < 1.0:
        raise ConfigError("field 'base_point' must be a finite point of the open unit disk")
    return base


def _words_from(cfg: dict) -> tuple[str, ...]:
    words = cfg.get("words", ["A", "B", "AB"])
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ConfigError("field 'words' must be a list of strings")
    for word in words:
        if not word or not set(word) <= set("ABab"):
            raise ConfigError(f"field 'words': {word!r} is not a nonempty word over A, B, a, b")
    return tuple(words)


def _finite_or_none(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def _validate_document(doc: dict, schema_name: str) -> None:
    schema = _SCHEMAS[schema_name]
    for field, kind in schema.items():
        if field not in doc:
            raise GeometryError(f"output misses schema field '{field}' ({schema_name})")
        if not isinstance(doc[field], kind):
            raise GeometryError(
                f"output field '{field}' has type {type(doc[field]).__name__}, "
                f"violating schema {schema_name} v{SCHEMA_VERSION}"
            )


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
    weight = lam.components[0].weight
    for t in grid:
        # The product the cone-angle table refuses, so the two checks agree to the bit.
        if t * weight >= math.pi:
            raise ConfigError(
                f"field 'grid': value {t!r} times the weight {weight!r} of 'multicurves.lambda' is "
                f"{t * weight!r}, a hyperbolic bending angle of pi or more"
            )


def _write_json(outdir: Path, name: str, doc: dict, schema_name: str) -> Path:
    _validate_document(doc, schema_name)
    return _write_report(outdir, name, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_transition(args) -> int:
    cfg = _load_config(args.config)
    group = _group_from_config(cfg)
    lam = _multicurve_from_config(cfg, "lambda")
    grid = _grid_from(args, cfg, DEFAULT_GRID)
    _check_transition_grid(grid)
    words = _words_from(cfg)
    tol = args.tol if args.tol is not None else EPS_LIMIT
    outdir = Path(args.out)

    gaps = []
    for index, word in enumerate(words):
        family = holonomy_family(group, lam, 1.0, word, grid=grid)
        report = extrapolate_limit(family)
        doc = {"schema_version": SCHEMA_VERSION, "seed": args.seed}
        doc.update(report.to_json_dict())
        # converged-to-rounding sides report an infinite order; JSON has no
        # Infinity literal, so those become null
        doc["order_pos"] = _finite_or_none(doc["order_pos"])
        doc["order_neg"] = _finite_or_none(doc["order_neg"])
        _write_json(outdir, f"transition_{index:02d}_{word}.json", doc, "transition_report")
        gaps.append(float(report.two_sided_gap))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "grid": [float(t) for t in grid],
        "words": list(words),
        "gaps": gaps,
        "tolerance": tol,
    }
    _write_json(outdir, "transition_summary.json", summary, "transition_summary")
    return EXIT_OK if all(g < tol for g in gaps) else EXIT_THRESHOLD


def cmd_kerckhoff(args) -> int:
    cfg = _load_config(args.config)
    group = _group_from_config(cfg)
    lam = _multicurve_from_config(cfg, "lambda")
    mu = _multicurve_from_config(cfg, "mu")
    advisory = filling_advisory(lam, mu)
    if advisory is not None:
        # Such a pair has no length minimum, so the search would only run out of steps.
        raise ConfigError(f"fields 'multicurves.lambda' and 'multicurves.mu': {advisory}")
    tol = args.tol if args.tol is not None else 1e-7
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
    _write_json(Path(args.out), "kerckhoff.json", doc, "kerckhoff_report")
    return EXIT_OK


def cmd_double(args) -> int:
    cfg = _load_config(args.config)
    group = _group_from_config(cfg)
    lam = _multicurve_from_config(cfg, "lambda")
    grid = _grid_from(args, cfg, DEFAULT_CONE_GRID)
    _check_cone_grid(grid, lam)
    slope_tol = args.tol if args.tol is not None else 1e-8
    hp_tol = args.tol if args.tol is not None else 1e-6
    base = _base_point_from(cfg)

    curve = lam.components[0]
    slices = [(tag, t) for tag in (HYP, ADS, HP) for t in grid]
    table = meridian_cone_angles(group, lam, base, slices)
    hyp, ads, hp = (table[i : i + len(grid)] for i in range(0, len(table), len(grid)))
    # the doubled metrics close up affinely: slope -2 * weight on each side
    slope_gap = 0.0
    if len(grid) >= 2:
        # np.polyfit divides the grid by its norm, which is 0 when every square
        # underflows; LAPACK then fails, printing to stdout.  Refused before that.
        if not any(t * t for t in grid):
            raise GeometryError(f"the cone-angle slope fit fails on the grid {list(grid)}: all squares underflow to 0")
        for angles in (hyp, ads):
            slope = float(np.polyfit(np.array(grid), np.array(angles), 1)[0])
            slope_gap = max(slope_gap, abs(slope + 2.0 * curve.weight))
    hp_gap = max(abs(angle + 2.0 * curve.weight * t) for t, angle in zip(grid, hp))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["geometry", "word", "weight", "t", "cone_angle"])
    for (tag, t), angle in zip(slices, table):
        writer.writerow([tag.name.lower(), curve.word, repr(float(curve.weight)), repr(float(t)), repr(angle)])

    _write_report(Path(args.out), "cone_angles.csv", buffer.getvalue())
    return EXIT_OK if slope_gap < slope_tol and hp_gap < hp_tol else EXIT_THRESHOLD


def _check_region(tag: Geometry, vertex: np.ndarray, tol: float) -> None:
    x, y, h = (float(c) for c in vertex)
    disk = x * x + y * y
    if tag is HYP:
        inside = disk + h * h < 1.0 + tol
    elif tag is ADS:
        inside = disk - h * h < 1.0 + tol
    else:
        inside = disk < 1.0 + tol
    if not inside:
        raise GeometryError(f"exported vertex {vertex} leaves the {tag.name} chart region")


def _sample_disk(rng: np.random.Generator, count: int) -> np.ndarray:
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    radii = 0.55 * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return np.stack((radii * np.cos(angles), radii * np.sin(angles)), axis=1)


def _leaf_polyline(ctx: BendingContext, leaf, tol: float) -> list:
    start, end = leaf.ideal_endpoints_klein()
    points = []
    for u in np.linspace(0.02, 0.98, POLYLINE_POINTS):
        z = (1.0 - u) * start + u * end
        vertex = bending_map(ctx, z).affine_chart()
        _check_region(ctx.tag, vertex, tol)
        points.append([float(c) for c in vertex])
    return points


def cmd_export_surface(args) -> int:
    cfg = _load_config(args.config)
    group = _group_from_config(cfg)
    lam = _multicurve_from_config(cfg, "lambda")
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
    seen_leaves = {}
    for z in disk_points:
        vertex = bending_map(ctx, z).affine_chart()
        _check_region(ctx.tag, vertex, tol)
        vertices.append([float(c) for c in vertex])
        for crossing in leaves_crossing(group, lam, ctx.base_point, z):
            key = tuple(np.round(crossing.leaf.normal, 9))
            seen_leaves.setdefault(key, crossing.leaf)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "vertices": vertices,
        "polylines": [_leaf_polyline(ctx, leaf, tol) for _, leaf in sorted(seen_leaves.items())],
        "metadata": {
            "geometry": ctx.tag.name.lower(),
            "t": t,
            "multicurve": [{"word": c.word, "weight": c.weight} for c in lam.components],
            "chart": "x0=1",
        },
    }
    _write_json(Path(args.out), "scene.json", doc, "scene_export")
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
        "transition": (cmd_transition, "Extrapolate rescaled holonomy families per word."),
        "kerckhoff": (cmd_kerckhoff, "Locate the combined-length critical point."),
        "double": (cmd_double, "Tabulate meridian cone angles of the doubled metrics."),
        "export-surface": (cmd_export_surface, "Export a bent surface mesh with bending lines."),
    }
    for name, (handler, help_text) in handlers.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=".", help="output directory")
        if name != "kerckhoff":
            cmd.add_argument(
                "--grid",
                help="comma-separated t values overriding the config grid "
                "(sign selects the geometry: +t collapsing, -t expanding, 0 flat)",
            )
        cmd.add_argument("--seed", type=int, default=0, help="seed recorded in outputs (non-negative)")
        cmd.add_argument("--tol", type=float, default=None, help="threshold override (finite, positive)")
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
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
