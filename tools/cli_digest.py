"""Digest the output files and exit codes of the halfpipe CLI over a fixed set of runs.

The runs, all in one process:

- ``transition`` on every reduced word of length 1 to 4, in both
  configurations of the benchmark's ``transition`` workload (320 runs);
- ``kerckhoff`` on the 102 combinations of the benchmark's ``double``
  workload, each followed by ``double`` at the point it reports when it
  exits 0;
- ``kerckhoff`` on each of the benchmark's 8 curve pairs at the weights
  NEWTON_WEIGHTS from each start of NEWTON_STARTS, far from the minima, so
  that the Newton iteration takes longer paths; each is followed by
  ``double`` as above;
- all four subcommands on two small configurations, with ``double`` also
  at the base point (-0.2, 0.15) and at the ``--grid`` values of
  DOUBLE_GRIDS (three uneven values, and one value, where the slope gate is
  skipped), and ``export-surface`` also at ``--grid`` 0.1, 0 and -0.1;
- ``transition`` on the first small configuration at the four ``--grid``
  values of TRANSITION_GRIDS, which reach the per-value branches of the
  stacked holonomy product: an uneven, unsorted grid, hyperbolic angles
  past pi, an anti-de Sitter rotation that overflows (exit 3), and too few
  values per side (exit 2, a grid the config alone rules out);
- ``transition`` on the first small configuration for each of the words of
  NON_REDUCED_WORDS, which are not freely reduced;
- on the first small configuration, the runs of TINY_GRIDS, whose grid
  values are so small that the bending angle t * weight is subnormal, which
  ``transition`` refuses, naming the t, as its turns rescaled by 1/|t|
  would carry the lost digits, or that the norm of the cone-angle slope
  fit's column of t values underflows (exit 3 each);
- on the first small configuration, ``kerckhoff --grid=0.1``, which takes
  no grid (argparse exits 2, recorded as the run's exit code), and
  ``export-surface --grid=0.1,7``, which exports one value only (exit 2);
- ``double``, ``export-surface`` and ``export-surface --grid=0`` at two
  extreme trace points, ABB at from_xy(3, 40) and 0.5 AAB at from_xy(20, 3),
  where the leaf atlas, built once at the hyperbolic radius ATLAS_RADIUS
  about the disk centre, reaches far into thin parts of the surface; at
  ``--grid=0`` the surface is the half-pipe limit, bent at full weights;
- ``export-surface`` from the base point (0.99999, 0) on the three
  RIM_SURFACES, where every leaf query leaves the leaf atlas and is answered
  from the tiling's tree path;
- ``double`` on the three CONE_CONFIGS, where a cone-angle table read
  through segments from the basepoint once exited 3: λ = A at (3,3,3) from
  the base point (0.99999, 0), next to the rim; Ab at from_xy(3, 4) from
  (-0.2, 0.15) at large anti-de Sitter angles; and 1.774·AAb at traces
  where the default grid failed from a base point near the centre;
- ``transition`` and ``double`` on the CONJUGATE_CURVES, curve words
  h . r . h^-1 that are not cyclically reduced, at trace points where their
  own axes lie far from the disk centre: they bend as their roots r do;
- ``double`` on λ = 1e-300·A at (3,3,3) with the grid 1e300,2e300, at the
  default tolerance and at ``--tol=1e-20``, where the relative slope gate
  tells a slope of -2e-300 from 0;
- all four subcommands on two multicurves that are not one simple closed
  curve, 0.7 AABB and A + 0.5 B (two entries), which exit 2;
- on the first small configuration, all four subcommands with ``--seed=-3``,
  ``export-surface`` with 10**12 samples, ``transition`` at each of the
  BAD_BASE_POINTS and ``transition`` on the empty word list ``"words": []``
  (a run that would check nothing); each exits 2;
- ``export-surface`` of λ = A at (3,3,3) from the base point
  (0.9999999999999999, 0), where the side pairings of the tiles about the
  base point overflow (exit 3);
- all four subcommands on LONG_CURVE, λ = A·B^300 with μ = B at (3,3,3),
  whose trace (about 1e125) is finite but whose Kerckhoff model overflows
  at room**1.5 (``kerckhoff`` exits 3), and whose leaf normals, Lorentz
  images of conjugator words of up to 150 letters, have lost every digit:
  ``transition`` meets a holonomy that is not finite and ``export-surface``
  a developed point off the hyperbolic ball (exit 3 each), and ``double``,
  which reads only the weight of the curve, exits 0;
- ``transition`` on MANY_LEAVES_CURVE, λ = A^40·B at (3,3,3) with the word
  B, whose holonomy segment crosses leaves named by long words: the
  rescaled holonomies are finite, and the gap they give misses EPS_LIMIT
  (exit 4);
- all four subcommands at the FRICKE_TRACES (3, 3000, z), whose terms
  x^2 + y^2 + z^2 + |xyz| reach 2.1e7, with z the root of the trace
  relation rounded to a float (Fricke defect 0), as ``TeichPoint.from_xy(3,
  3000)`` computes it, and with z one ulp below it (defect 1.86e-9), as
  the cancelling root (xy - sqrt(disc)) / 2 gives it: both defects, and
  the groups' cusp traces, which miss -2 by about 1e-9, are within the
  Fricke check's rounding bound, and each run exits 0;
- ``kerckhoff`` on each of the TWISTED_CURVES A·B^n with μ = B at (3,3,3),
  whose minimisers lie on the orbit of the (A, B) minimiser under the
  Dehn twist about B, with x from 116 (n = 5) to 9512 (n = 10), each
  followed by ``double`` as above; n = 10 exits 3, short of the gradient
  tolerance;
- ``transition`` on each of HARD_TRANSITIONS, whose two-sided gaps are
  within EPS_LIMIT only when the products are rescaled factor by factor,
  over R[mu]: the two extreme trace points with the words that missed it,
  and the curves A^n·B and A·B^10 at (3,3,3), which cross many leaves
  (exit 0);
- all four subcommands on each config of HUGE_INTEGERS, which puts the
  integer 10**400, too large for a float, in one numeric field, and on each
  of UNDECODABLE_CONFIGS: a 0xFF byte, brackets nested 1,000 deep, an
  integer past Python's 4,300-digit limit, and ``traces`` nested deeper
  than a recursive walk of the field could follow; each exits 2, except
  ``kerckhoff`` with a huge grid or base point, which it does not read;
- the four ``small/test-cli`` runs again, as ``rewrite/test-cli``, each into
  an out directory that already holds 4 KB of filler under every file name
  the first run wrote, so that the reports overwrite existing files; their
  hash lines equal those of the first runs.

It prints one ``<sha256>  <run>/<file>`` line per output file, one
``exit <code>  <run>`` line per run, then one ``<sha256>  subcommand <name>``
line per subcommand over the lines of its runs, and last the sha256 of all
the per-run lines.  Run it on two checkouts and compare (the word lists and
combinations come from this checkout's perfbench, the program from
``--repo``):

    python3 tools/cli_digest.py --repo . > new.txt
    python3 tools/cli_digest.py --repo /path/to/other/checkout > old.txt
    diff old.txt new.txt

With ``--keep DIR`` (a directory that does not exist yet) the run tree
stays in DIR: one directory per run, numbered in run order, with its
``config.json``, its ``out`` files and a ``run.txt`` that holds the run's
label and exit code.  ``tools/digest_drift.py`` compares two such trees
number by number.
"""

from __future__ import annotations

import os

# One thread for BLAS, set before numpy is first imported: checkouts whose
# Kerckhoff minimiser was SLSQP end at slightly different traces with more
# threads, so their digests are comparable only on one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("transition", "kerckhoff", "double", "export-surface")
DOUBLE_GRIDS = ("0.3,0.15,0.02", "0.05")
# A run labelled REWRITE + rest writes into an out directory that holds FILLER
# under every file name that the run "small/" + rest wrote.
REWRITE = "rewrite/"
FILLER = b"#" * 4096
# Words that are not freely reduced; their holonomies are those of their reductions.
NON_REDUCED_WORDS = ("AaB", "BbAAb")
# Starts from_xy(x, y) far from the Kerckhoff minima, and the weights used there.
NEWTON_STARTS = {"xy(3,10)": (3.0, 10.0), "xy(12,3.2)": (12.0, 3.2)}
NEWTON_WEIGHTS = (0.6, 1.4)
TRANSITION_GRIDS = (
    "0.05,-0.02,0.02,-0.05,0.005,-0.005,0.001",
    "4,2,1,-4,-2,-1",
    "-1000,-100,-10,0.1,0.01,0.001",
    "0.1,0.01,-0.1,-0.01",
)
# (subcommand, --grid) runs at grid values near the bottom of the float range.
TINY_GRIDS = (
    ("transition", "5e-309,-5e-309,6e-309,-6e-309,7e-309,-7e-309"),
    ("transition", "5e-320,-5e-320,6e-320,-6e-320,7e-320,-7e-320"),
    ("double", "1e-170,2e-170"),
    ("double", "1e-320,1e-310"),
)
# name -> (traces, lambda, base point, --grid or None) of the cone-angle table runs.
CONE_CONFIGS = {
    "rim": ((3.0, 3.0, 3.0), ("A", 1.0), [0.99999, 0.0], None),
    "ads": ((3.0, 4.0, 2.6833752096446), ("Ab", 1.0), [-0.2, 0.15], "2.7489,3.0,3.1"),  # from_xy(3, 4)
    "AAb": (
        (12.747155144786607, 17.589083981520822, 2.1246979104915056),
        ("AAb", 1.7740123644509516),
        [-0.07119622398753785, -0.009777024057463295],
        None,
    ),
}

# name -> (from_xy(x, y), lambda) of the export-surface runs from the base point (0.99999, 0), past the leaf atlas.
RIM_SURFACES = {
    "A@(3,3,3)": ((3.0, 3.0), ("A", 1.0)),
    "0.5AAB@xy(20,3)": ((20.0, 3.0), ("AAB", 0.5)),
    "ABB@xy(3,40)": ((3.0, 40.0), ("ABB", 1.0)),
}
# A simple closed curve long enough to overflow the Kerckhoff model and the bent products.
LONG_CURVE = "A" + "B" * 300
# A curve whose holonomy segment for B crosses leaves named by long words.
MANY_LEAVES_CURVE = "A" * 40 + "B"
# name -> traces (3, 3000, z): z the 50-digit root (x y - sqrt(x^2 y^2 - 4 (x^2 + y^2))) / 2 of the trace
# relation rounded, which TeichPoint.from_xy(3, 3000) returns, and z one ulp below it, as that formula
# evaluated in floats gives it.  Both pass the Fricke check and build, so every run on them exits 0.
FRICKE_TRACES = {"exact-z": (3.0, 3000.0, 1145.8993753913703), "from_xy": (3.0, 3000.0, 1145.89937539137)}
# name -> the curve A B^n, n = 5..10, of the runs whose Kerckhoff points with B lie far out on the twist orbit.
TWISTED_CURVES = {f"AB^{n}": "A" + "B" * n for n in range(5, 11)}
# name -> (from_xy(x, y), or None for (3,3,3), lambda, word) of transition runs with small two-sided gaps.
HARD_TRANSITIONS = {
    "0.5AAB@xy(20,3)": ((20.0, 3.0), ("AAB", 0.5), "AAb"),
    "ABB@xy(3,40)": ((3.0, 40.0), ("ABB", 1.0), "abAB"),
    **{f"A^{n}B": (None, ("A" * n + "B", 1.0), "B") for n in (5, 7, 10, 20)},
    "AB^10": (None, ("A" + "B" * 10, 1.0), "A"),
}
# Base points that the config check refuses.
BAD_BASE_POINTS = ("nonsense", [5.0, 5.0])
# field -> the overrides of the first small configuration that put 10**400 in that field.
HUGE_INTEGERS = {
    "traces": {"traces": [10**400, 3.0, 3.0]},
    "weight": {"multicurves": {"lambda": [{"word": "A", "weight": 10**400}], "mu": [{"word": "B", "weight": 1.0}]}},
    "grid": {"grid": [0.1, 10**400]},
    "base_point": {"base_point": [10**400, 0.0]},
    "generators": {"traces": None, "generators": [[[10**400, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]},
}
# name -> the raw bytes of a config file.
UNDECODABLE_CONFIGS = {
    "0xFF": b'{"traces": [3.0, 3.0, 3.0]\xff}',
    "nested-1000": b"[" * 1000 + b"]" * 1000,
    "digits-5000": b'{"traces": [1' + b"0" * 5000 + b", 3.0, 3.0]}",
    # Deep enough that a recursive walk of the field, two frames a level, runs out of call stack in this
    # process, and shallow enough for json.loads.
    "traces-nested-600": b'{"traces": ' + b"[" * 600 + b"3.0" + b"]" * 600 + b"}",
}

# name -> (from_xy(x, y), lambda) of the runs on curve words that are not cyclically reduced.
CONJUGATE_CURVES = {
    "Abaa": ((18.551686291445424, 16.900173399065306), ("Abaa", 1.0)),
    "bABB": ((6.50, 15.86), ("bABB", 1.0)),
}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def _config(traces, **multicurves) -> dict:
    return {
        "traces": list(traces),
        "multicurves": {
            key: [{"word": word, "weight": weight} for word, weight in comps]
            for key, comps in multicurves.items()
        },
    }


def runs(workloads, teich_point):
    """(label, subcommand, config, extra arguments) of every run, in order.

    A config is a dict, or the raw bytes of a config file.  A dict without
    ``traces`` or ``generators`` takes the traces that the preceding
    ``kerckhoff`` run reported, and the run is skipped when that run failed.
    """
    for name, tp, word, weight in workloads.TRANSITION_CONFIGS:
        for w in workloads.reduced_words():
            cfg = _config((tp.x, tp.y, tp.z), **{"lambda": [(word, weight)]})
            yield f"transition/{name}/{w}", "transition", dict(cfg, words=[w]), ()
    for lam, mu, (a, b), init in workloads.double_combos():
        tp = workloads.DOUBLE_INITS[init]
        label = f"double/{a}*{lam},{b}*{mu}/{init}"
        cfg = _config((tp.x, tp.y, tp.z), **{"lambda": [(lam, a)], "mu": [(mu, b)]})
        yield label + "/kerckhoff", "kerckhoff", cfg, ()
        yield label + "/double", "double", {"multicurves": {"lambda": cfg["multicurves"]["lambda"]}}, ()
    a, b = NEWTON_WEIGHTS
    for lam, mu in workloads.DOUBLE_PAIRS:
        for name, (x, y) in NEWTON_STARTS.items():
            label = f"newton/{a}*{lam},{b}*{mu}/{name}"
            cfg = _config(teich_point.from_xy(x, y).as_array().tolist(), **{"lambda": [(lam, a)], "mu": [(mu, b)]})
            yield label + "/kerckhoff", "kerckhoff", cfg, ()
            yield label + "/double", "double", {"multicurves": {"lambda": cfg["multicurves"]["lambda"]}}, ()
    small = {
        "test-cli": ((3.0, 3.0, 3.0), ("A", 1.0), ["A", "B"]),
        "xy(4,5)": (teich_point.from_xy(4.0, 5.0).as_array().tolist(), ("AB", 0.8), ["AB", "ab", "AAB", "Ab"]),
    }
    small_cfgs = {}
    for name, (traces, lam, words) in small.items():
        cfg = dict(_config(traces, **{"lambda": [lam], "mu": [("B", 1.0)]}), words=words, samples=40)
        small_cfgs[name] = cfg
        for command in ("transition", "kerckhoff", "double", "export-surface"):
            yield f"small/{name}/{command}", command, cfg, ()
        yield f"small/{name}/double@base", "double", dict(cfg, base_point=[-0.2, 0.15]), ()
        for grid in DOUBLE_GRIDS:
            yield f"small/{name}/double@{grid}", "double", cfg, (f"--grid={grid}",)
        for grid in ("0.1", "0", "-0.1"):
            yield f"small/{name}/export-surface@{grid}", "export-surface", cfg, (f"--grid={grid}",)
        if name == "test-cli":
            for grid in TRANSITION_GRIDS:
                yield f"small/{name}/transition@{grid}", "transition", cfg, (f"--grid={grid}",)
            for word in NON_REDUCED_WORDS:
                yield f"small/{name}/transition:{word}", "transition", dict(cfg, words=[word]), ()
            for command, grid in TINY_GRIDS:
                yield f"small/{name}/{command}@{grid}", command, cfg, (f"--grid={grid}",)
            yield f"small/{name}/kerckhoff@0.1", "kerckhoff", cfg, ("--grid=0.1",)
            yield f"small/{name}/export-surface@0.1,7", "export-surface", cfg, ("--grid=0.1,7",)
    edge = {"xy(3,40)": (3.0, 40.0, ("ABB", 1.0)), "xy(20,3)": (20.0, 3.0, ("AAB", 0.5))}
    for name, (x, y, lam) in edge.items():
        cfg = _config(teich_point.from_xy(x, y).as_array().tolist(), **{"lambda": [lam]})
        for command in ("double", "export-surface"):
            yield f"edge/{name}/{command}", command, cfg, ()
        yield f"edge/{name}/export-surface@0", "export-surface", cfg, ("--grid=0",)
    for name, (traces, lam, base, grid) in CONE_CONFIGS.items():
        cfg = dict(_config(traces, **{"lambda": [lam]}), base_point=base)
        yield f"cone/{name}/double", "double", cfg, () if grid is None else (f"--grid={grid}",)
    for name, ((x, y), lam) in RIM_SURFACES.items():
        traces = teich_point.from_xy(x, y).as_array().tolist()
        cfg = dict(_config(traces, **{"lambda": [lam]}), base_point=[0.99999, 0.0])
        yield f"rim/{name}/export-surface", "export-surface", cfg, ()
    for name, ((x, y), lam) in CONJUGATE_CURVES.items():
        cfg = dict(_config(teich_point.from_xy(x, y).as_array().tolist(), **{"lambda": [lam]}), words=["A", "B", "AB"])
        for command in ("transition", "double"):
            yield f"curve/{name}/{command}", command, cfg, ()
    cfg = _config((3.0, 3.0, 3.0), **{"lambda": [("A", 1e-300)]})
    for extra in (("--grid=1e300,2e300",), ("--grid=1e300,2e300", "--tol=1e-20")):
        yield f"slope/1e-300*A/double@{' '.join(extra)}", "double", cfg, extra
    refused = {"0.7AABB": [("AABB", 0.7)], "A+0.5B": [("A", 1.0), ("B", 0.5)]}
    for name, lam in refused.items():
        cfg = dict(_config((3.0, 3.0, 3.0), **{"lambda": lam, "mu": [("B", 1.0)]}), words=["A"])
        for command in SUBCOMMANDS:
            yield f"refused/{name}/{command}", command, cfg, ()
    for command in SUBCOMMANDS:
        yield f"refused/seed=-3/{command}", command, small_cfgs["test-cli"], ("--seed=-3",)
    yield "refused/samples=10**12/export-surface", "export-surface", dict(small_cfgs["test-cli"], samples=10**12), ()
    for base in BAD_BASE_POINTS:
        cfg = dict(small_cfgs["test-cli"], base_point=base)
        yield f"refused/base_point={json.dumps(base)}/transition", "transition", cfg, ()
    yield "refused/words=[]/transition", "transition", dict(small_cfgs["test-cli"], words=[]), ()
    cfg = dict(_config((3.0, 3.0, 3.0), **{"lambda": [("A", 1.0)]}), base_point=[0.9999999999999999, 0.0])
    yield "refused/overflow/export-surface", "export-surface", cfg, ()
    cfg = _config((3.0, 3.0, 3.0), **{"lambda": [(LONG_CURVE, 1.0)], "mu": [("B", 1.0)]})
    for command in SUBCOMMANDS:
        yield f"long/AB^300/{command}", command, cfg, ()
    cfg = dict(_config((3.0, 3.0, 3.0), **{"lambda": [(MANY_LEAVES_CURVE, 1.0)]}), words=["B"])
    yield "long/A^40B/transition", "transition", cfg, ()
    for name, traces in FRICKE_TRACES.items():
        cfg = dict(small_cfgs["test-cli"], traces=list(traces))
        for command in SUBCOMMANDS:
            yield f"fricke/{name}/{command}", command, cfg, ()
    for name, word in TWISTED_CURVES.items():
        cfg = _config((3.0, 3.0, 3.0), **{"lambda": [(word, 1.0)], "mu": [("B", 1.0)]})
        yield f"twist/{name}/kerckhoff", "kerckhoff", cfg, ()
        yield f"twist/{name}/double", "double", {"multicurves": {"lambda": cfg["multicurves"]["lambda"]}}, ()
    for name, (xy, lam, word) in HARD_TRANSITIONS.items():
        traces = (3.0, 3.0, 3.0) if xy is None else teich_point.from_xy(*xy).as_array().tolist()
        yield f"hard/{name}/transition", "transition", dict(_config(traces, **{"lambda": [lam]}), words=[word]), ()
    for field, overrides in HUGE_INTEGERS.items():
        cfg = {key: value for key, value in dict(small_cfgs["test-cli"], **overrides).items() if value is not None}
        for command in SUBCOMMANDS:
            yield f"refused/{field}=10**400/{command}", command, cfg, ()
    for name, data in UNDECODABLE_CONFIGS.items():
        for command in SUBCOMMANDS:
            yield f"refused/undecodable-{name}/{command}", command, data, ()
    for command in SUBCOMMANDS:
        yield f"{REWRITE}test-cli/{command}", command, small_cfgs["test-cli"], ()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=str(HERE), help="checkout whose src/halfpipe is run")
    parser.add_argument("--keep", metavar="DIR", help="keep the run tree in DIR, which must not exist yet")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.repo).resolve() / "src"), str(HERE / "perfbench")]
    from halfpipe import cli
    from halfpipe.fuchsian import TeichPoint

    import workloads

    lines: list[str] = []
    by_command: dict[str, list[str]] = {name: [] for name in SUBCOMMANDS}
    last_traces = None
    written: dict[str, list[str]] = {}
    if args.keep:
        Path(args.keep).mkdir(parents=True)
    with contextlib.nullcontext(args.keep) if args.keep else tempfile.TemporaryDirectory() as tmp:
        for index, (label, command, cfg, extra) in enumerate(runs(workloads, TeichPoint)):
            if isinstance(cfg, dict) and "traces" not in cfg and "generators" not in cfg:
                if last_traces is None:
                    continue
                cfg = dict(cfg, traces=last_traces)
            run_dir = Path(tmp) / f"{index:04d}"
            config = run_dir / "config.json"
            out = run_dir / "out"
            run_dir.mkdir()
            config.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
            if label.startswith(REWRITE):
                out.mkdir()
                for name in written["small/" + label.removeprefix(REWRITE)]:
                    (out / name).write_bytes(FILLER)
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main([command, "--config", str(config), "--out", str(out), *extra])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback of an older checkout, recorded by its type
                    code = type(exc).__name__
            last_traces = None
            if command == "kerckhoff" and code == 0:
                # A report that does not parse shows in its hash line instead.
                with contextlib.suppress(ValueError):
                    last_traces = json.loads((out / "kerckhoff.json").read_text())["traces"]
            (run_dir / "run.txt").write_text(f"{label}\n{code}\n")
            paths = sorted(out.iterdir()) if out.exists() else []
            written[label] = [path.name for path in paths]
            run_lines = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}/{path.name}" for path in paths]
            run_lines.append(f"exit {code}  {label}")
            lines.extend(run_lines)
            by_command[command].extend(run_lines)
    summary = [f"{_digest(command_lines)}  subcommand {name}" for name, command_lines in by_command.items()]
    print("\n".join([*lines, *summary, f"{_digest(lines)}  all"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
