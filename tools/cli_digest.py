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
  values per side (exit 3);
- ``transition`` on the first small configuration for each of the words of
  NON_REDUCED_WORDS, which are not freely reduced;
- on the first small configuration, the runs of TINY_GRIDS, whose grid
  values are so small that the rescaled holonomies or the cone-angle slope
  fit overflow (exit 3);
- on the first small configuration, ``kerckhoff --grid=0.1``, which takes
  no grid (argparse exits 2, recorded as the run's exit code), and
  ``export-surface --grid=0.1,7``, which exports one value only (exit 2);
- ``double`` and ``export-surface`` at two extreme trace points, ABB at
  from_xy(3, 40) and 0.5 AAB at from_xy(20, 3), where leaf atlases reach
  far into thin parts of the surface;
- all four subcommands on two multicurves that are not one simple closed
  curve, 0.7 AABB and A + 0.5 B (two entries), which exit 2;
- on the first small configuration, all four subcommands with ``--seed=-3``
  and ``export-surface`` with 10**12 samples, which exit 2;
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

    A config without ``traces`` takes the traces that the preceding
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
    refused = {"0.7AABB": [("AABB", 0.7)], "A+0.5B": [("A", 1.0), ("B", 0.5)]}
    for name, lam in refused.items():
        cfg = dict(_config((3.0, 3.0, 3.0), **{"lambda": lam, "mu": [("B", 1.0)]}), words=["A"])
        for command in SUBCOMMANDS:
            yield f"refused/{name}/{command}", command, cfg, ()
    for command in SUBCOMMANDS:
        yield f"refused/seed=-3/{command}", command, small_cfgs["test-cli"], ("--seed=-3",)
    yield "refused/samples=10**12/export-surface", "export-surface", dict(small_cfgs["test-cli"], samples=10**12), ()
    for command in SUBCOMMANDS:
        yield f"{REWRITE}test-cli/{command}", command, small_cfgs["test-cli"], ()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=str(HERE), help="checkout whose src/halfpipe is run")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.repo).resolve() / "src"), str(HERE / "perfbench")]
    from halfpipe import cli
    from halfpipe.fuchsian import TeichPoint

    import workloads

    lines: list[str] = []
    by_command: dict[str, list[str]] = {name: [] for name in SUBCOMMANDS}
    last_traces = None
    written: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for index, (label, command, cfg, extra) in enumerate(runs(workloads, TeichPoint)):
            if "traces" not in cfg:
                if last_traces is None:
                    continue
                cfg = dict(cfg, traces=last_traces)
            run_dir = Path(tmp) / f"{index:04d}"
            config = run_dir / "config.json"
            out = run_dir / "out"
            run_dir.mkdir()
            config.write_text(json.dumps(cfg))
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
