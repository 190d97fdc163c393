"""Benchmark of halfpipe: bent-surface queries, transition reports, doubles.

Run from the repository root:

    python3 perfbench/run.py --workload surface --seed 1 --seconds 25 --trace 0

A run attempts the whole number of rounds of operations (see workloads.py)
nearest ``--seconds`` over ROUND_SECONDS, and at least MIN_ROUNDS, so every
run of one length attempts the same operations, however fast the host is.
This process imports nothing but the standard library.  Each round runs in a child forked from it, which
sets up (imports halfpipe, builds the round's inputs), runs the operations
and checks them, as a fresh process would: nothing the program keeps in
module globals carries over from one round to the next.

Times are scaled to the host's pace.  This host swings between a fast and
a slow pace, 1.8 times apart, for stretches of seconds to minutes, which
moves every wall time with it.  Before each operation, and after the last,
the round times a fixed loop of Python arithmetic and 4x4 matrix
products (``pace``); an operation's time
is its wall time times PACE_REFERENCE_S over the mean of the two paces that
bracket it.  So it reads as the wall time on a host that runs the loop in
PACE_REFERENCE_S, and a change in the program moves it while a change in
the host's pace does not.  Set-up is not scaled: importing is mostly
unmarshalling and allocation, whose time did not follow the loop's, and
scaling it made it spread more, not less.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The traced run runs every round twice, untraced and traced; the per-layer
numbers come from the traced passes, and the two rates give the tracing
overhead.  Spans are written to perfbench/out/.
"""

from __future__ import annotations

import os

# One thread for BLAS, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
# Wall time of one untraced round of any workload on the reference host.
ROUND_SECONDS = 6.0
# Two rounds hold at least 100 operations on every workload (51 on `double`
# make the smallest round), so the 90th percentile has ten samples past it.
MIN_ROUNDS = 2
# The seconds ``pace`` typically takes between operations on the reference
# host, where it spans about 175 to 350 us.  Every operation time is scaled
# to it.
PACE_REFERENCE_S = 300e-6
PACE_REPEATS = 3

sys.path.insert(0, str(HERE.parent / "src"))


def _pace_loop(eye) -> int:
    acc, m = 0, eye
    for i in range(1000):
        acc += i * i % 7
        if i % 10 == 0:
            m = m @ eye
    return acc


def pace() -> float:
    """The host's pace now: the fastest of a few runs of a fixed loop, in seconds.

    The loop mixes interpreted arithmetic with small numpy products, as the
    program does; a pure-Python loop followed the `transition` operations
    less well (6.0% against 3.0% spread over 16 rounds).  The fastest run
    leaves out what the previous operation left in the caches.  It is only
    called after set-up, which has imported numpy.
    """
    import numpy

    eye = numpy.eye(4)
    best = math.inf
    for _ in range(PACE_REPEATS):
        started = time.perf_counter()
        _pace_loop(eye)
        best = min(best, time.perf_counter() - started)
    return best


def in_child(fn):
    """Run ``fn()`` in a forked child and return its result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        sys.stderr.flush()
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"child {pid} ended with status {status}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"child {pid} failed:\n{value}")
    return value


def run_round(workload: str, seed: int, index: int, workdir: Path, traced: bool) -> dict:
    """Set up, run one round's operations in order, then check their outputs.

    The peak resident set is read before the checks, which build tables of
    their own.
    """
    started = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    ops = workloads.WORKLOADS[workload](seed, workdir)(index)
    ready = time.perf_counter()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    times, paces, results, failures = [], [], [], []
    try:
        for op in ops:
            paces.append(pace())
            if tracer is not None:
                tracer.begin_op()
            op_started = time.perf_counter()
            try:
                out, ok = op.run(), True
            except Exception as exc:  # a failing operation is counted, not fatal
                out, ok = exc, False
            times.append(time.perf_counter() - op_started)
            if tracer is not None:
                tracer.end_op()
            if ok:
                results.append((op, op.read(out)))
            else:
                failures.append(f"{op.label}: {type(out).__name__}: {out}")
        paces.append(pace())
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = []
    for op, out in results:
        try:
            errors.extend(f"{op.label}: {e}" for e in op.check(out))
        except Exception as exc:
            errors.append(f"{op.label}: check raised {type(exc).__name__}: {exc}")
    return {
        "import_s": imported - started,
        "inputs_s": ready - imported,
        "times": [
            t * PACE_REFERENCE_S / ((before + after) / 2.0)
            for t, before, after in zip(times, paces, paces[1:])
        ],
        "wall_times": times,
        "pace_s": statistics.median(paces),
        "failures": failures,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "spans": None if tracer is None else tracer.arrays(),
    }


def layer_metrics(untraced: list[dict], traced: list[dict], trace_path: Path) -> dict[str, float]:
    import tracer

    merged = tracer.merge([r["spans"] for r in traced])
    tracer.save(trace_path, merged)
    summary = tracer.summary(merged)
    ops = summary["op"]["calls"]

    def per_op(name: str, key: str, scale: float = 1.0) -> float:
        return summary[name][key] * scale / ops

    def p50(name: str, scale: float, mask=None) -> float:
        d = summary[name]["durations"]
        d = d if mask is None else d[mask]
        return float(statistics.median(d.tolist())) * scale if len(d) else 0.0

    def rate(rounds: list[dict]) -> float:
        times = [t for r in rounds for t in r["times"]]
        return len(times) / sum(times)

    leaves = summary["fuchsian.leaves_crossing"]
    out = {
        "fuchsian.leaves_crossing.calls": per_op("fuchsian.leaves_crossing", "calls"),
        "fuchsian.leaves_crossing.new_segments": float(leaves["fresh"].sum()) / ops,
        "fuchsian.leaves_crossing.new_p50_us": p50("fuchsian.leaves_crossing", 1e6, leaves["fresh"]),
        "fuchsian.leaves_crossing.repeat_p50_us": p50("fuchsian.leaves_crossing", 1e6, ~leaves["fresh"]),
        "fuchsian.kerckhoff_point.p50_ms": p50("fuchsian.kerckhoff_point", 1e3),
    }
    for name in (
        "fuchsian.PuncturedTorusGroup.lorentz", "isometry.rotation", "isometry.Isometry.matmul",
    ):
        out[f"{name}.calls"] = per_op(name, "calls")
    for name in (
        "fuchsian.leaves_crossing", "fuchsian.PuncturedTorusGroup.lorentz", "isometry.rotation",
        "isometry.Isometry.matmul", "isometry.reflection", "bending.BentHolonomy.call",
        "bending.support_plane_at", "transition.holonomy_family", "transition.extrapolate_limit",
        "doubling.pair_aligner", "doubling.meridian_cone_angle", "cli.main",
    ):
        out[f"{name}.self_ms_per_op"] = per_op(name, "self_s", 1e3)
    out["bending.bending_map.p50_us"] = p50("bending.bending_map", 1e6)
    out["bending.psi_lambda.p50_us"] = p50("bending.psi_lambda", 1e6)
    out["setup.import_s"] = statistics.median(r["import_s"] for r in untraced)
    out["setup.inputs_s"] = statistics.median(r["inputs_s"] for r in untraced)
    out["trace.untraced_ops_per_s"] = rate(untraced)
    out["trace.traced_ops_per_s"] = rate(traced)
    out["trace.overhead_pct"] = 100.0 * (rate(untraced) / rate(traced) - 1.0)
    return out


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title, file=sys.stderr)
    for name, value, unit in rows:
        print(f"  {name:<52} {value:>14.6g} {unit}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("surface", "transition", "double"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    rounds = {False: [], True: []}
    try:
        for index in range(max(MIN_ROUNDS, round(args.seconds / ROUND_SECONDS))):
            for traced in (False, True) if args.trace else (False,):
                rounds[traced].append(
                    in_child(lambda: run_round(args.workload, args.seed, index, workdir, traced))
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    done = rounds[False] + rounds[True]
    attempted = sum(len(r["times"]) for r in done)
    failures = [line for r in done for line in r["failures"]]
    errors = [line for r in done for line in r["errors"]]

    if args.trace:
        values = layer_metrics(
            rounds[False], rounds[True], OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        )
        kind = "per_layer"
    else:
        samples = [t for r in rounds[False] for t in r["times"]]
        values = {
            "setup_s": statistics.median(r["import_s"] + r["inputs_s"] for r in rounds[False]),
            "ops_per_s": len(samples) / sum(samples),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_p90_ms": statistics.quantiles(samples, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds[False]),
        }
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")

    print_table(
        f"{args.workload} seed {args.seed}: {attempted} operations, {len(failures)} failed, "
        f"{len(errors)} check errors",
        [(name, values[name], units[name]) for name in units
         if kind == "end_to_end" or values[name] != 0.0],
    )
    wall = [t for r in rounds[False] for t in r["wall_times"]]
    print(f"  unscaled: {len(wall) / sum(wall):.6g} ops/s at a median pace of "
          f"{statistics.median(r['pace_s'] for r in rounds[False]) * 1e6:.4g} us "
          f"(reference {PACE_REFERENCE_S * 1e6:.4g} us)", file=sys.stderr)
    for line in failures[:5] + errors[:20]:
        print(f"  {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
