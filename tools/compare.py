"""Paired comparison of two checkouts on one benchmark workload, operation by operation.

    python3 tools/compare.py PARENT_DIR CHANGE_DIR --workload double --seed 5

Each round of the workload (see perfbench/workloads.py) gets a fresh pair of
worker processes, one per checkout, each importing halfpipe from its own
``src/``.  Both build the same round from the seed.  The operations are
handed to the two workers in ABBA order: operation i runs on the parent
first when i is even and on the change first when i is odd, so that a drift
of the host's pace between the two runs of one operation cancels over the
pairs.  A worker times only the operation's ``run``; it reads the outputs and
runs the workload's check on them outside the timed region.

It prints one JSON object: the number of operations, the median per-operation
ratio change/parent with a distribution-free 95% interval from order
statistics, each side's median time and the failures and check errors of
each side.  An operation that fails or whose check fails on either side is
left out of the ratio.  Given the same directory twice, it is an A/A
comparison of a checkout with itself, whose interval shows the resolution.

The workloads and their checks come from this checkout's perfbench; nothing
under perfbench/ is changed.  BLAS runs on one thread, as in perfbench/run.py.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import multiprocessing
import statistics
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ROUNDS = 4  # rounds 0 .. 3 of the seed


def _worker(conn, tree: str, workload: str, seed: int, index: int, workdir: str) -> None:
    """Build round ``index`` against ``tree``'s halfpipe, then run the operations the main process names."""
    sys.path[:0] = [str(Path(tree) / "src"), str(PERFBENCH)]
    import workloads

    ops = workloads.WORKLOADS[workload](seed, Path(workdir))(index)
    conn.send([op.label for op in ops])
    while (i := conn.recv()) is not None:
        op = ops[i]
        started = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is reported, not fatal
            conn.send((None, f"{type(exc).__name__}: {exc}"))
            continue
        elapsed = time.perf_counter() - started
        try:
            errors = op.check(op.read(out))
        except Exception as exc:
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        conn.send((elapsed, "; ".join(errors) or None))
    conn.close()


def _run_round(context, trees: tuple[str, str], workload: str, seed: int, index: int) -> list[tuple]:
    """(label, parent result, change result) per operation of one round; a result is (seconds or None, problem)."""
    with tempfile.TemporaryDirectory() as tmp:
        workers = []
        for side, tree in enumerate(trees):
            workdir = Path(tmp) / str(side)
            workdir.mkdir()
            ours, theirs = context.Pipe()
            process = context.Process(target=_worker, args=(theirs, tree, workload, seed, index, str(workdir)))
            process.start()
            theirs.close()
            workers.append((process, ours))
        try:
            labels = [conn.recv() for _, conn in workers]
            if labels[0] != labels[1]:
                raise RuntimeError(f"round {index}: the two checkouts build different operations")
            rows = []
            for i, label in enumerate(labels[0]):
                results = [None, None]
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    workers[side][1].send(i)
                    results[side] = workers[side][1].recv()
                rows.append((label, *results))
            for _, conn in workers:
                conn.send(None)
        finally:
            for process, conn in workers:
                process.join(timeout=60)
                if process.is_alive():
                    process.terminate()
                    process.join()
                conn.close()
    return rows


def median_interval(values: list[float]) -> tuple[float, float]:
    """A distribution-free 95% interval for the median: order statistics m and n + 1 - m.

    m is the largest rank with P(B <= m - 1) <= 0.025 for B ~ Binomial(n, 1/2),
    so the interval covers the median with probability at least 0.95.
    """
    xs, n = sorted(values), len(values)
    tail, m = 0, 0
    while 40 * (tail + math.comb(n, m)) <= 2**n:
        tail += math.comb(n, m)
        m += 1
    if m == 0:
        raise ValueError(f"{n} values are too few for a 95% interval of the median")
    return xs[m - 1], xs[n - m]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout whose src/ is the baseline")
    parser.add_argument("change", help="checkout whose src/ is compared with it (the same directory for A/A)")
    parser.add_argument("--workload", required=True, choices=("surface", "transition", "double"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    trees = (str(Path(args.parent).resolve()), str(Path(args.change).resolve()))

    context = multiprocessing.get_context("spawn")
    ratios, times, problems = [], ([], []), ([], [])
    for index in range(ROUNDS):
        for label, *results in _run_round(context, trees, args.workload, args.seed, index):
            for side, (seconds, problem) in enumerate(results):
                if problem is not None:
                    problems[side].append(f"round {index}: {label}: {problem}")
            if all(seconds is not None and problem is None for seconds, problem in results):
                (parent, _), (change, _) = results
                times[0].append(parent)
                times[1].append(change)
                ratios.append(change / parent)
    low, high = median_interval(ratios)
    for side, name in enumerate(("parent", "change")):
        for line in problems[side][:10]:
            print(f"{name}: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": ROUNDS,
        "aa": trees[0] == trees[1],
        "operations": len(ratios),
        "ratio_median": statistics.median(ratios),
        "ratio_ci95": [low, high],
        "parent_median_ms": statistics.median(times[0]) * 1e3,
        "change_median_ms": statistics.median(times[1]) * 1e3,
        "problems": {"parent": len(problems[0]), "change": len(problems[1])},
    }))
    return 0 if not (problems[0] or problems[1]) else 1


if __name__ == "__main__":
    sys.exit(main())
