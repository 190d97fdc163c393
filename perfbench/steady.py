"""Steadiness check: how far the end-to-end metrics spread between runs.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--first-seed 1]

Runs perfbench/run.py untraced ``--runs`` times on each workload of
BENCHMARK.json, alternating workloads and giving each run its own seed, then
prints for every metric its median, first and third quartile, and the spread
(quartile distance over the median) against the bound in BENCHMARK.json.  A
spread below a third of the bound is marked ok.  Results are also written to
perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(w, args.first_seed + i)
            results[w].append(r)
            print(f"{w} seed {args.first_seed + i}: {r['attempted']} ops, {r['failed']} failed, "
                  f"correct {r['correct']}, {r['wall_s']:.1f} s", file=sys.stderr, flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))

    steady = True
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{w}: {len(runs)} runs, failed share {sorted(shares)}, all correct {correct}, "
              f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s")
        steady = steady and correct and len(shares) == 1
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3.0
            steady = steady and ok
            print(f"  {metric['name']:<12} median {med:12.5g} {metric['unit']:<4} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.2%} bound {metric['bound']:.0%} "
                  f"{'ok' if ok else 'WIDE'}")
    print(f"results in {path.relative_to(HERE.parent)}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
