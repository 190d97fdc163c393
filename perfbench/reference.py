"""Reference timings of single layers and CLI subcommands, cold and warm.

Run from the repository root:

    python3 perfbench/reference.py

Times the cases of the layer table in ROADMAP.md one call at a time and
prints the median and quartiles of each.  "Cold" empties the crossing cache
before every call (each call then walks its leaves afresh, as the first call
of a process does); "warm" repeats a call whose segments are cached.  The
CLI cases run ``halfpipe.cli.main`` in-process on the config of
tests/test_cli.py (traces (3,3,3), lambda = A, mu = B, words A and B,
40 samples).  Blocks of other work on the host show up as wide quartiles.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from halfpipe import cli, fuchsian
from halfpipe.bending import BendingContext, bent_holonomy
from halfpipe.doubling import meridian_cone_angle
from halfpipe.fuchsian import TeichPoint, WeightedMulticurve, build_punctured_torus, kerckhoff_point
from halfpipe.geometry import HYP
from halfpipe.isometry import rotation
from halfpipe.transition import DEFAULT_BASE_POINT, extrapolate_limit, holonomy_family

REPEATS = 30
CLI_CONFIG = {
    "traces": [3.0, 3.0, 3.0],
    "multicurves": {"lambda": [{"word": "A", "weight": 1.0}], "mu": [{"word": "B", "weight": 1.0}]},
    "words": ["A", "B"],
    "samples": 40,
}


def cold() -> None:
    fuchsian._CROSSING_CACHE.clear()


def timed(fn, repeats: int, before=None) -> list[float]:
    out = []
    for _ in range(repeats):
        if before is not None:
            before()
        started = time.perf_counter()
        fn()
        out.append(time.perf_counter() - started)
    return out


def main() -> int:
    n = REPEATS
    group = build_punctured_torus(TeichPoint(3.0, 3.0, 3.0))
    lam = WeightedMulticurve.single("A")
    base = np.array(DEFAULT_BASE_POINT)
    ctx = BendingContext(group, lam, base, HYP, 1.0, 0.1)
    rng = np.random.default_rng(0)
    fresh = iter(0.9 * rng.uniform(-0.7, 0.7, size=(100 * n, 2)))
    axis = group.axis("A")
    iso = rotation(HYP, axis, 0.3)
    rho = bent_holonomy(ctx)

    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=out))
    config = workdir / "config.json"
    config.write_text(json.dumps(CLI_CONFIG))

    def run_cli(command: str) -> None:
        code = cli.main([command, "--config", str(config), "--out", str(workdir / command)])
        if code != 0:
            raise RuntimeError(f"halfpipe {command} exited {code}")

    cases = [
        ("leaves_crossing, cold", lambda: fuchsian.leaves_crossing(group, lam, base, next(fresh)), None),
        ("leaves_crossing, warm", lambda: fuchsian.leaves_crossing(group, lam, base, np.array([0.5, 0.3])), None),
        ("rotation", lambda: rotation(HYP, axis, 0.3), None),
        ("Isometry @", lambda: iso @ iso, None),
        ("bent holonomy 'AB', cold", lambda: rho("AB"), cold),
        ("bent holonomy 'AB', warm", lambda: rho("AB"), None),
        ("holonomy_family + extrapolate_limit 'AB'",
         lambda: extrapolate_limit(holonomy_family(group, lam, 1.0, "AB")), cold),
        ("meridian_cone_angle", lambda: meridian_cone_angle(ctx, "A", 0.1), cold),
        ("kerckhoff_point (A, B)",
         lambda: kerckhoff_point(lam, WeightedMulticurve.single("B"), TeichPoint(3.0, 3.0, 3.0)), None),
        ("CLI transition", lambda: run_cli("transition"), cold),
        ("CLI kerckhoff", lambda: run_cli("kerckhoff"), cold),
        ("CLI double", lambda: run_cli("double"), cold),
        ("CLI export-surface", lambda: run_cli("export-surface"), cold),
    ]
    print(f"python {platform.python_version()}, numpy {np.__version__}, {cpu_model()}, {n} repeats")
    print(f"{'case':<42} {'median':>10} {'q1':>10} {'q3':>10}")
    try:
        for name, fn, before in cases:
            fn()  # first call: imports and lazy set-up stay out of the figures
            samples = timed(fn, max(3, n // 6) if name.startswith("CLI export") else n, before)
            q1, med, q3 = statistics.quantiles(samples, n=4)
            print(f"{name:<42} {fmt(med):>10} {fmt(q1):>10} {fmt(q3):>10}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def fmt(seconds: float) -> str:
    if seconds >= 0.1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


if __name__ == "__main__":
    sys.exit(main())
