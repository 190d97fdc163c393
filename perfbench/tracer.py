"""Spans around the calls into each layer of halfpipe, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper everywhere the
function is looked up: in its own module, in every halfpipe module that bound
it with ``from ... import``, or on its class for methods.  ``uninstall`` puts
the originals back.

Each wrapped call records a span: name, start, end, parent span and
operation id.  Spans live in flat arrays in the process that runs a round;
``merge`` joins the rounds' arrays, which are written out once at the end.
A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module under halfpipe, attribute) of every traced callable.
TARGETS = (
    ("fuchsian", "leaves_crossing"),
    ("fuchsian", "kerckhoff_point"),
    ("fuchsian", "PuncturedTorusGroup.lorentz"),
    ("isometry", "rotation"),
    ("isometry", "Isometry.__matmul__"),
    ("isometry", "reflection"),
    ("bending", "bending_map"),
    ("bending", "psi_lambda"),
    ("bending", "BentHolonomy.__call__"),
    ("bending", "support_plane_at"),
    ("transition", "holonomy_family"),
    ("transition", "extrapolate_limit"),
    ("doubling", "pair_aligner"),
    ("doubling", "meridian_cone_angle"),
    ("cli", "main"),
)

OP_SPAN = "op"
LEAVES = "fuchsian.leaves_crossing"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__matmul__', 'matmul').replace('__call__', 'call')}"


NAMES = [OP_SPAN] + [span_name(m, a) for m, a in TARGETS]


def _segment_key(group, mc, x, y) -> tuple:
    tp = group.trace_point
    return (
        round(tp.x, 12), round(tp.y, 12), round(tp.z, 12),
        tuple((c.word, round(c.weight, 14)) for c in mc.components),
        tuple(np.round(np.asarray(x, dtype=float).reshape(2), 13)),
        tuple(np.round(np.asarray(y, dtype=float).reshape(2), 13)),
    )


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.flag = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op_id = -1
        self._segments: set = set()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int, flag: int = 0) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.flag.append(flag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name_id: int, fn):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _wrap_leaves(self, name_id: int, fn):
        open_, close, seen = self._open, self._close, self._segments

        def traced(*args, **kwargs):
            key = _segment_key(*args[:4])
            fresh = key not in seen
            seen.add(key)
            idx = open_(name_id, 1 if fresh else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def begin_op(self) -> None:
        self._op_id += 1
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("halfpipe")]
        for name_id, (mod_name, attr) in enumerate(TARGETS, start=1):
            module = importlib.import_module(f"halfpipe.{mod_name}")
            wrap = self._wrap_leaves if NAMES[name_id] == LEAVES else self._wrap
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original, wrap(name_id, original)))
                continue
            original = getattr(module, attr)
            wrapper = wrap(name_id, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def merge(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Join the span arrays of several rounds, renumbering spans and operations."""
    out = {key: [] for key in ("name", "parent", "op", "flag", "start", "end")}
    spans = ops = 0
    for part in parts:
        for key, values in part.items():
            if key == "parent":
                values = np.where(values >= 0, values + spans, values)
            elif key == "op":
                values = values + ops
            out[key].append(values)
        spans += len(part["name"])
        ops += int(part["op"].max()) + 1 if len(part["op"]) else 0
    return {key: np.concatenate(values) for key, values in out.items()}


def save(path: Path, spans: dict[str, np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, names=np.array(NAMES), **spans)


def summary(spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: call count, summed self time (s), the durations (s)
    and, for leaf queries, which calls walked a segment new to their round."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    out = {}
    for name_id, name in enumerate(NAMES):
        mask = spans["name"] == name_id
        out[name] = {
            "calls": int(mask.sum()),
            "self_s": float(self_time[mask].sum()),
            "durations": dur[mask],
            "fresh": spans["flag"][mask].astype(bool),
        }
    return out
