"""Span tracing of the program's public functions, installed from outside.

Each traced layer is a public function (or method) of a ``spatialprivacy``
module. ``install`` replaces it at every place a caller can look it up: the
defining module, every module that imported it by name, and the class for a
method. Spans live in memory, each with a link to the span that was open on
the same thread when it started, and are written out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


def _pool_size(ensemble) -> int:
    return sum(len(ensemble.pool(label).descriptors) for label in ensemble.labels)


# layer name -> items counted per call, from the bound arguments and the result.
LAYERS = {
    "ply_io.load_ply": lambda a, r: os.path.getsize(a["path"]),
    "geometry.estimate_normals": lambda a, r: len(a["cloud"]),
    "geometry.SpatialIndex.query": lambda a, r: len(np.reshape(a["queries"], (-1, 3))) * a["k"],
    "geometry.knn_bruteforce": lambda a, r: len(a["queries"]) * len(a["references"]),
    "attacker.match_inter": lambda a, r: len(a["query"]) * _pool_size(a["ensemble"]),
    "attacker.match_intra": lambda a, r: int((a["nndr"] < a["params"].t1).sum()),
    "descriptors.describe": lambda a, r: len(r),
    "mechanisms.ransac_planes": lambda a, r: len(r),
    "mechanisms.subsume": lambda a, r: len(a["new_points"]),
    "mechanisms.release_sequence": lambda a, r: len(r[0]),
    "mechanisms.project_to_planes": lambda a, r: len(r),
    "metrics.qos": lambda a, r: len(a["transformed"]),
    "attacker.infer": lambda a, r: 1,
    "attacker.build_reference": lambda a, r: len(a["spaces"]),
    "harness.self_query_check": lambda a, r: len(a["spaces"]),
    "harness.report": lambda a, r: len(a["cells"]),
}

PACKAGE = "spatialprivacy"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    items: int | None = None
    useful: bool | None = None   # attacker.infer only: answered without abstaining


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(next(self._ids), stack[-1].id if stack else None, name,
                        threading.get_ident(), time.perf_counter(), 0.0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                span.items = int(count(bound.arguments, result))
                if name == "attacker.infer":
                    span.useful = not result.abstained
            except (AttributeError, KeyError, TypeError):
                pass   # the layer's signature or result changed; leave it unknown
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer the program still has; record the missing ones."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, count in LAYERS.items():
            module_name, *owner_path, attr = name.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original, count)
            if owner_path:
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self, path, setup_end: float | None) -> None:
        """Write the spans; ``setup_end`` is when the preflight returned."""
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "setup_end": setup_end,
                       "spans": [vars(s) for s in self.spans]}, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.sweep_self_s": "s", f"{name}.items": "count"})
    units.update({"attacker.infer.useful_frac": "ratio", "trace.spans": "count",
                  "trace.setup_s": "s", "trace.run_s": "s", "trace.overhead_s": "s",
                  "sweep.trials_per_s": "1/s", "sweep.query_pts": "count"})
    return units


def layer_metrics(trace: dict) -> dict[str, float | int | None]:
    """Per-layer calls, self seconds (all, and after set-up) and items.

    Spans that start after the preflight returned belong to the sweep. An
    absent layer reports None rather than zero.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    setup_end = trace["setup_end"]
    out: dict[str, float | int | None] = {}
    for name in LAYERS:
        mine = [s for s in spans if s["name"] == name]
        absent = name in trace["absent"]
        items = [s["items"] for s in mine]
        out[f"{name}.calls"] = None if absent else len(mine)
        out[f"{name}.self_s"] = None if absent else sum(selfs[s["id"]] for s in mine)
        out[f"{name}.sweep_self_s"] = None if absent else sum(
            selfs[s["id"]] for s in mine if s["start"] >= setup_end)
        out[f"{name}.items"] = None if absent or None in items else sum(items)
    infer = [s for s in spans if s["name"] == "attacker.infer"]
    out["attacker.infer.useful_frac"] = (
        sum(bool(s["useful"]) for s in infer) / len(infer) if infer else None
    )
    return out
