"""Spans around calls into dc_lab's public functions, recorded from outside.

The tracer replaces a function by a wrapper in every dc_lab module namespace
that binds it (``search`` imports ``wcsg_bound``, ``families`` imports
``complete_to_unitary``, and so on), and replaces ``numpy.linalg.eigh`` and
``numpy.linalg.solve``.  A wrapper records a span only while an operation is
open, so checks and set-up run between operations stay out of the trace.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

import numpy as np

# layer -> public functions whose calls become spans
LAYER_FUNCTIONS = {
    "search": ("estimate_nmax", "find_family", "region_sweep", "objective"),
    "analysis": ("verify_family", "kc_span_check", "wcsg_bound", "bns_excluded"),
    "states": ("make_state", "entropy_bits", "message_vectors"),
    "families": ("family_dp2", "family_2dm1", "weyl_family"),
    "linalg": ("complete_to_unitary", "unitarity_residual"),
    "cli": ("main", "write_family_document", "read_family_document", "write_sweep_csv"),
}
MODULES = ("dc_lab",) + tuple(f"dc_lab.{layer}" for layer in LAYER_FUNCTIONS)

# span fields
NAME, START, END, PARENT, OP, ITEMS, TAG = range(7)


def _matrices(args, kwargs):
    a = np.asarray(args[0] if args else kwargs["a"])
    return int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1


def _find_outcome(result):
    return "found" if result[1] is not None else "refused"


class Tracer:
    """Collects spans: name, start, end, parent span, operation id, items, tag."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, items=None, tag=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 1, None]
            if items is not None:
                span[ITEMS] = items(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if tag is not None:
                span[TAG] = tag(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"dc_lab.{layer}")
            for name in names:
                original = getattr(home, name)
                tag = _find_outcome if name == "find_family" else None
                wrapper = self._wrap(f"{layer}.{name}", original, tag=tag)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for name in ("eigh", "solve"):
            original = getattr(np.linalg, name)
            items = _matrices if name == "eigh" else None
            self._patched.append((np.linalg, name, original))
            setattr(np.linalg, name, self._wrap(f"numpy.{name}", original, items=items))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def run(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id, recording the spans inside it."""
        self.op = op_id
        try:
            return fn(*args)
        finally:
            self.op = None

    def write(self, path: str) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], *s[1:]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "items", "tag"], "names": names, "spans": rows},
                fh,
            )


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def reduce_spans(spans) -> dict[str, dict]:
    """Per span name: calls, items, busy time (union of its spans), self time.

    Self time is a span's duration minus that of its direct children; one
    thread records all spans, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    stats: dict[str, dict] = {}
    intervals: dict[str, list] = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[NAME], {"calls": 0, "items": 0, "self_s": 0.0})
        st["calls"] += 1
        st["items"] += s[ITEMS]
        st["self_s"] += (s[END] - s[START]) - child[i]
        intervals.setdefault(s[NAME], []).append((s[START], s[END]))
    for name, st in stats.items():
        st["busy_s"] = _union_length(intervals[name])
    return stats


def layer_metrics(spans, ops: int, overhead: float, pool_seconds: float, doc_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass.

    Counts and times are per operation of the pass (a verdict), so they
    compare across versions that fit different numbers of operations into
    the same run length.  `pool_seconds` is workers x the untraced pool
    sweep's wall time; parallel efficiency is the sweep's cell time, taken
    from the traced single-worker pass and divided by the tracing overhead,
    over it.
    """
    stats = reduce_spans(spans)

    def per_op(name, key):
        return stats.get(name, {}).get(key, 0) / ops

    finds = [s for s in spans if s[NAME] == "search.find_family"]
    found = [s[END] - s[START] for s in finds if s[TAG] == "found"]
    refused = [s[END] - s[START] for s in finds if s[TAG] == "refused"]
    sweeps = {i for i, s in enumerate(spans) if s[NAME] == "search.region_sweep"}
    cells = [s[END] - s[START] for s in spans if s[NAME] == "search.estimate_nmax" and s[PARENT] in sweeps]
    matrices = stats.get("numpy.eigh", {}).get("items", 0)
    efficiency = sum(cells) / overhead / pool_seconds if pool_seconds else 0.0
    m = {
        "numpy.eigh.calls": (per_op("numpy.eigh", "calls"), "count/op"),
        "numpy.eigh.matrices": (per_op("numpy.eigh", "items"), "count/op"),
        "numpy.eigh.busy_s": (per_op("numpy.eigh", "busy_s"), "s/op"),
        "numpy.eigh.matrices_per_found_k": (matrices / len(found) if found else 0.0, "count"),
        "numpy.solve.calls": (per_op("numpy.solve", "calls"), "count/op"),
        "numpy.solve.busy_s": (per_op("numpy.solve", "busy_s"), "s/op"),
        "search.find_family.found_s": (sum(found) / ops, "s/op"),
        "search.find_family.refused_s": (sum(refused) / ops, "s/op"),
        "search.find_family.self_s": (per_op("search.find_family", "self_s"), "s/op"),
        "search.found_ratio": (len(found) / len(finds) if finds else 0.0, "ratio"),
        "search.region_sweep.cell_s.p50": (statistics.median(cells) if cells else 0.0, "s"),
        "search.region_sweep.cell_s.max": (max(cells, default=0.0), "s"),
        "search.region_sweep.parallel_efficiency": (efficiency, "ratio"),
    }
    for name in ("families.family_dp2", "families.family_2dm1", "families.weyl_family"):
        m[f"{name}.busy_s"] = (per_op(name, "busy_s"), "s/op")
    for name in ("linalg.complete_to_unitary", "linalg.unitarity_residual"):
        m[f"{name}.calls"] = (per_op(name, "calls"), "count/op")
        m[f"{name}.busy_s"] = (per_op(name, "busy_s"), "s/op")
    m["cli.main.self_s"] = (per_op("cli.main", "self_s"), "s/op")
    for name in ("cli.write_family_document", "cli.read_family_document", "cli.write_sweep_csv"):
        m[f"{name}.busy_s"] = (per_op(name, "busy_s"), "s/op")
    m["cli.document_bytes"] = (doc_bytes, "bytes/op")
    for name in ("analysis.verify_family", "analysis.kc_span_check"):
        m[f"{name}.calls"] = (per_op(name, "calls"), "count/op")
        m[f"{name}.busy_s"] = (per_op(name, "busy_s"), "s/op")
    m["states.message_vectors.busy_s"] = (per_op("states.message_vectors", "busy_s"), "s/op")
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.spans"] = (len(spans) / ops, "count/op")
    return m


def print_layers(spans) -> None:
    """One line per traced name: calls, busy and self time; then find_family's
    outcomes, which the workload fixes and so are printed, not compared."""
    for name, st in sorted(reduce_spans(spans).items()):
        print(f"layer {name}: calls={st['calls']} busy_s={st['busy_s']!r} self_s={st['self_s']!r}")
    tags = [s[TAG] for s in spans if s[NAME] == "search.find_family"]
    print(f"search.find_family: calls={len(tags)} found={tags.count('found')} refused={tags.count('refused')}")
