"""External tracer: wraps slmatch's public functions from outside the package.

Every binding of a wrapped function in every loaded ``slmatch`` module
namespace is replaced (``verify.q1``, ``proof_harness.q1`` and ``cli.q1`` all
point at the same wrapper), so calls are seen whichever import path they
take.  Generator functions are timed per ``next()``.  Spans (name, start, end,
parent) are kept in flat in-memory arrays and written once, when the run
ends; :func:`summarize` turns them into per-function counts, self time and
latency percentiles.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "slmatch"

# (module, function) pairs of PACKAGE wrapped in a traced run; one layer per module
TARGETS = (
    ("generate", "all_connected"),
    ("generate", "sample_connected"),
    ("graph6", "decode_graph6"),
    ("graph6", "encode_graph6"),
    ("graph6", "read_stream"),
    ("graph6", "write_jsonl"),
    ("spectral", "q1"),
    ("spectral", "signless_laplacian"),
    ("spectral", "spectral_radius"),
    ("matching", "maximum_matching"),
    ("graph", "is_connected"),
    ("graph", "delete_vertices"),
    ("graph", "odd_components"),
    ("graph", "proof_graph"),
    ("verify", "check_graph"),
    ("verify", "run_exhaustive"),
    ("verify", "run_stream"),
    ("verify", "run_random"),
    ("proof_harness", "check_root_bounds"),
    ("proof_harness", "check_vertex_shift"),
    ("proof_harness", "check_merge_singletons"),
    ("proof_harness", "check_h_bound"),
    ("proof_harness", "check_case_analysis"),
    ("proof_harness", "verify_polynomial_transcriptions"),
    ("cli", "main"),
)

LAYERS = tuple(dict.fromkeys(module for module, _ in TARGETS))

# per-call quantities summed into "<name>.measure": masks an enumeration
# scans (taken when the generator is created), bytes through the codec, and
# whether a matching came back with a deficiency witness
MEASURES = {
    "generate.all_connected": lambda args, kwargs, result: float(
        1 << (args[0] * (args[0] - 1) // 2)
    ),
    "graph6.decode_graph6": lambda args, kwargs, result: len(args[0]),
    "graph6.encode_graph6": lambda args, kwargs, result: len(result),
    "matching.maximum_matching": lambda args, kwargs, result: float(
        result.witness is not None
    ),
}


class Tracer:
    """Records one span per wrapped call (or per ``next()`` of a generator)."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """Wrapper around `fn` that records a span under `name`."""
        name_id = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)
        counters = self.counters
        measure_key = name + ".measure"

        if inspect.isgeneratorfunction(fn):
            yields_key = name + ".yields"

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if measure is not None:
                    counters[measure_key] += measure(args, kwargs, None)
                while True:
                    index = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    counters[yields_key] += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if measure is not None:
                counters[measure_key] += measure(args, kwargs, result)
            return result

        return traced

    def save(self, path: str) -> None:
        """Write the spans and counters (called once, after the run)."""
        with open(path, "wb") as handle:
            np.savez(
                handle,
                name=np.frombuffer(self.span_name, dtype=np.int32),
                parent=np.frombuffer(self.span_parent, dtype=np.int32),
                start=np.frombuffer(self.span_start, dtype=np.float64),
                end=np.frombuffer(self.span_end, dtype=np.float64),
                meta=np.array(
                    json.dumps({"names": self.names, "counters": self.counters})
                ),
            )


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every TARGETS function wherever a loaded slmatch module binds it.

    Returns the replaced bindings as (namespace, attribute, original) so that
    :func:`uninstall` can put them back.  A target missing from the package is
    skipped, so its metrics read zero.
    """
    for module, _ in TARGETS:
        importlib.import_module(f"{PACKAGE}.{module}")
    namespaces = [
        mod
        for key, mod in list(sys.modules.items())
        if key == PACKAGE or key.startswith(PACKAGE + ".")
    ]
    replaced = []
    for module, function in TARGETS:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], function, None)
        if original is None:
            continue
        wrapper = tracer.wrap(original, f"{module}.{function}")
        for namespace in namespaces:
            for attribute, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attribute, wrapper)
                    replaced.append((namespace, attribute, original))
    return replaced


def uninstall(replaced: list[tuple[object, str, object]]) -> None:
    for namespace, attribute, original in replaced:
        setattr(namespace, attribute, original)


def summarize(spans_path: str, wall_s: float) -> dict[str, float]:
    """Per-function and per-layer numbers from one traced run's span file.

    `wall_s` is the traced run's own wall time from entry to exit; whatever
    the top-level spans do not cover is the benchmark's own code (driver.self_s).
    """
    with np.load(spans_path) as data:
        name, parent = data["name"], data["parent"]
        duration = data["end"] - data["start"]
        meta = json.loads(str(data["meta"]))
    names, counters = meta["names"], meta["counters"]

    nested = parent >= 0
    child_time = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    self_time = duration - child_time
    if self_time.size and self_time.min() < -1e-6:
        raise RuntimeError("a span's children outlast it: spans are not nested")
    order = np.argsort(name, kind="stable")
    bounds = np.searchsorted(name[order], np.arange(len(names) + 1))
    spans_of = {key: order[bounds[k]:bounds[k + 1]] for k, key in enumerate(names)}
    no_spans = np.empty(0, dtype=np.intp)

    out: dict[str, float] = {}
    for module, function in TARGETS:
        key = f"{module}.{function}"
        spans = spans_of.get(key, no_spans)
        out[f"{key}.calls"] = int(spans.size)
        out[f"{key}.self_s"] = float(self_time[spans].sum())
        p50, p99 = np.percentile(duration[spans], [50, 99]) * 1e6 if spans.size else (0, 0)
        out[f"{key}.p50_us"], out[f"{key}.p99_us"] = float(p50), float(p99)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            out[f"{module}.{function}.self_s"]
            for module, function in TARGETS
            if module == layer
        )
    top_level = float(duration[~nested].sum())
    out["driver.self_s"] = wall_s - top_level

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def inclusive_s(key: str) -> float:
        return float(duration[spans_of.get(key, no_spans)].sum())

    out["matching.maximum_matching.witness_share"] = ratio(
        counters.get("matching.maximum_matching.measure", 0.0),
        out["matching.maximum_matching.calls"],
    )
    for codec in ("decode_graph6", "encode_graph6"):
        key = f"graph6.{codec}"
        out[f"{key}.us_per_kb"] = ratio(
            inclusive_s(key) * 1e6, counters.get(f"{key}.measure", 0.0) / 1024
        )
    # sample_connected tests each draw with is_connected: draws = those calls
    draws = 0
    if "generate.sample_connected" in names and "graph.is_connected" in names:
        sampler = names.index("generate.sample_connected")
        tests = name == names.index("graph.is_connected")
        draws = int(np.count_nonzero(name[parent[tests & nested]] == sampler))
    out["generate.sample_connected.accept_ratio"] = ratio(
        counters.get("generate.sample_connected.yields", 0.0), draws
    )
    out["generate.all_connected.yield_ratio"] = ratio(
        counters.get("generate.all_connected.yields", 0.0),
        counters.get("generate.all_connected.measure", 0.0),
    )
    return out
