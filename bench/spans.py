"""Spans and counts recorded around calls into the package's public functions.

``instrument`` swaps the module attributes listed in ``SPANS`` and
``COUNTERS`` for wrappers while a traced run is in progress, so calls
made inside the package (``compare`` calling ``align``, ``align`` calling
``build_upmc``, ...) are seen as well as the benchmark's own calls. Only
the benchmark's files change; the package is untouched.

A span is (name, start, end, parent, operation id). Spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the durations of its direct children, so the self times of one
operation's spans add up to the duration of its root span.
"""
from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "bench.operation"

# (module, attribute, span name). The same function can be reached through
# several module namespaces; each binding gets its own wrapper.
SPANS = [
    ("ontology", "load_ontology", "ontology.load"),
    ("evaluation", "compare", "evaluation.compare"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "align", "pipeline.align"),
    ("pipeline", "align", "pipeline.align"),
    ("pipeline", "build_upmc", "chain.build_upmc"),
    ("pipeline", "normalize", "chain.normalize"),
    ("pipeline", "ergodic_transform", "chain.ergodic_transform"),
    ("pipeline", "initial_distribution", "chain.initial_distribution"),
    ("pipeline", "iterate", "chain.iterate"),
    ("pipeline", "steady_state", "chain.steady_state"),
    ("pipeline", "refine", "matching.refine"),
    ("matching", "to_matrix", "matching.to_matrix"),
    ("matching", "hungarian_max", "matching.hungarian_max"),
    ("matching", "alignment_to_json", "matching.alignment_to_json"),
    ("chain", "label_set_confidence", "lexical.label_set_confidence"),
]

# (module, attribute, count name): calls counted without a span.
COUNTERS = [
    ("lexical", "levenshtein", "lexical.levenshtein_calls"),
    ("chain", "label_set_confidence", "chain.label_set_pairs"),
    ("chain", "labels_share_exact_match", "chain.label_set_pairs"),
]

# (module, attribute, metric name): peak bytes allocated during the call.
ALLOCS = [
    ("pipeline", "build_upmc", "chain.build_upmc_alloc_mb"),
    ("pipeline", "steady_state", "chain.steady_state_alloc_mb"),
]


def _module(name: str):
    return importlib.import_module(f"chainalign.{name}")


@contextmanager
def patched(replacements):
    """Temporarily set ``module.attr = make(original)`` for every (module, attr, make)."""
    saved = []
    try:
        for mod_name, attr, make in replacements:
            mod = _module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, make(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _chain_shape(g1, g2, chain) -> dict[str, int]:
    rows = chain.transitions
    return {
        "chain.states": len(chain),
        "chain.adjacency_pairs": len(g1.adjacency) * len(g2.adjacency),
        "chain.nnz": sum(map(len, rows)),
        "chain.empty_rows": sum(1 for r in rows if not r),
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: list[defaultdict] = []
        self._stack = [-1]
        self._deferred: list = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ops.append(len(self.counts) - 1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self):
        """Root span of one operation; deferred counts run after it closes."""
        self.counts.append(defaultdict(int))
        idx = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            counts = self.counts[-1]
            for fn in self._deferred:
                for key, value in fn().items():
                    counts[key] += value
            self._deferred.clear()

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[-1][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def observe_build(self, fn):
        """Record the chain's shape once the operation has ended."""
        def wrapper(g1, g2, *args, **kwargs):
            chain = fn(g1, g2, *args, **kwargs)
            self._deferred.append(lambda: _chain_shape(g1, g2, chain))
            return chain
        return wrapper

    def observe_solve(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[-1]["chain.iterations"] += result.iterations
            return result
        return wrapper

    def instrument(self):
        replacements = [(m, a, lambda f, n=n: self.counter(n, f)) for m, a, n in COUNTERS]
        replacements += [(m, a, lambda f, n=n: self.span(n, f)) for m, a, n in SPANS]
        replacements += [
            ("pipeline", "build_upmc", self.observe_build),
            ("pipeline", "iterate", self.observe_solve),
            ("pipeline", "steady_state", self.observe_solve),
        ]
        return patched(replacements)

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def per_operation(self) -> tuple[list[dict[str, float]], list[float]]:
        """Self time per span name for each operation, and each operation's wall time."""
        per_op = [defaultdict(float) for _ in self.counts]
        walls = [0.0] * len(self.counts)
        for idx, t in enumerate(self.self_times()):
            per_op[self.ops[idx]][self.names[idx]] += t
            if self.names[idx] == ROOT_SPAN:
                walls[self.ops[idx]] = self.ends[idx] - self.starts[idx]
        return per_op, walls

    def write(self, path: Path, extra: dict) -> None:
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["span_names"] = names
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "operation"]
        doc["spans"] = [
            [code[n], round(s, 9), round(e, 9), p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]
        doc["counts"] = [dict(c) for c in self.counts]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


@contextmanager
def allocation_pass(peaks: dict[str, float]):
    """Trace allocations; record the peak MB allocated inside each ALLOCS call."""
    def measure(name, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                peaks[name] = max(peaks.get(name, 0.0), peak)
        return wrapper

    tracemalloc.start()
    try:
        with patched([(m, a, lambda f, n=n: measure(n, f)) for m, a, n in ALLOCS]):
            yield
    finally:
        tracemalloc.stop()
