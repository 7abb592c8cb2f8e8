"""Per-layer spans of `macc`, recorded from outside the program.

While installed, the tracer replaces each traced function at the binding its
caller looks up at call time: `cli` reaches `designs.*`, `topology.*`,
`engine.simulate` and `analysis.*` through module attributes, while
`engine` calls `validate` and `extract_matchings` through names it imported
from `topology`, and `place`, `deliver` and `subfile_bytes` through its own
globals.  Spans (name, start, end, parent, op id) stay in memory and are
written out as JSON at the end of the run.  The hot leaf `subfile_bytes`
(tens of thousands of calls per op) keeps aggregate counters instead.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

ROOT = "cli"
# (module, attribute, span name); one function may be reached by two bindings.
SPAN_TARGETS = (
    ("designs", "construct_mcrd", "designs.construct_mcrd"),
    ("designs", "verify_mcrd", "designs.verify_mcrd"),
    ("topology", "random_topology", "topology.random_topology"),
    ("topology", "validate", "topology.validate"),
    ("engine", "validate", "topology.validate"),
    ("engine", "extract_matchings", "topology.extract_matchings"),
    ("engine", "simulate", "engine.simulate"),
    ("engine", "place", "engine.place"),
    ("engine", "deliver", "engine.deliver"),
    ("analysis", "comparison_table", "analysis.comparison_table"),
    ("analysis", "rows_to_csv", "analysis.rows_to_csv"),
    ("analysis", "rows_to_json", "analysis.rows_to_json"),
)
COUNTED = ("engine", "subfile_bytes", "engine.subfile_bytes")
SELF_TIMED = (ROOT, "engine.simulate", "engine.place")
SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(name for _, _, name in SPAN_TARGETS))


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    self_s: float = 0.0
    count: int | None = None  # transmissions, for engine.deliver


class Tracer:
    """Spans and counters for the operations run while it is installed."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._origin = perf_counter()
        self._stack: list[Span] = []
        self._child_s: dict[int, float] = {}
        self._keys: set[tuple] = set()
        self.spans: list[Span] = []
        self.counted = {"calls": 0, "busy_s": 0.0, "errors": 0, "unique": 0}
        self.missing = [f"{mod}.{attr}" for mod, attr, _ in SPAN_TARGETS + (COUNTED,)
                        if not hasattr(modules.get(mod), attr)]
        self.op = -1
        self.root: Span | None = None  # the outermost span of the latest operation

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns (result, span)."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.op,
                    None if parent is None else parent.id, perf_counter() - self._origin)
        self.spans.append(span)
        if parent is None:
            self.root = span
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = perf_counter() - self._origin
            self._stack.pop()
            duration = span.end - span.start
            span.self_s = duration - self._child_s.pop(span.id, 0.0)
            if parent is not None:
                self._child_s[parent.id] = self._child_s.get(parent.id, 0.0) + duration
        if name == "engine.deliver" and hasattr(result, "__len__"):
            span.count = len(result)
        return result, span

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)[0]
        return traced

    def _wrap_counted(self, fn):
        default_size = (fn.__defaults__ or (None,))[-1]
        counted, child_s, keys, stack = self.counted, self._child_s, self._keys, self._stack

        def counted_call(seed, file, subfile, size=default_size):
            start = perf_counter()
            try:
                return fn(seed, file, subfile, size)
            except BaseException:
                counted["errors"] += 1
                raise
            finally:
                duration = perf_counter() - start
                counted["calls"] += 1
                counted["busy_s"] += duration
                keys.add((seed, file, subfile, size))
                if stack:
                    child_s[stack[-1].id] = child_s.get(stack[-1].id, 0.0) + duration
        return counted_call

    @contextmanager
    def installed(self, op: int):
        """Trace operation ``op``: swap the wrappers in, and the originals back after."""
        self.op = op
        saved = []
        for mod, attr, name in SPAN_TARGETS + (COUNTED,):
            module = self._modules.get(mod)
            if not hasattr(module, attr):
                continue
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap_counted(fn) if (mod, attr, name) == COUNTED
                    else self._wrap(name, fn))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self.counted["unique"] += len(self._keys)
            self._keys.clear()

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op means over ``ops`` traced operations, by metric name."""
        n = max(ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            spans = [s for s in self.spans if s.name == name]
            out[f"{name}.calls"] = (len(spans) / n, "count/op")
            out[f"{name}.busy_s"] = (sum(s.end - s.start for s in spans) / n, "s/op")
            out[f"{name}.errors"] = (sum(s.error for s in spans) / n, "count/op")
            if name in SELF_TIMED:
                out[f"{name}.self_s"] = (sum(s.self_s for s in spans) / n, "s/op")
        transmissions = sum(s.count or 0 for s in self.spans if s.name == "engine.deliver")
        out["engine.deliver.transmissions"] = (transmissions / n, "count/op")
        c, name = self.counted, COUNTED[2]
        out[f"{name}.calls"] = (c["calls"] / n, "count/op")
        out[f"{name}.busy_s"] = (c["busy_s"] / n, "s/op")
        out[f"{name}.errors"] = (c["errors"] / n, "count/op")
        out[f"{name}.unique_ratio"] = (c["unique"] / c["calls"] if c["calls"] else 0.0, "ratio")
        return out

    def dump(self, path: Path, header: dict) -> None:
        doc = dict(header, missing_bindings=self.missing, subfile_bytes=self.counted,
                   spans=[asdict(s) for s in self.spans])
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
