"""Tracing for the benchmark's traced run, built only from public names.

The tracer swaps wrappers in at the call sites the library itself uses (the
module attributes of `dyngibbs.updater` and `dyngibbs.cli`, and methods on
`MrfInstance` and `ExecutionLog`); no program file changes. Coarse calls
become spans (name, start, end, parent, batch); hot calls only bump counters,
some with accumulated time. Spans stay in memory until `write_jsonl`.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, class or None, attribute, how): "span" records a span, "timed"
# counts calls and accumulates their time, "count" only counts calls.
TARGETS = (
    ("dyngibbs.updater", None, "plan_update", "span"),
    ("dyngibbs.updater", None, "execute_update", "span"),
    ("dyngibbs.updater", None, "build_filter", "span"),
    ("dyngibbs.updater", None, "update_hamiltonian", "span"),
    ("dyngibbs.updater", None, "update_edge", "span"),
    ("dyngibbs.updater", None, "add_vertices", "span"),
    ("dyngibbs.updater", None, "delete_vertices", "span"),
    ("dyngibbs.updater", None, "length_fix", "span"),
    ("dyngibbs.updater", None, "run_chain", "span"),
    ("dyngibbs.cli", None, "dobrushin_check", "span"),
    ("dyngibbs.mrf", "MrfInstance", "apply_batch", "timed"),
    ("dyngibbs.execlog", "ExecutionLog", "insert", "timed"),
    ("dyngibbs.execlog", "ExecutionLog", "remove", "timed"),
    ("dyngibbs.execlog", "ExecutionLog", "compact", "timed"),
    ("dyngibbs.execlog", "ExecutionLog", "change", "count"),
    ("dyngibbs.updater", None, "local_restriction", "count"),
    ("dyngibbs.updater", None, "maximal_couple_conditional", "count"),
    ("dyngibbs.updater", None, "correction_kernel", "count"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, batch]
        self.stack: list[int] = []
        self.batch = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.steps = 0  # transitions produced by traced run_chain calls
        self.missing: list[str] = []
        self.names: set[str] = set()
        self._patches = []  # (owner, attr, original, wrapper)
        for module, cls, attr, how in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            name = f"{cls or module.rsplit('.', 1)[-1]}.{attr}"
            if original is None:
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            self.names.add(name)
            wrap = {"span": self._span_wrapper, "timed": self._timed_wrapper,
                    "count": self._count_wrapper}[how]
            self._patches.append((owner, attr, original, wrap(name, original)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[sid] = [name, t0, t1, parent, self.batch]

    def _span_wrapper(self, name, fn):
        span = self.span
        count_steps = name == "updater.run_chain"

        def wrapper(*args, **kwargs):
            with span(name):
                out = fn(*args, **kwargs)
            if count_steps:
                self.steps += out.length
            return out

        return wrapper

    def _timed_wrapper(self, name, fn):
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += perf_counter() - t0
                counts[name] += 1

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def inclusive(self, name: str, batches: bool = True) -> float:
        """Summed duration of spans called `name` (in batches, or in set-up)."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and (s[4] >= 0) == batches)

    def write_jsonl(self, path, origin: float) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for sid, (s, self_s) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({
                    "id": sid, "name": s[0], "start": s[1] - origin,
                    "end": s[2] - origin, "parent": s[3], "batch": s[4],
                    "self": self_s,
                }) + "\n")
