"""In-memory spans and counters around calls into the circlyap layers.

A :class:`Tracer` replaces functions at the names their callers look up
(``setattr`` on a module or class) with thin wrappers that record one span
per call: name, parent span, start and end. Optional hooks add counters
from a call's arguments or result. Nothing is patched until
:meth:`Tracer.install`; :meth:`Tracer.uninstall` restores the originals, so
untraced executions run the library exactly as shipped.

Names the library no longer defines are skipped, so a later refactor that
removes a function reads as a zero metric instead of breaking the run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, parent index, start, end]
        self.counters: dict[str, float] = defaultdict(float)
        self.instances: list = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []

    # -- registration -----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``count(args, kwargs, result)`` may return counter increments.
        """
        self._targets.append((owner, attr, name, count))

    def track_instances(self, cls) -> None:
        """Remember every instance of ``cls`` built while installed."""
        self._targets.append((cls, "__init__", None, None))

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, count in self._targets:
            orig = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self._instance_hook(orig) if name is None \
                else self._span_wrapper(orig, name, count)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self.instances = []
        self._stack = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           _perf(), 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = _perf()
        self._stack.pop()

    def _span_wrapper(self, fn, name, count):
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    self.counters[key] += inc
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _instance_hook(self, init):
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.instances.append(obj)

        wrapper.__wrapped__ = init
        return wrapper

    # -- summaries ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around a block that is not a patched call."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, summed duration) per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, _, t0, t1 in self.spans:
            rec = out[name]
            rec[0] += 1
            rec[1] += t1 - t0
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_time_by_layer(self) -> dict[str, float]:
        """Summed self time per layer, the prefix of a span name before '.'.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, _, t0, t1), c in zip(self.spans, child):
            out[name.split(".", 1)[0]] += (t1 - t0) - c
        return dict(out)

    def children_of(self, parent_name: str, child_name: str) -> list[list]:
        """Durations of ``child_name`` spans under each ``parent_name`` span,
        in call order."""
        parents = {i: [] for i, s in enumerate(self.spans) if s[0] == parent_name}
        for name, parent, t0, t1 in self.spans:
            if name == child_name and parent in parents:
                parents[parent].append(t1 - t0)
        return [parents[i] for i in sorted(parents)]

    def dump(self) -> dict:
        return {"fields": ["id", "name", "parent", "start_s", "end_s"],
                "spans": [[i, n, p, t0, t1]
                          for i, (n, p, t0, t1) in enumerate(self.spans)]}

