"""Call tracing for the benchmark's traced runs.

The library is not changed: a function is traced by replacing it, for
the length of a round, in the namespace of the module that calls it
(``sim.stream``, ``ordering.svd_decompose``, ...). Every traced call is
a span; a span's self time is its duration minus the spans it encloses.

Spans are aggregated by name in memory rather than kept one by one: the
order search makes about 10^5 traced calls a round.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span statistics and work counts of one round."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        # Time covered by finished child spans, one slot per open span.
        self._child_s = [0.0]

    def _close(self, name: str, elapsed: float) -> None:
        inner = self._child_s.pop()
        self._child_s[-1] += elapsed
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += elapsed
        st.self_s += elapsed - inner

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - t0)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` as a span named ``name``; ``count(*args)`` returns work counts to add."""

        def traced(*args, **kwargs):
            if count is not None:
                self.counts.update(count(*args, **kwargs))
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, time.perf_counter() - t0)

        return traced

    def tally(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted under ``name``, no span."""

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def total(self, name: str) -> float:
        st = self.stats.get(name)
        return st.total_s if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_time(self, prefix: str) -> float:
        return sum(st.self_s for name, st in self.stats.items() if name.startswith(prefix))


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Bind ``module.attr = make(original)`` for each target, restoring on exit.

    A name the module no longer binds is skipped, so its metrics read 0
    instead of the traced run failing after a refactor moves the call.
    """
    saved = []
    try:
        for module, attr, make in targets:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
