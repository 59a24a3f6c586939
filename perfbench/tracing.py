"""In-memory spans around calls into torsionlab's layers, and per-layer totals.

The package modules call each other through names they imported, so a layer
boundary is traced by replacing that name in the namespace of the module
that calls it (``cli.solve_torsion``, ``discretization.solve``, ...).  Each
span records its name, start, end, parent span and the id of the benchmark
operation that caused it.  Nothing under ``src/`` is edited: the wrappers are
installed at run time by the benchmark and removed again by ``restore``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    info: dict = field(default_factory=dict)   # numbers read off the result

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for a single-threaded caller."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent=parent, op=self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, namespace, attr: str, name: str, probe=None) -> None:
        """Replace ``namespace.attr`` by a traced version recording span ``name``.

        ``probe(result)`` returns a dict of numbers stored on the span; a call
        that raises is marked with ``info["failed"] = 1`` and re-raised.
        """
        original = getattr(namespace, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                span.info["failed"] = 1
                raise
            finally:
                self.close(span)
            if probe is not None:
                span.info.update(probe(result))
            return result

        setattr(namespace, attr, traced)
        self._patched.append((namespace, attr, original))

    def restore(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    class Namespace:
        @staticmethod
        def noop():
            return None

    ns = Namespace()
    start = time.perf_counter()
    for _ in range(calls):
        ns.noop()
    plain = time.perf_counter() - start
    tracer = Tracer()
    tracer.wrap(ns, "noop", "noop")
    start = time.perf_counter()
    for _ in range(calls):
        ns.noop()
    traced = time.perf_counter() - start
    tracer.restore()
    return max(traced - plain, 0.0) / calls
