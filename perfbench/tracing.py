"""In-memory spans around calls into the library, recorded from outside it.

A Tracer replaces chosen module bindings (``module.attr``) with wrappers
that open a span on entry and close it on exit. Spans are plain records:
name, start and end in perf_counter nanoseconds, the index of the parent
span (-1 for a root), and the op id they belong to. Nothing is written
while the timed loop runs; ``dump`` serialises the spans at the end.

A span's self time is its duration minus the part of its interval that
its child spans cover. For a tree of properly nested spans, the self
times of all its spans sum exactly to the root's duration, which
``check_self_time_identity`` verifies per root.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: int
    end: int = -1
    parent: int = -1
    op: Any = None
    attrs: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's and merged first, so
    overlapping children are not counted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    out = []
    for i, sp in enumerate(spans):
        clipped = sorted(
            (max(spans[c].start, sp.start), min(spans[c].end, sp.end)) for c in children[i]
        )
        covered = 0
        run_start = run_end = None
        for a, b in clipped:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            elif b > run_end:
                run_end = b
        if run_end is not None:
            covered += run_end - run_start
        out.append(sp.duration - covered)
    return out


def check_self_time_identity(spans: list[Span], selfs: list[int]) -> list[str]:
    """Roots whose tree's self times do not sum to the root's duration."""
    root_of = []
    for sp in spans:
        root_of.append(len(root_of) if sp.parent < 0 else root_of[sp.parent])
    total: dict[int, int] = defaultdict(int)
    for i, s in enumerate(selfs):
        total[root_of[i]] += s
    return [
        f"op {spans[r].op} root {spans[r].name}: self times sum to {t} ns, "
        f"root lasts {spans[r].duration} ns"
        for r, t in sorted(total.items())
        if t != spans[r].duration
    ]


class Tracer:
    """Span recorder plus the binding patches that feed it.

    ``wrap`` and ``count`` register patches; ``install`` applies them and
    ``uninstall`` restores the original bindings, so one process can run
    an untraced loop and a traced loop over the same inputs.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: Any = None
        self.counts: dict[tuple[Any, str], int] = defaultdict(int)
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any, Any]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op))
        self.stack.append(idx)
        self._open[name] += 1
        return idx

    def end(self, idx: int) -> None:
        sp = self.spans[idx]
        sp.end = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {sp.name} closed out of order")
        self._open[sp.name] -= 1

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[[Span, Any], None] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        on_result runs after the span closes and may stash cheap facts
        about the return value in the span's attrs.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_result is not None:
                on_result(tracer.spans[idx], result)
            return result

        self._patches.append((owner, attr, original, traced))

    def count(self, owner: Any, attr: str, name: str, inside: str) -> None:
        """Count calls of ``owner.attr`` made while a span ``inside`` is open."""
        original = getattr(owner, attr)
        tracer = self

        def counted(*args, **kwargs):
            if tracer._open[inside]:
                tracer.counts[(tracer.op, name)] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original, counted))

    def install(self) -> None:
        for owner, attr, _, patched in self._patches:
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.op, s.attrs] for s in self.spans]
