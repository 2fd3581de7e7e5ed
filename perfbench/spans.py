"""Outside-in tracing: spans around calls into each layer's public entry points.

Nothing in the program is edited.  :class:`Tracer` replaces module or
class attributes with wrappers that record a span per call and restores
them on :meth:`Tracer.close`.  A span is ``(name, start, end, parent,
trace)``; ``trace`` is the solve or request the call served.  Spans stay in
memory and are written out once, when the run ends.

``IncrementalInstance.check`` is split into two child spans from its own
``statistics()``: ``smt.bitblast`` (``encode_seconds``) and ``sat.search``
(``solve_seconds``).  The same statistics feed the work counters.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: Root span of one library solve; its self time is the strategy's own
#: probe control (``core.strategies``).
ROOT = "core.scheduler.schedule"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children[index], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] += span.seconds - covered
    return dict(totals)


def _counters() -> dict[str, float]:
    return dict.fromkeys(
        (
            "probes", "decided", "max_horizon", "conflicts", "propagations",
            "decisions", "variables", "clauses", "search_s", "probe_overrun_s",
        ),
        0,
    )


class Tracer:
    """Wraps entry points, records spans and per-probe work counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace = "setup"
        self.counters = _counters()
        self._local = threading.local()
        #: (owner, attribute, the raw value in ``vars(owner)``) to put back.
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attribute: str, name: str, after=None) -> None:
        """Record a span *name* around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            index = tracer._open(name, stack[-1] if stack else None)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[index].end = time.perf_counter()
            if after is not None:
                after(index, args, kwargs, result)
            return result

        self._restore.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, traced)

    def install_library(self) -> None:
        """Wrap the library entry points a solve passes through."""
        from repro.core import scheduler
        from repro.core.encoding import IncrementalInstance
        from repro.core.problem import SchedulingProblem
        from repro.core.strategies import base, bisection

        self.wrap(scheduler.SMTScheduler, "schedule", ROOT)
        self.wrap(SchedulingProblem, "bound_breakdown", "core.problem.bound_breakdown")
        self.wrap(bisection, "structured_upper_bound", "core.structured.witness")
        self.wrap(base, "encode_incremental_problem", "core.encoding.build")
        self.wrap(IncrementalInstance, "extend_to", "core.encoding.extend")
        self.wrap(IncrementalInstance, "check", "core.encoding.check", after=self._probe)
        self.wrap(IncrementalInstance, "extract_schedule", "core.encoding.extract")
        self.wrap(scheduler, "validate_schedule", "core.validator.validate")

    def install_service(self) -> None:
        """Wrap what the service process itself runs per request.

        The event loop canonicalises; an executor thread computes the
        streamed witness (bounds and structured schedule).  Solves run in
        the pool's workers, out of reach of wrappers in this process.
        """
        from repro.core.problem import SchedulingProblem
        from repro.core.strategies import bisection
        from repro.service import server

        self.wrap(server, "canonical_key", "core.canonical.key")
        self.wrap(SchedulingProblem, "bound_breakdown", "core.problem.bound_breakdown")
        self.wrap(bisection, "structured_upper_bound", "core.structured.witness")

    def close(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None, start: float | None = None) -> int:
        now = time.perf_counter() if start is None else start
        with self._lock:
            self.spans.append(Span(name, now, now, parent, self.trace))
            return len(self.spans) - 1

    def _probe(self, index: int, args, kwargs, result) -> None:
        """Split a finished check into bit-blast and search; count its work."""
        instance = args[0]
        stats = instance.statistics()
        span = self.spans[index]
        encode = stats.get("encode_seconds", 0.0)
        search = stats.get("solve_seconds", 0.0)
        blast = self._open("smt.bitblast", index, span.end - search - encode)
        self.spans[blast].end = span.end - search
        solve = self._open("sat.search", index, span.end - search)
        self.spans[solve].end = span.end
        c = self.counters
        c["probes"] += 1
        c["decided"] += result.value != "unknown"
        horizon = kwargs.get("horizon") or instance.num_stages
        c["max_horizon"] = max(c["max_horizon"], horizon)
        c["conflicts"] += stats.get("sat_conflicts", 0)
        c["propagations"] += stats.get("sat_propagations", 0)
        c["decisions"] += stats.get("sat_decisions", 0)
        c["variables"] = max(c["variables"], stats.get("sat_variables", 0))
        c["clauses"] = max(c["clauses"], stats.get("sat_clauses", 0))
        c["search_s"] += search
        deadline = kwargs.get("deadline")
        if deadline is not None and deadline.expires_at is not None:
            # Deadlines tick on time.monotonic, spans on perf_counter.
            shift = time.monotonic() - time.perf_counter()
            past = max(span.start + shift, deadline.expires_at)
            c["probe_overrun_s"] += max(0.0, span.end + shift - past)

    # ------------------------------------------------------------------ #
    def write(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "trace": s.trace}
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "counters": self.counters}, handle)


def per_call_overhead(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op entry point."""

    class Probe:
        @staticmethod
        def noop():
            return None

    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(calls):
        Probe.noop()
    bare = time.perf_counter() - start
    tracer.wrap(Probe, "noop", "noop")
    start = time.perf_counter()
    for _ in range(calls):
        Probe.noop()
    traced = time.perf_counter() - start
    tracer.close()
    return max(0.0, (traced - bare) / calls)
