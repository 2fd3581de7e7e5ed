"""Summary statistics and failure accounting of one benchmark run."""

from __future__ import annotations

from dataclasses import dataclass, field

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, str]:
    """The highest nearest-rank percentile with >= 10 samples beyond it.

    That is the sample of rank ``n - 10``; with fewer than 20 samples the
    rank would fall below the median, so the maximum is reported instead.
    Returns ``(value, label)`` where the label states the percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], f"max of n={n}"
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], f"p{100.0 * rank / n:.1f} of n={n}"


@dataclass
class Tally:
    """Attempts, failures and the latency of every answer, in run order."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, seconds: float, problems: list[str]) -> None:
        """Count one attempt; *problems* lists why its answer is wrong."""
        self.attempted += 1
        self.latencies.append(seconds)
        if problems:
            self.failures.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
