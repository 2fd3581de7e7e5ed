"""The two library workloads: direct ``SMTScheduler.schedule`` calls.

Each solves one of the paper's fixed instances closed-loop, one solve after
another.  A solve takes about ``solve_seconds`` at the parent commit, and a
run of ``--seconds`` makes ``floor(seconds / solve_seconds)`` solves, at
least one.  Fixed work keeps runs comparable across seeds and commits; a
faster program finishes sooner instead of sampling different inputs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import inputs
from stats import Tally

#: Whole-search deadline of ``anytime-hamming`` (seconds).
HAMMING_DEADLINE_S = 10.0


@dataclass
class Outcome:
    """What a workload run measured, before it is summarised."""

    tally: Tally = field(default_factory=Tally)
    elapsed: float = 0.0
    #: One record per answer, in order: the deterministic work it took.
    work: list[dict] = field(default_factory=list)
    #: Workload-specific metrics: name -> (value, unit, note).
    shown: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    #: Per-layer metrics read from outside the program: name -> (value, unit).
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    reports: list = field(default_factory=list)
    #: Latencies of the answers that ran a solve; None when every answer did.
    solve_latencies: list[float] | None = None


@dataclass
class LibraryWorkload:
    """One fixed problem, its expected answer, the scheduler and the check."""

    label: str
    problem: object
    expected: dict
    #: About how long one solve takes at the parent commit (seconds).
    solve_seconds: float
    scheduler: object
    check: Callable[[object, object, dict], list[str]]
    #: The scheduler's whole-search deadline, when it has one (seconds).
    deadline: float | None = None


def _certified_check(report, problem, expected: dict) -> list[str]:
    from repro.core.validator import validate_schedule

    problems = []
    if report.termination != "certified" or not report.optimal:
        problems.append(f"not certified ({report.termination})")
    if report.schedule is None:
        return problems + ["no schedule"]
    validate_schedule(report.schedule, require_shielding=problem.shielding)
    if report.schedule.num_stages != expected["optimum"]:
        problems.append(
            f"{report.schedule.num_stages} stages, expected {expected['optimum']}"
        )
    return problems


def _anytime_check(report, problem, expected: dict) -> list[str]:
    """A deadline answer must be sound: a valid schedule, and no lower bound
    above the stage count of a schedule known to be valid.  A certified
    answer must be optimal and carry a valid schedule.  Any other
    termination (``backend-error``, ``infeasible``) is a failure."""
    from repro.core.validator import validate_schedule

    problems = []
    if report.termination not in ("deadline", "certified"):
        return [f"termination {report.termination!r}"]
    if report.lower_bound > expected["witness_stages"]:
        problems.append(f"lower bound {report.lower_bound} above a validated witness")
    if report.schedule is not None:
        validate_schedule(report.schedule, require_shielding=problem.shielding)
        if report.schedule.num_stages < report.lower_bound:
            problems.append("schedule shorter than its own lower bound")
    if report.termination == "certified":
        if report.schedule is None or not report.optimal:
            problems.append("certified without an optimal schedule")
        elif report.schedule.num_stages > expected["witness_stages"]:
            problems.append("certified above a validated witness")
    return problems


def paper_steane(oracle: dict) -> LibraryWorkload:
    """The paper's running example."""
    from repro.core.scheduler import SMTScheduler

    return LibraryWorkload(
        "steane", inputs.paper_problem("steane"), oracle["paper-steane"], 48.0,
        SMTScheduler(), _certified_check,
    )


def anytime_hamming(oracle: dict) -> LibraryWorkload:
    from repro.core.scheduler import SMTScheduler

    return LibraryWorkload(
        "hamming", inputs.paper_problem("hamming"), oracle["anytime-hamming"], 22.0,
        SMTScheduler(deadline=HAMMING_DEADLINE_S), _anytime_check,
        deadline=HAMMING_DEADLINE_S,
    )


def _work_record(label: str, report, counters: dict | None) -> dict:
    """The machine-independent work one solve did."""
    stats = report.statistics
    record = {
        "input": label,
        "termination": report.termination,
        "stages": None if report.schedule is None else report.schedule.num_stages,
        "interval": [report.lower_bound, report.upper_bound],
        "probes": len(report.stages_tried),
        "max_horizon": max(report.stages_tried, default=0),
        "last_probe": {
            key: stats.get(f"sat_{key}")
            for key in ("conflicts", "propagations", "decisions", "variables", "clauses")
        },
    }
    if counters is not None:
        record["all_probes"] = counters
    return record


def run(workload: LibraryWorkload, seconds: float, tracer=None) -> Outcome:
    """Solve as often as ``seconds`` holds solves at the parent's speed, at
    least once."""
    outcome = Outcome()
    for _ in range(max(1, int(seconds // workload.solve_seconds))):
        began = time.perf_counter()
        _solve(workload, outcome, tracer)
        outcome.elapsed += time.perf_counter() - began
    _summarise(workload, outcome)
    return outcome


def _summarise(workload: LibraryWorkload, outcome: Outcome) -> None:
    """The workload-specific metrics of a library run."""
    reports = outcome.reports
    count = max(len(reports), 1)
    # A certified answer closes its interval; otherwise upper minus lower.
    gaps = [
        0 if r.termination == "certified" else r.upper_bound - r.lower_bound
        for r in reports
        if r.termination == "certified" or r.upper_bound is not None
    ]
    outcome.shown.update(
        {
            "certified_share": (
                sum(r.termination == "certified" for r in reports) / count, "share",
                f"of n={len(reports)}",
            ),
            "schedule_returned_share": (
                sum(r.schedule is not None for r in reports) / count, "share",
                f"of n={len(reports)}",
            ),
            "interval_gap_stages": (
                sum(gaps) / len(gaps) if gaps else float("nan"), "stages",
                f"mean upper minus lower bound at return, n={len(gaps)}",
            ),
        }
    )
    if workload.deadline is not None:
        over = [s - workload.deadline for s in outcome.tally.latencies]
        outcome.shown["deadline_overrun_s"] = (
            statistics.median(over), "s",
            f"median of n={len(over)}, deadline {workload.deadline:g} s",
        )


def _solve(workload: LibraryWorkload, outcome: Outcome, tracer) -> None:
    label, problem = workload.label, workload.problem
    before = None
    if tracer is not None:
        tracer.trace = label
        before = dict(tracer.counters)
    began = time.perf_counter()
    try:
        report = workload.scheduler.schedule(problem)
    except Exception as exc:  # a crash is a counted failure, not an abort
        outcome.tally.record(time.perf_counter() - began, [repr(exc)])
        return
    seconds_taken = time.perf_counter() - began
    try:
        problems = workload.check(report, problem, workload.expected)
    except Exception as exc:  # e.g. ValidationError
        problems = [repr(exc)]
    outcome.tally.record(seconds_taken, problems)
    outcome.reports.append(report)
    delta = None
    if tracer is not None:
        delta = {
            key: tracer.counters[key] - before[key]
            for key in ("probes", "conflicts", "propagations", "decisions")
        }
    outcome.work.append(_work_record(label, report, delta))
