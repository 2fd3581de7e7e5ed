"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``)."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import library  # noqa: E402
import oracle  # noqa: E402
import service_mix  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def take(iterator, count):
    return [next(iterator) for _ in range(count)]


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
def test_small_random_is_deterministic_per_seed():
    first = take(inputs.small_random_stream(7), 40)
    assert first == take(inputs.small_random_stream(7), 40)
    assert first != take(inputs.small_random_stream(8), 40)
    for circuit in first:
        assert 3 <= circuit.num_qubits <= 5 and 2 <= len(circuit.gates) <= 5
        assert len({tuple(sorted(g)) for g in circuit.gates}) == len(circuit.gates)


def test_service_traffic_is_deterministic_per_seed():
    first = service_mix.traffic("3/0")
    assert first == service_mix.traffic("3/0")
    assert first != service_mix.traffic("4/0")
    small, everything = service_mix.small_bases(), service_mix.bases()
    assert len(small) == service_mix.SMALL_BASES
    assert len(everything) == len(small) + len(service_mix.SYMMETRIC)
    # Every base in the same order, each small one followed by its relabeled
    # repeats: the bases, hence the work, do not depend on the seed.
    sends = {b.oracle_key: (1 if b not in small else service_mix.SENDS_PER_BASE)
             for b in everything}
    keys = [c.oracle_key for c in first]
    assert keys == [key for key, count in sends.items() for _ in range(count)]
    assert first[0] == everything[0]
    # Most requests repeat a small base: the median request is a cache hit.
    assert sum(count - 1 for count in sends.values()) > len(first) / 2


def test_relabeling_keeps_the_class():
    rng = random.Random(1)
    for circuit in take(inputs.small_random_stream(1), 20):
        copy = inputs.relabeled(rng, circuit)
        assert inputs.small_key(copy.layout, copy.num_qubits, copy.gates) == circuit.oracle_key


def test_oracle_covers_every_generated_input():
    table = oracle.load()
    for layout in inputs.LAYOUT_KINDS:
        for n, gates in inputs.small_classes():
            entry = table["small-random"][inputs.small_key(layout, n, gates)]
            assert entry["validated"] and entry["below_optimum"] in ("reference-unsat", "trivial")
        for name in inputs.symmetric_bases():
            assert f"{layout}|{name}" in table["symmetric"]
    assert table["paper-steane"]["optimum"] == 5


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def test_tail_is_nearest_rank_with_ten_samples_beyond():
    values = list(range(1, 31))  # 30 samples
    value, label = stats.tail(values)
    assert value == 20  # rank 20: exactly ten samples beyond it
    assert sum(v > value for v in values) == 10
    assert label == "p66.7 of n=30"
    assert stats.tail(list(range(1, 21)))[0] == 10
    # Below 20 samples no percentile at or above the median qualifies.
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, "max of n=3")


def test_self_time_subtracts_children_once():
    tree = [
        spans.Span("root", 0.0, 10.0, None, "t"),
        spans.Span("a", 1.0, 4.0, 0, "t"),
        spans.Span("b", 5.0, 9.0, 0, "t"),
        spans.Span("a.x", 1.5, 2.5, 1, "t"),
        spans.Span("a.y", 2.0, 3.0, 1, "t"),  # overlaps a.x: counted once
    ]
    own = spans.self_times(tree)
    assert own["root"] == pytest.approx(3.0)
    assert own["a"] == pytest.approx(1.5)
    assert own["b"] == pytest.approx(4.0)
    assert own["a.x"] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0 + 0.5)  # the overlap, counted in both leaves


def test_tracer_restores_what_it_wrapped():
    class Target:
        @staticmethod
        def call(x):
            return x + 1

    original = Target.__dict__["call"]
    tracer = spans.Tracer()
    tracer.wrap(Target, "call", "target")
    assert Target.call(1) == 2
    assert [s.name for s in tracer.spans] == ["target"]
    tracer.close()
    assert Target.__dict__["call"] is original


# --------------------------------------------------------------------------- #
# Failure accounting
# --------------------------------------------------------------------------- #
def test_wrong_optimum_counts_as_failed():
    from repro.core.scheduler import SMTScheduler

    circuit = inputs.Circuit("none", 2, ((0, 1),), "none|2|0-1")
    problem = inputs.reduced_problem(circuit)

    def outcome_for(optimum):
        workload = library.LibraryWorkload(
            "gate", problem, {"optimum": optimum}, 1.0, SMTScheduler(), library._certified_check
        )
        return library.run(workload, seconds=0.0).tally

    right, wrong = outcome_for(1), outcome_for(2)
    assert (right.attempted, right.failed) == (1, 0)
    assert (wrong.attempted, wrong.failed) == (1, 1)
    assert "expected 2" in wrong.failures[0]


def test_anytime_answer_other_than_deadline_or_certified_counts_as_failed():
    from repro.core.report import SchedulerReport

    expected = {"witness_stages": 47}
    problem = inputs.reduced_problem(inputs.Circuit("none", 2, ((0, 1),), "none|2|0-1"))
    for termination in ("backend-error", "infeasible"):
        report = SchedulerReport(schedule=None, optimal=False, termination=termination)
        assert library._anytime_check(report, problem, expected) == [
            f"termination {termination!r}"
        ]
    deadline = SchedulerReport(schedule=None, optimal=False, termination="deadline",
                               lower_bound=7)
    assert library._anytime_check(deadline, problem, expected) == []
    deadline.lower_bound = 48
    assert library._anytime_check(deadline, problem, expected)


def test_refused_request_counts_as_failed():
    refused = [{"error": "request queue is full"}]
    assert service_mix.check_answer(503, refused, {"optimum": 1}) == ["HTTP 503"]
    certified = [{"event": "result", "termination": "certified", "found": True,
                  "validated": True, "num_stages": 3}]
    assert service_mix.check_answer(200, certified, {"optimum": 3}) == []
    assert service_mix.check_answer(200, certified, {"optimum": 2})
    crashed = [{"event": "result", "termination": "backend-error", "found": False,
                "error": "worker crashed"}]
    assert service_mix.check_answer(200, crashed, {"optimum": 3})
    tally = stats.Tally()
    tally.record(0.1, [])
    tally.record(0.2, service_mix.check_answer(503, refused, {"optimum": 1}))
    assert (tally.attempted, tally.failed, tally.failed_share) == (2, 1, 0.5)
