"""Benchmark driver: one workload, one seed, one measurement window.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-steane --seed 1 --seconds 40 --trace 0

Workloads are listed in ``BENCHMARK.json`` with the reason each was
chosen.  The program under test is imported from ``src/`` and receives
only generated inputs; every answer is checked against ``oracle.json``.
The run prints a table of every metric (name, value, unit, direction,
sample count) and, as its last line, one JSON object with the gated
metrics.  ``--trace 0`` gives the end-to-end metrics, measured with no
wrappers installed; ``--trace 1`` wraps the layers' entry points from
outside and gives the per-layer metrics instead.  The exit code is 1 when
any answer is wrong, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("paper-steane", "service-mix", "anytime-hamming")
#: Fresh-process set-ups timed per run, half before the measured work and
#: half after it; their median is ``setup_s``.
SETUP_SAMPLES = 6

END_TO_END = {
    # name: (unit, better)
    "latency_p50_s": ("s", "lower"),
    "solve_p50_s": ("s", "lower"),
    "answers_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _library_factory(name: str):
    import library

    return {
        "paper-steane": library.paper_steane,
        "anytime-hamming": library.anytime_hamming,
    }[name]


# --------------------------------------------------------------------------- #
# Set-up: imports, input generation, scheduler or service construction
# --------------------------------------------------------------------------- #
def _set_up_once(workload: str) -> None:
    """Everything a user pays before the first answer (runs in a child)."""
    import oracle

    table = oracle.load()
    if workload == "service-mix":
        import asyncio

        import service_mix

        async def up_and_down() -> None:
            running = await service_mix.start()
            print("ready", flush=True)
            await running.aclose()

        asyncio.run(up_and_down())
        return
    _library_factory(workload)(table)
    print("ready", flush=True)


def measure_setup(workload: str, count: int) -> list[float]:
    """Wall times from process launch until the workload is ready."""
    samples = []
    for _ in range(count):
        command = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload]
        began = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - began)
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return samples


# --------------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------------- #
def layer_metrics(tracer, outcome, overhead_per_call: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: per answer, from spans and counters."""
    import service_mix
    import spans

    answers = max(len(outcome.tally.latencies), 1)
    own = spans.self_times(tracer.spans)
    c = tracer.counters
    roots = [s for s in tracer.spans if s.name == spans.ROOT]
    root_time = sum(s.seconds for s in roots)
    per = lambda value: value / answers  # noqa: E731
    metrics = {
        "sat.search_s": (per(own.get("sat.search", 0.0)), "s/answer"),
        "sat.conflicts": (per(c["conflicts"]), "count/answer"),
        "sat.propagations": (per(c["propagations"]), "count/answer"),
        "sat.decisions": (per(c["decisions"]), "count/answer"),
        "sat.propagations_per_s": (
            c["propagations"] / c["search_s"] if c["search_s"] else 0.0, "1/s"
        ),
        "smt.bitblast_s": (per(own.get("smt.bitblast", 0.0)), "s/answer"),
        "smt.variables": (c["variables"], "count"),
        "smt.clauses": (c["clauses"], "count"),
        "core.encoding.build_s": (per(own.get("core.encoding.build", 0.0)), "s/answer"),
        "core.encoding.extend_s": (per(own.get("core.encoding.extend", 0.0)), "s/answer"),
        "core.encoding.check_s": (per(own.get("core.encoding.check", 0.0)), "s/answer"),
        "core.encoding.extract_s": (per(own.get("core.encoding.extract", 0.0)), "s/answer"),
        "core.strategies.probes": (per(c["probes"]), "count/answer"),
        "core.strategies.max_horizon": (c["max_horizon"], "stages"),
        "core.strategies.decided_ratio": (
            c["decided"] / c["probes"] if c["probes"] else 0.0, "share"
        ),
        "core.strategies.control_s": (per(own.get(spans.ROOT, 0.0)), "s/answer"),
        "core.problem.bounds_s": (per(own.get("core.problem.bound_breakdown", 0.0)), "s/answer"),
        "core.structured.witness_s": (per(own.get("core.structured.witness", 0.0)), "s/answer"),
        "core.validator.validate_s": (per(own.get("core.validator.validate", 0.0)), "s/answer"),
        "core.budget.probe_overrun_s": (per(c["probe_overrun_s"]), "s/answer"),
        "core.canonical.key_s": (per(own.get("core.canonical.key", 0.0)), "s/answer"),
        "core.canonical.calls": (
            per(sum(s.name == "core.canonical.key" for s in tracer.spans)), "count/answer"
        ),
    }
    # Service layers, and the probes its answers report, are read from
    # outside; on the library workloads they stay at zero.
    for name, unit in service_mix.LAYERS.items():
        metrics.setdefault(name, (0.0, unit))
    metrics.update(outcome.layers)
    traced_wall = sum(outcome.tally.latencies)
    attributed = root_time - own.get(spans.ROOT, 0.0)
    overhead = overhead_per_call * sum(
        1 for s in tracer.spans if s.name not in ("smt.bitblast", "sat.search")
    )
    metrics.update(
        {
            "trace.coverage_share": (attributed / root_time if root_time else 0.0, "share"),
            "trace.overhead_share": (overhead / traced_wall if traced_wall else 0.0, "share"),
            "trace.latency_p50_s": (statistics.median(outcome.tally.latencies), "s"),
            "trace.spans": (len(tracer.spans), "count"),
        }
    )
    return metrics


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _print_table(title: str, rows) -> None:
    print(f"-- {title}")
    for name, value, unit, note in rows:
        print(f"   {name:34s} {value:>14.6g} {unit:12s} {note}")


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program source {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        _set_up_once(args.workload)
        return 0

    import oracle
    import stats

    setups = measure_setup(args.workload, SETUP_SAMPLES // 2)
    table = oracle.load()
    tracer = overhead_per_call = None
    if args.trace:
        import spans

        overhead_per_call = spans.per_call_overhead()
        tracer = spans.Tracer()
    try:
        if args.workload == "service-mix":
            import service_mix

            outcome = service_mix.run(args.seed, args.seconds, table, tracer)
        else:
            import library

            workload = _library_factory(args.workload)(table)
            if tracer is not None:
                tracer.install_library()
            outcome = library.run(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.close()

    setups += measure_setup(args.workload, SETUP_SAMPLES - len(setups))
    tally = outcome.tally
    latencies = tally.latencies
    # Every library answer is a solve; on the service, cache hits are not.
    solves = latencies if outcome.solve_latencies is None else outcome.solve_latencies
    tail_value, tail_label = stats.tail(latencies)
    n = len(latencies)
    end_to_end = {
        "latency_p50_s": (statistics.median(latencies), f"median of n={n}"),
        "solve_p50_s": (
            statistics.median(solves) if solves else float("nan"),
            f"median of the n={len(solves)} solved",
        ),
        "answers_per_s": (n / outcome.elapsed, f"{n} answers in {outcome.elapsed:.2f} s"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh processes"),
        "peak_rss_mb": (peak_rss_mb(), "max over this process and its children"),
    }
    # The tail is printed, not gated: one order statistic of a few dozen
    # answers moved by a quarter to a third between runs of identical work.
    shown = {"latency_tail_s": (tail_value, "s", tail_label), **outcome.shown}
    shown["failed_share"] = (tally.failed_share, "share", f"{tally.failed} of {tally.attempted}")

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    _print_table(
        "end-to-end (gated)",
        [(k, v, END_TO_END[k][0], f"{END_TO_END[k][1]} is better; {note}")
         for k, (v, note) in end_to_end.items()],
    )
    _print_table("workload-specific", [(k, v, u, note) for k, (v, u, note) in shown.items()])
    metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, (v, _) in end_to_end.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "end_to_end": end_to_end, "shown": shown, "latencies": latencies,
              "work": outcome.work,
              "failures": tally.failures}
    if tracer is not None:
        layers = layer_metrics(tracer, outcome, overhead_per_call)
        _print_table("per-layer (traced)", [(k, v, u, "") for k, (v, u) in layers.items()])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["per_layer"] = layers
    for failure in tally.failures[:10]:
        print(f"   FAILED: {failure}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")

    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
