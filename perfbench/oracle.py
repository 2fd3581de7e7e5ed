"""Expected answers for every benchmark input, and how they were checked.

``oracle.json`` is committed.  Regenerate it with::

    python3 perfbench/oracle.py

Every optimum is checked twice without trusting the search that found it:
the schedule at the optimum passes ``validate_schedule``, and the
independent ``reference`` SAT backend proves the horizon one below the
optimum UNSAT (an optimum of 1 needs no proof: no gate fits in 0 stages).
``anytime-hamming`` has no known optimum; its entry records the stage
count of a validated structured witness, which no sound lower bound may
exceed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import inputs

ORACLE_PATH = Path(__file__).with_name("oracle.json")


def load() -> dict:
    return json.loads(ORACLE_PATH.read_text())


def _certify(problem) -> dict:
    from repro.core.encoding import encode_problem
    from repro.core.scheduler import SMTScheduler
    from repro.core.validator import validate_schedule
    from repro.smt import CheckResult

    report = SMTScheduler().schedule(problem)
    if report.termination != "certified" or report.schedule is None:
        raise RuntimeError(f"not certified: {report.termination}")
    optimum = report.schedule.num_stages
    validate_schedule(report.schedule, require_shielding=problem.shielding)
    below = "trivial"
    if optimum > 1:
        check = encode_problem(problem, optimum - 1, backend="reference").check()
        if check is not CheckResult.UNSAT:
            raise RuntimeError(f"reference backend says {check} at {optimum - 1}")
        below = "reference-unsat"
    return {"optimum": optimum, "validated": True, "below_optimum": below}


def _hamming_witness() -> dict:
    from repro.core.strategies.bisection import structured_upper_bound
    from repro.core.validator import validate_schedule

    problem = inputs.paper_problem("hamming")
    witness = structured_upper_bound(problem)
    validate_schedule(witness, require_shielding=problem.shielding)
    return {"witness_stages": witness.num_stages, "validated": True}


def generate() -> dict:
    small, symmetric = {}, {}
    for layout in inputs.LAYOUT_KINDS:
        for n, gates in inputs.small_classes():
            circuit = inputs.Circuit(layout, n, gates, inputs.small_key(layout, n, gates))
            small[circuit.oracle_key] = _certify(inputs.reduced_problem(circuit))
            print(circuit.oracle_key, small[circuit.oracle_key], file=sys.stderr)
        for name, (n, gates) in inputs.symmetric_bases().items():
            circuit = inputs.Circuit(layout, n, gates, f"{layout}|{name}")
            symmetric[circuit.oracle_key] = _certify(inputs.reduced_problem(circuit))
            print(circuit.oracle_key, symmetric[circuit.oracle_key], file=sys.stderr)
    return {
        "paper-steane": _certify(inputs.paper_problem("steane")),
        "anytime-hamming": _hamming_witness(),
        "small-random": small,
        "symmetric": symmetric,
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.monotonic()
    document = generate()
    ORACLE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ORACLE_PATH} in {time.monotonic() - start:.0f} s", file=sys.stderr)
