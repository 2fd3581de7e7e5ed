"""Check that two runs at the same seed do exactly the same work.

Usage, from the root of a checkout::

    python3 perfbench/same_work.py --workload paper-steane --seed 1

Runs the traced benchmark twice and compares the per-answer work records
(probes, largest horizon, conflicts, propagations, decisions, variables,
clauses, verdict) over the answers both runs reached.  Exits 1 on any
difference.  The library workloads repeat exactly; ``service-mix`` answers
under a wall-clock deadline, so its verdicts may legitimately differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: str) -> list[dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "1"]
    subprocess.run(command, cwd=HERE.parent, check=True, stdout=subprocess.DEVNULL)
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    return record["work"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="40")
    args = parser.parse_args()
    first = one_run(args.workload, args.seed, args.seconds)
    second = one_run(args.workload, args.seed, args.seconds)
    common = min(len(first), len(second))
    differ = [i for i in range(common) if first[i] != second[i]]
    for i in differ[:5]:
        print(f"answer {i} differs:\n  {first[i]}\n  {second[i]}")
    print(f"{args.workload} seed {args.seed}: {common} answers compared, {len(differ)} differ")
    if common:
        print(f"first answer: {json.dumps(first[0])}")
    return 1 if differ or not common else 0


if __name__ == "__main__":
    sys.exit(main())
