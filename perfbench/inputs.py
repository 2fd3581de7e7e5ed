"""Seeded inputs of the benchmark workloads.

Everything here is plain data (qubit counts, gate lists, layout kinds), so
the program under test only ever receives generated inputs, never the
seed.  Each input carries an ``oracle_key`` naming its isomorphism class;
``oracle.json`` maps every key the generators can produce to its certified
optimum.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

#: Layout kinds of the reduced architectures (``REDUCED_LAYOUT_KWARGS``).
LAYOUT_KINDS = ("none", "bottom")
#: Qubit and gate ranges of the ``small-random`` generator.
QUBIT_RANGE = (3, 5)
GATE_RANGE = (2, 5)

Gate = tuple[int, int]


@dataclass(frozen=True)
class Circuit:
    """One scheduling input: a CZ gate list on a reduced layout."""

    layout: str
    num_qubits: int
    gates: tuple[Gate, ...]
    oracle_key: str

    def document(self) -> dict:
        """The service request body for this circuit (no deadline)."""
        from repro.evaluation.runner import REDUCED_LAYOUT_KWARGS

        return {
            "num_qubits": self.num_qubits,
            "gates": [list(gate) for gate in self.gates],
            "layout": {"kind": self.layout, **REDUCED_LAYOUT_KWARGS},
        }


def canonical_edges(num_qubits: int, gates) -> str:
    """Canonical text of a simple graph on at most 5 qubits (brute force).

    The lexicographically smallest sorted edge list over all qubit
    permutations; independent of the program's own canonicaliser.
    """
    if num_qubits > 6:
        raise ValueError("brute-force canonical form is for tiny graphs only")
    best = None
    for perm in itertools.permutations(range(num_qubits)):
        edges = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in gates)
        if best is None or edges < best:
            best = edges
    return ",".join(f"{a}-{b}" for a, b in best)


def small_key(layout: str, num_qubits: int, gates) -> str:
    return f"{layout}|{num_qubits}|{canonical_edges(num_qubits, gates)}"


def small_classes() -> list[tuple[int, tuple[Gate, ...]]]:
    """One representative per isomorphism class the generator can emit."""
    classes = {}
    for n in range(QUBIT_RANGE[0], QUBIT_RANGE[1] + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(GATE_RANGE[0], min(GATE_RANGE[1], len(pairs)) + 1):
            for edges in itertools.combinations(pairs, m):
                classes.setdefault((n, canonical_edges(n, edges)), tuple(edges))
    return [(n, edges) for (n, _), edges in sorted(classes.items())]


def symmetric_bases() -> dict[str, tuple[int, tuple[Gate, ...]]]:
    """Disjoint unions of 4-5 CZ pairs and 2-3 triangles."""
    bases = {}
    for k in (4, 5):
        bases[f"pairs-{k}"] = (2 * k, tuple((2 * i, 2 * i + 1) for i in range(k)))
    for k in (2, 3):
        bases[f"triangles-{k}"] = (
            3 * k,
            tuple(
                gate
                for i in range(k)
                for gate in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2), (3 * i, 3 * i + 2))
            ),
        )
    return bases


def relabel(rng: random.Random, num_qubits: int, gates) -> tuple[Gate, ...]:
    """A random qubit relabeling with shuffled gate order and orientation."""
    perm = list(range(num_qubits))
    rng.shuffle(perm)
    relabeled = [
        (perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a]) for a, b in gates
    ]
    rng.shuffle(relabeled)
    return tuple(relabeled)


def small_random(rng: random.Random) -> Circuit:
    """One random ``small-random`` circuit: 3-5 qubits, 2-5 distinct CZ gates."""
    n = rng.randint(*QUBIT_RANGE)
    pairs = list(itertools.combinations(range(n), 2))
    m = min(rng.randint(*GATE_RANGE), len(pairs))
    layout = rng.choice(LAYOUT_KINDS)
    gates = relabel(rng, n, rng.sample(pairs, m))
    return Circuit(layout, n, gates, small_key(layout, n, gates))


def small_random_stream(seed: int):
    """The endless ``small-random`` sequence of generator *seed*."""
    rng = random.Random(f"small-random/{seed}")
    while True:
        yield small_random(rng)


def symmetric(rng: random.Random, name: str, layout: str) -> Circuit:
    """A random relabeling of one symmetric base."""
    n, gates = symmetric_bases()[name]
    return Circuit(layout, n, relabel(rng, n, gates), f"{layout}|{name}")


def relabeled(rng: random.Random, circuit: Circuit) -> Circuit:
    """An isomorphic copy of *circuit* (same oracle key)."""
    gates = relabel(rng, circuit.num_qubits, circuit.gates)
    return Circuit(circuit.layout, circuit.num_qubits, gates, circuit.oracle_key)


def paper_problem(code: str):
    """The paper's state-preparation problem of *code* on Layout (2)."""
    from repro.arch import bottom_storage_layout
    from repro.core.problem import SchedulingProblem
    from repro.qec import get_code
    from repro.qec.state_prep import state_preparation_circuit

    circuit = state_preparation_circuit(get_code(code))
    return SchedulingProblem.from_circuit(bottom_storage_layout(), circuit)


def reduced_problem(circuit: Circuit):
    """The :class:`SchedulingProblem` of a reduced-layout circuit."""
    from repro.arch import reduced_layout
    from repro.core.problem import SchedulingProblem
    from repro.evaluation.runner import REDUCED_LAYOUT_KWARGS

    architecture = reduced_layout(circuit.layout, **REDUCED_LAYOUT_KWARGS)
    return SchedulingProblem.from_gates(architecture, circuit.num_qubits, circuit.gates)
