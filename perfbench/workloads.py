"""Benchmark workloads: seeded input files, independent references, checks.

Each workload turns (workload seed, instance number) into one input
directory the program reads through `gepcirc.cli.parse_input`. The
references used by the checks (MaxCut optimum, Heisenberg ground energy,
training-pair overlaps) are computed here with plain numpy and share no
code with the program's simulator, expectation or oracle paths.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gepcirc.sim import parse_circuit

TOL_FIT = 1e-9      # re-simulated fitness vs the fitness best.circ lists
TOL_BOUND = 1e-8    # variational bound slack
ARTIFACTS = ("trace.csv", "best.circ", "maxcut.txt")


@dataclass
class Instance:
    """One problem instance x one GEP seed, written as an input file."""

    name: str
    input_path: Path
    n_bits: int
    kind: str                              # "GroundState" or "FunctionFit"
    bound: float                           # best fitness may not exceed this
    diag: np.ndarray | None = None         # MaxCut: <b|H|b> per basis state
    dense: np.ndarray | None = None        # Heisenberg: dense real H
    pairs: list[tuple[int, int]] = field(default_factory=list)
    max_cut: int | None = None
    max_cut_states: frozenset[int] = frozenset()


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

def _instance_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _random_connected_graph(n: int, rng: random.Random
                            ) -> list[tuple[int, int]]:
    """Random spanning tree plus each remaining edge with probability 0.35."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and rng.random() < 0.35:
                edges.add((a, b))
    return sorted(edges)


def _cut_values(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    idx = np.arange(1 << n)
    cuts = np.zeros(1 << n, dtype=np.int64)
    for i, j in edges:
        cuts += ((idx >> i) ^ (idx >> j)) & 1
    return cuts


def _maxcut8(seed: int, k: int, directory: Path) -> Instance:
    rng = _instance_rng("maxcut8", seed, k)
    n = 8
    edges = _random_connected_graph(n, rng)
    cuts = _cut_values(n, edges)
    best = int(cuts.max())
    optimum = float(2 * best - len(edges))      # -E_min; E(b) = |E| - 2 cut(b)
    (directory / "graph.txt").write_text(
        f"n {n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    (directory / "in.txt").write_text(f"""\
RunType = GroundState
NumBits = {n}
Gates = Ry
HeadSize = 8
Population = 60
Generations = 20
Seed = {rng.randrange(1 << 30)}
GraphFile = graph.txt
EarlyStopFitness = {optimum - 1e-6!r}
""")
    return Instance(
        f"maxcut8/{k}", directory / "in.txt", n, "GroundState", optimum,
        diag=(len(edges) - 2 * cuts).astype(float), max_cut=best,
        max_cut_states=frozenset(np.nonzero(cuts == best)[0].tolist()))


@functools.cache
def heisenberg_reference(rows: int, cols: int) -> tuple[np.ndarray, float]:
    """Dense real H = sum over grid bonds of XX+YY+ZZ, and its ground energy.

    Built in the spin-exchange form: ZZ is +1/-1 on (anti)aligned bits and
    XX+YY maps |01> <-> |10> with weight 2, so no Pauli matrices are used.
    """
    dim = 1 << (rows * cols)
    bonds = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    bonds += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    h = np.zeros((dim, dim))
    idx = np.arange(dim)
    for i, j in bonds:
        differ = ((idx >> i) ^ (idx >> j)) & 1
        h[idx, idx] += 1.0 - 2.0 * differ
        src = idx[differ == 1]
        h[src ^ ((1 << i) | (1 << j)), src] += 2.0
    return h, float(np.linalg.eigvalsh(h)[0])


def _heisenberg3x3(seed: int, k: int, directory: Path) -> Instance:
    rng = _instance_rng("heisenberg3x3", seed, k)
    dense, e0 = heisenberg_reference(3, 3)
    (directory / "in.txt").write_text(f"""\
RunType = GroundState
NumBits = 9
Gates = Ry,P,CNOT
HeadSize = 6
Population = 30
Generations = 12
Seed = {rng.randrange(1 << 30)}
Hamiltonian = heisenberg2d:3,3
Canonicalize = 1
""")
    return Instance(f"heisenberg3x3/{k}", directory / "in.txt", 9,
                    "GroundState", -e0, dense=dense)


def _gray_low5(index: int) -> int:
    """Gray code of the low 5 bits; four CNOTs realise it, so a head of 8
    can reach the exact map."""
    low = index & 31
    return (index & ~31) | (low ^ (low >> 1))


def _funcfit12(seed: int, k: int, directory: Path) -> Instance:
    rng = _instance_rng("funcfit12", seed, k)
    n = 12
    # Two distinct low-5-bit patterns from each quarter of their range, high
    # bits at random: drawing all 12 bits at random lets instances differ in
    # how many pairs the map leaves fixed, which swings the mean best
    # fitness of a run by about 20% between seeds.
    lows = [quarter * 8 + low for quarter in range(4)
            for low in rng.sample(range(8), 2)]
    pairs = [(b, _gray_low5(b))
             for b in ((rng.randrange(1 << (n - 5)) << 5) | low
                       for low in lows)]
    (directory / "pairs.txt").write_text("".join(
        f"{a:0{n}b} -> {b:0{n}b}\n" for a, b in pairs))
    (directory / "in.txt").write_text(f"""\
RunType = FunctionFit
NumBits = {n}
Gates = Ry,CNOT
HeadSize = 8
Population = 30
Generations = 1
Seed = {rng.randrange(1 << 30)}
TrainingPairs = pairs.txt
""")
    return Instance(f"funcfit12/{k}", directory / "in.txt", n, "FunctionFit",
                    1.0, pairs=pairs)


WORKLOADS = {
    "maxcut8": (_maxcut8, 8),
    "heisenberg3x3": (_heisenberg3x3, 9),
    "funcfit12": (_funcfit12, 12),
}


def make_instance(workload: str, seed: int, k: int, root: Path) -> Instance:
    """Write instance k of a workload under root and describe it."""
    directory = root / str(k)
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload][0](seed, k, directory)


# ---------------------------------------------------------------------------
# Independent re-simulation and output checks
# ---------------------------------------------------------------------------

_ONE_QUBIT = {
    "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


def _matrix(name: str, angle: float | None) -> np.ndarray:
    if name == "Ry":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -s], [s, c]])
    if name == "P":
        return np.diag([1.0, complex(math.cos(angle), math.sin(angle))])
    return _ONE_QUBIT[name]


def simulate(text: str, n_bits: int, start: int) -> np.ndarray:
    """Apply a bound circuit string to basis state |start>, by index pairs."""
    circuit = parse_circuit(text, n_bits)
    psi = np.zeros(1 << n_bits, dtype=complex)
    psi[start] = 1.0
    idx = np.arange(1 << n_bits)
    for gate in circuit.gates:
        if gate.kind.name == "CNOT":
            ctrl, tgt = gate.qubits
            lo = idx[((idx >> ctrl) & 1 == 1) & ((idx >> tgt) & 1 == 0)]
            hi = lo | (1 << tgt)
            psi[lo], psi[hi] = psi[hi], psi[lo].copy()
            continue
        (q,) = gate.qubits
        m = _matrix(gate.kind.name, gate.angle)
        lo = idx[(idx >> q) & 1 == 0]
        hi = lo | (1 << q)
        a, b = psi[lo], psi[hi]
        psi[lo], psi[hi] = m[0, 0] * a + m[0, 1] * b, m[1, 0] * a + m[1, 1] * b
    return psi


def circuit_fitness(inst: Instance, text: str) -> float:
    """Fitness of a bound circuit string, computed without the program."""
    if inst.kind == "FunctionFit":
        total = 0.0
        for src, dst in inst.pairs:
            total += abs(simulate(text, inst.n_bits, src)[dst]) ** 2
        return total / len(inst.pairs)
    psi = simulate(text, inst.n_bits, 0)
    if inst.diag is not None:
        return -float(np.dot(inst.diag, np.abs(psi) ** 2))
    return -float(np.real(np.vdot(psi, inst.dense @ psi)))


@dataclass
class Outcome:
    best_fitness: float
    generations: int
    solved: bool
    digest: str
    errors: list[str]


def check_outputs(inst: Instance, exit_code: int) -> Outcome:
    """Read the artifacts of one run and check them against the references."""
    errors: list[str] = []
    directory = inst.input_path.parent
    if exit_code not in (0, 3):
        errors.append(f"exit code {exit_code}")
    digest = hashlib.sha256()
    for name in ARTIFACTS:
        path = directory / name
        if path.exists():
            digest.update(name.encode() + b"\0" + path.read_bytes())
    rows = (directory / "trace.csv").read_text().splitlines()[1:]
    best_col = [float(r.split(",")[1]) for r in rows]
    if not best_col:
        errors.append("trace.csv has no generations")
        return Outcome(float("nan"), 0, False, digest.hexdigest(), errors)
    if any(b < a for a, b in zip(best_col, best_col[1:])):
        errors.append("trace best_fitness decreases")
    best = best_col[-1]
    if best > inst.bound + TOL_BOUND:
        errors.append(f"best fitness {best!r} exceeds bound {inst.bound!r}")
    lines = (directory / "best.circ").read_text().splitlines()
    if not lines or float(lines[0].split("\t")[0]) != best:
        errors.append("best.circ does not lead with the final best fitness")
    for line in lines:
        listed, text = line.split("\t")
        again = circuit_fitness(inst, text)
        if abs(again - float(listed)) > TOL_FIT:
            errors.append(f"best.circ {text!r}: listed {listed}, "
                          f"re-simulated {again!r}")
    solved = exit_code == 3 and best >= inst.bound - 1e-6
    if inst.max_cut is not None and solved:
        cut_rows = (directory / "maxcut.txt").read_text().splitlines()[1:]
        if not cut_rows:
            errors.append("solved but maxcut.txt is empty")
        for row in cut_rows:
            bits, _, cut, _, _ = row.split()
            if (int(bits, 2) not in inst.max_cut_states
                    or int(cut) != inst.max_cut):
                errors.append(f"maxcut.txt row {bits} is not a maximum cut")
    return Outcome(best, len(best_col), solved, digest.hexdigest(), errors)
