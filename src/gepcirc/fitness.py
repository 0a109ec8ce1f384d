"""Pre-fitness functionals, parameter optimization, and problem binding.

A circuit's fitness is the maximum of its pre-fitness over the continuous
gate angles: the squared amplitude at each training pair's output index,
averaged over the pairs (FunctionFit), or minus the Hamiltonian
expectation (GroundState).
The optimizer is a deterministic coordinate sweep over a discrete angle
grid, optionally continued with each slot set to its exact continuous
maximum.

Slot k is the angle of the k-th free Ry gate in gate order (see ``sim``),
so every slot belongs to exactly one gate.

The sweep does not evaluate grid angles one by one. Ry(t) = cos(t/2) I +
sin(t/2) (-iY), so if psi is the state entering a slot's only gate and U
the gates after it, the output at angle t is cos(t/2) A + sin(t/2) B with
A = U psi and B = U (-iY psi). The pre-fitness is then exactly
a + b*cos(t) + c*sin(t), with (a, b, c) from <A|H|A>, <B|H|B> and
Re <A|H|B> (GroundState) or from A's amplitude at the output index, and
B's, for each training pair (FunctionFit); this is the Rotosolve/NFT
observation (Ostaszewski et al., arXiv:1905.09692; Nakanishi et al.,
arXiv:1903.12166) applied to the statevector. The gate kernels act on the
last axis, so a slot visit pushes psi and -iY psi, stacked as one (2, 2^N)
array, through U in one simulation of the gates after the slot and reads
the whole grid off (a, b, c), and also the exact maximum over all angles,
a + hypot(b, c) at t = atan2(c, b). A visit holds one stacked pair at a
time, twice the per-state working set of evaluating one angle, at every N.
Simulating U costs one kernel per 1-qubit gate and one gather per run of
CNOTs, a lone CNOT included (see ``sim``): slot gates are Ry, so no slot
splits a run, and the kept states' steps and suffixes (below) are parts of
the circuit that share its run tables, so each table is built once per
optimized circuit.

Nor does a visit simulate the gates before its slot. They do not change
during the visit, so the sweep keeps the state(s) entering that gate,
built once with the committed angles. Between visits the kept state moves
forward to the next slot's gate, or restarts from the input states when
the cycle wraps: read-only one-hot arrays, built once per problem and
held by it (``Problem.one_hots``).

The sweep starts from all angles at pi/4 rather than 0: for product-state
problems the all-zero point is a stationary saddle where no single-angle
change moves the pre-fitness, so a sweep seeded there cannot leave it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from gepcirc.engine import ConfigError, Gene, coding_length
from gepcirc.hamiltonians import PauliSumHamiltonian
from gepcirc.sim import (
    GateTable,
    QuantumCircuit,
    _apply_1q,
    _frozen,
    apply_circuit_array,
    canonicalize,
    check_basis_index,
    circuit_to_gene,
    gene_to_circuit,
)

DEFAULT_GRID = tuple(k * (math.pi / 4.0) for k in range(8))
# every slot starts here, itself a grid angle
_START_ANGLE = DEFAULT_GRID[1]
# the sweep stops after this many visits per slot at the latest
_MAX_SWEEP_CYCLES = 100

__all__ = [
    "DEFAULT_GRID", "Problem",
    "ground_state_problem", "function_fit_problem",
    "prefitness", "optimize_params", "CachingFitness",
]


@dataclass(frozen=True)
class Problem:
    """A fitness target. Every input is a basis state, held as its index:
    with ``outputs``, one index per input, FunctionFit; with a Hamiltonian
    and one input, the initial state, GroundState. ``refine`` continues
    the angle sweep with exact per-slot maxima once the grid sweep settles
    (see ``optimize_params``).
    """

    table: GateTable
    inputs: tuple[int, ...]
    outputs: tuple[int, ...] = ()
    hamiltonian: PauliSumHamiltonian | None = None
    refine: bool = False

    @property
    def n_bits(self) -> int:
        return self.table.n_bits

    @functools.cached_property
    def one_hots(self) -> tuple[np.ndarray, ...]:
        """The inputs as read-only one-hot arrays, built on first use and
        shared by every simulation of this problem: no kernel writes into
        its input. They live as long as the problem."""
        hots = []
        for index in self.inputs:
            amps = np.zeros(1 << self.n_bits, dtype=complex)
            amps[index] = 1.0
            hots.append(_frozen(amps))
        return tuple(hots)


def function_fit_problem(table: GateTable, pairs: Sequence[tuple[int, int]],
                         refine: bool = False) -> Problem:
    """Reproduce D >= 1 mappings of basis index ``input`` to ``output``."""
    if not pairs:
        raise ConfigError("FunctionFit needs at least one training pair")
    inputs, outputs = zip(*pairs)
    for index in inputs + outputs:
        check_basis_index(table.n_bits, index)
    return Problem(table, inputs, outputs, refine=refine)


def ground_state_problem(table: GateTable, hamiltonian: PauliSumHamiltonian,
                         initial: int = 0, refine: bool = False) -> Problem:
    """Minimize <H> over circuit outputs from basis state ``initial``."""
    if hamiltonian.n_bits != table.n_bits:
        raise ConfigError(
            f"Hamiltonian on {hamiltonian.n_bits} bits, "
            f"gate table on {table.n_bits}"
        )
    check_basis_index(table.n_bits, initial)
    return Problem(table, (initial,), hamiltonian=hamiltonian, refine=refine)


def prefitness(circuit: QuantumCircuit, params: Sequence[float],
               problem: Problem) -> float:
    """P(phi): mean |A[out]|^2 over the pairs (FunctionFit) or -<H>
    (GroundState), A the circuit's output; one pair at a time."""
    n = problem.n_bits
    evolved = (apply_circuit_array(amps, n, circuit, params)
               for amps in problem.one_hots)
    if not problem.outputs:
        return -problem.hamiltonian.expectation_array(next(evolved))
    total = 0.0
    for amps, out in zip(evolved, problem.outputs):
        total += float(abs(amps[out]) ** 2)
    return total / len(problem.outputs)


# -iY: Ry(t) = cos(t/2) * I + sin(t/2) * _MINUS_IY
_MINUS_IY = _frozen(np.array([[0, -1], [1, 0]], dtype=complex))
# values within this times 1 + |a| + |b| + |c| of each other tie: well
# above the ~1e-15 relative rounding of the sinusoid, so rounding noise
# decides no move
_TIE_MARGIN = 1e-12


class _KeptStates:
    """The states entering slot ``k``'s gate, one per problem input.

    They are built with the angles passed to ``move_to``, and ``sinusoid``
    is exact as long as slots 0..k-1 keep those angles. Visits walk the
    slots in gate order, so the gates are cut once per circuit into
    ``steps``, step k running from slot k-1's gate (or the start) up to
    slot k's gate, and ``suffixes``, suffix k being the gates after slot
    k's gate. Moving forward applies the steps in between; moving back
    restarts from the problem's shared one-hot inputs.
    """

    def __init__(self, circuit: QuantumCircuit, problem: Problem):
        self.problem = problem
        gates = circuit.gates
        # slot -> index of its gate
        gate_of = [i for i, gate in enumerate(gates) if gate.free]
        self.qubits = [gates[i].qubits[0] for i in gate_of]
        # parts of the circuit: a CNOT run is tabled once for all of them
        self.steps = [circuit.part(start, stop) for start, stop
                      in zip([0] + gate_of, gate_of)]
        self.suffixes = [circuit.part(i + 1) for i in gate_of]
        self.k = -1
        self.states = problem.one_hots

    def move_to(self, k: int, phi: Sequence[float]) -> None:
        """Keep the states entering slot ``k``'s gate."""
        if k < self.k:
            self.k, self.states = -1, self.problem.one_hots
        n = self.problem.n_bits
        for j in range(self.k + 1, k + 1):
            step = self.steps[j]
            if step.gates:
                # step j starts at slot j-1's gate
                params = phi[max(j - 1, 0):]
                self.states = [apply_circuit_array(amps, n, step, params)
                               for amps in self.states]
        self.k = k

    def sinusoid(self, phi: Sequence[float]) -> tuple[float, float, float]:
        """(a, b, c) with pre-fitness a + b*cos(t) + c*sin(t) when slot
        ``k`` has angle t and every other slot its angle in ``phi``.

        Each kept state psi and -iY psi, stacked as one (2, 2^N) array,
        go through the gates after slot ``k``'s gate in one simulation.
        """
        problem, k = self.problem, self.k

        def outputs(amps: np.ndarray) -> np.ndarray:
            """(A, B) for one kept state psi."""
            # unnamed, -iY psi is freed once copied and the pair once its
            # first gate has run: at NumBits = 24 one state is 256 MB
            return apply_circuit_array(
                np.array((amps, _apply_1q(amps, _MINUS_IY, self.qubits[k]))),
                problem.n_bits, self.suffixes[k], phi[k + 1:])

        outs = map(outputs, self.states)
        if not problem.outputs:
            # -<x|H'|x> at x = cos(t/2) A + sin(t/2) B
            aa, bb, ab = problem.hamiltonian.pair_elements(*next(outs))
            return -0.5 * (aa + bb), -0.5 * (aa - bb), -ab
        # |cos(t/2) alpha + sin(t/2) beta|^2 per pair, alpha = A[out]
        aa = bb = ab = 0.0
        for pair, out in zip(outs, problem.outputs):
            alpha, beta = pair[0, out], pair[1, out]
            aa += abs(alpha) ** 2
            bb += abs(beta) ** 2
            ab += (alpha.conjugate() * beta).real
        d = len(problem.outputs)
        return 0.5 * (aa + bb) / d, 0.5 * (aa - bb) / d, ab / d


def optimize_params(circuit: QuantumCircuit, problem: Problem
                    ) -> tuple[tuple[float, ...], float]:
    """Best angle vector and its pre-fitness, deterministically.

    Coordinate-wise sweep over ``DEFAULT_GRID``, visiting slots 0..K-1,
    the free Ry gates in gate order, cyclically from all angles at pi/4.
    A visit costs one simulation of the gates after the slot's gate, on
    the stacked pair (see the module docstring), which gives (a, b, c)
    and from them every grid angle's value. Values within ``_TIE_MARGIN`` times 1 + |a| + |b| + |c| tie.
    If the best grid value beats the current angle's by more than that,
    the slot moves to the first grid angle that ties with the best.
    Otherwise, on its first such visit, it moves sideways, to the next
    grid angle after the current one, cyclically, that ties with the best:
    a flat slot, one the other gates make irrelevant for now, thus leaves
    a stationary angle such as 0 or pi, so the slots visited after it can
    find improvements, and as each slot moves sideways at most once, the
    sweep cannot cycle. Any move counts as a change; the sweep settles
    K - 1 visits after the last change.

    With ``problem.refine`` the visits then go on, and each sets its slot
    to the exact maximum t = atan2(c, b) when a + hypot(b, c) beats the
    current angle's value by more than the margin; this phase too ends
    K - 1 visits after its last change. Either way the sweep stops after
    ``_MAX_SWEEP_CYCLES * K`` visits at the latest. The value returned is
    one direct pre-fitness evaluation at the final angles.
    """
    k_slots = circuit.n_params
    trig = [(math.cos(t), math.sin(t)) for t in DEFAULT_GRID]
    kept = _KeptStates(circuit, problem)
    phi = [_START_ANGLE] * k_slots
    walked: set[int] = set()    # slots that have had their sideways move
    exact = False   # past the grid sweep, setting slots to atan2(c, b)
    settled = 0     # slots at their optimum: the last changed one and every
                    # slot visited since
    for visit in range(_MAX_SWEEP_CYCLES * k_slots):
        k = visit % k_slots
        kept.move_to(k, phi)
        current = phi[k]
        a, b, c = kept.sinusoid(phi)
        now = a + b * math.cos(current) + c * math.sin(current)
        margin = _TIE_MARGIN * (1.0 + abs(a) + abs(b) + abs(c))
        if exact:
            if a + math.hypot(b, c) > now + margin:
                phi[k] = math.atan2(c, b)
        else:
            values = [a + b * cos_t + c * sin_t for cos_t, sin_t in trig]
            top = max(values)
            tied = [j for j, value in enumerate(values)
                    if value >= top - margin]
            if top > now + margin:
                phi[k] = DEFAULT_GRID[tied[0]]
            elif k not in walked:
                # grid moves only: the current angle is a grid angle
                after = DEFAULT_GRID.index(current) + 1
                phi[k] = DEFAULT_GRID[min(
                    tied, key=lambda j: (j - after) % len(DEFAULT_GRID))]
                walked.add(k)
        settled = 1 if phi[k] != current else settled + 1
        if settled == k_slots:
            if exact or not problem.refine:
                break
            exact, settled = True, 0
    return tuple(phi), prefitness(circuit, phi, problem)


class CachingFitness:
    """The fitness of a genome, F = P(phi_max) of the circuit it decodes to.

    Fitness and the optimizing angles (needed when reporting winners)
    depend on the coding region alone, and the canonical gene on the coding
    region and the head length, so each is computed once per key: genes
    that differ only in non-coding symbols share them. Nothing kept holds a
    circuit, whose CNOT-run tables would then live as long as the store:
    callers that need one decode it again.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self._optimized = {}    # coding region -> (angles, fitness)
        self._canonical = {}    # (coding region, head length) -> gene

    def _optimum(self, gene: Gene) -> tuple[tuple[float, ...], float]:
        coding = gene.symbols[:coding_length(gene)]
        optimum = self._optimized.get(coding)
        if optimum is None:
            circuit = gene_to_circuit(gene, self.problem.table)
            optimum = self._optimized[coding] = optimize_params(
                circuit, self.problem)
        return optimum

    def __call__(self, gene: Gene) -> float:
        return self._optimum(gene)[1]

    def params_for(self, gene: Gene) -> tuple[float, ...]:
        """Optimizing angle vector for a genome (computing it if needed)."""
        return self._optimum(gene)[0]

    def canonical(self, gene: Gene) -> Gene:
        """The genome rewritten to its canonical circuit (``sim.canonicalize``)
        at its own head length, computed once per coding region and head
        length: as ``run_evolution``'s hook it does what ``Canonicalize = 1``
        does."""
        key = (gene.symbols[:coding_length(gene)], gene.head_len)
        canon = self._canonical.get(key)
        if canon is None:
            table = self.problem.table
            circuit = canonicalize(gene_to_circuit(gene, table))
            canon = self._canonical[key] = circuit_to_gene(
                circuit, table, gene.head_len)
        return canon
