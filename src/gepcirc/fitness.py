"""Pre-fitness functionals, parameter optimization, and problem binding.

A circuit's fitness is the maximum of its pre-fitness over the continuous
gate angles: overlap-squared with target states averaged over training
pairs (FunctionFit), or minus the Hamiltonian expectation (GroundState).
The optimizer is a deterministic coordinate sweep over a discrete angle
grid, optionally followed by gradient ascent with central finite
differences.

The sweep does not evaluate grid angles one by one. Ry(t) = cos(t/2) I +
sin(t/2) (-iY), so if psi is the state entering a slot's only gate and U
the gates after it, the output at angle t is cos(t/2) A + sin(t/2) B with
A = U psi and B = U (-iY psi). The pre-fitness is then exactly
a + b*cos(t) + c*sin(t), with (a, b, c) from <A|H|A>, <B|H|B> and
Re <A|H|B> (GroundState) or from the overlaps <o|A> and <o|B> of each
training pair (FunctionFit); this is the Rotosolve/NFT observation
(Ostaszewski et al., arXiv:1905.09692; Nakanishi et al., arXiv:1903.12166)
applied to the statevector. psi and -iY psi stored end to end form one
array on N+1 bits, on which no gate acts on bit N, so a slot visit pushes
both through U in one simulation of the gates after the slot and reads
the whole grid off (a, b, c). A visit holds one stacked 2*2^N array at a
time, twice the per-state working set of evaluating one angle, which
matters only at large N.

Nor does a visit simulate the gates before its slot. They do not change
during the visit, so the sweep keeps the state(s) entering that gate,
built once with the committed angles. Between visits the kept state moves
forward to the next slot's first gate, or is rebuilt from the input
states when that gate comes earlier (the cycle wrapping, or slots used out
of gate order).

The sweep starts from all angles at pi/4 rather than 0: for product-state
problems the all-zero point is a stationary saddle where no single-angle
change moves the pre-fitness, so a sweep seeded there cannot leave it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from gepcirc.engine import ConfigError, Gene
from gepcirc.hamiltonians import PauliSumHamiltonian
from gepcirc.sim import (
    MAX_QUBITS,
    GateInstance,
    GateTable,
    QuantumCircuit,
    StateVector,
    _apply_1q,
    _frozen,
    apply_circuit_array,
    basis_state,
    gene_to_circuit,
)

DEFAULT_GRID = tuple(k * (math.pi / 4.0) for k in range(8))

__all__ = [
    "DEFAULT_GRID", "OptimizerSettings", "Problem",
    "ground_state_problem", "function_fit_problem",
    "prefitness", "optimize_params", "CachingFitness",
]


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for the angle search.

    The grid defaults to the eight multiples of pi/4 in [0, 2*pi);
    ``refine`` switches on the finite-difference gradient ascent.
    """

    grid: tuple[float, ...] = DEFAULT_GRID
    refine: bool = False
    fd_step: float = 1e-4
    max_refine_iters: int = 100
    tolerance: float = 1e-8
    start_angle: float = math.pi / 4.0
    max_sweep_cycles: int = 100

    def __post_init__(self) -> None:
        if not self.grid:
            raise ConfigError("angle grid must be non-empty")
        if not all(map(math.isfinite, (*self.grid, self.start_angle))):
            raise ConfigError("grid and start angles must be finite")
        if self.fd_step <= 0.0:
            raise ConfigError("finite-difference step must be positive")
        if self.max_refine_iters < 0 or self.max_sweep_cycles < 1:
            raise ConfigError("iteration caps out of range")


@dataclass(frozen=True)
class Problem:
    """A fitness target: training pairs or a Hamiltonian plus start state."""

    kind: str                   # "FunctionFit" or "GroundState"
    table: GateTable
    settings: OptimizerSettings = OptimizerSettings()
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    hamiltonian: PauliSumHamiltonian | None = None
    initial: np.ndarray | None = None

    @property
    def n_bits(self) -> int:
        return self.table.n_bits

    @property
    def inputs(self) -> tuple[np.ndarray, ...]:
        """The states a circuit acts on: one per training pair, or the
        initial state."""
        if self.kind == "FunctionFit":
            return tuple(amps_in for amps_in, _ in self.pairs)
        return (self.initial,)


def function_fit_problem(
    table: GateTable,
    pairs: Sequence[tuple[StateVector, StateVector]],
    settings: OptimizerSettings = OptimizerSettings(),
) -> Problem:
    """Reproduce D input -> output state mappings (D >= 1)."""
    if not pairs:
        raise ConfigError("FunctionFit needs at least one training pair")
    for s_in, s_out in pairs:
        if s_in.n_bits != table.n_bits or s_out.n_bits != table.n_bits:
            raise ConfigError(
                f"training pair on {s_in.n_bits}/{s_out.n_bits} bits, "
                f"gate table on {table.n_bits}"
            )
    raw = tuple((p.amplitudes, q.amplitudes) for p, q in pairs)
    return Problem("FunctionFit", table, settings, pairs=raw)


def ground_state_problem(
    table: GateTable,
    hamiltonian: PauliSumHamiltonian,
    initial_state: StateVector | None = None,
    settings: OptimizerSettings = OptimizerSettings(),
) -> Problem:
    """Minimize <H> over circuit outputs from one initial state."""
    if hamiltonian.n_bits != table.n_bits:
        raise ConfigError(
            f"Hamiltonian on {hamiltonian.n_bits} bits, "
            f"gate table on {table.n_bits}"
        )
    if initial_state is None:
        initial_state = basis_state(table.n_bits, 0)
    elif initial_state.n_bits != table.n_bits:
        raise ConfigError(
            f"initial state on {initial_state.n_bits} bits, "
            f"gate table on {table.n_bits}"
        )
    return Problem("GroundState", table, settings,
                   hamiltonian=hamiltonian, initial=initial_state.amplitudes)


def _score(circuit: QuantumCircuit, params: Sequence[float], problem: Problem,
           states: Sequence[np.ndarray]) -> float:
    """Pre-fitness of ``circuit`` run on ``states``, which stand in for
    ``problem.inputs`` (one per training pair, scored one at a time)."""
    n = problem.n_bits
    if problem.kind == "FunctionFit":
        total = 0.0
        for amps_in, (_, amps_out) in zip(states, problem.pairs):
            evolved = apply_circuit_array(amps_in, n, circuit, params)
            total += float(abs(np.vdot(amps_out, evolved)) ** 2)
        return total / len(problem.pairs)
    evolved = apply_circuit_array(states[0], n, circuit, params)
    return -problem.hamiltonian.expectation_array(evolved)


def prefitness(circuit: QuantumCircuit, params: Sequence[float],
               problem: Problem) -> float:
    """P(phi): mean squared overlap (FunctionFit) or -<H> (GroundState)."""
    return _score(circuit, params, problem, problem.inputs)


def _fd_gradient(pf: Callable[[list[float]], float], phi: list[float],
                 step: float) -> list[float]:
    grad = []
    for k in range(len(phi)):
        orig = phi[k]
        phi[k] = orig + step
        up = pf(phi)
        phi[k] = orig - step
        down = pf(phi)
        phi[k] = orig
        grad.append((up - down) / (2.0 * step))
    return grad


def _gradient_refine(pf: Callable[[list[float]], float], phi: list[float],
                     best: float, settings: OptimizerSettings) -> tuple[list[float], float]:
    """Ascent with backtracking line search; stops on tolerance or cap."""
    alpha = 0.5
    for _ in range(settings.max_refine_iters):
        grad = _fd_gradient(pf, phi, settings.fd_step)
        if max(abs(g) for g in grad) < settings.tolerance:
            break
        step = alpha
        improved = False
        while step > 1e-12:
            cand = [p + step * g for p, g in zip(phi, grad)]
            value = pf(cand)
            if value > best + settings.tolerance:
                phi, best = cand, value
                alpha = min(step * 2.0, 1.0)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return phi, best


# -iY: Ry(t) = cos(t/2) * I + sin(t/2) * _MINUS_IY
_MINUS_IY = _frozen(np.array([[0, -1], [1, 0]], dtype=complex))
# grid values within this times 1 + |a| + |b| + |c| of each other tie: well
# above the ~1e-15 relative rounding of the sinusoid, so rounding noise
# decides no move
_TIE_MARGIN = 1e-12


class _KeptStates:
    """The states entering gate ``at`` of a circuit, one per problem input.

    They are built with the angles passed to ``move_to``, and ``value`` and
    ``sinusoid`` are exact as long as the slots used before gate ``at``
    keep those angles. Moving forward applies the gates in between; moving
    back rebuilds from the problem's inputs.
    """

    def __init__(self, circuit: QuantumCircuit, problem: Problem):
        self.circuit = circuit
        self.problem = problem
        self.at = 0
        self.states = list(problem.inputs)
        self._segments: dict[tuple[int, int, int],
                             tuple[QuantumCircuit, tuple[int, ...]]] = {}

    def _segment(self, start: int, stop: int,
                 n_bits: int) -> tuple[QuantumCircuit, tuple[int, ...]]:
        """Gates ``start:stop`` as a circuit of their own on ``n_bits``
        bits, plus its slot map, built on first use.

        Slots are renumbered in order of first appearance, and ``slots[j]``
        is the circuit slot behind segment slot j: the segment run with
        ``[phi[s] for s in slots]`` makes the gate calls that those gates
        make in the whole circuit run with ``phi``.
        """
        key = (start, stop, n_bits)
        if key in self._segments:
            return self._segments[key]
        circuit = self.circuit
        if start == 0 and stop == len(circuit.gates) \
                and n_bits == circuit.n_bits:
            segment = circuit, tuple(range(circuit.n_params))
        else:
            renumbered: dict[int, int] = {}
            gates = []
            for gate in circuit.gates[start:stop]:
                if gate.slot is not None:
                    slot = renumbered.setdefault(gate.slot, len(renumbered))
                    if slot != gate.slot:
                        gate = GateInstance(gate.kind, gate.qubits, slot=slot)
                gates.append(gate)
            segment = (QuantumCircuit(n_bits, tuple(gates)),
                       tuple(renumbered))
        self._segments[key] = segment
        return segment

    def move_to(self, index: int, phi: Sequence[float]) -> None:
        if index < self.at:
            self.at, self.states = 0, list(self.problem.inputs)
        if index > self.at:
            n = self.problem.n_bits
            segment, slots = self._segment(self.at, index, n)
            params = [phi[s] for s in slots]
            for i, amps in enumerate(self.states):
                self.states[i] = apply_circuit_array(amps, n, segment, params)
            self.at = index

    def value(self, phi: Sequence[float]) -> float:
        """Pre-fitness at ``phi``, simulating gates ``at`` onward only."""
        segment, slots = self._segment(self.at, len(self.circuit.gates),
                                       self.problem.n_bits)
        return _score(segment, [phi[s] for s in slots], self.problem,
                      self.states)

    def sinusoid(self, phi: Sequence[float]) -> tuple[float, float, float]:
        """(a, b, c) with pre-fitness a + b*cos(t) + c*sin(t) when the Ry
        gate ``at``, the only one using its slot, has angle t and every
        other slot its angle in ``phi``.

        Each kept state psi and -iY psi, stacked as one array on N+1 bits,
        go through the gates after gate ``at`` in one simulation; on a
        register of ``MAX_QUBITS`` bits, where the stacked array would not
        fit, they go through in two simulations on N bits.
        """
        problem, n = self.problem, self.problem.n_bits
        stacked = n < MAX_QUBITS
        segment, slots = self._segment(self.at + 1, len(self.circuit.gates),
                                       n + 1 if stacked else n)
        params = [phi[s] for s in slots]
        qubit = self.circuit.gates[self.at].qubits[0]

        def outputs(amps: np.ndarray) -> Sequence[np.ndarray]:
            """(A, B) for one kept state psi."""
            turned = _apply_1q(amps, n, _MINUS_IY, qubit)
            if stacked:
                return apply_circuit_array(np.concatenate([amps, turned]),
                                           n + 1, segment, params).reshape(2, -1)
            return [apply_circuit_array(x, n, segment, params)
                    for x in (amps, turned)]

        outs = map(outputs, self.states)
        if problem.kind == "GroundState":
            # -<x|H'|x> at x = cos(t/2) A + sin(t/2) B
            aa, bb, ab = problem.hamiltonian.pair_elements(*next(outs))
            return -0.5 * (aa + bb), -0.5 * (aa - bb), -ab
        # |cos(t/2) alpha + sin(t/2) beta|^2 per pair, alpha = <o|A>
        aa = bb = ab = 0.0
        for (out_a, out_b), (_, amps_out) in zip(outs, problem.pairs):
            alpha, beta = np.vdot(amps_out, out_a), np.vdot(amps_out, out_b)
            aa += abs(alpha) ** 2
            bb += abs(beta) ** 2
            ab += (alpha.conjugate() * beta).real
        d = len(problem.pairs)
        return 0.5 * (aa + bb) / d, 0.5 * (aa - bb) / d, ab / d


def optimize_params(circuit: QuantumCircuit, problem: Problem,
                    settings: OptimizerSettings | None = None
                    ) -> tuple[tuple[float, ...], float]:
    """Best angle vector and its pre-fitness, deterministically.

    Coordinate-wise sweep over the grid, visiting slots 0..K-1 cyclically,
    then optional gradient refinement. The value returned is one direct
    pre-fitness evaluation at the final angles.

    A slot that one Ry gate uses costs one simulation of the gates after
    that gate, on the stacked pair (see the module docstring), which gives
    (a, b, c) and from them every grid angle's value. A slot shared by
    several gates (only hand-written circuits have them) evaluates every
    grid angle directly instead. Values within ``_TIE_MARGIN`` times
    1 + |a| + |b| + |c| (1 + the largest |value| for a direct scan) tie.
    If the best grid value beats the current angle's by more than that,
    the slot moves to the first grid angle that ties with the best.
    Otherwise, on its first such visit, it moves sideways, to the next
    grid angle after the current one, cyclically, that ties with the best:
    a flat slot, one the other gates make irrelevant for now, thus leaves
    a stationary angle such as 0 or pi, so the slots visited after it can
    find improvements, and as each slot moves sideways at most once, the
    sweep cannot cycle. Any move counts as a change; the sweep stops
    K - 1 visits after the last change or after ``max_sweep_cycles * K``
    visits.
    """
    if settings is None:
        settings = problem.settings
    k_slots = circuit.n_params
    if k_slots == 0:
        return (), prefitness(circuit, (), problem)

    grid = tuple(settings.grid)
    trig = [(math.cos(t), math.sin(t)) for t in grid]
    uses: Counter[int] = Counter()
    first: dict[int, int] = {}      # slot -> index of the first gate using it
    for i, gate in enumerate(circuit.gates):
        if gate.slot is not None:
            uses[gate.slot] += 1
            first.setdefault(gate.slot, i)
    kept = _KeptStates(circuit, problem)
    phi = [settings.start_angle] * k_slots
    walked: set[int] = set()    # slots that have had their sideways move
    settled = 0     # slots at their grid optimum: the last changed one and
                    # every slot visited since
    for visit in range(settings.max_sweep_cycles * k_slots):
        k = visit % k_slots
        kept.move_to(first[k], phi)
        current = phi[k]
        if uses[k] == 1:
            a, b, c = kept.sinusoid(phi)
            values = [a + b * cos_t + c * sin_t for cos_t, sin_t in trig]
            now = a + b * math.cos(current) + c * math.sin(current)
            scale = 1.0 + abs(a) + abs(b) + abs(c)
        else:
            values = [kept.value(phi[:k] + [angle] + phi[k + 1:])
                      for angle in grid]
            now = (values[grid.index(current)] if current in grid
                   else kept.value(phi))
            scale = 1.0 + max(map(abs, values))
        top, margin = max(values), _TIE_MARGIN * scale
        tied = [j for j, value in enumerate(values) if value >= top - margin]
        if top > now + margin:
            phi[k] = grid[tied[0]]
        elif k not in walked:
            after = grid.index(current) + 1 if current in grid else 0
            phi[k] = grid[min(tied, key=lambda j: (j - after) % len(grid))]
            walked.add(k)
        settled = 1 if phi[k] != current else settled + 1
        if settled == k_slots:
            break
    best = prefitness(circuit, phi, problem)
    if settings.refine:
        phi, best = _gradient_refine(
            lambda values: prefitness(circuit, values, problem), phi, best,
            settings)
    return tuple(phi), best


class CachingFitness:
    """The fitness of a genome, F = P(phi_max) of the circuit it decodes to.

    Fitness is a pure function of the genome symbols, so results (and the
    optimizing angles, needed when reporting winners) are cached by symbol
    tuple.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self._cache: dict[tuple[int, ...], tuple[float, tuple[float, ...]]] = {}

    def __call__(self, gene: Gene) -> float:
        key = gene.symbols
        hit = self._cache.get(key)
        if hit is None:
            circuit = gene_to_circuit(gene, self.problem.table)
            params, value = optimize_params(circuit, self.problem)
            hit = (value, params)
            self._cache[key] = hit
        return hit[0]

    def params_for(self, gene: Gene) -> tuple[float, ...]:
        """Optimizing angle vector for a genome (computing it if needed)."""
        self(gene)
        return self._cache[gene.symbols][1]
