"""Pre-fitness functionals, parameter optimization, and problem binding.

A circuit's fitness is the maximum of its pre-fitness over the continuous
gate angles: overlap-squared with target states averaged over training
pairs (FunctionFit), or minus the Hamiltonian expectation (GroundState).
The optimizer is a deterministic coordinate sweep over a discrete angle
grid, optionally followed by gradient ascent with central finite
differences.

The sweep does not evaluate every grid angle. In a slot that only one Ry
gate uses, the pre-fitness is exactly a + b*cos(t) + c*sin(t) in that
slot's angle t (Rotosolve/NFT: Ostaszewski et al., arXiv:1905.09692;
Nakanishi et al., arXiv:1903.12166), so the known value plus two probe
angles predict the whole grid. Only the angles predicted to be at the
maximum are evaluated, usually one, and the decision uses those direct
values with the full scan's rule, so a slot visit costs about three
pre-fitness evaluations instead of one per grid angle and gives the same
angles and value as the full scan, bit for bit. The sweep also stops as
soon as every slot is known to be at its grid optimum, rather than
re-scanning all slots once more.

Nor does an evaluation simulate the whole circuit. The gates before the
first gate of the visited slot do not change during the visit, so the
sweep keeps the state(s) entering that gate, built once with the
committed angles, and each evaluation applies only the gates from there
on. Between visits the kept state moves forward to the next slot's first
gate, or is rebuilt from the input states when that gate comes earlier
(the cycle wrapping, or slots used out of gate order). The same gate
kernels then run on the same arrays in the same order as a whole-circuit
simulation, so the values are the same bits.

The sweep starts from all angles at pi/4 rather than 0: for product-state
problems the all-zero point is a stationary saddle where no single-angle
change moves the pre-fitness, so a sweep seeded there cannot leave it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gepcirc.engine import ConfigError, Gene
from gepcirc.hamiltonians import PauliSumHamiltonian
from gepcirc.sim import (
    GateInstance,
    GateTable,
    QuantumCircuit,
    StateVector,
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


# Sinusoid predictions carry ~1e-15 relative error; angles predicted within
# this relative margin of the maximum are evaluated directly.
_MARGIN = 1e-9
# Largest Frobenius condition number a probe system may have (3.3 on the
# pi/4 grid); it bounds how much rounding grows in the predictions.
_MAX_CONDITION = 1e4


class _SlotPlan(NamedTuple):
    """How one slot visit scans the grid from a given current angle.

    ``angles`` are the distinct grid angles other than the current one, in
    grid order. With ``probes`` None every angle is evaluated; otherwise
    ``weights`` (one row per angle) and ``inverse`` map the values at
    (current, *probes) to the predicted values and to (a, b, c).
    """

    angles: tuple[float, ...]
    probes: tuple[float, float] | None
    weights: tuple[tuple[float, float, float], ...]
    inverse: tuple[tuple[float, float, float], ...]


@functools.lru_cache(maxsize=64)
def _slot_plan(grid: tuple[float, ...], current: float) -> _SlotPlan:
    """Probe pair and prediction weights for the values at (current, probes).

    The probes are the grid pair whose 3x3 system [1, cos t, sin t] is best
    conditioned. There are none with fewer than three other angles or when
    every pair is ill-conditioned, e.g. near-coincident angles.
    """
    angles = tuple(dict.fromkeys(a for a in grid if a != current))
    if len(angles) < 3:
        return _SlotPlan(angles, None, (), ())

    def rows(t: Sequence) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.stack([np.ones_like(t), np.cos(t), np.sin(t)], axis=-1)

    pairs = list(itertools.combinations(angles, 2))
    systems = rows([(current, p, q) for p, q in pairs])
    # 3x3 inverses by the adjugate (columns r1 x r2, r2 x r0, r0 x r1 over
    # r0 . (r1 x r2)): np.linalg.inv/cond would page in LAPACK, ~1.4 MB RSS
    r0, r1, r2 = systems[:, 0], systems[:, 1], systems[:, 2]
    adjugate = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)],
                        axis=-1)
    det = (r0 * adjugate[:, :, 0]).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inverses = adjugate / det[:, None, None]
        condition = (np.sqrt((systems ** 2).sum(axis=(1, 2)))
                     * np.sqrt((inverses ** 2).sum(axis=(1, 2))))
    pick = int(np.argmin(condition))
    if not condition[pick] <= _MAX_CONDITION:
        return _SlotPlan(angles, None, (), ())
    inverse = inverses[pick]
    weights = rows(angles) @ inverse
    return _SlotPlan(angles, pairs[pick], tuple(map(tuple, weights.tolist())),
                     tuple(map(tuple, inverse.tolist())))


def _dot(row: Sequence[float], values: Sequence[float]) -> float:
    return row[0] * values[0] + row[1] * values[1] + row[2] * values[2]


def _sinusoid_candidates(plan: _SlotPlan, pf: Callable[[list[float]], float],
                         phi: list[float], k: int, best: float,
                         known: dict[float, float]) -> tuple[float, ...]:
    """Evaluate the probes; return the angles that may hold the maximum.

    An angle is dropped only when its prediction is below both the
    predicted maximum and ``best`` by more than the margin, which no
    rounding error can bridge, so the dropped angles cannot win the scan.
    """
    values = [best]
    for angle in plan.probes:
        phi[k] = angle
        known[angle] = value = pf(phi)
        values.append(value)
    if not all(map(math.isfinite, values)):
        return plan.angles
    estimates = [known.get(a, _dot(w, values))
                 for a, w in zip(plan.angles, plan.weights)]
    scale = 1.0 + sum(abs(_dot(row, values)) for row in plan.inverse)
    threshold = max(best, *estimates) - _MARGIN * scale
    return tuple(a for a, e in zip(plan.angles, estimates) if e >= threshold)


class _KeptStates:
    """The states entering gate ``at`` of a circuit, one per problem input.

    They are built with the angles passed to ``move_to``, and ``value`` is
    exact as long as the slots used before gate ``at`` keep those angles.
    Moving forward applies the gates in between; moving back rebuilds
    from the problem's inputs.
    """

    def __init__(self, circuit: QuantumCircuit, problem: Problem):
        self.circuit = circuit
        self.problem = problem
        self.at = 0
        self.states = list(problem.inputs)
        self._segments: dict[tuple[int, int],
                             tuple[QuantumCircuit, tuple[int, ...]]] = {}

    def _segment(self, start: int,
                 stop: int) -> tuple[QuantumCircuit, tuple[int, ...]]:
        """Gates ``start:stop`` as a circuit of their own, plus its slot map,
        built on first use.

        Slots are renumbered in order of first appearance, and ``slots[j]``
        is the circuit slot behind segment slot j: the segment run with
        ``[phi[s] for s in slots]`` makes the gate calls that those gates
        make in the whole circuit run with ``phi``.
        """
        key = (start, stop)
        if key in self._segments:
            return self._segments[key]
        circuit = self.circuit
        if start == 0 and stop == len(circuit.gates):
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
            segment = (QuantumCircuit(circuit.n_bits, tuple(gates)),
                       tuple(renumbered))
        self._segments[key] = segment
        return segment

    def move_to(self, index: int, phi: Sequence[float]) -> None:
        if index < self.at:
            self.at, self.states = 0, list(self.problem.inputs)
        if index > self.at:
            segment, slots = self._segment(self.at, index)
            params = [phi[s] for s in slots]
            for i, amps in enumerate(self.states):
                self.states[i] = apply_circuit_array(
                    amps, self.problem.n_bits, segment, params)
            self.at = index

    def value(self, phi: Sequence[float]) -> float:
        """Pre-fitness at ``phi``, simulating gates ``at`` onward only."""
        segment, slots = self._segment(self.at, len(self.circuit.gates))
        return _score(segment, [phi[s] for s in slots], self.problem,
                      self.states)


def optimize_params(circuit: QuantumCircuit, problem: Problem,
                    settings: OptimizerSettings | None = None
                    ) -> tuple[tuple[float, ...], float]:
    """Best angle vector and its pre-fitness, deterministically.

    Coordinate-wise sweep over the grid, visiting slots 0..K-1 cyclically
    until no single-slot change strictly improves, then optional gradient
    refinement. Always returns the best point seen.

    Each visit moves its slot to the first grid angle, in grid order, with
    the largest value, if that value strictly beats the current one. A slot
    that one gate uses costs two probe evaluations plus a confirming one
    for the predicted winner (see the module docstring); a slot shared by
    several gates, a grid with fewer than three other angles, or an
    ill-conditioned probe system gets the full scan, one call per angle.
    Either way the result is that of the full scan. The sweep stops K - 1
    visits after the last change, when every slot is at its optimum, or
    after ``max_sweep_cycles * K`` visits.

    A visit keeps the state(s) entering the first gate of its slot, built
    with the committed angles, and its evaluations simulate only the gates
    from that one on; the values are the same bits as whole-circuit ones.
    """
    if settings is None:
        settings = problem.settings
    k_slots = circuit.n_params
    if k_slots == 0:
        return (), prefitness(circuit, (), problem)

    grid = tuple(settings.grid)
    uses: Counter[int] = Counter()
    first: dict[int, int] = {}      # slot -> index of the first gate using it
    for i, gate in enumerate(circuit.gates):
        if gate.slot is not None:
            uses[gate.slot] += 1
            first.setdefault(gate.slot, i)
    kept = _KeptStates(circuit, problem)
    pf = kept.value
    phi = [settings.start_angle] * k_slots
    kept.move_to(first[0], phi)
    best = pf(phi)
    settled = 0     # slots at their grid optimum: the last changed one and
                    # every slot visited since
    for visit in range(settings.max_sweep_cycles * k_slots):
        k = visit % k_slots
        kept.move_to(first[k], phi)
        current = phi[k]
        plan = _slot_plan(grid, current)
        known: dict[float, float] = {}
        if plan.probes is None or uses[k] > 1:
            candidates = plan.angles
        else:
            candidates = _sinusoid_candidates(plan, pf, phi, k, best, known)
        slot_best, slot_angle = best, current
        for angle in candidates:
            value = known.get(angle)
            if value is None:
                phi[k] = angle
                value = pf(phi)
            if value > slot_best:
                slot_best, slot_angle = value, angle
        phi[k] = slot_angle
        if slot_best > best:
            best, settled = slot_best, 1
        else:
            settled += 1
        if settled == k_slots:
            break
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
