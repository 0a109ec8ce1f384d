"""Pre-fitness functionals, parameter optimization, and problem binding.

A circuit's fitness is the maximum of its pre-fitness over the continuous
gate angles: the squared amplitude at each training pair's output index,
averaged over the pairs (FunctionFit), or minus the Hamiltonian
expectation (GroundState).
The optimizer is a deterministic coordinate sweep over a discrete angle
grid, optionally continued with each slot set to its exact continuous
maximum. A genome's fitness is that of its canonical circuit
(``CachingFitness``), which reaches the same states with fewer slots.

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
time, twice the per-state working set of evaluating one angle, at every N:
-iY psi is written straight into the pair's second row.
Simulating U costs one kernel per 1-qubit gate and one gather per run of
CNOTs, a lone CNOT included (see ``sim``): slot gates are Ry, so no slot
splits a run, and the kept states' steps and suffixes (below) are parts of
the circuit's core that share its run tables, so each table is built once
per optimized circuit.

Every input is a basis state and CNOT, the only two-qubit gate, permutes
basis indices, so the sweep does not simulate a circuit's permutation
ends (``_permutation_ends``). A leading CNOT run maps each input's
one-hot to another one-hot: the sweep moves the input's index through it
on integers and starts from a one-hot at the moved index, the entry. On
FunctionFit only one amplitude of each output is read, so a trailing CNOT
run is pulled back instead: the amplitude at the output index after it is
the amplitude at the pulled-back index before it. A gather does no
arithmetic, so the values are those of the whole circuit bit for bit. The
core between the ends is what the sweep simulates, and no table is built
for an end. A GroundState tail stays in the core, as the Hamiltonian does
not commute with a permutation. A circuit without CNOT ends is its own
core.

Nor does a visit simulate the gates before its slot. They do not change
during the visit, so the sweep keeps the state(s) entering that gate,
built once with the committed angles. Between visits the kept state moves
forward to the next slot's gate, or restarts from the entries when the
cycle wraps: read-only one-hot arrays, the problem's own
(``Problem.one_hots``, built once per problem and held by it) wherever
the lead leaves the input where it is, and built once per optimized
circuit where it moves it. The value returned at the end is read off the
kept states too, moved on from the last visit past the core's last gate:
the kernel calls a whole-core run makes, in the same order. A circuit
without slots takes that one move from its entries.

A core without CNOT is not simulated on whole registers at all
(``_ProductStates``). Its gates act on one qubit each and its entries
are basis states, so every state it reaches is a product of one 2-vector
per qubit (Vidal, arXiv:quant-ph/0301063), and a visit forms A and B on
the slot's qubit alone, from its 2-vector entering the slot's gate and
that qubit's gates after it. The other qubits enter as cached factors,
refreshed only when an angle on them changes: on GroundState each Pauli
term's value, c times the product of <sigma> over its qubits, so H'
seen from the slot's qubit is one 2x2 matrix; on FunctionFit each pair's
amplitude factors at the pulled-back output's bits. A visit is thus
scalar arithmetic on the slot qubit's terms or pairs, with no numpy call.
Its (a, b, c) are summed in another order than the stacked pair's and
agree with them to about 1e-15 relative. That moves no artifact: (a, b,
c) only choose grid angles, and values within ``_TIE_MARGIN`` of each
other tie, so a choice could change only where two values differ by the
margin itself to within rounding, which no tested case nor benchmark
instance met; and the value returned is the kernels': the whole core
run once from the entry one-hots at the final angles, the kernel calls
the whole-register path makes. Only the exact phase of ``refine``, which
sets a slot to atan2(c, b), carries the rounding into its angles. Over
the benchmark's instances 0-11 (seed 7), every core optimized on
maxcut8 (``Gates = Ry``) took this path, 819 of 819; so did 509 of 567
on funcfit12 and 222 of 1,914 on heisenberg3x3.

The one-hot inputs are float64 and -iY is a real matrix, so every state
the sweep holds, kept states and stacked pairs alike, stays float64 at
8 B per amplitude through Ry, H, X, Z and CNOT gates and becomes complex
at the first P or Y (see ``sim``); either way the values are those of
complex states.

The sweep starts from all angles at pi/4 rather than 0: for product-state
problems the all-zero point is a stationary saddle where no single-angle
change moves the pre-fitness, so a sweep seeded there cannot leave it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from gepcirc.engine import ConfigError, Gene, coding_length, make_gene
from gepcirc.hamiltonians import PauliSumHamiltonian
from gepcirc.sim import (
    GateInstance,
    GateTable,
    QuantumCircuit,
    _apply_1q,
    _frozen,
    _kernel_forms,
    apply_circuit_array,
    bind_params,
    canonicalize,
    check_basis_index,
    circuit_to_gene,
    coding_circuit,
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
        """The inputs as read-only float64 one-hot arrays, built on first
        use and shared by every simulation of this problem: no kernel
        writes into its input. They live as long as the problem. The sweep
        starts from them wherever a circuit's leading CNOT run leaves an
        input where it is, as it leaves |0...0>; it builds a one-hot of
        their dtype at an input the run moves."""
        return tuple(_one_hot(self.n_bits, index) for index in self.inputs)

    @functools.cached_property
    def terms_on(self) -> tuple[tuple[tuple[int, int, float, tuple], ...],
                                ...]:
        """GroundState's Pauli terms by qubit, built on first use for the
        product-state visits (``_ProductStates``): for each qubit q, one
        (term index, sigma_q, coefficient, the other factors (r, sigma_r))
        per term on q, sigma 0, 1 and 2 for X, Y and Z."""
        on = [[] for _ in range(self.n_bits)]
        for i, term in enumerate(self.hamiltonian.terms):
            factors = [(q, "XYZ".index(p)) for q, p in term.ops]
            for q, p in factors:
                on[q].append((i, p, term.coefficient, tuple(
                    factor for factor in factors if factor[0] != q)))
        return tuple(map(tuple, on))


def _one_hot(n_bits: int, index: int, dtype=np.float64) -> np.ndarray:
    """Basis state ``index`` as a read-only one-hot array."""
    amps = np.zeros(1 << n_bits, dtype)
    amps[index] = 1.0
    return _frozen(amps)


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


def _score(problem: Problem, states: Iterable[np.ndarray],
           outputs: Sequence[int]) -> float:
    """The pre-fitness read off a circuit's output ``states``, one per
    problem input in order: mean |A[out]|^2 over ``outputs``, one index
    per state (FunctionFit), or -<H> (GroundState), A the state; one
    pair at a time."""
    states = iter(states)
    if not problem.outputs:
        return -problem.hamiltonian.expectation_array(next(states))
    total = 0.0
    for amps, out in zip(states, outputs):
        total += float(abs(amps[out]) ** 2)
    return total / len(outputs)


def prefitness(circuit: QuantumCircuit, params: Sequence[float],
               problem: Problem) -> float:
    """P(phi): the whole circuit run from the problem's inputs and scored,
    one input at a time."""
    n = problem.n_bits
    return _score(problem, (apply_circuit_array(amps, n, circuit, params)
                            for amps in problem.one_hots), problem.outputs)


def _through(index: int, cnots: Iterable[GateInstance]) -> int:
    """Basis index ``index`` moved by ``cnots``, applied in order: the rule
    of ``sim._cnot_run_table``."""
    for gate in cnots:
        control, target = gate.qubits
        index ^= ((index >> control) & 1) << target
    return index


def _permutation_ends(gates: Sequence[GateInstance], problem: Problem
                      ) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(lead, end, entries, outputs) for a circuit's ``gates``. Gates
    [0, lead) are its leading CNOT run and, for FunctionFit, gates
    [end, len) its trailing one; the core between them is what the sweep
    simulates. ``entries`` are the problem's inputs moved forward through
    the lead, so a one-hot at an entry is the input after it; ``outputs``
    are its outputs pulled back through the tail, the gates taken last to
    first, so the amplitude at a pulled-back index before the tail is the
    output's after it. CNOT is the only two-qubit kind, and a gather does
    no arithmetic, so the values are those of the whole circuit bit for
    bit. A GroundState tail stays in the core: H does not commute with a
    permutation. Without ends, the problem's own index tuples come back."""
    lead = 0
    while lead < len(gates) and gates[lead].kind.n_qubits == 2:
        lead += 1
    end = len(gates)
    if problem.outputs:
        while end > lead and gates[end - 1].kind.n_qubits == 2:
            end -= 1
    entries, outputs = problem.inputs, problem.outputs
    if lead:
        entries = tuple(_through(index, gates[:lead]) for index in entries)
    if end < len(gates):
        outputs = tuple(_through(out, reversed(gates[end:]))
                        for out in outputs)
    return lead, end, entries, outputs


# values within this times 1 + |a| + |b| + |c| of each other tie: well
# above the ~1e-15 relative rounding of the sinusoid, so rounding noise
# decides no move
_TIE_MARGIN = 1e-12


def _entry_states(problem: Problem, entries: tuple[int, ...]
                  ) -> tuple[np.ndarray, ...]:
    """One-hots at the ``entries``: the problem's shared ones where the lead
    leaves an input where it is, and new ones of their dtype where it moves
    it (``_permutation_ends`` hands the problem's own tuple back without a
    lead)."""
    if entries is problem.inputs:
        return problem.one_hots
    return tuple(hot if entry == index else _one_hot(problem.n_bits, entry,
                                                     hot.dtype)
                 for hot, index, entry in zip(problem.one_hots,
                                              problem.inputs, entries))


def _kept_states(circuit: QuantumCircuit, problem: Problem
                 ) -> _KeptStates | _ProductStates:
    """The kept states the sweep visits ``circuit``'s slots through. The
    circuit is split once into its permutation ends and the core between
    them (see ``_permutation_ends``); a core with a CNOT is simulated on
    whole registers (``_KeptStates``), one without on one 2-vector per
    qubit (``_ProductStates``)."""
    gates = circuit.gates
    lead, end, entries, outputs = _permutation_ends(gates, problem)
    if end - lead < len(gates):
        # cut without compiling the whole circuit, ends included
        circuit = QuantumCircuit(circuit.n_bits, gates[lead:end])
    kind = (_KeptStates if any(gate.kind.n_qubits == 2
                               for gate in circuit.gates) else _ProductStates)
    return kind(circuit, problem, entries, outputs)


class _KeptStates:
    """The states entering slot ``k``'s gate, one per problem input; at
    k = K, past the last gate, the circuit's outputs.

    They are built with the angles passed to ``move_to``, and ``sinusoid``
    is exact as long as slots 0..k-1 keep those angles. The states start
    as one-hots at the ``entries`` and go through the ``core`` alone, and
    its outputs are read at the pulled back ``outputs`` (see
    ``_kept_states``). Visits walk the slots in gate order, so the core is
    cut once into K + 1 ``steps``, step k running from slot k-1's gate (or
    the start) up to slot k's gate (or the end), and ``suffixes``, suffix k
    being the gates after slot k's gate. Moving forward applies the steps
    in between, one state at a time in place; moving back restarts from
    the one-hots. The ends are never simulated, so no table is built for
    their CNOT runs.
    """

    def __init__(self, core: QuantumCircuit, problem: Problem,
                 entries: tuple[int, ...], outputs: tuple[int, ...]):
        self.problem, self.outputs = problem, outputs
        gates = core.gates
        # slot -> index of its gate
        gate_of = [i for i, gate in enumerate(gates) if gate.free]
        self.qubits = [gates[i].qubits[0] for i in gate_of]
        # parts of the core: a CNOT run is tabled once for all of them
        self.steps = [core.part(start, stop) for start, stop
                      in zip([0] + gate_of, gate_of + [None])]
        self.suffixes = [core.part(i + 1) for i in gate_of]
        self.entries = _entry_states(problem, entries)
        self.k = -1
        self.states = list(self.entries)

    def move_to(self, k: int, phi: Sequence[float]) -> None:
        """Keep the states entering slot ``k``'s gate (at k = K, the
        outputs). Each state is replaced as soon as it has moved, so beyond
        the kept states a move holds only one state's simulation, and the
        one-hot entries are never copied."""
        if k < self.k:
            self.k, self.states = -1, list(self.entries)
        n, states = self.problem.n_bits, self.states
        for j in range(self.k + 1, k + 1):
            step = self.steps[j]
            if step.gates:
                # step j starts at slot j-1's gate
                params = phi[max(j - 1, 0):]
                for i, amps in enumerate(states):
                    states[i] = apply_circuit_array(amps, n, step, params)
        self.k = k

    def sinusoid(self, phi: Sequence[float]) -> tuple[float, float, float]:
        """(a, b, c) with pre-fitness a + b*cos(t) + c*sin(t) when slot
        ``k`` has angle t and every other slot its angle in ``phi``.

        Each kept state psi and -iY psi, stacked as one (2, 2^N) array,
        go through the gates after slot ``k``'s gate in one simulation.
        """
        problem, k = self.problem, self.k
        q = self.qubits[k]
        # the kept states share one dtype, so one lookup serves them all
        forms = _kernel_forms("-iY", None, self.states[0].dtype == complex, q)

        def outputs(amps: np.ndarray) -> np.ndarray:
            """(A, B) for one kept state psi."""
            # unnamed, the pair is freed once its first gate has run: at
            # NumBits = 24 one state is 128 MB, or 256 MB once complex
            return apply_circuit_array(_stacked(amps, q, forms),
                                       problem.n_bits, self.suffixes[k],
                                       phi[k + 1:])

        outs = map(outputs, self.states)
        if not problem.outputs:
            # -<x|H'|x> at x = cos(t/2) A + sin(t/2) B
            aa, bb, ab = problem.hamiltonian.pair_elements(*next(outs))
            return -0.5 * (aa + bb), -0.5 * (aa - bb), -ab
        # |cos(t/2) alpha + sin(t/2) beta|^2 per pair, alpha = A[out]
        aa = bb = ab = 0.0
        for pair, out in zip(outs, self.outputs):
            alpha, beta = pair[0, out], pair[1, out]
            aa += abs(alpha) ** 2
            bb += abs(beta) ** 2
            ab += (alpha.conjugate() * beta).real
        d = len(self.outputs)
        return 0.5 * (aa + bb) / d, 0.5 * (aa - bb) / d, ab / d


def _stacked(amps: np.ndarray, q: int,
             forms: tuple[np.ndarray, np.ndarray | None]) -> np.ndarray:
    """psi = ``amps`` and -iY psi on qubit q as one (2, 2^N) pair, ``forms``
    being -iY's kernel forms for q and the state's dtype: -iY psi is
    written straight into the pair's second row, so no copy of it is held
    beside the pair."""
    pair = np.empty((2,) + amps.shape, amps.dtype)
    pair[0] = amps
    _apply_1q(amps, forms[0], q, forms[1], out=pair[1])
    return pair


def _run(mats: Iterable[tuple], u: complex, v: complex
         ) -> tuple[complex, complex]:
    """The 2-vector (u, v) through one qubit's gates, each a 2x2 matrix's
    entries (m00, m01, m10, m11), in order."""
    for m00, m01, m10, m11 in mats:
        u, v = m00 * u + m01 * v, m10 * u + m11 * v
    return u, v


def _elements(a0: complex, a1: complex, b0: complex, b1: complex
              ) -> tuple[float, float, float]:
    """Re <a|sigma|b> for sigma = X, Y, Z, on two 2-vectors a and b; at
    b = a, the Bloch vector of a. Floats pass as their own real parts."""
    a0, a1 = a0.conjugate(), a1.conjugate()
    s01, s10 = a0 * b1, a1 * b0
    return (s01 + s10).real, s01.imag - s10.imag, (a0 * b0 - a1 * b1).real


class _ProductStates:
    """The kept states of a core without CNOT: one 2-vector per qubit and
    input, with the ``_KeptStates`` interface.

    Every gate of such a core acts on one qubit and every entry is a basis
    state, so each state is at every step the Kronecker product of its
    qubits' 2-vectors, each moved by that qubit's gates alone (Vidal,
    arXiv:quant-ph/0301063). A visit to slot k on qubit q forms
    A = U psi and B = U (-iY psi) on q only, psi being q's 2-vector
    entering the slot's gate and U q's gates after it. Every other qubit
    enters through cached factors, refreshed when the angle of a slot on
    it changes:
    - GroundState: the value of each Pauli term, c times the product of
      <sigma> over its qubits' 2-vectors, and their sum; the terms on q,
      with the other factors, give <A|H'|A>, <B|H'|B> and Re <A|H'|B>
      for H' = s*(H - e0), the rest add to the first two alike;
    - FunctionFit: each pair's amplitude factors, the entries of its
      qubits' 2-vectors at the pulled-back output's bits; A's and B's
      entries times the product of the others are alpha and beta.
    No numpy call is made per visit or term. (a, b, c) agree with the
    stacked pair's to rounding, far below the sweep's tie margin, and the
    value at the end is the kernels' own: ``move_to(K)`` runs the whole
    core from the entry one-hots, the kernel calls ``_KeptStates`` makes.
    """

    def __init__(self, core: QuantumCircuit, problem: Problem,
                 entries: tuple[int, ...], outputs: tuple[int, ...]):
        self.problem, self.core, self.outputs = problem, core, outputs
        self.entries = entries
        n = core.n_bits
        # each qubit's gates in order, as matrix entries; a slot's are set
        # from its angle by move_to
        self.gates_on: list[list[tuple]] = [[] for _ in range(n)]
        self.slots: list[tuple[int, int]] = []    # slot -> (qubit, position)
        for gate in core.gates:
            q = gate.qubits[0]
            if gate.free:
                self.slots.append((q, len(self.gates_on[q])))
                self.gates_on[q].append(())
            else:
                mat = _kernel_forms(gate.kind.name, gate.angle, False, q)[0]
                self.gates_on[q].append(tuple(mat.ravel().tolist()))
        self.starts = [[(0.0, 1.0) if entry >> q & 1 else (1.0, 0.0)
                        for q in range(n)] for entry in entries]
        self.angles: list[float] | None = None
        h = problem.hamiltonian
        if h is None:
            self.factors = [[0.0] * n for _ in entries]
            return
        self.bloch: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)] * n
        # the terms' values, a constant term's set here once, and their sum
        self.values = [t.coefficient for t in h.terms]
        self.total = 0.0

    def move_to(self, k: int, phi: Sequence[float]) -> None:
        """Refresh the factors of each qubit a slot of which has changed its
        angle since the last move (every qubit on the first); at k = K, the
        outputs: the whole core run from the entry one-hots."""
        self.k = k
        if k == len(self.slots):
            problem = self.problem
            self.states = [
                apply_circuit_array(hot, problem.n_bits, self.core, phi)
                for hot in _entry_states(problem, self.entries)]
            return
        first = self.angles is None
        if self.angles == phi:
            return
        stale = set(range(self.problem.n_bits)) if first else set()
        for j, t in enumerate(phi):
            if first or self.angles[j] != t:
                q, position = self.slots[j]
                c, s = math.cos(t / 2.0), math.sin(t / 2.0)
                self.gates_on[q][position] = (c, -s, s, c)
                stale.add(q)
        self.angles = list(phi)
        self._refresh(stale)

    def _refresh(self, qubits: Iterable[int]) -> None:
        if self.problem.hamiltonian is None:
            for q in qubits:
                mats = self.gates_on[q]
                for starts, factors, out in zip(self.starts, self.factors,
                                                self.outputs):
                    factors[q] = _run(mats, *starts[q])[out >> q & 1]
            return
        bloch, values = self.bloch, self.values
        for q in qubits:
            u, v = _run(self.gates_on[q], *self.starts[0][q])
            bloch[q] = _elements(u, v, u, v)
        # a term may sit on several refreshed qubits: all of them first
        for q in qubits:
            for i, p, value, others in self.problem.terms_on[q]:
                value *= bloch[q][p]
                for r, o in others:
                    value *= bloch[r][o]
                values[i] = value
        self.total = sum(values)

    def sinusoid(self, phi: Sequence[float]) -> tuple[float, float, float]:
        """(a, b, c) with pre-fitness a + b*cos(t) + c*sin(t) when slot
        ``k`` has angle t and every other slot its angle in ``phi``, read
        off A and B on the slot's qubit and the other qubits' factors."""
        q, position = self.slots[self.k]
        mats = self.gates_on[q]
        before, after = mats[:position], mats[position + 1:]
        h = self.problem.hamiltonian
        if h is None:
            # |cos(t/2) alpha + sin(t/2) beta|^2 per pair
            aa = bb = ab = 0.0
            for starts, factors, out in zip(self.starts, self.factors,
                                            self.outputs):
                rest = math.prod(factors[:q]) * math.prod(factors[q + 1:])
                if not rest:
                    continue
                u, v = _run(before, *starts[q])
                bit = out >> q & 1
                alpha = _run(after, u, v)[bit] * rest
                beta = _run(after, -v, u)[bit] * rest
                aa += abs(alpha) ** 2
                bb += abs(beta) ** 2
                ab += (alpha.conjugate() * beta).real
            d = len(self.outputs)
            return 0.5 * (aa + bb) / d, 0.5 * (aa - bb) / d, ab / d
        # H' restricted to q: rest * I + w . (X, Y, Z), rest being the
        # terms off q less the shift
        bloch = self.bloch
        w = [0.0, 0.0, 0.0]
        for _, p, weight, others in self.problem.terms_on[q]:
            for r, o in others:
                weight *= bloch[r][o]
            w[p] += weight
        wx, wy, wz = w
        x, y, z = bloch[q]
        rest = self.total - (wx * x + wy * y + wz * z) - h.shift
        u, v = _run(before, *self.starts[0][q])
        a0, a1 = _run(after, u, v)
        b0, b1 = _run(after, -v, u)
        x, y, z = _elements(a0, a1, a0, a1)
        aa = h.scale * (rest + wx * x + wy * y + wz * z)
        x, y, z = _elements(b0, b1, b0, b1)
        bb = h.scale * (rest + wx * x + wy * y + wz * z)
        x, y, z = _elements(a0, a1, b0, b1)
        ab = h.scale * (wx * x + wy * y + wz * z)
        # -<x|H'|x> at x = cos(t/2) A + sin(t/2) B
        return -0.5 * (aa + bb), -0.5 * (aa - bb), -ab


def optimize_params(circuit: QuantumCircuit, problem: Problem
                    ) -> tuple[tuple[float, ...], float]:
    """Best angle vector and its pre-fitness, deterministically.

    Coordinate-wise sweep over ``DEFAULT_GRID``, visiting slots 0..K-1,
    the free Ry gates in gate order, cyclically from all angles at pi/4.
    A visit gives (a, b, c), and from them every grid angle's value: on a
    core with a CNOT, from one simulation of the core's gates after the
    slot's gate on the stacked pair; on a core without, from 2-vectors
    on the slot's qubit and cached factors (see the module docstring).
    Values within ``_TIE_MARGIN`` times 1 + |a| + |b| + |c| tie, so the
    two kinds of visit, which round otherwise, choose the same angles.
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
    K - 1 visits after its last change. atan2 reads (b, c) to the last
    bit, so here the two kinds of visit may set angles an ulp or so
    apart. Either way the sweep stops after
    ``_MAX_SWEEP_CYCLES * K`` visits at the latest. The value returned is
    the pre-fitness at the final angles, read off the kept states moved
    from the last visit to the end of the core, at the pulled-back output
    indices; on product states, and with K = 0, that move runs the whole
    core from the entries, the same kernel calls.
    """
    k_slots = circuit.n_params
    trig = [(math.cos(t), math.sin(t)) for t in DEFAULT_GRID]
    kept = _kept_states(circuit, problem)
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
    kept.move_to(k_slots, phi)
    return tuple(phi), _score(problem, kept.states, kept.outputs)


class CachingFitness:
    """The fitness of a genome, F = P(phi_max) of its canonical circuit.

    ``sim.canonicalize`` keeps the set of states a circuit reaches over its
    angles: it reorders gates on disjoint qubits, cancels self-inverse
    pairs, and fuses a Ry chain into one Ry, free if any of them was. So a
    circuit and its canonical form have the same best pre-fitness, and the
    sweep runs on the canonical one, without redundant slots. The sweep
    simulates only its core, between its permutation ends (see
    ``_permutation_ends``), from one-hots at the entry indices, read at the
    pulled-back output indices; these three, the core key, decide the
    angles and fitness bit for bit. Two plain dicts hold the work:

    * coding region -> (the canonical circuit's coding region, its core
      key), so each coding region is canonicalized once; the coding region
      lists the symbols outermost first, then the terminal, and the key
      holds the core's symbols, ints that hash cheaply; ``canonical``
      records the canonical gene's own coding region there too;
    * core key -> (angles, fitness), so each core is optimized once,
      however many genomes share it: genes that differ only in non-coding
      symbols, whose circuits differ only in what canonicalization
      rewrites, or whose canonical circuits differ only in CNOT ends that
      move the inputs and outputs alike. The ends hold no slot, so the
      angles fit every canonical circuit of the key.

    Neither holds a circuit, whose CNOT-run tables would then live as long
    as the store: ``bound_circuit`` decodes one again.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self._canonical = {}    # coding region -> (canonical region, core key)
        self._optimized = {}    # core key -> (angles, fitness)

    def _canonical_coding(self, gene: Gene) -> tuple[tuple[int, ...], tuple]:
        """(canonical coding region, core key) of the genome's coding
        region, canonicalized on first sight."""
        coding = gene.symbols[:coding_length(gene)]
        record = self._canonical.get(coding)
        if record is None:
            table = self.problem.table
            circuit = canonicalize(coding_circuit(coding, table))
            m = len(circuit.gates)
            canon = circuit_to_gene(circuit, table, gene.head_len).symbols[
                :m + 1]
            lead, end, entries, outputs = _permutation_ends(circuit.gates,
                                                            self.problem)
            # gate i is symbol m - 1 - i
            record = canon, (entries, canon[m - end:m - lead], outputs)
            # canonicalize is idempotent: its output is its own canonical form
            self._canonical[coding] = self._canonical[canon] = record
        return record

    def _optimum(self, record: tuple[tuple[int, ...], tuple]
                 ) -> tuple[tuple[float, ...], float]:
        canon, key = record
        optimum = self._optimized.get(key)
        if optimum is None:
            optimum = self._optimized[key] = optimize_params(
                coding_circuit(canon, self.problem.table), self.problem)
        return optimum

    def __call__(self, gene: Gene) -> float:
        return self._optimum(self._canonical_coding(gene))[1]

    def bound_circuit(self, gene: Gene) -> QuantumCircuit:
        """The genome's canonical circuit with its optimizing angles bound
        (computing them if needed): the circuit its fitness scores."""
        record = self._canonical_coding(gene)
        return bind_params(coding_circuit(record[0], self.problem.table),
                           self._optimum(record)[0])

    def canonical(self, gene: Gene) -> Gene:
        """The genome rewritten to its canonical circuit (``sim.canonicalize``)
        at its own head length, canonicalized once per coding region: as
        ``run_evolution``'s hook it does what ``Canonicalize = 1`` does."""
        canon = self._canonical_coding(gene)[0]
        padding = (self.problem.table.terminal,) * (len(gene.symbols)
                                                    - len(canon))
        return make_gene(canon + padding, gene.head_len, gene.pset)
