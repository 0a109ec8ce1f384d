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


class _KeptStates:
    """The states entering slot ``k``'s gate, one per problem input; at
    k = K, past the last gate, the circuit's outputs.

    They are built with the angles passed to ``move_to``, and ``sinusoid``
    is exact as long as slots 0..k-1 keep those angles. The circuit is
    split once into its permutation ends and the core between them (see
    ``_permutation_ends``): the states start as one-hots at the ``entries``
    and go through the core alone, and its outputs are read at the pulled
    back ``outputs``. Visits walk the slots in gate order, so the core is
    cut once into K + 1 ``steps``, step k running from slot k-1's gate (or
    the start) up to slot k's gate (or the end), and ``suffixes``, suffix k
    being the gates after slot k's gate. Moving forward applies the steps
    in between, one state at a time in place; moving back restarts from
    the one-hots. The ends are never simulated, so no table is built for
    their CNOT runs.
    """

    def __init__(self, circuit: QuantumCircuit, problem: Problem):
        self.problem = problem
        gates = circuit.gates
        lead, end, entries, self.outputs = _permutation_ends(gates, problem)
        if end - lead < len(gates):
            # cut without compiling the whole circuit, ends included
            circuit = QuantumCircuit(circuit.n_bits, gates[lead:end])
            gates = circuit.gates
        # slot -> index of its gate
        gate_of = [i for i, gate in enumerate(gates) if gate.free]
        self.qubits = [gates[i].qubits[0] for i in gate_of]
        # parts of the core: a CNOT run is tabled once for all of them
        self.steps = [circuit.part(start, stop) for start, stop
                      in zip([0] + gate_of, gate_of + [None])]
        self.suffixes = [circuit.part(i + 1) for i in gate_of]
        # the problem's shared one-hots where the lead leaves the input
        self.entries = problem.one_hots
        if lead:
            self.entries = tuple(
                hot if entry == index else _one_hot(problem.n_bits, entry,
                                                    hot.dtype)
                for hot, index, entry in zip(self.entries, problem.inputs,
                                             entries))
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

        def outputs(amps: np.ndarray) -> np.ndarray:
            """(A, B) for one kept state psi."""
            # unnamed, the pair is freed once its first gate has run: at
            # NumBits = 24 one state is 128 MB, or 256 MB once complex
            return apply_circuit_array(_stacked(amps, q), problem.n_bits,
                                       self.suffixes[k], phi[k + 1:])

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


def _stacked(amps: np.ndarray, q: int) -> np.ndarray:
    """psi = ``amps`` and -iY psi on qubit q as one (2, 2^N) pair: -iY psi
    is written straight into the pair's second row, so no copy of it is
    held beside the pair."""
    mat, wide = _kernel_forms("-iY", None, amps.dtype == complex, q)
    pair = np.empty((2,) + amps.shape, amps.dtype)
    pair[0] = amps
    _apply_1q(amps, mat, q, wide, out=pair[1])
    return pair


def optimize_params(circuit: QuantumCircuit, problem: Problem
                    ) -> tuple[tuple[float, ...], float]:
    """Best angle vector and its pre-fitness, deterministically.

    Coordinate-wise sweep over ``DEFAULT_GRID``, visiting slots 0..K-1,
    the free Ry gates in gate order, cyclically from all angles at pi/4.
    A visit costs one simulation of the core's gates after the slot's
    gate, on the stacked pair (see the module docstring), which gives (a, b, c)
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
    the pre-fitness at the final angles, read off the kept states moved
    from the last visit to the end of the core, at the pulled-back output
    indices; with K = 0 there is no visit, and that one move runs the
    whole core from the entries.
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
