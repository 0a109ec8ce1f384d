"""The angle sweep against a reference sweep and direct values.

In every slot, which one Ry gate uses, the optimizer reads every grid
angle's value, and the exact maximum, off the sinusoid
a + b*cos(t) + c*sin(t), with (a, b, c) from one simulation of the stacked
pair, or, on a core without CNOT, from product states. Three checks pin it
down, on both kinds of visit:

* ``reference_sweep`` below is the plain coordinate sweep with the same
  rule: it scans every grid angle of the sinusoid built from the
  optimizer's own (a, b, c), and with ``refine`` it then continues with the
  sinusoid's maximum at atan2(c, b). The optimizer must return exactly its
  angles and value (``==``, not approximately).
* (a, b, c) must reproduce direct pre-fitness evaluations at every grid
  angle and at random angles, within 1e-12 relative.
* After the refinement, central differences of direct pre-fitness
  evaluations must vanish along every slot, whatever (a, b, c) said.

Product visits round otherwise than stacked pairs, so on a core without
CNOT the grid sweep must also return exactly what the whole-register
sweep returns.
"""

import math
import random

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import gepcirc.fitness as fitness_mod
import gepcirc.sim as sim
from gepcirc.engine import random_gene
from gepcirc.fitness import (
    DEFAULT_GRID,
    function_fit_problem,
    ground_state_problem,
    optimize_params,
    prefitness,
)
from gepcirc.hamiltonians import PauliSumHamiltonian, PauliTerm
from gepcirc.sim import (
    GATE_KINDS,
    GateInstance,
    GateTable,
    QuantumCircuit,
    apply_circuit_array,
    gene_to_circuit,
    parse_circuit,
)


def record_sinusoids(monkeypatch):
    """Log (phi, (a, b, c)) for every sinusoid the optimizer computes, on
    whole registers and on product states alike."""
    log = []

    def record(kind):
        sinusoid = kind.sinusoid

        def recorded(self, phi):
            abc = sinusoid(self, phi)
            log.append((tuple(phi), abc))
            return abc

        monkeypatch.setattr(kind, "sinusoid", recorded)

    # one kind when whole_registers has made both names one class
    for kind in dict.fromkeys((fitness_mod._KeptStates,
                               fitness_mod._ProductStates)):
        record(kind)
    return log


def reference_sweep(circuit, problem, sinusoids):
    """Reference sweep: (phi, best, history), one (phi_before, changed)
    entry per slot visit, taking the (phi, (a, b, c)) entries of
    ``sinusoids`` in order."""
    k_slots = circuit.n_params
    if k_slots == 0:
        return (), prefitness(circuit, (), problem), []

    feed = iter(sinusoids)
    grid = list(DEFAULT_GRID)
    phi = [math.pi / 4] * k_slots
    history = []
    walked = set()
    exact = False
    settled = 0
    for visit in range(100 * k_slots):
        k = visit % k_slots
        before, current = tuple(phi), phi[k]
        at, (a, b, c) = next(feed)
        assert at == before

        def value_at(t, a=a, b=b, c=c):
            return a + b * math.cos(t) + c * math.sin(t)

        margin = fitness_mod._TIE_MARGIN * (1 + abs(a) + abs(b) + abs(c))
        if exact:
            # the sinusoid's maximum, a + hypot(b, c), at atan2(c, b)
            if a + math.hypot(b, c) > value_at(current) + margin:
                phi[k] = math.atan2(c, b)
        else:
            values = [value_at(t) for t in grid]
            top = max(values)
            if top > value_at(current) + margin:
                # the first grid angle within the margin of the best
                phi[k] = next(t for t, v in zip(grid, values)
                              if v >= top - margin)
            elif k not in walked:
                # the next tied angle after the current one, cyclically
                start = grid.index(current) + 1
                for j in range(start, start + len(grid)):
                    if values[j % len(grid)] >= top - margin:
                        phi[k] = grid[j % len(grid)]
                        break
                walked.add(k)
        changed = phi[k] != current
        history.append((before, changed))
        settled = 1 if changed else settled + 1
        if settled == k_slots:
            if exact or not problem.refine:
                break
            exact, settled = True, 0
    assert next(feed, None) is None
    return tuple(phi), prefitness(circuit, phi, problem), history


def random_pauli_sum(n, rng):
    """A few random terms, at least one with an X or Y factor, sometimes
    shifted and scaled."""
    terms = []
    for i in range(rng.randint(2, 6)):
        qubits = rng.sample(range(n), rng.randint(1, min(3, n)))
        ops = {q: rng.choice("XYZ") for q in qubits}
        if i == 0:
            ops[qubits[0]] = rng.choice("XY")
        terms.append(PauliTerm.from_map(rng.uniform(-2.0, 2.0), ops))
    h = PauliSumHamiltonian(n, terms)
    if rng.random() < 0.5:
        h = h.rescaled(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
    return h


def random_ising(n, rng):
    """ZZ and Z terms only: the diagonal expectation path."""
    terms = [PauliTerm.from_map(
                 rng.uniform(-2.0, 2.0),
                 {q: "Z" for q in rng.sample(range(n),
                                             rng.randint(1, min(2, n)))})
             for _ in range(rng.randint(1, 5))]
    return PauliSumHamiltonian(n, terms)


def reachable_output(circuit, index, rng):
    """An output index that ``circuit`` reaches from basis state ``index``
    at random angles, drawn with the weights |U(phi)[out, index]|^2: its
    overlap is not identically zero."""
    n = circuit.n_bits
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    phi = [rng.uniform(-2 * math.pi, 2 * math.pi)
           for _ in range(circuit.n_params)]
    weights = np.abs(apply_circuit_array(amps, n, circuit, phi)) ** 2
    return rng.choices(range(1 << n), weights=weights)[0]


def make_problem(kind, circuit, table, seed, refine=False, n_pairs=None):
    """A random Hamiltonian from a random initial basis state, or random
    index pairs for ``circuit``: three in four pairs take an output it
    reaches (see ``reachable_output``), the rest any output."""
    rng = random.Random(seed)
    n = table.n_bits
    if kind in ("pauli", "ising"):
        h = (random_pauli_sum if kind == "pauli" else random_ising)(n, rng)
        return ground_state_problem(table, h, rng.randrange(1 << n),
                                    refine=refine)
    if n_pairs is None:
        n_pairs = rng.randint(1, 3)
    pairs = []
    for _ in range(n_pairs):
        index = rng.randrange(1 << n)
        reached = rng.random() < 0.75
        pairs.append((index, reachable_output(circuit, index, rng) if reached
                      else rng.randrange(1 << n)))
    return function_fit_problem(table, pairs, refine=refine)


KINDS = st.sampled_from(["pauli", "ising", "pairs"])
# each example patches through its own monkeypatch.context()
SLOW = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


def assert_matches_reference(circuit, problem, monkeypatch):
    with monkeypatch.context() as m:
        sinusoids = record_sinusoids(m)
        result = optimize_params(circuit, problem)
    phi, best, _ = reference_sweep(circuit, problem, sinusoids)
    assert result == (phi, best)


def gene_circuit(n, head, seed):
    table = GateTable(n, ["Ry", "P", "CNOT"])
    gene = random_gene(table.pset, head, random.Random(seed))
    return gene_to_circuit(gene, table), table


@SLOW
@given(n=st.integers(2, 5), head=st.integers(1, 8), seed=st.integers(0, 2**32),
       kind=KINDS, refine=st.booleans())
def test_gene_circuits_match_exhaustive_scan(monkeypatch, n, head, seed, kind,
                                             refine):
    circuit, table = gene_circuit(n, head, seed)
    assert_matches_reference(
        circuit, make_problem(kind, circuit, table, seed, refine), monkeypatch)


@SLOW
@given(n=st.integers(2, 5), head=st.integers(1, 8), seed=st.integers(0, 2**32),
       kind=KINDS)
def test_refined_angles_are_per_slot_maxima(monkeypatch, n, head, seed, kind):
    # the refinement starts from the grid sweep's angles and only climbs.
    # Where it settles, no slot can gain more than the tie margin m, so a
    # slot whose value is a + R*cos(t - t0) sits within 1 - cos(d) <= m/R
    # of its peak and has slope R*sin(d) <= sqrt(2*m*R); a, b, c and R
    # come from direct evaluations at 0, pi/2 and pi, not from the sweep
    circuit, table = gene_circuit(n, head, seed)
    _, grid_value = optimize_params(
        circuit, make_problem(kind, circuit, table, seed))
    problem = make_problem(kind, circuit, table, seed, refine=True)
    with monkeypatch.context() as m:
        visits = record_sinusoids(m)
        phi, value = optimize_params(circuit, problem)
    assert value >= grid_value
    if len(visits) == 100 * len(phi):
        return      # stopped by the visit cap, not settled
    h = 1e-5
    for k in range(len(phi)):
        def f(t, k=k):
            return prefitness(circuit, phi[:k] + (t,) + phi[k + 1:], problem)

        slope = (f(phi[k] + h) - f(phi[k] - h)) / (2 * h)
        a, b = (f(0.0) + f(math.pi)) / 2, (f(0.0) - f(math.pi)) / 2
        c = f(math.pi / 2) - a
        scale = 1 + abs(a) + abs(b) + abs(c)
        margin = fitness_mod._TIE_MARGIN * scale
        assert abs(slope) <= math.sqrt(2 * margin * math.hypot(b, c)) \
            + 1e-9 * scale


def complex_one_hots(problem):
    """The problem's inputs as complex128 one-hot arrays."""
    hots = []
    for index in problem.inputs:
        amps = np.zeros(1 << problem.n_bits, dtype=complex)
        amps[index] = 1.0
        hots.append(amps)
    return tuple(hots)


@settings(SLOW, max_examples=400)
@given(n=st.integers(1, 8), head=st.integers(1, 10), seed=st.integers(0, 2**32),
       kind=KINDS, refine=st.booleans(),
       kinds=st.sampled_from([("Ry",), ("Ry", "CNOT"), ("Ry", "H", "X", "Z"),
                              ("Ry", "P", "CNOT"), ("Ry", "Y", "CNOT")]))
def test_real_inputs_give_the_complex_results(monkeypatch, n, head, seed,
                                              kind, refine, kinds):
    # the sweep's states are float64 until a P or Y gate; with complex
    # one-hot inputs every state is complex from the start, and the
    # angles and value must come out the same
    table = GateTable(n, kinds)
    circuit = gene_to_circuit(
        random_gene(table.pset, head, random.Random(seed)), table)
    real = optimize_params(circuit,
                           make_problem(kind, circuit, table, seed, refine))
    with monkeypatch.context() as m:
        m.setattr(fitness_mod.Problem, "one_hots", property(complex_one_hots))
        problem = make_problem(kind, circuit, table, seed, refine)
        assert problem.one_hots[0].dtype == complex
        assert optimize_params(circuit, problem) == real


def framed_circuit(rng, n, k_slots):
    """Ry gates on slots 0..K-1 in gate order, with fixed H/P/CNOT gates
    before the first slot gate, between slot gates and after the last."""
    def fixed():
        a, b = rng.sample(range(n), 2)
        return rng.choice([f"H{a}", f"P{a}", f"CNOT{a},{b}"])

    tokens = [fixed() for _ in range(rng.randint(1, 3))]
    for slot in range(k_slots):
        tokens += [fixed() for _ in range(rng.randint(0, 2))]
        tokens.append(f"Ry{rng.randrange(n)}:phi{slot}")
    tokens += [fixed() for _ in range(rng.randint(1, 3))]
    return parse_circuit(" ".join(tokens), n)


@SLOW
@given(n=st.integers(2, 4), k_slots=st.integers(0, 4),
       seed=st.integers(0, 2**32), kind=KINDS, refine=st.booleans())
def test_framed_circuits_match_exhaustive_scan(monkeypatch, n, k_slots, seed,
                                               kind, refine):
    # the kept prefix state is rebuilt, advanced past fixed gates, and
    # moved back when the cycle wraps
    circuit = framed_circuit(random.Random(seed), n, k_slots)
    table = GateTable(n, ["Ry", "P", "CNOT", "H"])
    assert_matches_reference(
        circuit, make_problem(kind, circuit, table, seed, refine), monkeypatch)


@SLOW
@given(n=st.integers(2, 4), k_slots=st.integers(0, 3),
       n_pairs=st.integers(2, 5), seed=st.integers(0, 2**32))
def test_several_pairs_match_exhaustive_scan(monkeypatch, n, k_slots, n_pairs,
                                             seed):
    # one kept state, and one stacked run, per training pair
    circuit = framed_circuit(random.Random(seed), n, k_slots)
    table = GateTable(n, ["Ry", "P", "CNOT", "H"])
    problem = make_problem("pairs", circuit, table, seed, n_pairs=n_pairs)
    assert_matches_reference(circuit, problem, monkeypatch)


@SLOW
@given(n=st.integers(2, 4), k_slots=st.integers(1, 4),
       n_pairs=st.integers(2, 5), seed=st.integers(0, 2**32), kind=KINDS)
def test_sinusoid_reproduces_direct_prefitness(n, k_slots, n_pairs, seed,
                                               kind):
    # H/P/CNOT frames, other slots held at random angles, several training
    # pairs, random non-diagonal Pauli sums with shift and scale, and
    # diagonal ones
    rng = random.Random(seed)
    circuit = framed_circuit(rng, n, k_slots)
    table = GateTable(n, ["Ry", "P", "CNOT", "H"])
    problem = make_problem(kind, circuit, table, seed, n_pairs=n_pairs)
    check_sinusoids(circuit, problem, rng)


def check_sinusoids(circuit, problem, rng):
    """Every slot's (a, b, c) against direct pre-fitness evaluations at the
    grid angles and at random ones, the other slots at random angles; then
    again after some of those angles change, so the kept states move back
    or refresh their factors."""
    k_slots = circuit.n_params
    phi = [rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(k_slots)]
    kept = fitness_mod._kept_states(circuit, problem)
    for _ in range(2):
        for k in range(k_slots):
            kept.move_to(k, phi)
            a, b, c = kept.sinusoid(phi)
            angles = list(DEFAULT_GRID) + [rng.uniform(-10.0, 10.0)
                                           for _ in range(4)]
            for t in angles:
                direct = prefitness(circuit, phi[:k] + [t] + phi[k + 1:],
                                    problem)
                algebra = a + b * math.cos(t) + c * math.sin(t)
                assert abs(algebra - direct) <= 1e-12 * (1.0 + abs(direct))
        phi = [rng.uniform(-2 * math.pi, 2 * math.pi) if rng.random() < 0.5
               else t for t in phi]


def whole_registers(monkeypatch):
    """Visit every core on whole registers through ``_KeptStates``, a core
    without CNOT too."""
    monkeypatch.setattr(fitness_mod, "_ProductStates", fitness_mod._KeptStates)


def cnot_run(n, rng):
    """0 to 3 CNOTs on random ordered qubit pairs."""
    return tuple(GateInstance(GATE_KINDS["CNOT"],
                              tuple(rng.sample(range(n), 2)))
                 for _ in range(rng.randint(0, 3)))


def product_core_case(n, head, seed, kind, n_pairs, ends):
    """A random gene circuit over Ry, P, H, X, Y and Z, with ``ends`` a
    leading CNOT run that moves the inputs and, for index pairs, a
    trailing one that pulls the outputs back, and its problem: a core
    without CNOT, which the sweep visits on product states."""
    rng = random.Random(seed)
    table = GateTable(n, ["Ry", "P", "H", "X", "Y", "Z"])
    circuit = gene_to_circuit(random_gene(table.pset, head, rng), table)
    if ends and n > 1:
        tail = cnot_run(n, rng) if kind == "pairs" else ()
        circuit = QuantumCircuit(n, cnot_run(n, rng) + circuit.gates + tail)
    problem = make_problem(kind, circuit, table, seed, n_pairs=n_pairs)
    assert isinstance(fitness_mod._kept_states(circuit, problem),
                      fitness_mod._ProductStates)
    return circuit, problem, rng


PRODUCT_CASES = dict(n=st.integers(1, 6), head=st.integers(1, 10),
                     seed=st.integers(0, 2**32), kind=KINDS,
                     n_pairs=st.integers(1, 5), ends=st.booleans())


@settings(SLOW, max_examples=300)
@given(**PRODUCT_CASES)
def test_product_visits_match_whole_registers(monkeypatch, n, head, seed,
                                              kind, n_pairs, ends):
    # product visits round otherwise than stacked pairs, but at
    # GradientRefine = 0 their (a, b, c) feed only grid choices, which the
    # tie margin guards, and the value is a whole-core run at the final
    # angles: angles and value equal the whole-register sweep's, on Ising
    # sums, Pauli sums with shift and scale, nonzero initial states,
    # several index pairs, and inputs moved by a leading CNOT run
    circuit, problem, _ = product_core_case(n, head, seed, kind, n_pairs,
                                            ends)
    assert_matches_reference(circuit, problem, monkeypatch)
    result = optimize_params(circuit, problem)
    with monkeypatch.context() as m:
        whole_registers(m)
        assert optimize_params(circuit, problem) == result


@SLOW
@given(**PRODUCT_CASES)
def test_product_sinusoids_reproduce_direct_prefitness(n, head, seed, kind,
                                                       n_pairs, ends):
    circuit, problem, rng = product_core_case(n, head, seed, kind, n_pairs,
                                              ends)
    check_sinusoids(circuit, problem, rng)


H4 = PauliSumHamiltonian(4, [
    PauliTerm.from_map(0.7, {0: "X", 1: "X"}),
    PauliTerm.from_map(-1.3, {1: "Z", 2: "Z"}),
    PauliTerm.from_map(0.4, {2: "Y", 3: "Y"}),
    PauliTerm.from_map(0.9, {3: "X"}),
    PauliTerm.from_map(-0.5, {0: "Z"}),
])


def count_applies(monkeypatch):
    """Log (pair, gates) for every apply_circuit_array call the sweep
    makes; pair is true for a stacked (psi, -iY psi) run."""
    log = []
    apply = fitness_mod.apply_circuit_array

    def counted(amps, n_bits, circuit, params, /):
        # four positional arguments, as the benchmark's counter takes them
        log.append((amps.ndim == 2, len(circuit.gates)))
        return apply(amps, n_bits, circuit, params)

    monkeypatch.setattr(fitness_mod, "apply_circuit_array", counted)
    return log


def test_one_stacked_run_per_visit_and_early_stop(monkeypatch):
    circuit = parse_circuit(
        "Ry0:phi0 Ry1:phi1 CNOT0,1 Ry2:phi2 CNOT1,2 Ry3:phi3 CNOT2,3 Ry0:phi4", 4)
    problem = ground_state_problem(GateTable(4, ["Ry", "CNOT"]), H4)
    sinusoids = record_sinusoids(monkeypatch)
    applies = count_applies(monkeypatch)
    result = optimize_params(circuit, problem)
    applies = applies[:]        # the reference below evaluates too
    ref_phi, ref_best, history = reference_sweep(circuit, problem,
                                                 sinusoids)
    assert result == (ref_phi, ref_best)

    k_slots = circuit.n_params
    last_change = max(v for v, (_, changed) in enumerate(history) if changed)
    assert len(history) == last_change + k_slots     # K - 1 visits after it
    assert len(history) > k_slots                    # something did change
    # every visit: one stacked pair run; then the last visit's kept state
    # moves step by step, slot gate to slot gate, to the end of the circuit:
    # through the gates from its slot's gate on, once
    stacked = [gates for pair, gates in applies if pair]
    assert len(stacked) == len(sinusoids) == len(history)
    last_slot = (len(history) - 1) % k_slots
    slot_gates = [i for i, gate in enumerate(circuit.gates) if gate.free]
    ends = slot_gates + [len(circuit.gates)]
    last_run = max(i for i, (pair, _) in enumerate(applies) if pair)
    trailing = applies[last_run + 1:]
    assert trailing == [(False, ends[j] - ends[j - 1])
                        for j in range(last_slot + 1, k_slots + 1)]
    assert sum(gates for _, gates in trailing) \
        == len(circuit.gates) - slot_gates[last_slot]


def test_gate_applications_counted_exactly(monkeypatch):
    # eight slots, one Ry each, and a closing CNOT, which a GroundState
    # core keeps, so the sweep runs on whole registers: the visit to slot
    # k runs the 7 - k Ry after slot k's gate and the CNOT once, stacked;
    # moving the kept state to the next slot applies one gate, and
    # wrapping to slot 0 rebuilds it for free
    circuit = parse_circuit(
        " ".join(f"Ry{k % 4}:phi{k}" for k in range(8)) + " CNOT2,3", 4)
    problem = ground_state_problem(GateTable(4, ["Ry", "CNOT"]), H4)
    sinusoids = record_sinusoids(monkeypatch)
    applies = count_applies(monkeypatch)
    result = optimize_params(circuit, problem)
    applies = applies[:]        # the reference below evaluates too
    ref_phi, ref_best, history = reference_sweep(circuit, problem,
                                                 sinusoids)
    assert result == (ref_phi, ref_best)
    stacked = [gates for pair, gates in applies if pair]
    moves = [gates for pair, gates in applies if not pair]
    # the last change is at visit 12, so the sweep stops after visit 19:
    # stacked runs of 8, 7, ..., 1 gates in visits 0-7 and 8-15 and 8, 7,
    # 6, 5 in visits 16-19; one-gate moves before visits 1-7, 9-15 and
    # 17-19; then the state kept for visit 19 (slot 3) goes through the 6
    # gates from slot 3's gate on, as four one-gate steps and a last step
    # of slot 7's gate and the CNOT
    assert max(v for v, (_, changed) in enumerate(history) if changed) == 12
    assert len(history) == 20
    assert (len(stacked), sum(stacked)) == (20, 36 + 36 + 26)
    assert (len(moves), sum(moves)) == (17 + 5, 17 + 6)
    assert applies[-6:] == [(True, 5)] + [(False, 1)] * 4 + [(False, 2)]
    assert sum(gates for _, gates in applies) == 121


def test_product_cores_run_each_input_once(monkeypatch):
    # the same eight slots between CNOT ends that the sweep does not
    # simulate: a lead that moves the inputs and, for index pairs, a tail
    # that pulls the outputs back, so the cores hold no CNOT and are
    # visited on product states. No stacked pair is run, and the value is
    # one run of the whole core per input, from its entry
    slots = " ".join(f"Ry{k % 4}:phi{k}" for k in range(8))
    table = GateTable(4, ["Ry", "CNOT"])
    for problem, text in (
            (ground_state_problem(table, H4, 5), f"CNOT0,1 {slots}"),
            (function_fit_problem(table, [(0, 3), (5, 12), (9, 9)]),
             f"CNOT0,1 {slots} CNOT2,3")):
        circuit = parse_circuit(text, 4)
        with monkeypatch.context() as m:
            sinusoids = record_sinusoids(m)
            applies = count_applies(m)
            result = optimize_params(circuit, problem)
        assert result == reference_sweep(circuit, problem, sinusoids)[:2]
        assert len(sinusoids) > circuit.n_params
        assert applies == [(False, 8)] * len(problem.inputs)


def test_every_cnot_run_tabled_once(monkeypatch):
    # one table per maximal CNOT run, a lone CNOT included, built once
    # for the whole sweep: its steps and suffixes share the circuit's.
    # At 8 indices, within one gather chunk, a table is intp
    built = []
    table_for = sim._cnot_run_table

    def counted(n_bits, run):
        built.append(len(run))
        return table_for(n_bits, run)

    monkeypatch.setattr(sim, "_cnot_run_table", counted)
    circuit = parse_circuit(
        "Ry0:phi0 CNOT0,1 Ry1:phi1 CNOT1,2 CNOT2,0 Ry2:phi2", 3)
    problem = function_fit_problem(GateTable(3, ["Ry", "CNOT"]),
                                   [(0, 5), (3, 6)])
    optimize_params(circuit, problem)
    assert built == [1, 2]
    assert circuit.ops[4] is None
    for op in (circuit.ops[1], circuit.ops[3]):
        q, table = op
        assert q == -1 and isinstance(table, np.ndarray)
        assert len(table) <= sim._GATHER_CHUNK
        assert table.dtype == np.intp and not table.flags.writeable
    # a leading run moves the inputs and is never tabled; so is a trailing
    # run on FunctionFit, whose outputs it pulls back, while a GroundState
    # tail is simulated: H does not commute with a permutation
    ends = ("CNOT2,1 CNOT1,0 Ry0:phi0 CNOT0,1 Ry1:phi1 CNOT1,2 CNOT2,0 "
            "Ry2:phi2 CNOT0,2 CNOT1,2 CNOT2,0")
    h = PauliSumHamiltonian(3, [PauliTerm.from_map(1.0, {0: "X", 2: "Z"})])
    for problem, tabled in (
            (function_fit_problem(GateTable(3, ["Ry", "CNOT"]),
                                  [(3, 5), (6, 6)]), [1, 2]),
            (ground_state_problem(GateTable(3, ["Ry", "CNOT"]), h, 3),
             [1, 2, 3])):
        built.clear()
        optimize_params(parse_circuit(ends, 3), problem)
        assert built == tabled


def test_flat_slot_moves_sideways_once(monkeypatch):
    # -<Z1> = -cos(phi1) does not depend on phi0: slot 0 is flat, and slot
    # 1 peaks at pi. CNOT1,0 leaves Z1 as it is, and puts the core on
    # whole registers
    circuit = parse_circuit("Ry0:phi0 Ry1:phi1 CNOT1,0", 2)
    h = PauliSumHamiltonian(2, [PauliTerm.from_map(1.0, {1: "Z"})])
    problem = ground_state_problem(GateTable(2, ["Ry"]), h)
    sinusoids = record_sinusoids(monkeypatch)
    phi, best = optimize_params(circuit, problem)
    # visit 0: slot 0 ties everywhere and steps sideways, pi/4 -> pi/2;
    # visit 1: slot 1 improves, pi/4 -> pi; visit 2: slot 0 still ties
    # everywhere but has had its sideways move, so both slots are settled
    assert phi == (DEFAULT_GRID[2], DEFAULT_GRID[4])
    assert best == 1.0
    assert len(sinusoids) == 3
    ref_phi, _, history = reference_sweep(circuit, problem, sinusoids)
    assert ref_phi == phi
    assert [changed for _, changed in history] == [True, True, False]


def with_cnot_ends(circuit, rng):
    """``circuit`` between a leading and a trailing run of 0-3 random
    CNOTs each."""
    n = circuit.n_bits
    return QuantumCircuit(n, cnot_run(n, rng) + circuit.gates
                          + cnot_run(n, rng))


@SLOW
@given(n=st.integers(2, 5), head=st.integers(1, 8), seed=st.integers(0, 2**32),
       kind=KINDS, refine=st.booleans())
def test_cnot_ends_match_exhaustive_scan(monkeypatch, n, head, seed, kind,
                                         refine):
    # the lead moves the inputs, nonzero ones included, and a FunctionFit
    # tail pulls the outputs back; the sweep matches the reference, whose
    # value runs the whole circuit, and on whole registers every sinusoid
    # is the one of a sweep that simulates its ends, bit for bit. A core
    # without CNOT between ends would take product states, whose
    # sinusoids round otherwise than a sweep through the ends (see
    # test_product_visits_match_whole_registers), so both sweeps here are
    # on whole registers
    rng = random.Random(seed)
    table = GateTable(n, ["Ry", "P", "CNOT"])
    core = gene_to_circuit(random_gene(table.pset, head, rng), table)
    circuit = with_cnot_ends(core, rng)
    problem = make_problem(kind, circuit, table, seed, refine)
    assert_matches_reference(circuit, problem, monkeypatch)
    with monkeypatch.context() as m:
        whole_registers(m)
        stripped = record_sinusoids(m)
        result = optimize_params(circuit, problem)
    with monkeypatch.context() as m:
        whole_registers(m)
        m.setattr(fitness_mod, "_permutation_ends", lambda gates, problem: (
            0, len(gates), problem.inputs, problem.outputs))
        whole = record_sinusoids(m)
        assert optimize_params(circuit, problem) == result
    assert stripped == whole


@settings(deadline=None, max_examples=200)
@given(n=st.integers(2, 9), seed=st.integers(0, 2**32))
def test_ends_move_basis_indices(n, seed):
    # a moved input is where the lead's gather puts the one-hot's 1.0, and
    # a pulled-back output is the tail's table entry at the output
    rng = random.Random(seed)
    run = tuple(GateInstance(GATE_KINDS["CNOT"],
                             tuple(rng.sample(range(n), 2)))
                for _ in range(rng.randint(1, 6)))
    index = rng.randrange(1 << n)
    amps = np.zeros(1 << n)
    amps[index] = 1.0
    moved = apply_circuit_array(amps, n, QuantumCircuit(n, run))
    entry = fitness_mod._through(index, run)
    assert np.flatnonzero(moved).tolist() == [entry] and moved[entry] == 1.0
    table = sim._cnot_run_table(n, run)
    assert fitness_mod._through(index, reversed(run)) == table[index]
    # the ends of a whole circuit, the lead first to last and the tail
    # last to first; GroundState keeps its tail in the core
    gates = run + (GateInstance(GATE_KINDS["Ry"], (0,)),) + run
    pairs = function_fit_problem(GateTable(n, ["Ry", "CNOT"]),
                                 [(index, index)])
    assert fitness_mod._permutation_ends(gates, pairs) == (
        len(run), len(run) + 1, (entry,), (table[index],))
    ground = ground_state_problem(GateTable(n, ["Ry", "CNOT"]),
                                  PauliSumHamiltonian(n, []), index)
    assert fitness_mod._permutation_ends(gates, ground) == (
        len(run), len(gates), (entry,), ())
