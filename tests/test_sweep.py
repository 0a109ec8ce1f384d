"""The sinusoid-pruned angle sweep against the exhaustive grid scan.

``exhaustive_sweep`` below is the plain coordinate sweep: every slot,
every grid angle, whole cycles until one changes nothing. The optimizer
must return exactly its angles and value (``==``, not approximately),
while making far fewer pre-fitness calls.
"""

import math
import random

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import gepcirc.fitness as fitness_mod
from gepcirc.engine import random_gene
from gepcirc.fitness import (
    DEFAULT_GRID,
    OptimizerSettings,
    function_fit_problem,
    ground_state_problem,
    optimize_params,
    prefitness,
)
from gepcirc.hamiltonians import PauliSumHamiltonian, PauliTerm
from gepcirc.sim import (
    StateVector,
    build_primitive_set,
    gene_to_circuit,
    parse_circuit,
)


def exhaustive_sweep(circuit, problem, opts):
    """Reference sweep: (phi, best, history), one (phi_before, changed)
    entry per slot visit."""
    k_slots = circuit.n_params
    if k_slots == 0:
        return (), prefitness(circuit, (), problem), []

    def pf(values):
        return prefitness(circuit, values, problem)

    phi = [opts.start_angle] * k_slots
    best = pf(phi)
    history = []
    for _ in range(opts.max_sweep_cycles):
        improved = False
        for k in range(k_slots):
            before = tuple(phi)
            current = phi[k]
            slot_best, slot_angle = best, current
            for angle in opts.grid:
                if angle == current:
                    continue
                phi[k] = angle
                value = pf(phi)
                if value > slot_best:
                    slot_best, slot_angle = value, angle
            phi[k] = slot_angle
            history.append((before, slot_best > best))
            if slot_best > best:
                best = slot_best
                improved = True
        if not improved:
            break
    if opts.refine:
        phi, best = fitness_mod._gradient_refine(pf, phi, best, opts)
    return tuple(phi), best, history


def random_pauli_sum(n, rng):
    """A few random terms, at least one with an X or Y factor."""
    terms = []
    for i in range(rng.randint(2, 6)):
        qubits = rng.sample(range(n), rng.randint(1, min(3, n)))
        ops = {q: rng.choice("XYZ") for q in qubits}
        if i == 0:
            ops[qubits[0]] = rng.choice("XY")
        terms.append(PauliTerm.from_map(rng.uniform(-2.0, 2.0), ops))
    return PauliSumHamiltonian(n, terms)


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def make_problem(kind, table, seed, opts, n_pairs=None):
    rng = random.Random(seed)
    n = table.n_bits
    if kind == "pauli":
        return ground_state_problem(table, random_pauli_sum(n, rng),
                                    settings=opts)
    nprng = np.random.default_rng(seed)
    if n_pairs is None:
        n_pairs = rng.randint(1, 3)
    pairs = [(random_state(n, nprng), random_state(n, nprng))
             for _ in range(n_pairs)]
    return function_fit_problem(table, pairs, settings=opts)


def make_grid(kind, seed):
    rng = random.Random(seed)
    if kind == "default":
        return DEFAULT_GRID
    if kind == "no_start":      # the start angle pi/4 is not a grid angle
        return tuple(rng.uniform(-2 * math.pi, 2 * math.pi)
                     for _ in range(rng.randint(3, 9)))
    if kind == "few":           # one or two angles, maybe the start angle
        return tuple(rng.choice([rng.uniform(0, 2 * math.pi), math.pi / 4])
                     for _ in range(rng.randint(1, 2)))
    # clusters of near-coincident or repeated angles, sometimes nothing else
    grid = []
    for _ in range(rng.randint(1, 3)):
        base, step = rng.uniform(0, 2 * math.pi), rng.choice([0.0, 1e-10])
        grid += [base + i * step for i in range(rng.randint(1, 4))]
    return tuple(grid)


GRIDS = st.sampled_from(["default", "no_start", "few", "near"])
SLOW = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def assert_matches_reference(circuit, problem):
    phi, best, _ = exhaustive_sweep(circuit, problem, problem.settings)
    assert optimize_params(circuit, problem) == (phi, best)


@SLOW
@given(n=st.integers(2, 5), head=st.integers(1, 8), seed=st.integers(0, 2**32),
       kind=st.sampled_from(["pauli", "pairs"]), grid=GRIDS,
       refine=st.booleans())
def test_gene_circuits_match_exhaustive_scan(n, head, seed, kind, grid, refine):
    table = build_primitive_set(n, ["Ry", "P", "CNOT"])
    circuit = gene_to_circuit(random_gene(table.pset, head, random.Random(seed)),
                              table)
    opts = OptimizerSettings(grid=make_grid(grid, seed), refine=refine,
                             max_refine_iters=3)
    assert_matches_reference(circuit, make_problem(kind, table, seed, opts))


@SLOW
@given(n=st.integers(2, 4), n_slots=st.integers(1, 3), extra=st.integers(1, 5),
       seed=st.integers(0, 2**32), kind=st.sampled_from(["pauli", "pairs"]),
       grid=GRIDS)
def test_repeated_slots_match_exhaustive_scan(n, n_slots, extra, seed, kind,
                                              grid):
    # every slot used once, at least one used again: the pre-fitness is then
    # not a single sinusoid in that slot
    rng = random.Random(seed)
    slots = list(range(n_slots)) + [rng.randrange(n_slots) for _ in range(extra)]
    tokens = [f"Ry{rng.randrange(n)}:phi{s}" for s in slots]
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(range(n), 2)
        tokens.append(rng.choice([f"CNOT{a},{b}", f"P{a}"]))
    rng.shuffle(tokens)
    circuit = parse_circuit(" ".join(tokens), n)
    table = build_primitive_set(n, ["Ry", "P", "CNOT"])
    opts = OptimizerSettings(grid=make_grid(grid, seed))
    assert_matches_reference(circuit, make_problem(kind, table, seed, opts))


def framed_circuit(rng, n, k_slots, repeats, shuffled):
    """Ry gates on slots 0..K-1, in shuffled order when asked, then
    `repeats` more uses of drawn slots, with fixed H/P/CNOT gates before the
    first slot gate, between slot gates and after the last."""
    def fixed():
        a, b = rng.sample(range(n), 2)
        return rng.choice([f"H{a}", f"P{a}", f"CNOT{a},{b}"])

    slots = list(range(k_slots))
    if shuffled:
        rng.shuffle(slots)
    if k_slots:
        slots += [rng.randrange(k_slots) for _ in range(repeats)]
    tokens = [fixed() for _ in range(rng.randint(1, 3))]
    for slot in slots:
        tokens += [fixed() for _ in range(rng.randint(0, 2))]
        tokens.append(f"Ry{rng.randrange(n)}:phi{slot}")
    tokens += [fixed() for _ in range(rng.randint(1, 3))]
    return parse_circuit(" ".join(tokens), n)


@SLOW
@given(n=st.integers(2, 4), k_slots=st.integers(0, 4), repeats=st.integers(0, 2),
       shuffled=st.booleans(), seed=st.integers(0, 2**32),
       kind=st.sampled_from(["pauli", "pairs"]), grid=GRIDS)
def test_framed_circuits_match_exhaustive_scan(n, k_slots, repeats, shuffled,
                                               seed, kind, grid):
    # the kept prefix state is rebuilt, advanced past fixed gates, and
    # moved backwards when slots are out of gate order
    circuit = framed_circuit(random.Random(seed), n, k_slots, repeats, shuffled)
    table = build_primitive_set(n, ["Ry", "P", "CNOT", "H"])
    opts = OptimizerSettings(grid=make_grid(grid, seed))
    assert_matches_reference(circuit, make_problem(kind, table, seed, opts))


@SLOW
@given(n=st.integers(2, 4), k_slots=st.integers(0, 3), shuffled=st.booleans(),
       n_pairs=st.integers(2, 5), seed=st.integers(0, 2**32))
def test_several_pairs_match_exhaustive_scan(n, k_slots, shuffled, n_pairs,
                                             seed):
    # one kept state per training pair
    circuit = framed_circuit(random.Random(seed), n, k_slots, 1, shuffled)
    table = build_primitive_set(n, ["Ry", "P", "CNOT", "H"])
    problem = make_problem("pairs", table, seed, OptimizerSettings(), n_pairs)
    assert_matches_reference(circuit, problem)


def visits_made(calls, history, k_slots):
    """Slot visits the optimizer's evaluations span. Each call is
    (k, params): an evaluation in the visit to slot k runs the gates from
    that slot's first gate on, with params for slots k..K-1 (the circuit
    below uses its slots in gate order), and varies slot k of the phi that
    the reference had before that visit."""
    def in_visit(call, visit):
        k, params = call
        before = history[visit][0]
        return k == visit % k_slots and params[1:] == before[k + 1:]

    visit = 0
    for call in calls:
        while not in_visit(call, visit):
            visit += 1
    return visit + 1


H4 = PauliSumHamiltonian(4, [
    PauliTerm.from_map(0.7, {0: "X", 1: "X"}),
    PauliTerm.from_map(-1.3, {1: "Z", 2: "Z"}),
    PauliTerm.from_map(0.4, {2: "Y", 3: "Y"}),
    PauliTerm.from_map(0.9, {3: "X"}),
    PauliTerm.from_map(-0.5, {0: "Z"}),
])


def test_three_calls_per_visit_and_early_stop(monkeypatch):
    circuit = parse_circuit(
        "Ry0:phi0 Ry1:phi1 CNOT0,1 Ry2:phi2 CNOT1,2 Ry3:phi3 CNOT2,3 Ry0:phi4", 4)
    problem = ground_state_problem(build_primitive_set(4, ["Ry", "CNOT"]), H4)
    ref_phi, ref_best, history = exhaustive_sweep(circuit, problem,
                                                  problem.settings)
    k_slots = circuit.n_params
    calls = []
    score = fitness_mod._score

    def counted(c, params, prob, states):
        calls.append((k_slots - c.n_params, tuple(params)))
        return score(c, params, prob, states)

    # every evaluation of the sweep, probes included, scores through _score
    monkeypatch.setattr(fitness_mod, "_score", counted)
    assert optimize_params(circuit, problem) == (ref_phi, ref_best)

    last_change = max(v for v, (_, changed) in enumerate(history) if changed)
    visits = visits_made(calls[1:], history, k_slots)
    assert visits == last_change + k_slots      # K - 1 visits after it
    assert visits < len(history)                # the scan ran a whole cycle more
    assert len(calls) <= 1 + 3 * visits
    assert len(calls) < (1 + 7 * len(history)) / 3


def test_gate_applications_counted_exactly(monkeypatch):
    # eight slots, one Ry each: an evaluation in the visit to slot k
    # applies the 8 - k gates from k on, and moving the kept state to the
    # next slot applies one gate
    circuit = parse_circuit(" ".join(f"Ry{k % 4}:phi{k}" for k in range(8)), 4)
    problem = ground_state_problem(build_primitive_set(4, ["Ry"]), H4)
    ref_phi, ref_best, _ = exhaustive_sweep(circuit, problem, problem.settings)
    gates, evaluations = [], []
    apply, score = fitness_mod.apply_circuit_array, fitness_mod._score

    def counted_apply(amps, n_bits, circuit, params, /):
        # four positional arguments, as the benchmark's counter takes them
        gates.append(len(circuit.gates))
        return apply(amps, n_bits, circuit, params)

    def counted_score(c, params, prob, states):
        evaluations.append(len(c.gates))
        return score(c, params, prob, states)

    monkeypatch.setattr(fitness_mod, "apply_circuit_array", counted_apply)
    monkeypatch.setattr(fitness_mod, "_score", counted_score)
    assert optimize_params(circuit, problem) == (ref_phi, ref_best)
    moves = len(gates) - len(evaluations)
    assert sum(gates) == sum(evaluations) + moves
    # two cycles of eight visits: 42 evaluations, 7 moves per cycle
    assert (len(evaluations), moves, sum(gates)) == (42, 14, 220)
    assert sum(gates) < 8 * len(evaluations)     # whole-circuit re-simulation
