"""Pre-fitness, parameter optimization, and fitness-binding tests."""

import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gepcirc.fitness as fitness_mod
from gepcirc.engine import (
    ConfigError,
    EvolutionConfig,
    coding_length,
    make_gene,
    random_gene,
    run_evolution,
)
from gepcirc.fitness import (
    CachingFitness,
    function_fit_problem,
    ground_state_problem,
    optimize_params,
    prefitness,
)
from gepcirc.hamiltonians import (
    Graph,
    PauliSumHamiltonian,
    PauliTerm,
    ising_from_graph,
    xx_chain,
)
from gepcirc.oracle import dense_matrix, exact_ground_energy
from gepcirc.sim import (
    GATE_KINDS,
    GateTable,
    QuantumCircuit,
    apply_circuit_array,
    basis_state,
    bind_params,
    canonical_coding,
    canonicalize,
    circuit_to_gene,
    circuit_to_string,
    coding_circuit,
    gene_to_circuit,
    parse_circuit,
)

from reference import StackedVisits, dense_unitary
from test_sim import gene_circuits
from test_sweep import kept_states, random_pauli_sum, record_sinusoids

Z0 = PauliSumHamiltonian(1, [PauliTerm.from_map(1.0, {0: "Z"})])
EDGE = ising_from_graph(Graph(2, ((0, 1),)))
XX4 = xx_chain(4, 1.0, "periodic")


class TestPrefitness:
    def test_empty_circuit_identity_pair(self):
        table = GateTable(1, ["Ry"])
        prob = function_fit_problem(table, [(0, 0)])
        assert prefitness(parse_circuit("", 1), (), prob) == 1.0

    def test_empty_circuit_ground_state(self):
        table = GateTable(2, ["Ry"])
        prob = ground_state_problem(table, EDGE, 0)
        assert prefitness(parse_circuit("", 2), (), prob) == -1.0
        # |01> has energy -1, so its fitness is 1
        prob = ground_state_problem(table, EDGE, 1)
        assert prefitness(parse_circuit("", 2), (), prob) == 1.0

    def test_known_xx_circuit(self):
        table = GateTable(4, ["Ry"])
        prob = ground_state_problem(table, XX4)
        circuit = parse_circuit("Ry0:3pi/2 Ry1:pi/2 Ry2:3pi/2 Ry3:pi/2", 4)
        assert abs(prefitness(circuit, (), prob) - 4.0) < 1e-9

    def test_function_fit_mean_over_pairs(self):
        table = GateTable(1, ["X"])
        prob = function_fit_problem(table, [(0, 1),     # X fixes this one
                                            (0, 0)])    # and breaks this one
        assert prefitness(parse_circuit("X0", 1), (), prob) == 0.5

    def test_function_fit_bounded(self):
        rng = random.Random(40)
        table = GateTable(2, ["H", "Ry", "CNOT"])
        prob = function_fit_problem(table, [(0, 3)])
        for _ in range(50):
            gene = random_gene(table.pset, 6, rng)
            value = CachingFitness(prob)(gene)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_problem_validation(self):
        table = GateTable(2, ["Ry"])
        with pytest.raises(ConfigError):
            function_fit_problem(table, [])
        for pair in [(4, 0), (0, 4), (-1, 0)]:
            with pytest.raises(ConfigError, match="out of range for 2 bits"):
                function_fit_problem(table, [(0, 0), pair])
        with pytest.raises(ConfigError):
            ground_state_problem(table, Z0)
        with pytest.raises(ConfigError, match="basis label 4 out of range"):
            ground_state_problem(table, EDGE, 4)

    def test_problem_holds_indices(self):
        table = GateTable(2, ["Ry"])
        prob = function_fit_problem(table, [(1, 2), (3, 0)])
        assert (prob.inputs, prob.outputs, prob.hamiltonian) \
            == ((1, 3), (2, 0), None)
        prob = ground_state_problem(table, EDGE, 2)
        assert (prob.inputs, prob.outputs) == ((2,), ())

    def test_one_hot_inputs_built_once(self, monkeypatch):
        # read-only one-hot arrays equal to the basis states, built on
        # first use and shared by the sweep and every prefitness call
        n = 6
        table = GateTable(n, ["Ry", "CNOT"])
        pairs = [(5, 5), (5, 1 << (n - 1) | 5), (3, 3)]
        prob = function_fit_problem(table, pairs)
        assert "one_hots" not in vars(prob)
        circuit = parse_circuit(f"Ry{n - 1}:phi0 CNOT{n - 1},0 Ry0:phi1", n)
        phi, value = optimize_params(circuit, prob)
        hots = prob.one_hots
        kept = kept_states(circuit, prob)
        # the kept states start, and restart, as the one-hot arrays
        # themselves, in a list of their own that moves replace them in
        assert all(a is b for a, b in zip(kept.states, hots, strict=True))
        kept.move_to(1, phi)
        assert not any(a is b for a, b in zip(kept.states, hots))
        kept.move_to(0, phi)
        assert all(a is b for a, b in zip(kept.states, hots, strict=True))
        inputs = logged_inputs(monkeypatch)
        assert prefitness(circuit, phi, prob) == value
        assert len(inputs) == 3 and all(a is b for a, b in zip(inputs, hots))
        for amps, index in zip(hots, prob.inputs):
            assert not amps.flags.writeable
            assert np.array_equal(amps, basis_state(n, index).amplitudes)
        bound = parse_circuit(f"Ry{n - 1}:pi/3 CNOT{n - 1},0", n)
        total = 0.0
        for i, out in pairs:
            amps = apply_circuit_array(basis_state(n, i).amplitudes, n,
                                       bound)
            total += abs(amps[out]) ** 2
        assert prefitness(bound, (), prob) == total / 3
        assert all(np.array_equal(amps, basis_state(n, index).amplitudes)
                   for amps, index in zip(hots, prob.inputs))

    def test_one_hots_belong_to_their_problem(self, monkeypatch):
        # two problems optimized in turn build their one-hots once each,
        # and a problem's one-hots are freed with it
        n = 5
        table = GateTable(n, ["Ry", "CNOT"])
        probs = [function_fit_problem(table, [(1, 3), (4, 6)]),
                 function_fit_problem(table, [(2, 7)])]
        circuit = parse_circuit("Ry0:phi0 CNOT0,1 Ry1:phi1 CNOT1,2", n)
        inputs = logged_inputs(monkeypatch)
        for _ in range(3):
            for prob in probs:
                optimize_params(circuit, prob)
        assert len({id(amps) for amps in inputs}) == 3
        assert all(any(amps is hot for amps in inputs)
                   for prob in probs for hot in prob.one_hots)
        hot = weakref.ref(probs[0].one_hots[0])
        del probs, prob
        inputs.clear()
        gc.collect()
        assert hot() is None

    def test_kept_states_move_in_place(self):
        # a move replaces each of the D kept states as soon as it has moved:
        # at most D + 2 states are live, the D kept ones and the moving
        # one's last gate output and next, with 16 KiB for Python objects
        # (one state is 128 KiB). The one-hots and the CNOT-run tables are
        # built before tracing
        n, d = 14, 6
        table = GateTable(n, ["Ry", "CNOT"])
        prob = function_fit_problem(table,
                                    [(k, k ^ (k >> 1)) for k in range(d)])
        circuit = parse_circuit("CNOT0,1 Ry0:phi0 CNOT1,2 Ry1:phi1", n)
        hots = prob.one_hots
        kept = kept_states(circuit, prob)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept.move_to(1, [0.3, 1.1])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        state = (1 << n) * 8
        assert all(amps.dtype == np.float64 and amps.nbytes == state
                   for amps in kept.states)
        assert peak <= (d + 2) * state + 16384, peak / state
        assert all(np.array_equal(amps, basis_state(n, index).amplitudes)
                   for amps, index in zip(hots, prob.inputs))

    def test_turned_visits_keep_the_peak(self, monkeypatch):
        # a 14-qubit core with CNOTs, so the sweep runs on whole registers,
        # and a Hamiltonian with a flip mask (X0 X1), so H' gathers; every
        # visit after the first turns the kept state. The tracemalloc
        # peak of optimize_params may exceed that of the sweep whose every
        # visit is stacked (``reference.StackedVisits``) by at most 1.1
        # states of 2^14 complex amplitudes, the X kept between visits.
        # Measured (Python 3.11, numpy 2.4.6), stacked -> turned:
        # 1,842,362 -> 1,842,795 B with float64 states and 2,759,371 ->
        # 2,758,419 B once P0 has made them complex; the sweep before
        # turned visits, every visit stacked, peaked at 1,845,463 and
        # 2,760,879 B on the same machine. Each kind runs once
        # untraced first, so the cached kernel matrices are built; the
        # one-hots and the Hamiltonian's cache are built before that. No
        # wrapper that holds a state may be installed while tracing: one
        # holding a suffix run's input keeps it past the run's first gate
        n = 14
        table = GateTable(n, ["Ry", "P", "CNOT"])
        h = PauliSumHamiltonian(n, [
            PauliTerm.from_map(0.7, {0: "X", 1: "X"}),
            PauliTerm.from_map(-1.3, {1: "Z", 2: "Z"}),
            PauliTerm.from_map(0.4, {13: "Z"}),
        ])
        core = ("Ry0:phi0 CNOT0,1 Ry1:phi1 Ry2:phi2 CNOT1,2 Ry13:phi3 "
                "CNOT2,13 Ry0:phi4")
        state = 16 << n

        def peak(text, problem):
            # a new circuit each time: its CNOT-run tables are built anew
            optimize_params(parse_circuit(text, n), problem)
            circuit = parse_circuit(text, n)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                optimize_params(circuit, problem)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        for text in (core, f"P0 {core}"):
            problem = ground_state_problem(table, h)
            h.expectation_array(problem.one_hots[0])
            with monkeypatch.context() as m:
                m.setattr(fitness_mod, "_KeptStates", StackedVisits)
                stacked = peak(text, problem)
            with monkeypatch.context() as m:
                # the first visit stacks, later ones turn (see
                # test_sweep.py's exact run counts)
                visits = record_sinusoids(m)
                turned = peak(text, problem)
            assert len(visits) > 2 * parse_circuit(text, n).n_params
            assert turned <= stacked + 1.1 * state, \
                (stacked, turned, (turned - stacked) / state)


def logged_inputs(monkeypatch):
    """Every read-only state the fitness module simulates from, kept alive
    in call order: these are the problems' one-hot inputs."""
    log = []
    apply = fitness_mod.apply_circuit_array

    def logged(amps, *rest):
        if not amps.flags.writeable:
            log.append(amps)
        return apply(amps, *rest)

    monkeypatch.setattr(fitness_mod, "apply_circuit_array", logged)
    return log


class TestDenseReference:
    """prefitness against the gates' Kronecker matrices and the oracle's
    dense Hamiltonian, on random gene circuits at random angles."""

    @staticmethod
    def bound_unitary(circuit, rng):
        params = [rng.uniform(-20.0, 20.0) for _ in range(circuit.n_params)]
        return params, dense_unitary(bind_params(circuit, params))

    @settings(deadline=None, max_examples=150)
    @given(case=gene_circuits(), seed=st.integers(0, 2**32 - 1))
    def test_function_fit_is_mean_squared_entry(self, case, seed):
        # half the outputs are drawn with the weights |U[out, in]|^2, so
        # most pairs have a nonzero overlap
        _, table, circuit = case
        rng = random.Random(seed)
        params, u = self.bound_unitary(circuit, rng)
        dim = 1 << table.n_bits
        pairs = []
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(dim)
            weights = np.abs(u[:, i]) ** 2 if rng.random() < 0.5 else None
            pairs.append((i, rng.choices(range(dim), weights)[0]))
        want = sum(abs(u[out, i]) ** 2 for i, out in pairs) / len(pairs)
        got = prefitness(circuit, params, function_fit_problem(table, pairs))
        assert abs(got - want) <= 1e-12

    @settings(deadline=None, max_examples=150)
    @given(case=gene_circuits(), seed=st.integers(0, 2**32 - 1))
    def test_ground_state_from_any_initial(self, case, seed):
        _, table, circuit = case
        rng = random.Random(seed)
        n = table.n_bits
        params, u = self.bound_unitary(circuit, rng)
        terms = [PauliTerm.from_map(rng.uniform(-2.0, 2.0), {
                     q: rng.choice("XYZ")
                     for q in rng.sample(range(n), rng.randint(0, n))})
                 for _ in range(rng.randint(0, 6))]
        h = PauliSumHamiltonian(n, terms, shift=rng.uniform(-3.0, 3.0),
                                scale=rng.uniform(-2.0, 2.0))
        initial = rng.randrange(1, 1 << n)
        x = u[:, initial]
        want = -h.scale * (np.vdot(x, dense_matrix(h) @ x).real - h.shift)
        got = prefitness(circuit, params,
                         ground_state_problem(table, h, initial))
        tol = 1e-12 * abs(h.scale) * (
            1.0 + sum(abs(t.coefficient) for t in terms) + abs(h.shift))
        assert abs(got - want) <= tol


class TestOptimizeParams:
    def test_single_ry_on_z(self):
        table = GateTable(1, ["Ry"])
        prob = ground_state_problem(table, Z0)
        phi, value = optimize_params(parse_circuit("Ry0:phi0", 1), prob)
        assert value == 1.0
        assert phi == (math.pi,)

    def test_no_slots_returns_prefitness(self):
        table = GateTable(2, ["X"])
        prob = ground_state_problem(table, EDGE)
        phi, value = optimize_params(parse_circuit("X0", 2), prob)
        assert phi == ()
        assert value == 1.0     # |01> has energy -1

    def test_xx_ring_alternating_pattern(self):
        table = GateTable(4, ["Ry"])
        prob = ground_state_problem(table, XX4)
        circuit = parse_circuit("Ry0:phi0 Ry1:phi1 Ry2:phi2 Ry3:phi3", 4)
        phi, value = optimize_params(circuit, prob)
        assert abs(value - 4.0) < 1e-6
        assert set(phi) <= {math.pi / 2, 3 * math.pi / 2}
        for a, b in zip(phi, phi[1:]):
            assert a != b

    def test_value_at_least_start_point(self):
        rng = random.Random(41)
        table = GateTable(3, ["Ry", "CNOT"])
        prob = ground_state_problem(table, xx_chain(3, 1.0, "open"))
        for _ in range(20):
            gene = random_gene(table.pset, 6, rng)
            circuit = gene_to_circuit(gene, table)
            phi, value = optimize_params(circuit, prob)
            start = [math.pi / 4] * circuit.n_params
            assert value >= prefitness(circuit, start, prob) - 1e-12
            assert abs(value - prefitness(circuit, phi, prob)) < 1e-12


class TestFitness:
    def test_terminal_gene_matches_empty_circuit(self):
        table = GateTable(2, ["Ry"])
        prob = ground_state_problem(table, EDGE)
        gene = make_gene([table.terminal] * 9, 8, table.pset)
        assert CachingFitness(prob)(gene) == -1.0

    def test_variational_bound(self):
        rng = random.Random(42)
        table = GateTable(3, ["Ry", "P", "CNOT"])
        for trial in range(5):
            terms = [PauliTerm.from_map(rng.uniform(-2, 2),
                     {q: rng.choice("XYZ")
                      for q in rng.sample(range(3), rng.randint(1, 3))})
                     for _ in range(4)]
            h = PauliSumHamiltonian(3, terms)
            prob = ground_state_problem(table, h)
            bound = -exact_ground_energy(h)
            for _ in range(15):
                gene = random_gene(table.pset, 6, rng)
                assert CachingFitness(prob)(gene) <= bound + 1e-9

    def test_deterministic(self):
        table = GateTable(3, ["Ry", "CNOT"])
        prob = ground_state_problem(table, xx_chain(3, 1.0, "open"))
        gene = random_gene(table.pset, 6, random.Random(7))
        assert CachingFitness(prob)(gene) == CachingFitness(prob)(gene)

    def test_canonicalized_fitness_unchanged(self):
        rng = random.Random(43)
        table = GateTable(3, ["H", "Ry", "CNOT"])
        prob = ground_state_problem(table, xx_chain(3, 1.0, "open"))
        for _ in range(25):
            gene = random_gene(table.pset, 6, rng)
            rewritten = circuit_to_gene(
                canonicalize(gene_to_circuit(gene, table)), table, 6)
            assert abs(CachingFitness(prob)(gene)
                       - CachingFitness(prob)(rewritten)) < 1e-9

    def test_caching_fitness(self):
        table = GateTable(2, ["Ry"])
        prob = ground_state_problem(table, EDGE)
        cache = CachingFitness(prob)
        gene = random_gene(table.pset, 4, random.Random(1))
        value = cache(gene)
        assert cache(gene) == value
        circuit = cache.bound_circuit(gene)
        assert circuit.n_params == 0
        assert abs(prefitness(circuit, (), prob) - value) < 1e-12

    def test_shared_coding_region_optimized_once(self, monkeypatch):
        # both genes code Ry0 psi0 and differ only past it
        table = GateTable(2, ["Ry"])
        z0 = PauliSumHamiltonian(2, [PauliTerm.from_map(1.0, {0: "Z"})])
        cache = CachingFitness(ground_state_problem(table, z0))
        calls = []

        def counted(circuit, *args):
            calls.append(circuit)
            return optimize_params(circuit, *args)

        monkeypatch.setattr(fitness_mod, "optimize_params", counted)
        a = make_gene((0, 2, 0, 1, 2), 4, table.pset)
        b = make_gene((0, 2, 1, 1, 2), 4, table.pset)
        assert cache(a) == cache(b)
        assert cache.bound_circuit(a) == cache.bound_circuit(b)
        assert len(calls) == 1


def rewrite(gene, table):
    """The gene of the canonical circuit, built directly at every call."""
    circuit = canonicalize(gene_to_circuit(gene, table))
    return circuit_to_gene(circuit, table, gene.head_len)


@st.composite
def gate_set_genes(draw):
    """(table, gene): a random gate set on 1-4 qubits, any head length."""
    n = draw(st.integers(1, 4))
    usable = [k for k, kind in GATE_KINDS.items() if n > 1 or kind.n_qubits == 1]
    kinds = draw(st.lists(st.sampled_from(usable), min_size=1, unique=True))
    table = GateTable(n, kinds)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return table, random_gene(table.pset, draw(st.integers(1, 14)), rng)


@st.composite
def repeating_genes(draw):
    """(table, gene, problem): a gene on 1-9 qubits over any gate kinds
    usable there, at head length 1-14, whose coding region is runs of a
    few symbols, the first run at least two long where the head allows,
    so adjacent gates cancel, fuse and commute; and a GroundState or
    FunctionFit problem whose inputs are nonzero basis states."""
    n = draw(st.integers(1, 9))
    usable = [k for k, kind in GATE_KINDS.items() if n > 1 or kind.n_qubits == 1]
    kinds = draw(st.lists(st.sampled_from(usable), min_size=1, unique=True))
    table = GateTable(n, kinds, draw(st.sampled_from([math.pi / 2, 0.3])))
    head, terminal = draw(st.integers(1, 14)), table.terminal
    pool = draw(st.lists(st.integers(0, terminal - 1), min_size=1,
                         max_size=4))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)),
                         min_size=1, max_size=head))
    runs[0] = runs[0][0], max(runs[0][1], 2)
    coding = [symbol for symbol, times in runs for _ in range(times)][:head]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    filler = [rng.choice(table.pset.all_symbols)
              for _ in range(head - len(coding) - 1)]
    symbols = coding + [terminal] + filler + [terminal] * (len(coding) < head)
    gene = make_gene(symbols, head, table.pset)
    if draw(st.booleans()):
        return table, gene, ground_state_problem(
            table, PauliSumHamiltonian(n, []), rng.randrange(1, 1 << n))
    pairs = [(rng.randrange(1, 1 << n), rng.randrange(1 << n))
             for _ in range(rng.randint(1, 3))]
    return table, gene, function_fit_problem(table, pairs)


class TestCanonicalRecord:
    @settings(deadline=None, max_examples=300)
    @given(gate_set_genes())
    def test_canonical_gene_decodes_to_canonical_circuit(self, case):
        table, gene = case
        cache = CachingFitness(function_fit_problem(table, [(0, 0)]))
        canon = cache.canonical(gene)
        assert gene_to_circuit(canon, table) \
            == canonicalize(gene_to_circuit(gene, table))
        assert canon == rewrite(gene, table)
        assert cache.canonical(canon) == canon

    def test_canonicalize_runs_once_per_coding_region(self, monkeypatch):
        table = GateTable(3, ["H", "X", "P", "Ry", "CNOT"])
        cache = CachingFitness(function_fit_problem(table, [(0, 0)]))
        calls = []

        def counted(coding, table):
            calls.append(coding)
            return canonical_coding(coding, table)

        monkeypatch.setattr(fitness_mod, "canonical_coding", counted)
        rng = random.Random(19)
        genes = [random_gene(table.pset, 3, rng) for _ in range(200)]
        genes += genes[:50]
        regions = {g.symbols[:coding_length(g)] for g in genes}
        assert len(regions) < 200      # head 3: coding regions repeat
        canon = [cache.canonical(g) for g in genes]
        assert canon == [rewrite(g, table) for g in genes]
        # a region is canonicalized on its first sight, unless it is the
        # canonical region of a gene seen before, which is recorded as its
        # own canonical form
        known, expected = set(), []
        for gene, rewritten in zip(genes, canon):
            region = gene.symbols[:coding_length(gene)]
            if region not in known:
                expected.append(region)
            known |= {region, rewritten.symbols[:coding_length(rewritten)]}
        assert calls == expected
        assert len(calls) < len(regions)    # some regions are canonical
        # the fitness of any of these genes, canonical ones included,
        # canonicalizes nothing more
        for gene in genes + canon:
            cache(gene)
        assert calls == expected

    def test_gene_at_the_callers_head_length(self):
        # Ry0 Ry0 fuses to one Ry0; both genes code Ry0 Ry0 psi0
        table = GateTable(2, ["Ry"])
        cache = CachingFitness(function_fit_problem(table, [(0, 0)]))
        short = make_gene((0, 0, 2, 1, 2), 4, table.pset)
        long = make_gene((0, 0, 2, 0, 1, 1, 2), 6, table.pset)
        for gene in (short, long, short):
            canon = cache.canonical(gene)
            assert canon.head_len == gene.head_len
            assert canon == rewrite(gene, table)
            assert canon.symbols[:2] == (0, 2)

    def test_evolution_matches_direct_rewrite(self):
        table = GateTable(4, ["Ry", "P", "CNOT"])
        problem = ground_state_problem(table, xx_chain(4, 1.0, "open"))
        cfg = EvolutionConfig(generations=4, head_len=6, population_size=10,
                              seed=5)
        cache = CachingFitness(problem)
        ours = run_evolution(cfg, table.pset, cache,
                             canonicalize=cache.canonical)
        hook = run_evolution(cfg, table.pset, CachingFitness(problem),
                             canonicalize=lambda g: rewrite(g, table))
        assert ours.population == hook.population
        assert ours.fitnesses == hook.fitnesses
        assert ours.stats == hook.stats

    @settings(deadline=None, max_examples=400)
    @given(repeating_genes())
    def test_symbol_records_match_the_circuit_path(self, case):
        # the record CachingFitness builds from symbols equals the one
        # built from the canonical circuit: canonicalize, re-encode, and
        # find the ends on the circuit's gates
        table, gene, problem = case
        assert not table._records     # filled on first use only
        coding = gene.symbols[:coding_length(gene)]
        circuit = canonicalize(coding_circuit(coding, table))
        m = len(circuit.gates)
        canon = circuit_to_gene(circuit, table, gene.head_len).symbols[:m + 1]
        lead, end, entries, outputs = fitness_mod._permutation_ends(
            [g.qubits if g.kind.n_qubits == 2 else None
             for g in circuit.gates], problem)
        expected = canon, (entries, canon[m - end:m - lead], outputs)
        cache = CachingFitness(problem)
        assert cache._canonical_coding(gene) == expected
        assert cache._canonical[canon] == expected


def forbidden(*args):
    raise AssertionError("called")


class TestEmptyFunctionFitCores:
    def cases(self):
        """(circuit, pairs): CNOT-only circuits on 4 qubits, 0-6 gates, and
        the empty circuit on 1 qubit, each with pairs its permutation
        satisfies, input to its image, pairs mapping an input to itself,
        and random pairs."""
        rng = random.Random(31)
        table = GateTable(4, ["Ry", "CNOT"])
        cnots = [s for s, (kind, _) in enumerate(table.placements)
                 if kind.name == "CNOT"]
        circuits = [coding_circuit(tuple(rng.choice(cnots)
                                         for _ in range(length))
                                   + (table.terminal,), table)
                    for length in range(7) for _ in range(4)]
        circuits.append(QuantumCircuit(1, ()))
        for circuit in circuits:
            n = circuit.n_bits

            def image(index):
                amps = apply_circuit_array(basis_state(n, index).amplitudes,
                                           n, circuit)
                return int(np.flatnonzero(amps)[0])

            inputs = [rng.randrange(1 << n) for _ in range(8)]
            yield circuit, [(i, image(i)) for i in inputs]
            yield circuit, [(i, i) for i in inputs]
            yield circuit, [(i, rng.randrange(1 << n)) for i in inputs]
            yield circuit, [(i, image(i) if k % 2 else i ^ 1)
                            for k, i in enumerate(inputs)]

    def test_scored_from_indices(self, monkeypatch):
        # a FunctionFit circuit of CNOTs alone, or of no gate, has an
        # empty core: its value is each pair's 1.0 or 0.0, read off its
        # moved indices, with no one-hot built and no gate applied, equal
        # to the whole circuit's prefitness, through optimize_params and
        # through CachingFitness
        values = set()
        for circuit, pairs in self.cases():
            table = GateTable(circuit.n_bits, ["Ry", "CNOT"][:circuit.n_bits])
            expected = prefitness(circuit, (), function_fit_problem(table,
                                                                    pairs))
            values.add(expected)
            gene = circuit_to_gene(circuit, table, max(len(circuit), 1))
            with monkeypatch.context() as m:
                m.setattr(fitness_mod, "_one_hot", forbidden)
                m.setattr(fitness_mod, "apply_circuit_array", forbidden)
                problem = function_fit_problem(table, pairs)
                assert optimize_params(circuit, problem) == ((), expected)
                assert CachingFitness(problem)(gene) == expected
        assert {0.0, 1.0} < values


@st.composite
def gene_problems(draw):
    """(table, gene, problem): a gene of ``gate_set_genes`` and a random
    Pauli sum from a random basis state, or random index pairs."""
    table, gene = draw(gate_set_genes())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = table.n_bits
    if draw(st.booleans()):
        return table, gene, ground_state_problem(
            table, random_pauli_sum(n, rng), rng.randrange(1 << n))
    pairs = [(rng.randrange(1 << n), rng.randrange(1 << n))
             for _ in range(rng.randint(1, 3))]
    return table, gene, function_fit_problem(table, pairs)


def count_calls(monkeypatch, name):
    """Log the first argument of every call of fitness module's ``name``."""
    calls = []
    original = getattr(fitness_mod, name)

    def counted(circuit, *args):
        calls.append(circuit)
        return original(circuit, *args)

    monkeypatch.setattr(fitness_mod, name, counted)
    return calls


def count_sweeps(monkeypatch):
    """Log the core key, (entries, core gates, outputs), that every sweep
    ``CachingFitness`` runs through the fitness module's
    ``optimize_params`` hands in with its core."""
    calls = []
    original = fitness_mod.optimize_params

    def counted(core, problem, ends):
        calls.append((ends[0], core.gates, ends[1]))
        return original(core, problem, ends)

    monkeypatch.setattr(fitness_mod, "optimize_params", counted)
    return calls


def adjacent_same_qubit_ry(circuit):
    return any(a.kind.name == b.kind.name == "Ry" and a.qubits == b.qubits
               for a, b in zip(circuit.gates, circuit.gates[1:]))


def core_key(circuit, problem):
    """(entries, core gates, outputs) of a circuit, by simulation: the lead
    is its leading CNOTs and, for FunctionFit, the tail its trailing ones;
    an entry is the basis index where the lead takes an input's one-hot,
    and a pulled-back output the basis index the tail takes to the
    output."""
    n, gates = circuit.n_bits, circuit.gates
    lead = next((i for i, gate in enumerate(gates)
                 if gate.kind.name != "CNOT"), len(gates))
    end = len(gates)
    while (problem.outputs and end > lead
           and gates[end - 1].kind.name == "CNOT"):
        end -= 1

    def image(index, part):
        amps = apply_circuit_array(basis_state(n, index).amplitudes, n,
                                   QuantumCircuit(n, part))
        return int(np.flatnonzero(amps)[0])

    entries = tuple(image(index, gates[:lead]) for index in problem.inputs)
    outputs = tuple(next(j for j in range(1 << n)
                         if image(j, gates[end:]) == out)
                    for out in problem.outputs)
    return entries, gates[lead:end], outputs


class TestCanonicalFitness:
    @settings(deadline=None, max_examples=150)
    @given(gene_problems())
    def test_fitness_is_the_canonical_circuits_optimum(self, case):
        table, gene, problem = case
        circuit = canonicalize(gene_to_circuit(gene, table))
        angles, value = optimize_params(circuit, problem)
        cache = CachingFitness(problem)
        assert cache(gene) == value
        assert cache.bound_circuit(gene) == bind_params(circuit, angles)

    def test_one_core_key_one_sweep(self, monkeypatch):
        # genomes whose canonical circuits share one core key, found here
        # by simulation (``core_key``), share one sweep, one fitness and
        # one angle vector; genomes of different keys are swept apart. On
        # GroundState from a nonzero initial state the lead moves it, and
        # on FunctionFit the tail pulls the outputs back too
        table = GateTable(3, ["H", "Ry", "CNOT"])
        optimized = count_sweeps(monkeypatch)
        for problem in (
                ground_state_problem(table, random_pauli_sum(
                    3, random.Random(5)), 5),
                function_fit_problem(table, [(1, 6), (4, 4), (7, 2)])):
            cache = CachingFitness(problem)
            optimized.clear()
            rng = random.Random(23)
            groups = {}
            for _ in range(600):
                gene = random_gene(table.pset, 5, rng)
                circuit = canonicalize(gene_to_circuit(gene, table))
                groups.setdefault(core_key(circuit, problem), []).append(gene)
            for genes in groups.values():
                values = {cache(gene) for gene in genes}
                angles = {tuple(gate.angle for gate in
                                cache.bound_circuit(gene).gates
                                if gate.kind.name == "Ry")
                          for gene in genes}
                assert len(values) == len(angles) == 1
            # each sweep runs on the core of a canonical circuit, with
            # its entries and pulled-back outputs
            assert optimized == list(groups)
            # keys are shared by canonical circuits that differ in their
            # ends, and by genomes of different coding regions
            texts = [{circuit_to_string(canonicalize(gene_to_circuit(
                          gene, table))) for gene in genes}
                     for genes in groups.values()]
            assert any(len(t) > 1 for t in texts)
            assert any(len({g.symbols[:coding_length(g)] for g in genes}) > 1
                       for genes in groups.values())

    def test_ends_found_once_per_canonical_circuit(self, monkeypatch):
        # CachingFitness splits each coding region it canonicalizes at its
        # permutation ends once, for its core key, and hands the split to
        # the sweep, which it reaches through the module's optimize_params
        # (the name the benchmark counts by) and which does not split the
        # circuit again
        table = GateTable(3, ["H", "Ry", "CNOT"])
        for problem in (
                ground_state_problem(table, random_pauli_sum(
                    3, random.Random(5)), 5),
                function_fit_problem(table, [(1, 6), (4, 4), (7, 2)])):
            ends = count_calls(monkeypatch, "_permutation_ends")
            canonicalized = count_calls(monkeypatch, "canonical_coding")
            optimized = []
            sweep = fitness_mod.optimize_params

            def counted(core, problem, indices):
                optimized.append(len(ends))
                result = sweep(core, problem, indices)
                assert len(ends) == optimized[-1]
                return result

            monkeypatch.setattr(fitness_mod, "optimize_params", counted)
            cache = CachingFitness(problem)
            rng = random.Random(29)
            for _ in range(300):
                cache(random_gene(table.pset, 5, rng))
            assert len(ends) == len(canonicalized) > len(optimized) > 50
            monkeypatch.undo()

    def test_evolution_canonicalizes_each_coding_region_once(self,
                                                            monkeypatch):
        # Canonicalize = 1: the hook canonicalizes a coding region, and
        # the fitness of the canonical gene canonicalizes nothing again
        table = GateTable(4, ["Ry", "P", "CNOT"])
        problem = ground_state_problem(table, xx_chain(4, 1.0, "open"))
        calls = count_calls(monkeypatch, "canonical_coding")
        optimized = count_sweeps(monkeypatch)
        hooked = []
        cache = CachingFitness(problem)

        def hook(gene):
            hooked.append(gene.symbols[:coding_length(gene)])
            return cache.canonical(gene)

        cfg = EvolutionConfig(generations=4, head_len=6, population_size=10,
                              seed=5)
        run_evolution(cfg, table.pset, cache, canonicalize=hook)
        # the coding regions canonicalized, each once
        assert calls
        assert len(calls) == len(set(calls)) <= len(set(hooked))
        # each sweep runs once, on the core of a hooked region's canonical
        # circuit
        assert len(optimized) == len(set(optimized))
        assert set(optimized) <= {
            core_key(canonicalize(coding_circuit(coding, table)), problem)
            for coding in hooked}

    def test_adjacent_ry_reach_the_sweep_fused(self, monkeypatch):
        # the fitness optimizes the canonical circuit of this decoded
        # circuit, where the adjacent Ry1 Ry1 pair (and the Ry0/Ry1 pairs
        # around the CNOTs) are one slot each, and settles
        table = GateTable(2, ["Ry", "P", "CNOT"])
        h = PauliSumHamiltonian(2, [
            PauliTerm.from_map(1.126, {1: "X"}),
            PauliTerm.from_map(-1.465, {0: "X", 1: "Y"}),
            PauliTerm.from_map(-1.84, {0: "X", 1: "X"}),
            PauliTerm.from_map(1.363, {0: "X", 1: "Z"}),
        ])
        problem = ground_state_problem(table, h, initial=3)
        circuit = parse_circuit(
            "P1 Ry1:phi0 Ry1:phi1 CNOT0,1 Ry1:phi2 Ry0:phi3 CNOT1,0 CNOT1,0 "
            "CNOT1,0 Ry1:phi4 Ry0:phi5 Ry1:phi6", 2)
        gene = circuit_to_gene(circuit, table, len(circuit.gates))
        assert gene_to_circuit(gene, table) == circuit
        assert adjacent_same_qubit_ry(circuit)
        optimized = count_calls(monkeypatch, "optimize_params")
        visits = record_sinusoids(monkeypatch)
        CachingFitness(problem)(gene)
        assert optimized == [canonicalize(circuit)]
        assert not adjacent_same_qubit_ry(optimized[0])
        assert len(visits) < 100 * optimized[0].n_params
