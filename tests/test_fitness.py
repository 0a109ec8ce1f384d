"""Pre-fitness, parameter optimization, and fitness-binding tests."""

import gc
import math
import random
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
    apply_circuit_array,
    basis_state,
    bind_params,
    canonicalize,
    circuit_to_gene,
    gene_to_circuit,
    parse_circuit,
)

from test_sim import dense_unitary, gene_circuits

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
        kept = fitness_mod._KeptStates(circuit, prob)
        assert kept.states is hots
        kept.move_to(1, phi)
        kept.move_to(0, phi)
        assert kept.states is hots
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

    def test_gradient_refine_leaves_grid(self):
        # 0.6*Z + 0.8*X has ground energy exactly -1 at an off-grid angle
        h = PauliSumHamiltonian(1, [PauliTerm.from_map(0.6, {0: "Z"}),
                                    PauliTerm.from_map(0.8, {0: "X"})])
        table = GateTable(1, ["Ry"])
        coarse = ground_state_problem(table, h)
        refined = ground_state_problem(table, h, refine=True)
        circuit = parse_circuit("Ry0:phi0", 1)
        _, v_coarse = optimize_params(circuit, coarse)
        phi, v_fine = optimize_params(circuit, refined)
        assert v_fine >= v_coarse
        assert v_coarse < 1.0 - 1e-3        # grid alone cannot reach it
        assert v_fine > 1.0 - 1e-5
        assert abs(v_fine - exact_ground_energy(h) * -1.0) < 1e-5


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
        params = cache.params_for(gene)
        circuit = gene_to_circuit(gene, table)
        assert abs(prefitness(circuit, params, prob) - value) < 1e-12

    def test_shared_coding_region_optimized_once(self, monkeypatch):
        # both genes code Ry0 psi0 and differ only past it
        table = GateTable(2, ["Ry"])
        z0 = PauliSumHamiltonian(2, [PauliTerm.from_map(1.0, {0: "Z"})])
        cache = CachingFitness(ground_state_problem(table, z0))
        calls = []

        def counted(circuit, problem):
            calls.append(circuit)
            return optimize_params(circuit, problem)

        monkeypatch.setattr(fitness_mod, "optimize_params", counted)
        a = make_gene((0, 2, 0, 1, 2), 4, table.pset)
        b = make_gene((0, 2, 1, 1, 2), 4, table.pset)
        assert cache(a) == cache(b)
        assert cache.params_for(a) == cache.params_for(b)
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

        def counted(circuit):
            calls.append(circuit)
            return canonicalize(circuit)

        monkeypatch.setattr(fitness_mod, "canonicalize", counted)
        rng = random.Random(19)
        genes = [random_gene(table.pset, 3, rng) for _ in range(200)]
        genes += genes[:50]
        regions = {g.symbols[:coding_length(g)] for g in genes}
        assert len(regions) < 200      # head 3: coding regions repeat
        canon = [cache.canonical(g) for g in genes]
        assert len(calls) == len(regions)
        assert canon == [rewrite(g, table) for g in genes]

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
