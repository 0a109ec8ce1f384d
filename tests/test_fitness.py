"""Pre-fitness, parameter optimization, and fitness-binding tests."""

import math
import random

import pytest

import gepcirc.fitness as fitness_mod
from gepcirc.engine import ConfigError, make_gene, random_gene
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
from gepcirc.oracle import exact_ground_energy
from gepcirc.sim import (
    GateTable,
    basis_state,
    canonicalize,
    circuit_to_gene,
    gene_to_circuit,
    parse_circuit,
)

Z0 = PauliSumHamiltonian(1, [PauliTerm.from_map(1.0, {0: "Z"})])
EDGE = ising_from_graph(Graph(2, ((0, 1),)))
XX4 = xx_chain(4, 1.0, "periodic")


class TestPrefitness:
    def test_empty_circuit_identity_pair(self):
        table = GateTable(1, ["Ry"])
        prob = function_fit_problem(
            table, [(basis_state(1, 0), basis_state(1, 0))])
        assert prefitness(parse_circuit("", 1), (), prob) == 1.0

    def test_empty_circuit_ground_state(self):
        table = GateTable(2, ["Ry"])
        prob = ground_state_problem(table, EDGE, basis_state(2, 0))
        assert prefitness(parse_circuit("", 2), (), prob) == -1.0

    def test_known_xx_circuit(self):
        table = GateTable(4, ["Ry"])
        prob = ground_state_problem(table, XX4)
        circuit = parse_circuit("Ry0:3pi/2 Ry1:pi/2 Ry2:3pi/2 Ry3:pi/2", 4)
        assert abs(prefitness(circuit, (), prob) - 4.0) < 1e-9

    def test_function_fit_mean_over_pairs(self):
        table = GateTable(1, ["X"])
        prob = function_fit_problem(
            table,
            [(basis_state(1, 0), basis_state(1, 1)),    # X fixes this one
             (basis_state(1, 0), basis_state(1, 0))])   # and breaks this one
        assert prefitness(parse_circuit("X0", 1), (), prob) == 0.5

    def test_function_fit_bounded(self):
        rng = random.Random(40)
        table = GateTable(2, ["H", "Ry", "CNOT"])
        prob = function_fit_problem(
            table, [(basis_state(2, 0), basis_state(2, 3))])
        for _ in range(50):
            gene = random_gene(table.pset, 6, rng)
            value = CachingFitness(prob)(gene)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_problem_validation(self):
        table = GateTable(2, ["Ry"])
        with pytest.raises(ConfigError):
            function_fit_problem(table, [])
        with pytest.raises(ConfigError):
            function_fit_problem(
                table, [(basis_state(1, 0), basis_state(1, 0))])
        with pytest.raises(ConfigError):
            ground_state_problem(table, Z0)


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
