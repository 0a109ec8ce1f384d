"""Brute-force oracle tests: hand-enumerable cases plus cross-checks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gepcirc.engine import ConfigError
from gepcirc.hamiltonians import (
    Graph,
    PauliSumHamiltonian,
    PauliTerm,
    heisenberg_2d,
    ising_from_graph,
    xx_chain,
)
from gepcirc.oracle import (
    brute_force_maxcut,
    dense_matrix,
    exact_ground_energy,
    exhaustive_ising_ground,
)

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_matrix(h):
    """Reference: each term as a Kronecker product of 2x2 factors."""
    dim = 1 << h.n_bits
    total = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        paulis = dict(term.ops)
        mat = np.eye(1, dtype=complex)
        # qubit 0 is the least significant bit, so it is the last factor
        for q in range(h.n_bits - 1, -1, -1):
            mat = np.kron(mat, PAULI_1Q[paulis.get(q, "I")])
        total += term.coefficient * mat
    return total


@st.composite
def pauli_sums(draw, max_bits=6):
    n = draw(st.integers(1, max_bits))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        qubits = draw(st.lists(st.integers(0, n - 1), unique=True,
                               max_size=n))
        ops = {q: draw(st.sampled_from("XYZ")) for q in qubits}
        coefficient = draw(st.floats(-5.0, 5.0, allow_nan=False))
        terms.append(PauliTerm.from_map(coefficient, ops))
    return PauliSumHamiltonian(n, terms)


K3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))


def rand_graph(n, rng, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, tuple(edges))


class TestIsingEnumeration:
    def test_triangle(self):
        res = exhaustive_ising_ground(K3)
        assert res.ground_energy == -1.0
        assert res.degeneracy == 6          # all but 000 and 111

    def test_edgeless(self):
        res = exhaustive_ising_ground(Graph(3, ()))
        assert res.ground_energy == 0.0
        assert res.minimizers == tuple(range(8))

    def test_four_cycle(self):
        res = exhaustive_ising_ground(C4)
        assert res.ground_energy == -4.0
        assert res.minimizers == (0b0101, 0b1010)

    def test_cap(self):
        with pytest.raises(ConfigError):
            exhaustive_ising_ground(Graph(25, ()))


class TestMaxCut:
    def test_single_edge(self):
        assert brute_force_maxcut(Graph(2, ((0, 1),)))[0] == 1

    def test_four_cycle(self):
        best, winners = brute_force_maxcut(C4)
        assert best == 4
        assert winners == (0b0101, 0b1010)

    def test_complete_four(self):
        assert brute_force_maxcut(K4)[0] == 4

    def test_duality_with_ising(self):
        rng = random.Random(30)
        for _ in range(25):
            g = rand_graph(rng.randint(2, 9), rng)
            e_min = exhaustive_ising_ground(g).ground_energy
            cut, _ = brute_force_maxcut(g)
            assert 2 * cut + e_min == len(g.edges)


class TestDenseDiagonalization:
    def test_single_z(self):
        h = PauliSumHamiltonian(1, [PauliTerm.from_map(1.0, {0: "Z"})])
        assert abs(exact_ground_energy(h) - (-1.0)) < 1e-12

    def test_xx_ring(self):
        assert abs(exact_ground_energy(xx_chain(4, 1.0, "periodic")) - (-4.0)) \
            < 1e-8
        assert abs(exact_ground_energy(xx_chain(4, 1.0, "open")) - (-3.0)) \
            < 1e-8
        assert abs(exact_ground_energy(xx_chain(2, 1.0, "open")) - (-1.0)) \
            < 1e-8

    def test_heisenberg_singlet(self):
        assert abs(exact_ground_energy(heisenberg_2d(1, 2)) - (-3.0)) < 1e-8

    def test_agrees_with_enumeration_on_ising(self):
        rng = random.Random(31)
        for _ in range(10):
            g = rand_graph(rng.randint(2, 8), rng)
            dense = exact_ground_energy(ising_from_graph(g))
            enum = exhaustive_ising_ground(g).ground_energy
            assert abs(dense - enum) < 1e-8

    def test_shift_scale_applied(self):
        h = PauliSumHamiltonian(1, [PauliTerm.from_map(1.0, {0: "Z"})],
                                shift=1.0, scale=-2.0)
        # eigenvalues of -2*(Z - 1) are 0 and 4
        assert abs(exact_ground_energy(h)) < 1e-12

    def test_hermitian(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.randint(1, 4)
            terms = [PauliTerm.from_map(rng.uniform(-1, 1),
                     {q: rng.choice("XYZ")
                      for q in rng.sample(range(n), rng.randint(1, n))})
                     for _ in range(4)]
            m = dense_matrix(PauliSumHamiltonian(n, terms))
            assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_cap(self):
        with pytest.raises(ConfigError):
            exact_ground_energy(PauliSumHamiltonian(11, []))

    @settings(deadline=None, max_examples=150)
    @given(h=pauli_sums())
    def test_equals_kronecker_products(self, h):
        assert np.array_equal(dense_matrix(h), kron_matrix(h))

    def test_heisenberg_equals_kronecker_products(self):
        h = heisenberg_2d(3, 3)
        dense, reference = dense_matrix(h), kron_matrix(h)
        assert np.array_equal(dense, reference)
        assert np.linalg.eigvalsh(dense).min() == \
            np.linalg.eigvalsh(reference).min()
