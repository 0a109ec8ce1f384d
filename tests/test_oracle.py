"""Brute-force oracle tests: hand-enumerable cases plus cross-checks."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gepcirc.engine import ConfigError
from gepcirc.hamiltonians import (
    Graph,
    PauliSumHamiltonian,
    PauliTerm,
    cut_value,
    heisenberg_2d,
    ising_from_graph,
    xx_chain,
)
from gepcirc.oracle import (
    ENUM_CAP,
    block_labels,
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


@st.composite
def exchange_sums(draw, max_bits=6):
    """XX+YY bonds, some with ZZ: their |00><11| parts cancel to exact
    zeros, which split the matrix by the number of up spins."""
    n = draw(st.integers(2, max_bits))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.lists(st.integers(0, n - 1), unique=True,
                             min_size=2, max_size=2))
        coefficient = draw(st.floats(-5.0, 5.0, allow_nan=False))
        for pauli in draw(st.sampled_from(["XY", "XYZ"])):
            terms.append(PauliTerm.from_map(coefficient, {i: pauli, j: pauli}))
    return PauliSumHamiltonian(n, terms)


@st.composite
def diagonal_sums(draw, max_bits=6):
    """Z strings only: every basis state is a block of its own."""
    n = draw(st.integers(1, max_bits))
    terms = [PauliTerm.from_map(
                 draw(st.floats(-5.0, 5.0, allow_nan=False)),
                 dict.fromkeys(draw(st.lists(st.integers(0, n - 1),
                                             unique=True, max_size=n)), "Z"))
             for _ in range(draw(st.integers(0, 6)))]
    return PauliSumHamiltonian(n, terms)


@st.composite
def one_block_sums(draw, max_bits=6):
    """A nonzero X on every qubit joins every basis state to every other;
    Z strings add only diagonal entries, so nothing cancels."""
    h = draw(diagonal_sums(max_bits))
    fields = [PauliTerm.from_map(
                  draw(st.floats(0.5, 5.0)) * draw(st.sampled_from([-1, 1])),
                  {q: "X"}) for q in range(h.n_bits)]
    return PauliSumHamiltonian(h.n_bits, fields + list(h.terms))


@st.composite
def rescaled_sums(draw):
    h = draw(st.one_of(pauli_sums(), exchange_sums(), diagonal_sums(),
                       one_block_sums()))
    shift = draw(st.floats(-5.0, 5.0, allow_nan=False))
    scale = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.0, 3.0))
    return h.rescaled(shift, scale)


def reference_labels(matrix):
    """Least index of each index's component, by union-find over the
    nonzero entries."""
    parent = list(range(len(matrix)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(matrix)):
        a, b = root(int(i)), root(int(j))
        parent[max(a, b)] = min(a, b)
    return np.array([root(i) for i in range(len(matrix))])


K3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))


def rand_graph(n, rng, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, tuple(edges))


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True))
                          if pairs else ()))


class TestIsingEnumeration:
    # the Ising minimizers are the maximum cuts, read from brute_force_maxcut
    def test_triangle(self):
        assert exhaustive_ising_ground(K3) == -1.0
        assert len(brute_force_maxcut(K3)[1]) == 6  # all but 000 and 111

    def test_edgeless(self):
        assert exhaustive_ising_ground(Graph(3, ())) == 0.0
        assert brute_force_maxcut(Graph(3, ()))[1].tolist() == list(range(8))

    def test_four_cycle(self):
        assert exhaustive_ising_ground(C4) == -4.0
        assert brute_force_maxcut(C4)[1].tolist() == [0b0101, 0b1010]

    def test_cap(self):
        with pytest.raises(ConfigError):
            exhaustive_ising_ground(Graph(25, ()))


class TestMaxCut:
    def test_single_edge(self):
        assert brute_force_maxcut(Graph(2, ((0, 1),)))[0] == 1

    def test_four_cycle(self):
        best, winners = brute_force_maxcut(C4)
        assert best == 4
        assert winners.tolist() == [0b0101, 0b1010]

    def test_complete_four(self):
        assert brute_force_maxcut(K4)[0] == 4

    def test_duality_with_ising(self):
        rng = random.Random(30)
        for _ in range(25):
            g = rand_graph(rng.randint(2, 9), rng)
            e_min = exhaustive_ising_ground(g)
            cut, _ = brute_force_maxcut(g)
            assert 2 * cut + e_min == len(g.edges)

    @settings(deadline=None, max_examples=100)
    @given(g=graphs())
    def test_equals_per_index_enumeration(self, g):
        cuts = [cut_value(g, b) for b in range(1 << g.n)]
        best, winners = brute_force_maxcut(g)
        assert isinstance(best, int) and best == max(cuts)
        assert winners.tolist() == [b for b, c in enumerate(cuts) if c == best]
        spins = [[1 - 2 * ((b >> v) & 1) for v in range(g.n)]
                 for b in range(1 << g.n)]
        energy = min(sum(s[i] * s[j] for i, j in g.edges) for s in spins)
        e_min = exhaustive_ising_ground(g)
        assert type(e_min) is float and e_min == energy

    def test_ring_at_cap(self):
        n = ENUM_CAP
        ring = Graph(n, tuple((v, (v + 1) % n) for v in range(n)))
        best, winners = brute_force_maxcut(ring)
        assert best == 24
        assert winners.tolist() == [0x555555, 0xAAAAAA]
        assert exhaustive_ising_ground(ring) == -24.0


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
            enum = exhaustive_ising_ground(g)
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

    @settings(deadline=None, max_examples=200)
    @given(h=rescaled_sums())
    @example(h=PauliSumHamiltonian(4, [
        PauliTerm.from_map(c, {i: p, j: p})
        for c, i, j, paulis in ((1e-160, 1, 3, "XYZ"), (-1.5, 1, 2, "XY"))
        for p in paulis]))
    def test_blocks_match_whole_matrix(self, h):
        # entries whose squares underflow throw the whole-matrix solve off
        # (the example's whole matrix reads -3.0000926, its blocks and
        # exact arithmetic -3): entries below 2^-400 max|H| are zeroed,
        # which by Weyl's inequality moves each eigenvalue by at most
        # 2^n 2^-400 max|H|
        matrix = dense_matrix(h)
        matrix[np.abs(matrix) < 2.0 ** -400 * np.abs(matrix).max(
            initial=0.0)] = 0.0
        whole = np.linalg.eigvalsh(matrix)
        expected = np.min(h.scale * (whole - h.shift))
        size = 1 + sum(abs(t.coefficient) for t in h.terms) + abs(h.shift)
        assert abs(exact_ground_energy(h) - expected) \
            <= 1e-12 * abs(h.scale) * size

    @settings(deadline=None, max_examples=200)
    @given(h=st.one_of(pauli_sums(), exchange_sums(), diagonal_sums(),
                       one_block_sums()))
    def test_no_entry_joins_two_blocks(self, h):
        matrix = dense_matrix(h)
        labels = block_labels(matrix)
        rows, cols = np.nonzero(matrix)
        assert np.array_equal(labels[rows], labels[cols])
        assert np.array_equal(labels, reference_labels(matrix))

    @settings(deadline=None, max_examples=50)
    @given(h=diagonal_sums())
    def test_diagonal_sum_has_one_state_blocks(self, h):
        labels = block_labels(dense_matrix(h))
        assert np.array_equal(labels, np.arange(1 << h.n_bits))

    @settings(deadline=None, max_examples=50)
    @given(h=one_block_sums())
    def test_fields_on_every_qubit_make_one_block(self, h):
        assert not block_labels(dense_matrix(h)).any()

    @pytest.mark.parametrize("h, sizes", [
        (heisenberg_2d(3, 3), [1, 1, 9, 9, 36, 36, 84, 84, 126, 126]),
        (xx_chain(10, 1.0, "open"), [512, 512]),
    ])
    def test_block_sizes(self, h, sizes):
        _, counts = np.unique(block_labels(dense_matrix(h)),
                              return_counts=True)
        assert sorted(counts) == sizes

    def test_heisenberg_equals_kronecker_products(self):
        h = heisenberg_2d(3, 3)
        dense, reference = dense_matrix(h), kron_matrix(h)
        assert np.array_equal(dense, reference)
        assert np.linalg.eigvalsh(dense).min() == \
            np.linalg.eigvalsh(reference).min()
