"""Hamiltonian construction, expectation values, MaxCut readout, file formats."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gepcirc.engine import ConfigError
from gepcirc.hamiltonians import (
    Graph,
    ImaginaryResidueError,
    PauliSumHamiltonian,
    PauliTerm,
    cut_value,
    heisenberg_2d,
    ising_from_graph,
    load_graph,
    load_pauli_sum,
    maxcut_rows,
    xx_chain,
)
from gepcirc.oracle import dense_matrix
from gepcirc.sim import (StateVector, apply_circuit_array, basis_state,
                         parse_circuit)

from writers import save_graph, save_pauli_sum


def rand_state(n, rng):
    amps = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for _ in range(1 << n)])
    return StateVector(n, amps / np.linalg.norm(amps))


def rand_graph(n, rng, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, tuple(edges))


def rand_hamiltonian(n, rng, n_terms=5):
    terms = []
    for _ in range(n_terms):
        qubits = rng.sample(range(n), rng.randint(1, n))
        terms.append(PauliTerm.from_map(
            rng.uniform(-2, 2), {q: rng.choice("XYZ") for q in qubits}))
    return PauliSumHamiltonian(n, terms)


class TestGraph:
    def test_normalizes_and_validates(self):
        g = Graph(3, ((2, 0), (0, 1)))
        assert g.edges == ((0, 2), (0, 1))
        with pytest.raises(ConfigError):
            Graph(3, ((0, 0),))
        with pytest.raises(ConfigError):
            Graph(3, ((0, 3),))
        with pytest.raises(ConfigError):
            Graph(3, ((0, 1), (1, 0)))

    def test_cut_value(self):
        c4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert cut_value(c4, 0b0101) == 4
        assert cut_value(c4, 0) == 0
        assert cut_value(c4, 0b0001) == 2


class TestIsing:
    def test_edgeless_graph(self):
        h = ising_from_graph(Graph(3, ()))
        assert h.terms == ()
        assert h.expectation_array(basis_state(3, 5).amplitudes) == 0.0

    def test_single_edge(self):
        h = ising_from_graph(Graph(2, ((0, 1),)))
        assert h.expectation_array(basis_state(2, 0b00).amplitudes) == 1.0
        assert h.expectation_array(basis_state(2, 0b01).amplitudes) == -1.0
        assert h.expectation_array(basis_state(2, 0b11).amplitudes) == 1.0

    def test_energy_cut_identity(self):
        # <b|H|b> = |E| - 2*cut(b) for every basis state
        rng = random.Random(20)
        for _ in range(10):
            g = rand_graph(rng.randint(2, 7), rng)
            h = ising_from_graph(g)
            for b in range(1 << g.n):
                e = h.expectation_array(basis_state(g.n, b).amplitudes)
                assert e == len(g.edges) - 2 * cut_value(g, b)


class TestChainAndGrid:
    def test_xx_term_counts(self):
        assert len(xx_chain(4, 1.0, "periodic").terms) == 4
        assert len(xx_chain(4, 1.0, "open").terms) == 3

    def test_xx_validation(self):
        with pytest.raises(ConfigError):
            xx_chain(1, 1.0, "open")
        with pytest.raises(ConfigError):
            xx_chain(4, 1.0, "moebius")
        # over the simulator's width before a term is built
        with pytest.raises(ConfigError, match="chain needs 2..24 sites"):
            xx_chain(10**9, 1.0, "open")
        with pytest.raises(ConfigError, match="grid needs 1..24 sites"):
            heisenberg_2d(5, 5)

    def test_xx_alternating_ry_reaches_exact_energy(self):
        h = xx_chain(4, 1.0, "periodic")
        circuit = parse_circuit("Ry0:3pi/2 Ry1:pi/2 Ry2:3pi/2 Ry3:pi/2", 4)
        out = apply_circuit_array(basis_state(4, 0).amplitudes, 4, circuit)
        assert abs(h.expectation_array(out) - (-4.0)) < 1e-9

    def test_heisenberg_bond_counts(self):
        assert len(heisenberg_2d(1, 2).terms) == 3     # one bond, X+Y+Z
        assert len(heisenberg_2d(3, 3).terms) == 12 * 3
        assert heisenberg_2d(1, 1).terms == ()

    def test_heisenberg_row_major_bonds(self):
        h = heisenberg_2d(2, 2)
        bonds = {tuple(q for q, _ in t.ops) for t in h.terms}
        assert bonds == {(0, 1), (0, 2), (1, 3), (2, 3)}


class TestExpectation:
    def test_zero_term_hamiltonian(self):
        h = PauliSumHamiltonian(2, [])
        assert h.expectation_array(basis_state(2, 1).amplitudes) == 0.0

    def test_matches_dense_matrix(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(1, 5)
            h = rand_hamiltonian(n, rng)
            s = rand_state(n, rng)
            dense = float(np.real(np.vdot(s.amplitudes,
                                          dense_matrix(h) @ s.amplitudes)))
            assert abs(h.expectation_array(s.amplitudes) - dense) < 1e-10

    def test_linear_and_order_invariant(self):
        rng = random.Random(22)
        h = rand_hamiltonian(4, rng, n_terms=6)
        s = rand_state(4, rng)
        base = h.expectation_array(s.amplitudes)
        terms = list(h.terms)
        rng.shuffle(terms)
        shuffled = PauliSumHamiltonian(4, terms)
        assert abs(shuffled.expectation_array(s.amplitudes) - base) < 1e-12
        doubled = PauliSumHamiltonian(
            4, [PauliTerm(2 * t.coefficient, t.ops) for t in h.terms])
        assert abs(doubled.expectation_array(s.amplitudes) - 2 * base) < 1e-12

    def test_shift_scale(self):
        rng = random.Random(23)
        h = rand_hamiltonian(3, rng)
        s = rand_state(3, rng)
        raw = h.expectation_array(s.amplitudes)
        scaled = h.rescaled(2.5, 10.0).expectation_array(s.amplitudes)
        assert abs(scaled - 10.0 * (raw - 2.5)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            PauliSumHamiltonian(3, []).expectation_array(
                basis_state(2, 0).amplitudes)

    def test_term_validation(self):
        with pytest.raises(ConfigError):
            PauliTerm.from_map(math.nan, {0: "Z"})
        with pytest.raises(ConfigError):
            PauliTerm(1.0, ((0, "Z"), (0, "X")))
        with pytest.raises(ConfigError):
            PauliTerm.from_map(1.0, {0: "W"})
        with pytest.raises(ConfigError):
            PauliSumHamiltonian(2, [PauliTerm.from_map(1.0, {5: "Z"})])

    @pytest.mark.parametrize("coefficients, shift, scale", [
        ((1e308, 1e308), 0.0, 1.0),
        ((1.0,), 0.0, 1e308),
        ((1.0,), -1e308, 1.0),
        ((1.0,), math.inf, 0.0),
        ((1.0,), 0.0, math.nan),
    ])
    def test_energy_overflow_rejected(self, coefficients, shift, scale):
        terms = [PauliTerm.from_map(c, {0: "Z"}) for c in coefficients]
        with pytest.raises(ConfigError, match="energies overflow"):
            PauliSumHamiltonian(1, terms, shift, scale)

    def test_energy_bound_leaves_headroom(self):
        # 4 * (1e307 + 1e307) is finite, and so is every energy
        h = PauliSumHamiltonian(1, [PauliTerm.from_map(1e307, {0: "Z"}),
                                    PauliTerm(1e307, ())])
        assert h.expectation_array(basis_state(1, 0).amplitudes) == 2e307
        with pytest.raises(ConfigError, match="energies overflow"):
            h.rescaled(0.0, 8.0)

    def test_imaginary_residue_raises(self):
        h = PauliSumHamiltonian(1, [PauliTerm.from_map(1.0, {0: "X"})])
        amps = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert abs(h.expectation_array(amps) - 1.0) < 1e-12
        h._weights = h._weights * 1j    # corrupt the cached weight rows
        with pytest.raises(ImaginaryResidueError):
            h.expectation_array(amps)
        with pytest.raises(ImaginaryResidueError):
            h.pair_elements(amps, amps)

    def test_residue_bound_scales_with_s(self):
        # the cache holds s*(H - e0), whose rounding s scales too: at
        # s = 1e6 healthy states leave imaginary parts above 1e-10
        rng = random.Random(32)
        h = heisenberg_2d(3, 3)
        big = h.rescaled(0.0, 1e6)
        worst = 0.0
        for _ in range(100):
            a = rand_state(9, rng).amplitudes
            worst = max(worst, abs(np.vdot(a, big._apply(a)).imag))
            assert abs(big.expectation_array(a)
                       - 1e6 * h.expectation_array(a)) < 1e-6
        assert worst > 1e-10


@st.composite
def pauli_sums(draw):
    """(h, a, b): a rescaled random Pauli sum on 1-6 qubits and two random
    states. Terms are identities (""), Z-only strings, X/Y mixes or any
    string; some repeat an earlier string or cancel it."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        kind = rng.choice(["", "Z", "XY", "XYZ", "repeat", "cancel"])
        if kind in ("repeat", "cancel"):
            if terms:
                old = rng.choice(terms)
                coeff = -old.coefficient if kind == "cancel" \
                    else rng.uniform(-2, 2)
                terms.append(PauliTerm(coeff, old.ops))
            continue
        qubits = rng.sample(range(n), rng.randint(1, n)) if kind else []
        paulis = {q: rng.choice(kind) for q in qubits}
        terms.append(PauliTerm.from_map(rng.uniform(-2, 2), paulis))
    h = PauliSumHamiltonian(n, terms, shift=rng.uniform(-3, 3),
                            scale=rng.uniform(-2, 2))
    a, b = (rand_state(n, rng).amplitudes for _ in range(2))
    return h, a, b


class TestGroupedExpectation:
    @settings(deadline=None, max_examples=150)
    @given(case=pauli_sums())
    def test_matches_dense_matrix(self, case):
        h, a, b = case
        tol = 1e-12 * (1.0 + sum(abs(t.coefficient) for t in h.terms))
        m = dense_matrix(h)
        shifted = h.scale * (m - h.shift * np.eye(len(a)))
        want = (np.vdot(a, shifted @ a).real, np.vdot(b, shifted @ b).real,
                np.vdot(a, shifted @ b).real)
        assert abs(h.expectation_array(a) - want[0]) < tol
        for got, ref in zip(h.pair_elements(a, b), want):
            assert abs(got - ref) < tol

    def test_heisenberg_3x3_gathers_one_row_per_flip_mask(self):
        # XX and YY on a bond share its flip mask; ZZ goes to the diagonal
        h = heisenberg_2d(3, 3)
        h.expectation_array(basis_state(9, 0).amplitudes)
        assert len(h.terms) == 36
        assert h._perms.shape == h._weights.shape == (12, 512)

    def test_cache_build_keeps_no_second_copy(self):
        # the tables are filled in place, so building them peaks at little
        # more than what is kept; a stacked copy of the rows reads ~1.7x
        h = xx_chain(16, 1.0, "open")
        tracemalloc.start()
        try:
            h._build_cache()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = h._diag.nbytes + h._perms.nbytes + h._weights.nbytes
        assert peak <= 1.10 * kept

    def test_diagonal_build_holds_one_row_of_signs(self):
        # two Z terms on 20 bits: the build peaks at the 8 MB diagonal
        # plus one float64 row of signs, with no index array and no
        # integer or float temporary of the register's size (five such
        # arrays read 40 MB)
        n = 20
        h = PauliSumHamiltonian(n, [
            PauliTerm.from_map(1.0, {0: "Z"}),
            PauliTerm.from_map(-0.5, {1: "Z", n - 1: "Z"})])
        tracemalloc.start()
        try:
            h._build_cache()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h._perms.shape == h._weights.shape == (0, 1 << n)
        assert peak <= 2 * h._diag.nbytes + 65536, peak

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 13), seed=st.integers(0, 2**32 - 1),
           shift=st.sampled_from([0.0, 0.75]),
           scale=st.sampled_from([1.0, -2.5]))
    def test_cache_bits_match_index_formula(self, n, seed, shift, scale):
        """The cached tables, signs filled by doubling past 2^10 entries,
        hold the bits of each term's signs computed from every basis
        index, (-1)^popcount(c & (Y|Z)), summed in term order."""
        rng = random.Random(seed)
        h = rand_hamiltonian(n, rng, n_terms=rng.randint(1, 6))
        h = h.rescaled(shift, scale)
        h._build_cache()
        indices = np.arange(1 << n)
        masks = [t.masks() for t in h.terms]
        flips = list(dict.fromkeys(x | y for x, y, _ in masks if x | y))
        diag = np.zeros(1 << n)
        weights = np.zeros((len(flips), 1 << n), dtype=complex)
        for t, (xmask, ymask, zmask) in zip(h.terms, masks):
            signs = 1.0 - 2.0 * (np.bitwise_count(indices & (ymask | zmask))
                                 & 1)
            if xmask | ymask:
                weights[flips.index(xmask | ymask)] += \
                    t.coefficient * (-1j) ** ymask.bit_count() * signs
            else:
                diag += t.coefficient * signs
        diag -= shift
        diag *= scale
        weights *= scale
        assert h._diag.tobytes() == diag.tobytes()
        assert h._weights.tobytes() == weights.tobytes()
        assert np.array_equal(h._perms,
                              indices ^ np.array(flips, dtype=int)[:, None])

    def test_diagonal_hamiltonian_is_one_product(self):
        # an Ising Hamiltonian gathers nothing: exactly vdot(a, diag * a)
        rng = random.Random(31)
        for _ in range(30):
            h = ising_from_graph(rand_graph(rng.randint(2, 6), rng))
            if not h.terms:
                continue
            a, b = (rand_state(h.n_bits, rng).amplitudes for _ in range(2))
            diag = dense_matrix(h).diagonal().real
            assert h.expectation_array(a) == np.vdot(a, diag * a).real
            assert h.pair_elements(a, b) == (
                np.vdot(a, diag * a).real, np.vdot(b, diag * b).real,
                np.vdot(a, diag * b).real)
            assert h._perms.shape == (0, 1 << h.n_bits)


class TestPairElements:
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_matches_dense_matrix(self, diagonal):
        rng = random.Random(24)
        for _ in range(40):
            n = rng.randint(1, 5)
            if diagonal:
                h = ising_from_graph(rand_graph(max(n, 2), rng))
                n = h.n_bits
            else:
                h = rand_hamiltonian(n, rng)
            shift, scale = rng.uniform(-3, 3), rng.uniform(-2, 2)
            h = h.rescaled(shift, scale)
            a, b = (rand_state(n, rng).amplitudes for _ in range(2))
            m = dense_matrix(h)
            aa, bb, ab = h.pair_elements(a, b)
            shifted = scale * (m - shift * np.eye(1 << n))
            assert abs(aa - np.vdot(a, shifted @ a).real) < 1e-10
            assert abs(bb - np.vdot(b, shifted @ b).real) < 1e-10
            assert abs(ab - np.vdot(a, shifted @ b).real) < 1e-10
            assert abs(aa - h.expectation_array(a)) < 1e-10

    @settings(deadline=None, max_examples=100)
    @given(case=pauli_sums(), seed=st.integers(0, 2**32 - 1))
    def test_real_states_give_their_complex_casts_bits(self, case, seed):
        # the real dot product sums in another order than the complex one,
        # so real states are made complex first: the same bits, for the
        # sum and for its diagonal (Z-only) terms, whose H' psi is real
        h, a, b = case
        diagonal = PauliSumHamiltonian(
            h.n_bits, [t for t in h.terms if all(p == "Z" for _, p in t.ops)],
            h.shift, h.scale)
        rng = np.random.default_rng(seed)
        a, b = (np.ascontiguousarray(amps.real) for amps in (a, b))
        for amps in (a, b):
            mask = rng.random(amps.size) < 0.3
            amps[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
        cast = [amps.astype(complex) for amps in (a, b)]
        for hamiltonian in (h, diagonal):
            assert (hamiltonian.expectation_array(a).hex()
                    == hamiltonian.expectation_array(cast[0]).hex())
            assert ([x.hex() for x in hamiltonian.pair_elements(a, b)]
                    == [x.hex() for x in hamiltonian.pair_elements(*cast)])

    def test_gives_the_rotated_expectation(self):
        # b = -iY_q a: <x|H'|x> at x = cos(t/2) a + sin(t/2) b, shift and all
        rng = random.Random(25)
        h = rand_hamiltonian(3, rng).rescaled(1.5, -2.0)
        psi = rand_state(3, rng)
        rotated = apply_circuit_array(psi.amplitudes, 3,
                                      parse_circuit("Ry1:pi", 3))
        aa, bb, ab = h.pair_elements(psi.amplitudes, rotated)
        for t in (0.0, 0.3, 2.0, -4.0):
            x = math.cos(t / 2) * psi.amplitudes + math.sin(t / 2) * rotated
            direct = h.expectation_array(x)
            algebra = (0.5 * (aa + bb) + 0.5 * (aa - bb) * math.cos(t)
                       + ab * math.sin(t))
            assert abs(algebra - direct) < 1e-12

    def test_zero_terms_and_shape(self):
        h = PauliSumHamiltonian(2, [], shift=1.0, scale=3.0)
        zero, one = basis_state(2, 0).amplitudes, basis_state(2, 1).amplitudes
        assert h.pair_elements(zero, zero) == (-3.0, -3.0, -3.0)
        assert h.pair_elements(zero, one) == (-3.0, -3.0, 0.0)
        with pytest.raises(ConfigError):
            h.pair_elements(zero, np.stack([zero, zero]))


class TestMaxCutReadout:
    C8 = Graph(8, ((0, 2), (1, 2), (3, 4), (0, 7)))

    def test_single_basis_state(self):
        # vertices 0 and 1 against the rest: edges (0,2), (1,2), (0,7) cross
        assert maxcut_rows(basis_state(8, 3).amplitudes, self.C8, 1e-4) == [
            "00000011 1.0 3 0,1 2,3,4,5,6,7"]

    def test_threshold_filters_everything(self):
        g = Graph(3, ((0, 1),))
        uniform = np.full(8, math.sqrt(1 / 8), dtype=complex)
        assert maxcut_rows(uniform, g, epsilon=1.0) == []

    def test_superposition_reports_both(self):
        g = Graph(3, ((0, 1), (1, 2)))
        amps = np.zeros(8, dtype=complex)
        amps[3] = amps[7] = math.sqrt(0.5)
        assert maxcut_rows(amps, g, 1e-4) == [
            "011 0.5000000000000001 1 0,1 2",
            "111 0.5000000000000001 0 0,1,2 -"]

    def test_sorted_by_weight(self):
        g = Graph(2, ((0, 1),))
        amps = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        assert maxcut_rows(amps, g, 1e-4) == [
            "11 0.6400000000000001 0 0,1 -",
            "00 0.36 0 - 0,1"]

    def test_wrong_length_is_refused(self):
        g = Graph(3, ((0, 1),))
        for amps in (basis_state(2, 0).amplitudes, basis_state(4, 0).amplitudes,
                     np.zeros((2, 8), dtype=complex)):
            with pytest.raises(ConfigError, match="graph has 3 vertices"):
                maxcut_rows(amps, g)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_follow_the_format(self, data):
        # the maxcut.txt format as the README defines it, built here row by
        # row; exact zeros and equal weights come from a few magnitudes
        # times exact unit phases
        n = data.draw(st.integers(1, 6), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]), label="edges")
        graph = Graph(n, tuple(edges))
        magnitude = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                              st.floats(1e-3, 2.0))
        phase = st.one_of(st.sampled_from([1, -1, 1j, -1j]),
                          st.floats(0.0, 2 * math.pi).map(
                              lambda t: complex(math.cos(t), math.sin(t))))
        amps = np.array(data.draw(st.lists(
            st.tuples(magnitude, phase).map(lambda mp: mp[0] * mp[1]),
            min_size=1 << n, max_size=1 << n).filter(any), label="amps"))
        amps = amps / np.linalg.norm(amps)
        epsilon = data.draw(st.sampled_from([0.0, 1e-4, 0.3]), label="eps")
        # |a| as numpy computes it, which can differ from Python's
        # abs(complex) in the last bit
        weights = (np.abs(amps) ** 2).tolist()
        expected = []
        for b in sorted(range(1 << n), key=lambda b: (-weights[b], b)):
            if weights[b] > epsilon:
                bits = "".join(str((b >> v) & 1) for v in reversed(range(n)))
                side_a = [str(v) for v in range(n) if (b >> v) & 1]
                side_b = [str(v) for v in range(n) if not (b >> v) & 1]
                expected.append(
                    f"{bits} {weights[b]!r} {cut_value(graph, b)} "
                    f"{','.join(side_a) or '-'} {','.join(side_b) or '-'}")
        assert maxcut_rows(amps, graph, epsilon) == expected


class TestFileFormats:
    def test_pauli_golden(self, tmp_path):
        path = tmp_path / "edge.ham"
        path.write_text("nbits 2\n1.0 Z0 Z1\n")
        h = load_pauli_sum(str(path))
        assert h.n_bits == 2
        assert h.terms == (PauliTerm.from_map(1.0, {0: "Z", 1: "Z"}),)

    def test_pauli_round_trip(self, tmp_path):
        rng = random.Random(24)
        for i in range(20):
            h = rand_hamiltonian(rng.randint(1, 5), rng)
            path = tmp_path / f"h{i}.ham"
            save_pauli_sum(h, str(path))
            back = load_pauli_sum(str(path))
            assert back.n_bits == h.n_bits
            assert back.terms == h.terms

    def test_pauli_comments_and_constants(self, tmp_path):
        path = tmp_path / "c.ham"
        path.write_text("# a constant plus a field\nnbits 1\n-0.5\n1.25 X0\n")
        h = load_pauli_sum(str(path))
        assert len(h.terms) == 2
        assert h.terms[0].ops == ()

    def test_pauli_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.ham"
        path.write_text("nbits 2\n1.0 Q0\n")
        with pytest.raises(ConfigError, match="bad.ham:2"):
            load_pauli_sum(str(path))
        path.write_text("2 qubits\n")
        with pytest.raises(ConfigError, match="bad.ham:1"):
            load_pauli_sum(str(path))
        path.write_text("nbits 2\n1.0 Z0 Z0\n")
        with pytest.raises(ConfigError, match="bad.ham:2"):
            load_pauli_sum(str(path))

    def test_pauli_overflow_names_the_file(self, tmp_path):
        # each coefficient is finite, their sum is not: no one line is at fault
        path = tmp_path / "bad.ham"
        path.write_text("nbits 2\n1e308 Z0\n1e308 Z1\n")
        with pytest.raises(ConfigError, match=r"bad\.ham: energies overflow"):
            load_pauli_sum(str(path))

    @pytest.mark.parametrize("text, line", [
        ("nbits 2\n# a field\n\n1.0 X0 Z5\n", 4),
        ("# empty register\nnbits 0\n1.0 Z0\n", 2),
        ("nbits 30\n1.0 Z0\n", 1),
    ], ids=["qubit-outside-nbits", "nbits-0", "nbits-30"])
    def test_pauli_range_errors_carry_line_numbers(self, tmp_path, text, line):
        path = tmp_path / "bad.ham"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"bad.ham:{line}: "):
            load_pauli_sum(str(path))

    @pytest.mark.parametrize("text, line", [
        ("n 3\n0 1\n0 5\n", 3),
        ("n 3\n0 1\n1 1\n", 3),
        ("n 3\n0 1\n# again\n1 0\n", 4),
        ("# no vertices\nn 0\n", 2),
    ], ids=["edge-outside", "self-loop", "duplicate-edge", "n-0"])
    def test_graph_errors_carry_line_numbers(self, tmp_path, text, line):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"bad.graph:{line}: "):
            load_graph(str(path))

    def test_graph_round_trip(self, tmp_path):
        g = Graph(5, ((0, 1), (2, 4), (1, 3)))
        path = tmp_path / "g.graph"
        save_graph(g, str(path))
        assert load_graph(str(path)) == g

    def test_graph_errors(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("vertices 3\n")
        with pytest.raises(ConfigError, match="bad.graph:1"):
            load_graph(str(path))
        path.write_text("n 3\n0 1 2\n")
        with pytest.raises(ConfigError, match="bad.graph:2"):
            load_graph(str(path))
        path.write_text("n 3\n0 5\n")
        with pytest.raises(ConfigError):
            load_graph(str(path))
