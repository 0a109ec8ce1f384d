"""Simulator tests: gates, state evolution, gene bridge, canonical form,
and the circuit string grammar."""

import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gepcirc
import gepcirc.sim as sim
from gepcirc.cli import parse_input, run
from gepcirc.engine import ConfigError, coding_length, decode, random_gene
from gepcirc.hamiltonians import Graph, save_graph
from gepcirc.sim import (
    GATE_KINDS,
    GateInstance,
    GateTable,
    QuantumCircuit,
    StateVector,
    apply_circuit,
    apply_circuit_array,
    apply_gate,
    basis_state,
    bind_params,
    canonicalize,
    circuit_to_gene,
    circuit_to_string,
    format_angle,
    gate_matrix,
    gene_to_circuit,
    parse_angle,
    parse_basis_label,
    parse_circuit,
)


def rand_state(n, rng):
    amps = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for _ in range(1 << n)])
    return StateVector(n, amps / np.linalg.norm(amps))


def rand_circuit(n, rng, kinds=("H", "X", "Y", "Z", "P", "Ry", "CNOT"),
                 head=10):
    """Random valid circuit via a random gene, angles bound off-grid."""
    usable = [k for k in kinds if n > 1 or GATE_KINDS[k].n_qubits == 1]
    table = GateTable(n, usable)
    circuit = gene_to_circuit(random_gene(table.pset, head, rng), table)
    params = [rng.uniform(0.0, 4.0 * math.pi) for _ in range(circuit.n_params)]
    return bind_params(circuit, params)


class TestBasisState:
    def test_all_zero(self):
        s = basis_state(4, 0)
        assert s.amplitudes[0] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_index_three_sets_qubits_0_and_1(self):
        s = basis_state(8, 3)
        assert s.amplitudes[3] == 1.0
        # qubit i is bit i of the basis index
        assert [(3 >> i) & 1 for i in range(8)] == [1, 1, 0, 0, 0, 0, 0, 0]

    def test_all_ones(self):
        assert basis_state(3, 7).amplitudes[7] == 1.0

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            basis_state(3, 8)
        with pytest.raises(ConfigError):
            basis_state(0, 0)
        with pytest.raises(ConfigError):
            basis_state(25, 0)

    def test_norm_enforced(self):
        with pytest.raises(ConfigError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_checks_survive_optimize_flag(self):
        # python -O strips asserts (the first one below shows it is in
        # effect); the norm and imaginary-residue checks must still raise
        script = textwrap.dedent("""
            import numpy as np
            from gepcirc.engine import ConfigError
            from gepcirc.hamiltonians import (
                ImaginaryResidueError, PauliSumHamiltonian, PauliTerm)
            from gepcirc.sim import StateVector
            assert False, "asserts are on"
            try:
                StateVector(1, np.array([1.0, 1.0]))
            except ConfigError:
                print("norm")
            h = PauliSumHamiltonian(1, [PauliTerm.from_map(1.0, {0: "X"})])
            amps = np.array([1.0, 1.0]) / np.sqrt(2.0)
            h.raw_expectation_array(amps)
            h._weights = h._weights * 1j    # corrupt the cached weight rows
            try:
                h.raw_expectation_array(amps)
            except ImaginaryResidueError:
                print("residue")
        """)
        src = str(Path(gepcirc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["norm", "residue"]


class TestGateMatrices:
    def test_ry_zero_is_identity(self):
        assert np.allclose(gate_matrix("Ry", 0.0), np.eye(2))

    def test_ry_pi_flips(self):
        out = gate_matrix("Ry", math.pi) @ np.array([1.0, 0.0])
        assert abs(out[0]) < 1e-12 and abs(out[1] - 1.0) < 1e-12

    def test_p_squared_is_z(self):
        p = gate_matrix("P")
        assert np.allclose(p @ p, gate_matrix("Z"), atol=1e-15)

    def test_all_unitary(self):
        rng = random.Random(11)
        for name in GATE_KINDS:
            angle = rng.uniform(0, 4 * math.pi) if name == "Ry" else None
            m = gate_matrix(name, angle)
            assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)

    def test_angle_argument_policing(self):
        with pytest.raises(ConfigError):
            gate_matrix("Ry")
        with pytest.raises(ConfigError):
            gate_matrix("H", 1.0)
        with pytest.raises(ConfigError):
            gate_matrix("Q")


class TestApplyGate:
    def test_z_fixes_zero_state(self):
        s = basis_state(4, 0)
        out = apply_gate(s, GateInstance(GATE_KINDS["Z"], (0,)))
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_ry_pi_on_qubit_1(self):
        out = apply_gate(basis_state(3, 0),
                         GateInstance(GATE_KINDS["Ry"], (1,), angle=math.pi))
        assert abs(out.amplitudes[2] - 1.0) < 1e-12

    def test_cnot_control_is_first_qubit(self):
        gate = GateInstance(GATE_KINDS["CNOT"], (0, 1))
        out = apply_gate(basis_state(3, 1), gate)
        assert out.amplitudes[3] == 1.0
        # control clear: target untouched
        out = apply_gate(basis_state(3, 2), gate)
        assert out.amplitudes[2] == 1.0

    def test_slot_resolution(self):
        gate = GateInstance(GATE_KINDS["Ry"], (0,))
        assert gate.free
        out = apply_gate(basis_state(1, 0), gate, [math.pi])
        assert abs(out.amplitudes[1] - 1.0) < 1e-12
        with pytest.raises(ConfigError):
            apply_gate(basis_state(1, 0), gate, [])

    def test_unitarity_round_trip(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(1, 5)
            s = rand_state(n, rng)
            q = rng.randrange(n)
            theta = rng.uniform(0, 4 * math.pi)
            fwd = apply_gate(s, GateInstance(GATE_KINDS["Ry"], (q,), angle=theta))
            back = apply_gate(fwd, GateInstance(GATE_KINDS["Ry"], (q,),
                                                angle=-theta))
            assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-10)


class TestApplyCircuit:
    def test_empty_circuit(self):
        s = basis_state(3, 5)
        out = apply_circuit(s, QuantumCircuit(3, ()))
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_two_flips(self):
        c = parse_circuit("Ry0:pi Ry1:pi", 2)
        out = apply_circuit(basis_state(2, 0), c)
        assert abs(abs(out.amplitudes[3]) - 1.0) < 1e-12

    def test_gate_order_matters(self):
        # X then H differs from H then X on |0>
        a = apply_circuit(basis_state(1, 0), parse_circuit("X0 H0", 1))
        b = apply_circuit(basis_state(1, 0), parse_circuit("H0 X0", 1))
        assert not np.allclose(a.amplitudes, b.amplitudes)

    def test_param_count_checked(self):
        c = parse_circuit("Ry0:phi0 Ry1:phi1", 2)
        with pytest.raises(ConfigError):
            apply_circuit(basis_state(2, 0), c, [1.0])

    def test_wrong_length_rejected(self):
        amps = np.ones(6, dtype=complex)
        for text in ("Ry0:0.3", "CNOT0,1"):
            with pytest.raises(ConfigError, match="expected 4 amplitudes"):
                apply_circuit_array(amps, 2, parse_circuit(text, 2))

    def test_norm_preserved_random(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 5)
            out = apply_circuit(rand_state(n, rng), rand_circuit(n, rng))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Reference kernels: the simulator's gate application as first written.
# Each gate is a 2x2 or 4x4 matrix product on the state tensor with the
# gate's qubit axes moved to the front.
# ---------------------------------------------------------------------------

def moveaxis_1q(amps, n_bits, mat, q):
    t = np.moveaxis(amps.reshape([2] * n_bits), n_bits - 1 - q, 0)
    shape = t.shape
    t = (mat @ t.reshape(2, -1)).reshape(shape)
    return np.moveaxis(t, 0, n_bits - 1 - q).reshape(-1)


def moveaxis_2q(amps, n_bits, mat, qa, qb):
    axes = (n_bits - 1 - qa, n_bits - 1 - qb)
    t = np.moveaxis(amps.reshape([2] * n_bits), axes, (0, 1))
    shape = t.shape
    t = (mat @ t.reshape(4, -1)).reshape(shape)
    return np.moveaxis(t, (0, 1), axes).reshape(-1)


def reference_instance(amps, gate, angle):
    """The moveaxis kernel run on each state along the leading axes."""
    n_bits = amps.shape[-1].bit_length() - 1
    mat = gate_matrix(gate.kind, angle)
    outs = [moveaxis_1q(row, n_bits, mat, gate.qubits[0])
            if gate.kind.n_qubits == 1
            else moveaxis_2q(row, n_bits, mat, *gate.qubits)
            for row in amps.reshape(-1, amps.shape[-1])]
    return np.stack(outs).reshape(amps.shape)


def kron_all(factors_high_first):
    out = np.ones((1, 1))
    for f in factors_high_first:
        out = np.kron(out, f)
    return out


def dense_1q(n_bits, mat, q):
    """I (x) .. (x) mat (x) .. (x) I with qubit n-1 as the leftmost factor."""
    return kron_all([np.eye(1 << (n_bits - 1 - q)), mat, np.eye(1 << q)])


def dense_cnot(n_bits, control, target):
    """|0><0|_c (x) I + |1><1|_c (x) X_t as full Kronecker products."""
    hi, lo = max(control, target), min(control, target)

    def term(ops):
        return kron_all([np.eye(1 << (n_bits - 1 - hi)), ops.get(hi, np.eye(2)),
                         np.eye(1 << (hi - lo - 1)), ops.get(lo, np.eye(2)),
                         np.eye(1 << lo)])
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return term({control: p0}) + term({control: p1, target: x})


@st.composite
def kernel_states(draw, max_bits=10):
    """(n, rows): three unnormalized complex states, the 2nd and 3rd with
    about half and 95% of their real and imaginary parts set to +-0."""
    n = draw(st.integers(1, max_bits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    for amps, zero_frac in zip(rows, (0.0, 0.5, 0.95)):
        for part in (amps.real, amps.imag):
            mask = rng.random(1 << n) < zero_frac
            part[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    return n, rows


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestKernels:
    """The fast kernels against the moveaxis reference and dense matrices."""

    @settings(deadline=None, max_examples=25)
    @given(states=kernel_states(),
           phase=st.floats(-10.0, 10.0, allow_nan=False),
           theta=st.floats(-20.0, 20.0, allow_nan=False))
    def test_one_qubit_bits(self, states, phase, theta):
        n, rows = states
        kinds = [("H", None), ("X", None), ("Y", None), ("Z", None),
                 ("P", None), ("P", phase), ("Ry", theta)]
        for name, angle in kinds:
            kind = GATE_KINDS[name]
            for q in range(n):
                gate = GateInstance(kind, (q,), angle=angle)
                outs = [sim._apply_instance(amps, gate, gate.angle)
                        for amps in rows]
                for amps, out in zip(rows, outs):
                    ref = reference_instance(amps, gate, gate.angle)
                    assert same_bits(out, ref), (name, q)
                dense = dense_1q(n, gate_matrix(kind, angle), q)
                assert np.allclose(outs, (dense @ rows.T).T,
                                   rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=10)
    @given(states=kernel_states())
    def test_cnot_bits(self, states):
        n, rows = states
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                gate = GateInstance(GATE_KINDS["CNOT"], (control, target))
                outs = [sim._apply_instance(amps, gate, None)
                        for amps in rows]
                for amps, out in zip(rows, outs):
                    ref = reference_instance(amps, gate, None)
                    # the reference's 4x4 product adds +-0 terms, so the sign
                    # of an exactly zero part is BLAS's; every value is equal
                    assert np.array_equal(out, ref)
                    parts, ref_parts = out.view(np.float64), ref.view(np.float64)
                    nonzero = ref_parts != 0
                    assert same_bits(parts[nonzero], ref_parts[nonzero])
                dense = dense_cnot(n, control, target)
                assert np.allclose(outs, (dense @ rows.T).T,
                                   rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(1, 10), batch=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_runs_as_separate_states(self, n, batch, seed):
        """A (B, 2^n) array goes through a circuit as B separate runs.
        Within 1e-13 always; bit for bit from n = 2 on. At n = 1 a 1-qubit
        gate is a 2x2 @ 2x1 product alone but 2x2 @ 2xB batched, and the
        two may differ in the last bit."""
        rng = random.Random(seed)
        circuit = rand_circuit(n, rng, kinds=("Ry", "P", "H", "X", "CNOT"),
                               head=rng.randint(1, 15))
        states = np.stack([rand_state(n, rng).amplitudes
                           for _ in range(batch)])
        batched = apply_circuit_array(states, n, circuit)
        separate = np.stack([apply_circuit_array(amps, n, circuit)
                             for amps in states])
        assert np.abs(batched - separate).max() <= 1e-13
        if n >= 2:
            assert same_bits(batched, separate)

    def test_kernels_leave_input_and_matrices_alone(self):
        amps = rand_state(4, random.Random(3)).amplitudes
        before = amps.copy()
        for token in ("Ry2:0.7", "CNOT3,1", "H0", "P3"):
            gate = parse_circuit(token, 4).gates[0]
            sim._apply_instance(amps, gate, gate.angle)
        assert same_bits(amps, before)
        gate_matrix("H")[0, 0] = 5.0     # callers get copies
        assert same_bits(gate_matrix("H"), sim._FIXED_MATRICES["H"])
        out = apply_gate(basis_state(1, 0), GateInstance(GATE_KINDS["H"], (0,)))
        assert abs(out.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15

    def test_negative_zero_angle_keeps_its_matrix(self):
        gate = GateInstance(GATE_KINDS["Ry"], (0,))
        amps = np.array([-0.0, 1.0, 1.0, -0.0], dtype=complex)
        for angle in (0.0, -0.0, 0.0):
            assert same_bits(sim._apply_instance(amps, gate, angle),
                             reference_instance(amps, gate, angle))


LOCK_INPUTS = {
    "maxcut": """\
RunType = GroundState
NumBits = 6
Gates = Ry
HeadSize = 8
Population = 16
Generations = 4
Seed = 5
GraphFile = g.txt
""",
    "heisenberg": """\
RunType = GroundState
NumBits = 4
Gates = Ry,P,CNOT
HeadSize = 6
Population = 12
Generations = 4
Seed = 6
Hamiltonian = heisenberg2d:2,2
Canonicalize = 1
""",
    "funcfit": """\
RunType = FunctionFit
NumBits = 4
Gates = Ry,CNOT
HeadSize = 6
Population = 12
Generations = 3
Seed = 7
TrainingPairs = pairs.txt
""",
}


@pytest.mark.parametrize("name", sorted(LOCK_INPUTS))
def test_trajectory_locked_to_reference_kernels(tmp_path, monkeypatch, name):
    """Artifacts are byte-identical with the reference kernels swapped in."""
    artifacts = []
    for patched in (False, True):
        d = tmp_path / str(patched)
        d.mkdir()
        save_graph(Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                             (0, 3), (1, 4))), str(d / "g.txt"))
        (d / "pairs.txt").write_text("0 1\n1 3\n2 6\n5 12\n9 7\n")
        (d / "in.txt").write_text(LOCK_INPUTS[name])
        with monkeypatch.context() as m:
            if patched:
                m.setattr(sim, "_apply_instance", reference_instance)
            run(parse_input(d / "in.txt"))
        artifacts.append({p.name: p.read_bytes() for p in sorted(d.iterdir())
                          if p.name in ("trace.csv", "best.circ",
                                        "maxcut.txt")})
    assert len(artifacts[0]) == (3 if name == "maxcut" else 2)
    assert artifacts[0] == artifacts[1]


class TestGateTable:
    def test_one_qubit_multiplicity(self):
        table = GateTable(4, ["Ry"])
        assert len(table.pset.functions) == 4
        assert table.pset.terminals == (4,)

    def test_two_qubit_multiplicity(self):
        table = GateTable(4, ["CNOT"])
        assert len(table.pset.functions) == 4 * 3

    def test_terminal_only(self):
        table = GateTable(1, [])
        assert table.pset.functions == ()
        assert len(table.pset.terminals) == 1

    def test_symbol_names_match_tokens(self):
        table = GateTable(3, ["H", "CNOT"])
        names = set(table.pset.names.values())
        assert {"H0", "H1", "H2", "CNOT0,1", "CNOT1,0", "psi0"} <= names

    def test_symbol_lookup(self):
        table = GateTable(3, ["H", "CNOT"])
        sym = table.symbol_for("CNOT", (2, 0))
        assert table.placements[sym] == (GATE_KINDS["CNOT"], (2, 0))
        with pytest.raises(ConfigError):
            table.symbol_for("CNOT", (0, 0))


class TestGeneBridge:
    def table(self):
        return GateTable(4, ["H", "Ry", "CNOT"])

    def gene_of(self, table, tokens, head=8):
        symbols = [table.symbol_for(*tok) for tok in tokens]
        symbols += [table.terminal] * (head + 1 - len(symbols))
        from gepcirc.engine import make_gene
        return make_gene(symbols, head, table.pset)

    def test_terminal_gene_is_empty_circuit(self):
        table = self.table()
        assert len(gene_to_circuit(self.gene_of(table, []), table)) == 0

    def test_string_is_outermost_first(self):
        # gene A B C D psi0 must apply D, then C, then B, then A
        table = self.table()
        gene = self.gene_of(table, [("CNOT", (0, 2)), ("CNOT", (1, 2)),
                                    ("CNOT", (2, 3)), ("H", (0,))])
        circuit = gene_to_circuit(gene, table)
        applied = [(g.kind.name, g.qubits) for g in circuit.gates]
        assert applied == [("H", (0,)), ("CNOT", (2, 3)), ("CNOT", (1, 2)),
                           ("CNOT", (0, 2))]

    def test_noncoding_symbols_ignored(self):
        table = self.table()
        symbols = [table.symbol_for("H", (0,)), table.symbol_for("H", (1,)),
                   table.terminal, table.symbol_for("H", (2,))]
        symbols += [table.terminal] * 5
        from gepcirc.engine import make_gene
        gene = make_gene(symbols, 8, table.pset)
        assert len(gene_to_circuit(gene, table)) == 2

    def test_slots_in_application_order(self):
        table = self.table()
        gene = self.gene_of(table, [("Ry", (2,)), ("H", (0,)), ("Ry", (1,))])
        circuit = gene_to_circuit(gene, table)
        assert [(g.kind.name, g.qubits, g.free) for g in circuit.gates] \
            == [("Ry", (1,), True), ("H", (0,), False), ("Ry", (2,), True)]
        assert circuit.n_params == 2
        assert circuit_to_string(circuit) == "Ry1:phi0 H0 Ry2:phi1"

    def test_circuit_length_is_coding_minus_one(self):
        rng = random.Random(14)
        table = self.table()
        for _ in range(200):
            gene = random_gene(table.pset, 8, rng)
            circuit = gene_to_circuit(gene, table)
            assert len(circuit) == decode(gene).coding_length - 1

    def test_circuit_to_gene_round_trip(self):
        rng = random.Random(15)
        table = self.table()
        for _ in range(100):
            gene = random_gene(table.pset, 8, rng)
            circuit = gene_to_circuit(gene, table)
            back = circuit_to_gene(circuit, table, 8)
            again = gene_to_circuit(back, table)
            assert again == circuit

    def test_circuit_to_gene_rejects_bound_ry(self):
        table = self.table()
        bound = QuantumCircuit(4, (GateInstance(GATE_KINDS["Ry"], (0,),
                                                angle=1.0),))
        with pytest.raises(ConfigError):
            circuit_to_gene(bound, table, 8)


class TestCanonicalize:
    def test_z_pair_cancels(self):
        assert len(canonicalize(parse_circuit("Z0 Z0", 1))) == 0

    def test_all_self_inverse_pairs_cancel(self):
        for text in ("X1 X1", "Y0 Y0", "H2 H2", "CNOT0,1 CNOT0,1"):
            assert len(canonicalize(parse_circuit(text, 3))) == 0

    def test_p_pair_survives(self):
        assert len(canonicalize(parse_circuit("P0 P0", 1))) == 2

    def test_disjoint_reorder(self):
        c = canonicalize(parse_circuit("Ry2:pi Ry0:pi/2", 3))
        assert [g.qubits for g in c.gates] == [(0,), (2,)]
        assert [g.angle for g in c.gates] == [math.pi / 2, math.pi]

    def test_overlapping_not_reordered(self):
        c = canonicalize(parse_circuit("CNOT0,1 Z0", 2))
        assert [(g.kind.name, g.qubits) for g in c.gates] \
            == [("CNOT", (0, 1)), ("Z", (0,))]

    def test_ry_fusion_sums_angles(self):
        c = canonicalize(parse_circuit("Ry0:pi/2 Ry0:pi", 1))
        assert len(c) == 1
        assert abs(c.gates[0].angle - 1.5 * math.pi) < 1e-12

    def test_ry_fusion_cancels_full_turns(self):
        assert len(canonicalize(parse_circuit("Ry0:pi Ry0:3pi", 1))) == 0

    def test_fusion_with_slot_keeps_one_slot(self):
        c = canonicalize(parse_circuit("Ry0:phi0 Ry0:phi1 Ry1:phi2", 2))
        assert [(g.qubits, g.free) for g in c.gates] \
            == [((0,), True), ((1,), True)]
        assert c.n_params == 2
        c = canonicalize(parse_circuit("Ry0:pi Ry0:phi0", 1))
        assert [(g.qubits, g.free) for g in c.gates] == [((0,), True)]

    def test_reorder_enables_cancellation(self):
        # X0 X1 X0 sorts to X0 X0 X1 and collapses to X1
        c = canonicalize(parse_circuit("X0 X1 X0", 2))
        assert [(g.kind.name, g.qubits) for g in c.gates] == [("X", (1,))]

    def test_idempotent(self):
        rng = random.Random(16)
        for _ in range(100):
            n = rng.randint(1, 4)
            c = rand_circuit(n, rng)
            once = canonicalize(c)
            assert canonicalize(once) == once

    def test_gene_rewrite_idempotent(self):
        # the evolution hook skips survivors because rewriting is idempotent
        rng = random.Random(18)
        table = GateTable(3, ["H", "X", "P", "Ry", "CNOT"])

        def rewrite(gene):
            circuit = canonicalize(gene_to_circuit(gene, table))
            return circuit_to_gene(circuit, table, gene.head_len)

        for _ in range(500):
            once = rewrite(random_gene(table.pset, 10, rng))
            assert rewrite(once) == once

    def test_fidelity_preserved(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 4)
            circuit = rand_circuit(n, rng)
            s = rand_state(n, rng)
            out_a = apply_circuit(s, circuit)
            out_b = apply_circuit(s, canonicalize(circuit))
            assert out_a.fidelity(out_b) >= 1.0 - 1e-10


@st.composite
def gene_circuits(draw, max_bits=4):
    """(gene, table, circuit) over every gate kind on 1-4 qubits; the
    circuit keeps its slots or binds them on or off the pi/4 grid."""
    n = draw(st.integers(1, max_bits))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    usable = [k for k, kind in GATE_KINDS.items() if n > 1 or kind.n_qubits == 1]
    table = GateTable(n, usable)
    gene = random_gene(table.pset, draw(st.integers(1, 14)), rng)
    circuit = gene_to_circuit(gene, table)
    angles = draw(st.sampled_from(["slots", "grid", "off-grid"]))
    if angles == "grid":
        circuit = bind_params(circuit, [rng.randrange(-16, 16) * math.pi / 4
                                        for _ in range(circuit.n_params)])
    elif angles == "off-grid":
        circuit = bind_params(circuit, [rng.uniform(-20.0, 20.0)
                                        for _ in range(circuit.n_params)])
    return gene, table, circuit


def dense_unitary(circuit):
    """Product of the gates' Kronecker matrices, the first gate rightmost."""
    n = circuit.n_bits
    u = np.eye(1 << n, dtype=complex)
    for g in circuit.gates:
        if g.kind.n_qubits == 2:
            u = dense_cnot(n, *g.qubits) @ u
        else:
            u = dense_1q(n, gate_matrix(g.kind, g.angle), g.qubits[0]) @ u
    return u


def tree_path_circuit(gene, table):
    """The circuit read from the decoded expression tree, gate by gate."""
    symbols = decode(gene).bfs_symbols()
    gates = [table.instance(sym) for sym in reversed(symbols[:-1])]
    return QuantumCircuit(table.n_bits, tuple(gates))


class TestCircuitProperties:
    @settings(deadline=None, max_examples=200)
    @given(case=gene_circuits())
    def test_gene_to_circuit_matches_tree_path(self, case):
        gene, table, _ = case
        assert gene_to_circuit(gene, table) == tree_path_circuit(gene, table)

    @settings(deadline=None, max_examples=200)
    @given(case=gene_circuits())
    def test_circuit_to_gene_keeps_coding_region(self, case):
        gene, table, _ = case
        back = circuit_to_gene(gene_to_circuit(gene, table), table,
                               gene.head_len)
        assert back.symbols[:coding_length(back)] \
            == gene.symbols[:coding_length(gene)]

    @settings(deadline=None, max_examples=200)
    @given(case=gene_circuits())
    def test_string_round_trip(self, case):
        _, table, circuit = case
        text = circuit_to_string(circuit)
        assert circuit_to_string(parse_circuit(text, table.n_bits)) == text

    @settings(deadline=None, max_examples=200)
    @given(case=gene_circuits(), seed=st.integers(0, 2**32 - 1))
    def test_apply_and_bind_consume_params_alike(self, case, seed):
        # both give the k-th free gate in gate order the angle params[k]
        _, table, circuit = case
        rng = random.Random(seed)
        n = table.n_bits
        params = [rng.uniform(-20.0, 20.0) for _ in range(circuit.n_params)]
        amps = rand_state(n, rng).amplitudes
        assert same_bits(
            apply_circuit_array(amps, n, circuit, params),
            apply_circuit_array(amps, n, bind_params(circuit, params)))

    @settings(deadline=None, max_examples=200)
    @given(case=gene_circuits())
    def test_canonicalize_keeps_unitary_up_to_phase(self, case):
        _, _, circuit = case
        assume(not circuit.n_params)    # slots carry no angle
        u = dense_unitary(circuit)
        v = dense_unitary(canonicalize(circuit))
        k = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        phase = v[k] / u[k]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.abs(v - phase * u).max() < 1e-10


class TestStringGrammar:
    def test_angle_formatting(self):
        assert format_angle(0.0) == "0"
        assert format_angle(math.pi / 4) == "pi/4"
        assert format_angle(math.pi / 2) == "pi/2"
        assert format_angle(math.pi) == "pi"
        assert format_angle(3 * math.pi / 2) == "3pi/2"
        assert format_angle(2 * math.pi) == "2pi"
        assert format_angle(6 * (math.pi / 4)) == "3pi/2"
        assert format_angle(4 * math.pi) == "0"     # normalized mod 4*pi
        assert format_angle(1.234) == repr(1.234)

    def test_angle_parsing(self):
        assert parse_angle("3pi/2") == 3 * math.pi / 2
        assert parse_angle("pi") == math.pi
        assert parse_angle("0") == 0.0
        assert parse_angle("-pi/2") == -math.pi / 2
        assert parse_angle("1.5") == 1.5
        assert parse_angle("phi3") == 3
        with pytest.raises(ConfigError):
            parse_angle("wat")
        with pytest.raises(ConfigError):
            parse_angle("pi/0")
        for text in ("inf", "-inf", "nan", "1e999", "9" * 400 + "pi"):
            with pytest.raises(ConfigError, match="as a finite number"):
                parse_angle(text)

    def test_fixed_angle_circuit_round_trip(self):
        text = "Ry0:3pi/2 Ry1:pi/2 Ry2:3pi/2 Ry3:pi/2"
        assert circuit_to_string(parse_circuit(text, 4)) == text

    def test_empty_round_trip(self):
        assert circuit_to_string(parse_circuit("", 4)) == ""

    def test_slots_print_as_phi(self):
        assert circuit_to_string(parse_circuit("Ry2:phi0 CNOT0,1", 3)) \
            == "Ry2:phi0 CNOT0,1"

    def test_p_phase_printing(self):
        assert circuit_to_string(parse_circuit("P0", 1)) == "P0"
        assert circuit_to_string(parse_circuit("P0:pi/4", 1)) == "P0:pi/4"

    def test_p_gate_without_angle(self):
        # a P gate built without an angle is the default-phase gate
        gate = GateInstance(GATE_KINDS["P"], (0,))
        assert gate.angle == math.pi / 2 and not gate.free
        circuit = QuantumCircuit(1, (gate,))
        assert circuit_to_string(circuit) == "P0"
        table = GateTable(1, ["P"])
        assert gene_to_circuit(circuit_to_gene(circuit, table, 2),
                               table) == circuit

    def test_parse_errors_name_token(self):
        with pytest.raises(ConfigError, match="token 1"):
            parse_circuit("H0 nope", 2)
        with pytest.raises(ConfigError, match="token 0"):
            parse_circuit("Ry0", 1)            # Ry needs an angle
        with pytest.raises(ConfigError, match="token 0"):
            parse_circuit("H0:pi", 1)          # H takes none
        with pytest.raises(ConfigError, match="token 0"):
            parse_circuit("CNOT1,1", 2)
        with pytest.raises(ConfigError):
            parse_circuit("H5", 2)             # qubit out of range
        for text, token in [
            ("Ry0:phi1", "token 0"),                    # phi0 comes first
            ("Ry0:phi0 Ry1:phi0", "token 1"),           # one angle, two gates
            ("Ry0:phi1 CNOT0,1 Ry1:phi0", "token 0"),   # out of gate order
            ("Ry0:phi0 Ry1:phi1 H0 Ry0:phi0", "token 3"),   # reused later
        ]:
            with pytest.raises(ConfigError, match=token):
                parse_circuit(text, 2)

    def test_round_trip_random(self):
        rng = random.Random(18)
        for _ in range(1000):
            n = rng.randint(1, 5)
            c = rand_circuit(n, rng)
            assert parse_circuit(circuit_to_string(c), n) == c

    def test_grid_angles_round_trip_exactly(self):
        for k in range(16):
            angle = k * (math.pi / 4)
            c = QuantumCircuit(1, (GateInstance(GATE_KINDS["Ry"], (0,),
                                                angle=angle),))
            back = parse_circuit(circuit_to_string(c), 1)
            assert math.fmod(back.gates[0].angle, 4 * math.pi) \
                == math.fmod(angle, 4 * math.pi)


class TestBasisLabel:
    def test_decimal(self):
        assert parse_basis_label("3", 8) == 3

    def test_bitstring_msb_first(self):
        assert parse_basis_label("00000011", 8) == 3
        assert parse_basis_label("100", 3) == 4

    def test_bitstring_wrong_length_is_decimal(self):
        assert parse_basis_label("11", 8) == 11

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_basis_label("9", 3)
        with pytest.raises(ConfigError):
            parse_basis_label("abc", 3)
