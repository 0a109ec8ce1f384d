"""Simulator tests: gates, state evolution, gene bridge, canonical form,
and the circuit string grammar."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gepcirc
import gepcirc.fitness as fitness_mod
import gepcirc.sim as sim
from gepcirc.cli import parse_input, run
from gepcirc.engine import ConfigError, coding_length, decode, random_gene
from gepcirc.hamiltonians import Graph
from gepcirc.sim import (
    GATE_KINDS,
    GateInstance,
    GateTable,
    QuantumCircuit,
    StateVector,
    apply_circuit_array,
    basis_state,
    bind_params,
    canonicalize,
    circuit_to_gene,
    circuit_to_string,
    format_angle,
    gate_kinds,
    gene_to_circuit,
    parse_angle,
    parse_basis_label,
    parse_circuit,
)

from reference import canonicalize as reference_canonicalize
from reference import dense_gate, dense_unitary, one_qubit_matrix
from writers import save_graph


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
            h.expectation_array(amps)
            h._weights = h._weights * 1j    # corrupt the cached weight rows
            try:
                h.expectation_array(amps)
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
    """The kernels' matrices and the dense reference's, side by side."""

    def matrices(self, name, angle=None):
        return (kernel_matrix(name, angle), one_qubit_matrix(name, angle))

    def test_ry_zero_is_identity(self):
        for m in self.matrices("Ry", 0.0):
            assert np.allclose(m, np.eye(2))

    def test_ry_pi_flips(self):
        for m in self.matrices("Ry", math.pi):
            out = m @ np.array([1.0, 0.0])
            assert abs(out[0]) < 1e-12 and abs(out[1] - 1.0) < 1e-12

    def test_p_squared_is_z(self):
        for p, z in zip(self.matrices("P", sim.P_PHASE), self.matrices("Z")):
            assert np.allclose(p @ p, z, atol=1e-15)

    def test_all_unitary(self):
        rng = random.Random(11)
        for name, kind in GATE_KINDS.items():
            if kind.n_qubits == 2:
                cnot = GateInstance(kind, (0, 1))
                mats = (CNOT_4X4, dense_gate(cnot, 2))
            else:
                angle = (rng.uniform(0, 4 * math.pi) if name == "Ry"
                         else sim.P_PHASE if name == "P" else None)
                mats = self.matrices(name, angle)
            for m in mats:
                assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]),
                                   atol=1e-12)

    def test_matrices_match_definitions(self):
        """Every 1-qubit kind's matrix, for float64 and complex states,
        equals the reference's written from its definition, and the
        sweep's -iY equals -1j times the reference's Y (in value: -1j * Y
        holds -0.0 parts where -iY holds +0.0). Each matrix is float64 but
        for Y, P and the complex twins, and each widened form is
        kron(M, I_{2^q})^T (``check_widened``)."""
        rng = random.Random(12)
        cases = [("-iY", None, -1j * one_qubit_matrix("Y"))] + [
            (name, angle, one_qubit_matrix(name, angle))
            for name in ("H", "X", "Y", "Z", "P", "Ry")
            for angle in ((None,) if name in ("H", "X", "Y", "Z")
                          else (0.0, -0.0, sim.P_PHASE,
                                rng.uniform(-20.0, 20.0)))]
        for name, angle, ref in cases:
            for twin in (False, True):
                for q in range(5):
                    mat, wide = sim._kernel_forms(name, angle, twin, q)
                    assert np.array_equal(mat, ref), (name, angle, twin)
                    assert mat.dtype == (complex if twin or name in ("Y", "P")
                                         else np.float64), (name, twin)
                    assert (wide is not None) == (
                        q <= 3 and mat.dtype == np.float64)
                    if wide is not None:
                        check_widened(wide, mat, q)

    def test_angle_argument_policing(self):
        with pytest.raises(ConfigError) as err:
            GateInstance(GATE_KINDS["H"], (0,), 1.0)
        assert str(err.value) == "H takes no angle"
        with pytest.raises(ConfigError) as err:
            parse_circuit("Ry0", 1)
        assert str(err.value) == "token 0 ('Ry0'): Ry needs an angle"
        with pytest.raises(ConfigError) as err:
            gate_kinds(["Q"])
        assert str(err.value) \
            == "unknown gate 'Q' (choose from CNOT, H, P, Ry, X, Y, Z)"


class TestApplyGate:
    def test_z_fixes_zero_state(self):
        s = basis_state(4, 0)
        out = apply_circuit_array(s.amplitudes, 4, parse_circuit("Z0", 4))
        assert np.array_equal(out, s.amplitudes)

    def test_ry_pi_on_qubit_1(self):
        out = apply_circuit_array(basis_state(3, 0).amplitudes, 3,
                                  parse_circuit("Ry1:pi", 3))
        assert abs(out[2] - 1.0) < 1e-12

    def test_cnot_control_is_first_qubit(self):
        cnot = parse_circuit("CNOT0,1", 3)
        out = apply_circuit_array(basis_state(3, 1).amplitudes, 3, cnot)
        assert out[3] == 1.0
        # control clear: target untouched
        out = apply_circuit_array(basis_state(3, 2).amplitudes, 3, cnot)
        assert out[2] == 1.0

    def test_slot_resolution(self):
        circuit = parse_circuit("Ry0:phi0", 1)
        assert circuit.gates[0].free
        zero = basis_state(1, 0).amplitudes
        out = apply_circuit_array(zero, 1, circuit, [math.pi])
        assert abs(out[1] - 1.0) < 1e-12
        with pytest.raises(ConfigError):
            apply_circuit_array(zero, 1, circuit, [])

    def test_unitarity_round_trip(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(1, 5)
            s = rand_state(n, rng)
            q = rng.randrange(n)
            theta = rng.uniform(0, 4 * math.pi)
            fwd = apply_circuit_array(s.amplitudes, n, QuantumCircuit(n, (
                GateInstance(GATE_KINDS["Ry"], (q,), angle=theta),)))
            back = apply_circuit_array(fwd, n, QuantumCircuit(n, (
                GateInstance(GATE_KINDS["Ry"], (q,), angle=-theta),)))
            assert np.allclose(back, s.amplitudes, atol=1e-10)


class TestApplyCircuit:
    def test_empty_circuit(self):
        s = basis_state(3, 5)
        out = apply_circuit_array(s.amplitudes, 3, QuantumCircuit(3, ()))
        assert np.array_equal(out, s.amplitudes)

    def test_two_flips(self):
        c = parse_circuit("Ry0:pi Ry1:pi", 2)
        out = apply_circuit_array(basis_state(2, 0).amplitudes, 2, c)
        assert abs(abs(out[3]) - 1.0) < 1e-12

    def test_gate_order_matters(self):
        # X then H differs from H then X on |0>
        zero = basis_state(1, 0).amplitudes
        a = apply_circuit_array(zero, 1, parse_circuit("X0 H0", 1))
        b = apply_circuit_array(zero, 1, parse_circuit("H0 X0", 1))
        assert not np.allclose(a, b)

    def test_param_count_checked(self):
        c = parse_circuit("Ry0:phi0 Ry1:phi1", 2)
        with pytest.raises(ConfigError):
            apply_circuit_array(basis_state(2, 0).amplitudes, 2, c, [1.0])

    def test_wrong_length_rejected(self):
        amps = np.ones(6, dtype=complex)
        for text in ("Ry0:0.3", "CNOT0,1"):
            with pytest.raises(ConfigError, match="expected 4 amplitudes"):
                apply_circuit_array(amps, 2, parse_circuit(text, 2))

    def test_norm_preserved_random(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 5)
            out = apply_circuit_array(rand_state(n, rng).amplitudes, n,
                                      rand_circuit(n, rng))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           data=st.data())
    def test_part_equals_direct_construction(self, seed, n, data):
        """A part, built without re-checking its gates, equals the circuit
        built from the same slice: gates, free-angle count and ops."""
        rng = random.Random(seed)
        kinds = ("Ry", "P", "H", "CNOT")[:3 + (n > 1)]
        table = GateTable(n, kinds)
        circuit = gene_to_circuit(random_gene(table.pset, 12, rng), table)
        if data.draw(st.booleans()):    # fixed angles on some Ry gates
            circuit = QuantumCircuit(n, tuple(
                GateInstance(g.kind, g.qubits, rng.uniform(0, 4 * math.pi))
                if g.free and rng.random() < 0.5 else g
                for g in circuit.gates))
        start = data.draw(st.integers(0, len(circuit)))
        stop = data.draw(st.none() | st.integers(start, len(circuit)))
        part = circuit.part(start, stop)
        direct = QuantumCircuit(n, circuit.gates[start:stop])
        assert part == direct and hash(part) == hash(direct)
        assert part.n_params == direct.n_params
        assert len(part.ops) == len(direct.ops)
        for a, b in zip(part.ops, direct.ops):
            if a is not None and a[0] < 0:      # a CNOT run's table
                assert b[0] < 0 and np.array_equal(a[1], b[1])
            else:
                assert a == b

    def test_out_of_range_qubit_rejected(self):
        for text in ("H2", "CNOT0,2", "CNOT2,1"):
            gate = parse_circuit(text, 3).gates[0]
            with pytest.raises(ConfigError, match="qubit 2 out of range"):
                QuantumCircuit(2, (gate,))


# ---------------------------------------------------------------------------
def check_widened(wide, mat, q):
    """``wide`` equals kron(mat, I_{2^q})^T entry by entry, with ``mat``'s
    entries in their bits and every other entry +0.0."""
    low = 1 << q
    assert np.array_equal(wide, np.kron(mat, np.eye(low)).T)
    blocks = wide.reshape(2, low, 2, low)
    k = np.arange(low)
    assert same_bits(blocks[:, k, :, k], np.broadcast_to(mat.T, (low, 2, 2)))
    rest = np.ones(blocks.shape, bool)
    rest[:, k, :, k] = False
    assert same_bits(blocks[rest], np.zeros(int(rest.sum())))


def kernel_matrix(name, angle=None, complex_state=False):
    """The 2x2 matrix the kernel multiplies by for kind ``name`` (or the
    sweep's -iY), on any qubit: the first of its ``_kernel_forms``."""
    return sim._kernel_forms(name, angle, complex_state, 0)[0]


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


def moveaxis_stack(amps, mat, q):
    """moveaxis_1q on a whole (..., 2^n) stack at once: qubit q's axis of
    the (..., 2, ..., 2) tensor to the front, one 2x2 @ 2xM product."""
    n_bits = amps.shape[-1].bit_length() - 1
    axis = amps.ndim - 1 + n_bits - 1 - q
    t = np.moveaxis(amps.reshape(amps.shape[:-1] + (2,) * n_bits), axis, 0)
    shape = t.shape
    t = (mat @ t.reshape(2, -1)).reshape(shape)
    return np.moveaxis(t, 0, axis).reshape(amps.shape)


# CNOT on the (control, target) axes that moveaxis_2q brings to the front;
# real, so a real state stays real and a complex one promotes it
CNOT_4X4 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=float)


def reference_instance(amps, gate, angle):
    """The moveaxis kernel run on each state along the leading axes, with
    the simulator's own 1-qubit matrices, so that bit-for-bit checks
    isolate the kernels' indexing; real amplitudes stay real through real
    gates, as in the simulator."""
    n_bits = amps.shape[-1].bit_length() - 1
    outs = [moveaxis_1q(row, n_bits, kernel_matrix(gate.kind.name, angle),
                        gate.qubits[0])
            if gate.kind.n_qubits == 1
            else moveaxis_2q(row, n_bits, CNOT_4X4, *gate.qubits)
            for row in amps.reshape(-1, amps.shape[-1])]
    return np.stack(outs).reshape(amps.shape)


@st.composite
def kernel_states(draw, max_bits=10, min_bits=1, count=3):
    """(n, rows): ``count`` unnormalized complex states, every 2nd and 3rd
    of each three with about half and 95% of their real and imaginary
    parts set to +-0."""
    n = draw(st.integers(min_bits, max_bits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = (rng.normal(size=(count, 1 << n))
            + 1j * rng.normal(size=(count, 1 << n)))
    for amps, zero_frac in zip(rows, itertools.cycle((0.0, 0.5, 0.95))):
        for part in (amps.real, amps.imag):
            mask = rng.random(1 << n) < zero_frac
            part[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    return n, rows


def cnot_runs(gates):
    """The maximal runs of consecutive CNOTs in ``gates``, lone ones
    included."""
    runs, run = [], []
    for gate in list(gates) + [None]:
        if gate is not None and gate.kind.name == "CNOT":
            run.append(gate)
            continue
        if run:
            runs.append(run)
        run = []
    return runs


def run_tables(circuit):
    """The index tables of a circuit's compiled CNOT runs, in order."""
    return [op[1] for op in circuit.ops if op is not None and op[0] < 0]


def gate_by_gate(amps, gates, params):
    """``gates`` applied one at a time, each as a one-gate circuit through
    ``apply_circuit_array``."""
    n = amps.shape[-1].bit_length() - 1
    free_angles = iter(params)
    for gate in gates:
        own = (float(next(free_angles)),) if gate.free else ()
        amps = apply_circuit_array(amps, n, QuantumCircuit(n, (gate,)), own)
    return amps


def reference_apply(amps, n_bits, circuit, params=()):
    """``apply_circuit_array`` with every gate through the moveaxis
    reference kernel, none fused."""
    free_angles = iter(params)
    for gate in circuit.gates:
        angle = float(next(free_angles)) if gate.free else gate.angle
        amps = reference_instance(amps, gate, angle)
    return amps


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def same_values_nonzero_bits(out, ref):
    """Equal values, and equal raw bits wherever a (real or imaginary)
    part of ``ref`` is nonzero: a 4x4 permutation product adds +-0 terms,
    so the sign of an exactly zero part is BLAS's."""
    parts = np.ascontiguousarray(out).view(np.float64)
    ref_parts = np.ascontiguousarray(ref).view(np.float64)
    nonzero = ref_parts != 0
    return (np.array_equal(out, ref)
            and same_bits(parts[nonzero], ref_parts[nonzero]))


def check_real_states(rows, gate, same=same_bits):
    """Float64 states through one gate: float64 out for a real gate on two
    qubits or more, complex otherwise; ``same`` as the moveaxis reference
    run on that dtype, and the values of the complex path on the states'
    complex casts."""
    n = rows.shape[-1].bit_length() - 1
    real = n > 1 and gate.kind.name not in ("P", "Y")
    for amps in rows:
        out = gate_by_gate(amps, [gate], ())
        assert out.dtype == (np.float64 if real else complex)
        assert same(out, reference_instance(amps.astype(out.dtype), gate,
                                            gate.angle))
        assert np.array_equal(out, gate_by_gate(amps.astype(complex),
                                                [gate], ()))


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
                outs = [gate_by_gate(amps, [gate], ()) for amps in rows]
                for amps, out in zip(rows, outs):
                    ref = reference_instance(amps, gate, gate.angle)
                    assert same_bits(out, ref), (name, q)
                dense = dense_gate(gate, n)
                assert np.allclose(outs, (dense @ rows.T).T,
                                   rtol=0, atol=1e-12)
                check_real_states(np.ascontiguousarray(rows.real), gate)

    @settings(deadline=None, max_examples=20)
    @given(states=kernel_states(max_bits=12, min_bits=2, count=8),
           lead=st.sampled_from([(), (1,), (2,), (3,), (8,)]),
           phase=st.floats(-10.0, 10.0, allow_nan=False),
           theta=st.floats(-20.0, 20.0, allow_nan=False))
    def test_kernel_rule_bits(self, states, lead, phase, theta):
        """Every kind on every qubit of float64 and complex stacks of
        states, of every shape the kernel tells apart (one row or more,
        a few blocks above q or many): the raw bits of the moveaxis
        reference run row by row, zero signs included, whichever product
        the kernel picks; P and Y make a float64 state complex as a cast
        would. A complex product below q = 4 is one product over the
        whole stack, as it always was, and rounds as the moveaxis
        reference run on the stack at once, not always as row by row."""
        n, rows = states
        stack = rows[:math.prod(lead)].reshape(lead + (1 << n,))
        kinds = [("H", None), ("X", None), ("Y", None), ("Z", None),
                 ("P", None), ("P", phase), ("Ry", theta)]
        for amps in (stack, np.ascontiguousarray(stack.real)):
            for name, angle in kinds:
                for q in range(n):
                    gate = GateInstance(GATE_KINDS[name], (q,), angle=angle)
                    out = apply_circuit_array(
                        amps, n, QuantumCircuit(n, (gate,)))
                    real = (amps.dtype == np.float64
                            and name not in ("P", "Y"))
                    assert out.dtype == (np.float64 if real else complex)
                    cast = amps.astype(out.dtype)
                    if not real and q < 4 and stack.size > 1 << n:
                        ref = moveaxis_stack(cast, kernel_matrix(
                            name, gate.angle), q)
                    else:
                        ref = reference_instance(cast, gate, gate.angle)
                    assert same_bits(out, ref), (name, q)

    def test_single_row_at_the_top_qubit(self):
        """One float64 row with q = n - 1 <= 3 is one block of 2^n
        amplitudes: as one widened row it would be a vector-matrix
        product, which rounds otherwise, so it keeps the reference's
        bits through the batched product, alone and as a (1, 2^n) stack."""
        rng = np.random.default_rng(23)
        for n in (2, 3, 4):
            gate = GateInstance(GATE_KINDS["Ry"], (n - 1,))
            for _ in range(100):
                theta = rng.uniform(-20.0, 20.0)
                for shape in ((1 << n,), (1, 1 << n)):
                    amps = rng.normal(size=shape)
                    out = apply_circuit_array(
                        amps, n, QuantumCircuit(n, (gate,)), (theta,))
                    assert out.dtype == np.float64
                    assert same_bits(out, reference_instance(amps, gate,
                                                             theta)), n

    @settings(deadline=None, max_examples=10)
    @given(states=kernel_states())
    def test_cnot_bits(self, states):
        n, rows = states
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                gate = GateInstance(GATE_KINDS["CNOT"], (control, target))
                outs = [gate_by_gate(amps, [gate], ()) for amps in rows]
                for amps, out in zip(rows, outs):
                    ref = reference_instance(amps, gate, None)
                    assert same_values_nonzero_bits(out, ref)
                dense = dense_gate(gate, n)
                assert np.allclose(outs, (dense @ rows.T).T,
                                   rtol=0, atol=1e-12)
                check_real_states(np.ascontiguousarray(rows.real), gate,
                                  same_values_nonzero_bits)

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(1, 10), batch=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_runs_as_separate_states(self, n, batch, seed):
        """A (B, 2^n) array goes through a circuit as B separate runs.
        Within 1e-13 always; bit for bit from n = 2 on. At n = 1 a 1-qubit
        gate is a 2x2 @ 2x1 product alone but 2x2 @ 2xB batched, and the
        two may differ in the last bit. Float64 stacks whose entries are
        mostly +-0, as the sweep's pairs built from one-hots are, go
        through real gates bit for bit too, zero signs included. A complex
        product below q = 4, P or Y on such a stack among them, is one
        product over the whole stack, which may give an exact zero the
        other sign than row by row; ``test_kernel_rule_bits`` checks it
        against the moveaxis reference run on the stack at once."""
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
            real = np.random.default_rng(seed).normal(size=(batch, 1 << n))
            for amps in real:
                # all but one entry, or about 95% or half of them, +-0
                zero_frac = rng.choice((1.0, 0.95, 0.5))
                mask = np.array([rng.random() < zero_frac
                                 for _ in range(1 << n)])
                mask[rng.randrange(1 << n)] = False
                amps[mask] = [rng.choice((0.0, -0.0))
                              for _ in range(int(mask.sum()))]
            gates = rand_circuit(n, rng, kinds=("Ry", "H", "X", "Z", "CNOT"),
                                 head=rng.randint(1, 15))
            out = apply_circuit_array(real, n, gates)
            assert out.dtype == np.float64
            assert same_bits(out, np.stack([apply_circuit_array(amps, n, gates)
                                            for amps in real]))

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           lead=st.sampled_from([(), (2,)]))
    def test_real_until_p_or_y(self, n, seed, lead):
        """Float64 states stay float64 through Ry, H, X, Z and CNOT and are
        complex from the first P or Y on; 1-qubit states, and inputs of
        any other dtype than float64 and complex128, are complex from the
        start."""
        rng = random.Random(seed)
        circuit = rand_circuit(n, rng, head=rng.randint(1, 12))
        amps = np.random.default_rng(seed).normal(size=lead + (1 << n,))
        complex_from = next((i + 1 for i, gate in enumerate(circuit.gates)
                             if gate.kind.name in ("P", "Y")), None)
        for stop in range(len(circuit) + 1):
            out = apply_circuit_array(amps, n, circuit.part(0, stop))
            real = n > 1 and (complex_from is None or stop < complex_from)
            assert out.dtype == (np.float64 if real else complex), stop
        for dtype in (np.int64, np.float32, np.complex64, complex):
            out = apply_circuit_array(amps.astype(dtype), n, circuit)
            assert out.dtype == complex

    @settings(deadline=None, max_examples=100)
    @given(case=kernel_states(), data=st.data(),
           name=st.sampled_from(["H", "X", "Z", "Ry"]),
           angle=st.floats(-20.0, 20.0))
    def test_complex_states_take_complex_twins(self, case, data, name, angle):
        """A real kind on complex states: the kernel multiplies by the
        matrix's complex128 twin, whose products give the bits of the
        product with the matrix written complex from its definition, and
        of numpy casting the real matrix, as before twins existed."""
        n, rows = case
        q = data.draw(st.integers(0, n - 1))
        angle = angle if name == "Ry" else None
        twin = kernel_matrix(name, angle, complex_state=True)
        real = kernel_matrix(name, angle)
        assert twin.dtype == complex and not twin.flags.writeable
        assert real.dtype == np.float64
        assert same_bits(twin, one_qubit_matrix(name, angle))
        circuit = QuantumCircuit(n, (GateInstance(GATE_KINDS[name], (q,),
                                                  angle),))
        for amps in (rows, rows[0]):
            out = apply_circuit_array(amps, n, circuit)
            assert out.dtype == complex
            assert same_bits(out, sim._apply_1q(
                amps, one_qubit_matrix(name, angle), q))
            assert same_bits(out, sim._apply_1q(amps, real.astype(complex),
                                                q))

    def test_kernels_leave_input_and_matrices_alone(self):
        amps = rand_state(4, random.Random(3)).amplitudes
        before = amps.copy()
        for token in ("Ry2:0.7", "CNOT3,1", "H0", "P3"):
            gate_by_gate(amps, parse_circuit(token, 4).gates, ())
        assert same_bits(amps, before)
        assert sorted(sim._FIXED_ROWS) == ["-iY", "H", "X", "Y", "Z"]
        # the kernel's forms: each 2x2 matrix and the widened ones, of the
        # fixed kinds and the sweep's -iY at every q, and of Ry and P
        keys = ([(name, None, twin, q) for name in sim._FIXED_ROWS
                 for twin in (False, True) for q in range(sim.MAX_QUBITS)]
                + [(name, angle, twin, q)
                   for name in ("Ry", "P") for angle in (0.7, -0.0)
                   for twin in (False, True) for q in range(6)])
        forms = [(key[3], sim._kernel_forms(*key)) for key in keys]
        mats = [kernel_matrix(name, sim.P_PHASE, twin)
                for name in ("Ry", "P") for twin in (False, True)]
        wide = [w for _, (_, w) in forms if w is not None]
        # H, X, Z on float64 states at q <= 3, -iY there, and Ry
        assert len(wide) == 3 * 4 + 4 + 2 * 4
        for q, (_, w) in forms:
            assert w is None or w.shape == (2 << q, 2 << q)
        for mat in mats + [m for _, (m, _) in forms] + wide:
            assert not mat.flags.writeable
            with pytest.raises(ValueError):
                mat[0, 0] = 5.0
        # above q = 3 the forms do not depend on q: one cache entry
        assert sim._kernel_forms("H", None, False, 4) \
            is sim._kernel_forms("H", None, False, sim.MAX_QUBITS - 1)
        out = apply_circuit_array(basis_state(1, 0).amplitudes, 1,
                                  parse_circuit("H0", 1))
        assert abs(out[0] - 1 / math.sqrt(2)) < 1e-15

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), n=st.integers(1, 12),
           lead=st.sampled_from([(), (2,), (2, 2)]),
           chunk=st.sampled_from([sim._GATHER_CHUNK, 4]))
    def test_fused_cnot_runs_match_gate_by_gate(self, data, n, lead, chunk):
        """CNOT runs of 1-8 (longer where two meet) between Ry, P, H and X
        gates: the compiled ops, one gather per run, give the raw bits of
        the gates applied one at a time, also when a gather goes in chunks
        of 4 indices."""
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sim, "_GATHER_CHUNK", chunk)
            self.check_fused_runs(data, n, lead)

    def check_fused_runs(self, data, n, lead):
        gates, params = [], []
        for _ in range(data.draw(st.integers(0, 6))):
            if n > 1 and data.draw(st.booleans()):
                for _ in range(data.draw(st.integers(1, 8))):
                    pair = data.draw(st.permutations(range(n)))[:2]
                    gates.append(GateInstance(GATE_KINDS["CNOT"], tuple(pair)))
            else:
                name = data.draw(st.sampled_from(["Ry", "P", "H", "X"]))
                gate = GateInstance(GATE_KINDS[name],
                                    (data.draw(st.integers(0, n - 1)),))
                gates.append(gate)
                if gate.free:
                    params.append(data.draw(st.floats(-20.0, 20.0)))
        circuit = QuantumCircuit(n, tuple(gates))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = lead + (1 << n,)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for component in (amps.real, amps.imag):    # signed zeros too
            mask = rng.random(shape) < 0.3
            component[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
        if n > 1 and data.draw(st.booleans()):     # 1 qubit: complex at entry
            amps = amps.real.copy()
        before = amps.copy()
        fused = apply_circuit_array(amps, n, circuit, params)
        assert same_bits(fused, gate_by_gate(amps, gates, params))
        assert same_bits(amps, before)
        runs = cnot_runs(gates)
        tables = run_tables(circuit)
        assert len(tables) == len(runs)
        assert sum(op is None for op in circuit.ops) \
            == sum(len(run) - 1 for run in runs)
        # tables of at most one chunk are intp, which np.take uses as
        # they are; longer ones int32, gathered a chunk at a time
        assert all(not t.flags.writeable and t.dtype == (
            np.intp if len(t) <= sim._GATHER_CHUNK else np.int32)
            for t in tables)
        # a part gives its gates' bits, cut inside a run or not, and shares
        # the tables of the runs it holds whole
        start = data.draw(st.integers(0, len(gates)))
        stop = data.draw(st.integers(start, len(gates)))
        part = circuit.part(start, stop)
        first_param = sum(gate.free for gate in gates[:start])
        assert same_bits(apply_circuit_array(amps, n, part,
                                             params[first_param:]),
                         gate_by_gate(amps, gates[start:stop],
                                      params[first_param:]))
        if all(i == len(gates) or circuit.ops[i] is not None
               for i in (start, stop)):
            assert len(part.ops) == stop - start
            assert all(a is b for a, b in zip(part.ops,
                                               circuit.ops[start:stop]))

    def test_cnot_run_gather_memory(self):
        """An 8-CNOT run on a (2, 2^16) pair, table built on first use,
        allocates at most the output and one table: at one chunk the
        table is intp, so np.take makes no copy of it."""
        n = 16
        pairs = [(0, 5), (5, 9), (15, 0), (3, 12), (12, 7), (9, 1), (1, 15),
                 (7, 3)]
        circuit = QuantumCircuit(n, tuple(
            GateInstance(GATE_KINDS["CNOT"], pair) for pair in pairs))
        amps = np.ones((2, 1 << n), dtype=complex)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = apply_circuit_array(amps, n, circuit)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        table, = run_tables(circuit)
        assert table.dtype == np.intp and len(table) == sim._GATHER_CHUNK
        bound = out.nbytes + table.nbytes
        assert peak <= bound + 16384, (peak, bound)

    def test_gather_above_one_chunk(self):
        """At 17 bits each run's table, a lone CNOT's too, goes in two
        chunks of 2^16 indices, with the raw bits of the gates applied one
        at a time."""
        n = 17
        assert 1 << n == 2 * sim._GATHER_CHUNK
        circuit = parse_circuit("H16 CNOT16,0 CNOT3,16 Ry16:0.3 CNOT0,9 "
                                "CNOT9,16 CNOT16,2 P16 CNOT1,16 H0", n)
        rng = np.random.default_rng(17)
        amps = rng.normal(size=(2, 1 << n)) + 1j * rng.normal(size=(2, 1 << n))
        fused = apply_circuit_array(amps, n, circuit)
        assert len(run_tables(circuit)) == 3
        assert same_bits(fused, gate_by_gate(amps, circuit.gates, ()))

    def test_chunked_gather_memory(self):
        """Above one chunk, a gather allocates the output and one chunk's
        intp copy of its indices, gathered row by row straight into the
        output: no intp copy of the whole table (8 MB here) and no buffer
        for the output slice, on complex and on real states."""
        n = 20
        circuit = parse_circuit("CNOT0,19 CNOT19,7 CNOT7,0", n)
        circuit.ops     # the table is built before the trace starts
        for dtype in (complex, np.float64):
            amps = np.ones((2, 1 << n), dtype=dtype)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = apply_circuit_array(amps, n, circuit)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert out.dtype == dtype
            per_chunk = (1 << 16) * np.dtype(np.intp).itemsize
            assert peak <= out.nbytes + per_chunk + 16384, (dtype, peak)

    def test_negative_zero_angle_keeps_its_matrix(self, monkeypatch):
        """Ry at 0.0 and -0.0 in turn, whose matrices differ in the sign
        of a zero entry, reaches the kernel with its own matrix. On a
        complex state the outputs differ in a zero's sign, and each has
        the bits of the moveaxis reference with Ry written from its
        definition. On float64 states at q <= 3 (the widened form) and
        q = 4 (the batched form) the products round both zeros alike, so
        the forms the kernel takes are checked against that definition,
        bit for bit, as well as the outputs."""
        gate = GateInstance(GATE_KINDS["Ry"], (0,))
        amps = np.array([-0.0, 1.0, 1.0, -0.0], dtype=complex)
        outs = []
        for angle in (0.0, -0.0, 0.0):
            outs.append(gate_by_gate(amps, [gate], (angle,)))
            assert same_bits(outs[-1], moveaxis_1q(
                amps, 2, one_qubit_matrix("Ry", angle), 0))
        assert not same_bits(outs[0], outs[1])
        kernel, taken = sim._apply_1q, []

        def recording(amps, mat, q, wide=None, out=None):
            taken.append((mat, wide))
            return kernel(amps, mat, q, wide, out)

        monkeypatch.setattr(sim, "_apply_1q", recording)
        n = 6
        rows = np.random.default_rng(6).choice([-0.0, 0.0, -1.0, 1.0],
                                               size=(3, 1 << n))
        for q in range(5):
            gate = GateInstance(GATE_KINDS["Ry"], (q,))
            for angle in (0.0, -0.0, 0.0):
                taken.clear()
                out = gate_by_gate(rows, [gate], (angle,))
                ref = one_qubit_matrix("Ry", angle).real
                (mat, wide), = taken
                assert same_bits(mat, ref), (q, angle)
                assert (wide is None) == (q == 4)
                if wide is not None:
                    check_widened(wide, ref, q)
                assert out.dtype == np.float64
                assert same_bits(out, np.stack([moveaxis_1q(row, n, ref, q)
                                                for row in rows])), (q, angle)


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
    artifacts, calls = [], []

    def reference(*args):
        calls.append(args)
        return reference_apply(*args)

    for patched in (False, True):
        d = tmp_path / str(patched)
        d.mkdir()
        save_graph(Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                             (0, 3), (1, 4))), str(d / "g.txt"))
        (d / "pairs.txt").write_text("0 1\n1 3\n2 6\n5 12\n9 7\n")
        (d / "in.txt").write_text(LOCK_INPUTS[name])
        with monkeypatch.context() as m:
            if patched:
                m.setattr(sim, "apply_circuit_array", reference)
                m.setattr(fitness_mod, "apply_circuit_array", reference)
            run(parse_input(d / "in.txt"))
        artifacts.append({p.name: p.read_bytes() for p in sorted(d.iterdir())
                          if p.name in ("trace.csv", "best.circ",
                                        "maxcut.txt")})
    assert len(artifacts[0]) == (3 if name == "maxcut" else 2)
    assert calls and artifacts[0] == artifacts[1]


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
        sym = table.placements.index((GATE_KINDS["CNOT"], (2, 0)))
        assert table.placements[sym] == (GATE_KINDS["CNOT"], (2, 0))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            GateTable(2, ["Q"])
        assert str(err.value) \
            == "unknown gate 'Q' (choose from CNOT, H, P, Ry, X, Y, Z)"

    def test_duplicate_kind(self):
        with pytest.raises(ConfigError) as err:
            GateTable(2, ["Ry", "Ry"])
        assert str(err.value) == "duplicate gate kind"

    @settings(deadline=None, max_examples=200)
    @given(n=st.integers(1, 5),
           p_phase=st.sampled_from([sim.P_PHASE, 0.0, math.pi / 4]),
           kinds=st.sets(st.sampled_from(sorted(GATE_KINDS)), min_size=1))
    def test_every_symbol_is_named_by_its_token(self, n, p_phase, kinds):
        """Each symbol's name is the token of its one-gate circuit without
        the angle, and that circuit encodes back to the symbol."""
        table = GateTable(n, sorted(kinds), p_phase=p_phase)
        for symbol in range(table.terminal):
            circuit = QuantumCircuit(n, (table.instance(symbol),))
            token = circuit_to_string(circuit)
            assert table.pset.names[symbol] == token.split(":")[0]
            gene = circuit_to_gene(circuit, table, 1)
            assert gene.symbols[0] == symbol
            assert gene_to_circuit(gene, table) == circuit


class TestGeneBridge:
    def table(self):
        return GateTable(4, ["H", "Ry", "CNOT"])

    def gene_of(self, table, tokens, head=8):
        symbols = [table.placements.index((GATE_KINDS[kind], qubits))
                   for kind, qubits in tokens]
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
        h = GATE_KINDS["H"]
        symbols = [table.placements.index((h, (0,))),
                   table.placements.index((h, (1,))), table.terminal,
                   table.placements.index((h, (2,)))]
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

    def test_rejected_p_gate_shows_its_phase(self):
        # P at pi/2 prints as "P0" in a circuit string, the name of the
        # table's own symbol for P at 0.5
        table = GateTable(1, ["P"], p_phase=0.5)
        circuit = QuantumCircuit(1, (GateInstance(GATE_KINDS["P"], (0,)),))
        with pytest.raises(ConfigError) as err:
            circuit_to_gene(circuit, table, 2)
        assert str(err.value) == "cannot encode P0:pi/2 as a genome symbol"

    def test_circuit_to_gene_rejects_bound_ry(self):
        table = self.table()
        bound = QuantumCircuit(4, (GateInstance(GATE_KINDS["Ry"], (0,),
                                                angle=1.0),))
        with pytest.raises(ConfigError):
            circuit_to_gene(bound, table, 8)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), n=st.integers(1, 3),
           p_phase=st.sampled_from([sim.P_PHASE, 0.0, math.pi / 4]),
           kinds=st.sets(st.sampled_from(sorted(GATE_KINDS)), min_size=1))
    def test_circuit_to_gene_one_rule_matches_the_two_checks(
            self, data, n, p_phase, kinds):
        """A gate is a symbol exactly when the table has its placement and
        it passes the two per-kind checks that the one angle rule replaced;
        a rejection names the first other gate by its placement and, when
        it has one, its angle."""
        usable = sorted(k for k in GATE_KINDS
                        if n > 1 or GATE_KINDS[k].n_qubits == 1)
        assume(kinds & set(usable))
        table = GateTable(n, sorted(kinds & set(usable)), p_phase=p_phase)
        gates = []
        for _ in range(data.draw(st.integers(0, 5))):
            kind = GATE_KINDS[data.draw(st.sampled_from(usable))]
            qubits = data.draw(st.permutations(range(n)))[:kind.n_qubits]
            angle = None
            if kind.name == "Ry":       # free, or fixed on and off the grid
                angle = data.draw(st.sampled_from([None, 0.0, math.pi / 4,
                                                   1.0]))
            elif kind.name == "P":      # the table's phase, or another
                angle = data.draw(st.sampled_from([
                    p_phase, sim.P_PHASE, 0.0, -0.0, math.pi / 4, 1.0]))
            gates.append(GateInstance(kind, tuple(qubits), angle))
        circuit = QuantumCircuit(n, tuple(gates))

        def passes_the_two_checks(gate):
            if gate.kind.n_slots and not gate.free:     # a fixed-angle Ry
                return False
            if gate.kind.name == "P" and gate.angle != table.p_phase:
                return False
            return (gate.kind, gate.qubits) in table.placements

        rejected = [i for i, gate in enumerate(gates)
                    if not passes_the_two_checks(gate)]
        if not rejected:
            gene = circuit_to_gene(circuit, table, 5)
            assert gene_to_circuit(gene, table) == circuit
            return
        gate = gates[rejected[0]]
        token = gate.kind.name + ",".join(map(str, gate.qubits))
        if gate.angle is not None:
            token += f":{format_angle(gate.angle)}"
        with pytest.raises(ConfigError, match=f"^cannot encode "
                           f"{re.escape(token)} as a genome symbol$"):
            circuit_to_gene(circuit, table, 5)


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
            out_a = apply_circuit_array(s.amplitudes, n, circuit)
            out_b = apply_circuit_array(s.amplitudes, n, canonicalize(circuit))
            fidelity = abs(np.vdot(out_a, out_b)) ** 2
            assert fidelity >= 1.0 - 1e-10


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


@st.composite
def mixed_circuits(draw, max_bits=4):
    """Circuits of every gate kind on 1-4 qubits, most gates on qubits 0-1
    so that neighbours meet: Ry free or at a fixed angle (multiples of
    pi/4, negative ones and zeros of either sign included, so fused chains
    cancel, or any angle), P at its default or another phase."""
    n = draw(st.integers(1, max_bits))
    qubit = st.integers(0, n - 1) | st.integers(0, min(1, n - 1))
    angle = (st.integers(-16, 16).map(lambda k: k * math.pi / 4)
             | st.sampled_from([0.0, -0.0, 4.0 * math.pi, -4.0 * math.pi])
             | st.floats(-20.0, 20.0))
    gates = []
    for _ in range(draw(st.integers(0, 14))):
        names = [k for k, kind in GATE_KINDS.items()
                 if n > 1 or kind.n_qubits == 1]
        name = draw(st.sampled_from(names))
        if name == "CNOT":
            control = draw(qubit)
            target = draw(qubit.filter(lambda q: q != control))
            gates.append(GateInstance(GATE_KINDS[name], (control, target)))
            continue
        fixed = None
        if name == "Ry" and draw(st.booleans()):
            fixed = draw(angle)
        elif name == "P" and draw(st.booleans()):
            fixed = draw(angle)
        gates.append(GateInstance(GATE_KINDS[name], (draw(qubit),), fixed))
    return QuantumCircuit(n, tuple(gates))


def tree_path_circuit(gene, table):
    """The circuit read from the decoded expression tree, gate by gate."""
    # the tree's nodes are in breadth-first order
    symbols = [node.symbol for node in decode(gene).nodes]
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

    @settings(deadline=None, max_examples=600)
    @given(circuit=mixed_circuits() | gene_circuits().map(lambda case: case[2]))
    def test_canonicalize_matches_fixed_point_reference(self, circuit):
        # gate for gate, angles bit for bit (the sign of a zero too)
        ours, ref = canonicalize(circuit), reference_canonicalize(circuit)
        assert ours == ref
        assert [math.copysign(1.0, g.angle) for g in ours.gates
                if g.angle is not None] \
            == [math.copysign(1.0, g.angle) for g in ref.gates
                if g.angle is not None]


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

    @pytest.mark.parametrize("angle", [-1e-17, math.atan2(-1e-18, 1.0),
                                       4 * math.pi - 1e-12])
    def test_full_turn_from_below_formats_as_zero(self, angle):
        # each reduces to within the snap of 4*pi, a full turn, so 0
        assert format_angle(angle) == "0"

    @settings(max_examples=500)
    @given(angle=st.floats(-20.0, 20.0))
    @example(angle=0.0)
    @example(angle=-0.0)
    def test_formatted_angle_parses_back(self, angle):
        """The text reads back as the angle mod 4*pi, up to the snap to a
        multiple of pi/4 (and the rounding of the reduction)."""
        back = parse_angle(format_angle(angle))
        assert abs(math.remainder(back - angle, 4 * math.pi)) <= 1e-9 + 1e-14

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
