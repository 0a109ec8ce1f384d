"""Independent references for the simulator tests.

Dense Kronecker products: each gate's matrix is written here from its
definition, independently of the simulator's own table, and embedded in
the full 2^n space with qubit n-1 as the leftmost factor; a circuit is the
product of its gates' dense matrices, the first gate rightmost. And the
canonical form as first written, rewrite by rewrite to a fixed point,
which the simulator's faster ``canonicalize`` must match gate for gate.
And the angle sweep's whole-register visit as first written, with every
visit stacked, which the sweep's turned-state visits must match in
angles and value.
"""

import math

import numpy as np

import gepcirc.fitness as fitness
from gepcirc.sim import GateInstance, QuantumCircuit, apply_circuit_array

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def one_qubit_matrix(name, angle=None):
    """The 2x2 unitary of a 1-qubit kind; Ry and P read ``angle``."""
    if name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if name == "X":
        return _X.copy()
    if name == "Y":
        return np.array([[0, -1j], [1j, 0]])
    if name == "Z":
        return np.diag([1.0, -1.0]).astype(complex)
    if name == "P":
        return np.diag([1.0, np.exp(1j * angle)])
    if name == "Ry":
        half = angle / 2.0
        return np.array([[math.cos(half), -math.sin(half)],
                         [math.sin(half), math.cos(half)]], dtype=complex)
    raise ValueError(f"not a 1-qubit kind: {name!r}")


def embed(ops, n):
    """The Kronecker product over qubits n-1 .. 0 of ``ops[q]`` (a 2x2
    matrix), or the identity where ``ops`` has no entry."""
    out = np.ones((1, 1), dtype=complex)
    for q in reversed(range(n)):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def dense_gate(gate, n):
    """A gate instance's 2^n x 2^n matrix. CNOT, control first, is
    |0><0|_c (x) I + |1><1|_c (x) X_t."""
    if gate.kind.name == "CNOT":
        control, target = gate.qubits
        return embed({control: _P0}, n) + embed({control: _P1, target: _X}, n)
    return embed({gate.qubits[0]: one_qubit_matrix(gate.kind.name,
                                                   gate.angle)}, n)


def dense_unitary(circuit):
    """Product of the gates' dense matrices, the first gate rightmost."""
    n = circuit.n_bits
    u = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        u = dense_gate(gate, n) @ u
    return u


def canonicalize(circuit):
    """The fixed-point canonical form as first written, kept as the
    reference for ``sim.canonicalize``: a bubble pass that swaps adjacent
    gates on disjoint qubits into (min qubit, max qubit) order, then a
    pass that cancels adjacent identical self-inverse gates and fuses
    adjacent Ry on one qubit, repeated until neither changes anything."""
    gates = list(circuit.gates)

    def sort_key(gate):
        return (min(gate.qubits), max(gate.qubits))

    changed = True
    while changed:
        changed = False
        for i in range(len(gates) - 1):
            a, b = gates[i], gates[i + 1]
            if not set(a.qubits) & set(b.qubits) and sort_key(b) < sort_key(a):
                gates[i], gates[i + 1] = b, a
                changed = True
        i = 0
        while i < len(gates) - 1:
            a, b = gates[i], gates[i + 1]
            if a.kind.name in {"H", "X", "Y", "Z", "CNOT"} and a == b:
                del gates[i:i + 2]
                changed = True
                i = max(i - 1, 0)
            elif (a.kind.name == "Ry" and b.kind.name == "Ry"
                  and a.qubits == b.qubits):
                fused = _fuse_ry(a, b)
                gates[i:i + 2] = [] if fused is None else [fused]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return QuantumCircuit(circuit.n_bits, tuple(gates))


def _fuse_ry(a, b):
    """Two adjacent Ry on one qubit as one, None when they cancel: a free
    gate absorbs the other, fixed angles add mod 4*pi."""
    if a.free or b.free:
        return a if a.free else b
    total = math.fmod(a.angle + b.angle, 4.0 * math.pi)
    if total < 0.0:
        total += 4.0 * math.pi
    if total == 0.0:
        return None
    return GateInstance(a.kind, a.qubits, angle=total)


class StackedVisits(fitness._KeptStates):
    """Whole-register kept states whose every visit pushes each kept state
    psi and -iY psi, stacked as one (2, 2^N) array, through the gates after
    the slot's gate, and reads (a, b, c) off the two outputs A and B: at
    slot angle t the output is cos(t/2) A + sin(t/2) B, in either phase
    of the sweep. Moves and the value at the end are the sweep's own."""

    def sinusoid(self, phi, exact=False):
        problem, k = self.problem, self.k
        q = self.qubits[k]
        forms = fitness._kernel_forms("-iY", None,
                                      self.states[0].dtype == complex, q)
        pairs = (apply_circuit_array(fitness._stacked(amps, q, forms),
                                     problem.n_bits, self.suffixes[k],
                                     phi[k + 1:])
                 for amps in self.states)
        if not problem.outputs:
            aa, bb, ab = problem.hamiltonian.pair_elements(*next(pairs))
            return -0.5 * (aa + bb), -0.5 * (aa - bb), -ab
        aa = bb = ab = 0.0
        for pair, out in zip(pairs, self.outputs):
            alpha, beta = pair[0, out], pair[1, out]
            aa += abs(alpha) ** 2
            bb += abs(beta) ** 2
            ab += (alpha.conjugate() * beta).real
        d = len(self.outputs)
        return 0.5 * (aa + bb) / d, 0.5 * (aa - bb) / d, ab / d
