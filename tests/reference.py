"""Dense Kronecker-product references for the simulator tests.

Each gate's matrix is written here from its definition, independently of
the simulator's own table, and embedded in the full 2^n space with qubit
n-1 as the leftmost factor; a circuit is the product of its gates' dense
matrices, the first gate rightmost.
"""

import math

import numpy as np

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
