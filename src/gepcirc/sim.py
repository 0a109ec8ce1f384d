"""Statevector simulator and the gene <-> circuit bridge.

Basis convention: index b holds qubit i in state (b >> i) & 1, so qubit 0
is the least significant bit and index 3 on 8 qubits is 00000011. Circuit
strings list gates in application order, the first token applied first:
the reverse of the gene coding region, which reads outermost
(last-applied) gate first.

A Ry gate carries a fixed angle in radians or none; a Ry without one is
free, and the k-th free Ry in gate order takes entry k of the parameter
vector. P is the phase gate diag(1, e^{i*lambda}) with lambda = pi/2 by
default (the S gate), overridable per gate table; a P gate built without
an angle stores pi/2.

Gate application works on the last axis of an amplitude array shaped
(..., 2^N), so a stack of states goes through a circuit in one run. A
1-qubit gate on qubit q is one BLAS product, chosen by the dtypes (see
``_apply_1q``). A real product (float64 state and matrix) at q <= 3
multiplies the state, viewed as rows of 2^(q+1) amplitudes, by the
matrix widened to kron(M, I_{2^q})^T, 4x4 to 16x16; above q = 3 it is
one batched 2x2 @ (2, 2^q) product per block of the (high, 2, low) view,
low = 2^q. Neither copies the state. A complex product takes the batched
form from q = 4 on at most 8 blocks or at least 2^15 amplitudes, and
otherwise brings the qubit axis of the (high, 2, low) view to the front
for one 2x2 @ 2xM product and back. Each form is used only where it
rounds as the original kernel did, which moved the qubit's axis of the
(2,)*n tensor to the front for one 2x2 @ 2xM product, so every amplitude
comes out with the same bits: a single row's widened product would be a
vector-matrix one, which rounds otherwise, so one row takes the batched
form. CNOT, the only two-qubit kind, only permutes basis indices,
and so does every maximal run of consecutive CNOTs, a lone CNOT
included: the run is applied as one gather, np.take(amps, table,
axis=-1), through a read-only index table: intp up to 2^16 indices,
which np.take uses as it is, and int32 above, gathered in chunks of 2^16
indices. A gather does no arithmetic, so it gives the values of the
original 4x4 permutation products exactly (those products could only
change the sign of an exact zero), and a run's gather equals its CNOTs
gathered one at a time bit for bit.
The kernels' matrices come from one cached builder (``_forms``, through
``_kernel_forms``), keyed by kind, angle and the angle's sign, the
state's dtype and the qubit, every q > 3 sharing one entry as the forms
there do not depend on it: the read-only 2x2 matrix and, where a real
product takes it, its widened form. Nothing is built at import. The
sweep's -iY (see ``fitness``) is not a gate kind but comes from the same
builder.

A state stays float64 for as long as every gate applied to it is real.
The matrices of H, X, Z and Ry are float64 and those of Y and P complex,
and numpy's type promotion in the kernels' products picks the real or
the complex BLAS product, so a real state becomes complex128 at the first
P or Y that acts on it; a gather keeps the dtype. For a complex state
the builder makes H, X, Z and Ry (and -iY) complex128 twins, the values
the promotion would cast them to, so no product casts its matrix. On
real amplitudes the real 2x2 @ 2xM products (M >= 2) give the values of
the complex ones, so a real state costs 8 B per amplitude instead of 16
with no value changed (the kernel tests check both paths). A lone
1-qubit state is the exception: its 2x2 @ 2x1 product is a
matrix-vector one, which the real and complex BLAS routines round
differently, so states of one qubit are made complex at entry, like
inputs of any dtype but float64 and complex128.

A circuit is compiled into these kernel ops once, on first application
(``QuantumCircuit.ops``), and keeps its tables as long as it lives. The
parts of a circuit cut with ``QuantumCircuit.part`` share the tables of
the runs they hold whole, so such a run is tabled once however many
parts contain it. No table outlives the last circuit that uses it; there
is no cache across circuits.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gepcirc.engine import (
    ConfigError, Gene, Locator, PrimitiveSet, coding_length, make_gene,
)

MAX_QUBITS = 24        # dense statevectors above this exhaust memory
TWO_TURNS = 4.0 * math.pi   # Ry period on the SU(2) double cover
P_PHASE = math.pi / 2.0     # P's default phase: the S gate
_GATHER_CHUNK = 1 << 16     # indices per np.take of a CNOT run's table

__all__ = [
    "MAX_QUBITS", "P_PHASE",
    "GateKind", "GATE_KINDS", "gate_kinds", "GateInstance", "QuantumCircuit",
    "StateVector", "check_basis_index", "basis_state",
    "apply_circuit_array",
    "GateTable", "gene_to_circuit", "coding_circuit", "circuit_to_gene",
    "bind_params", "canonicalize",
    "format_angle", "parse_angle", "circuit_to_string", "parse_circuit",
    "parse_basis_label",
]


@dataclass(frozen=True)
class GateKind:
    name: str
    n_qubits: int
    n_slots: int


GATE_KINDS: dict[str, GateKind] = {
    "H": GateKind("H", 1, 0),
    "X": GateKind("X", 1, 0),
    "Y": GateKind("Y", 1, 0),
    "Z": GateKind("Z", 1, 0),
    "P": GateKind("P", 1, 0),
    "Ry": GateKind("Ry", 1, 1),
    "CNOT": GateKind("CNOT", 2, 0),
}


def gate_kinds(names: Sequence[str]) -> tuple[GateKind, ...]:
    """The named kinds; ConfigError for an unknown or repeated name."""
    for name in names:
        if name not in GATE_KINDS:
            raise ConfigError(f"unknown gate {name!r} "
                              f"(choose from {', '.join(sorted(GATE_KINDS))})")
    if len(set(names)) != len(names):
        raise ConfigError("duplicate gate kind")
    return tuple(GATE_KINDS[name] for name in names)


def _token(kind: GateKind, qubits: tuple[int, ...]) -> str:
    """A gate placement's name, without an angle: "H3", "Ry0", "CNOT0,1";
    genome symbols and circuit tokens are both named by it."""
    return f"{kind.name}{qubits[0]}" + (f",{qubits[1]}" if len(qubits) > 1 else "")


# self-inverse kinds cancel as adjacent identical pairs (P does not: P^2 = Z)
_SELF_INVERSE = {"H", "X", "Y", "Z", "CNOT"}


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


_SQRT_HALF = 1.0 / math.sqrt(2.0)
_COMPLEX = np.dtype(complex)
# the rows of the angle-free matrices: the fixed kinds, and -iY, which is
# not a gate kind: the sweep's Ry(t) = cos(t/2) I + sin(t/2) (-iY)
_FIXED_ROWS = {
    "H": [[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]],
    "X": [[0.0, 1.0], [1.0, 0.0]],
    "Y": [[0.0, -1j], [1j, 0.0]],
    "Z": [[1.0, 0.0], [0.0, -1.0]],
    "-iY": [[0.0, -1.0], [1.0, 0.0]],
}


@dataclass(frozen=True)
class GateInstance:
    """A gate bound to qubits, with a fixed angle or none.

    ``free`` is true for a Ry without an angle, which takes its angle from
    the parameter vector.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if len(self.qubits) != self.kind.n_qubits:
            raise ConfigError(
                f"{self.kind.name} takes {self.kind.n_qubits} qubits, "
                f"got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ConfigError(f"{self.kind.name} qubits must be distinct")
        if (self.angle is not None and not self.kind.n_slots
                and self.kind.name != "P"):
            raise ConfigError(f"{self.kind.name} takes no angle")
        if self.kind.name == "P" and self.angle is None:
            object.__setattr__(self, "angle", P_PHASE)
        object.__setattr__(self, "free",
                           bool(self.kind.n_slots) and self.angle is None)


_Op = tuple[int, GateInstance | np.ndarray] | None     # see _compile_ops


@dataclass(frozen=True)
class QuantumCircuit:
    """Ordered gate list applied left-to-right to a state.

    ``n_params`` is K, the number of free gates; the k-th free gate in gate
    order takes parameter k.
    """

    n_bits: int
    gates: tuple[GateInstance, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n_bits <= MAX_QUBITS:
            raise ConfigError(f"n_bits must be in 1..{MAX_QUBITS}")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_bits:
                    raise ConfigError(
                        f"qubit {q} out of range for {self.n_bits} bits"
                    )
        object.__setattr__(self, "n_params", sum(g.free for g in self.gates))

    def __len__(self) -> int:
        return len(self.gates)

    @functools.cached_property
    def ops(self) -> tuple[_Op, ...]:
        """What ``apply_circuit_array`` runs at each gate, compiled on first
        use (see ``_compile_ops``)."""
        return _compile_ops(self)

    def part(self, start: int, stop: int | None = None) -> QuantumCircuit:
        """``gates[start:stop]`` as a circuit. Unless the cut splits a CNOT
        run, its ops are the matching slice of this circuit's, so the two
        share their run tables."""
        gates = self.gates[start:stop]
        # built without __post_init__: this circuit checked these gates
        sub = object.__new__(QuantumCircuit)
        sub.__dict__.update(n_bits=self.n_bits, gates=gates,
                            n_params=sum(g.free for g in gates))
        ops = self.ops
        end = len(ops) if stop is None else stop
        if ((start >= len(ops) or ops[start] is not None)
                and (end >= len(ops) or ops[end] is not None)):
            sub.__dict__["ops"] = ops[start:stop]
        return sub


@dataclass(frozen=True)
class StateVector:
    """Dense amplitudes over the computational basis; always unit norm."""

    n_bits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_bits <= MAX_QUBITS:
            raise ConfigError(f"n_bits must be in 1..{MAX_QUBITS}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_bits,):
            raise ConfigError(
                f"expected {1 << self.n_bits} amplitudes, got {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) < 1e-10:
            raise ConfigError(f"state norm {norm} drifted from 1")


def check_basis_index(n_bits: int, index: int) -> None:
    """ConfigError unless ``index`` labels a basis state of n_bits qubits."""
    if not 0 <= index < (1 << n_bits):
        raise ConfigError(f"basis label {index} out of range for {n_bits} bits")


def basis_state(n_bits: int, index: int) -> StateVector:
    """Computational basis state |index>."""
    if not 1 <= n_bits <= MAX_QUBITS:
        raise ConfigError(f"n_bits must be in 1..{MAX_QUBITS}")
    check_basis_index(n_bits, index)
    amps = np.zeros(1 << n_bits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_bits, amps)


_WIDE_Q = 3     # float64 products at q <= _WIDE_Q use the widened matrix


def _widen(mat: np.ndarray, q: int) -> np.ndarray:
    """kron(mat, I_{2^q}) transposed, read-only: a row of 2^(q+1)
    amplitudes times it is ``mat`` applied to each of the row's 2^q
    (amps[k], amps[k + 2^q]) pairs. Written entry by entry, so ``mat``'s
    entries keep their bits and every other entry is +0.0."""
    low = 1 << q
    wide = np.zeros((2, low, 2, low), mat.dtype)
    k = np.arange(low)
    wide[:, k, :, k] = mat.T    # wide[j, k, i, k] = mat[i, j]
    return _frozen(wide.reshape(2 << q, 2 << q))


@functools.lru_cache(maxsize=1024)
def _forms(name: str, angle: float | None, sign: float, complex_state: bool,
           width: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The 2x2 matrix of kind ``name`` (or -iY) and, for a float64 matrix
    at ``width`` <= _WIDE_Q, its widened form (see ``_apply_1q``), or None;
    read-only. Ry, H, X, Z and -iY are float64, and complex128 twins for a
    complex state: the values numpy's promotion would cast them to, so no
    product casts a matrix per call. Y and P are complex."""
    # `sign` is part of the key because 0.0 == -0.0 while their matrices
    # differ in the sign of a zero entry
    if name == "Ry":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        rows = [[c, -s], [s, c]]
    elif name == "P":
        rows = [[1.0, 0.0], [0.0, complex(math.cos(angle), math.sin(angle))]]
    else:
        rows = _FIXED_ROWS[name]
    mat = _frozen(np.array(rows, _COMPLEX if complex_state else None))
    return mat, (_widen(mat, width)
                 if width <= _WIDE_Q and mat.dtype == np.float64 else None)


def _kernel_forms(name: str, angle: float | None, complex_state: bool,
                  q: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The forms ``_apply_1q`` takes for kind ``name`` (or -iY) at
    ``angle`` (None for a fixed kind) on qubit q, from ``_forms``: keyed
    by the angle's sign and by width = min(q, _WIDE_Q + 1), as above
    _WIDE_Q the forms do not depend on q."""
    return _forms(name, angle,
                  1.0 if angle is None else math.copysign(1.0, angle),
                  complex_state, q if q <= _WIDE_Q else _WIDE_Q + 1)


def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int,
              wide: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """``mat`` on qubit q of every state along the last axis of ``amps``.

    ``wide`` is ``mat``'s widened form, passed for a float64 matrix at
    q <= _WIDE_Q; a float64 matrix comes only with a float64 state. Each
    form below is used only where it rounds as the 2x2 @ 2xM product of
    the moveaxis kernel does (the kernel tests check them bit for bit):
    - a float64 product at q <= _WIDE_Q: the state as rows of 2^(q+1)
      amplitudes times ``wide``, one BLAS product with no copy. A single
      row would be a vector-matrix product, which rounds otherwise, so
      one row takes the batched product below;
    - a float64 product above _WIDE_Q, and a complex one from q = 4 on
      at most 8 blocks above q or on at least 2^15 amplitudes (512 KB),
      where it is faster: one batched 2x2 @ (2, 2^q) product per block;
    - other complex products: the (high, 2, low) blocks with their qubit
      axis brought to the front, one 2x2 @ 2xM product, and back.

    ``out``, a C-contiguous array of ``amps``' shape and the product's
    dtype, receives the result and is returned: the two batched forms
    write into it, the same bits, and the transposed one is copied in.
    """
    low = 1 << q
    if wide is not None and amps.size > 2 * low:
        rows = amps.reshape(-1, 2 * low)
        if out is None:
            return (rows @ wide).reshape(amps.shape)
        np.matmul(rows, wide, out=out.reshape(rows.shape))
        return out
    # a matrix is float64 or complex128, so itemsize 8 marks a real one
    if wide is not None or q >= 4 and (
            mat.itemsize == 8 or amps.size >= 1 << 15
            or amps.size >> (q + 1) <= 8):
        blocks = amps.reshape(-1, 2, low)
        if out is None:
            return np.matmul(mat, blocks).reshape(amps.shape)
        np.matmul(mat, blocks, out=out.reshape(blocks.shape))
        return out
    t = amps.reshape(-1, 2, low).transpose(1, 0, 2).reshape(2, -1)
    result = (mat @ t).reshape(2, -1, low).transpose(1, 0, 2)
    if out is None:
        return result.reshape(amps.shape)
    out.reshape(result.shape)[...] = result
    return out


def _cnot_run_table(n_bits: int, run: Sequence[GateInstance]) -> np.ndarray:
    """Index table with np.take(amps, table, axis=-1) equal to applying the
    CNOTs of ``run`` in order.

    A CNOT maps amplitude i to s(i) = i ^ (bit control of i) << target, so
    out[i] = amps[s(i)], s being its own inverse; a run gives
    out[i] = amps[s_1(s_2(... s_m(i)))], built from the last gate to the
    first.
    """
    # np.take gathers through writeable intp indices and copies any other
    # index array first. A table of at most one chunk is therefore intp
    # (32 KB at 12 bits) and returned as a read-only view of itself, whose
    # writeable base _gather reads; a longer one is int32 (64 MB at 24
    # bits), copied a chunk at a time
    size = 1 << n_bits
    table = np.arange(size, dtype=np.intp if size <= _GATHER_CHUNK
                      else np.int32)
    flip = np.empty_like(table)
    for gate in reversed(run):
        control, target = gate.qubits
        np.right_shift(table, control, out=flip)
        flip &= 1
        flip <<= target
        table ^= flip
    return _frozen(table.view() if size <= _GATHER_CHUNK else table)


def _compile_ops(circuit: QuantumCircuit) -> tuple[_Op, ...]:
    """One op per gate: (q, gate) for a 1-qubit gate on qubit q, and for
    each maximal run of CNOTs, a lone CNOT included, (-1, its index table)
    at the run's first gate and None at the others."""
    ops: list[_Op] = []
    for is_cnot, group in itertools.groupby(
            circuit.gates, lambda gate: gate.kind.n_qubits == 2):
        run = tuple(group)
        if is_cnot:
            ops.append((-1, _cnot_run_table(circuit.n_bits, run)))
            ops += [None] * (len(run) - 1)
        else:
            ops += [(gate.qubits[0], gate) for gate in run]
    return tuple(ops)


def _gather(amps: np.ndarray, table: np.ndarray) -> np.ndarray:
    """np.take(amps, table, axis=-1) for a CNOT run's table.

    A table of at most ``_GATHER_CHUNK`` indices is a read-only view of an
    intp array, whose writeable base np.take uses as it is (it copies a
    read-only index array first). Longer tables are int32, and np.take
    would gather through an intp copy, 128 MB for a whole 24-bit table, so
    they go in chunks of that many indices (both powers of two). Each
    chunk is copied into one intp buffer and gathered row by row into its
    contiguous slice of the output, which np.take with mode="clip" fills
    in place (a table is a permutation, so nothing is clipped). The values
    are the same either way."""
    if len(table) <= _GATHER_CHUNK:
        return amps.take(table.base, axis=-1)
    out = np.empty(amps.shape, amps.dtype)
    rows = amps.reshape(-1, len(table))
    out_rows = out.reshape(rows.shape)
    indices = np.empty(_GATHER_CHUNK, np.intp)
    for start in range(0, len(table), _GATHER_CHUNK):
        chunk = slice(start, start + _GATHER_CHUNK)
        np.copyto(indices, table[chunk])
        for row, out_row in zip(rows, out_rows):
            np.take(row, indices, out=out_row[chunk], mode="clip")
    return out


def _check_params(circuit: QuantumCircuit, params: Sequence[float]) -> None:
    if len(params) < circuit.n_params:
        raise ConfigError(
            f"circuit needs {circuit.n_params} parameters, got {len(params)}"
        )


def apply_circuit_array(amps: np.ndarray, n_bits: int, circuit: QuantumCircuit,
                        params: Sequence[float] = ()) -> np.ndarray:
    """Apply a circuit to raw amplitude arrays shaped (..., 2^n_bits):
    every state along the leading axes goes through.

    Runs the circuit's compiled ops: one kernel per 1-qubit gate and one
    gather per run of CNOTs. The result is float64 when the input is
    float64, every gate is real (Ry, H, X, Z, CNOT) and n_bits >= 2, and
    complex128 otherwise: an input of any other dtype, or of one qubit,
    is made complex128 once at entry, and the first P or Y makes a real
    state complex (see the module docstring)."""
    if circuit.n_bits != n_bits:
        raise ConfigError(
            f"circuit is for {circuit.n_bits} bits, state has {n_bits}"
        )
    if amps.shape[-1] != 1 << n_bits:
        raise ConfigError(
            f"expected {1 << n_bits} amplitudes per state, got {amps.shape[-1]}"
        )
    _check_params(circuit, params)
    if amps.dtype != np.float64 or n_bits == 1:
        amps = amps.astype(complex, copy=False)
    free_angles = iter(params)
    for op in circuit.ops:
        if op is None:      # inside a CNOT run, applied at its first gate
            continue
        q, gate = op
        if q < 0:           # a CNOT run's index table
            amps = _gather(amps, gate)
            continue
        angle = float(next(free_angles)) if gate.free else gate.angle
        mat, wide = _kernel_forms(gate.kind.name, angle,
                                  amps.dtype == _COMPLEX, q)
        amps = _apply_1q(amps, mat, q, wide)
    return amps


# ---------------------------------------------------------------------------
# Gene <-> circuit bridge
# ---------------------------------------------------------------------------

class GateTable:
    """Concrete gate instances as GEP primitives.

    Every placement of every requested kind becomes one unary function
    symbol: N placements per single-qubit kind, N*(N-1) ordered pairs per
    two-qubit kind. The single terminal is the input state psi0.
    """

    def __init__(self, n_bits: int, kinds: Sequence[str],
                 p_phase: float = P_PHASE):
        if not 1 <= n_bits <= MAX_QUBITS:
            raise ConfigError(f"n_bits must be in 1..{MAX_QUBITS}")
        self.n_bits = n_bits
        self.p_phase = float(p_phase)
        placements: list[tuple[GateKind, tuple[int, ...]]] = []
        for kind in gate_kinds(kinds):
            if kind.n_qubits == 1:
                placements += [(kind, (q,)) for q in range(n_bits)]
            else:
                placements += [
                    (kind, (a, b))
                    for a in range(n_bits) for b in range(n_bits) if a != b
                ]
        self.placements = tuple(placements)
        self.terminal = len(placements)
        names = {s: _token(*placement) for s, placement in enumerate(placements)}
        names[self.terminal] = "psi0"
        self.pset = PrimitiveSet(
            [(s, 1) for s in range(len(placements))], [self.terminal], names
        )
        self._index = {pl: s for s, pl in enumerate(placements)}
        self._instances: dict[int, GateInstance] = {}

    def instance(self, symbol: int) -> GateInstance:
        """The symbol's gate: Ry free, P at ``p_phase``; built on first use
        and shared, as gates are immutable."""
        gate = self._instances.get(symbol)
        if gate is None:
            kind, qubits = self.placements[symbol]
            angle = self.p_phase if kind.name == "P" else None
            gate = self._instances[symbol] = GateInstance(kind, qubits, angle)
        return gate


def gene_to_circuit(gene: Gene, table: GateTable) -> QuantumCircuit:
    """Decode the coding region into a circuit (``coding_circuit``)."""
    return coding_circuit(gene.symbols[:coding_length(gene)], table)


def coding_circuit(coding: Sequence[int], table: GateTable) -> QuantumCircuit:
    """The circuit of a coding region: every gate is unary, so the region is
    a chain of gate symbols ending in the terminal, in the gene's own
    order. The string is outermost-first, so gates apply in reverse symbol
    order."""
    return QuantumCircuit(table.n_bits,
                          tuple(map(table.instance, reversed(coding[:-1]))))


def circuit_to_gene(circuit: QuantumCircuit, table: GateTable,
                    head_len: int) -> Gene:
    """Re-encode a circuit as a gene (inverse of decode).

    A gate is a symbol when the table has its placement and its angle is
    that symbol's gate's: none for a free Ry or a fixed kind, the table's
    phase for P. So circuits from gene_to_circuit round-trip, and a fixed
    Ry angle does not; the error names the first other gate and any angle.
    """
    if len(circuit.gates) > head_len:
        raise ConfigError(
            f"{len(circuit.gates)} gates do not fit a head of {head_len}"
        )
    symbols: list[int] = []
    for gate in circuit.gates:
        symbol = table._index.get((gate.kind, gate.qubits))
        if symbol is None or gate.angle != table.instance(symbol).angle:
            token = _token(gate.kind, gate.qubits)
            if gate.angle is not None:
                token += f":{format_angle(gate.angle)}"
            raise ConfigError(f"cannot encode {token} as a genome symbol")
        symbols.append(symbol)
    symbols.reverse()
    symbols += [table.terminal] * (head_len + 1 - len(symbols))
    return make_gene(symbols, head_len, table.pset)


def bind_params(circuit: QuantumCircuit, params: Sequence[float]) -> QuantumCircuit:
    """Fix the k-th free gate at ``params[k]``, giving a fixed-angle circuit."""
    _check_params(circuit, params)
    free_angles = iter(params)
    return QuantumCircuit(circuit.n_bits, tuple(
        GateInstance(g.kind, g.qubits, float(next(free_angles))) if g.free
        else g for g in circuit.gates))


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _fuse_ry(a: GateInstance, b: GateInstance) -> GateInstance | None:
    """Combine two adjacent Ry on one qubit; None when they cancel exactly.

    A free gate anywhere in the pair absorbs the other angle: the sum of a
    free parameter with anything is still a single free parameter.
    """
    if a.free or b.free:
        return a if a.free else b
    total = math.fmod(a.angle + b.angle, TWO_TURNS)
    if total < 0.0:
        total += TWO_TURNS
    if total == 0.0:
        return None
    return GateInstance(a.kind, a.qubits, angle=total)


# how a gate pairs with an identical neighbour: a self-inverse kind
# cancels, a Ry fuses, anything else stays
_STAYS, _CANCELS, _FUSES = range(3)


def _canonical_entry(gate: GateInstance) -> tuple[int, int, int, GateInstance]:
    """(sort key, qubit mask, pairing rule, gate): the key packs
    (min qubit, max qubit) into one int, as qubits are below 32."""
    qubits = gate.qubits
    mask = 0
    for q in qubits:
        mask |= 1 << q
    name = gate.kind.name
    rule = (_CANCELS if name in _SELF_INVERSE
            else _FUSES if name == "Ry" else _STAYS)
    return min(qubits) << 5 | max(qubits), mask, rule, gate


def canonicalize(circuit: QuantumCircuit) -> QuantumCircuit:
    """Normal form preserving the output state up to global phase.

    Three rewrites run to a fixed point: adjacent gates with disjoint qubit
    support are bubble-sorted by (min qubit, max qubit); adjacent identical
    self-inverse gates on identical qubits cancel; adjacent Ry on the same
    qubit fuse by angle addition mod 4*pi. Each pass of the loop is one
    bubble pass, then one cancelling and fusing pass. Each gate's sort key
    and qubit mask are computed once per call, so a pass compares ints.
    """
    entries = [_canonical_entry(gate) for gate in circuit.gates]
    changed = True
    while changed:
        changed = False
        # bubble pass: each swap removes one inversion, so this terminates
        for i in range(len(entries) - 1):
            a, b = entries[i], entries[i + 1]
            if b[0] < a[0] and not a[1] & b[1]:
                entries[i], entries[i + 1] = b, a
                changed = True
        i = 0
        while i < len(entries) - 1:
            a, b = entries[i], entries[i + 1]
            # both rewrites need the same qubits: equal masks
            if a[1] != b[1]:
                i += 1
            elif a[2] == _CANCELS and (a[3] is b[3] or a[3] == b[3]):
                del entries[i:i + 2]
                changed = True
                i = max(i - 1, 0)
            elif a[2] == _FUSES and b[2] == _FUSES:
                fused = _fuse_ry(a[3], b[3])
                entries[i:i + 2] = [] if fused is None else [a[:3] + (fused,)]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return QuantumCircuit(circuit.n_bits, tuple(e[3] for e in entries))


# ---------------------------------------------------------------------------
# Circuit string grammar
# ---------------------------------------------------------------------------

_ANGLE_SNAP = 1e-9
_TOKEN_RE = re.compile(
    "^(" + "|".join(GATE_KINDS) + r")(\d+)(?:,(\d+))?(?::(\S+))?$")
_PI_FRACTION_RE = re.compile(r"^(-)?(\d+)?pi(?:/(\d+))?$")


def format_angle(angle: float) -> str:
    """Angle as a reduced fraction of pi when near a multiple of pi/4."""
    a = math.fmod(angle, TWO_TURNS)
    if a < 0.0:
        a += TWO_TURNS
    k = round(a / (math.pi / 4.0))
    if abs(a - k * (math.pi / 4.0)) <= _ANGLE_SNAP:
        # k = 16 (just below 4*pi, or a tiny negative angle) is a full turn
        frac = Fraction(int(k) % 16, 4)
        if frac == 0:
            return "0"
        num = "pi" if frac.numerator == 1 else f"{frac.numerator}pi"
        return num if frac.denominator == 1 else f"{num}/{frac.denominator}"
    return repr(a)


def parse_angle(text: str) -> float | int:
    """Angle text -> radians, or the index k of a free angle `phi<k>`."""
    if text.startswith("phi"):
        try:
            return int(text[3:])
        except ValueError:
            raise ConfigError(f"bad free-angle reference {text!r}") from None
    m = _PI_FRACTION_RE.match(text)
    try:
        if m:
            sign = -1.0 if m.group(1) else 1.0
            num = int(m.group(2)) if m.group(2) else 1
            den = int(m.group(3)) if m.group(3) else 1
            angle = sign * num * math.pi / den
        else:
            angle = float(text)
    except (ArithmeticError, ValueError):   # no number, 0 denominator, overflow
        angle = math.nan
    if not math.isfinite(angle):
        raise ConfigError(f"cannot parse angle {text!r} as a finite number")
    return angle


def _format_gate(gate: GateInstance, n_free_before: int) -> str:
    token = _token(gate.kind, gate.qubits)
    if gate.free:
        return f"{token}:phi{n_free_before}"
    if gate.kind.name == "Ry":
        return f"{token}:{format_angle(gate.angle)}"
    if gate.kind.name == "P" and gate.angle != P_PHASE:
        return f"{token}:{format_angle(gate.angle)}"
    return token


def circuit_to_string(circuit: QuantumCircuit) -> str:
    """Whitespace-joined gate tokens, e.g. "Ry0:3pi/2 CNOT0,1 H2"; free
    gates print as phi0, phi1, ... in gate order."""
    tokens, n_free = [], 0
    for gate in circuit.gates:
        tokens.append(_format_gate(gate, n_free))
        n_free += gate.free
    return " ".join(tokens)


def _gate_token(token: str) -> tuple[GateKind, tuple[int, ...], str | None]:
    """A gate token's kind, qubits and angle text (None without one)."""
    m = _TOKEN_RE.match(token)
    if not m:
        raise ConfigError("not a gate token")
    name, qa, qb, angle_text = m.groups()
    qubits = (int(qa),) if qb is None else (int(qa), int(qb))
    return GATE_KINDS[name], qubits, angle_text


def parse_circuit(text: str, n_bits: int) -> QuantumCircuit:
    """Inverse of circuit_to_string; errors name the offending token.

    Free angles must be numbered in gate order: the k-th ``phi`` token reads
    ``phi<k>``, counting from 0.
    """
    gates: list[GateInstance] = []
    n_free = 0
    with Locator() as at:
        for at.token in enumerate(text.split()):
            kind, qubits, angle_text = _gate_token(at.token[1])
            angle = None if angle_text is None else parse_angle(angle_text)
            if isinstance(angle, int):      # phi<k>
                if not kind.n_slots:
                    raise ConfigError(f"{kind.name} takes no free angle")
                if angle != n_free:
                    raise ConfigError(f"expected phi{n_free}, free angles "
                                      "are numbered in gate order")
                angle, n_free = None, n_free + 1
            elif angle_text is None and kind.n_slots:
                raise ConfigError("Ry needs an angle")
            gates.append(GateInstance(kind, qubits, angle))
    return QuantumCircuit(n_bits, tuple(gates))


def parse_basis_label(text: str, n_bits: int) -> int:
    """Basis label (an InitialState or a training-pair entry) -> basis index.

    A string of exactly n_bits 0/1 characters is a bitstring (leftmost
    character is the highest qubit); anything else must be a decimal index.
    """
    text = text.strip()
    if len(text) == n_bits and set(text) <= {"0", "1"}:
        return int(text, 2)
    try:
        index = int(text)
    except ValueError:
        raise ConfigError(f"cannot parse basis label {text!r}") from None
    check_basis_index(n_bits, index)
    return index
