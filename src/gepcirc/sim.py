"""Statevector simulator and the gene <-> circuit bridge.

Basis convention: index b holds qubit i in state (b >> i) & 1, so qubit 0
is the least significant bit and index 3 on 8 qubits is 00000011. Circuit
strings follow operator-composition order: the first token is the outermost
(last-applied) gate, matching how the gene coding region reads.

A Ry gate carries a fixed angle in radians or none; a Ry without one is
free, and the k-th free Ry in gate order takes entry k of the parameter
vector. P is the phase gate diag(1, e^{i*lambda}) with lambda = pi/2 by
default (the S gate), overridable per gate table; a P gate built without
an angle stores pi/2.

Gate application works on the last axis of an amplitude array shaped
(..., 2^N), so a stack of states goes through a circuit in one run. A
1-qubit gate on qubit q views the array as (high, 2, low) with low = 2^q,
brings the qubit axis to the front and multiplies by the 2x2 matrix in
one product; when at most 8 blocks sit above q (q >= 4) a batched
product per block replaces the two transposes. Both are the same
2x2 @ 2xM products as the original kernel, which moved the qubit's axis
of the (2,)*n tensor to the front, so every amplitude comes out with the
same bits. CNOT, the only two-qubit kind, only permutes basis indices,
and so does every maximal run of consecutive CNOTs, a lone CNOT
included: the run is applied as one gather, np.take(amps, table,
axis=-1), through a read-only int32 index table (in chunks of 2^16
indices above 16 bits). A gather does no arithmetic, so it gives the
values of the original 4x4 permutation products exactly (those products
could only change the sign of an exact zero), and a run's gather equals
its CNOTs gathered one at a time bit for bit.
Matrices are cached read-only; gate_matrix hands out copies.

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
    "GateKind", "GATE_KINDS", "GateInstance", "QuantumCircuit",
    "StateVector", "check_basis_index", "basis_state", "gate_matrix",
    "apply_circuit_array",
    "GateTable", "gene_to_circuit", "circuit_to_gene",
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

# self-inverse kinds cancel as adjacent identical pairs (P does not: P^2 = Z)
_SELF_INVERSE = {"H", "X", "Y", "Z", "CNOT"}


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


_SQRT_HALF = 1.0 / math.sqrt(2.0)
# read-only: the kernels use them as they are, gate_matrix hands out copies
_FIXED_MATRICES = {
    name: _frozen(np.array(rows, dtype=complex)) for name, rows in {
        "H": [[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]],
        "X": [[0, 1], [1, 0]],
        "Y": [[0, -1j], [1j, 0]],
        "Z": [[1, 0], [0, -1]],
        # first qubit of the pair is the control
        "CNOT": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    }.items()
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
    def ops(self) -> tuple[GateInstance | np.ndarray | None, ...]:
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


def gate_matrix(kind: GateKind | str, angle: float | None = None) -> np.ndarray:
    """Unitary matrix of a gate kind; angle required for Ry, optional for P."""
    name = kind.name if isinstance(kind, GateKind) else kind
    if name == "Ry":
        if angle is None:
            raise ConfigError("Ry requires an angle")
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "P":
        lam = P_PHASE if angle is None else angle
        return np.array([[1.0, 0.0], [0.0, complex(math.cos(lam), math.sin(lam))]])
    if angle is not None:
        raise ConfigError(f"{name} takes no angle")
    try:
        return _FIXED_MATRICES[name].copy()
    except KeyError:
        raise ConfigError(f"unknown gate kind {name!r}") from None


@functools.lru_cache(maxsize=1024)
def _angle_matrix(name: str, angle: float, sign: float) -> np.ndarray:
    # `sign` is part of the key because 0.0 == -0.0 while their matrices
    # differ in the sign of a zero entry
    return _frozen(gate_matrix(name, angle))


def _kernel_matrix(name: str, angle: float | None) -> np.ndarray:
    if angle is None:
        return _FIXED_MATRICES[name]
    return _angle_matrix(name, angle, math.copysign(1.0, angle))


def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    low = 1 << q
    if q >= 4 and amps.size >> (q + 1) <= 8:
        # at most 8 blocks above q, each >= 16 columns wide: one
        # 2x2 @ 2xlow product per block beats the transposes and rounds
        # the same (blocks 1-2 columns wide round differently)
        return np.matmul(mat, amps.reshape(-1, 2, low)).reshape(amps.shape)
    t = amps.reshape(-1, 2, low).transpose(1, 0, 2).reshape(2, -1)
    return (mat @ t).reshape(2, -1, low).transpose(1, 0, 2).reshape(amps.shape)


def _cnot_run_table(n_bits: int, run: Sequence[GateInstance]) -> np.ndarray:
    """Index table with np.take(amps, table, axis=-1) equal to applying the
    CNOTs of ``run`` in order.

    A CNOT maps amplitude i to s(i) = i ^ (bit control of i) << target, so
    out[i] = amps[s(i)], s being its own inverse; a run gives
    out[i] = amps[s_1(s_2(... s_m(i)))], built from the last gate to the
    first.
    """
    table = np.arange(1 << n_bits, dtype=np.int32)
    flip = np.empty_like(table)
    for gate in reversed(run):
        control, target = gate.qubits
        np.right_shift(table, control, out=flip)
        flip &= 1
        flip <<= target
        table ^= flip
    return _frozen(table)


def _compile_ops(circuit: QuantumCircuit
                 ) -> tuple[GateInstance | np.ndarray | None, ...]:
    """One op per gate: the gate itself for a 1-qubit gate, and for each
    maximal run of CNOTs, a lone CNOT included, its index table at the
    run's first gate and None at the others."""
    ops: list[GateInstance | np.ndarray | None] = []
    for is_cnot, group in itertools.groupby(
            circuit.gates, lambda gate: gate.kind.n_qubits == 2):
        run = tuple(group)
        if is_cnot:
            ops.append(_cnot_run_table(circuit.n_bits, run))
            ops += [None] * (len(run) - 1)
        else:
            ops += run
    return tuple(ops)


def _gather(amps: np.ndarray, table: np.ndarray) -> np.ndarray:
    """np.take(amps, table, axis=-1) for a CNOT run's table.

    np.take gathers through an intp copy of its int32 indices, 128 MB for
    a whole 24-bit table, so tables longer than ``_GATHER_CHUNK`` go in
    chunks of that many indices, each into its slice of one output array.
    The values are the same either way."""
    amps = amps.astype(complex, copy=False)
    if len(table) <= _GATHER_CHUNK:
        return np.take(amps, table, axis=-1)
    out = np.empty_like(amps)
    for start in range(0, len(table), _GATHER_CHUNK):
        chunk = slice(start, start + _GATHER_CHUNK)
        np.take(amps, table[chunk], axis=-1, out=out[..., chunk])
    return out


def _check_params(circuit: QuantumCircuit, params: Sequence[float]) -> None:
    if len(params) < circuit.n_params:
        raise ConfigError(
            f"circuit needs {circuit.n_params} parameters, got {len(params)}"
        )


def apply_circuit_array(amps: np.ndarray, n_bits: int, circuit: QuantumCircuit,
                        params: Sequence[float] = ()) -> np.ndarray:
    """Hot-path variant working on raw amplitude arrays shaped
    (..., 2^n_bits): every state along the leading axes goes through.

    Runs the circuit's compiled ops: one kernel per 1-qubit gate and one
    gather per run of CNOTs."""
    if circuit.n_bits != n_bits:
        raise ConfigError(
            f"circuit is for {circuit.n_bits} bits, state has {n_bits}"
        )
    if amps.shape[-1] != 1 << n_bits:
        raise ConfigError(
            f"expected {1 << n_bits} amplitudes per state, got {amps.shape[-1]}"
        )
    _check_params(circuit, params)
    free_angles = iter(params)
    for op in circuit.ops:
        if isinstance(op, GateInstance):    # every gate op is 1-qubit
            angle = float(next(free_angles)) if op.free else op.angle
            amps = _apply_1q(amps, _kernel_matrix(op.kind.name, angle),
                             op.qubits[0])
        elif op is not None:    # a CNOT run's index table; None: in the run
            amps = _gather(amps, op)
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

    def __init__(self, n_bits: int, kinds: Sequence[GateKind | str],
                 p_phase: float = P_PHASE):
        if not 1 <= n_bits <= MAX_QUBITS:
            raise ConfigError(f"n_bits must be in 1..{MAX_QUBITS}")
        self.n_bits = n_bits
        self.p_phase = float(p_phase)
        self.kinds = tuple(
            GATE_KINDS[k] if isinstance(k, str) else k for k in kinds
        )
        placements: list[tuple[GateKind, tuple[int, ...]]] = []
        for kind in self.kinds:
            if kind.n_qubits == 1:
                placements += [(kind, (q,)) for q in range(n_bits)]
            else:
                placements += [
                    (kind, (a, b))
                    for a in range(n_bits) for b in range(n_bits) if a != b
                ]
        self.placements = tuple(placements)
        self.terminal = len(placements)
        # symbol names match circuit tokens: "H3", "Ry0", "CNOT0,1"
        names = {
            s: f"{kind.name}{qubits[0]}" + (f",{qubits[1]}" if len(qubits) > 1 else "")
            for s, (kind, qubits) in enumerate(placements)
        }
        names[self.terminal] = "psi0"
        self.pset = PrimitiveSet(
            [(s, 1) for s in range(len(placements))], [self.terminal], names
        )
        self._index = {pl: s for s, pl in enumerate(placements)}
        self._instances: dict[int, GateInstance] = {}

    def symbol_for(self, kind: GateKind | str, qubits: Sequence[int]) -> int:
        kind = GATE_KINDS[kind] if isinstance(kind, str) else kind
        try:
            return self._index[(kind, tuple(qubits))]
        except KeyError:
            raise ConfigError(
                f"no symbol for {kind.name} on {tuple(qubits)}"
            ) from None

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
    """Decode the coding region into a circuit.

    The string is outermost-first, so gates apply in reverse symbol order.
    """
    # every gate is unary, so the coding region is a chain ending in the
    # terminal, in the gene's own order
    symbols = gene.symbols[:coding_length(gene)]
    return QuantumCircuit(table.n_bits,
                          tuple(map(table.instance, reversed(symbols[:-1]))))


def circuit_to_gene(circuit: QuantumCircuit, table: GateTable,
                    head_len: int) -> Gene:
    """Re-encode a circuit as a gene (inverse of decode).

    A gate is a symbol when the table has its placement and its angle is
    that symbol's gate's: none for a free Ry or a fixed kind, the table's
    phase for P. So circuits from gene_to_circuit round-trip, and a fixed
    Ry angle does not; the error names the first other gate's token.
    """
    if len(circuit.gates) > head_len:
        raise ConfigError(
            f"{len(circuit.gates)} gates do not fit a head of {head_len}"
        )
    symbols: list[int] = []
    for index, gate in enumerate(circuit.gates):
        symbol = table._index.get((gate.kind, gate.qubits))
        if symbol is None or gate.angle != table.instance(symbol).angle:
            token = circuit_to_string(circuit).split()[index]
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

def _sort_key(gate: GateInstance) -> tuple[int, int]:
    return (min(gate.qubits), max(gate.qubits))


def _disjoint(a: GateInstance, b: GateInstance) -> bool:
    return not set(a.qubits) & set(b.qubits)


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


def canonicalize(circuit: QuantumCircuit) -> QuantumCircuit:
    """Normal form preserving the output state up to global phase.

    Three rewrites run to a fixed point: adjacent gates with disjoint qubit
    support are bubble-sorted by (min qubit, max qubit); adjacent identical
    self-inverse gates on identical qubits cancel; adjacent Ry on the same
    qubit fuse by angle addition mod 4*pi.
    """
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        # bubble pass: each swap removes one inversion, so this terminates
        for i in range(len(gates) - 1):
            a, b = gates[i], gates[i + 1]
            if _disjoint(a, b) and _sort_key(b) < _sort_key(a):
                gates[i], gates[i + 1] = b, a
                changed = True
        i = 0
        while i < len(gates) - 1:
            a, b = gates[i], gates[i + 1]
            if a.kind.name in _SELF_INVERSE and a == b:
                del gates[i:i + 2]
                changed = True
                i = max(i - 1, 0)
            elif a.kind.name == "Ry" and b.kind.name == "Ry" and a.qubits == b.qubits:
                fused = _fuse_ry(a, b)
                gates[i:i + 2] = [] if fused is None else [fused]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return QuantumCircuit(circuit.n_bits, tuple(gates))


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
        frac = Fraction(int(k), 4)
        if frac == 0:
            return "0"
        num = "pi" if frac.numerator == 1 else f"{frac.numerator}pi"
        return num if frac.denominator == 1 else f"{num}/{frac.denominator}"
    return repr(a)


def parse_angle(text: str) -> float | int | None:
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
    token = gate.kind.name + ",".join(str(q) for q in gate.qubits)
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
