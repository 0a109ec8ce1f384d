"""Pauli-sum Hamiltonians, problem generators, and expectation values.

Spin convention: S_i = 1 - 2*bit_i, so qubit |0> carries spin +1 and basis
index 3 on eight qubits means sites 0 and 1 have negative spin. The graph
Ising energy <b|H|b> = |E| - 2*cut(b) ties minimum energy to maximum cut.

A Pauli string with X|Y flip mask f maps amplitudes as
(P psi)[c] = (-i)^nY * (-1)^popcount(c & (Y|Z)) * psi[c ^ f]: flipping the
X|Y bits of c toggles exactly the Y positions, worth (-1)^nY. The
expectation cache is one real diagonal, holding every term without X or Y
factors (identity terms included), plus one complex weight row per
distinct flip mask, summing coefficient times phase over the terms that
share it. H psi is then the diagonal product plus one stacked gather over
the flip masks (12 rows for the 36-term 3x3 Heisenberg lattice, none for
an Ising Hamiltonian), and the expectation and the sweep's pair elements
are inner products with it.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from gepcirc.engine import ConfigError, Locator, content_lines
from gepcirc.sim import MAX_QUBITS, StateVector

__all__ = [
    "Graph", "PauliTerm", "PauliSumHamiltonian", "ImaginaryResidueError",
    "ising_from_graph", "xx_chain", "heisenberg_2d",
    "expectation", "cut_value", "CutCandidate", "maxcut_from_state",
    "load_graph", "save_graph", "load_pauli_sum", "save_pauli_sum",
]


class ImaginaryResidueError(ArithmeticError):
    """An expectation value came out complex: the state or the cached
    Pauli tables are corrupt (a real-coefficient Pauli sum is Hermitian)."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count and unordered edge pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("graph needs at least one vertex")
        norm = [_edge(self.n, i, j) for i, j in self.edges]
        if len(set(norm)) != len(norm):
            raise ConfigError("duplicate edges")
        object.__setattr__(self, "edges", tuple(norm))


def _edge(n: int, i: int, j: int) -> tuple[int, int]:
    """The edge (i, j) of an n-vertex graph as an ordered pair."""
    if i == j:
        raise ConfigError(f"self-loop at vertex {i}")
    if not (0 <= i < n and 0 <= j < n):
        raise ConfigError(f"edge ({i},{j}) outside 0..{n - 1}")
    return min(i, j), max(i, j)


def cut_value(graph: Graph, index: int) -> int:
    """Edges crossing the bipartition encoded by the bits of ``index``."""
    return sum(
        1 for i, j in graph.edges if ((index >> i) ^ (index >> j)) & 1
    )


@dataclass(frozen=True)
class PauliTerm:
    """coefficient * product of single-qubit Paulis on distinct qubits."""

    coefficient: float
    ops: tuple[tuple[int, str], ...]    # (qubit, one of X/Y/Z), sorted

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient):
            raise ConfigError("non-finite coefficient")
        qubits = [q for q, _ in self.ops]
        if len(set(qubits)) != len(qubits):
            raise ConfigError(f"repeated qubit in Pauli string {self.ops}")
        for q, p in self.ops:
            if q < 0:
                raise ConfigError(f"negative qubit index {q}")
            if p not in ("X", "Y", "Z"):
                raise ConfigError(f"unknown Pauli {p!r}")
        object.__setattr__(self, "ops", tuple(sorted(self.ops)))

    @classmethod
    def from_map(cls, coefficient: float, paulis: Mapping[int, str]) -> "PauliTerm":
        return cls(coefficient, tuple(sorted(paulis.items())))

    def masks(self) -> tuple[int, int, int]:
        """(xmask, ymask, zmask) bit masks of the string."""
        x = y = z = 0
        for q, p in self.ops:
            if p == "X":
                x |= 1 << q
            elif p == "Y":
                y |= 1 << q
            else:
                z |= 1 << q
        return x, y, z


def _parity(values: np.ndarray) -> np.ndarray:
    """Bit parity of each entry (0 or 1), vectorized."""
    v = values.astype(np.uint64).copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    return (v & np.uint64(1)).astype(np.int8)


class PauliSumHamiltonian:
    """Real-weighted sum of Pauli strings with optional affine rescaling.

    ``expectation`` reports s * (<H> - e0) when a shift e0 and scale s are
    set, matching the convention of working with H' = s*(H - e0). No
    energy is then larger than |s|*(sum |c_i| + |e0|) in size, and the
    constructor requires four times that to be finite, which leaves
    headroom for the sweep's sums |a| + |b| + |c| and hypot(b, c).
    """

    def __init__(self, n_bits: int, terms: Iterable[PauliTerm],
                 shift: float = 0.0, scale: float = 1.0):
        if not 1 <= n_bits <= MAX_QUBITS:
            raise ConfigError(f"n_bits must be in 1..{MAX_QUBITS}")
        self.n_bits = n_bits
        self.terms = tuple(terms)
        for t in self.terms:
            for q, _ in t.ops:
                if q >= n_bits:
                    raise ConfigError(f"qubit {q} outside {n_bits}-bit register")
        self.shift = float(shift)
        self.scale = float(scale)
        bound = 4.0 * abs(self.scale) * (
            sum(abs(t.coefficient) for t in self.terms) + abs(self.shift))
        if not math.isfinite(bound):
            raise ConfigError(
                f"energies overflow: 4*|scale|*(sum of |coefficients| + "
                f"|shift|) is {bound}"
            )
        # built on first use: see the module docstring
        self._diag: np.ndarray | None = None
        self._perms: np.ndarray | None = None
        self._weights: np.ndarray | None = None

    def rescaled(self, shift: float, scale: float) -> "PauliSumHamiltonian":
        return PauliSumHamiltonian(self.n_bits, self.terms, shift, scale)

    def _build_cache(self) -> None:
        dim = 1 << self.n_bits
        indices = np.arange(dim, dtype=np.uint64)
        diag = np.zeros(dim, dtype=float)
        rows: dict[int, np.ndarray] = {}
        for t in self.terms:
            xmask, ymask, zmask = t.masks()
            signs = 1.0 - 2.0 * _parity(indices & np.uint64(ymask | zmask))
            if not xmask | ymask:
                diag += t.coefficient * signs
                continue
            row = rows.setdefault(xmask | ymask, np.zeros(dim, dtype=complex))
            row += t.coefficient * (-1j) ** bin(ymask).count("1") * signs
        self._diag = diag
        flips = np.array(list(rows), dtype=np.uint64)
        self._perms = (indices ^ flips[:, None]).astype(np.intp)
        self._weights = np.array(list(rows.values())).reshape(len(rows), dim)

    def _apply(self, amps: np.ndarray) -> np.ndarray:
        """H amps: the diagonal product plus one stacked gather."""
        if self._diag is None:
            self._build_cache()
        h_amps = self._diag * amps
        if len(self._perms):
            h_amps = h_amps + (self._weights * amps[self._perms]).sum(axis=0)
        return h_amps

    def raw_expectation_array(self, amps: np.ndarray) -> float:
        """<H> without shift/scale, from a flat amplitude array."""
        if amps.shape != (1 << self.n_bits,):
            raise ConfigError(
                f"expected {1 << self.n_bits} amplitudes, got {amps.shape}"
            )
        if not self.terms:
            return 0.0
        total = complex(np.vdot(amps, self._apply(amps)))
        if not abs(total.imag) < 1e-10:
            raise ImaginaryResidueError(f"imaginary residue {total.imag}")
        return float(total.real)

    def expectation_array(self, amps: np.ndarray) -> float:
        return self.scale * (self.raw_expectation_array(amps) - self.shift)

    def pair_elements(self, a: np.ndarray,
                      b: np.ndarray) -> tuple[float, float, float]:
        """(<a|H'|a>, <b|H'|b>, Re <a|H'|b>) for two flat amplitude arrays,
        with H' = s*(H - e0) as in ``expectation_array``.

        <x|H'|x> at x = cos(t/2) a + sin(t/2) b follows from the three
        numbers; the fitness sweep takes a = U psi and b = U(-iY_q psi).
        """
        dim = 1 << self.n_bits
        if a.shape != (dim,) or b.shape != (dim,):
            raise ConfigError(
                f"expected two arrays of {dim} amplitudes, "
                f"got {a.shape} and {b.shape}"
            )
        # the shift's share of Re <a|H'|b>
        cross_shift = self.shift * np.vdot(a, b).real
        if not self.terms:
            return (-self.scale * self.shift, -self.scale * self.shift,
                    -self.scale * cross_shift)
        h_b = self._apply(b)
        aa, bb = complex(np.vdot(a, self._apply(a))), complex(np.vdot(b, h_b))
        ab = np.vdot(a, h_b)
        for value in (aa, bb):
            if not abs(value.imag) < 1e-10:
                raise ImaginaryResidueError(f"imaginary residue {value.imag}")
        return (self.scale * (aa.real - self.shift),
                self.scale * (bb.real - self.shift),
                self.scale * (float(ab.real) - cross_shift))


def expectation(h: PauliSumHamiltonian, state: StateVector) -> float:
    """s * (<state|H|state> - e0); real within a 1e-10 imaginary residue."""
    if h.n_bits != state.n_bits:
        raise ConfigError(
            f"Hamiltonian on {h.n_bits} bits, state on {state.n_bits}"
        )
    return h.expectation_array(state.amplitudes)


# ---------------------------------------------------------------------------
# Problem generators
# ---------------------------------------------------------------------------

def ising_from_graph(graph: Graph) -> PauliSumHamiltonian:
    """H = sum over edges of Z_i Z_j; <b|H|b> = |E| - 2*cut(b)."""
    terms = [
        PauliTerm.from_map(1.0, {i: "Z", j: "Z"}) for i, j in graph.edges
    ]
    return PauliSumHamiltonian(graph.n, terms)


def xx_chain(n: int, jx: float = 1.0,
             boundary: str = "periodic") -> PauliSumHamiltonian:
    """Jx * sum_i X_i X_{i+1} on a chain, optionally closed into a ring."""
    if not 2 <= n <= MAX_QUBITS:
        raise ConfigError(f"chain needs 2..{MAX_QUBITS} sites, got {n}")
    if boundary not in ("open", "periodic"):
        raise ConfigError(f"boundary must be open or periodic, got {boundary!r}")
    bonds = [(i, i + 1) for i in range(n - 1)]
    if boundary == "periodic":
        bonds.append((n - 1, 0))
    terms = [PauliTerm.from_map(jx, {i: "X", j: "X"}) for i, j in bonds]
    return PauliSumHamiltonian(n, terms)


def heisenberg_2d(rows: int, cols: int) -> PauliSumHamiltonian:
    """Nearest-neighbor XX+YY+ZZ on an open rows x cols grid, row-major sites."""
    if rows < 1 or cols < 1 or rows * cols > MAX_QUBITS:
        raise ConfigError(f"grid needs 1..{MAX_QUBITS} sites, got {rows}x{cols}")
    bonds = []
    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            if c + 1 < cols:
                bonds.append((site, site + 1))
            if r + 1 < rows:
                bonds.append((site, site + cols))
    terms = [
        PauliTerm.from_map(1.0, {i: p, j: p})
        for i, j in bonds for p in ("X", "Y", "Z")
    ]
    return PauliSumHamiltonian(rows * cols, terms)


# ---------------------------------------------------------------------------
# MaxCut extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutCandidate:
    index: int
    bitstring: str          # highest qubit leftmost
    weight: float           # |amplitude|^2
    cut: int
    side_a: tuple[int, ...]  # vertices with the bit set

    @property
    def side_b(self) -> tuple[int, ...]:
        n = len(self.bitstring)
        return tuple(v for v in range(n) if v not in set(self.side_a))


def maxcut_from_state(state: StateVector, graph: Graph,
                      epsilon: float = 1e-4) -> list[CutCandidate]:
    """Basis states with weight above epsilon, as graph bipartitions.

    Sorted by weight descending (index ascending on ties); the set bits of
    each reported index form one side of the cut.
    """
    if graph.n != state.n_bits:
        raise ConfigError(
            f"graph has {graph.n} vertices, state has {state.n_bits} qubits"
        )
    weights = np.abs(state.amplitudes) ** 2
    hits = np.nonzero(weights > epsilon)[0]
    out = [
        CutCandidate(
            int(b),
            format(int(b), f"0{graph.n}b"),
            float(weights[b]),
            cut_value(graph, int(b)),
            tuple(v for v in range(graph.n) if (b >> v) & 1),
        )
        for b in hits
    ]
    out.sort(key=lambda c: (-c.weight, c.index))
    return out


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_PAULI_TOKEN_RE = re.compile(r"^([XYZ])(\d+)$")


def _header(line: str, word: str) -> int:
    """The count of a `<word> <count>` header line."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != word:
        raise ConfigError(f"expected header '{word} <count>'")
    return int(parts[1])


def load_graph(path: str) -> Graph:
    """Edge list file: `n <count>` header, then one `i j` pair per line."""
    lines = content_lines(path)
    if not lines:
        raise ConfigError(f"{path}: empty graph file")
    edges: dict[tuple[int, int], None] = {}     # insertion-ordered set
    with Locator(path) as at:
        at.line, header = lines[0]
        n = _header(header, "n")
        if n < 1:
            raise ConfigError("graph needs at least one vertex")
        for at.line, line in lines[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(f"expected 'i j', got {line!r}")
            edge = _edge(n, int(parts[0]), int(parts[1]))
            if edge in edges:
                raise ConfigError(f"duplicate edge {line!r}")
            edges[edge] = None
    return Graph(n, tuple(edges))


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"n {graph.n}\n")
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")


def load_pauli_sum(path: str) -> PauliSumHamiltonian:
    """Text format: `nbits <N>` header, then `coefficient X0 Z3 ...` lines."""
    lines = content_lines(path)
    if not lines:
        raise ConfigError(f"{path}: empty Hamiltonian file")
    terms = []
    with Locator(path) as at:
        at.line, header = lines[0]
        n_bits = _header(header, "nbits")
        if not 1 <= n_bits <= MAX_QUBITS:
            raise ConfigError(f"nbits must be in 1..{MAX_QUBITS}")
        for at.line, line in lines[1:]:
            coefficient, *tokens = line.split()
            ops = []
            for token in tokens:
                m = _PAULI_TOKEN_RE.match(token)
                if not m:
                    raise ConfigError(f"bad Pauli token {token!r}")
                if int(m.group(2)) >= n_bits:
                    raise ConfigError(f"{token} outside {n_bits} bits")
                ops.append((int(m.group(2)), m.group(1)))
            terms.append(PauliTerm(float(coefficient), tuple(ops)))
        at.line = 0     # an overflow belongs to the sum, not to one line
        return PauliSumHamiltonian(n_bits, terms)


def save_pauli_sum(h: PauliSumHamiltonian, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"nbits {h.n_bits}\n")
        for t in h.terms:
            tokens = " ".join(f"{p}{q}" for q, p in t.ops)
            fh.write(f"{t.coefficient!r} {tokens}".rstrip() + "\n")
