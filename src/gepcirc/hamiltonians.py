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
share it; each term is added in place into its row of one preallocated
(flip masks, 2^N) array, its +-1 signs filled by doubling into one
reused float64 row, so the build makes no index array of the register's
size. H psi is then the diagonal product plus one
stacked gather over the flip masks (12 rows for the 36-term 3x3
Heisenberg lattice, none for an Ising Hamiltonian). A shift e0 and scale
s are folded into the diagonal and the rows once, when the cache is
built, so the cache holds H' = s*(H - e0) and the expectation and the
sweep's cross elements are plain inner products with H' psi.

States may come real (float64) or complex. A real state is made complex
right before each inner product, because the real dot product sums in
another order than the complex one: so a real state gives the bits of
its complex cast. The cache is built before any such copy is made, and
``cross_elements`` frees b's copy before it makes a's.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from gepcirc.engine import ConfigError, Locator, content_lines
from gepcirc.sim import MAX_QUBITS, _frozen

__all__ = [
    "Graph", "PauliTerm", "PauliSumHamiltonian", "ImaginaryResidueError",
    "ising_from_graph", "xx_chain", "heisenberg_2d",
    "cut_value", "maxcut_rows",
    "load_graph", "load_pauli_sum",
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


# c and (-1)^popcount(c) for c below _LOW_SIGNS, read-only
_LOW_SIGNS = 1 << 10
_LOW_INDICES = _frozen(np.arange(_LOW_SIGNS))
_PARITY_SIGNS = _frozen(1.0 - 2.0 * (np.bitwise_count(_LOW_INDICES) & 1))


def _fill_signs(signs: np.ndarray, mask: int) -> None:
    """signs[c] = (-1)^popcount(c & mask), exactly +-1.0, in place.

    The first 2^10 entries are looked up by c & mask; from there each
    doubling copies the filled prefix, negated when the next bit is in
    ``mask``. So no index array or integer or float temporary of the
    register's size is made."""
    size = min(len(signs), _LOW_SIGNS)
    np.take(_PARITY_SIGNS, _LOW_INDICES[:size] & mask, out=signs[:size],
            mode="clip")
    while size < len(signs):
        if mask & size:
            np.negative(signs[:size], out=signs[size:2 * size])
        else:
            signs[size:2 * size] = signs[:size]
        size *= 2


class PauliSumHamiltonian:
    """Real-weighted sum of Pauli strings with optional affine rescaling.

    Expectations are those of H' = s*(H - e0) for the shift e0 and scale
    s, which the cache holds (see the module docstring). No energy is
    then larger than |s|*(sum |c_i| + |e0|) in size, and the constructor
    requires four times that to be finite, which leaves headroom for the
    sweep's sums |a| + |b| + |c|.
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
        masks = [t.masks() for t in self.terms]
        # one weight row per distinct flip mask, in order of first use
        row_of = {f: r for r, f in enumerate(dict.fromkeys(
            x | y for x, y, _ in masks if x | y))}
        diag = np.zeros(dim, dtype=float)
        weights = np.zeros((len(row_of), dim), dtype=complex)
        signs = np.empty(dim)   # one term's signs at a time
        for t, (xmask, ymask, zmask) in zip(self.terms, masks):
            _fill_signs(signs, ymask | zmask)
            if xmask | ymask:
                weights[row_of[xmask | ymask]] += \
                    t.coefficient * (-1j) ** ymask.bit_count() * signs
            else:
                signs *= t.coefficient
                diag += signs
        del signs   # freed before the flip tables are built
        self._perms = (np.arange(dim, dtype=np.intp)
                       ^ np.array(list(row_of), dtype=np.intp)[:, None]
                       if row_of else np.empty((0, dim), dtype=np.intp))
        # H' = s*(H - e0) in place; both tables summed from +0.0 hold no
        # -0.0, so e0 = 0, s = 1 keeps every bit
        diag -= self.shift
        diag *= self.scale
        weights *= self.scale
        self._diag, self._weights = diag, weights

    def _apply(self, amps: np.ndarray) -> np.ndarray:
        """H' amps: the diagonal product plus one stacked gather."""
        if self._diag is None:
            self._build_cache()
        h_amps = self._diag * amps
        if len(self._perms):
            h_amps = h_amps + (self._weights * amps[self._perms]).sum(axis=0)
        return h_amps

    def _complex(self, amps: np.ndarray) -> np.ndarray:
        """``amps`` as complex128 for an inner product, the cache built
        first, so that no complex copy sits beside the build's
        temporaries."""
        if self._diag is None:
            self._build_cache()
        return amps.astype(complex, copy=False)

    def _real(self, value: complex) -> float:
        """The real part of <x|H'|x>. Its imaginary part is rounding,
        scaled by s like everything else in H'; more means corruption."""
        if not abs(value.imag) <= 1e-10 * abs(self.scale):
            raise ImaginaryResidueError(f"imaginary residue {value.imag}")
        return float(value.real)

    def expectation_array(self, amps: np.ndarray) -> float:
        """<amps|H'|amps> for a flat amplitude array."""
        if amps.shape != (1 << self.n_bits,):
            raise ConfigError(
                f"expected {1 << self.n_bits} amplitudes, got {amps.shape}"
            )
        amps = self._complex(amps)
        return self._real(np.vdot(amps, self._apply(amps)))

    def cross_elements(self, a: np.ndarray,
                       b: np.ndarray) -> tuple[float, float]:
        """(<b|H'|b>, Re <a|H'|b>) for two flat amplitude arrays, with one
        H' product: the fitness sweep has <a|H'|a> for its current output
        a already, kept or from ``expectation_array``, and b is that
        output with one slot turned by pi (see ``fitness._KeptStates``)."""
        dim = 1 << self.n_bits
        if a.shape != (dim,) or b.shape != (dim,):
            raise ConfigError(
                f"expected two arrays of {dim} amplitudes, "
                f"got {a.shape} and {b.shape}"
            )
        # two 2^n arrays live here at a time: b and H'b, then a and H'b
        b = self._complex(b)
        h_b = self._apply(b)
        bb = self._real(np.vdot(b, h_b))
        del b
        a = self._complex(a)
        return bb, float(np.vdot(a, h_b).real)


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

def maxcut_rows(amplitudes: np.ndarray, graph: Graph,
                epsilon: float = 1e-4) -> list[str]:
    """The maxcut.txt rows of a final state: one `bitstring weight cut
    side_a side_b` row per basis state whose weight |amplitude|^2 is
    above epsilon.

    The bitstring has the highest vertex leftmost, the weight is printed
    with ``repr``, side_a lists the vertices whose bit is set and side_b
    the rest (`-` for an empty side). Rows run by weight descending,
    index ascending on ties.
    """
    if amplitudes.shape != (1 << graph.n,):
        raise ConfigError(f"graph has {graph.n} vertices, expected "
                          f"{1 << graph.n} amplitudes, got {amplitudes.shape}")
    weights = np.abs(amplitudes) ** 2
    hits = np.flatnonzero(weights > epsilon).tolist()
    rows = []
    for b in sorted(hits, key=lambda b: (-weights[b], b)):
        side_a, side_b = (",".join(str(v) for v in range(graph.n)
                                   if (b >> v) & 1 == bit) or "-"
                          for bit in (1, 0))
        rows.append(f"{b:0{graph.n}b} {float(weights[b])!r} "
                    f"{cut_value(graph, b)} {side_a} {side_b}")
    return rows


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
        raise Locator(path).error("empty graph file")
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


def load_pauli_sum(path: str) -> PauliSumHamiltonian:
    """Text format: `nbits <N>` header, then `coefficient X0 Z3 ...` lines."""
    lines = content_lines(path)
    if not lines:
        raise Locator(path).error("empty Hamiltonian file")
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
