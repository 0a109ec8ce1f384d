"""Brute-force verifiers, independent of the fast expectation machinery.

The Ising/MaxCut oracles enumerate every spin assignment with plain bit
arithmetic; the quantum oracle writes the dense Hamiltonian matrix entry by
entry from each Pauli string's action on basis states, splits it into the
blocks its nonzero entries join and diagonalizes each block. The split
reads only the matrix. Nothing here shares code with the
permutation-based expectation path, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gepcirc.engine import ConfigError
from gepcirc.hamiltonians import Graph, PauliSumHamiltonian

ENUM_CAP = 24        # 2^24 spin configurations is the practical limit
DENSE_CAP = 10       # 2^10 x 2^10 complex matrix = 16 MB

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

__all__ = [
    "ENUM_CAP", "DENSE_CAP", "OracleResult",
    "exhaustive_ising_ground", "brute_force_maxcut",
    "dense_matrix", "block_labels", "exact_ground_energy",
]


@dataclass(frozen=True)
class OracleResult:
    """Minimum energy plus every basis index that attains it."""

    ground_energy: float
    minimizers: tuple[int, ...]

    @property
    def degeneracy(self) -> int:
        return len(self.minimizers)


def _spin_energies(graph: Graph) -> np.ndarray:
    """Sum of S_i*S_j over edges for every assignment, S = 1 - 2*bit."""
    idx = np.arange(1 << graph.n, dtype=np.int64)
    energies = np.zeros(1 << graph.n, dtype=np.int32)
    for i, j in graph.edges:
        s_i = 1 - 2 * ((idx >> i) & 1)
        s_j = 1 - 2 * ((idx >> j) & 1)
        energies += (s_i * s_j).astype(np.int32)
    return energies


def exhaustive_ising_ground(graph: Graph) -> OracleResult:
    """Full enumeration of the classical Ising energy over 2^n states."""
    if graph.n > ENUM_CAP:
        raise ConfigError(f"{graph.n} vertices exceeds enumeration cap {ENUM_CAP}")
    energies = _spin_energies(graph)
    emin = int(energies.min())
    minimizers = tuple(int(b) for b in np.nonzero(energies == emin)[0])
    return OracleResult(float(emin), minimizers)


def brute_force_maxcut(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Maximum cut value and every bipartition (as a basis index) reaching it."""
    if graph.n > ENUM_CAP:
        raise ConfigError(f"{graph.n} vertices exceeds enumeration cap {ENUM_CAP}")
    idx = np.arange(1 << graph.n, dtype=np.int64)
    cuts = np.zeros(1 << graph.n, dtype=np.int32)
    for i, j in graph.edges:
        cuts += (((idx >> i) ^ (idx >> j)) & 1).astype(np.int32)
    best = int(cuts.max())
    winners = tuple(int(b) for b in np.nonzero(cuts == best)[0])
    return best, winners


def dense_matrix(h: PauliSumHamiltonian) -> np.ndarray:
    """Dense matrix of the raw Hamiltonian (no shift/scale), entry by entry.

    A Pauli string sends |c> to phase(c) |c ^ f>, where f marks its X and Y
    factors and phase(c) = i^nY * (-1)^(ones in c at its Y and Z factors),
    from X|b> = |1-b>, Y|b> = i(-1)^b |1-b> and Z|b> = (-1)^b |b>. So each
    term has one entry per column, written straight into the total. The
    entries are those of the Kronecker product of the factors, bit for bit.
    """
    if h.n_bits > DENSE_CAP:
        raise ConfigError(f"{h.n_bits} qubits exceeds dense cap {DENSE_CAP}")
    dim = 1 << h.n_bits
    columns = np.arange(dim)
    total = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        flip = n_y = 0
        odd = np.zeros(dim, dtype=np.int64)     # parity at the Y, Z factors
        for q, pauli in term.ops:
            if pauli != "Z":
                flip |= 1 << q
            if pauli != "X":
                odd ^= (columns >> q) & 1
            n_y += pauli == "Y"
        phase = term.coefficient * _I_POWERS[n_y % 4]
        total[columns ^ flip, columns] += phase * (1 - 2 * odd)
    return total


def block_labels(matrix: np.ndarray) -> np.ndarray:
    """Connected components of a square matrix's nonzero pattern: entry i is
    the least index in the component of index i.

    Indices i and j are joined when matrix[i, j] or matrix[j, i] is not an
    exact zero; no tolerance, since a tiny entry that joins two blocks only
    makes the split coarser, never wrong. Each pass hooks the larger label
    of every joined pair under the smaller and then follows each label
    chain to its end (pointer jumping), until every pair shares a label.
    """
    dim = len(matrix)
    rows, cols = np.divmod(np.flatnonzero(matrix != 0), dim)
    labels = np.arange(dim)
    while True:
        a, b = labels[rows], labels[cols]
        hooked = labels.copy()
        np.minimum.at(hooked, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def exact_ground_energy(h: PauliSumHamiltonian) -> float:
    """Minimum eigenvalue of s*(H - e0), diagonalizing H block by block.

    The blocks of ``block_labels`` are invariant subspaces (the entries
    between them are exact zeros), so H's spectrum is the union of theirs;
    XX+YY+ZZ bonds, for example, conserve the number of up spins. Blocks of
    one size are diagonalized in one stacked ``eigvalsh``, and the minimum
    is taken over every eigenvalue, since for s < 0 it lies at the largest.
    """
    matrix = dense_matrix(h)
    labels = block_labels(matrix)
    order = np.argsort(labels, kind="stable")   # each block in index order
    _, starts, sizes = np.unique(labels[order], return_index=True,
                                 return_counts=True)
    eigs = []
    for size in np.unique(sizes):
        blocks = order[starts[sizes == size, None] + np.arange(size)]
        eigs.append(np.linalg.eigvalsh(
            matrix[blocks[:, :, None], blocks[:, None, :]]).ravel())
    return float(np.min(h.scale * (np.concatenate(eigs) - h.shift)))
