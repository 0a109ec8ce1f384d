"""Brute-force verifiers, independent of the fast expectation machinery.

The MaxCut and Ising oracles read one cut table, every bipartition's cut
value built by broadcasting, since the Ising energy of assignment b is
|E| - 2*cut(b); the quantum oracle writes the dense Hamiltonian matrix
entry by entry from each Pauli string's action on basis states, splits it
into the blocks its nonzero entries join and diagonalizes each block. The
split reads only the matrix. Nothing here shares code with the
permutation-based expectation path, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

import numpy as np

from gepcirc.engine import ConfigError
from gepcirc.hamiltonians import Graph, PauliSumHamiltonian

ENUM_CAP = 24        # 2^24 spin configurations is the practical limit
DENSE_CAP = 10       # 2^10 x 2^10 complex matrix = 16 MB

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)
_CROSSES = np.array([[0, 1], [1, 0]], dtype=np.int32)  # cut(b_i, b_j)

__all__ = [
    "ENUM_CAP", "DENSE_CAP",
    "exhaustive_ising_ground", "brute_force_maxcut",
    "dense_matrix", "block_labels", "exact_ground_energy",
]


def brute_force_maxcut(graph: Graph) -> tuple[int, np.ndarray]:
    """Maximum cut value and every bipartition reaching it, as ascending
    basis indices.

    The cut table is one int32 array of shape (2,)*n with vertex v on axis
    n-1-v, so it flattens in basis-index order; each edge adds [[0, 1],
    [1, 0]] along its two vertices' axes by broadcasting.
    """
    n = graph.n
    if n > ENUM_CAP:
        raise ConfigError(f"{n} vertices exceeds enumeration cap {ENUM_CAP}")
    cuts = np.zeros((2,) * n, dtype=np.int32)
    for i, j in graph.edges:
        shape = [1] * n
        shape[n - 1 - i] = shape[n - 1 - j] = 2
        cuts += _CROSSES.reshape(shape)     # symmetric: either axis order
    best = int(cuts.max())
    return best, np.flatnonzero(cuts == best)


def exhaustive_ising_ground(graph: Graph) -> float:
    """Least sum of S_i*S_j over edges, S = 1 - 2*bit: |E| - 2*maxcut."""
    return float(len(graph.edges) - 2 * brute_force_maxcut(graph)[0])


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
