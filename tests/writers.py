"""File writers the tests use to set up graph and Pauli-sum inputs.

Each writes the format that ``gepcirc.hamiltonians.load_graph`` or
``load_pauli_sum`` reads back.
"""

from gepcirc.hamiltonians import Graph, PauliSumHamiltonian


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"n {graph.n}\n")
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")


def save_pauli_sum(h: PauliSumHamiltonian, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"nbits {h.n_bits}\n")
        for t in h.terms:
            tokens = " ".join(f"{p}{q}" for q, p in t.ops)
            fh.write(f"{t.coefficient!r} {tokens}".rstrip() + "\n")
