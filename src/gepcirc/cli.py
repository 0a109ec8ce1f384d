"""Command line driver: input-file parsing, runs, and oracle cross-checks.

Input files are UTF-8 text, one `Key = value` per line with `#` comments,
read like every other input file through ``engine.content_lines``; an
error in one names its file and line (``file:N:``), and one in a genome
string its token (``token K``). Relative paths inside the file resolve
against the file's directory, and artifacts (trace.csv, best.circ,
maxcut.txt) are written there too. A graph run enumerates its cut table
once, in set-up, for both its reference energy and its max cut. Exit
status 0 means the run completed all generations; EXIT_EARLY_STOP means
the fitness target was reached first; a bad input ends in one `error:`
line on stderr and EXIT_ERROR.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from gepcirc import __version__, sim
from gepcirc.engine import (
    ConfigError,
    EvolutionConfig,
    EvolutionResult,
    FitnessEvaluationError,
    Locator,
    content_lines,
    run_evolution,
)
from gepcirc.fitness import (
    CachingFitness,
    Problem,
    function_fit_problem,
    ground_state_problem,
)
from gepcirc.hamiltonians import (
    Graph,
    PauliSumHamiltonian,
    heisenberg_2d,
    ising_from_graph,
    load_graph,
    load_pauli_sum,
    maxcut_rows,
    xx_chain,
)
from gepcirc.oracle import (
    DENSE_CAP,
    exact_ground_energy,
    exhaustive_ising_ground,
)
from gepcirc.sim import (
    MAX_QUBITS,
    P_PHASE,
    GateInstance,
    GateTable,
    QuantumCircuit,
    _gate_token,
    # unused here, but perfbench/tracing.py wraps these two by name
    canonicalize,
    circuit_to_gene,
    circuit_to_string,
    parse_basis_label,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EARLY_STOP = 3

TOP_K = 5

__all__ = [
    "EXIT_OK", "EXIT_ERROR", "EXIT_EARLY_STOP",
    "RunSpec", "parse_input", "run", "VerifyReport", "verify",
    "decode_gene_string", "main",
]


@dataclass
class RunSpec:
    """Everything a run needs, as parsed from one input file; the GEP
    engine's own settings are ``evolution``."""

    run_type: str
    n_bits: int
    gates: tuple[str, ...]
    evolution: EvolutionConfig
    initial_state: str | None = None
    graph_file: str | None = None
    hamiltonian: str | None = None
    training_pairs: str | None = None
    canonicalize: bool = False
    energy_shift: float = 0.0
    energy_scale: float = 1.0
    epsilon: float = 1e-4
    exact_energy: float | None = None
    p_phase: float = P_PHASE
    base_dir: Path = Path(".")
    # key -> the input file line that set it, for errors found after parsing
    origin: dict[str, Locator] = field(default_factory=dict)

    def resolve(self, path: str) -> Path:
        return self.base_dir / path

    def at(self, key: str) -> Locator | contextlib.nullcontext:
        """A context in which errors name the line that set ``key``; they
        pass through bare when no line set it."""
        return self.origin.get(key, contextlib.nullcontext())


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _ranged(convert: Callable[[str], float], low: float,
            high: float | None = None) -> Callable[[str], float]:
    """`convert`, then require low <= value (<= high when given)."""
    def parse(text: str) -> float:
        value = convert(text)
        if high is None and value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        if high is not None and not low <= value <= high:
            raise ValueError(f"must be in [{low}, {high}], got {value}")
        return value
    return parse


_parse_rate = _ranged(_parse_float, 0, 1)


def _parse_run_type(text: str) -> str:
    if text not in ("FunctionFit", "GroundState"):
        raise ValueError(f"must be FunctionFit or GroundState, got {text!r}")
    return text


def _parse_bool(text: str) -> bool:
    if text in ("0", "1"):
        return text == "1"
    raise ValueError("expected 0 or 1")


def _parse_gates(text: str) -> tuple[str, ...]:
    gates = tuple(g.strip() for g in text.split(","))
    sim.gate_kinds(gates)
    return gates


def _parse_hamiltonian(text: str) -> str:
    """A built-in form is built once here so that its errors name the line."""
    if not text.startswith("file:"):
        _builtin_hamiltonian(text)
    return text


# key -> (RunSpec or EvolutionConfig field, converter)
_KEYS = {
    "RunType": ("run_type", _parse_run_type),
    "NumBits": ("n_bits", _ranged(int, 1, MAX_QUBITS)),
    "Gates": ("gates", _parse_gates),
    "HeadSize": ("head_len", _ranged(int, 1)),
    "Population": ("population_size", _ranged(int, 2)),
    "Generations": ("generations", _ranged(int, 1)),
    "Seed": ("seed", int),
    "EarlyStopFitness": ("early_stop_fitness", _parse_float),
    "InitialState": ("initial_state", str),
    "GraphFile": ("graph_file", str),
    "Hamiltonian": ("hamiltonian", _parse_hamiltonian),
    "TrainingPairs": ("training_pairs", str),
    "Canonicalize": ("canonicalize", _parse_bool),
    "EnergyShift": ("energy_shift", _parse_float),
    "EnergyScale": ("energy_scale", _parse_float),
    "Epsilon": ("epsilon", _ranged(_parse_float, 0)),
    "MutationRate": ("mutation_rate", _parse_rate),
    "OnePointRate": ("one_point_prob", _parse_rate),
    "TwoPointRate": ("two_point_prob", _parse_rate),
    "InversionRate": ("inversion_prob", _parse_rate),
    "SwapRate": ("swap_prob", _parse_rate),
    "ExactEnergy": ("exact_energy", _parse_float),
    "PPhase": ("p_phase", _parse_float),
}

_REQUIRED = ("RunType", "NumBits", "Gates", "HeadSize", "Generations")


def parse_input(path: str | Path) -> RunSpec:
    """Read a `Key = value` file into a validated RunSpec."""
    path = Path(path)
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    lines = content_lines(path)
    with Locator(path) as at:
        for at.line, line in lines:
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError("expected Key = value")
            key, value = key.strip(), value.strip()
            if key not in _KEYS:
                raise ConfigError(f"unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"key {key} already set on line {seen[key]}")
            seen[key] = at.line
            attr, convert = _KEYS[key]
            try:
                values[attr] = convert(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from None
    for key in _REQUIRED:
        if _KEYS[key][0] not in values:
            raise Locator(path).error(f"missing required key {key}")
    origin = {key: Locator(path, line) for key, line in seen.items()}
    evolution = {f.name: values.pop(f.name) for f in fields(EvolutionConfig)
                 if f.name in values}
    spec = RunSpec(evolution=EvolutionConfig(**evolution), base_dir=path.parent,
                   origin=origin, **values)
    with Locator(path):
        _validate_spec(spec)
    return spec


def _validate_spec(spec: RunSpec) -> None:
    if spec.run_type == "FunctionFit":
        if spec.training_pairs is None:
            raise ConfigError("FunctionFit requires TrainingPairs")
        if spec.graph_file or spec.hamiltonian:
            raise ConfigError("FunctionFit takes no GraphFile or Hamiltonian")
        if spec.initial_state is not None:
            raise ConfigError("FunctionFit takes inputs from TrainingPairs, "
                              "not InitialState")
    else:
        sources = [s for s in (spec.graph_file, spec.hamiltonian) if s]
        if len(sources) != 1:
            raise ConfigError("GroundState requires exactly one of "
                              "GraphFile or Hamiltonian")
        if spec.training_pairs:
            raise ConfigError("GroundState takes no TrainingPairs")


def _builtin_hamiltonian(value: str) -> PauliSumHamiltonian:
    """`xx:n,Jx,open|periodic` or `heisenberg2d:rows,cols`."""
    kind, _, rest = value.partition(":")
    parts = rest.split(",")
    if kind == "xx" and len(parts) == 3:
        return xx_chain(int(parts[0]), float(parts[1]), parts[2])
    if kind == "heisenberg2d" and len(parts) == 2:
        return heisenberg_2d(int(parts[0]), int(parts[1]))
    raise ConfigError(
        "Hamiltonian must be xx:n,Jx,open|periodic, heisenberg2d:rows,cols "
        f"or file:<path>, got {value!r}"
    )


def _hamiltonian_from_key(value: str, n_bits: int,
                          spec: RunSpec) -> PauliSumHamiltonian:
    if value.startswith("file:"):
        h = load_pauli_sum(str(spec.resolve(value[len("file:"):])))
    else:
        h = _builtin_hamiltonian(value)
    with spec.at("Hamiltonian"):
        if h.n_bits != n_bits:
            raise ConfigError(
                f"Hamiltonian is on {h.n_bits} bits but NumBits = {n_bits}")
    return h


def load_training_pairs(path: str | Path, n_bits: int
                        ) -> list[tuple[int, int]]:
    """Pairs file: one `input output` of basis labels per line; `->` allowed."""
    pairs = []
    lines = content_lines(path)
    with Locator(path) as at:
        for at.line, line in lines:
            parts = line.replace("->", " ").split()
            if len(parts) != 2:
                raise ConfigError("expected 'input output' labels")
            pairs.append((parse_basis_label(parts[0], n_bits),
                          parse_basis_label(parts[1], n_bits)))
    if not pairs:
        raise Locator(path).error("no training pairs")
    return pairs


@dataclass
class _Prepared:
    problem: Problem
    graph: Graph | None
    reference: float | None     # ground energy of the optimized Hamiltonian
    maxcut: int | None          # the graph's maximum cut


def _graph_oracle(h: PauliSumHamiltonian, graph: Graph) -> tuple[float, int]:
    """Exact ground energy of ``h``, the graph's rescaled Ising model, and
    the graph's maximum cut, from one enumeration.

    The Ising energies sum S_i*S_j run from ground = |E| - 2*maxcut up to
    |E|, every spin aligned, and s*(E - e0) is monotone in E, so its
    minimum sits at one of the two ends, as the same float that dense
    diagonalization gives.
    """
    edges = len(graph.edges)
    ground = exhaustive_ising_ground(graph)
    reference = min(h.scale * (ground - h.shift), h.scale * (edges - h.shift))
    return reference, (edges - int(ground)) // 2


def _prepare(spec: RunSpec) -> _Prepared:
    table = GateTable(spec.n_bits, spec.gates, p_phase=spec.p_phase)
    graph = reference = maxcut = None
    if spec.run_type == "FunctionFit":
        pairs = load_training_pairs(spec.resolve(spec.training_pairs), spec.n_bits)
        problem = function_fit_problem(table, pairs)
    else:
        if spec.graph_file:
            graph = load_graph(str(spec.resolve(spec.graph_file)))
            with spec.at("GraphFile"):
                if graph.n != spec.n_bits:
                    raise ConfigError(f"graph has {graph.n} vertices but "
                                      f"NumBits = {spec.n_bits}")
            h = ising_from_graph(graph)
        else:
            h = _hamiltonian_from_key(spec.hamiltonian, spec.n_bits, spec)
        key = "EnergyScale" if "EnergyScale" in spec.origin else "EnergyShift"
        with spec.at(key):
            h = h.rescaled(spec.energy_shift, spec.energy_scale)
        with spec.at("InitialState"):
            initial = (0 if spec.initial_state is None else
                       parse_basis_label(spec.initial_state, spec.n_bits))
        problem = ground_state_problem(table, h, initial)
        # ExactEnergy is the ground energy of s*(H - e0), the Hamiltonian
        # the run optimizes, taken as given only where no oracle reaches
        if graph is not None:
            reference, maxcut = _graph_oracle(h, graph)
        elif h.n_bits <= DENSE_CAP:
            reference = exact_ground_energy(h)
        else:
            reference = spec.exact_energy
    return _Prepared(problem, graph, reference, maxcut)


def _evolve(spec: RunSpec, prep: _Prepared
            ) -> tuple[EvolutionResult, CachingFitness]:
    cache = CachingFitness(prep.problem)
    result = run_evolution(spec.evolution, prep.problem.table.pset, cache,
                           canonicalize=cache.canonical if spec.canonicalize
                           else None)
    return result, cache


def _write_trace(path: Path, result: EvolutionResult,
                 reference: float | None) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("generation,best_fitness,worst_fitness,delta_e_best,delta_e_pop\n")
        for st in result.stats:
            if reference is not None:
                d_best = repr(-st.best_fitness - reference)
                d_pop = repr(-st.worst_fitness - reference)
            else:
                d_best = d_pop = ""
            fh.write(
                f"{st.generation},{st.best_fitness!r},{st.worst_fitness!r},"
                f"{d_best},{d_pop}\n"
            )


def _write_best(path: Path, result: EvolutionResult,
                cache: CachingFitness) -> None:
    """Top circuits with their fitness: each genome's canonical circuit,
    angles bound to the optimal values."""
    lines = []
    seen = set()
    for gene, fit in zip(result.population, result.fitnesses):
        text = circuit_to_string(cache.bound_circuit(gene))
        if text in seen:
            continue
        seen.add(text)
        lines.append(f"{fit!r}\t{text}\n")
        if len(lines) == TOP_K:
            break
    with open(path, "w") as fh:
        fh.writelines(lines)


def _write_maxcut(path: Path, spec: RunSpec, result: EvolutionResult,
                  cache: CachingFitness, prep: _Prepared) -> None:
    """The best genome's bound canonical circuit's final state from the
    problem's input, as maxcut.txt rows, once it is checked to have kept
    unit norm. The kernel is looked up on `sim` at call time, so a patched
    `sim` reaches it."""
    amps = sim.apply_circuit_array(prep.problem.one_hots[0],
                                   prep.problem.n_bits,
                                   cache.bound_circuit(result.best_gene))
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) < 1e-10:
        raise ConfigError(f"state norm {norm} drifted from 1")
    rows = maxcut_rows(amps, prep.graph, spec.epsilon)
    with open(path, "w") as fh:
        fh.write("# bitstring weight cut side_a side_b\n")
        fh.writelines(f"{row}\n" for row in rows)


def run(spec: RunSpec) -> int:
    """Full pipeline: evolve, then write trace.csv, best.circ, maxcut.txt."""
    prep = _prepare(spec)
    result, cache = _evolve(spec, prep)
    out = spec.base_dir
    _write_trace(out / "trace.csv", result, prep.reference)
    _write_best(out / "best.circ", result, cache)
    if prep.graph is not None:
        _write_maxcut(out / "maxcut.txt", spec, result, cache, prep)
    print(
        f"generations {len(result.stats)} best_fitness {result.best_fitness!r}"
        + (" (early stop)" if result.early_stopped else "")
    )
    return EXIT_EARLY_STOP if result.early_stopped else EXIT_OK


@dataclass
class VerifyReport:
    oracle_energy: float
    best_fitness: float
    gap: float                 # best achieved energy minus exact ground energy
    maxcut: int | None = None
    early_stopped: bool = False

    def lines(self) -> list[str]:
        out = [
            f"oracle ground energy: {self.oracle_energy!r}",
            f"best fitness: {self.best_fitness!r}",
            f"gap: {self.gap!r}",
        ]
        if self.maxcut is not None:
            out.append(f"oracle maxcut: {self.maxcut}")
        return out


def verify(spec: RunSpec) -> VerifyReport:
    """Run the evolution and compare against the exact oracle answer: the
    reference energy, and for a graph the max cut, that set-up found."""
    if spec.run_type != "GroundState":
        raise ConfigError("verify requires a GroundState run")
    prep = _prepare(spec)
    if prep.reference is None:
        raise ConfigError(f"no oracle available: NumBits > {DENSE_CAP}, "
                          f"no GraphFile and no ExactEnergy")
    result, _ = _evolve(spec, prep)
    gap = -result.best_fitness - prep.reference
    return VerifyReport(prep.reference, result.best_fitness, gap, prep.maxcut,
                        result.early_stopped)


def decode_gene_string(text: str) -> QuantumCircuit:
    """Genome tokens -> the circuit they encode.

    Tokens before the first `psi0` are the coding gates (outermost first);
    the register width is inferred from the largest qubit index.
    """
    tokens = text.split()
    if "psi0" in tokens:
        tokens = tokens[: tokens.index("psi0")]
    gates = []
    with Locator() as at:
        for at.token in enumerate(tokens):
            kind, qubits, angle_text = _gate_token(at.token[1])
            if angle_text is not None:
                raise ConfigError("a genome symbol takes no angle")
            if max(qubits) >= MAX_QUBITS:
                raise ConfigError(f"qubit {max(qubits)} out of range for "
                                  f"{MAX_QUBITS} bits")
            gates.append(GateInstance(kind, qubits))
    n_bits = 1 + max((q for g in gates for q in g.qubits), default=0)
    return QuantumCircuit(n_bits, tuple(reversed(gates)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gepcirc",
        description="Evolve quantum circuits with gene expression programming.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="evolve and write artifacts")
    p_run.add_argument("input", help="input file of Key = value lines")
    p_verify = sub.add_parser("verify", help="run and compare with the oracle")
    p_verify.add_argument("input")
    p_decode = sub.add_parser("decode", help="print the circuit of a genome")
    p_decode.add_argument("gene", help='genome symbols, e.g. "Ry0 CNOT0,1 psi0"')
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(parse_input(args.input))
        if args.command == "verify":
            report = verify(parse_input(args.input))
            for line in report.lines():
                print(line)
            return EXIT_OK
        print(circuit_to_string(decode_gene_string(args.gene)))
        return EXIT_OK
    except (ConfigError, FitnessEvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
