"""Command line driver: input-file parsing, runs, and oracle cross-checks.

Input files are UTF-8 text, one `Key = value` per line with `#` comments,
read like every other input file through ``engine.content_lines``; an
error in one names its file and line (``file:N:``), and one in a genome
string its token (``token K``). Relative paths inside the file resolve
against the file's directory, and artifacts (trace.csv, best.circ,
maxcut.txt) are written there too. Exit status 0 means the run completed
all generations; EXIT_EARLY_STOP means the fitness target was reached
first; a bad input ends in one `error:` line on stderr and EXIT_ERROR.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from gepcirc import __version__
from gepcirc.engine import (
    ConfigError,
    EvolutionConfig,
    EvolutionResult,
    FitnessEvaluationError,
    Gene,
    Locator,
    content_lines,
    make_gene,
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
    maxcut_from_state,
    xx_chain,
)
from gepcirc.oracle import (
    DENSE_CAP,
    ENUM_CAP,
    brute_force_maxcut,
    exact_ground_energy,
    exhaustive_ising_ground,
)
from gepcirc.sim import (
    GATE_KINDS,
    MAX_QUBITS,
    GateInstance,
    GateTable,
    QuantumCircuit,
    StateVector,
    _gate_token,
    apply_circuit,
    basis_state,
    bind_params,
    canonicalize,
    circuit_to_gene,
    circuit_to_string,
    gene_to_circuit,
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
    """Everything a run needs, as parsed from one input file."""

    run_type: str
    n_bits: int
    gates: tuple[str, ...]
    head_size: int
    generations: int
    population: int = 100
    seed: int = 0
    early_stop: float | None = None
    initial_state: str | None = None
    graph_file: str | None = None
    hamiltonian: str | None = None
    training_pairs: str | None = None
    canonicalize: bool = False
    gradient_refine: bool = False
    energy_shift: float = 0.0
    energy_scale: float = 1.0
    epsilon: float = 1e-4
    mutation_rate: float = 0.05
    one_point_rate: float = 0.4
    two_point_rate: float = 0.2
    inversion_rate: float = 0.1
    swap_rate: float = 0.1
    exact_energy: float | None = None
    p_phase: float = math.pi / 2.0
    base_dir: Path = Path(".")
    # key -> the input file line that set it, for errors found after parsing
    origin: dict[str, Locator] = field(default_factory=dict)

    def resolve(self, path: str) -> Path:
        return self.base_dir / path

    def error(self, key: str, message: str) -> ConfigError:
        """``message`` as a ConfigError naming the line that set ``key``."""
        where = self.origin.get(key)
        return where.error(message) if where else ConfigError(message)


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


def _parse_bool(text: str) -> bool:
    if text in ("0", "1"):
        return text == "1"
    raise ValueError("expected 0 or 1")


def _parse_gates(text: str) -> tuple[str, ...]:
    gates = tuple(g.strip() for g in text.split(","))
    for g in gates:
        if g not in GATE_KINDS:
            raise ValueError(
                f"unknown gate {g!r} (choose from {', '.join(sorted(GATE_KINDS))})"
            )
    if len(set(gates)) != len(gates):
        raise ValueError("duplicate gate kind")
    return gates


def _parse_hamiltonian(text: str) -> str:
    """A built-in form is built once here so that its errors name the line."""
    if not text.startswith("file:"):
        _builtin_hamiltonian(text)
    return text


# key -> (RunSpec attribute, converter)
_KEYS = {
    "RunType": ("run_type", str),
    "NumBits": ("n_bits", _ranged(int, 1, MAX_QUBITS)),
    "Gates": ("gates", _parse_gates),
    "HeadSize": ("head_size", _ranged(int, 1)),
    "Population": ("population", _ranged(int, 2)),
    "Generations": ("generations", _ranged(int, 1)),
    "Seed": ("seed", int),
    "EarlyStopFitness": ("early_stop", _parse_float),
    "InitialState": ("initial_state", str),
    "GraphFile": ("graph_file", str),
    "Hamiltonian": ("hamiltonian", _parse_hamiltonian),
    "TrainingPairs": ("training_pairs", str),
    "Canonicalize": ("canonicalize", _parse_bool),
    "GradientRefine": ("gradient_refine", _parse_bool),
    "EnergyShift": ("energy_shift", _parse_float),
    "EnergyScale": ("energy_scale", _parse_float),
    "Epsilon": ("epsilon", _ranged(_parse_float, 0)),
    "MutationRate": ("mutation_rate", _parse_rate),
    "OnePointRate": ("one_point_rate", _parse_rate),
    "TwoPointRate": ("two_point_rate", _parse_rate),
    "InversionRate": ("inversion_rate", _parse_rate),
    "SwapRate": ("swap_rate", _parse_rate),
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
            raise ConfigError(f"{path}: missing required key {key}")
    origin = {key: Locator(path, line) for key, line in seen.items()}
    spec = RunSpec(base_dir=path.parent, origin=origin, **values)
    _validate_spec(spec, path)
    return spec


def _validate_spec(spec: RunSpec, path: Path) -> None:
    if spec.run_type not in ("FunctionFit", "GroundState"):
        raise ConfigError(
            f"{path}: RunType must be FunctionFit or GroundState, "
            f"got {spec.run_type!r}"
        )
    if spec.run_type == "FunctionFit":
        if spec.training_pairs is None:
            raise ConfigError(f"{path}: FunctionFit requires TrainingPairs")
        if spec.graph_file or spec.hamiltonian:
            raise ConfigError(
                f"{path}: FunctionFit takes no GraphFile or Hamiltonian"
            )
        if spec.initial_state is not None:
            raise ConfigError(f"{path}: FunctionFit takes inputs from "
                              f"TrainingPairs, not InitialState")
    else:
        sources = [s for s in (spec.graph_file, spec.hamiltonian) if s]
        if len(sources) != 1:
            raise ConfigError(
                f"{path}: GroundState requires exactly one of "
                f"GraphFile or Hamiltonian"
            )
        if spec.training_pairs:
            raise ConfigError(f"{path}: GroundState takes no TrainingPairs")


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
    if h.n_bits != n_bits:
        raise spec.error(
            "Hamiltonian",
            f"Hamiltonian is on {h.n_bits} bits but NumBits = {n_bits}"
        )
    return h


def load_training_pairs(path: str | Path, n_bits: int
                        ) -> list[tuple[StateVector, StateVector]]:
    """Pairs file: one `input output` of basis labels per line; `->` allowed."""
    pairs = []
    lines = content_lines(path)
    with Locator(path) as at:
        for at.line, line in lines:
            parts = line.replace("->", " ").split()
            if len(parts) != 2:
                raise ConfigError("expected 'input output' labels")
            idx_in = parse_basis_label(parts[0], n_bits)
            idx_out = parse_basis_label(parts[1], n_bits)
            pairs.append((basis_state(n_bits, idx_in), basis_state(n_bits, idx_out)))
    if not pairs:
        raise ConfigError(f"{path}: no training pairs")
    return pairs


@dataclass
class _Prepared:
    problem: Problem
    graph: Graph | None
    reference: float | None     # ground energy of the optimized Hamiltonian
    config: EvolutionConfig
    canonicalize_gene: Callable[[Gene], Gene] | None


def _reference_energy(spec: RunSpec, h: PauliSumHamiltonian,
                      graph: Graph | None) -> float | None:
    """Exact ground energy for the delta columns, when obtainable.

    A graph's Ising model is diagonal, so enumerating its spin states gives
    the minimum that dense diagonalization would, as the same float. With
    a negative scale the minimum sits at the other end, so the dense
    matrix decides.
    """
    if graph is not None and graph.n <= ENUM_CAP and spec.energy_scale >= 0:
        raw = exhaustive_ising_ground(graph).ground_energy
        return spec.energy_scale * (raw - spec.energy_shift)
    if h.n_bits <= DENSE_CAP:
        return exact_ground_energy(h)
    return spec.exact_energy


def _prepare(spec: RunSpec) -> _Prepared:
    table = GateTable(spec.n_bits, spec.gates, p_phase=spec.p_phase)
    graph = None
    reference = None
    if spec.run_type == "FunctionFit":
        pairs = load_training_pairs(spec.resolve(spec.training_pairs), spec.n_bits)
        problem = function_fit_problem(table, pairs, spec.gradient_refine)
    else:
        if spec.graph_file:
            graph = load_graph(str(spec.resolve(spec.graph_file)))
            if graph.n != spec.n_bits:
                raise spec.error(
                    "GraphFile",
                    f"graph has {graph.n} vertices but NumBits = {spec.n_bits}"
                )
            h = ising_from_graph(graph)
        else:
            h = _hamiltonian_from_key(spec.hamiltonian, spec.n_bits, spec)
        if spec.energy_shift != 0.0 or spec.energy_scale != 1.0:
            try:
                h = h.rescaled(spec.energy_shift, spec.energy_scale)
            except ConfigError as exc:
                key = "EnergyScale" if "EnergyScale" in spec.origin else "EnergyShift"
                raise spec.error(key, str(exc)) from None
        index = 0
        if spec.initial_state is not None:
            try:
                index = parse_basis_label(spec.initial_state, spec.n_bits)
            except ConfigError as exc:
                raise spec.error("InitialState", str(exc)) from None
        problem = ground_state_problem(table, h, basis_state(spec.n_bits, index),
                                       spec.gradient_refine)
        reference = _reference_energy(spec, h, graph)
    config = EvolutionConfig(
        generations=spec.generations,
        head_len=spec.head_size,
        population_size=spec.population,
        seed=spec.seed,
        early_stop_fitness=spec.early_stop,
        mutation_rate=spec.mutation_rate,
        one_point_prob=spec.one_point_rate,
        two_point_prob=spec.two_point_rate,
        inversion_prob=spec.inversion_rate,
        swap_prob=spec.swap_rate,
    )
    hook = None
    if spec.canonicalize:
        def hook(gene: Gene) -> Gene:
            circ = canonicalize(gene_to_circuit(gene, table))
            return circuit_to_gene(circ, table, spec.head_size)
    return _Prepared(problem, graph, reference, config, hook)


def _execute(spec: RunSpec) -> tuple[EvolutionResult, CachingFitness, _Prepared]:
    prep = _prepare(spec)
    cache = CachingFitness(prep.problem)
    result = run_evolution(prep.config, prep.problem.table.pset, cache,
                           canonicalize=prep.canonicalize_gene)
    return result, cache, prep


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


def _write_best(path: Path, result: EvolutionResult, cache: CachingFitness,
                prep: _Prepared) -> None:
    """Top circuits with their fitness, angles bound to the optimal values."""
    lines = []
    seen = set()
    for gene, fit in zip(result.population, result.fitnesses):
        circuit = gene_to_circuit(gene, prep.problem.table)
        text = circuit_to_string(bind_params(circuit, cache.params_for(gene)))
        if text in seen:
            continue
        seen.add(text)
        lines.append(f"{fit!r}\t{text}\n")
        if len(lines) == TOP_K:
            break
    with open(path, "w") as fh:
        fh.writelines(lines)


def _final_state(result: EvolutionResult, cache: CachingFitness,
                 prep: _Prepared) -> StateVector:
    gene = result.best_gene
    circuit = gene_to_circuit(gene, prep.problem.table)
    state = StateVector(prep.problem.n_bits, prep.problem.initial)
    return apply_circuit(state, circuit, cache.params_for(gene))


def _write_maxcut(path: Path, spec: RunSpec, result: EvolutionResult,
                  cache: CachingFitness, prep: _Prepared) -> None:
    state = _final_state(result, cache, prep)
    candidates = maxcut_from_state(state, prep.graph, spec.epsilon)
    with open(path, "w") as fh:
        fh.write("# bitstring weight cut side_a side_b\n")
        for c in candidates:
            a = ",".join(map(str, c.side_a)) or "-"
            b = ",".join(map(str, c.side_b)) or "-"
            fh.write(f"{c.bitstring} {c.weight!r} {c.cut} {a} {b}\n")


def run(spec: RunSpec) -> int:
    """Full pipeline: evolve, then write trace.csv, best.circ, maxcut.txt."""
    result, cache, prep = _execute(spec)
    out = spec.base_dir
    _write_trace(out / "trace.csv", result, prep.reference)
    _write_best(out / "best.circ", result, cache, prep)
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
    """Run the evolution and compare against the exact oracle answer."""
    if spec.run_type != "GroundState":
        raise ConfigError("verify requires a GroundState run")
    result, cache, prep = _execute(spec)
    if prep.reference is None:
        raise ConfigError(
            f"no oracle available: NumBits > {DENSE_CAP} and no graph "
            f"within {ENUM_CAP} vertices"
        )
    gap = -result.best_fitness - prep.reference
    maxcut = None
    if prep.graph is not None:
        maxcut = brute_force_maxcut(prep.graph)[0]
    return VerifyReport(prep.reference, result.best_fitness, gap, maxcut,
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
            gates.append(GateInstance(kind, qubits))
    n_bits = 1 + max((q for g in gates for q in g.qubits), default=0)
    table = GateTable(n_bits, tuple(GATE_KINDS.values()))
    head = [table.symbol_for(g.kind, g.qubits) for g in gates] + [table.terminal]
    gene = make_gene(head + [table.terminal], len(head), table.pset)
    return gene_to_circuit(gene, table)


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
