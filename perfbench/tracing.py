"""Instrumentation from outside the program: patched module attributes.

Two instruments wrap the same public functions and restore them on exit:

* `Counters` counts calls for the per-operation fingerprint and records
  when evolution starts (the end of set-up). It does no timing per call,
  so the untraced runs that give the end-to-end metrics stay unperturbed.
* `Tracer` records one span (name, start, end, parent) per wrapped call,
  kept in memory and written out at the end of a run. Per-layer metrics
  are derived from the spans, with self time = span minus its children.
"""

from __future__ import annotations

import gzip
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import gepcirc.cli as cli
import gepcirc.engine as engine
import gepcirc.fitness as fitness
import gepcirc.sim as sim
from gepcirc.engine import decode
from gepcirc.hamiltonians import PauliSumHamiltonian

OPERATORS = ("mutate", "one_point_recombine", "two_point_recombine",
             "invert_head", "swap_symbols")

# per-layer metric -> (unit, better); counts and times are per operation
PER_LAYER = {
    "sim.apply_calls": ("count", "lower"),
    "sim.gate_apps": ("count", "lower"),
    "sim.gate_apps_2q": ("count", "lower"),
    "sim.apply_s": ("s", "lower"),
    "sim.us_per_gate": ("us", "lower"),
    "sim.gbytes_computed": ("GB", "lower"),
    "sim.ry_us": ("us", "lower"),
    "sim.cnot_us": ("us", "lower"),
    "hamiltonians.expectation_calls": ("count", "lower"),
    "hamiltonians.expectation_s": ("s", "lower"),
    "hamiltonians.us_per_expectation": ("us", "lower"),
    "hamiltonians.cache_build_s": ("s", "lower"),
    "fitness.prefitness_calls": ("count", "lower"),
    "fitness.prefitness_self_s": ("s", "lower"),
    "fitness.optimize_calls": ("count", "lower"),
    "fitness.optimize_s": ("s", "lower"),
    "fitness.prefitness_per_circuit": ("count", "lower"),
    "fitness.slots_per_circuit": ("count", "lower"),
    "fitness.cache_lookups": ("count", "lower"),
    "fitness.cache_hit_ratio": ("ratio", "higher"),
    "engine.generations": ("count", "lower"),
    "engine.generation_s": ("s", "lower"),
    "engine.variation_s": ("s", "lower"),
    "engine.evaluation_s": ("s", "lower"),
    "engine.selection_s": ("s", "lower"),
    "engine.diversity": ("ratio", "higher"),
    "cli.canonicalize_calls": ("count", "lower"),
    "cli.canonicalize_s": ("s", "lower"),
    "cli.artifacts_s": ("s", "lower"),
    "oracle.reference_s": ("s", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# (span name, owner, attribute); the owner is a module or a class
TARGETS = (
    [("sim.apply", fitness, "apply_circuit_array"),
     ("fitness.prefitness", fitness, "prefitness"),
     ("fitness.optimize", fitness, "optimize_params"),
     ("fitness.cache", fitness.CachingFitness, "__call__"),
     ("hamiltonians.expectation", PauliSumHamiltonian, "expectation_array"),
     ("engine.generation", engine, "evolve_generation")]
    + [(f"engine.{op}", engine, op) for op in OPERATORS]
    + [("cli.run_evolution", cli, "run_evolution"),
       ("cli.canonicalize", cli, "canonicalize"),
       ("cli.circuit_to_gene", cli, "circuit_to_gene"),
       ("oracle.exact_ground_energy", cli, "exact_ground_energy"),
       ("oracle.exhaustive_ising_ground", cli, "exhaustive_ising_ground")]
)


@contextmanager
def patched(replacements: dict[tuple[object, str], object]):
    """Set attributes for the duration of a block, then restore them."""
    saved = {key: getattr(*key) for key in replacements}
    try:
        for (owner, attr), value in replacements.items():
            setattr(owner, attr, value)
        yield
    finally:
        for (owner, attr), value in saved.items():
            setattr(owner, attr, value)


class Counters:
    """Deterministic per-operation counts plus the evolution start time."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.prefitness = 0
        self.distinct = 0          # optimize_params runs once per cache miss
        self.gate_apps = 0
        self.evolution_start: float | None = None

    def fingerprint_counts(self) -> dict[str, int]:
        return {"distinct_circuits": self.distinct,
                "prefitness_calls": self.prefitness,
                "gate_apps": self.gate_apps}

    @contextmanager
    def installed(self):
        """Count from zero while the block runs."""
        self.reset()
        apply = fitness.apply_circuit_array
        pref = fitness.prefitness
        opt = fitness.optimize_params
        evolve = cli.run_evolution

        def counted_apply(amps, n_bits, circuit, params=()):
            self.gate_apps += len(circuit.gates)
            return apply(amps, n_bits, circuit, params)

        def counted_prefitness(*args, **kwargs):
            self.prefitness += 1
            return pref(*args, **kwargs)

        def counted_optimize(*args, **kwargs):
            self.distinct += 1
            return opt(*args, **kwargs)

        def timed_evolution(*args, **kwargs):
            self.evolution_start = time.perf_counter()
            return evolve(*args, **kwargs)

        with patched({(fitness, "apply_circuit_array"): counted_apply,
                      (fitness, "prefitness"): counted_prefitness,
                      (fitness, "optimize_params"): counted_optimize,
                      (cli, "run_evolution"): timed_evolution}):
            yield self


class Tracer:
    """Span recorder. Spans are tuples (op, name, start, end, parent, info);
    parent is the index of the enclosing span in `spans`, or -1."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.op = -1
        self.populations: dict[int, list[list]] = defaultdict(list)
        self._last_circuit = None
        self._last_info = (0, 0)

    def wrap(self, name: str, fn):
        """`fn` recording one span per call."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent,
                                self._info(name, args, result))
            return result

        return wrapper

    def _info(self, name: str, args: tuple, result) -> object:
        if name == "sim.apply":
            circuit = args[2]
            if circuit is not self._last_circuit:
                self._last_circuit = circuit
                self._last_info = (len(circuit.gates), sum(
                    1 for g in circuit.gates if len(g.qubits) == 2))
            return self._last_info
        if name == "fitness.optimize":
            return args[0].n_params
        if name == "engine.generation" and result is not None:
            self.populations[self.op].append(result[0])
        return None

    @contextmanager
    def installed(self):
        replacements = {}
        for name, owner, attr in TARGETS:
            replacements[(owner, attr)] = self.wrap(name, getattr(owner, attr))
        with patched(replacements):
            yield self

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: op,name,start,end,parent (times in s)."""
        with gzip.open(path, "wt") as fh:
            fh.write("op,name,start,end,parent\n")
            for op, name, start, end, parent, _ in self.spans:
                fh.write(f"{op},{name},{start:.9f},{end:.9f},{parent}\n")


def layer_metrics(tracer: Tracer, n_bits: int) -> dict[str, float]:
    """Per-operation means of the per-layer quantities, from the spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for op, name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    n_ops = max(len({s[0] for s in spans}), 1)
    total: dict[str, float] = defaultdict(float)
    first_expectation: dict[int, float] = {}
    for i, (op, name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        self_time = dur - child_time[i]
        total[name + ":n"] += 1
        total[name + ":s"] += dur
        total[name + ":self"] += self_time
        if name == "sim.apply":
            total["gates"] += info[0]
            total["gates_2q"] += info[1]
        elif name == "fitness.optimize":
            total["slots"] += info
        elif name == "fitness.cache" and parent >= 0 \
                and spans[parent][1] == "engine.generation":
            total["evaluation"] += dur
        elif name == "cli.run_evolution":
            root = spans[parent]
            total["artifacts"] += root[3] - end
            total["run"] += root[3] - start
        elif name == "hamiltonians.expectation":
            # each op parses a fresh Hamiltonian; its first call builds
            # the expectation cache
            first_expectation.setdefault(op, dur)
    per_op = {k: v / n_ops for k, v in total.items()}

    def get(key: str) -> float:
        return per_op.get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    variation = sum(get(f"engine.{op}:s") for op in OPERATORS)
    diversity = []
    for pops in tracer.populations.values():
        for pop in pops:
            coding = {g.symbols[:decode(g).coding_length] for g in pop}
            diversity.append(len(coding) / len(pop))
    return {
        "sim.apply_calls": get("sim.apply:n"),
        "sim.gate_apps": get("gates"),
        "sim.gate_apps_2q": get("gates_2q"),
        "sim.apply_s": get("sim.apply:s"),
        "sim.us_per_gate": 1e6 * ratio(get("sim.apply:s"), get("gates")),
        "sim.gbytes_computed": get("gates") * (1 << n_bits) * 32 / 1e9,
        "hamiltonians.expectation_calls": get("hamiltonians.expectation:n"),
        "hamiltonians.expectation_s": get("hamiltonians.expectation:s"),
        "hamiltonians.us_per_expectation": 1e6 * ratio(
            get("hamiltonians.expectation:s"),
            get("hamiltonians.expectation:n")),
        "hamiltonians.cache_build_s": sum(first_expectation.values()) / n_ops,
        "fitness.prefitness_calls": get("fitness.prefitness:n"),
        "fitness.prefitness_self_s": get("fitness.prefitness:self"),
        "fitness.optimize_calls": get("fitness.optimize:n"),
        "fitness.optimize_s": get("fitness.optimize:s"),
        "fitness.prefitness_per_circuit": ratio(
            get("fitness.prefitness:n"), get("fitness.optimize:n")),
        "fitness.slots_per_circuit": ratio(get("slots"),
                                           get("fitness.optimize:n")),
        "fitness.cache_lookups": get("fitness.cache:n"),
        "fitness.cache_hit_ratio": 1.0 - ratio(get("fitness.optimize:n"),
                                               get("fitness.cache:n")),
        "engine.generations": get("engine.generation:n"),
        "engine.generation_s": ratio(get("engine.generation:s"),
                                     get("engine.generation:n")),
        "engine.variation_s": variation,
        "engine.evaluation_s": get("evaluation"),
        "engine.selection_s": get("engine.generation:self"),
        "engine.diversity": statistics.fmean(diversity) if diversity else 0.0,
        "cli.canonicalize_calls": get("cli.canonicalize:n"),
        "cli.canonicalize_s": get("cli.canonicalize:s")
        + get("cli.circuit_to_gene:s"),
        "cli.artifacts_s": get("artifacts"),
        "oracle.reference_s": get("oracle.exact_ground_energy:s")
        + get("oracle.exhaustive_ising_ground:s"),
        "trace.unattributed_frac": ratio(get("cli.run_evolution:self"),
                                         get("run")),
    }


def kernel_probe(n_bits: int, repeats: int = 15) -> dict[str, float]:
    """Mean per-gate time of `apply_circuit_array` on one-kind circuits
    covering every qubit position (Ry) or ordered qubit pair (CNOT)."""
    ry = sim.GATE_KINDS["Ry"]
    cnot = sim.GATE_KINDS["CNOT"]
    circuits = {
        "sim.ry_us": [sim.GateInstance(ry, (q,), angle=0.3 + q)
                      for q in range(n_bits)] * 4,
        "sim.cnot_us": [sim.GateInstance(cnot, (a, b))
                        for a in range(n_bits) for b in range(n_bits)
                        if a != b],
    }
    amps = sim.basis_state(n_bits, 0).amplitudes
    out = {}
    for name, gates in circuits.items():
        circuit = sim.QuantumCircuit(n_bits, tuple(gates))
        sim.apply_circuit_array(amps, n_bits, circuit)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            sim.apply_circuit_array(amps, n_bits, circuit)
            times.append(time.perf_counter() - start)
        out[name] = 1e6 * statistics.median(times) / len(gates)
    return out
