"""Acceptance gate: end-to-end checks of the evolved-circuit pipeline.

Each test prints one `criterion N PASS/FAIL: ...` line directly to the
terminal (bypassing capture) so a full run reads as a checklist. Criteria
4 and 8 aggregate over every run performed by the earlier criteria, so
they are defined at the bottom and execute last.
"""

import math
import random
import time

import numpy as np
import pytest

from gepcirc.arith import eval_tree, make_arith_pset
from gepcirc.cli import EXIT_EARLY_STOP, RunSpec, main, run, verify
from gepcirc.engine import (
    EvolutionConfig,
    decode,
    invert_head,
    karva_decode,
    make_gene,
    mutate,
    one_point_recombine,
    random_gene,
    swap_symbols,
    two_point_recombine,
)
from gepcirc.hamiltonians import Graph, xx_chain
from gepcirc.oracle import (
    brute_force_maxcut,
    exact_ground_energy,
    exhaustive_ising_ground,
)
from gepcirc.sim import (
    GateTable,
    StateVector,
    apply_circuit_array,
    bind_params,
    canonicalize,
    gene_to_circuit,
    parse_circuit,
)

from reference import dense_gate
from writers import save_graph

# best_fitness columns of every trace.csv produced here, checked by criterion 8
TRACES = []
# (label, max fitness seen, -E_ground) for criteria 2-3 runs, checked by 4
BOUNDS = []


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def best_column(run_dir):
    rows = (run_dir / "trace.csv").read_text().splitlines()
    assert rows[0].startswith("generation,best_fitness")
    return [float(r.split(",")[1]) for r in rows[1:]]


def record_run(spec, label, bound=None):
    code = run(spec)
    col = best_column(spec.base_dir)
    TRACES.append((label, col))
    if bound is not None:
        BOUNDS.append((label, max(col), bound))
    return code, col


def test_criterion_01_karva_golden(capsys):
    pset = make_arith_pset("abcd")
    ids = {name: sym for sym, name in pset.names.items()}
    t0 = time.perf_counter()
    tree = karva_decode([ids[c] for c in "Q+*-abcd"], pset)
    assert tree.coding_length == 8
    rng = random.Random(11)
    exact = 0
    for _ in range(100):
        a, b = rng.uniform(2, 10), rng.uniform(2, 10)
        c, d = rng.uniform(0, 4), rng.uniform(0, 4)
        if eval_tree(tree, (a, b, c, d)) == math.sqrt(a * b + (c - d)):
            exact += 1
    elapsed = time.perf_counter() - t0
    ok = exact == 100 and elapsed < 1.0
    announce(capsys, 1, ok, f"{exact}/100 inputs exact, {elapsed:.3f}s")


def test_criterion_02_xx_chain(capsys, tmp_path):
    t0 = time.perf_counter()
    results = {}
    for bc, target in (("periodic", 3.99), ("open", 2.99)):
        bound = -exact_ground_energy(xx_chain(4, 1.0, bc))
        for seed in range(10):
            d = tmp_path / f"{bc}{seed}"
            d.mkdir()
            spec = RunSpec(
                run_type="GroundState", n_bits=4, gates=("Ry", "P"),
                evolution=EvolutionConfig(
                    head_len=8, generations=100, population_size=100,
                    seed=seed, early_stop_fitness=target),
                hamiltonian=f"xx:4,1.0,{bc}", base_dir=d)
            code, col = record_run(spec, f"xx-{bc}-seed{seed}", bound)
            if code == EXIT_EARLY_STOP and col[-1] >= target:
                results[bc] = (seed, col[-1])
                break
    elapsed = time.perf_counter() - t0
    ok = set(results) == {"periodic", "open"} and elapsed < 120.0

    def show(bc):
        if bc not in results:
            return "miss"
        seed, fit = results[bc]
        return f"{fit} (seed {seed})"

    announce(capsys, 2, ok,
             f"best fitness {show('periodic')} periodic / {show('open')} open"
             f" (targets 3.99 / 2.99), {elapsed:.1f}s")


def random_connected_graph(n, rng):
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and rng.random() < 0.35:
                edges.add((a, b))
    return Graph(n, tuple(sorted(edges)))


def test_criterion_03_maxcut_suite(capsys, tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    converged = 0
    cut_files = 0
    for i in range(20):
        n = 6 + i % 3
        graph = random_connected_graph(n, rng)
        e_min = exhaustive_ising_ground(graph)
        best_cut, winners = brute_force_maxcut(graph)
        for seed in range(5):
            d = tmp_path / f"g{i}s{seed}"
            d.mkdir()
            save_graph(graph, str(d / "g.txt"))
            spec = RunSpec(
                run_type="GroundState", n_bits=n, gates=("Ry",),
                evolution=EvolutionConfig(
                    head_len=8, generations=200, population_size=60,
                    seed=seed, early_stop_fitness=-e_min - 1e-6),
                graph_file="g.txt", base_dir=d)
            code, col = record_run(spec, f"maxcut-g{i}-s{seed}", -e_min)
            if code == EXIT_EARLY_STOP and col[-1] >= -e_min - 1e-6:
                converged += 1
                rows = (d / "maxcut.txt").read_text().splitlines()[1:]
                assert rows, f"graph {i}: empty maxcut.txt"
                for row in rows:
                    bits, _, cut, _, _ = row.split()
                    assert int(bits, 2) in winners, \
                        f"graph {i}: {bits} is not a maximum cut"
                    assert int(cut) == best_cut
                cut_files += 1
                break
    elapsed = time.perf_counter() - t0
    ok = converged >= 16 and elapsed < 600.0
    announce(capsys, 3, ok,
             f"{converged}/20 graphs converged (need 16), "
             f"{cut_files} maxcut files oracle-checked, {elapsed:.1f}s")


def random_bound_circuit(rng, n):
    kinds = ["H", "X", "Y", "Z", "P", "Ry"]
    if n >= 2:
        kinds.append("CNOT")
    table = GateTable(n, kinds)
    circuit = gene_to_circuit(random_gene(table.pset, 8, rng), table)
    return bind_params(
        circuit, [rng.uniform(0.0, 4.0 * math.pi)
                  for _ in range(circuit.n_params)])


def random_amplitudes(rng, n):
    re = np.array([rng.gauss(0, 1) for _ in range(2 ** n)])
    im = np.array([rng.gauss(0, 1) for _ in range(2 ** n)])
    amps = re + 1j * im
    return amps / np.linalg.norm(amps)


def test_criterion_05_unitarity_and_dense(capsys):
    rng = random.Random(55)
    worst_norm = 0.0
    worst_dense = 0.0
    dense_checked = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        circuit = random_bound_circuit(rng, n)
        amps = random_amplitudes(rng, n)
        out = apply_circuit_array(amps, n, circuit, ())
        worst_norm = max(worst_norm, abs(np.linalg.norm(out) - 1.0))
        if n <= 4:
            dense = amps.copy()
            for gate in circuit.gates:
                dense = dense_gate(gate, n) @ dense
            worst_dense = max(worst_dense, np.abs(out - dense).max())
            dense_checked += 1
    ok = worst_norm < 1e-10 and worst_dense < 1e-12 and dense_checked > 0
    announce(capsys, 5, ok,
             f"1000 circuits, max |norm-1| {worst_norm:.2e}; "
             f"{dense_checked} dense cross-checks, max diff {worst_dense:.2e}")


def test_criterion_06_canonicalization(capsys):
    rng = random.Random(66)
    worst = 1.0
    for _ in range(500):
        n = rng.randint(1, 6)
        circuit = random_bound_circuit(rng, n)
        state = StateVector(n, random_amplitudes(rng, n))
        a = apply_circuit_array(state.amplitudes, n, circuit, ())
        b = apply_circuit_array(state.amplitudes, n, canonicalize(circuit), ())
        worst = min(worst, float(abs(np.vdot(a, b)) ** 2))
    cancels = len(canonicalize(parse_circuit("Z0 Z0", 1))) == 0
    ok = worst >= 1.0 - 1e-10 and cancels
    announce(capsys, 6, ok,
             f"500 circuits, min fidelity 1-{1.0 - worst:.2e}; "
             f"Z0 Z0 -> empty: {cancels}")


def test_criterion_07_operator_closure(capsys):
    rng = random.Random(77)
    families = []
    for pset, head in ((make_arith_pset("abcd"), 7),
                       (GateTable(4, ["Ry", "P", "CNOT"]).pset, 6)):
        pool = [random_gene(pset, head, rng) for _ in range(40)]
        families.append((pset, head, pool))
    checked = valid = 0
    for it in range(100_000):
        pset, head, pool = families[it % 2]
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        op = it // 2 % 5
        if op == 0:
            children = (mutate(a, 0.2, rng),)
        elif op == 1:
            children = one_point_recombine(a, b, rng)
        elif op == 2:
            children = two_point_recombine(a, b, rng)
        elif op == 3:
            children = (invert_head(a),)
        else:
            children = (swap_symbols(a, rng),)
        for child in children:
            checked += 1
            make_gene(child.symbols, head, pset)   # revalidates shape
            decode(child)                          # must build a tree
            valid += 1
        pool[rng.randrange(len(pool))] = children[0]
    ok = checked >= 100_000 and valid == checked
    announce(capsys, 7, ok,
             f"{valid}/{checked} children valid over 100000 applications")


def test_criterion_09_function_fit(capsys, tmp_path):
    reached = None
    for seed in range(5):
        d = tmp_path / f"s{seed}"
        d.mkdir()
        (d / "pairs.txt").write_text("0000 1111\n")
        spec = RunSpec(
            run_type="FunctionFit", n_bits=4, gates=("Ry",),
            evolution=EvolutionConfig(
                head_len=8, generations=50, population_size=100, seed=seed,
                early_stop_fitness=0.999),
            training_pairs="pairs.txt", base_dir=d)
        code, col = record_run(spec, f"funcfit-seed{seed}")
        if code == EXIT_EARLY_STOP and col[-1] >= 0.999:
            reached = (seed, len(col), col[-1])
            break
    ok = reached is not None
    announce(capsys, 9, ok,
             f"|0000>->|1111> fitness {reached[2] if reached else '<0.999'} "
             f"at seed {reached[0] if reached else '?'} "
             f"within {reached[1] if reached else 50} generations")


INPUT_TEXT = """\
RunType = GroundState
NumBits = 4
Gates = Ry
HeadSize = 6
Population = 40
Generations = 10
Seed = 7
GraphFile = g.txt
"""


def test_criterion_10_determinism(capsys, tmp_path):
    ring = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    outs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        save_graph(ring, str(d / "g.txt"))
        (d / "in.txt").write_text(INPUT_TEXT)
        code = main(["run", str(d / "in.txt")])
        assert code in (0, EXIT_EARLY_STOP)
        outs[tag] = {name: (d / name).read_bytes()
                     for name in ("trace.csv", "best.circ", "maxcut.txt")}
    TRACES.append(("determinism", best_column(tmp_path / "a")))
    same = [name for name in outs["a"] if outs["a"][name] == outs["b"][name]]
    ok = len(same) == 3
    announce(capsys, 10, ok,
             f"{len(same)}/3 artifacts byte-identical across repeat runs")


def test_criterion_11_heisenberg_negative_result(capsys, tmp_path):
    spec = RunSpec(
        run_type="GroundState", n_bits=9, gates=("Ry", "P", "CNOT"),
        evolution=EvolutionConfig(head_len=6, generations=500,
                                  population_size=30, seed=0),
        hamiltonian="heisenberg2d:3,3", canonicalize=True, base_dir=tmp_path)
    report = verify(spec)
    reported = any(line.startswith("gap:") for line in report.lines())
    ok = reported and report.gap > 0.1
    announce(capsys, 11, ok,
             f"3x3 lattice gap {report.gap:.3f} after 500 generations "
             f"(oracle {report.oracle_energy:.6f}, best {report.best_fitness})")


# -- aggregates over the runs above; keep these last ------------------------


def test_criterion_04_variational_bound(capsys):
    if not BOUNDS:
        pytest.skip("no recorded runs; run the full module")
    overshoot = max(top - bound for _, top, bound in BOUNDS)
    ok = overshoot <= 1e-8
    announce(capsys, 4, ok,
             f"{len(BOUNDS)} runs, worst fitness overshoot {overshoot:.2e} "
             f"(limit 1e-8)")


def test_criterion_08_monotone_traces(capsys):
    if not TRACES:
        pytest.skip("no recorded runs; run the full module")
    bad = [label for label, col in TRACES
           if any(y < x for x, y in zip(col, col[1:]))]
    ok = not bad
    announce(capsys, 8, ok,
             f"{len(TRACES)} trace files, non-decreasing best_fitness"
             + (f"; violations: {bad}" if bad else ""))
