"""Input-file parsing, artifact writing, and subcommand tests."""

import math
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gepcirc.cli as cli_mod
import gepcirc.fitness as fitness_mod
import gepcirc.oracle as oracle_mod
import gepcirc.sim as sim_mod
from gepcirc.cli import (
    EXIT_EARLY_STOP,
    EXIT_ERROR,
    EXIT_OK,
    _KEYS,
    _REQUIRED,
    _builtin_hamiltonian,
    _graph_oracle,
    decode_gene_string,
    load_training_pairs,
    main,
    parse_input,
    run,
    verify,
)
from gepcirc.engine import ConfigError
from gepcirc.hamiltonians import Graph, ising_from_graph, maxcut_rows, xx_chain
from gepcirc.oracle import (
    brute_force_maxcut,
    dense_matrix,
    exact_ground_energy,
)
from gepcirc.sim import (
    apply_circuit_array,
    canonicalize,
    circuit_to_string,
    parse_angle,
    parse_circuit,
)

from writers import save_graph


def write(path, text):
    path.write_text(text)
    return str(path)


def edge_graph(tmp_path, name="g.txt"):
    save_graph(Graph(2, ((0, 1),)), str(tmp_path / name))
    return name


BASE = """\
RunType = GroundState
NumBits = 2
Gates = Ry
HeadSize = 3
Generations = 5
GraphFile = g.txt
"""


class TestParseInput:
    def test_golden(self, tmp_path):
        text = """\
# comment line
RunType = GroundState
NumBits = 4          # trailing comment
Gates = Ry,P
HeadSize = 8
Generations = 100
Hamiltonian = xx:4,1.0,periodic
Seed = 3
EarlyStopFitness = 3.99
Canonicalize = 1
"""
        spec = parse_input(write(tmp_path / "in.txt", text))
        assert spec.run_type == "GroundState"
        assert spec.n_bits == 4
        assert spec.gates == ("Ry", "P")
        assert spec.evolution.head_len == 8
        assert spec.evolution.generations == 100
        assert spec.evolution.seed == 3
        assert spec.evolution.early_stop_fitness == 3.99
        assert spec.canonicalize is True
        assert spec.base_dir == tmp_path

    def test_defaults(self, tmp_path):
        edge_graph(tmp_path)
        spec = parse_input(write(tmp_path / "in.txt", BASE))
        assert spec.evolution.population_size == 100
        assert spec.evolution.seed == 0
        assert spec.evolution.early_stop_fitness is None
        assert spec.canonicalize is False
        assert spec.epsilon == 1e-4
        assert spec.p_phase == math.pi / 2

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path / "in.txt", BASE + "Wombat = 3\n")
        with pytest.raises(ConfigError, match=r"in\.txt:7.*Wombat"):
            parse_input(path)

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path / "in.txt", BASE + "NumBits = 3\n")
        with pytest.raises(ConfigError, match=r":7.*already set on line 2"):
            parse_input(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = write(tmp_path / "in.txt", BASE.replace("NumBits = 2",
                                                       "NumBits = two"))
        with pytest.raises(ConfigError, match=r"in\.txt:2.*NumBits"):
            parse_input(path)

    def test_bad_gate(self, tmp_path):
        path = write(tmp_path / "in.txt", BASE.replace("Gates = Ry",
                                                       "Gates = Ry,Q"))
        with pytest.raises(ConfigError, match="unknown gate 'Q'"):
            parse_input(path)

    def test_missing_required(self, tmp_path):
        path = write(tmp_path / "in.txt",
                     "RunType = GroundState\nNumBits = 2\n")
        with pytest.raises(ConfigError, match="missing required key Gates"):
            parse_input(path)

    def test_missing_equals(self, tmp_path):
        path = write(tmp_path / "in.txt", BASE + "Threads\n")
        with pytest.raises(ConfigError, match=r":7: expected Key = value"):
            parse_input(path)

    def test_function_fit_needs_pairs(self, tmp_path):
        path = write(tmp_path / "in.txt",
                     BASE.replace("RunType = GroundState",
                                  "RunType = FunctionFit")
                         .replace("GraphFile = g.txt\n", ""))
        with pytest.raises(ConfigError, match="requires TrainingPairs"):
            parse_input(path)

    def test_ground_state_needs_one_source(self, tmp_path):
        path = write(tmp_path / "in.txt",
                     BASE + "Hamiltonian = xx:2,1.0,open\n")
        with pytest.raises(ConfigError, match="exactly one of"):
            parse_input(path)
        path = write(tmp_path / "in2.txt",
                     BASE.replace("GraphFile = g.txt\n", ""))
        with pytest.raises(ConfigError, match="exactly one of"):
            parse_input(path)

    def test_bad_run_type(self, tmp_path):
        path = write(tmp_path / "in.txt",
                     BASE.replace("GroundState", "Minimize"))
        message = (f"{path}:1: bad value for RunType: must be FunctionFit "
                   f"or GroundState, got 'Minimize'")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_input(path)

    def test_bool_rejects_words(self, tmp_path):
        path = write(tmp_path / "in.txt", BASE + "Canonicalize = yes\n")
        with pytest.raises(ConfigError, match="expected 0 or 1"):
            parse_input(path)


class TestHamiltonianKey:
    def test_nbits_mismatch(self, tmp_path):
        text = BASE.replace("GraphFile = g.txt",
                            "Hamiltonian = xx:3,1.0,open")
        path = write(tmp_path / "in.txt", text)
        with pytest.raises(ConfigError, match="on 3 bits but NumBits = 2"):
            run(parse_input(path))

    def test_bad_kind(self, tmp_path):
        text = BASE.replace("GraphFile = g.txt", "Hamiltonian = ising:2")
        path = write(tmp_path / "in.txt", text)
        with pytest.raises(ConfigError, match="Hamiltonian must be"):
            run(parse_input(path))

    def test_heisenberg_key(self, tmp_path):
        text = BASE.replace("NumBits = 2", "NumBits = 4").replace(
            "GraphFile = g.txt", "Hamiltonian = heisenberg2d:2,2")
        spec = parse_input(write(tmp_path / "in.txt", text))
        assert spec.hamiltonian == "heisenberg2d:2,2"


def readme_defaults():
    """Key -> default text, from README's Keys table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Keys\n\n", 1)[1].split("\n\n")[0]
    defaults = {}
    for row in table.splitlines()[2:]:
        keys, default, _ = row.strip("| ").split(" | ")
        defaults.update(zip(keys.split(", "), default.split(", ")))
    return defaults


class TestReadmeKeys:
    def test_table_names_every_key(self):
        assert sorted(readme_defaults()) == sorted(_KEYS)

    def test_defaults_are_what_parsing_gives(self, tmp_path):
        edge_graph(tmp_path)
        spec = parse_input(write(tmp_path / "in.txt", BASE))
        parsed = {**vars(spec), **vars(spec.evolution)}
        for key, default in readme_defaults().items():
            assert (default == "required") == (key in _REQUIRED), key
            if key in BASE:     # set by the minimal file
                continue
            value = parsed[_KEYS[key][0]]
            if default in ("off", "-", "`0...0`"):
                assert value is None, key
            else:
                assert value == parse_angle(default), key


class TestReadmeExample:
    def test_library_example_prints_its_comment(self, capsys):
        # the ```python block runs as printed, and its print() writes the
        # comment line under it: the ground state's fitness 4 (to rounding)
        # and a canonical circuit, with no two adjacent Ry on one qubit
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        code = readme.split("```python\n", 1)[1].split("```", 1)[0]
        lines = code.splitlines()
        after = next(i for i, line in enumerate(lines)
                     if line.startswith("print(")) + 1
        _, fit, text = lines[after].split(" ", 2)
        assert abs(float(fit) - 4.0) <= 1e-15 * 4.0
        circuit = parse_circuit(text, 4)
        assert canonicalize(circuit) == circuit
        exec(code, {})
        assert capsys.readouterr().out == lines[after][2:] + "\n"


class TestReferenceEnergy:
    def test_exact_energy_only_past_the_dense_oracle(self, tmp_path):
        # ExactEnergy is the ground energy of s*(H - e0), taken as given
        # without a graph past the dense oracle; within it the oracle wins
        def reference(n_bits):
            spec = parse_input(write(tmp_path / "in.txt", f"""\
RunType = GroundState
NumBits = {n_bits}
Gates = Ry
HeadSize = 2
Generations = 1
Hamiltonian = xx:{n_bits},1.0,open
EnergyScale = 2
ExactEnergy = -7.5
"""))
            return cli_mod._prepare(spec).reference

        assert reference(12) == -7.5
        assert reference(4) == exact_ground_energy(
            xx_chain(4, 1.0, "open").rescaled(0.0, 2.0))
        assert reference(4) != -7.5

    def test_graph_enumeration_equals_dense_diagonalization(self):
        # a graph's reference and max cut come from one enumeration at any
        # scale sign; dense diagonalization of the same rescaled model
        # must give the same float, and the cut table the same max cut
        rng = random.Random(5)
        for n in [3, 4, 5, 6, 7, 8] * 6 + [9]:
            graph = Graph(n, tuple((i, j) for i in range(n)
                                   for j in range(i + 1, n)
                                   if rng.random() < 0.4))
            for shift, scale in [(0.0, 1.0),
                                 (rng.uniform(-5, 5), rng.uniform(0.1, 3)),
                                 (rng.uniform(-5, 5), 0.0),
                                 (rng.uniform(-5, 5), -0.0),
                                 (0.0, -1.0),
                                 (rng.uniform(-5, 5), rng.uniform(-3, -0.1))]:
                h = ising_from_graph(graph).rescaled(shift, scale)
                reference, maxcut = _graph_oracle(h, graph)
                assert reference == exact_ground_energy(h)
                assert maxcut == brute_force_maxcut(graph)[0]


class TestTrainingPairs:
    def test_load(self, tmp_path):
        path = write(tmp_path / "pairs.txt", """\
# input -> output
00 -> 11
0 3           # decimal indices work too
""")
        assert load_training_pairs(path, 2) == [(0, 3), (0, 3)]

    def test_errors(self, tmp_path):
        path = write(tmp_path / "pairs.txt", "00 11 00\n")
        with pytest.raises(ConfigError, match=r"pairs\.txt:1"):
            load_training_pairs(path, 2)
        path = write(tmp_path / "pairs.txt", "00 21\n")
        with pytest.raises(ConfigError, match=r"pairs\.txt:1"):
            load_training_pairs(path, 2)
        # a label is a basis label, not an initial state
        for line, message in [
                ("00 -> 9", "basis label 9 out of range for 2 bits"),
                ("00 -> zz", "cannot parse basis label 'zz'")]:
            path = write(tmp_path / "pairs.txt", line + "\n")
            with pytest.raises(ConfigError) as info:
                load_training_pairs(path, 2)
            assert str(info.value) == f"{path}:1: {message}"
        path = write(tmp_path / "pairs.txt", "# nothing\n")
        with pytest.raises(ConfigError, match="no training pairs"):
            load_training_pairs(path, 2)

    def test_set_up_holds_no_states(self, tmp_path):
        # a problem keeps basis indices: at 20 bits, 16 dense states of
        # 16 MB each would be 256 MB before anything is evaluated
        write(tmp_path / "pairs.txt", "".join(
            f"{k} -> {(k * 7919) % (1 << 20)}\n" for k in range(8)))
        spec = parse_input(write(tmp_path / "in.txt", """\
RunType = FunctionFit
NumBits = 20
Gates = Ry,CNOT
HeadSize = 3
Generations = 1
TrainingPairs = pairs.txt
"""))
        tracemalloc.start()
        try:
            prep = cli_mod._prepare(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prep.problem.inputs == tuple(range(8))
        assert peak < 1 << 20, peak


class TestRun:
    def test_ground_state_artifacts(self, tmp_path, capsys):
        edge_graph(tmp_path)
        path = write(tmp_path / "in.txt", BASE + "Population = 20\nSeed = 1\n")
        code = run(parse_input(path))
        assert code == EXIT_OK
        assert "best_fitness" in capsys.readouterr().out

        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == \
            "generation,best_fitness,worst_fitness,delta_e_best,delta_e_pop"
        assert len(trace) == 6
        first = trace[1].split(",")
        assert first[0] == "0"
        # delta columns present: graph oracle gives the exact reference
        assert first[3] != ""

        best = (tmp_path / "best.circ").read_text().splitlines()
        assert 1 <= len(best) <= 5
        fit, _, circ = best[0].partition("\t")
        assert float(fit) == 1.0            # single edge: E_min = -1
        parse_circuit(circ, 2)              # must round trip

        cut = (tmp_path / "maxcut.txt").read_text().splitlines()
        assert cut[0] == "# bitstring weight cut side_a side_b"
        rows = [line.split() for line in cut[1:]]
        assert all(r[2] == "1" for r in rows)

    def test_maxcut_rows_are_the_best_circuits_state(self, tmp_path):
        # the complete graph on 4 vertices; after one short generation the
        # best circuit leaves two basis states of unequal weight
        graph = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        save_graph(graph, str(tmp_path / "g.txt"))
        spec = parse_input(write(tmp_path / "in.txt", """\
RunType = GroundState
NumBits = 4
Gates = Ry,X,CNOT
HeadSize = 6
Population = 4
Generations = 1
Seed = 6
GraphFile = g.txt
InitialState = 1000
"""))
        run(spec)
        best = (tmp_path / "best.circ").read_text().splitlines()[0]
        initial = np.zeros(16, dtype=complex)
        initial[0b1000] = 1.0
        final = apply_circuit_array(initial, 4,
                                    parse_circuit(best.split("\t")[1], 4))
        expected = [row.split() for row in
                    maxcut_rows(final, graph, spec.epsilon)]
        lines = (tmp_path / "maxcut.txt").read_text().splitlines()
        assert lines[0] == "# bitstring weight cut side_a side_b"
        rows = [line.split() for line in lines[1:]]
        weights = [float(row[1]) for row in rows]
        assert len(rows) >= 2 and max(weights) - min(weights) > 0.5
        # bitstring, cut and sides exactly, row by row in the file's order
        assert [[r[0]] + r[2:] for r in rows] \
            == [[r[0]] + r[2:] for r in expected]
        for weight, row in zip(weights, expected):
            assert abs(weight - float(row[1])) <= 1e-12

    def test_maxcut_state_norm_drift(self, tmp_path, monkeypatch):
        """A final state off unit norm ends the run in a ConfigError, and
        no maxcut.txt is written: ``_write_maxcut`` looks the kernel up on
        ``sim`` at call time, so a patched one that doubles the state
        reaches it, while the sweep keeps its own."""
        edge_graph(tmp_path)
        spec = parse_input(write(tmp_path / "in.txt",
                                 BASE + "Population = 4\nSeed = 1\n"))
        apply = sim_mod.apply_circuit_array
        monkeypatch.setattr(sim_mod, "apply_circuit_array",
                            lambda *args: 2.0 * apply(*args))
        with pytest.raises(ConfigError) as err:
            run(spec)
        norm = re.fullmatch(r"state norm (\S+) drifted from 1", str(err.value))
        assert norm and abs(float(norm[1]) - 2.0) < 1e-12
        assert (tmp_path / "best.circ").exists()
        assert not (tmp_path / "maxcut.txt").exists()

    def test_non_default_p_phase(self, tmp_path):
        # every P gate of a table at PPhase = pi/4 prints its phase, and
        # every best circuit re-simulates to its printed fitness
        text = """\
RunType = GroundState
NumBits = 4
Gates = Ry,P,CNOT
HeadSize = 6
Population = 20
Generations = 4
Seed = 7
Hamiltonian = heisenberg2d:2,2
Canonicalize = 1
PPhase = 0.7853981633974483
"""
        artifacts = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            run(parse_input(write(tmp_path / name / "in.txt", text)))
            artifacts.append({f: (tmp_path / name / f).read_bytes()
                              for f in ("trace.csv", "best.circ")})
        assert artifacts[0] == artifacts[1]
        h = _builtin_hamiltonian("heisenberg2d:2,2")
        matrix = dense_matrix(h)
        tolerance = 1e-12 * (1 + sum(abs(t.coefficient) for t in h.terms))
        initial = np.zeros(16, dtype=complex)
        initial[0] = 1.0
        tokens = []
        for line in artifacts[0]["best.circ"].decode().splitlines():
            fit, _, circ = line.partition("\t")
            tokens += circ.split()
            final = apply_circuit_array(initial, 4, parse_circuit(circ, 4))
            energy = np.vdot(final, matrix @ final).real
            assert abs(-energy - float(fit)) <= tolerance
        p_tokens = [t for t in tokens if t.startswith("P")]
        assert p_tokens
        assert all(re.fullmatch(r"P\d:pi/4", t) for t in p_tokens)

    def test_single_generation_single_row(self, tmp_path):
        edge_graph(tmp_path)
        path = write(tmp_path / "in.txt",
                     BASE.replace("Generations = 5", "Generations = 1")
                     + "Population = 4\n")
        run(parse_input(path))
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 2

    def test_early_stop_exit_code(self, tmp_path):
        edge_graph(tmp_path)
        path = write(tmp_path / "in.txt",
                     BASE + "Population = 20\nEarlyStopFitness = 0.99\n")
        assert run(parse_input(path)) == EXIT_EARLY_STOP

    def test_function_fit_run(self, tmp_path):
        write(tmp_path / "pairs.txt", "0 -> 1\n")
        path = write(tmp_path / "in.txt", """\
RunType = FunctionFit
NumBits = 1
Gates = X
HeadSize = 2
Generations = 3
Population = 10
TrainingPairs = pairs.txt
EarlyStopFitness = 0.999
""")
        assert run(parse_input(path)) == EXIT_EARLY_STOP
        best = (tmp_path / "best.circ").read_text().splitlines()
        assert best[0].startswith("1.0\t")
        assert not (tmp_path / "maxcut.txt").exists()
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[1].endswith(",,")      # no oracle -> empty deltas

    def test_initial_state_override(self, tmp_path):
        # start in |11>: the empty circuit already sees energy -1
        edge_graph(tmp_path)
        path = write(tmp_path / "in.txt", BASE.replace(
            "Generations = 5", "Generations = 1")
            + "Population = 4\nInitialState = 10\n")
        run(parse_input(path))
        best = (tmp_path / "best.circ").read_text().splitlines()
        assert float(best[0].split("\t")[0]) == 1.0

    def test_initial_state_rejected_for_function_fit(self, tmp_path):
        write(tmp_path / "pairs.txt", "0 1\n")
        path = write(tmp_path / "in.txt", """\
RunType = FunctionFit
NumBits = 1
Gates = X
HeadSize = 2
Generations = 1
TrainingPairs = pairs.txt
InitialState = 0
""")
        with pytest.raises(ConfigError, match="not InitialState"):
            run(parse_input(path))


class TestVerify:
    def test_gap_zero_on_converged_run(self, tmp_path):
        edge_graph(tmp_path)
        path = write(tmp_path / "in.txt",
                     BASE + "Population = 20\nEarlyStopFitness = 0.999999\n")
        report = verify(parse_input(path))
        assert report.oracle_energy == -1.0
        assert abs(report.gap) < 1e-9
        assert report.maxcut == 1
        assert report.early_stopped
        text = "\n".join(report.lines())
        assert "oracle ground energy: -1.0" in text
        assert "oracle maxcut: 1" in text

    def test_graph_above_dense_cap_with_negative_scale(self, tmp_path,
                                                       capsys):
        # H' = -(H - 0.5) is lowest with every spin aligned: -(12 - 0.5)
        save_graph(Graph(12, tuple((i, (i + 1) % 12) for i in range(12))),
                   str(tmp_path / "ring.txt"))
        text = (BASE.replace("NumBits = 2", "NumBits = 12")
                .replace("Generations = 5", "Generations = 1")
                .replace("g.txt", "ring.txt"))
        path = write(tmp_path / "in.txt", text + "Population = 4\n"
                     "EnergyShift = 0.5\nEnergyScale = -1\n")
        assert main(["verify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle ground energy: -11.5\n" in out
        assert float(out.split("gap: ")[1].split()[0]) >= -1e-8

    @pytest.mark.parametrize("scale, reference", [("1", -5.0), ("-1", -7.0)])
    def test_one_cut_table_per_verify(self, tmp_path, monkeypatch, scale,
                                      reference):
        # set-up enumerates the cut table once, for the reference at either
        # end of the Ising spectrum and for the max cut that verify prints
        graph = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                          (0, 2)))
        save_graph(graph, str(tmp_path / "g6.txt"))
        table = oracle_mod.brute_force_maxcut
        calls = []

        def counted(g):
            calls.append(g)
            return table(g)

        monkeypatch.setattr(oracle_mod, "brute_force_maxcut", counted)
        text = (BASE.replace("NumBits = 2", "NumBits = 6")
                .replace("Generations = 5", "Generations = 1")
                .replace("g.txt", "g6.txt"))
        path = write(tmp_path / "in.txt",
                     text + f"Population = 4\nEnergyScale = {scale}\n")
        report = verify(parse_input(path))
        assert calls == [graph]
        assert report.maxcut == 6 == table(graph)[0]
        assert report.oracle_energy == reference

    def test_refused_before_evolving_without_oracle(self, tmp_path,
                                                    monkeypatch):
        # 12 bits is past the dense oracle, with no graph or ExactEnergy
        path = write(tmp_path / "in.txt", """\
RunType = GroundState
NumBits = 12
Gates = Ry,CNOT
HeadSize = 6
Population = 20
Generations = 30
MutationRate = 0.5
Hamiltonian = xx:12,1.0,open
""")

        def evolve(*args, **kwargs):
            raise AssertionError("verify evolved without an oracle")

        monkeypatch.setattr(cli_mod, "run_evolution", evolve)
        with pytest.raises(ConfigError, match="^no oracle available: "):
            verify(parse_input(path))

    def test_requires_ground_state(self, tmp_path):
        write(tmp_path / "pairs.txt", "0 1\n")
        path = write(tmp_path / "in.txt", """\
RunType = FunctionFit
NumBits = 1
Gates = X
HeadSize = 2
Generations = 1
TrainingPairs = pairs.txt
""")
        with pytest.raises(ConfigError, match="GroundState"):
            verify(parse_input(path))


class TestDecode:
    def test_golden(self):
        circuit = decode_gene_string("H1 CNOT0,2 Ry0 psi0 X0 psi0")
        assert circuit.n_bits == 3
        assert circuit_to_string(circuit) == "Ry0:phi0 CNOT0,2 H1"

    def test_all_terminal(self):
        assert len(decode_gene_string("psi0 psi0")) == 0

    @pytest.mark.parametrize("text, message", [
        pytest.param("H0 nope psi0", "token 1", id="unknown-symbol"),
        pytest.param("Ry25 psi0", r"^token 0 \('Ry25'\): qubit 25 ",
                     id="qubit-out-of-range"),
    ])
    def test_bad_token(self, text, message):
        with pytest.raises(ConfigError, match=message):
            decode_gene_string(text)


class TestBenchmarkHooks:
    def test_patched_names_exist(self, monkeypatch):
        # the benchmark wraps program functions by name (perfbench/tracing.py
        # TARGETS) and its kernel probe builds states with sim.basis_state;
        # a renamed or removed name fails here rather than in a traced run
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        monkeypatch.delitem(sys.modules, "tracing", raising=False)
        import tracing

        with tracing.Tracer().installed(), tracing.Counters().installed():
            pass
        assert callable(sim_mod.basis_state)
        probe = tracing.kernel_probe(2, repeats=1)
        assert set(probe) == {"sim.ry_us", "sim.cnot_us"}


class TestMain:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        edge_graph(tmp_path)
        path = write(tmp_path / "in.txt",
                     BASE + "Population = 20\nEarlyStopFitness = 0.99\n")
        assert main(["run", path]) == EXIT_EARLY_STOP
        assert "(early stop)" in capsys.readouterr().out

    def test_verify_output(self, tmp_path, capsys):
        edge_graph(tmp_path)
        path = write(tmp_path / "in.txt", BASE + "Population = 20\n")
        assert main(["verify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gap: 0.0" in out

    def test_decode_output(self, capsys):
        assert main(["decode", "Ry1 CNOT0,1 psi0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "CNOT0,1 Ry1:phi0"

    def test_config_error_exit(self, tmp_path, capsys):
        path = write(tmp_path / "in.txt", "RunType = GroundState\n")
        assert main(["run", path]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.txt")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, message", [
        (RuntimeError("boom"), "error: fitness failed on genome "),
        (MemoryError(), "error: out of memory"),
    ])
    def test_fitness_failure_exit(self, tmp_path, capsys, monkeypatch,
                                  exc, message):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(fitness_mod, "optimize_params", broken)
        edge_graph(tmp_path)
        path = write(tmp_path / "in.txt", BASE + "Population = 20\n")
        assert main(["run", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        ("PPhase = nan", "bad value for PPhase"),
        ("PPhase = inf", "bad value for PPhase"),
        ("Epsilon = nan", "bad value for Epsilon"),
        ("Epsilon = inf", "bad value for Epsilon"),
        ("EnergyScale = -inf", "bad value for EnergyScale"),
        ("Threads = 2", "unknown key 'Threads'"),
        ("GradientRefine = 1", "unknown key 'GradientRefine'"),
        ("Population = 0", "bad value for Population: must be >= 2, got 0"),
        ("HeadSize = 0", "bad value for HeadSize: must be >= 1, got 0"),
        ("Generations = 0", "bad value for Generations: must be >= 1, got 0"),
        ("NumBits = 30", "bad value for NumBits: must be in [1, 24], got 30"),
        ("MutationRate = 2",
         "bad value for MutationRate: must be in [0, 1], got 2.0"),
        ("SwapRate = -0.5", "bad value for SwapRate: must be in [0, 1]"),
        ("Epsilon = -1", "bad value for Epsilon: must be >= 0, got -1.0"),
        ("Hamiltonian = xx:3,nan,open",
         "bad value for Hamiltonian: non-finite coefficient"),
        ("Hamiltonian = heisenberg2d:2", "bad value for Hamiltonian: "),
        ("Hamiltonian = ising:4", "bad value for Hamiltonian: "),
        # widths that disagree with NumBits, found once the run is set up
        ("GraphFile = g3.txt", "graph has 3 vertices but NumBits = 2"),
        ("Hamiltonian = xx:3,1,open", "Hamiltonian is on 3 bits but NumBits = 2"),
        ("InitialState = 9", "basis label 9 out of range for 2 bits"),
        # finite, but the energies they make are not
        ("EnergyScale = 1e308", "energies overflow"),
        ("EnergyShift = -1e308", "energies overflow"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_line_exit(self, tmp_path, capsys, line, message):
        edge_graph(tmp_path)
        save_graph(Graph(3, ((0, 1), (1, 2))), str(tmp_path / "g3.txt"))
        # a key that BASE sets is commented out there, so the bad line is
        # still line 7; a Hamiltonian replaces BASE's GraphFile
        key = line.split(" = ")[0] + " = "
        dropped = (key, "GraphFile = ") if key == "Hamiltonian = " else (key,)
        base = "".join("#\n" if row.startswith(dropped) else row + "\n"
                       for row in BASE.splitlines())
        path = write(tmp_path / "in.txt", base + line + "\n")
        assert main(["run", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "in.txt:7: " + message in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "gepcirc" in capsys.readouterr().out
