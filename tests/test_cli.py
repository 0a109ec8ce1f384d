"""Input-file parsing, artifact writing, and subcommand tests."""

import math
import random

import pytest

import gepcirc.fitness as fitness_mod
from gepcirc.cli import (
    EXIT_EARLY_STOP,
    EXIT_ERROR,
    EXIT_OK,
    RunSpec,
    _reference_energy,
    decode_gene_string,
    load_training_pairs,
    main,
    parse_input,
    run,
    verify,
)
from gepcirc.engine import ConfigError
from gepcirc.hamiltonians import Graph, ising_from_graph, save_graph
from gepcirc.oracle import exact_ground_energy
from gepcirc.sim import circuit_to_string, parse_circuit


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
        assert spec.head_size == 8
        assert spec.generations == 100
        assert spec.seed == 3
        assert spec.early_stop == 3.99
        assert spec.canonicalize is True
        assert spec.base_dir == tmp_path

    def test_defaults(self, tmp_path):
        edge_graph(tmp_path)
        spec = parse_input(write(tmp_path / "in.txt", BASE))
        assert spec.population == 100
        assert spec.seed == 0
        assert spec.early_stop is None
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
        with pytest.raises(ConfigError, match="RunType must be"):
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


class TestReferenceEnergy:
    def test_graph_enumeration_equals_dense_diagonalization(self):
        # a graph's reference comes from enumeration; dense diagonalization
        # of the same rescaled model must give the same float
        rng = random.Random(5)
        for n in [3, 4, 5, 6, 7, 8] * 6 + [9]:
            graph = Graph(n, tuple((i, j) for i in range(n)
                                   for j in range(i + 1, n)
                                   if rng.random() < 0.4))
            for shift, scale in [(0.0, 1.0),
                                 (rng.uniform(-5, 5), rng.uniform(0.1, 3)),
                                 (rng.uniform(-5, 5), 0.0)]:
                spec = RunSpec("GroundState", n, ("Ry",), 4, 1,
                               energy_shift=shift, energy_scale=scale)
                h = ising_from_graph(graph).rescaled(shift, scale)
                assert _reference_energy(spec, h, graph) \
                    == exact_ground_energy(h)


class TestTrainingPairs:
    def test_load(self, tmp_path):
        path = write(tmp_path / "pairs.txt", """\
# input -> output
00 -> 11
0 3           # decimal indices work too
""")
        pairs = load_training_pairs(path, 2)
        assert len(pairs) == 2
        for inp, out in pairs:
            assert inp.amplitudes[0] == 1.0
            assert out.amplitudes[3] == 1.0

    def test_errors(self, tmp_path):
        path = write(tmp_path / "pairs.txt", "00 11 00\n")
        with pytest.raises(ConfigError, match=r"pairs\.txt:1"):
            load_training_pairs(path, 2)
        path = write(tmp_path / "pairs.txt", "00 21\n")
        with pytest.raises(ConfigError, match=r"pairs\.txt:1"):
            load_training_pairs(path, 2)
        path = write(tmp_path / "pairs.txt", "# nothing\n")
        with pytest.raises(ConfigError, match="no training pairs"):
            load_training_pairs(path, 2)


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

    def test_bad_token(self):
        with pytest.raises(ConfigError, match="token 1"):
            decode_gene_string("H0 nope psi0")


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
        ("InitialState = 9", "initial state 9 out of range for 2 bits"),
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
