"""The input boundary: every input file and genome string, however broken,
ends a command in exit 0, 1 or 3, and exit 1 prints exactly one `error:`
line and no traceback or warning.

Each fuzzed file sits next to a fixed, tiny, valid companion (NumBits 2,
Population 2, Generations 1), so a file that happens to be valid runs in
milliseconds. A fuzzed input file is drawn lines after a valid one.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from gepcirc.cli import EXIT_EARLY_STOP, EXIT_ERROR, EXIT_OK, main
from gepcirc.engine import ConfigError, Locator, content_lines

SMALL = "NumBits = 2\nGates = Ry,CNOT\nHeadSize = 2\nPopulation = 2\nGenerations = 1\n"
GROUND = "RunType = GroundState\n" + SMALL
VALID = {
    "g.txt": "n 2\n0 1\n",
    "h.txt": "nbits 2\n1.0 Z0 Z1\n-0.5 X0\n",
    "p.txt": "00 -> 11\n01 10\n",
}
# kind -> (the file that gets the drawn bytes, the input file)
CASES = {
    "input": ("in.txt", GROUND + "GraphFile = g.txt\n"),
    "graph": ("g.txt", GROUND + "GraphFile = g.txt\n"),
    "pauli": ("h.txt", GROUND + "Hamiltonian = file:h.txt\n"),
    "pairs": ("p.txt", "RunType = FunctionFit\n" + SMALL + "TrainingPairs = p.txt\n"),
}

# keys a fuzzed input file may set; setting a size in SMALL again is an
# error, so no run grows
KEYS = ("Seed", "EarlyStopFitness", "InitialState", "GraphFile",
        "Hamiltonian", "TrainingPairs", "Canonicalize", "GradientRefine",
        "EnergyShift", "EnergyScale", "Epsilon", "MutationRate",
        "OnePointRate", "TwoPointRate", "InversionRate", "SwapRate",
        "ExactEnergy", "PPhase", "NumBits", "Generations", "Wombat")
WORDS = {
    "input": ("g.txt", "h.txt", "p.txt", "missing.txt", "file:h.txt",
              "xx:2,1,open", "xx:3,1,open", "heisenberg2d:1,2",
              "heisenberg2d:9,9", "0", "1", "11", "1e308", "-1e308",
              "1e-320", "nan", "inf"),
    "graph": ("n", "0", "1", "2", "3", "-1", "x"),
    "pauli": ("nbits", "X0", "Y1", "Z0", "Z1", "Z2", "X", "1", "-0.5",
              "1e308", "-1e308", "1e-320", "nan", "inf"),
    "pairs": ("00", "01", "10", "11", "->", "3", "4", "-1", "0b1"),
}


def contents(kind):
    """Arbitrary bytes (mostly not UTF-8), or lines of the format's own
    words, numbers and arbitrary text, after the valid file or not."""
    word = st.one_of(st.sampled_from(WORDS[kind]), st.integers(-3, 30).map(str),
                     st.floats().map(repr), st.text(max_size=6))
    line = st.one_of(st.lists(word, max_size=4).map(" ".join),
                     st.text(max_size=20))
    if kind == "input":
        line = st.one_of(line, st.tuples(st.sampled_from(KEYS), word).map(
            "{0[0]} = {0[1]}".format))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = st.lists(st.tuples(line, ends).map("".join), max_size=8)
    valid = VALID.get(CASES[kind][0], "")
    text = st.tuples(st.sampled_from(["", valid]), lines).map(
        lambda parts: parts[0] + "".join(parts[1]))
    return st.one_of(st.binary(max_size=40), text.map(str.encode))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_EARLY_STOP)
    if code == EXIT_ERROR:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
    else:
        assert err == ""


def run_case(directory, kind, data, whole=False):
    """Write the valid companions, put ``data`` in the case's file (after
    the input file's valid lines unless ``whole``), and run."""
    for name, text in VALID.items():
        (directory / name).write_text(text)
    target, text = CASES[kind]
    (directory / "in.txt").write_text(text)
    append = target == "in.txt" and not whole
    with open(directory / target, "ab" if append else "wb") as fh:
        fh.write(data)
    return run_main(["run", str(directory / "in.txt")])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_file_ends_cleanly(workdir, kind, data):
    content = data.draw(contents(kind), label="content")
    assert_clean_exit(*run_case(workdir, kind, content))


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(
    st.text(max_size=30),
    st.lists(st.one_of(st.sampled_from(
        ["psi0", "H0", "Ry1", "P2", "CNOT0,1", "CNOT1,1", "CNOT2", "X23",
         "Y24", "Z0,1", "Ry0:pi", "Ry0:phi0", "H01"]), st.text(max_size=4)),
        max_size=6).map(" ".join)))
def test_fuzzed_genome_ends_cleanly(text):
    assert_clean_exit(*run_main(["decode", "--", text]))


@pytest.mark.parametrize("kind", sorted(CASES))
def test_non_utf8_byte_names_the_file(tmp_path, kind):
    target = CASES[kind][0]
    code, err = run_case(tmp_path, kind, b"\xff\n")
    assert code == EXIT_ERROR
    offset = len(CASES[kind][1]) if kind == "input" else 0
    assert err == f"error: {tmp_path / target}: not UTF-8 text (byte {offset})\n"


BOM = "\ufeff".encode()


def valid_target(kind):
    """The valid contents of the case's file, as bytes."""
    target, text = CASES[kind]
    return (text if target == "in.txt" else VALID[target]).encode()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_byte_order_mark_is_dropped(tmp_path, kind):
    # as Windows Notepad writes UTF-8: the run and its artifacts are those
    # of the same file without the mark
    outcomes = []
    for name, data in (("plain", valid_target(kind)),
                       ("bom", BOM + valid_target(kind))):
        directory = tmp_path / name
        directory.mkdir()
        code, err = run_case(directory, kind, data, whole=True)
        artifacts = {artifact: (directory / artifact).read_bytes()
                     for artifact in ("trace.csv", "best.circ", "maxcut.txt")
                     if (directory / artifact).exists()}
        outcomes.append((code, err, artifacts))
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][0] in (EXIT_OK, EXIT_EARLY_STOP)
    assert "best.circ" in outcomes[0][2]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_byte_order_mark_keeps_byte_offsets(tmp_path, kind):
    data = BOM + valid_target(kind)
    code, err = run_case(tmp_path, kind, data + b"\xff\n", whole=True)
    assert code == EXIT_ERROR
    assert err == (f"error: {tmp_path / CASES[kind][0]}: not UTF-8 text "
                   f"(byte {len(data)})\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_pauli_file_names_the_file(tmp_path):
    # each coefficient is finite, their sum is not
    code, err = run_case(tmp_path, "pauli", b"nbits 2\n1e308 Z0\n1e308 Z1\n")
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {tmp_path / 'h.txt'}: energies overflow")
    assert err.count("\n") == 1


class TestContentLines:
    def test_comments_blanks_and_line_ends(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"# head\r\n  a = 1  # note\r\rb\n\n\tc\x0bd\n\xc3\xa9")
        assert content_lines(path) == [
            (2, "a = 1"), (4, "b"), (6, "c\x0bd"), (7, "é")]

    def test_not_utf8_gives_the_byte_offset(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n\xe2\x82")     # a cut-off three-byte character
        with pytest.raises(ConfigError,
                           match=r"f\.txt: not UTF-8 text \(byte 3\)$"):
            content_lines(path)

    def test_nul_in_the_name(self):
        with pytest.raises(ConfigError, match="null byte"):
            content_lines("a\x00b")


class TestLocator:
    def test_prefixes(self):
        assert str(Locator("f.txt", 3).error("bad")) == "f.txt:3: bad"
        assert str(Locator("f.txt").error("bad")) == "f.txt: bad"
        at = Locator()
        at.token = (2, "H0:pi")
        assert str(at.error("bad")) == "token 2 ('H0:pi'): bad"

    def test_block_locates_value_errors_only(self):
        with pytest.raises(ConfigError, match=r"^f\.txt:4: invalid literal"):
            with Locator("f.txt") as at:
                at.line = 4
                int("x")
        with pytest.raises(KeyError):
            with Locator("f.txt"):
                {}["x"]
