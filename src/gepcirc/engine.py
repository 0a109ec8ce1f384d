"""Gene expression programming engine.

Genomes are fixed-length symbol strings split into a head (any symbol) and a
tail (terminals only). The tail is sized t = h*(n_max - 1) + 1, which
guarantees that breadth-first (Karva) decoding never runs past the end of the
gene, so every genome and every operator output is syntactically valid. The
engine is fitness-agnostic: it evolves genes for any primitive set and any
fitness callable.

Every input also enters here: ``content_lines`` reads each input file,
and a ``Locator`` names the file line or circuit token an error arose at.
"""

from __future__ import annotations

import io
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ConfigError",
    "content_lines",
    "Locator",
    "FitnessEvaluationError",
    "PrimitiveSet",
    "Gene",
    "TreeNode",
    "ExpressionTree",
    "EvolutionConfig",
    "GenerationStats",
    "EvolutionResult",
    "make_gene",
    "random_gene",
    "decode",
    "coding_length",
    "karva_decode",
    "mutate",
    "one_point_recombine",
    "two_point_recombine",
    "invert_head",
    "swap_symbols",
    "evolve_generation",
    "run_evolution",
    "format_gene",
]


class ConfigError(ValueError):
    """Invalid primitive set, gene shape, or evolution configuration."""


def content_lines(path: str | Path) -> list[tuple[int, str]]:
    """(line number, text) of each line of the UTF-8 file at ``path`` that
    holds more than a `#` comment, cut at the `#` and stripped.

    A leading byte-order mark is dropped after decoding, so a bad byte's
    offset still counts from the start of the file."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except ValueError as exc:     # a NUL in the name
        raise ConfigError(f"{path!r}: {exc}") from None
    lines = []
    # newline=None ends lines at \\n, \\r\\n or \\r, as text mode does
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    return lines


class Locator:
    """Where a reader is in its input, for error messages.

    A file reader runs its loop in ``with Locator(path) as at:`` and stores
    each line number in ``at.line``; a circuit-string reader runs it in
    ``with Locator() as at:`` and stores (index, token) in ``at.token``.
    A ValueError (ConfigError included) raised inside leaves as the
    ConfigError ``error`` makes of it, so checks raise bare messages and
    no prefix is formatted unless one fails.
    """

    def __init__(self, path: str | Path | None = None, line: int = 0):
        self.path, self.line = path, line       # line 0: the whole file
        self.token: tuple[int, str] = (0, "")

    def error(self, message: object) -> ConfigError:
        """``message`` after ``file:N:``, ``file:`` at line 0, or
        ``token K ('text'):`` without a file."""
        if self.path is None:
            where = "token {} ({!r})".format(*self.token)
        else:
            where = f"{self.path}:{self.line}" if self.line else str(self.path)
        return ConfigError(f"{where}: {message}")

    def __enter__(self) -> "Locator":
        return self

    def __exit__(self, kind: type | None, exc: BaseException | None,
                 tb: object) -> None:
        if isinstance(exc, ValueError):
            raise self.error(exc) from None


class FitnessEvaluationError(RuntimeError):
    """The fitness callable raised; the offending genome is attached."""

    def __init__(self, gene: "Gene", message: str):
        super().__init__(message)
        self.gene = gene


class PrimitiveSet:
    """Symbols a gene may contain: functions (arity >= 1) and terminals.

    Symbols are small integer ids; ``names`` maps each id to its display
    string. With an empty function list the maximum arity is taken to be 1
    so the tail-length formula still applies (and gives t = 1).
    """

    def __init__(
        self,
        functions: Iterable[tuple[int, int]],
        terminals: Iterable[int],
        names: dict[int, str] | None = None,
    ):
        self.functions = tuple((int(s), int(a)) for s, a in functions)
        self.terminals = tuple(int(s) for s in terminals)
        if not self.terminals:
            raise ConfigError("primitive set needs at least one terminal")
        self._arity = {s: a for s, a in self.functions}
        if len(self._arity) != len(self.functions):
            raise ConfigError("duplicate function symbol ids")
        for a in self._arity.values():
            if a < 1:
                raise ConfigError("function arity must be >= 1")
        overlap = set(self._arity) & set(self.terminals)
        if overlap or len(set(self.terminals)) != len(self.terminals):
            raise ConfigError(f"symbol ids not unique (overlap: {sorted(overlap)})")
        self.all_symbols = tuple(s for s, _ in self.functions) + self.terminals
        self.max_arity = max(self._arity.values(), default=1)
        if names is None:
            names = {s: f"f{s}" for s, _ in self.functions}
            names.update({s: f"t{s}" for s in self.terminals})
        self.names = dict(names)

    def arity(self, symbol: int) -> int:
        """Arity of a symbol; terminals have arity 0."""
        return self._arity.get(symbol, 0)

    def is_terminal(self, symbol: int) -> bool:
        return symbol not in self._arity

    def tail_len(self, head_len: int) -> int:
        return head_len * (self.max_arity - 1) + 1

    def __repr__(self) -> str:
        return (
            f"PrimitiveSet({len(self.functions)} functions, "
            f"{len(self.terminals)} terminals, max_arity={self.max_arity})"
        )


@dataclass(frozen=True)
class Gene:
    """Fixed-length genome over a primitive set.

    The first ``head_len`` symbols may be anything; the remaining tail holds
    terminals only. Construct through :func:`make_gene` or :func:`random_gene`
    so the shape invariants are checked.
    """

    symbols: tuple[int, ...]
    head_len: int
    pset: PrimitiveSet


def make_gene(symbols: Sequence[int], head_len: int, pset: PrimitiveSet) -> Gene:
    """Build a gene, validating the head/tail structure."""
    symbols = tuple(symbols)
    if head_len < 1:
        raise ConfigError("head_len must be >= 1")
    expected = head_len + pset.tail_len(head_len)
    if len(symbols) != expected:
        raise ConfigError(
            f"gene length {len(symbols)} != head {head_len} + tail "
            f"{pset.tail_len(head_len)}"
        )
    known = set(pset.all_symbols)
    for pos, s in enumerate(symbols):
        if s not in known:
            raise ConfigError(f"unknown symbol id {s} at position {pos}")
        if pos >= head_len and not pset.is_terminal(s):
            raise ConfigError(f"function symbol {s} in tail position {pos}")
    return Gene(symbols, head_len, pset)


def random_gene(pset: PrimitiveSet, head_len: int, rng: random.Random) -> Gene:
    """Uniform random gene: head over all symbols, tail over terminals."""
    head = [rng.choice(pset.all_symbols) for _ in range(head_len)]
    tail = [rng.choice(pset.terminals) for _ in range(pset.tail_len(head_len))]
    return make_gene(head + tail, head_len, pset)


@dataclass(frozen=True)
class TreeNode:
    symbol: int
    children: tuple[int, ...]


@dataclass(frozen=True)
class ExpressionTree:
    """Decoded phenotype: node arena in breadth-first order, root at index 0.

    ``coding_length`` is the number of gene symbols consumed by decoding;
    symbols past it are non-coding and never affect the tree.
    """

    nodes: tuple[TreeNode, ...]
    coding_length: int

    @property
    def root(self) -> int:
        return 0


def karva_decode(symbols: Sequence[int], pset: PrimitiveSet) -> ExpressionTree:
    """Breadth-first decode of a symbol sequence into an expression tree.

    Node i is symbol i, and its children are the ``arity`` positions from
    ``end``, the first position no earlier node has claimed. Raises
    ConfigError if the sequence ends before every child is filled (cannot
    happen for a valid gene).
    """
    if not symbols:
        raise ConfigError("cannot decode an empty symbol sequence")
    nodes: list[TreeNode] = []
    end = 1
    while len(nodes) < end:
        sym = symbols[len(nodes)]
        arity = pset.arity(sym)
        if end + arity > len(symbols):
            raise ConfigError("symbol sequence exhausted during decode")
        nodes.append(TreeNode(sym, tuple(range(end, end + arity))))
        end += arity
    return ExpressionTree(tuple(nodes), end)


def decode(gene: Gene | Sequence[int], pset: PrimitiveSet | None = None) -> ExpressionTree:
    """Decode a gene (or a raw symbol sequence plus primitive set)."""
    if isinstance(gene, Gene):
        return karva_decode(gene.symbols, gene.pset)
    if pset is None:
        raise ConfigError("decoding a raw sequence requires a primitive set")
    return karva_decode(gene, pset)


def coding_length(gene: Gene) -> int:
    """Symbols the decode consumes, without building the tree.

    Each symbol fills one open argument slot and opens ``arity`` more, so
    the coding region ends where no slot is left open.
    """
    need = 1
    for pos, sym in enumerate(gene.symbols):
        need += gene.pset.arity(sym) - 1
        if need == 0:
            return pos + 1
    raise ConfigError("symbol sequence exhausted during decode")


def format_gene(gene: Gene) -> str:
    """Display form of a gene; contiguous if all symbol names are one char."""
    names = [gene.pset.names[s] for s in gene.symbols]
    if all(len(n) == 1 for n in names):
        return "".join(names)
    return " ".join(names)


# ---------------------------------------------------------------------------
# Genetic operators. All preserve gene length, head length and the
# terminals-only tail, so closure holds by construction.
# ---------------------------------------------------------------------------

def mutate(gene: Gene, rate: float, rng: random.Random) -> Gene:
    """Point mutation: each position independently resampled with prob ``rate``.

    Head positions may become any symbol; tail positions stay terminals.
    """
    if rate <= 0.0:
        return gene
    pset = gene.pset
    symbols = list(gene.symbols)
    for pos in range(len(symbols)):
        if rng.random() < rate:
            pool = pset.all_symbols if pos < gene.head_len else pset.terminals
            symbols[pos] = rng.choice(pool)
    return Gene(tuple(symbols), gene.head_len, pset)


def _check_same_shape(a: Gene, b: Gene) -> None:
    if len(a.symbols) != len(b.symbols) or a.head_len != b.head_len:
        raise ConfigError("recombination requires genes of identical shape")


def one_point_recombine(a: Gene, b: Gene, rng: random.Random) -> tuple[Gene, Gene]:
    """Swap the suffixes of two genes after a uniformly chosen split point."""
    _check_same_shape(a, b)
    cut = rng.randint(0, len(a.symbols))
    ca = a.symbols[:cut] + b.symbols[cut:]
    cb = b.symbols[:cut] + a.symbols[cut:]
    return Gene(ca, a.head_len, a.pset), Gene(cb, b.head_len, b.pset)


def two_point_recombine(a: Gene, b: Gene, rng: random.Random) -> tuple[Gene, Gene]:
    """Exchange the segment between two sorted random cut points."""
    _check_same_shape(a, b)
    n = len(a.symbols)
    lo, hi = sorted((rng.randint(0, n), rng.randint(0, n)))
    ca = a.symbols[:lo] + b.symbols[lo:hi] + a.symbols[hi:]
    cb = b.symbols[:lo] + a.symbols[lo:hi] + b.symbols[hi:]
    return Gene(ca, a.head_len, a.pset), Gene(cb, b.head_len, b.pset)


def invert_head(gene: Gene) -> Gene:
    """Reverse the whole head in place; the tail is untouched."""
    h = gene.head_len
    symbols = gene.symbols[:h][::-1] + gene.symbols[h:]
    return Gene(symbols, h, gene.pset)


def swap_symbols(gene: Gene, rng: random.Random) -> Gene:
    """Exchange two positions without breaking the head/tail structure.

    Same-region swaps are always allowed; a head/tail swap is allowed only
    when the head symbol is itself a terminal (otherwise a function would
    land in the tail).
    """
    pset = gene.pset
    h = gene.head_len
    n = len(gene.symbols)
    i = rng.randrange(n)
    sym_i = gene.symbols[i]
    if i < h and not pset.is_terminal(sym_i):
        candidates = range(h)
    elif i < h:
        candidates = range(n)
    else:
        candidates = [j for j in range(h) if pset.is_terminal(gene.symbols[j])]
        candidates += list(range(h, n))
    j = candidates[rng.randrange(len(candidates))]
    if i == j:
        return gene
    symbols = list(gene.symbols)
    symbols[i], symbols[j] = symbols[j], symbols[i]
    return Gene(tuple(symbols), h, pset)


# ---------------------------------------------------------------------------
# Generational loop
# ---------------------------------------------------------------------------

@dataclass
class EvolutionConfig:
    """Run parameters for the generational loop.

    Rates follow common GEP practice and are all overridable: per-symbol
    mutation plus per-offspring-pair probabilities for the two recombination
    flavours and per-child probabilities for inversion and swap.
    """

    generations: int
    head_len: int
    population_size: int = 100
    seed: int = 0
    early_stop_fitness: float | None = None
    mutation_rate: float = 0.05
    one_point_prob: float = 0.4
    two_point_prob: float = 0.2
    inversion_prob: float = 0.1
    swap_prob: float = 0.1

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigError("population_size must be >= 2")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        if self.head_len < 1:
            raise ConfigError("head_len must be >= 1")
        for name in ("mutation_rate", "one_point_prob", "two_point_prob",
                     "inversion_prob", "swap_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}={v} outside [0, 1]")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    worst_fitness: float


@dataclass
class EvolutionResult:
    population: list[Gene]          # sorted best-first
    fitnesses: list[float]
    stats: list[GenerationStats]
    early_stopped: bool

    @property
    def best_gene(self) -> Gene:
        return self.population[0]

    @property
    def best_fitness(self) -> float:
        return self.fitnesses[0]


def _evaluate(genes: Sequence[Gene], fitness: Callable[[Gene], float]
              ) -> list[float]:
    """Fitness of each gene, in order; failures name the genome."""
    scores = []
    for gene in genes:
        try:
            scores.append(fitness(gene))
        except MemoryError:     # the machine's limit, not the genome's fault
            raise
        except Exception as exc:  # re-raise with the genome attached
            raise FitnessEvaluationError(
                gene, f"fitness failed on genome {format_gene(gene)!r}: {exc}"
            ) from exc
    return scores


def _make_offspring(survivors: Sequence[Gene], cfg: EvolutionConfig,
                    rng: random.Random) -> list[Gene]:
    """M new genes from uniformly paired survivors.

    Operators are applied in succession: one-point recombination, two-point
    recombination, then per-child mutation, head inversion and swap, each
    gated by its configured probability.
    """
    m = len(survivors)
    out: list[Gene] = []
    while len(out) < m:
        p1 = survivors[rng.randrange(m)]
        p2 = survivors[rng.randrange(m)]
        c1, c2 = p1, p2
        if rng.random() < cfg.one_point_prob:
            c1, c2 = one_point_recombine(c1, c2, rng)
        if rng.random() < cfg.two_point_prob:
            c1, c2 = two_point_recombine(c1, c2, rng)
        for child in (c1, c2):
            child = mutate(child, cfg.mutation_rate, rng)
            if rng.random() < cfg.inversion_prob:
                child = invert_head(child)
            if rng.random() < cfg.swap_prob:
                child = swap_symbols(child, rng)
            out.append(child)
    return out[:m]


def evolve_generation(
    pop: Sequence[Gene],
    cfg: EvolutionConfig,
    fitness: Callable[[Gene], float],
    rng: random.Random,
    *,
    generation: int = 0,
    scores: Sequence[float] | None = None,
    canonicalize: Callable[[Gene], Gene] | None = None,
) -> tuple[list[Gene], list[float], GenerationStats]:
    """One elitist generation step.

    The selection pool is the M survivors plus M offspring (2M candidates);
    the optional canonicalize hook rewrites pool genes before evaluation.
    The pool is sorted by fitness (ties broken by shorter coding region,
    then by pool order) and truncated back to M. Because survivors re-enter
    the pool, the best retained fitness never decreases.

    ``scores`` may carry the already-known fitness of ``pop`` to avoid
    re-evaluating survivors; fitness must be pure for this to be sound.
    Survivors with scores already went through the hook, so only the
    offspring are rewritten; the hook must be idempotent for this to be
    sound.
    """
    m = cfg.population_size
    if len(pop) != m:
        raise ConfigError(f"population size {len(pop)} != configured {m}")
    pool = list(pop) + _make_offspring(pop, cfg, rng)
    if canonicalize is not None:
        start = 0 if scores is None else m
        pool[start:] = [canonicalize(g) for g in pool[start:]]
    if scores is None:
        pool_scores = _evaluate(pool, fitness)
    else:
        pool_scores = list(scores) + _evaluate(pool[m:], fitness)
    coding = [coding_length(g) for g in pool]
    order = sorted(range(len(pool)),
                   key=lambda i: (-pool_scores[i], coding[i]))
    keep = order[:m]
    new_pop = [pool[i] for i in keep]
    new_scores = [pool_scores[i] for i in keep]
    stats = GenerationStats(generation, new_scores[0], new_scores[-1])
    return new_pop, new_scores, stats


def run_evolution(
    cfg: EvolutionConfig,
    pset: PrimitiveSet,
    fitness: Callable[[Gene], float],
    *,
    canonicalize: Callable[[Gene], Gene] | None = None,
) -> EvolutionResult:
    """Run the full loop: random initial population, then ``cfg.generations``
    elitist steps, stopping early once best fitness reaches
    ``cfg.early_stop_fitness`` (when set). Deterministic for a fixed config
    as long as the fitness callable is pure."""
    rng = random.Random(cfg.seed)
    pop = [random_gene(pset, cfg.head_len, rng) for _ in range(cfg.population_size)]
    scores: list[float] | None = None
    stats_trace: list[GenerationStats] = []
    early = False
    for gen in range(cfg.generations):
        pop, scores, stats = evolve_generation(
            pop, cfg, fitness, rng,
            generation=gen, scores=scores, canonicalize=canonicalize,
        )
        stats_trace.append(stats)
        if cfg.early_stop_fitness is not None and stats.best_fitness >= cfg.early_stop_fitness:
            early = True
            break
    if scores is None:
        raise ConfigError("generations must be >= 1")
    return EvolutionResult(pop, scores, stats_trace, early)
