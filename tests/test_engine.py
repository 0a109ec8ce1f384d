"""Engine tests: Karva decoding, gene structure, operators, selection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gepcirc.arith import make_arith_pset
from gepcirc.engine import (
    ConfigError,
    EvolutionConfig,
    ExpressionTree,
    Gene,
    PrimitiveSet,
    TreeNode,
    coding_length,
    decode,
    evolve_generation,
    format_gene,
    invert_head,
    karva_decode,
    make_gene,
    mutate,
    one_point_recombine,
    random_gene,
    run_evolution,
    swap_symbols,
    two_point_recombine,
)

ARITH = make_arith_pset("abcd")
_IDS = {name: sym for sym, name in ARITH.names.items()}


def seq(text: str) -> list[int]:
    return [_IDS[c] for c in text]


def names(symbols) -> str:
    return "".join(ARITH.names[s] for s in symbols)


class TestKarvaDecode:
    def test_golden_sqrt_tree(self):
        # Q + * - a b c d reads breadth-first into sqrt(a*b + (c - d))
        tree = karva_decode(seq("Q+*-abcd"), ARITH)
        assert tree.coding_length == 8
        assert names(node.symbol for node in tree.nodes) == "Q+*-abcd"
        root = tree.nodes[0]
        assert ARITH.names[root.symbol] == "Q"
        plus = tree.nodes[root.children[0]]
        assert ARITH.names[plus.symbol] == "+"
        mul, sub = (tree.nodes[i] for i in plus.children)
        assert ARITH.names[mul.symbol] == "*"
        assert ARITH.names[sub.symbol] == "-"
        leaves = [mul.children, sub.children]
        assert [names(tree.nodes[i].symbol for i in ch) for ch in leaves] \
            == ["ab", "cd"]

    def test_noncoding_suffix_ignored(self):
        tree = karva_decode(seq("+b*aQa-ababbabbbabab"), ARITH)
        assert tree.coding_length == 6
        assert names(node.symbol for node in tree.nodes) == "+b*aQa"

    def test_single_terminal(self):
        tree = karva_decode(seq("a"), ARITH)
        assert tree.coding_length == 1
        assert tree.nodes[0].children == ()

    def test_exhausted_sequence_rejected(self):
        with pytest.raises(ConfigError):
            karva_decode(seq("+a"), ARITH)
        with pytest.raises(ConfigError):
            karva_decode([], ARITH)

    def test_decode_is_karva_decode_of_the_symbols(self):
        gene = make_gene(seq("Q+*-abcd" + "abcdabc"), 7, ARITH)
        assert decode(gene).coding_length == 8
        assert karva_decode(gene.symbols, ARITH) == decode(gene)
        assert karva_decode(gene.symbols, ARITH).coding_length == 8
        with pytest.raises(ConfigError):
            karva_decode(gene.symbols[:7], ARITH)   # one child short


@st.composite
def genes(draw):
    """A random gene over 0-4 functions of arity 1-3 and 1-3 terminals."""
    arities = draw(st.lists(st.integers(1, 3), max_size=4))
    n_terms = draw(st.integers(1, 3))
    pset = PrimitiveSet(list(enumerate(arities)),
                        range(len(arities), len(arities) + n_terms))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_gene(pset, draw(st.integers(1, 12)), rng)


def frontier_decode(symbols, pset):
    """The level-by-level Karva decoder that ``karva_decode`` replaced, kept
    as an independent reference."""
    if not symbols:
        raise ConfigError("cannot decode an empty symbol sequence")
    arities: list[int] = []
    node_syms: list[int] = [symbols[0]]
    arities.append(pset.arity(symbols[0]))
    pos = 1
    # children[i] collects the child indices of node i
    children: list[list[int]] = [[]]
    frontier = [0]
    while frontier:
        next_frontier: list[int] = []
        for idx in frontier:
            for _ in range(arities[idx]):
                if pos >= len(symbols):
                    raise ConfigError("symbol sequence exhausted during decode")
                sym = symbols[pos]
                child = len(node_syms)
                node_syms.append(sym)
                arities.append(pset.arity(sym))
                children.append([])
                children[idx].append(child)
                next_frontier.append(child)
                pos += 1
        frontier = next_frontier
    nodes = tuple(
        TreeNode(s, tuple(ch)) for s, ch in zip(node_syms, children)
    )
    return ExpressionTree(nodes, pos)


# arithmetic (arities 1 and 2), arities 1, 2 and 3, and terminals only
DECODE_SETS = (ARITH, PrimitiveSet([(0, 1), (1, 2), (2, 3)], [3, 4]),
               PrimitiveSet([], [0, 1]))


def decoded(decoder, symbols, pset):
    """The tree ``decoder`` builds, or the text of its ConfigError."""
    try:
        return decoder(symbols, pset)
    except ConfigError as exc:
        return str(exc)


class TestPositionalDecode:
    @settings(deadline=None, max_examples=500)
    @given(data=st.data())
    def test_matches_frontier_decoder(self, data):
        pset = data.draw(st.sampled_from(DECODE_SETS))
        symbols = data.draw(st.lists(st.sampled_from(pset.all_symbols),
                                     max_size=30))
        assert (decoded(karva_decode, symbols, pset)
                == decoded(frontier_decode, symbols, pset))


class TestCodingLength:
    @settings(deadline=None, max_examples=300)
    @given(gene=genes())
    def test_matches_decode(self, gene):
        assert coding_length(gene) == decode(gene).coding_length

    def test_golden(self):
        gene = make_gene(seq("+b*aQa-abababab"), 7, ARITH)
        assert coding_length(gene) == 6


class TestGeneStructure:
    def test_tail_length_formula(self):
        # t = h*(max_arity - 1) + 1: arity 2 gives h + 1, arity 1 gives 1
        assert ARITH.tail_len(7) == 8
        unary = PrimitiveSet([(0, 1), (1, 1)], [2])
        assert unary.tail_len(8) == 1
        assert len(random_gene(ARITH, 7, random.Random(0)).symbols) == 15
        assert len(random_gene(unary, 8, random.Random(0)).symbols) == 9

    def test_terminal_only_set(self):
        terms = PrimitiveSet([], [0, 1])
        assert terms.max_arity == 1
        gene = random_gene(terms, 3, random.Random(5))
        assert decode(gene).coding_length == 1

    def test_function_in_tail_rejected(self):
        bad = seq("Q+*-abcd") + seq("abcdab") + [_IDS["+"]]
        with pytest.raises(ConfigError):
            make_gene(bad, 7, ARITH)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError):
            make_gene(seq("Qab"), 2, ARITH)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ConfigError):
            make_gene([99] + seq("abcdabc") * 2, 7, ARITH)

    def test_pset_validation(self):
        with pytest.raises(ConfigError):
            PrimitiveSet([(0, 2)], [])          # no terminals
        with pytest.raises(ConfigError):
            PrimitiveSet([(0, 2)], [0])         # id collision
        with pytest.raises(ConfigError):
            PrimitiveSet([(0, 0)], [1])         # bad arity

    def test_format_gene(self):
        gene = make_gene(seq("Q+*-abcd" + "abcdabc"), 7, ARITH)
        assert format_gene(gene) == "Q+*-abcdabcdabc"


class TestOperators:
    def test_mutate_rate_zero_is_identity(self):
        gene = random_gene(ARITH, 7, random.Random(1))
        assert mutate(gene, 0.0, random.Random(2)).symbols == gene.symbols

    def test_mutate_rate_one_keeps_tail_terminal(self):
        rng = random.Random(3)
        for _ in range(50):
            gene = random_gene(ARITH, 7, rng)
            child = mutate(gene, 1.0, rng)
            assert all(ARITH.is_terminal(s) for s in child.symbols[7:])

    def test_one_point_positionwise_from_parents(self):
        rng = random.Random(4)
        for _ in range(100):
            a = random_gene(ARITH, 7, rng)
            b = random_gene(ARITH, 7, rng)
            c1, c2 = one_point_recombine(a, b, rng)
            for i in range(15):
                assert {c1.symbols[i], c2.symbols[i]} \
                    == {a.symbols[i], b.symbols[i]}
            # a single cut: c1 is a prefix of a glued to a suffix of b
            assert any(
                c1.symbols == a.symbols[:k] + b.symbols[k:]
                and c2.symbols == b.symbols[:k] + a.symbols[k:]
                for k in range(16)
            )

    def test_one_point_single_crossover_segment(self):
        a = make_gene(seq("aaaaaaa" + "aaaaaaaa"), 7, ARITH)
        b = make_gene(seq("bbbbbbb" + "bbbbbbbb"), 7, ARITH)
        rng = random.Random(5)
        for _ in range(50):
            c1, _ = one_point_recombine(a, b, rng)
            text = names(c1.symbols)
            assert text == "a" * text.count("a") + "b" * text.count("b")

    def test_two_point_middle_segment(self):
        a = make_gene(seq("aaaaaaa" + "aaaaaaaa"), 7, ARITH)
        b = make_gene(seq("bbbbbbb" + "bbbbbbbb"), 7, ARITH)
        rng = random.Random(6)
        for _ in range(50):
            c1, c2 = two_point_recombine(a, b, rng)
            text = names(c1.symbols)
            # exactly the segment between the two cuts came from b
            runs = [r for r in text.replace("a", " ").split() if r]
            assert len(runs) <= 1
            assert names(c2.symbols).count("a") == text.count("b")
            assert any(
                c1.symbols == a.symbols[:lo] + b.symbols[lo:hi] + a.symbols[hi:]
                for lo in range(16) for hi in range(lo, 16)
            )

    def test_shape_mismatch_rejected(self):
        a = random_gene(ARITH, 7, random.Random(0))
        b = random_gene(ARITH, 5, random.Random(0))
        with pytest.raises(ConfigError):
            one_point_recombine(a, b, random.Random(0))

    def test_invert_head(self):
        gene = make_gene(seq("Q+*-abc" + "dabcdabc"), 7, ARITH)
        flipped = invert_head(gene)
        assert names(flipped.symbols) == "cba-*+Q" + "dabcdabc"
        assert invert_head(flipped).symbols == gene.symbols

    def test_swap_preserves_multiset_and_validity(self):
        rng = random.Random(7)
        for _ in range(300):
            gene = random_gene(ARITH, 7, rng)
            child = swap_symbols(gene, rng)
            assert sorted(child.symbols) == sorted(gene.symbols)
            assert all(ARITH.is_terminal(s) for s in child.symbols[7:])
            decode(child)

    def test_closure_under_operator_chains(self):
        # any operator output must stay a valid, decodable gene
        rng = random.Random(8)
        pool = [random_gene(ARITH, 6, rng) for _ in range(10)]
        for _ in range(500):
            a = rng.choice(pool)
            b = rng.choice(pool)
            a, b = one_point_recombine(a, b, rng)
            a, _ = two_point_recombine(a, b, rng)
            a = mutate(a, 0.2, rng)
            a = invert_head(a)
            a = swap_symbols(a, rng)
            revalidated = make_gene(a.symbols, a.head_len, ARITH)
            decode(revalidated)
            pool[rng.randrange(len(pool))] = a


class TestEvolution:
    def fitness_coding(self, gene: Gene) -> float:
        return float(decode(gene).coding_length)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(generations=0, head_len=3)
        with pytest.raises(ConfigError):
            EvolutionConfig(generations=1, head_len=3, population_size=1)
        with pytest.raises(ConfigError):
            EvolutionConfig(generations=1, head_len=3, mutation_rate=1.5)

    def test_run_without_generations_rejected(self):
        # a config edited after validation; the check is no assert, so it
        # also holds under python -O
        cfg = EvolutionConfig(generations=1, head_len=3)
        cfg.generations = 0
        with pytest.raises(ConfigError, match="generations must be >= 1"):
            run_evolution(cfg, ARITH, self.fitness_coding)

    def test_best_fitness_monotone(self):
        cfg = EvolutionConfig(generations=15, head_len=7, population_size=20,
                              seed=11)
        result = run_evolution(cfg, ARITH, self.fitness_coding)
        best = [s.best_fitness for s in result.stats]
        assert best == sorted(best)
        assert all(s.best_fitness >= s.worst_fitness for s in result.stats)

    def test_early_stop(self):
        cfg = EvolutionConfig(generations=200, head_len=7, population_size=20,
                              seed=1, early_stop_fitness=10.0)
        result = run_evolution(cfg, ARITH, self.fitness_coding)
        assert result.early_stopped
        assert result.best_fitness >= 10.0
        assert len(result.stats) < 200

    def test_deterministic_for_fixed_seed(self):
        cfg = EvolutionConfig(generations=8, head_len=5, population_size=12,
                              seed=42)
        r1 = run_evolution(cfg, ARITH, self.fitness_coding)
        r2 = run_evolution(cfg, ARITH, self.fitness_coding)
        assert [g.symbols for g in r1.population] \
            == [g.symbols for g in r2.population]
        assert r1.fitnesses == r2.fitnesses

    def test_seed_changes_trajectory(self):
        base = dict(generations=8, head_len=5, population_size=12)
        r1 = run_evolution(EvolutionConfig(seed=0, **base), ARITH,
                           self.fitness_coding)
        r2 = run_evolution(EvolutionConfig(seed=1, **base), ARITH,
                           self.fitness_coding)
        assert [g.symbols for g in r1.population] \
            != [g.symbols for g in r2.population]

    def test_tie_break_prefers_short_coding(self):
        cfg = EvolutionConfig(generations=3, head_len=7, population_size=10,
                              seed=2)
        result = run_evolution(cfg, ARITH, lambda g: 0.0)
        codings = [decode(g).coding_length for g in result.population]
        assert codings == sorted(codings)

    def test_survivor_scores_reused(self):
        calls = []

        def counting(gene: Gene) -> float:
            calls.append(gene.symbols)
            return float(decode(gene).coding_length)

        cfg = EvolutionConfig(generations=4, head_len=5, population_size=10,
                              seed=3)
        run_evolution(cfg, ARITH, counting)
        # gen 0 evaluates 2M (pool), later gens only the M offspring
        assert len(calls) == 2 * 10 + 3 * 10

    def test_survivors_canonicalized_once(self):
        # idempotent hook: keep the coding region, reset the rest
        def normalize(gene: Gene) -> Gene:
            n = decode(gene).coding_length
            pad = [ARITH.terminals[0]] * (len(gene.symbols) - n)
            return make_gene(gene.symbols[:n] + tuple(pad), gene.head_len,
                             gene.pset)

        calls = []

        def counting(gene: Gene) -> Gene:
            calls.append(gene.symbols)
            return normalize(gene)

        m, gens = 10, 5
        cfg = EvolutionConfig(generations=gens, head_len=6, population_size=m,
                              seed=4)
        result = run_evolution(cfg, ARITH, self.fitness_coding,
                               canonicalize=counting)
        # gen 0 rewrites the 2M pool, later gens only the M offspring
        assert len(calls) == 2 * m + (gens - 1) * m

        # reference: every generation rewrites (and scores) the whole pool
        rng = random.Random(cfg.seed)
        pop = [random_gene(ARITH, cfg.head_len, rng) for _ in range(m)]
        stats = []
        for gen in range(gens):
            pop, scores, st = evolve_generation(
                pop, cfg, self.fitness_coding, rng, generation=gen,
                canonicalize=normalize)
            stats.append(st)
        assert [g.symbols for g in result.population] \
            == [g.symbols for g in pop]
        assert result.fitnesses == scores
        assert result.stats == stats

    def test_fitness_error_carries_gene(self):
        def broken(gene: Gene) -> float:
            raise ValueError("boom")

        cfg = EvolutionConfig(generations=1, head_len=3, population_size=4,
                              seed=0)
        from gepcirc.engine import FitnessEvaluationError
        with pytest.raises(FitnessEvaluationError) as exc:
            run_evolution(cfg, ARITH, broken)
        assert exc.value.gene is not None

    def test_memory_error_not_wrapped(self):
        def exhausted(gene: Gene) -> float:
            raise MemoryError()

        cfg = EvolutionConfig(generations=1, head_len=3, population_size=4,
                              seed=0)
        with pytest.raises(MemoryError):
            run_evolution(cfg, ARITH, exhausted)
