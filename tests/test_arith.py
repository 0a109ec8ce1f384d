"""Arithmetic primitive set and regression fitness tests."""

import math
import random

import pytest

from gepcirc.arith import (
    ArithProblem,
    eval_tree,
    make_arith_pset,
    regression_fitness,
)
from gepcirc.engine import (
    ConfigError,
    EvolutionConfig,
    karva_decode,
    make_gene,
    run_evolution,
)

PSET = make_arith_pset("abcd")
_IDS = {name: sym for sym, name in PSET.names.items()}


def seq(text):
    return [_IDS[c] for c in text]


def gene_from(text):
    # pad the coding text into a full h=9 gene
    head = text + "a" * (9 - len(text))
    return make_gene(seq(head + "a" * 10), 9, PSET)


GOLDEN = karva_decode(seq("Q+*-abcd"), PSET)


class TestEvalTree:
    def test_golden_values(self):
        assert eval_tree(GOLDEN, (1, 1, 0, 0)) == 1.0
        assert eval_tree(GOLDEN, (4, 1, 2, 2)) == 2.0

    def test_leaf(self):
        assert eval_tree(karva_decode(seq("a"), PSET), (7, 0, 0, 0)) == 7.0

    def test_matches_direct_arithmetic(self):
        rng = random.Random(9)
        for _ in range(200):
            a, b = rng.uniform(0, 5), rng.uniform(0, 5)
            c, d = rng.uniform(0, 5), rng.uniform(0, 5)
            if a * b + (c - d) < 0:
                continue
            assert eval_tree(GOLDEN, (a, b, c, d)) \
                == math.sqrt(a * b + (c - d))

    def test_sqrt_of_negative_is_nan(self):
        assert math.isnan(eval_tree(karva_decode(seq("Q-abab"), PSET),
                                    (1, 2, 0, 0)))


class TestRegressionFitness:
    def problem(self):
        samples = [((float(a), float(b), float(c), float(d)),
                    math.sqrt(a * b + (c - d)))
                   for a, b, c, d in [(1, 1, 0, 0), (4, 1, 2, 2), (2, 2, 1, 1),
                                      (3, 3, 0, 0), (5, 5, 2, 2)]]
        return ArithProblem(("a", "b", "c", "d"), samples)

    def test_exact_tree_scores_maximum(self):
        prob = self.problem()
        assert regression_fitness(gene_from("Q+*-abcd"), prob) \
            == prob.max_fitness == 500.0

    def test_off_by_constant(self):
        # f(x) = a on targets a + 1 loses exactly 1 per sample
        prob = ArithProblem(("a", "b", "c", "d"),
                            [((x, 0.0, 0.0, 0.0), x + 1.0)
                             for x in (1.0, 2.0, 3.0)])
        assert regression_fitness(gene_from("a"), prob) == 3 * 99.0

    def test_nan_scores_zero(self):
        prob = ArithProblem(("a", "b", "c", "d"), [((1.0, 2.0, 0.0, 0.0), 0.0)])
        # Q(a - b) with a < b is NaN
        assert regression_fitness(gene_from("Q-ab"), prob) == 0.0

    def test_bounds(self):
        prob = self.problem()
        rng = random.Random(10)
        from gepcirc.engine import random_gene
        for _ in range(100):
            f = regression_fitness(random_gene(PSET, 9, rng), prob)
            assert 0.0 <= f <= prob.max_fitness

    def test_problem_validation(self):
        with pytest.raises(ConfigError):
            ArithProblem(("a",), [])
        with pytest.raises(ConfigError):
            ArithProblem(("a", "b"), [((1.0,), 1.0)])

    def test_engine_recovers_target_function(self):
        # spec smoke test: samples of sqrt(a*b + (c - d)) are learnable
        prob = self.problem()
        cfg = EvolutionConfig(generations=200, head_len=9, population_size=100,
                              seed=0, early_stop_fitness=prob.max_fitness)
        result = run_evolution(cfg, PSET,
                               lambda g: regression_fitness(g, prob))
        assert result.best_fitness == prob.max_fitness
