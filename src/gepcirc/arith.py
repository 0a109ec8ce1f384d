"""Arithmetic primitive set and regression fitness for engine self-tests.

Four functions (square root, +, -, *) over named real variables. Fitness is
the classic hits-style score: each training sample contributes
max(0, scale - |prediction - target|), so it is bounded above by
scale * n_samples and maximal exactly when every sample is reproduced.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from gepcirc.engine import ConfigError, ExpressionTree, Gene, PrimitiveSet, decode

SQRT = 0
ADD = 1
SUB = 2
MUL = 3
_FIRST_TERMINAL = 4

_FUNCTION_NAMES = {SQRT: "Q", ADD: "+", SUB: "-", MUL: "*"}

__all__ = [
    "SQRT", "ADD", "SUB", "MUL",
    "make_arith_pset", "terminal_slot", "eval_tree",
    "ArithProblem", "regression_fitness",
]


def make_arith_pset(variables: Sequence[str]) -> PrimitiveSet:
    """Primitive set {Q, +, -, *} plus one terminal per variable name."""
    if not variables:
        raise ConfigError("need at least one variable")
    functions = [(SQRT, 1), (ADD, 2), (SUB, 2), (MUL, 2)]
    terminals = [_FIRST_TERMINAL + i for i in range(len(variables))]
    names = dict(_FUNCTION_NAMES)
    names.update({_FIRST_TERMINAL + i: v for i, v in enumerate(variables)})
    return PrimitiveSet(functions, terminals, names)


def terminal_slot(symbol: int) -> int:
    """Input-vector index of a terminal symbol."""
    return symbol - _FIRST_TERMINAL


def eval_tree(tree: ExpressionTree, inputs: Sequence[float]) -> float:
    """Recursive arithmetic evaluation; sqrt of a negative yields NaN."""

    def ev(idx: int) -> float:
        node = tree.nodes[idx]
        s = node.symbol
        if s >= _FIRST_TERMINAL:
            return float(inputs[terminal_slot(s)])
        if s == SQRT:
            x = ev(node.children[0])
            return math.sqrt(x) if x >= 0.0 else math.nan
        x = ev(node.children[0])
        y = ev(node.children[1])
        if s == ADD:
            return x + y
        if s == SUB:
            return x - y
        return x * y

    return ev(tree.root)


@dataclass
class ArithProblem:
    """Named variables plus (inputs, target) samples and a fitness scale."""

    variables: tuple[str, ...]
    samples: list[tuple[tuple[float, ...], float]]
    scale: float = 100.0

    def __post_init__(self) -> None:
        if not self.samples:
            raise ConfigError("need at least one training sample")
        for inputs, _ in self.samples:
            if len(inputs) != len(self.variables):
                raise ConfigError(
                    f"sample arity {len(inputs)} != {len(self.variables)} variables"
                )

    @property
    def max_fitness(self) -> float:
        return self.scale * len(self.samples)

    def pset(self) -> PrimitiveSet:
        return make_arith_pset(self.variables)


def regression_fitness(gene: Gene, problem: ArithProblem) -> float:
    """Sum over samples of max(0, scale - |error|); NaN/inf scores zero."""
    tree = decode(gene)
    total = 0.0
    for inputs, target in problem.samples:
        value = eval_tree(tree, inputs)
        if not math.isfinite(value):
            continue
        total += max(0.0, problem.scale - abs(value - target))
    return total
