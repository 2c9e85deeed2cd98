"""Differential fuzzing of the pipeline (the ProbFuzz methodology).

The paper's related-work section proposes Zar as a reference
implementation inside ProbFuzz-style differential testing of PPLs
(Dutta et al. 2018).  This module implements that harness over the
reproduction itself: generate random cpGCL programs, push them through
every independent execution path, and compare:

1. exact cwp inference on the source program,
2. exact tcwp inference on the compiled CF tree (Theorem 3.7),
3. tcwp after elim_choices + debias (Theorems 3.8/3.9),
4. the compiled interaction-tree sampler (statistical), and
5. the direct operational interpreter (statistical),

reporting any disagreement as a :class:`Discrepancy`.  The generator is
self-contained (seeded ``random``, no Hypothesis dependency) so the
fuzzer is usable as a library/CLI, not only inside pytest.
"""

import random
from fractions import Fraction
from typing import List, NamedTuple, Optional

from repro.cftree.compile import compile_cpgcl
from repro.cftree.debias import debias
from repro.cftree.elim import elim_choices
from repro.cftree.semantics import TreeConditioningError, tcwp
from repro.itree.unfold import cpgcl_to_itree
from repro.lang.expr import BinOp, Call, Expr, Lit, UnOp, Var
from repro.lang.interp import interpret
from repro.lang.state import State
from repro.lang.syntax import (
    Assign,
    Choice,
    Command,
    Ite,
    Observe,
    Seq,
    Skip,
    Uniform,
)
from repro.sampler.record import collect
from repro.semantics.cwp import ConditioningError, cwp
from repro.semantics.expectation import indicator


class Discrepancy(NamedTuple):
    """A disagreement between two execution paths on one program."""

    seed: int
    program: Command
    stage: str
    detail: str


class FuzzReport(NamedTuple):
    """Outcome of a fuzzing campaign."""

    programs: int
    skipped: int  # contradictory-observation programs (no posterior)
    discrepancies: List[Discrepancy]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


VARS = ("x", "y", "z")


class ProgramGenerator:
    """Seeded random generator of loop-free cpGCL programs.

    Loop-free keeps every comparison *exact*; the loop-bearing cases are
    covered by the Hypothesis suite, where shrinking is worth more than
    CLI reproducibility.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng

    def numeric(self, depth: int) -> Expr:
        roll = self._rng.random()
        if depth <= 0 or roll < 0.35:
            if self._rng.random() < 0.5:
                return Lit(self._rng.randint(-4, 4))
            return Var(self._rng.choice(VARS))
        if roll < 0.85:
            op = self._rng.choice(["+", "-", "*"])
            return BinOp(op, self.numeric(depth - 1), self.numeric(depth - 1))
        return Call("abs", [self.numeric(depth - 1)])

    def boolean(self, depth: int) -> Expr:
        roll = self._rng.random()
        if depth <= 0 or roll < 0.5:
            op = self._rng.choice(["<", "<=", "==", "!=", ">", ">="])
            return BinOp(op, self.numeric(1), self.numeric(1))
        if roll < 0.8:
            op = self._rng.choice(["and", "or"])
            return BinOp(op, self.boolean(depth - 1), self.boolean(depth - 1))
        return UnOp("not", self.boolean(depth - 1))

    def probability(self) -> Fraction:
        return Fraction(self._rng.randint(0, 12), 12)

    def command(self, depth: int) -> Command:
        roll = self._rng.random()
        if depth <= 0 or roll < 0.30:
            kind = self._rng.randrange(4)
            if kind == 0:
                return Skip()
            if kind == 1:
                return Assign(self._rng.choice(VARS), self.numeric(2))
            if kind == 2:
                return Uniform(Lit(self._rng.randint(1, 6)),
                               self._rng.choice(VARS))
            return Observe(self.boolean(1))
        if roll < 0.60:
            return Seq(self.command(depth - 1), self.command(depth - 1))
        if roll < 0.80:
            return Ite(self.boolean(1), self.command(depth - 1),
                       self.command(depth - 1))
        return Choice(self.probability(), self.command(depth - 1),
                      self.command(depth - 1))


def fuzz_one(
    seed: int,
    depth: int = 3,
    samples: int = 1500,
) -> Optional[Discrepancy]:
    """Run one differential round; None means all paths agreed."""
    rng = random.Random(seed)
    program = ProgramGenerator(rng).command(depth)
    sigma = State()
    f = indicator(lambda s: s["x"] > 0)

    try:
        reference = cwp(program, f, sigma)
    except ConditioningError:
        # No posterior: every path must refuse too.
        try:
            tcwp(compile_cpgcl(program, sigma), f)
        except TreeConditioningError:
            return None
        return Discrepancy(
            seed, program, "tcwp",
            "cwp has no posterior but tcwp produced one",
        )

    compiled = compile_cpgcl(program, sigma)
    tree_value = tcwp(compiled, f)
    if tree_value != reference:
        return Discrepancy(
            seed, program, "tcwp",
            "cwp=%s tcwp=%s" % (reference, tree_value),
        )

    processed_value = tcwp(debias(elim_choices(compiled)), f)
    if processed_value != reference:
        return Discrepancy(
            seed, program, "debias",
            "cwp=%s after-debias=%s" % (reference, processed_value),
        )

    expected = float(reference)
    threshold = 6 * 0.5 / (samples ** 0.5)

    sampler = cpgcl_to_itree(program, sigma)
    drawn = collect(sampler, samples, seed=seed)
    frequency = sum(count for v, count in drawn.payload_counts()
                    if v["x"] > 0) / samples
    if abs(frequency - expected) > threshold:
        return Discrepancy(
            seed, program, "sampler",
            "cwp=%.5f sampled=%.5f (n=%d)" % (expected, frequency, samples),
        )

    hits = 0
    for i in range(samples):
        value = interpret(program, sigma, seed=seed * 1_000_003 + i)
        if value["x"] > 0:
            hits += 1
    frequency = hits / samples
    if abs(frequency - expected) > threshold:
        return Discrepancy(
            seed, program, "interpreter",
            "cwp=%.5f interpreted=%.5f (n=%d)" % (expected, frequency, samples),
        )
    return None


def fuzz(
    rounds: int = 50,
    base_seed: int = 0,
    depth: int = 3,
    samples: int = 1500,
) -> FuzzReport:
    """Run a fuzzing campaign; see :func:`fuzz_one` for one round."""
    skipped = 0
    discrepancies: List[Discrepancy] = []
    for i in range(rounds):
        seed = base_seed + i
        rng = random.Random(seed)
        program = ProgramGenerator(rng).command(depth)
        try:
            cwp(program, indicator(lambda s: s["x"] > 0), State())
        except ConditioningError:
            skipped += 1
        result = fuzz_one(seed, depth=depth, samples=samples)
        if result is not None:
            discrepancies.append(result)
    return FuzzReport(rounds, skipped, discrepancies)
