"""Checkable forms of Lemma 3.6 and Theorems 3.7, 3.8, 3.9, 3.14, 4.2.

Each checker returns ``None`` on success and raises
:class:`TheoremViolation` with a diagnostic otherwise, so they compose
with both pytest and ad-hoc validation scripts.  Exact checkers compare
rationals for equality; the end-to-end checker (3.14) brackets ``itwp``
and the equidistribution checker (4.2) applies a statistical threshold,
matching the strength each statement admits in this setting.
"""

from fractions import Fraction
from typing import Callable, Iterable, Optional

from repro.cftree.compile import compile_cpgcl
from repro.cftree.debias import debias
from repro.cftree.elim import elim_choices
from repro.cftree.analysis import is_unbiased
from repro.cftree.semantics import tcwp, twp
from repro.cftree.tree import CFTree
from repro.cftree.uniform import uniform_tree
from repro.itree.semantics import itwp_tied
from repro.itree.unfold import open_pipeline
from repro.lang.state import State
from repro.lang.syntax import Command
from repro.semantics.cwp import cwp, invariant_sum_check
from repro.semantics.extreal import ExtReal
from repro.semantics.fixpoint import DEFAULT_OPTIONS, LoopOptions
from repro.semantics.wp import wlp


class TheoremViolation(AssertionError):
    """A checked theorem instance failed."""


def check_uniform_tree(n: int, f: Optional[Callable[[int], object]] = None) -> None:
    """Lemma 3.6: ``twp_false (uniform_tree n) f = 1/n sum_i f(i)``.

    With ``f`` omitted, checks all point masses (sufficient by linearity).
    """
    tree = uniform_tree(n)
    if f is not None:
        expected = sum(
            (ExtReal.of(f(i)) for i in range(n)), ExtReal(0)
        ).scale(Fraction(1, n))
        actual = twp(tree, f)
        if actual != expected:
            raise TheoremViolation(
                "Lemma 3.6 fails for n=%d: twp=%s expected=%s"
                % (n, actual, expected)
            )
        return
    share = ExtReal(Fraction(1, n))
    for k in range(n):
        actual = twp(tree, lambda m, k=k: 1 if m == k else 0)
        if actual != share:
            raise TheoremViolation(
                "Lemma 3.6 fails for n=%d at outcome %d: %s != 1/%d"
                % (n, k, actual, n)
            )


def check_cf_compiler_correctness(
    command: Command,
    f: Callable[[State], object],
    sigma: Optional[State] = None,
    options: LoopOptions = DEFAULT_OPTIONS,
) -> None:
    """Theorem 3.7: ``tcwp ([[c]] sigma) f = cwp c f sigma``.

    Exact when both sides resolve loops exactly (finite state spaces);
    with iterative fallbacks both sides carry the same tolerance.
    """
    sigma = sigma if sigma is not None else State()
    lhs = tcwp(compile_cpgcl(command, sigma), f, options=options)
    rhs = cwp(command, f, sigma, options=options)
    if lhs != rhs:
        raise TheoremViolation(
            "Theorem 3.7 fails: tcwp=%s cwp=%s for %r" % (lhs, rhs, command)
        )


def check_debias_sound(
    tree: CFTree,
    f: Callable[[object], object],
    options: LoopOptions = DEFAULT_OPTIONS,
) -> None:
    """Theorem 3.8: ``tcwp (debias t) f = tcwp t f`` (exactly)."""
    lhs = tcwp(debias(tree), f, options=options)
    rhs = tcwp(tree, f, options=options)
    if lhs != rhs:
        raise TheoremViolation(
            "Theorem 3.8 fails: tcwp(debias)=%s tcwp=%s" % (lhs, rhs)
        )


def check_debias_unbiased(tree: CFTree, max_states: int = 10000) -> None:
    """Theorem 3.9: every choice in ``debias t`` has bias 1/2."""
    if not is_unbiased(debias(tree), max_states):
        raise TheoremViolation("Theorem 3.9 fails: biased choice survived")


def check_invariant_sum(
    command: Command,
    f: Callable[[State], object],
    sigma: Optional[State] = None,
    flag: bool = False,
    options: LoopOptions = DEFAULT_OPTIONS,
) -> None:
    """Section 2.2: ``wp_b c f + wlp_{not b} c (1-f) = 1`` for ``f <= 1``."""
    sigma = sigma if sigma is not None else State()
    total = invariant_sum_check(command, f, sigma, flag=flag, options=options)
    if total != ExtReal(1):
        raise TheoremViolation(
            "invariant sum fails: wp + wlp = %s != 1 for %r" % (total, command)
        )


def check_end_to_end(
    command: Command,
    f: Callable[[State], object],
    sigma: Optional[State] = None,
    options: LoopOptions = DEFAULT_OPTIONS,
    mass_cutoff: Fraction = Fraction(1, 2**24),
    max_nodes: int = 500_000,
) -> None:
    """Theorem 3.14: ``cwp c f sigma = itwp f (cpgcl_to_itree c sigma)``.

    Requires ``0 < wlp_false c 1 sigma`` (checked) and ``f <= 1``.  The
    itwp side is bracketed by finite exploration; the check asserts the
    cwp value falls inside the bracket, which is the strongest decidable
    form of the equality here.
    """
    sigma = sigma if sigma is not None else State()
    if not wlp(command, lambda _s: 1, sigma, options=options) > ExtReal(0):
        raise TheoremViolation(
            "Theorem 3.14 side condition fails: wlp = 0 (contradictory "
            "observations)"
        )
    expected = cwp(command, f, sigma, options=options)
    bracket = itwp_tied(
        open_pipeline(command, sigma),
        f,
        mass_cutoff=mass_cutoff,
        max_nodes=max_nodes,
    )
    if not bracket.within(expected):
        raise TheoremViolation(
            "Theorem 3.14 fails: cwp=%s outside itwp bracket [%s, %s]"
            % (expected, bracket.lower, bracket.upper())
        )


def check_equidistribution(
    command: Command,
    predicate: Callable[[State], bool],
    sigma: Optional[State] = None,
    n: int = 20000,
    seed: int = 0,
    tolerance: Optional[float] = None,
    alpha: float = 1e-9,
    options: LoopOptions = DEFAULT_OPTIONS,
) -> None:
    """Theorem 4.2 (statistical form): the relative frequency of ``Q``
    among ``n`` samples approximates ``cwp c [Q] sigma``.

    The check is calibrated: it fails iff the exact ``cwp`` value lies
    outside the exact Clopper-Pearson interval around the observed
    frequency at confidence ``1 - alpha`` -- so a correct sampler trips
    a given seeded check with probability at most ``alpha`` (default
    one in a billion), with no ad-hoc tolerance involved.  Passing an
    explicit ``tolerance`` restores the legacy absolute-difference
    comparison.

    Sampling runs on the batch engine when the program lowers (it
    always should); the trampoline is the fallback.
    """
    from repro.stats.binomial import clopper_pearson

    sigma = sigma if sigma is not None else State()
    expected = float(cwp(
        command,
        lambda s: 1 if predicate(s) else 0,
        sigma,
        options=options,
    ))
    samples = _equidistribution_samples(command, sigma, n, seed)
    hits = sum(count for value, count in samples.payload_counts()
               if predicate(value))
    frequency = hits / len(samples)
    if tolerance is not None:
        if abs(frequency - expected) > tolerance:
            raise TheoremViolation(
                "Theorem 4.2 fails: frequency %.6f vs cwp %.6f (tol %.6f)"
                % (frequency, expected, tolerance)
            )
        return
    lower, upper = clopper_pearson(hits, n, alpha)
    if not lower <= expected <= upper:
        raise TheoremViolation(
            "Theorem 4.2 fails: cwp %.6f outside the Clopper-Pearson "
            "interval [%.6f, %.6f] around %d/%d hits (alpha=%g)"
            % (expected, lower, upper, hits, n, alpha)
        )


def _equidistribution_samples(command, sigma, n, seed):
    """Engine-first sampling for the statistical checks."""
    from repro.engine.api import collect_auto

    return collect_auto(command, n, sigma=sigma, seed=seed).samples
