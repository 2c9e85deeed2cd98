"""Seeded workload inputs: which programs each op requests, and why.

Every op is one ``run_row`` request.  A workload is an endless stream
of *rounds*, each holding the same mix of program families whatever
the seed.  In cold-sweep the seed draws each op's parameters (every
program is new); the repeat workloads request fixed rows of the
paper's tables, and the seed picks sampling seeds and op order.  A run
measures a fixed number of rounds, ``rounds_for(seconds)``: about
``seconds`` of reference-host time (``hostspeed``) for the code this
benchmark was written against, and the same ops for every commit it
compares, so a faster commit finishes sooner instead of measuring more
(and different) ops.  Inputs depend only on ``(workload, seed)``.

Die, dueling coins and geometric primes arrive as cpGCL source text
(the op parses them); the other families are built with
``repro.lang.sugar`` outside the op, as a caller holding a program
object would.
"""

import random
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.lang import sugar
from repro.stats import distributions

DIE_SOURCE = "m <~ uniform(%d);\nx := m + 1;\n"
DUEL_SOURCE = (
    "a := false;\nb := false;\n"
    "while a == b {\n  a <~ flip(%s);\n  b <~ flip(%s);\n}\n"
)
GEO_SOURCE = (
    "b <~ flip(%s);\n"
    "while b {\n  h := h + 1;\n  b <~ flip(%s);\n}\n"
    "observe is_prime(h);\n"
)


class Program(NamedTuple):
    """One program of the paper's families, with its parameters."""

    family: str  # die | duel | geo | bexp | laplace | gauss
    params: tuple

    @property
    def label(self) -> str:
        return "%s(%s)" % (self.family, ",".join(str(p) for p in self.params))

    @property
    def variable(self) -> str:
        return {"die": "x", "duel": "a", "geo": "h"}.get(self.family, "z")

    @property
    def source(self) -> Optional[str]:
        """cpGCL text for the families that arrive as source."""
        if self.family == "die":
            return DIE_SOURCE % self.params
        if self.family == "duel":
            return DUEL_SOURCE % (self.params[0], self.params[0])
        if self.family == "geo":
            return GEO_SOURCE % (self.params[0], self.params[0])
        return None

    def command(self):
        """The command for the families built in Python."""
        if self.family == "bexp":
            return sugar.bernoulli_exponential("z", self.params[0])
        if self.family == "laplace":
            return sugar.laplace("z", *self.params)
        if self.family == "gauss":
            return sugar.gaussian("z", *self.params)
        raise ValueError("%s arrives as source text" % self.family)

    def reference(self) -> Dict[object, float]:
        """The closed-form pmf of the program's output variable."""
        family, params = self.family, self.params
        if family == "die":
            return distributions.uniform_pmf(params[0], start=1)
        if family == "duel":
            return distributions.bernoulli_pmf(Fraction(1, 2))
        if family == "geo":
            return distributions.geometric_primes_pmf(params[0])
        if family == "bexp":
            return distributions.bernoulli_exp_pmf(params[0])
        if family == "laplace":
            return distributions.discrete_laplace_pmf(*params)
        return distributions.discrete_gaussian_pmf(*params)


class Op(NamedTuple):
    """One request: sample ``n`` from ``program`` with ``seed``.

    ``pinned`` names a registry profile the caller pins
    (``"native"``), or is None for the default policy.
    """

    program: Program
    n: int
    seed: int
    pinned: Optional[str] = None

    @property
    def label(self) -> str:
        return self.program.label + ("@" + self.pinned if self.pinned else "")


def _fractions(low: Fraction, high: Fraction,
               denominators: range) -> List[Fraction]:
    """The fractions in [low, high], by denominator (compile cost grows
    with it), then by value."""
    return sorted({Fraction(k, m) for m in denominators for k in range(1, m)
                   if low <= Fraction(k, m) <= high},
                  key=lambda p: (p.denominator, p))


#: Every program cold-sweep can request, by family, in order of about
#: how much its compile costs (die: n; fractions: denominator).  The
#: expensive families draw from menus whose compiles cost about the
#: same, so a round's cost does not swing with the seed: gamma >= 1
#: (below 1/2 compiles are 10x slower), one Laplace scale t (later
#: compiles share its sub-loops), one Gaussian sigma (<= 2; the mean
#: keeps programs distinct).
COLD_MENUS = {
    "die": [(n,) for n in range(100, 401)],
    "duel": [(p,) for p in _fractions(Fraction(1, 4), Fraction(3, 4),
                                      range(5, 40))],
    "geo": [(p,) for p in _fractions(Fraction(1, 2), Fraction(2, 3),
                                     range(6, 70))],
    "bexp": [(g,) for g in sorted({1 + Fraction(k, m) for m in range(2, 9)
                                   for k in range(m)})],
    "laplace": [(s, 2) for s in range(1, 13)],
    "gauss": [(mu, Fraction(2)) for mu in range(-20, 21)],
}

#: Programs of each family in one cold-sweep round.  18 cheap
#: source-text programs per expensive one keep the expensive share (5%)
#: well under 10%, so p90 lies inside the cheap compiles' slowest
#: family (geometric primes) instead of between the two groups.
COLD_ROUND = {"die": 18, "duel": 18, "geo": 18,
              "bexp": 1, "laplace": 1, "gauss": 1}


class _Draw:
    """Stratified draws without replacement, so no program repeats in a
    run.  Each menu is cut into as many strata as a round takes of the
    family, and a round takes one program from each stratum: every
    round then spans the family's range of compile costs, and a run's
    op-time quantiles do not swing with which programs the seed drew."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.strata = {}
        for family, menu in COLD_MENUS.items():
            k = COLD_ROUND[family]
            size = len(menu) // k
            self.strata[family] = [menu[i * size:(i + 1) * size]
                                   for i in range(k)]
            for stratum in self.strata[family]:
                rng.shuffle(stratum)

    def rounds_left(self) -> int:
        return min(len(stratum) for strata in self.strata.values()
                   for stratum in strata)

    def take(self, family: str) -> List[Program]:
        return [Program(family, stratum.pop())
                for stratum in self.strata[family]]

    def seed(self) -> int:
        return self.rng.getrandbits(31)


class Workload(NamedTuple):
    name: str
    why: str
    #: Warm-up ops run during set-up (untimed): compiles, kernel builds.
    warmup: List[Op]
    #: The measured stream of rounds.
    rounds: Iterator[List[Op]]
    #: Reference-host seconds one round took, host-speed chunks
    #: included, on the code this benchmark was written against.
    round_s: float
    #: Every op runs in a newly started interpreter against a store.
    restart: bool = False

    def rounds_for(self, seconds: float) -> int:
        """Rounds a run of ``seconds`` measures."""
        return max(1, round(seconds / self.round_s))


COLD_N = 500
WARM_N = 100_000
OPEN_N = 2_000
OPEN_WARM_ROUNDS = 3
RESTART_N = 2_000


def _cold_sweep(rng: random.Random) -> Workload:
    draw = _Draw(rng)
    # Outside the drawn parameter ranges, so they cannot pre-warm a
    # measured op; they load the modules the compiler imports lazily.
    warmup = [Op(Program("die", (1,)), 50, draw.seed()),
              Op(Program("duel", (Fraction(1, 9),)), 50, draw.seed())]

    def rounds():
        # The expensive programs come in a fixed order, one in each
        # third of the round, so the sub-loops a Gaussian shares with
        # the Laplace before it are built at the same point of every
        # run.  The stream ends when a stratum runs out (Laplace's 12
        # scales: 12 rounds, several times what a run measures).
        while draw.rounds_left():
            cheap = [Op(program, COLD_N, draw.seed())
                     for family in ("die", "duel", "geo")
                     for program in draw.take(family)]
            rng.shuffle(cheap)
            ops = []
            for third, family in enumerate(("bexp", "laplace", "gauss")):
                part = cheap[18 * third:18 * (third + 1)]
                part += [Op(program, COLD_N, draw.seed())
                         for program in draw.take(family)]
                rng.shuffle(part)
                ops.extend(part)
            yield ops

    return Workload(
        "cold-sweep",
        "distinct programs, each requested once: every op misses the "
        "compile cache, so the compiler does the work",
        warmup, rounds(), round_s=6.5)


#: Rows of the paper's tables (Table 3 die, Table 1 dueling coins,
#: Table 2 geometric primes, Table 8 Gaussian), and Laplace(1,3), the
#: Gaussian(10,2)'s own sub-loop, so it compiles from the shared cftree
#: memo.  The repeat workloads request these fixed programs: a seed
#: that drew their parameters would change what an op costs far more
#: than any change to the code does.
DIE6 = Program("die", (6,))
DIE200 = Program("die", (200,))
DIE10K = Program("die", (10000,))
DUEL = Program("duel", (Fraction(2, 3),))
GEO = Program("geo", (Fraction(1, 2),))
LAPLACE = Program("laplace", (1, 3))
GAUSS = Program("gauss", (10, 2))


def _repeat(rng: random.Random, specs) -> Iterator[List[Op]]:
    """Rounds of ``(program, pinned, n)`` specs with fresh sampling
    seeds, in a seeded order."""
    while True:
        ops = [Op(p, n, rng.getrandbits(31), pin) for p, pin, n in specs]
        rng.shuffle(ops)
        yield ops


def _warm_stream(rng: random.Random) -> Workload:
    specs = [(p, pin, WARM_N) for p in (DIE6, DUEL, GEO)
             for pin in (None, "native")]
    # One request at 10x the size: assembly and row statistics at 1e6
    # samples.  It also makes seven op kinds per round, so the median
    # falls inside one kind's times rather than between two kinds.
    specs.append((DIE6, None, 10 * WARM_N))
    warmup = [Op(p, 1000, rng.getrandbits(31), pin) for p, pin, _ in specs]
    return Workload(
        "warm-stream",
        "compiled programs with built kernels requested again at large n: "
        "the driver, kernel, assembly and row statistics do the work",
        warmup[:-1], _repeat(rng, specs), round_s=1.75)


def _open_expand(rng: random.Random) -> Workload:
    # Two Gaussian requests per Laplace one: the median then falls
    # inside the Gaussian's times, not between the two programs'.
    specs = [(GAUSS, None, OPEN_N), (GAUSS, None, OPEN_N),
             (LAPLACE, None, OPEN_N)]
    rounds = _repeat(rng, specs)
    # Set-up compiles both programs, then runs OPEN_WARM_ROUNDS rounds:
    # the first requests on a new table expand it most (the first
    # Gaussian op takes 7x a later one), and which of them a seed's
    # sampling seeds make slowest would otherwise set p90.  Measured ops
    # still expand the table, by tens of rows each.
    warmup = [Op(GAUSS, 10, rng.getrandbits(31)),
              Op(LAPLACE, 10, rng.getrandbits(31))]
    for _ in range(OPEN_WARM_ROUNDS):
        warmup.extend(next(rounds))
    return Workload(
        "open-expand",
        "open-table programs repeated with fresh seeds: JIT loop "
        "expansion writes the table the walk reads; native refuses them",
        warmup, rounds, round_s=0.29)


def _restart_store(rng: random.Random) -> Workload:
    # Five op kinds, four of them cheap: the median falls inside the
    # cheap restarts and p90 inside die(10000)'s.  Open Bernoulli-exp
    # and Laplace tables are left out: the store engages the tuner,
    # whose untried native arm makes the native driver's closure attempt
    # expand them for seconds (12 s for Bernoulli-exp(1/2) at n=200).
    specs = [(DIE10K, None, RESTART_N), (DIE200, None, RESTART_N),
             (DUEL, None, RESTART_N), (DUEL, "native", RESTART_N),
             (GEO, None, RESTART_N)]
    warmup = [Op(p, 200, rng.getrandbits(31), pin) for p, pin, _ in specs]
    return Workload(
        "restart-store",
        "each op in a new interpreter against a populated store: compile "
        "cache disk load, thaw/rebind and kernel-store load do the work",
        warmup, _repeat(rng, specs), round_s=3.5, restart=True)


WORKLOADS = {
    "cold-sweep": _cold_sweep,
    "warm-stream": _warm_stream,
    "open-expand": _open_expand,
    "restart-store": _restart_store,
}


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    return WORKLOADS[name](random.Random("%s/%d" % (name, seed)))
