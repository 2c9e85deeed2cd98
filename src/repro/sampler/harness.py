"""The table-row harness: regenerate the paper's evaluation tables.

Each of the paper's tables reports, per parameter setting: the posterior
mean and standard deviation of a program variable, the TV / KL / SMAPE
accuracy of the empirical distribution against the true posterior, and
the mean and standard deviation of fair bits consumed per sample.
``run_row`` produces exactly that row; ``format_table`` renders rows in
the paper's layout for side-by-side comparison (see EXPERIMENTS.md).
"""

import os
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.itree.unfold import cpgcl_to_itree
from repro.lang.state import State
from repro.lang.syntax import Command
from repro.sampler.record import SampleSet
from repro.stats.divergence import kl_divergence, smape, tv_distance
from repro.stats.empirical import pmf_from_counts


class Row(NamedTuple):
    """One table row: parameter label, accuracy and entropy statistics."""

    param: str
    mean: float
    std: float
    tv: Optional[float]
    kl: Optional[float]
    smape: Optional[float]
    mean_bits: float
    std_bits: float
    samples: int


def default_sample_count(paper_count: int = 100_000) -> int:
    """Sample count for benchmark runs.

    The paper uses 100k samples per row; the benchmark suite defaults to
    a smaller count so it completes in minutes, overridable with the
    ``ZAR_BENCH_SAMPLES`` environment variable for full-scale runs.
    """
    env = os.environ.get("ZAR_BENCH_SAMPLES")
    if env:
        return max(1, int(env))
    return min(paper_count, 20_000)


def program_sampler(command: Command, sigma: Optional[State] = None):
    """Compile a cpGCL program through the full pipeline (Def. 3.13)."""
    return cpgcl_to_itree(command, sigma if sigma is not None else State())


def run_row(
    command: Command,
    variable: str,
    param: str,
    true_pmf: Optional[Dict[object, float]] = None,
    n: Optional[int] = None,
    seed: int = 0,
    sigma: Optional[State] = None,
    numeric: Callable[[object], float] = float,
    engine: str = "auto",
    narrow: bool = False,
    profile=None,
) -> Row:
    """Sample ``command`` and produce one evaluation-table row.

    ``variable`` is the program variable whose posterior the row reports;
    ``true_pmf`` enables the TV/KL/SMAPE columns.  ``numeric`` converts
    outcomes for the mean/std columns (booleans count as 0/1).

    ``engine`` selects the sampling path: ``"auto"`` (batch engine,
    trampoline fallback), ``"batch"`` (engine, error on failure), or
    ``"trampoline"`` (the per-sample reference driver).  ``profile``
    pins a full :class:`~repro.engine.profile.EngineProfile` instead
    (benchmark sweeps compare profiles row by row).

    ``narrow=True`` opts into liveness-driven loop-state narrowing
    (:func:`repro.compiler.liveness.narrow_command`); ``variable`` is
    kept live automatically.  Worthwhile for scratch-heavy loop bodies
    (Figure 13's discrete Gaussian, Figure 9b's race), where dead
    temporaries otherwise multiply the open table's state space.
    """
    from repro.engine.api import collect_auto

    count = n if n is not None else default_sample_count()
    result = collect_auto(
        command,
        count,
        sigma=sigma,
        seed=seed,
        extract=lambda s: s[variable],
        engine=engine,
        narrow=narrow,
        observed=(variable,),
        profile=profile,
    )
    return row_from_samples(result.samples, param, true_pmf, numeric)


def row_from_samples(
    samples: SampleSet,
    param: str,
    true_pmf: Optional[Dict[object, float]] = None,
    numeric: Callable[[object], float] = float,
) -> Row:
    """Build a :class:`Row` from an existing sample set.

    Every column is a function of the set's outcome and bit-count
    histograms, so the cost is O(distinct leaves + distinct bit counts)
    and ``numeric`` runs once per distinct leaf, not once per sample.
    """
    tv = kl = sm = None
    if true_pmf is not None:
        observed = pmf_from_counts(samples.histogram())
        tv = tv_distance(observed, true_pmf)
        kl = kl_divergence(observed, true_pmf)
        sm = smape(observed, true_pmf)
    mu, sigma = samples.moments(numeric)
    return Row(
        param=param,
        mean=mu,
        std=sigma,
        tv=tv,
        kl=kl,
        smape=sm,
        mean_bits=samples.mean_bits(),
        std_bits=samples.std_bits(),
        samples=len(samples),
    )


def format_table(title: str, rows: List[Row], var_name: str = "x") -> str:
    """Render rows in the paper's table layout."""
    header = (
        "%-12s %10s %10s %12s %12s %12s %10s %10s"
        % (
            "param",
            "mu_" + var_name,
            "sigma_" + var_name,
            "TV",
            "KL",
            "SMAPE",
            "mu_bit",
            "sigma_bit",
        )
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for row in rows:
        lines.append(
            "%-12s %10.4f %10.4f %12s %12s %12s %10.2f %10.2f"
            % (
                row.param,
                row.mean,
                row.std,
                _sci(row.tv),
                _sci(row.kl),
                _sci(row.smape),
                row.mean_bits,
                row.std_bits,
            )
        )
    lines.append(
        "(%d samples per row)" % (rows[0].samples if rows else 0)
    )
    return "\n".join(lines)


def _sci(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return "%.2e" % value
