"""Per-op output check and output digest.

An op passes when the ``Row`` it returned agrees with the samples that
produced it and every bin of the empirical distribution lies within an
exact Clopper-Pearson interval around the closed-form pmf.  The
intervals are Bonferroni-corrected over the bins of one op, at a
family-wise error of ``ALPHA_OP`` per op -- no tolerances.
"""

import hashlib
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.stats.binomial import clopper_pearson

#: Family-wise false-alarm probability of one op's check.
ALPHA_OP = 1e-9

#: Large supports are grouped into at most this many contiguous bins of
#: about equal mass (each interval costs a Beta-quantile bisection).
MAX_BINS = 10


def bins(pmf: Dict[object, float]) -> List[Tuple[frozenset, float]]:
    """Contiguous groups of the support with about equal mass."""
    keys = sorted(pmf)
    if len(keys) <= MAX_BINS:
        return [(frozenset([key]), pmf[key]) for key in keys]
    target = 1.0 / MAX_BINS
    out, group, mass = [], [], 0.0
    for key in keys:
        group.append(key)
        mass += pmf[key]
        if mass >= target:
            out.append((frozenset(group), mass))
            group, mass = [], 0.0
    if group:
        out.append((frozenset(group), mass))
    return out


def check_op(counts: Dict[object, int], bits_total: int, n: int,
             pmf: Dict[object, float], row: Dict[str, float]) -> Optional[str]:
    """The reason the op's output is wrong, or None when it passes."""
    drawn = sum(counts.values())
    if drawn != n or row["samples"] != n:
        return "asked for %d samples, got %d (row says %d)" % (
            n, drawn, row["samples"])
    outside = [value for value in counts if value not in pmf]
    if outside:
        return "values outside the support: %r" % sorted(outside, key=repr)[:5]
    mean = sum(float(value) * count for value, count in counts.items()) / n
    if abs(row["mean"] - mean) > 1e-9 * max(1.0, abs(mean)):
        return "row mean %r but the samples give %r" % (row["mean"], mean)
    if abs(row["mean_bits"] - bits_total / n) > 1e-9 * max(1.0, row["mean_bits"]):
        return "row mean_bits %r but the samples give %r" % (
            row["mean_bits"], bits_total / n)
    groups = bins(pmf)
    alpha = ALPHA_OP / len(groups)
    for keys, mass in groups:
        k = sum(counts.get(key, 0) for key in keys)
        low, high = clopper_pearson(k, n, alpha)
        if not low <= mass <= high:
            shown = sorted(keys)
            return ("%d of %d samples in [%r..%r]: pmf mass %.6g outside "
                    "the CP interval [%.6g, %.6g] at alpha %.2g" % (
                        k, n, shown[0], shown[-1], mass, low, high, alpha))
    return None


def digest(values: Sequence[object], bits: Sequence[int]) -> str:
    """A short digest of one op's sampled values and bit counts."""
    blob = hashlib.sha256(repr(list(values)).encode())
    blob.update(array("q", bits).tobytes())
    return blob.hexdigest()[:16]
