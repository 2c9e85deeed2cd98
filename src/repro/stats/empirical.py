"""Empirical distributions from sample sets."""

from collections import Counter
from typing import Dict, Hashable, Iterable, Mapping


def empirical_pmf(values: Iterable[Hashable]) -> Dict[Hashable, float]:
    """Relative frequencies of the observed outcomes."""
    return pmf_from_counts(Counter(values))


def pmf_from_counts(counts: Mapping[Hashable, int]) -> Dict[Hashable, float]:
    """Relative frequencies from an outcome histogram."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no samples")
    return {value: count / total for value, count in counts.items()}
