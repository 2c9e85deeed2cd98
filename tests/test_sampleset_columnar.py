"""The columnar ``SampleSet``: list views, histograms, row statistics.

Every driver's output lands in one layout (leaf-index column, payload
table, bit-count column).  These tests pin that the lazily
materialised ``values``/``bits`` lists are exactly what per-sample
assembly builds from the same driver output, and that row statistics
computed from the histograms agree with a per-sample reference.
"""

import math
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from repro.engine.api import BatchSampler
from repro.engine.driver import (
    ENGINE_FAIL,
    collect_numpy,
    collect_python,
)
from repro.engine.native import (
    collect_kernel,
    kernel_for,
    native_available,
    reset_kernel_runtime,
)
from repro.engine.pool import BitPool, HAVE_NUMPY
from repro.lang.expr import Var
from repro.lang.sugar import dueling_coins, flip, n_sided_die
from repro.lang.syntax import Observe, Seq
from repro.sampler import record
from repro.sampler.harness import row_from_samples
from repro.sampler.record import SampleSet
from repro.stats.distributions import uniform_pmf
from repro.stats.divergence import kl_divergence, smape, tv_distance
from repro.stats.empirical import empirical_pmf

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy absent")


@pytest.fixture
def kernel_dir(tmp_path, monkeypatch):
    """A private kernel store, so native tests leave nothing behind."""
    monkeypatch.setenv("ZAR_NATIVE_CACHE_DIR", str(tmp_path))
    reset_kernel_runtime()
    yield
    reset_kernel_runtime()


def _driver_output(table, n, seed, backend, tied=True):
    """(indices, bits) lists straight from the driver a backend runs."""
    if backend in ("python", "sequential"):
        # The sequential backend is bit-for-bit the pooled Python one.
        return collect_python(table, n, BitPool(seed), tied=tied)
    if backend == "numpy":
        indices, bits = collect_numpy(table, n, seed=seed, tied=tied)
        return indices.tolist(), bits.tolist()
    bound, reason, _ = kernel_for(table)
    assert bound is not None, reason
    indices, bits = collect_kernel(bound, n, seed=seed, tied=tied)
    return indices.tolist(), bits.tolist()


def _assembled(table, extract, indices, bits):
    """Per-sample assembly: one Python object per sample."""
    mapped = table.map_payloads(extract)
    values = [mapped[i] if i >= 0 else ENGINE_FAIL for i in indices]
    return values, bits


def _reference_row(values, bits, true_pmf, numeric):
    """Row statistics walked sample by sample."""
    observed = empirical_pmf(values)
    numbers = [numeric(v) for v in values]
    mu = sum(numbers) / len(numbers)
    var = sum((x - mu) ** 2 for x in numbers) / len(numbers)
    mu_bits = sum(bits) / len(bits)
    var_bits = sum((b - mu_bits) ** 2 for b in bits) / len(bits)
    return {
        "mean": mu,
        "std": var ** 0.5,
        "tv": tv_distance(observed, true_pmf),
        "kl": kl_divergence(observed, true_pmf),
        "smape": smape(observed, true_pmf),
        "mean_bits": mu_bits,
        "std_bits": math.sqrt(var_bits),
        "samples": len(values),
    }


def _assert_row_matches(row, reference):
    for field, expected in reference.items():
        got = getattr(row, field)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12), field


def _assert_plain_lists(samples):
    assert type(samples.values) is list
    assert type(samples.bits) is list
    assert all(type(b) is int for b in samples.bits)


BACKENDS = [
    "sequential",
    "python",
    pytest.param("numpy", marks=requires_numpy),
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="no C compiler available"
        ),
    ),
]


class TestListViews:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_views_equal_per_sample_assembly(self, backend, kernel_dir):
        sampler = BatchSampler.from_command(dueling_coins(Fraction(2, 3)))
        extract = lambda s: s["a"]  # noqa: E731
        samples = sampler.collect(3000, seed=11, extract=extract,
                                  backend=backend)
        expected = _assembled(
            sampler.table, extract,
            *_driver_output(sampler.table, 3000, 11, backend),
        )
        _assert_plain_lists(samples)
        assert (samples.values, samples.bits) == expected
        # The views are cached, not rebuilt per access.
        assert samples.values is samples.values
        assert samples.bits is samples.bits

    @pytest.mark.parametrize("backend", ["python", pytest.param(
        "numpy", marks=requires_numpy)])
    def test_engine_fail_survives(self, backend):
        command = Seq(flip("b", Fraction(1, 2)), Observe(Var("b")))
        table = BatchSampler.from_command(command).table
        sampler = BatchSampler(table, tied=False)
        samples = sampler.collect(400, seed=3, backend=backend)
        expected = _assembled(
            table, None, *_driver_output(table, 400, 3, backend, tied=False)
        )
        assert (samples.values, samples.bits) == expected
        failures = samples.values.count(ENGINE_FAIL)
        assert 0 < failures < 400
        assert samples.histogram()[ENGINE_FAIL] == failures
        assert (ENGINE_FAIL, failures) in samples.payload_counts()

    def test_list_constructor_keeps_the_lists(self):
        values, bits = [1, True, 1.0, "a", 1], [3, 1, 2, 0, 3]
        samples = SampleSet(values, bits)
        assert samples.values is values and samples.bits is bits
        # True, 1 and 1.0 stay separate leaves (numeric sees each) but
        # merge in the histogram, as Counter(values) does.
        pairs = samples.payload_counts()
        assert [(type(v), v, c) for v, c in pairs] == [
            (int, 1, 2), (bool, True, 1), (float, 1.0, 1), (str, "a", 1)]
        assert samples.histogram() == dict(Counter(values))

    def test_unhashable_values(self):
        values = [[1], [2], [1]]
        samples = SampleSet(values, [1, 2, 3])
        assert samples.values == [[1], [2], [1]]
        mu, sigma = samples.moments(lambda v: v[0])
        assert mu == pytest.approx(4 / 3, rel=1e-12)
        assert sigma == pytest.approx(math.sqrt(2) / 3, rel=1e-12)


class TestHandBuiltStatistics:
    CASES = [
        ([1, 2, 3, 4], [5, 5, 7, 7]),
        ([True, False, True, True], [1, 1, 1, 1]),
        (["h", "t", "h", "h", "x"], [0, 12, 3, 3, 250]),
        ([7] * 5, [4] * 5),
    ]

    @pytest.mark.parametrize("values,bits", CASES)
    def test_counts_and_bit_moments(self, values, bits):
        samples = SampleSet(values, bits)
        mu = sum(bits) / len(bits)
        sigma = math.sqrt(sum((b - mu) ** 2 for b in bits) / len(bits))
        assert samples.counts() == Counter(values)
        assert samples.histogram() == dict(Counter(values))
        assert samples.bit_histogram() == dict(sorted(Counter(bits).items()))
        assert samples.total_bits() == sum(bits)
        assert samples.mean_bits() == mu
        assert samples.std_bits() == pytest.approx(sigma, rel=1e-12)
        assert len(samples) == len(values)

    def test_from_columns(self):
        samples = SampleSet.from_columns(
            [0, 2, -1, 0, 1], ["a", "b", "c"], [2, 4, 6, 2, 1],
            fail=ENGINE_FAIL,
        )
        assert samples.values == ["a", "c", ENGINE_FAIL, "a", "b"]
        assert samples.bits == [2, 4, 6, 2, 1]
        assert samples.counts() == Counter(samples.values)
        assert samples.total_bits() == 15
        assert samples.mean_bits() == 3.0

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError):
            SampleSet.from_columns([0, 0], ["a"], [1])


class TestRowStatistics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_row_matches_per_sample_reference(self, backend, kernel_dir):
        sampler = BatchSampler.from_command(n_sided_die(6))
        samples = sampler.collect(20000, seed=5, extract=lambda s: s["x"],
                                  backend=backend)
        pmf = uniform_pmf(6, start=1)
        for numeric in (float, lambda v: (v - 3) ** 2, lambda v: v % 4):
            row = row_from_samples(samples, "n=6", pmf, numeric)
            _assert_row_matches(
                row, _reference_row(samples.values, samples.bits, pmf,
                                    numeric)
            )

    @requires_numpy
    def test_sigma_at_a_million_samples(self):
        sampler = BatchSampler.from_command(n_sided_die(6))
        samples = sampler.collect(1_000_000, seed=9,
                                  extract=lambda s: s["x"], backend="numpy")
        pmf = uniform_pmf(6, start=1)
        row = row_from_samples(samples, "n=6", pmf)
        _assert_row_matches(
            row, _reference_row(samples.values, samples.bits, pmf, float)
        )

    def test_boolean_outcomes(self):
        values = [True] * 30 + [False] * 70
        samples = SampleSet(values, [1] * 100)
        row = row_from_samples(samples, "p", {True: 0.25, False: 0.75})
        _assert_row_matches(
            row, _reference_row(values, [1] * 100,
                                {True: 0.25, False: 0.75}, float)
        )


class TestWithoutNumpy:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(record, "_np", None)

    def test_columns_are_arrays(self, no_numpy):
        samples = SampleSet([3, 1, 3], [2, 2, 5])
        assert isinstance(samples._leaves, array)
        assert isinstance(samples._bits, array)
        assert samples.counts() == Counter({3: 2, 1: 1})
        assert samples.bit_histogram() == {2: 2, 5: 1}

    def test_collect_and_row(self, no_numpy):
        sampler = BatchSampler.from_command(n_sided_die(6))
        extract = lambda s: s["x"]  # noqa: E731
        samples = sampler.collect(3000, seed=2, extract=extract,
                                  backend="python")
        assert isinstance(samples._leaves, array)
        _assert_plain_lists(samples)
        pmf = uniform_pmf(6, start=1)
        row = row_from_samples(samples, "n=6", pmf)
        _assert_row_matches(
            row, _reference_row(samples.values, samples.bits, pmf, float)
        )
