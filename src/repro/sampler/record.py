"""Sample collection with bit accounting.

``collect`` runs a sampler ``n`` times against a counting bit source and
records, per sample, the produced value and the number of fair bits
consumed -- including bits burned by rejection restarts, which is what
the paper's mu_bit/sigma_bit columns measure (cf. the discussion of
entropy waste under low-probability conditioning, Table 2).

A :class:`SampleSet` stores its samples as columns rather than one
Python object per sample; every statistic the paper's tables report is
a function of two histograms (outcomes and bit counts), computed in
time linear in the distinct leaves and bit counts once the buffers are
tallied.
"""

import math
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bits.source import BitSource, CountingBits, SystemBits
from repro.itree.itree import ITree
from repro.sampler.run import run_itree

try:  # numpy is optional; without it the buffers are array('q')
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


def _int_buffer(data: Sequence[int]):
    """``data`` as a sample-set column: an ``int64`` numpy array, or an
    ``array('q')`` when numpy is absent.  Arrays already in that form
    are used as they are, without a copy."""
    if _np is not None:
        if isinstance(data, _np.ndarray):
            return data.astype(_np.int64, copy=False)
        if isinstance(data, array) and data.typecode == "q":
            return _np.frombuffer(data, dtype=_np.int64)
        return _np.fromiter(data, dtype=_np.int64, count=len(data))
    if isinstance(data, array) and data.typecode == "q":
        return data
    return array("q", data)


def _tally(buffer, offset: int = 0) -> Dict[int, int]:
    """Count each value of an integer column, in ascending value order.

    ``offset`` shifts the values before counting so that a column with
    small negative entries (``-1`` leaf indices) can use ``bincount``.
    """
    if _np is not None and isinstance(buffer, _np.ndarray):
        if not len(buffer):
            return {}
        shifted = buffer + offset if offset else buffer
        if int(shifted.max()) <= 4 * len(buffer) + 4096:
            counts = _np.bincount(shifted)
            present = _np.flatnonzero(counts)
            keys, counts = present - offset, counts[present]
        else:  # sparse large values: sort instead of a huge bincount
            keys, counts = _np.unique(buffer, return_counts=True)
        return dict(zip(keys.tolist(), counts.tolist()))
    return dict(sorted(Counter(buffer).items()))


class SampleSet:
    """Values and per-sample bit counts from repeated runs, as columns.

    The layout, shared by every driver:

    - a leaf-index column: sample ``i`` produced payload
      ``leaves[i]``; ``-1`` stands for the failure payload (the batch
      engine's ``ENGINE_FAIL`` in untied runs);
    - a payload table: one entry per distinct leaf, the extracted value
      (the batch engine builds it once per distinct table payload);
    - a bit-count column: fair bits sample ``i`` consumed.

    Columns are ``int64`` numpy arrays, or ``array('q')`` without numpy.
    ``values`` and ``bits`` are plain Python lists, materialised on
    first access and cached.  Statistics read the leaf and bit-count
    histograms instead, so they cost O(distinct leaves + distinct bit
    counts) once the columns are tallied.

    ``SampleSet(values, bits)`` builds the same columns from lists (the
    trampoline ``collect`` and tests); :meth:`from_columns` takes
    driver output directly.
    """

    def __init__(self, values: List[object], bits: List[int]):
        values = values if isinstance(values, list) else list(values)
        bits = bits if isinstance(bits, list) else list(bits)
        if len(values) != len(bits):
            raise ValueError("values and bit counts must align")
        payloads, leaves = _intern(values)
        self._set_columns(leaves, payloads, bits, None)
        self._values: Optional[List[object]] = values
        self._bit_list: Optional[List[int]] = bits

    @classmethod
    def from_columns(
        cls,
        leaves: Sequence[int],
        payloads: Sequence[object],
        bits: Sequence[int],
        fail: object = None,
    ) -> "SampleSet":
        """A set over driver output: ``leaves[i]`` indexes ``payloads``,
        ``-1`` stands for ``fail``."""
        if len(leaves) != len(bits):
            raise ValueError("leaf indices and bit counts must align")
        samples = cls.__new__(cls)
        samples._set_columns(leaves, payloads, bits, fail)
        samples._values = None
        samples._bit_list = None
        return samples

    def _set_columns(self, leaves, payloads, bits, fail) -> None:
        self._leaves = _int_buffer(leaves)
        self._bits = _int_buffer(bits)
        # The failure payload sits last, so leaf -1 indexes it.
        self._table = list(payloads) + [fail]
        self._leaf_tally: Optional[Dict[int, int]] = None
        self._bit_tally: Optional[Dict[int, int]] = None

    def __len__(self) -> int:
        return len(self._leaves)

    # -- list views ------------------------------------------------------

    @property
    def values(self) -> List[object]:
        """The sampled values, one per sample (a cached ``list``)."""
        if self._values is None:
            table = self._table
            if _np is not None and isinstance(self._leaves, _np.ndarray):
                objects = _np.empty(len(table), dtype=object)
                for index, payload in enumerate(table):
                    objects[index] = payload
                self._values = objects[self._leaves].tolist()
            else:
                self._values = list(map(table.__getitem__, self._leaves))
        return self._values

    @property
    def bits(self) -> List[int]:
        """Fair bits consumed, one count per sample (a cached ``list``)."""
        if self._bit_list is None:
            self._bit_list = self._bits.tolist()
        return self._bit_list

    # -- histograms ------------------------------------------------------

    def payload_counts(self) -> List[Tuple[object, int]]:
        """``(value, count)`` per distinct leaf, in leaf order.

        Equal values from different leaves stay separate entries, so
        this needs no hashing; :meth:`histogram` merges them.
        """
        if self._leaf_tally is None:
            self._leaf_tally = _tally(self._leaves, offset=1)
        table = self._table
        return [(table[leaf], count)
                for leaf, count in self._leaf_tally.items()]

    def histogram(self) -> Dict[object, int]:
        """Sample count per distinct value (``Counter(values)``'s
        counts)."""
        counts: Dict[object, int] = {}
        for value, count in self.payload_counts():
            counts[value] = counts.get(value, 0) + count
        return counts

    def bit_histogram(self) -> Dict[int, int]:
        """Sample count per distinct bit count, ascending."""
        if self._bit_tally is None:
            self._bit_tally = _tally(self._bits)
        return self._bit_tally

    def total_bits(self) -> int:
        """Fair bits consumed by all samples together."""
        return sum(b * count for b, count in self.bit_histogram().items())

    # -- value statistics ------------------------------------------------

    def numeric(self) -> List[float]:
        """Values as floats (booleans count as 0/1)."""
        return [float(v) for v in self.values]

    def moments(
        self, numeric: Callable[[object], float] = float
    ) -> Tuple[float, float]:
        """Mean and population standard deviation of ``numeric(value)``;
        ``numeric`` runs once per distinct leaf."""
        pairs = [(numeric(value), count)
                 for value, count in self.payload_counts()]
        n = len(self)
        mu = math.fsum(x * count for x, count in pairs) / n
        var = math.fsum(count * (x - mu) ** 2 for x, count in pairs) / n
        return mu, math.sqrt(var)

    def mean(self) -> float:
        return self.moments()[0]

    def std(self) -> float:
        """Population standard deviation of the sampled values."""
        return self.moments()[1]

    def counts(self) -> Counter:
        return Counter(self.histogram())

    # -- entropy statistics ----------------------------------------------

    def mean_bits(self) -> float:
        return self.total_bits() / len(self)

    def std_bits(self) -> float:
        # Exact integer sums: the variance is rounded once.
        n = len(self)
        hist = self.bit_histogram()
        s1 = sum(b * count for b, count in hist.items())
        s2 = sum(b * b * count for b, count in hist.items())
        return math.sqrt((n * s2 - s1 * s1) / (n * n))


def _intern(values: List[object]) -> Tuple[List[object], Sequence[int]]:
    """A payload table and leaf indices for a list of values.

    Values are keyed by type as well as value, so ``True`` and ``1``
    stay separate leaves; unhashable values get one leaf per sample.
    """
    index: Dict[object, int] = {}
    payloads: List[object] = []
    leaves: List[int] = []
    try:
        for value in values:
            key = (value.__class__, value)
            leaf = index.get(key)
            if leaf is None:
                leaf = index[key] = len(payloads)
                payloads.append(value)
            leaves.append(leaf)
    except TypeError:
        return list(values), range(len(values))
    return payloads, leaves


def collect(
    tree: ITree,
    n: int,
    seed: Optional[int] = None,
    extract: Callable[[object], object] = None,
    fuel: Optional[int] = None,
    source: Optional[BitSource] = None,
) -> SampleSet:
    """Draw ``n`` samples; ``extract`` post-processes each terminal value
    (e.g. projecting one variable out of a terminal program state).

    ``tree`` may also be a batch-engine ``NodeTable`` or ``BatchSampler``
    (see :mod:`repro.engine`), in which case sampling is routed through
    the vectorized batch driver instead of the per-sample trampoline --
    or a cpGCL ``Command``/pipeline ``CompiledProgram``, compiled through
    the staged pipeline (:mod:`repro.compiler`) with its
    content-addressed cache.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    if not isinstance(tree, ITree):
        from repro.engine.api import BatchSampler
        from repro.engine.table import NodeTable
        from repro.lang.syntax import Command

        from repro.compiler.pipeline import CompiledProgram, compile_program

        if isinstance(tree, Command):
            tree = compile_program(tree).table
        elif isinstance(tree, CompiledProgram):
            tree = tree.table
        if isinstance(tree, NodeTable):
            tree = BatchSampler(tree)
        if isinstance(tree, BatchSampler):
            return tree.collect(
                n, seed=seed, source=source, extract=extract, fuel=fuel
            )
    counting = CountingBits(source if source is not None else SystemBits(seed))
    values: List[object] = []
    bits: List[int] = []
    for _ in range(n):
        value = run_itree(tree, counting, fuel)
        values.append(extract(value) if extract is not None else value)
        bits.append(counting.take_count())
    return SampleSet(values, bits)
