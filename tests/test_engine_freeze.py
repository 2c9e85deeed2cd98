"""Freeze/thaw of open node tables (repro.engine.freeze, ISSUE 7).

The contract: a warm open table -- rows, memo, pending stubs, call
records -- spills to a marshal-safe record keyed entirely by content
digests, and a fresh process that thaws it samples **bit-for-bit**
identically to the original (sequential drivers) without redoing the
expansion work the original paid for its trajectories.
"""

import marshal
from fractions import Fraction

import pytest

from repro.compiler.cache import CompilationCache
from repro.compiler.liveness import narrow_command
from repro.compiler.pipeline import Pipeline
from repro.engine.freeze import (
    FreezeUnsupported,
    decode_value,
    encode_value,
    freeze_report,
    freeze_table,
    thaw_table,
    token_serializable,
)
from repro.engine.table import LoweringError, _CallRecord
from repro.lang.expr import Var
from repro.lang.state import State
from repro.lang.sugar import geometric_primes, hare_tortoise
from repro.cftree.tree import LOOPBACK

GEOMETRIC = geometric_primes(Fraction(1, 2))


def _collect(program, n, seed):
    """Sequential-backend samples: (values, bits) -- table-layout
    independent, so equality means bit-for-bit."""
    result = program.collect(
        n, seed=seed, extract=lambda s: s["x"], backend="python"
    )
    return result.values, result.bits


class TestTokens:
    def test_digest_strings_serializable(self):
        assert token_serializable("a" * 64)
        assert token_serializable("H")

    def test_loopk_chains_serializable(self):
        assert token_serializable(("K", "f" * 64, "H"))
        assert token_serializable(("K", "f" * 64, ("K", "g" * 64, "H")))

    def test_identity_fallbacks_not_serializable(self):
        assert not token_serializable(("@", 140234))
        assert not token_serializable(("#", 140234))
        assert not token_serializable(("K", ("@", 1), "H"))

    def test_none_not_serializable(self):
        assert not token_serializable(None)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -7,
            "s",
            Fraction(3, 7),
            (1, (2, "x"), Fraction(1, 2)),
            State(x=3, flag=True),
            State(),
        ],
        ids=repr,
    )
    def test_round_trip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert decoded.__class__ is value.__class__

    def test_loopback_sentinel_identity(self):
        # LOOPBACK is compared with ``is``; the codec must restore the
        # singleton, not a structural copy.
        assert decode_value(encode_value(LOOPBACK)) is LOOPBACK

    def test_bool_int_distinction_survives(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)).__class__ is int

    def test_unsupported_value_raises(self):
        with pytest.raises(FreezeUnsupported):
            encode_value(object())

    def test_encoded_blob_round_trips_through_marshal(self):
        blob = encode_value((LOOPBACK, State(x=1), Fraction(1, 3)))
        assert decode_value(marshal.loads(marshal.dumps(blob))) == (
            LOOPBACK,
            State(x=1),
            Fraction(1, 3),
        )


class TestFreezeReport:
    def test_warm_geometric_is_spillable(self):
        program = Pipeline(use_cache=False).compile(GEOMETRIC)
        program.collect(50, seed=3, backend="python")
        report = freeze_report(program.table)
        assert report["spillable"] is True
        assert report["pending_unkeyed"] == 0
        assert report["memo_keyed"] > 0

    def test_unkeyed_call_record_blocks_spill(self):
        program = Pipeline(use_cache=False).compile(GEOMETRIC)
        table = program.table
        table.calls.append(
            _CallRecord(None, None, {}, fix_token=("@", 1), k_token="H")
        )
        assert freeze_report(table)["spillable"] is False
        assert freeze_table(table) is None


class TestGeometricRoundTrip:
    def _spill_and_thaw(self, tmp_path, warm_batches):
        disk = str(tmp_path)
        cache = CompilationCache(capacity=8, disk_dir=disk)
        pipeline = Pipeline(cache=cache)
        program = pipeline.compile(GEOMETRIC)
        reference = [
            _collect(program, n, seed) for n, seed in warm_batches
        ]
        # Re-store to spill the *warm* table (compile() already stored
        # the cold one at the same digest).
        cache.put(program.digest, program)

        fresh = Pipeline(cache=CompilationCache(capacity=8, disk_dir=disk))
        thawed = fresh.compile(GEOMETRIC)
        assert thawed.source == "disk"
        return program, thawed, reference

    def test_bit_for_bit_across_processes(self, tmp_path):
        batches = [(100, 11), (100, 29)]
        program, thawed, reference = self._spill_and_thaw(tmp_path, batches)
        for (n, seed), want in zip(batches, reference):
            assert _collect(thawed, n, seed) == want

    def test_fresh_seed_matches_too(self, tmp_path):
        program, thawed, _ = self._spill_and_thaw(tmp_path, [(100, 11)])
        assert _collect(thawed, 100, seed=77) == _collect(
            program, 100, seed=77
        )

    def test_warm_trajectories_do_not_re_expand(self, tmp_path):
        batches = [(200, 11)]
        program, thawed, reference = self._spill_and_thaw(tmp_path, batches)
        before = thawed.table.expansions
        assert _collect(thawed, 200, seed=11) == reference[0]
        assert thawed.table.expansions == before

    def test_frozen_blob_is_digest_keyed(self, tmp_path):
        program = Pipeline(use_cache=False).compile(GEOMETRIC)
        program.collect(100, seed=5, backend="python")
        blob = freeze_table(program.table)
        assert blob is not None
        for index, fix_token, k_token, state in blob["pending"]:
            assert token_serializable(fix_token)
            assert token_serializable(k_token)
        # The record survives marshal (what the disk tier does).
        assert marshal.loads(marshal.dumps(blob)) == blob


class TestThawedTableGuards:
    def test_expand_without_rebind_raises(self):
        program = Pipeline(use_cache=False).compile(GEOMETRIC)
        program.collect(50, seed=3, backend="python")
        blob = freeze_table(program.table)
        table = thaw_table(blob)
        assert table.needs_rebind
        (index, entry) = next(iter(table._pending.items()))
        with pytest.raises(LoweringError):
            table.expand(index)

    def test_version_mismatch_rejected(self):
        program = Pipeline(use_cache=False).compile(GEOMETRIC)
        blob = freeze_table(program.table)
        blob["freeze_version"] = 999
        with pytest.raises(ValueError):
            thaw_table(blob)


class TestNarrowedHareRoundTrip:
    """The fig9b resume path: frame-separated OP_CALL rows, nested
    loops, and unkeyed debias wrappers all in one table."""

    COMMAND = narrow_command(
        hare_tortoise(Var("time") <= 10), observed=("t0", "time")
    )

    def _collect(self, program, n, seed):
        result = program.collect(
            n, seed=seed, extract=lambda s: s["t0"], backend="python"
        )
        return result.values, result.bits

    def test_bit_for_bit_resume(self, tmp_path):
        disk = str(tmp_path)
        cache = CompilationCache(capacity=8, disk_dir=disk)
        program = Pipeline(cache=cache).compile(self.COMMAND)
        warm = self._collect(program, 150, seed=23)
        fresh_ref = self._collect(program, 60, seed=91)
        assert program.table.calls, "expected frame-separated OP_CALLs"
        cache.put(program.digest, program)

        fresh = Pipeline(cache=CompilationCache(capacity=8, disk_dir=disk))
        thawed = fresh.compile(self.COMMAND)
        assert thawed.source == "disk"
        # Repeat-seed: warm trajectories, incl. lazy call-return
        # rebinding through content tokens.
        assert self._collect(thawed, 150, seed=23) == warm
        # Fresh-seed: new trajectories expand against restored memos.
        assert self._collect(thawed, 60, seed=91) == fresh_ref
