"""Tests for content digests and the compilation cache (repro.compiler).

Covers digest stability/sensitivity, the in-memory LRU tier, the
on-disk tier (round trip, corruption tolerance, format gating), and the
configurable bounds + hit/miss counters of both the artifact cache and
the cftree memo caches (ISSUE 5 satellites).
"""

import os
import pickle

import pytest
from fractions import Fraction

from repro.bits.source import CountingBits
from repro.cftree.cache import BoundedCache, default_capacity
from repro.cftree.compile import compile_cache_stats, set_compile_cache_capacity
from repro.compiler.cache import CompilationCache
from repro.compiler.digest import Undigestable, fingerprint, program_digest
from repro.compiler.pipeline import Pipeline, compile_program
from repro.engine.pool import BitPool
from repro.lang.expr import Opaque, Var
from repro.lang.state import State
from repro.lang.sugar import dueling_coins, n_sided_die
from repro.lang.syntax import Assign, Choice, Seq, Skip

S0 = State()


class TestDigest:
    def test_equal_programs_equal_digest(self):
        a = program_digest(n_sided_die(6), S0, "loopback", ("cse",), 100)
        b = program_digest(n_sided_die(6), S0, "loopback", ("cse",), 100)
        assert a == b

    def test_distinct_programs_distinct_digest(self):
        base = program_digest(n_sided_die(6), S0, "loopback", ("cse",), 100)
        assert base != program_digest(
            n_sided_die(7), S0, "loopback", ("cse",), 100
        )
        assert base != program_digest(
            n_sided_die(6), State(x=1), "loopback", ("cse",), 100
        )
        assert base != program_digest(
            n_sided_die(6), S0, "full", ("cse",), 100
        )
        assert base != program_digest(
            n_sided_die(6), S0, "loopback", ("debias", "cse"), 100
        )

    def test_concatenation_cannot_collide(self):
        assert fingerprint("ab", "c") != fingerprint("a", "bc")
        assert fingerprint(("ab",)) != fingerprint(("a", "b"))

    def test_bool_int_distinct(self):
        assert fingerprint(True) != fingerprint(1)

    def test_opaque_is_undigestable(self):
        opaque = Opaque(lambda sigma: 1, label="f")
        with pytest.raises(Undigestable):
            fingerprint(Assign("x", opaque))

    def test_undigestable_program_still_compiles(self):
        command = Seq(Assign("x", Opaque(lambda sigma: 4, label="f")), Skip())
        program = compile_program(command, use_cache=False)
        assert program.digest is None
        assert program.stats["undigestable"]
        assert program.collect(10, seed=0).values[0]["x"] == 4

    def test_all_command_forms_digest(self):
        from repro.lang.sugar import geometric_primes, hare_tortoise, laplace

        for command in (
            geometric_primes(Fraction(1, 3)),
            hare_tortoise(Var("time") <= 10),
            laplace("out", 1, 2),
        ):
            assert len(fingerprint(command)) == 64


class TestCompilationCache:
    def test_lru_eviction(self):
        cache = CompilationCache(capacity=2)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"  # refreshes a
        cache.put("c", "C")  # evicts b (least recent)
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"

    def test_counters(self):
        cache = CompilationCache(capacity=4)
        assert cache.get("missing") is None
        cache.put("k", "V")
        assert cache.get("k") == "V"
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["memory_hits"] == 1
        assert stats["stores"] == 1

    def test_env_capacity(self, monkeypatch):
        monkeypatch.setenv("ZAR_COMPILE_CACHE_SIZE", "7")
        assert CompilationCache().capacity == 7
        monkeypatch.setenv("ZAR_COMPILE_CACHE_SIZE", "junk")
        assert CompilationCache().capacity == 128

    def test_env_disk_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ZAR_COMPILE_CACHE_DIR", str(tmp_path))
        assert CompilationCache().disk_dir == str(tmp_path)

    def test_memory_reuse_within_process(self, tmp_path):
        cache = CompilationCache(capacity=8)
        pipeline = Pipeline(cache=cache)
        first = pipeline.compile(n_sided_die(6))
        second = pipeline.compile(n_sided_die(6))
        assert second is first
        assert cache.stats()["memory_hits"] == 1

    def test_table_shaping_options_are_part_of_the_key(self):
        # A pipeline with another eager-expansion budget must not
        # collide with (or poison) the default pipeline's cache entry.
        cache = CompilationCache(capacity=8)
        eager = Pipeline(cache=cache).compile(n_sided_die(6))
        lazy = Pipeline(cache=cache, eager_expand=0).compile(n_sided_die(6))
        assert lazy is not eager
        assert lazy.digest != eager.digest
        assert eager.table.pending_stubs == 0
        assert lazy.table.pending_stubs > 0


class TestDiskCache:
    def _pipeline(self, tmp_path, **kwargs):
        cache = CompilationCache(capacity=8, disk_dir=str(tmp_path))
        return Pipeline(cache=cache, **kwargs), cache

    def test_round_trip_across_processes(self, tmp_path):
        command = dueling_coins(Fraction(2, 3))
        pipeline, cache = self._pipeline(tmp_path)
        built = pipeline.compile(command)
        assert cache.stats()["disk_stores"] == 1

        # A fresh cache over the same directory simulates a new process.
        fresh, fresh_cache = self._pipeline(tmp_path)
        loaded = fresh.compile(command)
        assert loaded.source == "disk"
        assert fresh_cache.stats()["disk_hits"] == 1
        assert len(loaded.table) == len(built.table)

        # The rehydrated table samples identically.
        def stream(program):
            sampler = program.sampler()
            source = CountingBits(BitPool(13))
            return [
                (sampler.sample(source), source.take_count())
                for _ in range(200)
            ]

        assert stream(loaded) == stream(built)

    def test_open_tables_spill_to_disk(self, tmp_path):
        # Since the freeze/thaw layer (repro.engine.freeze), open tables
        # -- pending stubs and all -- spill as content-digest triples
        # and rehydrate in a fresh process.
        from repro.lang.sugar import geometric_primes

        pipeline, cache = self._pipeline(tmp_path, eager_expand=16)
        program = pipeline.compile(geometric_primes(Fraction(1, 2)))
        assert program.table.pending_stubs > 0
        assert cache.stats()["disk_stores"] == 1
        assert list(tmp_path.iterdir()) != []

        fresh, fresh_cache = self._pipeline(tmp_path, eager_expand=16)
        loaded = fresh.compile(geometric_primes(Fraction(1, 2)))
        assert loaded.source == "disk"
        assert not loaded.table.needs_rebind  # pipeline ran thaw_bind
        assert loaded.table.pending_stubs == program.table.pending_stubs

    def test_corrupt_file_is_a_miss(self, tmp_path):
        command = n_sided_die(6)
        pipeline, cache = self._pipeline(tmp_path)
        pipeline.compile(command)
        (artifact,) = list(tmp_path.iterdir())
        artifact.write_bytes(b"not a pickle")
        fresh, fresh_cache = self._pipeline(tmp_path)
        program = fresh.compile(command)
        assert program.source == "built"
        assert fresh_cache.stats()["disk_hits"] == 0

    def test_unsupported_pickle_protocol_is_dropped(self, tmp_path):
        # Garbage that pickle rejects with ValueError ("unsupported
        # pickle protocol: 200"): a miss that unlinks the entry, counted
        # as corrupt, then a fresh store.
        command = n_sided_die(6)
        pipeline, cache = self._pipeline(tmp_path)
        built = pipeline.compile(command)
        (artifact,) = list(tmp_path.iterdir())
        artifact.write_bytes(b"\x80\xc8garbage")
        fresh, fresh_cache = self._pipeline(tmp_path)
        assert fresh_cache.get(built.digest) is None
        assert not artifact.exists()
        assert fresh_cache.stats()["disk_corrupt"] == 1

        artifact.write_bytes(b"\x80\xc8garbage")
        fresh, fresh_cache = self._pipeline(tmp_path)
        program = fresh.compile(command)
        assert program.source == "built"
        stats = fresh_cache.stats()
        assert (stats["disk_hits"], stats["misses"]) == (0, 1)
        assert stats["disk_corrupt"] == 1
        assert stats["disk_stores"] == 1
        again, _ = self._pipeline(tmp_path)
        assert again.compile(command).source == "disk"

    def test_stale_format_is_a_miss(self, tmp_path):
        command = n_sided_die(6)
        pipeline, cache = self._pipeline(tmp_path)
        pipeline.compile(command)
        (artifact,) = list(tmp_path.iterdir())
        record = pickle.loads(artifact.read_bytes())
        record["format"] = -1
        artifact.write_bytes(pickle.dumps(record))
        fresh, _ = self._pipeline(tmp_path)
        assert fresh.compile(command).source == "built"

    def test_clear_disk(self, tmp_path):
        pipeline, cache = self._pipeline(tmp_path)
        pipeline.compile(n_sided_die(6))
        assert list(tmp_path.iterdir())
        cache.clear(disk=True)
        assert list(tmp_path.iterdir()) == []
        assert len(cache) == 0


class TestBoundedCacheConfig:
    def test_env_default_capacity(self, monkeypatch):
        monkeypatch.setenv("ZAR_CFTREE_CACHE_SIZE", "1234")
        assert default_capacity() == 1234
        assert BoundedCache().capacity == 1234
        from repro.cftree.cache import _DEFAULT_CAPACITY

        monkeypatch.setenv("ZAR_CFTREE_CACHE_SIZE", "-3")
        assert default_capacity() == _DEFAULT_CAPACITY
        monkeypatch.delenv("ZAR_CFTREE_CACHE_SIZE")
        assert default_capacity() == _DEFAULT_CAPACITY

    def test_resize_evicts_oldest(self):
        cache = BoundedCache(4)
        for key in "abcd":
            cache.put(key, (), key.upper())
        cache.resize(2)
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("d") == "D"

    def test_hit_miss_counters(self):
        cache = BoundedCache(4)
        cache.get("nope")
        cache.put("k", (), 1)
        cache.get("k")
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1

    def test_compile_cache_api(self):
        # The live compile memo exposes counters and can be rebounded.
        stats = compile_cache_stats()
        assert set(stats) == {"hits", "misses", "entries", "capacity"}
        original = stats["capacity"]
        try:
            set_compile_cache_capacity(50_000)
            assert compile_cache_stats()["capacity"] == 50_000
        finally:
            set_compile_cache_capacity(original)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BoundedCache(4).resize(0)
        with pytest.raises(ValueError):
            CompilationCache(capacity=0)


class TestCliPipelineStats:
    def test_compile_reports_stage_stats(self, tmp_path):
        from repro.cli import main
        import io

        source = tmp_path / "die.gcl"
        source.write_text("m <~ uniform(6);\nx := m + 1;\n")
        out = io.StringIO()
        code = main(["compile", str(source)], out=out)
        text = out.getvalue()
        assert code == 0
        assert (
            "pipeline (normalize -> analyze -> build -> optimize -> lower):"
            in text
        )
        assert "analyze:" in text
        assert "digest:" in text
        assert "pass cse:" in text
        assert "compile memo:" in text
        # The acceptance bar: the CSE stage shrinks the die's table by
        # >= 20% (raw 19 rows -> 12).
        import re

        match = re.search(r"raw (\d+), -([0-9.]+)%", text)
        assert match, text
        assert float(match.group(2)) >= 20.0

    def test_no_pipeline_flag(self, tmp_path):
        from repro.cli import main
        import io

        source = tmp_path / "die.gcl"
        source.write_text("m <~ uniform(6);\nx := m + 1;\n")
        out = io.StringIO()
        assert main(["compile", str(source), "--no-pipeline"], out=out) == 0
        assert "pipeline (" not in out.getvalue()

    def test_custom_pass_list(self, tmp_path):
        from repro.cli import main
        import io

        source = tmp_path / "die.gcl"
        source.write_text("m <~ uniform(6);\nx := m + 1;\n")
        out = io.StringIO()
        code = main(
            ["compile", str(source), "--passes", "debias,cse"], out=out
        )
        assert code == 0
        assert "pass debias:" in out.getvalue()
        assert "pass elim_choices:" not in out.getvalue()

    def test_unknown_pass_is_cli_error(self, tmp_path):
        from repro.cli import main
        import io

        source = tmp_path / "die.gcl"
        source.write_text("m <~ uniform(6);\nx := m + 1;\n")
        out = io.StringIO()
        code = main(["compile", str(source), "--passes", "bogus"], out=out)
        assert code == 1
        assert "bogus" in out.getvalue()
