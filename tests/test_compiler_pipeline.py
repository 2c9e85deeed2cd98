"""Tests for the staged compiler pipeline (repro.compiler, ISSUE 5).

Covers the pass manager (semantics preservation by differential
sampling, pass-order invariance where documented, CSE idempotence via a
Hypothesis sweep), the DAG-aware lowering (row deduplication, jump
threading, compaction), and the structural-key regression for the old
``(id(command), sigma)`` compile-cache scheme.
"""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.bits.source import CountingBits
from repro.cftree.compile import compile_cpgcl
from repro.cftree.debias import debias
from repro.cftree.elim import elim_choices
from repro.cftree.tree import Choice as TChoice, Fail, Fix, Leaf
from repro.compiler.cse import TreeInterner, cse
from repro.compiler.passes import (
    DEFAULT_PASSES,
    PASS_REGISTRY,
    PassContext,
    register_pass,
    resolve_passes,
)
from repro.compiler.pipeline import (
    EAGER_EXPAND_DEFAULT,
    CompiledProgram,
    Pipeline,
    compile_program,
    dag_size,
)
from repro.engine.pool import BitPool
from repro.engine.table import OP_JMP, NodeTable
from repro.itree.unfold import cpgcl_to_itree
from repro.lang.expr import Var
from repro.lang.state import State
from repro.lang.sugar import (
    dueling_coins,
    geometric_primes,
    hare_tortoise,
    n_sided_die,
)
from repro.lang.syntax import Assign, Seq, Skip, While
from repro.sampler.run import run_itree

from strategies import cf_trees, commands_with_loops

S0 = State()

PROGRAMS = [
    ("die6", n_sided_die(6), 300),
    ("dueling", dueling_coins(Fraction(2, 3)), 200),
    ("geometric", geometric_primes(Fraction(1, 2)), 150),
]

HEAVY_PROGRAMS = [
    ("hare_tortoise", hare_tortoise(Var("time") <= 10), 10),
]


def _stream(table, samples, seed, fuel=2_000_000):
    """Sequential (value, bits) pairs off a pooled source."""
    from repro.engine.api import BatchSampler

    sampler = BatchSampler(table)
    source = CountingBits(BitPool(seed))
    out = []
    for _ in range(samples):
        value = sampler.sample(source, fuel)
        out.append((value, source.take_count()))
    return out


def _reference_stream(command, samples, seed, fuel=2_000_000):
    tree = cpgcl_to_itree(command, S0)
    source = CountingBits(BitPool(seed))
    out = []
    for _ in range(samples):
        value = run_itree(tree, source, fuel)
        out.append((value, source.take_count()))
    return out


class TestPassManager:
    def test_registry_has_builtins(self):
        for name in ("elim_choices", "debias", "cse", "coalesce_leaves"):
            assert name in PASS_REGISTRY

    def test_unknown_pass_rejected(self):
        with pytest.raises(KeyError):
            resolve_passes(("no_such_pass",))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_pass("cse", lambda tree, ctx: tree)

    def test_custom_pass_registers_and_runs(self):
        calls = []

        def probe(tree, ctx):
            calls.append(ctx.coalesce)
            return tree

        register_pass("probe_pass", probe, replace=True)
        try:
            pipeline = Pipeline(
                passes=("elim_choices", "probe_pass", "debias", "cse"),
                use_cache=False,
            )
            program = pipeline.compile(n_sided_die(4))
            assert calls == ["loopback"]
            names = [r["name"] for r in program.stats["optimize"]]
            assert names == ["elim_choices", "probe_pass", "debias", "cse"]
        finally:
            PASS_REGISTRY.pop("probe_pass", None)

    @pytest.mark.parametrize(
        "name,command,samples", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    def test_pipeline_bit_exact_vs_trampoline(self, name, command, samples):
        """Acceptance: samples through the full pipeline (all passes,
        dedupe, compaction) are bit-for-bit the trampoline's."""
        program = compile_program(command, use_cache=False)
        assert _stream(program.table, samples, seed=23) == _reference_stream(
            command, samples, seed=23
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name,command,samples", HEAVY_PROGRAMS,
        ids=[p[0] for p in HEAVY_PROGRAMS],
    )
    def test_pipeline_bit_exact_heavy(self, name, command, samples):
        program = compile_program(command, use_cache=False)
        assert _stream(program.table, samples, seed=5) == _reference_stream(
            command, samples, seed=5
        )

    @pytest.mark.parametrize(
        "name,command,samples", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    def test_cse_pass_is_bit_invisible(self, name, command, samples):
        """Differential sampling pre/post the CSE pass: hash-consing
        only aliases equal subtrees, so the sample stream is unchanged
        bit for bit (unlike e.g. coalesce_leaves, which merges choices
        and *reduces* bit consumption)."""
        with_cse = Pipeline(
            passes=("elim_choices", "debias", "cse"), use_cache=False
        ).compile(command)
        # The reference is the raw-rows baseline: no CSE, no row
        # dedupe, eager expansion, no compaction.
        tree = compile_cpgcl(command, S0)
        ctx = PassContext(coalesce="loopback")
        for entry in resolve_passes(("elim_choices", "debias")):
            tree = entry.run(tree, ctx)
        without = NodeTable.from_cftree(tree, dedupe=False)
        without.expand_all(limit=EAGER_EXPAND_DEFAULT)
        assert _stream(with_cse.table, samples, seed=91) == _stream(
            without, samples, seed=91
        )

    @pytest.mark.parametrize(
        "name,command,samples", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    def test_pass_order_invariance_documented(self, name, command, samples):
        """Running CSE early (then again last) must not change samples:
        cse commutes with elim_choices/debias up to sharing."""
        default = Pipeline(passes=DEFAULT_PASSES, use_cache=False).compile(
            command
        )
        reordered = Pipeline(
            passes=("cse", "elim_choices", "debias", "cse"), use_cache=False
        ).compile(command)
        assert _stream(default.table, samples, seed=7) == _stream(
            reordered.table, samples, seed=7
        )

    def test_elim_choices_preserves_distribution(self):
        """elim_choices changes the bit stream (it deletes flips) but
        not the outcome distribution; exact check on a loop-free tree
        with duplicated branches."""
        from repro.cftree.semantics import twp

        tree = TChoice(
            Fraction(1, 3),
            TChoice(Fraction(1, 2), Leaf(1), Leaf(1)),
            TChoice(Fraction(1, 4), Leaf(2), Leaf(3)),
        )
        eliminated = elim_choices(tree)
        for outcome in (1, 2, 3):
            f = lambda v, o=outcome: 1 if v == o else 0
            assert twp(tree, f) == twp(eliminated, f)


class TestCSE:
    def test_shares_equal_subtrees(self):
        half = Fraction(1, 2)
        left = TChoice(half, Leaf(1), Leaf(2))
        right = TChoice(half, Leaf(1), Leaf(2))
        shared = cse(TChoice(half, left, right))
        assert shared.left is shared.right

    def test_interner_scopes_sharing_across_trees(self):
        interner = TreeInterner()
        a = cse(TChoice(Fraction(1, 2), Leaf(1), Leaf(2)), interner)
        b = cse(TChoice(Fraction(1, 2), Leaf(1), Leaf(2)), interner)
        assert a is b

    def test_fail_is_interned(self):
        tree = TChoice(Fraction(1, 2), Fail(), Fail())
        shared = cse(tree)
        assert shared.left is shared.right

    def test_bool_and_int_leaves_stay_distinct(self):
        # Leaf(True) == Leaf(1) under structural equality, but the
        # interner keys on (type, value) and must not conflate payloads.
        tree = TChoice(Fraction(1, 2), Leaf(True), Leaf(1))
        shared = cse(tree)
        assert shared.left.value is True
        assert shared.right.value == 1
        assert not isinstance(shared.right.value, bool)

    def test_fix_interns_through_generators(self):
        # Loop-body trees produced lazily by a cse'd Fix are interned in
        # the same scope as the rest of the tree.
        interner = TreeInterner()
        body_tree = TChoice(Fraction(1, 2), Leaf(1), Leaf(2))
        fix = Fix(0, lambda s: s == 0, lambda s: body_tree, Leaf)
        wrapped = cse(fix, interner)
        assert isinstance(wrapped, Fix)
        assert wrapped.body(0) is cse(body_tree, interner)

    @settings(max_examples=60, deadline=None)
    @given(tree=cf_trees())
    def test_idempotent_on_fix_free_trees(self, tree):
        once = cse(tree)
        twice = cse(once)
        assert twice == once

    @settings(max_examples=40, deadline=None)
    @given(command=commands_with_loops())
    def test_idempotent_under_one_interner(self, command):
        # With Fix nodes equality is identity, so idempotence is stated
        # per interner: re-interning a canonical tree is the identity.
        tree = debias(elim_choices(compile_cpgcl(command, S0)))
        interner = TreeInterner()
        once = cse(tree, interner)
        assert cse(once, interner) is once


class TestLowering:
    def test_die_row_reduction_meets_bar(self):
        """Acceptance: >= 20% node-table row reduction on the Table 3
        die from the hash-consing/CSE stage (tree CSE + row dedup +
        jump-threading compaction)."""
        program = Pipeline(use_cache=False).compile(
            n_sided_die(6), measure_raw=True
        )
        lower = program.stats["lower"]
        assert lower["rows_raw"] > lower["rows"]
        assert lower["reduction_pct"] >= 20.0

    def test_dueling_row_reduction(self):
        program = Pipeline(use_cache=False).compile(
            dueling_coins(Fraction(2, 3)), measure_raw=True
        )
        assert program.stats["lower"]["reduction_pct"] >= 20.0

    def test_compaction_threads_all_jumps_when_closed(self):
        program = Pipeline(use_cache=False).compile(n_sided_die(6))
        stats = program.table.stats()
        assert stats["stub"] == 0
        assert stats["jmp"] == 0  # every jump threaded away

    def test_open_table_keeps_expanding_after_compact(self):
        # geometric_primes has an unbounded loop-state space: the build
        # expands a bounded prefix, compacts, and later samples must
        # still be able to grow the table through pending stubs.
        command = geometric_primes(Fraction(1, 2))
        program = Pipeline(
            eager_expand=32, use_cache=False
        ).compile(command)
        assert program.table.pending_stubs > 0
        assert _stream(program.table, 100, seed=3) == _reference_stream(
            command, 100, seed=3
        )

    def test_compact_is_idempotent(self):
        program = Pipeline(use_cache=False).compile(n_sided_die(6))
        assert program.table.compact() == 0

    def test_row_dedupe_at_allocation(self):
        # Two structurally equal leaves lower to one row when dedupe is
        # on, two rows otherwise.
        tree = TChoice(Fraction(1, 2), Leaf(5), Leaf(5))
        deduped = NodeTable.from_cftree(tree, dedupe=True)
        plain = NodeTable.from_cftree(tree, dedupe=False)
        assert len(deduped) < len(plain)
        assert deduped.dedup_hits >= 1

    def test_divergent_self_jump_survives_compaction(self):
        # while true { skip } lowers to a pure jump cycle; compaction
        # must keep it (and not hang or corrupt the table).
        from repro.lang.expr import TRUE
        from repro.sampler.run import FuelExhausted

        program = Pipeline(use_cache=False).compile(While(TRUE, Skip()))
        table = program.table
        assert any(op == OP_JMP for op in table.op)
        with pytest.raises(FuelExhausted):
            _stream(table, 1, seed=0, fuel=50)

    def test_dag_size_counts_shared_once(self):
        leaf = Leaf(1)
        shared = TChoice(Fraction(1, 2), leaf, leaf)
        duplicated = TChoice(Fraction(1, 2), Leaf(1), Leaf(1))
        assert dag_size(shared) == 2
        assert dag_size(duplicated) == 3


class TestStageReport:
    """DAG node counts are stage-report data: computed under
    ``measure_raw=True`` only, never on a default compile or a rebind."""

    @pytest.fixture
    def dag_calls(self, monkeypatch):
        import repro.compiler.pipeline as pipeline_module

        calls = []

        def counting(tree, unfold_fix=True):
            calls.append(tree)
            return dag_size(tree, unfold_fix)

        monkeypatch.setattr(pipeline_module, "dag_size", counting)
        return calls

    def test_default_compile_counts_nothing(self, dag_calls):
        program = Pipeline(use_cache=False).compile(n_sided_die(6))
        assert dag_calls == []
        assert "dag_nodes" not in program.stats["build"]
        for record in program.stats["optimize"]:
            assert set(record) == {"name", "seconds"}

    def test_disk_hit_compile_rebind_counts_nothing(self, tmp_path,
                                                    dag_calls):
        from repro.compiler.cache import CompilationCache

        command = geometric_primes(Fraction(1, 2))
        Pipeline(
            eager_expand=16, cache=CompilationCache(disk_dir=str(tmp_path))
        ).compile(command)
        fresh = Pipeline(
            eager_expand=16, cache=CompilationCache(disk_dir=str(tmp_path))
        )
        loaded = fresh.compile(command)
        assert loaded.source == "disk"
        assert "thaw" in loaded.stats
        assert not loaded.table.needs_rebind
        assert dag_calls == []
        assert _stream(loaded.table, 100, seed=3) == _reference_stream(
            command, 100, seed=3
        )

    def test_disk_hit_compile_tree_rebind_counts_nothing(self, tmp_path,
                                                         dag_calls):
        from repro.compiler.cache import CompilationCache

        def tree():
            return compile_cpgcl(geometric_primes(Fraction(1, 2)), S0)

        key = ("geometric_primes", "1/2")
        built = Pipeline(
            passes=("debias", "cse"), eager_expand=16,
            cache=CompilationCache(disk_dir=str(tmp_path)),
        ).compile_tree(tree(), key_parts=key)
        assert built.table.pending_stubs > 0
        fresh = Pipeline(
            passes=("debias", "cse"), eager_expand=16,
            cache=CompilationCache(disk_dir=str(tmp_path)),
        )
        loaded = fresh.compile_tree(tree(), key_parts=key)
        assert loaded.source == "disk"
        assert "thaw" in loaded.stats
        assert not loaded.table.needs_rebind
        assert dag_calls == []
        assert _stream(loaded.table, 100, seed=3) == _stream(
            built.table, 100, seed=3
        )

    @pytest.mark.parametrize("command,build,rows,raw", [
        (n_sided_die(6), 14, 12, 19),
        (dueling_coins(Fraction(2, 3)), 8, 18, 42),
    ], ids=["die6", "dueling"])
    def test_measure_raw_reports_dag_counts(self, command, build, rows, raw,
                                            dag_calls):
        program = Pipeline(use_cache=False).compile(command,
                                                    measure_raw=True)
        stats = program.stats
        assert stats["build"]["dag_nodes"] == build
        assert [
            (r["name"], r["dag_nodes_before"], r["dag_nodes_after"])
            for r in stats["optimize"]
        ] == [(name, build, build) for name in DEFAULT_PASSES]
        assert (stats["lower"]["rows"], stats["lower"]["rows_raw"]) == (
            rows, raw
        )
        assert dag_calls


class TestStructuralCompileCache:
    """Regression for the seed's ``(id(command), sigma)`` memo keys."""

    def test_equal_commands_share_compiled_tree(self):
        # Two structurally equal but distinct command objects must hit
        # the same cache entry -- impossible under id-keying.
        a = Seq(Assign("x", 3), Assign("y", Var("x")))
        b = Seq(Assign("x", 3), Assign("y", Var("x")))
        assert a is not b
        assert compile_cpgcl(a, S0) is compile_cpgcl(b, S0)

    def test_id_reuse_cannot_cross_contaminate(self):
        # Churn through many short-lived distinct programs so the
        # allocator aggressively reuses addresses; every compile must
        # reflect its own program, never a stale entry whose keyed
        # address was recycled.
        for i in range(200):
            command = Seq(Assign("x", i), Assign("y", i + 1))
            tree = compile_cpgcl(command, S0)
            assert isinstance(tree, Leaf)
            assert tree.value["x"] == i
            assert tree.value["y"] == i + 1
            del command, tree
            if i % 50 == 0:
                gc.collect()

    def test_distinct_states_distinct_entries(self):
        command = Assign("y", Var("x"))
        t1 = compile_cpgcl(command, State(x=1))
        t2 = compile_cpgcl(command, State(x=2))
        assert t1.value["y"] == 1
        assert t2.value["y"] == 2

    def test_interner_fast_path_is_bounded(self):
        # Loop-heavy sampling interns a fresh (structurally recurring)
        # object per iteration: the id-keyed fast path pins its keys, so
        # it must be bounded independently of the structural table.
        from repro.compiler.normalize import Interner

        interner = Interner(capacity=64)
        for i in range(1000):
            interner.intern(State(x=1))
        assert len(interner._by_id) <= 64

    def test_interner_overflow_keeps_recent_canonicals(self):
        # Overflow drops the *oldest half* instead of clearing: a full
        # clear would change the identity of every canonical object at
        # once and cold-start each downstream id-keyed memo.
        from repro.compiler.normalize import Interner

        interner = Interner(capacity=8)
        recent = [State(x=i) for i in range(4, 8)]
        for i in range(8):
            interner.intern(State(x=i))
        interner.intern(State(x=99))  # triggers the half-drop
        for state in recent:
            canonical = interner.intern(State(x=state["x"]))
            # Recent canonicals kept their identity across the drop.
            assert canonical is interner.intern(State(x=state["x"]))
        assert len(interner._canon) <= 8

    def test_interner_identity_stable_for_live_canonicals(self):
        # The id-recycling regression: after heavy churn, an object the
        # caller still holds must keep interning to ITSELF -- if the
        # table dropped it while a dead object's id got recycled into
        # the fast path, a live key could alias a stale canonical.
        from repro.compiler.normalize import Interner

        interner = Interner(capacity=32)
        keeper = interner.intern(State(x=-1))
        for i in range(200):
            interner.intern(State(x=i))  # churn through several drops
        again = interner.intern(State(x=-1))
        assert again == keeper
        assert interner.intern(keeper) is interner.intern(keeper)


class TestCompiledProgram:
    def test_stats_shape(self):
        program = compile_program(n_sided_die(6))
        assert isinstance(program, CompiledProgram)
        assert program.digest
        assert [r["name"] for r in program.stats["optimize"]] == list(
            DEFAULT_PASSES
        )
        lower = program.stats["lower"]
        assert lower["rows"] == len(program.table)
        memo = program.stats["cftree_cache"]
        assert memo["hits"] >= 0 and memo["capacity"] > 0

    def test_collect_roundtrip(self):
        program = compile_program(n_sided_die(6))
        samples = program.collect(500, seed=11, extract=lambda s: s["x"])
        assert len(samples) == 500
        assert set(samples.values) <= set(range(1, 7))

    def test_sampler_entry_points_share_cached_table(self):
        from repro.engine.api import BatchSampler

        first = BatchSampler.from_command(n_sided_die(6))
        second = BatchSampler.from_command(n_sided_die(6))
        assert first.table is second.table
