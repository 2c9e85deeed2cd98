"""``Pipeline``: the staged compiler (normalize -> analyze -> build ->
optimize -> lower).

The seed ran Definition 3.13 as ad-hoc function calls
(``compile_cpgcl`` -> ``elim_choices`` -> ``debias`` -> ``lower_cftree``)
scattered across every entry point.  The pipeline makes the stages
explicit, named, and inspectable:

- **normalize** -- intern the command and initial state to canonical
  representatives (structural hashing, :mod:`repro.compiler.normalize`)
  and derive the content digest that keys the compilation cache;
- **analyze** -- command passes such as dead-branch pruning
  (:mod:`repro.compiler.passes`);
- **build** -- CF-tree construction (Definition 3.5);
- **optimize** -- run the registered pass list
  (:mod:`repro.compiler.passes`);
- **lower** -- DAG-aware :class:`~repro.engine.table.NodeTable`
  emission: hash-consed row allocation, a bounded eager expansion of
  loop entries, and a compaction that threads jumps and merges
  congruent rows.

``compile`` returns a :class:`CompiledProgram`: the final tree, the
node table, and a ``stats`` dict with per-stage seconds and row counts;
``measure_raw=True`` adds the stage report's DAG node counts and raw
row delta (the CLI's ``compile`` subcommand renders it).  Results are
cached by content digest -- in memory and, when configured, on disk --
so repeated ``BatchSampler.from_command`` calls, CLI invocations,
harness rows, and MCMC replays across processes reuse compiled
artifacts.
"""

import time
from typing import Dict, List, Optional, Tuple

from repro.cftree.compile import compile_cache_stats, compile_cpgcl
from repro.cftree.tree import CFTree, Choice, Fix
from repro.compiler.cache import CompilationCache, get_cache
from repro.compiler.digest import Undigestable, fingerprint, program_digest
from repro.compiler.normalize import (
    normalize_command,
    normalize_state,
    normalize_stats,
)
from repro.compiler.passes import (
    DEFAULT_COMMAND_PASSES,
    DEFAULT_PASSES,
    PassContext,
    resolve_command_passes,
    resolve_passes,
)
from repro.engine.table import NodeTable
from repro.lang.state import State
from repro.lang.syntax import Command

#: Default bound on build-time loop-entry expansions.  Expansions beyond
#: the bound happen lazily during sampling exactly as before; the eager
#: budget just gives compaction a representative table to shrink.
EAGER_EXPAND_DEFAULT = 1024


def dag_size(tree: CFTree, unfold_fix: bool = True) -> int:
    """Distinct nodes reachable from ``tree``, shared subtrees counted once.

    The metric the stage report (``measure_raw=True``) gives per pass:
    ``tree_size`` counts tree paths, which double-counts shared subtrees
    and hides exactly what CSE buys.  With ``unfold_fix`` each ``Fix``
    is unfolded one step at its entry state (the same evaluation eager
    lowering performs), so loop bodies contribute; the unfolding
    terminates because a loop's body tree never contains the loop's own
    ``Fix`` node again (leaves re-enter it through the lowering memo
    instead).
    """
    seen = set()
    stack = [tree]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += 1
        if isinstance(node, Choice):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Fix) and unfold_fix:
            if node.guard(node.init):
                stack.append(node.body(node.init))
            else:
                stack.append(node.cont(node.init))
    return count


class CompiledProgram:
    """The pipeline's artifact: final tree, node table, per-stage stats."""

    __slots__ = (
        "command",
        "sigma",
        "coalesce",
        "passes",
        "tree",
        "table",
        "digest",
        "stats",
        "source",
    )

    def __init__(self, command, sigma, coalesce, passes, tree, table,
                 digest, stats, source="built"):
        self.command = command
        self.sigma = sigma
        self.coalesce = coalesce
        self.passes = tuple(passes)
        self.tree = tree  # None when rehydrated from the disk cache
        self.table = table
        self.digest = digest
        self.stats = stats
        # "built" = constructed in this process, "disk" = rehydrated
        # from the on-disk tier.  In-memory cache hits return the
        # original object (source unchanged); observe hit counts through
        # CompilationCache.stats() instead.
        self.source = source

    # -- sampling --------------------------------------------------------

    def sampler(self, tied: bool = True):
        """A :class:`~repro.engine.api.BatchSampler` over the table."""
        from repro.engine.api import BatchSampler

        return BatchSampler(self.table, tied=tied)

    def collect(self, n, **kwargs):
        return self.sampler().collect(n, **kwargs)

    def sample(self, source, max_steps=None):
        return self.sampler().sample(source, max_steps)

    # -- disk round-trip -------------------------------------------------

    def disk_payload(self) -> Optional[dict]:
        """A marshal-safe record, or None when the table is unspillable.

        Closed tables serialize as plain row arrays.  *Open* tables --
        warm loop-state spaces mid-expansion -- freeze through
        :mod:`repro.engine.freeze`: rows plus every keyed memo entry,
        pending stub, and call record as content-digest triples.  Payload
        values go through freeze's tagged value encoding either way;
        one it cannot encode raises ``FreezeUnsupported`` (a
        ``ValueError``), which the cache counts as a store failure.
        """
        from repro.engine.freeze import encode_value, freeze_table

        table = self.table
        common = {
            "digest": self.digest,
            "coalesce": self.coalesce,
            "passes": self.passes,
            "stats": self.stats,
        }
        if table.pending_stubs or table.calls:
            frozen = freeze_table(table)
            if frozen is None:
                return None
            common["open"] = frozen
            return common
        common.update(
            {
                "max_nodes": table.max_nodes,
                "op": list(table.op),
                "a": list(table.a),
                "b": list(table.b),
                "payload": list(table.payload),
                "payloads": [encode_value(v) for v in table.payloads],
                "root": table.root,
            }
        )
        return common

    @classmethod
    def from_disk_payload(cls, payload: dict) -> "CompiledProgram":
        from repro.engine.freeze import decode_value, thaw_table

        if "open" in payload:
            table = thaw_table(payload["open"])
        else:
            table = NodeTable(payload["max_nodes"])
            table.op = list(payload["op"])
            table.a = list(payload["a"])
            table.b = list(payload["b"])
            table.payload = list(payload["payload"])
            table.payloads = [decode_value(v) for v in payload["payloads"]]
            table.root = payload["root"]
            table.version = 1
        stats = dict(payload.get("stats") or {})
        return cls(
            command=None,
            sigma=None,
            coalesce=payload["coalesce"],
            passes=payload["passes"],
            tree=None,
            table=table,
            digest=payload["digest"],
            stats=stats,
            source="disk",
        )

    def __repr__(self):
        return "CompiledProgram(%s, %d rows, passes=%s, source=%s)" % (
            (self.digest or "<undigestable>")[:12],
            len(self.table),
            "+".join(self.passes),
            self.source,
        )


class Pipeline:
    """A configured staged compiler; cheap to construct, safe to share.

    Every compile runs one stage sequence: analyze -> build -> optimize
    (:meth:`_stages`, also what rebinds a thawed open table on a disk
    hit), then lower -> store (:meth:`_emit`).  ``stats`` always carries
    the per-stage seconds, row counts and pruned sites; DAG node counts
    (``dag_size``) and the raw-lowering row delta are stage-report data,
    computed only when a caller passes ``measure_raw=True``.
    """

    def __init__(
        self,
        passes: Tuple[str, ...] = DEFAULT_PASSES,
        coalesce: str = "loopback",
        max_nodes: int = 2_000_000,
        eager_expand: int = EAGER_EXPAND_DEFAULT,
        cache: Optional[CompilationCache] = None,
        use_cache: bool = True,
        command_passes: Tuple[str, ...] = DEFAULT_COMMAND_PASSES,
    ):
        self.pass_names = tuple(passes)
        self.passes = resolve_passes(passes)
        self.command_pass_names = tuple(command_passes)
        self.command_passes = resolve_command_passes(command_passes)
        self.coalesce = coalesce
        self.max_nodes = max_nodes
        self.eager_expand = eager_expand
        self.use_cache = use_cache
        self._cache = cache
        # Table-shaping knobs beyond the core (program, coalesce,
        # passes, max_nodes) key -- part of every cache digest so
        # differently-configured pipelines never collide on one entry.
        # Row dedupe and compaction are always on; their fixed entries
        # keep the digest input, and so existing stores, unchanged.
        self._digest_options = (
            "dedupe", True,
            "eager_expand", eager_expand,
            "compact", True,
            "command_passes", self.command_pass_names,
        )

    @property
    def cache(self) -> CompilationCache:
        return self._cache if self._cache is not None else get_cache()

    # -- the stages ------------------------------------------------------

    def compile(
        self,
        command: Command,
        sigma: Optional[State] = None,
        measure_raw: bool = False,
    ) -> CompiledProgram:
        """Run all stages on ``(command, sigma)``.

        ``measure_raw=True`` asks for the stage report: it bypasses the
        cache lookup, records DAG node counts (``stats["build"]
        ["dag_nodes"]`` and each pass's ``dag_nodes_before``/
        ``dag_nodes_after``), and lowers the program a second time
        *without* the CSE/dedupe/compaction machinery to record the
        row-count delta under ``stats["lower"]["rows_raw"]`` (used by
        ``zar compile`` and the compiler benchmark).
        """
        sigma = sigma if sigma is not None else State()

        # normalize ------------------------------------------------------
        t0 = time.perf_counter()
        command = normalize_command(command)
        sigma = normalize_state(sigma)
        digest, undigestable = _digest_or_reason(
            lambda: program_digest(
                command, sigma, self.coalesce, self.pass_names,
                self.max_nodes, self._digest_options,
            )
        )
        normalize_seconds = time.perf_counter() - t0

        hit = self._lookup(
            digest, measure_raw, lambda: self._stages(command, sigma)[0]
        )
        if hit is not None:
            return hit

        stats = self._stats_head(digest, undigestable)
        stats["normalize"] = dict(normalize_stats(), seconds=normalize_seconds)
        tree, stage_stats = self._stages(command, sigma, measure_raw)
        stats.update(stage_stats)
        raw_source = (
            (lambda: compile_cpgcl(command, sigma, self.coalesce))
            if measure_raw else None
        )
        return self._emit(command, sigma, tree, digest, stats, raw_source)

    def compile_tree(
        self,
        tree: CFTree,
        key_parts: Optional[tuple] = None,
        measure_raw: bool = False,
    ) -> CompiledProgram:
        """Pipeline a pre-built CF tree (``uniform_tree``, categorical
        stick-breaking, ...) through optimize + lower.

        ``key_parts`` names the construction for content addressing when
        the tree itself is undigestable (rejection wrappers contain
        ``Fix`` closures): e.g. ``("uniform_tree", 6, "loopback")``.
        """
        keyed = (
            ("tree-key", tuple(key_parts)) if key_parts is not None
            else ("tree", tree)
        )
        digest, undigestable = _digest_or_reason(
            lambda: fingerprint(
                *keyed, self.coalesce, self.pass_names, self.max_nodes,
                self._digest_options,
            )
        )
        hit = self._lookup(
            digest, measure_raw, lambda: self._optimize(tree)[0]
        )
        if hit is not None:
            return hit

        stats = self._stats_head(digest, undigestable)
        optimized, stats["optimize"] = self._optimize(tree, measure_raw)
        raw_source = (lambda: tree) if measure_raw else None
        return self._emit(None, None, optimized, digest, stats, raw_source)

    # -- helpers ---------------------------------------------------------

    def _lookup(self, digest, measure_raw, rebind_tree):
        """The cached program for ``digest``, or None (a miss, no
        digest, caching off, or a ``measure_raw`` stage report).

        A thawed open table gets live closures from ``rebind_tree()``;
        its expansions are *not* redone -- that is the whole point of
        the spill.
        """
        if digest is None or not self.use_cache or measure_raw:
            return None
        hit = self.cache.get(digest)
        if hit is not None and getattr(hit.table, "needs_rebind", False):
            t0 = time.perf_counter()
            tree = rebind_tree()
            hit.table.thaw_bind(tree)
            hit.tree = tree
            hit.stats["thaw"] = {
                "seconds": time.perf_counter() - t0,
                "rows": len(hit.table),
                "pending": hit.table.pending_stubs,
            }
        return hit

    def _stats_head(self, digest, undigestable) -> Dict[str, object]:
        return {
            "digest": digest,
            "undigestable": undigestable,
            "coalesce": self.coalesce,
            "passes": list(self.pass_names),
        }

    def _stages(self, command, sigma, measure=False):
        """analyze -> build -> optimize: the optimized tree for the
        normalized ``(command, sigma)`` and those stages' stats."""
        # analyze --------------------------------------------------------
        # Command passes (abstract-interpretation-driven rewrites such as
        # dead-branch pruning) run on the normalized command; the digest
        # covers them through ``command_passes`` in the options, so
        # cached artifacts remain keyed by the *source* program.
        t0 = time.perf_counter()
        analysis: Dict[str, object] = {
            "passes": list(self.command_pass_names),
        }
        build_command = command
        for entry in self.command_passes:
            build_command, info = entry.run(build_command, sigma)
            analysis.update(info)
        if build_command is not command:
            build_command = normalize_command(build_command)
        analysis["seconds"] = time.perf_counter() - t0

        # build ----------------------------------------------------------
        t0 = time.perf_counter()
        tree = compile_cpgcl(build_command, sigma, self.coalesce)
        build: Dict[str, object] = {"seconds": time.perf_counter() - t0}
        if measure:
            build["dag_nodes"] = dag_size(tree)

        # optimize -------------------------------------------------------
        tree, optimize = self._optimize(tree, measure)
        return tree, {"analysis": analysis, "build": build,
                      "optimize": optimize}

    def _optimize(self, tree, measure=False):
        """Run the pass list; one ``{name, seconds}`` record per pass,
        plus its DAG node counts before and after under ``measure``."""
        ctx = PassContext(coalesce=self.coalesce)
        records: List[dict] = []
        before = dag_size(tree) if measure else None
        for entry in self.passes:
            t0 = time.perf_counter()
            tree = entry.run(tree, ctx)
            record = {"name": entry.name, "seconds": time.perf_counter() - t0}
            if measure:
                after = dag_size(tree)
                record["dag_nodes_before"] = before
                record["dag_nodes_after"] = after
                before = after
            records.append(record)
        return tree, records

    def _emit(self, command, sigma, tree, digest, stats, raw_source):
        """lower -> store.  ``raw_source()``, when given, is the tree
        the ``rows_raw`` baseline lowers."""
        table, lower_stats = self._lower(tree)
        if raw_source is not None:
            rows_raw = self._raw_rows(raw_source())
            lower_stats["rows_raw"] = rows_raw
            lower_stats["reduction_pct"] = _reduction(rows_raw, len(table))
        stats["lower"] = lower_stats
        stats["cftree_cache"] = compile_cache_stats()

        program = CompiledProgram(
            command, sigma, self.coalesce, self.pass_names,
            tree, table, digest, stats,
        )
        if digest is not None and self.use_cache:
            self.cache.put(digest, program)
        return program

    def _lower(self, tree):
        t0 = time.perf_counter()
        table = NodeTable.from_cftree(tree, self.max_nodes)
        closed = table.expand_all(limit=self.eager_expand)
        removed = table.compact()
        return table, {
            "rows": len(table),
            "closed": closed,
            "expansions": table.expansions,
            "dedup_hits": table.dedup_hits,
            "compacted_rows": removed,
            "seconds": time.perf_counter() - t0,
        }

    def _raw_rows(self, tree) -> int:
        """Rows of the baseline lowering: the pass list *minus* the CSE
        pass, no row dedupe, no compaction, same expansion budget --
        what the ``rows_raw``/``reduction_pct`` stats compare against."""
        ctx = PassContext(coalesce=self.coalesce)
        raw_names = tuple(n for n in self.pass_names if n != "cse")
        for entry in resolve_passes(raw_names):
            tree = entry.run(tree, ctx)
        table = NodeTable.from_cftree(tree, self.max_nodes, dedupe=False)
        table.expand_all(limit=self.eager_expand)
        return len(table)


def _digest_or_reason(make_digest):
    """``(digest, None)``, or ``(None, reason)`` for an undigestable
    program (it then bypasses the cache)."""
    try:
        return make_digest(), None
    except Undigestable as err:
        return None, str(err)


def _reduction(raw: int, optimized: int) -> float:
    if raw <= 0:
        return 0.0
    return round(100.0 * (raw - optimized) / raw, 2)


#: The shared default pipeline behind ``BatchSampler.from_command`` etc.
_DEFAULT: Optional[Pipeline] = None


def default_pipeline() -> Pipeline:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Pipeline()
    return _DEFAULT


def compile_program(
    command: Command,
    sigma: Optional[State] = None,
    passes: Tuple[str, ...] = DEFAULT_PASSES,
    coalesce: str = "loopback",
    max_nodes: int = 2_000_000,
    use_cache: bool = True,
    measure_raw: bool = False,
) -> CompiledProgram:
    """Compile through a (possibly shared) pipeline.

    The default-configuration fast path reuses one ``Pipeline`` instance
    so every entry point shares the same compilation cache.
    ``measure_raw=True`` compiles afresh and returns the stage report
    (DAG node counts, raw row delta; see :meth:`Pipeline.compile`).
    """
    if (
        passes == DEFAULT_PASSES
        and coalesce == "loopback"
        and max_nodes == 2_000_000
        and use_cache
    ):
        pipeline = default_pipeline()
    else:
        pipeline = Pipeline(
            passes=passes,
            coalesce=coalesce,
            max_nodes=max_nodes,
            use_cache=use_cache,
        )
    return pipeline.compile(command, sigma, measure_raw=measure_raw)


def compile_tree(
    tree: CFTree,
    key_parts: Optional[tuple] = None,
    passes: Tuple[str, ...] = ("debias", "cse"),
    coalesce: str = "loopback",
    max_nodes: int = 2_000_000,
    use_cache: bool = True,
) -> CompiledProgram:
    """Pipeline a pre-built CF tree (see :meth:`Pipeline.compile_tree`)."""
    pipeline = Pipeline(
        passes=passes,
        coalesce=coalesce,
        max_nodes=max_nodes,
        use_cache=use_cache,
    )
    return pipeline.compile_tree(tree, key_parts=key_parts)
