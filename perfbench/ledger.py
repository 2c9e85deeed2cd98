"""The benchmark's outside-in layer ledger.

Spans are recorded from the benchmark's own code: :class:`Instrument`
replaces public functions at the name the *calling* module looks up
(``repro.compiler.pipeline.compile_cpgcl``, not cftree's recursive
internals) with wrappers that open and close a span.  Spans stay in
memory; after each op :func:`summarize` turns them into per-name self
time (span minus its direct child spans), inclusive time (re-entrant
spans counted once) and call counts, and the raw spans are dropped.

The same class also installs the always-on *observer* hooks that read
what public calls return (the ``CollectResult`` of ``collect_auto``,
the programs ``compile_program`` returns, kernel resolutions).  Those
run in untraced runs too: three wrapper calls per op.
"""

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Union

#: (module path, attribute, span name).  The module path may name a
#: class inside a module ("pkg.mod:Class").  A span name may be a
#: callable of the wrapped call's first argument (``Pass.run`` spans are
#: named after the pass they run).
SPAN_TARGETS = [
    ("repro.lang.parser", "parse_program", "lang.parse"),
    ("repro.compiler.pipeline", "normalize_command", "compiler.normalize"),
    ("repro.compiler.pipeline", "normalize_state", "compiler.normalize"),
    ("repro.compiler.pipeline", "program_digest", "compiler.normalize"),
    ("repro.compiler.passes:CommandPass", "run",
     lambda entry: "analysis.prune" if entry.name == "prune_dead"
     else "analysis." + entry.name),
    ("repro.compiler.pipeline", "compile_cpgcl", "cftree.build"),
    ("repro.compiler.passes:Pass", "run",
     lambda entry: "compiler.passes." + entry.name),
    ("repro.compiler.pipeline", "dag_size", "compiler.stats"),
    # Pipeline._lower is the lower stage itself (from_cftree + eager
    # expand_all + compact); the public pieces are also called outside
    # lowering (native closure attempts run expand_all), so the stage
    # method is the one boundary that means "lowering".
    ("repro.compiler.pipeline:Pipeline", "_lower", "engine.table.lower"),
    ("repro.compiler.pipeline", "compile_program", "compiler.compile"),
    ("repro.compiler.cache:CompilationCache", "get", "compiler.cache.get"),
    ("repro.compiler.cache:CompilationCache", "put", "compiler.cache.put"),
    ("repro.engine.freeze", "freeze_table", "engine.freeze.freeze"),
    ("repro.engine.freeze", "thaw_table", "engine.freeze.thaw"),
    ("repro.engine.table:NodeTable", "thaw_bind", "engine.freeze.rebind"),
    ("repro.engine.table:NodeTable", "expand", "engine.table.expand"),
    ("repro.engine.native", "kernel_for", "engine.native.resolve"),
    ("repro.engine.native", "collect_kernel", "engine.native.kernel"),
    ("repro.engine.driver", "collect_numpy", "engine.driver"),
    ("repro.engine.driver", "collect_python", "engine.driver"),
    ("repro.engine.api:BatchSampler", "collect", "engine.assemble"),
    ("repro.sampler.harness", "row_from_samples", "sampler.rowstats"),
    ("repro.engine.profile", "features_of", "engine.policy"),
    ("repro.engine.profile", "static_profile", "engine.policy"),
    ("repro.engine.tuner", "tuning_enabled", "engine.policy"),
    ("repro.engine.tuner", "get_tuner", "engine.policy"),
    ("repro.engine.tuner:EngineTuner", "choose", "engine.policy"),
    ("repro.engine.tuner:EngineTuner", "record", "engine.policy"),
    ("repro.engine.api", "collect_auto", "engine.collect_auto"),
]

#: Spans that only group layer spans: their self time is orchestration
#: no layer owns, and counts as untraced.
CONTAINERS = ("op", "engine.collect_auto", "compiler.compile")

#: Eager expansions inside lowering belong to the lower stage; only JIT
#: expansions (sampling, native closure attempts) get their own spans.
SKIP_UNDER = {"engine.table.expand": "engine.table.lower"}


class Tracer:
    """In-memory span recorder; spans nest in call order.

    A span is ``[name, start_ns, end_ns, parent_index]``.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[list] = []
        self.active: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        self.active[name] += 1
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %d closed out of order" % index)
        self._stack.pop()
        span = self.spans[index]
        span[2] = self.clock()
        self.active[span[0]] -= 1

    def drain(self) -> List[list]:
        """Hand over the finished spans and start an empty trace."""
        if self._stack:
            raise RuntimeError("drain with %d open spans" % len(self._stack))
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: List[list]) -> Dict[str, Dict[str, int]]:
    """Per-name ``self``/``inclusive`` nanoseconds and ``count``.

    Self time is a span's duration minus its direct children's
    durations, so self times partition the root spans exactly.
    Inclusive time skips spans nested inside a span of the same name,
    so a re-entrant layer is not counted twice.
    """
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, Dict[str, int]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        entry = out.setdefault(name, {"self": 0, "inclusive": 0, "count": 0})
        entry["self"] += duration - child[index]
        entry["count"] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["inclusive"] += duration
    return out


def merge(total: Dict[str, Dict[str, int]],
          part: Dict[str, Dict[str, int]]) -> None:
    """Add one op's summary into a running total."""
    for name, entry in part.items():
        slot = total.setdefault(name, {"self": 0, "inclusive": 0, "count": 0})
        for key, value in entry.items():
            slot[key] += value


def _resolve(path: str):
    module_path, _, class_name = path.partition(":")
    owner = importlib.import_module(module_path)
    return getattr(owner, class_name) if class_name else owner


def _patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if original is None or isinstance(original, (classmethod, staticmethod)):
        raise RuntimeError(
            "instrumentation target %s.%s is missing or not a plain "
            "function" % (getattr(owner, "__name__", owner), attr)
        )
    wrapper = make(original)
    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", attr)
    setattr(owner, attr, wrapper)


class Instrument:
    """Observer hooks (always) and span hooks (``tracer`` given)."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.results: List[object] = []  # CollectResults of this op
        self.programs: List[object] = []  # CompiledPrograms of this op
        self.kernels: List[tuple] = []  # (tier or None, refusal or None)

    def install(self) -> None:
        self._observe()
        if self.tracer is not None:
            for path, attr, name in SPAN_TARGETS:
                self._span(_resolve(path), attr, name)

    def reset(self) -> None:
        """Forget the previous op's observations (the hooks keep these
        very lists)."""
        for store in (self.results, self.programs, self.kernels):
            store.clear()

    def _observe(self) -> None:
        def capture(store: list, convert=lambda value: value):
            def make(original):
                def observed(*args, **kwargs):
                    value = original(*args, **kwargs)
                    store.append(convert(value))
                    return value
                return observed
            return make

        _patch(_resolve("repro.engine.api"), "collect_auto",
               capture(self.results))
        _patch(_resolve("repro.compiler.pipeline"), "compile_program",
               capture(self.programs))
        _patch(_resolve("repro.engine.native"), "kernel_for",
               capture(self.kernels,
                       lambda value: (value[2].get("tier"), value[1])))

    def _span(self, owner, attr: str, name: Union[str, Callable]) -> None:
        _patch(owner, attr, lambda original: traced(self.tracer, original,
                                                    name))


def traced(tracer: Tracer, original: Callable,
           name: Union[str, Callable]) -> Callable:
    """``original`` wrapped in a span named ``name``."""
    skip_under = SKIP_UNDER.get(name) if isinstance(name, str) else None

    def wrapper(*args, **kwargs):
        if skip_under is not None and tracer.active[skip_under]:
            return original(*args, **kwargs)
        index = tracer.open(name if isinstance(name, str) else name(args[0]))
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def span_cost_ns(calls: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in ns.

    Multiplied by the number of spans a run recorded, this estimates
    how much of the traced run's time the tracing itself took.
    """
    tracer = Tracer()

    def noop():
        return None

    wrapped = traced(tracer, noop, "calibrate")

    best_plain = best_traced = float("inf")
    for _ in range(3):
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        best_plain = min(best_plain, time.perf_counter_ns() - start)
        start = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        best_traced = min(best_traced, time.perf_counter_ns() - start)
        summarize(tracer.drain())
    return max(0.0, (best_traced - best_plain) / calls)
