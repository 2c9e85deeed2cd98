"""``BatchSampler``: the batch engine's user-facing facade.

Build once from a cpGCL command (or a CF tree), then draw samples in
batches::

    sampler = BatchSampler.from_command(n_sided_die(6))
    samples = sampler.collect(100_000, seed=7, extract=lambda s: s["x"])

``collect`` returns the same :class:`~repro.sampler.record.SampleSet`
the trampoline-based ``repro.sampler.record.collect`` produces, so the
harness and benchmarks consume either interchangeably.  Backends:

- ``"native"`` -- the compiled table walker over the pooled bit stream
  (open tables park at loop stubs and resume; see
  :mod:`repro.engine.native`), bit-for-bit identical to
  ``"sequential"``/``"python"`` on the same seed, with an observable
  downgrade to ``"python"`` when the walker cannot run;
- ``"numpy"``  -- vectorized lanes (default when numpy is installed);
- ``"python"`` -- pooled pure-Python batch loop;
- ``"sequential"`` -- per-sample stepping against an explicit
  ``BitSource``; bit-for-bit equivalent to the trampoline (forced
  whenever ``source`` is given).

Engine selection lives in :mod:`repro.engine.profile`: an
:class:`~repro.engine.profile.EngineProfile` bundles every knob
(engine, backend, pass list, coalesce, narrowing, fuel, node
budget), and :func:`collect_auto` resolves ``engine="auto"``
through the telemetry-backed policy in :mod:`repro.engine.tuner` with
the old static heuristic as the cold-start prior.
"""

import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.bits.source import BitSource, CountingBits
from repro.cftree.tree import CFTree
from repro.engine import driver as _driver
from repro.engine.pool import BitPool, HAVE_NUMPY
from repro.engine.table import LoweringError, NodeTable
from repro.lang.state import State
from repro.lang.syntax import Command
from repro.sampler.record import SampleSet

BACKENDS = ("auto", "native", "numpy", "python", "sequential")

ENGINES = ("auto", "batch", "trampoline")


class CollectResult(NamedTuple):
    """``collect_auto``'s result: the samples plus which path ran.

    ``profile`` is the resolved :class:`~repro.engine.profile.
    EngineProfile`; ``fallback_reason`` carries the stringified
    ``LoweringError`` when a requested batch path silently downgraded
    to the trampoline, or a ``"native-unavailable: ..."`` note when the
    native backend downgraded to the bit-identical pooled Python
    backend (``None`` otherwise) -- telemetry records and test
    assertions key on it.  ``seconds`` is sampling wall-clock
    (compilation excluded).
    """

    samples: SampleSet
    engine: str  # "batch" or "trampoline"
    table_nodes: int  # 0 on the trampoline path
    profile: Optional[object] = None
    fallback_reason: Optional[str] = None
    seconds: float = 0.0


def _narrowed(command: Command, observed) -> Command:
    from repro.compiler.liveness import narrow_command

    return narrow_command(
        command, observed=tuple(observed) if observed else ()
    )


def _compile_with(command: Command, sigma, profile) -> "object":
    """Compile ``command`` with the profile's compiler-shaping knobs."""
    from repro.compiler.pipeline import compile_program

    return compile_program(
        command,
        sigma,
        passes=profile.passes,
        coalesce=profile.coalesce,
        max_nodes=profile.max_nodes,
    )


def _run_trampoline(command, n, sigma, seed, extract, fuel):
    from repro.itree.unfold import cpgcl_to_itree
    from repro.sampler.record import collect

    tree = cpgcl_to_itree(command, sigma if sigma is not None else State())
    return collect(tree, n, seed=seed, extract=extract, fuel=fuel)


def collect_auto(
    command: Command,
    n: int,
    sigma: Optional[State] = None,
    seed: Optional[int] = None,
    extract: Optional[Callable[[object], object]] = None,
    engine: str = "auto",
    fuel: Optional[int] = None,
    narrow: bool = False,
    observed: Optional[Tuple[str, ...]] = None,
    profile: Optional[object] = None,
    backend: Optional[str] = None,
    tuner: Optional[object] = None,
) -> CollectResult:
    """Engine-selection policy shared by the harness, CLI, and checkers.

    The selection seam: every caller funnels through one resolved
    :class:`~repro.engine.profile.EngineProfile`.

    - ``profile`` pins the full strategy explicitly (CLI ``--profile``,
      benchmarks, the tuner's arms); ``engine``/``backend`` are then
      only used as overrides when passed.
    - ``engine="auto"`` (no profile) tries the batch engine and falls
      back to the trampoline when lowering fails -- the fallback is
      *observable* via ``CollectResult.fallback_reason``.  The backend
      comes from the telemetry-backed tuner when one is engaged (a
      ``tuner`` argument, or ``ZAR_TUNER_STATE``/a configured artifact
      store; see :mod:`repro.engine.tuner`), else from the static
      heuristic -- which is also the tuner's cold-start prior, so an
      untrained tuner is behaviorally identical to no tuner.
    - ``engine="batch"`` propagates the :class:`LoweringError` instead
      of falling back; ``engine="trampoline"`` forces the per-sample
      reference driver.

    ``narrow=True`` applies liveness-driven loop-state narrowing
    (:func:`repro.compiler.liveness.narrow_command`) before sampling;
    ``observed`` names the variables whose final values the caller will
    read.  The narrowing happens at the command level, so the batch
    engine and the trampoline fallback sample the same narrowed
    program.

    When telemetry is enabled (``ZAR_TELEMETRY_DIR``), every call
    appends one JSONL run record: digest, profile, wall-clock,
    samples/s, bits, cache tier, and any fallback reason.
    """
    from repro.engine.profile import (
        PROFILES,
        features_of,
        feature_bucket,
        static_profile,
        validate_profile,
    )

    if engine not in ENGINES:
        raise ValueError(
            "unknown engine %r (valid: %s)" % (engine, ", ".join(ENGINES))
        )
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (valid: %s)" % (backend, ", ".join(BACKENDS))
        )

    explicit = profile is not None
    if explicit:
        validate_profile(profile)
        resolved = profile
    elif engine == "trampoline":
        resolved = PROFILES["trampoline"]
    elif engine == "batch":
        resolved = PROFILES["batch-auto"]
    else:  # "auto": batch attempt first; backend policy resolved below.
        resolved = None

    # Per-call overrides win over the profile's stored knobs.
    run_narrow = narrow or bool(resolved is not None and resolved.narrow)
    run_fuel = fuel if fuel is not None else (
        resolved.fuel if resolved is not None else None
    )
    if run_narrow:
        command = _narrowed(command, observed)

    # -- trampoline-only paths ------------------------------------------
    if resolved is not None and resolved.engine == "trampoline":
        start = time.perf_counter()
        samples = _run_trampoline(command, n, sigma, seed, extract, run_fuel)
        seconds = time.perf_counter() - start
        result = CollectResult(samples, "trampoline", 0, resolved, None,
                               seconds)
        _emit_run(None, resolved, result, n, cache_source=None)
        return result

    # -- batch attempt ---------------------------------------------------
    compile_profile = resolved if resolved is not None \
        else PROFILES["batch-auto"]
    fallback_reason = None
    program = None
    try:
        program = _compile_with(command, sigma, compile_profile)
    except LoweringError as err:
        if engine == "batch" or explicit:
            raise
        fallback_reason = str(err)

    if program is not None:
        if resolved is None:
            # engine="auto": pick the backend profile from features.
            features = features_of(program)
            active_tuner = tuner
            if active_tuner is None:
                from repro.engine.tuner import get_tuner, tuning_enabled

                active_tuner = get_tuner() if tuning_enabled() else None
            if active_tuner is not None:
                resolved = active_tuner.choose(features)
            else:
                resolved = static_profile(features)
            if (
                resolved.passes != compile_profile.passes
                or resolved.coalesce != compile_profile.coalesce
                or resolved.max_nodes != compile_profile.max_nodes
            ):
                # The policy chose different compiler knobs: recompile
                # (the artifact cache keys on them, so this is cheap
                # when warm).
                program = _compile_with(command, sigma, resolved)
        else:
            features = None
            active_tuner = tuner
        run_backend = backend if backend is not None else resolved.backend
        if run_backend != resolved.backend:
            # A kwarg-level backend override is a manual pin, not a
            # policy decision: fold it into the reported profile so the
            # CLI/telemetry say what actually ran, and keep the run out
            # of the tuner's arm statistics (crediting the base arm
            # with another backend's throughput would corrupt the
            # policy).
            resolved = resolved._replace(
                name="%s+%s" % (resolved.name, run_backend),
                backend=run_backend,
            )
            active_tuner = None
        sampler = BatchSampler(program.table)
        start = time.perf_counter()
        try:
            samples = sampler.collect(
                n,
                seed=seed,
                extract=extract,
                fuel=run_fuel,
                backend=run_backend,
            )
        except LoweringError as err:
            # Open tables can overflow their node budget mid-sampling.
            if engine == "batch" or explicit:
                raise
            fallback_reason = str(err)
        else:
            seconds = time.perf_counter() - start
            result = CollectResult(
                samples, "batch", len(sampler.table), resolved,
                sampler.native_fallback, seconds
            )
            if active_tuner is not None and seconds > 0:
                if features is None:
                    features = features_of(program)
                active_tuner.record(features, resolved, n / seconds)
            _emit_run(
                program, resolved, result, n,
                cache_source=getattr(program, "source", None),
                bucket=feature_bucket(features) if features is not None
                else None,
                kernel=sampler.native_info,
            )
            return result

    # -- trampoline fallback --------------------------------------------
    start = time.perf_counter()
    samples = _run_trampoline(command, n, sigma, seed, extract, run_fuel)
    seconds = time.perf_counter() - start
    result = CollectResult(
        samples, "trampoline", 0, resolved, fallback_reason, seconds
    )
    _emit_run(program, resolved, result, n, cache_source=None)
    return result


def _emit_run(program, profile, result: CollectResult, n: int,
              cache_source=None, bucket=None, kernel=None) -> None:
    """Append a telemetry record for one run (no-op when disabled)."""
    from repro.telemetry import make_run_record, emit, telemetry_enabled

    if not telemetry_enabled():
        return
    emit(
        make_run_record(
            digest=getattr(program, "digest", None),
            profile=profile.as_dict() if profile is not None else None,
            n=n,
            seconds=result.seconds,
            engine=result.engine,
            backend=profile.backend if profile is not None else None,
            bits_total=result.samples.total_bits(),
            cache_source=cache_source,
            fallback_reason=result.fallback_reason,
            table_rows=result.table_nodes,
            feature_bucket=bucket,
            kernel_cache=(kernel or {}).get("tier"),
            kernel_compile_ms=(kernel or {}).get("compile_ms"),
        )
    )


class BatchSampler:
    """A compiled sampler drawing N samples per call off a node table."""

    def __init__(self, table: NodeTable, tied: bool = True):
        self.table = table
        self.tied = tied
        #: After a ``backend="native"`` collect: the downgrade note
        #: (``"native-unavailable: ..."``) when the kernel path could
        #: not run and the pooled Python backend served the request
        #: bit-identically, else ``None``.
        self.native_fallback: Optional[str] = None
        #: Walker telemetry from the last native resolution
        #: (``tier``/``compile_ms``/``rows``/``parks``),
        #: else ``None``.
        self.native_info = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_command(
        cls,
        command: Command,
        sigma: Optional[State] = None,
        coalesce: str = "loopback",
        eliminate: bool = True,
        max_nodes: int = 2_000_000,
    ) -> "BatchSampler":
        """Lower ``command`` through the staged compiler pipeline
        (normalize, compile, ``elim_choices``, ``debias``, ``cse``) into
        a deduplicated node table; artifacts are shared through the
        content-addressed compilation cache (:mod:`repro.compiler`)."""
        from repro.compiler.pipeline import compile_program

        passes = (
            ("elim_choices", "debias", "cse")
            if eliminate
            else ("debias", "cse")
        )
        program = compile_program(
            command,
            sigma,
            passes=passes,
            coalesce=coalesce,
            max_nodes=max_nodes,
        )
        return cls(program.table)

    @classmethod
    def from_cftree(
        cls,
        tree: CFTree,
        coalesce: str = "loopback",
        apply_debias: bool = True,
        max_nodes: int = 2_000_000,
    ) -> "BatchSampler":
        from repro.compiler.pipeline import compile_tree

        passes = ("debias", "cse") if apply_debias else ("cse",)
        program = compile_tree(
            tree, passes=passes, coalesce=coalesce, max_nodes=max_nodes
        )
        return cls(program.table)

    # -- sampling --------------------------------------------------------

    def sample(self, source: BitSource, max_steps: Optional[int] = None):
        """One sample against an explicit source (trampoline-exact)."""
        return _driver.run_table(self.table, source, max_steps, self.tied)

    def _collect_indices(
        self,
        n: int,
        seed: Optional[int],
        source: Optional[BitSource],
        fuel: Optional[int],
        backend: str,
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """One driver call: payload indices + per-sample bit counts
        (lists, the walker's ``array('q')`` columns or the numpy
        driver's ``int64`` arrays, as they are)."""
        if backend == "native":
            indices_bits = self._collect_native(n, seed, fuel)
            if indices_bits is not None:
                return indices_bits
            # Downgrade (reason recorded in ``native_fallback``) to the
            # pooled Python backend, which consumes the identical
            # ``BitPool(seed)`` stream -- the fallback is bit-for-bit.
            backend = "python"
        if backend == "sequential":
            counting = CountingBits(
                source if source is not None else BitPool(seed)
            )
            indices: List[int] = []
            bits: List[int] = []
            for _ in range(n):
                indices.append(
                    _driver._step_indices(self.table, counting, fuel,
                                          self.tied)
                )
                bits.append(counting.take_count())
            return indices, bits
        if backend == "python":
            return _driver.collect_python(
                self.table, n, BitPool(seed), fuel, self.tied
            )
        return _driver.collect_numpy(
            self.table, n, seed=seed, max_steps=fuel, tied=self.tied
        )

    def _collect_native(
        self, n: int, seed: Optional[int], fuel: Optional[int]
    ) -> Optional[Tuple[Sequence[int], Sequence[int]]]:
        """Try the native walker; ``None`` means "downgrade".

        Every refusal is observable: ``native_fallback`` carries a
        ``"native-unavailable: <reason>"`` note and ``native_info`` the
        walker telemetry (when the walker was resolved).  A refusal
        met mid-walk (an expansion reached call rows) also downgrades:
        the stubs the walker expanded are the ones the pooled Python
        driver expands first, so its rerun is still its exact stream.
        """
        from repro.engine import native as _native

        if fuel is not None:
            # Fuel counts *node visits*, a quantity only the Python
            # drivers define (the kernel sees no JMP/LEAF rows); refuse
            # rather than approximate so metered runs stay exact.
            self.native_fallback = (
                "native-unavailable: fuel metering needs the Python "
                "drivers' step accounting"
            )
            return None
        kernel, reason, info = _native.kernel_for(self.table)
        self.native_info = info
        if kernel is None:
            self.native_fallback = "native-unavailable: %s" % reason
            return None
        try:
            return _native.collect_kernel(kernel, n, seed=seed,
                                          tied=self.tied)
        except _native.KernelUnsupported as err:
            self.native_fallback = "native-unavailable: %s" % err
            return None

    def collect(
        self,
        n: int,
        seed: Optional[int] = None,
        source: Optional[BitSource] = None,
        extract: Optional[Callable[[object], object]] = None,
        fuel: Optional[int] = None,
        backend: str = "auto",
    ) -> SampleSet:
        """Draw ``n`` samples and return a columnar :class:`SampleSet`.

        The driver's leaf indices and bit counts become the set's
        columns as they are (the numpy driver's ``int64`` arrays without
        a copy), and ``extract`` is applied once per *distinct* terminal
        payload to build the payload table, not once per sample -- a
        large win when payloads are program states.  No per-sample
        Python object is built; ``values``/``bits`` lists materialise
        only when a caller reads them.
        """
        if n <= 0:
            raise ValueError("need a positive sample count")
        self.native_fallback = None
        if backend not in BACKENDS:
            raise ValueError(
                "unknown backend %r (valid: %s)"
                % (backend, ", ".join(BACKENDS))
            )
        if source is not None:
            backend = "sequential"
        elif backend == "auto":
            backend = "numpy" if HAVE_NUMPY else "python"

        indices, bits = self._collect_indices(n, seed, source, fuel, backend)

        return SampleSet.from_columns(
            indices, self.table.map_payloads(extract), bits,
            fail=_driver.ENGINE_FAIL,
        )

    def samples(
        self,
        n: int,
        seed: Optional[int] = None,
        source: Optional[BitSource] = None,
        backend: str = "auto",
    ) -> List[object]:
        return self.collect(n, seed=seed, source=source, backend=backend).values

    # -- introspection ---------------------------------------------------

    def stats(self):
        return self.table.stats()

    def __repr__(self):
        return "BatchSampler(%d nodes, %d payloads)" % (
            len(self.table),
            len(self.table.payloads),
        )
