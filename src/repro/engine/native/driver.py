"""Drive the native walker off the pooled bit stream.

Bit-stream preservation is the whole contract: :func:`collect_kernel`
feeds the walker the *exact* stream a ``BitPool(seed)`` produces --
whole 4096-bit ``getrandbits`` chunks, serialized little-endian so bit
``j`` of a chunk is bit ``j & 7`` of byte ``j >> 3``, chunks
concatenated in draw order.  The walker consumes that buffer strictly
in order and keeps its mid-sample state across refills, so the sequence
of (payload index, bits used) pairs is identical to the sequential
driver (``CountingBits(BitPool(seed))``) and to ``collect_python`` on
the same seed.  Leftover bits at the end of the last buffer are
discarded, as every pooled backend discards its pool.

Open tables run natively too.  When the walker reaches an edge into an
unexpanded loop-state stub it parks; :func:`collect_kernel` expands the
stub through :meth:`~repro.engine.native.codegen.Encoding.resolve` --
the same expansion, in the same order, that ``collect_python`` does on
the same visit, consuming no bits -- patches the edge and resumes.  The
table ends in the expansion state a ``collect_python`` run would leave.

:func:`kernel_for` is the table-to-walker resolver the engine seams
call: it gates on availability, encodes the table (memoized per table
and layout generation, then grown in place by parks) and loads the
walker.  Every refusal returns a human-readable reason; the caller
prefixes it with ``native-unavailable`` in
``CollectResult.fallback_reason``.
"""

from array import array
from typing import Dict, NamedTuple, Optional, Tuple

from repro.engine.native import kernel as _kernel
from repro.engine.native.codegen import (
    FRESH_STATE,
    NO_PARK,
    Encoding,
    KernelUnsupported,
)
from repro.engine.pool import BitPool

__all__ = [
    "BoundKernel",
    "collect_kernel",
    "kernel_for",
    "kernel_status",
]


class BoundKernel(NamedTuple):
    """The walker bound to one table's encoding.

    ``info`` is the dict :func:`kernel_for` returned; :func:`collect_kernel`
    records its park count there as ``info["parks"]``.
    """

    kernel: object  # NativeKernel
    encoding: Encoding
    info: Dict[str, object]


#: Chunks per walker call: the first buffer is small (tiny collects
#: stay cheap), later buffers are sized from the observed bits-per-
#: sample rate so the pool never generates far more bits than the run
#: consumes (generation is the main Python-side cost).
_CHUNKS_MIN = 8
_CHUNKS_MAX = 4096


def _encoding_for(table) -> Encoding:
    """The table's encoding for its current layout generation.

    A refusal is memoized too: call rows and jump cycles never leave a
    table once lowered, so re-walking it per request would only repeat
    the same answer.
    """
    memo = getattr(table, "_zar_walk_encoding", None)
    if memo is not None and memo[0] == table.generation:
        if isinstance(memo[1], KernelUnsupported):
            raise memo[1]
        return memo[1]
    try:
        encoding = Encoding(table)
    except KernelUnsupported as err:
        table._zar_walk_encoding = (table.generation, err)
        raise
    table._zar_walk_encoding = (table.generation, encoding)
    return encoding


def kernel_for(
    table, cache_dir: Optional[str] = None
) -> Tuple[Optional[BoundKernel], Optional[str], Dict[str, object]]:
    """Resolve ``table`` to ``(kernel, reason, info)``.

    ``kernel`` is ``None`` iff the table cannot run natively, with the
    reason in ``reason``.  ``info`` always carries whatever is known:
    the walker's ``tier``/``compile_ms``/``key`` once loaded, the
    encoded ``rows``, and ``parks`` (stub hand-backs in the last
    :func:`collect_kernel` call).
    """
    info: Dict[str, object] = {"tier": None, "compile_ms": None}
    if _kernel.native_disabled():
        return None, "disabled via ZAR_NATIVE_DISABLE", info
    if _kernel.find_compiler() is None:
        return None, "no C compiler on PATH (set ZAR_NATIVE_CC)", info
    try:
        encoding = _encoding_for(table)
    except KernelUnsupported as err:
        return None, str(err), info
    try:
        walker, info = _kernel.load_walker(cache_dir=cache_dir)
    except _kernel.KernelCompileError as err:
        return None, "kernel compile failed: %s" % err, info
    info["rows"] = encoding.rows
    info["parks"] = 0
    return BoundKernel(walker, encoding, info), None, info


def kernel_status(table) -> str:
    """One-line walker state for the ``zar compile`` stage report."""
    bound, reason, info = kernel_for(table)
    if bound is None:
        return "unavailable (%s)" % reason
    tier = str(info["tier"])
    if info["compile_ms"] is not None:
        tier = "%s %.1f ms" % (tier, info["compile_ms"])
    line = "ready (walker %s, %d rows" % (tier, info["rows"])
    if table.pending_stubs:
        line += ", %d stubs pending" % table.pending_stubs
    return line + ")"


def collect_kernel(
    bound: BoundKernel,
    n: int,
    seed: Optional[int] = None,
    tied: bool = True,
) -> Tuple[array, array]:
    """Draw ``n`` samples; returns ``(payload indices, bits per sample)``
    as ``array('q')`` columns.

    The pooled-backend contract of :func:`repro.engine.driver.
    collect_python`, bit-for-bit: same pool, same chunk order, same
    restart semantics, same stub expansions.  Raises
    :class:`KernelUnsupported` when an expansion reaches rows the
    walker cannot take (call rows); the stubs expanded so far are the
    ones a Python run expands first, so the caller may rerun the pooled
    Python driver from the start and get its exact stream.
    """
    walker, encoding, info = bound
    table = encoding.table
    pool = BitPool(seed)
    out_idx = array("q", bytes(8 * n))
    out_bits = array("q", bytes(8 * n))
    # in-flight code, its bits used, buffer position, park slot
    state = array("q", [FRESH_STATE, 0, 0, NO_PARK])
    buffer = b""
    done = 0
    fed = 0  # bits handed to the walker so far (tail slack included)
    parks = 0
    try:
        while done < n:
            if state[2] >= len(buffer) * 8:
                if done:
                    # Size the next buffer from the observed consumption
                    # rate, with 25% headroom plus one chunk of slack.
                    needed = (fed * (n - done)) // done + (
                        fed * (n - done)) // (4 * done) + 4096
                    chunks = max(1, min(_CHUNKS_MAX, needed // 4096 + 1))
                else:
                    chunks = _CHUNKS_MIN
                parts = []
                for _ in range(chunks):
                    value, width = pool.next_chunk()
                    parts.append(value.to_bytes(width // 8, "little"))
                buffer = b"".join(parts)
                fed += len(buffer) * 8
                state[2] = 0
            done = walker.walk(
                encoding.edges, encoding.root, buffer, len(buffer) * 8,
                done, n, out_idx, out_bits, state, tied,
            )
            if state[3] != NO_PARK:
                parks += 1
                state[0] = encoding.resolve(state[3])
    except KernelUnsupported as err:
        table._zar_walk_encoding = (table.generation, err)
        raise
    finally:
        info["parks"] = parks
    return out_idx, out_bits
