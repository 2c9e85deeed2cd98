"""The native backend: one generic C walker over an edge array.

Every table -- closed or open -- is encoded as an ``int32`` edge array
(:mod:`~repro.engine.native.codegen`) that one compiled walker reads at
call time.  The walker is compiled once per (walker version, compiler
fingerprint) and kept in the verified kernel store
(:mod:`~repro.engine.native.kernel`).  The driver
(:mod:`~repro.engine.native.driver`) feeds it the exact ``BitPool``
chunk stream and, when the walk reaches an unexpanded loop-state stub,
expands that stub in Python and resumes, so the sample stream is
bit-for-bit the sequential driver's.  Tables with ``OP_CALL`` rows and
degraded environments (no C compiler, ``ZAR_NATIVE_DISABLE``) fall back
to the pooled pure-Python backend -- which shares that exact bit
stream -- with an observable ``native-unavailable`` reason.

See the "Native backend" section of ``docs/architecture.md``.
"""

from repro.engine.native.codegen import (
    WALKER_VERSION,
    Encoding,
    KernelUnsupported,
)
from repro.engine.native.driver import (
    BoundKernel,
    collect_kernel,
    kernel_for,
    kernel_status,
)
from repro.engine.native.kernel import (
    KernelCacheError,
    KernelCompileError,
    NativeKernel,
    compiler_fingerprint,
    compiler_invocations,
    find_compiler,
    kernel_cache_dir,
    kernel_store,
    load_walker,
    native_available,
    reset_kernel_runtime,
)

__all__ = [
    "BoundKernel",
    "Encoding",
    "KernelCacheError",
    "KernelCompileError",
    "KernelUnsupported",
    "NativeKernel",
    "WALKER_VERSION",
    "collect_kernel",
    "compiler_fingerprint",
    "compiler_invocations",
    "find_compiler",
    "kernel_cache_dir",
    "kernel_for",
    "kernel_status",
    "kernel_store",
    "load_walker",
    "native_available",
    "reset_kernel_runtime",
]
