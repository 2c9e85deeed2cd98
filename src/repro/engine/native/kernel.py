"""Compile, cache, and load generated native kernels.

The kernel store is content-addressed and lives **next to the artifact
store**: ``ZAR_NATIVE_CACHE_DIR`` names it explicitly, else it is the
``kernels/`` subdirectory of the compilation cache's disk tier
(``configure_cache(disk_dir=...)`` / ``ZAR_COMPILE_CACHE_DIR``), else a
per-process temporary directory (kernels still dedupe within the
process, just not across processes).

Cache key anatomy -- three independent invalidation axes:

- the **kernel digest** (:func:`~repro.engine.native.codegen.
  encoded_digest`): SHA-256 of the canonical table encoding, which
  already folds in ``CODEGEN_VERSION``.  The ``.c`` source is stored as
  ``zk-<digest>.c`` (kept for inspection; CI uploads it);
- the **compiler fingerprint** (hash of the resolved compiler path and
  its ``--version`` banner), appended to the shared-object entry name
  ``zk-<digest>-<fingerprint>.so`` so a toolchain upgrade recompiles
  instead of loading ABI-stale objects;
- a **load-time self-check**: every object exports ``zar_digest()`` /
  ``zar_codegen_version()``, verified after ``dlopen``.

Objects live in a :class:`repro.store.Store`, which verifies each
entry's key and SHA-256 before anything is loaded.  An entry that fails
that check or the self-check is unlinked, counted as ``corrupt`` in
:func:`kernel_store`'s stats, and recompiled -- never executed.

Loading uses :mod:`ctypes`.  ``native_available()`` is the cheap gate
the engine seams consult: it requires a C compiler on ``PATH`` (or
``ZAR_NATIVE_CC``) and ``ZAR_NATIVE_DISABLE`` unset.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from typing import Dict, Optional, Tuple

from repro.engine.native.codegen import (
    CODEGEN_VERSION,
    EncodedTable,
    encoded_digest,
    render_c,
)
from repro.store import Store, atomic_write

__all__ = [
    "COMPILE_TIMEOUT",
    "KernelCacheError",
    "KernelCompileError",
    "NativeKernel",
    "build_kernel",
    "compiler_fingerprint",
    "compiler_invocations",
    "find_compiler",
    "kernel_cache_dir",
    "kernel_store",
    "native_available",
    "reset_kernel_runtime",
]

COMPILE_TIMEOUT = 120  # seconds; a table-walk TU compiles in well under


class KernelCompileError(RuntimeError):
    """The C compiler failed (or is missing) for a generated kernel."""


class KernelCacheError(RuntimeError):
    """A cached kernel object failed validation (corrupt/stale entry)."""


# -- process-wide runtime state (reset_kernel_runtime clears it all) -----

#: digest -> loaded NativeKernel: the in-process (memory) cache tier.
_MEMORY: Dict[str, "NativeKernel"] = {}
#: directory -> its Store, so the store counters persist per process.
_STORES: Dict[str, Store] = {}
_FINGERPRINT: Optional[str] = None
_TMP_DIR: Optional[str] = None
#: Private dir of compiler outputs and load snapshots (see
#: :func:`_private_object`).
_LOAD_DIR: Optional[str] = None
#: How many times this process ran the C compiler (tests assert on it).
_INVOCATIONS = 0


def compiler_invocations() -> int:
    return _INVOCATIONS


def reset_kernel_runtime() -> None:
    """Drop memory-cached kernels and memoized probes.

    Tests call this to simulate a fresh process against a warm disk
    store.  The invocation counter survives (it counts per-process
    compiler work, which is exactly what the warm-store tests measure).
    """
    global _FINGERPRINT, _TMP_DIR, _LOAD_DIR
    _MEMORY.clear()
    _STORES.clear()
    _FINGERPRINT = None
    _TMP_DIR = None
    _LOAD_DIR = None


# -- environment probes --------------------------------------------------

def native_disabled() -> bool:
    return bool(os.environ.get("ZAR_NATIVE_DISABLE"))


def find_compiler() -> Optional[str]:
    """The C compiler to invoke (``ZAR_NATIVE_CC`` wins), or ``None``."""
    explicit = os.environ.get("ZAR_NATIVE_CC")
    if explicit:
        return explicit if os.path.sep in explicit \
            else shutil.which(explicit)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def native_available() -> bool:
    """Can this process build and run native kernels at all?"""
    return not native_disabled() and find_compiler() is not None


def compiler_fingerprint() -> str:
    """A short hash of the compiler identity (part of the ``.so`` name)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        cc = find_compiler()
        banner = ""
        if cc:
            try:
                probe = subprocess.run(
                    [cc, "--version"], capture_output=True, timeout=30
                )
                banner = probe.stdout.decode("utf-8", "replace")
                banner = banner.splitlines()[0] if banner else ""
            except (OSError, subprocess.SubprocessError):
                banner = ""
        raw = "%s|%s" % (cc or "", banner)
        _FINGERPRINT = hashlib.sha256(raw.encode()).hexdigest()[:12]
    return _FINGERPRINT


def kernel_cache_dir() -> str:
    """Resolve the kernel store directory (created on demand)."""
    global _TMP_DIR
    explicit = os.environ.get("ZAR_NATIVE_CACHE_DIR")
    if explicit:
        return explicit
    from repro.compiler.cache import get_cache

    disk_dir = get_cache().disk_dir
    if disk_dir:
        return os.path.join(disk_dir, "kernels")
    if _TMP_DIR is None:
        _TMP_DIR = tempfile.mkdtemp(prefix="zar-kernels-")
    return _TMP_DIR


def kernel_store(cache_dir: Optional[str] = None) -> Store:
    """The :class:`~repro.store.Store` over ``cache_dir`` (default:
    :func:`kernel_cache_dir`), one per directory per process."""
    directory = cache_dir if cache_dir is not None else kernel_cache_dir()
    return _STORES.setdefault(directory, Store(directory))


# -- loading -------------------------------------------------------------

class NativeKernel:
    """A validated, loaded kernel for one table digest.

    The ctypes binding: buffers are passed by address, so callers keep
    them alive for the duration of :meth:`collect_call`.
    """

    def __init__(self, lib, digest: str, payloads: int):
        self._lib = lib
        self.digest = digest
        self.payloads = payloads
        self.rows = int(lib.zar_rows())

    def collect_call(self, bits: bytes, total_bits: int, done: int, n: int,
                     out_idx, out_bits, state, payload_map,
                     tied: bool) -> int:
        return int(
            self._lib.zar_collect(
                bits, total_bits, done, n,
                out_idx.buffer_info()[0],
                out_bits.buffer_info()[0],
                state.buffer_info()[0],
                payload_map.buffer_info()[0],
                1 if tied else 0,
            )
        )


def _private_object(body: bytes = b"") -> str:
    """A fresh file holding ``body`` in this process's load directory.

    dlopen dedupes by (device, inode): loading a shared store path
    directly would return a *stale* handle if the entry was overwritten
    in place while mapped -- validation would then inspect the old
    object, and a truncating writer would leave running kernels one
    page access away from SIGBUS.  A private file gives every load a
    fresh inode and insulates loaded code from later store corruption.
    """
    global _LOAD_DIR
    if _LOAD_DIR is None:
        _LOAD_DIR = tempfile.mkdtemp(prefix="zar-kernel-load-")
    fd, path = tempfile.mkstemp(dir=_LOAD_DIR, suffix=".so")
    with os.fdopen(fd, "wb") as handle:
        handle.write(body)
    return path


def _load_validated(path: str, digest: str, payloads: int) -> NativeKernel:
    """dlopen + self-check; any failure is a :class:`KernelCacheError`."""
    try:
        lib = ctypes.CDLL(path)
        lib.zar_digest.restype = ctypes.c_char_p
        lib.zar_digest.argtypes = []
        lib.zar_codegen_version.restype = ctypes.c_int32
        lib.zar_codegen_version.argtypes = []
        lib.zar_rows.restype = ctypes.c_int64
        lib.zar_rows.argtypes = []
        lib.zar_collect.restype = ctypes.c_int64
        lib.zar_collect.argtypes = [
            ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_int32,
        ]
        found_version = int(lib.zar_codegen_version())
        found_digest = lib.zar_digest().decode()
    except Exception as err:  # dlopen/symbol errors vary wildly by libc
        raise KernelCacheError("kernel object unloadable: %s" % err)
    if found_version != CODEGEN_VERSION:
        raise KernelCacheError(
            "kernel codegen version %d != expected %d"
            % (found_version, CODEGEN_VERSION)
        )
    if found_digest != digest:
        raise KernelCacheError(
            "kernel digest mismatch (%s != %s)" % (found_digest, digest)
        )
    return NativeKernel(lib, digest, payloads)


# -- compilation ---------------------------------------------------------

def _compile(c_path: str) -> str:
    """Run the C compiler; returns the object's path in the load dir."""
    global _INVOCATIONS
    cc = find_compiler()
    if cc is None:
        raise KernelCompileError("no C compiler on PATH (set ZAR_NATIVE_CC)")
    so_path = _private_object()
    _INVOCATIONS += 1
    try:
        # -funroll-loops roughly halves the walk time over plain -O2:
        # the unrolled inner loop pipelines the byte loads across bits.
        proc = subprocess.run(
            [cc, "-O2", "-funroll-loops", "-fPIC", "-shared", "-o", so_path,
             c_path],
            capture_output=True,
            timeout=COMPILE_TIMEOUT,
        )
    except (OSError, subprocess.SubprocessError) as err:
        os.unlink(so_path)
        raise KernelCompileError("compiler failed to run: %s" % err)
    if proc.returncode != 0:
        os.unlink(so_path)
        tail = proc.stderr.decode("utf-8", "replace").strip()[-400:]
        raise KernelCompileError(
            "%s exited %d: %s" % (cc, proc.returncode, tail)
        )
    return so_path


def build_kernel(
    encoded: EncodedTable, cache_dir: Optional[str] = None
) -> Tuple[NativeKernel, Dict[str, object]]:
    """Resolve ``encoded`` to a loaded kernel through the cache tiers.

    Returns ``(kernel, info)`` where ``info`` carries the telemetry
    surface: ``tier`` (``"memory"`` / ``"disk"`` / ``"compiled"``),
    ``compile_ms`` (``None`` unless freshly compiled), ``digest``, and
    ``c_path`` (the kept source, for the CI artifact).  Raises
    :class:`KernelCompileError` when the toolchain is unusable.
    """
    digest = encoded_digest(encoded)
    store = kernel_store(cache_dir)
    c_path = store.path("zk-%s.c" % digest)
    key = "zk-%s-%s.so" % (digest, compiler_fingerprint())
    payloads = len(encoded.payload_map)
    info: Dict[str, object] = {
        "digest": digest,
        "rows": len(encoded.a),
        "c_path": c_path,
        "tier": None,
        "compile_ms": None,
    }

    cached = _MEMORY.get(digest)
    if cached is not None:
        info["tier"] = "memory"
        return cached, info

    # Static range check, once per kernel load rather than per collect:
    # every successor code must be a row index or a terminal whose
    # canonical leaf code exists in the payload map, so a validated
    # kernel can never index past the map the driver passes it.
    low = -(len(encoded.payload_map) + 1)
    rows = len(encoded.a)
    for values in (encoded.a, encoded.b, (encoded.root,)):
        for code in values:
            if not low <= code < rows:
                raise KernelCompileError(
                    "encoded successor %d outside [%d, %d)"
                    % (code, low, rows)
                )

    body = store.get(key)
    if body is not None:
        try:
            kernel = _load_validated(_private_object(body), digest, payloads)
        except KernelCacheError:
            # Verified bytes that fail the self-check: drop the entry
            # and fall through to a fresh compile -- never execute a
            # kernel that failed validation.
            store.drop(key)
        else:
            info["tier"] = "disk"
            _MEMORY[digest] = kernel
            return kernel, info

    source = render_c(encoded, digest)
    start = time.perf_counter()
    atomic_write(c_path, source.encode())
    so_path = _compile(c_path)
    kernel = _load_validated(so_path, digest, payloads)
    with open(so_path, "rb") as handle:
        store.put(key, handle.read())
    info["tier"] = "compiled"
    info["compile_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    _MEMORY[digest] = kernel
    return kernel, info
