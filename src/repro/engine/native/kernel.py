"""Compile, cache, and load the native walker.

There is one C program, the generic walker
(:data:`~repro.engine.native.codegen.WALKER_SOURCE`); tables are data
it reads at call time.  It is compiled once per (walker version,
compiler fingerprint) and kept in a :class:`repro.store.Store`:
``ZAR_NATIVE_CACHE_DIR`` names the directory explicitly, else it is the
``kernels/`` subdirectory of the compilation cache's disk tier
(``configure_cache(disk_dir=...)`` / ``ZAR_COMPILE_CACHE_DIR``), else a
per-process temporary directory.

- ``zw-v<version>.c`` is the kept source (CI uploads it);
- ``zw-v<version>-<fingerprint>.so`` is the object, where the
  fingerprint hashes the resolved compiler path and its ``--version``
  banner, so a toolchain upgrade recompiles instead of loading an
  ABI-stale object;
- every load self-checks ``zar_walker_version()`` after ``dlopen``.

The store verifies each entry's key and SHA-256 before anything is
loaded.  An entry that fails that check or the self-check is unlinked,
counted as ``corrupt`` in :func:`kernel_store`'s stats, and recompiled
-- never executed.

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

from repro.engine.native.codegen import WALKER_SOURCE, WALKER_VERSION
from repro.store import Store, atomic_write

__all__ = [
    "COMPILE_TIMEOUT",
    "KernelCacheError",
    "KernelCompileError",
    "NativeKernel",
    "compiler_fingerprint",
    "compiler_invocations",
    "find_compiler",
    "kernel_cache_dir",
    "kernel_store",
    "load_walker",
    "native_available",
    "reset_kernel_runtime",
]

COMPILE_TIMEOUT = 120  # seconds; the walker compiles in about 0.1 s


class KernelCompileError(RuntimeError):
    """The C compiler failed (or is missing) for the walker."""


class KernelCacheError(RuntimeError):
    """A cached kernel object failed validation (corrupt/stale entry)."""


# -- process-wide runtime state (reset_kernel_runtime clears it all) -----

#: store key -> loaded NativeKernel: the in-process (memory) tier.
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
    """The validated, loaded walker.

    The ctypes binding: buffers are passed by address, so callers keep
    them alive for the duration of :meth:`walk`.
    """

    def __init__(self, lib):
        self._lib = lib

    def walk(self, edges, root: int, bits: bytes, total_bits: int,
             done: int, n: int, out_idx, out_bits, state,
             tied: bool) -> int:
        return self._lib.zar_walk(
            edges.buffer_info()[0], root, bits, total_bits, done, n,
            out_idx.buffer_info()[0],
            out_bits.buffer_info()[0],
            state.buffer_info()[0],
            1 if tied else 0,
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


def _load_validated(path: str) -> NativeKernel:
    """dlopen + self-check; any failure is a :class:`KernelCacheError`."""
    try:
        lib = ctypes.CDLL(path)
        lib.zar_walker_version.restype = ctypes.c_int32
        lib.zar_walker_version.argtypes = []
        lib.zar_walk.restype = ctypes.c_int64
        lib.zar_walk.argtypes = [
            ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_int32,
        ]
        found_version = int(lib.zar_walker_version())
    except Exception as err:  # dlopen/symbol errors vary wildly by libc
        raise KernelCacheError("walker object unloadable: %s" % err)
    if found_version != WALKER_VERSION:
        raise KernelCacheError(
            "walker version %d != expected %d"
            % (found_version, WALKER_VERSION)
        )
    return NativeKernel(lib)


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


def load_walker(
    cache_dir: Optional[str] = None,
) -> Tuple[NativeKernel, Dict[str, object]]:
    """Resolve the walker through the memory, disk and compile tiers.

    Returns ``(walker, info)`` where ``info`` carries the telemetry
    surface: ``tier`` (``"memory"`` / ``"disk"`` / ``"compiled"``),
    ``compile_ms`` (``None`` unless freshly compiled), the store
    ``key`` and ``c_path`` (the kept source, for the CI artifact).
    Raises :class:`KernelCompileError` when the toolchain is unusable.
    """
    store = kernel_store(cache_dir)
    key = "zw-v%d-%s.so" % (WALKER_VERSION, compiler_fingerprint())
    c_path = store.path("zw-v%d.c" % WALKER_VERSION)
    info: Dict[str, object] = {
        "key": key,
        "c_path": c_path,
        "tier": None,
        "compile_ms": None,
    }

    cached = _MEMORY.get(key)
    if cached is not None:
        info["tier"] = "memory"
        return cached, info

    body = store.get(key)
    if body is not None:
        try:
            walker = _load_validated(_private_object(body))
        except KernelCacheError:
            # Verified bytes that fail the self-check: drop the entry
            # and fall through to a fresh compile -- never execute a
            # walker that failed validation.
            store.drop(key)
        else:
            info["tier"] = "disk"
            _MEMORY[key] = walker
            return walker, info

    start = time.perf_counter()
    atomic_write(c_path, WALKER_SOURCE.encode())
    so_path = _compile(c_path)
    walker = _load_validated(so_path)
    with open(so_path, "rb") as handle:
        store.put(key, handle.read())
    info["tier"] = "compiled"
    info["compile_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    _MEMORY[key] = walker
    return walker, info
