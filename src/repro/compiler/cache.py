"""The content-addressed compilation cache (in-memory LRU + disk).

Compiled artifacts are keyed by the SHA-256 digest of the program, the
initial state, and every compilation option that affects the output
(:func:`repro.compiler.digest.program_digest`).  Two layers:

- an **in-memory LRU** holding :class:`~repro.compiler.pipeline.
  CompiledProgram` objects -- repeated ``BatchSampler.from_command``
  calls, harness rows, and MCMC replays in one process reuse the same
  node table (which also means JIT loop expansions accumulate instead of
  being redone);
- an optional **on-disk store** (one verified :class:`repro.store.Store`
  entry per digest) so separate processes -- CLI invocations, CI runs,
  benchmark sweeps -- skip compilation entirely.  The body is
  ``marshal.dumps(CompiledProgram.disk_payload())``; ``marshal.loads``
  runs no Python code.  Closed tables spill as plain row arrays; *open*
  tables (warm loop-state spaces mid-expansion) spill through
  :mod:`repro.engine.freeze`, which replaces every ``Fix`` closure by
  its content-digest triple and rebinds fresh closures on load, so even
  JIT expansion work survives across processes.

Configuration: ``configure_cache(capacity=..., disk_dir=...)`` or the
environment variables ``ZAR_COMPILE_CACHE_SIZE`` (entry bound, default
128) and ``ZAR_COMPILE_CACHE_DIR`` (enables the disk layer).  Programs
containing :class:`~repro.lang.expr.Opaque` expressions are
:class:`~repro.compiler.digest.Undigestable` and bypass both layers.
"""

import marshal
import os
from collections import OrderedDict
from typing import Dict, Optional

from repro.cftree.cache import env_int
from repro.store import Store


class CompilationCache:
    """Digest-keyed LRU of compiled programs with an optional disk tier."""

    def __init__(self, capacity: Optional[int] = None,
                 disk_dir: Optional[str] = None):
        if capacity is None:
            capacity = env_int("ZAR_COMPILE_CACHE_SIZE", 128)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if disk_dir is None:
            disk_dir = os.environ.get("ZAR_COMPILE_CACHE_DIR") or None
        self.capacity = capacity
        self.disk_dir = disk_dir
        self._store = Store(disk_dir) if disk_dir else None
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    # -- in-memory tier --------------------------------------------------

    def get(self, digest: str):
        """The cached :class:`CompiledProgram` for ``digest``, or None."""
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            self.memory_hits += 1
            return entry
        entry = self._disk_load(digest)
        if entry is not None:
            self.disk_hits += 1
            self._remember(digest, entry)
            return entry
        self.misses += 1
        return None

    def put(self, digest: str, program) -> None:
        self.stores += 1
        self._remember(digest, program)
        self._disk_store(digest, program)

    def _remember(self, digest: str, program) -> None:
        self._entries[digest] = program
        self._entries.move_to_end(digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- disk tier -------------------------------------------------------

    def _disk_store(self, digest: str, program) -> None:
        if self._store is None:
            return
        try:
            payload = program.disk_payload()
            if payload is None:  # open table that cannot freeze
                return
            body = marshal.dumps(payload)
        except ValueError:  # a value freeze or marshal cannot encode
            self._store.store_failures += 1
            return
        self._store.put(digest + ".zarc", body)

    def _disk_load(self, digest: str):
        if self._store is None:
            return None
        key = digest + ".zarc"
        body = self._store.get(key)
        if body is None:
            return None
        from repro.compiler.pipeline import CompiledProgram

        try:
            return CompiledProgram.from_disk_payload(marshal.loads(body))
        except (EOFError, IndexError, KeyError, TypeError, ValueError):
            # Verified bytes that do not decode (another marshal
            # version, say): drop and rebuild as on any corrupt entry.
            self._store.drop(key)
            return None

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, object]:
        disk = self._store.stats() if self._store else {}
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_stores": disk.get("stores", 0),
            "disk_corrupt": disk.get("corrupt", 0),
            "disk_store_failures": disk.get("store_failures", 0),
            "entries": len(self._entries),
            "capacity": self.capacity,
            "disk_dir": self.disk_dir,
        }

    def clear(self) -> None:
        """Empty the memory tier; the disk store is left as it is."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_GLOBAL: Optional[CompilationCache] = None


def get_cache() -> CompilationCache:
    """The process-wide cache backing the default pipeline."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = CompilationCache()
    return _GLOBAL


def configure_cache(capacity: Optional[int] = None,
                    disk_dir: Optional[str] = None) -> CompilationCache:
    """Replace the process-wide cache (returns the new instance)."""
    global _GLOBAL
    _GLOBAL = CompilationCache(capacity=capacity, disk_dir=disk_dir)
    return _GLOBAL
