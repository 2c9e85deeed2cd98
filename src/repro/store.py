"""Verified on-disk stores for the compile cache and the kernel store.

A compiled node table is the sampler Theorem 4.2 speaks about, and a
kernel object is code this process will execute, so a store may hand
back nothing but the bytes it stored under that key.  Every entry is
one header line, ``zar-store-1 <key> <sha256(body) hex>``, then the
body.  ``Store.get`` returns the body only when the header names the
requested key and the hash matches; anything else (a torn write, a
flipped bit, an entry copied under another key, an older format) is
unlinked and counted as ``corrupt`` before any byte is decoded.
``Store.put`` writes atomically and counts a failed write instead of
raising: a cold store is always acceptable.
"""

import hashlib
import os
import tempfile
from typing import Dict, Optional

__all__ = ["MAGIC", "Store", "atomic_write"]

#: Format tag of the header line; entries with another tag are corrupt.
MAGIC = b"zar-store-1"


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and a rename.

    Creates the parent directory; raises :class:`OSError` on failure,
    leaving no temp file behind.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _header(key: str, body: bytes) -> bytes:
    return b"%s %s %s\n" % (
        MAGIC, key.encode(), hashlib.sha256(body).hexdigest().encode()
    )


class Store:
    """A directory of verified entries, one file per key.

    ``key`` is the entry's file name (``<digest>.zarc``,
    ``zw-v<version>-<fp>.so``); it must not contain whitespace.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.store_failures = 0

    def path(self, key: str) -> str:
        return os.path.join(self.directory, key)

    def get(self, key: str) -> Optional[bytes]:
        """The verified body stored under ``key``, or ``None``."""
        try:
            with open(self.path(key), "rb") as handle:
                data = handle.read()
        except OSError:
            self.misses += 1
            return None
        end = data.find(b"\n") + 1
        body = data[end:]
        if not end or data[:end] != _header(key, body):
            self.drop(key)
            self.misses += 1
            return None
        self.hits += 1
        return body

    def put(self, key: str, body: bytes) -> bool:
        """Store ``body`` under ``key``; False (counted) on a failed write."""
        try:
            atomic_write(self.path(key), _header(key, body) + body)
        except OSError:
            self.store_failures += 1
            return False
        self.stores += 1
        return True

    def drop(self, key: str) -> None:
        """Unlink a corrupt entry and count it; the caller rebuilds."""
        self.corrupt += 1
        try:
            os.unlink(self.path(key))
        except OSError:
            pass

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "store_failures": self.store_failures,
        }
