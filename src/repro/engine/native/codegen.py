"""The native walker's C source and the table encoding it reads.

One C function, ``zar_walk``, serves every program: it walks an
``int32`` edge array handed over at call time, so no table is ever
compiled.  Interior rows of a threaded table are all ``OP_BIT`` rows,
and row ``r``'s two successors sit at ``edges[2*r + bit]`` (``bit = 0``
is the ``b`` edge), so the inner step is

    slot = 2*i + bit;  i = edges[slot];

with no data-dependent branch on a fair bit.  Everything that is not a
bit row is folded into the edge code instead of occupying a row:

- ``>= 0``        -- an encoded bit row;
- ``-1``          -- observation failure (``OP_FAIL``);
- ``-2``          -- an unexpanded loop-state stub (``OP_STUB``);
- ``-(p + 3)``    -- the leaf with payload index ``p``.

An edge into a stub makes the walker *park*: it stops with the stub's
slot (``-1`` for the root) and its in-flight ``(bits used, buffer
position)`` in the state array and hands control back to Python.
:meth:`Encoding.resolve` expands the stub through
:meth:`~repro.engine.table.NodeTable.resolve` -- the expansion the
Python drivers would do on the same visit, consuming no bits -- appends
the newly reachable rows, patches every edge into that stub, and the
walker resumes.  The encoding is therefore **append-only**: a row's
number never changes, only stub edges are rewritten.

Every code is range-checked before the walker can read it, at the first
encode and at every patch: a row below the encoded row count, ``FAIL``,
``STUB``, or a leaf whose payload index exists.  What cannot be walked
raises :class:`KernelUnsupported` with the reason the caller surfaces
through ``CollectResult.fallback_reason``: ``OP_CALL`` rows (frame-
separated loop returns resolve lazily in Python), bit-free jump cycles
and a root that resolves to ``FAIL`` (the walk would diverge without
consuming bits).
"""

from array import array
from typing import Dict, List

from repro.engine.table import (
    NodeTable,
    OP_BIT,
    OP_CALL,
    OP_FAIL,
    OP_JMP,
    OP_LEAF,
    OP_STUB,
)

__all__ = [
    "CODE_FAIL",
    "CODE_STUB",
    "Encoding",
    "KernelUnsupported",
    "WALKER_SOURCE",
    "WALKER_VERSION",
]

#: Bump whenever the edge codes, the state layout or the C source
#: change: the version is part of the store key and of the load-time
#: self-check, so a stale cached walker misses cleanly.
WALKER_VERSION = 1

CODE_FAIL = -1
CODE_STUB = -2

#: Park slot of the root (bit-row slots are ``>= 0``).
ROOT_SLOT = -1
#: ``state[3]`` when the walker returned without parking.
NO_PARK = -2
#: ``state[0]`` when no sample is in flight.
FRESH_STATE = -(2 ** 63)


class KernelUnsupported(ValueError):
    """The table cannot be walked natively (reason in args)."""


class Encoding:
    """The walker's append-only encoding of one table.

    Construction encodes every row reachable from the root without
    expanding a stub.  ``edges`` is the ``array('i')`` the walker
    reads, ``root`` the root's edge code.  Rows are numbered in
    discovery order from the threaded root; stub edges wait in
    ``_waiting`` (stub row -> slots) until a park resolves them.  The
    encoding holds table row indices, so it is valid for one layout
    generation of the table (see ``NodeTable.generation``).
    """

    def __init__(self, table: NodeTable):
        self.table = table
        self.edges = array("i")
        self._number: Dict[int, int] = {}
        self._order: List[int] = []
        self._waiting: Dict[int, List[int]] = {}
        self._stub_at: Dict[int, int] = {}
        self._set_root(self._code(table.root, ROOT_SLOT))
        self._drain()

    @property
    def rows(self) -> int:
        return len(self._order)

    def _code(self, index: int, slot: int) -> int:
        """The edge code of table row ``index`` written at ``slot``."""
        table = self.table
        op = table.op
        if op[index] == OP_JMP:
            seen = {index}
            while op[index] == OP_JMP:
                index = table.a[index]
                if index in seen:
                    raise KernelUnsupported(
                        "bit-free jump cycle (the walk would diverge "
                        "without consuming bits)"
                    )
                seen.add(index)
        o = op[index]
        if o == OP_BIT:
            row = self._number.get(index)
            if row is None:
                row = self._number[index] = len(self._order)
                self._order.append(index)
            return row
        if o == OP_LEAF:
            return -(table.payload[index] + 3)
        if o == OP_FAIL:
            return CODE_FAIL
        if o == OP_STUB:
            self._waiting.setdefault(index, []).append(slot)
            self._stub_at[slot] = index
            return CODE_STUB
        raise KernelUnsupported(
            "call rows (frame-separated loop returns resolve lazily in "
            "Python)"
        )

    def _low(self) -> int:
        return -(len(self.table.payloads) + 2)

    def _set_root(self, code: int) -> None:
        if code == CODE_FAIL:
            raise KernelUnsupported(
                "root resolves to FAIL (a tied restart would diverge "
                "without consuming bits)"
            )
        if not self._low() <= code < len(self._order):
            raise KernelUnsupported("root code %d out of range" % code)
        self.root = code

    def _drain(self) -> None:
        """Encode every numbered row that has no edges yet, then
        range-check the appended edges before the walker can see them."""
        table = self.table
        a, b, order, edges = table.a, table.b, self._order, self.edges
        start = row = len(edges) // 2
        while row < len(order):
            index = order[row]
            edges.append(self._code(b[index], 2 * row))
            edges.append(self._code(a[index], 2 * row + 1))
            row += 1
        if row > start:
            fresh = edges[2 * start:]
            low, high = min(fresh), max(fresh)
            if low < self._low() or high >= len(order):
                raise KernelUnsupported(
                    "edge code outside [%d, %d)" % (self._low(), len(order))
                )

    def write(self, slot: int, code: int) -> None:
        """Patch the edge at ``slot`` (``ROOT_SLOT``: the root) after a
        range check; an out-of-range code is refused unwritten."""
        if slot == ROOT_SLOT:
            self._set_root(code)
            return
        if not self._low() <= code < len(self._order):
            raise KernelUnsupported(
                "patched edge code %d outside [%d, %d)"
                % (code, self._low(), len(self._order))
            )
        self.edges[slot] = code

    def resolve(self, slot: int) -> int:
        """Expand the stub the walker parked on at ``slot``, patch every
        edge waiting on it, and return the code to resume with."""
        stub = self._stub_at[slot]
        target = self.table.resolve(stub)
        code = self._code(target, slot)
        self._drain()
        for waiting in self._waiting.pop(stub):
            self.write(waiting, code)
            del self._stub_at[waiting]
        return code


WALKER_SOURCE = """\
/* zar native walker v%(version)d.
 *
 * One table walk for every program: the table is an int32 edge array
 * passed at call time.  Edge codes: >= 0 is a bit row, -1 observation
 * failure, -2 an unexpanded stub, -(p + 3) the leaf with payload p.
 * Row r's successors sit at edges[2*r + bit], so the inner step is
 * pure address arithmetic (a fair bit mispredicts by construction).
 * The walk consumes the caller's packed fair-bit buffer LSB-first per
 * byte, little-endian across bytes -- BitPool's exact chunk order.
 */
#include <stdint.h>

#define ZAR_FAIL (-1)
#define ZAR_STUB (-2)
#define ZAR_ROOT_SLOT (-1)
#define ZAR_NO_PARK (-2)
#define ZAR_FRESH (-9223372036854775807LL - 1)

int32_t zar_walker_version(void) { return %(version)d; }

/* Draw samples done..n-1; returns the new number of finished samples.
 *
 * state[0] is the in-flight edge code (ZAR_FRESH: none), state[1] its
 * bits used, state[2] the position in this buffer, state[3] the park
 * slot.  The walker returns when n samples are done, when the buffer
 * drains mid-sample (state[3] == ZAR_NO_PARK; the caller refills and
 * resets state[2]), or when an edge leads into a stub: then state[3]
 * is that edge's slot (ZAR_ROOT_SLOT for the root), the bit that chose
 * it is already counted, and the caller expands the stub, patches the
 * edge, stores the resolved code in state[0] and calls again.  A tied
 * failure restarts at the root without resetting the bit counter --
 * the sequential driver's restart semantics.
 */
int64_t zar_walk(const int32_t *edges, int64_t root,
                 const unsigned char *bits, int64_t total_bits,
                 int64_t done, int64_t n,
                 int64_t *out_idx, int64_t *out_bits,
                 int64_t *state, int32_t tied)
{
    int64_t i = state[0];
    int64_t used = state[1];
    int64_t pos = state[2];
    if (i == ZAR_FRESH) {
        i = root;
        used = 0;
    }
    while (done < n) {
        int64_t slot = ZAR_ROOT_SLOT;
        while (i >= 0) {
            if (pos >= total_bits) {
                state[0] = i;
                state[1] = used;
                state[2] = pos;
                state[3] = ZAR_NO_PARK;
                return done;
            }
            slot = (i << 1) | ((bits[pos >> 3] >> (pos & 7)) & 1);
            i = (int64_t)edges[slot];
            pos++;
            used++;
        }
        if (i == ZAR_STUB) {
            state[0] = ZAR_STUB;
            state[1] = used;
            state[2] = pos;
            state[3] = slot;
            return done;
        }
        if (i == ZAR_FAIL && tied) {
            i = root;
            continue;
        }
        out_idx[done] = (i == ZAR_FAIL) ? -1 : -i - 3;
        out_bits[done] = used;
        done++;
        i = root;
        used = 0;
    }
    state[0] = ZAR_FRESH;
    state[1] = 0;
    state[2] = pos;
    state[3] = ZAR_NO_PARK;
    return done;
}
""" % {"version": WALKER_VERSION}
