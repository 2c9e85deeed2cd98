"""Host-speed correction for the benchmark's timings.

On a shared host the speed of one core drifts by a third or more
within a minute, and every timing drifts with it: two sets of runs of
the same code can differ by more than any bound a regression gate can
afford.  The benchmark therefore times a fixed pure-Python integer
loop (a *chunk*) between ops and reports each op's time scaled to the
speed at which the chunk takes ``REFERENCE_S``::

    corrected = measured * REFERENCE_S / (median chunk time near the op)

A corrected time is what the op would take on the reference host; a
program that does more work still takes longer, but the host getting
slower does not make it look so.  The chunk allocates no container
objects, so nothing the program under test leaves behind (garbage,
collector thresholds, caches) changes how long it takes.  Raw wall
times are printed beside the corrected ones.
"""

import statistics
import time
from typing import List, Sequence

#: Loop iterations of one chunk.
LOOPS = 50_000

#: Median seconds of one chunk on the host the benchmark was written
#: on (2-vCPU x86-64 container, Python 3.11).  Corrected times are in
#: that host's seconds.
REFERENCE_S = 0.0035

#: Chunks on each side of an op whose median scales it.
HALF_WINDOW = 5


def chunk() -> float:
    """Seconds one chunk takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.perf_counter() - start


def sample(chunks: int) -> float:
    """Median seconds of ``chunks`` chunks run back to back."""
    return statistics.median(chunk() for _ in range(chunks))


def factors(chunk_s: Sequence[float],
            half_window: int = HALF_WINDOW) -> List[float]:
    """Per-op scale factors: ``REFERENCE_S`` over the median chunk time
    of the ``2 * half_window + 1`` chunks centred on each op (clipped at
    the ends of the run)."""
    out = []
    for index in range(len(chunk_s)):
        near = chunk_s[max(0, index - half_window):index + half_window + 1]
        out.append(REFERENCE_S / statistics.median(near))
    return out
