"""Shared driver-level measurement for the native-backend speedup bar.

The acceptance target (ROADMAP / ISSUE 10) is ">= 10x over the numpy
driver", measured *at the driver level*: :func:`repro.engine.native.
collect_kernel` against :func:`repro.engine.driver.collect_numpy` plus
``tolist``, so both sides return the Python lists of the kernel's
``(indices, bits)`` contract.  Everything above the drivers (payload
mapping, ``SampleSet`` assembly) is the same work on both sides, so
the driver-level ratio isolates what the kernel buys; the end-to-end
``run_row`` rate is recorded separately by the Table 3 bench.

The gate is the **geometric mean across a bench's rows**, not a
per-row floor: the tiny n=6 die is dominated by per-call fixed costs
(pool construction, output allocation) that the kernel cannot remove,
while larger tables and rejection-heavy programs sit far above the bar;
the geometric mean weighs those regimes evenly.  Per-row numbers are
still recorded so a regression in any regime is visible in
``BENCH_engine.json``.
"""

from benchmarks._common import bench_samples, timed_run

#: Median-of reps per timed side; keeps one scheduler hiccup from
#: polluting a recorded row on shared CI runners.
TIMING_REPS = 3


def _median_seconds(fn, reps=TIMING_REPS):
    times = []
    for _ in range(reps):
        _, seconds = timed_run(fn)
        times.append(seconds)
    return sorted(times)[len(times) // 2]


def measure_native_rows(cases, seed=17):
    """Time native vs numpy per case; returns ``(rows, geomean)``.

    ``cases`` is ``[(param_label, command, weight)]``.  Each case is
    compiled with the default batch profile knobs, resolved to a
    kernel (a case the resolver refuses fails the bench loudly -- the
    speedup suite only runs on closed tables), spot-checked bit-for-bit
    against the pooled Python driver, then timed median-of-reps on both
    sides at the bench's sample count.
    """
    from repro.compiler.pipeline import compile_program
    from repro.engine.driver import collect_numpy, collect_python
    from repro.engine.native import collect_kernel, kernel_for
    from repro.engine.pool import BitPool
    from repro.engine.profile import PROFILES

    base = PROFILES["batch-auto"]
    rows = []
    product = 1.0
    for param, command, weight in cases:
        count = bench_samples(weight)
        program = compile_program(
            command, None, passes=base.passes, coalesce=base.coalesce,
            max_nodes=base.max_nodes,
        )
        bound, reason, info = kernel_for(program.table)
        assert bound is not None, "%s: native refused: %s" % (param, reason)

        # Warm both sides (kernel compile, numpy lane buffers) and pin
        # the contract: the kernel's (indices, bits) stream is exactly
        # the pooled Python driver's.
        spot = min(count, 256)
        assert collect_kernel(bound, spot, seed=seed) == collect_python(
            program.table, spot, BitPool(seed)
        ), "%s: native stream diverged from the pooled reference" % param
        collect_numpy(program.table, spot, seed=seed)

        native_seconds = _median_seconds(
            lambda: collect_kernel(bound, count, seed=seed)
        )
        numpy_seconds = _median_seconds(
            lambda: [
                arr.tolist()
                for arr in collect_numpy(program.table, count, seed=seed)
            ]
        )
        speedup = numpy_seconds / native_seconds
        product *= speedup
        rows.append(
            {
                "param": param,
                "samples": count,
                "kernel_rows": info["rows"],
                "kernel_tier": info["tier"],
                "native_seconds": round(native_seconds, 6),
                "numpy_seconds": round(numpy_seconds, 6),
                "native_samples_per_sec": round(count / native_seconds, 1),
                "numpy_samples_per_sec": round(count / numpy_seconds, 1),
                "speedup": round(speedup, 2),
            }
        )
    geomean = product ** (1.0 / len(rows)) if rows else 0.0
    return rows, geomean
