"""One benchmark process: set a workload up, run its ops, report JSON.

``run.py`` starts this with a scrubbed environment; it is not meant to
be run by hand.  Modes::

    worker.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]
    worker.py --ops            # ops as JSON on stdin, one interpreter

The second mode is the newly started interpreter of a restart-store op
(and of its populate step).  The last line of stdout is one JSON
object.  ``time.monotonic`` stamps are compared across processes
(CLOCK_MONOTONIC is system-wide on Linux).
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import repro
from repro.compiler.cache import get_cache
from repro.engine.profile import profile_named
from repro.lang import parser
from repro.sampler import harness

import check
import hostspeed
import ledger
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if not os.path.abspath(repro.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep):
    sys.exit("repro imported from %s, not from this checkout's src/"
             % repro.__file__)

#: Span names whose summed inclusive time ``CompiledProgram.stats``
#: also measures, for the ledger's cross-check.
STAGE_SPANS = ("compiler.normalize", "analysis.prune", "cftree.build",
               "compiler.passes.elim_choices", "compiler.passes.debias",
               "compiler.passes.cse", "engine.table.lower")


def op_to_json(op):
    return {"family": op.program.family,
            "params": [str(p) for p in op.program.params],
            "n": op.n, "seed": op.seed, "pinned": op.pinned}


def op_from_json(blob):
    params = tuple(int(f) if f.denominator == 1 else f
                   for f in map(Fraction, blob["params"]))
    return workloads.Op(workloads.Program(blob["family"], params),
                        blob["n"], blob["seed"], blob["pinned"])


def stage_seconds(stats):
    """Seconds a built program's stats give the spans in STAGE_SPANS."""
    return (stats["normalize"]["seconds"] + stats["analysis"]["seconds"]
            + stats["build"]["seconds"] + stats["lower"]["seconds"]
            + sum(entry["seconds"] for entry in stats["optimize"]))


class Runner:
    """Runs ops in this process and records what each returned."""

    def __init__(self, trace: bool):
        self.tracer = ledger.Tracer() if trace else None
        self.instrument = ledger.Instrument(self.tracer)
        self.instrument.install()
        self.commands = {}  # programs the caller already holds
        self.references = {}

    def reference(self, program):
        pmf = self.references.get(program)
        if pmf is None:
            pmf = self.references[program] = program.reference()
        return pmf

    def run(self, op):
        """One op; a JSON-ready record with its time and output."""
        program = op.program
        command = self.commands.get(program)
        if command is None and program.source is None:
            command = self.commands[program] = program.command()
        pmf = self.reference(program)
        profile = profile_named(op.pinned) if op.pinned else None
        before = get_cache().stats()
        self.instrument.reset()
        tracer = self.tracer
        root = tracer.open("op") if tracer else None
        error = None
        start = time.perf_counter()
        try:
            if command is None:
                command = self.commands[program] = parser.parse_program(
                    program.source)
            row = harness.run_row(command, program.variable, program.label,
                                  true_pmf=pmf, n=op.n, seed=op.seed,
                                  profile=profile)
        except Exception as err:  # an op that raises is a failed op
            row, error = None, "%s: %s" % (type(err).__name__, err)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        return self._record(op, seconds, row, error, before)

    def _record(self, op, seconds, row, error, before):
        after = get_cache().stats()
        hits = {key: after[key] - before[key]
                for key in ("memory_hits", "disk_hits", "misses")}
        record = {"label": op.label, "s": seconds, "n": op.n,
                  "error": error, "cache": hits,
                  "kernels": list(self.instrument.kernels)}
        results = self.instrument.results
        if row is not None and results:
            result = results[-1]
            samples = result.samples
            record.update(
                bits=sum(samples.bits),
                # Anything but an int or bool (a failure sentinel, say)
                # travels as its repr and fails the check as off-support.
                counts=[[value if isinstance(value, int) else repr(value),
                         count]
                        for value, count in Counter(samples.values).items()],
                digest=check.digest(samples.values, samples.bits),
                row={"samples": row.samples, "mean": row.mean,
                     "mean_bits": row.mean_bits},
                profile=getattr(result.profile, "name", None),
                fallback=result.fallback_reason,
            )
        # A miss means this op built a program (the auto policy may look
        # it up twice; count each object once).
        built = list({id(p): p for p in self.instrument.programs
                      if hits["misses"] and p.source == "built"}.values())
        record["rows"] = sum(p.stats["lower"]["rows"] for p in built)
        if self.tracer:
            summary = ledger.summarize(self.tracer.drain())
            record["ledger"] = summary
            if built:
                record["stage_check"] = [
                    sum(summary[name]["inclusive"] for name in STAGE_SPANS
                        if name in summary) / 1e9,
                    sum(stage_seconds(p.stats) for p in built),
                ]
        return record


def restart_ops(ops, trace, env):
    """Run ``ops`` in one newly started interpreter; their records.

    An interpreter that dies yields failed records (error set) instead.
    """
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--ops"],
        input=json.dumps({"ops": [op_to_json(op) for op in ops],
                          "trace": trace}),
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=150,
    )
    if done.returncode != 0:
        error = "interpreter exited with %d: %s" % (
            done.returncode, done.stderr.strip()[-500:])
        return [{"label": op.label, "s": time.monotonic() - spawned,
                 "n": op.n, "error": error, "rows": 0, "kernels": [],
                 "cache": {"memory_hits": 0, "disk_hits": 0, "misses": 0},
                 "rss_kb": 0} for op in ops]
    reply = json.loads(done.stdout.strip().splitlines()[-1])
    records = reply["records"]
    # A restarted caller pays for the interpreter's start and imports:
    # the first op of the interpreter owns them, as its own layer.
    startup = reply["ready"] - spawned
    records[0]["s"] += startup
    if "ledger" in records[0]:
        ns = int(startup * 1e9)
        records[0]["ledger"]["op"]["inclusive"] += ns
        records[0]["ledger"]["process.startup"] = {
            "self": ns, "inclusive": ns, "count": 1}
    for record in records:
        record["rss_kb"] = reply["rss_kb"]
    return records


def ops_main():
    """The restart interpreter: run the ops on stdin, print records."""
    request = json.loads(sys.stdin.read())
    runner = Runner(bool(request["trace"]))
    ready = time.monotonic()
    records = [runner.run(op_from_json(blob)) for blob in request["ops"]]
    print(json.dumps({"ready": ready, "records": records,
                      "rss_kb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss}))


def judge(ops, records, runner):
    """Check each op's output; the failures, op by op."""
    failures = []
    for index, (op, record) in enumerate(zip(ops, records)):
        reason = record["error"]
        if reason is None and "counts" not in record:
            reason = "no samples were returned"
        if reason is None:
            reason = check.check_op(
                {value: count for value, count in record["counts"]},
                record["bits"], record["n"], runner.reference(op.program),
                record["row"])
        record["ok"] = reason is None
        if reason is not None:
            failures.append({"op": index, "label": record["label"],
                             "reason": reason})
    return failures


def timings(seconds, good, n):
    """p50/p90 op ms and samples/s from per-op ``seconds``."""
    ms = [value * 1000.0 for value in seconds]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1]
    delivered = sum(count for count, ok in zip(n, good) if ok)
    return {"op_ms_p50": statistics.median(ms), "op_ms_p90": p90,
            "samples_per_s": delivered / sum(seconds),
            "ops_beyond_p90": sum(1 for value in ms if value > p90)}


def end_to_end(records):
    """Host-speed-corrected timings (see ``hostspeed``), the raw ones
    under ``raw``, and the untimed metrics."""
    good = [record["ok"] for record in records]
    n = [record["n"] for record in records]
    raw = [record["s"] for record in records]
    scale = hostspeed.factors([record["chunk_s"] for record in records])
    out = timings([s * f for s, f in zip(raw, scale)], good, n)
    delivered = sum(count for count, ok in zip(n, good) if ok)
    out.update(
        raw=timings(raw, good, n),
        bits_per_sample=(sum(r["bits"] for r in records if r["ok"])
                         / delivered) if delivered else 0.0,
        error_rate=good.count(False) / len(records),
        ops=len(records),
    )
    return out


def observability(records):
    """Counts of what served each op, read from the returned objects."""
    out = {name: Counter() for name in
           ("profile", "fallback", "compile_cache", "kernel")}
    for record in records:
        out["profile"][record.get("profile") or "-"] += 1
        fallback = record.get("fallback")
        out["fallback"][fallback.split(":")[0] if fallback else "none"] += 1
        hits = record["cache"]
        tier = ("built" if hits["misses"] else "disk" if hits["disk_hits"]
                else "memory" if hits["memory_hits"] else "uncached")
        out["compile_cache"][tier] += 1
        for tier, _ in record["kernels"]:
            out["kernel"][tier or "refused"] += 1
    return {name: dict(counter) for name, counter in out.items()}


#: Spans whose self time per op is a per_layer metric, ``<span>_s``.
LAYER_SPANS = (
    "lang.parse", "compiler.normalize", "analysis.prune", "cftree.build",
    "compiler.passes.elim_choices", "compiler.passes.debias",
    "compiler.passes.cse", "compiler.stats", "engine.table.lower",
    "compiler.cache.get", "compiler.cache.put", "engine.freeze.freeze",
    "engine.freeze.thaw", "engine.freeze.rebind", "engine.native.resolve",
    "engine.native.kernel", "engine.driver", "engine.assemble",
    "sampler.rowstats", "engine.table.expand", "engine.policy",
    "process.startup",
)

PROFILES = ("batch-numpy", "batch-python", "native", "trampoline")


def per_layer(records, span_cost_ns):
    """The traced run's per-op layer metrics and their units."""
    total = {}
    for record in records:  # an interpreter that died left no ledger
        ledger.merge(total, record.get("ledger", {}))
    ops = len(records)
    op_ns = max(1, total.get("op", {}).get("inclusive", 0))
    out = {}
    for span in LAYER_SPANS:
        out[span + "_s"] = (total.get(span, {}).get("self", 0) / 1e9 / ops,
                            "s/op")

    def per_op(value):
        return (value / ops, "count/op")

    out["engine.table.rows"] = per_op(sum(r["rows"] for r in records))
    out["engine.table.expansions"] = per_op(
        total.get("engine.table.expand", {}).get("count", 0))
    for metric, key in (("hit_memory", "memory_hits"),
                        ("hit_disk", "disk_hits"), ("miss", "misses")):
        out["compiler.cache." + metric] = per_op(
            sum(r["cache"][key] for r in records))
    kernels = [k for r in records for k in r["kernels"]]
    out["engine.native.compiles"] = per_op(
        sum(1 for tier, _ in kernels if tier == "compiled"))
    out["engine.native.refusals"] = per_op(
        sum(1 for _, refusal in kernels if refusal is not None))
    profiles = Counter(r.get("profile") for r in records)
    for name in PROFILES:
        out["engine.profile." + name] = per_op(profiles.pop(name, 0))
    out["engine.profile.other"] = per_op(sum(profiles.values()))
    fallbacks = Counter((r.get("fallback") or "").split(":")[0]
                        for r in records)
    out["engine.fallback.native_unavailable"] = per_op(
        fallbacks["native-unavailable"])
    out["engine.fallback.other"] = per_op(
        sum(fallbacks.values()) - fallbacks[""]
        - fallbacks["native-unavailable"])
    untraced = sum(total[name]["self"] for name in ledger.CONTAINERS
                   if name in total)
    out["trace.untraced_share"] = (untraced / op_ns, "share")
    spans = sum(entry["count"] for entry in total.values())
    out["trace.overhead_share"] = (span_cost_ns * spans / op_ns, "share")
    checked = [r["stage_check"] for r in records if "stage_check" in r]
    stage_stats = sum(stats for _, stats in checked)
    out["trace.compile_stats_gap"] = (
        abs(sum(spans_s for spans_s, _ in checked) - stage_stats)
        / stage_stats if stage_stats else 0.0, "share")
    return out, total


#: Host-speed chunks after set-up, and after each op (in-process op,
#: restart op): a restart op runs for a second in another process.
SETUP_CHUNKS = 31
OP_CHUNKS = {False: 1, True: 5}


def main():
    args = argparse.ArgumentParser()
    args.add_argument("--workload")
    args.add_argument("--seed", type=int)
    args.add_argument("--seconds", type=float)
    args.add_argument("--trace", type=int, default=0)
    args.add_argument("--setup-only", action="store_true")
    args.add_argument("--ops", action="store_true")
    opts = args.parse_args()
    if opts.ops:
        return ops_main()

    trace = bool(opts.trace)
    workload = workloads.make(opts.workload, opts.seed)
    runner = Runner(trace)
    env = dict(os.environ)
    if workload.restart:
        # The populate process: one interpreter fills the store.
        warm = restart_ops(workload.warmup, 0, env)
    else:
        warm = [runner.run(op) for op in workload.warmup]
    for record in warm:
        if record["error"]:
            sys.exit("warm-up op %s failed: %s"
                     % (record["label"], record["error"]))
    report = {"ready": time.monotonic(),
              "setup_chunk_s": hostspeed.sample(SETUP_CHUNKS)}
    if opts.setup_only:
        print(json.dumps(report))
        return

    span_cost = ledger.span_cost_ns() if trace else 0.0
    # A fixed number of whole rounds, so every run holds the same mix
    # of programs and every commit measures the same ops.  2.5 times
    # ``--seconds`` of wall time stops a run on a host far slower than
    # the reference, after a whole round.
    start = time.monotonic()
    ops, records = [], []
    for round_ops in itertools.islice(workload.rounds,
                                      workload.rounds_for(opts.seconds)):
        for op in round_ops:
            record = (restart_ops([op], opts.trace, env)[0]
                      if workload.restart else runner.run(op))
            record["chunk_s"] = hostspeed.sample(OP_CHUNKS[workload.restart])
            ops.append(op)
            records.append(record)
        if time.monotonic() - start >= 2.5 * opts.seconds:
            break
    failures = judge(ops, records, runner)
    if workload.restart:
        rss_kb = max(record["rss_kb"] for record in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = end_to_end(records)
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    report.update(
        workload=workload.name,
        why=workload.why,
        metrics=metrics,
        failures=failures,
        observability=observability(records),
        digests=[[record["label"], record.get("digest")]
                 for record in records],
    )
    if trace:
        layers, total = per_layer(records, span_cost)
        report["layers"] = layers
        report["spans"] = total
    print(json.dumps(report))


if __name__ == "__main__":
    main()
