"""The repository benchmark: what one ``run_row`` request costs a caller.

Run from the repository root::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 10 \
        --trace 0

One op is one caller request, ``repro.sampler.harness.run_row(program,
var, ..., n, seed) -> Row``: one process, closed loop, one client, no
think time.  Workloads (see ``workloads.py`` for why each was chosen):
``cold-sweep``, ``warm-stream``, ``open-expand``, ``restart-store``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same ops with spans recorded around every layer and prints the
per-layer ledger instead.  Every op's output is checked against the
closed-form pmf of its program (``check.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Each run is hermetic: inherited ``ZAR_*`` and ``PYTHON*`` variables are
dropped, and every cache, kernel store and temporary file lives in a
private directory under ``.perfbench/`` that is removed at exit.  Op
digests are kept in ``.perfbench/digests/`` so a later run with the
same seed reports whether it produced the same samples.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("cold-sweep", "warm-stream", "open-expand", "restart-store")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Wall-clock budget for the whole run, children included.
BUDGET_S = 170.0

UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "samples_per_s": "1/s",
    "bits_per_sample": "bit",
    "peak_rss_mb": "MB",
}


def hermetic_env(workload, workdir):
    """The child environment: no inherited ZAR_*/PYTHON* settings, only
    what the workload needs, all state under ``workdir``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("ZAR_", "PYTHON"))}
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # A fixed string-hash seed: set iteration order, and with it how
    # long the compiler takes on a program, is then the same every run.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    if workload == "restart-store":
        # The only workload with a store: it engages the disk tier, the
        # kernel store beside it and, implicitly, the tuner.
        env["ZAR_COMPILE_CACHE_DIR"] = os.path.join(workdir, "store")
    else:
        env["ZAR_NATIVE_CACHE_DIR"] = os.path.join(workdir, "kernels")
    return env


def shown_env(env):
    keys = sorted(k for k in env if k.startswith("ZAR_")) + [
        "PYTHONPATH", "TMPDIR"]
    shown = {key: os.path.relpath(env[key], ROOT) for key in keys}
    shown["PYTHONHASHSEED"] = env["PYTHONHASHSEED"]
    return shown


def spawn(args, env, deadline):
    """Run the worker; its JSON reply and the monotonic spawn time."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER] + args, stdout=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("worker %s ran out of time" % " ".join(args))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit("worker %s exited with %d"
                         % (" ".join(args), proc.returncode))
    return json.loads(out.strip().splitlines()[-1]), spawned


def setup_seconds(reply, spawned):
    """A set-up's host-speed-corrected and raw seconds."""
    raw = reply["ready"] - spawned
    return raw * hostspeed.REFERENCE_S / reply["setup_chunk_s"], raw


def compare_digests(workload, seed, digests):
    """Compare op digests with the last run of this seed; store these."""
    folder = os.path.join(STATE, "digests")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "%s-%d.json" % (workload, seed))
    status = "no earlier run with this seed"
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        common = min(len(previous), len(digests))
        differing = [i for i in range(common) if previous[i] != digests[i]]
        status = ("matched on all %d ops both runs made" % common
                  if not differing else
                  "differs on %d of %d ops, first at op %d (%s)"
                  % (len(differing), common, differing[0],
                     digests[differing[0]][0]))
    with open(path, "w") as handle:
        json.dump(digests, handle)
    return status


def print_report(args, report, setups, env):
    metrics = report["metrics"]
    print("perfbench %s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("why: %s" % report["why"])
    print("environment: %s" % json.dumps(shown_env(env), sort_keys=True))
    ops, raw = metrics["ops"], metrics["raw"]
    print("times are corrected to the reference host speed (hostspeed.py); "
          "raw wall times in brackets")
    if setups:
        print("%-16s %12.4f s     [%.4f] median of %d set-ups: %s" % (
            "setup_s", statistics.median(s for s, _ in setups),
            statistics.median(r for _, r in setups), len(setups),
            ", ".join("%.3f [%.3f]" % pair for pair in setups)))
    print("%-16s %12.3f ms    [%.3f] %d ops" % (
        "op_ms_p50", metrics["op_ms_p50"], raw["op_ms_p50"], ops))
    beyond = metrics["ops_beyond_p90"]
    print("%-16s %12.3f ms    [%.3f] %d ops, %d beyond p90%s" % (
        "op_ms_p90", metrics["op_ms_p90"], raw["op_ms_p90"], ops, beyond,
        "" if beyond >= 10 else " (fewer than 10: p90 does not count)"))
    print("%-16s %12.1f 1/s   [%.1f] %d ops" % (
        "samples_per_s", metrics["samples_per_s"], raw["samples_per_s"],
        ops))
    print("%-16s %12.4f bit   %d ops" % ("bits_per_sample",
                                         metrics["bits_per_sample"], ops))
    print("%-16s %12.4f       %d of %d ops failed" % (
        "error_rate", metrics["error_rate"], len(report["failures"]), ops))
    print("%-16s %12.1f MB" % ("peak_rss_mb", metrics["peak_rss_mb"]))
    for name, counts in report["observability"].items():
        print("served by %s: %s" % (name, json.dumps(counts, sort_keys=True)))
    print("same seed, same samples: %s" % report["determinism"])
    for failure in report["failures"]:
        print("FAILED op %(op)d %(label)s: %(reason)s" % failure)
    if "layers" in report:
        op_ns = max(1, report["spans"].get("op", {}).get("inclusive", 0))
        print("ledger (self time per op, share of op time, calls per op):")
        for name, entry in sorted(report["spans"].items(),
                                  key=lambda item: -item[1]["self"]):
            print("  %-30s %10.6f s %6.1f%% %10.2f" % (
                name, entry["self"] / 1e9 / ops,
                100.0 * entry["self"] / op_ns, entry["count"] / ops))
        for name, (value, unit) in report["layers"].items():
            print("  %-36s %14.6g %s" % (name, value, unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("no program to measure: %s/src/repro is missing" % ROOT)

    deadline = time.monotonic() + BUDGET_S
    run_dir = os.path.join(STATE, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        # Each extra set-up gets fresh private stores, so every one pays
        # for imports, compiles and kernel builds the same way.
        for index in range(SETUPS - 1 if not args.trace else 0):
            env = hermetic_env(args.workload,
                               os.path.join(run_dir, "setup-%d" % index))
            reply, spawned = spawn(common + ["--setup-only"], env, deadline)
            setups.append(setup_seconds(reply, spawned))
        env = hermetic_env(args.workload, os.path.join(run_dir, "run"))
        report, spawned = spawn(common, env, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        setups.append(setup_seconds(report, spawned))
    report["determinism"] = compare_digests(args.workload, args.seed,
                                            report["digests"])
    print_report(args, report, setups, env)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
    else:
        values = dict(report["metrics"],
                      setup_s=statistics.median(s for s, _ in setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in UNITS.items()}
    failed = len(report["failures"])
    print(json.dumps({"correct": failed == 0,
                      "attempted": report["metrics"]["ops"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
