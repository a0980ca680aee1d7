#!/usr/bin/env python3
"""Benchmark of the mail-system simulator: one workload, one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/mailbench.exe from the checkout's sources (dune, build
directory .bench_build), then repeats one workload in fresh processes
for about S seconds.  Every repetition starts from empty caches, checks
the delivery ledger and reports a digest of the deterministic
simulation; the repetitions of one seed must agree on it exactly.

--trace 0 reports the end-to-end metrics (medians over repetitions);
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
host fingerprint and a readable table.  Metric names and units are
those of BENCHMARK.json at the checkout root.  When a correctness check
fails, the result says "correct": false and run.py exits 1.  See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "mailbench.exe")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("campaign-syntax", "steady-syntax", "roaming-location")

# A repetition that runs longer than this is killed and the run fails.
REP_TIMEOUT_S = 120
MIN_UNTRACED_REPS = 3


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/mailbench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if proc.returncode != 0:
        raise BenchError(f"build failed (dune exit {proc.returncode})")


def repetition(args, traced):
    """One fresh mailbench process; its JSON report plus peak RSS."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", "traced" if traced else "untraced", "--size", args.size]
    if args.topo_seed is not None:
        cmd += ["--topo-seed", str(args.topo_seed)]
    if args.fault_seed is not None:
        cmd += ["--fault-seed", str(args.fault_seed)]
    if traced:
        cmd += ["--windows-out",
                os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.windows.jsonl")]
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    killer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"mailbench exited with {proc.returncode}: {' '.join(cmd)}")
    rep = json.loads(out)
    rep["wall_s"] = time.monotonic() - start
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return rep


def run_reps(args):
    """Repeat until the next repetition would end past --seconds.

    Untraced runs need MIN_UNTRACED_REPS; traced runs alternate
    untraced and traced repetitions and need one of each."""
    deadline = time.monotonic() + args.seconds
    untraced, traced = [], []
    while True:
        want_traced = args.trace and len(traced) < len(untraced)
        (traced if want_traced else untraced).append(repetition(args, want_traced))
        enough = (len(traced) >= 1 and len(untraced) >= 1) if args.trace \
            else len(untraced) >= MIN_UNTRACED_REPS
        last = (traced if want_traced else untraced)[-1]["wall_s"]
        if enough and time.monotonic() + last > deadline:
            return untraced, traced


def median(reps, key):
    return statistics.median(key(r) for r in reps)


def end_to_end(untraced):
    first = untraced[0]
    metrics = {
        "msgs_per_s": median(untraced, lambda r: r["settled"] / r["run_s"]),
        "setup_s": median(untraced, lambda r: r["setup_s"]),
        "peak_rss_mb": median(untraced, lambda r: r["peak_rss_mb"]),
    }
    metrics.update(first["modelled"])
    return metrics


def per_layer(untraced, traced):
    # Counts repeat exactly (correctness() checks it); times are medians.
    layers = {name: value if isinstance(value, int) else median(traced, lambda r: r["layers"][name])
              for name, value in traced[0]["layers"].items()}
    untraced_run = median(untraced, lambda r: r["run_s"])
    layers["dsim.host_ns_per_event"] = untraced_run * 1e9 / untraced[0]["events"]
    layers["trace.overhead"] = median(traced, lambda r: r["run_s"]) / untraced_run
    return layers


def correctness(untraced, traced):
    """Problems with the simulated outcome; empty when it is correct."""
    problems = []
    reps = untraced + traced
    for r in reps:
        if not r["ledger_ok"]:
            problems.append(f"{r['mode']} repetition: delivery ledger violated")
        if r["failed"] != 0:
            problems.append(f"{r['mode']} repetition: {r['failed']} messages failed")
        if r["settled"] != r["submitted"]:
            problems.append(f"{r['mode']} repetition: {r['submitted'] - r['settled']} unsettled")
    if len({r["digest"] for r in reps}) != 1:
        problems.append("sim_digest differs between repetitions of one seed")
    if len({json.dumps(r["modelled"], sort_keys=True) for r in reps}) != 1:
        problems.append("modelled metrics differ between repetitions of one seed")
    # Counts in the per-layer ledger are deterministic; only host-time
    # metrics may differ between traced repetitions.
    for name, value in (traced[0]["layers"].items() if traced else ()):
        if isinstance(value, int) and len({r["layers"][name] for r in traced}) != 1:
            problems.append(f"count {name} differs between traced repetitions")
    return problems


def fingerprint(rep):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ocaml": rep["runtime"]["ocaml"],
        "commit": commit,
        "gc": {
            "minor_heap_words": rep["runtime"]["minor_heap_words"],
            "space_overhead": rep["runtime"]["space_overhead"],
            "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        },
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="scenario seed: arrivals, senders, recipients, roaming")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--topo-seed", type=int, default=None,
                    help="topology seed (mailbench default 4242)")
    ap.add_argument("--fault-seed", type=int, default=None,
                    help="fault-schedule seed (mailbench default 5)")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the workloads' shape at test size")
    args = ap.parse_args()

    try:
        spec = load_spec()
        build()
        os.makedirs(OUT_DIR, exist_ok=True)
        untraced, traced = run_reps(args)
    except (BenchError, OSError, ValueError) as e:
        log(f"run.py: {e}")
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        log(f"run.py: metric names differ from BENCHMARK.json {section}: "
            f"missing {sorted(set(units) - set(values))}, "
            f"unlisted {sorted(set(values) - set(units))}")
        return 1

    problems = correctness(untraced, traced)
    for p in problems:
        log(f"run.py: INCORRECT: {p}")
    if any(r["gc_lost_events"] for r in traced):
        log("run.py: warning: the runtime event ring overflowed; gc.minor_s and "
            "gc.major_s are under-counted")
    reps = untraced + traced
    first = untraced[0]
    print("fingerprint " + json.dumps(fingerprint(first), sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  topo_seed {first['topo_seed']}  "
          f"fault_seed {first['fault_seed']}  size {args.size}  "
          f"repetitions {len(untraced)} untraced + {len(traced)} traced")
    print(f"sim_digest {first['digest']}  ({first['events']} events, "
          f"{first['submitted']} messages, {first['delivery_samples']} delivery samples)")
    for name in units:
        print(f"  {name:40s} {values[name]:>16.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": sum(r["submitted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
