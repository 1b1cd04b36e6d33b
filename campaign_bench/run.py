#!/usr/bin/env python3
"""Campaign benchmark: whole approach-2 EEE verification campaigns, each in
a fresh process, timed end to end and split by layer from outside.

Run from the repository root:

    python3 campaign_bench/run.py --workload untimed --seed 7 --seconds 30 --trace 0

The runner builds campaign_bench/main.exe with dune into .bench_build, then
starts fresh processes of it until --seconds have passed. Each process sets
up and runs one campaign (see main.ml). Every job of every campaign is
compared with the oracle: the stored one in campaign_bench/oracle/ for the
default seed, otherwise a one-worker on-the-fly-engine run of the same
plans, cached in .bench_out/oracle/.

--trace 0 reports the end-to-end metrics, each the median over the run's
processes. Times are scaled to the speed of a reference machine, measured
by calib/calib.exe (a fixed kernel outside the program) in a fresh
process before each campaign; peak RSS is not scaled. --trace 1
alternates untraced and span-instrumented processes and reports the
per-layer metrics (medians of the traced processes, unscaled) and the
tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Each result record,
stamped with git_rev, cores, seed, workload and "fresh process", is
appended to .bench_out/records.jsonl.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = "campaign_bench"
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", BENCH, "main.exe")
CALIB_EXE = os.path.join(BUILD_DIR, "default", BENCH, "calib", "calib.exe")
WORKLOADS = ("untimed", "paper-bounds", "trace-stream")
DEFAULT_SEED = 7
# A run ends within 180 s: no process starts unless it can end by this
# mark, and none may outlive it.
DEADLINE_S = 165.0
# Setup-only processes after each campaign, on top of the campaign's own
# setup sample: set-up takes milliseconds, so its median needs many.
SETUP_SAMPLES = 12
MIN_CAMPAIGNS = 3
# calib.exe's median time on the reference machine (2-core x86-64 VM,
# 2.1 GHz). Times are reported at that machine speed: each raw median is
# scaled by CALIB_REF_S over the median of the calibration runs made
# before each campaign. The shared host's speed drifts by up to a third
# over minutes; this takes most of that drift out.
CALIB_REF_S = 0.05


def fail(msg):
    sys.stderr.write(msg.rstrip() + "\n")
    sys.exit(2)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled",
           "./%s/main.exe" % BENCH, "./%s/calib/calib.exe" % BENCH]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not (os.path.isfile(EXE) and os.path.isfile(CALIB_EXE)):
        fail("build failed:\n" + r.stdout + r.stderr)


class Clock:
    def __init__(self):
        self.t0 = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.t0

    def left(self):
        return DEADLINE_S - self.elapsed()


def spawn(clock, mode, args, extra=()):
    """One fresh process; returns (spawn epoch, parsed last stdout line),
    or (spawn epoch, None) when it failed or ran out of time."""
    cmd = [EXE, mode, "--workload", args.workload, "--seed", str(args.seed)]
    cmd += list(extra)
    t_spawn = time.time()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, clock.left()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s %s: timed out\n" % (mode, args.workload))
        return t_spawn, None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write("%s %s: exit %d\n%s" % (mode, args.workload,
                                                 r.returncode, r.stderr))
        return t_spawn, None
    return t_spawn, json.loads(lines[-1])


def file_md5(path):
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def oracle(clock, args):
    if args.seed == DEFAULT_SEED:
        path = os.path.join(BENCH, "oracle", args.workload + ".json")
    else:
        path = os.path.join(OUT_DIR, "oracle", "%s-%d-%s.json" % (
            args.workload, args.seed, file_md5(EXE)[:12]))
        if not os.path.isfile(path):
            _, rec = spawn(clock, "oracle", args)
            if rec is None:
                fail("oracle run failed")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path + ".tmp", "w") as f:
                json.dump(rec, f)
            os.replace(path + ".tmp", path)
    with open(path) as f:
        return json.load(f)["jobs"]


def mismatches(expected, rec):
    if rec is None:
        return len(expected)
    got = rec["jobs"]
    return (sum(1 for a, b in zip(expected, got) if a != b)
            + abs(len(expected) - len(got)))


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """MD5 over the program and benchmark sources, for checkouts that are
    not git repositories."""
    h = hashlib.md5()
    for top in ("lib", "bin", BENCH):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", ".py", ".json")) or name == "dune":
                    path = os.path.join(d, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def calibrate(clock):
    """Median kernel time of one fresh calib.exe process, or None."""
    try:
        r = subprocess.run([CALIB_EXE], capture_output=True, text=True,
                           timeout=max(1.0, clock.left()))
        return float(r.stdout) if r.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(BENCH, "main.ml")):
        fail("run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    clock = Clock()
    expected = oracle(clock, args)
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    trace_file = os.path.join(tmp, "trace-%d.jsonl" % os.getpid())
    extra = ["--trace-file", trace_file]

    raw = {k: [] for k in ("calib_s", "campaign_s", "cases_per_s", "cpu_s",
                           "setup_s", "peak_rss_mb")}
    layers = {}
    attempted = failed = 0
    crashed = False
    measure = Clock()
    longest = 0.0

    def campaign(mode, more=()):
        nonlocal attempted, failed, crashed, longest
        t0 = time.monotonic()
        t_spawn, rec = spawn(clock, mode, args, extra + list(more))
        longest = max(longest, time.monotonic() - t0)
        attempted += len(expected)
        failed += mismatches(expected, rec)
        if rec is None:
            crashed = True
        return t_spawn, rec

    n = 0
    while n < MIN_CAMPAIGNS or measure.elapsed() < args.seconds:
        if n > 0 and clock.left() < 2 * longest:
            break
        n += 1
        calib = calibrate(clock)
        if calib is None:
            crashed = True
            break
        raw["calib_s"].append(calib)
        t_spawn, rec = campaign("run")
        if rec is None:
            continue
        raw["campaign_s"].append(rec["campaign_s"])
        raw["cases_per_s"].append(rec["cases"] / rec["campaign_s"])
        raw["cpu_s"].append(rec["cpu_s"])
        raw["peak_rss_mb"].append(rec["peak_rss_mb"])
        raw["setup_s"].append(rec["campaign_start"] - t_spawn)
        for _ in range(SETUP_SAMPLES):
            t_spawn, rec = spawn(clock, "setup", args)
            if rec is None:
                crashed = True
                break
            raw["setup_s"].append(rec["campaign_start"] - t_spawn)
        if args.trace:
            _, rec = campaign("traced", ["--spans", os.path.join(
                OUT_DIR, "spans-%s.jsonl" % args.workload)])
            if rec is not None:
                for k, v in rec["layers"].items():
                    layers.setdefault(k, []).append(v)
    if os.path.exists(trace_file):
        os.remove(trace_file)

    medians = {k: median(v) for k, v in raw.items()}
    if args.trace:
        layers["untraced.campaign_s"] = raw["campaign_s"]
        layers["tracing.overhead_s"] = [
            median(layers.get("traced.campaign_s", [])) - medians["campaign_s"]]
        values = {k: median(v) for k, v in layers.items()}
        listed = spec["per_layer"]
    else:
        speed = CALIB_REF_S / medians["calib_s"] if medians["calib_s"] else 0.0
        values = dict(medians)
        for k in ("campaign_s", "cpu_s", "setup_s"):
            values[k] = medians[k] * speed
        values["cases_per_s"] = medians["cases_per_s"] / speed if speed else 0.0
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}

    correct = (failed == 0 and not crashed and all(raw.values())
               and all(m["name"] in values for m in listed))
    record = {
        "git_rev": git_rev(),
        "source_md5": source_digest(),
        "cores": os.cpu_count(),
        "process": "fresh process per campaign",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "campaigns": n,
        "jobs_total": attempted,
        "jobs_failed": failed,
        "correct": correct,
        "metrics": metrics,
        "raw_medians": medians,
        "raw_quartiles": {k: quartiles(v) for k, v in raw.items() if v},
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(os.path.join(OUT_DIR, "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print("workload %s  seed %d  %d fresh-process campaigns  jobs_failed %d of %d"
          % (args.workload, args.seed, n, failed, attempted))
    for k, m in metrics.items():
        print("  %-28s %14.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
