#!/usr/bin/env python3
"""perfbench: the BOTS reproduction's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (a CMake package that
compiles ../src) in Release into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, checks every operation, prints a
host fingerprint and a human-readable summary, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, from a run that also records spans around
every layer call, runs the layer ladder, writes the spans as JSON next to the
build and prints a per-layer self-time table.

Exit status: 0 when every operation verified; 1 when one failed (the JSON
line is still printed, with "correct": false); 2 when the benchmark could
not build or run, or was built as anything but Release (nothing printed).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perfstats  # noqa: E402

WORKLOADS = ("fig3-nproc", "overhead-t1", "server-open")

# server-open's gated rates (requests/s; two rungs of the ladder frozen in
# src/server_load.cpp) and its p99 latency limit, calibrated once on a
# 4-vCPU Intel Xeon guest and frozen.
LOW_RATE, HIGH_RATE = 1000, 2000
P99_LIMIT_MS = 10.0


def timeout_s(seconds):
    """Time the binary may take: the measured --seconds, as much again for
    set-ups, verification and round granularity, and a minute to spare."""
    return 2 * seconds + 60


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if shutil.which("cmake") is None:
        die("cmake not found")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"] + gen,
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            die("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "perfbench")


def read_first(path, prefix=None):
    try:
        with open(path) as f:
            for line in f:
                if prefix is None:
                    return line.strip()
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest(root):
    """sha256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(root, base))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def fingerprint(root, raw, seed, removed_env):
    return {
        "cpu": read_first("/proc/cpuinfo", "model name"),
        "nproc": raw["nproc"],
        "governor": read_first(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "kernel": platform.release(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "removed_env": removed_env,
    }


def print_quartiles(raw):
    """Median and quartiles of every sample set behind the metrics."""
    print("== samples: median [q1, q3] (n)")
    rows = []
    for o in raw["ops"]:
        rows.append(("%s serial s" % o["kind"], o["serial_s"]))
        rows.append(("%s measured s" % o["kind"], o["measured_s"]))
    for c, xs in sorted(raw["server"]["serial_ms"].items()):
        rows.append(("%s serial ms" % c, xs))
    for r in perfstats.rates(raw["server"]["windows"]):
        w = perfstats.window_at(raw["server"]["windows"], r)
        for c, xs in sorted(w["latency_ms"].items()):
            rows.append(("%s latency ms at %g/s" % (c, r), xs))
    rows.append(("setup s", raw["setup_s"]))
    for name, xs in rows:
        q1, q2, q3 = perfstats.quartiles(xs)
        print("  %-36s %12.6g [%.6g, %.6g] (%d)" % (name, q2, q1, q3, len(xs)))


def print_table(title, rows):
    print("== " + title)
    for name, (value, unit) in rows.items():
        print("  %-44s %14.6g %s" % (name, value, unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")),
        "perfbench")
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    raw_path, spans_path = stem + ".raw.json", stem + ".spans.json"
    for path in (raw_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    # The runtime reads its defaults from RT_* variables (cut-off, steal
    # policy, taskgraph replay, ...): the binary runs without any of them, so
    # every run measures the same configuration.
    removed_env = sorted(k for k in os.environ if k.startswith("RT_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("RT_")}

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds, "--trace", str(args.trace),
           "--out", raw_path, "--spans-out", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        die("the workload overran its time limit")
    if proc.returncode not in (0, 1):
        die("the workload exited with status %d" % proc.returncode)
    with open(raw_path) as f:
        raw = json.load(f)
    if raw["build_type"] != "Release" or not raw["ndebug"]:
        die("refusing to report numbers from a %s build" % raw["build_type"])

    print("fingerprint: " + json.dumps(
        fingerprint(root, raw, args.seed, removed_env)))
    failed = raw["failed"]
    for msg in raw["failures"]:
        print("FAILED: " + msg)

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.trace:
        metrics = perfstats.per_layer(raw, HIGH_RATE)
        wanted = [m["name"] for m in spec["per_layer"]]
        with open(spans_path) as f:
            spans = json.load(f)
        print("== per-layer self time (%d spans, written to %s)"
              % (len(spans), os.path.relpath(spans_path, root)))
        for layer, (n, total, own) in sorted(perfstats.self_times(spans).items()):
            print("  %-14s %8d spans %12.3f ms total %12.3f ms self"
                  % (layer, n, total / 1e6, own / 1e6))
        overhead = raw["spans_recorded"] * raw["span_cost_ns"] / 1e9 \
            / raw["workload_wall_s"]
        print("  trace overhead: %d spans x %.1f ns = %.4f%% of the workload's "
              "%.2f s wall" % (raw["spans_recorded"], raw["span_cost_ns"],
                               overhead * 100, raw["workload_wall_s"]))
        print_table("end-to-end metrics of this traced run (compare with an "
                    "untraced run of the same seed)",
                    perfstats.end_to_end(raw, LOW_RATE, HIGH_RATE))
    else:
        metrics = perfstats.end_to_end(raw, LOW_RATE, HIGH_RATE)
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        die("metrics %s do not match BENCHMARK.json %s"
            % (sorted(metrics), sorted(wanted)))
    print_quartiles(raw)
    print_table("details", perfstats.details(raw, P99_LIMIT_MS))
    print_table("metrics", metrics)

    result = {
        "correct": failed == 0 and proc.returncode == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
