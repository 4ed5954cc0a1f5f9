#!/usr/bin/env python3
"""Builds the logfs benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload smallfile --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's src/ tree) as a Release
build under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, then runs the `logfs_perfbench` binary. The binary's
report is passed through; the last two lines printed are a provenance
record and the result object
{"correct", "attempted", "failed", "metrics"}. Each result is also saved
under <build dir>/results/. The exit status is 0 only when the run's output
checks passed.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("smallfile", "churn", "shard_mt", "serve_zipf")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no logfs sources at %s/src; run from a full checkout" % REPO)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target", "logfs_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "logfs_perfbench")


def source_digest():
    """SHA-256 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, REPO).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def expected_metric_names(trace):
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count-ops", type=int, default=0,
                        help="ops in the count window (0 = the workload's default)")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.count_ops > 0:
        cmd += ["--count-ops", str(args.count_ops)]
    if args.trace:
        # One span file per workload (the newest traced run), to bound disk use.
        cmd += ["--spans-out", os.path.join(out_dir, "traces", args.workload + ".spans.csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if len(lines) < 2:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    try:
        provenance = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        sys.stdout.write(proc.stdout)
        fail("benchmark output is not a provenance line plus a result line")

    provenance["commit"] = git_commit()
    provenance["source_sha256"] = source_digest()
    provenance["nproc"] = os.cpu_count()
    provenance["host"] = platform.machine()
    provenance["command"] = cmd[1:]
    expected = expected_metric_names(args.trace)
    if expected is not None and list(result["metrics"]) != expected:
        result["correct"] = False
        print("  problem: metrics differ from BENCHMARK.json: got %s"
              % sorted(set(result["metrics"]) ^ set(expected)))

    for line in lines[:-2]:
        print(line)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result), flush=True)
    with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    ok = proc.returncode == 0 and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
