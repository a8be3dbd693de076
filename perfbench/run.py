#!/usr/bin/env python3
"""EPOC benchmark: build the harness from source, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 40 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the epoc_perfbench harness, and prints:

  * a {"meta": ...} line: host, cores, thread/executor/client counts, build
    type, git commit (when the tree is a git checkout), a digest of the source
    tree, workload, seed and trace flag;
  * as the last line, {"correct", "attempted", "failed", "metrics"}: every
    end_to_end metric of BENCHMARK.json with --trace 0, every per_layer metric
    with --trace 1. Per-layer metrics of a layer the workload does not
    exercise (the service layer on fig9-cold, the store on service-hot, ...)
    read 0.

The same record, metadata included, is written to
<build dir>/results/<workload>-seed<seed>-trace<t>.json. The exit code is
nonzero when the build fails, the harness's correctness gate fails, or the
harness output drifts from the metric contract in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result lines.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """sha256 over the relative paths and contents of src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"EPOC sources not found under {ROOT}/src; run from a full checkout")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT if not os.path.isabs(target) else "", target, "perfbench")
    if not build(build_dir):
        return 1

    # Relative to the checkout (the harness runs there): the service-hot
    # daemon's socket lives under it, and AF_UNIX paths are limited to 108
    # bytes however deep the checkout is.
    work_dir = os.path.relpath(os.path.join(build_dir, f"work-{os.getpid()}"), ROOT)
    cmd = [os.path.join(build_dir, "epoc_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        log(f"harness exited {proc.returncode} without a result")
        return 1
    config = json.loads(lines[-2])["config"]
    result = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    measured = result["metrics"]
    drift = [n for n in measured if n not in expected]
    drift += [n for n in measured if n in expected and measured[n]["unit"] != expected[n]]
    metrics = {}
    for name, unit in expected.items():
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0.0, "unit": unit}  # layer not exercised
        else:
            drift.append(name)
    if not args.trace:
        drift += [n for n, m in metrics.items() if m["value"] <= 0.0]
    if drift:
        log("metrics outside the BENCHMARK.json contract (unknown, wrong unit, missing "
            "or zero): " + ", ".join(sorted(set(drift))))

    correct = bool(result["correct"]) and proc.returncode == 0 and not drift
    attempted = int(result["attempted"]) + 1
    failed = int(result["failed"]) + (0 if not drift else 1)
    meta = {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        **config,
        "cmake_build_type": build_type(build_dir),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"meta": meta, **out}, f, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(out), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
