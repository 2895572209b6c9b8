#!/usr/bin/env python3
"""Repository benchmark: build the binary from source, run one workload,
check its outputs and print the result as the last line of stdout.

    python3 perfbench/run.py --workload sweep_private --seed 1 \
        --seconds 10 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build; later runs reuse that build. Workloads, metrics and
their rationale are described in perfbench/README.md.

Extra options, for maintaining the benchmark:
    --threads N   simulation threads (default 2); results must not change
    --pin         rewrite this workload's entry in fingerprints.json
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("sweep_private", "mix4_streamed", "serve_open")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configure (once) and build the benchmark binary; return its path."""
    build_dir = os.path.join(build_root, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def check_cells(cells, pin):
    """Compare simulated cell counts with the pinned ones.

    Returns the number of mismatching or missing cells."""
    pinned = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS) as f:
            pinned = json.load(f)
    workload = cells["workload"]
    got = cells["cells"]
    if pin:
        pinned[workload] = got
        with open(FINGERPRINTS, "w") as f:
            json.dump(pinned, f, indent=1, sort_keys=True)
            f.write("\n")
        log("pinned %d %s cells" % (len(got), workload))
        return 0
    want = pinned.get(workload)
    if want is None:
        log("no pinned cells for " + workload)
        return 1
    bad = 0
    for name, counts in want.items():
        if name not in got:
            log("cell %s did not run" % name)
            bad += 1
        elif got[name] != counts:
            log("cell %s: %s != pinned %s" % (name, got[name], counts))
            bad += 1
    for name in got:
        if name not in want:
            log("cell %s is not pinned" % name)
            bad += 1
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    work_dir = os.path.join(build_root, "work-%d" % os.getpid())
    out_dir = os.path.join(build_root, "out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--work-dir", work_dir,
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if not lines:
        log("benchmark printed nothing (exit code %d)" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not a result: %r" % lines[-1])
        return 1

    # The declared metrics of this mode: every one is reported, a
    # per-layer metric the workload does not exercise as 0.
    with open(BENCHMARK) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    for m in declared:
        metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    undeclared = set(metrics) - {m["name"] for m in declared}
    if undeclared:
        log("undeclared metrics: %s" % sorted(undeclared))
        return 1

    bad_cells = 0
    for line in lines[:-1]:
        if line.startswith("CELLS "):
            cells = json.loads(line[len("CELLS "):])
            with open(os.path.join(out_dir, "cells-%s.json"
                                   % args.workload), "w") as f:
                json.dump(cells, f, indent=1, sort_keys=True)
            bad_cells = check_cells(cells, args.pin)
        else:
            print(line)
    if bad_cells:
        result["failed"] += bad_cells
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
