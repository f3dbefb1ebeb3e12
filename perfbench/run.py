#!/usr/bin/env python3
"""Builds and runs the LIMA benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload minibatch-ltp --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
lima_perfbench into .bench_build/ (an optimized build of ../src plus
perfbench/src); later calls rebuild incrementally. Its stderr passes
through; the last line of stdout is the JSON result. Every run also leaves a record with
host, build and source facts in .bench_build/results/.
"""

import argparse
import datetime
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"  # relative to ROOT; keeps socket paths short
BINARY_TIMEOUT_S = 170
WORKLOADS = ("minibatch-ltp", "hpo-suite", "serve-mix")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds lima_perfbench; returns its path or None."""
    build_dir = os.path.join(ROOT, BUILD_DIR)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("LIMA sources (src/) not found next to perfbench/")
        return None
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "lima_perfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "lima_perfbench")


def build_facts():
    """Build type and sanitizer flags from the CMake cache."""
    cache = {}
    path = os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    flags = " ".join(cache.get(k, "") for k in
                     ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE",
                      "CMAKE_EXE_LINKER_FLAGS"))
    sanitizers = re.findall(r"-fsanitize=(\S+)", flags)
    return {"build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "sanitizer": ",".join(sanitizers) or "none"}


def host_facts():
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = "unavailable"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            git_sha = out.stdout.strip()
    # The checkout may not be a git repository: hash the sources instead.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "git_sha": git_sha, "source_sha256": digest.hexdigest()}


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    facts = build_facts()
    if facts["build_type"] not in ("Release", "RelWithDebInfo") or \
            facts["sanitizer"] != "none":
        log(f"refusing to record results from build {facts}")
        return 3

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
    results_dir = os.path.join(ROOT, BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-file", os.path.join(results_dir, tag + ".spans.jsonl")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"lima_perfbench exceeded {BINARY_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        log(f"lima_perfbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}

    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed lima_perfbench result")
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        log("lima_perfbench metrics differ from BENCHMARK.json: "
            f"{sorted(set(expected) ^ set(result['metrics']))}")
        return 1

    host = host_facts()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "host": host, "build": facts, "result": result, **detail}
    with open(os.path.join(results_dir, tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    log(f"host nproc={host['nproc']} cpu='{host['cpu_model']}' "
        f"build={facts['build_type']} sanitizer={facts['sanitizer']} "
        f"git={host['git_sha']} source={host['source_sha256'][:16]}")
    notes = detail.get("notes", {})
    if "stream_hash" in notes or "input_hash" in notes:
        log(f"input hash {notes.get('stream_hash') or notes.get('input_hash')}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
