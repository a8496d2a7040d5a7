#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. It builds the simulator and the
benchmark binaries in Release (perfbench/CMakeLists.txt) under .bench_build/,
or under $CARGO_TARGET_DIR when that is set, then runs one workload:

  --trace 0  the untraced binary for --seconds; prints the end-to-end
             metrics BENCHMARK.json names
  --trace 1  the untraced binary for half of --seconds, then the traced
             binary (counting operator new, spans) for the other half;
             prints the per-layer metrics plus trace_overhead_pct, the traced
             run time over the untraced one, minus one. Spans go to
             <build dir>/spans-<workload>-seed<n>.json.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics. The exit code is nonzero when the build fails, an output check
fails or a metric is missing.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds both benchmark binaries; returns the dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return out


def source_rev():
    """git revision when the tree is a checkout, else a digest of the sources."""
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_binary(binary, args):
    """Runs one benchmark binary; echoes its log lines, returns (code, result)."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{os.path.basename(binary)} exited {proc.returncode} without a result", 1)
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the tree root")
    with open(spec_path) as f:
        spec = json.load(f)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {opts.workload!r}")
    if opts.seed < 0 or opts.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build()
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--rev", source_rev()]
    untraced = os.path.join(out, "perfbench")
    if opts.trace == 0:
        code, result = run_binary(untraced, common + ["--seconds", str(opts.seconds)])
        results = [result]
        wanted = spec["end_to_end"]
        metrics = result["metrics"]
    else:
        half = max(1, opts.seconds // 2)
        code_u, plain = run_binary(untraced, common + ["--seconds", str(half)])
        spans = os.path.join(out, f"spans-{opts.workload}-seed{opts.seed}.json")
        code_t, traced = run_binary(
            os.path.join(out, "perfbench_traced"),
            common + ["--seconds", str(max(1, opts.seconds - half)), "--spans", spans])
        code = code_u or code_t
        results = [plain, traced]
        wanted = spec["per_layer"]
        metrics = dict(traced["metrics"])
        overhead = (traced["metrics"]["harness.run_s"]["value"]
                    / plain["metrics"]["wall_s"]["value"] - 1.0) * 100.0
        metrics["trace_overhead_pct"] = {"value": overhead, "unit": "%"}

    selected = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the benchmark output", 1)
        selected[m["name"]] = got
    correct = code == 0 and all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": selected,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
