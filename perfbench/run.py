#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from this checkout, runs one workload.

    python3 perfbench/run.py --workload campus_churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Workloads: campus_churn, loc_walk, loc_replay (see perfbench/README.md).
Build output goes to stderr; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 1
the run reports per-layer metrics and writes its spans to
<build dir>/perfbench-out/spans_<workload>.csv, summarised by spans.py.
The build directory is $CARGO_TARGET_DIR, else .bench_build, under the
checkout root.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import spans  # noqa: E402

WORKLOADS = ("campus_churn", "loc_walk", "loc_replay")
RUN_TIMEOUT_S = 175


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = d if os.path.isabs(d) else os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def configured_for(bdir):
    """Source directory the build tree in bdir was configured for, or None."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(bdir):
    for f in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, f)):
            die(f"mobiwlan sources not found: {os.path.join(ROOT, f)} is missing")
    here = os.path.realpath(HERE)
    configured = configured_for(bdir)
    if configured is not None and os.path.realpath(configured) != here:
        shutil.rmtree(bdir)  # a build tree of another checkout
        configured = None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if configured is None:
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def expected_metrics(trace):
    """{name: unit} that BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate key")
    return dict(pairs)


def checked_result(line, trace):
    """(result, None) with the metrics in BENCHMARK.json's order, or (None, problem).

    Every end-to-end metric must be measured; a per-layer metric of a layer
    the workload does not call reads 0."""
    try:
        res = json.loads(line, object_pairs_hook=no_duplicates)
    except ValueError as e:
        return None, f"last line is not JSON without duplicate keys ({e})"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys differ from correct/attempted/failed/metrics"
    want = expected_metrics(trace)
    got = res["metrics"]
    if not isinstance(got, dict) or not all(isinstance(m, dict) for m in got.values()):
        return None, "metrics is not an object of {value, unit} objects"
    unknown = sorted(set(got) - set(want))
    if unknown:
        return None, "metrics not in BENCHMARK.json: " + " ".join(unknown)
    missing = sorted(set(want) - set(got))
    if missing and not trace:
        return None, "end-to-end metrics missing: " + " ".join(missing)
    metrics = {}
    for name, unit in want.items():
        m = got.get(name, {"value": 0, "unit": unit})
        if m.get("unit") != unit:
            return None, f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {unit!r}"
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return None, f"{name}: value {v!r} is not a finite number"
        metrics[name] = {"value": v, "unit": unit}
    res["metrics"] = metrics
    return res, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20140204)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny self-check of the benchmark (a few seconds)")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--root", ROOT, "--out-dir", out_dir]
    if args.smoke:
        sys.exit(subprocess.run(cmd + ["--smoke"], timeout=RUN_TIMEOUT_S).returncode)

    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.splitlines()
    res, problem = checked_result(lines[-1], args.trace) if lines else (None, "no output")
    if problem:
        sys.stderr.write(proc.stdout)
        die(f"{args.workload}: {problem}", 3)
    for line in lines[:-1]:
        print(line)
    if args.trace:
        for line in spans.summary(os.path.join(out_dir, f"spans_{args.workload}.csv")):
            print("# " + line)
    print(json.dumps(res), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
