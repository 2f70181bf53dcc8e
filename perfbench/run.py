#!/usr/bin/env python3
"""Builds and runs the served-detector benchmark (perfbench/).

Run from the repository root:

    python3 perfbench/run.py --workload interactive_416 --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the library from ../src; it is built into $CARGO_TARGET_DIR
(default .bench_build) under the current directory. The pinned trained
model perfbench/model/main.weights is checked against its SHA-256 before
every run. The last stdout line is the result JSON
{correct, attempted, failed, metrics}; with --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list.
Any failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WEIGHTS = os.path.join(HERE, "model", "main.weights")
# bench::EnsureTrainedModel's best checkpoint (fp32 mAP 65.97% at paper
# iteration 17000, 1,681,040 bytes). Trained weights depend on the
# code's arithmetic, so the benchmark pins them instead of retraining.
WEIGHTS_SHA256 = (
    "e2e2896a2ef37fa000a6145b0a366ccfca8ac6c87b15a85b1f5bdedae6e71eb2")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(targets):
    for needed in ("src/CMakeLists.txt", "bench/bench_common.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full checkout" % needed, 2)
    out = build_dir()
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # Configure/build logs go to stderr: stdout ends with the result.
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S, env=env)
    subprocess.run(
        ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
         "--target"] + targets,
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S, env=env)
    return out


def check_weights():
    if not os.path.isfile(WEIGHTS):
        fail("pinned model %s is missing" % WEIGHTS, 3)
    with open(WEIGHTS, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    if digest != WEIGHTS_SHA256:
        fail("pinned model hash %s != %s" % (digest, WEIGHTS_SHA256), 3)


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "or units differ" % (missing, extra))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own unit tests")
    args = p.parse_args()

    if args.selftest:
        out = build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        fail("--workload is required", 2)

    out = build(["thali_perfbench"])
    check_weights()
    cmd = [os.path.join(out, "thali_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--weights", WEIGHTS, "--git-sha", git_sha()]
    if args.trace:
        spans_dir = os.path.join(out, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(r.stdout)
        fail("benchmark exited with %d" % r.returncode)
    result = json.loads(lines[-1])
    validate(result, args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
