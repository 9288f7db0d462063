#!/usr/bin/env python3
"""riscmp benchmark entry point.

Builds the benchmark package in this directory (CMake, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench) from the
repository's sources, runs one workload, and prints one JSON result object
as the last line of standard output:

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 40 --trace 0

--trace 0 measures the workload and prints every end-to-end metric named in
BENCHMARK.json; --trace 1 runs the layer ladder and prints every per-layer
metric. Run it from the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_cells", "uarch_cells", "service_mixed")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configure once, then (re)build the benchmark binary and the daemon."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench", "simd"], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench"), os.path.join(out, "simd")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run_bench(argv):
    """Run the benchmark binary in its own session, so a timeout also reaps
    the simd daemons it started; returns (exit code, stdout)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", metavar="CELL", default="",
                        help="flip one golden digest, e.g. miniBUDE/gcc9/a64 "
                             "(the benchmark's own test)")
    parser.add_argument("--mode", choices=("run", "golden"), default="run")
    args = parser.parse_args()
    if args.mode == "run" and args.workload is None:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (expected src/)", 2)
    os.chdir(ROOT)
    try:
        binary, simd = build()
    except (subprocess.CalledProcessError, OSError) as error:
        fail(f"build failed: {error}")

    if args.mode != "run":
        code, out = run_bench([binary, args.mode])
        sys.stdout.write(out)
        sys.exit(code)

    # Relative, so the daemon's socket path stays short wherever the
    # checkout lives.
    work_dir = os.path.join(build_dir(), f"run-{os.getpid()}")
    argv = [binary, "run", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--golden", os.path.join(HERE, "golden", "digests.txt"),
            "--simd", simd, "--work-dir", work_dir]
    if args.inject_mismatch:
        argv += ["--inject-mismatch", args.inject_mismatch]
    try:
        code, out = run_bench(argv)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0:
        fail(f"benchmark binary exited with code {code}")

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark binary printed no result")
    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
             f"want {sorted(want.items())}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
