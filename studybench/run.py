#!/usr/bin/env python3
"""Builds the study benchmark from source and runs one workload.

Run from the root of a repository checkout:

    python3 studybench/run.py --workload cuda-tiny --seed 0 --seconds 25 --trace 0
    python3 studybench/run.py --selftest     # the benchmark's arithmetic tests

The build goes to $CARGO_TARGET_DIR/studybench (default .bench_build/), the
journals of a run to a scratch directory beside it, removed afterwards. The
driver's stdout is passed through; its last line is the JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"studybench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/CMakeLists.txt under {ROOT}; run from a repository checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def clean_env():
    # The knobs of the program under test are fixed by the benchmark, not
    # inherited from whoever runs it.
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("INDIGO_", "REPRO_", "OMP_"))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "studybench"
    if args.selftest:
        build(build_dir, "test_layer_math")
        sys.exit(subprocess.run([str(build_dir / "test_layer_math")]).returncode)
    if not args.workload:
        fail("--workload is required")
    build(build_dir, "studybench_driver")

    workdir = build_dir / f"work-{os.getpid()}"
    try:
        proc = subprocess.run(
            [str(build_dir / "studybench_driver"),
             f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--workdir={workdir}"],
            env=clean_env(), timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
