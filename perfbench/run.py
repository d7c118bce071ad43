#!/usr/bin/env python3
"""Repository benchmark: one workload through the cohesion library, one JSON line out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the library and cohesion_run with
CMake into .bench_build/, compiles perfbench/driver.cpp against libcohesion.a
with the library's flags, writes the workload's spec with --seed substituted,
and takes `cohesion_run --no-timing` on that spec as the reference report
(pinned by digest in perfbench/digests.json at the default seed). The driver
then measures for --seconds and checks every pass, run by run, against the
reference. Exact work counts must repeat between invocations of one binary
on one seed.

The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exit 0 when correct, 1 when a check failed, 2 when the build or set-up
failed (no result line then).
"""
import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"
DEFAULT_SEED = 1
# Worker threads per workload; BatchRunner clamps to the run count.
THREADS = {"converge_sweep": 2, "dense_fsync": 1, "async_stream": 1}
DEADLINE_S = 170


class SetupError(Exception):
    pass


def sh(cmd, timeout):
    try:
        subprocess.run([str(c) for c in cmd], cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=timeout)
    except (OSError, subprocess.SubprocessError) as e:
        raise SetupError(f"{cmd[0]}: {e}") from e


def build():
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", ROOT, "-B", cmake_dir, *generator, "-DCMAKE_BUILD_TYPE=Release",
            "-DCOHESION_BUILD_TESTS=OFF", "-DCOHESION_BUILD_BENCHES=OFF",
            "-DCOHESION_BUILD_EXAMPLES=OFF"], timeout=300)
    sh(["cmake", "--build", cmake_dir, "--target", "cohesion", "cohesion_run", "-j", "4"],
       timeout=800)
    lib = cmake_dir / "libcohesion.a"
    inputs = [HERE / "driver.cpp", lib, *(ROOT / "src").rglob("*.hpp")]
    if DRIVER.exists() and max(p.stat().st_mtime for p in inputs) <= DRIVER.stat().st_mtime:
        return
    tmp = DRIVER.with_suffix(".tmp")
    sh(["g++", "-std=c++20", "-O3", "-DNDEBUG", "-Wall", "-Wextra", "-I", ROOT / "src",
        HERE / "driver.cpp", lib, "-pthread", "-o", tmp], timeout=300)
    tmp.replace(DRIVER)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def counts_stable(workload, seed, counts):
    """Compare exact work counts with an earlier invocation of the same driver binary."""
    path = BUILD / "counts" / f"{workload}-{seed}.json"
    binary = sha256(DRIVER)
    known = {}
    if path.exists():
        saved = json.loads(path.read_text())
        if saved.get("driver") == binary:
            known = saved["counts"]
    stable = all(known[k] == v for k, v in counts.items() if k in known)
    path.write_text(json.dumps({"driver": binary, "counts": {**known, **counts}}))
    return stable


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    w = args.workload

    build()
    started = time.monotonic()
    for sub in ("work", "spans", "counts"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    spec = json.loads((HERE / "specs" / f"{w}.json").read_text())
    spec["base"]["seed"] = args.seed
    spec_path = BUILD / "work" / f"{w}.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")

    reference = BUILD / "work" / f"{w}.reference.json"
    sh([BUILD / "cmake" / "cohesion_run", spec_path, "--no-timing", "--threads", "4",
        "--out", reference], timeout=DEADLINE_S)
    pinned = True
    if args.seed == DEFAULT_SEED:
        expected = json.loads((HERE / "digests.json").read_text())[w]
        pinned = sha256(reference) == expected
        if not pinned:
            print(f"perfbench: {w} reference report differs from the pinned digest",
                  file=sys.stderr)

    cmd = [DRIVER, "--spec", spec_path, "--expect-report", reference,
           "--report-out", BUILD / "work" / f"{w}.report.json",
           "--spans-out", BUILD / "spans" / f"{w}-{args.seed}.jsonl",
           "--samples-out", BUILD / "work" / f"{w}.samples.json",
           "--threads", THREADS[w], "--seconds", args.seconds, "--trace", args.trace]
    try:
        proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True,
                              timeout=max(DEADLINE_S - (time.monotonic() - started), 1))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        raise SetupError(f"driver: {e}") from e

    stable = result["counts_stable"] and counts_stable(w, args.seed, result["counts"])
    if not stable:
        print(f"perfbench: {w} exact work counts differ between runs", file=sys.stderr)
    failed = result["failed"] if pinned else result["attempted"]
    correct = pinned and stable and failed == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
