#!/usr/bin/env python3
"""End-to-end benchmark of the drift-aware video analytics pipeline.

Run from the repository root:

  python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke

The first form builds perfbench_driver from ../src (CMake, into
.bench_build/), fills the benchmark's model cache if this build has none
yet, and measures one workload closed loop for --seconds seconds of serving.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` (frames) and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (which also writes
.bench_out/<workload>.layers.json). Frames that are not served, or that
belong to a pass failing a check, are counted in `failed`; failed / attempted
is the `failed_frac` the driver prints.

The model cache lives in .bench_cache/<build id>/, where the build id is a
hash of the driver binary, so a change that alters training numerics never
loads models trained by another build. Filling it is timed once and printed
as provision_cold_s; it is not part of setup_s.

--smoke runs every workload at the bench harness's smoke sizes through the
same code path, with every check on, in seconds; it exits non-zero when any
check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["steady", "churn", "fleet_retrain"]
MEASURE_TIMEOUT_S = 170
PROVISION_TIMEOUT_S = 700


def log(message):
    print(message, file=sys.stderr, flush=True)


def clean_env():
    # No ambient VDRIFT_* knob (fault specs, kernel profiling, thread
    # counts) may leak into a run; the driver sets what a workload needs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VDRIFT_")}
    env["VDRIFT_GIT_REV"] = git_revision()
    return env


def git_revision():
    """The checkout's revision for the result stamp, without searching
    directories above the checkout for a repository."""
    if not os.path.isdir(".git"):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def build(build_dir):
    """Configures and builds the driver; returns its path."""
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def build_id(binary):
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def ensure_cache(binary, cache_root, bid, smoke):
    """Fills the build's model cache before any timed run."""
    cache_dir = os.path.join(cache_root, bid, "smoke" if smoke else "full")
    if os.path.exists(os.path.join(cache_dir, "provision_cold_s")):
        return cache_dir
    if os.path.isdir(cache_root):
        for stale in os.listdir(cache_root):
            if stale != bid:
                shutil.rmtree(os.path.join(cache_root, stale),
                              ignore_errors=True)
    log(f"provisioning model cache {cache_dir} (one-time)")
    cmd = [binary, "--provision", "--cache-dir", cache_dir]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=clean_env(),
                   timeout=PROVISION_TIMEOUT_S)
    return cache_dir


def run_driver(binary, cache_dir, bid, workload, seed, seconds, trace,
               smoke):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cache-dir", cache_dir, "--out-dir", ".bench_out",
           "--build-id", bid]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                          timeout=MEASURE_TIMEOUT_S, text=True)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def smoke(binary, cache_root, bid):
    cache_dir = ensure_cache(binary, cache_root, bid, smoke=True)
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run_driver(binary, cache_dir, bid, workload,
                                      seed=1, seconds=1, trace=trace,
                                      smoke=True)
            result = result_of(stdout)
            passed = code == 0 and result is not None and result["correct"]
            ok = ok and passed
            checks = [l for l in stdout.splitlines() if l.startswith("check ")]
            print(f"smoke {workload} trace={trace}: "
                  f"{'PASS' if passed else 'FAIL'}")
            for line in checks:
                print("  " + line)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at tiny scale")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    build_dir = ".bench_build"
    try:
        binary = build(build_dir)
        bid = build_id(binary)
        if args.smoke:
            return smoke(binary, ".bench_cache", bid)
        cache_dir = ensure_cache(binary, ".bench_cache", bid, smoke=False)
        code, stdout = run_driver(binary, cache_dir, bid, args.workload,
                                  args.seed, args.seconds, args.trace,
                                  smoke=False)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        log(f"benchmark failed: {error}")
        return 1
    if code != 0 or result_of(stdout) is None:
        sys.stderr.write(stdout)
        log(f"driver exited with code {code} and no result")
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
