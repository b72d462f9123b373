#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout's sources and runs one
workload of the repository benchmark in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); each run works in a fresh directory under
it, removed on every exit path. The last stdout line is the result line; the
line before it is the report (every value, run metadata, failures).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver allows 180 s per run; leave room to stop and clean up.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            log("configure failed")
            return None
    command = [cmake, "--build", out_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(out_dir, "perfbench")


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(folder, name) for name in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as source:
                digest.update(source.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(binary, args, rundir):
    """Runs the driver in `rundir`; returns (exit code, stdout lines)."""
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    process = subprocess.Popen([binary, *args, "--workdir", rundir],
                               stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        return process.returncode, stdout.splitlines()
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
        shutil.rmtree(rundir, ignore_errors=True)


def check_contract(binary, rundir):
    """The driver's metric lists must be the ones BENCHMARK.json names."""
    code, lines = run_binary(binary, ["--list-metrics"], rundir)
    if code != 0 or not lines:
        log("--list-metrics failed")
        return False
    listed = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    ok = True
    for key in ("end_to_end", "per_layer"):
        declared = [[m["name"], m["unit"]] for m in spec[key]]
        if declared != listed[key]:
            log(f"BENCHMARK.json {key} differs from the driver's list")
            ok = False
    # The driver also runs sim-shots, which the gate leaves out (README).
    if not {w["name"] for w in spec["workloads"]} <= set(listed["workloads"]):
        log("BENCHMARK.json names a workload the driver does not run")
        ok = False
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds.get("setup_s", 0) < max(bounds.values()) or max(bounds.values()) > 0.25:
        log("setup_s must carry the largest bound, at most 0.25")
        ok = False
    log(f"contract check {'passed' if ok else 'FAILED'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    # A stop request still removes the run directory and the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2
    rundir = os.path.join(out_dir, "runs", str(os.getpid()))

    if args.self_test:
        code, _ = run_binary(binary, ["--self-test"], rundir)
        return 0 if code == 0 and check_contract(binary, rundir) else 1

    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace], rundir)
    if len(lines) < 2 or not lines[-2].startswith('{"report"'):
        log(f"driver exited with {code} without a result")
        return code or 1
    report = json.loads(lines[-2])
    report["report"]["meta"].update({
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    })
    print(json.dumps(report, separators=(",", ":")))
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
