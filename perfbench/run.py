#!/usr/bin/env python3
"""Build and run the dtrack benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the driver in this directory (a Cargo workspace of its own) in
release mode, runs it pinned to one CPU, writes the full result with the
machine's description to `perfbench/results/`, and prints the result line last on
standard output. The exit code is the driver's: 0 when every operation
and every answer check passed, 1 otherwise. Without the repository's
crates beside this directory it exits 2 before building anything.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
# The crates the driver builds against, relative to the repository root.
NEEDED = ("Cargo.toml", "Cargo.lock", "crates/core", "crates/sim", "crates/sketch",
          "crates/workload", "stubs")
# Directories left out of the source digest: build and run outputs.
SKIP_DIRS = {".git", "target", ".bench_build", "results", "__pycache__"}
# Pause after a build that produced a new driver. Right after compiling,
# the first measured run read its throughput about 15% low and its query
# p90 twice as high as the runs after it.
AFTER_BUILD_PAUSE_S = 10


def pin_to_one_cpu():
    """Pin this process, and so the driver it starts, to one CPU; return it.

    On a 2-vCPU VM whose host is shared, a run that keeps both vCPUs busy
    loses 8-30% of its time to steal, and how much moves with the other
    tenants: unpinned, the sharded pool read 2.0-3.5 M items/s across
    four runs of eight seconds (steal 8-28%). Pinned, the same runs read
    2.51-2.57 M (steal 1-2%). The pool's threads then share one CPU, so the
    figures measure its overheads rather than its parallel speed-up.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The perfbench binary checks the workload name and lists the valid ones.
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own output goes to stderr: stdout carries only results.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def run_driver(binary, args):
    """Run the driver; return (exit code, stdout text)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    return proc.returncode, proc.stdout.decode()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over every source file the driver is built from."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "stubs", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine(cpu):
    git_rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git_rev = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": git_rev,
        "source_sha256": source_digest(),
    }


def main():
    args = parse_args()
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log(f"repository sources missing beside {HERE}: {', '.join(missing)}")
        return 2
    target = target_dir()
    binary = os.path.join(target, "release", "perfbench")
    built_before = os.path.getmtime(binary) if os.path.exists(binary) else None
    code = build(target)
    if code != 0:
        log(f"build failed (exit {code})")
        return code
    if os.path.getmtime(binary) != built_before:
        log(f"new build; pausing {AFTER_BUILD_PAUSE_S} s before measuring")
        time.sleep(AFTER_BUILD_PAUSE_S)
    cpu = pin_to_one_cpu()
    code, out = run_driver(binary, args)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(out)
        log(f"driver printed no result (exit {code})")
        return code or 1
    details = result.pop("details")
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"args": vars(args), "machine": machine(cpu), "details": details,
                   "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
