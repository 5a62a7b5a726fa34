#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

--workload is table1, serve-hot, serve-zipf, or all (each in turn).
The benchmark is built with dune first; build output goes to standard
error, so the last line of standard output is the JSON result.  The
exit code is non-zero when the build or any check fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["table1", "serve-hot", "serve-zipf"]
EXE = "_build/default/perfbench/main.exe"
GRIP = "_build/default/bin/grip_cli.exe"
RUN_TIMEOUT_S = 175


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench", "dune-project"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if not d.startswith(os.path.join("perfbench", ".run")))
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE, "./" + GRIP],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def run_one(workload, args, commit):
    """Run one workload; returns (exit code, last stdout line)."""
    cmd = ["./" + EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(len(os.sched_getaffinity(0))), "--grip", GRIP,
           "--commit", commit]
    # its own process group, so that a timeout can stop the daemon too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1, None
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    commit = source_id()
    if args.workload != "all":
        code, last = run_one(args.workload, args, commit)
        if last is not None:
            print(last)
        return code
    # every workload in turn; the last line merges their results
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        code, last = run_one(workload, args, commit)
        worst = worst or code
        result = json.loads(last) if last and last.startswith("{") else None
        if result is None:
            merged["correct"] = False
            continue
        print(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    if worst == 0:
        print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
