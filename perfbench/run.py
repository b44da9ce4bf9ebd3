#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload pc-saturated --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The first form builds perfbench/main.exe from source into .bench_build/
and runs one workload; its last stdout line is the JSON result.  The
second runs every workload briefly in both modes and checks that each
metric BENCHMARK.json names is printed with its unit.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: no dune-project and lib/ here; run from the root "
                 "of a checkout of the repository")
    # The build's own output goes to stderr: stdout ends with the result.
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/main.exe"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")


def run(args, seconds):
    """Run main.exe with [args]; its exit code, or 1 if it overran."""
    try:
        return subprocess.run([EXE] + args, timeout=3 * seconds + 120).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark overran its time limit", file=sys.stderr)
        return 1


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = 0
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for w in spec["workloads"]:
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace)]
            out = subprocess.run([EXE] + args, capture_output=True, text=True,
                                 timeout=600)
            line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            res = json.loads(line)
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            bad = [f"{k} ({u})" for k, u in want.items() if got.get(k) != u]
            extra = sorted(set(got) - set(want))
            ok = (out.returncode == 0 and res.get("correct") is True
                  and set(res) == {"correct", "attempted", "failed", "metrics"}
                  and not bad and not extra)
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} --trace {trace}"
                  + (f": missing or wrong unit: {', '.join(bad)}" if bad else "")
                  + (f": not in BENCHMARK.json: {', '.join(extra)}" if extra else "")
                  + ("" if res.get("correct") is True else ": correct is not true"))
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        sys.exit(selftest())
    try:
        seconds = int(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 60
    sys.exit(run(args, seconds))


if __name__ == "__main__":
    main()
