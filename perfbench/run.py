#!/usr/bin/env python3
"""Build and run the repo's benchmark (see perfbench/NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload chaos-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/tacobench.exe (release profile, build
directory .bench_build) and runs one measurement; the last line of its
standard output is the result object.  Build output goes to standard error.
The second form runs every workload at a small size and checks the pins,
that every metric in BENCHMARK.json is emitted with its unit, and that
exp-broker's rows equal E5_broker.run's.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "tacobench.exe")
PINS = os.path.join("perfbench", "pins")
DEFAULT_SEED = 1


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_tree():
    for path in ("dune-project", "lib", "perfbench/dune", "perfbench/tacobench.ml"):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a full checkout")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
           "--profile", "release", "./perfbench/tacobench.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".txt")):
                h.update(p.encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run(workload, seed, seconds, trace, extra=()):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", revision(), *extra]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD_DIR, f"trace-{workload}-{seed}.json")]
    return cmd


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            r = subprocess.run(run(wl, DEFAULT_SEED, 0, trace, ["--size", "small"]),
                               capture_output=True, text=True)
            res = last_json(r.stdout)
            prov = json.loads(r.stdout.splitlines()[-2])["provenance"]
            tag = f"{wl} trace={trace}"
            if r.returncode != 0 or not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: run failed (exit {r.returncode})")
            if prov["pins_checked"] == 0:
                problems.append(f"{tag}: no pinned unit was checked")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(want[trace]))}, units "
                                f"{sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])}")
            print(f"{tag}: {res['attempted']} units, {prov['pins_checked']} pins checked",
                  file=sys.stderr)
        # a corrupted pin must fail the run
        bad = os.path.join(BUILD_DIR, "selftest-pins")
        os.makedirs(bad, exist_ok=True)
        with open(os.path.join(PINS, wl + ".txt")) as f:
            lines = f.read().splitlines()
        i, digest = lines[0].split()
        lines[0] = f"{i} {'0' * len(digest)}"
        with open(os.path.join(bad, wl + ".txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
        r = subprocess.run(run(wl, DEFAULT_SEED, 0, 0, ["--size", "small", "--pins", bad]),
                           capture_output=True, text=True)
        res = last_json(r.stdout)
        if r.returncode == 0 or res["correct"] or res["failed"] == 0:
            problems.append(f"{wl}: a corrupted pin went unnoticed")
    # exp-broker builds E5's rows itself; they must equal E5_broker.run's
    r = subprocess.run([EXE, "--check-e5"], capture_output=True, text=True)
    if r.returncode != 0:
        problems.append("exp-broker: rows differ from E5_broker.run: " + r.stderr.strip())
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    check_tree()
    build()
    if args.self_test:
        return self_test()
    if not args.workload:
        fail("--workload is required")
    sys.stdout.flush()
    return subprocess.run(run(args.workload, args.seed, args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
