#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. Each workload runs at its tiny size,
untraced and traced; every run must exit 0, pass its checks and print
exactly the metrics BENCHMARK.json declares for its mode, with their units.
Then a corrupted rules document (tune_job, serve) and a corrupted served
answer (all workloads) must each make the run exit non-zero. Exits 1 on
the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune_job", "fleet", "serve")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def fail(msg, proc=None):
    print(f"FAIL {msg}")
    if proc is not None:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace}: exit {proc.returncode}", proc)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: checks failed", proc)
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                fail(f"{workload} trace={trace}: missing {missing}, extra {extra}, units {wrong}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    fail(f"{workload} trace={trace}: {name} is not a number")
            print(f"ok   {workload} trace={trace}: {len(got)} metrics")

    corruptions = [(w, "answer") for w in WORKLOADS] + [("tune_job", "rules"), ("serve", "rules")]
    for workload, what in corruptions:
        proc = run(workload, 0, "--corrupt", what)
        if proc.returncode == 0:
            fail(f"{workload}: a corrupted {what} did not fail the run", proc)
        print(f"ok   {workload}: corrupted {what} fails the run (exit {proc.returncode})")
    print("smoke test passed")


if __name__ == "__main__":
    main()
