#!/usr/bin/env python3
"""Shows that a wrong pinned digest is counted as a failed run.

Runs the campaign-sweep workload at the pinned seed twice: once with
perfbench/digests.txt, which must pass, and once with a copy in which one
cell's digest is altered, which must report that run as failed and exit
non-zero. Run from the root of a checkout:

    python3 perfbench/test_pinned_digest.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "campaign-sweep"


def run(digests):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", WORKLOAD, "--seed", "42", "--seconds", "1",
           "--trace", "0", "--digests", digests]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    pinned = os.path.join(ROOT, "perfbench", "digests.txt")
    code, result = run(pinned)
    assert code == 0 and result["correct"] and result["failed"] == 0, result

    with open(pinned) as f:
        lines = f.read().splitlines()
    target = next(i for i, line in enumerate(lines)
                  if line.startswith(WORKLOAD + " cell:"))
    fields = lines[target].split()
    fields[2] = "0" * 16 if fields[2] != "0" * 16 else "1" * 16
    lines[target] = " ".join(fields)
    target_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(target_dir, exist_ok=True)
    wrong = os.path.join(target_dir, "wrong-digests.txt")
    with open(wrong, "w") as f:
        f.write("\n".join(lines) + "\n")
    try:
        code, result = run(wrong)
    finally:
        os.remove(wrong)
    assert code != 0, "a wrong pinned digest must make the command fail"
    assert not result["correct"] and result["failed"] >= 1, result
    assert result["failed"] < result["attempted"], result
    print(f"ok: wrong digest for {fields[1]} counted as "
          f"{result['failed']} failed of {result['attempted']} runs")


if __name__ == "__main__":
    main()
