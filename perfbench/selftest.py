#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py

Run from the repository root (builds like run.py). Checks:
  1. the same seed run twice gives byte-identical sim-clock figures and
     per-layer counts on hot-file-crowd and small-file-churn;
  2. a second seed passes every oracle on all three workloads, including
     the txn-ledger balance and conservation invariants;
  3. txn-ledger without quiet points (--ledger-batch 0) keeps those
     invariants. This check fails on the current facility: the intention
     log only checkpoints when no transaction is active, fills under
     unbroken commit load, and then End reports errors for transfers that
     were applied;
  4. txn-ledger with a zero lock timeout (--lock-lt-ms 0) keeps them: the
     timeout rule may abort transfers, but never lose one. This check
     fails on the current facility: a break at the commit point loses
     updates (see README.md, "Known defects").
Prints PASS/FAIL per check; exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build helper)

# Per-layer metrics read from the host clock: they differ run to run.
HOST_METRICS = ("host", "overhead")


def drive(binary, root, *args):
    proc = subprocess.run([binary, *args], cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=run.DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, lines, result


def sim_view(lines, result):
    fingerprint = [l for l in lines if l.startswith("sim fingerprint:")]
    counts = {k: v["value"] for k, v in result.get("metrics", {}).items()
              if not any(h in k for h in HOST_METRICS)}
    return fingerprint, counts


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    run.build(root, build_dir)
    binary = os.path.join(build_dir, "perfbench")
    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}" +
              (f": {detail}" if detail and not ok else ""), flush=True)
        if not ok:
            failures.append(name)

    base = ["--seconds", "1", "--trace", "1"]
    for wl in ("hot-file-crowd", "small-file-churn"):
        views = []
        for _ in range(2):
            rc, lines, result = drive(binary, root, "--workload", wl,
                                      "--seed", "11", *base)
            views.append(sim_view(lines, result) if rc == 0 else None)
        check(f"{wl}: seed 11 twice, identical sim figures and counts",
              views[0] is not None and views[0] == views[1])

    for wl in run.WORKLOADS:
        rc, lines, result = drive(binary, root, "--workload", wl, "--seed",
                                  "12", "--seconds", "1", "--trace", "0")
        check(f"{wl}: seed 12 passes every oracle",
              rc == 0 and result.get("correct") and result.get("failed") == 0,
              "; ".join(l.strip() for l in lines if "wrong:" in l
                        or "failed:" in l)[:400])

    for flag, value, name, aborts_ok in (
            ("--ledger-batch", "0", "without quiet points (known defect: "
             "intention log fills)", False),
            ("--lock-lt-ms", "0", "with a zero lock timeout (known defect: "
             "commit-point lost update)", True)):
        rc, lines, result = drive(binary, root, "--workload", "txn-ledger",
                                  "--seed", "12", "--seconds", "1",
                                  "--trace", "0", flag, value)
        check(f"txn-ledger {name} keeps its invariants",
              rc == 0 and result.get("correct") and
              (aborts_ok or result.get("failed") == 0),
              "; ".join(l.strip() for l in lines if "wrong:" in l)[:400])

    print(f"{len(failures)} check(s) failed" if failures else "all checks pass")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
