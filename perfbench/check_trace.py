"""Self-check of the traced run.

    python3 perfbench/check_trace.py [--seed N]

Runs `run.py --trace 1` twice per workload with the same seed and fails
unless every output passes its check, the call counts, the `op` count and
the useful ratio repeat exactly, and each layer is busy only on the
workload meant to exercise it.
"""
import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
EXACT = ("calls", "useful_ratio")
FACTOR, UNIQUE, VALIDATE = "factor-mix", "unique-perm", "validate-files"
# counter -> the workloads on which it is non-zero; it is 0 on the others
BUSY_ON = {
    "core.check_group.calls": {VALIDATE},
    "pgroup.complement_subgroup.calls": {FACTOR},
    "uniqueness.verify_unique_factorization.calls": {UNIQUE},
    "core.quotient.calls": {FACTOR},
    "core.subgroup.calls": {FACTOR, UNIQUE},
    "core.FiniteGroup.op.calls": {FACTOR, UNIQUE},
    "products.direct_product.calls": {FACTOR, UNIQUE},
    "gmaps.homomorphism_check.calls": {FACTOR, UNIQUE},
}


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    problems = []
    for workload in WORKLOADS:
        (first, a), (second, b) = traced(workload, seed), traced(workload, seed)
        for result in (first, second):
            if not result["correct"]:
                problems.append(f"{workload}: {result['failed']} failed outputs")
        for name in sorted(a):
            if name.rsplit(".", 1)[1] in EXACT and a[name] != b[name]:
                problems.append(f"{workload}: {name} was {a[name]}, then {b[name]}")
        for name, busy in BUSY_ON.items():
            if (a[name] != 0) != (workload in busy):
                problems.append(f"{workload}: {name} = {a[name]}")
        print(f"{workload}: {len(a)} layer metrics, "
              + ", ".join(f"{n} {a[n]:g}" for n in BUSY_ON), flush=True)
    for p in problems:
        print("FAIL", p)
    print("trace self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
