"""The grouptables benchmark: the CLI verbs `factor`, `unique` and
`validate` on seeded workloads, with every output checked.

    python3 perfbench/run.py --workload factor-mix --seed 1 --seconds 35 --trace 0

For one run it builds the workload's inputs from the seed (workloads.py),
sends the requests from a fresh interpreter in a closed loop for the
given seconds (worker.py), checks every output and prints the metrics.
setup_s is the median time from spawn until `grouptables.cli` is imported,
over that interpreter and probe interpreters started before and after the
loop, so that a slow stretch of the machine moves few of the samples.
The last line of stdout is one JSON object.  With --trace 1 a fixed prefix
of the requests runs twice in one interpreter, untraced and then traced
(tracer.py), and per-layer self times and call counts are reported
instead.  --workload all runs every workload in turn.

Exits 1 without a result when a run cannot complete, for instance when
src/grouptables is missing beside this directory.
"""
import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from workloads import ORDER_BANDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 8  # before the loop, and again after it
RUN_LIMIT_S = 170
# requests per traced run: fixed, so that call counts repeat exactly; the
# untraced and the traced pass together take about 30 s on 2 cores
TRACE_REQUESTS = {"factor-mix": 70, "unique-perm": 60, "validate-files": 120}


class RunError(Exception):
    pass


class Child:
    """A worker interpreter; `setup_s` is the time from spawn to `ready`."""

    def __init__(self, workdir, *args):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, ROOT, *args], cwd=workdir,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if ready != "ready\n":
            self.finish(10)
            raise RunError("worker ended before it was ready")

    def finish(self, timeout):
        try:
            _, err = self.proc.communicate(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RunError("worker timed out") from None
        if self.proc.returncode != 0:
            raise RunError(f"worker exited {self.proc.returncode}: {err.strip()}")


def probe_setups(workdir, count, start):
    """setup_s of `count` probe interpreters that exit once ready."""
    out = []
    for _ in range(count):
        probe = Child(workdir, "probe")
        probe.finish(RUN_LIMIT_S - (time.perf_counter() - start))
        out.append(probe.setup_s)
    return out


def run_workload(name, seed, seconds, trace):
    start = time.perf_counter()
    generate, check = WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        requests = generate(random.Random(f"{name}/{seed}"), workdir)
        with open(os.path.join(workdir, "requests.json"), "w") as f:
            json.dump([r["argv"] for r in requests], f)
        probes = 0 if trace else SETUP_PROBES
        setups = probe_setups(workdir, probes, start)
        mode, arg = ("trace", TRACE_REQUESTS[name]) if trace else ("loop", seconds)
        child = Child(workdir, mode, "requests.json", "results.json", str(arg))
        setups.append(child.setup_s)
        child.finish(RUN_LIMIT_S - (time.perf_counter() - start))
        setups += probe_setups(workdir, probes, start)
        with open(os.path.join(workdir, "results.json")) as f:
            result = json.load(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failures = []
    for k, _, rc, out, err in records:
        problem = check(requests[k], rc, out, err)
        if problem is not None:
            failures.append(f"{' '.join(requests[k]['argv'])}: {problem}")
    latencies = [r[1] * 1000 for r in records[: len(records) // 2 if trace else None]]
    return {
        "name": name, "seed": seed, "trace": trace, "records": records, "requests": requests,
        "failures": failures, "setups": setups, "latencies": latencies,
        "loop_s": result["loop_s"], "peak_rss_mb": result["peak_rss_mb"],
        "layers": result.get("layers"),
        "numpy": result["numpy"],
    }


def metrics(run):
    if run["trace"]:
        units = {"calls": "count", "self_s": "s", "useful_ratio": "ratio", "overhead_ratio": "ratio"}
        return {k: (v, units[k.rsplit(".", 1)[1]], None) for k, v in run["layers"].items()}
    lat = run["latencies"]
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    return {
        "setup_s": (statistics.median(run["setups"]), "s", len(run["setups"])),
        "latency_p50_ms": (statistics.median(lat), "ms", len(lat)),
        "latency_p90_ms": (p90, "ms", len(lat)),
        "requests_per_s": (len(lat) / run["loop_s"], "1/s", len(lat)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }


def describe(run, values):
    """Human-readable summary: workload properties, metrics, failures."""
    records = run["records"][: len(run["latencies"])]
    reqs = [run["requests"][r[0]] for r in records]
    seen, repeats = set(), 0
    for r in reqs:
        repeats += r["key"] in seen
        seen.add(r["key"])
    bands = Counter(next(i for i, (lo, hi) in enumerate(ORDER_BANDS) if r["order"] <= hi)
                    for r in reqs)
    n = len(reqs)
    lines = [
        f"== {run['name']} seed={run['seed']} trace={int(run['trace'])}: {n} requests, "
        f"{len(run['requests'])} in the deck, repeated inputs {repeats / n:.1%}, "
        f"rejected inputs {sum(r['rejected'] for r in reqs) / n:.1%}",
        "   orders: " + ", ".join(f"{lo}-{hi}: {bands[i]}" for i, (lo, hi) in enumerate(ORDER_BANDS)),
        f"   failed_frac {len(run['failures']) / len(run['records']):.4f} "
        f"({len(run['failures'])} of {len(run['records'])} requests)",
    ]
    for name, (value, unit, samples) in values.items():
        count = "" if samples is None else f"  (n={samples})"
        lines.append(f"   {name:45s} {value:14.6g} {unit}{count}")
    lines += [f"   FAILED {f}" for f in run["failures"][:20]]
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"# nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"closed loop, one client", flush=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RunError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        values = metrics(run)
        print(f"# numpy {run['numpy']}")
        print(describe(run, values), flush=True)
        summary["attempted"] += len(run["records"])
        summary["failed"] += len(run["failures"])
        prefix = "" if len(names) == 1 else name + "."
        for metric, (value, unit, _) in values.items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
