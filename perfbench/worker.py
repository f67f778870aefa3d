"""One workload run in a fresh interpreter.

Imports the CLI from the checkout's src/, prints `ready` once it can send
its first request, then serves the requests in a closed loop: one client,
each request sent through `grouptables.cli.main(argv)` only after the
previous one returned, as the console script calls it.  Results go to a
JSON file that run.py reads and checks.

    worker.py ROOT probe
    worker.py ROOT loop  REQUESTS RESULTS SECONDS
    worker.py ROOT trace REQUESTS RESULTS COUNT
"""
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def serve(main, requests, stop):
    """Send requests in turn, cycling the list, until stop(i, now) holds
    after the i-th one; returns (records, loop wall time)."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(requests)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(requests[k])
        except Exception:  # an uncaught exception is a failed request, not a crash of the run
            rc = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        records.append([k, t1 - t0, rc, out.getvalue(), err.getvalue()])
        i += 1
        if stop(i, t1):
            return records, t1 - start


def main():
    root, mode = sys.argv[1], sys.argv[2]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import grouptables.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"grouptables was imported from {cli.__file__}, not from {src}")
    print("ready", flush=True)
    if mode == "probe":
        return
    with open(sys.argv[3]) as f:
        requests = json.load(f)
    result = {}
    if mode == "loop":
        deadline = time.perf_counter() + float(sys.argv[5])
        result["records"], result["loop_s"] = serve(
            cli.main, requests, lambda i, now: now >= deadline
        )
    else:
        from tracer import Tracer

        count = int(sys.argv[5])
        requests = requests[:count]
        result["records"], result["loop_s"] = serve(
            cli.main, requests, lambda i, now: i >= count
        )
        tracer = Tracer()
        tracer.install()
        traced, traced_s = serve(tracer.request(cli.main), requests, lambda i, now: i >= count)
        result["records"] += traced
        result["layers"] = tracer.layer_metrics()
        result["layers"]["trace.overhead_ratio"] = traced_s / result["loop_s"]
    result["numpy"] = sys.modules["numpy"].__version__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(sys.argv[4], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
