#!/usr/bin/env python3
"""Digest what the CLI prints for the benchmark's request decks.

For each workload, with seeds 1 and 3, the deck is built with
perfbench/workloads.py in a temporary directory, from the same seeded
generator perfbench/run.py uses.  Each request then runs through grouptables.cli.main in this
interpreter, with that directory as the working directory, so the map and
group files the deck names are found.  One line is printed per deck:

    <workload> <seed> <requests> <sha256>

The sha256 covers every request's exit code, stdout and stderr, in deck
order, with the deck directory's path replaced by a placeholder, so the
lines of two checkouts can be compared as they are.  perfbench/ is read
and never written.

Usage: python3 scripts/deck_digests.py
"""
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # no __pycache__ beside perfbench/workloads.py

from grouptables.cli import main as cli_main
from workloads import WORKLOADS


def run_request(argv):
    """(exit code, stdout, stderr) of one CLI request; an exception that
    escapes main is recorded by its repr, as a traceback names paths."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except Exception as exc:
            rc = repr(exc)
    return rc, out.getvalue(), err.getvalue()


def deck_digest(workload, seed, limit=None):
    """(the number of requests run, the sha256 of their outputs) for the
    first `limit` requests of one deck, or all of them for None."""
    generate, _ = WORKLOADS[workload]
    digest, home = hashlib.sha256(), os.getcwd()
    with tempfile.TemporaryDirectory(prefix="deck-") as deck:
        requests = generate(random.Random(f"{workload}/{seed}"), deck)[:limit]
        os.chdir(deck)
        try:
            for req in requests:
                record = repr(run_request(req["argv"])).replace(deck, "<deck>")
                digest.update(record.encode() + b"\n")
        finally:
            os.chdir(home)
    return len(requests), digest.hexdigest()


def main():
    for workload in WORKLOADS:
        for seed in (1, 3):
            count, sha = deck_digest(workload, seed)
            print(f"{workload} {seed} {count} {sha}", flush=True)


if __name__ == "__main__":
    main()
