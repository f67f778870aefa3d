import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, last",
    [
        ("classify_2groups.py", ["16"], "  Z2 x Z2 x Z2 x Z2"),
        ("factorization_report.py", ["--max-order", "12"], "11 factorizations built"),
    ],
    ids=["classify_2groups", "factorization_report"],
)
def test_script_runs_from_any_directory(script, args, last, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last)


@pytest.fixture
def deck_digests(monkeypatch):
    """scripts/deck_digests.py as a module; it puts src/ and perfbench/ on
    sys.path and stops bytecode writes, both undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("deck_digests", SCRIPTS / "deck_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_deck_digests_replace_the_deck_path(deck_digests):
    first = deck_digests.deck_digest("unique-perm", 1, 3)  # each call builds its deck afresh
    assert first == deck_digests.deck_digest("unique-perm", 1, 3)
    assert first[0] == 3 and len(first[1]) == 64
    assert deck_digests.deck_digest("factor-mix", 1, 3)[0] == 3


# The first 60 requests of each seed-1 deck, unique-perm's damaged maps and
# their witnesses among them, byte for byte; the full decks are the script's
# own run.  A benchmark change that changes a deck re-pins these.
@pytest.mark.parametrize("workload, sha", [
    ("factor-mix", "222a0d50d9cb8ecca901b819b0558f54efa1a32f1da24bbd1854cc4c1a7de79f"),
    ("unique-perm", "2fdbc39216277f812eb7c0acecb31393a8bfde3acf0c15f58cec0555bc6896fa"),
], ids=["factor-mix", "unique-perm"])
def test_deck_digest_pinned(deck_digests, workload, sha):
    assert deck_digests.deck_digest(workload, 1, 60) == (60, sha)
