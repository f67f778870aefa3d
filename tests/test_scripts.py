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


def test_deck_digests_replace_the_deck_path(monkeypatch):
    # the script puts src/ and perfbench/ on sys.path and stops bytecode writes
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("deck_digests", SCRIPTS / "deck_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    first = script.deck_digest("unique-perm", 1, 3)  # each call builds its deck afresh
    assert first == script.deck_digest("unique-perm", 1, 3)
    assert first[0] == 3 and len(first[1]) == 64
    assert script.deck_digest("factor-mix", 1, 3)[0] == 3
