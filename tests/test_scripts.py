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
