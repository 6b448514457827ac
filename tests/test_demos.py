"""The scripts in demos/ run to completion and print something.

Demo 02 and acceptance criterion 3 are the only in-repo readers of gram_matrix outside its kernel
tests; no verify suite forms a Gram matrix.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("0[1-3]_*.py"))


def test_all_three_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=REPO, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
