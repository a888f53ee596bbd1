"""Every shipped demo runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gossipshield

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = Path(gossipshield.__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_are_found():
    # an empty glob would leave the smoke test above silently skipped
    assert DEMOS
