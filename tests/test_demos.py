"""Every demo script runs to completion as its own process."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path, child_env):
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
