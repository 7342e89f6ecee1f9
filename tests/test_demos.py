"""Every script under demos/ runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rholoss

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_exits_zero(demo, tmp_path):
    src = str(Path(rholoss.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # RuntimeWarnings fail the demos as they fail the rest of the suite
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_demos_are_found():
    assert DEMOS  # an empty glob would skip the test above silently
