"""The quick demos run to completion.

Demos 01 and 02 take under a second each, so every test run starts them in
fresh interpreters and checks that they exit 0.  Demos 03 and 04 train
networks for several seconds each and are run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import SRC

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_variability_model.py", "02_simulated_transfer.py"])
def test_demo_exits_0(tmp_path, name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
