"""Where the package loads scipy, and that it never loads multiprocessing.

``scipy.special`` takes about 0.25 s and 19 MB to import, and only the
training forward and ``fit-model``'s Shapiro-Wilk test call into it.  So
importing the package, ``evaluate``, ``heatmap`` and
``gen-synthetic-model`` must not load it, while ``train`` and ``run`` load
it before their first timed stage, and so before the first fork.  Every second
process is forked by ``training._forked`` with ``os.fork`` and an
``os.pipe``, so no command, ``train`` and ``run`` included, loads
``multiprocessing`` (5-7 ms to import without scipy loaded, 2 vCPU,
Python 3.11) or the process pool of ``concurrent.futures``
(``concurrent.futures.process``).  ``scipy.special`` loads the
``concurrent.futures`` package itself, through ``numpy.testing``, so only
the commands that never load scipy keep out all of it.  Each check runs in
a fresh interpreter, because this one may have loaded them already.
"""

import json
import os
import subprocess
import sys

import pytest

from test_cli import CHECKPOINT, SRC, TINY_CONFIG

# Prints whether scipy, multiprocessing or a process pool, and the
# concurrent.futures package are loaded after ``main(ARGS)``, and the
# scipy.special state that the wrapped entry points saw when they were called.
SCRIPT = """
import json, sys
from xbartrain import cli

seen = []

def wrap(module, name):
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        seen.append([name, "scipy.special" in sys.modules])
        return fn(*args, **kwargs)

    setattr(module, name, wrapped)

for name in ("train_hardware_aware", "train_regular"):
    wrap(cli, name)
rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules),
                  "multiprocessing": any(m in sys.modules for m in
                                         ("multiprocessing", "concurrent.futures.process")),
                  "futures": "concurrent.futures" in sys.modules,
                  "seen": seen}))
"""


def run_cli(tmp_path, *args) -> dict:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    argv = [a.replace("CONFIG", str(config)).replace("OUT", str(tmp_path / "out")) for a in args]
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_scipy(tmp_path):
    code = "import sys, xbartrain, xbartrain.cli; print(sorted(m for m in sys.modules " \
           "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("args", [
    ["evaluate", "--checkpoint", str(CHECKPOINT), "--config", "CONFIG", "--out", "OUT"],
    ["heatmap", "--checkpoint", str(CHECKPOINT), "--config", "CONFIG", "--out", "OUT"],
    ["gen-synthetic-model", "--out", "OUT"],
], ids=lambda args: args[0])
def test_commands_that_never_load_scipy(tmp_path, args):
    assert run_cli(tmp_path, *args) == {"rc": 0, "scipy": False, "multiprocessing": False,
                                        "futures": False, "seen": []}


@pytest.mark.parametrize("flag, name", [("--hardware-aware", "train_hardware_aware"),
                                        ("--regular", "train_regular")])
def test_train_loads_scipy_before_training(tmp_path, flag, name):
    result = run_cli(tmp_path, "train", flag, "--config", "CONFIG", "--out", "OUT")
    # At the default threads 2 an HA run on two CPUs forks a noise producer,
    # without multiprocessing.
    assert result == {"rc": 0, "scipy": True, "multiprocessing": False, "futures": True,
                      "seen": [[name, True]]}


def test_run_loads_scipy_before_it_forks(tmp_path):
    result = run_cli(tmp_path, "run", "--config", "CONFIG", "--threads", "2", "--out", "OUT")
    assert result == {"rc": 0, "scipy": True, "multiprocessing": False, "futures": True,
                      "seen": [["train_hardware_aware", True], ["train_regular", True]]}
