"""Where the package loads scipy, and that it never loads multiprocessing.

Only the training forward and ``fit-model``'s Shapiro-Wilk test call into
scipy.  Training needs one ufunc, ``expit``, which ``nn._expit`` takes from
scipy's compiled ``scipy.special._special_ufuncs`` module, loaded from its
file alone: the full ``scipy.special`` import would cost about 0.2 s and 17
MB per process and load ``numpy.testing`` and, through it, the
``concurrent.futures`` package.  So importing the package, ``evaluate``,
``heatmap`` and ``gen-synthetic-model`` load nothing of scipy, while
``train`` and ``run`` load that one module before their first timed stage,
and so before their first fork, and never load ``scipy.special`` itself.
Every second process is forked by ``training._forked`` with ``os.fork``
and an ``os.pipe``, so no command loads ``multiprocessing`` (5-7 ms to
import, 2 vCPU, Python 3.11) or any of ``concurrent.futures``.  Each check
runs in a fresh interpreter, because this one has loaded them already.
"""

import json
import os
import subprocess
import sys

import pytest

from test_cli import CHECKPOINT, SRC, TINY_CONFIG
from test_training import TWO_CPUS

# Prints the scipy modules loaded after ``main(ARGS)``, whether
# multiprocessing or a process pool, and the concurrent.futures package are
# loaded, and whether scipy's expit module was loaded when each wrapped
# entry point was called and at each ``os.fork``.
SCRIPT = """
import json, os, sys
from xbartrain import cli

EXPIT = "scipy.special._special_ufuncs"
seen, forks = [], []

def wrap(module, name, log):
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        log.append([name, EXPIT in sys.modules])
        return fn(*args, **kwargs)

    setattr(module, name, wrapped)

for name in ("train_hardware_aware", "train_regular"):
    wrap(cli, name, seen)
wrap(os, "fork", forks)
rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "multiprocessing": any(m in sys.modules for m in
                                         ("multiprocessing", "concurrent.futures.process")),
                  "futures": "concurrent.futures" in sys.modules,
                  "seen": seen, "forks": forks}))
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
    result = run_cli(tmp_path, *args)
    assert not any(loaded for _, loaded in result.pop("forks"))
    assert result == {"rc": 0, "scipy": [], "multiprocessing": False, "futures": False,
                      "seen": []}


def assert_expit_module_alone(result, seen):
    """Only scipy's expit module loaded, before any training and any fork."""
    forks = result.pop("forks")
    assert all(loaded for _, loaded in forks), forks
    assert result == {"rc": 0, "scipy": ["scipy.special._special_ufuncs"],
                      "multiprocessing": False, "futures": False, "seen": seen}
    return forks


@pytest.mark.parametrize("flag, name", [("--hardware-aware", "train_hardware_aware"),
                                        ("--regular", "train_regular")])
def test_train_loads_scipy_before_training(tmp_path, flag, name):
    # At the default threads 2 an HA run on two CPUs forks a noise producer,
    # without multiprocessing.
    result = run_cli(tmp_path, "train", flag, "--config", "CONFIG", "--out", "OUT")
    assert_expit_module_alone(result, [[name, True]])


def test_run_loads_scipy_before_it_forks(tmp_path):
    result = run_cli(tmp_path, "run", "--config", "CONFIG", "--threads", "2", "--out", "OUT")
    forks = assert_expit_module_alone(
        result, [["train_hardware_aware", True], ["train_regular", True]])
    assert bool(forks) == TWO_CPUS  # the producer and the count helpers
