"""Run one ``xbartrain`` CLI call and record where its set-up ends.

    python3 perfbench/child.py --marks MARKS.json --boundary NAME [--boundary NAME]
                               [--spans SPANS.json] -- <xbartrain arguments>

The call goes through ``xbartrain.cli.main``, exactly as the console script
runs it.  Before that, each ``--boundary`` name in the ``xbartrain.cli``
namespace (the function a subcommand hands its timed work to, such as
``evaluate_transfers``) is wrapped so that its first entry marks the end of
set-up.  MARKS.json receives, in ``time.monotonic_ns`` units (the same clock
in every process on the machine), the boundary time and the time ``main``
returned, plus the CPU time and peak resident memory of this process.

With ``--spans`` every public function of the package's modules (the cli
module's ``main`` and ``cmd_*`` too) is wrapped as well, and one span
(name, thread, parent, start, end) is kept in memory per call and written
to SPANS.json when the call ends.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("variability", "transfer", "training", "nn", "experiments", "datasets", "cli")
# Public methods that the hot paths call.  Every public module-level
# function is wrapped as well.
METHODS = {
    "variability": {"BiasDisturbanceDb": ("sample_matrix",), "StuckModel": ("sample_hrs", "sample_lrs")},
    "experiments": {"ExperimentConfig": ("resolve_model",)},
}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """In-memory span recorder wrapped around the package's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, thread index, parent, start_ns, end_ns]
        self._threads: dict[int, int] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
            self._threads.setdefault(threading.get_ident(), len(self._threads))
        return stack

    def wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name_idx, self._threads[threading.get_ident()], stack[-1], time.perf_counter_ns(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap every public function defined in a layer module wherever the
        package binds it, and the listed public methods on their classes."""
        import importlib

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        targets = {
            obj: f"{layer}.{name}"
            for layer, module in modules.items()
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
        }
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name, None)
                for method in methods:
                    fn = getattr(cls, method, None)
                    if inspect.isfunction(fn):
                        setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", fn))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}))


def run(marks_path: Path, boundaries: list[str], spans_path: Path | None, cli_args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import xbartrain
    from xbartrain import cli

    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install(xbartrain)
    marks = {"boundary_ns": None, "boundary_cpu_s": None, "boundary_calls": []}

    def mark(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.monotonic_ns()
            if marks["boundary_ns"] is None:
                marks["boundary_ns"] = start
                marks["boundary_cpu_s"] = _cpu_s()
            try:
                return fn(*args, **kwargs)
            finally:
                marks["boundary_calls"].append([fn.__name__, start, time.monotonic_ns()])
        return timed

    for name in boundaries:
        setattr(cli, name, mark(getattr(cli, name)))
    rc = cli.main(cli_args)
    marks["end_ns"] = time.monotonic_ns()
    marks["end_cpu_s"] = _cpu_s()
    marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    marks["rc"] = rc
    marks_path.write_text(json.dumps(marks))
    if tracer is not None:
        tracer.dump(spans_path)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", type=Path, required=True)
    parser.add_argument("--boundary", action="append", required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    return run(args.marks, args.boundary, args.spans, cli_args)


if __name__ == "__main__":
    sys.exit(main())
