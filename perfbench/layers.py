"""Per-layer metrics: public calls of each module timed from outside.

    python3 perfbench/layers.py --config CONFIG.json --checkpoint CKPT.json --work DIR

Every call is made at the shapes the workloads use: the 2-8-1 net maps to
crossbars of 3x8 and 9x1 devices, training batches hold 256 points, the
test set 200 points and the heatmap grid 40 000.  A time is the median over
five repeats of a loop sized to about ``BUDGET_S / 5``.  Counts are
cProfile ``total_calls`` at the fixed seed ``COUNT_SEED``; a per-transfer,
per-repetition or per-step count is the difference between two run lengths
divided by the difference in length, so fixed set-up cost cancels.  The
last line of stdout is one JSON object mapping each metric name to
``[value, unit]``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from xbartrain import cli, datasets, experiments, nn, training, transfer, variability  # noqa: E402

BUDGET_S = 0.25
REPEATS = 5
COUNT_SEED = 0


def per_call_s(fn, budget: float = BUDGET_S) -> float:
    """Median seconds per call of ``fn()`` over REPEATS timed loops."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    loops = max(1, int(budget / REPEATS / once))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops)
    return statistics.median(samples)


def total_calls(fn) -> int:
    fn()  # first calls may import or cache; count a warm call
    profile = cProfile.Profile()
    profile.runcall(fn)
    return pstats.Stats(profile).total_calls


def calls_per_unit(make_fn, small: int, large: int) -> float:
    return (total_calls(make_fn(large)) - total_calls(make_fn(small))) / (large - small)


@dataclass
class Setting:
    """The workload inputs the layer calls are made with."""

    config: object
    model: object
    train_set: object
    test_set: object
    net: object
    layouts: list

    @classmethod
    def load(cls, config_path: Path, checkpoint: Path) -> "Setting":
        config = cli.load_experiment_config(config_path)
        train_set, test_set = experiments.experiment_dataset(config)
        net = nn.load_checkpoint(checkpoint)
        layouts = transfer.layouts_for_architecture(net.sizes, *config.training.tile)
        return cls(config, variability.make_synthetic_model(config.model_seed), train_set, test_set, net, layouts)

    @property
    def steps_per_epoch(self) -> int:
        return -(-self.config.n_train // self.config.training.batch_size)

    def train(self, kind: str, epochs: int, seed: int):
        tc = replace(self.config.training, epochs=epochs, seed=seed)
        if kind == "ha":
            return training.train_hardware_aware(tc, self.train_set, model=self.model)
        return training.train_regular(tc, self.train_set)

    def evaluate(self, transfers: int, seed: int):
        tc = self.config.training
        return experiments.evaluate_transfers(self.net, self.model, self.layouts, tc.hrs_fraction,
                                              tc.lrs_fraction, self.test_set, transfers, seed, workers=1)

    def heatmap(self, repetitions: int, seed: int):
        tc = self.config.training
        return experiments.heatmap(self.net, self.model, self.layouts, tc.hrs_fraction, tc.lrs_fraction,
                                   self.config.grid, repetitions=repetitions, seed=seed, workers=1)


def counts(s: Setting) -> dict:
    """cProfile call counts per unit of work at COUNT_SEED; they repeat exactly."""
    tc = s.config.training

    def draws(n):
        def draw():
            rng = np.random.default_rng(COUNT_SEED)
            for _ in range(n):
                training.sample_epsilon(s.net, s.layouts, s.model, tc.hrs_fraction, tc.lrs_fraction, rng)
        return draw

    m = {"training.sample_epsilon.calls": (calls_per_unit(draws, 10, 30), "count")}
    for kind in ("ha", "regular"):
        per_epoch = calls_per_unit(lambda e: lambda: s.train(kind, e, COUNT_SEED), 5, 15)
        m[f"training.{kind}_step.calls"] = (per_epoch / s.steps_per_epoch, "count")
    m["experiments.evaluate_transfers.calls_per_transfer"] = (
        calls_per_unit(lambda n: lambda: s.evaluate(n, COUNT_SEED), 20, 60), "count")
    m["experiments.heatmap.calls_per_rep"] = (
        calls_per_unit(lambda r: lambda: s.heatmap(r, COUNT_SEED), 2, 6), "count")
    return m


def timings(s: Setting, config_path: Path, work: Path) -> dict:
    config, model, net, layouts = s.config, s.model, s.net, s.layouts
    tc = config.training
    seed, x, y = tc.seed, tc.hrs_fraction, tc.lrs_fraction
    rng = np.random.default_rng(seed)
    m = {}
    for layout, layer in zip(layouts, net.layers):
        phi = transfer.layer_to_crossbar(layer.weights, layer.bias)
        shape = "x".join(map(str, phi.shape))  # "3x8", "9x1"
        m[f"variability.sample_matrix.{shape}_us"] = (
            per_call_s(lambda: model.bias_db.sample_matrix(layout.nd_plus, rng)) * 1e6, "us")
        snap = transfer.WeightRangeSnapshot.of_matrix(phi)
        g = transfer.to_conductance(transfer.split_signed(phi)[0], snap, model.range)
        m[f"transfer.perturb_conductance.{shape}_us"] = (
            per_call_s(lambda: transfer.perturb_conductance(g, layout.nd_plus, model, rng)) * 1e6, "us")
        m[f"transfer.simulate_transfer.{shape}_us"] = (
            per_call_s(lambda: transfer.simulate_transfer(phi, layout, model, x, y, rng)) * 1e6, "us")
    stuck = model.stuck_model
    m["variability.stuck_draw_us"] = (
        per_call_s(lambda: (stuck.sample_hrs(rng, size=1), stuck.sample_lrs(rng, size=1))) * 1e6, "us")
    m["variability.make_synthetic_model_ms"] = (
        per_call_s(lambda: variability.make_synthetic_model(config.model_seed), budget=1.0) * 1e3, "ms")
    moons_seed = np.random.SeedSequence([seed, 102])  # the stream experiment_dataset uses
    m["datasets.make_half_moons_us"] = (
        per_call_s(lambda: datasets.make_half_moons(config.n_train + config.n_test, config.noise_std,
                                                    moons_seed)) * 1e6, "us")
    m["cli.load_experiment_config_us"] = (per_call_s(lambda: cli.load_experiment_config(config_path)) * 1e6, "us")
    m["transfer.layouts_for_architecture_us"] = (
        per_call_s(lambda: transfer.layouts_for_architecture(tc.architecture, *tc.tile)) * 1e6, "us")

    m["training.sample_epsilon_us"] = (
        per_call_s(lambda: training.sample_epsilon(net, layouts, model, x, y, rng)) * 1e6, "us")
    for kind in ("ha", "regular"):
        step = per_call_s(lambda: s.train(kind, 50, seed), budget=1.0) / (50 * s.steps_per_epoch)
        m[f"training.{kind}_step_us"] = (step * 1e6, "us")

    Xb = s.train_set.points[: tc.batch_size]
    yb = s.train_set.labels[: tc.batch_size]
    _, cache = nn.forward(net, Xb)
    grads = nn.backward(net, cache, yb)
    scratch_net = net.copy()
    state = nn.AdamState.for_net(scratch_net, lr=tc.lr)
    m["nn.forward.b256_us"] = (per_call_s(lambda: nn.forward(net, Xb)) * 1e6, "us")
    m["nn.backward.b256_us"] = (per_call_s(lambda: nn.backward(net, cache, yb)) * 1e6, "us")
    m["nn.adam_step_us"] = (per_call_s(lambda: nn.adam_step(scratch_net, grads, state)) * 1e6, "us")
    m["nn.predict.p200_us"] = (per_call_s(lambda: nn.predict(net, s.test_set.points)) * 1e6, "us")
    grid_points = config.grid.points()
    m["nn.predict.p40000_ms"] = (per_call_s(lambda: nn.predict(net, grid_points), budget=0.5) * 1e3, "ms")

    per_transfer = per_call_s(lambda: s.evaluate(100, seed), budget=1.0) / 100
    m["experiments.evaluate_transfers.per_transfer_us"] = (per_transfer * 1e6, "us")
    residual = (per_transfer * 1e6 - m["transfer.simulate_transfer.3x8_us"][0]
                - m["transfer.simulate_transfer.9x1_us"][0] - m["nn.predict.p200_us"][0])
    m["experiments.evaluate_transfers.overhead_us"] = (residual, "us")
    m["experiments.heatmap.per_rep_ms"] = (per_call_s(lambda: s.heatmap(10, seed), budget=2.0) / 10 * 1e3, "ms")
    hm = s.heatmap(10, seed)
    csv_path = work / "layers-heatmap.csv"
    m["experiments.write_heatmap_csv_ms"] = (
        per_call_s(lambda: experiments.write_heatmap_csv(csv_path, hm), budget=1.0) * 1e3, "ms")
    report = s.evaluate(200, seed)
    m["experiments.robustness_table_us"] = (per_call_s(lambda: experiments.robustness_table(report)) * 1e6, "us")
    m["experiments.robustness_curve_us"] = (per_call_s(lambda: experiments.robustness_curve(report)) * 1e6, "us")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--checkpoint", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    setting = Setting.load(args.config, args.checkpoint)
    metrics = timings(setting, args.config, args.work) | counts(setting)
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
