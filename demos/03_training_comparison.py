#!/usr/bin/env python3
"""Hardware-aware vs regular training, judged across simulated transfers.

Trains the 2-8-1 half-moons classifier twice from the same seed: once
plainly, once with per-batch noise injection through the reparametrization
trick.  Both networks are then pushed through 1,000 independent simulated
transfers and compared point by point: what fraction of the transfers
classifies each test point correctly?

Writes curve_hardware_aware.csv / curve_regular.csv next to this script
(plot with plot_robustness.gp).
"""

import time
from pathlib import Path

import numpy as np

from xbartrain import (
    ExperimentConfig,
    evaluate_transfers,
    make_synthetic_model,
    robustness_curve,
    robustness_table,
    train_hardware_aware,
    train_regular,
)
from xbartrain import nn
from xbartrain.experiments import experiment_dataset, write_curve_csv
from xbartrain.transfer import layouts_for_architecture

HERE = Path(__file__).parent
model = make_synthetic_model()
experiment = ExperimentConfig()  # 875 + 200 half-moons points, seed 0
config = experiment.training  # 2-8-1, batch 256, lr 0.01, x = y = 0.5%

train_set, test_set = experiment_dataset(experiment)
layouts = layouts_for_architecture(config.architecture, *config.tile)

print(f"training both networks ({config.epochs} epochs, batch {config.batch_size})...")
t0 = time.time()
hann = train_hardware_aware(config, train_set, model=model)
t1 = time.time()
regular = train_regular(config, train_set)
t2 = time.time()
print(f"  hardware-aware: {t1 - t0:.1f}s, clean test accuracy "
      f"{nn.accuracy(hann, test_set.points, test_set.labels):.3f}")
print(f"  regular:        {t2 - t1:.1f}s, clean test accuracy "
      f"{nn.accuracy(regular, test_set.points, test_set.labels):.3f}")
print("(noise injection slows training and trades a little clean accuracy")
print(" for robustness; the clean numbers alone hide the difference)")

print("\nsimulating 1,000 transfers per network...")
reports = {
    "hardware-aware": evaluate_transfers(hann, model, layouts, config.hrs_fraction,
                                         config.lrs_fraction, test_set, 1000, seed=config.seed),
    "regular": evaluate_transfers(regular, model, layouts, config.hrs_fraction,
                                  config.lrs_fraction, test_set, 1000, seed=config.seed),
}

header = f"{'correct-share bin':>18s} | {'regular':>12s} | {'hardware-aware':>14s}"
print("\n" + header)
print("-" * len(header))
tables = {name: robustness_table(rep) for name, rep in reports.items()}
for row_r, row_h in zip(tables["regular"], tables["hardware-aware"]):
    print(f"{row_r.label:>18s} | {row_r.count:4d} ({row_r.percent:5.1f}%) | "
          f"{row_h.count:4d} ({row_h.percent:7.1f}%)")

for name, rep in reports.items():
    share = np.mean(rep.fractions >= 0.95)
    print(f"\n{name}: {100 * share:.1f}% of test points are classified correctly by "
          ">=95% of simulated transfers")

for name, rep in reports.items():
    path = HERE / f"curve_{name.replace('-', '_')}.csv"
    write_curve_csv(path, *robustness_curve(rep))
    print(f"wrote {path.name}")
