#!/usr/bin/env python3
"""Where in the data space do transfers disagree?

Repeats inference over the whole plane under independent simulated
transfers and maps the per-cell standard deviation of the binary decision.
Outcomes are 0/1, so std = sqrt(mean * (1 - mean)): 0 where every transfer
agrees, 0.5 where the decision is a coin flip.

Writes heatmap_hardware_aware.csv / heatmap_regular.csv next to this
script (plot with plot_heatmap.gp).
"""

import time
from pathlib import Path

import numpy as np

from xbartrain import ExperimentConfig, GridSpec, heatmap, make_synthetic_model
from xbartrain import train_hardware_aware, train_regular
from xbartrain.experiments import experiment_dataset, write_heatmap_csv
from xbartrain.transfer import layouts_for_architecture

HERE = Path(__file__).parent
model = make_synthetic_model()
experiment = ExperimentConfig()
config = experiment.training

train_set, _ = experiment_dataset(experiment)
layouts = layouts_for_architecture(config.architecture, *config.tile)

print(f"training both networks ({config.epochs} epochs)...")
nets = {
    "hardware_aware": train_hardware_aware(config, train_set, model=model),
    "regular": train_regular(config, train_set),
}

grid = GridSpec(nx=120, ny=75)  # default extent [-1.5, 2.5] x [-1.0, 1.5]
for name, net in nets.items():
    t0 = time.time()
    hm = heatmap(net, model, layouts, config.hrs_fraction, config.lrs_fraction,
                 grid, repetitions=300, seed=config.seed)
    path = HERE / f"heatmap_{name}.csv"
    write_heatmap_csv(path, hm)
    frac_noisy = float(np.mean(hm.std > 0.25))
    print(f"{name}: mean std {hm.std.mean():.3f}, "
          f"{100 * frac_noisy:.1f}% of the plane is coin-flip territory (std > 0.25) "
          f"[{time.time() - t0:.1f}s] -> {path.name}")

print("\nthe hardware-aware network confines its uncertainty to a thin band")
print("along the class boundary; the regular network's band is much wider.")
