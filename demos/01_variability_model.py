#!/usr/bin/env python3
"""Fitting a variability model from raw characterization data.

Walks the full ingestion path: synthesize a small measurement campaign
(the same CSV shapes a probe station would produce), fit the three
sub-models, inspect the normality diagnostics, and round-trip the bundle
through its JSON file.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from xbartrain import (
    build_bias_db,
    fit_tuning_model,
    load_model,
    make_synthetic_model,
    save_model,
    shapiro_wilk,
)
from xbartrain.transfer import TileLayout, TransferPlan
from xbartrain.variability import StuckModel, TuningRecord, VariabilityModel

rng = np.random.default_rng(7)

# --- 1. A synthetic tuning campaign -----------------------------------------
# 12 devices, 8 target levels across the tuning window, 40 reads per level.
# The ground truth: std falls linearly with conductance (1.4% down to 0.6%)
# and the achieved mean sits ~0.5% below the target.
records = []
for device in range(12):
    for target in np.linspace(100, 400, 8):
        offset_pct = rng.normal(-0.5, 0.5)
        std_pct = -0.002 * target + 1.4
        reads = rng.normal(target * (1 + offset_pct / 100), std_pct * target / 100, size=40)
        records.append(TuningRecord(f"dev{device:02d}", float(target), tuple(reads)))

std_model, offset_model, groups = fit_tuning_model(records)
print("fitted std law:    f(g) = "
      f"{std_model.slope:+.5f} %/uS * g + {std_model.intercept:.3f} %")
print(f"fitted offset:     N(mu={offset_model.mu_off:.3f} %, sigma={offset_model.sigma_off:.3f} %)")

# Shapiro-Wilk gates every per-group normal fit; with genuinely normal reads
# the p-values should rarely dip below 0.05.
pvals = [g.shapiro_p for g in groups if g.shapiro_p is not None]
print(f"normality:         {sum(p < 0.05 for p in pvals)}/{len(pvals)} groups "
      "rejected at alpha=0.05")

# Contrast: a uniform sample fails the same test decisively.
w, p = shapiro_wilk(rng.uniform(size=200))
print(f"uniform control:   W={w:.4f}, p={p:.2e} (rejected)")

# --- 2. The biasing-disturbance database ------------------------------------
# Disturbances accumulate with the number of devices programmed afterwards;
# anything beyond +/-60 uS is a stuck-device artefact and is dropped.
bias_records = []
for n_d in range(1, 33):
    for delta in rng.normal(-0.3 * n_d, 1.5 * np.sqrt(n_d), size=50):
        bias_records.append((n_d, float(delta)))
bias_records.append((5, 120.0))  # an LRS failure masquerading as crosstalk
db = build_bias_db(bias_records)
print(f"\nbias database:     {len(db.groups)} n_d groups "
      f"({sum(len(v) for v in db.groups.values())} records kept)")

# The fitted sources bundle into one model, and a transfer plan over it
# draws each device's disturbance at its n_d.  One row of 32 weights
# programmed as a single 64-device tile holds every n_d from 63 (the first
# device programmed) down to 0 (the last); 2000 transfers give 2000 draws
# per device.
model = VariabilityModel(
    std_model=std_model,
    offset_model=offset_model,
    bias_db=db,
    stuck_model=StuckModel(lrs_samples=tuple(rng.uniform(450, 1150, size=40))),
)
layout = TileLayout.for_weight_matrix(1, 32, rows=1, cols=64)
nd = np.stack([layout.nd_plus, layout.nd_minus])[:, 0]  # (plus/minus, device)
plan = TransferPlan([layout], model, x=0.0, y=0.0)
disturbance = plan.draw(2000, rng).disturbance.transpose(1, 0, 2)  # (transfer, plus/minus, device)
draws = disturbance[:, nd == 20]
print(f"n_d=20 draws:      mean {np.mean(draws):+.2f} uS (accumulated drift)")
zero_draws = disturbance[:, nd == 0]
print(f"n_d=0 draws:       always {float(np.abs(zero_draws).max())} (last-programmed device)")

# --- 3. Save and reload the bundle -------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)
    assert load_model(path) == model
    sections = sorted(json.loads(path.read_text()))
    print(f"\nmodel file round-trips; sections: {sections}")

# The package also ships a fully synthetic default for experiments without
# characterization data:
default = make_synthetic_model()
print(f"synthetic default: {len(default.bias_db.groups)} bias groups, "
      f"{len(default.stuck_model.lrs_samples)} LRS samples, "
      f"window [{default.range.g_min:.0f}, {default.range.g_max:.0f}] uS")
