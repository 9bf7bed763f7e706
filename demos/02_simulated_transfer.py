#!/usr/bin/env python3
"""Anatomy of one simulated weight transfer.

Takes a small signed weight matrix through every stage of the pipeline:
differential split, conversion into the conductance window, stuck-device
substitution, tuning / disturbance noise, and conversion back into weight
units.
"""

import numpy as np

from xbartrain import make_synthetic_model, split_signed, to_conductance
from xbartrain.transfer import TileLayout, TransferPlan, WeightRangeSnapshot

rng = np.random.default_rng(3)
model = make_synthetic_model()

# A 3x8 crossbar matrix: 2 inputs + 1 bias line feeding 8 outputs.
phi = rng.uniform(-1.0, 1.0, size=(3, 8)).round(2)
phi[0, 0], phi[0, 1] = 1.0, -1.0  # symmetric range for a clean comparison
layout = TileLayout.for_weight_matrix(3, 8)

print("clean weights:\n", phi)

# --- Differential split ------------------------------------------------------
plus, minus = split_signed(phi)
assert np.array_equal(plus - minus, phi)
print("\nevery weight becomes a device pair: plus carries positives,")
print("minus carries magnitudes of negatives; one of the two is always 0.")

# --- Conversion into the conductance window ----------------------------------
snap = WeightRangeSnapshot.of_matrix(phi)
g_plus = to_conductance(plus, snap, model.range)
print(f"\nconductance targets span [{g_plus.min():.0f}, {g_plus.max():.0f}] uS "
      f"(window [{model.range.g_min:.0f}, {model.range.g_max:.0f}])")

# --- Programming order -------------------------------------------------------
# Devices are programmed row-major per 8x8 tile; earlier devices then sit
# through every later neighbour's pulses (larger n_d, more disturbance).
print("\nn_d of each plus-device (3x8 matrix spans two tiles):\n", layout.nd_plus)

# --- One full transfer -------------------------------------------------------
# A plan fixes the crossbars, the model and the stuck fractions; draw makes
# the weight-independent random draws and apply converts the weights.
plan = TransferPlan([layout], model, x=0.05, y=0.05)
(outcome,) = plan.apply([phi], plan.draw(1, rng))
phi_prime = outcome.phi_prime[0]
err = phi_prime - phi
print("\ntransferred weights (x = y = 5% stuck for visibility):\n", phi_prime.round(3))
print("\nstuck positions:\n", outcome.stuck_mask[0])
print(f"\nper-weight error: median |err| {np.median(np.abs(err)):.4f}, "
      f"max |err| {np.abs(err).max():.3f}")
print("stuck weights dominate the error tail; an LRS substitution can push a")
print("weight far outside its original range, exactly like a real failure.")

# --- Monte-Carlo view --------------------------------------------------------
# One draw call makes all 2000 transfers, which apply converts at once.
plan = TransferPlan([layout], model, x=0.005, y=0.005)
(outcome,) = plan.apply([phi], plan.draw(2000, rng))
spread = outcome.phi_prime.std(axis=0)
print(f"\nacross 2000 transfers at x = y = 0.5%: mean per-weight std "
      f"{spread.mean():.4f} (weight units)")

# With stuck failures off, the position dependence shows cleanly: earlier
# devices sit through more programming pulses and wander further.
plan = TransferPlan([layout], model, x=0.0, y=0.0)
(outcome,) = plan.apply([phi], plan.draw(2000, rng))
calm = outcome.phi_prime.std(axis=0)
print(f"without stuck failures: first-programmed weight std {calm[0, 0]:.4f} vs "
      f"last-programmed {calm[-1, -1]:.4f}")
