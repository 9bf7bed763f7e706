"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from xbartrain import nn
from xbartrain.datasets import make_half_moons
from xbartrain.experiments import (
    GridSpec,
    evaluate_transfers,
    heatmap,
    robustness_curve,
    run_experiment,
)
from xbartrain.training import (
    EffectiveParams,
    SourceToggles,
    TrainingConfig,
    train_hardware_aware,
    train_regular,
)
from xbartrain.transfer import (
    ConductanceRange,
    TileLayout,
    TransferPlan,
    WeightRangeSnapshot,
    from_conductance,
    perturb_conductance,
    split_signed,
    to_conductance,
    layouts_for_architecture,
)
from xbartrain.variability import (
    BiasDisturbanceDb,
    LinearStdModel,
    OffsetModel,
    StuckModel,
    VariabilityModel,
    fit_tuning_model,
    shapiro_wilk,
)

from conftest import zero_noise_model
from test_variability import synth_tuning_records

FIXTURES = Path(__file__).parent / "fixtures"
LAYOUTS = layouts_for_architecture([2, 8, 1])


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\n[{status}] {criterion}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.1f}s over budget {budget:.0f}s"


def test_criterion_1_conversion_algebra():
    t0 = time.time()
    crange = ConductanceRange()
    rng = np.random.default_rng(1001)
    worst_split, worst_sym, worst_asym = 0.0, 0.0, 0.0
    for i in range(1000):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        phi = rng.normal(scale=rng.uniform(0.1, 10.0), size=shape)
        if not np.any(phi):
            phi.flat[0] = 1.0
        plus, minus = split_signed(phi)
        worst_split = max(worst_split, float(np.max(np.abs((plus - minus) - phi))))

        # Symmetric snapshot: zero-noise round trip is the identity.
        sym = phi.copy()
        sym.flat[:2] = (np.abs(phi).max(), -np.abs(phi).max())
        snap = WeightRangeSnapshot.of_matrix(sym)
        p, m = split_signed(sym)
        back = from_conductance(
            to_conductance(p, snap, crange), to_conductance(m, snap, crange), snap, crange
        )
        worst_sym = max(worst_sym, float(np.max(np.abs(back - sym))))

        # Asymmetric snapshot: must match the composed affine map.
        snap_a = WeightRangeSnapshot.of_matrix(phi)
        p, m = split_signed(phi)
        back_a = from_conductance(
            to_conductance(p, snap_a, crange), to_conductance(m, snap_a, crange), snap_a, crange
        )
        closed = (phi / snap_a.phi_absmax + 1.0) / 2.0 * (snap_a.phi_max - snap_a.phi_min) + snap_a.phi_min
        worst_asym = max(worst_asym, float(np.max(np.abs(back_a - closed))))
    ok = worst_split == 0.0 and worst_sym < 1e-12 and worst_asym < 1e-12
    report(
        "criterion 1 (conversion algebra)",
        ok,
        f"split exact={worst_split == 0.0}, round-trip max {worst_sym:.2e}, "
        f"closed-form max {worst_asym:.2e} over 1000 matrices",
        time.time() - t0,
        budget=5.0,
    )


def test_criterion_2_gradient_oracle():
    t0 = time.time()
    h = 1e-5
    worst_rel = 0.0
    masked_all_zero = True
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        net = nn.DenseNet.init([2, 8, 1], rng)
        X = rng.uniform(-1.5, 2.5, size=(8, 2))
        y = rng.integers(0, 2, size=8)
        # The net's arrays become views of the clean vector params.params.
        params = EffectiveParams(net.sizes, nn.AdamState.for_net(net).params)
        eps = nn.unflatten(net.sizes, params.eps)
        masks = nn.unflatten(net.sizes, params.mask)
        # Every layer's weight noise, then bias noise, weight mask, bias mask.
        for i in (0, 1):
            for pair in eps:
                pair[i][...] = rng.normal(scale=0.05, size=pair[i].shape)
        for i in (0, 1):
            for pair in masks:
                pair[i][...] = rng.random(pair[i].shape) < 0.25
        params.update()
        _, cache = nn.forward(params.net, X)
        grads = nn.unflatten(net.sizes, params.gradient(cache, y))

        def loss_at():
            params.update()
            out, _ = nn.forward(params.net, X)
            return nn.bce_loss(out, y)

        for l, (gw, gb) in enumerate(grads):
            for arr, grad, mask in (
                (net.layers[l].weights, gw, masks[l][0]),
                (net.layers[l].bias, gb, masks[l][1]),
            ):
                for idx in np.ndindex(arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = loss_at()
                    arr[idx] = orig - h
                    down = loss_at()
                    arr[idx] = orig
                    fd = (up - down) / (2 * h)
                    if mask[idx]:
                        masked_all_zero &= grad[idx] == 0.0
                    else:
                        worst_rel = max(worst_rel, abs(grad[idx] - fd) / max(abs(fd), 1e-6))
    ok = worst_rel <= 1e-5 and masked_all_zero
    report(
        "criterion 2 (gradient oracle)",
        ok,
        f"worst unmasked rel err {worst_rel:.2e}, masked gradients all zero={masked_all_zero}, 20 nets",
        time.time() - t0,
        budget=10.0,
    )


def test_criterion_3_zero_variability_equivalence(moons_split, synthetic_model):
    t0 = time.time()
    train_set, _ = moons_split
    cfg = TrainingConfig(epochs=500, seed=0, sources=SourceToggles(False, False, False))
    hw = train_hardware_aware(cfg, train_set, model=synthetic_model)
    reg = train_regular(cfg, train_set)
    identical = all(
        a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()
        for a, b in zip(hw.layers, reg.layers)
    )
    report(
        "criterion 3 (zero-variability equivalence)",
        identical,
        "bitwise-identical parameters after 500 epochs",
        time.time() - t0,
        budget=60.0,
    )


def test_criterion_4_statistical_conformance():
    t0 = time.time()
    details = []
    ok = True

    # (a) stuck-mask frequency over >= 1e5 weights.
    x = y = 0.005
    model = zero_noise_model()
    phi = np.full((500, 200), 0.5)
    plan = TransferPlan([TileLayout.for_weight_matrix(500, 200)], model, x, y)
    mask = plan.apply([phi], plan.draw(1, np.random.default_rng(41)))[0].stuck_mask[0]
    p = 1.0 - (1.0 - (x + y)) ** 2
    se = np.sqrt(p * (1.0 - p) / mask.size)
    ok_a = abs(mask.mean() - p) < 3 * se
    details.append(f"(a) mask freq {mask.mean():.5f} vs {p:.5f} (3se={3 * se:.5f})")
    ok &= ok_a

    # (b) perturbation std matches f(g) * g / 100 within 2% over 1e5 draws.
    model_b = VariabilityModel(
        std_model=LinearStdModel(0.0, 1.0),
        offset_model=OffsetModel.zero(),
        bias_db=BiasDisturbanceDb.zero(),
        stuck_model=StuckModel(10.0, 100.0, (900.0,)),
    )
    g = np.full(100_000, 300.0)
    out = perturb_conductance(g, np.zeros_like(g, dtype=int), model_b, np.random.default_rng(42))
    ok_b = abs(out.std(ddof=1) - 3.0) / 3.0 < 0.02
    details.append(f"(b) sample std {out.std(ddof=1):.4f} vs 3.0")
    ok &= ok_b

    # (c) n_d = 0 draws are exactly zero.
    db = BiasDisturbanceDb({0: (5.0,), 3: (-4.0, 2.0)})
    rng = np.random.default_rng(43)
    vec = db.sample_matrix(np.zeros(100_000, dtype=int), rng)
    ok_c = bool(np.all(vec == 0.0))
    details.append(f"(c) zero-n_d draws all zero={ok_c}")
    ok &= ok_c

    # (d) HRS uniform support and moments over 1e5 draws.
    draws = model.stuck_model.sample_hrs(np.random.default_rng(44), size=100_000)
    bounds_ok = draws.min() >= 10.0 and draws.max() <= 100.0
    se_mean = (90.0 / np.sqrt(12.0)) / np.sqrt(draws.size)
    mean_ok = abs(draws.mean() - 55.0) < 3 * se_mean
    true_var = 90.0**2 / 12.0
    se_var = np.sqrt((90.0**4 * (1 / 80.0 - 1 / 144.0)) / draws.size)
    var_ok = abs(draws.var(ddof=1) - true_var) < 3 * se_var
    ok_d = bool(bounds_ok and mean_ok and var_ok)
    details.append(f"(d) HRS in [{draws.min():.1f},{draws.max():.1f}], mean {draws.mean():.2f}")
    ok &= ok_d

    report(
        "criterion 4 (statistical conformance)",
        ok,
        "; ".join(details),
        time.time() - t0,
        budget=30.0,
    )


def test_criterion_5_shapiro_wilk():
    t0 = time.time()
    w, _ = shapiro_wilk([1.0, 2.0, 3.0])
    exact_ok = w == 1.0
    cases = json.loads((FIXTURES / "shapiro_reference.json").read_text())
    worst = 0.0
    for case in cases:
        rng = np.random.default_rng(case["seed"])
        x = {
            "normal": rng.standard_normal,
            "uniform": lambda size: rng.uniform(size=size),
            "exponential": lambda size: rng.exponential(size=size),
        }[case["kind"]](case["n"])
        w, p = shapiro_wilk(x)
        worst = max(worst, abs(w - case["W"]), abs(p - case["p"]))
    ok = exact_ok and worst <= 1e-3
    report(
        "criterion 5 (Shapiro-Wilk)",
        ok,
        f"W({{1,2,3}})=1 exact={exact_ok}, max |delta| vs reference {worst:.2e} on 5 fixtures",
        time.time() - t0,
        budget=30.0,
    )


def test_criterion_6_fit_recovery():
    t0 = time.time()
    true = dict(slope=-0.002, intercept=1.4, mu_off=-0.5, sigma_off=0.5)
    k = 15 * 8  # groups per synthetic campaign
    se_mu = true["sigma_off"] / np.sqrt(k)
    se_sigma = true["sigma_off"] / np.sqrt(2 * (k - 1))
    worst_line, worst_off = 0.0, 0.0
    for seed in range(10):
        std_model, offset_model, _ = fit_tuning_model(synth_tuning_records(seed))
        worst_line = max(
            worst_line,
            abs(std_model.slope - true["slope"]) / abs(true["slope"]),
            abs(std_model.intercept - true["intercept"]) / true["intercept"],
        )
        worst_off = max(
            worst_off,
            abs(offset_model.mu_off - true["mu_off"]) / se_mu,
            abs(offset_model.sigma_off - true["sigma_off"]) / se_sigma,
        )
    ok = worst_line < 0.05 and worst_off < 3.0
    report(
        "criterion 6 (fit recovery)",
        ok,
        f"worst line rel err {worst_line:.3f} (<0.05), worst offset {worst_off:.2f} se (<3), 10 seeds",
        time.time() - t0,
        budget=60.0,
    )


def test_criterion_7_directional_reproduction(trained_hann, trained_regular, moons_split,
                                              synthetic_model):
    t0 = time.time()
    _, test_set = moons_split
    x = y = 0.005
    rep_h = evaluate_transfers(trained_hann, synthetic_model, LAYOUTS, x, y, test_set, 1000, seed=0)
    rep_r = evaluate_transfers(trained_regular, synthetic_model, LAYOUTS, x, y, test_set, 1000, seed=0)
    share_h = float(np.mean(rep_h.fractions >= 0.95))
    share_r = float(np.mean(rep_r.fractions >= 0.95))
    gap_pp = 100.0 * (share_h - share_r)
    _, curve_h = robustness_curve(rep_h)
    _, curve_r = robustness_curve(rep_r)
    thresholds = np.arange(201) / 200.0
    dominated = all(
        curve_h[np.where(thresholds == p)[0][0]] > curve_r[np.where(thresholds == p)[0][0]]
        for p in (0.80, 0.90, 0.95)
    )
    ok = gap_pp >= 15.0 and dominated
    report(
        "criterion 7 (directional end-to-end)",
        ok,
        f"share>=95%: HANN {100 * share_h:.1f}% vs NN {100 * share_r:.1f}% "
        f"(gap {gap_pp:.1f}pp, need >=15); curve dominates at 0.80/0.90/0.95={dominated}; "
        f"N=1000 transfers",
        time.time() - t0,
        budget=300.0,
    )


def test_criterion_8_heatmap_identity(synthetic_model):
    t0 = time.time()
    net = nn.DenseNet.init([2, 8, 1], np.random.default_rng(88))
    grid = GridSpec(nx=50, ny=50)
    hm = heatmap(net, synthetic_model, LAYOUTS, 0.005, 0.005, grid, repetitions=100, seed=8)
    identity_ok = np.array_equal(hm.std, np.sqrt(hm.mean * (1.0 - hm.mean)))
    hm_off = heatmap(net, zero_noise_model(), LAYOUTS, 0.0, 0.0, grid, repetitions=100, seed=8)
    off_ok = bool(np.all(hm_off.std == 0.0))
    ok = identity_ok and off_ok
    report(
        "criterion 8 (heatmap identity)",
        ok,
        f"std==sqrt(mean(1-mean)) exact={identity_ok}; variability-off std==0={off_ok}; "
        f"50x50 grid, M=100",
        time.time() - t0,
        budget=60.0,
    )


def test_criterion_9_determinism(tmp_path, synthetic_model):
    t0 = time.time()
    config = {
        "seed": 13,
        "epochs": 40,
        "batch_size": 64,
        "dataset": {"n_train": 150, "n_test": 50, "noise_std": 0.1},
        "transfers": 50,
        "heatmap": {"nx": 10, "ny": 10, "repetitions": 20},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_experiment(config_path, out1)
    run_experiment(config_path, out2)
    rel = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    artifacts_identical = all((out1 / r).read_bytes() == (out2 / r).read_bytes() for r in rel)

    net = nn.DenseNet.init([2, 8, 1], np.random.default_rng(99))
    test_set = make_half_moons(60, noise_std=0.1, seed=91)
    r1 = evaluate_transfers(net, synthetic_model, LAYOUTS, 0.005, 0.005, test_set, 200, seed=9,
                            workers=1)
    r4 = evaluate_transfers(net, synthetic_model, LAYOUTS, 0.005, 0.005, test_set, 200, seed=9,
                            workers=4)
    workers_identical = r1.counts.tobytes() == r4.counts.tobytes()
    ok = artifacts_identical and workers_identical
    report(
        "criterion 9 (determinism)",
        ok,
        f"{len(rel)} artifacts byte-identical across reruns={artifacts_identical}; "
        f"1 vs 4 workers identical={workers_identical}",
        time.time() - t0,
        budget=120.0,
    )
