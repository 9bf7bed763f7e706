import re

import numpy as np
import pytest

from xbartrain.transfer import (
    ConductanceRange,
    TileLayout,
    TransferNoise,
    TransferOutcome,
    TransferPlan,
    WeightRangeSnapshot,
    from_conductance,
    layer_to_crossbar,
    layouts_for_architecture,
    perturb_conductance,
    simulate_transfer,
    split_signed,
    to_conductance,
)
from xbartrain import nn
from xbartrain.variability import (
    BiasDisturbanceDb,
    LinearStdModel,
    OffsetModel,
    StuckModel,
    VariabilityModel,
)

from conftest import crossbars

RANGE = ConductanceRange()


def model_with(std=None, offset=None, bias=None, stuck=None):
    return VariabilityModel(
        std_model=std or LinearStdModel.zero(),
        offset_model=offset or OffsetModel.zero(),
        bias_db=bias or BiasDisturbanceDb.zero(),
        stuck_model=stuck or StuckModel(10.0, 100.0, (900.0,)),
    )


def symmetric_matrix(shape, seed):
    """Random matrix whose snapshot satisfies phi_min = -phi_max."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-1.0, 1.0, size=shape)
    phi.flat[0] = 1.0
    phi.flat[1] = -1.0
    return phi


class TestSplitSigned:
    def test_example(self):
        plus, minus = split_signed(np.array([-2.0, 0.0, 3.0]))
        assert np.array_equal(plus, [0.0, 0.0, 3.0])
        assert np.array_equal(minus, [2.0, 0.0, 0.0])

    def test_all_zero(self):
        plus, minus = split_signed(np.zeros((3, 4)))
        assert not plus.any() and not minus.any()

    def test_recombination_identity(self):
        for seed in range(20):
            phi = np.random.default_rng(seed).normal(size=(5, 7))
            plus, minus = split_signed(phi)
            assert np.all(plus >= 0) and np.all(minus >= 0)
            assert not np.any((plus > 0) & (minus > 0))
            assert np.array_equal(plus - minus, phi)


class TestSnapshots:
    def test_of_matrix(self):
        snap = WeightRangeSnapshot.of_matrix(np.array([[-2.0, 0.5]]))
        assert (snap.phi_min, snap.phi_max, snap.phi_absmax) == (-2.0, 0.5, 2.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            WeightRangeSnapshot.of_matrix(np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="^cannot snapshot a weight matrix with non-finite "
                                             "entries$"):
            WeightRangeSnapshot.of_matrix(np.array([[-1.0, np.inf]]))

    def test_inconsistent_construction_rejected(self):
        with pytest.raises(ValueError):
            WeightRangeSnapshot(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            WeightRangeSnapshot(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            WeightRangeSnapshot(0.0, 0.0, 0.0)


class TestConductanceMaps:
    def test_endpoints_and_midpoint(self):
        snap = WeightRangeSnapshot(-1.0, 1.0, 1.0)
        g = to_conductance(np.array([0.0, 0.5, 1.0]), snap, RANGE)
        assert np.allclose(g, [100.0, 250.0, 400.0], atol=1e-12)

    def test_negative_component_rejected(self):
        snap = WeightRangeSnapshot(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            to_conductance(np.array([-0.1]), snap, RANGE)

    def test_strictly_increasing(self):
        snap = WeightRangeSnapshot(-2.0, 2.0, 2.0)
        vals = np.sort(np.random.default_rng(0).uniform(0, 2, size=100))
        g = to_conductance(vals, snap, RANGE)
        assert np.all(np.diff(g) > 0)

    def test_from_conductance_hand_value(self):
        # delta_g = 150 uS with a symmetric [-1, 1] weight range -> 0.5.
        snap = WeightRangeSnapshot(-1.0, 1.0, 1.0)
        phi = from_conductance(np.array([250.0]), np.array([100.0]), snap, RANGE)
        assert phi[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_delta_symmetric_range(self):
        snap = WeightRangeSnapshot(-3.0, 3.0, 3.0)
        phi = from_conductance(np.array([220.0]), np.array([220.0]), snap, RANGE)
        assert phi[0] == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_rejected(self):
        snap = WeightRangeSnapshot(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            from_conductance(np.array([np.inf]), np.array([100.0]), snap, RANGE)

    def test_round_trip_symmetric_snapshot(self):
        phi = symmetric_matrix((6, 6), seed=1)
        snap = WeightRangeSnapshot.of_matrix(phi)
        plus, minus = split_signed(phi)
        back = from_conductance(
            to_conductance(plus, snap, RANGE), to_conductance(minus, snap, RANGE), snap, RANGE
        )
        assert np.max(np.abs(back - phi)) < 1e-12

    def test_asymmetric_snapshot_matches_closed_form(self):
        # The conversion pair composes to an affine map, not an identity,
        # whenever the snapshot is asymmetric; verify against the closed
        # form computed independently.
        rng = np.random.default_rng(2)
        phi = rng.uniform(0.2, 1.0, size=(4, 5))
        snap = WeightRangeSnapshot.of_matrix(phi)
        plus, minus = split_signed(phi)
        back = from_conductance(
            to_conductance(plus, snap, RANGE), to_conductance(minus, snap, RANGE), snap, RANGE
        )
        expected = (phi / snap.phi_absmax + 1.0) / 2.0 * (snap.phi_max - snap.phi_min) + snap.phi_min
        assert np.max(np.abs(back - expected)) < 1e-12


class TestTileLayout:
    @pytest.mark.parametrize("shape", [(3, 8), (9, 1), (8, 8), (20, 5), (1, 1), (5, 3), (16, 16)])
    def test_nd_is_a_permutation_per_tile(self, shape):
        layout = TileLayout.for_weight_matrix(*shape)
        n_rows, n_cols = shape
        grid = np.empty((n_rows, 2 * n_cols), dtype=int)
        grid[:, 0::2] = layout.nd_plus
        grid[:, 1::2] = layout.nd_minus
        for r0 in range(0, n_rows, 8):
            for c0 in range(0, 2 * n_cols, 8):
                tile = grid[r0 : r0 + 8, c0 : c0 + 8]
                assert sorted(tile.ravel().tolist()) == list(range(tile.size))
                # Bottom-right device of every tile is programmed last.
                assert tile[-1, -1] == 0

    def test_row_major_programming_order(self):
        layout = TileLayout.for_weight_matrix(2, 2)
        # Grid 2x4, one tile: order indices 0..7 top-to-bottom, left-to-right.
        assert np.array_equal(layout.nd_plus, [[7, 5], [3, 1]])
        assert np.array_equal(layout.nd_minus, [[6, 4], [2, 0]])

    def test_layouts_for_architecture(self):
        layouts = layouts_for_architecture([2, 8, 1])
        assert [l.weight_shape for l in layouts] == [(3, 8), (9, 1)]
        assert layouts[0].nd_plus.shape == (3, 8)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            TileLayout.for_weight_matrix(0, 4)
        with pytest.raises(ValueError):
            layouts_for_architecture([2])

    @pytest.mark.parametrize("tile", [(0, 8), (8, -1)])
    def test_non_positive_tile_rejected(self, tile):
        with pytest.raises(ValueError, match=re.escape(f"tile shape must be positive, got {tile}")):
            TileLayout.for_weight_matrix(3, 8, *tile)

    @pytest.mark.parametrize("plus, minus", [(np.s_[:], np.s_[:2]), (np.s_[0], np.s_[0])],
                             ids=["two-shapes", "one-dimensional"])
    def test_nd_matrices_of_two_shapes_or_not_2d_rejected(self, plus, minus):
        layout = TileLayout.for_weight_matrix(3, 8)
        nd_plus, nd_minus = layout.nd_plus[plus], layout.nd_minus[minus]
        with pytest.raises(ValueError, match=re.escape(
                f"must be 2-D and of one shape, got {nd_plus.shape} and {nd_minus.shape}")):
            TileLayout(nd_plus, nd_minus)


class TestPerturbConductance:
    def test_all_sources_zero_is_identity(self):
        model = model_with()
        g = np.linspace(100.0, 400.0, 64).reshape(8, 8)
        nd = np.arange(64).reshape(8, 8)
        out = perturb_conductance(g, nd, model, np.random.default_rng(0))
        assert np.array_equal(out, g)

    def test_tuning_noise_moment(self):
        # f == 1% at g=300 uS -> absolute std of 3 uS.
        model = model_with(std=LinearStdModel(0.0, 1.0))
        g = np.full(100_000, 300.0)
        out = perturb_conductance(g, np.zeros_like(g, dtype=int), model, np.random.default_rng(1))
        assert out.std(ddof=1) == pytest.approx(3.0, rel=0.02)

    def test_zero_nd_and_zero_tuning_pass_through(self):
        model = model_with(bias=BiasDisturbanceDb({5: (-30.0,)}))
        g = np.full((4, 4), 250.0)
        out = perturb_conductance(g, np.zeros((4, 4), dtype=int), model, np.random.default_rng(2))
        assert np.array_equal(out, g)

    def test_offset_shifts_mean(self):
        model = model_with(offset=OffsetModel(-2.0, 0.0))
        g = np.full(1000, 200.0)
        out = perturb_conductance(g, np.zeros(1000, dtype=int), model, np.random.default_rng(3))
        assert np.allclose(out, 196.0, atol=1e-9)

    def test_clamped_at_zero(self):
        model = model_with(std=LinearStdModel(0.0, 200.0))  # enormous noise
        g = np.full(20_000, 100.0)
        out = perturb_conductance(g, np.zeros_like(g, dtype=int), model, np.random.default_rng(4))
        assert out.min() >= 0.0

    def test_out_of_window_target_rejected(self):
        model = model_with()
        with pytest.raises(ValueError, match="within"):
            perturb_conductance(
                np.array([450.0]), np.array([0]), model, np.random.default_rng(0)
            )

    def test_shape_mismatch_rejected(self):
        model = model_with()
        with pytest.raises(ValueError, match="shape"):
            perturb_conductance(
                np.full((2, 2), 200.0), np.zeros(4, dtype=int), model, np.random.default_rng(0)
            )

    def test_non_finite_model_rejected_before_sampling(self):
        with pytest.raises(ValueError, match=r"^std_model\.slope must be finite, got nan$"):
            model = model_with(std=LinearStdModel(np.nan, 1.0))
            perturb_conductance(np.full(4, 200.0), np.zeros(4, dtype=int), model,
                                np.random.default_rng(0))


class TestApplyStuck:
    """Stuck substitution, seen through one plan draw of one matrix."""

    @staticmethod
    def transfer(shape, model, x, y, seed):
        phi = symmetric_matrix(shape, seed=0)
        plan = TransferPlan([TileLayout.for_weight_matrix(*shape)], model, x, y)
        (outcome,) = plan.apply([phi], plan.draw(1, np.random.default_rng(seed)))
        return phi, outcome.phi_prime[0], outcome.stuck_mask[0]

    def test_identity_when_disabled(self):
        phi, phi_prime, mask = self.transfer((10, 10), model_with(), 0.0, 0.0, seed=0)
        snap = WeightRangeSnapshot.of_matrix(phi)
        plus, minus = split_signed(phi)
        unstuck = from_conductance(
            to_conductance(plus, snap, RANGE), to_conductance(minus, snap, RANGE), snap, RANGE
        )
        assert np.array_equal(phi_prime, unstuck)
        assert not mask.any()

    def test_certain_hrs(self):
        phi, phi_prime, mask = self.transfer((20, 20), model_with(), 1.0, 0.0, seed=1)
        snap = WeightRangeSnapshot.of_matrix(phi)
        assert mask.all()
        # Both components lie in [10, 100] uS, so their difference in [-90, 90].
        assert phi_prime.min() >= from_conductance(10.0, 100.0, snap, RANGE)
        assert phi_prime.max() <= from_conductance(100.0, 10.0, snap, RANGE)

    def test_certain_lrs_uses_lrs_list(self):
        lrs = (800.0, 1100.0)
        model = model_with(stuck=StuckModel(10.0, 100.0, lrs))
        phi, phi_prime, mask = self.transfer((20, 20), model, 0.0, 1.0, seed=2)
        snap = WeightRangeSnapshot.of_matrix(phi)
        assert mask.all()
        image = [from_conductance(gp, gm, snap, RANGE) for gp in lrs for gm in lrs]
        assert np.isin(phi_prime, image).all()

    def test_mask_frequency_matches_binomial(self):
        x = y = 0.005
        _, _, mask = self.transfer((400, 250), model_with(), x, y, seed=3)  # 1e5 weights
        p = 1.0 - (1.0 - (x + y)) ** 2
        se = np.sqrt(p * (1 - p) / mask.size)
        assert abs(mask.mean() - p) < 3 * se

    def test_invalid_fractions(self):
        model = model_with()
        layouts = [TileLayout.for_weight_matrix(2, 2)]
        with pytest.raises(ValueError):
            TransferPlan(layouts, model, 0.7, 0.4)
        with pytest.raises(ValueError):
            TransferPlan(layouts, model, -0.1, 0.0)
        for x, y in ((np.nan, 0.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="stuck fractions"):
                TransferPlan(layouts, model, x, y)


class TestSimulateTransfer:
    def test_zero_noise_round_trip(self, zero_model):
        phi = symmetric_matrix((3, 8), seed=5)
        layout = TileLayout.for_weight_matrix(3, 8)
        out = simulate_transfer(phi, layout, zero_model, 0.0, 0.0, np.random.default_rng(0))
        assert np.max(np.abs(out.phi_prime - phi)) < 1e-12
        assert not out.stuck_mask.any()

    def test_all_stuck_limiting_case(self, zero_model):
        phi = symmetric_matrix((3, 8), seed=6)
        layout = TileLayout.for_weight_matrix(3, 8)
        out = simulate_transfer(phi, layout, zero_model, 1.0, 0.0, np.random.default_rng(1))
        assert out.stuck_mask.all()
        # Both components drawn from [10, 100] uS: delta_g in [-90, 90], so
        # phi' is confined to the affine image of that interval.
        snap_lo = (-90.0 + 300.0) / 600.0 * 2.0 - 1.0
        snap_hi = (90.0 + 300.0) / 600.0 * 2.0 - 1.0
        snap = WeightRangeSnapshot.of_matrix(phi)
        lo = snap_lo * (snap.phi_max - snap.phi_min) / 2.0 + (snap.phi_max + snap.phi_min) / 2.0
        hi = snap_hi * (snap.phi_max - snap.phi_min) / 2.0 + (snap.phi_max + snap.phi_min) / 2.0
        assert out.phi_prime.min() >= lo - 1e-9 and out.phi_prime.max() <= hi + 1e-9

    def test_fixed_seed_is_bit_identical(self, synthetic_model):
        phi = symmetric_matrix((9, 1), seed=7)
        layout = TileLayout.for_weight_matrix(9, 1)
        a = simulate_transfer(phi, layout, synthetic_model, 0.005, 0.005, np.random.default_rng(9))
        b = simulate_transfer(phi, layout, synthetic_model, 0.005, 0.005, np.random.default_rng(9))
        assert a.phi_prime.tobytes() == b.phi_prime.tobytes()
        assert np.array_equal(a.stuck_mask, b.stuck_mask)

    def test_outcome_shapes_must_agree(self):
        with pytest.raises(ValueError, match=re.escape(
                "shape mismatch: phi_prime (3, 8) vs mask (2, 8)")):
            TransferOutcome(np.zeros((3, 8)), np.zeros((2, 8), dtype=bool),
                            WeightRangeSnapshot(-1.0, 1.0, 1.0))

    def test_shape_and_zero_matrix_errors(self, zero_model):
        layout = TileLayout.for_weight_matrix(3, 8)
        with pytest.raises(ValueError, match="shape"):
            simulate_transfer(np.ones((2, 2)), layout, zero_model, 0.0, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="zero"):
            simulate_transfer(np.zeros((3, 8)), layout, zero_model, 0.0, 0.0, np.random.default_rng(0))

    def test_non_finite_inputs_rejected(self, zero_model):
        layout = TileLayout.for_weight_matrix(3, 8)
        phi = symmetric_matrix((3, 8), seed=9)
        phi[1, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            simulate_transfer(phi, layout, zero_model, 0.0, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="stuck_model"):
            model = model_with(stuck=StuckModel(10.0, 100.0, (np.nan,)))
            simulate_transfer(symmetric_matrix((3, 8), seed=9), layout, model, 0.0, 1.0,
                              np.random.default_rng(0))

    def test_stuck_values_exempt_from_noise(self):
        # With certain LRS substitution and a single-value LRS list, the
        # final conductances are exactly the substituted values even though
        # tuning noise is enabled.
        model = model_with(std=LinearStdModel(0.0, 5.0), stuck=StuckModel(10.0, 100.0, (900.0,)))
        phi = symmetric_matrix((3, 8), seed=8)
        layout = TileLayout.for_weight_matrix(3, 8)
        out = simulate_transfer(phi, layout, model, 0.0, 1.0, np.random.default_rng(3))
        snap = WeightRangeSnapshot.of_matrix(phi)
        expected = from_conductance(
            np.full(phi.shape, 900.0), np.full(phi.shape, 900.0), snap, ConductanceRange()
        )
        assert np.allclose(out.phi_prime, expected, atol=1e-12)


class CountingStuckModel(StuckModel):
    """A stuck model that records which sampler each call went to."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "calls", [])

    def sample_hrs(self, rng, size=None):
        self.calls.append("hrs")
        return super().sample_hrs(rng, size)

    def sample_lrs(self, rng, size=None):
        self.calls.append("lrs")
        return super().sample_lrs(rng, size)


class TestTransferPlan:
    LAYOUT = TileLayout.for_weight_matrix(3, 8)

    @pytest.mark.parametrize("x, y, kind", [(0.2, 0.0, "hrs"), (0.0, 0.2, "lrs")])
    def test_one_kind_of_stuck_device_calls_one_sampler(self, x, y, kind):
        stuck = CountingStuckModel(10.0, 100.0, (500.0, 900.0))
        plan = TransferPlan(layouts_for_architecture([2, 8, 1]), model_with(stuck=stuck), x, y)
        rng = np.random.default_rng(20)
        draws = [plan.draw(1, rng) for _ in range(10)]
        assert sum(noise.stuck.sum() for noise in draws) > 0
        assert stuck.calls and set(stuck.calls) == {kind}

    def test_single_draw_matches_simulate_transfer_stream(self, synthetic_model):
        phi = np.random.default_rng(12).normal(size=(3, 8))
        plan = TransferPlan([self.LAYOUT], synthetic_model, 0.2, 0.3)
        rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(20):
            (a,) = plan.apply([phi], plan.draw(1, rng_a))
            b = simulate_transfer(phi, self.LAYOUT, synthetic_model, 0.2, 0.3, rng_b)
            assert a.phi_prime.shape == (1, 3, 8)
            assert a.phi_prime[0].tobytes() == b.phi_prime.tobytes()
            assert np.array_equal(a.stuck_mask[0], b.stuck_mask)
        assert rng_a.random() == rng_b.random()

    def test_zero_noise_rows_equal_deterministic_conversion(self, zero_model):
        phi = np.random.default_rng(14).normal(size=(3, 8))
        plan = TransferPlan([self.LAYOUT], zero_model, 0.0, 0.0)
        (out,) = plan.apply([phi], plan.draw(40, np.random.default_rng(0)))
        snap = WeightRangeSnapshot.of_matrix(phi)
        plus, minus = split_signed(phi)
        expected = from_conductance(
            to_conductance(plus, snap, RANGE), to_conductance(minus, snap, RANGE), snap, RANGE
        )
        assert out.phi_prime.shape == (40, 3, 8)
        for row in out.phi_prime:
            assert np.array_equal(row, expected)
        assert not out.stuck_mask.any()

    def test_all_hrs_rows(self, synthetic_model):
        phi = symmetric_matrix((3, 8), seed=15)
        plan = TransferPlan([self.LAYOUT], synthetic_model, 1.0, 0.0)
        (out,) = plan.apply([phi], plan.draw(50, np.random.default_rng(1)))
        assert out.stuck_mask.all()
        # Both components are HRS draws in [10, 100] uS, so delta_g lies in
        # [-90, 90] and phi' in its affine image (phi_min = -phi_max here).
        snap = WeightRangeSnapshot.of_matrix(phi)
        bound = 90.0 / 300.0 * snap.phi_max
        assert np.abs(out.phi_prime).max() <= bound + 1e-9

    def test_stuck_mask_frequency_matches_binomial(self, synthetic_model):
        x = y = 0.005
        phi = np.random.default_rng(16).normal(size=(3, 8))
        plan = TransferPlan([self.LAYOUT], synthetic_model, x, y)
        (out,) = plan.apply([phi], plan.draw(2000, np.random.default_rng(17)))
        p = 1.0 - (1.0 - (x + y)) ** 2
        se = np.sqrt(p * (1 - p) / out.stuck_mask.size)
        assert abs(out.stuck_mask.mean() - p) < 3 * se

    def test_sample_shapes_per_layer(self, synthetic_model):
        net = nn.DenseNet.init([2, 8, 1], np.random.default_rng(18))
        plan = TransferPlan(layouts_for_architecture([2, 8, 1]), synthetic_model, 0.005, 0.005)
        outcomes = plan.apply(crossbars(net), plan.draw(5, np.random.default_rng(19)))
        assert [o.phi_prime.shape for o in outcomes] == [(5, 3, 8), (5, 9, 1)]
        assert [o.stuck_mask.shape for o in outcomes] == [(5, 3, 8), (5, 9, 1)]

    @staticmethod
    def assert_layers_transfer_alone(plan, net, n, seed):
        """A draw of every layout is the draws of one-layout plans made one
        after the other on the same generator, and the transfer of every
        layer at once is, bit for bit, each layer's matrix transferred
        alone with its own draws; returns those one-layout draws.  Every
        draw's stuck values are exactly 0 wherever no device is stuck."""
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        joint = plan.draw(n, rng_a)
        outcomes = plan.apply(crossbars(net), joint)
        plans = [TransferPlan([layout], plan.model, plan.x, plan.y) for layout in plan.layouts]
        noises = [alone.draw(n, rng_b) for alone in plans]
        assert rng_a.random() == rng_b.random()
        for each in (joint, *noises):
            assert np.all(each.stuck_values[~each.stuck] == 0.0)
        for alone, noise, layer, outcome in zip(plans, noises, net.layers, outcomes):
            crossbar = layer_to_crossbar(layer.weights, layer.bias)
            (b,) = alone.apply([crossbar], noise)
            assert outcome.phi_prime.tobytes() == b.phi_prime.tobytes()
            assert outcome.stuck_mask.tobytes() == b.stuck_mask.tobytes()
            assert outcome.snapshot == b.snapshot == WeightRangeSnapshot.of_matrix(crossbar)
        return noises

    @pytest.mark.parametrize("arch, tile", [([2, 8, 1], 8), ([2, 5, 3, 1], 8), ([2, 16, 1], 4)])
    @pytest.mark.parametrize("n", [1, 32])
    def test_layers_transfer_alone(self, synthetic_model, n, arch, tile):
        net = nn.DenseNet.init(arch, np.random.default_rng(20))
        plan = TransferPlan(layouts_for_architecture(arch, tile, tile), synthetic_model, 0.05,
                            0.05)
        noises = self.assert_layers_transfer_alone(plan, net, n, 21)
        assert all(noise.stuck.any() for noise in noises)

    @pytest.mark.parametrize("arch", [[2, 8, 1], [2, 5, 3, 1]])
    @pytest.mark.parametrize("n", [1, 32])
    def test_device_views_are_the_outcomes(self, synthetic_model, n, arch):
        # The device vector is the net's parameters in crossbar order, and
        # each layout's view of apply_devices' result is apply's outcome.
        net = nn.DenseNet.init(arch, np.random.default_rng(26))
        plan = TransferPlan(layouts_for_architecture(arch), synthetic_model, 0.05, 0.05)
        noise = plan.draw(n, np.random.default_rng(27))
        phi = plan.devices(crossbars(net))
        assert np.array_equal(phi, nn.flatten((l.weights, l.bias) for l in net.layers))
        phi_prime, stuck, ranges = plan.apply_devices(phi, noise)
        outcomes = plan.apply(crossbars(net), noise)
        views = zip(plan.layouts, plan.matrices(phi_prime), plan.matrices(stuck), ranges.T,
                    outcomes)
        for layout, view, mask, snapshot, outcome in views:
            assert view.shape == outcome.phi_prime.shape == (n, *layout.weight_shape)
            assert view.tobytes() == outcome.phi_prime.tobytes()
            assert mask.tobytes() == outcome.stuck_mask.tobytes()
            assert WeightRangeSnapshot(*snapshot) == outcome.snapshot

    @pytest.mark.parametrize("x, seed, clean", [(0.01, 0, [False, True]),
                                                (0.01, 1, [True, False]),
                                                (0.0, 23, [True, True])])
    def test_layers_with_no_stuck_device_transfer_alone(self, synthetic_model, x, seed, clean):
        net = nn.DenseNet.init([2, 8, 1], np.random.default_rng(22))
        plan = TransferPlan(layouts_for_architecture([2, 8, 1]), synthetic_model, x, x)
        noises = self.assert_layers_transfer_alone(plan, net, 1, seed)
        assert [not noise.stuck.any() for noise in noises] == clean

    def test_device_apply_rejects_a_layer_it_cannot_snapshot(self, zero_model):
        plan = TransferPlan(layouts_for_architecture([2, 8, 1]), zero_model, 0.0, 0.0)
        noise = plan.draw(1, np.random.default_rng(0))
        phi = np.ones(33)
        phi[24:] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            plan.apply_devices(phi, noise)
        phi[24] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            plan.apply_devices(phi, noise)
        with pytest.raises(ValueError, match="devices"):
            plan.apply_devices(np.ones(32), noise)

    def test_concatenated_draws_apply_as_each_alone(self, synthetic_model):
        # One stream with stuck devices, one without (x = y = 0), one with:
        # the apply of the stacked draws is each stream's apply, bit for bit.
        phi = np.random.default_rng(25).normal(size=(3, 8))
        plans = [TransferPlan([self.LAYOUT], synthetic_model, x, x) for x in (0.2, 0.0, 0.1)]
        noises = [plan.draw(n, np.random.default_rng(26 + n))
                  for plan, n in zip(plans, (2, 3, 1))]
        assert [not noise.stuck.any() for noise in noises] == [False, True, False]
        (stacked,) = plans[0].apply([phi], TransferNoise.concatenate(noises))
        alone = [plans[0].apply([phi], noise)[0] for noise in noises]
        assert stacked.phi_prime.tobytes() == np.concatenate(
            [o.phi_prime for o in alone]).tobytes()
        assert np.array_equal(stacked.stuck_mask, np.concatenate([o.stuck_mask for o in alone]))
        assert TransferNoise.concatenate(noises[1:2]) is noises[1]

    def test_concatenated_single_draws_slice_back_to_each_draw(self, synthetic_model):
        # The noise producer's split: k one-transfer draws, stacked, and each
        # field sliced at [:, t:t + 1] give back draw t bit for bit.
        plan = TransferPlan(layouts_for_architecture([2, 8, 1]), synthetic_model, 0.1, 0.1)
        rng = np.random.default_rng(27)
        draws = [plan.draw(1, rng) for _ in range(5)]
        block = TransferNoise.concatenate(draws)
        assert [field.shape for field in block] == [(2, 5, 33)] * len(TransferNoise._fields)
        for t, draw in enumerate(draws):
            sliced = TransferNoise(*(field[:, t:t + 1] for field in block))
            for got, want in zip(sliced, draw):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()

    def test_draws_do_not_depend_on_weights(self, synthetic_model):
        plan = TransferPlan([self.LAYOUT], synthetic_model, 0.1, 0.1)
        masks = [
            plan.apply([np.random.default_rng(seed).normal(size=(3, 8))],
                       plan.draw(4, np.random.default_rng(22)))[0].stuck_mask
            for seed in (23, 24)
        ]
        assert masks[0].any() and np.array_equal(masks[0], masks[1])

    def test_invalid_inputs(self, zero_model):
        with pytest.raises(ValueError):
            TransferPlan([self.LAYOUT], zero_model, 0.7, 0.4)
        plan = TransferPlan([self.LAYOUT], zero_model, 0.0, 0.0)
        with pytest.raises(ValueError, match="shape"):
            plan.apply([np.ones((9, 1))], plan.draw(2, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="layouts"):
            plan.apply(crossbars(nn.DenseNet.init([2, 8, 1], np.random.default_rng(0))),
                       plan.draw(2, np.random.default_rng(0)))


class TestLayerCrossbarRoundTrip:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(8, 2))
        b = rng.normal(size=8)
        aug = layer_to_crossbar(w, b)
        assert aug.shape == (3, 8)
        assert np.array_equal(aug[:-1].T, w) and np.array_equal(aug[-1], b)
