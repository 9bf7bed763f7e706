import json
import re
from pathlib import Path

import numpy as np
import pytest

from xbartrain.variability import (
    BIAS_DISTURBANCE_CAP_US,
    BiasDisturbanceDb,
    ConductanceRange,
    LinearStdModel,
    ModelFormatError,
    OffsetModel,
    StuckModel,
    TuningRecord,
    VariabilityModel,
    build_bias_db,
    fit_tuning_model,
    load_model,
    make_synthetic_model,
    read_bias_csv,
    read_stuck_csv,
    read_tuning_csv,
    save_model,
    shapiro_wilk,
)

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Shapiro-Wilk
# ---------------------------------------------------------------------------


class TestShapiroWilk:
    def test_arithmetic_sequence_gives_w_one(self):
        # {1,2,3} is exactly proportional to the n=3 coefficient vector.
        w, p = shapiro_wilk([1.0, 2.0, 3.0])
        assert w == 1.0
        assert p == 1.0

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValueError):
            shapiro_wilk([5.0, 5.0, 5.0, 5.0])
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, np.nan, 2.0, 3.0])
        with pytest.raises(ValueError):
            shapiro_wilk(np.arange(5001, dtype=float))

    def _regen(self, case):
        rng = np.random.default_rng(case["seed"])
        draw = {
            "normal": rng.standard_normal,
            "uniform": lambda size: rng.uniform(size=size),
            "exponential": lambda size: rng.exponential(size=size),
        }[case["kind"]]
        return draw(case["n"])

    def test_matches_reference_implementation_fixtures(self):
        # Oracle values computed once from an independent statistics
        # implementation (tools/gen_shapiro_fixtures.py) and frozen.
        cases = json.loads((FIXTURES / "shapiro_reference.json").read_text())
        assert len(cases) == 5
        for case in cases:
            w, p = shapiro_wilk(self._regen(case))
            assert w == pytest.approx(case["W"], abs=1e-3)
            assert p == pytest.approx(case["p"], abs=1e-3)

    def test_uniform_sample_rejected(self):
        x = np.random.default_rng(14).uniform(size=200)
        _, p = shapiro_wilk(x)
        assert p < 0.05

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64)
        w1, p1 = shapiro_wilk(x)
        w2, p2 = shapiro_wilk(rng.permutation(x))
        assert (w1, p1) == (w2, p2)

    def test_scale_location_invariance(self):
        x = np.random.default_rng(6).standard_normal(40)
        w, _ = shapiro_wilk(x)
        for scale, shift in [(3.0, 0.0), (1.0, -7.5), (0.25, 100.0), (-2.0, 1.0)]:
            w2, _ = shapiro_wilk(scale * x + shift)
            assert w2 == pytest.approx(w, abs=1e-12)


# ---------------------------------------------------------------------------
# Tuning-model fitting
# ---------------------------------------------------------------------------


def _record(device, target, std_pct, off_pct, base=(-1.0, 0.0, 1.0)):
    # Sample std (ddof=1) of `base` is exactly 1 and its mean exactly 0, so
    # the group statistics land exactly on (std_pct, off_pct).
    reads = [target * (1 + off_pct / 100) + target * std_pct / 100 * v for v in base]
    return TuningRecord(device_id=device, g_target=target, reads=tuple(reads))


class TestFitTuningModel:
    def test_single_group_point_reproduces_reference_values(self):
        records = [_record("d0", 125.0, 0.57, -0.424), _record("d1", 300.0, 0.8, -0.3)]
        _, _, groups = fit_tuning_model(records)
        g125 = [g for g in groups if g.g_target == 125.0][0]
        assert g125.std_percent == pytest.approx(0.57, abs=1e-9)
        assert g125.offset_percent == pytest.approx(-0.424, abs=1e-9)

    def test_constant_std_gives_flat_line(self):
        records = [_record("d0", 100.0, 1.0, 0.0), _record("d1", 400.0, 1.0, 0.0)]
        std_model, offset_model, _ = fit_tuning_model(records)
        assert std_model.slope == pytest.approx(0.0, abs=1e-12)
        assert std_model.intercept == pytest.approx(1.0, abs=1e-9)
        assert offset_model.mu_off == pytest.approx(0.0, abs=1e-12)

    def test_three_point_least_squares(self):
        # Hand least-squares through (100, 1.2), (250, 0.9), (400, 0.6).
        records = [
            _record("d0", 100.0, 1.2, 0.0),
            _record("d1", 250.0, 0.9, 0.0),
            _record("d2", 400.0, 0.6, 0.0),
        ]
        std_model, _, _ = fit_tuning_model(records)
        assert std_model.slope == pytest.approx(-0.002, abs=1e-9)
        assert std_model.intercept == pytest.approx(1.4, abs=1e-6)

    def test_underdetermined_targets_raise(self):
        records = [_record("d0", 125.0, 0.5, 0.0), _record("d1", 125.0, 0.7, 0.0)]
        with pytest.raises(ValueError, match="distinct"):
            fit_tuning_model(records)
        with pytest.raises(ValueError):
            fit_tuning_model([])

    def test_single_read_group_raises(self):
        records = [
            TuningRecord("d0", 100.0, (99.0,)),
            _record("d1", 300.0, 1.0, 0.0),
        ]
        with pytest.raises(ValueError, match="read"):
            fit_tuning_model(records)

    def test_diagnostics_carry_shapiro_p(self):
        rng = np.random.default_rng(0)
        records = [
            TuningRecord("d0", 100.0, tuple(rng.normal(100, 1, size=40))),
            TuningRecord("d0", 200.0, tuple(rng.normal(199, 2, size=40))),
            TuningRecord("d1", 200.0, (199.0, 201.0)),  # too small for the test
        ]
        _, _, groups = fit_tuning_model(records)
        by_key = {(g.device_id, g.g_target): g for g in groups}
        assert by_key[("d0", 100.0)].shapiro_p is not None
        assert 0.0 <= by_key[("d0", 100.0)].shapiro_p <= 1.0
        assert by_key[("d1", 200.0)].shapiro_p is None
        assert sum(g.shapiro_p is not None for g in groups) == 2

    def test_reads_pooled_across_repetitions(self):
        # Two repetitions of the same (device, target) form one group.
        r1 = TuningRecord("d0", 100.0, (99.0, 100.0))
        r2 = TuningRecord("d0", 100.0, (101.0, 100.0))
        records = [r1, r2, _record("d1", 300.0, 1.0, 0.0)]
        _, _, groups = fit_tuning_model(records)
        g = [g for g in groups if g.device_id == "d0"][0]
        assert g.n_reads == 4

    def test_statistical_recovery_single_seed(self):
        # Full 10-seed version runs in the acceptance suite.
        slope, intercept = recover_line(seed=0)
        assert slope == pytest.approx(-0.002, rel=0.05)
        assert intercept == pytest.approx(1.4, rel=0.05)


def synth_tuning_records(seed, slope=-0.002, intercept=1.4, mu_off=-0.5, sigma_off=0.5,
                         n_devices=15, n_levels=8, reads_per_group=400):
    rng = np.random.default_rng(seed)
    levels = np.linspace(100.0, 400.0, n_levels)
    records = []
    for d in range(n_devices):
        for g in levels:
            offset = rng.normal(mu_off, sigma_off)
            sigma_abs = max(slope * g + intercept, 0.0) * g / 100.0
            reads = rng.normal(g * (1 + offset / 100.0), sigma_abs, size=reads_per_group)
            records.append(TuningRecord(f"dev{d}", float(g), tuple(reads)))
    return records


def recover_line(seed):
    std_model, _, _ = fit_tuning_model(synth_tuning_records(seed))
    return std_model.slope, std_model.intercept


# ---------------------------------------------------------------------------
# Bias-disturbance database
# ---------------------------------------------------------------------------


class TestBiasDb:
    def test_cap_filtering_and_grouping(self):
        db = build_bias_db([(1, -2.0), (1, 70.0), (10, -5.0)])
        assert db.groups == {1: (-2.0,), 10: (-5.0,)}

    def test_cap_is_inclusive(self):
        db = build_bias_db([(2, 60.0), (2, -60.0), (2, 60.0001)])
        assert db.groups == {2: (60.0, -60.0)}

    def test_empty_and_fully_filtered_raise(self):
        with pytest.raises(ValueError):
            build_bias_db([])
        with pytest.raises(ValueError):
            build_bias_db([(1, 80.0), (2, -75.0)])

    def test_zero_group_allowed(self):
        db = build_bias_db([(0, 0.0)])
        assert db.groups == {0: (0.0,)}

    def test_invalid_records_raise(self):
        with pytest.raises(ValueError):
            build_bias_db([(-1, 2.0)])
        with pytest.raises(ValueError):
            BiasDisturbanceDb({1: ()})
        with pytest.raises(ValueError):
            BiasDisturbanceDb({1: (BIAS_DISTURBANCE_CAP_US + 1,)})
        with pytest.raises(ValueError, match="n_d=1 is not finite"):
            BiasDisturbanceDb({1: (np.nan, 1.0)})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_is_named(self, value):
        # Beside a valid record, so that no empty database hides it.
        with pytest.raises(ValueError, match=rf"^disturbance record \(n_d=1, "
                                             rf"delta_g={value}\) is not finite$"):
            build_bias_db([(1, value), (1, 2.0)])

    def test_last_device_sees_no_disturbance(self):
        db = build_bias_db([(0, 3.0), (1, -4.0)])
        rng = np.random.default_rng(0)
        assert np.all(db.sample_matrix(np.zeros(100, dtype=int), rng) == 0.0)

    def test_singleton_draw(self):
        db = BiasDisturbanceDb({1: (-3.0,)})
        assert db.sample_matrix(np.array([1]), np.random.default_rng(0))[0] == -3.0

    def test_nearest_group_fallback(self):
        db = BiasDisturbanceDb({1: (-3.0,)})
        assert db.sample_matrix(np.array([7]), np.random.default_rng(0))[0] == -3.0
        tie = BiasDisturbanceDb({1: (10.0,), 3: (20.0,)})
        # n_d=2 is equidistant; ties resolve toward the smaller key.
        draws = tie.sample_matrix(np.array([2, 5]), np.random.default_rng(0))
        assert np.array_equal(draws, [10.0, 20.0])

    def test_negative_n_d_raises(self):
        db = BiasDisturbanceDb({1: (0.0,)})
        with pytest.raises(ValueError):
            db.sample_matrix(np.array([-1]), np.random.default_rng(0))

    def test_matrix_sampling_matches_groups(self):
        db = BiasDisturbanceDb({1: (-1.0, -2.0), 5: (4.0,)})
        rng = np.random.default_rng(3)
        nd = np.array([[0, 1], [5, 9]])
        out = db.sample_matrix(nd, rng)
        assert out[0, 0] == 0.0
        assert out[0, 1] in (-1.0, -2.0)
        assert out[1, 0] == 4.0
        assert out[1, 1] == 4.0  # nearest populated key to 9 is 5

    def test_matrix_draws_cover_group_uniformly(self):
        db = BiasDisturbanceDb({2: (1.0, 2.0, 3.0, 4.0)})
        rng = np.random.default_rng(11)
        out = db.sample_matrix(np.full(40000, 2), rng)
        for v in (1.0, 2.0, 3.0, 4.0):
            assert np.mean(out == v) == pytest.approx(0.25, abs=0.02)


# ---------------------------------------------------------------------------
# Stuck-device samplers
# ---------------------------------------------------------------------------


class TestStuckSamplers:
    def test_hrs_uniform_bounds_and_mean(self):
        model = StuckModel(lrs_samples=(900.0,))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        # TransferPlan.draw makes empty draws; they must consume no bits.
        assert model.sample_hrs(rng, size=0).shape == (0,)
        assert rng.bit_generator.state == state
        draws = model.sample_hrs(rng, size=100_000)
        assert draws.min() >= 10.0 and draws.max() <= 100.0
        se_mean = (90.0 / np.sqrt(12.0)) / np.sqrt(draws.size)
        assert abs(draws.mean() - 55.0) < 3 * se_mean

    def test_lrs_singleton_is_constant(self):
        model = StuckModel(lrs_samples=(900.0,))
        draws = model.sample_lrs(np.random.default_rng(1), size=1000)
        assert np.all(draws == 900.0)

    def test_lrs_two_values_resampled_evenly(self):
        model = StuckModel(lrs_samples=(500.0, 1000.0))
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        # TransferPlan.draw makes empty draws; they must consume no bits.
        assert model.sample_lrs(rng, size=0).shape == (0,)
        assert rng.bit_generator.state == state
        draws = model.sample_lrs(rng, size=100_000)
        assert np.mean(draws == 500.0) == pytest.approx(0.5, abs=0.01)
        assert np.mean(draws == 1000.0) == pytest.approx(0.5, abs=0.01)

    def test_invalid_stuck_model(self):
        with pytest.raises(ValueError):
            StuckModel(100.0, 10.0, (900.0,))
        with pytest.raises(ValueError):
            StuckModel(10.0, 100.0, ())


# ---------------------------------------------------------------------------
# Model bundle + persistence
# ---------------------------------------------------------------------------


class TestModelPersistence:
    def test_round_trip_is_identity(self, synthetic_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(synthetic_model, path)
        assert load_model(path) == synthetic_model

    def test_missing_section_is_named(self, synthetic_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(synthetic_model, path)
        doc = json.loads(path.read_text())
        del doc["bias_db"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="bias_db"):
            load_model(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"range": {"g_min": 100,\n  BAD\n}')
        with pytest.raises(ModelFormatError, match="line 2"):
            load_model(path)

    def test_bad_field_is_named(self, synthetic_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(synthetic_model, path)
        doc = json.loads(path.read_text())
        doc["std_model"]["slope"] = "fast"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="slope"):
            load_model(path)

    @pytest.mark.parametrize("section, key, value, field", [
        ("stuck_model", "lrs_samples", [float("nan")], "stuck_model.lrs_samples[0]"),
        ("std_model", "slope", float("nan"), "std_model.slope"),
        ("offset_model", "mu_off", float("inf"), "offset_model.mu_off"),
        ("stuck_model", "hrs_high", float("inf"), "stuck_model.hrs_high"),
    ])
    def test_non_finite_value_is_named(self, synthetic_model, tmp_path, section, key, value, field):
        path = tmp_path / "model.json"
        save_model(synthetic_model, path)
        doc = json.loads(path.read_text())
        doc[section][key] = value
        path.write_text(json.dumps(doc))  # writes NaN / Infinity
        with pytest.raises(ModelFormatError, match=re.escape(field)):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["bias_db"].__setitem__("01", [1.0]), "bias_db: n_d key '01'"),
        (lambda doc: doc["bias_db"].__setitem__("x", [1.0]), "bias_db: n_d key 'x'"),
        (lambda doc: doc["bias_db"].__setitem__("2", "1.5"), "bias_db: 2: expected a list"),
        (lambda doc: doc["bias_db"]["1"].__setitem__(0, "1.5"), "bias_db: 1: expected a number"),
        (lambda doc: doc["stuck_model"]["lrs_samples"].__setitem__(0, True),
         "stuck_model: lrs_samples: expected a number"),
        (lambda doc: doc["std_model"].pop("intercept"), "std_model: missing key 'intercept'"),
        (lambda doc: doc["range"].__setitem__("g_mid", 1.0), "range: unknown keys"),
        (lambda doc: doc.__setitem__("extra", 1), "unknown keys \\['extra'\\]"),
        (lambda doc: doc.__setitem__("offset_model", [0.0, 1.0]),
         "offset_model: expected a JSON object"),
    ])
    def test_fields_are_read_strictly(self, synthetic_model, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_model(synthetic_model, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_synthetic_default_validates(self):
        model = make_synthetic_model()
        assert set(model.bias_db.groups) == set(range(1, 64))
        assert all(len(v) == 500 for v in model.bias_db.groups.values())
        assert len(model.stuck_model.lrs_samples) == 64
        assert all(400.0 < v <= 1200.0 for v in model.stuck_model.lrs_samples)
        assert model.range == ConductanceRange(100.0, 400.0)

    def test_lrs_below_g_max_rejected(self):
        with pytest.raises(ValueError, match="LRS"):
            VariabilityModel(
                std_model=LinearStdModel.zero(),
                offset_model=OffsetModel.zero(),
                bias_db=BiasDisturbanceDb.zero(),
                stuck_model=StuckModel(10.0, 100.0, (350.0,)),
            )


class TestSubModelValidation:
    def test_std_clamped_nonnegative_across_window(self):
        model = LinearStdModel(-0.004, 1.0)  # crosses zero at 250 uS
        g = np.linspace(100.0, 400.0, 301)
        assert np.all(model.percent_std(g) >= 0.0)
        assert model.percent_std(400.0) == 0.0
        assert model.abs_std(400.0) == 0.0

    def test_offset_and_range_validation(self):
        with pytest.raises(ValueError):
            OffsetModel(0.0, -0.1)
        with pytest.raises(ValueError):
            ConductanceRange(400.0, 100.0)
        with pytest.raises(ValueError):
            ConductanceRange(0.0, 100.0)

    def test_tuning_record_validation(self):
        with pytest.raises(ValueError):
            TuningRecord("d", -5.0, (1.0,))
        with pytest.raises(ValueError):
            TuningRecord("d", 5.0, ())
        with pytest.raises(ValueError):
            TuningRecord("d", 5.0, (1.0, -1.0))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


class TestCsvIngestion:
    def test_tuning_csv_pools_rows(self, tmp_path):
        path = tmp_path / "tuning.csv"
        path.write_text(
            "device_id,g_target_uS,read_uS\n"
            "d0,125,124.3\nd0,125,125.1\nd0,250,249.0\nd1,125,126.0\n"
        )
        records = read_tuning_csv(path)
        keys = {(r.device_id, r.g_target): r.reads for r in records}
        assert keys[("d0", 125.0)] == (124.3, 125.1)
        assert keys[("d0", 250.0)] == (249.0,)
        assert keys[("d1", 125.0)] == (126.0,)

    def test_bias_and_stuck_csv(self, tmp_path):
        bias = tmp_path / "bias.csv"
        bias.write_text("n_d,delta_g_uS\n1,-2.5\n10,4.0\n")
        assert read_bias_csv(bias) == [(1, -2.5), (10, 4.0)]
        stuck = tmp_path / "stuck.csv"
        stuck.write_text("kind,g_uS\nHRS,45.0\nLRS,880.0\nlrs,910.0\n")
        assert read_stuck_csv(stuck) == ([45.0], [880.0, 910.0])

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bias.csv"
        path.write_text("nd,delta\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_bias_csv(path)

    @pytest.mark.parametrize("reader, text, where", [
        (read_bias_csv, "n_d,delta_g_uS\n1,-2.5\n2,nan\n", ":3: delta_g_uS: expected a finite"),
        (read_bias_csv, "n_d,delta_g_uS\n1,-2.5\n2,abc\n", ":3: delta_g_uS"),
        (read_bias_csv, "n_d,delta_g_uS\n-1,2.5\n", ":2: n_d: expected a non-negative integer"),
        (read_bias_csv, "n_d,delta_g_uS\n1.5,2.5\n", ":2: n_d"),
        (read_tuning_csv, "device_id,g_target_uS,read_uS\nd0,inf,1.0\n", ":2: g_target_uS"),
        (read_stuck_csv, "kind,g_uS\nHRS,40\nLRS,-inf\n", ":3: g_uS"),
        (read_stuck_csv, "kind,g_uS\nMID,40\n", ":2: kind: expected HRS or LRS"),
    ])
    def test_bad_cell_names_line_and_column(self, tmp_path, reader, text, where):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}{where}")):
            reader(path)

    def test_bad_kind_raises(self, tmp_path):
        path = tmp_path / "stuck.csv"
        path.write_text("kind,g_uS\nMID,45.0\n")
        with pytest.raises(ValueError, match="kind"):
            read_stuck_csv(path)
