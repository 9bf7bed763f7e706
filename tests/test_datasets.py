import numpy as np
import pytest

from xbartrain.datasets import LabeledSet, make_half_moons


class TestHalfMoons:
    def test_noiseless_points_lie_on_curves(self):
        ds = make_half_moons(400, noise_std=0.0, seed=1)
        p0 = ds.points[ds.labels == 0]
        p1 = ds.points[ds.labels == 1]
        # Class 0: unit circle about the origin (upper half).
        assert np.max(np.abs(p0[:, 0] ** 2 + p0[:, 1] ** 2 - 1.0)) < 1e-12
        assert np.all(p0[:, 1] >= -1e-12)
        # Class 1: unit circle about (1, 0.5) (lower half).
        r1 = (p1[:, 0] - 1.0) ** 2 + (p1[:, 1] - 0.5) ** 2
        assert np.max(np.abs(r1 - 1.0)) < 1e-12
        assert np.all(p1[:, 1] <= 0.5 + 1e-12)

    def test_minimal_n_one_point_per_class(self):
        ds = make_half_moons(2, noise_std=0.0, seed=2)
        assert sorted(ds.labels.tolist()) == [0, 1]

    def test_class_balance_within_one(self):
        for n in (2, 7, 100, 1075):
            ds = make_half_moons(n, seed=3)
            counts = np.bincount(ds.labels, minlength=2)
            assert abs(int(counts[0]) - int(counts[1])) <= 1
            assert counts.sum() == n

    def test_deterministic_under_seed(self):
        a = make_half_moons(1075, noise_std=0.1, seed=42)
        b = make_half_moons(1075, noise_std=0.1, seed=42)
        c = make_half_moons(1075, noise_std=0.1, seed=43)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.points, c.points)

    def test_split_sizes(self):
        ds = make_half_moons(1075, noise_std=0.1, seed=4)
        train, test = ds.split(875)
        assert len(train) == 875 and len(test) == 200
        assert np.array_equal(np.vstack([train.points, test.points]), ds.points)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_half_moons(1)
        with pytest.raises(ValueError):
            make_half_moons(10, noise_std=-0.5)
        for noise_std in (np.nan, np.inf):
            with pytest.raises(ValueError, match="noise_std must be finite"):
                make_half_moons(10, noise_std=noise_std)
        with pytest.raises(ValueError):
            make_half_moons(10).split(10)


class TestLabeledSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((3, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((3, 2)), np.array([0, 1, 2]))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="points must be finite"):
                LabeledSet([[bad, 0.0]], [0])

