"""Deterministic half-moons dataset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LabeledSet", "make_half_moons"]


@dataclass(frozen=True)
class LabeledSet:
    points: np.ndarray  # (n, 2)
    labels: np.ndarray  # (n,) in {0, 1}

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must be (n, 2), got {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        if labels.shape != (points.shape[0],):
            raise ValueError("labels length must match points")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.points.shape[0]

    def split(self, n_first: int) -> tuple["LabeledSet", "LabeledSet"]:
        if not 0 < n_first < len(self):
            raise ValueError(f"split point {n_first} outside (0, {len(self)})")
        return (
            LabeledSet(self.points[:n_first], self.labels[:n_first]),
            LabeledSet(self.points[n_first:], self.labels[n_first:]),
        )


def make_half_moons(n: int, noise_std: float = 0.1, seed: int = 0) -> LabeledSet:
    """Two interleaving half circles with Gaussian coordinate noise.

    Class 0 lies on the upper unit semicircle (cos t, sin t); class 1 on
    (1 - cos t, 0.5 - sin t), t uniform on [0, pi].  Classes are balanced
    within one point and the returned order is shuffled.
    """
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    n0 = n - n // 2
    n1 = n // 2
    t0 = rng.uniform(0.0, np.pi, size=n0)
    t1 = rng.uniform(0.0, np.pi, size=n1)
    pts = np.concatenate(
        [
            np.column_stack([np.cos(t0), np.sin(t0)]),
            np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)]),
        ]
    )
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    pts = pts + rng.standard_normal(pts.shape) * noise_std
    perm = rng.permutation(n)
    return LabeledSet(pts[perm], labels[perm])

