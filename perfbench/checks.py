"""Output checks for the benchmark workloads.

Outputs are compared with references recorded by ``record_refs.py``, never
byte for byte: a change that draws its random numbers in another order
gives another Monte-Carlo sample of the same quantities.  Every tolerance
is therefore a Monte-Carlo one.  A per-point (or per-cell) fraction ``p``
estimated from ``n`` draws has variance ``p(1-p)/n``; the run and the
reference are independent estimates, so their difference has variance
``v * (1/n_run + 1/n_ref)``.  ``v`` is floored at ``VAR_FLOOR / n_ref`` so
that a point the reference never saw fail may still fail now and then, and
one count of slack absorbs the discreteness of small runs.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

INPUTS = Path(__file__).resolve().parent / "inputs"
REFERENCES = INPUTS / "references.json"
VAR_FLOOR = 3.0
# Standard scores for a false alarm well below one in a thousand runs
# over 200 test points (and their aggregates) or 40 000 grid cells.
Z_POINT = 5.0
Z_CELL = 5.5
TEST_POINTS = 200
THRESHOLD = 0.95
GRID = (-1.5, 2.5, -1.0, 1.5, 200, 200)  # x_min, x_max, y_min, y_max, nx, ny
ARCHITECTURE = [2, 8, 1]


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def mc_tolerance(p_ref: np.ndarray, n_ref: int, n: int, z: float) -> np.ndarray:
    """Largest expected |p_run - p_ref| of independent estimates from n and n_ref draws."""
    var = np.maximum(p_ref * (1.0 - p_ref), VAR_FLOOR / n_ref)
    return z * np.sqrt(var * (1.0 / n + 1.0 / n_ref)) + 1.0 / n


# ---------------------------------------------------------------------------
# mc_eval: report.json, table.csv and curve.csv of ``xbartrain evaluate``
# ---------------------------------------------------------------------------


def check_evaluate(out_dir: Path, transfers: int, ref_counts, ref_transfers: int) -> list[str]:
    problems = []
    try:
        report = json.loads((out_dir / "report.json").read_text())
        table = (out_dir / "table.csv").read_text().splitlines()
        curve = (out_dir / "curve.csv").read_text().splitlines()
    except (OSError, ValueError) as exc:
        return [f"evaluate output unreadable: {exc}"]
    counts = np.asarray(report.get("counts", []))
    if report.get("transfers") != transfers:
        problems.append(f"report transfers {report.get('transfers')} != {transfers}")
    if counts.shape != (TEST_POINTS,) or counts.dtype.kind != "i":
        return problems + [f"report counts must be {TEST_POINTS} integers, got shape {counts.shape}"]
    if counts.min() < 0 or counts.max() > transfers:
        problems.append(f"counts outside [0, {transfers}]")
    fractions = counts / transfers
    if not np.allclose(report.get("fractions", []), fractions, rtol=0, atol=1e-12):
        problems.append("report fractions != counts / transfers")

    if table[:1] != ["bin,label,count,percent"] or len(table) != 9:
        problems.append(f"table.csv: expected header and 8 bins, got {len(table)} lines")
    else:
        table_total = sum(int(line.split(",")[2]) for line in table[1:])
        if table_total != TEST_POINTS:
            problems.append(f"table counts sum to {table_total}, not {TEST_POINTS}")

    if curve[:1] != ["threshold,share"] or len(curve) != 202:
        problems.append(f"curve.csv: expected header and 201 rows, got {len(curve)} lines")
    else:
        shares = np.array([float(line.split(",")[1]) for line in curve[1:]])
        if np.any(np.diff(shares) > 0) or shares.min() < 0 or shares.max() > 1:
            problems.append("curve shares must lie in [0, 1] and never increase")
        if shares[190] != np.mean(fractions >= THRESHOLD):
            problems.append("curve share at 0.95 disagrees with the counts")

    p_ref = np.asarray(ref_counts) / ref_transfers
    tol = mc_tolerance(p_ref, ref_transfers, transfers, Z_POINT)
    off = np.flatnonzero(np.abs(fractions - p_ref) > tol)
    if off.size:
        i = int(off[0])
        problems.append(f"{off.size} test points off the reference, e.g. point {i}: "
                        f"{fractions[i]:.4f} vs {p_ref[i]:.4f} +- {tol[i]:.4f}")
    # The per-transfer accuracy is a mean of per-point outcomes, so its
    # standard deviation is at most the mean of theirs.
    var = np.maximum(p_ref * (1.0 - p_ref), VAR_FLOOR / ref_transfers)
    mean_tol = Z_POINT * np.mean(np.sqrt(var)) * math.sqrt(1 / transfers + 1 / ref_transfers)
    if abs(fractions.mean() - p_ref.mean()) > mean_tol:
        problems.append(f"mean correct fraction {fractions.mean():.4f} vs reference "
                        f"{p_ref.mean():.4f} +- {mean_tol:.4f}")
    ambiguous = np.abs(p_ref - THRESHOLD) <= mc_tolerance(p_ref, ref_transfers, transfers, Z_POINT)
    share, share_ref = np.mean(fractions >= THRESHOLD), np.mean(p_ref >= THRESHOLD)
    share_tol = (ambiguous.sum() + 1) / TEST_POINTS
    if abs(share - share_ref) > share_tol:
        problems.append(f"share >= 95% {share:.3f} vs reference {share_ref:.3f} +- {share_tol:.3f}")
    return problems


# ---------------------------------------------------------------------------
# heatmap: heatmap.csv of ``xbartrain heatmap``
# ---------------------------------------------------------------------------


def grid_centers():
    x_min, x_max, y_min, y_max, nx, ny = GRID
    xs = x_min + (np.arange(nx) + 0.5) * (x_max - x_min) / nx
    ys = y_min + (np.arange(ny) + 0.5) * (y_max - y_min) / ny
    return xs, ys


_NUMPY_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


def heatmap_value(field: str) -> float:
    """A heatmap.csv number.  ``write_heatmap_csv`` formats the mean and std
    cells with ``repr`` of a numpy scalar, which numpy 2 writes as
    ``np.float64(0.95)``; both that and a plain float literal are read,
    exactly."""
    match = _NUMPY_SCALAR.match(field)
    return float(match.group(1) if match else field)


def check_heatmap(csv_path: Path, repetitions: int, ref_counts, ref_repetitions: int) -> list[str]:
    try:
        lines = csv_path.read_text().splitlines()
    except OSError as exc:
        return [f"heatmap output unreadable: {exc}"]
    nx, ny = GRID[4], GRID[5]
    if lines[:1] != ["x,y,mean,std"] or len(lines) != nx * ny + 1:
        return [f"heatmap.csv: expected header and {nx * ny} rows, got {len(lines)} lines"]
    try:
        rows = [tuple(heatmap_value(v) for v in line.split(",")) for line in lines[1:]]
    except ValueError as exc:
        return [f"heatmap.csv: {exc}"]
    if any(len(r) != 4 for r in rows):
        return ["heatmap.csv: every row needs four fields"]
    problems = []
    bad_std = [i for i, (_, _, m, s) in enumerate(rows) if s != math.sqrt(m * (1.0 - m))]
    if bad_std:
        problems.append(f"{len(bad_std)} rows with std != sqrt(mean * (1 - mean)), first row {bad_std[0] + 1}")
    data = np.array(rows)
    xs, ys = grid_centers()
    if not (np.allclose(data[:, 0], np.tile(xs, ny), rtol=0, atol=1e-12)
            and np.allclose(data[:, 1], np.repeat(ys, nx), rtol=0, atol=1e-12)):
        problems.append("heatmap.csv: x, y are not the row-major cell centres of the default grid")
    mean = data[:, 2]
    ones = mean * repetitions
    if mean.min() < 0 or mean.max() > 1 or np.any(np.abs(ones - np.round(ones)) > 1e-6):
        problems.append(f"mean must be a count out of {repetitions} repetitions")
    p_ref = np.asarray(ref_counts) / ref_repetitions
    tol = mc_tolerance(p_ref, ref_repetitions, repetitions, Z_CELL)
    off = np.flatnonzero(np.abs(mean - p_ref) > tol)
    if off.size:
        i = int(off[0])
        problems.append(f"{off.size} cells off the reference, e.g. row {i + 1}: "
                        f"{mean[i]:.4f} vs {p_ref[i]:.4f} +- {tol[i]:.4f}")
    return problems


# ---------------------------------------------------------------------------
# train_pair: checkpoint and printed accuracy of ``xbartrain train``
# ---------------------------------------------------------------------------

ACCURACY_LINE = re.compile(r"^(\w+): train accuracy ([0-9.]+), test accuracy ([0-9.]+)$", re.M)


def holdout_set(n: int = 2000, seed: int = 20230529):
    """Half moons drawn by the benchmark itself, so that the trained net is
    judged on data the program under test never generated."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, np.pi, size=n)
    labels = rng.integers(0, 2, size=n)
    pts = np.where(labels[:, None] == 0,
                   np.column_stack([np.cos(t), np.sin(t)]),
                   np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)]))
    return pts + rng.normal(0.0, 0.1, size=pts.shape), labels


def checkpoint_layers(path: Path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, bias) per layer; raises ValueError on a malformed checkpoint."""
    try:
        doc = json.loads(path.read_text())
        sizes = doc["layer_sizes"]
        layers = [(np.array(e["weights"], dtype=float).reshape(e["shape"]), np.array(e["bias"], dtype=float))
                  for e in doc["layers"]]
    except (OSError, KeyError, TypeError) as exc:
        raise ValueError(f"{path.name}: {exc!r}") from exc
    if sizes != ARCHITECTURE or [w.shape for w, _ in layers] != [(8, 2), (1, 8)]:
        raise ValueError(f"{path.name}: layer sizes {sizes}, expected {ARCHITECTURE}")
    if not all(np.all(np.isfinite(w)) and np.all(np.isfinite(b)) for w, b in layers):
        raise ValueError(f"{path.name}: non-finite parameters")
    return layers


def holdout_accuracy(layers, points, labels) -> float:
    a = points
    for w, b in layers:
        a = 1.0 / (1.0 + np.exp(-(a @ w.T + b)))
    return float(np.mean((a[:, 0] > 0.5) == labels))


def check_train(out_dir: Path, name: str, stdout: str, floors: dict | None) -> list[str]:
    """``floors`` maps "test" and "holdout" to the lowest accepted accuracy;
    None checks the checkpoint's form only."""
    try:
        layers = checkpoint_layers(out_dir / f"{name}.json")
    except ValueError as exc:
        return [str(exc)]
    printed = {m.group(1): float(m.group(3)) for m in ACCURACY_LINE.finditer(stdout)}
    if name not in printed:
        return [f"{name}: no accuracy line on stdout"]
    if floors is None:
        return []
    problems = []
    if printed[name] < floors["test"]:
        problems.append(f"{name}: test accuracy {printed[name]} below floor {floors['test']}")
    acc = holdout_accuracy(layers, *holdout_set())
    if acc < floors["holdout"]:
        problems.append(f"{name}: holdout accuracy {acc:.4f} below floor {floors['holdout']}")
    return problems
