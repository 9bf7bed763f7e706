"""Statistical models of passive-crossbar device variability.

Three effects are modelled from characterization data, each with its own
fitted sub-model:

* **Tuning imprecision** -- programming a device to a target conductance
  lands on a normal distribution around it.  The standard deviation (as a
  percent of the target) follows a fitted line over the conductance range,
  and the mean lands below the target by a normally distributed offset.
* **Biasing-scheme disturbance** -- under a V/3 programming scheme, every
  device drifts a little while its neighbours are programmed.  Recorded
  conductance changes are kept raw, grouped by ``n_d`` (the number of
  devices programmed afterwards), and resampled empirically because the
  distributions fail normality tests.
* **Stuck devices** -- a fraction of devices is frozen in a high- or
  low-resistance state.  High-resistance failures are drawn uniformly from
  [10, 100] uS; low-resistance failures are resampled from an empirical
  list of recorded conductances above the tuning window.

A :class:`VariabilityModel` bundles the three sub-models together with the
achievable conductance window and round-trips losslessly through a JSON
file (see :func:`save_model` / :func:`load_model`).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fields

__all__ = [
    "BIAS_DISTURBANCE_CAP_US",
    "ConductanceRange",
    "TuningRecord",
    "LinearStdModel",
    "OffsetModel",
    "BiasDisturbanceDb",
    "BiasLookup",
    "StuckModel",
    "VariabilityModel",
    "GroupFit",
    "ModelFormatError",
    "shapiro_wilk",
    "fit_tuning_model",
    "build_bias_db",
    "save_model",
    "load_model",
    "make_synthetic_model",
    "read_tuning_csv",
    "read_bias_csv",
    "read_stuck_csv",
]

# Disturbances beyond this magnitude are treated as HRS/LRS failures, not
# biasing-scheme crosstalk, and are excluded from the database.
BIAS_DISTURBANCE_CAP_US = 60.0


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed or fails validation."""


@dataclass(frozen=True)
class ConductanceRange:
    """Achievable tuning window [g_min, g_max], in uS."""

    g_min: float = 100.0
    g_max: float = 400.0

    def __post_init__(self):
        if not (0.0 < self.g_min < self.g_max):
            raise ValueError(
                f"conductance range needs 0 < g_min < g_max, got [{self.g_min}, {self.g_max}]"
            )


@dataclass(frozen=True)
class TuningRecord:
    """Read-out values from one tune/untune repetition of one device.

    ``reads`` holds the post-convergence read values (uS) observed after the
    device stabilized around ``g_target``.
    """

    device_id: str
    g_target: float
    reads: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "reads", tuple(float(r) for r in self.reads))
        if not self.g_target > 0:
            raise ValueError(f"g_target must be positive, got {self.g_target}")
        if len(self.reads) == 0:
            raise ValueError("a tuning record needs at least one read")
        if any(r <= 0 for r in self.reads):
            raise ValueError("all reads must be positive conductances")


@dataclass(frozen=True)
class LinearStdModel:
    """Programming-noise law: std in percent of target as a line over g.

    Evaluations are clamped at zero; the fitted line may cross below zero
    outside the characterized range and a negative std is non-physical.
    """

    slope: float  # percent per uS
    intercept: float  # percent

    @classmethod
    def zero(cls) -> "LinearStdModel":
        return cls(0.0, 0.0)

    def percent_std(self, g):
        return np.maximum(self.slope * np.asarray(g, dtype=float) + self.intercept, 0.0)

    def abs_std(self, g):
        """Standard deviation in uS at conductance g (uS)."""
        g = np.asarray(g, dtype=float)
        return self.percent_std(g) * g / 100.0


@dataclass(frozen=True)
class OffsetModel:
    """Normal distribution of the programming offset, in percent of target."""

    mu_off: float
    sigma_off: float

    def __post_init__(self):
        if self.sigma_off < 0:
            raise ValueError(f"sigma_off must be >= 0, got {self.sigma_off}")

    @classmethod
    def zero(cls) -> "OffsetModel":
        return cls(0.0, 0.0)

    def abs_mu(self, g):
        return self.mu_off * np.asarray(g, dtype=float) / 100.0

    def abs_sigma(self, g):
        return self.sigma_off * np.asarray(g, dtype=float) / 100.0


@dataclass(frozen=True)
class BiasDisturbanceDb:
    """Raw biasing-scheme disturbances grouped by devices-programmed-after.

    Maps ``n_d`` to the recorded conductance changes (uS) observed on a
    device after ``n_d`` further devices were programmed.  Sampling is a
    uniform draw from the stored group; queries between stored groups fall
    back to the nearest populated key (ties toward smaller ``n_d``).
    """

    groups: dict[int, tuple[float, ...]]

    def __post_init__(self):
        clean: dict[int, tuple[float, ...]] = {}
        for key, values in self.groups.items():
            k = int(key)
            if k != key or k < 0:
                raise ValueError(f"n_d keys must be non-negative integers, got {key!r}")
            vals = tuple(float(v) for v in values)
            if not vals:
                raise ValueError(f"empty disturbance list for n_d={k}")
            bad = [v for v in vals if not abs(v) <= BIAS_DISTURBANCE_CAP_US]  # NaN included
            if bad:
                raise ValueError(f"disturbance {bad[0]} stored for n_d={k} is not finite "
                                 f"and within +/-{BIAS_DISTURBANCE_CAP_US} uS")
            clean[k] = vals
        if not clean:
            raise ValueError("bias disturbance database is empty")
        object.__setattr__(self, "groups", clean)
        keys = np.array(sorted(clean), dtype=int)
        values = [np.array(clean[k], dtype=float) for k in keys]
        # Boundary midpoints for nearest-key lookup; searchsorted with
        # side='left' sends exact midpoints to the smaller key.
        object.__setattr__(self, "_mids", (keys[:-1] + keys[1:]) / 2.0)
        lengths = np.array([len(v) for v in values], dtype=np.int64)
        # Row-padded matrix for one-gather sampling; the zero padding is
        # never selected because draws stay below the true group length.
        # The extra last row is all zero: n_d == 0 entries gather from it.
        table = np.zeros((len(values) + 1, int(lengths.max())))
        for row, vals in enumerate(values):
            table[row, : len(vals)] = vals
        object.__setattr__(self, "_lengths", lengths)
        object.__setattr__(self, "_table", table)

    @classmethod
    def zero(cls) -> "BiasDisturbanceDb":
        """A database whose every draw is exactly zero (source disabled)."""
        return cls({0: (0.0,)})

    def sample_matrix(self, n_d, rng: np.random.Generator) -> np.ndarray:
        """Vectorized draw: one disturbance per entry of the n_d matrix.

        Entries with n_d == 0 are exactly zero (the last-programmed device
        sees no subsequent pulses).
        """
        return self.lookup(n_d).sample(rng)

    def lookup(self, n_d) -> "BiasLookup":
        """Validate an n_d matrix once and resolve the group each entry
        draws from, for repeated sampling at that matrix."""
        n_d = np.asarray(n_d)
        if np.any(n_d < 0):
            raise ValueError("n_d entries must be >= 0")
        key_idx = np.searchsorted(self._mids, n_d, side="left")
        # An n_d == 0 entry still draws its pick from its nearest group, so
        # the stream does not depend on the zero entries, but it gathers
        # from the all-zero last table row.
        rows = np.where(n_d == 0, len(self._table) - 1, key_idx)
        bounds = self._lengths[key_idx]
        # One scalar bound draws what equal array bounds draw, and faster.
        uniform = bounds.size and bounds.min() == bounds.max()
        return BiasLookup(self._table.ravel(), rows * self._table.shape[1],
                          int(bounds.flat[0]) if uniform else bounds)


class BiasLookup(NamedTuple):
    """A disturbance database resolved against one n_d matrix, once rather
    than per draw: the padded table as one vector, the offset of the row
    each entry gathers from (the all-zero row for n_d == 0 entries, whose
    draws are exactly zero), and the sizes of the groups the entries' picks
    are drawn from, as one ``int`` when they are all equal.
    """

    flat: np.ndarray
    offsets: np.ndarray
    bounds: int | np.ndarray

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One draw: a disturbance per entry, shaped like the n_d matrix,
        its picks made by one ``rng.integers`` call."""
        return self.flat[self.offsets + rng.integers(0, self.bounds, size=self.offsets.shape)]


@dataclass(frozen=True)
class StuckModel:
    """Samplers for devices frozen in a high- or low-resistance state.

    HRS failures are uniform on [hrs_low, hrs_high] (the recorded values
    fail normality testing, and anything below 10 uS is negligible in a
    current sum).  LRS failures resample an empirical list of recorded
    stuck conductances.
    """

    hrs_low: float = 10.0
    hrs_high: float = 100.0
    lrs_samples: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lrs_samples", tuple(float(v) for v in self.lrs_samples))
        if not 0 < self.hrs_low < self.hrs_high:
            raise ValueError(
                f"need 0 < hrs_low < hrs_high, got [{self.hrs_low}, {self.hrs_high}]"
            )
        if len(self.lrs_samples) == 0:
            raise ValueError("lrs_samples must be non-empty")
        if any(v <= 0 for v in self.lrs_samples):
            raise ValueError("lrs_samples must be positive conductances")
        # The array sample_lrs gathers from, built once rather than per draw.
        object.__setattr__(self, "_lrs", np.array(self.lrs_samples))

    def sample_hrs(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.hrs_low, self.hrs_high, size=size)

    def sample_lrs(self, rng: np.random.Generator, size=None):
        return self._lrs[rng.integers(0, len(self._lrs), size=size)]


@dataclass(frozen=True)
class VariabilityModel:
    """Fitted bundle of every variability source plus the tuning window.

    Immutable after construction; all sampling takes a caller-supplied RNG,
    so one model serves any number of draws, and a forked process may use
    its copy as the parent does.
    """

    std_model: LinearStdModel
    offset_model: OffsetModel
    bias_db: BiasDisturbanceDb
    stuck_model: StuckModel
    range: ConductanceRange = field(default_factory=ConductanceRange)

    def __post_init__(self):
        bad = [v for v in self.stuck_model.lrs_samples if v <= self.range.g_max]
        if bad:
            raise ValueError(
                f"LRS stuck conductances must exceed g_max={self.range.g_max} uS; "
                f"got {min(bad)} uS"
            )
        # Sampling assumes finite parameters and does not check its draws;
        # the bias database holds only finite values already.
        for section, (_, table) in _MODEL.items():
            for key, (name, _) in table.items():
                value = getattr(getattr(self, section), name)
                values = value if isinstance(value, tuple) else (value,)
                if not all(map(math.isfinite, values)):
                    first = next(i for i, v in enumerate(values) if not math.isfinite(v))
                    index = f"[{first}]" if isinstance(value, tuple) else ""
                    raise ValueError(f"{section}.{key}{index} must be finite, got {values[first]}")


# ---------------------------------------------------------------------------
# Shapiro-Wilk normality test (Royston's approximation, 3 <= n <= 5000)
# ---------------------------------------------------------------------------

_SW_C1 = [-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0]
_SW_C2 = [-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0]
_SW_C3 = [-0.0006714, 0.025054, -0.39978, 0.544]
_SW_C4 = [-0.0020322, 0.062767, -0.77857, 1.3822]
_SW_C5 = [0.0038915, -0.083751, -0.31082, -1.5861]
_SW_C6 = [0.0030302, -0.082676, -0.4803]


def _shapiro_coefficients(n: int) -> np.ndarray:
    if n == 3:
        # Closed form: the weight vector is the normalized expected order
        # statistics (-1, 0, 1)/sqrt(2).
        return np.array([-np.sqrt(0.5), 0.0, np.sqrt(0.5)])
    from scipy import special  # only fit-model needs scipy; see nn._expit

    i = np.arange(1, n + 1)
    m = special.ndtri((i - 0.375) / (n + 0.25))
    mm = float(m @ m)
    c = m / np.sqrt(mm)
    rsn = 1.0 / np.sqrt(n)
    a = np.empty(n)
    a_n = float(c[-1] + np.polyval(_SW_C1, rsn))
    if n > 5:
        a_n1 = float(c[-2] + np.polyval(_SW_C2, rsn))
        phi = (mm - 2 * m[-1] ** 2 - 2 * m[-2] ** 2) / (1 - 2 * a_n**2 - 2 * a_n1**2)
        a[2:-2] = m[2:-2] / np.sqrt(phi)
        a[-1], a[-2] = a_n, a_n1
        a[0], a[1] = -a_n, -a_n1
    else:
        phi = (mm - 2 * m[-1] ** 2) / (1 - 2 * a_n**2)
        a[1:-1] = m[1:-1] / np.sqrt(phi)
        a[-1] = a_n
        a[0] = -a_n
    return a


def shapiro_wilk(samples) -> tuple[float, float]:
    """Shapiro-Wilk W statistic and approximate p-value.

    Uses Royston's approximation, valid for 3 <= n <= 5000.  Degenerate
    input (fewer than three samples, all samples identical, non-finite
    values) raises ``ValueError`` rather than returning NaN.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 3:
        raise ValueError(f"Shapiro-Wilk needs at least 3 samples, got {n}")
    if n > 5000:
        raise ValueError(f"Shapiro-Wilk approximation is valid up to n=5000, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if x[-1] == x[0]:
        raise ValueError("all samples are identical; W is undefined")

    a = _shapiro_coefficients(n)
    w = float((a @ x) ** 2 / np.sum((x - x.mean()) ** 2))
    w = min(w, 1.0)

    if n == 3:
        # Exact small-sample p: distribution of W at n=3 is known in closed form.
        p = (6.0 / np.pi) * (np.arcsin(np.sqrt(w)) - np.arcsin(np.sqrt(0.75)))
        return w, float(min(max(p, 0.0), 1.0))

    w1 = max(1.0 - w, 1e-300)
    if n <= 11:
        gamma = np.polyval([0.459, -2.273], n)
        y = np.log(w1)
        if y >= gamma:
            return w, 0.0
        y = -np.log(gamma - y)
        mu = np.polyval(_SW_C3, n)
        sigma = np.exp(np.polyval(_SW_C4, n))
    else:
        ln_n = np.log(n)
        y = np.log(w1)
        mu = np.polyval(_SW_C5, ln_n)
        sigma = np.exp(np.polyval(_SW_C6, ln_n))
    from scipy import special

    p = float(special.ndtr(-(y - mu) / sigma))
    return w, p


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupFit:
    """Per (device, target-level) summary extracted during fitting."""

    device_id: str
    g_target: float
    n_reads: int
    mean: float  # uS
    std_percent: float
    offset_percent: float
    shapiro_w: float | None
    shapiro_p: float | None


def fit_tuning_model(
    records: list[TuningRecord],
) -> tuple[LinearStdModel, OffsetModel, tuple[GroupFit, ...]]:
    """Fit the tuning-imprecision law and offset distribution.

    Reads are pooled per (device, target) group and a normal is fitted to
    each pool; the per-group std (percent of target) points get a
    least-squares line, and the per-group offset points (percent deviation
    of the achieved mean from the target) get a sample mean/std.  Returns
    both models and each group's :class:`GroupFit`, whose Shapiro-Wilk W
    and p are ``None`` when the pool is too small or degenerate for it.
    """
    if not records:
        raise ValueError("no tuning records supplied")
    pools: dict[tuple[str, float], list[float]] = {}
    for rec in records:
        pools.setdefault((rec.device_id, rec.g_target), []).extend(rec.reads)

    targets = sorted({g for _, g in pools})
    if len(targets) < 2:
        raise ValueError(
            f"need reads at >= 2 distinct target conductances to fit a line, got {len(targets)}"
        )

    fits = []
    for (device_id, g_target), reads in sorted(pools.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        arr = np.asarray(reads, dtype=float)
        if arr.size < 2:
            raise ValueError(
                f"group (device={device_id}, target={g_target} uS) has {arr.size} read(s); "
                "at least 2 are required to estimate a spread"
            )
        mean = float(arr.mean())
        std = float(arr.std(ddof=1))
        try:
            sw_w, sw_p = shapiro_wilk(arr)
        except ValueError:
            sw_w, sw_p = None, None
        fits.append(
            GroupFit(
                device_id=device_id,
                g_target=float(g_target),
                n_reads=int(arr.size),
                mean=mean,
                std_percent=100.0 * std / g_target,
                offset_percent=100.0 * (mean - g_target) / g_target,
                shapiro_w=sw_w,
                shapiro_p=sw_p,
            )
        )

    xs = np.array([f.g_target for f in fits])
    std_pts = np.array([f.std_percent for f in fits])
    off_pts = np.array([f.offset_percent for f in fits])
    slope, intercept = np.polyfit(xs, std_pts, 1)
    std_model = LinearStdModel(float(slope), float(intercept))
    offset_model = OffsetModel(float(off_pts.mean()), float(off_pts.std(ddof=1)))
    return std_model, offset_model, tuple(fits)


def build_bias_db(records) -> BiasDisturbanceDb:
    """Group raw (n_d, delta_g) disturbance records into a database.

    Records with |delta_g| above :data:`BIAS_DISTURBANCE_CAP_US` are
    discarded; they almost always mark a stuck-device failure rather than
    crosstalk.  A non-finite delta_g is no measurement, so it raises.
    """
    groups: dict[int, list[float]] = {}
    for n_d, delta_g in records:
        if not math.isfinite(delta_g):
            raise ValueError(f"disturbance record (n_d={n_d}, delta_g={delta_g}) is not finite")
        if abs(delta_g) <= BIAS_DISTURBANCE_CAP_US:
            groups.setdefault(n_d, []).append(float(delta_g))
    if not groups:
        raise ValueError(
            f"no records within +/-{BIAS_DISTURBANCE_CAP_US} uS; cannot build a disturbance database"
        )
    return BiasDisturbanceDb({k: tuple(v) for k, v in groups.items()})


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# Model-file sections but bias_db: section -> (dataclass, key -> (field,
# conversion)).  Drives load_model, save_model and the names of
# VariabilityModel's finiteness errors.
_REAL = fields.real
_MODEL = {
    "range": (ConductanceRange, {"g_min": ("g_min", _REAL), "g_max": ("g_max", _REAL)}),
    "std_model": (LinearStdModel, {"slope": ("slope", _REAL), "intercept": ("intercept", _REAL)}),
    "offset_model": (OffsetModel, {"mu_off": ("mu_off", _REAL), "sigma_off": ("sigma_off", _REAL)}),
    "stuck_model": (StuckModel, {"hrs_low": ("hrs_low", _REAL), "hrs_high": ("hrs_high", _REAL),
                                 "lrs_samples": ("lrs_samples", fields.list_of(_REAL))}),
}


def _record(cls, table):
    """The conversion of a section holding every key of ``table`` into ``cls``."""
    return lambda doc: cls(**fields.section(doc, table, required=True)[0])


def _n_d(key: str) -> int:
    if not (key.isascii() and key.isdigit() and str(int(key)) == key):
        raise ValueError(f"n_d key {key!r} is not a non-negative integer")
    return int(key)


def _bias_db(doc) -> BiasDisturbanceDb:
    """The bias_db section: n_d (a decimal string) -> list of disturbances.
    Its keys are data, so its key table is built from them."""
    keys = doc if isinstance(doc, dict) else ()
    table = {key: (_n_d(key), fields.list_of(_REAL)) for key in keys}
    return BiasDisturbanceDb(fields.section(doc, table)[0])


def save_model(model: VariabilityModel, path) -> None:
    """Write a model to a single JSON document (conductances in uS,
    percentages as plain numbers)."""
    doc = {
        section: {key: getattr(getattr(model, section), name) for key, (name, _) in table.items()}
        for section, (_, table) in _MODEL.items()
    }
    doc["bias_db"] = {str(k): list(v) for k, v in sorted(model.bias_db.groups.items())}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def load_model(path) -> VariabilityModel:
    """Load and validate a model file written by :func:`save_model`."""
    doc = fields.read_json(path, ModelFormatError, "model file")
    table = {section: (section, _record(*spec)) for section, spec in _MODEL.items()}
    table["bias_db"] = ("bias_db", _bias_db)
    try:
        (parts,) = fields.section(doc, table, required=True)
        model = VariabilityModel(**parts)
    except ValueError as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from exc
    return model


# ---------------------------------------------------------------------------
# Synthetic default model
# ---------------------------------------------------------------------------


def make_synthetic_model(seed: int = 0) -> VariabilityModel:
    """A self-contained model with plausible magnitudes for every source.

    The fitted coefficients of real characterization campaigns are not
    shipped with the package; this generator reproduces their qualitative
    structure: std falling with conductance, a small negative mean offset,
    disturbances accumulating with n_d and skewing negative, and LRS
    failures well above the tuning window.
    """
    rng = np.random.default_rng(seed)
    groups = {}
    for n_d in range(1, 64):
        sums = rng.normal(-0.3, 1.5, size=(500, n_d)).sum(axis=1)
        groups[n_d] = tuple(np.clip(sums, -BIAS_DISTURBANCE_CAP_US, BIAS_DISTURBANCE_CAP_US))
    lrs = tuple(400.0 + 12.5 * np.arange(1, 65))
    return VariabilityModel(
        std_model=LinearStdModel(-0.002, 1.4),
        offset_model=OffsetModel(-0.5, 0.5),
        bias_db=BiasDisturbanceDb(groups),
        stuck_model=StuckModel(10.0, 100.0, lrs),
        range=ConductanceRange(100.0, 400.0),
    )


# ---------------------------------------------------------------------------
# Raw CSV ingestion
# ---------------------------------------------------------------------------


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {cell!r}")
    return value


def _count(cell: str) -> int:
    if not cell.strip().isdecimal():
        raise ValueError(f"expected a non-negative integer, got {cell!r}")
    return int(cell)


def _kind(cell: str) -> str:
    kind = cell.strip().upper()
    if kind not in ("HRS", "LRS"):
        raise ValueError(f"expected HRS or LRS, got {cell!r}")
    return kind


def _read_csv(path, columns: dict):
    """The rows of a CSV file whose header is ``columns`` (column name ->
    conversion of a cell), converted; a bad row or cell raises ValueError
    naming ``path:line`` and the column."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(columns):
            raise ValueError(f"{path}: expected header {','.join(columns)!r}, got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(columns):
                raise ValueError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(row)}")
            values = []
            for (column, convert), cell in zip(columns.items(), row):
                try:
                    values.append(convert(cell))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {column}: {exc}") from None
            yield tuple(values)


def read_tuning_csv(path) -> list[TuningRecord]:
    """Read tuning reads (device_id,g_target_uS,read_uS; one row per read).

    Rows are pooled into one record per (device, target).
    """
    columns = {"device_id": str.strip, "g_target_uS": _finite, "read_uS": _finite}
    pools: dict[tuple[str, float], list[float]] = {}
    for device, target, read in _read_csv(path, columns):
        pools.setdefault((device, target), []).append(read)
    return [
        TuningRecord(device_id=d, g_target=g, reads=tuple(reads))
        for (d, g), reads in sorted(pools.items())
    ]


def read_bias_csv(path) -> list[tuple[int, float]]:
    """Read raw disturbance records (n_d,delta_g_uS)."""
    return list(_read_csv(path, {"n_d": _count, "delta_g_uS": _finite}))


def read_stuck_csv(path) -> tuple[list[float], list[float]]:
    """Read stuck-device conductances (kind{HRS|LRS},g_uS) -> (hrs, lrs)."""
    hrs, lrs = [], []
    for kind, g in _read_csv(path, {"kind": _kind, "g_uS": _finite}):
        (hrs if kind == "HRS" else lrs).append(g)
    return hrs, lrs
