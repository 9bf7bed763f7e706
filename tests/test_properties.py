"""Property tests: the JSON readers, the conversion algebra, the tile
layout, the robustness table and the rounding margin of the forward.

Fuzzed config, model-file and checkpoint documents must either load or fail
with the reader's own error type; the writers' documents must load back to
equal objects; the weight <-> conductance conversion must compose to its
closed-form affine map; n_d must number the devices of each tile as a
permutation; the robustness table must place every test point in
exactly one bin; a disturbance draw with one scalar bound must draw what
an array of bounds draws; the forward's fast sigmoid must stay well inside the
margin that decides which labels it may keep; and the heatmap's tiles must
count what forwarding every cell counts.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from xbartrain import nn
from xbartrain.experiments import (
    _Z0,
    DEFAULT_BIN_EDGES,
    GRID_TILE,
    ConfigError,
    GridSpec,
    RobustnessReport,
    _GridTiles,
    _margin,
    _predict_transferred,
    _sigmoid,
    experiment_config_from_dict,
    heatmap,
    robustness_table,
)
from xbartrain.training import _stream
from xbartrain.transfer import (
    TileLayout,
    TransferPlan,
    WeightRangeSnapshot,
    from_conductance,
    layouts_for_architecture,
    split_signed,
    to_conductance,
)
from xbartrain.variability import (
    BiasDisturbanceDb,
    ConductanceRange,
    LinearStdModel,
    ModelFormatError,
    OffsetModel,
    StuckModel,
    VariabilityModel,
    load_model,
    save_model,
)

from conftest import crossbars, layer_stacks, reference_predict, zero_noise_model

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def paths(doc, prefix=()):
    """Every key path and list index path into a JSON document."""
    found = [prefix]
    if isinstance(doc, dict):
        for key, value in doc.items():
            found += paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc[:3]):
            found += paths(value, prefix + (i,))
    return found


def mutated(doc, path, value, delete):
    """A copy of ``doc`` with the entry at ``path`` replaced by ``value``, or
    deleted; the empty path replaces the whole document."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


# Values that probe each conversion's edges: wrong JSON types, booleans
# where numbers belong, numeric strings, non-finite and out-of-range
# numbers, an integer too large for a float, and empty containers.
EDGES = [None, True, False, 0, -1, 1.5, 10**400, float("nan"), float("inf"), "", "1.5", [], {},
         [1.0], [True], {"1": [1.0]}]


def mutations(doc):
    values = st.sampled_from(EDGES) | JSON_VALUES
    return st.tuples(st.sampled_from(paths(doc)), values, st.booleans()).map(
        lambda m: mutated(doc, *m)
    )


CONFIG = {
    "architecture": [2, 8, 1], "batch_size": 64, "learning_rate": 0.01, "epochs": 5,
    "hrs_fraction": 0.005, "lrs_fraction": 0.005, "seed": 3, "tile": [8, 8],
    "sources": {"tuning": True, "bias": True, "stuck": False},
    "model_path": "model.json", "model_seed": 1, "transfers": 10, "threads": 1,
    "dataset": {"n_train": 50, "n_test": 20, "noise_std": 0.1},
    "heatmap": {"extent": [-1.5, 2.5, -1.0, 1.5], "nx": 4, "ny": 4, "repetitions": 2},
}


MODEL = {
    "range": {"g_min": 100.0, "g_max": 400.0},
    "std_model": {"slope": -0.002, "intercept": 1.4},
    "offset_model": {"mu_off": -0.5, "sigma_off": 0.5},
    "bias_db": {"1": [-0.5, 0.25], "3": [1.0]},
    "stuck_model": {"hrs_low": 10.0, "hrs_high": 100.0, "lrs_samples": [450.0, 900.0]},
}
CHECKPOINT = {
    "layer_sizes": [2, 3, 1],
    "layers": [
        {"shape": [3, 2], "weights": [0.5, -1.0, 0.25, 2.0, -0.75, 1.5], "bias": [0.0, 0.1, -0.1]},
        {"shape": [1, 3], "weights": [1.0, -2.0, 0.5], "bias": [0.2]},
    ],
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


def write(path, doc):
    path.write_text(json.dumps(doc))
    return path


# Per format: a valid document, its loader and the one error type it raises.
LOADERS = {
    "config": (CONFIG, lambda doc, path: experiment_config_from_dict(doc), ConfigError),
    "model": (MODEL, lambda doc, path: load_model(write(path, doc)), ModelFormatError),
    "checkpoint": (CHECKPOINT, lambda doc, path: nn.load_checkpoint(write(path, doc)), ValueError),
}


def loads_or_raises_its_error(fmt, doc, path):
    _, load, error = LOADERS[fmt]
    try:
        load(doc, path)
    except error:
        pass


class TestFuzzedDocuments:
    @pytest.mark.parametrize("fmt", LOADERS)
    def test_valid_document_loads(self, scratch, fmt):
        valid, load, _ = LOADERS[fmt]
        assert load(valid, scratch / "valid.json") is not None

    @pytest.mark.parametrize("fmt", LOADERS)
    def test_every_edit_of_a_valid_document_loads_or_raises_its_error(self, scratch, fmt):
        valid = LOADERS[fmt][0]
        for path in paths(valid):
            for value in EDGES:
                loads_or_raises_its_error(fmt, mutated(valid, path, value, False), scratch / "e.json")
            if path:
                loads_or_raises_its_error(fmt, mutated(valid, path, None, True), scratch / "e.json")

    @pytest.mark.parametrize("fmt", LOADERS)
    @given(data=st.data())
    def test_fuzzed_document_loads_or_raises_its_error(self, scratch, fmt, data):
        doc = data.draw(st.one_of(JSON_VALUES, mutations(LOADERS[fmt][0])))
        loads_or_raises_its_error(fmt, doc, scratch / "fuzzed.json")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-3, max_value=1e4)


@st.composite
def models(draw) -> VariabilityModel:
    g_min = draw(POSITIVE)
    g_max = g_min + draw(POSITIVE)
    hrs_low = draw(POSITIVE)
    disturbances = st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=4).map(tuple)
    return VariabilityModel(
        std_model=LinearStdModel(draw(FINITE), draw(FINITE)),
        offset_model=OffsetModel(draw(FINITE), draw(st.floats(0.0, 1e6))),
        bias_db=BiasDisturbanceDb(draw(st.dictionaries(st.integers(0, 4095), disturbances,
                                                       min_size=1, max_size=4))),
        stuck_model=StuckModel(hrs_low, hrs_low + draw(POSITIVE), tuple(
            g_max + draw(POSITIVE) for _ in range(draw(st.integers(1, 4))))),
        range=ConductanceRange(g_min, g_max),
    )


@st.composite
def nets(draw) -> nn.DenseNet:
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    return nn.DenseNet([
        nn.LayerParams(draw(arrays(float, (fan_out, fan_in), elements=FINITE)),
                       draw(arrays(float, fan_out, elements=FINITE)))
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
    ])


class TestRoundTrips:
    @given(model=models())
    def test_model_file_round_trip(self, scratch, model):
        path = scratch / "round_trip_model.json"
        save_model(model, path)
        assert load_model(path) == model

    @given(net=nets())
    def test_checkpoint_round_trip(self, scratch, net):
        path = scratch / "round_trip_checkpoint.json"
        nn.save_checkpoint(net, path)
        loaded = nn.load_checkpoint(path)
        assert loaded.sizes == net.sizes
        for a, b in zip(net.layers, loaded.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_non_finite_model_is_not_written(self, tmp_path):
        model = zero_noise_model()
        with pytest.raises(ValueError):
            bad = VariabilityModel(LinearStdModel(float("nan"), 0.0), model.offset_model,
                                   model.bias_db, model.stuck_model)
            save_model(bad, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()


WEIGHTS = arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                 elements=st.floats(-1e3, 1e3, allow_subnormal=False))


class TestConversionAlgebra:
    @given(phi=WEIGHTS, g_min=POSITIVE, span=POSITIVE)
    def test_round_trip_is_the_closed_form_affine_map(self, phi, g_min, span):
        absmax = np.abs(phi).max()
        if absmax < 1e-6:
            phi.flat[0] = absmax = 1.0
        crange = ConductanceRange(g_min, g_min + span)
        snap = WeightRangeSnapshot.of_matrix(phi)
        plus, minus = split_signed(phi)
        assert np.array_equal(plus - minus, phi)
        assert np.all(plus >= 0) and np.all(minus >= 0) and not np.any(plus * minus)
        g_plus = to_conductance(plus, snap, crange)
        g_minus = to_conductance(minus, snap, crange)
        tol = 1e-9 * crange.g_max
        assert np.all(g_plus >= crange.g_min - tol) and np.all(g_plus <= crange.g_max + tol)
        back = from_conductance(g_plus, g_minus, snap, crange)
        closed = (phi / snap.phi_absmax + 1.0) / 2.0 * (snap.phi_max - snap.phi_min) + snap.phi_min
        assert np.max(np.abs(back - closed)) <= 1e-12 * absmax * (1 + crange.g_max / span)

    @given(phi=WEIGHTS)
    def test_symmetric_snapshot_round_trip_is_identity(self, phi):
        assume(phi.size > 1)
        absmax = max(np.abs(phi).max(), 1.0)
        phi.flat[:2] = absmax, -absmax
        crange = ConductanceRange()
        snap = WeightRangeSnapshot.of_matrix(phi)
        plus, minus = split_signed(phi)
        back = from_conductance(
            to_conductance(plus, snap, crange), to_conductance(minus, snap, crange), snap, crange
        )
        assert np.max(np.abs(back - phi)) <= 1e-12 * absmax


class TestTileLayout:
    @given(n_rows=st.integers(1, 20), n_cols=st.integers(1, 12), rows=st.integers(1, 9),
           cols=st.integers(1, 9))
    def test_nd_is_a_permutation_within_each_tile(self, n_rows, n_cols, rows, cols):
        layout = TileLayout.for_weight_matrix(n_rows, n_cols, rows, cols)
        grid = np.empty((n_rows, 2 * n_cols), dtype=np.int64)
        grid[:, 0::2], grid[:, 1::2] = layout.nd_plus, layout.nd_minus
        for r0 in range(0, n_rows, rows):
            for c0 in range(0, 2 * n_cols, cols):
                tile = grid[r0:r0 + rows, c0:c0 + cols]
                assert np.array_equal(np.sort(tile, axis=None), np.arange(tile.size))
                assert tile[-1, -1] == 0


@st.composite
def disturbance_dbs(draw) -> BiasDisturbanceDb:
    """A database of one to four groups whose lengths are all equal, mixed,
    or mixed with a length-1 group."""
    keys = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True))
    kind = draw(st.sampled_from(["uniform", "mixed", "length-1"]))
    if kind == "uniform":
        lengths = [draw(st.integers(1, 40))] * len(keys)
    else:
        lengths = draw(st.lists(st.integers(1, 40), min_size=len(keys), max_size=len(keys)))
        if kind == "length-1":
            lengths[draw(st.integers(0, len(keys) - 1))] = 1
    return BiasDisturbanceDb({k: tuple(np.linspace(-1.0, 1.0, length) + k)
                              for k, length in zip(keys, lengths)})


class TestBiasPicks:
    @given(db=disturbance_dbs(),
           n_d=arrays(np.int64, st.tuples(st.integers(1, 3), st.integers(1, 9)),
                      elements=st.integers(0, 40)),
           seed=st.integers(0, 2**32 - 1))
    def test_scalar_bound_matches_array_bounds(self, db, n_d, seed):
        lookup = db.lookup(n_d)
        if len(set(map(len, db.groups.values()))) == 1:
            assert isinstance(lookup.bounds, int)
        bounds = np.broadcast_to(lookup.bounds, n_d.shape)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = db.sample_matrix(n_d, rng)
        reference = lookup.flat[lookup.offsets + twin.integers(0, bounds)]
        assert np.array_equal(drawn, reference)
        assert rng.bit_generator.state == twin.bit_generator.state


@st.composite
def reports(draw) -> RobustnessReport:
    transfers = draw(st.integers(1, 10**6))
    counts = draw(arrays(np.int64, st.integers(1, 40), elements=st.integers(0, transfers)))
    return RobustnessReport(counts=counts, transfers=transfers)


class TestRobustnessTable:
    @given(report=reports())
    def test_counts_sum_to_the_test_size(self, report):
        edges = DEFAULT_BIN_EDGES
        bins = robustness_table(report)
        assert len(bins) == len(edges) + 1
        assert sum(b.count for b in bins) == len(report.counts)
        assert sum(b.percent for b in bins) == pytest.approx(100.0)


def stacks(rng, sizes, n, scale) -> list[tuple[np.ndarray, np.ndarray]]:
    """``n`` transfers of a net of layer ``sizes`` as ``(w, b)`` stacks of
    normal weights times ``scale``."""
    return [(m[:, :-1], m[:, -1:])
            for m in (scale * rng.normal(size=(n, fan_in + 1, fan_out))
                      for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))]


@st.composite
def transferred_nets(draw) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """``n`` transfers of a 2-k-1 or 2-a-b-1 net, as ``(w, b)`` stacks with
    weights of scale up to 30, and random points."""
    sizes = [2, *draw(st.lists(st.integers(1, 16), min_size=1, max_size=2)), 1]
    n = draw(st.integers(1, 4))
    scale = draw(st.floats(0.01, 30.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = stacks(rng, sizes, n, scale)
    return layers, rng.uniform(-3.0, 3.0, size=(draw(st.integers(1, 300)), 2))


class TestLabelErrorBound:
    @given(case=transferred_nets())
    def test_labels_equal_the_reference(self, case):
        layers, X = case
        assert np.array_equal(_predict_transferred(layers, X), reference_predict(layers, X))

    @given(case=transferred_nets())
    def test_fast_output_within_an_eighth_of_the_bound(self, case):
        layers, X = case
        z = []
        for sigmoid in (_sigmoid, expit):
            a = X
            for layer, (w, b) in enumerate(layers):
                if layer:
                    sigmoid(a, out=a)
                a = a @ w + b
            z.append(a[..., 0])
        error = np.max(np.abs(z[0] - z[1]), axis=1)
        assert np.all(error <= _margin(layers, float(np.abs(X).max())) / 8)


# Grid sides below, at and above the tile side, one cell included.
SIDES = st.sampled_from([1, GRID_TILE - 1, GRID_TILE, GRID_TILE + 1, 2 * GRID_TILE + 3])


@st.composite
def grids(draw) -> GridSpec:
    x_min, y_min = draw(st.floats(-3.0, 0.0)), draw(st.floats(-3.0, 0.0))
    return GridSpec((x_min, x_min + draw(st.floats(0.1, 4.0)), y_min,
                     y_min + draw(st.floats(0.1, 4.0))), draw(SIDES), draw(SIDES))


@st.composite
def boundary_stacks(draw, grid: GridSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """``n`` transfers of a 2-h-1 net whose output is exactly its output
    bias on one column (or row) of grid centres: two hidden units
    ``c (x - x_c)`` and ``-c (x - x_c)`` are 0 there, so their sigmoids
    are 1/2 and their output weights ``v`` and ``-v`` cancel; the other
    hidden units have output weight 0.  The bias is 0, ``_Z0`` or the
    double below it, so the labels on the column sit on either side of the
    threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, extra, axis = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 1))
    centre = draw(st.sampled_from(grid.centers()[axis].tolist()))
    (w1, b1), (w2, b2) = stacks(rng, [2, 2 + extra, 1], n, draw(st.floats(0.1, 20.0)))
    c, v = rng.uniform(0.5, 20.0, size=n), rng.uniform(-20.0, 20.0, size=n)
    w1[:, :, :2] = 0.0
    w1[:, axis, 0], w1[:, axis, 1] = c, -c
    b1[:, 0, 0], b1[:, 0, 1] = -(c * centre), c * centre
    w2[:, :, 0] = 0.0
    w2[:, 0, 0], w2[:, 1, 0] = v, -v
    b2[:, 0, 0] = draw(st.sampled_from([0.0, _Z0, np.nextafter(_Z0, -np.inf)]))
    return [(w1, b1), (w2, b2)]


class TestTiledHeatmap:
    @given(data=st.data())
    def test_tiles_count_the_reference_labels(self, data):
        grid = data.draw(grids())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sizes = data.draw(st.sampled_from([[2, 1], [2, 3, 1], [2, 8, 1], [2, 5, 3, 1]]))
        random = stacks(rng, sizes, data.draw(st.integers(1, 4)), data.draw(st.floats(0.01, 30.0)))
        layers = data.draw(st.sampled_from([random]) | boundary_stacks(grid))
        ones = _GridTiles(grid).count_ones(layers)
        assert np.array_equal(ones, reference_predict(layers, grid.points()).sum(axis=0))

    @given(grid=grids(), sizes=st.sampled_from([[2, 4, 1], [2, 8, 1], [2, 5, 3, 1]]),
           scale=st.floats(0.5, 20.0), seed=st.integers(0, 2**32 - 1),
           repetitions=st.integers(1, 3))
    def test_heatmap_equals_the_per_repetition_reference(self, synthetic_model, grid, sizes,
                                                         scale, seed, repetitions):
        rng = np.random.default_rng(seed)
        net = nn.DenseNet([nn.LayerParams(scale * rng.normal(size=(fan_out, fan_in)),
                                          scale * rng.normal(size=fan_out))
                           for fan_in, fan_out in zip(sizes[:-1], sizes[1:])])
        layouts = layouts_for_architecture(sizes)
        plan = TransferPlan(layouts, synthetic_model, 0.01, 0.01)
        ones = sum(reference_predict(
            layer_stacks(plan.apply(crossbars(net), plan.draw(1, _stream(seed, 101, i)))),
            grid.points()
        )[0].astype(np.int64) for i in range(repetitions))
        hm = heatmap(net, synthetic_model, layouts, 0.01, 0.01, grid, repetitions, seed)
        assert hm.mean.tobytes() == (ones / repetitions).reshape(grid.ny, grid.nx).tobytes()
