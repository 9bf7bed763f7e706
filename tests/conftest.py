import numpy as np
import pytest
from hypothesis import settings
from scipy.special import expit

from xbartrain.datasets import make_half_moons
from xbartrain.training import TrainingConfig, train_hardware_aware, train_regular
from xbartrain.transfer import layer_to_crossbar
from xbartrain.variability import (
    BiasDisturbanceDb,
    LinearStdModel,
    OffsetModel,
    StuckModel,
    VariabilityModel,
    make_synthetic_model,
)

# Property tests run a fixed, bounded set of examples: tier-1 stays
# deterministic and fast, and no example database is written.
settings.register_profile("xbartrain", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("xbartrain")

# Matches the stream derivation used by experiments.experiment_dataset for
# the default config, so fixture nets line up with CLI runs.
DATASET_SEED = np.random.SeedSequence([0, 102])


def zero_noise_model() -> VariabilityModel:
    """Every stochastic source disabled; transfers become deterministic."""
    return VariabilityModel(
        std_model=LinearStdModel.zero(),
        offset_model=OffsetModel.zero(),
        bias_db=BiasDisturbanceDb.zero(),
        stuck_model=StuckModel(10.0, 100.0, (900.0,)),
    )


def crossbars(net):
    """The crossbar matrix of every layer of ``net``, bias row included."""
    return [layer_to_crossbar(layer.weights, layer.bias) for layer in net.layers]


def layer_stacks(outcomes):
    """The per-layer ``(w, b)`` stacks of transferred crossbar matrices:
    views of the weight rows and of the bias row."""
    return [(o.phi_prime[:, :-1], o.phi_prime[:, -1:]) for o in outcomes]


def reference_predict(layers, X):
    """The unblocked forward of ``(w, b)`` stacks: expit after every
    layer, then > 0.5."""
    a = np.asarray(X, dtype=float)
    for w, b in layers:
        a = expit(a @ w + b)
    return a[..., 0] > 0.5


@pytest.fixture(scope="session")
def synthetic_model():
    return make_synthetic_model()


@pytest.fixture(scope="session")
def zero_model():
    return zero_noise_model()


@pytest.fixture(scope="session")
def moons_split():
    return make_half_moons(1075, noise_std=0.1, seed=DATASET_SEED).split(875)


@pytest.fixture(scope="session")
def default_config():
    return TrainingConfig(seed=0)


@pytest.fixture(scope="session")
def trained_hann(default_config, moons_split, synthetic_model):
    train_set, _ = moons_split
    return train_hardware_aware(default_config, train_set, model=synthetic_model)


@pytest.fixture(scope="session")
def trained_regular(default_config, moons_split):
    train_set, _ = moons_split
    return train_regular(default_config, train_set)
