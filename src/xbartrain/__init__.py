"""Crossbar variability modelling and hardware-aware training toolkit."""

__version__ = "0.1.0"

from .variability import (
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
    save_model,
    shapiro_wilk,
)
from .transfer import (
    TileLayout,
    TransferOutcome,
    TransferPlan,
    WeightRangeSnapshot,
    from_conductance,
    layouts_for_architecture,
    perturb_conductance,
    simulate_transfer,
    split_signed,
    to_conductance,
)
from .nn import AdamState, DenseNet, LayerParams, adam_step, backward, bce_loss, forward
from .training import (
    EpsilonSample,
    SourceToggles,
    TrainingConfig,
    EffectiveParams,
    sample_epsilon,
    train_hardware_aware,
    train_regular,
)
from .datasets import LabeledSet, make_half_moons
from .experiments import (
    ExperimentConfig,
    GridSpec,
    HeatmapGrid,
    RobustnessReport,
    evaluate_transfers,
    heatmap,
    robustness_curve,
    robustness_table,
    run_experiment,
)
