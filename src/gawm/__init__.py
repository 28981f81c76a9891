"""Group-action consistency toolkit for planar world models."""

from .se2 import DistanceParams, Pose2, se2_compose, se2_identity, se2_inverse, state_distance, wrap_angle
from .segments import (
    ActionIncrement,
    DirichletParams,
    make_compatibility_segment,
    make_inverse_segment,
    sample_dirichlet_weights,
)
from .models import (
    ExactModel,
    PerturbedModel,
    ViolationConfig,
    WorldModel,
    exact_step,
    fold_steps,
    perturbed_step,
    rollout,
    rollout_batch,
    step_batch,
)
from .metrics import (
    GacReport,
    GarReport,
    ProbeConfig,
    aggregate_gac,
    align_trajectory,
    evaluate_gac,
    evaluate_gar,
    gar_error,
)
from .config import ExperimentConfig, benchmark_config, load_config, save_config
from .config import TOOL_VERSION as __version__
