"""caplab: desk-scale adversarial robustness laboratory.

The library estimates the set of logit outputs reachable under a bounded
input perturbation with a particle-based corner search, trains networks with
a corner-confinement regularizer against plain and adversarially trained
baselines, and evaluates robustness with FGSM/PGD.
"""

from .attacks import AttackConfig, attack, clean_accuracy, fgsm, pgd, robust_accuracy
from .data import Dataset, gen_blobs, gen_moons, load_csv, split
from .errors import CapLabError, ConfigError, CsvParseError, NumericsError, ShapeError
from .nn import (
    ForwardTrace,
    Layer,
    MlpModel,
    forward,
    grad_input,
    grad_params,
    init_mlp,
    load_model,
    save_model,
    softmax,
)
from .polytope import (
    CornerConfig,
    ParticleSet,
    PerturbationBudget,
    PolytopeEstimate,
    ascend_step,
    find_corners,
    init_particles,
    mean_diameter,
    project,
)
from .train import (
    EpochRecord,
    OptimizerState,
    TrainConfig,
    TrainReport,
    init_optimizer,
    sgd_step,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "CapLabError",
    "ConfigError",
    "CornerConfig",
    "CsvParseError",
    "Dataset",
    "EpochRecord",
    "ForwardTrace",
    "Layer",
    "MlpModel",
    "NumericsError",
    "OptimizerState",
    "ParticleSet",
    "PerturbationBudget",
    "PolytopeEstimate",
    "ShapeError",
    "TrainConfig",
    "TrainReport",
    "ascend_step",
    "attack",
    "clean_accuracy",
    "fgsm",
    "find_corners",
    "forward",
    "gen_blobs",
    "gen_moons",
    "grad_input",
    "grad_params",
    "init_mlp",
    "init_optimizer",
    "init_particles",
    "load_csv",
    "load_model",
    "mean_diameter",
    "pgd",
    "project",
    "robust_accuracy",
    "save_model",
    "sgd_step",
    "softmax",
    "split",
    "train",
]
