"""caplab: desk-scale adversarial robustness laboratory.

The library estimates the set of logit outputs reachable under a bounded
input perturbation with a particle-based corner search, trains networks with
a corner-confinement regularizer against plain and adversarially trained
baselines, and evaluates robustness with FGSM/PGD.
"""

from .attacks import AttackConfig, attack, clean_accuracy, fgsm, pgd, robust_accuracy
from .data import Dataset, MinMaxScaling, gen_blobs, gen_moons, load_csv, save_csv, split
from .errors import CapLabError, ConfigError, CsvParseError, NumericsError, ShapeError
from .nn import (
    ForwardTrace,
    Layer,
    MlpModel,
    cross_entropy,
    forward,
    grad_input,
    grad_params,
    init_mlp,
    load_model,
    one_hot,
    predict_classes,
    save_model,
    softmax,
)
from .polytope import (
    CornerConfig,
    ParticleSet,
    PerturbationBudget,
    PolytopeEstimate,
    ascend_step,
    diameter,
    empirical_center,
    find_corners,
    find_corners_many,
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
    "MinMaxScaling",
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
    "cross_entropy",
    "diameter",
    "empirical_center",
    "fgsm",
    "find_corners",
    "find_corners_many",
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
    "one_hot",
    "pgd",
    "predict_classes",
    "project",
    "robust_accuracy",
    "save_csv",
    "save_model",
    "sgd_step",
    "softmax",
    "split",
    "train",
]
