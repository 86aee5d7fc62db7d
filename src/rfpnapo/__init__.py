"""Prior-noise-aware preference optimization for rectified-flow models.

The package covers the full loop on analytically tractable tasks: pretrain a
velocity field, sample preference pairs with their prior noises recorded,
align with a noise-aware objective (plus fresh-noise and supervised
baselines), and verify the numerics against independent oracles.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DataError,
    MissingInputError,
    NumericError,
    ParseError,
    RfpnapoError,
    ShapeError,
)
from .numerics import MlpSpec, mlp_forward, mlp_init, read_checkpoint, write_checkpoint
from .pnapo import AlignConfig, BetaSchedule, effective_beta, pnapo_value_grad, score
from .prefdata import PreferenceDataset, RewardSpec, build_dataset, read_dataset, write_dataset
from .rectflow import FlowBatch, SamplerConfig, cfm_objective, euler_sample, interpolate
from .training import run_alignment, run_pretrain

__all__ = [
    "AlignConfig",
    "BetaSchedule",
    "ConfigurationError",
    "DataError",
    "FlowBatch",
    "MissingInputError",
    "MlpSpec",
    "NumericError",
    "ParseError",
    "PreferenceDataset",
    "RewardSpec",
    "RfpnapoError",
    "SamplerConfig",
    "ShapeError",
    "build_dataset",
    "cfm_objective",
    "effective_beta",
    "euler_sample",
    "interpolate",
    "mlp_forward",
    "mlp_init",
    "pnapo_value_grad",
    "read_checkpoint",
    "read_dataset",
    "run_alignment",
    "run_pretrain",
    "score",
    "write_checkpoint",
    "write_dataset",
    "__version__",
]
