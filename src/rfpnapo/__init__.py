"""Prior-noise-aware preference optimization for rectified-flow models.

The package covers the full loop on analytically tractable tasks: pretrain a
velocity field, sample preference pairs with their prior noises recorded,
align with a noise-aware objective (plus fresh-noise and supervised
baselines), and verify the numerics against independent oracles.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    MissingInputError,
    NumericError,
    ParseError,
    RfpnapoError,
    ShapeError,
)
from .numerics import MlpSpec, mlp_forward, mlp_init, read_checkpoint, write_checkpoint
from .pnapo import BetaSchedule, effective_beta, pnapo_value_grad, score_gap
from .prefdata import PreferenceDataset, build_dataset, read_dataset, write_dataset
from .rectflow import cfm_objective, euler_sample
from .training import run_alignment, run_pretrain

__all__ = [
    "BetaSchedule",
    "ConfigurationError",
    "MissingInputError",
    "MlpSpec",
    "NumericError",
    "ParseError",
    "PreferenceDataset",
    "RfpnapoError",
    "ShapeError",
    "build_dataset",
    "cfm_objective",
    "effective_beta",
    "euler_sample",
    "mlp_forward",
    "mlp_init",
    "pnapo_value_grad",
    "read_checkpoint",
    "read_dataset",
    "run_alignment",
    "run_pretrain",
    "score_gap",
    "write_checkpoint",
    "write_dataset",
    "__version__",
]
