"""adamoge: frequency-domain forecaster with an adaptive Gaussian expert bank."""

from .autodiff import ParameterStore, Tape, Variable, grad_check
from .data import load_csv, prepare
from .moge import AdaMoGeModel, ModelConfig
from .training import EvalReport, TrainConfig, fit, grid_search

__all__ = [
    "AdaMoGeModel",
    "EvalReport",
    "ModelConfig",
    "ParameterStore",
    "Tape",
    "TrainConfig",
    "Variable",
    "fit",
    "grad_check",
    "grid_search",
    "load_csv",
    "prepare",
]
__version__ = "0.1.0"
