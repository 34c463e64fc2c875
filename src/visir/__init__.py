"""Single-image super-resolution with a sine-activated transformer encoder.

Subpackages:
  autodiff -- dense float64 tensors, tape-based reverse-mode gradients, Adam
  model    -- the hybrid network, its MLP and coordinate-network baselines
  metrics  -- MSE / PSNR / global SSIM
  data     -- synthetic fields, tiling, bicubic reduction, file formats
  training -- training loop, evaluation, frequency sweep, checkpoints
  cli      -- build-data / train / eval / sweep / reconstruct commands
"""

from .autodiff import Tensor, backward, no_grad
from .data import DataConfig, DatasetManifest, SRPair, build_dataset, load_manifest, load_pairs
from .metrics import MetricsReport, evaluate_pair, mse, psnr, ssim
from .model import ModelConfig, VisirModel, init_parameters, predict
from .training import TrainConfig, evaluate, load_checkpoint, save_checkpoint, sweep, train

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "DataConfig",
    "DatasetManifest",
    "SRPair",
    "build_dataset",
    "load_manifest",
    "load_pairs",
    "MetricsReport",
    "evaluate_pair",
    "mse",
    "psnr",
    "ssim",
    "ModelConfig",
    "VisirModel",
    "init_parameters",
    "predict",
    "TrainConfig",
    "evaluate",
    "load_checkpoint",
    "save_checkpoint",
    "sweep",
    "train",
    "__version__",
]
