"""Optimization loop, split evaluation, the frequency x depth sweep, and
checkpoint persistence.

Training is deterministic: (seed, config, data) fully determine the final
parameters, so checkpoints from identical runs are byte-identical.  The loss
is plain MSE on unit-interval pixels.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import (
    NonFiniteError,
    Tensor,
    backward,
    clear_tape,
    init_adam,
    adam_step,
)
from .data import SRPair
from .metrics import MetricsReport, evaluate_pair
from .model import (
    ModelConfig,
    Parameters,
    VisirModel,
    coordinate_grid,
    init_parameters,
    init_siren_stack,
    parameter_layout,
    predict,
    predict_loss,
    siren_inr_forward,
    siren_inr_loss,
)

__all__ = [
    "TrainConfig",
    "TrainResult",
    "SummaryStat",
    "EvalSummary",
    "SweepResult",
    "DivergenceError",
    "CheckpointFormatError",
    "CheckpointMismatchError",
    "train",
    "evaluate",
    "sweep",
    "fit_siren_inr",
    "save_checkpoint",
    "load_checkpoint",
    "write_loss_curve",
    "write_eval_curve",
    "write_eval_csv",
    "write_sweep_csv",
]

CHECKPOINT_MAGIC = b"VSCK"
CHECKPOINT_VERSION = 3


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"training diverged at step {step}" + (f": {detail}" if detail else ""))


class CheckpointFormatError(ValueError):
    """Checkpoint bytes are not a valid model file."""


class CheckpointMismatchError(ValueError):
    """Checkpoint does not fit the command's other inputs (flags, manifest, image)."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = field(default=1e-4, metadata={"help": "Adam learning rate"})
    steps: int = field(default=500, metadata={"help": "optimization steps"})
    batch_size: int = field(default=1, metadata={"help": "images per step"})
    seed: int = 0
    eval_interval: int = field(default=0, metadata={"help": "steps between test-split PSNR probes (0 = never)"})

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.eval_interval < 0:
            raise ValueError(f"eval_interval must be >= 0, got {self.eval_interval}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainResult:
    model: VisirModel
    curve: list[tuple[int, float]]
    eval_curve: list[tuple[int, float]] = field(default_factory=list)

    @property
    def final_loss(self) -> float | None:
        return self.curve[-1][1] if self.curve else None


def _adam_update(params: Parameters, opt, loss_fn, step: int) -> tuple[np.ndarray, float]:
    """One Adam step on `loss_fn()`: (new parameter vector, loss value).

    A non-finite value in the forward or backward pass is a DivergenceError at `step`, not a warning."""
    try:
        with np.errstate(all="ignore"):
            loss = loss_fn()
            return adam_step(params.vector, opt, backward(loss, params)), loss.item()
    except NonFiniteError as exc:
        clear_tape()
        raise DivergenceError(step, str(exc)) from exc


def train(model: VisirModel, pairs: Sequence[SRPair], cfg: TrainConfig,
          eval_pairs: Sequence[SRPair] | None = None) -> TrainResult:
    """Adam on the MSE reconstruction loss over `pairs`, swapping `model.vector` once a step;
    mean PSNR on `eval_pairs` every `cfg.eval_interval` steps."""
    if not pairs:
        raise ValueError("no training pairs")
    rng = np.random.default_rng(cfg.seed)
    opt = init_adam(model.vector, lr=cfg.learning_rate)
    curve: list[tuple[int, float]] = []
    eval_curve: list[tuple[int, float]] = []
    for step in range(1, cfg.steps + 1):
        batch = [pairs[i] for i in rng.integers(0, len(pairs), size=cfg.batch_size)]
        lr, hr = np.stack([p.lr for p in batch]), [p.hr for p in batch]  # the HR images are not copied
        model.vector, value = _adam_update(model.params, opt, lambda: predict_loss(lr, hr, model), step)
        curve.append((step, value))
        if eval_pairs and cfg.eval_interval > 0 and step % cfg.eval_interval == 0:
            _, summary = evaluate(model, eval_pairs)
            eval_curve.append((step, summary.psnr.mean))
    return TrainResult(model=model, curve=curve, eval_curve=eval_curve)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryStat:
    max: float
    mean: float
    min: float


@dataclass(frozen=True)
class EvalSummary:
    mse: SummaryStat
    psnr: SummaryStat
    ssim: SummaryStat
    count: int
    psnr_inf_count: int


def _summarize(reports: Sequence[MetricsReport]) -> EvalSummary:
    mses = [r.mse for r in reports]
    psnrs = [r.psnr for r in reports]
    ssims = [r.ssim for r in reports]
    finite_psnrs = [p for p in psnrs if math.isfinite(p)]
    psnr_mean = float(np.mean(finite_psnrs)) if finite_psnrs else math.inf
    return EvalSummary(
        mse=SummaryStat(max(mses), float(np.mean(mses)), min(mses)),
        psnr=SummaryStat(max(psnrs), psnr_mean, min(psnrs)),
        ssim=SummaryStat(max(ssims), float(np.mean(ssims)), min(ssims)),
        count=len(reports),
        psnr_inf_count=len(psnrs) - len(finite_psnrs),
    )


def evaluate(model: VisirModel, pairs: Sequence[SRPair]) -> tuple[list[MetricsReport], EvalSummary]:
    """Per-image metric reports for `pairs` plus their Max/Mean/Min summary.

    Infinite PSNR values (perfect reconstructions) are excluded from the
    mean; psnr_inf_count says how many were dropped.
    """
    if not pairs:
        raise ValueError("empty evaluation split")
    reports = [evaluate_pair(pair.hr, predict(pair.lr, model).data) for pair in pairs]
    return reports, _summarize(reports)


# ---------------------------------------------------------------------------
# Hyperparameter sweep
# ---------------------------------------------------------------------------

DEFAULT_FREQUENCIES = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DEFAULT_LAYER_COUNTS = (1, 2, 3, 4, 5, 6)


@dataclass
class SweepResult:
    frequencies: tuple[float, ...]
    layer_counts: tuple[int, ...]
    cells: dict[tuple[int, float], float]  # (layers, omega0) -> mean test PSNR, NaN = failed
    failures: list[tuple[int, float, str]]

    def best(self) -> tuple[tuple[int, float], float]:
        finite = {k: v for k, v in self.cells.items() if math.isfinite(v)}
        if not finite:
            raise ValueError("every sweep cell failed")
        key = max(finite, key=finite.get)
        return key, finite[key]


def sweep(base_config: ModelConfig, split: dict[str, Sequence[SRPair]], train_cfg: TrainConfig,
          frequencies: Sequence[float] = DEFAULT_FREQUENCIES,
          layer_counts: Sequence[int] = DEFAULT_LAYER_COUNTS) -> SweepResult:
    """Train one model per (hidden layers, omega0) cell on split["train"] under
    one budget, and score it on split["test"].

    Every requested cell appears in the result exactly once: either a finite
    mean test PSNR or NaN with an entry in `failures`.  Every cell's config is
    made, and so checked, before any cell trains.
    """
    if not frequencies or not layer_counts:
        raise ValueError("sweep grid must be non-empty")
    # A repeated grid value is one row or column, in first-seen order.
    frequencies, layer_counts = tuple(dict.fromkeys(map(float, frequencies))), tuple(dict.fromkeys(layer_counts))
    train_pairs, test_pairs = split["train"], split["test"]
    configs = {(layers, freq): replace(base_config, siren_hidden_layers=layers, omega0=freq)
               for layers in layer_counts for freq in frequencies}
    cells: dict[tuple[int, float], float] = {}
    failures: list[tuple[int, float, str]] = []
    for (layers, freq), cfg in configs.items():
        model = init_parameters(cfg, train_cfg.seed)
        try:
            train(model, train_pairs, train_cfg)
            _, summary = evaluate(model, test_pairs)
            cells[(layers, freq)] = summary.psnr.mean
        except DivergenceError as exc:
            cells[(layers, freq)] = math.nan
            failures.append((layers, freq, str(exc)))
    return SweepResult(frequencies, layer_counts, cells, failures)


# ---------------------------------------------------------------------------
# Per-image coordinate-network fitting (the "SIREN" baseline)
# ---------------------------------------------------------------------------

def fit_siren_inr(pair: SRPair, hidden_dim: int = 64, hidden_layers: int = 2,
                  omega0: float = 20.0, steps: int = 1000, learning_rate: float = 1e-4,
                  seed: int = 0) -> tuple[Parameters, np.ndarray]:
    """Fit a coordinate network to one image's LR pixels, decode the HR grid.

    Returns the fitted parameters (for siren_inr_forward) and the HR-grid reconstruction.
    """
    channels = pair.lr.shape[2]
    params = init_siren_stack([2] + [hidden_dim] * hidden_layers + [channels], omega0, seed)
    opt = init_adam(params.vector, lr=learning_rate)
    lr_coords = coordinate_grid(pair.lr.shape[0], pair.lr.shape[1])

    def loss() -> Tensor:
        return siren_inr_loss(lr_coords, pair.lr, params, omega0)

    for step in range(1, steps + 1):
        vector, _ = _adam_update(params, opt, loss, step)
        params = Parameters(vector, params.shapes)
    hr_coords = coordinate_grid(pair.hr.shape[0], pair.hr.shape[1])
    return params, siren_inr_forward(hr_coords, params, omega0).data


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: VisirModel, path) -> None:
    """Magic, version, canonical config, then the parameter vector as little-endian f64 values
    (parameter_layout(config) order, as the model stores them)."""
    config = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(config)) + config)
        fh.write(np.asarray(model.vector, dtype="<f8"))


def load_checkpoint(path) -> VisirModel:
    """The model that save_checkpoint wrote.  The file's size is checked against its
    config's layout first, then its values are read once, into the model's vector."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError("not a checkpoint: no VSCK header")
        version, size = struct.unpack_from("<II", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        payload = os.fstat(fh.fileno()).st_size - 12 - size
        if payload < 0:
            raise CheckpointFormatError(f"truncated checkpoint: its config needs {size} bytes, have {payload + size}")
        try:
            doc = json.loads(fh.read(size).decode("utf-8"))
            # Every field must be stored: a missing one would silently take its default.
            names = {f.name for f in fields(ModelConfig)}
            if set(doc) != names:
                raise ValueError(f"missing fields {sorted(names - set(doc))}, unknown fields {sorted(set(doc) - names)}")
            config = ModelConfig(**doc)
        except (ValueError, TypeError) as exc:
            raise CheckpointFormatError(f"bad checkpoint config: {exc}") from exc
        shapes = {name: shape for name, (shape, _) in parameter_layout(config).items()}
        count = sum(math.prod(shape) for shape in shapes.values())
        if payload < 8 * count:
            raise CheckpointFormatError(f"truncated checkpoint: its config needs {8 * count} payload bytes, "
                                        f"have {payload}")
        if payload > 8 * count:
            raise CheckpointFormatError("trailing bytes after checkpoint payload")
        vector = np.empty(count, dtype="<f8")
        if fh.readinto(vector) != vector.nbytes:
            raise CheckpointFormatError("truncated checkpoint: the file shrank while it was read")
    params = Parameters(vector.astype(np.float64, copy=False), shapes)
    if not np.isfinite(params.vector).all():
        name = next(name for name, p in params.items() if not np.isfinite(p.data).all())
        raise CheckpointFormatError(f"tensor '{name}' holds a non-finite value")
    return VisirModel._over(config, params)


# ---------------------------------------------------------------------------
# CSV emission (decimal, '.' radix, locale-independent)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _write_curve(header: str, curve: Sequence[tuple[int, float]], path) -> None:
    lines = [header] + [f"{step},{_fmt(value)}" for step, value in curve]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_loss_curve(curve: Sequence[tuple[int, float]], path) -> None:
    _write_curve("step,loss", curve, path)


def write_eval_curve(curve: Sequence[tuple[int, float]], path) -> None:
    """TrainResult.eval_curve: the mean test PSNR at every eval_interval steps."""
    _write_curve("step,psnr", curve, path)


def write_eval_csv(ids: Sequence[str], reports: Sequence[MetricsReport], path) -> None:
    lines = ["image_id,mse,psnr,ssim"]
    for pair_id, r in zip(ids, reports):
        lines.append(f"{pair_id},{_fmt(r.mse)},{_fmt(r.psnr)},{_fmt(r.ssim)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_csv(result: SweepResult, path) -> None:
    header = "hidden_layers," + ",".join(_fmt(f) for f in result.frequencies)
    lines = [header]
    for layers in result.layer_counts:
        row = [str(layers)]
        for freq in result.frequencies:
            value = result.cells[(layers, freq)]
            row.append("failed" if math.isnan(value) else _fmt(value))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
