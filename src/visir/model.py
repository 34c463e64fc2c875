"""The sine-activated transformer super-resolution network and its baselines.

Pipeline: split the LR image into P x P patches, embed them linearly, add
learned positional encodings, run L residual attention blocks whose
feed-forward sublayers are sine-activated stacks, then decode to the HR grid
through a final sine stack.  Two ablation baselines share the machinery:
an equal-parameter MLP variant (GELU feed-forward, sigmoid output) and a
per-image coordinate network fitted directly to pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    affine,
    attention,
    gelu,
    layer_norm,
    no_grad,
    output_head,
    sine_activation,
)

__all__ = [
    "ModelConfig",
    "Parameters",
    "VisirModel",
    "extract_patches",
    "mhsa",
    "apply_stack",
    "encode",
    "decode_hr",
    "siren_inr_forward",
    "predict",
    "predict_loss",
    "siren_inr_loss",
    "coordinate_grid",
    "init_parameters",
    "init_siren_stack",
    "parameter_layout",
    "parameter_count",
]

VARIANTS = ("visir", "vit_mlp")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; parameter count is a pure function of this.

    Each field with "help" metadata is the CLI key ``model.<name>``.  The geometry
    (LR size, scale, channels) is not a key: the manifest or checkpoint sets it.
    """

    patch_size: int = field(default=6, metadata={"help": "LR patch edge in pixels"})
    num_layers: int = field(default=2, metadata={"help": "transformer blocks"})
    num_heads: int = field(default=4, metadata={"help": "attention heads"})
    embed_dim: int = field(default=64, metadata={"help": "token dimension"})
    lr_height: int = 60
    lr_width: int = 60
    omega0: float = field(default=20.0, metadata={"help": "sine activation frequency"})
    siren_hidden_layers: int = field(default=2, metadata={"help": "hidden layers per sine stack (1-6)"})
    siren_hidden_dim: int = field(default=64, metadata={"help": "hidden width of the sine stacks"})
    scale: int = 4
    channels: int = 3
    variant: str = field(default="visir", metadata={"help": "visir | vit_mlp"})

    def __post_init__(self):
        for f in fields(self):  # a checkpoint's JSON may hold 2.0 or true where an int belongs, true for a float
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ValueError(f"{f.name} must be a float, got {value!r}")
        for name in ("patch_size", "num_heads", "embed_dim", "siren_hidden_dim",
                     "lr_height", "lr_width", "scale", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} is not divisible by num_heads {self.num_heads}")
        if self.lr_height % self.patch_size != 0 or self.lr_width % self.patch_size != 0:
            raise ValueError(f"patch_size {self.patch_size} does not tile the {self.lr_height}x{self.lr_width} "
                             "LR grid")
        if not 1 <= self.siren_hidden_layers <= 6:
            raise ValueError("siren_hidden_layers must lie in [1, 6]")
        if not 0 < self.omega0 < math.inf:
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if self.num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def grid_rows(self) -> int:
        return self.lr_height // self.patch_size

    @property
    def grid_cols(self) -> int:
        return self.lr_width // self.patch_size

    @property
    def num_tokens(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels

    @property
    def hr_height(self) -> int:
        return self.lr_height * self.scale

    @property
    def hr_width(self) -> int:
        return self.lr_width * self.scale

    @property
    def decoder_out_dim(self) -> int:
        return (self.patch_size * self.scale) ** 2 * self.channels


class Parameters(Mapping[str, Tensor]):
    """A read-only mapping of tensors stored in one float64 vector, `vector`, which it makes
    read-only: each is a view of the next piece, named and shaped as `shapes` says."""

    def __init__(self, vector: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        sizes = [math.prod(shape) for shape in shapes.values()]
        if vector.shape != (sum(sizes),):
            raise ShapeError(f"a vector of shape {vector.shape} for {sum(sizes)} parameter values")
        vector.setflags(write=False)
        self.vector, self.shapes, self._tensors, start = vector, shapes, {}, 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self._tensors[name] = Tensor._view(vector[start:start + size].reshape(shape))
            start += size

    @classmethod
    def of(cls, tensors: Mapping[str, Tensor]) -> Parameters:
        """The tensors, copied in their order into one new vector."""
        vector = np.concatenate([p.data for p in tensors.values()], axis=None)
        return cls(vector, {name: p.shape for name, p in tensors.items()})

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)


class VisirModel:
    """A config and its read-only `params`, Parameters in parameter_layout(config) order over
    `vector`.  VisirModel(config, params) copies the tensors of the mapping `params`; other names
    or shapes are a ValueError.  Setting `vector` swaps in another of the same size (train does)."""

    def __init__(self, config: ModelConfig, params: Mapping[str, Tensor]):
        shapes = {name: shape for name, (shape, _) in parameter_layout(config).items()}
        stored = {name: p.shape for name, p in params.items()}
        if stored != shapes:
            wrong = [f"{name}: has {stored.get(name)}, config needs {shapes.get(name)}"
                     for name in sorted(stored.keys() | shapes.keys()) if stored.get(name) != shapes.get(name)]
            raise ValueError("model tensors do not match its config: " + "; ".join(wrong))
        self.config = config
        self._params = Parameters.of({name: params[name] for name in shapes})

    @classmethod
    def _over(cls, config: ModelConfig, params: Parameters) -> VisirModel:
        """The model of `config` over `params` itself, with no copy: `params` must be in
        parameter_layout(config) order (load_checkpoint reads into its vector)."""
        model = cls.__new__(cls)
        model.config, model._params = config, params
        return model

    @property
    def params(self) -> Parameters:
        return self._params

    @property
    def vector(self) -> np.ndarray:
        return self._params.vector

    @vector.setter
    def vector(self, vector: np.ndarray) -> None:
        self._params = Parameters(vector, self._params.shapes)


def parameter_count(model: VisirModel) -> int:
    return model.vector.size


# ---------------------------------------------------------------------------
# Patch plumbing
# ---------------------------------------------------------------------------

def _grid_axes(lead: int) -> tuple[int, ...]:
    # (..., rows, P, cols, P, C) <-> (..., rows, cols, P, P, C): swap the middle two axes.
    return tuple(range(lead)) + (lead, lead + 2, lead + 1, lead + 3, lead + 4)


def extract_patches(img: np.ndarray, patch_size: int) -> np.ndarray:
    """Row-major non-overlapping patches of (..., H, W, C) images: (..., N, P*P*C).

    A copy when P > 1: the last reshape merges axes that the transpose left apart in memory."""
    p = patch_size
    if img.ndim < 3 or img.shape[-3] % p != 0 or img.shape[-2] % p != 0:
        raise ShapeError(f"patch size {p} does not tile an H x W x C image of shape {img.shape}")
    *lead, h, w, c = img.shape
    x = img.reshape(*lead, h // p, p, w // p, p, c).transpose(_grid_axes(len(lead)))
    return x.reshape(*lead, h * w // (p * p), p * p * c)


def patches_to_image(tokens: np.ndarray, grid_rows: int, grid_cols: int, p_out: int, channels: int) -> np.ndarray:
    """Inverse of extract_patches at the output resolution: (..., N, P*P*C) -> (..., H, W, C), a copy."""
    lead = tokens.shape[:-2]
    x = tokens.reshape(lead + (grid_rows, grid_cols, p_out, p_out, channels)).transpose(_grid_axes(len(lead)))
    return x.copy().reshape(lead + (grid_rows * p_out, grid_cols * p_out, channels))


# ---------------------------------------------------------------------------
# Attention and sine stacks
# ---------------------------------------------------------------------------

def mhsa(tokens: Tensor, params: dict[str, Tensor], prefix: str, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over (..., N, D) tokens, heads concatenated, projected.

    The projections are params[prefix + "wq"], params[prefix + "bq"], ... "wo", "bo".
    """
    q, k, v = (affine(tokens, params[f"{prefix}w{n}"], params[f"{prefix}b{n}"]) for n in "qkv")
    return affine(attention(q, k, v, num_heads), params[f"{prefix}wo"], params[f"{prefix}bo"])


def _hidden_rows(x: Tensor, params: dict[str, Tensor], prefix: str, omega0: float,
                 hidden: str) -> tuple[Tensor, Tensor, Tensor]:
    """Every layer of the stack under `prefix` but the last, each followed by its
    activation; and the last layer's weight and bias."""
    if hidden not in ("sine", "gelu"):
        raise ValueError(f"hidden must be one of ('sine', 'gelu'), got {hidden!r}")
    depth = 0
    while f"{prefix}w{depth + 1}" in params:
        depth += 1
    for j in range(depth):
        x = affine(x, params[f"{prefix}w{j}"], params[f"{prefix}b{j}"])
        x = sine_activation(x, omega0) if hidden == "sine" else gelu(x)
    return x, params[f"{prefix}w{depth}"], params[f"{prefix}b{depth}"]


def apply_stack(x: Tensor, params: dict[str, Tensor], prefix: str, omega0: float,
                hidden: str = "sine") -> Tensor:
    """Run the affine layers params[prefix + "w0"], params[prefix + "b0"], ... in order.

    The stack is as deep as the "w{j}" keys under `prefix` reach; weights are out x in.
    hidden: "sine" (at frequency omega0) or "gelu", applied after every layer but the
    last, whose output is affine (unbounded, residual-friendly).
    """
    return affine(*_hidden_rows(x, params, prefix, omega0, hidden))


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def _hidden_act(cfg: ModelConfig) -> str:
    return "sine" if cfg.variant == "visir" else "gelu"


def _encoder_block(tokens: Tensor, model: VisirModel, i: int, act: str) -> Tensor:
    cfg = model.config
    p = model.params
    attn, ffn = f"block{i}.attn.", f"block{i}.ffn."

    def ln(which, x):
        return layer_norm(x, p[f"block{i}.{which}.gain"], p[f"block{i}.{which}.shift"])

    tokens = add(tokens, mhsa(ln("ln1", tokens), p, attn, cfg.num_heads))
    return add(tokens, apply_stack(ln("ln2", tokens), p, ffn, cfg.omega0, act))


def encode(img: np.ndarray, model: VisirModel) -> Tensor:
    """(H, W, C) LR image or (B, H, W, C) batch -> contextualized tokens, (N, D) or (B, N, D)."""
    cfg = model.config
    expected = (cfg.lr_height, cfg.lr_width, cfg.channels)
    if img.shape[-3:] != expected or img.ndim > 4:
        raise ShapeError(f"model expects an LR image of shape {expected} or a batch of them, got {img.shape}")
    p = model.params
    patches = Tensor(extract_patches(img, cfg.patch_size))
    tokens = add(affine(patches, p["embed.weight"], p["embed.bias"]), p["pos"])
    act = _hidden_act(cfg)
    for i in range(cfg.num_layers):
        tokens = _encoder_block(tokens, model, i, act)
    return tokens


def _hr_images(hr: np.ndarray | Sequence[np.ndarray], lead: tuple[int, ...],
               cfg: ModelConfig) -> Sequence[np.ndarray]:
    """The HR image of each token set of a lead-shaped batch: `hr` of shape lead + (H', W', C),
    or a sequence of that many (H', W', C) images."""
    image = (cfg.hr_height, cfg.hr_width, cfg.channels)
    if isinstance(hr, np.ndarray):
        if hr.shape != lead + image:
            raise ShapeError(f"HR target of shape {hr.shape}, model output {lead + image}")
        return hr.reshape((-1,) + image)
    if len(hr) != math.prod(lead) or any(np.shape(img) != image for img in hr):
        raise ShapeError(f"HR images of shapes {[np.shape(img) for img in hr]}, model output {lead + image}")
    return hr


def _decode(tokens: Tensor, model: VisirModel, hr: np.ndarray | Sequence[np.ndarray] | None = None) -> Tensor:
    """The decoder's output in [0, 1] in token layout, (..., N, P'*P'*C); given the HR
    images `hr` (see _hr_images), its MSE against them."""
    cfg = model.config
    lead = tokens.shape[:-2]
    if tokens.shape[-2:] != (cfg.num_tokens, cfg.embed_dim):
        raise ShapeError(f"decoder expects {cfg.num_tokens}x{cfg.embed_dim} tokens, got {tokens.shape}")
    target = None
    if hr is not None:  # views in token order, not extract_patches' copies
        p = cfg.patch_size * cfg.scale
        target = [np.reshape(img, (cfg.grid_rows, p, cfg.grid_cols, p, cfg.channels)).transpose(_grid_axes(0))
                  for img in _hr_images(hr, lead, cfg)]
    rows, weight, bias = _hidden_rows(tokens, model.params, "decoder.", cfg.omega0, _hidden_act(cfg))
    return output_head(rows, weight, bias, cfg.omega0, "sine" if cfg.variant == "visir" else "sigmoid", target)


def decode_hr(tokens: Tensor, model: VisirModel) -> Tensor:
    """Tokens, (N, D) or (B, N, D) -> HR image in [0, 1], (H, W, C) or (B, H, W, C); inference,
    which records no tape entry.

    The shared decoder stack maps each token to its own HR patch.
    """
    cfg = model.config
    with no_grad():
        out = _decode(tokens, model).data
    return Tensor._view(patches_to_image(out, cfg.grid_rows, cfg.grid_cols, cfg.patch_size * cfg.scale,
                                         cfg.channels))


def predict(img: np.ndarray, model: VisirModel) -> Tensor:
    """(H, W, C) LR image or (B, H, W, C) batch -> HR image(s) in [0, 1], (H', W', C) or
    (B, H', W', C); the inference forward of both variants (sine stacks and output, or the MLP
    baseline's GELU stacks and sigmoid output), which records no tape entry: predict_loss is
    the one to differentiate.  A batch gives each image's own output."""
    with no_grad():
        return decode_hr(encode(img, model), model)


def predict_loss(img: np.ndarray, hr: np.ndarray | Sequence[np.ndarray], model: VisirModel) -> Tensor:
    """Mean squared error of predict(img, model) against `hr`, of predict's output shape or,
    for a batch, a sequence of its (H', W', C) images.

    The same encoder and decoder as predict, but the decoder's last layer, output and loss
    are one autodiff.output_head entry, so the HR image is never made, and a batch's HR
    images need not be stacked."""
    return _decode(encode(img, model), model, hr)


# ---------------------------------------------------------------------------
# Coordinate-network baseline
# ---------------------------------------------------------------------------

def coordinate_grid(h: int, w: int) -> np.ndarray:
    """Pixel-center coordinates of an h x w grid, both axes in [-1, 1]."""
    ys = (np.arange(h) + 0.5) / h * 2.0 - 1.0
    xs = (np.arange(w) + 0.5) / w * 2.0 - 1.0
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return np.stack([yy, xx], axis=-1)


def _coordinate_rows(coords: np.ndarray, params: dict[str, Tensor],
                     omega0: float) -> tuple[Tensor, Tensor, Tensor]:
    in_dim = params["w0"].shape[1]
    if coords.shape[-1] != in_dim:
        raise ShapeError(f"coordinates have dim {coords.shape[-1]}, stack expects {in_dim}")
    return _hidden_rows(Tensor(coords.reshape(-1, in_dim)), params, "", omega0, "sine")


def siren_inr_forward(coords: np.ndarray, params: dict[str, Tensor], omega0: float) -> Tensor:
    """Coordinate network: (..., 2) grid -> (..., C) image values in [0, 1]; inference, which
    records no tape entry (siren_inr_loss is the one to differentiate).

    `params` is a sine stack as init_siren_stack draws it ("w0", "b0", ...).
    """
    with no_grad():
        out = output_head(*_coordinate_rows(coords, params, omega0), omega0, "sine").data
    return Tensor._view(out.reshape(coords.shape[:-1] + out.shape[-1:]))


def siren_inr_loss(coords: np.ndarray, target: np.ndarray, params: dict[str, Tensor], omega0: float) -> Tensor:
    """Mean squared error of siren_inr_forward(coords, params, omega0) against `target`, (..., C),
    through one autodiff.output_head entry."""
    rows, weight, bias = _coordinate_rows(coords, params, omega0)
    expected = coords.shape[:-1] + weight.shape[:1]
    if target.shape != expected:
        raise ShapeError(f"target of shape {target.shape}, coordinate-net output {expected}")
    return output_head(rows, weight, bias, omega0, "sine", [target])


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _stack_layout(prefix: str, dims: list[int], omega0: float, sine_init: bool) -> dict[str, tuple]:
    layout = {}
    for j, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        if sine_init:
            bound = 1.0 / fan_in if j == 0 else math.sqrt(6.0 / fan_in) / omega0
        else:
            bound = 1.0 / math.sqrt(fan_in)
        layout[f"{prefix}w{j}"] = ((fan_out, fan_in), bound)
        layout[f"{prefix}b{j}"] = ((fan_out,), 1.0 / math.sqrt(fan_in))
    return layout


def parameter_layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], float | None]]:
    """Name -> (shape, init bound) of every parameter, in the order init_parameters draws them.

    A bound b means uniform in +-b; None marks a layer-norm tensor (gain 1, shift 0).
    Sine stacks follow the coordinate-network scheme: first layer uniform in
    +-1/fan_in, deeper layers +-sqrt(6/fan_in)/omega0.  Attention, embedding
    and MLP-variant stacks use uniform +-1/sqrt(fan_in).
    """
    cfg = config
    d = cfg.embed_dim
    sine_init = cfg.variant == "visir"
    layout = {"embed.weight": ((d, cfg.patch_dim), 1.0 / math.sqrt(cfg.patch_dim)),
              "embed.bias": ((d,), 1.0 / math.sqrt(cfg.patch_dim)),
              "pos": ((cfg.num_tokens, d), 1.0 / math.sqrt(d))}
    for i in range(cfg.num_layers):
        for name in ("q", "k", "v", "o"):
            layout[f"block{i}.attn.w{name}"] = ((d, d), 1.0 / math.sqrt(d))
            layout[f"block{i}.attn.b{name}"] = ((d,), 1.0 / math.sqrt(d))
        for name in ("ln1.gain", "ln1.shift", "ln2.gain", "ln2.shift"):
            layout[f"block{i}.{name}"] = ((d,), None)
        ffn_dims = [d] + [cfg.siren_hidden_dim] * cfg.siren_hidden_layers + [d]
        layout.update(_stack_layout(f"block{i}.ffn.", ffn_dims, cfg.omega0, sine_init))
    dec_dims = [d] + [cfg.siren_hidden_dim] * cfg.siren_hidden_layers + [cfg.decoder_out_dim]
    layout.update(_stack_layout("decoder.", dec_dims, cfg.omega0, sine_init))
    return layout


def _draw(layout: dict[str, tuple], seed: int) -> dict[str, Tensor]:
    """Trainable tensors for `layout`, reproducible bit-for-bit from the seed."""
    rng = np.random.default_rng(seed)
    return {name: Tensor._view(rng.uniform(-bound, bound, size=shape) if bound is not None
                               else np.full(shape, 1.0 if name.endswith(".gain") else 0.0))
            for name, (shape, bound) in layout.items()}


def init_siren_stack(dims: list[int], omega0: float, seed: int) -> Parameters:
    """Standalone sine stack "w0", "b0", ... (the coordinate-network baseline's parameters)."""
    return Parameters.of(_draw(_stack_layout("", dims, omega0, sine_init=True), seed))


def init_parameters(config: ModelConfig, seed: int) -> VisirModel:
    """Fresh model, reproducible bit-for-bit from the seed; see parameter_layout."""
    return VisirModel(config, _draw(parameter_layout(config), seed))


def as_mlp_baseline(config: ModelConfig) -> ModelConfig:
    """Same geometry, MLP variant: parameter count matches exactly."""
    return replace(config, variant="vit_mlp")
