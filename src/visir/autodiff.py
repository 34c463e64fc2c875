"""Dense float64 tensors with tape-based reverse-mode differentiation.

The tape is define-by-run: every primitive called outside ``no_grad``
appends one entry, so wrap inference in ``no_grad``.  ``backward(loss,
params)`` pops the entries in reverse, dropping each one and its output
gradient as it passes, and returns the gradients of ``params``: those
tensors, and no flag on a tensor, decide what is differentiated.  Each thread
has its own tape and its own ``no_grad`` flag, and tensors are immutable, so
threads may share parameter tensors for training as well as for inference.

``affine``, ``attention``, ``mse_loss`` and ``unit_sine`` are fused: each is one
tape entry for what would otherwise be a chain of them.  ``affine`` and
``attention`` take any leading axes (a batch, and inside ``attention`` the
heads) as a stack of separate products, so an image's result does not depend
on the batch it is in.  ``matmul`` stays 2-d only.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "clear_tape",
    "tape_length",
    "backward",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "matmul",
    "transpose",
    "reshape",
    "narrow",
    "concat",
    "tensor_sum",
    "mean",
    "sine_activation",
    "unit_sine",
    "gelu",
    "sigmoid",
    "softmax",
    "layer_norm",
    "affine",
    "attention",
    "mse_loss",
    "OptimizerState",
    "init_adam",
    "adam_step",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared where only finite values are legal."""


class Tensor:
    """Immutable dense array of float64 values."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        _check_finite(arr)
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path: arr is a fresh array owned by the caller.
        _check_finite(arr)
        out = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        arr.setflags(write=False)
        out.data = arr
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError("non-finite value in tensor")


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

@dataclass
class _TapeEntry:
    out: Tensor
    parents: tuple[Tensor, ...]
    # Maps the gradient at `out` to the gradient at each parent.
    pull: Callable[[np.ndarray], tuple]


class _ThreadState(threading.local):
    def __init__(self):
        self.tape: list[_TapeEntry] = []
        self.grad_enabled = True
        self.last_grads: dict[int, np.ndarray] = {}


_state = _ThreadState()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording in this thread inside the block (evaluation / init paths)."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def clear_tape() -> None:
    _state.tape.clear()


def tape_length() -> int:
    return len(_state.tape)


def _make(arr: np.ndarray, parents: Sequence[Tensor], pull) -> Tensor:
    out = Tensor._wrap(arr)
    if _state.grad_enabled:
        _state.tape.append(_TapeEntry(out, tuple(parents), pull))
    return out


def _pull_into(grads: dict[int, np.ndarray], leaves: dict[int, np.ndarray], entry: _TapeEntry) -> None:
    g = grads.pop(id(entry.out), None)
    if g is None:
        return
    for parent, pg in zip(entry.parents, entry.pull(g)):
        key = id(parent)
        if key in leaves:
            leaves[key] += pg
        elif key in grads:  # never in place: a pull may hand one array to two parents
            grads[key] = grads[key] + pg
        else:
            grads[key] = pg


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradient of the scalar ``loss`` with respect to each tensor in ``params``, keyed
    as given; zeros for a tensor that does not feed the loss.  The tensors in
    ``params`` must be leaves, made by no primitive on the tape.

    The tape is popped one entry at a time, so an intermediate and its gradient are
    freed once the sweep has passed the entries that use and make it; the rest of
    the tape is cleared whether or not the sweep succeeds.
    """
    try:
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        # Made before the sweep frees the forward's memory, and kept until the next call, so that
        # malloc keeps that memory for the next step instead of returning it and faulting it in again.
        leaves = _state.last_grads = {id(p): np.zeros(p.shape) for p in params.values()}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        while _state.tape:
            _pull_into(grads, leaves, _state.tape.pop())
        return {name: leaves[id(p)] for name, p in params.items()}
    finally:
        clear_tape()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from exc

    def pull(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub: cannot broadcast {a.shape} with {b.shape}") from exc

    def pull(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from exc

    def pull(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), pull)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents disagree, {a.shape} x {b.shape}")
    out = a.data @ b.data

    def pull(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), pull)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    out = np.transpose(a.data, axes).copy()
    inv = None if axes is None else tuple(np.argsort(axes))

    def pull(g):
        return (np.transpose(g, inv).copy(),)

    return _make(out, (a,), pull)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape).copy()

    def pull(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), pull)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of extent `length` along `axis`."""
    if not 0 <= start <= start + length <= a.shape[axis]:
        raise ShapeError(f"narrow: [{start}, {start + length}) outside axis of extent {a.shape[axis]}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.data[index].copy()

    def pull(g):
        full = np.zeros(a.shape)
        full[index] = g
        return (full,)

    return _make(out, (a,), pull)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat of an empty sequence")
    out = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def pull(g):
        return tuple(piece for piece in np.split(g, splits, axis=axis))

    return _make(out, tuple(parts), pull)


def tensor_sum(a: Tensor) -> Tensor:
    out = np.array(a.data.sum())

    def pull(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), pull)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    out = a.data.mean(axis=axis)
    count = a.size if axis is None else a.shape[axis]

    def pull(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return _make(np.asarray(out), (a,), pull)


def sine_activation(a: Tensor, omega0: float) -> Tensor:
    """Elementwise sin(omega0 * x); omega0 tunes the represented frequency band."""
    omega0 = float(omega0)
    inner = omega0 * a.data
    out = np.sin(inner)

    def pull(g):
        return (g * omega0 * np.cos(inner),)

    return _make(out, (a,), pull)


def unit_sine(a: Tensor, omega0: float) -> Tensor:
    """(sin(omega0 * x) + 1) / 2: the sine activation mapped onto [0, 1]."""
    omega0 = float(omega0)
    inner = omega0 * a.data
    out = (np.sin(inner) + 1.0) * 0.5

    def pull(g):
        return (g * 0.5 * omega0 * np.cos(inner),)

    return _make(out, (a,), pull)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    out = x * cdf

    def pull(g):
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        return (g * (cdf + x * pdf),)

    return _make(out, (a,), pull)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))

    def pull(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), pull)


def softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def pull(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), pull)


def layer_norm(a: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance (+1e-6), then affine."""
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = centered * inv
    out = gain.data * xhat + shift.data

    def pull(g):
        dgain = _unbroadcast(g * xhat, gain.shape)
        dshift = _unbroadcast(g, shift.shape)
        dxhat = g * gain.data
        # mu and var are both functions of x; their terms fold into the means.
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        return term * inv, dgain, dshift

    return _make(out, (a, gain, shift), pull)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Rows x (..., in) through weight (out x in) plus bias: x @ W^T + b, shape (..., out).

    Leading axes are a stack of separate products, so a row's result does not depend on
    the rows beside it (small and large GEMMs round differently)."""
    if x.ndim == 0 or weight.ndim != 2 or x.shape[-1] != weight.shape[1] or bias.shape != weight.shape[:1]:
        raise ShapeError(f"affine: rows {x.shape}, weight {weight.shape}, bias {bias.shape}")
    wt = np.ascontiguousarray(weight.data.T)
    out = x.data @ wt + bias.data

    def pull(g):
        rows, g_rows = x.data.reshape(-1, x.shape[-1]), g.reshape(-1, weight.shape[0])
        return g @ wt.T, (rows.T @ g_rows).T, g_rows.sum(axis=0)

    return _make(out, (x, weight, bias), pull)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Scaled dot-product attention of (..., N, D) queries, keys and values, with the D
    features split into `num_heads` heads; the heads' outputs are concatenated back to D.

    Heads and leading axes are stack axes of np.matmul, one contiguous product per head."""
    if q.ndim < 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention needs equal (..., N, D) operands, got {q.shape}, {k.shape}, {v.shape}")
    *lead, n, d = q.shape
    if d % num_heads != 0:
        raise ShapeError(f"token dim {d} not divisible by {num_heads} heads")
    dh = d // num_heads
    c = 1.0 / math.sqrt(dh)

    def heads(a):  # (..., N, D) -> (..., H, N, dh), a view
        return np.swapaxes(a.reshape(*lead, n, num_heads, dh), -2, -3)

    def merge(a):  # (..., H, N, dh) -> (..., N, D), C order as the sums of later pulls assume
        return np.ascontiguousarray(np.swapaxes(a, -2, -3)).reshape(q.shape)

    # Contiguous per-head operands, keys transposed in memory: each product is the 2-d GEMM
    # that one head alone would make, with the same rounding.
    qh, vh = np.ascontiguousarray(heads(q.data)), np.ascontiguousarray(heads(v.data))
    kt = np.ascontiguousarray(np.swapaxes(heads(k.data), -1, -2))
    scores = (qh @ kt) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    out = merge(w @ vh)

    def pull(g):
        gh = np.ascontiguousarray(heads(g))
        dw = gh @ np.swapaxes(vh, -1, -2)
        dscores = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * c
        dkt = np.swapaxes(qh, -1, -2) @ dscores
        return merge(dscores @ np.swapaxes(kt, -1, -2)), merge(np.swapaxes(dkt, -1, -2)), \
            merge(np.swapaxes(w, -1, -2) @ gh)

    return _make(out, (q, k, v), pull)


def mse_loss(out: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error of `out` against a constant array of its shape."""
    if target.shape != out.shape:
        raise ShapeError(f"mse_loss: output {out.shape}, target {target.shape}")
    diff = out.data - target
    count = diff.size

    def pull(g):
        return (diff * (g * (2.0 / count)),)

    return _make(np.asarray((diff * diff).mean()), (out,), pull)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Bias-corrected first/second moment accumulators, one pair per parameter."""

    lr: float = 1e-4
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(params: dict[str, Tensor], lr: float = 1e-4) -> OptimizerState:
    state = OptimizerState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros(p.shape)
        state.v[name] = np.zeros(p.shape)
    return state


def adam_step(params: dict[str, Tensor], state: OptimizerState,
              grads: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """One Adam update; returns fresh parameter tensors, mutates `state`."""
    state.step += 1
    t = state.step
    out: dict[str, Tensor] = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape {p.shape} for '{name}'")
        m = state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        mhat = m / (1.0 - ADAM_BETA1 ** t)
        vhat = v / (1.0 - ADAM_BETA2 ** t)
        stepped = p.data - state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        out[name] = Tensor._wrap(stepped)
    return out
