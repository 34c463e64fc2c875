"""Dense float64 tensors with tape-based reverse-mode differentiation.

The tape is define-by-run: every primitive called outside ``no_grad``
appends one entry.  The model's inference forwards enter ``no_grad``
themselves, so only the losses record.  ``backward(loss,
params)`` pops the entries in reverse, dropping each one and its output
gradient as it passes, and returns the gradient of ``params`` as one vector in
``params`` order: those tensors, and no flag on a tensor, decide what is
differentiated.  The vector comes from ``gradient_vector`` unless the caller
passes one; a training loop makes it at the forward's peak, so that it pins the
top of the heap.  ``adam_step`` takes that vector and the parameter vector, and
returns a new parameter vector.  Each thread has its own tape and its own
``no_grad`` flag, and tensors are immutable, so threads may share parameter
tensors for training as well as for inference.

An entry holds no tensor.  It names its output and its parents by their
``key``, an integer no other tensor of the process has, and its pull closes
over only what the pull reads: ``add`` keeps shapes, ``affine`` its input rows,
``attention`` its per-head operands (its pull makes the softmax weights again,
with the same bits), ``sine_activation`` its input (``omega0 * x`` is computed
again in the pull: one multiply, with the same bits), and ``output_head`` its
input rows and at most two output-sized buffers, which its pull overwrites.  So an intermediate
that no pull reads is freed as soon as its caller drops it, and what a pull
reads is freed when ``backward`` pops its entry.

``affine``, ``attention`` and ``output_head`` are fused: each is one tape entry
for what would otherwise be a chain of them.  ``affine`` and ``attention`` take
any leading axes (a batch, and inside ``attention`` the heads) as a stack of
separate products, so an image's result does not depend on the batch it is in.
``output_head`` is a decoder's last ``affine``, its sine or sigmoid output and,
given a target in parts (one per image), the mean squared error.  It takes the
loss from the residual without a square, and its pull scales the residual into
the gradient in place.  The sine head keeps only the residual: it writes the
activation over z, and its pull makes z again one product of the stack at a
time, with the forward's bits (Chen et al., 2016: recompute rather than
store).  The sigmoid head keeps the activation and the residual.  One
CLI-default training step at batch 4 peaks at 16.3 MB in tracemalloc, 2.95
times its HR batch, which the step never stacks.

Deleted: ``sub``, ``mul``, ``neg``, ``scale``, ``matmul``, ``transpose``,
``reshape``, ``narrow``, ``concat``, ``tensor_sum``, ``mean``, ``sigmoid`` and
``softmax``.  ``affine`` makes the products, ``attention`` its own softmax and
``output_head`` its own sigmoid and mean; the model's inference forwards move
axes with numpy.  The names remain, out of ``__all__``, bound to one function
that raises ``NotImplementedError``, until the benchmark's tracer stops looking
them up.

Primitives do not check for NaN or infinity.  ``Tensor(...)`` checks data from outside,
``output_head`` its sine output (``omega0 * z`` overflows where ``z`` is finite) or its
sigmoid input (sigmoid maps an infinity to 0 or 1), and ``adam_step`` the new
parameter vector, which every gradient reaches.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "clear_tape",
    "tape_length",
    "backward",
    "gradient_vector",
    "add",
    "sine_activation",
    "gelu",
    "layer_norm",
    "affine",
    "attention",
    "output_head",
    "OptimizerState",
    "init_adam",
    "adam_step",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared where only finite values are legal."""


# One counter for the process, so that a key is unique across threads too; each call
# is one C call, which the interpreter lock does not split.
_next_key = itertools.count().__next__


class Tensor:
    """Immutable dense array of float64 values; ``key`` names it on the tape."""

    __slots__ = ("data", "key")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64)
        _check_finite(self.data)
        self.data.setflags(write=False)
        self.key = _next_key()

    @classmethod
    def _view(cls, arr: np.ndarray) -> "Tensor":
        # Internal: arr is a float64 array that no one writes to again; its finiteness is unchecked.
        arr.setflags(write=False)
        out = cls.__new__(cls)
        out.data = arr
        out.key = _next_key()
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

class _TapeEntry:
    __slots__ = ("out", "parents", "pull")

    def __init__(self, out: int, parents: tuple[int, ...], pull: Callable[[np.ndarray], tuple]):
        # The keys of the output and of each parent, never the tensors, so that the tape
        # keeps alive only what the pulls read.
        self.out = out
        self.parents = parents
        # Maps the gradient at `out` to the gradient at each parent.
        self.pull = pull


class _ThreadState(threading.local):
    def __init__(self):
        self.tape: list[_TapeEntry] = []
        self.grad_enabled = True
        self.last_grads: np.ndarray | None = None


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


def _make(arr: np.ndarray, parents: tuple[int, ...], pull) -> Tensor:
    """The tensor of `arr`, recorded with the keys of its `parents` and its `pull`."""
    out = Tensor._view(np.asarray(arr))  # numpy gives a 0-d result as a scalar, not an array
    if _state.grad_enabled:
        _state.tape.append(_TapeEntry(out.key, parents, pull))
    return out


def _pull_into(grads: dict[int, np.ndarray], leaves: dict[int, np.ndarray], entry: _TapeEntry) -> None:
    g = grads.pop(entry.out, None)
    if g is None:
        return
    for key, pg in zip(entry.parents, entry.pull(g)):
        if key in leaves:
            leaves[key] += pg
        elif key in grads:  # never in place: a pull may hand one array to two parents
            grads[key] = grads[key] + pg
        else:
            grads[key] = pg


def gradient_vector(size: int) -> np.ndarray:
    """A new vector of `size` values for ``backward`` to overwrite.  The thread keeps it until
    its next call, so that where it lands in the heap, malloc keeps the memory below it from
    step to step instead of returning it and faulting it in again.  The last one goes first,
    so the two are never both live."""
    _state.last_grads = None
    _state.last_grads = np.empty(size)
    return _state.last_grads


def backward(loss: Tensor, params: Mapping[str, Tensor], out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the scalar ``loss`` with respect to the tensors in ``params``, as one
    vector in ``params`` order, each tensor's piece in C order; zeros for a tensor that
    does not feed the loss.  The tensors must be leaves, made by no primitive on the
    tape, and distinct: a tensor named twice is a ValueError.  The vector is ``out`` when
    one is given, a contiguous float64 vector of that length, which is overwritten, and
    one from ``gradient_vector`` otherwise.

    The tape is popped one entry at a time, so what a pull reads is freed with its
    entry, and a gradient once the sweep has passed the entries that use and make
    it; the rest of the tape is cleared whether or not the sweep succeeds.
    """
    try:
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        tensors = {p.key: p for p in params.values()}
        if len(tensors) != len(params):
            raise ValueError("backward: a tensor is named twice in params")
        size = sum(p.size for p in tensors.values())
        flat = gradient_vector(size) if out is None else out
        if flat.shape != (size,) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
            raise ShapeError(f"backward: out must be a contiguous float64 vector of {size} values")
        flat.fill(0.0)
        leaves, start = {}, 0
        for key, p in tensors.items():
            leaves[key] = flat[start:start + p.size].reshape(p.shape)
            start += p.size
        grads: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
        while _state.tape:
            _pull_into(grads, leaves, _state.tape.pop())
        return flat
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
    a_shape, b_shape = a.shape, b.shape

    def pull(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(out, (a.key, b.key), pull)


def _scaled(x: np.ndarray, c: float) -> np.ndarray:
    """c * x, with the same bits, as a new array that a ufunc may overwrite: numpy would
    give a scalar for a 0-d x."""
    return np.multiply(x, c, out=np.empty(x.shape))


def sine_activation(a: Tensor, omega0: float) -> Tensor:
    """Elementwise sin(omega0 * x); omega0 tunes the represented frequency band."""
    omega0 = float(omega0)
    x = a.data
    out = _scaled(x, omega0)
    np.sin(out, out=out)

    def pull(g):  # omega0 * x again rather than kept: one multiply, the same bits
        c = _scaled(x, omega0)
        return (g * omega0 * np.cos(c, out=c),)

    return _make(out, (a.key,), pull)


# The normal CDF table: a grid of step 1/_CDF_STEPS over [-_CDF_EDGE, _CDF_EDGE], beyond which Phi is within
# 1e-17 of 0 or 1, and _CDF_TERMS Taylor terms about each grid point.  Four terms at this step keep the truncation
# under 2**-53; they also make a 32-byte row, which numpy's gather copies about 1.6 times as fast as a 40-byte one.
_CDF_STEPS = 2048
_CDF_EDGE = 8.5
_CDF_TERMS = 4


@functools.cache
def _cdf_table() -> np.ndarray:
    """Row k (negative k counting from the end) holds Phi's Taylor coefficients about x0 = k / _CDF_STEPS in
    powers of the grid fraction t: Phi(x0 + t / _CDF_STEPS) = sum_j row[j] * t**j for |t| <= 1/2.  Built on
    GELU's first call, in about 20 ms, from libm's erfc and exp and the Hermite recurrence of the derivatives."""
    h = 1.0 / _CDF_STEPS
    edge = round(_CDF_EDGE * _CDF_STEPS)
    size = 2 * edge + 1

    def grid():
        return (k * h for k in itertools.chain(range(edge + 1), range(-edge, 0)))

    table = np.empty((size, _CDF_TERMS))
    # erfc where it is small, so a value near 1 is rounded once.
    table[:, 0] = np.fromiter((1.0 - 0.5 * math.erfc(v / math.sqrt(2.0)) if v > 0 else
                               0.5 * math.erfc(-v / math.sqrt(2.0)) for v in grid()), float, size)
    deriv = np.fromiter((math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) for v in grid()), float, size)
    x0, deriv_prev = np.fromiter(grid(), float, size), 0.0
    for j in range(1, _CDF_TERMS):  # deriv is Phi's j-th derivative, phi^(j-1)
        table[:, j] = deriv * (h ** j / math.factorial(j))
        deriv_prev, deriv = deriv, -x0 * deriv - (j - 1) * deriv_prev  # phi^(n+1) = -x phi^(n) - n phi^(n-1)
    table[edge] = table[edge + 1] = 0.0  # flat ends, so a clamped infinity gives exactly 1 or 0
    table[edge, 0] = 1.0
    return table


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF, Phi(x) = (1 + erf(x / sqrt(2))) / 2, within 4 * 2**-53 of the exact value.

    Elementwise float64 ufuncs and one table lookup, no BLAS.  The grid fraction is exact, so only the table and
    the polynomial round.  NaN gives NaN and -inf, inf give 0, 1; a NaN reads a valid row, never a cast NaN.
    The work is on one flat axis: numpy's loops over small 2-D arrays cost more."""
    table = _cdf_table()
    t = np.minimum(x.reshape(-1), _CDF_EDGE)
    np.maximum(t, -_CDF_EDGE, out=t)
    t *= _CDF_STEPS
    k = np.rint(t)
    t -= k
    rows = np.take(table, np.fmin(k, _CDF_EDGE * _CDF_STEPS, out=k).astype(np.intp), axis=0)
    p = rows[:, -1] * t
    for j in range(_CDF_TERMS - 2, 0, -1):
        p += rows[:, j]
        p *= t
    p += rows[:, 0]
    return p.reshape(x.shape)


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x), Phi the standard normal CDF."""
    x = a.data
    cdf = _normal_cdf(x)
    out = x * cdf

    def pull(g):
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        return (g * (cdf + x * pdf),)

    return _make(out, (a.key,), pull)


def layer_norm(a: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance (+1e-6), then affine."""
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = centered * inv
    gamma = gain.data
    out = gamma * xhat + shift.data
    shift_shape = shift.shape

    def pull(g):
        dgain = _unbroadcast(g * xhat, gamma.shape)
        dshift = _unbroadcast(g, shift_shape)
        dxhat = g * gamma
        # mu and var are both functions of x; their terms fold into the means.
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        return term * inv, dgain, dshift

    return _make(out, (a.key, gain.key, shift.key), pull)


def _check_rows(name: str, x: Tensor, weight: Tensor, bias: Tensor) -> None:
    if x.ndim == 0 or weight.ndim != 2 or x.shape[-1] != weight.shape[1] or bias.shape != weight.shape[:1]:
        raise ShapeError(f"{name}: rows {x.shape}, weight {weight.shape}, bias {bias.shape}")


def _affine_rows(xs: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """xs @ W^T + b as a fresh array, with no second output-sized temporary for the sum, and
    the contiguous W^T that the pull reads."""
    wt = np.ascontiguousarray(weight.T)
    out = xs @ wt
    out += bias
    return out, wt


def _affine_pull(xs: np.ndarray, wt: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gradients at the rows, the weight and the bias of xs @ wt + b, given g at its output."""
    rows, g_rows = xs.reshape(-1, wt.shape[0]), g.reshape(-1, wt.shape[1])
    return g @ wt.T, (rows.T @ g_rows).T, g_rows.sum(axis=0)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Rows x (..., in) through weight (out x in) plus bias: x @ W^T + b, shape (..., out).

    Leading axes are a stack of separate products, so a row's result does not depend on
    the rows beside it (small and large GEMMs round differently)."""
    _check_rows("affine", x, weight, bias)
    xs = x.data
    out, wt = _affine_rows(xs, weight.data, bias.data)
    return _make(out, (x.key, weight.key, bias.key), lambda g: _affine_pull(xs, wt, g))


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Scaled dot-product attention of (..., N, D) queries, keys and values, with the D
    features split into `num_heads` heads; the heads' outputs are concatenated back to D.

    Heads and leading axes are stack axes of np.matmul, one contiguous product per head.
    The entry keeps the per-head queries, transposed keys and values, and not the
    (..., H, N, N) softmax weights: its pull makes them again from the first two with the
    forward's operations, so with its bits (Dao et al., 2022)."""
    if q.ndim < 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention needs equal (..., N, D) operands, got {q.shape}, {k.shape}, {v.shape}")
    shape = q.shape
    *lead, n, d = shape
    if d % num_heads != 0:
        raise ShapeError(f"token dim {d} not divisible by {num_heads} heads")
    dh = d // num_heads
    c = 1.0 / math.sqrt(dh)

    def heads(a):  # (..., N, D) -> (..., H, N, dh), a view
        return np.swapaxes(a.reshape(*lead, n, num_heads, dh), -2, -3)

    def merge(a):  # (..., H, N, dh) -> (..., N, D), C order as the sums of later pulls assume
        return np.ascontiguousarray(np.swapaxes(a, -2, -3)).reshape(shape)

    # Contiguous per-head operands, keys transposed in memory: each product is the 2-d GEMM
    # that one head alone would make, with the same rounding.
    qh, vh = np.ascontiguousarray(heads(q.data)), np.ascontiguousarray(heads(v.data))
    kt = np.ascontiguousarray(np.swapaxes(heads(k.data), -1, -2))

    def weights():  # the softmax in place over the scores, with the bits of exp(s - max) / sum
        w = qh @ kt
        w *= c
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        return w

    out = merge(weights() @ vh)

    def pull(g):  # the weights again rather than kept: the same operations, so the same bits
        w = weights()
        gh = np.ascontiguousarray(heads(g))
        # The softmax pull w * (dw - sum(dw * w)) * c, in place over dw = g V^T; the same bits.
        dscores = gh @ np.swapaxes(vh, -1, -2)
        dscores -= (dscores * w).sum(axis=-1, keepdims=True)
        dscores *= w
        dscores *= c
        dkt = np.swapaxes(qh, -1, -2) @ dscores
        return merge(dscores @ np.swapaxes(kt, -1, -2)), merge(np.swapaxes(dkt, -1, -2)), \
            merge(np.swapaxes(w, -1, -2) @ gh)

    return _make(out, (q.key, k.key, v.key), pull)


HEAD_FINALS = ("sine", "sigmoid")


def _stack(a: np.ndarray):
    """The 2-d operands of the products that np.matmul makes of `a` (a itself up to 2-d)."""
    return (a,) if a.ndim <= 2 else a.reshape((-1,) + a.shape[-2:])


def output_head(x: Tensor, weight: Tensor, bias: Tensor, omega0: float, final: str,
                target: Sequence[np.ndarray] | None = None) -> Tensor:
    """A decoder's last affine layer, its final activation and, given a target, the mean
    squared error against it: one tape entry, computed in place.

    z = x @ W^T + b as in `affine`.  final: "sine", (sin(omega0 * z) + 1) / 2, or "sigmoid",
    1 / (1 + exp(-z)) (omega0 unused).  Without a target the result is that activation,
    shape (..., out).  With one it is the mean of (activation - target)^2 as a scalar:
    `target` is a sequence of arrays whose sizes sum to the activation's, not 0, and whose
    C-order elements, one part after the other, are the activation's targets (one transposed
    view per image will do), read in this call only.
    The sine entry keeps x and, with a target, the residual: its pull makes z again, one
    product of the stack at a time.  The sigmoid entry keeps x and the activation, and the
    residual beside it.  The pull overwrites what it keeps.
    """
    if final not in HEAD_FINALS:
        raise ValueError(f"final must be one of {HEAD_FINALS}, got {final!r}")
    _check_rows("output_head", x, weight, bias)
    out_shape = x.shape[:-1] + weight.shape[:1]
    if target is not None and not 0 < sum(np.size(part) for part in target) == math.prod(out_shape):
        raise ShapeError(f"output_head: output {out_shape}, target parts {[np.shape(part) for part in target]}")
    omega0 = float(omega0)
    xs, b = x.data, bias.data
    z, wt = _affine_rows(xs, weight.data, b)
    if final == "sine":
        s = np.multiply(z, omega0, out=z)  # the pull makes z again
        np.sin(s, out=s)
        s += 1.0
        s *= 0.5
        _check_finite(s)  # the output: omega0 * z overflows even where z is finite
    else:
        _check_finite(z)  # the input: sigmoid maps an infinity to a finite 0 or 1
        s = np.negative(z, out=z)  # the pull reads only the activation
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)

    # The sine pull makes z again and reads no activation; the sigmoid pull reads it, and may
    # overwrite it when the output is a loss and not the activation itself.
    kept, owns_kept = (None, False) if final == "sine" else (s, target is not None)

    def pull_at_z(gz):  # gz, the gradient at the activation, in an array this entry may overwrite
        if final == "sine":  # gz * 0.5 * omega0 * cos(omega0 * z), a factor at a time, as the plain formula
            gz *= 0.5
            gz *= omega0
            # z again from each of the forward's products, so with its bits, in one buffer of one
            # product's size.
            c = None
            for rows, g_rows in zip(_stack(xs), _stack(gz)):
                c = np.matmul(rows, wt, out=c)
                c += b
                c *= omega0
                g_rows *= np.cos(c, out=c)
            del c  # before the affine pull makes its products
        else:  # gz * s * (1 - s)
            gz *= kept
            gz *= np.subtract(1.0, kept, out=kept) if owns_kept else 1.0 - kept
        return _affine_pull(xs, wt, gz)

    if target is None:
        return _make(s, (x.key, weight.key, bias.key), lambda g: pull_at_z(g.copy()))

    # The residual, part by part: over the activation for "sine", beside it for "sigmoid".
    act = s.reshape(-1)
    flat = act if final == "sine" else np.empty(act.size)
    start = 0
    for part in target:
        end, shape = start + np.size(part), np.shape(part)
        np.subtract(act[start:end].reshape(shape), part, out=flat[start:end].reshape(shape))
        start = end
    count = flat.size

    def pull(g):  # backward calls it once: the residual becomes the gradient at z
        return pull_at_z(np.multiply(flat, g * (2.0 / count), out=flat).reshape(out_shape))

    # einsum's own loop: no output-sized square, and no BLAS call whose bits depend on threads.
    return _make(np.einsum("i,i->", flat, flat) / count, (x.key, weight.key, bias.key), pull)


def _deleted(*args, **kwargs):
    """Stands in for thirteen deleted primitives.  It exists only because perfbench/tracer.py
    looks their names up with getattr; the benchmark revision (ROADMAP item 1) deletes it."""
    raise NotImplementedError("a deleted primitive: use affine, attention, output_head or numpy")


sub = mul = neg = scale = matmul = transpose = reshape = _deleted
narrow = concat = tensor_sum = mean = sigmoid = softmax = _deleted


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Bias-corrected first/second moment accumulators as two vectors in ``params``
    order.  ``adam_step`` makes its scratch vector for the step, so a forward and a
    backward do not carry it."""

    lr: float
    step: int
    m: np.ndarray
    v: np.ndarray


def init_adam(params: np.ndarray, lr: float = 1e-4) -> OptimizerState:
    """Adam's state for the parameter vector `params`."""
    size = params.size
    return OptimizerState(lr=lr, step=0, m=np.zeros(size), v=np.zeros(size))


def adam_step(params: np.ndarray, state: OptimizerState, grads: np.ndarray) -> np.ndarray:
    """One Adam update of the parameter vector by ``backward``'s gradient vector: a fresh read-only
    vector, and `state` mutated; neither argument is written to.  A vector of another size than
    `state` was made for is a ShapeError that leaves `state` as it was."""
    m, v = state.m, state.v
    if np.shape(params) != m.shape or np.shape(grads) != m.shape:
        raise ShapeError(f"adam_step: vectors of shapes {np.shape(params)} and {np.shape(grads)}, not {m.size} values")
    work = np.empty(m.size)
    state.step += 1
    t = state.step
    # Each value goes through the operations of m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    # p - lr*mhat / (sqrt(vhat) + eps) in that order, so it gets the bits of the plain formulas.
    np.multiply(m, ADAM_BETA1, out=m)
    m += np.multiply(grads, 1.0 - ADAM_BETA1, out=work)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(grads, 1.0 - ADAM_BETA2, out=work)
    v += np.multiply(work, grads, out=work)
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    new = np.divide(m, 1.0 - ADAM_BETA1 ** t)  # the update, then the new parameters
    new *= state.lr
    new /= work
    np.subtract(params, new, out=new)
    _check_finite(new)  # catches any non-finite gradient
    new.setflags(write=False)
    return new
