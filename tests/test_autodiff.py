import importlib.util
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from visir import autodiff as ad
from visir.autodiff import NonFiniteError, ShapeError, Tensor
from visir.data import SRPair
from visir.model import ModelConfig, Parameters, init_parameters, parameter_layout, predict_loss
from visir.training import TrainConfig, train

from oracles import (
    adam_step_per_tensor,
    attention_multi_head,
    by_name,
    finite_difference_grads,
    grads_close,
    layer_norm_two_pass,
    mse_entry,
    normal_cdf_erfc,
    normal_cdf_mpmath,
)

finite_elements = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Tensor basics
# ---------------------------------------------------------------------------

def test_tensor_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_scalar_results_are_read_only_arrays():
    # numpy returns the sum of two 0-d arrays as a scalar; a tensor still holds an ndarray.
    a, b = Tensor(2.0), Tensor(3.0)
    heads = [ad.output_head(Tensor([2.0]), Tensor([[3.0]]), Tensor([0.5]), 1.0, final, [np.zeros(1)])
             for final in ("sine", "sigmoid")]
    for t in (ad.add(a, b), *heads):
        assert type(t.data) is np.ndarray and t.shape == () and not t.data.flags.writeable


def test_deleted_primitives_keep_only_their_names():
    # perfbench/tracer.py looks these names up; each is the one function that raises, out of __all__.
    names = ("sub", "mul", "neg", "scale", "matmul", "transpose", "reshape", "narrow", "concat", "tensor_sum", "mean",
             "sigmoid", "softmax")
    assert all(hasattr(ad, name) for name in names)
    assert {getattr(ad, name) for name in names} == {ad._deleted}
    for name in names:
        with pytest.raises(NotImplementedError):
            getattr(ad, name)(Tensor([1.0]), Tensor([2.0]))
    assert not set(names) & set(ad.__all__)


def test_tensor_is_immutable():
    t = Tensor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        t.data[0, 0] = 5.0


def test_tensor_copies_input():
    src = np.ones(3)
    t = Tensor(src)
    src[0] = 99.0
    assert t.data[0] == 1.0


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((2, 6), 3.7))
    out = ad.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
    assert np.all(np.abs(out.data) < 1e-6)


@settings(max_examples=40, deadline=None)
@given(x=arrays(np.float64, (3, 8), elements=finite_elements))
def test_layer_norm_rows_centered(x):
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert np.all(np.abs(out.data.mean(axis=1)) < 1e-9)


def test_layer_norm_matches_two_pass_reference():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 16))
    gain = rng.normal(size=16)
    shift = rng.normal(size=16)
    out = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(shift))
    assert np.allclose(out.data, layer_norm_two_pass(x, gain, shift), atol=1e-12)


# ---------------------------------------------------------------------------
# sine activation
# ---------------------------------------------------------------------------

def test_sine_zero_maps_to_zero():
    for omega0 in (1.0, 20.0, 60.0):
        out = ad.sine_activation(Tensor([0.0]), omega0)
        assert out.data[0] == 0.0


def test_sine_quarter_period():
    out = ad.sine_activation(Tensor([math.pi / 40]), 20.0)
    assert out.data[0] == pytest.approx(1.0, abs=1e-15)


def test_sine_gradient_at_zero_is_omega0():
    x = Tensor([0.0])
    out = ad.sine_activation(x, 20.0)
    grads = ad.backward(mse_entry(out, np.array([-0.5])), {"x": x})  # d/dout (out + 1/2)^2 = 1 at out = 0
    assert grads[0] == pytest.approx(20.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(x=arrays(np.float64, (6,), elements=st.floats(-100, 100)),
       omega0=st.floats(min_value=0.1, max_value=60.0))
def test_sine_output_bounded(x, omega0):
    out = ad.sine_activation(Tensor(x), omega0)
    assert np.all(np.abs(out.data) <= 1.0)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_square():
    x = Tensor([3.0])
    loss = mse_entry(x, np.zeros(1))
    grads = ad.backward(loss, {"x": x})
    assert grads[0] == pytest.approx(6.0, abs=1e-12)


def test_backward_sine_chain():
    x = Tensor([0.0])
    loss = mse_entry(ad.sine_activation(x, 20.0), np.array([-0.5]))
    grads = ad.backward(loss, {"x": x})
    assert grads[0] == pytest.approx(20.0)


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0])
    y = ad.add(x, x)
    with pytest.raises(ShapeError):
        ad.backward(y, {"x": x})
    assert ad.tape_length() == 0  # consumed even on failure


def test_backward_clears_tape():
    x = Tensor([2.0])
    ad.backward(mse_entry(x, np.zeros(1)), {"x": x})
    assert ad.tape_length() == 0


def test_backward_accumulates_shared_leaf():
    x = Tensor([2.0])
    # x reaches the loss three times through two entries: f = (3x - 1)^2 -> f' = 6(3x - 1) = 30
    loss = mse_entry(ad.add(ad.add(x, x), x), np.ones(1))
    grads = ad.backward(loss, {"x": x})
    assert grads[0] == 30.0


def test_tensor_has_no_gradient_slot():
    assert "grad" not in Tensor.__slots__
    with pytest.raises(AttributeError):
        Tensor([1.0]).grad = np.ones(1)


def test_backward_returns_grads_keyed_as_given():
    # One vector, each tensor's piece in params order (not the order the tensors were made):
    # zeros for a tensor that does not feed the loss, the true gradient for every other one.
    # The same tensor under two names is rejected, and the tape is still cleared.
    x = Tensor([3.0, -1.0])
    unused = Tensor(np.ones((2, 2)))
    frozen = Tensor([5.0, 5.0])
    # f = mean((2x + frozen - t)^2) over 2 values, 2x + frozen - t = [2, 1]: frozen's
    # gradient is [2, 1] and x's is twice that, so a swapped or cross-wired piece shows.
    loss = mse_entry(ad.add(ad.add(x, x), frozen), np.array([9.0, 2.0]))
    grads = ad.backward(loss, {"frozen": frozen, "unused": unused, "a": x})
    assert grads.shape == (8,)
    assert np.array_equal(grads, [2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 4.0, 2.0])
    loss = mse_entry(ad.add(ad.add(x, x), frozen), np.array([9.0, 2.0]))
    with pytest.raises(ValueError, match="named twice"):
        ad.backward(loss, {"a": x, "frozen": frozen, "b": x})
    assert ad.tape_length() == 0


def test_backward_overwrites_the_vector_it_is_given():
    # Stale values are zeroed first, so a tensor that does not feed the loss reads 0; a vector
    # of another length, dtype or layout is refused, and the tape is still cleared.
    x, unused = Tensor([3.0, -1.0]), Tensor([7.0])
    out = np.full(3, np.nan)
    assert ad.backward(mse_entry(x, np.zeros(2)), {"x": x, "unused": unused}, out) is out
    assert np.array_equal(out, [3.0, -1.0, 0.0])
    for bad in (np.zeros(4), np.zeros(3, dtype=np.float32), np.zeros(6)[::2]):
        with pytest.raises(ShapeError, match="out must be"):
            ad.backward(mse_entry(x, np.zeros(2)), {"x": x, "unused": unused}, bad)
        assert ad.tape_length() == 0


def test_gradient_vector_drops_the_last_before_making_the_next():
    # The thread keeps the vector it made last, and only that one: the two are never both live.
    size = 10_000
    tracemalloc.start()
    try:
        ad.gradient_vector(size)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ad.gradient_vector(size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= 8 * size and peak < held + 4 * size, (held, peak)


def test_params_alone_decide_what_is_differentiated():
    # A plain Tensor, made with no flag, gets its exact gradient once it is named in
    # params, and Adam moves it toward the minimum of mean((w - t)^2) on every step.
    w = Tensor([1.0, -2.0])
    target = np.array([3.0, 0.5])
    state = ad.init_adam(w.data, lr=0.1)
    for _ in range(3):
        grads = ad.backward(mse_entry(w, target), {"w": w})
        assert np.array_equal(grads, w.data - target)  # 2 (w - t) / 2
        stepped = ad.adam_step(w.data, state, grads)
        assert np.all(np.abs(stepped - target) < np.abs(w.data - target))
        w = Tensor(stepped)
    assert state.step == 3


def test_backward_frees_an_intermediate_before_reaching_its_inputs():
    # Tape: [u = 2x, v = sin(1.5u), t = 2v, loss = mean(t^2)].  An output that no pull
    # reads is freed when its caller drops it: v (t's pull keeps shapes) and t (the
    # loss's pull keeps the residual) go before backward starts.  An input that a pull
    # reads is freed when backward pops that entry: u, which the sine's pull reads, goes
    # while the entry that made u is still on the tape, unreached.
    # Tensor has no __weakref__ slot, so the references are to the value arrays, which
    # only the tensors and the pulls hold.
    ad.clear_tape()
    x = Tensor(np.linspace(0.0, 1.0, 4))
    u = ad.add(x, x)
    v = ad.sine_activation(u, 1.5)
    t = ad.add(v, v)
    loss = mse_entry(t, np.zeros(4))
    freed = []
    refs = [weakref.ref(z.data, lambda _, name=name: freed.append((name, ad.tape_length())))
            for name, z in (("u", u), ("v", v), ("t", t))]
    del u, v, t
    assert freed == [("v", 4), ("t", 4)]
    grads = ad.backward(loss, {"x": x})
    assert freed == [("v", 4), ("t", 4), ("u", 1)]
    assert all(ref() is None for ref in refs)
    # d/dx mean(4 sin(3x)^2) = 6 sin(3x) cos(3x) = 3 sin(6x)
    assert np.allclose(grads, 3.0 * np.sin(6.0 * x.data), rtol=0, atol=1e-12)


# A model whose 96x96x3 output dwarfs its 16-d tokens.
_BIG_OUTPUT = dict(lr_height=24, lr_width=24, patch_size=4, embed_dim=16, num_layers=1, num_heads=2,
                   siren_hidden_dim=16, siren_hidden_layers=1)


def _one_step_peak(model, lr, hr) -> int:
    """tracemalloc's peak over one predict_loss, backward and adam_step; lr and hr made before."""
    state = ad.init_adam(model.vector)
    ad.clear_tape()
    tracemalloc.start()
    try:
        loss = predict_loss(lr, hr, model)
        model.vector = ad.adam_step(model.vector, state, ad.backward(loss, model.params))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_step_peak_memory_is_below_two_and_a_quarter_outputs():
    # One batch-4 step.  The forward pass peaks at about 1.7 output batches and the step at
    # about 1.96, in the head's pull: the residual, the encoder's tape and the gradient
    # vector (2.05 when the attention entries kept their softmax weights).  The sine head
    # keeps the residual only and makes z again, one image at a time, in its pull; when it
    # kept z too the step peaked at 2.95 batches, and when the last affine, the final sine,
    # the patch merge and the MSE were six entries, at 4.73.
    rng = np.random.default_rng(0)
    lr, hr = rng.uniform(0.0, 1.0, (4, 24, 24, 3)), rng.uniform(0.0, 1.0, (4, 96, 96, 3))
    peak = _one_step_peak(init_parameters(ModelConfig(**_BIG_OUTPUT), seed=0), lr, hr)
    assert peak <= 2.25 * hr.nbytes, peak / hr.nbytes


def test_cli_default_step_peak_memory_is_below_three_hr_batches():
    # At the CLI default the 64-d tokens weigh more against the 240x240x3 output: the step
    # peaks at about 2.95 HR batches (16.3 MB), in the head's pull, over the encoder's tape.
    # 3.41 when the attention entries kept their (4, 4, 100, 100) softmax weights, 4.36
    # when the sine head kept z too.
    rng = np.random.default_rng(0)
    lr, hr = rng.uniform(0.0, 1.0, (4, 60, 60, 3)), rng.uniform(0.0, 1.0, (4, 240, 240, 3))
    peak = _one_step_peak(init_parameters(ModelConfig(), seed=0), lr, list(hr))
    assert peak <= 3.0 * hr.nbytes, peak / hr.nbytes


@pytest.mark.parametrize("with_target", [False, True], ids=["output", "loss"])
def test_sine_head_entry_keeps_no_z(with_target):
    # The entry keeps the rows, W^T and, with a target, the residual, which it writes over z:
    # about one output's bytes with a target, and none once the caller drops the output.
    rng = np.random.default_rng(1)
    x, w, b = Tensor(rng.uniform(-1, 1, (4, 50, 8))), Tensor(rng.uniform(-1, 1, (300, 8))), Tensor(np.zeros(300))
    target = [rng.uniform(0.0, 1.0, (50, 300)) for _ in range(4)]
    out_bytes = 4 * 50 * 300 * 8
    ad.clear_tape()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        out = ad.output_head(x, w, b, 20.0, "sine", target if with_target else None)
        if not with_target:
            del out
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        ad.clear_tape()
    assert held <= (1.1 if with_target else 0.1) * out_bytes, held / out_bytes


def test_train_holds_no_stacked_hr_batch():
    # training.train at batch 4, the pairs made before tracing: its peak is the step's peak
    # above with some room, plus the four parameter-sized vectors a step holds (Adam's two
    # moments, the gradient vector and the new parameters), and no copy of the HR batch.
    # About 2.26 output batches; 2.56 when Adam kept a work vector and the attention entries
    # their weights, 4.46 when train stacked the batch's HR images.
    model = init_parameters(ModelConfig(**_BIG_OUTPUT), seed=0)
    rng = np.random.default_rng(0)
    pairs = [SRPair(hr=rng.uniform(0.0, 1.0, (96, 96, 3)), lr=rng.uniform(0.0, 1.0, (24, 24, 3)), scale=4)
             for _ in range(4)]
    hr_batch = sum(p.hr.nbytes for p in pairs)
    param_bytes = sum(p.data.nbytes for p in model.params.values())
    tracemalloc.start()
    try:
        train(model, pairs, TrainConfig(steps=1, batch_size=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * hr_batch + 4 * param_bytes, (peak / hr_batch, param_bytes / hr_batch)


def test_attention_entry_keeps_no_weights():
    # The entry keeps the per-head queries, transposed keys and values, three arrays of
    # the operands' size, and not the (B, H, N, N) softmax weights, 16 times that size
    # here: the pull makes them again.
    rng = np.random.default_rng(2)
    q, k, v = (Tensor(rng.uniform(-1.0, 1.0, (2, 64, 8))) for _ in range(3))
    operand_bytes, weight_bytes = q.data.nbytes, 2 * 4 * 64 * 64 * 8
    ad.clear_tape()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        out = ad.attention(q, k, v, 4)
        del out
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        ad.clear_tape()
    assert 3 * operand_bytes <= held < 3 * operand_bytes + weight_bytes // 8, (held, operand_bytes)


def test_no_grad_suppresses_tape():
    ad.clear_tape()
    x = Tensor([1.0])
    with ad.no_grad():
        ad.add(x, x)
    assert ad.tape_length() == 0
    ad.add(x, x)  # outside no_grad every primitive is recorded
    assert ad.tape_length() == 1
    ad.clear_tape()


def test_no_grad_and_tape_are_per_thread():
    # One thread holds no_grad() open while this one records; each has its own tape.
    inside, release = threading.Event(), threading.Event()
    seen = {}

    def hold_no_grad():
        with ad.no_grad():
            inside.set()
            release.wait(timeout=10)
            ad.add(Tensor([1.0]), Tensor([2.0]))
            seen["inside"] = ad.tape_length()
        seen["tape"] = ad.tape_length()

    ad.clear_tape()
    other = threading.Thread(target=hold_no_grad)
    other.start()
    try:
        assert inside.wait(timeout=10)
        ad.add(Tensor(np.ones(3)), Tensor(np.ones(3)))
        assert ad.tape_length() == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert seen == {"inside": 0, "tape": 0}
    ad.clear_tape()


def test_concurrent_trainers_keep_their_own_tapes():
    # More threads than cores, switching often; half of them also enter no_grad().
    # A shared tape or flag loses or steals entries, and a gradient comes out wrong or None.
    wrong, finished = [], []

    def work(k):
        for i in range(50):
            x = Tensor(np.full(4, float(k + i)))
            if k % 2:
                with ad.no_grad():
                    ad.add(x, x)
            grads = ad.backward(mse_entry(x, np.zeros(4)), {"x": x})
            if not np.array_equal(grads, 0.5 * x.data):  # 2x / 4
                wrong.append((k, i))
        finished.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == list(range(6))
    assert wrong == []


def test_trainers_share_parameter_tensors():
    # Each thread takes its own loss, the sum of mean((p - k)^2) over the same tensors p;
    # the gradient is the return value, so each must be exactly (p - k) * (2 / p.size).  Each thread also
    # trains its own copy, starting from those tensors, with its own Adam state, and
    # must end with the bytes the same steps give on one thread: no scratch vector
    # is shared between states.
    params = Parameters(np.concatenate([np.linspace(-2.0, 2.0, 5), np.arange(6.0)]), {"x": (5,), "y": (2, 3)})
    wrong, finished, trained = [], [], {}

    def loss(k, tensors):
        return ad.add(*(mse_entry(p, np.full(p.shape, float(k))) for p in tensors.values()))

    def train(k):
        own, state = params, ad.init_adam(params.vector, lr=0.1)
        for i in range(50):
            grads = by_name(ad.backward(loss(k, params), params), params)
            if any(not np.array_equal(grads[n], (p.data - k) * (2.0 / p.size)) for n, p in params.items()):
                wrong.append((k, i))
            own = Parameters(ad.adam_step(own.vector, state, ad.backward(loss(k, own), own)), own.shapes)
        return own, state

    def work(k):
        trained[k] = train(k)
        finished.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(1, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == [1, 2, 3, 4]
    assert wrong == []
    for k, (own, state) in trained.items():
        alone, alone_state = train(k)
        assert _same_bits(own.vector, alone.vector)
        assert _same_bits(state.m, alone_state.m) and _same_bits(state.v, alone_state.v)
        assert not np.array_equal(own["x"].data, params["x"].data)


# ---------------------------------------------------------------------------
# per-primitive gradient checks against central finite differences
# ---------------------------------------------------------------------------

def _check_op(build, shapes, seed, points=10):
    """build(tensors) -> scalar loss Tensor; checked at `points` random draws."""
    for point in range(points):
        rng = np.random.default_rng(seed + point)
        arrays_ = {name: rng.uniform(-1.5, 1.5, size=shape) for name, shape in shapes.items()}
        tensors = {name: Tensor(a) for name, a in arrays_.items()}
        ad.clear_tape()
        loss = build(tensors)
        grads = by_name(ad.backward(loss, tensors), tensors)

        def eval_loss(arrs):
            with ad.no_grad():
                return build({n: Tensor(a) for n, a in arrs.items()}).item()

        numeric = finite_difference_grads(eval_loss, arrays_)
        for name in shapes:
            assert grads_close(grads[name], numeric[name]), \
                f"{name} gradient mismatch at point {point}"


def _head_loss(t, final, target):
    # The head's own loss against a seeded target in [0, 1], or a weighted loss of its activation.
    if not target:
        return _weighted(ad.output_head(t["x"], t["w"], t["b"], 20.0, final))
    shape = t["x"].shape[:-1] + t["w"].shape[:1]
    return ad.output_head(t["x"], t["w"], t["b"], 20.0, final, [np.random.default_rng(len(shape)).uniform(0, 1, shape)])


def _token_view_target():
    # Two 4x4x1 images as 2x2 grids of 2x2 patches, in token order: not C-contiguous.
    view = np.random.default_rng(6).uniform(0, 1, (2, 4, 4, 1)).reshape(2, 2, 2, 2, 2, 1).transpose(0, 1, 3, 2, 4, 5)
    assert not view.flags.c_contiguous
    return view


def _token_view_parts():
    # The same targets in parts: the token-order view of the first image, as training passes
    # it, and the second's cut into consecutive pieces, one cut inside a token's four outputs.
    first, second = _token_view_target()
    parts = [first, second[0, 0, :1], second[0, 0, 1:], second[0, 1:], second[1:]]
    assert np.array_equal(np.concatenate([p.reshape(-1) for p in parts]), _token_view_target().reshape(-1))
    return parts


def _weighted(x):
    # A seeded target t = -(n/2) w, w in [2, 3], the same at every evaluation: each output's
    # cotangent 2 (x - t) / n = w + 2x / n stays near w, away from zero, whatever the size n.
    w = np.random.default_rng(x.size).uniform(2.0, 3.0, x.shape)
    return mse_entry(x, -0.5 * x.size * w)


# (name, loss builder, input shapes).
_GRADIENT_ROWS = [
    ("add", lambda t: _weighted(ad.add(t["a"], t["b"])), {"a": (3, 4), "b": (3, 4)}),
    ("add_broadcast", lambda t: _weighted(ad.add(t["a"], t["b"])), {"a": (3, 4), "b": (4,)}),
    ("add_broadcast_size_1", lambda t: _weighted(ad.add(t["a"], t["b"])), {"a": (3, 4), "b": (1, 4)}),
    # The positional add at batch > 1: one (N, D) table over every image's tokens.
    ("add_broadcast_batch", lambda t: _weighted(ad.add(t["a"], t["b"])), {"a": (2, 3, 4), "b": (3, 4)}),
    ("layer_norm_batched", lambda t: _weighted(ad.layer_norm(t["a"], t["g"], t["s"])),
     {"a": (2, 3, 6), "g": (6,), "s": (6,)}),
    ("sine", lambda t: _weighted(ad.sine_activation(t["a"], 20.0)), {"a": (2, 3)}),
    ("gelu", lambda t: _weighted(ad.gelu(t["a"])), {"a": (2, 4)}),
    ("layer_norm", lambda t: _weighted(ad.layer_norm(t["a"], t["g"], t["s"])),
     {"a": (3, 6), "g": (6,), "s": (6,)}),
    ("affine", lambda t: _weighted(ad.affine(t["x"], t["w"], t["b"])), {"x": (4, 3), "w": (5, 3), "b": (5,)}),
    ("affine_batched", lambda t: _weighted(ad.affine(t["x"], t["w"], t["b"])),
     {"x": (2, 3, 4), "w": (5, 4), "b": (5,)}),
    *[(f"attention_{heads}h_{'x'.join(map(str, shape))}",
       lambda t, heads=heads: _weighted(ad.attention(t["q"], t["k"], t["v"], heads)),
       {"q": shape, "k": shape, "v": shape})
      for heads in (1, 2, 4) for shape in ((3, 4), (2, 3, 4))],
    *[(f"output_head_{final}{'_batched' if len(x) == 3 else ''}{'_target' if target else ''}",
       lambda t, final=final, target=target: _head_loss(t, final, target),
       {"x": x, "w": (5, x[-1]), "b": (5,)})
      for target in (True, False) for final in ("sine", "sigmoid") for x in ((4, 3), (2, 3, 4))],
    # The decoder's target: a (B, rows, cols, P, P, C) transposed view of (B, H, W, C) images.
    ("output_head_sine_token_view_target",
     lambda t: ad.output_head(t["x"], t["w"], t["b"], 20.0, "sine", [_token_view_target()]),
     {"x": (2, 4, 3), "w": (4, 3), "b": (4,)}),
    # A target in several parts: each part is the targets of the next chunk of the output.
    *[(f"output_head_{final}_token_view_parts",
       lambda t, final=final: ad.output_head(t["x"], t["w"], t["b"], 20.0, final, _token_view_parts()),
       {"x": (2, 4, 3), "w": (4, 3), "b": (4,)}) for final in ("sine", "sigmoid")],
]


# Signed zeros, subnormals, grid points and midpoints of the CDF table, both sides of its clamp edge,
# far beyond it, and the non-finite values.
_STEP = 1.0 / ad._CDF_STEPS
_CDF_EXAMPLES = [0.0, -0.0, 5e-324, -2.2e-310, 1.0, -3 * _STEP, 0.5 * _STEP, -2.0 - 0.5 * _STEP, 6.0 + 0.5 * _STEP,
                 *(s * e for s in (1, -1) for e in (np.nextafter(ad._CDF_EDGE, 0), ad._CDF_EDGE,
                                                   np.nextafter(ad._CDF_EDGE, 9), ad._CDF_EDGE - 0.5 * _STEP)),
                 40.0, -40.0, math.nan, math.inf, -math.inf]


def _with_examples(values):
    def wrap(test):
        for value in reversed(values):
            test = example(x=value)(test)
        return test
    return wrap


def _check_cdf(x, ref):
    # Within 4 * 2**-53 absolute, exactly 0 or 1 at an infinity, and NaN for NaN.
    got = float(ad._normal_cdf(np.array([x]))[0])
    if math.isnan(ref) or math.isinf(x):
        assert got == ref or math.isnan(got) and math.isnan(ref), (got, ref)
    else:
        assert abs(got - ref) <= 4 * 2.0 ** -53, (got, ref, (got - ref) / 2.0 ** -53)


_CDF_INPUTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-9.0, 9.0))


@settings(max_examples=400, deadline=None)
@given(x=_CDF_INPUTS)
@_with_examples(_CDF_EXAMPLES)
def test_normal_cdf_matches_the_erfc_form(x):
    _check_cdf(x, normal_cdf_erfc(x))


@settings(max_examples=400, deadline=None)
@given(x=_CDF_INPUTS)
@_with_examples(_CDF_EXAMPLES)
def test_normal_cdf_matches_mpmath(x):
    pytest.importorskip("mpmath")
    _check_cdf(x, normal_cdf_mpmath(x))


def test_normal_cdf_keeps_its_input_shape_and_holds_warnings():
    # Elementwise over any shape, a 0-d array included; overflow, invalid and divide stay quiet.
    x = np.array([[np.nan, np.inf, -np.inf], [1e308, -1e308, 0.25]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = ad._normal_cdf(x)
        scalar = ad._normal_cdf(np.array(0.25))
    assert got.shape == x.shape and np.isnan(got[0, 0])
    assert got.tolist()[0][1:] == [1.0, 0.0] and got.tolist()[1][:2] == [1.0, 0.0]
    assert float(scalar) == got[1, 2]


@pytest.mark.parametrize("name,build,shapes", _GRADIENT_ROWS)
def test_primitive_gradients_match_finite_differences(name, build, shapes):
    # crc32, not hash(): str hashes are salted per process, so the drawn points would change every run.
    _check_op(build, shapes, seed=zlib.crc32(name.encode()))


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("shape", [(5, 8), (3, 5, 8)])
def test_attention_matches_multi_head_loop(heads, shape):
    rng = np.random.default_rng(heads)
    q, k, v = (rng.uniform(-2.0, 2.0, shape) for _ in range(3))
    with ad.no_grad():
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), heads).data
    assert np.allclose(out, attention_multi_head(q, k, v, heads), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("shape", [(5, 8), (3, 5, 8)])
def test_attention_pull_has_the_bits_of_the_plain_formula(heads, shape):
    # The pull runs the softmax pull in place over one buffer; the plain formula below,
    # on the same per-head operands, makes a temporary per operation.
    rng = np.random.default_rng(10 + heads)
    q, k, v, g = (rng.uniform(-2.0, 2.0, shape) for _ in range(4))
    *lead, n, d = shape
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    def split(a):  # (..., N, D) -> contiguous (..., H, N, dh)
        return np.ascontiguousarray(np.swapaxes(a.reshape(*lead, n, heads, dh), -2, -3))

    def merge(a):
        return np.ascontiguousarray(np.swapaxes(a, -2, -3)).reshape(shape)

    qh, vh, gh = split(q), split(v), split(g)
    kt = np.ascontiguousarray(np.swapaxes(split(k), -1, -2))
    e = np.exp((qh @ kt) * c - ((qh @ kt) * c).max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    dw = gh @ np.swapaxes(vh, -1, -2)
    dscores = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * c
    expected = (merge(dscores @ np.swapaxes(kt, -1, -2)), merge(np.swapaxes(np.swapaxes(qh, -1, -2) @ dscores, -1, -2)),
                merge(np.swapaxes(w, -1, -2) @ gh))
    ad.clear_tape()
    try:
        ad.attention(Tensor(q), Tensor(k), Tensor(v), heads)
        pulled = ad._state.tape.pop().pull(g)
    finally:
        ad.clear_tape()
    assert all(map(np.array_equal, pulled, expected))


def test_fused_primitives_reject_bad_shapes():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ad.affine(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        ad.attention(x, x, Tensor(np.zeros((2, 4))), 1)
    with pytest.raises(ShapeError):
        ad.attention(x, x, x, 2)
    w, b = Tensor(np.zeros((4, 3))), Tensor(np.zeros(4))
    with pytest.raises(ShapeError):
        ad.output_head(x, Tensor(np.zeros((4, 2))), b, 1.0, "sine")
    with pytest.raises(ShapeError):
        ad.output_head(x, w, b, 1.0, "sine", [np.zeros((3, 2))])  # 6 targets for 2 x 4 outputs
    with pytest.raises(ShapeError):
        ad.output_head(x, w, b, 1.0, "sigmoid", [np.zeros(7)])
    for parts in ([np.zeros(4), np.zeros(3)], [np.zeros((2, 2)), np.zeros(4), np.zeros(1)], []):
        for final in ("sine", "sigmoid"):  # parts whose sizes do not sum to the 8 outputs
            with pytest.raises(ShapeError):
                ad.output_head(x, w, b, 1.0, final, parts)
    assert ad.tape_length() == 0


@pytest.mark.parametrize("final", ["sine", "sigmoid"])
@pytest.mark.parametrize("x_shape,out", [((0, 3), 4), ((2, 0, 3), 4), ((2, 3), 0)])
def test_a_loss_over_no_outputs_is_a_shape_error(final, x_shape, out):
    # The mean of no squares would be 0 / 0: a NaN and a RuntimeWarning, here made errors.
    x, w, b = Tensor(np.zeros(x_shape)), Tensor(np.zeros((out, 3))), Tensor(np.zeros(out))
    target = np.zeros(x_shape[:-1] + (out,))
    ad.clear_tape()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError):
            ad.output_head(x, w, b, 1.0, final, [target])
        with pytest.raises(ShapeError):
            ad.output_head(x, w, b, 1.0, final, [])
    assert ad.tape_length() == 0


def test_sine_gradient_high_frequency():
    # Steep slopes (omega0 * cos) still match finite differences.
    _check_op(lambda t: _weighted(ad.sine_activation(t["a"], 60.0)), {"a": (2, 2)}, seed=3)


def _affine_pull_plain(x, w, gz):
    wt = np.ascontiguousarray(w.T)
    rows, g_rows = x.reshape(-1, wt.shape[0]), gz.reshape(-1, wt.shape[1])
    return gz @ wt.T, (rows.T @ g_rows).T, g_rows.sum(axis=0)


@pytest.mark.parametrize("shape", [(), (7,), (2, 5, 3)], ids=["0d", "1d", "bnd"])
def test_sine_and_mse_pulls_have_the_bits_of_the_plain_formulas(shape):
    # sine_activation computes omega0 * x again instead of keeping it, and output_head
    # computes its output, loss and pull in place: each gives the bits of the plain
    # expression.  A 0-d operand is where an in-place ufunc on `omega0 * x`, a numpy scalar
    # there, fails; the head's rows of 3 features have the extra axis.
    rng = np.random.default_rng(sum(shape) + len(shape))
    x, g = rng.uniform(-3.0, 3.0, shape), rng.normal(size=shape)
    rows, w, b = rng.uniform(-1.0, 1.0, shape + (3,)), rng.uniform(-1.0, 1.0, (4, 3)), rng.uniform(-1.0, 1.0, 4)
    z = rows @ np.ascontiguousarray(w.T) + b
    gs = rng.normal(size=z.shape)
    target = rng.uniform(0.0, 1.0, z.shape)
    ad.clear_tape()
    try:
        for omega0 in (1.5, 30.0):
            out = ad.sine_activation(Tensor(x), omega0)
            assert np.array_equal(out.data, np.sin(omega0 * x))
            (grad,) = ad._state.tape.pop().pull(g)
            assert np.array_equal(grad, g * omega0 * np.cos(omega0 * x))
            for final in ("sine", "sigmoid"):
                if final == "sine":
                    s = (np.sin(omega0 * z) + 1.0) * 0.5

                    def ds(gs_):
                        return gs_ * 0.5 * omega0 * np.cos(omega0 * z)
                else:
                    s = 1.0 / (1.0 + np.exp(-z))

                    def ds(gs_):
                        return gs_ * s * (1.0 - s)
                head = ad.output_head(Tensor(rows), Tensor(w), Tensor(b), omega0, final)
                assert np.array_equal(head.data, s)
                pulled = ad._state.tape.pop().pull(gs)
                assert all(map(np.array_equal, pulled, _affine_pull_plain(rows, w, ds(gs))))
                caller_target = target.copy()
                loss = ad.output_head(Tensor(rows), Tensor(w), Tensor(b), omega0, final, [caller_target])
                diff = s - target
                assert loss.item() == pytest.approx((diff * diff).mean(), rel=1e-14, abs=0.0)
                caller_target += 100.0  # the caller's array: the pull must not read it again
                g0 = rng.normal(size=())
                pulled = ad._state.tape.pop().pull(g0)
                expected = _affine_pull_plain(rows, w, ds(diff * (g0 * (2 / diff.size))))
                assert all(map(np.array_equal, pulled, expected))
    finally:
        ad.clear_tape()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0, 3.0])
    state = ad.init_adam(params, lr=0.1)
    out = ad.adam_step(params, state, np.zeros(3))
    assert np.array_equal(out, params)
    assert state.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    for g in (0.5, -3.0, 1e-3):
        params = np.array([0.0])
        state = ad.init_adam(params, lr=0.01)
        out = ad.adam_step(params, state, np.array([g]))
        # Bias correction makes mhat/sqrt(vhat) ~ sign(g) on the first step,
        # short of eps: the update is lr * |g| / (|g| + eps).
        assert out[0] == pytest.approx(-0.01 * np.sign(g), rel=1e-4)


def test_adam_shape_mismatch():
    params = np.zeros(3)
    state = ad.init_adam(params)
    with pytest.raises(ShapeError):
        ad.adam_step(params, state, np.zeros(4))


def test_adam_step_checks_every_gradient_before_changing_state():
    # A gradient or parameter vector of the wrong size or rank is a ShapeError, raised
    # before the step count or a moment moves.
    params = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    state = ad.init_adam(params, lr=0.1)
    good = np.array([0.5, -1.0, 0.25, 0.25, 0.25, 0.25])
    params = ad.adam_step(params, state, good)
    m, v = state.m.copy(), state.v.copy()
    for bad_params, bad_grads in [(params, good[:5]), (params, np.append(good, 0.0)), (params, good.reshape(2, 3)),
                                  (params[:5], good[:5]), (params.reshape(3, 2), good)]:
        with pytest.raises(ShapeError, match="6 values"):
            ad.adam_step(bad_params, state, bad_grads)
        assert state.step == 1
        assert _same_bits(state.m, m) and _same_bits(state.v, v)
    ad.adam_step(params, state, good)
    assert state.step == 2


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _criterion5_config():
    spec = importlib.util.spec_from_file_location(
        "spectral_bias_experiment", Path(__file__).resolve().parents[1] / "scripts" / "spectral_bias_experiment.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.model_config()


@pytest.mark.parametrize("config", [ModelConfig, _criterion5_config], ids=["cli_default", "criterion5"])
def test_adam_matches_per_tensor_oracle(config):
    # Seeded gradients, one tensor's all zeros, 25 steps: the flat update gives the
    # parameters and moments of the per-tensor loop to the last bit.  The returned
    # tensors are read-only views of one vector, and a later step leaves them as they are.
    layout = parameter_layout(config())
    rng = np.random.default_rng(7)
    start = {name: rng.uniform(-0.5, 0.5, shape) for name, (shape, _) in layout.items()}
    zero = list(layout)[len(layout) // 2]
    params = Parameters(np.concatenate([a.ravel() for a in start.values()]), {n: a.shape for n, a in start.items()})
    state = ad.init_adam(params.vector, lr=1e-3)
    reference = SimpleNamespace(lr=1e-3, step=0, m={n: np.zeros(a.shape) for n, a in start.items()},
                                v={n: np.zeros(a.shape) for n, a in start.items()})
    expected, earlier = start, None
    for _ in range(25):
        grads = {name: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), a.shape) for name, a in start.items()}
        grads[zero] = np.zeros(start[zero].shape)
        grad_vector = np.concatenate([grads[n].ravel() for n in layout])
        params = Parameters(ad.adam_step(params.vector, state, grad_vector), params.shapes)
        expected = adam_step_per_tensor(expected, reference, grads)
        assert all(_same_bits(params[n].data, expected[n]) for n in layout)
        assert _same_bits(state.m, np.concatenate([reference.m[n].ravel() for n in layout]))
        assert _same_bits(state.v, np.concatenate([reference.v[n].ravel() for n in layout]))
        assert all(t.data.base is params.vector for t in params.values())
        assert params.vector.size == state.m.size and not params.vector.flags.writeable
        assert not any(t.data.flags.writeable for t in params.values())
        if earlier is not None:
            assert all(_same_bits(t.data, earlier_bytes[n]) for n, t in earlier.items())
        earlier, earlier_bytes = params, {n: t.data.copy() for n, t in params.items()}
    assert state.step == reference.step == 25
    assert _same_bits(params[zero].data, start[zero])
    with pytest.raises(ValueError):
        params[zero].data.setflags(write=True)


def _adam_scalar_reference(w0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    # Independent recurrence for f(w) = (w - 5)^2, grad = 2(w - 5).
    w, m, v = w0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = 2.0 * (w - 5.0)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        w = w - lr * mhat / (math.sqrt(vhat) + eps)
    return w


def test_adam_converges_on_quadratic():
    w = np.array([0.0])
    state = ad.init_adam(w, lr=0.1)
    for _ in range(100):
        w = ad.adam_step(w, state, 2.0 * (w - 5.0))
    expected = _adam_scalar_reference(0.0, 0.1, 100)
    assert w[0] == pytest.approx(expected, abs=1e-12)
    assert abs(w[0] - 5.0) < 0.5
    assert state.step == 100


def test_adam_step_counter_increases_by_one():
    params = np.array([1.0])
    state = ad.init_adam(params)
    for expected in (1, 2, 3):
        params = ad.adam_step(params, state, np.array([0.1]))
        assert state.step == expected
