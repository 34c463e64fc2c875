import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from visir import autodiff as ad
from visir import cli, training
from visir.autodiff import ShapeError, Tensor
from visir.data import SRPair, write_grid
from visir.model import (
    VARIANTS,
    ModelConfig,
    VisirModel,
    apply_stack,
    as_mlp_baseline,
    coordinate_grid,
    decode_hr,
    encode,
    extract_patches,
    init_parameters,
    init_siren_stack,
    mhsa,
    parameter_count,
    parameter_layout,
    patches_to_image,
    predict,
    predict_loss,
    siren_inr_forward,
    siren_inr_loss,
)

from oracles import (attention_single_head, by_name, finite_difference_grads, grads_close, mse_entry,
                     output_chain_unfused)

TINY = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=8,
                   lr_height=8, lr_width=8, omega0=20.0, siren_hidden_layers=1,
                   siren_hidden_dim=8, scale=2, channels=1)


def tiny_image(seed=0, cfg=TINY):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (cfg.lr_height, cfg.lr_width, cfg.channels))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(patch_size=3, num_layers=1, num_heads=2, embed_dim=8, lr_height=8, lr_width=8)
    with pytest.raises(ValueError):
        ModelConfig(patch_size=2, num_layers=1, num_heads=3, embed_dim=8, lr_height=8, lr_width=8)
    with pytest.raises(ValueError):
        ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=8, lr_height=8, lr_width=8,
                    siren_hidden_layers=7)
    with pytest.raises(ValueError):
        ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=8, lr_height=8, lr_width=8,
                    omega0=0.0)
    # A zero size is rejected by name, before anything is divided by it.
    for size in ("patch_size", "num_heads", "embed_dim", "siren_hidden_dim"):
        with pytest.raises(ValueError, match=size):
            ModelConfig(**{**dict(patch_size=2, num_layers=1, num_heads=2, embed_dim=8,
                                  lr_height=8, lr_width=8), size: 0})
    for omega0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="omega0"):
            ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=8, lr_height=8, lr_width=8,
                        omega0=omega0)


def test_config_token_arithmetic():
    cfg = ModelConfig(patch_size=6, num_layers=1, num_heads=4, embed_dim=64,
                      lr_height=60, lr_width=60, channels=3)
    assert cfg.num_tokens == 100
    assert cfg.patch_dim == 108


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

def test_extract_patches_default_tile_geometry():
    img = np.random.default_rng(0).uniform(0, 1, (60, 60, 3))
    patches = extract_patches(img, 6)
    assert patches.shape == (100, 108)


def test_extract_patches_small():
    patches = extract_patches(np.zeros((8, 8, 1)), 4)
    assert patches.shape == (4, 16)


def test_extract_patches_non_divisible():
    with pytest.raises(ShapeError):
        extract_patches(np.zeros((10, 10)), 3)


def test_patches_reconstruct_image_exactly():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (12, 18, 3))
    patches = extract_patches(img, 3)
    back = patches_to_image(patches, 4, 6, 3, 3)
    assert type(back) is np.ndarray and back.flags.c_contiguous and not np.shares_memory(back, patches)
    assert np.array_equal(back, img)


def test_patches_are_row_major():
    img = np.arange(16, dtype=np.float64).reshape(4, 4, 1)
    patches = extract_patches(img, 2)
    assert np.array_equal(patches[0], img[0:2, 0:2, 0].reshape(-1))
    assert np.array_equal(patches[1], img[0:2, 2:4, 0].reshape(-1))


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embed_zero_weight_gives_bias():
    patches = Tensor(np.random.default_rng(2).uniform(size=(5, 12)))
    v = np.arange(4, dtype=np.float64)
    tokens = ad.affine(patches, Tensor(np.zeros((4, 12))), Tensor(v))
    assert np.array_equal(tokens.data, np.tile(v, (5, 1)))


def test_embed_is_affine():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(4, 6))
    w = Tensor(rng.normal(size=(3, 6)))
    bias = Tensor(rng.normal(size=3))
    both = ad.affine(Tensor(a + b), w, bias).data
    separate = ad.affine(Tensor(a), w, bias).data + ad.affine(Tensor(b), w, bias).data - bias.data
    assert np.allclose(both, separate, atol=1e-12)


def test_embed_matches_plain_product():
    rng = np.random.default_rng(4)
    patches = rng.normal(size=(7, 10))
    w = rng.normal(size=(5, 10))
    b = rng.normal(size=5)
    tokens = ad.affine(Tensor(patches), Tensor(w), Tensor(b))
    assert np.allclose(tokens.data, patches @ w.T + b, atol=1e-12)


def test_positional_encoding():
    rng = np.random.default_rng(5)
    tokens = rng.normal(size=(6, 4))
    pos = rng.normal(size=(6, 4))
    assert np.array_equal(ad.add(Tensor(tokens), Tensor(np.zeros((6, 4)))).data, tokens)
    assert np.array_equal(ad.add(Tensor(np.zeros((6, 4))), Tensor(pos)).data, pos)
    with pytest.raises(ShapeError):
        ad.add(Tensor(tokens), Tensor(np.zeros((5, 4))))


def test_positional_encoding_breaks_permutation_symmetry():
    rng = np.random.default_rng(6)
    tokens = rng.normal(size=(4, 3))
    pos = rng.normal(size=(4, 3))
    perm = [2, 0, 3, 1]
    permuted_only_tokens = ad.add(Tensor(tokens[perm]), Tensor(pos)).data
    both_permuted = ad.add(Tensor(tokens[perm]), Tensor(pos[perm])).data
    original = ad.add(Tensor(tokens), Tensor(pos)).data
    assert not np.array_equal(permuted_only_tokens, original[perm])
    assert np.array_equal(both_permuted, original[perm])


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def _attn_params(rng, d):
    return {name: rng.normal(size=(d, d)) for name in ("wq", "wk", "wv", "wo")}, \
           {name: rng.normal(size=d) for name in ("bq", "bk", "bv", "bo")}


def _attn_tensors(ws, bs, prefix="blk.attn."):
    return {prefix + name: Tensor(arr) for name, arr in {**ws, **bs}.items()}


def test_mhsa_single_token():
    rng = np.random.default_rng(7)
    d = 4
    ws, bs = _attn_params(rng, d)
    token = rng.normal(size=(1, d))
    out = mhsa(Tensor(token), _attn_tensors(ws, bs), "blk.attn.", num_heads=2)
    # Softmax over a singleton is exactly 1: output is just the projected value.
    value = token @ ws["wv"].T + bs["bv"]
    expected = value @ ws["wo"].T + bs["bo"]
    assert np.allclose(out.data, expected, atol=1e-12)


def test_mhsa_identical_tokens_give_identical_rows():
    rng = np.random.default_rng(8)
    d = 6
    ws, bs = _attn_params(rng, d)
    row = rng.normal(size=d)
    tokens = np.tile(row, (5, 1))
    out = mhsa(Tensor(tokens), _attn_tensors(ws, bs), "blk.attn.", num_heads=3)
    assert np.allclose(out.data, out.data[0], atol=1e-12)


def test_mhsa_matches_hand_rolled_single_head():
    rng = np.random.default_rng(9)
    d = 2
    ws, bs = _attn_params(rng, d)
    tokens = rng.normal(size=(2, d))
    out = mhsa(Tensor(tokens), _attn_tensors(ws, bs, prefix=""), "", num_heads=1)
    expected = attention_single_head(tokens, ws["wq"], bs["bq"], ws["wk"], bs["bk"],
                                     ws["wv"], bs["bv"], ws["wo"], bs["bo"])
    assert np.allclose(out.data, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# sine stacks
# ---------------------------------------------------------------------------

def test_siren_ffn_zero_stack():
    stack = {"ffn.w0": Tensor(np.zeros((4, 4))), "ffn.b0": Tensor(np.zeros(4)),
             "ffn.w1": Tensor(np.zeros((4, 4))), "ffn.b1": Tensor(np.zeros(4))}
    out = apply_stack(Tensor(np.random.default_rng(10).normal(size=(3, 4))), stack, "ffn.", omega0=20.0)
    assert np.array_equal(out.data, np.zeros((3, 4)))


def test_siren_ffn_scalar_analytic():
    stack = {"w0": Tensor([[1.0]]), "b0": Tensor([0.0]), "w1": Tensor([[1.0]]), "b1": Tensor([0.0])}
    out = apply_stack(Tensor([[math.pi / 40.0]]), stack, "", omega0=20.0)
    assert out.data[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_apply_stack_depth_follows_prefix_keys():
    # Other keys in the dict, even "w{j}" under a longer prefix, are not layers of the stack.
    params = {"a.w0": Tensor([[2.0]]), "a.b0": Tensor([1.0]),
              "a.x.w1": Tensor([[5.0]]), "a.x.b1": Tensor([5.0]), "b.w1": Tensor([[5.0]])}
    out = apply_stack(Tensor([[3.0]]), params, "a.", omega0=20.0)
    assert out.data[0, 0] == 7.0  # one affine layer, no activation


@pytest.mark.parametrize("kwargs,named", [({"hidden": "sin"}, "hidden"), ({"hidden": "relu"}, "hidden"),
                                          ({"hidden": "Sine"}, "hidden")])
def test_apply_stack_rejects_unknown_activation_names(kwargs, named):
    # An unknown name is an error, not GELU: a misspelling, another library's activation, another case.
    stack = {"w0": Tensor([[1.0]]), "b0": Tensor([0.0]), "w1": Tensor([[1.0]]), "b1": Tensor([0.0])}
    with pytest.raises(ValueError, match=named) as err:
        apply_stack(Tensor([[0.1]]), stack, "", omega0=20.0, **kwargs)
    assert "'sine'" in str(err.value)  # the accepted names are listed


@pytest.mark.parametrize("target", [None, [np.zeros((1, 1))]], ids=["output", "loss"])
def test_output_head_rejects_unknown_final_names(target):
    # An unknown final is an error, not the sigmoid or the affine output.
    with pytest.raises(ValueError, match="final") as err:
        ad.output_head(Tensor([[0.1]]), Tensor([[1.0]]), Tensor([0.0]), 20.0, "sigmiod", target)
    assert "'sine'" in str(err.value) and "'sigmoid'" in str(err.value)


def test_siren_ffn_gradients_two_hidden_layers():
    rng = np.random.default_rng(11)
    arrays = {
        "w0": rng.uniform(-0.5, 0.5, (5, 3)), "b0": rng.uniform(-0.5, 0.5, 5),
        "w1": rng.uniform(-0.5, 0.5, (5, 5)), "b1": rng.uniform(-0.5, 0.5, 5),
        "w2": rng.uniform(-0.5, 0.5, (2, 5)), "b2": rng.uniform(-0.5, 0.5, 2),
    }
    x = rng.uniform(-1, 1, (4, 3))

    def run(arrs):
        stack = {name: Tensor(arr) for name, arr in arrs.items()}
        out = apply_stack(Tensor(x), stack, "", omega0=20.0)
        return mse_entry(out, np.zeros((4, 2))), stack  # mean(out^2)

    ad.clear_tape()
    loss, stack = run(arrays)
    grads = by_name(ad.backward(loss, stack), stack)

    def eval_loss(arrs):
        with ad.no_grad():
            return run(arrs)[0].item()

    numeric = finite_difference_grads(eval_loss, arrays)
    for name in arrays:
        assert grads_close(grads[name], numeric[name]), name


# ---------------------------------------------------------------------------
# encode / pool / decode
# ---------------------------------------------------------------------------

def test_encode_no_layers_is_embedding_plus_pos():
    cfg = ModelConfig(patch_size=2, num_layers=0, num_heads=2, embed_dim=8,
                      lr_height=8, lr_width=8, scale=2, channels=1)
    model = init_parameters(cfg, seed=0)
    img = tiny_image(0, cfg)
    tokens = encode(img, model)
    patches = extract_patches(img, 2)
    expected = ad.add(
        ad.affine(Tensor(patches), model.params["embed.weight"], model.params["embed.bias"]),
        model.params["pos"])
    assert np.array_equal(tokens.data, expected.data)


def test_encode_output_shape_default_geometry():
    cfg = ModelConfig(patch_size=6, num_layers=1, num_heads=4, embed_dim=64,
                      lr_height=60, lr_width=60, siren_hidden_dim=16, channels=3)
    model = init_parameters(cfg, seed=0)
    tokens = encode(np.random.default_rng(0).uniform(0, 1, (60, 60, 3)), model)
    assert tokens.shape == (100, 64)


def test_encode_deterministic():
    model = init_parameters(TINY, seed=1)
    img = tiny_image(2)
    a = encode(img, model).data
    b = encode(img, model).data
    assert np.array_equal(a, b)


def test_encode_rejects_wrong_geometry():
    model = init_parameters(TINY, seed=0)
    with pytest.raises(ShapeError):
        encode(np.zeros((10, 8, 1)), model)


def test_decode_zero_weights_gives_half():
    model = init_parameters(TINY, seed=0)
    # The decoder is as deep as the sine stacks.
    model = VisirModel(TINY, {name: Tensor(np.zeros(p.shape)) if name.startswith("decoder.") else p
                              for name, p in model.params.items()})
    out = predict(tiny_image(3), model)
    assert np.array_equal(out.data, np.full(out.shape, 0.5))


def test_decode_per_token_locality_without_attention():
    cfg = ModelConfig(patch_size=2, num_layers=0, num_heads=2, embed_dim=8,
                      lr_height=4, lr_width=4, scale=2, channels=1)
    model = init_parameters(cfg, seed=5)
    img = tiny_image(6, cfg)
    base = predict(img, model).data
    changed = img.copy()
    changed[0:2, 0:2, 0] = 1.0 - changed[0:2, 0:2, 0]  # flip patch 0 only
    out = predict(changed, model).data
    diff = np.abs(out - base)
    assert diff[0:4, 0:4].max() > 0  # its own output patch moved
    assert np.array_equal(out[0:4, 4:8], base[0:4, 4:8])  # every other patch untouched
    assert np.array_equal(out[4:8, :], base[4:8, :])


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [
    TINY,
    ModelConfig(patch_size=4, num_layers=2, num_heads=2, embed_dim=8,
                lr_height=8, lr_width=12, scale=3, channels=2, siren_hidden_dim=8),
    ModelConfig(patch_size=8, num_layers=1, num_heads=4, embed_dim=8,
                lr_height=8, lr_width=8, scale=2, channels=1, siren_hidden_dim=8),  # N=1 degenerate
    ModelConfig(patch_size=2, num_layers=0, num_heads=2, embed_dim=8,
                lr_height=8, lr_width=8, scale=2, channels=1, siren_hidden_dim=8),  # no encoder blocks
])
def test_forward_shape_and_bounds(cfg):
    model = init_parameters(cfg, seed=3)
    img = np.random.default_rng(4).uniform(0, 1, (cfg.lr_height, cfg.lr_width, cfg.channels))
    out = predict(img, model)
    assert out.shape == (cfg.lr_height * cfg.scale, cfg.lr_width * cfg.scale, cfg.channels)
    assert out.data.min() >= 0.0
    assert out.data.max() <= 1.0


def test_forward_deterministic_bit_identical():
    model = init_parameters(TINY, seed=9)
    img = tiny_image(10)
    assert np.array_equal(predict(img, model).data, predict(img, model).data)


def test_forward_gradients_spot_check():
    # Full-parameter finite differences live in the acceptance suite; here a
    # quick probe of three representative parameters.
    model = init_parameters(TINY, seed=13)
    img = tiny_image(14)
    target = np.random.default_rng(15).uniform(0, 1, (16, 16, 1))

    ad.clear_tape()
    grads = by_name(ad.backward(predict_loss(img, target, model), model.params), model.params)
    analytic = {name: grads[name] for name in ("embed.weight", "block0.attn.wq", "decoder.w1")}

    for name in analytic:
        arr = {name: model.params[name].data.copy()}

        def eval_loss(arrs):
            moved = VisirModel(TINY, {**model.params, name: Tensor(arrs[name])})
            with ad.no_grad():
                d = predict(img, moved).data - target
                return float((d * d).mean())

        numeric = finite_difference_grads(eval_loss, arr)
        assert grads_close(analytic[name], numeric[name]), name


# ---------------------------------------------------------------------------
# MLP baseline
# ---------------------------------------------------------------------------

def test_vit_mlp_shape_contract():
    cfg = as_mlp_baseline(TINY)
    model = init_parameters(cfg, seed=0)
    out = predict(tiny_image(0), model)
    assert out.shape == (16, 16, 1)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_vit_mlp_parameter_parity():
    sine = init_parameters(TINY, seed=0)
    mlp = init_parameters(as_mlp_baseline(TINY), seed=0)
    n_sine = parameter_count(sine)
    n_mlp = parameter_count(mlp)
    assert abs(n_sine - n_mlp) <= 0.01 * n_sine
    assert n_sine == n_mlp  # identical geometry: exact parity


def test_vit_mlp_deterministic():
    model = init_parameters(as_mlp_baseline(TINY), seed=2)
    img = tiny_image(3)
    assert np.array_equal(predict(img, model).data, predict(img, model).data)


def test_variant_dispatch_is_strict():
    sine = init_parameters(TINY, seed=0)
    mlp = init_parameters(as_mlp_baseline(TINY), seed=0)
    assert predict(tiny_image(0), sine).shape == predict(tiny_image(0), mlp).shape


# ---------------------------------------------------------------------------
# tape: no entry is spent on constants alone
# ---------------------------------------------------------------------------

def _assert_every_entry_reaches_a_parameter(params):
    # By key: every entry has a parameter, or the output of an earlier entry, among its parents.
    reached = {p.key for p in params.values()}
    assert ad.tape_length() > 0
    for entry in ad._state.tape:
        assert any(parent in reached for parent in entry.parents), entry.parents
        reached.add(entry.out)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("num_layers", [0, 1])
@pytest.mark.parametrize("siren_hidden_layers", [1, 2])
def test_predict_tape_entries_all_reach_a_parameter(variant, num_layers, siren_hidden_layers):
    cfg = replace(TINY, variant=variant, num_layers=num_layers, siren_hidden_layers=siren_hidden_layers)
    model = init_parameters(cfg, seed=0)
    # The parameters the tape reaches are the model's storage: read-only views of its one vector,
    # each at its layout offset, and the mapping takes no assignment.
    assert parameter_count(model) == model.vector.size == sum(math.prod(s) for s, _ in parameter_layout(cfg).values())
    assert not model.vector.flags.writeable
    offset = 0
    for name, p in model.params.items():
        assert p.data.base is model.vector and p.data.ctypes.data == model.vector.ctypes.data + 8 * offset, name
        offset += p.size
    assert list(model.params) == list(parameter_layout(cfg)) and offset == model.vector.size
    with pytest.raises(TypeError):
        model.params["pos"] = model.params["pos"]
    with pytest.raises(AttributeError):
        model.params = dict(model.params)
    with pytest.raises(ShapeError):  # a swapped-in vector must hold the layout's values
        model.vector = np.zeros(model.vector.size + 1)
    for img in (tiny_image(0), np.stack([tiny_image(0), tiny_image(1)])):
        ad.clear_tape()
        predict(img, model)  # inference: no entry at all
        assert ad.tape_length() == 0
        predict_loss(img, np.zeros(img.shape[:-3] + (cfg.hr_height, cfg.hr_width, 1)), model)
        try:
            _assert_every_entry_reaches_a_parameter(model.params)
        finally:
            ad.clear_tape()


@pytest.mark.parametrize("variant", VARIANTS)
def test_inference_records_no_tape_with_grad_enabled(variant, tmp_path):
    # predict and siren_inr_forward enter no_grad themselves, so no caller has to.
    model = init_parameters(replace(TINY, variant=variant), seed=0)
    rng = np.random.default_rng(1)
    pairs = [SRPair(hr=rng.uniform(0, 1, (16, 16, 1)), lr=tiny_image(seed), scale=2) for seed in range(2)]
    training.save_checkpoint(model, tmp_path / "m.vsck")
    write_grid(tmp_path / "lr.vsgr", tiny_image(0))
    reconstruct = ["reconstruct", "--checkpoint", str(tmp_path / "m.vsck"), "--input", str(tmp_path / "lr.vsgr"),
                   "--out", str(tmp_path / "rec")]
    runs = [lambda: predict(tiny_image(0), model),
            lambda: predict(np.stack([tiny_image(0), tiny_image(1)]), model),
            lambda: siren_inr_forward(coordinate_grid(3, 4), init_siren_stack([2, 8, 1], 20.0, seed=0), 20.0),
            lambda: training.evaluate(model, pairs),
            lambda: cli.main(reconstruct)]
    assert ad._state.grad_enabled
    for run in runs:
        ad.clear_tape()
        run()
        assert ad.tape_length() == 0
    assert (tmp_path / "rec" / "reconstruction.png").exists()  # reconstruct ran to the end


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_loss_over_an_empty_batch_is_a_shape_error(variant):
    # Not NaN from 0 / 0 with a RuntimeWarning: the head raises before it computes.
    model = init_parameters(replace(TINY, variant=variant), seed=0)
    lr = np.zeros((0, TINY.lr_height, TINY.lr_width, TINY.channels))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for hr in (np.zeros((0, TINY.hr_height, TINY.hr_width, TINY.channels)), []):
                with pytest.raises(ShapeError):
                    predict_loss(lr, hr, model)
    finally:
        ad.clear_tape()


# ---------------------------------------------------------------------------
# batch axis: a (B, H, W, C) input is B independent images
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("num_layers", [0, 1])
@pytest.mark.parametrize("siren_hidden_layers", [1, 2])
def test_batched_predict_equals_each_image_predict(variant, num_layers, siren_hidden_layers):
    cfg = replace(TINY, variant=variant, num_layers=num_layers, siren_hidden_layers=siren_hidden_layers)
    model = init_parameters(cfg, seed=0)
    imgs = [tiny_image(seed) for seed in range(3)]
    with ad.no_grad():
        batched = predict(np.stack(imgs), model).data
        assert batched.shape == (3, cfg.hr_height, cfg.hr_width, cfg.channels)
        for i, img in enumerate(imgs):
            assert np.array_equal(batched[i], predict(img, model).data)


def test_batched_loss_gradient_is_mean_of_image_gradients():
    model = init_parameters(TINY, seed=0)
    rng = np.random.default_rng(4)
    lrs = np.stack([tiny_image(seed) for seed in range(4)])
    hrs = rng.uniform(0, 1, (4, TINY.hr_height, TINY.hr_width, TINY.channels))
    batched = by_name(ad.backward(predict_loss(lrs, hrs, model), model.params), model.params)
    each = [by_name(ad.backward(predict_loss(lr, hr, model), model.params), model.params) for lr, hr in zip(lrs, hrs)]
    means = {name: sum(e[name] for e in each) / len(each) for name in batched}
    # block*.attn.bk's gradient is zero but for rounding (softmax ignores a per-row shift), so the
    # absolute floor is relative to the largest gradient entry of the model.
    floor = 1e-12 * max(np.abs(m).max() for m in means.values())
    for name, g in batched.items():
        assert np.allclose(g, means[name], rtol=1e-12, atol=floor), name


# ---------------------------------------------------------------------------
# the fused output head against the unfused chain
# ---------------------------------------------------------------------------

def _unfused(img, model, hr=None):
    """predict's output, or with `hr` the loss, with the decoder's last layer, output and MSE
    run as the separate numpy steps of oracles.output_chain_unfused (one tape entry)."""
    cfg = model.config
    rows = encode(img, model)
    last = cfg.siren_hidden_layers
    for j in range(last):
        wj, bj = model.params[f"decoder.w{j}"], model.params[f"decoder.b{j}"]
        rows = ad.sine_layer(rows, wj, bj, cfg.omega0) if cfg.variant == "visir" else ad.gelu(ad.affine(rows, wj, bj))
    w, b = model.params[f"decoder.w{last}"], model.params[f"decoder.b{last}"]
    final = "sine" if cfg.variant == "visir" else "sigmoid"
    grid = (cfg.grid_rows, cfg.grid_cols, cfg.patch_size * cfg.scale, cfg.channels)
    if hr is None:
        return output_chain_unfused(rows.data, w.data, b.data, cfg.omega0, final, grid)
    value, pull = output_chain_unfused(rows.data, w.data, b.data, cfg.omega0, final, grid, hr)
    return ad._make(value, (rows.key, w.key, b.key), pull)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("num_layers", [0, 1])
@pytest.mark.parametrize("siren_hidden_layers", [1, 2])
def test_output_head_has_the_bits_of_the_unfused_chain(batch, variant, num_layers, siren_hidden_layers):
    cfg = replace(TINY, variant=variant, num_layers=num_layers, siren_hidden_layers=siren_hidden_layers)
    model = init_parameters(cfg, seed=batch)
    rng = np.random.default_rng(batch)
    imgs = np.stack([tiny_image(seed) for seed in range(batch)])
    hrs = rng.uniform(0.0, 1.0, (batch, cfg.hr_height, cfg.hr_width, cfg.channels))
    for img, hr in ((imgs, hrs), (imgs[0], hrs[0])):
        with ad.no_grad():
            assert np.array_equal(predict(img, model).data, _unfused(img, model))
        ad.clear_tape()
        fused_loss = predict_loss(img, hr, model)
        fused = ad.backward(fused_loss, model.params)
        chain_loss = _unfused(img, model, hr)
        chain = ad.backward(chain_loss, model.params)
        assert np.array_equal(fused, chain)
        # Only the loss value may differ, in its last bits: it is summed in token order.
        assert fused_loss.item() == pytest.approx(chain_loss.item(), rel=1e-13, abs=0.0)
    with pytest.raises(ShapeError):  # the right number of targets, in another layout
        predict_loss(imgs, hrs.reshape(batch, -1, 1, cfg.channels), model)
    ad.clear_tape()


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("num_layers", [0, 1])
@pytest.mark.parametrize("siren_hidden_layers", [1, 2])
def test_loss_against_a_list_of_hr_images_has_the_bits_of_the_stacked_batch(batch, variant, num_layers,
                                                                            siren_hidden_layers):
    # training.train passes a batch's HR images as a list of separate arrays, not stacked.
    cfg = replace(TINY, variant=variant, num_layers=num_layers, siren_hidden_layers=siren_hidden_layers)
    model = init_parameters(cfg, seed=batch)
    rng = np.random.default_rng(batch)
    imgs = np.stack([tiny_image(seed) for seed in range(batch)])
    hrs = rng.uniform(0.0, 1.0, (batch, cfg.hr_height, cfg.hr_width, cfg.channels))
    for img, stacked in ((imgs, hrs), (imgs[0], hrs[0])):
        results = []
        for hr in (stacked, [h.copy() for h in stacked.reshape((-1,) + hrs.shape[1:])]):
            ad.clear_tape()
            loss = predict_loss(img, hr, model)
            results.append((loss.data, ad.backward(loss, model.params)))
        (stacked_loss, stacked_grads), (list_loss, list_grads) = results
        assert np.array_equal(list_loss, stacked_loss)
        assert np.array_equal(list_grads, stacked_grads)
    for bad in (list(hrs[1:]), list(hrs) + [hrs[0]],  # an image short, one too many
                [h.reshape(-1, 1, cfg.channels) for h in hrs],  # the right sizes, in another layout
                [h[:, :-1] for h in hrs]):  # an image too narrow
        with pytest.raises(ShapeError):
            predict_loss(imgs, bad, model)
        ad.clear_tape()


def test_coordinate_net_head_has_the_bits_of_the_unfused_chain():
    rng = np.random.default_rng(3)
    params = init_siren_stack([2, 8, 8, 3], omega0=20.0, seed=3)
    coords, target = coordinate_grid(5, 7), rng.uniform(0.0, 1.0, (5, 7, 3))
    rows = ad.sine_layer(ad.sine_layer(Tensor(coords.reshape(-1, 2)), params["w0"], params["b0"], 20.0),
                         params["w1"], params["b1"], 20.0)
    w, b = params["w2"], params["b2"]
    with ad.no_grad():
        out = siren_inr_forward(coords, params, 20.0).data
    assert np.array_equal(out, output_chain_unfused(rows.data, w.data, b.data, 20.0, "sine").reshape(5, 7, 3))
    value, pull = output_chain_unfused(rows.data, w.data, b.data, 20.0, "sine", target=target.reshape(-1, 3))
    chain = ad.backward(ad._make(value, (rows.key, w.key, b.key), pull), params)
    fused = ad.backward(siren_inr_loss(coords, target, params, 20.0), params)
    assert np.array_equal(fused, chain)
    with pytest.raises(ShapeError):  # the right number of targets, in another layout
        siren_inr_loss(coords, target.reshape(7, 5, 3), params, 20.0)
    ad.clear_tape()


@pytest.mark.parametrize("batch", [1, 4])
def test_cli_default_step_has_29_tape_entries(batch):
    # One output_head entry for the decoder's last affine, its sine, the patch merge and the
    # MSE, which would otherwise take six, and one sine_layer entry for each of the six hidden
    # sine layers' affine and sine (35 entries when they were two each).
    model = init_parameters(ModelConfig(), seed=0)
    rng = np.random.default_rng(0)
    ad.clear_tape()
    try:
        predict_loss(rng.uniform(0, 1, (batch, 60, 60, 3)), rng.uniform(0, 1, (batch, 240, 240, 3)), model)
        assert ad.tape_length() == 29
    finally:
        ad.clear_tape()


def test_encode_rejects_more_than_one_batch_axis():
    model = init_parameters(TINY, seed=0)
    with pytest.raises(ShapeError):
        encode(np.zeros((2, 2, 8, 8, 1)), model)


def test_coordinate_net_loss_tape_entries_all_reach_a_parameter(monkeypatch):
    # The loss fit_siren_inr differentiates, inspected as it reaches backward.
    checked = []

    def checking_backward(loss, params, out=None):
        _assert_every_entry_reaches_a_parameter(params)
        checked.append(ad.tape_length())
        return ad.backward(loss, params, out)

    monkeypatch.setattr(training, "backward", checking_backward)
    rng = np.random.default_rng(0)
    pair = SRPair(hr=rng.uniform(0, 1, (8, 8, 1)), lr=rng.uniform(0, 1, (4, 4, 1)), scale=2)
    ad.clear_tape()
    training.fit_siren_inr(pair, hidden_dim=8, hidden_layers=1, steps=1)
    assert len(checked) == 1


# ---------------------------------------------------------------------------
# coordinate-network baseline
# ---------------------------------------------------------------------------

def test_coordinate_grid_range():
    grid = coordinate_grid(4, 6)
    assert grid.shape == (4, 6, 2)
    assert grid.min() >= -1.0 and grid.max() <= 1.0
    assert np.allclose(grid[:, :, 0].mean(), 0.0, atol=1e-12)


def test_siren_inr_output_shape():
    stack = init_siren_stack([2, 16, 16, 3], omega0=20.0, seed=0)
    assert list(stack) == ["w0", "b0", "w1", "b1", "w2", "b2"]
    out = siren_inr_forward(coordinate_grid(5, 7), stack, omega0=20.0)
    assert out.shape == (5, 7, 3)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_siren_inr_zero_weights_give_half():
    stack = {"w0": Tensor(np.zeros((8, 2))), "b0": Tensor(np.zeros(8)),
             "w1": Tensor(np.zeros((1, 8))), "b1": Tensor(np.zeros(1))}
    out = siren_inr_forward(coordinate_grid(3, 3), stack, omega0=20.0)
    assert np.array_equal(out.data, np.full((3, 3, 1), 0.5))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_reproducible_from_seed():
    a = init_parameters(TINY, seed=123)
    b = init_parameters(TINY, seed=123)
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def test_init_different_seeds_differ():
    a = init_parameters(TINY, seed=1)
    b = init_parameters(TINY, seed=2)
    assert any(not np.array_equal(a.params[n].data, b.params[n].data) for n in a.params)


def test_init_deep_sine_layer_bound():
    cfg = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=64,
                      lr_height=8, lr_width=8, omega0=20.0, siren_hidden_layers=2,
                      siren_hidden_dim=64, scale=2, channels=1)
    model = init_parameters(cfg, seed=0)
    bound = math.sqrt(6.0 / 64.0) / 20.0
    assert bound == pytest.approx(0.01531, abs=5e-6)
    w = model.params["block0.ffn.w1"].data  # fan_in 64, deeper sine layer
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.8 * bound  # actually fills the range


def test_init_first_sine_layer_bound():
    model = init_parameters(TINY, seed=0)
    w0 = model.params["block0.ffn.w0"].data  # first layer of the stack, fan_in = 8
    assert np.abs(w0).max() <= 1.0 / 8.0
