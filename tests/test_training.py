import hashlib
import json
import math
import struct
import tracemalloc
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from visir.autodiff import ShapeError, Tensor, no_grad
from visir.data import (DataConfig, SRPair, SpectrumSpec, bicubic_downsample, build_dataset, load_pairs,
                        normalize_field, synth_field)
from visir.metrics import evaluate_pair
from visir.model import (ModelConfig, VisirModel, coordinate_grid, init_parameters, parameter_count, parameter_layout,
                         predict, siren_inr_forward)
from visir.training import (
    CheckpointFormatError,
    DivergenceError,
    TrainConfig,
    evaluate,
    fit_siren_inr,
    load_checkpoint,
    save_checkpoint,
    sweep,
    train,
    write_eval_csv,
    write_eval_curve,
    write_loss_curve,
    write_sweep_csv,
)

TINY = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=16,
                   lr_height=8, lr_width=8, omega0=20.0, siren_hidden_layers=2,
                   siren_hidden_dim=16, scale=2, channels=1)


def make_pair(seed=0, lr_size=8, scale=2, cycles=(1.5, 3.0)):
    spec = SpectrumSpec(components=tuple((0.8 / (i + 1), c, 0.4 * i) for i, c in enumerate(cycles)))
    field = synth_field(seed, lr_size * scale, lr_size * scale, spec)
    hr01, _ = normalize_field(field)
    hr = hr01[:, :, None]
    return SRPair(hr=hr, lr=bicubic_downsample(hr, scale), scale=scale, tile_index=seed)


def make_pairs(n, **kwargs):
    return [make_pair(seed=i, **kwargs) for i in range(n)]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_zero_steps_leaves_model_unchanged():
    model = init_parameters(TINY, seed=0)
    before = {n: p.data.copy() for n, p in model.params.items()}
    result = train(model, [make_pair()], TrainConfig(steps=0))
    assert result.curve == []
    for name, p in result.model.params.items():
        assert np.array_equal(p.data, before[name])


def test_training_reduces_loss():
    model = init_parameters(TINY, seed=0)
    result = train(model, [make_pair()], TrainConfig(learning_rate=1e-3, steps=200, seed=0))
    first = np.mean([v for _, v in result.curve[:10]])
    last = np.mean([v for _, v in result.curve[-10:]])
    assert last < first * 0.5


def test_training_deterministic_from_seed():
    a = train(init_parameters(TINY, seed=1), make_pairs(3), TrainConfig(steps=50, seed=7, batch_size=2))
    b = train(init_parameters(TINY, seed=1), make_pairs(3), TrainConfig(steps=50, seed=7, batch_size=2))
    assert a.curve == b.curve
    for name in a.model.params:
        assert np.array_equal(a.model.params[name].data, b.model.params[name].data)


def test_training_empty_pairs_errors():
    with pytest.raises(ValueError):
        train(init_parameters(TINY, seed=0), [], TrainConfig(steps=1))


@pytest.mark.filterwarnings("ignore:overflow")
def test_training_divergence_raises():
    model = init_parameters(TINY, seed=0)
    # An absurd learning rate overflows the parameters after the first
    # update; the next forward pass must abort with a diagnostic.
    with pytest.raises(DivergenceError) as err:
        train(model, [make_pair()], TrainConfig(learning_rate=1e200, steps=5, seed=0))
    assert err.value.step >= 2


def test_training_eval_probes():
    pairs = make_pairs(2)
    model = init_parameters(TINY, seed=0)
    result = train(model, pairs, TrainConfig(learning_rate=1e-3, steps=20, seed=0, eval_interval=10),
                   eval_pairs=pairs)
    assert [s for s, _ in result.eval_curve] == [10, 20]


def test_pairs_read_at_each_step_train_and_evaluate_as_a_list_of_them(tmp_path):
    # load_pairs reads an image each time it is asked for; a list of SRPairs holds every image
    # read once.  Training and evaluation see the same values either way.
    manifest = build_dataset(DataConfig(sources=1, source_height=48, source_width=96, tile=24, scale=2, seed=3),
                             tmp_path / "d")
    cfg = replace(TINY, lr_height=12, lr_width=12, channels=3)
    tc = TrainConfig(learning_rate=1e-3, steps=6, seed=4, batch_size=3, eval_interval=3)
    runs = []
    for wrap in (lambda pairs: pairs, lambda pairs: [SRPair(p.hr, p.lr, p.scale, p.tile_index) for p in pairs]):
        train_pairs, test_pairs = wrap(load_pairs(manifest, "train")), wrap(load_pairs(manifest, "test"))
        result = train(init_parameters(cfg, seed=0), train_pairs, tc, eval_pairs=test_pairs)
        save_checkpoint(result.model, tmp_path / "model.vsck")
        runs.append(((tmp_path / "model.vsck").read_bytes(), result.curve, result.eval_curve,
                     evaluate(result.model, test_pairs)))
    assert runs[0] == runs[1]


def test_a_failed_step_leaves_no_tape_entries(monkeypatch):
    # Scale-4 pairs whose LR images fit a scale-2 model: the HR images do not fit its output,
    # and the shapes are checked before the encoder records.  A step that fails after its
    # forward has recorded clears the tape whatever it raised.  So no entry, and no array a
    # pull reads, outlives a failed step.
    from visir import autodiff, training

    autodiff.clear_tape()
    with pytest.raises(ShapeError, match="HR images"):
        train(init_parameters(TINY, seed=0), make_pairs(2, scale=4), TrainConfig(steps=1, batch_size=2))
    assert autodiff.tape_length() == 0

    predict_loss = training.predict_loss

    def interrupted_loss(*args):
        predict_loss(*args)
        raise KeyboardInterrupt

    monkeypatch.setattr(training, "predict_loss", interrupted_loss)
    with pytest.raises(KeyboardInterrupt):
        train(init_parameters(TINY, seed=0), make_pairs(2), TrainConfig(steps=1, batch_size=2))
    assert autodiff.tape_length() == 0


def test_train_frees_the_batch_before_backward(monkeypatch):
    # Each step reads its batch inside the loss, so a split that reads a pair when it is
    # indexed has each of the batch's HR images freed before the backward starts.
    from visir import autodiff, training

    refs, alive = [], []

    class Split:
        def __len__(self):
            return 4

        def __getitem__(self, index):
            pair = make_pair(seed=index)
            refs.append(weakref.ref(pair.hr))
            return pair

    def checking_backward(loss, params, out=None):
        alive.append(sum(ref() is not None for ref in refs))
        return autodiff.backward(loss, params, out)

    monkeypatch.setattr(training, "backward", checking_backward)
    train(init_parameters(TINY, seed=0), Split(), TrainConfig(steps=2, batch_size=3))
    assert len(refs) == 6 and alive == [0, 0]


def test_a_step_holds_one_hr_image_and_reads_each_grid_once(tmp_path, monkeypatch):
    # A load_pairs split reads an image when it is asked for.  train stacks the LR images and
    # the head reads each HR image just before it subtracts it, then drops it: at most one is
    # alive at a time (the whole batch, 4, when train read them all before the forward), and
    # each of a step's grid files is read once for each time the batch names its pair.
    from visir import autodiff, data, training

    manifest = build_dataset(DataConfig(sources=1, source_height=48, source_width=96, tile=24, scale=2, seed=3),
                             tmp_path / "d")
    pairs = load_pairs(manifest, "train")
    hr_files = {str(manifest.root / e.hr_path) for e in manifest.split("train")}
    refs, alive, reads, steps = [], [], [], []
    read_grid = data.read_grid

    def counting_read_grid(path):
        values, units = read_grid(path)
        reads.append(str(path))
        if str(path) in hr_files:
            refs.append(weakref.ref(values))
            alive.append(sum(ref() is not None for ref in refs))
        return values, units

    def counting_backward(loss, params, out=None):
        steps.append(list(reads))
        reads.clear()
        return autodiff.backward(loss, params, out)

    monkeypatch.setattr(data, "read_grid", counting_read_grid)
    monkeypatch.setattr(training, "backward", counting_backward)
    cfg = replace(TINY, lr_height=12, lr_width=12, channels=3)
    train(init_parameters(cfg, seed=0), pairs, TrainConfig(steps=3, batch_size=4, seed=1))
    assert len(alive) == 12 and max(alive) == 1, alive
    rng = np.random.default_rng(1)
    for step in steps:
        batch = [manifest.split("train")[i] for i in rng.integers(0, len(pairs), size=4)]
        expected = [str(manifest.root / e.lr_path) for e in batch] + [str(manifest.root / e.hr_path) for e in batch]
        assert step == expected


def test_evaluate_predicts_before_it_reads_the_hr_image(monkeypatch):
    # With a split that reads a pair's images when they are asked for, inference holds no HR image.
    from visir import training

    refs, alive = [], []

    class Pair:
        def __init__(self, seed):
            self.pair = make_pair(seed=seed)

        @property
        def lr(self):
            return self.pair.lr.copy()

        @property
        def hr(self):
            hr = self.pair.hr.copy()
            refs.append(weakref.ref(hr))
            return hr

    def checking_predict(img, model):
        alive.append(sum(ref() is not None for ref in refs))
        return predict(img, model)

    monkeypatch.setattr(training, "predict", checking_predict)
    model = init_parameters(TINY, seed=0)
    reports, _ = evaluate(model, [Pair(seed) for seed in range(3)])
    assert alive == [0, 0, 0] and len(refs) == 3
    assert reports == [evaluate_pair(p.hr, predict(p.lr, model).data) for p in make_pairs(3)]


def test_tape_entries_per_step_do_not_grow_with_batch(monkeypatch):
    # The batch is a tensor axis: one predict and one loss per step, whatever the batch size.
    from visir import autodiff, training

    lengths = []

    def counting_backward(loss, params, out=None):
        lengths.append(autodiff.tape_length())
        return autodiff.backward(loss, params, out)

    monkeypatch.setattr(training, "backward", counting_backward)
    for batch in (1, 4):
        train(init_parameters(TINY, seed=0), make_pairs(4), TrainConfig(steps=1, batch_size=batch))
    assert lengths[0] == lengths[1] > 0


@pytest.mark.parametrize("variant", ["visir", "vit_mlp"])
def test_finiteness_checks_per_step_do_not_grow_with_depth(monkeypatch, variant):
    # Finiteness is checked where values enter and leave the model, not after every primitive:
    # the input patches, the output activation and the Adam update, whatever the depth.
    from dataclasses import replace

    from visir import autodiff

    counts = []
    for layers in (1, 3):
        model = init_parameters(replace(TINY, num_layers=layers, variant=variant), seed=0)
        calls = []
        monkeypatch.setattr(autodiff, "_check_finite", lambda arr: calls.append(arr.shape))
        train(model, [make_pair()], TrainConfig(steps=1))
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts == [3, 3]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for lr in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError, match="eval_interval"):
        TrainConfig(eval_interval=-1)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_single_image_summary_collapses():
    model = init_parameters(TINY, seed=0)
    reports, summary = evaluate(model, [make_pair()])
    assert len(reports) == 1
    assert summary.mse.max == summary.mse.mean == summary.mse.min == reports[0].mse
    assert summary.count == 1


def test_evaluate_matches_direct_metric_calls():
    model = init_parameters(TINY, seed=0)
    pairs = make_pairs(3)
    reports, _ = evaluate(model, pairs)
    with no_grad():
        for pair, report in zip(pairs, reports):
            out = predict(pair.lr, model).data
            assert report == evaluate_pair(pair.hr, out)


def test_evaluate_summary_matches_hand_aggregation():
    model = init_parameters(TINY, seed=0)
    pairs = make_pairs(3)
    reports, summary = evaluate(model, pairs)
    mses = [r.mse for r in reports]
    psnrs = [r.psnr for r in reports]
    ssims = [r.ssim for r in reports]
    assert summary.mse.max == max(mses)
    assert summary.mse.mean == pytest.approx(sum(mses) / 3, rel=1e-12)
    assert summary.mse.min == min(mses)
    assert summary.psnr.mean == pytest.approx(sum(psnrs) / 3, rel=1e-12)
    assert summary.ssim.max == max(ssims)
    assert summary.mse.min <= summary.mse.mean <= summary.mse.max
    assert summary.psnr.min <= summary.psnr.mean <= summary.psnr.max


def test_evaluate_excludes_infinite_psnr_from_mean():
    model = init_parameters(TINY, seed=0)
    ordinary = make_pair(0)
    with no_grad():
        out = predict(ordinary.lr, model).data
    perfect = SRPair(hr=out, lr=ordinary.lr, scale=2)  # model reproduces it exactly
    reports, summary = evaluate(model, [ordinary, perfect])
    assert summary.psnr_inf_count == 1
    assert summary.psnr.max == math.inf
    finite = [r.psnr for r in reports if math.isfinite(r.psnr)]
    assert summary.psnr.mean == pytest.approx(finite[0])


def test_evaluate_empty_split_errors():
    with pytest.raises(ValueError):
        evaluate(init_parameters(TINY, seed=0), [])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_single_cell_equals_single_run(tmp_path):
    pairs = make_pairs(3)
    tc = TrainConfig(learning_rate=1e-3, steps=30, seed=0)
    result = sweep(TINY, {"train": pairs, "test": pairs}, tc, frequencies=(20.0,), layer_counts=(2,))
    assert set(result.cells) == {(2, 20.0)}

    model = init_parameters(TINY, seed=0)
    train(model, pairs, tc)
    _, summary = evaluate(model, pairs)
    assert result.cells[(2, 20.0)] == summary.psnr.mean
    (cell, value) = result.best()
    assert cell == (2, 20.0) and value == summary.psnr.mean


def test_sweep_grid_complete(tmp_path):
    pairs = make_pairs(2)
    tc = TrainConfig(learning_rate=1e-3, steps=5, seed=0)
    result = sweep(TINY, {"train": pairs, "test": pairs}, tc, frequencies=(10.0, 20.0, 30.0), layer_counts=(1, 2))
    assert len(result.cells) == 6
    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(result, csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 layer rows
    assert lines[0] == "hidden_layers,10.0,20.0,30.0"
    for line in lines[1:]:
        cells = line.split(",")[1:]
        assert len(cells) == 3
        for cell in cells:
            float(cell)  # numeric, no failures expected here


def test_sweep_checks_every_cell_before_training_any(monkeypatch):
    from visir import training

    calls = []
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
    pairs = make_pairs(1)
    with pytest.raises(ValueError, match="siren_hidden_layers"):
        sweep(TINY, {"train": pairs, "test": pairs}, TrainConfig(steps=1), frequencies=(10.0, 20.0),
              layer_counts=(1, 2, 7))
    assert calls == []


@pytest.mark.filterwarnings("ignore:overflow")
def test_sweep_records_failures(tmp_path):
    pairs = make_pairs(1)
    tc = TrainConfig(learning_rate=1e200, steps=5, seed=0)
    result = sweep(TINY, {"train": pairs, "test": pairs}, tc, frequencies=(20.0,), layer_counts=(1, 2))
    assert len(result.failures) == 2
    assert all(math.isnan(v) for v in result.cells.values())
    write_sweep_csv(result, tmp_path / "sweep.csv")
    body = (tmp_path / "sweep.csv").read_text()
    assert body.count("failed") == 2
    with pytest.raises(ValueError):
        result.best()


# ---------------------------------------------------------------------------
# coordinate-network fitting
# ---------------------------------------------------------------------------

def test_inr_fit_low_frequency_sinusoid():
    h = w = 16
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    img = np.clip(0.5 + 0.4 * np.sin(2 * np.pi * (1.5 * xx + yy)), 0, 1)[:, :, None]
    hr = np.repeat(np.repeat(img, 2, 0), 2, 1)
    pair = SRPair(hr=hr, lr=img, scale=2)
    params, recon = fit_siren_inr(pair, hidden_dim=32, hidden_layers=2, omega0=20.0,
                                  steps=2000, learning_rate=1e-3, seed=0)
    assert sorted(params) == ["b0", "b1", "b2", "w0", "w1", "w2"]
    with no_grad():
        refit = siren_inr_forward(coordinate_grid(h, w), params, omega0=20.0).data
    assert float(((refit - img) ** 2).mean()) < 1e-3
    assert recon.shape == hr.shape


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = init_parameters(TINY, seed=4)
    path = tmp_path / "m.vsck"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for name in model.params:
        assert np.array_equal(loaded.params[name].data, model.params[name].data)
    # The payload sits at an odd offset in the file; the loaded vector is its own aligned, read-only copy.
    assert loaded.vector.tobytes() == model.vector.tobytes()
    assert loaded.vector.flags.aligned and loaded.vector.flags.owndata and not loaded.vector.flags.writeable
    assert all(p.data.base is loaded.vector for p in loaded.params.values())
    img = np.random.default_rng(5).uniform(0, 1, (8, 8, 1))
    with no_grad():
        a = predict(img, model).data
        b = predict(img, loaded).data
    assert np.array_equal(a, b)  # 0 ULP


def test_checkpoint_same_seed_same_bytes(tmp_path):
    # Parameters are immutable: tensors taken from a model before it trains keep their bytes,
    # so a model built from them afterwards repeats that training to the byte.
    pairs = make_pairs(2)
    model = init_parameters(TINY, seed=3)
    before = dict(model.params)
    before_bytes = model.vector.tobytes()
    result = train(model, pairs, TrainConfig(learning_rate=1e-3, steps=25, seed=3))
    assert result.model is model and model.vector.tobytes() != before_bytes
    save_checkpoint(model, tmp_path / "a.vsck")
    again = VisirModel(TINY, before)
    assert again.vector.tobytes() == before_bytes
    assert again.vector.tobytes() == init_parameters(TINY, seed=3).vector.tobytes()
    train(again, pairs, TrainConfig(learning_rate=1e-3, steps=25, seed=3))
    save_checkpoint(again, tmp_path / "b.vsck")
    assert (tmp_path / "a.vsck").read_bytes() == (tmp_path / "b.vsck").read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    (tmp_path / "bad.vsck").write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(tmp_path / "bad.vsck")


def test_checkpoint_truncated(tmp_path):
    model = init_parameters(TINY, seed=0)
    save_checkpoint(model, tmp_path / "m.vsck")
    blob = (tmp_path / "m.vsck").read_bytes()
    (tmp_path / "cut.vsck").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(tmp_path / "cut.vsck")


@pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig)])
def test_checkpoint_config_missing_field(tmp_path, name):
    # Every field has a default, so a dropped one must be an error, not a silent fill.
    save_checkpoint(init_parameters(TINY, seed=0), tmp_path / "m.vsck")
    blob = (tmp_path / "m.vsck").read_bytes()
    version, size = struct.unpack("<II", blob[4:12])
    config = json.loads(blob[12:12 + size])
    del config[name]
    short = json.dumps(config, sort_keys=True).encode("utf-8")
    (tmp_path / "short.vsck").write_bytes(blob[:4] + struct.pack("<II", version, len(short)) + short
                                          + blob[12 + size:])
    with pytest.raises(CheckpointFormatError, match=name):
        load_checkpoint(tmp_path / "short.vsck")


@pytest.mark.parametrize("edit", ["missing", "extra", "misshaped"])
def test_checkpoint_tensors_must_match_config(tmp_path, edit):
    # A (1, D) `pos` would broadcast silently in encode; a missing one would end in KeyError.  The file
    # holds no names, so such a model cannot be built at all, and every model can be written.
    params = dict(init_parameters(TINY, seed=0).params)
    if edit == "missing":
        del params["pos"]
    elif edit == "extra":
        params["pos2"] = params["pos"]
    else:
        params["pos"] = Tensor(np.zeros((1, TINY.embed_dim)))
    with pytest.raises(ValueError, match="pos"):
        VisirModel(TINY, params)


def test_checkpoint_trailing_garbage(tmp_path):
    model = init_parameters(TINY, seed=0)
    save_checkpoint(model, tmp_path / "m.vsck")
    blob = (tmp_path / "m.vsck").read_bytes()
    (tmp_path / "fat.vsck").write_bytes(blob + b"extra")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(tmp_path / "fat.vsck")


def test_checkpoint_trailing_bytes_are_refused_before_they_are_read(tmp_path):
    # The file's size is checked against its config's layout before a value is read,
    # so 64 MB of trailing bytes are refused without being held.
    save_checkpoint(init_parameters(TINY, seed=0), tmp_path / "m.vsck")
    with open(tmp_path / "m.vsck", "r+b") as fh:
        fh.truncate(fh.seek(0, 2) + 64 * 2 ** 20)  # zero bytes, sparse where the filesystem allows
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError, match="trailing bytes after checkpoint payload"):
            load_checkpoint(tmp_path / "m.vsck")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_checkpoint_non_finite_tensor(tmp_path, value):
    # Tensors follow in parameter_layout order, so the last float belongs to the layout's last tensor.
    save_checkpoint(init_parameters(TINY, seed=0), tmp_path / "m.vsck")
    blob = (tmp_path / "m.vsck").read_bytes()
    (tmp_path / "bad.vsck").write_bytes(blob[:-8] + struct.pack("<d", value))
    with pytest.raises(CheckpointFormatError, match=f"'{list(parameter_layout(TINY))[-1]}' holds a non-finite"):
        load_checkpoint(tmp_path / "bad.vsck")


def test_checkpoint_config_not_utf8(tmp_path):
    save_checkpoint(init_parameters(TINY, seed=0), tmp_path / "m.vsck")
    blob = bytearray((tmp_path / "m.vsck").read_bytes())
    blob[blob.index(b'"variant"')] = 0xFF
    (tmp_path / "bad.vsck").write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="bad checkpoint config: 'utf-8' codec"):
        load_checkpoint(tmp_path / "bad.vsck")


@pytest.mark.parametrize("size", [0xFFFFFFFF, None], ids=["u32_max", "file_length"])
def test_checkpoint_config_past_end_of_file(tmp_path, size):
    save_checkpoint(init_parameters(TINY, seed=0), tmp_path / "m.vsck")
    blob = bytearray((tmp_path / "m.vsck").read_bytes())
    struct.pack_into("<I", blob, 8, len(blob) if size is None else size)
    (tmp_path / "bad.vsck").write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="truncated checkpoint"):
        load_checkpoint(tmp_path / "bad.vsck")


def test_checkpoint_holds_header_config_and_values_only(tmp_path):
    # No tensor names, ranks or extents: the config's layout says which values follow.
    model = init_parameters(TINY, seed=0)
    save_checkpoint(model, tmp_path / "m.vsck")
    blob = (tmp_path / "m.vsck").read_bytes()
    magic, version, size = struct.unpack_from("<4sII", blob)
    assert (magic, version) == (b"VSCK", 3)
    assert ModelConfig(**json.loads(blob[12:12 + size])) == TINY
    assert len(blob) == 12 + size + 8 * parameter_count(model)
    values = np.frombuffer(blob, dtype="<f8", offset=12 + size)
    assert np.array_equal(values, np.concatenate([model.params[name].data.ravel() for name in parameter_layout(TINY)]))


def test_committed_checkpoint_reads_back_its_config_and_values(tmp_path):
    # tests/fixtures/checkpoint_v3.vsck is save_checkpoint(init_parameters(ModelConfig(**config), seed=0)) of
    # the config its .json records, with the SHA-256 of each parameter's little-endian f64 bytes.  A change
    # to ModelConfig's fields or to parameter_layout fails here: it bumps CHECKPOINT_VERSION and commits
    # a new fixture.  Only committed bytes are read back, so no host's arithmetic enters.
    fixture = Path(__file__).parent / "fixtures" / "checkpoint_v3.vsck"
    recorded = json.loads(fixture.with_suffix(".json").read_text())
    model = load_checkpoint(fixture)
    assert asdict(model.config) == recorded["config"]
    assert list(parameter_layout(model.config)) == list(model.params) == list(recorded["sha256"])
    for name, digest in recorded["sha256"].items():
        assert hashlib.sha256(model.params[name].data.astype("<f8").tobytes()).hexdigest() == digest, name
    save_checkpoint(model, tmp_path / "again.vsck")  # the writer makes those bytes again
    assert (tmp_path / "again.vsck").read_bytes() == fixture.read_bytes()


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_loss_curve_csv(tmp_path):
    write_loss_curve([(1, 0.5), (2, 0.25)], tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_text().strip().split("\n")
    assert lines[0] == "step,loss"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,0.25"


def test_eval_curve_csv(tmp_path):
    write_eval_curve([(5, 21.5), (10, math.inf)], tmp_path / "e.csv")
    assert (tmp_path / "e.csv").read_text() == "step,psnr\n5,21.5\n10,inf\n"


def test_eval_csv_renders_inf(tmp_path):
    from visir.metrics import MetricsReport

    reports = [MetricsReport(mse=0.0, psnr=math.inf, ssim=1.0),
               MetricsReport(mse=0.01, psnr=20.0, ssim=0.9)]
    write_eval_csv(["a", "b"], reports, tmp_path / "e.csv")
    lines = (tmp_path / "e.csv").read_text().strip().split("\n")
    assert lines[0] == "image_id,mse,psnr,ssim"
    assert lines[1] == "a,0.0,inf,1.0"
    assert lines[2].startswith("b,0.01,20.0,")
