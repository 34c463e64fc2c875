"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Budgets are asserted, not just observed.
"""

import contextlib
import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest

from visir import autodiff as ad
from visir.autodiff import Tensor, no_grad
from visir.data import (
    DataConfig,
    SRPair,
    SpectrumSpec,
    bicubic_downsample,
    build_dataset,
    normalize_field,
    synth_field,
    tile_image,
)
from visir.metrics import mse, psnr, psnr_from_mse, ssim
from visir.model import (
    ModelConfig,
    VisirModel,
    as_mlp_baseline,
    init_parameters,
    parameter_count,
    predict,
    predict_loss,
)
from visir.training import (
    DEFAULT_FREQUENCIES,
    DEFAULT_LAYER_COUNTS,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_sweep_csv,
)

from oracles import by_name, finite_difference_grads, grads_close, max_rel_error, reassemble_tiles

ROOT = Path(__file__).resolve().parents[1]


def _load_script(name: str):
    """scripts/<name>.py as a module: the acceptance runs are the experiment scripts' own."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {title} ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    print(f"[criterion {number}] PASS {title} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s"


GRADCHECK_CFG = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=8,
                            lr_height=8, lr_width=8, omega0=20.0, siren_hidden_layers=1,
                            siren_hidden_dim=8, scale=2, channels=1)


def synthetic_pair(seed: int, lr_size: int, scale: int) -> SRPair:
    spec = SpectrumSpec(components=((0.8, 1.5, 0.37), (0.4, 3.0, 0.74)))
    field = synth_field(seed, lr_size * scale, lr_size * scale, spec)
    hr01, _ = normalize_field(field)
    hr = hr01[:, :, None]
    return SRPair(hr=hr, lr=bicubic_downsample(hr, scale), scale=scale, tile_index=seed)


def test_criterion_1_gradient_oracle():
    with criterion(1, "reverse-mode gradients match finite differences on the tiny model", 60.0):
        model = init_parameters(GRADCHECK_CFG, seed=0)
        pair = synthetic_pair(0, lr_size=8, scale=2)

        ad.clear_tape()
        analytic = by_name(ad.backward(predict_loss(pair.lr, pair.hr, model), model.params), model.params)
        assert all(np.any(g != 0.0) for g in analytic.values())  # every tensor feeds the loss

        worst = 0.0
        for name in sorted(model.params):
            arrs = {name: model.params[name].data.copy()}

            def eval_loss(a):
                moved = VisirModel(model.config, {**model.params, name: Tensor(a[name])})
                with no_grad():
                    d = predict(pair.lr, moved).data - pair.hr
                    return float((d * d).mean())

            numeric = finite_difference_grads(eval_loss, arrs, h=1e-4)
            assert grads_close(analytic[name], numeric[name], rtol=1e-3, atol=1e-6), \
                f"{name}: max rel err {max_rel_error(analytic[name], numeric[name]):.2e}"
            worst = max(worst, max_rel_error(analytic[name], numeric[name]))
        print(f"  checked {len(analytic)} tensors / {parameter_count(model)} scalars, "
              f"worst relative error {worst:.2e}")


def test_criterion_2_metric_oracles():
    with criterion(2, "metric oracles: exact PSNR, SSIM identity, MSE hand case, monotonicity", 60.0):
        # 10*log10(1/0.01) written as -10*log10(mse): exact at double precision.
        assert psnr_from_mse(0.01) == 20.0

        rng = np.random.default_rng(2)
        for _ in range(20):
            img = rng.uniform(0, 1, (8, 8, 3))
            assert abs(ssim(img, img) - 1.0) <= 1e-9

        hand_o = np.array([[0.0, 0.5], [1.0, 0.25]])
        hand_r = np.array([[0.1, 0.5], [0.8, 0.25]])
        # Exactly 0.0125 up to the rounding of the decimal literals themselves.
        assert abs(mse(hand_o, hand_r) - 0.0125) < 1e-16

        grid = np.linspace(1e-4, 4.0, 300)
        values = [psnr_from_mse(m) for m in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_3_pipeline_arithmetic():
    with criterion(3, "source tiling, 4x bicubic geometry, bit-exact reassembly, constant preservation", 120.0):
        rng = np.random.default_rng(3)
        source = rng.uniform(0, 1, (720, 1440, 3))
        tiles = tile_image(source, 240, 240)
        assert len(tiles) == 18
        assert all(t.shape == (240, 240, 3) for t in tiles)

        back = reassemble_tiles(tiles, 3, 6)
        assert np.array_equal(back, source)

        lr = bicubic_downsample(tiles[7], 4)
        assert lr.shape == (60, 60, 3)

        for c in (0.0, 0.3, 0.5, rng.uniform(0, 1), 1.0):
            const = np.full((240, 240, 3), c)
            assert np.array_equal(bicubic_downsample(const, 4), np.full((60, 60, 3), c))


def test_criterion_4_memorization_sanity():
    with criterion(4, "single-pair overfit reaches > 30 dB train PSNR", 300.0):
        pair = synthetic_pair(7, lr_size=8, scale=2)
        cfg = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=16,
                          lr_height=8, lr_width=8, omega0=20.0, siren_hidden_layers=2,
                          siren_hidden_dim=32, scale=2, channels=1)
        model = init_parameters(cfg, seed=0)
        result = train(model, [pair], TrainConfig(learning_rate=1e-3, steps=1500, batch_size=1, seed=0))
        assert len(result.curve) == 1500
        with no_grad():
            out = predict(pair.lr, result.model).data
        train_psnr = psnr(pair.hr, out)
        print(f"  train PSNR after 1500 steps: {train_psnr:.2f} dB")
        assert train_psnr > 30.0


def test_criterion_5_spectral_bias_trend():
    with criterion(5, "sine variant beats the MLP baseline on >= 4 of 5 seeds; ordering holds", 1200.0):
        experiment = _load_script("spectral_bias_experiment")
        cfg = experiment.model_config()
        assert parameter_count(init_parameters(cfg, 0)) == parameter_count(init_parameters(as_mlp_baseline(cfg), 0))

        rows = experiment.run(seeds=5, steps=800, learning_rate=1e-3, omega0=20.0, hidden_layers=2)
        assert [r[0] for r in rows] == list(range(5))
        _, visir_means, mlp_means, inr_means = zip(*rows)
        wins = sum(v > m for v, m in zip(visir_means, mlp_means))
        assert wins >= 4, f"sine variant won only {wins}/5 seeds"
        # Table-style ordering over seed means, checked as an ordering only.
        assert np.mean(visir_means) > np.mean(mlp_means) > np.mean(inr_means)


def test_criterion_6_sweep_contract(tmp_path):
    with criterion(6, "default 6x6 sweep: complete CSV, argmax reported", 3600.0):
        result = _load_script("frequency_sweep").run(steps=60, learning_rate=1e-3, n_pairs=8,
                                                     frequencies=DEFAULT_FREQUENCIES,
                                                     layer_counts=DEFAULT_LAYER_COUNTS)
        assert len(result.cells) == 36
        assert set(result.cells) == {(l, f) for l in DEFAULT_LAYER_COUNTS for f in DEFAULT_FREQUENCIES}

        csv_path = tmp_path / "sweep.csv"
        write_sweep_csv(result, csv_path)
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 7  # header + 6 layer rows
        cells = [c for line in lines[1:] for c in line.split(",")[1:]]
        assert len(cells) == 36
        for cell in cells:
            assert cell == "failed" or math.isfinite(float(cell))

        (layers, freq), value = result.best()
        print(f"  argmax cell: hidden_layers={layers}, omega0={freq} at {value:.2f} dB")
        assert math.isfinite(value)


def test_criterion_7_determinism_and_persistence(tmp_path):
    with criterion(7, "bit-identical checkpoints, 0-ULP round trip, byte-identical manifests", 300.0):
        cfg = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=16,
                          lr_height=8, lr_width=8, omega0=20.0, siren_hidden_layers=2,
                          siren_hidden_dim=16, scale=2, channels=1)
        pairs = [synthetic_pair(s, lr_size=8, scale=2) for s in range(3)]
        for tag in ("a", "b"):
            model = init_parameters(cfg, seed=11)
            result = train(model, pairs, TrainConfig(learning_rate=1e-3, steps=40, batch_size=2, seed=11))
            save_checkpoint(result.model, tmp_path / f"{tag}.vsck")
        blob_a = (tmp_path / "a.vsck").read_bytes()
        assert blob_a == (tmp_path / "b.vsck").read_bytes()

        reloaded = load_checkpoint(tmp_path / "a.vsck")
        probe = pairs[0].lr
        trained = load_checkpoint(tmp_path / "b.vsck")
        with no_grad():
            x = predict(probe, trained).data
            y = predict(probe, reloaded).data
        assert np.array_equal(x, y)  # 0 ULP after reload

        data_cfg = DataConfig(sources=2, source_height=48, source_width=96, tile=24, scale=4, seed=5)
        build_dataset(data_cfg, tmp_path / "d1")
        build_dataset(data_cfg, tmp_path / "d2")
        assert (tmp_path / "d1" / "manifest.json").read_bytes() == \
               (tmp_path / "d2" / "manifest.json").read_bytes()
