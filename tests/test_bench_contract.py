"""The benchmark's layer tracer still fits the library.

perfbench/tracer.py wraps visir's public functions by module attribute and
reads some of their arguments and results.  It also looks up fourteen deleted
autodiff primitives, which remain as names of one function that raises; no
model calls them, so their figures read 0.  ``autodiff.sine_activation.*`` is
among them: the sine stacks' hidden layers are ``sine_layer`` entries, which
the tracer does not wrap until its revision (ROADMAP item 1) re-lists the
primitives.  This runs a tiny train, evaluate and coordinate-net fit under the
tracer and checks that every per-layer metric BENCHMARK.json declares comes
out, finite.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import visir
import visir.cli  # noqa: F401  (the tracer patches visir.cli too)
from visir.data import SRPair
from visir.model import ModelConfig, init_parameters
from visir.training import TrainConfig, evaluate, fit_siren_inr, train

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(n):
    rng = np.random.default_rng(0)
    return [SRPair(hr=rng.uniform(0, 1, (8, 8, 1)), lr=rng.uniform(0, 1, (4, 4, 1)), scale=2) for _ in range(n)]


def test_tracer_reports_every_declared_layer_metric():
    tracer_module = _load_tracer()
    modules = [visir] + [getattr(visir, layer) for layer in tracer_module.LAYERS]
    before = [dict(vars(m)) for m in modules]
    declared = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    cfg = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=8, lr_height=4, lr_width=4,
                      siren_hidden_dim=8, scale=2, channels=1)
    pairs = _pairs(3)

    tracer = tracer_module.Tracer(visir)
    tracer.install()
    try:
        assert visir.training.train is not train  # wrapped while installed
        tracer.run_id = 0  # the measured window
        train(init_parameters(cfg, seed=0), pairs, TrainConfig(learning_rate=1e-3, steps=2, batch_size=2))
        evaluate(init_parameters(cfg, seed=1), pairs)
        fit_siren_inr(pairs[0], hidden_dim=8, hidden_layers=1, steps=2)
    finally:
        tracer.uninstall()

    for module, attrs in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in attrs.items()), module.__name__
    metrics = tracer.per_layer("autodiff.backward", overhead_ratio=1.0)
    missing = [name for name in declared if name not in metrics]
    assert not missing
    assert all(math.isfinite(metrics[name]) for name in declared)
    assert metrics["autodiff.tape_entries_per_step"] > 0
    assert metrics["autodiff.adam_step.ms"] > 0  # Adam and backward are traced where they are called
    assert metrics["autodiff.backward.ms"] > 0
    assert metrics["model.apply_stack.ms"] > 0


def test_tracer_follows_the_cli_path(tmp_path):
    # data_infer's hooks read read_grid's output, write_grid's values and the checkpoint path:
    # a tiny build-data -> train -> eval -> reconstruct (PNG input, VSGR reference) through cli.main.
    tracer_module = _load_tracer()
    declared = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    data, run = tmp_path / "data", tmp_path / "run"
    tracer = tracer_module.Tracer(visir)
    tracer.install()
    try:
        tracer.run_id = 0
        assert visir.cli.main(["build-data", "--data.sources", "2", "--data.source_height", "24",
                               "--data.source_width", "48", "--data.tile", "12", "--data.scale", "2",
                               "--out", str(data)]) == 0
        assert visir.cli.main(["train", "--manifest", str(data / "manifest.json"), "--model.patch_size", "2",
                               "--model.num_layers", "1", "--model.num_heads", "2", "--model.embed_dim", "8",
                               "--model.siren_hidden_dim", "8", "--train.steps", "2", "--out", str(run)]) == 0
        assert visir.cli.main(["eval", "--manifest", str(data / "manifest.json"), "--checkpoint",
                               str(run / "model.vsck"), "--out", str(tmp_path / "eval")]) == 0
        visir.data.write_png(tmp_path / "lr.png", visir.data.read_grid(data / "s000_t00_lr.vsgr")[0])
        assert visir.cli.main(["reconstruct", "--checkpoint", str(run / "model.vsck"), "--input",
                               str(tmp_path / "lr.png"), "--hr", str(data / "s000_t00_hr.vsgr"),
                               "--out", str(tmp_path / "rec")]) == 0
    finally:
        tracer.uninstall()

    metrics = tracer.per_layer("model.predict", overhead_ratio=1.0)
    assert [name for name in declared if not math.isfinite(metrics.get(name, math.nan))] == []
    for name in ("data.read_grid.ms", "data.read_png.ms", "training.load_checkpoint.ms", "data.grid_mb_read"):
        assert metrics[name] > 0, name
