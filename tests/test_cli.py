import json
import math
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from visir import cli, training
from visir.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_MISMATCH, EXIT_OK, KEYS, _config, _geometry,
                       _spectrum, build_parser, load_settings, main)
from visir.autodiff import Tensor
from visir.data import (DataConfig, DatasetManifest, build_dataset, load_manifest, load_pairs, read_png, write_grid,
                        write_png)
from visir.model import ModelConfig, VisirModel, as_mlp_baseline, init_parameters, parameter_layout
from visir.training import TrainConfig, load_checkpoint, save_checkpoint

from oracles import png_blob, png_bomb

TINY_MODEL_FLAGS = [
    "--model.patch_size", "2", "--model.num_layers", "1", "--model.num_heads", "2",
    "--model.embed_dim", "16", "--model.siren_hidden_dim", "16",
]

SMALL_DATA_FLAGS = [
    "--data.sources", "2", "--data.source_height", "24", "--data.source_width", "48",
    "--data.tile", "12", "--data.scale", "2",
]


def build_small_dataset(tmp_path, seed="0"):
    out = tmp_path / "data"
    code = main(["build-data", *SMALL_DATA_FLAGS, "--seed", seed, "--out", str(out)])
    assert code == EXIT_OK
    return out / "manifest.json"


def train_small(tmp_path, manifest, steps="30", seed="0"):
    out = tmp_path / "run"
    code = main([
        "train", "--manifest", str(manifest), *TINY_MODEL_FLAGS,
        "--train.steps", steps, "--train.learning_rate", "1e-3",
        "--seed", seed, "--out", str(out),
    ])
    assert code == EXIT_OK
    return out / "model.vsck"


# ---------------------------------------------------------------------------
# build-data
# ---------------------------------------------------------------------------

def test_build_data_pair_count(tmp_path, capsys):
    out = tmp_path / "fresh" / "nested"  # missing directories get created
    code = main(["build-data", "--data.sources", "10",
                 "--data.source_height", "180", "--data.source_width", "360",
                 "--data.tile", "60", "--out", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "180 pairs" in captured
    manifest = load_manifest(out / "manifest.json")
    assert len(manifest.entries) == 180


def test_build_data_invalid_tile_exits_2(tmp_path, capsys):
    code = main(["build-data", "--data.tile", "33",
                 "--data.source_height", "100", "--data.source_width", "100",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "data.tile" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("data.sources", "0"), ("data.source_height", "0"),
                                       ("data.source_width", "-240")])
def test_build_data_bad_size_is_one_config_error_line(tmp_path, capsys, key, value):
    code = main(["build-data", *SMALL_DATA_FLAGS, f"--{key}", value, "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flags", [["--data.components", "1e999:2:0"], ["--data.background", "nan"],
                                   ["--data.components", "1:inf:0"], ["--data.components", "1:2:nan"],
                                   ["--data.background_cycles", "-3"],
                                   ["--data.components", "", "--data.background", "0"],
                                   ["--data.components", "", "--data.background_cycles", "0"],
                                   ["--data.components", "0:3:0", "--data.background", "0"],
                                   ["--data.components", "1:0:0", "--data.background", "0"]])
def test_build_data_non_finite_spectrum_exits_2(tmp_path, capsys, flags):
    # A spectrum SpectrumSpec rejects (non-finite, a negative background, one that adds
    # nothing) is one config error line naming the first flag's key, and no --out.
    code = main(["build-data", *SMALL_DATA_FLAGS, *flags, "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("config error: ") and flags[0][2:] in err
    assert not (tmp_path / "x").exists()


def test_build_data_too_large_to_allocate_exits_2(tmp_path, capsys):
    # Far more than any machine's memory, so the first allocation fails without touching
    # memory: at 2^26 x 2^26 a band of 256 rows (384 GiB), at 2^40 x 256 the per-row
    # storage of a field's plan (a column of 2^40 values per product).
    for height, width in ((2 ** 26, 2 ** 26), (2 ** 40, 256)):
        code = main(["build-data", "--data.sources", "1", "--data.source_height", str(height),
                     "--data.source_width", str(width), "--data.tile", "256", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("out of memory: "), (height, err)
        assert not (tmp_path / "x").exists()


# post_norm and decoder_mode are removed keys, rejected like any other unknown one.
@pytest.mark.parametrize("key,value", [("not_a_key", "3"), ("post_norm", "true"), ("decoder_mode", "per_token")])
def test_unknown_config_key_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[model]\n{key} = {value}\n")
    code = main(["build-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert f"model.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"seed = 3\n", b"[run]\nseed = 1\nseed = 2\n", b"[run]\nseed = 1\n[run]\nout = x\n",
                                  b"[run]\nfoo\n", b"[run]\nseed = \xff\n"],
                         ids=["no_section", "duplicate_key", "duplicate_section", "bare_line", "not_utf8"])
def test_unparsable_config_file_is_one_config_error_line(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(text)
    code = main(["build-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text,key", [("[DEFAULT]\nbogus = 1\n", "DEFAULT.bogus"),
                                      ("[DEFAULT]\nseed = 3\n[run]\n", "DEFAULT.seed")], ids=["bogus", "seed"])
def test_default_section_keys_are_unknown(tmp_path, capsys, text, key):
    # configparser copies [DEFAULT] into every section: seed = 3 there would otherwise set run.seed.
    cfg = tmp_path / "default.cfg"
    cfg.write_text(text)
    code = main(["build-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: unknown config key '{key}'\n"


def test_geometry_is_not_a_key(tmp_path, capsys):
    # LR size, scale and channels come from the manifest or the checkpoint; post_norm is a removed key.
    for flag, value in (("--model.scale", "3"), ("--model.post_norm", "true")):
        with pytest.raises(SystemExit) as exc:
            main(["build-data", *SMALL_DATA_FLAGS, flag, value, "--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_CONFIG
    cfg = tmp_path / "geometry.cfg"
    cfg.write_text("[model]\nlr_height = 60\n")
    code = main(["build-data", "--config", str(cfg), *SMALL_DATA_FLAGS, "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "model.lr_height" in capsys.readouterr().err


def test_key_defaults_are_the_config_defaults():
    from visir.cli import build_parser, load_settings
    from visir.model import ModelConfig
    from visir.training import TrainConfig

    settings = load_settings(build_parser().parse_args(["build-data"]))
    for section, config in (("model", ModelConfig()), ("train", TrainConfig())):
        keys = [key for key in settings if key.startswith(section + ".")]
        assert keys
        for key in keys:
            assert settings[key] == getattr(config, key.split(".", 1)[1]), key
    assert _spectrum(settings) == DataConfig().spectrum  # data.components, data.background, ...


def test_build_data_defaults_write_what_data_config_builds(tmp_path):
    # One spectrum: the CLI's default data.components and DataConfig()'s spectrum make the same bytes.
    sizes = dict(sources=1, source_height=48, source_width=96, tile=24, scale=2)
    flags = [item for key, value in sizes.items() for item in (f"--data.{key}", str(value))]
    assert main(["build-data", *flags, "--seed", "0", "--out", str(tmp_path / "cli")]) == EXIT_OK
    build_dataset(DataConfig(**sizes, seed=0), tmp_path / "lib")
    files = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert "manifest.json" in files and any(name.endswith("_hr.vsgr") for name in files)
    assert files == sorted(p.name for p in (tmp_path / "lib").iterdir())
    for name in files:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name


@pytest.mark.parametrize("flag", ["--model.patch_size", "--model.num_heads", "--model.embed_dim",
                                  "--model.siren_hidden_dim", "--data.scale"])
def test_zero_size_exits_2(tmp_path, capsys, flag):
    if flag.startswith("--data."):
        command = ["build-data", *SMALL_DATA_FLAGS]
    else:
        command = ["train", "--manifest", str(build_small_dataset(tmp_path)), "--train.steps", "1"]
    code = main([*command, flag, "0", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert flag.split(".")[1] in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--train.learning_rate", "nan"), ("--train.learning_rate", "-1e-3"),
                                        ("--train.eval_interval", "-1"), ("--data.train_fraction", "1.5"),
                                        ("--data.train_fraction", "-0.1"),
                                        # argparse before Python 3.12 hands the value of `--key=--` over as a list
                                        ("--data.tile", "--"), ("--data.background", "--")])
def test_bad_value_exits_2(tmp_path, capsys, flag, value):
    if flag.startswith("--data."):
        command = ["build-data", *SMALL_DATA_FLAGS]
    else:
        command = ["train", "--manifest", str(build_small_dataset(tmp_path)), "--train.steps", "1"]
    code = main([*command, f"{flag}={value}", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert flag.split(".")[1] in err


_PARSER = build_parser()
# A dataset at the CLI's default geometry (240-pixel tiles, 4x), for the model keys.
_DEFAULT_MANIFEST = DatasetManifest(seed=0, scale=4, tile_height=240, tile_width=240,
                                    entries=[], normalization={}, root=Path("."))
_NUMBERS = st.one_of(st.integers(), st.floats())
_KEY_TEXT = st.one_of(
    st.text(),
    _NUMBERS.map(str),
    st.lists(_NUMBERS, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.tuples(_NUMBERS, _NUMBERS, _NUMBERS), max_size=3).map(
        lambda parts: ",".join(":".join(map(str, part)) for part in parts)),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(KEYS)), text=_KEY_TEXT)
@example(key="data.tile", text="--")
@example(key="data.background", text="--")
def test_any_text_for_any_key_is_accepted_or_a_value_error(key, text):
    # Every step between the flag and a command's configs; a ValueError
    # (ConfigError included) is exit 2 in main(), anything else would be a traceback.
    ns = _PARSER.parse_args(["build-data", f"--{key}={text}"])
    try:
        loaded = load_settings(ns)
        _config(ModelConfig, "model", loaded, **_geometry(_DEFAULT_MANIFEST))
        _config(TrainConfig, "train", loaded, seed=loaded["run.seed"])
        _config(DataConfig, "data", loaded, seed=loaded["run.seed"], spectrum=_spectrum(loaded))
    except ValueError:
        pass


def test_parser_is_built_once_and_parses_stay_independent():
    assert build_parser() is build_parser() is _PARSER
    a = _PARSER.parse_args(["build-data", "--data.tile", "12"])
    b = _PARSER.parse_args(["train", "--manifest", "m.json"])
    assert getattr(a, "data.tile") == "12" and getattr(b, "data.tile") is None
    assert not hasattr(a, "manifest") and b.manifest == "m.json"


@pytest.mark.parametrize("argv,seed,out", [(["--seed", "3", "--run.seed", "4"], "4", None),
                                           (["--run.seed", "4", "--seed", "3"], "3", None),
                                           (["--out", "a", "--run.out", "b"], None, "b"),
                                           (["--run.out", "b", "--out", "a"], None, "a")])
def test_seed_and_out_are_spellings_of_the_run_keys(argv, seed, out):
    ns = _PARSER.parse_args(["build-data", *argv])  # the last one given wins
    assert (getattr(ns, "run.seed"), getattr(ns, "run.out")) == (seed, out)


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[data]\nsources = 1\nsource_height = 24\nsource_width = 48\ntile = 12\nscale = 2\n")
    out = tmp_path / "d"
    code = main(["build-data", "--config", str(cfg), "--data.sources", "2", "--out", str(out)])
    assert code == EXIT_OK
    manifest = load_manifest(out / "manifest.json")
    assert len(manifest.entries) == 16  # 2 sources x 8 tiles: flag wins over file


def test_missing_config_file_exits_3(tmp_path):
    code = main(["build-data", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x")])
    assert code == EXIT_IO


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_zero_steps_equals_initialization(tmp_path):
    manifest = build_small_dataset(tmp_path)
    ckpt_path = train_small(tmp_path, manifest, steps="0")
    from visir.model import ModelConfig, init_parameters

    loaded = load_checkpoint(ckpt_path)
    fresh = init_parameters(loaded.config, seed=0)
    for name in fresh.params:
        assert np.array_equal(loaded.params[name].data, fresh.params[name].data)


def test_train_same_seed_identical_checkpoints(tmp_path):
    manifest = build_small_dataset(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = main(["train", "--manifest", str(manifest), *TINY_MODEL_FLAGS,
                     "--train.steps", "20", "--train.learning_rate", "1e-3",
                     "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
    assert (a / "model.vsck").read_bytes() == (b / "model.vsck").read_bytes()


def test_seed_and_run_seed_give_identical_checkpoints(tmp_path):
    manifest = build_small_dataset(tmp_path)
    for flag, out in (("--seed", "a"), ("--run.seed", "b")):
        assert main(["train", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.steps", "3",
                     flag, "3", "--out", str(tmp_path / out)]) == EXIT_OK
    checkpoint = (tmp_path / "a" / "model.vsck").read_bytes()
    assert checkpoint == (tmp_path / "b" / "model.vsck").read_bytes()
    assert checkpoint != train_small(tmp_path, manifest, steps="3").read_bytes()  # seed 0


def test_train_writes_eval_curve(tmp_path, capsys):
    manifest = build_small_dataset(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.steps", "7",
                 "--train.eval_interval", "3", "--out", str(out)])
    assert code == EXIT_OK
    assert str(out / "eval_curve.csv") in capsys.readouterr().out
    lines = (out / "eval_curve.csv").read_text().splitlines()
    assert lines[0] == "step,psnr"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [3, 6]
    assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])


def test_train_without_eval_interval_reads_no_test_split(tmp_path, monkeypatch):
    from visir import data

    manifest = build_small_dataset(tmp_path)
    splits = []
    load_pairs = data.load_pairs
    monkeypatch.setattr(data, "load_pairs", lambda m, split: splits.append(split) or load_pairs(m, split))
    train_small(tmp_path, manifest, steps="2")
    assert splits == ["train"]
    assert not (tmp_path / "run" / "eval_curve.csv").exists()


def test_train_writes_loss_curve(tmp_path):
    manifest = build_small_dataset(tmp_path)
    train_small(tmp_path, manifest, steps="25")
    lines = (tmp_path / "run" / "loss_curve.csv").read_text().strip().split("\n")
    assert lines[0] == "step,loss"
    assert len(lines) == 26


@pytest.mark.parametrize("damage,code,prefix", [
    ("junk", EXIT_CONFIG, "data error:"), ("truncated", EXIT_CONFIG, "data error:"),
    ("trailing", EXIT_CONFIG, "data error:"), ("missing", EXIT_IO, "i/o error:"),
])
def test_train_bad_grid_fails_before_step_1_or_making_out(tmp_path, capsys, monkeypatch, damage, code, prefix):
    # Pairs are read when a step uses them, but every pair file's header is checked
    # against its size first, so a bad file fails the command before any step.
    manifest = build_small_dataset(tmp_path)
    path = manifest.parent / load_manifest(manifest).split("train")[-1].hr_path
    if damage == "missing":
        path.unlink()
    else:
        blob = path.read_bytes()
        path.write_bytes({"junk": b"JUNK", "truncated": blob[:-1], "trailing": blob + b"\0"}[damage])
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: pytest.fail("train was called"))
    capsys.readouterr()
    assert main(["train", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.steps", "1",
                 "--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_train_peak_memory_does_not_grow_with_the_split(tmp_path):
    # Each step reads its batch, so `train` holds no split: its tracemalloc peak on a
    # 4-source manifest (24 more pairs of 58.8 KB) is within two pairs of a 1-source one.
    # The first run warms up what a process makes once.
    geometry = ["--data.source_height", "96", "--data.source_width", "192", "--data.tile", "48", "--data.scale", "4"]
    peaks = []
    for sources in ("1", "1", "4"):
        data = tmp_path / f"data{sources}"
        assert main(["build-data", *geometry, "--data.sources", sources, "--out", str(data)]) == EXIT_OK
        tracemalloc.start()
        try:
            code = main(["train", "--manifest", str(data / "manifest.json"), *TINY_MODEL_FLAGS,
                         "--train.steps", "2", "--out", str(tmp_path / "run")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
    pair_bytes = (48 * 48 * 3 + 12 * 12 * 3) * 8
    assert abs(peaks[2] - peaks[1]) < 2 * pair_bytes, (peaks, pair_bytes)


def test_train_diverged_exits_4_without_out(tmp_path, capsys):
    manifest = build_small_dataset(tmp_path)
    capsys.readouterr()
    code = main(["train", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.learning_rate", "1e200",
                 "--train.steps", "3", "--out", str(tmp_path / "run")])
    assert code == EXIT_DIVERGED
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("diverged: ")
    assert not (tmp_path / "run").exists()
    assert _staging_leftovers(tmp_path) == []


def test_train_missing_manifest_exits_3(tmp_path):
    code = main(["train", "--manifest", str(tmp_path / "no.json"), "--out", str(tmp_path / "x")])
    assert code == EXIT_IO


@pytest.mark.parametrize("key,edit", [
    pytest.param("pairs", lambda doc: doc.pop("pairs"), id="no-pairs"),
    pytest.param("pairs", lambda doc: doc.update(pairs="s000_t00"), id="pairs-string"),
    pytest.param("lr", lambda doc: doc["pairs"][0].pop("lr"), id="entry-without-lr"),
    pytest.param("normalization", lambda doc: doc.pop("normalization"), id="no-normalization"),
    pytest.param("scale", lambda doc: doc.update(scale="4"), id="scale-string"),
    pytest.param("tile_height", lambda doc: doc.update(tile_height=None), id="tile-height-null"),
])
def test_train_malformed_manifest_exits_2(tmp_path, capsys, key, edit):
    manifest = build_small_dataset(tmp_path)
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["train", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.steps", "1",
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and key in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_outputs(tmp_path, capsys):
    manifest = build_small_dataset(tmp_path)
    ckpt = train_small(tmp_path, manifest)
    out = tmp_path / "eval"
    code = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt),
                 "--split", "test", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    # Fixed summary row order.
    assert stdout.index("MSE:") < stdout.index("PSNR:") < stdout.index("SSIM:")
    m = load_manifest(manifest)
    rows = (out / "eval.csv").read_text().strip().split("\n")
    assert len(rows) - 1 == len(m.split("test"))


def test_eval_non_finite_pair_exits_2_without_out(tmp_path, capsys):
    # The header is valid, so the pair is found bad only when eval reads it.
    manifest = build_small_dataset(tmp_path)
    ckpt = train_small(tmp_path, manifest, steps="2")
    entry = load_manifest(manifest).split("test")[-1]
    hr = np.full((12, 12, 3), 0.5)
    hr[3, 4, 1] = math.nan
    write_grid(manifest.parent / entry.hr_path, hr)
    capsys.readouterr()
    code = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--split", "test",
                 "--out", str(tmp_path / "eval")])
    assert code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("data error:") and "non-finite" in err
    assert not (tmp_path / "eval").exists()
    assert _staging_leftovers(tmp_path) == []


def test_eval_matches_library(tmp_path):
    manifest_path = build_small_dataset(tmp_path)
    ckpt = train_small(tmp_path, manifest_path)
    out = tmp_path / "eval"
    assert main(["eval", "--manifest", str(manifest_path), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == EXIT_OK
    from visir.training import evaluate

    model = load_checkpoint(ckpt)
    manifest = load_manifest(manifest_path)
    reports, _ = evaluate(model, load_pairs(manifest, "test"))
    rows = (out / "eval.csv").read_text().strip().split("\n")[1:]
    for row, report in zip(rows, reports):
        _, mse_s, psnr_s, ssim_s = row.split(",")
        assert float(mse_s) == report.mse
        assert float(psnr_s) == report.psnr
        assert float(ssim_s) == report.ssim


def _model_key_inputs(tmp_path):
    """A 16-d checkpoint trained 1 step, and the inputs that eval and reconstruct read."""
    manifest = build_small_dataset(tmp_path)
    ckpt = train_small(tmp_path, manifest, steps="1")
    return ckpt, {"eval": ["--manifest", str(manifest)],
                  "reconstruct": ["--input", str(manifest.parent / "s000_t00_lr.vsgr")]}


def test_eval_conflicting_model_flag_exits_5(tmp_path, capsys):
    # A model.* key from the config file is given as a flag is (flags > config file > defaults),
    # so it must agree with the checkpoint too.  One checkpoint serves every case.
    ckpt, inputs = _model_key_inputs(tmp_path)
    (tmp_path / "32.cfg").write_text("[model]\nembed_dim = 32\n")
    for command in ("eval", "reconstruct"):
        for given in (["--model.embed_dim", "32"], ["--config", str(tmp_path / "32.cfg")]):
            capsys.readouterr()
            code = main([command, "--checkpoint", str(ckpt), *inputs[command], *given, "--out", str(tmp_path / "e")])
            assert code == EXIT_MISMATCH, (command, given)
            err = capsys.readouterr().err
            assert err == "checkpoint error: 'model.embed_dim' = 32 conflicts with checkpoint value 16\n"
    assert not (tmp_path / "e").exists()


def test_matching_model_key_in_config_file_passes(tmp_path):
    ckpt, inputs = _model_key_inputs(tmp_path)
    (tmp_path / "16.cfg").write_text("[model]\nembed_dim = 16\nnum_heads = 2\n")
    for command in ("eval", "reconstruct"):
        assert main([command, "--checkpoint", str(ckpt), *inputs[command], "--config", str(tmp_path / "16.cfg"),
                     "--out", str(tmp_path / command)]) == EXIT_OK


def test_eval_checkpoint_with_other_channels_exits_5(tmp_path, capsys):
    # The manifest's tiles are RGB; a 1-channel checkpoint of the same LR size and scale does not fit them.
    from visir.model import init_parameters

    manifest = build_small_dataset(tmp_path)
    cfg = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=8, siren_hidden_dim=8,
                      **{**_geometry(load_manifest(manifest)), "channels": 1})
    save_checkpoint(init_parameters(cfg, seed=0), tmp_path / "gray.vsck")
    capsys.readouterr()
    code = main(["eval", "--manifest", str(manifest), "--checkpoint", str(tmp_path / "gray.vsck"),
                 "--out", str(tmp_path / "e")])
    assert code == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "channels" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "e").exists()


def test_eval_corrupt_checkpoint_exits_5(tmp_path):
    manifest = build_small_dataset(tmp_path)
    bad = tmp_path / "bad.vsck"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main(["eval", "--manifest", str(manifest), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "e")])
    assert code == EXIT_MISMATCH


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_small_grid(tmp_path, capsys):
    manifest = build_small_dataset(tmp_path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--manifest", str(manifest), *TINY_MODEL_FLAGS,
                 "--train.steps", "4", "--train.learning_rate", "1e-3",
                 "--sweep.frequencies", "10,20", "--sweep.layers", "1,2",
                 "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "best cell:" in stdout
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert all(len(line.split(",")) == 3 for line in lines)


def test_sweep_checks_its_grid_before_training(tmp_path, capsys, monkeypatch):
    from visir import training

    manifest = build_small_dataset(tmp_path)
    calls = []
    train = training.train
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(1) or train(*args, **kwargs))
    capsys.readouterr()
    code = main(["sweep", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.steps", "1",
                 "--sweep.layers", "1,2,7", "--out", str(tmp_path / "sweep")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sweep.layers" in err and len(err.splitlines()) == 1
    assert calls == []
    assert not (tmp_path / "sweep").exists()


def test_sweep_single_cell(tmp_path, capsys):
    manifest = build_small_dataset(tmp_path)
    out = tmp_path / "sweep1"
    code = main(["sweep", "--manifest", str(manifest), *TINY_MODEL_FLAGS,
                 "--train.steps", "4", "--train.learning_rate", "1e-3",
                 "--sweep.frequencies", "20", "--sweep.layers", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header + one row


def test_sweep_repeated_grid_values_give_one_row_and_column(tmp_path):
    manifest = build_small_dataset(tmp_path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.steps", "2",
                 "--sweep.frequencies", "10,10.0,20,10", "--sweep.layers", "1,1", "--out", str(out)])
    assert code == EXIT_OK
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    assert header == "hidden_layers,10.0,20.0"
    assert len(rows) == 1 and rows[0].startswith("1,") and len(rows[0].split(",")) == 3


def test_sweep_every_cell_diverged_exits_4_and_writes_its_grid(tmp_path, capsys):
    # The command returns exit 4 rather than raising, so its sweep.csv is committed to --out.
    manifest = build_small_dataset(tmp_path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.learning_rate", "1e200",
                 "--train.steps", "3", "--sweep.frequencies", "10", "--sweep.layers", "1", "--out", str(out)])
    assert code == EXIT_DIVERGED
    assert capsys.readouterr().err.splitlines()[-1] == "every sweep cell failed"
    assert (out / "sweep.csv").read_text().splitlines() == ["hidden_layers,10.0", "1,failed"]
    assert _staging_leftovers(tmp_path) == []


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_full_tile_geometry(tmp_path):
    # Untrained weights are fine: the contract is 60x60 -> 240x240 output.
    from visir.model import ModelConfig, init_parameters
    from visir.training import save_checkpoint

    cfg = ModelConfig(patch_size=6, num_layers=1, num_heads=2, embed_dim=16,
                      lr_height=60, lr_width=60, siren_hidden_dim=16, scale=4, channels=3)
    save_checkpoint(init_parameters(cfg, seed=0), tmp_path / "m.vsck")
    lr_img = np.random.default_rng(0).uniform(0, 1, (60, 60, 3))
    write_grid(tmp_path / "lr.vsgr", lr_img)
    out = tmp_path / "rec"
    code = main(["reconstruct", "--checkpoint", str(tmp_path / "m.vsck"),
                 "--input", str(tmp_path / "lr.vsgr"), "--out", str(out)])
    assert code == EXIT_OK
    png = read_png(out / "reconstruction.png")
    assert png.shape == (240, 240, 3)
    assert not (out / "error.png").exists()  # no HR given


def test_reconstruct_memorized_pair_black_error_map(tmp_path, capsys):
    manifest_path = build_small_dataset(tmp_path)
    manifest = load_manifest(manifest_path)
    entry = manifest.entries[0]
    out = tmp_path / "run"
    code = main(["train", "--manifest", str(manifest_path), *TINY_MODEL_FLAGS,
                 "--train.steps", "600", "--train.learning_rate", "1e-3",
                 "--train.batch_size", "2", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    rec = tmp_path / "rec"
    code = main(["reconstruct", "--checkpoint", str(out / "model.vsck"),
                 "--input", str(manifest_path.parent / entry.lr_path),
                 "--hr", str(manifest_path.parent / entry.hr_path),
                 "--out", str(rec)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "max |error|" in stdout
    err_img = read_png(rec / "error.png")
    # Near-memorized training pair: the absolute error map is essentially black.
    assert err_img.mean() < 0.1


def test_reconstruct_wrong_input_shape_exits_5(tmp_path):
    manifest = build_small_dataset(tmp_path)
    ckpt = train_small(tmp_path, manifest, steps="1")
    write_grid(tmp_path / "wrong.vsgr", np.zeros((5, 5, 3)))
    code = main(["reconstruct", "--checkpoint", str(ckpt),
                 "--input", str(tmp_path / "wrong.vsgr"), "--out", str(tmp_path / "r")])
    assert code == EXIT_MISMATCH
    assert not (tmp_path / "r").exists()  # a failed command leaves no --out


def test_reconstruct_wrong_hr_shape_exits_5_before_writing(tmp_path, capsys):
    manifest = build_small_dataset(tmp_path)
    ckpt = train_small(tmp_path, manifest, steps="1")
    lr = str(manifest.parent / "s000_t00_lr.vsgr")
    capsys.readouterr()
    code = main(["reconstruct", "--checkpoint", str(ckpt), "--input", lr, "--hr", lr,
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_MISMATCH
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "HR reference shape" in err
    assert not (tmp_path / "r").exists()


def _small_checkpoint(path):
    from visir.model import ModelConfig, init_parameters
    from visir.training import save_checkpoint

    cfg = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=8,
                      lr_height=4, lr_width=4, siren_hidden_dim=8, scale=2, channels=3)
    save_checkpoint(init_parameters(cfg, seed=0), path)
    return path


def _truncated_png(path):
    write_png(path, np.full((4, 4, 3), 0.5))
    path.write_bytes(path.read_bytes()[:-20])


def _corrupt_idat_png(path):
    write_png(path, np.full((4, 4, 3), 0.5))
    blob = bytearray(path.read_bytes())
    at = blob.index(b"IDAT")
    length, = struct.unpack(">I", blob[at - 4:at])
    blob[at + 4:at + 8] = b"\xff\xff\xff\xff"  # zlib header check fails; the chunk's CRC still matches
    blob[at + 4 + length:at + 8 + length] = struct.pack(">I", zlib.crc32(blob[at:at + 4 + length]))
    path.write_bytes(bytes(blob))


def _png_bomb(path):
    path.write_bytes(png_bomb())


def _png_with_bad_ihdr_crc(path):
    write_png(path, np.full((4, 4, 3), 0.5))
    blob = bytearray(path.read_bytes())
    blob[8 + 8 + 13] ^= 0x01  # first byte of IHDR's CRC, after the signature, IHDR's length, tag and payload
    path.write_bytes(bytes(blob))


def _nan_grid(path):
    grid = np.full((4, 4, 3), 0.5)
    grid[1, 2, 0] = np.nan
    write_grid(path, grid)


def _grid_with_trailing_bytes(path):
    write_grid(path, np.full((4, 4, 3), 0.5))
    path.write_bytes(path.read_bytes() + b"\x00\x00")


def _grid_claiming_a_huge_payload(path):
    path.write_bytes(b"VSGR" + struct.pack("<IIIII", 1, 2 ** 31, 2 ** 31, 3, 0) + b"\x00" * 64)


@pytest.mark.parametrize("name,make", [("truncated.png", _truncated_png), ("idat.png", _corrupt_idat_png),
                                       ("bomb.png", _png_bomb), ("crc.png", _png_with_bad_ihdr_crc),
                                       ("nan.vsgr", _nan_grid), ("trailing.vsgr", _grid_with_trailing_bytes),
                                       ("huge.vsgr", _grid_claiming_a_huge_payload)])
def test_reconstruct_malformed_input_exits_2(tmp_path, capsys, name, make):
    ckpt = _small_checkpoint(tmp_path / "m.vsck")
    make(tmp_path / name)
    code = main(["reconstruct", "--checkpoint", str(ckpt), "--input", str(tmp_path / name),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("images,message", [
    (["--input", "big.png"], "input shape (2000, 2000, 3) does not match checkpoint LR shape (4, 4, 3)"),
    (["--input", "lr.vsgr", "--hr", "big.png"], "HR reference shape (2000, 2000, 3) does not match output (8, 8, 3)")],
    ids=["input", "hr"])
def test_reconstruct_large_declared_png_exits_5_before_inflating(tmp_path, monkeypatch, capsys, images, message):
    monkeypatch.chdir(tmp_path)
    # About 11.7 KB of zero rows that inflate to the 12 MB a 2000x2000 RGB image needs: a well-formed PNG.
    deflate = zlib.compressobj(9, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
    Path("big.png").write_bytes(png_blob(2000, 2000, 3, deflate.compress(bytes(2000 * 6001)) + deflate.flush()))
    assert Path("big.png").stat().st_size < 12_000
    _small_checkpoint(Path("m.vsck"))
    write_grid("lr.vsgr", np.full((4, 4, 3), 0.5))
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["reconstruct", "--checkpoint", "m.vsck", *images, "--out", "r"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_MISMATCH
    assert capsys.readouterr().err == f"checkpoint error: {message}\n"
    assert peak < 10 * 2 ** 20
    assert not Path("r").exists()


@pytest.mark.parametrize("lr_shape,code", [((4, 4, 3), EXIT_OK), ((5, 4, 3), EXIT_MISMATCH)], ids=["match", "mismatch"])
def test_reconstruct_reads_a_png_input_once(tmp_path, monkeypatch, capsys, lr_shape, code):
    # The shape IHDR declares and the pixels come from one read of the file, so a file
    # replaced between a shape check and a decode cannot be decoded unchecked.
    from visir import data

    write_png(tmp_path / "lr.png", np.full(lr_shape, 0.5))
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(data, "open", counting_open, raising=False)  # found before the builtin
    assert main(["reconstruct", "--checkpoint", str(_small_checkpoint(tmp_path / "m.vsck")),
                 "--input", str(tmp_path / "lr.png"), "--out", str(tmp_path / "r")]) == code
    assert opened.count("lr.png") == 1, capsys.readouterr().err


def _with_config(ckpt, **changes):
    """Rewrite the config JSON of the checkpoint `ckpt` with `changes`; its values stay as they are."""
    blob = ckpt.read_bytes()
    size = struct.unpack_from("<I", blob, 8)[0]
    config = json.dumps({**json.loads(blob[12:12 + size]), **changes}, sort_keys=True).encode("utf-8")
    ckpt.write_bytes(blob[:8] + struct.pack("<I", len(config)) + config + blob[12 + size:])
    return ckpt


def _reconstruct_error(tmp_path, capsys, ckpt):
    """The exit code and stderr of reconstructing a 4x4 RGB grid with `ckpt`."""
    write_grid(tmp_path / "lr.vsgr", np.full((4, 4, 3), 0.5))
    capsys.readouterr()
    code = main(["reconstruct", "--checkpoint", str(ckpt), "--input", str(tmp_path / "lr.vsgr"),
                 "--out", str(tmp_path / "r")])
    assert not (tmp_path / "r").exists()
    return code, capsys.readouterr().err


def test_reconstruct_checkpoint_missing_tensor_exits_5(tmp_path, capsys):
    # The config says which tensors follow: a second block finds its values missing, no block finds extra bytes.
    for num_layers, message in ((2, "truncated checkpoint"), (0, "trailing bytes after checkpoint payload")):
        ckpt = _with_config(_small_checkpoint(tmp_path / "m.vsck"), num_layers=num_layers)
        code, err = _reconstruct_error(tmp_path, capsys, ckpt)
        assert code == EXIT_MISMATCH
        assert err.startswith(f"checkpoint error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_reconstruct_checkpoint_non_finite_exits_5(tmp_path, capsys, value):
    ckpt = _small_checkpoint(tmp_path / "m.vsck")
    last = list(parameter_layout(load_checkpoint(ckpt).config))[-1]  # the values follow the layout's order
    ckpt.write_bytes(ckpt.read_bytes()[:-8] + struct.pack("<d", value))
    code, err = _reconstruct_error(tmp_path, capsys, ckpt)
    assert code == EXIT_MISMATCH
    assert err == f"checkpoint error: tensor '{last}' holds a non-finite value\n"


@pytest.mark.parametrize("shape", [(2 ** 31, 8), (2 ** 32 - 2, 2 ** 32 - 1)])
def test_reconstruct_checkpoint_overflowing_extents_exits_5(tmp_path, capsys, shape):
    # The config claims a block0.ffn.w0 of this shape (embed_dim x siren_hidden_dim): its layout's byte
    # count passes 2**63, and the payload is found short before anything is allocated.
    embed_dim, hidden_dim = shape
    ckpt = _with_config(_small_checkpoint(tmp_path / "m.vsck"), embed_dim=embed_dim, siren_hidden_dim=hidden_dim)
    code, err = _reconstruct_error(tmp_path, capsys, ckpt)
    assert code == EXIT_MISMATCH
    assert err.startswith("checkpoint error: truncated checkpoint") and len(err.splitlines()) == 1


@pytest.mark.parametrize("field,value", [("num_layers", 1.0), ("embed_dim", 8.0), ("siren_hidden_layers", 2.0),
                                         ("patch_size", True)])
def test_reconstruct_checkpoint_non_int_config_field_exits_5(tmp_path, capsys, field, value):
    # JSON 1.0 and true are not ints: the config check rejects them before the layout is built.
    ckpt = _with_config(_small_checkpoint(tmp_path / "m.vsck"), **{field: value})
    code, err = _reconstruct_error(tmp_path, capsys, ckpt)
    assert code == EXIT_MISMATCH
    assert err == f"checkpoint error: bad checkpoint config: {field} must be an int, got {value!r}\n"


@pytest.mark.parametrize("value", [True, "20.0"])
def test_reconstruct_checkpoint_non_float_config_field_exits_5(tmp_path, capsys, value):
    # JSON true is not a float: loaded as omega0 = 1 it would run a model the checkpoint never trained.
    ckpt = _with_config(_small_checkpoint(tmp_path / "m.vsck"), omega0=value)
    code, err = _reconstruct_error(tmp_path, capsys, ckpt)
    assert code == EXIT_MISMATCH
    assert err == f"checkpoint error: bad checkpoint config: omega0 must be a float, got {value!r}\n"


def test_reconstruct_checkpoint_config_not_utf8_exits_5(tmp_path, capsys):
    ckpt = _small_checkpoint(tmp_path / "m.vsck")
    blob = bytearray(ckpt.read_bytes())
    blob[blob.index(b'"variant"')] = 0xFF
    ckpt.write_bytes(bytes(blob))
    code, err = _reconstruct_error(tmp_path, capsys, ckpt)
    assert code == EXIT_MISMATCH
    assert err.startswith("checkpoint error: bad checkpoint config: 'utf-8' codec")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("size", [0xFFFFFFFF, None], ids=["u32_max", "file_length"])
def test_reconstruct_checkpoint_config_past_end_exits_5(tmp_path, capsys, size):
    ckpt = _small_checkpoint(tmp_path / "m.vsck")
    blob = bytearray(ckpt.read_bytes())
    struct.pack_into("<I", blob, 8, len(blob) if size is None else size)
    ckpt.write_bytes(bytes(blob))
    code, err = _reconstruct_error(tmp_path, capsys, ckpt)
    assert code == EXIT_MISMATCH
    assert err.startswith("checkpoint error: truncated checkpoint")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("version", [1, 2])
def test_reconstruct_version_1_checkpoint_exits_5(tmp_path, capsys, version):
    # Version 1 stored each tensor's name, rank and extents; version 2's config had the decoder_mode
    # and post_norm fields.  No reader for either is kept.
    ckpt = _small_checkpoint(tmp_path / "m.vsck")
    ckpt.write_bytes(b"VSCK" + struct.pack("<I", version) + ckpt.read_bytes()[8:])
    code, err = _reconstruct_error(tmp_path, capsys, ckpt)
    assert code == EXIT_MISMATCH
    assert err == f"checkpoint error: unsupported checkpoint version {version}\n"


@pytest.mark.parametrize("field,value", [("decoder_hidden_layers", None), ("post_norm", False)])
def test_reconstruct_checkpoint_with_decoder_override_exits_5(tmp_path, capsys, field, value):
    # A current-version file whose config still carries a removed field (decoder_hidden_layers, stored
    # as null, or post_norm) is retrained, not read: the model has one decoder depth and one block order.
    ckpt = _with_config(_small_checkpoint(tmp_path / "m.vsck"), **{field: value})
    code, err = _reconstruct_error(tmp_path, capsys, ckpt)
    assert code == EXIT_MISMATCH
    assert err == f"checkpoint error: bad checkpoint config: missing fields [], unknown fields ['{field}']\n"


@pytest.mark.parametrize("command", ["eval", "reconstruct"])
def test_non_finite_forward_exits_2(tmp_path, capsys, command):
    # A weight of 1e307 is finite, so the checkpoint loads, but the forward pass overflows.  In the
    # last decoder layer only omega0 * x overflows; in vit_mlp only the sigmoid's input is infinite.
    manifest = build_small_dataset(tmp_path)
    trained = load_checkpoint(train_small(tmp_path, manifest, steps="1"))
    inputs = {"eval": ["--manifest", str(manifest)],
              "reconstruct": ["--input", str(manifest.parent / "s000_t00_lr.vsgr")]}
    for variant, name in [("visir", "embed.weight"), ("visir", "decoder.w0"), ("visir", "decoder.w2"),
                          ("vit_mlp", "embed.weight")]:
        model = trained if variant == "visir" else init_parameters(as_mlp_baseline(trained.config), seed=0)
        params = {**model.params, name: Tensor(np.full(model.params[name].shape, 1e307))}
        save_checkpoint(VisirModel(model.config, params), tmp_path / "huge.vsck")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--checkpoint", str(tmp_path / "huge.vsck"), *inputs[command],
                         "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG, (variant, name)
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "non-finite" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert caught == []  # numpy's overflow warnings would be more stderr lines
        assert not (tmp_path / "out").exists()


def test_reconstruct_accepts_png_input(tmp_path):
    manifest_path = build_small_dataset(tmp_path)
    manifest = load_manifest(manifest_path)
    ckpt = train_small(tmp_path, manifest_path, steps="1")
    from visir.data import read_grid, write_png

    lr_img, _ = read_grid(manifest_path.parent / manifest.entries[0].lr_path)
    write_png(tmp_path / "lr.png", lr_img)
    code = main(["reconstruct", "--checkpoint", str(ckpt),
                 "--input", str(tmp_path / "lr.png"), "--out", str(tmp_path / "r")])
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# --out: each command writes into a staging directory that main commits
# ---------------------------------------------------------------------------

def _staging_leftovers(root):
    """Dot-prefixed entries under `root`: what a staging directory would leave."""
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob(".*"))


def _tree(root):
    """Relative path -> bytes for every file under `root`."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A small dataset's manifest and a 1-step checkpoint trained on it."""
    root = tmp_path_factory.mktemp("small_run")
    manifest = build_small_dataset(root)
    return manifest, train_small(root, manifest, steps="1")


def _staged_command(command, manifest, ckpt):
    """(argv without --out, the files it writes, (owner, name, file) of its last writer)."""
    data = manifest.parent
    return {
        "build-data": (["build-data", *SMALL_DATA_FLAGS], ["manifest.json", "s000_t00_hr.vsgr"],
                       (DatasetManifest, "to_json", None)),
        "train": (["train", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.steps", "1"],
                  ["model.vsck", "loss_curve.csv"], (training, "write_loss_curve", None)),
        "eval": (["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt)], ["eval.csv"],
                 (training, "write_eval_csv", None)),
        "sweep": (["sweep", "--manifest", str(manifest), *TINY_MODEL_FLAGS, "--train.steps", "1",
                   "--sweep.frequencies", "10", "--sweep.layers", "1"], ["sweep.csv"],
                  (training, "write_sweep_csv", None)),
        "reconstruct": (["reconstruct", "--checkpoint", str(ckpt), "--input", str(data / "s000_t00_lr.vsgr"),
                         "--hr", str(data / "s000_t00_hr.vsgr")],
                        ["reconstruction.png", "reconstruction.vsgr", "error.png"], (cli, "write_png", "error.png")),
    }[command]


def _fail_last_write(monkeypatch, owner, name, file):
    """Make `owner.name` raise OSError, on its call for `file` if one is named."""
    real = getattr(owner, name)

    def writer(*args, **kwargs):
        if file is None or Path(args[0]).name == file:
            raise OSError(28, "No space left on device")
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, writer)


COMMAND_NAMES = ["build-data", "train", "eval", "sweep", "reconstruct"]


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_failed_command_leaves_absent_out_absent(tmp_path, capsys, monkeypatch, small_run, command):
    argv, _, writer = _staged_command(command, *small_run)
    _fail_last_write(monkeypatch, *writer)
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "missing" / "out")]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []  # not even the missing ancestor


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_failed_command_leaves_existing_out_as_it_was(tmp_path, monkeypatch, small_run, command):
    argv, outputs, writer = _staged_command(command, *small_run)
    out = tmp_path / "out"
    out.mkdir()
    (out / "sentinel.txt").write_bytes(b"kept")
    for name in outputs:  # an earlier run's outputs, which a failed run must not touch
        (out / name).write_bytes(b"earlier " + name.encode())
    before = _tree(tmp_path)
    with monkeypatch.context() as patch:
        _fail_last_write(patch, *writer)
        assert main([*argv, "--out", str(out)]) == EXIT_IO
    assert _tree(tmp_path) == before
    # The same command that succeeds replaces its outputs and keeps the other files.
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    after = _tree(tmp_path)
    assert after["out/sentinel.txt"] == b"kept"
    assert all(after[f"out/{name}"] != before[f"out/{name}"] for name in outputs)
    assert _staging_leftovers(tmp_path) == []


@pytest.mark.parametrize("out", [".", "fresh/nested"])
@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_command_commits_into_out(tmp_path, monkeypatch, small_run, command, out):
    argv, outputs, _ = _staged_command(command, *small_run)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", out]) == EXIT_OK
    assert all((tmp_path / out / name).is_file() for name in outputs)
    assert _staging_leftovers(tmp_path) == []


@pytest.mark.parametrize("out", ["file", "file/out"])
def test_out_that_is_or_is_below_a_file_exits_3_before_any_work(tmp_path, monkeypatch, small_run, out):
    argv, _, _ = _staged_command("sweep", *small_run)
    calls = []
    monkeypatch.setattr(training, "sweep", lambda *args, **kwargs: calls.append(1))
    (tmp_path / "file").write_bytes(b"")
    assert main([*argv, "--out", str(tmp_path / out)]) == EXIT_IO
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "file"]


def test_existing_out_in_a_read_only_parent_stages_inside_out(tmp_path, monkeypatch, small_run):
    # Staging in an existing --out keeps it on the filesystem of --out (a mount point, say) and
    # needs no write access to the parent.
    argv, outputs, _ = _staged_command("eval", *small_run)
    parent = tmp_path / "ro"
    out = parent / "out"
    out.mkdir(parents=True)
    real, dirs = tempfile.mkdtemp, []

    def mkdtemp(**kwargs):
        dirs.append(Path(kwargs["dir"]))
        return real(**kwargs)
    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    parent.chmod(0o555)
    try:
        assert main([*argv, "--out", str(out)]) == EXIT_OK
    finally:
        parent.chmod(0o755)
    assert dirs == [out]
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs)
    assert _staging_leftovers(tmp_path) == []


def test_interrupted_command_leaves_no_staging_directory(tmp_path, monkeypatch, small_run):
    argv, _, _ = _staged_command("train", *small_run)

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(training, "write_loss_curve", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--out", str(tmp_path / "run")])
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# misc surface
# ---------------------------------------------------------------------------

def test_help_lists_every_key():
    from visir.cli import KEYS, build_parser

    parser = build_parser()
    for sub_action in parser._subparsers._group_actions:
        for name, sub in sub_action.choices.items():
            text = sub.format_help()
            for key in KEYS:
                assert f"--{key}" in text, (name, key)


def test_module_entry_point_runs():
    # Runs from the source checkout that holds this file, with src/ as the only
    # import path, wherever pytest was started.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "visir.cli", "--help"],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
                          cwd=root)
    assert proc.returncode == 0
    assert "build-data" in proc.stdout


def test_sine_paths_never_load_scipy(tmp_path):
    # scipy provides only erf, for the vit_mlp baseline's GELU; importing visir,
    # training the sine variant and reconstructing through the CLI must not load it.
    root = Path(__file__).resolve().parents[1]
    script = f"""
import sys
import tempfile
import visir, visir.cli
from visir.cli import main
assert main(["build-data", *{SMALL_DATA_FLAGS!r}, "--out", "data"]) == 0
assert main(["train", "--manifest", "data/manifest.json", *{TINY_MODEL_FLAGS!r}, "--train.steps", "1",
             "--out", "run"]) == 0
assert main(["reconstruct", "--checkpoint", "run/model.vsck", "--input", "data/s000_t00_lr.vsgr",
             "--hr", "data/s000_t00_hr.vsgr", "--out", "rec"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
                          env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr[-2000:]
