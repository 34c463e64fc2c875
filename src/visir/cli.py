"""Command-line surface: build-data, train, eval, sweep, reconstruct.

Configuration is a flat ``key = value`` file with [model]/[train]/[data]/[run]
sections; every key can also be given as a ``--section.key value`` flag.
Precedence: flags > config file > defaults.  Unknown keys are rejected.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 divergence,
5 checkpoint/config mismatch.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as datamod
from . import training
from .autodiff import NonFiniteError
from .data import CHANNEL_NAMES, DEFAULT_SPECTRUM, DataConfig, SpectrumSpec, read_grid, read_png, write_grid, write_png
from .metrics import evaluate_pair
from .model import ModelConfig, init_parameters, predict
from .training import (
    CheckpointFormatError,
    CheckpointMismatchError,
    DivergenceError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_MISMATCH = 5


class ConfigError(ValueError):
    pass


def _parse_grid(conv, name: str):
    """Comma-separated values of the ModelConfig field `name`, each checked by ModelConfig."""
    def parse(text: str) -> tuple:
        values = tuple(conv(item) for item in text.split(","))
        for value in values:
            ModelConfig(**{name: value})
        return values
    return parse


# Field type hint (a string under postponed annotations) -> CLI value parser.
_CONVERTERS = {"int": int, "float": float, "str": str}


def _key_fields(cls) -> list:
    """The fields of `cls` that are CLI keys: those that carry help text."""
    return [f for f in fields(cls) if "help" in f.metadata]


def _field_keys(section: str, cls) -> dict[str, tuple]:
    """`section.name` keys for the key fields of `cls`."""
    return {f"{section}.{f.name}": (_CONVERTERS[f.type], f.default, f.metadata["help"]) for f in _key_fields(cls)}


# key -> (converter, default, help)
KEYS: dict[str, tuple] = {
    **_field_keys("model", ModelConfig),
    **_field_keys("train", TrainConfig),
    **_field_keys("data", DataConfig),
    # SpectrumSpec as text; _spectrum parses its default back to DEFAULT_SPECTRUM.
    "data.components": (str, ",".join(f"{amp}:{cycles:g}:{math.degrees(theta):g}"
                                      for amp, cycles, theta in DEFAULT_SPECTRUM.components),
                        "sinusoid components amp:cycles:angle_deg, comma separated"),
    "data.background": (float, DEFAULT_SPECTRUM.background_amplitude, "smooth background amplitude"),
    "data.background_cycles": (int, DEFAULT_SPECTRUM.background_max_cycles, "max integer frequency of the background"),
    "sweep.frequencies": (_parse_grid(float, "omega0"), training.DEFAULT_FREQUENCIES,
                          "omega0 grid, comma separated"),
    "sweep.layers": (_parse_grid(int, "siren_hidden_layers"), training.DEFAULT_LAYER_COUNTS,
                     "hidden-layer grid, comma separated"),
    "run.seed": (int, 0, "global seed"),
    "run.out": (str, "out", "output directory"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; it depends on KEYS alone, so one is built per process and shared."""
    parser = argparse.ArgumentParser(prog="visir", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # The options every command takes, added once and shared by each subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key = value config file")
    for key, (_, default, help_text) in KEYS.items():
        section, name = key.split(".")
        flags = ["--" + key, "--" + name] if section == "run" else ["--" + key]  # --seed, --out
        common.add_argument(*flags, dest=key, type=str, default=None, help=f"{help_text} (default {default})")

    sub.add_parser("build-data", parents=[common], help="generate synthetic SR pairs and a manifest")

    p_train = sub.add_parser("train", parents=[common], help="train a model on a dataset manifest")
    p_train.add_argument("--manifest", type=str, required=True, help="dataset manifest path")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint on a split")
    p_eval.add_argument("--manifest", type=str, required=True)
    p_eval.add_argument("--checkpoint", type=str, required=True)
    p_eval.add_argument("--split", type=str, default="test", choices=("train", "test"))

    p_sweep = sub.add_parser("sweep", parents=[common], help="frequency x hidden-layer grid search")
    p_sweep.add_argument("--manifest", type=str, required=True)

    p_rec = sub.add_parser("reconstruct", parents=[common], help="super-resolve one LR image")
    p_rec.add_argument("--checkpoint", type=str, required=True)
    p_rec.add_argument("--input", type=str, required=True, help="LR image (.vsgr or .png)")
    p_rec.add_argument("--hr", type=str, default=None, help="optional HR reference for metrics")
    return parser


class Settings(dict):
    """Key -> value for every key; `given` holds the keys that the config file or the flags set."""
    given: frozenset = frozenset()


def load_settings(ns: argparse.Namespace) -> Settings:
    """Merge defaults, config file and flags; reject unknown keys."""
    texts = []  # (key, text): the config file's first, so a flag wins
    if ns.config is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        try:
            if not parser.read(ns.config, encoding="utf-8"):
                raise OSError(f"cannot read config file {ns.config}")
        except (configparser.Error, UnicodeDecodeError) as exc:  # its messages span lines: the error is one
            raise ConfigError(" ".join(str(exc).split())) from exc
        # The parser yields [DEFAULT] first: its keys, copied into every section, are unknown.
        texts += [(f"{section}.{name}", value) for section in parser for name, value in parser.items(section)]
    # argparse before Python 3.12 drops the text `--` from `--key=--` and hands over an empty list.
    texts += [(key, value if isinstance(value, str) else "--") for key in KEYS
              if (value := getattr(ns, key, None)) is not None]
    settings = Settings((key, default) for key, (_, default, _) in KEYS.items())
    for key, text in texts:
        if key not in KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        try:
            settings[key] = KEYS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {exc}") from exc
    settings.given = frozenset(key for key, _ in texts)
    return settings


def _config(cls, section: str, settings: dict, **fixed):
    """`cls` from its `section.*` settings, the `run.*` settings its fields are named after (the seed)
    and the `fixed` fields.

    A value that `cls` rejects is a ConfigError whose message names each of those keys in full.
    """
    keys = {f.name: f"{section}.{f.name}" for f in _key_fields(cls)}
    keys.update((f.name, f"run.{f.name}") for f in fields(cls) if f"run.{f.name}" in KEYS)
    try:
        return cls(**{name: settings[key] for name, key in keys.items()}, **fixed)
    except ValueError as exc:
        raise ConfigError(re.sub(rf"\b({'|'.join(keys)})\b", lambda m: keys[m[0]], str(exc))) from exc


def _geometry(manifest) -> dict:
    """The ModelConfig fields that a manifest's tiles fix: LR size, scale and channels."""
    return {"lr_height": manifest.tile_height // manifest.scale, "lr_width": manifest.tile_width // manifest.scale,
            "scale": manifest.scale, "channels": len(CHANNEL_NAMES)}


# SpectrumSpec field -> the key that sets it.
_SPECTRUM_KEYS = {"components": "data.components", "background_amplitude": "data.background",
                  "background_max_cycles": "data.background_cycles"}


def _spectrum(settings: dict) -> SpectrumSpec:
    """The data.components, data.background and data.background_cycles settings;
    a spectrum that SpectrumSpec rejects is a ConfigError that names the keys."""
    text = settings["data.components"].strip()
    components = []
    for part in text.split(",") if text else ():
        try:
            amp, cycles, angle_deg = (float(b) for b in part.split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad value for 'data.components': expected amp:cycles:angle_deg, got {part!r}") from exc
        components.append((amp, cycles, math.radians(angle_deg)))
    try:
        return SpectrumSpec(components=tuple(components), background_amplitude=settings["data.background"],
                            background_max_cycles=settings["data.background_cycles"])
    except ValueError as exc:
        message = re.sub(rf"\b({'|'.join(_SPECTRUM_KEYS)})\b", lambda m: _SPECTRUM_KEYS[m[0]], str(exc))
        raise ConfigError(message) from exc


# Each command writes its files into `stage`, a new directory that `main` empties into --out when the command returns.

def cmd_build_data(ns: argparse.Namespace, settings: dict, stage: Path) -> int:
    cfg = _config(DataConfig, "data", settings, spectrum=_spectrum(settings))
    manifest = datamod.build_dataset(cfg, stage)
    train_n = len(manifest.split("train"))
    test_n = len(manifest.split("test"))
    print(f"{len(manifest.entries)} pairs ({train_n} train / {test_n} test)")
    print(f"manifest: {Path(settings['run.out']) / 'manifest.json'}")
    return EXIT_OK


def cmd_train(ns: argparse.Namespace, settings: dict, stage: Path) -> int:
    manifest = datamod.load_manifest(ns.manifest)
    model_cfg = _config(ModelConfig, "model", settings, **_geometry(manifest))
    train_cfg = _config(TrainConfig, "train", settings)
    pairs = datamod.load_pairs(manifest, "train")
    eval_pairs = datamod.load_pairs(manifest, "test") if train_cfg.eval_interval > 0 else None
    result = training.train(init_parameters(model_cfg, train_cfg.seed), pairs, train_cfg, eval_pairs=eval_pairs)
    save_checkpoint(result.model, stage / "model.vsck")
    training.write_loss_curve(result.curve, stage / "loss_curve.csv")
    out = Path(settings["run.out"])
    final = result.final_loss
    print(f"final train loss: {'n/a (0 steps)' if final is None else repr(final)}")
    print(f"checkpoint: {out / 'model.vsck'}")
    if eval_pairs is not None:
        training.write_eval_curve(result.eval_curve, stage / "eval_curve.csv")
        print(f"test PSNR curve: {out / 'eval_curve.csv'}")
    return EXIT_OK


def _check_explicit_model_keys(settings: Settings, config: ModelConfig) -> None:
    """Every model.* key that the config file or the flags gave must agree with the loaded checkpoint."""
    for key in sorted(k for k in settings.given if k.startswith("model.")):
        stored = getattr(config, key.split(".", 1)[1])
        if stored != settings[key]:
            raise CheckpointMismatchError(f"'{key}' = {settings[key]} conflicts with checkpoint value {stored}")


def cmd_eval(ns: argparse.Namespace, settings: dict, stage: Path) -> int:
    manifest = datamod.load_manifest(ns.manifest)
    model = load_checkpoint(ns.checkpoint)
    _check_explicit_model_keys(settings, model.config)
    geometry = _geometry(manifest)
    stored = {name: getattr(model.config, name) for name in geometry}
    if stored != geometry:
        raise CheckpointMismatchError(f"checkpoint geometry {stored} does not match the manifest's {geometry}")
    entries = manifest.split(ns.split)
    reports, summary = training.evaluate(model, datamod.load_pairs(manifest, ns.split))
    training.write_eval_csv([e.pair_id for e in entries], reports, stage / "eval.csv")
    print(f"{ns.split} split: {summary.count} images")
    for name, stat in (("MSE", summary.mse), ("PSNR", summary.psnr), ("SSIM", summary.ssim)):
        print(f"{name}: max {stat.max:.6g} | mean {stat.mean:.6g} | min {stat.min:.6g}")
    if summary.psnr_inf_count:
        print(f"note: {summary.psnr_inf_count} perfect reconstructions excluded from the PSNR mean")
    print(f"per-image metrics: {Path(settings['run.out']) / 'eval.csv'}")
    return EXIT_OK


def cmd_sweep(ns: argparse.Namespace, settings: dict, stage: Path) -> int:
    manifest = datamod.load_manifest(ns.manifest)
    model_cfg = _config(ModelConfig, "model", settings, **_geometry(manifest))
    train_cfg = _config(TrainConfig, "train", settings)
    split = {name: datamod.load_pairs(manifest, name) for name in ("train", "test")}
    result = training.sweep(model_cfg, split, train_cfg, settings["sweep.frequencies"], settings["sweep.layers"])
    training.write_sweep_csv(result, stage / "sweep.csv")
    for layers, freq, message in result.failures:
        print(f"cell (layers={layers}, omega0={freq}) failed: {message}", file=sys.stderr)
    try:
        (layers, freq), psnr = result.best()
    except ValueError:
        print("every sweep cell failed", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"best cell: hidden_layers={layers}, omega0={freq}, mean test PSNR {psnr:.4f} dB")
    print(f"grid: {Path(settings['run.out']) / 'sweep.csv'}")
    return EXIT_OK


def _read_image(path: str, shape: tuple, mismatch: str) -> np.ndarray:
    """The PNG or VSGR image at `path`, which must have `shape`; `mismatch` names
    the two shapes otherwise.  A PNG's shape is checked before its pixels are held,
    so a small file that declares a large image asks for no more memory."""
    p = Path(path)
    values = read_png(p, shape) if p.suffix.lower() == ".png" else read_grid(p)[0]
    if values.shape != shape:
        raise CheckpointMismatchError(mismatch.format(values.shape, shape))
    return values


def cmd_reconstruct(ns: argparse.Namespace, settings: dict, stage: Path) -> int:
    model = load_checkpoint(ns.checkpoint)
    _check_explicit_model_keys(settings, model.config)
    cfg = model.config
    lr = _read_image(ns.input, (cfg.lr_height, cfg.lr_width, cfg.channels),
                     "input shape {} does not match checkpoint LR shape {}")
    hr = None if ns.hr is None else _read_image(ns.hr, (cfg.hr_height, cfg.hr_width, cfg.channels),
                                                "HR reference shape {} does not match output {}")
    recon = predict(lr, model).data
    write_png(stage / "reconstruction.png", recon)
    write_grid(stage / "reconstruction.vsgr", recon)
    out = Path(settings["run.out"])
    print(f"reconstruction: {out / 'reconstruction.png'} ({recon.shape[0]}x{recon.shape[1]})")
    if hr is not None:
        # |error| mapped linearly onto the 8-bit range; the max is printed so
        # the absolute scale is recoverable.
        err = np.abs(recon - hr)
        max_err = float(err.max())
        write_png(stage / "error.png", err)
        report = evaluate_pair(hr, recon)
        print(f"max |error|: {max_err:.6g}")
        print(f"mse {report.mse:.6g} | psnr {report.psnr:.4f} dB | ssim {report.ssim:.6g}")
        print(f"error map: {out / 'error.png'}")
    return EXIT_OK


COMMANDS = {
    "build-data": cmd_build_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "reconstruct": cmd_reconstruct,
}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    stage = None
    try:
        settings = load_settings(ns)
        out = Path(settings["run.out"])
        # Staging goes in --out or its nearest existing ancestor: on its filesystem, and as writable as it.
        parent = next(p for p in (out, *out.parents) if p.exists())
        stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=parent))
        # A NaN or infinity is reported once, by the check that finds it, not by numpy's warnings.
        with np.errstate(all="ignore"):
            code = COMMANDS[ns.command](ns, settings, stage)
        # The command returned: its files move into --out, and the other files there stay.
        out.mkdir(parents=True, exist_ok=True)
        for path in sorted(stage.iterdir()):
            os.replace(path, out / path.name)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CheckpointFormatError, CheckpointMismatchError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except MemoryError as exc:
        # A size in the configuration or the input that this machine cannot hold.
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, NonFiniteError) as exc:
        # ValueError here means malformed input data (grids, manifests); NonFiniteError a
        # forward pass outside training (eval, reconstruct) that met a NaN or infinity.
        is_io = isinstance(exc, OSError)
        print(f"{'i/o' if is_io else 'data'} error: {exc}", file=sys.stderr)
        return EXIT_IO if is_io else EXIT_CONFIG
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
