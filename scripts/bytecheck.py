#!/usr/bin/env python3
"""Compare the CLI's output bytes at this checkout with those at another git revision.

    python scripts/bytecheck.py <rev>

Runs one matrix of visir commands (build-data, train, eval, sweep and
reconstruct, on small sizes, two of which fail and must leave no `--out`), then the library paths no command reaches (a
coordinate-net fit, the single-channel criterion-5 model, the `predict`
output of untrained models, and the error `predict` raises when one weight
overflows the forward pass), twice: once on
this checkout's src/, uncommitted edits included, and once on <rev>'s src/,
exported with `git archive` into a temporary directory.  Then it prints
"identical" or "different" for every output file and directory, including a log
per command with its exit code, stdout and stderr.  It exits 1 if any entry differs or any
command ends with an exit code other than the one the matrix expects.

The `library/predict_*.vsgr` files compare inference alone: a change to the
training arithmetic can move trained values, and every output made from them,
in their last bits, while these files come from seed-0 parameters only.

Each side also loads every `*.vsck` checkpoint it made with its own
`load_checkpoint`, and writes two files next to it: `<checkpoint>.config.json`,
its config JSON, and `<checkpoint>.params.txt`, per tensor in sorted-name order
its name, its shape and the SHA-256 of its little-endian f64 bytes.  These files
compare the config and the parameters apart, so a change to the checkpoint
format alone moves only the `*.vsck` files, and one to the config schema alone
moves the `*.config.json` files too.  In the same way it decodes every PNG it
made or read with its own `read_png`, and writes `<png>.pixels.txt` next to it:
the shape and the SHA-256 of the uint8 pixels.  A change to the PNG encoder alone then moves only the
`*.png` files.

Each side runs in its own interpreter with one BLAS thread, and calls
`visir.cli.main` for every command, with relative paths, in a fresh directory.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import struct
import subprocess
import sys
import tarfile
import tempfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

DATA = ["--data.sources", "2", "--data.source_height", "48", "--data.source_width", "96",
        "--data.tile", "24", "--data.scale", "2", "--data.train_fraction", "0.5"]
SMALL_MODEL = ["--model.embed_dim", "16", "--model.num_heads", "2", "--model.siren_hidden_dim", "16"]
TRAIN = ["train", "--manifest", "data/manifest.json", "--train.learning_rate", "1e-3"]

# (name, argv, expected exit code), run in order: later commands read earlier outputs.
MATRIX = [
    ("build_default", ["build-data", *DATA, "--out", "data"], 0),
    ("build_custom", ["build-data", *DATA, "--data.components", "0.5:3:10,0.3:11:60", "--data.background", "0.2",
                      "--data.background_cycles", "2", "--seed", "3", "--out", "data_custom"], 0),
    ("build_odd", ["build-data", *DATA, "--data.scale", "3", "--out", "data_odd"], 0),  # the odd-factor kernel
    # 768 values a row: synth_field's row blocks are 85 rows and a ragged 11; the 0-degree term folds into the row sum.
    ("build_blocks", ["build-data", *DATA, "--data.sources", "1", "--data.source_height", "96",
                      "--data.source_width", "768", "--data.tile", "96", "--data.components", "1:2:17,0.35:23:0",
                      "--out", "data_blocks"], 0),
    # 240x48 in ten bands of 24 rows: 48 cycles along x alias to near-constant rows, so several rows
    # come near the field's min and max, and build-data makes each of them exactly to find its range.
    ("build_bands", ["build-data", *DATA, "--data.sources", "1", "--data.source_height", "240",
                     "--data.source_width", "48", "--data.tile", "24", "--data.components", "1:48:0,0.5:5:90",
                     "--out", "data_bands"], 0),
    ("build_overflow", ["build-data", *DATA, "--data.components", "1:1e308:0", "--out", "build_overflow"], 2),
    ("train_visir", [*TRAIN, *SMALL_MODEL, "--train.steps", "4", "--train.eval_interval", "2",
                     "--out", "train_visir"], 0),
    ("train_vit_mlp", [*TRAIN, *SMALL_MODEL, "--model.variant", "vit_mlp", "--train.batch_size", "2",
                       "--train.steps", "3", "--out", "train_vit_mlp"], 0),
    ("train_no_blocks", [*TRAIN, *SMALL_MODEL, "--model.num_layers", "0", "--model.siren_hidden_layers", "1",
                         "--train.batch_size", "3", "--train.steps", "3", "--out", "train_no_blocks"], 0),
    ("train_default", [*TRAIN, "--train.batch_size", "4", "--train.steps", "2", "--out", "train_default"], 0),
    ("train_diverged", ["train", "--manifest", "data/manifest.json", *SMALL_MODEL, "--train.learning_rate", "1e200",
                        "--train.steps", "3", "--out", "train_diverged"], 4),
    ("eval_test", ["eval", "--manifest", "data/manifest.json", "--checkpoint", "train_visir/model.vsck",
                   "--split", "test", "--out", "eval_test"], 0),
    ("eval_train", ["eval", "--manifest", "data/manifest.json", "--checkpoint", "train_visir/model.vsck",
                    "--split", "train", "--out", "eval_train"], 0),
    ("sweep", ["sweep", "--manifest", "data/manifest.json", *SMALL_MODEL, "--train.steps", "2",
               "--sweep.frequencies", "10,30", "--sweep.layers", "1,2", "--out", "sweep"], 0),
    ("reconstruct_vsgr", ["reconstruct", "--checkpoint", "train_visir/model.vsck",
                          "--input", "data/s000_t00_lr.vsgr", "--hr", "data/s000_t00_hr.vsgr",
                          "--out", "reconstruct_vsgr"], 0),
    ("reconstruct_png", ["reconstruct", "--checkpoint", "train_default/model.vsck",
                         "--input", "inputs/lr.png", "--out", "reconstruct_png"], 0),
    ("reconstruct_mismatch", ["reconstruct", "--checkpoint", "train_visir/model.vsck",
                              "--input", "inputs/wrong.vsgr", "--out", "reconstruct_mismatch"], 5),
]


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload))


def write_inputs(work: Path) -> None:
    """The LR inputs no command makes: a 12x12 RGB PNG whose rows cycle through
    the five PNG filter types, and a VSGR grid of the wrong shape."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    pixels = np.random.default_rng(0).integers(0, 256, (12, 12 * 3)).astype(np.int64)
    rows = b""
    for y, cur in enumerate(pixels):
        up = pixels[y - 1] if y else np.zeros_like(cur)
        left = np.concatenate([np.zeros(3, np.int64), cur[:-3]])
        up_left = np.concatenate([np.zeros(3, np.int64), up[:-3]])
        p = left + up - up_left
        pa, pb, pc = abs(p - left), abs(p - up), abs(p - up_left)
        paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, up_left))
        predictor = (0, left, up, (left + up) // 2, paeth)[y % 5]
        rows += bytes([y % 5]) + ((cur - predictor) % 256).astype(np.uint8).tobytes()
    header = _png_chunk(b"IHDR", struct.pack(">IIBBBBB", 12, 12, 8, 2, 0, 0, 0))
    (inputs / "lr.png").write_bytes(b"\x89PNG\r\n\x1a\n" + header + _png_chunk(b"IDAT", zlib.compress(rows))
                                    + _png_chunk(b"IEND", b""))
    (inputs / "wrong.vsgr").write_bytes(b"VSGR" + struct.pack("<IIIII", 1, 5, 5, 3, 0) + bytes(8 * 75))


def _run_commands(src: Path, work: Path) -> None:
    """Child side: run MATRIX in `work` with the visir package under `src`."""
    import visir.cli

    if Path(visir.__file__).resolve().parent != (src / "visir").resolve():
        raise SystemExit(f"imported visir from {visir.__file__}, not from {src}")
    os.chdir(work)
    (work / "logs").mkdir()
    for name, argv, _ in MATRIX:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = visir.cli.main(argv)
        (work / "logs" / f"{name}.txt").write_text(
            f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}", encoding="utf-8")
    _run_library(work / "library")
    _digest_checkpoints(work)
    _digest_pngs(work)


def _digest_checkpoints(work: Path) -> None:
    """Child side: next to every checkpoint under `work`, loaded with this side's
    `load_checkpoint`, `<checkpoint>.config.json`, its config JSON, and
    `<checkpoint>.params.txt`, one line per tensor in sorted-name order with its
    name, its shape and the SHA-256 of its `<f8` bytes."""
    from visir.training import load_checkpoint

    for path in sorted(work.rglob("*.vsck")):
        model = load_checkpoint(path)
        path.with_name(path.name + ".config.json").write_text(
            json.dumps(asdict(model.config), sort_keys=True) + "\n", encoding="utf-8")
        lines = []
        for name in sorted(model.params):
            data = model.params[name].data
            digest = hashlib.sha256(data.astype("<f8").tobytes()).hexdigest()
            lines.append(f"{name} {'x'.join(map(str, data.shape))} {digest}")
        path.with_name(path.name + ".params.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _digest_pngs(work: Path) -> None:
    """Child side: `<png>.pixels.txt` next to every PNG under `work`, decoded with this
    side's `read_png`: its shape, then the SHA-256 of its uint8 pixels."""
    from visir.data import read_png

    for path in sorted(work.rglob("*.png")):
        pixels = np.rint(read_png(path) * 255.0).astype(np.uint8)
        digest = hashlib.sha256(pixels.tobytes()).hexdigest()
        path.with_name(path.name + ".pixels.txt").write_text(
            f"{'x'.join(map(str, pixels.shape))} {digest}\n", encoding="utf-8")


def _run_library(out: Path) -> None:
    """Child side: a 20-step coordinate-net fit of data/s000_t00, the criterion-5
    model (one channel) of scripts/spectral_bias_experiment.py trained 10 steps at batch 2,
    and the `predict` output of both variants of two untrained seed-0 models: the CLI's
    default model on data/s000_t00's LR tile and the criterion-5 model on its first tile;
    then the error a `no_grad` `predict` of that tile raises when one weight of the
    CLI's default model is 1e307, for each weight where an overflow must be caught."""
    from visir.autodiff import Tensor, no_grad
    from visir.data import SRPair, read_grid, write_grid
    from visir.model import ModelConfig, VisirModel, as_mlp_baseline, init_parameters, predict
    from visir.training import TrainConfig, fit_siren_inr, save_checkpoint, train

    spec = importlib.util.spec_from_file_location("spectral_bias_experiment",
                                                  ROOT / "scripts" / "spectral_bias_experiment.py")
    experiment = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(experiment)
    out.mkdir()
    pair = SRPair(hr=read_grid("data/s000_t00_hr.vsgr")[0], lr=read_grid("data/s000_t00_lr.vsgr")[0], scale=2)
    _, recon = fit_siren_inr(pair, hidden_dim=16, steps=20, learning_rate=1e-3)
    write_grid(out / "siren_inr.vsgr", recon)
    model = init_parameters(experiment.model_config(), seed=0)
    train(model, experiment.build_split(0)[0], TrainConfig(learning_rate=1e-3, steps=10, batch_size=2))
    save_checkpoint(model, out / "c5_visir.vsck")
    h, w, c = pair.lr.shape
    inputs = {"cli": (ModelConfig(lr_height=h, lr_width=w, scale=2, channels=c), pair.lr),
              "c5": (experiment.model_config(), experiment.build_split(0)[0][0].lr)}
    for name, (cfg, lr) in inputs.items():
        for variant_cfg in (cfg, as_mlp_baseline(cfg)):
            with no_grad():
                recon = predict(lr, init_parameters(variant_cfg, seed=0)).data
            write_grid(out / f"predict_{name}_{variant_cfg.variant}.vsgr", recon)
    # Each overflow case: one weight of the untrained CLI-default model set to a finite 1e307.
    cfg = inputs["cli"][0]
    for variant_cfg, name in ((cfg, "embed.weight"), (cfg, "decoder.w0"), (cfg, f"decoder.w{cfg.siren_hidden_layers}"),
                              (as_mlp_baseline(cfg), "embed.weight")):
        model = init_parameters(variant_cfg, seed=0)
        model = VisirModel(variant_cfg, {**model.params, name: Tensor(np.full(model.params[name].shape, 1e307))})
        try:
            with no_grad(), np.errstate(all="ignore"):
                predict(pair.lr, model)
            outcome = "no error"
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        (out / f"non_finite_{variant_cfg.variant}_{name}.txt").write_text(outcome + "\n", encoding="utf-8")


def run_matrix(src: Path, work: Path) -> list[str]:
    """Run MATRIX on the package under `src` in the new directory `work`;
    returns one line per command whose exit code is not the expected one."""
    write_inputs(work)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, __file__, "--run-commands", str(src), str(work)], env=env, check=True)
    wrong = []
    for name, _, expected in MATRIX:
        first = (work / "logs" / f"{name}.txt").read_text(encoding="utf-8").split("\n", 1)[0]
        if first != f"exit {expected}":
            wrong.append(f"{name}: {first}, expected exit {expected}")
    return wrong


def compare(a: Path, b: Path) -> list[tuple[str, str]]:
    """(relative path, "identical" | "different" | "only in <side>") for every file and directory
    under a or b; two directories are identical, so an empty one is a difference only if one side lacks it."""
    paths = {str(p.relative_to(root)) for root in (a, b) for p in root.rglob("*")}
    result = []
    for rel in sorted(paths):
        pa, pb = a / rel, b / rel
        if not pa.exists() or not pb.exists():
            result.append((rel, f"only in {a.name if pa.exists() else b.name}"))
        elif pa.is_dir() or pb.is_dir():
            result.append((rel, "identical" if pa.is_dir() and pb.is_dir() else "different"))
        else:
            result.append((rel, "identical" if pa.read_bytes() == pb.read_bytes() else "different"))
    return result


def export_src(rev: str, dest: Path) -> Path:
    """src/ of git revision `rev`, extracted under `dest`."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest / "src"


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--run-commands":
        _run_commands(Path(sys.argv[2]), Path(sys.argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare with, e.g. HEAD~1")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        sides = {"checkout": ROOT / "src", "rev": export_src(args.rev, tmp / "export")}
        wrong = []
        for side, src in sides.items():
            wrong += [f"{side} {line}" for line in run_matrix(src, tmp / side)]
        result = compare(tmp / "checkout", tmp / "rev")
    for rel, status in result:
        print(f"{status:10s} {rel}")
    for line in wrong:
        print(f"unexpected exit: {line}")
    differ = sum(status != "identical" for _, status in result)
    print(f"{len(result)} paths compared with {args.rev}: {len(result) - differ} identical, {differ} not")
    return 1 if differ or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
