"""The CLI is deterministic end to end: scripts/bytecheck.py's command matrix,
run twice on this checkout, writes the same bytes.

Trained and predicted bytes depend on the machine, so only the outputs that do
not are pinned to committed digests (tests/golden.json): every `build-data`
file, which is also pinned across host classes (the CPU kernels that OpenBLAS
and numpy pick must not move its bytes), the pixels `write_png` stores, and the
checkpoint of a freshly initialized model of each variant, on every host class.
"""

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from visir.cli import main
from visir.data import write_png

from oracles import read_png_per_byte

ROOT = Path(__file__).resolve().parents[1]


def _load_bytecheck():
    spec = importlib.util.spec_from_file_location("bytecheck", ROOT / "scripts" / "bytecheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_twice_gives_identical_bytes(tmp_path):
    bytecheck = _load_bytecheck()
    for side in ("a", "b"):
        assert bytecheck.run_matrix(ROOT / "src", tmp_path / side) == []  # every exit code as expected
    result = dict(bytecheck.compare(tmp_path / "a", tmp_path / "b"))
    for name, _, _ in bytecheck.MATRIX:
        assert result[f"logs/{name}.txt"] == "identical"
    for output in ("data/manifest.json", "data_custom/manifest.json", "data_odd/manifest.json",
                   "data_odd/s000_t00_lr.vsgr", "data_blocks/manifest.json", "data_blocks/s000_t07_hr.vsgr",
                   "data_bands/manifest.json", "data_bands/s000_t19_hr.vsgr",
                   "train_visir/model.vsck", "train_default/loss_curve.csv", "eval_test/eval.csv", "sweep/sweep.csv",
                   "reconstruct_vsgr/error.png", "reconstruct_png/reconstruction.vsgr",
                   "reconstruct_vsgr/error.png.pixels.txt", "reconstruct_png/reconstruction.png.pixels.txt",
                   "library/siren_inr.vsgr", "library/c5_visir.vsck",
                   "train_visir/model.vsck.params.txt", "library/c5_visir.vsck.params.txt",
                   "train_visir/model.vsck.config.json",
                   "library/predict_cli_visir.vsgr", "library/predict_cli_vit_mlp.vsgr",
                   "library/predict_c5_visir.vsgr", "library/predict_c5_vit_mlp.vsgr",
                   "library/non_finite_visir_embed.weight.txt", "library/non_finite_visir_decoder.w0.txt",
                   "library/non_finite_visir_decoder.w2.txt", "library/non_finite_vit_mlp_embed.weight.txt"):
        assert result[output] == "identical"
    assert set(result.values()) == {"identical"}
    for side in ("a", "b"):  # the two failing commands leave no --out and no staging directory
        assert not (tmp_path / side / "train_diverged").exists()
        assert not (tmp_path / side / "build_overflow").exists()
        assert list((tmp_path / side).rglob(".*")) == []


# Host classes: OpenBLAS's Haswell kernels, numpy without its AVX-512 loops, and OpenBLAS's
# Sandybridge kernels.  Haswell's and SkylakeX's kernels both use FMA and agree on a product
# with a short inner axis; Sandybridge's have no FMA, so a grid that passes through BLAS at all
# moves there.  Each variable acts only on the child process it is set for.
_HOST_CLASSES = ({}, {"OPENBLAS_CORETYPE": "Haswell"},
                 {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}, {"OPENBLAS_CORETYPE": "Sandybridge"})


_X86 = platform.machine() in ("x86_64", "AMD64")


def _child_env(host: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    return {**env, "PYTHONPATH": str(ROOT / "src"), **host}


@pytest.mark.skipif(not _X86, reason="the settings name x86-64 kernels")
def test_build_data_bytes_are_the_same_across_host_classes(tmp_path):
    bytecheck = _load_bytecheck()
    outputs = []
    for i, host in enumerate(_HOST_CLASSES):
        out = tmp_path / f"host{i}"
        subprocess.run([sys.executable, "-m", "visir", "build-data", *bytecheck.DATA, "--data.background", "0.4",
                        "--out", str(out)], env=_child_env(host), check=True, capture_output=True)
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))})
    assert len(outputs[0]) == 2 * 2 * 8 + 1  # two sources of 8 tiles, two grids a pair, and the manifest
    for i, other in enumerate(outputs[1:], 1):
        assert other == outputs[0], _HOST_CLASSES[i]


def _golden_png_input() -> np.ndarray:
    """A fixed 16x17 RGB image from exact arithmetic alone: values spread over [-0.1, 1.1], so
    both clips show, and the 256 half-way points k / 255 + 0.5 / 255 of the rounding."""
    spread = (np.arange(16 * 17 * 3) * 0.6180339887498949) % 1.0 * 1.2 - 0.1
    spread[:256] = (np.arange(256) + 0.5) / 255.0
    return spread.reshape(16, 17, 3)


def test_build_data_and_png_pixels_match_the_golden_digests(tmp_path):
    # A change that means to move these bytes updates tests/golden.json with the digests
    # this test prints, and gives its byte story from scripts/bytecheck.py.
    assert main(["build-data", *_load_bytecheck().DATA, "--out", str(tmp_path / "data")]) == 0
    files = sorted(p for p in (tmp_path / "data").rglob("*") if p.is_file())
    write_png(tmp_path / "fixed.png", _golden_png_input())
    got = {"build-data": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
           "write_png pixels": hashlib.sha256(read_png_per_byte(tmp_path / "fixed.png").tobytes()).hexdigest()}
    golden = json.loads((ROOT / "tests" / "golden.json").read_text())
    assert got == {key: golden[key] for key in got}, json.dumps(got, indent=2)


# The digests of save_checkpoint(init_parameters(cfg, 0)) for a 12x12x3 LR model and its MLP
# twin, printed as JSON; the checkpoints are written into the directory argv[1].
_INIT_CHECKPOINT_DIGESTS = """
import hashlib, json, sys
from pathlib import Path
from visir.model import ModelConfig, as_mlp_baseline, init_parameters
from visir.training import save_checkpoint
cfg = ModelConfig(lr_height=12, lr_width=12, num_layers=1, num_heads=2, embed_dim=16, siren_hidden_dim=16)
digests = {}
for c in (cfg, as_mlp_baseline(cfg)):
    path = Path(sys.argv[1]) / f"{c.variant}.vsck"
    save_checkpoint(init_parameters(c, 0), path)
    digests[c.variant] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


def test_init_checkpoints_match_the_golden_digests_on_every_host_class(tmp_path):
    # The draw is numpy's generator alone, so no kernel choice may move a fresh model's bytes.
    golden = json.loads((ROOT / "tests" / "golden.json").read_text())["init_parameters checkpoint"]
    for host in _HOST_CLASSES if _X86 else ({},):
        out = subprocess.run([sys.executable, "-c", _INIT_CHECKPOINT_DIGESTS, str(tmp_path)], env=_child_env(host),
                             check=True, capture_output=True, text=True).stdout
        assert json.loads(out) == golden, (host, out)
