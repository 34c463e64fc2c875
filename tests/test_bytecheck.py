"""The CLI is deterministic end to end: scripts/bytecheck.py's command matrix,
run twice on this checkout, writes the same bytes.

This pins the determinism contract without pinning output hashes, which
depend on the machine.  `build-data` is also pinned across host classes: the
CPU kernels that OpenBLAS and numpy pick must not move its bytes.
"""

import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="the settings name x86-64 kernels")
def test_build_data_bytes_are_the_same_across_host_classes(tmp_path):
    bytecheck = _load_bytecheck()
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = str(ROOT / "src")
    outputs = []
    for i, host in enumerate(_HOST_CLASSES):
        out = tmp_path / f"host{i}"
        subprocess.run([sys.executable, "-m", "visir", "build-data", *bytecheck.DATA, "--data.background", "0.4",
                        "--out", str(out)], env={**env, **host}, check=True, capture_output=True)
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))})
    assert len(outputs[0]) == 2 * 2 * 8 + 1  # two sources of 8 tiles, two grids a pair, and the manifest
    for i, other in enumerate(outputs[1:], 1):
        assert other == outputs[0], _HOST_CLASSES[i]
