"""The three benchmark workloads.

Each workload is one process with a closed loop and one caller: the next
call starts when the previous one returns.  It drives visir only through
public functions (`visir.training`, `visir.data`, `visir.model`) and through
`visir.cli.main` called in-process.  Module attributes are looked up at call
time so that the tracer's wrappers, when installed, see every call.

A workload has a set-up, a measured loop of identical cycles, and a
finish that runs the output checks which need the whole run.  Set-up runs
once in the measuring process and, to time it, again in fresh processes.  Every raised call, failed sweep cell, non-zero CLI exit and
failed check is counted in `Recorder.failed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import statistics
import struct
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import visir.cli as cli
import visir.data as data
import visir.model as model
import visir.training as training
from pngfilter import quantize, write_filtered_png

# The CLI's default model (all `--model.*` defaults): 60x60x3 LR -> 240x240x3
# HR, patch 6 (100 tokens), 64-d, 2 blocks, 4 heads, per_token decoder.
CLI_MODEL = dict(patch_size=6, num_layers=2, num_heads=4, embed_dim=64, lr_height=60, lr_width=60)
CLI_MODEL_PARAMS = 192_768

# Criterion 5 (spectral-bias comparison), as in scripts/spectral_bias_experiment.py.
C5_COMPONENTS = ((1.0, 2.0, 0.35), (0.7, 5.0, 1.1), (0.6, 56.0, 0.0), (0.45, 72.0, 1.57))
C5_MODEL = dict(patch_size=4, num_layers=1, num_heads=2, embed_dim=32, lr_height=16, lr_width=16,
                omega0=20.0, siren_hidden_layers=2, siren_hidden_dim=32, scale=4, channels=1)
# Criterion 6 (omega0 x depth sweep), as in scripts/frequency_sweep.py.
C6_COMPONENTS = ((0.8, 1.5, 0.37), (0.4, 3.0, 0.74), (0.27, 6.0, 1.11))
C6_MODEL = dict(patch_size=2, num_layers=1, num_heads=2, embed_dim=16, lr_height=8, lr_width=8,
                omega0=20.0, siren_hidden_layers=2, siren_hidden_dim=16, scale=2, channels=1)

# A run has at least this many latency samples, so that at least ten lie
# beyond the 90th percentile.
MIN_LATENCY_SAMPLES = 100


def subseed(seed: int, *parts) -> int:
    """Deterministic 31-bit seed for one named input of the run."""
    key = "/".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big") >> 1


class Recorder:
    """Counts attempted and failed operations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        """Count a failure of an operation already counted as attempted."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def timed(self, what: str, fn, *args, **kwargs):
        """Call fn once; returns (ok, result, seconds).  A raised call is a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps running and counts it
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return False, None, time.perf_counter() - t0
        return True, result, time.perf_counter() - t0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {what}")
        return ok

    def count(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        for what in failures:
            self.fail(what)

    def state(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}

    def merge(self, state: dict) -> None:
        """Add the counts of another process's recorder."""
        self.attempted += state["attempted"]
        self.failed += state["failed"]
        self.errors += state["errors"][:max(20 - len(self.errors), 0)]


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def robust_rate(samples: list[tuple[str, int, float]]) -> float:
    """Images per second the run kept up nine tenths of the time.

    Each sample is one timed call: (kind, images, seconds).  Calls of one
    kind do the same work; kinds differ in cost.  A call's seconds per image
    over its kind's median is its slowness; the 90th percentile of the
    slowness over every call of the run scales the run's images-weighted
    median time.  With one kind this is the lower decile of the per-call
    rates.

    On a shared virtual machine the same work ran up to 25% faster in
    bursts that came and went within and between runs.  This figure follows
    the base speed; a median jumped with the share of a run that a burst
    happened to cover.  Pooling every call, rather than one figure per
    cycle, gives the percentile enough samples to be steady.
    """
    if not samples:
        return math.nan
    per_image: dict[str, list[float]] = {}
    for kind, images, seconds in samples:
        per_image.setdefault(kind, []).append(seconds / images)
    typical = {kind: statistics.median(v) for kind, v in per_image.items()}
    slowness = [seconds / images / typical[kind] for kind, images, seconds in samples]
    images = sum(n for _, n, _ in samples)
    seconds = sum(n * typical[kind] for kind, n, _ in samples)
    return images / (seconds * float(np.percentile(slowness, 90)))


@contextlib.contextmanager
def timing_calls(module, name: str, record):
    """Call `record(args, seconds)` after every return of `module.name` in the block.

    Like the tracer, it swaps the module attribute, so callers inside visir
    that look the function up at call time are timed too.
    """
    original = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        record(args, time.perf_counter() - t0)
        return result

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def checkpoint_bytes(mdl, path: Path) -> bytes:
    training.save_checkpoint(mdl, path)
    return path.read_bytes()


def check_round_trip(rec: Recorder, mdl, path: Path) -> None:
    """Saved then loaded parameters must be bit-identical (0 ULP)."""
    training.save_checkpoint(mdl, path)
    back = training.load_checkpoint(path)
    same = back.config == mdl.config and set(back.params) == set(mdl.params) and all(
        np.array_equal(back.params[k].data.view(np.uint64), p.data.view(np.uint64))
        for k, p in mdl.params.items())
    rec.check(same, "checkpoint round trip is 0-ULP")


def check_curve(rec: Recorder, result, steps: int, what: str) -> None:
    ok = result is not None and len(result.curve) == steps and all(math.isfinite(v) for _, v in result.curve)
    rec.check(ok, f"{what}: finite loss curve of {steps} steps")


class Workload:
    name = ""
    unit_span = "autodiff.backward"  # one unit for per-layer figures
    min_cycles = 1
    setup_repeats = 7  # processes that set up; setup_s takes the median

    def __init__(self, seed: int, work: Path, rec: Recorder, switch):
        self.seed = seed
        self.work = work
        self.rec = rec
        self.switch = switch
        self.latencies_ms: list[float] = []
        # Timed calls as (kind, images, seconds); see robust_rate.
        self.eval_samples: list[tuple[str, int, float]] = []
        self.train_samples: list[tuple[str, int, float]] = []
        self.build_rates: list[float] = []  # pairs/s of the set-up's dataset build
        # Bytes of the first trained checkpoint and whether it was traced;
        # finish repeats that training with tracing in the opposite state.
        self.reference: bytes | None = None
        self.reference_traced = False
        # Quality guard; each workload sets it once, at a point fixed by
        # cycle count rather than by time.
        self.test_psnr = math.nan

    def setup_record(self) -> dict:
        """Samples a set-up adds, to carry them from a set-up process to the measuring one."""
        return {"train_samples": self.train_samples, "build_rates": self.build_rates}

    def merge_setup(self, record: dict) -> None:
        self.train_samples += [tuple(x) for x in record["train_samples"]]
        self.build_rates += record["build_rates"]

    def enough(self) -> bool:
        return len(self.latencies_ms) >= MIN_LATENCY_SAMPLES

    def _fresh_dir(self, name: str) -> Path:
        d = self.work / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def metrics(self) -> dict[str, float]:
        return {
            "train_images_per_s": robust_rate(self.train_samples),
            "eval_images_per_s": robust_rate(self.eval_samples),
            "reconstruct_ms_p90": float(np.percentile(self.latencies_ms, 90)),
            "test_psnr_db": self.test_psnr,
        }

    def extras(self) -> dict[str, tuple[float, str]]:
        """Reported figures outside BENCHMARK.json, as (value, unit).

        The median latency is one of them: on a host whose speed jumps in
        bursts it is bimodal, and between two sets of ten runs it moved by
        the whole bound while the 90th percentile stayed put.
        """
        return {"reconstruct_ms_p50": (float(np.percentile(self.latencies_ms, 50)), "ms")}

    def samples(self) -> dict[str, list[float]]:
        """Raw per-call samples behind the medians and percentiles."""
        return {"reconstruct_ms": self.latencies_ms, "eval_calls": self.eval_samples,
                "train_calls": self.train_samples}

    def evaluate_each(self, mdl, pairs) -> list[float]:
        """One `training.evaluate` call per image: each is a latency and an eval sample.

        Returns the PSNR of every image; a failed call gives NaN.
        """
        psnrs = []
        for pair in pairs:
            ok, out, dt = self.rec.timed("evaluate", training.evaluate, mdl, [pair])
            if ok:
                self.latencies_ms.append(dt * 1e3)
                self.eval_samples.append((mdl.config.variant, 1, dt))
                psnrs.append(out[1].psnr.mean)
            else:
                psnrs.append(math.nan)
        return psnrs


class TrainCli(Workload):
    """`training.train` on the CLI-default model at batch 4.

    Each cycle continues training the same model for one chunk of steps,
    then scores it image by image on the test split.  The quality guard is the mean test
    PSNR after a fixed number of chunks, so it does not depend on speed.
    """

    name = "train_cli"
    STEPS, BATCH, LEARNING_RATE = 4, 4, 1e-4
    QUALITY_CYCLE = 4
    min_cycles = QUALITY_CYCLE + 1

    def setup(self) -> None:
        d = self._fresh_dir("data")
        cfg = data.DataConfig(sources=2, seed=self.seed, train_fraction=0.5)
        t0 = time.perf_counter()
        manifest = data.build_dataset(cfg, d)
        self.build_rates.append(len(manifest.entries) / (time.perf_counter() - t0))
        self.train_pairs = data.load_pairs(manifest, "train")
        self.test_pairs = data.load_pairs(manifest, "test")
        self.model = model.init_parameters(model.ModelConfig(**CLI_MODEL), self.seed)
        self.init_params = dict(self.model.params)

    def _train_cfg(self, i: int):
        return training.TrainConfig(learning_rate=self.LEARNING_RATE, steps=self.STEPS,
                                    batch_size=self.BATCH, seed=subseed(self.seed, "chunk", i))

    def cycle(self, i: int) -> None:
        ok, result, dt = self.rec.timed("train", training.train, self.model, self.train_pairs, self._train_cfg(i))
        if ok:
            self.train_samples.append(("train", self.STEPS * self.BATCH, dt))
        check_curve(self.rec, result, self.STEPS, "train chunk")
        if i == 0 and ok:
            self.reference = checkpoint_bytes(self.model, self.work / "chunk0.vsck")
            self.reference_traced = self.switch.active
        psnrs = self.evaluate_each(self.model, self.test_pairs)
        if i == self.QUALITY_CYCLE:
            self.test_psnr = float(np.mean(psnrs))

    def finish(self) -> None:
        rec = self.rec
        rec.check(model.parameter_count(self.model) == CLI_MODEL_PARAMS, f"CLI model has {CLI_MODEL_PARAMS} parameters")
        fresh = model.VisirModel(self.model.config, dict(self.init_params))
        with self.switch.opposite(self.reference_traced):
            ok, _, _ = rec.timed("train (repeat of chunk 0)", training.train, fresh, self.train_pairs, self._train_cfg(0))
        rec.check(ok and checkpoint_bytes(fresh, self.work / "repeat.vsck") == self.reference,
                  "repeating chunk 0 with the same seed gives a byte-identical checkpoint")
        check_round_trip(rec, self.model, self.work / "final.vsck")

    def extras(self) -> dict[str, tuple[float, str]]:
        return {**super().extras(), "build_data_pairs_per_s": (median(self.build_rates), "pairs/s")}


class ExperimentSmall(Workload):
    """The paper's desk-scale experiments at criterion-5 and criterion-6 size.

    Each cycle trains the sine variant and the equal-parameter MLP variant
    from scratch on one criterion-5 split (16x16x1 -> 64x64x1, batch 2),
    fits the coordinate network to one test tile, scores both models image
    by image, and runs the full 6x6 `sweep` at 8x8x1 -> 16x16x1.  The first
    ROUNDS cycles use ROUNDS different splits; the quality figures are their
    means, so they do not depend on speed.
    """

    name = "experiment_small"
    ROUNDS = 5
    STEPS, SWEEP_STEPS, LEARNING_RATE = 50, 10, 1e-3
    min_cycles = ROUNDS

    def __init__(self, *args):
        super().__init__(*args)
        self.sweep_rates: list[float] = []
        self.sine_psnr: list[float] = []
        self.gains: list[float] = []

    def setup(self) -> None:
        self.c5 = model.ModelConfig(**C5_MODEL)
        self.c6 = model.ModelConfig(**C6_MODEL)
        self.splits = []
        for r in range(self.ROUNDS):
            field = data.synth_field(subseed(self.seed, "c5", r), 192, 256, data.SpectrumSpec(components=C5_COMPONENTS))
            norm, _ = data.normalize_field(field)
            tiles = data.tile_image(norm[:, :, None], 64, 64)
            pairs = [data.SRPair(hr=t, lr=data.bicubic_downsample(t, 4), scale=4, tile_index=k)
                     for k, t in enumerate(tiles)]
            self.splits.append((pairs[:9], pairs[9:]))
        spec = data.SpectrumSpec(components=C6_COMPONENTS)
        self.sweep_pairs = []
        for k in range(8):
            hr, _ = data.normalize_field(data.synth_field(subseed(self.seed, "c6", k), 16, 16, spec))
            hr = hr[:, :, None]
            self.sweep_pairs.append(data.SRPair(hr=hr, lr=data.bicubic_downsample(hr, 2), scale=2, tile_index=k))

    def _train_cfg(self, sub: int, steps: int):
        return training.TrainConfig(learning_rate=self.LEARNING_RATE, steps=steps, batch_size=2, seed=sub)

    def _train_variant(self, cfg, sub: int, train_pairs):
        """Train one criterion-5 variant from scratch; returns (model, ok, seconds)."""
        mdl = model.init_parameters(cfg, sub)
        ok, result, dt = self.rec.timed(f"train {cfg.variant}", training.train, mdl, train_pairs,
                                        self._train_cfg(sub, self.STEPS))
        check_curve(self.rec, result, self.STEPS, f"train {cfg.variant}")
        return mdl, ok, dt

    def _record_sweep_cell(self, args, seconds: float) -> None:
        """A sweep cell's `training.train` call; cells of one depth do the same work."""
        mdl, _, cfg = args
        self.train_samples.append((f"sweep depth {mdl.config.siren_hidden_layers}", 2 * cfg.steps, seconds))

    def cycle(self, i: int) -> None:
        rec = self.rec
        r = i % self.ROUNDS
        sub = subseed(self.seed, "round", r)
        train_pairs, test_pairs = self.splits[r]
        test_psnr = {}
        for cfg in (self.c5, model.as_mlp_baseline(self.c5)):
            mdl, ok, dt = self._train_variant(cfg, sub, train_pairs)
            if ok:
                self.train_samples.append((cfg.variant, 2 * self.STEPS, dt))
            if i == 0 and cfg.variant == "visir":
                self.reference = checkpoint_bytes(mdl, self.work / "sine0.vsck")
                self.reference_traced = self.switch.active
            psnrs = self.evaluate_each(mdl, train_pairs + test_pairs)
            test_psnr[cfg.variant] = float(np.mean(psnrs[len(train_pairs):]))
            if cfg.variant == "visir":
                self.last_sine = mdl

        ok, out, dt = rec.timed("fit_siren_inr", training.fit_siren_inr, test_pairs[0], hidden_dim=48,
                                hidden_layers=2, omega0=20.0, steps=self.STEPS,
                                learning_rate=self.LEARNING_RATE, seed=sub)
        if ok:
            self.train_samples.append(("coordinate net", self.STEPS, dt))
            recon = out[1]
            rec.check(recon.shape == test_pairs[0].hr.shape and bool(np.isfinite(recon).all())
                      and recon.min() >= 0.0 and recon.max() <= 1.0, "coordinate-net reconstruction in [0, 1]")

        split = {"train": self.sweep_pairs[:6], "test": self.sweep_pairs[6:]}
        with timing_calls(training, "train", self._record_sweep_cell):
            ok, result, dt = rec.timed("sweep", training.sweep, self.c6, split,
                                       self._train_cfg(sub, self.SWEEP_STEPS))
        if ok:
            grid = {(n, f) for n in training.DEFAULT_LAYER_COUNTS for f in training.DEFAULT_FREQUENCIES}
            rec.check(set(result.cells) == grid, "sweep has all 36 cells")
            rec.count(len(result.cells), [f"sweep cell {n}x{f}: {msg}" for n, f, msg in result.failures])
            self.sweep_rates.append(len(result.cells) / dt)
        if i < self.ROUNDS:
            self.sine_psnr.append(test_psnr["visir"])
            self.gains.append(test_psnr["visir"] - test_psnr["vit_mlp"])
            self.test_psnr = float(np.mean(self.sine_psnr))

    def finish(self) -> None:
        rec = self.rec
        train_pairs, _ = self.splits[0]
        sub = subseed(self.seed, "round", 0)
        with self.switch.opposite(self.reference_traced):
            mdl, ok, _ = self._train_variant(self.c5, sub, train_pairs)
        rec.check(ok and checkpoint_bytes(mdl, self.work / "repeat.vsck") == self.reference,
                  "repeating round 0 with the same seed gives a byte-identical checkpoint")
        check_round_trip(rec, self.last_sine, self.work / "final.vsck")

    def extras(self) -> dict[str, tuple[float, str]]:
        return {**super().extras(), "sweep_cells_per_s": (median(self.sweep_rates), "cells/s"),
                "sine_gain_db": (float(np.mean(self.gains)) if self.gains else math.nan, "dB")}


def read_vsgr(path: Path) -> tuple[tuple[int, int, int], np.ndarray]:
    """Shape and values of a VSGR grid, parsed independently of visir."""
    blob = path.read_bytes()
    if blob[:4] != b"VSGR":
        raise ValueError("bad grid magic")
    _, h, w, c, unit_len = struct.unpack("<IIIII", blob[4:24])
    values = np.frombuffer(blob, dtype="<f8", offset=24 + unit_len)
    return (h, w, c), values


def read_png_shape(path: Path) -> tuple[int, int, int]:
    blob = path.read_bytes()
    if blob[:8] != b"\x89PNG\r\n\x1a\n" or blob[12:16] != b"IHDR":
        raise ValueError("not a PNG file")
    w, h, _, color_type = struct.unpack(">IIBB", blob[16:26])
    return h, w, 1 if color_type == 0 else 3


class DataInfer(Workload):
    """`visir build-data`, `train`, `eval` and `reconstruct` through `cli.main`.

    Set-up builds one 720x1440 source (18 pairs) with `build-data`, trains
    the checkpoint with `train` (the CLI's batch 1) and writes the test LR
    tiles as row-filtered PNGs.  Each cycle runs `eval` over the test split
    and RECONSTRUCTS `reconstruct` calls, each on one LR PNG with its HR VSGR
    reference.  The loop has no tape and no Adam.
    """

    name = "data_infer"
    unit_span = "model.predict"
    TRAIN_STEPS, TRAIN_CALLS, LEARNING_RATE = 10, 3, 1e-4
    RECONSTRUCTS = 10
    HR_SHAPE = (240, 240, 3)

    def __init__(self, *args):
        super().__init__(*args)
        self.digests: dict[int, str] = {}
        self.filter_counts: dict[int, int] = {}

    def _cli(self, what: str, argv: list[str]) -> tuple[bool, float]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            ok, code, dt = self.rec.timed(what, cli.main, [str(a) for a in argv])
        if ok and code != 0:
            self.rec.fail(f"{what} exited {code}: {err.getvalue().strip()[-300:]}")
            ok = False
        return ok, dt

    def _train_argv(self, out: Path) -> list:
        return ["train", "--manifest", self.manifest_path, "--train.steps", self.TRAIN_STEPS,
                "--train.learning_rate", self.LEARNING_RATE, "--seed", self.seed, "--out", out]

    def setup(self) -> None:
        d = self._fresh_dir("data")
        ok, dt = self._cli("build-data", ["build-data", "--data.sources", 1, "--data.train_fraction", 0.5,
                                          "--seed", self.seed, "--out", d])
        if not ok:
            raise RuntimeError(f"build-data failed: {self.rec.errors[-1]}")
        self.manifest_path = d / "manifest.json"
        manifest = data.load_manifest(self.manifest_path)
        self.build_rates.append(len(manifest.entries) / dt)

        # The same training several times: more samples of the batch-1 rate,
        # and every repeat must give the same checkpoint bytes.
        for t in range(self.TRAIN_CALLS):
            ok, dt = self._cli("train", self._train_argv(d / f"model{t}"))
            if not ok:
                raise RuntimeError(f"train failed: {self.rec.errors[-1]}")
            self.train_samples.append(("train", self.TRAIN_STEPS, dt))  # batch 1: one image per step
            self.checkpoint = d / f"model{t}" / "model.vsck"
            if t == 0:
                self.reference = self.checkpoint.read_bytes()
                self.reference_traced = self.switch.active
            else:
                self.rec.check(self.checkpoint.read_bytes() == self.reference,
                               "repeated train with the same seed gives a byte-identical checkpoint")

        self.inputs = []
        for e in manifest.split("test"):
            lr, _ = data.read_grid(d / e.lr_path)
            pixels = quantize(lr)
            png = d / f"{e.pair_id}_lr.png"
            for t in write_filtered_png(png, pixels):
                self.filter_counts[t] = self.filter_counts.get(t, 0) + 1
            self.rec.check(np.array_equal(data.read_png(png), pixels.astype(np.float64) / 255.0),
                           f"decoded {png.name} equals its quantised source")
            self.inputs.append((png, d / e.hr_path))
        self.test_count = len(self.inputs)

    def cycle(self, i: int) -> None:
        rec = self.rec
        eval_dir = self.work / "eval"
        ok, dt = self._cli("eval", ["eval", "--manifest", self.manifest_path, "--checkpoint", self.checkpoint,
                                    "--split", "test", "--out", eval_dir])
        if ok:
            self.eval_samples.append(("eval", self.test_count, dt))
            rows = (eval_dir / "eval.csv").read_text().strip().split("\n")[1:]
            rec.check(len(rows) == self.test_count, "eval.csv has one row per test image")
            if i == 0:
                self.test_psnr = float(np.mean([float(r.split(",")[2]) for r in rows]))

        rec_dir = self.work / "rec"
        for j in range(self.RECONSTRUCTS):
            k = (i * self.RECONSTRUCTS + j) % self.test_count
            png, hr = self.inputs[k]
            ok, dt = self._cli("reconstruct", ["reconstruct", "--checkpoint", self.checkpoint, "--input", png,
                                               "--hr", hr, "--out", rec_dir])
            if ok:
                self.latencies_ms.append(dt * 1e3)
                self._check_reconstruction(rec_dir, k)

    def _check_reconstruction(self, rec_dir: Path, k: int) -> None:
        rec = self.rec
        try:
            shape, values = read_vsgr(rec_dir / "reconstruction.vsgr")
            png_shape = read_png_shape(rec_dir / "reconstruction.png")
            err_shape = read_png_shape(rec_dir / "error.png")
        except (OSError, ValueError, struct.error) as exc:
            rec.check(False, f"reconstruct outputs readable: {exc}")
            return
        rec.check(shape == self.HR_SHAPE and png_shape == self.HR_SHAPE and err_shape == self.HR_SHAPE
                  and values.size == math.prod(self.HR_SHAPE) and bool(np.isfinite(values).all()),
                  "reconstruct writes 240x240x3 PNG, error map and VSGR")
        digest = hashlib.sha256((rec_dir / "reconstruction.vsgr").read_bytes()).hexdigest()
        rec.check(self.digests.setdefault(k, digest) == digest,
                  "repeated reconstruct of one input is byte-identical")

    def finish(self) -> None:
        rec = self.rec
        repeat = self._fresh_dir("repeat")
        with self.switch.opposite(self.reference_traced):
            ok, _ = self._cli("train (repeat)", self._train_argv(repeat))
        rec.check(ok and (repeat / "model.vsck").read_bytes() == self.reference,
                  "repeating train with the same seed gives a byte-identical checkpoint")
        check_round_trip(rec, training.load_checkpoint(self.checkpoint), self.work / "final.vsck")
        rec.check(set(self.filter_counts) <= {1, 2, 3, 4} and sum(self.filter_counts.values()) > 0,
                  "LR PNG rows use filters 1-4 only")

    def extras(self) -> dict[str, tuple[float, str]]:
        return {**super().extras(), "build_data_pairs_per_s": (median(self.build_rates), "pairs/s")}


WORKLOADS = {w.name: w for w in (TrainCli, ExperimentSmall, DataInfer)}
