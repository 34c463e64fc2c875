#!/usr/bin/env python3
"""Frequency x hidden-layer grid search at a configurable desk-scale budget.

Trains one model per (omega0, hidden layers) cell on a synthetic tile set
and writes the mean-test-PSNR grid as CSV, reporting the argmax cell.
"""

import argparse
import sys
from pathlib import Path

try:
    import visir  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from visir.data import SpectrumSpec, SRPair, bicubic_downsample, normalize_field, synth_field
from visir.model import ModelConfig
from visir.training import (DEFAULT_FREQUENCIES, DEFAULT_LAYER_COUNTS, SweepResult, TrainConfig, sweep,
                            write_sweep_csv)


def make_pairs(n: int, lr_size: int, scale: int):
    pairs = []
    spec = SpectrumSpec(components=((0.8, 1.5, 0.37), (0.4, 3.0, 0.74), (0.27, 6.0, 1.11)))
    for seed in range(n):
        field = synth_field(seed, lr_size * scale, lr_size * scale, spec)
        hr01, _ = normalize_field(field)
        hr = hr01[:, :, None]
        pairs.append(SRPair(hr=hr, lr=bicubic_downsample(hr, scale), scale=scale, tile_index=seed))
    return pairs


def run(steps: int = 200, learning_rate: float = 1e-3, n_pairs: int = 8,
        frequencies=DEFAULT_FREQUENCIES, layer_counts=DEFAULT_LAYER_COUNTS) -> SweepResult:
    """The sweep on 8x8 -> 16x16 pairs, the first three quarters for training."""
    pairs = make_pairs(n_pairs, lr_size=8, scale=2)
    split = {"train": pairs[: 3 * len(pairs) // 4], "test": pairs[3 * len(pairs) // 4:]}
    base = ModelConfig(patch_size=2, num_layers=1, num_heads=2, embed_dim=16,
                       lr_height=8, lr_width=8, omega0=20.0, siren_hidden_layers=2,
                       siren_hidden_dim=16, scale=2, channels=1)
    budget = TrainConfig(learning_rate=learning_rate, steps=steps, batch_size=2, seed=0)
    return sweep(base, split, budget, frequencies, layer_counts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--learning-rate", type=float, default=1e-3)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--frequencies", type=str, default=",".join(f"{f:g}" for f in DEFAULT_FREQUENCIES))
    parser.add_argument("--layers", type=str, default=",".join(map(str, DEFAULT_LAYER_COUNTS)))
    parser.add_argument("--out", type=str, default="out/sweep.csv")
    args = parser.parse_args()

    frequencies = tuple(float(f) for f in args.frequencies.split(","))
    layer_counts = tuple(int(c) for c in args.layers.split(","))
    result = run(args.steps, args.learning_rate, args.pairs, frequencies, layer_counts)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(result, out)
    for layers, freq, message in result.failures:
        print(f"cell (layers={layers}, omega0={freq}) failed: {message}")
    (layers, freq), value = result.best()
    print(f"best cell: hidden_layers={layers}, omega0={freq} at {value:.2f} dB mean test PSNR")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
