#!/usr/bin/env python3
"""Sine-vs-MLP comparison on tiles with controlled high-frequency content.

Builds a synthetic field whose tiles carry sinusoids far above the LR Nyquist
rate, trains the sine-activated model and the equal-parameter MLP baseline
under the same budget on every seed, fits the per-image coordinate network on
the test tiles, and reports mean test PSNR per method.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

try:
    import visir  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from visir.data import SpectrumSpec, SRPair, bicubic_downsample, normalize_field, synth_field, tile_image
from visir.metrics import psnr
from visir.model import ModelConfig, as_mlp_baseline, init_parameters
from visir.training import TrainConfig, evaluate, fit_siren_inr, train

COMPONENTS = ((1.0, 2.0, 0.35), (0.7, 5.0, 1.1), (0.6, 56.0, 0.0), (0.45, 72.0, 1.57))


def build_split(seed: int, scale: int = 4):
    """12 tiles of a 192x256 field whose HR content has 14- and 18-cycle sinusoids
    per tile: unrepresentable at LR (Nyquist 8), alias-visible.  9 train, 3 test."""
    field = synth_field(seed, 192, 256, SpectrumSpec(components=COMPONENTS))
    norm, _ = normalize_field(field)
    tiles = tile_image(norm[:, :, None], 64, 64)
    pairs = [SRPair(hr=t, lr=bicubic_downsample(t, scale), scale=scale, tile_index=i)
             for i, t in enumerate(tiles)]
    return pairs[:9], pairs[9:]


def model_config(omega0: float = 20.0, hidden_layers: int = 2) -> ModelConfig:
    """The sine variant; as_mlp_baseline gives the MLP baseline at the same parameter count."""
    return ModelConfig(patch_size=4, num_layers=1, num_heads=2, embed_dim=32,
                       lr_height=16, lr_width=16, omega0=omega0,
                       siren_hidden_layers=hidden_layers, siren_hidden_dim=32,
                       scale=4, channels=1)


def run(seeds: int = 5, steps: int = 800, learning_rate: float = 1e-3, omega0: float = 20.0,
        hidden_layers: int = 2) -> list[tuple[int, float, float, float]]:
    """(seed, sine, mlp, coord-net) mean test PSNR in dB per seed, printed as each seed ends."""
    cfg = model_config(omega0, hidden_layers)
    rows = []
    for seed in range(seeds):
        train_pairs, test_pairs = build_split(seed)
        scores = {}
        for variant_cfg, tag in ((cfg, "sine"), (as_mlp_baseline(cfg), "mlp")):
            model = init_parameters(variant_cfg, seed=seed)
            train(model, train_pairs,
                  TrainConfig(learning_rate=learning_rate, steps=steps, batch_size=2, seed=seed))
            _, summary = evaluate(model, test_pairs)
            scores[tag] = summary.psnr.mean
        inr = [psnr(p.hr, fit_siren_inr(p, hidden_dim=48, hidden_layers=hidden_layers,
                                        omega0=omega0, steps=steps,
                                        learning_rate=learning_rate, seed=seed)[1])
               for p in test_pairs]
        scores["coord_net"] = float(np.mean(inr))
        rows.append((seed, scores["sine"], scores["mlp"], scores["coord_net"]))
        print(f"seed {seed}: sine {scores['sine']:6.2f} dB | mlp {scores['mlp']:6.2f} dB | "
              f"coord-net {scores['coord_net']:6.2f} dB")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--steps", type=int, default=800)
    parser.add_argument("--learning-rate", type=float, default=1e-3)
    parser.add_argument("--omega0", type=float, default=20.0)
    parser.add_argument("--hidden-layers", type=int, default=2)
    parser.add_argument("--out", type=str, default="out/spectral_bias.csv")
    args = parser.parse_args()

    rows = run(args.seeds, args.steps, args.learning_rate, args.omega0, args.hidden_layers)
    means = np.mean([[r[1], r[2], r[3]] for r in rows], axis=0)
    wins = sum(r[1] > r[2] for r in rows)
    print(f"\nmean over {args.seeds} seeds: sine {means[0]:.2f} | mlp {means[1]:.2f} | coord-net {means[2]:.2f}")
    print(f"sine > mlp on {wins}/{args.seeds} seeds")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["seed,sine_psnr,mlp_psnr,coord_net_psnr"]
    lines += [f"{s},{a!r},{b!r},{c!r}" for s, a, b, c in rows]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
