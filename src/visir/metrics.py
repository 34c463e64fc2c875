"""Image-quality measures for unit-interval images: MSE, PSNR and global SSIM.

All three are pure functions of (original, reconstruction) pixel arrays and
are safe for unrestricted parallel use.  The peak value is 1 (SRPair keeps
every image in [0, 1]).  PSNR of a perfect reconstruction is the +inf
sentinel, never an exception; SSIM uses whole-image statistics (no sliding
window) and is averaged over channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricsReport",
    "mse",
    "psnr",
    "psnr_from_mse",
    "ssim",
    "evaluate_pair",
]


# SSIM stabilization constants, the usual (k1 * MAX)^2 and (k2 * MAX)^2 with MAX = 1.
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


@dataclass(frozen=True)
class MetricsReport:
    mse: float
    psnr: float
    ssim: float


def _check_shapes(i_o: np.ndarray, i_r: np.ndarray) -> None:
    if i_o.shape != i_r.shape:
        raise ValueError(f"image shapes differ: {i_o.shape} vs {i_r.shape}")


def mse(i_o, i_r) -> float:
    """Mean squared pixel difference over all pixels in all channels.

    A zero result does not imply identical images.  In float64 a difference
    below about 1e-162 squares to zero, and a slightly larger one can still
    vanish in the mean, so mse == 0 (and therefore psnr == inf) holds for
    images that differ only by such amounts.
    """
    a = np.asarray(i_o, dtype=np.float64)
    b = np.asarray(i_r, dtype=np.float64)
    _check_shapes(a, b)
    d = np.subtract(a, b, out=np.empty(a.shape))  # an array even for 0-d images, as out= needs
    return float(np.multiply(d, d, out=d).mean())  # squared in place: the bits of (d * d).mean()


def psnr_from_mse(err: float) -> float:
    """10*log10(1 / MSE) in dB; +inf when the error is zero."""
    if err < 0:
        raise ValueError("mse cannot be negative")
    if err == 0.0:
        return math.inf
    return 0.0 - 10.0 * math.log10(err)  # 0.0 - x: an MSE of 1 gives +0.0, not -0.0


def psnr(i_o, i_r) -> float:
    return psnr_from_mse(mse(i_o, i_r))


def ssim(i_o, i_r) -> float:
    """Luminance/contrast/structure similarity from whole-image statistics.

    Per channel: (2*mu_o*mu_r + C1)(2*cov + C2) /
                 ((mu_o^2 + mu_r^2 + C1)(var_o + var_r + C2)),
    then the channel values are averaged.  Result lies in [-1, 1].
    """
    a = np.asarray(i_o, dtype=np.float64)
    b = np.asarray(i_r, dtype=np.float64)
    _check_shapes(a, b)
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    values = []
    for c in range(a.shape[2]):
        x = a[:, :, c].ravel()
        y = b[:, :, c].ravel()
        mu_x = x.mean()
        mu_y = y.mean()
        var_x = ((x - mu_x) ** 2).mean()
        var_y = ((y - mu_y) ** 2).mean()
        cov = ((x - mu_x) * (y - mu_y)).mean()
        num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * cov + SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
        values.append(num / den)
    return float(np.mean(values))


def evaluate_pair(i_o, i_r) -> MetricsReport:
    """Bundle the three measures for one (original, reconstruction) pair."""
    e = mse(i_o, i_r)
    return MetricsReport(mse=e, psnr=psnr_from_mse(e), ssim=ssim(i_o, i_r))
