"""8-bit PNG encoder with per-row adaptive filtering (stdlib zlib + struct).

visir's own ``write_png`` stores every row unfiltered, so reading its files
never runs the Sub/Up/Average/Paeth branches of ``read_png``.  Images written
by libpng pick a filter per row; this encoder does the same with libpng's
heuristic (smallest sum of absolute signed residuals), restricted to the
four predicting filters 1-4, so the benchmark's LR inputs exercise
``read_png`` the way external images do.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

FILTERS = (1, 2, 3, 4)  # Sub, Up, Average, Paeth


def quantize(img: np.ndarray) -> np.ndarray:
    """Unit-interval image to uint8 exactly as visir's ``write_png`` rounds."""
    return np.clip(np.floor(np.asarray(img, dtype=np.float64) * 255.0 + 0.5), 0, 255).astype(np.uint8)


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)


def filtered_rows(pixels: np.ndarray) -> tuple[bytes, list[int]]:
    """Filter-type byte plus filtered row for every row; also the chosen types."""
    h, w, c = pixels.shape
    raw = pixels.reshape(h, w * c).astype(np.int16)
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    left = np.zeros_like(raw)
    left[:, c:] = raw[:, :-c]
    upleft = np.zeros_like(raw)
    upleft[1:, c:] = raw[:-1, :-c]
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    residuals = np.stack([raw - left, raw - up, raw - (left + up) // 2, raw - paeth]) & 0xFF
    cost = np.minimum(residuals, 256 - residuals).sum(axis=2)
    choice = cost.argmin(axis=0)
    out = bytearray()
    for row, k in enumerate(choice):
        out.append(FILTERS[k])
        out += residuals[k, row].astype(np.uint8).tobytes()
    return bytes(out), [FILTERS[k] for k in choice]


def write_filtered_png(path, pixels: np.ndarray) -> list[int]:
    """Write uint8 HxWx1 or HxWx3 pixels; returns the filter type of each row."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] not in (1, 3):
        raise ValueError(f"need uint8 HxWx1 or HxWx3 pixels, got {pixels.dtype} {pixels.shape}")
    h, w, c = pixels.shape
    data, types = filtered_rows(pixels)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if c == 1 else 2, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(_chunk(b"IHDR", ihdr))
        fh.write(_chunk(b"IDAT", zlib.compress(data, 6)))
        fh.write(_chunk(b"IEND", b""))
    return types
