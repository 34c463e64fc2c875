"""Dataset construction: synthetic physical fields, RGB stacking, tiling,
bicubic 4x reduction, and on-disk pair/manifest formats.

The real climate-model archive is not distributed, so sources here are
synthetic fields with controllable frequency content.  Everything downstream
(normalize to unit interval, stack three fields as RGB, split into
non-overlapping tiles, bicubic-downsample each tile) follows the same
bookkeeping as the original 720x1440 -> 18 x 240x240 -> 60x60 pipe.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "SpectrumSpec",
    "SRPair",
    "DataConfig",
    "DatasetManifest",
    "ManifestEntry",
    "CHANNEL_NAMES",
    "synth_field",
    "normalize_field",
    "tile_image",
    "bicubic_downsample",
    "build_dataset",
    "load_manifest",
    "load_pairs",
    "write_grid",
    "read_grid",
    "write_png",
    "read_png",
]

CHANNEL_NAMES = ("surface_temperature", "shortwave_heat_flux", "longwave_heat_flux")

GRID_MAGIC = b"VSGR"
GRID_VERSION = 1


@dataclass(frozen=True)
class SpectrumSpec:
    """Frequency content of a synthetic field.

    components: (amplitude, cycles across the unit square, orientation in
    radians) triples; each becomes one plane sinusoid with a seed-driven
    phase.  background_amplitude adds a smooth random low-frequency field
    built from integer modes up to background_max_cycles.
    """

    components: tuple[tuple[float, float, float], ...] = ()
    background_amplitude: float = 0.0
    background_max_cycles: int = 2

    def __post_init__(self):
        for term in self.components:
            if not all(math.isfinite(v) for v in term):
                raise ValueError(f"components must be finite, got {term}")
        if not math.isfinite(self.background_amplitude):
            raise ValueError(f"background_amplitude must be finite, got {self.background_amplitude}")
        if self.background_max_cycles < 0:
            raise ValueError(f"background_max_cycles must be >= 0, got {self.background_max_cycles}")
        # A term with zero amplitude or zero cycles, or a background with no mode, adds a constant at most.
        if not (any(amp != 0.0 and cycles != 0.0 for amp, cycles, _ in self.components)
                or (self.background_amplitude != 0.0 and self.background_max_cycles >= 1)):
            raise ValueError("empty spectrum: components needs a term with nonzero amplitude and cycles, "
                             "or background_amplitude must be nonzero with background_max_cycles >= 1")


@dataclass(frozen=True)
class SRPair:
    """Aligned (HR, LR) images related by an integer scale factor."""

    hr: np.ndarray
    lr: np.ndarray
    scale: int
    tile_index: int = 0

    def __post_init__(self):
        hr = np.asarray(self.hr, dtype=np.float64)
        lr = np.asarray(self.lr, dtype=np.float64)
        s = self.scale
        if hr.ndim != 3 or lr.ndim != 3:
            raise ValueError("SRPair images must be HxWxC")
        if hr.shape[0] != lr.shape[0] * s or hr.shape[1] != lr.shape[1] * s or hr.shape[2] != lr.shape[2]:
            raise ValueError(f"hr {hr.shape} is not {s}x the lr {lr.shape}")
        for name, img in (("hr", hr), ("lr", lr)):
            if not (img.min() >= 0.0 and img.max() <= 1.0):  # NaN fails this too
                raise ValueError(f"{name} image leaves the unit interval")
        object.__setattr__(self, "hr", hr)
        object.__setattr__(self, "lr", lr)


# ---------------------------------------------------------------------------
# Synthetic source fields
# ---------------------------------------------------------------------------

# Values per row block of the output: the scratch block (512 KB) stays in cache,
# and a grid of up to this many values is one block.
_BLOCK_VALUES = 1 << 16


def synth_field(seed: int, h: int, w: int, spec: SpectrumSpec) -> np.ndarray:
    """Deterministic h x w sum of 2-d sinusoids plus an optional smooth background.

    Each term is amp * wave(a + b), with a = fx * x a row of w values and
    b = fy * y + phase a column of h values.  The angle-addition identities
    sin(a + b) = sin a cos b + cos a sin b and cos(a + b) = cos a cos b - sin a sin b
    make a term two products of a row and a column (amp goes into the column),
    so sine and cosine run on h + w values, not on h * w.  A product whose
    column or row is constant folds into one row sum or one column sum;
    products with the same row (the background modes of one kx) fold into one
    by summing their columns.  The output is the column sum plus the row sum,
    then each remaining product added in turn, a block of rows at a time, so
    any range of rows can be made alone with the same bits (build_dataset
    makes a band of rows at a time).  Rounding a and b apart keeps each
    smaller than the whole argument, so the values are closer to exact than
    sin of the rounded sum.  Every value comes from elementwise ufuncs, never
    from a BLAS product, so its bits do not depend on the CPU's kernel choice;
    build_dataset's one BLAS product only picks the rows in which it looks for
    a field's exact min and max.
    """
    out = np.empty((h, w))  # first: a size that cannot be held fails before anything else is made
    plan = _synth_plan(seed, h, w, spec)
    _synth_rows(plan, slice(None), out)
    if not np.isfinite(out).all():
        raise ValueError(_NON_FINITE)
    return out


_NON_FINITE = "synthetic field contains non-finite values: check the spectrum"


def _synth_plan(seed: int, h: int, w: int, spec: SpectrumSpec) -> tuple[np.ndarray, np.ndarray]:
    """(columns, rows) of synth_field's field, a (k, h) and a (k, w) array whose products
    columns[q][:, None] * rows[q] sum to it: columns[0] is the column sum against rows[0]
    of ones, rows[1] the row sum against columns[1] of ones, and the rest the folded
    products, in the order they are added."""
    products = 2 * len(spec.components)
    if spec.background_amplitude != 0.0:
        products += 2 * (spec.background_max_cycles + 1)  # a row per kx for sine and for cosine
    # First: a height that cannot be held fails before anything is drawn.
    columns, rows = np.empty((products + 2, h)), np.empty((products + 2, w))
    columns[0], columns[1], rows[0], rows[1] = 0.0, 1.0, 1.0, 0.0
    col_sum, row_sum = columns[0], rows[1]
    rng = np.random.default_rng(seed)
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    terms = []  # (fx, fy, phase, wave, amplitude) in draw order
    for amp, cycles, theta in spec.components:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        k = 2.0 * np.pi * cycles  # amp * sin(k (cos(theta) x + sin(theta) y) + phase)
        terms.append((k * np.cos(theta), k * np.sin(theta), phase, np.sin, amp))
    if spec.background_amplitude != 0.0:
        for ky in range(spec.background_max_cycles + 1):
            for kx in range(spec.background_max_cycles + 1):
                if kx == 0 and ky == 0:
                    continue
                coeff = rng.normal(0.0, 1.0) / (1.0 + kx * kx + ky * ky)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                # amplitude * coeff * cos(2 pi (kx x + ky y) + phase)
                terms.append((2.0 * np.pi * kx, 2.0 * np.pi * ky, phase, np.cos, spec.background_amplitude * coeff))
    shared = {}  # row bytes -> its product's index
    for fx, fy, phase, wave, amp in terms:
        a, b = fx * xs, fy * ys + phase
        sin_a, cos_a, sin_b, cos_b = np.sin(a), np.cos(a), amp * np.sin(b), amp * np.cos(b)
        for row, col in ((sin_a, cos_b), (cos_a, sin_b)) if wave is np.sin else ((cos_a, cos_b), (sin_a, -sin_b)):
            if (col == col[0]).all():
                row_sum += col[0] * row
            elif (row == row[0]).all():
                col_sum += row[0] * col
            elif (i := shared.get(row.tobytes())) is not None:
                columns[i] += col
            else:
                i = shared[row.tobytes()] = 2 + len(shared)
                columns[i], rows[i] = col, row
    return columns[:2 + len(shared)], rows[:2 + len(shared)]


def _synth_rows(plan: tuple[np.ndarray, np.ndarray], index, out: np.ndarray) -> np.ndarray:
    """The rows `index` (a slice or an array of row numbers) of the field of `plan`,
    written into `out`: the bits synth_field gives those rows."""
    columns, rows = plan[0][:, index], plan[1]
    step = max(1, _BLOCK_VALUES // out.shape[1])
    scratch = np.empty((min(step, len(out)), out.shape[1]))
    for r in range(0, len(out), step):
        block = out[r:r + step]
        np.add(columns[0, r:r + step, None], rows[1], out=block)
        for col, row in zip(columns[2:], rows[2:]):
            block += np.multiply(col[r:r + step, None], row, out=scratch[:len(block)])
    return out


def _synth_range(plan: tuple[np.ndarray, np.ndarray], scratch: np.ndarray) -> tuple[float, float]:
    """The (min, max) of the field of `plan`, with the bits synth_field(...).min() and .max()
    give, without the field: `scratch`, a (band, w) array, holds a band of rows at a time.

    One BLAS product per band, columns.T @ rows, gives every value within
    E = 2 gamma_k M of the exact one, whatever order it sums in: k terms,
    gamma_k = k u / (1 - k u), and M bounds a value's sum of term magnitudes.
    So the row that holds the exact min has an approximate min within 2E of
    the field's approximate min (and so for the max), and only the rows within
    `tol`, 4x that, are made again exactly; their min and max are the field's.
    When M is not far below overflow every row is made exactly, and a
    non-finite value is the ValueError synth_field raises."""
    columns, rows = plan
    k, h = columns.shape
    size = np.inf
    if np.isfinite(columns).all() and np.isfinite(rows).all():
        size = float((np.abs(rows).max(axis=1) @ np.abs(columns)).max())
    if size < 2.0 ** 1000:
        gamma = k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
        tol = 16.0 * gamma * size + k * 2.0 ** -1070  # 4 x 2E, and what underflow can add
        lows, highs = np.empty(h), np.empty(h)
        for r in range(0, h, len(scratch)):
            approx = np.matmul(columns[:, r:r + len(scratch)].T, rows, out=scratch[:min(len(scratch), h - r)])
            approx.min(axis=1, out=lows[r:r + len(approx)])
            approx.max(axis=1, out=highs[r:r + len(approx)])
        wanted = np.flatnonzero((lows <= lows.min() + tol) | (highs >= highs.max() - tol))
    else:
        wanted = np.arange(h)
    lo, hi = np.inf, -np.inf
    for r in range(0, len(wanted), len(scratch)):
        index = wanted[r:r + len(scratch)]
        values = _synth_rows(plan, index, scratch[:len(index)])
        if not np.isfinite(values).all():
            raise ValueError(_NON_FINITE)
        lo, hi = min(lo, values.min()), max(hi, values.max())
    return float(lo), float(hi)


def _span(lo: float, hi: float) -> float:
    """hi - lo, the divisor that maps [lo, hi] onto [0, 1]; a ValueError when it is not positive."""
    if hi <= lo:
        raise ValueError(f"degenerate field range [{lo}, {hi}]: cannot normalize a constant field")
    return hi - lo


def normalize_field(f: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """Affine map to [0, 1]; returns the channel, a new array, and the (min, max) range."""
    v = np.asarray(f, dtype=np.float64)
    lo = float(v.min())
    hi = float(v.max())
    span = _span(lo, hi)
    out = v - lo
    out /= span
    return out, (lo, hi)


# ---------------------------------------------------------------------------
# Tiling
# ---------------------------------------------------------------------------

def tile_image(img: np.ndarray, tile_h: int, tile_w: int) -> list[np.ndarray]:
    """Row-major non-overlapping tiles, as views of img; reassembly reproduces img bit-exactly."""
    img = np.asarray(img)
    h, w = img.shape[0], img.shape[1]
    if h % tile_h != 0 or w % tile_w != 0:
        raise ValueError(f"tile {tile_h}x{tile_w} does not divide image {h}x{w}")
    return [img[i * tile_h:(i + 1) * tile_h, j * tile_w:(j + 1) * tile_w]
            for i in range(h // tile_h) for j in range(w // tile_w)]


# ---------------------------------------------------------------------------
# Bicubic (Catmull-Rom) reduction
# ---------------------------------------------------------------------------

def _downsample_axis(arr: np.ndarray, s: int, axis: int) -> np.ndarray:
    n = arr.shape[axis]
    # Output sample j sits at input (j + 1/2)s - 1/2: midway between two pixels if s is even, on one if odd.
    w0, _, w2, w3 = (-0.0625, 0.5625, 0.5625, -0.0625) if s % 2 == 0 else (0.0, 1.0, 0.0, 0.0)
    base = np.arange(n // s) * s + (s - 1) // 2
    moved = np.moveaxis(arr, axis, 0)
    s0, s1, s2, s3 = (moved[np.clip(base + d, 0, n - 1)] for d in (-1, 0, 1, 2))
    # Anchored form of sum(w_k * v_k): the weights sum to one, so evaluating
    # around the floor sample keeps constant inputs bit-exact.
    out = s1 + w0 * (s0 - s1) + w2 * (s2 - s1) + w3 * (s3 - s1)
    return np.moveaxis(out, 0, axis)


def bicubic_downsample(img: np.ndarray, s: int) -> np.ndarray:
    """Catmull-Rom (a=-0.5) reduction by an integer factor, edge-clamped,
    sampled at output pixel centers, clamped back to [0, 1]."""
    img = np.asarray(img, dtype=np.float64)
    if s < 1:
        raise ValueError(f"scale must be >= 1, got {s}")
    if img.shape[0] % s != 0 or img.shape[1] % s != 0:
        raise ValueError(f"scale {s} does not divide image {img.shape[0]}x{img.shape[1]}")
    out = _downsample_axis(img, s, axis=0)
    out = _downsample_axis(out, s, axis=1)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Raw grid files ("VSGR")
# ---------------------------------------------------------------------------

def write_grid(path, values: np.ndarray) -> None:
    """Raw grid file: magic, version, h, w, c, unit string (written empty), f64-LE row-major."""
    v = np.asarray(values)
    if v.ndim == 2:
        v = v[:, :, None]
    if v.ndim != 3:
        raise ValueError(f"grid must be 2-d or 3-d, got shape {v.shape}")
    v = np.ascontiguousarray(v, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<IIIII", GRID_VERSION, v.shape[0], v.shape[1], v.shape[2], 0))
        fh.write(v)


def _grid_header(fh) -> tuple[int, int, int, int]:
    """(h, w, c, unit string length) of the grid file open at `fh`, read from its header
    and checked against the file's size; `fh` is left at the unit string."""
    magic = fh.read(4)
    if magic != GRID_MAGIC:
        raise ValueError(f"bad grid magic {magic!r}")
    header = fh.read(20)
    if len(header) != 20:
        raise ValueError("truncated grid header")
    version, h, w, c, unit_len = struct.unpack("<IIIII", header)
    if version != GRID_VERSION:
        raise ValueError(f"unsupported grid version {version}")
    left = os.fstat(fh.fileno()).st_size - fh.tell() - unit_len - 8 * h * w * c
    if left < 0:
        raise ValueError("truncated grid payload")
    if left > 0:
        raise ValueError("trailing bytes after grid payload")
    return h, w, c, unit_len


def read_grid(path) -> tuple[np.ndarray, str]:
    with open(path, "rb") as fh:
        # The header's sizes are checked against the file before anything is allocated.
        h, w, c, unit_len = _grid_header(fh)
        units = fh.read(unit_len).decode("utf-8")
        values = np.empty((h, w, c), dtype="<f8")
        if fh.readinto(values) != values.nbytes:
            raise ValueError("truncated grid payload")
    if not np.isfinite(values).all():
        raise ValueError("grid contains non-finite values")
    return values.astype(np.float64, copy=False), units


# ---------------------------------------------------------------------------
# PNG export / import (8-bit, for inspection images)
# ---------------------------------------------------------------------------

def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + tag + payload + \
        struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)


def write_png(path, img: np.ndarray) -> None:
    """8-bit grayscale or RGB PNG; values x255, rounded half-up.  Every row is
    stored with filter type 1 (Sub) and deflated with zlib's run-length strategy."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.ndim == 2:
        color_type, channels = 0, 1
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ValueError(f"cannot export image of shape {arr.shape} as PNG")
    h, w = arr.shape[0], arr.shape[1]
    scaled = arr * 255.0
    scaled += 0.5
    np.floor(scaled, out=scaled)
    quant = np.clip(scaled, 0, 255, out=scaled).astype(np.uint8).reshape(h, w * channels)
    rows = np.empty((h, 1 + w * channels), dtype=np.uint8)
    rows[:, 0] = 1
    rows[:, 1:1 + channels] = quant[:, :channels]
    np.subtract(quant[:, channels:], quant[:, :-channels], out=rows[:, 1 + channels:])  # wraps mod 256
    deflate = zlib.compressobj(9, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(_png_chunk(b"IHDR", ihdr))
        fh.write(_png_chunk(b"IDAT", deflate.compress(rows) + deflate.flush()))
        fh.write(_png_chunk(b"IEND", b""))


def _unfilter_average(cur: list, prev: list, channels: int) -> None:
    for i in range(channels, len(cur)):
        cur[i] = (cur[i] + ((cur[i - channels] + prev[i]) >> 1)) & 0xFF


def _unfilter_paeth(cur: list, prev: list, channels: int) -> None:
    for i in range(channels, len(cur)):
        left, up, ul = cur[i - channels], prev[i], prev[i - channels]
        # |p - left|, |p - up| and |p - ul| for p = left + up - ul, each sign taken by a branch
        pa, pb = up - ul, left - ul
        pc = pa + pb
        pa = pa if pa >= 0 else -pa
        pb = pb if pb >= 0 else -pb
        pc = pc if pc >= 0 else -pc
        cur[i] = (cur[i] + (left if pa <= pb and pa <= pc else up if pb <= pc else ul)) & 0xFF


# Bytes of PNG image data inflated at a time: a PNG that is only checked holds no more.
_INFLATE_BLOCK = 1 << 16


def _png_data(path, shape: tuple | None) -> tuple[int, int, int, bytearray | None]:
    """(height, width, channels, inflated image data) of an 8-bit gray/RGB PNG.

    Every chunk's length and CRC-32 are checked.  The image data is inflated a
    block at a time and checked to be the height x (width x channels + 1) bytes
    that IHDR declares, each row led by a filter type of 0-4.  When `shape` is
    given and IHDR declares another (height, width, channels), each block is
    dropped once checked and the data returned is None."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG file")
    pos = 8
    idat = bytearray()
    width = height = channels = None
    try:
        while pos < len(blob):
            length, = struct.unpack(">I", blob[pos:pos + 4])
            if pos + 12 + length > len(blob):
                raise ValueError(f"malformed PNG: chunk at byte {pos} runs past the end of the file")
            tag = blob[pos + 4:pos + 8]
            payload = blob[pos + 8:pos + 8 + length]
            crc, = struct.unpack(">I", blob[pos + 8 + length:pos + 12 + length])
            if zlib.crc32(tag + payload) != crc:
                raise ValueError(f"malformed PNG: CRC mismatch in chunk {tag!r}")
            pos += 12 + length
            if tag == b"IHDR":
                width, height, depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", payload)
                if depth != 8 or color_type not in (0, 2) or comp != 0 or filt != 0 or interlace != 0:
                    raise ValueError("unsupported PNG flavor (need 8-bit gray/RGB, non-interlaced)")
                channels = 1 if color_type == 0 else 3
            elif tag == b"IDAT":
                idat.extend(payload)
            elif tag == b"IEND":
                break
        if width is None:
            raise ValueError("PNG missing IHDR")
        row = width * channels + 1
        need = height * row
        keep = shape is None or tuple(shape) == (height, width, channels)
        data = bytearray()
        size = top = 0  # bytes inflated so far, largest filter type seen
        inflate = zlib.decompressobj()
        block = inflate.decompress(idat, _INFLATE_BLOCK)
        while block and size <= need:  # one byte more than declared shows an excess
            top = max(top, max(block[-size % row::row], default=0))
            size += len(block)
            if keep:
                data += block
            block = inflate.decompress(inflate.unconsumed_tail, _INFLATE_BLOCK)
    except (struct.error, zlib.error) as exc:
        raise ValueError(f"malformed PNG: {exc}") from exc
    if size != need or not inflate.eof:  # more bytes, fewer, or a stream cut short
        raise ValueError(f"PNG image data does not inflate to the {need} bytes {width}x{height} needs")
    if top > 4:
        raise ValueError(f"bad PNG filter type {top}")
    return height, width, channels, data if keep else None


def read_png(path, shape: tuple | None = None) -> np.ndarray:
    """Read an 8-bit grayscale/RGB PNG back to a float HxWxC array in [0, 1].

    Every chunk's length and CRC-32 are checked, and the image data is inflated
    to at most a block more than its IHDR declares.  The file is read once.
    With `shape`, a PNG whose IHDR declares another (height, width, channels)
    has its image data checked but not kept, and comes back as a read-only
    array of zeros of the declared shape that holds no memory: a caller
    compares shapes without holding a large image's pixels."""
    height, width, channels, data = _png_data(path, shape)
    if data is None:
        return np.broadcast_to(0.0, (height, width, channels))
    stride = width * channels
    rows = np.frombuffer(data, dtype=np.uint8).reshape(height, stride + 1)
    # uint8 arithmetic wraps mod 256, which is PNG's rule for every filter.  A run
    # of rows with one filter type is decoded at once where the type allows it.
    out = np.empty((height, stride), dtype=np.uint8)
    y = 0
    for ftype, run in itertools.groupby(rows[:, 0].tolist()):
        n = len(list(run))
        block, dst = rows[y:y + n, 1:], out[y:y + n]
        if ftype == 0:
            dst[:] = block
        elif ftype == 1:
            np.cumsum(block.reshape(n, width, channels), axis=1, dtype=np.uint8, out=dst.reshape(n, width, channels))
        elif ftype == 2:
            np.cumsum(block, axis=0, dtype=np.uint8, out=dst)
            if y:
                dst += out[y - 1]
        else:
            # Average and Paeth: byte by byte over lists that carry `channels` zero
            # bytes in front, the left and upper-left neighbours of the first pixel.
            unfilter = _unfilter_average if ftype == 3 else _unfilter_paeth
            prev = [0] * (channels + stride) if y == 0 else [0] * channels + out[y - 1].tolist()
            for k in range(n):
                cur = [0] * channels + block[k].tolist()
                unfilter(cur, prev, channels)
                dst[k] = cur[channels:]
                prev = cur
        y += n
    return out.reshape(height, width, channels).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# Dataset build
# ---------------------------------------------------------------------------

# Whole-degree angles: the CLI's default `data.components` is this spectrum as text.
DEFAULT_SPECTRUM = SpectrumSpec(
    components=((1.0, 2.0, math.radians(17)), (0.6, 7.0, math.radians(69)), (0.35, 23.0, 0.0),
                (0.25, 31.0, math.radians(52))),
    background_amplitude=0.4,
    background_max_cycles=3,
)


@dataclass(frozen=True)
class DataConfig:
    """Settings of build_dataset; each field with "help" metadata is the CLI key ``data.<name>``."""

    sources: int = field(default=10, metadata={"help": "number of synthetic source grids"})
    source_height: int = field(default=720, metadata={"help": "source grid height"})
    source_width: int = field(default=1440, metadata={"help": "source grid width"})
    tile: int = field(default=240, metadata={"help": "HR tile edge"})
    scale: int = field(default=4, metadata={"help": "downsampling factor"})
    seed: int = 0
    train_fraction: float = field(default=0.8, metadata={"help": "train share of the tile split"})
    spectrum: SpectrumSpec = DEFAULT_SPECTRUM

    def __post_init__(self):
        for name in ("sources", "source_height", "source_width", "tile", "scale"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.source_height % self.tile != 0 or self.source_width % self.tile != 0:
            raise ValueError(f"tile {self.tile} does not divide the {self.source_height}x{self.source_width} "
                             "source grid")
        if self.tile % self.scale != 0:
            raise ValueError(f"scale {self.scale} does not divide tile {self.tile}")
        if not 0.0 <= self.train_fraction <= 1.0:
            raise ValueError(f"train_fraction {self.train_fraction} is outside [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ManifestEntry:
    pair_id: str
    source_id: str
    tile_index: int
    split: str
    hr_path: str
    lr_path: str


# Each manifest pair key, the ManifestEntry field it holds and that field's type.
_PAIR_KEYS = (("id", "pair_id", str), ("source", "source_id", str), ("tile", "tile_index", int),
              ("split", "split", str), ("hr", "hr_path", str), ("lr", "lr_path", str))


@dataclass
class DatasetManifest:
    seed: int
    scale: int
    tile_height: int
    tile_width: int
    entries: list[ManifestEntry]
    normalization: dict[str, list[tuple[float, float]]]
    root: Path  # the directory the pair paths are relative to

    def split(self, name: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == name]

    def to_json(self) -> str:
        doc = {
            "format": "visir-manifest",
            "version": 1,
            "seed": self.seed,
            "scale": self.scale,
            "tile_height": self.tile_height,
            "tile_width": self.tile_width,
            "channels": list(CHANNEL_NAMES),
            "normalization": {k: [list(r) for r in v] for k, v in self.normalization.items()},
            "pairs": [{key: getattr(e, name) for key, name, _ in _PAIR_KEYS} for e in self.entries],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _subseed(seed: int, *parts) -> int:
    key = "/".join(str(p) for p in (seed,) + parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _split_of(seed: int, source_id: str, tile_index: int, train_fraction: float) -> str:
    u = _subseed(seed, "split", source_id, tile_index) / 2.0 ** 64
    return "train" if u < train_fraction else "test"


def _band_tiles(band: np.ndarray, plans: list, ranges: list, height: int):
    """The HR tiles of a source, row-major: each band of rows of its channels made
    into `band` and normalized in place as normalize_field does, then cut into tiles."""
    tile = band.shape[1]
    for r in range(0, height, tile):
        for channel, plan, (lo, hi) in zip(band, plans, ranges):
            _synth_rows(plan, slice(r, r + tile), channel)
            np.subtract(channel, lo, out=channel)
            channel /= _span(lo, hi)
        for channels in zip(*(tile_image(c, tile, tile) for c in band)):
            yield np.stack(channels, axis=-1)


def build_dataset(cfg: DataConfig, out_dir) -> DatasetManifest:
    """Generate sources, tile, downsample and write pairs plus a manifest.

    Deterministic from cfg.seed: rebuilding into a fresh directory produces a
    byte-identical manifest and identical pair files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries: list[ManifestEntry] = []
    normalization: dict[str, list[tuple[float, float]]] = {}
    # A source's R, G, B (the order of CHANNEL_NAMES), one band of tile rows at a time.  First:
    # a width that cannot be held fails before anything is made, as a height does in _synth_plan.
    band = np.empty((len(CHANNEL_NAMES), cfg.tile, cfg.source_width))

    for s in range(cfg.sources):
        source_id = f"s{s:03d}"
        plans, ranges = [], []
        for k, channel in enumerate(band):
            plans.append(_synth_plan(_subseed(cfg.seed, "field", s, k), cfg.source_height, cfg.source_width,
                                     cfg.spectrum))
            ranges.append(_synth_range(plans[-1], channel))  # every check, before any tile is written
            _span(*ranges[-1])
        normalization[source_id] = ranges
        tiles = _band_tiles(band, plans, ranges, cfg.source_height)
        for i, hr in enumerate(tiles):
            lr = bicubic_downsample(hr, cfg.scale)
            pair_id = f"{source_id}_t{i:02d}"
            hr_path = f"{pair_id}_hr.vsgr"
            lr_path = f"{pair_id}_lr.vsgr"
            write_grid(out_dir / hr_path, hr)
            write_grid(out_dir / lr_path, lr)
            entries.append(ManifestEntry(
                pair_id=pair_id,
                source_id=source_id,
                tile_index=i,
                split=_split_of(cfg.seed, source_id, i, cfg.train_fraction),
                hr_path=hr_path,
                lr_path=lr_path,
            ))

    manifest = DatasetManifest(
        seed=cfg.seed,
        scale=cfg.scale,
        tile_height=cfg.tile,
        tile_width=cfg.tile,
        entries=entries,
        normalization=normalization,
        root=out_dir,
    )
    (out_dir / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    return manifest


def _key(doc, key: str, kind: type, prefix: str = ""):
    """doc[key] of a manifest, which must be a `kind` (a bool is not an int)."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"manifest key '{prefix}{key}' must be of type {kind.__name__}, got {value!r:.40}")
    return value


def _is_range(r) -> bool:
    """Whether r is [min, max]: finite numbers, not bools (JSON makes no other kind), with min < max."""
    return (isinstance(r, list) and len(r) == 2 and all(type(v) in (int, float) and -math.inf < v < math.inf for v in r)
            and r[0] < r[1])


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("format") != "visir-manifest" or doc.get("version") != 1:
        raise ValueError("not a recognized dataset manifest")
    seed = _key(doc, "seed", int)
    sizes = {key: _key(doc, key, int) for key in ("scale", "tile_height", "tile_width")}
    for key, size in sizes.items():
        if size < 1:
            raise ValueError(f"manifest key '{key}' must be >= 1, got {size}")
    if sizes["tile_height"] % sizes["scale"] or sizes["tile_width"] % sizes["scale"]:
        raise ValueError(f"manifest key 'scale' must divide tile_height {sizes['tile_height']} and tile_width "
                         f"{sizes['tile_width']}, got {sizes['scale']}")
    channels = _key(doc, "channels", list)
    if channels != list(CHANNEL_NAMES):
        raise ValueError(f"manifest key 'channels' must be {list(CHANNEL_NAMES)}, got {channels!r:.40}")
    entries = [ManifestEntry(**{name: _key(p, key, kind, f"pairs[{i}].") for key, name, kind in _PAIR_KEYS})
               for i, p in enumerate(_key(doc, "pairs", list))]
    ranges_of = _key(doc, "normalization", dict)
    normalization = {}
    # A source that a pair names needs its ranges too, as build_dataset writes them: missing, they read None.
    for source in dict.fromkeys([*ranges_of, *(e.source_id for e in entries)]):
        ranges = ranges_of.get(source)
        if not (isinstance(ranges, list) and len(ranges) == len(CHANNEL_NAMES) and all(map(_is_range, ranges))):
            raise ValueError(f"manifest key 'normalization.{source}' must be {len(CHANNEL_NAMES)} [min, max] pairs "
                             f"of finite numbers with min < max, got {ranges!r:.40}")
        normalization[source] = [tuple(r) for r in ranges]
    return DatasetManifest(seed=seed, **sizes, entries=entries,
                           normalization=normalization, root=path.parent)


class _FilePair:
    """A pair of a split's two grid files, each read, and its values checked (finite, in the
    unit interval), when its image is asked for: `hr` and `lr` read a file on every access."""

    __slots__ = ("_paths", "_shapes", "scale", "tile_index")

    def __init__(self, paths: tuple[Path, Path], shapes: tuple[tuple, tuple], scale: int, tile_index: int):
        self._paths, self._shapes, self.scale, self.tile_index = paths, shapes, scale, tile_index

    def _read(self, k: int, name: str) -> np.ndarray:
        values, _ = read_grid(self._paths[k])
        if values.shape != self._shapes[k]:  # the file changed since load_pairs checked its header
            raise ValueError(f"{name} grid {self._paths[k]} has shape {values.shape}, the manifest's {self._shapes[k]}")
        if not (values.min() >= 0.0 and values.max() <= 1.0):  # as SRPair checks
            raise ValueError(f"{name} image leaves the unit interval")
        return values

    hr = property(lambda self: self._read(0, "hr"))
    lr = property(lambda self: self._read(1, "lr"))


class _SplitPairs:
    """The pairs of manifest entries, each a _FilePair.  A slice is another such sequence;
    iteration ends at the entries' IndexError."""

    __slots__ = ("_root", "_entries", "_shapes", "_scale")

    def __init__(self, root: Path, entries: tuple[ManifestEntry, ...], shapes: tuple[tuple, tuple], scale: int):
        self._root, self._entries, self._shapes, self._scale = root, entries, shapes, scale

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _SplitPairs(self._root, self._entries[index], self._shapes, self._scale)
        e = self._entries[index]
        return _FilePair((self._root / e.hr_path, self._root / e.lr_path), self._shapes, self._scale, e.tile_index)


def load_pairs(manifest: DatasetManifest, split: str) -> Sequence[SRPair]:
    """The pairs of `split`, as an immutable sequence of pairs with SRPair's attributes whose
    `hr` and `lr` each read their grid file when asked for.

    Here every pair file's header is checked against the file's size and against the
    manifest's geometry (HR tile_height x tile_width, LR `scale` times smaller, one channel
    per name), so a missing, foreign, truncated or misshapen file fails now.  Asking for an
    image reads its grid and checks its values (finite, in the unit interval), so a file is
    read as it is at that moment, each time it is asked for."""
    wanted = tuple(manifest.split(split))
    if not wanted:
        raise ValueError(f"split '{split}' is empty")
    hr = (manifest.tile_height, manifest.tile_width, len(CHANNEL_NAMES))
    shapes = (hr, (hr[0] // manifest.scale, hr[1] // manifest.scale, hr[2]))
    for e in wanted:
        for path, shape in zip((e.hr_path, e.lr_path), shapes):
            with open(manifest.root / path, "rb") as fh:
                found = _grid_header(fh)[:3]
            if found != shape:
                raise ValueError(f"grid {path} has shape {found}, the manifest's geometry {shape}")
    return _SplitPairs(manifest.root, wanted, shapes, manifest.scale)
