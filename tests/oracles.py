"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (loops, direct
formulas, finite differences) and never calls into the library's own kernels
for the quantity it checks.
"""

from __future__ import annotations

import functools
import math
import struct
import zlib
from pathlib import Path

import numpy as np


def layer_norm_two_pass(x: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    rows = x.reshape(-1, x.shape[-1])
    flat = out.reshape(-1, x.shape[-1])
    for r in range(rows.shape[0]):
        row = rows[r]
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        flat[r] = gain * ((row - mu) / np.sqrt(var + eps)) + shift
    return out


def attention_single_head(tokens: np.ndarray, wq, bq, wk, bk, wv, bv, wo, bo) -> np.ndarray:
    """Hand-rolled scaled dot-product attention, one head, no library calls."""
    q = tokens @ wq.T + bq
    k = tokens @ wk.T + bk
    v = tokens @ wv.T + bv
    d = q.shape[1]
    scores = q @ k.T / np.sqrt(d)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = weights / weights.sum(axis=1, keepdims=True)
    return (weights @ v) @ wo.T + bo


def attention_multi_head(q: np.ndarray, k: np.ndarray, v: np.ndarray, num_heads: int) -> np.ndarray:
    """Scaled dot-product attention of (..., N, D) arrays, one head and one leading index at a
    time, heads concatenated along D; no library calls."""
    d = q.shape[-1]
    dh = d // num_heads
    lead = q.shape[:-2]
    out = np.zeros(q.shape)
    for idx in np.ndindex(*lead):
        for h in range(num_heads):
            cols = slice(h * dh, (h + 1) * dh)
            qh, kh, vh = q[idx][:, cols], k[idx][:, cols], v[idx][:, cols]
            scores = qh @ kh.T / np.sqrt(dh)
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights = weights / weights.sum(axis=1, keepdims=True)
            out[idx][:, cols] = weights @ vh
    return out


def reassemble_tiles(tiles: list[np.ndarray], grid_rows: int, grid_cols: int) -> np.ndarray:
    """The image that `data.tile_image` cut into `tiles` (row-major), each tile copied to its place."""
    assert len(tiles) == grid_rows * grid_cols
    th, tw = tiles[0].shape[:2]
    out = np.empty((grid_rows * th, grid_cols * tw) + tiles[0].shape[2:], dtype=tiles[0].dtype)
    for k, tile in enumerate(tiles):
        r, c = divmod(k, grid_cols)
        out[r * th:(r + 1) * th, c * tw:(c + 1) * tw] = tile
    return out


def by_name(flat: np.ndarray, params) -> dict[str, np.ndarray]:
    """`backward`'s gradient vector as one array per name of `params`, each its tensor's
    consecutive C-order piece, in `params` order."""
    out, start = {}, 0
    for name, p in params.items():
        out[name] = flat[start:start + p.size].reshape(p.shape)
        start += p.size
    assert start == flat.size
    return out


def adam_step_per_tensor(params: dict[str, np.ndarray], state, grads: dict[str, np.ndarray],
                         beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> dict[str, np.ndarray]:
    """Adam one tensor at a time, as the library did before its moments became vectors.

    `state` has `lr`, `step` and dicts `m` and `v` of zeros keyed as `params`; it is
    mutated, and the stepped parameters are returned."""
    state.step += 1
    t = state.step
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m = state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        v = state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        out[name] = p - state.lr * mhat / (np.sqrt(vhat) + eps)
    return out


def output_chain_unfused(xs: np.ndarray, w: np.ndarray, b: np.ndarray, omega0: float, final: str,
                         grid=None, target=None):
    """A decoder's output as the separate steps the library ran before they became one
    `output_head` entry: affine, the final activation, the patch merge and the MSE, each
    computed as it was, in plain numpy.

    `grid` = (grid_rows, grid_cols, p_out, channels) merges (..., N, P*P*C) tokens into
    (..., H, W, C) images (reshape, transposed copy, reshape); None keeps the rows.  Without
    a target, returns the output.  With one (in the output's layout), returns (loss, pull),
    where pull(g) gives the gradients at xs, w and b."""
    wt = np.ascontiguousarray(w.T)
    z = xs @ wt + b
    s = (np.sin(omega0 * z) + 1.0) * 0.5 if final == "sine" else 1.0 / (1.0 + np.exp(-z))
    lead = z.shape[:-2]
    axes = tuple(range(len(lead))) + tuple(len(lead) + a for a in (0, 2, 1, 3, 4))  # its own inverse
    out = s
    if grid is not None:
        rows, cols, p, c = grid
        out = s.reshape(lead + (rows, cols, p, p, c)).transpose(axes).copy().reshape(lead + (rows * p, cols * p, c))
    if target is None:
        return out
    diff = out - target

    def pull(g):
        g_out = diff * (g * (2.0 / diff.size))
        if grid is not None:
            g_out = g_out.reshape(lead + (rows, p, cols, p, c)).transpose(axes).copy().reshape(z.shape)
        gz = g_out * 0.5 * omega0 * np.cos(omega0 * z) if final == "sine" else g_out * s * (1.0 - s)
        x_rows, g_rows = xs.reshape(-1, wt.shape[0]), gz.reshape(-1, wt.shape[1])
        return gz @ wt.T, (x_rows.T @ g_rows).T, g_rows.sum(axis=0)

    return (diff * diff).mean(), pull


def mse_entry(out, target: np.ndarray):
    """mean((out - target)^2) of a tensor against a constant array of its shape, as one tape
    entry: the loss of tests whose subject is not the loss (the library's one loss is fused
    into its output head)."""
    from visir import autodiff as ad

    assert out.shape == np.shape(target), (out.shape, np.shape(target))
    diff = np.asarray(out.data - target)
    return ad._make((diff * diff).mean(), (out.key,), lambda g: (diff * (g * (2.0 / diff.size)),))


def mse_plain(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference as the plain expression, with its temporaries."""
    return float(((a - b) * (a - b)).mean())


def finite_difference_grads(f, arrays: dict[str, np.ndarray], h: float = 1e-4) -> dict[str, np.ndarray]:
    """Central differences of a scalar function of a dict of arrays."""
    grads = {}
    for name, base in arrays.items():
        g = np.zeros_like(base, dtype=np.float64)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(arrays)
            flat[i] = orig - h
            down = f(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def grads_close(analytic: np.ndarray, numeric: np.ndarray,
                rtol: float = 1e-3, atol: float = 1e-6) -> bool:
    """Relative comparison with a small absolute floor for near-zero slopes."""
    return bool(np.all(np.abs(analytic - numeric) <= rtol * np.abs(numeric) + atol))


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, atol: float = 1e-6) -> float:
    denom = np.maximum(np.abs(numeric), atol)
    return float(np.max(np.abs(analytic - numeric) / denom))


def bicubic_ramp_reference(n: int, s: int, c0: float, c1: float) -> np.ndarray:
    """A cubic kernel with linear precision sampled on a ramp c0 + c1*i gives
    exactly the ramp at the output pixel centers."""
    xs = (np.arange(n // s) + 0.5) * s - 0.5
    return c0 + c1 * xs


def catmull_rom_kernel(t: float) -> float:
    """Keys' cubic convolution kernel with a = -1/2 at distance t."""
    a = -0.5
    t = abs(t)
    if t <= 1.0:
        return (a + 2.0) * t ** 3 - (a + 3.0) * t ** 2 + 1.0
    if t < 2.0:
        return a * (t ** 3 - 5.0 * t ** 2 + 8.0 * t - 4.0)
    return 0.0


def bicubic_downsample_per_sample(img: np.ndarray, s: int) -> np.ndarray:
    """Reduction by s along rows, then columns, one output sample at a time:
    sample j sits at input coordinate x = (j + 1/2)s - 1/2, and the kernel is
    evaluated at the distances from x to its four neighbours floor(x) - 1 ..
    floor(x) + 2 (edge-clamped), combined around floor(x) as the library does.
    The result is clipped to [0, 1]."""
    out = np.asarray(img, dtype=np.float64)
    for axis in (0, 1):
        moved = np.moveaxis(out, axis, 0)
        n = moved.shape[0]
        samples = []
        for j in range(n // s):
            x = (j + 0.5) * s - 0.5
            base = math.floor(x)
            w = [catmull_rom_kernel(x - (base + d)) for d in (-1, 0, 1, 2)]
            v = [moved[min(max(base + d, 0), n - 1)] for d in (-1, 0, 1, 2)]
            samples.append(v[1] + w[0] * (v[0] - v[1]) + w[2] * (v[2] - v[1]) + w[3] * (v[3] - v[1]))
        out = np.moveaxis(np.stack(samples), 0, axis)
    return np.clip(out, 0.0, 1.0)


def dft_peak_bin(field: np.ndarray, axis: int) -> int:
    """Index of the dominant nonzero-frequency bin along one axis."""
    spectrum = np.abs(np.fft.rfft(field, axis=axis)).mean(axis=1 - axis)
    spectrum[0] = 0.0
    return int(np.argmax(spectrum))


def synth_field_direct(seed: int, h: int, w: int, spec) -> np.ndarray:
    """The synthetic field as first written: full coordinate grids from
    `meshgrid` and one whole-array expression per term, sine or cosine of the
    whole rounded argument."""
    rng = np.random.default_rng(seed)
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    out = np.zeros((h, w))
    for amp, cycles, theta in spec.components:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u = np.cos(theta) * xx + np.sin(theta) * yy
        out += amp * np.sin(2.0 * np.pi * cycles * u + phase)
    if spec.background_amplitude != 0.0:
        for ky in range(spec.background_max_cycles + 1):
            for kx in range(spec.background_max_cycles + 1):
                if kx == 0 and ky == 0:
                    continue
                coeff = rng.normal(0.0, 1.0) / (1.0 + kx * kx + ky * ky)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                out += spec.background_amplitude * coeff * np.cos(
                    2.0 * np.pi * (kx * xx + ky * yy) + phase
                )
    return out


def synth_field_angle_addition(seed: int, h: int, w: int, spec) -> np.ndarray:
    """`synth_field`'s arithmetic on whole grids: each term's row and column
    factors, each product of a row and a column one meshgrid expression, folded
    and added in `synth_field`'s order (constant-column products into the row
    sum, constant-row products into the column sum, products with equal rows
    into one)."""
    rng = np.random.default_rng(seed)
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    factors = []  # (row, column) in term order
    for amp, cycles, theta in spec.components:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        a = 2.0 * np.pi * cycles * np.cos(theta) * xs
        b = 2.0 * np.pi * cycles * np.sin(theta) * ys + phase
        # sin(a + b) = sin a cos b + cos a sin b
        factors += [(np.sin(a), amp * np.cos(b)), (np.cos(a), amp * np.sin(b))]
    if spec.background_amplitude != 0.0:
        for ky in range(spec.background_max_cycles + 1):
            for kx in range(spec.background_max_cycles + 1):
                if kx == 0 and ky == 0:
                    continue
                coeff = rng.normal(0.0, 1.0) / (1.0 + kx * kx + ky * ky)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                amp = spec.background_amplitude * coeff
                a = 2.0 * np.pi * kx * xs
                b = 2.0 * np.pi * ky * ys + phase
                # cos(a + b) = cos a cos b - sin a sin b
                factors += [(np.cos(a), amp * np.cos(b)), (np.sin(a), -(amp * np.sin(b)))]
    row_sum, col_sum = np.zeros((h, w)), np.zeros((h, w))
    shared = {}  # row bytes -> [row grid, summed column grid]
    for row, col in factors:
        rr, cc = np.meshgrid(row, col)
        if (col == col[0]).all():
            row_sum += cc * rr
        elif (row == row[0]).all():
            col_sum += rr * cc
        elif row.tobytes() in shared:
            shared[row.tobytes()][1] = shared[row.tobytes()][1] + cc
        else:
            shared[row.tobytes()] = [rr, cc]
    out = col_sum + row_sum
    for rr, cc in shared.values():
        out += cc * rr
    return out


def synth_field_longdouble(seed: int, h: int, w: int, spec) -> tuple[np.ndarray, float, float]:
    """The synthetic field in np.longdouble from the same draws, with the sum of
    every term's |amplitude| and the largest |argument| any term reaches:
    2 pi cycles (|cos theta| + |sin theta|) + phase, or 2 pi (kx + ky) + phase."""
    ld = np.longdouble
    two_pi = 2 * np.arccos(ld(-1))
    rng = np.random.default_rng(seed)
    ys = ((np.arange(h, dtype=ld) + ld(0.5)) / ld(h))[:, None]
    xs = (np.arange(w, dtype=ld) + ld(0.5)) / ld(w)
    out = np.zeros((h, w), dtype=ld)
    amps, args = [], []
    for amp, cycles, theta in spec.components:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = ld(theta)
        out += ld(amp) * np.sin(two_pi * ld(cycles) * (np.cos(t) * xs + np.sin(t) * ys) + ld(phase))
        amps.append(abs(amp))
        args.append(2.0 * np.pi * cycles * (abs(math.cos(theta)) + abs(math.sin(theta))) + phase)
    if spec.background_amplitude != 0.0:
        for ky in range(spec.background_max_cycles + 1):
            for kx in range(spec.background_max_cycles + 1):
                if kx == 0 and ky == 0:
                    continue
                coeff = rng.normal(0.0, 1.0) / (1.0 + kx * kx + ky * ky)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                amp = spec.background_amplitude * coeff
                out += ld(amp) * np.cos(two_pi * (kx * xs + ky * ys) + ld(phase))
                amps.append(abs(amp))
                args.append(2.0 * np.pi * (kx + ky) + phase)
    return out, math.fsum(amps), max(args)


def normalize_plain(v: np.ndarray) -> np.ndarray:
    """The unit-interval map as one expression."""
    lo, hi = float(v.min()), float(v.max())
    return (v - lo) / (hi - lo)


def png_blob(width: int, height: int, channels: int, idat: bytes) -> bytes:
    """An 8-bit gray (1 channel) or RGB (3) PNG file holding the compressed image data `idat`."""
    def chunk(tag, payload):
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload))

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0 if channels == 1 else 2, 0, 0, 0)
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


def encode_png(pixels: np.ndarray, ftypes) -> bytes:
    """PNG bytes of uint8 HxWxC `pixels`, row y stored with filter type ftypes[y]."""
    h, w, c = pixels.shape
    raw = pixels.reshape(h, w * c).astype(np.int64)

    def paeth(a, b, cc):
        p = a + b - cc
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
        if pa <= pb and pa <= pc:
            return a
        return b if pb <= pc else cc

    stream = bytearray()
    prior = np.zeros(w * c, dtype=np.int64)
    for row, ftype in enumerate(ftypes):
        stream.append(ftype)
        for i in range(w * c):
            left = raw[row, i - c] if i >= c else 0
            up = prior[i]
            ul = prior[i - c] if i >= c else 0
            predictor = (0, left, up, (left + up) // 2, paeth(int(left), int(up), int(ul)))[ftype]
            stream.append(int(raw[row, i] - predictor) & 0xFF)
        prior = raw[row]
    return png_blob(w, h, c, zlib.compress(bytes(stream)))


def read_png_per_byte(path) -> np.ndarray:
    """uint8 HxWxC pixels of an 8-bit gray/RGB PNG, unfiltered byte by byte with
    one branch per filter type.  It checks nothing the decoding does not need."""
    blob = Path(path).read_bytes()
    pos, idat = 8, bytearray()
    while pos < len(blob):
        length, = struct.unpack(">I", blob[pos:pos + 4])
        tag, payload = blob[pos + 4:pos + 8], blob[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            width, height, _, color_type = struct.unpack(">IIBB", payload[:10])
            channels = 1 if color_type == 0 else 3
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    data = zlib.decompress(bytes(idat))
    stride = width * channels
    # `prev` and each decoded row carry `channels` zero bytes in front: the left and
    # upper-left neighbours of the first pixel.
    out = bytearray()
    prev = bytearray(channels + stride)
    for row in range(height):
        pos = row * (stride + 1)
        ftype = data[pos]
        cur = bytearray(channels) + data[pos + 1:pos + 1 + stride]
        for i in range(channels, channels + stride if ftype else 0):  # type 0 (None) stores the bytes as they are
            left = cur[i - channels]
            up = prev[i]
            if ftype == 1:
                cur[i] = (cur[i] + left) & 0xFF
            elif ftype == 2:
                cur[i] = (cur[i] + up) & 0xFF
            elif ftype == 3:
                cur[i] = (cur[i] + (left + up) // 2) & 0xFF
            else:
                ul = prev[i - channels]
                p = left + up - ul
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                cur[i] = (cur[i] + (left if pa <= pb and pa <= pc else up if pb <= pc else ul)) & 0xFF
        out += cur[channels:]
        prev = cur
    return np.frombuffer(bytes(out), dtype=np.uint8).reshape(height, width, channels)


@functools.cache
def png_bomb() -> bytes:
    """A 60x60 RGB PNG of about 306 KB whose image data inflates to 300 MB of zeros;
    its IHDR declares 60 x (60 x 3 + 1) = 10,860 bytes."""
    deflate = zlib.compressobj(9, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
    zeros = bytes(1 << 20)
    return png_blob(60, 60, 3, b"".join(deflate.compress(zeros) for _ in range(300)) + deflate.flush())
