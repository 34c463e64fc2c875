import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from visir.data import (
    CHANNEL_NAMES,
    DataConfig,
    SpectrumSpec,
    SRPair,
    bicubic_downsample,
    build_dataset,
    load_manifest,
    load_pairs,
    normalize_field,
    read_grid,
    read_png,
    synth_field,
    tile_image,
    write_grid,
    write_png,
)
from visir.data import _BLOCK_VALUES, _subseed, _synth_plan, _synth_range, _synth_rows

from oracles import (bicubic_downsample_per_sample, bicubic_ramp_reference, dft_peak_bin, encode_png, normalize_plain,
                     png_bomb, read_png_per_byte, reassemble_tiles, synth_field_angle_addition,
                     synth_field_direct, synth_field_longdouble)


# ---------------------------------------------------------------------------
# normalize_field
# ---------------------------------------------------------------------------

def test_normalize_affine_map():
    field = np.array([[250.0, 310.0], [280.0, 260.0]])
    out, (lo, hi) = normalize_field(field)
    assert (lo, hi) == (250.0, 310.0)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0
    assert out[1, 0] == 0.5


def test_normalize_unit_field_is_identity():
    v = np.array([[0.0, 0.25], [0.75, 1.0]])
    out, rng = normalize_field(v)
    assert np.array_equal(out, v)
    assert rng == (0.0, 1.0)


def test_normalize_constant_field_errors():
    with pytest.raises(ValueError):
        normalize_field(np.full((3, 3), 7.0))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=4, max_size=16))
def test_normalize_extremes_are_exact(values):
    v = np.array(values).reshape(-1, 2) if len(values) % 2 == 0 else np.array(values[:-1]).reshape(-1, 2)
    if v.max() <= v.min():
        return
    out, _ = normalize_field(v)
    assert out.min() == 0.0
    assert out.max() == 1.0


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), seed=st.integers(0, 2 ** 16),
       scale=st.floats(1e-3, 1e6), shift=st.floats(-1e6, 1e6))
def test_normalize_matches_plain_expression(h, w, seed, scale, shift):
    v = np.random.default_rng(seed).normal(shift, scale, (h, w))
    if v.max() <= v.min():
        return
    out, _ = normalize_field(v)
    assert out.tobytes() == normalize_plain(v).tobytes()


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------

def test_full_source_grid_gives_18_tiles():
    img = np.zeros((720, 1440, 3))
    tiles = tile_image(img, 240, 240)
    assert len(tiles) == 18
    assert tiles[0].shape == (240, 240, 3)


def test_coarse_source_grid_gives_18_tiles():
    tiles = tile_image(np.zeros((180, 360, 3)), 60, 60)
    assert len(tiles) == 18


def test_non_divisible_tiling_errors():
    with pytest.raises(ValueError):
        tile_image(np.zeros((100, 100)), 33, 33)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4),
       th=st.integers(1, 6), tw=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_tile_reassemble_is_bit_exact_identity(rows, cols, th, tw, seed):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 1, (rows * th, cols * tw, 3))
    tiles = tile_image(img, th, tw)
    back = reassemble_tiles(tiles, rows, cols)
    assert np.array_equal(back, img)


def test_tiles_are_views():
    img = np.arange(72, dtype=np.float64).reshape(4, 6, 3)
    for tile in tile_image(img, 2, 3):
        assert np.shares_memory(tile, img)


def test_tiles_are_row_major():
    img = np.arange(24, dtype=np.float64).reshape(4, 6)
    tiles = tile_image(img, 2, 3)
    assert np.array_equal(tiles[0], img[0:2, 0:3])
    assert np.array_equal(tiles[1], img[0:2, 3:6])
    assert np.array_equal(tiles[2], img[2:4, 0:3])


# ---------------------------------------------------------------------------
# bicubic reduction
# ---------------------------------------------------------------------------

def test_bicubic_preserves_constants_exactly():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = rng.uniform(0, 1)
        img = np.full((16, 24, 3), c)
        out = bicubic_downsample(img, 4)
        assert np.array_equal(out, np.full((4, 6, 3), c))


def test_bicubic_target_shape():
    out = bicubic_downsample(np.random.default_rng(3).uniform(0, 1, (240, 240, 3)), 4)
    assert out.shape == (60, 60, 3)


def test_bicubic_ramp_matches_analytic_line():
    # Catmull-Rom has linear precision: interior samples sit on the ramp.
    n, s = 64, 4
    c0, c1 = 0.1, 0.8 / (n - 1)
    img = np.tile(c0 + c1 * np.arange(n), (8, 1))
    out = bicubic_downsample(img, s)
    expected = bicubic_ramp_reference(n, s, c0, c1)
    interior = slice(1, -1)
    assert np.allclose(out[0, interior], expected[interior], atol=1e-6)


def test_bicubic_stays_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(5):
        img = rng.uniform(0, 1, (32, 32))
        out = bicubic_downsample(img, 4)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_bicubic_non_divisible_errors():
    with pytest.raises(ValueError):
        bicubic_downsample(np.zeros((10, 10)), 4)


def test_bicubic_odd_factor_decimates():
    img = np.random.default_rng(5).uniform(0, 1, (9, 9))
    out = bicubic_downsample(img, 3)
    # Odd factors land exactly on input pixel centers.
    assert np.array_equal(out, img[1::3, 1::3])


def test_bicubic_matches_per_sample_kernel():
    # The library keeps one weight vector for even factors and one for odd; the oracle
    # evaluates the kernel for every output sample.  -0.0, NaN and values outside [0, 1]
    # go through the same arithmetic, so they give the same bytes too; s = 1 included.
    rng = np.random.default_rng(7)
    for s in range(1, 9):
        for c in (1, 3):
            img = rng.uniform(-0.5, 1.5, (s * int(rng.integers(1, 6)), s * int(rng.integers(1, 6)), c))
            if c == 1:
                img[int(rng.integers(img.shape[0]))] = -0.0
            else:
                img[int(rng.integers(img.shape[0])), int(rng.integers(img.shape[1])), 1] = np.nan
            assert bicubic_downsample(img, s).tobytes() == bicubic_downsample_per_sample(img, s).tobytes()
    # At s = 1 the (0, 1, 0, 0) kernel keeps the bits of values in [0, 1] and clamps the others.
    img = np.array([[-0.25, 0.0, 0.3], [1.5, 1.0, 0.7]])
    assert bicubic_downsample(img, 1).tobytes() == np.array([[0.0, 0.0, 0.3], [1.0, 1.0, 0.7]]).tobytes()


# ---------------------------------------------------------------------------
# synthetic fields
# ---------------------------------------------------------------------------

def test_synth_zero_frequency_is_constant():
    # Alone, a zero-cycle term is an empty spectrum; after a varying term it adds a constant.
    varying = (1.0, 3.0, 0.4)
    base = synth_field(0, 8, 8, SpectrumSpec(components=(varying,)))
    field = synth_field(0, 8, 8, SpectrumSpec(components=(varying, (1.0, 0.0, 0.0))))
    assert field.shape == (8, 8)
    shift = field - base
    assert abs(shift[0, 0]) > 0.1 and np.allclose(shift, shift[0, 0])


def test_synth_deterministic_from_seed():
    spec = SpectrumSpec(components=((1.0, 3.0, 0.4), (0.5, 9.0, 1.0)), background_amplitude=0.2)
    a = synth_field(42, 16, 16, spec)
    b = synth_field(42, 16, 16, spec)
    assert np.array_equal(a, b)
    c = synth_field(43, 16, 16, spec)
    assert not np.array_equal(a, c)


def test_synth_spectral_peak_at_requested_bin():
    for cycles in (3, 7, 12):
        spec = SpectrumSpec(components=((1.0, float(cycles), 0.0),))
        field = synth_field(1, 32, 64, spec)
        assert dft_peak_bin(field, axis=1) == cycles


_COMPONENT = st.tuples(st.floats(0.05, 2.0), st.floats(0.0, 40.0), st.floats(0.0, 2.0 * math.pi))
_EDGE = st.one_of(st.just(1), st.integers(1, 48))


@st.composite
def _spectra(draw):
    """SpectrumSpec keyword arguments, some of which SpectrumSpec rejects as empty (see _adds_something)."""
    kind = draw(st.sampled_from(["components", "background", "both"]))
    components = tuple(draw(st.lists(_COMPONENT, min_size=1, max_size=4))) if kind != "background" else ()
    background = draw(st.floats(0.05, 1.0)) if kind != "components" else 0.0
    return dict(components=components, background_amplitude=background, background_max_cycles=draw(st.integers(0, 4)))


def _adds_something(spec: dict) -> bool:
    """A component with nonzero amplitude and cycles, or a background with at least one mode."""
    return (any(amp != 0.0 and cycles != 0.0 for amp, cycles, _ in spec["components"])
            or (spec["background_amplitude"] != 0.0 and spec["background_max_cycles"] >= 1))


_WIDE = 2000  # _BLOCK_VALUES // _WIDE rows a block: this height is two whole blocks and a ragged 5-row one
_TALL = 2 * (_BLOCK_VALUES // _WIDE) + 5


@settings(max_examples=60, deadline=None)
@given(spec=_spectra().filter(_adds_something), h=_EDGE, w=_EDGE, seed=st.integers(0, 2 ** 32))
# theta 0.0 and -0.0: the column is the phase alone, so the component folds into the row sum
@example(spec=dict(components=((1.0, 5.0, 0.0),), background_amplitude=0.0, background_max_cycles=2), h=7, w=9, seed=1)
@example(spec=dict(components=((0.7, 3.0, -0.0), (0.5, 4.0, 1.0)), background_amplitude=0.0, background_max_cycles=2),
         h=11, w=6, seed=2)
# theta pi/2: cos(theta) is 6e-17, not 0, so the row is not constant and the component stays two products
@example(spec=dict(components=((1.0, 6.0, math.pi / 2),), background_amplitude=0.0, background_max_cycles=2),
         h=9, w=13, seed=3)
@example(spec=dict(components=((0.5, 0.0, 0.4), (1.0, 2.0, 0.3)), background_amplitude=0.0, background_max_cycles=2),
         h=8, w=8, seed=4)
@example(spec=dict(components=((1.0, 3.0, 0.0), (0.6, 7.0, 1.2)), background_amplitude=0.4, background_max_cycles=3),
         h=1, w=17, seed=5)
@example(spec=dict(components=((1.0, 3.0, 0.0), (0.6, 7.0, 1.2)), background_amplitude=0.4, background_max_cycles=3),
         h=17, w=1, seed=6)
@example(spec=dict(components=((1.0, 2.0, 0.3), (0.35, 23.0, 0.0)), background_amplitude=0.4, background_max_cycles=3),
         h=_TALL, w=_WIDE, seed=7)
def test_synth_matches_meshgrid_oracle(spec, h, w, seed):
    spec = SpectrumSpec(**spec)
    assert synth_field(seed, h, w, spec).tobytes() == synth_field_angle_addition(seed, h, w, spec).tobytes()


_EPS = float(np.finfo(np.float64).eps)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS, reason="np.longdouble is no wider than float64 here")
@settings(max_examples=60, deadline=None)
@given(spec=_spectra().filter(_adds_something), h=_EDGE, w=_EDGE, seed=st.integers(0, 2 ** 32))
@example(spec=dict(components=((1.0, 2.0, math.radians(17)), (0.6, 7.0, math.radians(69)), (0.35, 23.0, 0.0),
                               (0.25, 31.0, math.radians(52))), background_amplitude=0.4, background_max_cycles=3),
         h=48, w=48, seed=0)
@example(spec=dict(components=((2.0, 40.0, math.pi / 4),), background_amplitude=0.0, background_max_cycles=2),
         h=48, w=48, seed=8)
def test_synth_error_is_within_the_rounding_bound(spec, h, w, seed):
    # Against an extended-precision field from the same draws, both forms stay within
    # 2 eps sum|amp| (1 + max|argument|): the bound of rounding each term's argument.
    spec = SpectrumSpec(**spec)
    exact, amps, largest = synth_field_longdouble(seed, h, w, spec)
    bound = 2.0 * _EPS * amps * (1.0 + largest)
    for form in (synth_field, synth_field_direct):
        assert float(np.abs(form(seed, h, w, spec) - exact).max()) <= bound, form.__name__


@st.composite
def _range_cases(draw):
    """(spec, h, w, band): amplitudes from 1e-6 to 1e6 of either sign, components that
    alias to near-constant rows (a whole number of cycles a pixel along x), and band
    heights that need not divide h."""
    h, w = draw(_EDGE), draw(_EDGE)
    amplitude = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e) | st.floats(-6.0, 6.0).map(lambda e: -10.0 ** e)
    theta = st.floats(0.0, 2.0 * math.pi)
    plain = st.tuples(amplitude, st.floats(0.0, 40.0), theta)
    aliased = st.tuples(amplitude, st.integers(1, 3).map(lambda m: float(m * w)), st.just(0.0))
    components = tuple(draw(st.lists(plain | aliased, max_size=4)))
    background = draw(st.just(0.0) | amplitude)
    spec = dict(components=components, background_amplitude=background, background_max_cycles=draw(st.integers(0, 3)))
    return spec, h, w, draw(st.integers(1, h + 2))


@settings(max_examples=80, deadline=None)
@given(case=_range_cases().filter(lambda case: _adds_something(case[0])), seed=st.integers(0, 2 ** 32))
# every term folds into the row or the column sum: no product is left
@example(case=(dict(components=((1.0, 5.0, 0.0), (0.3, 2.0, 0.0)), background_amplitude=0.0, background_max_cycles=2),
               7, 9, 2), seed=1)
@example(case=(dict(components=(), background_amplitude=0.5, background_max_cycles=1), 10, 10, 3), seed=2)
# near-constant rows: 48 cycles over 48 pixels along x, 5 along y
@example(case=(dict(components=((1.0, 48.0, 0.0), (0.5, 5.0, math.pi / 2)), background_amplitude=0.0,
                    background_max_cycles=2), 240, 48, 24), seed=3)
# rows that differ by about their rounding: which one holds the min depends on the summation order
@example(case=(dict(components=((1.0, 48.0, 0.0), (1e-16, 3.0, math.pi / 2)), background_amplitude=0.0,
                    background_max_cycles=2), 24, 48, 7), seed=0)
@example(case=(dict(components=((1.0, 48.0, 0.0), (1e-16, 3.0, math.pi / 2)), background_amplitude=0.0,
                    background_max_cycles=2), 24, 48, 7), seed=2)
@example(case=(dict(components=((1e6, 3.0, 0.2), (1e-6, 40.0, 1.0)), background_amplitude=0.4,
                    background_max_cycles=3), 1, 17, 1), seed=4)
@example(case=(dict(components=((1.0, 3.0, 0.4),), background_amplitude=0.4, background_max_cycles=3), 17, 1, 5),
         seed=5)
def test_synth_range_is_the_fields_min_and_max(case, seed):
    spec, h, w, band = case
    spec = SpectrumSpec(**spec)
    field, plan = synth_field(seed, h, w, spec), _synth_plan(seed, h, w, spec)
    expected = (field.min().tobytes(), field.max().tobytes())
    assert tuple(np.float64(v).tobytes() for v in _synth_range(plan, np.empty((band, w)))) == expected
    # Another BLAS kernel rounds the product otherwise, by up to 2 gamma_k M a value: the range stays.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "matmul", _rounded_otherwise(np.matmul, np.random.default_rng(seed)))
        assert tuple(np.float64(v).tobytes() for v in _synth_range(plan, np.empty((band, w)))) == expected


def _rounded_otherwise(matmul, rng):
    """matmul whose every value moves at random by up to the 2 gamma_k sum|a_iq b_qj| that
    separates two summation orders."""
    def moved(a, b, out):
        k = a.shape[1]
        gamma = k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
        matmul(a, b, out=out)
        out += 2.0 * gamma * matmul(np.abs(a), np.abs(b)) * rng.uniform(-1.0, 1.0, out.shape)
        return out
    return moved


@pytest.mark.parametrize("spec", [SpectrumSpec(components=((1e308, 1.0, 0.0), (1e308, 1.0, math.pi / 2))),
                                  SpectrumSpec(components=((1.0, 1e308, 0.0),))], ids=["sum", "argument"])
def test_synth_range_raises_what_synth_field_raises(spec):
    # A sum that overflows, or an argument that does (a NaN sine): every row is made exactly and checked.
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="non-finite") as whole:
            synth_field(0, 16, 16, spec)
        with pytest.raises(ValueError, match="non-finite") as banded:
            _synth_range(_synth_plan(0, 16, 16, spec), np.empty((5, 16)))
    assert str(banded.value) == str(whole.value)


@settings(max_examples=40, deadline=None)
@given(spec=_spectra().filter(_adds_something), h=_EDGE, w=_EDGE, seed=st.integers(0, 2 ** 32), data=st.data())
@example(spec=dict(components=((1.0, 2.0, 0.3), (0.35, 23.0, 0.0)), background_amplitude=0.4, background_max_cycles=3),
         h=_TALL, w=_WIDE, seed=7, data=None)
def test_synth_rows_are_the_fields_rows(spec, h, w, seed, data):
    # Any range of rows, or any list of them, comes out with the whole field's bits.
    spec = SpectrumSpec(**spec)
    field, plan = synth_field(seed, h, w, spec), _synth_plan(seed, h, w, spec)
    if data is None:
        start, stop, rows = 1, h - 3, np.array([h - 1, 0, _BLOCK_VALUES // w, 2])
    else:
        start = data.draw(st.integers(0, h - 1))
        stop = data.draw(st.integers(start + 1, h))
        rows = np.array(data.draw(st.lists(st.integers(0, h - 1), min_size=1, max_size=8)))
    assert _synth_rows(plan, slice(start, stop), np.empty((stop - start, w))).tobytes() == field[start:stop].tobytes()
    assert _synth_rows(plan, rows, np.empty((len(rows), w))).tobytes() == field[rows].tobytes()


@settings(max_examples=100, deadline=None)
@given(spec=_spectra())
@example(spec=dict(components=(), background_amplitude=0.5, background_max_cycles=0))
@example(spec=dict(components=((0.0, 3.0, 0.0),), background_amplitude=0.0, background_max_cycles=3))
@example(spec=dict(components=((1.0, 0.0, 0.0), (0.0, 5.0, 1.0)), background_amplitude=0.0, background_max_cycles=3))
def test_spectrum_is_empty_exactly_when_it_adds_nothing(spec):
    # The spectra that the oracle test filters out are the ones SpectrumSpec rejects.
    if _adds_something(spec):
        SpectrumSpec(**spec)
    else:
        with pytest.raises(ValueError, match="empty spectrum"):
            SpectrumSpec(**spec)


def test_synth_empty_spec_errors():
    with pytest.raises(ValueError, match="empty spectrum"):
        SpectrumSpec()


@pytest.mark.parametrize("spec", [dict(components=((1e999, 2.0, 0.0),)),
                                  dict(components=((1.0, 2.0, 0.0),), background_amplitude=math.nan),
                                  dict(components=((1.0, math.inf, 0.0),)),
                                  dict(components=((1.0, 2.0, math.nan),))])
def test_synth_non_finite_spec_errors(spec):
    with pytest.raises(ValueError, match="must be finite"):
        SpectrumSpec(**spec)


def test_spectrum_negative_background_cycles_errors():
    with pytest.raises(ValueError, match="background_max_cycles must be >= 0"):
        SpectrumSpec(background_amplitude=0.4, background_max_cycles=-3)


def test_synth_overflowing_spec_errors():
    # Finite terms whose sum overflows: one runs along x and one along y, so at some
    # pixel both sines are above cos(pi/16) whatever the phases, and 2 * 0.98e308 is inf.
    spec = SpectrumSpec(components=((1e308, 1.0, 0.0), (1e308, 1.0, math.pi / 2)))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        synth_field(0, 16, 16, spec)


# ---------------------------------------------------------------------------
# grid and PNG round trips
# ---------------------------------------------------------------------------

def test_grid_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    img = rng.uniform(0, 1, (5, 7, 3))
    write_grid(tmp_path / "g.vsgr", img)
    back, units = read_grid(tmp_path / "g.vsgr")
    assert np.array_equal(back, img)
    assert units == ""
    # A unit string written by another tool is read back; write_grid always writes it empty.
    unit = "W m-2".encode("utf-8")
    blob = b"VSGR" + struct.pack("<IIIII", 1, 5, 7, 3, len(unit)) + unit + img.astype("<f8").tobytes()
    (tmp_path / "u.vsgr").write_bytes(blob)
    back, units = read_grid(tmp_path / "u.vsgr")
    assert np.array_equal(back, img)
    assert units == "W m-2"


def test_grid_of_a_view_has_the_bytes_of_its_copy(tmp_path):
    img = np.random.default_rng(2).uniform(0, 1, (6, 9, 3))
    view = img[2:5, 3:9]
    write_grid(tmp_path / "view.vsgr", view)
    write_grid(tmp_path / "copy.vsgr", view.copy())
    assert (tmp_path / "view.vsgr").read_bytes() == (tmp_path / "copy.vsgr").read_bytes()
    assert np.array_equal(read_grid(tmp_path / "view.vsgr")[0], view)


def test_grid_header_claiming_a_huge_payload_is_truncated(tmp_path):
    # 2^31 x 2^31 x 2^31 values would be 2^96 bytes; the header's sizes are
    # checked against the file before anything is allocated or read.
    blob = b"VSGR" + struct.pack("<IIIII", 1, 2 ** 31, 2 ** 31, 2 ** 31, 0) + b"\x00" * 64
    (tmp_path / "huge.vsgr").write_bytes(blob)
    with pytest.raises(ValueError, match="truncated grid payload"):
        read_grid(tmp_path / "huge.vsgr")


def test_grid_trailing_bytes(tmp_path):
    write_grid(tmp_path / "g.vsgr", np.zeros((2, 3)))
    (tmp_path / "g.vsgr").write_bytes((tmp_path / "g.vsgr").read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        read_grid(tmp_path / "g.vsgr")


def test_grid_bad_magic(tmp_path):
    (tmp_path / "bad.vsgr").write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        read_grid(tmp_path / "bad.vsgr")


def test_grid_truncated(tmp_path):
    img = np.zeros((4, 4))
    write_grid(tmp_path / "g.vsgr", img)
    blob = (tmp_path / "g.vsgr").read_bytes()
    (tmp_path / "cut.vsgr").write_bytes(blob[:-16])
    with pytest.raises(ValueError, match="truncated grid payload"):
        read_grid(tmp_path / "cut.vsgr")


def test_png_round_trip_rgb(tmp_path):
    rng = np.random.default_rng(7)
    img = rng.uniform(0, 1, (6, 9, 3))
    write_png(tmp_path / "x.png", img)
    back = read_png(tmp_path / "x.png")
    expected = np.floor(img * 255.0 + 0.5) / 255.0
    assert back.shape == (6, 9, 3)
    assert np.array_equal(back, expected)


def test_png_round_trip_grayscale(tmp_path):
    img = np.linspace(0, 1, 20).reshape(4, 5)
    write_png(tmp_path / "g.png", img)
    back = read_png(tmp_path / "g.png")
    assert back.shape == (4, 5, 1)
    assert np.array_equal(back[:, :, 0], np.floor(img * 255.0 + 0.5) / 255.0)


def test_png_rounding_is_half_up(tmp_path):
    # 0.5/255 boundary: 127.5 rounds up to 128.
    img = np.array([[127.5 / 255.0]])
    write_png(tmp_path / "r.png", img)
    assert read_png(tmp_path / "r.png")[0, 0, 0] == 128 / 255.0


def _as_bytes(img):
    """read_png's [0, 1] floats back to the uint8 values they were decoded from."""
    return np.rint(img * 255.0).astype(np.uint8)


def test_png_reader_handles_all_filter_types(tmp_path):
    # One scanline per filter type (None/Sub/Up/Average/Paeth).
    pixels = np.random.default_rng(8).integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    (tmp_path / "filtered.png").write_bytes(encode_png(pixels, [0, 1, 2, 3, 4]))
    assert np.array_equal(_as_bytes(read_png(tmp_path / "filtered.png")), pixels)


@st.composite
def _filtered_images(draw):
    h, w, c = draw(st.integers(1, 9)), draw(st.integers(1, 17)), draw(st.sampled_from([1, 3]))
    pixels = np.frombuffer(draw(st.binary(min_size=h * w * c, max_size=h * w * c)), dtype=np.uint8)
    return pixels.reshape(h, w, c), draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))


@settings(max_examples=150, deadline=None)
@given(image=_filtered_images())
@example(image=(np.arange(9 * 17 * 3, dtype=np.uint8).reshape(9, 17, 3), [1, 2, 2, 2, 0, 2, 3, 2, 2]))
@example(image=(np.full((6, 5, 1), 255, dtype=np.uint8), [2, 2, 1, 1, 4, 4]))
def test_png_reader_matches_per_byte_reference(tmp_path_factory, image):
    pixels, ftypes = image
    path = tmp_path_factory.mktemp("png") / "f.png"
    path.write_bytes(encode_png(pixels, ftypes))
    reference = read_png_per_byte(path)
    assert np.array_equal(reference, pixels)
    back = read_png(path)
    assert back.dtype == np.float64 and back.shape == pixels.shape
    assert np.array_equal(_as_bytes(back), reference)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 17), rgb=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_png_write_read_gives_the_quantised_pixels(tmp_path_factory, h, w, rgb, seed):
    img = np.random.default_rng(seed).uniform(-0.1, 1.1, (h, w, 3) if rgb else (h, w))
    path = tmp_path_factory.mktemp("png") / "w.png"
    write_png(path, img)
    quantised = np.clip(np.floor(img * 255.0 + 0.5), 0, 255).reshape(h, w, -1).astype(np.uint8)
    assert np.array_equal(read_png_per_byte(path), quantised)
    assert np.array_equal(read_png(path), quantised / 255.0)


def test_png_reader_inflates_no_more_than_ihdr_declares(tmp_path):
    (tmp_path / "bomb.png").write_bytes(png_bomb())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="does not inflate to the 10860 bytes 60x60 needs"):
            read_png(tmp_path / "bomb.png")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def _flip_ihdr_crc(blob):
    at = 8 + 8 + 13  # signature, IHDR length and tag, IHDR payload
    return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]


def _idat_length_past_the_end(blob):
    at = blob.index(b"IDAT") - 4
    return blob[:at] + struct.pack(">I", len(blob)) + blob[at + 4:]


@pytest.mark.parametrize("corrupt,message", [(_flip_ihdr_crc, "malformed PNG: CRC mismatch in chunk b'IHDR'"),
                                             (_idat_length_past_the_end, "malformed PNG: chunk at byte 33 runs past")])
def test_png_reader_checks_crcs_and_chunk_lengths(tmp_path, corrupt, message):
    write_png(tmp_path / "ok.png", np.full((4, 5, 3), 0.5))
    (tmp_path / "bad.png").write_bytes(corrupt((tmp_path / "ok.png").read_bytes()))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_png(tmp_path / "bad.png")


# ---------------------------------------------------------------------------
# SRPair invariants
# ---------------------------------------------------------------------------

def test_srpair_dimension_contract():
    hr = np.zeros((8, 8, 1))
    lr = np.zeros((4, 4, 1))
    SRPair(hr=hr, lr=lr, scale=2)
    with pytest.raises(ValueError):
        SRPair(hr=hr, lr=np.zeros((3, 4, 1)), scale=2)


def test_srpair_unit_interval_contract():
    hr = np.full((4, 4, 1), 1.5)
    with pytest.raises(ValueError):
        SRPair(hr=hr, lr=np.zeros((2, 2, 1)), scale=2)
    nan_lr = np.zeros((2, 2, 1))
    nan_lr[0, 1, 0] = np.nan  # NaN is outside the interval too, not a divergence later
    with pytest.raises(ValueError, match="lr"):
        SRPair(hr=np.zeros((4, 4, 1)), lr=nan_lr, scale=2)


# ---------------------------------------------------------------------------
# dataset build
# ---------------------------------------------------------------------------

SMALL_CFG = DataConfig(sources=2, source_height=48, source_width=96, tile=24,
                       scale=4, seed=9, train_fraction=0.8)


def test_build_dataset_pair_bookkeeping(tmp_path):
    # 10 sources x 18 tiles on the coarse-grid geometry -> 180 pairs.
    cfg = DataConfig(sources=10, source_height=180, source_width=360, tile=60, scale=4, seed=0)
    manifest = build_dataset(cfg, tmp_path / "d")
    assert len(manifest.entries) == 180
    assert {e.split for e in manifest.entries} == {"train", "test"}


def test_build_dataset_rebuild_is_byte_identical(tmp_path):
    build_dataset(SMALL_CFG, tmp_path / "a")
    build_dataset(SMALL_CFG, tmp_path / "b")
    a = (tmp_path / "a" / "manifest.json").read_bytes()
    b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert a == b
    first = (tmp_path / "a" / "s000_t00_hr.vsgr").read_bytes()
    second = (tmp_path / "b" / "s000_t00_hr.vsgr").read_bytes()
    assert first == second


def _source_grids(manifest, cfg):
    """Each source's RGB grid, reassembled from its HR tiles."""
    rows, cols = cfg.source_height // cfg.tile, cfg.source_width // cfg.tile
    grids = {}
    for source in manifest.normalization:
        tiles = [read_grid(manifest.root / e.hr_path)[0] for e in manifest.entries if e.source_id == source]
        grids[source] = reassemble_tiles(tiles, rows, cols)
    return grids


def _oracle_channel(cfg, s, k):
    field = synth_field_angle_addition(_subseed(cfg.seed, "field", s, k), cfg.source_height, cfg.source_width,
                                 cfg.spectrum)
    return normalize_plain(field), (float(field.min()), float(field.max()))


def test_build_dataset_channels_are_the_normalized_fields(tmp_path):
    manifest = build_dataset(SMALL_CFG, tmp_path / "d")
    for s, (source, grid) in enumerate(_source_grids(manifest, SMALL_CFG).items()):
        for k in range(len(CHANNEL_NAMES)):
            channel, bounds = _oracle_channel(SMALL_CFG, s, k)
            assert np.ascontiguousarray(grid[:, :, k]).tobytes() == channel.tobytes(), (source, k)
            assert manifest.normalization[source][k] == bounds


def test_build_dataset_channel_order_is_fixed(tmp_path):
    manifest = build_dataset(SMALL_CFG, tmp_path / "d")
    assert json.loads(manifest.to_json())["channels"] == list(CHANNEL_NAMES)
    grid = _source_grids(manifest, SMALL_CFG)["s000"]
    fields = [_oracle_channel(SMALL_CFG, 0, k)[0] for k in range(len(CHANNEL_NAMES))]
    for k in range(len(CHANNEL_NAMES)):
        for j in range(len(CHANNEL_NAMES)):
            assert np.array_equal(grid[:, :, k], fields[j]) == (j == k)


def test_build_dataset_channels_span_unit_interval(tmp_path):
    manifest = build_dataset(SMALL_CFG, tmp_path / "d")
    for grid in _source_grids(manifest, SMALL_CFG).values():
        assert np.array_equal(grid.min(axis=(0, 1)), np.zeros(3))
        assert np.array_equal(grid.max(axis=(0, 1)), np.ones(3))


def test_build_dataset_tiles_are_hxwx3(tmp_path):
    manifest = build_dataset(SMALL_CFG, tmp_path / "d")
    assert all(len(r) == len(CHANNEL_NAMES) for r in manifest.normalization.values())
    for e in manifest.entries:
        assert read_grid(manifest.root / e.hr_path)[0].shape == (24, 24, 3)
        assert read_grid(manifest.root / e.lr_path)[0].shape == (6, 6, 3)


def test_build_dataset_peak_memory_is_below_two_rgb_grids(tmp_path):
    # A source's three channels made a band of tile rows at a time, plus one HR tile
    # stacked from the band and its reduction: about 0.88 grids (1.32 when the three
    # fields were held whole).  An RGB grid beside the fields (1.46), a normalized copy
    # of a field, full-size coordinate grids, per-term temporaries or a second copy of
    # each tile would pass 1.4.  numpy loads numpy.random (0.06 grids of module
    # objects) on first use, so it is loaded before tracing starts.
    cfg = DataConfig(sources=2, source_height=480, source_width=960, tile=240, scale=4, seed=1)
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        build_dataset(cfg, tmp_path / "d")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rgb_bytes = 480 * 960 * 3 * 8
    assert peak <= 1.4 * rgb_bytes, peak / rgb_bytes


def test_build_dataset_holds_one_band_of_rows_not_the_fields(tmp_path):
    # A source is made a band of tile rows at a time: three channel bands (1/3 of the three
    # fields here) and the band's tiles.  Holding the three 720x480 fields would pass 8.3 MB.
    cfg = DataConfig(sources=1, source_height=720, source_width=480, tile=240, scale=4, seed=2)
    np.random.default_rng(0)  # numpy.random's module objects load on first use
    tracemalloc.start()
    try:
        build_dataset(cfg, tmp_path / "d")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 720 * 480 * 8, peak


@pytest.mark.parametrize("named,bad", [
    ("sources", {"sources": 0}), ("source_height", {"source_height": 0}),
    ("source_width", {"source_width": -240}), ("tile", {"tile": 0}), ("scale", {"scale": 0}),
    ("tile", {"source_height": 100, "source_width": 100, "tile": 33}), ("scale", {"scale": 5}),
    ("train_fraction", {"train_fraction": 1.5}), ("train_fraction", {"train_fraction": -0.1}),
    ("train_fraction", {"train_fraction": math.nan}),
])
def test_data_config_rejects_bad_fields(tmp_path, named, bad):
    # The message names the rejected field, and nothing is built.
    small = {"sources": 1, "source_height": 24, "source_width": 48, "tile": 12, "scale": 2}
    with pytest.raises(ValueError, match=f"^{named} "):
        build_dataset(DataConfig(**{**small, **bad}), tmp_path / "x")
    assert not (tmp_path / "x").exists()


def test_build_dataset_empty_sources_errors(tmp_path):
    with pytest.raises(ValueError):
        build_dataset(DataConfig(sources=0), tmp_path / "x")


def test_manifest_round_trip_and_pairs(tmp_path):
    manifest = build_dataset(SMALL_CFG, tmp_path / "d")
    loaded = load_manifest(tmp_path / "d" / "manifest.json")
    assert loaded.to_json() == manifest.to_json()
    train = load_pairs(loaded, "train")
    test = load_pairs(loaded, "test")
    assert len(train) + len(test) == len(manifest.entries)
    for p in [*train, *test]:
        assert p.hr.shape == (24, 24, 3)
        assert p.lr.shape == (6, 6, 3)


def test_load_pairs_reads_each_pair_when_it_is_indexed(tmp_path):
    manifest = build_dataset(SMALL_CFG, tmp_path / "d")
    pairs = load_pairs(manifest, "train")
    first = manifest.split("train")[0]
    hr, lr = pairs[0].hr, pairs[0].lr
    assert np.array_equal(hr, read_grid(manifest.root / first.hr_path)[0])
    assert pairs[0].tile_index == first.tile_index and pairs[0].scale == SMALL_CFG.scale
    # A file rewritten after load is read as it is when the pair is indexed again.
    write_grid(manifest.root / first.hr_path, 1.0 - hr)
    assert np.array_equal(pairs[0].hr, 1.0 - hr)
    assert np.array_equal(pairs[-len(pairs)].lr, lr)
    # A slice is a sequence of the same kind, read as lazily.
    assert [p.tile_index for p in pairs[1:3]] == [e.tile_index for e in manifest.split("train")[1:3]]
    with pytest.raises(IndexError):
        pairs[len(pairs)]


def test_load_pairs_checks_values_and_shapes_when_a_pair_is_read(tmp_path):
    # A valid header with a bad value or a shape off the contract fails when the pair is read.
    manifest = build_dataset(SMALL_CFG, tmp_path / "d")
    entries = manifest.split("train")
    write_grid(manifest.root / entries[0].hr_path, np.full((24, 24, 3), np.nan))
    write_grid(manifest.root / entries[1].lr_path, np.full((6, 6, 3), 1.5))
    write_grid(manifest.root / entries[2].lr_path, np.zeros((5, 6, 3)))
    pairs = load_pairs(manifest, "train")
    for i, message in enumerate(["non-finite", "unit interval", "is not 4x the lr"]):
        with pytest.raises(ValueError, match=message):
            pairs[i]
    assert pairs[3].hr.shape == (24, 24, 3)


def test_split_is_deterministic(tmp_path):
    m1 = build_dataset(SMALL_CFG, tmp_path / "a")
    m2 = build_dataset(SMALL_CFG, tmp_path / "b")
    assert [e.split for e in m1.entries] == [e.split for e in m2.entries]
