import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from visir.metrics import MetricsReport, evaluate_pair, mse, psnr, psnr_from_mse, ssim

from oracles import mse_plain

unit_pixels = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def unit_image(h=4, w=4, c=1):
    return arrays(np.float64, (h, w, c), elements=unit_pixels)


HAND_A = np.array([[0.0, 0.5], [1.0, 0.25]])
HAND_B = np.array([[0.1, 0.5], [0.8, 0.25]])


# ---------------------------------------------------------------------------
# MSE
# ---------------------------------------------------------------------------

def test_mse_identical_is_zero():
    img = np.random.default_rng(0).uniform(0, 1, (5, 5, 3))
    assert mse(img, img) == 0.0


def test_mse_zeros_vs_ones():
    assert mse(np.zeros((3, 3)), np.ones((3, 3))) == 1.0


def test_mse_hand_case():
    # (0.1^2 + 0 + 0.2^2 + 0) / 4 = 0.0125, up to decimal-literal rounding.
    assert mse(HAND_A, HAND_B) == pytest.approx(0.0125, abs=1e-16)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse(np.zeros((2, 2)), np.zeros((2, 3)))


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(), (5,), (3, 4), (4, 4, 3)]), data=st.data())
def test_mse_has_the_bits_of_the_plain_formula(shape, data):
    # mse squares its difference in place; the value must be the plain expression's, bit for bit.
    a = data.draw(arrays(np.float64, shape, elements=unit_pixels))
    b = data.draw(arrays(np.float64, shape, elements=unit_pixels))
    assert mse(a, b) == mse_plain(a, b)
    assert mse(b, a) == mse_plain(b, a)


def _one_subnormal_pixel():
    img = np.zeros((4, 4, 1))
    img[0, 0, 0] = 2.2e-313
    return img


@settings(max_examples=40, deadline=None)
@given(a=unit_image(), b=unit_image())
@example(a=np.zeros((4, 4, 1)), b=np.full((4, 4, 1), 5e-324))
@example(a=np.zeros((4, 4, 1)), b=_one_subnormal_pixel())
@example(a=np.full((4, 4, 1), 2.3e-308), b=np.full((4, 4, 1), 2.2e-308))
@example(a=np.zeros((4, 4, 1)), b=np.full((4, 4, 1), 1e-150))
def test_mse_symmetric_and_nonnegative(a, b):
    forward_ = mse(a, b)
    assert forward_ == mse(b, a)
    assert forward_ >= 0.0
    if forward_ == 0.0:
        # Unequal images can have a zero MSE: a difference below about 1e-162
        # squares to 0 in float64.  A zero mean of non-negative terms still
        # implies that every pixel's share of it is zero.
        assert np.all((a - b) ** 2 / a.size == 0.0)


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------

def test_psnr_twenty_db():
    assert psnr_from_mse(0.01) == 20.0


def test_psnr_zero_db():
    assert psnr_from_mse(1.0) == 0.0
    assert math.copysign(1.0, psnr_from_mse(1.0)) == 1.0  # +0.0: eval.csv prints "0.0", not "-0.0"


def test_psnr_identical_is_infinite():
    img = np.random.default_rng(1).uniform(0, 1, (4, 4))
    assert psnr(img, img) == math.inf


def test_psnr_monotone_decreasing_in_mse():
    values = [psnr_from_mse(m) for m in np.linspace(1e-6, 2.0, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_psnr_infinite_greater_than_any_finite():
    assert psnr_from_mse(0.0) > psnr_from_mse(1e-300)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

def test_ssim_self_similarity():
    rng = np.random.default_rng(2)
    for _ in range(5):
        img = rng.uniform(0, 1, (6, 6, 3))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_images():
    img = np.full((4, 4), 0.5)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_anticorrelated_pair_negative():
    # Zero-mean pattern shifted into [0,1]; the flip has negative covariance.
    rng = np.random.default_rng(3)
    x = 0.5 + 0.45 * np.sin(np.linspace(0, 8 * np.pi, 64)).reshape(8, 8)
    x += rng.uniform(-0.02, 0.02, x.shape)
    x = np.clip(x, 0, 1)
    y = 1.0 - x
    # Direct evaluation of the formula as the oracle.
    mu_x, mu_y = x.mean(), y.mean()
    cov = ((x - mu_x) * (y - mu_y)).mean()
    var_x, var_y = x.var(), y.var()
    c1, c2 = 0.01 ** 2, 0.03 ** 2  # (k1 * MAX)^2 and (k2 * MAX)^2 with MAX = 1
    expected = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)
                / ((mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)))
    got = ssim(x, y)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got < 0.0


@settings(max_examples=30, deadline=None)
@given(a=unit_image(5, 5), b=unit_image(5, 5))
def test_ssim_symmetric(a, b):
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_shift_invariance_of_both_images():
    # The luminance ratio only cancels when the two means coincide; for
    # mean-matched images a common offset must not move the score.
    rng = np.random.default_rng(4)
    a = rng.uniform(0.1, 0.5, (6, 6))
    b = rng.uniform(0.1, 0.5, (6, 6))
    b = b - b.mean() + a.mean()
    for c in (0.1, 0.25, 0.4):
        assert ssim(a + c, b + c) == pytest.approx(ssim(a, b), abs=1e-9)


def test_ssim_range():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(0, 1, (5, 5))
        b = rng.uniform(0, 1, (5, 5))
        assert -1.0 <= ssim(a, b) <= 1.0


def test_ssim_shape_mismatch():
    with pytest.raises(ValueError):
        ssim(np.zeros((2, 2)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# evaluate_pair
# ---------------------------------------------------------------------------

def test_evaluate_pair_identical():
    img = np.random.default_rng(6).uniform(0, 1, (4, 4, 3))
    report = evaluate_pair(img, img)
    assert report == MetricsReport(mse=0.0, psnr=math.inf, ssim=pytest.approx(1.0, abs=1e-12))


def test_evaluate_pair_matches_individual_calls():
    rng = np.random.default_rng(7)
    a = rng.uniform(0, 1, (6, 6, 3))
    b = rng.uniform(0, 1, (6, 6, 3))
    report = evaluate_pair(a, b)
    assert report.mse == mse(a, b)
    assert report.psnr == psnr(a, b)
    assert report.ssim == ssim(a, b)


def test_evaluate_pair_hand_case_psnr():
    report = evaluate_pair(HAND_A, HAND_B)
    assert report.mse == pytest.approx(0.0125, abs=1e-16)
    assert report.psnr == pytest.approx(19.0309, abs=1e-3)
