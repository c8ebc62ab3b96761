import math

import numpy as np
import pytest

from mlabeam import (Carrier, ModularArray, dbm_to_watts, estimate_channel,
                     friis_beta, near_steering, spacing_for_aperture,
                     spectral_efficiency)

CAR = Carrier.from_wavelength(0.02)
MLA = ModularArray(4, 16, 0.01, spacing_for_aperture(2.0, 4, 16, 0.01))


def test_friis_values():
    assert friis_beta(CAR, 30.0) == pytest.approx(2.8144773233982722e-09, rel=1e-12)
    # inverse-square law
    assert friis_beta(CAR, 60.0) == pytest.approx(friis_beta(CAR, 30.0) / 4, rel=1e-12)
    assert friis_beta(CAR, 0.02 / (4 * math.pi)) == pytest.approx(1.0, rel=1e-12)


def test_dbm_round_trip():
    assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-12)
    assert dbm_to_watts(-78.0) == pytest.approx(10**-10.8, rel=1e-12)


def test_estimate_channel_matches_steering():
    est = estimate_channel(MLA, CAR, math.pi / 2, 30.0)
    h = near_steering(MLA, CAR, math.pi / 2, 30.0)
    np.testing.assert_allclose(est, h, atol=1e-12)
    np.testing.assert_allclose(np.abs(est), 1.0, atol=1e-12)


def test_estimate_channel_one_grid_step_off():
    h = near_steering(MLA, CAR, math.pi / 2, 30.0)
    est = estimate_channel(MLA, CAR, math.pi / 2 + 0.002, 30.02)
    corr = abs(np.vdot(est, h)) / MLA.num_elements
    assert corr >= 0.9


def test_se_perfect_closed_form():
    h = near_steering(MLA, CAR, math.pi / 2, 30.0)
    beta = friis_beta(CAR, 30.0)
    se = spectral_efficiency(h, h, 0.1, beta, 10**-10.8)
    assert se == pytest.approx(math.log2(1 + 0.1 * beta * 64 / 10**-10.8), rel=1e-12)
    assert se == pytest.approx(10.1517, abs=2e-4)


def test_se_orthogonal_estimate_is_zero():
    h = np.ones(8, dtype=complex)
    bad = np.exp(2j * np.pi * np.arange(8) / 8)  # DFT column, orthogonal to flat
    se = spectral_efficiency(h, bad, 0.1, 1e-9, 1e-11)
    assert se == pytest.approx(0.0, abs=1e-9)


def test_se_monotone_in_power():
    h = near_steering(MLA, CAR, 1.4, 25.0)
    ses = [spectral_efficiency(h, h, p, 1e-9, 1e-11) for p in (0.01, 0.05, 0.1, 1.0)]
    assert all(a < b for a, b in zip(ses, ses[1:]))


def test_se_global_phase_invariant():
    h = near_steering(MLA, CAR, 1.4, 25.0)
    est = h * np.exp(1j * 1.23)
    assert spectral_efficiency(h, est, 0.1, 1e-9, 1e-11) == pytest.approx(
        spectral_efficiency(h, h, 0.1, 1e-9, 1e-11), rel=1e-12)


def test_matched_estimate_is_optimal():
    # any mismatched unit-modulus estimate combines no better than the truth
    h = near_steering(MLA, CAR, 1.4, 25.0)
    best = spectral_efficiency(h, h, 0.1, 1e-9, 1e-11)
    rng = np.random.default_rng(9)
    for _ in range(10):
        other = np.exp(1j * rng.uniform(0, 2 * math.pi, h.size))
        assert spectral_efficiency(h, other, 0.1, 1e-9, 1e-11) <= best + 1e-12


def test_channel_estimate_validation():
    with pytest.raises(ValueError):
        estimate_channel(MLA, CAR, 1.4, -3.0)
