import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlabeam import (Carrier, InfeasibleArrayError, ModularArray, derived_metrics,
                     element_positions, spacing_for_aperture, subarray_centers)


def test_carrier_consistency():
    c = Carrier.from_frequency(15e9)
    assert c.wavelength == pytest.approx(0.0199861638666, rel=1e-10)
    c2 = Carrier.from_wavelength(0.02)
    assert c2.frequency == pytest.approx(299792458.0 / 0.02)
    with pytest.raises(ValueError):
        Carrier(15e9, 0.5)


def test_element_positions_small():
    # L=2, N=2, delta=0.01, gap=1: outer pair at +-0.51, inner at +-0.50
    mla = ModularArray(2, 2, 0.01, 1.0)
    pos = element_positions(mla)
    assert pos.shape == (2, 2)
    np.testing.assert_allclose(pos.ravel(), [-0.51, -0.50, 0.50, 0.51], atol=1e-12)
    np.testing.assert_allclose(subarray_centers(mla), [-0.505, 0.505], atol=1e-12)


def test_positions_symmetric_and_sorted():
    mla = ModularArray(4, 16, 0.01, 0.4633333333333334)
    pos = element_positions(mla).ravel()
    assert np.all(np.diff(pos) > 0)
    np.testing.assert_allclose(pos, -pos[::-1], atol=1e-12)
    assert mla.num_elements == 64


def test_aperture_and_fraunhofer():
    """Aperture bookkeeping for the gap formulation, both boundary distances."""
    lam = Carrier.from_wavelength(0.02)
    gap = spacing_for_aperture(2.0, 4, 36, 0.01)
    met = derived_metrics(ModularArray(4, 36, 0.01, gap), lam)
    assert met.aperture == pytest.approx(2.0, abs=1e-12)
    assert met.fraunhofer == pytest.approx(400.0, abs=1e-9)
    assert met.fraunhofer_subarray == pytest.approx(12.96, abs=1e-9)
    assert met.fraunhofer >= met.fraunhofer_subarray

    met2 = derived_metrics(ModularArray(2, 2, 0.01, 1.0), lam)
    assert met2.aperture == pytest.approx(1.03, abs=1e-12)
    assert met2.fraunhofer == pytest.approx(106.09, abs=1e-9)


def test_single_subarray_metrics():
    # contiguous array: aperture N*delta with the gap convention collapsed
    lam = Carrier.from_wavelength(0.02)
    met = derived_metrics(ModularArray.ula(50, 0.01), lam)
    assert met.aperture == pytest.approx(0.50, abs=1e-12)
    assert met.fraunhofer == pytest.approx(25.0, abs=1e-9)


def test_half_pitch():
    mla = ModularArray(2, 64, 0.01, 0.73)
    assert mla.half_pitch == pytest.approx((0.73 + 63 * 0.01) / 2)
    assert derived_metrics(mla, Carrier.from_wavelength(0.02)).half_pitch == mla.half_pitch
    # one sub-array: the unused gap does not enter, delta takes its place
    assert ModularArray(1, 64, 0.01, 5.0).half_pitch == pytest.approx(64 * 0.01 / 2)


@settings(max_examples=100, deadline=None)
@given(L=st.integers(1, 16), N=st.integers(1, 64), d=st.floats(0.001, 0.05),
       extra=st.floats(0.0, 2.0))
def test_layout_follows_one_pitch(L, N, d, extra):
    """Positions, centers and metrics all follow from the one half_pitch:
    sorted positions that are antisymmetric bit for bit (the precondition of
    the 2D grid's mirror pairing), steps of delta inside a sub-array and of
    the gap between sub-arrays, centers 2 * half_pitch apart, and a gap of
    delta giving a uniform grid of L*N points."""
    mla = ModularArray(L, N, d, d + extra)
    met = derived_metrics(mla, Carrier.from_wavelength(0.02))
    tol = 1e-12 * met.aperture
    pos = element_positions(mla)
    flat = pos.ravel()
    assert np.all(np.diff(flat) > 0)
    assert np.array_equal(flat, -flat[::-1])
    np.testing.assert_allclose(np.diff(pos, axis=1), d, rtol=0, atol=tol)
    np.testing.assert_allclose(pos[1:, 0] - pos[:-1, -1], mla.gap, rtol=0, atol=tol)
    np.testing.assert_allclose(np.diff(subarray_centers(mla)), 2 * mla.half_pitch,
                               rtol=0, atol=tol)
    assert met.half_pitch == mla.half_pitch
    uniform = element_positions(ModularArray(L, N, d, d)).ravel()
    np.testing.assert_allclose(uniform, (np.arange(L * N) - (L * N - 1) / 2) * d,
                               rtol=0, atol=1e-12 * L * N * d)


def test_spacing_for_aperture_roundtrip():
    for L in (2, 4, 8):
        for N in (4, 16, 64):
            gap = spacing_for_aperture(3.0, L, N, 0.005)
            met = derived_metrics(ModularArray(L, N, 0.005, gap),
                                  Carrier.from_wavelength(0.01))
            assert met.aperture == pytest.approx(3.0, abs=1e-12)


def test_spacing_for_aperture_example():
    assert spacing_for_aperture(2.0, 2, 64, 0.01) == pytest.approx(0.73, abs=1e-12)


def test_spacing_infeasible():
    # filled aperture: L*N*delta > D leaves no room for gaps >= spacing
    with pytest.raises(InfeasibleArrayError):
        spacing_for_aperture(1.2, 2, 64, 0.01)
    with pytest.raises(ValueError):
        spacing_for_aperture(2.0, 1, 64, 0.01)


def test_guard_identity():
    """Gap >= spacing is equivalent to L*N*spacing <= aperture."""
    for L, N, d, D in ((2, 64, 0.01, 2.0), (6, 32, 0.01, 2.0), (4, 16, 0.02, 3.0)):
        feasible = L * N * d <= D
        if feasible:
            assert spacing_for_aperture(D, L, N, d) >= d - 1e-12
        else:
            with pytest.raises(InfeasibleArrayError):
                spacing_for_aperture(D, L, N, d)


@settings(max_examples=300, deadline=None)
@given(L=st.integers(2, 40), N=st.integers(1, 64),
       spacing=st.floats(1e-3, 0.05, allow_nan=False, allow_infinity=False))
def test_contiguous_aperture_is_feasible(L, N, spacing):
    """An aperture of exactly L*N*spacing gives the contiguous layout, gap =
    spacing (the formula may round it an ulp below), and any shorter
    aperture still raises, stating the shortfall."""
    aperture = L * N * spacing
    gap = spacing_for_aperture(aperture, L, N, spacing)
    assert gap >= spacing
    assert gap == pytest.approx(spacing, rel=1e-12)
    short = aperture * (1 - 1e-6)
    with pytest.raises(InfeasibleArrayError, match=f"{L * N * spacing:.6g} m, .* m more"):
        spacing_for_aperture(short, L, N, spacing)


def test_fixed_aperture_half_pitch():
    # at fixed aperture the half pitch depends on L and N only through (D - N*delta)
    D, d = 2.0, 0.01
    for L in (2, 4, 10):
        for N in (4, 16):
            hp = ModularArray(L, N, d, spacing_for_aperture(D, L, N, d)).half_pitch
            assert hp == pytest.approx((D - N * d) / (2 * (L - 1)), abs=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        ModularArray(0, 4, 0.01, 0.1)
    with pytest.raises(ValueError):
        ModularArray(2, 4, -0.01, 0.1)
    with pytest.raises(ValueError):
        ModularArray(2, 4, 0.01, 0.005)  # gap below spacing
    # the closed forms square the spacing, the metrics the aperture
    for L, d, gap in ((1, 1e300, 1e300), (2, 0.01, 1e160), (2, math.nan, 0.1)):
        with pytest.raises(ValueError, match="finite square"):
            ModularArray(L, 4, d, gap)
