import math
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from mlabeam import (Carrier, ModularArray, NullNotFoundError, TxPoint, crossrange_gain,
                     derived_metrics, element_positions, exact_field, first_null_after_focus,
                     focus_chain, gain_exact_sweep, gain_mla_fresnel, gain_ula_fresnel,
                     half_power_beamwidth, matched_filter_weights, ripple_metrics,
                     spacing_for_aperture, subarray_centers)
from mlabeam.cli import _centered_linspace
from mlabeam import numerics
from mlabeam.numerics import gauss_legendre_rule

LAM = Carrier.from_wavelength(0.02)


def _mla(L, N, half_pitch, d=0.01):
    # the array whose adjacent sub-array centers sit 2 * half_pitch apart
    return ModularArray(L, N, d, 2 * half_pitch - (N - 1) * d)


def test_exact_field_on_axis():
    # boresight magnitude falls as 1/z with the free-space normalization
    for z in (5.0, 30.0, 120.0):
        E = exact_field(0.0, 0.0, TxPoint(0.0, 0.0, z), 0.02)
        assert abs(E) == pytest.approx(1.0 / (math.sqrt(4 * math.pi) * z), rel=1e-12)


def test_exact_field_magnitude_and_phase():
    x, y = 0.3, -0.2
    tx = TxPoint(0.1, 0.0, 25.0)
    E = exact_field(x, y, tx, 0.02)
    rho2 = (x - tx.x) ** 2 + tx.z**2
    r2 = rho2 + (y - tx.y) ** 2
    assert abs(E) == pytest.approx(
        math.sqrt(tx.z * rho2) / r2**1.25 / math.sqrt(4 * math.pi), rel=1e-12)
    assert np.angle(E) == pytest.approx(
        math.remainder(-2 * math.pi / 0.02 * math.sqrt(r2), 2 * math.pi), abs=1e-9)


def test_exact_phase_fresnel_limit():
    """Far from the array the spherical phase matches the quadratic expansion."""
    z, x = 400.0, 0.5
    full = 2 * math.pi / 0.02 * (math.hypot(x, z) - z)
    quad_phase = math.pi * x**2 / (0.02 * z)
    assert abs(full - quad_phase) < 1e-3


def _exp_spherical(rho2, dy2, z, wavelength):
    # the field as amplitude times a complex exp, with the r2 ** 1.25 power,
    # from rho2 = dx^2 + z^2, the squared y offset and the source depth: the
    # reference the tangent form of exact_field is checked against
    r2 = rho2 + dy2
    amp = np.sqrt(z * rho2) / r2 ** 1.25 / math.sqrt(4 * math.pi)
    return amp * np.exp(-2j * math.pi / wavelength * np.sqrt(r2))


def _exp_spherical_field(rho2, dy2, z, wavelength, out):
    # gain._spherical_field's outputs from the complex-exp field, its power
    # taken as |E|^2 rather than from the amplitude alone
    power, re, im, _ = out
    E = _exp_spherical(rho2, dy2, z, wavelength)
    re[...], im[...], power[...] = E.real, E.imag, np.abs(E) ** 2


@settings(max_examples=200, deadline=None)
@given(tx=st.builds(TxPoint, st.floats(-3.0, 3.0), st.floats(-0.05, 0.05), st.floats(1e-3, 1e4)),
       wavelength=st.floats(0.005, 0.5),
       points=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-0.05, 0.05)),
                       min_size=1, max_size=64))
@example(tx=TxPoint(0.0, 0.0, 1e4), wavelength=0.02, points=[(3.0, 0.05), (-3.0, 0.0)])
@example(tx=TxPoint(0.0, 0.0, 8752.287427683556), wavelength=0.5, points=[(1.0, 0.0)])
def test_exact_field_matches_complex_exp(tx, wavelength, points):
    """The tangent half-angle form of exact_field is the amplitude times
    exp(-i k r) to within 2e-15 |E|, at phases k r up to about 3e6 (z up
    to 1e4 m at 2 cm), for array and scalar inputs alike."""
    x, y = np.array(points).T
    E = exact_field(x, y, tx, wavelength)
    # z * z as exact_field squares it: Python's z**2 goes through libm pow,
    # which can round one ulp away, and at k r ~ 1e5 an ulp of r moves the
    # phase by about 3e-11 rad
    ref = _exp_spherical((x - tx.x) ** 2 + tx.z * tx.z, (y - tx.y) ** 2, tx.z, wavelength)
    assert np.all(np.abs(E - ref) <= 2e-15 * np.abs(ref))
    E0 = exact_field(x[0], y[0], tx, wavelength)
    assert np.ndim(E0) == 0 and abs(E0 - ref[0]) <= 2e-15 * abs(ref[0])


def test_readme_beampattern_sweep_matches_complex_exp(monkeypatch):
    """README's beampattern sample (15 GHz, 2 x 64 over 2 m, focus 30 m, an
    81 x 61 grid on the command's own x samples) lies within 1e-14 of the
    sweep on the complex-exp field, whose cell energy is |E|^2."""
    carrier = Carrier.from_frequency(15e9)
    d = carrier.wavelength / 2
    mla = ModularArray(2, 64, d, spacing_for_aperture(2.0, 2, 64, d))
    X, Z = np.meshgrid(_centered_linspace(-2.0, 2.0, 81), np.linspace(10.0, 100.0, 61))
    gains = gain_exact_sweep(mla, X, Z, 30.0, carrier)

    monkeypatch.setattr("mlabeam.gain._spherical_field", _exp_spherical_field)
    np.testing.assert_allclose(gains, gain_exact_sweep(mla, X, Z, 30.0, carrier),
                               rtol=0, atol=1e-14)


def test_weights_unit_energy_and_symmetry():
    mla = ModularArray(2, 64, 0.01, 0.73)
    W = matched_filter_weights(mla, 30.0, LAM)
    assert W.shape == (2, 64)
    assert np.sum(np.abs(W) ** 2) == pytest.approx(1.0, abs=1e-12)
    # focusing phase is even in position, so mirrored elements share one weight
    np.testing.assert_allclose(W, W[::-1, ::-1], atol=1e-14)


def test_weights_far_focus_uniform():
    mla = ModularArray(2, 8, 0.01, 0.2)
    W = matched_filter_weights(mla, math.inf, LAM)
    np.testing.assert_allclose(W, 1.0 / math.sqrt(16), atol=1e-15)


def _aperture_integral(half_width, z_eff, lam, center=0.0):
    # numeric reference for the quadratic-phase strip integral
    f_re = lambda u: math.cos(math.pi * u**2 / (lam * z_eff))
    f_im = lambda u: math.sin(math.pi * u**2 / (lam * z_eff))
    lo, hi = center - half_width, center + half_width
    re, _ = quad(f_re, lo, hi, limit=400)
    im, _ = quad(f_im, lo, hi, limit=400)
    return complex(re, im)


@pytest.mark.parametrize("z", [12.0, 20.0, 45.0, 90.0])
def test_ula_closed_form_vs_quadrature(z):
    """The product-of-strip-integrals identity checked against scipy.quad."""
    N, d, F = 64, 0.01, 30.0
    z_eff = F * z / abs(F - z)
    I_el = _aperture_integral(d / 2, z_eff, 0.02)
    I_ap = _aperture_integral(N * d / 2, z_eff, 0.02)
    ref = abs(I_el * I_ap / (N * d**2)) ** 2
    assert gain_ula_fresnel(N, d, F, z, LAM) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("z", [12.0, 20.0, 45.0])
def test_mla_closed_form_vs_quadrature(z):
    L, N, d, gap = 2, 64, 0.01, 0.73
    mla = ModularArray(L, N, d, gap)
    F = 30.0
    z_eff = F * z / abs(F - z)
    centers = subarray_centers(mla)
    I_el = _aperture_integral(d / 2, z_eff, 0.02)
    J = sum(_aperture_integral(N * d / 2, z_eff, 0.02, center=c) for c in centers)
    ref = abs(I_el * J / (L * N * d**2)) ** 2
    assert gain_mla_fresnel(mla, F, z, LAM) == pytest.approx(ref, rel=1e-9)


def test_gain_at_focus_is_one():
    assert gain_mla_fresnel(_mla(2, 64, 0.68), 30.0, 30.0, LAM) == 1.0
    assert gain_ula_fresnel(64, 0.01, 30.0, 30.0, LAM) == 1.0


def test_zeff_pairs_equal_gain():
    # (F=30, z=20) and (F=10, z=12) share z_eff=60
    mla = _mla(2, 64, 0.68)
    g1 = gain_mla_fresnel(mla, 30.0, 20.0, LAM)
    g2 = gain_mla_fresnel(mla, 10.0, 12.0, LAM)
    assert g1 == pytest.approx(g2, rel=1e-12)


# an array of 1 to 16 sub-arrays, N elements each at spacing d (m), with a
# gap of d plus up to 1 m, so sub-arrays never overlap; and a focus (m)
_geometries = st.tuples(
    st.builds(lambda L, N, d, extra: ModularArray(L, N, d, d + extra),
              st.integers(1, 16), st.integers(1, 64),
              st.floats(0.002, 0.05), st.floats(0.0, 1.0)),
    st.floats(0.5, 200.0))
_depth_factors = st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20)


@settings(max_examples=60, deadline=None)
@given(geometry=_geometries, factors=_depth_factors)
def test_closed_forms_take_arrays_of_depths(geometry, factors):
    """An array of depths gives, element by element, the scalar call's bits;
    the focus itself gives exactly 1."""
    mla, F = geometry
    N, d = mla.elements_per_subarray, mla.spacing
    zs = np.array([F, *(F * f for f in factors)])
    g_mla = gain_mla_fresnel(mla, F, zs, LAM)
    g_ula = gain_ula_fresnel(N, d, F, zs, LAM)
    assert g_mla.shape == g_ula.shape == zs.shape
    for i, z in enumerate(zs):
        a = gain_mla_fresnel(mla, F, float(z), LAM)
        b = gain_ula_fresnel(N, d, F, float(z), LAM)
        assert type(a) is float and type(b) is float
        assert a == g_mla[i] and b == g_ula[i]
    assert g_mla[0] == 1.0 and g_ula[0] == 1.0
    # a physical geometry's closed-form gain lies in [0, 1]
    for g in (g_mla, g_ula):
        assert np.all((g >= 0) & (g <= 1 + 1e-9))


@pytest.mark.parametrize("bad", [0.0, -3.0])
def test_closed_forms_reject_depth_behind_array_in_array(bad):
    zs = np.array([10.0, bad, 40.0])
    with pytest.raises(ValueError):
        gain_mla_fresnel(_mla(2, 64, 0.68), 30.0, zs, LAM)
    with pytest.raises(ValueError):
        gain_ula_fresnel(64, 0.01, 30.0, zs, LAM)


@settings(max_examples=60, deadline=None)
@given(geometry=_geometries, factors=_depth_factors)
def test_degeneration_to_contiguous(geometry, factors):
    """Gap equal to spacing makes the sub-arrays one contiguous aperture."""
    mla, F = geometry
    L, N, d = mla.num_subarrays, mla.elements_per_subarray, mla.spacing
    zs = np.array([F * f for f in factors])
    a = gain_mla_fresnel(ModularArray(L, N, d, d), F, zs, LAM)
    b = gain_mla_fresnel(ModularArray.ula(L * N, d), F, zs, LAM)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_exact_matches_closed_form_near_focus():
    """Even and odd sub-array counts alike; at L = 3 the middle sub-array
    sits on the axis."""
    zs = np.array([15.0, 30.0, 70.0])
    for L in (2, 3):
        mla = ModularArray(L, 64, 0.01, 0.73)
        ge = gain_exact_sweep(mla, np.zeros(3), zs, 30.0, LAM)
        gf = gain_mla_fresnel(mla, 30.0, zs, LAM)
        assert np.all(np.abs(ge - gf) < 0.01)


def _unfolded_gain(mla, tx, focus, rule):
    # the full order x order tensor rule on every cell, one source at a time
    d = mla.spacing
    w = matched_filter_weights(mla, focus, LAM, rule).ravel()
    pos = element_positions(mla).ravel()
    w2 = np.outer(rule.weights, rule.weights)
    X = pos[:, None, None] + 0.5 * d * rule.nodes[None, :, None]
    Y = 0.5 * d * rule.nodes[None, None, :]
    E = exact_field(X, Y, tx, 0.02)
    cells = (E * w2).sum(axis=(1, 2)) * (0.25 * d * d)
    energy = (np.abs(E) ** 2 * w2).sum() * 0.25 * d * d
    return abs((w * cells).sum()) ** 2 / (d * d * energy)


@pytest.mark.parametrize("order", [8, 7])
def test_folded_quadrature_matches_unfolded(order):
    """Mirror-paired y nodes share one field sample (an odd rule keeps its
    middle node alone); the result matches the full tensor rule."""
    rule = gauss_legendre_rule(order)
    mla = ModularArray(2, 8, 0.01, 0.3)
    xs = np.array([0.0, 0.4, -1.3, 0.05])
    zs = np.array([3.0, 12.0, 30.0, 80.0])
    sweep = gain_exact_sweep(mla, xs, zs, 20.0, LAM, rule=rule)
    ref = [_unfolded_gain(mla, TxPoint(x, 0.0, z), 20.0, rule) for x, z in zip(xs, zs)]
    np.testing.assert_allclose(sweep, ref, rtol=1e-12, atol=0)


# sub-arrays, elements per sub-array, spacing (m), gap beyond the spacing (m),
# focus (m), then source offsets and depths in units of the aperture
@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 6), N=st.integers(1, 32), d=st.floats(0.005, 0.02),
       extra=st.floats(0.0, 1.0), F=st.one_of(st.floats(0.5, 200.0), st.just(math.inf)),
       sources=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(1e-3, 50.0)),
                        min_size=1, max_size=6))
@example(L=1, N=1, d=0.01, extra=0.0, F=math.inf, sources=[(0.0, 0.5), (0.3, 2.0)])
@example(L=3, N=7, d=0.01, extra=0.2, F=30.0, sources=[(0.25, 1.0), (1.5, 0.01)])
def test_exact_sweep_mirror_sources(L, N, d, extra, F, sources):
    """The sweep evaluates (x, z) and (-x, z) as one source, so their gains
    agree bit for bit, and the gains of signed sources still match the
    unfolded quadrature, which evaluates each source where it lies."""
    mla = ModularArray(L, N, d, d + extra)
    aperture = derived_metrics(mla, LAM).aperture
    u, v = np.array(sources).T
    xs, zs = aperture * np.concatenate([u, -u]), aperture * np.concatenate([v, v])
    g = gain_exact_sweep(mla, xs, zs, F, LAM)
    assert np.array_equal(g[:u.size], g[u.size:])
    rule = gauss_legendre_rule(8)
    ref = [_unfolded_gain(mla, TxPoint(x, 0.0, z), F, rule) for x, z in zip(xs, zs)]
    np.testing.assert_allclose(g, ref, rtol=1e-12, atol=0)


SWEEP_BLOCK_SAMPLES = [1, 5000, 20000, 10**9]


@pytest.mark.parametrize("samples", SWEEP_BLOCK_SAMPLES)
def test_exact_sweep_does_not_depend_on_block_size(samples, monkeypatch):
    """One point per block, a few, several, all in one: the same bits."""
    mla = ModularArray(2, 16, 0.01, 0.2)
    X, Z = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(5.0, 60.0, 7))
    default = gain_exact_sweep(mla, X, Z, 30.0, LAM)
    monkeypatch.setattr("mlabeam.gain._SWEEP_BLOCK_SAMPLES", samples)
    assert np.array_equal(gain_exact_sweep(mla, X, Z, 30.0, LAM), default)


@pytest.mark.parametrize("samples", SWEEP_BLOCK_SAMPLES)
def test_exact_sweep_does_not_depend_on_worker_count(samples, monkeypatch):
    """Each worker evaluates a contiguous range of blocks: at every block size,
    1, 2 and 3 workers give the bits of the one-worker default-block sweep."""
    mla = ModularArray(2, 16, 0.01, 0.2)
    X, Z = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(5.0, 60.0, 7))
    monkeypatch.setattr("mlabeam.numerics._WORKERS", 1)
    default = gain_exact_sweep(mla, X, Z, 30.0, LAM)
    monkeypatch.setattr("mlabeam.gain._SWEEP_BLOCK_SAMPLES", samples)
    for workers in (1, 2, 3):
        monkeypatch.setattr("mlabeam.numerics._WORKERS", workers)
        assert np.array_equal(gain_exact_sweep(mla, X, Z, 30.0, LAM), default)


# 2 x 16 elements give 1,024 field samples per source; 4 x 256 give 32,768,
# a row long enough for a BLAS dot to split over its threads
SWEEP_ROWS = [ModularArray(2, 16, 0.01, 0.2), ModularArray(4, 256, 0.01, 0.2)]


@pytest.mark.parametrize("mla", SWEEP_ROWS, ids=["1024_samples", "32768_samples"])
def test_exact_sweep_rows_do_not_depend_on_blocks_workers_or_blas(mla, monkeypatch):
    """Each source's row is reduced in one piece: one, three or all sources
    per block on 1, 2 and 3 workers, and BLAS at one or two threads, give
    the bits of the one-worker default-block sweep."""
    X, Z = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(5.0, 60.0, 3))
    monkeypatch.setattr("mlabeam.numerics._WORKERS", 1)
    default = gain_exact_sweep(mla, X, Z, 30.0, LAM)
    row = 4 * 8 * mla.num_elements
    for samples in (1, 3 * row, 10**9):
        monkeypatch.setattr("mlabeam.gain._SWEEP_BLOCK_SAMPLES", samples)
        for workers in (1, 2, 3):
            monkeypatch.setattr("mlabeam.numerics._WORKERS", workers)
            assert np.array_equal(gain_exact_sweep(mla, X, Z, 30.0, LAM), default)
    if numerics._BLAS_THREADS is None:
        return
    get, put = numerics._BLAS_THREADS
    old = get()
    try:
        for threads in (1, 2):
            put(threads)
            assert np.array_equal(gain_exact_sweep(mla, X, Z, 30.0, LAM), default)
    finally:
        put(old)


# sub-arrays, elements per sub-array, spacing (m), gap beyond the spacing (m),
# focus (m), field samples per block, then source offsets and depths in
# units of the aperture
@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 6), N=st.integers(1, 32), d=st.floats(0.005, 0.02),
       extra=st.floats(0.0, 1.0), F=st.one_of(st.floats(0.5, 200.0), st.just(math.inf)),
       samples=st.integers(1, 1 << 16),
       sources=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(1e-3, 50.0)),
                        min_size=1, max_size=8))
def test_exact_sweep_source_alone_matches_batch(L, N, d, extra, F, samples, sources):
    """A source swept alone gets the bits it gets in the batch, at any block
    size, and every gain lies in [0, 1]."""
    mla = ModularArray(L, N, d, d + extra)
    aperture = derived_metrics(mla, LAM).aperture
    u, v = np.array(sources).T
    xs, zs = aperture * u, aperture * v
    with unittest.mock.patch("mlabeam.gain._SWEEP_BLOCK_SAMPLES", samples):
        g = gain_exact_sweep(mla, xs, zs, F, LAM)
        alone = [gain_exact_sweep(mla, xs[i:i + 1], zs[i:i + 1], F, LAM)[0]
                 for i in range(xs.size)]
    assert np.array_equal(g, alone)
    assert np.all((g >= 0) & (g <= 1))


def test_exact_sweep_rejects_source_behind_array():
    mla = ModularArray(2, 16, 0.01, 0.2)
    with pytest.raises(ValueError):
        gain_exact_sweep(mla, np.zeros(3), np.array([10.0, 0.0, 20.0]), 30.0, LAM)


@pytest.mark.parametrize("coordinate", ["x", "z"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_sweep_rejects_non_finite_sources(coordinate, bad):
    """A NaN depth passed the z <= 0 check, and NaN or inf in either
    coordinate came back as NaN gains; each is now refused."""
    mla = ModularArray(2, 16, 0.01, 0.2)
    xs, zs = np.zeros(3), np.array([10.0, 20.0, 30.0])
    (xs if coordinate == "x" else zs)[1] = bad
    with pytest.raises(ValueError, match="finite"):
        gain_exact_sweep(mla, xs, zs, 30.0, LAM)


@settings(max_examples=200, deadline=None)
@given(L=st.integers(1, 60), N=st.integers(1, 64), d=st.floats(0.002, 0.05),
       extra=st.floats(0.0, 1.0), F=st.floats(0.5, 200.0),
       lobes=st.lists(st.one_of(st.integers(-4, 4), st.floats(-4.0, 4.0)), min_size=1,
                      max_size=30))
@example(L=6, N=16, d=0.01, extra=0.05, F=30.0, lobes=[-1, -0.5, 0.25, 1, 2])
@example(L=1, N=64, d=0.01, extra=0.0, F=30.0, lobes=[1, 3.5])
@example(L=60, N=1, d=0.01, extra=0.0, F=0.5, lobes=[-4, -1, 1, 4, 1 / 60])
def test_crossrange_matches_phasor_sum(L, N, d, extra, F, lobes):
    """The closed-form array factor equals the complex phasor sum over the
    sub-array centers, for odd and even L, at offsets given in units of the
    grating-lobe spacing lambda F / (2 h): whole units are the grating lobes,
    where sin t = 0. The envelope is the sub-array's sinc^2, the gain never
    exceeds it, and the gain is 1 at x = 0."""
    mla = ModularArray(L, N, d, d + extra)
    xs = np.array([0.0, *lobes]) * (LAM.wavelength * F / (2 * mla.half_pitch))
    g, env = crossrange_gain(mla, F, xs, LAM)
    phasor = np.exp(2j * np.pi * np.outer(xs, subarray_centers(mla)) / (LAM.wavelength * F))
    np.testing.assert_allclose(g, env * np.abs(phasor.sum(axis=1) / L) ** 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(env, np.sinc(N * d * xs / (LAM.wavelength * F)) ** 2, atol=1e-14)
    assert np.all(g <= env)
    assert g[0] == 1.0


def test_crossrange_center_and_null():
    mla = _mla(2, 64, 0.68)
    g0, e0 = crossrange_gain(mla, 30.0, 0.0, LAM)
    assert g0 == pytest.approx(1.0) and e0 == pytest.approx(1.0)
    # two-subarray factor vanishes where the center separation phase hits pi/2
    x_null = 0.02 * 30.0 / (4 * 0.68)
    g, _ = crossrange_gain(mla, 30.0, x_null, LAM)
    assert abs(g) < 1e-20


@settings(max_examples=60, deadline=None)
@given(geometry=_geometries, offsets=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=50))
def test_envelope_dominates(geometry, offsets):
    mla, F = geometry
    g, env = crossrange_gain(mla, F, np.array(offsets), LAM)
    assert np.all(g <= env + 1e-12)
    assert np.all(g >= 0.0)


def test_half_power_beamwidth_value():
    mla = _mla(2, 64, 0.68)
    bw = half_power_beamwidth(mla, 30.0, LAM)
    assert bw == pytest.approx(1.77 * 30.0 / 64)
    _, env = crossrange_gain(mla, 30.0, bw / 2, LAM)
    assert env == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("spacing, focus", [(1e-300, 30.0), (1e-300, 1.0), (0.001, 1e308)])
def test_half_power_beamwidth_must_be_finite(spacing, focus):
    """A spacing of 1e-300 m against a 3e299 m wavelength underflows to 0
    wavelengths (once a ZeroDivisionError), and a 1e308 m focus at a spacing
    of a twentieth of a wavelength overflows the width: each is a ValueError."""
    carrier = Carrier.from_frequency(1e-291) if spacing < 1e-200 else LAM
    with pytest.raises(ValueError, match="no finite half-power beamwidth"):
        half_power_beamwidth(ModularArray.ula(4, spacing), focus, carrier)


@pytest.mark.parametrize("wavelengths", [0.25, 0.5])
def test_crossrange_cut_follows_spacing(wavelengths):
    """The closed-form cut and its half-power window track the exact gain at
    any element spacing, for an even and an odd sub-array count."""
    d, F = wavelengths * LAM.wavelength, 10.0
    for L in (2, 3):
        mla = ModularArray(L, 64, d, spacing_for_aperture(2.0, L, 64, d))
        bw = half_power_beamwidth(mla, F, LAM)
        xs = np.linspace(-bw, bw, 201)
        g, env = crossrange_gain(mla, F, xs, LAM)
        exact = gain_exact_sweep(mla, xs, np.full_like(xs, F), F, LAM)
        np.testing.assert_allclose(g, exact, atol=0.03)
    assert crossrange_gain(ModularArray.ula(64, d), F, bw / 2, LAM)[1] == pytest.approx(
        0.5, abs=0.01)


# sub-arrays, elements per sub-array, spacing (m), gap beyond the spacing (m),
# focus (m), then source offsets and depths in units of the aperture
@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 6), N=st.integers(1, 32), d=st.floats(0.005, 0.02),
       extra=st.floats(0.0, 1.0), F=st.floats(0.5, 200.0),
       sources=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(1e-3, 50.0)),
                        min_size=1, max_size=8))
# 2 x 8 over a 2 m aperture, sources beside the sub-arrays and far nearer than
# the aperture: a gain normalized by one cell at the origin reached 80.9 here
@example(L=2, N=8, d=0.01, extra=1.84, F=30.0,
         sources=[(-0.5, 0.025), (0.5, 0.025), (-0.485, 0.025), (0.45, 0.31), (0.0, 0.5)])
def test_exact_gain_in_unit_interval(L, N, d, extra, F, sources):
    """The exact gain lies in [0, 1] for sources at any depth (Cauchy-Schwarz
    on the energy all cells receive)."""
    mla = ModularArray(L, N, d, d + extra)
    aperture = derived_metrics(mla, LAM).aperture
    u, v = np.array(sources).T
    g = gain_exact_sweep(mla, aperture * u, aperture * v, F, LAM)
    assert np.all((g >= 0) & (g <= 1))


def test_ripple_metrics_values():
    r = ripple_metrics(64, 0.68, LAM)
    assert (r.predicted_peak_count, r.single_peak) == (1, True)
    assert r.ula_fraction == pytest.approx(0.64, abs=1e-12)
    r16 = ripple_metrics(16, 0.92, LAM)
    assert (r16.predicted_peak_count, r16.single_peak) == (11, False)
    assert r16.ula_fraction == pytest.approx(0.16, abs=1e-12)


def test_first_null_location_and_depth():
    mla = _mla(4, 16, 0.14)
    z1 = first_null_after_focus(mla, 2.0, LAM)
    assert z1 == pytest.approx(2.6745, abs=1e-3)
    g_null = gain_mla_fresnel(mla, 2.0, z1, LAM)
    assert g_null < 0.05
    # genuine minimum: the gain rises on both sides
    assert gain_mla_fresnel(mla, 2.0, z1 - 0.05, LAM) > g_null
    assert gain_mla_fresnel(mla, 2.0, z1 + 0.05, LAM) > g_null


def test_focus_chain_values():
    chain = focus_chain(_mla(4, 16, 0.14), 2.0, LAM, 4)
    assert len(chain) == 4
    np.testing.assert_allclose(chain, [2.0, 2.6745, 4.0356, 8.2176], atol=5e-3)
    assert np.all(np.diff(chain) > 0)
    assert all(type(f) is float for f in chain)


@pytest.mark.parametrize("count", [0, -3])
def test_focus_chain_rejects_count_below_one(count):
    """A chain of count foci has at least one; 0 and -3 once returned [first_focus]."""
    with pytest.raises(ValueError, match="at least one focus"):
        focus_chain(_mla(4, 16, 0.14), 2.0, LAM, count)


def test_no_null_beyond_fraunhofer():
    # a focus past the far-field boundary leaves no deep on-axis minimum
    with pytest.raises(NullNotFoundError):
        first_null_after_focus(_mla(2, 64, 0.68), 500.0, LAM)
