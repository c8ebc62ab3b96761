import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from mlabeam import design
from mlabeam import (Carrier, DesignInput, InfeasibleArrayError, count_peaks,
                     design_num_arrays, spacing_for_aperture)

LAM = Carrier.from_wavelength(0.02)


def test_count_unimodal():
    xs = np.linspace(-0.4, 0.4, 301)
    assert count_peaks(np.sinc(64 * xs / 60.0) ** 2) == 1


def test_count_five_cosine_maxima():
    # envelope times cos^2(pi x / w) with maxima at 0, +-w, +-2w inside the window
    w = 0.1
    xs = np.linspace(-2.4 * w, 2.4 * w, 301)
    sig = np.sinc(xs / (3 * w)) ** 2 * np.cos(np.pi * xs / w) ** 2
    assert count_peaks(sig) == 5


def test_count_constant():
    assert count_peaks(np.ones(301)) == 0


def test_count_needs_three_samples():
    with pytest.raises(ValueError):
        count_peaks(np.array([1.0, 2.0]))


def test_count_endpoint_maxima_excluded():
    xs = np.linspace(0.0, 1.0, 301)
    # maxima at 0, 0.2, ..., 1.0; the two window edges must not count
    assert count_peaks(0.5 + 0.5 * np.cos(10 * np.pi * xs)) == 4


def test_prominence_threshold():
    xs = np.linspace(0, 1, 501)
    main = np.exp(-(((xs - 0.3) / 0.05) ** 2))
    side = np.exp(-(((xs - 0.75) / 0.03) ** 2))
    assert count_peaks(main + 2e-3 * side) == 1
    assert count_peaks(main + 5e-2 * side) == 2


def _scipy_pchip(y, upsample):
    # scipy overflows 3 / secant at a subnormal secant, as the numpy PCHIP
    # does, but lets the warning out
    with np.errstate(over="ignore"):
        return PchipInterpolator(np.arange(y.size, dtype=float), y)(
            np.linspace(0.0, y.size - 1.0, upsample * y.size))


def _count_peaks_loop(samples, prominence, upsample):
    # the per-run walk count_peaks replaced, kept as its reference, on
    # scipy's PCHIP
    dense = _scipy_pchip(np.asarray(samples, dtype=float), upsample)
    keep = np.empty(dense.size, dtype=bool)
    keep[0] = True
    keep[1:] = dense[1:] != dense[:-1]
    runs = dense[keep]
    count = 0
    for i in range(1, runs.size - 1):
        if not (runs[i] > runs[i - 1] and runs[i] > runs[i + 1]):
            continue
        j = i
        while j > 0 and runs[j - 1] < runs[j]:
            j -= 1
        left_min = runs[j]
        j = i
        while j < runs.size - 1 and runs[j + 1] < runs[j]:
            j += 1
        right_min = runs[j]
        if runs[i] - max(left_min, right_min) >= prominence:
            count += 1
    return count


# repeated values, plateaus and zero prominence
COUNT_PEAKS_INPUTS = dict(
    samples=st.lists(st.sampled_from([0.0, 0.005, 0.25, 0.5, 0.51, 1.0]), min_size=3,
                     max_size=60),
    prominence=st.sampled_from([0.0, 1e-2, 0.2, 0.6]),
    upsample=st.sampled_from([1, 2, 10]))


@settings(max_examples=200, deadline=None)
@given(**COUNT_PEAKS_INPUTS)
def test_count_peaks_matches_loop(samples, prominence, upsample):
    """Repeated values, plateaus and zero prominence give the loop's count."""
    assert count_peaks(samples, prominence, upsample) == _count_peaks_loop(
        samples, prominence, upsample)


@settings(max_examples=200, deadline=None)
@given(**COUNT_PEAKS_INPUTS, scale=st.sampled_from([1.0, 1e-3, 37.5]),
       wiggle=st.floats(0.0, 1e-3))
def test_pchip_matches_scipy(samples, prominence, upsample, scale, wiggle):
    """The numpy PCHIP gives scipy's dense values and hence its peak counts;
    a small ramp breaks the generator's plateaus into near-plateaus."""
    y = scale * (np.asarray(samples) + wiggle * np.arange(len(samples)))
    np.testing.assert_allclose(design._pchip_upsample(y, upsample), _scipy_pchip(y, upsample),
                               rtol=0, atol=1e-15 * scale)
    assert count_peaks(y, prominence * scale, upsample) == _count_peaks_loop(
        y, prominence * scale, upsample)


@pytest.mark.filterwarnings("error")
def test_pchip_subnormal_secant_matches_scipy():
    """A subnormal secant overflows 3 / secant to inf, which the harmonic mean
    turns into a zero slope, as in scipy (which warns there); the numpy PCHIP
    raises no warning and gives scipy's values."""
    y = np.array([0.0, 1e-310, 2e-310, 1.0, 0.5])
    np.testing.assert_allclose(design._pchip_upsample(y, 10), _scipy_pchip(y, 10), rtol=0,
                               atol=1e-15)


def test_design_imports_no_interpolation():
    """scipy.interpolate costs about a quarter second to import, and no
    library module needs it."""
    code = "import sys, mlabeam.cli; print(any(m.startswith('scipy.interpolate') for m in sys.modules))"
    src = str(Path(design.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
    tree = ast.parse(Path(design.__file__).read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def test_design_n64_needs_two():
    res = design_num_arrays(DesignInput(2.0, 30.0, 64, LAM, spacing=0.01))
    assert res.num_subarrays == 2
    assert res.final_peak_count == 1
    assert res.single_peak and not res.guard_limited
    assert res.gap == pytest.approx(0.73, abs=1e-12)


def test_design_returned_layout_feasible():
    for n in (8, 16, 32, 64):
        res = design_num_arrays(DesignInput(2.0, 30.0, n, LAM, spacing=0.01))
        assert res.num_subarrays % 2 == 0
        assert spacing_for_aperture(2.0, res.num_subarrays, n, 0.01) >= 0.01 - 1e-12


def test_design_sweep_monotone():
    counts = (1, 2, 4, 8, 16, 32, 64)
    results = [design_num_arrays(DesignInput(2.0, 30.0, n, LAM, spacing=0.01)) for n in counts]
    Ls = [r.num_subarrays for r in results]
    assert Ls == [200, 100, 50, 24, 12, 6, 2]
    assert all(a >= b for a, b in zip(Ls, Ls[1:]))


def test_design_filled_aperture_boundary():
    # N=100: the first even L makes a contiguous 2 m aperture, exactly the guard
    res = design_num_arrays(DesignInput(2.0, 30.0, 100, LAM, spacing=0.01))
    assert res.num_subarrays == 2
    assert res.aperture_filled
    assert res.single_peak


def test_design_guard_limited_single_element():
    res = design_num_arrays(DesignInput(2.0, 30.0, 1, LAM, spacing=0.01))
    assert res.num_subarrays == 200
    assert res.guard_limited
    assert res.final_peak_count > 1


def test_design_trace_records_iterations():
    res = design_num_arrays(DesignInput(2.0, 30.0, 32, LAM, spacing=0.01))
    Ls = [L for L, _ in res.peak_trace]
    assert Ls == sorted(Ls)
    assert Ls[0] == 2 and Ls[-1] == res.num_subarrays


def test_design_infeasible_from_start():
    # N*delta below D but even the first layout cannot fit its gaps
    with pytest.raises(InfeasibleArrayError):
        design_num_arrays(DesignInput(2.0, 30.0, 150, LAM, spacing=0.01))


def test_design_input_validation():
    for aperture, focus, n in ((0.0, 30.0, 16), (2.0, -30.0, 16), (2.0, 30.0, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            DesignInput(aperture, focus, n, LAM, spacing=0.01)
    with pytest.raises(ValueError):
        DesignInput(2.0, 30.0, 300, LAM, spacing=0.01)  # single sub-array overfills
    with pytest.raises(ValueError):
        DesignInput(2.0, 30.0, 16, LAM, spacing=0.01, grid_points=8)
