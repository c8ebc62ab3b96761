import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _count_peaks_loop(samples, prominence):
    # the per-run walk count_peaks replaced, kept as its reference
    y = np.asarray(samples, dtype=float)
    keep = np.empty(y.size, dtype=bool)
    keep[0] = True
    keep[1:] = y[1:] != y[:-1]
    runs = y[keep]
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


@settings(max_examples=400, deadline=None)
@given(samples=st.lists(st.sampled_from([0.0, 0.005, 0.25, 0.5, 0.51, 1.0]), min_size=3,
                        max_size=60),
       prominence=st.sampled_from([0.0, 1e-2, 0.2, 0.6]),
       scale=st.sampled_from([1.0, 1e-3, 37.5]), wiggle=st.floats(0.0, 1e-3))
def test_count_peaks_matches_loop(samples, prominence, scale, wiggle):
    """Repeated values, plateaus and zero prominence give the loop's count; a
    small ramp breaks the generator's plateaus into near-plateaus."""
    y = scale * (np.asarray(samples) + wiggle * np.arange(len(samples)))
    assert count_peaks(y, prominence * scale) == _count_peaks_loop(y, prominence * scale)


def test_count_one_ulp_top_pair():
    """A top pair one ulp apart is one peak; resampling it once spread the ulp
    into a 1e-16 wobble that split the top into shallow peaks and counted 0."""
    assert count_peaks([0.0, 0.5, 1.0, 1.0 + 2**-52, 0.5, 0.0]) == 1


@settings(max_examples=200, deadline=None)
@given(rise=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=20),
       fall=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=20),
       top=st.floats(0.95, 1.0))
def test_count_rise_ulp_pair_fall_is_one_peak(rise, fall, top):
    """Values rising to a top pair one ulp apart and then falling are one peak."""
    y = [*sorted(rise), top, np.nextafter(top, np.inf), *sorted(fall, reverse=True)]
    assert count_peaks(y) == 1


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


def test_design_wide_aperture_near_focus_keeps_five_peaks():
    """At 3 m aperture and 2 m focus with N=16 the main lobe's two center
    samples differ by one ulp; the search runs to the guard with the main
    lobe and two symmetric side-lobe pairs left in the window."""
    res = design_num_arrays(DesignInput(3.0, 2.0, 16, Carrier.from_frequency(15e9)))
    assert res.num_subarrays == 18
    assert res.guard_limited
    assert res.final_peak_count == 5


def test_design_input_validation():
    for aperture, focus, n in ((0.0, 30.0, 16), (2.0, -30.0, 16), (2.0, 30.0, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            DesignInput(aperture, focus, n, LAM, spacing=0.01)
    with pytest.raises(ValueError):
        DesignInput(2.0, 30.0, 300, LAM, spacing=0.01)  # single sub-array overfills
    with pytest.raises(ValueError):
        DesignInput(2.0, 30.0, 16, LAM, spacing=0.01, grid_points=8)


@pytest.mark.parametrize("aperture, focus", [(2.0, math.inf), (2.0, math.nan),
                                             (math.inf, 30.0), (math.nan, 30.0)])
def test_design_input_refuses_non_finite_aperture_or_focus(aperture, focus):
    """An infinite or NaN focus once sampled an all-NaN window and returned
    L = 12 with 0 peaks; the aperture and focus must be finite."""
    with pytest.raises(ValueError, match="must be finite"):
        DesignInput(aperture, focus, 16, Carrier.from_frequency(15e9))


def test_design_input_needs_grid_points_to_resolve_lobes():
    """The window's sample step may be at most lambda F / D: at N = 1, 2 m and
    0.01 m spacing that is 1 + 1.77 * 2 / 0.02 = 178 points, whatever the
    wavelength and focus."""
    for car, focus in ((LAM, 30.0), (Carrier.from_frequency(1e12), 0.5)):
        DesignInput(2.0, focus, 1, car, spacing=0.01, grid_points=178)
        with pytest.raises(ValueError, match=r"needs at least 178 grid points"):
            DesignInput(2.0, focus, 1, car, spacing=0.01, grid_points=177)
