"""Choose the number of sub-arrays that focuses a single beam peak.

The search raises the sub-array count two at a time, spreads the sub-arrays
over the fixed total aperture, and samples the cross-range gain inside the
half-power window until only one genuine peak remains or no larger count
fits the aperture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import Carrier, InfeasibleArrayError, ModularArray, spacing_for_aperture
from .gain import crossrange_gain, half_power_beamwidth

# Peaks shallower than this are treated as numerical ripple. Genuine lobes of
# the cosine-modulated envelope are two orders of magnitude more prominent.
PEAK_PROMINENCE = 1e-2


def _end_slope(m0: float, m1: float) -> float:
    # one-sided three-point slope, clipped to keep the end monotone
    d = (3.0 * m0 - m1) / 2.0
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_upsample(y: np.ndarray, upsample: int) -> np.ndarray:
    """Monotone cubic (PCHIP) interpolant of y at unit spacing, evaluated at
    upsample * len(y) evenly spaced points from the first sample to the last.

    Fritsch-Carlson slopes inside (the harmonic mean of the two secant
    slopes, 0 at a local extremum), one-sided three-point slopes at the ends,
    and each piece's Hermite cubic evaluated in the order scipy's
    PchipInterpolator uses, so the values match it.
    """
    m = np.diff(y)
    d = np.empty_like(y)
    left, right = m[:-1], m[1:]
    smooth = (np.sign(left) == np.sign(right)) & (left != 0) & (right != 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d[1:-1] = np.where(smooth, 1.0 / ((3.0 / left + 3.0 / right) / 6.0), 0.0)
    d[0], d[-1] = _end_slope(m[0], m[1]), _end_slope(m[-1], m[-2])
    cubic = d[:-1] + d[1:] - 2 * m
    square = m - d[:-1] - cubic
    xs = np.linspace(0.0, y.size - 1.0, upsample * y.size)
    k = np.minimum(xs.astype(np.intp), y.size - 2)
    s = xs - k
    s2 = s * s
    return y[k] + d[k] * s + square[k] * s2 + cubic[k] * (s2 * s)


def count_peaks(samples, prominence: float = PEAK_PROMINENCE, upsample: int = 10) -> int:
    """Count genuine local maxima of uniformly sampled data.

    The samples are resampled to `upsample` times the density with a monotone
    cubic interpolant, consecutive equal values are collapsed into runs (the
    interpolant produces flat two-point plateaus when a symmetric apex falls
    between samples), and a run counts as a peak when it is interior, strictly
    above both neighboring runs, and rises at least `prominence` above the
    higher of its two flanking minima. Window endpoints can serve as flanking
    minima but are never peaks themselves.
    """
    y = np.asarray(samples, dtype=float)
    if y.size < 3:
        raise ValueError("need at least three samples")
    dense = _pchip_upsample(y, upsample)
    keep = np.empty(dense.size, dtype=bool)
    keep[0] = True
    keep[1:] = dense[1:] != dense[:-1]
    runs = dense[keep]
    idx = np.arange(runs.size)
    peak = np.zeros(runs.size, dtype=bool)
    peak[1:-1] = (runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])
    # a peak's flanking minimum is where the strict descent from it stops:
    # the nearest run to its left not above its own left neighbor, and
    # likewise to its right (the ends always stop a descent)
    stops_left = np.ones(runs.size, dtype=bool)
    stops_left[1:] = ~(runs[:-1] < runs[1:])
    stops_right = np.ones(runs.size, dtype=bool)
    stops_right[:-1] = ~(runs[1:] < runs[:-1])
    left = np.maximum.accumulate(np.where(stops_left, idx, 0))[peak]
    right = np.minimum.accumulate(np.where(stops_right, idx, runs.size - 1)[::-1])[::-1][peak]
    lo, hi = runs[left], runs[right]
    higher_min = np.where(hi > lo, hi, lo)
    return int(np.count_nonzero(runs[peak] - higher_min >= prominence))


@dataclass(frozen=True)
class DesignInput:
    aperture: float  # meters
    focus: float  # meters
    elements_per_subarray: int
    carrier: Carrier
    spacing: float | None = None  # meters, defaults to half a wavelength
    grid_points: int = 300

    def __post_init__(self):
        if min(self.aperture, self.focus) <= 0 or self.elements_per_subarray < 1:
            raise ValueError("aperture, focus and element count must be positive")
        if self.grid_points < 16:
            raise ValueError("need at least 16 grid points")
        if self.elements_per_subarray * self.element_spacing >= self.aperture:
            raise ValueError("one sub-array already exceeds the aperture")

    @property
    def element_spacing(self) -> float:
        return self.carrier.wavelength / 2 if self.spacing is None else self.spacing


@dataclass(frozen=True)
class DesignResult:
    """Outcome of the sub-array count search.

    peak_trace records (L, peak count) per iteration. aperture_filled means
    no larger even L fits: the elements fill the aperture, or (with more than
    one peak left) the next even count would overlap its sub-arrays. A result
    with aperture_filled and final_peak_count > 1 never achieved a single
    peak (the search was guard-limited).
    """

    num_subarrays: int
    gap: float
    final_peak_count: int
    aperture_filled: bool
    peak_trace: list = field(default_factory=list)

    @property
    def single_peak(self) -> bool:
        return self.final_peak_count == 1

    @property
    def guard_limited(self) -> bool:
        return self.aperture_filled and self.final_peak_count > 1


def _window_peak_count(inp: DesignInput, mla: ModularArray) -> int:
    bw = half_power_beamwidth(mla, inp.focus, inp.carrier)
    xs = np.linspace(-bw / 2, bw / 2, inp.grid_points)
    g, _ = crossrange_gain(mla, inp.focus, xs, inp.carrier)
    return count_peaks(g)


def design_num_arrays(inp: DesignInput) -> DesignResult:
    """Smallest even sub-array count focusing a single peak in the half-power
    window, with the sub-arrays spread over the full aperture.

    L steps by 2 from 2 and stops at the first of three exits: one peak
    remains, the elements fill the aperture (L*N*delta >= aperture), or the
    next even count no longer fits. The last two return the last feasible
    layout with its remaining peak count. Raises InfeasibleArrayError when
    not even the first candidate layout fits.
    """
    d = inp.element_spacing
    N = inp.elements_per_subarray
    trace = []
    for L in itertools.count(2, 2):
        try:
            gap = spacing_for_aperture(inp.aperture, L, N, d)
        except InfeasibleArrayError:
            if not trace:
                raise
            break
        mla = ModularArray(L, N, d, gap)
        peaks = _window_peak_count(inp, mla)
        trace.append((L, peaks))
        filled = mla.num_elements * d >= inp.aperture
        if peaks == 1 or filled:
            break
    # every exit with more than one peak is a fill exit
    return DesignResult(num_subarrays=mla.num_subarrays, gap=mla.gap, final_peak_count=peaks,
                        aperture_filled=filled or peaks > 1, peak_trace=trace)
