"""Choose the number of sub-arrays that focuses a single beam peak.

The search raises the sub-array count two at a time, spreads the sub-arrays
over the fixed total aperture, and counts the cross-range gain's peaks on
samples of the half-power window, finer than the aperture's lobes, until
only one genuine peak remains or no larger count fits the aperture.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Carrier, InfeasibleArrayError, ModularArray, spacing_for_aperture
from .gain import crossrange_gain, half_power_beamwidth

# Peaks shallower than this are treated as numerical ripple. Genuine lobes of
# the cosine-modulated envelope are two orders of magnitude more prominent.
PEAK_PROMINENCE = 1e-2


def count_peaks(samples, prominence: float = PEAK_PROMINENCE) -> int:
    """Count genuine local maxima of uniformly sampled data.

    Consecutive equal samples are collapsed into runs (a symmetric apex that
    falls between two samples gives a flat two-sample top), and a run counts
    as a peak when it is interior, strictly above both neighboring runs, and
    rises at least `prominence` above the higher of its two flanking minima.
    Window endpoints can serve as flanking minima but are never peaks
    themselves. The samples are counted as they are: a shape-preserving
    interpolant such as PCHIP has its extrema only at the samples, so
    resampling reveals no peak, and its rounding ripple can split a flat top.
    """
    y = np.asarray(samples, dtype=float)
    if y.size < 3:
        raise ValueError("need at least three samples")
    runs = y[np.r_[True, y[1:] != y[:-1]]]
    # no two neighboring runs are equal, so the interior extrema alternate
    # between peaks and valleys, and each peak's flanking minima are its
    # neighbors in the sequence of extrema with the two ends
    rising = runs[1:] > runs[:-1]
    ext = runs[np.r_[0, np.flatnonzero(rising[1:] != rising[:-1]) + 1, runs.size - 1]]
    top, lo, hi = ext[1:-1], ext[:-2], ext[2:]
    return int(np.count_nonzero((top > lo) & (top - np.maximum(lo, hi) >= prominence)))


@dataclass(frozen=True)
class DesignInput:
    aperture: float  # meters
    focus: float  # meters
    elements_per_subarray: int
    carrier: Carrier
    spacing: float | None = None  # meters, defaults to half a wavelength
    grid_points: int = 300

    def __post_init__(self):
        if not (math.isfinite(self.aperture) and math.isfinite(self.focus)):
            raise ValueError("aperture and focus must be finite")
        if min(self.aperture, self.focus) <= 0 or self.elements_per_subarray < 1:
            raise ValueError("aperture, focus and element count must be positive")
        if self.grid_points < 16:
            raise ValueError("need at least 16 grid points")
        if self.elements_per_subarray * self.element_spacing >= self.aperture:
            raise ValueError("one sub-array already exceeds the aperture")
        # the window is 1.77 F lambda / (2 N delta) wide and the aperture's
        # lobes lambda F / D: a coarser sample step than the lobe width finds
        # lobes between samples, or none
        needed = 1 + 1.77 * self.aperture / (2 * self.elements_per_subarray * self.element_spacing)
        if self.grid_points < needed:
            raise ValueError(f"the half-power window needs at least {needed:.3g} grid points "
                             f"to resolve the aperture's lobes, not {self.grid_points}")
        # raises when the window's width is not a finite number
        half_power_beamwidth(ModularArray.ula(self.elements_per_subarray, self.element_spacing),
                             self.focus, self.carrier)

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


def design_num_arrays(inp: DesignInput) -> DesignResult:
    """Smallest even sub-array count focusing a single peak in the half-power
    window, with the sub-arrays spread over the full aperture.

    The window samples depend on N and the spacing only and are built once.
    L steps by 2 from 2 until one peak remains or the next even count no
    longer fits, as none does once L*N*delta >= aperture, and the last
    feasible layout is returned with its remaining peak count. Raises
    InfeasibleArrayError when not even the first candidate layout fits.
    """
    d = inp.element_spacing
    N = inp.elements_per_subarray
    bw = half_power_beamwidth(ModularArray.ula(N, d), inp.focus, inp.carrier)
    xs = np.linspace(-bw / 2, bw / 2, inp.grid_points)
    trace = []
    for L in itertools.count(2, 2):
        try:
            gap = spacing_for_aperture(inp.aperture, L, N, d)
        except InfeasibleArrayError:
            if not trace:
                raise
            break
        mla = ModularArray(L, N, d, gap)
        peaks = count_peaks(crossrange_gain(mla, inp.focus, xs, inp.carrier)[0])
        trace.append((L, peaks))
        if peaks == 1:
            break
    # every exit with more than one peak is a fill exit
    return DesignResult(num_subarrays=mla.num_subarrays, gap=mla.gap, final_peak_count=peaks,
                        aperture_filled=mla.num_elements * d >= inp.aperture or peaks > 1,
                        peak_trace=trace)
