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
# crossrange_gain, the search's gains for one layout, stays importable here:
# perfbench/tracing.py wraps it under this module's name
from .gain import (_crossrange_factors, _squared_array_factor, crossrange_gain,
                   half_power_beamwidth)

# Peaks shallower than this are treated as numerical ripple. Genuine lobes of
# the cosine-modulated envelope are two orders of magnitude more prominent.
PEAK_PROMINENCE = 1e-2
# Candidate sub-array counts per block of the design search: a block's gains
# are one (block, grid_points) array, 75 kB at the default 300 points.
# Results do not depend on the block size.
_BLOCK_COUNTS = 32


def count_peaks(samples, prominence: float = PEAK_PROMINENCE):
    """Count genuine local maxima of uniformly sampled data, along the last
    axis: an int for 1D samples, an array of counts for a stack of rows.

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
    if y.ndim == 0 or y.shape[-1] < 3:
        raise ValueError("need at least three samples")
    rows = y.reshape(-1, y.shape[-1])
    keep = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=keep[:, 1:])
    # every row's runs in one sequence, with the row each belongs to, and
    # which runs start or end their row
    runs, row = rows[keep], np.nonzero(keep)[0]
    new_row = row[1:] != row[:-1]
    edge = np.ones(runs.size, dtype=bool)
    edge[1:-1] = new_row[:-1] | new_row[1:]
    # no two neighboring runs of a row are equal, so its interior extrema
    # alternate between peaks and valleys, and each peak's flanking minima
    # are its neighbors in the row's sequence of extrema with the two ends
    rising = runs[1:] > runs[:-1]
    ext = edge.copy()
    ext[1:-1] |= rising[1:] != rising[:-1]
    ext_runs, ext_row, inner = runs[ext], row[ext], ~edge[ext]
    top, lo, hi = ext_runs[1:-1], ext_runs[:-2], ext_runs[2:]
    peak = inner[1:-1] & (top > lo) & (top - np.maximum(lo, hi) >= prominence)
    counts = np.bincount(ext_row[1:-1][peak], minlength=rows.shape[0])
    return int(counts[0]) if y.ndim == 1 else counts.reshape(y.shape[:-1])


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


def _layouts(aperture: float, N: int, d: float):
    """The layouts of L = 2, 4, ... sub-arrays spread over the aperture, in
    order, up to the last even L that fits; InfeasibleArrayError when not
    even L = 2 does."""
    for L in itertools.count(2, 2):
        try:
            gap = spacing_for_aperture(aperture, L, N, d)
        except InfeasibleArrayError:
            if L == 2:
                raise
            return
        yield ModularArray(L, N, d, gap)


def design_num_arrays(inp: DesignInput) -> DesignResult:
    """Smallest even sub-array count focusing a single peak in the half-power
    window, with the sub-arrays spread over the full aperture.

    The window samples, the envelope and the phase factor depend on N, the
    spacing and the focus only and are built once. L steps by 2 from 2 until
    one peak remains or the next even count no longer fits, as none does
    once L*N*delta >= aperture, and the last feasible layout is returned with
    its remaining peak count. The counts are tried in blocks of up to
    _BLOCK_COUNTS: one block's gains are one (block, grid_points) array,
    whose rows' peaks are counted in one call, and the search stops at the
    first row with one peak. Raises InfeasibleArrayError when not even the
    first candidate layout fits.
    """
    d = inp.element_spacing
    N = inp.elements_per_subarray
    bw = half_power_beamwidth(ModularArray.ula(N, d), inp.focus, inp.carrier)
    xs = np.linspace(-bw / 2, bw / 2, inp.grid_points)
    env, kx = _crossrange_factors(N, d, inp.focus, xs, inp.carrier)
    layouts = _layouts(inp.aperture, N, d)
    trace = []
    while block := list(itertools.islice(layouts, _BLOCK_COUNTS)):
        Ls = [mla.num_subarrays for mla in block]
        half_pitches = np.array([mla.half_pitch for mla in block])
        factors = _squared_array_factor(np.array(Ls)[:, None], kx, half_pitches[:, None])
        counts = count_peaks(env * factors).tolist()
        stop = counts.index(1) + 1 if 1 in counts else len(block)
        trace += zip(Ls[:stop], counts[:stop])
        mla, peaks = block[stop - 1], counts[stop - 1]
        if peaks == 1:
            break
    # every exit with more than one peak is a fill exit
    return DesignResult(num_subarrays=mla.num_subarrays, gap=mla.gap, final_peak_count=peaks,
                        aperture_filled=mla.num_elements * d >= inp.aperture or peaks > 1,
                        peak_trace=trace)
