"""Array geometry: element layouts, aperture metrics, Fraunhofer boundaries.

All coordinates are in meters on the x-axis; the array plane is z=0 and the
array is centered on the origin. A modular array is L identical uniform
sub-arrays of N elements each, with intra-array spacing delta and a gap Delta
between the innermost elements of adjacent sub-arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0


class InfeasibleArrayError(ValueError):
    """Requested layout cannot be realized (sub-arrays would overlap)."""


@dataclass(frozen=True)
class Carrier:
    """Carrier frequency and derived wavelength."""

    frequency: float  # Hz
    wavelength: float  # meters

    def __post_init__(self):
        if not (math.isfinite(self.frequency) and math.isfinite(self.wavelength)):
            raise ValueError(f"carrier frequency {self.frequency!r} Hz and wavelength "
                             f"{self.wavelength!r} m must be finite")
        if self.frequency <= 0 or self.wavelength <= 0:
            raise ValueError("carrier frequency and wavelength must be positive")
        if abs(self.wavelength * self.frequency / SPEED_OF_LIGHT - 1.0) > 1e-9:
            raise ValueError("wavelength * frequency must equal the speed of light")

    @classmethod
    def from_frequency(cls, frequency: float) -> "Carrier":
        return cls(frequency, SPEED_OF_LIGHT / frequency)

    @classmethod
    def from_wavelength(cls, wavelength: float) -> "Carrier":
        return cls(SPEED_OF_LIGHT / wavelength, wavelength)


@dataclass(frozen=True)
class ModularArray:
    """L sub-arrays of N elements; spacing delta within, gap Delta between.

    Delta is measured center-to-center between the innermost elements of
    adjacent sub-arrays. Delta = delta degenerates into one contiguous
    uniform array of L*N elements. L=1 represents a plain uniform array
    (Delta is then unused). The closed-form gains take any L; the design
    loop steps through even L only.
    """

    num_subarrays: int
    elements_per_subarray: int
    spacing: float  # delta, meters
    gap: float  # Delta, meters

    def __post_init__(self):
        if self.num_subarrays < 1 or self.elements_per_subarray < 1:
            raise ValueError("need at least one sub-array and one element")
        if self.spacing <= 0:
            raise ValueError("element spacing must be positive")
        if self.num_subarrays > 1 and self.gap < self.spacing:
            raise InfeasibleArrayError("gap between sub-arrays must be >= element spacing")
        # gains and metrics square lengths up to the aperture
        aperture = float(2 * (self.num_subarrays - 1) * self.half_pitch
                         + self.elements_per_subarray * self.spacing)
        if not aperture * aperture < math.inf:
            raise ValueError(f"aperture {aperture!r} m must have a finite square in float64")

    @classmethod
    def ula(cls, num_elements: int, spacing: float) -> "ModularArray":
        return cls(1, num_elements, spacing, spacing)

    @property
    def num_elements(self) -> int:
        return self.num_subarrays * self.elements_per_subarray

    @property
    def half_pitch(self) -> float:
        """Half the center-to-center distance between adjacent sub-arrays,
        (Delta + (N-1)*delta)/2, with delta in place of the unused gap when
        L = 1."""
        gap = self.gap if self.num_subarrays > 1 else self.spacing
        return (gap + (self.elements_per_subarray - 1) * self.spacing) / 2


@dataclass(frozen=True)
class ArrayMetrics:
    """Derived aperture quantities for one array/carrier pair.

    aperture follows the convention that includes one element width,
    aperture = Delta*(L-1) + (L*(N-1)+1)*delta = 2*(L-1)*half_pitch + N*delta;
    span = max-min element coordinate = aperture - delta is also exposed
    since both conventions appear in the literature. half_pitch is half the
    center-to-center distance between adjacent sub-arrays.
    """

    aperture: float
    span: float
    half_pitch: float
    fraunhofer: float  # 2*aperture^2 / wavelength, whole array
    fraunhofer_subarray: float  # 2*(N*delta)^2 / wavelength, one sub-array

    def __post_init__(self):
        if self.aperture <= 0:
            raise ValueError("aperture must be positive")
        if self.fraunhofer < self.fraunhofer_subarray:
            raise ValueError("whole-array Fraunhofer distance cannot be smaller than sub-array's")


def element_positions(mla: ModularArray) -> np.ndarray:
    """Element x-coordinates, shape (L, N), grouped by sub-array.

    Sub-array ell (1-based) is centered at (ell-(L+1)/2) * 2*mla.half_pitch
    and its elements sit delta apart around that center; the whole layout is
    symmetric about x=0.
    """
    N = mla.elements_per_subarray
    n = np.arange(1, N + 1)
    return subarray_centers(mla)[:, None] + (n - (N + 1) / 2)[None, :] * mla.spacing


def subarray_centers(mla: ModularArray) -> np.ndarray:
    """Center x-coordinate of each sub-array, shape (L,)."""
    L = mla.num_subarrays
    ell = np.arange(1, L + 1)
    return (ell - (L + 1) / 2) * (2 * mla.half_pitch)


def derived_metrics(mla: ModularArray, carrier: Carrier) -> ArrayMetrics:
    L, N = mla.num_subarrays, mla.elements_per_subarray
    d = mla.spacing
    aperture = 2 * (L - 1) * mla.half_pitch + N * d
    lam = carrier.wavelength
    sub_aperture = N * d
    return ArrayMetrics(
        aperture=aperture,
        span=aperture - d,
        half_pitch=mla.half_pitch,
        fraunhofer=2 * aperture**2 / lam,
        fraunhofer_subarray=2 * sub_aperture**2 / lam,
    )


def spacing_for_aperture(aperture: float, num_subarrays: int, elements_per_subarray: int,
                         spacing: float) -> float:
    """Gap Delta that makes the layout fill the requested aperture exactly.

    Inverts the aperture formula: Delta = (D - (L*(N-1)+1)*delta)/(L-1).
    The gap is at least delta exactly when L*N*delta <= D; a contiguous
    layout whose formula gap rounds below delta gets delta. Raises
    InfeasibleArrayError when L*N*delta > D (adjacent sub-arrays would
    overlap).
    """
    L, N = num_subarrays, elements_per_subarray
    if L < 2:
        raise ValueError("need at least two sub-arrays to solve for the gap")
    gap = (aperture - (L * (N - 1) + 1) * spacing) / (L - 1)
    if gap < spacing:
        needed = L * N * spacing
        if needed <= aperture:
            return spacing
        raise InfeasibleArrayError(
            f"aperture {aperture} m cannot hold {L} sub-arrays of {N} elements "
            f"at spacing {spacing} m: they need {needed:.6g} m, "
            f"{needed - aperture:.3g} m more")
    return gap
