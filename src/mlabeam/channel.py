"""Parametric channel reconstruction from a location estimate, and the
spectral efficiency of matched-filter combining against the true channel.

All powers are in watts; dBm conversion happens only at the CLI boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Carrier, ModularArray


def friis_beta(carrier: Carrier, d: float) -> float:
    """Free-space large-scale power gain (wavelength / (4 pi d))^2."""
    if d <= 0:
        raise ValueError("distance must be positive")
    return (carrier.wavelength / (4 * math.pi * d)) ** 2


def dbm_to_watts(dbm: float) -> float:
    return 10 ** ((dbm - 30) / 10)


def estimate_channel(mla: ModularArray, carrier: Carrier, angle: float,
                     distance: float) -> np.ndarray:
    """Whole-array channel vector for a source at the estimated polar location:
    the near-field steering vector, unit-modulus entries, length L*N."""
    from .localization import near_steering

    return near_steering(mla, carrier, angle, distance)


def spectral_efficiency(h_true: np.ndarray, h_est: np.ndarray, power: float,
                        large_scale_gain: float, noise_power: float) -> float:
    """Uplink rate of combining the true channel with the estimated direction.

    log2(1 + (P * beta / sigma^2) * |h_est^H h_true|^2 / ||h_est||^2); equals
    log2(1 + P * beta * L * N / sigma^2) when the estimate is aligned with a
    unit-modulus true channel.
    """
    h_est = np.asarray(h_est)
    h_true = np.asarray(h_true)
    energy = float(np.vdot(h_est, h_est).real)
    if energy <= 0:
        raise ValueError("estimated channel must be nonzero")
    if power <= 0 or noise_power <= 0 or large_scale_gain <= 0:
        raise ValueError("powers and gain must be positive")
    effective = abs(np.vdot(h_est, h_true)) ** 2 / energy
    return math.log2(1 + power * large_scale_gain / noise_power * effective)
