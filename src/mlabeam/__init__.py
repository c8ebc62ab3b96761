"""Near-field beamfocusing with modular linear arrays.

Simulation library for sparse arrays built from uniformly spaced sub-arrays:
exact and closed-form focusing gains, beam shape analysis, sub-array count
design, subspace localization with triangulation, and Monte Carlo harnesses.
"""

from .channel import (ChannelEstimate, dbm_to_watts, estimate_channel, friis_beta,
                      spectral_efficiency, watts_to_dbm)
from .design import (DesignInput, DesignResult, PEAK_PROMINENCE, count_peaks,
                     design_num_arrays, design_sweep)
from .gain import (GainRangeError, NullNotFoundError, RippleMetrics, TxPoint, cell_channel,
                   crossrange_gain, exact_field, first_null_after_focus, focus_chain,
                   gain_exact, gain_exact_sweep, gain_mla_fresnel, gain_ula_fresnel,
                   half_power_beamwidth, matched_filter_weights, ripple_metrics)
from .geometry import (ArrayMetrics, Carrier, InfeasibleArrayError, ModularArray,
                       SPEED_OF_LIGHT, derived_metrics, element_positions,
                       spacing_for_aperture, subarray_centers)
from .localization import (DegenerateSubspaceError, IllConditionedTriangulationError,
                           NearFieldGrid, PositionEstimate, Scenario, SnapshotSet,
                           estimate_angles, far_steering, locate, music_1d, music_2d,
                           near_steering, nmse, noise_subspace, principal_eigenvectors,
                           sample_covariance, synthesize_snapshots, triangulate)
from .numerics import QuadratureRule, fresnel_cs, gauss_legendre_rule, integrate_cell
from .experiments import (ExperimentRecord, ExperimentResult, TrialConfig,
                          bracketing_floor, derive_trial_seed, read_records_csv,
                          run_localization_experiment, run_se_sweep,
                          write_records_csv)

__version__ = "0.1.0"

__all__ = [
    "ArrayMetrics", "Carrier", "ChannelEstimate", "DegenerateSubspaceError",
    "DesignInput", "DesignResult", "ExperimentRecord", "ExperimentResult", "GainRangeError",
    "IllConditionedTriangulationError", "InfeasibleArrayError", "ModularArray",
    "NearFieldGrid", "NullNotFoundError", "PEAK_PROMINENCE", "PositionEstimate",
    "QuadratureRule", "RippleMetrics", "SPEED_OF_LIGHT", "Scenario",
    "SnapshotSet", "TrialConfig", "TxPoint", "bracketing_floor", "cell_channel",
    "count_peaks", "crossrange_gain", "dbm_to_watts", "derive_trial_seed",
    "derived_metrics", "design_num_arrays", "design_sweep", "element_positions",
    "estimate_angles", "estimate_channel", "exact_field", "far_steering",
    "first_null_after_focus", "focus_chain", "fresnel_cs", "friis_beta",
    "gain_exact", "gain_exact_sweep", "gain_mla_fresnel", "gain_ula_fresnel",
    "gauss_legendre_rule", "half_power_beamwidth", "integrate_cell", "locate",
    "matched_filter_weights", "music_1d", "music_2d", "near_steering", "nmse",
    "noise_subspace", "principal_eigenvectors", "read_records_csv", "ripple_metrics",
    "run_localization_experiment", "run_se_sweep", "sample_covariance",
    "spacing_for_aperture", "spectral_efficiency", "subarray_centers",
    "synthesize_snapshots", "triangulate", "watts_to_dbm", "write_records_csv",
]
