"""Near-field beamfocusing with modular linear arrays.

Simulation library for sparse arrays built from uniformly spaced sub-arrays:
exact and closed-form focusing gains, beam shape analysis, sub-array count
design, subspace localization with triangulation, and Monte Carlo harnesses.
"""

from .channel import dbm_to_watts, estimate_channel, friis_beta, spectral_efficiency
from .design import (DesignInput, DesignResult, PEAK_PROMINENCE, count_peaks,
                     design_num_arrays)
from .gain import (GainRangeError, NullNotFoundError, RippleMetrics, TxPoint,
                   crossrange_gain, exact_field, first_null_after_focus, focus_chain,
                   gain_exact_sweep, gain_mla_fresnel, gain_ula_fresnel,
                   half_power_beamwidth, matched_filter_weights, ripple_metrics)
from .geometry import (ArrayMetrics, Carrier, InfeasibleArrayError, ModularArray,
                       SPEED_OF_LIGHT, derived_metrics, element_positions,
                       spacing_for_aperture, subarray_centers)
from .localization import (DegenerateSubspaceError, IllConditionedTriangulationError,
                           NearFieldGrid, PositionEstimate, Scenario, SnapshotSet,
                           estimate_angles, far_steering, locate, music_1d, music_2d,
                           near_steering, noise_subspace, principal_eigenvectors,
                           sample_covariance, synthesize_snapshots, triangulate)
from .numerics import QuadratureRule, fresnel_cs, gauss_legendre_rule
from .experiments import (ExperimentRecord, ExperimentResult, TrialConfig,
                          bracketing_floor, derive_trial_seed, read_records_csv,
                          run_localization_experiment, run_se_sweep,
                          write_records_csv)

__version__ = "0.1.0"
