"""Seeded Monte-Carlo studies: localization error sweeps and rate comparison.

Per-trial randomness is derived from a base seed so runs are reproducible
bit-for-bit; the user draw and the snapshot noise use disjoint derived
streams, and the user draw depends only on the trial index so every sweep
point sees the same users. Both drivers loop over one trial generator. An
unwritable CSV path fails before the first trial; the file is written after
the last one, once the SE sweep's single pass over its 2D grid has searched
every kept trial, with an aggregate footer written last.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import estimate_channel, friis_beta, spectral_efficiency
from .geometry import Carrier, ModularArray, spacing_for_aperture, subarray_centers
from .localization import (_GRID_FAR, _GRID_HALFWIDTH, _GRID_NEAR, DegenerateSubspaceError,
                           IllConditionedTriangulationError, NearFieldGrid, Scenario,
                           centered_angle_grid, default_angle_grid, default_distance_grid,
                           locate, music_2d, near_steering, principal_eigenvectors,
                           synthesize_snapshots, triangulate)
from .numerics import _blas_pinned, _check_fits

_USER_STREAM = 0
_SNAPSHOT_STREAM = 1


def derive_trial_seed(base_seed: int, trial: int, stream: int = 0) -> int:
    """Per-trial 64-bit seed: base XOR SHA-256(trial, stream) truncated.

    Different streams of the same trial never share RNG state; the same
    (trial, stream) pair is identical across sweep points.
    """
    digest = hashlib.sha256(trial.to_bytes(8, "big") + stream.to_bytes(2, "big")).digest()
    return (int(base_seed) ^ int.from_bytes(digest[:8], "big")) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class TrialConfig:
    """Shared Monte-Carlo configuration.

    The user is drawn uniformly in angle (degrees about broadside) and
    distance (meters). sweep_variable selects what varies across sweep
    points: 'elements_per_subarray', 'num_subarrays', or 'power' (values in
    watts). Power values are in watts throughout.
    """

    aperture: float
    num_subarrays: int
    elements_per_subarray: int
    carrier: Carrier
    power: float
    noise_power: float
    sweep_variable: str
    sweep_values: tuple
    num_snapshots: int = 100
    angle_bounds_deg: tuple = (-60.0, 60.0)
    distance_bounds: tuple = (4.0, 40.0)
    trials: int = 500
    base_seed: int = 1
    angle_step: float = 0.002
    distance_step: float = 0.02
    spacing: float | None = None  # defaults to half a wavelength

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not (self.angle_bounds_deg[0] < self.angle_bounds_deg[1]
                and self.distance_bounds[0] < self.distance_bounds[1]):
            raise ValueError("user distribution bounds must be ordered")
        if self.sweep_variable not in ("elements_per_subarray", "num_subarrays", "power"):
            raise ValueError(f"unknown sweep variable {self.sweep_variable!r}")
        if not self.sweep_values:
            raise ValueError("sweep needs at least one value")
        if len(set(self.sweep_values)) < len(self.sweep_values):
            raise ValueError("sweep values must be distinct")
        if self.sweep_variable != "power" and not all(
                float(value).is_integer() for value in self.sweep_values):
            raise ValueError(f"{self.sweep_variable} sweep values must be whole numbers, "
                             f"got {self.sweep_values!r}")
        # what every trial's Scenario, and triangulate, would otherwise reject
        if not (-90 < self.angle_bounds_deg[0] and self.angle_bounds_deg[1] <= 90
                and self.distance_bounds[0] > 0):
            raise ValueError("users must be in front of the array")
        far = self.distance_bounds[1]
        if not far * far < math.inf:  # else every steering phase is NaN
            raise ValueError(f"user distance {far!r} m must have a finite square in float64")
        if self.num_snapshots < 2:
            raise ValueError("covariance estimation needs at least two snapshots")
        if not (self.angle_step > 0 and self.distance_step > 0):
            raise ValueError("grid steps must be positive")
        if not self.angle_step < math.pi:  # else the (0, pi) angle grid is empty
            raise ValueError(f"angle step must be below pi, got {self.angle_step!r}")
        if not 0 <= self.noise_power < math.inf:
            raise ValueError("noise power must be finite and non-negative")
        # every sweep point's array, transmit power and 1D steering matrix
        # (complex128, one row per angle of default_angle_grid), before any
        # trial runs
        for value in self.sweep_values:
            mla, power = self._sweep_point(value)
            if not 0 < power < math.inf:
                raise ValueError(f"transmit power must be finite and positive, got {power!r}")
            _check_fits(math.pi / self.angle_step * mla.elements_per_subarray * 16,
                        f"the 1D steering matrix of {mla.elements_per_subarray} elements "
                        f"at an angle step of {self.angle_step!r} rad")

    @property
    def element_spacing(self) -> float:
        return self.carrier.wavelength / 2 if self.spacing is None else self.spacing

    def array_for(self, num_subarrays: int, elements_per_subarray: int) -> ModularArray:
        if num_subarrays < 2:
            raise ValueError("bearing triangulation needs at least two sub-arrays")
        if elements_per_subarray < 2:
            raise ValueError("angle estimation needs at least two elements per sub-array")
        gap = spacing_for_aperture(self.aperture, num_subarrays, elements_per_subarray,
                                   self.element_spacing)
        return ModularArray(num_subarrays, elements_per_subarray,
                            self.element_spacing, gap)

    def check_grid_span(self) -> None:
        """Raise ValueError if users may be drawn outside the span of the
        default whole-array 2D grid, where its search cannot place them, or
        if that grid, storing one of each mirror pair of angles, would need
        more than the physical memory."""
        lo, hi = map(math.radians, self.angle_bounds_deg)
        near, far = self.distance_bounds
        if not (-_GRID_HALFWIDTH <= lo and hi <= _GRID_HALFWIDTH
                and _GRID_NEAR <= near and far <= _GRID_FAR):
            raise ValueError(f"user bounds reach outside the 2D grid's span, +-"
                             f"{math.degrees(_GRID_HALFWIDTH):.4g} deg about broadside and "
                             f"{_GRID_NEAR!r} to {_GRID_FAR!r} m")
        # two int16 parts per element, at least half the angles by every distance
        elements = self.num_subarrays * self.elements_per_subarray
        _check_fits(_GRID_HALFWIDTH / self.angle_step * (_GRID_FAR - _GRID_NEAR)
                    / self.distance_step * elements * 4,
                    f"the 2D grid of {elements} elements at an angle step of "
                    f"{self.angle_step!r} rad and a distance step of {self.distance_step!r} m")

    def _sweep_point(self, value):
        """(array, transmit power) for one sweep value."""
        if self.sweep_variable == "power":
            return self.array_for(self.num_subarrays, self.elements_per_subarray), float(value)
        if self.sweep_variable == "elements_per_subarray":
            return self.array_for(self.num_subarrays, int(value)), self.power
        return self.array_for(int(value), self.elements_per_subarray), self.power

    def draw_user(self, trial: int):
        """(angle radians, distance meters) for one trial; same across sweeps."""
        rng = np.random.default_rng(derive_trial_seed(self.base_seed, trial, _USER_STREAM))
        lo, hi = self.angle_bounds_deg
        angle = math.pi / 2 + math.radians(rng.uniform(lo, hi))
        distance = rng.uniform(*self.distance_bounds)
        return angle, distance


@dataclass(frozen=True)
class ExperimentRecord:
    """One Monte-Carlo trial row. Fields that a run does not produce are NaN;
    excluded=1 flags trials dropped from the aggregates (ill-conditioned
    triangulation or a degenerate subspace)."""

    sweep_value: float
    trial: int
    seed: int
    true_x: float
    true_z: float
    est_x: float
    est_z: float
    sq_error: float
    est_x_2d: float
    est_z_2d: float
    sq_error_2d: float
    se_proposed: float
    se_2d: float
    se_perfect: float
    excluded: int


RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentRecord))
_INT_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentRecord)
                        if f.type in (int, "int"))
_RECORD_TYPES = tuple(int if name in _INT_FIELDS else float for name in RECORD_FIELDS)
# a record's fields as a tuple, without astuple's deep copy
_record_row = operator.attrgetter(*RECORD_FIELDS)


@dataclass
class ExperimentResult:
    """Records and per-sweep aggregates of one run, and the grid points its
    searches visited. search_cost_proposed counts every 1D angle grid point
    once per sub-array of each trial that reached the angle search: a
    degenerate subspace stops a trial before it, an ill-conditioned
    triangulation after it. search_cost_2d counts every 2D grid point once
    per kept trial."""

    config: TrialConfig
    records: list
    aggregates: list  # one dict per sweep point
    excluded_total: int = 0
    search_cost_proposed: int = 0
    search_cost_2d: int = 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path, comments, header, types, rows, footer=()):
    """The one CSV format every mlabeam file uses: '# ' comment lines, a header,
    rows, then '# ' footer lines. types gives each column's type, int or
    float, and each row, a tuple, is written with one format: %d for an int
    column and %.17g for a float one, as _fmt writes its values."""
    row_format = ",".join("%d" if t is int else "%.17g" for t in types) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(f"# {line}\n" for line in comments)
        f.write(",".join(header) + "\n")
        f.writelines(row_format % row for row in rows)
        f.writelines(f"# {line}\n" for line in footer)


def _config_comment(config: TrialConfig) -> str:
    fields = {}
    for f in dataclasses.fields(config):
        v = getattr(config, f.name)
        if isinstance(v, Carrier):
            fields["frequency"] = repr(v.frequency)
        elif isinstance(v, tuple):
            fields[f.name] = ",".join(repr(x) for x in v)
        else:
            fields[f.name] = repr(v)
    return "config: " + " ".join(f"{k}={v}" for k, v in fields.items())


def write_records_csv(path, result: ExperimentResult):
    _write_csv(path, [_config_comment(result.config)], RECORD_FIELDS, _RECORD_TYPES,
               map(_record_row, result.records),
               ["aggregate: " + " ".join(f"{k}={_fmt(v)}" for k, v in agg.items())
                for agg in result.aggregates])


def read_records_csv(path):
    """Parse an emitted CSV back into (config dict, record dicts, aggregate dicts).

    Record fields come back with their written values: the int fields
    (trial, 64-bit seed, excluded) as ints, the rest as floats."""
    config, records, aggregates = {}, [], []
    header = None
    with open(path, encoding="utf-8", newline="\n") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# config: "):
                config = dict(kv.split("=", 1) for kv in line[len("# config: "):].split(" "))
            elif line.startswith("# aggregate: "):
                pairs = dict(kv.split("=", 1) for kv in line[len("# aggregate: "):].split(" "))
                aggregates.append({k: float(v) for k, v in pairs.items()})
            elif header is None:
                header = line.split(",")
            else:
                records.append({k: int(v) if k in _INT_FIELDS else float(v)
                                for k, v in zip(header, line.split(","))})
    return config, records, aggregates


def _aggregate(records, summarize):
    """Per-sweep aggregates recomputed from the record list itself, so a
    reader summing the emitted rows reproduces them exactly. summarize maps
    the kept (not excluded) records of one sweep point to its statistics."""
    aggregates = []
    for v in dict.fromkeys(r.sweep_value for r in records):
        rows = [r for r in records if r.sweep_value == v]
        kept = [r for r in rows if not r.excluded]
        aggregates.append({"sweep_value": v, "trials": len(rows),
                           "excluded": len(rows) - len(kept), **summarize(kept)})
    return aggregates


def _nmse_summary(kept):
    norm = sum(r.true_x**2 + r.true_z**2 for r in kept)
    return {"nmse": sum(r.sq_error for r in kept) / norm if kept else float("nan")}


def _se_summary(kept):
    summary = {}
    for name in ("se_proposed", "se_2d", "se_perfect"):
        finite = [x for x in (getattr(r, name) for r in kept) if not math.isnan(x)]
        summary["mean_" + name] = sum(finite) / len(finite) if finite else float("nan")
    return summary


def _trials(config: TrialConfig, out_path):
    """The Monte Carlo protocol both drivers share: per sweep value and trial,
    draw the user, synthesize snapshots and locate. Yields, trial by trial,
    (fields, scenario, snaps, est, visited): the trial's record fields, NaN
    where this loop does not produce them; its scenario and snapshots; its
    estimate, None for an excluded trial (degenerate subspace or
    ill-conditioned triangulation); and the angle grid points its searches
    visited, none for a degenerate trial, which stops before the search.
    out_path, if given, is truncated before the first trial, so an
    unwritable path fails before any work.
    """
    grid = default_angle_grid(config.angle_step)
    if out_path:
        open(out_path, "w").close()
    for v in config.sweep_values:
        mla, power = config._sweep_point(v)
        for trial in range(config.trials):
            angle, distance = config.draw_user(trial)
            seed = derive_trial_seed(config.base_seed, trial, _SNAPSHOT_STREAM)
            scenario = Scenario(mla, config.carrier, distance, angle,
                                power, config.noise_power, config.num_snapshots)
            snaps = synthesize_snapshots(scenario, seed)
            tx, tz = scenario.user_xz
            visited = mla.num_subarrays * grid.size
            try:
                est = locate(snaps, grid)
            except DegenerateSubspaceError:
                est, visited = None, 0
            except IllConditionedTriangulationError:
                est = None
            fields = dict.fromkeys(RECORD_FIELDS, float("nan"))
            fields.update(sweep_value=float(v), trial=trial, seed=seed, true_x=tx,
                          true_z=tz, excluded=int(est is None))
            if est is not None:
                fields.update(est_x=est.x, est_z=est.z,
                              sq_error=(est.x - tx) ** 2 + (est.z - tz) ** 2)
            yield fields, scenario, snaps, est, visited


def _result(config, out_path, rows, summarize, search_cost_proposed,
            search_cost_2d=0) -> ExperimentResult:
    """The run's records and aggregates from its trials' record fields, in
    trial order; written to out_path, if given."""
    records = [ExperimentRecord(**fields) for fields in rows]
    result = ExperimentResult(config, records, _aggregate(records, summarize),
                              sum(r.excluded for r in records),
                              search_cost_proposed, search_cost_2d)
    if out_path:
        write_records_csv(out_path, result)
    return result


def run_localization_experiment(config: TrialConfig, out_path=None) -> ExperimentResult:
    """Position-error sweep over a geometry variable.

    Per sweep value, runs config.trials independent trials of the full
    pipeline (synthesize, per-sub-array MUSIC bearings, bearing intersection)
    and aggregates the error into one NMSE per sweep point. Ill-conditioned
    trials are flagged, kept in the records, and excluded from the NMSE with
    their count reported.
    """
    if config.sweep_variable == "power":
        raise ValueError("use run_se_sweep for power sweeps")
    rows, cost = [], 0
    for fields, _, _, _, visited in _trials(config, out_path):
        rows.append(fields)
        cost += visited
    return _result(config, out_path, rows, _nmse_summary, cost)


def run_se_sweep(config: TrialConfig, out_path=None, include_2d: bool = True,
                 grid_2d: NearFieldGrid | None = None) -> ExperimentResult:
    """Mean uplink rate per transmit power for the proposed pipeline, the
    whole-array 2D search baseline, and perfect channel knowledge.

    The perfect-knowledge rate is closed-form per trial. The 2D baseline
    shares one precomputed steering grid, built for the sweep's array and
    carrier, across all trials: each kept trial is reduced to its whole-array
    principal eigenvector as it runs, and after the last trial one pass over
    the grid searches every kept trial at every power. A grid the sweep builds
    has the default span, which must hold every user (check_grid_span).
    """
    if config.sweep_variable != "power":
        raise ValueError("run_se_sweep expects a power sweep")
    if not config.noise_power > 0:
        raise ValueError("spectral efficiency needs a positive noise power")
    mla = config.array_for(config.num_subarrays, config.elements_per_subarray)
    carrier, noise = config.carrier, config.noise_power
    if include_2d and grid_2d is None:
        config.check_grid_span()
        grid_2d = NearFieldGrid(mla, carrier, centered_angle_grid(config.angle_step),
                                default_distance_grid(config.distance_step))
    if include_2d and (grid_2d.mla != mla or grid_2d.carrier != carrier):
        raise ValueError("grid_2d was built for another array or carrier than the sweep's")
    rows, cost, kept = [], 0, []  # kept: (fields, scenario, u1, h_true, beta), for the 2D pass
    # BLAS held at one thread through the trials and the 2D pass, so that no
    # helper thread of a multi-threaded eigh is still spinning when the
    # screen starts; the block runner's pin nests inside this one
    with _blas_pinned():
        for fields, scenario, snaps, est, visited in _trials(config, out_path):
            rows.append(fields)
            cost += visited
            power = scenario.power
            beta = friis_beta(carrier, scenario.distance)
            fields["se_perfect"] = math.log2(1 + power * beta * mla.num_elements / noise)
            if est is None:
                continue
            h_true = near_steering(mla, carrier, scenario.angle, scenario.distance)
            ch = estimate_channel(mla, carrier, est.angle, est.distance)
            fields["se_proposed"] = spectral_efficiency(h_true, ch, power, beta, noise)
            if include_2d:
                whole = snaps.data.transpose(1, 0, 2).reshape(config.num_snapshots, -1)
                # a copy, not a column view that would keep all L*N eigenvectors alive
                u1 = principal_eigenvectors(whole).copy()
                kept.append((fields, scenario, u1, h_true, beta))

        picks = music_2d(np.stack([u1 for _, _, u1, _, _ in kept], axis=1), grid_2d) if kept else []
    for (fields, scenario, _, h_true, beta), (phi2, d2) in zip(kept, picks, strict=True):
        ch2 = estimate_channel(mla, carrier, phi2, d2)
        ex2, ez2 = d2 * math.cos(phi2), d2 * math.sin(phi2)
        tx, tz = scenario.user_xz
        fields.update(est_x_2d=ex2, est_z_2d=ez2,
                      sq_error_2d=(ex2 - tx) ** 2 + (ez2 - tz) ** 2,
                      se_2d=spectral_efficiency(h_true, ch2, scenario.power, beta, noise))
    search_cost_2d = grid_2d.num_points * len(kept) if kept else 0
    return _result(config, out_path, rows, _se_summary, cost, search_cost_2d)


def bracketing_floor(mla: ModularArray, truth_xz, grid) -> float:
    """Worst position error from snapping each sub-array's true bearing to a
    neighboring grid angle.

    A noiseless angle spectrum peaks at one of the two grid angles bracketing
    the true bearing, so triangulating every floor/ceil combination bounds
    the grid-induced error of the noiseless pipeline.
    """
    centers = subarray_centers(mla)
    x, z = truth_xz
    grid = np.asarray(grid, dtype=float)
    options = []
    for c in centers:
        phi = math.atan2(z, x - c)
        i = int(np.searchsorted(grid, phi))
        options.append((grid[max(i - 1, 0)], grid[min(i, grid.size - 1)]))
    worst = 0.0
    for combo in itertools.product(*options):
        est = triangulate(np.array(combo), centers)
        worst = max(worst, math.hypot(est.x - x, est.z - z))
    return worst
