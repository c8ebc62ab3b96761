"""The benchmark's workloads. Each makes its inputs from the seed, does its
one-time set-up through mlabeam's public API, and runs numbered chunks of
work. A chunk times only the public calls into mlabeam; checking the files
they wrote happens outside that time.

Chunk `i` runs the inputs of slot `i % len(ROUND)`: a round is a fixed set of
inputs drawn from the seed, and the timed phase repeats it. Repeats of a slot
do the same work, so their times differ only by the host's state.

se_2d           run_se_sweep with the whole-array 2D search against the
                default 2,003,100-point steering grid built once in set-up.
localize_sweep  both criterion-7 sweeps (N over 4..32 at L=2, L over 2..8 at
                N=16) through run_localization_experiment; no 2D grid. Run
                by hand only: it is not in BENCHMARK.json (see README).
beam_figures    mlabeam.cli.main on the README sample configs for
                beampattern, cutline, depth (chain 4) and design, the focus
                drawn from the seed.

Why each was chosen is in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mlabeam.cli
from mlabeam.channel import dbm_to_watts
from mlabeam.experiments import (TrialConfig, read_records_csv, run_localization_experiment,
                                 run_se_sweep)
from mlabeam.geometry import Carrier
from mlabeam.localization import NearFieldGrid, centered_angle_grid, default_distance_grid

import checks
from tracing import clock

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

FREQUENCY_HZ = 15e9
APERTURE_M = 2.0
NOISE_DBM = -78.0
SE_POWERS_DBM = (10.0, 15.0, 20.0)
LOCALIZE_POWER_DBM = 20.0

# "full" is the benchmark. "tiny" runs the same code paths in about a second
# for the self-tests; its 2D grid is still more than 100x the 1D search.
# Trials per call: se_users users per run_se_sweep call, each at 3 powers (42
# trials at full size), and loc_trials trials per sweep point per
# run_localization_experiment call. The full sizes sit at the low end of the
# batch sizes a batched trial engine would use (40 to 500 trials per call), so
# fixed per-call costs are spread as in real sweeps and batching can show.
# se_users stays small enough that a run repeats a se_2d chunk about nine
# times, and the median repeat outvotes the host's slow spells.
SIZES = {
    "full": {"angle_step": 0.002, "grid_angle_step": 0.002, "grid_distance_step": 0.02,
             "se_users": 14, "loc_trials": 40,
             "cli_rows": {"beampattern": 81 * 61, "cutline": 401, "depth": 400, "design": 7},
             "cli_overrides": {}},
    "tiny": {"angle_step": 0.02, "grid_angle_step": 0.01, "grid_distance_step": 0.1,
             "se_users": 1, "loc_trials": 2,
             "cli_rows": {"beampattern": 9 * 7, "cutline": 41, "depth": 40, "design": 3},
             "cli_overrides": {"beampattern": ["--x_points", "9", "--z_points", "7"],
                               "cutline": ["--x_points", "41"],
                               "depth": ["--z_points", "40"],
                               "design": ["--antenna_counts", "16,32,64"]}},
}

# Search-grid sizes at the commit that introduced this benchmark (count guard).
BASELINE_COUNTS = {
    "full": {"angle_points": 1570, "grid_points": 2003100, "grid_bytes": 1025587200},
    "tiny": {"angle_points": 157, "grid_points": 80300, "grid_bytes": 41113600},
}


def slot_seed(seed: int, slot: int) -> int:
    """Base seed of round slot `slot`: distinct inputs per slot, fixed per seed."""
    digest = hashlib.sha256(f"perfbench/{seed}/{slot}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Chunk:
    kind: str
    slot: int
    units: int
    seconds: float = math.nan
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # additive tallies


class Workload:
    """Base: ROUND lists the chunk kind of each slot of a round."""

    name = ""
    ROUND = ("chunk",)

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.workdir = seed, Path(workdir)
        self.params = SIZES[size]
        self.expected = BASELINE_COUNTS[size]
        self.carrier = Carrier.from_frequency(FREQUENCY_HZ)
        self.grid_bytes = 0

    def setup(self, call):
        """One-time set-up through the public API (timed as part of setup_s)."""

    def slot(self, index: int) -> int:
        return index % len(self.ROUND)

    def plan(self, index: int):
        """(kind, slot, units) of chunk `index`."""
        raise NotImplementedError

    def run(self, index: int, call) -> Chunk:
        raise NotImplementedError

    def count_guard(self) -> dict:
        """{name: (seen, baseline)} for set-up counts that differ."""
        return {}


def _trial_config(carrier, num_subarrays, elements, sweep_variable, sweep_values,
                  power, trials, base_seed, angle_step):
    return TrialConfig(aperture=APERTURE_M, num_subarrays=num_subarrays,
                       elements_per_subarray=elements, carrier=carrier, power=power,
                       noise_power=dbm_to_watts(NOISE_DBM), sweep_variable=sweep_variable,
                       sweep_values=sweep_values, trials=trials, base_seed=base_seed,
                       angle_step=angle_step)


def _accuracy_counts(records, counts):
    """Add kept-trial error and rate sums of the written rows to counts."""
    kept = [r for r in records if not r["excluded"]]
    counts["kept"] = counts.get("kept", 0) + len(kept)
    sums = {"sq_error": 0.0, "norm": 0.0, "sq_error_2d": 0.0, "norm_2d": 0.0,
            "se_perfect": 0.0, "se_proposed": 0.0, "se_trials": 0}
    for r in kept:
        norm = r["true_x"] ** 2 + r["true_z"] ** 2
        sums["sq_error"] += r["sq_error"]
        sums["norm"] += norm
        if not math.isnan(r["sq_error_2d"]):
            sums["sq_error_2d"] += r["sq_error_2d"]
            sums["norm_2d"] += norm
        if not math.isnan(r["se_proposed"]):
            sums["se_perfect"] += r["se_perfect"]
            sums["se_proposed"] += r["se_proposed"]
            sums["se_trials"] += 1
    for k, v in sums.items():
        counts[k] = counts.get(k, 0) + v


class SE2D(Workload):
    name = "se_2d"
    num_subarrays, elements = 4, 16

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.powers = tuple(dbm_to_watts(p) for p in SE_POWERS_DBM)
        self.grid = None

    def setup(self, call):
        config = self._config(0)
        mla = config.array_for(self.num_subarrays, self.elements)
        self.grid = call("localization.NearFieldGrid.build", NearFieldGrid, mla, self.carrier,
                         centered_angle_grid(step=self.params["grid_angle_step"]),
                         default_distance_grid(step=self.params["grid_distance_step"]))
        matrix = getattr(self.grid, "matrix", None)
        self.grid_bytes = int(getattr(matrix, "nbytes", 0))

    def _config(self, slot):
        return _trial_config(self.carrier, self.num_subarrays, self.elements, "power",
                             self.powers, math.nan, self.params["se_users"],
                             slot_seed(self.seed, slot), self.params["angle_step"])

    def plan(self, index):
        return "chunk", self.slot(index), self.params["se_users"] * len(self.powers)

    def run(self, index, call):
        config = self._config(self.slot(index))
        path = self.workdir / f"se_2d-{index}.csv"
        t = clock()
        result = call("experiments.run_se_sweep", run_se_sweep, config, out_path=path,
                      include_2d=True, grid_2d=self.grid)
        chunk = Chunk(*self.plan(index), seconds=clock() - t)
        chunk.failures = checks.check_se_sweep(
            path, self.powers, config.trials, result.search_cost_proposed,
            result.search_cost_2d, self.num_subarrays, self.expected["angle_points"],
            self.expected["grid_points"])
        _, records, _ = read_records_csv(path)
        chunk.counts = {"grid_points_1d": result.search_cost_proposed,
                        "grid_points_2d": result.search_cost_2d,
                        "csv_bytes": path.stat().st_size}
        _accuracy_counts(records, chunk.counts)
        path.unlink()
        return chunk

    def count_guard(self):
        seen = {"grid_points": self.grid.num_points, "grid_bytes": self.grid_bytes}
        return {k: (v, self.expected[k]) for k, v in seen.items() if v != self.expected[k]}


class LocalizeSweep(Workload):
    name = "localize_sweep"
    # (num_subarrays, elements_per_subarray, sweep variable, sweep values)
    SWEEPS = ((2, 16, "elements_per_subarray", (4, 8, 16, 32)),
              (4, 16, "num_subarrays", (2, 4, 8)))

    def plan(self, index):
        return ("chunk", self.slot(index),
                self.params["loc_trials"] * sum(len(values) for *_, values in self.SWEEPS))

    def run(self, index, call):
        trials = self.params["loc_trials"]
        configs = [_trial_config(self.carrier, L, N, variable, values,
                                 dbm_to_watts(LOCALIZE_POWER_DBM), trials,
                                 slot_seed(self.seed, self.slot(index)),
                                 self.params["angle_step"])
                   for L, N, variable, values in self.SWEEPS]
        paths = [self.workdir / f"localize-{index}-{k}.csv" for k in range(len(configs))]
        results, seconds = [], 0.0
        for config, path in zip(configs, paths):
            t = clock()
            results.append(call("experiments.run_localization_experiment",
                                run_localization_experiment, config, out_path=path))
            seconds += clock() - t
        chunk = Chunk(*self.plan(index), seconds=seconds)
        chunk.counts = {"grid_points_1d": 0, "grid_points_2d": 0, "csv_bytes": 0}
        for (L, _, variable, values), result, path in zip(self.SWEEPS, results, paths):
            per_point = values if variable == "num_subarrays" else [L] * len(values)
            chunk.failures += checks.check_localization_sweep(
                path, values, trials, result.search_cost_proposed, per_point,
                self.expected["angle_points"])
            _, records, _ = read_records_csv(path)
            _accuracy_counts(records, chunk.counts)
            chunk.counts["grid_points_1d"] += result.search_cost_proposed
            chunk.counts["csv_bytes"] += path.stat().st_size
            path.unlink()
        return chunk


class BeamFigures(Workload):
    name = "beam_figures"
    # One round: the exact-quadrature beampattern once, the closed-form jobs
    # twice each, so both sides take roughly equal traced time.
    ROUND = ("beampattern", "cutline", "depth", "design", "cutline", "depth", "design")
    # Focus ranges (m) over which every job succeeds and passes its checks at
    # the commit that introduced this benchmark.
    FOCUS_M = {"beampattern": (20.0, 40.0), "cutline": (20.0, 40.0),
               "depth": (1.5, 2.5), "design": (20.0, 40.0)}

    def plan(self, index):
        return self.ROUND[self.slot(index)], self.slot(index), 1

    def argv(self, index, out):
        slot = self.slot(index)
        job = self.ROUND[slot]
        focus = np.random.default_rng(slot_seed(self.seed, slot)).uniform(*self.FOCUS_M[job])
        return [job, "--config", str(CONFIG_DIR / f"{job}.cfg"), "--out", str(out),
                "--focus_m", repr(float(focus)), *self.params["cli_overrides"].get(job, [])]

    def run(self, index, call):
        job = self.ROUND[self.slot(index)]
        path = self.workdir / f"{job}-{index}.csv"
        argv = self.argv(index, path)
        with contextlib.redirect_stdout(io.StringIO()):
            t = clock()
            code = call("cli.main", mlabeam.cli.main, argv)
            seconds = clock() - t
        chunk = Chunk(*self.plan(index), seconds=seconds)
        if code != 0:
            chunk.failures.append(f"{job}: exit code {code} for {' '.join(argv)}")
        else:
            chunk.failures = checks.check_cli_output(job, path,
                                                     self.params["cli_rows"][job])
            chunk.counts = {"csv_bytes": path.stat().st_size}
        path.unlink(missing_ok=True)
        return chunk


WORKLOADS = {w.name: w for w in (SE2D, LocalizeSweep, BeamFigures)}
