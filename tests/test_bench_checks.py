"""The benchmark's output checks accept what the Monte Carlo drivers write.

perfbench/checks.py compares each sweep's CSV and reported search counts with
the counts the per-sub-array and whole-array searches must visit. This loads
the checks by path and runs them on tiny sweeps, so a count that drifts fails
here and not only in a benchmark run.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np

from mlabeam import (Carrier, NearFieldGrid, TrialConfig, dbm_to_watts,
                     run_localization_experiment, run_se_sweep)
from mlabeam.localization import default_angle_grid

_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"

# A 1D grid coarse enough that the coarse 2D grid still visits 100x more points.
CONFIG = TrialConfig(aperture=2.0, num_subarrays=4, elements_per_subarray=16,
                     carrier=Carrier.from_frequency(15e9), power=0.1, noise_power=10**-10.8,
                     sweep_variable="num_subarrays", sweep_values=(2, 4), trials=3,
                     base_seed=5, angle_step=0.05)
ANGLE_POINTS = default_angle_grid(CONFIG.angle_step).size


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


def test_localization_sweep_passes_checks(tmp_path):
    path = tmp_path / "loc.csv"
    res = run_localization_experiment(CONFIG, out_path=str(path))

    def check(cost_1d):
        return checks.check_localization_sweep(path, CONFIG.sweep_values, CONFIG.trials,
                                               cost_1d, CONFIG.sweep_values, ANGLE_POINTS)
    assert check(res.search_cost_proposed) == []
    assert any("grid_points_1d" in m for m in check(res.search_cost_proposed + 1))


def test_se_sweep_passes_checks(tmp_path):
    powers = (dbm_to_watts(10), dbm_to_watts(20))
    config = dataclasses.replace(CONFIG, sweep_variable="power", sweep_values=powers)
    grid = NearFieldGrid(config.array_for(4, 16), config.carrier,
                         np.arange(0.4, math.pi - 0.4, 0.01), np.arange(4.0, 40.0, 0.25))
    path = tmp_path / "se.csv"
    res = run_se_sweep(config, out_path=str(path), grid_2d=grid)

    def check(cost_1d, cost_2d):
        return checks.check_se_sweep(path, powers, config.trials, cost_1d, cost_2d,
                                     config.num_subarrays, ANGLE_POINTS, grid.num_points)
    cost_1d, cost_2d = res.search_cost_proposed, res.search_cost_2d
    assert check(cost_1d, cost_2d) == []
    assert any("grid_points_1d" in m for m in check(cost_1d + 1, cost_2d))
    assert any("grid_points_2d" in m for m in check(cost_1d, cost_2d - 1))
