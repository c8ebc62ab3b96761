import dataclasses
import hashlib
import itertools
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlabeam import (Carrier, TrialConfig, derive_trial_seed, dbm_to_watts,
                     read_records_csv, run_localization_experiment, run_se_sweep,
                     write_records_csv)
from mlabeam import experiments, localization, numerics
from mlabeam.experiments import RECORD_FIELDS, ExperimentRecord
from mlabeam.geometry import InfeasibleArrayError
from mlabeam.localization import (DegenerateSubspaceError, IllConditionedTriangulationError,
                                  NearFieldGrid, default_angle_grid)

CAR = Carrier.from_frequency(15e9)
COARSE_ANGLES = np.arange(0.4, math.pi - 0.4, 0.01)
COARSE_DISTANCES = np.arange(4.0, 40.0, 0.25)


def _config(**kw):
    base = dict(aperture=2.0, num_subarrays=4, elements_per_subarray=16, carrier=CAR,
                power=0.1, noise_power=10**-10.8,
                sweep_variable="elements_per_subarray", sweep_values=(4, 8),
                trials=5, base_seed=42)
    base.update(kw)
    return TrialConfig(**base)


def test_seed_derivation_frozen():
    assert derive_trial_seed(1, 0) == 131810209200342613
    assert derive_trial_seed(1, 0, stream=1) == 5944885949328154090
    assert derive_trial_seed(1, 1) == 14191963223590139570


@settings(max_examples=200, deadline=None)
@given(base_seed=st.integers(0, 2**64 - 1),
       trials=st.sets(st.integers(0, 2**32), min_size=1, max_size=64))
@example(base_seed=7, trials=set(range(50)))
def test_seed_derivation_properties(base_seed, trials):
    """The user and snapshot streams of any trials under one base seed never
    share a seed, every seed fits in 64 bits, and the base seed matters."""
    seeds = [derive_trial_seed(base_seed, t, stream=s) for t in trials for s in (0, 1)]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= v < 2**64 for v in seeds)
    t = min(trials)
    assert derive_trial_seed(base_seed ^ 1, t) != derive_trial_seed(base_seed, t)


def test_draw_user_bounds_and_determinism():
    cfg = _config(trials=200)
    for trial in (0, 17, 199):
        angle, dist = cfg.draw_user(trial)
        assert math.pi / 2 - math.radians(60) <= angle <= math.pi / 2 + math.radians(60)
        assert 4.0 <= dist <= 40.0
        assert cfg.draw_user(trial) == (angle, dist)


def test_users_shared_across_sweep_points(tmp_path):
    res = run_localization_experiment(_config(), out_path=None)
    by_value = {}
    for r in res.records:
        by_value.setdefault(r.sweep_value, []).append((r.true_x, r.true_z))
    a, b = by_value.values()
    assert a == b


def test_csv_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_localization_experiment(_config(), out_path=str(p1))
    run_localization_experiment(_config(), out_path=str(p2))
    assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()


def test_csv_layout(tmp_path):
    p = tmp_path / "r.csv"
    run_localization_experiment(_config(), out_path=str(p))
    raw = p.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == ",".join(RECORD_FIELDS)
    assert sum(1 for ln in lines if ln.startswith("# aggregate: ")) == 2
    body = [ln for ln in lines[2:] if not ln.startswith("#")]
    assert len(body) == 10  # trials x sweep points


def _run(driver, out_path=None, **kw):
    """Run one Monte Carlo driver on a small config; SE uses a coarse 2D grid."""
    if driver == "localize":
        return run_localization_experiment(_config(**kw), out_path=out_path)
    cfg = _config(sweep_variable="power", sweep_values=(dbm_to_watts(10), dbm_to_watts(20)),
                  **kw)
    if driver == "se_no_2d":
        return run_se_sweep(cfg, out_path=out_path, include_2d=False)
    grid = NearFieldGrid(cfg.array_for(4, 16), CAR, COARSE_ANGLES, COARSE_DISTANCES)
    return run_se_sweep(cfg, out_path=out_path, grid_2d=grid)


def _exclude_trials(monkeypatch, trials, ill_conditioned=(), degenerate=()):
    """Make locate fail on the given trial indices where the real pipeline
    does: a degenerate subspace before the angle search, an ill-conditioned
    triangulation after it. Returns the list of grid points each real angle
    search visited, counted from its picks."""
    real_locate, real_music = experiments.locate, localization.music_1d
    calls, visited = itertools.count(), []

    def locate(*args, **kwargs):
        trial = next(calls) % trials
        if trial in degenerate:
            raise DegenerateSubspaceError("forced degeneracy")
        est = real_locate(*args, **kwargs)
        if trial in ill_conditioned:
            raise IllConditionedTriangulationError("forced exclusion")
        return est

    def music_1d(principal, positions, grid, wavelength):
        picks = real_music(principal, positions, grid, wavelength)
        visited.append(len(grid) * np.size(picks))
        return picks
    monkeypatch.setattr(experiments, "locate", locate)
    monkeypatch.setattr(localization, "music_1d", music_1d)
    return visited


@pytest.mark.parametrize("driver", ["localize", "se"])
def test_search_costs_are_exact(monkeypatch, driver):
    """search_cost_proposed is L(v) x angle points for every trial that
    reached the angle search: an ill-conditioned trial counts, a degenerate
    one does not, and the sum is what the searches visited. search_cost_2d
    is every 2D grid point once per kept trial."""
    visited = _exclude_trials(monkeypatch, 4, ill_conditioned=(2,), degenerate=(1,))
    geometry = dict(sweep_variable="num_subarrays", sweep_values=(2, 4))
    res = _run(driver, trials=4, **(geometry if driver == "localize" else {}))
    subarrays = 2 + 4 if driver == "localize" else 4 + 4  # L summed over sweep points
    kept = len(res.records) - res.excluded_total
    assert kept == 4
    angle_points = default_angle_grid(res.config.angle_step).size
    assert res.search_cost_proposed == sum(visited) == subarrays * angle_points * 3
    assert res.search_cost_2d == (COARSE_ANGLES.size * COARSE_DISTANCES.size * kept
                                  if driver == "se" else 0)


def _summary_from_rows(driver, kept):
    if driver == "localize":
        num = sum((r["est_x"] - r["true_x"]) ** 2 + (r["est_z"] - r["true_z"]) ** 2
                  for r in kept)
        return {"nmse": num / sum(r["true_x"] ** 2 + r["true_z"] ** 2 for r in kept)}
    means = {}
    for name in ("se_proposed", "se_2d", "se_perfect"):
        finite = [r[name] for r in kept if not math.isnan(r[name])]
        means[f"mean_{name}"] = sum(finite) / len(finite) if finite else math.nan
    return means


@pytest.mark.parametrize("dropped", [(), (1, 4)], ids=["all_kept", "two_excluded"])
@pytest.mark.parametrize("driver", ["localize", "se", "se_no_2d"])
def test_aggregates_recomputable_from_rows(tmp_path, monkeypatch, driver, dropped):
    """The footer statistics must follow from the stored rows bit for bit."""
    _exclude_trials(monkeypatch, 7, ill_conditioned=dropped)
    p = tmp_path / "r.csv"
    _run(driver, out_path=str(p), trials=7)
    config, records, aggregates = read_records_csv(str(p))
    assert config["trials"] == "7"
    assert len(records) == 14
    for agg in aggregates:
        rows = [r for r in records if r["sweep_value"] == agg["sweep_value"]]
        kept = [r for r in rows if not r["excluded"]]
        assert agg["excluded"] == len(rows) - len(kept) == len(dropped)
        for key, value in _summary_from_rows(driver, kept).items():
            # exact, both sides round-trip %.17g; NaN (no 2D baseline) equals NaN
            np.testing.assert_equal(value, agg[key])


@pytest.mark.parametrize("driver", ["localize", "se"])
def test_excluded_trial_rows(monkeypatch, driver):
    _exclude_trials(monkeypatch, 5, ill_conditioned=(0, 3))
    res = _run(driver, trials=5)
    assert res.excluded_total == 4
    estimates = ("est_x", "est_z", "sq_error", "est_x_2d", "est_z_2d", "sq_error_2d",
                 "se_proposed", "se_2d")
    for r in res.records:
        assert r.excluded == (r.trial in (0, 3))
        if r.excluded:
            assert all(math.isnan(getattr(r, name)) for name in estimates)
        assert math.isfinite(r.se_perfect) == (driver == "se")
    if driver == "se":  # the 2D baseline searches only the kept trials
        kept = len(res.records) - res.excluded_total
        assert res.search_cost_2d == COARSE_ANGLES.size * COARSE_DISTANCES.size * kept


@pytest.mark.parametrize("driver", ["localize", "se"])
def test_write_read_round_trip(tmp_path, driver):
    streamed, written = tmp_path / "s.csv", tmp_path / "w.csv"
    res = _run(driver, out_path=str(streamed))
    write_records_csv(str(written), res)
    assert written.read_bytes() == streamed.read_bytes()
    _, records, aggregates = read_records_csv(str(written))
    assert [_exact(r.values()) for r in records] == [
        _exact(dataclasses.astuple(r)) for r in res.records]
    assert list(records[0]) == list(RECORD_FIELDS)
    for want, got in zip(res.aggregates, aggregates):
        assert got == want


def _exact(values):
    """Ints as themselves and floats as their 8 bytes, so that a seed read back
    as a float, a NaN, or a -0.0 read back as 0.0 all compare unequal."""
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


_CSV_FLOATS = st.floats(allow_nan=False) | st.just(math.nan)
_RECORDS = st.lists(st.builds(
    ExperimentRecord,
    **{f.name: (st.integers(0, 2**64 - 1) if f.name == "seed"
                else st.integers(0, 1) if f.name == "excluded"
                else st.integers(0, 10**6) if f.type == "int"
                else _CSV_FLOATS)
       for f in dataclasses.fields(ExperimentRecord)}), max_size=6)


@settings(max_examples=200, deadline=None)
@given(records=_RECORDS)
@example(records=[ExperimentRecord(-0.0, 0, 2**64 - 1, math.nan, math.inf, -math.inf,
                                   5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
                                   0.1, -0.0, 1.0, 2.0, 3.0, 1)])
def test_records_csv_round_trip(tmp_path_factory, records):
    """write_records_csv then read_records_csv gives back every record field:
    floats bit for bit (NaN as the one NaN the writer prints), ints exactly."""
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    write_records_csv(str(path), experiments.ExperimentResult(_config(), records, []))
    _, got, _ = read_records_csv(str(path))
    assert [_exact(r.values()) for r in got] == [_exact(dataclasses.astuple(r))
                                                 for r in records]


def test_write_csv_rows_match_per_value_format(tmp_path):
    """One format per row writes what a per-value ",".join(_fmt(v) ...) wrote:
    int columns as %d, 64-bit seeds included, and float columns as %.17g,
    -0.0, NaN, the smallest subnormal and 1e300 included; for figure columns
    and for records alike."""
    rows = [(-0.0, 2**64 - 1, math.nan, 0), (5e-324, 2**63, 1e300, -7),
            (math.inf, 1, -math.inf, 2**53 + 1), (0.1, 0, 1.0, 3)]
    path = tmp_path / "t.csv"
    experiments._write_csv(path, ["c"], ["a", "b", "c", "d"], (float, int, float, int), rows,
                           ["f"])
    assert path.read_text().splitlines() == [
        "# c", "a,b,c,d", *(",".join(experiments._fmt(v) for v in row) for row in rows), "# f"]
    records = [ExperimentRecord(-0.0, 0, 2**64 - 1, math.nan, 1e300, 5e-324, -5e-324, 0.1,
                                math.inf, -math.inf, 2.0, 3.0, math.nan, 1.0, 1),
               ExperimentRecord(1e-300, 7, 2**63, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
                                10.0, 11.0, 0)]
    write_records_csv(str(path), experiments.ExperimentResult(_config(), records, []))
    assert path.read_text().splitlines()[2:] == [
        ",".join(experiments._fmt(v) for v in dataclasses.astuple(r)) for r in records]


def test_records_do_not_depend_on_batch_size(monkeypatch):
    """The 2D search runs as one batch of all the sweep's kept trials, so
    trials=3 and trials=7 batch differently; the shared trials must not move.
    Small grid blocks put the block boundaries at different rows for B=3 and 7."""
    monkeypatch.setattr(localization, "_BLOCK_PRODUCT_BYTES", 1 << 15)
    three, seven = (_run("se", trials=t).records for t in (3, 7))
    head = [dataclasses.astuple(r) for r in seven if r.trial < 3]
    np.testing.assert_equal([dataclasses.astuple(r) for r in three], head)
    assert all(math.isfinite(r.se_2d) for r in seven)


def test_se_sweep_searches_every_power_in_one_pass(monkeypatch):
    """One 2D pass per run_se_sweep call covers the kept trials of every
    power, and gives the records of one one-power sweep per power."""
    _exclude_trials(monkeypatch, 4, ill_conditioned=(1,))
    real, calls = NearFieldGrid.argmax_rank1, []

    def spy(grid, principal):
        calls.append(np.shape(principal))
        return real(grid, principal)
    monkeypatch.setattr(NearFieldGrid, "argmax_rank1", spy)
    powers = tuple(dbm_to_watts(p) for p in (10, 15, 20))
    cfg = _config(sweep_variable="power", sweep_values=powers, trials=4)
    grid = NearFieldGrid(cfg.array_for(4, 16), CAR, COARSE_ANGLES, COARSE_DISTANCES)
    res = run_se_sweep(cfg, grid_2d=grid)
    kept = len(res.records) - res.excluded_total
    assert (kept, res.excluded_total) == (9, 3)
    assert calls == [(64, kept)]
    assert res.search_cost_2d == grid.num_points * kept
    singles = [run_se_sweep(dataclasses.replace(cfg, sweep_values=(p,)), grid_2d=grid)
               for p in powers]
    assert len(calls) == 1 + len(powers)
    np.testing.assert_equal([dataclasses.astuple(r) for r in res.records],
                            [dataclasses.astuple(r) for s in singles for r in s.records])
    assert all(math.isfinite(r.se_2d) != r.excluded for r in res.records)


def test_se_sweep_rejects_grid_of_another_array(monkeypatch):
    """A 2D grid built for another array or carrier is refused before any
    trial runs: a different gap, a different element count, another carrier."""
    trials = []
    monkeypatch.setattr(experiments, "synthesize_snapshots",
                        lambda *args: trials.append(args))
    cfg = _config(sweep_variable="power", sweep_values=(0.1,), trials=2)
    mla = cfg.array_for(4, 16)
    ag, dg = COARSE_ANGLES[:3], COARSE_DISTANCES[:3]
    for grid in (NearFieldGrid(dataclasses.replace(mla, gap=0.3), CAR, ag, dg),
                 NearFieldGrid(cfg.array_for(2, 16), CAR, ag, dg),
                 NearFieldGrid(mla, Carrier.from_frequency(28e9), ag, dg)):
        with pytest.raises(ValueError, match="grid_2d"):
            run_se_sweep(cfg, grid_2d=grid)
    assert trials == []
    # without the 2D baseline the grid is not used, so it is not checked
    monkeypatch.undo()
    run_se_sweep(cfg, include_2d=False, grid_2d=NearFieldGrid(cfg.array_for(2, 16), CAR,
                                                              ag, dg))


@pytest.mark.parametrize("bounds", [
    dict(distance_bounds=(4.0, 90.0)),
    dict(distance_bounds=(1.0, 3.5)),
    dict(angle_bounds_deg=(-85.0, 85.0)),
], ids=["beyond_far_edge", "inside_near_edge", "beyond_angle_span"])
def test_se_sweep_rejects_users_outside_its_own_grid(monkeypatch, bounds):
    """A sweep that builds its own 2D grid refuses, before the grid and any
    trial, users the grid cannot contain; a caller's grid, or no 2D search,
    is not checked."""
    calls = []
    monkeypatch.setattr(experiments, "synthesize_snapshots", lambda *args: calls.append(args))
    monkeypatch.setattr(experiments, "NearFieldGrid", lambda *args: calls.append(args))
    cfg = _config(sweep_variable="power", sweep_values=(0.1,), trials=2, **bounds)
    with pytest.raises(ValueError, match="2D grid's span"):
        run_se_sweep(cfg)
    assert calls == []
    monkeypatch.undo()
    grid = NearFieldGrid(cfg.array_for(4, 16), CAR, COARSE_ANGLES[:3], COARSE_DISTANCES[:3])
    for kwargs in (dict(grid_2d=grid), dict(include_2d=False)):
        assert len(run_se_sweep(cfg, **kwargs).records) == 2


def test_grid_span_edges_are_inside():
    """Bounds on the span's edges pass; the default bounds lie inside."""
    edge = math.degrees(localization._GRID_HALFWIDTH)
    _config(angle_bounds_deg=(-edge, edge),
            distance_bounds=(localization._GRID_NEAR, localization._GRID_FAR)).check_grid_span()
    _config().check_grid_span()


def test_2d_grid_beyond_memory_is_refused(monkeypatch):
    """check_grid_span refuses a 2D grid that exceeds the physical memory.
    Its estimate is a lower bound of the bytes the grid stores, within 10 %:
    a host with exactly those bytes passes, one with 10 % less is refused."""
    se = dict(sweep_variable="power", sweep_values=(0.1,))
    _config(**se).check_grid_span()  # README's se sample, about 0.5 GB
    for step in (5e-324, 1e-12):
        with pytest.raises(ValueError, match="GiB of physical memory"):
            _config(distance_step=step, **se).check_grid_span()
    cfg = _config(angle_step=0.02, distance_step=0.5, **se)
    stored = NearFieldGrid(cfg.array_for(4, 16), CAR, localization.centered_angle_grid(0.02),
                           localization.default_distance_grid(0.5)).matrix.nbytes
    page = os.sysconf("SC_PAGE_SIZE")
    for memory, fits in ((stored, True), (0.9 * stored, False)):
        monkeypatch.setattr(numerics.os, "sysconf", lambda name, pages=memory / page: (
            pages if name == "SC_PHYS_PAGES" else page))
        if fits:
            cfg.check_grid_span()
        else:
            with pytest.raises(ValueError, match="GiB of physical memory"):
                cfg.check_grid_span()


def test_records_do_not_depend_on_blas_threads(tmp_path):
    """The same SE sweep with its 2D baseline gives the same bytes on one and
    on two BLAS threads; the thread count is set for the child process only."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"se_{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "mlabeam.cli", "se", "--trials", "4",
                        "--power_dbm_values", "10,20", "--angle_step_rad", "0.01",
                        "--distance_step_m", "0.1", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_se_sweep_holds_blas_at_one_thread(monkeypatch):
    """BLAS is held at one thread through the whole SE sweep, its trials and
    its 2D pass, whose screen pins again inside that pin on two workers; the
    old count is back after the sweep, also when a trial raises. The grid is
    built before the controls are watched, since its build pins too."""
    cfg = _config(sweep_variable="power", sweep_values=(0.1, 1.0), trials=3)
    grid = NearFieldGrid(cfg.array_for(4, 16), CAR, COARSE_ANGLES[:10], COARSE_DISTANCES[:20])
    count, puts, seen = {"threads": 2}, [], []

    def put(n):
        puts.append(n)
        count["threads"] = n

    def watch(fn):
        def called(*args):
            seen.append(count["threads"])
            return fn(*args)
        return called

    monkeypatch.setattr(numerics, "_BLAS_THREADS", (lambda: count["threads"], put))
    monkeypatch.setattr(numerics, "_WORKERS", 2)
    monkeypatch.setattr(localization, "_BLOCK_PRODUCT_BYTES", 1)
    monkeypatch.setattr(experiments, "locate", watch(experiments.locate))
    monkeypatch.setattr(experiments, "music_2d", watch(experiments.music_2d))
    run_se_sweep(cfg, grid_2d=grid)
    assert seen == [1] * 7  # six trials, then the 2D pass
    assert puts == [1, 1, 1, 2] and count["threads"] == 2

    def fail(*args):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(experiments, "locate", fail)
    count["threads"] = 3
    with pytest.raises(RuntimeError, match="trial failed"):
        run_se_sweep(cfg, grid_2d=grid)
    assert count["threads"] == 3


def test_localization_trend_smoke():
    res = run_localization_experiment(_config(sweep_values=(4, 16), trials=12))
    nmse = {a["sweep_value"]: a["nmse"] for a in res.aggregates}
    assert nmse[16.0] <= nmse[4.0]


def test_se_sweep_proposed_below_perfect(tmp_path):
    cfg = _config(sweep_variable="power",
                  sweep_values=(dbm_to_watts(10), dbm_to_watts(20)), trials=4)
    grid = NearFieldGrid(cfg.array_for(4, 16), CAR, COARSE_ANGLES, COARSE_DISTANCES)
    res = run_se_sweep(cfg, out_path=str(tmp_path / "se.csv"), grid_2d=grid)
    for r in res.records:
        assert r.se_proposed <= r.se_perfect + 1e-12
        assert r.se_2d <= r.se_perfect + 1e-12
    assert res.search_cost_proposed > 0
    assert res.search_cost_2d == grid.num_points * 4 * 2
    se10, se20 = (a["mean_se_proposed"] for a in res.aggregates)
    assert se20 > se10


def test_se_sweep_without_2d():
    cfg = _config(sweep_variable="power", sweep_values=(0.1,), trials=3)
    res = run_se_sweep(cfg, include_2d=False)
    assert res.search_cost_2d == 0
    assert all(math.isnan(r.se_2d) for r in res.records)
    assert all(math.isfinite(r.se_proposed) for r in res.records)


@pytest.mark.parametrize("driver", ["localize", "se"])
def test_unwritable_out_path_fails_before_any_trial(tmp_path, monkeypatch, driver):
    trials = []
    monkeypatch.setattr(experiments, "synthesize_snapshots",
                        lambda *args: trials.append(args))
    with pytest.raises(OSError):
        _run(driver, out_path=str(tmp_path / "missing" / "r.csv"))
    assert trials == []


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        _config(sweep_variable="bandwidth")
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError, match="distinct"):
        _config(sweep_values=(4, 4))
    # a geometry sweep value is a count: 4.5 is refused, not run as N = 4
    for variable in ("elements_per_subarray", "num_subarrays"):
        for bad in (4.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="whole numbers"):
                _config(sweep_variable=variable, sweep_values=(4, bad))
    assert _config(sweep_values=(4, 8.0)).sweep_values == (4, 8.0)
    for bounds in ({"angle_bounds_deg": (30.0, -30.0)}, {"distance_bounds": (20.0, 5.0)}):
        with pytest.raises(ValueError, match="ordered"):
            _config(**bounds)
    with pytest.raises(ValueError):
        run_se_sweep(_config())  # geometry sweep fed to the power harness
    with pytest.raises(ValueError, match="run_se_sweep"):
        run_localization_experiment(_config(sweep_variable="power", sweep_values=(0.1,)))
    for steps in ({"angle_step": 0.0}, {"angle_step": -0.002}, {"distance_step": 0.0},
                  {"distance_step": -0.02}):
        with pytest.raises(ValueError):
            _config(**steps)
    power_sweep = dict(sweep_variable="power", sweep_values=(0.1,), trials=1)
    # an angle step whose 1D steering matrix exceeds any host's memory
    for step in (5e-324, 1e-12):
        for sweep in ({}, power_sweep):
            with pytest.raises(ValueError, match="GiB of physical memory"):
                _config(angle_step=step, **sweep)
    for noise in (0.0, -1e-11):
        with pytest.raises(ValueError):
            run_se_sweep(_config(noise_power=noise, **power_sweep), include_2d=False)
    # refused before any trial: a sweep point without a feasible array, a
    # transmit power or a noise power that is not a number every trial can use
    trials = []
    monkeypatch.setattr(experiments, "synthesize_snapshots",
                        lambda *args: trials.append(args))
    with pytest.raises(InfeasibleArrayError):
        run_localization_experiment(_config(sweep_values=(4, 64)))
    with pytest.raises(ValueError):
        run_localization_experiment(_config(sweep_values=(8, 1)))
    for bad in (math.nan, math.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="transmit power"):
            run_localization_experiment(_config(power=bad))
        with pytest.raises(ValueError, match="transmit power"):
            run_se_sweep(_config(sweep_variable="power", sweep_values=(0.1, bad)),
                         include_2d=False)
    for noise in (math.nan, math.inf, -1e-11):
        with pytest.raises(ValueError, match="noise power"):
            run_localization_experiment(_config(noise_power=noise))
    assert trials == []
    monkeypatch.undo()
    # a power sweep ignores power, and the CLI passes NaN there
    nan_power = _config(power=math.nan, sweep_variable="power", sweep_values=(0.1,), trials=1)
    assert run_se_sweep(nan_power, include_2d=False).excluded_total == 0
    # noiseless localization stays supported
    assert run_localization_experiment(_config(noise_power=0.0, trials=1)).excluded_total == 0
