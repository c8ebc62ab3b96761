"""Self-tests of the benchmark: checkers reject corrupted output, every
printed metric is declared in BENCHMARK.json, and each workload completes a
tiny run. Run with `python -m pytest perfbench/tests` from the repo root."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import tracing
import workloads
from mlabeam.cli import main as cli_main
from mlabeam.experiments import run_localization_experiment, run_se_sweep

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _rewrite(src, dst, edit):
    """Copy a CSV, passing each data row (as a list of fields) through edit,
    which returns the new fields or None to drop the row."""
    out, header = [], None
    for line in src.read_text().splitlines():
        if line.startswith("#"):
            out.append(line)
        elif header is None:
            header = line.split(",")
            out.append(line)
        else:
            fields = edit(dict(zip(header, line.split(","))), len(out))
            if fields is not None:
                out.append(",".join(fields[h] for h in header))
    dst.write_text("\n".join(out) + "\n")
    return dst


def _first_row_only(edit):
    state = {"done": False}

    def wrapped(row, _):
        if state["done"]:
            return row
        state["done"] = True
        return edit(row)
    return wrapped


# --- se_2d -----------------------------------------------------------------

@pytest.fixture(scope="module")
def se_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("se")
    w = workloads.SE2D(5, "tiny", d)
    w.setup(tracing.call)
    config = w._config(0)
    path = d / "se.csv"
    result = run_se_sweep(config, out_path=path, include_2d=True, grid_2d=w.grid)
    return w, config, path, result


def _se_check(se_run, path=None, cost_1d=0, cost_2d=0):
    w, config, original, result = se_run
    return checks.check_se_sweep(path or original, w.powers, config.trials,
                                 result.search_cost_proposed + cost_1d,
                                 result.search_cost_2d + cost_2d, w.num_subarrays,
                                 w.expected["angle_points"], w.expected["grid_points"])


def test_se_checker_accepts_program_output(se_run):
    assert _se_check(se_run) == []


def test_se_checker_rejects_dropped_row(se_run, tmp_path):
    dropped = _rewrite(se_run[2], tmp_path / "x.csv", lambda row, i: None if i == 3 else row)
    assert any("trial rows" in m for m in _se_check(se_run, dropped))


@pytest.mark.parametrize("cost_1d,cost_2d,word", [(1, 0, "grid_points_1d"),
                                                  (0, -1, "grid_points_2d")])
def test_se_checker_rejects_wrong_search_count(se_run, cost_1d, cost_2d, word):
    assert any(word in m for m in _se_check(se_run, cost_1d=cost_1d, cost_2d=cost_2d))


def test_se_checker_rejects_rate_above_ideal(se_run, tmp_path):
    def edit(row):
        row["se_proposed"] = repr(float(row["se_perfect"]) + 0.5)
        return row
    bad = _rewrite(se_run[2], tmp_path / "x.csv", _first_row_only(edit))
    assert any("above se_perfect" in m for m in _se_check(se_run, bad))


def test_se_checker_rejects_footer_not_matching_rows(se_run, tmp_path):
    def edit(row):
        row["se_2d"] = repr(float(row["se_2d"]) * 1.01)
        return row
    bad = _rewrite(se_run[2], tmp_path / "x.csv", _first_row_only(edit))
    assert any("footer mean_se_2d" in m for m in _se_check(se_run, bad))


def test_se_checker_rejects_small_search_gap(se_run):
    w, config, path, result = se_run
    failures = checks.check_se_sweep(path, w.powers, config.trials,
                                     result.search_cost_proposed, result.search_cost_2d,
                                     w.num_subarrays, w.expected["angle_points"],
                                     w.expected["grid_points"], min_ratio=1e6)
    assert any("ratio" in m for m in failures)


# --- localize_sweep --------------------------------------------------------

@pytest.fixture(scope="module")
def loc_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("loc")
    L, N, variable, values = workloads.LocalizeSweep.SWEEPS[1]
    config = workloads._trial_config(workloads.Carrier.from_frequency(15e9), L, N, variable,
                                     values, 0.1, 2, 7, workloads.SIZES["tiny"]["angle_step"])
    path = d / "loc.csv"
    result = run_localization_experiment(config, out_path=path)
    return values, config, path, result


def _loc_check(loc_run, path=None, cost=0):
    values, config, original, result = loc_run
    return checks.check_localization_sweep(path or original, values, config.trials,
                                           result.search_cost_proposed + cost, values,
                                           workloads.BASELINE_COUNTS["tiny"]["angle_points"])


def test_localization_checker_accepts_program_output(loc_run):
    assert _loc_check(loc_run) == []


def test_localization_checker_rejects_bad_output(loc_run, tmp_path):
    assert any("grid_points_1d" in m for m in _loc_check(loc_run, cost=157))
    dropped = _rewrite(loc_run[2], tmp_path / "d.csv", lambda row, i: None if i == 2 else row)
    assert _loc_check(loc_run, dropped)

    def edit(row):
        row["sq_error"] = "inf"
        return row
    bad = _rewrite(loc_run[2], tmp_path / "e.csv", _first_row_only(edit))
    assert any("non-finite" in m for m in _loc_check(loc_run, bad))


# --- beam_figures ----------------------------------------------------------

@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    w = workloads.BeamFigures(3, "tiny", d)
    paths = {}
    for index, job in enumerate(w.ROUND[:4]):
        paths[job] = d / f"{job}.csv"
        assert cli_main(w.argv(index, paths[job])) == 0
    return paths


def _cli_check(job, path):
    return checks.check_cli_output(job, path, workloads.SIZES["tiny"]["cli_rows"][job])


@pytest.mark.parametrize("job", ["beampattern", "cutline", "depth", "design"])
def test_cli_checker_accepts_program_output(cli_outputs, job):
    assert _cli_check(job, cli_outputs[job]) == []


@pytest.mark.parametrize("job,column,value", [("beampattern", "gain", "1.5"),
                                              ("cutline", "envelope", "-0.01"),
                                              ("depth", "gain_focus_2", "1.5")])
def test_cli_checker_rejects_gain_outside_unit_interval(cli_outputs, tmp_path, job, column,
                                                       value):
    def edit(row):
        row[column] = value
        return row
    bad = _rewrite(cli_outputs[job], tmp_path / "x.csv", _first_row_only(edit))
    assert any("outside [0, 1]" in m for m in _cli_check(job, bad))


def test_cli_checker_rejects_dropped_row(cli_outputs, tmp_path):
    bad = _rewrite(cli_outputs["cutline"], tmp_path / "x.csv",
                   lambda row, i: None if i == 5 else row)
    assert any("rows, expected" in m for m in _cli_check("cutline", bad))


def test_cli_checker_rejects_unordered_foci(cli_outputs, tmp_path):
    text = cli_outputs["depth"].read_text().splitlines()
    line = next(i for i, t in enumerate(text) if t.startswith("# foci_m: "))
    foci = text[line][len("# foci_m: "):].split(",")
    text[line] = "# foci_m: " + ",".join(reversed(foci))
    bad = tmp_path / "x.csv"
    bad.write_text("\n".join(text) + "\n")
    assert any("strictly increasing" in m for m in _cli_check("depth", bad))


@pytest.mark.parametrize("n,L,word", [("16", "2", "increases"), ("64", "4", "N=64")])
def test_cli_checker_rejects_bad_design(cli_outputs, tmp_path, n, L, word):
    def edit(row, _):
        if row["antennas_per_subarray"] == n:
            row["num_subarrays"] = L
        return row
    bad = _rewrite(cli_outputs["design"], tmp_path / "x.csv", edit)
    assert any(word in m for m in _cli_check("design", bad))


# --- tracing ---------------------------------------------------------------

def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)

    start = tracing.clock()
    tracer.call("outer", outer)
    stats, covered = tracer.summary(start, tracing.clock())
    assert stats["leaf"]["calls"] == 2
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["leaf"]["total_s"])
    assert 0.009 < stats["outer"]["self_s"] < 0.02
    # the leaves cover about 40 of outer's 50 ms
    assert covered == pytest.approx(stats["leaf"]["total_s"] / stats["outer"]["total_s"])
    assert 0.6 < covered < 0.9


def test_patches_are_restored():
    import mlabeam.localization as loc

    original = loc.music_1d
    with tracing.Tracer().installed():
        assert loc.music_1d is not original
    assert loc.music_1d is original


# --- whole runs ------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_exactly_the_declared_metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert declared[name]["better"] in ("lower", "higher")
        assert math.isfinite(metric["value"])


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "localize_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_raising_chunk_counts_as_failed_and_run_still_reports():
    import worker

    class Broken(workloads.Workload):
        def plan(self, index):
            return "chunk", 0, 3

        def run(self, index, call):
            raise ValueError("boom")

    w = Broken(1, "tiny", ".")
    chunks, _, _ = worker.run_phase(w, tracing.call, 0.0, 0)
    assert worker.totals(chunks) == {"attempted": 3, "failed": 3}
    assert worker.end_to_end(w, chunks, 1.0)["ok_frac"] == 0.0
    json.dumps(worker.chunk_seconds(chunks), allow_nan=False)


def test_units_per_s_takes_each_slot_at_its_median_repeat():
    import worker

    w = workloads.BeamFigures(1, "tiny", ".")
    # three rounds; the second is 1 s slower per chunk, the third 9 s
    chunks = [workloads.Chunk(*w.plan(i), seconds=1.0 + (7 <= i < 14) + 9 * (i >= 14))
              for i in range(21)]
    assert worker.units_per_s(w, chunks) == pytest.approx(7 / 14.0)
    assert worker.mean_units_per_s(chunks) == pytest.approx(21 / 91.0)
    # a slot with no completed repeat gives no rate
    assert worker.units_per_s(w, chunks[:6]) == 0.0


def test_repeats_of_a_slot_run_the_same_inputs(tmp_path):
    w = workloads.BeamFigures(4, "tiny", tmp_path)
    n = len(w.ROUND)
    assert w.argv(2, "x") == w.argv(2 + n, "x")
    assert w.argv(1, "x") != w.argv(4, "x")  # cutline slots differ in focus
    se = workloads.SE2D(4, "tiny", tmp_path)
    assert se._config(se.slot(0)) == se._config(se.slot(5))
