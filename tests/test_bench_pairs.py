"""tools/bench_pairs.py on stand-in checkouts whose run.py prints a fixed result."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

FAKE_RUN = '''import json
import sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--seconds"] == "7", "run length must come from BENCHMARK.json"
seed = int(args["--seed"])
times = {{"0:beampattern": [seed + {bonus} + 0.5, 1.5], "1:cutline": [0.25]}}
setups = [seed + 0.25, seed + {bonus}]
print(json.dumps({{"report": {{"count_guard": {{"grid_bytes": [seed + {bonus}, 100]}}, "chunk_seconds": times, "setup_samples_s": setups}}}}))
print('{{"correct": true, "attempted": 1, "failed": 0, "metrics": {{'
      '"units_per_s": {{"value": %d, "unit": "1/s"}}, '
      '"peak_rss_mb": {{"value": 100, "unit": "MB"}}}}}}' % (seed + {bonus}))
'''


def _git(root: Path, *args) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                           "-c", "commit.gpgsign=false", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()


def _commit_run(root: Path, bonus: int) -> str:
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(bonus=bonus))
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", f"bonus {bonus}")
    return _git(root, "rev-parse", "HEAD")


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A stand-in repository and its first commit, the parent: the run.py at
    its HEAD scores 5 more than the parent's."""
    root = tmp_path / "change"
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "workloads": [{"name": "se_2d"}, {"name": "beam_figures"}],
        "end_to_end": [
            {"name": "units_per_s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    _git(root, "init", "-q")
    parent = _commit_run(root, 0)
    _commit_run(root, 5)
    monkeypatch.setattr(bench_pairs, "CHECKOUT", root)
    return root, parent


def test_pairs_alternate_and_summarize(repo, tmp_path):
    change, parent = repo
    parent_dir = tmp_path / "parent"  # missing: the tool clones it
    assert bench_pairs.main(["--label", "t", "--parent", parent,
                             "--parent-dir", str(parent_dir), "--pairs", "3",
                             "--workload", "se_2d:10"]) == 0
    assert _git(parent_dir, "rev-parse", "HEAD") == parent
    doc = json.loads((change / "BENCH_t.json").read_text())
    assert doc["parent"] == parent and doc["seeds"] == {"se_2d": "10-12"}
    assert "--seconds 7 " in doc["description"]
    assert [(r["pair"], r["side"], r["seed"]) for r in doc["runs"]] == [
        (0, "parent", 10), (0, "change", 10), (1, "change", 11), (1, "parent", 11),
        (2, "parent", 12), (2, "change", 12)]
    # each run keeps the count_guard of its report line
    assert [r["count_guard"] for r in doc["runs"]] == [
        {"grid_bytes": [b, 100]} for b in (10, 15, 16, 11, 12, 17)]
    rate = doc["summary"]["se_2d"]["units_per_s"]
    assert rate["pairs"] == 3 and rate["change_won"] == 3
    assert rate["parent"] == {"median": 11, "q1": 10.5, "q3": 11.5}
    assert rate["change"]["median"] == 16
    assert rate["relative_change"] == pytest.approx(5 / 11)
    assert rate["parent_spread"] == pytest.approx(1 / 11)
    assert rate["verdict"] == "better" and rate["gain"] is True
    rss = doc["summary"]["se_2d"]["peak_rss_mb"]
    assert rss["change_won"] == 0  # ties win nothing
    assert (rss["relative_change"], rss["parent_spread"], rss["verdict"]) == (0, 0, "no worse")
    assert rss["gain"] is False
    # each slot's median over all of a side's chunks: 1.5 and seed + bonus + 0.5, three times
    assert doc["summary"]["se_2d"]["chunk_median_s"] == {
        "0:beampattern": {"parent": 6.0, "change": 8.5},
        "1:cutline": {"parent": 0.25, "change": 0.25}}


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("higher", [100, 101, 102], [96, 97, 98], "no worse"),
    ("higher", [100, 101, 102], [60, 61, 62], "worse"),
    ("higher", [100, 101, 102], [140, 141, 142], "better"),
    ("lower", [100, 101, 102], [140, 141, 142], "worse"),
    ("lower", [100, 101, 102], [60, 61, 62], "better"),
    # the parent's quartiles span half its median, twice the bound
    ("higher", [50, 100, 150], [60, 100, 140], "unresolved"),
    ("higher", [50, 100, 150], [10, 20, 30], "unresolved"),
    # as wide, but every run of the change beats every run of the parent
    ("higher", [50, 100, 150], [160, 170, 180], "better"),
    ("lower", [50, 100, 150], [40, 45, 48], "better"),
], ids=["no_worse", "worse", "better", "lower_worse", "lower_better", "unresolved",
        "unresolved_worse", "wide_but_beats_all", "lower_wide_but_beats_all"])
def test_verdict_against_the_bound(better, parent, change, verdict):
    """Stand-in pairs for each verdict, with a 25 % bound."""
    runs = [{"workload": "w", "pair": i, "side": side,
             "result": {"metrics": {"m": {"value": value}}}}
            for i, values in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), values)]
    metrics = [{"name": "m", "better": better, "bound": 0.25}]
    assert bench_pairs.summarize(runs, metrics)["w"]["m"]["verdict"] == verdict


@pytest.mark.parametrize("better, parent, change, gain", [
    # 10 pairs; the parent's median is 102 and its q1..q3 101..103, a spread of 2
    ("higher", [100 + i % 5 for i in range(10)], [104 + i % 5 for i in range(10)], True),
    # the median gains 2, no more than the spread, though every pair is won
    ("higher", [100 + i % 5 for i in range(10)], [102 + i % 5 for i in range(10)], False),
    # a large median gain, but 8 of 10 pairs won
    ("higher", [100 + i % 5 for i in range(10)], [200] * 8 + [0, 0], False),
    # 9 of 10 pairs won, the median 4.5 better
    ("higher", [100 + i % 5 for i in range(10)], [105 + i % 5 for i in range(9)] + [0], True),
    ("lower", [100 + i % 5 for i in range(10)], [96 + i % 5 for i in range(10)], True),
    ("lower", [100 + i % 5 for i in range(10)], [104 + i % 5 for i in range(10)], False),
], ids=["gain", "within_spread", "eight_of_ten", "nine_of_ten", "lower_gain", "lower_worse"])
def test_gain_flag(better, parent, change, gain):
    """The gain flag holds when the change won at least 9 of 10 pairs and its
    median beats the parent's by more than the parent's q3 - q1."""
    runs = [{"workload": "w", "pair": i, "side": side,
             "result": {"metrics": {"m": {"value": value}}}}
            for i, values in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), values)]
    metrics = [{"name": "m", "better": better, "bound": 0.25}]
    assert bench_pairs.summarize(runs, metrics)["w"]["m"]["gain"] is gain


@pytest.mark.parametrize("stand_in", ["wrong_commit", "not_git", "edited"])
def test_parent_dir_must_hold_parent(repo, tmp_path, stand_in):
    """An existing --parent-dir is checked, not trusted: a checkout at another
    commit, a copy without git, or a checkout with edited files stops the
    tool before any run."""
    change, parent = repo
    parent_dir = tmp_path / "parent"
    if stand_in == "not_git":
        (parent_dir / "perfbench").mkdir(parents=True)
        (parent_dir / "perfbench" / "run.py").write_text(FAKE_RUN.format(bonus=0))
    else:
        subprocess.run(["git", "clone", "-q", str(change), str(parent_dir)], check=True)
        if stand_in == "edited":
            _git(parent_dir, "checkout", "-q", "--detach", parent)
            (parent_dir / "perfbench" / "run.py").write_text(FAKE_RUN.format(bonus=5))
    with pytest.raises(SystemExit):
        bench_pairs.main(["--label", "t", "--parent", parent,
                          "--parent-dir", str(parent_dir), "--pairs", "1",
                          "--workload", "se_2d:10"])
    assert not (change / "BENCH_t.json").exists()


@pytest.mark.parametrize("bad", [
    ["--workload", "se_2d"],
    ["--workload", "se_3d:10"],
    ["--workload", "se_2d:ten"],
    ["--workload", "se_2d:10", "--pairs", "0"],
], ids=["workload_without_seed", "unknown_workload", "seed_not_a_number", "zero_pairs"])
def test_bad_arguments_stop_the_tool_before_it_clones(repo, tmp_path, capsys, bad):
    """A workload without :SEED once ended in a ValueError traceback, and
    --pairs 0 cloned the parent and exited 0 without a BENCH file: both are
    argparse errors now, before any clone or run."""
    change, parent = repo
    parent_dir = tmp_path / "parent"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--label", "t", "--parent", parent,
                          "--parent-dir", str(parent_dir), *bad])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert not parent_dir.exists() and not (change / "BENCH_t.json").exists()


@pytest.mark.parametrize("fault", ['"correct": false', '"failed": 1'],
                         ids=["correct_false", "failed_1"])
def test_run_that_fails_its_checks_stops_the_tool(repo, tmp_path, fault):
    """A run that exits 0 but reports a failed check is not a sample: the tool
    stops on it and BENCH_<label>.json holds only the runs before it."""
    change, parent = repo
    passing = '"correct": true' if "correct" in fault else '"failed": 0'
    (change / "perfbench" / "run.py").write_text(FAKE_RUN.format(bonus=5).replace(passing, fault))
    _git(change, "commit", "-qam", "fails its checks")
    with pytest.raises(RuntimeError, match="change run of se_2d seed 10 .* failed its checks"):
        bench_pairs.main(["--label", "t", "--parent", parent,
                          "--parent-dir", str(tmp_path / "parent"), "--pairs", "2",
                          "--workload", "se_2d:10"])
    doc = json.loads((change / "BENCH_t.json").read_text())
    assert [(r["side"], r["seed"], r["result"]["correct"]) for r in doc["runs"]] == [
        ("parent", 10, True)]


@pytest.mark.parametrize("run_py", ['print("done")\n', "pass\n"],
                         ids=["last_line_not_json", "prints_nothing"])
def test_run_without_a_json_last_line_stops_the_tool(repo, tmp_path, run_py):
    """A run whose last line is no JSON, or that prints nothing, once ended in
    a bare JSONDecodeError or an unpacking ValueError: it stops the tool with
    a RuntimeError naming the run, and BENCH_<label>.json holds only the runs
    before it."""
    change, parent = repo
    (change / "perfbench" / "run.py").write_text(run_py)
    _git(change, "commit", "-qam", "no JSON last line")
    with pytest.raises(RuntimeError, match="change run of se_2d seed 10 .* printed no JSON"):
        bench_pairs.main(["--label", "t", "--parent", parent,
                          "--parent-dir", str(tmp_path / "parent"), "--pairs", "2",
                          "--workload", "se_2d:10"])
    doc = json.loads((change / "BENCH_t.json").read_text())
    assert [(r["side"], r["seed"]) for r in doc["runs"]] == [("parent", 10)]


def test_report_line_that_is_not_json_records_no_count_guard(repo, tmp_path):
    """A plain-text report line is no error: that run's entry has no
    count_guard."""
    change, parent = repo
    lines = FAKE_RUN.format(bonus=5).splitlines()
    (change / "perfbench" / "run.py").write_text("\n".join(
        'print("report line")' if "count_guard" in line else line for line in lines) + "\n")
    _git(change, "commit", "-qam", "plain report line")
    assert bench_pairs.main(["--label", "t", "--parent", parent,
                             "--parent-dir", str(tmp_path / "parent"), "--pairs", "1",
                             "--workload", "se_2d:10"]) == 0
    doc = json.loads((change / "BENCH_t.json").read_text())
    assert [(r["side"], "count_guard" in r) for r in doc["runs"]] == [
        ("parent", True), ("change", False)]


def test_runs_keep_their_chunk_seconds(repo, tmp_path):
    """Each run keeps its report line's chunk_seconds and setup_samples_s
    beside its count_guard, so a run's slot times and each fresh process's
    set-up time can be compared across sides; a report line without them
    keeps its count_guard alone."""
    change, parent = repo
    (change / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(bonus=5).replace('"chunk_seconds"', '"other_times"')
        .replace('"setup_samples_s"', '"other_setups"'))
    _git(change, "commit", "-qam", "no chunk_seconds or setup_samples_s")
    assert bench_pairs.main(["--label", "t", "--parent", parent,
                             "--parent-dir", str(tmp_path / "parent"), "--pairs", "2",
                             "--workload", "beam_figures:10"]) == 0
    doc = json.loads((change / "BENCH_t.json").read_text())
    times = {10: {"0:beampattern": [10.5, 1.5], "1:cutline": [0.25]},
             11: {"0:beampattern": [11.5, 1.5], "1:cutline": [0.25]}}
    assert [(r["side"], r["seed"], r.get("chunk_seconds"), r.get("setup_samples_s"),
             r["count_guard"]) for r in doc["runs"]] == [
        ("parent", 10, times[10], [10.25, 10], {"grid_bytes": [10, 100]}),
        ("change", 10, None, None, {"grid_bytes": [15, 100]}),
        ("change", 11, None, None, {"grid_bytes": [16, 100]}),
        ("parent", 11, times[11], [11.25, 11], {"grid_bytes": [11, 100]})]
    # the chunk medians come from the side that recorded chunk times
    assert doc["summary"]["beam_figures"]["chunk_median_s"] == {
        "0:beampattern": {"parent": 6.0}, "1:cutline": {"parent": 0.25}}


def test_each_run_is_written_on_one_line(repo, tmp_path):
    """BENCH_<label>.json puts each run, with its chunk and set-up time lists,
    on a line of its own; the rest stays indented one space per level."""
    change, parent = repo
    assert bench_pairs.main(["--label", "t", "--parent", parent,
                             "--parent-dir", str(tmp_path / "parent"), "--pairs", "2",
                             "--workload", "beam_figures:10"]) == 0
    text = (change / "BENCH_t.json").read_text()
    doc = json.loads(text)
    runs = [line for line in text.splitlines() if line.startswith("  {")]
    assert [json.loads(line.removesuffix(",")) for line in runs] == doc["runs"]
    assert len(runs) == 4 and all("chunk_seconds" in run for run in doc["runs"])
    others = {key: value for key, value in doc.items() if key != "runs"}
    assert all(line in text for line in json.dumps(others, indent=1).splitlines()[1:-1])
