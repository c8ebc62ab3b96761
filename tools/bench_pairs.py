"""Alternating untraced benchmark pairs: a parent commit against the checkout.

    python3 tools/bench_pairs.py --label NAME --parent COMMIT \
        --parent-dir ../parent-checkout --pairs 10 \
        --workload se_2d:1401 --workload beam_figures:1501

For each workload and each pair i it runs ``perfbench/run.py --workload W
--seed FIRST+i --seconds S --trace 0`` once in the parent's checkout and once
in this checkout, the parent first in even pairs and the checkout first in
odd ones, one run at a time; S is ``run_seconds`` in BENCHMARK.json, so both
sides and every pair run as long as the benchmark does. A run that exits
non-zero, prints no JSON last line or reports a failed check
(``"correct": false`` or ``"failed"`` above 0) stops the tool and is not
recorded. The parent's checkout is --parent-dir: when it exists it must be
a git checkout with HEAD at --parent and no changes to tracked files,
otherwise the tool stops; when it does not, it is cloned there from this
repository at --parent.
Each run's last-line JSON, and the ``count_guard``, ``chunk_seconds`` (every
completed chunk's time, by slot) and ``setup_samples_s`` (each fresh
process's set-up time, whose median is ``setup_s``) of its report line (the
line before the last, when that is JSON), go into ``BENCH_<label>.json`` in
the checkout root, rewritten after every run, with a summary per workload
and end-to-end metric: the median and quartiles of each side, the number of pairs the
checkout won, by the metric's direction in BENCHMARK.json, the signed
relative change of the median, the parent's spread (q3 - q1) / median, and
a verdict against the metric's bound in BENCHMARK.json:

- ``unresolved`` when the spread exceeds the bound, unless every run of the
  checkout beats every run of the parent;
- otherwise ``worse`` when the median is worse by more than the bound;
- otherwise ``better`` when the median is better by more than the bound;
- otherwise ``no worse``.

Each workload's summary also gives every chunk slot's median seconds per
side (``chunk_median_s``, keyed by slot as in ``chunk_seconds``, e.g.
``"0:beampattern"``), which shows which chunk a change in its rate moved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def _git(*args, cwd=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd or CHECKOUT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _host() -> str:
    import numpy as np
    gb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e9
    return (f"{os.cpu_count()} cores, {gb:.0f} GB RAM, Python {platform.python_version()}, "
            f"numpy {np.__version__}, OpenBLAS default threads")


def run_once(side: str, root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in root: {"result": its last-line JSON}, plus
    "count_guard", "chunk_seconds" and "setup_samples_s" from its report line
    when that is JSON and has them. A run that exits non-zero, prints no JSON
    last line or reports a failed check is no sample: it raises."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    run = f"{side} run of {workload} seed {seed} ({' '.join(cmd)} in {root})"
    if out.returncode != 0:
        raise RuntimeError(f"{run} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{run} printed no JSON last line:\n{out.stdout[-2000:]}") from None
    if result["correct"] is not True or result["failed"] != 0:
        raise RuntimeError(f"{run} failed its checks: correct {result['correct']}, "
                           f"failed {result['failed']}")
    entry = {"result": result}
    try:
        report = json.loads(lines[-2])["report"]
    except (IndexError, ValueError, TypeError, KeyError):
        report = {}
    for key in ("count_guard", "chunk_seconds", "setup_samples_s"):
        if isinstance(report, dict) and key in report:
            entry[key] = report[key]
    return entry


def summarize(runs: list, metrics: list) -> dict:
    """{workload: {metric: per-side median, q1, q3, pairs won, relative
    change, parent spread and verdict}} over the pairs that have both sides;
    metrics are BENCHMARK.json's end_to_end entries. A workload whose runs
    recorded chunk_seconds also gets "chunk_median_s": {slot: {side: median
    of every chunk time of that slot in that side's runs}}."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if not pairs:
            continue
        summary[workload] = {}
        for spec in metrics:
            metric, bound = spec["name"], spec["bound"]
            values = {side: [p[side]["result"]["metrics"][metric]["value"] for p in pairs]
                      for side in ("parent", "change")}
            sign = 1 if spec["better"] == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            entry = {"pairs": len(pairs), "change_won": won}
            for side, vals in values.items():
                q1, median, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                                  if len(vals) > 1 else vals * 3)
                entry[side] = {"median": median, "q1": q1, "q3": q3}
            parent = entry["parent"]
            relative = (entry["change"]["median"] - parent["median"]) / parent["median"]
            spread = (parent["q3"] - parent["q1"]) / parent["median"]
            beats_all = (min(sign * v for v in values["change"])
                         > max(sign * v for v in values["parent"]))
            if spread > bound and not beats_all:
                verdict = "unresolved"
            elif sign * relative < -bound:
                verdict = "worse"
            elif sign * relative > bound:
                verdict = "better"
            else:
                verdict = "no worse"
            entry.update(relative_change=relative, parent_spread=spread, verdict=verdict)
            summary[workload][metric] = entry
        chunks = {}
        for p in pairs:
            for side, run in p.items():
                for slot, seconds in run.get("chunk_seconds", {}).items():
                    chunks.setdefault(slot, {}).setdefault(side, []).extend(seconds)
        if chunks:
            summary[workload]["chunk_median_s"] = {
                slot: {side: statistics.median(seconds) for side, seconds in sides.items()}
                for slot, sides in chunks.items()}
    return summary


def _parse(argv, workloads):
    """The tool's arguments, checked before anything is cloned or run: each
    --workload is NAME:FIRST_SEED with NAME one of workloads, and --pairs is
    at least 1; a bad one is an argparse error (exit 2)."""
    def pairs(text):
        count = int(text)
        if count < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, not {count}")
        return count

    def workload(text):
        name, _, seed = text.partition(":")
        if name not in workloads or not seed.isdigit():
            raise argparse.ArgumentTypeError(
                f"{text!r} is not NAME:FIRST_SEED with NAME one of {', '.join(workloads)}")
        return name, int(seed)

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--parent-dir", type=Path, required=True,
                   help="git checkout of --parent; cloned there if missing")
    p.add_argument("--pairs", type=pairs, default=10)
    p.add_argument("--workload", type=workload, action="append", required=True,
                   metavar="NAME:FIRST_SEED",
                   help="pair i runs seed FIRST_SEED + i; repeat for more workloads")
    return p.parse_args(argv)


def _dumps(doc: dict) -> str:
    """doc as JSON indented one space per level, except that each entry of its
    runs list, with its per-chunk and per-process time lists, is one line."""
    runs = ",\n".join(f"  {json.dumps(run)}" for run in doc["runs"])
    text = json.dumps({**doc, "runs": None}, indent=1)
    return text.replace('"runs": null', f'"runs": [\n{runs}\n ]', 1)


def main(argv=None) -> int:
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    args = _parse(argv, [w["name"] for w in bench["workloads"]])
    parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    if not args.parent_dir.exists():
        _git("clone", "--quiet", "--no-checkout", str(CHECKOUT), str(args.parent_dir))
        _git("checkout", "--quiet", "--detach", parent, cwd=args.parent_dir)
    if not (args.parent_dir / ".git").exists():
        raise SystemExit(f"{args.parent_dir} is not a git checkout of --parent {parent}")
    head = _git("rev-parse", "HEAD", cwd=args.parent_dir)
    if head != parent:
        raise SystemExit(f"{args.parent_dir} is at {head}, not --parent {parent}")
    if _git("status", "--porcelain", "--untracked-files=no", cwd=args.parent_dir):
        raise SystemExit(f"{args.parent_dir} has changes to tracked files")
    seconds = bench["run_seconds"]
    doc = {
        "description": (f"Paired untraced runs of perfbench/run.py (--seconds {seconds} "
                        f"--trace 0), parent commit {parent[:7]} against this change, "
                        "alternating which side runs first; each entry's result is the "
                        "run's last-line JSON. Written by tools/bench_pairs.py."),
        "parent": parent,
        "host": _host(),
        "seeds": {name: f"{first}-{first + args.pairs - 1}" for name, first in args.workload},
        "runs": [],
    }
    out = CHECKOUT / f"BENCH_{args.label}.json"
    sides = {"parent": args.parent_dir.resolve(), "change": CHECKOUT}
    for name, first in args.workload:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                entry = run_once(side, sides[side], name, first + pair, seconds)
                doc["runs"].append({"side": side, "workload": name, "seed": first + pair,
                                    "pair": pair, **entry})
                doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
                out.write_text(_dumps(doc) + "\n")
                print(f"{name} pair {pair} {side}: "
                      f"{json.dumps(entry['result']['metrics'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
