"""mlabeam benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload se_2d --seed 1 --seconds 15 --trace 0

Prints a report line, then as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end metrics, measured untraced; with --trace 1
they are its per_layer metrics, from a run whose first half is untraced and
whose second half records spans. Exits non-zero, printing no result, if
mlabeam's source is missing or a workload process fails.

Each workload runs in its own process (perfbench/worker.py), a closed loop
with one caller. Nothing here sets BLAS thread variables.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("se_2d", "localize_sweep", "beam_figures")
# Fresh processes whose median set-up time is setup_s. se_2d builds its
# 1 GB grid in each (about 6 s), the others only import mlabeam. Half of the
# set-up-only processes run before the timed process and half after it, so
# the samples spread over the whole run rather than one moment of the host.
SETUP_REPEATS = {"se_2d": 3, "localize_sweep": 5, "beam_figures": 5}
SETUP_LIMIT_S = 60.0    # allowed per set-up; the timed phase may take 2x --seconds


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs that finish in seconds (self-tests)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _spawn(args, workdir, deadline, k, setup_only):
    result = workdir / f"result-{k}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", "tiny" if args.tiny else "full", "--workdir", str(workdir),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--spans", str(ROOT / ".perfbench" / f"spans-{args.workload}.json")]
    t0 = time.monotonic()
    # stdout to stderr: this process's stdout carries only the report and result
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=sys.stderr,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def _declared(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run(args):
    if not (ROOT / "src" / "mlabeam" / "__init__.py").is_file():
        raise RuntimeError(f"mlabeam source not found under {ROOT / 'src'}")
    declared = _declared(args.trace)
    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    deadline = time.monotonic() + repeats * SETUP_LIMIT_S + 2 * args.seconds
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    before = (repeats - 1) // 2
    try:
        setups = [_spawn(args, workdir, deadline, k, setup_only=True)["setup_s"]
                  for k in range(before)]
        result = _spawn(args, workdir, deadline, before, setup_only=False)
        setups.append(result["setup_s"])
        setups += [_spawn(args, workdir, deadline, k, setup_only=True)["setup_s"]
                   for k in range(before + 1, repeats)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = dict(result["metrics"])
    report = {k: result[k] for k in ("library", "host", "chunk_seconds", "failures",
                                     "count_guard")}
    report["setup_samples_s"] = setups
    if args.trace:
        import machine

        # each array 4x the last-level cache, so the copy runs from memory
        l3 = machine.cache_sizes().get("L3", 300 * 1024 ** 2)
        gbps, nbytes = machine.copy_gbps(4 * l3)
        values["machine.copy_gbps"] = gbps
        report["copy_array_bytes"] = nbytes
        report["spans"] = result["spans"]
    else:
        values["setup_s"] = statistics.median(setups)
        report["mean_units_per_s"] = result["mean_units_per_s"]
        report["accuracy"] = result["accuracy"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **report}}, allow_nan=False))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}, allow_nan=False))


def main(argv=None):
    args = _parse(argv)
    # SystemExit on SIGTERM lets subprocess.run kill and reap the workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
