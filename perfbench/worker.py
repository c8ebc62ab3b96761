"""One workload process: set up, run the timed phase, write a result file.

Started by perfbench/run.py, never by hand; PYTHONPATH must point at the
checkout's src/. With --setup-only it stops after set-up, so run.py can take
the median set-up time of several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import mlabeam

import machine
import tracing
from workloads import WORKLOADS, BeamFigures, Chunk

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--t0", type=float, required=True, help="spawn time, time.monotonic()")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    return p.parse_args(argv)


def run_phase(workload, call, seconds, first_index):
    """Closed loop, one caller: run chunks until `seconds` have passed and
    every slot of the round has run at least once."""
    chunks = []
    start = time.perf_counter()
    index = first_index
    while True:
        kind, slot, units = workload.plan(index)
        try:
            chunk = workload.run(index, call)
        except Exception:  # a failed unit is counted, not fatal
            traceback.print_exc()
            chunk = Chunk(kind, slot, units,
                          failures=[f"{kind} chunk {index} raised; see stderr"])
        chunks.append(chunk)
        index += 1
        if (time.perf_counter() - start >= seconds
                and index - first_index >= len(workload.ROUND)):
            return chunks, start, time.perf_counter()


def _completed(chunks):
    return [c for c in chunks if not c.failures and math.isfinite(c.seconds)]


def chunk_seconds(chunks):
    """Seconds of each completed chunk, by slot ("<slot>:<kind>")."""
    by_slot = {}
    for c in _completed(chunks):
        by_slot.setdefault(f"{c.slot}:{c.kind}", []).append(c.seconds)
    return by_slot


def median_seconds(chunks):
    """Per slot, the median time of its repeats.

    Repeats of a slot run the same inputs, so they differ only by the host's
    state. The shared host spends most of its time in a state up to 1.8x
    slower than its occasional fast periods. Over ten runs the median repeat
    spread less than the fastest one, which depends on whether a run caught
    a fast period.
    """
    by_slot = {}
    for c in _completed(chunks):
        by_slot.setdefault(c.slot, []).append(c.seconds)
    return {slot: statistics.median(v) for slot, v in by_slot.items()}


def units_per_s(workload, chunks):
    """Units of one round over the round's time, each slot at its median
    repeat; 0 if some slot never completed."""
    typical = median_seconds(chunks)
    if len(typical) != len(workload.ROUND):
        return 0.0
    units = {c.slot: c.units for c in chunks}
    return sum(units.values()) / sum(typical.values())


def mean_units_per_s(chunks):
    """Units over the timed seconds of every completed chunk: unlike
    units_per_s, costs that hit only a few repeats count in full."""
    done = _completed(chunks)
    return _ratio(sum(c.units for c in done), sum(c.seconds for c in done))


def totals(chunks):
    out = {"attempted": 0, "failed": 0}
    for c in chunks:
        out["attempted"] += c.units
        if c.failures:
            out["failed"] += c.units
        for k, v in c.counts.items():
            out[k] = out.get(k, 0) + v
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(workload, chunks, setup_s):
    t = totals(chunks)
    return {"setup_s": setup_s,
            "units_per_s": units_per_s(workload, chunks),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_frac": _ratio(t["attempted"] - t["failed"], t["attempted"])}


def accuracy(t):
    """Pooled accuracy over kept trials (0 where the workload has none)."""
    loss = 0.0
    if t.get("se_trials"):
        loss = 100 * (t["se_perfect"] - t["se_proposed"]) / t["se_perfect"]
    return {"experiments.nmse_1d": _ratio(t.get("sq_error", 0.0), t.get("norm", 0.0)),
            "experiments.nmse_2d": _ratio(t.get("sq_error_2d", 0.0), t.get("norm_2d", 0.0)),
            "experiments.se_loss_pct": loss}


SELF_S = ("localization.argmax_rank1", "localization.music_2d", "localization.music_1d",
          "localization.noise_subspace", "localization.sample_covariance",
          "localization.triangulate", "localization.synthesize_snapshots",
          "localization.near_steering", "channel.estimate_channel",
          "channel.spectral_efficiency", "experiments.run_se_sweep",
          "experiments.run_localization_experiment", "gain.gain_exact_sweep",
          "gain.gain_mla_fresnel", "gain.first_null_after_focus", "gain.crossrange_gain",
          "design.design_num_arrays", "design.count_peaks", "cli.main")
CALLS = ("localization.argmax_rank1", "localization.music_1d", "gain.gain_mla_fresnel",
         "gain.crossrange_gain", "numerics.fresnel_cs", "geometry.element_positions",
         "design.count_peaks")


def per_layer(workload, untraced, traced, stats, covered, build_s):
    """Per-layer metrics; self times and calls are per unit of the traced phase."""
    units = sum(c.units for c in traced)
    t = totals(untraced + traced)
    empty = {"calls": 0, "self_s": 0.0}
    out = {f"{name}.self_s": _ratio(stats.get(name, empty)["self_s"], units)
           for name in SELF_S}
    out.update({f"{name}.calls": _ratio(stats.get(name, empty)["calls"], units)
                for name in CALLS})
    argmax = stats.get("localization.argmax_rank1", empty)
    out["localization.argmax_rank1.gbps"] = _ratio(
        workload.grid_bytes * argmax["calls"], argmax["self_s"]) / 1e9
    out["localization.NearFieldGrid.build_s"] = build_s
    out["localization.NearFieldGrid.bytes"] = workload.grid_bytes
    out["localization.grid_points_1d"] = _ratio(t.get("grid_points_1d", 0), t["attempted"])
    out["localization.grid_points_2d"] = _ratio(t.get("grid_points_2d", 0), t["attempted"])
    out["localization.search_cost_ratio"] = _ratio(t.get("grid_points_2d", 0),
                                                   t.get("grid_points_1d", 0))
    out["experiments.kept_frac"] = _ratio(t.get("kept", 0), t["attempted"])
    out["experiments.csv_bytes"] = _ratio(t.get("csv_bytes", 0), t["attempted"])
    out.update(accuracy(t))
    typical = median_seconds(untraced)
    for job in set(BeamFigures.ROUND):
        times = [typical[s] for s, kind in enumerate(workload.ROUND)
                 if kind == job and s in typical]
        out[f"cli.{job}.s"] = _ratio(sum(times), len(times))
    out["run.mean_units_per_s"] = mean_units_per_s(untraced)
    out["trace.covered_frac"] = covered
    out["trace.overhead_frac"] = 1 - _ratio(units_per_s(workload, traced),
                                            units_per_s(workload, untraced))
    return out


def main(argv=None):
    args = _parse(argv)
    src = (ROOT / "src" / "mlabeam").resolve()
    if Path(mlabeam.__file__).resolve().parent != src:
        print(f"perfbench: imported mlabeam from {mlabeam.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    workload.setup(tracer.call if tracer else tracing.call)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(library=machine.library_facts(), host=machine.host_facts())
        if not args.trace:
            chunks, _, _ = run_phase(workload, tracing.call, args.seconds, 0)
            result["metrics"] = end_to_end(workload, chunks, setup_s)
            result["mean_units_per_s"] = mean_units_per_s(chunks)
            result["accuracy"] = accuracy(totals(chunks))
            all_chunks = chunks
        else:
            untraced, _, _ = run_phase(workload, tracing.call, args.seconds / 2, 0)
            build = [s for s in tracer.spans if s[0] == "localization.NearFieldGrid.build"]
            with tracer.installed():
                traced, start, end = run_phase(workload, tracer.call, args.seconds / 2,
                                               len(untraced))
            stats, covered = tracer.summary(start, end)
            result["metrics"] = per_layer(workload, untraced, traced, stats, covered,
                                          build[0][2] - build[0][1] if build else 0.0)
            result["spans"] = stats
            if args.spans:
                tracer.dump(args.spans)
            all_chunks = untraced + traced
        t = totals(all_chunks)
        result.update(attempted=t["attempted"], failed=t["failed"],
                      chunk_seconds=chunk_seconds(all_chunks),
                      failures=[f for c in all_chunks for f in c.failures][:20],
                      count_guard={k: {"seen": a, "baseline": b}
                                   for k, (a, b) in workload.count_guard().items()})
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
