"""Output checks. Each reads the file the program actually wrote and returns a
list of failure messages; an empty list means the output is correct.

Search counts are compared with the values the commit that introduced the
benchmark gives for the same inputs (count guard): the per-sub-array pipeline
scores every point of the 1D angle grid once per sub-array per trial, and the
whole-array baseline scores every point of the 2D grid once per kept trial.
"""

from __future__ import annotations

import math

from mlabeam.experiments import read_records_csv


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def _footer_mismatches(footer, recomputed):
    if len(footer) != len(recomputed):
        return [f"footer has {len(footer)} sweep points, rows give {len(recomputed)}"]
    bad = []
    for got, want in zip(footer, recomputed):
        for key, value in want.items():
            if not _same(got.get(key), value):
                bad.append(f"footer {key}={got.get(key)!r} but rows give {value!r}")
    return bad


def _grouped(records):
    groups = {}
    for r in records:
        groups.setdefault(r["sweep_value"], []).append(r)
    return groups


def _trial_rows_complete(records, sweep_values, trials):
    """Every (sweep value, trial) pair present once, in emission order."""
    want = [(float(v), float(t)) for v in sweep_values for t in range(trials)]
    got = [(r["sweep_value"], r["trial"]) for r in records]
    if got != want:
        return [f"CSV holds {len(got)} trial rows, expected {len(want)} in sweep order"]
    return []


def se_footer(records):
    """Aggregates recomputed the way the footer is defined, from written rows."""
    out = []
    for v, rows in _grouped(records).items():
        kept = [r for r in rows if not r["excluded"]]
        agg = {"sweep_value": v, "trials": float(len(rows)),
               "excluded": float(len(rows) - len(kept))}
        for name in ("se_proposed", "se_2d", "se_perfect"):
            finite = [r[name] for r in kept if not math.isnan(r[name])]
            agg["mean_" + name] = sum(finite) / len(finite) if finite else float("nan")
        out.append(agg)
    return out


def localization_footer(records):
    out = []
    for v, rows in _grouped(records).items():
        kept = [r for r in rows if not r["excluded"]]
        agg = {"sweep_value": v, "trials": float(len(rows)),
               "excluded": float(len(rows) - len(kept))}
        norm = sum(r["true_x"] ** 2 + r["true_z"] ** 2 for r in kept)
        agg["nmse"] = sum(r["sq_error"] for r in kept) / norm if kept else float("nan")
        out.append(agg)
    return out


def check_se_sweep(path, sweep_values, trials, search_cost_1d, search_cost_2d,
                   num_subarrays, angle_points, grid_points, min_ratio=100.0):
    """se_2d: rows complete, rates bounded by the ideal, exact search counts,
    the >= min_ratio complexity gap, and the footer reproduced from the rows."""
    _, records, footer = read_records_csv(path)
    bad = _trial_rows_complete(records, sweep_values, trials)
    kept = [r for r in records if not r["excluded"]]
    over = [r for r in kept if not r["se_proposed"] <= r["se_perfect"] + 1e-12]
    if over:
        bad.append(f"{len(over)} kept trials have se_proposed above se_perfect")
    want_1d = angle_points * num_subarrays * len(records)
    if search_cost_1d != want_1d:
        bad.append(f"grid_points_1d {search_cost_1d} != {angle_points} x L={num_subarrays}"
                   f" x {len(records)} trials = {want_1d}")
    want_2d = grid_points * len(kept)
    if search_cost_2d != want_2d:
        bad.append(f"grid_points_2d {search_cost_2d} != {grid_points} x {len(kept)}"
                   f" kept trials = {want_2d}")
    if search_cost_1d <= 0 or search_cost_2d < min_ratio * search_cost_1d:
        bad.append(f"search-cost ratio {search_cost_2d}/{search_cost_1d} below {min_ratio}")
    bad += _footer_mismatches(footer, se_footer(records))
    return bad


def check_localization_sweep(path, sweep_values, trials, search_cost_1d,
                             subarrays_per_point, angle_points):
    """localize_sweep: rows complete, exact search count, finite errors on
    kept trials, and the footer reproduced from the rows."""
    _, records, footer = read_records_csv(path)
    bad = _trial_rows_complete(records, sweep_values, trials)
    want = angle_points * trials * sum(subarrays_per_point)
    if search_cost_1d != want:
        bad.append(f"grid_points_1d {search_cost_1d} != {want}")
    nonfinite = [r for r in records if not r["excluded"]
                 and not all(math.isfinite(r[k]) for k in ("est_x", "est_z", "sq_error"))]
    if nonfinite:
        bad.append(f"{len(nonfinite)} kept trials have a non-finite error")
    bad += _footer_mismatches(footer, localization_footer(records))
    return bad


def read_cli_csv(path):
    """(comment lines without '# ', header, rows as float lists) of a CLI CSV."""
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                comments.append(line[2:])
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return comments, header or [], rows


def _gains_in_unit_interval(header, rows, columns):
    bad = []
    for name in columns:
        j = header.index(name)
        out = [row[j] for row in rows if not 0.0 <= row[j] <= 1.0]
        if out:
            bad.append(f"{len(out)} values of '{name}' outside [0, 1], e.g. {out[0]!r}")
    return bad


def check_cli_output(job, path, expected_rows):
    """beam_figures: row count, gains in [0, 1] as written, plus per-job
    invariants."""
    comments, header, rows = read_cli_csv(path)
    bad = []
    if len(rows) != expected_rows:
        bad.append(f"{job}: {len(rows)} rows, expected {expected_rows}")
    if any(len(row) != len(header) for row in rows):
        bad.append(f"{job}: ragged rows")
        return bad
    if job == "beampattern":
        bad += _gains_in_unit_interval(header, rows, ["gain"])
    elif job == "cutline":
        bad += _gains_in_unit_interval(header, rows, ["gain", "envelope"])
    elif job == "depth":
        bad += _gains_in_unit_interval(header, rows, header[1:])
        foci = [float(v) for c in comments if c.startswith("foci_m: ")
                for v in c[len("foci_m: "):].split(",")]
        if not foci or any(b <= a for a, b in zip(foci, foci[1:])):
            bad.append(f"depth: foci not strictly increasing: {foci}")
    elif job == "design":
        pairs = sorted((int(row[0]), int(row[1])) for row in rows)
        if any(l2 > l1 for (_, l1), (_, l2) in zip(pairs, pairs[1:])):
            bad.append(f"design: L increases with N: {pairs}")
        if dict(pairs).get(64, 2) != 2:
            bad.append(f"design: N=64 gives L={dict(pairs)[64]}, expected 2")
    return [m if m.startswith(job) else f"{job}: {m}" for m in bad]
