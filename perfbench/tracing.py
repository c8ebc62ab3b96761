"""Outside-in span tracing of mlabeam, with no change to the library.

Each public function is wrapped at the name its caller looks it up under
(for example ``mlabeam.experiments.locate`` for the call made by the Monte
Carlo sweeps, ``mlabeam.localization.music_1d`` for the call made by
``estimate_angles``), so every call records a span: name, start, end and the
index of the enclosing span. Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
The process is single-threaded, so child spans never overlap and that
covered time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

clock = time.perf_counter

# (module, attribute path inside it, span name). The span name is the layer
# (package module) that defines the function, whatever module looks it up.
PATCH_SITES = (
    ("mlabeam.experiments", "locate", "localization.locate"),
    ("mlabeam.experiments", "music_2d", "localization.music_2d"),
    ("mlabeam.experiments", "synthesize_snapshots", "localization.synthesize_snapshots"),
    ("mlabeam.experiments", "near_steering", "localization.near_steering"),
    ("mlabeam.experiments", "estimate_channel", "channel.estimate_channel"),
    ("mlabeam.experiments", "spectral_efficiency", "channel.spectral_efficiency"),
    ("mlabeam.localization", "estimate_angles", "localization.estimate_angles"),
    ("mlabeam.localization", "sample_covariance", "localization.sample_covariance"),
    ("mlabeam.localization", "noise_subspace", "localization.noise_subspace"),
    ("mlabeam.localization", "music_1d", "localization.music_1d"),
    ("mlabeam.localization", "triangulate", "localization.triangulate"),
    # estimate_channel imports near_steering from here at call time
    ("mlabeam.localization", "near_steering", "localization.near_steering"),
    ("mlabeam.localization", "element_positions", "geometry.element_positions"),
    ("mlabeam.localization", "NearFieldGrid.argmax_rank1", "localization.argmax_rank1"),
    ("mlabeam.cli", "parse_config", "cli.parse_config"),
    ("mlabeam.cli", "gain_exact_sweep", "gain.gain_exact_sweep"),
    ("mlabeam.cli", "crossrange_gain", "gain.crossrange_gain"),
    ("mlabeam.cli", "focus_chain", "gain.focus_chain"),
    ("mlabeam.cli", "gain_mla_fresnel", "gain.gain_mla_fresnel"),
    ("mlabeam.cli", "design_num_arrays", "design.design_num_arrays"),
    ("mlabeam.gain", "first_null_after_focus", "gain.first_null_after_focus"),
    ("mlabeam.gain", "gain_mla_fresnel", "gain.gain_mla_fresnel"),
    ("mlabeam.gain", "gain_ula_fresnel", "gain.gain_ula_fresnel"),
    ("mlabeam.gain", "matched_filter_weights", "gain.matched_filter_weights"),
    ("mlabeam.gain", "fresnel_cs", "numerics.fresnel_cs"),
    ("mlabeam.gain", "element_positions", "geometry.element_positions"),
    ("mlabeam.design", "crossrange_gain", "gain.crossrange_gain"),
    ("mlabeam.design", "count_peaks", "design.count_peaks"),
)


def call(name, fn, *args, **kwargs):
    """Untraced call; same signature as Tracer.call."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Call fn from the benchmark's own code inside a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every patch site for the duration of the block."""
        saved = []
        try:
            for module_name, path, span_name in PATCH_SITES:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span_name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self, start=None, end=None):
        """Per-name {calls, total_s, self_s}, plus the share of the time of
        the top-level spans inside [start, end] that their child spans cover.

        Top-level spans are the benchmark's own calls into mlabeam, so the
        share is how much of the library's time the named layer spans
        account for; the rest is the top-level functions' own code.
        """
        child = [0.0] * len(self.spans)
        for name, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        stats, top, covered = {}, 0.0, 0.0
        for i, (name, s, e, parent) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["total_s"] += e - s
            st["self_s"] += e - s - child[i]
            if parent < 0 and start is not None and s >= start and e <= end:
                top += e - s
                covered += child[i]
        return stats, covered / top if top > 0 else 0.0

    def dump(self, path):
        """Write every span as [name index, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, f)
