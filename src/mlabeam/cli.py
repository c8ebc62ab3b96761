"""Command-line front end: config parsing, subcommand dispatch, CSV emission.

Config files are line-based `key = value` with `#` comments; flag overrides
mirror the config keys and win over the file. All unit-bearing keys carry the
unit in their name (frequency_ghz, power_dbm, aperture_m, ...) and are
converted to SI/watts/radians exactly once, here.

Exit codes: 0 success, 2 config error, 3 infeasible design, 4 numerical
degeneracy, 5 I/O error. Config errors are raised where config values become
library inputs; any other exception is a bug and propagates. Every float
value must be finite, and every gain column a figure command writes must lie
in [0, 1], up to 1e-9 above 1 for rounding, before its file is opened.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import dbm_to_watts
from .design import DesignInput, design_num_arrays
from .experiments import TrialConfig, _write_csv, run_localization_experiment, run_se_sweep
from .gain import (GainRangeError, NullNotFoundError, crossrange_gain, focus_chain,
                   gain_exact_sweep, gain_mla_fresnel, half_power_beamwidth)
from .geometry import Carrier, InfeasibleArrayError, ModularArray, spacing_for_aperture
from .localization import DegenerateSubspaceError, IllConditionedTriangulationError


class ConfigError(ValueError):
    pass


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError("expected a boolean")


def _ints(raw: str) -> tuple:
    return tuple(int(v.strip()) for v in raw.split(","))


def _floats(raw: str) -> tuple:
    return tuple(float(v.strip()) for v in raw.split(","))


@dataclass(frozen=True)
class _Key:
    parse: object  # str -> value: int, float, str, _bool, _ints or _floats
    default: object = None
    required: bool = False
    positive: bool = False


_CARRIER_KEYS = {
    "frequency_ghz": _Key(float, 15.0, positive=True),
    "spacing_m": _Key(float, None, positive=True),
}
_APERTURE = _Key(float, 2.0, positive=True)
_FOCUS = _Key(float, required=True, positive=True)

_GEOMETRY_KEYS = {
    **_CARRIER_KEYS,
    "num_subarrays": _Key(int, 2, positive=True),
    "antennas_per_subarray": _Key(int, 64, positive=True),
    "aperture_m": _APERTURE,
    "gap_m": _Key(float, None, positive=True),
    "focus_m": _FOCUS,
}

_MONTE_CARLO_KEYS = {
    **_CARRIER_KEYS,
    "aperture_m": _APERTURE,
    "num_subarrays": _Key(int, 4, positive=True),
    "antennas_per_subarray": _Key(int, 16, positive=True),
    "trials": _Key(int, TrialConfig.trials, positive=True),
    "noise_dbm": _Key(float, -78.0),
    "snapshots": _Key(int, TrialConfig.num_snapshots, positive=True),
    "angle_min_deg": _Key(float, TrialConfig.angle_bounds_deg[0]),
    "angle_max_deg": _Key(float, TrialConfig.angle_bounds_deg[1]),
    "distance_min_m": _Key(float, TrialConfig.distance_bounds[0], positive=True),
    "distance_max_m": _Key(float, TrialConfig.distance_bounds[1], positive=True),
    "angle_step_rad": _Key(float, TrialConfig.angle_step, positive=True),
    "seed": _Key(int, TrialConfig.base_seed),
}

SCHEMAS = {
    "beampattern": {
        **_GEOMETRY_KEYS,
        "x_min_m": _Key(float, -2.0),
        "x_max_m": _Key(float, 2.0),
        "x_points": _Key(int, 81, positive=True),
        "z_min_m": _Key(float, 10.0, positive=True),
        "z_max_m": _Key(float, 100.0, positive=True),
        "z_points": _Key(int, 61, positive=True),
        "log_z": _Key(_bool, False),
    },
    "cutline": {
        **_GEOMETRY_KEYS,
        "x_points": _Key(int, 401, positive=True),
        "x_halfwidth_m": _Key(float, None, positive=True),
    },
    "depth": {
        **_GEOMETRY_KEYS,
        "z_min_m": _Key(float, None, positive=True),
        "z_max_m": _Key(float, None, positive=True),
        "z_points": _Key(int, 400, positive=True),
        "chain": _Key(int, 1, positive=True),
        "include_exact": _Key(_bool, False),
        "depth_threshold": _Key(float, 0.05, positive=True),
    },
    "design": {
        **_CARRIER_KEYS,
        "aperture_m": _Key(float, required=True, positive=True),
        "focus_m": _FOCUS,
        "antenna_counts": _Key(_ints, (1, 2, 4, 8, 16, 32, 64), positive=True),
        "grid_points": _Key(int, DesignInput.grid_points, positive=True),
    },
    "localize": {
        **_MONTE_CARLO_KEYS,
        "power_dbm": _Key(float, 20.0),
        "sweep_variable": _Key(str, "antennas_per_subarray"),
        "sweep_values": _Key(_ints, (4, 8, 16, 32), positive=True),
    },
    "se": {
        **_MONTE_CARLO_KEYS,
        "power_dbm_values": _Key(_floats, (10.0, 15.0, 20.0)),
        "include_2d": _Key(_bool, True),
        "distance_step_m": _Key(float, TrialConfig.distance_step, positive=True),
    },
}

def _parse_value(key: str, spec: _Key, raw: str, where: str):
    try:
        value = spec.parse(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid value for '{key}' ({where}): {exc}") from None
    vals = value if isinstance(value, tuple) else (value,)
    if not all(math.isfinite(v) for v in vals if isinstance(v, float)):
        raise ConfigError(f"'{key}' must be finite ({where})")
    if spec.positive and any(v <= 0 for v in vals):
        raise ConfigError(f"'{key}' must be positive ({where})")
    return value


def parse_config(text: str, schema: dict, overrides: dict | None = None) -> dict:
    """Typed config from file text plus flag overrides (overrides win).

    Raises ConfigError naming the offending key and line for unknown keys,
    bad values, and missing required keys.
    """
    cfg = {k: spec.default for k, spec in schema.items()}
    provided = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        cfg[key] = _parse_value(key, schema[key], raw, f"line {lineno}")
        provided.add(key)
    for key, raw in (overrides or {}).items():
        if raw is None:
            continue
        cfg[key] = _parse_value(key, schema[key], str(raw), "flag")
        provided.add(key)
    for key, spec in schema.items():
        if spec.required and key not in provided:
            raise ConfigError(f"missing required key '{key}'")
    return cfg


def _config_comment(cfg: dict) -> str:
    return "config: " + " ".join(f"{k}={cfg[k]!r}".replace(" ", "") for k in sorted(cfg))


@contextlib.contextmanager
def _input_boundary():
    """Report a ValueError raised while config values become library inputs
    as a config error; an infeasible layout keeps its own exit code."""
    try:
        yield
    except (ConfigError, InfeasibleArrayError):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _carrier(cfg: dict) -> Carrier:
    with _input_boundary():
        return Carrier.from_frequency(cfg["frequency_ghz"] * 1e9)


def _resolve_array(cfg: dict):
    """Array and carrier from the geometry keys."""
    carrier = _carrier(cfg)
    spacing = cfg["spacing_m"] if cfg["spacing_m"] is not None else carrier.wavelength / 2
    L, N = cfg["num_subarrays"], cfg["antennas_per_subarray"]
    with _input_boundary():
        gap = cfg["gap_m"]
        if gap is None:
            gap = spacing_for_aperture(cfg["aperture_m"], L, N, spacing) if L > 1 else spacing
        return ModularArray(L, N, spacing, gap), carrier


def _focus(cfg: dict, carrier: Carrier) -> float:
    """focus_m, refused as a config error when it is so small that the focal
    phase scale 2 pi / (wavelength * focus) is not finite, or that its half,
    where depth's default window starts, underflows to 0."""
    focus, lam = cfg["focus_m"], carrier.wavelength
    if not (focus / 2 > 0 and lam * focus > 0 and math.isfinite(2 * math.pi / (lam * focus))):
        raise ConfigError(f"a focus_m of {focus!r} is too small at a {lam!r} m wavelength: "
                          "2 pi / (wavelength * focus) or focus / 2 leaves float64")
    return focus


def _centered_linspace(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced samples from lo to hi, built outward from the center:
    (lo + hi)/2 + (hi - lo)/2 * k/(n - 1) for k = -(n - 1), -(n - 3), ..., n - 1,
    with the ends exactly lo and hi. When lo == -hi every sample's negation is
    a sample, bit for bit, which np.linspace does not promise."""
    if n == 1:
        return np.array([lo], dtype=float)
    center, half = lo / 2 + hi / 2, hi / 2 - lo / 2
    xs = center + half * (np.arange(1 - n, n, 2) / (n - 1))
    xs[0], xs[-1] = lo, hi
    return xs


def _samples(cfg: dict, lo: float, hi: float, axis: str, spacing=np.linspace) -> np.ndarray:
    """cfg[axis + '_points'] samples from lo to hi, which must be increasing,
    placed by spacing(lo, hi, points)."""
    points = cfg[f"{axis}_points"]
    if points > 1 and not lo < hi:
        raise ConfigError(f"'{axis}_min_m' must be below '{axis}_max_m' ({lo!r} >= {hi!r})")
    return spacing(lo, hi, points)


def _write_figure(out: str, comments: list, columns: dict, gains: tuple = ()) -> None:
    """Write the flattened columns as CSV, after checking that every gain
    column is finite and within [0, 1]; a failed check opens no file."""
    flat = {name: np.ravel(values) for name, values in columns.items()}
    for name in gains:
        g = flat[name]
        if g.size and not (np.isfinite(g).all() and g.min() >= 0 and g.max() <= 1 + 1e-9):
            raise GainRangeError(f"'{name}' samples must be finite and lie in [0, 1]")
    _write_csv(out, comments, list(flat), zip(*(v.tolist() for v in flat.values())))


def _cmd_beampattern(cfg: dict, out: str) -> int:
    mla, carrier = _resolve_array(cfg)
    # symmetric x samples make the sweep's mirror grouping pay on a symmetric range
    xs = _samples(cfg, cfg["x_min_m"], cfg["x_max_m"], "x", _centered_linspace)
    zs = _samples(cfg, cfg["z_min_m"], cfg["z_max_m"], "z",
                  np.geomspace if cfg["log_z"] else np.linspace)
    X, Z = np.meshgrid(xs, zs)
    gains = gain_exact_sweep(mla, X, Z, _focus(cfg, carrier), carrier)
    _write_figure(out, [_config_comment(cfg)], {"z_m": Z, "x_m": X, "gain": gains}, ("gain",))
    print(f"wrote {gains.size} gain samples to {out}")
    return 0


def _cmd_cutline(cfg: dict, out: str) -> int:
    mla, carrier = _resolve_array(cfg)
    focus = _focus(cfg, carrier)
    with _input_boundary():
        bw = half_power_beamwidth(mla, focus, carrier)
    halfwidth = cfg["x_halfwidth_m"] if cfg["x_halfwidth_m"] is not None else bw
    xs = np.linspace(-halfwidth, halfwidth, cfg["x_points"])
    g, env = crossrange_gain(mla, focus, xs, carrier)
    _write_figure(out, [_config_comment(cfg), f"halfpower_beamwidth_m: {bw!r}"],
                  {"x_m": xs, "gain": g, "envelope": env,
                   "in_halfpower_window": (np.abs(xs) <= bw / 2).astype(int)},
                  ("gain", "envelope"))
    print(f"wrote cross-range cut ({cfg['x_points']} samples, beamwidth {bw:.4g} m) to {out}")
    return 0


def _cmd_depth(cfg: dict, out: str) -> int:
    mla, carrier = _resolve_array(cfg)
    foci = focus_chain(mla, _focus(cfg, carrier), carrier, cfg["chain"], cfg["depth_threshold"])
    z_lo = cfg["z_min_m"] if cfg["z_min_m"] is not None else foci[0] / 2
    z_hi = cfg["z_max_m"] if cfg["z_max_m"] is not None else foci[-1] * 2.5
    zs = _samples(cfg, z_lo, z_hi, "z")
    columns = {f"gain_focus_{i}": gain_mla_fresnel(mla, f, zs, carrier)
               for i, f in enumerate(foci, start=1)}
    if cfg["include_exact"]:
        columns |= {f"exact_focus_{i}": gain_exact_sweep(mla, np.zeros_like(zs), zs, f, carrier)
                    for i, f in enumerate(foci, start=1)}
    _write_figure(out, [_config_comment(cfg), "foci_m: " + ",".join(repr(f) for f in foci)],
                  {"z_m": zs, **columns}, tuple(columns))
    for i, f in enumerate(foci, start=1):
        print(f"focus {i}: {f:.4f} m")
    print(f"wrote {len(zs)} depth samples to {out}")
    return 0


def _cmd_design(cfg: dict, out: str) -> int:
    carrier = _carrier(cfg)
    with _input_boundary():
        designs = [DesignInput(cfg["aperture_m"], _focus(cfg, carrier), int(n), carrier,
                               cfg["spacing_m"], cfg["grid_points"])
                   for n in cfg["antenna_counts"]]
    rows = []
    print(f"{'N':>5} {'L':>5} {'gap_m':>10} {'peaks':>6}  note")
    for design in designs:
        n, res = design.elements_per_subarray, design_num_arrays(design)
        note = "guard-limited" if res.guard_limited else (
            "aperture-filled" if res.aperture_filled else "")
        print(f"{n:>5} {res.num_subarrays:>5} {res.gap:>10.4f} {res.final_peak_count:>6}  {note}")
        rows.append((n, res.num_subarrays, float(res.gap), res.final_peak_count,
                     int(res.guard_limited)))
    header = ("antennas_per_subarray", "num_subarrays", "gap_m", "final_peak_count",
              "guard_limited")
    _write_figure(out, [_config_comment(cfg)], dict(zip(header, zip(*rows))))
    return 0


def _watts(key: str, dbm: float) -> float:
    """A dBm config value in watts; a finite dBm whose power overflows or
    underflows to 0 W in floating point is a config error."""
    with contextlib.suppress(OverflowError):
        if 0 < (watts := dbm_to_watts(dbm)) < math.inf:
            return watts
    raise ConfigError(f"'{key}' = {dbm!r} dBm is not a finite positive power in watts")


def _trial_config(cfg: dict, sweep_variable: str, sweep_values: tuple,
                  **extra) -> TrialConfig:
    """Validated Monte Carlo config, with the command-specific TrialConfig
    fields in extra; TrialConfig resolves every sweep point's array, so a
    geometry a sweep cannot use is a config error before any trial."""
    with _input_boundary():
        return TrialConfig(
            aperture=cfg["aperture_m"],
            num_subarrays=cfg["num_subarrays"],
            elements_per_subarray=cfg["antennas_per_subarray"],
            carrier=_carrier(cfg),
            power=_watts("power_dbm", cfg["power_dbm"]) if "power_dbm" in cfg else math.nan,
            noise_power=_watts("noise_dbm", cfg["noise_dbm"]),
            sweep_variable=sweep_variable,
            sweep_values=sweep_values,
            num_snapshots=cfg["snapshots"],
            angle_bounds_deg=(cfg["angle_min_deg"], cfg["angle_max_deg"]),
            distance_bounds=(cfg["distance_min_m"], cfg["distance_max_m"]),
            trials=cfg["trials"],
            base_seed=cfg["seed"],
            angle_step=cfg["angle_step_rad"],
            spacing=cfg["spacing_m"],
            **extra,
        )


def _cmd_localize(cfg: dict, out: str) -> int:
    variable = {"antennas_per_subarray": "elements_per_subarray",
                "num_subarrays": "num_subarrays"}.get(cfg["sweep_variable"])
    if variable is None:
        raise ConfigError(f"invalid value for 'sweep_variable': {cfg['sweep_variable']!r}")
    config = _trial_config(cfg, variable, tuple(cfg["sweep_values"]))
    result = run_localization_experiment(config, out_path=out)
    for agg in result.aggregates:
        print(f"sweep={agg['sweep_value']:g} nmse={agg['nmse']:.6e} "
              f"excluded={agg['excluded']}/{agg['trials']}")
    print(f"wrote {len(result.records)} records to {out}")
    return 0


def _cmd_se(cfg: dict, out: str) -> int:
    powers = tuple(_watts("power_dbm_values", p) for p in cfg["power_dbm_values"])
    config = _trial_config(cfg, "power", powers, distance_step=cfg["distance_step_m"])
    if cfg["include_2d"]:
        with _input_boundary():
            config.check_grid_span()
    result = run_se_sweep(config, out_path=out, include_2d=cfg["include_2d"])
    for agg in result.aggregates:
        parts = [f"power_w={agg['sweep_value']:.6g}",
                 f"se_proposed={agg['mean_se_proposed']:.4f}",
                 f"se_perfect={agg['mean_se_perfect']:.4f}"]
        if cfg["include_2d"] and not math.isnan(agg["mean_se_2d"]):
            parts.insert(2, f"se_2d={agg['mean_se_2d']:.4f}")
        print(" ".join(parts))
    print(f"wrote {len(result.records)} records to {out}")
    return 0


_COMMANDS = {
    "beampattern": _cmd_beampattern,
    "cutline": _cmd_cutline,
    "depth": _cmd_depth,
    "design": _cmd_design,
    "localize": _cmd_localize,
    "se": _cmd_se,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlabeam",
        description="Near-field beamfocusing with modular linear arrays")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in SCHEMAS.items():
        sp = sub.add_parser(name, help=f"{name} computation")
        sp.add_argument("--config", help="path to a key = value config file")
        sp.add_argument("--out", default=f"mlabeam_{name}.csv", help="output CSV path")
        for key in schema:
            sp.add_argument(f"--{key}", dest=f"key_{key}", metavar="VALUE",
                            help=f"override config key {key}")
    return parser


# One parser per process: building it takes about 3 ms, half of a README
# cutline run, and parse_args keeps no state from one call to the next.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    schema = SCHEMAS[args.command]
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8-sig") if args.config else ""
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from None
        overrides = {k: getattr(args, f"key_{k}") for k in schema}
        cfg = parse_config(text, schema, overrides)
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleArrayError as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return 3
    except (DegenerateSubspaceError, IllConditionedTriangulationError,
            NullNotFoundError, GainRangeError) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
