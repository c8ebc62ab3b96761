"""Byte identity of the CLI commands on the README sample configs.

Each command runs on its README sample config and the sha256 of the CSV it
writes is compared with a pinned value. All run at full size except se,
whose README sample builds the ~0.5 GB whole-array steering grid: it runs the
same array and powers with 20 trials on a 0.01 rad x 0.1 m grid, which pins
its 1D and 2D picks and its rates in under a second. A change that moves any
written value, even by one ulp, fails here; such a change re-pins the hash
and lists the moved values in CHANGES.md. The hashes depend on the platform's
libm and scipy builds as well as on mlabeam, and on the SIMD kernel numpy
dispatches its float64 tan to on the host's CPU: the exact field of
beampattern (and of depth with include_exact) is built from that tan. The
configs are README's sample blocks, key for key, with se's three reduced
keys on top.
"""

import hashlib
import re
from pathlib import Path

import pytest

from mlabeam.cli import main

# the keys se's pinned config sets on top of its README sample
SE_REDUCED = {"trials": "20", "angle_step_rad": "0.01", "distance_step_m": "0.1"}

SAMPLES = {
    "beampattern": ("""frequency_ghz = 15
num_subarrays = 2
antennas_per_subarray = 64
aperture_m = 2.0
focus_m = 30
x_min_m = -2
x_max_m = 2
x_points = 81
z_min_m = 10
z_max_m = 100
z_points = 61
""", "e3821f76b34de61ce115afa84fe3a1f248e39a2dce1af3cc26826acb11f72626"),
    "cutline": ("""focus_m = 30
x_points = 401
""", "b471a1aa0e24640e9bf15178238523f3d47c51b07382961b6fa9e4e8e3e4244b"),
    "depth": ("""num_subarrays = 4
antennas_per_subarray = 16
aperture_m = 1.0
focus_m = 2
chain = 4
include_exact = false
""", "738c0f44e5245df8d88073a751264e9b35856a4a257ef3ae4ed5f637e0c7a115"),
    "design": ("""aperture_m = 2.0
focus_m = 30
antenna_counts = 1, 2, 4, 8, 16, 32, 64
""", "8627c5c286165fe24af86bdf7dce52edd58d644aa654ff3af76218815bf788bb"),
    "localize": ("""aperture_m = 2.0
num_subarrays = 2
antennas_per_subarray = 16
sweep_variable = antennas_per_subarray
sweep_values = 4, 8, 16, 32
trials = 500
power_dbm = 20
noise_dbm = -78
snapshots = 100
""", "9cefa2f0403c8f4acf1ccb7e7efbc4afa8b1ecb2fe6c66b86620316fec59385a"),
    "se": ("""aperture_m = 2.0
num_subarrays = 4
antennas_per_subarray = 16
power_dbm_values = 10, 15, 20
trials = 20
include_2d = true
angle_step_rad = 0.01
distance_step_m = 0.1
""", "ea30a2ee53ebb9b75e87f0262a0ee18406d5bcfdb27f637c993013084a4cc0da"),
}


def _keys(text):
    """key = value pairs of a config's text, comment lines skipped."""
    pairs = (line.split("=", 1) for line in text.splitlines()
             if line.strip() and not line.lstrip().startswith("#"))
    return {key.strip(): value.strip() for key, value in pairs}


def test_samples_are_readme_configs():
    """Every sample ini block of README ("# <command>.cfg" on its first line)
    sets exactly the keys and values of SAMPLES, se's reduced keys aside, so
    the pinned hashes cover the configs README shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = {match[1]: _keys(match[2])
              for match in re.finditer(r"```ini\n# (\w+)\.cfg[^\n]*\n(.*?)```", readme, re.S)}
    blocks["se"] |= SE_REDUCED
    assert blocks == {command: _keys(text) for command, (text, _) in SAMPLES.items()}


@pytest.mark.parametrize("command", sorted(SAMPLES))
def test_sample_config_csv_is_pinned(command, tmp_path, capsys):
    text, sha256 = SAMPLES[command]
    config = tmp_path / f"{command}.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
