"""Byte identity of the CLI commands on the README sample configs.

Each command runs on its README sample config and the sha256 of the CSV it
writes is compared with a pinned value. All run at full size except se,
whose README sample builds the ~1 GB whole-array steering grid: it runs the
same array and powers with 20 trials on a 0.01 rad x 0.1 m grid, which pins
its 1D and 2D picks and its rates in under a second. A change that moves any
written value, even by one ulp, fails here; such a change re-pins the hash
and lists the moved values in CHANGES.md. The hashes depend on the platform's
libm and scipy builds as well as on mlabeam.
"""

import hashlib

import pytest

from mlabeam.cli import main

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
""", "38f00ed2bf08a0151950608aa1e3d0847f98480f7012bf0bdd08f17f15a0f2ea"),
    "cutline": ("""focus_m = 30
x_points = 401
""", "5c6e713082efb111012cd4b7c8bcd289d342dcfbcd1e416458aec2ffc2b0d8c5"),
    "depth": ("""num_subarrays = 4
antennas_per_subarray = 16
aperture_m = 1.0
focus_m = 2
chain = 4
include_exact = false
""", "3ad7bdcc12e57a9c32a83f80451ddaf63690845beb086f9947becb176e933c7e"),
    "design": ("""aperture_m = 2.0
focus_m = 30
antenna_counts = 1, 2, 4, 8, 16, 32, 64
""", "7c45fdf9ad8111e4af747bf814bf40ed40a7e2d07ab7ff20aae0cf4653c335db"),
    "localize": ("""aperture_m = 2.0
num_subarrays = 2
antennas_per_subarray = 16
sweep_variable = antennas_per_subarray
sweep_values = 4, 8, 16, 32
trials = 500
power_dbm = 20
noise_dbm = -78
snapshots = 100
""", "0e9400e567248aaf7e97d622317e8b9a6bf16ab2695e9008e198e62c7981f33f"),
    "se": ("""aperture_m = 2.0
num_subarrays = 4
antennas_per_subarray = 16
power_dbm_values = 10, 15, 20
trials = 20
include_2d = true
angle_step_rad = 0.01
distance_step_m = 0.1
""", "d87d35950160d8f3cbb87b51d56c2dcf6c3cbb4245ef6ae41d9433c69a24d4f9"),
}


@pytest.mark.parametrize("command", sorted(SAMPLES))
def test_sample_config_csv_is_pinned(command, tmp_path, capsys):
    text, sha256 = SAMPLES[command]
    config = tmp_path / f"{command}.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
