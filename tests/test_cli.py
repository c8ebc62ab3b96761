import contextlib
import io
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mlabeam import cli, count_peaks
from mlabeam.cli import SCHEMAS, ConfigError, main, parse_config
from mlabeam.experiments import read_records_csv

from test_samples import readme_exit_codes


def _read_table(path):
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows)


def test_parse_config_types_and_defaults():
    cfg = parse_config("frequency_ghz = 15\nfocus_m = 30\n", SCHEMAS["cutline"])
    assert cfg["frequency_ghz"] == 15.0
    assert cfg["focus_m"] == 30.0
    assert cfg["num_subarrays"] == 2  # default
    assert cfg["x_points"] == 401


def test_parse_config_comments_and_blank_lines():
    text = "# run setup\n\nfocus_m = 30  # meters\naperture_m = 2.0\n"
    cfg = parse_config(text, SCHEMAS["cutline"])
    assert cfg["focus_m"] == 30.0 and cfg["aperture_m"] == 2.0


def test_parse_config_unknown_key_names_line():
    with pytest.raises(ConfigError, match=r"unknown key 'apertur_m' \(line 2\)"):
        parse_config("focus_m = 30\napertur_m = 2\n", SCHEMAS["cutline"])


def test_parse_config_negative_aperture_named():
    with pytest.raises(ConfigError, match=r"'aperture_m' must be positive"):
        parse_config("aperture_m = -1\nfocus_m = 30\n", SCHEMAS["cutline"])


def test_parse_config_bad_value_names_key_and_line():
    with pytest.raises(ConfigError, match=r"invalid value for 'x_points' \(line 1\)"):
        parse_config("x_points = many\nfocus_m = 1\n", SCHEMAS["cutline"])


def test_parse_config_missing_required():
    with pytest.raises(ConfigError, match=r"missing required key 'focus_m'"):
        parse_config("aperture_m = 2\n", SCHEMAS["cutline"])


def test_parse_config_overrides_win():
    cfg = parse_config("focus_m = 30\nx_points = 11\n", SCHEMAS["cutline"],
                       {"x_points": "21", "aperture_m": None})
    assert cfg["x_points"] == 21


def test_parse_config_lists_and_bools():
    cfg = parse_config("antenna_counts = 1, 2, 4\nfocus_m = 30\naperture_m = 2\n",
                       SCHEMAS["design"])
    assert cfg["antenna_counts"] == (1, 2, 4)
    cfg2 = parse_config("focus_m = 30\ninclude_exact = true\n", SCHEMAS["depth"])
    assert cfg2["include_exact"] is True
    with pytest.raises(ConfigError):
        parse_config("include_exact = maybe\nfocus_m = 30\n", SCHEMAS["depth"])


def test_unit_conversions():
    from mlabeam import Carrier, dbm_to_watts
    assert Carrier.from_frequency(15e9).wavelength == pytest.approx(0.0199861639,
                                                                    abs=1e-9)
    assert dbm_to_watts(20.0) == pytest.approx(0.1)


def test_design_command(tmp_path, capsys):
    out = tmp_path / "design.csv"
    code = main(["design", "--aperture_m", "2", "--focus_m", "30",
                 "--spacing_m", "0.01", "--antenna_counts", "16,64",
                 "--out", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert any(line.split()[:2] == ["64", "2"] for line in table.splitlines()[1:])
    comments, header, rows = _read_table(out)
    assert header[:3] == ["antennas_per_subarray", "num_subarrays", "gap_m"]
    n64 = rows[rows[:, 0] == 64][0]
    assert n64[1] == 2 and abs(n64[2] - 0.73) < 1e-9


def test_design_command_infeasible(tmp_path):
    code = main(["design", "--aperture_m", "2", "--focus_m", "30",
                 "--spacing_m", "0.01", "--antenna_counts", "150",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_cutline_command(tmp_path):
    out = tmp_path / "cut.csv"
    code = main(["cutline", "--focus_m", "30", "--aperture_m", "2",
                 "--num_subarrays", "2", "--antennas_per_subarray", "64",
                 "--out", str(out)])
    assert code == 0
    comments, header, rows = _read_table(out)
    assert comments[0].startswith("# config: ")
    assert header == ["x_m", "gain", "envelope", "in_halfpower_window"]
    inside = rows[rows[:, 3] == 1.0]
    # single lobe in the half-power window, reaching at least half the envelope peak
    assert count_peaks(inside[:, 1]) == 1
    assert inside[:, 1].max() >= 0.5 * rows[:, 2].max()
    np.testing.assert_array_less(rows[:, 1], rows[:, 2] + 1e-9)


def test_cutline_halfwidth_sets_the_span(tmp_path):
    """x_halfwidth_m sets the cut's span; the window column still marks the
    samples within half the half-power beamwidth of the center."""
    out = tmp_path / "cut.csv"
    assert main(["cutline", "--focus_m", "30", "--x_points", "41", "--x_halfwidth_m", "0.5",
                 "--out", str(out)]) == 0
    comments, _, rows = _read_table(out)
    bw = float(next(c for c in comments if c.startswith("# halfpower_beamwidth_m: ")).split()[-1])
    xs = rows[:, 0]
    assert xs.size == 41 and xs[0] == -0.5 and xs[-1] == 0.5
    np.testing.assert_array_equal(rows[:, 3], np.abs(xs) <= bw / 2)
    assert 0 < rows[:, 3].sum() < xs.size


def test_depth_command_chain(tmp_path, capsys):
    out = tmp_path / "depth.csv"
    code = main(["depth", "--focus_m", "2", "--aperture_m", "1",
                 "--num_subarrays", "4", "--antennas_per_subarray", "16",
                 "--chain", "4", "--z_points", "50", "--out", str(out)])
    assert code == 0
    comments, header, rows = _read_table(out)
    foci_line = next(c for c in comments if c.startswith("# foci_m: "))
    foci = [float(v) for v in foci_line.split(": ")[1].split(",")]
    assert len(foci) == 4
    assert foci[0] == 2.0
    assert foci[1] == pytest.approx(2.6737, abs=2e-3)
    assert all(a < b for a, b in zip(foci, foci[1:]))
    assert header == ["z_m", "gain_focus_1", "gain_focus_2", "gain_focus_3",
                      "gain_focus_4"]
    assert rows.shape == (50, 5)


def test_depth_no_null_degenerate(tmp_path):
    code = main(["depth", "--focus_m", "500", "--chain", "2",
                 "--out", str(tmp_path / "d.csv")])
    assert code == 4


@pytest.mark.parametrize("command, name, fake", [
    ("cutline", "crossrange_gain", lambda *a: (np.full_like(a[2], 1.5), np.full_like(a[2], 2.0))),
    ("cutline", "crossrange_gain", lambda *a: (np.full_like(a[2], 0.5), np.full_like(a[2], 1.5))),
    ("cutline", "crossrange_gain", lambda *a: (np.zeros_like(a[2]), np.full_like(a[2], -1e-3))),
    ("depth", "gain_mla_fresnel", lambda *a: np.full_like(a[2], 1.5)),
    ("depth", "gain_mla_fresnel", lambda *a: np.full_like(a[2], np.nan)),
    ("beampattern", "gain_exact_sweep", lambda mla, x, z, *a: np.full_like(x, 1.5)),
    ("depth --include_exact true", "gain_exact_sweep", lambda mla, x, z, *a: np.full_like(z, 1.5)),
], ids=["cutline", "cutline_envelope", "cutline_negative", "depth", "depth_nan", "beampattern",
        "depth_exact"])
def test_gain_above_one_is_rejected(tmp_path, monkeypatch, command, name, fake):
    """Every written gain column, envelope included, is checked before the
    file is opened: a gain above 1, below 0 or NaN exits 4 and writes nothing."""
    monkeypatch.setattr(f"mlabeam.cli.{name}", fake)
    out = tmp_path / "g.csv"
    assert main([*command.split(), "--focus_m", "30", "--out", str(out)]) == 4
    assert not out.exists()


def test_beampattern_command(tmp_path):
    # the default window, then sources beside the sub-arrays of a sparse 2 x 8
    # layout, far nearer than its 2 m aperture
    for window in ([], ["--num_subarrays", "2", "--antennas_per_subarray", "8",
                        "--x_min_m", "-1", "--x_max_m", "1", "--z_min_m", "0.05",
                        "--z_max_m", "1"]):
        out = tmp_path / "bp.csv"
        code = main(["beampattern", "--focus_m", "30", "--x_points", "15",
                     "--z_points", "7", *window, "--out", str(out)])
        assert code == 0
        _, header, rows = _read_table(out)
        assert header == ["z_m", "x_m", "gain"]
        assert rows.shape == (7 * 15, 3)
        assert rows[:, 2].max() <= 1.0


def test_beampattern_log_z(tmp_path):
    """log_z places the depths geometrically, ending exactly at z_min_m and
    z_max_m."""
    out = tmp_path / "bp.csv"
    assert main(["beampattern", "--focus_m", "30", "--x_points", "3", "--z_points", "9",
                 "--z_min_m", "3", "--z_max_m", "70", "--log_z", "true", "--out", str(out)]) == 0
    zs = _read_table(out)[2][::3, 0]
    assert zs.size == 9 and zs[0] == 3.0 and zs[-1] == 70.0
    np.testing.assert_allclose(zs[1:] / zs[:-1], (70 / 3) ** (1 / 8), rtol=1e-12)


# ends in metres, none so near the subnormals that halving them loses bits
_ENDS = st.floats(-1e6, 1e6).filter(lambda v: v == 0 or abs(v) > 1e-300)


@settings(max_examples=300, deadline=None)
@given(lo=_ENDS, hi=_ENDS, n=st.integers(1, 400), symmetric=st.booleans())
@example(lo=-2.0, hi=2.0, n=81, symmetric=True)
@example(lo=-2.0, hi=2.0, n=1, symmetric=True)
@example(lo=0.1, hi=0.7, n=2, symmetric=False)
def test_beampattern_x_samples(lo, hi, n, symmetric):
    """The beampattern x samples: the requested count, strictly increasing,
    ending exactly at x_min_m and x_max_m, within a few ulps of np.linspace,
    and mirror-closed, bit for bit, on a range symmetric about 0 (one sample
    is x_min_m alone, as np.linspace gives)."""
    if symmetric:
        lo = -hi
    ulp = np.spacing(max(abs(lo), abs(hi)))
    assume(n == 1 or hi - lo > 64 * (n - 1) * ulp)
    xs = cli._centered_linspace(lo, hi, n)
    assert xs.shape == (n,) and xs[0] == lo and (n == 1 or xs[-1] == hi)
    assert np.all(np.diff(xs) > 0)
    assert np.all(np.abs(xs - np.linspace(lo, hi, n)) <= 4 * ulp)
    if symmetric and n > 1:
        assert np.isin(-xs, xs).all()


def test_localize_command(tmp_path, capsys):
    out = tmp_path / "loc.csv"
    code = main(["localize", "--trials", "3", "--sweep_values", "4,8",
                 "--out", str(out)])
    assert code == 0
    assert "nmse=" in capsys.readouterr().out
    comments, header, rows = _read_table(out)
    assert len(rows) == 6


def test_se_command(tmp_path, capsys):
    out = tmp_path / "se.csv"
    code = main(["se", "--trials", "2", "--power_dbm_values", "10,20",
                 "--include_2d", "false", "--out", str(out)])
    assert code == 0
    assert "se_proposed=" in capsys.readouterr().out


def test_config_file_flow(tmp_path):
    cfgfile = tmp_path / "run.txt"
    cfgfile.write_text("focus_m = 30\nantennas_per_subarray = 64\n"
                       "num_subarrays = 2\naperture_m = 2.0\n", encoding="utf-8")
    code = main(["cutline", "--config", str(cfgfile), "--x_points", "51",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 0
    _, _, rows = _read_table(tmp_path / "c.csv")
    assert len(rows) == 51


def test_config_file_with_byte_order_mark(tmp_path):
    """A config saved with a UTF-8 byte-order mark once failed as an unknown
    key on line 1; it now writes the same bytes as the file without one."""
    text = "focus_m = 30\nnum_subarrays = 2\naperture_m = 2.0\n"
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / f"{name}.txt").write_bytes(data)
        assert main(["cutline", "--config", str(tmp_path / f"{name}.txt"), "--x_points", "21",
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_exit_codes_config_and_io(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("aperture_m = -1\nfocus_m = 30\n", encoding="utf-8")
    assert main(["cutline", "--config", str(bad)]) == 2
    assert "aperture_m" in capsys.readouterr().err
    bad.write_text("focus_m 30\n", encoding="utf-8")
    assert main(["cutline", "--config", str(bad)]) == 2
    assert "line 1: expected 'key = value'" in capsys.readouterr().err
    # a file that is not UTF-8 once ended in a UnicodeDecodeError traceback
    bad.write_bytes(b"focus_m = 30\n\xff\n")
    assert main(["cutline", "--config", str(bad), "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{bad} is not UTF-8 text" in err
    assert not (tmp_path / "c.csv").exists()

    assert main(["cutline", "--config", str(tmp_path / "missing.txt")]) == 5
    assert main(["cutline", "--focus_m", "30",
                 "--out", str(tmp_path / "no_dir" / "x.csv")]) == 5


def test_calls_in_a_row_write_what_each_writes_alone(tmp_path):
    """main builds its parser once per process; a call's subcommand and
    overrides do not carry over to the next call, so calls in a row write the
    bytes that each writes with a parser of its own."""
    calls = [["cutline", "--focus_m", "20", "--x_points", "31", "--num_subarrays", "4",
              "--antennas_per_subarray", "16"],
             ["depth", "--focus_m", "2", "--aperture_m", "1", "--num_subarrays", "4",
              "--antennas_per_subarray", "16", "--chain", "2", "--z_points", "40"],
             ["cutline", "--focus_m", "30"]]
    alone = []
    for i, argv in enumerate(calls):
        cli._parser.cache_clear()
        assert main([*argv, "--out", str(tmp_path / f"alone_{i}.csv")]) == 0
        alone.append((tmp_path / f"alone_{i}.csv").read_bytes())
    cli._parser.cache_clear()
    for i, argv in enumerate(calls):
        assert main([*argv, "--out", str(tmp_path / f"row_{i}.csv")]) == 0
    assert cli._parser.cache_info().misses == 1
    assert [(tmp_path / f"row_{i}.csv").read_bytes() for i in range(len(calls))] == alone


def test_gap_overrides_aperture(tmp_path):
    """A set gap_m fixes the layout whatever aperture_m says."""
    tables = []
    for aperture in ("2", "9"):
        out = tmp_path / f"cut_{aperture}.csv"
        assert main(["cutline", "--focus_m", "30", "--gap_m", "0.5", "--aperture_m", aperture,
                     "--out", str(out)]) == 0
        comments, header, rows = _read_table(out)
        tables.append((comments[1:], header, rows.tolist()))
    assert tables[0] == tables[1]


def test_exit_code_infeasible_geometry():
    assert main(["cutline", "--focus_m", "30", "--aperture_m", "1.2",
                 "--num_subarrays", "2", "--antennas_per_subarray", "64",
                 "--out", "/dev/null"]) == 3


def test_exactly_contiguous_layout_is_feasible(tmp_path, capsys):
    """An aperture of exactly L*N*spacing holds the contiguous layout (gap =
    spacing), though the gap formula rounds it one ulp below the spacing."""
    out = tmp_path / "design.csv"
    assert main(["design", "--aperture_m", "0.06", "--focus_m", "1", "--antenna_counts", "3",
                 "--spacing_m", "0.01", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == [
        "3", "2", "0.0100", "1", "aperture-filled"]
    assert _read_table(out)[2].tolist() == [[3, 2, 0.01, 1, 0]]
    assert main(["cutline", "--focus_m", "1", "--aperture_m", "0.06", "--num_subarrays", "2",
                 "--antennas_per_subarray", "3", "--spacing_m", "0.01",
                 "--out", str(tmp_path / "cut.csv")]) == 0


# an se run on a coarse 2D grid, whose span the user bounds must stay inside
_SE_SMALL_GRID = "se --trials 12 --power_dbm_values 20 --angle_step_rad 0.02 --distance_step_m 0.5"
_FINITE = "must be finite (flag)"
_OUTSIDE = "user bounds reach outside the 2D grid's span"
_NO_WIDTH = "has no finite half-power beamwidth"
_TINY_FOCUS = "a focus_m of 5e-324 is too small"
_CLOSED_FORM = "the closed-form gain leaves float64 at this focus, spacing and depth window"
_SOURCE_DEPTH = "smallest source depth of 5e-324 m must both be at least 1e-20 m"
_MEMORY = "GiB of physical memory"
_TERA = "1000000000000"

# Every config the CLI must refuse as a config error (exit 2), with a part of
# the message it must print, in the order of the kinds that README's
# exit-code table names.
REFUSED_CONFIGS = [
    pytest.param("cutline --focus_m nan", f"'focus_m' {_FINITE}", id="nan_focus"),
    pytest.param("design --aperture_m 2 --focus_m nan", f"'focus_m' {_FINITE}",
                 id="nan_design_focus"),
    pytest.param("beampattern --focus_m 30 --z_max_m inf", f"'z_max_m' {_FINITE}", id="inf_depth"),
    pytest.param("localize --trials 1 --noise_dbm nan", f"'noise_dbm' {_FINITE}", id="nan_noise"),
    pytest.param("localize --trials 1 --noise_dbm=-inf", f"'noise_dbm' {_FINITE}",
                 id="minus_inf_noise"),
    pytest.param("depth --focus_m 2 --depth_threshold nan", f"'depth_threshold' {_FINITE}",
                 id="nan_threshold"),
    pytest.param("se --trials 1 --power_dbm_values 10,inf", f"'power_dbm_values' {_FINITE}",
                 id="inf_in_float_list"),
    pytest.param("localize --trials 1 --sweep_variable bandwidth",
                 "invalid value for 'sweep_variable'", id="unknown_sweep_variable"),
    pytest.param("beampattern --focus_m 30 --x_min_m 2 --x_max_m -2",
                 "'x_min_m' must be below 'x_max_m'", id="reversed_range"),
    pytest.param("design --aperture_m 2 --focus_m 30 --grid_points 8",
                 "need at least 16 grid points", id="design_grid"),
    pytest.param("localize --trials 1 --angle_max_deg 100", "users must be in front of the array",
                 id="angle_bounds"),
    pytest.param("localize --trials 1 --sweep_variable num_subarrays --sweep_values 1,2",
                 "triangulation needs at least two sub-arrays", id="one_subarray"),
    pytest.param("se --trials 1 --num_subarrays 1 --include_2d false",
                 "triangulation needs at least two sub-arrays", id="se_one_subarray"),
    pytest.param("se --trials 1 --snapshots 1", "needs at least two snapshots", id="one_snapshot"),
    pytest.param("localize --trials 3 --sweep_values 4,4", "sweep values must be distinct",
                 id="repeated_sweep_value"),
    pytest.param("localize --trials 1 --angle_step_rad 4", "angle step must be below pi",
                 id="localize_angle_step_pi"),
    pytest.param("se --trials 1 --angle_step_rad 4", "angle step must be below pi",
                 id="se_angle_step_pi"),
    pytest.param(f"{_SE_SMALL_GRID} --distance_max_m 90", _OUTSIDE, id="se_users_beyond_grid"),
    pytest.param(f"{_SE_SMALL_GRID} --distance_min_m 1 --distance_max_m 3.5", _OUTSIDE,
                 id="se_users_inside_grid"),
    pytest.param(f"{_SE_SMALL_GRID} --angle_min_deg -85 --angle_max_deg 85", _OUTSIDE,
                 id="se_users_beside_grid"),
    pytest.param("depth --spacing_m 1e300 --num_subarrays 1 --aperture_m 0.003 --focus_m 7.3 "
                 "--include_exact true", "aperture 6.4e+301 m must have a finite square",
                 id="aperture_square_overflow"),
    pytest.param("localize --trials 1 --distance_max_m 1e300",
                 "user distance 1e+300 m must have a finite square",
                 id="user_distance_square_overflow"),
    pytest.param("cutline --frequency_ghz 5e-324 --focus_m 30",
                 "carrier frequency 4.94065646e-315 Hz and wavelength inf m must be finite",
                 id="cutline_wavelength_overflow"),
    pytest.param("cutline --frequency_ghz 1e-300 --spacing_m 1e-300 --focus_m 30", _NO_WIDTH,
                 id="cutline_beamwidth_underflow"),
    pytest.param("design --frequency_ghz 1e-300 --spacing_m 1e-300 --aperture_m 2e-300 "
                 "--focus_m 1 --antenna_counts 1", _NO_WIDTH, id="design_beamwidth_underflow"),
    pytest.param("cutline --focus_m 1e-180 --spacing_m 1e150 --num_subarrays 1 "
                 "--antennas_per_subarray 1", _NO_WIDTH, id="cutline_beamwidth_zero"),
    pytest.param("cutline --focus_m 5e-324", _TINY_FOCUS, id="cutline_tiny_focus"),
    pytest.param("design --focus_m 5e-324 --aperture_m 2", _TINY_FOCUS, id="design_tiny_focus"),
    pytest.param("beampattern --focus_m 5e-324 --x_points 3 --z_points 3", _TINY_FOCUS,
                 id="beampattern_tiny_focus"),
    pytest.param("depth --focus_m 5e-324", _TINY_FOCUS, id="depth_tiny_focus"),
    pytest.param("depth --focus_m 5e-324 --frequency_ghz 1e-300 --spacing_m 0.01 "
                 "--num_subarrays 1", _TINY_FOCUS, id="depth_focus_half_underflow"),
    pytest.param("beampattern --focus_m 2 --x_points 1 --z_points 1 --x_min_m 1e62",
                 "sources reach 1e+62 m from the array's elements, beyond the 1e+61 m",
                 id="beampattern_source_beyond_reach"),
    pytest.param("beampattern --focus_m 2 --x_points 1 --z_points 1 --x_min_m 1e300",
                 "sources reach 1e+300 m", id="beampattern_source_square_overflow"),
    pytest.param("beampattern --focus_m 2 --x_points 3 --z_points 3 --z_min_m 5e-324",
                 _SOURCE_DEPTH, id="beampattern_source_depth_underflow"),
    pytest.param("beampattern --focus_m 2 --x_points 3 --z_points 3 --spacing_m 5e-324",
                 "an element spacing of 5e-324 m", id="beampattern_spacing_underflow"),
    pytest.param("depth --focus_m 2 --include_exact true --z_max_m 1e62",
                 "sources reach 1e+62 m", id="depth_exact_source_beyond_reach"),
    pytest.param("depth --focus_m 2 --include_exact true --z_min_m 5e-324 --z_points 3",
                 _CLOSED_FORM, id="depth_z_min_underflow"),
    pytest.param("depth --focus_m 1e153", _CLOSED_FORM, id="depth_focus_gain_overflow"),
    pytest.param("depth --num_subarrays 1 --antennas_per_subarray 1 --focus_m 1e300 "
                 "--z_points 1 --chain 1", _CLOSED_FORM, id="depth_focus_overflow"),
    pytest.param("depth --num_subarrays 4 --antennas_per_subarray 1 --focus_m 1e300 "
                 "--z_points 2 --chain 3", _CLOSED_FORM, id="depth_chain_focus_overflow"),
    pytest.param("depth --focus_m 30 --num_subarrays 2 --antennas_per_subarray 2 "
                 "--z_points 4 --spacing_m 5e-324", _CLOSED_FORM, id="depth_spacing_underflow"),
    pytest.param("design --frequency_ghz 100 --aperture_m 4 --focus_m 2 --antenna_counts 1",
                 "needs at least 2.36e+03 grid points", id="design_window_lobes_between_samples"),
    pytest.param("design --frequency_ghz 1e9 --aperture_m 7.3 --focus_m 0.01 --antenna_counts 3",
                 "needs at least 1.44e+10 grid points", id="design_window_endless_search"),
    pytest.param("design --frequency_ghz 1e-300 --spacing_m 1e-300 --aperture_m 0.01 "
                 "--focus_m 10000 --antenna_counts 4", "needs at least 2.21e+297 grid points",
                 id="design_window_beamwidth_underflow"),
    pytest.param("localize --trials 1 --noise_dbm -3300", "'noise_dbm' = -3300.0 dBm is not",
                 id="localize_noise_underflow"),
    pytest.param("se --trials 1 --noise_dbm -3300", "'noise_dbm' = -3300.0 dBm is not",
                 id="se_noise_underflow"),
    pytest.param("localize --trials 1 --noise_dbm 4000", "'noise_dbm' = 4000.0 dBm is not",
                 id="localize_noise_overflow"),
    pytest.param("localize --trials 1 --power_dbm 4000", "'power_dbm' = 4000.0 dBm is not",
                 id="localize_power_overflow"),
    pytest.param("se --trials 1 --include_2d false --power_dbm_values 4000",
                 "'power_dbm_values' = 4000.0 dBm is not", id="se_power_overflow"),
    pytest.param("localize --trials 1 --angle_step_rad 5e-324",
                 "the 1D steering matrix of 4 elements at an angle step of 5e-324 rad needs inf "
                 "GiB, more than the", id="localize_angle_step_underflow"),
    pytest.param("localize --trials 1 --angle_step_rad 1e-12", _MEMORY,
                 id="localize_angle_grid_beyond_memory"),
    pytest.param("se --trials 1 --angle_step_rad 1e-12 --include_2d false", _MEMORY,
                 id="se_angle_grid_beyond_memory"),
    pytest.param("se --trials 1 --distance_step_m 5e-324",
                 "the 2D grid of 64 elements at an angle step of 0.002 rad and a distance step "
                 "of 5e-324 m needs inf GiB", id="se_distance_step_underflow"),
    pytest.param("se --distance_step_m=5e-324 --angle_step_rad=0.05",
                 "at an angle step of 0.05 rad and a distance step of 5e-324 m needs inf GiB",
                 id="se_distance_step_underflow_coarse_angles"),
    pytest.param("se --trials 1 --distance_step_m 1e-12", _MEMORY, id="se_2d_grid_beyond_memory"),
    pytest.param(f"cutline --focus_m 30 --x_points {_TERA}", f"the x axis of {_TERA} samples",
                 id="cutline_x_points_beyond_memory"),
    pytest.param(f"depth --focus_m 2 --z_points {_TERA}", f"the z axis of {_TERA} samples",
                 id="depth_z_points_beyond_memory"),
    pytest.param("beampattern --focus_m 30 --x_points 1000000 --z_points 1000000",
                 "the 1000000 x 1000000 source grid", id="beampattern_sources_beyond_memory"),
    pytest.param(f"design --aperture_m 2 --focus_m 30 --grid_points {_TERA}",
                 f"a half-power window of {_TERA} grid points",
                 id="design_grid_points_beyond_memory"),
]


@pytest.mark.parametrize("argv, message", REFUSED_CONFIGS)
def test_refused_config_exits_2(argv, message, tmp_path, capsys):
    """A refused config is a config error within a second, and writes no file."""
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    assert main([*argv.split(), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_users_beyond_grid_run_without_2d(tmp_path):
    """Without the 2D baseline no grid bounds the users."""
    assert main([*_SE_SMALL_GRID.split(), "--distance_max_m", "90", "--include_2d", "false",
                 "--out", str(tmp_path / "se.csv")]) == 0


def test_internal_error_is_not_a_config_error(monkeypatch):
    """A ValueError from inside a run is a bug, not the user's config."""
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")
    monkeypatch.setattr("mlabeam.cli.run_se_sweep", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["se", "--trials", "1", "--out", "/dev/null"])


@pytest.mark.parametrize("argv", [
    ["cutline", "--focus_m", "30", "--num_subarrays", "3"],
    ["cutline", "--focus_m", "30", "--num_subarrays", "1"],
    ["depth", "--focus_m", "2", "--num_subarrays", "3", "--antennas_per_subarray", "16",
     "--aperture_m", "1", "--chain", "3"],
], ids=["cutline_3", "cutline_1", "depth_3"])
def test_closed_forms_take_any_subarray_count(argv, tmp_path):
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0


# Values for generated configs: every key draws from the special values (an
# underflowing, an overflowing, a zero and negative numbers) and a few
# plausible ones. The sizes (_SIZED) are always set: a count is at most 40
# points and a positive step at least 0.05 rad or 0.5 m (or 1e300), unless it
# is 10^12 points or a step of 1e-12 or 5e-324, which exceeds any host's
# memory and is refused before anything is built.
_SPECIAL = ("5e-324", "1e300", "0", "-1", "-5e-324")
_PLAUSIBLE = {
    "frequency_ghz": ("15", "100"), "spacing_m": ("0.01",), "gap_m": ("0.5",),
    "aperture_m": ("2",), "focus_m": ("2", "30"), "x_halfwidth_m": ("0.5",),
    "z_min_m": ("5",), "z_max_m": ("60",), "noise_dbm": ("-78",), "power_dbm": ("20",),
    "power_dbm_values": ("10", "10,20"), "seed": ("7",), "log_z": ("true", "false"),
    "include_exact": ("true", "false"), "depth_threshold": ("0.05",),
    "sweep_variable": ("antennas_per_subarray", "num_subarrays", "power"),
}
_SIZED = {
    "x_points": ("1", "2", "40", _TERA), "z_points": ("1", "2", "40", _TERA),
    "grid_points": ("16", "40", _TERA), "trials": ("1", "3"), "snapshots": ("2", "40"),
    "chain": ("1", "3"), "num_subarrays": ("1", "2", "4"), "include_2d": ("true", "false"),
    "antennas_per_subarray": ("1", "2", "16"), "antenna_counts": ("1", "2,64", "64"),
    "sweep_values": ("2", "4,16", "2,3"),
    "angle_step_rad": ("0.05", "1", "4", "0", "-1", "1e300", "1e-12", "5e-324"),
    "distance_step_m": ("0.5", "2", "0", "-1", "1e300", "1e-12", "5e-324"),
}


def _value(key, spec):
    if key in _SIZED:
        return st.sampled_from(_SIZED[key])
    default = () if spec.default is None else (str(spec.default).strip("()").replace(" ", ""),)
    return st.one_of(st.sampled_from(_PLAUSIBLE.get(key, ()) + default), st.sampled_from(_SPECIAL))


@st.composite
def _generated_config(draw):
    command = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[command]
    always = [k for k, spec in schema.items() if spec.required or k in _SIZED]
    keys = always + draw(st.lists(st.sampled_from([k for k in schema if k not in always]),
                                  unique=True, max_size=4))
    return [command, *(f"--{k}={draw(_value(k, schema[k]))}" for k in keys)]


# fields a Monte Carlo row leaves NaN: the estimates of an excluded trial, and
# what the command does not compute
_ESTIMATES = {"est_x", "est_z", "sq_error", "est_x_2d", "est_z_2d", "sq_error_2d", "se_proposed",
              "se_2d"}
_FIELDS_2D = {"est_x_2d", "est_z_2d", "sq_error_2d", "se_2d"}


def _unwritten(command, cfg, record):
    fields = set(_ESTIMATES if record["excluded"] else ())
    if command == "localize":
        fields |= _FIELDS_2D | {"se_proposed", "se_perfect"}
    elif not cfg["include_2d"]:
        fields |= _FIELDS_2D
    return fields


@settings(max_examples=200, deadline=None)
@given(argv=_generated_config())
def test_generated_configs_exit_as_documented(argv):
    """Any config exits with a code from README's table; exit 0 writes a CSV
    whose values are finite (a Monte Carlo row leaves NaN only in the fields
    it does not produce), and exit 4 writes no file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, f"--out={out}"])
        assert code in readme_exit_codes()
        if code == 4:
            assert not out.exists()
        if code != 0:
            return
        command = argv[0]
        if command in ("localize", "se"):
            cfg = parse_config("", SCHEMAS[command],
                               dict(arg[2:].split("=", 1) for arg in argv[1:]))
            _, records, _ = read_records_csv(out)
            assert records
            for record in records:
                unwritten = _unwritten(command, cfg, record)
                assert all(math.isfinite(v) or (math.isnan(v) and k in unwritten)
                           for k, v in record.items()), record
        else:
            _, _, table = _read_table(out)
            assert table.size and np.isfinite(table).all()
