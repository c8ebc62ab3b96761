"""Byte identity of the CLI commands on README's sample configs.

Each README ```ini block whose first line is `# <command>.cfg` is written to
a file as it stands, and the sha256 of the CSV its command writes must equal
a pinned value; every sample has a pin and every pin a sample. A change that
moves any written value, even by one ulp, re-pins the hash and lists the
moved values in CHANGES.md. The hashes also depend on the platform's libm and
scipy, and on the SIMD kernel numpy picks for its float64 tan, from which
beampattern's exact field is built.
"""

import hashlib
import re
from pathlib import Path

import pytest

from mlabeam.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# flags that shrink se's README sample (500 trials, a ~0.5 GB 2D grid) to under a second
SE_REDUCED = ["--trials", "20", "--angle_step_rad", "0.01", "--distance_step_m", "0.1"]

SHA256 = {
    "beampattern": "55cd6e86aea07ea448e29e97bef59ee52f6287bbed2f7ff754dd473126dd73d6",
    "cutline": "0752e6d8dbe9da097569377bb582a7465f99eba207774d2d1489c8f2b2c08305",
    "depth": "738c0f44e5245df8d88073a751264e9b35856a4a257ef3ae4ed5f637e0c7a115",
    "design": "8627c5c286165fe24af86bdf7dce52edd58d644aa654ff3af76218815bf788bb",
    "localize": "9cefa2f0403c8f4acf1ccb7e7efbc4afa8b1ecb2fe6c66b86620316fec59385a",
    "se": "ea30a2ee53ebb9b75e87f0262a0ee18406d5bcfdb27f637c993013084a4cc0da",
}


def readme_samples() -> dict:
    """{command: text} of README's sample configs: each ```ini block whose
    first line is '# <command>.cfg', its text exactly as written."""
    blocks = re.findall(r"```ini\n(# (\w+)\.cfg[^\n]*\n.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    samples = {command: text for text, command in blocks}
    assert len(samples) == len(blocks), "a README sample config appears twice"
    return samples


def test_every_readme_sample_is_pinned():
    assert sorted(readme_samples()) == sorted(SHA256)


def _run_sample(command, tmp_path, capsys) -> Path:
    """Run README's sample config of command; the path of the CSV it wrote."""
    config, out = tmp_path / f"{command}.cfg", tmp_path / f"{command}.csv"
    config.write_text(readme_samples()[command], encoding="utf-8")
    assert main([command, "--config", str(config), "--out", str(out),
                 *(SE_REDUCED if command == "se" else [])]) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("command", sorted(SHA256))
def test_sample_config_csv_is_pinned(command, tmp_path, capsys):
    out = _run_sample(command, tmp_path, capsys)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHA256[command]


def test_readme_beampattern_x_is_mirror_closed(tmp_path, capsys):
    """README's beampattern x range is symmetric about 0, and its x_m column
    holds the negation of each of its values, bit for bit: the exact-gain
    sweep evaluates each mirror pair as one source."""
    rows = [line.split(",") for line in
            _run_sample("beampattern", tmp_path, capsys).read_text().splitlines()
            if not line.startswith("#")]
    column = rows[0].index("x_m")
    xs = {float(row[column]) for row in rows[1:]}
    assert len(xs) > 1 and {-x for x in xs} == xs


def test_readme_library_example(capsys):
    """README's one python block runs and prints what its comments say."""
    [code] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(code, {})
    assert capsys.readouterr().out == "True\n2\n"
