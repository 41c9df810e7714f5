"""The shipped configurations reproduce the committed reference artifacts byte for byte.

The files under ``tests/reference/`` are the outputs of
``qrotor <command> --config configs/<config> --out tests/reference/<artifact>``.
A change that legitimately moves printed digits regenerates them that way and
logs the diff.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from qrotor.cli import cli

REFERENCE = Path(__file__).resolve().parent / "reference"

CASES = [
    ("spectrum", "fig2_spectrum.json", "fig2_spectrum.csv", ()),
    ("lineshape", "fig4_lineshape.json", "fig4_lineshape.csv", ("--parallel", "1")),
    ("lineshape", "fig4_lineshape.json", "fig4_lineshape.csv", ("--parallel", "4")),
    ("rotation-scan", "fig5_rotation_scan.json", "fig5_rotation_scan.csv", ()),
    ("budget", "budget.json", "budget.json", ()),
    ("tilt", "tilt.json", "tilt.json", ()),
]


@pytest.mark.parametrize("command, config, artifact, extra", CASES,
                         ids=[f"{c[0]}{''.join(c[3])}" for c in CASES])
def test_shipped_config_reproduces_reference(tmp_path, config_dir, command, config,
                                             artifact, extra):
    res = CliRunner().invoke(cli, [command, "--config", str(config_dir / config),
                                   "--out", str(tmp_path / artifact), *extra])
    assert res.exit_code == 0, res.output
    written = sorted(p.name for p in tmp_path.iterdir())
    assert artifact in written
    for name in written:   # the lineshape CSV comes with its .fit.json sidecar
        assert (tmp_path / name).read_bytes() == (REFERENCE / name).read_bytes(), name
