"""The shipped configurations reproduce the committed reference artifacts byte for byte.

The files under ``tests/reference/`` are the outputs of
``qrotor <command> --config configs/<config> --out tests/reference/<artifact>``.
A change that legitimately moves printed digits regenerates them that way and
logs the diff.

The shipped lineshape config is a calibrated quadratic stack.  The other ring
shift models are pinned through the small configs of ``LOCAL_CASES``, written
here to a temporary file; their references are the outputs of ``qrotor
lineshape`` on those configs, as is the 2000-ring stack of ``STACK_2000``.  The fig2 table has 66 rows, so a 620-level
spectrum on the same trap (``SPECTRUM_620``) is pinned too, as CSV and JSON.
"""

import json
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


def _lineshape_config(j_max: int, shift_model: dict, **beam) -> dict:
    return {
        "species": {"name": "6Li"},
        "beam": {"wavelength": 671e-9, "waist_w0": 10e-6, "oam_l": 5, **beam},
        "lineshape": {"Omega_R": 3.142, "j_max": j_max, "kick_oam_L": 25,
                      "shift_model": shift_model, "grid_half_width_over_OmegaR": 8.0,
                      "grid_points": 401},
    }


LOCAL_CASES = [
    ("lineshape_none.csv", _lineshape_config(20, {"model": "none"})),
    ("lineshape_physical.csv", _lineshape_config(20, {"model": "physical"}, z_eff=5e-4)),
    ("lineshape_quadratic.csv",
     _lineshape_config(40, {"model": "quadratic", "scale_s": 0.0025})),
]

# a 2000-ring fixed-scale stack on the shipped 1601-point grid: the shape of
# the benchmark's largest lineshape jobs, whose shifts the stack average
# compresses to Chebyshev nodes (its reference was written by the exact fold)
STACK_2000 = _lineshape_config(2000, {"model": "quadratic", "scale_s": 1.5e-6})
STACK_2000["lineshape"]["grid_points"] = 1601

# fig2's trap at the largest limits of the benchmark's spectrum jobs
SPECTRUM_620 = {
    "species": {"name": "6Li"},
    "beam": {"wavelength": 671e-9, "waist_w0": 10e-6, "oam_l": 5, "radial_p": 0,
             "trap_depth_recoils": 10.0, "collimated": False},
    "spectrum": {"n_z_max": 3, "n_r_max": 4, "m_ell_max": 30},
}


def _assert_matches_reference(folder: Path, artifact: str) -> None:
    written = sorted(p.name for p in folder.iterdir())
    assert artifact in written
    for name in written:   # the lineshape CSV comes with its .fit.json sidecar
        assert (folder / name).read_bytes() == (REFERENCE / name).read_bytes(), name


def _run_local_config(tmp_path, command: str, config: dict, artifact: str, *extra):
    """Run ``command`` on ``config`` written to a temporary file; check its artifact."""
    out = tmp_path / "out"
    out.mkdir()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    res = CliRunner().invoke(cli, [command, "--config", str(path),
                                   "--out", str(out / artifact), *extra])
    assert res.exit_code == 0, res.output
    _assert_matches_reference(out, artifact)
    return res


@pytest.mark.parametrize("command, config, artifact, extra", CASES,
                         ids=[f"{c[0]}{''.join(c[3])}" for c in CASES])
def test_shipped_config_reproduces_reference(tmp_path, config_dir, command, config,
                                             artifact, extra):
    res = CliRunner().invoke(cli, [command, "--config", str(config_dir / config),
                                   "--out", str(tmp_path / artifact), *extra])
    assert res.exit_code == 0, res.output
    _assert_matches_reference(tmp_path, artifact)


@pytest.mark.parametrize("artifact, config", LOCAL_CASES, ids=[c[0] for c in LOCAL_CASES])
@pytest.mark.parametrize("workers", ["1", "3"])
def test_shift_model_config_reproduces_reference(tmp_path, artifact, config, workers):
    _run_local_config(tmp_path, "lineshape", config, artifact, "--parallel", workers)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_2000_ring_stack_reproduces_reference(tmp_path, workers):
    _run_local_config(tmp_path, "lineshape", STACK_2000, "lineshape_2000_rings.csv",
                      "--parallel", workers)


@pytest.mark.parametrize("artifact, fmt", [("spectrum_620.csv", "csv"),
                                           ("spectrum_620.json", "json")])
@pytest.mark.parametrize("workers", ["1", "3"])
def test_620_level_spectrum_reproduces_reference(tmp_path, artifact, fmt, workers):
    res = _run_local_config(tmp_path, "spectrum", SPECTRUM_620, artifact,
                            "--format", fmt, "--parallel", workers)
    assert "620 levels" in res.output
