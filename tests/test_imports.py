"""Each subcommand imports only what it runs: none of them loads scipy or numpy.polynomial.

Every case runs in a fresh interpreter and lists the ``scipy`` and
``numpy.polynomial`` modules in ``sys.modules`` afterwards.  scipy is a test
dependency only: the package's fits, roots and extrema run on numpy.  The
axial wavefunctions come from a three-term recurrence, not from
``numpy.polynomial.hermite``, whose import costs ~3 ms.  The control is a
body that imports each of them itself, which shows that the probe sees such
an import when there is one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules
                        if (m + ".").startswith(("scipy.", "numpy.polynomial.")))))
"""
RUN_CLI = "from qrotor.cli import cli\ncli.main(sys.argv[1:], standalone_mode=False)"


def loaded_modules(body: str, *args) -> list[str]:
    """The scipy and numpy.polynomial modules loaded after ``body`` runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE.format(body=body), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["qrotor", "qrotor.cli"])
def test_import_loads_no_scipy(module):
    assert loaded_modules(f"import {module}") == []


@pytest.mark.parametrize("command, config", [
    ("spectrum", "fig2_spectrum.json"),
    ("budget", "budget.json"),
    ("tilt", "tilt.json"),
    ("rotation-scan", "fig5_rotation_scan.json"),
])
def test_subcommand_without_fits_loads_no_scipy(tmp_path, config_dir, command, config):
    out = tmp_path / "artifact"
    assert loaded_modules(RUN_CLI, command, "--config", str(config_dir / config),
                         "--out", str(out)) == []
    assert out.stat().st_size > 0


def test_probe_sees_a_scipy_import():
    assert "scipy.optimize" in loaded_modules("import scipy.optimize")
    assert "numpy.polynomial.hermite" in loaded_modules("import numpy.polynomial.hermite")


def test_calibrated_lineshape_loads_no_scipy(tmp_path, config_dir):
    # fig4 calibrates its quadratic scale, searches the peak and fits the curve
    cfg = json.loads((config_dir / "fig4_lineshape.json").read_text())
    cfg["lineshape"].update(j_max=12, grid_points=401)
    assert "calibrate_delta_max_over_OmegaR" in cfg["lineshape"]["shift_model"]
    p = tmp_path / "small.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "ls.csv"
    assert loaded_modules(RUN_CLI, "lineshape", "--config", str(p), "--out", str(out)) == []
    assert json.loads((tmp_path / "ls.csv.fit.json").read_text())["calibration_on_target"] is False


FIT_LINESHAPE = """
import numpy as np
from qrotor.raman import fit_lineshape, lineshape_from_rabi, ring_shifts
om = 3.142
ls = lineshape_from_rabi(om, np.pi / om, ring_shifts("quadratic", 12, 0.0144 * om),
                         np.linspace(-8 * om, 8 * om, 801))
assert fit_lineshape(ls).Omega_R_eff > 0
"""
OSCILLATION_FREQUENCY = """
import numpy as np
from qrotor.fivelevel import oscillation_frequency
t = np.linspace(0.0, 2.0, 200)
omega, amplitude = oscillation_frequency(t, 0.9 * np.sin(1.5 * t) ** 2, 2.8)
assert abs(omega - 3.0) < 1e-9 and abs(amplitude - 0.9) < 1e-9
"""


@pytest.mark.parametrize("body", [FIT_LINESHAPE, OSCILLATION_FREQUENCY],
                         ids=["fit_lineshape", "oscillation_frequency"])
def test_least_squares_fits_load_no_scipy(body):
    assert loaded_modules(body) == []
