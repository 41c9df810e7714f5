import copy
import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import qrotor.cli
import qrotor.raman
from qrotor.cli import cli
from qrotor.config import parse_config
from qrotor.exceptions import ConfigError


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


MINIMAL = {
    "species": {"name": "6Li"},
    "beam": {"wavelength": 671e-9, "waist_w0": 10e-6, "oam_l": 5},
}


def fast_lineshape_config(**shift):
    cfg = dict(MINIMAL)
    cfg["lineshape"] = {
        "Omega_R": 3.142,
        "j_max": 20,
        "kick_oam_L": 25,
        "shift_model": shift or {"model": "quadratic", "scale_s": 0.004},
        "grid_half_width_over_OmegaR": 6.0,
        "grid_points": 501,
    }
    return cfg


# --- config parsing -----------------------------------------------------------

def test_minimal_config_fills_defaults(tmp_path):
    p = write_config(tmp_path, "min.json", MINIMAL)
    cfg = parse_config(p)
    assert cfg.beam.phase_z0 == pytest.approx(671e-9 / 4, abs=0)
    assert cfg.spectrum.n_z_max == 1
    assert cfg.sensor.ring_count_N == 161
    assert cfg.parallelism == 1
    assert cfg.beam.trap_depth_V0 > 0
    assert cfg.lineshape.Omega_R == 3.142


def test_config_rejects_bad_phase(tmp_path):
    bad = dict(MINIMAL)
    bad["beam"] = dict(MINIMAL["beam"], phase_z0=671e-9)  # z0 = lambda
    p = write_config(tmp_path, "bad.json", bad)
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert "phase_z0" in str(err.value)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/qrotor.json")


def test_config_rejects_garbage(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_reference_fig2_config_parses(config_dir):
    cfg = parse_config(config_dir / "fig2_spectrum.json")
    assert cfg.beam.waist_w0 == pytest.approx(10e-6, abs=0)
    assert cfg.beam.oam_l == 5
    # depth is ten recoil energies
    from qrotor.units import recoil_energy

    assert cfg.beam.trap_depth_V0 == pytest.approx(
        10 * recoil_energy(cfg.species, cfg.beam.wavelength), rel=1e-12, abs=0
    )


# --- subcommands ---------------------------------------------------------------

def test_unknown_subcommand(runner):
    res = runner.invoke(cli, ["frobnicate"])
    assert res.exit_code != 0
    assert "Usage" in res.output or "No such command" in res.output


def test_budget_reproduces_headline_uncertainty(runner, tmp_path, config_dir):
    out = tmp_path / "budget.json"
    res = runner.invoke(cli, ["budget", "--config", str(config_dir / "budget.json"),
                              "--out", str(out), "--format", "json"])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["dOmega_freq"] == pytest.approx(2.25e-12, rel=1e-2, abs=0)
    assert payload["inputs"]["ring_count_N"] == 161


def test_budget_config_error_exit_code(runner, tmp_path):
    bad = dict(MINIMAL)
    bad["sensor"] = {"ring_count_N": 10}  # even: invalid
    p = write_config(tmp_path, "bad.json", bad)
    res = runner.invoke(cli, ["budget", "--config", str(p),
                              "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2


def test_rotation_scan_three_lines_at_rest(runner, tmp_path, config_dir):
    out = tmp_path / "scan.csv"
    res = runner.invoke(cli, ["rotation-scan",
                              "--config", str(config_dir / "fig5_rotation_scan.json"),
                              "--out", str(out), "--omega", "0.0"])
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "Omega,m_ell,zeta,frequency"
    assert len(lines) == 7
    freqs = {line.split(",")[3] for line in lines[1:]}
    assert len(freqs) == 3


def test_tilt_subcommand(runner, tmp_path, config_dir):
    out = tmp_path / "tilt.json"
    res = runner.invoke(cli, ["tilt", "--config", str(config_dir / "tilt.json"),
                              "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["tilt_angle_theta_a_rad"] > 0
    assert "effective_Omega_prime" in payload


def test_spectrum_subcommand_csv(runner, tmp_path):
    cfg = dict(MINIMAL)
    cfg["spectrum"] = {"n_z_max": 1, "n_r_max": 1, "m_ell_max": 2}
    p = write_config(tmp_path, "spec.json", cfg)
    out = tmp_path / "spectrum.csv"
    res = runner.invoke(cli, ["spectrum", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n_z,n_r,m_ell,energy_J,energy_kB_nK,degeneracy"
    assert len(lines) == 1 + 2 * 2 * 3
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "0"]
    assert first[3] == "0.00000000e+00"


def test_lineshape_subcommand_writes_curve_and_fit(runner, tmp_path):
    p = write_config(tmp_path, "ls.json", fast_lineshape_config())
    out = tmp_path / "curve.csv"
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_text().startswith("delta_over_OmegaR,probability")
    fit = json.loads((tmp_path / "curve.csv.fit.json").read_text())
    assert 0 < fit["amplitude_A"] <= 1.0
    assert fit["Omega_R_eff"] > 0


def test_outputs_byte_identical_across_runs_and_workers(runner, tmp_path):
    p = write_config(tmp_path, "ls.json", fast_lineshape_config())
    blobs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"curve_{tag}.csv"
        res = runner.invoke(cli, ["lineshape", "--config", str(p),
                                  "--out", str(out), "--parallel", workers])
        assert res.exit_code == 0, res.output
        blobs.append(out.read_bytes() + (tmp_path / f"curve_{tag}.csv.fit.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_spectrum_byte_identical_across_workers(runner, tmp_path):
    cfg = dict(MINIMAL)
    cfg["spectrum"] = {"n_z_max": 1, "n_r_max": 1, "m_ell_max": 3}
    p = write_config(tmp_path, "spec.json", cfg)
    blobs = []
    for tag, workers in (("a", "1"), ("b", "3")):
        out = tmp_path / f"spec_{tag}.csv"
        res = runner.invoke(cli, ["spectrum", "--config", str(p), "--out", str(out),
                                  "--parallel", workers])
        assert res.exit_code == 0, res.output
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_parallel_below_one_exits_2_naming_it(runner, tmp_path, workers):
    # the config's parallelism is refused below 1 too
    p = write_config(tmp_path, "ls.json", fast_lineshape_config())
    out = tmp_path / "curve.csv"
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(out),
                              "--parallel", workers])
    assert res.exit_code == 2
    assert "--parallel" in res.output
    assert not out.exists()


@pytest.mark.parametrize("shift", [
    {"model": "quadratic", "scale_s": 0.004},
    {"model": "quadratic", "calibrate_delta_max_over_OmegaR": -0.3},
])
def test_lineshape_negative_jmax_is_config_error(runner, tmp_path, shift):
    # a negative ring-stack half-size is a usage error naming the option, on a
    # fixed scale as on a calibrated one, before any config is read
    p = write_config(tmp_path, "ls.json", fast_lineshape_config(**shift))
    out = tmp_path / "c.csv"
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(out),
                              "--jmax", "-1"])
    assert res.exit_code == 2, res.output
    assert "--jmax" in res.output
    assert not out.exists()


@pytest.mark.parametrize("tau", [-1.0, 0.0])
def test_config_rejects_non_positive_pulse_duration(runner, tmp_path, tau):
    cfg = fast_lineshape_config()
    cfg["lineshape"]["tau"] = tau
    p = write_config(tmp_path, "ls.json", cfg)
    with pytest.raises(ConfigError, match="tau"):
        parse_config(p).lineshape
    res = runner.invoke(cli, ["lineshape", "--config", str(p),
                              "--out", str(tmp_path / "c.csv")])
    assert res.exit_code == 2
    assert not (tmp_path / "c.csv").exists()


def test_missing_output_path_is_config_error(runner, tmp_path):
    p = write_config(tmp_path, "min.json", MINIMAL)
    res = runner.invoke(cli, ["budget", "--config", str(p)])
    assert res.exit_code == 2
    assert "output path" in res.output


def test_spectrum_json_format(runner, tmp_path):
    cfg = dict(MINIMAL)
    cfg["spectrum"] = {"n_z_max": 0, "n_r_max": 1, "m_ell_max": 1}
    p = write_config(tmp_path, "spec.json", cfg)
    out = tmp_path / "spectrum.json"
    res = runner.invoke(cli, ["spectrum", "--config", str(p), "--out", str(out),
                              "--format", "json"])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["inequalities_ok"] is True
    assert len(payload["levels"]) == 1 * 2 * 2
    assert payload["gaps_J"]["eps_z"] > payload["gaps_J"]["eps_r"]


def test_budget_csv_format(runner, tmp_path, config_dir):
    out = tmp_path / "budget.csv"
    res = runner.invoke(cli, ["budget", "--config", str(config_dir / "budget.json"),
                              "--out", str(out), "--format", "csv"])
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "quantity,value"
    assert any(line.startswith("dOmega_freq,") for line in lines)


def test_lineshape_json_format(runner, tmp_path):
    p = write_config(tmp_path, "ls.json", fast_lineshape_config())
    out = tmp_path / "ls.json.out"
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(out),
                              "--format", "json"])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert set(payload) == {"curve", "fit"}
    assert {"amplitude_A", "delta_0", "Omega_R_eff", "rms_residual"} <= set(payload["fit"])


def test_lineshape_physical_shift_model(runner, tmp_path):
    cfg = fast_lineshape_config(model="physical")
    cfg["beam"] = dict(cfg["beam"], z_eff=5e-4)
    p = write_config(tmp_path, "phys.json", cfg)
    out = tmp_path / "phys.csv"
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    fit = json.loads((tmp_path / "phys.csv.fit.json").read_text())
    assert fit["shift_model"] == "physical"
    # divergence over the stack broadens and red-shifts the peak
    assert fit["peak"]["delta_max_over_OmegaR"] < 0.0


# --- the config and exit-code contract -------------------------------------------

# A shift-model key that the chosen model would not read, and the field named.
# These runs used to ignore the key and exit 0: a physical stack with a
# calibration target wrote its uncalibrated peak at -0.524 Omega_R.
UNREAD_SHIFT_KEYS = [
    ({"model": "none", "scale_s": 0.004}, "scale_s"),
    ({"model": "physical", "scale_s": 0.004}, "scale_s"),
    ({"model": "none", "calibrate_delta_max_over_OmegaR": -0.4},
     "calibrate_delta_max_over_OmegaR"),
    ({"model": "physical", "calibrate_delta_max_over_OmegaR": -0.4},
     "calibrate_delta_max_over_OmegaR"),
    ({"model": "quadratic", "scale_s": 0.004, "calibrate_delta_max_over_OmegaR": -0.4},
     "scale_s"),
]
_UNREAD_IDS = ["-".join([shift["model"], *(k for k in shift if k != "model")])
               for shift, _ in UNREAD_SHIFT_KEYS]


@pytest.mark.parametrize("command, section, key, value", [
    ("budget", "lineshape", "Omega_R", "fast"),
    ("budget", "rotation_scan", "points", 2.5),
    ("budget", "lineshape", "j_max", 2.5),
    ("budget", None, "parallelism", True),
    ("budget", "sensor", "kick_oam_L", True),
    ("budget", "sensor", "ring_count_N", 161.0),
    ("budget", "beam", "unknown_key", 1),
    # a shift-model key is checked in every run, like every other key
    ("budget", "lineshape", "shift_model", {"modle": "none"}),
    ("spectrum", "spectrum", "m_ell_max", -1),
    # values whose derived numbers overflow: each crashed with a traceback before
    ("budget", "beam", "wavelength", 1e-244),
    ("lineshape", "lineshape", "Omega_R", 1e308),
    ("lineshape", "lineshape", "tau", 1e308),
    ("lineshape", "lineshape", "grid_half_width_over_OmegaR", 1e308),
    # a peak scan beyond 2^20 points: 1e6 asked for ~3e8 points (a 2.4 GB
    # array), 1e200 crashed in np.linspace
    ("lineshape", "lineshape", "tau", 1e6),
    ("lineshape", "lineshape", "tau", 1e200),
    # the fit's (Omega_eff^2 + x^2)^2 leaves the normal floats: each crashed in
    # the fit (inf/NaN Jacobian) or, at 1e-200, in the calibration's brentq
    ("lineshape", "lineshape", "Omega_R", 1e-90),
    ("lineshape", "lineshape", "Omega_R", 1e-100),
    ("lineshape", "lineshape", "Omega_R", 1e-160),
    ("lineshape", "lineshape", "Omega_R", 1e-200),
    ("lineshape", "lineshape", "Omega_R", 1e102),
    # the curve's grid: -5 crashed in np.linspace, 1e8 points got the process
    # killed; the reader refuses it before anything is allocated
    ("lineshape", "lineshape", "grid_points", -5),
    ("lineshape", "lineshape", "grid_points", 10),
    ("lineshape", "lineshape", "grid_points", 100000000),
    # the quartic shift profile is gone: naming it is an unknown model
    ("lineshape", "lineshape", "shift_model", {"model": "quartic"}),
    # the beam power only normalised the LG mode amplitude, which is gone
    ("budget", "beam", "power_P0", 1.0),
    *[pytest.param("lineshape", "lineshape", "shift_model", shift, id=f"shift_model-{name}")
      for (shift, _), name in zip(UNREAD_SHIFT_KEYS, _UNREAD_IDS)],
    # keys that no config set: the depth is given in recoils, a scan by its range
    pytest.param("budget", "beam", "trap_depth_J", 1e-30, id="beam-trap_depth_J"),
    pytest.param("rotation-scan", "rotation_scan", "Omega_values", [0.0, 1.0],
                 id="rotation_scan-Omega_values"),
    # the +/- 10 b_z axial sampling box holds n_z <= 23 whole; a huge n_z_max would
    # build its level table until memory ran out
    pytest.param("spectrum", "spectrum", "n_z_max", 24, id="spectrum-n_z_max-24"),
    pytest.param("spectrum", "spectrum", "n_z_max", 10**9, id="spectrum-n_z_max-1e9"),
    # the 42-point radial basis resolves 38 states; these exited 2 with a
    # message about the basis that did not name the field
    pytest.param("spectrum", "spectrum", "n_r_max", 38, id="spectrum-n_r_max-38"),
    pytest.param("spectrum", "spectrum", "n_r_max", 10**9, id="spectrum-n_r_max-1e9"),
])
def test_bad_field_exits_2_naming_it(runner, tmp_path, command, section, key, value):
    cfg = copy.deepcopy(MINIMAL)
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    p = write_config(tmp_path, "bad.json", cfg)
    with pytest.raises(ConfigError, match=key):
        run_config = parse_config(p)
        if section:  # an optional section is checked when it is read
            getattr(run_config, section)
    res = runner.invoke(cli, [command, "--config", str(p), "--out", str(tmp_path / "x.out")])
    assert res.exit_code == 2, res.output
    assert key in res.output


REFERENCE = Path(__file__).resolve().parent / "reference"
# a shipped config, its subcommand and artifact; a section that subcommand
# does not read, broken; and the subcommand that reads it
UNREAD_SECTIONS = [
    ("spectrum", "fig2_spectrum.json", "fig2_spectrum.csv", "sensor", "Omega_R", -1, "budget"),
    ("budget", "budget.json", "budget.json", "lineshape", "tau", 1e6, "lineshape"),
    ("budget", "budget.json", "budget.json", "spectrum", "m_ell_max", -1, "spectrum"),
    ("tilt", "tilt.json", "tilt.json", "spectrum", "m_ell_max", -1, "spectrum"),
    ("tilt", "tilt.json", "tilt.json", "rotation_scan", "points", 1, "rotation-scan"),
    ("rotation-scan", "fig5_rotation_scan.json", "fig5_rotation_scan.csv", "lineshape",
     "Omega_R", 1e-200, "lineshape"),
    ("lineshape", "fig4_lineshape.json", "fig4_lineshape.csv", "sensor", "ring_count_N", 2,
     "budget"),
]


@pytest.mark.parametrize("command, config, artifact, section, key, value, reader",
                         UNREAD_SECTIONS, ids=[f"{c[0]}-{c[3]}-{c[4]}-{c[5]}"
                                               for c in UNREAD_SECTIONS])
def test_unread_section_does_not_fail_the_run(runner, tmp_path, config_dir, command, config,
                                              artifact, section, key, value, reader):
    cfg = json.loads((config_dir / config).read_text())
    cfg.setdefault(section, {})[key] = value
    p = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    out.mkdir()
    res = runner.invoke(cli, [command, "--config", str(p), "--out", str(out / artifact)])
    assert res.exit_code == 0, res.output
    for written in out.iterdir():   # the lineshape CSV comes with its .fit.json sidecar
        assert written.read_bytes() == (REFERENCE / written.name).read_bytes(), written.name
    res = runner.invoke(cli, [reader, "--config", str(p), "--out", str(tmp_path / "x.out")])
    assert res.exit_code == 2, res.output
    assert key in res.output
    assert not (tmp_path / "x.out").exists()


OPTIONAL_SECTIONS = ("spectrum", "lineshape", "sensor", "rotation_scan", "tilt")


SECTIONS_READ = [   # each subcommand, its shipped config and the sections it reads
    ("spectrum", "fig2_spectrum.json", {"spectrum"}),
    ("lineshape", "fig4_lineshape.json", {"lineshape"}),
    ("rotation-scan", "fig5_rotation_scan.json", {"rotation_scan"}),
    ("budget", "budget.json", {"sensor"}),
    ("tilt", "tilt.json", {"tilt"}),
]


@pytest.mark.parametrize("command, config, built", SECTIONS_READ,
                         ids=[c[0] for c in SECTIONS_READ])
def test_each_subcommand_builds_only_the_sections_it_reads(runner, tmp_path, config_dir,
                                                          monkeypatch, command, config, built):
    parsed = []

    def keep(path):
        parsed.append(parse_config(path))
        return parsed[-1]

    monkeypatch.setattr(qrotor.cli, "parse_config", keep)
    res = runner.invoke(cli, [command, "--config", str(config_dir / config),
                              "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    [run_config] = parsed
    # a cached_property keeps what it built in the instance's __dict__
    assert {name for name in OPTIONAL_SECTIONS if name in vars(run_config)} == built


@pytest.mark.parametrize("shift, field", UNREAD_SHIFT_KEYS, ids=_UNREAD_IDS)
def test_shift_model_key_the_model_does_not_read_exits_2_naming_it(runner, tmp_path, shift,
                                                                   field):
    p = write_config(tmp_path, "ls.json", fast_lineshape_config(**shift))
    out = tmp_path / "c.csv"
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"lineshape.shift_model.{field}" in res.output
    assert not out.exists()


def test_custom_species_label_exits_2_naming_it(runner, tmp_path):
    cfg = copy.deepcopy(MINIMAL)
    cfg["species"] = {"mass_amu": 6.0, "g_factor": 1.0, "hyperfine_splitting": 1e9,
                      "F_ground": 0.5, "label": "6Li"}
    p = write_config(tmp_path, "label.json", cfg)
    out = tmp_path / "b.json"
    res = runner.invoke(cli, ["budget", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "unknown field 'species.label'" in res.output
    assert not out.exists()


def test_lineshape_fit_failure_exits_3(runner, tmp_path, monkeypatch):
    import dataclasses

    import qrotor._varpro

    solve = qrotor._varpro.varpro
    monkeypatch.setattr(qrotor._varpro, "varpro",
                        lambda *a, **k: dataclasses.replace(solve(*a, **k), success=False))
    p = write_config(tmp_path, "ls.json", fast_lineshape_config())
    out = tmp_path / "c.csv"
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "lineshape fit did not converge" in res.output
    assert not out.exists()


def test_runaway_m_ell_max_exits_3_naming_m_ell_in_bounded_memory(runner, tmp_path,
                                                                   config_dir):
    # the radial solve stacks m_ell in fixed blocks and checks each block
    # before the next: one stack of all 10**6 + 1 m_ell would ask for ~46 GB
    import time
    import tracemalloc

    cfg = json.loads((config_dir / "fig2_spectrum.json").read_text())
    cfg["spectrum"]["m_ell_max"] = 10**6
    p = write_config(tmp_path, "runaway.json", cfg)
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        res = runner.invoke(cli, ["spectrum", "--config", str(p), "--out", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 3, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "sinc-DVR eigensolve did not converge at m_ell = " in res.output
    assert "drift_over_C" in res.output and "limit 1e-03" in res.output
    assert elapsed < 10.0
    assert peak < 4 * 2**20
    assert not out.exists()


def _fig4_fit_in_units(runner, tmp_path, config_dir, omega_r):
    cfg = json.loads((config_dir / "fig4_lineshape.json").read_text())
    cfg["lineshape"].update(Omega_R=omega_r, j_max=12)
    p = write_config(tmp_path, f"fig4-{omega_r:g}.json", cfg)
    out = tmp_path / f"fig4-{omega_r:g}.csv"
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    fit = json.loads(Path(f"{out}.fit.json").read_text())
    return (fit["amplitude_A"], fit["delta_0_over_OmegaR"], fit["Omega_R_eff_over_OmegaR"],
            fit["peak"]["delta_max_over_OmegaR"])


@pytest.mark.parametrize("key, value, code", [
    # each crashed in the calibration's brentq: f(a) and f(b) had the same sign
    ("calibrate_delta_max_over_OmegaR", -1e-300, 2),   # passed at s = 1e-9 s_max
    ("calibrate_delta_max_over_OmegaR", 0.3, 2),      # not negative: no field named
    ("tau", 1e-300, 3),                                # P0 underflows: no peak
])
def test_calibration_without_a_sign_change_exits_naming_the_field(runner, tmp_path, config_dir,
                                                                  key, value, code):
    cfg = json.loads((config_dir / "fig4_lineshape.json").read_text())
    cfg["lineshape"]["j_max"] = 12
    section = cfg["lineshape"]["shift_model"] if key.startswith("calibrate") else cfg["lineshape"]
    section[key] = value
    p = write_config(tmp_path, "bracket.json", cfg)
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(tmp_path / "b.csv")])
    assert res.exit_code == code, res.output
    assert key in res.output


def test_calibration_that_fails_its_certifying_search_exits_3(runner, tmp_path, config_dir,
                                                               monkeypatch):
    # the whole peak search at the final scale certifies the Newton peak; one
    # that lands elsewhere is a convergence failure, and nothing is written
    cfg = json.loads((config_dir / "fig4_lineshape.json").read_text())
    cfg["lineshape"]["j_max"] = 12
    p = write_config(tmp_path, "fig4.json", cfg)
    job = parse_config(p).lineshape
    omega_r = job.Omega_R
    cal = qrotor.raman.calibrate_quadratic_scale(
        omega_r, job.tau, 12, job.calibrate_delta_max_over_OmegaR * omega_r)
    final = qrotor.raman.ring_shifts("quadratic", 12, cal.scale_s)
    search = qrotor.raman.lineshape_peak

    def displaced(omega_r, tau, shifts):
        d_max, p_max = search(omega_r, tau, shifts)
        return d_max + (1e-3 * omega_r if np.array_equal(shifts, final) else 0.0), p_max

    monkeypatch.setattr(qrotor.raman, "lineshape_peak", displaced)
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(tmp_path / "l.csv")])
    assert res.exit_code == 3, res.output
    assert "quadratic-scale calibration did not converge" in res.output
    assert sorted(q.name for q in tmp_path.iterdir()) == ["fig4.json"]


@pytest.mark.parametrize("j_max, extra", [(0, ()), (80, ("--jmax", "0"))],
                         ids=["config", "flag"])
def test_one_ring_calibration_exits_2_naming_the_field(runner, tmp_path, config_dir,
                                                        j_max, extra):
    # one ring's peak does not move with the scale: there is nothing to calibrate
    cfg = json.loads((config_dir / "fig4_lineshape.json").read_text())
    cfg["lineshape"]["j_max"] = j_max
    p = write_config(tmp_path, "one_ring.json", cfg)
    out = tmp_path / "l.csv"
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(out), *extra])
    assert res.exit_code == 2, res.output
    assert "lineshape.shift_model.calibrate_delta_max_over_OmegaR" in res.output
    assert "does not move with s" in res.output
    assert not out.exists()


@pytest.mark.parametrize("omega_r", [1e-50, 1e-76])
def test_tiny_omega_r_gives_the_same_lineshape_in_its_units(runner, tmp_path, config_dir,
                                                            omega_r):
    # down to the fit's float limit (6.1e-77) the run is the Omega_R = 1 run,
    # rescaled; the saturated calibration pins scale_s to ~1e-8 relative
    assert _fig4_fit_in_units(runner, tmp_path, config_dir, omega_r) == pytest.approx(
        _fig4_fit_in_units(runner, tmp_path, config_dir, 1.0), rel=1e-4, abs=0)


def test_lineshape_pair_is_written_together_or_not_at_all(runner, tmp_path, config_dir):
    (tmp_path / "ls.csv.fit.json").mkdir()   # the sidecar cannot be written
    cfg = json.loads((config_dir / "fig4_lineshape.json").read_text())
    cfg["lineshape"].update(j_max=12)
    p = write_config(tmp_path, "fig4.json", cfg)
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(tmp_path / "ls.csv")])
    assert res.exit_code == 2, res.output
    assert "cannot write the output" in res.output
    # no CSV, and no staged file left behind
    assert sorted(q.name for q in tmp_path.iterdir()) == ["fig4.json", "ls.csv.fit.json"]


@pytest.mark.parametrize("command, config, suffixes", [
    ("lineshape", "fig4_lineshape.json", ("", ".fit.json")),
    ("budget", "budget.json", ("",)),
], ids=["lineshape", "budget"])
def test_each_artifact_is_staged_once(runner, tmp_path, config_dir, monkeypatch,
                                      command, config, suffixes):
    cfg = json.loads((config_dir / config).read_text())
    if command == "lineshape":
        cfg["lineshape"].update(j_max=12)
    p = write_config(tmp_path, config, cfg)
    moves, move = [], os.replace

    def spy(src, dst):
        moves.append((src, dst))
        move(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    out = tmp_path / "artifact"
    res = runner.invoke(cli, [command, "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    paths = [f"{out}{suffix}" for suffix in suffixes]
    assert moves == [(f"{path}.{os.getpid()}.tmp", path) for path in paths]


def test_failed_write_keeps_the_old_artifact(runner, tmp_path, config_dir, monkeypatch):
    import qrotor.output

    out = tmp_path / "budget.json"
    out.write_text("old\n")

    def refuse(src, dst):
        raise PermissionError(13, "refused", str(dst))

    monkeypatch.setattr(qrotor.output.os, "replace", refuse)
    res = runner.invoke(cli, ["budget", "--config", str(config_dir / "budget.json"),
                              "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert out.read_text() == "old\n"
    assert [q.name for q in tmp_path.iterdir()] == ["budget.json"]


SHIPPED_BY_COMMAND = {"spectrum": "fig2_spectrum.json", "lineshape": "fig4_lineshape.json",
                      "rotation-scan": "fig5_rotation_scan.json", "budget": "budget.json",
                      "tilt": "tilt.json"}


@pytest.mark.parametrize("key, value", [("radial_p", 1), ("oam_l", 0)], ids=["radial_p", "oam_l"])
@pytest.mark.parametrize("command", sorted(SHIPPED_BY_COMMAND))
def test_unsupported_beam_mode_exits_2(runner, tmp_path, config_dir, command, key, value):
    # the trap is the p = 0, l != 0 ring mode, whichever subcommand reads it
    cfg = json.loads((config_dir / SHIPPED_BY_COMMAND[command]).read_text())
    cfg["beam"][key] = value
    if command == "lineshape":   # physical shifts read the ring radii
        cfg["lineshape"].update(j_max=5, shift_model={"model": "physical"})
    if command == "budget":      # omega_0 then derives from the ring radius
        del cfg["sensor"]["omega_0"]
    p = write_config(tmp_path, "mode.json", cfg)
    out = tmp_path / "x.out"
    res = runner.invoke(cli, [command, "--config", str(p), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"beam.{key}" in res.output
    assert not out.exists()


@pytest.mark.parametrize("waist", [1e300, 1e-300])
@pytest.mark.parametrize("command", ["spectrum", "budget", "tilt"])
def test_waist_out_of_the_floats_exits_2(runner, tmp_path, config_dir, command, waist):
    # 1e300 crashed with OverflowError in the Rayleigh range; 1e-300 exited 2
    # naming a field derived from the waist (sensor.omega_0, rotation_scan)
    cfg = json.loads((config_dir / SHIPPED_BY_COMMAND[command]).read_text())
    cfg["beam"]["waist_w0"] = waist
    p = write_config(tmp_path, "waist.json", cfg)
    out = tmp_path / "x.out"
    res = runner.invoke(cli, [command, "--config", str(p), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "beam.waist_w0 is out of range" in res.output
    assert not out.exists()


def test_unwritable_output_exits_2(runner, tmp_path, config_dir):
    out = tmp_path / "missing" / "budget.json"
    res = runner.invoke(cli, ["budget", "--config", str(config_dir / "budget.json"),
                              "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "cannot write the output" in res.output


def test_spectrum_grid_points_key_exits_2(runner, tmp_path, config_dir):
    # the finite-difference grid size is gone; a stale value must not size the DVR basis
    cfg = json.loads((config_dir / "fig2_spectrum.json").read_text())
    cfg["spectrum"]["grid_points"] = 3001
    p = write_config(tmp_path, "fig2.json", cfg)
    out = tmp_path / "s.csv"
    res = runner.invoke(cli, ["spectrum", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "unknown field 'spectrum.grid_points'" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command, config, section, key, value", [
    ("budget", "budget.json", "sensor", "Omega_R", float("nan")),
    ("budget", "budget.json", "sensor", "photon_count_pump", float("inf")),
    ("lineshape", "fig4_lineshape.json", "lineshape", "Omega_R", float("nan")),
    ("lineshape", "fig4_lineshape.json", "lineshape", "tau", float("-inf")),
])
def test_non_finite_number_exits_2_naming_it(runner, tmp_path, config_dir,
                                             command, config, section, key, value):
    cfg = json.loads((config_dir / config).read_text())
    cfg.setdefault(section, {})[key] = value
    p = write_config(tmp_path, "bad.json", cfg)   # json writes NaN / Infinity
    out = tmp_path / "x.out"
    res = runner.invoke(cli, [command, "--config", str(p), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"'{section}.{key}' must be a finite number" in res.output
    assert not out.exists()


def test_lineshape_zero_kick_exits_2(runner, tmp_path, config_dir):
    cfg = json.loads((config_dir / "fig4_lineshape.json").read_text())
    cfg["lineshape"].update(kick_oam_L=0, j_max=10,
                            shift_model={"model": "quadratic", "scale_s": 0.004})
    p = write_config(tmp_path, "kick0.json", cfg)
    res = runner.invoke(cli, ["lineshape", "--config", str(p), "--out", str(tmp_path / "l.csv")])
    assert res.exit_code == 2, res.output
    assert "lineshape.kick_oam_L" in res.output


def test_rotation_scan_zero_kick_exits_2(runner, tmp_path, config_dir):
    cfg = json.loads((config_dir / "fig5_rotation_scan.json").read_text())
    cfg.setdefault("rotation_scan", {})["kick_oam_L"] = 0
    p = write_config(tmp_path, "kick0.json", cfg)
    res = runner.invoke(cli, ["rotation-scan", "--config", str(p),
                              "--out", str(tmp_path / "r.csv")])
    assert res.exit_code == 2, res.output
    assert "rotation_scan.kick_oam_L" in res.output


@pytest.mark.parametrize("update, drop, message", [
    ({"points": 1}, None, "rotation_scan.points must be >= 2, got 1"),
    ({"Omega_max": -42.26}, None,
     "rotation_scan.Omega_max = -42.26 must exceed rotation_scan.Omega_min = -42.26"),
    # an unset bound is compared at its default, +/- 2 omega_0 = +/- 42.26
    ({"Omega_min": 50.0}, "Omega_max", "rotation_scan.Omega_max = 42.26 (default 2 omega_0) "
                                       "must exceed rotation_scan.Omega_min = 50"),
], ids=["points", "Omega_max", "Omega_max-default"])
def test_rotation_scan_range_exits_2_naming_the_field(runner, tmp_path, config_dir, update,
                                                      drop, message):
    cfg = json.loads((config_dir / "fig5_rotation_scan.json").read_text())
    cfg["rotation_scan"].update(update)
    cfg["rotation_scan"].pop(drop, None)
    p = write_config(tmp_path, "range.json", cfg)
    res = runner.invoke(cli, ["rotation-scan", "--config", str(p),
                              "--out", str(tmp_path / "r.csv")])
    assert res.exit_code == 2, res.output
    assert message in res.output


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
_ODD_VALUES = st.one_of(st.sampled_from(["fast", True, False, None, [], {}, [1.0, 2.0]]),
                        st.integers(-5, 200), st.floats(-1e3, 1e3))


def _slots(node):
    """(container, key) of every value nested in `node`."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _cheap_shipped_config(path):
    """A shipped config; the lineshape one with 12 rings and 201 grid points."""
    cfg = json.loads(path.read_text())
    if "lineshape" in cfg:
        cfg["lineshape"].update(j_max=12, grid_points=201)
    return cfg


@st.composite
def mutated_shipped_configs(draw):
    """A shipped config with one value replaced or dropped, or one key or item added."""
    cfg = _cheap_shipped_config(draw(st.sampled_from(SHIPPED_CONFIGS)))
    container, key = draw(st.sampled_from(list(_slots(cfg))))
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        container[key] = draw(_ODD_VALUES)
    elif action == "drop":
        del container[key]
    elif isinstance(container, dict):
        container["unknown_key"] = draw(_ODD_VALUES)
    else:
        container.append(draw(_ODD_VALUES))
    return cfg


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cfg=mutated_shipped_configs())
def test_any_config_mutation_is_an_artifact_or_a_documented_exit(tmp_path_factory, cfg):
    tmp = tmp_path_factory.mktemp("mutated")
    p = write_config(tmp, "cfg.json", cfg)
    try:
        parse_config(p)
    except ConfigError:
        pass
    runner = CliRunner()
    # the lineshape config (calibrated, fitted) also runs `lineshape` while it
    # keeps its lineshape section
    commands = ("budget", "tilt", "rotation-scan", "spectrum") + (
        ("lineshape",) if "lineshape" in cfg else ())
    for command in commands:
        res = runner.invoke(cli, [command, "--config", str(p), "--out", str(tmp / "out")])
        assert res.exit_code in (0, 2, 3), (command, res.output, res.exception)
        assert "Traceback" not in res.output
