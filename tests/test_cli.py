import copy
import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

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
    assert cfg.beam.phase_z0 == pytest.approx(671e-9 / 4)
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
    assert cfg.beam.waist_w0 == pytest.approx(10e-6)
    assert cfg.beam.oam_l == 5
    # depth is ten recoil energies
    from qrotor.units import recoil_energy

    assert cfg.beam.trap_depth_V0 == pytest.approx(
        10 * recoil_energy(cfg.species, cfg.beam.wavelength), rel=1e-12
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
    assert payload["dOmega_freq"] == pytest.approx(2.25e-12, rel=1e-2)
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


@pytest.mark.parametrize("shift", [
    {"model": "quadratic", "scale_s": 0.004},
    {"model": "quadratic", "calibrate_delta_max_over_OmegaR": -0.3},
])
def test_lineshape_negative_jmax_is_config_error(runner, tmp_path, shift):
    # an empty ring stack has no mean: exit 2, not a root-finder traceback
    p = write_config(tmp_path, "ls.json", fast_lineshape_config(**shift))
    res = runner.invoke(cli, ["lineshape", "--config", str(p),
                              "--out", str(tmp_path / "c.csv"), "--jmax", "-1"])
    assert res.exit_code == 2, res.output
    assert "ring stack is empty" in res.output


@pytest.mark.parametrize("tau", [-1.0, 0.0])
def test_config_rejects_non_positive_pulse_duration(runner, tmp_path, tau):
    cfg = fast_lineshape_config()
    cfg["lineshape"]["tau"] = tau
    p = write_config(tmp_path, "ls.json", cfg)
    with pytest.raises(ConfigError, match="tau"):
        parse_config(p)
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

@pytest.mark.parametrize("command, section, key, value", [
    ("budget", "lineshape", "Omega_R", "fast"),
    ("budget", "rotation_scan", "points", 2.5),
    ("budget", "lineshape", "j_max", 2.5),
    ("budget", None, "parallelism", True),
    ("budget", "sensor", "kick_oam_L", True),
    ("budget", "sensor", "ring_count_N", 161.0),
    ("budget", "beam", "unknown_key", 1),
    ("budget", "spectrum", "m_ell_max", -1),
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
    # least_squares (inf/NaN Jacobian) or, at 1e-200, in the calibration's brentq
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
])
def test_bad_field_exits_2_naming_it(runner, tmp_path, command, section, key, value):
    cfg = copy.deepcopy(MINIMAL)
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    p = write_config(tmp_path, "bad.json", cfg)
    with pytest.raises(ConfigError, match=key):
        parse_config(p)
    res = runner.invoke(cli, [command, "--config", str(p), "--out", str(tmp_path / "x.out")])
    assert res.exit_code == 2, res.output
    assert key in res.output


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


@pytest.mark.parametrize("omega_r", [1e-50, 1e-76])
def test_tiny_omega_r_gives_the_same_lineshape_in_its_units(runner, tmp_path, config_dir,
                                                            omega_r):
    # down to the fit's float limit (6.1e-77) the run is the Omega_R = 1 run,
    # rescaled; the saturated calibration pins scale_s to ~5 digits
    assert _fig4_fit_in_units(runner, tmp_path, config_dir, omega_r) == pytest.approx(
        _fig4_fit_in_units(runner, tmp_path, config_dir, 1.0), rel=1e-4)


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


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
_ODD_VALUES = st.one_of(st.sampled_from(["fast", True, False, None, [], {}, [1.0, 2.0]]),
                        st.integers(-5, 200), st.floats(-1e3, 1e3))


def _slots(node):
    """(container, key) of every value nested in `node`."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated_shipped_configs(draw):
    """A shipped config with one value replaced or dropped, or one key or item added."""
    path = draw(st.sampled_from(SHIPPED_CONFIGS))
    cfg = json.loads(path.read_text())
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
    for command in ("budget", "tilt", "rotation-scan", "spectrum"):
        res = runner.invoke(cli, [command, "--config", str(p), "--out", str(tmp / "out")])
        assert res.exit_code in (0, 2, 3, 4), (command, res.output, res.exception)
        assert "Traceback" not in res.output
