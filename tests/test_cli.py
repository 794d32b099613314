import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chbrinkman import Grid2D, RandomPerturbation, State, face_zeros
from chbrinkman.cli import (ConfigError, DIAGNOSTICS_HEADER, main,
                            parse_config, write_csv_diagnostics, write_vtk)


def minimal_config(**stepping):
    cfg = {
        "grid": {"nx": 16, "ny": 16},
        "model": {},
        "stepping": {"dt": 1e-3, "n_steps": 2, "flow_mode": "none",
                     **stepping},
        "output": {"directory": "out"},
    }
    return json.dumps(cfg)


def test_minimal_config_parses_with_defaults():
    cfg = parse_config(minimal_config())
    assert cfg.grid.nx == 16
    assert cfg.spec.params.epsilon == 0.05
    assert cfg.stepping.stabilization == 2.0
    assert cfg.diagnostics_stride == 1
    assert cfg.seed == 0


def test_negative_k_names_assumption():
    raw = json.loads(minimal_config())
    raw["model"]["params"] = {"K": -1.0}
    with pytest.raises(ConfigError, match=r"\(A1\)"):
        parse_config(json.dumps(raw))


def test_unknown_key_reports_location():
    raw = json.loads(minimal_config())
    raw["model"]["viscocity"] = {"variant": "constant"}
    text = json.dumps(raw, indent=2)
    with pytest.raises(ConfigError, match="viscocity") as err:
        parse_config(text)
    assert "line" in str(err.value)


def test_invalid_json_reports_position():
    with pytest.raises(ConfigError, match="line"):
        parse_config('{"grid": {nx: 16}}')


def test_wrong_per_face_length_rejected():
    raw = json.loads(minimal_config())
    raw["model"]["sigma_inf"] = {"variant": "per_face", "values": [1.0, 2.0]}
    with pytest.raises(ConfigError, match="64"):
        parse_config(json.dumps(raw))


def test_bad_dt_rejected():
    with pytest.raises(ConfigError, match="dt"):
        parse_config(minimal_config(dt=-1.0))


def test_bad_flow_mode_rejected():
    with pytest.raises(ConfigError, match="flow_mode"):
        parse_config(minimal_config(flow_mode="stokes"))


def test_expression_phi0_and_sigma_inf():
    raw = json.loads(minimal_config())
    raw["model"]["phi0"] = {"variant": "expression", "expr": "x + 2*y"}
    raw["model"]["sigma_inf"] = {"variant": "expression", "expr": "1.0 + t"}
    cfg = parse_config(json.dumps(raw))
    x = np.array([0.5])
    y = np.array([0.25])
    assert cfg.spec.phi0(x, y)[0] == pytest.approx(1.0)
    assert cfg.spec.sigma_inf(2.0) == pytest.approx(3.0)


def test_seed_override_applies_to_random_phi0():
    raw = json.loads(minimal_config())
    raw["model"]["phi0"] = {"variant": "random", "seed": 1, "amplitude": 0.01}
    raw["seed"] = 9
    cfg = parse_config(json.dumps(raw))
    assert isinstance(cfg.spec.phi0, RandomPerturbation)
    assert cfg.spec.phi0.seed == 9


def test_vtk_writer_zero_state(tmp_path):
    g = Grid2D(4, 4)
    zero = np.zeros((4, 4))
    state = State(0.0, zero, zero, zero, face_zeros(g), zero, 0.0)
    path = tmp_path / "state.vtk"
    write_vtk(state, g, str(path))
    lines = path.read_text().splitlines()
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 5 5 1"
    assert f"CELL_DATA {16}" in lines
    phi_at = lines.index("SCALARS phi double 1")
    values = lines[phi_at + 2:phi_at + 18]
    assert len(values) == 16 and all(float(v) == 0.0 for v in values)
    assert "VECTORS velocity double" in lines


def test_diagnostics_header_exact():
    assert DIAGNOSTICS_HEADER == ("step,t,energy,mass,dissipation,"
                                  "boundary_flux,source_mass,div_residual,"
                                  "energy_residual,mass_residual")


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64), min_size=9, max_size=9))
def test_csv_floats_round_trip(values):
    text_parts = [str(3)] + [repr(float(v)) for v in values]
    parsed = [float(p) for p in text_parts[1:]]
    assert all(a == b or (np.isnan(a) and np.isnan(b))
               for a, b in zip(parsed, values))


def test_csv_written_values_round_trip(tmp_path):
    rows = [(0, 0.0, 1.0 / 3.0, 0.1, 5e-324, 1e300, -0.0, 2.5, 0.0, 7e-12)]
    path = tmp_path / "diag.csv"
    write_csv_diagnostics(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    parts = lines[1].split(",")
    assert int(parts[0]) == 0
    for text, value in zip(parts[1:], rows[0][1:]):
        assert float(text) == value


def fixed_point_config(tmp_path, n_steps=3):
    return {
        "grid": {"nx": 12, "ny": 12},
        "model": {
            "params": {"epsilon": 0.1},
            "sigma_inf": {"variant": "constant", "value": 0.0},
            "phi0": {"variant": "constant", "value": 0.0},
        },
        "stepping": {"dt": 1e-3, "n_steps": n_steps, "flow_mode": "brinkman"},
        "output": {"directory": str(tmp_path / "out")},
    }


def test_run_fixed_point_exit_zero_energy_constant(tmp_path):
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(fixed_point_config(tmp_path)))
    code = main(["run", "--config", str(cfgpath)])
    assert code == 0
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    energies = [float(l.split(",")[2]) for l in lines[1:]]
    assert max(energies) - min(energies) < 1e-12


def test_run_rerun_byte_identical(tmp_path):
    raw = fixed_point_config(tmp_path)
    raw["model"]["phi0"] = {"variant": "random", "seed": 11,
                            "amplitude": 0.01}
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    outputs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert main(["run", "--config", str(cfgpath),
                     "--out", str(out)]) == 0
        outputs.append((out / "diagnostics.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_strict_cfl_violation_exits_with_config_error(tmp_path, capsys):
    raw = {
        "grid": {"nx": 12, "ny": 12},
        "model": {
            "params": {"epsilon": 0.1, "chi": 0.2},
            "viscosity": {"variant": "constant", "eta": 0.1},
            "sources": {"variant": "linear", "b_v": 0.2, "b_phi": 0.1},
            "sigma_inf": {"variant": "constant", "value": 1.0},
            "phi0": {"variant": "expression",
                     "expr": "tanh((0.25-((x-0.5)**2+(y-0.5)**2)**0.5)/0.1)"},
        },
        "stepping": {"dt": 100.0, "n_steps": 2, "flow_mode": "brinkman",
                     "strict_cfl": True},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    code = main(["run", "--config", str(cfgpath)])
    assert code == 2
    assert "0.5*min(dx,dy)" in capsys.readouterr().err


def test_validate_subcommand(tmp_path, capsys):
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(fixed_point_config(tmp_path)))
    assert main(["validate", "--config", str(cfgpath)]) == 0
    assert "(A5)" in capsys.readouterr().out


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 4


def test_solver_failure_reports_stage_and_step(tmp_path, capsys):
    raw = fixed_point_config(tmp_path)
    raw["model"]["phi0"] = {"variant": "random", "seed": 1,
                            "amplitude": 0.01}
    raw["stepping"]["tol_ch"] = 1e-300  # unattainable: forces a CH failure
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfgpath)]) == 3
    err = capsys.readouterr().err
    assert "cahn-hilliard" in err and "step 1" in err


def test_solver_failure_leaves_rows_reached(tmp_path):
    raw = fixed_point_config(tmp_path)
    raw["model"]["phi0"] = {"variant": "random", "seed": 1,
                            "amplitude": 0.01}
    raw["stepping"]["tol_ch"] = 1e-300  # CH fails at step 1
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfgpath)]) == 3
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_config_error_exit_code(tmp_path):
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text("{} garbage")
    assert main(["run", "--config", str(cfgpath)]) == 2


def test_mms_subcommand_writes_csv(tmp_path):
    code = main(["mms", "--problem", "darcy", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "mms_darcy.csv").read_text().splitlines()
    assert lines[0] == "n,dx,pressure_l2_error,velocity_l2_error"
    assert len(lines) == 4


def test_vtk_snapshots_written_at_stride(tmp_path):
    raw = fixed_point_config(tmp_path, n_steps=4)
    raw["output"]["field_stride"] = 2
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfgpath)]) == 0
    names = sorted(os.listdir(tmp_path / "out"))
    assert "state_000000.vtk" in names
    assert "state_000002.vtk" in names and "state_000004.vtk" in names
