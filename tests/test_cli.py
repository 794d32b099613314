import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chbrinkman import (Grid2D, RandomPerturbation, SourceSpec, State,
                        SweepResult, blended_mobility, blended_viscosity,
                        constant_mobility, constant_viscosity,
                        default_quartic_potential, face_zeros, zero_sources)
from chbrinkman import cli
from chbrinkman.cli import (ConfigError, DIAGNOSTICS_HEADER, main,
                            parse_config, write_csv_diagnostics, write_vtk)

S = np.linspace(-3.0, 3.0, 13)


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
    # the default root seed 0 leaves a random phi0 its own seed
    raw = json.loads(minimal_config())
    raw["model"]["phi0"] = {"variant": "random", "seed": 5}
    assert parse_config(json.dumps(raw)).spec.phi0.seed == 5


def test_negative_k_names_assumption():
    raw = json.loads(minimal_config())
    raw["model"]["params"] = {"K": -1.0}
    with pytest.raises(ConfigError, match=r"\(A1\)"):
        parse_config(json.dumps(raw))


def assert_same(got, want, *args):
    """Equal dataclass fields, with callables compared by their values at
    ``args`` (the sample points S by default)."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), *args)
    elif callable(want):
        args = args or (S,)
        np.testing.assert_allclose(got(*args), want(*args),
                                   rtol=1e-14, atol=1e-15)
    else:
        np.testing.assert_array_equal(got, want)


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Configuration", 1)[1]
    block = block.split("```jsonc\n", 1)[1].split("```", 1)[0]
    documented = parse_config(re.sub(r"//.*", "", block))
    assert_same(documented, parse_config('{"grid": {"nx": 64, "ny": 64}}'))


def ramp(c):
    """The "linear" sources coefficient c*(1+tanh(s))."""
    return lambda s: c * (1.0 + np.tanh(s))


VARIANT_CASES = {
    "potential-quartic": ("potential", {"variant": "quartic"},
                          default_quartic_potential()),
    "viscosity-constant": ("viscosity", {"eta": 0.3},
                           constant_viscosity(0.3, 0.0)),
    "viscosity-blend": ("viscosity", {"variant": "blend", "eta_a": 0.3,
                                      "eta_b": 2.0, "lam_b": 0.4},
                        blended_viscosity(0.3, 2.0, 0.0, 0.4)),
    "mobility-constant": ("mobility", {}, constant_mobility(1.0)),
    "mobility-blend": ("mobility", {"variant": "blend", "m_a": 0.7,
                                    "m_b": 1.3}, blended_mobility(0.7, 1.3)),
    "sources-zero": ("sources", {"h": 0.4}, zero_sources(0.4)),
    "sources-linear": ("sources", {"variant": "linear", "b_v": 0.2,
                                   "f_phi": -0.1, "h": 2.0},
                       SourceSpec(b_v=ramp(0.2), f_v=ramp(0.0),
                                  b_phi=ramp(0.0), f_phi=ramp(-0.1),
                                  h=lambda s: 2.0 + 0.0 * s)),
    "sigma_inf-constant": ("sigma_inf", {"value": 0.8}, 0.8),
    "sigma_inf-per_face": ("sigma_inf", {"variant": "per_face",
                                         "values": list(range(64))},
                           np.arange(64.0)),
    "sigma_inf-expression": ("sigma_inf", {"variant": "expression",
                                           "expr": "1.0 + 0.1*t"},
                             lambda t: 1.0 + 0.1 * t),
    "phi0-constant": ("phi0", {}, 0.0),
    "phi0-expression": ("phi0", {"variant": "expression", "expr": "x + 2*y"},
                        lambda x, y: x + 2 * y),
    "phi0-random": ("phi0", {"variant": "random", "amplitude": 0.02},
                    RandomPerturbation(seed=0, amplitude=0.02, base=0.0,
                                       modes=2)),
}


@pytest.mark.parametrize("case", VARIANT_CASES)
def test_variant_builds_the_model_object(case):
    section, entry, want = VARIANT_CASES[case]
    raw = json.loads(minimal_config())
    raw["model"][section] = entry
    got = getattr(parse_config(json.dumps(raw)).spec, section)
    assert_same(got, want, *((S, S[::-1]) if case == "phi0-expression"
                             else ()))


ASSUMPTION_CASES = [
    ("params", {"K": 0.0}, "(A1)"),
    ("params", {"nu": -1.0}, "(A1)"),
    ("params", {"epsilon": 0.0}, "(A1)"),
    ("params", {"chi": -0.1}, "(A1)"),
    ("viscosity", {"eta": 0.0}, "(A3)"),
    ("viscosity", {"variant": "blend", "eta_a": -1.0, "eta_b": 1.0}, "(A3)"),
    ("viscosity", {"lam": -0.1}, "(A3)"),
    ("mobility", {"m": 0.0}, "(A2)"),
    ("mobility", {"variant": "blend", "m_a": -1.0, "m_b": 1.0}, "(A2)"),
    ("sources", {"h": -1.0}, "(A4)"),
    ("sources", {"variant": "linear", "h": -1.0}, "(A4)"),
]


@pytest.mark.parametrize("section,entry,tag", ASSUMPTION_CASES)
def test_assumption_violation_names_its_tag(section, entry, tag):
    raw = json.loads(minimal_config())
    raw["model"][section] = entry
    with pytest.raises(ConfigError, match=re.escape(tag)):
        parse_config(json.dumps(raw))


def test_t_final_is_an_unknown_key():
    raw = json.loads(minimal_config())
    raw["model"]["params"] = {"t_final": 1.0}
    with pytest.raises(ConfigError,
                       match=r"unknown key 'config\.model\.params\.t_final'"):
        parse_config(json.dumps(raw))


def test_unknown_key_reports_location():
    raw = json.loads(minimal_config())
    raw["model"]["viscocity"] = {"variant": "constant"}
    text = json.dumps(raw, indent=2)
    with pytest.raises(ConfigError, match="viscocity") as err:
        parse_config(text)
    assert "line" in str(err.value)


@pytest.mark.parametrize("text, key, line", [
    # the same key earlier in another section
    ('{"grid": {"nx": 16, "ny": 16},\n"model": {\n'
     '"sigma_inf": {"variant": "constant", "value": 1.0},\n'
     '"phi0": {"variant": "constant",\n"value": "x"}}}',
     "config.model.phi0.value", 5),
    ('{"grid": {"nx": 16, "ny": 16},\n"model": {"params": {\n'
     '"K": 10.0}},\n"output": {"directory": "out",\n"K": 1}}',
     "config.output.K", 5),
])
def test_config_error_points_at_the_key_path(text, key, line):
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        parse_config(text)
    assert f"(line {line}, column 1)" in str(err.value)


def test_invalid_json_reports_position():
    with pytest.raises(ConfigError, match="line"):
        parse_config('{"grid": {nx: 16}}')


def test_wrong_per_face_length_rejected():
    raw = json.loads(minimal_config())
    raw["model"]["sigma_inf"] = {"variant": "per_face", "values": [1.0, 2.0]}
    with pytest.raises(ConfigError, match="64"):
        parse_config(json.dumps(raw))


@pytest.mark.parametrize("bad", [math.nan, "1.5", True, 10**400])
def test_per_face_values_must_be_finite_numbers(bad):
    raw = json.loads(minimal_config())
    raw["model"]["sigma_inf"] = {"variant": "per_face",
                                 "values": [1.0] * 63 + [bad]}
    with pytest.raises(ConfigError, match="64 finite numbers"):
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
    state = State(0.0, zero, zero, zero, face_zeros(g), zero, 0.0, 0.0)
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
    # row 0 describes the initial level, whose flow solve already moves:
    # its dissipation is that of the step formulas, with no residuals
    row0 = [float(v) for v in outputs[0].decode().splitlines()[1].split(",")]
    assert row0[4] > 0.0 and row0[8:] == [0.0, 0.0]


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


def test_validate_subcommand_rejects_failed_assumption(tmp_path, capsys):
    raw = fixed_point_config(tmp_path)
    raw["model"]["params"]["K"] = -1.0
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(cfgpath)]) == 2
    assert "(A1)" in capsys.readouterr().err


def test_validate_subcommand_rejects_a_negative_lambda_blend_end(tmp_path,
                                                                capsys):
    # lam(s) = lam_a + (lam_b - lam_a)*(1 + tanh s)/2 reaches lam_a < 0 only
    # where tanh(s) rounds to -1, from about s = -19 on
    raw = fixed_point_config(tmp_path)
    raw["model"]["viscosity"] = {"variant": "blend", "eta_a": 1.0,
                                 "eta_b": 1.0, "lam_a": -1e-6, "lam_b": 1.0}
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(cfgpath)]) == 2
    assert "(A3): 0 <= lambda(s) <= lambda0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("section,key,value", [
    ("stepping", "dt", math.nan), ("params", "epsilon", math.inf),
    ("viscosity", "eta", math.nan), ("grid", "lx", -math.inf)])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, command,
                                             section, key, value):
    raw = fixed_point_config(tmp_path)
    parent = raw["model"] if section in ("params", "viscosity") else raw
    parent.setdefault(section, {})[key] = value
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))   # writes NaN / Infinity tokens
    assert main([command, "--config", str(cfgpath)]) == 2
    assert f".{section}.{key}' must be a finite number" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def documented_sweep_header(label):
    """The sweep CSV header that the cli module docstring lists for label."""
    for line in cli.__doc__.splitlines():
        name, sep, header = line.partition(" : ")
        if sep and name.strip() == label:
            return header.strip()
    raise KeyError(label)


@pytest.mark.parametrize("argv, label, rows", [
    (["mms", "--problem", "nutrient"], "mms nutrient", 3),
    (["mms", "--problem", "darcy"], "mms darcy", 3),
    (["mms", "--problem", "brinkman"], "mms brinkman", 3),
    (["limit-k"], "limit-k", 4),
    (["limit-visc"], "limit-visc", 4),
    (["contdep", "--steps", "2"], "contdep", 3),
    (["contdep", "--steps", "2", "--perturb", "sigma_inf"], "contdep", 3),
], ids=["mms_nutrient", "mms_darcy", "mms_brinkman", "limit_k", "limit_visc",
        "contdep_phi0", "contdep_sigma_inf"])
def test_study_subcommand_writes_its_sweep_csv(tmp_path, capsys, request,
                                                argv, label, rows):
    out = tmp_path / "missing" / "dir"
    assert main(argv + ["--out", str(out)]) == 0
    csv_name = f"{request.node.callspec.id}.csv"   # the case id names it
    lines = (out / csv_name).read_text().splitlines()
    assert lines[0] == documented_sweep_header(label)
    assert len(lines) == 1 + rows
    summary = capsys.readouterr().out.splitlines()
    assert len(summary) == 1 and summary[0].endswith(", OK")


@pytest.mark.parametrize("argv", [
    ["limit-k", "--config", "x.json"],
    ["validate", "--config", "x.json", "--seed", "7"],
    ["mms", "--problem", "darcy", "--flow-mode", "none"],
    ["contdep", "--seed", "7"]])
def test_a_flag_the_subcommand_does_not_read_is_refused(argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2


@pytest.mark.parametrize("argv", [
    ["mms", "--problem", "darcy", "--levels", "2"],
    ["contdep", "--steps", "-1"]])
def test_out_of_range_study_argument_is_an_argument_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_a_failed_study_check_exits_3(tmp_path, capsys, monkeypatch):
    failing = SweepResult(parameter="K", values=[1.0, 2.0],
                          norms={"gap": [1.0, 2.0]}, primary="gap", slope=1.0,
                          checks={"ratio": 2.0, "gap_decreasing": False,
                                  "gap_finite": True})
    monkeypatch.setattr(cli, "_limit_k", lambda args: ("limit_k", failing))
    assert main(["limit-k", "--out", str(tmp_path)]) == 3
    assert (tmp_path / "limit_k.csv").read_text().startswith("K,gap\n")
    assert capsys.readouterr().out.endswith("FAILED gap_decreasing\n")


def test_study_output_directory_that_cannot_be_made_is_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["limit-k", "--out", str(blocker / "dir")]) == 4


def test_vtk_snapshots_written_at_stride(tmp_path):
    raw = fixed_point_config(tmp_path, n_steps=4)
    raw["output"]["field_stride"] = 2
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfgpath)]) == 0
    names = sorted(os.listdir(tmp_path / "out"))
    assert "state_000000.vtk" in names
    assert "state_000002.vtk" in names and "state_000004.vtk" in names
