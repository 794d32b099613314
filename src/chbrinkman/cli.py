"""Configuration, entry points and output serialization.

Subcommands and the flags each one reads
----------------------------------------
run         time loop from a JSON config: --config PATH (required), --out DIR
            (overrides the config's output directory), --seed N (overrides
            the config seed), --flow-mode {brinkman,darcy,none}
validate    model assumption audit only: --config PATH (required)
mms         manufactured-solution convergence sweep:
            --problem {nutrient,brinkman,darcy} (required), --levels N (>= 3,
            default 3), --out DIR
limit-k     Robin -> Dirichlet boundary-permeability sweep: --out DIR
limit-visc  Brinkman -> Darcy vanishing-viscosity sweep: --out DIR
contdep     continuous-dependence perturbation sweep: --perturb
            {phi0,sigma_inf} (default phi0), --steps N (>= 1, default 50),
            --flow-mode (default brinkman), --out DIR

A study subcommand writes its sweep CSV into --out (default ".", created if
missing), prints one summary line, and passes when every boolean check of
the study holds.  Exit codes: 0 success, 2 config or argument error
(including an initial level that is not finite), 3 solver failure, a step
that fails on its data or a failed study check, 4 I/O error.

The config format, with every key and default, is documented under
"Configuration" in README.md.  Unknown keys are errors, and the model
sections are audited against assumptions (A1)-(A5) by ``model.validate``
before a run starts.  CSV floats serialize with shortest round-trip decimals
and VTK snapshots hold the raw big-endian doubles of the fields, so re-runs
of the same config are byte-identical.

Diagnostics CSV columns (one row per recorded step):
    step,t,energy,mass,dissipation,boundary_flux,source_mass,div_residual,energy_residual,mass_residual
Sweep CSVs (mms_<problem>.csv, limit_k.csv, limit_visc.csv and
contdep_<perturb>.csv) carry a header of the swept parameter plus every
recorded norm, one row per parameter value:
    mms nutrient : n,dx,sigma_l2_error
    mms darcy    : n,dx,pressure_l2_error,velocity_l2_error
    mms brinkman : n,dx,velocity_l2_error,pressure_l2_error
    limit-k      : K,boundary_gap_l2,interior_distance_l2,gap_times_sqrt_k
    limit-visc   : scale,velocity_gap_l2,pressure_gap_l2,viscous_energy
    contdep      : delta,difference_ratio
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .grid import Grid2D
from .harness import (continuous_dependence_study, mms_convergence,
                      robin_limit_study, viscosity_limit_study)
from .linalg import SolverFailure
from .model import (ModelParams, ModelSpec, RandomPerturbation, SourceSpec,
                    ValidationReport, blended_mobility, blended_viscosity,
                    constant_mobility, constant_viscosity,
                    default_quartic_potential, smooth_blend, validate,
                    zero_sources)
from .stepper import CflViolation, StepConfig, trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

DIAGNOSTICS_HEADER = ("step,t,energy,mass,dissipation,boundary_flux,"
                      "source_mass,div_residual,energy_residual,mass_residual")

REQUIRED = object()   # the default of a key that must be present


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    grid: Grid2D
    spec: ModelSpec
    stepping: StepConfig
    n_steps: int
    out_dir: str
    field_stride: int
    diagnostics_stride: int


def _find_key_location(text: str, path: str, key: str):
    """Best-effort line:column of the key path.key in the raw config text
    (path starts at the root section "config"): each quoted key of the path
    is the first one after the key before it."""
    end = 0
    for key in [*path.split(".")[1:], key]:
        needle = f'"{key}"'
        pos = text.find(needle, end)
        if pos < 0:
            return ""
        end = pos + len(needle)
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f" (line {line}, column {col})"


def _finite(value) -> bool:
    """A JSON number other than NaN, an infinity or an int beyond the float
    range (json accepts all three); a bool is not a number here."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


class _Section:
    """Strict dict view: unknown keys raise, every read is type-checked."""

    def __init__(self, raw, path, text):
        if not isinstance(raw, dict):
            raise ConfigError(f"config section '{path}' must be an object")
        self.raw = dict(raw)
        self.path = path
        self.text = text
        self.seen = set()

    def _error(self, key, problem):
        return ConfigError(f"key '{self.path}.{key}' {problem}"
                           f"{_find_key_location(self.text, self.path, key)}")

    def get(self, key, kind, default=REQUIRED):
        self.seen.add(key)
        if key not in self.raw:
            if default is REQUIRED:
                raise ConfigError(f"missing required key '{self.path}.{key}'")
            return default
        value = self.raw[key]
        if kind is float and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            if not _finite(value):
                raise self._error(key, "must be a finite number")
            return float(value)
        if kind is int and isinstance(value, int) and not isinstance(value, bool):
            return int(value)
        if not isinstance(value, kind):
            raise self._error(key, f"must be {kind.__name__}")
        return value

    def section(self, key, required=False):
        self.seen.add(key)
        if key not in self.raw:
            if required:
                raise ConfigError(f"missing required section '{self.path}.{key}'")
            return _Section({}, f"{self.path}.{key}", self.text)
        return _Section(self.raw[key], f"{self.path}.{key}", self.text)

    def finish(self):
        unknown = set(self.raw) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(
                f"unknown key '{self.path}.{key}'"
                f"{_find_key_location(self.text, self.path, key)}")


def _dataclass_keys(sec: _Section, cls, **defaults) -> dict:
    """The keyword arguments of the dataclass ``cls`` read from ``sec``:
    one key per field, of the field's annotated type, with the default
    given here or else the field's own (required when it has none)."""
    kinds = get_type_hints(cls)
    return {f.name: sec.get(f.name, kinds[f.name], defaults.get(
                f.name, REQUIRED if f.default is MISSING else f.default))
            for f in fields(cls)}


def _variant(sec: _Section, default: str, variants):
    """The object a section describes.  Its "variant" key (``default`` when
    absent) selects ``(constructor, {key: (type, default or REQUIRED)})``
    from ``variants``; the constructor gets the keys' values in that order."""
    name = sec.get("variant", str, default)
    if name not in variants:
        raise ConfigError(
            f"unknown {sec.path.rsplit('.', 1)[-1]} variant '{name}'")
    build, keys = variants[name]
    values = [sec.get(key, kind, d) for key, (kind, d) in keys.items()]
    sec.finish()
    return build(*values)


# the names a config expression may use, besides its own variables
_EXPRESSION_NAMES = {"np": np, "pi": np.pi, "sin": np.sin, "cos": np.cos,
                     "tanh": np.tanh, "exp": np.exp, "sqrt": np.sqrt,
                     "abs": np.abs}


def _expression(section: str, *variables: str):
    """The constructor of the ``expression`` variant of ``section``: from
    the key ``config.model.<section>.expr`` it makes the function of
    ``variables`` that evaluates the expression, compiled when the config
    is read.  An expression that does not compile, or that fails to
    evaluate, is a ConfigError naming its key."""
    key = f"config.model.{section}.expr"

    def build(expr: str):
        try:
            code = compile(expr, key, "eval")
        except SyntaxError as err:
            raise ConfigError(f"key '{key}' is not an expression: "
                              f"{err.msg}") from err

        def evaluate(*values):
            try:
                return eval(code, {"__builtins__": {}},
                            {**_EXPRESSION_NAMES,
                             **dict(zip(variables, values))})
            except Exception as err:
                raise ConfigError(f"key '{key}' cannot be evaluated: "
                                  f"{type(err).__name__}: {err}") from err
        return evaluate
    return build


def _linear_sources(b_v, f_v, b_phi, f_phi, h) -> SourceSpec:
    """Each coefficient c becomes the bounded ramp c*(1+tanh(s)), which
    ranges over [0, 2c]; h is a constant consumption rate."""
    return SourceSpec(
        b_v=smooth_blend(0.0, 2.0 * b_v), f_v=smooth_blend(0.0, 2.0 * f_v),
        b_phi=smooth_blend(0.0, 2.0 * b_phi),
        f_phi=smooth_blend(0.0, 2.0 * f_phi),
        h=lambda s: h * np.ones_like(np.asarray(s, dtype=float)))


def _model_sections(grid: Grid2D):
    """Each variant section of "model": the ModelSpec field it builds, its
    default variant and its variants (README.md lists the same schema)."""
    n = grid.n_boundary_faces()

    def per_face(values):
        if len(values) != n or not all(map(_finite, values)):
            raise ConfigError(
                f"sigma_inf per_face needs {n} finite numbers for a "
                f"{grid.nx}x{grid.ny} grid, got {len(values)} entries")
        return np.asarray(values, dtype=float)

    return {
        "potential": ("quartic", {
            "quartic": (default_quartic_potential, {})}),
        "viscosity": ("constant", {
            "constant": (constant_viscosity,
                         {"eta": (float, 1.0), "lam": (float, 0.0)}),
            "blend": (blended_viscosity,
                      {"eta_a": (float, REQUIRED), "eta_b": (float, REQUIRED),
                       "lam_a": (float, 0.0), "lam_b": (float, 0.0)})}),
        "mobility": ("constant", {
            "constant": (constant_mobility, {"m": (float, 1.0)}),
            "blend": (blended_mobility,
                      {"m_a": (float, REQUIRED), "m_b": (float, REQUIRED)})}),
        "sources": ("zero", {
            "zero": (zero_sources, {"h": (float, 1.0)}),
            "linear": (_linear_sources,
                       {"b_v": (float, 0.0), "f_v": (float, 0.0),
                        "b_phi": (float, 0.0), "f_phi": (float, 0.0),
                        "h": (float, 1.0)})}),
        "sigma_inf": ("constant", {
            "constant": (float, {"value": (float, 0.0)}),
            "per_face": (per_face, {"values": (list, REQUIRED)}),
            "expression": (_expression("sigma_inf", "t"),
                           {"expr": (str, REQUIRED)})}),
        "phi0": ("constant", {
            "constant": (float, {"value": (float, 0.0)}),
            "expression": (_expression("phi0", "x", "y"),
                           {"expr": (str, REQUIRED)}),
            "random": (RandomPerturbation,
                       {"seed": (int, 0), "amplitude": (float, 0.01),
                        "base": (float, 0.0), "modes": (int, 2)})}),
    }


def _with_seed(spec: ModelSpec, seed: int) -> ModelSpec:
    """spec with a random phi0 drawn from ``seed``; other phi0 unchanged."""
    if isinstance(spec.phi0, RandomPerturbation):
        return replace(spec, phi0=replace(spec.phi0, seed=seed))
    return spec


def parse_config(text: str) -> SimConfig:
    """Strict JSON config parser; raises ConfigError with the offending key
    path (and a best-effort line:column) or the failed entries of the
    assumption audit ``validate``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    root = _Section(raw, "config", text)

    gsec = root.section("grid", required=True)
    grid_keys = _dataclass_keys(gsec, Grid2D)
    gsec.finish()
    try:
        grid = Grid2D(**grid_keys)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    msec = root.section("model")
    psec = msec.section("params")
    params = ModelParams(**_dataclass_keys(psec, ModelParams))
    psec.finish()
    spec = ModelSpec(params=params, **{
        name: _variant(msec.section(name), default, variants)
        for name, (default, variants) in _model_sections(grid).items()})
    msec.finish()
    try:
        report = validate(spec)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if not report.passed:
        raise ConfigError("model assumptions not met:\n"
                          + str(ValidationReport(tuple(report.failures()))))

    stsec = root.section("stepping")
    try:
        stepping = StepConfig(**_dataclass_keys(stsec, StepConfig, dt=1e-4))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    n_steps = stsec.get("n_steps", int, default=100)
    stsec.finish()
    if n_steps < 0:
        raise ConfigError("n_steps must be non-negative")

    osec = root.section("output")
    out_dir = osec.get("directory", str, default="out")
    field_stride = osec.get("field_stride", int, default=0)
    diag_stride = osec.get("diagnostics_stride", int, default=1)
    osec.finish()
    if field_stride < 0 or diag_stride < 1:
        raise ConfigError("field_stride must be >= 0 and "
                          "diagnostics_stride >= 1")

    seed = root.get("seed", int, default=0)
    root.finish()
    if seed != 0:
        spec = _with_seed(spec, seed)
    return SimConfig(grid=grid, spec=spec, stepping=stepping, n_steps=n_steps,
                     out_dir=out_dir, field_stride=field_stride,
                     diagnostics_stride=diag_stride)


# output ----------------------------------------------------------------------

def _fmt(x) -> str:
    """Shortest round-trip decimal for reproducible CSV output."""
    return repr(float(x))


def diagnostics_row(k: int, state, diag=None) -> tuple:
    """Row k of ``diagnostics.csv``: the state's record and the residuals
    of the step that made it, 0 for the initial level, which has no step
    behind it."""
    r = state.record
    residuals = (0.0, 0.0) if diag is None else (diag.energy_residual,
                                                 diag.mass_residual)
    return (k, state.t, r.energy, r.mass, r.dissipation, r.boundary_flux,
            r.source_mass, r.div_residual, *residuals)


def _diagnostics_line(row) -> str:
    """One CSV line of a row (step, t, energy, mass, dissipation,
    boundary_flux, source_mass, div_residual, energy_residual,
    mass_residual)."""
    return ",".join([str(int(row[0]))] + [_fmt(v) for v in row[1:]]) + "\n"


def _write_csv(path: str, what: str, header: str, lines):
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(header + "\n")
            f.writelines(lines)
    except OSError as err:
        raise IOError(f"cannot write {what} {path!r}: {err}") from err


def write_csv_diagnostics(rows, path: str):
    """The header and one line per row, in the format ``run`` streams."""
    _write_csv(path, "diagnostics CSV", DIAGNOSTICS_HEADER,
               (_diagnostics_line(row) for row in rows))


def write_sweep_csv(result, path: str):
    header, rows = result.table()
    _write_csv(path, "sweep CSV", ",".join(header),
               (",".join(_fmt(v) for v in row) + "\n" for row in rows))


def write_vtk(state, grid: Grid2D, path: str):
    """Legacy BINARY STRUCTURED_POINTS snapshot: CELL_DATA scalars phi, mu,
    sigma, p and the cell-averaged velocity vector (z = 0).  After its
    header line each block holds the raw big-endian float64 values, x
    varying fastest, and a newline: the fields are stored bit for bit, with
    no decimal conversion."""
    nx, ny = grid.nx, grid.ny
    velocity = np.zeros((ny, nx, 3), dtype=">f8")
    velocity[..., 0] = 0.5 * (state.vel.x[:-1, :] + state.vel.x[1:, :]).T
    velocity[..., 1] = 0.5 * (state.vel.y[:, :-1] + state.vel.y[:, 1:]).T
    header = ("# vtk DataFile Version 2.0\n"
              f"chbrinkman state t={_fmt(state.t)}\n"
              "BINARY\nDATASET STRUCTURED_POINTS\n"
              f"DIMENSIONS {nx + 1} {ny + 1} 1\n"
              "ORIGIN 0 0 0\n"
              f"SPACING {_fmt(grid.dx)} {_fmt(grid.dy)} 1\n"
              f"CELL_DATA {nx * ny}\n")
    try:
        with open(path, "wb") as f:
            f.write(header.encode("ascii"))
            for name, field in (("phi", state.phi), ("mu", state.mu),
                                ("sigma", state.sigma), ("p", state.p)):
                f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
                        .encode("ascii"))
                f.write(np.ascontiguousarray(field.T, dtype=">f8").tobytes()
                        + b"\n")
            f.write(b"VECTORS velocity double\n" + velocity.tobytes() + b"\n")
    except OSError as err:
        raise IOError(f"cannot write VTK file {path!r}: {err}") from err


def _make_out_dir(path: str):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise IOError(f"cannot create output directory: {err}") from err


def _initial_level(levels):
    """The first level (0, State, None) of the trajectory ``levels``.  A
    level that cannot be made, or that holds a non-finite field or row
    entry, is a config error: no step could follow it."""
    try:
        level = next(levels)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"initial level: {err} (from 'config.model.phi0' "
                          f"and 'sigma_inf')") from err
    state = level[1]
    row = diagnostics_row(0, state)
    if not all(np.all(np.isfinite(v)) for v in (
            row[1:], state.phi, state.mu, state.sigma, state.vel.x,
            state.vel.y, state.p)):
        raise ConfigError(f"'config.model.phi0' gives a non-finite initial "
                          f"level (energy {row[2]!r}, mass {row[3]!r})")
    return level


def run_simulation(cfg: SimConfig) -> int:
    """Execute the time loop; returns the process exit status.  The output
    directory and the initial level are made before any output, and a
    failure there raises (``main`` reports it); then each diagnostics row
    is written and flushed as it is produced, so a run that stops early
    leaves the rows it reached."""
    g = cfg.grid
    _make_out_dir(cfg.out_dir)
    levels = trajectory(g, cfg.spec, cfg.stepping, cfg.n_steps)
    first = _initial_level(levels)
    k = 0   # the last level made: a failure is in step k + 1
    try:
        with open(f"{cfg.out_dir}/diagnostics.csv", "w",
                  encoding="utf-8") as csv:
            csv.write(DIAGNOSTICS_HEADER + "\n")
            for k, state, diag in itertools.chain([first], levels):
                if k % cfg.diagnostics_stride == 0:
                    csv.write(_diagnostics_line(diagnostics_row(k, state,
                                                                diag)))
                    csv.flush()
                if cfg.field_stride and k % cfg.field_stride == 0:
                    write_vtk(state, g, f"{cfg.out_dir}/state_{k:06d}.vtk")
    except CflViolation as err:
        print(f"config error at step {k + 1}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as err:
        print(f"solver failure in stage '{err.stage}' at step {k + 1}: "
              f"{err}", file=sys.stderr)
        return EXIT_SOLVER
    except IOError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"failure at step {k + 1}: {err}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# studies -------------------------------------------------------------------

K_VALUES = (10.0, 100.0, 1000.0, 10000.0)
VISCOSITY_SCALES = (1.0, 0.1, 0.01, 0.001)
CONTDEP_DELTAS = (1e-2, 1e-3, 1e-4)


def _default_limit_setup(n=64):
    """The n x n unit-square grid and the phase field of a centred disc
    (radius 0.25, interface width 0.1) that the studies start from."""
    g = Grid2D(n, n)
    xc, yc = g.cell_centers()
    phi = np.tanh((0.25 - np.sqrt((xc - 0.5)**2 + (yc - 0.5)**2)) / 0.1)
    return g, phi


def limit_k_problem(n=64):
    """(g, phi, spec) of the Robin -> Dirichlet sweep ``limit-k``."""
    g, phi = _default_limit_setup(n)
    return g, phi, ModelSpec(sources=zero_sources(1.0))


def limit_visc_problem(n=64):
    """(g, phi, mu, sigma, spec) of the Brinkman -> Darcy sweep
    ``limit-visc``: frozen fields and a model with sources and Korteweg
    force, viscosities (0.02, 0.01) at scale 1."""
    g, phi = _default_limit_setup(n)
    xc, yc = g.cell_centers()
    mu = np.sin(np.pi * xc) * np.cos(np.pi * yc)
    sigma = 0.5 + 0.25 * np.cos(np.pi * xc)
    spec = ModelSpec(params=ModelParams(nu=1.0, chi=0.5),
                     viscosity=constant_viscosity(0.02, 0.01),
                     sources=SourceSpec(
                         b_v=smooth_blend(0.0, 0.2),
                         f_v=smooth_blend(-0.05, 0.05),
                         b_phi=smooth_blend(0.0, 0.1),
                         f_phi=smooth_blend(0.0, 0.0),
                         h=smooth_blend(0.5, 1.0)))
    return g, phi, mu, sigma, spec


def contdep_problem(flow_mode="brinkman"):
    """(g, spec, phi0, cfg) of the continuous-dependence sweep ``contdep``:
    the coupled model on 32 x 32 at dt 5e-4."""
    g, phi0 = _default_limit_setup(32)
    spec = ModelSpec(params=ModelParams(epsilon=0.1, nu=1.0, K=10.0, chi=0.2),
                     viscosity=constant_viscosity(0.1, 0.0),
                     sources=SourceSpec(
                         b_v=smooth_blend(0.0, 0.1),
                         f_v=smooth_blend(-0.02, 0.02),
                         b_phi=smooth_blend(0.0, 0.1),
                         f_phi=smooth_blend(0.0, 0.0),
                         h=smooth_blend(0.5, 1.0)),
                     sigma_inf=1.0)
    return g, spec, phi0, StepConfig(dt=5e-4, flow_mode=flow_mode)


def _mms(args):
    return (f"mms_{args.problem}",
            mms_convergence(args.problem, levels=args.levels))


def _limit_k(args):
    return "limit_k", robin_limit_study(*limit_k_problem(), K_VALUES)


def _limit_visc(args):
    return "limit_visc", viscosity_limit_study(*limit_visc_problem(),
                                               VISCOSITY_SCALES)


def _contdep(args):
    g, spec, phi0, cfg = contdep_problem(args.flow_mode)
    return (f"contdep_{args.perturb}",
            continuous_dependence_study(g, spec, phi0, CONTDEP_DELTAS,
                                        n_steps=args.steps, cfg=cfg,
                                        perturb=args.perturb))


# subcommands -------------------------------------------------------------------

def _read_config(path: str) -> SimConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config(f.read())


def _cmd_run(args) -> int:
    cfg = _read_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = replace(cfg, spec=_with_seed(cfg.spec, args.seed))
    if args.flow_mode is not None:
        cfg = replace(cfg,
                      stepping=replace(cfg.stepping, flow_mode=args.flow_mode))
    return run_simulation(cfg)


def _cmd_validate(args) -> int:
    cfg = _read_config(args.config)   # a failed audit raises here
    print(validate(cfg.spec))
    return EXIT_OK


def _cmd_study(args) -> int:
    """One harness study: its sweep CSV in --out and one summary line; the
    study passes when every boolean check holds."""
    _make_out_dir(args.out)
    name, result = args.study(args)
    write_sweep_csv(result, f"{args.out}/{name}.csv")
    failed = [key for key, value in result.checks.items() if value is False]
    print(f"{name}: {result.primary} slope {result.slope:.3f}, "
          + ("OK" if result.passed else "FAILED " + ", ".join(failed)))
    return EXIT_OK if result.passed else EXIT_SOLVER


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {value}")
        return value
    return parse


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chbrinkman",
        description="Cahn-Hilliard-Brinkman tumour-growth simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def config(p):
        p.add_argument("--config", required=True,
                       help="JSON configuration file")

    def flow_mode(p, default):
        p.add_argument("--flow-mode", dest="flow_mode", default=default,
                       choices=["brinkman", "darcy", "none"])

    p = sub.add_parser("run", help="run a simulation")
    p.set_defaults(handler=_cmd_run)
    config(p)
    p.add_argument("--out", help="output directory (overrides the config's)")
    p.add_argument("--seed", type=int, help="override the config seed")
    flow_mode(p, None)
    p = sub.add_parser("validate", help="model assumption audit")
    p.set_defaults(handler=_cmd_validate)
    config(p)

    def study(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=_cmd_study, study=run)
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        return p

    p = study("mms", _mms, "manufactured-solution convergence")
    p.add_argument("--problem", choices=["nutrient", "brinkman", "darcy"],
                   required=True)
    p.add_argument("--levels", type=_int_at_least(3), default=3)
    study("limit-k", _limit_k, "Robin->Dirichlet limit sweep")
    study("limit-visc", _limit_visc, "Brinkman->Darcy limit sweep")
    p = study("contdep", _contdep, "continuous-dependence sweep")
    flow_mode(p, "brinkman")
    p.add_argument("--perturb", choices=["phi0", "sigma_inf"], default="phi0")
    p.add_argument("--steps", type=_int_at_least(1), default=50)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        code = EXIT_CONFIG
    except SolverFailure as err:
        print(f"solver failure in stage '{err.stage}': {err}", file=sys.stderr)
        code = EXIT_SOLVER
    except IOError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        code = EXIT_IO
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
