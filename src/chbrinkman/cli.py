"""Configuration, entry points and output serialization.

Subcommands
-----------
run         time loop from a JSON config (--config required)
validate    model assumption audit only
mms         manufactured-solution convergence sweep (--problem)
limit-k     Robin -> Dirichlet boundary-permeability sweep
limit-visc  Brinkman -> Darcy vanishing-viscosity sweep
contdep     continuous-dependence perturbation sweep

Flags: --config PATH, --out DIR, --seed N (overrides the config seed),
--flow-mode {brinkman,darcy,none}.  Exit codes: 0 success, 2 config error,
3 solver failure, 4 I/O error.

Config format (strict JSON; unknown keys are errors):

    {
      "grid":   {"nx": 64, "ny": 64, "lx": 1.0, "ly": 1.0},
      "model": {
        "params":    {"epsilon": 0.05, "nu": 1.0, "K": 100.0,
                      "chi": 0.0, "t_final": 1.0},
        "potential": {"variant": "quartic"},
        "viscosity": {"variant": "constant", "eta": 1.0, "lam": 0.0}
                     | {"variant": "blend", "eta_a":.., "eta_b":..,
                        "lam_a":.., "lam_b":..},
        "mobility":  {"variant": "constant", "m": 1.0}
                     | {"variant": "blend", "m_a":.., "m_b":..},
        "sources":   {"variant": "zero", "h": 1.0}
                     | {"variant": "linear", "b_v":.., "f_v":.., "b_phi":..,
                        "f_phi":.., "h":..}       (tanh-bounded coefficients)
        "sigma_inf": {"variant": "constant", "value": 0.0}
                     | {"variant": "per_face", "values": [...]}
                     | {"variant": "expression", "expr": "1.0 + 0.1*t"},
        "phi0":      {"variant": "constant", "value": 0.0}
                     | {"variant": "expression", "expr": "tanh((0.25-((x-0.5)**2+(y-0.5)**2)**0.5)/0.05)"}
                     | {"variant": "random", "seed": 42, "amplitude": 0.01,
                        "base": 0.0}
      },
      "stepping": {"dt": 1e-4, "n_steps": 200, "stabilization": 2.0,
                   "flow_mode": "brinkman", "tol_ch": 1e-9,
                   "tol_nutrient": 1e-10, "tol_flow": 1e-9,
                   "strict_cfl": false},
      "output":   {"directory": "out", "field_stride": 0,
                   "diagnostics_stride": 1},
      "seed": 42
    }

Defaults are the values shown above.  Expressions are evaluated with numpy
in scope ("x", "y" cell-center arrays for phi0; "t" for sigma_inf) -- trusted
configs only.  Floats serialize with shortest round-trip decimals, so re-runs
of the same config are byte-identical.

Diagnostics CSV columns (one row per recorded step):
    step,t,energy,mass,dissipation,boundary_flux,source_mass,div_residual,energy_residual,mass_residual
Sweep CSVs (harness subcommands) carry a header of the swept parameter plus
every recorded norm, one row per parameter value:
    mms nutrient : n,dx,sigma_l2_error
    mms darcy    : n,dx,pressure_l2_error,velocity_l2_error
    mms brinkman : n,dx,velocity_l2_error,pressure_l2_error
    limit-k      : K,boundary_gap_l2,interior_distance_l2,gap_times_sqrt_k
    limit-visc   : scale,velocity_gap_l2,pressure_gap_l2,viscous_energy
    contdep      : delta,difference_ratio
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid2D, integrate_cells
from .harness import (continuous_dependence_study, mms_convergence,
                      robin_limit_study, viscosity_limit_study)
from .linalg import SolverFailure
from .model import (ModelParams, ModelSpec, RandomPerturbation, SourceSpec,
                    blended_mobility, blended_viscosity, constant_mobility,
                    constant_viscosity, default_quartic_potential,
                    smooth_blend, validate, zero_sources)
from .stepper import (CflViolation, StepConfig, energy, initialize_state,
                      step)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

DIAGNOSTICS_HEADER = ("step,t,energy,mass,dissipation,boundary_flux,"
                      "source_mass,div_residual,energy_residual,mass_residual")


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
    seed: int


def _find_key_location(text: str, key: str):
    """Best-effort line:column of a quoted key in the raw config text."""
    needle = f'"{key}"'
    pos = text.find(needle)
    if pos < 0:
        return ""
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f" (line {line}, column {col})"


class _Section:
    """Strict dict view: unknown keys raise, every read is type-checked."""

    def __init__(self, raw, path, text):
        if not isinstance(raw, dict):
            raise ConfigError(f"config section '{path}' must be an object")
        self.raw = dict(raw)
        self.path = path
        self.text = text
        self.seen = set()

    def get(self, key, kind, default=None, required=False):
        self.seen.add(key)
        if key not in self.raw:
            if required:
                raise ConfigError(f"missing required key '{self.path}.{key}'")
            return default
        value = self.raw[key]
        if kind is float and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            return float(value)
        if kind is int and isinstance(value, int) and not isinstance(value, bool):
            return int(value)
        if not isinstance(value, kind):
            raise ConfigError(
                f"key '{self.path}.{key}' must be {kind.__name__}"
                f"{_find_key_location(self.text, key)}")
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
                f"{_find_key_location(self.text, key)}")


def _expression_phi0(expr: str):
    def evaluate(x, y):
        return eval(expr, {"__builtins__": {}},
                    {"x": x, "y": y, "np": np, "pi": np.pi,
                     "sin": np.sin, "cos": np.cos, "tanh": np.tanh,
                     "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs})
    return evaluate


def _expression_sigma_inf(expr: str):
    def evaluate(t):
        return eval(expr, {"__builtins__": {}},
                    {"t": t, "np": np, "pi": np.pi, "sin": np.sin,
                     "cos": np.cos, "tanh": np.tanh, "exp": np.exp})
    return evaluate


def _build_sources(sec: _Section) -> SourceSpec:
    variant = sec.get("variant", str, default="zero")
    if variant == "zero":
        h = sec.get("h", float, default=1.0)
        if h < 0:
            raise ConfigError("(A4): consumption rate h must be non-negative")
        sec.finish()
        return zero_sources(h)
    if variant == "linear":
        # each coefficient c becomes the bounded evaluator c*(1+tanh(s))/2
        coeffs = {k: sec.get(k, float, default=0.0)
                  for k in ("b_v", "f_v", "b_phi", "f_phi")}
        h = sec.get("h", float, default=1.0)
        if h < 0:
            raise ConfigError("(A4): consumption rate h must be non-negative")
        sec.finish()
        return SourceSpec(
            b_v=smooth_blend(0.0, 2.0 * coeffs["b_v"]),
            f_v=smooth_blend(0.0, 2.0 * coeffs["f_v"]),
            b_phi=smooth_blend(0.0, 2.0 * coeffs["b_phi"]),
            f_phi=smooth_blend(0.0, 2.0 * coeffs["f_phi"]),
            h=lambda s, hv=h: hv * np.ones_like(np.asarray(s, dtype=float)),
            variant="linear")
    raise ConfigError(f"unknown sources variant '{variant}'")


def parse_config(text: str) -> SimConfig:
    """Strict JSON config parser; raises ConfigError with the offending key
    path (and a best-effort line:column) or the violated assumption."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    root = _Section(raw, "config", text)

    gsec = root.section("grid", required=True)
    nx = gsec.get("nx", int, required=True)
    ny = gsec.get("ny", int, required=True)
    lx = gsec.get("lx", float, default=1.0)
    ly = gsec.get("ly", float, default=1.0)
    gsec.finish()
    try:
        grid = Grid2D(nx, ny, lx, ly)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    msec = root.section("model")
    psec = msec.section("params")
    params = ModelParams(
        epsilon=psec.get("epsilon", float, default=0.05),
        nu=psec.get("nu", float, default=1.0),
        K=psec.get("K", float, default=100.0),
        chi=psec.get("chi", float, default=0.0),
        t_final=psec.get("t_final", float, default=1.0))
    psec.finish()
    if params.epsilon <= 0 or params.nu <= 0 or params.K <= 0 \
            or params.t_final <= 0 or params.chi < 0:
        raise ConfigError(
            "(A1): epsilon, nu, K, t_final must be positive and chi "
            f"non-negative; got epsilon={params.epsilon}, nu={params.nu}, "
            f"K={params.K}, chi={params.chi}, t_final={params.t_final}")

    potsec = msec.section("potential")
    pot_variant = potsec.get("variant", str, default="quartic")
    potsec.finish()
    if pot_variant != "quartic":
        raise ConfigError(f"unknown potential variant '{pot_variant}' "
                          "(custom potentials are library-only)")
    potential = default_quartic_potential()

    vsec = msec.section("viscosity")
    v_variant = vsec.get("variant", str, default="constant")
    if v_variant == "constant":
        eta = vsec.get("eta", float, default=1.0)
        lam = vsec.get("lam", float, default=0.0)
        vsec.finish()
        if eta <= 0 or lam < 0:
            raise ConfigError("(A3): eta must be positive and lam non-negative")
        viscosity = constant_viscosity(eta, lam)
    elif v_variant == "blend":
        ea = vsec.get("eta_a", float, required=True)
        eb = vsec.get("eta_b", float, required=True)
        la = vsec.get("lam_a", float, default=0.0)
        lb = vsec.get("lam_b", float, default=0.0)
        vsec.finish()
        if min(ea, eb) <= 0 or min(la, lb) < 0:
            raise ConfigError("(A3): eta bounds must be positive and lam "
                              "bounds non-negative")
        viscosity = blended_viscosity(ea, eb, la, lb)
    else:
        raise ConfigError(f"unknown viscosity variant '{v_variant}'")

    mobsec = msec.section("mobility")
    m_variant = mobsec.get("variant", str, default="constant")
    if m_variant == "constant":
        m = mobsec.get("m", float, default=1.0)
        mobsec.finish()
        if m <= 0:
            raise ConfigError("(A2): mobility must be positive")
        mobility = constant_mobility(m)
    elif m_variant == "blend":
        ma = mobsec.get("m_a", float, required=True)
        mb = mobsec.get("m_b", float, required=True)
        mobsec.finish()
        if min(ma, mb) <= 0:
            raise ConfigError("(A2): mobility bounds must be positive")
        mobility = blended_mobility(ma, mb)
    else:
        raise ConfigError(f"unknown mobility variant '{m_variant}'")

    sources = _build_sources(msec.section("sources"))

    ssec = msec.section("sigma_inf")
    s_variant = ssec.get("variant", str, default="constant")
    if s_variant == "constant":
        sigma_inf = ssec.get("value", float, default=0.0)
        ssec.finish()
    elif s_variant == "per_face":
        values = ssec.get("values", list, required=True)
        ssec.finish()
        sigma_inf = np.asarray(values, dtype=float)
        if sigma_inf.shape != (grid.n_boundary_faces(),):
            raise ConfigError(
                f"sigma_inf per_face needs {grid.n_boundary_faces()} values "
                f"for a {nx}x{ny} grid, got {sigma_inf.size}")
    elif s_variant == "expression":
        expr = ssec.get("expr", str, required=True)
        ssec.finish()
        sigma_inf = _expression_sigma_inf(expr)
    else:
        raise ConfigError(f"unknown sigma_inf variant '{s_variant}'")

    isec = msec.section("phi0")
    i_variant = isec.get("variant", str, default="constant")
    if i_variant == "constant":
        phi0 = isec.get("value", float, default=0.0)
        isec.finish()
    elif i_variant == "expression":
        expr = isec.get("expr", str, required=True)
        isec.finish()
        phi0 = _expression_phi0(expr)
    elif i_variant == "random":
        phi0 = RandomPerturbation(
            seed=isec.get("seed", int, default=0),
            amplitude=isec.get("amplitude", float, default=0.01),
            base=isec.get("base", float, default=0.0),
            modes=isec.get("modes", int, default=2))
        isec.finish()
    else:
        raise ConfigError(f"unknown phi0 variant '{i_variant}'")
    msec.finish()

    spec = ModelSpec(params=params, potential=potential, viscosity=viscosity,
                     mobility=mobility, sources=sources, sigma_inf=sigma_inf,
                     phi0=phi0)

    stsec = root.section("stepping")
    try:
        stepping = StepConfig(
            dt=stsec.get("dt", float, default=1e-4),
            stabilization=stsec.get("stabilization", float, default=2.0),
            flow_mode=stsec.get("flow_mode", str, default="brinkman"),
            tol_ch=stsec.get("tol_ch", float, default=1e-9),
            tol_nutrient=stsec.get("tol_nutrient", float, default=1e-10),
            tol_flow=stsec.get("tol_flow", float, default=1e-9),
            strict_cfl=stsec.get("strict_cfl", bool, default=False))
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
    if isinstance(spec.phi0, RandomPerturbation) and seed != 0:
        spec = replace(spec, phi0=replace(spec.phi0, seed=seed))
    return SimConfig(grid=grid, spec=spec, stepping=stepping, n_steps=n_steps,
                     out_dir=out_dir, field_stride=field_stride,
                     diagnostics_stride=diag_stride, seed=seed)


# output ----------------------------------------------------------------------

def _fmt(x) -> str:
    """Shortest round-trip decimal for reproducible CSV output."""
    return repr(float(x))


def _diagnostics_line(row) -> str:
    """One CSV line of a row (step, t, energy, mass, dissipation,
    boundary_flux, source_mass, div_residual, energy_residual,
    mass_residual)."""
    return ",".join([str(int(row[0]))] + [_fmt(v) for v in row[1:]]) + "\n"


def write_csv_diagnostics(rows, path: str):
    """The header and one line per row, in the format ``run`` streams."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(DIAGNOSTICS_HEADER + "\n")
            f.writelines(_diagnostics_line(row) for row in rows)
    except OSError as err:
        raise IOError(f"cannot write diagnostics CSV {path!r}: {err}") from err


def write_sweep_csv(result, path: str):
    header, rows = result.table()
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as err:
        raise IOError(f"cannot write sweep CSV {path!r}: {err}") from err


def write_vtk(state, grid: Grid2D, path: str):
    """Legacy ASCII STRUCTURED_POINTS snapshot: CELL_DATA scalars phi, mu,
    sigma, p and the cell-averaged velocity vector."""
    nx, ny = grid.nx, grid.ny
    vx_c = 0.5 * (state.vel.x[:-1, :] + state.vel.x[1:, :])
    vy_c = 0.5 * (state.vel.y[:, :-1] + state.vel.y[:, 1:])
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write("# vtk DataFile Version 2.0\n")
            f.write(f"chbrinkman state t={_fmt(state.t)}\n")
            f.write("ASCII\nDATASET STRUCTURED_POINTS\n")
            f.write(f"DIMENSIONS {nx + 1} {ny + 1} 1\n")
            f.write("ORIGIN 0 0 0\n")
            f.write(f"SPACING {_fmt(grid.dx)} {_fmt(grid.dy)} 1\n")
            f.write(f"CELL_DATA {nx * ny}\n")
            for name, field in (("phi", state.phi), ("mu", state.mu),
                                ("sigma", state.sigma), ("p", state.p)):
                f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for j in range(ny):       # x varies fastest in VTK order
                    for i in range(nx):
                        f.write(_fmt(field[i, j]) + "\n")
            f.write("VECTORS velocity double\n")
            for j in range(ny):
                for i in range(nx):
                    f.write(f"{_fmt(vx_c[i, j])} {_fmt(vy_c[i, j])} 0\n")
    except OSError as err:
        raise IOError(f"cannot write VTK file {path!r}: {err}") from err


def run_simulation(cfg: SimConfig) -> int:
    """Execute the time loop; returns the process exit status.  Each
    diagnostics row is written and flushed as it is produced, so a run that
    stops early leaves the rows it reached."""
    g = cfg.grid
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as err:
        print(f"I/O error: cannot create output directory: {err}",
              file=sys.stderr)
        return EXIT_IO

    k = 0
    try:
        state = initialize_state(g, cfg.spec, cfg.stepping)
        with open(f"{cfg.out_dir}/diagnostics.csv", "w",
                  encoding="utf-8") as csv:
            csv.write(DIAGNOSTICS_HEADER + "\n")

            def record(row):
                csv.write(_diagnostics_line(row))
                csv.flush()

            record((0, state.t, energy(g, state.phi, cfg.spec),
                    integrate_cells(g, state.phi),
                    0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
            if cfg.field_stride:
                write_vtk(state, g, f"{cfg.out_dir}/state_000000.vtk")
            for k in range(1, cfg.n_steps + 1):
                state, diag = step(g, state, cfg.spec, cfg.stepping)
                if k % cfg.diagnostics_stride == 0:
                    record((k, state.t, diag.energy, diag.mass,
                            diag.dissipation, diag.boundary_flux,
                            diag.source_mass, diag.div_residual,
                            diag.energy_residual, diag.mass_residual))
                if cfg.field_stride and k % cfg.field_stride == 0:
                    write_vtk(state, g, f"{cfg.out_dir}/state_{k:06d}.vtk")
    except CflViolation as err:
        print(f"config error at step {k}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as err:
        print(f"solver failure in stage '{err.stage}' at step {k}: {err}",
              file=sys.stderr)
        return EXIT_SOLVER
    except IOError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# subcommands -------------------------------------------------------------------

def _load_config(path: str, args) -> SimConfig:
    with open(path, encoding="utf-8") as f:
        cfg = parse_config(f.read())
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        spec = cfg.spec
        if isinstance(spec.phi0, RandomPerturbation):
            spec = replace(spec, phi0=replace(spec.phi0, seed=args.seed))
        cfg = replace(cfg, seed=args.seed, spec=spec)
    if args.flow_mode is not None:
        cfg = replace(cfg,
                      stepping=replace(cfg.stepping, flow_mode=args.flow_mode))
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args)
    return run_simulation(cfg)


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config, args)
    report = validate(cfg.spec)
    print(report)
    return EXIT_OK if report.passed else EXIT_CONFIG


def _cmd_mms(args) -> int:
    result = mms_convergence(args.problem, levels=args.levels)
    out = args.out or "."
    write_sweep_csv(result, f"{out}/mms_{args.problem}.csv")
    print(f"{args.problem}: observed order {result.slope:.3f} "
          f"({'OK' if result.checks['order_at_least_required'] else 'LOW'})")
    return EXIT_OK if result.checks["order_at_least_required"] else EXIT_SOLVER


def _default_limit_setup(n=64):
    g = Grid2D(n, n)
    xc, yc = g.cell_centers()
    phi = np.tanh((0.25 - np.sqrt((xc - 0.5)**2 + (yc - 0.5)**2)) / 0.1)
    return g, phi


def _cmd_limit_k(args) -> int:
    g, phi = _default_limit_setup()
    spec = ModelSpec(sources=zero_sources(1.0))
    result = robin_limit_study(g, phi, spec, [10.0, 100.0, 1000.0, 10000.0],
                               sigma_inf=1.0)
    out = args.out or "."
    write_sweep_csv(result, f"{out}/limit_k.csv")
    ok = all(v for v in result.checks.values() if isinstance(v, bool))
    print(f"limit-k: slope {result.slope:.3f}, checks "
          f"{ {k: v for k, v in result.checks.items()} }")
    return EXIT_OK if ok else EXIT_SOLVER


def _cmd_limit_visc(args) -> int:
    g, phi = _default_limit_setup()
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
    result = viscosity_limit_study(g, phi, mu, sigma, spec,
                                   [1.0, 0.1, 0.01, 0.001])
    out = args.out or "."
    write_sweep_csv(result, f"{out}/limit_visc.csv")
    ok = all(v for v in result.checks.values() if isinstance(v, bool))
    print(f"limit-visc: checks { {k: v for k, v in result.checks.items()} }")
    return EXIT_OK if ok else EXIT_SOLVER


def _cmd_contdep(args) -> int:
    g = Grid2D(32, 32)
    xc, yc = g.cell_centers()
    phi0 = np.tanh((0.25 - np.sqrt((xc - 0.5)**2 + (yc - 0.5)**2)) / 0.1)
    spec = ModelSpec(params=ModelParams(epsilon=0.1, nu=1.0, K=10.0, chi=0.2),
                     viscosity=constant_viscosity(0.1, 0.0),
                     sources=SourceSpec(
                         b_v=smooth_blend(0.0, 0.1),
                         f_v=smooth_blend(-0.02, 0.02),
                         b_phi=smooth_blend(0.0, 0.1),
                         f_phi=smooth_blend(0.0, 0.0),
                         h=smooth_blend(0.5, 1.0)),
                     sigma_inf=1.0)
    cfg = StepConfig(dt=5e-4, flow_mode=args.flow_mode or "brinkman")
    result = continuous_dependence_study(
        g, spec, phi0, [1e-2, 1e-3, 1e-4], n_steps=args.steps, cfg=cfg,
        perturb=args.perturb)
    out = args.out or "."
    write_sweep_csv(result, f"{out}/contdep_{args.perturb}.csv")
    ok = result.checks["ratio_spread_at_most_10"]
    print(f"contdep ({args.perturb}): ratio spread "
          f"{result.checks['ratio_spread']:.3f} ({'OK' if ok else 'UNSTABLE'})")
    return EXIT_OK if ok else EXIT_SOLVER


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chbrinkman",
        description="Cahn-Hilliard-Brinkman tumour-growth simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config):
        p.add_argument("--config", required=needs_config,
                       help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--flow-mode", dest="flow_mode", default=None,
                       choices=["brinkman", "darcy", "none"])

    common(sub.add_parser("run", help="run a simulation"), True)
    common(sub.add_parser("validate", help="model assumption audit"), True)
    p = sub.add_parser("mms", help="manufactured-solution convergence")
    common(p, False)
    p.add_argument("--problem", choices=["nutrient", "brinkman", "darcy"],
                   required=True)
    p.add_argument("--levels", type=int, default=3)
    common(sub.add_parser("limit-k", help="Robin->Dirichlet limit sweep"),
           False)
    common(sub.add_parser("limit-visc", help="Brinkman->Darcy limit sweep"),
           False)
    p = sub.add_parser("contdep", help="continuous-dependence sweep")
    common(p, False)
    p.add_argument("--perturb", choices=["phi0", "sigma_inf"], default="phi0")
    p.add_argument("--steps", type=int, default=50)
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "mms": _cmd_mms,
    "limit-k": _cmd_limit_k,
    "limit-visc": _cmd_limit_visc,
    "contdep": _cmd_contdep,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        code = EXIT_CONFIG
    except SolverFailure as err:
        print(f"solver failure in stage '{err.stage}': {err}", file=sys.stderr)
        code = EXIT_SOLVER
    except FileNotFoundError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        code = EXIT_IO
    except IOError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        code = EXIT_IO
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
