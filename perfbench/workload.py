"""One benchmark workload in its own process: inputs from a seed, set-up, a
single-threaded closed loop for a time budget, and the correctness gate.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
                                  --trace 0|1 [--setup-only]

Run from the root of a chbrinkman checkout; the package is imported from
``src``.  The process prints ``ready <CLOCK_MONOTONIC>`` once set-up is done
(the caller times set-up from before it started the process to that
instant), then one JSON line of raw measurements.  ``perfbench/run.py``
turns those into the benchmark's metrics.

Workloads (the reason for each is recorded in ``BENCHMARK.json``):

* ``tumour-brinkman-48``: coupled tumour growth, Brinkman flow, 48x48.
* ``spinodal-darcy-64``: spinodal decomposition, Darcy flow, 64x64, writes
  VTK snapshots and the diagnostics CSV.
* ``limit-sweep-64``: the vanishing-viscosity and Robin->Dirichlet studies at
  64x64 and the Brinkman manufactured-solution convergence (16, 32, 64).

An *episode* is one fixed piece of work: an 80-step trajectory from the
set-up state, or one pass over the three studies.  Episodes repeat while the
next one is expected to end inside the time budget; at least one runs.  An
*operation* is one time step or one study call.

The seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``):
a tumour disc of jittered radius, a random initial phase field, or a disc of
jittered radius for the Robin study.  ``reference.json`` stores the final
energy and mass of every stepping variant, written by
``perfbench/make_reference.py``.
"""

import time

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
VARIANTS = 16

STEPS = 80
FIELD_STRIDE = {"tumour-brinkman-48": 0, "spinodal-darcy-64": 20}
SWEEP = "limit-sweep-64"
WORKLOADS = (*FIELD_STRIDE, SWEEP)
SCALES = [1.0, 0.1, 0.01, 0.001]
K_VALUES = [10.0, 100.0, 1000.0, 10000.0]

# Floating-point slack of the discrete identities themselves, relative to
# the magnitudes they sum (1000 ulps): the residual bounds below add it to
# the share that the solver tolerance allows.
ROUNDOFF = 1000 * np.finfo(float).eps


class WorkloadError(RuntimeError):
    pass


# inputs ----------------------------------------------------------------------

def _rng(workload, variant):
    return np.random.default_rng([WORKLOADS.index(workload), variant])


def _disc(rng, radius):
    """Centre and radius of a disc phi0.  Only the radius is jittered: moving
    the centre off the grid's symmetry point makes the Brinkman BiCGStab
    solves take 2.5-4x the iterations (0.3 -> 0.6-1.0 s per 48x48 step),
    which would put an 80-step trajectory far past the time budget."""
    return 0.5, 0.5, float(radius + rng.uniform(-0.01, 0.01))


def stepping_config(workload, variant, out_dir):
    """JSON config text of a stepping workload variant."""
    if workload == "tumour-brinkman-48":
        # demos/tumour_growth.py, with the constant consumption rate that the
        # config format offers in place of the demo's blended one
        cx, cy, r = _disc(_rng(workload, variant), 0.2)
        disc = f"tanh(({r!r}-((x-{cx!r})**2+(y-{cy!r})**2)**0.5)/0.045)"
        model = {
            "params": {"epsilon": 0.03, "nu": 1.0, "K": 50.0, "chi": 2.0},
            "viscosity": {"variant": "constant", "eta": 0.05, "lam": 0.0},
            "sources": {"variant": "linear", "b_v": 0.25, "f_v": -0.05,
                        "b_phi": 0.25, "f_phi": -0.05, "h": 1.0},
            "sigma_inf": {"variant": "constant", "value": 1.0},
            "phi0": {"variant": "expression", "expr": disc}}
        grid = {"nx": 48, "ny": 48}
        stepping = {"dt": 1e-4, "flow_mode": "brinkman"}
    elif workload == "spinodal-darcy-64":
        model = {
            "params": {"epsilon": 0.05, "nu": 1.0, "K": 100.0, "chi": 0.0},
            "viscosity": {"variant": "constant", "eta": 0.1, "lam": 0.0},
            "sources": {"variant": "zero", "h": 1.0},
            "sigma_inf": {"variant": "constant", "value": 1.0},
            "phi0": {"variant": "random", "seed": 1000 + variant,
                     "amplitude": 0.01, "modes": 6}}
        grid = {"nx": 64, "ny": 64}
        stepping = {"dt": 2e-4, "flow_mode": "darcy"}
    else:
        raise WorkloadError(f"{workload} is not a stepping workload")
    return json.dumps({
        "grid": grid, "model": model,
        "stepping": {**stepping, "n_steps": STEPS},
        "output": {"directory": str(out_dir),
                   "field_stride": FIELD_STRIDE[workload]}}, indent=1)


def sweep_inputs(variant):
    """Study inputs of limit-sweep-64: the 64x64 set-up of ``chbrinkman
    limit-visc`` and, for the Robin study, a disc of jittered radius.

    The viscosity study keeps limit-visc's own disc: with a jittered radius
    the Darcy reference solve of that study fails in 11 of the 16 variants
    (CG stops at about 3.3e-10 against a retargeted tolerance it cannot
    reach), which would make the workload measure a failure."""
    from chbrinkman import ModelParams, ModelSpec, constant_viscosity
    from chbrinkman import zero_sources
    from chbrinkman.cli import _default_limit_setup
    from chbrinkman.model import SourceSpec, smooth_blend

    g, phi_visc = _default_limit_setup(64)
    xc, yc = g.cell_centers()
    cx, cy, r = _disc(_rng(SWEEP, variant), 0.25)
    phi_robin = np.tanh((r - np.sqrt((xc - cx)**2 + (yc - cy)**2)) / 0.1)
    mu = np.sin(np.pi * xc) * np.cos(np.pi * yc)
    sigma = 0.5 + 0.25 * np.cos(np.pi * xc)
    visc_spec = ModelSpec(
        params=ModelParams(nu=1.0, chi=0.5),
        viscosity=constant_viscosity(0.02, 0.01),
        sources=SourceSpec(b_v=smooth_blend(0.0, 0.2),
                           f_v=smooth_blend(-0.05, 0.05),
                           b_phi=smooth_blend(0.0, 0.1),
                           f_phi=smooth_blend(0.0, 0.0),
                           h=smooth_blend(0.5, 1.0)))
    robin_spec = ModelSpec(sources=zero_sources(1.0))
    return g, phi_visc, phi_robin, mu, sigma, visc_spec, robin_spec


# correctness -----------------------------------------------------------------

def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


def residual_bounds(g, prev, new, spec, cfg):
    """Largest mass_residual and div_residual that a solve meeting the
    configured relative tolerance can leave, from the step's own systems.

    Mass: the CH phi rows carry residual r1 with |sum r1| <= sqrt(N)*|r|_2 <=
    sqrt(N)*tol_ch*|b|_2, and the mass defect is vol*|sum r1|/dt.

    Divergence, Brinkman: continuity row i of the scaled residual is
    s_i*vol*(div v - Gamma_v)_i, so |div v - Gamma_v|_L2 <= tol*|b_s|_2 /
    (min s_p * sqrt(vol)).  Darcy: div v - Gamma_v = -r/nu with |r|_2 <=
    tol*|b|_2 (the program aims tighter; any solve at tol passes).
    """
    from chbrinkman import flow, stepper
    from chbrinkman.model import eval_source_gamma_v

    vol = g.cell_volume
    ch, _ = stepper.assemble_ch_system(g, replace(prev, sigma=new.sigma),
                                       spec, cfg)
    mass_bound = (vol * math.sqrt(g.n_cells) * cfg.tol_ch
                  * np.linalg.norm(ch.rhs)
                  + ROUNDOFF * vol * (np.sum(np.abs(prev.phi))
                                      + np.sum(np.abs(new.phi)))) / cfg.dt

    gamma_v = eval_source_gamma_v(spec.sources, new.phi, new.sigma)
    force = flow.brinkman_force(g, new.phi, new.mu, new.sigma, spec, None)
    vmax = max(np.max(np.abs(new.vel.x)), np.max(np.abs(new.vel.y)))
    div_bound = ROUNDOFF * vmax / min(g.dx, g.dy) * math.sqrt(g.lx * g.ly)
    if cfg.flow_mode == "brinkman":
        system, scale = flow.assemble_brinkman_system(g, new.phi, spec,
                                                      gamma_v, force)
        s_p = np.min(scale[scale.size - g.n_cells:])
        div_bound += (cfg.tol_flow * np.linalg.norm(system.rhs)
                      / (s_p * math.sqrt(vol)))
    elif cfg.flow_mode == "darcy":
        system = flow.assemble_darcy_pressure_system(g, gamma_v,
                                                     spec.params.nu, force)
        div_bound += (cfg.tol_flow * np.linalg.norm(system.rhs)
                      * math.sqrt(vol) / spec.params.nu)
    return mass_bound, div_bound


def check_step(g, prev, new, diag, spec, cfg):
    """Problems with one step's result; empty when it passes."""
    if not _finite(new.phi, new.mu, new.sigma, new.p, new.vel.x, new.vel.y,
                   diag.energy, diag.mass, diag.mass_residual,
                   diag.div_residual):
        return ["non-finite field or diagnostic"]
    mass_bound, div_bound = residual_bounds(g, prev, new, spec, cfg)
    problems = []
    if not diag.mass_residual <= mass_bound:
        problems.append(f"mass_residual {diag.mass_residual:.3e} > "
                        f"{mass_bound:.3e}")
    if not diag.div_residual <= div_bound:
        problems.append(f"div_residual {diag.div_residual:.3e} > "
                        f"{div_bound:.3e}")
    return problems


def load_reference():
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


def check_final(workload, variant, energy0, final, reference):
    """Final energy and mass against the stored reference of the variant."""
    tol = reference["tolerance"]
    ref = reference[workload][variant]
    problems = []
    if not abs(final.energy - ref["energy"]) <= tol["energy_rtol"] * abs(
            ref["energy"]):
        problems.append(f"final energy {final.energy!r} != reference "
                        f"{ref['energy']!r}")
    if not abs(final.mass - ref["mass"]) <= tol["mass_atol"]:
        problems.append(f"final mass {final.mass!r} != reference "
                        f"{ref['mass']!r}")
    if workload == "spinodal-darcy-64" and not final.energy < energy0:
        problems.append(f"energy did not fall ({energy0!r} -> "
                        f"{final.energy!r})")
    return problems


def check_csv(path, header, n_rows):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if lines[0] != header or len(lines) != n_rows + 1:
        return [f"{path.name}: wrong header or {len(lines) - 1} rows, "
                f"expected {n_rows}"]
    return []


def sha256(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# the run ---------------------------------------------------------------------

class Run:
    """Raw measurements and the outcome of every operation."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.op_times = []
        self.run_s = []
        self.cells = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.counts = []
        self.vtk_bytes = 0

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext({})

    def fail(self, problems):
        """One failed operation, with what went wrong."""
        self.failed += 1
        self.failures.extend(problems)


def stepping_episode(run, workload, variant, sim, state0, out_dir, reference):
    """One trajectory; returns the final Diagnostics, or None when a step
    failed.  ``reference=None`` skips the final-value check."""
    from chbrinkman import SolverFailure, energy, integrate_cells, step
    from chbrinkman.cli import (DIAGNOSTICS_HEADER, write_csv_diagnostics,
                                write_vtk)

    g, spec, cfg = sim.grid, sim.spec, sim.stepping
    stride = sim.field_stride
    vtk_paths = []
    iters = {"nutrient": 0, "ch": 0, "flow": 0}
    check_s = 0.0
    ok = True
    failed_steps = set()

    def fail(k, problems):
        run.failures.extend(f"step {k}: {p}" for p in problems)
        if k not in failed_steps:
            failed_steps.add(k)
            run.failed += 1

    t_start = time.perf_counter()
    state = state0
    energy0 = energy(g, state.phi, spec)
    rows = [(0, state.t, energy0, integrate_cells(g, state.phi),
             0.0, 0.0, 0.0, 0.0, 0.0, 0.0)]
    if stride:
        vtk_paths.append(out_dir / "state_000000.vtk")
        with run.span("cli.write_vtk"):
            write_vtk(state, g, str(vtk_paths[-1]))
    for k in range(1, STEPS + 1):
        t0 = time.perf_counter()
        run.attempted += 1
        try:
            with run.span("stepper.step"):
                new, diag = step(g, state, spec, cfg)
        except (SolverFailure, ValueError) as err:
            fail(k, [str(err)])
            ok = False
            break
        t1 = time.perf_counter()
        run.op_times.append(t1 - t0)
        problems = check_step(g, state, new, diag, spec, cfg)
        for name, stats in (("nutrient", diag.nutrient_stats),
                            ("ch", diag.ch_stats), ("flow", diag.flow_stats)):
            iters[name] += stats.iterations
        check_s += time.perf_counter() - t1
        if problems:
            fail(k, problems)
        state = new
        rows.append((k, state.t, diag.energy, diag.mass, diag.dissipation,
                     diag.boundary_flux, diag.source_mass, diag.div_residual,
                     diag.energy_residual, diag.mass_residual))
        if stride and k % stride == 0:
            vtk_paths.append(out_dir / f"state_{k:06d}.vtk")
            with run.span("cli.write_vtk"):
                write_vtk(state, g, str(vtk_paths[-1]))
    csv_path = out_dir / "diagnostics.csv"
    with run.span("cli.write_csv"):
        write_csv_diagnostics(rows, str(csv_path))
    run.run_s.append(time.perf_counter() - t_start - check_s)
    run.cells.append(g.n_cells * (len(rows) - 1))
    if not ok:
        return None

    problems = check_csv(csv_path, DIAGNOSTICS_HEADER, STEPS + 1)
    if reference is not None:
        problems += check_final(workload, variant, energy0, diag, reference)
    if len(vtk_paths) != (STEPS // stride + 1 if stride else 0):
        problems.append(f"{len(vtk_paths)} VTK snapshots written")
    run.vtk_bytes += sum(p.stat().st_size for p in vtk_paths)
    if problems:
        fail(STEPS, problems)
    run.counts.append({"nutrient_iters": iters["nutrient"],
                       "ch_iters": iters["ch"], "flow_iters": iters["flow"],
                       "csv_sha256": sha256([csv_path])})
    return diag


def sweep_episode(run, inputs, out_dir):
    from chbrinkman import SolverFailure, harness
    from chbrinkman.cli import write_sweep_csv

    g, phi_visc, phi_robin, mu, sigma, visc_spec, robin_spec = inputs
    n = g.n_cells
    studies = (
        ("harness.viscosity_limit", "limit_visc.csv", n * (len(SCALES) + 1),
         lambda: harness.viscosity_limit_study(g, phi_visc, mu, sigma,
                                               visc_spec, SCALES)),
        ("harness.robin_limit", "limit_k.csv", n * (len(K_VALUES) + 1),
         lambda: harness.robin_limit_study(g, phi_robin, robin_spec,
                                           K_VALUES, sigma_inf=1.0)),
        ("harness.mms_brinkman", "mms_brinkman.csv", 16**2 + 32**2 + 64**2,
         lambda: harness.mms_convergence("brinkman")),
    )
    check_s = 0.0
    paths = []
    cells = 0
    t_start = time.perf_counter()
    for name, csv_name, study_cells, study in studies:
        t0 = time.perf_counter()
        run.attempted += 1
        try:
            with run.span(name):
                result = study()
        except (SolverFailure, ValueError) as err:
            run.fail([f"{name}: {err}"])
            continue
        t1 = time.perf_counter()
        run.op_times.append(t1 - t0)
        cells += study_cells
        paths.append(out_dir / csv_name)
        with run.span("cli.write_csv"):
            write_sweep_csv(result, str(paths[-1]))
        t2 = time.perf_counter()
        header, rows = result.table()
        problems = [f"{name}: check {key} failed"
                    for key, value in result.checks.items()
                    if value is False or not math.isfinite(value)]
        problems += check_csv(paths[-1], ",".join(header), len(rows))
        check_s += time.perf_counter() - t2
        if problems:
            run.fail(problems)
    run.run_s.append(time.perf_counter() - t_start - check_s)
    run.cells.append(cells)
    run.counts.append({"csv_sha256": sha256(paths)})


# counts that must repeat exactly ---------------------------------------------

def record_counts(workload, variant, counts):
    """Compare this run's deterministic counts with those recorded by earlier
    runs of the same variant and the same sources (timed or traced), then
    add the new keys.  Returns the problems found."""
    sources = sha256(sorted((ROOT / "src").rglob("*.py")))[:16]
    path = BUILD / "counts" / f"{workload}-v{variant}-{sources}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    seen = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"count {key} = {value!r}, an earlier run recorded "
                f"{seen[key]!r}" for key, value in counts.items()
                if key in seen and seen[key] != value]
    if not problems:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**seen, **counts}, indent=1,
                                  sort_keys=True))
        os.replace(tmp, path)
    return problems


def traced_counts(spans, begin, end):
    """Iterations, nnz and matrix-vector products of the spans in one
    episode, [begin, end)."""
    counts = {"linalg_matvecs": 0}
    for name, start, _, _, attrs in spans:
        if not begin <= start < end:
            continue
        if "iters" in attrs:
            key = f"{name}_iters"
            counts[key] = counts.get(key, 0) + attrs["iters"]
        if "nnz" in attrs:
            key = f"{name.split(':', 1)[1]}_nnz"
            counts[key] = max(counts.get(key, 0), attrs["nnz"])
        counts["linalg_matvecs"] += attrs.get("matvecs", 0)
    return counts


# entry -----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    variant = args.seed % VARIANTS

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    tracer = None
    if args.trace:
        from spans import Tracer, install
        tracer = Tracer()
    import chbrinkman
    from chbrinkman import cli, initialize_state
    if not Path(chbrinkman.__file__).resolve().is_relative_to(src.resolve()):
        raise WorkloadError(f"chbrinkman imported from {chbrinkman.__file__}, "
                            f"not from {src}")
    if tracer:
        install(tracer)
    run = Run(tracer)

    out_dir = BUILD / "out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == SWEEP:
            inputs = sweep_inputs(variant)
            episode = lambda: sweep_episode(run, inputs, out_dir)  # noqa: E731
        else:
            text = stepping_config(args.workload, variant, out_dir)
            with run.span("cli.parse_config"):
                sim = cli.parse_config(text)
            state0 = initialize_state(sim.grid, sim.spec, sim.stepping)
            reference = load_reference()
            episode = lambda: stepping_episode(  # noqa: E731
                run, args.workload, variant, sim, state0, out_dir, reference)
        print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}",
              flush=True)
        if args.setup_only:
            return 0

        t_begin = time.perf_counter()
        bounds = []
        while True:
            t0 = time.perf_counter()
            episode()
            bounds.append((t0, time.perf_counter()))
            if (run.failed or bounds[-1][1] + (bounds[-1][1] - t0)
                    > t_begin + args.seconds):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if not run.failed:
        problems = []
        if any(c != run.counts[0] for c in run.counts):
            problems.append("episodes of one run gave different counts")
        counts = dict(run.counts[0])
        if tracer:
            counts.update(traced_counts(tracer.spans, *bounds[0]))
        problems += record_counts(args.workload, variant, counts)
        if problems:
            run.fail(problems)

    result = {
        "variant": variant,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures[:20],
        "op_times": run.op_times, "run_s": run.run_s, "cells": run.cells,
        "vtk_bytes": run.vtk_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        from spans import layer_metrics
        result["per_layer"] = layer_metrics(tracer.spans, t_begin,
                                            len(run.run_s))
        write_spans(tracer.spans, BUILD / "traces" / f"{args.workload}.json")
    print(json.dumps(result), flush=True)
    return 0


def write_spans(spans, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        [{"name": n, "start": s, "end": e, "parent": p, **a}
         for n, s, e, p, a in spans]))


if __name__ == "__main__":
    sys.exit(main())
