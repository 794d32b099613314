"""Span recording around the public calls into each chbrinkman layer.

The traced run replaces module attributes (the names a caller looks up at
call time) with thin wrappers, so nothing inside the package is edited: a
call from ``stepper.step`` to ``solve_brinkman`` goes through the name
``chbrinkman.stepper.solve_brinkman`` and is recorded there.

Each span is ``[name, start, end, parent_index, attrs]``; spans stay in memory
until the run ends.  Names are ``<layer>.<call>``.  Spans whose name starts
with ``assemble:`` time a *separate* call to a public ``assemble_*`` function
on the inputs of the stage that follows; that work exists only in the traced
run, so layer self times leave it out.
"""

import inspect
import time
from contextlib import contextmanager

LAYERS = ("cli", "stepper", "elliptic", "flow", "linalg", "harness")
DIAGNOSTICS = ("stepper.energy", "stepper.energy_residual",
               "stepper.mass_balance_residual", "stepper.viscous_dissipation")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, attrs]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name, fn, after=None, before=None):
        """fn with a span around each call.  ``before(bound_args)`` runs ahead
        of the span (for the separate assembly); ``after(result, attrs,
        bound_args)`` stores counts on the span."""
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = None
            if before is not None or after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            if before is not None:
                before(bound.arguments)
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, attrs, bound.arguments)
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer):
    """Wrap the public layer calls of the imported chbrinkman package."""
    from chbrinkman import elliptic, flow, harness, stepper
    from chbrinkman.model import eval_source_gamma_v

    def assembled(name, assemble):
        def before(a):
            with tracer.span("assemble:" + name) as attrs:
                out = assemble(a)
                system = out[0] if isinstance(out, tuple) else out
                attrs["nnz"] = int(system.matrix.nnz)
        return before

    def flow_inputs(a):
        gamma_v = eval_source_gamma_v(a["spec"].sources, a["phi"], a["sigma"])
        force = flow.brinkman_force(a["g"], a["phi"], a["mu"], a["sigma"],
                                    a["spec"], a["extra_force"])
        return gamma_v, force

    def brinkman_assembly(a):
        gamma_v, force = flow_inputs(a)
        return flow.assemble_brinkman_system(a["g"], a["phi"], a["spec"],
                                             gamma_v, force)

    def darcy_assembly(a):
        gamma_v, force = flow_inputs(a)
        return flow.assemble_darcy_pressure_system(
            a["g"], gamma_v, a["spec"].params.nu, force)

    def nutrient_assembly(mode):
        def assemble(a):
            return elliptic.assemble_nutrient_system(
                a["g"], a["phi"], a["spec"], a["sigma_inf"], mode,
                a["extra_rhs"])
        return assemble

    def ch_assembly(a):
        return stepper.assemble_ch_system(a["g"], a["state"], a["spec"],
                                          a["cfg"])

    def krylov(per_iteration):
        def after(result, attrs, a):
            stats = result[1]
            attrs["iters"] = stats.iterations
            attrs["matvecs"] = stats.iterations * per_iteration(a)
            attrs["converged"] = bool(stats.converged)
        return after

    stages = {
        "solve_brinkman": ("flow.brinkman", brinkman_assembly),
        "solve_darcy": ("flow.darcy", darcy_assembly),
        "solve_nutrient_robin": ("elliptic.robin", nutrient_assembly("robin")),
        "solve_nutrient_dirichlet": ("elliptic.dirichlet",
                                     nutrient_assembly("dirichlet")),
        "ch_update": ("stepper.ch", ch_assembly),
    }
    solvers = {
        # matrix-vector products per reported iteration (computed, not timed)
        "cg_solve": ("linalg.cg", lambda a: 1),
        "bicgstab_solve": ("linalg.bicgstab", lambda a: 2 * a["ell"]),
    }
    # the stages are called from stepper and harness, the solvers from
    # stepper, flow and elliptic, each through its own imported name
    for module in (stepper, harness):
        for attr, (name, assemble) in stages.items():
            if hasattr(module, attr):
                setattr(module, attr, tracer.wrap(
                    name, getattr(module, attr),
                    before=assembled(name, assemble)))
    for module in (stepper, flow, elliptic):
        for attr, (name, per_iteration) in solvers.items():
            if hasattr(module, attr):
                setattr(module, attr, tracer.wrap(
                    name, getattr(module, attr), after=krylov(per_iteration)))
    for attr in ("energy", "energy_residual", "mass_balance_residual",
                 "viscous_dissipation"):
        setattr(stepper, attr, tracer.wrap("stepper." + attr,
                                           getattr(stepper, attr)))


def self_times(spans, since=0.0):
    """Seconds per layer not covered by a child span, over spans that start
    at or after ``since``; ``assemble:`` spans and their time are left out."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, _, _) in enumerate(spans):
        if start < since or name.startswith("assemble:"):
            continue
        layer = name.split(".", 1)[0]
        out[layer] += (end - start) - child[i]
    return out


def layer_metrics(spans, since, episodes):
    """The benchmark's per-layer metrics from the spans of a traced run.

    Times and counts are per episode over the spans that start at or after
    ``since``; ``*_iters`` are mean iterations per stage call, summed over
    every Krylov solve the stage makes (the Brinkman stage re-solves with a
    tighter tolerance when its divergence residual is too large);
    ``cli.parse_config_s`` is the set-up parse, which starts before ``since``.
    """
    total, calls, iters, nnz = {}, {}, {}, {}
    solves = converged = matvecs = 0
    diagnostics = step_net = parse = 0.0
    child_assembly = [0.0] * len(spans)
    child_iters = [0] * len(spans)
    for name, start, end, parent, attrs in spans:
        if parent < 0:
            continue
        if name.startswith("assemble:"):
            child_assembly[parent] += end - start
        child_iters[parent] += attrs.get("iters", 0)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name == "cli.parse_config":
            parse += end - start
        if start < since:
            continue
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        iters[name] = iters.get(name, 0) + child_iters[i]
        nnz[name] = max(nnz.get(name, 0), attrs.get("nnz", 0))
        if "matvecs" in attrs:
            solves += 1
            converged += attrs["converged"]
            matvecs += attrs["matvecs"]
        if name in DIAGNOSTICS and (parent < 0
                                    or spans[parent][0] not in DIAGNOSTICS):
            diagnostics += end - start
        if name == "stepper.step":
            step_net += end - start - child_assembly[i]

    def t(name):
        return total.get(name, 0.0) / episodes

    def mean_iters(*names):
        n = sum(calls.get(x, 0) for x in names)
        return sum(iters.get(x, 0) for x in names) / n if n else 0.0

    out = {}
    for key, stage in (("flow.brinkman", "flow.brinkman"),
                       ("flow.darcy", "flow.darcy"),
                       ("stepper.ch", "stepper.ch")):
        out[key + "_assemble_s"] = t("assemble:" + stage)
        out[key + "_solve_s"] = t(stage) - t("assemble:" + stage)
        out[key + "_iters"] = mean_iters(stage)
    out["flow.brinkman_nnz"] = nnz.get("assemble:flow.brinkman", 0)
    out["stepper.ch_nnz"] = nnz.get("assemble:stepper.ch", 0)
    out["stepper.diagnostics_s"] = diagnostics / episodes
    steps = calls.get("stepper.step", 0)
    out["stepper.step_s"] = step_net / steps if steps else 0.0
    nutrient = ("elliptic.robin", "elliptic.dirichlet")
    out["elliptic.assemble_s"] = sum(t("assemble:" + x) for x in nutrient)
    out["elliptic.solve_s"] = sum(t(x) for x in nutrient) - out[
        "elliptic.assemble_s"]
    out["elliptic.iters"] = mean_iters(*nutrient)
    out["linalg.matvecs"] = matvecs / episodes
    out["linalg.converged_share"] = converged / solves if solves else 0.0
    for study in ("viscosity_limit", "robin_limit", "mms_brinkman"):
        out[f"harness.{study}_s"] = t("harness." + study)
    out["cli.parse_config_s"] = parse
    out["cli.write_vtk_s"] = t("cli.write_vtk")
    out["cli.write_csv_s"] = t("cli.write_csv")
    for layer, seconds in self_times(spans, since).items():
        out[layer + ".self_s"] = seconds / episodes
    return out
