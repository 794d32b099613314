"""The traced benchmark run (perfbench/spans.py) binds package names by
module attribute, and perfbench/workload.py imports the study inputs from the
package; a refactor that renames or drops one breaks the benchmark.  The
tracer patches modules in place, so it runs in a subprocess.  The gate that
every untraced benchmark step passes (perfbench/workload.py's check_step)
re-assembles the step's systems, so it is run here on real steps too."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chbrinkman import (Grid2D, ModelSpec, RandomPerturbation, StepConfig,
                        initialize_state, step)

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import spans
tracer = spans.Tracer()
spans.install(tracer)
from chbrinkman import (Grid2D, ModelSpec, RandomPerturbation, StepConfig,
                        initialize_state, step)
g = Grid2D(8, 8)
spec = ModelSpec(phi0=RandomPerturbation(seed=1, amplitude=0.1),
                 sigma_inf=1.0)
for mode in ("brinkman", "darcy"):
    cfg = StepConfig(dt=1e-4, flow_mode=mode)
    state = initialize_state(g, spec, cfg)
    for _ in range(2):
        state, _ = step(g, state, spec, cfg)
stepping = len(tracer.spans)
# limit-sweep-64's inputs and its two limit studies, at 8x8
import workload
workload.sweep_inputs(0)
from chbrinkman import harness
from chbrinkman.cli import limit_k_problem, limit_visc_problem
harness.robin_limit_study(*limit_k_problem(8), workload.K_VALUES)
harness.viscosity_limit_study(*limit_visc_problem(8), workload.SCALES)
children = ({}, {})   # per part: the names of each span's children
for i, (name, _, _, parent, _) in enumerate(tracer.spans):
    if parent >= 0:
        children[i >= stepping].setdefault(tracer.spans[parent][0],
                                           set()).add(name)
print(json.dumps({"names": sorted({s[0] for s in tracer.spans[:stepping]}),
                  "sweep": sorted({s[0] for s in tracer.spans[stepping:]}),
                  "children": [{k: sorted(v) for k, v in part.items()}
                               for part in children],
                  "diagnostics": spans.DIAGNOSTICS,
                  "metrics": spans.layer_metrics(tracer.spans, 0.0, 1)}))
"""


def test_traced_benchmark_run_binds_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert {"assemble:flow.brinkman", "assemble:flow.darcy",
            "assemble:stepper.ch", "assemble:elliptic.robin",
            "linalg.bicgstab"} <= set(out["names"])
    # stepper calls every diagnostic the benchmark times through the name
    # the tracer wraps, so stepper.diagnostics_s covers them all
    assert len(out["diagnostics"]) == 4
    assert set(out["diagnostics"]) <= set(out["names"])
    # the harness studies call the traced stages by their module names
    assert {"assemble:elliptic.dirichlet", "assemble:flow.darcy",
            "flow.brinkman"} <= set(out["sweep"])
    assert out["metrics"] and all(math.isfinite(v)
                                  for v in out["metrics"].values())
    # the solver wrappers still find the iteration counts and the keywords
    # that turn them into matrix-vector products
    assert out["metrics"]["linalg.matvecs"] > 0
    assert out["metrics"]["flow.brinkman_iters"] > 0
    # every solving stage runs its Krylov solve through the wrapped solver
    # name, so each stage's *_iters counts that solve's iterations
    stepping, sweep = out["children"]
    for stage in ("flow.brinkman", "flow.darcy", "elliptic.robin",
                  "stepper.ch"):
        assert "linalg.bicgstab" in stepping[stage], stage
    assert "linalg.bicgstab" in sweep["elliptic.dirichlet"]


@pytest.mark.parametrize("flow_mode", ["brinkman", "darcy"])
def test_benchmark_gate_passes_a_step(flow_mode):
    # the gate's residual bounds come from the step's CH, Brinkman and Darcy
    # assemblies and the Brinkman force: correct steps pass it.  Over five
    # steps the Brinkman solve starts from up to four earlier flows, and
    # the constant-coefficient assemblies return their kept operators
    spec_file = importlib.util.spec_from_file_location(
        "workload", ROOT / "perfbench" / "workload.py")
    workload = importlib.util.module_from_spec(spec_file)
    spec_file.loader.exec_module(workload)
    g = Grid2D(8, 8)
    spec = ModelSpec(phi0=RandomPerturbation(seed=1, amplitude=0.1),
                     sigma_inf=1.0)
    cfg = StepConfig(dt=1e-4, flow_mode=flow_mode)
    prev = initialize_state(g, spec, cfg)
    for _ in range(5):
        new, diag = step(g, prev, spec, cfg)
        assert workload.check_step(g, prev, new, diag, spec, cfg) == []
        prev = new
    assert len(prev.flows) == (4 if flow_mode == "brinkman" else 0)
