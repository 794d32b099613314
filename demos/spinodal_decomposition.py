"""Spinodal decomposition of a near-critical mixture with Brinkman flow.

A small seeded perturbation of phi = 0 is unstable for the quartic double
well: phase domains form and coarsen while the mixture is stirred by the
flow that the chemical potential itself drives.  The script prints the
energy/mass trace (energy must fall), writes a VTK snapshot of the final
state, and saves a picture of the phase field when matplotlib is around.

Run:  python demos/spinodal_decomposition.py
"""

import numpy as np

import chbrinkman as chb
from chbrinkman.cli import write_vtk

grid = chb.Grid2D(48, 48)
spec = chb.ModelSpec(
    params=chb.ModelParams(epsilon=0.05, nu=1.0, K=100.0, chi=0.0),
    viscosity=chb.constant_viscosity(0.1, 0.0),
    sources=chb.zero_sources(1.0),
    sigma_inf=0.0,
    phi0=chb.RandomPerturbation(seed=42, amplitude=1e-2, modes=6),
)
cfg = chb.StepConfig(dt=2e-4, flow_mode="brinkman")

for k, state, diag in chb.trajectory(grid, spec, cfg, 200):
    if k == 0:
        print(f"start: energy {state.record.energy:.4f}, "
              f"mass {state.record.mass:+.2e}")
    elif k % 25 == 0:
        vmax = max(np.max(np.abs(state.vel.x)), np.max(np.abs(state.vel.y)))
        print(f"step {k:4d}: energy {diag.energy:8.4f}  "
              f"mass {diag.mass:+9.2e}  max|v| {vmax:.3f}  "
              f"phi in [{state.phi.min():+.2f}, {state.phi.max():+.2f}]")

write_vtk(state, grid, "spinodal_final.vtk")
print("wrote spinodal_final.vtk")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.figure(figsize=(5, 4))
    plt.imshow(state.phi.T, origin="lower", cmap="RdBu_r",
               extent=(0, grid.lx, 0, grid.ly), vmin=-1, vmax=1)
    plt.colorbar(label="phi")
    plt.title(f"spinodal decomposition, t = {state.t:.3f}")
    plt.tight_layout()
    plt.savefig("spinodal_final.png", dpi=130)
    print("wrote spinodal_final.png")
except ImportError:
    pass
