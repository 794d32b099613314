"""Nutrient-limited growth of a circular tumour with outflow.

A phi = +1 tumour disc sits in phi = -1 host tissue.  Nutrient diffuses in
from the boundary (Robin data sigma_inf = 1), is consumed inside the tumour,
and feeds proliferation sources; the resulting volume gain pushes material
outward through the traction-free boundary.  Diagnostics land in
tumour_diagnostics.csv and snapshots in tumour_*.vtk.

Run:  python demos/tumour_growth.py
"""

import numpy as np

import chbrinkman as chb
from chbrinkman.cli import diagnostics_row, write_csv_diagnostics, write_vtk
from chbrinkman.model import ModelParams, SourceSpec, smooth_blend

grid = chb.Grid2D(48, 48)
spec = chb.ModelSpec(
    params=ModelParams(epsilon=0.03, nu=1.0, K=50.0, chi=2.0),
    viscosity=chb.constant_viscosity(0.05, 0.0),
    sources=SourceSpec(
        # proliferation where phi ~ +1, fed by nutrient; mild apoptosis
        b_v=smooth_blend(0.0, 0.5), f_v=smooth_blend(0.0, -0.1),
        b_phi=smooth_blend(0.0, 0.5), f_phi=smooth_blend(0.0, -0.1),
        # consumption only inside the tumour phase
        h=smooth_blend(0.02, 2.0)),
    sigma_inf=1.0,
    phi0=lambda x, y: np.tanh(
        (0.2 - np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2)) / 0.045),
)
cfg = chb.StepConfig(dt=1e-4, flow_mode="brinkman")

rows = []
for k, state, diag in chb.trajectory(grid, spec, cfg, 300):
    rows.append(diagnostics_row(k, state, diag))
    if k % 100:
        continue
    area = chb.integrate_cells(grid, 0.5 * (state.phi + 1.0))
    if k == 0:
        area0 = area
        print(f"initial tumour area {area0:.4f}")
    else:
        print(f"step {k:4d}: tumour area {area:.4f} "
              f"(+{100 * (area / area0 - 1):.1f}%), "
              f"nutrient range [{state.sigma.min():.2f}, "
              f"{state.sigma.max():.2f}], outflow {diag.boundary_flux:+.2e}")
    write_vtk(state, grid, f"tumour_{k:03d}.vtk")

write_csv_diagnostics(rows, "tumour_diagnostics.csv")
print("wrote tumour_diagnostics.csv and tumour_*.vtk")
