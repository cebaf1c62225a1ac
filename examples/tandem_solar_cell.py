#!/usr/bin/env python3
"""The paper's motivating workload (Fig. 1): a tandem thin-film solar
cell with textured interfaces and SiO2 nano-particle scatterers on the
silver back contact.

Builds the full layer stack -- glass superstrate, ZnO front electrode,
amorphous-silicon top cell, microcrystalline-silicon bottom cell,
ZnO buffer, silver back contact with embedded SiO2 spheres -- with
etched (rough) interfaces for light trapping, and iterates THIIM to the
time-harmonic state.  Reports the per-layer absorption balance, the
quantity a photovoltaic optimization loop maximizes.

The silver layer has negative real permittivity; those cells take the
THIIM back iteration automatically (Eq. 5 of the paper) -- no auxiliary
differential equations needed.

Run:  python examples/tandem_solar_cell.py          (about a minute)
"""

import numpy as np

from repro.fdfd import (
    A_SI_H,
    GLASS,
    SILVER,
    SIO2,
    TCO_ZNO,
    UC_SI_H,
    Grid,
    PMLSpec,
    PlaneWaveSource,
    Scene,
    THIIMSolver,
    absorbed_power,
    poynting_flux_z,
    rough_texture,
)


def build_cell(nz: int) -> Scene:
    """The Fig. 1 stack, top (low z) to bottom (high z), in grid cells."""
    scene = Scene(background=GLASS)
    etch_a = rough_texture(amplitude=1.5, correlation=6, seed=11)
    etch_b = rough_texture(amplitude=2.0, correlation=8, seed=23)
    scene.add_layer(TCO_ZNO, 24, 30)                      # front electrode
    scene.add_layer(A_SI_H, 30, 36, texture=etch_a)       # top absorber (thin)
    scene.add_layer(UC_SI_H, 36, 66, texture=etch_b)      # bottom absorber
    scene.add_layer(TCO_ZNO, 66, 70)                      # buffer
    scene.add_layer(SILVER, 70, nz)                       # back contact
    # SiO2 nano-particles at the Ag interface for extra scattering.
    rng = np.random.default_rng(7)
    for _ in range(4):
        cy, cx = rng.uniform(4, 20, size=2)
        scene.add_sphere(SIO2, center=(70.0, float(cy), float(cx)), radius=2.5)
    return scene


def main() -> None:
    grid = Grid(nz=96, ny=24, nx=24, periodic=(False, True, True))
    wavelength = 18.0
    omega = 2 * np.pi / wavelength
    scene = build_cell(grid.nz)

    solver = THIIMSolver(
        grid,
        omega,
        scene=scene,
        source=PlaneWaveSource(z_plane=14, amplitude=1.0, z_width=2.0),
        pml={"z": PMLSpec(thickness=10)},
        supersample=1,
    )
    print("material volume fractions:")
    for name, frac in sorted(scene.material_volume_fractions(grid).items()):
        print(f"  {name:10s} {100 * frac:5.1f}%")
    assert solver.coefficients.back_mask is not None, "Ag must trigger back iteration"
    # The mask has the contracted permittivity's shape: count grid cells.
    n_back = int(np.sum(np.broadcast_to(solver.coefficients.back_mask, grid.shape)))
    print(f"back-iteration cells (Re eps < 0): {n_back} "
          f"({100 * n_back / grid.n_cells:.1f}% of the grid)")

    result = solver.solve(tol=1e-4, max_steps=4000, check_every=100)
    print(f"\nTHIIM: {'converged' if result.converged else 'NOT converged'} "
          f"after {result.iterations} steps (residual {result.residual:.2e})")

    incident = poynting_flux_z(solver.fields, 18)
    print(f"\nincident power (below source): {incident:.4f}")
    print(f"{'layer':12s} {'absorbed':>10s} {'share':>7s}")
    total = 0.0
    for name in ("ZnO", "a-Si:H", "uc-Si:H", "Ag"):
        mask = solver.material_mask(name)
        p = absorbed_power(solver.fields, solver.sigma, mask=mask)
        total += p
        print(f"{name:12s} {p:10.4f} {100 * p / incident:6.1f}%")
    print(f"{'total':12s} {total:10.4f} {100 * total / incident:6.1f}%")

    useful = sum(
        absorbed_power(solver.fields, solver.sigma, mask=solver.material_mask(n))
        for n in ("a-Si:H", "uc-Si:H")
    )
    print(f"\nuseful (photocurrent) fraction of absorbed power: "
          f"{100 * useful / total:.1f}%")
    print("(parasitic absorption in ZnO and Ag is what texture/particle "
          "optimization sweeps try to minimize -- each sweep point is one "
          "of the thousands of runs the paper's optimization accelerates)")


if __name__ == "__main__":
    main()
