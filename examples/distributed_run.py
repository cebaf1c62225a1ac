#!/usr/bin/env python3
"""Distributed-memory THIIM over forked rank processes (Section VI geometry).

Decomposes a solar-cell solve over a Cartesian process grid, runs it on
one forked process per rank (halos through shared memory), verifies
bit-exactness against the single-domain sweep, and reports the
communication profile -- including the paper's
Section VI argument in numbers: the x-face halos are the expensive ones,
and a thin domain mapped to x avoids decomposing it entirely.

Run:  python examples/distributed_run.py
"""

import numpy as np

from repro.cluster import CommCostModel, choose_decomposition, run_distributed
from repro.fdfd import (
    A_SI_H,
    Grid,
    PMLSpec,
    PlaneWaveSource,
    Scene,
    THIIMSolver,
    naive_sweep,
)


def main() -> None:
    grid = Grid(nz=48, ny=16, nx=12)
    omega = 2 * np.pi / 12.0
    scene = Scene().add_layer(A_SI_H, 24, 40)
    solver = THIIMSolver(
        grid, omega, scene=scene,
        source=PlaneWaveSource(z_plane=10, z_width=2.0),
        pml={"z": PMLSpec(thickness=8)},
    )

    # -- choose a decomposition ------------------------------------------------
    n_ranks = 8
    layout = choose_decomposition(grid, n_ranks)
    print(f"decomposition of {grid.shape} over {n_ranks} ranks: "
          f"(pz, py, px) = {layout.dims}")
    cost = CommCostModel()
    print(f"  worst-rank halo cost per half step: {cost.step_cost_us(layout):.1f} us, "
          f"surface/volume = {cost.surface_to_volume(layout):.3f}")

    # -- run distributed and verify against the global sweep --------------------
    steps = 30
    reference = solver.fields.copy()
    naive_sweep(reference, solver.coefficients, steps)

    # A tolerance nothing reaches and one check at the end: exactly
    # ``steps`` sweeps on the ranks, gathered into ``solver.fields``.
    result, info = run_distributed(layout, solver, tol=1e-300,
                                   max_steps=steps, check_every=steps)
    assert result.iterations == steps
    diff = reference.max_abs_difference(solver.fields)
    print(f"\n{info['ranks']} rank processes vs single-domain after "
          f"{steps} steps: max |diff| = {diff:.1e}")
    assert diff == 0.0, "halo exchange must reproduce the global sweep exactly"
    print("OK: halo-exchanged run is bit-exact.")

    halo = info["halo"]
    print(f"halo traffic: {halo['messages']} messages, "
          f"{halo['bytes_total'] / 2**20:.2f} MiB total "
          f"({halo['bytes_total'] / steps / 2**10:.1f} KiB/step)")
    for axis, label in ((0, "z (contiguous)"), (1, "y (row-strided)"), (2, "x (element-strided)")):
        print(f"  axis {label:22s}: {halo['bytes_by_axis'][str(axis)] / 2**10:9.1f} KiB")

    # -- the thin-domain argument -----------------------------------------------
    print("\nthin-domain decomposition (Section VI):")
    thin_on_x = Grid(nz=128, ny=128, nx=16)
    thin_on_z = Grid(nz=16, ny=128, nx=128)
    for label, g in (("thin dim -> x", thin_on_x), ("thin dim -> z", thin_on_z)):
        lay = choose_decomposition(g, 16)
        print(f"  {label}: dims={lay.dims}, halo cost "
              f"{cost.step_cost_us(lay):.1f} us/half-step, "
              f"S/V={cost.surface_to_volume(lay):.3f}")
    print("mapping the thin dimension to the leading (x) axis keeps it "
          "undecomposed -- no strided halos -- as the paper recommends.")


if __name__ == "__main__":
    main()
