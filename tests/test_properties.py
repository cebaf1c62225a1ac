"""Property-based tests (hypothesis) for the core invariants.

These randomize the tiling configuration, the grid, and the execution
interleaving, asserting the library's three load-bearing properties:

1. the diamond tessellation covers the space-time domain exactly once;
2. every generated schedule passes the dependency checker;
3. tiled execution equals the naive sweep bitwise, in any topological
   order of the tile DAG.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import TiledExecutor, TilingPlan, validate_jobs
from repro.core.diamond import enumerate_tiles
from repro.fdfd import FieldState, Grid, naive_sweep, random_coefficients

# Small-but-irregular domains: primes and non-multiples stress clipping.
ny_st = st.integers(min_value=3, max_value=21)
nz_st = st.integers(min_value=3, max_value=17)
steps_st = st.integers(min_value=1, max_value=9)
dw_st = st.sampled_from([2, 4, 6, 8])
bz_st = st.integers(min_value=1, max_value=6)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(ny=ny_st, steps=steps_st, dw=dw_st)
@settings(max_examples=40, **COMMON)
def test_tessellation_exact_cover(ny, steps, dw):
    tiles = enumerate_tiles(ny, steps, dw)
    count = np.zeros((2 * steps, ny), dtype=int)
    for tile in tiles.values():
        for row in tile.rows:
            count[row.tau, row.y_lo : row.y_hi] += 1
    assert np.all(count == 1)


@given(ny=ny_st, nz=nz_st, steps=steps_st, dw=dw_st, bz=bz_st, seed=st.integers(0, 2**16))
@settings(max_examples=40, **COMMON)
def test_any_plan_any_order_passes_checker(ny, nz, steps, dw, bz, seed):
    plan = TilingPlan.build(ny=ny, nz=nz, timesteps=steps, dw=dw, bz=bz)
    order = plan.random_topological_order(np.random.default_rng(seed))
    validate_jobs(plan.rows(order).T.tolist(), ny, nz, timesteps=steps)


@given(
    ny=st.integers(min_value=3, max_value=14),
    nz=st.integers(min_value=3, max_value=12),
    steps=st.integers(min_value=1, max_value=6),
    dw=st.sampled_from([2, 4, 6]),
    bz=st.integers(min_value=1, max_value=4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, **COMMON)
def test_tiled_equals_naive_bitwise(ny, nz, steps, dw, bz, seed):
    grid = Grid(nz=nz, ny=ny, nx=3)
    plan = TilingPlan.build(ny=ny, nz=nz, timesteps=steps, dw=dw, bz=bz)
    rng = np.random.default_rng(seed)
    coeffs = random_coefficients(grid, seed=seed % 1000)
    f_naive = FieldState(grid).fill_random(rng)
    f_tiled = f_naive.copy()
    naive_sweep(f_naive, coeffs, steps)
    TiledExecutor(f_tiled, coeffs, plan).run_interleaved(rng)
    assert f_naive.max_abs_difference(f_tiled) == 0.0


@given(
    ny=ny_st,
    steps=steps_st,
    dw=dw_st,
    data=st.data(),
)
@settings(max_examples=30, **COMMON)
def test_band_tiles_mutually_independent(ny, steps, dw, data):
    """Tiles of one band never depend on each other (they may run
    concurrently) -- checked structurally on random plans."""
    plan = TilingPlan.build(ny=ny, nz=5, timesteps=steps, dw=dw, bz=1)
    for idx in plan.tiles:
        band = idx[0] + idx[1]
        for p in plan.preds[idx]:
            assert p[0] + p[1] < band


@given(ny=ny_st, nz=nz_st, steps=steps_st, dw=dw_st, bz=bz_st)
@settings(max_examples=40, **COMMON)
def test_plan_node_count_conserved(ny, nz, steps, dw, bz):
    """Total work is invariant under tiling: sum of node-cells over all
    rows of the plan's schedule equals (2 * steps) * ny * nz."""
    plan = TilingPlan.build(ny=ny, nz=nz, timesteps=steps, dw=dw, bz=bz)
    _, y_lo, y_hi, z_lo, z_hi = plan.rows()
    total = int(((y_hi - y_lo) * (z_hi - z_lo)).sum())
    assert total == 2 * steps * ny * nz
