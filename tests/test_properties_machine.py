"""Property-based tests for the machine substrate and the cluster layer.

Complements test_properties.py (which covers the tiling core): here
hypothesis drives the LRU cache, the water-filling allocator, the
decomposition geometry and the forked rank processes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import RankLayout
from repro.fdfd import FieldState, Grid, naive_sweep, random_coefficients
from repro.machine import LRUCache, StreamEmitter
from repro.machine.simulator import _water_fill

from conftest import run_ranks

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=300
    ),
    capacity_chunks=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, **COMMON)
def test_lru_traffic_monotone_in_capacity(accesses, capacity_chunks):
    """A bigger LRU cache never causes more memory traffic (inclusion
    property of LRU on a fixed trace)."""
    size = 64

    def traffic(cap_chunks):
        c = LRUCache(cap_chunks * size)
        for key, write in accesses:
            c.access(key, size, write)
        c.flush()
        return c.stats.mem_bytes

    small = traffic(capacity_chunks)
    large = traffic(capacity_chunks * 2)
    assert large <= small


@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 20), st.booleans()), min_size=1, max_size=200
    )
)
@settings(max_examples=40, **COMMON)
def test_lru_conservation(accesses):
    """Every access is classified exactly once; dirty data is written
    back exactly once."""
    c = LRUCache(5 * 64)
    writes = 0
    for key, write in accesses:
        c.access(key, 64, write)
        writes += int(write)
    c.flush()
    s = c.stats
    assert s.accesses == len(accesses)
    # Each written chunk is flushed or evicted once per dirty episode:
    # never more write-backs than writes.
    assert s.writebacks <= writes
    assert s.mem_write_bytes == s.writebacks * 64


@given(
    n=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
@settings(max_examples=60, **COMMON)
def test_water_fill_respects_caps_and_budget(n, data):
    demands = [data.draw(st.floats(min_value=1.0, max_value=5000.0)) for _ in range(n)]
    caps = [data.draw(st.floats(min_value=1e3, max_value=1e9)) for _ in range(n)]
    bw = data.draw(st.floats(min_value=1e4, max_value=1e11))
    rates = _water_fill(demands, caps, bw)
    for r, c in zip(rates, caps):
        assert 0 <= r <= c * (1 + 1e-6)
    used = sum(r * d for r, d in zip(rates, demands))
    # Either inside the budget, or everyone is at cap (demand < supply).
    assert used <= bw * (1 + 1e-6) or all(
        abs(r - c) <= c * 1e-9 for r, c in zip(rates, caps)
    )


@given(
    nz=st.integers(min_value=4, max_value=20),
    ny=st.integers(min_value=4, max_value=20),
    nx=st.integers(min_value=4, max_value=16),
    pz=st.integers(min_value=1, max_value=3),
    py=st.integers(min_value=1, max_value=3),
    px=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=30, **COMMON)
def test_decomposition_partitions_any_grid(nz, ny, nx, pz, py, px):
    grid = Grid(nz=nz, ny=ny, nx=nx)
    if nz // pz < 2 or ny // py < 2 or nx // px < 2:
        return  # infeasible layouts are rejected elsewhere
    layout = RankLayout(grid, pz, py, px)
    owned = np.zeros(grid.shape, dtype=int)
    for sub in layout.subdomains().values():
        owned[sub.z[0]:sub.z[1], sub.y[0]:sub.y[1], sub.x[0]:sub.x[1]] += 1
    assert np.all(owned == 1)


@given(
    seed=st.integers(0, 2**16),
    pz=st.integers(min_value=1, max_value=2),
    py=st.integers(min_value=1, max_value=2),
    steps=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, **COMMON)
def test_distributed_equals_global_random(seed, pz, py, steps):
    grid = Grid(nz=6, ny=6, nx=5)
    coeffs = random_coefficients(grid, seed=seed % 97)
    f_global = FieldState(grid).fill_random(np.random.default_rng(seed))
    f_dist = f_global.copy()
    naive_sweep(f_global, coeffs, steps)
    run_ranks(RankLayout(grid, pz, py, 1), f_dist, coeffs, steps)
    assert f_global.max_abs_difference(f_dist) == 0.0


@given(
    ny=st.integers(min_value=2, max_value=10),
    nz=st.integers(min_value=2, max_value=10),
    steps=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, **COMMON)
def test_stream_emitter_lups_invariant(ny, nz, steps):
    """The emitted LUP count equals the schedule's analytical volume for
    a naive job stream, at any cache size."""
    cache = LRUCache(12345)
    em = StreamEmitter(cache, ny=ny, nz=nz, nx=3)
    n = 2 * steps
    em.emit_rows(np.arange(n) & 1, [0] * n, [ny] * n, [0] * n, [nz] * n)
    assert em.lups == ny * nz * 3 * steps
