"""Tests for the distributed-memory layer: decomposition geometry, the
communication cost model, and bitwise equality of the halo-exchanged
multi-rank run with the single-domain sweep."""

import numpy as np
import pytest

from repro.cluster import (
    CommCostModel,
    CommStats,
    DistributedTHIIM,
    RankLayout,
    candidate_layouts,
    choose_decomposition,
    step_bytes_by_axis,
)
from repro.cluster.decomposition import _split
from repro.fdfd import FieldState, Grid, naive_sweep, random_coefficients

from conftest import random_state


class TestRankLayout:
    def test_subdomains_partition_grid(self):
        grid = Grid(nz=13, ny=10, nx=9)
        layout = RankLayout(grid, pz=3, py=2, px=2)
        subs = layout.subdomains()
        assert len(subs) == 12
        total = sum(s.n_cells for s in subs.values())
        assert total == grid.n_cells
        # Ranges per axis tile exactly.
        z_ranges = sorted({s.z for s in subs.values()})
        assert z_ranges[0][0] == 0 and z_ranges[-1][1] == 13
        for (a, b), (c, d) in zip(z_ranges, z_ranges[1:]):
            assert b == c

    def test_neighbor_interior_and_edges(self):
        grid = Grid(nz=12, ny=12, nx=12)
        layout = RankLayout(grid, pz=2, py=2, px=1)
        assert layout.neighbor((0, 0, 0), 0, +1) == (1, 0, 0)
        assert layout.neighbor((1, 0, 0), 0, +1) is None
        assert layout.neighbor((0, 0, 0), 1, -1) is None

    def test_neighbor_periodic_wraps(self):
        grid = Grid(nz=12, ny=12, nx=12, periodic=(False, True, True))
        layout = RankLayout(grid, pz=1, py=2, px=1)
        assert layout.neighbor((0, 1, 0), 1, +1) == (0, 0, 0)
        # Single rank on a periodic axis wraps to itself.
        assert layout.neighbor((0, 0, 0), 2, +1) == (0, 0, 0)

    def test_own_slices_partition_the_global_arrays(self):
        grid = Grid(nz=13, ny=10, nx=9)
        touched = np.zeros(grid.shape, dtype=int)
        for sub in RankLayout(grid, 3, 2, 2).subdomains().values():
            assert touched[sub.own].shape == sub.shape
            touched[sub.own] += 1
        assert (touched == 1).all()

    def test_too_many_ranks_rejected(self):
        grid = Grid(nz=4, ny=4, nx=4)
        with pytest.raises(ValueError):
            RankLayout(grid, pz=4, py=1, px=1)
        with pytest.raises(ValueError):
            RankLayout(grid, pz=0, py=1, px=1)


class TestCommCostModel:
    def test_x_faces_most_expensive(self):
        """Section VI: the leading-dimension halo is not contiguous."""
        m = CommCostModel()
        cells = 64 * 64
        assert m.face_cost_us(cells, 2) > m.face_cost_us(cells, 1) > m.face_cost_us(cells, 0)

    def test_choose_avoids_x_axis(self):
        grid = Grid(nz=64, ny=64, nx=64)
        layout = choose_decomposition(grid, 8)
        assert layout.px == 1  # x split only as a last resort
        assert layout.n_ranks == 8

    def test_choose_thin_domain_keeps_thin_axis_undivided(self):
        """Thin dimension mapped to x: never decomposed; the others carry
        the ranks (the paper's thin-domain argument)."""
        grid = Grid(nz=128, ny=128, nx=16)
        layout = choose_decomposition(grid, 16)
        assert layout.px == 1
        assert layout.pz * layout.py == 16

    def test_surface_to_volume_improves_with_cubes(self):
        grid = Grid(nz=64, ny=64, nx=64)
        m = CommCostModel()
        slab = RankLayout(grid, pz=8, py=1, px=1)
        cube = RankLayout(grid, pz=2, py=4, px=1)
        assert m.surface_to_volume(cube) < m.surface_to_volume(slab)

    def test_choose_validation(self):
        with pytest.raises(ValueError):
            choose_decomposition(Grid(nz=4, ny=4, nx=4), 0)
        with pytest.raises(ValueError):
            choose_decomposition(Grid(nz=3, ny=3, nx=3), 64)


class TestDistributedEqualsGlobal:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2),
                                       (2, 2, 1), (2, 2, 2), (3, 2, 1)])
    def test_bitwise_equality(self, dims):
        grid = Grid(nz=9, ny=8, nx=7)
        coeffs = random_coefficients(grid, seed=5)
        f_global = random_state(grid, seed=6)
        f_dist = f_global.copy()

        naive_sweep(f_global, coeffs, 3)

        layout = RankLayout(grid, *dims)
        dist = DistributedTHIIM(layout, f_dist, coeffs)
        dist.step(3)
        gathered = dist.gather()
        assert f_global.max_abs_difference(gathered) == 0.0

    def test_periodic_x_distributed(self):
        grid = Grid(nz=8, ny=8, nx=8, periodic=(False, False, True))
        coeffs = random_coefficients(grid, seed=15)
        f_global = random_state(grid, seed=16)
        f_dist = f_global.copy()
        naive_sweep(f_global, coeffs, 2)
        layout = RankLayout(grid, 2, 1, 2)  # also decomposes the periodic axis
        dist = DistributedTHIIM(layout, f_dist, coeffs)
        dist.step(2)
        assert f_global.max_abs_difference(dist.gather()) == 0.0

    def test_periodic_undecomposed_axis(self):
        grid = Grid(nz=8, ny=8, nx=8, periodic=(False, True, False))
        coeffs = random_coefficients(grid, seed=25)
        f_global = random_state(grid, seed=26)
        f_dist = f_global.copy()
        naive_sweep(f_global, coeffs, 2)
        layout = RankLayout(grid, 2, 1, 1)  # periodic y stays on one rank
        dist = DistributedTHIIM(layout, f_dist, coeffs)
        dist.step(2)
        assert f_global.max_abs_difference(dist.gather()) == 0.0

    @pytest.mark.parametrize("dims", [(2, 1, 1), (1, 2, 1), (1, 1, 2),
                                      (3, 2, 1)])
    def test_ghosts_are_the_adjacent_global_planes(self, dims):
        """The slab geometry the simulated and the process ranks share:
        after an exchange from ``direction``, a rank's ghost plane holds
        the global plane next to its slab (wrapping on periodic axes --
        with two ranks there both faces meet the same peer), which is
        its neighbour's ``boundary`` plane."""
        grid = Grid(nz=9, ny=8, nx=6, periodic=(False, True, True))
        fields = FieldState(grid)
        cells = np.arange(grid.n_cells, dtype=np.complex128).reshape(grid.shape)
        for name in fields:
            fields[name] = cells
        layout = RankLayout(grid, *dims)
        dist = DistributedTHIIM(layout, fields, random_coefficients(grid))
        for direction in (-1, +1):
            dist._exchange(("Exy",), direction)
            for coord, rank in dist.ranks.items():
                bounds = (rank.sub.z, rank.sub.y, rank.sub.x)
                for axis in range(3):
                    if layout.neighbor(coord, axis, direction) is None:
                        continue
                    lo, hi = bounds[axis]
                    at = (hi if direction > 0 else lo - 1) % grid.shape[axis]
                    want = np.take(cells, at, axis=axis)[
                        tuple(s for a, s in enumerate(rank.sub.own) if a != axis)]
                    got = rank.fields["Exy"][rank.ghost(axis, direction)]
                    assert np.array_equal(got, want), (coord, axis, direction)
        assert dist.stats.bytes_by_axis == {
            a: b // 6 for a, b in step_bytes_by_axis(layout).items()}

    def test_comm_stats_accumulate(self):
        grid = Grid(nz=8, ny=8, nx=8)
        coeffs = random_coefficients(grid, seed=35)
        layout = RankLayout(grid, 2, 1, 1)
        dist = DistributedTHIIM(layout, random_state(grid, seed=36), coeffs)
        dist.step(2)
        # Two ranks, one internal z face: 6 arrays per half step per
        # direction-relevant rank; both half steps, 2 steps.
        assert dist.stats.messages == 2 * 2 * 6
        assert dist.stats.bytes_total == dist.stats.messages * 8 * 8 * 16
        assert dist.halo_bytes_per_step() == dist.stats.bytes_total / 2
        assert dist.stats.bytes_by_axis[0] == dist.stats.bytes_total
        assert dist.stats.bytes_by_axis[2] == 0

    def test_mismatched_grid_rejected(self):
        grid = Grid(nz=8, ny=8, nx=8)
        other = Grid(nz=10, ny=8, nx=8)
        layout = RankLayout(grid, 2, 1, 1)
        with pytest.raises(ValueError):
            DistributedTHIIM(layout, FieldState(other), random_coefficients(other))

    def test_negative_steps_rejected(self):
        grid = Grid(nz=8, ny=8, nx=8)
        layout = RankLayout(grid, 1, 1, 1)
        dist = DistributedTHIIM(layout, FieldState(grid), random_coefficients(grid))
        with pytest.raises(ValueError):
            dist.step(-1)


class TestSplitEdges:
    @pytest.mark.parametrize("n,parts", [(13, 3), (8, 4), (9, 2), (2, 1)])
    def test_contiguous_exact_partition(self, n, parts):
        ranges = _split(n, parts)
        assert len(ranges) == parts
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
        sizes = {b - a for a, b in ranges}
        assert max(sizes) - min(sizes) <= 1

    def test_remainder_goes_to_leading_ranks(self):
        assert _split(10, 3) == [(0, 4), (4, 7), (7, 10)]

    @pytest.mark.parametrize("dims", [(2, 1, 1), (1, 2, 1), (1, 1, 2)])
    def test_thin_domains_raise(self, dims):
        # 3 cells on the split axis would leave one rank a 1-cell slab,
        # too thin to host a ghost ring.
        grid = Grid(nz=3, ny=3, nx=3)
        with pytest.raises(ValueError, match="cannot feed"):
            RankLayout(grid, *dims)


class TestCommStats:
    def test_record_validates_axis(self):
        stats = CommStats()
        with pytest.raises(ValueError):
            stats.record(3, 128)
        stats.record(1, 128)
        assert stats.bytes_by_axis == {0: 0, 1: 128, 2: 0}
        assert stats.messages == 1 and stats.bytes_total == 128

    def test_merge_accumulates_and_returns_self(self):
        a, b = CommStats(), CommStats()
        a.record(0, 100)
        b.record(0, 10)
        b.record(2, 5)
        out = a.merge(b)
        assert out is a
        assert a.messages == 3 and a.bytes_total == 115
        assert a.bytes_by_axis == {0: 110, 1: 0, 2: 5}

    def test_dict_round_trip(self):
        stats = CommStats()
        stats.record(2, 48)
        stats.record(2, 48)
        again = CommStats.from_dict(stats.to_dict())
        assert again.messages == stats.messages
        assert again.bytes_by_axis == stats.bytes_by_axis


class TestCandidateLayouts:
    def test_sorted_by_model_cost_and_pick_is_first(self):
        grid = Grid(nz=24, ny=12, nx=12)
        ranked = candidate_layouts(grid, 4)
        costs = [c for c, _ in ranked]
        assert costs == sorted(costs)
        assert ranked[0][1] == choose_decomposition(grid, 4)
        assert all(layout.n_ranks == 4 for _, layout in ranked)

    def test_infeasible_count_raises(self):
        with pytest.raises(ValueError):
            candidate_layouts(Grid(nz=3, ny=3, nx=3), 64)

    def test_x_halo_bytes_match_cost_model(self):
        """The non-contiguous x halo's byte count: 6 arrays per half
        step per internal face, complex128 -- measured traffic of the
        simulated ranks equals the model's per-step figure exactly."""
        grid = Grid(nz=8, ny=8, nx=10)
        layout = RankLayout(grid, 1, 1, 2)
        expected = step_bytes_by_axis(layout)
        assert expected[2] == 2 * 6 * 8 * 8 * 16  # both directions
        dist = DistributedTHIIM(layout, random_state(grid, seed=46),
                                random_coefficients(grid, seed=45))
        steps = 3
        dist.step(steps)
        assert dist.stats.bytes_by_axis[2] == steps * expected[2]
        assert dist.stats.bytes_by_axis[0] == dist.stats.bytes_by_axis[1] == 0

    def test_bytes_by_axis_covers_every_internal_face(self):
        grid = Grid(nz=20, ny=10, nx=10, periodic=(False, True, True))
        layout = RankLayout(grid, 2, 2, 1)
        expected = step_bytes_by_axis(layout)
        dist = DistributedTHIIM(layout, random_state(grid, seed=56),
                                random_coefficients(grid, seed=55))
        dist.step(2)
        assert dist.stats.bytes_by_axis == {a: 2 * b
                                            for a, b in expected.items()}
