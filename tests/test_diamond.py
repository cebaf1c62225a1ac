"""Tests for the diamond tessellation geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diamond import (
    DiamondTile,
    RowSpan,
    enumerate_tiles,
    node_tile_index,
)


def all_nodes(tiles):
    """Flatten a tile set into {(tau, y, is_h): count}."""
    seen = {}
    for tile in tiles.values():
        for row in tile.rows:
            for y in range(row.y_lo, row.y_hi):
                key = (row.tau, y, row.is_h)
                seen[key] = seen.get(key, 0) + 1
    return seen


def _tile_rows(i, j, dw, ny, total_substeps):
    """Row spans of tile (i, j) from the membership inequalities, clipped
    to the domain: the per-cell construction `enumerate_tiles` used before
    it translated one template per ``dw``, kept as its oracle."""
    rows = []
    two_dw = 2 * dw
    tau_lo = max((i + j) * dw, 0)
    tau_hi = min((i + j + 2) * dw - 1, total_substeps - 1)
    for tau in range(tau_lo, tau_hi + 1):
        # P = 2p constraints: closed/open bounds from u, open/closed from v.
        p_lo = max(two_dw * i - tau, tau - two_dw * (j + 1) + 1)
        p_hi = min(two_dw * (i + 1) - tau - 1, tau - two_dw * j)
        if p_lo > p_hi:
            continue
        parity = 1 if tau % 2 == 0 else 0  # H rows have odd P = 2y + 1
        # Smallest P >= p_lo with the right parity.
        first = p_lo + ((parity - p_lo) % 2)
        if first > p_hi:
            continue
        if parity:  # H: y = (P - 1) / 2
            y_lo = (first - 1) // 2
            y_hi = (p_hi - 1) // 2 + 1
        else:  # E: y = P / 2
            y_lo = first // 2
            y_hi = p_hi // 2 + 1
        y_lo = max(y_lo, 0)
        y_hi = min(y_hi, ny)
        if y_lo < y_hi:
            rows.append(RowSpan(tau, y_lo, y_hi))
    return rows


def _enumerate_per_cell(ny, timesteps, dw):
    """Every cell of the index bounding box, empty ones dropped: u = (tau +
    P)/2 in [0, timesteps + ny), v = (tau - P)/2 in (-ny, timesteps)."""
    tiles = {}
    for i in range((timesteps + ny) // dw + 2):
        for j in range(-((ny + dw - 1) // dw) - 1, timesteps // dw + 2):
            rows = _tile_rows(i, j, dw, ny, 2 * timesteps)
            if rows:
                tiles[(i, j)] = DiamondTile(i=i, j=j, dw=dw, rows=tuple(rows))
    return tiles


class TestTessellation:
    @given(ny=st.integers(1, 40), timesteps=st.integers(1, 30),
           dw=st.integers(1, 12).map(lambda k: 2 * k))
    @settings(max_examples=150, deadline=None)
    def test_templated_enumeration_equals_per_cell(self, ny, timesteps, dw):
        """Translating one template per ``dw`` over the non-empty cells
        gives the per-cell tessellation, tile for tile and in the same
        dict order (``pack_dag`` and ``fifo_order`` depend on it)."""
        got = enumerate_tiles(ny, timesteps, dw)
        want = _enumerate_per_cell(ny, timesteps, dw)
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize(
        "ny,T,dw", [(8, 4, 2), (12, 6, 4), (16, 8, 4), (10, 10, 6), (7, 3, 4), (20, 5, 8)]
    )
    def test_exact_cover(self, ny, T, dw):
        """Every (tau, y) node appears in exactly one tile."""
        tiles = enumerate_tiles(ny, T, dw)
        seen = all_nodes(tiles)
        expected = {(tau, y, tau % 2 == 0) for tau in range(2 * T) for y in range(ny)}
        assert set(seen) == expected
        assert all(v == 1 for v in seen.values())

    def test_node_tile_index_agrees(self):
        ny, T, dw = 12, 6, 4
        tiles = enumerate_tiles(ny, T, dw)
        for idx, tile in tiles.items():
            for row in tile.rows:
                for y in range(row.y_lo, row.y_hi):
                    assert node_tile_index(row.tau, y, row.is_h, dw) == idx

    def test_total_node_count(self):
        ny, T, dw = 16, 8, 4
        tiles = enumerate_tiles(ny, T, dw)
        assert sum(t.n_nodes for t in tiles.values()) == 2 * T * ny


class TestInteriorDiamondShape:
    """The paper's Fig. 2 diamond: E vertex bottom and top, H footprint
    D_w, E footprint D_w - 1, area D_w^2 / 2 LUPs."""

    @pytest.fixture
    def interior(self):
        tiles = enumerate_tiles(ny=40, timesteps=20, dw=4)
        inner = [t for t in tiles.values() if t.is_interior]
        assert inner
        return inner[0]

    def test_starts_and_ends_with_e(self, interior):
        assert interior.rows[0].field == "E"
        assert interior.rows[-1].field == "E"

    def test_height_is_dw_full_steps(self, interior):
        # 2*Dw - 1 sub-steps from the bottom E row to the top E row.
        assert interior.tau_hi - interior.tau_lo == 2 * interior.dw - 2

    def test_footprints(self, interior):
        dw = interior.dw
        h_rows = [r for r in interior.rows if r.is_h]
        e_rows = [r for r in interior.rows if not r.is_h]
        h_lo = min(r.y_lo for r in h_rows)
        h_hi = max(r.y_hi for r in h_rows)
        e_lo = min(r.y_lo for r in e_rows)
        e_hi = max(r.y_hi for r in e_rows)
        assert h_hi - h_lo == dw          # Eq. 12: H written at width Dw
        assert e_hi - e_lo == dw - 1      # Eq. 12: E written at width Dw-1

    def test_area_dw_squared_over_two(self, interior):
        assert interior.lups == pytest.approx(interior.dw**2 / 2)

    def test_vertex_rows_are_single_width(self, interior):
        assert interior.rows[0].width == 1
        assert interior.rows[-1].width == 1

    def test_widths_unimodal(self, interior):
        widths = [r.width for r in interior.rows]
        peak = widths.index(max(widths))
        assert all(widths[k] <= widths[k + 1] for k in range(peak))
        assert all(widths[k] >= widths[k + 1] for k in range(peak, len(widths) - 1))

    @pytest.mark.parametrize("dw", [2, 4, 6, 8, 12, 16])
    def test_all_paper_widths(self, dw):
        tiles = enumerate_tiles(ny=4 * dw, timesteps=3 * dw, dw=dw)
        inner = [t for t in tiles.values() if t.is_interior]
        assert inner
        for t in inner:
            assert t.lups == pytest.approx(dw**2 / 2)
            assert t.rows[0].field == "E" and t.rows[-1].field == "E"


class TestDAGStructure:
    def test_band_is_monotone_under_deps(self):
        tiles = enumerate_tiles(ny=16, timesteps=8, dw=4)
        for tile in tiles.values():
            for p in tile.predecessors():
                if p in tiles:
                    assert tiles[p].band < tile.band

    def test_same_band_tiles_disjoint_in_y_per_substep(self):
        """Concurrent (same band) tiles never write the same (tau, y)."""
        tiles = enumerate_tiles(ny=32, timesteps=8, dw=4)
        by_band = {}
        for tile in tiles.values():
            by_band.setdefault(tile.band, []).append(tile)
        for band_tiles in by_band.values():
            seen = set()
            for t in band_tiles:
                for row in t.rows:
                    for y in range(row.y_lo, row.y_hi):
                        key = (row.tau, y)
                        assert key not in seen
                        seen.add(key)


class TestValidation:
    @pytest.mark.parametrize("dw", [0, 1, 3, 5, -2])
    def test_bad_dw_rejected(self, dw):
        with pytest.raises(ValueError):
            enumerate_tiles(8, 4, dw)

    def test_bad_domain_rejected(self):
        with pytest.raises(ValueError):
            enumerate_tiles(0, 4, 2)
        with pytest.raises(ValueError):
            enumerate_tiles(8, 0, 2)

    def test_rowspan_properties(self):
        r = RowSpan(tau=4, y_lo=2, y_hi=5)
        assert r.is_h and r.field == "H" and r.width == 3 and r.time_step == 2
        r = RowSpan(tau=7, y_lo=0, y_hi=1)
        assert not r.is_h and r.field == "E" and r.time_step == 3
