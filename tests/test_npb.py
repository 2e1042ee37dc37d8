"""Tests for the NAS multi-zone benchmark substrate."""

import numpy as np
import pytest

from repro.npb import (
    BTMZ_RATIO,
    CLASS_PARAMS,
    NPBConfig,
    btmz_zones,
    build_npb_step_graph,
    npb_zone_grid,
    spmz_zones,
)


class TestZoneGrids:
    @pytest.mark.parametrize("cls,zones", [("S", 4), ("A", 16), ("C", 256), ("D", 1024)])
    def test_zone_counts(self, cls, zones):
        assert spmz_zones(cls).num_zones == zones
        assert btmz_zones(cls).num_zones == zones

    def test_spmz_zones_equal(self):
        grid = spmz_zones("C")
        assert grid.imbalance() < 1.1

    def test_btmz_zones_graded(self):
        grid = btmz_zones("C")
        # the published ~20x size imbalance between largest and smallest zone
        assert 8 <= grid.imbalance() <= 60
        widths = sorted({z.nx for z in grid.zones})
        assert widths[-1] / widths[0] == pytest.approx(BTMZ_RATIO**0.5, rel=0.5)

    @pytest.mark.parametrize("cls", ["S", "W", "A", "B", "C", "D"])
    def test_points_conserved(self, cls):
        nx, ny, nz, gx, gy, _steps = CLASS_PARAMS[cls]
        for grid in (spmz_zones(cls), btmz_zones(cls)):
            assert grid.total_points() == nx * ny * nz

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            spmz_zones("Z")

    def test_neighbours_periodic(self):
        grid = spmz_zones("A")  # 4x4 zones
        corner = grid.zone_at(0, 0)
        nbs = grid.neighbours(corner)
        assert len(nbs) == 4
        coords = {(z.ix, z.iy) for z, _axis in nbs}
        assert (3, 0) in coords  # wrap-around in x
        assert (0, 3) in coords  # wrap-around in y

    def test_zone_geometry(self):
        grid = spmz_zones("A")
        z = grid.zones[0]
        assert z.points == z.nx * z.ny * z.nz
        assert z.face_points("x") == z.ny * z.nz
        assert z.face_points("y") == z.nx * z.nz
        with pytest.raises(ValueError):
            z.face_points("z")


class TestPrograms:
    def test_one_task_per_zone(self):
        cfg = NPBConfig("SP", "A")
        graph, grid = build_npb_step_graph(cfg)
        assert len(graph) == grid.num_zones

    def test_all_tasks_independent(self):
        graph, _ = build_npb_step_graph(NPBConfig("SP", "S"))
        tasks = graph.tasks
        for i, a in enumerate(tasks):
            for b in tasks[i + 1:]:
                assert graph.independent(a, b)

    def test_work_proportional_to_zone_size(self):
        graph, grid = build_npb_step_graph(NPBConfig("BT", "A"))
        tasks = {t.meta["zone"].id: t for t in graph}
        big = max(grid.zones, key=lambda z: z.points)
        small = min(grid.zones, key=lambda z: z.points)
        ratio = tasks[big.id].work / tasks[small.id].work
        assert ratio == pytest.approx(big.points / small.points)

    def test_bt_heavier_than_sp(self):
        sp, _ = build_npb_step_graph(NPBConfig("SP", "A"))
        bt, _ = build_npb_step_graph(NPBConfig("BT", "A"))
        assert sum(t.work for t in bt) > sum(t.work for t in sp)

    def test_comm_scopes(self):
        graph, _ = build_npb_step_graph(NPBConfig("SP", "S"))
        t = graph.tasks[0]
        scopes = {c.scope for c in t.comm}
        assert scopes == {"group", "orthogonal"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NPBConfig("LU", "C")

    def test_grid_factory(self):
        assert npb_zone_grid(NPBConfig("SP", "A")).name == "SP-MZ.A"
        assert npb_zone_grid(NPBConfig("BT", "A")).name == "BT-MZ.A"


# ----------------------------------------------------------------------
# the oracle: the multi-zone pattern executed on real numbers.  A 2-D
# Jacobi sweep (the structural skeleton of one SP/BT time step) runs
# zone by zone with explicit border exchanges over the periodic zone
# grid; it must equal the same operator on the undecomposed array, and
# the ghost lines it moves are the faces the cost model charges.
# ----------------------------------------------------------------------
def _offsets(grid):
    """Start index of every zone column and row; the last entry is the
    global extent."""
    xs = np.cumsum([0] + [grid.zone_at(ix, 0).nx for ix in range(grid.grid_x)])
    ys = np.cumsum([0] + [grid.zone_at(0, iy).ny for iy in range(grid.grid_y)])
    return xs, ys


def split_field(grid, array):
    """Zone id -> ``(nx, ny)`` subarray of a global ``(NX, NY)`` array."""
    xs, ys = _offsets(grid)
    if array.shape != (xs[-1], ys[-1]):
        raise ValueError(f"array shape {array.shape} != zone grid extent")
    return {
        z.id: array[xs[z.ix] : xs[z.ix] + z.nx, ys[z.iy] : ys[z.iy] + z.ny].copy()
        for z in grid.zones
    }


def assemble_field(grid, chunks):
    """Inverse of :func:`split_field`."""
    xs, ys = _offsets(grid)
    out = np.empty((xs[-1], ys[-1]))
    for z in grid.zones:
        out[xs[z.ix] : xs[z.ix] + z.nx, ys[z.iy] : ys[z.iy] + z.ny] = chunks[z.id]
    return out


def multizone_smooth(grid, chunks, steps=1):
    """``steps`` sweeps, each a border exchange then independent zone
    updates; returns the new chunks and the ghost bytes exchanged."""
    nbytes = 0
    for _ in range(steps):
        new = {}
        for z in grid.zones:
            left = chunks[grid.zone_at((z.ix - 1) % grid.grid_x, z.iy).id][-1, :]
            right = chunks[grid.zone_at((z.ix + 1) % grid.grid_x, z.iy).id][0, :]
            down = chunks[grid.zone_at(z.ix, (z.iy - 1) % grid.grid_y).id][:, -1]
            up = chunks[grid.zone_at(z.ix, (z.iy + 1) % grid.grid_y).id][:, 0]
            nbytes += left.nbytes + right.nbytes + down.nbytes + up.nbytes
            p = np.empty((z.nx + 2, z.ny + 2))
            p[1:-1, 1:-1] = chunks[z.id]
            p[0, 1:-1], p[-1, 1:-1], p[1:-1, 0], p[1:-1, -1] = left, right, down, up
            new[z.id] = (
                p[1:-1, 1:-1] + p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
            ) / 5.0
        chunks = new
    return chunks, nbytes


def global_smooth(array, steps=1):
    """The same Jacobi sweep on the undecomposed array (periodic)."""
    out = array.copy()
    for _ in range(steps):
        out = (
            out
            + np.roll(out, 1, axis=0)
            + np.roll(out, -1, axis=0)
            + np.roll(out, 1, axis=1)
            + np.roll(out, -1, axis=1)
        ) / 5.0
    return out


class TestFunctionalMultizone:
    """Numerical validation of the zone decomposition: a multi-zone
    Jacobi sweep with border exchanges equals the global operator."""

    def _grid_and_array(self, maker, cls="S"):
        grid = maker(cls)
        xs, ys = _offsets(grid)
        rng = np.random.default_rng(42)
        return grid, rng.standard_normal((xs[-1], ys[-1]))

    @pytest.mark.parametrize("maker", [spmz_zones, btmz_zones])
    def test_matches_global_reference(self, maker):
        grid, arr = self._grid_and_array(maker)
        out, _ = multizone_smooth(grid, split_field(grid, arr), steps=3)
        np.testing.assert_allclose(
            assemble_field(grid, out), global_smooth(arr, steps=3), atol=1e-12
        )

    def test_split_assemble_roundtrip(self):
        grid, arr = self._grid_and_array(btmz_zones)
        np.testing.assert_array_equal(assemble_field(grid, split_field(grid, arr)), arr)

    def test_border_bytes_match_face_model(self):
        grid, arr = self._grid_and_array(spmz_zones)
        _, nbytes = multizone_smooth(grid, split_field(grid, arr), steps=1)
        # the faces build_npb_step_graph charges, one z-plane of 8-byte values
        expected = sum(
            z.face_points(axis) // z.nz * 8
            for z in grid.zones
            for _, axis in grid.neighbours(z)
        )
        assert nbytes == expected

    def test_shape_validation(self):
        grid, arr = self._grid_and_array(spmz_zones)
        with pytest.raises(ValueError):
            split_field(grid, arr[:-1, :])
