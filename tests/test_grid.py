import numpy as np
import pytest

from epiwave import PeriodicGrid, ValidationError


def test_cell_nodes_are_midpoints():
    g = PeriodicGrid(dim=1, cell_points=8, window_radius=1)
    x = g.cell_nodes[:, 0]
    assert x.shape == (8,)
    assert np.allclose(x, (np.arange(8) + 0.5) / 8.0)
    assert g.spacing == pytest.approx(0.125)
    assert g.weight == pytest.approx(0.125)


def test_window_covers_symmetric_interval():
    g = PeriodicGrid(dim=1, cell_points=8, window_radius=3)
    x = g.window_nodes[:, 0]
    assert g.n_window == 48
    assert x[0] == pytest.approx(-3.0 + g.spacing / 2.0)
    assert x[-1] == pytest.approx(3.0 - g.spacing / 2.0)
    assert np.allclose(np.diff(x), g.spacing)


def test_window_cell_map_respects_periodicity():
    g = PeriodicGrid(dim=1, cell_points=16, window_radius=2)
    fn = lambda P: np.cos(2.0 * np.pi * P[:, 0]) + 2.0
    cell_values = g.cell_field(fn)
    unfolded = g.periodic_on_window(cell_values)
    assert np.allclose(unfolded, g.window_field(fn))


def test_window_cell_map_2d():
    g = PeriodicGrid(dim=2, cell_points=8, window_radius=1)
    assert g.n_cell == 64
    assert g.n_window == 256
    fn = lambda P: np.sin(2 * np.pi * P[:, 0]) * np.cos(2 * np.pi * P[:, 1]) + 1.5
    assert np.allclose(g.periodic_on_window(g.cell_field(fn)), g.window_field(fn))


def test_ball_indices_closed_ball():
    g = PeriodicGrid(dim=1, cell_points=8, window_radius=2)
    idx = g.ball_indices(1.0)
    x = g.window_nodes[idx, 0]
    assert len(idx) == 16
    assert np.all(np.abs(x) <= 1.0)
    # every excluded node really is outside
    mask = np.zeros(g.n_window, dtype=bool)
    mask[idx] = True
    assert np.all(np.abs(g.window_nodes[~mask, 0]) > 1.0)


def test_ball_indices_2d_is_euclidean():
    g = PeriodicGrid(dim=2, cell_points=8, window_radius=2)
    idx = g.ball_indices(1.5)
    r = np.linalg.norm(g.window_nodes[idx], axis=1)
    assert np.all(r <= 1.5 + 1e-9)
    assert len(idx) < g.n_window


def test_interior_indices_margin():
    g = PeriodicGrid(dim=1, cell_points=8, window_radius=2)
    idx = g.interior_indices(1.0)
    x = g.window_nodes[idx, 0]
    assert np.all(np.abs(x) <= 1.0)
    assert len(idx) == 16


def test_rejects_bad_construction():
    with pytest.raises(ValidationError):
        PeriodicGrid(dim=3, cell_points=8, window_radius=1)
    with pytest.raises(ValidationError):
        PeriodicGrid(dim=1, cell_points=4, window_radius=1)
    with pytest.raises(ValidationError):
        PeriodicGrid(dim=1, cell_points=8, window_radius=0)


def test_ball_radius_cannot_exceed_window():
    g = PeriodicGrid(dim=1, cell_points=8, window_radius=2)
    with pytest.raises(ValidationError):
        g.ball_indices(2.5)


def test_window_node_count_is_bounded():
    from epiwave.domain.grid import MAX_WINDOW_NODES

    at_limit = PeriodicGrid(dim=1, cell_points=64, window_radius=512)
    assert at_limit.n_window == MAX_WINDOW_NODES
    for dim, cell_points, window_radius in ((1, 64, 513), (2, 129, 1),
                                            (1, 8, 10**21)):
        with pytest.raises(ValidationError, match=str(MAX_WINDOW_NODES)):
            PeriodicGrid(dim, cell_points, window_radius)


def test_cell_node_count_is_bounded():
    from epiwave.domain.grid import MAX_CELL_BYTES

    # a 1-D cell of 2,048 points takes exactly the limit
    assert PeriodicGrid(dim=1, cell_points=2048, window_radius=1).n_cell == 2048
    assert 2048**2 * 8 * (1 + 3) == MAX_CELL_BYTES
    assert PeriodicGrid(dim=2, cell_points=35, window_radius=1).n_cell == 1225
    # the last two windows hold 65,536 nodes, within the window bound
    for dim, cell_points in ((1, 2049), (2, 36), (2, 128), (1, 32768)):
        with pytest.raises(ValidationError, match=str(MAX_CELL_BYTES)):
            PeriodicGrid(dim, cell_points, 1)
