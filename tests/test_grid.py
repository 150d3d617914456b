import numpy as np
import pytest

from chantrack.grid import GridSpec, cell_center, cell_index, reconstruction_matrix


@pytest.fixture
def bench_grid():
    return GridSpec(lower=(0.0, 25.0), upper=(4.0, 25.6), cells=(30, 30))


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0,), (0.0,), (2,))
    with pytest.raises(ValueError):
        GridSpec((0.0,), (1.0,), (0,))
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0), (2.0,), (2, 2))
    g = GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30))
    assert g.n_cells == 900
    assert np.allclose(g.widths, [4 / 30, 0.6 / 30])


def test_cell_center_examples():
    g1 = GridSpec((0.0,), (1.0,), (2,))
    assert cell_center(g1, 0) == pytest.approx(0.25)
    assert cell_center(g1, 1) == pytest.approx(0.75)
    g2 = GridSpec((0.0,), (4.0,), (4,))
    assert cell_center(g2, 3) == pytest.approx(3.5)


def test_cell_center_bench_grid(bench_grid):
    w1, w2 = 4 / 30, 0.6 / 30
    assert np.allclose(cell_center(bench_grid, 0), [w1 / 2, 25.0 + w2 / 2], rtol=0, atol=1e-12)


def test_cell_center_out_of_range(bench_grid):
    with pytest.raises(ValueError):
        cell_center(bench_grid, -1)
    with pytest.raises(ValueError):
        cell_center(bench_grid, 900)


def test_cell_index_examples(bench_grid):
    assert cell_index(bench_grid, cell_center(bench_grid, 0)) == 0
    g = GridSpec((0.0,), (1.0,), (2,))
    assert cell_index(g, [0.3]) == 0
    assert cell_index(g, [0.7]) == 1
    assert cell_index(g, [1.5]) == 1  # clamped above
    assert cell_index(g, [-0.2]) == 0  # clamped below


def test_boundary_belongs_to_higher_cell():
    g = GridSpec((0.0,), (1.0,), (2,))
    assert cell_index(g, [0.5]) == 1
    # closed last cell: the upper bound itself stays in range
    assert cell_index(g, [1.0]) == 1


def test_cell_index_rejects_non_finite(bench_grid):
    with pytest.raises(ValueError):
        cell_index(bench_grid, [np.nan, 25.3])
    with pytest.raises(ValueError):
        cell_index(bench_grid, [np.inf, 25.3])


def test_round_trip_all_cells(bench_grid):
    centers = reconstruction_matrix(bench_grid)
    idx = cell_index(bench_grid, centers.T)
    assert np.array_equal(idx, np.arange(900))


def test_quantization_error_bound(bench_grid):
    rng = np.random.default_rng(7)
    lo = np.asarray(bench_grid.lower)
    hi = np.asarray(bench_grid.upper)
    x = rng.uniform(lo, hi, size=(500, 2))
    idx = cell_index(bench_grid, x)
    centers = reconstruction_matrix(bench_grid)[:, idx].T
    assert np.all(np.abs(x - centers) <= bench_grid.widths / 2 + 1e-12)


def test_clamping_idempotence(bench_grid):
    rng = np.random.default_rng(8)
    x = rng.uniform(-10, 60, size=(300, 2))
    assert np.array_equal(
        cell_index(bench_grid, x), cell_index(bench_grid, np.clip(x, bench_grid.lower, bench_grid.upper))
    )


def test_ordering_deterministic():
    a = GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30))
    b = GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30))
    assert np.array_equal(reconstruction_matrix(a), reconstruction_matrix(b))


def test_axis0_varies_fastest():
    g = GridSpec((0.0, 0.0), (2.0, 2.0), (2, 2))
    centers = reconstruction_matrix(g)
    # linear order: (0,0), (1,0), (0,1), (1,1) in per-axis cell coordinates
    assert np.allclose(centers.T, [[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])


def test_reconstruction_matrix_bench(bench_grid):
    m = reconstruction_matrix(bench_grid)
    assert m.shape == (2, 900)
    assert np.all((m[0] > 0.0) & (m[0] < 4.0))
    assert np.all((m[1] > 25.0) & (m[1] < 25.6))


def test_single_cell_grid():
    g = GridSpec((0.0, 25.0), (4.0, 25.6), (1, 1))
    m = reconstruction_matrix(g)
    assert m.shape == (2, 1)
    assert np.allclose(m[:, 0], [2.0, 25.3])


@pytest.mark.parametrize(
    "call, message",
    [(lambda: cell_index(GridSpec((0.0, 0.0), (1.0, 1.0), (2, 2)), [0.5]), r"expected state of dimension 2, got shape")],
    ids=["state_dimension"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
