import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

import chantrack.markov as markov
from chantrack.grid import GridSpec, cell_index, reconstruction_matrix
from chantrack.markov import (
    QUANTIZE_BLOCK,
    StateDynamics,
    TransitionMatrix,
    coupled_tanh_dynamics,
    estimate_transition_marginal,
    estimate_transition_markovian,
    finite_chain_dynamics,
    initial_belief,
    propagate_profile,
    simulate_trajectory,
)

FLIP = np.array([[0.7, 0.3], [0.3, 0.7]])


def identity_dynamics(dim=1, initial=None):
    return StateDynamics(
        step=lambda x, w: np.asarray(x, dtype=float),
        noise_quantile=ndtri,
        initial=np.zeros(dim) if initial is None else np.asarray(initial, float),
    )


def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[0.5, 0.0], [0.4, 1.0]]), mode="markovian")
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[1.2, 0.0], [-0.2, 1.0]]), mode="markovian")
    with pytest.raises(ValueError):
        TransitionMatrix(np.eye(2), mode="other")
    with pytest.raises(ValueError, match="at least one cell"):
        TransitionMatrix(np.empty((0, 0)), mode="markovian")
    for patched in (-1, 3, None, True):
        with pytest.raises(ValueError, match=r"patched_columns must be an integer in \[0, 2\]"):
            TransitionMatrix(FLIP, mode="marginal", patched_columns=patched)
    tm = TransitionMatrix(FLIP, mode="marginal")
    assert tm.n_cells == 2
    assert tm.patched_columns == 0


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_transition_matrix_rejects_non_finite_entry(entry):
    m = FLIP.copy()
    m[0, 1] = entry
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TransitionMatrix(m, mode="markovian")


def test_finite_chain_rejects_negative_entries():
    # columns that sum to 1 are not enough
    with pytest.raises(ValueError, match=">= 0"):
        finite_chain_dynamics([[0.0], [1.0]], [[1.5, 0.0], [-0.5, 1.0]])


@pytest.mark.parametrize("initial_index", [-1, 2])
def test_finite_chain_rejects_initial_index_out_of_range(initial_index):
    # -1 used to start silently at the last point, and 2 raised IndexError
    with pytest.raises(ValueError, match="initial_index"):
        finite_chain_dynamics([[0.25], [0.75]], FLIP, initial_index=initial_index)


@pytest.mark.parametrize("initial", [(1.0,), (1.0, 2.0, 3.0)])
def test_coupled_tanh_rejects_initial_state_of_wrong_length(initial):
    with pytest.raises(ValueError, match="2 entries"):
        coupled_tanh_dynamics(initial=initial)


def test_dynamics_rejects_step_that_changes_dimension():
    # this used to fail only in simulate_trajectory, as a numpy broadcast error
    with pytest.raises(ValueError, match=r"step maps a state of shape \(1, 2\) to one of shape \(1, 3\)"):
        StateDynamics(
            step=lambda x, w: np.concatenate([x, np.asarray(w)[..., None]], axis=-1),
            noise_quantile=ndtri,
            initial=np.zeros(2),
        )


def test_markovian_identity_dynamics_gives_identity():
    grid = GridSpec((0.0,), (1.0,), (4,))
    tm = estimate_transition_markovian(identity_dynamics(), grid, samples_per_cell=50, rng=0)
    assert np.array_equal(tm.matrix, np.eye(4))
    assert tm.mode == "markovian"


def test_markovian_uniform_jump_dynamics():
    grid = GridSpec((0.0,), (1.0,), (2,))
    dyn = StateDynamics(
        step=lambda x, w: np.asarray(w, dtype=float)[..., None],
        noise_quantile=lambda u: u,
        initial=np.array([0.25]),
    )
    tm = estimate_transition_markovian(dyn, grid, samples_per_cell=10_000, rng=1)
    assert np.all(np.abs(tm.matrix - 0.5) < 0.02)


def test_markovian_bench_dynamics_support():
    grid = GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30))
    dyn = coupled_tanh_dynamics()
    tm = estimate_transition_markovian(dyn, grid, samples_per_cell=1_000, rng=2)
    assert np.allclose(tm.matrix.sum(axis=0), 1.0, atol=1e-12)
    centers = reconstruction_matrix(grid)
    # mass can only land where the first coordinate is reachable from the source center
    for j in [0, 250, 449, 899]:
        mean1 = np.tanh(1.6 * (centers[0, j] - 2.0)) + 2.0
        reachable = (centers[0] >= mean1 - 1.0 - 4 / 30) & (centers[0] <= mean1 + 1.0 + 4 / 30)
        assert tm.matrix[~reachable, j].sum() == 0.0


def test_markovian_column_is_image_counts_over_samples():
    # one division per column: the bincount of the quantized images of the shifted lattice over its size, exactly
    grid = GridSpec((0.0, 25.0), (4.0, 25.6), (6, 6))
    dyn = coupled_tanh_dynamics()
    samples = 1_000
    tm = estimate_transition_markovian(dyn, grid, samples_per_cell=samples, rng=7)
    centers = reconstruction_matrix(grid)
    shifts = np.random.default_rng(7).random(grid.n_cells)
    for j, shift in enumerate(shifts):
        src = np.tile(centers[:, j], (samples, 1))
        w = dyn.noise_quantile((np.arange(samples) + shift) / samples)
        images = cell_index(grid, dyn.step(src, w))
        assert np.array_equal(tm.matrix[:, j], np.bincount(images, minlength=grid.n_cells) / samples)


def test_markovian_seed_determinism():
    grid = GridSpec((0.0,), (1.0,), (3,))
    dyn = finite_chain_dynamics([[0.25], [0.5], [0.75]], np.full((3, 3), 1 / 3))
    a = estimate_transition_markovian(dyn, grid, samples_per_cell=500, rng=11)
    b = estimate_transition_markovian(dyn, grid, samples_per_cell=500, rng=11)
    assert np.array_equal(a.matrix, b.matrix)


def test_markovian_concentration_bound():
    # finite chain living on cell centers: estimate must concentrate at binomial rate
    grid = GridSpec((0.0,), (1.0,), (3,))
    rng = np.random.default_rng(5)
    cols = rng.random((3, 3)) + 0.2
    truth = cols / cols.sum(axis=0)
    points = reconstruction_matrix(grid).T
    dyn = finite_chain_dynamics(points, truth)
    samples = 2_000
    bound = 4 * np.sqrt(0.25 / samples)
    hits = 0
    runs = 100
    for seed in range(runs):
        tm = estimate_transition_markovian(dyn, grid, samples_per_cell=samples, rng=seed)
        if np.max(np.abs(tm.matrix - truth)) <= bound:
            hits += 1
    assert hits >= 0.99 * runs


def test_markovian_column_error_within_lattice_bound():
    # an interval of length l in u holds floor(l M) or ceil(l M) points of any shifted lattice, so an
    # entry whose cell r intervals of u map to is within r / M of the exact one; the referee is the
    # midpoint rule at M_ref = 10**6, and r is counted as the runs of its consecutive points in a cell
    grid, dyn = GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30)), coupled_tanh_dynamics()
    samples, ref_points = 2_000, 10**6
    columns = [0, 137, 250, 449, 450, 612, 777, 899]
    chains = [estimate_transition_markovian(dyn, grid, samples_per_cell=samples, rng=seed) for seed in (0, 1)]
    midpoints = dyn.noise_quantile((np.arange(ref_points) + 0.5) / ref_points)
    centers = reconstruction_matrix(grid)
    for j in columns:
        images = cell_index(grid, dyn.step(centers[:, j][None], midpoints))
        reference = np.bincount(images, minlength=grid.n_cells) / ref_points
        starts = np.flatnonzero(np.r_[True, images[1:] != images[:-1]])
        runs = np.bincount(images[starts], minlength=grid.n_cells)
        bound = runs * (1.0 / samples + 1.0 / ref_points)
        for tm in chains:
            assert np.all(np.abs(tm.matrix[:, j] - reference) <= bound)


def test_markovian_finite_chain_columns_within_one_over_m():
    # a finite chain maps each next state to one interval of u, so every entry is within 1 / M
    grid = GridSpec((0.0,), (1.0,), (5,))
    cols = np.random.default_rng(34).random((5, 5)) + 0.05
    truth = cols / cols.sum(axis=0)
    dyn = finite_chain_dynamics(reconstruction_matrix(grid).T, truth)
    for samples in (7, 100, 2_000):
        for seed in range(5):
            tm = estimate_transition_markovian(dyn, grid, samples_per_cell=samples, rng=seed)
            assert np.max(np.abs(tm.matrix - truth)) <= 1.0 / samples


def test_marginal_identity_from_fixed_start():
    grid = GridSpec((0.0,), (1.0,), (4,))
    dyn = identity_dynamics(initial=[reconstruction_matrix(grid)[0, 0]])
    with pytest.warns(UserWarning, match="unvisited"):
        tm = estimate_transition_marginal(dyn, grid, n_paths=3, path_length=50, rng=0)
    assert tm.mode == "marginal"
    assert tm.patched_columns == 3
    assert np.array_equal(tm.matrix[:, 0], [1.0, 0.0, 0.0, 0.0])
    for j in range(1, 4):
        assert np.allclose(tm.matrix[:, j], 0.25)


def test_marginal_two_state_chain():
    grid = GridSpec((0.0,), (1.0,), (2,))
    points = reconstruction_matrix(grid).T
    dyn = finite_chain_dynamics(points, FLIP)
    tm = estimate_transition_marginal(dyn, grid, n_paths=10, path_length=10_001, rng=3)
    assert tm.patched_columns == 0
    assert np.max(np.abs(tm.matrix - FLIP)) < 0.02


def test_marginal_bench_dynamics_runs():
    grid = GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30))
    dyn = coupled_tanh_dynamics()
    with pytest.warns(UserWarning, match="unvisited"):
        tm = estimate_transition_marginal(dyn, grid, n_paths=20, path_length=2_000, rng=4)
    assert np.allclose(tm.matrix.sum(axis=0), 1.0, atol=1e-12)
    visited_fraction = 1.0 - tm.patched_columns / grid.n_cells
    assert 0.0 < visited_fraction < 1.0


def _per_step_marginal(dyn, grid, n_paths, path_length, rng):
    """The marginal estimator quantizing every time step on its own."""
    rng = np.random.default_rng(rng)
    states = np.empty((n_paths, dyn.dim))
    noises = []
    for p, sub in enumerate(rng.spawn(n_paths)):
        states[p] = dyn.initial_state()
        noises.append(dyn.noise_quantile(sub.random(path_length - 1)))
    noises = np.stack(noises)
    idx = np.empty((n_paths, path_length), dtype=np.int64)
    idx[:, 0] = cell_index(grid, states)
    for t in range(path_length - 1):
        states = dyn.step(states, noises[:, t])
        idx[:, t + 1] = cell_index(grid, states)
    n = grid.n_cells
    counts = np.zeros((n, n))
    np.add.at(counts, (idx[:, 1:].ravel(), idx[:, :-1].ravel()), 1.0)
    unvisited = counts.sum(axis=0) == 0
    patched = int(unvisited.sum())
    counts[:, unvisited] = 1.0
    return counts / counts.sum(axis=0), patched


def _marginal_edge_case(kind):
    if kind == "coupled_tanh":
        return coupled_tanh_dynamics(), GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30)), 7
    grid = GridSpec((0.0,), (1.0,), (5,))
    cols = np.random.default_rng(30).random((5, 5)) + 0.05
    points = reconstruction_matrix(grid).T
    return finite_chain_dynamics(points, cols / cols.sum(axis=0), initial_index=2), grid, 3


@pytest.mark.parametrize("kind", ["coupled_tanh", "finite_chain"])
@pytest.mark.parametrize(
    "path_length", [2, QUANTIZE_BLOCK - 1, QUANTIZE_BLOCK, QUANTIZE_BLOCK + 1, 2 * QUANTIZE_BLOCK + 3]
)
def test_marginal_blocks_match_per_step_quantization(monkeypatch, kind, path_length):
    # quantizing once per block of steps gives bitwise the per-step result
    dyn, grid, n_paths = _marginal_edge_case(kind)
    expected, patched = _per_step_marginal(dyn, grid, n_paths, path_length, rng=31)
    calls = []
    original = markov.cell_index

    def counting(grid_, x):
        calls.append(np.shape(x))
        return original(grid_, x)

    monkeypatch.setattr(markov, "cell_index", counting)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tm = estimate_transition_marginal(dyn, grid, n_paths=n_paths, path_length=path_length, rng=31)
    assert np.array_equal(tm.matrix, expected)
    assert tm.patched_columns == patched
    messages = [str(w.message) for w in caught]
    if patched:
        assert messages == [
            f"marginal estimation left {patched}/{grid.n_cells} cells unvisited; their columns were patched uniform"
        ]
    else:
        assert messages == []
    assert len(calls) <= math.ceil(path_length / QUANTIZE_BLOCK) + 1


@pytest.mark.parametrize("kind", ["coupled_tanh", "finite_chain"])
@pytest.mark.parametrize("split", [1, QUANTIZE_BLOCK - 1, QUANTIZE_BLOCK, QUANTIZE_BLOCK + 1])
def test_builtin_noise_is_the_same_drawn_in_parts(kind, split):
    # the property of StateDynamics.noise the block-wise marginal estimator relies on
    dyn, _, _ = _marginal_edge_case(kind)
    total = 2 * QUANTIZE_BLOCK + 5
    whole = dyn.noise(np.random.default_rng(32), total)
    rng = np.random.default_rng(32)
    parts = np.concatenate([dyn.noise(rng, split), dyn.noise(rng, total - split)])
    assert np.array_equal(parts, whole)


def _marginal_traced_peak(path_length):
    dyn, grid = coupled_tanh_dynamics(), GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30))
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimate_transition_marginal(dyn, grid, n_paths=100, path_length=path_length, rng=33)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_marginal_memory_does_not_grow_with_path_length():
    # tracemalloc sees numpy's buffers: a longer run may not hold more of them
    _marginal_traced_peak(2)  # the first call in a process also allocates one-time caches
    short = _marginal_traced_peak(2 * QUANTIZE_BLOCK + 3)
    long = _marginal_traced_peak(8 * QUANTIZE_BLOCK)
    assert long - short < 2**20


def test_initial_belief_deterministic_is_one_hot():
    grid = GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30))
    dyn = coupled_tanh_dynamics(initial=(2.0, 25.3))
    b = initial_belief(dyn, grid)
    k = cell_index(grid, np.array([2.0, 25.3]))
    assert b[k] == 1.0 and b.sum() == 1.0


def test_propagate_profile():
    # the identity profile propagates to the matrix power itself
    assert np.array_equal(propagate_profile(np.eye(2), FLIP, 0), np.eye(2))
    assert np.array_equal(propagate_profile(np.eye(2), np.eye(2), 7), np.eye(2))
    two = propagate_profile(np.eye(2), FLIP, 2)
    assert two[0, 0] == pytest.approx(0.58, abs=1e-12)  # 0.7^2 + 0.3^2
    assert np.allclose(two.sum(axis=0), 1.0, atol=1e-10)
    # one profile: entry j is the expected profile value two steps after cell j
    assert propagate_profile([0.25, 0.75], FLIP, 2) == pytest.approx([0.46, 0.54], abs=1e-12)
    with pytest.raises(ValueError):
        propagate_profile(np.eye(2), FLIP, -1)


@pytest.mark.parametrize("rho", [1, 2, 5])
def test_propagate_profile_matches_matrix_power(rho):
    rng = np.random.default_rng(32)
    cols = rng.random((900, 900))
    P = cols / cols.sum(axis=0)
    power = np.linalg.matrix_power(P, rho)
    for profile in (rng.uniform(0.0, 30.0, 900), rng.uniform(0.0, 30.0, (2, 900))):
        out = propagate_profile(profile, P, rho)
        assert out.shape == profile.shape
        assert np.max(np.abs(out - profile @ power)) <= 1e-12


def test_simulate_trajectory_identity_constant():
    dyn = identity_dynamics(initial=[0.3])
    traj = simulate_trajectory(dyn, 20, rng=0)
    assert traj.shape == (21, 1)
    assert np.all(traj == 0.3)


def test_simulate_trajectory_seed_determinism():
    dyn = coupled_tanh_dynamics()
    a = simulate_trajectory(dyn, 200, rng=42)
    b = simulate_trajectory(dyn, 200, rng=42)
    assert np.array_equal(a, b)


def test_bench_dynamics_stays_in_box():
    dyn = coupled_tanh_dynamics()
    traj = simulate_trajectory(dyn, 100_000, rng=9)
    assert np.all((traj[:, 0] >= 0.0) & (traj[:, 0] <= 4.0))
    assert np.all((traj[:, 1] >= 25.0) & (traj[:, 1] <= 25.6))


def test_bench_dynamics_update_equations():
    # hand transcription of the coupled update driven by one shared noise draw
    dyn = coupled_tanh_dynamics(gamma=1.6)
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.uniform([0.0, 25.0], [4.0, 25.6])
        w = rng.uniform(-1.0, 1.0)
        nxt = dyn.step(x, w)
        expect1 = np.tanh(1.6 * (x[0] - 2.0)) + w + 2.0
        expect2 = 0.3 * abs(np.tanh(np.sin(1.6 * x[1] * w) + x[1] * w) + w) + 25.0
        assert nxt[0] == pytest.approx(expect1, abs=1e-15)
        assert nxt[1] == pytest.approx(expect2, abs=1e-15)


def test_bench_noise_is_clipped_standard_normal():
    dyn = coupled_tanh_dynamics()
    w = dyn.noise(np.random.default_rng(0), 50_000)
    assert np.all((w >= -1.0) & (w <= 1.0))
    assert np.mean(np.abs(w) == 1.0) > 0.2  # clipping actually binds


def test_finite_chain_dynamics_distribution():
    points = [[0.0, 0.0], [1.0, 1.0]]
    dyn = finite_chain_dynamics(points, FLIP, initial_index=1)
    assert np.array_equal(dyn.initial_state(), [1.0, 1.0])
    rng = np.random.default_rng(12)
    w = dyn.noise(rng, 20_000)
    nxt = dyn.step(np.tile([0.0, 0.0], (20_000, 1)), w)
    flipped = np.mean(nxt[:, 0] == 1.0)
    assert abs(flipped - 0.3) < 0.02


LINE = GridSpec((0.0,), (1.0,), (2,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: finite_chain_dynamics([0.25, 0.75], FLIP), "points must be a 2-D array"),
        (lambda: estimate_transition_markovian(identity_dynamics(), LINE, 0, rng=0), "samples_per_cell must be >= 1"),
        (lambda: estimate_transition_markovian(identity_dynamics(), LINE, 2.5, rng=0), "samples_per_cell must be an int"),
        (lambda: estimate_transition_markovian(identity_dynamics(), LINE, True, rng=0), "samples_per_cell must be an int"),
        (lambda: estimate_transition_marginal(identity_dynamics(), LINE, 0, 10, rng=0), "n_paths must be >= 1"),
        (lambda: estimate_transition_marginal(identity_dynamics(), LINE, True, 10, rng=0), "n_paths must be an int"),
        (lambda: estimate_transition_marginal(identity_dynamics(), LINE, 2.0, 10, rng=0), "n_paths must be an int"),
        (lambda: estimate_transition_marginal(identity_dynamics(), LINE, 1, 1, rng=0), "path_length must be >= 2"),
        (lambda: estimate_transition_marginal(identity_dynamics(), LINE, 1, 50.0, rng=0), "path_length must be an int"),
        (lambda: estimate_transition_marginal(identity_dynamics(), LINE, 1, True, rng=0), "path_length must be an int"),
        (lambda: simulate_trajectory(identity_dynamics(), -1, 0), "T must be >= 0"),
        (lambda: simulate_trajectory(identity_dynamics(), True, 0), "T must be an int"),
        (lambda: simulate_trajectory(identity_dynamics(), 2.5, 0), "T must be an int"),
    ],
    ids=[
        "flat_chain_points",
        "markovian_samples",
        "markovian_fractional_samples",
        "markovian_bool_samples",
        "marginal_paths",
        "marginal_bool_paths",
        "marginal_float_paths",
        "marginal_path_length",
        "marginal_float_path_length",
        "marginal_bool_path_length",
        "negative_steps",
        "bool_steps",
        "fractional_steps",
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
