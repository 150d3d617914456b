import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import chantrack
from chantrack import channel
from chantrack.channel import (
    ChannelScene,
    NumericsWarning,
    ObservationBatch,
    StateCoord,
    StateToChannelMap,
    build_covariance,
    build_obs_covariance,
    cross_covariance,
    gaussian_unnormalized_loglik,
    kernel_eval,
    observation_conditioning,
    pairwise_distances,
    path_loss_coeffs,
    point_path_loss,
    sample_joint_field,
    sample_observation,
)
from chantrack.grid import reconstruction_matrix
from chantrack.harness import benchmark_config, build, build_scene, query_points


def make_scene(sensors, sigma_xi_sq=2.0, theta=(25.0, 10.0), ref=(25.0, 10.0), mu_index=0):
    return ChannelScene(
        ref_pos=np.asarray(ref, float),
        sensors=np.asarray(sensors, float),
        sigma_xi_sq=sigma_xi_sq,
        state_map=StateToChannelMap(mu_index=mu_index, theta_bindings=(float(theta[0]), float(theta[1]))),
    )


def lattice(n, spacing, origin=0.0):
    """``n x n`` cell-centre lattice, x varying fastest (the layout of ``query_points``)."""
    xs = origin + (np.arange(n) + 0.5) * spacing
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    return np.column_stack([gx.ravel(), gy.ravel()])


def test_pairwise_distances_equal_cdist_bitwise():
    # scipy's cdist is the referee: the same per-axis sum of squares, so equal bit for bit
    from scipy.spatial.distance import cdist

    cfg = benchmark_config()
    sensors = build_scene(cfg, np.random.default_rng(0)).sensors
    queries = query_points(cfg)
    rng = np.random.default_rng(29)
    a, b = rng.normal(scale=30.0, size=(300, 3)), rng.normal(scale=30.0, size=(200, 3))
    for u, v in ((sensors, sensors), (queries, sensors), (a, b), (a, a)):
        assert np.array_equal(pairwise_distances(u, v), cdist(u, v))
    assert pairwise_distances(queries, sensors).shape == (3600, 30)


def test_path_loss_examples():
    scene = make_scene([[26.0, 10.0], [25.0, 20.0]])
    alpha = path_loss_coeffs(scene, 0)
    assert alpha[0] == pytest.approx(0.0, abs=1e-15)  # 1 m
    assert alpha[1] == pytest.approx(-10.0, abs=1e-12)  # 10 m


def test_path_loss_singularity_names_sensor():
    with pytest.raises(ValueError, match="sensor 1"):
        make_scene([[26.0, 10.0], [25.0, 10.0]])
    scene = make_scene([[26.0, 10.0]])
    with pytest.raises(ValueError, match="query point 0"):
        point_path_loss(scene.ref_pos, np.array([[25.0, 10.0]]), label="query point")
    scripted = np.tile([[26.0, 10.0], [30.0, 10.0], [20.0, 10.0]], (4, 1, 1))
    scripted[2, 1] = (25.0, 10.0)  # named by its index within the frame, not by the flat index 7
    with pytest.raises(ValueError, match="sensor 1 is closer"):
        make_scene(scripted)


@pytest.mark.parametrize("sensors", [np.empty((0, 2)), np.empty((3, 0, 2))])
def test_scene_rejects_no_sensors(sensors):
    with pytest.raises(ValueError, match="N >= 1"):
        make_scene(sensors)


@pytest.mark.parametrize("ref", [(25.0,), (25.0, 10.0, 0.0)])
def test_scene_rejects_reference_of_wrong_length(ref):
    with pytest.raises(ValueError, match="ref_pos"):
        make_scene([[26.0, 10.0]], ref=ref)


@pytest.mark.parametrize("sigma_xi_sq", [-1.0, np.nan, np.inf])
def test_scene_rejects_invalid_noise_variance(sigma_xi_sq):
    with pytest.raises(ValueError, match="sigma_xi_sq"):
        make_scene([[26.0, 10.0]], sigma_xi_sq=sigma_xi_sq)


@pytest.mark.parametrize("bindings", [(25.0,), (25.0, 10.0, 1.0)])
def test_scene_requires_two_kernel_bindings(bindings):
    with pytest.raises(ValueError, match="2 parameters"):
        ChannelScene(
            ref_pos=np.array([25.0, 10.0]),
            sensors=np.array([[26.0, 10.0]]),
            sigma_xi_sq=2.0,
            state_map=StateToChannelMap(mu_index=0, theta_bindings=bindings),
        )


def test_kernel_examples():
    assert kernel_eval(0.0, [25.0, 10.0]) == 25.0
    assert kernel_eval(10.0, [25.0, 10.0]) == pytest.approx(25 * math.exp(-1), abs=1e-12)
    assert kernel_eval(123.0, [0.0, 10.0]) == 0.0
    with pytest.raises(ValueError):
        kernel_eval(1.0, [25.0, 0.0])
    with pytest.raises(ValueError):
        kernel_eval(1.0, [-1.0, 10.0])


def test_kernel_monotone_decay():
    d = np.linspace(0.0, 50.0, 200)
    v = kernel_eval(d, [25.0, 10.0])
    assert np.all(np.diff(v) < 0) and np.all(v >= 0)


def test_covariance_single_and_coincident():
    one = make_scene([[26.0, 10.0]])
    assert np.array_equal(build_covariance(one, 0, [25.0, 10.0]), [[25.0]])
    two = make_scene([[26.0, 10.0], [26.0, 10.0]])
    sigma = build_covariance(two, 0, [25.0, 10.0])
    assert np.array_equal(sigma, 25.0 * np.ones((2, 2)))


def test_covariance_pair_and_symmetry():
    scene = make_scene([[26.0, 10.0], [26.0, 20.0]])
    sigma = build_covariance(scene, 0, [25.0, 10.0])
    assert sigma[0, 1] == pytest.approx(25 * math.exp(-1), abs=1e-12)
    assert np.array_equal(sigma, sigma.T)
    assert np.all(np.diag(sigma) == 25.0)


def test_obs_covariance_examples():
    one = make_scene([[26.0, 10.0]], sigma_xi_sq=2.0)
    assert np.array_equal(build_obs_covariance(one, 0, [25.0, 10.0]), [[27.0]])
    scene = make_scene([[26.0, 10.0], [26.0, 20.0]], sigma_xi_sq=3.0)
    c = build_obs_covariance(scene, 0, [0.0, 10.0])
    assert np.array_equal(c, 3.0 * np.eye(2))


def test_obs_covariance_eigenfloor_bench_geometry():
    rng = np.random.default_rng(0)
    scene = make_scene(rng.uniform(0, 40, (30, 2)), sigma_xi_sq=2.0)
    for theta1 in (25.0, 25.3, 25.6):
        c = build_obs_covariance(scene, 0, [theta1, 10.0])
        assert np.linalg.eigvalsh(c)[0] >= 2.0 - 1e-9


def test_cross_covariance_examples():
    scene = make_scene([[26.0, 10.0], [30.0, 14.0]])
    v = cross_covariance(scene, 0, [26.0, 10.0], [25.0, 10.0])
    assert v[0] == 25.0
    single = make_scene([[26.0, 10.0]])
    assert cross_covariance(single, 0, [26.0, 20.0], [25.0, 10.0])[0] == pytest.approx(
        25 * math.exp(-1), abs=1e-12
    )
    far = cross_covariance(scene, 0, [1000.0, 1000.0], [25.0, 10.0])
    assert np.all(far < 1e-10)


def test_loglik_examples():
    assert gaussian_unnormalized_loglik([1.0, 2.0], [1.0, 2.0], np.eye(2)) == 0.0
    val = gaussian_unnormalized_loglik([3.0], [1.0], [[4.0]])
    assert val == pytest.approx(-0.5 - 0.5 * math.log(4.0), abs=1e-12)


def test_loglik_matches_dense_inverse():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        cov = a @ a.T + np.diag(rng.uniform(0.5, 2.0, n))
        y = rng.standard_normal(n) * 5
        mean = rng.standard_normal(n)
        dense = -0.5 * (y - mean) @ np.linalg.inv(cov) @ (y - mean) - 0.5 * math.log(
            np.linalg.det(cov)
        )
        fact = gaussian_unnormalized_loglik(y, mean, cov)
        assert fact == pytest.approx(dense, rel=1e-10)


def test_loglik_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_unnormalized_loglik([0.0, 0.0], [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


def test_sample_observation_degenerate_is_exact():
    scene = make_scene([[26.0, 10.0], [25.0, 20.0]], sigma_xi_sq=0.0, theta=(0.0, 10.0))
    obs = sample_observation(scene, 3, np.array([2.5]), np.random.default_rng(0))
    assert obs.t == 3
    assert np.array_equal(obs.y, obs.alpha * 2.5)


def test_observation_batch_validation():
    with pytest.raises(ValueError):
        ObservationBatch(t=0, y=[1.0, 2.0], alpha=[1.0])
    with pytest.raises(ValueError):
        ObservationBatch(t=0, y=[np.nan], alpha=[1.0])


def test_sample_observation_alpha_matches_positions():
    rng = np.random.default_rng(2)
    scene = make_scene(rng.uniform(0, 40, (5, 2)))
    obs = sample_observation(scene, 0, np.array([2.0]), rng)
    d = np.linalg.norm(scene.sensors - scene.ref_pos, axis=1)
    assert np.max(np.abs(obs.alpha - (-10 * np.log10(d)))) <= 1e-12


def test_sample_observation_moments():
    rng = np.random.default_rng(3)
    scene = make_scene([[20.0, 8.0], [22.0, 15.0], [30.0, 12.0]], sigma_xi_sq=2.0)
    x = np.array([2.0])
    n = 100_000
    y, _ = sample_joint_field(scene, 0, x, np.empty((0, 2)), rng, size=n)
    mean_true = path_loss_coeffs(scene, 0) * 2.0
    cov_true = build_obs_covariance(scene, 0, [25.0, 10.0])
    se_mean = np.sqrt(np.diag(cov_true) / n)
    assert np.all(np.abs(y.mean(axis=0) - mean_true) <= 3 * se_mean)
    resid = y - mean_true
    cov_emp = resid.T @ resid / n
    # std error of a covariance entry ~ sqrt((c_ii c_jj + c_ij^2)/n)
    se_cov = np.sqrt(
        (np.outer(np.diag(cov_true), np.diag(cov_true)) + cov_true**2) / n
    )
    assert np.all(np.abs(cov_emp - cov_true) <= 3 * se_cov)


def test_joint_field_reduces_to_observation_for_no_queries():
    rng = np.random.default_rng(4)
    scene = make_scene(rng.uniform(0, 40, (6, 2)))
    x = np.array([1.8])
    obs_a = sample_observation(scene, 0, x, np.random.default_rng(99))
    obs_b, field = sample_joint_field(scene, 0, x, np.empty((0, 2)), np.random.default_rng(99))
    assert field.shape == (0,)
    assert np.array_equal(obs_a.y, obs_b.y)


def test_joint_field_query_at_sensor_shares_draw():
    rng = np.random.default_rng(5)
    sensors = rng.uniform(0, 40, (4, 2))
    scene = make_scene(sensors, sigma_xi_sq=0.0)
    obs, field = sample_joint_field(scene, 0, np.array([2.0]), sensors[[2]], np.random.default_rng(1))
    assert field[0] == obs.y[2]

    # lattice sensors among lattice queries: the FFT draw is shared the same way
    queries = lattice(10, 4.0)
    picks = [3, 17, 42, 88]
    scene = make_scene(queries[picks], sigma_xi_sq=0.0)
    obs, field = sample_joint_field(scene, 0, np.array([2.0]), queries, np.random.default_rng(1))
    assert np.array_equal(field[picks], obs.y)


def test_colocated_sensors_share_one_draw():
    scene = make_scene([[26.0, 10.0], [26.0, 10.0], [30.0, 14.0]], sigma_xi_sq=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs = sample_observation(scene, 0, np.array([2.0]), np.random.default_rng(0))
    assert obs.y[0] == obs.y[1] != obs.y[2]


def test_chol_psd_retries_singular_covariance_with_jitter():
    sigma = np.array([[25.0, 25.0], [25.0, 25.0]])
    with pytest.warns(NumericsWarning, match="jitter"):
        factor = channel._chol_psd(sigma, 25.0)
    assert np.all(np.isfinite(factor))
    assert np.max(np.abs(factor @ factor.T - sigma)) <= 1e-8


def test_joint_field_covariance_via_variogram():
    # empirical spatial covariance of the drawn field vs the kernel value;
    # off-lattice sensors take the dense path, lattice sensors the FFT path
    queries = lattice(60, 40.0 / 60.0)
    for sensors in ("off_lattice", "lattice"):
        rng = np.random.default_rng(6)
        if sensors == "lattice":
            positions = queries[rng.choice(len(queries), size=30, replace=False)]
        else:
            positions = rng.uniform(0, 40, (30, 2))
        scene = make_scene(positions, sigma_xi_sq=2.0)
        x = np.array([2.0])
        _, fields = sample_joint_field(scene, 0, x, queries, rng, size=100)
        alpha_q = point_path_loss(scene.ref_pos, queries)
        resid = fields - alpha_q * 2.0

        sub = rng.choice(len(queries), size=700, replace=False)
        pts = queries[sub]
        rsub = resid[:, sub]
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        iu = np.triu_indices(len(sub), k=1)
        pair_d = d[iu]
        prods = np.einsum("ki,kj->ij", rsub, rsub)[iu] / rsub.shape[0]
        for dist in (5.0, 10.0, 20.0):
            mask = np.abs(pair_d - dist) < 0.4
            assert mask.sum() > 100
            emp = prods[mask].mean()
            true = 25.0 * math.exp(-dist / 10.0)
            assert abs(emp - true) <= 0.15 * true, sensors


@pytest.mark.parametrize("theta2, embedding", [(10.0, 128), (40.0, 1024)])
def test_circulant_embedding_is_exact_on_lattice(theta2, embedding):
    # the embedding's covariance, read back on the lattice, is the kernel itself
    queries = lattice(60, 40.0 / 60.0)
    steps, index = channel._lattice_index(queries)
    theta = np.array([25.0, theta2])
    lam = channel._circulant_eigenvalues(theta, steps, index.max(axis=0) + 1)
    assert lam.shape == (embedding, embedding)
    cov = np.fft.ifft2(lam).real[index[:, 0], index[:, 1]]
    corner = queries[np.all(index == 0, axis=1)][0]
    expected = kernel_eval(np.linalg.norm(queries - corner, axis=1), theta)
    assert np.max(np.abs(cov - expected)) <= 1e-12 * theta[0]


def test_lattice_detection():
    pts = lattice(6, 2.0)
    steps, index = channel._lattice_index(pts)
    assert np.allclose(steps, 2.0) and np.array_equal(index.max(axis=0), [5, 5])
    assert np.array_equal(pts, 1.0 + 2.0 * index)
    assert channel._lattice_index(pts[1:]) is None  # one site missing
    assert channel._lattice_index(pts[:6]) is None  # a single row
    uneven = pts.copy()
    uneven[:, 0] = np.where(uneven[:, 0] > 10.0, 11.5, uneven[:, 0])
    assert channel._lattice_index(uneven) is None


def _unique_rows_by_loop(points):
    """The per-row dictionary loop ``_stable_unique_rows`` replaced, kept as its referee."""
    seen: dict[bytes, int] = {}
    inverse = np.empty(len(points), dtype=np.int64)
    keep = []
    for i, row in enumerate(points):
        key = row.tobytes()
        j = seen.get(key)
        if j is None:
            j = len(keep)
            seen[key] = j
            keep.append(i)
        inverse[i] = j
    return points[keep], inverse


def _rows_with_repeats(n):
    # sensors drawn from the query lattice and stacked above it, as a snapshot draw stacks them
    queries = lattice(60, 40.0 / 60)
    rng = np.random.default_rng(n)
    if n == 3630:
        return np.vstack([queries[rng.choice(len(queries), 30, replace=False)], queries])
    return queries[rng.integers(0, max(n // 3, 1), n)]


@pytest.mark.parametrize(
    "rows",
    [
        _rows_with_repeats(1),
        _rows_with_repeats(30),
        _rows_with_repeats(900),
        _rows_with_repeats(3630),
        np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, 1.0]]),
    ],
    ids=["1", "30", "900", "3630", "signed_zeros"],
)
def test_stable_unique_rows_matches_row_loop(rows):
    uniq, inverse = channel._stable_unique_rows(rows)
    ref_uniq, ref_inverse = _unique_rows_by_loop(rows)
    assert uniq.dtype == ref_uniq.dtype and uniq.tobytes() == ref_uniq.tobytes()
    assert inverse.dtype == ref_inverse.dtype and np.array_equal(inverse, ref_inverse)
    assert len(uniq) < len(rows) or len(rows) == 1


def test_joint_field_path_selection(monkeypatch):
    calls = []
    dense = channel._chol_psd

    def counting(sigma, theta1):
        calls.append(len(sigma))
        return dense(sigma, theta1)

    monkeypatch.setattr(channel, "_chol_psd", counting)
    cfg = benchmark_config()
    scene = build_scene(cfg, np.random.default_rng(0))
    sample_joint_field(scene, 0, np.array([2.0, 25.3]), query_points(cfg), np.random.default_rng(1))
    assert calls == []

    queries = lattice(10, 2.0)
    x = np.array([2.0])
    off = make_scene(np.vstack([queries[:3], [[3.3, 4.1]]]))
    sample_joint_field(off, 0, x, queries, np.random.default_rng(2))
    assert calls == [101]
    sample_joint_field(make_scene(queries[:4]), 0, x, queries, np.random.default_rng(3))
    assert calls == [101]
    # no embedding up to 256^2 is nonnegative for a 100 m correlation distance on this lattice
    long_range = make_scene(queries[:4], theta=(25.0, 100.0))
    sample_joint_field(long_range, 0, x, queries, np.random.default_rng(3))
    assert calls == [101, 100]


def test_dense_joint_field_draw_holds_two_covariance_buffers():
    # the distances, then the kernel over them in one buffer, then the kernel and its factor: never
    # three (P, P) arrays at once; 1,500 benchmark query points jittered off the lattice, about 0.2 s
    cfg = benchmark_config()
    scene = build_scene(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(37)
    queries = query_points(cfg)[rng.choice(3_600, 1_500, replace=False)] + rng.uniform(-0.1, 0.1, (1_500, 2))
    buffer = 8 * (len(queries) + scene.n_sensors) ** 2
    tracemalloc.start()
    try:
        sample_joint_field(scene, 0, np.array([2.0, 25.3]), queries, np.random.default_rng(38))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.9 * buffer < peak < 2.5 * buffer


_THREADED_DRAW = """
import hashlib
import numpy as np
from chantrack.channel import sample_joint_field
from chantrack.grid import reconstruction_matrix
from chantrack.harness import benchmark_config, build, build_scene, query_points
cfg = benchmark_config()
scene = build_scene(cfg, np.random.default_rng(60_002))
obs, field = sample_joint_field(scene, 249, np.array([2.0, 25.3]), query_points(cfg), np.random.default_rng(7))
print(hashlib.sha256(obs.y.tobytes() + field.tobytes()).hexdigest())
"""


def test_joint_field_draw_independent_of_blas_threads():
    """The benchmark scene's truth draw is byte-identical under 1 and 2 BLAS threads.

    This covers the lattice (FFT) draw only.  Byte identity of the full
    artifacts under different thread counts still fails: the filter's
    triangular solves are bitwise equal under 1 and 2 threads, but its dense
    transition matvec ``P @ b`` is not (ROADMAP open item 5).  Scenes whose
    sensors are off the query lattice keep the dense Cholesky draw, which
    still depends on the BLAS thread count.
    """
    src = str(Path(chantrack.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _THREADED_DRAW], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_covariance_lipschitz_in_state():
    # exponential kernel with both parameters bound to the state
    scene = ChannelScene(
        ref_pos=np.array([25.0, 10.0]),
        sensors=np.random.default_rng(7).uniform(0, 40, (6, 2)),
        sigma_xi_sq=1.0,
        state_map=StateToChannelMap(mu_index=0, theta_bindings=(StateCoord(1), StateCoord(2))),
    )
    lo = np.array([0.0, 20.0, 5.0])
    hi = np.array([4.0, 30.0, 15.0])
    d_max = np.max(np.linalg.norm(scene.sensors[:, None] - scene.sensors[None, :], axis=-1))
    k_bound = max(1.0, 30.0 * d_max / 5.0**2)
    rng = np.random.default_rng(8)
    for _ in range(200):
        xa = rng.uniform(lo, hi)
        xb = rng.uniform(lo, hi)
        sa = build_covariance(scene, 0, scene.state_map.theta_of(xa))
        sb = build_covariance(scene, 0, scene.state_map.theta_of(xb))
        assert np.max(np.abs(sa - sb)) <= k_bound * np.sum(np.abs(xa - xb)) + 1e-12


def test_observation_conditioning_diagnostic():
    scene = make_scene([[26.0, 10.0], [25.0, 20.0]], sigma_xi_sq=2.0)
    lam = observation_conditioning(scene, 0, np.array([[25.0, 10.0], [25.6, 10.0]]))
    assert lam > 1.0
    weak = make_scene([[26.0, 10.0]], sigma_xi_sq=0.5, theta=(0.0, 10.0))
    with pytest.warns(NumericsWarning, match="eigenvalue floor"):
        lam = observation_conditioning(weak, 0, np.array([[0.0, 10.0]]))
    assert lam == pytest.approx(0.5)


@pytest.mark.parametrize("rows", ["benchmark_grid", "theta2_bound"])
def test_observation_conditioning_matches_per_row_eigvalsh(monkeypatch, rows):
    # one kernel basis per distinct theta2 gives the floor over every theta row
    grid, _, scene, _ = build(benchmark_config())
    thetas = scene.state_map.theta_of(reconstruction_matrix(grid).T)  # 30 shadowing powers, one theta2
    if rows == "theta2_bound":
        powers, distances = np.meshgrid(np.linspace(5.0, 30.0, 6), [4.0, 7.5, 12.0, 20.0])
        thetas = np.column_stack([powers.ravel(), distances.ravel()])
    reference = min(np.linalg.eigvalsh(build_obs_covariance(scene, 0, theta))[0] for theta in np.unique(thetas, axis=0))
    calls = []
    original = channel.kernel_basis

    def counting(scene_, t, theta2):
        calls.append(theta2)
        return original(scene_, t, theta2)

    monkeypatch.setattr(channel, "kernel_basis", counting)
    floor = observation_conditioning(scene, 0, thetas)
    assert abs(floor - reference) <= 1e-12 * reference
    assert sorted(calls) == sorted(set(thetas[:, 1]))


def test_state_map_bindings():
    m = StateToChannelMap(mu_index=0, theta_bindings=(StateCoord(1), 10.0))
    x = np.array([[1.0, 25.0], [2.0, 26.0]])
    assert np.array_equal(m.mu_of(x), [1.0, 2.0])
    assert np.array_equal(m.theta_of(x), [[25.0, 10.0], [26.0, 10.0]])
    with pytest.raises(ValueError):
        StateToChannelMap(mu_index=1, theta_bindings=(StateCoord(1), 10.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StateToChannelMap(mu_index=-1, theta_bindings=(25.0, 10.0)), "mu_index must be >= 0"),
        (lambda: make_scene([[26.0, np.nan]]), "positions must be finite"),
        (lambda: make_scene(np.full((2, 1, 2), 30.0)).sensors_at(2), "no scripted sensor positions for time 2"),
        (lambda: observation_conditioning(make_scene([[26.0, 10.0]]), 0, [[-1.0, 10.0]]), "theta1 must be >= 0"),
    ],
    ids=["negative_mu_index", "non_finite_sensor", "scripted_time_beyond_script", "negative_power_floor"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
