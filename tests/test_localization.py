import copy
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlabeam import (Carrier, DegenerateSubspaceError,
                     IllConditionedTriangulationError, ModularArray, NearFieldGrid,
                     Scenario, SnapshotSet, element_positions,
                     estimate_angles, far_steering, friis_beta, locate, music_1d,
                     music_2d, near_steering, noise_subspace,
                     principal_eigenvectors, sample_covariance, spacing_for_aperture,
                     subarray_centers, synthesize_snapshots, triangulate,
                     bracketing_floor)
from mlabeam import localization, numerics
from mlabeam.localization import default_angle_grid

CAR = Carrier.from_wavelength(0.02)


def _array(L=4, N=16, D=2.0):
    return ModularArray(L, N, 0.01, spacing_for_aperture(D, L, N, 0.01))


def test_far_steering_phase():
    # half-wavelength pair seen endfire: the two elements are a half cycle apart
    a = far_steering(np.array([-0.005, 0.005]), 0.0, 0.02)
    assert np.angle(a[1] / a[0]) == pytest.approx(math.pi, abs=1e-12)
    b = far_steering(np.array([-0.005, 0.005]), math.pi / 2, 0.02)
    np.testing.assert_allclose(b, 1.0, atol=1e-12)
    assert np.all(np.abs(a) == 1.0)


def test_near_steering_far_limit():
    mla = _array()
    b = near_steering(mla, CAR, 1.0, 1e6)
    a = far_steering(element_positions(mla).ravel(), 1.0, CAR.wavelength)
    rel = (b / b[0]) / (a / a[0])
    assert np.max(np.abs(np.angle(rel))) < 1e-3


def test_near_steering_shape_and_modulus():
    mla = _array(L=2, N=8)
    b = near_steering(mla, CAR, 1.2, 15.0)
    assert b.shape == (16,)
    np.testing.assert_allclose(np.abs(b), 1.0, atol=1e-14)


def test_snapshots_deterministic():
    sc = Scenario(_array(), CAR, 20.0, 1.4, 0.1, 1e-10, 50)
    a = synthesize_snapshots(sc, seed=123)
    b = synthesize_snapshots(sc, seed=123)
    c = synthesize_snapshots(sc, seed=124)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.data.shape == (4, 50, 16)


def test_snapshot_power_law_of_large_numbers():
    """Mean per-element power matches signal-plus-noise within 1%."""
    sc = Scenario(_array(L=2, N=4, D=1.0), CAR, 25.0, 1.5, 0.1, 5e-11, 100_000)
    snaps = synthesize_snapshots(sc, seed=5)
    beta = friis_beta(CAR, 25.0)
    expected = 0.1 * beta + 5e-11
    measured = float(np.mean(np.abs(snaps.data) ** 2))
    assert measured == pytest.approx(expected, rel=0.01)


def test_sample_covariance_exact_hermitian():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((30, 8)) + 1j * rng.standard_normal((30, 8))
    R = sample_covariance(Y)
    assert np.array_equal(R, R.conj().T)
    evals = np.linalg.eigvalsh(R)
    assert evals.min() > -1e-12


def test_sample_covariance_noiseless_rank_one():
    b = near_steering(_array(L=2, N=8), CAR, 1.3, 18.0)
    rng = np.random.default_rng(1)
    s = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    R = sample_covariance(np.outer(s, b))
    evals = np.linalg.eigvalsh(R)
    assert evals[-1] > 1.0
    assert np.all(np.abs(evals[:-1]) < 1e-10 * evals[-1])


def test_covariance_converges_to_model():
    sc = Scenario(_array(L=2, N=4, D=1.0), CAR, 25.0, 1.5, 0.1, 5e-11, 20_000)
    snaps = synthesize_snapshots(sc, seed=11)
    Y = snaps.data[0]
    R = sample_covariance(Y)
    phi = math.atan2(sc.user_xz[1], sc.user_xz[0] - subarray_centers(sc.mla)[0])
    pos = element_positions(sc.mla)[0] - subarray_centers(sc.mla)[0]
    d0 = math.hypot(sc.user_xz[0] - subarray_centers(sc.mla)[0], sc.user_xz[1])
    dn = np.sqrt(d0**2 + pos**2 - 2 * pos * d0 * math.cos(phi))
    a = np.exp(-2j * math.pi / 0.02 * dn)
    model = 0.1 * friis_beta(CAR, 25.0) * np.outer(a, a.conj()) + 5e-11 * np.eye(4)
    assert np.linalg.norm(R - model) / np.linalg.norm(model) < 0.05


def test_noise_subspace_orthonormal():
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((50, 6)) + 1j * rng.standard_normal((50, 6))
    b = near_steering(_array(L=2, N=3, D=0.5), CAR, 1.5, 10.0)
    U = noise_subspace(sample_covariance(Y + 0 * b))
    assert U.shape == (6, 5)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(5), atol=1e-10)


def test_noise_subspace_degenerate():
    with pytest.raises(DegenerateSubspaceError):
        noise_subspace(np.eye(8, dtype=complex))


def test_noise_subspace_orthogonal_to_signal():
    mla = _array(L=2, N=8)
    b = near_steering(mla, CAR, 1.3, 18.0)[:8]
    rng = np.random.default_rng(3)
    s = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    U = noise_subspace(sample_covariance(np.outer(s, b)))
    assert np.linalg.norm(b.conj() @ U) < 1e-8 * math.sqrt(8)


def test_music_exact_on_grid():
    """Noiseless data with the bearing on a grid node is recovered exactly."""
    mla = _array(L=2, N=16, D=1.0)
    pos = element_positions(mla)[0] - subarray_centers(mla)[0]
    grid = default_angle_grid(0.002)
    phi = float(grid[700])
    a = far_steering(pos, phi, 0.02)
    rng = np.random.default_rng(4)
    s = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    u1 = principal_eigenvectors(np.outer(s, a))
    assert music_1d(u1, pos, grid, 0.02) == phi

    # an (N, L) stack: one pick per column from one steering matrix
    other = far_steering(pos, float(grid[3]), 0.02)
    stack = np.stack([u1, principal_eigenvectors(np.outer(s, other)), u1], axis=1)
    assert music_1d(stack, pos, grid, 0.02) == (phi, float(grid[3]), phi)


def test_music_1d_cached_steering_is_bitwise_fresh():
    """music_1d builds its steering matrix once per (offsets, grid,
    wavelength) and reuses it; its picks are the lowest-index argmax of a
    fresh |a^H u1|^2, whether the matrix was built or reused."""
    mla = _array(L=2, N=16, D=1.0)
    pos = element_positions(mla)[0] - subarray_centers(mla)[0]
    grid = default_angle_grid(0.002)
    rng = np.random.default_rng(9)
    u = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    u /= np.linalg.norm(u, axis=0)
    proj = np.exp(-2j * np.pi / 0.02 * np.outer(np.cos(grid), pos)) @ u
    fresh = tuple(grid[np.argmax(proj.real**2 + proj.imag**2, axis=0)].tolist())
    cached = localization._conj_steering_rows
    cached.cache_clear()
    built = music_1d(u, pos, grid, 0.02)
    reused = music_1d(u, pos.copy(), grid.copy(), 0.02)  # equal values, new arrays
    assert (cached.cache_info().misses, cached.cache_info().hits) == (1, 1)
    assert built == reused == fresh
    music_1d(u, pos, grid, 0.01)  # another wavelength is another matrix
    assert cached.cache_info().misses == 2
    assert not cached(pos.tobytes(), grid.tobytes(), 0.02).flags.writeable


def test_music_high_snr_within_two_steps():
    mla = _array(L=2, N=16, D=1.0)
    pos = element_positions(mla)[0] - subarray_centers(mla)[0]
    phi = 1.2345
    a = far_steering(pos, phi, 0.02)
    rng = np.random.default_rng(5)
    s = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    noise = 1e-5 * (rng.standard_normal((200, 16)) + 1j * rng.standard_normal((200, 16)))
    u1 = principal_eigenvectors(np.outer(s, a) + noise)
    grid = default_angle_grid(0.002)
    est = music_1d(u1, pos, grid, 0.02)
    assert abs(est - phi) <= 2 * 0.002


def test_estimate_angles_per_subarray():
    sc = Scenario(_array(), CAR, 20.0, 1.4, 0.1, 0.0, 8)
    snaps = synthesize_snapshots(sc, seed=6)
    est = estimate_angles(snaps, default_angle_grid(0.002))
    assert len(est) == 4
    centers = subarray_centers(sc.mla)
    truth = [math.atan2(sc.user_xz[1], sc.user_xz[0] - c) for c in centers]
    np.testing.assert_allclose(est, truth, atol=0.01)


def _per_subarray_music(snapshots, grid):
    """The general K-source path, one sub-array at a time: noise subspace,
    then the argmin of ||a^H U_n||^2 with steering vectors at the elements'
    absolute positions, the first minimum winning."""
    lam = snapshots.scenario.carrier.wavelength
    picks = []
    for data, pos in zip(snapshots.data, element_positions(snapshots.scenario.mla)):
        U = noise_subspace(sample_covariance(data))
        proj = np.exp(-2j * np.pi / lam * np.outer(np.cos(grid), pos)) @ U
        picks.append(float(grid[np.argmin((proj.real**2 + proj.imag**2).sum(axis=1))]))
    return tuple(picks)


@settings(max_examples=40, deadline=None)
@given(L=st.sampled_from([2, 4, 8]), N=st.integers(2, 32),
       gap=st.floats(0.01, 0.5), angle=st.floats(-1.0, 1.0), distance=st.floats(2.0, 40.0),
       power_dbm=st.floats(-10.0, 30.0), noiseless=st.booleans(),
       seed=st.integers(0, 2**63 - 1))
def test_estimate_angles_matches_per_subarray_music(L, N, gap, angle, distance, power_dbm,
                                                    noiseless, seed):
    """One stacked eigh and one centered steering matrix pick the same grid
    angles as per-sub-array noise-subspace MUSIC."""
    mla = ModularArray(L, N, 0.01, gap)
    sc = Scenario(mla, CAR, distance, math.pi / 2 + angle, 10 ** (power_dbm / 10 - 3),
                  0.0 if noiseless else 10**-10.8, 20)
    snaps = synthesize_snapshots(sc, seed)
    grid = default_angle_grid(0.002)
    assert estimate_angles(snaps, grid) == _per_subarray_music(snaps, grid)


def test_stacked_covariance_matches_per_matrix():
    rng = np.random.default_rng(9)
    Y = rng.standard_normal((3, 5, 40, 8)) + 1j * rng.standard_normal((3, 5, 40, 8))
    R = sample_covariance(Y)
    u1 = principal_eigenvectors(Y)
    assert R.shape == (3, 5, 8, 8) and u1.shape == (3, 5, 8)
    for i in range(3):
        for j in range(5):
            assert np.array_equal(R[i, j], sample_covariance(Y[i, j]))
            assert np.array_equal(u1[i, j], principal_eigenvectors(Y[i, j]))


def test_degenerate_member_of_a_stack_raises():
    """A zeroed sub-array, or a zeroed trial of a 2D batch, in the middle of
    the stack fails the whole call."""
    sc = Scenario(_array(), CAR, 20.0, 1.4, 0.1, 1e-10, 8)
    snaps = synthesize_snapshots(sc, seed=10)
    data = snaps.data.copy()
    data[2] = 0
    with pytest.raises(DegenerateSubspaceError):
        estimate_angles(SnapshotSet(data, sc), default_angle_grid(0.002))

    sc = Scenario(_array(L=2, N=8, D=1.0), CAR, 12.0, 1.3, 0.1, 1e-10, 8)
    one = synthesize_snapshots(sc, seed=11).data.transpose(1, 0, 2).reshape(8, -1)
    trials = np.stack([one] * 3)
    assert (music_2d(principal_eigenvectors(trials).T, SMALL_GRID)
            == [music_2d(principal_eigenvectors(one), SMALL_GRID)] * 3)
    trials[1] = 0
    with pytest.raises(DegenerateSubspaceError):
        principal_eigenvectors(trials)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(2, 8), N=st.integers(2, 32), gap=st.floats(0.05, 1.0),
       x=st.floats(-20.0, 20.0), z=st.floats(1.0, 40.0))
@example(L=4, N=16, gap=spacing_for_aperture(2.0, 4, 16, 0.01), x=0.0, z=30.0)
# users straight in front of the middle sub-array's center (the second with
# centers at -1.5, 0 and 1.5 m)
@example(L=3, N=16, gap=1.0, x=0.0, z=1.0)
@example(L=3, N=16, gap=1.35, x=0.0, z=5.0)
def test_triangulate_exact_bearings(L, N, gap, x, z):
    centers = subarray_centers(ModularArray(L, N, 0.01, gap))
    angles = np.arctan2(z, x - centers)
    p = triangulate(angles, centers)
    # rounding grows with the condition number of the 2x2 normal equations of
    # the lines sin(phi) (x - c) - cos(phi) z = 0
    s, k = np.sin(angles), np.cos(angles)
    cond = np.linalg.cond(np.array([[s @ s, -s @ k], [-s @ k, k @ k]]))
    tol = 4 * np.finfo(float).eps * cond * math.hypot(x, z)
    assert p.x == pytest.approx(x, abs=tol)
    assert p.z == pytest.approx(z, abs=tol)
    assert p.distance == pytest.approx(math.hypot(x, z), abs=tol)
    assert p.angle == pytest.approx(math.atan2(z, x), abs=tol / z)


def test_triangulate_symmetry():
    centers = subarray_centers(_array())
    left = triangulate([math.atan2(20.0, -5.0 - c) for c in centers], centers)
    right = triangulate([math.atan2(20.0, 5.0 - c) for c in centers], centers)
    assert left.x == pytest.approx(-right.x, abs=1e-9)
    assert left.z == pytest.approx(right.z, abs=1e-9)


def test_triangulate_bearing_quantization():
    """Bearing errors of one grid step mostly move the depth estimate: the
    cross-range stays within centimeters while depth sees the classic
    range-over-baseline amplification (here about 2 m at 30 m range)."""
    centers = subarray_centers(_array())
    truth = (0.0, 30.0)
    exact = [math.atan2(truth[1], truth[0] - c) for c in centers]
    worst_x = worst = 0.0
    for signs in range(16):
        pert = [a + (0.001 if signs >> k & 1 else -0.001) for k, a in enumerate(exact)]
        p = triangulate(pert, centers)
        worst = max(worst, math.hypot(p.x - truth[0], p.z - truth[1]))
        worst_x = max(worst_x, abs(p.x - truth[0]))
    assert 0.0 < worst < 3.0
    assert worst_x < 0.1


def test_triangulate_parallel_bearings_raise():
    centers = subarray_centers(_array())
    with pytest.raises(IllConditionedTriangulationError):
        triangulate([math.pi / 2] * 4, centers)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(2, 8), N=st.sampled_from([4, 8, 16]),
       angle=st.floats(-math.pi / 3, math.pi / 3), distance=st.floats(4.0, 40.0))
@example(L=4, N=16, angle=0.3, distance=20.0)
def test_locate_noiseless_within_floor(L, N, angle, distance):
    """A noiseless spectrum peaks at a grid angle bracketing each true
    bearing, and bracketing_floor triangulates every such combination, so the
    noiseless estimate lies within that floor."""
    mla = _array(L, N)
    sc = Scenario(mla, CAR, distance, math.pi / 2 + angle, 0.1, 0.0, 4)
    snaps = synthesize_snapshots(sc, seed=7)
    grid = default_angle_grid(0.002)
    est = locate(snaps, grid)
    err = math.hypot(est.x - sc.user_xz[0], est.z - sc.user_xz[1])
    floor = bracketing_floor(mla, sc.user_xz, grid)
    assert err <= floor + 1e-12
    angles = estimate_angles(snaps, grid)
    assert len(angles) == L
    assert est == triangulate(angles, subarray_centers(mla))


def test_music_2d_exact_on_grid():
    mla = _array()
    ag = np.arange(1.1, 1.5, 0.002)
    dg = np.arange(18.0, 22.0, 0.02)
    phi, dist = float(ag[37]), float(dg[101])
    b = near_steering(mla, CAR, phi, dist)
    rng = np.random.default_rng(8)
    s = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    grid = NearFieldGrid(mla, CAR, ag, dg)
    ang, d = music_2d(principal_eigenvectors(np.outer(s, b)), grid)
    assert ang == phi and d == dist

    # an (L*N, B) stack: one pick per trial
    truths = [(37, 101), (0, 0), (ag.size - 1, dg.size - 1)]
    stacked = np.stack([np.outer(s, near_steering(mla, CAR, ag[i], dg[j]))
                        for i, j in truths])
    picks = music_2d(principal_eigenvectors(stacked).T, grid)
    assert picks == [(float(ag[i]), float(dg[j])) for i, j in truths]


def test_synthesized_user_on_a_2d_grid_point_is_found_exactly():
    """Noiseless snapshots carry the spherical-wave channel of the whole
    array, so a user placed on a 2D grid point comes back as that point. A
    per-sub-array plane-wave channel referenced to the array origin would
    not: the whole-array search would find no coherent near-field vector."""
    mla = _array()
    grid = NearFieldGrid(mla, CAR, np.linspace(math.pi / 2 - 1.1, math.pi / 2 + 1.1, 81),
                         np.linspace(4.0, 40.0, 144))
    rng = np.random.default_rng(21)
    truths = list(zip(rng.integers(0, 81, 20).tolist(), rng.integers(0, 144, 20).tolist()))
    whole = []
    for k, (i, j) in enumerate(truths):
        sc = Scenario(mla, CAR, float(grid.distance_grid[j]), float(grid.angle_grid[i]),
                      0.1, 0.0, 8)
        whole.append(synthesize_snapshots(sc, seed=k).data.transpose(1, 0, 2).reshape(8, -1))
    picks = music_2d(principal_eigenvectors(np.stack(whole)).T, grid)
    assert picks == [(float(grid.angle_grid[i]), float(grid.distance_grid[j]))
                     for i, j in truths]


def test_grid_argmax_phase_invariance():
    mla = _array(L=2, N=8, D=1.0)
    ag = np.arange(1.2, 1.4, 0.01)
    dg = np.arange(10.0, 14.0, 0.1)
    grid = NearFieldGrid(mla, CAR, ag, dg)
    u = near_steering(mla, CAR, 1.3, 12.0)
    u = u / np.linalg.norm(u)
    r1 = grid.argmax_rank1(u)
    r2 = grid.argmax_rank1(u * np.exp(1j * 0.7))
    assert r1 == r2
    assert grid.num_points == ag.size * dg.size


# A stored entry is within this of its float64 value exp(-ikr): float32 cos
# and sin (2 ulp each) of the phase reduced to [-pi, pi] and rounded to
# float32 (2u); see the margin of NearFieldGrid.argmax_rank1.
ENTRY_BOUND = (2 + 2 * math.sqrt(2)) * 2.0**-24


def _storage_error(grid):
    """Largest |stored entry - float64 cos and sin of its phase| over every
    stored row of grid."""
    x = element_positions(grid.mla).ravel()
    k = 2 * np.pi / grid.carrier.wavelength
    c = np.cos(grid.angle_grid[grid._stored])[:, None, None]
    theta = localization._phase(x, k, c, grid.distance_grid[:, None]).reshape(-1, x.size)
    return np.abs(grid.matrix - (np.cos(theta) + 1j * np.sin(theta))).max()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_grid_does_not_depend_on_worker_count(workers, monkeypatch):
    """Each worker builds a contiguous range of stored angle rows; at 1, 2
    and 3 workers (an uneven split of 7 stored angles, each paired with one
    of the 7 mirrored ones) the matrix has the same bits as the build at the
    next of those counts, and every entry is within ENTRY_BOUND of float64
    cos and sin of its phase."""
    mla = _array(L=2, N=8, D=1.0)
    ag, dg = np.pi / 2 + 0.01 * np.arange(-6.5, 7), np.arange(10.0, 14.0, 0.1)
    builds = []
    for count in (workers, workers % 3 + 1):
        monkeypatch.setattr(numerics, "_WORKERS", count)
        builds.append(NearFieldGrid(mla, CAR, ag, dg))
    grid, other = builds
    assert list(grid._stored) == list(range(7))
    assert list(grid._partner) == list(range(13, -1, -1))
    assert np.array_equal(grid.matrix.view(np.uint64), other.matrix.view(np.uint64))
    assert _storage_error(grid) <= ENTRY_BOUND


def test_default_grid_entries_within_storage_bound():
    """Every 25th stored angle of the default centered grid at every default
    distance, phases from 9.3e2 to 1.3e4 rad: each stored entry is within
    ENTRY_BOUND of its float64 value, as the screen's margin assumes. A
    numpy whose float32 cos or sin breaks 2 ulp fails here."""
    angles = localization.centered_angle_grid(0.002)[:551:25]
    grid = NearFieldGrid(_array(), CAR, angles, localization.default_distance_grid(0.02))
    assert grid.matrix.shape == (23 * 1821, 64)
    assert _storage_error(grid) <= ENTRY_BOUND


@pytest.mark.parametrize("angles, distances", [
    (np.arange(1.2, 1.4, 0.01), np.arange(-14.0, -10.0, 0.1)),
    (np.arange(1.2, 1.4, 0.01), np.array([10.0, np.nan, 12.0])),
    (np.arange(1.2, 1.4, 0.01), np.array([0.0, 10.0])),
    (np.arange(1.2, 1.4, 0.01), np.array([10.0, np.inf])),
    (np.array([1.2, np.nan]), np.arange(10.0, 14.0, 0.1)),
    (np.array([1.2, -np.inf]), np.arange(10.0, 14.0, 0.1)),
], ids=["negative", "nan_distance", "zero", "inf_distance", "nan_angle", "inf_angle"])
def test_grid_rejects_points_it_cannot_search(angles, distances):
    """A grid with a negative distance used to build and then fail a sweep
    after all its trials; a NaN distance broke argmax_rank1's unpacking."""
    with pytest.raises(ValueError):
        NearFieldGrid(_array(L=2, N=8, D=1.0), CAR, angles, distances)


SMALL_GRID = NearFieldGrid(_array(L=2, N=8, D=1.0), CAR, np.arange(1.2, 1.4, 0.01),
                           np.arange(10.0, 14.0, 0.1))


def _exact_rows(grid):
    """Every grid point's steering row recomputed in float64, in grid order,
    with the operations of the grid's build."""
    x = element_positions(grid.mla).ravel()
    k = 2 * np.pi / grid.carrier.wavelength
    c = np.repeat(np.cos(grid.angle_grid), grid.distance_grid.size)[:, None]
    d = np.tile(grid.distance_grid, grid.angle_grid.size)[:, None]
    theta = np.sqrt(d * d + x * x - 2 * c * d * x) * -k
    return np.cos(theta) + 1j * np.sin(theta)


def _brute_force_argmax(grid, u):
    """float64 |b^H u|^2 over every grid point's recomputed row, first maximum
    wins."""
    m = _exact_rows(grid)
    w = np.conj(u)
    re = (m.real * w.real - m.imag * w.imag).sum(axis=1)
    im = (m.real * w.imag + m.imag * w.real).sum(axis=1)
    ia, idist = divmod(int(np.argmax(re * re + im * im)), grid.distance_grid.size)
    return float(grid.angle_grid[ia]), float(grid.distance_grid[idist])


def _repeat_distances(*indices):
    """SMALL_GRID's distances with each listed one replaced by the one
    before it, so the two grid points at those distances tie exactly."""
    dg = np.arange(10.0, 14.0, 0.1)
    dg[list(indices)] = dg[[i - 1 for i in indices]]
    return dg


# SMALL_GRID with distances 16 and 24 repeating 15 and 23, so that grid rows
# 255 and 256, and 383 and 384, tie exactly across the boundary between the
# first two screen workers' ranges of 64-row blocks (13 blocks; 3 and 2
# workers). No angle has a mirror partner, so every row is stored.
TIE_GRID = NearFieldGrid(_array(L=2, N=8, D=1.0), CAR, np.arange(1.2, 1.4, 0.01),
                         _repeat_distances(16, 24))

# Laid out like centered_angle_grid(): angle 0 has no partner, angle 10 (pi/2)
# is its own mirror and is stored alone, and angles 1..9 are stored for
# themselves and their mirrors 19..11. Distances 16 and 32 repeat 15 and 31,
# so that grid points 13 * 40 + 15 and + 16 (angle 13, mirrored from stored
# slot 7: stored rows 295 and 296) tie exactly across the boundary between
# the second and third of 3 screen workers at 64-row blocks, and points
# 15 * 40 + 31 and + 32 (stored rows 231 and 232) across that of 2 workers.
# ODD_GRID is the same grid for L = 3 sub-arrays of N = 5 elements, whose
# middle element sits at x = 0 and is its own mirror.
MIRROR_ANGLES = np.pi / 2 + 0.01 * np.arange(-10, 10)
MIRROR_GRID = NearFieldGrid(_array(L=2, N=8, D=1.0), CAR, MIRROR_ANGLES,
                            _repeat_distances(16, 32))
ODD_GRID = NearFieldGrid(_array(L=3, N=5, D=1.0), CAR, MIRROR_ANGLES,
                         _repeat_distances(16, 32))


def _mirror_tie_row(workers):
    """The higher grid point of MIRROR_GRID's exact tie that straddles the
    first boundary between screen workers' ranges."""
    return 13 * 40 + 16 if workers == 3 else 15 * 40 + 32


def _planted_column(rng, kind, grid, tie_row):
    """A unit eigenvector-like column: random; a tie (in exact arithmetic)
    between two grid points one angle or one distance step apart, or between
    a point and its mirror image; grid point tie_row - 1 itself, which the
    grid ties exactly with tie_row; or a point at angle 0 or at the
    self-mirror angle pi/2 of MIRROR_GRID."""
    rows = _exact_rows(grid)
    n, D = rows.shape[1], grid.distance_grid.size
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    if kind == "random":
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    elif kind == "boundary_tie":
        u = rows[tie_row - 1] * phase
    elif kind in ("first_angle", "self_mirror"):
        angle = 0 if kind == "first_angle" else MIRROR_ANGLES.size // 2
        u = rows[angle * D + int(rng.integers(D))] * phase
    elif kind == "mirror_tie":
        angle = int(rng.choice(np.flatnonzero(grid._partner >= 0)))
        j = int(rng.integers(D))
        u = rows[angle * D + j] + phase * rows[grid._partner[angle] * D + j]
    else:
        step = 1 if kind == "distance_tie" else D
        j = int(rng.integers(0, grid.num_points - step))
        u = rows[j] + phase * rows[j + step]
    return u / np.linalg.norm(u)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["random", "distance_tie", "angle_tie",
                                       "boundary_tie"]), min_size=1, max_size=6),
       phase_copy=st.booleans(),
       block_bytes=st.sampled_from([1, 1 << 12, 1 << 21]),
       workers=st.sampled_from([1, 2, 3]),
       blas_control=st.booleans())
@example(seed=0, kinds=["boundary_tie"], phase_copy=False, block_bytes=1, workers=2,
         blas_control=True)
@example(seed=1, kinds=["boundary_tie", "random"], phase_copy=True, block_bytes=1,
         workers=3, blas_control=True)
def test_grid_argmax_batch_matches_columns_and_brute_force(seed, kinds, phase_copy,
                                                           block_bytes, workers,
                                                           blas_control):
    """Batched picks equal one-column picks and a float64 brute force, for any
    block height (1 gives 64-row blocks and a short last block), at 1, 2 and 3
    screen workers, and with the BLAS thread controls missing (one range on
    the caller). A boundary tie straddles the first two workers' ranges at
    64-row blocks; its two points share their (angle, distance) values, so
    test_exact_tie_goes_to_the_lower_index checks which of them wins."""
    rng = np.random.default_rng(seed)
    grid = TIE_GRID
    boundary = 13 // max(workers, 2) * 64
    cols = [_planted_column(rng, kind, grid, boundary) for kind in kinds]
    if phase_copy:  # equal up to a global phase
        cols.append(cols[0] * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    stack = np.stack(cols, axis=1)
    controls = numerics._BLAS_THREADS if blas_control else None
    with mock.patch.object(localization, "_BLOCK_PRODUCT_BYTES", block_bytes), \
            mock.patch.object(numerics, "_WORKERS", workers), \
            mock.patch.object(numerics, "_BLAS_THREADS", controls):
        picks = grid.argmax_rank1(stack)
        singles = [grid.argmax_rank1(u) for u in cols]
    assert picks == singles == [_brute_force_argmax(grid, u) for u in cols]


# SMALL_GRID's angles followed by their negatives: cos is even, so the rows of
# angles i and 20 + i are equal bit for bit and tie exactly, at distinct angle
# values, 800 rows apart (in different workers' ranges at 64-row blocks).
SIGN_GRID = NearFieldGrid(_array(L=2, N=8, D=1.0), CAR,
                          np.r_[np.arange(1.2, 1.4, 0.01), -np.arange(1.2, 1.4, 0.01)],
                          np.arange(10.0, 14.0, 0.1))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block_bytes", [1, 1 << 12, 1 << 21])
def test_exact_tie_goes_to_the_lower_index(workers, block_bytes, monkeypatch):
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    monkeypatch.setattr(localization, "_BLOCK_PRODUCT_BYTES", block_bytes)
    rows = _exact_rows(SIGN_GRID)
    points = [(0, 0), (6, 15), (19, 39)]
    cols = [rows[a * 40 + d] / 4 for a, d in points]
    want = [(float(SIGN_GRID.angle_grid[a]), float(SIGN_GRID.distance_grid[d]))
            for a, d in points]
    assert SIGN_GRID.argmax_rank1(np.stack(cols, axis=1)) == want
    assert [_brute_force_argmax(SIGN_GRID, u) for u in cols] == want


def test_mirror_layout():
    """Only one angle of each mirror pair is stored; angles without a partner
    keep their rows. Positions that are not antisymmetric pair nothing."""
    D = MIRROR_GRID.distance_grid.size
    partner = [-1] + list(range(19, 10, -1)) + [-1] + list(range(9, 0, -1))
    assert list(MIRROR_GRID._partner) == partner
    assert list(MIRROR_GRID._stored) == list(range(11))
    assert MIRROR_GRID.matrix.shape == (11 * D, 16)
    assert MIRROR_GRID.num_points == 20 * D
    assert MIRROR_GRID._runs == [(0, D, False), (D, 10 * D, True), (10 * D, 11 * D, False)]
    assert np.all(SMALL_GRID._partner == -1)
    assert SMALL_GRID.matrix.shape[0] == SMALL_GRID.num_points
    x = element_positions(_array(L=2, N=8, D=1.0)).ravel()
    c = np.cos(MIRROR_ANGLES)
    assert np.all(localization._mirror_partners(MIRROR_ANGLES, c, x + 1e-3, 100.0) == -1)
    # a partner's cosine a hair past the float32 phase tolerance does not pair
    k = 2 * np.pi / CAR.wavelength
    near = -c[1] + 2 * 2.0**-24 * math.sin(MIRROR_ANGLES[1]) / (k * np.abs(x).max())
    cos = np.array([c[1], near])
    assert np.all(localization._mirror_partners(np.arccos(cos), cos, x, k) == -1)
    assert list(localization._mirror_partners(np.arccos(cos), np.array([c[1], -c[1]]),
                                              x, k)) == [1, 0]


MIRROR_KINDS = ["random", "distance_tie", "angle_tie", "mirror_tie", "boundary_tie",
                "first_angle", "self_mirror"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(MIRROR_KINDS), min_size=1, max_size=6),
       block_bytes=st.sampled_from([1, 1 << 12, 1 << 21]),
       workers=st.sampled_from([1, 2, 3]),
       odd=st.booleans())
@example(seed=2, kinds=MIRROR_KINDS, block_bytes=1, workers=3, odd=False)
@example(seed=3, kinds=MIRROR_KINDS, block_bytes=1, workers=2, odd=True)
def test_mirror_grid_matches_brute_force(seed, kinds, block_bytes, workers, odd):
    """On a centered grid that stores one angle of each mirror pair, batched
    and one-column picks equal the float64 brute force over all points: ties
    across a mirror pair, exact ties between two mirrored points across a
    worker boundary (the lower index wins), the unpaired angle 0 and the
    self-mirror angle, at 1, 2 and 3 workers and several block heights, for
    an even and an odd element count."""
    rng = np.random.default_rng(seed)
    grid = ODD_GRID if odd else MIRROR_GRID
    cols = [_planted_column(rng, kind, grid, _mirror_tie_row(workers)) for kind in kinds]
    with mock.patch.object(localization, "_BLOCK_PRODUCT_BYTES", block_bytes), \
            mock.patch.object(numerics, "_WORKERS", workers):
        picks = grid.argmax_rank1(np.stack(cols, axis=1))
        singles = [grid.argmax_rank1(u) for u in cols]
    assert picks == singles == [_brute_force_argmax(grid, u) for u in cols]


def test_odd_element_count_pairs():
    x = element_positions(ODD_GRID.mla).ravel()
    assert x.size == 15 and x[7] == 0 and np.array_equal(x, -x[::-1])
    assert np.array_equal(ODD_GRID._partner, MIRROR_GRID._partner)
    assert ODD_GRID.matrix.shape == (11 * ODD_GRID.distance_grid.size, 15)


def _perturbed(grid, pick, by=None):
    """A copy of grid whose stored row for the point pick (or for its mirror
    partner) is one float32 ulp nearer zero in every part, and every other
    stored row one ulp farther; by that much instead, if by is given."""
    ia = int(np.flatnonzero(grid.angle_grid == pick[0])[0])
    idist = int(np.flatnonzero(grid.distance_grid == pick[1])[0])
    stored = ia if ia in grid._stored else grid._partner[ia]
    row = int(np.flatnonzero(grid._stored == stored)[0]) * grid.distance_grid.size + idist
    m = grid.matrix.view(np.float32)
    if by is None:
        out = np.nextafter(m, np.copysign(np.inf, m))
        out[row] = np.nextafter(m[row], 0)
    else:
        out = m + np.copysign(np.float32(by), m)
        out[row] = m[row] - np.copysign(np.float32(by), m[row])
    perturbed = copy.copy(grid)
    perturbed.matrix = out.view(np.complex64)
    return perturbed


PERTURBED_CASES = [
    ("TIE_GRID", "boundary_tie"), ("TIE_GRID", "distance_tie"), ("TIE_GRID", "random"),
    ("MIRROR_GRID", "boundary_tie"), ("MIRROR_GRID", "mirror_tie"),
    ("MIRROR_GRID", "first_angle"), ("MIRROR_GRID", "self_mirror")]


def _check_perturbed_picks(grid_name, kind, workers, monkeypatch, by=None):
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    monkeypatch.setattr(localization, "_BLOCK_PRODUCT_BYTES", 1)
    grid = globals()[grid_name]
    tie_row = 384 if grid is TIE_GRID else _mirror_tie_row(workers)
    rng = np.random.default_rng(workers)
    for _ in range(4):
        u = _planted_column(rng, kind, grid, tie_row)
        pick = grid.argmax_rank1(u)
        assert pick == _brute_force_argmax(grid, u)
        assert _perturbed(grid, pick, by).argmax_rank1(u) == pick


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("grid_name, kind", PERTURBED_CASES)
def test_pick_ignores_one_ulp_in_the_stored_rows(grid_name, kind, workers, monkeypatch):
    """Stored rows only screen: with the picked point's stored row one float32
    ulp smaller and every other row one ulp larger, each pick is unchanged.
    Picks rescored from the stored rows follow that perturbation at the
    near-ties of distance_tie and mirror_tie columns."""
    _check_perturbed_picks(grid_name, kind, workers, monkeypatch)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("grid_name, kind", PERTURBED_CASES)
def test_pick_ignores_the_storage_bound_in_the_stored_rows(grid_name, kind, workers,
                                                          monkeypatch):
    """As above, with every stored part moved by the full ENTRY_BOUND (the
    picked row toward zero, every other row away), not one ulp: the screen's
    margin keeps every pick."""
    _check_perturbed_picks(grid_name, kind, workers, monkeypatch, ENTRY_BOUND)


def test_screen_gemm_width(monkeypatch):
    """Blocks of angles without a partner are screened against the B weight
    columns alone (2B real columns), paired blocks against [w, Jw] (4B): on a
    grid with no pairs every GEMM has 2B columns."""
    shapes = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        shapes.append(b.shape)
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    monkeypatch.setattr(localization, "_BLOCK_PRODUCT_BYTES", 1)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    SMALL_GRID.argmax_rank1(u)
    assert len(shapes) == 13 and set(shapes) == {(32, 6)}
    shapes.clear()
    MIRROR_GRID.argmax_rank1(u)
    # angle 0, angles 1..9 in 64-row blocks, angle 10
    assert shapes == [(32, 6)] + [(32, 12)] * 6 + [(32, 6)]


def test_default_grid_stores_half(monkeypatch):
    """The default centered grid stores angles 0..550 of its 1,100: 513.7 MB
    in place of 1,025.6 MB, for the same 2,003,100 grid points. The build is
    skipped here: only the layout is checked."""
    monkeypatch.setattr(localization, "_run_blocks", lambda task, num_blocks: None)
    grid = NearFieldGrid(_array(), CAR, localization.centered_angle_grid(0.002),
                         localization.default_distance_grid(0.02))
    assert list(grid._stored) == list(range(551))
    assert grid.matrix.nbytes == 513_725_952
    assert grid.num_points == 2_003_100


def test_screen_workers_lose_no_candidates_under_switching(monkeypatch):
    """Eight screen workers on two cores append to shared lists with the
    interpreter switching threads every microsecond; every pick still equals
    the brute force, which a lost best or candidate list would break."""
    monkeypatch.setattr(numerics, "_WORKERS", 8)
    monkeypatch.setattr(localization, "_BLOCK_PRODUCT_BYTES", 1)
    rng = np.random.default_rng(11)
    cols = [_planted_column(rng, kind, TIE_GRID, 384)
            for kind in ("random", "angle_tie", "distance_tie", "boundary_tie") * 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        picks = [TIE_GRID.argmax_rank1(np.stack(cols, axis=1)) for _ in range(10)]
    finally:
        sys.setswitchinterval(interval)
    assert picks == [[_brute_force_argmax(TIE_GRID, u) for u in cols]] * 10


@pytest.mark.skipif(numerics._BLAS_THREADS is None,
                    reason="this numpy's OpenBLAS exports no thread controls")
def test_screen_leaves_blas_threads_as_found(monkeypatch):
    """The screen workers run with BLAS at one thread, and the old count is
    back after the call, also when a worker raises; only the calling thread
    reads or sets the count."""
    get, put = numerics._BLAS_THREADS
    callers, in_workers = [], []

    def spy(fn):
        def called(*args):
            callers.append(threading.get_ident())
            return fn(*args)
        return called

    matmul = np.matmul

    def worker_matmul(*args, **kwargs):
        in_workers.append(get())
        if fail and threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(numerics, "_BLAS_THREADS", (spy(get), spy(put)))
    monkeypatch.setattr(numerics, "_WORKERS", 2)
    monkeypatch.setattr(localization, "_BLOCK_PRODUCT_BYTES", 1)
    monkeypatch.setattr(np, "matmul", worker_matmul)
    u = _planted_column(np.random.default_rng(3), "random", SMALL_GRID, 0)
    before = get()
    put(2)  # a count other than the pin's, so that a restore shows
    try:
        fail = False
        assert SMALL_GRID.argmax_rank1(u) == _brute_force_argmax(SMALL_GRID, u)
        assert get() == 2
        assert in_workers and set(in_workers) == {1}
        fail = True
        with pytest.raises(RuntimeError, match="worker failed"):
            SMALL_GRID.argmax_rank1(u)
        assert get() == 2
    finally:
        put(before)
    assert callers and set(callers) == {threading.get_ident()}


def test_scenario_validation():
    mla = _array()
    with pytest.raises(ValueError):
        Scenario(mla, CAR, 20.0, 0.0, 0.1, 1e-10, 10)  # bearing outside (0, pi)
    with pytest.raises(ValueError):
        Scenario(mla, CAR, -5.0, 1.5, 0.1, 1e-10, 10)
    with pytest.raises(ValueError):
        Scenario(mla, CAR, 20.0, 1.5, 0.1, 1e-10, 1)  # single snapshot
    # NaN and inf would otherwise reach synthesize_snapshots
    for bad in (math.nan, math.inf):
        for distance, power, noise in ((bad, 0.1, 1e-10), (20.0, bad, 1e-10),
                                       (20.0, 0.1, bad)):
            with pytest.raises(ValueError):
                Scenario(mla, CAR, distance, 1.5, power, noise, 10)


def test_nmse_consistency_in_snapshots():
    """More snapshots cannot hurt on average; allow one inversion."""
    mla = _array(L=2, N=16)
    errs = []
    for T in (10, 100, 1000):
        sq = []
        for trial in range(60):
            rng = np.random.default_rng(1000 + trial)
            phi = math.pi / 2 + rng.uniform(-0.8, 0.8)
            dist = rng.uniform(5.0, 35.0)
            sc = Scenario(mla, CAR, dist, phi, 0.1, 10**-10.8, T)
            snaps = synthesize_snapshots(sc, seed=2000 + trial)
            est = locate(snaps, default_angle_grid(0.002))
            sq.append((est.x - sc.user_xz[0]) ** 2 + (est.z - sc.user_xz[1]) ** 2)
        errs.append(float(np.mean(sq)))
    inversions = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
    assert inversions <= 1
