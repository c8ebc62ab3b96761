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
    assert music_1d(u1[:, None], pos, grid, 0.02) == (phi,)

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
    rows = np.exp(-2j * np.pi / 0.02 * np.outer(np.cos(grid), pos))
    proj = rows @ u
    fresh = tuple(grid[np.argmax(proj.real**2 + proj.imag**2, axis=0)].tolist())
    cached = localization._conj_steering_rows
    cached.cache_clear()
    built = music_1d(u, pos, grid, 0.02)
    reused = music_1d(u, pos.copy(), grid.copy(), 0.02)  # equal values, new arrays
    assert (cached.cache_info().misses, cached.cache_info().hits) == (1, 1)
    assert built == reused == fresh
    music_1d(u, pos, grid, 0.01)  # another wavelength is another matrix
    assert cached.cache_info().misses == 2
    matrix = cached(pos.tobytes(), grid.tobytes(), 0.02)
    assert not matrix.flags.writeable
    # conj of far_steering's rows, bit for bit the direct exp(-i k x cos(phi))
    assert np.array_equal(matrix.view(np.uint64), rows.view(np.uint64))


def test_search_contracts():
    """Each search takes one shape, a stack of eigenvectors one per column,
    and returns one type: music_1d a tuple, argmax_rank1 and music_2d a list.
    A lone vector is refused, and an empty batch gives no picks."""
    pos = element_positions(ModularArray.ula(16, 0.01)).ravel()
    grid = default_angle_grid(0.002)
    u = far_steering(pos, 1.0, 0.02) / 4
    assert music_1d(u[:, None], pos, grid, 0.02) == (float(grid[499]),)
    assert music_1d(np.empty((16, 0)), pos, grid, 0.02) == ()
    with pytest.raises(ValueError):
        music_1d(u, pos, grid, 0.02)
    b = _exact_rows(SMALL_GRID)[123] / 4
    pick = [(float(SMALL_GRID.angle_grid[3]), float(SMALL_GRID.distance_grid[3]))]
    assert SMALL_GRID.argmax_rank1(b[:, None]) == music_2d(b[:, None], SMALL_GRID) == pick
    for search in (SMALL_GRID.argmax_rank1, lambda v: music_2d(v, SMALL_GRID)):
        assert search(np.empty((16, 0), dtype=complex)) == []
        with pytest.raises(ValueError):
            search(b)


@settings(max_examples=200, deadline=None)
@given(L=st.integers(1, 8), N=st.integers(1, 32), gap=st.floats(0.01, 1.0),
       wavelength=st.sampled_from([0.02, 0.01, 0.0123]),
       phi=st.floats(0.0, math.pi), d=st.floats(0.1, 100.0))
def test_near_steering_keeps_its_formula(L, N, gap, wavelength, phi, d):
    """near_steering, exp(i _phase), has the bits of the direct
    exp(-i 2 pi / wavelength * sqrt(d^2 + x^2 - 2 x d cos(phi)))."""
    mla = ModularArray(L, N, 0.01, gap)
    x = element_positions(mla).ravel()
    direct = np.exp(-2j * np.pi / wavelength
                    * np.sqrt(d * d + x * x - 2 * x * d * math.cos(phi)))
    got = near_steering(mla, Carrier.from_wavelength(wavelength), phi, d)
    assert np.array_equal(got.view(np.uint64), direct.view(np.uint64))


def test_2d_rows_are_near_steering():
    """At every point of a small centered grid, float64 cos and sin of the
    phase the build and the rescoring compute are near_steering's entries
    bit for bit: the 2D baseline scores the channel the rates use."""
    grid = NearFieldGrid(_array(), CAR, localization.centered_angle_grid(0.05),
                         localization.default_distance_grid(1.0))
    assert grid.num_points == 44 * 37
    for i, a in enumerate(grid.angle_grid):
        for d in grid.distance_grid:
            theta = localization._phase(grid._x, grid._k, grid._cos[i], d)
            b = near_steering(grid.mla, grid.carrier, float(a), float(d))
            assert np.array_equal(b.real, np.cos(theta)) and np.array_equal(b.imag, np.sin(theta))


@settings(max_examples=300, deadline=None)
@given(step=st.floats(1e-3, 3.0))
@example(step=0.003)
@example(step=0.007)
@example(step=1.1 / 7)
@example(step=2.2)
def test_centered_grid_is_broadside_plus_whole_steps(step):
    """centered_angle_grid is pi/2 + k * step, bit for bit, for each integer
    k whose angle lies in [pi/2 - 1.1, pi/2 + 1.1), k increasing and none
    missing; the angles for k and -k sum to pi within a few ulps, at any
    step, so each has its mirror about broadside on the grid."""
    grid = localization.centered_angle_grid(step)
    k = np.rint((grid - math.pi / 2) / step)
    assert grid.size and np.array_equal(grid, math.pi / 2 + step * k)
    assert np.all(np.diff(k) == 1)
    lo, hi = math.pi / 2 - 1.1, math.pi / 2 + 1.1
    assert lo <= grid[0] and grid[-1] < hi
    assert math.pi / 2 + step * (k[0] - 1) < lo and math.pi / 2 + step * (k[-1] + 1) >= hi
    mirrored = np.isin(-k, k)
    assert np.count_nonzero(mirrored) >= grid.size - 1
    mirror = grid[(-k[mirrored] - k[0]).astype(int)]
    assert np.all(np.abs(grid[mirrored] + mirror - math.pi) <= 4 * np.spacing(math.pi))


@pytest.mark.parametrize("step, count", [
    (0.002, 1100), (0.0025, 880), (0.01, 220), (0.02, 110), (0.05, 44)])
def test_centered_grid_keeps_the_arange_count(step, count):
    """Where the step divides the 2.2 rad span, the grid holds as many angles
    as the np.arange grid it replaced, so the 2D search's point count (and
    the benchmark's exact count of 2,003,100 and 80,300 points) is kept."""
    assert localization.centered_angle_grid(step).size == count
    assert np.arange(math.pi / 2 - 1.1, math.pi / 2 + 1.1, step).size == count


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
    (est,) = music_1d(u1[:, None], pos, grid, 0.02)
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
            == music_2d(principal_eigenvectors(one)[:, None], SMALL_GRID) * 3)
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
    [(ang, d)] = music_2d(principal_eigenvectors(np.outer(s, b))[:, None], grid)
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
    u = near_steering(mla, CAR, 1.3, 12.0)[:, None]
    u = u / np.linalg.norm(u)
    r1 = grid.argmax_rank1(u)
    r2 = grid.argmax_rank1(u * np.exp(1j * 0.7))
    assert r1 == r2
    assert grid.num_points == ag.size * dg.size


# A stored entry q, read as q / 32767, is within this of its float64 value
# exp(-ikr): each part rounded to 1/32767 after a float32 scaling (2**-16 + u)
# of float32 cos and sin (2 ulp each) of the phase reduced to [-pi, pi] and
# rounded to float32 (2u); see delta in NearFieldGrid.argmax_rank1.
ENTRY_BOUND = math.sqrt(2) * 2.0**-16 + (2 + 3 * math.sqrt(2)) * 2.0**-24


def _stored_phases(grid):
    """float64 phases of every stored row of grid, shape (rows, n)."""
    x = element_positions(grid.mla).ravel()
    k = 2 * np.pi / grid.carrier.wavelength
    c = np.cos(grid.angle_grid[grid._stored])[:, None, None]
    return localization._phase(x, k, c, grid.distance_grid[:, None]).reshape(-1, x.size)


def _storage_error(grid):
    """Largest |stored entry q / 32767 - float64 cos and sin of its phase|
    over every stored row of grid, whose int16 parts interleave [Re, Im]."""
    theta = _stored_phases(grid)
    assert grid.matrix.dtype == np.int16
    assert grid.matrix.shape == (theta.shape[0], 2 * theta.shape[1])
    q = grid.matrix.reshape(*theta.shape, 2) / 32767
    return np.hypot(q[..., 0] - np.cos(theta), q[..., 1] - np.sin(theta)).max()


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
    assert np.array_equal(grid.matrix, other.matrix)
    assert _storage_error(grid) <= ENTRY_BOUND


def test_default_grid_entries_within_storage_bound():
    """Every 25th stored angle of the default centered grid at every default
    distance, phases from 9.3e2 to 1.3e4 rad: each stored entry is within
    ENTRY_BOUND of its float64 value, as the screen's floor assumes. A
    part rounded to the wrong quantum, or a float32 cos or sin far off its
    2 ulp, fails here."""
    angles = localization.centered_angle_grid(0.002)[:551:25]
    grid = NearFieldGrid(_array(), CAR, angles, localization.default_distance_grid(0.02))
    assert grid.matrix.shape == (23 * 1821, 128)
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
    with the operations of the grid's build (and of near_steering)."""
    x = element_positions(grid.mla).ravel()
    k = 2 * np.pi / grid.carrier.wavelength
    c = np.repeat(np.cos(grid.angle_grid), grid.distance_grid.size)[:, None]
    d = np.tile(grid.distance_grid, grid.angle_grid.size)[:, None]
    theta = np.sqrt(d * d + x * x - 2 * x * d * c) * -k
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
    screen workers, and with the BLAS thread controls missing (the same
    ranges, with BLAS left alone). A boundary tie straddles the first two workers' ranges at
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
        singles = [pick for u in cols for pick in grid.argmax_rank1(u[:, None])]
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
    keep their rows, and those rows are marked lone. Positions that are not
    antisymmetric pair nothing."""
    D = MIRROR_GRID.distance_grid.size
    partner = [-1] + list(range(19, 10, -1)) + [-1] + list(range(9, 0, -1))
    assert list(MIRROR_GRID._partner) == partner
    assert list(MIRROR_GRID._stored) == list(range(11))
    assert MIRROR_GRID.matrix.shape == (11 * D, 32)
    assert MIRROR_GRID.num_points == 20 * D
    assert list(MIRROR_GRID._lone) == [True] * D + [False] * (9 * D) + [True] * D
    assert np.all(SMALL_GRID._partner == -1)
    assert SMALL_GRID.matrix.shape[0] == SMALL_GRID._lone.size == SMALL_GRID.num_points
    assert np.all(SMALL_GRID._lone)
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


def _brute_force_partners(angles, cos, x, k):
    """O(n^2) reference for _mirror_partners: i and j != i pair when each is
    the other's nearest by |cos a_i + cos a_j| (ties to the lower cosine, then
    to the lower index) and that sum is within the float32 phase bound; no
    angle pairs for positions that are not antisymmetric."""
    n = cos.size
    if x.size < 2 or not np.array_equal(x, -x[::-1]):
        return [-1] * n
    bound = 2.0**-24 / (k * np.abs(x).max()) * np.abs(np.sin(angles))
    near = []
    for i in range(n):
        gap = np.abs(cos[i] + cos)
        ties = np.flatnonzero(gap == gap.min())
        near.append(int(ties[cos[ties] == cos[ties].min()][0]))
    return [j if j != i and near[j] == i and abs(cos[i] + cos[j]) <= min(bound[i], bound[j])
            else -1 for i, j in enumerate(near)]


@settings(max_examples=300, deadline=None)
@given(ks=st.lists(st.integers(-40, 40), min_size=1, max_size=60),
       step=st.sampled_from([0.01, 0.02, 0.03, 0.07]),
       kind=st.sampled_from(["centered", "sign", "nudged", "skewed"]),
       nudge=st.sampled_from([0.5, 1 - 1e-3, 1 + 1e-3, 2.0]),
       L=st.integers(1, 4), N=st.integers(1, 8))
@example(ks=[0], step=0.01, kind="centered", nudge=0.5, L=2, N=8)
@example(ks=[3], step=0.01, kind="centered", nudge=0.5, L=2, N=8)
@example(ks=[3, -3], step=0.01, kind="centered", nudge=0.5, L=2, N=8)
@example(ks=[3, -3], step=0.01, kind="nudged", nudge=1 - 1e-3, L=2, N=8)
@example(ks=[3, -3], step=0.01, kind="nudged", nudge=1 + 1e-3, L=2, N=8)
@example(ks=[-3, 3, 3, -3], step=0.01, kind="sign", nudge=0.5, L=3, N=5)
@example(ks=[3, -3], step=0.01, kind="skewed", nudge=0.5, L=2, N=8)
def test_mirror_partners_match_brute_force(ks, step, kind, nudge, L, N):
    """The sorted nearest-cosine pairing equals the O(n^2) reference on
    subsets of centered grids, repeated angles included; with every third
    angle negated, as on SIGN_GRID, so that distinct angles share a cosine; with
    each partner's cosine moved to nudge times the bound away from the
    mirror; on one or two angles; and for positions that are not
    antisymmetric. The result is symmetric, never pairs an angle with itself
    and gives each angle at most one partner."""
    x = element_positions(ModularArray(L, N, 0.01, 0.05)).ravel()
    k = 2 * np.pi / CAR.wavelength
    ks = np.array(ks)
    angles = math.pi / 2 + step * ks
    cos = np.cos(angles)
    if kind == "sign":
        angles = np.where(np.arange(ks.size) % 3 == 1, -angles, angles)
        cos = np.cos(angles)
    elif kind == "nudged" and x.size > 1:
        cos = np.where(ks < 0, cos + nudge * 2.0**-24 / (k * np.abs(x).max())
                       * np.abs(np.sin(angles)), cos)
        angles = np.arccos(cos)
    elif kind == "skewed":
        x = x + 1e-3
    got = localization._mirror_partners(angles, cos, x, k)
    assert list(got) == _brute_force_partners(angles, cos, x, k)
    paired = np.flatnonzero(got >= 0)
    assert np.array_equal(got[got[paired]], paired)
    assert np.all(got[paired] != paired)
    assert np.unique(got[paired]).size == paired.size


def test_mirror_partner_ties_go_to_the_lower_cosine_then_index():
    """Two cosines equally near -cos a_0, one on each side and both within
    the bound: angle 0 pairs with the lower one. Two equal cosines, nearest
    from below: with the lower index."""
    x = element_positions(_array(L=2, N=8, D=1.0)).ravel()
    k = 2 * np.pi / CAR.wavelength
    e = 2.0**-33
    cos = np.array([0.25, -0.25 + e, -0.25 - e])
    assert e <= 2.0**-24 / (k * np.abs(x).max()) * math.sqrt(1 - (0.25 + e)**2)
    assert list(localization._mirror_partners(np.arccos(cos), cos, x, k)) == [2, -1, 0]
    cos = np.array([0.25, -0.25 - e, -0.25 - e])
    assert list(localization._mirror_partners(np.arccos(cos), cos, x, k)) == [1, 0, -1]


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
        singles = [pick for u in cols for pick in grid.argmax_rank1(u[:, None])]
    assert picks == singles == [_brute_force_argmax(grid, u) for u in cols]


def _generated_column(rng, kind, rows):
    """A unit column: random; a grid point's float64 row times a random
    phase; or the sum of two grid points' rows, one of them phase-shifted."""
    n = rows.shape[1]
    if kind == "random":
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        i, j = rng.integers(rows.shape[0], size=2)
        u = rows[i] * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if kind == "pair":
            u = u + rows[j]
    return u / np.linalg.norm(u)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 3), N=st.integers(1, 6),
       ks=st.lists(st.integers(-8, 8), min_size=1, max_size=12, unique=True),
       step=st.sampled_from([0.01, 0.03, 0.07]),
       near=st.floats(2.0, 30.0), distance_step=st.sampled_from([0.05, 0.3, 1.0]),
       distances=st.integers(1, 12),
       kinds=st.lists(st.sampled_from(["random", "point", "pair"]), min_size=3, max_size=3),
       batch=st.sampled_from([1, 3]), workers=st.sampled_from([1, 2]),
       block_bytes=st.sampled_from([1, 1 << 21]), seed=st.integers(0, 2**32 - 1))
@example(L=3, N=5, ks=[0, 3, -3, 5], step=0.01, near=10.0, distance_step=0.3, distances=12,
         kinds=["point", "pair", "random"], batch=3, workers=2, block_bytes=1, seed=0)
def test_generated_grid_picks_match_brute_force(L, N, ks, step, near, distance_step, distances,
                                                kinds, batch, workers, block_bytes, seed):
    """On generated grids, argmax_rank1 equals a float64 brute force over
    every grid point: odd and even element counts, angles pi/2 + k step
    with and without their mirror -k on the grid (paired and lone rows),
    several steps and distance spans, one column or three, one worker or
    two, and one block or 64-row blocks."""
    mla = ModularArray(L, N, 0.01, 0.07)
    grid = NearFieldGrid(mla, CAR, np.pi / 2 + step * np.array(ks),
                         near + distance_step * np.arange(distances))
    rng = np.random.default_rng(seed)
    rows = _exact_rows(grid)
    cols = [_generated_column(rng, kind, rows) for kind in kinds[:batch]]
    with mock.patch.object(localization, "_BLOCK_PRODUCT_BYTES", block_bytes), \
            mock.patch.object(numerics, "_WORKERS", workers):
        picks = grid.argmax_rank1(np.stack(cols, axis=1))
    assert picks == [_brute_force_argmax(grid, u) for u in cols]


@settings(max_examples=60, deadline=None)
@given(angles=st.lists(st.floats(0.05, math.pi - 0.05), min_size=1, max_size=8),
       distances=st.lists(st.floats(0.5, 200.0), min_size=1, max_size=8),
       L=st.integers(1, 4), N=st.integers(1, 16), wavelength=st.sampled_from([0.005, 0.02, 0.1]))
def test_generated_grid_entries_within_storage_bound(angles, distances, L, N, wavelength):
    """Every int16 entry of a grid over generated angles and distances, read
    as q / 32767, lies within ENTRY_BOUND of float64 exp(-ikr)."""
    grid = NearFieldGrid(ModularArray(L, N, wavelength / 2, 0.05),
                         Carrier.from_wavelength(wavelength), angles, distances)
    assert _storage_error(grid) <= ENTRY_BOUND


def test_odd_element_count_pairs():
    x = element_positions(ODD_GRID.mla).ravel()
    assert x.size == 15 and x[7] == 0 and np.array_equal(x, -x[::-1])
    assert np.array_equal(ODD_GRID._partner, MIRROR_GRID._partner)
    assert ODD_GRID.matrix.shape == (11 * ODD_GRID.distance_grid.size, 30)


def _perturbed(grid, pick, down, up=0.0):
    """A copy of grid whose stored rows are their float64 values exp(-ikr),
    times 32767 as the stored parts are, with every entry of the row for the
    point pick (or for its mirror partner) moved down nearer zero and every
    entry of every other row up farther from it. The parts are held as
    float32, which the screen copies into its float32 rows as it does int16
    parts."""
    ia = int(np.flatnonzero(grid.angle_grid == pick[0])[0])
    idist = int(np.flatnonzero(grid.distance_grid == pick[1])[0])
    stored = ia if ia in grid._stored else grid._partner[ia]
    row = int(np.flatnonzero(grid._stored == stored)[0]) * grid.distance_grid.size + idist
    scale = np.full((grid.matrix.shape[0], 1), 1 + up)
    scale[row] = 1 - down
    entries = np.exp(1j * _stored_phases(grid)) * scale * 32767
    perturbed = copy.copy(grid)
    perturbed.matrix = entries.view(np.float64).astype(np.float32)
    return perturbed


PERTURBED_CASES = [
    ("TIE_GRID", "boundary_tie"), ("TIE_GRID", "distance_tie"), ("TIE_GRID", "random"),
    ("MIRROR_GRID", "boundary_tie"), ("MIRROR_GRID", "mirror_tie"),
    ("MIRROR_GRID", "first_angle"), ("MIRROR_GRID", "self_mirror")]


def _check_perturbed_picks(grid_name, kind, workers, monkeypatch, down, up=0.0):
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    monkeypatch.setattr(localization, "_BLOCK_PRODUCT_BYTES", 1)
    grid = globals()[grid_name]
    tie_row = 384 if grid is TIE_GRID else _mirror_tie_row(workers)
    rng = np.random.default_rng(workers)
    for _ in range(4):
        u = _planted_column(rng, kind, grid, tie_row)
        [pick] = grid.argmax_rank1(u[:, None])
        assert pick == _brute_force_argmax(grid, u)
        assert _perturbed(grid, pick, down, up).argmax_rank1(u[:, None]) == [pick]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("grid_name, kind", PERTURBED_CASES)
def test_pick_ignores_one_quantum_in_the_stored_rows(grid_name, kind, workers, monkeypatch):
    """Stored rows only screen: with every entry of the picked point's row one
    int16 quantum (1/32767) nearer zero than its float64 value, each pick is
    unchanged. Picks scored on the stored rows would follow that perturbation
    at the near-ties of distance_tie and mirror_tie columns."""
    _check_perturbed_picks(grid_name, kind, workers, monkeypatch, 1 / 32767)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("grid_name, kind", PERTURBED_CASES)
def test_pick_ignores_the_storage_bound_in_the_stored_rows(grid_name, kind, workers,
                                                          monkeypatch):
    """As above, with every stored entry ENTRY_BOUND from its float64 value
    (the picked row nearer zero, every other row farther): the screen's floor
    keeps every pick. The floor is sharp: 1.2 ENTRY_BOUND moves some of these
    picks."""
    _check_perturbed_picks(grid_name, kind, workers, monkeypatch, ENTRY_BOUND, ENTRY_BOUND)


def test_screen_gemm_width(monkeypatch):
    """Every row block is screened against [w, Jw] (4B real columns), on a
    grid with no pairs as on a mirrored one."""
    shapes = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        shapes.append((a.shape[1],) + b.shape)
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    monkeypatch.setattr(localization, "_BLOCK_PRODUCT_BYTES", 1)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    SMALL_GRID.argmax_rank1(u)
    assert shapes == [(32, 32, 12)] * 13
    shapes.clear()
    MIRROR_GRID.argmax_rank1(u)
    assert shapes == [(32, 32, 12)] * 7


@pytest.mark.parametrize("angles", [[np.pi / 2 + 0.3, np.pi / 2 - 0.5],
                                    [np.pi / 2 - 0.5, np.pi / 2 + 0.3]])
def test_lone_rows_drop_their_reversed_scores(angles):
    """A column that matches the reversed row of an angle without a partner
    (its mirror pi/2 + 0.5 is off the grid) scores that row highest in the
    Jw half of the screen; the pick is still the best grid point."""
    grid = NearFieldGrid(_array(L=2, N=8, D=1.0), CAR, angles, [5.0, 10.0, 20.0])
    assert np.all(grid._lone)
    u = near_steering(grid.mla, CAR, np.pi / 2 + 0.5, 10.0)
    u /= np.linalg.norm(u)
    want = _brute_force_argmax(grid, u)
    assert want == (np.pi / 2 + 0.3, 5.0)
    assert grid.argmax_rank1(u[:, None]) == [want]


@pytest.mark.parametrize("step, angles, stored, nbytes", [
    (0.002, 1100, 551, 256_862_976),
    (0.003, 733, 367, 171_086_592),
    (0.007, 315, 158, 73_655_808),
])
def test_default_grid_stores_half(step, angles, stored, nbytes, monkeypatch):
    """The default centered grid stores angles 0..550 of its 1,100: 256.9 MB
    of int16 parts in place of 512.8 MB, for the same 2,003,100 grid points.
    Steps that do not divide the 2.2 rad span pair every angle but pi/2 too:
    0.003 rad stores 367 of 733 angles, 171 MB, where its unpaired layout
    would hold 342 MB. The build is skipped here: only the layout is
    checked."""
    monkeypatch.setattr(localization, "_run_blocks", lambda task, num_blocks: None)
    grid = NearFieldGrid(_array(), CAR, localization.centered_angle_grid(step),
                         localization.default_distance_grid(0.02))
    assert grid.angle_grid.size == angles
    assert np.count_nonzero(grid._partner >= 0) >= angles - 2
    assert list(grid._stored) == list(range(stored))
    assert grid.matrix.nbytes == nbytes <= grid.num_points * 64 * 4 / 2 + 1821 * 64 * 4
    assert grid.num_points == angles * 1821


def test_screen_workers_lose_no_candidates_under_switching(monkeypatch):
    """Eight screen workers on two cores return their bests and candidates
    with the interpreter switching threads every microsecond; every pick
    still equals the brute force, which a lost best or candidate list would
    break."""
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
    u = _planted_column(np.random.default_rng(3), "random", SMALL_GRID, 0)[:, None]
    before = get()
    put(2)  # a count other than the pin's, so that a restore shows
    try:
        fail = False
        assert SMALL_GRID.argmax_rank1(u) == [_brute_force_argmax(SMALL_GRID, u[:, 0])]
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
