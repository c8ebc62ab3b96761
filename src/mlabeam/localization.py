"""Snapshot synthesis, subspace angle estimation, and position fusion.

Each sub-array sees the user in its own far field, so a per-sub-array angle
spectrum plus a least-squares intersection of the bearing lines recovers the
position. The whole-array near-field grid search is kept as the
accuracy/complexity baseline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import friis_beta
from .geometry import Carrier, ModularArray, element_positions, subarray_centers
from .numerics import _run_blas_blocks, _run_blocks

_SPECTRUM_FLOOR = 1e-30
# Size of one block's float32 GEMM product in NearFieldGrid.argmax_rank1: small
# enough to stay in a core's L2 cache while it is squared and screened.
_BLOCK_PRODUCT_BYTES = 1 << 21
# Default span of the whole-array 2D grid: pi/2 +- half-width (rad), near to far (m).
_GRID_HALFWIDTH, _GRID_NEAR, _GRID_FAR = 1.1, 3.8, 40.2


class DegenerateSubspaceError(RuntimeError):
    """Signal and noise eigenvalues coincide; the subspace split is ill-defined."""


class IllConditionedTriangulationError(RuntimeError):
    """Bearing lines are (near-)parallel."""


@dataclass(frozen=True)
class Scenario:
    """One user and the array observing it.

    The user sits at polar (distance, angle) about the array center, angle
    measured from the positive x-axis so broadside is pi/2. Powers are in
    watts; noise_power 0 gives noiseless snapshots.
    """

    mla: ModularArray
    carrier: Carrier
    distance: float
    angle: float
    power: float
    noise_power: float
    num_snapshots: int

    def __post_init__(self):
        if not (0 < self.distance < math.inf and 0 < self.angle < math.pi):
            raise ValueError("user must be in front of the array")
        if not (0 < self.power < math.inf and 0 <= self.noise_power < math.inf):
            raise ValueError("powers must be finite and positive (noise may be zero)")
        if self.num_snapshots < 2:
            raise ValueError("covariance estimation needs at least two snapshots")
        if self.mla.elements_per_subarray < 2:
            raise ValueError("angle estimation needs at least two elements per sub-array")

    @property
    def user_xz(self):
        return (self.distance * math.cos(self.angle),
                self.distance * math.sin(self.angle))


@dataclass(frozen=True)
class SnapshotSet:
    """T baseband snapshots per sub-array, shape (L, T, N), plus provenance."""

    data: np.ndarray
    seed: int
    scenario: Scenario

    def __post_init__(self):
        L = self.scenario.mla.num_subarrays
        N = self.scenario.mla.elements_per_subarray
        if self.data.shape != (L, self.scenario.num_snapshots, N):
            raise ValueError("snapshot dimensions do not match the scenario")


@dataclass(frozen=True)
class PositionEstimate:
    x: float
    z: float
    distance: float
    angle: float
    subarray_angles: tuple | None = None

    def __post_init__(self):
        if abs(self.distance - math.hypot(self.x, self.z)) > 1e-9 * max(1.0, self.distance):
            raise ValueError("polar and cartesian coordinates disagree")


def far_steering(positions, phi: float, wavelength: float) -> np.ndarray:
    """Plane-wave response of elements at the given x-coordinates: unit-modulus
    phases exp(i * 2 pi / wavelength * x * cos(phi))."""
    x = np.asarray(positions, dtype=float)
    return np.exp(2j * np.pi / wavelength * x * math.cos(phi))


def near_steering(mla: ModularArray, carrier: Carrier, phi: float, d: float) -> np.ndarray:
    """Spherical-wave response of the whole array to a source at polar
    (d, phi): exp(-i * 2 pi / wavelength * r_n) with r_n the exact
    element-to-source distance. Length L*N, unit-modulus entries."""
    if d <= 0:
        raise ValueError("source distance must be positive")
    x = element_positions(mla).ravel()
    r = np.sqrt(d * d + x * x - 2 * x * d * math.cos(phi))
    return np.exp(-2j * np.pi / carrier.wavelength * r)


def synthesize_snapshots(scenario: Scenario, seed: int) -> SnapshotSet:
    """Draw T snapshots per sub-array for one user.

    Signal: sqrt(P * beta) * a(phi_l) * u[t], with the bearing phi_l taken
    from each sub-array's center to the user, a common unit-variance circular
    Gaussian symbol stream u, and one large-scale gain from the user's
    distance to the array center. Noise is i.i.d. circular Gaussian with the
    scenario's noise power. Identical seeds give identical bits.
    """
    rng = np.random.default_rng(seed)
    mla, carrier = scenario.mla, scenario.carrier
    L, N, T = mla.num_subarrays, mla.elements_per_subarray, scenario.num_snapshots
    pos = element_positions(mla)
    centers = subarray_centers(mla)
    ux, uz = scenario.user_xz
    amp = math.sqrt(scenario.power * friis_beta(carrier, scenario.distance))
    nscale = math.sqrt(scenario.noise_power / 2)
    u = (rng.standard_normal(T) + 1j * rng.standard_normal(T)) / math.sqrt(2)
    # per sub-array, a (T, N) real then a (T, N) imaginary noise draw
    noise = rng.standard_normal((L, 2, T, N))
    cos_phi = np.array([math.cos(math.atan2(uz, ux - c)) for c in centers])
    a = np.exp(2j * np.pi / carrier.wavelength * pos * cos_phi[:, None])
    data = amp * u[None, :, None] * a[:, None, :] + nscale * (noise[:, 0] + 1j * noise[:, 1])
    return SnapshotSet(data, int(seed), scenario)


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Hermitian sample covariance of T x N snapshots (snapshots are rows),
    or of each matrix of a (..., T, N) stack."""
    Y = np.asarray(snapshots)
    if Y.ndim < 2 or Y.shape[-2] < 1:
        raise ValueError("need a T x N snapshot matrix")
    R = np.swapaxes(Y, -1, -2) @ Y.conj() / Y.shape[-2]
    return (R + np.swapaxes(R.conj(), -1, -2)) / 2


def _split_eigh(R: np.ndarray) -> np.ndarray:
    """Eigenvectors of a covariance, or of each of a stack, by ascending
    eigenvalue; raises if the gap between the two largest vanishes."""
    if R.shape[-1] < 2:
        raise ValueError("the subspace split needs at least two elements")
    evals, evecs = np.linalg.eigh(R)
    gap = evals[..., -1] - evals[..., -2]
    if np.any(gap <= 1e-12 * np.maximum(np.abs(evals[..., -1]), np.finfo(float).tiny)):
        raise DegenerateSubspaceError(
            "signal and noise eigenvalues coincide within 1e-12 relative")
    return evecs


def noise_subspace(R: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the one-source noise subspace: eigenvectors of the
    N-1 smallest eigenvalues of the Hermitian covariance."""
    return _split_eigh(R)[:, :-1]


def default_angle_grid(step: float = 0.002) -> np.ndarray:
    """Angle grid over the open interval (0, pi)."""
    return np.arange(step, math.pi, step)


def centered_angle_grid(halfwidth: float = _GRID_HALFWIDTH, step: float = 0.002) -> np.ndarray:
    """Angle grid about broadside, pi/2 +- halfwidth."""
    return np.arange(math.pi / 2 - halfwidth, math.pi / 2 + halfwidth, step)


def default_distance_grid(lo: float = _GRID_NEAR, hi: float = _GRID_FAR,
                          step: float = 0.02) -> np.ndarray:
    return np.arange(lo, hi + step / 2, step)


def principal_eigenvectors(snapshots: np.ndarray) -> np.ndarray:
    """Unit principal eigenvector u1 of the sample covariance of T x N
    snapshots, shape (N,), or of each of a (..., T, N) stack, shape (..., N).
    With one source the MUSIC noise projector is I - u1 u1^H."""
    return _split_eigh(sample_covariance(snapshots))[..., -1]


@functools.lru_cache(maxsize=8)
def _conj_steering_rows(positions: bytes, grid: bytes, wavelength: float) -> np.ndarray:
    """conj(a(phi)) rows of music_1d, for the float64 element x-coordinates
    and grid angles packed in positions and grid. A sweep asks for the same
    few matrices on every trial; the cached one is read-only, as every caller
    shares it."""
    x, angles = np.frombuffer(positions), np.frombuffer(grid)
    rows = np.exp(-2j * np.pi / wavelength * np.outer(np.cos(angles), x))
    rows.flags.writeable = False
    return rows


def music_1d(principal: np.ndarray, positions, grid: np.ndarray, wavelength: float):
    """Single-source angle pseudo-spectrum 1 / (N - |a(phi)^H u1|^2) over the
    grid, for elements at the given x-coordinates, and its argmax.

    principal is one unit principal eigenvector u1 of length N, giving
    (spectrum, angle), or an (N, L) stack of them, giving a (grid, L)
    spectrum and a tuple of L angles. The spectrum is strictly positive via
    a tiny floor on the denominator; the pick is the lowest-index maximum of
    |a(phi)^H u1|^2.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or not np.all(np.diff(grid) > 0):
        raise ValueError("angle grid must be non-empty and strictly increasing")
    x = np.asarray(positions, dtype=float)
    u = np.asarray(principal)
    proj = _conj_steering_rows(x.tobytes(), grid.tobytes(), float(wavelength)) @ u
    power = proj.real**2 + proj.imag**2
    spectrum = 1.0 / np.maximum(x.size - power, _SPECTRUM_FLOOR)
    picks = grid[np.argmax(power, axis=0)]
    return spectrum, (float(picks) if u.ndim == 1 else tuple(picks.tolist()))


def estimate_angles(snapshots: SnapshotSet, grid: np.ndarray | None = None) -> tuple:
    """Per-sub-array MUSIC bearings to the source, a tuple of radians from
    the positive x-axis. One steering matrix serves every sub-array: it uses
    element offsets from the sub-array center, whose phase is common to a
    steering row and cancels in |a^H u1|."""
    if grid is None:
        grid = default_angle_grid()
    mla = snapshots.scenario.mla
    N = mla.elements_per_subarray
    offsets = (np.arange(N) - (N - 1) / 2) * mla.spacing
    principal = principal_eigenvectors(snapshots.data)
    return music_1d(principal.T, offsets, grid, snapshots.scenario.carrier.wavelength)[1]


def triangulate(angles, centers) -> PositionEstimate:
    """Intersect the per-sub-array bearing lines in the least-squares sense.

    A sub-array at x-coordinate c seeing the user at bearing phi contributes
    the line sin(phi) * (x - c) - cos(phi) * z = 0, whose residual is the
    perpendicular distance of (x, z) from the line (the classic bearing-only
    fix). The 2x2 normal equations are solved by Cramer's rule. Raises
    IllConditionedTriangulationError when their condition number exceeds
    1e12, i.e. for (near-)parallel lines.
    """
    ang = np.asarray(angles, dtype=float)
    c = np.asarray(centers, dtype=float)
    if ang.size < 2 or ang.shape != c.shape:
        raise ValueError("need one bearing per sub-array, at least two")
    s, k = np.sin(ang), np.cos(ang)
    ss, kk, sk = s @ s, k @ k, s @ k
    ssc, skc = (s * s) @ c, (s * k) @ c
    det = ss * kk - sk * sk
    # larger eigenvalue of [[ss, -sk], [-sk, kk]]; the smaller one is det / big
    big = (ss + kk) / 2 + math.hypot((ss - kk) / 2, sk)
    if not det * 1e12 >= big * big:
        raise IllConditionedTriangulationError("bearing lines are nearly parallel")
    x = float((ssc * kk - sk * skc) / det)
    z = float((sk * ssc - ss * skc) / det)
    return PositionEstimate(x, z, math.hypot(x, z), math.atan2(z, x),
                            subarray_angles=tuple(ang))


def locate(snapshots: SnapshotSet, grid: np.ndarray | None = None) -> PositionEstimate:
    """Full pipeline: per-sub-array angles, then bearing-line intersection."""
    angles = estimate_angles(snapshots, grid)
    return triangulate(angles, subarray_centers(snapshots.scenario.mla))


class NearFieldGrid:
    """Precomputed whole-array steering vectors on an (angle, distance) grid.

    The matrix is held in single precision (about a gigabyte at the default
    resolutions) and built once, then shared across trials. Rows are ordered
    angle-major: row = angle_index * len(distance_grid) + distance_index.
    mla and carrier are the array and carrier the grid was built for.
    """

    def __init__(self, mla: ModularArray, carrier: Carrier,
                 angle_grid: np.ndarray, distance_grid: np.ndarray):
        self.angle_grid = np.asarray(angle_grid, dtype=float)
        self.distance_grid = np.asarray(distance_grid, dtype=float)
        if self.angle_grid.size == 0 or self.distance_grid.size == 0:
            raise ValueError("grids must be non-empty")
        if not np.all(np.isfinite(self.angle_grid)):
            raise ValueError("grid angles must be finite")
        if not np.all((self.distance_grid > 0) & np.isfinite(self.distance_grid)):
            raise ValueError("grid distances must be finite and positive")
        self.mla, self.carrier = mla, carrier
        x = element_positions(mla).ravel()
        k = 2 * np.pi / carrier.wavelength
        gd = self.distance_grid
        self.matrix = np.empty((self.angle_grid.size * gd.size, x.size),
                               dtype=np.complex64)
        d2 = (gd * gd)[:, None]

        def build_rows(first, stop):
            # exp(-1j*k*r) as cos and sin of the float64 phase -k*r, written
            # into the float32 parts of each angle's rows: the same bits
            # without a complex128 temporary
            for i in range(first, stop):
                r = np.sqrt(d2 + x * x - 2 * np.cos(self.angle_grid[i]) * gd[:, None] * x)
                theta = np.multiply(r, -k, out=r)
                rows = self.matrix[i * gd.size:(i + 1) * gd.size]
                np.cos(theta, out=rows.real)
                np.sin(theta, out=rows.imag)

        _run_blocks(build_rows, self.angle_grid.size)

    @property
    def num_points(self) -> int:
        return self.matrix.shape[0]

    def argmax_rank1(self, principal: np.ndarray):
        """Grid point minimizing ||b||^2 - |u1^H b|^2, i.e. maximizing
        |u1^H b|^2, for each principal eigenvector u1.

        principal is one eigenvector of length L*N, giving one (angle,
        distance) pair, or an (L*N, B) stack of B eigenvectors, giving a list
        of B pairs. The grid is read once per call, in row blocks, with one
        single-precision GEMM per block against the whole stack; the blocks
        are split into contiguous ranges over the worker threads (see
        numerics._run_blas_blocks). That pass only screens: the points whose
        float32 |u1^H b|^2 lies within twice its worst-case rounding error of
        the column's float32 best are rescored in float64 from the same rows,
        and the best float64 score wins, the lowest grid index breaking ties.
        So the pick does not depend on B, on the BLAS kernel, on its thread
        count or on the number of workers.
        """
        stack = np.asarray(principal, dtype=np.complex128)
        w = np.conj(stack.reshape(stack.shape[0], -1))
        n, batch = w.shape
        # For unit-modulus rows, float32 |p|^2 errs by at most about
        # 6 n^2 u ||w||^2 (u = 2**-24: 2n-term real dot products, |p| <= sqrt(n) ||w||).
        margin = 12 * n * n * 2.0**-24 * (w.real**2 + w.imag**2).sum(axis=0)
        # The complex product as a real one on the interleaved float32 view of
        # the rows: columns [Re p_0, Im p_0, Re p_1, ...] of row block @ wr, so
        # |p|^2 is one pairwise add over the squared product.
        w32 = w.astype(np.complex64)
        wr = np.empty((2 * n, 2 * batch), dtype=np.float32)
        wr[0::2, 0::2], wr[0::2, 1::2] = w32.real, w32.imag
        wr[1::2, 0::2], wr[1::2, 1::2] = -w32.imag, w32.real
        rows = max(1, _BLOCK_PRODUCT_BYTES // (wr.itemsize * wr.shape[1]) // 64) * 64
        bests, found = [], []  # each worker's final best; every worker's candidates

        def screen(first, stop):
            # one worker's contiguous range of row blocks, with its own buffers
            # and running best
            product = np.empty((rows, 2 * batch), dtype=np.float32)
            power = np.empty((rows, batch), dtype=np.float32)
            best = np.full(batch, -np.inf)
            for start in range(first * rows, min(stop * rows, self.num_points), rows):
                block = self.matrix[start:start + rows].view(np.float32)
                h = block.shape[0]
                q = np.square(np.matmul(block, wr, out=product[:h]), out=product[:h])
                flat, pw = q.ravel(), power[:h]
                np.add(flat[0::2], flat[1::2], out=pw.ravel())
                # a column max over 64 * batch wide rows runs far faster than
                # over batch wide ones
                wide = pw.reshape(-1, 64 * batch) if h % 64 == 0 else pw
                block_best = wide.max(axis=0).reshape(-1, batch).max(axis=0)
                best = np.maximum(best, block_best)
                floor = best - margin
                hot = np.flatnonzero(block_best >= floor)
                if hot.size:
                    sub = pw[:, hot]
                    r, c = np.nonzero(sub >= floor[hot])
                    found.append((start + r, hot[c], sub[r, c]))
            bests.append(best)

        _run_blas_blocks(screen, -(-self.num_points // rows))
        best = np.max(bests, axis=0)
        idx, col, val = (np.concatenate(parts) for parts in zip(*found))
        keep = val >= (best - margin)[col]
        idx, col = idx[keep], col[keep]
        # float64 rescoring with elementwise products and a per-row sum, so a
        # row's score does not depend on which other rows are scored with it
        m = self.matrix[idx]
        mr, mi = m.real.astype(np.float64), m.imag.astype(np.float64)
        wr64, wi64 = w.real.T[col], w.imag.T[col]
        re = (mr * wr64 - mi * wi64).sum(axis=1)
        im = (mr * wi64 + mi * wr64).sum(axis=1)
        order = np.lexsort((idx, -(re * re + im * im), col))
        first = np.r_[True, col[order][1:] != col[order][:-1]]
        ia, idist = np.divmod(idx[order][first], self.distance_grid.size)
        picks = [(float(self.angle_grid[a]), float(self.distance_grid[d]))
                 for a, d in zip(ia, idist)]
        return picks if stack.ndim == 2 else picks[0]


def music_2d(principal: np.ndarray, grid: NearFieldGrid):
    """Single-source (angle, distance) estimate treating the modular array as
    one aperture.

    principal is the principal eigenvector u1 of one trial's T x (L*N)
    whole-array snapshots (see principal_eigenvectors), giving one (angle,
    distance) pair, or an (L*N, B) stack of B trials' vectors, giving a list
    of B pairs from one pass over the grid. With one source the noise
    projector is I - u1 u1^H, so the spectrum denominator is
    ||b||^2 - |u1^H b|^2 over the precomputed grid.
    """
    return grid.argmax_rank1(principal)

