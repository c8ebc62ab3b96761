"""Snapshot synthesis, subspace angle estimation, and position fusion.

Each sub-array sees the user in its own far field, so a per-sub-array MUSIC
bearing plus a least-squares intersection of the bearing lines recovers the
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

# Size of one block's float32 GEMM product in NearFieldGrid.argmax_rank1: small
# enough to stay in a core's L2 cache while it is squared and screened.
_BLOCK_PRODUCT_BYTES = 1 << 21
# Span of the whole-array 2D grid: pi/2 +- half-width (rad), near to far (m).
_GRID_HALFWIDTH, _GRID_NEAR, _GRID_FAR = 1.1, 3.8, 40.2
# float32 unit roundoff, the unit of the 2D screen's error bound
_U32 = 2.0**-24


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
    """T baseband snapshots per sub-array, shape (L, T, N), and their scenario."""

    data: np.ndarray
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

    Signal: sqrt(P * beta) * h * u[t], with h the whole array's spherical-
    wave channel (near_steering, which the rates are scored against) split
    into its L sub-arrays, a common unit-variance circular Gaussian symbol
    stream u, and one large-scale gain from the user's distance to the array
    center. Noise is i.i.d. circular Gaussian with the scenario's noise
    power. Identical seeds give identical bits.
    """
    rng = np.random.default_rng(seed)
    mla, carrier = scenario.mla, scenario.carrier
    L, N, T = mla.num_subarrays, mla.elements_per_subarray, scenario.num_snapshots
    amp = math.sqrt(scenario.power * friis_beta(carrier, scenario.distance))
    nscale = math.sqrt(scenario.noise_power / 2)
    u = (rng.standard_normal(T) + 1j * rng.standard_normal(T)) / math.sqrt(2)
    # per sub-array, a (T, N) real then a (T, N) imaginary noise draw
    noise = rng.standard_normal((L, 2, T, N))
    h = near_steering(mla, carrier, scenario.angle, scenario.distance).reshape(L, N)
    data = amp * u[None, :, None] * h[:, None, :] + nscale * (noise[:, 0] + 1j * noise[:, 1])
    return SnapshotSet(data, scenario)


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


def default_angle_grid(step: float) -> np.ndarray:
    """Angle grid over the open interval (0, pi)."""
    return np.arange(step, math.pi, step)


def centered_angle_grid(step: float) -> np.ndarray:
    """Angle grid of the whole-array 2D search, pi/2 +- _GRID_HALFWIDTH."""
    return np.arange(math.pi / 2 - _GRID_HALFWIDTH, math.pi / 2 + _GRID_HALFWIDTH, step)


def default_distance_grid(step: float) -> np.ndarray:
    """Distance grid of the whole-array 2D search, _GRID_NEAR to _GRID_FAR."""
    return np.arange(_GRID_NEAR, _GRID_FAR + step / 2, step)


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
    """Single-source MUSIC angle pick for elements at the given x-coordinates:
    the grid angle minimizing the pseudo-spectrum denominator
    N - |a(phi)^H u1|^2, i.e. the lowest-index maximum of |a(phi)^H u1|^2.

    principal is one unit principal eigenvector u1 of length N, giving one
    angle, or an (N, L) stack of them, giving a tuple of L angles.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or not np.all(np.diff(grid) > 0):
        raise ValueError("angle grid must be non-empty and strictly increasing")
    x = np.asarray(positions, dtype=float)
    u = np.asarray(principal)
    proj = _conj_steering_rows(x.tobytes(), grid.tobytes(), float(wavelength)) @ u
    picks = grid[np.argmax(proj.real**2 + proj.imag**2, axis=0)]
    return float(picks) if u.ndim == 1 else tuple(picks.tolist())


def estimate_angles(snapshots: SnapshotSet, grid: np.ndarray) -> tuple:
    """Per-sub-array MUSIC bearings to the source, a tuple of radians from
    the positive x-axis, one music_1d pick per sub-array. One steering matrix
    serves every sub-array: it uses element offsets from the sub-array center
    (those of a lone sub-array), whose phase is common to a steering row and
    cancels in |a^H u1|."""
    mla = snapshots.scenario.mla
    offsets = element_positions(ModularArray.ula(mla.elements_per_subarray, mla.spacing))
    principal = principal_eigenvectors(snapshots.data)
    return music_1d(principal.T, offsets.ravel(), grid, snapshots.scenario.carrier.wavelength)


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
    return PositionEstimate(x, z, math.hypot(x, z), math.atan2(z, x))


def locate(snapshots: SnapshotSet, grid: np.ndarray) -> PositionEstimate:
    """Full pipeline: per-sub-array angles, then bearing-line intersection."""
    angles = estimate_angles(snapshots, grid)
    return triangulate(angles, subarray_centers(snapshots.scenario.mla))


def _phase(x, k, cos_angle, d):
    """Phase -k r of spherical-wave steering entries in float64, r the
    distance from elements at x to sources at distance d along an angle of
    cosine cos_angle, all broadcast together. The grid build and the
    rescoring of its candidates both take their phases from here."""
    r = np.sqrt(d * d + x * x - 2 * cos_angle * d * x)
    return np.multiply(r, -k, out=r)


def _mirror_partners(angles, cos_angles, x, k):
    """partner[i] = j when angle j's steering vectors are angle i's with the
    element order reversed, to within float32 rounding, else -1. Symmetric;
    each angle has at most one partner, never itself.

    For elements at antisymmetric positions (x == -x[::-1], bit for bit),
    entry m of b(a_i) reversed is element m's entry at cosine -cos a_i. As
    r^2 = (x - c d)^2 + d^2 (1 - c^2), |dr/dc| = |x d| / r <= |x| / sqrt(1 - c^2),
    so its phase is within k |x| |cos a_i + cos a_j| / min(|sin a_i|, |sin a_j|)
    of b(a_j)'s. Angles pair when that is at most u = 2**-24 for every element.
    """
    partner = np.full(angles.size, -1)
    if x.size < 2 or not np.array_equal(x, -x[::-1]):
        return partner
    sin = np.abs(np.sin(angles))
    reach = _U32 / (k * np.abs(x).max())
    order = np.argsort(cos_angles, kind="stable")
    lo = np.searchsorted(cos_angles[order], -cos_angles - reach * sin, "left")
    hi = np.searchsorted(cos_angles[order], -cos_angles + reach * sin, "right")
    for i in range(angles.size):
        for j in sorted(order[lo[i]:hi[i]]):
            if (j > i and partner[i] < 0 and partner[j] < 0
                    and abs(cos_angles[i] + cos_angles[j]) <= reach * min(sin[i], sin[j])):
                partner[i], partner[j] = j, i
    return partner


class NearFieldGrid:
    """Whole-array steering vectors on an (angle, distance) grid, stored in
    single precision for the screen of argmax_rank1.

    Grid points are numbered angle-major: index = angle_index *
    len(distance_grid) + distance_index. When two grid angles mirror each
    other about broadside (a_i + a_j = pi, as on centered_angle_grid) and the
    element positions are antisymmetric, angle j's steering vectors are
    angle i's with the element order reversed (see _mirror_partners), so
    only the lower-indexed angle of each pair is stored. matrix holds the
    stored angles' rows, angle-major in grid order: about half a gigabyte at
    the default resolutions, built once and shared across trials. mla and
    carrier are the array and carrier the grid was built for.
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
        self._x = element_positions(mla).ravel()
        self._k = 2 * np.pi / carrier.wavelength
        self._cos = np.cos(self.angle_grid)
        self._partner = _mirror_partners(self.angle_grid, self._cos, self._x, self._k)
        angles = np.arange(self.angle_grid.size)
        self._stored = angles[(self._partner < 0) | (self._partner > angles)]
        gd = self.distance_grid
        self.matrix = np.empty((self._stored.size * gd.size, self._x.size),
                               dtype=np.complex64)

        def build_rows(first, stop):
            # exp(-1j*k*r) as float32 cos and sin of the float64 phase -k*r,
            # reduced in float64 to [-pi, pi] (to about 1e-12 rad) and then
            # rounded to float32, written into the float32 parts of each
            # stored angle's rows; argmax_rank1's margin covers their error
            turns = np.empty((gd.size, self._x.size))
            phase = np.empty(turns.shape, dtype=np.float32)
            for s in range(first, stop):
                theta = _phase(self._x, self._k, self._cos[self._stored[s]], gd[:, None])
                np.rint(np.divide(theta, 2 * np.pi, out=turns), out=turns)
                np.subtract(theta, np.multiply(turns, 2 * np.pi, out=turns), out=phase)
                rows = self.matrix[s * gd.size:(s + 1) * gd.size]
                np.cos(phase, out=rows.real)
                np.sin(phase, out=rows.imag)

        _run_blocks(build_rows, self._stored.size)
        # the stored rows as runs of angles that all have a partner or all
        # lack one: (first row, stop row, paired)
        paired = self._partner[self._stored] >= 0
        cuts = np.r_[0, np.flatnonzero(paired[1:] != paired[:-1]) + 1, paired.size].tolist()
        self._runs = [(lo * gd.size, hi * gd.size, bool(paired[lo]))
                      for lo, hi in zip(cuts[:-1], cuts[1:])]

    @property
    def num_points(self) -> int:
        return self.angle_grid.size * self.distance_grid.size

    def argmax_rank1(self, principal: np.ndarray):
        """Grid point minimizing ||b||^2 - |u1^H b|^2, i.e. maximizing
        |u1^H b|^2, for each principal eigenvector u1.

        principal is one eigenvector of length L*N, giving one (angle,
        distance) pair, or an (L*N, B) stack of B eigenvectors, giving a list
        of B pairs. The stored rows are read once per call, in row blocks,
        with one single-precision GEMM per block against the whole stack:
        against w = conj(stack) for angles without a partner, and against
        [w, Jw] for paired ones, J reversing the element order: (Jw)^T b =
        w^T (Jb) scores the partner too. The blocks are split into contiguous
        ranges over the worker threads (see numerics._run_blas_blocks). That
        pass only screens: the points whose float32 |u1^H b|^2 lies within
        twice its worst-case error of the column's float32 best are rescored
        in float64 on their steering rows recomputed in float64, and the best
        float64 score wins, the lowest grid index breaking ties. So the pick
        depends only on the grid points: not on how their rows are stored, on
        B, on the BLAS kernel, on its thread count or on the number of
        workers.
        """
        stack = np.asarray(principal, dtype=np.complex128)
        w = np.conj(stack.reshape(stack.shape[0], -1))
        n, batch = w.shape
        # The best float64 score s keeps a float32 score of at least the
        # float32 best minus 2e, if |float32 - float64| <= e at every point.
        # For unit-modulus rows |p| <= sqrt(n) ||w||, so |d(|p|^2)| is about
        # 2 sqrt(n) ||w|| |dp|, and e (u = 2**-24) adds up:
        # - arithmetic: 2n-term real float32 dot products, and the rounding
        #   of w and of |p|^2: 6 n^2 u ||w||^2;
        # - storage: a stored entry is within (2 + 2 sqrt(2)) u of its
        #   float64 value exp(-ikr): rounding the reduced phase to float32
        #   costs at most 2u on [-pi, pi], and numpy's float32 cos and sin are
        #   validated to 2 ulp (2u on [-1, 1]) per part. So |dp| <= (2 +
        #   2 sqrt(2)) u ||w||_1 <= (2 + 2 sqrt(2)) sqrt(n) u ||w||:
        #   (4 + 4 sqrt(2)) n u ||w||^2, that is 9.66 n u ||w||^2;
        # - mirror: a paired angle's reversed row is within u in phase of its
        #   partner's float64 row (_mirror_partners): 2 n u ||w||^2.
        # Twice their sum, with 23.3 n rounded up to 24 n for second-order terms
        # and the float64 rounding and reduction of the phases, is the margin.
        margin = (12 * n * n + 24 * n) * _U32 * (w.real**2 + w.imag**2).sum(axis=0)

        def real_form(v):
            # the complex product as a real one on the interleaved float32 view
            # of the rows: columns [Re p_0, Im p_0, Re p_1, ...] of row block @
            # wr, so |p|^2 is one pairwise add over the squared product
            v32 = v.astype(np.complex64)
            wr = np.empty((2 * n, 2 * v.shape[1]), dtype=np.float32)
            wr[0::2, 0::2], wr[0::2, 1::2] = v32.real, v32.imag
            wr[1::2, 0::2], wr[1::2, 1::2] = -v32.imag, v32.real
            return wr

        weights = {False: real_form(w), True: real_form(np.hstack([w, w[::-1]]))}
        # one block height for every run, set by the wider [w, Jw] product;
        # an unpaired block's narrower product fits the same buffers
        widest = weights[True]
        height = max(1, _BLOCK_PRODUCT_BYTES // (widest.itemsize * widest.shape[1]) // 64) * 64
        size = height * widest.shape[1]
        blocks = [(start, min(start + height, stop), paired)
                  for first, stop, paired in self._runs
                  for start in range(first, stop, height)]
        bests, found = [], []  # each worker's final best; every worker's candidates

        def screen(first, stop):
            # one worker's contiguous range of row blocks, with its own buffers
            # and running best; a block's power columns are [w scores, Jw scores]
            product = np.empty(size, dtype=np.float32)
            power = np.empty(size // 2, dtype=np.float32)
            best = np.full(batch, -np.inf)
            for start, end, paired in blocks[first:stop]:
                wr = weights[paired]
                h, width = end - start, wr.shape[1] // 2
                block = self.matrix[start:end].view(np.float32)
                q = product[:2 * h * width].reshape(h, 2 * width)
                np.square(np.matmul(block, wr, out=q), out=q)
                flat, pw = q.ravel(), power[:h * width].reshape(h, width)
                np.add(flat[0::2], flat[1::2], out=pw.ravel())
                # a column max over 64 * width wide rows, then over their 64
                # slices: on a 2-core Xeon 3x faster than over width wide rows
                # at B = 42 (3,072 x 84: 36 vs 125 us), 2x slower at B = 1,500
                # (64 x 3,000: 52 vs 20 us)
                wide = pw.reshape(-1, 64 * width) if h % 64 == 0 else pw
                col_best = wide.max(axis=0).reshape(-1, width).max(axis=0)
                best = np.maximum(best, col_best.reshape(-1, batch).max(axis=0))
                floor = best - margin
                hot = np.flatnonzero(col_best.reshape(-1, batch) >= floor)
                if hot.size:
                    sub = pw[:, hot]
                    r, c = np.nonzero(sub >= floor[hot % batch])
                    found.append((start + r, hot[c], sub[r, c]))
            bests.append(best)

        _run_blas_blocks(screen, len(blocks))
        best = np.max(bests, axis=0)
        row, col, val = (np.concatenate(parts) for parts in zip(*found))
        keep = val >= (best - margin)[col % batch]
        row, col = row[keep], col[keep]
        slot, dist = np.divmod(row, self.distance_grid.size)
        angle = np.where(col < batch, self._stored[slot], self._partner[self._stored[slot]])
        col %= batch
        # float64 rescoring on rows recomputed in float64, with elementwise
        # products and a per-row sum, so a row's score does not depend on
        # which other rows are scored with it
        theta = _phase(self._x, self._k, self._cos[angle][:, None],
                       self.distance_grid[dist][:, None])
        mr, mi = np.cos(theta), np.sin(theta)
        wr64, wi64 = w.real.T[col], w.imag.T[col]
        re = (mr * wr64 - mi * wi64).sum(axis=1)
        im = (mr * wi64 + mi * wr64).sum(axis=1)
        idx = angle * self.distance_grid.size + dist
        order = np.lexsort((idx, -(re * re + im * im), col))
        first = np.r_[True, col[order][1:] != col[order][:-1]]
        picks = [(float(self.angle_grid[a]), float(self.distance_grid[d]))
                 for a, d in zip(angle[order][first], dist[order][first])]
        return picks if stack.ndim == 2 else picks[0]


def music_2d(principal: np.ndarray, grid: NearFieldGrid):
    """Single-source MUSIC (angle, distance) pick treating the modular array
    as one aperture: the grid point minimizing the pseudo-spectrum
    denominator ||b||^2 - |u1^H b|^2 over the precomputed grid (with one
    source the noise projector is I - u1 u1^H).

    principal is the principal eigenvector u1 of one trial's T x (L*N)
    whole-array snapshots (see principal_eigenvectors), giving one (angle,
    distance) pair, or an (L*N, B) stack of B trials' vectors, giving a list
    of B pairs from one pass over the grid.
    """
    return grid.argmax_rank1(principal)

