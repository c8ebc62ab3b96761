"""Exact and closed-form normalized array gains plus beam-shape metrics.

The exact route integrates a spherical-wave field over every element cell
with Gauss-Legendre quadrature and combines with matched-filter weights.
The closed forms, Fresnel integrals of the quadratic-phase approximation on
axis and an envelope times an array factor across, agree with the exact route
to a few percent beyond twice the aperture. They take a ModularArray of any
number of sub-arrays and read its spacing and half_pitch; gain_ula_fresnel is
gain_mla_fresnel on ModularArray.ula, and only ripple_metrics (the
two-sub-array formula on a half-pitch) takes plain numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Carrier, ModularArray, element_positions
from .numerics import QuadratureRule, _run_blocks, fresnel_cs, gauss_legendre_rule

_DEFAULT_RULE = gauss_legendre_rule(8)
# Field samples per block of gain_exact_sweep: each worker holds four float64
# buffers of this many samples, 1 MB in all, which stay small beside the
# process; results do not depend on the block size.
_SWEEP_BLOCK_SAMPLES = 1 << 15
# Range of the exact field's lengths (m). A source farther than _MAX_REACH_M
# from an element leaves float64 in its power z rho2 / (4 pi r2^2 r), whose
# r2^2 r = r^5 overflows beyond about 4.5e61 m. A spacing or a source depth
# below _MIN_LENGTH_M can underflow the power of a cell, times its
# quadrature weight and d^2, to 0: with every length from 1e-20 m to 1e61 m
# that product stays above 1e-288, a normal float64.
_MAX_REACH_M, _MIN_LENGTH_M = 1e61, 1e-20


class NullNotFoundError(RuntimeError):
    """No sufficiently deep gain minimum exists beyond the focus."""


class GainRangeError(ValueError):
    """Computed gain samples fall outside [0, 1]: a numerical fault, not bad input."""


@dataclass(frozen=True)
class TxPoint:
    """Source position; the array lies on the x-axis of the z=0 plane."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.z <= 0:
            raise ValueError("source must be in front of the array (z > 0)")


def _z_eff(focus: float, z: np.ndarray) -> np.ndarray:
    """F*z/|F - z| per depth, inf where z == F."""
    if focus <= 0 or np.any(z <= 0):
        raise ValueError("focal and observation depths must be positive")
    with np.errstate(divide="ignore"):
        return focus * z / np.abs(focus - z)


def exact_field(x, y, tx: TxPoint, wavelength: float):
    """Spherical-wave field of a unit source at tx, on the z=0 plane.

    r2 is the squared source-to-point distance; the amplitude follows the
    free-space scalar model for a point on the aperture plane. Broadcasts
    over array inputs.
    """
    dx = np.asarray(x, dtype=float) - tx.x
    dy = np.asarray(y, dtype=float) - tx.y
    rho2 = dx * dx + tx.z * tx.z
    E = np.empty(np.broadcast_shapes(rho2.shape, dy.shape), dtype=complex)
    power, t = np.empty(E.shape), np.empty(E.shape)
    _spherical_field(rho2, dy * dy, tx.z, wavelength, (power, E.real, E.imag, t))
    return E[()]


def _spherical_field(rho2, dy2, z, wavelength: float, out) -> None:
    # exact_field from the squared distance rho2 = dx^2 + z^2 in the y = 0
    # plane, the squared y offset and the source depth, written into
    # out = (power, re, im, t): |E|^2, the real and imaginary parts, and t as
    # scratch, float64 arrays of the broadcast shape. The power comes from the
    # amplitude alone, |E|^2 = z rho2 / (r2^2 r) / (4 pi), with r = sqrt(r2)
    # taken once. exp(-ikr) comes from t = tan(-kr/2) by the half-angle
    # identities cos = (1 - t^2) / (1 + t^2) and sin = 2t / (1 + t^2): one
    # vectorized tan in place of a complex exp, within a few float64 ulps of
    # |E| in each part (t^2 cannot overflow: no float64 kr/2 lies that close
    # to a pole of tan)
    power, re, im, t = out
    np.add(rho2, dy2, out=re)
    np.sqrt(re, out=t)
    np.multiply(re, re, out=power)
    power *= t
    np.divide(rho2 * (z / (4 * math.pi)), power, out=power)
    t *= -math.pi / wavelength
    np.tan(t, out=t)
    np.sqrt(power, out=im)
    np.multiply(t, t, out=re)
    re += 1
    im /= re                       # |E| / (1 + t^2)
    np.subtract(2, re, out=re)
    re *= im                       # |E| (1 - t^2) / (1 + t^2)
    im *= t
    im += im                       # |E| 2t / (1 + t^2)


class _CellNodes:
    """Quadrature nodes of delta x delta cells centered at (position, 0), seen
    from sources in the y = 0 plane, in a (y offsets, x nodes) layout.

    The field depends on a node's y offset only through its square, so mirror
    nodes (Gauss-Legendre nodes are exactly symmetric) share one field sample
    and carry their summed weight. weights holds each node's quadrature
    weight times the cell area factor d^2/4, and cell each x node's cell.
    """

    def __init__(self, positions: np.ndarray, d: float, rule: QuadratureRule):
        offsets = 0.5 * d * rule.nodes
        self.x = (positions[:, None] + offsets).ravel()
        dy2, inverse = np.unique(offsets * offsets, return_inverse=True)
        self.dy2 = dy2[:, None]
        wy = np.bincount(inverse, weights=rule.weights)
        self.weights = (0.25 * d * d) * (wy[:, None] * np.tile(rule.weights, positions.size))
        self.cell = np.repeat(np.arange(positions.size), rule.nodes.size)


def matched_filter_weights(mla: ModularArray, focus: float, carrier: Carrier,
                           rule: QuadratureRule | None = None) -> np.ndarray:
    """Combining weights matched to a source at (0, 0, focus), shape (L, N).

    Each weight is the conjugate of the quadratic-phase focal response
    integrated over that element's cell; the vector is normalized to unit
    energy. focus=inf gives the uniform plane-wave weights.
    """
    rule = rule or _DEFAULT_RULE
    if focus <= 0:
        raise ValueError("focal distance must be positive")
    pos = element_positions(mla)
    d, lam = mla.spacing, carrier.wavelength
    # quadratic-phase response separates into x and y factors (constant at focus=inf)
    X = pos.ravel()[:, None] + 0.5 * d * rule.nodes[None, :]
    y = 0.5 * d * rule.nodes
    ix = (np.exp(-1j * np.pi / (lam * focus) * X**2) * rule.weights).sum(1) * 0.5 * d
    iy = (np.exp(-1j * np.pi / (lam * focus) * y**2) * rule.weights).sum() * 0.5 * d
    w = np.conj(ix * iy)
    w = w / np.linalg.norm(w)
    return w.reshape(pos.shape)


def gain_exact_sweep(mla: ModularArray, xs, zs, focus: float, carrier: Carrier,
                     rule: QuadratureRule | None = None) -> np.ndarray:
    """Normalized array gain by direct quadrature of the exact field, for
    sources at the paired coordinates (x, 0, z).

    Matched-filter combination of the per-cell field integrals, normalized by
    d^2 times the field energy all cells receive, sum_i of the integral of
    |E|^2 over cell i, taken on the same quadrature nodes. By Cauchy-Schwarz
    (unit-energy weights, positive quadrature weights) the gain then lies in
    [0, 1] for a source at any depth. One weight vector serves every point,
    and each distinct (|x|, z) is evaluated once, in blocks of a fixed number
    of field samples. Each worker writes a block's field into buffers it
    allocates once, laid out (sources, y offsets, x nodes); the matched-filter
    weight of each cell is folded into its node weights, so a source's
    numerator and energy are each one dot over its row, the energy taken
    from the amplitude alone (|E|^2 = z rho^2 / (r2^2 r) / (4 pi)). The
    blocks run with BLAS at one thread (numerics._run_blocks), so the bits
    do not depend on the block size, the worker count or the BLAS thread
    count. The sources must pass check_sources.
    """
    rule = rule or _DEFAULT_RULE
    X, Z = np.broadcast_arrays(np.asarray(xs, float), np.asarray(zs, float))
    check_sources(mla, X, Z)
    w = matched_filter_weights(mla, focus, carrier, rule).ravel()
    # element positions are antisymmetric and the weights are matched to an
    # on-axis focus, so a source's gain depends on x only through |x|: each
    # distinct (|x|, z) is evaluated once and scattered back
    xs, zs, inverse = _distinct_pairs(np.abs(X.ravel()), Z.ravel())
    lam = carrier.wavelength
    d = mla.spacing
    nodes = _CellNodes(element_positions(mla).ravel(), d, rule)
    weights = nodes.weights.ravel()
    samples = weights.size
    # sum W E over a source's field row [re | im] is [re | im] . [Re W | -Im W]
    # plus i [re | im] . [Im W | Re W], W the node weights times each cell's
    # matched-filter weight
    W = (nodes.weights * w[nodes.cell]).ravel()
    combine = np.array([np.concatenate([W.real, -W.imag]), np.concatenate([W.imag, W.real])])
    step = max(1, _SWEEP_BLOCK_SAMPLES // samples)
    out = np.empty(xs.size)

    def run(first, stop):
        lo, hi = first * step, min(stop * step, xs.size)
        # (sources, re/im, y offsets, x nodes): each source's parts are one row
        fields = np.empty((min(step, hi - lo), 2, *nodes.weights.shape))
        power, t = np.empty((2, *fields[:, 0].shape))
        for s in range(lo, hi, step):
            b = min(step, hi - s)
            dx = nodes.x - xs[s:s + b, None, None]
            z = zs[s:s + b, None, None]
            _spherical_field(dx * dx + z * z, nodes.dy2, z, lam,
                             (power[:b], fields[:b, 0], fields[:b, 1], t[:b]))
            # one BLAS dot per row and weight vector
            energy = np.vecdot(power[:b].reshape(b, samples), weights)
            re, im = np.vecdot(fields[:b].reshape(b, 1, 2 * samples), combine).T
            out[s:s + b] = (re * re + im * im) / (d * d * energy)

    _run_blocks(run, -(-xs.size // step))
    return out[inverse].reshape(X.shape)


def check_sources(mla: ModularArray, xs, zs) -> None:
    """Raise ValueError unless gain_exact_sweep's field stays in float64 for
    sources at the coordinates (x, 0, z): finite, z positive, every source
    within _MAX_REACH_M of every element cell, and the element spacing and
    the smallest z at least _MIN_LENGTH_M."""
    X, Z = np.asarray(xs, float), np.asarray(zs, float)
    if not (np.isfinite(X).all() and np.isfinite(Z).all()):
        raise ValueError("source coordinates must be finite")
    if np.any(Z <= 0):
        raise ValueError("source must be in front of the array (z > 0)")
    if X.size == 0 or Z.size == 0:
        return
    d = mla.spacing
    reach = math.hypot(float(np.abs(X).max()) + float(np.abs(element_positions(mla)).max())
                       + d / 2, float(Z.max()), d / 2)
    if not reach <= _MAX_REACH_M:
        raise ValueError(f"sources reach {reach:.3g} m from the array's elements, beyond the "
                         f"{_MAX_REACH_M:g} m where the exact field's r^5 leaves float64")
    z_min = float(Z.min())
    if not min(d, z_min) >= _MIN_LENGTH_M:
        raise ValueError(f"an element spacing of {d!r} m and a smallest source depth of "
                         f"{z_min!r} m must both be at least {_MIN_LENGTH_M:g} m, or the "
                         "exact field's power can underflow to 0")


def _distinct_pairs(a: np.ndarray, b: np.ndarray):
    # np.unique over the rows of [a, b], as (distinct a, distinct b, inverse):
    # the distinct pairs sorted by a and then b, from one lexsort
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    start = np.empty(a.size, dtype=bool)
    start[:1] = True
    np.not_equal(a[1:], a[:-1], out=start[1:])
    start[1:] |= b[1:] != b[:-1]
    inverse = np.empty(a.size, dtype=np.intp)
    inverse[order] = np.cumsum(start) - 1
    return a[start], b[start], inverse


def _mirror_pairs(L: int):
    # sub-array centers at or right of the array center, in half-pitch units,
    # for gain_mla_fresnel: k = 1, 3, ..., L-1 for even L and 0, 2, ..., L-1
    # for odd L. Each term stands for itself and its mirror image, so the
    # center at 0, its own mirror, is weighted by one half.
    k = np.arange((L + 1) % 2, L, 2, dtype=float)
    return k, np.where(k == 0, 0.5, 1.0)


def gain_ula_fresnel(num_elements: int, spacing: float, focus: float, z,
                     carrier: Carrier) -> float | np.ndarray:
    """Closed-form on-axis gain of a uniform array: gain_mla_fresnel on
    ModularArray.ula(num_elements, spacing)."""
    return gain_mla_fresnel(ModularArray.ula(num_elements, spacing), focus, z, carrier)


def gain_mla_fresnel(mla: ModularArray, focus: float, z,
                     carrier: Carrier) -> float | np.ndarray:
    """Closed-form on-axis gain of a modular array focused at depth `focus`,
    observed at depth z: one quadratic-phase Fresnel aperture integral per
    sub-array. z may be an array of depths; a scalar z gives a float."""
    L, N, d = mla.num_subarrays, mla.elements_per_subarray, mla.spacing
    lam, half_pitch = carrier.wavelength, mla.half_pitch
    k, half = _mirror_pairs(L)
    zs = np.asarray(z, dtype=float)
    flat = zs.reshape(-1)
    # the focus itself gives exactly 1, where z_eff is infinite
    off = flat != focus
    z_eff = _z_eff(focus, flat)[off]
    scale = 1.0 / np.sqrt(2 * lam * z_eff)
    c1, s1 = fresnel_cs((N * d + 2 * k * half_pitch) * scale[:, None])
    c2, s2 = fresnel_cs((N * d - 2 * k * half_pitch) * scale[:, None])
    cy, sy = fresnel_cs(d * scale)
    pref = 2 * lam * z_eff / (L * N * d**2)
    g = np.ones_like(flat)
    g[off] = (pref**2 * (cy**2 + sy**2)
              * (((c1 + c2) * half).sum(-1) ** 2 + ((s1 + s2) * half).sum(-1) ** 2))
    return float(g[0]) if zs.ndim == 0 else g.reshape(zs.shape)


def crossrange_gain(mla: ModularArray, focus: float, x, carrier: Carrier):
    """Gain and envelope at lateral offset x in the focal plane.

    The envelope is the squared sinc of the single-sub-array pattern; the
    gain multiplies it by the squared array factor sin(L t) / (L sin t) of
    the sub-array centers, t = 2 pi x h / (lambda F) with h the half-pitch,
    1 where sin t = 0 and clamped to 1, so gain <= envelope exactly. Returns
    (gain, envelope), arrays when x is an array.
    """
    xs = np.asarray(x, dtype=float)
    env, kx = _crossrange_factors(mla.elements_per_subarray, mla.spacing, focus, xs, carrier)
    g = env * _squared_array_factor(mla.num_subarrays, kx, mla.half_pitch)
    if xs.ndim == 0:
        return float(g), float(env)
    return g, env


def _crossrange_factors(N: int, spacing: float, focus: float, xs: np.ndarray,
                        carrier: Carrier):
    # the factors of crossrange_gain that do not depend on the sub-array
    # count or the half-pitch: the envelope and (2 pi / (lambda F)) x
    lam = carrier.wavelength
    env = np.sinc(N * xs * (2 * spacing / lam) / (2 * focus)) ** 2
    return env, (2 * np.pi / (lam * focus)) * xs


def _squared_array_factor(L, kx, half_pitch):
    # (sin(L t) / (L sin t))^2 at t = kx * half_pitch, 1 where sin t = 0 and
    # clamped to 1; broadcasts, so a column of counts and half-pitches gives
    # one row per layout. The squared factor has period pi in t; reduced to
    # |u| <= pi/2 it keeps its digits next to the grating lobes, where sin t
    # nears 0
    t = kx * half_pitch
    u = t - np.pi * np.round(t / np.pi)
    s = np.sin(u)
    af = np.divide(np.sin(L * u), L * s, out=np.ones_like(u), where=s != 0)
    return np.minimum(af * af, 1.0)


def half_power_beamwidth(mla: ModularArray, focus: float, carrier: Carrier) -> float:
    """Cross-range width of the envelope's half-power region: 1.77 * F / N at
    half-wavelength spacing, inversely proportional to the spacing otherwise.

    Raises ValueError when the width is not a finite number above 0, as when
    the spacing in wavelengths underflows to 0 in float64, or the width does.
    """
    ratio = 2 * mla.spacing / carrier.wavelength
    width = 1.77 * focus / mla.elements_per_subarray / ratio if ratio > 0 else math.inf
    if not 0 < width < math.inf:
        raise ValueError(f"a spacing of {mla.spacing!r} m at a {carrier.wavelength!r} m "
                         f"wavelength and a {focus!r} m focus has no finite half-power "
                         "beamwidth above 0")
    return width


@dataclass(frozen=True)
class RippleMetrics:
    predicted_peak_count: int
    single_peak: bool
    ula_fraction: float


def ripple_metrics(num_elements: int, half_pitch: float, carrier: Carrier) -> RippleMetrics:
    """Closed-form count of gain peaks inside the half-power window, the
    single-peak condition, and the sub-arrays' share of the total aperture.

    Two-sub-array semantics with half-wavelength spacing: the peak count is
    2*floor(1.77*half_pitch/(N*wavelength)) + 1, odd by construction, and a
    single peak survives exactly when the floor argument is below one.
    """
    lam = carrier.wavelength
    N = num_elements
    ratio = 1.77 * half_pitch / (N * lam)
    aperture = 2 * half_pitch + N * lam / 2
    return RippleMetrics(2 * int(ratio) + 1, ratio < 1, N * lam / aperture)


def _golden_minimize(f, lo: float, hi: float, tol: float) -> float:
    # plain golden-section search for a bracketed minimum, absolute x tolerance
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def first_null_after_focus(mla: ModularArray, focus: float, carrier: Carrier,
                           depth_threshold: float = 0.05) -> float:
    """Smallest depth beyond the focus where the closed-form gain reaches a
    deep local minimum (below depth_threshold).

    Scanned on a geometric grid out to 100x the focal distance, then refined
    by golden-section search to 1e-4 m. The grid's gains are evaluated in
    chunks that double in length, and the scan stops at the first chunk that
    completes a deep minimum; each gain is the one a single call over the
    whole grid gives. Raises NullNotFoundError when no such minimum exists
    (the beam's far tail has no deep null).
    """

    def f(z):
        return gain_mla_fresnel(mla, focus, z, carrier)

    zs = np.geomspace(focus * (1 + 1e-6), focus * 100, 4000)
    g = np.empty(zs.size)
    done, stop = 0, 64
    while done < zs.size:
        g[done:stop] = f(zs[done:stop])
        # deep interior minima among the gains so far
        lo, mid, hi = g[:stop - 2], g[1:stop - 1], g[2:stop]
        deep = np.flatnonzero((mid < lo) & (mid < hi) & (mid < depth_threshold))
        if deep.size:
            i = deep[0] + 1
            return _golden_minimize(f, zs[i - 1], zs[i + 1], 1e-4)
        done, stop = stop, min(2 * stop, zs.size)
    raise NullNotFoundError(
        f"no gain minimum below {depth_threshold} between the focus and 100x the focus")


def focus_chain(mla: ModularArray, first_focus: float, carrier: Carrier, count: int,
                depth_threshold: float = 0.05) -> list:
    """Successive focal depths, each placed at the previous curve's first null.

    Returns `count` focal distances, as floats, starting with first_focus;
    raises ValueError if count is below 1 and NullNotFoundError if the chain
    runs out of nulls first.
    """
    if count < 1:
        raise ValueError(f"a focus chain needs at least one focus, not {count}")
    foci = [float(first_focus)]
    while len(foci) < count:
        foci.append(float(first_null_after_focus(mla, foci[-1], carrier, depth_threshold)))
    return foci
