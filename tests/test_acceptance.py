"""End-to-end acceptance checks for the full pipeline.

Each test prints exactly one verdict line (run with `pytest -s` to see them
all; failures show theirs regardless). Two checks fail by design and are
described in the README: the single-element design endpoint and the second
focus of the refocusing chain assert published target values that this
implementation's conventions do not reproduce. They are asserted as stated
rather than loosened.
"""

import math

import numpy as np
from scipy.integrate import quad

import mlabeam as m
from mlabeam.localization import default_angle_grid
from mlabeam.numerics import gauss_legendre_rule

CAR = m.Carrier.from_wavelength(0.02)
MC_CAR = m.Carrier.from_frequency(15e9)


def _verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} | {detail}"
    print(line, flush=True)
    assert ok, line


def _canonical_mla():
    return m.ModularArray(2, 64, 0.01, m.spacing_for_aperture(2.0, 2, 64, 0.01))


def test_criterion_01_fresnel_fidelity():
    mla = _canonical_mla()
    zs = np.linspace(10.0, 100.0, 200)
    exact = m.gain_exact_sweep(mla, np.zeros_like(zs), zs, 30.0, CAR)
    closed = m.gain_mla_fresnel(mla, 30.0, zs, CAR)
    worst = float(np.max(np.abs(exact - closed)))
    _verdict(1, worst <= 0.03, f"max |exact - closed form| = {worst:.6f} (<= 0.03)")


def test_criterion_02_single_peak_and_fill_ratio():
    mla = _canonical_mla()
    bw = m.half_power_beamwidth(mla, 30.0, CAR)
    xs = np.linspace(-bw / 2, bw / 2, 300)
    gain, _ = m.crossrange_gain(mla, 30.0, xs, CAR)
    peaks = m.count_peaks(gain)
    frac = m.ripple_metrics(64, mla.half_pitch, CAR).ula_fraction
    ok = peaks == 1 and abs(frac - 0.64) <= 0.005
    _verdict(2, ok, f"peaks in window = {peaks} (want 1), fill ratio = {frac:.4f} "
                    f"(want 0.64 +- 0.005)")


def test_criterion_03_ripple_regime():
    mla = m.ModularArray(2, 16, 0.01, m.spacing_for_aperture(2.0, 2, 16, 0.01))
    bw = m.half_power_beamwidth(mla, 30.0, CAR)
    xs = np.linspace(-bw / 2, bw / 2, 300)
    gain, _ = m.crossrange_gain(mla, 30.0, xs, CAR)
    counted = m.count_peaks(gain)
    formula = m.ripple_metrics(16, mla.half_pitch, CAR).predicted_peak_count
    ok = counted >= 9 and counted == formula
    _verdict(3, ok, f"counted {counted} peaks, formula predicts {formula}; "
                    f"published figure quotes 9 (window-edge lobes excluded here)")


def test_criterion_04_design_endpoints():
    counts = (1, 2, 4, 8, 16, 32, 64)
    results = [m.design_num_arrays(m.DesignInput(2.0, 30.0, n, CAR, spacing=0.01))
               for n in counts]
    by_n = dict(zip(counts, results))
    Ls = [r.num_subarrays for r in results]
    ok_64 = by_n[64].num_subarrays == 2
    ok_mono = all(a >= b for a, b in zip(Ls, Ls[1:]))
    got_1 = by_n[1].num_subarrays
    ok_1 = abs(got_1 - 62) <= 2
    ok = ok_64 and ok_mono and ok_1
    _verdict(4, ok,
             f"N=64 -> L={by_n[64].num_subarrays} (want 2), monotone={ok_mono}, "
             f"N=1 -> L={got_1} (want 62 +- 2; fused-lobe spacing keeps multiple "
             f"window peaks at every feasible L, so the guard returns the filled "
             f"aperture; known limitation)")


def test_criterion_05_fraunhofer_metrics():
    gap = m.spacing_for_aperture(2.0, 4, 36, 0.01)
    met = m.derived_metrics(m.ModularArray(4, 36, 0.01, gap), CAR)
    ok = (abs(met.fraunhofer - 400.0) < 1e-9
          and abs(met.fraunhofer_subarray - 12.96) < 1e-9)
    _verdict(5, ok, f"whole-array {met.fraunhofer:.6f} m (want 400), "
                    f"sub-array {met.fraunhofer_subarray:.6f} m (want 12.96)")


def test_criterion_06_closed_form_sanity():
    mla = _canonical_mla()
    near = m.gain_mla_fresnel(mla, 30.0, 30.0 - 1e-7, CAR)
    at = m.gain_mla_fresnel(mla, 30.0, 30.0, CAR)
    ok_focus = abs(near - 1.0) <= 1e-6 and at == 1.0
    _, env = m.crossrange_gain(mla, 30.0, 0.885 * 30.0 / 64, CAR)
    ok_env = abs(env - 0.5) <= 0.01
    contiguous = m.ModularArray(2, 64, 0.01, 0.01)
    worst = 0.0
    for z in (5.0, 18.0, 30.0, 77.0, 300.0):
        a = m.gain_mla_fresnel(contiguous, 30.0, z, CAR)
        b = m.gain_ula_fresnel(128, 0.01, 30.0, z, CAR)
        worst = max(worst, abs(a - b))
    ok = ok_focus and ok_env and worst <= 1e-9
    _verdict(6, ok, f"gain(z->F) = {near:.9f}, envelope at half-power edge = "
                    f"{env:.4f}, contiguous-limit mismatch = {worst:.2e}")


def test_criterion_07_localization_trends():
    base = dict(aperture=2.0, carrier=MC_CAR, power=0.1, noise_power=10**-10.8,
                trials=500, base_seed=1)
    res_n = m.run_localization_experiment(m.TrialConfig(
        num_subarrays=2, elements_per_subarray=16,
        sweep_variable="elements_per_subarray", sweep_values=(4, 8, 16, 32), **base))
    nmse_n = [a["nmse"] for a in res_n.aggregates]
    inv_n = sum(1 for a, b in zip(nmse_n, nmse_n[1:]) if b > a)

    res_l = m.run_localization_experiment(m.TrialConfig(
        num_subarrays=4, elements_per_subarray=16,
        sweep_variable="num_subarrays", sweep_values=(2, 4, 8), **base))
    nmse_l = [a["nmse"] for a in res_l.aggregates]
    inv_l = sum(1 for a, b in zip(nmse_l, nmse_l[1:]) if b > a)

    mla = m.ModularArray(4, 16, 0.01, m.spacing_for_aperture(2.0, 4, 16, 0.01))
    grid = default_angle_grid(0.002)
    ok_floor = True
    worst_ratio = 0.0
    for k in range(25):
        rng = np.random.default_rng(900 + k)
        phi = math.pi / 2 + math.radians(rng.uniform(-60, 60))
        dist = rng.uniform(4.0, 40.0)
        sc = m.Scenario(mla, MC_CAR, dist, phi, 0.1, 0.0, 4)
        snaps = m.synthesize_snapshots(sc, seed=500 + k)
        est = m.locate(snaps, grid)
        err = math.hypot(est.x - sc.user_xz[0], est.z - sc.user_xz[1])
        floor = m.bracketing_floor(mla, sc.user_xz, grid)
        worst_ratio = max(worst_ratio, err / floor if floor > 0 else float(err > 0))
        ok_floor &= err <= floor + 1e-12

    ok = inv_n <= 1 and inv_l <= 1 and ok_floor
    _verdict(7, ok,
             f"NMSE vs N {['%.2e' % v for v in nmse_n]} ({inv_n} inversions), "
             f"vs L {['%.2e' % v for v in nmse_l]} ({inv_l} inversions), "
             f"noiseless error at most {worst_ratio:.2f}x the grid floor")


def test_criterion_08_spectral_efficiency():
    cfg = m.TrialConfig(aperture=2.0, num_subarrays=4, elements_per_subarray=16,
                        carrier=MC_CAR, power=0.1, noise_power=10**-10.8,
                        sweep_variable="power", sweep_values=(0.1,),
                        trials=500, base_seed=1)
    res = m.run_se_sweep(cfg)
    agg = res.aggregates[0]
    rel = abs(agg["mean_se_proposed"] - agg["mean_se_perfect"]) / agg["mean_se_perfect"]
    pointwise = all(r.se_proposed <= r.se_perfect + 1e-12
                    for r in res.records if not r.excluded)
    ratio = res.search_cost_2d / res.search_cost_proposed
    ok = rel <= 0.05 and pointwise and ratio >= 100.0
    _verdict(8, ok,
             f"mean rate {agg['mean_se_proposed']:.4f} vs ideal "
             f"{agg['mean_se_perfect']:.4f} ({100 * rel:.2f}% off, <= 5%), "
             f"pointwise bounded = {pointwise}, search-cost ratio = {ratio:.0f} "
             f"(>= 100)")


def test_criterion_09_refocusing_chain():
    mla = m.ModularArray(4, 16, 0.01, m.spacing_for_aperture(1.0, 4, 16, 0.01))
    hp = mla.half_pitch
    chain = m.focus_chain(mla, 2.0, CAR, 3)
    second = float(chain[1])
    ok = abs(second - 2.74) <= 0.05
    _verdict(9, ok,
             f"second focus = {second:.4f} m (want 2.74 +- 0.05; the half-pitch "
             f"here is {hp:.4f} m and the first on-axis null lands at {second:.4f}; "
             f"hitting 2.74 needs a 0.135 m half-pitch; known limitation)")


def test_criterion_10_numerics():
    def oracle(u):
        c, _ = quad(lambda t: math.cos(math.pi * t * t / 2), 0.0, u, limit=200)
        s, _ = quad(lambda t: math.sin(math.pi * t * t / 2), 0.0, u, limit=200)
        return c, s

    C, S = m.fresnel_cs(1.0)
    c_ref, s_ref = oracle(1.0)
    ok_cs = (abs(C - c_ref) <= 1e-9 and abs(S - s_ref) <= 1e-9
             and abs(C - 0.7798934) < 1e-7 and abs(S - 0.4382591) < 1e-7)

    mla = _canonical_mla()
    zs = np.linspace(10.0, 100.0, 200)
    g8 = m.gain_exact_sweep(mla, np.zeros_like(zs), zs, 30.0, CAR,
                            rule=gauss_legendre_rule(8))
    g16 = m.gain_exact_sweep(mla, np.zeros_like(zs), zs, 30.0, CAR,
                             rule=gauss_legendre_rule(16))
    drift = float(np.max(np.abs(g8 - g16)))
    ok = ok_cs and drift < 1e-8
    _verdict(10, ok, f"C(1)={C:.9f}, S(1)={S:.9f} vs adaptive oracle, "
                     f"order-doubling drift = {drift:.2e} (< 1e-8)")
