import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from mlabeam import QuadratureRule, fresnel_cs, gauss_legendre_rule
from mlabeam import numerics


def fresnel_oracle(u):
    """Adaptive-quadrature reference for the cosine and sine integrals."""
    c, _ = quad(lambda t: math.cos(math.pi * t * t / 2), 0.0, u, limit=200)
    s, _ = quad(lambda t: math.sin(math.pi * t * t / 2), 0.0, u, limit=200)
    return c, s


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 1.7, 2.3, 5.0])
def test_fresnel_against_quadrature(u):
    C, S = fresnel_cs(u)
    c_ref, s_ref = fresnel_oracle(u)
    assert C == pytest.approx(c_ref, abs=1e-10)
    assert S == pytest.approx(s_ref, abs=1e-10)


def test_fresnel_known_point():
    C, S = fresnel_cs(1.0)
    assert C == pytest.approx(0.7798934, abs=1e-7)
    assert S == pytest.approx(0.4382591, abs=1e-7)


def test_fresnel_odd_and_limit():
    C, S = fresnel_cs(-1.0)
    Cp, Sp = fresnel_cs(1.0)
    assert C == -Cp and S == -Sp
    C50, S50 = fresnel_cs(50.0)
    assert abs(C50 - 0.5) < 0.01 and abs(S50 - 0.5) < 0.01
    C0, S0 = fresnel_cs(0.0)
    assert C0 == 0.0 and S0 == 0.0


def test_fresnel_vectorized():
    u = np.array([0.1, 1.0, 2.0])
    C, S = fresnel_cs(u)
    assert C.shape == (3,)
    assert C[1] == pytest.approx(0.7798934, abs=1e-7)


def test_rule_construction():
    rule = gauss_legendre_rule(8)
    assert isinstance(rule, QuadratureRule)
    assert rule.order == 8
    assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.all(np.diff(rule.nodes) > 0)
    # degree-15 polynomial integrated exactly by 8 nodes
    exact = 2.0 / 15  # integral of t^14 over [-1, 1]
    got = float(np.sum(rule.weights * rule.nodes**14))
    assert got == pytest.approx(exact, rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(k=st.floats(1.0, 500.0),
       r=st.lists(st.floats(1e-6, 40.0), min_size=1, max_size=300))
def test_exp_of_phase_is_cos_and_sin(k, r):
    """The 2D search rescores its candidates on cos and sin of the float64
    phase -k*r, where near_steering takes exp(-1j*k*r); both parts must agree
    bit for bit, for k*r up to 2e4 rad (40 m at 15 GHz is 1.26e4). Array
    lengths up to 300 cover SIMD tails."""
    r = np.array(r)
    e = np.exp(-1j * k * r)
    theta = np.multiply(r, -k)
    assert np.array_equal(np.ascontiguousarray(e.real).view(np.uint64),
                          np.cos(theta).view(np.uint64))
    assert np.array_equal(np.ascontiguousarray(e.imag).view(np.uint64),
                          np.sin(theta).view(np.uint64))


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("num_blocks", [0, 1, 2, 7])
def test_run_blocks_covers_each_block_once(workers, num_blocks, monkeypatch):
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    ranges, threads = [], set()

    def task(first, stop):
        ranges.append((first, stop))
        threads.add(threading.get_ident())

    numerics._run_blocks(task, num_blocks)
    ranges.sort()
    assert [b for first, stop in ranges for b in range(first, stop)] == list(range(num_blocks))
    assert len(ranges) == max(1, min(workers, num_blocks))
    if len(ranges) == 1:  # inline, no pool
        assert threads == {threading.get_ident()}


def test_run_blocks_raises_a_task_error(monkeypatch):
    monkeypatch.setattr(numerics, "_WORKERS", 2)

    def task(first, stop):
        if first:
            raise ZeroDivisionError("second range")

    with pytest.raises(ZeroDivisionError):
        numerics._run_blocks(task, 4)


def test_openblas_threads_missing_gives_none(monkeypatch):
    """A numpy without the bundled OpenBLAS's thread controls, or without
    np._core, leaves the screen on the caller rather than failing import."""
    monkeypatch.setattr(numerics.ctypes, "CDLL", lambda path: object())
    assert numerics._openblas_threads() is None
    monkeypatch.delattr(np, "_core")
    assert numerics._openblas_threads() is None


@pytest.mark.parametrize("workers, num_blocks, pool", [(1, 7, False), (2, 1, False),
                                                       (2, 7, True)])
def test_run_blas_blocks_pins_only_around_a_pool(workers, num_blocks, pool, monkeypatch):
    """BLAS is pinned to one thread only when the blocks run on a pool, and
    without thread controls the task runs as one range on the caller."""
    calls, ranges = [], []
    monkeypatch.setattr(numerics, "_BLAS_THREADS", (lambda: 2, calls.append))
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    numerics._run_blas_blocks(lambda first, stop: ranges.append((first, stop)), num_blocks)
    assert calls == ([1, 2] if pool else [])
    assert len(ranges) == (workers if pool else 1)
    monkeypatch.setattr(numerics, "_BLAS_THREADS", None)
    ranges.clear()
    numerics._run_blas_blocks(lambda first, stop: ranges.append((first, stop)), num_blocks)
    assert ranges == [(0, num_blocks)]


def test_run_blas_blocks_callers_take_turns(monkeypatch):
    """Two threads that each run a pinned pool leave the BLAS count as found:
    the second waits for the first, rather than saving the first's pin as
    the count to restore."""
    count = {"threads": 2}
    monkeypatch.setattr(numerics, "_BLAS_THREADS",
                        (lambda: count["threads"], lambda n: count.update(threads=n)))
    monkeypatch.setattr(numerics, "_WORKERS", 2)
    running, overlapped, lock = {0: 0, 1: 0}, [], threading.Lock()

    def caller(name):
        def task(first, stop):
            with lock:
                running[name] += 1
                overlapped.append(running[1 - name] > 0)
            time.sleep(0.02)
            with lock:
                running[name] -= 1
        numerics._run_blas_blocks(task, 4)

    threads = [threading.Thread(target=caller, args=(name,)) for name in (0, 1)]
    threads[0].start()
    time.sleep(0.005)
    threads[1].start()
    for thread in threads:
        thread.join()
    assert count["threads"] == 2
    assert len(overlapped) == 4 and not any(overlapped)
