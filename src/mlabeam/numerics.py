"""Special functions and quadrature shared by the gain computations."""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.special

# Threads for the block layers: the steering-grid build and the exact-gain
# sweep (elementwise), and the 2D screen (GEMM per block, with BLAS held at
# one thread; see _run_blas_blocks). At most 4, and no more than the CPUs
# this process may run on. Never derived from the input size; results do not
# depend on it.
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _run_blocks(task, num_blocks: int) -> None:
    """Call task(first, stop) over contiguous ranges of block indices that
    together cover range(num_blocks), one range per worker thread.

    Each task must write only its own blocks' output. numpy releases the GIL
    inside ufuncs, so elementwise work on independent blocks runs in
    parallel. With one worker or one block the task runs inline, no pool.
    """
    workers = min(_WORKERS, num_blocks)
    if workers <= 1:
        task(0, num_blocks)
        return
    bounds = [num_blocks * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(task, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        for future in futures:
            future.result()


def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, looked
    up through numpy's own extension module, or None when this numpy build
    does not export them."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    put.restype, put.argtypes = None, [ctypes.c_int]
    return get, put


_BLAS_THREADS = _openblas_threads()
_BLAS_PIN = threading.RLock()


@contextlib.contextmanager
def _blas_pinned():
    """Hold numpy's OpenBLAS at one thread, process wide, inside the block,
    and restore the old count after it, also when the block raises.

    The count is process wide, so BLAS calls on other threads also run on
    one thread meanwhile, and pins from several threads take turns on a
    lock: two pins that overlapped could restore in crossed order and leave
    BLAS at one thread. Pins nest on one thread: an inner pin finds the
    count at one and leaves it there. Without the thread controls BLAS is
    left alone.
    """
    if _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    with _BLAS_PIN:
        old = get()
        put(1)
        try:
            yield
        finally:
            put(old)


def _run_blas_blocks(task, num_blocks: int) -> None:
    """_run_blocks for tasks that call BLAS.

    While the workers run, BLAS is pinned to one thread (_blas_pinned), so
    each worker's GEMM has a core to itself rather than contending with
    BLAS's own threads; the calling thread sets the count and restores it.
    Without the thread controls the task runs as one range on the caller.
    """
    if _BLAS_THREADS is None or min(_WORKERS, num_blocks) <= 1:
        task(0, num_blocks)
        return
    with _blas_pinned():
        _run_blocks(task, num_blocks)


def fresnel_cs(u):
    """Fresnel integrals C(u) = int_0^u cos(pi t^2 / 2) dt and S likewise.

    Returns the (C, S) pair; accepts scalars or arrays. Both are odd in u.
    """
    s, c = scipy.special.fresnel(u)
    return c, s


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1, 1]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if abs(self.weights.sum() - 2.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 2")


def gauss_legendre_rule(order: int = 8) -> QuadratureRule:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(order, nodes, weights)

