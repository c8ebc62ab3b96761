"""Machine and numeric-library facts, and a memory-bandwidth reference."""

from __future__ import annotations

import ctypes
import glob
import os
import statistics
import time

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _read(path, default=None):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return default


def cache_sizes() -> dict:
    """{'L1d': bytes, 'L2': bytes, 'L3': bytes} of cpu0 as sysfs reports them."""
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{d}/{n}") for n in ("level", "type", "size"))
        if not (level and kind and size) or kind == "Instruction":
            continue
        name = f"L{level}" + ("d" if kind == "Data" else "")
        out[name] = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return out


def ram_bytes() -> int:
    for line in (_read("/proc/meminfo", "") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return 0


def _openblas():
    """The OpenBLAS library loaded into this process, or None."""
    for line in (_read("/proc/self/maps", "") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in os.path.basename(path).lower() and path.startswith("/"):
            try:
                return ctypes.CDLL(path)
            except OSError:
                return None
    return None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def library_facts() -> dict:
    """Versions and threading of numpy, scipy and the BLAS they run on.

    Call after numpy has been imported, so the BLAS is loaded.
    """
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"numpy": numpy.__version__, "scipy": scipy.__version__,
             "blas_name": blas.get("name"), "blas_version": blas.get("version"),
             "blas_threads": None, "blas_runtime_config": None,
             "thread_env": {k: os.environ[k] for k in THREAD_ENV_VARS if k in os.environ}}
    lib = _openblas()
    if lib is not None:
        facts["blas_threads"] = _blas_call(
            lib, ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                  "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int)
        config = _blas_call(
            lib, ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                  "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p)
        facts["blas_runtime_config"] = config.decode() if config else None
    return facts


def host_facts() -> dict:
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "ram_bytes": ram_bytes(), "caches": cache_sizes()}


def copy_gbps(nbytes: int, repeats: int = 3):
    """STREAM-style copy bandwidth: 2 * nbytes (read + write) per copy over the
    median copy time of `repeats` copies. Returns (GB/s, nbytes)."""
    import numpy as np

    src = np.ones(nbytes // 8, dtype=np.float64)
    dst = np.zeros_like(src)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t)
    return 2 * src.nbytes / statistics.median(times) / 1e9, src.nbytes
