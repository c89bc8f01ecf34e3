"""Process set-up shared by every benchmark entry point.

`prepare()` must run before anything imports numpy: it pins the BLAS thread
count through the environment (OpenBLAS reads it once, at load time) and
puts the checkout's `src` and `tests` directories on the import path, so the
benchmark measures the package in this checkout and checks it against the
oracle in `tests/oracles.py`.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread: on a 2-core machine two OpenBLAS threads made `classify`
# on a 16x16 state about 1.5x slower than one, and a pinned count keeps runs
# comparable across machines with different core counts.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The checkout lacks the package or the oracle the benchmark needs."""


def prepare() -> None:
    """Pin BLAS threads and import the package from this checkout."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for sub in ("tests", "src"):
        path = ROOT / sub
        if not path.is_dir():
            raise CheckoutError(f"{path} is missing: run the benchmark from a checkout of the repository")
        sys.path.insert(1, str(path))
    import ncorr

    if Path(ncorr.__file__).resolve().parent != ROOT / "src" / "ncorr":
        raise CheckoutError(f"imported ncorr from {ncorr.__file__}, not from this checkout")


def _blas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Interpreter, numpy, BLAS and machine facts recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "system": platform.system(),
    }
