"""BLAS/OpenMP thread pinning for the benchmark suite (import side effect).

Kernel speedups across ``BENCH_*.json`` are only comparable if every
bench measures the same thing: a *single-threaded* BLAS.  An OpenBLAS
that silently fans a GEMM out over however many cores the runner happens
to have turns "fused kernel vs legacy loop" into "one core vs N cores" —
noise dressed up as signal — and the bit-identity story is cleaner too
(threaded reductions are where reorderings creep in).

Importing this module (``benchmarks/common.py`` does it first thing, so
every bench gets it transitively):

1. ``setdefault``\\ s the usual thread-count environment variables to
   ``1`` — effective for BLAS libraries loaded *after* this import and
   inherited by bench subprocesses.  ``setdefault``, not overwrite: an
   explicit ``OPENBLAS_NUM_THREADS=8`` from the caller wins.
2. Best-effort pins an *already-loaded* numpy OpenBLAS to one thread at
   runtime via its ``openblas_set_num_threads`` entry point (the bench
   scripts import numpy before ``common``, so the env vars alone would
   be too late for them).  Wheels bundle the library under vendored
   names with symbol suffixes (e.g. ``scipy_openblas_set_num_threads64_``),
   so several spellings are tried; non-OpenBLAS builds are left alone.

Everything here is deliberately defensive — a BLAS we cannot identify
just keeps its defaults (and ``common.bench_host_metadata`` records what
the process actually ran with, so the artifact tells the truth either
way).
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

#: Thread-count environment variables pinned (via ``setdefault``) to 1.
PINNED_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: ``openblas_set_num_threads`` spellings across builds: plain, 64-bit
#: interface suffix, and the scipy-openblas vendored prefix/suffix combos
#: numpy/scipy wheels ship.
_SET_THREADS_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)

__all__ = ["PINNED_ENV_VARS", "find_openblas", "pin_blas_threads"]


def find_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS shared library numpy loaded, if identifiable.

    Wheels vendor it next to the package (``site-packages/numpy.libs``;
    scipy's copy works too since numpy reuses an already-loaded one);
    ``ctypes.CDLL`` on the same path returns the existing process handle
    rather than loading a second copy.
    """
    try:
        import numpy as np
    except Exception:  # pragma: no cover - numpy is a hard dep elsewhere
        return None
    site_root = Path(np.__file__).resolve().parent.parent
    patterns = (
        "numpy.libs/*openblas*.so*",
        "scipy.libs/*openblas*.so*",
        "numpy/.dylibs/*openblas*.dylib",
    )
    for pattern in patterns:
        for lib_path in sorted(site_root.glob(pattern)):
            try:
                return ctypes.CDLL(str(lib_path))
            except OSError:  # pragma: no cover - corrupt/foreign-arch lib
                continue
    return None


def pin_blas_threads(threads: int = 1) -> str | None:
    """Pin a loaded OpenBLAS's thread pool; returns the symbol used.

    ``None`` means no loaded OpenBLAS was found (or it exposes none of
    the known entry points) — nothing was changed.
    """
    lib = find_openblas()
    if lib is None:
        return None
    for symbol in _SET_THREADS_SYMBOLS:
        fn = getattr(lib, symbol, None)
        if fn is None:
            continue
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(int(threads))
        return symbol
    return None  # pragma: no cover - OpenBLAS without its own API


for _var in PINNED_ENV_VARS:
    os.environ.setdefault(_var, "1")

#: Which runtime entry point (if any) the import-time pin went through —
#: surfaced in ``common.bench_host_metadata()`` for the artifact record.
RUNTIME_PIN_SYMBOL = pin_blas_threads(1)
