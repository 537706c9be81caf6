"""Build and load the compiled proposal loop, pair-sum rows and log walk,
`_kloop.c`.

On first use the C source is compiled with gcc into `_build/` next to this
file, under a name made from the sha256 of the source and the compile
command, and loaded through ctypes.  `kernel(d)` returns the library, or
None where the Python loop must run instead: no gcc, a failed build or
load, or a kernel dot product that differs from numpy's `x @ y` in
dimension d (the kernel must reproduce numpy's arithmetic bit for bit).
The same gate serves `kac_replay`, the compiled walk of an event log behind
`engine.replay_rows`, whose collision is that dot product and unfused
steps.  `kernel(d, sums=True)`, for the rows of `engine._TiltPairSum` and the
tracked segments that update them, also asks that the kernel's row sum
equals numpy's `a.sum()`; where it does not, only they run in Python and
numpy.

On x86-64 with glibc the row functions `kac_rows` and `collision_rows` (the
entry of a collision's rows, behind `kac_run`, `kac_pair_rows` and
`kac_pair_update`) are built twice into the one library, for x86-64-v4
(AVX-512) and for baseline x86-64, and the dynamic loader picks the clone
when the library is loaded.  The build key, source plus compile command, is
therefore unchanged, and the clones' rows are the same bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_kloop.c")
BUILD_DIR = os.path.join(_HERE, "_build")
CFLAGS = ("-O3", "-fno-math-errno", "-fPIC", "-shared", "-ffp-contract=off", "-Wall", "-Wextra")

# status codes of kac_run and kac_replay, as in _kloop.c
DONE, GROW = 0, 1
ERR_MAJORANT, ERR_WEIGHT, ERR_ZERO_TOTAL, ERR_REFILL, ERR_INDEX, ERR_LOG = range(-1, -7, -1)
# the pair function f(K) of a row, as in _kloop.c
F_K_MINUS_1, F_K_TABLE = 0, 1

REFILL = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)


class RowSpec(ctypes.Structure):
    """`struct rowspec` of _kloop.c: the rows f(K) B of one scheme interval."""

    _fields_ = [*((name, ctypes.c_void_p) for name in ("V", "live", "zero", "scratch")),
                *((name, ctypes.c_int64) for name in ("n", "d", "f", "constant")),
                *((name, ctypes.c_double) for name in ("c", "delta", "beta", "f0", "fc", "fnan"))]

_UNLOADED = object()
_lib = _UNLOADED  # the library once loaded; None runs the Python loop everywhere
_dot_ok = {}  # dimension -> the kernel's dot matches numpy's
_sum_ok = False  # the kernel's row sum matches numpy's


def compile_kernel(out_path: str, *extra: str) -> subprocess.CompletedProcess:
    """gcc on _kloop.c with CFLAGS, and extra flags after them (the load
    passes none; `-DKAC_NO_CLONES` builds the baseline rows alone)."""
    return subprocess.run(["gcc", *CFLAGS, *extra, "-o", out_path, SOURCE, "-lm"],
                          capture_output=True, text=True)


def _load():
    if shutil.which("gcc") is None:
        return None
    try:
        with open(SOURCE, "rb") as fh:
            key = hashlib.sha256(fh.read() + " ".join(("gcc",) + CFLAGS).encode()).hexdigest()
        path = os.path.join(BUILD_DIR, f"_kloop_{key[:16]}.so")
        if not os.path.exists(path):
            os.makedirs(BUILD_DIR, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=BUILD_DIR)
            os.close(fd)
            try:
                if compile_kernel(tmp).returncode != 0:
                    return None
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return bind(ctypes.CDLL(path))
    except OSError:
        return None


def bind(lib):
    """Declare the signatures of the kernel's functions on a loaded library."""
    ptr, i64, dbl = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.kac_dot.argtypes = (ptr, ptr, i64)
    lib.kac_dot.restype = dbl
    lib.kac_sum.argtypes = (ptr, i64)
    lib.kac_sum.restype = dbl
    spec = ctypes.POINTER(RowSpec)
    lib.kac_rows.argtypes = (spec, spec, i64, i64, ptr, ptr)
    lib.kac_rows.restype = None
    lib.kac_pair_rows.argtypes = (spec, i64, i64)
    lib.kac_pair_rows.restype = None
    lib.kac_pair_update.argtypes = (spec, i64, i64)
    lib.kac_pair_update.restype = dbl
    lib.kac_run.argtypes = (ptr, ptr, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                            REFILL, ptr, ptr, ptr, ptr, ptr, ptr, spec, spec)
    lib.kac_run.restype = ctypes.c_int
    lib.kac_replay.argtypes = (ptr, i64, i64, ptr, ptr, ptr, ptr, i64, i64, ptr)
    lib.kac_replay.restype = ctypes.c_int
    return lib


def _sum_matches(lib) -> bool:
    # numpy sums a contiguous (2, N) row pair as one run of 2N elements;
    # lengths up to 600 cross every branch, 24690 several splits
    rng = np.random.default_rng(0)
    for n in (*range(1, 601, 7), 24690):
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 9.0, n)
        if lib.kac_sum(a.ctypes.data, n) != float(a.sum()):
            return False
    return True


def _dot_matches(lib, d: int) -> bool:
    pairs = np.random.default_rng(0).standard_normal((256, 2, d))
    return all(lib.kac_dot(x.ctypes.data, y.ctypes.data, d) == float(x @ y) for x, y in pairs)


def kernel(d: int, sums: bool = False):
    """The compiled loop for velocities in R^d, or None; with `sums`, the
    compiled pair-sum rows too, or None."""
    global _lib, _sum_ok
    if _lib is _UNLOADED:
        _lib = _load()
        _sum_ok = _lib is not None and _sum_matches(_lib)
    if _lib is None:
        return None
    if d not in _dot_ok:
        _dot_ok[d] = _dot_matches(_lib, d)
    return _lib if _dot_ok[d] and (_sum_ok or not sums) else None
