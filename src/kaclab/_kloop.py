"""Build and load the compiled proposal loop, `_kloop.c`.

On first use the C source is compiled with gcc into `_build/` next to this
file, under a name made from the sha256 of the source and the compile
command, and loaded through ctypes.  `kernel(d)` returns the library, or
None where the Python loop must run instead: no gcc, a failed build or
load, or a kernel dot product that differs from numpy's `x @ y` in
dimension d (the kernel must reproduce numpy's arithmetic bit for bit).
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
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-Wall", "-Wextra")

# status codes of kac_run, as in _kloop.c
DONE, GROW = 0, 1
ERR_MAJORANT, ERR_WEIGHT, ERR_ZERO_TOTAL, ERR_REFILL, ERR_INDEX = -1, -2, -3, -4, -5

REFILL = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)

_UNLOADED = object()
_lib = _UNLOADED  # the library once loaded; None runs the Python loop everywhere
_dot_ok = {}  # dimension -> the kernel's dot matches numpy's


def compile_kernel(out_path: str) -> subprocess.CompletedProcess:
    return subprocess.run(["gcc", *CFLAGS, "-o", out_path, SOURCE, "-lm"],
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
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.kac_dot.argtypes = (ptr, ptr, i64)
    lib.kac_dot.restype = ctypes.c_double
    lib.kac_run.argtypes = (ptr, ptr, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                            REFILL, ptr, ptr, ptr, ptr, ptr, ptr)
    lib.kac_run.restype = ctypes.c_int
    return lib


def _dot_matches(lib, d: int) -> bool:
    pairs = np.random.default_rng(0).standard_normal((256, 2, d))
    return all(lib.kac_dot(x.ctypes.data, y.ctypes.data, d) == float(x @ y) for x, y in pairs)


def kernel(d: int):
    """The compiled loop for velocities in R^d, or None."""
    global _lib
    if _lib is _UNLOADED:
        _lib = _load()
    if _lib is None:
        return None
    if d not in _dot_ok:
        _dot_ok[d] = _dot_matches(_lib, d)
    return _lib if _dot_ok[d] else None
