"""Build and load the compiled proposal loop, pair-sum rows and log walk,
`_kloop.c`, and the compiled tools, `_ktools.c`: the transport solve, the
event-CSV I/O and the sidecar's initial velocities.

On first use each C source is compiled with gcc into `_build/` next to this
file, under a name made from the sha256 of the source and the compile
command, and loaded through ctypes; the two compile at the same time, and a
build removes the libraries of that source's other versions from `_build/`.
The two are separate libraries so that an edit to the tools leaves the
engine library, and its code's addresses, as they are.  `library()` returns
the engine library with the tools' functions bound on it, and `kernel()`
returns it too, or None where the Python loop must run instead: no gcc, or
a failed build or load of either library.  The loop's dot products are
`kinetics._dot`'s unfused sums in coordinate order, written out in C, so
they need no check against numpy; the same holds for `kac_replay`, the
compiled walk of an event log behind `engine.replay_rows`.
`kernel(sums=True)`, for the rows of `engine._TiltPairSum` and `_BSums` and
the tracked segments that update them, and for a checkpoint's moments
(`kac_moments`, behind `engine.state_moments`), also asks that the
kernel's row sum equals numpy's `a.sum()`, checked once at load; where it
does not, only they run in Python and numpy (a Maxwell interval at delta =
0 has no rows).

The rows, (K - 1) B at delta > 0 and the pair (B live_a live_b, B) at
delta = 0, are made one element at a time straight from the velocities:
`kac_rows` writes each row of a build in one pass and sums each block of
rows in C, and a collision's change of its pair's rows is one pass per
particle, h(new) - h(old), from the pair's velocities saved before it
(`kac_pair_rows`); a pair sum's scratch holds that change (4n doubles)
and the saved velocities (2d).  On x86-64 with glibc the row functions
`kac_rows` and `collision_rows` (the entry of a collision's rows, behind
`kac_run` and `kac_pair_update`) are built twice into the engine library,
for x86-64-v3 (AVX2) and for baseline x86-64, and the dynamic loader picks
the clone when the library is loaded.  The build key, source plus compile
command, is therefore unchanged, and CFLAGS carries no instruction-set
flag.  The clones give the same bytes: nothing is fused
(-ffp-contract=off), and each vector lane does the scalar loop's
operations in its order.

`kac_transport` lists the pairs closer than the cap from the points, with
their distances, straight into its arc arrays, and solves the capped
transport problem on them exactly by a network simplex, behind every
`metrics.flux_distance` and `bl_distance`.  The simplex prices each atom's
8 nearest listed partners and the abstain arcs first, then certifies the
result against every listed pair, bringing in any that prices below the
tolerance and going on until none does.  Its arithmetic needs no match
with numpy (the distances are scipy's `cdist` bytes, unfused sums in
coordinate order), so `library()` hands it out wherever the libraries
load, without the sum gate.

So are `kac_write_events` and `kac_read_events`, behind
`config_io.write_event_csv` and `read_event_csv`.  The writer prints the
rows with "%.17g" and decimal integers, as the Python writer does; the
reader accepts only what it prints (`-?digits[.digits][e(+|-)digits]`,
`-?digits` in range, a newline after every row but perhaps the last).
The reader scans each float once, its digits eight bytes at a time, and
converts most by Eisel and Lemire's method (one or, rarely, two 64 x
64-bit products against a table of 5^-n, no division; about 25 ns a
value); the writer prints most in exact integer arithmetic, eight digits
at a time (about 35 ns a value), and its integers in the same words.  Both
leave the other floats to glibc's sprintf and strtod, to the same bytes
and doubles.  Both return -1, and `config_io` takes its Python path (the
`%`-template writer, `np.loadtxt`), on a log with a non-finite t or sigma,
a locale whose decimal point is not '.', or, to the reader, any other
text.

So are `kac_write_velocities` and `kac_read_velocities`, behind the
"initial_velocities" block of `config_io.write_sidecar` and of its
readers.  The writer prints the rows as `json.dumps(..., indent=1)` prints
them, each float as float.__repr__ prints it: the shortest decimal that
reads back as x, nearest x, found in exact 128-bit integer arithmetic for
2^-19 <= |x| < 2^52 and printed by the event CSV's eight-digit emitter
(about 50 ns a value against 1.1-1.5 us for float.__repr__); it leaves a
NUL for every other value, which `config_io` prints with float.__repr__,
and returns -1 on a host without 128-bit integers.  The reader accepts
only the writer's layout, rows of equal length and floats in JSON's
grammar with a point or an exponent, and converts them with
`kac_read_events`' scanner (about 30 ns a value against about 500 ns for
json's float parsing); it returns -1, and `config_io` reads the whole file
with json.load, on any other text or a locale whose decimal point is not
'.'.  A battery in the tests holds the writer to
float.__repr__ byte for byte on about 126,000 values a dimension: random
bit patterns in and about the band, the powers of two and ten with their
neighbours, ties, the 1e-4 switch of layout and values outside the band.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_kloop.c")
TOOLS_SOURCE = os.path.join(_HERE, "_ktools.c")
BUILD_DIR = os.path.join(_HERE, "_build")
CFLAGS = ("-O3", "-fno-math-errno", "-fPIC", "-shared", "-ffp-contract=off", "-Wall", "-Wextra")

# status codes of kac_run and kac_replay, as in _kloop.c
DONE, GROW = 0, 1
ERR_MAJORANT, ERR_WEIGHT, ERR_ZERO_TOTAL, ERR_REFILL, ERR_INDEX, ERR_LOG = range(-1, -7, -1)
# status codes of kac_transport, as in _ktools.c
ERR_MEMORY, ERR_PIVOTS, ERR_ARTIFICIAL = range(-7, -10, -1)
REFILL = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)


class RowSpec(ctypes.Structure):
    """`struct rowspec` of _kloop.c: one scheme interval of a tilt pair sum."""

    _fields_ = [*((name, ctypes.c_void_p) for name in ("V", "live", "scratch")),
                *((name, ctypes.c_int64) for name in ("n", "d")),
                *((name, ctypes.c_double) for name in ("c", "delta", "beta"))]

_UNLOADED = object()
_lib = _UNLOADED  # the library once loaded; None takes every Python path (and HiGHS)
_sum_ok = False  # the kernel's row sum matches numpy's


def _command(out_path: str, extra: tuple, source: str) -> list:
    return ["gcc", *CFLAGS, *extra, "-o", out_path, source, "-lm"]


def compile_kernel(out_path: str, *extra: str,
                   source: str = SOURCE) -> subprocess.CompletedProcess:
    """gcc on a source (by default _kloop.c) with CFLAGS, and extra flags
    after them (the load passes none; `-DKAC_NO_CLONES` builds the baseline
    rows alone)."""
    return subprocess.run(_command(out_path, extra, source), capture_output=True, text=True)


def _stem(source: str) -> str:
    return os.path.splitext(os.path.basename(source))[0]


def _path(source: str) -> str:
    """The library of a source: `<stem>_<key>.so` in BUILD_DIR, the key made
    from the sha256 of the source and the compile command."""
    with open(source, "rb") as fh:
        key = hashlib.sha256(fh.read() + " ".join(("gcc",) + CFLAGS).encode()).hexdigest()
    return os.path.join(BUILD_DIR, f"{_stem(source)}_{key[:16]}.so")


def _build(sources: list) -> list:
    """The libraries of the sources, each built unless it is there, or None
    where its build fails.  The missing ones compile at the same time, one
    gcc each.  A build removes the other `<stem>_*.so` in BUILD_DIR, the
    libraries of older versions of its source (a process that loaded one
    keeps its mapping)."""
    paths = [_path(source) for source in sources]
    tmps, procs = {}, {}  # by the index of the source
    try:
        for k, source in enumerate(sources):
            if os.path.exists(paths[k]):
                continue
            os.makedirs(BUILD_DIR, exist_ok=True)
            fd, tmps[k] = tempfile.mkstemp(suffix=".so", dir=BUILD_DIR)
            os.close(fd)
            procs[k] = subprocess.Popen(_command(tmps[k], (), source),
                                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for k, proc in procs.items():
            if proc.wait() != 0:
                paths[k] = None
                continue
            os.replace(tmps[k], paths[k])
            stem, built = _stem(sources[k]), os.path.basename(paths[k])
            for name in os.listdir(BUILD_DIR):
                if name.startswith(stem + "_") and name.endswith(".so") and name != built:
                    with contextlib.suppress(FileNotFoundError):  # another process's prune
                        os.unlink(os.path.join(BUILD_DIR, name))
    finally:
        for proc in procs.values():  # only where something raised
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
    return paths


def _load():
    if shutil.which("gcc") is None:
        return None
    try:
        paths = _build([SOURCE, TOOLS_SOURCE])
        if None in paths:
            return None
        return bind(*(ctypes.CDLL(path) for path in paths))
    except OSError:
        return None


def bind(lib, tools):
    """Declare the signatures of the functions of an engine library and a
    tools library, and bind the tools' functions on the engine's; the
    engine library."""
    ptr, i64, dbl = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.kac_sum.argtypes = (ptr, i64)
    lib.kac_sum.restype = dbl
    spec = ctypes.POINTER(RowSpec)
    lib.kac_rows.argtypes = (spec, i64, ptr, ptr)
    lib.kac_rows.restype = None
    lib.kac_pair_rows.argtypes = (spec, i64, i64)
    lib.kac_pair_rows.restype = None
    lib.kac_pair_update.argtypes = (spec, i64, i64, ptr)
    lib.kac_pair_update.restype = None
    lib.kac_run.argtypes = (ptr, ptr, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                            REFILL, ptr, ptr, ptr, ptr, ptr, ptr, ptr, spec)
    lib.kac_run.restype = ctypes.c_int
    lib.kac_replay.argtypes = (ptr, i64, i64, ptr, ptr, ptr, ptr, i64, i64, ptr)
    lib.kac_replay.restype = ctypes.c_int
    lib.kac_squares.argtypes = (ptr, i64, i64, ptr, ptr)
    lib.kac_squares.restype = None
    lib.kac_moments.argtypes = (ptr, i64, i64, ptr, i64, ptr, ptr, ptr)
    lib.kac_moments.restype = None
    lib.kac_transport = tools.kac_transport
    lib.kac_transport.argtypes = (ptr, ptr, i64, ptr, ptr, i64, i64, dbl, i64, ptr, ptr, ptr)
    lib.kac_transport.restype = ctypes.c_int
    lib.kac_write_events = tools.kac_write_events
    lib.kac_write_events.argtypes = (ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, i64)
    lib.kac_write_events.restype = i64
    lib.kac_read_events = tools.kac_read_events
    lib.kac_read_events.argtypes = (ptr, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr)
    lib.kac_read_events.restype = i64
    lib.kac_write_velocities = tools.kac_write_velocities
    lib.kac_write_velocities.argtypes = (ptr, i64, i64, ptr, i64, ptr)
    lib.kac_write_velocities.restype = i64
    lib.kac_read_velocities = tools.kac_read_velocities
    lib.kac_read_velocities.argtypes = (ptr, i64, ptr, i64, ptr)
    lib.kac_read_velocities.restype = i64
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


def library():
    """The loaded engine library with the tools' functions, or None where
    there is no gcc or a build or load failed; no arithmetic gate (the
    transport and the event CSV need none)."""
    global _lib, _sum_ok
    if _lib is _UNLOADED:
        _lib = _load()
        _sum_ok = _lib is not None and _sum_matches(_lib)
    return _lib


def kernel(sums: bool = False):
    """The compiled loop, at every d, or None; with `sums`, the compiled
    pair-sum rows too, or None."""
    lib = library()
    return lib if _sum_ok or not sums else None
