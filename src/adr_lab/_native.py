"""The package's compiled library: _native.c, built on first use.

It holds the kernels of the 3-D step (solver3d) and of the 2-D step
(solver2d), the sum of the 2-D series at the grid nodes
(analytic2d.sample_series) and the formatter of every CSV line, the rows
of float64 tables with marked integer columns (cli.write_csv).  So every
mode needs it.  The library is built by COMPILER the first time one of
them is needed, never at import, into one hash-named file beside the
package's bytecode; a missing compiler is a ConfigurationError.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import threading
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputError

__all__: list[str] = []

# the C compiler that builds _native.c, and its flags: no contraction into
# fused multiply-adds and no fast-math, so the step kernel rounds each
# operation as numpy does
COMPILER = ("cc",)
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_SOURCE = Path(__file__).with_name("_native.c")
_CACHE = Path(__file__).with_name("__pycache__")

# the most bytes a value takes in a line of format_lines: the longest repr of
# a float64, "-2.2250738585072014e-308", and the comma or newline after it
VALUE_BYTES = 25


@functools.cache
def library() -> ctypes.CDLL:
    """_native.c built into _CACHE on first use, loaded, its table filled.

    The library's name carries a hash of the source and _FLAGS, so a
    checkout builds it once; a process that finds it loads it without
    calling COMPILER.  Loading fills the formatter's table of powers of ten
    (see _pow10_table).  Raises ConfigurationError when the build fails.
    """
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(b"\0".join([source, *(f.encode() for f in _FLAGS)])).hexdigest()
    path = _CACHE / f"_native-{digest[:16]}.so"
    if not path.exists():
        _build(path)
    lib = ctypes.CDLL(str(path))
    lib.adr_step3d_block.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 2 + [ctypes.c_int]
    lib.adr_step3d_block.restype = None
    lib.adr_step2d.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 3 + [ctypes.c_double] * 5
    lib.adr_step2d.restype = None
    lib.adr_sample_series.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64] * 3 + \
        [ctypes.c_double, ctypes.c_void_p]
    lib.adr_sample_series.restype = None
    lib.adr_format_rows.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 2
    lib.adr_format_rows.restype = ctypes.c_int64
    low, high = (ctypes.c_int32 * 2).in_dll(lib, "adr_pow10_range")
    table = _pow10_table(low, high)
    ctypes.memmove(ctypes.addressof(ctypes.c_uint64.in_dll(lib, "adr_pow10")),
                   table.ctypes.data, table.nbytes)
    return lib


def _pow10_table(low: int, high: int) -> np.ndarray:
    """g(k) = floor(10^k / 2^r) + 1, r = floor(log2 10^k) - 127, for k in [low, high].

    Row k - low holds the high and the low 64-bit word of g(k), which lies
    in (2^127, 2^128); the integer arithmetic is exact.
    """
    rows = []
    for k in range(low, high + 1):
        p = 10 ** abs(k)
        if k >= 0:
            r = p.bit_length() - 1 - 127
            beta = p >> r if r >= 0 else p << -r
        else:
            # 10^k lies strictly between 2^-b and 2^(1-b), b the bit length of 10^-k
            r = -p.bit_length() - 127
            beta = (1 << -r) // p
        g = beta + 1
        rows.append((g >> 64, g & (2**64 - 1)))
    return np.array(rows, dtype=np.uint64)


def _build(lib: Path) -> None:
    """Compile _SOURCE to lib through a name of this thread's own, renamed into place.

    Processes that build at once each rename a complete library over the
    other's, so none ever loads a partial file.
    """
    import subprocess

    tmp = lib.with_name(f"{lib.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    # libm after the source, where the linker still needs it: its exp is math.exp's
    command = [*COMPILER, *_FLAGS, "-o", str(tmp), str(_SOURCE), "-lm"]
    try:
        lib.parent.mkdir(exist_ok=True)
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        error = str(exc)
    else:
        error = done.returncode and (done.stderr.strip() or f"exit status {done.returncode}")
    if error:
        tmp.unlink(missing_ok=True)
        raise ConfigurationError("2-D and 3-D stepping, series sampling and CSV writing need "
                                 f"a C compiler: `{' '.join(command)}` failed: {error}")
    os.replace(tmp, lib)


def check_step_buffers(old: np.ndarray, new: np.ndarray) -> None:
    """Raise InputError unless old and new are aligned, C-contiguous float64 arrays of one
    shape that share no memory: a step kernel reads old by offsets while it writes new."""
    layout = [a.dtype == np.float64 and a.flags.aligned and a.flags.c_contiguous for a in (old, new)]
    if new.shape != old.shape or not all(layout) or np.shares_memory(old, new):
        raise InputError("field and out values must be aligned, C-contiguous float64 arrays of "
                         f"one shape that share no memory, got shapes {old.shape}, {new.shape}")


def format_lines(values: np.ndarray, integer=()) -> np.ndarray:
    """The CSV lines of values' rows, as a uint8 array of their UTF-8 bytes.

    values is a 2-D float64 array, copied to C order if it is not in it.
    Line i is the values of row i joined by commas, then a newline: a value
    of a column whose index is in integer is written as str(int(v)), any
    other as repr(v), the shortest decimal that reads back as it.  Raises
    InputError unless every value of an integer column is a whole number
    below 2**53 in magnitude.  The lines take at most VALUE_BYTES * cols + 1
    bytes per row.
    """
    values = np.ascontiguousarray(values)
    if values.dtype != np.float64 or values.ndim != 2:
        raise InputError(f"expected a 2-D float64 array, got {values.dtype} of shape {values.shape}")
    rows, cols = values.shape
    flags = np.isin(np.arange(cols), integer).astype(np.uint8)
    out = np.empty(rows * (VALUE_BYTES * cols + 1), dtype=np.uint8)
    size = library().adr_format_rows(values.ctypes.data, rows, cols, flags.ctypes.data,
                                     out.ctypes.data)
    if size < 0:
        raise InputError(f"columns {sorted(set(integer))} must hold whole numbers below 2**53 "
                         "in magnitude")
    return out[:size]
