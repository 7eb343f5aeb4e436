"""The package's compiled library: _native.c, built on first use.

It holds the transport kernel of the 3-D step (solver3d) and the formatter
of the CSV lines of float64 rows (cli.write_csv).  The library is built by
COMPILER the first time either is needed, never at import, into one
hash-named file beside the package's bytecode; a missing compiler is a
ConfigurationError.
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
    lib.adr_format_rows.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                                    ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p]
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
    command = [*COMPILER, *_FLAGS, "-o", str(tmp), str(_SOURCE)]
    try:
        lib.parent.mkdir(exist_ok=True)
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        error = str(exc)
    else:
        error = done.returncode and (done.stderr.strip() or f"exit status {done.returncode}")
    if error:
        tmp.unlink(missing_ok=True)
        raise ConfigurationError("the 3-D step and CSV writing need a C compiler: "
                                 f"`{' '.join(command)}` failed: {error}")
    os.replace(tmp, lib)


def format_lines(values: np.ndarray, heads: list[str]) -> np.ndarray:
    """The CSV lines of values' rows, as a uint8 array of their UTF-8 bytes.

    values is a 2-D float64 array, copied to C order if it is not in it.
    Line i is heads[i], then the values of row i joined by commas, then a
    newline: exactly the text of heads[i] + ",".join(map(repr,
    values[i].tolist())) + "\n", so each value is the shortest decimal that
    reads back as it.  A head holds no newline.  The lines take at most the
    bytes of the heads plus VALUE_BYTES * cols + 1 per row.
    """
    values = np.ascontiguousarray(values)
    # the heads go to the library joined by newlines, which delimit them
    text = "\n".join(heads).encode()
    if (values.dtype != np.float64 or values.ndim != 2 or len(heads) != len(values)
            or text.count(b"\n") != max(len(heads) - 1, 0)):
        raise InputError(f"expected a 2-D float64 array and one head without a newline per "
                         f"row, got {values.dtype} values of shape {values.shape} and "
                         f"{len(heads)} heads")
    rows, cols = values.shape
    out = np.empty(len(text) + rows * (VALUE_BYTES * cols + 1), dtype=np.uint8)
    size = library().adr_format_rows(values.ctypes.data, rows, cols, text, len(text),
                                     out.ctypes.data)
    return out[:size]
