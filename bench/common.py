"""Helpers shared by run_bench.py and the experiment processes it starts."""

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class BenchSetupError(Exception):
    """The checkout cannot be benchmarked (for example, no package source)."""


def import_absadmm():
    """Import absadmm from this checkout's ``src/``, never from elsewhere."""
    init = os.path.join(SRC, "absadmm", "__init__.py")
    if not os.path.isfile(init):
        raise BenchSetupError(f"no package source at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import absadmm

    if os.path.realpath(absadmm.__file__) != os.path.realpath(init):
        raise BenchSetupError(f"imported absadmm from {absadmm.__file__}, not {init}")
    return absadmm


def read_trace(path):
    """Rows of a trace CSV as dicts of floats (empty cells become None)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if line:
            rows.append(
                {k: (float(v) if v != "" else None) for k, v in zip(header, line.split(","))}
            )
    return rows


def trace_digest_text(path):
    """The trace text with the time_ms column removed (what reruns must repeat)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index("time_ms")
    return "\n".join(",".join(p for i, p in enumerate(ln.split(",")) if i != col) for ln in lines)


def first_target_row(rows, target):
    """First trace row whose stationarity is at or below ``target``, else None."""
    for row in rows:
        if row["stationarity"] is not None and row["stationarity"] <= target:
            return row
    return None


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }
