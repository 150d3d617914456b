"""Record of the machine and software a benchmark run measured.

BLAS threads are recorded as found and never set here: the streams' small
kernels are sensitive to the thread count, and pinning it in the benchmark
would hide that.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads(package) -> dict[str, int]:
    """Thread count in effect for each OpenBLAS bundled with ``package``."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    found = {}
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[lib.name] = int(fn())
                break
    return found


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable (git failed)"
    return out.stdout.strip()


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path) -> dict:
    """Cores, versions, BLAS build and threads, git SHA and ``src/`` line count."""
    import numpy
    import scipy

    try:
        import threadpoolctl  # noqa: F401

        threadpoolctl_ok = True
    except ImportError:
        threadpoolctl_ok = False
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})",
        "blas_threads_numpy": _blas_threads(numpy),
        "blas_threads_scipy": _blas_threads(scipy),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threadpoolctl_importable": threadpoolctl_ok,
        "git_sha": _git_sha(root),
        "src_lines": _src_lines(root),
    }
