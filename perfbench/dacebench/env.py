"""Provenance for every result, and BLAS thread pinning.

:func:`pin_blas` must run before numpy is first imported in the process:
OpenBLAS reads its thread count once, at library load.  A single GEMM of
the model's shape took 6.7 ms with default threads and 0.47 ms pinned to
one on a 2-CPU machine, so an unpinned run measures thread contention,
not the program.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas(threads: int = BLAS_THREADS) -> bool:
    """Pin BLAS threads; returns False if numpy was already loaded.

    A False return means the setting may not have taken effect, and the
    result's ``env`` block says so.
    """
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return "numpy" not in sys.modules


def _git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def source_digest(root: Path) -> str:
    """blake2b over every file under ``src/repro``, in path order.

    Identifies the measured code where no git metadata exists (a plain
    source checkout).
    """
    digest = hashlib.blake2b(digest_size=16)
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_info() -> Dict[str, Optional[str]]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return {"name": None, "version": None, "arch": None}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    detail = blas.get("openblas configuration") or ""
    # e.g. "OpenBLAS 0.3.31  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell
    # MAX_THREADS=64": the kernel arch is the token before MAX_THREADS.
    tokens = detail.split()
    arch = None
    for index, token in enumerate(tokens):
        if token.startswith("MAX_THREADS") and index > 0:
            arch = tokens[index - 1]
    machine = config.get("Machine Information", {}).get("host", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "arch": arch,
        "configuration": detail or None,
        "host_cpu": machine.get("cpu"),
    }


def calibrate(seconds: float = 0.25) -> float:
    """Loops per second of a fixed single-thread loop: the machine's speed.

    Not a measurement of the program.  On a machine shared with other
    tenants the same code runs at different speeds from minute to minute;
    a result whose figures moved with this rate moved with the machine.
    One loop is a GEMM of the model's shape plus a pure-Python sum.
    """
    import numpy as np

    left = np.full((256, 64), 0.5)
    right = np.full((64, 64), 0.25)
    loops = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        left @ right
        total = 0
        for value in range(2000):
            total += value
        loops += 1
    return loops / (perf_counter() - start)


def environment(root: Path, pinned_before_numpy: bool) -> dict:
    """The ``env`` block attached to every result."""
    import numpy as np

    return {
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": {
            var: os.environ.get(var) for var in _THREAD_VARS
        },
        "blas_pinned_before_numpy": pinned_before_numpy,
        "platform": platform.platform(),
    }
