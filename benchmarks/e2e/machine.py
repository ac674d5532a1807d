"""The machine record stamped into every result file, and the bandwidth
ceiling (``machine.triad_gb_s``) measured in the same run as the leaf."""

from __future__ import annotations

import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.compiler.codegen_c import compiler_identity, find_c_compiler
from repro.util import detect_cpu_count

MIB = 1 << 20


def _cache_bytes(index: int) -> int | None:
    """Size of cpu0's cache ``index`` from sysfs (``None`` when unreadable)."""
    try:
        text = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text()
        return int(text.strip().rstrip("K")) * 1024
    except (OSError, ValueError):
        return None


def triad_array_bytes() -> int:
    """At least four times the per-core L2, and never under 64 MiB."""
    return max(64 * MIB, 4 * (_cache_bytes(2) or 2 * MIB))


def triad_gb_s() -> float:
    """STREAM-style triad ``a = b + s*c`` in NumPy (median of five).

    NumPy has no fused triad, so it runs as two passes (``a = s*c`` then
    ``a += b``) and the bytes counted are those two passes' five array
    sweeps, 40 B per element; write-allocate traffic is not counted.
    """
    n = triad_array_bytes() // 8
    a, b, c = np.empty(n), np.full(n, 1.0), np.full(n, 2.0)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        times.append(time.perf_counter() - t0)
    return 40 * n / statistics.median(times) / 1e9


def machine_record(triad: float) -> dict:
    nproc = detect_cpu_count()
    return {
        "nproc": nproc,
        # The thread budget is 2 (heat2d_c_par's workers; client + server).
        "oversubscribed": nproc < 2,
        "compiler": compiler_identity(find_c_compiler()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "l2_bytes": _cache_bytes(2),
        "llc_bytes": _cache_bytes(3),
        "triad_array_bytes": triad_array_bytes(),
        "machine.triad_gb_s": triad,
    }
