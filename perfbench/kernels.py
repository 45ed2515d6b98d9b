"""Kernel cases of ``benchmarks/bench_kernels.py`` as per-layer figures.

Same inputs and sizes as that script, timed through the dispatch names of
``qsdesign._kernels`` (the implementation the pipeline calls). Each case
reports the median of its repeats, not the best, and the bytes its input
and output arrays hold, labelled as computed: cache traffic and
temporaries are not counted.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 30


def _cases(kernels):
    rng = np.random.default_rng(0)
    xyz = rng.standard_normal((16384, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    psi = rng.standard_normal((321, 20))
    half = rng.standard_normal((20, 20))
    dmat = half @ half.T / 20
    pts = rng.standard_normal((90, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    values = rng.standard_normal(4096)
    neighbors = rng.integers(0, 4096, size=(4096, 8))
    return [
        ("sh_matrix", getattr(kernels, "sh_matrix", None), (xyz, 8)),
        ("greedy_gains", getattr(kernels, "greedy_gains", None), (psi, dmat, 1e-4)),
        ("coulomb_energy_grad", getattr(kernels, "coulomb_energy_grad", None), (pts,)),
        ("local_maxima", getattr(kernels, "local_maxima", None), (values, neighbors)),
    ]


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0  # scalars


def measure(kernels) -> tuple[dict, list]:
    """Per-case metrics {name: (value, unit)} and the list of missing kernels."""
    metrics, missing = {}, []
    for name, fn, args in _cases(kernels):
        if fn is None:
            missing.append(f"_kernels.{name}")
            continue
        out = fn(*args)  # warm-up (and JIT compile on the numba path)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        metrics[f"kernels.bench.{name}.median_us"] = (statistics.median(times) * 1e6, "us")
        metrics[f"kernels.bench.{name}.computed_bytes"] = (_nbytes(args) + _nbytes(out), "bytes")
    return metrics, missing
