#!/usr/bin/env python3
"""Time the kernels of qsdesign._kernels at pipeline-realistic sizes.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

Problem sizes mirror the hot paths of the experiment pipeline: basis
evaluation over detection/projection grids, the greedy candidate scan (one
voxel, and the 216-voxel stack a region design scores per step), the
pairwise repulsion energy (one configuration, and the stack of three
restarts that `esr_design` evaluates per step), and the local-maxima sweep.
Each line gives the best and the median of REPEATS calls.
"""

import statistics
import time

import numpy as np

from qsdesign import _kernels

REPEATS = 30


def timings(fn, *args):
    fn(*args)  # warm-up
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times)


def main():
    rng = np.random.default_rng(0)
    xyz = rng.standard_normal((16384, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    psi = rng.standard_normal((321, 20))
    half = rng.standard_normal((20, 20))
    dmat = half @ half.T / 20
    pts = rng.standard_normal((90, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    stack = rng.standard_normal((3, 30, 3))
    stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
    values = rng.standard_normal(4096)
    neighbors = rng.integers(0, 4096, size=(4096, 8))
    psi_stack = rng.standard_normal((216, 321, 8))
    half_stack = rng.standard_normal((216, 8, 8))
    dmat_stack = half_stack @ half_stack.transpose(0, 2, 1) / 8
    noise_stack = np.full((216, 1), 1e-4)

    cases = [
        ("sh_matrix (16384 pts, L=8)", _kernels.sh_matrix, (xyz, 8)),
        ("greedy_gains (321 x K=20)", _kernels.greedy_gains, (psi, dmat, 1e-4)),
        ("greedy_gains (216 x 321 x K=8)", _kernels.greedy_gains, (psi_stack, dmat_stack, noise_stack)),
        ("coulomb_energy_grad (n=90)", _kernels.coulomb_energy_grad, (pts,)),
        ("coulomb_energy_grad (3 x n=30)", _kernels.coulomb_energy_grad, (stack,)),
        ("local_maxima (4096 x 8)", _kernels.local_maxima, (values, neighbors)),
    ]

    header = f"{'kernel':32s} {'best':>12s} {'median':>12s}"
    print(header)
    print("-" * len(header))
    for name, fn, args in cases:
        best, median = timings(fn, *args)
        print(f"{name:32s} {best * 1e3:9.3f} ms {median * 1e3:9.3f} ms")


if __name__ == "__main__":
    main()
