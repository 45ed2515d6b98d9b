"""Set-up time of a fresh process: import qsdesign and fill its lazy caches.

Run as a child process by ``run.py`` (with ``src`` on PYTHONPATH):

    python3 perfbench/setup_probe.py <degree> <peak grid size>

It prints one JSON line, ``{"setup_s": ...}``: the CPU time of the whole
process, interpreter start-up included.
"""

import json
import sys
import time


def warm_caches(degree: int, grid_size: int):
    """Fill the projection grid (cohort generation) and the detection grid
    and its basis matrix (peak detection) through public calls."""
    from qsdesign import GenerativeConfig, ShBasis, find_peaks, generate_cohort

    basis = ShBasis(degree)
    truth = generate_cohort(basis, GenerativeConfig(), 1, seed=0)[0]
    find_peaks(truth.fodf, basis, grid_size)


if __name__ == "__main__":
    warm_caches(int(sys.argv[1]), int(sys.argv[2]))
    print(json.dumps({"setup_s": time.process_time()}))
