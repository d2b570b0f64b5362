"""Test-session setup, loaded before any test module imports numpy.

BLAS runs one thread per eigensolve, as under the CLI (which sets the same
defaults) and in CI: the node solves already run one per CPU, and BLAS
threads on top of them compete for the same cores. An explicit value wins.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
