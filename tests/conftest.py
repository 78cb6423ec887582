"""Hypothesis runs derandomized, with a fixed example budget and no
deadline: fuzz tests repeat byte for byte and stay within a few seconds.
BLAS runs on one thread, as in perfbench/run.py: the package multiplies
small matrices, where more threads add CPU time, not speed. The variables
are set before numpy loads, and a value set outside is kept."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("repeatable", derandomize=True, max_examples=150,
                          deadline=None, database=None)
settings.load_profile("repeatable")
