"""Hypothesis runs derandomized, with a fixed example budget and no
deadline: fuzz tests repeat byte for byte and stay within a few seconds.
BLAS runs on one thread, as in perfbench/run.py: the package multiplies
small matrices, where more threads add CPU time, not speed. The variables
are set before numpy loads, and a value set outside is kept. The
``bulk_results`` fixture records what the feature reader's bulk check
returns per chunk."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

settings.register_profile("repeatable", derandomize=True, max_examples=150,
                          deadline=None, database=None)
settings.load_profile("repeatable")


@pytest.fixture
def bulk_results(monkeypatch):
    """What each call of ``datasets._whole_rows`` returns, in call order: None
    for a chunk the bulk check refused, which the walk then reads."""
    from protoadapt import datasets

    results, whole_rows = [], datasets._whole_rows

    def spy(*args):
        results.append(whole_rows(*args))
        return results[-1]

    monkeypatch.setattr(datasets, "_whole_rows", spy)
    return results
