import os

# one BLAS thread: the solvers run many small matmuls, which a second thread
# slows several-fold when the other CPU is busy.  OpenBLAS reads these
# variables once, when NumPy loads it, so they are set before the import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from phases.graphon import StepGraphon


def random_step_graphon(rng: np.random.Generator, m: int) -> StepGraphon:
    c = rng.dirichlet(np.full(m, 2.0))
    c = np.clip(c, 1e-3, None)
    c /= c.sum()
    p = rng.uniform(0.05, 0.95, (m, m))
    return StepGraphon(c, (p + p.T) / 2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
