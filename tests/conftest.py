import os

# one BLAS/OpenMP thread, set before numpy loads its BLAS, as bench/run.py's
# worker_env does: the GEMMs here are small, and on a loaded host BLAS threads
# that wait beside _fit's teacher worker made a tier-1 session several times slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from cdkd.data import make_synthetic
from cdkd.models import NetworkSpec


@pytest.fixture(scope="session")
def tiny_data():
    """Small synthetic train/val pair shared by trainer-level tests."""
    train = make_synthetic(4, 24, 8, seed=7, split="train")
    val = make_synthetic(4, 12, 8, seed=7, split="val")
    return train, val


@pytest.fixture(scope="session")
def tiny_specs():
    teacher = NetworkSpec.from_channels([6, 12], num_classes=4)
    student = NetworkSpec.from_channels([4, 6], num_classes=4)
    return teacher, student


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
