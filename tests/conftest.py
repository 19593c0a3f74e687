import numpy as np
import pytest
from hypothesis import settings

from pathlin import get_model

# Property and fuzz tests run a fixed, bounded set of examples, so tier-1
# stays deterministic and within its time budget.
settings.register_profile("pathlin", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("pathlin")

MODEL_NAMES = ("euclidean2", "hyperbolic2", "sphere2", "torus2")


@pytest.fixture(params=MODEL_NAMES)
def model(request):
    return get_model(request.param)


@pytest.fixture
def sphere():
    return get_model("sphere2")


@pytest.fixture
def euclidean():
    return get_model("euclidean2")


@pytest.fixture
def disk():
    return get_model("hyperbolic2")


@pytest.fixture
def torus():
    return get_model("torus2")


def assert_close(a, b, tol, label=""):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = float(np.max(np.abs(a - b)))
    assert gap <= tol, f"{label}: |{a} - {b}| = {gap:.3e} > {tol:.1e}"
