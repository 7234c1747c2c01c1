import warnings

import numpy as np
import pytest

# hypothesis imports this module to report a failing @given test; its
# libcst import chain raises a DeprecationWarning from mypy_extensions,
# which under filterwarnings = error aborts the run.  Importing it once
# here, with that warning ignored, lets the failure be reported.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from helpers import bimodal_model, single_mode_model


@pytest.fixture
def bench():
    """The 4-dimensional two-mode benchmark model."""
    return bimodal_model()


@pytest.fixture
def bench_scalar():
    """Scalar variant of the two-mode benchmark."""
    return bimodal_model(z=1)


@pytest.fixture
def lgss():
    """Plain scalar linear-Gaussian system (r = 1)."""
    return single_mode_model()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
