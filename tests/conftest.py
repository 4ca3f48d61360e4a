"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from biaxial import autodiff as ad


@pytest.fixture
def float64():
    """Create tensors in float64 for the whole test, whatever the default
    compute dtype: for tests that compare with float64 references at
    float64 tolerances, or that hand parameters to `grad_check`."""
    with ad.compute_dtype(np.float64):
        yield
