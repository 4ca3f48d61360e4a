"""Bi-axial transformer for irregular clinical time series.

Ships a small autodiff engine (float32 training and inference, float64
gradient checks), a missingness-aware data pipeline with a synthetic EHR
generator, dynamic observation/forecast window sampling, the bi-axial
attention model with classification and forecasting heads, training
with early stopping, and a CLI for reproducible experiments.
"""

from biaxial import _malloc

_malloc.tune()

from biaxial.autodiff import Tensor, backward, grad_check, tensor

__version__ = "0.1.0"

__all__ = ["Tensor", "backward", "grad_check", "tensor", "__version__"]
