"""Precision trade-offs for three-parameter qubit estimation.

Quantum Fisher information and collective error bounds for the Bloch-vector
model, weight-adapted single-copy and entangling two-copy measurements, the
attainable trade-off surfaces, and Monte Carlo estimation experiments that
probe them.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundValue,
    convert_normalization,
    holevo,
    nhcrb_analytic,
    nhcrb_sdp,
    qcrb,
)
from .model import BlochVector, density_matrix, model_point, qfi, qfi_inverse, sld_operators
from .povm import Povm, WeightSpec, classical_fisher, outcome_probabilities

__all__ = [
    "BlochVector",
    "BoundValue",
    "Povm",
    "WeightSpec",
    "classical_fisher",
    "convert_normalization",
    "density_matrix",
    "holevo",
    "model_point",
    "nhcrb_analytic",
    "nhcrb_sdp",
    "outcome_probabilities",
    "qcrb",
    "qfi",
    "qfi_inverse",
    "sld_operators",
    "__version__",
]
