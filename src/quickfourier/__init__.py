"""Quick Fourier transform: real-factor FFT with exact operation accounting.

Two recursions for power-of-two spectra — a classical one whose odd-
harmonic cosine step passes through wider intermediate signals, and an
improved one that splits time parity first and conserves storage at
every step — with brute-force references, per-operation counting, a
trigonometric-constant access log, decomposition-tree dumps, and a
float32 rounding-error harness.
"""

from . import accuracy, classical, costmodel, improved, reference, taxonomy, tree
from .counting import OpCounter, TrigTable

__version__ = "0.1.0"

__all__ = [
    "accuracy",
    "classical",
    "costmodel",
    "improved",
    "reference",
    "taxonomy",
    "tree",
    "OpCounter",
    "TrigTable",
    "__version__",
]
