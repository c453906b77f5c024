"""Quick Fourier transform: real-factor FFT with exact operation accounting.

Two recursions for power-of-two spectra — a classical one whose odd-
harmonic cosine step passes through wider intermediate signals, and an
improved one that splits time parity first and conserves storage at
every step — with brute-force references, per-operation counting, a
trigonometric-constant access log, decomposition-tree dumps, and a
float32 rounding-error harness.

Importing the package loads only the transform core, which also names
the recursions and transforms: ALGORITHMS, TRANSFORMS, check_names and
transform_fn are the one list every other module reads.  The research
modules (accuracy, costmodel, reference, tree) load on first access.
"""

import importlib

from . import classical, improved, taxonomy
from .counting import OpCounter, TrigTable

__version__ = "0.1.0"

_LAZY = ("accuracy", "costmodel", "reference", "tree")

__all__ = ["classical", "improved", "taxonomy", *_LAZY, "ALGORITHMS", "TRANSFORMS",
           "check_names", "transform_fn", "OpCounter", "TrigTable", "__version__"]

ALGORITHMS = {"classical": classical, "improved": improved}
TRANSFORMS = tuple(taxonomy.ROOT_TYPE)


def check_names(algorithm, transform):
    """ValueError unless both names are ones this package knows."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {tuple(ALGORITHMS)}, got {algorithm!r}")
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")


def transform_fn(algorithm, transform):
    """The public function for one transform of one algorithm, e.g. improved.cdft."""
    check_names(algorithm, transform)
    return getattr(ALGORITHMS[algorithm], transform)


def __getattr__(name):
    # importing a submodule binds it here, so this runs once per module
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
