"""The round kernels of the vectorized engines.

:class:`NumpyKernels` holds the one numeric core of a round for all four
vectorized algorithms; every vectorized and batched engine runs it.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.vectorized.backends.numpy_backend import NumpyKernels

#: Always False: the optional numba kernels were removed, and the NumPy
#: kernels are the only ones. Kept for tools that record the environment.
NUMBA_AVAILABLE = False


def resolve_backend(name=None) -> NumpyKernels:
    """The round kernels for ``name``: ``None`` or ``"numpy"``.

    Any other name raises :class:`~repro.exceptions.ConfigurationError`,
    so a caller that still asks for a removed backend fails loudly.
    """
    if name not in (None, "numpy"):
        raise ConfigurationError(
            f"unknown backend {name!r}: the numpy kernels are the only ones"
        )
    return NumpyKernels()
