"""Kernel backend selection.

Imports the compiled Cython kernels when available, falling back to the
NumPy implementations otherwise.  Set ``MODPFORMS_PURE=1`` to force the
fallback (used by the benchmark and the backend-equivalence tests).  The
dense product is the NumPy FFT on every backend.
"""

import os

from . import _kernels_py

if os.environ.get("MODPFORMS_PURE") == "1":
    _impl = _kernels_py
else:
    try:
        from . import _kernels_cy as _impl
    except ImportError:
        _impl = _kernels_py

BACKEND = _impl.BACKEND
mul_dense = _kernels_py.mul_dense
mul_sparse = _impl.mul_sparse
sigma_sieve = _impl.sigma_sieve
count_segments = _impl.count_segments
count_segments_masked = _impl.count_segments_masked


def backends():
    """All importable backends, for benchmarks and cross-checks."""
    found = {"numpy": _kernels_py}
    try:
        from . import _kernels_cy

        found["cython"] = _kernels_cy
    except ImportError:
        pass
    return found
