"""Hot convolution kernel.

Taps accumulate in a fixed order (row offset outer, column offset inner,
ascending), the same order as `convolve_reference`, so outputs are
bit-identical to it.
"""
from __future__ import annotations

import numpy as np

# Always False; kept because perfbench/run.py prints it as provenance.backend.
NUMBA_ENABLED = False


def conv_rows(padded: np.ndarray, coeffs: np.ndarray, out: np.ndarray,
              row0: int, row1: int) -> None:
    """Fill output rows [row0, row1) from the radius-padded input."""
    k = coeffs.shape[0]
    w = out.shape[1]
    block = out[row0:row1]
    block[:] = 0.0
    for qi in range(k):
        for pi in range(k):
            block += coeffs[qi, pi] * padded[row0 + qi : row1 + qi, pi : pi + w]
