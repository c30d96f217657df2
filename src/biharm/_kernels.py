"""Hot convolution kernel: the library's one tap loop.

Taps accumulate in a fixed order (row offset outer, column offset inner,
ascending), the same order as `convolve_reference`, so outputs are
bit-identical to it.
"""
from __future__ import annotations

import numpy as np

# Always False; kept because perfbench/run.py prints it as provenance.backend.
NUMBA_ENABLED = False


def conv_rows(padded: np.ndarray, taps, out: np.ndarray, row0: int, row1: int,
              scaled_center: float | None = None) -> None:
    """Fill rows [row0, row1) of ``out`` from the radius-padded input.

    ``taps`` lists ``(coefficient, row offset, column offset)`` for the
    non-zero coefficients, indices into the coefficient grid, in ascending
    order. Without ``scaled_center`` the rows get the convolution; with it
    they get the Jacobi update ``cur - conv / scaled_center``, where ``cur``
    is the interior of ``padded``.
    """
    w = out.shape[1]
    radius = (padded.shape[1] - w) // 2
    block = out[row0:row1] if scaled_center is None else np.empty((row1 - row0, w))
    # Skipping the zero taps leaves every byte as the full 25-tap sum has it.
    # The accumulator starts at +0.0, and under round-to-nearest a sum is
    # -0.0 only when both addends are -0.0, so the accumulator is never -0.0;
    # adding the +-0.0 product of a zero tap and a finite sample to it then
    # changes nothing. This needs the +0.0 start: seeding the accumulator
    # with the first product could leave a -0.0 where the full sum has +0.0.
    block[:] = 0.0
    for coeff, qi, pi in taps:
        block += coeff * padded[row0 + qi : row1 + qi, pi : pi + w]
    if scaled_center is not None:
        # the same two per-element operations as `cur - (conv / scaled_center)`
        np.divide(block, scaled_center, out=block)
        np.subtract(padded[row0 + radius : row1 + radius, radius : radius + w], block,
                    out=out[row0:row1])
