"""Hot convolution kernel: the library's one tap loop.

Taps accumulate in a fixed order (row offset outer, column offset inner,
ascending), the same order as `convolve_reference`, so outputs are
bit-identical to it.
"""
from __future__ import annotations

import numpy as np

# Always False; kept because perfbench/run.py prints it as provenance.backend.
NUMBA_ENABLED = False


def conv_rows(padded: np.ndarray, taps, radius: int, out: np.ndarray, row0: int, row1: int,
              scaled_center: float | None = None) -> None:
    """Fill rows [row0, row1) of ``out`` from the C-contiguous, radius-padded
    input.

    ``taps`` lists ``(coefficient, row offset, column offset)`` for the
    non-zero coefficients, indices into the coefficient grid, in ascending
    order. Without ``scaled_center`` the rows get the convolution; with it
    they get the Jacobi update ``cur - conv / scaled_center``, where ``cur``
    is the interior of ``padded``. ``out`` is a 2-D ``(h, w)`` destination,
    a fresh array or the interior view of another padded buffer; only its
    rows [row0, row1) are written, so a halo around it is never touched.

    Each tap reads one contiguous run of the flattened ``padded``: with
    ``W`` its row length, output pixel (j, i) of the tile is lane
    ``j * W + i`` of every run, and the ``2 * radius`` lanes between two
    output rows fall on halo columns and are computed, then dropped; they
    never leave the tile's own buffer.
    """
    width = padded.shape[1]
    w = width - 2 * radius
    n = row1 - row0
    length = (n - 1) * width + w
    flat = padded.reshape(-1)
    buf = np.empty(n * width)
    acc = buf[:length]
    term = np.empty(length)
    rows = buf.reshape(n, width)[:, :w]
    # A dropped lane can overflow where no output does; errstate is
    # per thread, so it is set here, on the thread that runs the tile.
    with np.errstate(over="ignore", invalid="ignore"):
        # Skipping the zero taps leaves every byte as the full 25-tap sum has
        # it. The accumulator starts at +0.0, and under round-to-nearest a sum
        # is -0.0 only when both addends are -0.0, so the accumulator is never
        # -0.0; adding the +-0.0 product of a zero tap and a finite sample to
        # it then changes nothing. This needs the +0.0 start: the first tap
        # stores `0.0 + term`, never the bare product. A unit tap adds or
        # subtracts the sample itself: 1 * x == x, and a - x == a + (-x).
        total = 0.0
        if not taps:
            acc.fill(0.0)
        for coeff, qi, pi in taps:
            start = (row0 + qi) * width + pi
            run = flat[start : start + length]
            if coeff == 1.0:
                np.add(total, run, out=acc)
            elif coeff == -1.0:
                np.subtract(total, run, out=acc)
            else:
                np.multiply(coeff, run, out=term)
                np.add(total, term, out=acc)
            total = acc
        if scaled_center is None:
            out[row0:row1] = rows
            return
        # the same two per-element operations as `cur - (conv / scaled_center)`
        np.divide(acc, scaled_center, out=acc)
        np.subtract(padded[row0 + radius : row1 + radius, radius : radius + w], rows,
                    out=out[row0:row1])
