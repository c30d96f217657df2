"""Deterministic stencil convolution with explicit boundary policies.

Orientation is correlation (no kernel flip): out(i,j) = sum over (p,q) of
coeff(p,q) * in(i+p, j+q), with i the column and j the row index.
"""
from __future__ import annotations

import enum
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._kernels import conv_rows
from .raster import Raster, _count
from .stencil import Stencil


class Boundary(enum.Enum):
    MIRROR = "mirror"
    REPLICATE = "replicate"
    ZERO = "zero"
    WRAP = "wrap"

    @classmethod
    def parse(cls, name: str) -> "Boundary":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown boundary policy {name!r}") from None


_PAD_MODE = {
    Boundary.MIRROR: "reflect",
    Boundary.REPLICATE: "edge",
    Boundary.ZERO: "constant",
    Boundary.WRAP: "wrap",
}


# rows per tile: fastest of 16/32/48/64/128 for 5 sweeps of 2048x2048
# rasters on 2 workers (CHANGES.md, "Tile height 32 stays the fastest").
# The classifier's strips use it too: on 8 bands of 1024x1024, strips of 32
# and 64 rows take about the same time, 128 rows about 15% more and 256 rows
# about 40% more
DEFAULT_TILE_HEIGHT = 32


def _check_engine(shape, s: Stencil, b: Boundary, tile_height=1, workers=None) -> int:
    """Check an engine call on a raster of ``shape`` (rows, columns) before
    it allocates, warns or starts a thread: the tile height, the boundary,
    the MIRROR size and the worker count, in that order. Returns the worker
    count, ``default_workers()`` for None."""
    _count("tile_height", tile_height)
    if not isinstance(b, Boundary):
        raise ValueError(f"boundary must be a Boundary, got {b!r}; use Boundary.parse for a name")
    if b is Boundary.MIRROR and min(shape) <= 2 * s.radius:
        raise ValueError(f"mirror boundary needs dimensions > {2 * s.radius}, "
                         f"got {shape[1]}x{shape[0]}")
    return default_workers() if workers is None else _count("workers", workers)


def convolve_reference(r: Raster, s: Stencil, b: Boundary = Boundary.MIRROR) -> Raster:
    """Single-pass oracle: plain loop over stencil offsets, fixed tap order."""
    _check_engine(r.shape, s, b)
    padded = np.pad(r.data, s.radius, mode=_PAD_MODE[b])
    h, w = r.shape
    k = 2 * s.radius + 1
    out = np.zeros((h, w))
    for qi in range(k):
        for pi in range(k):
            out += s.coeffs[qi, pi] * padded[qi : qi + h, pi : pi + w]
    return Raster._from_array(out)


def default_workers() -> int:
    """Up to 4 tile threads, no more than the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


def _shares(items: Sequence, run, workers: int | None = None) -> None:
    """Deal ``items`` into ``n = min(workers, len(items))`` interleaved shares
    (``items[i::n]``) and call ``run(share)`` once per share: share 0 on the
    calling thread and each other share on one of ``n - 1`` pool threads.
    Returns once every share is done, also when one raises; the calling
    thread's exception then wins, and otherwise the lowest share's. The pool
    starts a thread only at a submit, so one worker starts none, and the
    calling thread works rather than waits, which makes a small call on one
    worker much cheaper. A pool lives for one call: one pool kept for all of
    a sweep's passes measured no faster. ``workers`` is a count checked by
    ``_check_engine``, or None for ``default_workers()``.
    """
    if workers is None:
        workers = default_workers()
    n = min(workers, len(items))
    shares = [items[i::n] for i in range(n)]
    # leaving the block joins the helpers, also when the calling share raises
    with ThreadPoolExecutor(max_workers=max(n - 1, 1)) as pool:
        helpers = [pool.submit(run, share) for share in shares[1:]]
        for share in shares[:1]:  # no share at all when there are no items
            run(share)
    for fut in helpers:
        fut.result()


def _refresh_halo(buf: np.ndarray, radius: int, b: Boundary) -> None:
    """Write the radius-wide halo of ``buf`` from its interior, as ``np.pad``
    with ``b``'s mode would; ZERO's halo is left as it is. Index maps send
    each padded row/column to the buffer row/column it copies: first the
    halo columns of the interior rows, then whole halo rows, which copy
    interior rows already complete. The engine's bit-identity tests check it,
    since ``convolve_reference`` pads with ``np.pad``."""
    if b is Boundary.ZERO:
        return
    h, w = buf.shape[0] - 2 * radius, buf.shape[1] - 2 * radius
    rows = radius + np.pad(np.arange(h), radius, mode=_PAD_MODE[b])
    cols = radius + np.pad(np.arange(w), radius, mode=_PAD_MODE[b])
    inner = buf[radius : radius + h]
    inner[:, :radius] = inner[:, cols[:radius]]
    inner[:, radius + w :] = inner[:, cols[radius + w :]]
    buf[:radius] = buf[rows[:radius]]
    buf[radius + h :] = buf[rows[radius + h :]]


def _sweeps(
    r: Raster,
    s: Stencil,
    b: Boundary,
    tile_height: int,
    workers: int,
    passes: int = 1,
    scaled_center: float | None = None,
) -> np.ndarray:
    """Run ``passes`` passes of the tap loop over ``r`` and return the last
    pass's output array, not yet checked for finiteness; the caller checked
    the arguments with ``_check_engine`` and passes the count it returned.

    Without ``scaled_center`` a pass is the convolution. With it, each pass
    is the Jacobi update ``cur - conv(cur) / scaled_center`` of the previous
    pass's output (see ``_kernels.conv_rows``). The input is copied once into
    the interior of a zeroed padded buffer; the last pass writes a fresh
    ``(h, w)`` array and every earlier pass writes the interior of the other
    of two such buffers. Each pass first writes its input buffer's halo with
    ``_refresh_halo``, the only writer of a halo here, so ZERO's stays zero.
    Rows are split into bands of tile_height, and each pass runs them
    through one ``_shares`` call. Tiles read overlapping padded rows but
    write disjoint rows, so scheduling cannot change results.
    """
    radius = s.radius
    h, w = r.shape
    k = 2 * radius + 1
    taps = [(float(s.coeffs[qi, pi]), qi, pi)
            for qi in range(k) for pi in range(k) if s.coeffs[qi, pi] != 0.0]
    # ZERO's halo needs zeros; np.zeros takes them from pages the kernel
    # already zeroed, where zeros_like writes every byte
    src = np.zeros((h + 2 * radius, w + 2 * radius))
    src[radius : radius + h, radius : radius + w] = r.data
    spare = np.zeros(src.shape) if passes > 1 else None
    tiles = [(r0, min(r0 + tile_height, h)) for r0 in range(0, h, tile_height)]

    def run(share):  # reads the src and out of the pass that calls it
        for row0, row1 in share:
            conv_rows(src, taps, radius, out, row0, row1, scaled_center)

    for done in range(1, passes + 1):
        _refresh_halo(src, radius, b)
        if done == passes:
            out = np.empty((h, w))
        else:
            out = spare[radius : radius + h, radius : radius + w]
        _shares(tiles, run, workers)
        src, spare = spare, src
    return out


def convolve(
    r: Raster,
    s: Stencil,
    b: Boundary = Boundary.MIRROR,
    tile_height: int = DEFAULT_TILE_HEIGHT,
    workers: int | None = None,
) -> Raster:
    """Tiled parallel convolution, bit-identical to convolve_reference."""
    workers = _check_engine(r.shape, s, b, tile_height, workers)
    return Raster._from_array(_sweeps(r, s, b, tile_height, workers))
