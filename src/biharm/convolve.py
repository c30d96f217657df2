"""Deterministic stencil convolution with explicit boundary policies.

Orientation is correlation (no kernel flip): out(i,j) = sum over (p,q) of
coeff(p,q) * in(i+p, j+q), with i the column and j the row index.
"""
from __future__ import annotations

import enum
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._kernels import conv_rows
from .raster import Raster
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


# rows per tile: fastest of 16/32/64/128 for 5 sweeps of 2048x2048 rasters
# on 2 workers (README, "Engine")
DEFAULT_TILE_HEIGHT = 32


def _check_dims(r: Raster, s: Stencil, b: Boundary) -> None:
    if b is Boundary.MIRROR:
        need = 2 * s.radius + 1
        if r.width < need or r.height < need:
            raise ValueError(
                f"mirror boundary needs dimensions > {2 * s.radius}, "
                f"got {r.width}x{r.height}"
            )


def convolve_reference(r: Raster, s: Stencil, b: Boundary = Boundary.MIRROR) -> Raster:
    """Single-pass oracle: plain loop over stencil offsets, fixed tap order."""
    _check_dims(r, s, b)
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


def _refresh_halo(buf: np.ndarray, radius: int, rows: np.ndarray, cols: np.ndarray) -> None:
    """Rewrite the radius-wide halo of ``buf`` from its interior, as ``np.pad``
    would. ``rows``/``cols`` map each padded row/column to the buffer
    row/column it copies: first the halo columns of the interior rows, then
    whole halo rows, which copy interior rows already complete."""
    h = rows.size - 2 * radius
    w = cols.size - 2 * radius
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
    workers: int | None,
    passes: int = 1,
    scaled_center: float | None = None,
) -> np.ndarray:
    """Run ``passes`` passes of the tap loop over ``r`` and return the last
    pass's output array, not yet checked for finiteness.

    Without ``scaled_center`` a pass is the convolution. With it, each pass
    is the Jacobi update ``cur - conv(cur) / scaled_center`` of the previous
    pass's output (see ``_kernels.conv_rows``). The input is padded once;
    intermediate passes alternate between two padded buffers, and after each
    one only the halo of the buffer just written is refreshed (for ZERO it
    stays zero). The tile list and the worker pool serve every pass. Rows are
    split into bands of tile_height; workers read overlapping padded rows but
    write disjoint output rows, so scheduling cannot change results.
    """
    if tile_height < 1:
        raise ValueError(f"tile_height must be positive, got {tile_height}")
    _check_dims(r, s, b)
    if workers is None:
        workers = default_workers()
    radius = s.radius
    h, w = r.shape
    k = 2 * radius + 1
    taps = [(float(s.coeffs[qi, pi]), qi, pi)
            for qi in range(k) for pi in range(k) if s.coeffs[qi, pi] != 0.0]
    mode = _PAD_MODE[b]
    src = np.pad(r.data, radius, mode=mode)
    if passes > 1:
        spare = np.zeros_like(src)
        rows = radius + np.pad(np.arange(h), radius, mode=mode)
        cols = radius + np.pad(np.arange(w), radius, mode=mode)
    interior = (slice(radius, radius + h), slice(radius, radius + w))
    tiles = [(r0, min(r0 + tile_height, h)) for r0 in range(0, h, tile_height)]
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 and len(tiles) > 1 else None
    try:
        for done in range(1, passes + 1):
            out = np.empty((h, w)) if done == passes else spare[interior]
            jobs = [(src, taps, out, row0, row1, scaled_center) for row0, row1 in tiles]
            if pool is None:
                for job in jobs:
                    conv_rows(*job)
            else:
                for fut in [pool.submit(conv_rows, *job) for job in jobs]:
                    fut.result()
            if done < passes:
                if b is not Boundary.ZERO:
                    _refresh_halo(spare, radius, rows, cols)
                src, spare = spare, src
    finally:
        if pool is not None:
            pool.shutdown()
    return out


def convolve(
    r: Raster,
    s: Stencil,
    b: Boundary = Boundary.MIRROR,
    tile_height: int = DEFAULT_TILE_HEIGHT,
    workers: int | None = None,
) -> Raster:
    """Tiled parallel convolution, bit-identical to convolve_reference."""
    return Raster._from_array(_sweeps(r, s, b, tile_height, workers))
