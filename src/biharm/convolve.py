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


def _check_dims(r: Raster, s: Stencil, b: Boundary) -> None:
    if b is Boundary.MIRROR:
        need = 2 * s.radius + 1
        if r.width < need or r.height < need:
            raise ValueError(
                f"mirror boundary needs dimensions > {2 * s.radius}, "
                f"got {r.width}x{r.height}"
            )


def _padded(r: Raster, s: Stencil, b: Boundary) -> np.ndarray:
    return np.pad(r.data, s.radius, mode=_PAD_MODE[b])


def convolve_reference(r: Raster, s: Stencil, b: Boundary = Boundary.MIRROR) -> Raster:
    """Single-pass oracle: plain loop over stencil offsets, fixed tap order."""
    _check_dims(r, s, b)
    padded = _padded(r, s, b)
    h, w = r.shape
    k = 2 * s.radius + 1
    out = np.zeros((h, w))
    for qi in range(k):
        for pi in range(k):
            out += s.coeffs[qi, pi] * padded[qi : qi + h, pi : pi + w]
    return Raster._from_array(out)


def default_workers() -> int:
    return min(4, os.cpu_count() or 1)


def convolve(
    r: Raster,
    s: Stencil,
    b: Boundary = Boundary.MIRROR,
    tile_height: int = 64,
    workers: int | None = None,
) -> Raster:
    """Tiled parallel convolution, bit-identical to convolve_reference.

    Rows are split into bands of tile_height; workers read overlapping padded
    rows but write disjoint output rows, so scheduling cannot change results.
    """
    if tile_height < 1:
        raise ValueError(f"tile_height must be positive, got {tile_height}")
    _check_dims(r, s, b)
    if workers is None:
        workers = default_workers()
    padded = _padded(r, s, b)
    h, w = r.shape
    out = np.empty((h, w))
    coeffs = s.coeffs
    tiles = [(r0, min(r0 + tile_height, h)) for r0 in range(0, h, tile_height)]
    if workers <= 1 or len(tiles) == 1:
        for row0, row1 in tiles:
            conv_rows(padded, coeffs, out, row0, row1)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(conv_rows, padded, coeffs, out, row0, row1)
                for row0, row1 in tiles
            ]
            for fut in futures:
                fut.result()
    return Raster._from_array(out)
