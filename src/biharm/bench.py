"""Throughput benchmark: reference engine vs tiled engine."""
from __future__ import annotations

import time

from .convolve import DEFAULT_TILE_HEIGHT, Boundary, convolve, convolve_reference, default_workers
from .raster import Raster
from .scene import gaussian
from .stencil import biharmonic_stencil


def _time_best(fn, iters: int) -> float:
    best = float("inf")
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmark(
    width: int = 2048,
    height: int = 2048,
    iters: int = 3,
    workers: int | None = None,
    tile_height: int = DEFAULT_TILE_HEIGHT,
) -> dict:
    """Returns pixels/second for each engine; outputs are checked identical."""
    workers = default_workers() if workers is None else workers
    stencil = biharmonic_stencil(1.0, 1.0)
    data = 100.0 + 10.0 * gaussian(1234, width * height).reshape(height, width)
    raster = Raster._from_array(data)
    pixels = width * height

    def tiled():
        return convolve(raster, stencil, Boundary.MIRROR, tile_height, workers)

    # the warm-up runs double as the bit-identity check; the bytes show the
    # sign of a zero, which array_equal cannot
    ref_out = convolve_reference(raster, stencil, Boundary.MIRROR)
    tiled_out = tiled()
    reference_pps = pixels / _time_best(
        lambda: convolve_reference(raster, stencil, Boundary.MIRROR), iters
    )
    tiled_pps = pixels / _time_best(tiled, iters)
    return {
        "width": width,
        "height": height,
        "workers": workers,
        "tile_height": tile_height,
        "bit_identical": ref_out.data.tobytes() == tiled_out.data.tobytes(),
        "reference_pps": reference_pps,
        "tiled_pps": tiled_pps,
        "speedup_tiled_vs_reference": tiled_pps / reference_pps,
    }
