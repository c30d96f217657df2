import importlib
import tracemalloc

import numpy as np
import pytest

from biharm.convolve import Boundary


def quad_loop_convolve(data: np.ndarray, coeffs: np.ndarray, radius: int,
                       policy: Boundary) -> np.ndarray:
    """Independent oracle: plain Python quadruple loop with explicit index
    mapping (no np.pad). Tap order matches the engine (q outer, p inner)."""
    h, w = data.shape

    def fold(idx, n):
        if policy is Boundary.ZERO:
            return idx if 0 <= idx < n else None
        if policy is Boundary.WRAP:
            return idx % n
        if policy is Boundary.REPLICATE:
            return min(max(idx, 0), n - 1)
        # mirror about the edge pixel, no duplication
        if idx < 0:
            idx = -idx
        elif idx >= n:
            idx = 2 * (n - 1) - idx
        assert 0 <= idx < n
        return idx

    out = np.zeros((h, w))
    for j in range(h):
        for i in range(w):
            acc = 0.0
            for q in range(-radius, radius + 1):
                for p in range(-radius, radius + 1):
                    jj = fold(j + q, h)
                    ii = fold(i + p, w)
                    value = 0.0 if jj is None or ii is None else data[jj, ii]
                    acc += coeffs[q + radius, p + radius] * value
            out[j, i] = acc
    return out


def assert_ulp_close(a: np.ndarray, b: np.ndarray, ulps: int = 4, scale=None):
    """Per-sample ulp comparison. scale sets the magnitude the ulp is taken
    at; it defaults to the operands, but computations whose rounding floor is
    set by larger intermediates must pass that magnitude explicitly."""
    if scale is None:
        scale = np.maximum(np.abs(a), np.abs(b))
    tol = ulps * np.spacing(np.abs(scale))
    diff = np.abs(a - b)
    assert np.all(diff <= tol), f"max diff {diff.max()} exceeds {ulps} ulp"


def traced_peak(call):
    """The peak of the memory that ``call()`` allocates, under tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def set_default_workers(monkeypatch, workers: int) -> None:
    """Make ``default_workers()`` return ``workers``: the share scheduler
    looks it up at each call, so the noise and compare's scoring use it too."""
    # the module, which the package's ``convolve`` function shadows
    module = importlib.import_module("biharm.convolve")
    monkeypatch.setattr(module, "default_workers", lambda: workers)
