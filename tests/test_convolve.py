import numpy as np
import pytest

from biharm.convolve import Boundary, convolve, convolve_reference
from biharm.raster import Raster
from biharm.stencil import Stencil, biharmonic_stencil, laplacian_baseline

from conftest import assert_ulp_close, quad_loop_convolve

ALL_POLICIES = list(Boundary)


def test_impulse_response_centered():
    data = np.zeros((7, 7))
    data[3, 3] = 1.0
    s = biharmonic_stencil(1.0, 1.0)
    out = convolve_reference(Raster(data), s, Boundary.ZERO)
    assert np.array_equal(out.data[1:6, 1:6], s.coeffs)
    border = out.data.copy()
    border[1:6, 1:6] = 0.0
    assert np.all(border == 0.0)


@pytest.mark.parametrize("policy", [Boundary.MIRROR, Boundary.REPLICATE, Boundary.WRAP])
def test_constant_field_zero_response(policy):
    s = biharmonic_stencil(1.0, 1.0)
    out = convolve_reference(Raster.constant(9, 8, 123.0), s, policy)
    assert np.all(out.data == 0.0)


def test_bilinear_ramp_interior_zero():
    jj, ii = np.mgrid[0:9, 0:9]
    r = Raster(ii + 2.0 * jj)
    out = convolve_reference(r, biharmonic_stencil(1.0, 1.0), Boundary.MIRROR)
    assert np.all(np.abs(out.data[2:-2, 2:-2]) < 1e-12)


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_matches_pure_python_oracle(policy, rng):
    for s in (biharmonic_stencil(1.0, 1.0), biharmonic_stencil(0.5, 2.0), laplacian_baseline()):
        data = rng.normal(50, 20, (8, 11))
        out = convolve_reference(Raster(data), s, policy)
        oracle = quad_loop_convolve(data, np.asarray(s.coeffs), s.radius, policy)
        assert np.array_equal(out.data, oracle)


@pytest.mark.parametrize("tile_height", [1, 7, 64])
@pytest.mark.parametrize("workers", [1, 4])
def test_tiled_bit_identical(tile_height, workers, rng):
    data = rng.normal(0, 1, (64, 64))
    s = biharmonic_stencil(1.0, 1.0)
    for policy in ALL_POLICIES:
        ref = convolve_reference(Raster(data), s, policy)
        out = convolve(Raster(data), s, policy, tile_height, workers)
        assert np.array_equal(out.data, ref.data)


def test_minimum_legal_mirror_size(rng):
    data = rng.normal(0, 1, (5, 5))
    s = biharmonic_stencil(1.0, 1.0)
    ref = convolve_reference(Raster(data), s, Boundary.MIRROR)
    out = convolve(Raster(data), s, Boundary.MIRROR, tile_height=2, workers=2)
    assert np.array_equal(out.data, ref.data)


def test_mirror_too_small_rejected(rng):
    data = rng.normal(0, 1, (4, 4))
    s = biharmonic_stencil(1.0, 1.0)
    with pytest.raises(ValueError, match="mirror"):
        convolve_reference(Raster(data), s, Boundary.MIRROR)
    with pytest.raises(ValueError, match="mirror"):
        convolve(Raster(data), s, Boundary.MIRROR)
    # other policies accept small rasters
    convolve(Raster(data), s, Boundary.ZERO)


def test_bad_tile_height(rng):
    with pytest.raises(ValueError, match="tile_height"):
        convolve(Raster.constant(8, 8), biharmonic_stencil(1, 1), Boundary.ZERO, tile_height=0)


def test_linearity_within_4_ulp(rng):
    s = biharmonic_stencil(1.0, 1.0)
    r1 = rng.normal(0, 1, (16, 16))
    r2 = rng.normal(0, 1, (16, 16))
    a, b = 2.5, -1.25
    c1 = convolve(Raster(r1), s, Boundary.WRAP).data
    c2 = convolve(Raster(r2), s, Boundary.WRAP).data
    lhs = convolve(Raster(a * r1 + b * r2), s, Boundary.WRAP).data
    rhs = a * c1 + b * c2
    # rounding floor set by the summed absolute tap contributions, which
    # cancellation can leave far larger than the result itself
    abs_stencil = Stencil(radius=s.radius, coeffs=np.abs(s.coeffs))
    scale = (
        abs(a) * convolve(Raster(np.abs(r1)), abs_stencil, Boundary.WRAP).data
        + abs(b) * convolve(Raster(np.abs(r2)), abs_stencil, Boundary.WRAP).data
    )
    assert_ulp_close(lhs, rhs, 4, scale=scale)


@pytest.mark.parametrize("policy", [Boundary.MIRROR, Boundary.ZERO, Boundary.WRAP])
def test_horizontal_mirror_symmetry(policy, rng):
    # integer-valued samples keep every partial sum exact
    data = rng.integers(0, 200, (12, 15)).astype(float)
    s = biharmonic_stencil(1.0, 1.0)
    direct = convolve(Raster(data[:, ::-1]), s, policy).data
    mirrored = convolve(Raster(data), s, policy).data[:, ::-1]
    assert np.array_equal(direct, mirrored)


def test_interior_independent_of_policy(rng):
    data = rng.normal(0, 1, (12, 12))
    s = biharmonic_stencil(1.0, 1.0)
    outputs = [convolve(Raster(data), s, p).data[2:-2, 2:-2] for p in ALL_POLICIES]
    for other in outputs[1:]:
        assert np.array_equal(outputs[0], other)


def test_randomized_identity_sweep(rng):
    # mixed sizes, stencils, policies, tilings: tiled == reference, bitwise
    for _ in range(40):
        h = int(rng.integers(5, 40))
        w = int(rng.integers(5, 40))
        data = rng.normal(0, 50, (h, w))
        if rng.random() < 0.5:
            s = biharmonic_stencil(float(rng.uniform(0.25, 8)), float(rng.uniform(0.25, 8)))
        else:
            s = laplacian_baseline()
        policy = ALL_POLICIES[int(rng.integers(len(ALL_POLICIES)))]
        tile = int(rng.integers(1, h + 4))
        workers = int(rng.choice([1, 2, 4]))
        ref = convolve_reference(Raster(data), s, policy)
        out = convolve(Raster(data), s, policy, tile, workers)
        assert np.array_equal(out.data, ref.data)
