import importlib
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from biharm import _kernels
from biharm.convolve import Boundary, _shares, convolve, convolve_reference, default_workers
from biharm.pipeline import ClassModel, classify_parallelepiped, smooth_jacobi
from biharm.raster import BandSet, Raster
from biharm.scene import gaussian
from biharm.stencil import Stencil, biharmonic_stencil, laplacian_baseline

from conftest import assert_ulp_close, quad_loop_convolve, set_default_workers

ALL_POLICIES = list(Boundary)
# the module, which the package's ``convolve`` function shadows as an attribute
convolve_module = importlib.import_module("biharm.convolve")


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
    out = convolve_reference(Raster(np.full((8, 9), 123.0)), s, policy)
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
        assert out.data.tobytes() == oracle.tobytes()


# 64, 10 and 1 tiles: 3 and 5 workers divide neither 64 nor 10 tiles
@pytest.mark.parametrize("tile_height", [1, 7, 64])
@pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
def test_tiled_bit_identical(tile_height, workers, rng):
    data = rng.normal(0, 1, (64, 64))
    s = biharmonic_stencil(1.0, 1.0)
    for policy in ALL_POLICIES:
        ref = convolve_reference(Raster(data), s, policy)
        out = convolve(Raster(data), s, policy, tile_height, workers)
        assert out.data.tobytes() == ref.data.tobytes()


def _spy_thread_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def test_one_worker_starts_no_thread(monkeypatch, rng):
    r = Raster(rng.normal(0, 1, (40, 12)))
    s = biharmonic_stencil(1.0, 1.0)
    want = convolve_reference(r, s).data.tobytes()
    started = _spy_thread_starts(monkeypatch)
    assert convolve(r, s, Boundary.MIRROR, 4, 1).data.tobytes() == want
    # pinned to one CPU, the default is one worker: the calling thread runs
    # every tile
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert convolve(r, s, Boundary.MIRROR, 4).data.tobytes() == want
    assert started == []
    convolve(r, s, Boundary.MIRROR, 4, 2)
    assert len(started) == 1  # the spy sees the one helper of two workers


# gaussian deals its blocks to the default workers; classify runs its strips
# on the calling thread, so it starts no thread on two workers either
@pytest.mark.parametrize("call,threads_on_two", [
    (lambda: gaussian(5, 3 * 2**16), 1),  # 3 blocks of pairs
    (lambda: classify_parallelepiped(  # 3 strips of 32 rows
        BandSet([Raster(np.full((70, 5), 1.0))]),
        ClassModel(band_count=1, intervals={1: np.array([[0.0, 2.0]])})).data, 0),
], ids=["gaussian", "classify"])
def test_one_worker_starts_no_thread_in_noise_or_classify(monkeypatch, call, threads_on_two):
    started = _spy_thread_starts(monkeypatch)
    set_default_workers(monkeypatch, 1)
    want = call()
    assert started == []
    set_default_workers(monkeypatch, 2)
    assert call().tobytes() == want.tobytes()
    assert len(started) == threads_on_two


class TileError(Exception):
    pass


def _raising_tiles(monkeypatch, raising, raising_pass=1):
    """Make the tiles that start at a row in ``raising`` raise TileError
    naming that row, in pass ``raising_pass`` of the tap loop (each pass is
    one ``_shares`` call); returns the list of that pass's tiles that ran to
    completion."""
    done = []
    passes = [0]
    shares = convolve_module._shares

    def counted_shares(items, run, workers=None):
        passes[0] += 1  # before any tile of the pass runs
        shares(items, run, workers)

    def conv_rows(padded, taps, radius, out, row0, row1, scaled_center=None):
        if passes[0] == raising_pass and row0 in raising:
            raise TileError(f"tile at row {row0} in pass {passes[0]}")
        _kernels.conv_rows(padded, taps, radius, out, row0, row1, scaled_center)
        if passes[0] == raising_pass:
            done.append(row0)

    monkeypatch.setattr(convolve_module, "_shares", counted_shares)
    monkeypatch.setattr(convolve_module, "conv_rows", conv_rows)
    return done


@pytest.mark.parametrize("raising,message", [
    ({0}, "tile at row 0"),  # the first tile of the calling thread's share
    ({4}, "tile at row 4"),  # the first tile of the helper's share
    ({0, 4}, "tile at row 0"),  # both: the calling thread's exception wins
])
def test_a_raising_tile_raises_once_every_share_is_done(monkeypatch, rng, raising, message):
    r = Raster(rng.normal(0, 1, (40, 12)))  # 10 tiles of 4 rows, 5 per share
    threads = threading.active_count()
    done = _raising_tiles(monkeypatch, raising)
    with pytest.raises(TileError, match=message):
        convolve(r, biharmonic_stencil(1.0, 1.0), Boundary.MIRROR, 4, 2)
    assert threading.active_count() == threads  # the helper was joined
    # the share that did not raise ran to its end before the call returned
    if 4 not in raising:
        assert sorted(done) == [4, 12, 20, 28, 36]
    if 0 not in raising:
        assert sorted(done) == [0, 8, 16, 24, 32]


@pytest.mark.parametrize("raising,message", [
    ({0}, "tile at row 0 in pass 2"),  # the calling thread's share
    ({4}, "tile at row 4 in pass 2"),  # the helper's share
])
def test_a_tile_raising_in_a_later_pass_raises_once_its_pass_is_done(
        monkeypatch, rng, raising, message):
    # each pass deals its tiles afresh: the second of three passes raises,
    # after the first ran on two workers, and the third never starts
    r = Raster(rng.normal(0, 1, (40, 12)))  # 10 tiles of 4 rows, 5 per share
    threads = threading.active_count()
    done = _raising_tiles(monkeypatch, raising, raising_pass=2)
    with pytest.raises(TileError, match=message):
        smooth_jacobi(r, biharmonic_stencil(1.0, 1.0), 3, Boundary.MIRROR, 4, 2,
                      omega=0.1)
    assert threading.active_count() == threads  # every pass's helper was joined
    # the share of the second pass that did not raise ran to its end
    assert sorted(done) == ([4, 12, 20, 28, 36] if 0 in raising else [0, 8, 16, 24, 32])


@pytest.mark.parametrize("raising,message", [
    ({0}, "item 0"),  # the calling thread's share
    ({2}, "item 2"),  # a pool thread's share
    ({1, 2}, "item 1"),  # two pool threads: the lowest share wins
    ({0, 1, 2}, "item 0"),  # every share: the calling thread's exception wins
])
def test_shares_raise_once_every_share_is_done(raising, message):
    done = []

    def run(share):
        for item in share:
            if item in raising:
                raise TileError(f"item {item}")
            time.sleep(0.005)  # a share not waited for would still be running
            done.append(item)

    threads = threading.active_count()
    with pytest.raises(TileError, match=message):
        _shares(range(12), run, 3)  # shares 0::3, 1::3 and 2::3
    # every share that did not raise ran to its end before the call raised
    assert sorted(done) == [i for i in range(12) if i % 3 not in raising]
    assert threading.active_count() == threads  # the pool threads were joined


def test_minimum_legal_mirror_size(rng):
    data = rng.normal(0, 1, (5, 5))
    s = biharmonic_stencil(1.0, 1.0)
    ref = convolve_reference(Raster(data), s, Boundary.MIRROR)
    out = convolve(Raster(data), s, Boundary.MIRROR, tile_height=2, workers=2)
    assert out.data.tobytes() == ref.data.tobytes()


def test_mirror_too_small_rejected(rng):
    data = rng.normal(0, 1, (4, 4))
    s = biharmonic_stencil(1.0, 1.0)
    with pytest.raises(ValueError, match="mirror"):
        convolve_reference(Raster(data), s, Boundary.MIRROR)
    with pytest.raises(ValueError, match="mirror"):
        convolve(Raster(data), s, Boundary.MIRROR)
    # plain sweeps would warn that they diverge: the size is checked first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            smooth_jacobi(Raster(np.zeros((3, 3))), s, 3, Boundary.MIRROR)
    assert str(info.value) == "mirror boundary needs dimensions > 4, got 3x3"
    # other policies accept small rasters
    convolve(Raster(data), s, Boundary.ZERO)


def _engines_warning_as_error():
    """``convolve`` and 3 plain sweeps of ``smooth_jacobi``, which would warn
    that they diverge, with every warning raised as an error."""
    def sweeps(r, s, b, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return smooth_jacobi(r, s, 3, b, **kwargs)
    return convolve, sweeps


def test_bad_tile_height(rng):
    r, s = Raster(np.zeros((8, 8))), biharmonic_stencil(1, 1)
    for engine in _engines_warning_as_error():
        with pytest.raises(ValueError) as info:
            engine(r, s, Boundary.ZERO, tile_height=0)
        assert str(info.value) == "tile_height must be positive, got 0"
        for tile_height in (1.5, True):
            with pytest.raises(ValueError) as info:
                engine(r, s, Boundary.ZERO, tile_height=tile_height)
            assert str(info.value) == f"tile_height must be an integer, got {tile_height!r}"
    with pytest.raises(ValueError) as info:
        Boundary.parse("bogus")
    assert str(info.value) == "unknown boundary policy 'bogus'"
    # an engine takes a Boundary, never its name
    for engine in (convolve_reference, *_engines_warning_as_error()):
        with pytest.raises(ValueError) as info:
            engine(r, s, "mirror")
        assert str(info.value) == (
            "boundary must be a Boundary, got 'mirror'; use Boundary.parse for a name")
    r = Raster(rng.normal(0, 1, (8, 8)))
    out = convolve(r, s, Boundary.ZERO, tile_height=np.int64(3), workers=np.int64(2))
    assert out.data.tobytes() == convolve(r, s, Boundary.ZERO).data.tobytes()


@pytest.mark.parametrize("workers", [0, -2, True, 1.5])
def test_bad_workers(workers):
    # a bool or a float is no worker count
    message = "positive" if type(workers) is int else "an integer"
    for engine in _engines_warning_as_error():
        with pytest.raises(ValueError, match=f"^workers must be {message}, got {workers}$"):
            engine(Raster(np.zeros((8, 8))), biharmonic_stencil(1, 1), Boundary.ZERO,
                   workers=workers)


def test_bad_workers_rejected_before_any_buffer():
    r, s = Raster(np.zeros((512, 512))), biharmonic_stencil(1, 1)  # 2 MiB of samples
    for engine in (convolve, smooth_jacobi):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^workers must be positive, got 0$"):
                engine(r, s, workers=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < r.data.nbytes, engine


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
    abs_stencil = Stencil(np.abs(s.coeffs))
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
        assert out.data.tobytes() == ref.data.tobytes()


def _signed_zero_inputs(rng, h, w):
    # exact +0.0 and -0.0 samples, where a skipped zero tap could flip the
    # sign of an exact-zero sum, and a constant raster, whose sums cancel
    data = rng.normal(0, 3, (h, w))
    data[rng.random((h, w)) < 0.3] = 0.0
    data[rng.random((h, w)) < 0.3] = -0.0
    yield data
    yield np.where(data == 0.0, -0.0, 0.0)
    # the biharmonic taps are positive at even and negative at odd p + q, so
    # on this checkerboard every product at half the pixels is -0.0
    jj, ii = np.mgrid[0:h, 0:w]
    yield np.where((ii + jj) % 2 == 0, -0.0, 0.0)
    yield np.full((h, w), 7.25)


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("stencil", [biharmonic_stencil(1, 1), biharmonic_stencil(0.5, 2),
                                     laplacian_baseline()], ids=["bh11", "bh05_2", "laplacian"])
def test_zero_taps_skipped_bytes_equal_reference(policy, stencil, rng):
    # array_equal cannot see the sign of zero; the bytes can
    for data in _signed_zero_inputs(rng, 13, 11):
        ref = convolve_reference(Raster(data), stencil, policy).data.tobytes()
        for tile_height, workers in ((64, 1), (3, 2)):
            out = convolve(Raster(data), stencil, policy, tile_height, workers)
            assert out.data.tobytes() == ref


@pytest.mark.parametrize("shape,policy", [
    ((7, 5), Boundary.MIRROR),
    ((6, 1), Boundary.ZERO),
    ((6, 1), Boundary.WRAP),
    ((6, 1), Boundary.REPLICATE),
])
def test_runs_across_row_ends_at_the_smallest_widths(shape, policy, rng):
    # a tile of n rows reads each tap as one run of the flattened padded
    # input that crosses n - 1 row ends, whose halo lanes are dropped; 5 is
    # the narrowest MIRROR raster and 1 the narrowest of the others
    h = shape[0]
    for data in _signed_zero_inputs(rng, *shape):
        for s in (biharmonic_stencil(1, 1), biharmonic_stencil(0.5, 2), laplacian_baseline()):
            ref = convolve_reference(Raster(data), s, policy).data.tobytes()
            for tile_height in (1, 2, h):
                for workers in (1, 2):
                    out = convolve(Raster(data), s, policy, tile_height, workers)
                    assert out.data.tobytes() == ref, (tile_height, workers)


def test_all_zero_stencil_gives_positive_zeros():
    data = np.full((6, 7), -0.0)
    s = Stencil(np.zeros((3, 3)))
    ref = convolve_reference(Raster(data), s, Boundary.ZERO).data.tobytes()
    assert convolve(Raster(data), s, Boundary.ZERO, 4, 2).data.tobytes() == ref


def _huge_edge_columns(trials):
    # WRAP-sized 9x9 rasters whose two edge column pairs each hold one sign
    # at 4e306-8e306: trials 74, 129 and 156 overflow only in lanes that
    # fall on halo columns, which the tap loop computes and then drops
    rng = np.random.default_rng(0)
    for _ in range(trials):
        data = rng.uniform(-1, 1, (9, 9))
        for cols in (slice(0, 2), slice(7, 9)):
            data[:, cols] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1, (9, 2)) * 8e306
        yield data


def test_dropped_halo_lanes_raise_no_warning():
    s = biharmonic_stencil(1, 1)
    checked = 0
    for data in _huge_edge_columns(160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ref = convolve_reference(Raster(data), s, Boundary.WRAP)
            except (RuntimeWarning, ValueError):
                continue  # an output overflows: the reference warns too
            for tile_height, workers in ((32, 1), (3, 2)):
                out = convolve(Raster(data), s, Boundary.WRAP, tile_height, workers)
                assert out.data.tobytes() == ref.data.tobytes()
        checked += 1
    assert checked > 150


def test_default_workers_follow_the_cpu_affinity(monkeypatch):
    # a process pinned to one CPU (taskset, a cpuset) gets one tile thread,
    # however many CPUs the machine has
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert default_workers() == 4


def test_default_workers_without_affinity_use_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert default_workers() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1


@pytest.mark.parametrize("scaled_center", [None, 20.0])
@pytest.mark.parametrize("row0,row1", [(0, 4), (4, 8), (8, 11)])
def test_conv_rows_writes_only_its_rows_of_out(scaled_center, row0, row1, rng):
    # an intermediate Jacobi pass stores into the interior view of the other
    # padded buffer; ZERO's halo stays zero only because no lane of a tile,
    # dropped halo lanes included, lands outside out[row0:row1]
    s = biharmonic_stencil(1, 1)
    radius = s.radius
    k = 2 * radius + 1
    taps = [(float(s.coeffs[qi, pi]), qi, pi)
            for qi in range(k) for pi in range(k) if s.coeffs[qi, pi] != 0.0]
    data = rng.normal(0, 5, (11, 9))
    padded = np.pad(data, radius, mode="reflect")
    dest = np.full_like(padded, np.nan)
    out = dest[radius:-radius, radius:-radius]
    _kernels.conv_rows(padded, taps, radius, out, row0, row1, scaled_center)
    conv = convolve_reference(Raster(data), s, Boundary.MIRROR).data
    want = conv if scaled_center is None else data - conv / scaled_center
    assert out[row0:row1].tobytes() == want[row0:row1].tobytes()
    written = np.zeros(dest.shape, dtype=bool)
    written[radius + row0 : radius + row1, radius:-radius] = True
    assert np.isnan(dest[~written]).all()


NP_PAD_MODE = {Boundary.MIRROR: "reflect", Boundary.REPLICATE: "edge",
               Boundary.ZERO: "constant", Boundary.WRAP: "wrap"}


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("policy,shape", [
    *[(policy, shape) for policy in (Boundary.WRAP, Boundary.ZERO, Boundary.REPLICATE)
      for shape in [(1, 9), (2, 1), (6, 1), (7, 11)]],
    (Boundary.MIRROR, (5, 5)), (Boundary.MIRROR, (7, 11)),
])
def test_refresh_halo_writes_the_bytes_of_np_pad(policy, shape, radius, rng):
    # the sweep engine's one halo writer; 1x9, 2x1 and 6x1 are smaller than
    # the window on one axis, so WRAP and REPLICATE copy a row or a column
    # several times
    data = rng.normal(0, 5, shape)
    buf = np.zeros((shape[0] + 2 * radius, shape[1] + 2 * radius))
    buf[radius:-radius, radius:-radius] = data
    convolve_module._refresh_halo(buf, radius, policy)
    assert buf.tobytes() == np.pad(data, radius, mode=NP_PAD_MODE[policy]).tobytes()
