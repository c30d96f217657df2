import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biharm.scene import (
    _BLOCK,
    Disk,
    Rect,
    SceneSpec,
    gaussian,
    parse_scene_spec,
    synth_scene,
)

from conftest import set_default_workers


def test_degenerate_constant_scene():
    bands, truth = synth_scene(SceneSpec(width=8, height=6, level=100.0))
    assert np.all(bands[0].data == 100.0)
    assert np.all(truth.data == 0.0)


def test_rectangle_offsets_by_construction():
    spec = SceneSpec(
        width=20, height=20, level=100.0,
        anomalies=(Rect(4, 7, 5, 5, (50.0,)),),
    )
    bands, truth = synth_scene(spec)
    assert truth.data.sum() == 25
    assert np.all(bands[0].data[truth.data == 1] == 150.0)
    assert np.all(bands[0].data[truth.data == 0] == 100.0)


def test_determinism_bit_identical():
    spec = parse_scene_spec(
        "width = 30\nheight = 22\nbands = 2\nlevel = 50\nsigma = 3\nseed = 99\n"
        "anomaly = disk 10 10 3 20 10\n"
    )
    a_bands, a_truth = synth_scene(spec)
    b_bands, b_truth = synth_scene(spec)
    for a, b in zip(a_bands, b_bands):
        assert np.array_equal(a.data, b.data)
    assert np.array_equal(a_truth.data, b_truth.data)


def test_seed_changes_noise():
    base = SceneSpec(width=10, height=10, sigma=1.0, seed=1)
    other = SceneSpec(width=10, height=10, sigma=1.0, seed=2)
    assert not np.array_equal(synth_scene(base)[0][0].data, synth_scene(other)[0][0].data)


def test_bands_get_independent_noise():
    bands, _ = synth_scene(SceneSpec(width=12, height=12, band_count=2, sigma=1.0, seed=5))
    assert not np.array_equal(bands[0].data, bands[1].data)


def test_disk_area_within_perimeter_bound():
    for radius in (2.5, 4.0, 7.0):
        spec = SceneSpec(
            width=40, height=40,
            anomalies=(Disk(20.0, 20.0, radius, (1.0,)),),
        )
        _, truth = synth_scene(spec)
        area = truth.data.sum()
        analytic = np.pi * radius**2
        perimeter = 2 * np.pi * radius
        assert abs(area - analytic) <= perimeter + 1


def test_footprint_out_of_bounds():
    with pytest.raises(ValueError, match="out of bounds"):
        SceneSpec(width=10, height=10, anomalies=(Rect(8, 8, 5, 5, (1.0,)),))
    with pytest.raises(ValueError, match="out of bounds"):
        SceneSpec(width=10, height=10, anomalies=(Disk(1.0, 5.0, 3.0, (1.0,)),))


def test_amplitude_count_must_match_bands():
    with pytest.raises(ValueError, match="amplitudes"):
        SceneSpec(width=10, height=10, band_count=3,
                  anomalies=(Rect(1, 1, 2, 2, (1.0,)),))


def test_trend_is_linear():
    bands, _ = synth_scene(SceneSpec(width=4, height=3, level=10.0, trend=(1.0, 2.0)))
    expected = 10.0 + np.arange(4)[None, :] + 2.0 * np.arange(3)[:, None]
    assert np.array_equal(bands[0].data, expected)


def test_parse_errors():
    with pytest.raises(ValueError) as info:
        parse_scene_spec("level = 5\n")
    assert str(info.value) == "missing required keys: ['height', 'width']"
    with pytest.raises(ValueError, match="line 2"):
        parse_scene_spec("width = 4\nbogus line\nheight = 4\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_scene_spec("width = 4\nheight = 4\nnope = 1\n")
    with pytest.raises(ValueError, match="unknown anomaly shape"):
        parse_scene_spec("width = 4\nheight = 4\nanomaly = blob 1 2 3 4\n")
    # a repeated key would override the earlier one; only anomaly repeats
    with pytest.raises(ValueError) as info:
        parse_scene_spec("width = 4\nheight = 4\nseed = 1\nseed = 2\n")
    assert str(info.value) == "line 4: duplicate key 'seed'"


def test_gaussian_moments():
    z = gaussian(7, 200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


# SHA-256 of the float64 bytes of seed 12345's stream, recorded before the
# stream was made in blocks of _BLOCK = 2**15 pairs; the sizes sit just
# below, at and just past block edges
GAUSSIAN_DIGESTS = {
    1: "b3b84771a73d70d21b55d16bca52d705c8068b40b527345e0a5d52f6bff10162",
    2: "e80a6eb52fddffcd9597ff0f731d78244fcaba54eaaa1efe887e8f89102165cd",
    3: "df4405585e6ecbea561b57c730d6626d91e9be998ca2f1ba9ae8d9329c076511",
    65535: "e589049a8a8043758638172e33303f77629344aa130552ee5118c39f92510b55",
    65536: "d7818159ca0d18b978c12e5a438e76f25ac067248f68e6cb9866f1f4788819ce",
    65537: "a5bf6ea60a27818ba4df354cbe56793accc9d209e5f60132f3c47c9db073bc66",
    196613: "770041bc00385d87a1f7422bd6b3ad297e1b4efb23ae973874d7bce65d4e7389",
}


def test_gaussian_stream_bytes_pinned():
    assert _BLOCK == 2**15, "choose sizes around the new block edges"
    assert {n: hashlib.sha256(gaussian(12345, n).tobytes()).hexdigest()
            for n in GAUSSIAN_DIGESTS} == GAUSSIAN_DIGESTS


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_gaussian_bytes_do_not_depend_on_workers(monkeypatch, workers):
    set_default_workers(monkeypatch, workers)
    # 196613 deviates are 4 blocks of pairs, which 3 workers deal unevenly
    assert {n: hashlib.sha256(gaussian(12345, n).tobytes()).hexdigest()
            for n in GAUSSIAN_DIGESTS} == GAUSSIAN_DIGESTS
    assert gaussian(12345, 0).shape == (0,)  # no block, so no share


# SHA-256 of every band's and the truth's float64 bytes, recorded with the
# full-raster footprints; the bounding-box footprints must reproduce them
PINNED_SPEC = SceneSpec(
    width=37, height=29, band_count=3, level=100.0, sigma=2.5,
    trend=(0.013, -0.021), seed=20261018,
    anomalies=(
        Disk(3.5, 4.25, 3.5, (40.0, -12.5, 7.25)),  # cx - r == 0
        Disk(31.25, 21.75, 4.75, (15.0, 22.0, -3.0)),  # cx + r == width - 1
        Disk(18.4, 24.6, 3.4, (9.5, 0.0, 31.0)),  # cy + r == height - 1
        Rect(15, 10, 9, 16, (-20.0, 5.0, 12.0)),  # overlaps the third disk
    ),
)
PINNED_DIGESTS = [
    "9713fbe96fc8a33fa5188733a203351d04a8031c6376839b713013e653ac07bc",
    "43d4c7c9281990ad09b3c57ff8093ebfe307bdbe40dfdcd66261644196eab58e",
    "9a077209c06384a5a0869868e783a5498108b6458ac4e20e7c5d1606a0fdf4e4",
    "bd69391635c511d95c7dbce4b2a1d527b3d5e7b72e8197a262af2e3816c73ad2",  # truth
]


def test_synth_scene_bytes_pinned():
    bands, truth = synth_scene(PINNED_SPEC)
    rasters = [*bands, truth]
    assert [hashlib.sha256(r.data.tobytes()).hexdigest() for r in rasters] == PINNED_DIGESTS


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_synth_scene_bytes_do_not_depend_on_workers(monkeypatch, workers):
    set_default_workers(monkeypatch, workers)
    bands, truth = synth_scene(PINNED_SPEC)
    rasters = [*bands, truth]
    assert [hashlib.sha256(r.data.tobytes()).hexdigest() for r in rasters] == PINNED_DIGESTS


def test_synth_scene_memory_budget():
    # footprints live in their bounding boxes and each band is built in its
    # noise array: the bands, the truth and a few working rasters at most
    spec = SceneSpec(
        width=256, height=256, band_count=3, level=10.0, sigma=1.5,
        trend=(0.01, -0.02), seed=3,
        anomalies=(
            Disk(60.5, 70.25, 30.0, (1.0, 2.0, 3.0)),
            Disk(180.0, 60.0, 50.5, (4.0, 5.0, 6.0)),
            Disk(128.0, 200.0, 40.0, (7.0, 8.0, 9.0)),
            Rect(20, 150, 90, 80, (1.5, 2.5, 3.5)),
        ),
    )
    tracemalloc.start()
    try:
        synth_scene(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (spec.band_count + 4) * 256 * 256 * 8


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 24), st.integers(1, 24),
    st.floats(-4.0, 4.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
)
def test_disk_box_holds_the_whole_footprint(width, height, radius, fx, fy):
    # a centre anywhere the bounds check allows, for a radius of either sign:
    # the check, the box and the mask all use its magnitude; a draw that
    # rounds past the edge is rejected by the check and assumed away
    r = abs(radius)
    assume(2 * r <= min(width, height) - 1)
    cx = r + fx * (width - 1 - 2 * r)
    cy = r + fy * (height - 1 - 2 * r)
    disk = Disk(cx, cy, radius, (1.0,))
    try:
        spec = SceneSpec(width=width, height=height, anomalies=(disk,))
    except ValueError:  # rounded past the edge
        assume(False)
    _, truth = synth_scene(spec)
    yy, xx = np.mgrid[0:height, 0:width]
    full = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2
    assert np.array_equal(truth.data, full.astype(np.float64))


# a coordinate on the low edge of its axis (c - r == 0, or x0 == 0), on the
# high edge (c + r == size - 1, or x0 + w == size) or between the two, then
# moved one ulp down, not at all, or one ulp up (one pixel for a rectangle)
placements = st.tuples(st.sampled_from(["low", "high", "mid"]), st.floats(0.0, 1.0),
                       st.integers(-1, 1))


def _place(low, high, where, frac, step):
    at = {"low": low, "high": high, "mid": low + frac * (high - low)}[where]
    if isinstance(low, int):  # a rectangle's corner, moved a pixel a step
        return round(at) + step
    return at if step == 0 else math.nextafter(at, step * math.inf)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.floats(-6.0, 6.0), placements, placements)
def test_disk_bounds_at_the_raster_edges(width, height, radius, px, py):
    # the oracle is the bounds rule written on c -+ r; the box rule must
    # accept and reject exactly the same disks
    r = abs(radius)
    cx, cy = _place(r, width - 1 - r, *px), _place(r, height - 1 - r, *py)
    disk = Disk(cx, cy, radius, (1.0,))
    if cx - r < 0 or cx + r > width - 1 or cy - r < 0 or cy + r > height - 1:
        with pytest.raises(ValueError, match="^disk footprint out of bounds"):
            SceneSpec(width=width, height=height, anomalies=(disk,))
        return
    _, truth = synth_scene(SceneSpec(width=width, height=height, anomalies=(disk,)))
    yy, xx = np.mgrid[0:height, 0:width]
    full = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2
    assert np.array_equal(truth.data, full.astype(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 8), st.integers(1, 8),
       placements, placements)
def test_rect_bounds_at_the_raster_edges(width, height, w, h, px, py):
    x0, y0 = _place(0, width - w, *px), _place(0, height - h, *py)
    rect = Rect(x0, y0, w, h, (1.0,))
    if x0 < 0 or y0 < 0 or x0 + w > width or y0 + h > height:
        with pytest.raises(ValueError, match="^rectangle footprint out of bounds"):
            SceneSpec(width=width, height=height, anomalies=(rect,))
        return
    _, truth = synth_scene(SceneSpec(width=width, height=height, anomalies=(rect,)))
    full = np.zeros((height, width))
    full[y0 : y0 + h, x0 : x0 + w] = 1.0
    assert np.array_equal(truth.data, full)


def test_disk_whose_bound_overflows_is_out_of_bounds():
    # cx + r is inf, past the raster, though the centre and radius are finite
    for cx in (1e308, -1e308):
        with pytest.raises(ValueError, match="^disk footprint out of bounds"):
            SceneSpec(width=10, height=10, anomalies=(Disk(cx, 5.0, 1e308, (1.0,)),))


@pytest.mark.parametrize("geometry", [
    (1.5, 2, 3, 3), (2.0, 2, 3, 3), (1, 2.0, 3, 3), (1, 2, 3.0, 3), (1, 2, 3, 2.5),
    (True, 2, 3, 3), (1, 2, 3, True),
])
def test_rect_geometry_must_be_integers(geometry):
    # the footprint is a numpy slice, whose indices must be integers
    message = r"^rectangle x0, y0, width and height must be integers: Rect\("
    with pytest.raises(ValueError, match=message):
        SceneSpec(width=10, height=10, anomalies=(Rect(*geometry, (1.0,)),))


def test_rect_of_numpy_integers_draws_the_same_scene():
    def scene(x0):
        spec = SceneSpec(width=10, height=8, sigma=1.0, seed=6,
                         anomalies=(Rect(x0, np.int32(2), 3, np.int64(4), (5.0,)),))
        bands, truth = synth_scene(spec)
        return bands[0].data.tobytes(), truth.data.tobytes()

    assert scene(np.int64(1)) == scene(1)


@pytest.mark.parametrize("sizes", [
    {"width": 10.0, "height": 8}, {"width": 10, "height": 8.0},
    {"width": 10, "height": 8, "band_count": 2.0},
    {"width": True, "height": 8}, {"width": 10, "height": 8, "band_count": True},
])
def test_spec_sizes_must_be_integers(sizes):
    # synth_scene builds arrays of these sizes, whose dimensions are integers
    message = r"^scene width, height and band count must be integers, got \("
    with pytest.raises(ValueError, match=message):
        SceneSpec(**sizes)


def test_spec_of_numpy_integer_sizes_draws_the_same_scene():
    def scene(width, height, band_count, seed):
        spec = SceneSpec(width=width, height=height, band_count=band_count, sigma=1.0,
                         seed=seed, anomalies=(Disk(5.0, 4.0, 2.0, (5.0, 3.0)),))
        bands, truth = synth_scene(spec)
        return [band.data.tobytes() for band in bands], truth.data.tobytes()

    assert scene(np.int64(10), np.int32(8), np.int64(2), np.int64(6)) == scene(10, 8, 2, 6)


@pytest.mark.parametrize("field", ["cx", "cy", "radius"])
def test_disk_rejects_nan_geometry(field):
    geometry = {"cx": 5.0, "cy": 5.0, "radius": 2.0, field: float("nan")}
    with pytest.raises(ValueError, match="finite"):
        SceneSpec(width=10, height=10, anomalies=(Disk(**geometry, amplitudes=(1.0,)),))


@pytest.mark.parametrize("cx,cy,radius", [
    (0.0, 0.0, -2.0),  # would draw the quarter of a disk that the raster clips
    (2.0, 5.0, -2.5),
    (7.5, 5.0, -2.0),
    (5.0, 1.0, -1.5),
    (5.0, 8.5, -1.0),
])
def test_negative_radius_past_the_edge_out_of_bounds(cx, cy, radius):
    with pytest.raises(ValueError, match="out of bounds"):
        SceneSpec(width=10, height=10, anomalies=(Disk(cx, cy, radius, (1.0,)),))
    with pytest.raises(ValueError, match="out of bounds"):  # as the magnitude does
        SceneSpec(width=10, height=10, anomalies=(Disk(cx, cy, -radius, (1.0,)),))


@pytest.mark.parametrize("radius", [-2.0, -3.25, -4.5])
def test_negative_radius_inside_draws_the_disk_of_its_magnitude(radius):
    def scene(r):
        spec = SceneSpec(width=20, height=16, sigma=1.0, seed=4,
                         anomalies=(Disk(9.5, 7.25, r, (5.0,)),))
        bands, truth = synth_scene(spec)
        return bands[0].data.tobytes(), truth.data.tobytes()

    assert scene(radius) == scene(-radius)


# a NaN fails every comparison, so a check written as `sigma < 0` lets it by
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,value,message", [
    ("level", INF, "level must be finite"),
    ("level", -INF, "level must be finite"),
    ("level", NAN, "level must be finite"),
    ("sigma", NAN, "sigma must be finite and non-negative"),
    ("sigma", INF, "sigma must be finite and non-negative"),
    ("sigma", -1.0, "sigma must be finite and non-negative"),
    ("trend", (NAN, 0.0), "trend slopes must be finite"),
    ("trend", (0.0, -INF), "trend slopes must be finite"),
    ("trend", (0.1,), "trend needs 2 slopes"),
    ("trend", (0.1, 0.2, 0.3), "trend needs 2 slopes"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", -1, "seed must be in"),
    ("seed", 2**64, "seed must be in"),
    ("width", 0, "^scene dimensions must be positive$"),
    ("seed", True, "seed must be an integer"),
])
def test_spec_numbers_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        SceneSpec(**{"width": 16, "height": 16, "level": 5.0, field: value})


@pytest.mark.parametrize("amplitude", [NAN, INF, -INF])
def test_anomaly_amplitudes_must_be_finite(amplitude):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        SceneSpec(width=16, height=16, anomalies=(Rect(2, 2, 3, 3, (amplitude,)),))


def test_seed_range_ends_are_distinct_scenes():
    def noise(seed):
        return synth_scene(SceneSpec(width=8, height=8, sigma=1.0, seed=seed))[0][0].data

    assert not np.array_equal(noise(0), noise(2**64 - 1))
