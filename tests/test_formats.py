import copy
import pickle
import struct
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biharm.formats import (
    _TOKEN,
    FormatError,
    _p2_fast,
    _p2_tokens,
    _save_mask,
    load_bandset,
    load_pgm,
    save_bandset,
    save_pgm,
)
from biharm.raster import BandSet, Raster


def test_p2_basic(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 255 128 64\n")
    r = load_pgm(path)
    assert r.shape == (2, 2)
    assert list(r.data.ravel()) == [0, 255, 128, 64]


def test_p2_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2 # comment\n# another\n2 2\n255\n0 255\n128 64")
    assert list(load_pgm(path).data.ravel()) == [0, 255, 128, 64]


PGM_FILES = {
    "p2-comment": b"P2 # comment\n# another\n2 2\n255\n0 255\n128 64",
    "p5-8bit": b"P5\n3 2\n255\n" + bytes([0, 1, 2, 253, 254, 255]),
    "p5-16bit": b"P5\n2 2\n65535\n" + struct.pack(">4H", 0, 1, 300, 65535),
    "p2-shorter-than-bfr1-header": b"P2\n1 1\n255\n7\n",
}


@pytest.mark.parametrize("data", PGM_FILES.values(), ids=PGM_FILES)
def test_load_bandset_reads_a_pgm_as_one_band(tmp_path, data):
    path = tmp_path / "a.pgm"
    path.write_bytes(data)
    want = load_pgm(path).data.tobytes()
    for bands in (load_bandset(path), load_bandset(path, 0)):
        assert bands.band_names == ("band1",) and len(bands) == 1
        assert bands[0].data.tobytes() == want
    with pytest.raises(IndexError) as info:
        load_bandset(path, 1)
    assert str(info.value) == "band 1 is out of range for 1 band(s)"


def test_p5_basic(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0x00, 0xFF, 0x80, 0x40]))
    assert list(load_pgm(path).data.ravel()) == [0, 255, 128, 64]


def test_p5_16bit_big_endian(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n" + struct.pack(">HH", 1, 40000))
    assert list(load_pgm(path).data.ravel()) == [1, 40000]


def test_p5_truncated(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(FormatError, match="truncated"):
        load_pgm(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError, match="byte 0"):
        load_pgm(path)


@pytest.mark.parametrize("maxval", [0, 65536, 100000])
def test_unsupported_maxval(tmp_path, maxval):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n1 1\n%d\n0\n" % maxval)
    with pytest.raises(FormatError, match="unsupported maxval"):
        load_pgm(path)


def test_bad_header_token(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\nxx 2\n255\n0 0\n")
    with pytest.raises(FormatError, match="byte"):
        load_pgm(path)


HUGE_P2 = b"P2\n2 1\n255\n5 1" + b"0" * 400
P2_CASES = {
    "truncated": (b"P2\n2 2\n255\n1 2 3\n",
                  "parse error: truncated samples at byte 17 (need 4, have 3)"),
    "bad-token": (b"P2\n2 2\n255\n1 x 3 4\n",
                  "parse error: bad sample b'x' at byte 12"),
    "bad-token-before-short-end": (b"P2\n2 2\n255\n1 x\n",
                                   "parse error: bad sample b'x' at byte 12"),
    "hash-ends-token": (b"P2\n2 1\n255\n12#c\n7\n", [12, 7]),
    "comments-between-samples": (b"P2\n2 2\n255\n1 # one\n2\n# three\n3 4", [1, 2, 3, 4]),
    "cr-only-line-ends": (b"P2\r2 2\r255\r# c\r1 2\r3 4\r", [1, 2, 3, 4]),
    "vt-ff-whitespace": (b"P2\x0b2\x0c2\x0b255\x0c1\x0b2\x0c3\x0b4", [1, 2, 3, 4]),
    "int-syntax": (b"P2\n2 1\n255\n+5 1_0\n", [5, 10]),
    "extra-tokens-ignored": (b"P2\n2 1\n255\n1 2 3 junk\n", [1, 2]),
    "comment-words-not-samples": (b"P2\n2 2\n255\n1 2 3 # 4 5\n",
                                  "parse error: truncated samples at byte 23 (need 4, have 3)"),
    "above-maxval": (b"P2\n2 1\n100\n5 101\n", "parse error: sample 101 exceeds maxval 100"),
    "negative": (b"P2\n2 1\n255\n5 -1\n", "parse error: negative sample"),
    # numpy's text reader, which reads digits-only bodies, reads a
    # whitespace-only body as [0] and saturates a token of 19 or more
    # significant digits to 2**63 - 1; neither may show
    "whitespace-only-samples": (b"P2\n2 2\n255\n \t\r\n\x0b\x0c ",
                                "parse error: truncated samples at byte 18 (need 4, have 0)"),
    "int64-overflow-token": (b"P2\n2 1\n255\n9223372036854775808 1\n",
                             "parse error: sample 9223372036854775808 exceeds maxval 255"),
    "long-leading-zero-token": (b"P2\n2 1\n255\n0000000000000000000000007 3\n", [7, 3]),
    "digits-only-above-maxval": (b"P2\n3 1\n255\n5 300 7\n",
                                 "parse error: sample 300 exceeds maxval 255"),
    "digits-only-one-short": (b"P2\n2 2\n255\n1\t2\x0b3\x0c",
                              "parse error: truncated samples at byte 17 (need 4, have 3)"),
    # 10**400 does not fit a float64: rejected as out of range, not an OverflowError
    "huge-sample": (HUGE_P2, "parse error: sample outside [0, 255]"),
    # the header and its checks are P2's and P5's alike
    "header-ends-early": (b"P2\n2 2\n", "parse error: unexpected end of header at byte 7"),
    "zero-width": (b"P5\n0 2\n255\n", "parse error: non-positive dimensions 0x2"),
    "p5-no-separator": (b"P5\n1 1\n255", "parse error: missing payload separator at byte 10"),
}


@pytest.mark.parametrize("data,expected", P2_CASES.values(), ids=P2_CASES.keys())
def test_p2_behaviour_table(tmp_path, data, expected):
    path = tmp_path / "a.pgm"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(FormatError) as info:
            load_pgm(path)
        assert str(info.value) == expected
    else:
        assert load_pgm(path).data.ravel().tolist() == expected


def test_save_pgm_clamp_and_round(tmp_path):
    path = tmp_path / "a.pgm"
    save_pgm(Raster([[-3.2, 127.5], [254.6, 300.0]]), path, 255)
    assert list(load_pgm(path).data.ravel()) == [0, 128, 255, 255]


def test_save_pgm_rejects_other_maxval(tmp_path):
    # a float equal to 255 or 65535 is not an integer either
    for maxval in (1000, 255.0, np.float64(65535)):
        with pytest.raises(ValueError) as info:
            save_pgm(Raster([[1.0]]), tmp_path / "a.pgm", maxval)
        assert str(info.value) == f"maxval must be 255 or 65535, got {maxval}"


def test_pgm_roundtrip_equals_clamp_round(tmp_path, rng):
    for maxval in (255, 65535):
        data = rng.uniform(-50, maxval + 50, (9, 13))
        # the clip edges, a negative zero and exact halves, which round up
        data[0, :8] = [maxval - 0.5, maxval, -0.0, 0.5, 2.5, 127.5, maxval - 1.5, -0.5]
        r = Raster(data)
        path = tmp_path / "r.pgm"
        save_pgm(r, path, maxval)
        back = load_pgm(path)
        expected = np.floor(np.clip(data, 0, maxval) + 0.5)
        expected = np.minimum(expected, maxval)
        assert np.array_equal(back.data, expected)


@pytest.mark.parametrize("maxval", [255, 65535])
@pytest.mark.parametrize("height", [1, 31, 32, 33, 65])
def test_save_pgm_bytes_equal_whole_array_quantization(tmp_path, rng, height, maxval):
    # the last strip ends inside, on or just past a strip boundary; every
    # byte is the one a single clip, +0.5, floor and cast of the whole array gives
    data = rng.uniform(-50, maxval + 50, (height, 11))
    # the clip edges, a negative zero and exact halves, which round up
    data[::16, :8] = [maxval - 0.5, maxval, -0.0, 0.5, 2.5, 127.5, maxval - 1.5, -0.5]
    data[-1, 8:] = [maxval + 0.5, -1e300, 1e300]
    path = tmp_path / "r.pgm"
    save_pgm(Raster(data), path, maxval)
    payload = np.floor(np.clip(data, 0, maxval) + 0.5).astype(">u2" if maxval > 255 else "u1")
    assert path.read_bytes() == b"P5\n11 %d\n%d\n" % (height, maxval) + payload.tobytes()


@pytest.mark.parametrize("name", ["random", "all-false", "all-true", "1x1"])
def test_save_mask_bytes_equal_save_pgm_of_scaled_mask(tmp_path, rng, name):
    mask = {
        "random": rng.random((37, 53)) < 0.3,
        "all-false": np.zeros((8, 5), dtype=bool),
        "all-true": np.ones((5, 8), dtype=bool),
        "1x1": np.ones((1, 1), dtype=bool),
    }[name]
    _save_mask(mask, tmp_path / "mask.pgm")
    save_pgm(Raster._from_array(mask * 255.0), tmp_path / "ref.pgm", 255)
    assert (tmp_path / "mask.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()


P2_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


@st.composite
def p2_files(draw):
    """(file, samples offset, sample count) of a P2 file whose samples are
    separated by any mix of the six whitespace bytes and #-comments, with
    CR-only line ends and comments that cut into a token; some files run
    short, run long or carry one bad token."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    count = width * height
    tokens = draw(st.lists(
        st.one_of(st.integers(0, 255).map(b"%d".__mod__),
                  st.sampled_from([b"+7", b"1_0", b"007"])),
        min_size=max(0, count - 1), max_size=count + 2))
    bad = draw(st.sampled_from([None, None, None, b"x", b"-3", b"256", b"1e3"]))
    if bad is not None:
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    body = []
    for token in tokens:
        if draw(st.booleans()):  # a comment that ends the token
            comment = draw(st.binary(max_size=6)).replace(b"\n", b"").replace(b"\r", b"")
            token += b"#" + comment + draw(st.sampled_from([b"\n", b"\r", b"\r\n"]))
        sep = draw(st.lists(st.sampled_from(P2_WHITESPACE), min_size=1, max_size=3))
        body.append(token + b"".join(sep))
    header = b"P2\r%d %d\r255\r" % (width, height)
    return header + b"".join(body), len(header), count


def _findall_reference(data: bytes, pos: int, count: int):
    """The samples as a _TOKEN.findall scan reads them, or None for a file
    that must raise."""
    try:
        samples = [int(t) for t in _TOKEN.findall(data, pos)[:count]]
    except ValueError:  # a bad token, or the empty one that ends a short file
        return None
    return samples if all(0 <= v <= 255 for v in samples) else None


@settings(max_examples=300, deadline=None)
@given(p2_files())
def test_p2_samples_equal_findall_reference(tmp_path_factory, file):
    data, pos, count = file
    path = tmp_path_factory.getbasetemp() / "p2.pgm"
    path.write_bytes(data)
    expected = _findall_reference(data, pos, count)
    if expected is None:
        with pytest.raises(FormatError):
            load_pgm(path)
    else:
        assert load_pgm(path).data.ravel().tolist() == expected


@st.composite
def p2_digit_files(draw):
    """(file, samples offset, sample count, maxval) of a P2 file whose
    samples are digits only, some with many leading zeros or too many digits
    for an int64, separated by any mix of the six whitespace bytes and
    #-comments that may hold digits; some files run short or long."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    count = width * height
    maxval = draw(st.sampled_from([1, 255, 65535]))
    tokens = draw(st.lists(
        st.one_of(st.integers(0, 70000).map(b"%d".__mod__),
                  st.integers(0, 24).map(lambda zeros: b"0" * zeros + b"7"),
                  st.integers(10**18, 10**25).map(b"%d".__mod__)),
        max_size=count + 2))
    body = []
    for token in tokens:
        if draw(st.booleans()):
            comment = draw(st.binary(max_size=6)).replace(b"\n", b"").replace(b"\r", b"")
            token += b"#" + comment + draw(st.sampled_from([b"\n", b"\r", b"\r\n"]))
        sep = draw(st.lists(st.sampled_from(P2_WHITESPACE), min_size=1, max_size=3))
        body.append(token + b"".join(sep))
    header = b"P2\n%d %d\n%d\n" % (width, height, maxval)
    return header + b"".join(body), len(header), count, maxval


@settings(max_examples=300, deadline=None)
@given(p2_digit_files())
def test_p2_fast_path_equals_token_scan(file):
    data, pos, count, maxval = file
    fast = _p2_fast(data, pos, count, maxval)
    try:
        slow = _p2_tokens(data, pos, count)
    except FormatError:  # a short file
        slow = None
    if fast is None:
        # on digits only, the fast path declines a short file and a sample
        # above maxval, which load_pgm rejects, and nothing else
        assert slow is None or max(slow) > maxval
    else:
        assert fast.tolist() == slow


def test_bfr1_known_bytes(tmp_path):
    path = tmp_path / "b.bfr"
    save_bandset(BandSet([Raster([[1.0]])], ["b"]), path)
    raw = path.read_bytes()
    assert raw[:4] == b"BFR1"
    assert struct.unpack_from("<III", raw, 4) == (1, 1, 1)
    assert raw[-4:] == bytes([0x00, 0x00, 0x80, 0x3F])


def test_bfr1_roundtrip_float32(tmp_path, rng):
    data = rng.normal(0, 1000, (2, 7, 5))
    bands = BandSet([Raster(d) for d in data], ["alpha", "béta"])
    path = tmp_path / "b.bfr"
    save_bandset(bands, path)
    back = load_bandset(path)
    assert back.band_names == ("alpha", "béta")
    for orig, loaded in zip(data, back):
        assert np.array_equal(loaded.data, orig.astype(np.float32).astype(np.float64))


def test_bfr1_bad_magic(tmp_path):
    path = tmp_path / "b.bfr"
    path.write_bytes(b"BFR2" + bytes(20))
    with pytest.raises(FormatError, match="magic"):
        load_bandset(path)


def test_bfr1_zero_dimension(tmp_path):
    path = tmp_path / "b.bfr"
    path.write_bytes(b"BFR1" + struct.pack("<III", 0, 1, 1))
    with pytest.raises(FormatError, match="zero dimension"):
        load_bandset(path)


def test_bfr1_truncated_payload(tmp_path):
    path = tmp_path / "b.bfr"
    save_bandset(BandSet([Raster([[1.0, 2.0]])], ["b"]), path)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(FormatError, match="payload"):
        load_bandset(path)


def test_bfr1_rejects_nan_payload(tmp_path):
    path = tmp_path / "b.bfr"
    save_bandset(BandSet([Raster([[1.0]])], ["b"]), path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="non-finite"):
        load_bandset(path)


def test_raster_rejects_nonfinite():
    with pytest.raises(ValueError):
        Raster([[1.0, float("inf")]])
    with pytest.raises(ValueError):
        Raster([[float("nan")]])
    with pytest.raises(ValueError) as info:
        Raster(np.zeros(3))
    assert str(info.value) == "raster data must be 2-D, got 1-D"
    with pytest.raises(ValueError) as info:
        Raster(np.zeros((0, 3)))
    assert str(info.value) == "raster dimensions must be positive, got (0, 3)"


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_pickled_and_copied_rasters_stay_read_only(clone, rng):
    raster = Raster(rng.normal(0, 1, (3, 4)))
    bands = BandSet([raster, Raster([[1.0] * 4] * 3)], ["a", "b"])
    got_raster, got_bands = clone(raster), clone(bands)
    assert got_bands.band_names == ("a", "b")
    for got, want in [(got_raster, raster), *zip(got_bands, bands)]:
        assert got.data.tobytes() == want.data.tobytes() and got.shape == want.shape
        assert not got.data.flags.writeable


def test_bandset_shape_mismatch():
    with pytest.raises(ValueError):
        BandSet([Raster([[1.0]]), Raster([[1.0, 2.0]])])
    with pytest.raises(ValueError):
        BandSet([Raster([[1.0]])], ["a", "b"])
    with pytest.raises(ValueError) as info:
        BandSet([])
    assert str(info.value) == "band set needs at least one band"


def test_save_bandset_rejects_float32_overflow(tmp_path):
    path = tmp_path / "b.bfr"
    with pytest.raises(ValueError, match="float32 range"):
        save_bandset(BandSet([Raster([[1.0, 1e39]])], ["b"]), path)
    assert not path.exists()


# halfway between float32's largest value, 2**128 - 2**104, and 2**128: the
# least magnitude that rounds to infinity
F32_LIMIT = 2.0**128 - 2.0**103


@pytest.mark.parametrize("sample", [F32_LIMIT, -F32_LIMIT,
                                    np.nextafter(F32_LIMIT, 0), -np.nextafter(F32_LIMIT, 0)])
def test_save_bandset_accepts_exactly_what_float32_holds(tmp_path, sample):
    data = np.array([[1.0, sample], [-0.0, 2.5]])
    with np.errstate(over="ignore"):
        fits = bool(np.isfinite(data.astype("<f4")).all())
    assert fits == (abs(sample) < F32_LIMIT)
    path = tmp_path / "b.bfr"
    if fits:
        save_bandset(BandSet([Raster(data)]), path)
        assert load_bandset(path)[0].data[0, 1] == np.float32(sample)
    else:
        with pytest.raises(ValueError, match="float32 range"):
            save_bandset(BandSet([Raster(data)]), path)
        assert not path.exists()


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_save_bandset_overflow_in_any_band_writes_nothing(tmp_path, bad):
    data = np.zeros((3, 2, 3))
    data[bad, 1, 2] = -1e39
    bands = BandSet([Raster(d) for d in data])
    path = tmp_path / "b.bfr"
    with pytest.raises(ValueError, match="float32 range"):
        save_bandset(bands, path)
    assert not path.exists()
    path.write_bytes(b"BFR1 an earlier file")
    with pytest.raises(ValueError, match="float32 range"):
        save_bandset(bands, path)
    assert path.read_bytes() == b"BFR1 an earlier file"


@pytest.mark.parametrize("height", [1, 31, 32, 33, 65])
def test_save_bandset_bytes_equal_whole_band_casts(tmp_path, rng, height):
    data = rng.normal(0, 1e30, (3, height, 7))
    # a negative zero, ties to even, and the largest samples that fit
    data[:, 0, :6] = [-0.0, 1 + 2.0**-24, 1 + 3 * 2.0**-24, 0.1,
                      np.nextafter(F32_LIMIT, 0), -np.nextafter(F32_LIMIT, 0)]
    path = tmp_path / "b.bfr"
    save_bandset(BandSet([Raster(d) for d in data], ["a", "b", "c"]), path)
    header = b"BFR1" + struct.pack("<III", 7, height, 3) + b"".join(
        struct.pack("<H", 1) + name for name in (b"a", b"b", b"c"))
    payload = b"".join(np.ascontiguousarray(d, "<f4").tobytes() for d in data)
    assert path.read_bytes() == header + payload


@pytest.mark.parametrize("band", [0, 2])
def test_bfr1_rejects_nan_in_first_or_last_band(tmp_path, band):
    path = tmp_path / "b.bfr"
    save_bandset(BandSet([Raster(np.full((3, 4), float(i))) for i in range(3)]), path)
    raw = bytearray(path.read_bytes())
    # band-sequential payload of 3 x 12 float32 samples ends the file
    at = len(raw) - (3 - band) * 12 * 4 + 5 * 4
    raw[at : at + 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="non-finite"):
        load_bandset(path)


@pytest.mark.parametrize("cut", [4, 12 * 4, 12 * 4 + 4, 2 * 12 * 4])
def test_bfr1_file_shrinking_after_the_size_check(tmp_path, monkeypatch, cut):
    # the size check passes on the untruncated size; the sample reads then come
    # up short, and what is left in the reused buffer must never become a band
    path = tmp_path / "b.bfr"
    save_bandset(BandSet([Raster(np.full((3, 4), 1.0)), Raster(np.full((3, 4), 2.0))]), path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-cut])
    monkeypatch.setattr("biharm.formats.os.fstat", lambda fd: SimpleNamespace(st_size=full))
    for band in (None, 1):  # the whole file, and its last band alone
        with pytest.raises(FormatError, match="truncated payload"):
            load_bandset(path, band)


def test_bfr1_one_band_equals_that_band_of_the_whole_file(tmp_path, rng):
    path = tmp_path / "b.bfr"
    data = rng.normal(0, 100, (3, 6, 5))
    save_bandset(BandSet([Raster(d) for d in data], ["a", "b", "c"]), path)
    whole = load_bandset(path)
    for band in (0, 1, np.int64(2)):
        one = load_bandset(path, band)
        assert one.band_names == (whole.band_names[band],) and len(one) == 1
        assert one[0].data.tobytes() == whole[band].data.tobytes()


@pytest.mark.parametrize("band", [-1, 3, 7, True, 1.5])
def test_bfr1_band_out_of_range(tmp_path, band):
    path = tmp_path / "b.bfr"
    save_bandset(BandSet([Raster(np.full((3, 4), float(i))) for i in range(3)]), path)
    if type(band) is int:
        error, message = IndexError, f"band {band} is out of range for 3 band(s)"
    else:  # a bool or a float is no band number, also one inside the range
        error, message = ValueError, f"band must be an integer, got {band!r}"
    with pytest.raises(error) as info:
        load_bandset(path, band)
    assert str(info.value) == message


# the reader's messages for every file that ends before its name table does:
# the 16-byte header, then the u16 length and the name "b"
SHORT_FILES = [(n, "parse error: truncated header" if n >= 4
                else f"parse error: bad magic {b'BFR1'[:n]!r} at byte 0")
               for n in range(16)]
SHORT_FILES += [(16, "parse error: truncated name table at byte 16"),
                (17, "parse error: truncated name table at byte 16"),
                (18, "parse error: truncated name at byte 18")]


@pytest.mark.parametrize("n,message", SHORT_FILES)
def test_bfr1_short_files(tmp_path, n, message):
    path = tmp_path / "b.bfr"
    path.write_bytes((b"BFR1" + struct.pack("<IIIH", 1, 1, 1, 1) + b"b")[:n])
    with pytest.raises(FormatError) as info:
        load_bandset(path)
    assert str(info.value) == message


def test_bfr1_invalid_utf8_name(tmp_path):
    path = tmp_path / "b.bfr"
    path.write_bytes(b"BFR1" + struct.pack("<IIIH", 1, 1, 1, 1) + b"\xff" + bytes(4))
    with pytest.raises(FormatError) as info:
        load_bandset(path)
    assert str(info.value) == "parse error: invalid UTF-8 name at byte 18"


def test_save_bandset_rejects_band_name_too_long(tmp_path):
    path = tmp_path / "b.bfr"
    with pytest.raises(ValueError) as info:
        save_bandset(BandSet([Raster([[1.0]])], ["é" * 32768]), path)
    assert str(info.value) == "band name too long (65536 bytes)"
    assert not path.exists()


@pytest.mark.parametrize("change", ["delete", "overwrite"])
def test_loaded_bands_are_read_only_and_outlive_the_file(tmp_path, rng, change):
    path = tmp_path / "b.bfr"
    data = rng.normal(0, 100, (3, 6, 5)).astype(np.float32).astype(np.float64)
    save_bandset(BandSet([Raster(d) for d in data]), path)
    loaded = load_bandset(path)
    if change == "delete":
        path.unlink()
    else:
        with open(path, "r+b") as fh:
            fh.seek(-4 * data.size, 2)
            fh.write(np.full(data.size, 7.0, dtype="<f4").tobytes())
        assert np.all(load_bandset(path)[1].data == 7.0)
    for band, expected in zip(loaded, data):
        assert np.array_equal(band.data, expected)
        assert not band.data.flags.writeable
        with pytest.raises(ValueError):
            band.data[0, 0] = 1.0


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bands_3x256(rng):
    return BandSet([Raster(rng.normal(0, 1, (256, 256))) for _ in range(3)])


def test_load_bandset_memory_budget(tmp_path, rng):
    # the payload is read band by band into one reused float32 buffer: the
    # float64 bands are the only other large allocation
    path = tmp_path / "b.bfr"
    save_bandset(_bands_3x256(rng), path)
    band_bytes = 3 * 256 * 256 * 8
    assert _traced_peak(lambda: load_bandset(path)) <= 1.25 * band_bytes


def test_load_one_band_memory_budget(tmp_path, rng):
    # the float32 buffer, the one float64 band and its finiteness mask: the
    # other bands are never read
    path = tmp_path / "b.bfr"
    save_bandset(_bands_3x256(rng), path)
    band_bytes = 256 * 256 * 8
    assert _traced_peak(lambda: load_bandset(path, 2)) <= 1.75 * band_bytes


def test_save_bandset_memory_budget(tmp_path, rng):
    # each band is cast into one reused float32 buffer and written from it
    bands = _bands_3x256(rng)
    buffer_bytes = 256 * 256 * 4
    assert _traced_peak(lambda: save_bandset(bands, tmp_path / "b.bfr")) <= 1.25 * buffer_bytes


def test_save_pgm_memory_budget(tmp_path, rng):
    # the 8-bit payload and one float strip of 32 rows: no float copy of the
    # whole raster
    r = Raster(rng.uniform(-10, 300, (1024, 256)))
    raster_bytes = 1024 * 256 * 8
    assert _traced_peak(lambda: save_pgm(r, tmp_path / "a.pgm", 255)) <= raster_bytes / 4


VALID_FILES = [
    b"P2\n# c\n3 2\n255\n0 1 2\r3 4 5\n",
    b"P5\n3 2\n255\n" + bytes(range(6)),
    b"P5\n2 1\n65535\n" + struct.pack(">HH", 1, 40000),
    b"BFR1" + struct.pack("<IIIH", 2, 1, 2, 1) + b"a" + struct.pack("<H", 2) + "é".encode()
    + struct.pack("<4f", 1.0, -2.5, 3.0, 4.0),
]
NASTY = [
    b"\xff\xfe",  # bad UTF-8
    struct.pack("<I", 0xFFFFFFFF),  # huge BFR1 dimension
    b"99999999999",  # huge PGM dimension
    b"1" + b"0" * 400,  # a sample no float64 holds
    b"#",
    b"-1",
]


@st.composite
def mutated_files(draw):
    data = bytearray(draw(st.sampled_from(VALID_FILES)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 4))
        data[pos : pos + cut] = draw(st.one_of(st.binary(max_size=4), st.sampled_from(NASTY)))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(mutated_files())
@example(HUGE_P2)
def test_mutated_files_load_or_raise_format_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(data)
    for load in (load_pgm, load_bandset, partial(load_bandset, band=0)):
        tracemalloc.start()
        try:
            load(path)
        except FormatError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # inputs are tiny, so no reader may allocate for declared sizes first
        assert peak < 2**20
