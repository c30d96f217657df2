"""File formats: PGM (P2/P5) for single bands, BFR1 container for float band sets."""
from __future__ import annotations

import os
import re
import struct

import numpy as np

from .raster import BandSet, Raster, _is_int

BFR_MAGIC = b"BFR1"
_PGM_STRIP_ROWS = 32


class FormatError(ValueError):
    """Malformed or truncated image file."""


# one PGM token: skip whitespace and #-to-end-of-line comments, then capture
# the next run of non-space, non-# bytes; empty only at the end of the data
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]*)")
# the same comments, blanked out of the samples so that numpy's text reader,
# whose separators are the same six whitespace bytes as \s, sees the same tokens
_COMMENT = re.compile(rb"#[^\r\n]*")
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\x0b\x0c"


def _token_int(m: re.Match, what: str) -> int:
    if not m[1]:
        raise FormatError(f"parse error: unexpected end of header at byte {m.end()}")
    try:
        return int(m[1])
    except ValueError:
        raise FormatError(f"parse error: bad {what} {m[1]!r} at byte {m.start()}") from None


def _header_int(data: bytes, pos: int, what: str):
    m = _TOKEN.match(data, pos)
    return _token_int(m, what), m.end()


def _p2_fast(data: bytes, pos: int, count: int, maxval: int):
    """The first ``count`` P2 samples as int64, read by numpy's text reader,
    or None when the body is not plain digits and whitespace that hold
    ``count`` samples in [0, maxval]; ``_p2_tokens`` then reads it."""
    body = _COMMENT.sub(b" ", data[pos:])
    # fromstring reads a whitespace-only body as [0], and saturates a token of
    # 19 or more significant digits to 2**63 - 1, which the maxval test sends
    # back to the token scan; never pass it a count: with fewer values than
    # that it returns uninitialized memory
    if not body or body.isspace() or body.translate(None, _DIGITS_AND_SPACE):
        return None
    arr = np.fromstring(body, np.int64, sep=" ")[:count]
    if len(arr) < count or arr.max() > maxval:
        return None
    return arr


def _p2_tokens(data: bytes, pos: int, count: int) -> list:
    """The first ``count`` P2 samples as Python ints, token by token; raises
    at the first bad token, or at the empty one that ends a short file."""
    samples = []
    for m in _TOKEN.finditer(data, pos):
        if not m[1]:
            raise FormatError(
                f"parse error: truncated samples at byte {m.end()} "
                f"(need {count}, have {len(samples)})"
            )
        samples.append(_token_int(m, "sample"))
        if len(samples) == count:
            return samples


def load_pgm(path) -> Raster:
    """Load a P2 (ASCII) or P5 (binary) PGM; sample values kept as-is."""
    with open(path, "rb") as fh:
        return _parse_pgm(fh.read())


def _parse_pgm(data: bytes) -> Raster:
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"parse error: bad magic {magic!r} at byte 0")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"parse error: non-positive dimensions {width}x{height}")
    if maxval < 1 or maxval > 65535:
        raise FormatError(f"unsupported maxval {maxval}")
    count = width * height
    if magic == b"P2":
        arr = _p2_fast(data, pos, count, maxval)
        if arr is None:
            try:
                arr = np.array(_p2_tokens(data, pos, count), dtype=np.float64)
            except OverflowError:
                raise FormatError(f"parse error: sample outside [0, {maxval}]") from None
    else:
        # exactly one whitespace byte separates maxval from the payload
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise FormatError(f"parse error: missing payload separator at byte {pos}")
        pos += 1
        itemsize = 2 if maxval > 255 else 1
        need = count * itemsize
        if len(data) - pos < need:
            raise FormatError(
                f"parse error: truncated payload at byte {len(data)} "
                f"(need {need} bytes, have {len(data) - pos})"
            )
        # unsigned samples: checked against maxval before the float64 cast,
        # and never negative
        arr = np.frombuffer(data, ">u2" if itemsize == 2 else "u1", count, pos)
    if arr.max() > maxval:
        raise FormatError(f"parse error: sample {int(arr.max())} exceeds maxval {maxval}")
    if magic == b"P2" and arr.min() < 0:
        raise FormatError("parse error: negative sample")
    return Raster._from_array(arr.astype(np.float64, copy=False).reshape(height, width))


def save_pgm(r: Raster, path, maxval: int = 255) -> None:
    """Write binary P5; samples clamped to [0, maxval], rounded half away from zero."""
    if maxval not in (255, 65535):
        raise ValueError(f"maxval must be 255 or 65535, got {maxval}")
    data = r.data
    payload = np.empty(data.shape, ">u2" if maxval > 255 else "u1")
    # quantized through one reused strip of rows, so that no float copy of the
    # whole raster is made; after the clip, floor(x + 0.5) <= maxval: the
    # integers convert exactly on assignment
    strip = np.empty((min(len(data), _PGM_STRIP_ROWS), data.shape[1]))
    for top in range(0, len(data), _PGM_STRIP_ROWS):
        rows = data[top : top + _PGM_STRIP_ROWS]
        part = np.clip(rows, 0.0, float(maxval), out=strip[: len(rows)])
        part += 0.5
        payload[top : top + len(rows)] = np.floor(part, out=part)
    _write_p5(payload, path, maxval)


def _save_mask(mask: np.ndarray, path) -> None:
    """Write a 2-D bool mask as an 8-bit P5 of 0 and 255: the bytes of
    ``save_pgm(Raster._from_array(mask * 255.0), path, 255)``, without its
    float64 copies."""
    payload = np.ascontiguousarray(mask, dtype=np.uint8)
    payload *= 255
    _write_p5(payload, path, 255)


def _write_p5(payload: np.ndarray, path, maxval: int) -> None:
    height, width = payload.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (width, height, maxval))
        fh.write(payload)


def save_bandset(b: BandSet, path) -> None:
    """Write the BFR1 container: LE u32 dims/count, u16-length-prefixed UTF-8
    names, then band-sequential row-major LE float32 samples."""
    header = [BFR_MAGIC, struct.pack("<III", b.width, b.height, len(b))]
    for name in b.band_names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"band name too long ({len(raw)} bytes)")
        header.append(struct.pack("<H", len(raw)))
        header.append(raw)
    # every band is checked before the file is opened, so a bad band leaves no
    # file. Rounding to float32 is monotone, so a band fits if and only if its
    # largest magnitude does: the check allocates nothing
    for band in b:
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float32(max(band.data.max(), -band.data.min()))):
                raise ValueError("samples exceed the float32 range of BFR1")
    # each band is cast into one reused float32 buffer, written through the
    # buffer protocol without a bytes copy
    samples = np.empty((b.height, b.width), "<f4")
    with open(path, "wb") as fh:
        fh.write(b"".join(header))
        for band in b:
            samples[...] = band.data
            fh.write(samples)


def _check_band(band: int, band_count: int) -> None:
    if not _is_int(band):
        raise ValueError(f"band must be an integer, got {band!r}")
    if not 0 <= band < band_count:
        raise IndexError(f"band {band} is out of range for {band_count} band(s)")


def load_bandset(path, band: int | None = None) -> BandSet:
    """Read a BFR1 file band by band; every band is its own float64 array, so
    the result outlives the file. With ``band`` (0-based), only that band's
    samples are read, into a one-band set under its name; the header and the
    whole payload length are checked all the same, and a band the file does
    not hold is an IndexError. A PGM file reads as the one band ``band1``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if head[:2] in (b"P2", b"P5"):
            # read(size) makes one buffer; a bare read() after the head would
            # copy the whole file once more to join it to the buffered head
            fh.seek(0)
            raster = _parse_pgm(fh.read(size))
            if band is not None:
                _check_band(band, 1)
            return BandSet([raster])
        if head[:4] != BFR_MAGIC:
            raise FormatError(f"parse error: bad magic {head[:4]!r} at byte 0")
        if len(head) < 16:
            raise FormatError("parse error: truncated header")
        width, height, band_count = struct.unpack_from("<III", head, 4)
        if width == 0 or height == 0 or band_count == 0:
            raise FormatError(
                f"parse error: zero dimension (width={width}, height={height}, bands={band_count})"
            )
        pos = 16
        names = []
        for _ in range(band_count):
            raw = fh.read(2)
            if len(raw) != 2:
                raise FormatError(f"parse error: truncated name table at byte {pos}")
            (nlen,) = struct.unpack("<H", raw)
            pos += 2
            raw = fh.read(nlen)
            if len(raw) != nlen:
                raise FormatError(f"parse error: truncated name at byte {pos}")
            try:
                names.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise FormatError(f"parse error: invalid UTF-8 name at byte {pos}") from None
            pos += nlen
        # the declared sizes are checked against the file before any sample
        # buffer is allocated
        count = width * height
        need = band_count * count * 4
        if pos + need != size:
            raise FormatError(f"parse error: payload length {size - pos}, expected {need}")
        if band is None:
            wanted = range(band_count)
        else:
            _check_band(band, band_count)
            wanted = [band]
            names = [names[band]]
        # one float32 buffer serves every band. The float64 cast keeps each
        # value, finite or not, so Raster's finiteness check is the check of
        # the samples
        samples = np.empty(count, "<f4")
        bands = []
        for index in wanted:
            start = pos + index * count * 4
            fh.seek(start)
            got = fh.readinto(samples)
            if got != count * 4:  # the file shrank after the size check
                raise FormatError(f"parse error: truncated payload at byte {start + got}")
            try:
                bands.append(Raster._from_array(
                    samples.astype(np.float64).reshape(height, width)))
            except ValueError:
                raise FormatError("parse error: non-finite sample in payload") from None
    return BandSet(bands, names)
