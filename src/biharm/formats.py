"""File formats: PGM (P2/P5) for single bands, BFR1 container for float band sets."""
from __future__ import annotations

import mmap
import os
import re
import struct

import numpy as np

from .raster import BandSet, Raster

BFR_MAGIC = b"BFR1"


class FormatError(ValueError):
    """Malformed or truncated image file."""


class UnsupportedFormatError(FormatError):
    """Recognized container but unsupported parameters (e.g. maxval)."""


# one PGM token: skip whitespace and #-to-end-of-line comments, then capture
# the next run of non-space, non-# bytes; empty only at the end of the data
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]*)")


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


def load_pgm(path) -> Raster:
    """Load a P2 (ASCII) or P5 (binary) PGM; sample values kept as-is."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"parse error: bad magic {magic!r} at byte 0")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"parse error: non-positive dimensions {width}x{height}")
    if maxval < 1 or maxval > 65535:
        raise UnsupportedFormatError(f"unsupported maxval {maxval}")
    count = width * height
    if magic == b"P2":
        try:
            tokens = _TOKEN.findall(data, pos)[:count]
            arr = np.array(list(map(int, tokens)), dtype=np.float64)
        except ValueError:
            # rescan to raise for the first bad token, or for the empty one
            # that ends a short file
            for have, m in enumerate(_TOKEN.finditer(data, pos)):
                if not m[1]:
                    raise FormatError(
                        f"parse error: truncated samples at byte {m.end()} "
                        f"(need {count}, have {have})"
                    ) from None
                _token_int(m, "sample")
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
    clamped = np.clip(r.data, 0.0, float(maxval))
    quantized = np.floor(clamped + 0.5).astype(np.uint32)
    quantized = np.minimum(quantized, maxval)
    payload = quantized.astype(">u2" if maxval > 255 else "u1").tobytes()
    header = b"P5\n%d %d\n%d\n" % (r.width, r.height, maxval)
    with open(path, "wb") as fh:
        fh.write(header)
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
    # every band is converted and checked before the file is opened, so a bad
    # band leaves no file; the arrays are then written through the buffer
    # protocol, without a bytes copy
    payload = []
    for band in b:
        with np.errstate(over="ignore"):
            samples = np.ascontiguousarray(band.data, dtype="<f4")
        if not np.isfinite(samples).all():
            raise ValueError("samples exceed the float32 range of BFR1")
        payload.append(samples)
    with open(path, "wb") as fh:
        fh.write(b"".join(header))
        for samples in payload:
            fh.write(samples)


def load_bandset(path) -> BandSet:
    """Read a BFR1 file through a read-only memory map; every band is its own
    float64 array, so the result outlives the file."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # an empty file cannot be mapped
            return _parse_bandset(b"")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
            return _parse_bandset(data)


def _parse_bandset(data) -> BandSet:
    if data[:4] != BFR_MAGIC:
        raise FormatError(f"parse error: bad magic {data[:4]!r} at byte 0")
    if len(data) < 16:
        raise FormatError("parse error: truncated header")
    width, height, band_count = struct.unpack_from("<III", data, 4)
    if width == 0 or height == 0 or band_count == 0:
        raise FormatError(
            f"parse error: zero dimension (width={width}, height={height}, bands={band_count})"
        )
    pos = 16
    names = []
    for _ in range(band_count):
        if pos + 2 > len(data):
            raise FormatError(f"parse error: truncated name table at byte {pos}")
        (nlen,) = struct.unpack_from("<H", data, pos)
        pos += 2
        raw = data[pos : pos + nlen]
        if len(raw) != nlen:
            raise FormatError(f"parse error: truncated name at byte {pos}")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"parse error: invalid UTF-8 name at byte {pos}") from None
        pos += nlen
    count = width * height
    need = band_count * count * 4
    if pos + need != len(data):
        raise FormatError(
            f"parse error: payload length {len(data) - pos}, expected {need}"
        )
    # one view of the payload, dropped before the map closes: closing a map
    # raises BufferError while a view of it lives. Finiteness is checked once,
    # on the float32 samples; that is exact, since float32 -> float64 keeps
    # every value, finite or not
    samples = np.frombuffer(data, "<f4", band_count * count, pos).reshape(
        band_count, height, width)
    try:
        if not np.isfinite(samples).all():
            raise FormatError("parse error: non-finite sample in payload")
        bands = [Raster._from_array(samples[i].astype(np.float64))
                 for i in range(band_count)]
    finally:
        del samples
    return BandSet(bands, names)
