"""File formats: PGM (P2/P5) for single bands, BFR1 container for float band sets."""
from __future__ import annotations

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
        payload = data[pos : pos + need]
        if len(payload) != need:
            raise FormatError(
                f"parse error: truncated payload at byte {pos + len(payload)} "
                f"(need {need} bytes, have {len(payload)})"
            )
        dtype = ">u2" if itemsize == 2 else "u1"
        arr = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if arr.size and arr.max() > maxval:
        raise FormatError(f"parse error: sample {int(arr.max())} exceeds maxval {maxval}")
    if arr.size and arr.min() < 0:
        raise FormatError("parse error: negative sample")
    return Raster._from_array(arr.reshape(height, width))


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
    parts = [BFR_MAGIC, struct.pack("<III", b.width, b.height, len(b))]
    for name in b.band_names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"band name too long ({len(raw)} bytes)")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    for band in b:
        with np.errstate(over="ignore"):
            samples = np.ascontiguousarray(band.data, dtype="<f4")
        if not np.isfinite(samples).all():
            raise ValueError("samples exceed the float32 range of BFR1")
        parts.append(samples.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_bandset(path) -> BandSet:
    with open(path, "rb") as fh:
        data = fh.read()
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
    payload = data[pos : pos + need]
    if len(payload) != need or pos + need != len(data):
        raise FormatError(
            f"parse error: payload length {len(data) - pos}, expected {need}"
        )
    samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(samples)):
        raise FormatError("parse error: non-finite sample in payload")
    bands = [
        Raster._from_array(samples[i * count : (i + 1) * count].reshape(height, width))
        for i in range(band_count)
    ]
    return BandSet(bands, names)
