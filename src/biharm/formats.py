"""File formats: PGM (P2/P5) for single bands, BFR1 container for float band sets."""
from __future__ import annotations

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
# the same comments, blanked out of the samples so that bytes.split(), whose
# whitespace is the same six bytes as \s, yields the same tokens
_COMMENT = re.compile(rb"#[^\r\n]*")


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
        tokens = _COMMENT.sub(b" ", data[pos:]).split()[:count]
        try:
            samples = list(map(int, tokens)) if len(tokens) == count else None
        except ValueError:
            samples = None
        if samples is None:
            # rescan to raise for the first bad token, or for the empty one
            # that ends a short file
            for have, m in enumerate(_TOKEN.finditer(data, pos)):
                if not m[1]:
                    raise FormatError(
                        f"parse error: truncated samples at byte {m.end()} "
                        f"(need {count}, have {have})"
                    )
                _token_int(m, "sample")
        try:
            arr = np.array(samples, dtype=np.float64)
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
    # after the clip, floor(x + 0.5) <= maxval: the integers convert exactly
    quantized = np.clip(r.data, 0.0, float(maxval))
    quantized += 0.5
    np.floor(quantized, out=quantized)
    payload = quantized.astype(">u2" if maxval > 255 else "u1")
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
    """Read a BFR1 file band by band; every band is its own float64 array, so
    the result outlives the file."""
    with open(path, "rb") as fh:
        head = fh.read(16)
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
        size = os.fstat(fh.fileno()).st_size
        if pos + need != size:
            raise FormatError(f"parse error: payload length {size - pos}, expected {need}")
        # one float32 buffer serves every band. The float64 cast keeps each
        # value, finite or not, so Raster's finiteness check is the check of
        # the samples
        samples = np.empty(count, "<f4")
        bands = []
        for _ in range(band_count):
            got = fh.readinto(samples)
            if got != count * 4:  # the file shrank after the size check
                raise FormatError(f"parse error: truncated payload at byte {pos + got}")
            pos += got
            try:
                bands.append(Raster._from_array(
                    samples.astype(np.float64).reshape(height, width)))
            except ValueError:
                raise FormatError("parse error: non-finite sample in payload") from None
    return BandSet(bands, names)
