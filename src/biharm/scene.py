"""Seeded synthetic scenes with known anomaly footprints.

Noise comes from a counter-based splitmix64 generator with Box-Muller
conversion to Gaussian, so output is bit-identical across platforms, runs,
and thread counts.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .convolve import _shares
from .raster import BandSet, Raster, _is_int

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on the uint64 array z; tmp is scratch
    of z's shape."""
    z ^= np.right_shift(z, _U64(30), out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, _U64(27), out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, _U64(31), out=tmp)
    return z


# Box-Muller pairs per block: each block's few working arrays stay in the
# L2 cache, where whole-stream arrays streamed every ufunc through memory
_BLOCK = 1 << 15
_RAMP = np.arange(1, _BLOCK + 1, dtype=np.uint64)
_RAMP.flags.writeable = False


def _uniform_run(seed: int, first: int, out: np.ndarray, words: np.ndarray) -> None:
    """Stream words first+1 .. first+len(out) as doubles in [0, 1), into the
    float64 array out of len(out) <= _BLOCK; words is uint64 scratch of at
    least len(out) elements. The generator is counter-based and every step is
    elementwise, so the values do not depend on the blocks."""
    w = words[: len(out)]
    np.add(_RAMP[: len(out)], _U64(first), out=w)
    w *= _GOLDEN
    w += _U64(seed & 0xFFFFFFFFFFFFFFFF)
    _mix64(w, out.view(np.uint64))  # the output block is the scratch
    w >>= _U64(11)
    # the 53-bit words convert to float64 exactly
    np.multiply(w, 2.0 ** -53, out=out)


def gaussian(seed: int, count: int) -> np.ndarray:
    """count standard normal deviates via Box-Muller on the uniform stream:
    pair i takes its radius from stream word i + 1 and its angle from word
    pairs + i + 1, and gives deviates i and pairs + i. The blocks run in
    ``convolve._shares`` with the default workers, each share with its own
    block buffers; every step is elementwise, so the bytes do not depend on
    the shares. A pool thread allocates nothing band-sized: each thread's
    malloc arena keeps the buffers it freed, so bands built on pool threads
    raised a command's peak memory."""
    pairs = (count + 1) // 2
    z = np.empty(2 * pairs)
    size = min(pairs, _BLOCK)

    def run(share):
        words = np.empty(size, np.uint64)
        radius_buf, theta_buf = np.empty(size), np.empty(size)
        for a in share:
            b = min(a + _BLOCK, pairs)
            radius, theta = radius_buf[: b - a], theta_buf[: b - a]
            _uniform_run(seed, a, radius, words)
            _uniform_run(seed, pairs + a, theta, words)
            # radius = sqrt(-2 log1p(-u1)) and theta = 2 pi u2, each in place
            np.negative(radius, out=radius)
            np.log1p(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            theta *= 2.0 * np.pi
            np.cos(theta, out=z[a:b])
            np.sin(theta, out=z[pairs + a : pairs + b])
            z[a:b] *= radius
            z[pairs + a : pairs + b] *= radius

    _shares(range(0, pairs, _BLOCK), run)
    return z[:count]


def substream_seed(seed: int, index: int) -> int:
    z = np.array([(int(seed) ^ ((index + 1) * int(_GOLDEN))) & 0xFFFFFFFFFFFFFFFF],
                 dtype=np.uint64)
    return int(_mix64(z, np.empty_like(z))[0])


def _inside(anomaly, width: int, height: int) -> bool:
    """Whether the anomaly's box lies inside a width x height raster."""
    try:
        rows, cols = anomaly.box()
    except OverflowError:  # a disk's c - r or c + r is infinite
        return False
    return rows.start >= 0 and cols.start >= 0 and rows.stop <= height and cols.stop <= width


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    radius: float
    amplitudes: tuple

    def check_bounds(self, width: int, height: int):
        if not all(map(math.isfinite, (self.cx, self.cy, self.radius))):
            raise ValueError(f"disk centre and radius must be finite: {self}")
        if not _inside(self, width, height):
            raise ValueError(f"disk footprint out of bounds: {self}")

    def box(self):
        """(rows, cols) slices that hold the footprint, never clipped."""
        # a pixel outside [floor(c - r), ceil(c + r)] is more than r from the
        # centre by nearly a whole pixel, far past any rounding of the test
        r = abs(self.radius)  # the test squares the radius
        return (slice(math.floor(self.cy - r), math.ceil(self.cy + r) + 1),
                slice(math.floor(self.cx - r), math.ceil(self.cx + r) + 1))

    def mask(self, box) -> np.ndarray:
        """The pixels of ``box`` whose centres lie within the radius."""
        yy, xx = np.ogrid[box]
        return (xx - self.cx) ** 2 + (yy - self.cy) ** 2 <= self.radius**2


@dataclass(frozen=True)
class Rect:
    x0: int
    y0: int
    width: int
    height: int
    amplitudes: tuple

    def check_bounds(self, width: int, height: int):
        if not all(map(_is_int, astuple(self)[:4])):
            raise ValueError(f"rectangle x0, y0, width and height must be integers: {self}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"rectangle must be at least 1x1: {self}")
        if not _inside(self, width, height):
            raise ValueError(f"rectangle footprint out of bounds: {self}")

    def box(self):
        """(rows, cols) slices that hold the footprint."""
        return slice(self.y0, self.y0 + self.height), slice(self.x0, self.x0 + self.width)

    def mask(self, box):
        """The whole box is the footprint: an Ellipsis index."""
        return ...


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    band_count: int = 1
    level: float = 0.0
    sigma: float = 0.0
    trend: tuple = (0.0, 0.0)  # (per-column slope, per-row slope)
    seed: int = 0
    anomalies: tuple = field(default_factory=tuple)

    def __post_init__(self):
        sizes = (self.width, self.height, self.band_count)
        if not all(map(_is_int, sizes)):
            raise ValueError(f"scene width, height and band count must be integers, got {sizes}")
        if self.width < 1 or self.height < 1:
            raise ValueError("scene dimensions must be positive")
        if self.band_count < 1:
            raise ValueError("band count must be positive")
        # every comparison with a NaN is false, so `sigma < 0` alone lets a
        # NaN through: each number is checked to be finite
        if not math.isfinite(self.level):
            raise ValueError(f"level must be finite, got {self.level!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"noise sigma must be finite and non-negative, got {self.sigma!r}")
        if len(self.trend) != 2:
            raise ValueError(f"trend needs 2 slopes, got {self.trend!r}")
        if not all(map(math.isfinite, self.trend)):
            raise ValueError(f"trend slopes must be finite, got {self.trend!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed!r}")
        for a in self.anomalies:
            a.check_bounds(self.width, self.height)
            if len(a.amplitudes) != self.band_count:
                raise ValueError(
                    f"anomaly has {len(a.amplitudes)} amplitudes for "
                    f"{self.band_count} bands"
                )
            if not all(map(math.isfinite, a.amplitudes)):
                raise ValueError(f"anomaly amplitudes must be finite: {a}")


def parse_scene_spec(text: str) -> SceneSpec:
    """Parse the key=value scene description (see README for the grammar)."""
    fields, anomalies = {}, []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = "band_count" if key == "bands" else key
        try:
            if name in fields:  # every key but anomaly is set at most once
                raise ValueError(f"duplicate key {key!r}")
            if key in ("width", "height", "bands", "seed"):
                fields[name] = int(value)
            elif key in ("level", "sigma"):
                fields[key] = float(value)
            elif key == "trend":
                parts = value.split()
                if len(parts) != 2:
                    raise ValueError("trend needs 2 slopes")
                fields["trend"] = (float(parts[0]), float(parts[1]))
            elif key == "anomaly":
                anomalies.append(_parse_anomaly(value))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    missing = {"width", "height"} - fields.keys()
    if missing:
        raise ValueError(f"missing required keys: {sorted(missing)}")
    return SceneSpec(**fields, anomalies=tuple(anomalies))


def _parse_anomaly(value: str):
    parts = value.split()
    kind = parts[0] if parts else ""
    if kind == "disk":
        if len(parts) < 5:
            raise ValueError("disk needs: disk cx cy radius amp...")
        return Disk(
            float(parts[1]), float(parts[2]), float(parts[3]),
            tuple(float(p) for p in parts[4:]),
        )
    if kind == "rect":
        if len(parts) < 6:
            raise ValueError("rect needs: rect x0 y0 width height amp...")
        return Rect(
            int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4]),
            tuple(float(p) for p in parts[5:]),
        )
    raise ValueError(f"unknown anomaly shape {kind!r}")


def synth_scene(spec: SceneSpec):
    """Build (BandSet, truth mask): background + trend + noise, offsets added
    inside anomaly footprints. Bit-identical for a fixed seed, whatever the
    worker count (see ``gaussian``)."""
    h, w = spec.height, spec.width
    yy, xx = np.ogrid[0:h, 0:w]
    # finite spec numbers can still overflow; the raster's finiteness check
    # sees that, and its error is turned into one that names the spec
    with np.errstate(over="ignore", invalid="ignore"):
        base = spec.level + spec.trend[0] * xx + spec.trend[1] * yy
        footprints = [(box := a.box(), a.mask(box)) for a in spec.anomalies]
        bands = []
        for b in range(spec.band_count):
            if spec.sigma > 0:
                # base + sigma * noise in the noise's own array, so a band
                # needs no second band-sized array: IEEE + and * commute, so
                # the bits are the same
                band = gaussian(substream_seed(spec.seed, b), w * h).reshape(h, w)
                band *= spec.sigma
                band += base
            else:
                band = base.astype(np.float64)
            for anomaly, (box, fp) in zip(spec.anomalies, footprints):
                band[box][fp] += anomaly.amplitudes[b]
            try:
                bands.append(Raster._from_array(band))
            except ValueError:
                raise ValueError(
                    f"scene band {b + 1} overflows: level, trend, sigma and the "
                    f"anomaly amplitudes must keep every sample finite") from None
    truth = np.zeros((h, w))
    for box, fp in footprints:
        truth[box][fp] = 1.0
    return BandSet(bands), Raster._from_array(truth)
