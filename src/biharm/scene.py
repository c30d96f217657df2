"""Seeded synthetic scenes with known anomaly footprints.

Noise comes from a counter-based splitmix64 generator with Box-Muller
conversion to Gaussian, so output is bit-identical across platforms, runs,
and thread counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .raster import BandSet, Raster

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


def uniform01(seed: int, count: int) -> np.ndarray:
    """count doubles in [0, 1) from the splitmix64 counter stream."""
    words = np.arange(1, count + 1, dtype=np.uint64)
    words *= _GOLDEN
    words += _U64(seed & 0xFFFFFFFFFFFFFFFF)
    scratch = np.empty_like(words)
    _mix64(words, scratch)
    words >>= _U64(11)
    # the 53-bit words convert to float64 exactly; the result takes the
    # scratch buffer, so the stream never holds more than two arrays
    return np.multiply(words, 2.0 ** -53, out=scratch.view(np.float64))


def gaussian(seed: int, count: int) -> np.ndarray:
    """count standard normal deviates via Box-Muller on the uniform stream."""
    pairs = (count + 1) // 2
    u = uniform01(seed, 2 * pairs)
    radius, theta = u[:pairs], u[pairs:]
    # radius = sqrt(-2 log1p(-u1)) and theta = 2 pi u2, each in place
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    theta *= 2.0 * np.pi
    z = np.empty(2 * pairs)
    np.cos(theta, out=z[:pairs])
    np.sin(theta, out=z[pairs:])
    z[:pairs] *= radius
    z[pairs:] *= radius
    return z[:count]


def substream_seed(seed: int, index: int) -> int:
    z = np.array([(seed ^ ((index + 1) * int(_GOLDEN))) & 0xFFFFFFFFFFFFFFFF],
                 dtype=np.uint64)
    return int(_mix64(z, np.empty_like(z))[0])


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    radius: float
    amplitudes: tuple

    def check_bounds(self, width: int, height: int):
        if not all(map(math.isfinite, (self.cx, self.cy, self.radius))):
            raise ValueError(f"disk centre and radius must be finite: {self}")
        r = abs(self.radius)  # the footprint squares the radius
        if (
            self.cx - r < 0
            or self.cx + r > width - 1
            or self.cy - r < 0
            or self.cy + r > height - 1
        ):
            raise ValueError(f"disk footprint out of bounds: {self}")

    def box(self, width: int, height: int):
        """(rows, cols) slices of the raster that hold the footprint."""
        # a pixel outside [floor(c - r), ceil(c + r)] is more than r from the
        # centre by nearly a whole pixel, far past any rounding of the test
        r = abs(self.radius)  # the test squares the radius
        x0 = max(0, math.floor(self.cx - r))
        y0 = max(0, math.floor(self.cy - r))
        x1 = min(width - 1, math.ceil(self.cx + r))
        y1 = min(height - 1, math.ceil(self.cy + r))
        return slice(y0, y1 + 1), slice(x0, x1 + 1)

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
        if self.width < 1 or self.height < 1:
            raise ValueError(f"rectangle must be at least 1x1: {self}")
        if (
            self.x0 < 0
            or self.y0 < 0
            or self.x0 + self.width > width
            or self.y0 + self.height > height
        ):
            raise ValueError(f"rectangle footprint out of bounds: {self}")

    def box(self, width: int, height: int):
        """(rows, cols) slices of the raster that hold the footprint."""
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
        if self.width < 1 or self.height < 1:
            raise ValueError("scene dimensions must be positive")
        if self.band_count < 1:
            raise ValueError("band count must be positive")
        if self.sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        for a in self.anomalies:
            a.check_bounds(self.width, self.height)
            if len(a.amplitudes) != self.band_count:
                raise ValueError(
                    f"anomaly has {len(a.amplitudes)} amplitudes for "
                    f"{self.band_count} bands"
                )


def parse_scene_spec(text: str) -> SceneSpec:
    """Parse the key=value scene description (see README for the grammar)."""
    fields = {"anomalies": []}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key in ("width", "height", "bands", "seed"):
                fields["band_count" if key == "bands" else key] = int(value)
            elif key in ("level", "sigma"):
                fields[key] = float(value)
            elif key == "trend":
                parts = value.split()
                if len(parts) != 2:
                    raise ValueError("trend needs 2 slopes")
                fields["trend"] = (float(parts[0]), float(parts[1]))
            elif key == "anomaly":
                fields["anomalies"].append(_parse_anomaly(value))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    fields["anomalies"] = tuple(fields["anomalies"])
    missing = {"width", "height"} - fields.keys()
    if missing:
        raise ValueError(f"missing required keys: {sorted(missing)}")
    return SceneSpec(**fields)


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
    inside anomaly footprints. Bit-identical for a fixed seed."""
    h, w = spec.height, spec.width
    yy, xx = np.ogrid[0:h, 0:w]
    base = spec.level + spec.trend[0] * xx + spec.trend[1] * yy
    boxes = [a.box(w, h) for a in spec.anomalies]
    footprints = [(box, a.mask(box)) for a, box in zip(spec.anomalies, boxes)]
    bands = []
    for b in range(spec.band_count):
        if spec.sigma > 0:
            # base + sigma * noise in the noise's own array: IEEE + and *
            # commute, so the bits are the same
            band = gaussian(substream_seed(spec.seed, b), w * h).reshape(h, w)
            band *= spec.sigma
            band += base
        else:
            band = base.astype(np.float64)
        for anomaly, (box, fp) in zip(spec.anomalies, footprints):
            band[box][fp] += anomaly.amplitudes[b]
        bands.append(Raster._from_array(band))
    truth = np.zeros((h, w))
    for box, fp in footprints:
        truth[box][fp] = 1.0
    return BandSet(bands), Raster._from_array(truth)
