"""In-memory raster and band-set model."""
from __future__ import annotations

import numpy as np


def _is_int(value) -> bool:
    """True for an ``int`` or a numpy integer; a ``bool`` is not an integer."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(name: str, value):
    """``value`` if it is a positive integer (``_is_int``), else a ValueError naming it."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


class Raster:
    """Single-band 2-D grid of float64 samples, row 0 at top.

    Treated as immutable after construction: the backing array is marked
    read-only, also in a pickled or copied raster, which is rebuilt through
    the constructor, so instances are safe to share across threads.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, copy=True)
        self._install(arr)

    def _install(self, arr: np.ndarray):
        if arr.ndim != 2:
            raise ValueError(f"raster data must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"raster dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("raster samples must be finite (no NaN/Inf)")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _from_array(cls, arr: np.ndarray) -> "Raster":
        """Take ownership of a freshly computed float64 array (no copy)."""
        self = object.__new__(cls)
        self._install(np.asarray(arr, dtype=np.float64))
        return self

    def __reduce__(self):
        return (Raster, (self.data,))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Raster({self.width}x{self.height})"


class BandSet:
    """Ordered collection of co-registered rasters with band names."""

    __slots__ = ("bands", "band_names")

    def __init__(self, bands, band_names=None):
        bands = tuple(bands)
        if not bands:
            raise ValueError("band set needs at least one band")
        shape = bands[0].shape
        for b in bands[1:]:
            if b.shape != shape:
                raise ValueError(f"band shape {b.shape} differs from {shape}")
        if band_names is None:
            band_names = tuple(f"band{i + 1}" for i in range(len(bands)))
        else:
            band_names = tuple(str(n) for n in band_names)
            if len(band_names) != len(bands):
                raise ValueError(
                    f"{len(band_names)} names for {len(bands)} bands"
                )
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "band_names", band_names)

    @property
    def width(self) -> int:
        return self.bands[0].width

    @property
    def height(self) -> int:
        return self.bands[0].height

    def __len__(self):
        return len(self.bands)

    def __iter__(self):
        return iter(self.bands)

    def __getitem__(self, i) -> Raster:
        return self.bands[i]

    def __repr__(self):
        return f"BandSet({len(self.bands)} bands, {self.width}x{self.height})"
