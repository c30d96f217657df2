"""Smoothing, anomaly maps, detector metrics, and parallelepiped classification."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .convolve import DEFAULT_TILE_HEIGHT, Boundary, _shares, _sweeps, convolve
from .raster import BandSet, Raster
from .stencil import Stencil, jacobi_range, omega_auto


@dataclass(frozen=True)
class AnomalyMap:
    scores: Raster
    source_band: str


def smooth_jacobi(
    r: Raster,
    s: Stencil,
    iterations: int = 1,
    b: Boundary = Boundary.MIRROR,
    tile_height: int = DEFAULT_TILE_HEIGHT,
    workers: int | None = None,
    omega: float = 1.0,
) -> Raster:
    """Jacobi relaxation of the stencil equation, damped by ``omega``: each
    sweep computes ``r - response / (center / omega)``, reading only the
    previous iterate. At the default ``omega = 1`` a sweep replaces every
    pixel by -(sum of off-center taps)/center.

    One sweep multiplies the frequency theta by 1 - omega A(theta)/center,
    where A is the stencil's Fourier symbol; ``jacobi_range`` gives the range
    of these factors. Repeated sweeps are stable only while it lies in
    [-1, 1]: for the unit biharmonic template, for ``omega < 0.625``, while
    plain Jacobi (``omega = 1``) multiplies its Nyquist mode by -2.2 per
    sweep; ``omega_auto(s)`` puts it in [0, 1]. A ``RuntimeWarning``
    is emitted when ``iterations > 1`` and the range leaves [-1, 1].
    """
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    center = s.coeff(0, 0)
    if center == 0.0:
        raise ValueError("stencil center coefficient must be non-zero")
    if iterations > 1:
        least, greatest = jacobi_range(s, omega)
        growth = ""
        # a zero-sum stencil's factor at theta = 0 is 1 up to the symbol's
        # rounding, which can put it an ulp above 1
        if greatest > 1.0 + 1e-12 * (greatest - least):
            growth = f"a frequency by {greatest:g} (no omega > 0 is stable)"
        elif least < -1.0:
            growth = (f"the highest frequency by {least:g} "
                      f"(stable for omega < {2.0 * omega_auto(s):g})")
        if growth:
            warnings.warn(
                f"Jacobi iteration diverges: each of the {iterations} sweeps with "
                f"omega={omega:g} multiplies {growth}", RuntimeWarning, stacklevel=2)
    # the sweeps run without a check; the finiteness check of the one output
    # raster still sees a divergent run, since a sample that is once NaN or
    # Inf stays so (the center tap is non-zero)
    return Raster._from_array(
        _sweeps(r, s, b, tile_height, workers, iterations, center / omega))


def anomaly_residual(original: Raster, smoothed: Raster, source_band: str = "") -> AnomalyMap:
    """Smoothed minus original, per band."""
    if original.shape != smoothed.shape:
        raise ValueError(f"shape mismatch: {original.shape} vs {smoothed.shape}")
    scores = Raster._from_array(smoothed.data - original.data)
    return AnomalyMap(scores=scores, source_band=source_band)


def anomaly_highpass(
    r: Raster,
    s: Stencil,
    b: Boundary = Boundary.MIRROR,
    source_band: str = "",
    tile_height: int = DEFAULT_TILE_HEIGHT,
    workers: int | None = None,
) -> AnomalyMap:
    """Direct high-pass response of the stencil."""
    scores = convolve(r, s, b, tile_height, workers)
    return AnomalyMap(scores=scores, source_band=source_band)


def _threshold_bool(m: AnomalyMap, k_sigma: float) -> np.ndarray:
    """``threshold_mask`` as a bool array, for callers that count or combine."""
    if not (math.isfinite(k_sigma) and k_sigma >= 0.0):
        raise ValueError(f"k_sigma must be finite and non-negative, got {k_sigma}")
    scores = m.scores.data
    deviation = np.empty_like(scores)
    mu, sd = _mean_sd(scores, deviation)
    if sd == 0.0:
        return np.zeros(scores.shape, dtype=bool)
    np.subtract(scores, mu, out=deviation)
    np.abs(deviation, out=deviation)
    return deviation > k_sigma * sd


def _mean_sd(scores: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    """``(float(scores.mean()), float(scores.std()))``, bit for bit, with the
    squared deviations written to ``scratch`` (same shape, float64): the
    subtract, square, sum, divide and square root that ``std()`` runs, after
    its mean pass, which equals ``mean()``'s."""
    mu = float(scores.mean())
    np.subtract(scores, mu, out=scratch)
    np.square(scratch, out=scratch)
    return mu, math.sqrt(float(scratch.sum()) / scratch.size)


def threshold_mask(m: AnomalyMap, k_sigma: float) -> Raster:
    """Binary mask of scores more than k_sigma population standard deviations
    from the map mean; all zeros when the map is constant. ``k_sigma`` must be
    finite and non-negative."""
    return Raster._from_array(_threshold_bool(m, k_sigma).astype(np.float64))


@dataclass(frozen=True)
class DetectionMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    overall_accuracy: float
    auc: float

    @classmethod
    def from_counts(cls, tp, fp, tn, fn, auc):
        total = tp + fp + tn + fn
        precision = tp / (tp + fp) if tp + fp > 0 else 1.0
        recall = tp / (tp + fn) if tp + fn > 0 else 1.0
        accuracy = (tp + tn) / total if total > 0 else 1.0
        return cls(tp, fp, tn, fn, precision, recall, accuracy, auc)


def ranking_auc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Mann-Whitney AUC of |scores| against the binary truth, ties averaged.

    Degenerate truth (single class) yields 0.5: the ranking is untestable.
    """
    truth = np.asarray(truth, dtype=bool).ravel()
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    values = np.abs(scores).ravel()
    # only the positives' ranks are summed: a value tied over sorted
    # positions [start, end) has the 1-based average rank (start + end + 1) / 2.
    # Sorted queries keep searchsorted's walks through the values local. The
    # sum of twice the ranks is an exact int64; halving it once equals the
    # float sum of the half-integer ranks, in any order, while the raster has
    # at most 2^26 pixels: every partial sum is then at most
    # N (N + 1) / 2 < 2^52, and float64 holds every multiple of 0.5 below 2^52.
    positives = np.sort(values[truth])
    values.sort()  # in place: `values` is the fresh array np.abs made
    starts = np.searchsorted(values, positives, "left")
    ends = np.searchsorted(values, positives, "right")
    rank_sum = int((starts + ends + 1).sum()) / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def detector_metrics(m: AnomalyMap, truth: Raster, k_sigma: float = 3.0) -> DetectionMetrics:
    """Confusion counts of ``threshold_mask(m, k_sigma)`` against the truth
    (non-zero means anomalous) and the ranking AUC of the scores."""
    if m.scores.shape != truth.shape:
        raise ValueError(f"shape mismatch: {m.scores.shape} vs {truth.shape}")
    mask = _threshold_bool(m, k_sigma)
    t = np.asarray(truth.data, dtype=bool)
    auc = ranking_auc(m.scores.data, t)
    tp = int(np.count_nonzero(mask & t))
    flagged = int(np.count_nonzero(mask))
    positive = int(np.count_nonzero(t))
    fp = flagged - tp
    fn = positive - tp
    tn = t.size - flagged - fn
    return DetectionMetrics.from_counts(tp, fp, tn, fn, auc)


def compare_detectors(
    scores_a: AnomalyMap, scores_b: AnomalyMap, truth: Raster, k_sigma: float = 3.0
) -> tuple[DetectionMetrics, DetectionMetrics]:
    """``(detector_metrics(scores_a, ...), detector_metrics(scores_b, ...))``,
    the two computed at the same time.

    ``convolve._shares`` scores ``scores_a`` on the calling thread and, on
    two or more default workers, ``scores_b`` on a pool thread; numpy's sort,
    ``searchsorted`` and reductions release the GIL, so the two overlap. Each
    writes only its own temporaries, so the results are the bits of two
    serial calls. A failure of ``scores_a`` wins over one of ``scores_b``.
    """
    maps = (scores_a, scores_b)
    metrics = [None, None]

    def run(share):
        for i in share:
            metrics[i] = detector_metrics(maps[i], truth, k_sigma)

    _shares(range(2), run)
    return metrics[0], metrics[1]


@dataclass(frozen=True)
class ClassModel:
    """Per-class, per-band [lo, hi] boxes. intervals[class_id] has shape (bands, 2)."""

    band_count: int
    intervals: dict

    def __post_init__(self):
        if self.band_count < 1:
            raise ValueError("band_count must be positive")
        for cid, box in self.intervals.items():
            if cid < 1:
                raise ValueError(f"class ids must be positive, got {cid}")
            box = np.asarray(box, dtype=np.float64)
            if box.shape != (self.band_count, 2):
                raise ValueError(
                    f"class {cid}: expected {(self.band_count, 2)} intervals, got {box.shape}"
                )
            if np.any(box[:, 0] > box[:, 1]):
                raise ValueError(f"class {cid}: interval with lo > hi")

    def class_ids(self):
        return sorted(self.intervals)


def fit_parallelepiped(b: BandSet, roi_labels: Raster) -> ClassModel:
    """Per class and band, the interval mean +/- 2 population standard
    deviations over that class's ROI pixels. Labels must be integers; label 0
    means unlabeled."""
    if roi_labels.shape != (b.height, b.width):
        raise ValueError(
            f"ROI shape {roi_labels.shape} does not match bands {(b.height, b.width)}"
        )
    labels = roi_labels.data
    values = np.unique(labels)
    fractional = values[values != np.floor(values)]
    if fractional.size:
        raise ValueError(f"ROI label {float(fractional[0])!r} is not an integer")
    class_ids = [int(c) for c in values if c > 0]
    if not class_ids:
        raise ValueError("ROI contains no labeled pixels")
    intervals = {}
    for cid in class_ids:
        sel = labels == cid
        box = np.empty((len(b), 2))
        for bi, band in enumerate(b):
            pixels = band.data[sel]
            mu = float(pixels.mean())
            sd = float(pixels.std())
            box[bi] = (mu - 2.0 * sd, mu + 2.0 * sd)
        intervals[cid] = box
    return ClassModel(band_count=len(b), intervals=intervals)


def classify_parallelepiped(b: BandSet, m: ClassModel) -> Raster:
    """Assign each pixel the lowest class id whose box contains it in every
    band; 0 where no box matches. The boxes are tested on strips of
    ``DEFAULT_TILE_HEIGHT`` rows, so their temporaries stay a few rows tall."""
    if len(b) != m.band_count:
        raise ValueError(f"band set has {len(b)} bands, model expects {m.band_count}")
    labels = np.zeros((b.height, b.width))
    boxes = [(cid, np.asarray(m.intervals[cid], dtype=np.float64)) for cid in m.class_ids()]
    for row0 in range(0, b.height, DEFAULT_TILE_HEIGHT):
        rows = slice(row0, row0 + DEFAULT_TILE_HEIGHT)
        out = labels[rows]
        for cid, box in boxes:
            inside = out == 0
            for bi, band in enumerate(b):
                strip = band.data[rows]
                inside &= strip >= box[bi, 0]
                inside &= strip <= box[bi, 1]
            out[inside] = cid
    return Raster._from_array(labels)


def overall_accuracy(labels: Raster, truth: Raster) -> float:
    """Fraction of pixels whose label equals the reference label."""
    if labels.shape != truth.shape:
        raise ValueError(f"shape mismatch: {labels.shape} vs {truth.shape}")
    return float(np.count_nonzero(labels.data == truth.data)) / labels.data.size
