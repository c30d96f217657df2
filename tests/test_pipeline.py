import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biharm.convolve import Boundary, convolve
from biharm.pipeline import (
    AnomalyMap,
    ClassModel,
    MapMode,
    anomaly_highpass,
    anomaly_residual,
    classify_parallelepiped,
    compare_detectors,
    detector_metrics,
    fit_parallelepiped,
    overall_accuracy,
    ranking_auc,
    smooth_jacobi,
    threshold_mask,
)
from biharm.raster import BandSet, Raster
from biharm.stencil import Stencil, biharmonic_stencil, laplacian_baseline

from conftest import assert_ulp_close

BH = biharmonic_stencil(1.0, 1.0)


def _map(data, mode=MapMode.RESIDUAL):
    return AnomalyMap(scores=Raster(data), source_band="t", mode=mode)


def test_jacobi_constant_fixed_point():
    r = Raster.constant(10, 9, 42.0)
    with pytest.warns(RuntimeWarning, match="diverges"):
        out = smooth_jacobi(r, BH, iterations=3, b=Boundary.REPLICATE)
    assert np.array_equal(out.data, r.data)


def test_jacobi_planar_ramp_unchanged_interior():
    jj, ii = np.mgrid[0:16, 0:16]
    r = Raster(3.0 * ii - 2.0 * jj + 7.0)
    out = smooth_jacobi(r, BH, iterations=1, b=Boundary.REPLICATE)
    inner = slice(2, -2)
    np.testing.assert_allclose(out.data[inner, inner], r.data[inner, inner], rtol=1e-13)


def test_jacobi_rejects_zero_center():
    s = Stencil(radius=1, coeffs=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="center"):
        smooth_jacobi(Raster.constant(8, 8), s, 1, Boundary.ZERO)


def test_jacobi_rejects_bad_iterations():
    with pytest.raises(ValueError, match="iterations"):
        smooth_jacobi(Raster.constant(8, 8), BH, 0, Boundary.ZERO)


def test_jacobi_default_omega_is_plain_sweep(rng):
    r = Raster(rng.normal(100, 20, (24, 19)))
    plain = r.data - convolve(r, BH, Boundary.MIRROR).data / BH.coeff(0, 0)
    default = smooth_jacobi(r, BH, 1, Boundary.MIRROR).data
    explicit = smooth_jacobi(r, BH, 1, Boundary.MIRROR, omega=1.0).data
    assert np.array_equal(default, plain)
    assert np.array_equal(explicit, plain)


@pytest.mark.parametrize("omega", [0.0, -0.5, float("nan"), float("inf")])
def test_jacobi_rejects_bad_omega(omega):
    with pytest.raises(ValueError, match="omega"):
        smooth_jacobi(Raster.constant(8, 8), BH, 1, Boundary.ZERO, omega=omega)


def test_jacobi_warns_when_repeated_sweeps_diverge():
    with pytest.warns(RuntimeWarning, match=r"diverges.*-2\.2.*0\.625"):
        smooth_jacobi(Raster.constant(8, 8), BH, 2, Boundary.MIRROR)


@pytest.mark.parametrize("iterations,omega", [(1, 1.0), (5, 0.3125), (5, 0.6)])
def test_jacobi_stable_or_single_sweep_does_not_warn(iterations, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smooth_jacobi(Raster.constant(8, 8), BH, iterations, Boundary.MIRROR, omega=omega)


def test_residual_trivial_cases():
    r = Raster.constant(6, 6, 9.0)
    assert np.all(anomaly_residual(r, r).scores.data == 0.0)
    shifted = Raster.constant(6, 6, 14.0)
    out = anomaly_residual(r, shifted)
    assert np.all(out.scores.data == 5.0)
    assert out.mode is MapMode.RESIDUAL
    with pytest.raises(ValueError, match="mismatch"):
        anomaly_residual(r, Raster.constant(5, 6, 0.0))


def test_residual_of_impulse_after_one_sweep():
    data = np.zeros((11, 11))
    data[5, 5] = 100.0
    r = Raster(data)
    smoothed = smooth_jacobi(r, BH, 1, Boundary.ZERO)
    scores = anomaly_residual(r, smoothed).scores.data
    assert scores[5, 5] == -100.0
    for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        assert scores[5 + dj, 5 + di] == 40.0
    for dj, di in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert scores[5 + dj, 5 + di] == -10.0


def test_highpass_impulse_laplacian():
    data = np.zeros((7, 7))
    data[3, 3] = 1.0
    scores = anomaly_highpass(Raster(data), laplacian_baseline(), Boundary.ZERO).scores.data
    assert scores[3, 3] == 8.0
    neighbors = scores[2:5, 2:5].copy()
    neighbors[1, 1] = 0.0
    assert np.all(neighbors[[0, 0, 0, 1, 1, 2, 2, 2], [0, 1, 2, 0, 2, 0, 1, 2]] == -1.0)


def test_highpass_constant_zero():
    out = anomaly_highpass(Raster.constant(8, 8, 77.0), BH, Boundary.MIRROR)
    assert np.all(out.scores.data == 0.0)
    assert out.mode is MapMode.HIGHPASS


@pytest.mark.parametrize("policy", list(Boundary))
def test_residual_highpass_identity(policy, rng):
    for s in (BH, laplacian_baseline(), biharmonic_stencil(0.5, 2.0)):
        r = Raster(rng.normal(100, 15, (14, 17)))
        residual = anomaly_residual(r, smooth_jacobi(r, s, 1, policy)).scores.data
        highpass = anomaly_highpass(r, s, policy).scores.data
        # the residual subtraction rounds at the magnitude of the input field
        assert_ulp_close(residual, -highpass / s.coeff(0, 0),
                         4, scale=np.abs(r.data) + np.abs(residual))


def test_cubic_field_zero_scores():
    jj, ii = np.mgrid[0:20, 0:20].astype(float)
    field = 2.0 + ii - 3.0 * jj + 0.5 * ii * jj + 0.1 * ii**3 - 0.2 * jj**2 * ii
    out = anomaly_highpass(Raster(field), BH, Boundary.ZERO).scores.data
    scale = np.abs(field).max()
    assert np.all(np.abs(out[2:-2, 2:-2]) <= 1e-8 * scale)


def test_shift_equivariance_wrap(rng):
    data = rng.normal(0, 1, (16, 16))
    rolled = np.roll(data, (3, 5), axis=(0, 1))
    hp = anomaly_highpass(Raster(data), BH, Boundary.WRAP).scores.data
    hp_rolled = anomaly_highpass(Raster(rolled), BH, Boundary.WRAP).scores.data
    assert np.array_equal(np.roll(hp, (3, 5), axis=(0, 1)), hp_rolled)
    res = anomaly_residual(Raster(data), smooth_jacobi(Raster(data), BH, 1, Boundary.WRAP)).scores.data
    res_rolled = anomaly_residual(
        Raster(rolled), smooth_jacobi(Raster(rolled), BH, 1, Boundary.WRAP)
    ).scores.data
    assert np.array_equal(np.roll(res, (3, 5), axis=(0, 1)), res_rolled)


def test_monotone_band_attenuation():
    # anomaly amplitude decreasing with band index => max |score| non-increasing
    amps = (80.0, 40.0, 20.0, 5.0)
    base = np.full((24, 24), 100.0)
    peaks = []
    for amp in amps:
        data = base.copy()
        data[10:13, 9:12] += amp
        peaks.append(np.abs(anomaly_highpass(Raster(data), BH, Boundary.MIRROR).scores.data).max())
    assert all(a >= b for a, b in zip(peaks, peaks[1:]))


def test_threshold_zero_sigma_rule():
    assert np.all(threshold_mask(_map(np.zeros((5, 5))), 3.0).data == 0.0)
    assert np.all(threshold_mask(_map(np.full((5, 5), 7.0)), 0.001).data == 0.0)


def test_threshold_flags_exactly_the_outlier():
    data = np.zeros(100)
    data[37] = 1000.0
    mask = threshold_mask(_map(data.reshape(10, 10)), 3.0).data
    assert mask.sum() == 1
    assert mask.reshape(-1)[37] == 1.0


def test_threshold_small_k_flags_everything_off_mean():
    data = np.array([[1.0, 1.0, 5.0, 5.0]])
    mask = threshold_mask(_map(data), 1e-9).data
    assert np.all(mask == 1.0)


def test_threshold_affine_invariance(rng):
    data = rng.integers(0, 50, (12, 12)).astype(float)
    base = threshold_mask(_map(data), 1.5).data
    scaled = threshold_mask(_map(2.5 * data + 7.0), 1.5).data
    assert np.array_equal(base, scaled)


def test_auc_perfect_and_uninformative():
    truth = np.zeros((10, 10))
    truth[2:4, 2:4] = 1.0
    assert ranking_auc(truth, truth) == 1.0
    assert ranking_auc(np.full((10, 10), 3.0), truth) == 0.5


def test_auc_uses_magnitude():
    truth = np.array([[1.0, 0.0, 0.0]])
    scores = np.array([[-9.0, 0.5, -0.25]])
    assert ranking_auc(scores, truth) == 1.0


def _auc_unique_ranks(scores, truth):
    """The former np.unique formulation of ranking_auc: average ranks of every
    pixel, gathered at the truth pixels."""
    truth = truth.astype(bool).ravel()
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    _, inverse, counts = np.unique(np.abs(scores).ravel(), return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    ranks = ((starts + ends + 1) / 2.0)[inverse]
    return (float(ranks[truth].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _auc_pairwise(scores, truth):
    """Mann-Whitney U by counting every (positive, negative) pair, ties 0.5."""
    values = np.abs(scores).ravel()
    truth = truth.astype(bool).ravel()
    pos, neg = values[truth][:, None], values[~truth][None, :]
    if pos.size == 0 or neg.size == 0:
        return 0.5
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return wins / (pos.size * neg.size)


# few distinct magnitudes, so most pixels tie; 0.0 and -0.0 are one magnitude
_TIED_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 3.0, 1e-300, -7.0]


@st.composite
def _auc_inputs(draw):
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 40)),
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
    ))
    size = int(np.prod(shape))
    value = st.one_of(st.sampled_from(_TIED_VALUES),
                      st.floats(-1e6, 1e6, allow_nan=False))
    if draw(st.booleans()):
        scores = [draw(value)] * size
    else:
        scores = draw(st.lists(value, min_size=size, max_size=size))
    kind = draw(st.sampled_from(["random", "one-positive", "one-negative"]))
    if kind == "random":
        truth = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    else:
        index = draw(st.integers(0, size - 1))
        truth = [kind == "one-negative"] * size
        truth[index] = not truth[index]
    return (np.array(scores, dtype=np.float64).reshape(shape),
            np.array(truth, dtype=np.float64).reshape(shape))


@settings(max_examples=300, deadline=None)
@given(_auc_inputs())
@example((np.array([0.0, -0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 1.0])))
@example((np.full((3, 4), -2.0), np.eye(3, 4)))
@example((np.array([[5.0, 5.0], [-5.0, 1.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])))
@example((np.array([4.0, -4.0, 4.0]), np.array([1.0, 1.0, 0.0])))
def test_auc_matches_unique_ranks_and_pairwise_count(case):
    scores, truth = case
    auc = ranking_auc(scores, truth)
    assert auc == _auc_unique_ranks(scores, truth)
    assert abs(auc - _auc_pairwise(scores, truth)) <= 1e-12


def test_detector_metrics_counts():
    truth = Raster([[1.0, 0.0], [0.0, 0.0]])
    scores = _map(np.array([[100.0, 0.0], [0.0, 0.0]]))
    m = detector_metrics(scores, truth, 1.0)
    assert (m.tp, m.fp, m.tn, m.fn) == (1, 0, 3, 0)
    assert m.precision == 1.0 and m.recall == 1.0 and m.overall_accuracy == 1.0
    assert m.auc == 1.0


def test_compare_detectors_pair():
    truth = Raster([[1.0, 0.0], [0.0, 0.0]])
    good = _map(np.array([[50.0, 0.0], [0.0, 0.0]]))
    flat = _map(np.ones((2, 2)))
    m_good, m_flat = compare_detectors(good, flat, truth)
    assert m_good.auc == 1.0
    assert m_flat.auc == 0.5
    assert m_flat.precision == 1.0  # empty mask: no positives claimed


def test_fit_single_class_constant():
    bands = BandSet([Raster.constant(4, 4, 10.0)])
    roi = Raster(np.ones((4, 4)))
    model = fit_parallelepiped(bands, roi)
    assert np.array_equal(model.intervals[1], [[10.0, 10.0]])


def test_fit_two_value_class():
    band = Raster([[0.0, 10.0], [0.0, 10.0]])
    roi = Raster(np.ones((2, 2)))
    model = fit_parallelepiped(BandSet([band]), roi)
    assert np.array_equal(model.intervals[1], [[-5.0, 15.0]])


def test_fit_disjoint_classes_independent():
    band = Raster([[1.0, 1.0], [9.0, 9.0]])
    roi = Raster([[1.0, 1.0], [2.0, 2.0]])
    model = fit_parallelepiped(BandSet([band]), roi)
    assert np.array_equal(model.intervals[1], [[1.0, 1.0]])
    assert np.array_equal(model.intervals[2], [[9.0, 9.0]])


def test_fit_requires_labels():
    with pytest.raises(ValueError, match="no labeled"):
        fit_parallelepiped(BandSet([Raster.constant(3, 3)]), Raster(np.zeros((3, 3))))


def test_classify_box_membership_and_tiebreak():
    bands = BandSet([Raster([[5.0, 100.0, 5.0]])])
    model = ClassModel(band_count=1, intervals={
        2: np.array([[0.0, 10.0]]),
        5: np.array([[3.0, 7.0]]),
    })
    labels = classify_parallelepiped(bands, model).data
    # 5.0 sits in boxes 2 and 5 -> lowest id; 100.0 in none -> 0
    assert list(labels.ravel()) == [2.0, 0.0, 2.0]


def test_classify_band_count_mismatch():
    bands = BandSet([Raster.constant(2, 2), Raster.constant(2, 2)])
    model = ClassModel(band_count=1, intervals={1: np.array([[0.0, 1.0]])})
    with pytest.raises(ValueError, match="bands"):
        classify_parallelepiped(bands, model)


def test_class_model_validation():
    with pytest.raises(ValueError, match="lo > hi"):
        ClassModel(band_count=1, intervals={1: np.array([[2.0, 1.0]])})
    with pytest.raises(ValueError, match="positive"):
        ClassModel(band_count=1, intervals={0: np.array([[0.0, 1.0]])})


def test_overall_accuracy_basics():
    a = Raster([[1.0, 2.0], [1.0, 2.0]])
    assert overall_accuracy(a, a) == 1.0
    b = Raster([[1.0, 2.0], [2.0, 1.0]])
    assert overall_accuracy(a, b) == 0.5
    with pytest.raises(ValueError, match="mismatch"):
        overall_accuracy(a, Raster.constant(3, 2))


def test_zero_noise_two_class_scene_is_perfect():
    truth = np.ones((20, 20))
    truth[5:12, 6:15] = 2.0
    band = np.where(truth == 2.0, 150.0, 100.0)
    bands = BandSet([Raster(band), Raster(band * 0.5)])
    model = fit_parallelepiped(bands, Raster(truth))
    labels = classify_parallelepiped(bands, model)
    assert overall_accuracy(labels, Raster(truth)) == 1.0
