import dataclasses
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biharm.convolve import Boundary, convolve, convolve_reference
from biharm.pipeline import (
    AnomalyMap,
    ClassModel,
    _mean_sd,
    _threshold_bool,
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
from biharm.stencil import (
    Stencil,
    biharmonic_stencil,
    jacobi_range,
    laplacian_baseline,
    symbol_range,
)

from conftest import assert_ulp_close

BH = biharmonic_stencil(1.0, 1.0)


def _map(data):
    return AnomalyMap(scores=Raster(data), source_band="t")


def test_jacobi_constant_fixed_point():
    r = Raster(np.full((9, 10), 42.0))
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
    s = Stencil(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="center"):
        smooth_jacobi(Raster(np.zeros((8, 8))), s, 1, Boundary.ZERO)


def test_jacobi_rejects_bad_iterations():
    with pytest.raises(ValueError, match="iterations"):
        smooth_jacobi(Raster(np.zeros((8, 8))), BH, 0, Boundary.ZERO)


def test_jacobi_rejects_non_integer_iterations_before_warning():
    r = Raster(np.ones((8, 8)))
    for iterations in (1.5, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                smooth_jacobi(r, BH, iterations)
        assert str(info.value) == f"iterations must be an integer, got {iterations!r}"
    assert smooth_jacobi(r, BH, np.int64(1)).data.tobytes() == smooth_jacobi(r, BH, 1).data.tobytes()


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
        smooth_jacobi(Raster(np.zeros((8, 8))), BH, 1, Boundary.ZERO, omega=omega)


def test_jacobi_warns_when_repeated_sweeps_diverge():
    with pytest.warns(RuntimeWarning, match=r"diverges.*-2\.2.*0\.625"):
        smooth_jacobi(Raster(np.zeros((8, 8))), BH, 2, Boundary.MIRROR)


@pytest.mark.parametrize("iterations,omega", [(1, 1.0), (5, 0.3125), (5, 0.6)])
def test_jacobi_stable_or_single_sweep_does_not_warn(iterations, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smooth_jacobi(Raster(np.zeros((8, 8))), BH, iterations, Boundary.MIRROR, omega=omega)


# a 3x3 stencil whose symbol runs from -4 to 8: with center 4, one sweep
# multiplies the zero frequency by 1 + omega, so no omega > 0 is stable
GROWTH = Stencil([[-1, -1, -1], [-1, 4, -1], [-1, -1, -1]])


@pytest.mark.parametrize("stencil,omega,message", [
    # the symbol of the negated template is -A and its center -20: the same
    # factors, and the same sweeps, as the unit template's
    (Stencil(-BH.coeffs), 1.0,
     "Jacobi iteration diverges: each of the 3 sweeps with omega=1 multiplies "
     "the highest frequency by -2.2 (stable for omega < 0.625)"),
    (GROWTH, 0.5,
     "Jacobi iteration diverges: each of the 3 sweeps with omega=0.5 multiplies "
     "a frequency by 1.5 (no omega > 0 is stable)"),
    (GROWTH, 1.0,
     "Jacobi iteration diverges: each of the 3 sweeps with omega=1 multiplies "
     "a frequency by 2 (no omega > 0 is stable)"),
])
def test_jacobi_warns_for_every_factor_outside_unit_range(stencil, omega, message):
    with pytest.warns(RuntimeWarning) as caught:
        smooth_jacobi(Raster(np.zeros((8, 8))), stencil, 3, Boundary.MIRROR, omega=omega)
    assert [str(w.message) for w in caught] == [message]


@pytest.mark.parametrize("stencil,iterations,omega", [
    (laplacian_baseline(), 5, 1.0),
    (GROWTH, 1, 0.5),
    (Stencil(-BH.coeffs), 1, 1.0),
])
def test_jacobi_bounded_factors_or_single_sweep_do_not_warn(stencil, iterations, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smooth_jacobi(Raster(np.zeros((8, 8))), stencil, iterations, Boundary.MIRROR,
                      omega=omega)


def test_jacobi_factor_one_ulp_above_1_does_not_warn():
    # the symbol at theta = 0 of this zero-sum template rounds to a value
    # below 0, which puts the factor there one ulp above 1
    s = biharmonic_stencil(1.307, 0.477)
    omega = s.coeff(0, 0) / symbol_range(s)[1]
    assert jacobi_range(s, omega) == (0.0, 1.0 + 2.0**-52)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smooth_jacobi(Raster(np.zeros((8, 8))), s, 5, Boundary.MIRROR, omega=omega)


def test_jacobi_growth_stencil_grows_the_mean(rng):
    # the warning's case: a 32x32 N(100, 10) raster's mean goes from 99.5 to
    # 3.3e5 in 20 sweeps at omega = 0.5
    r = Raster(rng.normal(100, 10, (32, 32)))
    with pytest.warns(RuntimeWarning, match="no omega > 0 is stable"):
        out = smooth_jacobi(r, GROWTH, 20, Boundary.MIRROR, omega=0.5)
    assert out.data.mean() > 1000 * r.data.mean()


def _oracle_sweeps(r, s, b, iterations, omega):
    """Jacobi sweeps as a plain loop of reference convolutions."""
    cur = r
    for _ in range(iterations):
        cur = Raster(cur.data - convolve_reference(cur, s, b).data / (s.coeff(0, 0) / omega))
    return cur


def _quiet_smooth(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Jacobi iteration diverges", RuntimeWarning)
        return smooth_jacobi(*args, **kwargs)


@pytest.mark.parametrize("policy", list(Boundary))
@pytest.mark.parametrize("tile_height", [1, 7, 32, 40])
def test_jacobi_sweeps_bytes_equal_reference_loop(policy, tile_height, rng):
    data = rng.normal(100, 20, (37, 29))
    data[rng.random(data.shape) < 0.2] = 0.0
    data[rng.random(data.shape) < 0.2] = -0.0
    r = Raster(data)
    for iterations in (1, 3):
        for omega in (1.0, 0.3125):
            want = _oracle_sweeps(r, BH, policy, iterations, omega).data.tobytes()
            # no worker count from 2 to 5 divides 37 tiles, 4 and 5 leave
            # 6 tiles in unequal shares, and 2 or 1 tiles fewer than 3 workers
            for workers in (1, 2, 3, 4, 5):
                got = _quiet_smooth(r, BH, iterations, policy, tile_height, workers, omega)
                assert got.data.tobytes() == want, (iterations, omega, workers)


@pytest.mark.parametrize("shape,policy", [
    ((5, 5), Boundary.MIRROR),
    ((1, 9), Boundary.ZERO),
    ((1, 9), Boundary.WRAP),
    ((2, 1), Boundary.WRAP),
    ((1, 6), Boundary.REPLICATE),
    ((6, 1), Boundary.ZERO),
    ((6, 1), Boundary.WRAP),
    ((6, 1), Boundary.REPLICATE),
])
def test_jacobi_sweeps_bytes_equal_reference_loop_small(shape, policy, rng):
    # a tile's runs cross the ends of its rows, and the lanes that fall on
    # halo columns are dropped: 5 is the narrowest MIRROR raster and 1 the
    # narrowest of the others
    r = Raster(rng.normal(0, 5, shape))
    for iterations in (1, 3):
        for omega in (1.0, 0.3125):
            want = _oracle_sweeps(r, BH, policy, iterations, omega).data.tobytes()
            for tile_height, workers in ((1, 2), (2, 2), (shape[0], 2), (64, 1)):
                got = _quiet_smooth(r, BH, iterations, policy, tile_height, workers, omega)
                assert got.data.tobytes() == want


@pytest.mark.parametrize("stencil,iterations", [
    (BH, 40),
    (biharmonic_stencil(0.5, 2.0), 40),
    (laplacian_baseline(), 7),
])
def test_jacobi_wrap_matches_fourier_filter(stencil, iterations, rng):
    # on a periodic grid each sweep multiplies frequency theta by
    # 1 - omega A(theta)/center, A(theta) = sum c_pq cos(p theta_x + q theta_y)
    # as in symbol_range: N sweeps are that factor to the N-th power
    h, w = 96, 128
    data = rng.normal(100, 10, (h, w))
    center = stencil.coeff(0, 0)
    omega = center / symbol_range(stencil)[1]
    theta_y = 2 * np.pi * np.fft.fftfreq(h)[:, None]
    theta_x = 2 * np.pi * np.fft.fftfreq(w)[None, :]
    rad = stencil.radius
    symbol = sum(stencil.coeff(p, q) * np.cos(p * theta_x + q * theta_y)
                 for q in range(-rad, rad + 1) for p in range(-rad, rad + 1))
    want = np.fft.ifft2(np.fft.fft2(data) * (1 - omega * symbol / center) ** iterations).real
    got = smooth_jacobi(Raster(data), stencil, iterations, Boundary.WRAP, omega=omega).data
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_jacobi_divergence_still_fails_finiteness_check(rng):
    # 1000 plain sweeps multiply the Nyquist mode by 2.2^1000: float overflow
    r = Raster(rng.normal(100, 10, (16, 16)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="raster samples must be finite"):
            smooth_jacobi(r, BH, iterations=1000)
    assert any("diverges" in str(w.message) for w in caught)


def test_residual_trivial_cases():
    r = Raster(np.full((6, 6), 9.0))
    assert np.all(anomaly_residual(r, r).scores.data == 0.0)
    shifted = Raster(np.full((6, 6), 14.0))
    out = anomaly_residual(r, shifted)
    assert np.all(out.scores.data == 5.0)
    with pytest.raises(ValueError, match="mismatch"):
        anomaly_residual(r, Raster(np.zeros((6, 5))))


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
    out = anomaly_highpass(Raster(np.full((8, 8), 77.0)), BH, Boundary.MIRROR)
    assert np.all(out.scores.data == 0.0)


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


@pytest.mark.parametrize("k_sigma", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300])
def test_meaningless_k_sigma_raises(k_sigma):
    truth = Raster(np.eye(4))
    for data in (np.arange(16.0).reshape(4, 4), np.zeros((4, 4))):
        with pytest.raises(ValueError, match="k_sigma"):
            threshold_mask(_map(data), k_sigma)
        with pytest.raises(ValueError, match="k_sigma"):
            detector_metrics(_map(data), truth, k_sigma)


def test_threshold_zero_k_flags_everything_off_mean():
    data = np.array([[1.0, 3.0, 2.0, 2.0]])
    assert threshold_mask(_map(data), 0.0).data.tolist() == [[1.0, 1.0, 0.0, 0.0]]


@st.composite
def score_maps(draw):
    """2-D float64 score maps from 1x1 up: constant or not, with -0.0
    samples, at magnitudes from 1e-300 to 1e300."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    scale = draw(st.sampled_from([1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300]))
    unit = st.one_of(st.floats(-10.0, 10.0), st.just(-0.0))
    if draw(st.booleans()):
        values = [draw(unit)] * (shape[0] * shape[1])
    else:
        values = draw(st.lists(unit, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))
    return np.array(values).reshape(shape) * scale


@settings(max_examples=300, deadline=None)
@given(score_maps(), st.sampled_from([0.0, 3.0]))
@example(np.full((3, 1), 0.1), 0.0)  # the mean of a constant map rounds off it
@example(np.array([[1e-300, -1e-300]]), 3.0)  # the squares underflow: sd == 0
@example(np.array([[1e308, -1e308]]), 0.0)  # the squares overflow: sd == inf
def test_threshold_bool_equals_std_formula(s, k_sigma):
    # huge maps overflow std()'s squares or sums to inf, as they overflow the
    # mean pass, and then 0 * inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = float(s.mean()), float(s.std())
        got_mu, got_sd = _mean_sd(s, np.empty_like(s))
        mask = _threshold_bool(_map(s), k_sigma)
        want = np.abs(s - s.mean()) > k_sigma * s.std()
    assert repr((got_mu, got_sd)) == repr((mu, sd))
    if sd == 0.0:  # the documented rule for a map without spread
        want = np.zeros(s.shape, dtype=bool)
    assert mask.dtype == bool
    assert mask.tobytes() == want.tobytes()


def test_auc_perfect_and_uninformative():
    truth = np.zeros((10, 10))
    truth[2:4, 2:4] = 1.0
    assert ranking_auc(truth, truth) == 1.0
    assert ranking_auc(np.full((10, 10), 3.0), truth) == 0.5


def test_auc_uses_magnitude():
    truth = np.array([[1.0, 0.0, 0.0]])
    scores = np.array([[-9.0, 0.5, -0.25]])
    assert ranking_auc(scores, truth) == 1.0


@pytest.mark.parametrize("scores,message", [
    # a NaN positive would score 1.0, a NaN negative 0.0
    (np.array([np.nan, 1.0, 2.0, 3.0]), "scores must not be NaN"),
    (np.array([1.0, 2.0, 3.0]), "3 scores for 4 truth pixels"),
])
def test_auc_rejects_nan_and_size_mismatch(scores, message):
    with pytest.raises(ValueError) as info:
        ranking_auc(scores, [1, 0, 0, 0])
    assert str(info.value) == message


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


def _auc_raster_order(scores, truth):
    """The former formulation of ranking_auc: searchsorted queried in raster
    order, and the half-integer ranks summed as floats."""
    truth = truth.astype(bool).ravel()
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    values = np.abs(scores).ravel()
    ordered = np.sort(values)
    positives = values[truth]
    starts = np.searchsorted(ordered, positives, "left")
    ends = np.searchsorted(ordered, positives, "right")
    rank_sum = float(((starts + ends + 1) / 2.0).sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@settings(max_examples=300, deadline=None)
@given(_auc_inputs())
@example((np.full((5, 5), 3.0), np.eye(5)))
@example((np.array([2.0, -1.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.0])))
@example((np.array([2.0, -1.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])))
def test_auc_sorted_queries_repr_equal_raster_order(case):
    scores, truth = case
    assert repr(ranking_auc(scores, truth)) == repr(_auc_raster_order(scores, truth))


@pytest.mark.parametrize("share", [1e-4, 0.02, 0.5, 0.9999])
def test_auc_sorted_queries_repr_equal_raster_order_large(share, rng):
    # 600^2 pixels over 41 magnitudes: long tie runs and large rank sums
    scores = rng.integers(-20, 21, (600, 600)) * 0.25
    truth = (rng.random((600, 600)) < share).astype(np.float64)
    assert repr(ranking_auc(scores, truth)) == repr(_auc_raster_order(scores, truth))
    assert repr(ranking_auc(scores, truth.astype(bool))) == repr(_auc_raster_order(scores, truth))


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


@pytest.mark.parametrize("seed", [3, 17, 2026])
@pytest.mark.parametrize("k_sigma", [0.0, 1.0, 2.5, 3.0])
def test_compare_detectors_repr_equal_serial_calls(seed, k_sigma):
    rng = np.random.default_rng(seed)
    shape = (48 + seed % 29, 61)
    truth = Raster(np.where(rng.random(shape) < 0.04, 255.0, 0.0))  # non-zero is anomalous
    a = _map(rng.normal(0.0, 1.0, shape) + 4.0 * (truth.data != 0))
    b = _map(rng.integers(-12, 13, shape) * 0.5)  # long tie runs
    serial = (detector_metrics(a, truth, k_sigma), detector_metrics(b, truth, k_sigma))
    concurrent = compare_detectors(a, b, truth, k_sigma)
    for got, want in zip(concurrent, serial):
        for f in dataclasses.fields(want):
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name


@pytest.mark.parametrize("bad", ["a", "b", "both"])
def test_compare_detectors_shape_mismatch_raises_as_serial_calls(bad):
    truth = Raster(np.zeros((4, 5)))
    a = _map(np.ones((5, 4)) if bad in ("a", "both") else np.ones((4, 5)))
    b = _map(np.ones((3, 5)) if bad in ("b", "both") else np.ones((4, 5)))
    with pytest.raises(ValueError, match="shape mismatch") as serial:
        detector_metrics(a, truth)
        detector_metrics(b, truth)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="shape mismatch") as concurrent:
        compare_detectors(a, b, truth)
    assert str(concurrent.value) == str(serial.value)
    assert threading.active_count() == threads  # the helper thread was joined


def test_fit_single_class_constant():
    bands = BandSet([Raster(np.full((4, 4), 10.0))])
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
        fit_parallelepiped(BandSet([Raster(np.zeros((3, 3)))]), Raster(np.zeros((3, 3))))


@pytest.mark.parametrize("label", [1.5, -0.5, 2.0 + 2.0**-40])
def test_fit_rejects_non_integer_labels(label):
    # int() would truncate 1.5 to class 1, which selects no pixel and gets a NaN box
    roi = Raster([[label, 2.0], [0.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"ROI label {label!r} is not an integer"):
            fit_parallelepiped(BandSet([Raster(np.full((2, 2), 10.0))]), roi)


def test_fit_accepts_integral_float_labels():
    roi = Raster([[3.0, -1.0], [0.0, 3.0]])
    model = fit_parallelepiped(BandSet([Raster(np.full((2, 2), 10.0))]), roi)
    assert list(model.intervals) == [3]


def test_classify_box_membership_and_tiebreak():
    bands = BandSet([Raster([[5.0, 100.0, 5.0]])])
    model = ClassModel(band_count=1, intervals={
        2: np.array([[0.0, 10.0]]),
        5: np.array([[3.0, 7.0]]),
    })
    labels = classify_parallelepiped(bands, model).data
    # 5.0 sits in boxes 2 and 5 -> lowest id; 100.0 in none -> 0
    assert list(labels.ravel()) == [2.0, 0.0, 2.0]


def _classify_whole_raster(b, m):
    """The whole-raster loop the strips replaced: every class tests the full
    bands, and the lowest id wins."""
    labels = np.zeros((b.height, b.width))
    for cid, box in m.intervals.items():
        inside = np.ones((b.height, b.width), dtype=bool)
        for bi, band in enumerate(b):
            inside &= (band.data >= box[bi, 0]) & (band.data <= box[bi, 1])
        labels[(labels == 0) & inside] = cid
    return labels


# 1, 31, 32 and 33 rows sit around one strip of 32 rows; 97 is 4 strips,
# the last one short
@pytest.mark.parametrize("height", [1, 31, 32, 33, 97])
def test_classify_strips_match_the_whole_raster_loop(height):
    rng = np.random.default_rng(height)
    # integer samples land on the box edges; the boxes overlap and their ids
    # are not in key order, so the lowest id must win
    bands = BandSet([Raster(rng.integers(0, 10, (height, 40)) * 1.0) for _ in range(3)])
    model = ClassModel(band_count=3, intervals={
        7: np.array([[2.0, 6.0], [0.0, 9.0], [3.0, 8.0]]),
        3: np.array([[4.0, 9.0], [1.0, 7.0], [0.0, 5.0]]),
        5: np.array([[0.0, 4.0], [2.0, 9.0], [0.0, 9.0]]),
        1: np.array([[5.0, 5.0], [0.0, 9.0], [0.0, 9.0]]),
    })
    want = _classify_whole_raster(bands, model)
    assert len(np.unique(want)) == 5  # every class and the unlabeled 0
    got = classify_parallelepiped(bands, model).data
    assert got.tobytes() == want.tobytes()


def test_classify_memory_budget():
    # strips keep the box tests' temporaries a few rows tall: the label
    # raster plus its finiteness check, where full-raster bool temporaries
    # added about 3 MiB on top
    size = 1024
    rng = np.random.default_rng(8)
    bands = BandSet([Raster(rng.normal(100.0, 10.0, (size, size))) for _ in range(8)])
    model = ClassModel(band_count=8, intervals={
        cid: np.tile([90.0 - cid, 110.0 + cid], (8, 1)) for cid in (1, 2, 3)})
    tracemalloc.start()
    try:
        classify_parallelepiped(bands, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * size * size * 8


def test_classify_band_count_mismatch():
    bands = BandSet([Raster(np.zeros((2, 2))), Raster(np.zeros((2, 2)))])
    model = ClassModel(band_count=1, intervals={1: np.array([[0.0, 1.0]])})
    with pytest.raises(ValueError, match="bands"):
        classify_parallelepiped(bands, model)


def test_class_model_validation():
    with pytest.raises(ValueError, match="lo > hi"):
        ClassModel(band_count=1, intervals={1: np.array([[2.0, 1.0]])})
    with pytest.raises(ValueError, match="positive"):
        ClassModel(band_count=1, intervals={0: np.array([[0.0, 1.0]])})
    with pytest.raises(ValueError) as info:
        ClassModel(band_count=0, intervals={})
    assert str(info.value) == "band_count must be positive, got 0"
    with pytest.raises(ValueError) as info:
        ClassModel(band_count=2, intervals={1: [[0.0, 1.0]]})
    assert str(info.value) == "class 1: expected (2, 2) intervals, got (1, 2)"


def test_class_model_rejects_nan_bounds_and_non_integer_ids():
    for band_count, intervals, message in [
        (1, {1: [[np.nan, np.nan]]}, "class 1: interval with lo > hi or a NaN bound"),
        (1, {1: [[0.0, np.nan]]}, "class 1: interval with lo > hi or a NaN bound"),
        (1, {1.5: [[0.0, 2.0]]}, "class ids must be positive integers, got 1.5"),
        (1, {1.0: [[0.0, 2.0]]}, "class ids must be positive integers, got 1.0"),
        (1, {True: [[0.0, 2.0]]}, "class ids must be positive integers, got True"),
        (True, {1: [[0.0, 2.0]]}, "band_count must be an integer, got True"),
        (1.5, {1: [[0.0, 2.0]]}, "band_count must be an integer, got 1.5"),
    ]:
        with pytest.raises(ValueError) as info:
            ClassModel(band_count=band_count, intervals=intervals)
        assert str(info.value) == message
    # infinite bounds and numpy integer ids and band counts stay legal
    model = ClassModel(band_count=np.int64(1), intervals={np.int64(2): [[-np.inf, np.inf]]})
    assert list(model.intervals) == [2]


def test_class_model_holds_read_only_copies_in_id_order():
    box = [[0.0, 1.0]]
    intervals = {3: box, 1: np.array([[2, 5]])}
    model = ClassModel(band_count=1, intervals=intervals)
    assert list(model.intervals) == [1, 3]
    for got in model.intervals.values():
        assert got.dtype == np.float64 and not got.flags.writeable
    intervals[2] = [[0.0, 9.0]]
    intervals[1][0, 1] = 9
    box[0][1] = 9.0
    assert list(model.intervals) == [1, 3]
    assert model.intervals[1].tolist() == [[2.0, 5.0]]
    assert model.intervals[3].tolist() == [[0.0, 1.0]]


def test_stencil_and_class_model_compare_by_identity():
    # value equality over an array field raised ValueError, and hash TypeError
    assert biharmonic_stencil() != biharmonic_stencil()
    assert BH == BH
    model = ClassModel(band_count=1, intervals={1: np.array([[0.0, 1.0]])})
    assert model != ClassModel(band_count=1, intervals={1: np.array([[0.0, 1.0]])})
    assert len({BH, biharmonic_stencil(), model, model}) == 3


def test_overall_accuracy_basics():
    a = Raster([[1.0, 2.0], [1.0, 2.0]])
    assert overall_accuracy(a, a) == 1.0
    b = Raster([[1.0, 2.0], [2.0, 1.0]])
    assert overall_accuracy(a, b) == 0.5
    with pytest.raises(ValueError, match="mismatch"):
        overall_accuracy(a, Raster(np.zeros((2, 3))))


def test_zero_noise_two_class_scene_is_perfect():
    truth = np.ones((20, 20))
    truth[5:12, 6:15] = 2.0
    band = np.where(truth == 2.0, 150.0, 100.0)
    bands = BandSet([Raster(band), Raster(band * 0.5)])
    model = fit_parallelepiped(bands, Raster(truth))
    labels = classify_parallelepiped(bands, model)
    assert overall_accuracy(labels, Raster(truth)) == 1.0
