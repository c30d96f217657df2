"""The paper's detector claim, tested through library calls.

The claim: the optimal 5x5 smoother finds anomalies better than existing
methods. Its residual against N Jacobi sweeps at ``omega_auto`` is scored
against the 3x3 Laplacian, and against controls that can win for other
reasons: divergent plain sweeps, the trivial ``|u - mean(u)|`` and one-pass
mean-filter residuals of the template's size and larger.

Every case is the same 12 (the fixture seed and seeds 1-3, bands 0-2) on
three scenes: the flat fixture at sigma 2, and the fixture with a linear
trend at sigma 2 and 8. The trended fixture with its two anomalies swapped
for two disks of one radius shows how the finding turns with the anomaly
scale. Global RX, the standard multiband detector, scores each seed's three
bands at once against each spatial detector's best band, on all eleven
scenes. Six textured scenes add two smooth random fields, mixed with other
gains into each band, to three of them; there local RX is the control too.
The paper's smoother read as a variational one, (I + lam Delta^2) u = f, is
solved in closed form at four scales and scored on every scene.
The counts are what was measured, the losing ones included; a change to any
of them is a change to the finding, and to README's claim tables, which
``test_readme_claim_tables`` checks against them.

Every test reads one table, ``_aucs``, built once per session: per scene
and seed, the RX and local RX AUCs and each band's AUC under each detector.
Sweeps and filters run on one worker: on 96x96 bands a pool costs more than
the pass, and the output does not depend on the worker count.
"""
import dataclasses
import functools
import os
import re

import numpy as np
import pytest

from biharm.convolve import Boundary, convolve
from biharm.pipeline import anomaly_residual, ranking_auc, smooth_jacobi
from biharm.raster import Raster
from biharm.scene import Disk, gaussian, parse_scene_spec, substream_seed, synth_scene
from biharm.stencil import Stencil, biharmonic_stencil, laplacian_baseline, omega_auto, symbol

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SEEDS = (20260824, 1, 2, 3)
BH = biharmonic_stencil(1.0, 1.0)


def _spec(name, **changes):
    with open(os.path.join(FIXTURES, name)) as fh:
        return dataclasses.replace(parse_scene_spec(fh.read()), **changes)


def mean_residual(k):
    """(2k+1)^2 times the pixel minus its (2k+1)x(2k+1) mean."""
    coeffs = np.full((2 * k + 1, 2 * k + 1), -1.0)
    coeffs[k, k] = (2 * k + 1) ** 2 - 1
    return Stencil(coeffs)


def test_3x3_mean_residual_is_the_laplacian():
    assert np.array_equal(mean_residual(1).coeffs, laplacian_baseline().coeffs)


# per scene: how many of the 12 cases each detector wins; every row but the
# last two is scored against the Laplacian, those two against 100 damped sweeps
CLAIM_COUNTS = {
    "flat-sigma2": {"1 plain sweep": 1, "5 damped": 11, "20 damped": 9, "100 damped": 12,
                    "3 plain, divergent": 9, "|u - mean(u)|": 12, "5x5 mean residual": 12,
                    "7x7 mean residual": 12},
    "trend-sigma2": {"1 plain sweep": 1, "5 damped": 11, "20 damped": 9, "100 damped": 12,
                     "3 plain, divergent": 9, "|u - mean(u)|": 0, "5x5 mean residual": 12,
                     "7x7 mean residual": 12},
    "trend-sigma8": {"1 plain sweep": 0, "5 damped": 1, "20 damped": 4, "100 damped": 12,
                     "3 plain, divergent": 5, "|u - mean(u)|": 1, "5x5 mean residual": 12,
                     "7x7 mean residual": 12},
}
AGAINST_SWEEPS = ("5x5 mean residual", "7x7 mean residual")


def _disks(radius, sigma):
    """The trended fixture at ``sigma``, its two anomalies replaced by disks
    of ``radius`` at their centres, with their amplitudes."""
    return _spec("compare_scene_trend.txt", sigma=sigma, anomalies=(
        Disk(30, 34, radius, (60.0, 40.0, 25.0)),
        Disk(61, 59, radius, (55.0, 35.0, 20.0)),
    ))


# per disk radius and sigma: in how many of the 12 cases 100 damped sweeps
# beat the 5x5 mean residual, and in how many they beat the Laplacian
DISK_COUNTS = {
    (1, 2.0): (0, 6), (1, 8.0): (0, 12),
    (2.5, 2.0): (0, 12), (2.5, 8.0): (0, 12),
    (5, 2.0): (10, 12), (5, 8.0): (5, 12),
    (8, 2.0): (10, 12), (8, 8.0): (0, 12),
}

RX_SCENES = {
    "flat-sigma2": _spec("compare_scene.txt"),
    "trend-sigma2": _spec("compare_scene_trend.txt"),
    "trend-sigma8": _spec("compare_scene_trend.txt", sigma=8.0),
    **{f"r{r}-sigma{s:g}": _disks(r, s) for r, s in DISK_COUNTS},
}

# per band: the gains of the two texture fields
TEXTURE_GAINS = ((1.0, 0.2), (0.3, 1.0), (0.7, -0.6))
# textured scene name -> (the scene it textures, the fields' SD A)
TEXTURED = {f"{base}-A{a}": (base, a)
            for base in ("trend-sigma2", "r2.5-sigma2", "r5-sigma2") for a in (20, 60)}


@functools.cache
def _smooth_noise(seed, index, h, w):
    """60 sweeps at ``omega_auto`` of the white noise of substream ``index``."""
    noise = Raster._from_array(gaussian(substream_seed(seed, index), h * w).reshape(h, w))
    return smooth_jacobi(noise, BH, 60, Boundary.MIRROR, workers=1, omega=omega_auto(BH)).data


def _texture(bands, seed, amplitude):
    """``bands`` with ``g1 f1 + g2 f2`` added to each, ``(g1, g2)`` its row of
    ``TEXTURE_GAINS``. The fields f1 and f2 are the scene seed's
    ``_smooth_noise`` of substreams 3 and 4 (its bands use 0-2), each scaled
    to SD ``amplitude``."""
    f1, f2 = (f * (amplitude / f.std())
              for f in (_smooth_noise(seed, i, bands.height, bands.width) for i in (3, 4)))
    return [Raster._from_array(band.data + g1 * f1 + g2 * f2)
            for band, (g1, g2) in zip(bands, TEXTURE_GAINS)]


def rx(bands):
    """Global RX (Reed and Yu, 1990): each pixel's squared Mahalanobis
    distance from the scene's mean band vector, under the scene's band
    covariance."""
    x = np.stack([band.data.ravel() for band in bands])
    d = x - x.mean(axis=1, keepdims=True)
    return np.einsum("in,ij,jn->n", d, np.linalg.inv(np.cov(x)), d)


def local_rx(bands, outer=10, guard=5):
    """Local RX (Matteoli et al., 2010): each pixel's squared Mahalanobis
    distance from the mean band vector of its background, under that
    background's band covariance. The background is the ring of pixels
    inside the (2 outer + 1)^2 window and outside the (2 guard + 1)^2 guard
    window centred on the pixel: at 21x21 and 11x11, 320 pixels, and the
    guard centred on a disk of radius 5 holds all of it. Ring sums of the bands and their
    products come from ``convolve`` (mirror boundary); the 3x3 inverses
    from one batched ``np.linalg.inv``."""
    ring = np.ones((2 * outer + 1, 2 * outer + 1))
    ring[outer - guard:outer + guard + 1, outer - guard:outer + guard + 1] = 0.0
    ring = Stencil(ring)
    count = ring.coeffs.sum()

    def mean(a):
        return convolve(Raster._from_array(a), ring, Boundary.MIRROR, workers=1).data / count

    x = np.stack([band.data for band in bands], axis=-1)
    mu = np.stack([mean(band.data) for band in bands], axis=-1)
    n = x.shape[-1]
    cov = np.empty(x.shape + (n,))
    for i in range(n):
        for j in range(i, n):
            cov[..., i, j] = cov[..., j, i] = mean(x[..., i] * x[..., j]) - mu[..., i] * mu[..., j]
    d = x - mu
    return np.einsum("...i,...ij,...j->...", d, np.linalg.inv(cov), d)


# the weights of the smoothness term, fixed before any count was read
LAMBDAS = (1, 10, 100, 1000)


@functools.cache
def _symbol(h, w):
    """The template's symbol A(theta) = sum c_pq cos(p theta_x + q theta_y)
    at the frequencies of ``rfft2`` on an h x w grid."""
    theta_y = 2 * np.pi * np.fft.fftfreq(h)[:, None]
    theta_x = 2 * np.pi * np.fft.rfftfreq(w)[None, :]
    rad = BH.radius
    return sum(BH.coeff(p, q) * np.cos(p * theta_x + q * theta_y)
               for q in range(-rad, rad + 1) for p in range(-rad, rad + 1))


@pytest.mark.parametrize("h,w", [(96, 96), (190, 190), (7, 12)])
def test_stencil_symbol_is_the_cosine_sum(h, w):
    """``stencil.symbol``'s separable form against ``_symbol``'s 13-term sum."""
    want = _symbol(h, w)
    got = symbol(BH, 2 * np.pi * np.fft.fftfreq(h), 2 * np.pi * np.fft.rfftfreq(w))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def variational(f, lam, boundary=Boundary.MIRROR):
    """The paper's smoother read as a variational one: the minimiser u of
    |u - f|^2 + lam |Delta u|^2 solves (I + lam Delta^2) u = f, which is
    ``u = f / (1 + lam A)`` on a periodic grid (WRAP). MIRROR is the periodic
    grid of ``f``'s whole-sample symmetric extension."""
    h, w = f.shape
    if boundary is Boundary.MIRROR:
        f = np.pad(f, ((0, h - 2), (0, w - 2)), "reflect")
    u = np.fft.irfft2(np.fft.rfft2(f) / (1 + lam * _symbol(*f.shape)), f.shape)
    return u[:h, :w]


@pytest.mark.parametrize("boundary", [Boundary.MIRROR, Boundary.WRAP])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_variational_solves_its_equation(boundary, lam):
    """``variational`` against the library's engine: u + lam BH(u) = f."""
    f = np.random.default_rng(7).normal(100, 10, (96, 96))
    u = variational(f, lam, boundary)
    lhs = u + lam * convolve(Raster(u), BH, boundary, workers=1).data
    assert np.max(np.abs(lhs - f)) <= 1e-9 * np.max(np.abs(f))


def _band_aucs(band, anomalous, every_detector):
    """Each detector's AUC on ``band``: 100 damped sweeps, the 5x5 mean
    residual, the Laplacian, the variational residual at each of
    ``LAMBDAS`` and, with ``every_detector``, the rest."""
    omega = omega_auto(BH)

    def auc(scores):
        return ranking_auc(scores, anomalous)

    def swept(iterations, w):
        smoothed = smooth_jacobi(band, BH, iterations, Boundary.MIRROR, workers=1, omega=w)
        return auc(anomaly_residual(band, smoothed).scores.data)

    def filtered(stencil):
        return auc(convolve(band, stencil, Boundary.MIRROR, workers=1).data)

    aucs = {"100 damped": swept(100, omega), "5x5 mean residual": filtered(mean_residual(2)),
            "Laplacian": filtered(laplacian_baseline())}
    aucs.update({lam: auc(variational(band.data, lam) - band.data) for lam in LAMBDAS})
    if every_detector:
        with pytest.warns(RuntimeWarning, match="diverges"):
            aucs["3 plain, divergent"] = swept(3, 1.0)
        aucs.update({
            "1 plain sweep": swept(1, 1.0),
            "5 damped": swept(5, omega),
            "20 damped": swept(20, omega),
            "|u - mean(u)|": auc(band.data - band.data.mean()),
            "7x7 mean residual": filtered(mean_residual(3)),
        })
    return aucs


@functools.cache
def _aucs(name):
    """Per seed of scene ``name``: the RX AUC of its three bands, their local
    RX AUC on the textured scenes (else None), and each band's
    ``_band_aucs``."""
    base, amplitude = TEXTURED.get(name, (name, 0))
    rows = []
    for seed in SEEDS:
        bands, truth = synth_scene(dataclasses.replace(RX_SCENES[base], seed=seed))
        anomalous = truth.data != 0.0
        local = None
        if amplitude:
            bands = _texture(bands, seed, amplitude)
            local = ranking_auc(local_rx(bands), anomalous)
        rows.append((ranking_auc(rx(bands), anomalous), local,
                     [_band_aucs(band, anomalous, name in CLAIM_COUNTS) for band in bands]))
    return rows


@pytest.mark.parametrize("name", list(CLAIM_COUNTS))
def test_detector_claim_counts(name):
    wins = dict.fromkeys(CLAIM_COUNTS[name], 0)
    for _, _, bands in _aucs(name):
        for aucs in bands:
            for detector in wins:
                against = "100 damped" if detector in AGAINST_SWEEPS else "Laplacian"
                wins[detector] += aucs[detector] > aucs[against]
    assert wins == CLAIM_COUNTS[name]


@pytest.mark.parametrize("radius,sigma", list(DISK_COUNTS),
                         ids=[f"r{r}-sigma{s:g}" for r, s in DISK_COUNTS])
def test_detector_claim_counts_by_disk_radius(radius, sigma):
    beats_mean, beats_laplacian = 0, 0
    for _, _, bands in _aucs(f"r{radius}-sigma{sigma:g}"):
        for aucs in bands:
            beats_mean += aucs["100 damped"] > aucs["5x5 mean residual"]
            beats_laplacian += aucs["100 damped"] > aucs["Laplacian"]
    assert (beats_mean, beats_laplacian) == DISK_COUNTS[radius, sigma]


SPATIAL = ("100 damped", "5x5 mean residual", "Laplacian")


def _best(bands):
    """Each of ``SPATIAL``'s AUCs on its best band."""
    return [max(aucs[d] for aucs in bands) for d in SPATIAL]


# per scene: for how many of the 4 seeds RX on the three bands beats the best
# band of 100 damped sweeps, of the 5x5 mean residual and of the Laplacian
RX_COUNTS = {
    "flat-sigma2": (4, 4, 4), "trend-sigma2": (4, 4, 4), "trend-sigma8": (2, 0, 4),
    "r1-sigma2": (0, 0, 0), "r1-sigma8": (0, 0, 0),
    "r2.5-sigma2": (4, 4, 4), "r2.5-sigma8": (4, 3, 4),
    "r5-sigma2": (4, 4, 4), "r5-sigma8": (4, 4, 4),
    "r8-sigma2": (4, 4, 4), "r8-sigma8": (4, 4, 4),
    "trend-sigma2-A20": (3, 2, 3), "trend-sigma2-A60": (1, 1, 0),
    "r2.5-sigma2-A20": (3, 3, 3), "r2.5-sigma2-A60": (1, 1, 0),
    "r5-sigma2-A20": (4, 4, 4), "r5-sigma2-A60": (1, 1, 0),
}


@pytest.mark.parametrize("name", list(RX_COUNTS))
def test_rx_control_counts(name):
    """RX, the standard multiband anomaly detector, as a control: it scores
    each seed's three bands at once, where each spatial detector scores one
    band at a time and keeps its best band.

    Caveat: these scenes favour a spectral detector. Every anomaly has a
    spectral shape of its own (amplitudes 60/40/25 and 55/35/20 across the
    bands), while the background noise is independent across bands and the
    trend is the same in each, so the band covariance holds little that
    looks like an anomaly."""
    wins = [0, 0, 0]
    for rx_auc, _, bands in _aucs(name):
        wins = [n + (rx_auc > b) for n, b in zip(wins, _best(bands))]
    assert tuple(wins) == RX_COUNTS[name]


# per textured scene: in how many of the 12 cases 100 damped sweeps beat the
# 5x5 mean residual and the Laplacian; for how many of the 4 seeds local RX
# beats the best band of each of ``SPATIAL``, and global RX
TEXTURED_COUNTS = {
    "trend-sigma2-A20": ((2, 6), (3, 2, 3, 2)), "trend-sigma2-A60": ((5, 1), (2, 2, 0, 3)),
    "r2.5-sigma2-A20": ((1, 6), (3, 3, 4, 2)), "r2.5-sigma2-A60": ((5, 1), (2, 3, 0, 3)),
    "r5-sigma2-A20": ((5, 6), (4, 4, 4, 0)), "r5-sigma2-A60": ((6, 0), (4, 4, 0, 4)),
}


@pytest.mark.parametrize("name", list(TEXTURED_COUNTS))
def test_textured_scene_counts(name):
    """Texture at the anomalies' scale that differs across the bands takes
    away what favours global RX on the untextured scenes. Local RX, whose
    statistics follow the texture, is the existing-method control here."""
    sweeps, local = [0, 0], [0, 0, 0, 0]
    for rx_auc, local_auc, bands in _aucs(name):
        for aucs in bands:
            sweeps = [n + (aucs["100 damped"] > aucs[d])
                      for n, d in zip(sweeps, ("5x5 mean residual", "Laplacian"))]
        local = [n + (local_auc > b) for n, b in zip(local, _best(bands) + [rx_auc])]
    assert (tuple(sweeps), tuple(local)) == TEXTURED_COUNTS[name]


# per scene, each tuple one count per lambda of ``LAMBDAS``: in how many of the
# 12 cases the variational residual beats the 5x5 mean residual, in how many
# it beats 100 damped sweeps, for how many of the 4 seeds global RX beats its
# best band, and on the textured scenes for how many local RX does
VARIATIONAL_COUNTS = {
    "flat-sigma2": ((0, 12, 12, 12), (0, 12, 12, 12), (4, 0, 0, 0)),
    "trend-sigma2": ((0, 12, 12, 12), (0, 12, 12, 12), (4, 0, 0, 0)),
    "trend-sigma8": ((0, 12, 12, 12), (0, 12, 12, 12), (4, 0, 0, 0)),
    "r1-sigma2": ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    "r1-sigma8": ((0, 9, 9, 9), (0, 10, 10, 10), (0, 0, 0, 0)),
    "r2.5-sigma2": ((0, 12, 12, 12), (0, 12, 12, 12), (4, 0, 0, 0)),
    "r2.5-sigma8": ((0, 12, 12, 12), (0, 12, 12, 12), (4, 0, 0, 0)),
    "r5-sigma2": ((3, 12, 12, 12), (0, 6, 12, 12), (4, 4, 4, 0)),
    "r5-sigma8": ((0, 10, 12, 12), (0, 11, 12, 12), (4, 4, 0, 0)),
    "r8-sigma2": ((3, 12, 12, 12), (0, 12, 12, 12), (4, 4, 4, 0)),
    "r8-sigma8": ((0, 12, 12, 12), (0, 12, 12, 12), (4, 4, 4, 0)),
    "trend-sigma2-A20": ((4, 3, 5, 6), (5, 7, 7, 7), (3, 2, 1, 0), (3, 2, 0, 0)),
    "trend-sigma2-A60": ((10, 5, 3, 5), (11, 7, 5, 5), (1, 1, 1, 0), (0, 2, 0, 1)),
    "r2.5-sigma2-A20": ((5, 5, 6, 8), (7, 8, 7, 8), (3, 2, 1, 0), (3, 2, 1, 0)),
    "r2.5-sigma2-A60": ((8, 6, 4, 3), (11, 6, 6, 3), (1, 1, 1, 0), (1, 3, 2, 1)),
    "r5-sigma2-A20": ((8, 0, 7, 11), (6, 1, 6, 11), (4, 4, 4, 1), (4, 4, 3, 0)),
    "r5-sigma2-A60": ((7, 3, 4, 7), (12, 5, 5, 8), (0, 2, 1, 0), (2, 4, 4, 1)),
}


@pytest.mark.parametrize("name", list(VARIATIONAL_COUNTS))
def test_variational_counts(name):
    """The paper's smoother in closed form, at four scales fixed in advance,
    against the 5x5 mean residual, 100 damped sweeps, global RX and local RX."""
    counts = []
    for lam in LAMBDAS:
        wins = [0, 0, 0, 0]
        for rx_auc, local_auc, bands in _aucs(name):
            best = max(aucs[lam] for aucs in bands)
            wins[0] += sum(aucs[lam] > aucs["5x5 mean residual"] for aucs in bands)
            wins[1] += sum(aucs[lam] > aucs["100 damped"] for aucs in bands)
            wins[2] += rx_auc > best
            wins[3] += local_auc is not None and local_auc > best
        counts.append(wins)
    counts = tuple(zip(*counts))
    assert counts[:3 + (name in TEXTURED)] == VARIATIONAL_COUNTS[name]


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# the dicts of README's detector-claim tables, in their order there, each
# keyed by the labels of its table's rows; CLAIM_COUNTS has one row per detector
CLAIM_TABLES = (
    {d: tuple(CLAIM_COUNTS[s][d] for s in CLAIM_COUNTS) for d in CLAIM_COUNTS["flat-sigma2"]},
    {f"r{r}-sigma{s:g}": counts for (r, s), counts in DISK_COUNTS.items()},
    RX_COUNTS, TEXTURED_COUNTS, VARIATIONAL_COUNTS,
)
COUNT_CELL = re.compile(r"\d+( / \d+)*")


def _cells(counts):
    """A dict entry as its table row shows it: one cell per count, or per
    tuple of counts joined by " / "."""
    return [" / ".join(map(str, c)) if isinstance(c, tuple) else str(c) for c in counts]


def _claim_tables(readme):
    """The body rows of each table in README's detector-claim section."""
    section = readme.partition("\n## The detector claim\n")[2].partition("\n## ")[0]
    tables = [[]]
    for line in section.splitlines():
        if line.startswith("|"):
            tables[-1].append(line)
        elif tables[-1]:
            tables.append([])
    return [rows[2:] for rows in tables if rows]


def claim_table_mismatches(readme):
    """Each way README's claim tables disagree with ``CLAIM_TABLES``: a
    table too many or too few, a row whose count cells differ from its
    entry's, an entry with no row, and a row that matches no entry. A row's
    first cell is its key; cells that hold no count are not read."""
    tables = _claim_tables(readme)
    if len(tables) != len(CLAIM_TABLES):
        return [f"{len(tables)} claim tables, not {len(CLAIM_TABLES)}"]
    problems = []
    for n, (rows, counts) in enumerate(zip(tables, CLAIM_TABLES), 1):
        shown = {}
        for row in rows:
            key, *cells = (c.strip().strip("`").replace("\\|", "|")
                           for c in re.split(r"(?<!\\)\|", row)[1:-1])
            if key in shown:
                problems.append(f"table {n}: two rows for {key!r}")
            shown[key] = [c for c in cells if COUNT_CELL.fullmatch(c)]
        for key, cells in shown.items():
            if key not in counts:
                problems.append(f"table {n}: row {key!r} matches no entry")
            elif cells != _cells(counts[key]):
                problems.append(f"table {n}, {key!r}: README {cells}, test {_cells(counts[key])}")
        problems += [f"table {n}: entry {key!r} has no row" for key in counts if key not in shown]
    return problems


def _readme():
    with open(README) as fh:
        return fh.read()


def test_readme_claim_tables():
    """README states the claim's counts only in tables bound to the dicts."""
    assert claim_table_mismatches(_readme()) == []


# what each edit puts in place of a row and its newline
EDITS = {
    "count changed": lambda row: re.sub(r"(\d+)(\D*)$", lambda m: f"{int(m[1]) + 1}{m[2]}\n", row),
    "row deleted": lambda row: "",
    "extra row": lambda row: f"{row}\n{re.sub(r'^[|][^|]*', '| no-such-key ', row)}\n",
}


@pytest.mark.parametrize("edit", list(EDITS))
def test_readme_check_fails_on_a_wrong_table(edit):
    """The check on README copies with one row of one table edited, for the
    first row of each table, so that it cannot pass on a section it no
    longer reads."""
    readme = _readme()
    tables = _claim_tables(readme)
    assert len(tables) == len(CLAIM_TABLES)
    for rows in tables:
        copy = readme.replace(rows[0] + "\n", EDITS[edit](rows[0]), 1)
        assert copy != readme and claim_table_mismatches(copy)
