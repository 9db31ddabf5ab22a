"""Tests for constellations, hard decisions, AWGN, and bit-error accounting."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpc_perm import modem
from dpc_perm.channel import stream
from dpc_perm.exceptions import LengthMismatch
from dpc_perm.modem import (
    QAM_ORDERS,
    hard_decisions,
    make_constellation,
    modulation_name,
    qam_modulate,
    wilson_interval,
)


def full_search_demodulate(y, c):
    """Reference hard decisions: nearest point over the full point set,
    an exact tie to the smaller label (argmin picks the first minimum)."""
    y = np.asarray(y, dtype=np.complex128).ravel()
    with np.errstate(over="ignore"):  # beyond ~1.3e154 every d2 is inf: a tie
        d2 = np.abs(y[:, np.newaxis] - c.points[np.newaxis, :]) ** 2
    labels = np.argmin(d2, axis=1)
    b = c.bits_per_symbol
    shifts = np.arange(b - 1, -1, -1, dtype=np.int64)
    return ((labels[:, np.newaxis] >> shifts) & 1).astype(np.uint8).ravel()


def full_search_margins(y, c):
    """Reference margins: half the gap between the nearest and
    second-nearest of all point distances, from a full sort; 0 when every
    distance is inf, since every point then ties."""
    y = np.asarray(y, dtype=np.complex128).ravel()
    d = np.abs(y[:, np.newaxis] - c.points[np.newaxis, :])
    d.sort(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf where every distance is inf
        gap = d[:, 1] - d[:, 0]
    return np.where(d[:, 0] == np.inf, 0.0, gap) / 2.0


def add_awgn(x, snr_db, signal_power, rng):
    """Add circularly-symmetric complex Gaussian noise at the given SNR.

    Noise variance per entry is ``signal_power / 10**(snr_db / 10)``.
    ``snr_db = inf`` is the noiseless sentinel and returns ``x``
    unchanged (no draw is consumed). Deterministic in ``rng``.
    """
    x = np.asarray(x, dtype=np.complex128)
    if not signal_power > 0:
        raise ValueError(f"signal_power must be positive, got {signal_power}")
    if math.isinf(snr_db):
        return x.copy()
    noise_var = signal_power / 10.0 ** (snr_db / 10.0)
    scale = math.sqrt(noise_var / 2.0)
    noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    return x + scale * noise


def count_ber(tx_bits, rx_bits):
    """Hamming distance and total length of two bit vectors."""
    tx = np.asarray(tx_bits).ravel()
    rx = np.asarray(rx_bits).ravel()
    if tx.size != rx.size:
        raise LengthMismatch(f"bit vectors differ in length: {tx.size} vs {rx.size}")
    return int(np.count_nonzero(tx != rx)), int(tx.size)


def test_qpsk_labeling_convention():
    c = make_constellation(4)
    s = qam_modulate(np.array([0, 0]), c)
    np.testing.assert_allclose(s, [(1 + 1j) / np.sqrt(2)], atol=1e-15)
    s = qam_modulate(np.array([1, 1]), c)
    np.testing.assert_allclose(s, [(-1 - 1j) / np.sqrt(2)], atol=1e-15)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_unit_average_energy(order):
    c = make_constellation(order)
    assert len(c.points) == order
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_points_distinct_and_labels_bijective(order):
    c = make_constellation(order)
    assert len(np.unique(np.round(c.points, 12))) == order


def test_16qam_energy_from_lattice():
    # levels +-1, +-3 on both axes: mean energy 10 before normalization
    c = make_constellation(16)
    lattice = c.points * np.sqrt(10.0)
    assert np.allclose(np.sort(np.unique(np.round(lattice.real, 9))), [-3, -1, 1, 3])


def test_128_cross_geometry():
    # Odd-integer 12x12 grid minus the four 2x2 corners; the raw lattice
    # has mean energy 82, which the unit normalization divides out.
    c = make_constellation(128)
    raw = c.points * np.sqrt(82.0)
    re = np.round(raw.real)
    im = np.round(raw.imag)
    np.testing.assert_allclose(raw.real, re, atol=1e-9)
    np.testing.assert_allclose(raw.imag, im, atol=1e-9)
    assert set(np.unique(np.abs(re))) == {1, 3, 5, 7, 9, 11}
    assert not np.any((np.abs(re) > 7) & (np.abs(im) > 7))


# sha256 of make_constellation(order).points.tobytes(): every point's exact
# coordinates at its label.
CONSTELLATION_SHA256 = {
    4: "db860e05d78202f159e28f16fbe26c8e060fc8c65c4b872c8bb3f7fc5915071e",
    16: "76a51a7540737fc5fdeee017f325993c9c95afaf275dc32606e8f28c84ecd651",
    64: "1f1f21a0d8cae4f3366f29dc3cd762db6415b8d40951223fafcc74d5f5eb35b0",
    128: "3fae0703645de7e08247be690944822b9326a7109b32cf5c81625e579b240954",
}


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_constellation_points_are_pinned(order):
    points = make_constellation(order).points
    assert hashlib.sha256(points.tobytes()).hexdigest() == CONSTELLATION_SHA256[order]


def nearest_pairs(points):
    """Labels ``(a, b)``, ``a < b``, of every pair of points at the minimum distance."""
    gaps = np.abs(points[:, np.newaxis] - points[np.newaxis, :])
    spacing = gaps[gaps > 0].min()
    return np.nonzero(np.triu(np.abs(gaps - spacing) < 1e-9 * spacing, k=1))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_square_qam_nearest_pairs_differ_in_one_bit(order):
    a, b = nearest_pairs(make_constellation(order).points)
    m = math.isqrt(order)
    assert a.size == 2 * m * (m - 1)  # m rows and m columns of m - 1 pairs
    assert np.all(np.bitwise_count(a ^ b) == 1)


def test_128_cross_vertical_nearest_pairs_differ_in_one_bit():
    # Horizontal pairs are not Gray: no perfect Gray map exists on a cross.
    points = make_constellation(128).points
    a, b = nearest_pairs(points)
    vertical = np.isclose(points[a].real, points[b].real)
    assert np.count_nonzero(vertical) == 8 * 11 + 4 * 7  # 8 columns of 12 points, 4 of 8
    assert np.all(np.bitwise_count(a[vertical] ^ b[vertical]) == 1)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_modulate_demodulate_roundtrip_exhaustive(order):
    c = make_constellation(order)
    b = c.bits_per_symbol
    labels = np.arange(order)
    bits = ((labels[:, None] >> np.arange(b - 1, -1, -1)) & 1).astype(np.uint8).ravel()
    symbols = qam_modulate(bits, c)
    np.testing.assert_array_equal(hard_decisions(symbols, c)[0], bits)


def test_demodulate_tolerates_tiny_perturbation():
    c = make_constellation(64)
    bits = np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8)
    s = qam_modulate(bits, c)
    np.testing.assert_array_equal(hard_decisions(s + (1e-9 - 1e-9j), c)[0], bits)


def test_demodulate_midpoint_tie_goes_to_lower_label():
    c = make_constellation(4)
    # midpoint between labels 0 (1+1j)/sqrt2 and 1 (1-1j)/sqrt2
    mid = np.array([(1 + 0j) / np.sqrt(2)])
    np.testing.assert_array_equal(hard_decisions(mid, c)[0], [0, 0])


def test_modulate_length_mismatch():
    c = make_constellation(16)
    with pytest.raises(LengthMismatch):
        qam_modulate(np.array([0, 1, 0]), c)


def test_decision_margins():
    c = make_constellation(4)
    exact = qam_modulate(np.array([0, 0]), c)
    m = hard_decisions(exact, c)[1]
    assert m[0] == pytest.approx(1.0 / np.sqrt(2.0))
    on_boundary = np.array([(1 + 0j) / np.sqrt(2)])
    assert hard_decisions(on_boundary, c)[1][0] == pytest.approx(0.0, abs=1e-15)


def test_modulation_names():
    assert modulation_name(4) == "qpsk"
    assert modulation_name(128) == "128-qam"


# ---------------------------------------------------------------------------
# Hard decisions against the full search
# ---------------------------------------------------------------------------


def assert_matches_full_search(y, c):
    bits, margins = hard_decisions(y, c)
    np.testing.assert_array_equal(bits, full_search_demodulate(y, c))
    np.testing.assert_array_equal(margins, full_search_margins(y, c))


def half_spacing(c):
    """Half the minimum point spacing, the ``a`` of the odd-integer grid."""
    gaps = np.abs(c.points[:, None] - c.points[None, :])
    return np.min(gaps[gaps > 0]) / 2.0


def test_candidate_table_is_used_from_16_qam_up():
    # QPSK keeps all 4 points in a cell, so it is decided in one pass over
    # all points; the larger constellations go through the table.
    assert make_constellation(4)._table is None
    for order in (16, 64, 128):
        table = make_constellation(order)._table
        assert table.labels.shape[1] <= 5
        # rows hold distinct labels, ascending, padded at infinity
        valid = np.isfinite(table.points.T)
        for labels, ok in zip(table.labels, valid):
            assert np.all(np.diff(labels[ok]) > 0)
            assert ok[0] and np.all(ok[: ok.sum()])
    assert make_constellation(128)._table.shape == (80, 80)


def test_candidate_table_build_is_small():
    # The coarse-to-fine build never holds a (cells, order) array.
    points = make_constellation(128).points
    tracemalloc.start()
    try:
        modem._candidate_table(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("order", [16, 64, 128])
def test_candidate_table_equals_a_test_of_every_point(order):
    # The coarse-to-fine build gives the lists of the candidate rule
    # applied to every point of every cell at the final resolution.
    points = make_constellation(order).points
    table = make_constellation(order)._table
    n_re, n_im = table.shape
    lo = np.array([table.origin.real, table.origin.imag])
    edges = [lo[a] + table.width * np.arange(n + 1) for a, n in enumerate(table.shape)]

    def offsets(e, p):
        near = np.maximum(0.0, np.maximum(e[:-1, None] - p, p - e[1:, None]))
        far = np.maximum(np.abs(p - e[:-1, None]), np.abs(p - e[1:, None]))
        return near**2, far**2

    near_re, far_re = offsets(edges[0], points.real)
    near_im, far_im = offsets(edges[1], points.imag)
    for i in range(n_re):
        bound = np.sqrt(np.sort(far_re[i] + far_im, axis=1)[:, 1:2]) + modem._CANDIDATE_SLACK
        keep = np.sqrt(near_re[i] + near_im) <= bound
        got = table.labels[i * n_im : (i + 1) * n_im]
        for j in range(n_im):
            kept = np.flatnonzero(keep[j])
            assert got[j, : kept.size].tolist() == kept.tolist()
            assert np.all(got[j, kept.size :] == order)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_hard_decisions_match_at_boundaries_and_midpoints(order):
    c = make_constellation(order)
    p = c.points
    assert_matches_full_search(((p[:, None] + p[None, :]) / 2).ravel(), c)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_hard_decisions_match_on_half_spacing_grid(order):
    c = make_constellation(order)
    k = np.arange(-30, 31) * half_spacing(c)
    assert_matches_full_search((k[:, None] + 1j * k[None, :]).ravel(), c)


@pytest.mark.parametrize("order", [16, 64, 128])
def test_hard_decisions_match_on_quarter_spacing_grid(order):
    # The table's cell edges, and one ulp to either side of them.
    c = make_constellation(order)
    k = np.arange(-42, 43) * (half_spacing(c) / 2)
    for re in (k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf)):
        for im in (k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf)):
            assert_matches_full_search((re[:, None] + 1j * im[None, :]).ravel(), c)


def test_hard_decisions_match_at_cross_corners():
    c = make_constellation(128)
    a = half_spacing(c)
    # Vertices of the cross outline, the points around its notches, and
    # samples nudged off each by a few ulps.
    raw = [(12, 8), (8, 8), (8, 12), (11, 7), (7, 11), (9, 7), (7, 9), (7, 7), (9, 9), (11, 11)]
    base = np.array([complex(sr * x, si * y) for x, y in raw for sr in (1, -1) for si in (1, -1)])
    base = np.concatenate([base, base.conj() * 1j]) * a
    nudged = [base * (1 + e) for e in (0.0, 1e-15, -1e-15, 1e-9, -1e-9)]
    assert_matches_full_search(np.concatenate(nudged), c)


@pytest.mark.parametrize("order", [16, 64, 128])
def test_hard_decisions_match_at_table_edges(order):
    c = make_constellation(order)
    table = c._table
    n_re, n_im = table.shape
    lo_re, lo_im = table.origin.real, table.origin.imag
    hi_re, hi_im = lo_re + n_re * table.width, lo_im + n_im * table.width
    along_re = np.linspace(lo_re, hi_re, 97)
    along_im = np.linspace(lo_im, hi_im, 97)
    samples = []
    for edge, other, on_re in ((lo_re, along_im, True), (hi_re, along_im, True),
                               (lo_im, along_re, False), (hi_im, along_re, False)):
        for x in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf),
                  edge - 1e-12, edge + 1e-12):
            samples.append(x + 1j * other if on_re else other + 1j * x)
    assert_matches_full_search(np.concatenate(samples), c)


# The last sample is so far out that every distance overflows to inf.
FAR_OUTSIDE = np.array([1e8 + 0.5j, -1e8 + 0j, 0.5 - 1e8j, 1e8 + 1e8j, -3e5 + 7e4j,
                        1e150 + 1e150j, 1e200 - 1e100j, 1e-300 + 0j, -0.0 - 0.0j,
                        1.2711610061536462e308 + 1.2711610061536462e308j])


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_hard_decisions_match_far_outside(order):
    assert_matches_full_search(FAR_OUTSIDE, make_constellation(order))


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_hard_decisions_far_outside_raise_no_warning(order):
    c = make_constellation(order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hard_decisions(FAR_OUTSIDE, c)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_sample_whose_every_distance_overflows_has_label_0_and_margin_0(order):
    bits, margins = hard_decisions(FAR_OUTSIDE[-1:], make_constellation(order))
    assert margins.tolist() == [0.0]
    assert not bits.any()


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_hard_decisions_match_on_non_finite_samples(order):
    c = make_constellation(order)
    y = np.array([np.inf, -np.inf, complex(np.inf, 1.0), complex(0.3, -np.inf),
                  complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.nan, np.inf), 0.1 + 0.2j])
    assert_matches_full_search(y, c)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_hard_decisions_exact_ties_go_to_smallest_label(order):
    c = make_constellation(order)
    p = c.points
    mids = ((p[:, None] + p[None, :]) / 2).ravel()
    d2 = np.abs(mids[:, None] - p[None, :]) ** 2
    tied = np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1) > 1
    assert tied.sum() >= order  # every point has a neighbor it ties with
    labels = np.argmax(d2[tied] == d2[tied].min(axis=1, keepdims=True), axis=1)
    b = c.bits_per_symbol
    bits = (labels[:, None] >> np.arange(b - 1, -1, -1)) & 1
    got_bits, got_margins = hard_decisions(mids[tied], c)
    np.testing.assert_array_equal(got_bits, bits.ravel())
    np.testing.assert_array_equal(got_margins, full_search_margins(mids[tied], c))


@pytest.mark.parametrize("order", QAM_ORDERS)
@pytest.mark.parametrize("scale", [0.05, 0.5, 1.0, 2.0, 10.0, 1e4])
def test_hard_decisions_match_on_random_samples(order, scale):
    c = make_constellation(order)
    rng = np.random.default_rng(order * 1000 + int(scale * 100))
    # 10^5 samples, in blocks that keep the reference's N x M matrices small
    for _ in range(10):
        y = scale * (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
        assert_matches_full_search(y, c)


def test_hard_decisions_empty_and_shaped_input():
    c = make_constellation(64)
    bits, margins = hard_decisions(np.array([], dtype=complex), c)
    assert bits.shape == (0,) and margins.shape == (0,)
    y = np.array([[0.1 + 0.2j, 3.0], [-0.4j, 1e9]])
    assert_matches_full_search(y, c)


# Samples near the constellation (inside the candidate table) and anywhere.
_SAMPLES = st.one_of(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@given(order=st.sampled_from(QAM_ORDERS), y=st.lists(_SAMPLES, min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_hard_decisions_property_matches_full_search(order, y):
    assert_matches_full_search(np.array(y, dtype=np.complex128), make_constellation(order))


# Distances with exact ties: repeated values, squares that underflow to 0
# or overflow to inf from distinct values, zeros, and inf (table padding).
_DISTANCES = st.sampled_from([0.0, 1e-170, 3e-170, 0.5, 1.0, 1e200, 3e200, np.inf])


@given(
    d=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(2, 5)), elements=_DISTANCES),
    nan_rows=st.lists(st.booleans(), max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_short_list_reduction_matches_argmin_and_a_sort(d, nan_rows):
    # The candidate-major reduction against argmin and a sort of the
    # sample-major rows; an all-NaN row is a NaN sample.
    d[np.flatnonzero(nan_rows[: len(d)])] = np.nan
    with np.errstate(over="ignore"):
        nearest, first, second = modem._short_list(np.ascontiguousarray(d.T))
        want = np.argmin(d**2, axis=1)
    two = np.sort(d, axis=1)[:, :2]
    np.testing.assert_array_equal(nearest, want)
    assert first.tobytes() == np.ascontiguousarray(two[:, 0]).tobytes()
    assert second.tobytes() == np.ascontiguousarray(two[:, 1]).tobytes()


def test_qpsk_decisions_match_on_the_axes_at_every_magnitude():
    # On an axis two QPSK points tie, at the origin all four; past 1.3e154
    # every squared distance overflows, past 1e308 every distance.
    magnitudes = [0.0, 1e-300, 0.5, 1.0, 1e154, 1e308, np.inf]
    axes = [complex(*z) for a in magnitudes for z in ((a, 0.0), (-a, 0.0), (0.0, a), (0.0, -a))]
    nan = np.array([complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.nan, np.nan),
                    complex(np.nan, np.inf), complex(-np.inf, np.nan)])
    assert_matches_full_search(np.concatenate([axes, nan]), make_constellation(4))


# ---------------------------------------------------------------------------
# Samples outside the candidate table's box: edge lists
# ---------------------------------------------------------------------------


def box_edges(c):
    """The point spacing and the table box's low and high edge on each axis."""
    t = c._table
    lo = np.array([t.origin.real, t.origin.imag])
    return t.width * modem._CELLS_PER_SPACING, lo, lo + t.width * np.array(t.shape)


def edge_pass_spy(monkeypatch):
    """Record how many samples each call of modem._edge_pass decides."""
    sizes = []
    real = modem._edge_pass

    def spy(y, *args):
        sizes.append(y.size)
        return real(y, *args)

    monkeypatch.setattr(modem, "_edge_pass", spy)
    return sizes


@pytest.mark.parametrize("order, size", [(16, 8), (64, 16), (128, 24)])
def test_edge_lists_hold_the_two_outermost_points_of_every_line(order, size):
    c = make_constellation(order)
    p = c.points
    t = c._table
    assert t.edge_labels.shape == (4, size)
    sides = [(p.real, p.imag), (-p.real, p.imag), (p.imag, p.real), (-p.imag, p.real)]
    for side, (outward, line) in enumerate(sides):  # right, left, top, bottom
        want = []
        for x in set(line.tolist()):
            on = [i for i in range(order) if line[i] == x]
            want += sorted(on, key=lambda i: outward[i])[-2:]
        assert t.edge_labels[side].tolist() == sorted(want)
        np.testing.assert_array_equal(t.edge_points[side], p[t.edge_labels[side]])


@pytest.mark.parametrize("order", [16, 64, 128])
@pytest.mark.parametrize("spacings", [1.0, 10.0, 1e3, 1e6])
def test_hard_decisions_match_beyond_each_edge_and_corner(monkeypatch, order, spacings):
    # Lines beyond each edge at quarter-spacing steps through 0 (where the
    # two rows or columns nearest the axis tie exactly), and a grid beyond
    # each corner, whose diagonal ties points with their transposes.
    c = make_constellation(order)
    s, lo, hi = box_edges(c)
    t = c._table
    along = np.arange(-(t.shape[0] // 2), t.shape[0] // 2 + 1) * t.width
    out = spacings * s
    beyond = [hi[0] + out + 1j * along, lo[0] - out + 1j * along,
              along + 1j * (hi[1] + out), along + 1j * (lo[1] - out)]
    steps = out * np.array([0.25, 0.5, 1.0]) + 1e-3 * s
    for sr in (1, -1):
        for si in (1, -1):
            re = sr * (hi[0] + steps)
            beyond.append((re[:, None] + 1j * si * (hi[1] + steps)[None, :]).ravel())
    y = np.concatenate(beyond)
    sizes = edge_pass_spy(monkeypatch)
    assert_matches_full_search(y, c)
    if spacings < modem._EDGE_REACH_SPACINGS:
        assert sizes == [y.size]
    else:  # the edge lines lie on the reach limit, the corner grid partly inside it
        assert 0 < sum(sizes) < y.size


@pytest.mark.parametrize("order", [16, 64, 128])
def test_hard_decisions_match_either_side_of_the_reach_limit(order):
    # One ulp inside and outside a million spacings beyond each edge, and
    # samples far past it (up to 1e9 spacings) just beyond the right edge,
    # where an edge list's rows would tie in the computed distances.
    c = make_constellation(order)
    s, lo, hi = box_edges(c)
    reach = modem._EDGE_REACH_SPACINGS * s
    along = np.linspace(lo[0], hi[0], 33)
    samples = []
    for limit in (hi[0] + reach, lo[0] - reach, hi[1] + reach, lo[1] - reach):
        for x in (limit, np.nextafter(limit, -np.inf), np.nextafter(limit, np.inf)):
            samples += [x + 1j * along, along + 1j * x]
    far = reach * np.array([1.5, 10.0, 1e2, 3e2, 1e3])
    for edge in hi[0] + s * np.array([0.01, 0.5, 2.0]):
        samples += [edge + 1j * far, edge - 1j * far, -edge + 1j * far]
    assert_matches_full_search(np.concatenate(samples), c)


# Samples from the table's box out to the reach limit, log-uniform in
# distance from the centre (in point spacings) and uniform in angle.
_EXTERIOR = st.tuples(
    st.floats(math.log(5.0), math.log(1e6)), st.floats(0.0, 2 * math.pi)
)


@given(
    order=st.sampled_from([16, 64, 128]),
    polar=st.lists(_EXTERIOR, min_size=modem._EDGE_MIN_SAMPLES, max_size=96),
)
@settings(max_examples=200, deadline=None)
def test_hard_decisions_property_beyond_the_table(order, polar):
    c = make_constellation(order)
    s = box_edges(c)[0]
    r, phi = np.array(polar).T
    assert_matches_full_search(s * np.exp(r) * np.exp(1j * phi), c)


@pytest.mark.parametrize("order", [16, 64, 128])
def test_edge_lists_start_at_the_sample_count_threshold(monkeypatch, order):
    # Below the threshold every outside sample takes the full search; at it,
    # every one within reach takes its edge list.
    c = make_constellation(order)
    s, _, hi = box_edges(c)
    n = modem._EDGE_MIN_SAMPLES
    outside = hi[0] + s * np.linspace(0.01, 50.0, n) + 0.5j * s * np.arange(n)
    inside = c.points[: order // 2] * 0.9
    for count in (n - 1, n):
        sizes = edge_pass_spy(monkeypatch)
        assert_matches_full_search(np.concatenate([inside, outside[:count]]), c)
        assert sizes == ([count] if count >= n else [])


@given(order=st.sampled_from(QAM_ORDERS), seed=st.integers(0, 2**32), count=st.integers(1, 256))
@settings(max_examples=100, deadline=None)
def test_modem_round_trip_property(order, seed, count):
    c = make_constellation(order)
    bits = np.random.default_rng(seed).integers(0, 2, count * c.bits_per_symbol, dtype=np.uint8)
    np.testing.assert_array_equal(hard_decisions(qam_modulate(bits, c), c)[0], bits)


# ---------------------------------------------------------------------------
# AWGN
# ---------------------------------------------------------------------------


def test_awgn_infinite_snr_sentinel():
    x = np.array([1 + 1j, -2 + 0.5j])
    y = add_awgn(x, math.inf, 1.0, stream(0))
    np.testing.assert_array_equal(y, x)


def test_awgn_deterministic_in_stream():
    x = np.zeros(64, dtype=complex)
    a = add_awgn(x, 10.0, 1.0, stream(42))
    b = add_awgn(x, 10.0, 1.0, stream(42))
    np.testing.assert_array_equal(a, b)
    c = add_awgn(x, 10.0, 1.0, stream(43))
    assert np.any(a != c)


def test_awgn_variance_calibration():
    # 1e6 complex samples: the sample variance estimator has relative
    # standard error ~0.1%, so 1% is a 10-sigma window.
    x = np.zeros(1_000_000, dtype=complex)
    snr_db = 7.0
    nominal = 1.0 / 10 ** (snr_db / 10)
    y = add_awgn(x, snr_db, 1.0, stream(7))
    measured = float(np.mean(np.abs(y) ** 2))
    assert abs(measured - nominal) <= 0.01 * nominal
    # halves in each real component
    assert np.var(y.real) == pytest.approx(nominal / 2, rel=0.01)


# ---------------------------------------------------------------------------
# BER accounting
# ---------------------------------------------------------------------------


def test_count_ber_basics():
    tx = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    assert count_ber(tx, tx) == (0, 5)
    assert count_ber(tx, 1 - tx) == (5, 5)
    rx = tx.copy()
    rx[[0, 2, 4]] ^= 1
    assert count_ber(tx, rx) == (3, 5)


def test_count_ber_length_mismatch():
    with pytest.raises(LengthMismatch):
        count_ber(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))


def test_wilson_interval_brackets_estimate():
    for errors, total in [(0, 100), (1, 100), (50, 100), (250, 1000), (1000, 1000)]:
        lo, hi = wilson_interval(errors, total)
        p = errors / total
        assert 0.0 <= lo <= p <= hi <= 1.0


@given(data=st.data(), total=st.integers(1, 10**15))
@settings(max_examples=300, deadline=None)
def test_wilson_interval_brackets_estimate_property(data, total):
    errors = data.draw(st.integers(0, total))
    lo, hi = wilson_interval(errors, total)
    assert 0.0 <= lo <= errors / total <= hi <= 1.0


def test_wilson_interval_zero_errors_value():
    lo, hi = wilson_interval(0, 1000)
    z2 = 1.959963984540054**2
    assert lo == 0.0
    assert hi == pytest.approx(z2 / (1000 + z2), rel=1e-12)
