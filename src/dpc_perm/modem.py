"""QAM modulation, hard decisions, and bit-error intervals.

Constellations are unit-average-energy with a fixed, documented bit
labeling so that result files are reproducible bit for bit:

* Square QAM (4, 16, 64): the first half of a symbol's bits selects the
  real axis, the second half the imaginary axis. On each axis the label
  bits are a binary-reflected Gray code over the amplitude levels, with
  the all-zero label on the most positive level. QPSK bits ``00``
  therefore map to ``(1 + 1j) / sqrt(2)``.
* 128-QAM uses the standard cross constellation (a 12 x 12 odd-integer
  grid minus the four 2 x 2 corners). No perfect Gray map exists on a
  cross, so labels follow a serpentine Gray walk over the columns:
  vertically adjacent points always differ in one bit.

Hard decisions (:func:`hard_decisions`) give each sample its nearest
point in Euclidean distance, an exact tie going to the numerically
smallest bit label, and its decision margin, half the gap between the
nearest and second-nearest distances. Both come from one label-level
pass (:func:`_decide`, which the BER sweep calls directly and compares
labels, not bits) over a candidate table rather than over the full point
set (the restricted closest-point search of Agrell, Eriksson, Vardy &
Zeger, IEEE TIT 2002):

* The table covers the constellation plus four point spacings of padding
  with square cells a quarter of a minimum spacing wide, so every
  decision line (half a spacing) is a cell edge. A cell keeps the points
  ``p`` with ``mindist(cell, p) <= U + 1e-9``, where ``U`` is the
  second-smallest ``maxdist(cell, q)`` over all points ``q``. For any
  sample in the cell two points lie within ``U``, so its nearest and
  second-nearest points are candidates. The slack covers rounding in the
  cell lookup and in the distances (about 1e-15 inside the box), so
  points whose computed distances tie with the winners are candidates
  too. The 16-, 64- and 128-point tables keep at most 5 candidates a
  cell, in label order; short rows are padded with a point at infinity,
  never with a repeated label, which would zero the margin.
* The table is built coarse to fine. Cells one spacing wide test every
  point; each later pass splits every cell in four and tests only its
  parent's candidates. Cell widths are the spacing over powers of two,
  so a child's outer edges are exactly its parent's. A child lies inside
  its parent, so its ``U`` is no larger and every ``mindist`` no
  smaller, also as computed, since rounding is monotone. So the child's
  candidates, and the two points that attain its ``U``, are among its
  parent's, and its list is the one a test of every point would give.
* A sample outside the box (4.5 spacings ``s`` beyond the outermost
  points) but within a million spacings of it on each axis is decided
  over an edge list: the two outermost points of every row toward the
  right or left edge, or of every column toward the top or bottom edge
  (24 points at 128-QAM, 16 at 64-QAM, 8 at 16-QAM), of an edge it is
  beyond; a corner sample takes the right or left list. Beyond the right
  edge, ``Re y >= max Re + 4.5 s``, so a point ``p`` of a row is farther
  from ``y`` than each of the row's two outermost points ``q`` by
  ``|y - p|**2 - |y - q|**2 = (Re q - Re p)(2 Re y - Re p - Re q) >= 9 s**2``
  (``Re q - Re p >= s``). Within a million spacings on each axis,
  ``|y - p|**2 < 2.1e12 s**2``, so the gap is over 4e-12 of it, thousands
  of ulps of the computed distances: no point left out can be nearest,
  second-nearest or tied with either. Farther samples, non-finite ones,
  and all the outside samples of a call with fewer than
  ``_EDGE_MIN_SAMPLES`` of them (the edge lists' extra passes cost more
  than they save there) are decided over the full point set.
* Candidates, edge lists and full sets use the same arithmetic:
  ``d = |y - p|``, the label from ``argmin(d**2)`` in label order and the
  margin from the two smallest ``d`` (0 when both are inf: every point
  ties). Short lists (a cell's at most 5 candidates, QPSK's 4 points)
  lie candidate-major, ``(K, N)``: the label comes from argmin over the
  candidate axis, and the two smallest from the running
  ``m2 = min(m2, max(m1, d_j))``, ``m1 = min(m1, d_j)``. Long lists (the
  8-24 edge points, the full 16-128) partition each row. ``min`` and
  ``max`` are exact, so both give a sort's values. The minimizers of the
  computed distances are always in the searched set, so labels and
  margins equal the full search's bit for bit.
* When the widest candidate list is more than half the constellation
  (QPSK keeps all 4 points), one pass over all points is cheaper, and
  the table is not used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import LengthMismatch

__all__ = [
    "Constellation",
    "QAM_ORDERS",
    "make_constellation",
    "modulation_name",
    "qam_modulate",
    "hard_decisions",
    "wilson_interval",
]

QAM_ORDERS = (4, 16, 64, 128)

# Two-sided 95% normal quantile used by the Wilson score interval.
_Z95 = 1.959963984540054

# Candidate-table geometry (see the module docstring): cells per minimum
# point spacing (a power of two, the passes of the coarse-to-fine build),
# the padding around the constellation in point spacings, and the slack
# of the candidate rule.
_CELLS_PER_SPACING = 4
_PAD_SPACINGS = 4
_CANDIDATE_SLACK = 1e-9

# Exterior decisions (see the module docstring): a sample outside the
# table's box but within this many point spacings of it on each axis is
# decided over an edge list, when at least _EDGE_MIN_SAMPLES samples of one
# call are outside. Below that count the edge lists' fixed cost (about
# 15 µs a call) exceeds what they save over the full search (about 0.5 µs
# a sample); on the sweeps' own decision inputs the two broke even at
# 25-40 samples outside.
_EDGE_REACH_SPACINGS = 1e6
_EDGE_MIN_SAMPLES = 32

# Lists of at most _SHORT_LIST candidates (QPSK's 4 points, a cell's at
# most 5) are reduced candidate-major by _short_list; on the longer edge
# lists and full sets, running loops measured slower than partition.
_SHORT_LIST = 5


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-energy constellation with ``points[label]`` indexed by bit label.

    Equality and hashing go by identity; :func:`make_constellation` keeps
    one object per order.
    """

    order: int
    bits_per_symbol: int
    points: np.ndarray

    @cached_property
    def _table(self) -> "_CandidateTable | None":
        return _candidate_table(self.points)


@dataclass(frozen=True)
class _CandidateTable:
    """Candidate points of each cell of a square grid over the constellation.

    Cell ``(i, j)`` spans ``origin + width * ([i, i+1) + 1j * [j, j+1))``
    and is row ``i * shape[1] + j`` of ``labels`` (candidate labels,
    ascending) and column ``i * shape[1] + j`` of ``points`` (their points,
    candidate-major). Padding entries have the point at infinity and the
    label ``order``, which no sample can get.
    Rows 0-3 of ``edge_labels`` (ascending) and ``edge_points`` are the
    lists of the right, left, top and bottom edges of the box.
    """

    origin: complex
    width: float
    shape: tuple[int, int]
    labels: np.ndarray
    points: np.ndarray
    edge_labels: np.ndarray
    edge_points: np.ndarray


def modulation_name(order: int) -> str:
    return "qpsk" if order == 4 else f"{order}-qam"


def _gray(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


def _square_points(order: int) -> np.ndarray:
    # On each axis, level index i has amplitude m - 1 - 2i and label _gray(i).
    bits_axis = int(math.log2(order)) // 2
    i = np.arange(1 << bits_axis)
    amp, g = (i.size - 1) - 2 * i, _gray(i)
    points = np.empty(order, dtype=np.complex128)
    points[(g[:, np.newaxis] << bits_axis) | g] = amp[:, np.newaxis] + 1j * amp
    return points


def _cross_points_128() -> np.ndarray:
    levels = np.arange(-11, 12, 2)
    re, im = np.meshgrid(levels, levels, indexing="ij")
    im[1::2] = im[1::2, ::-1]  # the walk runs down the odd columns
    walk = (re + 1j * im)[(np.abs(re) <= 7) | (np.abs(im) <= 7)]
    points = np.empty(walk.size, dtype=np.complex128)
    points[_gray(np.arange(walk.size))] = walk
    return points


@lru_cache(maxsize=None)
def make_constellation(order: int) -> Constellation:
    """Build the unit-average-energy constellation for a supported order."""
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}, expected one of {QAM_ORDERS}")
    points = _cross_points_128() if order == 128 else _square_points(order)
    points = points / np.sqrt(np.mean(np.abs(points) ** 2))
    points.setflags(write=False)
    return Constellation(order=order, bits_per_symbol=int(math.log2(order)), points=points)


def _bit_labels(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Labels of the consecutive ``bits_per_symbol``-bit groups of ``bits``,
    most significant bit first."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    b = c.bits_per_symbol
    if bits.size % b != 0:
        raise LengthMismatch(f"{bits.size} bits do not divide into {b}-bit symbols")
    weights = 1 << np.arange(b - 1, -1, -1, dtype=np.int64)
    return bits.reshape(-1, b) @ weights


def qam_modulate(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map a bit vector to symbols, most significant bit first per symbol."""
    return c.points[_bit_labels(bits, c)]


def _axis_offsets(
    lo: float, width: float, cells: int, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Squared nearest and farthest offsets ``(cells, p.size)`` from the cells
    ``lo + width * [i, i+1)`` of one axis to each coordinate of ``p``."""
    edges = lo + width * np.arange(cells + 1)
    near = np.maximum(0.0, np.maximum(edges[:-1, None] - p, p - edges[1:, None]))
    far = np.maximum(np.abs(p - edges[:-1, None]), np.abs(p - edges[1:, None]))
    return near**2, far**2


def _cell_sums(t_re: np.ndarray, t_im: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """``t_re[i, cand[i, j]] + t_im[j, cand[i, j]]`` for every cell ``(i, j)``
    of ``cand`` ``(n_re, n_im, k)``: per-axis parts of squared distances, summed."""
    n_re, n_im, _ = cand.shape
    total = np.take(t_re, cand + t_re.shape[1] * np.arange(n_re)[:, np.newaxis, np.newaxis])
    total += np.take(t_im, cand + t_im.shape[1] * np.arange(n_im)[:, np.newaxis])
    return total


def _candidate_table(points: np.ndarray) -> _CandidateTable | None:
    """Build the candidate table of a constellation (module docstring), or
    None when the widest candidate list is more than half the points."""
    gaps = np.abs(points[:, np.newaxis] - points[np.newaxis, :])
    spacing = float(np.min(gaps[gaps > 0]))
    del gaps
    reach = (_PAD_SPACINGS + 0.5) * spacing
    origin = complex(points.real.min() - reach, points.imag.min() - reach)
    order = points.size
    # Per axis, the box's low edge and the point coordinates, then index
    # ``order``: the padding point at infinity, never a candidate.
    axes = [
        (lo, np.append(p, np.inf))
        for lo, p in ((origin.real, points.real), (origin.imag, points.imag))
    ]
    # The box is a whole number of spacings wide: one cell each at first,
    # where every point is a candidate. ``cand[i, j]`` lists cell (i, j)'s
    # candidates, ascending, padded with ``order``.
    n_re, n_im = (round((p[:-1].max() + reach - lo) / spacing) for lo, p in axes)
    cand = np.broadcast_to(np.arange(order, dtype=np.min_scalar_type(order)), (n_re, n_im, order))
    for level in range(_CELLS_PER_SPACING.bit_length()):
        if level:  # split every cell in four; each child starts from its parent's list
            cand = cand.repeat(2, axis=0).repeat(2, axis=1)
        n_re, n_im, k = cand.shape
        width = spacing / 2**level
        (near_re, far_re), (near_im, far_im) = (
            _axis_offsets(lo, width, cells, p) for (lo, p), cells in zip(axes, (n_re, n_im))
        )
        far = _cell_sums(far_re, far_im, cand)
        far.partition(1, axis=2)
        bound = np.sqrt(far[..., 1:2]) + _CANDIDATE_SLACK
        del far
        near = _cell_sums(near_re, near_im, cand)
        kept = np.flatnonzero(np.sqrt(near, out=near) <= bound)
        del near
        # Move each cell's kept candidates to the front of its row, in order:
        # the r-th kept entry overall is number r - starts[cell] of its cell.
        cell = kept // k
        counts = np.bincount(cell, minlength=n_re * n_im)
        starts = np.cumsum(counts) - counts
        k = int(counts.max())
        compact = np.full(n_re * n_im * k, order, dtype=cand.dtype)
        compact[cell * k + np.arange(kept.size) - starts[cell]] = cand.take(kept)
        cand = compact.reshape(n_re, n_im, k)
    if 2 * k > order:
        return None
    labels = cand.reshape(-1, k)
    edge_labels = _edge_lists(points)
    return _CandidateTable(
        origin,
        width,
        (n_re, n_im),
        labels,
        np.ascontiguousarray(np.append(points, np.inf)[labels].T),
        edge_labels,
        points[edge_labels],
    )


def _edge_lists(points: np.ndarray) -> np.ndarray:
    """Labels ``(4, K)`` of the two outermost points of every row toward the
    right and the left edge, and of every column toward the top and the
    bottom edge; each list ascending."""
    lists = []
    for outward, line in (
        (points.real, points.imag),
        (-points.real, points.imag),
        (points.imag, points.real),
        (-points.imag, points.real),
    ):
        ranked = np.lexsort((outward, line))  # by line, outermost last
        last = np.flatnonzero(np.diff(line[ranked], append=np.inf))
        lists.append(np.sort(ranked[np.concatenate([last - 1, last])]))
    return np.array(lists)


def _short_list(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index of the smallest ``d**2`` (the first on ties) and the two
    smallest values of each column of the candidate-major distances ``d``
    ``(K, N)``, ``2 <= K <= _SHORT_LIST``; each column NaN-free or all NaN."""
    nearest = np.argmin(d**2, axis=0)
    # min and max are exact, so these are the values a sort gives.
    first, second = np.minimum(d[0], d[1]), np.maximum(d[0], d[1])
    for row in d[2:]:
        np.minimum(second, np.maximum(first, row), out=second)
        np.minimum(first, row, out=first)
    return nearest, first, second


def _nearest_two(y: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest of ``points`` (per sample ``(N, K)``, or one set
    ``(K,)``) and the decision margin, for each sample of ``y`` ``(N,)``."""
    # Past about 1.3e154 every point's squared distance rounds to the same
    # value (inf), and the tie rule then picks the smallest label, as the
    # full search does; so the overflow is harmless and not reported.
    with np.errstate(over="ignore"):
        if points.ndim == 1 and points.size <= _SHORT_LIST:
            nearest, first, second = _short_list(np.abs(y - points[:, np.newaxis]))
        else:
            d = np.abs(y[:, np.newaxis] - points)
            nearest = np.argmin(d**2, axis=1)
            d.partition(1, axis=1)
            first, second = d[:, 0], d[:, 1]
    # Past about 1e308 every distance itself is inf: every point ties, so
    # the margin is 0 (inf - inf is never computed).
    gap = np.subtract(second, first, out=np.zeros(y.size), where=first != np.inf)
    return nearest, gap / 2.0


def _table_pass(
    y: np.ndarray, u: np.ndarray, v: np.ndarray, table: _CandidateTable
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and margins of samples inside the table, at cell coordinates ``(u, v)``."""
    cell = u.astype(np.intp) * table.shape[1] + v.astype(np.intp)
    # np.take gathers the candidates about twice as fast as indexing does.
    nearest, first, second = _short_list(np.abs(y - np.take(table.points, cell, axis=1)))
    # A flat take gathers the labels about twice as fast as 2-D indexing.
    return np.take(table.labels, cell * table.labels.shape[1] + nearest), (second - first) / 2.0


def _edge_pass(
    y: np.ndarray, u: np.ndarray, v: np.ndarray, table: _CandidateTable
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and margins of samples outside the table's box but within reach
    of it, at cell coordinates ``(u, v)``, each over the list of an edge it
    is beyond."""
    n_re, n_im = table.shape
    # Right, left, top, bottom: a corner sample takes the right or left list.
    side = np.where(u >= n_re, 0, np.where(u < 0, 1, np.where(v >= n_im, 2, 3)))
    nearest, margins = _nearest_two(y, np.take(table.edge_points, side, axis=0))
    return table.edge_labels[side, nearest], margins


def _decide(y: np.ndarray, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Labels and decision margins of the samples ``y``, complex128 ``(N,)``
    (see :func:`hard_decisions`); the sweep compares these labels with the
    transmitted ones instead of unpacking bits.

    A sample inside the candidate table's box is decided over its cell's
    candidates. When at least ``_EDGE_MIN_SAMPLES`` samples are outside the
    box, those within ``_EDGE_REACH_SPACINGS`` point spacings of it on each
    axis are decided over an edge list. Every other sample is decided over
    the full point set (module docstring).
    """
    table = c._table
    if table is None:
        return _nearest_two(y, c.points)
    rel = y - table.origin
    with np.errstate(over="ignore"):  # a huge sample's coordinate is inf: outside
        u = rel.real / table.width
        v = rel.imag / table.width
    n_re, n_im = table.shape
    # False for NaN, so non-finite samples are never inside or within reach.
    inside = (u >= 0) & (u < n_re) & (v >= 0) & (v < n_im)
    if inside.all():
        return _table_pass(y, u, v, table)
    labels = np.empty(y.size, dtype=table.labels.dtype)
    margins = np.empty(y.size)
    labels[inside], margins[inside] = _table_pass(y[inside], u[inside], v[inside], table)
    rest = np.flatnonzero(~inside)
    if rest.size >= _EDGE_MIN_SAMPLES:
        reach = _EDGE_REACH_SPACINGS * _CELLS_PER_SPACING
        u, v = u[rest], v[rest]
        near = (u >= -reach) & (u < n_re + reach) & (v >= -reach) & (v < n_im + reach)
        edge = rest[near]
        labels[edge], margins[edge] = _edge_pass(y[edge], u[near], v[near], table)
        rest = rest[~near]
    if rest.size:
        labels[rest], margins[rest] = _nearest_two(y[rest], c.points)
    return labels, margins


def hard_decisions(y: np.ndarray, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Hard-decision bits and decision margins of the samples ``y``.

    Each sample goes to its nearest constellation point, and its margin is
    half the gap between the nearest and second-nearest point distances.
    The module docstring gives the tie and overflow rules and the candidate
    table that yields both in one pass, bit-identical to a full search.
    """
    labels, margins = _decide(np.asarray(y, dtype=np.complex128).ravel(), c)
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1, dtype=np.int64)
    return ((labels[:, np.newaxis] >> shifts) & 1).astype(np.uint8).ravel(), margins


def wilson_interval(errors: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a bit-error proportion.

    Stays meaningful at zero observed errors, unlike the normal
    approximation. The interval always brackets errors/total.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if errors < 0 or errors > total:
        raise ValueError(f"errors={errors} outside 0..{total}")
    z2 = _Z95**2
    p = errors / total
    denom = 1.0 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4 * total**2)) / denom
    # at the endpoints the lower/upper bound is exactly 0/1; rounding in
    # center - half must not push it past the observed proportion
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == total else min(1.0, center + half)
    return min(lo, p), max(hi, p)
