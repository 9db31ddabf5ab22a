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
nearest and second-nearest distances. Both come from one pass over a
candidate table rather than over the full point set (the restricted
closest-point search of Agrell, Eriksson, Vardy & Zeger, IEEE TIT 2002):

* The table covers the constellation plus four point spacings of padding
  with square cells half a minimum spacing wide, so every decision line
  is a cell edge. A cell keeps the points ``p`` with
  ``mindist(cell, p) <= U + 1e-9``, where ``U`` is the second-smallest
  ``maxdist(cell, q)`` over all points ``q``. For any sample in the cell
  two points lie within ``U``, so its nearest and second-nearest points
  are candidates. The slack covers rounding in the cell lookup and in
  the distances (about 1e-15 inside the box), so points whose computed
  distances tie with the winners are candidates too. The 16-, 64- and
  128-point tables keep at most 8 candidates a cell, in label order;
  short rows are padded with a point at infinity, never with a repeated
  label, which would zero the margin.
* Samples outside the box, and non-finite ones, are decided over the
  full point set.
* Candidates and full sets use the same arithmetic: ``d = |y - p|``, the
  label from ``argmin(d**2)`` in label order and the margin from the two
  smallest ``d`` (0 when both are inf: every point ties). The minimizers
  of the computed distances are always candidates, so labels and margins
  equal the full search's bit for bit.
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
# point spacing, the padding around the constellation in point spacings,
# and the slack of the candidate rule.
_CELLS_PER_SPACING = 2
_PAD_SPACINGS = 4
_CANDIDATE_SLACK = 1e-9


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
    ascending) and ``points`` (their points, padded with infinity).
    """

    origin: complex
    width: float
    shape: tuple[int, int]
    labels: np.ndarray
    points: np.ndarray


def modulation_name(order: int) -> str:
    return "qpsk" if order == 4 else f"{order}-qam"


def _gray(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


def _gray_inverse(g: int) -> int:
    i = 0
    while g:
        i ^= g
        g >>= 1
    return i


def _square_points(order: int) -> np.ndarray:
    bits_axis = int(math.log2(order)) // 2
    m = 1 << bits_axis
    points = np.empty(order, dtype=np.complex128)
    for label in range(order):
        g_re = label >> bits_axis
        g_im = label & (m - 1)
        # Level index 0 sits at the positive extreme; Gray-adjacent
        # labels land on adjacent amplitude levels.
        re = (m - 1) - 2 * _gray_inverse(g_re)
        im = (m - 1) - 2 * _gray_inverse(g_im)
        points[label] = re + 1j * im
    return points


def _cross_points_128() -> np.ndarray:
    levels = np.arange(-11, 12, 2)
    cols = []
    for ci, re in enumerate(levels):
        ims = levels if ci % 2 == 0 else levels[::-1]
        col = [re + 1j * im for im in ims if not (abs(re) > 7 and abs(im) > 7)]
        cols.extend(col)
    walk = np.asarray(cols, dtype=np.complex128)
    points = np.empty(walk.size, dtype=np.complex128)
    idx = np.arange(walk.size, dtype=np.int64)
    points[_gray(idx)] = walk
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


def qam_modulate(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map a bit vector to symbols, most significant bit first per symbol."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    b = c.bits_per_symbol
    if bits.size % b != 0:
        raise LengthMismatch(f"{bits.size} bits do not divide into {b}-bit symbols")
    weights = 1 << np.arange(b - 1, -1, -1, dtype=np.int64)
    labels = bits.reshape(-1, b) @ weights
    return c.points[labels]


def _candidate_table(points: np.ndarray) -> _CandidateTable | None:
    """Build the candidate table of a constellation (module docstring), or
    None when the widest candidate list is more than half the points."""
    gaps = np.abs(points[:, np.newaxis] - points[np.newaxis, :])
    spacing = float(np.min(gaps[gaps > 0]))
    width = spacing / _CELLS_PER_SPACING
    reach = (_PAD_SPACINGS + 0.5) * spacing
    origin = complex(points.real.min() - reach, points.imag.min() - reach)

    def axis(lo: float, p: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        # Per cell along one axis, the squared nearest and farthest offsets
        # to each point.
        cells = round((p.max() + reach - lo) / width)
        edges = lo + width * np.arange(cells + 1)
        near = np.maximum(0.0, np.maximum(edges[:-1, None] - p, p - edges[1:, None]))
        far = np.maximum(np.abs(p - edges[:-1, None]), np.abs(p - edges[1:, None]))
        return cells, near**2, far**2

    n_re, near_re, far_re = axis(origin.real, points.real)
    n_im, near_im, far_im = axis(origin.imag, points.imag)
    keep = np.empty((n_re, n_im, points.size), dtype=bool)
    for i in range(n_re):  # one row of cells at a time keeps the build small
        mindist = np.sqrt(near_re[i] + near_im)
        bound = np.sqrt(np.partition(far_re[i] + far_im, 1, axis=1)[:, 1:2])
        keep[i] = mindist <= bound + _CANDIDATE_SLACK
    keep = keep.reshape(n_re * n_im, points.size)
    k = int(keep.sum(axis=1).max())
    if 2 * k > points.size:
        return None
    # Kept labels first, each group in label order.
    labels = np.argsort(~keep, axis=1, kind="stable")[:, :k]
    table_points = np.where(np.take_along_axis(keep, labels, axis=1), points[labels], np.inf)
    return _CandidateTable(origin, width, (n_re, n_im), labels, table_points)


def _nearest_two(y: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest of ``points`` (per sample ``(N, K)``, or one set
    ``(K,)``) and the decision margin, for each sample of ``y`` ``(N,)``."""
    d = np.abs(y[:, np.newaxis] - points)
    # Past about 1.3e154 every point's squared distance rounds to the same
    # value (inf), and argmin's tie rule then picks the smallest label, as
    # the full search does; so the overflow is harmless and not reported.
    with np.errstate(over="ignore"):
        nearest = np.argmin(d**2, axis=1)
    d.partition(1, axis=1)
    # Past about 1e308 every distance itself is inf: every point ties, so
    # the margin is 0 (inf - inf is never computed).
    gap = np.subtract(d[:, 1], d[:, 0], out=np.zeros(y.size), where=d[:, 0] != np.inf)
    return nearest, gap / 2.0


def _table_pass(
    y: np.ndarray, u: np.ndarray, v: np.ndarray, table: _CandidateTable
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and margins of samples inside the table, at cell coordinates ``(u, v)``."""
    cell = u.astype(np.intp) * table.shape[1] + v.astype(np.intp)
    nearest, margins = _nearest_two(y, table.points[cell])
    return table.labels[cell, nearest], margins


def hard_decisions(y: np.ndarray, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Hard-decision bits and decision margins of the samples ``y``.

    Each sample goes to its nearest constellation point, and its margin is
    half the gap between the nearest and second-nearest point distances.
    The module docstring gives the tie and overflow rules and the candidate
    table that yields both in one pass, bit-identical to a full search.
    """
    y = np.asarray(y, dtype=np.complex128).ravel()
    table = c._table
    if table is None:
        labels, margins = _nearest_two(y, c.points)
    else:
        rel = y - table.origin
        with np.errstate(over="ignore"):  # a huge sample's coordinate is inf: outside
            u = rel.real / table.width
            v = rel.imag / table.width
        # False for NaN, so non-finite samples take the full search.
        inside = (u >= 0) & (u < table.shape[0]) & (v >= 0) & (v < table.shape[1])
        if inside.all():
            labels, margins = _table_pass(y, u, v, table)
        else:
            labels = np.empty(y.size, dtype=np.intp)
            margins = np.empty(y.size)
            labels[inside], margins[inside] = _table_pass(y[inside], u[inside], v[inside], table)
            outside = ~inside
            labels[outside], margins[outside] = _nearest_two(y[outside], c.points)
    b = c.bits_per_symbol
    shifts = np.arange(b - 1, -1, -1, dtype=np.int64)
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
