"""Precoding-order optimization.

Two interchangeable search engines minimize an objective over all n!
precoding orders. The naive oracle re-runs a full LQ-based dirty paper
encode for every order, which is what a conventional implementation is
forced to do because the triangular factor does not survive permutation.
The diagonal search factors the channel once and obtains every order's
precoded signal by permuting a diagonal gain matrix inside

    x_pi = v @ diag(1/sigma) @ u^H @ (g^H diag(k) g) @ s

so its factorization count stays at one while the naive count grows as
n factorial. After that one factorization nothing is done per order in
Python. The lexicographic table of all n! orders and its inverse ``inv``
(``inv[j, slot]`` is the user order j puts in ``slot``) are built once
per n. Order j's signal is ``(k[inv[j]] * s) @ b.T`` with
``b = v @ diag(1/sigma) @ u^H``, its left factor gathered through ``inv``
from the per-user, per-slot table ``k[i] * s[slot]``; each chunk of
orders, sized to bound memory, is one matrix product. The objectives are
reductions along axes, sharing one power pass. ``min-power`` needs no
signals at all: it sums ``k[i]**2 / sigma[slot]**2``, gathered the same way.

Both engines score orders with the same reductions and pick the winner
with the same tie rule (:func:`_select`). They therefore produce
identical winners, and per-order signals equal to rounding; the counters
expose the work difference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .exceptions import DegenerateGain, OrderSpaceTooLarge
from .linalg import as_channel_stack, as_order, count_decompositions, lq_decompose, svd_inverse
from .precoding import as_gains, successive_encode

__all__ = [
    "MAX_ENUM_USERS",
    "OBJECTIVES",
    "OrderSearchResult",
    "objective_ap",
    "objective_papr",
    "naive_order_search",
    "diagonal_order_search",
    "order_table",
    "min_power_order_closed_form",
    "complexity_model",
]

# 8! = 40320 orders is the largest desk-scale enumeration allowed; larger
# searches fail loudly instead of silently truncating.
MAX_ENUM_USERS = 8

OBJECTIVES = ("average-power", "papr", "min-power")

# Relative tolerance of the tie rule (see _select).
_TIE_RTOL = 1e-12

# Signals are built for as many orders at a time as fit in this many
# complex entries (128 KiB), and for at least one order: n entries an
# order in the diagonal search, n * n in the naive oracle, whose chunks
# are stacks of (n, n) channels and encoders. Larger chunks save no time
# at n <= 8 and add their size to peak memory.
_CHUNK_ENTRIES = 1 << 13


def objective_ap(x: np.ndarray) -> float:
    """Average power of a precoded vector: mean of |x[i]|**2."""
    return float(_signal_values(("average-power",), _as_signal_block(x))[0][0])


def objective_papr(x: np.ndarray) -> float:
    """Peak-to-average power ratio: max |x[i]|**2 over mean |x[i]|**2."""
    return float(_signal_values(("papr",), _as_signal_block(x))[0][0])


def _as_signal_block(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    return x.reshape(1, x.size)


def _signal_values(kinds: tuple[str, ...], signals: np.ndarray) -> list[np.ndarray]:
    """Each objective in ``kinds``, one per row of ``(orders, n)``, from one power pass."""
    if not np.all(np.isfinite(signals)):
        raise ValueError("signal must be finite")
    power = signals.real**2 + signals.imag**2
    mean = power.mean(axis=1)
    if "papr" in kinds and np.any(mean == 0.0):
        raise DegenerateGain("PAPR is undefined for the all-zero signal")
    return [mean if kind == "average-power" else power.max(axis=1) / mean for kind in kinds]


def _select(values: np.ndarray) -> int:
    """Index of the winning order in the lexicographic order table.

    The tie rule, in one place for every search: among the orders whose
    value is within ``_TIE_RTOL`` relative of the minimum, the first
    (lexicographically smallest) wins. It depends on the values only,
    never on the order in which they were computed.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("objective values must be finite")
    best = values.min()
    return int(np.argmax(values - best <= _TIE_RTOL * abs(best)))


@lru_cache(maxsize=None)
def _lex_order_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """All n! orders of 0..n-1 in lexicographic order, as ``itertools.permutations``
    yields them: the ``order`` of each ``order_table`` row."""
    return tuple(itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def _lex_orders(n: int) -> np.ndarray:
    """``_lex_order_tuples(n)`` as an ``(n!, n)`` array, one order per row. Built
    once per n (n <= MAX_ENUM_USERS keeps the cache small) and read-only, since
    every caller shares it."""
    orders = np.array(_lex_order_tuples(n), dtype=np.intp)
    orders.setflags(write=False)
    return orders


@lru_cache(maxsize=None)
def _inverse_orders(n: int) -> np.ndarray:
    """The inverse of each order in ``_lex_orders(n)``, ``inv[j, orders[j, i]] = i``:
    ``inv[j, slot]`` is the user that order j puts in ``slot``. Cached read-only."""
    inv = np.argsort(_lex_orders(n), axis=1)
    inv.setflags(write=False)
    return inv


def _by_order(table: np.ndarray, chunk: slice = slice(None)) -> np.ndarray:
    """``out[j, slot] = table[inv[j, slot], slot]`` for the orders of ``chunk``: from
    a per-user, per-slot table, each slot's entry for the user order j puts there."""
    return table[_inverse_orders(len(table))[chunk], np.arange(len(table))]


def _order_values(
    kinds: tuple[str, ...], b: np.ndarray, k: np.ndarray, s: np.ndarray
) -> list[np.ndarray]:
    """Values of each objective in ``kinds`` for every order's signal, one
    product per chunk of orders (see the module docstring)."""
    ks = k[:, np.newaxis] * s[np.newaxis, :]
    parts = [
        _signal_values(kinds, _by_order(ks, chunk) @ b.T)
        for chunk in _chunks(len(_lex_orders(k.size)), k.size)
    ]
    return [np.concatenate(column) for column in zip(*parts)]


def _chunks(orders: int, entries_per_order: int) -> Iterator[slice]:
    """Slices of ``range(orders)``, each at most ``_CHUNK_ENTRIES`` entries (or one order)."""
    step = max(1, _CHUNK_ENTRIES // entries_per_order)
    return (slice(start, start + step) for start in range(0, orders, step))


@dataclass
class OrderSearchResult:
    """Outcome of an exhaustive precoding-order search."""

    best_order: np.ndarray
    best_value: float
    best_signal: np.ndarray
    decompositions_performed: int
    permutations_evaluated: int


def _search_inputs(
    h: np.ndarray, s: np.ndarray, gains: np.ndarray, objective: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked ``(h, k, s)`` of a search: a square channel within the
    enumeration guard, a known objective, n gains and n symbols."""
    if np.ndim(h) != 2:
        raise ValueError(f"channel must be a square matrix, got shape {np.shape(h)}")
    h = as_channel_stack(h)[0]
    n = h.shape[0]
    if n > MAX_ENUM_USERS:
        raise OrderSpaceTooLarge(
            f"{n}! orders exceed the n <= {MAX_ENUM_USERS} enumeration guard"
        )
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    k = as_gains(gains, n)
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (n,):
        raise ValueError(f"symbol vector must have shape ({n},), got {s.shape}")
    return h, k, s


def naive_order_search(
    h: np.ndarray,
    s: np.ndarray,
    gains: np.ndarray,
    objective: str = "average-power",
) -> OrderSearchResult:
    """Reference order search that repeats a full DPC per order.

    For each order pi the channel rows and the data are permuted, the
    permuted channel is freshly LQ-factorized (the channels of a chunk of
    orders as one stack, one factorization each), and a gain-controlled
    successive encode produces that order's precoded vector; the encode
    targets the original slot gains, which in unpermuted user space is
    exactly the diagonal permutation ``g^H diag(k) g``. Orders are
    scored with the same reductions and chosen with the same tie rule as
    :func:`diagonal_order_search`.

    ``decompositions_performed`` equals n! by construction, which is the
    cost this search exists to demonstrate. For the ``min-power``
    objective the order-invariant eigenvalues are taken once from the
    singular values; that bookkeeping is not a per-order factorization
    and is not counted as one.
    """
    h, k, s = _search_inputs(h, s, gains, objective)
    n = h.shape[0]
    orders = _lex_orders(n)
    signals = np.empty(orders.shape, dtype=np.complex128)
    values = np.empty(orders.shape[0])
    with count_decompositions() as counter:
        for chunk in _chunks(orders.shape[0], n * n):
            block = orders[chunk]
            # One LQ per order: the rows of h permuted by each order, stacked.
            signals[chunk] = successive_encode(lq_decompose(h[block]), k, s[block])
            if objective != "min-power":
                (values[chunk],) = _signal_values((objective,), signals[chunk])
    if objective == "min-power":
        lam = np.linalg.svd(h, compute_uv=False) ** 2
        values = _by_order(k[:, np.newaxis] ** 2 / lam).sum(axis=1)
    best = _select(values)
    return OrderSearchResult(
        best_order=orders[best].copy(),
        best_value=float(values[best]),
        best_signal=signals[best].copy(),
        decompositions_performed=counter.total,
        permutations_evaluated=orders.shape[0],
    )


def diagonal_order_search(
    h: np.ndarray,
    s: np.ndarray,
    gains: np.ndarray,
    objective: str = "average-power",
) -> OrderSearchResult:
    """Order search by diagonal permutation: one factorization total.

    The channel is SVD-factorized once into ``b = v @ diag(1/sigma) @ u^H``,
    and every order is evaluated from it as the module docstring describes.
    The winner is picked by :func:`_select`, as in :func:`naive_order_search`.
    """
    h, k, s = _search_inputs(h, s, gains, objective)
    with count_decompositions() as counter:
        b, sigma = svd_inverse(h)
    orders = _lex_orders(h.shape[0])
    if objective == "min-power":
        values = _by_order(k[:, np.newaxis] ** 2 / sigma**2).sum(axis=1)
    else:
        (values,) = _order_values((objective,), b, k, s)
    best = _select(values)
    return OrderSearchResult(
        best_order=orders[best].copy(),
        best_value=float(values[best]),
        best_signal=b @ (k[_inverse_orders(h.shape[0])[best]] * s),
        decompositions_performed=counter.total,
        permutations_evaluated=orders.shape[0],
    )


def order_table(h: np.ndarray, s: np.ndarray, gains: np.ndarray) -> list[dict]:
    """Per-order AP and PAPR rows for all n! orders (diagonal route).

    Returns a list of ``{"order": tuple, "ap": float, "papr": float}``
    in lexicographic order of the orders, from the same batched
    evaluation as :func:`diagonal_order_search`.
    """
    h, k, s = _search_inputs(h, s, gains, "average-power")
    b, _ = svd_inverse(h)
    ap, papr = _order_values(("average-power", "papr"), b, k, s)
    return [
        {"order": order, "ap": a, "papr": r}
        for order, a, r in zip(_lex_order_tuples(h.shape[0]), ap.tolist(), papr.tolist())
    ]


def min_power_order_closed_form(gains: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Minimal-power order without enumeration, by the rearrangement inequality.

    The transmit-power functional sum_m k[m]**2 / lambda[order[m]] is
    minimized by pairing the largest gain with the largest eigenvalue.
    With ``sigma`` (hence ``lambda``) descending, the optimal order sends
    each gain to the slot of its descending rank; ties resolve to the
    lexicographically smallest order. Water-filled gains are already
    ranked like the eigenvalues, so they map to the identity order.
    """
    k = as_gains(gains)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != k.shape or np.any(sigma <= 0):
        raise ValueError("sigma must be positive and match the gain vector")
    if np.any(np.diff(sigma) > 0):
        raise ValueError("sigma must be sorted in descending order")
    by_desc = np.argsort(-k, kind="stable")
    rank = np.empty_like(by_desc)
    rank[by_desc] = np.arange(k.size, dtype=np.intp)
    return as_order(rank)


def complexity_model(n: int) -> tuple[float, float, float]:
    """Decomposition-cost model of the two searches.

    Returns ``(naive, proposed, ratio_db)`` where naive = n**3 * n!
    (one cubic factorization per order), proposed = n**3 + n! (one
    factorization plus n! diagonal permutations), and ratio_db is the
    naive-over-proposed ratio in decibels.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    fact = float(math.factorial(n))
    naive = float(n**3) * fact
    proposed = float(n**3) + fact
    return naive, proposed, 10.0 * math.log10(naive / proposed)
