"""Complex dense linear algebra for broadcast-channel precoding.

LQ and SVD factorizations with fixed uniqueness conventions, permutation
operators in one-line notation, and the permutation identities that make
the diagonal-permutation order search work: row-permuting a channel only
row-permutes the left singular vectors, while the triangular factor of an
LQ decomposition does not survive a row permutation.

Orders are 0-based one-line notation throughout: ``order[i] = j`` means
row ``i`` of the permuted object is row ``j`` of the original, so
``permutation_matrix(order) @ m == m[order, :]``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exceptions import InvalidPermutation, NumericallySingular

__all__ = [
    "EPS_LIN",
    "EPS_SING",
    "DecompositionCounter",
    "count_decompositions",
    "LqFactors",
    "SvdFactors",
    "as_channel_matrix",
    "as_channel_stack",
    "lq_decompose",
    "svd_decompose",
    "as_order",
    "identity_order",
    "invert_order",
    "compose_orders",
    "permutation_matrix",
    "permuted_svd",
    "diagonal_permute",
    "lq_not_permutation_linear_witness",
    "inverse_via_lq",
]

# Relative Frobenius tolerance for factorization identities, and the
# relative threshold below which a pivot or singular value counts as zero.
# Double precision with n <= 32 keeps reconstruction errors orders of
# magnitude below EPS_LIN.
EPS_LIN = 1e-10
EPS_SING = 1e-12


# ---------------------------------------------------------------------------
# Decomposition counting
# ---------------------------------------------------------------------------

_local = threading.local()


def _recorder_stack() -> list:
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


@dataclass
class DecompositionCounter:
    """Counts factorizations executed while a recorder is active."""

    lq: int = 0
    svd: int = 0

    @property
    def total(self) -> int:
        return self.lq + self.svd


@contextmanager
def count_decompositions() -> Iterator[DecompositionCounter]:
    """Record every LQ/SVD factorization performed in this thread.

    The counter is incremented only by :func:`lq_decompose` and
    :func:`svd_decompose`, so search instrumentation cannot claim work
    that never went through a factorization routine.
    """
    counter = DecompositionCounter()
    stack = _recorder_stack()
    stack.append(counter)
    try:
        yield counter
    finally:
        # By identity: counters are dataclasses that compare equal by
        # value, and an outer recorder with equal counts must stay.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is counter:
                del stack[i]
                break


def _tick(kind: str) -> None:
    for counter in _recorder_stack():
        setattr(counter, kind, getattr(counter, kind) + 1)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def as_channel_matrix(h: np.ndarray) -> np.ndarray:
    """Validate and return ``h`` as a square finite complex128 array."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError(f"channel must be a square matrix, got shape {h.shape}")
    return as_channel_stack(h)[0]


def as_channel_stack(h: np.ndarray) -> np.ndarray:
    """Validate ``h`` as one square channel ``(n, n)`` or a stack ``(m, n, n)``.

    Returns the finite complex128 stack; a single channel comes back as
    the ``m = 1`` stack.
    """
    h = np.asarray(h, dtype=np.complex128)
    stack = h[np.newaxis] if h.ndim == 2 else h
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(
            f"channel must be a square matrix or a stack (m, n, n) of them, got shape {h.shape}"
        )
    if not np.all(np.isfinite(stack)):
        raise ValueError("channel entries must be finite")
    return stack


def as_order(order: Sequence[int], n: int | None = None) -> np.ndarray:
    """Validate an order vector as a bijection of 0..n-1.

    Raises
    ------
    InvalidPermutation
        If ``order`` is not a permutation of 0..n-1 (or its length does
        not match ``n`` when given).
    """
    p = np.asarray(order)
    if p.ndim != 1 or p.size < 1 or not np.issubdtype(p.dtype, np.integer):
        raise InvalidPermutation(f"order must be a 1-D integer vector, got {order!r}")
    if n is not None and p.size != n:
        raise InvalidPermutation(f"order has length {p.size}, expected {n}")
    seen = np.zeros(p.size, dtype=bool)
    for v in p:
        if v < 0 or v >= p.size or seen[v]:
            raise InvalidPermutation(f"{list(order)!r} is not a bijection of 0..{p.size - 1}")
        seen[v] = True
    return p.astype(np.intp)


def identity_order(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.intp)


def invert_order(order: Sequence[int]) -> np.ndarray:
    p = as_order(order)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size, dtype=np.intp)
    return inv


def compose_orders(p: Sequence[int], q: Sequence[int]) -> np.ndarray:
    """Composite order ``p after q``: ``compose_orders(p, q)[i] = p[q[i]]``."""
    p = as_order(p)
    q = as_order(q, p.size)
    return p[q]


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LqFactors:
    """LQ factorization ``h = l @ q`` with ``l`` lower-triangular, ``q`` unitary.

    The diagonal of ``l`` is real and non-negative (phases are absorbed
    into ``q``), which pins the otherwise free phase of each row and makes
    ``diag(l)`` usable directly as a per-user gain vector.
    """

    l: np.ndarray
    q: np.ndarray

    @property
    def diag(self) -> np.ndarray:
        """Real diagonal of ``l`` (the per-user channel gains)."""
        return np.real(np.diag(self.l)).copy()


@dataclass(frozen=True)
class SvdFactors:
    """SVD ``h = u @ diag(sigma) @ v^H`` with ``sigma`` sorted descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.conj().T


def lq_decompose(h: np.ndarray) -> LqFactors:
    """Factor a square channel as ``h = l @ q``.

    Parameters
    ----------
    h : np.ndarray
        Square complex channel matrix with finite entries.

    Returns
    -------
    LqFactors
        Lower-triangular ``l`` with real non-negative diagonal and
        unitary ``q``.

    Raises
    ------
    NumericallySingular
        If any diagonal entry of ``l`` falls below
        ``EPS_SING * ||h||_F``, which would poison the feedback division
        in dirty paper coding downstream.
    """
    h = as_channel_matrix(h)
    # LQ of h is the conjugate transpose of a QR of h^H.
    q_r, r = np.linalg.qr(h.conj().T)
    _tick("lq")
    l = r.conj().T
    d = np.diagonal(l)
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    l = l * phase.conj()[np.newaxis, :]
    np.fill_diagonal(l, np.abs(d))
    q = phase[:, np.newaxis] * q_r.conj().T
    scale = np.linalg.norm(h)
    if not np.all(np.diagonal(l).real > EPS_SING * scale):
        raise NumericallySingular(
            f"LQ diagonal below {EPS_SING:g} * ||H||_F, channel is numerically singular"
        )
    return LqFactors(l=l, q=q)


def svd_decompose(h: np.ndarray) -> SvdFactors:
    """Singular value decomposition of a square channel.

    Returns
    -------
    SvdFactors
        Unitary ``u`` and ``v`` and the singular values sorted in
        descending order, so ``h = u @ diag(sigma) @ v^H``.
    """
    h = as_channel_matrix(h)
    u, sigma, vh = np.linalg.svd(h)
    _tick("svd")
    return SvdFactors(u=u, sigma=sigma, v=vh.conj().T)


def inverse_via_lq(h: np.ndarray) -> np.ndarray:
    """Invert a channel by forward substitution on its LQ factors.

    Solves ``h @ x = I`` as ``x = q^H @ (l^{-1})``, independent of any SVD
    path. Serves as the reference inverse when cross-checking precoders
    built from ``v @ diag(1/sigma) @ u^H``.
    """
    factors = lq_decompose(h)
    n = factors.l.shape[0]
    y = _solve_lower(factors.l, np.eye(n, dtype=np.complex128))
    return factors.q.conj().T @ y


def _solve_lower(l: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution for a lower-triangular system ``l @ x = rhs``."""
    n = l.shape[0]
    x = np.zeros_like(rhs, dtype=np.complex128)
    for i in range(n):
        x[i] = (rhs[i] - l[i, :i] @ x[:i]) / l[i, i]
    return x


# ---------------------------------------------------------------------------
# Permutation identities
# ---------------------------------------------------------------------------


def permutation_matrix(order: Sequence[int]) -> np.ndarray:
    """Row-permutation operator ``g`` with ``g @ m == m[order, :]``."""
    p = as_order(order)
    g = np.zeros((p.size, p.size))
    g[np.arange(p.size), p] = 1.0
    return g


def permuted_svd(factors: SvdFactors, order: Sequence[int]) -> SvdFactors:
    """SVD of the row-permuted channel from the SVD of the original.

    Row-permuting a channel ``h`` by ``order`` only row-permutes ``u``;
    ``sigma`` and ``v`` are untouched, so no fresh factorization is
    needed. The result reconstructs ``h[order, :]`` exactly.
    """
    p = as_order(order, factors.u.shape[0])
    return SvdFactors(u=factors.u[p, :], sigma=factors.sigma, v=factors.v)


def diagonal_permute(gains: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Conjugate a diagonal gain matrix by a permutation operator.

    Computes the diagonal of ``g^H @ diag(gains) @ g`` for the row
    permutation ``g``, i.e. reorders the gain values on the diagonal
    while preserving their multiset: ``out[order[i]] = gains[i]``.
    """
    gains = np.asarray(gains, dtype=float)
    p = as_order(order, gains.size)
    out = np.empty_like(gains)
    out[p] = gains
    return out


def lq_not_permutation_linear_witness(h: np.ndarray, order: Sequence[int]) -> bool:
    """True iff row-permuting the LQ lower factor breaks its triangularity.

    Demonstrates why LQ-based dirty paper coding must re-factorize for
    every precoding order while the SVD route does not: ``g @ l`` keeps
    lower-triangular form only for the identity order (on channels with
    no engineered zero structure).
    """
    factors = lq_decompose(h)
    p = as_order(order, factors.l.shape[0])
    gl = factors.l[p, :]
    upper = np.triu(gl, k=1)
    return bool(np.max(np.abs(upper), initial=0.0) > EPS_LIN * np.linalg.norm(factors.l))
