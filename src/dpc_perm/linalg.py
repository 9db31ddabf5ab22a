"""Complex dense linear algebra for broadcast-channel precoding.

LQ and SVD factorizations with fixed uniqueness conventions, the checked
SVD inverse built on them, order validation, and the permutation
identities that make the diagonal-permutation order search work:
row-permuting a channel only row-permutes the left singular vectors,
while the triangular factor of an LQ decomposition does not survive a
row permutation.

The factorizations and the inverse take one channel ``(n, n)`` or a stack
``(m, n, n)``, as the precoders do (see :mod:`dpc_perm.precoding`).

Orders are 0-based one-line notation throughout: ``order[i] = j`` means
row ``i`` of the permuted object is row ``j`` of the original, so the
row-permutation operator ``g = np.eye(n)[order]`` has ``g @ m == m[order, :]``.
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
    "as_channel_stack",
    "lq_decompose",
    "svd_decompose",
    "svd_inverse",
    "as_order",
    "permuted_svd",
    "diagonal_permute",
    "lq_not_permutation_linear_witness",
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


@dataclass(eq=False)
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
    :func:`svd_decompose`, once per factored channel (a stack of ``m``
    channels counts ``m``), so search instrumentation cannot claim work
    that never went through a factorization routine.
    """
    counter = DecompositionCounter()
    stack = _recorder_stack()
    stack.append(counter)
    try:
        yield counter
    finally:
        # Counters compare by identity, so an outer recorder with equal
        # counts stays.
        stack.remove(counter)


def _tick(kind: str, count: int) -> None:
    for counter in _recorder_stack():
        setattr(counter, kind, getattr(counter, kind) + count)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def as_channel_stack(h: np.ndarray) -> np.ndarray:
    """Validate ``h`` as one square channel ``(n, n)`` or a stack ``(m, n, n)``.

    Returns the finite complex128 stack; a single channel comes back as
    the ``m = 1`` stack.
    """
    h = np.asarray(h, dtype=np.complex128)
    stack = h[np.newaxis] if h.ndim == 2 else h
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or min(stack.shape) < 1:
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


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LqFactors:
    """LQ factorization ``h = l @ q`` with ``l`` lower-triangular, ``q`` unitary.

    The diagonal of ``l`` is real and non-negative (phases are absorbed
    into ``q``), which pins the otherwise free phase of each row and makes
    ``diag(l)`` usable directly as a per-user gain vector. For a stack
    of channels ``l`` and ``q`` are stacks ``(m, n, n)`` too.
    """

    l: np.ndarray
    q: np.ndarray

    @property
    def diag(self) -> np.ndarray:
        """Real diagonal of ``l`` (the per-user channel gains), ``(..., n)``."""
        return np.real(np.diagonal(self.l, axis1=-2, axis2=-1)).copy()


@dataclass(frozen=True)
class SvdFactors:
    """SVD ``h = u @ diag(sigma) @ v^H`` with ``sigma`` sorted descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma[..., np.newaxis, :]) @ self.v.conj().swapaxes(-2, -1)


def lq_decompose(h: np.ndarray) -> LqFactors:
    """Factor a square channel ``(n, n)``, or each channel of a stack
    ``(m, n, n)``, as ``h = l @ q``: lower-triangular ``l`` with real
    non-negative diagonal and unitary ``q``, both with the shape of ``h``.

    Raises
    ------
    NumericallySingular
        If any diagonal entry of ``l`` falls below
        ``EPS_SING * ||h||_F``, which would poison the feedback division
        in dirty paper coding downstream.
    """
    hs = as_channel_stack(h)
    # LQ of h is the conjugate transpose of a QR of h^H.
    q_r, r = np.linalg.qr(hs.conj().transpose(0, 2, 1))
    _tick("lq", hs.shape[0])
    d = np.diagonal(r, axis1=1, axis2=2).conj()
    mag = np.abs(d)
    phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    l = r.conj().transpose(0, 2, 1) * phase.conj()[:, np.newaxis, :]
    idx = np.arange(hs.shape[1])
    l[:, idx, idx] = mag
    q = phase[:, :, np.newaxis] * q_r.conj().transpose(0, 2, 1)
    scale = np.linalg.norm(hs, axis=(1, 2))
    if not np.all(mag > EPS_SING * scale[:, np.newaxis]):
        raise NumericallySingular(
            f"LQ diagonal below {EPS_SING:g} * ||H||_F, channel is numerically singular"
        )
    return LqFactors(l=l, q=q) if np.ndim(h) == 3 else LqFactors(l=l[0], q=q[0])


def svd_decompose(h: np.ndarray) -> SvdFactors:
    """Singular value decomposition of a square channel or of each channel
    of a stack ``(m, n, n)`` (one factorization per channel).

    Returns
    -------
    SvdFactors
        Unitary ``u`` and ``v`` and the singular values sorted in
        descending order, so ``h = u @ diag(sigma) @ v^H``.
    """
    hs = as_channel_stack(h)
    u, sigma, vh = np.linalg.svd(hs)
    _tick("svd", hs.shape[0])
    f = SvdFactors(u=u, sigma=sigma, v=vh.conj().transpose(0, 2, 1))
    return f if np.ndim(h) == 3 else SvdFactors(u=u[0], sigma=sigma[0], v=f.v[0])


def svd_inverse(h: np.ndarray, gains: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(v @ diag(1/sigma) @ u^H @ diag(gains), sigma)`` from one SVD per channel.

    ``h`` is a channel ``(n, n)`` or a stack ``(m, n, n)``; ``gains`` (unit
    gains if None) has shape ``(n,)`` or ``h.shape[:-1]``. The product is
    formed as ``v @ ((u^H * gains) / sigma)``, so a zero gain gives an
    exactly-zero column.

    Raises
    ------
    NumericallySingular
        If some channel's smallest singular value is at most ``EPS_SING``
        times its largest.
    """
    f = svd_decompose(as_channel_stack(h))
    if not np.all(f.sigma[:, -1] > EPS_SING * f.sigma[:, 0]):
        raise NumericallySingular(f"singular value ratio sigma_min/sigma_max below {EPS_SING:g}")
    k = np.ones(f.sigma.shape) if gains is None else gains
    a = f.u.conj().transpose(0, 2, 1) * np.asarray(k)[..., np.newaxis, :]
    a /= f.sigma[:, :, np.newaxis]
    w = f.v @ a
    return (w, f.sigma) if np.ndim(h) == 3 else (w[0], f.sigma[0])


# ---------------------------------------------------------------------------
# Permutation identities
# ---------------------------------------------------------------------------


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
