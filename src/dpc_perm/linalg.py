"""Complex dense linear algebra for broadcast-channel precoding.

LQ and SVD factorizations with fixed uniqueness conventions, the checked
SVD inverse built on them, order validation, and the permutation
identities that make the diagonal-permutation order search work:
row-permuting a channel only row-permutes the left singular vectors,
while the triangular factor of an LQ decomposition does not survive a
row permutation.

The factorizations and the inverse take one channel ``(n, n)`` or a stack
``(m, n, n)``, as the precoders do (see :mod:`dpc_perm.precoding`).
The LQ is one Householder QR of ``hᴴ`` (LAPACK geqrf): ``q`` stays as its
n reflectors, which :func:`lq_apply_qh` applies to a successive encode's
vectors (the ``xUNMQR`` route; Golub & Van Loan, *Matrix Computations*,
§5.1-5.2), and is formed only when read. A caller that reads only the LQ
diagonal (the ``diag(L)`` gains) takes :func:`lq_diagonal`, which forms
neither ``q`` nor ``l``. Only this module calls ``np.linalg.qr``, so every
LQ output derives from one ``R``.

Orders are 0-based one-line notation throughout: ``order[i] = j`` means
row ``i`` of the permuted object is row ``j`` of the original, so the
row-permutation operator ``g = np.eye(n)[order]`` has ``g @ m == m[order, :]``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
    "frobenius_norm",
    "lq_decompose",
    "lq_apply_qh",
    "lq_diagonal",
    "svd_decompose",
    "singular_values",
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

    Only :func:`lq_decompose`, :func:`lq_diagonal`, :func:`svd_decompose`
    and :func:`singular_values` tick it, once per factored channel (a stack of
    ``m`` channels counts ``m``), so search instrumentation cannot claim
    work that never went through a factorization routine.
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
    if not np.isfinite(stack).all():
        raise ValueError("channel entries must be finite")
    return stack


def frobenius_norm(x: np.ndarray) -> np.ndarray:
    """``||x||_F`` of a complex matrix or of each of a stack: one einsum over its float64 view."""
    r = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", r, r))


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
    if not np.array_equal(np.sort(p), np.arange(p.size)):
        raise InvalidPermutation(f"{list(order)!r} is not a bijection of 0..{p.size - 1}")
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

    ``q`` is not stored but kept as the one geqrf of ``hᴴ``: ``hᴴ = Q_r R``,
    ``Q_r = H_0 H_1 ... H_{n-1}``, ``H_i = I - tau_i v_i v_iᴴ``. Row ``i`` of
    ``reflectors`` (numpy's ``mode="raw"`` array) holds ``R[:i+1, i]``, then
    the tail of ``v_i`` (0 before entry ``i``, 1 at it); ``tau`` and the
    unit ``phase`` are ``(..., n)``, and ``q = diag(phase) @ Q_rᴴ``, which
    :func:`lq_apply_qh` applies. Reading ``q`` forms it once, from a
    complete QR of ``hᴴ`` (numpy's ``R`` is the same in every mode). ``h``
    is the factored channel itself, not a copy, which would add a stack to
    every sweep chunk: change it in place only after reading ``q``.
    """

    l: np.ndarray
    reflectors: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)

    @property
    def diag(self) -> np.ndarray:
        """Real diagonal of ``l`` (the per-user channel gains), ``(..., n)``."""
        return np.real(np.diagonal(self.l, axis1=-2, axis2=-1)).copy()

    @cached_property
    def q(self) -> np.ndarray:
        """The unitary factor, shaped like ``l``; formed once, on first read."""
        q_r = np.linalg.qr(np.swapaxes(self.h.conj(), -2, -1))[0]
        return self.phase[..., np.newaxis] * np.swapaxes(q_r.conj(), -2, -1)


@dataclass(frozen=True)
class SvdFactors:
    """SVD ``h = u @ diag(sigma) @ v^H`` with ``sigma`` sorted descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma[..., np.newaxis, :]) @ self.v.conj().swapaxes(-2, -1)


def _lq_magnitudes(hs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``|diag(r)|`` ``(m, n)``, the LQ diagonal of the stack ``hs`` from the
    geqrf output ``r`` of ``hsᴴ`` (its diagonal is ``R``'s), under
    :func:`lq_diagonal`'s rule on :func:`frobenius_norm`; ticks one LQ per channel."""
    _tick("lq", hs.shape[0])
    mag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    if not np.all(mag > EPS_SING * frobenius_norm(hs)[:, np.newaxis]):
        raise NumericallySingular(
            f"LQ diagonal below {EPS_SING:g} * ||H||_F, channel is numerically singular"
        )
    return mag


@lru_cache(maxsize=None)
def _strict_upper(n: int) -> np.ndarray:
    """Boolean mask of the strict upper triangle of ``(n, n)``; cached read-only."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def lq_decompose(h: np.ndarray) -> LqFactors:
    """Factor a square channel ``(n, n)``, or each channel of a stack
    ``(m, n, n)``, as ``h = l @ q``: lower-triangular ``l`` with real
    non-negative diagonal and unitary ``q``, both with the shape of ``h``.

    One geqrf per channel (``np.linalg.qr(hᴴ, mode="raw")``): ``l`` comes
    from its ``R`` and ``q`` stays in its reflectors (see
    :class:`LqFactors`), so a successive encode costs no ``q`` stack. A
    caller that reads only ``.diag`` takes :func:`lq_diagonal`, which gives
    the same array without forming ``l``; ``l``'s strict-upper mask is cached per ``n``.

    Raises
    ------
    NumericallySingular
        As :func:`lq_diagonal`.
    """
    hs = as_channel_stack(h)
    # LQ of h is the conjugate transpose of a QR of h^H.
    reflectors, tau = np.linalg.qr(hs.conj().transpose(0, 2, 1), mode="raw")
    mag = _lq_magnitudes(hs, reflectors)  # all positive, or it raised
    phase = np.diagonal(reflectors, axis1=1, axis2=2).conj() / mag
    # l = Rᴴ diag(conj(phase)): row i of the reflectors holds column i of R.
    # Stored as the transpose of a C-ordered stack, the layout of Rᴴ, which
    # fixes the summation order of the feedback's products over l.
    n = hs.shape[1]
    l = np.conjugate(reflectors.transpose(0, 2, 1), order="C").transpose(0, 2, 1)
    l *= phase.conj()[:, np.newaxis, :]
    l[:, _strict_upper(n)] = 0.0
    idx = np.arange(n)
    l[:, idx, idx] = mag
    if np.ndim(h) == 2:
        l, reflectors, tau, phase, hs = l[0], reflectors[0], tau[0], phase[0], hs[0]
    return LqFactors(l=l, reflectors=reflectors, tau=tau, phase=phase, h=hs)


def lq_apply_qh(factors: LqFactors, xt: np.ndarray) -> np.ndarray:
    """``qᴴ @ xt`` ``(k, d, n)`` for the LQ factors of ``k`` channels
    ``(k, n, n)`` and ``d`` vectors a channel ``xt`` ``(k, n, d)``: the one
    ``qᴴ`` product of :func:`dpc_perm.precoding.successive_encode` and the
    sweep's THP.

    One vector a channel (a stack, or one channel) takes the ``n``
    reflectors, last first, each one batched step over all channels, and
    never forms ``q``, and conjugates the reflectors once a call. Several (the fixed
    channel's draws) take one GEMM with ``q``, formed once, which beats ``n`` steps there.
    """
    if xt.shape[2] > 1:
        return (factors.q.conj().transpose(0, 2, 1) @ xt).transpose(0, 2, 1)
    # qᴴ x = Q_r (conj(phase) ∘ x) = H_0 (H_1 (... H_{n-1} (conj(phase) ∘ x))).
    # Every complex product is an einsum, which rounds alike whatever the
    # strides; `*` picks a SIMD or a strided loop by layout, and those round
    # differently, while a stacked call must equal its per-channel calls.
    n = xt.shape[1]
    y = np.ascontiguousarray(np.einsum("kn,kn->nk", xt[:, :, 0], factors.phase.conj()))
    v_conj = factors.reflectors.conj()
    for i in range(n - 1, -1, -1):
        v = factors.reflectors[:, i, i + 1 :].T  # tail of v_i, (n - 1 - i, k)
        vh_y = y[i] + np.einsum("jk,jk->k", v_conj[:, i, i + 1 :].T, y[i + 1 :])
        w = np.einsum("k,k->k", factors.tau[:, i], vh_y)
        y[i] -= w
        y[i + 1 :] -= np.einsum("k,jk->jk", w, v)
    return y.T[:, np.newaxis, :]


def lq_diagonal(h: np.ndarray) -> np.ndarray:
    """The real non-negative diagonal of ``l`` in ``h = l @ q``, ``(n,)`` for a
    channel or ``(m, n)`` for a stack ``(m, n, n)``: ``lq_decompose(h).diag``
    to the bit, from the diagonal of the one geqrf of ``hᴴ`` alone (neither
    ``q`` nor ``l`` is formed), counted as one LQ per channel.

    Raises
    ------
    NumericallySingular
        If any diagonal entry falls below ``EPS_SING * ||h||_F``, which
        would poison the feedback division in dirty paper coding
        downstream.
    """
    hs = as_channel_stack(h)
    mag = _lq_magnitudes(hs, np.linalg.qr(hs.conj().transpose(0, 2, 1), mode="raw")[0])
    return mag if np.ndim(h) == 3 else mag[0]


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


def singular_values(h: np.ndarray) -> np.ndarray:
    """Descending singular values of a channel, ``(n,)``, or of each channel of
    a stack, ``(m, n)``, without the singular vectors (one SVD a channel)."""
    hs = as_channel_stack(h)
    sigma = np.linalg.svd(hs, compute_uv=False)
    _tick("svd", hs.shape[0])
    return sigma if np.ndim(h) == 3 else sigma[0]


def svd_inverse(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(v @ diag(1/sigma) @ u^H, sigma)`` from one SVD per channel: the
    inverse in the form whose ``u`` an order permutes (the order search).

    ``h`` is a channel ``(n, n)`` or a stack ``(m, n, n)``.

    Raises
    ------
    NumericallySingular
        If some channel's smallest singular value is at most ``EPS_SING``
        times its largest.
    """
    f = svd_decompose(h)
    if not (f.sigma[..., -1] > EPS_SING * f.sigma[..., 0]).all():
        raise NumericallySingular(f"singular value ratio sigma_min/sigma_max below {EPS_SING:g}")
    return f.v @ (f.u.conj().swapaxes(-2, -1) / f.sigma[..., np.newaxis]), f.sigma


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
