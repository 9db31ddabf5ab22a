"""Transmit-side precoders for the MU-MISO broadcast channel.

Two equivalent dirty-paper implementations sit at the core: the
conventional successive one built on an LQ factorization and per-user
feedback, and the linear one built on a single SVD with a designed
diagonal gain matrix. Around them: water-filling gain design, power
scaling, and the usual comparison baselines (ZF, MMSE, THP, BD).

All precoders are pure functions of their inputs. Each takes one channel
``(n, n)`` or a stack of channels ``(m, n, n)``, with per-channel symbols
and gains stacked alike; a single channel is the ``m = 1`` case of the
same batched code, so a stacked call equals the per-channel calls
exactly. The BER sweep (``sim``) calls these functions, one stack per
chunk of trials.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateGain, InfeasibleBlocking, NumericallySingular
from .linalg import EPS_SING, LqFactors, as_channel_stack, lq_decompose, svd_inverse

# 1/sigma**2 is finite and positive exactly for sigma in [1/_SIGMA_MAX, _SIGMA_MAX].
_SIGMA_MAX = float(np.sqrt(np.finfo(np.float64).max))

__all__ = [
    "as_gains",
    "dpc_conventional",
    "successive_encode",
    "successive_feedback",
    "dpc_linear",
    "waterfill",
    "waterfill_powers",
    "zf_precode",
    "mmse_precode",
    "thp_precode",
    "thp_modulo_base",
    "modulo_lattice",
    "bd_precode",
    "power_scale",
]


def as_gains(k: np.ndarray, n: int | None = None) -> np.ndarray:
    """Validate a diagonal gain vector: finite and non-negative."""
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or k.size < 1:
        raise ValueError(f"gains must be a 1-D vector, got shape {k.shape}")
    if n is not None and k.size != n:
        raise ValueError(f"gains have length {k.size}, expected {n}")
    if not np.all(np.isfinite(k)):
        raise ValueError("gains must be finite")
    if np.any(k < 0):
        raise ValueError("gains must be non-negative")
    return k


# ---------------------------------------------------------------------------
# Dirty paper coding
# ---------------------------------------------------------------------------


def dpc_conventional(h: np.ndarray, s: np.ndarray, gains: np.ndarray | None = None) -> np.ndarray:
    """Successive (Gram-Schmidt) dirty-paper precoding.

    Factors ``h = l @ q`` and encodes ``s`` with :func:`successive_encode`:
    one LQ and O(n^2) feedback work per channel. With the default gains
    ``k = diag(l)``, a noise-free channel sees ``h @ x = diag(l) @ s``
    exactly, one interference-free gain per user.

    ``h`` is a channel ``(n, n)`` or a stack ``(m, n, n)``; the symbols
    ``s``, one per user, and the result have shape ``h.shape[:-1]``. The
    target gains (``(n,)`` or ``h.shape[:-1]``) default to ``diag(l)``;
    zero entries are allowed and mute the corresponding user.

    Raises
    ------
    NumericallySingular
        Propagated from the LQ factorization when a feedback division
        would blow up.
    """
    return _successive_precode(h, s, gains)


def successive_encode(
    factors: LqFactors, gains: np.ndarray, s: np.ndarray, modulo_base: float | None = None
) -> np.ndarray:
    """The successive encode ``x = q^H @ x~`` of symbols ``s`` ``(m, n)``
    against LQ factors, the one encode of :func:`dpc_conventional` and
    :func:`thp_precode`: the symbols, scaled by ``gains / diag(l)`` (exactly
    1 for THP's gains ``diag(l)``), run through :func:`successive_feedback`
    with ``modulo_base``, so a channel costs O(n^2) and one ``q^H`` product.

    ``factors`` holds ``k`` channels, ``m`` a multiple of ``k``: channel ``c``
    encodes rows ``[c * m/k, (c + 1) * m/k)`` of ``s``, with gains ``(n,)`` or
    ``(k, n)``, in the buffer layout ``(k, n, m/k)``. A stack (``k = m``) is
    ``(m, n, 1)``; one shared channel (``k = 1``) is ``(1, n, m)``, each user
    one matrix-vector product over all draws.
    """
    k, n = factors.l.shape[:2]
    xt = (s.reshape(k, -1, n) * (gains / factors.diag)[:, np.newaxis]).transpose(0, 2, 1).copy()
    successive_feedback(factors.l, xt, modulo_base)
    return (factors.q.conj().transpose(0, 2, 1) @ xt).transpose(0, 2, 1).reshape(-1, n)


def dpc_linear(h: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Linear dirty-paper precoding matrix ``w = v @ diag(1/sigma) @ u^H @ diag(gains)``.

    Built from a single SVD per channel (:func:`linalg.svd_inverse`, which
    gives a zero gain an exactly-zero column); satisfies
    ``h @ w = diag(gains)`` so the effective channel is diagonal and
    interference-free. ``h`` is a channel ``(n, n)`` or a stack
    ``(m, n, n)``; ``gains`` has shape ``(n,)`` or ``h.shape[:-1]``.

    Raises
    ------
    NumericallySingular
        If the smallest singular value is below ``EPS_SING`` times the
        largest.
    """
    hs = as_channel_stack(h)
    w, _ = svd_inverse(hs, _as_stack_gains(gains, hs))
    return w if np.ndim(h) == 3 else w[0]


# ---------------------------------------------------------------------------
# Gain design
# ---------------------------------------------------------------------------


def waterfill_powers(sigma: np.ndarray, p_total: float) -> tuple[np.ndarray, float | np.ndarray]:
    """Exact active-set water-filling over eigenchannels ``lambda = sigma**2``.

    ``sigma`` is one channel's singular values ``(n,)`` or a stack ``(m, n)``,
    each row descending and within about ``[7.46e-155, 1.34e154]``, where
    ``1/lambda`` is finite and positive; a stacked call equals the per-row
    calls exactly. Per row, the ``a`` strongest channels have the
    closed-form water level ``mu_a = (p_total + sum_{i<a} 1/lambda[i]) / a``;
    the largest set with ``mu_a > 1/lambda[a-1]`` is kept (``a = 1`` and
    ``mu_1`` if none passes, as when a ``1e-300`` budget rounds away), so
    ``sum(p) == p_total`` holds to rounding, not to an iteration tolerance.
    Returns ``(p, mu)``: the powers ``p[i] = max(mu - 1/lambda[i], 0)``, of
    the shape of ``sigma`` (exact zeros outside the active set), and the
    water level, a scalar for one vector and ``(m,)`` for a stack.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim not in (1, 2) or sigma.size < 1:
        raise ValueError(f"sigma must be a vector (n,) or a stack (m, n), got shape {sigma.shape}")
    in_range = (sigma >= 1.0 / _SIGMA_MAX) & (sigma <= _SIGMA_MAX)  # False for NaN
    if not np.all(in_range) or np.any(np.diff(sigma) > 0):
        raise ValueError("sigma must be descending, with 1/sigma**2 finite and positive")
    if not (p_total > 0 and np.isfinite(p_total)):
        raise ValueError(f"power budget must be positive and finite, got {p_total}")
    inv = 1.0 / np.atleast_2d(sigma) ** 2
    rows, n = inv.shape
    mu, active, todo = np.empty(rows), np.ones(rows, dtype=int), np.arange(rows)
    # todo: rows without a set yet. Each sum runs over one contiguous row, as
    # in a one-row call, so a stacked call equals the per-row calls exactly.
    for a in range(n, 0, -1):
        level = (p_total + inv[todo, :a].sum(axis=1)) / a
        found = level > inv[todo, a - 1]
        mu[todo] = level
        active[todo[found]] = a
        todo = todo[~found]
        if todo.size == 0:
            break
    p = np.where(np.arange(n) < active[:, np.newaxis], mu[:, np.newaxis] - inv, 0.0)
    return (p[0], mu[0]) if sigma.ndim == 1 else (p, mu)


def waterfill(sigma: np.ndarray, p_total: float) -> np.ndarray:
    """Water-filled effective gains ``k[i] = sqrt(p[i] * lambda[i])``, shaped
    like ``sigma`` (see :func:`waterfill_powers`). Weak channels may get zero
    power and hence a zero gain; callers that require strictly positive
    gains must drop those users. ``sum(k**2 / lambda) == p_total`` holds
    exactly by construction.
    """
    p, _ = waterfill_powers(sigma, p_total)
    return np.sqrt(p * np.asarray(sigma, dtype=float) ** 2)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def power_scale(w: np.ndarray, power: float) -> np.ndarray:
    """Factor ``sqrt(power / tr(w w^H))`` that scales a precoding matrix, or
    each matrix of a stack ``(m, n, n)``, to ``tr(w w^H) == power``.

    Raises :class:`DegenerateGain` for an all-zero matrix, and for one so
    small that ``power / tr(w w^H)`` would overflow (an MMSE matrix at a
    huge noise variance); the check runs before the division.
    """
    if not power > 0:
        raise ValueError(f"power must be positive, got {power}")
    total = np.sum(np.abs(w) ** 2, axis=(-2, -1))
    if np.any(total == 0.0):
        raise DegenerateGain("cannot power-scale an all-zero precoder")
    if np.any(total <= power / np.finfo(np.float64).max):
        raise DegenerateGain(f"cannot power-scale to {power:g}: the precoder is too small")
    return np.sqrt(power / total)


def zf_precode(h: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder ``w = h^{-1}``, unscaled; :func:`power_scale`
    gives the factor to ``tr(w w^H) = power``.

    ``h`` is a channel ``(n, n)`` or a stack ``(m, n, n)``, inverted by one
    batched ``np.linalg.inv``. A channel is singular, and raises
    :class:`NumericallySingular`, when the inverse fails or the Frobenius
    condition bound ``||H||_F * ||H^-1||_F`` reaches ``1 / EPS_SING``. The
    bound lies between the condition number ``sigma_max / sigma_min`` and
    ``n`` times it, so it rejects every channel the SVD check of
    :func:`linalg.svd_inverse` rejects, for the cost of two norms.
    """
    hs = as_channel_stack(h)
    try:
        w = np.linalg.inv(hs)
    except np.linalg.LinAlgError as exc:
        raise NumericallySingular("channel is singular: no inverse") from exc
    bound = np.linalg.norm(hs, axis=(1, 2)) * np.linalg.norm(w, axis=(1, 2))
    if not np.all(bound < 1.0 / EPS_SING):
        raise NumericallySingular(
            f"channel condition bound ||H||_F ||H^-1||_F reaches 1/{EPS_SING:g}"
        )
    return w if np.ndim(h) == 3 else w[0]


def mmse_precode(h: np.ndarray, noise_var: float) -> np.ndarray:
    """Regularized channel inversion ``w = h^H (h h^H + n * noise_var * I)^{-1}``.

    The regularizer sums the noise over the n users. As ``noise_var``
    goes to zero the direction converges to the zero-forcing one, and
    ``noise_var = 0`` (infinite SNR) is the zero-forcing precoder itself,
    with its singularity rule. For ``noise_var > 0`` the matrix stays
    finite even for singular channels. ``h`` is a channel ``(n, n)`` or a
    stack ``(m, n, n)``. The matrix is unscaled; :func:`power_scale` gives
    the factor to ``tr(w w^H) = power``.
    """
    if not noise_var >= 0:
        raise ValueError(f"noise_var must be non-negative, got {noise_var}")
    if noise_var == 0:
        return zf_precode(h)
    hs = as_channel_stack(h)
    n = hs.shape[1]
    hh = hs.conj().transpose(0, 2, 1)
    w = hh @ np.linalg.inv(hs @ hh + (n * noise_var) * np.eye(n))
    return w if np.ndim(h) == 3 else w[0]


def modulo_lattice(z: np.ndarray, base: float) -> np.ndarray:
    """Wrap real and imaginary parts independently into ``[-base, base)``.

    Values already inside the region pass through unchanged. A wrapped
    part that rounding leaves a few ulps outside the region (it is then
    next to ``-base`` or ``base``, one lattice point) is clipped back in.
    """
    if not base > 0:
        raise ValueError(f"modulo base must be positive, got {base}")
    z = np.asarray(z, dtype=np.complex128)
    # Both parts in one pass over the interleaved float64 view, computing
    # r - span * floor((r + base) / span) in one buffer.
    r = np.ascontiguousarray(z).view(np.float64)
    span = 2.0 * base
    out = r + base
    out /= span
    np.floor(out, out=out)
    out *= span
    np.subtract(r, out, out=out)
    np.clip(out, -base, np.nextafter(base, -np.inf), out=out)
    return out.view(np.complex128).reshape(z.shape)


def thp_modulo_base(points: np.ndarray) -> float:
    """Modulo base tied to a constellation: outermost amplitude plus half
    the minimum distance, so that the wrap lattice tiles the symbol grid."""
    points = np.asarray(points)
    reach = float(np.max(np.abs(points.real)))
    diffs = np.abs(points[:, np.newaxis] - points[np.newaxis, :])
    dmin = float(np.min(diffs[diffs > 0]))
    return reach + dmin / 2.0


def thp_precode(h: np.ndarray, s: np.ndarray, modulo_base: float) -> np.ndarray:
    """Tomlinson-Harashima precoding: the DPC feedback loop with a modulo.

    :func:`successive_encode` with gains ``diag(l)`` and ``modulo_base``,
    which bounds the transmit power at the cost of a receiver-side modulo:
    on a noise-free channel ``mod(h @ x / diag(l)) == s``. ``h`` is a
    channel ``(n, n)`` or a stack ``(m, n, n)``, ``s`` of shape ``h.shape[:-1]``.
    """
    return _successive_precode(h, s, None, modulo_base)


def successive_feedback(
    l: np.ndarray, xt: np.ndarray, modulo_base: float | None = None
) -> np.ndarray:
    """Successive feedback ``x~``, before the ``q^H`` rotation, computed in
    place: ``xt`` is overwritten and returned.

    The one feedback loop of both successive precoders, run by
    :func:`successive_encode` (conventional DPC without a modulo, THP with
    one) and by the sweep's THP over its data and pilot buffer. ``l`` is a
    stack of LQ lower factors ``(m, n, n)``, or one factor ``(1, n, n)``
    shared by every channel (broadcast, never copied). On entry ``xt``
    holds the inputs, any number of vectors per channel in a user-major
    complex128 layout ``(m, n, draws)``; on return it holds

        x~[i] = mod(s[i] - sum_{j<i} l[i, j] * x~[j] / l[i, i])

    where ``mod`` is :func:`modulo_lattice` with ``modulo_base``, or the
    identity when ``modulo_base`` is None. ``l`` is divided by its
    diagonal once; each user is then one batched matmul over its
    contiguous row ``[:, i, :]`` of every draw. User ``i`` reads its input
    row before writing it, and rows ``j < i`` already hold feedback
    outputs, so the result is exact. Pass a copy to keep the inputs.
    """
    b = l / np.diagonal(l, axis1=1, axis2=2)[:, :, np.newaxis]
    for i in range(xt.shape[1]):
        feedback = b[:, i : i + 1, :i] @ xt[:, :i]
        if modulo_base is None:
            xt[:, i : i + 1] -= feedback
        else:
            xt[:, i : i + 1] = modulo_lattice(xt[:, i : i + 1] - feedback, modulo_base)
    return xt


def bd_precode(h: np.ndarray) -> np.ndarray:
    """Block-diagonalization precoder for single-antenna users.

    Each user's column is confined to the null space of every other
    user's channel row, so inter-user interference is exactly zero, and
    the user's projected scalar channel is inverted. For a square channel
    of full rank that null space is spanned by column ``j`` of ``h^{-1}``,
    so BD is the channel inverse (Spencer, Swindlehurst & Haardt, IEEE TSP
    2004), computed as one batched inverse.

    What sets BD apart from zero forcing is its feasibility rule. User
    ``j``'s projected channel is ``1 / ||w[:, j]||``, and the user is
    infeasible when the column norm ``||w[:, j]||`` reaches
    ``1 / EPS_SING``. This per-user rule replaces the whole-channel
    condition bound of :func:`zf_precode`: a badly scaled channel whose
    users are each well separated, such as ``diag(1e6, 1e-7)``, is
    feasible for BD.

    ``h`` is a square channel ``(n, n)``, or a stack of them ``(m, n, n)``.
    The result is the unscaled precoder, with the shape of ``h``;
    :func:`power_scale` gives each channel's factor to
    ``tr(w w^H) = power``.

    Raises
    ------
    InfeasibleBlocking
        If some channel of the stack is singular, or some user's projected
        channel is numerically singular.
    """
    hs = as_channel_stack(h)
    try:
        w = np.linalg.inv(hs)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleBlocking("channel is singular: no null space left for blocking") from exc
    ok = np.linalg.norm(w, axis=1) < 1.0 / EPS_SING
    if not np.all(ok):
        user = int(np.nonzero(~ok)[1][0])
        raise InfeasibleBlocking(f"projected channel for user {user} is singular")
    return w if np.ndim(h) == 3 else w[0]


def _successive_precode(h: np.ndarray, s: np.ndarray, gains, modulo_base=None) -> np.ndarray:
    """Validate, factor, encode and unstack: both successive precoders."""
    hs = as_channel_stack(h)
    s = _as_symbols(s, h)
    factors = lq_decompose(hs)
    k = factors.diag if gains is None else _as_stack_gains(gains, hs)
    x = successive_encode(factors, k, s, modulo_base)
    return x if np.ndim(h) == 3 else x[0]


def _as_symbols(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Symbols for channel ``h``: shape ``h.shape[:-1]``, returned as ``(m, n)``."""
    s = np.asarray(s, dtype=np.complex128)
    shape = np.shape(h)[:-1]
    if s.shape != shape:
        raise ValueError(f"symbols must have shape {shape}, got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("symbols must be finite")
    return s.reshape(-1, shape[-1])


def _as_stack_gains(gains: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Non-negative gains for the stack ``hs``: shared ``(n,)`` or per channel ``(m, n)``."""
    k = np.asarray(gains, dtype=float)
    if k.shape not in (hs.shape[2:], hs.shape[:2]):
        raise ValueError(f"gains must have shape {hs.shape[2:]} or {hs.shape[:2]}, got {k.shape}")
    return as_gains(k.ravel()).reshape(k.shape)
