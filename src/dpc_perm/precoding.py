"""Transmit-side precoders for the MU-MISO broadcast channel.

Two equivalent dirty-paper implementations sit at the core: the
conventional successive one built on an LQ factorization and per-user
feedback, and the linear one built on a single SVD with a designed
diagonal gain matrix. Around them: water-filling gain design, gain
normalization, and the usual comparison baselines (ZF, MMSE, THP, BD).

All precoders are pure functions of their inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import DegenerateGain, InfeasibleBlocking, NumericallySingular
from .linalg import EPS_SING, as_channel_matrix, as_channel_stack, lq_decompose, svd_decompose

__all__ = [
    "as_gains",
    "dpc_conventional",
    "dpc_linear",
    "waterfill",
    "waterfill_powers",
    "normalize_gains",
    "zf_precode",
    "mmse_precode",
    "thp_precode",
    "thp_receive",
    "thp_modulo_base",
    "modulo_lattice",
    "bd_precode",
    "scale_to_power",
]


def as_gains(k: np.ndarray, n: int | None = None, allow_zero: bool = False) -> np.ndarray:
    """Validate a diagonal gain vector (positive, or non-negative if allowed)."""
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or k.size < 1:
        raise ValueError(f"gains must be a 1-D vector, got shape {k.shape}")
    if n is not None and k.size != n:
        raise ValueError(f"gains have length {k.size}, expected {n}")
    if not np.all(np.isfinite(k)):
        raise ValueError("gains must be finite")
    if allow_zero:
        if np.any(k < 0):
            raise ValueError("gains must be non-negative")
    elif np.any(k <= 0):
        raise ValueError("gains must be strictly positive")
    return k


# ---------------------------------------------------------------------------
# Dirty paper coding
# ---------------------------------------------------------------------------


def dpc_conventional(h: np.ndarray, s: np.ndarray, gains: np.ndarray | None = None) -> np.ndarray:
    """Successive (Gram-Schmidt) dirty-paper precoding.

    Factors ``h = l @ q``, runs the feedback recursion

        x~[i] = (k[i] * s[i] - sum_{j<i} l[i, j] * x~[j]) / l[i, i]

    and transmits ``x = q^H @ x~``. With the default gains
    ``k = diag(l)`` this is the textbook recursion
    ``x~[i] = s[i] - sum_{j<i} (l[i,j]/l[i,i]) x~[j]``; on a noise-free
    channel the receive side then sees ``h @ x = diag(l) @ s`` exactly,
    one interference-free gain per user.

    Parameters
    ----------
    h : np.ndarray
        Square channel matrix.
    s : np.ndarray
        Data symbols, one per user.
    gains : np.ndarray, optional
        Target per-user gains. Defaults to ``diag(l)``. Zero entries are
        allowed and mute the corresponding user.

    Raises
    ------
    NumericallySingular
        Propagated from the LQ factorization when a feedback division
        would blow up.
    """
    h = as_channel_matrix(h)
    s = _as_symbols(s, h.shape[0])
    factors = lq_decompose(h)
    l = factors.l
    k = factors.diag if gains is None else as_gains(gains, h.shape[0], allow_zero=True)
    n = h.shape[0]
    xt = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        xt[i] = (k[i] * s[i] - l[i, :i] @ xt[:i]) / l[i, i]
    return factors.q.conj().T @ xt


def dpc_linear(h: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Linear dirty-paper precoding matrix ``w = v @ diag(1/sigma) @ u^H @ diag(gains)``.

    Built from a single SVD; satisfies ``h @ w = diag(gains)`` so the
    effective channel is diagonal and interference-free. Zero gains
    produce exactly-zero columns (the muted user's symbol never enters
    the product, so no 0 * inf hazard arises).

    Raises
    ------
    NumericallySingular
        If the smallest singular value is below ``EPS_SING`` times the
        largest.
    """
    h = as_channel_matrix(h)
    k = as_gains(gains, h.shape[0], allow_zero=True)
    f = svd_decompose(h)
    if f.sigma[-1] <= EPS_SING * f.sigma[0]:
        raise NumericallySingular(
            f"singular value ratio {f.sigma[-1]:.3e}/{f.sigma[0]:.3e} below {EPS_SING:g}"
        )
    a = f.u.conj().T * k[np.newaxis, :]
    a /= f.sigma[:, np.newaxis]
    return f.v @ a


# ---------------------------------------------------------------------------
# Gain design
# ---------------------------------------------------------------------------


def waterfill_powers(sigma: np.ndarray, p_total: float) -> tuple[np.ndarray, float]:
    """Exact active-set water-filling over eigenchannels ``lambda = sigma**2``.

    Grows the active set from the strongest channel, solves the water
    level ``mu`` in closed form for each candidate set and keeps the
    largest feasible one, so ``sum(p) == p_total`` holds to rounding
    rather than to an iteration tolerance.

    Returns
    -------
    (p, mu)
        Per-channel powers ``p[i] = max(mu - 1/lambda[i], 0)`` (exact
        zeros outside the active set) and the water level.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size < 1 or np.any(sigma <= 0):
        raise ValueError("sigma must be a positive 1-D vector")
    if np.any(np.diff(sigma) > 0):
        raise ValueError("sigma must be sorted in descending order")
    if not p_total > 0:
        raise ValueError(f"power budget must be positive, got {p_total}")
    lam = sigma**2
    inv = 1.0 / lam
    n = lam.size
    mu = 0.0
    active = 1
    for m in range(n, 0, -1):
        mu = (p_total + inv[:m].sum()) / m
        if mu > inv[m - 1]:
            active = m
            break
    p = np.zeros(n)
    p[:active] = mu - inv[:active]
    return p, mu


def waterfill(sigma: np.ndarray, p_total: float) -> np.ndarray:
    """Water-filled effective gains ``k[i] = sqrt(p[i] * lambda[i])``.

    Weak channels may get zero power and hence a zero gain; callers that
    require strictly positive gains must drop those users. The identity
    ``sum(k**2 / lambda) == p_total`` holds exactly by construction.
    """
    p, _ = waterfill_powers(sigma, p_total)
    return np.sqrt(p * np.asarray(sigma, dtype=float) ** 2)


def normalize_gains(k: np.ndarray, target: float) -> np.ndarray:
    """Scale gains so that ``sum(k**2) == target``, preserving ratios."""
    k = as_gains(k, allow_zero=True)
    if not target > 0:
        raise ValueError(f"target must be positive, got {target}")
    total = float(np.sum(k**2))
    if total == 0.0:
        raise DegenerateGain("cannot normalize an all-zero gain vector")
    return k * np.sqrt(target / total)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def scale_to_power(w: np.ndarray, power: float | None) -> np.ndarray:
    """Scale a precoding matrix, or each matrix of a stack ``(m, n, n)``, so
    that ``tr(w w^H) == power`` (no-op if None)."""
    if power is None:
        return w
    if not power > 0:
        raise ValueError(f"power must be positive, got {power}")
    total = np.sum(np.abs(w) ** 2, axis=(-2, -1), keepdims=True)
    if np.any(total == 0.0):
        raise DegenerateGain("cannot power-scale an all-zero precoder")
    return w * np.sqrt(power / total)


def zf_precode(h: np.ndarray, power: float | None = None) -> np.ndarray:
    """Zero-forcing precoder ``w = h^{-1}``, optionally scaled to ``tr(w w^H) = power``."""
    h = as_channel_matrix(h)
    f = svd_decompose(h)
    if f.sigma[-1] <= EPS_SING * f.sigma[0]:
        raise NumericallySingular("channel not invertible for zero forcing")
    w = f.v @ (f.u.conj().T / f.sigma[:, np.newaxis])
    return scale_to_power(w, power)


def mmse_precode(h: np.ndarray, noise_var: float, power: float | None = None) -> np.ndarray:
    """Regularized channel inversion ``w = h^H (h h^H + n * noise_var * I)^{-1}``.

    The regularizer sums the noise over the n users. As ``noise_var``
    goes to zero the direction converges to the zero-forcing one; the
    matrix stays finite even for singular channels.
    """
    h = as_channel_matrix(h)
    if not noise_var > 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    n = h.shape[0]
    gram = h @ h.conj().T + (n * noise_var) * np.eye(n)
    w = h.conj().T @ np.linalg.inv(gram)
    return scale_to_power(w, power)


def modulo_lattice(z: np.ndarray, base: float) -> np.ndarray:
    """Wrap real and imaginary parts independently into ``[-base, base)``.

    Values already inside the region pass through unchanged.
    """
    if not base > 0:
        raise ValueError(f"modulo base must be positive, got {base}")
    z = np.asarray(z, dtype=np.complex128)
    span = 2.0 * base
    re = np.real(z) - span * np.floor((np.real(z) + base) / span)
    im = np.imag(z) - span * np.floor((np.imag(z) + base) / span)
    return re + 1j * im


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

    Each feedback output is lattice-reduced into ``[-base, base)`` per
    real dimension before it feeds later users, bounding the transmit
    power at the cost of a receiver-side modulo. On a noise-free channel
    ``mod(h @ x / diag(l)) == s`` after the receiver divides by the
    per-user gain and wraps.
    """
    h = as_channel_matrix(h)
    s = _as_symbols(s, h.shape[0])
    factors = lq_decompose(h)
    l = factors.l
    n = h.shape[0]
    xt = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        xt[i] = modulo_lattice(s[i] - (l[i, :i] @ xt[:i]) / l[i, i], modulo_base)
    return factors.q.conj().T @ xt


def thp_receive(y: np.ndarray, gains: np.ndarray, modulo_base: float) -> np.ndarray:
    """Receiver side of THP: per-user gain compensation then modulo."""
    y = np.asarray(y, dtype=np.complex128)
    k = as_gains(gains, y.shape[-1])
    return modulo_lattice(y / k, modulo_base)


def bd_precode(
    h: np.ndarray, groups: Sequence[Sequence[int]], power: float | None = None
) -> np.ndarray:
    """Block-diagonalization precoder for a partition of users into groups.

    Each group's columns are confined to the null space of every other
    group's channel rows, so inter-group interference is exactly zero;
    within a group the effective channel is inverted. For a square
    channel of full rank, the null space of the other ``n - |g|`` rows
    has dimension exactly ``|g|`` and is spanned by the columns ``g`` of
    ``h^{-1}``, so BD over any partition is the channel inverse (Spencer,
    Swindlehurst & Haardt, IEEE TSP 2004). It is computed as one batched
    inverse over the whole stack. With single-antenna users every group
    is a singleton, the configuration the BER sweeps use.

    What sets BD apart from zero forcing are its feasibility checks. The
    projected in-group channel of group ``g`` has singular values
    ``1 / sv(w[:, g])``; the group is infeasible when the smallest of them
    is at most ``EPS_SING * max(largest, 1)``. For a singleton ``{j}``
    that is a column norm ``||w[:, j]|| >= 1 / EPS_SING``.

    Parameters
    ----------
    h : np.ndarray
        Square channel ``(n, n)``, or a stack of them ``(m, n, n)``.
    groups : sequence of sequences of int
        A partition of the users ``0..n-1``, shared by every channel.
    power : float, optional
        If given, each channel's precoder is scaled to ``tr(w w^H) = power``.

    Returns
    -------
    np.ndarray
        The precoder, with the shape of ``h``.

    Raises
    ------
    ValueError
        If ``groups`` is not a partition of ``0..n-1``.
    InfeasibleBlocking
        If some channel of the stack is singular, or some group's
        projected channel is numerically singular.
    """
    hs = as_channel_stack(h)
    n = hs.shape[1]
    parts = [np.asarray(list(group), dtype=np.intp) for group in groups]
    users = np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
    if (
        any(g.size == 0 for g in parts)
        or np.any((users < 0) | (users >= n))
        or np.unique(users).size < users.size
    ):
        raise ValueError(f"groups must partition 0..{n - 1}, got {groups!r}")
    if users.size < n:
        raise ValueError(f"groups must cover every user, got {groups!r}")

    try:
        w = np.linalg.inv(hs)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleBlocking("channel is singular: no null space left for blocking") from exc
    # A column norm of at least 1 / EPS_SING makes its singleton infeasible,
    # and every larger group holding that column as well.
    ok = np.linalg.norm(w, axis=1) < 1.0 / EPS_SING
    for g in parts:
        if g.size > 1:
            sv = np.linalg.svd(w[:, :, g], compute_uv=False)
            ok[:, g] &= 1.0 / sv[:, :1] > EPS_SING * np.maximum(1.0 / sv[:, -1:], 1.0)
    if not np.all(ok):
        bad = int(np.nonzero(~ok)[1][0])
        group = next(g for g in parts if bad in g)
        raise InfeasibleBlocking(f"projected channel for group {group.tolist()} is singular")
    w = scale_to_power(w, power)
    return w if np.ndim(h) == 3 else w[0]


def _as_symbols(s: np.ndarray, n: int) -> np.ndarray:
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (n,):
        raise ValueError(f"symbol vector must have shape ({n},), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("symbols must be finite")
    return s
