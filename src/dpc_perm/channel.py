"""Seeded broadcast-channel generation.

Channels are square complex Gaussian matrices with unit variance per
entry (1/2 per real component), drawn from counter-based Philox streams
so that every realization is a pure function of its seed regardless of
process or worker layout. A stream is a ``SeedSequence(seed,
spawn_key=...)`` feeding a Philox generator (:func:`stream`).
:func:`sample_channel` draws one channel, or a stack of ``m`` channels,
the BER sweep's channel draw (see :mod:`dpc_perm.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChannelSpec", "stream", "sample_channel", "generate_channel"]


@dataclass(frozen=True)
class ChannelSpec:
    """Description of one reproducible channel draw."""

    n_users: int
    seed: int

    def __post_init__(self) -> None:
        for name, value, low in (("n_users", self.n_users, 1), ("seed", self.seed, 0)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """Philox generator for ``(seed, spawn_key)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def sample_channel(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """Draw an n x n channel, or a stack ``(m, n, n)`` of them, with i.i.d.
    CN(0, 1) entries.

    One array of standard normals is drawn, ``(2, n, n)`` or
    ``(m, 2, n, n)``: per channel the real parts first, then the imaginary
    parts, each scaled to N(0, 1/2), so every entry has unit total
    variance. Channel i of a stack is therefore the i-th of ``m`` single
    draws made in turn from ``rng``. The draw order is part of the
    reproducibility contract.
    """
    z = rng.standard_normal((2, n, n) if m is None else (m, 2, n, n))
    # One complex stack, written part by part: numpy divides a complex by
    # the real c as a multiply by fl(1/c), so this is (re + 1j·im) / √2 to
    # the bit without its three complex temporaries.
    h = np.empty(z.shape[:-3] + z.shape[-2:], dtype=np.complex128)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(z[..., 0, :, :], scale, out=h.real)
    np.multiply(z[..., 1, :, :], scale, out=h.imag)
    return h


def generate_channel(spec: ChannelSpec) -> np.ndarray:
    """Deterministically generate the channel described by ``spec``."""
    return sample_channel(stream(spec.seed), spec.n_users)

