"""Monte Carlo bit-error-rate sweeps over precoders and SNR grids.

Trials are simulated in chunks, each one channel stack ``(m, n, n)``.
Precoding is two steps. The design reads only the channels: the factors,
the gains, the precoding matrix and, for zf and bd, the power scale, from
one call into :mod:`precoding` (:func:`run_ber_sweep` says when a design
is made). The transmit reads the symbols: ``w @ s``,
``successive_encode``, THP's buffer of data and pilots
(:func:`_thp_transmit`), or mmse's singular vectors, whose weights
:func:`_mmse_transmit` rescales at each point. So the tested precoders
are the ones that make the BER curves; this module picks the precoder,
designs the gains and calibrates the transmit power.

Conventions, since the source figures never define them:

* SNR axis: noise variance per receive entry is
  ``(power_budget / n_users) / 10**(snr_db/10)`` with unit-energy
  constellations. A precoder delivering unit per-user effective gain at
  the power budget would trace the textbook QAM curve, so the axis reads
  as a nominal per-user symbol SNR shared by every method.
* Baseline transmit power: ZF, MMSE, and BD are scaled so
  ``tr(w w^H) = power_budget``; THP, being nonlinear, is scaled per
  channel from pilots fed back through it (:func:`_thp_transmit`).
* The gain-controlled DPC family transmits its designed signal
  unrescaled: user n's effective gain is exactly the designed ``k[n]``
  (``diag(l)`` or the water-filled gains), which is what defines
  conventional dirty paper coding in the first place. Rescaling it to the
  budget would change the meaning of the per-user SNR axis; the budget
  enters through the gain design (water-filling) and the noise variance.
* Receiver: per-user gain compensation and a hard decision only (plus
  the lattice modulo for THP). All interference handling lives at the
  transmitter.
* Water-filled sweeps may mute users (zero gain); muted users transmit
  nothing and their bits are excluded from the error accounting.

Random draws (scheme ``philox-ss-v5``, named in every CSV header and
manifest): trials are grouped in chunks of ``_CHUNK = 512``, and chunk
``t // 512`` draws from four Philox streams, one per kind, keyed
``(seed, chunk, kind)``: 0 the channels (``sample_channel(rng, n, m)``,
per-trial mode only), 1 the data bits (``(m, n * bits_per_symbol)``
uint8), 2 the unit noise (``(m, 2, n)`` standard normals, real then
imaginary parts) and 3 the THP pilot labels (``(1, _THP_PILOTS, n)``
uint8, THP only), one pilot batch per chunk in both channel modes,
shared by every channel of the chunk. Kinds 0-2 are one array each with
the trial on the leading axis, so trial t's draws are row ``t % 512``
and depend only on ``(seed, t)``: not on the SNR point,
``trials_per_point``, the worker count, the precoder or the channel
mode. Every point of the SNR grid reuses them (common random numbers):
a chunk draws, designs and transmits once, and each point adds the one
unit noise draw scaled by its ``sqrt(nv / 2)``; mmse's points rescale
the chunk's one SVD and receive through its ``u`` alone. So a curve's
points are positively correlated estimates, not independent ones. A
fixed-channel sweep and a per-trial sweep see the same bits and noise,
and THP's pilots shift nobody's draws; the pilot batch depends only on
``(seed, chunk)``. The bits and pilot labels are the values of numpy's
``integers`` with ``(0, 2**b)`` and ``dtype=np.uint8`` (``b`` 1 for
bits, ``bits_per_symbol`` for labels), read in flat C order as the top
``b`` bits of the bytes of the stream's 64-bit Philox words in
little-endian order (:func:`_uint8_draws`). The chunk size and this
layout are part of the reproducibility contract; README's
Reproducibility section keeps the history of earlier schemes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__ as _version
from .channel import sample_channel, stream
from .exceptions import ConfigError, DpcPermError, WorkerCrashed
from .linalg import LqFactors, SvdFactors, lq_apply_qh, lq_decompose, lq_diagonal
from .linalg import singular_values, svd_decompose
from .modem import (
    Constellation,
    QAM_ORDERS,
    _bit_labels,
    _decide,
    make_constellation,
    modulation_name,
    wilson_interval,
)
from .precoding import (
    _mmse_weights,
    _scale_to_power,
    bd_precode,
    dpc_linear,
    modulo_lattice,
    power_scale,
    successive_encode,
    successive_feedback,
    thp_modulo_base,
    waterfill,
    zf_precode,
)

__all__ = [
    "PRECODERS",
    "GAIN_MODES",
    "CHANNEL_MODES",
    "SweepConfig",
    "BerRecord",
    "noise_variance",
    "fixed_channel_for",
    "run_ber_sweep",
    "resolve_workers",
    "config_hash",
    "config_int",
    "config_float",
    "config_object",
    "write_ber_csv",
    "write_manifest",
    "sweep_csv_name",
    "GRAY_LABELING_NOTE",
    "RNG_SCHEME",
]

PRECODERS = ("dpc-conventional", "dpc-linear", "zf", "mmse", "thp", "bd")
GAIN_MODES = ("diag-L", "waterfill")
CHANNEL_MODES = ("fixed-channel", "per-trial-channel")

GRAY_LABELING_NOTE = (
    "square QAM: per-axis binary-reflected Gray, MSB half=real axis, label 0 at +max; "
    "128-qam: cross with serpentine Gray columns"
)

# Name of the random-draw contract; a change to it gets a new name.
RNG_SCHEME = "philox-ss-v5"

# Stream namespaces (first spawn_key element). Namespace 0, the per-trial
# streams of philox-ss-v1, is not reused, so no later stream repeats a v1 one.
# A chunk's key (_NS_CHUNK, chunk, kind) has no SNR index, so it is one
# element shorter than any earlier chunk scheme's key and repeats none.
_NS_FIXED_CHANNEL = 1
_NS_CHUNK = 2

# Kinds of draw, one stream each per chunk (last spawn_key element).
_KIND_CHANNEL, _KIND_BITS, _KIND_NOISE, _KIND_PILOTS = range(4)

# Trials are processed in fixed-size chunks, each with its own streams, so
# that draws and partial reductions are identical no matter how many
# workers run them. Part of the random-draw contract.
_CHUNK = 512

# Pilot vectors per channel that calibrate THP's transmit power (_thp_transmit).
_THP_PILOTS = 128

# Largest estimated working set of one chunk (see _chunk_bytes); a bigger
# config is refused by SweepConfig.validate instead of failing to allocate.
_MAX_CHUNK_BYTES = 2**28

# Most worker processes a sweep may start (resolve_workers). Each is an
# interpreter with its own numpy, so a mistyped count must not start
# hundreds of them.
_MAX_WORKERS = 64

# Chunks a parallel sweep keeps submitted but not yet reduced, per worker:
# one running and one queued keep a worker busy, and the bound keeps a
# long sweep's queue of futures (and their results) from growing.
_CHUNKS_IN_FLIGHT_PER_WORKER = 2

# Largest power budget, about 1.3e154: a product of two powers stays finite.
_MAX_POWER_BUDGET = math.sqrt(np.finfo(np.float64).max)

_DPC_FAMILY = ("dpc-conventional", "dpc-linear")


@dataclass
class SweepConfig:
    """Full description of one BER sweep (JSON-serializable)."""

    n_users: int
    snr_grid_db: tuple
    trials_per_point: int
    constellation_order: int = 4
    channel_mode: str = "per-trial-channel"
    precoder: str = "dpc-linear"
    gain_mode: str = "diag-L"
    power_budget: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.power_budget is None:
            self.power_budget = self.n_users

    def validate(self) -> "SweepConfig":
        """Check every field, normalize it in place and return ``self``.

        The one check for configs built in Python and read from JSON
        alike (:meth:`from_dict` ends here, and :func:`run_ber_sweep`
        starts here). A bad value raises :class:`ConfigError` naming its
        field.
        """
        self.n_users = config_int(self.n_users, "n_users", 1)
        self.trials_per_point = config_int(self.trials_per_point, "trials_per_point", 1)
        self.constellation_order = config_int(self.constellation_order, "constellation_order", 1)
        self.seed = config_int(self.seed, "seed", 0)
        need = _chunk_bytes(self)
        if need > _MAX_CHUNK_BYTES:
            raise ConfigError(
                f"invalid value for field 'n_users': {self.n_users} users need about "
                f"{need // 2**20} MiB per chunk of trials, above the "
                f"{_MAX_CHUNK_BYTES // 2**20} MiB limit"
            )
        self.power_budget = config_float(self.power_budget, "power_budget")
        if not isinstance(self.snr_grid_db, (list, tuple)):
            raise ConfigError("invalid value for field 'snr_grid_db': expected a list")
        self.snr_grid_db = tuple(_parse_snr(v) for v in self.snr_grid_db)
        checks = [
            (self.constellation_order in QAM_ORDERS, "constellation_order"),
            (self.channel_mode in CHANNEL_MODES, "channel_mode"),
            (self.precoder in PRECODERS, "precoder"),
            (self.gain_mode in GAIN_MODES, "gain_mode"),
            (self.power_budget > 0, "power_budget"),
            (len(self.snr_grid_db) >= 1, "snr_grid_db"),
            (self.gain_mode == "diag-L" or self.precoder in _DPC_FAMILY, "gain_mode"),
        ]
        for ok, field_name in checks:
            if not ok:
                raise ConfigError(f"invalid value for field {field_name!r}")
        for snr_db in filter(math.isfinite, self.snr_grid_db):
            try:
                nv = noise_variance(self, snr_db)
            except (OverflowError, ZeroDivisionError):
                nv = math.nan
            if not 0.0 < nv < math.inf:
                raise ConfigError(
                    f"invalid value for field 'snr_grid_db': {snr_db!r} dB gives a noise "
                    f"variance that is not finite and positive"
                )
        if self.power_budget > _MAX_POWER_BUDGET:
            raise ConfigError(f"invalid value for field 'power_budget': over {_MAX_POWER_BUDGET:g}")
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        """A checked config from its JSON object (see :meth:`validate`)."""
        required = ("n_users", "snr_grid_db", "trials_per_point")
        config_object(raw, "sweep config", required, cls.__dataclass_fields__)
        return cls(**raw).validate()

    def to_dict(self) -> dict:
        d = asdict(self.validate())
        d["snr_grid_db"] = ["inf" if math.isinf(v) else v for v in self.snr_grid_db]
        return d


def config_object(raw, what: str, required: Iterable[str], known: Iterable[str]) -> None:
    """Check the JSON shape of a config: an object that holds every field in
    ``required`` and no field outside ``known``; else :class:`ConfigError`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = set(required) - set(raw)
    if missing:
        raise ConfigError(f"missing required config fields: {sorted(missing)}")


def config_int(value, field_name: str, minimum: int) -> int:
    """Value of an integer config field, at least ``minimum``.

    JSON integers arrive as ``int``, or as ``float`` when written like
    ``4.0``. Booleans (an ``int`` subclass), fractional or non-finite
    floats, strings and other types raise :class:`ConfigError` instead of
    being truncated or coerced.
    """
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"invalid value for field {field_name!r}: {value!r} is not an integer")
    if value < minimum:
        raise ConfigError(f"invalid value for field {field_name!r}: {value!r} is below {minimum}")
    return int(value)


def config_float(value, field_name: str) -> float:
    """Value of a real-valued config field.

    JSON numbers arrive as ``int`` or ``float``. Booleans (an ``int``
    subclass), strings, other types and non-finite values raise
    :class:`ConfigError` instead of being coerced.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"invalid value for field {field_name!r}: {value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"invalid value for field {field_name!r}: {value!r} is not finite")
    return number


def _parse_snr(v) -> float:
    """One SNR point: a finite number, or +inf (the noiseless point) given
    as the string ``"inf"`` or as a float."""
    if isinstance(v, str) and v.lower() in ("inf", "infinity", "+inf"):
        return math.inf
    if isinstance(v, float) and v == math.inf:
        return v
    return config_float(v, "snr_grid_db")


@dataclass
class BerRecord:
    """One SNR point of a sweep.

    ``measured_tx_power`` (mean transmit vector power) and
    ``min_decision_margin`` (distance of the closest received sample to a
    decision boundary) are diagnostics; the CSV schema carries only the
    spec'd columns.
    """

    snr_db: float
    bits_sent: int
    bit_errors: int
    ber: float
    ci_lo: float
    ci_hi: float
    measured_tx_power: float
    min_decision_margin: float


def _chunk_bytes(cfg: SweepConfig) -> int:
    """Estimated bytes of a sweep's largest chunk: the channel stack and the
    draw temporaries, 16 B per complex entry each, plus THP's buffer of
    ``m`` data vectors and ``_THP_PILOTS`` pilots per channel. The
    precoders' own temporaries bring the real peak to about 1.5-3.5 times
    the estimate (growth of the peak resident set at n = 64, 512 trials),
    so ``_MAX_CHUNK_BYTES`` keeps a chunk under about 1 GB."""
    m = min(cfg.trials_per_point, _CHUNK)
    n = cfg.n_users
    need = 2 * m * n * n * 16
    if cfg.precoder == "thp":
        channels = 1 if cfg.channel_mode == "fixed-channel" else m
        need += (m + channels * _THP_PILOTS) * n * 16
    return need


def noise_variance(cfg: SweepConfig, snr_db: float) -> float:
    """Per-entry complex noise variance for one SNR point (0 at inf SNR)."""
    if math.isinf(snr_db):
        return 0.0
    return (cfg.power_budget / cfg.n_users) / 10.0 ** (snr_db / 10.0)


def fixed_channel_for(cfg: SweepConfig) -> np.ndarray:
    """The channel used by every trial of a fixed-channel sweep."""
    return sample_channel(stream(cfg.seed, _NS_FIXED_CHANNEL), cfg.n_users)


def resolve_workers(workers: int | None) -> int:
    """Explicit worker count, else the DPC_PERM_WORKERS env var, else 1.

    Either must lie in 1.._MAX_WORKERS, else :class:`ConfigError`. The cap
    is fixed, not the host's CPU count, so a config validates the same
    way on every host.
    """
    if workers is not None:
        field_name, value = "workers", workers
    else:
        env = os.environ.get("DPC_PERM_WORKERS", "").strip()
        if not env:
            return 1
        try:
            field_name, value = "DPC_PERM_WORKERS", int(env)
        except ValueError as exc:
            raise ConfigError(f"DPC_PERM_WORKERS={env!r} is not an integer") from exc
    value = config_int(value, field_name, 1)
    if value > _MAX_WORKERS:
        raise ConfigError(
            f"invalid value for field {field_name!r}: {value} is above the limit of "
            f"{_MAX_WORKERS} worker processes"
        )
    return value


# ---------------------------------------------------------------------------
# Trial simulation
# ---------------------------------------------------------------------------


def _chunk_draws(
    cfg: SweepConfig, t0: int, t1: int, c: Constellation, fixed_hs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Random inputs of trials [t0, t1), ``t0`` a multiple of ``_CHUNK``,
    shared by every SNR point and drawn as the module docstring lays them
    out: the channel stack (``fixed_hs``, the fixed channel's
    ``(1, n, n)``, when given), the data bits, complex noise ``(m, n)`` of
    unit variance per component and, for THP, the pilot labels (else
    None)."""
    n, m, chunk = cfg.n_users, t1 - t0, t0 // _CHUNK

    def rng(kind: int) -> np.random.Generator:
        return stream(cfg.seed, _NS_CHUNK, chunk, kind)

    hs = sample_channel(rng(_KIND_CHANNEL), n, m) if fixed_hs is None else fixed_hs
    bits = _uint8_draws(rng(_KIND_BITS), (m, n * c.bits_per_symbol), 1)
    z = rng(_KIND_NOISE).standard_normal((m, 2, n))
    # Written part by part, as sample_channel writes its stack.
    noise = np.empty((m, n), dtype=np.complex128)
    noise.real, noise.imag = z[:, 0], z[:, 1]
    labels = None
    if cfg.precoder == "thp":
        labels = _uint8_draws(rng(_KIND_PILOTS), (1, _THP_PILOTS, n), c.bits_per_symbol)
    return hs, bits, noise, labels


def _uint8_draws(rng: np.random.Generator, shape: tuple[int, ...], b: int) -> np.ndarray:
    """numpy's ``integers`` draw of ``shape`` uint8 values in ``[0, 2**b)``
    from a fresh Philox ``rng``, bit for bit, at under a third of its cost.

    numpy's ``integers`` takes uint8 draws from the bytes of 32-bit draws,
    lowest byte first, and for a power-of-two range its multiply-shift
    (Lemire) never rejects and keeps each byte's top ``b`` bits. Philox
    serves a 32-bit draw as the low, then the high half of a 64-bit word,
    so the bytes are those of the stream's raw words in little-endian order.
    """
    count = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-count // 8))
    return (words.astype("<u8", copy=False).view(np.uint8)[:count] >> (8 - b)).reshape(shape)


def _apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` for each trial: ``v`` is ``(m, n)``, ``a`` a stack ``(m, n, n)``
    or one matrix ``(1, n, n)`` shared by every trial."""
    return (a @ v[..., np.newaxis])[..., 0]


@dataclass(frozen=True)
class _Design:
    """What a precoder derives from a channel stack ``hs`` ``(k, n, n)``
    alone, before any symbol is seen.

    ``factors`` is the LQ of ``hs`` (dpc-conventional, THP): ``l`` and the
    QR's reflectors for a chunk's stack, plus the formed ``q`` for the
    fixed channel (:func:`_successive_factors`); for mmse, the SVD of ``hs``,
    whose ``u`` and ``sigma`` serve every point (:func:`_mmse_transmit`).
    ``w`` is the precoding matrices (dpc-linear, zf, bd), ``alpha`` ``(k,)``
    their power scale (zf, bd) and ``gains`` ``(k, n)`` the effective gains
    (the DPC pair, zf and bd).
    """

    hs: np.ndarray
    factors: LqFactors | SvdFactors | None = None
    w: np.ndarray | None = None
    alpha: np.ndarray | None = None
    gains: np.ndarray | None = None


def _successive_factors(hs: np.ndarray) -> LqFactors:
    """The LQ of ``hs``. One channel (the fixed channel, designed once per
    sweep) forms its ``q`` here, before the design goes to every chunk,
    whose draws take one GEMM with it (:func:`linalg.lq_apply_qh`)."""
    factors = lq_decompose(hs)
    if len(hs) == 1:
        factors.q  # formed now and cached on the factors
    return factors


def _design(cfg: SweepConfig, hs: np.ndarray) -> _Design:
    """Design the precoder of ``hs``, a chunk's stack ``(m, n, n)`` or the
    fixed channel ``(1, n, n)``, for every point of the grid."""
    precoder = cfg.precoder
    if precoder == "thp":
        return _Design(hs, factors=_successive_factors(hs))
    if precoder == "mmse":
        return _Design(hs, factors=svd_decompose(hs))

    if precoder in _DPC_FAMILY:
        # Transmitted unrescaled (see the module docstring's conventions).
        # Only the successive encode reads Q; linear DPC, H⁻¹ diag(k), needs
        # at most diag(L), which an R-only QR gives without forming Q or L.
        factors = _successive_factors(hs) if precoder == "dpc-conventional" else None
        if cfg.gain_mode == "waterfill":
            k = waterfill(singular_values(hs), cfg.power_budget)
        else:
            k = lq_diagonal(hs) if factors is None else factors.diag
        if factors is not None:
            return _Design(hs, factors=factors, gains=k)
        return _Design(hs, w=dpc_linear(hs, k), gains=k)

    # BD of a square channel is its inverse, so this is the ZF matrix,
    # with BD's per-user feasibility rule in place of ZF's bound.
    return _scaled_design(cfg, hs, zf_precode(hs) if precoder == "zf" else bd_precode(hs))


def _scaled_design(cfg: SweepConfig, hs: np.ndarray, w: np.ndarray) -> _Design:
    """The design of the linear precoding matrices ``w`` of ``hs``, scaled to
    ``tr(w w^H) = power_budget``: zf, bd and mmse's infinite-SNR point."""
    alpha = power_scale(w, cfg.power_budget)
    hw_diag = np.real(np.einsum("mij,mji->mi", hs, w))
    return _Design(hs, w=w, alpha=alpha, gains=alpha[:, np.newaxis] * hw_diag)


def _simulate_chunk(cfg: SweepConfig, t0: int, t1: int, fixed: _Design | None) -> list[dict]:
    """Simulate trials [t0, t1) at every SNR point; returns one dict of
    partial sums per point, in grid order.

    The draws, the design and, for every precoder but mmse, the transmit
    and ``H x`` are made once for all points; each point adds its scaled
    noise, equalizes, decides and counts. mmse's weights read the noise
    variance, so it rotates the symbols by ``u^H`` once and each point
    forms its ``H x`` and power from them (:func:`_mmse_transmit`).
    ``fixed`` is None with per-trial channels, whose stack is designed
    here; on the fixed channel it is that channel's design, made by
    :func:`run_ber_sweep`. A failure in a point's own stage carries that
    point as ``snr_db`` (see :func:`_chunk_context`).
    """
    c = make_constellation(cfg.constellation_order)
    hs, bits, noise, pilots = _chunk_draws(cfg, t0, t1, c, None if fixed is None else fixed.hs)
    tx = _bit_labels(bits, c).reshape(t1 - t0, cfg.n_users)
    s = c.points[tx]
    design = _design(cfg, hs) if fixed is None else fixed
    shared = None if cfg.precoder == "mmse" else _transmit(cfg, design, s, pilots, c)
    if shared is None:  # mmse: u^H s, |u|**2 and |u^H s|**2 once, for every point
        u = design.factors.u
        uhs = _apply(u.conj().transpose(0, 2, 1), s)
        rotated = uhs, np.abs(u) ** 2, np.abs(uhs) ** 2

    parts = []
    for snr_db in cfg.snr_grid_db:
        nv = noise_variance(cfg, snr_db)
        try:
            sent = shared or _mmse_transmit(cfg, design, s, rotated, nv)
            parts.append(_point_sums(sent, tx, noise, nv, c, pilots is not None))
        except DpcPermError as exc:
            exc.snr_db = snr_db
            raise
    return parts


def _transmit(
    cfg: SweepConfig, design: _Design, s: np.ndarray, labels: np.ndarray | None, c: Constellation
) -> tuple[np.ndarray, np.ndarray, float]:
    """Transmit one chunk's symbols ``s`` ``(m, n)`` with ``design`` (THP when
    given pilot ``labels``); returns the effective gains, ``H x`` and the sum
    of ``|x|**2``. A design of one shared channel precodes every trial, its
    gains of shape ``(1, n)``."""
    g = design.gains
    if labels is not None:
        x, g = _thp_transmit(cfg, design.factors, s, labels, c)
    elif design.w is None:
        x = successive_encode(design.factors, g, s)
    else:
        x = _apply(design.w, s)
        if design.alpha is not None:
            x = design.alpha[:, np.newaxis] * x
    return g, _apply(design.hs, x), float(np.sum(np.abs(x) ** 2))


def _mmse_transmit(
    cfg: SweepConfig, design: _Design, s: np.ndarray, rotated: tuple, nv: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """One point's MMSE transmit, as :func:`_transmit`, from the chunk's SVD
    ``h = u diag(sigma) v^H`` and ``rotated = (u^H s, |u|**2, |u^H s|**2)``,
    in O(n^2) a trial. The transmit ``x = v (alpha d * u^H s)``, with the
    weights ``d`` of :func:`precoding.mmse_precode`, is never formed:
    ``H x = u (sad * u^H s)`` for ``sad = sigma alpha d``, the gains are
    ``|u|**2 @ sad``, and as ``u`` and ``v`` are unitary,
    ``tr(w w^H) = sum(d**2)`` and ``sum |x|**2 = sum (alpha d)**2 |u^H s|**2``.
    The infinite-SNR point is zf's design, with its inverse and singularity
    rule.
    """
    if nv == 0.0:
        return _transmit(cfg, _scaled_design(cfg, design.hs, zf_precode(design.hs)), s, None, None)
    (uhs, u2, uhs2), f = rotated, design.factors
    d = _mmse_weights(f.sigma, nv)
    ad = _scale_to_power(np.sum(d * d, axis=1), cfg.power_budget)[:, np.newaxis] * d
    sad = f.sigma * ad
    return _apply(u2, sad), _apply(f.u, sad * uhs), float(np.sum(ad * ad * uhs2))


def _point_sums(
    sent: tuple, tx: np.ndarray, noise: np.ndarray, nv: float, c: Constellation, is_thp: bool
) -> dict:
    """One SNR point's partial sums of a chunk: the transmit ``sent`` (see
    :func:`_transmit`) received with ``noise`` scaled to variance ``nv``,
    equalized, decided and counted against the labels ``tx``."""
    g, y, tx_power_sum = sent
    if nv > 0.0:
        y = y + math.sqrt(nv / 2.0) * noise

    # Only water-filled DPC mutes users (zero gain); every other chunk
    # decides all its samples without gathering them.
    active = g > 0
    if not active.all():
        active = np.broadcast_to(active, y.shape)
        y, g, tx = y[active], np.broadcast_to(g, active.shape)[active], tx[active]
    y_hat = y / g
    if is_thp:
        y_hat = modulo_lattice(y_hat, _thp_base(c.order))

    rx, margins = _decide(y_hat.ravel(), c)
    return {
        "errors": int(np.bitwise_count(tx.ravel() ^ rx).sum()),
        "bits": tx.size * c.bits_per_symbol,
        "tx_power_sum": tx_power_sum,
        "min_margin": float(margins.min()) if margins.size else math.inf,
    }


@lru_cache(maxsize=None)
def _thp_base(order: int) -> float:
    """THP's modulo base for a constellation order, computed once."""
    return thp_modulo_base(make_constellation(order).points)


def _thp_transmit(
    cfg: SweepConfig, factors: LqFactors, s: np.ndarray, labels: np.ndarray, c: Constellation
) -> tuple[np.ndarray, np.ndarray]:
    """THP for one chunk; transmit power calibrated per channel from the
    chunk's pilot batch. Returns ``x`` ``(m, n)`` and the gains ``(k, n)``.

    ``factors`` is the LQ of the chunk's ``k`` channels (a stack, ``k = m``,
    or one shared channel, ``k = 1``), made before this call, so the LQ's
    temporaries are freed before the chunk's one buffer is allocated. That
    buffer is user-major, ``(k, n, m/k + _THP_PILOTS)``: first each
    channel's ``m/k`` data vectors, in the layout of
    :func:`successive_encode`, then the points of the chunk's one batch of
    pilot ``labels`` ``(1, _THP_PILOTS, n)``, stored in every channel's
    pilot columns. Data and pilots share one feedback pass, in place in the
    buffer, so each channel feeds the batch back through its own ``L``.
    Only the data columns are rotated, by :func:`linalg.lq_apply_qh`: the
    reflectors for a stack, one GEMM with ``q`` for the shared channel.
    The pilots never are; ``q`` is unitary, so their power is that of ``x~``.

    THP's power is measured, not designed: each channel's scale
    ``alpha = sqrt(power_budget / mean pilot power)`` comes from its pilot
    columns, so the trials of a fixed-channel chunk share one ``alpha``.
    The labels can be shared because the modulo output is close to uniform
    whatever the input labels (Fischer, *Precoding and Signal Shaping for
    Digital Transmission*, 2002), so ``alpha`` depends on the channel.
    """
    m, n = s.shape
    k = len(factors.l)
    d = m // k
    xt = np.empty((k, n, d + _THP_PILOTS), dtype=np.complex128)
    xt[:, :, :d] = s.reshape(k, d, n).transpose(0, 2, 1)
    xt[:, :, d:] = c.points[labels[0].T]
    successive_feedback(factors.l, xt, _thp_base(c.order))
    pilots = xt[:, :, d:].view(np.float64)
    mean_power = np.einsum("kij,kij->k", pilots, pilots) / _THP_PILOTS
    alpha = np.sqrt(cfg.power_budget / mean_power)
    x = lq_apply_qh(factors, xt[:, :, :d])
    return (alpha[:, np.newaxis, np.newaxis] * x).reshape(m, n), alpha[:, np.newaxis] * factors.diag


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


@contextmanager
def _sweep_context(cfg: SweepConfig, place: str):
    """Re-raise a failure with the precoder, seed and ``place`` attached (see
    :func:`run_ber_sweep`); a dead worker process becomes :class:`WorkerCrashed`."""
    where = f"sweep aborted ({cfg.precoder}, seed {cfg.seed}) {place}"
    try:
        yield
    except BrokenProcessPool as exc:
        raise WorkerCrashed(f"{where}: a worker process died: {exc}") from exc
    except DpcPermError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


@contextmanager
def _chunk_context(cfg: SweepConfig, t0: int, t1: int):
    """:func:`_sweep_context` of one chunk: "at X dB, trials [t0, t1)" for a
    failure in one SNR point's own stage (it carries ``snr_db``, set by
    :func:`_simulate_chunk`), "in trials [t0, t1)" for one in the stage the
    points share or a dead worker."""
    trials = f"trials [{t0}, {t1})"
    try:
        yield
    except (BrokenProcessPool, DpcPermError) as exc:
        point = getattr(exc, "snr_db", None)
        with _sweep_context(cfg, f"in {trials}" if point is None else f"at {point:g} dB, {trials}"):
            raise


def _sweep_tasks(cfg: SweepConfig) -> Iterator[tuple[int, int]]:
    """The sweep's chunks ``(t0, t1)`` in task order, made one at a time: a
    sweep of 1e11 trials a point has 2e8 of them."""
    for t0 in range(0, cfg.trials_per_point, _CHUNK):
        yield t0, min(t0 + _CHUNK, cfg.trials_per_point)


def _add_chunk(total: dict | None, part: dict) -> dict:
    """A point's running sums after one more chunk's partial sums ``part``
    (``total`` is None before its first chunk); the same values as summing
    the chunks' sums in order with ``sum`` and ``min``."""
    if total is None:
        return part
    return {
        "errors": total["errors"] + part["errors"],
        "bits": total["bits"] + part["bits"],
        "tx_power_sum": total["tx_power_sum"] + part["tx_power_sum"],
        "min_margin": min(total["min_margin"], part["min_margin"]),
    }


def run_ber_sweep(cfg: SweepConfig, workers: int | None = None) -> list[BerRecord]:
    """Run the full SNR sweep described by ``cfg``.

    Results are a pure function of the config: per-chunk streams make the
    error counts identical for any worker count. A task is one chunk of
    trials for the whole SNR grid (:func:`_simulate_chunk`), and the
    chunks' per-point sums are reduced in task order. A per-trial sweep
    designs each chunk's channel stack in that chunk. A fixed-channel sweep
    designs its one channel before any chunk, once per sweep, and sends
    that design to every chunk (mmse: its SVD, rescaled at each point).
    Precoder failures abort the sweep with the precoder and seed attached,
    and with where it stopped: "at X dB, trials [t0, t1)" for a failure in
    one SNR point's own stage (mmse's transmit, the decisions), "in trials
    [t0, t1)" for one in the chunk's shared stage (the draws, the design and
    the transmit), or "on the fixed channel" when the fixed channel's design
    fails; a worker process that dies raises :class:`WorkerCrashed` with
    the chunk's trial range.
    """
    cfg.validate()
    # A pool starts all its workers on the first submit; start no idle ones.
    n_workers = min(resolve_workers(workers), -(-cfg.trials_per_point // _CHUNK))
    fixed = None
    if cfg.channel_mode == "fixed-channel":
        hs = fixed_channel_for(cfg)[np.newaxis]
        with _sweep_context(cfg, "on the fixed channel"):
            fixed = _design(cfg, hs)

    # Both paths reduce chunks as they arrive, in task order, so each
    # point's float sums add up in the same order for any worker count.
    totals: list[dict | None] = [None] * len(cfg.snr_grid_db)
    if n_workers == 1:
        for t0, t1 in _sweep_tasks(cfg):
            with _chunk_context(cfg, t0, t1):
                totals = list(map(_add_chunk, totals, _simulate_chunk(cfg, t0, t1, fixed)))
    else:
        window = _CHUNKS_IN_FLIGHT_PER_WORKER * n_workers
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            in_flight: deque = deque()

            def collect_oldest() -> None:
                nonlocal totals
                (t0, t1), fut = in_flight.popleft()
                with _chunk_context(cfg, t0, t1):
                    totals = list(map(_add_chunk, totals, fut.result()))

            try:
                for task in _sweep_tasks(cfg):
                    in_flight.append((task, pool.submit(_simulate_chunk, cfg, *task, fixed)))
                    if len(in_flight) == window:
                        collect_oldest()
                while in_flight:
                    collect_oldest()
            except BaseException:
                # Leaving the block waits for every queued chunk; drop them.
                pool.shutdown(cancel_futures=True)
                raise

    records = []
    for snr_db, total in zip(cfg.snr_grid_db, totals):
        errors, bits = total["errors"], total["bits"]
        lo, hi = wilson_interval(errors, bits)
        records.append(
            BerRecord(
                snr_db=snr_db,
                bits_sent=bits,
                bit_errors=errors,
                ber=errors / bits,
                ci_lo=lo,
                ci_hi=hi,
                measured_tx_power=total["tx_power_sum"] / cfg.trials_per_point,
                min_decision_margin=total["min_margin"],
            )
        )
    return records


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


def config_hash(cfg: SweepConfig | dict) -> str:
    """Stable hash of a config: the first 16 hex digits of the sha256 of its
    canonical JSON form (sorted keys, no whitespace). ``cfg`` is a
    :class:`SweepConfig` or a plain JSON-serializable dict."""
    data = cfg.to_dict() if isinstance(cfg, SweepConfig) else cfg
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def sweep_csv_name(cfg: SweepConfig) -> str:
    return f"ber_{cfg.precoder}_{modulation_name(cfg.constellation_order)}.csv"


def _fmt(v: float) -> str:
    return format(v, ".12g")  # inf is "inf"


def write_ber_csv(records: Sequence[BerRecord], cfg: SweepConfig, path) -> None:
    """Write one sweep as CSV with a provenance comment header.

    The header carries the tool version, the config hash, the seed, the
    random-draw scheme and the bit-labeling convention, and no timestamps,
    so identical runs produce byte-identical files.
    """
    lines = [
        f"# dpc-perm {_version}",
        f"# config_hash={config_hash(cfg)}",
        f"# seed={cfg.seed}",
        f"# rng_scheme={RNG_SCHEME}",
        f"# gray_labeling={GRAY_LABELING_NOTE}",
        "snr_db,bits,errors,ber,ci_lo,ci_hi,precoder,modulation,n_users,seed",
    ]
    name = modulation_name(cfg.constellation_order)
    for r in records:
        lines.append(
            ",".join(
                [
                    _fmt(r.snr_db),
                    str(r.bits_sent),
                    str(r.bit_errors),
                    _fmt(r.ber),
                    _fmt(r.ci_lo),
                    _fmt(r.ci_hi),
                    cfg.precoder,
                    name,
                    str(cfg.n_users),
                    str(cfg.seed),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(
    entries: Iterable[tuple[SweepConfig, Sequence[BerRecord]]], path
) -> None:
    """JSON summary mirroring each config plus its per-point records."""
    payload = {
        "schema_version": 1,
        "rng_scheme": RNG_SCHEME,
        "tool": "dpc-perm",
        "version": _version,
        "sweeps": [
            {
                "config": cfg.to_dict(),
                "config_hash": config_hash(cfg),
                "csv": sweep_csv_name(cfg),
                "records": [
                    {
                        "snr_db": "inf" if math.isinf(r.snr_db) else r.snr_db,
                        "bits": r.bits_sent,
                        "errors": r.bit_errors,
                        "ber": r.ber,
                        "ci_lo": r.ci_lo,
                        "ci_hi": r.ci_hi,
                        "measured_tx_power": r.measured_tx_power,
                    }
                    for r in records
                ],
            }
            for cfg, records in entries
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
