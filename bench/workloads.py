"""Workloads of the benchmark: inputs made from a seed, timed calls, checks.

Each hot path is a list of library calls, one of each kind; a round
makes every call of the list once:

* the sweep calls ``run_ber_sweep`` once per precoder, n = 10 users,
  over a 0-20 dB grid, with ``workers=1``;
* the search calls ``diagonal_order_search`` for every objective,
  ``order_table`` and ``naive_order_search`` (average power) for
  n = 5..7, on the order-search CLI's inputs: a seeded channel, 16-QAM
  symbols and diag-L gains.

Every timed library call is one operation attempted, and so is every
correctness check; a call that raises or a check that fails is one
operation failed.
"""

from __future__ import annotations

import gc
import hashlib
import math
import sys
import time
import traceback
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dpc_perm import ChannelSpec, generate_channel, lq_decompose, make_constellation, qam_modulate
from dpc_perm.ordering import diagonal_order_search, naive_order_search, order_table
from dpc_perm.sim import SweepConfig, run_ber_sweep

# The benchmark's own lists: a precoder or objective the library adds
# later is not measured until the benchmark names it.
PRECODERS = ("zf", "mmse", "dpc-conventional", "dpc-linear", "thp", "bd")
OBJECTIVES = ("average-power", "papr", "min-power")

SWEEP_USERS = 10
SNR_GRID_DB = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
# Trials per SNR point, sized by cost so that each sweep call takes about
# 0.1-0.2 s: bd loops over trials in Python (about 2 ms a trial), thp
# pays for a pilot batch, the others are batched. Short calls give a run
# many samples, each timed close to its reference passes.
TRIALS_PER_POINT = {
    "zf": 256,
    "mmse": 256,
    "dpc-conventional": 256,
    "dpc-linear": 256,
    "thp": 128,
    "bd": 16,
}
DPC_FAMILY = ("dpc-conventional", "dpc-linear")

# Not n = 8: a call there takes 1-2 s (the naive one about 8 s), longer
# than the host's speed phases last, so its time tracks the reference
# loop around it poorly, and a run gets only one or two samples of it.
SEARCH_USERS = (5, 6, 7)
SEARCH_QAM_ORDER = 16
SEARCH_ORDERS = sum(math.factorial(n) for n in SEARCH_USERS)

# Same relative tie tolerance as the order search itself.
TIE_RTOL = 1e-12
SIGNAL_RTOL = 1e-8


@dataclass(frozen=True)
class SweepShape:
    constellation_order: int
    channel_mode: str
    dpc_gain_mode: str


@dataclass(frozen=True)
class Workload:
    """``sweep`` is the shape of the sweep calls and ``sweep_share`` the part
    of the measured time they get; the order search gets the rest.
    ``traced`` names the hot paths a traced run traces."""

    sweep: SweepShape
    sweep_share: float
    traced: tuple[str, ...]


QPSK_PER_TRIAL = SweepShape(4, "per-trial-channel", "diag-L")
QAM128_FIXED = SweepShape(128, "fixed-channel", "waterfill")

# Both workloads run both hot paths, so that every end-to-end metric is
# defined on each. The order search's inputs do not depend on the sweep
# shape, so its figures on the two workloads are two measurements of the
# same calls.
WORKLOADS = {
    "qpsk-sweep-and-search": Workload(QPSK_PER_TRIAL, 0.5, ("sweep", "search")),
    "sweep-128qam-fixed": Workload(QAM128_FIXED, 0.6, ("sweep",)),
}


class Tally:
    """Operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, span: AbstractContextManager, fn: Callable, *args):
        """Time one library call: ``(seconds, result)``, result None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with span:
                out = fn(*args)
        except Exception:  # counted as a failed operation; the run goes on
            self.failed += 1
            traceback.print_exc()
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def sweep_configs(shape: SweepShape, seed: int, trials: dict = TRIALS_PER_POINT, grid=SNR_GRID_DB):
    return [
        SweepConfig(
            n_users=SWEEP_USERS,
            snr_grid_db=grid,
            trials_per_point=trials[p],
            constellation_order=shape.constellation_order,
            channel_mode=shape.channel_mode,
            precoder=p,
            gain_mode=shape.dpc_gain_mode if p in DPC_FAMILY else "diag-L",
            seed=seed,
        ).validate()
        for p in PRECODERS
    ]


def search_inputs(seed: int) -> dict:
    """``{n: (h, s, gains)}``, as the order-search CLI builds them."""
    c = make_constellation(SEARCH_QAM_ORDER)
    inputs = {}
    for n in SEARCH_USERS:
        h = generate_channel(ChannelSpec(n_users=n, seed=seed))
        bits = np.random.default_rng([seed, n]).integers(
            0, 2, size=n * c.bits_per_symbol, dtype=np.uint8
        )
        inputs[n] = (h, qam_modulate(bits, c), lq_decompose(h).diag)
    return inputs


@dataclass
class Prepared:
    configs: list
    sweeps: list
    searches: list


def prepare(workload: Workload, seed: int) -> Prepared:
    """Build the inputs and make one small call of each kind, so that lazy
    set-up (caches, first-use imports) happens before anything is timed."""
    configs = sweep_configs(workload.sweep, seed)
    inputs = search_inputs(seed)
    for cfg in sweep_configs(workload.sweep, seed, dict.fromkeys(PRECODERS, 8), SNR_GRID_DB[:1]):
        run_ber_sweep(cfg, 1)
    for call in search_calls({n: inputs[n] for n in SEARCH_USERS[:1]}):
        call.fn(*call.args)
    return Prepared(configs, sweep_calls(configs), search_calls(inputs))


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One timed library call; ``name`` keys its samples and its trace span.

    ``fingerprint`` reduces a result to a small value that must repeat
    exactly on every call with the same inputs.
    """

    name: str
    fn: Callable
    args: tuple
    fingerprint: Callable


@dataclass
class Samples:
    """Times of one call's successful runs and its first result; later
    results are only compared, so that no large result stays alive.

    ``relative`` holds, when the run tracks the host's speed, each time
    over the reference pass's time around it.
    """

    seconds: list = field(default_factory=list)
    relative: list = field(default_factory=list)
    first: object = None
    fingerprint: object = None


def _sweep_fingerprint(records) -> list:
    return [(r.bits_sent, r.bit_errors) for r in records]


def _search_fingerprint(res) -> tuple:
    return tuple(res.best_order.tolist()), res.best_value, res.decompositions_performed


def _table_fingerprint(rows) -> tuple:
    best_ap = min(rows, key=lambda r: r["ap"])
    best_papr = min(rows, key=lambda r: r["papr"])
    return len(rows), best_ap["order"], best_papr["order"]


def sweep_calls(configs: list) -> list[Call]:
    return [
        Call(f"sweep.{cfg.precoder}", run_ber_sweep, (cfg, 1), _sweep_fingerprint)
        for cfg in configs
    ]


def search_calls(inputs: dict) -> list[Call]:
    calls = []
    for n, args in inputs.items():
        for objective in OBJECTIVES:
            calls.append(
                Call(
                    f"search.{objective}.n{n}",
                    diagonal_order_search,
                    (*args, objective),
                    _search_fingerprint,
                )
            )
        calls.append(Call(f"table.n{n}", order_table, args, _table_fingerprint))
        calls.append(Call(f"naive.n{n}", naive_order_search, args, _search_fingerprint))
    return calls


def run_call(
    call: Call,
    samples: dict,
    tally: Tally,
    span: Callable = lambda _name: nullcontext(),
    speed: HostSpeed | None = None,
) -> float:
    """Make ``call`` and record it in ``samples[call.name]``; returns its seconds.

    A collection first, untimed, so that garbage left by earlier calls is
    not charged to this one.
    """
    gc.collect()
    seconds, out = tally.call(span(call.name), call.fn, *call.args)
    reference = None if speed is None else speed.after_call()
    rec = samples.setdefault(call.name, Samples())
    if out is not None:
        rec.seconds.append(seconds)
        if reference is not None:
            rec.relative.append(seconds / reference)
        if rec.first is None:
            rec.first, rec.fingerprint = out, call.fingerprint(out)
        else:
            tally.check(
                call.fingerprint(out) == rec.fingerprint, f"{call.name} result changed on a rerun"
            )
    return seconds


def first(samples: dict, name: str):
    rec = samples.get(name)
    return None if rec is None else rec.first


def seconds_of(samples: dict, name: str) -> list[float]:
    rec = samples.get(name)
    return [] if rec is None else rec.seconds


def relative_of(samples: dict, name: str) -> list[float]:
    rec = samples.get(name)
    return [] if rec is None else rec.relative


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# The shared hosts this benchmark runs on change speed by up to 2x within
# minutes, and every call slows or speeds up with them. Each timed call is
# therefore also expressed in passes of a fixed reference loop, timed right
# before and right after it: a ratio that the host's phase moves much less
# than the seconds. The loop is the benchmark's own, so a change to the
# library cannot move it.
REFERENCE_PASSES = 3
REFERENCE_LOOP = 6
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((10, 10)) + 1j * _REF_RNG.standard_normal((10, 10))
_REF_VECTOR = _REF_MATRIX[0].copy()


def reference_pass() -> float:
    """About 1 ms of the two kinds of work the library's time goes to, in
    about equal parts: numpy calls on small complex arrays in a Python
    loop (matrix-vector products, squared magnitudes, an argmin, a norm),
    and small SVD and QR factorizations. A loop of only the first kind
    tracks the factorization-heavy calls (bd, the naive search) poorly."""
    acc = 0.0
    for _ in range(REFERENCE_LOOP):
        for _ in range(8):
            y = _REF_MATRIX @ _REF_VECTOR
            d = np.abs(y) ** 2
            acc += float(d[int(np.argmin(d))]) + float(np.linalg.norm(y))
        _, sv, _ = np.linalg.svd(_REF_MATRIX[1:])
        _, r = np.linalg.qr(_REF_MATRIX)
        acc += float(sv[0]) + float(abs(r[0, 0]))
    return acc


def reference_seconds() -> float:
    """The fastest of a few passes, so that one interrupt does not count."""
    best = math.inf
    for _ in range(REFERENCE_PASSES):
        t0 = time.perf_counter()
        reference_pass()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """The reference pass's seconds around each timed call: the mean of the
    pass before the call and the pass after it."""

    def __init__(self) -> None:
        self.passes = [reference_seconds()]

    def after_call(self) -> float:
        self.passes.append(reference_seconds())
        return (self.passes[-2] + self.passes[-1]) / 2


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def error_digest(counts: list) -> int:
    """32-bit digest of one sweep's per-point error counts."""
    return int(hashlib.sha256(repr(counts).encode()).hexdigest()[:8], 16)


def first_error_counts(samples: dict) -> dict:
    counts = {}
    for p in PRECODERS:
        records = first(samples, f"sweep.{p}")
        if records is not None:
            counts[p] = [r.bit_errors for r in records]
    return counts


def check_sweeps(configs: list, samples: dict, tally: Tally) -> None:
    errors = first_error_counts(samples)
    conv, lin = errors.get("dpc-conventional"), errors.get("dpc-linear")
    if conv is not None and lin is not None:
        for snr, a, b in zip(SNR_GRID_DB, conv, lin):
            tally.check(a == b, f"dpc-conventional vs dpc-linear errors at {snr} dB: {a} != {b}")
    for cfg in configs:
        records = first(samples, f"sweep.{cfg.precoder}")
        if records is None or cfg.gain_mode != "diag-L":
            continue
        bits = make_constellation(cfg.constellation_order).bits_per_symbol
        want = cfg.trials_per_point * cfg.n_users * bits
        for r in records:
            tally.check(
                r.bits_sent == want,
                f"{cfg.precoder} bits_sent {r.bits_sent} != {want} at {r.snr_db} dB",
            )


def check_searches(samples: dict, tally: Tally) -> None:
    for n in SEARCH_USERS:
        orders = math.factorial(n)
        winners = {}
        for objective in OBJECTIVES:
            res = first(samples, f"search.{objective}.n{n}")
            if res is None:
                continue
            winners[objective] = res
            tally.check(
                res.decompositions_performed == 1 and res.permutations_evaluated == orders,
                f"diagonal {objective} n={n}: {res.decompositions_performed} "
                f"decompositions, {res.permutations_evaluated} orders",
            )
        table = first(samples, f"table.n{n}")
        if table is not None and tally.check(len(table) == orders, f"order_table n={n} rows"):
            for objective, column in (("average-power", "ap"), ("papr", "papr")):
                if objective not in winners:
                    continue
                values = {row["order"]: row[column] for row in table}
                best = min(values.values())
                tally.check(
                    values[tuple(winners[objective].best_order.tolist())] <= best * (1 + TIE_RTOL),
                    f"order_table argmin of {column} != diagonal winner, n={n}",
                )
        naive = first(samples, f"naive.n{n}")
        diag = winners.get("average-power")
        if naive is None or diag is None:
            continue
        tally.check(
            naive.decompositions_performed == orders,
            f"naive n={n}: {naive.decompositions_performed} decompositions, want {orders}",
        )
        tally.check(
            np.array_equal(naive.best_order, diag.best_order),
            f"naive and diagonal winners differ at n={n}",
        )
        rel = np.linalg.norm(naive.best_signal - diag.best_signal) / np.linalg.norm(
            naive.best_signal
        )
        tally.check(rel <= SIGNAL_RTOL, f"best signals differ by {rel:.3e} at n={n}")


def check_workers(seed: int, tally: Tally) -> None:
    """An untimed short sweep gives identical counts with 1 and 2 workers."""
    cfg = SweepConfig(
        n_users=SWEEP_USERS,
        snr_grid_db=(0.0, 10.0),
        trials_per_point=1024,
        precoder="dpc-linear",
        seed=seed,
    )
    counts = []
    for workers in (1, 2):
        _, records = tally.call(nullcontext(), run_ber_sweep, cfg, workers)
        counts.append(None if records is None else [(r.bits_sent, r.bit_errors) for r in records])
    if None not in counts:
        tally.check(counts[0] == counts[1], "error counts depend on the worker count")
