"""Tests for the Monte Carlo sweep engine and result files."""

import json
import math
import re
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpc_perm import sim
from dpc_perm.channel import sample_channel
from dpc_perm.exceptions import (
    ConfigError,
    DpcPermError,
    InfeasibleBlocking,
    NumericallySingular,
    WorkerCrashed,
)
from dpc_perm.modem import QAM_ORDERS, make_constellation
from dpc_perm.ordering import naive_order_search
from dpc_perm.precoding import dpc_conventional, waterfill
from dpc_perm.sim import (
    BerRecord,
    SweepConfig,
    config_hash,
    fixed_channel_for,
    noise_variance,
    resolve_workers,
    run_ber_sweep,
    sweep_csv_name,
    write_ber_csv,
    write_manifest,
)


def small_cfg(**overrides):
    base = dict(
        n_users=4,
        snr_grid_db=(0.0, 6.0, 12.0),
        trials_per_point=300,
        constellation_order=4,
        precoder="dpc-linear",
        seed=5,
    )
    base.update(overrides)
    return SweepConfig(**base)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_from_dict_roundtrip_with_inf():
    raw = {
        "n_users": 3,
        "snr_grid_db": [0, 10, "inf"],
        "trials_per_point": 10,
        "precoder": "zf",
    }
    cfg = SweepConfig.from_dict(raw)
    assert cfg.snr_grid_db == (0.0, 10.0, math.inf)
    assert cfg.power_budget == 3.0
    back = cfg.to_dict()
    assert back["snr_grid_db"] == [0.0, 10.0, "inf"]


@pytest.mark.parametrize(
    "raw,fragment",
    [
        ({"n_users": 2}, "missing"),
        ({"n_users": 2, "snr_grid_db": [0], "trials_per_point": 0}, "trials_per_point"),
        (
            {"n_users": 2, "snr_grid_db": [0], "trials_per_point": 1, "precoder": "dirty"},
            "precoder",
        ),
        (
            {"n_users": 2, "snr_grid_db": [0], "trials_per_point": 1, "modulatie": 4},
            "unknown",
        ),
        (
            {"n_users": 2, "snr_grid_db": [0], "trials_per_point": 1, "constellation_order": 32},
            "constellation_order",
        ),
        (
            {"n_users": 2, "snr_grid_db": [0], "trials_per_point": "many"},
            "trials_per_point",
        ),
        ({"n_users": 2, "snr_grid_db": 0, "trials_per_point": 1}, "snr_grid_db"),
        ({"n_users": 2.7, "snr_grid_db": [0], "trials_per_point": 1}, "n_users"),
        ({"n_users": True, "snr_grid_db": [0], "trials_per_point": 1}, "n_users"),
        ({"n_users": 2, "snr_grid_db": [0], "trials_per_point": 1, "seed": 1.5}, "seed"),
    ],
)
def test_config_validation_names_the_field(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        SweepConfig.from_dict(raw)


@pytest.mark.parametrize(
    "budget", [True, False, "5", "inf", [5], math.nan, math.inf, -math.inf, 10**400, 0, -1.0]
)
def test_power_budget_must_be_a_positive_finite_number(budget):
    raw = {"n_users": 2, "snr_grid_db": [0], "trials_per_point": 1, "power_budget": budget}
    with pytest.raises(ConfigError, match="power_budget"):
        SweepConfig.from_dict(raw)


@pytest.mark.parametrize("budget,expected", [(5, 5.0), (2.5, 2.5), (None, 2.0)])
def test_power_budget_accepts_json_numbers(budget, expected):
    raw = {"n_users": 2, "snr_grid_db": [0], "trials_per_point": 1, "power_budget": budget}
    cfg = SweepConfig.from_dict(raw)
    assert cfg.power_budget == expected
    assert isinstance(cfg.power_budget, float)


def test_resolve_workers_env_fallback(monkeypatch):
    monkeypatch.delenv("DPC_PERM_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("DPC_PERM_WORKERS", "2")
    assert resolve_workers(None) == 2
    monkeypatch.setenv("DPC_PERM_WORKERS", "zero")
    with pytest.raises(ConfigError):
        resolve_workers(None)



@pytest.mark.parametrize("workers", [True, 0, 2.5, "2"])
def test_resolve_workers_rejects_a_bad_argument(workers):
    with pytest.raises(ConfigError, match="workers"):
        resolve_workers(workers)


@pytest.mark.parametrize("env", ["0", "-2", "1.5", "two"])
def test_resolve_workers_rejects_a_bad_environment_value(monkeypatch, env):
    monkeypatch.setenv("DPC_PERM_WORKERS", env)
    with pytest.raises(ConfigError, match="DPC_PERM_WORKERS"):
        resolve_workers(None)


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_users", True),
        ("n_users", 2.7),
        ("trials_per_point", True),
        ("seed", 1.5),
        ("snr_grid_db", [None]),
        ("snr_grid_db", ["10"]),
        ("snr_grid_db", [True]),
        ("snr_grid_db", [-math.inf]),
        ("snr_grid_db", 10.0),
        ("power_budget", "5"),
    ],
)
def test_python_built_config_is_checked_like_json(field, value):
    with pytest.raises(ConfigError, match=field):
        small_cfg(**{field: value}).validate()
    with pytest.raises(ConfigError, match=field):
        run_ber_sweep(small_cfg(**{field: value}))


@pytest.mark.parametrize(
    "snr_db, power_budget",
    [
        pytest.param(4000.0, None, id="4000-dB-overflows"),
        pytest.param(-4000.0, None, id="minus-4000-dB-divides-by-0"),
        pytest.param(-100.0, 1e300, id="noise-variance-inf"),
    ],
)
def test_snr_point_without_a_finite_positive_noise_variance_is_refused(snr_db, power_budget):
    raw = {"n_users": 4, "snr_grid_db": [0, snr_db], "trials_per_point": 10}
    if power_budget is not None:
        raw["power_budget"] = power_budget
    with pytest.raises(ConfigError, match="snr_grid_db"):
        SweepConfig(**raw).validate()
    with pytest.raises(ConfigError, match="snr_grid_db"):
        SweepConfig.from_dict(json.loads(json.dumps(raw)))
    with pytest.raises(ConfigError, match="snr_grid_db"):
        run_ber_sweep(SweepConfig(**raw))


def test_extreme_snr_points_with_a_finite_noise_variance_run():
    cfg = small_cfg(snr_grid_db=(-3000.0, 3000.0), trials_per_point=10).validate()
    assert 0.0 < noise_variance(cfg, 3000.0) < noise_variance(cfg, -3000.0) < math.inf
    records = run_ber_sweep(cfg)
    assert [r.bits_sent for r in records] == [80, 80]


@pytest.mark.parametrize("precoder", ["zf", "mmse", "thp", "bd"])
def test_waterfill_outside_the_dpc_family_is_refused(precoder):
    # The sweep would run diag-L while the config hash and CSV claim
    # water-filling. A bad power budget is still the field named first.
    raw = {"n_users": 4, "snr_grid_db": [6], "trials_per_point": 10}
    raw.update(precoder=precoder, gain_mode="waterfill")
    with pytest.raises(ConfigError, match="gain_mode"):
        SweepConfig(**raw).validate()
    with pytest.raises(ConfigError, match="gain_mode"):
        SweepConfig.from_dict(json.loads(json.dumps(raw)))
    with pytest.raises(ConfigError, match="power_budget"):
        SweepConfig(**raw, power_budget=0).validate()


def test_validate_normalizes_fields_in_place():
    cfg = small_cfg(n_users=4.0, snr_grid_db=[0, "inf"], seed=3.0, power_budget=2)
    assert cfg.validate() is cfg
    assert cfg == small_cfg(n_users=4, snr_grid_db=(0.0, math.inf), seed=3, power_budget=2.0)
    assert type(cfg.n_users) is int and type(cfg.power_budget) is float


def test_readme_example_sweep_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A sweep config is a JSON object.*?```json\n(.*?)```", readme, re.S)
    cfg = SweepConfig.from_dict(json.loads(block.group(1)))
    assert cfg.n_users == 10 and cfg.power_budget == 10.0


# Config fields and values for the round-trip properties. n_users stays
# at or below 64 so every generated config is inside the chunk-memory bound.
def _int_field(lo: int, hi: int):
    return st.integers(lo, hi) | st.integers(lo, hi).map(float)


_SNR_POINT = (
    st.floats(-50, 50) | st.integers(-50, 50) | st.just(math.inf) | st.sampled_from(["inf", "Infinity"])
)


def _waterfill_only_with_dpc(raw: dict) -> bool:
    # Water-filling is a gain design of the DPC family (dpc-linear by default).
    return raw.get("gain_mode") != "waterfill" or raw.get("precoder", "dpc-linear") in sim._DPC_FAMILY


_VALID_RAW = st.fixed_dictionaries(
    {
        "n_users": _int_field(1, 64),
        "snr_grid_db": st.lists(_SNR_POINT, min_size=1, max_size=5),
        "trials_per_point": _int_field(1, 10**6),
    },
    optional={
        "constellation_order": st.sampled_from(QAM_ORDERS),
        "channel_mode": st.sampled_from(sim.CHANNEL_MODES),
        "precoder": st.sampled_from(sim.PRECODERS),
        "gain_mode": st.sampled_from(sim.GAIN_MODES),
        "power_budget": st.none() | st.floats(1e-6, 1e6) | st.integers(1, 10**6),
        "seed": _int_field(0, 2**64),
    },
).filter(_waterfill_only_with_dpc)
_NOT_A_NUMBER = st.booleans() | st.none() | st.text(max_size=4) | st.lists(st.integers(), max_size=1)
_NOT_AN_INT = _NOT_A_NUMBER | st.floats().filter(lambda v: not v.is_integer())
_NOT_FINITE = st.sampled_from([math.nan, -math.inf, 10**400, -(10**400)])
_BAD_VALUES = {
    "n_users": _NOT_AN_INT | st.integers(max_value=0) | st.just(10**400),
    "trials_per_point": _NOT_AN_INT | st.integers(max_value=0),
    "constellation_order": _NOT_AN_INT | st.integers().filter(lambda v: v not in QAM_ORDERS),
    "seed": _NOT_AN_INT | st.integers(max_value=-1),
    "power_budget": _NOT_A_NUMBER.filter(lambda v: v is not None)
    | _NOT_FINITE
    | st.just(math.inf)
    | st.floats(max_value=0.0)
    | st.integers(max_value=0),
}


@given(raw=_VALID_RAW)
@settings(max_examples=200, deadline=None)
def test_config_round_trips_through_json(raw):
    cfg = SweepConfig.from_dict(raw)
    assert SweepConfig(**raw).validate() == cfg
    back = SweepConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


@given(raw=_VALID_RAW, data=st.data())
@settings(max_examples=200, deadline=None)
def test_bad_values_fail_alike_from_python_and_json(raw, data):
    field = data.draw(st.sampled_from([*_BAD_VALUES, "snr_grid_db"]))
    if field == "snr_grid_db":
        bad = data.draw(
            _NOT_A_NUMBER.filter(lambda v: str(v).lower() not in ("inf", "infinity", "+inf"))
            | _NOT_FINITE
        )
        raw = {**raw, field: [*raw[field], bad]}
    else:
        raw = {**raw, field: data.draw(_BAD_VALUES[field])}
    with pytest.raises(ConfigError, match=field) as from_json:
        SweepConfig.from_dict(raw)
    with pytest.raises(ConfigError, match=field) as from_python:
        SweepConfig(**raw).validate()
    assert str(from_json.value) == str(from_python.value)

def test_noise_variance_convention():
    cfg = small_cfg()
    assert noise_variance(cfg, math.inf) == 0.0
    # default budget n_users makes the axis the textbook one
    assert noise_variance(cfg, 10.0) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Engine behaviour
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("precoder", ["dpc-conventional", "dpc-linear", "thp"])
def test_noiseless_dpc_family_is_error_free(precoder):
    cfg = small_cfg(snr_grid_db=(math.inf,), trials_per_point=100, precoder=precoder)
    (rec,) = run_ber_sweep(cfg)
    assert rec.bit_errors == 0
    assert rec.ber == 0.0
    assert rec.bits_sent == 100 * 4 * 2


def test_sweep_is_deterministic():
    cfg = small_cfg()
    a = run_ber_sweep(cfg)
    b = run_ber_sweep(cfg)
    assert [(r.bit_errors, r.bits_sent) for r in a] == [(r.bit_errors, r.bits_sent) for r in b]
    assert [r.measured_tx_power for r in a] == [r.measured_tx_power for r in b]


def test_worker_count_does_not_change_results():
    for cfg in (
        small_cfg(trials_per_point=1100),  # forces multiple chunks
        small_cfg(trials_per_point=1100, precoder="thp", channel_mode="fixed-channel"),
    ):
        seq = run_ber_sweep(cfg, workers=1)
        par = run_ber_sweep(cfg, workers=2)
        assert [(r.bit_errors, r.bits_sent, r.measured_tx_power) for r in seq] == [
            (r.bit_errors, r.bits_sent, r.measured_tx_power) for r in par
        ]


# ---------------------------------------------------------------------------
# Random-draw contract (philox-ss-v2)
# ---------------------------------------------------------------------------


def chunk_draws(cfg, snr_idx, t0, t1):
    c = make_constellation(cfg.constellation_order)
    fixed_h = fixed_channel_for(cfg) if cfg.channel_mode == "fixed-channel" else None
    return sim._chunk_draws(cfg, snr_idx, t0, t1, c, fixed_h)


@pytest.mark.parametrize("t0", [0, 512])
def test_short_chunk_draws_are_the_rows_of_a_full_chunk(t0):
    cfg = small_cfg(precoder="thp")
    short = chunk_draws(cfg, 1, t0, t0 + 300)
    full = chunk_draws(cfg, 1, t0, t0 + 512)
    names = ("channels", "bits", "noise", "pilot labels")
    for name, a, b in zip(names, short, full):
        assert a.shape[0] == 300 and b.shape[0] == 512, name
        assert np.array_equal(a, b[:300]), name


def test_trial_draws_do_not_depend_on_precoder_mode_or_trial_count():
    zf = chunk_draws(small_cfg(precoder="zf", trials_per_point=40), 2, 0, 40)
    thp = chunk_draws(small_cfg(precoder="thp", trials_per_point=9000), 2, 0, 40)
    fixed = chunk_draws(small_cfg(precoder="zf", channel_mode="fixed-channel"), 2, 0, 40)
    assert zf[3] is None and fixed[3] is None and thp[3].shape == (40, sim._THP_PILOTS, 4)
    assert np.array_equal(zf[0], thp[0])
    assert fixed[0].shape == (1, 4, 4)
    for other in (thp, fixed):
        assert np.array_equal(zf[1], other[1])  # bits
        assert np.array_equal(zf[2], other[2])  # noise


def test_draws_differ_between_snr_points_and_chunks():
    cfg = small_cfg(precoder="thp")
    base = chunk_draws(cfg, 0, 0, 8)
    for other in (chunk_draws(cfg, 1, 0, 8), chunk_draws(cfg, 0, 512, 520)):
        for a, b in zip(base, other):
            assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "precoder,gain_mode",
    [(p, "diag-L") for p in sim.PRECODERS] + [(p, "waterfill") for p in sim._DPC_FAMILY],
)
def test_fixed_channel_sweep_equals_per_trial_sweep_of_that_channel(
    monkeypatch, precoder, gain_mode
):
    # The fixed channel is precoded once per chunk; a per-trial sweep whose
    # every trial draws that same channel precodes each copy, on the same
    # bits and noise.
    cfg = small_cfg(
        precoder=precoder,
        gain_mode=gain_mode,
        channel_mode="fixed-channel",
        snr_grid_db=(0.0, 8.0, math.inf),
        trials_per_point=600,  # two chunks per point
    )
    fixed = run_ber_sweep(cfg)
    h = fixed_channel_for(cfg)
    monkeypatch.setattr(sim, "sample_channel", lambda rng, n, m: np.repeat(h[np.newaxis], m, 0))
    cfg.channel_mode = "per-trial-channel"
    per_trial = run_ber_sweep(cfg)
    assert [(r.bit_errors, r.bits_sent) for r in fixed] == [
        (r.bit_errors, r.bits_sent) for r in per_trial
    ]
    for a, b in zip(fixed, per_trial):
        assert a.measured_tx_power == pytest.approx(b.measured_tx_power, rel=1e-12)


def test_dpc_conventional_encode_never_solves(monkeypatch):
    # The successive encode is feedback plus a q^H product; an LU solve on
    # any of its three callers is the matrix route it replaced.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called on the DPC encode path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for channel_mode in sim.CHANNEL_MODES:
        for gain_mode in sim.GAIN_MODES:
            cfg = small_cfg(
                precoder="dpc-conventional",
                channel_mode=channel_mode,
                gain_mode=gain_mode,
                trials_per_point=20,
            )
            assert sum(r.bits_sent for r in run_ber_sweep(cfg, workers=1)) > 0
    h = sample_channel(np.random.default_rng(4), 4)
    s = np.exp(0.25j * np.pi * np.arange(1, 8, 2))
    dpc_conventional(h, s)
    dpc_conventional(np.stack([h, h.T]), np.stack([s, s]), gains=np.arange(4.0))
    result = naive_order_search(h, s, np.arange(1.0, 5.0))
    assert (result.decompositions_performed, result.permutations_evaluated) == (24, 24)


# ---------------------------------------------------------------------------
# Resource bound
# ---------------------------------------------------------------------------


def test_huge_n_users_is_a_config_error():
    raw = {"n_users": 100000, "snr_grid_db": [0], "trials_per_point": 10}
    with pytest.raises(ConfigError, match="n_users.*MiB"):
        SweepConfig.from_dict(raw)


@pytest.mark.parametrize(
    "n_users,precoder,trials,ok",
    [
        (128, "zf", 10_000, True),  # 2 * 512 * 128**2 * 16 B: exactly the limit
        (129, "zf", 10_000, False),
        (128, "thp", 10_000, False),  # plus 512 * 129 * 128 * 16 B of THP draws
        (128, "thp", 100, True),  # a chunk holds only the trials of a point
        (300, "zf", 1, True),
    ],
)
def test_chunk_memory_estimate_bounds_the_config(n_users, precoder, trials, ok):
    cfg = small_cfg(n_users=n_users, precoder=precoder, trials_per_point=trials)
    if ok:
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match="n_users"):
            cfg.validate()


def test_conventional_and_linear_share_error_counts():
    # Same seed means identical channels, bits, and noise; the precoded
    # vectors agree to ~1e-13, so counts match exactly whenever no sample
    # sits within 1e-6 of a decision boundary (checked via the margin
    # diagnostic), and within CI overlap otherwise.
    base = dict(
        n_users=6,
        snr_grid_db=(2.0, 8.0, 14.0),
        trials_per_point=400,
        channel_mode="fixed-channel",
        seed=31,
    )
    conv = run_ber_sweep(SweepConfig(precoder="dpc-conventional", **base))
    lin = run_ber_sweep(SweepConfig(precoder="dpc-linear", **base))
    for rc, rl in zip(conv, lin):
        if min(rc.min_decision_margin, rl.min_decision_margin) > 1e-6:
            assert rc.bit_errors == rl.bit_errors
        else:
            assert rc.ci_lo <= rl.ci_hi and rl.ci_lo <= rc.ci_hi


@pytest.mark.parametrize("precoder", ["zf", "mmse", "thp", "bd"])
def test_baseline_transmit_power_tracks_budget(precoder):
    # The per-vector power s^H W^H W s fluctuates around tr(W W^H) = P,
    # so the 1% check needs a decent pool of vectors to concentrate.
    cfg = small_cfg(
        precoder=precoder,
        channel_mode="fixed-channel",
        trials_per_point=4000,
        snr_grid_db=(3.0, 6.0, 9.0, 12.0),
        seed=13,
    )
    records = run_ber_sweep(cfg)
    pooled = np.mean([r.measured_tx_power for r in records])
    assert abs(pooled - cfg.power_budget) <= 0.01 * cfg.power_budget


@pytest.mark.parametrize("channel_mode", ["per-trial-channel", "fixed-channel"])
def test_bd_sweep_matches_zf_sweep(channel_mode):
    # With single-antenna users BD is the channel inverse, so a BD sweep
    # transmits exactly the ZF vectors on the same trial draws.
    base = dict(
        n_users=6,
        snr_grid_db=(0.0, 8.0, 16.0, math.inf),
        trials_per_point=600,  # two chunks per point
        channel_mode=channel_mode,
        seed=17,
    )
    bd = run_ber_sweep(SweepConfig(precoder="bd", **base))
    zf = run_ber_sweep(SweepConfig(precoder="zf", **base))
    assert [(r.bit_errors, r.bits_sent) for r in bd] == [(r.bit_errors, r.bits_sent) for r in zf]
    assert [r.measured_tx_power for r in bd] == [r.measured_tx_power for r in zf]
    assert bd[-1].bit_errors == 0


@pytest.mark.parametrize(
    "precoder,snr_db,error",
    [
        ("zf", 10.0, NumericallySingular),
        ("mmse", math.inf, NumericallySingular),
        ("bd", 10.0, InfeasibleBlocking),
    ],
)
def test_singular_trial_channel_aborts_sweep_with_context(monkeypatch, precoder, snr_db, error):
    monkeypatch.setattr(sim, "sample_channel", lambda rng, n, m: np.ones((m, n, n), dtype=complex))
    cfg = small_cfg(precoder=precoder, snr_grid_db=(snr_db,), trials_per_point=8)
    with pytest.raises(error, match=rf"sweep aborted \({precoder}, seed 5\)"):
        run_ber_sweep(cfg)


def near_singular_channel(rng, n, m):
    """Random channels ``(m, n, n)`` whose rows 0 and 1 differ by 1e-14 in one entry."""
    h = sample_channel(rng, n, m)
    h[:, 1] = h[:, 0]
    h[:, 1, 0] += 1e-14
    return h


@pytest.mark.parametrize(
    "precoder,snr_db",
    [
        ("zf", 10.0),
        ("mmse", math.inf),
        ("bd", 10.0),
        ("dpc-linear", 10.0),
        ("dpc-conventional", 10.0),
        ("thp", 10.0),
    ],
)
def test_near_singular_trial_channel_aborts_sweep_with_context(monkeypatch, precoder, snr_db):
    monkeypatch.setattr(sim, "sample_channel", near_singular_channel)
    h = near_singular_channel(np.random.default_rng(0), 4, 3)
    assert np.all(np.isfinite(np.linalg.inv(h)))  # invertible in floating point
    cfg = small_cfg(precoder=precoder, snr_grid_db=(snr_db,), trials_per_point=8)
    with pytest.raises(DpcPermError, match=rf"sweep aborted \({precoder}, seed 5\)"):
        run_ber_sweep(cfg)


class InlinePool:
    """Stand-in for ``ProcessPoolExecutor`` that runs each task in ``submit``
    and hands back a finished future; starts no process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class BrokenPool(InlinePool):
    """Stand-in pool whose every future raises ``BrokenProcessPool``."""

    def submit(self, fn, *args):
        fut = Future()
        fut.set_exception(BrokenProcessPool("a child process terminated abruptly"))
        return fut


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_failure_names_snr_point_and_trial_range(monkeypatch, workers):
    real = sim.mmse_precode

    def failing(h, noise_var):
        # Only the 88-trial second chunk at 10 dB (4 users, budget 4: noise
        # variance 0.1) fails.
        if h.shape[0] == 88 and noise_var <= 0.1:
            raise NumericallySingular("injected failure")
        return real(h, noise_var)

    monkeypatch.setattr(sim, "mmse_precode", failing)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
    cfg = small_cfg(precoder="mmse", snr_grid_db=(0.0, 10.0), trials_per_point=600)
    pattern = r"sweep aborted \(mmse, seed 5\) at 10 dB, trials \[512, 600\): injected failure"
    with pytest.raises(NumericallySingular, match=pattern):
        run_ber_sweep(cfg, workers=workers)


class PendingPool(InlinePool):
    """Stand-in pool whose first future fails and whose others stay
    pending, like chunks still queued; records how it is shut down."""

    def __init__(self, max_workers):
        self.futures = []
        self.cancel_futures = None

    def submit(self, fn, *args):
        fut = Future()
        if not self.futures:
            fut.set_exception(NumericallySingular("injected failure"))
        self.futures.append(fut)
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        self.cancel_futures = cancel_futures
        if cancel_futures:
            for fut in self.futures:
                fut.cancel()


def test_failing_parallel_sweep_cancels_queued_chunks(monkeypatch):
    pool = PendingPool(max_workers=2)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", lambda max_workers: pool)
    cfg = small_cfg(precoder="zf", snr_grid_db=(0.0, 3.0, 6.0), trials_per_point=8)
    with pytest.raises(NumericallySingular, match=r"at 0 dB, trials \[0, 8\): injected failure"):
        run_ber_sweep(cfg, workers=2)
    assert pool.cancel_futures is True
    assert len(pool.futures) == 3
    assert all(fut.cancelled() for fut in pool.futures[1:])


def test_broken_worker_pool_is_a_worker_crash_with_context(monkeypatch):
    monkeypatch.setattr(sim, "ProcessPoolExecutor", BrokenPool)
    cfg = small_cfg(precoder="zf", snr_grid_db=(math.inf, 3.0), trials_per_point=600)
    pattern = r"sweep aborted \(zf, seed 5\) at inf dB, trials \[0, 512\): a worker process died"
    with pytest.raises(WorkerCrashed, match=pattern) as info:
        run_ber_sweep(cfg, workers=2)
    assert isinstance(info.value, DpcPermError)
    assert isinstance(info.value.__cause__, BrokenProcessPool)


@pytest.mark.parametrize("workers,expected", [(10**6, 2), (2, 2)])
def test_parallel_sweep_starts_no_more_workers_than_chunks(monkeypatch, workers, expected):
    sizes = []

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return InlinePool(max_workers)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", recording_pool)
    cfg = small_cfg(precoder="zf", snr_grid_db=(0.0, 6.0), trials_per_point=8)
    assert run_ber_sweep(cfg, workers=workers) == run_ber_sweep(cfg, workers=1)
    assert sizes == [expected]


def test_single_chunk_sweep_runs_serially(monkeypatch):
    monkeypatch.setattr(sim, "ProcessPoolExecutor", BrokenPool)
    cfg = small_cfg(precoder="zf", snr_grid_db=(6.0,), trials_per_point=8)
    assert run_ber_sweep(cfg, workers=8) == run_ber_sweep(cfg, workers=1)


@pytest.mark.parametrize(
    "n_users, channel_mode",
    [
        pytest.param(10, "per-trial-channel", id="10"),
        pytest.param(32, "per-trial-channel", id="32"),
        pytest.param(64, "per-trial-channel", id="64"),
        pytest.param(10, "fixed-channel", id="10-fixed-channel"),
        pytest.param(32, "fixed-channel", id="32-fixed-channel"),
    ],
)
def test_thp_chunk_peak_memory_stays_near_the_estimate(n_users, channel_mode):
    # The feedback runs in place in the draw buffer, so that buffer is the
    # chunk's only array of its size, and it is allocated after the LQ, so
    # the LQ's stack-sized temporaries are not live next to it (n = 64).
    cfg = small_cfg(
        n_users=n_users,
        precoder="thp",
        channel_mode=channel_mode,
        snr_grid_db=(10.0,),
        trials_per_point=512,
    )
    fixed_h = fixed_channel_for(cfg) if channel_mode == "fixed-channel" else None
    sim._simulate_chunk(cfg, 0, 10.0, 0, 512, fixed_h)  # fill the per-order caches first
    tracemalloc.start()
    try:
        sim._simulate_chunk(cfg, 0, 10.0, 0, 512, fixed_h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * sim._chunk_bytes(cfg)


# THP records at n = 10, 700 trials (one full chunk and one short one),
# seed 0, over 0, 10, 20 and inf dB: (bits_sent, bit_errors,
# measured_tx_power.hex(), min_decision_margin.hex()) per point.
THP_PINNED_RECORDS = {
    (4, "per-trial-channel"): [
        (14000, 1608, "0x1.420625cd3f83bp+3", "0x1.d62b1a477e000p-13"),
        (14000, 173, "0x1.3f7aefdf0a9b3p+3", "0x1.21bf2e2864700p-10"),
        (14000, 20, "0x1.40cb204513cc0p+3", "0x1.17a4b360662c0p-8"),
        (14000, 0, "0x1.3f8aae1c0f69fp+3", "0x1.6a09e667f3a9bp-1"),
    ],
    (16, "per-trial-channel"): [
        (28000, 5646, "0x1.3fe39789436dap+3", "0x1.e0c10a9bba000p-16"),
        (28000, 790, "0x1.451e034af340cp+3", "0x1.266220205ec00p-13"),
        (28000, 84, "0x1.3e6b5cad07b7ep+3", "0x1.8b7d0bccd9000p-14"),
        (28000, 0, "0x1.4115bca633665p+3", "0x1.43d136248475bp-2"),
    ],
    (128, "fixed-channel"): [
        (49000, 17875, "0x1.40c8fe0dca23bp+3", "0x1.5fc68a8f2b000p-17"),
        (49000, 6596, "0x1.3ce48563c6ec0p+3", "0x1.f12d41a1b9000p-16"),
        (49000, 447, "0x1.3dad33bde0317p+3", "0x1.19f6edcb4c000p-16"),
        (49000, 0, "0x1.41d7be675565cp+3", "0x1.c453d90f056fep-4"),
    ],
}


@pytest.mark.parametrize("order, channel_mode", list(THP_PINNED_RECORDS))
def test_thp_sweep_records_are_pinned(order, channel_mode):
    cfg = SweepConfig(
        n_users=10,
        snr_grid_db=(0.0, 10.0, 20.0, math.inf),
        trials_per_point=700,
        constellation_order=order,
        channel_mode=channel_mode,
        precoder="thp",
        seed=0,
    )
    got = [
        (r.bits_sent, r.bit_errors, r.measured_tx_power.hex(), r.min_decision_margin.hex())
        for r in run_ber_sweep(cfg)
    ]
    assert got == THP_PINNED_RECORDS[(order, channel_mode)]


def test_ber_monotone_within_ci():
    cfg = small_cfg(
        n_users=6,
        snr_grid_db=tuple(range(0, 18, 3)),
        trials_per_point=800,
        precoder="dpc-linear",
        seed=3,
    )
    records = run_ber_sweep(cfg)
    for lo_next, hi_prev in zip(records[1:], records[:-1]):
        assert lo_next.ci_lo <= hi_prev.ci_hi


def test_waterfill_mode_mutes_users_consistently():
    # A tight budget shuts off weak eigenchannels; the accounting must
    # drop exactly the muted users' bits.
    cfg = small_cfg(
        gain_mode="waterfill",
        power_budget=0.75,
        channel_mode="fixed-channel",
        snr_grid_db=(math.inf,),
        trials_per_point=50,
        seed=29,
    )
    h = fixed_channel_for(cfg)
    sigma = np.linalg.svd(h, compute_uv=False)
    k = waterfill(sigma, cfg.power_budget)
    active = int(np.count_nonzero(k))
    assert active < cfg.n_users  # the budget is tight enough to mute someone
    (rec,) = run_ber_sweep(cfg)
    bits_per_symbol = make_constellation(cfg.constellation_order).bits_per_symbol
    assert rec.bits_sent == 50 * active * bits_per_symbol
    assert rec.bit_errors == 0


def test_waterfill_mode_noisy_smoke():
    cfg = small_cfg(gain_mode="waterfill", trials_per_point=200, snr_grid_db=(10.0,))
    (rec,) = run_ber_sweep(cfg)
    assert 0.0 <= rec.ber <= 1.0


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


def test_csv_deterministic_and_schema(tmp_path):
    cfg = small_cfg(trials_per_point=50)
    records = run_ber_sweep(cfg)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_ber_csv(records, cfg, p1)
    write_ber_csv(records, cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    provenance = [ln for ln in lines if ln.startswith("#")]
    assert any("config_hash=" in ln for ln in provenance)
    assert any(f"seed={cfg.seed}" in ln for ln in provenance)
    assert any("gray_labeling=" in ln for ln in provenance)
    assert "# rng_scheme=philox-ss-v2" in provenance
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "snr_db,bits,errors,ber,ci_lo,ci_hi,precoder,modulation,n_users,seed"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == len(cfg.snr_grid_db)
    first = data[0].split(",")
    assert first[6] == "dpc-linear" and first[7] == "qpsk" and first[8] == "4"


def test_manifest_mirrors_config(tmp_path):
    cfg = small_cfg(trials_per_point=20, snr_grid_db=(0.0, math.inf))
    records = run_ber_sweep(cfg)
    path = tmp_path / "manifest.json"
    write_manifest([(cfg, records)], path)
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["rng_scheme"] == "philox-ss-v2"
    sweep = payload["sweeps"][0]
    assert sweep["config"]["n_users"] == 4
    assert sweep["config"]["snr_grid_db"] == [0.0, "inf"]
    assert sweep["config_hash"] == config_hash(cfg)
    assert sweep["csv"] == sweep_csv_name(cfg)
    assert len(sweep["records"]) == 2
    assert sweep["records"][1]["snr_db"] == "inf"


def test_csv_name():
    assert sweep_csv_name(small_cfg()) == "ber_dpc-linear_qpsk.csv"
    assert (
        sweep_csv_name(small_cfg(precoder="zf", constellation_order=64))
        == "ber_zf_64-qam.csv"
    )
