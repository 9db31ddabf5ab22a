"""Tests for the Monte Carlo sweep engine and result files."""

import json
import math
import re
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpc_perm import modem, sim
from dpc_perm.channel import sample_channel, stream
from dpc_perm.exceptions import (
    ConfigError,
    DegenerateGain,
    DpcPermError,
    InfeasibleBlocking,
    NumericallySingular,
    WorkerCrashed,
)
from dpc_perm.linalg import count_decompositions, lq_decompose
from dpc_perm.modem import QAM_ORDERS, hard_decisions, make_constellation, qam_modulate
from dpc_perm.ordering import naive_order_search
from dpc_perm.precoding import (
    bd_precode,
    dpc_conventional,
    dpc_linear,
    mmse_precode,
    modulo_lattice,
    power_scale,
    successive_encode,
    thp_modulo_base,
    thp_precode,
    waterfill,
    zf_precode,
)
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


@pytest.mark.parametrize("budget", [1e308, 2.0**512])
def test_power_budget_above_its_bound_is_refused(budget):
    # At 1e308 the four trials' transmit powers overflowed their sum, and
    # manifest.json got "measured_tx_power": Infinity, which is not JSON.
    raw = {"n_users": 2, "snr_grid_db": [10], "trials_per_point": 4, "precoder": "zf"}
    raw["power_budget"] = budget
    with pytest.raises(ConfigError, match="power_budget"):
        SweepConfig(**raw).validate()
    with pytest.raises(ConfigError, match="power_budget"):
        SweepConfig.from_dict(json.loads(json.dumps(raw)))


def test_power_budget_at_its_bound_gives_a_finite_zf_power():
    # The zf transmit power is linear in the budget.
    powers = [
        run_ber_sweep(
            SweepConfig(
                n_users=2, snr_grid_db=(10.0,), trials_per_point=4, precoder="zf", power_budget=p
            )
        )[0].measured_tx_power
        for p in (1.0, sim._MAX_POWER_BUDGET)
    ]
    assert powers[1] == pytest.approx(sim._MAX_POWER_BUDGET * powers[0], rel=1e-12)


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


@pytest.mark.parametrize("workers", [sim._MAX_WORKERS + 1, 10**9])
def test_resolve_workers_refuses_counts_above_the_cap(monkeypatch, workers):
    monkeypatch.delenv("DPC_PERM_WORKERS", raising=False)
    assert resolve_workers(sim._MAX_WORKERS) == sim._MAX_WORKERS
    with pytest.raises(ConfigError, match=r"'workers': \d+ is above the limit of 64 worker"):
        resolve_workers(workers)
    monkeypatch.setenv("DPC_PERM_WORKERS", str(workers))
    with pytest.raises(ConfigError, match="'DPC_PERM_WORKERS'.*above the limit of 64"):
        resolve_workers(None)
    monkeypatch.setenv("DPC_PERM_WORKERS", str(sim._MAX_WORKERS))
    assert resolve_workers(None) == sim._MAX_WORKERS


def test_sweep_above_the_worker_cap_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(sim, "ProcessPoolExecutor", no_pool)
    cfg = small_cfg(precoder="zf", snr_grid_db=(6.0,), trials_per_point=8)
    with pytest.raises(ConfigError, match="above the limit"):
        run_ber_sweep(cfg, workers=sim._MAX_WORKERS + 1)


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


@pytest.mark.parametrize("precoder", ["dpc-conventional", "dpc-linear", "zf", "thp"])
def test_noise_free_broadcast_to_100_users_fits_the_data(precoder):
    # The source paper's spatial example: a noise-free broadcast channel to
    # 100 single-antenna users, whose received signal can perfectly fit the
    # data. Every QPSK sample lands on its point, so the closest one to a
    # decision boundary is 1/sqrt(2) away up to reconstruction error.
    cfg = SweepConfig(
        n_users=100, snr_grid_db=(math.inf,), trials_per_point=64, precoder=precoder, seed=0
    )
    (rec,) = run_ber_sweep(cfg)
    assert (rec.bits_sent, rec.bit_errors) == (64 * 100 * 2, 0)
    assert abs(rec.min_decision_margin - 1 / math.sqrt(2)) <= 1e-9


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
        # The fixed channel's design is made once and sent to every worker.
        small_cfg(trials_per_point=1100, precoder="bd", channel_mode="fixed-channel"),
        small_cfg(trials_per_point=1100, precoder="mmse", channel_mode="fixed-channel"),
        # Each chunk's SVD serves every point: three chunks, two of them full.
        small_cfg(trials_per_point=1100, precoder="mmse"),
        small_cfg(
            trials_per_point=1100,
            constellation_order=128,
            gain_mode="waterfill",
            channel_mode="fixed-channel",
        ),
    ):
        seq = run_ber_sweep(cfg, workers=1)
        par = run_ber_sweep(cfg, workers=2)
        assert [(r.bit_errors, r.bits_sent, r.measured_tx_power) for r in seq] == [
            (r.bit_errors, r.bits_sent, r.measured_tx_power) for r in par
        ]


# ---------------------------------------------------------------------------
# Random-draw contract (philox-ss-v5)
# ---------------------------------------------------------------------------


def chunk_draws(cfg, t0, t1):
    c = make_constellation(cfg.constellation_order)
    fixed_hs = fixed_channel_for(cfg)[np.newaxis] if cfg.channel_mode == "fixed-channel" else None
    return sim._chunk_draws(cfg, t0, t1, c, fixed_hs)


@pytest.mark.parametrize("t0", [0, 512])
def test_short_chunk_draws_are_the_rows_of_a_full_chunk(t0):
    cfg = small_cfg(precoder="thp")
    short = chunk_draws(cfg, t0, t0 + 300)
    full = chunk_draws(cfg, t0, t0 + 512)
    names = ("channels", "bits", "noise")
    for name, a, b in zip(names, short, full):
        assert a.shape[0] == 300 and b.shape[0] == 512, name
        assert np.array_equal(a, b[:300]), name
    # The chunk's one pilot batch does not depend on how many trials it holds.
    assert short[3].shape == (1, sim._THP_PILOTS, 4)
    assert np.array_equal(short[3], full[3])


def test_trial_draws_do_not_depend_on_precoder_mode_or_trial_count():
    zf = chunk_draws(small_cfg(precoder="zf", trials_per_point=40), 0, 40)
    thp = chunk_draws(small_cfg(precoder="thp", trials_per_point=9000), 0, 40)
    fixed = chunk_draws(small_cfg(precoder="zf", channel_mode="fixed-channel"), 0, 40)
    assert zf[3] is None and fixed[3] is None and thp[3].shape == (1, sim._THP_PILOTS, 4)
    assert np.array_equal(zf[0], thp[0])
    assert fixed[0].shape == (1, 4, 4)
    for other in (thp, fixed):
        assert np.array_equal(zf[1], other[1])  # bits
        assert np.array_equal(zf[2], other[2])  # noise


def test_chunks_draw_apart_and_points_draw_alike(monkeypatch):
    # Chunks draw apart: every kind of draw differs between chunks 0 and 1.
    cfg = small_cfg(precoder="thp", trials_per_point=600)
    for a, b in zip(chunk_draws(cfg, 0, 8), chunk_draws(cfg, 512, 520)):
        assert not np.array_equal(a, b)
    # Points draw alike: a sweep builds each chunk's four streams once, keyed
    # without an SNR index, and every point of the grid reads them.
    keys = []
    real = sim.stream

    def recorded(seed, *key):
        keys.append((seed, *key))
        return real(seed, *key)

    monkeypatch.setattr(sim, "stream", recorded)
    run_ber_sweep(cfg, workers=1)
    assert keys == [(5, sim._NS_CHUNK, chunk, kind) for chunk in (0, 1) for kind in range(4)]


@pytest.mark.parametrize("channel_mode", sim.CHANNEL_MODES)
@pytest.mark.parametrize(
    "precoder,gain_mode",
    [(p, "diag-L") for p in sim.PRECODERS] + [(p, "waterfill") for p in sim._DPC_FAMILY],
)
def test_a_point_of_a_grid_is_the_sweep_of_that_point_alone(precoder, gain_mode, channel_mode):
    # Trial t's draws depend only on (seed, t), and a point's stage reads
    # only its own noise variance, so each record of a grid is the one
    # record of a sweep over that point alone, to the last bit.
    cfg = small_cfg(
        precoder=precoder,
        gain_mode=gain_mode,
        channel_mode=channel_mode,
        snr_grid_db=(0.0, 8.0, math.inf),
        trials_per_point=600,  # two chunks
    )

    def fields(r):
        return r.bits_sent, r.bit_errors, r.measured_tx_power.hex(), r.min_decision_margin.hex()

    for snr_db, record in zip(cfg.snr_grid_db, run_ber_sweep(cfg)):
        (alone,) = run_ber_sweep(replace(cfg, snr_grid_db=(snr_db,)))
        assert fields(record) == fields(alone), snr_db


def test_both_channel_modes_draw_the_same_pilot_batch():
    # One pilot batch per chunk in both channel modes: the fixed channel and
    # every per-trial channel of the chunk feed back the same (1, 128, n)
    # labels.
    fixed = chunk_draws(small_cfg(precoder="thp", channel_mode="fixed-channel"), 512, 812)[3]
    per_trial = chunk_draws(small_cfg(precoder="thp"), 512, 812)[3]
    assert fixed.shape == (1, sim._THP_PILOTS, 4)
    assert per_trial.shape == (1, sim._THP_PILOTS, 4)
    assert np.array_equal(fixed, per_trial)


@given(
    seed=st.integers(0, 2**64 - 1),
    key=st.lists(st.integers(0, 2**32 - 1), max_size=5),
    size=st.integers(1, 5000),
    b=st.sampled_from([1] + [make_constellation(order).bits_per_symbol for order in QAM_ORDERS]),
)
@example(seed=0, key=[2, 0, 0, 1], size=8, b=1)
@example(seed=3, key=[2, 1, 2, 3], size=5000, b=7)
@settings(max_examples=300, deadline=None)
def test_uint8_draws_are_numpys_integers_bit_for_bit(seed, key, size, b):
    # The bits (b = 1) and every QAM order's pilot labels are read from the
    # Philox words; they must equal numpy's own draw from a fresh stream.
    got = sim._uint8_draws(stream(seed, *key), (size,), b)
    want = stream(seed, *key).integers(0, 2**b, size, dtype=np.uint8)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_chunk_bits_and_pilots_are_numpys_integers(order):
    # The chunk's kind-1 and kind-3 draws, in their (m, n·b) and
    # (1, _THP_PILOTS, n) shapes, are the integers calls they replace.
    cfg = small_cfg(precoder="thp", constellation_order=order, seed=11)
    _, bits, _, labels = chunk_draws(cfg, 512, 812)
    b = make_constellation(order).bits_per_symbol

    def rng(kind):
        return stream(cfg.seed, sim._NS_CHUNK, 1, kind)

    want_bits = rng(sim._KIND_BITS).integers(0, 2, size=(300, 4 * b), dtype=np.uint8)
    pilot_shape = (1, sim._THP_PILOTS, 4)
    want_labels = rng(sim._KIND_PILOTS).integers(0, order, size=pilot_shape, dtype=np.uint8)
    assert np.array_equal(bits, want_bits) and bits.shape == want_bits.shape
    assert np.array_equal(labels, want_labels) and labels.shape == want_labels.shape


def test_fixed_channel_thp_chunk_is_calibrated_once():
    cfg = small_cfg(precoder="thp", channel_mode="fixed-channel", constellation_order=16)
    c = make_constellation(cfg.constellation_order)
    hs, bits, _, labels = chunk_draws(cfg, 0, 300)
    s = qam_modulate(bits.ravel(), c).reshape(300, cfg.n_users)
    factors = lq_decompose(hs)
    x, g = sim._thp_transmit(cfg, factors, s, labels, c)
    assert x.shape == (300, cfg.n_users)
    assert g.shape == (1, cfg.n_users)  # one alpha for the chunk
    # Every trial is that one alpha times the channel's unscaled THP.
    alpha = g[0] / factors.diag[0]
    np.testing.assert_allclose(alpha, alpha[0], rtol=1e-15)
    unscaled = successive_encode(factors, factors.diag, s, thp_modulo_base(c.points))
    np.testing.assert_allclose(x, alpha[0] * unscaled, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("channel_mode", ["per-trial-channel", "fixed-channel"])
def test_thp_scale_puts_each_channels_mean_pilot_power_on_the_budget(monkeypatch, channel_mode):
    # The exact identity behind THP's calibration: scaled by its alpha, each
    # channel's fed-back pilots have mean power power_budget. The pooled
    # measured_tx_power (test_baseline_transmit_power_tracks_budget) is only
    # a noisy estimate of it.
    cfg = small_cfg(
        precoder="thp", channel_mode=channel_mode, constellation_order=16, power_budget=2.5
    )
    c = make_constellation(cfg.constellation_order)
    hs, bits, _, labels = chunk_draws(cfg, 0, 300)
    s = qam_modulate(bits.ravel(), c).reshape(300, cfg.n_users)
    factors = lq_decompose(hs)
    buffers, feedback = [], sim.successive_feedback

    def spy(l, xt, base):
        buffers.append(xt)
        return feedback(l, xt, base)

    monkeypatch.setattr(sim, "successive_feedback", spy)
    _, g = sim._thp_transmit(cfg, factors, s, labels, c)
    (xt,) = buffers
    alpha = g[:, 0] / factors.diag[:, 0]
    pilots = alpha[:, np.newaxis, np.newaxis] * xt[:, :, -sim._THP_PILOTS :]
    power = np.mean(np.sum(np.abs(pilots) ** 2, axis=1), axis=1)
    assert power.shape == (len(hs),)  # 300 channels, or the one fixed channel
    np.testing.assert_allclose(power, cfg.power_budget, rtol=1e-12, atol=0)


# THP too: each channel of a chunk feeds back the chunk's one pilot batch,
# so per-trial copies of the fixed channel get the fixed channel's alpha.
@pytest.mark.parametrize(
    "precoder,gain_mode",
    [(p, "diag-L") for p in sim.PRECODERS]
    + [(p, "waterfill") for p in sim._DPC_FAMILY],
)
def test_fixed_channel_sweep_equals_per_trial_sweep_of_that_channel(
    monkeypatch, precoder, gain_mode
):
    # The fixed channel is designed once per sweep (mmse: its SVD, and its
    # inf point's inverse in each chunk); a per-trial sweep whose every trial
    # draws that same channel designs each copy, on the same bits and noise.
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


DESIGN_POINTS, DESIGN_TRIALS = (0.0, 10.0), 1100  # 3 chunks a point: 512, 512, 76


@pytest.mark.parametrize("channel_mode", sim.CHANNEL_MODES)
@pytest.mark.parametrize(
    "precoder,gain_mode,lq,svd",
    [
        ("dpc-conventional", "diag-L", 1, 0),
        ("dpc-conventional", "waterfill", 1, 1),
        ("dpc-linear", "diag-L", 1, 0),
        ("dpc-linear", "waterfill", 0, 1),
        ("thp", "diag-L", 1, 0),
        ("mmse", "diag-L", 0, 1),
    ],
)
def test_a_fixed_channel_is_factored_once_per_sweep(precoder, gain_mode, lq, svd, channel_mode):
    # The design reads only the channel: the fixed channel is factored once
    # for every point and chunk, a per-trial sweep once per trial for the
    # whole grid. The water-fill's SVD yields only the singular values;
    # dpc-linear's matrix is an inverse, which no counter sees. mmse's one
    # SVD serves every point, which only rescales its singular values.
    cfg = small_cfg(
        precoder=precoder,
        gain_mode=gain_mode,
        channel_mode=channel_mode,
        snr_grid_db=DESIGN_POINTS,
        trials_per_point=DESIGN_TRIALS,
    )
    with count_decompositions() as counter:
        run_ber_sweep(cfg, workers=1)
    per = 1 if channel_mode == "fixed-channel" else DESIGN_TRIALS
    assert (counter.lq, counter.svd) == (lq * per, svd * per)


@pytest.mark.parametrize("channel_mode", sim.CHANNEL_MODES)
@pytest.mark.parametrize("precoder", ["zf", "bd"])
def test_a_fixed_channel_is_inverted_once_per_sweep(monkeypatch, precoder, channel_mode):
    # A chunk's stack is inverted once for the whole grid.
    name = f"{precoder}_precode"
    real = getattr(sim, name)
    stacks = []

    def counted(hs, *args):
        stacks.append(len(hs))
        return real(hs, *args)

    monkeypatch.setattr(sim, name, counted)
    cfg = small_cfg(
        precoder=precoder,
        channel_mode=channel_mode,
        snr_grid_db=DESIGN_POINTS,
        trials_per_point=DESIGN_TRIALS,
    )
    run_ber_sweep(cfg, workers=1)
    if channel_mode == "per-trial-channel":
        assert stacks == [512, 512, 76]
    else:
        assert stacks == [1]


@pytest.mark.parametrize("channel_mode", sim.CHANNEL_MODES)
@pytest.mark.parametrize("precoder", sim._DPC_FAMILY)
def test_a_chunk_is_water_filled_in_one_call(monkeypatch, precoder, channel_mode):
    # One batched water-fill per design: a chunk's stack of singular values
    # once per chunk for the whole grid, the fixed channel's one row once per
    # sweep.
    real = sim.waterfill
    stacks = []

    def counted(sv, budget):
        stacks.append(sv.shape)
        return real(sv, budget)

    monkeypatch.setattr(sim, "waterfill", counted)
    cfg = small_cfg(
        precoder=precoder,
        gain_mode="waterfill",
        channel_mode=channel_mode,
        snr_grid_db=DESIGN_POINTS,
        trials_per_point=DESIGN_TRIALS,
    )
    run_ber_sweep(cfg, workers=1)
    n = cfg.n_users
    if channel_mode == "per-trial-channel":
        assert stacks == [(m, n) for m in [512, 512, 76]]
    else:
        assert stacks == [(1, n)]


def scalar_reference_transmit(cfg, h, s, nv, pilots, c):
    """One trial the textbook way: the public single-channel precoder for
    ``h`` and symbols ``s``; returns (x, effective gains)."""
    budget = cfg.power_budget
    if cfg.precoder in sim._DPC_FAMILY:
        if cfg.gain_mode == "diag-L":
            k = lq_decompose(h).diag
        else:
            k = waterfill(np.linalg.svd(h, compute_uv=False), budget)
        if cfg.precoder == "dpc-conventional":
            return dpc_conventional(h, s, gains=k), k
        return dpc_linear(h, k) @ s, k
    if cfg.precoder == "thp":
        # Power from the channel's pilots, each precoded on that channel.
        base = thp_modulo_base(c.points)
        xp = thp_precode(np.repeat(h[np.newaxis], len(pilots), axis=0), pilots, base)
        alpha = math.sqrt(budget / np.mean(np.sum(np.abs(xp) ** 2, axis=1)))
        return alpha * thp_precode(h, s, base), alpha * lq_decompose(h).diag
    if cfg.precoder == "mmse":
        w = mmse_precode(h, nv)
    else:
        w = zf_precode(h) if cfg.precoder == "zf" else bd_precode(h)
    alpha = power_scale(w, budget)
    return alpha * (w @ s), alpha * np.real(np.diag(h @ w))


@pytest.mark.parametrize("channel_mode", sim.CHANNEL_MODES)
@pytest.mark.parametrize(
    "precoder,gain_mode",
    [(p, "diag-L") for p in sim.PRECODERS] + [(p, "waterfill") for p in sim._DPC_FAMILY],
)
@settings(max_examples=4, deadline=None)
@example(
    n_users=6,
    order=16,
    trials=64,
    snr_grid_db=[4.0, 12.0, math.inf],
    budget=2.0,
    seed=11,
)
@given(
    n_users=st.integers(1, 6),
    order=st.sampled_from(QAM_ORDERS),
    # One short chunk, chunk boundaries, and a short last chunk after a
    # full one.
    trials=st.sampled_from([1, 2, 37, 511, 512, 513, 700]),
    snr_grid_db=st.lists(
        st.one_of(st.integers(-10, 40).map(float), st.just(math.inf)), min_size=1, max_size=2
    ),
    budget=st.floats(0.5, 40.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_matches_a_scalar_reference_trial_by_trial(
    precoder, gain_mode, channel_mode, n_users, order, trials, snr_grid_db, budget, seed
):
    # Every chunk's draws, shared by the points, then per trial: the public
    # precoder on one channel, the channel, the noise and a hard decision.
    # So each point's counts are those of that point alone fed the chunk's
    # one set of draws. This checks the batched layouts (stacked or shared
    # factors, broadcast gains, the muting mask of water-filled gains, the
    # stacked water-fill) against the one-channel path.
    cfg = SweepConfig(
        n_users=n_users,
        snr_grid_db=tuple(snr_grid_db),
        trials_per_point=trials,
        constellation_order=order,
        channel_mode=channel_mode,
        precoder=precoder,
        gain_mode=gain_mode,
        power_budget=budget,
        seed=seed,
    )
    c = make_constellation(cfg.constellation_order)
    for snr_db, record in zip(cfg.snr_grid_db, run_ber_sweep(cfg, workers=1)):
        nv = noise_variance(cfg, snr_db)
        errors = sent = 0
        power = 0.0
        for t0 in range(0, trials, sim._CHUNK):
            t1 = min(t0 + sim._CHUNK, trials)
            hs, bits, noise, labels = chunk_draws(cfg, t0, t1)
            for t in range(t1 - t0):
                # The fixed channel is row 0, and so is THP's one pilot
                # batch, which every trial's channel feeds back.
                h = hs[t if len(hs) > 1 else 0]
                pilots = None if labels is None else c.points[labels[0]]
                x, g = scalar_reference_transmit(cfg, h, qam_modulate(bits[t], c), nv, pilots, c)
                y = h @ x + math.sqrt(nv / 2.0) * noise[t]
                active = g > 0
                y_hat = y[active] / g[active]
                if precoder == "thp":
                    y_hat = modulo_lattice(y_hat, thp_modulo_base(c.points))
                rx_bits, _ = hard_decisions(y_hat, c)
                tx_bits = bits[t].reshape(cfg.n_users, c.bits_per_symbol)[active].ravel()
                errors += int(np.count_nonzero(tx_bits != rx_bits))
                sent += tx_bits.size
                power += float(np.sum(np.abs(x) ** 2))
        assert (record.bit_errors, record.bits_sent) == (errors, sent)
        assert record.measured_tx_power == pytest.approx(power / trials, rel=1e-12)


@pytest.mark.parametrize("channel_mode", sim.CHANNEL_MODES)
def test_mmse_point_through_u_matches_the_explicit_transmit(monkeypatch, channel_mode):
    # Each finite mmse point never forms x: H x = u (sigma alpha d * u^H s),
    # and sum |x|**2 = sum (alpha d)**2 |u^H s|**2 since v is unitary. Check
    # what a real chunk's points return against the explicit route through
    # the public mmse_precode. The tolerance is relative: per gain, per
    # trial's received vector, and for the power sum; both routes round at
    # about eps times the channel's condition number.
    cfg = SweepConfig(
        n_users=10,
        snr_grid_db=(0.0, 20.0, 60.0, 120.0),
        trials_per_point=512,
        constellation_order=16,
        channel_mode=channel_mode,
        precoder="mmse",
        seed=7,
    ).validate()
    fixed = None
    if channel_mode == "fixed-channel":
        fixed = sim._design(cfg, fixed_channel_for(cfg)[np.newaxis])
    points = []
    real = sim._mmse_transmit

    def recording(cfg, design, s, rotated, nv):
        sent = real(cfg, design, s, rotated, nv)
        points.append((design.hs, s, nv, sent))
        return sent

    monkeypatch.setattr(sim, "_mmse_transmit", recording)
    sim._simulate_chunk(cfg, 0, cfg.trials_per_point, fixed)
    assert [nv for _, _, nv, _ in points] == [noise_variance(cfg, v) for v in cfg.snr_grid_db]
    for hs, s, nv, (g, y, power) in points:
        w = mmse_precode(hs, nv)
        alpha = power_scale(w, cfg.power_budget)[:, np.newaxis]
        x = alpha * (w @ s[..., np.newaxis])[..., 0]
        g_ref = alpha * np.real(np.einsum("mii->mi", hs @ w))
        y_ref = (hs @ x[..., np.newaxis])[..., 0]
        assert g.shape == g_ref.shape and y.shape == y_ref.shape == s.shape
        assert np.max(np.abs(g - g_ref) / g_ref) <= 1e-12
        assert np.max(np.linalg.norm(y - y_ref, axis=1) / np.linalg.norm(y_ref, axis=1)) <= 1e-12
        assert power == pytest.approx(float(np.sum(np.abs(x) ** 2)), rel=1e-12)


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


def test_diag_l_linear_dpc_never_forms_the_lq_factors(monkeypatch):
    # Linear DPC reads only diag(L), which lq_diagonal's R-only QR gives;
    # the successive encode reads Q, so the same guard stops its sweep.
    def refuse(hs):
        raise AssertionError("lq_decompose called")

    monkeypatch.setattr(sim, "lq_decompose", refuse)
    for channel_mode in sim.CHANNEL_MODES:
        cfg = small_cfg(precoder="dpc-linear", channel_mode=channel_mode, trials_per_point=20)
        assert cfg.gain_mode == "diag-L"
        assert sum(r.bits_sent for r in run_ber_sweep(cfg, workers=1)) > 0
    with pytest.raises(AssertionError, match="lq_decompose called"):
        run_ber_sweep(small_cfg(precoder="dpc-conventional", trials_per_point=20), workers=1)


# ---------------------------------------------------------------------------
# Resource bound
# ---------------------------------------------------------------------------


def test_huge_n_users_is_a_config_error():
    raw = {"n_users": 100000, "snr_grid_db": [0], "trials_per_point": 10}
    with pytest.raises(ConfigError, match="n_users.*MiB"):
        SweepConfig.from_dict(raw)


PER_TRIAL = "per-trial-channel"


@pytest.mark.parametrize(
    "n_users,precoder,trials,channel_mode,ok",
    [
        # 2 * 512 * 128**2 * 16 B: exactly the limit
        pytest.param(128, "zf", 10_000, PER_TRIAL, True, id="128-zf-10000-True"),
        pytest.param(129, "zf", 10_000, PER_TRIAL, False, id="129-zf-10000-False"),
        # plus THP's buffer, 512 * (1 + 128) * 128 * 16 B per-trial
        pytest.param(128, "thp", 10_000, PER_TRIAL, False, id="128-thp-10000-False"),
        # and (512 + 128) * 128 * 16 B on the fixed channel
        pytest.param(
            128, "thp", 10_000, "fixed-channel", False, id="128-thp-10000-fixed-channel-False"
        ),
        # a chunk holds only the trials of a point
        pytest.param(128, "thp", 100, PER_TRIAL, True, id="128-thp-100-True"),
        pytest.param(300, "zf", 1, PER_TRIAL, True, id="300-zf-1-True"),
        # The noise-free 100-user case: about 257 MiB with a pilot batch
        # per trial, 157 MiB with one batch per chunk.
        pytest.param(100, "thp", 512, PER_TRIAL, False, id="100-thp-512-False"),
        pytest.param(100, "thp", 512, "fixed-channel", True, id="100-thp-512-fixed-channel-True"),
    ],
)
def test_chunk_memory_estimate_bounds_the_config(n_users, precoder, trials, channel_mode, ok):
    cfg = small_cfg(
        n_users=n_users, precoder=precoder, trials_per_point=trials, channel_mode=channel_mode
    )
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
    # so the 1% check needs a decent pool of vectors to concentrate. The
    # points share their trials' vectors (and THP its pilot batches), so
    # the pool is one point's 16000 trials: 32 pilot batches.
    cfg = small_cfg(
        precoder=precoder,
        channel_mode="fixed-channel",
        trials_per_point=16000,
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


FIXED = "on the fixed channel"


@pytest.mark.parametrize(
    "precoder,error,place",
    [
        pytest.param("zf", NumericallySingular, FIXED, id="zf-NumericallySingular"),
        pytest.param("bd", InfeasibleBlocking, FIXED, id="bd-InfeasibleBlocking"),
        pytest.param("dpc-linear", NumericallySingular, FIXED, id="dpc-linear-NumericallySingular"),
        pytest.param("thp", NumericallySingular, FIXED, id="thp-NumericallySingular"),
        # mmse's SVD of the fixed channel exists, and so do its finite
        # points' weights; its inf point is zf's inverse, made per chunk,
        # and that does not exist.
        pytest.param(
            "mmse",
            NumericallySingular,
            r"at inf dB, trials \[0, 300\)",
            id="mmse-NumericallySingular",
        ),
    ],
)
def test_singular_fixed_channel_aborts_sweep_with_context(monkeypatch, precoder, error, place):
    # The fixed channel is designed before any chunk, so no trial range is
    # to blame: the failure names the fixed channel (mmse: its inf point and
    # the chunk that inverts it).
    monkeypatch.setattr(sim, "fixed_channel_for", lambda cfg: np.ones((4, 4), dtype=complex))
    cfg = small_cfg(
        precoder=precoder, channel_mode="fixed-channel", snr_grid_db=(0.0, 6.0, math.inf)
    )
    pattern = rf"^sweep aborted \({precoder}, seed 5\) {place}: "
    with pytest.raises(error, match=pattern):
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
    real = sim._mmse_transmit

    def failing(cfg, design, s, rotated, nv):
        # Only the 88-trial second chunk at 10 dB (4 users, budget 4: noise
        # variance 0.1) fails, in the point's own MMSE transmit.
        if len(s) == 88 and nv <= 0.1:
            raise NumericallySingular("injected failure")
        return real(cfg, design, s, rotated, nv)

    monkeypatch.setattr(sim, "_mmse_transmit", failing)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
    cfg = small_cfg(precoder="mmse", snr_grid_db=(0.0, 10.0), trials_per_point=600)
    pattern = r"sweep aborted \(mmse, seed 5\) at 10 dB, trials \[512, 600\): injected failure"
    with pytest.raises(NumericallySingular, match=pattern):
        run_ber_sweep(cfg, workers=workers)


def test_point_failure_names_its_point_from_a_worker_process():
    # The point a failure carries crosses the process boundary: mmse's power
    # scale overflows at -1600 dB in both chunks, each in a worker.
    cfg = small_cfg(precoder="mmse", snr_grid_db=(0.0, -1600.0), trials_per_point=600)
    pattern = r"^sweep aborted \(mmse, seed 5\) at -1600 dB, trials \[0, 512\): "
    with pytest.raises(DegenerateGain, match=pattern):
        run_ber_sweep(cfg, workers=2)


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
    cfg = small_cfg(precoder="zf", snr_grid_db=(0.0, 3.0, 6.0), trials_per_point=1100)
    with pytest.raises(NumericallySingular, match=r"in trials \[0, 512\): injected failure"):
        run_ber_sweep(cfg, workers=2)
    assert pool.cancel_futures is True
    assert len(pool.futures) == 3
    assert all(fut.cancelled() for fut in pool.futures[1:])


def test_broken_worker_pool_is_a_worker_crash_with_context(monkeypatch):
    monkeypatch.setattr(sim, "ProcessPoolExecutor", BrokenPool)
    cfg = small_cfg(precoder="zf", snr_grid_db=(math.inf, 3.0), trials_per_point=600)
    pattern = r"sweep aborted \(zf, seed 5\) in trials \[0, 512\): a worker process died"
    with pytest.raises(WorkerCrashed, match=pattern) as info:
        run_ber_sweep(cfg, workers=2)
    assert isinstance(info.value, DpcPermError)
    assert isinstance(info.value.__cause__, BrokenProcessPool)


@pytest.mark.parametrize("workers,expected", [(sim._MAX_WORKERS, 2), (2, 2)])
def test_parallel_sweep_starts_no_more_workers_than_chunks(monkeypatch, workers, expected):
    sizes = []

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return InlinePool(max_workers)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", recording_pool)
    cfg = small_cfg(precoder="zf", snr_grid_db=(0.0, 6.0), trials_per_point=600)
    assert run_ber_sweep(cfg, workers=workers) == run_ber_sweep(cfg, workers=1)
    assert sizes == [expected]


def test_single_chunk_sweep_runs_serially(monkeypatch):
    monkeypatch.setattr(sim, "ProcessPoolExecutor", BrokenPool)
    cfg = small_cfg(precoder="zf", snr_grid_db=(6.0,), trials_per_point=8)
    assert run_ber_sweep(cfg, workers=8) == run_ber_sweep(cfg, workers=1)


def chunks_then_failure(good_chunks):
    """Stand-in for ``_simulate_chunk`` that returns ``good_chunks`` chunks'
    partial sums and then raises; records the ``t0`` of every call."""
    calls = []

    def simulate(cfg, t0, t1, fixed):
        calls.append(t0)
        if len(calls) > good_chunks:
            raise NumericallySingular("injected failure")
        return [{"errors": 0, "bits": 1, "tx_power_sum": 0.0, "min_margin": 1.0}] * len(
            cfg.snr_grid_db
        )

    return simulate, calls


def test_huge_serial_sweep_fails_at_once_in_small_memory(monkeypatch):
    # Chunks are made as they run: a sweep of 2e8 chunks builds no list.
    simulate, calls = chunks_then_failure(3)
    monkeypatch.setattr(sim, "_simulate_chunk", simulate)
    cfg = small_cfg(precoder="zf", snr_grid_db=(10.0,), trials_per_point=10**11)
    tracemalloc.start()
    try:
        with pytest.raises(NumericallySingular, match=r"in trials \[1536, 2048\)"):
            run_ber_sweep(cfg, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [0, 512, 1024, 1536]
    assert peak < 2**20


class WindowPool(InlinePool):
    """Stand-in pool that records its worker count and the most futures it
    has handed out whose result was not yet read (chunks in flight)."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.in_flight = set()
        self.peak = 0
        self.submitted = 0

    def submit(self, fn, *args):
        done = super().submit(fn, *args)
        fut = Future()
        pool = self

        def result(timeout=None):
            pool.in_flight.discard(fut)
            return done.result(timeout)

        fut.result = result
        self.in_flight.add(fut)
        self.submitted += 1
        self.peak = max(self.peak, len(self.in_flight))
        return fut


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_sweep_keeps_a_bounded_window_of_chunks_in_flight(monkeypatch, workers):
    pools = []

    def window_pool(max_workers):
        pools.append(WindowPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(sim, "ProcessPoolExecutor", window_pool)
    window = sim._CHUNKS_IN_FLIGHT_PER_WORKER * workers
    # Nine chunks, more than the window: the records equal the serial ones.
    cfg = small_cfg(precoder="zf", trials_per_point=8 * 512 + 100)
    assert run_ber_sweep(cfg, workers=workers) == run_ber_sweep(cfg, workers=1)
    assert pools[0].peak == window and pools[0].submitted == 9
    # 2e8 chunks: the worker count is computed without a list of them, and
    # the failure of the fourth surfaces after at most a window more.
    simulate, calls = chunks_then_failure(3)
    monkeypatch.setattr(sim, "_simulate_chunk", simulate)
    huge = small_cfg(precoder="zf", snr_grid_db=(10.0,), trials_per_point=10**11)
    with pytest.raises(NumericallySingular, match=r"in trials \[1536, 2048\)"):
        run_ber_sweep(huge, workers=workers)
    pool = pools[-1]
    assert pool.max_workers == workers
    assert pool.peak == window and pool.submitted == len(calls) <= 4 + window


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
    fixed = None
    if channel_mode == "fixed-channel":
        fixed = sim._design(cfg, fixed_channel_for(cfg)[np.newaxis])
    sim._simulate_chunk(cfg, 0, 512, fixed)  # fill the per-order caches first
    tracemalloc.start()
    try:
        sim._simulate_chunk(cfg, 0, 512, fixed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * sim._chunk_bytes(cfg)


@pytest.mark.parametrize(
    "precoder, gain_mode, snr_db, trials, order",
    [
        pytest.param("dpc-linear", "waterfill", 10.0, 512, 128, id="water-filled-with-muted-users"),
        pytest.param("thp", "diag-L", 10.0, 512, 128, id="thp"),
        pytest.param("zf", "diag-L", 0.0, 512, 128, id="zf-0dB-samples-outside-the-table"),
        # 160 samples, 4 of them outside: too few for the edge lists.
        pytest.param("bd", "diag-L", 0.0, 16, 128, id="bd-0dB-few-samples-outside"),
        # QPSK on per-trial channels, the paper's curves.
        pytest.param("dpc-conventional", "diag-L", 4.0, 512, 4, id="qpsk-per-trial"),
    ],
)
def test_chunk_error_count_matches_a_bit_level_recount(
    monkeypatch, precoder, gain_mode, snr_db, trials, order
):
    # A chunk counts bit errors as popcount(tx label ^ decided label); the
    # recount unpacks both through hard_decisions, on the samples the chunk
    # decided, paired with the bits of its active users, and checks the
    # decisions against a search of every point.
    per_trial = order == 4
    cfg = SweepConfig(
        n_users=10,
        snr_grid_db=(snr_db,),
        trials_per_point=trials,
        constellation_order=order,
        channel_mode="per-trial-channel" if per_trial else "fixed-channel",
        precoder=precoder,
        gain_mode=gain_mode,
        seed=0,
    ).validate()
    c = make_constellation(order)
    fixed = None
    if not per_trial:
        fixed = sim._design(cfg, fixed_channel_for(cfg)[np.newaxis])
    decided = []
    decide = sim._decide
    monkeypatch.setattr(sim, "_decide", lambda y, c: decided.append(y) or decide(y, c))
    (part,) = sim._simulate_chunk(cfg, 0, trials, fixed)
    (y_hat,) = decided

    _, bits, _, _ = sim._chunk_draws(cfg, 0, trials, c, None if per_trial else fixed.hs)
    active = np.ones((trials, cfg.n_users), dtype=bool)
    if fixed is not None and fixed.gains is not None:
        active &= fixed.gains > 0
    tx_bits = bits.reshape(trials, cfg.n_users, c.bits_per_symbol)[active].ravel()
    rx_bits, margins = hard_decisions(y_hat, c)
    assert part["errors"] == np.count_nonzero(tx_bits != rx_bits) > 0
    assert part["bits"] == tx_bits.size
    assert part["min_margin"] == margins.min()
    d = np.abs(y_hat[:, np.newaxis] - c.points)
    full_labels = np.argmin(d**2, axis=1)
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    np.testing.assert_array_equal(rx_bits, ((full_labels[:, np.newaxis] >> shifts) & 1).ravel())
    d.sort(axis=1)
    np.testing.assert_array_equal(margins, (d[:, 1] - d[:, 0]) / 2)
    if gain_mode == "waterfill":
        assert not active.all()  # the case needs muted users
    if snr_db == 0.0:  # and samples outside the table's box
        table = c._table
        u = (y_hat - table.origin) / table.width
        n_re, n_im = table.shape
        out = np.count_nonzero((u.real < 0) | (u.real >= n_re) | (u.imag < 0) | (u.imag >= n_im))
        # enough for the edge lists in zf's chunk, too few in bd's
        edge_lists = modem._EDGE_MIN_SAMPLES
        assert out >= edge_lists if trials == 512 else 0 < out < edge_lists


# THP records at n = 10, 700 trials (one full chunk and one short one),
# seed 0, over 0, 10, 20 and inf dB: (bits_sent, bit_errors,
# measured_tx_power.hex(), min_decision_margin.hex()) per point. The
# points share their trials' transmit (philox-ss-v5), so each record's
# measured_tx_power is the same at every point.
THP_PINNED_RECORDS = {
    # Each trial's channel feeds back the chunk's one pilot batch, so
    # alpha is one number per trial.
    (4, "per-trial-channel"): [
        (14000, 1598, "0x1.3d2c23dd8ffa7p+3", "0x1.0c2536d782000p-15"),
        (14000, 167, "0x1.3d2c23dd8ffa7p+3", "0x1.4e918052b6480p-9"),
        (14000, 25, "0x1.3d2c23dd8ffa7p+3", "0x1.069c623218000p-8"),
        (14000, 0, "0x1.3d2c23dd8ffa7p+3", "0x1.6a09e667f3b1ap-1"),
    ],
    (16, "per-trial-channel"): [
        (28000, 5763, "0x1.3d82200fa707ep+3", "0x1.67d1a5f7f8000p-16"),
        (28000, 774, "0x1.3d82200fa707ep+3", "0x1.02d2e09bd8c00p-12"),
        (28000, 87, "0x1.3d82200fa707ep+3", "0x1.5a754d25c3900p-11"),
        (28000, 0, "0x1.3d82200fa707ep+3", "0x1.43d13624845edp-2"),
    ],
    # One channel and one pilot batch per chunk, so alpha is one number
    # per chunk of trials.
    (128, "fixed-channel"): [
        (49000, 17755, "0x1.3dc001494e125p+3", "0x1.d4c9b69b80000p-18"),
        (49000, 6707, "0x1.3dc001494e125p+3", "0x1.95ddb8ecd5000p-17"),
        (49000, 406, "0x1.3dc001494e125p+3", "0x1.d2b955dbd3a00p-14"),
        (49000, 0, "0x1.3dc001494e125p+3", "0x1.c453d90f05702p-4"),
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


# Records of every other sweep path, in the setup of THP_PINNED_RECORDS:
# zf, mmse and bd, and the DPC pair with diag-L and water-filled gains,
# each in both channel modes at QPSK and 128-QAM. Keyed by (precoder,
# gain_mode, constellation_order, channel_mode).
SWEEP_PINNED_RECORDS = {
    ("zf", "diag-L", 4, "per-trial-channel"): [
        (14000, 3352, "0x1.3b7213bbac7adp+3", "0x1.8fcf86875c000p-14"),
        (14000, 666, "0x1.3b7213bbac7adp+3", "0x1.bd3dbeca3e800p-12"),
        (14000, 83, "0x1.3b7213bbac7adp+3", "0x1.b51a79ff81800p-12"),
        (14000, 0, "0x1.3b7213bbac7adp+3", "0x1.6a09e667f3a48p-1"),
    ],
    ("zf", "diag-L", 4, "fixed-channel"): [
        (14000, 1740, "0x1.2f3716ded540ap+3", "0x1.47a25a22b8000p-17"),
        (14000, 2, "0x1.2f3716ded540ap+3", "0x1.3bbead82e6280p-8"),
        (14000, 0, "0x1.2f3716ded540ap+3", "0x1.d73eb1867daf8p-2"),
        (14000, 0, "0x1.2f3716ded540ap+3", "0x1.6a09e667f3bb4p-1"),
    ],
    ("zf", "diag-L", 128, "per-trial-channel"): [
        (49000, 21893, "0x1.449cec33a9b65p+3", "0x1.4f818bbfd0000p-17"),
        (49000, 15606, "0x1.449cec33a9b65p+3", "0x1.cc63464af2000p-16"),
        (49000, 5895, "0x1.449cec33a9b65p+3", "0x1.b419a3b62f000p-17"),
        (49000, 0, "0x1.449cec33a9b65p+3", "0x1.c453d90f0461bp-4"),
    ],
    ("zf", "diag-L", 128, "fixed-channel"): [
        (49000, 20152, "0x1.3e8dce750c57fp+3", "0x1.33112c2ce0000p-19"),
        (49000, 10948, "0x1.3e8dce750c57fp+3", "0x1.58ee794a1a000p-18"),
        (49000, 1260, "0x1.3e8dce750c57fp+3", "0x1.21f004fdb1000p-16"),
        (49000, 0, "0x1.3e8dce750c57fp+3", "0x1.c453d90f0569cp-4"),
    ],
    ("mmse", "diag-L", 4, "per-trial-channel"): [
        (14000, 1264, "0x1.40a8b0d2e6ecdp+3", "0x1.652bb7b468000p-15"),
        (14000, 197, "0x1.3da5abed586e0p+3", "0x1.baa1979808e00p-11"),
        (14000, 18, "0x1.3cf38f5386265p+3", "0x1.093c5afeab880p-9"),
        (14000, 0, "0x1.3b7213bbac7adp+3", "0x1.6a09e667f3a48p-1"),
    ],
    ("mmse", "diag-L", 4, "fixed-channel"): [
        (14000, 1180, "0x1.435ba27b72102p+3", "0x1.a52f3b87f1200p-11"),
        (14000, 64, "0x1.3e6100938eb0ap+3", "0x1.3a5a27436a000p-14"),
        (14000, 0, "0x1.325d46fd54a48p+3", "0x1.a155103848d0ap-2"),
        (14000, 0, "0x1.2f3716ded540ap+3", "0x1.6a09e667f3bb4p-1"),
    ],
    ("mmse", "diag-L", 128, "per-trial-channel"): [
        (49000, 19144, "0x1.4419157141448p+3", "0x1.839701a51a000p-18"),
        (49000, 14303, "0x1.403ca1de94ae9p+3", "0x1.638a21e372000p-18"),
        (49000, 7352, "0x1.436ce6f21bd3bp+3", "0x1.7a0509538f800p-16"),
        (49000, 0, "0x1.449cec33a9b65p+3", "0x1.c453d90f0461bp-4"),
    ],
    ("mmse", "diag-L", 128, "fixed-channel"): [
        (49000, 19362, "0x1.44267e70f0c09p+3", "0x1.00be55cec8000p-18"),
        (49000, 13568, "0x1.421396ebdd6b0p+3", "0x1.9bb407d200000p-21"),
        (49000, 3324, "0x1.3f557470eae8fp+3", "0x1.d25330cc54000p-19"),
        (49000, 0, "0x1.3e8dce750c57fp+3", "0x1.c453d90f0569cp-4"),
    ],
    ("bd", "diag-L", 4, "per-trial-channel"): [
        (14000, 3352, "0x1.3b7213bbac7adp+3", "0x1.8fcf86875c000p-14"),
        (14000, 666, "0x1.3b7213bbac7adp+3", "0x1.bd3dbeca3e800p-12"),
        (14000, 83, "0x1.3b7213bbac7adp+3", "0x1.b51a79ff81800p-12"),
        (14000, 0, "0x1.3b7213bbac7adp+3", "0x1.6a09e667f3a48p-1"),
    ],
    ("bd", "diag-L", 4, "fixed-channel"): [
        (14000, 1740, "0x1.2f3716ded540ap+3", "0x1.47a25a22b8000p-17"),
        (14000, 2, "0x1.2f3716ded540ap+3", "0x1.3bbead82e6280p-8"),
        (14000, 0, "0x1.2f3716ded540ap+3", "0x1.d73eb1867daf8p-2"),
        (14000, 0, "0x1.2f3716ded540ap+3", "0x1.6a09e667f3bb4p-1"),
    ],
    ("bd", "diag-L", 128, "per-trial-channel"): [
        (49000, 21893, "0x1.449cec33a9b65p+3", "0x1.4f818bbfd0000p-17"),
        (49000, 15606, "0x1.449cec33a9b65p+3", "0x1.cc63464af2000p-16"),
        (49000, 5895, "0x1.449cec33a9b65p+3", "0x1.b419a3b62f000p-17"),
        (49000, 0, "0x1.449cec33a9b65p+3", "0x1.c453d90f0461bp-4"),
    ],
    ("bd", "diag-L", 128, "fixed-channel"): [
        (49000, 20152, "0x1.3e8dce750c57fp+3", "0x1.33112c2ce0000p-19"),
        (49000, 10948, "0x1.3e8dce750c57fp+3", "0x1.58ee794a1a000p-18"),
        (49000, 1260, "0x1.3e8dce750c57fp+3", "0x1.21f004fdb1000p-16"),
        (49000, 0, "0x1.3e8dce750c57fp+3", "0x1.c453d90f0569cp-4"),
    ],
    ("dpc-conventional", "diag-L", 4, "per-trial-channel"): [
        (14000, 652, "0x1.1d9716b40aa35p+8", "0x1.8ac8ff28e7000p-14"),
        (14000, 82, "0x1.1d9716b40aa35p+8", "0x1.af145aef03600p-11"),
        (14000, 11, "0x1.1d9716b40aa35p+8", "0x1.6e52d044ef800p-9"),
        (14000, 0, "0x1.1d9716b40aa35p+8", "0x1.6a09e667f2339p-1"),
    ],
    ("dpc-conventional", "diag-L", 4, "fixed-channel"): [
        (14000, 437, "0x1.26530c9293cb8p+5", "0x1.8a68f11058800p-12"),
        (14000, 3, "0x1.26530c9293cb8p+5", "0x1.8f1ce6c570000p-15"),
        (14000, 0, "0x1.26530c9293cb8p+5", "0x1.ca97b1699266dp-2"),
        (14000, 0, "0x1.26530c9293cb8p+5", "0x1.6a09e667f3badp-1"),
    ],
    ("dpc-conventional", "diag-L", 128, "per-trial-channel"): [
        (49000, 16018, "0x1.028e628e2ee20p+9", "0x1.a297719f8c000p-19"),
        (49000, 6252, "0x1.028e628e2ee20p+9", "0x1.8569cbc47b000p-16"),
        (49000, 798, "0x1.028e628e2ee20p+9", "0x1.a8632abecd000p-16"),
        (49000, 0, "0x1.028e628e2ee20p+9", "0x1.c453d90ede377p-4"),
    ],
    ("dpc-conventional", "diag-L", 128, "fixed-channel"): [
        (49000, 15878, "0x1.367e823263852p+5", "0x1.28a6184e68000p-17"),
        (49000, 5703, "0x1.367e823263852p+5", "0x1.2a6d455800000p-27"),
        (49000, 311, "0x1.367e823263852p+5", "0x1.afc1686244000p-17"),
        (49000, 0, "0x1.367e823263852p+5", "0x1.c453d90f0567cp-4"),
    ],
    ("dpc-linear", "diag-L", 4, "per-trial-channel"): [
        (14000, 652, "0x1.1d9716b40aa52p+8", "0x1.8ac8ff28ec000p-14"),
        (14000, 82, "0x1.1d9716b40aa52p+8", "0x1.af145aef05c00p-11"),
        (14000, 11, "0x1.1d9716b40aa52p+8", "0x1.6e52d04518400p-9"),
        (14000, 0, "0x1.1d9716b40aa52p+8", "0x1.6a09e667f2c50p-1"),
    ],
    ("dpc-linear", "diag-L", 4, "fixed-channel"): [
        (14000, 437, "0x1.26530c9293cb8p+5", "0x1.8a68f11055c00p-12"),
        (14000, 3, "0x1.26530c9293cb8p+5", "0x1.8f1ce6c54c000p-15"),
        (14000, 0, "0x1.26530c9293cb8p+5", "0x1.ca97b1699266dp-2"),
        (14000, 0, "0x1.26530c9293cb8p+5", "0x1.6a09e667f3baep-1"),
    ],
    ("dpc-linear", "diag-L", 128, "per-trial-channel"): [
        (49000, 16018, "0x1.028e628e2ee7bp+9", "0x1.a297719e48000p-19"),
        (49000, 6252, "0x1.028e628e2ee7bp+9", "0x1.8569cbc518000p-16"),
        (49000, 798, "0x1.028e628e2ee7bp+9", "0x1.a8632abe0d000p-16"),
        (49000, 0, "0x1.028e628e2ee7bp+9", "0x1.c453d90ee1adep-4"),
    ],
    ("dpc-linear", "diag-L", 128, "fixed-channel"): [
        (49000, 15878, "0x1.367e823263852p+5", "0x1.28a6184e92000p-17"),
        (49000, 5703, "0x1.367e823263852p+5", "0x1.2a6d437000000p-27"),
        (49000, 311, "0x1.367e823263852p+5", "0x1.afc168637a000p-17"),
        (49000, 0, "0x1.367e823263852p+5", "0x1.c453d90f056aep-4"),
    ],
    ("dpc-conventional", "waterfill", 4, "per-trial-channel"): [
        (11692, 412, "0x1.a9477a08f84d0p+9", "0x1.b17cac4065000p-13"),
        (11692, 64, "0x1.a9477a08f84d0p+9", "0x1.2c368efc21a00p-9"),
        (11692, 8, "0x1.a9477a08f84d0p+9", "0x1.5b70f0946c4e8p-5"),
        (11692, 0, "0x1.a9477a08f84d0p+9", "0x1.6a09e667f34e7p-1"),
    ],
    ("dpc-conventional", "waterfill", 4, "fixed-channel"): [
        (11200, 164, "0x1.90dc50a16ffc8p+6", "0x1.0b2447127e800p-10"),
        (11200, 0, "0x1.90dc50a16ffc8p+6", "0x1.384fd12418674p-3"),
        (11200, 0, "0x1.90dc50a16ffc8p+6", "0x1.1020fadee5b40p-1"),
        (11200, 0, "0x1.90dc50a16ffc8p+6", "0x1.6a09e667f3b8fp-1"),
    ],
    ("dpc-conventional", "waterfill", 128, "per-trial-channel"): [
        (40922, 10312, "0x1.ac5775f71bc3dp+10", "0x1.6ccb98b268000p-18"),
        (40922, 3382, "0x1.ac5775f71bc3dp+10", "0x1.4788a80460000p-19"),
        (40922, 606, "0x1.ac5775f71bc3dp+10", "0x1.6e5568b771000p-16"),
        (40922, 0, "0x1.ac5775f71bc3dp+10", "0x1.c453d90effd90p-4"),
    ],
    ("dpc-conventional", "waterfill", 128, "fixed-channel"): [
        (39200, 9665, "0x1.a421306001ec4p+6", "0x1.891b750836000p-17"),
        (39200, 2545, "0x1.a421306001ec4p+6", "0x1.31ad2426ce000p-17"),
        (39200, 71, "0x1.a421306001ec4p+6", "0x1.119d61c238200p-14"),
        (39200, 0, "0x1.a421306001ec4p+6", "0x1.c453d90f0553ap-4"),
    ],
    ("dpc-linear", "waterfill", 4, "per-trial-channel"): [
        (11692, 412, "0x1.a9477a08f84fap+9", "0x1.b17cac4060000p-13"),
        (11692, 64, "0x1.a9477a08f84fap+9", "0x1.2c368efc1fd00p-9"),
        (11692, 8, "0x1.a9477a08f84fap+9", "0x1.5b70f0946c488p-5"),
        (11692, 0, "0x1.a9477a08f84fap+9", "0x1.6a09e667f38b1p-1"),
    ],
    ("dpc-linear", "waterfill", 4, "fixed-channel"): [
        (11200, 164, "0x1.90dc50a16ffc7p+6", "0x1.0b2447127ec00p-10"),
        (11200, 0, "0x1.90dc50a16ffc7p+6", "0x1.384fd12418674p-3"),
        (11200, 0, "0x1.90dc50a16ffc7p+6", "0x1.1020fadee5b3fp-1"),
        (11200, 0, "0x1.90dc50a16ffc7p+6", "0x1.6a09e667f3b98p-1"),
    ],
    ("dpc-linear", "waterfill", 128, "per-trial-channel"): [
        (40922, 10312, "0x1.ac5775f71bccbp+10", "0x1.6ccb98aef8000p-18"),
        (40922, 3382, "0x1.ac5775f71bccbp+10", "0x1.4788a807f0000p-19"),
        (40922, 606, "0x1.ac5775f71bccbp+10", "0x1.6e5568b7fd800p-16"),
        (40922, 0, "0x1.ac5775f71bccbp+10", "0x1.c453d90f0172dp-4"),
    ],
    ("dpc-linear", "waterfill", 128, "fixed-channel"): [
        (39200, 9665, "0x1.a421306001ec3p+6", "0x1.891b750838000p-17"),
        (39200, 2545, "0x1.a421306001ec3p+6", "0x1.31ad24268d000p-17"),
        (39200, 71, "0x1.a421306001ec3p+6", "0x1.119d61c23e800p-14"),
        (39200, 0, "0x1.a421306001ec3p+6", "0x1.c453d90f05599p-4"),
    ],
}


@pytest.mark.parametrize("precoder, gain_mode, order, channel_mode", list(SWEEP_PINNED_RECORDS))
def test_sweep_records_are_pinned(precoder, gain_mode, order, channel_mode):
    cfg = SweepConfig(
        n_users=10,
        snr_grid_db=(0.0, 10.0, 20.0, math.inf),
        trials_per_point=700,
        constellation_order=order,
        channel_mode=channel_mode,
        precoder=precoder,
        gain_mode=gain_mode,
        seed=0,
    )
    got = [
        (r.bits_sent, r.bit_errors, r.measured_tx_power.hex(), r.min_decision_margin.hex())
        for r in run_ber_sweep(cfg)
    ]
    assert got == SWEEP_PINNED_RECORDS[(precoder, gain_mode, order, channel_mode)]


@pytest.mark.parametrize("gain_mode", sim.GAIN_MODES)
@pytest.mark.parametrize("order", [4, 128])
def test_dpc_pair_gives_equal_bit_errors_at_every_point(order, gain_mode):
    # Theorem 1 at the sweep level: on the same draws the linear and the
    # successive DPC send the same signal up to rounding, so every decision,
    # not only the interval, agrees.
    base = dict(
        n_users=10,
        snr_grid_db=(0.0, 10.0, 20.0, 30.0, math.inf),
        trials_per_point=1100,
        constellation_order=order,
        channel_mode="per-trial-channel",
        gain_mode=gain_mode,
        seed=0,
    )
    conv = run_ber_sweep(SweepConfig(precoder="dpc-conventional", **base))
    lin = run_ber_sweep(SweepConfig(precoder="dpc-linear", **base))
    assert [(r.bits_sent, r.bit_errors) for r in lin] == [(r.bits_sent, r.bit_errors) for r in conv]


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
    assert "# rng_scheme=philox-ss-v5" in provenance
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
    assert payload["rng_scheme"] == "philox-ss-v5"
    sweep = payload["sweeps"][0]
    assert sweep["config"]["n_users"] == 4
    assert sweep["config"]["snr_grid_db"] == [0.0, "inf"]
    assert sweep["config_hash"] == config_hash(cfg)
    assert sweep["csv"] == sweep_csv_name(cfg)
    assert len(sweep["records"]) == 2
    assert sweep["records"][1]["snr_db"] == "inf"


def test_manifest_refuses_a_non_finite_value(tmp_path):
    cfg = small_cfg()
    record = BerRecord(0.0, 8, 0, 0.0, 0.0, 0.3, math.inf, 0.5)
    with pytest.raises(ValueError, match="JSON compliant"):
        write_manifest([(cfg, [record])], tmp_path / "manifest.json")


def test_csv_name():
    assert sweep_csv_name(small_cfg()) == "ber_dpc-linear_qpsk.csv"
    assert (
        sweep_csv_name(small_cfg(precoder="zf", constellation_order=64))
        == "ber_zf_64-qam.csv"
    )
