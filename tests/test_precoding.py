"""Tests for the DPC implementations, gain design, and baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpc_perm.channel import ChannelSpec, generate_channel
from dpc_perm.exceptions import DegenerateGain, InfeasibleBlocking, NumericallySingular
from dpc_perm.linalg import EPS_SING, lq_decompose, svd_decompose
from dpc_perm.modem import make_constellation
from dpc_perm.precoding import (
    bd_precode,
    dpc_conventional,
    dpc_linear,
    mmse_precode,
    modulo_lattice,
    power_scale,
    successive_encode,
    successive_feedback,
    thp_modulo_base,
    thp_precode,
    waterfill,
    waterfill_powers,
    zf_precode,
)


QPSK_BASE = thp_modulo_base(make_constellation(4).points)


def random_channel(seed, n):
    return generate_channel(ChannelSpec(n_users=n, seed=seed))


def qpsk(rng, n):
    return (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Conventional DPC
# ---------------------------------------------------------------------------


def test_dpc_conventional_identity_channel():
    s = np.array([1 + 1j, -1 + 1j, 0.5 - 0.5j])
    np.testing.assert_allclose(dpc_conventional(np.eye(3), s), s, atol=1e-15)


def test_dpc_conventional_hand_example():
    # l21/l22 = 1: the second feedback term cancels the first symbol.
    h = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    s = np.array([1.0, 1.0], dtype=complex)
    x = dpc_conventional(h, s)
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-14)
    dl = lq_decompose(h).diag
    np.testing.assert_allclose(h @ x, dl * s, atol=1e-14)


def test_dpc_conventional_interference_free_receive():
    rng = np.random.default_rng(1)
    h = random_channel(42, 6)
    s = qpsk(rng, 6)
    x = dpc_conventional(h, s)
    dl = lq_decompose(h).diag
    assert np.linalg.norm(h @ x - dl * s) <= 1e-10


def test_dpc_conventional_singular_propagates():
    h = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(NumericallySingular):
        dpc_conventional(h, np.array([1.0, 1.0]))


def matrix_route_encode(factors, gains, s):
    """The encode as a matrix, ``q^H solve(l, diag(k)) s``: one LU solve with
    n right-hand sides per channel, which ``successive_encode`` replaces."""
    l = factors.l
    idx = np.arange(l.shape[-1])
    rhs = np.zeros(l.shape, dtype=np.complex128)
    rhs[:, idx, idx] = gains
    w = factors.q.conj().transpose(0, 2, 1) @ np.linalg.solve(l, rhs)
    w = np.repeat(w, s.shape[0] // w.shape[0], axis=0)  # channel c: rows c*m/k to (c+1)*m/k
    return (w @ s[:, :, np.newaxis])[:, :, 0]


def assert_close_relative(got, want, rtol):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize(
    "channels, m, n, muted",
    [
        pytest.param(9, 9, 6, False, id="stack"),
        pytest.param(1, 9, 6, False, id="shared-channel"),
        pytest.param(9, 9, 6, True, id="stack-muted"),
        pytest.param(1, 9, 6, True, id="shared-channel-muted"),
        pytest.param(4, 4, 1, False, id="n-1"),
        pytest.param(1, 4, 1, False, id="n-1-shared-channel"),
        pytest.param(1, 1, 5, False, id="one-channel"),
        pytest.param(3, 12, 5, True, id="channels-3-draws-4"),
    ],
)
def test_successive_encode_matches_the_matrix_route(channels, m, n, muted):
    rng = np.random.default_rng(31 + channels + n)
    h = rng.standard_normal((channels, n, n)) + 1j * rng.standard_normal((channels, n, n))
    s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    factors = lq_decompose(h)
    gains = rng.uniform(0.5, 2.0, size=(channels, n))
    if muted:
        gains[:, ::2] = 0.0
    x = successive_encode(factors, gains, s)
    assert_close_relative(x, matrix_route_encode(factors, gains, s), 1e-12)
    shared_gains = gains[0]
    x = successive_encode(factors, shared_gains, s)
    assert_close_relative(x, matrix_route_encode(factors, shared_gains, s), 1e-12)


def test_successive_encode_shared_layout_matches_the_per_trial_layout():
    # One channel (1, n, n) with m draws against the same channel repeated
    # as a stack (m, n, n): two buffer layouts of one recursion.
    rng = np.random.default_rng(37)
    h = rng.standard_normal((1, 7, 7)) + 1j * rng.standard_normal((1, 7, 7))
    s = rng.standard_normal((50, 7)) + 1j * rng.standard_normal((50, 7))
    gains = rng.uniform(0.0, 2.0, size=7)
    shared = successive_encode(lq_decompose(h), gains, s)
    per_trial = successive_encode(lq_decompose(np.repeat(h, 50, axis=0)), gains, s)
    assert_close_relative(shared, per_trial, 1e-12)


@pytest.mark.parametrize("base", [None, QPSK_BASE], ids=["dpc", "thp"])
def test_successive_encode_blocks_of_draws_equal_per_channel_calls(base):
    # k channels with m/k draws each, (k, n, m/k), against one call per
    # channel, (1, n, m/k): channel c encodes symbol rows [c*m/k, (c+1)*m/k).
    rng = np.random.default_rng(39)
    h = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    s = 3.0 * (rng.standard_normal((24, 5)) + 1j * rng.standard_normal((24, 5)))
    gains = rng.uniform(0.5, 2.0, size=(4, 5))
    x = successive_encode(lq_decompose(h), gains, s, base)
    for c in range(4):
        rows = slice(6 * c, 6 * c + 6)
        want = successive_encode(lq_decompose(h[c : c + 1]), gains[c], s[rows], base)
        np.testing.assert_array_equal(x[rows], want)


def test_successive_encode_leaves_its_symbols_unchanged():
    rng = np.random.default_rng(38)
    h = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    s = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    s0 = s.copy()
    for factors in (lq_decompose(h), lq_decompose(h[:1])):
        successive_encode(factors, np.ones(4), s)
        assert np.array_equal(s, s0)


# ---------------------------------------------------------------------------
# Linear DPC
# ---------------------------------------------------------------------------


def test_dpc_linear_identity():
    w = dpc_linear(np.eye(3), np.ones(3))
    np.testing.assert_allclose(w, np.eye(3), atol=1e-14)


def test_dpc_linear_unitary_channel():
    # For unitary h with unit gains, sigma = I and w collapses to h^H.
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    w = dpc_linear(q, np.ones(4))
    np.testing.assert_allclose(w, q.conj().T, atol=1e-12)


def test_theorem1_equivalence_oracle():
    # 100 random symbol vectors through both implementations.
    h = random_channel(8, 8)
    dl = lq_decompose(h).diag
    w = dpc_linear(h, dl)
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = qpsk(rng, 8)
        x_conv = dpc_conventional(h, s)
        assert np.linalg.norm(x_conv - w @ s) <= 1e-8 * np.linalg.norm(s)


def test_dpc_linear_effective_channel_is_diagonal():
    h = random_channel(12, 5)
    k = np.array([0.3, 1.2, 0.8, 2.0, 1.5])
    w = dpc_linear(h, k)
    err = np.linalg.norm(h @ w - np.diag(k))
    assert err <= 1e-8 * np.linalg.norm(np.diag(k))


def test_dpc_linear_zero_gain_mutes_user_exactly():
    h = random_channel(13, 4)
    k = np.array([1.0, 0.0, 2.0, 0.5])
    w = dpc_linear(h, k)
    assert np.all(w[:, 1] == 0.0)


def test_dpc_linear_singular_raises():
    h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(NumericallySingular):
        dpc_linear(h, np.ones(2))


# ---------------------------------------------------------------------------
# Water-filling
# ---------------------------------------------------------------------------


def test_waterfill_symmetric():
    k = waterfill(np.array([1.0, 1.0]), 2.0)
    np.testing.assert_allclose(k, [1.0, 1.0], atol=1e-14)


def test_waterfill_inactive_channel():
    # lambda = (4, 1), P = 0.5: mu = 0.75 on the single-active set and
    # mu - 1/lambda_2 < 0, so channel 2 gets nothing.
    sigma = np.array([2.0, 1.0])
    p, mu = waterfill_powers(sigma, 0.5)
    np.testing.assert_allclose(p, [0.5, 0.0], atol=1e-14)
    assert mu == pytest.approx(0.75)
    k = waterfill(sigma, 0.5)
    np.testing.assert_allclose(k, [np.sqrt(2.0), 0.0], atol=1e-14)


def test_waterfill_two_active():
    # lambda = (2, 1), P = 3: 2 mu - (1/2 + 1) = 3 gives mu = 2.25.
    sigma = np.array([np.sqrt(2.0), 1.0])
    p, mu = waterfill_powers(sigma, 3.0)
    assert mu == pytest.approx(2.25)
    np.testing.assert_allclose(p, [1.75, 1.25])
    k = waterfill(sigma, 3.0)
    np.testing.assert_allclose(k, [np.sqrt(3.5), np.sqrt(1.25)])


def waterfill_reference(sigma, budget):
    """One row water-filled the textbook way: the candidate sets from all
    channels down, each level summed over its set, ending at ``a = 1`` when
    none passes; returns (p, mu)."""
    inv = 1.0 / sigma**2
    for a in range(sigma.size, 0, -1):
        mu = (budget + inv[:a].sum()) / a
        if mu > inv[a - 1]:
            break
    p = np.zeros(sigma.size)
    p[:a] = mu - inv[:a]
    return p, mu


def waterfill_stack_by_rows(sigma, budget):
    """``waterfill_powers`` and ``waterfill`` of a stack, checked bit for bit
    against the calls on each of its rows and against the textbook loop;
    returns (p, mu, k)."""
    p, mu = waterfill_powers(sigma, budget)
    k = waterfill(sigma, budget)
    assert p.shape == k.shape == sigma.shape and mu.shape == sigma.shape[:1]
    for i, row in enumerate(sigma):
        p_row, mu_row = waterfill_powers(row, budget)
        assert np.array_equal(p[i], p_row) and np.array_equal(mu[i], mu_row)
        assert np.array_equal(k[i], waterfill(row, budget))
        p_ref, mu_ref = waterfill_reference(row, budget)
        assert np.array_equal(p_row, p_ref) and mu_row == mu_ref
    return p, mu, k


@pytest.mark.parametrize(
    "seed,n,budget",
    [(0, 4, 1.0), (1, 8, 0.25), (2, 6, 50.0), (3, 1, 2.0), (4, 9, 0.5), (5, 129, 40.0)],
)
def test_waterfill_budget_identities(seed, n, budget):
    # A stack: four random channels, the first again with its weakest
    # eigenchannel faded (muted unless n = 1), equal singular values (every
    # user active), and spread rows whose level sums round differently
    # when summed in another order. numpy's pairwise sums change blocks
    # past 8 and 128 terms, so n = 9 and 129 check the stacked sums too.
    channels = np.stack([random_channel(seed + 100 * i, n) for i in range(4)])
    sigma = np.linalg.svd(channels, compute_uv=False)
    faded = sigma[0].copy()
    faded[-1] *= 1e-3
    spread = -np.sort(-np.random.default_rng(seed).uniform(0.5, 2.0, (16, n)))
    stack = np.vstack([faded, np.full(n, sigma[0, 0]), sigma, spread])
    p_stack, mu_stack, k_stack = waterfill_stack_by_rows(stack, budget)
    if n > 1:
        assert p_stack[0, -1] == 0.0
    assert np.all(p_stack[1] > 0)
    for sigma, p, mu, k in zip(stack, p_stack, mu_stack, k_stack):
        assert abs(p.sum() - budget) <= 1e-12 * budget
        assert np.all(p >= 0)
        np.testing.assert_allclose(k, np.sqrt(p) * sigma, atol=1e-14)
        # eigen-domain power accounting is exact
        assert abs(np.sum(k**2 / sigma**2) - budget) <= 1e-12 * budget
        # active channels sit at the water level, inactive ones above it
        active = p > 0
        np.testing.assert_allclose(p[active] + 1.0 / sigma[active] ** 2, mu)
        assert np.all(1.0 / sigma[~active] ** 2 >= mu)


@pytest.mark.parametrize("n", [1, 9, 129])
def test_waterfill_keeps_the_strongest_channel_when_the_budget_rounds_away(n):
    # 1e-300 vanishes next to every 1/lambda, so no candidate set passes
    # mu > 1/lambda: the rule keeps the one-channel set and its level mu_1,
    # which is 1/lambda[0], and every power is zero.
    sigma = np.linalg.svd(random_channel(n, n), compute_uv=False)
    stack = np.stack([sigma, np.full(n, 0.5)])
    p, mu, k = waterfill_stack_by_rows(stack, 1e-300)
    assert np.array_equal(mu, 1.0 / stack[:, 0] ** 2)
    assert not np.any(p) and not np.any(k)


def test_waterfill_input_validation():
    with pytest.raises(ValueError):
        waterfill(np.array([1.0, 2.0]), 1.0)  # ascending
    with pytest.raises(ValueError):
        waterfill(np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        waterfill(np.array([1.0]), 0.0)
    for sigma, budget in [([np.nan, 1.0], 1.0), ([np.inf, 1.0], 1.0), ([2.0, 1.0], np.inf)]:
        with pytest.raises(ValueError, match="finite"):
            waterfill(np.array(sigma), budget)
    # sigma**2 would overflow (lambda = inf), or underflow (1/lambda = inf).
    for sigma in ([1e200, 1e199], [1.0, 1e-200]):
        with pytest.raises(ValueError, match="finite and positive"):
            waterfill(np.array(sigma), 1.0)
    # One bad row fails the whole stack.
    for bad in ([1.0, 2.0], [1.0, 0.0]):
        with pytest.raises(ValueError):
            waterfill(np.array([[2.0, 1.0], bad, [3.0, 3.0]]), 1.0)
    with pytest.raises(ValueError, match="shape"):
        waterfill(np.ones((2, 2, 2)), 1.0)


# ---------------------------------------------------------------------------
# Power scaling, ZF / MMSE
# ---------------------------------------------------------------------------


def to_power(w, power):
    """``w``, or each matrix of a stack, scaled to ``tr(w w^H) = power``."""
    return w * power_scale(w, power)[..., np.newaxis, np.newaxis]


def test_power_scale_sets_the_trace_of_each_slice():
    ws = np.stack([random_channel(25 + t, 4) for t in range(5)])
    ws[2] *= 1e-3
    alpha = power_scale(ws, 3.0)
    assert alpha.shape == (5,)
    for w in to_power(ws, 3.0):
        assert np.trace(w @ w.conj().T).real == pytest.approx(3.0, rel=1e-12)


def test_power_scale_rejects_zero_precoder_and_bad_power():
    with pytest.raises(DegenerateGain):
        power_scale(np.zeros((3, 3)), 1.0)
    with pytest.raises(DegenerateGain):
        power_scale(np.stack([np.eye(3), np.zeros((3, 3))]), 1.0)
    for power in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            power_scale(np.eye(3), power)


def test_power_scale_refuses_a_factor_that_would_overflow():
    # tr(w w^H) = 2e-320 (subnormal): 4 / 2e-320 is beyond the float range.
    # The check runs before the division, so no overflow is ever raised.
    with np.errstate(over="raise", divide="raise"):
        with pytest.raises(DegenerateGain, match="too small"):
            power_scale(np.stack([np.eye(2), 1e-160 * np.eye(2)]), 4.0)
        alpha = power_scale(1e-150 * np.eye(2), 4.0)
    assert alpha == pytest.approx(np.sqrt(2.0) * 1e150, rel=1e-12)


def test_zf_identity_and_scaling():
    np.testing.assert_allclose(zf_precode(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(zf_precode(2.0 * np.eye(3)), 0.5 * np.eye(3), atol=1e-14)


def test_zf_normalized_is_scaled_identity():
    h = random_channel(21, 4)
    w = to_power(zf_precode(h), 4.0)
    assert np.sum(np.abs(w) ** 2) == pytest.approx(4.0, rel=1e-12)
    hw = h @ w
    c = np.mean(np.diag(hw)).real
    assert np.linalg.norm(hw - c * np.eye(4)) <= 1e-9


def test_mmse_reduces_to_zf_direction():
    np.testing.assert_allclose(
        mmse_precode(np.eye(2), 1e-12), np.eye(2) / (1 + 2e-12), atol=1e-9
    )
    h = random_channel(22, 5)
    w_mmse = to_power(mmse_precode(h, 1e-9), 5.0)
    w_zf = to_power(zf_precode(h), 5.0)
    assert np.linalg.norm(w_mmse - w_zf) <= 1e-4


def test_mmse_scalar_formula():
    # n = 1, h = 1, noise 1: w = 1 / (1 + 1) = 1/2.
    w = mmse_precode(np.eye(1), 1.0)
    np.testing.assert_allclose(w, [[0.5]], atol=1e-15)


def test_mmse_finite_for_singular_channel():
    h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    w = mmse_precode(h, 0.1)
    assert np.all(np.isfinite(w))


# ---------------------------------------------------------------------------
# THP
# ---------------------------------------------------------------------------


def test_modulo_identity_in_region():
    z = np.array([0.3 - 0.9j, -1.0 + 0.0j])
    np.testing.assert_array_equal(modulo_lattice(z, 1.0), z)


def test_modulo_wraps():
    np.testing.assert_allclose(modulo_lattice(np.array([1.5 + 0.0j]), 1.0), [-0.5 + 0.0j])


def test_modulo_equals_per_part_wrap():
    # Reference: the real and imaginary parts wrapped in separate passes.
    # The arithmetic per part is the same, so only the sign of a zero may
    # differ, which == ignores.
    rng = np.random.default_rng(5)
    z = 4.0 * (rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7)))
    z[0, :3] = [0.0, -0.0 + 2.5j, 1.0 - 1.0j]
    base = 0.9
    for arg in (z, z[:, ::2], z.T, z[2, 3]):
        span = 2.0 * base
        re = np.real(arg) - span * np.floor((np.real(arg) + base) / span)
        im = np.imag(arg) - span * np.floor((np.imag(arg) + base) / span)
        out = modulo_lattice(arg, base)
        assert out.shape == np.shape(arg)
        assert np.all(out == re + 1j * im)


@pytest.mark.parametrize("base", [0.5, np.sqrt(2.0), 0.7, 1.3])
def test_modulo_stays_in_region_next_to_wrap_boundaries(base):
    # +-20 ulps around 100 wrap boundaries k * 2 * base - base, where
    # r - span * floor((r + base) / span) can round onto or past +-base.
    r = np.arange(-50, 50) * 2.0 * base - base
    up, down = [r], [r]
    for _ in range(20):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    r = np.concatenate(up + down)
    out = modulo_lattice(r + 1j * r[::-1], base)
    for part in (out.real, out.imag):
        assert np.all((part >= -base) & (part < base))


def thp_receive(y, gains, modulo_base):
    """Receiver side of THP: per-user gain compensation, then the modulo."""
    return modulo_lattice(np.asarray(y, dtype=np.complex128) / gains, modulo_base)


def feedback_reference(l, s, base):
    """Plain per-vector scalar recursion over a user-major ``s`` ``(m, n, draws)``:

    x~[i] = mod(s[i] - sum_{j<i} l[i, j] * x~[j] / l[i, i])

    with no ``mod`` when ``base`` is None.
    """
    m, n, draws = s.shape
    l = np.broadcast_to(l, (m, n, n))
    xt = np.zeros(s.shape, dtype=np.complex128)
    for t in range(m):
        for d in range(draws):
            for i in range(n):
                acc = sum(l[t, i, j] * xt[t, j, d] for j in range(i))
                row = s[t, i, d] - acc / l[t, i, i]
                xt[t, i, d] = row if base is None else modulo_lattice(row, base)
    return xt


def random_lq_stack(rng, m, n):
    """Lower LQ factors of ``m`` random channels, ``(m, n, n)``."""
    h = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return lq_decompose(h).l


@pytest.mark.parametrize(
    "m, n, draws, shared",
    [
        pytest.param(4, 6, 7, False, id="stack"),
        pytest.param(3, 5, 7, True, id="shared-factor"),
        pytest.param(4, 6, 1, False, id="draws-1"),
        pytest.param(2, 5, 129, False, id="draws-129"),
        pytest.param(3, 5, 129, True, id="shared-factor-draws-129"),
        pytest.param(5, 1, 3, False, id="n-1"),
    ],
)
def test_thp_feedback_matches_scalar_recursion(m, n, draws, shared):
    rng = np.random.default_rng(100 + 7 * n + draws)
    l = random_lq_stack(rng, 1 if shared else m, n)
    s = 3.0 * (rng.standard_normal((m, n, draws)) + 1j * rng.standard_normal((m, n, draws)))
    got = successive_feedback(l, s.copy(), QPSK_BASE)
    assert got.shape == (m, n, draws)
    np.testing.assert_allclose(got, feedback_reference(l, s, QPSK_BASE), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "m, n, draws, shared",
    [
        pytest.param(4, 6, 1, False, id="stack"),
        pytest.param(1, 6, 40, True, id="shared-factor"),
        pytest.param(5, 1, 3, False, id="n-1"),
    ],
)
def test_successive_feedback_without_modulo_matches_scalar_recursion(m, n, draws, shared):
    rng = np.random.default_rng(300 + 7 * n + draws)
    l = random_lq_stack(rng, 1 if shared else m, n)
    s = 3.0 * (rng.standard_normal((m, n, draws)) + 1j * rng.standard_normal((m, n, draws)))
    got = successive_feedback(l, s.copy())
    np.testing.assert_allclose(got, feedback_reference(l, s, None), rtol=1e-12, atol=1e-12)


def test_thp_feedback_divides_by_a_complex_diagonal():
    # Any lower-triangular factor, not only the LQ one with a real diagonal.
    rng = np.random.default_rng(11)
    l = np.tril(rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
    l[:, np.arange(4), np.arange(4)] += 2.0 + 1.0j
    s = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    np.testing.assert_allclose(
        successive_feedback(l, s.copy(), 1.0), feedback_reference(l, s, 1.0), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize(
    "m, n, draws, shared",
    [
        pytest.param(4, 6, 1, False, id="stack-draws-1"),
        pytest.param(3, 5, 129, False, id="stack-draws-129"),
        pytest.param(4, 6, 1, True, id="shared-factor-draws-1"),
        pytest.param(3, 5, 129, True, id="shared-factor-draws-129"),
        pytest.param(5, 1, 129, False, id="n-1"),
    ],
)
def test_thp_feedback_in_place_equals_a_fresh_output(m, n, draws, shared):
    rng = np.random.default_rng(200 + 7 * n + draws)
    l = random_lq_stack(rng, 1 if shared else m, n)
    s0 = 3.0 * (rng.standard_normal((m, n, draws)) + 1j * rng.standard_normal((m, n, draws)))
    s = s0.copy()
    got = successive_feedback(l, s, QPSK_BASE)
    assert got is s
    np.testing.assert_allclose(got, feedback_reference(l, s0, QPSK_BASE), rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 3),
    n=st.integers(1, 6),
    draws=st.integers(1, 9),
    base=st.floats(0.05, 20.0),
    scale=st.floats(0.0, 1e3),
)
def test_thp_feedback_output_lies_in_the_modulo_region(seed, m, n, draws, base, scale):
    rng = np.random.default_rng(seed)
    l = random_lq_stack(rng, m, n)
    s = scale * (rng.standard_normal((m, n, draws)) + 1j * rng.standard_normal((m, n, draws)))
    parts = successive_feedback(l, s, base).view(np.float64)
    assert np.all((parts >= -base) & (parts < base))


def test_thp_identity_channel_no_wrap():
    s = np.array([0.5 + 0.5j, -0.5 - 0.5j])
    np.testing.assert_allclose(thp_precode(np.eye(2), s, modulo_base=1.0), s, atol=1e-14)


@pytest.mark.parametrize("stacked", [True, False], ids=["stack", "one-channel"])
def test_thp_precode_leaves_its_symbols_unchanged(stacked):
    # complex128 symbols of the right shape, which np.asarray passes through.
    rng = np.random.default_rng(9)
    shape = (3, 4) if stacked else (4,)
    h = rng.standard_normal(shape + (4,)) + 1j * rng.standard_normal(shape + (4,))
    s = 3.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    s0 = s.copy()
    thp_precode(h, s, QPSK_BASE)
    assert np.array_equal(s, s0)


def einsum_route_thp(factors, s, base):
    """THP as it was written before it encoded through ``successive_encode``:
    the feedback on a copy of the symbols, then ``q^H x~`` as an einsum."""
    xt = successive_feedback(factors.l, s[:, :, np.newaxis].copy(), base)[:, :, 0]
    return np.einsum("mji,mj->mi", factors.q.conj(), xt)


@pytest.mark.parametrize("stacked", [True, False], ids=["stack", "one-channel"])
def test_thp_precode_is_the_successive_encode_with_a_modulo(stacked):
    rng = np.random.default_rng(10)
    h = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    s = 3.0 * (rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6)))
    factors = lq_decompose(h)
    if stacked:
        x = thp_precode(h, s, QPSK_BASE)
    else:
        x = np.stack([thp_precode(h[t], s[t], QPSK_BASE) for t in range(5)])
    np.testing.assert_array_equal(x, successive_encode(factors, factors.diag, s, QPSK_BASE))
    assert_close_relative(x, einsum_route_thp(factors, s, QPSK_BASE), 1e-15)


def test_thp_wrap_and_recovery():
    # Large feedback forces a wrap; the receiver-side modulo undoes it.
    h = np.array([[1.0, 0.0], [5.0, 1.0]], dtype=complex)
    s = np.array([0.9 + 0.0j, 0.8 + 0.0j])
    base = 1.0
    x = thp_precode(h, s, base)
    dl = lq_decompose(h).diag
    xt = lq_decompose(h).q @ x  # undo the unitary rotation
    assert np.all(np.abs(xt.real) <= base) and np.all(np.abs(xt.imag) <= base)
    # a wrap actually happened: plain DPC would exceed the region
    plain = dpc_conventional(h, s)
    assert np.max(np.abs((lq_decompose(h).q @ plain).real)) > base
    recovered = thp_receive(h @ x, dl, base)
    np.testing.assert_allclose(recovered, s, atol=1e-12)


def test_thp_receive_equivalence_random_trials():
    rng = np.random.default_rng(5)
    base = 1.0
    for trial in range(100):
        n = 2 + trial % 5
        h = random_channel(200 + trial, n)
        s = (rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)) * base
        x = thp_precode(h, s, base)
        dl = lq_decompose(h).diag
        recovered = thp_receive(h @ x, dl, base)
        assert np.linalg.norm(recovered - s) <= 1e-10


def test_thp_modulo_base_for_qpsk():
    pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    # outermost real reach 1/sqrt(2) plus half the minimum distance
    assert thp_modulo_base(pts) == pytest.approx(2.0 / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# Block diagonalization
# ---------------------------------------------------------------------------


def test_bd_singletons_equals_zf_up_to_scaling():
    h = random_channel(31, 4)
    w_bd = bd_precode(h)
    w_zf = zf_precode(h)
    # both invert the channel: h @ w is diagonal for each, and the
    # columns differ only by per-user scalars
    np.testing.assert_allclose(h @ w_bd, np.eye(4), atol=1e-9)
    ratios = np.array([w_bd[:, j] @ np.conj(w_zf[:, j]) / np.vdot(w_zf[:, j], w_zf[:, j]) for j in range(4)])
    for j in range(4):
        np.testing.assert_allclose(w_bd[:, j], ratios[j] * w_zf[:, j], atol=1e-9)


def test_bd_infeasible_blocking():
    # Identical rows: the null space of user 1's row contains user 0's
    # row direction, so the projected channel for user 0 is zero (and
    # the channel has no inverse).
    h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(InfeasibleBlocking, match="channel is singular"):
        bd_precode(h)


def test_bd_nearly_singular_projection_is_infeasible():
    # Invertible, but the projected channel of each user is about 1e-14
    # against rows of norm 1.4: the feasibility check, not the inverse,
    # rejects it, as the null-space construction does.
    h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]], dtype=complex)
    assert np.all(np.isfinite(np.linalg.inv(h)))
    with pytest.raises(InfeasibleBlocking, match="user 0"):
        bd_precode(h)
    with pytest.raises(InfeasibleBlocking):
        bd_null_space_oracle(h, [[0], [1]])


def test_bd_group_check_uses_the_whole_group():
    # Badly scaled but well-separated users: each user's projected
    # channel is a nonzero scalar, so BD's per-user rule accepts the
    # channel that ZF's whole-channel condition bound (1e13) rejects.
    h = np.diag([1e6, 1e-7]).astype(complex)
    np.testing.assert_allclose(bd_precode(h), np.diag([1e-6, 1e7]))
    np.testing.assert_allclose(bd_null_space_oracle(h, [[0], [1]]), np.diag([1e-6, 1e7]))
    with pytest.raises(NumericallySingular):
        zf_precode(h)


def bd_null_space_oracle(h, groups):
    """Block diagonalization built group by group from null spaces.

    Each group's columns are an orthonormal basis of the null space of
    the other groups' rows times the inverse of the projected in-group
    channel. The library's BD is the partition into singletons, which it
    computes as one channel inverse.
    """
    n = h.shape[0]
    w = np.zeros((n, n), dtype=np.complex128)
    for group in groups:
        g = np.asarray(group)
        comp = np.setdiff1d(np.arange(n), g)
        if comp.size == 0:
            basis = np.eye(n, dtype=np.complex128)
        else:
            _, sv, vh = np.linalg.svd(h[comp, :])
            rank = int(np.sum(sv > EPS_SING * max(sv[0], 1.0)))
            basis = vh[rank:, :].conj().T
        if basis.shape[1] < g.size:
            raise InfeasibleBlocking(f"group {g.tolist()} has no null space left")
        basis = basis[:, : g.size]
        eff = h[g, :] @ basis
        sv_eff = np.linalg.svd(eff, compute_uv=False)
        if sv_eff[-1] <= EPS_SING * max(sv_eff[0], 1.0):
            raise InfeasibleBlocking(f"projected channel for group {g.tolist()} is singular")
        w[:, g] = basis @ np.linalg.inv(eff)
    return w


# The oracle's partition: one block per single-antenna user.
@pytest.mark.parametrize("groups", [[[0], [1], [2], [3], [4]]])
@pytest.mark.parametrize("power", [None, 2.5])
def test_bd_stack_matches_slices_and_null_space_oracle(groups, power):
    hs = np.stack([random_channel(40 + t, 5) for t in range(6)])

    def bd(h):
        w = bd_precode(h)
        return w if power is None else to_power(w, power)

    ws = bd(hs)
    assert ws.shape == hs.shape
    for h, w in zip(hs, ws):
        np.testing.assert_array_equal(w, bd(h))
        ref = bd_null_space_oracle(h, groups)
        if power is not None:
            ref *= np.sqrt(power / np.sum(np.abs(ref) ** 2))
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-9)
        if power is not None:
            assert np.sum(np.abs(w) ** 2) == pytest.approx(power)


def test_bd_stack_with_one_singular_slice_raises():
    hs = np.stack([random_channel(50 + t, 4) for t in range(5)])
    hs[3, 1] = hs[3, 0]  # identical rows: channel 3 of the stack is singular
    with pytest.raises(InfeasibleBlocking):
        bd_precode(hs)
    bd_precode(np.delete(hs, 3, axis=0))


def test_bd_rejects_bad_stack_shapes():
    with pytest.raises(ValueError):
        bd_precode(np.ones((2, 3, 4)))
    with pytest.raises(ValueError):
        bd_precode(np.ones((2, 2, 3, 3)))


# ---------------------------------------------------------------------------
# Stack API
# ---------------------------------------------------------------------------

# Each case maps (channel, symbols, gains) to a tuple of arrays; the same
# call on a stack must give the per-channel results exactly.
STACK_CASES = [
    pytest.param(lambda h, s, k: (lambda f: (f.l, f.q, f.diag))(lq_decompose(h)), id="lq"),
    pytest.param(lambda h, s, k: (lambda f: (f.u, f.sigma, f.v))(svd_decompose(h)), id="svd"),
    pytest.param(lambda h, s, k: (dpc_conventional(h, s),), id="dpc_conventional-diagL"),
    pytest.param(lambda h, s, k: (dpc_conventional(h, s, k),), id="dpc_conventional-gains"),
    pytest.param(lambda h, s, k: (dpc_linear(h, k),), id="dpc_linear"),
    pytest.param(lambda h, s, k: (dpc_linear(h, np.arange(1.0, 6.0)),), id="dpc_linear-shared"),
    pytest.param(lambda h, s, k: (zf_precode(h), to_power(zf_precode(h), 2.5)), id="zf"),
    pytest.param(
        lambda h, s, k: (
            mmse_precode(h, 0.1),
            to_power(mmse_precode(h, 0.1), 2.5),
            mmse_precode(h, 0.0),
        ),
        id="mmse",
    ),
    pytest.param(lambda h, s, k: (thp_precode(h, s, QPSK_BASE),), id="thp"),
]


@pytest.mark.parametrize("precode", STACK_CASES)
def test_stack_matches_slices_exactly(precode):
    rng = np.random.default_rng(8)
    hs = np.stack([random_channel(70 + t, 5) for t in range(6)])
    ss = np.stack([qpsk(rng, 5) for _ in range(6)])
    ks = rng.uniform(0.5, 2.0, size=(6, 5))
    stacked = precode(hs, ss, ks)
    for t in range(6):
        for got, want in zip(stacked, precode(hs[t], ss[t], ks[t])):
            assert got[t].shape == want.shape
            np.testing.assert_array_equal(got[t], want)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 4), (2, 2, 3, 3), (0, 3, 3)])
@pytest.mark.parametrize("precode", STACK_CASES)
def test_stack_api_rejects_bad_channel_shapes(precode, shape):
    with pytest.raises(ValueError):
        precode(np.ones(shape, dtype=complex), np.ones(3), np.ones(3))


def test_stack_api_rejects_mismatched_symbols_and_gains():
    hs = np.stack([random_channel(80 + t, 4) for t in range(3)])
    with pytest.raises(ValueError):
        dpc_conventional(hs, np.ones(4))  # one symbol vector per channel
    with pytest.raises(ValueError):
        thp_precode(hs, np.ones((2, 4)), QPSK_BASE)
    with pytest.raises(ValueError):
        dpc_linear(hs, np.ones((2, 4)))
    with pytest.raises(ValueError):
        dpc_conventional(hs, np.ones((3, 4)), gains=np.ones((3, 3)))
    with pytest.raises(ValueError):
        dpc_linear(hs, -np.ones((3, 4)))


def test_zf_rejects_near_singular_channel_by_condition_bound():
    # Rows 0 and 1 differ by 1e-14: numpy inverts the channel, but
    # ||H||_F ||H^-1||_F is far beyond 1 / EPS_SING.
    h = random_channel(90, 4)
    h[1] = h[0]
    h[1, 0] += 1e-14
    assert np.all(np.isfinite(np.linalg.inv(h)))
    with pytest.raises(NumericallySingular):
        zf_precode(h)
    with pytest.raises(NumericallySingular):
        mmse_precode(h, 0.0)
    assert np.all(np.isfinite(mmse_precode(h, 0.1)))
    with pytest.raises(ValueError):
        mmse_precode(h, -0.1)

