"""Tests for seeded channel generation."""

import numpy as np
import pytest

from dpc_perm.channel import ChannelSpec, generate_channel, sample_channel, stream


def test_same_spec_is_bit_identical():
    spec = ChannelSpec(n_users=6, seed=123)
    a = generate_channel(spec)
    b = generate_channel(spec)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n,seed", [(1, 0), (4, 7), (10, 2024)])
def test_single_draw_is_the_philox_ss_v1_draw(n, seed):
    rng = stream(seed)
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    np.testing.assert_array_equal(sample_channel(stream(seed), n), (re + 1j * im) / np.sqrt(2.0))


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("m", [None, 1, 7, 512])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_draw_is_the_three_temporary_expression_to_the_bit(seed, m, n):
    # The one-pass combine against the expression it replaced, compared
    # bit for bit (signed zeros included).
    z = stream(seed, 0).standard_normal((2, n, n) if m is None else (m, 2, n, n))
    want = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)
    got = sample_channel(stream(seed, 0), n, m)
    assert got.dtype == np.complex128 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_generated_channel_values_are_pinned():
    h = generate_channel(ChannelSpec(n_users=3, seed=2024))
    assert h[0, 0] == complex(-0.14122583352104606, 0.572525897146633)
    assert h[2, 1] == complex(0.49928828374464335, -0.9792541547460539)


def test_stacked_draw_is_consecutive_single_draws():
    rng = stream(11, 2)
    singles = np.stack([sample_channel(rng, 5) for _ in range(3)])
    stacked = sample_channel(stream(11, 2), 5, 3)
    assert stacked.shape == (3, 5, 5)
    np.testing.assert_array_equal(stacked, singles)


def test_single_user_scalar_channel():
    h = generate_channel(ChannelSpec(n_users=1, seed=0))
    assert h.shape == (1, 1)
    assert np.isfinite(h).all()


def test_distinct_seeds_differ():
    a = generate_channel(ChannelSpec(n_users=4, seed=1))
    b = generate_channel(ChannelSpec(n_users=4, seed=2))
    assert np.any(a != b)


def test_entry_variance_statistic():
    # 100 seeds x 100 entries = 1e4 pooled entries; the mean of |h|^2
    # estimates the per-entry variance with standard error 1e-2, so the
    # [0.95, 1.05] window sits 5 sigma out.
    entries = np.concatenate(
        [generate_channel(ChannelSpec(n_users=10, seed=s)).ravel() for s in range(100)]
    )
    assert entries.size == 10_000
    variance = float(np.mean(np.abs(entries) ** 2))
    assert 0.95 <= variance <= 1.05
    # each real component carries half the variance
    assert 0.45 <= float(np.var(entries.real)) <= 0.55


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(n_users=0, seed=1)
    # A bool or a float is refused, not run as seed 1 or passed on to numpy.
    bad = [(True, 1), (2.0, 1), (np.float64(2.0), 1), (2, True), (2, 1.0), (2, 1.5), (2, "1")]
    for n_users, seed in [*bad, (2, -1)]:
        with pytest.raises(ValueError):
            ChannelSpec(n_users=n_users, seed=seed)
    # numpy integers stay accepted.
    spec = ChannelSpec(n_users=np.int64(3), seed=np.uint32(7))
    np.testing.assert_array_equal(generate_channel(spec), generate_channel(ChannelSpec(3, 7)))

