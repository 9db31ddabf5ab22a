"""Tests for the order-search engines and objectives."""

import hashlib
import math
import warnings
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpc_perm import ordering
from dpc_perm.channel import ChannelSpec, generate_channel
from dpc_perm.exceptions import DegenerateGain, OrderSpaceTooLarge
from dpc_perm.linalg import (
    count_decompositions,
    diagonal_permute,
    lq_decompose,
    lq_diagonal,
    svd_decompose,
    svd_inverse,
)
from dpc_perm.modem import make_constellation, qam_modulate
from dpc_perm.ordering import (
    MAX_ENUM_USERS,
    OBJECTIVES,
    complexity_model,
    diagonal_order_search,
    min_power_order_closed_form,
    naive_order_search,
    objective_ap,
    objective_papr,
    order_table,
)
from dpc_perm.precoding import dpc_conventional, dpc_linear, waterfill


def random_channel(seed, n):
    return generate_channel(ChannelSpec(n_users=n, seed=seed))


def qpsk(rng, n):
    return (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def test_objective_ap_values():
    assert objective_ap(np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert objective_ap(np.array([0.0, 2.0])) == pytest.approx(2.0)


def test_objective_papr_values():
    const = np.exp(1j * np.linspace(0, 5, 7))
    assert objective_papr(const) == pytest.approx(1.0)
    assert objective_papr(np.array([0.0, 2.0])) == pytest.approx(2.0)


def test_objective_papr_scale_invariant():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    base = objective_papr(x)
    for c in [1e-3, 0.7, 5.0, 1e4]:
        assert objective_papr(c * x) == pytest.approx(base, rel=1e-12)
        assert objective_papr((0.3 + 0.4j) * c * x) == pytest.approx(base, rel=1e-12)


def test_objective_papr_degenerate():
    with pytest.raises(DegenerateGain):
        objective_papr(np.zeros(4))


@pytest.mark.parametrize("warning_filter", ["error", "ignore"])
def test_empty_and_overflowing_signals_raise_one_value_error(warning_filter):
    # An empty signal has no mean, and a finite signal whose power |x|**2
    # overflows has no finite one: under any warning filter each is one
    # ValueError naming it, not a RuntimeWarning, nan or inf.
    h = random_channel(63, 3)
    s = qpsk(np.random.default_rng(3), 3)
    k = lq_decompose(h).diag
    with warnings.catch_warnings():
        warnings.simplefilter(warning_filter)
        for objective in (objective_ap, objective_papr):
            with pytest.raises(ValueError, match="at least one entry"):
                objective([])
            with pytest.raises(ValueError, match="overflows"):
                objective([1e200, 1.0])
        for search in (naive_order_search, diagonal_order_search):
            for objective in ("average-power", "papr"):
                with pytest.raises(ValueError, match="overflows"):
                    search(h, 1e160 * s, k, objective)
            with pytest.raises(ValueError, match="overflows"):
                search(h, s, 1e160 * k, "min-power")
        with pytest.raises(ValueError, match="overflows"):
            order_table(h, 1e160 * s, k)


def test_ap_expectation_matches_eigen_closed_form_when_u_trivial():
    # Channel built as diag(sigma) @ v^H has trivial left factors, where
    # E ||x||^2 over unit-variance symbols reduces to sum k^2 / lambda.
    rng = np.random.default_rng(4)
    n = 5
    sigma = np.array([2.5, 1.8, 1.2, 0.9, 0.5])
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = np.diag(sigma) @ v.conj().T
    k = np.array([1.4, 0.9, 1.1, 0.6, 0.8])
    order = np.array([2, 0, 4, 1, 3])
    k_p = diagonal_permute(k, order)
    w = dpc_linear(h, k_p)
    draws = 100_000
    s = (rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))) / np.sqrt(2)
    mc = float(np.mean(np.sum(np.abs(s @ w.T) ** 2, axis=1)))
    closed = float(np.sum(k_p**2 / sigma**2))
    assert mc == pytest.approx(closed, rel=0.02)


def test_ap_expectation_matches_column_norm_closed_form_generic():
    # On a generic channel the exact expectation weights each gain by the
    # squared norm of the matching column of h^{-1}.
    rng = np.random.default_rng(9)
    n = 4
    h = random_channel(90, n)
    k = np.array([0.7, 1.3, 0.4, 1.0])
    w = dpc_linear(h, k)
    hinv_cols = np.linalg.inv(h)
    closed = float(np.sum(k**2 * np.sum(np.abs(hinv_cols) ** 2, axis=0)))
    draws = 100_000
    s = (rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))) / np.sqrt(2)
    mc = float(np.mean(np.sum(np.abs(s @ w.T) ** 2, axis=1)))
    assert mc == pytest.approx(closed, rel=0.02)


# ---------------------------------------------------------------------------
# Search engines
# ---------------------------------------------------------------------------


def test_single_user_search():
    h = random_channel(1, 1)
    s = np.array([1.0 + 0.0j])
    k = lq_decompose(h).diag
    res = naive_order_search(h, s, k)
    assert res.best_order.tolist() == [0]
    assert res.decompositions_performed == 1
    assert res.permutations_evaluated == 1
    res_d = diagonal_order_search(h, s, k)
    assert res_d.best_order.tolist() == [0]
    assert res_d.decompositions_performed == 1


def test_diagonal_channel_returns_identity():
    # The identity assignment keeps each designed gain on its own user,
    # which on a diagonal channel costs the least transmit power.
    h = np.diag([2.0, 3.0]).astype(complex)
    s = np.array([1.0 + 0.0j, 1.0 + 0.0j]) / np.sqrt(2)
    k = lq_decompose(h).diag
    for search in (naive_order_search, diagonal_order_search):
        res = search(h, s, k, "average-power")
        assert res.best_order.tolist() == [0, 1]


def test_exact_tie_breaks_lexicographically():
    # Equal gains make every order produce the same signal; the first
    # order in lexicographic enumeration must win.
    h = random_channel(3, 3)
    s = qpsk(np.random.default_rng(0), 3)
    k = np.array([1.0, 1.0, 1.0])
    for search in (naive_order_search, diagonal_order_search):
        res = search(h, s, k, "average-power")
        assert res.best_order.tolist() == [0, 1, 2]


def test_cached_orders_are_lexicographic_read_only_and_permute_like_the_loop():
    for n in range(1, 9):
        orders = ordering._lex_orders(n)
        flat = ordering._flat_index(n)
        assert orders.tolist() == [list(p) for p in permutations(range(n))]
        assert not orders.flags.writeable
        assert not flat.flags.writeable
        # flat[j, slot] = inv[j, slot] * n + slot, with inv[j, orders[j, i]] == i
        # for every order j and user i.
        slots = np.broadcast_to(np.arange(n), orders.shape)
        np.testing.assert_array_equal(flat % n, slots)
        np.testing.assert_array_equal(np.take_along_axis(flat // n, orders, axis=1), slots)
    k = np.array([0.3, 1.7, 0.0, 2.2])
    gathered = ordering._by_order(np.repeat(k[:, np.newaxis], 4, axis=1))
    for p, k_p in zip(ordering._lex_orders(4), gathered):
        np.testing.assert_array_equal(k_p, diagonal_permute(k, p))


def test_flat_gather_equals_the_two_dimensional_gather():
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        table = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        inv = np.argsort(ordering._lex_orders(n), axis=1)
        for chunk in (slice(None), slice(1, 4), slice(len(inv) // 3, None)):
            np.testing.assert_array_equal(
                ordering._by_order(table, chunk), table[inv[chunk], np.arange(n)]
            )


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_slot_reductions_equal_numpy_row_reductions_bit_for_bit():
    # Entries of one magnitude make a sum's rounding depend on its order;
    # rows spread over 1e-150..1e150, zeros and exactly tied entries are the
    # cases a reordering mishandles. n = 8 is where numpy's row sum switches
    # to eight partial sums, 128 the end of that block, past which the
    # helpers take numpy's reductions.
    rng = np.random.default_rng(29)
    for n in [*range(1, 17), 127, 128, 129, 200]:
        p = rng.random((64, n))
        p[32:] = 10.0 ** rng.uniform(-150, 150, size=(32, n))
        p[rng.random(p.shape) < 0.1] = 0.0
        p[:8] = rng.choice([0.0, 0.5, 1.0, 3.0], size=(8, n))
        p[8] = 0.0
        p[9] = 1.0
        for rows in (p, p[5:40], p[1::3]):
            np.testing.assert_array_equal(bits(ordering._row_sums(rows)), bits(rows.sum(axis=1)))
            np.testing.assert_array_equal(
                bits(ordering._row_sums(rows) / n), bits(rows.mean(axis=1))
            )
            np.testing.assert_array_equal(bits(ordering._row_max(rows)), bits(rows.max(axis=1)))


def scatter_reference(h, s, k):
    """Every order's AP, PAPR and min-power value, computed as the search
    did before it gathered: each order's gains scattered with
    ``put_along_axis`` into one (n!, n) array, then the same products and
    reductions on the same chunks."""
    b, sigma = svd_inverse(h)
    orders = ordering._lex_orders(k.size)
    k_perm = np.empty(orders.shape)
    np.put_along_axis(k_perm, orders, k[np.newaxis, :], axis=1)
    ap, papr = [], []
    for chunk in ordering._chunks(len(orders), k.size):
        x = (k_perm[chunk] * s) @ b.T
        power = x.real**2 + x.imag**2
        ap.append(power.mean(axis=1))
        papr.append(power.max(axis=1) / power.mean(axis=1))
    lam = np.linalg.svd(h, compute_uv=False) ** 2
    return {
        "average-power": np.concatenate(ap),
        "papr": np.concatenate(papr),
        "min-power": np.sum(k_perm**2 / sigma**2, axis=1),
        "naive min-power": np.sum(k_perm**2 / lam, axis=1),
    }


def values_seen_by_the_tie_rule(search, *args):
    with mock.patch.object(ordering, "_select", wraps=ordering._select) as select:
        search(*args)
    return select.call_args.args[0]


def assert_values_equal_the_scatter_reference(seed, gains):
    n = len(gains)
    h = random_channel(seed, n)
    s = qpsk(np.random.default_rng(seed), n)
    k = np.array(gains)
    ref = scatter_reference(h, s, k)
    for objective in OBJECTIVES:
        values = values_seen_by_the_tie_rule(diagonal_order_search, h, s, k, objective)
        np.testing.assert_array_equal(values, ref[objective])
    naive = values_seen_by_the_tie_rule(naive_order_search, h, s, k, "min-power")
    np.testing.assert_array_equal(naive, ref["naive min-power"])
    rows = [(row["order"], row["ap"], row["papr"]) for row in order_table(h, s, k)]
    orders = [tuple(p) for p in permutations(range(n))]
    assert rows == list(zip(orders, ref["average-power"].tolist(), ref["papr"].tolist()))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    gains=st.integers(1, 6)
    .flatmap(lambda n: st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.5]), min_size=n, max_size=n))
    .filter(any),
)
def test_gathered_values_and_table_equal_the_scatter_reference_bit_for_bit(seed, gains):
    # Zero gains mute users and repeated gains make whole groups of orders
    # tie exactly; every value must still be the scatter route's, bit for bit.
    assert_values_equal_the_scatter_reference(seed, gains)


@pytest.mark.parametrize(
    "seed, gains",
    [
        (7, [1.0, 0.25, 3.5, 0.0, 1.0, 0.25, 3.5]),
        (70, [0.9, 1.1, 0.3, 2.0, 1.7, 0.6, 1.2]),
        (8, [3.5, 0.0, 1.0, 0.25, 1.0, 3.5, 0.25, 1.0]),
        (80, [0.9, 1.1, 0.3, 2.0, 1.7, 0.6, 1.2, 0.8]),
    ],
)
def test_gathered_values_equal_the_scatter_reference_at_seven_and_eight_users(seed, gains):
    # At 8 slots numpy's row sum switches from left to right to eight
    # partial sums; the slot-wise sums must follow it there too.
    assert_values_equal_the_scatter_reference(seed, gains)


def first_within_tie(values):
    """The tie rule, restated: first index within 1e-12 relative of the minimum."""
    values = np.asarray(values)
    best = values.min()
    return int(np.flatnonzero(values - best <= 1e-12 * abs(best))[0])


@pytest.mark.parametrize("objective", ["average-power", "papr", "min-power"])
def test_near_tie_breaks_lexicographically(objective):
    # Gains 1e-14 apart put every order within rounding of every other,
    # far inside the 1e-12 tie band: the identity order must win whatever
    # the rounding of the individual values.
    n = 4
    h = random_channel(33, n)
    s = qpsk(np.random.default_rng(1), n)
    k = 1.0 + 1e-14 * np.array([3.0, -2.0, 1.0, -4.0])
    for search in (naive_order_search, diagonal_order_search):
        res = search(h, s, k, objective)
        assert res.best_order.tolist() == [0, 1, 2, 3]


def test_tie_rule_depends_on_values_only():
    # A sequential "replace when better by more than the tolerance" scan
    # keeps index 0 at index 1 and then jumps to index 2; the array rule
    # measures every value against the minimum and picks index 1.
    values = np.array([1.0, 1.0 - 0.6e-12, 1.0 - 1.2e-12])
    assert ordering._select(values) == first_within_tie(values) == 1


@pytest.mark.parametrize("objective", ["average-power", "papr"])
def test_chunked_evaluation_matches_unchunked_and_naive(monkeypatch, objective):
    n = 5
    h = random_channel(61, n)
    s = qpsk(np.random.default_rng(6), n)
    k = lq_decompose(h).diag

    def run(search):
        return search(h, s, k, objective)

    monkeypatch.setattr(ordering, "_CHUNK_ENTRIES", 120 * n)
    whole = run(diagonal_order_search)
    # 7 orders a chunk: 120 orders leave a ragged last chunk of one.
    monkeypatch.setattr(ordering, "_CHUNK_ENTRIES", 7 * n)
    assert [len(range(120)[c]) for c in ordering._chunks(120, n)][-2:] == [7, 1]
    chunked = run(diagonal_order_search)
    naive = run(naive_order_search)
    for res in (chunked, naive):
        assert res.best_order.tolist() == whole.best_order.tolist()
        assert res.best_value == pytest.approx(whole.best_value, rel=1e-12)
        np.testing.assert_allclose(res.best_signal, whole.best_signal, rtol=1e-10)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_naive_values_do_not_depend_on_the_chunk_size(monkeypatch, objective):
    n = 5
    h = random_channel(64, n)
    s = qpsk(np.random.default_rng(4), n)
    k = lq_decompose(h).diag
    whole = values_seen_by_the_tie_rule(naive_order_search, h, s, k, objective)
    # 7 orders a chunk: 120 orders leave a ragged last chunk of one.
    monkeypatch.setattr(ordering, "_CHUNK_ENTRIES", 7 * n * n)
    chunked = values_seen_by_the_tie_rule(naive_order_search, h, s, k, objective)
    np.testing.assert_array_equal(bits(chunked), bits(whole))


def test_all_zero_gains_papr_is_degenerate():
    h = random_channel(62, 3)
    s = qpsk(np.random.default_rng(2), 3)
    k = np.zeros(3)
    for search in (naive_order_search, diagonal_order_search):
        with pytest.raises(DegenerateGain):
            search(h, s, k, "papr")
        assert search(h, s, k, "average-power").best_value == 0.0
    with pytest.raises(DegenerateGain):
        order_table(h, s, k)


def test_order_table_argmin_equals_diagonal_winners_n8():
    n = 8
    h = random_channel(2048, n)
    c = make_constellation(16)
    bits = np.random.default_rng(3).integers(0, 2, size=n * c.bits_per_symbol, dtype=np.uint8)
    s = qam_modulate(bits, c)
    k = lq_decompose(h).diag
    rows = order_table(h, s, k)
    assert len(rows) == math.factorial(n)
    for objective, column in (("average-power", "ap"), ("papr", "papr")):
        res = diagonal_order_search(h, s, k, objective)
        best = first_within_tie([r[column] for r in rows])
        assert rows[best]["order"] == tuple(res.best_order.tolist())
        assert rows[best][column] == pytest.approx(res.best_value, rel=1e-12)


@pytest.mark.parametrize("objective", ["average-power", "papr", "min-power"])
def test_naive_and_diagonal_agree(objective):
    rng = np.random.default_rng(7)
    h = random_channel(44, 4)
    s = qpsk(rng, 4)
    k = lq_decompose(h).diag
    res_n = naive_order_search(h, s, k, objective)
    res_d = diagonal_order_search(h, s, k, objective)
    assert res_n.best_order.tolist() == res_d.best_order.tolist()
    assert res_n.best_value == pytest.approx(res_d.best_value, rel=1e-9)
    np.testing.assert_allclose(res_n.best_signal, res_d.best_signal, atol=1e-10)


@pytest.mark.parametrize("objective", ["average-power", "papr", "min-power"])
def test_naive_and_diagonal_agree_at_the_enumeration_guard(objective):
    n = MAX_ENUM_USERS
    h = random_channel(88, n)
    s = qpsk(np.random.default_rng(8), n)
    k = lq_decompose(h).diag
    res_n = naive_order_search(h, s, k, objective)
    res_d = diagonal_order_search(h, s, k, objective)
    assert res_n.best_order.tolist() == res_d.best_order.tolist()
    assert (res_n.decompositions_performed, res_d.decompositions_performed) == (40320, 1)
    assert res_n.permutations_evaluated == res_d.permutations_evaluated == math.factorial(n)
    rel = np.linalg.norm(res_n.best_signal - res_d.best_signal) / np.linalg.norm(res_d.best_signal)
    assert rel <= 1e-8


# The naive oracle's own arithmetic, pinned: n! LQ factorizations and
# successive encodes, on inputs built as `order-search` builds them (a
# seeded channel, 16-QAM symbols from a seeded bit draw, diag(L) gains).
# Per case: (n, objective, best_value as float.hex, decompositions_performed,
# permutations_evaluated, sha256 of best_signal's bytes).
NAIVE_ORACLE_PINS = [
    (5, "average-power", "0x1.ea78e473bc1e0p+0", 120, 120,
     "a5eb8db7cf54de9034a0d9fc517ded5cbb64813f223260ff0ea3d4706b25becc"),
    (5, "papr", "0x1.0a0464a9c8ad9p+1", 120, 120,
     "9c7b7687bb9ce74338f83055fbd123cc83649d66cbed13b9da457a9170449af7"),
    (5, "min-power", "0x1.001739fce616dp+3", 120, 120,
     "af1426cb9465d068d99fa275dcd4457357a8845e3e30dd4e1a7448a458f7de2b"),
    (6, "average-power", "0x1.635fd784ed3d0p-1", 720, 720,
     "e277d6ef83e6713862ec0cd2f947dcdc0f484fb365b82be5f4755bcd61dd05cf"),
    (6, "papr", "0x1.71e6c49d524c9p+0", 720, 720,
     "3229e46de6999c94b21a2645244127283140aa238b635adae0e932143ce31781"),
    (6, "min-power", "0x1.12decd920f047p+3", 720, 720,
     "5d8c55db9b73f18cce1ee76b58bb3d21bbe27d0c16c735a98becd31c4364b4eb"),
    (7, "average-power", "0x1.34515058d8ce0p+5", 5040, 5040,
     "5473ea4c259c5250ebdeaae898c81aa947ebe6f2984ea1db9a873eb3b197dae2"),
    (7, "papr", "0x1.ebf755e974b11p+0", 5040, 5040,
     "6b7982c530fd2e682f03c72614b1d80fec5a215ae1b18a6a4a7deb4b39e43365"),
    (7, "min-power", "0x1.94d14a67ab8b4p+3", 5040, 5040,
     "4a5a85940e6e716042c565d49b6b309b51297ef20037ea6c4c908f3b6d1d4f9c"),
]


@pytest.mark.parametrize(
    "n, objective, best_value, decompositions, orders, signal_sha256",
    NAIVE_ORACLE_PINS,
    ids=[f"n{pin[0]}-{pin[1]}" for pin in NAIVE_ORACLE_PINS],
)
def test_naive_oracle_is_pinned(n, objective, best_value, decompositions, orders, signal_sha256):
    h = random_channel(70 + n, n)
    c = make_constellation(16)
    bits = np.random.default_rng(170 + n).integers(0, 2, size=n * c.bits_per_symbol, dtype=np.uint8)
    s = qam_modulate(bits, c)
    res = naive_order_search(h, s, lq_diagonal(h), objective)
    assert hashlib.sha256(res.best_signal.tobytes()).hexdigest() == signal_sha256
    assert res.best_value.hex() == best_value
    assert (res.decompositions_performed, res.permutations_evaluated) == (decompositions, orders)


def test_per_order_signals_match_through_public_api():
    # For every order: gain-controlled successive DPC on the permuted
    # channel equals the one-factorization diagonal-permutation product.
    rng = np.random.default_rng(11)
    n = 3
    h = random_channel(45, n)
    s = qpsk(rng, n)
    k = lq_decompose(h).diag
    for order in permutations(range(n)):
        p = np.asarray(order)
        x_naive = dpc_conventional(h[p, :], s[p], gains=k)
        x_diag = dpc_linear(h, diagonal_permute(k, p)) @ s
        assert np.linalg.norm(x_naive - x_diag) <= 1e-8 * np.linalg.norm(x_diag)


def test_decomposition_counters_n5():
    rng = np.random.default_rng(2)
    h = random_channel(55, 5)
    s = qpsk(rng, 5)
    k = lq_decompose(h).diag
    with count_decompositions() as c_naive:
        res_n = naive_order_search(h, s, k)
    with count_decompositions() as c_diag:
        res_d = diagonal_order_search(h, s, k)
    assert res_n.decompositions_performed == math.factorial(5) == c_naive.total == c_naive.lq
    assert res_d.decompositions_performed == 1 == c_diag.total == c_diag.svd
    assert res_n.permutations_evaluated == res_d.permutations_evaluated == 120


def test_best_value_equals_objective_of_best_signal():
    rng = np.random.default_rng(8)
    h = random_channel(56, 4)
    s = qpsk(rng, 4)
    k = lq_decompose(h).diag
    for objective, fn in (("average-power", objective_ap), ("papr", objective_papr)):
        res = diagonal_order_search(h, s, k, objective)
        assert res.best_value == pytest.approx(fn(res.best_signal), rel=1e-12)


def test_order_space_guard():
    h = random_channel(58, 9)
    s = np.ones(9, dtype=complex)
    k = np.ones(9)
    with pytest.raises(OrderSpaceTooLarge):
        naive_order_search(h, s, k)
    with pytest.raises(OrderSpaceTooLarge):
        diagonal_order_search(h, s, k)
    with pytest.raises(OrderSpaceTooLarge):
        order_table(h, s, k)



@pytest.mark.parametrize("length", [1, 5])
def test_symbol_vector_must_have_one_symbol_per_user(length):
    h = random_channel(58, 4)
    s = np.ones(length, dtype=complex)
    k = np.ones(4)
    with pytest.raises(ValueError, match="shape"):
        naive_order_search(h, s, k)
    with pytest.raises(ValueError, match="shape"):
        diagonal_order_search(h, s, k)
    with pytest.raises(ValueError, match="shape"):
        order_table(h, s, k)


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]
)
def test_non_finite_symbols_are_refused_before_any_order(bad):
    # Every search and objective refuses the symbols up front, under
    # "-W error" too: no factorization runs, and min-power does not return
    # a winner with an all-nan best_signal.
    h = random_channel(58, 3)
    s = np.array([1.0, bad, 1j])
    k = lq_decompose(h).diag
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with count_decompositions() as counter:
            for search in (naive_order_search, diagonal_order_search):
                for objective in OBJECTIVES:
                    with pytest.raises(ValueError, match="symbol vector must be finite"):
                        search(h, s, k, objective)
            with pytest.raises(ValueError, match="symbol vector must be finite"):
                order_table(h, s, k)
    assert counter.total == 0


def test_ap_papr_spread_for_seeded_16qam_instance():
    # Orders must genuinely spread both statistics on a generic channel.
    h = random_channel(2024, 4)
    c = make_constellation(16)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=4 * c.bits_per_symbol, dtype=np.uint8)
    s = qam_modulate(bits, c)
    rows = order_table(h, s, lq_decompose(h).diag)
    assert len(rows) == 24
    aps = [r["ap"] for r in rows]
    paprs = [r["papr"] for r in rows]
    assert max(aps) - min(aps) > 1e-6
    assert max(paprs) - min(paprs) > 1e-6


# ---------------------------------------------------------------------------
# Minimal-power closed form
# ---------------------------------------------------------------------------


def test_min_power_closed_form_sorted_inputs():
    k = np.array([3.0, 2.0, 1.0])
    sigma = np.array([3.0, 2.0, 1.0])
    assert min_power_order_closed_form(k, sigma).tolist() == [0, 1, 2]


def test_min_power_closed_form_hand_example():
    # k = (1, 2) on lambda = (4, 1): sending k=2 to lambda=4 costs
    # 4/4 + 1/1 = 2 against 1/4 + 4/1 = 4.25 for the identity.
    order = min_power_order_closed_form(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    assert order.tolist() == [1, 0]
    lam = np.array([4.0, 1.0])
    k = np.array([1.0, 2.0])
    value = lambda o: sum(k[m] ** 2 / lam[o[m]] for m in range(2))  # noqa: E731
    assert value(order) == pytest.approx(2.0)
    assert value([0, 1]) == pytest.approx(4.25)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_waterfilled_gains_map_to_identity(n):
    sigma = np.linalg.svd(random_channel(300 + n, n), compute_uv=False)
    k = waterfill(sigma, float(n))
    assert min_power_order_closed_form(k, sigma).tolist() == list(range(n))
    # cross-check by exhaustive enumeration of the power functional
    lam = sigma**2
    values = {
        order: float(np.sum(k**2 / lam[list(order)])) for order in permutations(range(n))
    }
    best = min(values.values())
    ties = [o for o, v in sorted(values.items()) if v <= best * (1 + 1e-12)]
    assert ties[0] == tuple(range(n))


def test_min_power_closed_form_tie_is_lexicographic():
    order = min_power_order_closed_form(np.array([1.0, 1.0, 2.0]), np.array([3.0, 2.0, 1.0]))
    assert order.tolist() == [1, 2, 0]


# ---------------------------------------------------------------------------
# Complexity model
# ---------------------------------------------------------------------------


def test_complexity_model_n1():
    naive, proposed, ratio = complexity_model(1)
    assert naive == 1.0 and proposed == 2.0
    assert ratio == pytest.approx(10 * math.log10(0.5), abs=1e-12)


def test_complexity_model_n5_matches_stated_formula():
    naive, proposed, ratio = complexity_model(5)
    assert naive == 15000.0 and proposed == 245.0
    assert ratio == pytest.approx(10 * math.log10(15000 / 245), abs=1e-12)
    assert ratio == pytest.approx(17.87, abs=0.01)


def test_complexity_ratio_monotone():
    ratios = [complexity_model(n)[2] for n in range(2, 13)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
