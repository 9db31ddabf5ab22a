"""Tests for the LQ/SVD factorizations and permutation identities."""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpc_perm.channel import ChannelSpec, generate_channel
from dpc_perm.exceptions import InvalidPermutation, NumericallySingular
from dpc_perm.linalg import (
    EPS_LIN,
    as_order,
    count_decompositions,
    diagonal_permute,
    lq_apply_qh,
    lq_decompose,
    lq_diagonal,
    lq_not_permutation_linear_witness,
    permuted_svd,
    singular_values,
    svd_decompose,
)
from dpc_perm.ordering import diagonal_order_search, naive_order_search
from dpc_perm.precoding import successive_encode, successive_feedback


def random_channel(seed, n):
    return generate_channel(ChannelSpec(n_users=n, seed=seed))


def well_separated_channel(seed, n, gap=1e-6):
    """Random channel whose singular values are comfortably distinct."""
    for offset in range(100):
        h = random_channel(seed + 10_000 * offset, n)
        sv = np.linalg.svd(h, compute_uv=False)
        if np.min(-np.diff(sv)) > gap * sv[0]:
            return h
    raise AssertionError("no well-separated channel found")


# ---------------------------------------------------------------------------
# LQ decomposition
# ---------------------------------------------------------------------------


def test_lq_identity():
    f = lq_decompose(np.eye(2))
    np.testing.assert_allclose(f.l, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f.q, np.eye(2), atol=1e-15)


def test_lq_positive_diagonal_matrix():
    f = lq_decompose(np.diag([2.0, 3.0]))
    np.testing.assert_allclose(f.l, np.diag([2.0, 3.0]), atol=1e-15)
    np.testing.assert_allclose(f.q, np.eye(2), atol=1e-15)


def test_lq_reconstruction_seeded():
    h = random_channel(7, 4)
    f = lq_decompose(h)
    err = np.linalg.norm(f.l @ f.q - h) / np.linalg.norm(h)
    assert err <= 1e-12


@pytest.mark.parametrize("n", range(2, 17))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lq_contract(n, seed):
    h = random_channel(100 * seed + n, n)
    f = lq_decompose(h)
    # strict upper triangle exactly zero
    assert np.max(np.abs(np.triu(f.l, k=1)), initial=0.0) == 0.0
    # diagonal real and non-negative
    d = np.diag(f.l)
    assert np.all(d.imag == 0.0)
    assert np.all(d.real > 0.0)
    # unitarity and reconstruction
    n_ = h.shape[0]
    assert np.linalg.norm(f.q @ f.q.conj().T - np.eye(n_)) <= EPS_LIN * n_
    assert np.linalg.norm(f.l @ f.q - h) <= EPS_LIN * np.linalg.norm(h)


def test_lq_singular_raises():
    h = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)  # rank 1
    with pytest.raises(NumericallySingular):
        lq_decompose(h)


def test_lq_rejects_non_square_and_nan():
    with pytest.raises(ValueError):
        lq_decompose(np.ones((2, 3)))
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        lq_decompose(bad)


# ---------------------------------------------------------------------------
# SVD decomposition
# ---------------------------------------------------------------------------


def test_svd_identity():
    f = svd_decompose(np.eye(3))
    np.testing.assert_allclose(f.sigma, np.ones(3), atol=1e-15)


def test_svd_diagonal():
    f = svd_decompose(np.diag([3.0, 2.0]))
    np.testing.assert_allclose(f.sigma, [3.0, 2.0], atol=1e-15)
    # u and v equal identity up to a per-column phase
    np.testing.assert_allclose(np.abs(f.u), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.abs(f.v), np.eye(2), atol=1e-14)


@pytest.mark.parametrize("n,seed", [(5, 3), (8, 11), (16, 5)])
def test_svd_contract(n, seed):
    h = random_channel(seed, n)
    f = svd_decompose(h)
    assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
    assert np.linalg.norm(f.u @ f.u.conj().T - np.eye(n)) <= EPS_LIN * n
    assert np.linalg.norm(f.v @ f.v.conj().T - np.eye(n)) <= EPS_LIN * n
    err = np.linalg.norm(f.reconstruct() - h) / np.linalg.norm(h)
    assert err <= 1e-12


def _gaussian_stack(seed, m, n, exp):
    """``m`` complex Gaussian ``n x n`` channels scaled by ``10**exp``."""
    rng = np.random.default_rng(seed)
    return 10.0**exp * (rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))


# Channel stacks from seeded generators, over six decades of scale.
_STACKS = st.builds(
    _gaussian_stack, st.integers(0, 2**32), st.integers(1, 6), st.integers(1, 12), st.integers(-3, 3)
)


def _assert_unitary(q):
    n = q.shape[-1]
    for qi in q:
        assert np.linalg.norm(qi @ qi.conj().T - np.eye(n)) <= EPS_LIN * n


@given(hs=_STACKS)
@settings(max_examples=100, deadline=None)
def test_lq_stack_conventions_property(hs):
    f = lq_decompose(hs)
    assert np.all(np.triu(f.l, k=1) == 0.0)
    d = np.diagonal(f.l, axis1=1, axis2=2)
    assert np.all(d.imag == 0.0) and np.all(d.real >= 0.0)
    _assert_unitary(f.q)
    for h, l, q in zip(hs, f.l, f.q):
        assert np.linalg.norm(l @ q - h) <= EPS_LIN * np.linalg.norm(h)


@given(hs=_STACKS)
@settings(max_examples=100, deadline=None)
def test_lq_diagonal_is_the_lq_diag_to_the_bit_property(hs):
    for h in (hs, hs[0]):
        d = lq_diagonal(h)
        assert d.dtype == np.float64 and d.shape == h.shape[:-1]
        np.testing.assert_array_equal(d, lq_decompose(h).diag)


def _singular_and_invalid_channels():
    h = random_channel(5, 4)
    zero_row, equal_rows, tiny_row = h.copy(), h.copy(), h.copy()
    zero_row[2] = 0.0
    equal_rows[3] = equal_rows[1]
    tiny_row[0] *= 1e-14
    nan = h.copy()
    nan[1, 1] = np.nan
    inf = h.copy()
    inf[0, 3] = np.inf
    stack = np.stack([h, tiny_row])
    return {
        "zero-row": zero_row,
        "equal-rows": equal_rows,
        "row-scaled-1e-14": tiny_row,
        "singular-in-stack": stack,
        "nan": nan,
        "inf": inf,
        "non-square": np.ones((2, 3)),
        "vector": np.ones(3),
        "empty": np.ones((0, 2, 2)),
    }


@pytest.mark.parametrize("name", list(_singular_and_invalid_channels()))
def test_lq_diagonal_refuses_what_lq_decompose_refuses(name):
    h = _singular_and_invalid_channels()[name]
    with pytest.raises(Exception) as full:
        lq_decompose(h)
    with pytest.raises(Exception) as diagonal_only:
        lq_diagonal(h)
    assert full.type in (NumericallySingular, ValueError)
    assert diagonal_only.type is full.type
    assert str(diagonal_only.value) == str(full.value)


def test_lq_diagonal_counts_one_lq_per_channel():
    hs = np.stack([random_channel(t, 4) for t in range(7)])
    with count_decompositions() as counter:
        lq_diagonal(hs)
        lq_diagonal(hs[0])
    assert (counter.lq, counter.svd) == (8, 0)


def _complete_mode_lq(hs):
    """The LQ as a complete-mode QR of ``hsᴴ`` builds it, with ``q`` formed
    (geqrf and ungqr) and phase-fixed: the reference for bit-identity."""
    q_r, r = np.linalg.qr(hs.conj().transpose(0, 2, 1))
    mag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    phase = np.diagonal(r, axis1=1, axis2=2).conj() / mag
    l = r.conj().transpose(0, 2, 1) * phase.conj()[:, np.newaxis, :]
    idx = np.arange(hs.shape[1])
    l[:, idx, idx] = mag
    return l, phase[:, :, np.newaxis] * q_r.conj().transpose(0, 2, 1)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@given(hs=_STACKS, seed=st.integers(0, 2**32), draws=st.integers(2, 9))
@settings(max_examples=100, deadline=None)
def test_reflector_q_product_matches_the_formed_q_property(hs, seed, draws):
    rng = np.random.default_rng(seed)
    m, n = hs.shape[:2]
    l, q = _complete_mode_lq(hs)
    with count_decompositions() as counter:
        f = lq_decompose(hs)
        assert np.array_equal(f.q, q)  # forming q is no second LQ
    assert (counter.lq, counter.svd) == (m, 0)
    assert np.array_equal(f.l, l) and f.l.strides == l.strides
    assert np.array_equal(f.diag, np.real(np.diagonal(l, axis1=1, axis2=2)))

    # A stack, one vector a channel: the reflectors, within rounding of the
    # product with the formed q (n reflectors, each O(eps) backward error).
    x = _complex_normal(rng, (m, n, 1))
    got = lq_apply_qh(f, x)
    want = (q.conj().transpose(0, 2, 1) @ x).transpose(0, 2, 1)
    assert got.shape == (m, 1, n)
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(got - want)) <= 2 * (n + 1) * eps * np.max(np.abs(want))
    for c in range(m):
        one = lq_apply_qh(lq_decompose(hs[c : c + 1]), x[c : c + 1])
        np.testing.assert_array_equal(one[0], got[c])
    # THP's data columns: the first column of its data-and-pilot buffer.
    buf = _complex_normal(rng, (m, n, 1 + draws))
    buf[:, :, :1] = x
    np.testing.assert_array_equal(lq_apply_qh(f, buf[:, :, :1]), got)

    # One shared channel, several draws: one GEMM with the formed q, and the
    # successive encode equal to the complete-mode LQ's, bit for bit.
    shared = lq_decompose(hs[:1])
    xs = _complex_normal(rng, (1, n, draws))
    np.testing.assert_array_equal(
        lq_apply_qh(shared, xs), (q[:1].conj().transpose(0, 2, 1) @ xs).transpose(0, 2, 1)
    )
    s = _complex_normal(rng, (draws, n))
    gains = rng.uniform(0.0, 2.0, size=n)
    xt = (s * (gains / shared.diag[0])).T[np.newaxis].copy()
    successive_feedback(l[:1], xt)
    encoded = (q[:1].conj().transpose(0, 2, 1) @ xt)[0].T
    np.testing.assert_array_equal(successive_encode(shared, gains, s), encoded)


@given(hs=_STACKS)
@settings(max_examples=100, deadline=None)
def test_svd_stack_conventions_property(hs):
    f = svd_decompose(hs)
    assert np.all(np.diff(f.sigma, axis=1) <= 0.0) and np.all(f.sigma >= 0.0)
    _assert_unitary(f.u)
    _assert_unitary(f.v)
    for h, rec in zip(hs, f.reconstruct()):
        assert np.linalg.norm(rec - h) <= EPS_LIN * np.linalg.norm(h)


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad", [[0, 0, 1], [0, 2], [1, 2, 3], [-1, 0], [0.5, 1.5], []]
)
def test_invalid_permutations_rejected(bad):
    with pytest.raises(InvalidPermutation):
        as_order(np.asarray(bad))


def test_permuted_svd_identity_order():
    h = random_channel(2, 4)
    f = svd_decompose(h)
    fp = permuted_svd(f, np.arange(4))
    np.testing.assert_array_equal(fp.u, f.u)
    np.testing.assert_array_equal(fp.sigma, f.sigma)
    np.testing.assert_array_equal(fp.v, f.v)


def test_permuted_svd_hand_example():
    f = svd_decompose(np.diag([3.0, 2.0]))
    fp = permuted_svd(f, [1, 0])
    np.testing.assert_allclose(np.abs(fp.u), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(fp.reconstruct(), [[0.0, 2.0], [3.0, 0.0]], atol=1e-14)


def test_permuted_svd_w_construction_matches_fresh_decomposition():
    # The precoder built from permuted factors must match the precoder
    # built from a fresh SVD of the permuted channel; both equal
    # (g h)^{-1} k, which is unique for distinct singular values.
    h = well_separated_channel(3, 4)
    k = np.array([0.5, 1.0, 1.5, 2.0])
    rng = np.random.default_rng(0)
    for order in [rng.permutation(4) for _ in range(5)]:
        f = permuted_svd(svd_decompose(h), order)
        w_perm = f.v @ ((f.u.conj().T * k[np.newaxis, :]) / f.sigma[:, np.newaxis])
        f2 = svd_decompose(h[order, :])
        w_fresh = f2.v @ ((f2.u.conj().T * k[np.newaxis, :]) / f2.sigma[:, np.newaxis])
        assert np.linalg.norm(w_perm - w_fresh) <= 1e-10 * np.linalg.norm(w_fresh)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lemma1_constructive_identity_all_orders(n):
    h = random_channel(20 + n, n)
    f = svd_decompose(h)
    for order in permutations(range(n)):
        fp = permuted_svd(f, order)
        err = np.linalg.norm(fp.reconstruct() - h[list(order), :])
        assert err <= 1e-10 * np.linalg.norm(h)


# ---------------------------------------------------------------------------
# Diagonal permutation
# ---------------------------------------------------------------------------


def test_diagonal_permute_identity():
    np.testing.assert_array_equal(diagonal_permute([1.0, 2.0, 3.0], [0, 1, 2]), [1.0, 2.0, 3.0])


def test_diagonal_permute_matches_explicit_conjugation():
    k = np.array([1.0, 2.0, 3.0])
    order = [2, 0, 1]  # 1-based (3, 1, 2)
    g = np.eye(3)[order]
    expected = np.diag(g.conj().T @ np.diag(k) @ g)
    np.testing.assert_allclose(diagonal_permute(k, order), expected)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_permute_roundtrip_and_multiset(n):
    rng = np.random.default_rng(n)
    k = rng.uniform(0.1, 5.0, n)
    for order in permutations(range(n)):
        p = np.asarray(order)
        out = diagonal_permute(k, p)
        np.testing.assert_array_equal(np.sort(out), np.sort(k))
        np.testing.assert_array_equal(diagonal_permute(out, np.argsort(p)), k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_permute_group_action(n):
    # Applying q then p equals applying the composite p[q] once.
    rng = np.random.default_rng(100 + n)
    k = rng.uniform(0.1, 5.0, n)
    for p in permutations(range(n)):
        for q in permutations(range(n)):
            sequential = diagonal_permute(diagonal_permute(k, q), p)
            combined = diagonal_permute(k, np.asarray(p)[np.asarray(q)])
            np.testing.assert_allclose(sequential, combined)


# ---------------------------------------------------------------------------
# LQ non-linearity witness and the reference inverse
# ---------------------------------------------------------------------------


def test_witness_identity_is_false():
    h = random_channel(5, 3)
    assert lq_not_permutation_linear_witness(h, [0, 1, 2]) is False


def test_witness_swap_is_true():
    h = random_channel(5, 3)
    assert lq_not_permutation_linear_witness(h, [1, 0, 2]) is True


def test_witness_diagonal_swap():
    # A permuted diagonal matrix keeps zero strictly-upper entries only
    # for the identity: the swap on diag(2, 3) moves 3 above the diagonal.
    assert lq_not_permutation_linear_witness(np.diag([2.0, 3.0]), [1, 0]) is True


def inverse_via_lq(h):
    """Invert a channel by forward substitution on its LQ factors.

    Solves ``h @ x = I`` as ``x = q^H @ (l^{-1})``, independent of any SVD
    path: the reference inverse that precoders built from
    ``v @ diag(1/sigma) @ u^H`` are cross-checked against.
    """
    factors = lq_decompose(h)
    n = factors.l.shape[0]
    return factors.q.conj().T @ solve_lower(factors.l, np.eye(n, dtype=np.complex128))


def solve_lower(l, rhs):
    """Forward substitution for a lower-triangular system ``l @ x = rhs``."""
    x = np.zeros_like(rhs, dtype=np.complex128)
    for i in range(l.shape[0]):
        x[i] = (rhs[i] - l[i, :i] @ x[:i]) / l[i, i]
    return x


def test_inverse_via_lq_matches_svd_inverse():
    h = well_separated_channel(9, 5)
    f = svd_decompose(h)
    w_svd = f.v @ (f.u.conj().T / f.sigma[:, np.newaxis])
    w_lq = inverse_via_lq(h)
    assert np.linalg.norm(w_svd - w_lq) <= 1e-8 * np.linalg.norm(w_lq)
    np.testing.assert_allclose(h @ w_lq, np.eye(5), atol=1e-10)


def test_inverse_product_invariant_under_svd_phase_ambiguity():
    # Any valid SVD of h differs by per-column phases on u and v; the
    # product v diag(1/sigma) u^H must not care.
    h = well_separated_channel(14, 4)
    f = svd_decompose(h)
    rng = np.random.default_rng(0)
    phases = np.exp(2j * np.pi * rng.uniform(size=4))
    u2 = f.u * phases[np.newaxis, :]
    v2 = f.v * phases[np.newaxis, :]
    # still a valid factorization of h
    assert np.linalg.norm((u2 * f.sigma) @ v2.conj().T - h) <= 1e-12 * np.linalg.norm(h)
    w1 = f.v @ (f.u.conj().T / f.sigma[:, np.newaxis])
    w2 = v2 @ (u2.conj().T / f.sigma[:, np.newaxis])
    assert np.linalg.norm(w1 - w2) <= 1e-8 * np.linalg.norm(w1)
    assert np.linalg.norm(w1 - inverse_via_lq(h)) <= 1e-8 * np.linalg.norm(w1)


# ---------------------------------------------------------------------------
# Decomposition counters
# ---------------------------------------------------------------------------


def test_counters_tick_only_inside_decompositions():
    h = random_channel(1, 3)
    with count_decompositions() as outer:
        lq_decompose(h)
        with count_decompositions() as inner:
            svd_decompose(h)
            svd_decompose(h)
        lq_decompose(h)
    assert (outer.lq, outer.svd) == (2, 2)
    assert (inner.lq, inner.svd) == (0, 2)
    # matrix products must not tick anything
    with count_decompositions() as c:
        _ = h @ h
        _ = np.linalg.norm(h)
    assert c.total == 0


def test_stacked_factorizations_count_one_per_channel():
    hs = np.stack([random_channel(t, 4) for t in range(7)])
    with count_decompositions() as counter:
        lq_decompose(hs)
        svd_decompose(hs[:3])
        lq_decompose(hs[0])
    assert (counter.lq, counter.svd) == (8, 3)


def test_singular_values_are_the_svd_sigma_and_count_one_per_channel():
    hs = np.stack([random_channel(t, 5) for t in range(4)])
    with count_decompositions() as counter:
        sigma = singular_values(hs)
        one = singular_values(hs[2])
    assert (counter.lq, counter.svd) == (0, 5)
    assert sigma.shape == (4, 5) and one.shape == (5,)
    np.testing.assert_array_equal(one, sigma[2])
    np.testing.assert_allclose(sigma, svd_decompose(hs).sigma, rtol=1e-13)
    assert np.all(np.diff(sigma, axis=1) <= 0)


def test_nested_recorders_with_equal_counts_each_count():
    # Recorders compare equal by value; leaving an inner recorder whose
    # counts equal the outer one's must not take the outer one off.
    h = random_channel(2, 3)
    with count_decompositions() as outer:
        with count_decompositions() as inner:
            svd_decompose(h)
        lq_decompose(h)
        with count_decompositions() as second:
            lq_decompose(h)
    assert (outer.lq, outer.svd) == (2, 1)
    assert (inner.lq, inner.svd) == (0, 1)
    assert (second.lq, second.svd) == (1, 0)
    lq_decompose(h)
    assert outer.total == 3


def test_outer_recorder_spans_several_searches():
    n = 4
    h = random_channel(3, n)
    s = np.exp(0.25j * np.pi * np.arange(n))
    k = lq_decompose(h).diag
    with count_decompositions() as outer:
        diagonal_order_search(h, s, k, "average-power")
        diagonal_order_search(h, s, k, "papr")
        naive_order_search(h, s, k)
    assert (outer.lq, outer.svd) == (math.factorial(n), 2)
