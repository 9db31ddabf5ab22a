"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. Tolerances and runtime caps are pinned here, not tuned
elsewhere.
"""

import math
import time
from itertools import permutations

import numpy as np
import pytest

from dpc_perm.channel import ChannelSpec, generate_channel
from dpc_perm.linalg import (
    count_decompositions,
    diagonal_permute,
    lq_decompose,
    permuted_svd,
    svd_decompose,
)
from dpc_perm.modem import make_constellation, qam_modulate
from dpc_perm.ordering import (
    complexity_model,
    diagonal_order_search,
    naive_order_search,
    order_table,
)
from dpc_perm.precoding import dpc_conventional, dpc_linear, waterfill
from dpc_perm.sim import SweepConfig, run_ber_sweep


def channel(seed, n):
    return generate_channel(ChannelSpec(n_users=n, seed=seed))


def qpsk(rng, n):
    return (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2.0)


def report(num, title, detail, elapsed):
    print(f"\nACCEPTANCE {num} PASS - {title}: {detail} ({elapsed:.1f} s)")


def test_criterion_1_theorem1_equivalence():
    # 1000 seeded channels, n cycling over 2..16, random QPSK data:
    # successive DPC vs the one-shot linear precoder, 1e-8 relative.
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 15
        h = channel(42_000 + i, n)
        s = qpsk(rng, n)
        x_conv = dpc_conventional(h, s)
        x_lin = dpc_linear(h, lq_decompose(h).diag) @ s
        rel = np.linalg.norm(x_conv - x_lin) / np.linalg.norm(x_conv)
        worst = max(worst, rel)
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    report(1, "Theorem 1 equivalence", f"max relative difference {worst:.3e} over 1000 channels", elapsed)


def test_criterion_2_theorem2_algorithm1_exactness():
    # n in 2..6, 50 seeded channels each: every per-order vector from the
    # diagonal route matches a fresh LQ-based encode of the permuted
    # channel, and both searches pick identical best orders for AP and
    # PAPR.
    # Each channel's n! permuted channels are encoded as one stack, and
    # the diagonal route's vectors are one batched product.
    start = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in range(2, 7):
        orders = np.array(list(permutations(range(n))))
        for rep in range(50):
            h = channel(52_000 + 100 * n + rep, n)
            s = qpsk(rng, n)
            k = lq_decompose(h).diag
            f = svd_decompose(h)
            b = f.v @ (f.u.conj().T / f.sigma[:, np.newaxis])
            x_naive = dpc_conventional(h[orders], s[orders], gains=k)
            k_perm = np.array([diagonal_permute(k, p) for p in orders])
            x_diag = (k_perm * s) @ b.T
            rel = np.linalg.norm(x_naive - x_diag, axis=1) / np.linalg.norm(x_diag, axis=1)
            worst = max(worst, rel.max())
            for objective in ("average-power", "papr"):
                res_n = naive_order_search(h, s, k, objective)
                res_d = diagonal_order_search(h, s, k, objective)
                assert res_n.best_order.tolist() == res_d.best_order.tolist()
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 60.0
    report(2, "Theorem 2 / Algorithm 1 exactness", f"max per-order relative difference {worst:.3e}", elapsed)


def test_criterion_3_corollary1_waterfilling_order():
    # 100 seeded channels, n in 2..6: exhaustive enumeration of the
    # power functional finds the identity assignment optimal (ties
    # broken lexicographically).
    start = time.time()
    checked = 0
    for i in range(100):
        n = 2 + i % 5
        h = channel(62_000 + i, n)
        sigma = np.linalg.svd(h, compute_uv=False)
        k = waterfill(sigma, float(n))
        lam = sigma**2
        orders = np.array(list(permutations(range(n))))
        values = np.sum(k[np.newaxis, :] ** 2 / lam[orders], axis=1)
        best = values.min()
        ties = values <= best * (1.0 + 1e-12)
        first_tie = int(np.argmax(ties))  # orders are enumerated lexicographically
        assert tuple(orders[first_tie]) == tuple(range(n))
        checked += 1
    elapsed = time.time() - start
    assert checked == 100
    assert elapsed < 30.0
    report(3, "Corollary 1 minimal-power order", "identity optimal for all 100 channels", elapsed)


def test_criterion_4_complexity_counters_and_model():
    # Instrumented searches: exactly n! factorizations for the naive
    # route vs 1 for Algorithm 1, for n up to 7; the model ratio at
    # n = 5 reproduces 10*log10(15000/245).
    start = time.time()
    rng = np.random.default_rng(4)
    for n in range(2, 8):
        h = channel(72_000 + n, n)
        s = qpsk(rng, n)
        k = lq_decompose(h).diag
        with count_decompositions() as c_naive:
            res_n = naive_order_search(h, s, k)
        with count_decompositions() as c_diag:
            res_d = diagonal_order_search(h, s, k)
        assert c_naive.total == math.factorial(n) == res_n.decompositions_performed
        assert c_diag.total == 1 == res_d.decompositions_performed
        assert res_n.permutations_evaluated == res_d.permutations_evaluated == math.factorial(n)
    naive, proposed, ratio = complexity_model(5)
    assert (naive, proposed) == (15000.0, 245.0)
    assert ratio == pytest.approx(10.0 * math.log10(15000.0 / 245.0), abs=1e-12)
    assert ratio == pytest.approx(17.87, abs=0.005)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, "Complexity", f"n! vs 1 factorizations (n<=7); n=5 model ratio {ratio:.2f} dB", elapsed)


def test_criterion_5_ber_equivalence_and_baseline_separation():
    # N = 10 users, QPSK, SNR 0..20 dB step 2, 1e5 bits per point.
    # The two DPC implementations must be statistically indistinguishable
    # at every point, and both must sit below ZF and MMSE with separated
    # 95% intervals at the top two SNR points.
    start = time.time()
    grid = tuple(float(v) for v in range(0, 21, 2))
    base = dict(n_users=10, snr_grid_db=grid, trials_per_point=5000, seed=2024)
    sweeps = {
        prec: run_ber_sweep(SweepConfig(precoder=prec, **base))
        for prec in ("dpc-conventional", "dpc-linear", "zf", "mmse")
    }
    bits_per_point = 5000 * 10 * 2
    for records in sweeps.values():
        assert all(r.bits_sent == bits_per_point for r in records)

    conv, lin = sweeps["dpc-conventional"], sweeps["dpc-linear"]
    for rc, rl in zip(conv, lin):
        assert rc.ci_lo <= rl.ci_hi and rl.ci_lo <= rc.ci_hi  # overlapping CIs

    for idx in (-2, -1):
        for dpc_records in (conv, lin):
            r = dpc_records[idx]
            assert r.ci_hi < sweeps["zf"][idx].ci_lo
            assert r.ci_hi < sweeps["mmse"][idx].ci_lo

    elapsed = time.time() - start
    assert elapsed < 300.0
    top = [f"{r.ber:.2e}" for r in (conv[-1], sweeps['mmse'][-1], sweeps['zf'][-1])]
    report(
        5,
        "BER equivalence and baseline separation",
        f"20 dB BER dpc/mmse/zf = {'/'.join(top)}, CIs separated",
        elapsed,
    )


def test_criterion_6_noiseless_sanity_and_order_spread():
    # Infinite SNR: zero errors, exactly, for every DPC-family sweep.
    # A seeded 4-user 16-QAM instance must spread AP and PAPR strictly
    # across its 24 orders.
    start = time.time()
    for prec in ("dpc-conventional", "dpc-linear", "thp"):
        cfg = SweepConfig(
            n_users=4,
            snr_grid_db=(math.inf,),
            trials_per_point=200,
            constellation_order=16,
            precoder=prec,
            seed=66,
        )
        (rec,) = run_ber_sweep(cfg)
        assert rec.bit_errors == 0 and rec.ber == 0.0

    h = channel(2024, 4)
    c = make_constellation(16)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=4 * c.bits_per_symbol, dtype=np.uint8)
    s = qam_modulate(bits, c)
    rows = order_table(h, s, lq_decompose(h).diag)
    assert len(rows) == 24
    ap_spread = max(r["ap"] for r in rows) - min(r["ap"] for r in rows)
    papr_spread = max(r["papr"] for r in rows) - min(r["papr"] for r in rows)
    assert ap_spread > 1e-6
    assert papr_spread > 1e-6
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(
        6,
        "Noiseless sanity and order spread",
        f"BER 0 at inf SNR; AP spread {ap_spread:.3f}, PAPR spread {papr_spread:.3f}",
        elapsed,
    )


def test_criterion_7_decomposition_property_suite():
    # 1000 seeded channels, n in 2..16: reconstruction, unitarity,
    # triangularity, and ordering at 1e-10 relative tolerance; plus the
    # constructive permutation identity over every order for n <= 5.
    start = time.time()
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 15
        h = channel(82_000 + i, n)
        scale = np.linalg.norm(h)
        lq = lq_decompose(h)
        assert np.max(np.abs(np.triu(lq.l, k=1)), initial=0.0) == 0.0
        d = np.diag(lq.l)
        assert np.all(d.imag == 0.0) and np.all(d.real > 0.0)
        worst = max(worst, np.linalg.norm(lq.q @ lq.q.conj().T - np.eye(n)) / n)
        worst = max(worst, np.linalg.norm(lq.l @ lq.q - h) / scale)
        sv = svd_decompose(h)
        assert np.all(np.diff(sv.sigma) <= 0.0) and np.all(sv.sigma >= 0.0)
        worst = max(worst, np.linalg.norm(sv.u @ sv.u.conj().T - np.eye(n)) / n)
        worst = max(worst, np.linalg.norm(sv.v @ sv.v.conj().T - np.eye(n)) / n)
        worst = max(worst, np.linalg.norm(sv.reconstruct() - h) / scale)
    for n in range(2, 6):
        h = channel(92_000 + n, n)
        f = svd_decompose(h)
        for order in permutations(range(n)):
            fp = permuted_svd(f, order)
            err = np.linalg.norm(fp.reconstruct() - h[list(order), :]) / np.linalg.norm(h)
            worst = max(worst, err)
    elapsed = time.time() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    report(7, "Decomposition property suite", f"worst relative error {worst:.3e}", elapsed)
