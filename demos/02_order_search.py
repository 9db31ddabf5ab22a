#!/usr/bin/env python3
"""Precoding-order search: 24 orders, one factorization.

A 4-user channel with 16-QAM data. Every precoding order reassigns the
effective gains across users and changes the transmit signal's average
power and PAPR. The naive search re-factorizes the channel for each of
the 4! = 24 orders; the diagonal-permutation search factors once and
permutes a diagonal matrix, finding the same winners.
"""

import numpy as np

from dpc_perm import (
    ChannelSpec,
    count_decompositions,
    diagonal_order_search,
    generate_channel,
    lq_diagonal,
    make_constellation,
    naive_order_search,
    order_table,
    qam_modulate,
)

n = 4
h = generate_channel(ChannelSpec(n_users=n, seed=2024))
c = make_constellation(16)
rng = np.random.default_rng(1)
bits = rng.integers(0, 2, size=n * c.bits_per_symbol, dtype=np.uint8)
s = qam_modulate(bits, c)
gains = lq_diagonal(h)

rows = order_table(h, s, gains)
print(f"=== AP and PAPR for all {len(rows)} precoding orders ===")
print(f"{'order':>14} {'AP':>8} {'PAPR':>8}")
for row in rows:
    print(f"{str(row['order']):>14} {row['ap']:8.4f} {row['papr']:8.4f}")

aps = [r["ap"] for r in rows]
paprs = [r["papr"] for r in rows]
print(f"\nAP range   {min(aps):.4f} .. {max(aps):.4f}")
print(f"PAPR range {min(paprs):.4f} .. {max(paprs):.4f}")

print("\n=== Search cost: naive vs diagonal permutation ===")
for objective in ("average-power", "papr"):
    with count_decompositions() as c_naive:
        res_naive = naive_order_search(h, s, gains, objective)
    with count_decompositions() as c_diag:
        res_diag = diagonal_order_search(h, s, gains, objective)
    agree = "identical" if np.array_equal(res_naive.best_order, res_diag.best_order) else "DIFFERENT"
    best = tuple(res_diag.best_order.tolist())
    print(
        f"{objective:>14}: best order {best} value {res_diag.best_value:.4f}"
        f" | factorizations {c_naive.total} vs {c_diag.total} | winners {agree}"
    )
