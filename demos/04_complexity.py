#!/usr/bin/env python3
"""Search cost: n! factorizations versus one.

The model counts one cubic factorization per enumerated order for the
naive search (n^3 n!) against a single factorization plus n! diagonal
permutations (n^3 + n!). The measured columns come from instrumented
runs of both searches on random channels; the counters are incremented
inside the factorization routines themselves.
"""

import numpy as np

from dpc_perm import (
    ChannelSpec,
    complexity_model,
    count_decompositions,
    diagonal_order_search,
    generate_channel,
    lq_diagonal,
    naive_order_search,
)

print(f"{'n':>3} {'naive n^3 n!':>14} {'proposed n^3+n!':>16} {'ratio':>10} {'measured':>12}")
rng = np.random.default_rng(0)
for n in range(1, 11):
    naive, proposed, ratio = complexity_model(n)
    measured = ""
    if n <= 7:
        h = generate_channel(ChannelSpec(n_users=n, seed=100 + n))
        s = (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2.0)
        gains = lq_diagonal(h)
        with count_decompositions() as c_naive:
            naive_order_search(h, s, gains)
        with count_decompositions() as c_diag:
            diagonal_order_search(h, s, gains)
        measured = f"{c_naive.total} vs {c_diag.total}"
    print(f"{n:>3} {naive:>14.4g} {proposed:>16.4g} {ratio:>8.2f} dB {measured:>12}")

print("\nAt n = 5 the model ratio is 10*log10(15000/245) = "
      f"{complexity_model(5)[2]:.2f} dB, i.e. roughly 20 dB less work.")
