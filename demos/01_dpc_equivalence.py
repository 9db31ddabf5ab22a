#!/usr/bin/env python3
"""Two implementations of dirty paper coding, one precoded signal.

The successive implementation factors the channel as H = LQ and runs a
feedback loop that pre-subtracts the interference each user would see.
The linear implementation applies W = V diag(1/sigma) U^H diag(k), which
for the identity order is the channel inverse H^-1 diag(k). Both deliver
y_n = k_n s_n + v_n with k = diag(L), and the transmit vectors agree to
rounding error.
"""

import numpy as np

from dpc_perm import (
    ChannelSpec,
    dpc_conventional,
    dpc_linear,
    generate_channel,
    lq_decompose,
    lq_not_permutation_linear_witness,
    permuted_svd,
    svd_decompose,
)

rng = np.random.default_rng(7)
n = 6
h = generate_channel(ChannelSpec(n_users=n, seed=11))
s = (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2.0)

print("=== Conventional (successive) DPC ===")
factors = lq_decompose(h)
x_conv = dpc_conventional(h, s)
print(f"per-user gains diag(L): {np.round(factors.diag, 3)}")
print(f"noise-free receive H x - diag(L) s: {np.linalg.norm(h @ x_conv - factors.diag * s):.2e}")

print("\n=== Linear DPC, W = V S^-1 U^H K = H^-1 K, with the same gains ===")
w = dpc_linear(h, factors.diag)
x_lin = w @ s
print(f"||x_conv - W s|| / ||s|| = {np.linalg.norm(x_conv - x_lin) / np.linalg.norm(s):.2e}")
print(f"effective channel H W is diagonal to {np.linalg.norm(h @ w - np.diag(factors.diag)):.2e}")

print("\n=== Why the linear route wins under permutation ===")
f = svd_decompose(h)
order = rng.permutation(n)
fp = permuted_svd(f, order)
recon = np.linalg.norm(fp.reconstruct() - h[order, :]) / np.linalg.norm(h)
print(f"row order {order}: permuting U alone reconstructs the permuted channel ({recon:.2e})")
print(
    "permuting the LQ lower factor breaks triangularity:",
    lq_not_permutation_linear_witness(h, order),
)
print("so conventional DPC must re-factorize per order, the SVD route never does.")
