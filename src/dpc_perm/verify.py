"""Self-contained property suites behind the ``verify`` CLI command.

Each suite exercises one of the package's structural claims on seeded
random channels and reports pass/fail with a short diagnostic. The
``tol_scale`` knob multiplies the numeric tolerances and exists so
harnesses can prove the suites are able to fail (scale 0 forces the
numeric suites red); the corollary1 suite is a discrete argmin check
and does not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelSpec, generate_channel
from .linalg import lq_diagonal, permuted_svd, svd_decompose
from .ordering import diagonal_order_search, min_power_order_closed_form, naive_order_search
from .precoding import dpc_conventional, dpc_linear, waterfill

__all__ = ["SuiteResult", "SUITES", "run_suites"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _random_channel(seed: int, n: int) -> np.ndarray:
    return generate_channel(ChannelSpec(n_users=n, seed=seed))


def _qpsk_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2.0)


def suite_lemma1(tol_scale: float = 1.0) -> SuiteResult:
    """Row-permuted SVD factors reconstruct the row-permuted channel."""
    tol = 1e-10 * tol_scale
    worst = 0.0
    for n in range(2, 6):
        h = _random_channel(500 + n, n)
        f = svd_decompose(h)
        for order in permutations(range(n)):
            fp = permuted_svd(f, order)
            err = np.linalg.norm(fp.reconstruct() - h[list(order), :]) / np.linalg.norm(h)
            worst = max(worst, err)
    return SuiteResult("lemma1", worst <= tol, f"max relative reconstruction error {worst:.3e}")


def suite_theorem1(tol_scale: float = 1.0) -> SuiteResult:
    """Successive DPC (full LQ) equals the linear route with diag(L) gains
    from the R-only QR."""
    tol = 1e-8 * tol_scale
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(60):
        n = 2 + trial % 9
        h = _random_channel(1000 + trial, n)
        s = _qpsk_vector(rng, n)
        x_conv = dpc_conventional(h, s)
        w = dpc_linear(h, lq_diagonal(h))
        worst = max(worst, np.linalg.norm(x_conv - w @ s) / np.linalg.norm(s))
    return SuiteResult("theorem1", worst <= tol, f"max relative signal difference {worst:.3e}")


def suite_theorem2(tol_scale: float = 1.0) -> SuiteResult:
    """Diagonal-permutation search reproduces the naive oracle exactly."""
    tol = 1e-8 * tol_scale
    rng = np.random.default_rng(11)
    worst = 0.0
    orders_match = True
    counters_ok = True
    for trial in range(6):
        n = 2 + trial % 4
        h = _random_channel(2000 + trial, n)
        s = _qpsk_vector(rng, n)
        k = lq_diagonal(h)
        for objective in ("average-power", "papr"):
            res_n = naive_order_search(h, s, k, objective)
            res_d = diagonal_order_search(h, s, k, objective)
            orders_match &= bool(np.array_equal(res_n.best_order, res_d.best_order))
            worst = max(
                worst,
                np.linalg.norm(res_n.best_signal - res_d.best_signal)
                / np.linalg.norm(res_n.best_signal),
            )
            counters_ok &= res_n.decompositions_performed == math.factorial(n)
            counters_ok &= res_d.decompositions_performed == 1
    passed = worst <= tol and orders_match and counters_ok
    return SuiteResult(
        "theorem2",
        passed,
        f"max signal diff {worst:.3e}, orders match: {orders_match}, counters ok: {counters_ok}",
    )


def suite_corollary1(tol_scale: float = 1.0) -> SuiteResult:
    """For water-filled gains, both searches and the closed form pick the identity order."""
    del tol_scale  # discrete argmin check, nothing to scale
    failures = []
    for trial in range(20):
        n = 2 + trial % 5
        h = _random_channel(3000 + trial, n)
        sigma = np.linalg.svd(h, compute_uv=False)
        k = waterfill(sigma, float(n))
        winners = [
            search(h, np.ones(n), k, "min-power").best_order
            for search in (naive_order_search, diagonal_order_search)
        ]
        winners.append(min_power_order_closed_form(k, sigma))
        if not all(np.array_equal(w, np.arange(n)) for w in winners):
            failures.append(trial)
    passed = not failures
    detail = "identity order minimal for all trials" if passed else f"failing trials: {failures}"
    return SuiteResult("corollary1", passed, detail)


SUITES: dict[str, Callable[[float], SuiteResult]] = {
    "lemma1": suite_lemma1,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "corollary1": suite_corollary1,
}


def run_suites(names: Sequence[str] | None = None, tol_scale: float = 1.0) -> list[SuiteResult]:
    """Run the named suites (all by default) and return their results."""
    selected = list(SUITES) if not names else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}, available: {sorted(SUITES)}")
    return [SUITES[name](tol_scale) for name in selected]
