"""Command-line front end.

Commands
--------
ber-sweep     Run Monte Carlo BER sweeps from a JSON config; one CSV per
              (precoder, modulation) plus a JSON manifest.
order-search  Enumerate precoding orders for one channel; per-order
              AP/PAPR table and best orders, optionally cross-checked
              against the naive re-decomposition oracle.
complexity    Decomposition-cost model table with instrumented counts.
verify        Run the built-in property suites.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric failure, 4 a worker process of a parallel sweep died. Numeric
and worker failures name where the sweep stopped (see
:func:`dpc_perm.sim.run_ber_sweep`). Identical invocations produce
byte-identical output files (no timestamps anywhere).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelSpec, generate_channel
from .exceptions import ConfigError, DpcPermError, OrderSpaceTooLarge, WorkerCrashed
from .linalg import lq_decompose
from .modem import QAM_ORDERS, make_constellation, qam_modulate
from .ordering import (
    MAX_ENUM_USERS,
    complexity_model,
    diagonal_order_search,
    naive_order_search,
    order_table,
)
from .sim import (
    SweepConfig,
    config_hash,
    config_int,
    config_object,
    resolve_workers,
    run_ber_sweep,
    sweep_csv_name,
    write_ber_csv,
    write_manifest,
)
from .verify import SUITES, run_suites

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_WORKER = 4

# Calls of each search per n behind the wall-time ratio of `complexity`.
_TIMED_RUNS = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpc-perm", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"dpc-perm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ber = sub.add_parser("ber-sweep", help="run Monte Carlo BER sweeps")
    p_ber.add_argument("--config", required=True, help="JSON sweep config path")
    p_ber.add_argument("--out", default=".", help="output directory")
    p_ber.add_argument("--seed", type=int, default=None, help="override config seed")
    p_ber.add_argument("--workers", type=int, default=None, help="parallel workers (env DPC_PERM_WORKERS)")

    p_ord = sub.add_parser("order-search", help="enumerate precoding orders for one channel")
    p_ord.add_argument("--config", required=True, help="JSON order-search config path")
    p_ord.add_argument("--out", default=".", help="output directory")
    p_ord.add_argument("--seed", type=int, default=None, help="override config seed")
    p_ord.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the diagonal search against the naive oracle",
    )

    p_cx = sub.add_parser("complexity", help="search-cost model and measured counters")
    p_cx.add_argument("--n-max", type=int, default=7, help="largest user count (<= 12)")
    p_cx.add_argument("--out", default=".", help="output directory")
    p_cx.add_argument("--seed", type=int, default=0, help="seed for the instrumented runs")

    p_ver = sub.add_parser("verify", help="run the property suites")
    p_ver.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        help=f"run only this suite (repeatable); one of {sorted(SUITES)}",
    )
    p_ver.add_argument("--tol-scale", type=float, default=1.0, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "ber-sweep": _cmd_ber_sweep,
        "order-search": _cmd_order_search,
        "complexity": _cmd_complexity,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, OrderSpaceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except WorkerCrashed as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return _EXIT_WORKER
    except DpcPermError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to parse") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_ber_sweep(args) -> int:
    raw = _load_json(args.config)
    sweeps = [raw]
    if isinstance(raw, dict) and "sweeps" in raw:
        config_object(raw, "ber-sweep config", ("sweeps",), ("sweeps",))
        sweeps = raw["sweeps"]
    if not isinstance(sweeps, list) or not sweeps:
        raise ConfigError("config must be a sweep object or {'sweeps': [...]}")
    configs = []
    for entry in sweeps:
        if args.seed is not None and isinstance(entry, dict):
            entry = {**entry, "seed": args.seed}
        configs.append(SweepConfig.from_dict(entry))
    csv_names = [sweep_csv_name(cfg) for cfg in configs]
    for name in csv_names:
        if csv_names.count(name) > 1:
            raise ConfigError(
                f"two sweeps would write {name}: each sweep needs its own "
                "(precoder, modulation) pair"
            )
    workers = resolve_workers(args.workers)
    out = _out_dir(args)
    results = []
    for cfg in configs:
        records = run_ber_sweep(cfg, workers=workers)
        csv_path = out / sweep_csv_name(cfg)
        write_ber_csv(records, cfg, csv_path)
        results.append((cfg, records))
        print(f"wrote {csv_path}")
    manifest = out / "manifest.json"
    write_manifest(results, manifest)
    print(f"wrote {manifest}")
    return _EXIT_OK


def _order_search_config(raw: dict, seed_override) -> dict:
    defaults = {"constellation_order": 16, "symbol_seed": 1, "gain_mode": "diag-L"}
    required = ("n_users", "seed")
    config_object(raw, "order-search config", required, (*required, *defaults))
    cfg = {**defaults, **raw}
    if seed_override is not None:
        cfg["seed"] = seed_override
    for field_name, minimum in (
        ("n_users", 1),
        ("seed", 0),
        ("constellation_order", 1),
        ("symbol_seed", 0),
    ):
        cfg[field_name] = config_int(cfg[field_name], field_name, minimum)
    if cfg["constellation_order"] not in QAM_ORDERS:
        raise ConfigError(
            f"invalid value for field 'constellation_order': expected one of {QAM_ORDERS}"
        )
    if cfg["gain_mode"] != "diag-L":
        # The order search evaluates DPC with the diag(L) gains of the
        # channel; a water-filled gain vector is not implemented here.
        raise ConfigError(
            f"invalid value for field 'gain_mode': {cfg['gain_mode']!r} "
            "(order-search supports only 'diag-L')"
        )
    if cfg["n_users"] > MAX_ENUM_USERS:
        raise ConfigError(
            f"n_users={cfg['n_users']} exceeds the n <= {MAX_ENUM_USERS} "
            "enumeration guard (OrderSpaceTooLarge)"
        )
    return cfg


def _cmd_order_search(args) -> int:
    cfg = _order_search_config(_load_json(args.config), args.seed)
    n = cfg["n_users"]
    h = generate_channel(ChannelSpec(n_users=n, seed=cfg["seed"]))
    c = make_constellation(cfg["constellation_order"])
    rng = np.random.default_rng(cfg["symbol_seed"])
    bits = rng.integers(0, 2, size=n * c.bits_per_symbol, dtype=np.uint8)
    s = qam_modulate(bits, c)
    gains = lq_decompose(h).diag

    table = order_table(h, s, gains)
    report = {
        "tool": "dpc-perm",
        "version": __version__,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "orders": table,
    }
    for objective in ("average-power", "papr"):
        res = diagonal_order_search(h, s, gains, objective)
        entry = {
            "best_order": res.best_order.tolist(),
            "best_value": res.best_value,
            "decompositions": res.decompositions_performed,
            "permutations_evaluated": res.permutations_evaluated,
        }
        if args.verify:
            ref = naive_order_search(h, s, gains, objective)
            agrees = bool(np.array_equal(ref.best_order, res.best_order))
            rel = float(
                np.linalg.norm(ref.best_signal - res.best_signal)
                / np.linalg.norm(ref.best_signal)
            )
            entry["naive_decompositions"] = ref.decompositions_performed
            entry["agrees_with_naive"] = agrees and rel <= 1e-8
            if not entry["agrees_with_naive"]:
                print(
                    f"verification failure: {objective}: diagonal search disagrees with the "
                    f"naive oracle (rel diff {rel:.3e})",
                    file=sys.stderr,
                )
                return _EXIT_VERIFY
        report[objective] = entry
        print(
            f"{objective}: best order {entry['best_order']} "
            f"value {entry['best_value']:.6g} "
            f"(decompositions: {entry['decompositions']})"
        )

    out = _out_dir(args) / "order_search.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"wrote {out} ({len(table)} orders)")
    return _EXIT_OK


def _median_seconds(search, args: tuple):
    """Median seconds of ``_TIMED_RUNS`` calls of ``search(*args)``, and the last result."""
    seconds = []
    for _ in range(_TIMED_RUNS):
        start = time.perf_counter()
        res = search(*args)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), res


def _cmd_complexity(args) -> int:
    if args.n_max < 1 or args.n_max > 12:
        raise ConfigError("n-max must be between 1 and 12")
    seed = config_int(args.seed, "seed", 0)
    measured_limit = 7
    lines = [
        f"# dpc-perm {__version__}",
        f"# config_hash={config_hash({'n_max': args.n_max, 'seed': seed})}",
        f"# seed={seed}",
        "n,naive_model,proposed_model,ratio_db,measured_naive_decomps,measured_proposed_decomps",
    ]
    for n in range(1, args.n_max + 1):
        naive, proposed, ratio = complexity_model(n)
        measured_naive = measured_proposed = measured = ""
        if n <= measured_limit:
            h = generate_channel(ChannelSpec(n_users=n, seed=seed + n))
            rng = np.random.default_rng(seed + n)
            s = (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2)
            search = (h, s, lq_decompose(h).diag, "average-power")
            diagonal_order_search(*search)  # untimed: fills the per-n order tables
            naive_s, res_naive = _median_seconds(naive_order_search, search)
            diag_s, res_diag = _median_seconds(diagonal_order_search, search)
            wall_db = 10.0 * math.log10(naive_s / diag_s)
            measured_naive = str(res_naive.decompositions_performed)
            measured_proposed = str(res_diag.decompositions_performed)
            measured = (f", measured {measured_naive} vs {measured_proposed},"
                        f" wall-time ratio {wall_db:+.2f} dB")
        lines.append(
            f"{n},{naive:.12g},{proposed:.12g},{ratio:.6f},{measured_naive},{measured_proposed}"
        )
        print(f"n={n}: model ratio {ratio:+.2f} dB{measured}")
    out = _out_dir(args) / "complexity.csv"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return _EXIT_OK


def _cmd_verify(args) -> int:
    try:
        results = run_suites(args.suite, tol_scale=args.tol_scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return _EXIT_OK if failed == 0 else _EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
