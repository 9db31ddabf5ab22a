#!/usr/bin/env python3
"""Benchmark of the two dpc-perm hot paths: the Monte Carlo BER sweep and
the precoding-order search.

Run from the repository root:

    python3 bench/run.py --workload sweep-128qam-fixed --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` into this process and timed from
outside, call by call. For ``--seconds`` a workload interleaves the
calls of the sweep and of the order search, each path getting the share
of the time its workload sets, so that every end-to-end metric is
defined on every workload; a call with fewer than two samples by then
is repeated until it has two.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
plain and traced rounds of the workload's traced hot paths and prints
the per-layer metrics; a traced round wraps the functions ``sim`` and
``ordering`` call, and ``trace.overhead_s`` is its extra wall time.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every check passed, 1 when an operation failed,
2 when the library sources are missing.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The matrices are at most 10 x 10, where BLAS threads add scheduling
# noise and no speed.
BLAS_THREADS = 1
MIN_SAMPLES = 2
SETUP_PROBES = 5
# End-to-end times are in reference microseconds (unit ``ref_us``): a
# call's time over the time of one pass of the reference loop around it
# (``workloads.HostSpeed``), counted at 1000 µs a pass. On the 2-vCPU
# host the bounds were set on, a pass takes about 1 ms.
REF_PASS_US = 1000.0

WORKLOAD_NAMES = ("qpsk-sweep-and-search", "sweep-128qam-fixed")


def end_to_end_units(wl) -> dict[str, str]:
    return {
        **{f"sweep_us_per_trial.{p}": "ref_us" for p in wl.PRECODERS},
        **{f"search_us_per_order.{o}": "ref_us" for o in wl.OBJECTIVES},
        "table_us_per_order": "ref_us",
        "naive_us_per_order": "ref_us",
        "setup_s": "s",
        "peak_rss_mb": "MB",
    }


def per_layer_units(wl) -> dict[str, str]:
    """Values are per round of the workload's traced hot paths; a layer the
    workload does not run reads 0."""
    return {
        "channel.streams": "count",
        "channel.stream_s": "s",
        "channel.samples": "count",
        "channel.sample_s": "s",
        "modem.symbols": "count",
        "modem.modulate_s": "s",
        "modem.demodulate_s": "s",
        "modem.margins_s": "s",
        "modem.computed_distance_bytes": "B",
        "precoding.waterfill_calls": "count",
        "precoding.waterfill_s": "s",
        "precoding.bd_calls": "count",
        "precoding.bd_s": "s",
        "linalg.lq": "count",
        "linalg.svd": "count",
        "linalg.lq_s": "s",
        "linalg.svd_s": "s",
        "ordering.orders": "count",
        "ordering.permute_s": "s",
        "ordering.objective_s": "s",
        "ordering.self_s": "s",
        **{
            f"ordering.us_per_order.{o}.n{n}": "us"
            for o in wl.OBJECTIVES
            for n in wl.SEARCH_USERS
        },
        **{f"ordering.measured_ratio_db.n{n}": "dB" for n in wl.SEARCH_USERS},
        **{f"ordering.model_ratio_db.n{n}": "dB" for n in wl.SEARCH_USERS},
        "ordering.computed_flops_per_order": "flop",
        "ordering.achieved_mflops": "MFLOP/s",
        "sim.trials": "count",
        "sim.chunks": "count",
        "sim.bits": "count",
        **{f"sim.self_us_per_trial.{p}": "us" for p in wl.PRECODERS},
        **{f"sim.error_digest.{p}": "count" for p in wl.PRECODERS},
        "trace.overhead_s": "s",
    }


def _import_library() -> None:
    """Put this checkout's ``src`` first on the path; never fall back to an
    installed copy, which would benchmark other code."""
    if not (SRC / "dpc_perm" / "__init__.py").is_file():
        print(f"error: no dpc_perm sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    # Read by OpenBLAS when numpy loads, so set before the first import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import dpc_perm

    if Path(dpc_perm.__file__).resolve().parent != SRC / "dpc_perm":
        print(f"error: dpc_perm imported from {dpc_perm.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _setup_seconds(args, tally) -> list[float]:
    """Wall time of fresh interpreters that import the library and prepare inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
        elapsed = time.perf_counter() - t0
        if tally.check(proc.returncode == 0, f"set-up probe exited {proc.returncode}"):
            samples.append(elapsed)
    return samples


def _median(values: list) -> tuple[float, int] | None:
    return (statistics.median(values), len(values)) if values else None


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced)
# ---------------------------------------------------------------------------


def _interleave(wl, workload, prepared, seconds: float, tally) -> dict:
    """For ``seconds``, cycle through the sweep and the search call lists,
    each call taken from the list furthest below its share of the time;
    then make each call that has fewer than ``MIN_SAMPLES`` samples until
    it has them.

    Interleaving spreads every metric's samples over the whole run, so
    that slow and fast phases of a shared machine reach all of them.
    """
    share = workload.sweep_share
    streams = [(prepared.sweeps, share), (prepared.searches, 1.0 - share)]
    spent, taken = [0.0, 0.0], [0, 0]
    samples = {call.name: wl.Samples() for calls, _ in streams for call in calls}
    speed = wl.HostSpeed()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = min((0, 1), key=lambda j: spent[j] / streams[j][1])
        calls = streams[i][0]
        spent[i] += wl.run_call(calls[taken[i] % len(calls)], samples, tally, speed=speed)
        taken[i] += 1
    for calls, _ in streams:
        for call in calls:
            for _ in range(MIN_SAMPLES - len(samples[call.name].seconds)):
                wl.run_call(call, samples, tally, speed=speed)
    print(f"# reference pass: median {statistics.median(speed.passes) * 1e3:.4f} ms "
          f"of {len(speed.passes)}")
    return samples


def _sum_of_medians(wl, samples, names, orders: int) -> tuple[float, int] | None:
    """Reference µs per order over the calls ``names``: their median
    relative times, summed."""
    times = [wl.relative_of(samples, name) for name in names]
    if not all(times):
        return None
    total = sum(statistics.median(t) for t in times)
    return total / orders * REF_PASS_US, min(map(len, times))


def end_to_end(args, wl, workload, prepared, tally) -> dict:
    setup = _setup_seconds(args, tally)
    samples = _interleave(wl, workload, prepared, args.seconds, tally)
    wl.check_sweeps(prepared.configs, samples, tally)
    wl.check_searches(samples, tally)
    metrics = {}
    for cfg in prepared.configs:
        trials = cfg.trials_per_point * len(cfg.snr_grid_db)
        metrics[f"sweep_us_per_trial.{cfg.precoder}"] = _median(
            [r / trials * REF_PASS_US for r in wl.relative_of(samples, f"sweep.{cfg.precoder}")]
        )
    for o in wl.OBJECTIVES:
        metrics[f"search_us_per_order.{o}"] = _sum_of_medians(
            wl, samples, [f"search.{o}.n{n}" for n in wl.SEARCH_USERS], wl.SEARCH_ORDERS
        )
    metrics["table_us_per_order"] = _sum_of_medians(
        wl, samples, [f"table.n{n}" for n in wl.SEARCH_USERS], wl.SEARCH_ORDERS
    )
    metrics["naive_us_per_order"] = _sum_of_medians(
        wl, samples, [f"naive.n{n}" for n in wl.SEARCH_USERS], wl.SEARCH_ORDERS
    )
    metrics["setup_s"] = _median(setup)
    # ru_maxrss is in KiB on Linux; children (probes, pool workers) are excluded.
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return metrics


# ---------------------------------------------------------------------------
# Per-layer metrics (traced)
# ---------------------------------------------------------------------------


def _trace_targets(tracer) -> list:
    from dpc_perm import ordering, sim

    def demod_count(y, c):
        return {"modem.symbols": y.size, "modem.distance_bytes": _distance_bytes(y, c)}

    def margins_count(y, c):
        return {"modem.distance_bytes": _distance_bytes(y, c)}

    def span(name, count=None):
        return lambda fn: tracer.wrap(name, fn, count)

    return [
        (sim, "stream", span("channel.stream")),
        (sim, "sample_channel", span("channel.sample")),
        (sim, "qam_modulate", span("modem.modulate")),
        (sim, "qam_demodulate", span("modem.demodulate", demod_count)),
        (sim, "decision_margins", span("modem.margins", margins_count)),
        (sim, "waterfill", span("precoding.waterfill")),
        (sim, "bd_precode", span("precoding.bd")),
        # The chunk is the sweep's unit of work; it has no public seam.
        (sim, "_simulate_chunk", lambda fn: tracer.tally("sim.chunks", fn)),
        (ordering, "svd_decompose", span("linalg.svd")),
        (ordering, "lq_decompose", span("linalg.lq")),
        (ordering, "diagonal_permute", span("ordering.permute")),
        (ordering, "objective_ap", span("ordering.objective")),
        (ordering, "objective_papr", span("ordering.objective")),
    ]


def _distance_bytes(y, c) -> int:
    """Computed, not measured: the N x M complex difference (16 B) and real
    distance (8 B) matrices a full-search demodulator materialises."""
    return 24 * int(y.size) * c.order


def _counting_span(tracer):
    """Span of one top-level call that also counts its LQ/SVD factorizations
    with the library's recorder.

    One recorder per call: ``count_decompositions`` removes a finished
    recorder from its stack by value, so a search's own inner recorder
    takes an equal outer one with it, and an outer recorder held across
    several searches stops counting after the first.
    """
    from dpc_perm.linalg import count_decompositions

    @contextmanager
    def span(name):
        with tracer.span(name), count_decompositions() as counter:
            yield
        tracer.counts["linalg.lq"] += counter.lq
        tracer.counts["linalg.svd"] += counter.svd

    return span


def _traced_layers(wl, prepared, samples, tracer) -> dict:
    """Per-layer metrics of one traced round."""
    m = {
        "channel.streams": tracer.calls("channel.stream"),
        "channel.stream_s": tracer.total("channel.stream"),
        "channel.samples": tracer.calls("channel.sample"),
        "channel.sample_s": tracer.total("channel.sample"),
        "modem.symbols": tracer.counts["modem.symbols"],
        "modem.modulate_s": tracer.total("modem.modulate"),
        "modem.demodulate_s": tracer.total("modem.demodulate"),
        "modem.margins_s": tracer.total("modem.margins"),
        "modem.computed_distance_bytes": tracer.counts["modem.distance_bytes"],
        "precoding.waterfill_calls": tracer.calls("precoding.waterfill"),
        "precoding.waterfill_s": tracer.total("precoding.waterfill"),
        "precoding.bd_calls": tracer.calls("precoding.bd"),
        "precoding.bd_s": tracer.total("precoding.bd"),
        "linalg.lq": tracer.counts["linalg.lq"],
        "linalg.svd": tracer.counts["linalg.svd"],
        "linalg.lq_s": tracer.total("linalg.lq"),
        "linalg.svd_s": tracer.total("linalg.svd"),
        "ordering.permute_s": tracer.total("ordering.permute"),
        "ordering.objective_s": tracer.total("ordering.objective"),
        "ordering.self_s": sum(tracer.self_time(p) for p in ("search.", "table.", "naive.")),
        "sim.chunks": tracer.counts["sim.chunks"],
    }
    orders = 0
    for name in samples:
        out = wl.first(samples, name)
        if name.startswith("table.") and out is not None:
            orders += len(out)
        elif not name.startswith("sweep.") and out is not None:
            orders += out.permutations_evaluated
    m["ordering.orders"] = orders
    trials, bits = 0, 0
    for cfg in prepared.configs:
        records = wl.first(samples, f"sweep.{cfg.precoder}")
        if records is None:
            continue
        n = cfg.trials_per_point * len(cfg.snr_grid_db)
        trials += n
        bits += sum(r.bits_sent for r in records)
        self_s = tracer.self_time(f"sweep.{cfg.precoder}")
        m[f"sim.self_us_per_trial.{cfg.precoder}"] = self_s / n * 1e6
    m["sim.trials"], m["sim.bits"] = trials, bits
    for p, counts in wl.first_error_counts(samples).items():
        m[f"sim.error_digest.{p}"] = wl.error_digest(counts)
    return m


def _search_layers(wl, samples) -> dict:
    """Per-n costs of the order search, from untraced calls."""
    from dpc_perm.ordering import complexity_model

    def median_s(name):
        return statistics.median(wl.seconds_of(samples, name))

    m = {}
    flops = seconds = 0.0
    for n in wl.SEARCH_USERS:
        orders = math.factorial(n)
        for o in wl.OBJECTIVES:
            t = median_s(f"search.{o}.n{n}")
            m[f"ordering.us_per_order.{o}.n{n}"] = t / orders * 1e6
            # b @ (k * s): n^2 complex multiply-adds, 8 real flops each.
            flops += 8 * n * n * orders
            seconds += t
    for n in wl.SEARCH_USERS:
        ratio = median_s(f"naive.n{n}") / median_s(f"search.average-power.n{n}")
        m[f"ordering.measured_ratio_db.n{n}"] = 10 * math.log10(ratio)
        m[f"ordering.model_ratio_db.n{n}"] = complexity_model(n)[2]
    m["ordering.computed_flops_per_order"] = flops / (len(wl.OBJECTIVES) * wl.SEARCH_ORDERS)
    m["ordering.achieved_mflops"] = flops / seconds / 1e6
    return m


def per_layer(args, wl, workload, prepared, tally) -> dict:
    """Alternate plain and traced rounds of the traced hot paths while another
    pair fits in ``seconds`` (at least one pair); report each layer
    metric's median over traced rounds."""
    from tracing import Tracer, patched

    def check(samples, tally):
        wl.check_sweeps(prepared.configs, samples, tally)
        wl.check_searches(samples, tally)

    traced_calls = [
        call for path in workload.traced
        for call in {"sweep": prepared.sweeps, "search": prepared.searches}[path]
    ]
    plain, walls, layers = {}, [], []
    start = time.perf_counter()
    while not walls or (
        time.perf_counter() - start + statistics.mean(map(sum, walls)) <= args.seconds
    ):
        t0 = time.perf_counter()
        for call in traced_calls:
            wl.run_call(call, plain, tally)
        t1 = time.perf_counter()
        tracer, rnd = Tracer(), {}
        with patched(_trace_targets(tracer)):
            for call in traced_calls:
                wl.run_call(call, rnd, tally, _counting_span(tracer))
        walls.append((t1 - t0, time.perf_counter() - t1))
        layers.append(_traced_layers(wl, prepared, rnd, tracer))
        check(rnd, tally)
        for name, rec in rnd.items():
            if rec.first is not None and plain[name].first is not None:
                tally.check(
                    rec.fingerprint == plain[name].fingerprint,
                    f"{name} result changed under tracing",
                )
    check(plain, tally)
    if "search" in workload.traced:
        search = _search_layers(wl, plain)
        layers = [{**m, **search} for m in layers]
    metrics = {name: _median([m.get(name, 0) for m in layers]) for name in per_layer_units(wl)}
    metrics["trace.overhead_s"] = (
        statistics.median(w[1] for w in walls) - statistics.median(w[0] for w in walls),
        len(walls),
    )
    return metrics


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _environment() -> str:
    import numpy as np

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, nproc {nproc}, "
        f"BLAS threads {BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS)"
    )


def report(args, units: dict, measured: dict, tally) -> dict:
    """Print one line per metric, with its sample count, and return the result object."""
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    print(f"# {_environment()}")
    metrics = {}
    for name, unit in units.items():
        if measured.get(name) is None:
            tally.check(False, f"{name} has no sample")
            continue
        value, count = measured[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<44} {value:>16.10g} {unit:<8} median of {count}")
    print(f"# operations attempted {tally.attempted}, failed {tally.failed}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_library()
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    prepared = wl.prepare(workload, args.seed)
    if args.setup_probe:
        return 0
    tally = wl.Tally()
    wl.check_workers(args.seed, tally)
    if args.trace:
        units, measured = per_layer_units(wl), per_layer(args, wl, workload, prepared, tally)
    else:
        units, measured = end_to_end_units(wl), end_to_end(args, wl, workload, prepared, tally)
    result = report(args, units, measured, tally)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
