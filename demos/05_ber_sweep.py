#!/usr/bin/env python3
"""Desk-scale Monte Carlo BER comparison, 10 users, QPSK.

Both DPC implementations see identical random draws (channels, bits
and noise are a function of seed and trial only, shared by every SNR
point), so their error counts match bit for bit. The baselines are normalized to
the same transmit power budget. CSVs land in demos/out/ with
provenance headers; rerunning reproduces them byte for byte.

Roughly 20k bits per SNR point here to stay quick; scale
trials_per_point up for publication-grade curves.
"""

from pathlib import Path

from dpc_perm.sim import SweepConfig, run_ber_sweep, sweep_csv_name, write_ber_csv, write_manifest

out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)

grid = tuple(float(v) for v in range(0, 21, 4))
results = []
print(f"{'snr_db':>7}", end="")
sweeps = ("dpc-conventional", "dpc-linear", "thp", "mmse", "zf")
for prec in sweeps:
    print(f"{prec:>18}", end="")
print()

records_by_precoder = {}
for prec in sweeps:
    cfg = SweepConfig(
        n_users=10,
        snr_grid_db=grid,
        trials_per_point=1000,
        constellation_order=4,
        precoder=prec,
        seed=2024,
    )
    records = run_ber_sweep(cfg)
    records_by_precoder[prec] = records
    results.append((cfg, records))
    write_ber_csv(records, cfg, out / sweep_csv_name(cfg))

for i, snr in enumerate(grid):
    print(f"{snr:>7.0f}", end="")
    for prec in sweeps:
        print(f"{records_by_precoder[prec][i].ber:>18.3e}", end="")
    print()

write_manifest(results, out / "manifest.json")
print(f"\nwrote {len(results)} CSVs and manifest.json under {out}")
conv = records_by_precoder["dpc-conventional"]
lin = records_by_precoder["dpc-linear"]
same = all(a.bit_errors == b.bit_errors for a, b in zip(conv, lin))
print(f"conventional and linear DPC error counts identical: {same}")
