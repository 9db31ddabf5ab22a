"""End-to-end tests of the command-line interface."""

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpc_perm import cli, ordering, sim
from dpc_perm.exceptions import WorkerCrashed


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("DPC_PERM_WORKERS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "dpc_perm", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture()
def sweep_config(tmp_path):
    cfg = {
        "n_users": 4,
        "snr_grid_db": [0, 6, "inf"],
        "trials_per_point": 120,
        "constellation_order": 4,
        "precoder": "dpc-linear",
        "channel_mode": "fixed-channel",
        "seed": 7,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def test_ber_sweep_writes_csv_and_manifest(tmp_path, sweep_config):
    out = tmp_path / "out"
    res = run_cli("ber-sweep", "--config", str(sweep_config), "--out", str(out))
    assert res.returncode == 0, res.stderr
    csv_path = out / "ber_dpc-linear_qpsk.csv"
    assert csv_path.exists()
    rows = [ln for ln in csv_path.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 1 + 3  # header + one row per SNR point
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sweeps"][0]["config"]["seed"] == 7
    # the noiseless point is error free for the DPC family
    assert rows[-1].split(",")[2] == "0"


def test_ber_sweep_byte_identical_reruns(tmp_path, sweep_config):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert run_cli("ber-sweep", "--config", str(sweep_config), "--out", str(out1)).returncode == 0
    assert run_cli("ber-sweep", "--config", str(sweep_config), "--out", str(out2)).returncode == 0
    name = "ber_dpc-linear_qpsk.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_ber_sweep_workers_flag_matches_serial(tmp_path, sweep_config):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert run_cli("ber-sweep", "--config", str(sweep_config), "--out", str(out1)).returncode == 0
    res = run_cli(
        "ber-sweep", "--config", str(sweep_config), "--out", str(out2),
        env_extra={"DPC_PERM_WORKERS": "2"},
    )
    assert res.returncode == 0, res.stderr
    name = "ber_dpc-linear_qpsk.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "flag, env",
    [(["--workers", "65"], None), ([], {"DPC_PERM_WORKERS": "65"})],
    ids=["flag", "env"],
)
def test_ber_sweep_above_the_worker_cap_exits_2(tmp_path, sweep_config, flag, env):
    out = tmp_path / "o"
    args = ("ber-sweep", "--config", str(sweep_config), "--out", str(out), *flag)
    res = run_cli(*args, env_extra=env)
    assert res.returncode == 2
    assert "above the limit of 64 worker processes" in res.stderr
    assert not out.exists()


def test_ber_sweep_missing_field_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_users": 4, "trials_per_point": 10}))
    res = run_cli("ber-sweep", "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "snr_grid_db" in res.stderr


def test_ber_sweep_seed_override(tmp_path, sweep_config):
    out = tmp_path / "o"
    res = run_cli(
        "ber-sweep", "--config", str(sweep_config), "--out", str(out), "--seed", "99"
    )
    assert res.returncode == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sweeps"][0]["config"]["seed"] == 99


# The fixed-channel 128-QAM sweeps (thp, bd, zf, water-filled dpc-linear;
# seed 3), the byte-for-byte gate of the fixed-channel paths: the channel's
# design, made once per sweep and sent to every worker, and THP's one pilot
# batch per chunk. zf has the most samples outside the decision table's box
# (its 0 dB point), so it gates the edge-list decisions.
FIXED_CHANNEL_SWEEPS = Path(__file__).with_name("fixed_channel_sweeps.json")
FIXED_CHANNEL_SHA256 = {
    "ber_thp_128-qam.csv": "21ca3118472a15c91bd8814ff31b751255cc6e08646c2206c65a4a2356212ff4",
    "ber_bd_128-qam.csv": "2e0ca4e70e9771866e8ce1be56664762b85486c68e275fe5ed9eff2efeae1d5f",
    "ber_zf_128-qam.csv": "0e920a7b3eae1a3cb0c90d8c851e3906b0a548588ca9320332a8f798865651ff",
    "ber_dpc-linear_128-qam.csv": "0c5b09222e90add7a49a6d4e723c7dac0cb846f9e60081cecd526507dc1de55f",
    "manifest.json": "37b1e04f60203b181fe50b82ec18e56f72621abb12f22fbe195d7ed592d95372",
}


def test_fixed_channel_sweeps_are_pinned_and_worker_count_free(tmp_path):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"fixed-{workers}"
        args = ("--config", str(FIXED_CHANNEL_SWEEPS), "--out", str(out), "--workers", workers)
        res = run_cli("ber-sweep", *args)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(FIXED_CHANNEL_SHA256)
    for name, digest in FIXED_CHANNEL_SHA256.items():
        data = (outs[0] / name).read_bytes()
        assert data == (outs[1] / name).read_bytes(), name
        assert hashlib.sha256(data).hexdigest() == digest, name


# Demo 05's committed outputs: five per-trial QPSK sweeps at 1000 trials a
# point and their manifest. This test runs a copy of the script, which
# writes next to itself, so the checkout is left alone.
DEMO_BER_SWEEP = Path(__file__).resolve().parents[1] / "demos" / "05_ber_sweep.py"
DEMO_OUTPUTS = (
    "ber_dpc-conventional_qpsk.csv",
    "ber_dpc-linear_qpsk.csv",
    "ber_thp_qpsk.csv",
    "ber_mmse_qpsk.csv",
    "ber_zf_qpsk.csv",
    "manifest.json",
)


def csv_columns(path, count):
    """The first ``count`` columns of a CSV's lines that are not comments."""
    lines = path.read_text().splitlines()
    return [line.split(",")[:count] for line in lines if not line.startswith("#")]


def test_demo_ber_sweep_reproduces_demos_out_at_1_and_2_workers(tmp_path):
    script = tmp_path / DEMO_BER_SWEEP.name
    shutil.copyfile(DEMO_BER_SWEEP, script)
    committed = DEMO_BER_SWEEP.parent / "out"
    out = tmp_path / "out"
    env = dict(os.environ)
    src = str(Path(sim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for workers in ("1", "2"):
        shutil.rmtree(out, ignore_errors=True)
        env["DPC_PERM_WORKERS"] = workers
        res = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(DEMO_OUTPUTS)
        for name in DEMO_OUTPUTS:
            assert (out / name).read_bytes() == (committed / name).read_bytes(), (workers, name)
        # Theorem 1: both DPC curves count the same errors at every point.
        conventional, linear = (out / name for name in DEMO_OUTPUTS[:2])
        assert csv_columns(conventional, 3) == csv_columns(linear, 3)
        assert "conventional and linear DPC error counts identical: True" in res.stdout


# The per-trial 128-QAM sweeps, one group a config, each run into its
# own directory: a CSV name ignores the gain mode, so the two DPC pairs
# cannot share one. THP feeds each chunk's one pilot batch back through
# every trial's channel; the water-filled pair water-fills each chunk's
# stack of singular values in one call; the diag-L pair takes its gains
# from the full LQ (successive) and from the R-only QR (linear).
PER_TRIAL_128QAM_SWEEPS = Path(__file__).with_name("per_trial_128qam_sweeps.json")


@pytest.mark.parametrize("group", ["thp", "waterfill-dpc-pair", "diag-L-dpc-pair"])
def test_per_trial_128qam_sweeps_are_worker_count_free(tmp_path, group):
    sweeps = json.loads(PER_TRIAL_128QAM_SWEEPS.read_text())[group]
    config = tmp_path / f"{group}.json"
    config.write_text(json.dumps(sweeps))
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"{group}-{workers}"
        res = run_cli("ber-sweep", "--config", str(config), "--out", str(out), "--workers", workers)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert len(names) == len(sweeps["sweeps"]) + 1  # and the manifest
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    if group.endswith("dpc-pair"):
        # Theorem 1: the linear and the successive DPC decide every symbol
        # alike, so snr_db, bits and errors agree at every point.
        conventional, linear = (outs[0] / f"ber_{p}_128-qam.csv" for p in sim._DPC_FAMILY)
        assert csv_columns(conventional, 3) == csv_columns(linear, 3)


def test_order_search_table_and_verify(tmp_path):
    cfg = tmp_path / "os.json"
    cfg.write_text(json.dumps({"n_users": 4, "seed": 3, "constellation_order": 16}))
    out = tmp_path / "o"
    res = run_cli("order-search", "--config", str(cfg), "--out", str(out), "--verify")
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "order_search.json").read_text())
    assert len(report["orders"]) == 24
    for objective in ("average-power", "papr"):
        entry = report[objective]
        assert entry["agrees_with_naive"] is True
        assert entry["decompositions"] == 1
        assert entry["naive_decompositions"] == 24


def test_order_search_report_bytes_are_pinned(tmp_path):
    # The sha256 of the whole report at n = 5, seed 3: its order rows (in the
    # lexicographic order of the tie rule), values, winners and counters.
    cfg = tmp_path / "os.json"
    cfg.write_text(json.dumps({"n_users": 5, "seed": 3}))
    out = tmp_path / "o"
    assert cli.main(["order-search", "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "order_search.json").read_bytes()).hexdigest()
    assert digest == "9ac9e5b31813f5daef8703fcbd2d15b8f5874c68a402eeb466be6bb87fd0bdd5"


def test_order_search_at_max_enum_users_agrees_with_naive_and_is_pinned(tmp_path):
    # --verify exits 1 when the diagonal search and the naive oracle
    # disagree. The sha256 pins the whole report: all 8! order rows,
    # values, winners and counters.
    assert ordering.MAX_ENUM_USERS == 8
    cfg = tmp_path / "order-search.json"
    cfg.write_text(json.dumps({"n_users": 8, "seed": 3}))
    out = tmp_path / "order-search"
    res = run_cli("order-search", "--config", str(cfg), "--out", str(out), "--verify")
    assert res.returncode == 0, res.stderr
    data = (out / "order_search.json").read_bytes()
    report = json.loads(data)
    assert all(report[o]["agrees_with_naive"] is True for o in ("average-power", "papr"))
    digest = hashlib.sha256(data).hexdigest()
    assert digest == "3d8174ca1fa1686c648acee981faa298cd2883c04de840c2a0072004ba405843"


def test_complexity_csv_bytes_are_pinned(tmp_path):
    # The sha256 of the whole CSV at --n-max 7, seed 0: its model columns and
    # measured factorization counts. Two CLI runs time the searches
    # differently (the wall times go to stdout only), and their CSVs must
    # still match.
    csvs = []
    for run in ("a", "b"):
        out = tmp_path / f"complexity-{run}"
        res = run_cli("complexity", "--n-max", "7", "--seed", "0", "--out", str(out))
        assert res.returncode == 0, res.stderr
        csvs.append((out / "complexity.csv").read_bytes())
    assert csvs[0] == csvs[1]
    digest = hashlib.sha256(csvs[0]).hexdigest()
    assert digest == "3f1011bfdc595e31977e85e0b624971c940a0ab84216698260fd0ad4475495c9"


def test_order_search_verify_disagreement_exits_1(tmp_path, monkeypatch, capsys):
    real = cli.naive_order_search

    def reversed_best(*args):
        res = real(*args)
        return dataclasses.replace(res, best_order=res.best_order[::-1].copy())

    monkeypatch.setattr(cli, "naive_order_search", reversed_best)
    cfg = tmp_path / "os.json"
    cfg.write_text(json.dumps({"n_users": 4, "seed": 3}))
    out = tmp_path / "o"
    assert cli.main(["order-search", "--config", str(cfg), "--out", str(out), "--verify"]) == 1
    assert "verification failure: " in capsys.readouterr().err
    assert not (out / "order_search.json").exists()


def test_order_search_too_many_users_exits_2(tmp_path):
    cfg = tmp_path / "os.json"
    cfg.write_text(json.dumps({"n_users": 9, "seed": 3}))
    res = run_cli("order-search", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "OrderSpaceTooLarge" in res.stderr


@pytest.mark.parametrize("n_users", [2.7, True, 0])
def test_order_search_bad_n_users_exits_2(tmp_path, n_users):
    cfg = tmp_path / "os.json"
    cfg.write_text(json.dumps({"n_users": n_users, "seed": 3}))
    res = run_cli("order-search", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert "n_users" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("gain_mode", ["bogus", "waterfill"])
def test_order_search_unsupported_gain_mode_exits_2(tmp_path, gain_mode):
    cfg = tmp_path / "os.json"
    cfg.write_text(json.dumps({"n_users": 4, "seed": 3, "gain_mode": gain_mode}))
    res = run_cli("order-search", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert "gain_mode" in res.stderr
    assert not (tmp_path / "o").exists()


def test_order_search_diag_l_gain_mode_is_the_default(tmp_path):
    reports = []
    for i, extra in enumerate(({}, {"gain_mode": "diag-L"})):
        cfg = tmp_path / f"os{i}.json"
        cfg.write_text(json.dumps({"n_users": 4, "seed": 3, **extra}))
        out = tmp_path / f"o{i}"
        res = run_cli("order-search", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        reports.append((out / "order_search.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("budget", [True, "5"])
def test_ber_sweep_bad_power_budget_exits_2(tmp_path, budget):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"n_users": 2, "snr_grid_db": [0], "trials_per_point": 10, "power_budget": budget}
        )
    )
    res = run_cli("ber-sweep", "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert "power_budget" in res.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_users", [2.7, True, 0, 100000])
def test_ber_sweep_bad_n_users_exits_2(tmp_path, n_users):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"n_users": n_users, "snr_grid_db": [0], "trials_per_point": 10, "seed": 1})
    )
    res = run_cli("ber-sweep", "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert "n_users" in res.stderr
    assert not (tmp_path / "o").exists()


def test_ber_sweep_waterfill_outside_the_dpc_family_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    raw = {"n_users": 2, "snr_grid_db": [0], "trials_per_point": 10}
    raw.update(precoder="zf", gain_mode="waterfill")
    path.write_text(json.dumps(raw))
    res = run_cli("ber-sweep", "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert "gain_mode" in res.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "point", [None, True, pytest.param(10**400, id="400-digits"), "-inf", "ten"]
)
def test_ber_sweep_bad_snr_point_exits_2(tmp_path, point):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_users": 2, "snr_grid_db": [point], "trials_per_point": 10}))
    res = run_cli("ber-sweep", "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert "snr_grid_db" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("point", [4000, -4000])
def test_ber_sweep_snr_point_without_a_finite_noise_variance_exits_2(tmp_path, capsys, point):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_users": 2, "snr_grid_db": [point], "trials_per_point": 10}))
    assert cli.main(["ber-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "snr_grid_db" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ber_sweep_power_budget_above_its_bound_exits_2(tmp_path, capsys):
    config = {"n_users": 2, "snr_grid_db": [10], "trials_per_point": 4, "precoder": "zf"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**config, "power_budget": 1e308}))
    assert cli.main(["ber-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "power_budget" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "snr_db, budget",
    [(-1600, None), (0, 1e110), (-3080, None)],
    ids=["snr--1600", "budget-1e110", "snr--3080"],
)
def test_ber_sweep_mmse_scale_overflow_exits_3(tmp_path, snr_db, budget):
    # The MMSE matrix shrinks as 1/noise_var, so its power scale would
    # overflow: a numeric failure with the sweep's context, not an inf power.
    # At -3080 dB the noise variance is 1e308 and n times it is inf, so the
    # weights are all zero.
    config = {"n_users": 4, "snr_grid_db": [snr_db], "trials_per_point": 4, "precoder": "mmse"}
    if budget is not None:
        config["power_budget"] = budget
    path = tmp_path / "mmse.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    warnings = {"PYTHONWARNINGS": "error::RuntimeWarning"}
    res = run_cli("ber-sweep", "--config", str(path), "--out", str(out), env_extra=warnings)
    assert res.returncode == 3, res.stderr
    assert f"sweep aborted (mmse, seed 0) at {snr_db} dB, trials [0, 4)" in res.stderr
    assert "power-scale" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("precoder", ["zf", "bd", "dpc-linear", "thp"])
def test_ber_sweep_singular_fixed_channel_exits_3(tmp_path, monkeypatch, capsys, precoder):
    monkeypatch.setattr(sim, "fixed_channel_for", lambda cfg: np.ones((4, 4), dtype=complex))
    config = {
        "n_users": 4,
        "snr_grid_db": [0, 10],
        "trials_per_point": 8,
        "channel_mode": "fixed-channel",
        "precoder": precoder,
        "seed": 5,
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert cli.main(["ber-sweep", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"numeric failure: sweep aborted ({precoder}, seed 5) on the fixed channel: " in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("config", [[1], {"sweeps": [1]}, {"sweeps": [[]]}])
def test_ber_sweep_non_object_config_exits_2(tmp_path, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    res = run_cli("ber-sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "3")
    assert res.returncode == 2, res.stderr
    assert "JSON object" in res.stderr or "sweeps" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("extra", [{"seed": 7}, {"n_user": 3}], ids=["seed", "misspelt"])
def test_ber_sweep_sweeps_wrapper_takes_no_other_field_exits_2(tmp_path, capsys, extra):
    # A field beside "sweeps" would be silently dropped, not applied to the sweeps.
    sweep = {"n_users": 2, "snr_grid_db": [10], "trials_per_point": 4, "precoder": "zf"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sweeps": [sweep], **extra}))
    assert cli.main(["ber-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"unknown config fields: {list(extra)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ber_sweep_two_sweeps_writing_one_csv_exits_2(tmp_path, monkeypatch, capsys):
    # Both sweeps would write ber_zf_qpsk.csv, and the second would overwrite the first.
    def no_sweep(cfg, workers=None):
        raise AssertionError("no sweep may run")

    monkeypatch.setattr(cli, "run_ber_sweep", no_sweep)
    sweep = {"n_users": 2, "snr_grid_db": [10], "trials_per_point": 4, "precoder": "zf"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sweeps": [{**sweep, "seed": 1}, {**sweep, "seed": 2}]}))
    assert cli.main(["ber-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "two sweeps would write ber_zf_qpsk.csv" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["ber-sweep", "order-search"])
@pytest.mark.parametrize(
    "content, reason",
    [(b'\xff\xfe{"n_users": 4}', "not UTF-8"), (b"[" * 200000, "nested too deeply")],
    ids=["not-utf8", "deep-nesting"],
)
def test_unparseable_config_file_exits_2(tmp_path, command, content, reason):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    res = run_cli(command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert reason in res.stderr
    assert "Traceback" not in res.stderr


def test_ber_sweep_worker_crash_exits_4(tmp_path, sweep_config, monkeypatch, capsys):
    # sim turns a BrokenProcessPool into WorkerCrashed (tests/test_sim.py);
    # here only the exit code and the message are checked.
    def crash(cfg, workers=None):
        raise WorkerCrashed("sweep aborted (dpc-linear, seed 7) at 0 dB, trials [0, 120)")

    monkeypatch.setattr(cli, "run_ber_sweep", crash)
    argv = ["ber-sweep", "--config", str(sweep_config), "--out", str(tmp_path), "--workers", "2"]
    assert cli.main(argv) == 4
    assert "worker failure: sweep aborted" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["", "Unable to allocate 3.2 GiB"])
def test_out_of_memory_exits_5(tmp_path, sweep_config, monkeypatch, capsys, message):
    # The handler raises MemoryError itself, so nothing large is allocated.
    def exhaust(cfg, workers=None):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_ber_sweep", exhaust)
    argv = ["ber-sweep", "--config", str(sweep_config), "--out", str(tmp_path)]
    assert cli.main(argv) == 5
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and "Traceback" not in err
    assert (message or "an allocation failed") in err


def test_complexity_table(tmp_path):
    out = tmp_path / "o"
    res = run_cli("complexity", "--n-max", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = [
        ln for ln in (out / "complexity.csv").read_text().splitlines() if not ln.startswith("#")
    ]
    header, *rows = lines
    assert header.startswith("n,naive_model,proposed_model,ratio_db")
    assert len(rows) == 5
    n1 = rows[0].split(",")
    assert float(n1[3]) == pytest.approx(-3.0103, abs=1e-3)
    n5 = rows[4].split(",")
    assert float(n5[3]) == pytest.approx(17.8693, abs=1e-3)
    assert n5[4] == "120" and n5[5] == "1"


def test_complexity_prints_wall_time_ratios_and_keeps_them_out_of_the_csv(tmp_path):
    runs = [run_cli("complexity", "--n-max", "4", "--out", str(tmp_path / d)) for d in "ab"]
    for res in runs:
        assert res.returncode == 0, res.stderr
        lines = [ln for ln in res.stdout.splitlines() if ln.startswith("n=")]
        assert len(lines) == 4
        for n, line in enumerate(lines, start=1):
            model, measured = line.split(", measured ")
            assert model.startswith(f"n={n}: model ratio ")
            counts, timings = measured.split(", wall-time ratio ")
            assert counts == f"{math.factorial(n)} vs 1"
            wall, per_order = timings.split(" dB, ")
            assert math.isfinite(float(wall))
            naive_us, diagonal_us = per_order.removesuffix(" us per order").split(" vs ")
            assert float(naive_us) > 0 and float(diagonal_us) > 0
    # The printed timings vary from run to run; the CSVs must not.
    csv_a, csv_b = ((tmp_path / d / "complexity.csv").read_bytes() for d in "ab")
    assert csv_a == csv_b


def test_complexity_times_each_search_five_times_per_measured_n(tmp_path, monkeypatch, capsys):
    calls = []
    for name in ("naive_order_search", "diagonal_order_search"):
        real = getattr(cli, name)

        def counted(h, *args, _name=name, _real=real):
            calls.append((_name, h.shape[0]))
            return _real(h, *args)

        monkeypatch.setattr(cli, name, counted)
    assert cli.main(["complexity", "--n-max", "3", "--out", str(tmp_path)]) == 0
    for n in (1, 2, 3):
        assert calls.count(("naive_order_search", n)) == 5
        # One untimed call fills the order tables before the five timed ones.
        assert calls.count(("diagonal_order_search", n)) == 6
    assert len(calls) == 33
    assert "wall-time ratio" in capsys.readouterr().out


def test_order_search_and_complexity_hash_their_configs_like_sweeps(tmp_path):
    from dpc_perm.sim import config_hash

    cfg = tmp_path / "search.json"
    cfg.write_text(json.dumps({"n_users": 3, "seed": 2}))
    assert run_cli("order-search", "--config", str(cfg), "--out", str(tmp_path)).returncode == 0
    report = json.loads((tmp_path / "order_search.json").read_text())
    assert report["config_hash"] == config_hash(report["config"])
    assert run_cli("complexity", "--n-max", "2", "--out", str(tmp_path)).returncode == 0
    header = (tmp_path / "complexity.csv").read_text().splitlines()[1]
    assert header == f"# config_hash={config_hash({'n_max': 2, 'seed': 0})}"


def test_complexity_out_of_range_exits_2(tmp_path):
    res = run_cli("complexity", "--n-max", "13", "--out", str(tmp_path / "o"))
    assert res.returncode == 2


@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_complexity_negative_seed_exits_2(tmp_path, seed):
    res = run_cli("complexity", "--n-max", "2", "--seed", seed, "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert "seed" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def test_verify_passes_on_fresh_checkout():
    res = run_cli("verify")
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.count("PASS") == 4


def test_verify_single_suite():
    res = run_cli("verify", "--suite", "theorem2")
    assert res.returncode == 0
    assert "theorem2" in res.stdout
    assert "theorem1" not in res.stdout


def test_verify_unknown_suite_exits_2():
    res = run_cli("verify", "--suite", "theorem9")
    assert res.returncode == 2


def test_verify_corrupted_tolerance_exits_1():
    res = run_cli("verify", "--tol-scale", "0")
    assert res.returncode == 1
    assert "FAIL" in res.stdout
