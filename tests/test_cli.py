import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frisec import cli, harness
from frisec.cli import main
from frisec.errors import DomainError


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "m_x": 4, "m_z": 4, "m_on": 4, "conventional_m": 4,
        "trials": 1024, "seed": 9, "snr_sweep_db": [80.0, 100.0],
        "size_sweep": [4, 9],
    }))
    return path


def test_sweep_sop(tmp_path, tiny_config):
    # the capacity columns come with every SNR sweep row
    out = tmp_path / "asc.csv"
    assert main(["sweep-sop", "--config", str(tiny_config), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("sweep_var,sweep_value,asc_mc")
    assert len(lines) == 1 + 2 * 2  # header + (policy + conventional) x 2 points
    assert (tmp_path / "asc.csv.manifest.json").exists()


def test_sweep_sop_deterministic(tmp_path, tiny_config):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep-sop", "--config", str(tiny_config), "--out", str(out1)]) == 0
    assert main(["sweep-sop", "--config", str(tiny_config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_size(tmp_path, tiny_config):
    out = tmp_path / "size.csv"
    assert main(["sweep-size", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 2 * 2


def test_validate_fits(tmp_path, tiny_config):
    out = tmp_path / "fits.csv"
    rc = main(["validate-fits", "--config", str(tiny_config), "--out", str(out),
               "--m-on-list", "2,4", "--trials", "2048"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3


def test_validate_bounds(tmp_path, tiny_config):
    out = tmp_path / "bounds.csv"
    assert main(["validate-bounds", "--config", str(tiny_config), "--out", str(out)]) == 0
    body = out.read_text().strip().split("\n")
    assert body[0].startswith("avg_snr_bob_db,")


def test_dump_correlation(tmp_path, tiny_config, capsys):
    out = tmp_path / "corr.csv"
    assert main(["dump-correlation", "--config", str(tiny_config), "--out", str(out)]) == 0
    grid = np.loadtxt(str(out), delimiter=",")
    assert grid.shape == (16, 16)
    assert np.allclose(np.diag(grid), 1.0)
    manifest = json.loads((tmp_path / "corr.csv.manifest.json").read_text())
    assert manifest["command"] == "dump-correlation"
    rank = manifest["diagnostics"]["rank"]
    assert 1 <= rank <= 16
    assert f"rank {rank}," in capsys.readouterr().out


def test_flag_overrides(tmp_path, tiny_config):
    out = tmp_path / "o.csv"
    assert main(["sweep-sop", "--config", str(tiny_config), "--out", str(out),
                 "--trials", "512", "--seed", "77"]) == 0
    manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert manifest["config"]["trials"] == 512
    assert manifest["config"]["seed"] == 77
    assert "Karhunen-Loeve" in manifest["notes"]["sampler"]["method"]
    assert manifest["notes"]["sampler"]["eigen_clamp"] == 1e-12
    assert "min(max(workers, 2), blocks, usable CPUs)" in manifest["notes"]["sampler"]["threads"]
    assert "draw_ahead" not in manifest["notes"]["sampler"]


def test_unknown_config_key_exits_1(tmp_path, capsys):
    # the output path comes from --out only, so a config cannot name one; the
    # carrier is no key, since apertures are given in wavelengths
    bad = tmp_path / "bad.json"
    for mapping in ({"m_q": 4}, {"out_path": str(tmp_path / "y.csv")}, {"carrier_hz": 2.4e9}):
        bad.write_text(json.dumps(mapping))
        assert main(["sweep-sop", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "unknown configuration keys" in err and repr(next(iter(mapping))) in err


def test_malformed_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep-sop", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("content, message", [
    (b'{"seed": 1, "policy": "gr\xffedy"}', "not UTF-8 text"),
    (b"[" * 100_000, "too deeply"),
    (b'{"seed": 1' + b"0" * 5000 + b"}", "not valid JSON: Exceeds the limit"),
], ids=["non-utf8", "nested-100000-deep", "integer-of-5001-digits"])
def test_undecodable_config_exits_1(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["sweep-sop", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("frisec: config error: config file") and message in err
    assert "Traceback" not in err
    assert list(tmp_path.rglob("*.csv*")) == []


def test_non_square_conventional_exits_1(tmp_path, tiny_config):
    cfgmap = json.loads(tiny_config.read_text())
    cfgmap["conventional_m"] = 6
    bad = tmp_path / "c.json"
    bad.write_text(json.dumps(cfgmap))
    for command in ("sweep-sop", "sweep-size", "validate-fits", "validate-bounds",
                    "dump-correlation"):
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1


def test_validate_bounds_names_flagged_points_on_one_line(tmp_path, tiny_config, monkeypatch,
                                                          capsys):
    # one line per kind of flag, naming every ok row that carries it; an
    # error row names none
    def row(db, sop_ok, asc_ok, status="ok"):
        return dict.fromkeys(harness.VALIDATE_BOUND_COLUMNS, 0.0) | {
            "avg_snr_bob_db": db, "sop_bound_ok": sop_ok, "asc_bound_ok": asc_ok,
            "policy": "fixed-uniform", "status": status}

    rows = [row(60.0, 1, 0), row(70.0, 0, 0), row(80.0, 0, 1), row(90.0, 1, 1),
            row(100.0, float("nan"), float("nan"), "error: injected")]
    monkeypatch.setattr(cli, "validate_bounds", lambda config: rows)
    out = tmp_path / "bounds.csv"
    assert main(["validate-bounds", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: outage bound violated at 70.0, 80.0 dB",
        "note: capacity closed form below MC mean at 60.0, 70.0 dB "
        "(approximation, recorded in CSV)"]
    # the real command on the tiny config: its one note names what the CSV flags
    monkeypatch.undo()
    assert main(["validate-bounds", "--config", str(tiny_config), "--out", str(out)]) == 0
    flagged = [r["avg_snr_bob_db"] for r in csv_rows(out) if r["asc_bound_ok"] == "0"]
    notes = capsys.readouterr().err.splitlines()
    assert len(notes) == (1 if flagged else 0)
    for db in flagged:
        assert f"{float(db)}" in notes[0]


@pytest.mark.parametrize("override, message", [
    ({"trials": 0}, "trials must be >= 2: a mean estimate needs two samples"),
    ({"trials": 1}, "trials must be >= 2: a mean estimate needs two samples"),
    ({"m_x": 10 ** 400}, f"element counts {10 ** 400} x 4 overflow the element spacing"),
    ({"policy": "conventional"},
     "unknown policy 'conventional'; choose from ('greedy', 'fixed-uniform', 'fixed-random')"),
    ({"conventional_m": 10 ** 800},
     f"conventional_m {10 ** 800} overflows the baseline's half-wavelength width"),
    ({"aperture_x": 10 ** 400}, "aperture_x holds an integer past the floating-point range"),
    ({"snr_sweep_db": [80, 10 ** 400]},
     "snr_sweep_db holds an integer past the floating-point range"),
    ({"trials": 10 ** 20}, f"trials must be <= {np.iinfo(np.intp).max // 8}, numpy's limit"),
], ids=["no-trials", "one-trial", "count-past-float-range", "conventional-policy",
        "baseline-count-past-float-range", "real-past-float-range",
        "grid-entry-past-float-range", "trials-past-array-limit"])
def test_config_error_is_one_line_naming_its_cause(tmp_path, tiny_config, capsys,
                                                   override, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(json.loads(tiny_config.read_text()) | override))
    assert main(["sweep-sop", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"frisec: config error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_conventional_is_no_policy_flag(tmp_path, tiny_config, capsys):
    # the baseline runs as greedy with m_on = m_x * m_z; naming it as a policy exits 1
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-sop", "--config", str(tiny_config), "--out", str(out),
              "--policy", "conventional"])
    assert exc.value.code == 1
    assert "invalid choice: 'conventional'" in capsys.readouterr().err
    assert main(["sweep-sop", "--config", str(tiny_config), "--out", str(out),
                 "--policy", "greedy", "--m-on", "16"]) == 0
    assert [r["policy"] for r in csv_rows(out)] == ["greedy", "conventional"] * 2


def test_missing_out_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-sop"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["sweep-sop", "dump-correlation"])
@pytest.mark.parametrize("target", ["missing-parent", "directory", "no-file-name"])
def test_unwritable_out_exits_1_before_any_work(tmp_path, tiny_config, monkeypatch, capsys,
                                                command, target):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(harness, "simulate_gains", no_work)
    monkeypatch.setattr(harness, "build_correlation", no_work)
    out = tmp_path / "nonexistent" / "dir" / "x.csv"
    if target == "directory":
        out = tmp_path / "outdir"
        out.mkdir()
    out = "" if target == "no-file-name" else str(out)
    assert main([command, "--config", str(tiny_config), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"frisec: config error: cannot write {out}") and "Traceback" not in err
    assert list(tmp_path.rglob("*.csv*")) == []


@pytest.mark.parametrize("command", ["sweep-sop", "dump-correlation"])
def test_failed_write_exits_1(tmp_path, tiny_config, monkeypatch, capsys, command):
    # a write the path check cannot foresee (here a refused open) is a config error too
    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", path)

    monkeypatch.setattr(harness, "open", refuse, raising=False)
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(tiny_config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"frisec: config error: cannot write {out}: Permission denied\n"
    assert list(tmp_path.rglob("*.csv*")) == []


def csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def pool_8x8(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps({
        "m_x": 8, "m_z": 8, "m_on": 16, "conventional_m": 16, "trials": 1024,
        "seed": 77, "snr_sweep_db": [80.0, 100.0], "size_sweep": [16, 36, 64],
    }))
    return path


def test_active_count_above_pool_writes_error_rows(tmp_path, pool_8x8, capsys):
    # an active count larger than the surface is an error row, not a traceback
    out = tmp_path / "fits.csv"
    assert main(["validate-fits", "--config", str(pool_8x8), "--out", str(out),
                 "--m-on-list", "1,500"]) == 0
    rows = csv_rows(out)
    assert all(None not in r for r in rows)  # no row has fields beyond the header
    assert [r["status"] for r in rows][0] == "ok"
    assert rows[1]["m_on"] == "500"
    assert rows[1]["status"] == "error: m_on must be in [1, 64], got 500"

    out = tmp_path / "size.csv"
    assert main(["sweep-size", "--config", str(pool_8x8), "--out", str(out),
                 "--m-on", "30"]) == 0
    assert all(None not in r for r in csv_rows(out))
    greedy = [r for r in csv_rows(out) if r["policy"] == "greedy"]
    assert [r["status"] == "ok" for r in greedy] == [False, True, True]  # 16 < 30 elements
    assert greedy[0]["status"] == "error: m_on must be in [1, 16], got 30"
    assert "Traceback" not in capsys.readouterr().err


# (policy, m_total) of each row of pool_8x8's tables, in row order
ROW_LABELS = {
    "sweep-sop": [("greedy", "64"), ("conventional", "16")] * 2,
    # each size writes the pool's row, then the 4x4 baseline's row
    "sweep-size": [("greedy", "16"), ("conventional", "16"), ("greedy", "36"),
                   ("conventional", "16"), ("greedy", "64"), ("conventional", "16")],
    "validate-fits": [(None, None)],  # its table has neither column
    "validate-bounds": [("fixed-uniform", "64")] * 2,
}


@pytest.mark.parametrize("stage", ["build_correlation", "simulate_gains"])
@pytest.mark.parametrize("command", ROW_LABELS)
def test_error_rows_name_their_policy(tmp_path, pool_8x8, monkeypatch, capsys, command, stage):
    # every point fails, so every row is an error row under its point's labels;
    # the message's comma and quote come back whole, in exactly the header's fields
    def failing(*args, **kwargs):
        raise DomainError(f'{stage} failed, "x"')

    monkeypatch.setattr(harness, stage, failing)
    out = tmp_path / "table.csv"
    assert main([command, "--config", str(pool_8x8), "--out", str(out)]) == 0
    rows = csv_rows(out)
    labels = ROW_LABELS[command]
    assert all(None not in r and None not in r.values() for r in rows)
    assert [r["status"] for r in rows] == [f'error: {stage} failed, "x"'] * len(labels)
    assert [(r.get("policy"), r.get("m_total")) for r in rows] == labels
    assert [r["m_on"] for r in rows] == ["16"] * len(labels)
    assert all(r["trials"] == "1024" for r in rows)
    if command == "validate-bounds":
        assert all(r["sop_bound_ok"] == r["asc_bound_ok"] == "nan" for r in rows)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("m_on_list", ["", "10,,20"])
def test_bad_m_on_list_exits_1(tmp_path, tiny_config, capsys, m_on_list):
    # an empty list is no list: it does not fall back to the config's m_on
    out = tmp_path / "fits.csv"
    assert main(["validate-fits", "--config", str(tiny_config), "--out", str(out),
                 "--m-on-list", m_on_list]) == 1
    assert capsys.readouterr().err.startswith("frisec: config error: bad --m-on-list: ")
    assert not out.exists()


def test_numeric_failure_outside_a_point_exits_2(tmp_path, tiny_config, monkeypatch, capsys):
    # dump-correlation's build belongs to no point: its failure is the run's
    def failing_build(*args, **kwargs):
        raise DomainError("correlation build failed")

    monkeypatch.setattr(harness, "build_correlation", failing_build)
    out = tmp_path / "corr.csv"
    assert main(["dump-correlation", "--config", str(tiny_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "frisec: numeric failure: correlation build failed\n"
    assert list(tmp_path.rglob("*.csv*")) == []


@pytest.mark.parametrize("command", ["sweep-sop", "validate-bounds"])
def test_legitimate_snr_past_the_float_range_writes_error_rows(tmp_path, capsys, command):
    # 3070 dB times some trial's gain is past the float64 range: an error row, no warning
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m_x": 4, "m_z": 4, "m_on": 4, "conventional_m": 4,
                                  "trials": 300, "pl_exponent": 0.001,
                                  "snr_sweep_db": [3070], "size_sweep": [4]}))
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    assert [r["status"] for r in csv_rows(out)] == (
        ["error: the legitimate SNR of a trial is past the floating-point range"]
        * (2 if command == "sweep-sop" else 1))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("override", [
    {"seed": 1.5}, {"dist_bob_m": -1}, {"trials": True}, {"m_on": 4.0},
    {"size_sweep": [-4, 4]}, {"size_sweep": [0, 4]}, {"size_sweep": [4.0, 9]},
    {"snr_sweep_db": ["a", "b"]}, {"snr_sweep_db": [True, 100]},
    {"snr_sweep_db": [80, float("nan")]}, {"snr_sweep_db": [80, float("inf")]},
    {"snr_sweep_db": 5}, {"size_sweep": None}, {"size_sweep": "abc"},
    {"ref_gain": "a"}, {"target_rate_bits": "x"}, {"ref_gain": 0},
    {"noise_eve_dbm": float("inf")}, {"target_rate_bits": float("nan")},
    {"dist_bob_m": float("inf")}, {"ref_gain": True}, {"target_rate_bits": -1},
    {"aperture_z": 1e308},  # the 4x4 pool overflows the J0 argument
    {"aperture_x": 1e308, "m_x": 2, "m_z": 2, "m_on": 2},
    # the 1x1 pool is fine; the 2x2 and 3x3 pools of the size grid are past the
    # J0 cap, and the 3x3 pool overflows the float range
    {"aperture_x": 4e307, "aperture_z": 4e307, "m_x": 1, "m_z": 1, "m_on": 1},
    {"aperture_x": 2400.0},  # its widest J0 argument, 11310, is past J0_MAX_ARG
    # integers past the float range in real-valued keys, and trial counts
    # whose sample array numpy cannot address: each fails before any allocation
    {"aperture_x": 10 ** 400}, {"target_rate_bits": 10 ** 400}, {"dist_feed_m": 10 ** 400},
    {"snr_sweep_db": [80, 10 ** 400]}, {"trials": 10 ** 20}, {"trials": 10 ** 400},
])
def test_bad_config_value_exits_1(tmp_path, tiny_config, capsys, override):
    cfgmap = json.loads(tiny_config.read_text()) | override
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfgmap))
    assert main(["sweep-sop", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("frisec: config error: ") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["sweep-sop", "validate-bounds"])
def test_integer_and_float_values_give_one_csv(tmp_path, tiny_config, command):
    # real-valued keys are stored as floats: an integer grid or distance
    # writes the same CSV bytes and resolved config as its float spelling
    written = []
    for snr, dist in (([80, 100], 30), ([80.0, 100.0], 30.0)):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads(tiny_config.read_text())
                                     | {"snr_sweep_db": snr, "dist_bob_m": dist}))
        out = tmp_path / f"{snr[0]!r}.csv"
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
        written.append((out.read_bytes(), manifest["config"]))
    assert written[0] == written[1]
    assert written[0][1]["snr_sweep_db"] == [80.0, 100.0]
    assert b"8.00000000000000000e+01" in written[0][0]


@pytest.mark.parametrize("command, columns, n_rows", [
    ("sweep-sop", harness.SWEEP_COLUMNS, 4), ("sweep-size", harness.SWEEP_COLUMNS, 4),
    ("validate-fits", harness.VALIDATE_FIT_COLUMNS, 1),
    ("validate-bounds", harness.VALIDATE_BOUND_COLUMNS, 2),
])
def test_two_trials_write_rows(tmp_path, tiny_config, capsys, command, columns, n_rows):
    # two trials are the fewest a mean estimate takes: every table command
    # writes one row per point, with exactly its columns, and exits 0; one
    # trial is a config error, which writes nothing
    out = tmp_path / "two.csv"
    assert main([command, "--config", str(tiny_config), "--out", str(out),
                 "--trials", "1"]) == 1
    assert capsys.readouterr().err == ("frisec: config error: trials must be >= 2: "
                                       "a mean estimate needs two samples\n")
    assert not out.exists()
    assert main([command, "--config", str(tiny_config), "--out", str(out),
                 "--trials", "2"]) == 0
    lines = out.read_text().strip().split("\n")
    assert tuple(lines[0].split(",")) == columns
    assert len(lines) == 1 + n_rows
    assert json.loads((tmp_path / "two.csv.manifest.json").read_text())["command"] == command
    assert all(len(line.split(",")) == len(columns) for line in lines)
    assert all(row["trials"] == "2" for row in csv_rows(out))


def test_few_trials_blank_the_ks_columns(tmp_path, pool_8x8):
    # fewer than 100 trials leave the KS diagnostic undefined, not the row
    out = tmp_path / "sop.csv"
    assert main(["sweep-sop", "--config", str(pool_8x8), "--out", str(out),
                 "--trials", "50"]) == 0
    fits = tmp_path / "fits.csv"
    assert main(["validate-fits", "--config", str(pool_8x8), "--out", str(fits),
                 "--trials", "50", "--m-on-list", "4,16"]) == 0
    for rows in (csv_rows(out), csv_rows(fits)):
        assert [r["status"] for r in rows] == ["ok"] * len(rows)
        assert all(r["ks_bob"] == r["ks_eve"] == "nan" for r in rows)
    assert all(r["sop_mc"] != "nan" for r in csv_rows(out))


def test_fuzzed_configs_exit_cleanly(tmp_path):
    # a small valid configuration with up to two fields replaced by wrong
    # types, NaN/inf or out-of-range values either runs (0), is rejected (1)
    # or fails numerically (2); no exception escapes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small_sizes = st.sampled_from([1, 4, 9, 16])
    valid = {  # every size field is given, so no default builds a large surface
        "m_x": st.integers(1, 4), "m_z": st.integers(1, 4), "m_on": st.integers(1, 4),
        "conventional_m": small_sizes, "trials": st.integers(2, 256),
        "snr_sweep_db": st.lists(st.floats(-50.0, 200.0), min_size=1, max_size=3,
                                 unique=True).map(sorted),
        "size_sweep": st.lists(small_sizes, min_size=1, max_size=3, unique=True).map(sorted),
        "seed": st.integers(0, 2 ** 64 - 1), "workers": st.integers(1, 2),
        "policy": st.sampled_from(harness.POLICIES),
    }
    edges = st.sampled_from([0, -1, 1e300, -1e300, 1e-300, float("nan"), float("inf"),
                             -float("inf"), None, True, "x"])
    bad = st.one_of(edges, st.floats(), st.integers(-2, 2),
                    st.lists(st.one_of(edges, st.floats()), max_size=3))
    keys = sorted(valid) + list(harness._FLOAT_FIELDS)
    # integers past the float and array-index ranges; a huge m_x, m_z or
    # size_sweep entry is a valid pool whose build would exhaust memory before
    # failing, so those keys get none
    huge = st.sampled_from([10 ** 20, 10 ** 400])
    overrides = st.one_of(
        st.dictionaries(st.sampled_from(keys), bad, min_size=1, max_size=2),
        st.dictionaries(st.sampled_from([k for k in keys if k not in ("m_x", "m_z", "size_sweep")]),
                        st.one_of(huge, st.lists(huge, min_size=1, max_size=2)),
                        min_size=1, max_size=2))
    commands = ("sweep-sop", "sweep-size", "validate-fits", "validate-bounds",
                "dump-correlation")

    @hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.sampled_from(commands), st.fixed_dictionaries(valid), overrides)
    def check(command, base, override):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(base | override))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) in (0, 1, 2)

    check()


@pytest.mark.parametrize("command, pool", [("sweep-sop", 16), ("sweep-size", 36)])
def test_out_of_memory_exits_1_naming_the_pool(tmp_path, monkeypatch, capsys, command, pool):
    # the engine is stubbed to raise; nothing large is allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m_x": 4, "m_z": 4, "m_on": 4, "conventional_m": 4,
                                  "trials": 1024, "size_sweep": [9, 36]}))
    monkeypatch.setattr(harness, "simulate_gains", out_of_memory)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("frisec: config error: out of memory")
    assert f"pool of up to {pool} elements at 1024 trials" in err and "Traceback" not in err


def test_commands_load_no_test_dependency(tmp_path, tiny_config):
    # the library promises numpy alone; the test extras (scipy, mpmath,
    # hypothesis, pytest) must not be loaded by any command, in an interpreter
    # of its own, so nothing the tests imported first can hide an import
    script = """
import sys
from frisec.cli import main
for command in ("sweep-sop", "sweep-size", "validate-fits", "validate-bounds",
                "dump-correlation"):
    assert main([command, "--config", sys.argv[1], "--out", command + ".csv"]) == 0
print(sorted({name.partition(".")[0] for name in sys.modules}
             & {"scipy", "mpmath", "hypothesis", "pytest"}))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tiny_config)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
