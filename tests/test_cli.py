import csv
import json

import numpy as np
import pytest

from frisec import harness
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


def test_sweep_asc(tmp_path, tiny_config):
    out = tmp_path / "asc.csv"
    assert main(["sweep-asc", "--config", str(tiny_config), "--out", str(out)]) == 0
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
    rank = json.loads((tmp_path / "corr.csv.manifest.json").read_text())["diagnostics"]["rank"]
    assert 1 <= rank <= 16
    assert f"rank {rank}," in capsys.readouterr().out


def test_flag_overrides(tmp_path, tiny_config):
    out = tmp_path / "o.csv"
    assert main(["sweep-asc", "--config", str(tiny_config), "--out", str(out),
                 "--trials", "512", "--seed", "77"]) == 0
    manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert manifest["config"]["trials"] == 512
    assert manifest["config"]["seed"] == 77
    assert "Karhunen-Loeve" in manifest["notes"]["sampler"]["method"]
    assert manifest["notes"]["sampler"]["eigen_clamp"] == 1e-12


def test_unknown_config_key_exits_1(tmp_path, capsys):
    # the output path comes from --out only, so a config cannot name one
    bad = tmp_path / "bad.json"
    for mapping in ({"m_q": 4}, {"out_path": str(tmp_path / "y.csv")}):
        bad.write_text(json.dumps(mapping))
        assert main(["sweep-asc", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown configuration keys" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep-asc", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1


def test_non_square_conventional_exits_1(tmp_path, tiny_config):
    cfgmap = json.loads(tiny_config.read_text())
    cfgmap["conventional_m"] = 6
    bad = tmp_path / "c.json"
    bad.write_text(json.dumps(cfgmap))
    for command in ("sweep-asc", "sweep-sop", "sweep-size", "validate-fits",
                    "validate-bounds", "dump-correlation"):
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1


def test_missing_out_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-asc"])
    assert exc.value.code == 1


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
    assert [r["status"] for r in rows][0] == "ok"
    assert rows[1]["m_on"] == "500" and rows[1]["status"].startswith("error: ")

    out = tmp_path / "size.csv"
    assert main(["sweep-size", "--config", str(pool_8x8), "--out", str(out),
                 "--m-on", "30"]) == 0
    greedy = [r for r in csv_rows(out) if r["policy"] == "greedy"]
    assert [r["status"] == "ok" for r in greedy] == [False, True, True]  # 16 < 30 elements
    assert "Traceback" not in capsys.readouterr().err


def test_error_rows_name_their_policy(tmp_path, pool_8x8, monkeypatch):
    # every point's simulation fails, so every row is an error row
    def failing_simulation(*args, **kwargs):
        raise DomainError("simulation failed")

    monkeypatch.setattr(harness, "simulate_gains", failing_simulation)
    out = tmp_path / "size.csv"
    assert main(["sweep-size", "--config", str(pool_8x8), "--out", str(out)]) == 0
    rows = csv_rows(out)
    assert all(r["status"].startswith("error: ") for r in rows)
    # each size writes the pool's row, then the 4x4 baseline's row
    assert [r["policy"] for r in rows] == ["greedy", "conventional"] * 3
    assert [r["m_total"] for r in rows[1::2]] == ["16"] * 3


@pytest.mark.parametrize("override", [
    {"seed": 1.5}, {"carrier_hz": 0}, {"dist_bob_m": -1}, {"trials": True},
    {"carrier_hz": float("inf")}, {"m_on": 4.0},
    {"size_sweep": [-4, 4]}, {"size_sweep": [0, 4]}, {"size_sweep": [4.0, 9]},
    {"snr_sweep_db": ["a", "b"]}, {"snr_sweep_db": [True, 100]},
    {"snr_sweep_db": [80, float("nan")]}, {"snr_sweep_db": [80, float("inf")]},
    {"ref_gain": "a"}, {"target_rate_bits": "x"}, {"ref_gain": 0},
    {"noise_eve_dbm": float("inf")}, {"target_rate_bits": float("nan")},
    {"dist_bob_m": float("inf")}, {"ref_gain": True}, {"target_rate_bits": -1},
    {"aperture_x": 1e300, "carrier_hz": 1e-3},  # element spacing overflows
    {"aperture_x": 1e307, "carrier_hz": 1.0, "m_x": 2, "m_z": 2, "m_on": 2},
    # the 1x1 pool is fine; the 3x3 pool of the size grid overflows the J0 argument
    {"aperture_x": 4e307, "aperture_z": 4e307, "carrier_hz": 3e8, "m_x": 1, "m_z": 1,
     "m_on": 1},
])
def test_bad_config_value_exits_1(tmp_path, tiny_config, capsys, override):
    cfgmap = json.loads(tiny_config.read_text()) | override
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfgmap))
    assert main(["sweep-sop", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("frisec: config error: ") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


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
        "conventional_m": small_sizes, "trials": st.integers(1, 256),
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
    overrides = st.dictionaries(st.sampled_from(sorted(valid) + list(harness._FLOAT_FIELDS)),
                                bad, min_size=1, max_size=2)
    commands = ("sweep-asc", "sweep-sop", "sweep-size", "validate-fits",
                "validate-bounds", "dump-correlation")

    @hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.sampled_from(commands), st.fixed_dictionaries(valid), overrides)
    def check(command, base, override):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(base | override))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) in (0, 1, 2)

    check()
