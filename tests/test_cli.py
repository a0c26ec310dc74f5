"""End-to-end runs of the command-line driver, in-process except where a
run could hang."""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from test_config import _scenario_texts

import xpointsim
from xpointsim.cli import CONFIG_ENV, main
from xpointsim.config import default_config, parse_config
from xpointsim.errors import ConfigError
from xpointsim.perf import parse_sweep_csv


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_out(path, name):
    return (path / name).read_text()


DEMO_FILES = {"waveform.csv", "phases.csv", "reads.csv", "summary.txt", "manifest.txt"}


def test_demo_scenario_runs_and_reads_back(tmp_path, capsys):
    assert main(["simulate", "--out", "run"]) == 0
    out = tmp_path / "run"
    assert {p.name for p in out.iterdir()} == DEMO_FILES
    stdout = capsys.readouterr().out
    assert "scenario: demo" in stdout
    assert "read cycles: 4" in stdout
    # the written word reads back all ones, the untouched words all zeros
    rows = read_out(out, "reads.csv").strip().split("\n")[1:]
    values = {}
    for row in rows:
        addr, bit, value = row.split(",")[:3]
        values.setdefault(addr, []).append(value)
    assert values["3"] == ["1", "1", "1", "1"]
    assert values["0"] == ["0", "0", "0", "0"]
    assert len(rows) == 16


def test_reruns_are_byte_identical(tmp_path):
    assert main(["simulate", "--out", "a"]) == 0
    assert main(["simulate", "--out", "b"]) == 0
    for name in sorted(DEMO_FILES - {"manifest.txt"}):
        assert read_out(tmp_path / "a", name) == read_out(tmp_path / "b", name), name
    keep = lambda text: [l for l in text.split("\n") if not l.startswith("wall_clock")]
    assert keep(read_out(tmp_path / "a", "manifest.txt")) == keep(
        read_out(tmp_path / "b", "manifest.txt")
    )


def test_manifest_checksums_match_files(tmp_path):
    assert main(["simulate", "--out", "run"]) == 0
    out = tmp_path / "run"
    recorded = {}
    for line in read_out(out, "manifest.txt").strip().split("\n"):
        if line.startswith("output "):
            name, sha = line[len("output ") :].split(": ")
            recorded[name] = sha
    assert set(recorded) == DEMO_FILES - {"manifest.txt"}
    for name, sha in recorded.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha, name


def test_seed_reproducible_and_distinct(tmp_path):
    cfg = tmp_path / "wr.ini"
    cfg.write_text("[operation]\nscenario = write\ndata = random\nmode = serial\n")
    base = ["simulate", "--config", str(cfg)]
    assert main(base + ["--seed", "7", "--out", "s7a"]) == 0
    assert main(base + ["--seed", "7", "--out", "s7b"]) == 0
    assert main(base + ["--seed", "8", "--out", "s8"]) == 0
    assert read_out(tmp_path / "s7a", "summary.txt") == read_out(
        tmp_path / "s7b", "summary.txt"
    )
    assert read_out(tmp_path / "s7a", "waveform.csv") == read_out(
        tmp_path / "s7b", "waveform.csv"
    )
    assert read_out(tmp_path / "s7a", "summary.txt") != read_out(
        tmp_path / "s8", "summary.txt"
    )


def test_write_scenario_emits_phase_table(tmp_path):
    cfg = tmp_path / "wr.ini"
    cfg.write_text(
        "[operation]\nscenario = write\nword_addr = 1\ndata = 0110\nmode = parallel\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0
    out = tmp_path / "run"
    assert {p.name for p in out.iterdir()} == {
        "waveform.csv",
        "phases.csv",
        "summary.txt",
        "manifest.txt",
    }
    phases = read_out(out, "phases.csv").strip().split("\n")
    assert phases[0].startswith("phase,start_ns,end_ns,energy_pj")
    # the reset phase still runs (a blind write cannot know the '0' bits
    # are already in place) but drives nothing, so it is setup-only
    assert len(phases) == 3
    assert phases[1].startswith("phase-0,0.0,0.1,0.0,")
    assert phases[2].startswith("phase-1,")
    wave = read_out(out, "waveform.csv")
    assert wave.startswith("time_ns,source_current_uA")


def test_read_scenario_scans_all_words(tmp_path):
    cfg = tmp_path / "rd.ini"
    cfg.write_text("[array]\nn_bits = 3\nm_words = 6\n[operation]\nscenario = read\n")
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0
    rows = read_out(tmp_path / "run", "reads.csv").strip().split("\n")
    assert len(rows) == 1 + 3 * 6


def test_sweep_subcommand_forces_sweep(tmp_path):
    cfg = tmp_path / "sw.ini"
    cfg.write_text("[operation]\nsweep_n_bits = 2,4\nsweep_m_words = 16,64\n")
    assert main(["sweep", "--config", str(cfg), "--out", "run"]) == 0
    parsed = parse_sweep_csv(read_out(tmp_path / "run", "sweep.csv"))
    assert [(p["n_bits"], p["m_words"]) for p in parsed] == [
        (2, 16),
        (2, 64),
        (4, 16),
        (4, 64),
    ]


def test_simulate_dispatches_configured_sweep(tmp_path):
    cfg = tmp_path / "sw.ini"
    cfg.write_text("[operation]\nscenario = sweep\nsweep_n_bits = 4\n")
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0
    assert (tmp_path / "run" / "sweep.csv").exists()


def test_analyze_prints_figures_and_writes_nothing(tmp_path, capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "R_P 3013.58 ohm" in out
    assert "threshold current 189.144 uA" in out
    assert "switching delay 10 ns" in out
    assert "2.95064 pJ/bit" in out
    assert not (tmp_path / "out").exists()


def test_analyze_read_cycle_follows_the_configured_transistor(tmp_path, capsys):
    # the closed-form read cycle and the simulated one share the reference
    # branch, selector included, so a configured r_on moves both alike
    cfg = tmp_path / "ron.ini"
    cfg.write_text("[transistor]\nr_on = 2000\n")
    assert main(["analyze", "--config", str(cfg)]) == 0
    analyzed_ns = float(re.search(r"read: cycle (\S+) ns", capsys.readouterr().out)[1])
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0
    out = capsys.readouterr().out
    simulated_ns = float(re.search(r"read cycles: \d+ x (\S+) ns", out)[1])
    setup_ns = default_config().drive.setup_time_s * 1e9
    # both figures are printed to 6 significant digits
    assert analyzed_ns + setup_ns == pytest.approx(simulated_ns, abs=1e-5)


def test_validate_accepts_good_and_rejects_bad(tmp_path, capsys):
    good = tmp_path / "good.ini"
    good.write_text("[array]\nn_bits = 2\n[operation]\ndata = 11\n")
    assert main(["validate", "--config", str(good)]) == 0
    assert "configuration OK" in capsys.readouterr().out

    bad = tmp_path / "bad.ini"
    bad.write_text("[device]\ntmr = -1\n[array]\nn_bits = 0\n")
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error: device.tmr" in err
    assert "config error: array.n_bits" in err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.ini")]) == 1
    assert "config file" in capsys.readouterr().err


def test_simulation_failure_maps_to_exit_2(tmp_path, capsys):
    cfg = tmp_path / "weak.ini"
    cfg.write_text("[drive]\nwrite_overdrive = 0.95\n")
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 2
    err = capsys.readouterr().err
    assert "simulation error" in err
    assert "demo scenario" in err


@pytest.mark.parametrize("dt", ["1e-300", "1e-15"])
def test_tiny_sample_step_exits_1_instead_of_hanging(tmp_path, dt):
    # the waveform has one sample per step edge and no sample step to set;
    # a file that still sets one is rejected by name before anything runs
    cfg = tmp_path / "dt.ini"
    cfg.write_text(f"[drive]\nsample_dt_s = {dt}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(xpointsim.__file__).parents[1]))
    command = ["simulate", "--config", str(cfg), "--out", "run"]
    run = subprocess.run(
        [sys.executable, "-m", "xpointsim", *command],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert run.returncode == 1
    assert run.stderr == "config error: drive.sample_dt_s: unknown key\n"


@pytest.mark.parametrize("key", ["tox_nm", "barrier_ev"])
def test_removed_device_keys_are_rejected_by_name(tmp_path, capsys, key):
    # oxide thickness and barrier height changed no output, so they are gone
    cfg = tmp_path / "device.ini"
    cfg.write_text(f"[device]\n{key} = 0.9\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: device.{key}: unknown key\n"


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_scenario_texts())
def test_any_scenario_file_exits_0_1_or_2(text):
    # bad input exits 1 and a failed simulation 2; nothing raises
    try:
        parse_config(text)
    except ConfigError:
        allowed = {1}
    else:
        allowed = {0, 1, 2}
    with tempfile.TemporaryDirectory() as scratch:
        cfg = Path(scratch) / "scenario.ini"
        cfg.write_text(text)
        out = str(Path(scratch) / "run")
        status = main(["simulate", "--config", str(cfg), "--out", out, "--seed", "1"])
    assert status in allowed


@pytest.mark.parametrize("ohms", ["1e20", "1e300"])
def test_huge_line_resistance_names_the_key(tmp_path, capsys, ohms):
    cfg = tmp_path / "open.ini"
    cfg.write_text(f"[array]\nline_resistance = {ohms}\n")
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 1
    assert "parameter error: line_resistance:" in capsys.readouterr().err


@pytest.mark.parametrize("ohms", ["1e6", "1e8"])
def test_unsensable_read_exits_2(tmp_path, capsys, ohms):
    # a segment that returns current to its source is a read the sense
    # amplifier cannot decide, not a bad parameter
    cfg = tmp_path / "far.ini"
    cfg.write_text(f"[array]\nline_resistance = {ohms}\n[operation]\nscenario = read\n")
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 2
    err = capsys.readouterr().err
    assert re.search(r"simulation error: read scenario: word \d+ bit \d+: segment b\d+[eo] carries -", err)


@pytest.mark.parametrize("ini, where", [
    # the demo writes word 3 and then fails reading word 0: the error names
    # the scan, not the written word
    ("[array]\nline_resistance = 1e8\n", r"demo scenario, read scan: word 0 bit \d+: "),
    # at 1e12 ohm/segment the write regulation misses its target: the error
    # names the cell it missed
    ("[array]\nline_resistance = 1e12\n[operation]\nscenario = write\nword_addr = 3\n",
     r"write scenario, write word 3: write-drive regulation did not settle: w3:b\d+[eo] on b"),
    # at 1e19 the transfer matrix is singular: the error names the lines
    ("[array]\nline_resistance = 1e19\n[operation]\nscenario = write\nword_addr = 3\n",
     r"write word 3: write-drive regulation lost authority .* on b0o, b1o, b2o, b3o$"),
], ids=["demo-scan", "write-cell", "write-lines"])
def test_simulation_errors_name_where_they_failed(tmp_path, capsys, ini, where):
    cfg = tmp_path / "far.ini"
    cfg.write_text(ini)
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 2
    err = capsys.readouterr().err.strip()
    assert re.search(where, err), err
    assert "word 3: word" not in err


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_underflowing_physics_rate_names_the_moment(tmp_path, capsys, command):
    cfg = tmp_path / "moment.ini"
    cfg.write_text("[dynamics]\nrate_per_amp = physics\nmoment_a_m2 = 5e-324\n")
    assert main([command, "--config", str(cfg), "--out", "run"]) == 1
    assert "dynamics.moment_a_m2:" in capsys.readouterr().err


def test_env_search_path_supplies_default_config(tmp_path, monkeypatch, capsys):
    cfgdir = tmp_path / "cfgs"
    cfgdir.mkdir()
    (cfgdir / "xpointsim.ini").write_text("[operation]\nscenario = read\n")
    monkeypatch.setenv(CONFIG_ENV, str(cfgdir))
    assert main(["simulate", "--out", "run"]) == 0
    assert "scenario: read" in capsys.readouterr().out
    assert not (tmp_path / "run" / "waveform.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "xpointsim 0.1.0" in capsys.readouterr().out
