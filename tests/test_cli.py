"""End-to-end runs of the command-line driver, in-process except where a
run could hang."""

import csv
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
from xpointsim.config import build_array, build_drive, default_config, parse_config
from xpointsim.errors import ConfigError
from xpointsim.ops import halving_time, read_word


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


def test_read_scan_summary_gives_one_line_per_word(tmp_path, capsys):
    # the per-bit figures stay in reads.csv; the summary gives the cycle
    # total, each word's bits and the smallest margin, with its sign
    cfg = tmp_path / "scan.ini"
    cfg.write_text("[array]\nn_bits = 8\nm_words = 6\n[operation]\nscenario = read\n")
    assert main(["simulate", "--config", str(cfg), "--seed", "2", "--out", "run"]) == 0
    summary = read_out(tmp_path / "run", "summary.txt")
    assert summary in capsys.readouterr().out
    block = summary[summary.index("read cycles: "):].rstrip("\n").split("\n")
    rows = [row.split(",") for row in read_out(tmp_path / "run", "reads.csv").split("\n")[1:-1]]
    words = {}
    for addr, _bit, value, *_ in rows:
        words[addr] = words.get(addr, "") + value
    assert block[0].startswith("read cycles: 6 x ")
    assert block[1:-1] == [f"  word {addr} -> '{bits}'" for addr, bits in words.items()]
    addr, bit, _value, margin = min(rows, key=lambda row: abs(float(row[3])))[:4]
    assert block[-1] == f"  minimum margin: {float(margin):.6g} ohm at word {addr} bit {bit}"


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
    parsed = csv.DictReader(read_out(tmp_path / "run", "sweep.csv").splitlines())
    assert [(p["n_bits"], p["m_words"]) for p in parsed] == [
        ("2", "16"),
        ("2", "64"),
        ("4", "16"),
        ("4", "64"),
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


@pytest.mark.parametrize("balanced, scan_ns, area", [
    ("true", "5.17477", 80.0),
    ("false", "9.94955", 66.0),
])
def test_analyze_and_sweep_agree_with_simulate_on_both_layouts(tmp_path, capsys, balanced, scan_ns, area):
    # the closed-form read time and area describe the chip the scan runs:
    # a plain-layout read takes two cycles, and it has no reference words
    cfg = tmp_path / "layout.ini"
    cfg.write_text(
        f"[array]\nbalanced = {balanced}\n"
        "[operation]\nscenario = read\nsweep_n_bits = 4\nsweep_m_words = 4\n"
    )
    assert main(["analyze", "--config", str(cfg)]) == 0
    analyzed = capsys.readouterr().out
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0
    simulated = capsys.readouterr().out
    assert re.search(r"full scan (\S+) ns", analyzed)[1] == scan_ns
    assert re.search(r"read cycles: 4 x \S+ ns = (\S+) ns", simulated)[1] == scan_ns
    area_line = re.compile(r"^cell area: (\S+) F\^2/bit.*$", re.M)
    assert area_line.search(analyzed)[0] == area_line.search(simulated)[0]
    assert float(area_line.search(simulated)[1]) == area
    assert main(["sweep", "--config", str(cfg), "--out", "sw"]) == 0
    (row,) = csv.DictReader((tmp_path / "sw" / "sweep.csv").read_text().splitlines())
    assert float(row["area_exact_f2"]) == area
    setup_ns = default_config().drive.setup_time_s * 1e9
    assert f"{4 * (setup_ns + float(row['read_time_ns'])):.6g}" == scan_ns


def test_plain_layout_read_scan_charges_each_read_its_sense_delay(tmp_path, capsys):
    # a plain-layout read compares against the ideal reference branch in a
    # second cycle, so each read of the scan takes its setup plus two cycles
    text = "[array]\nm_words = 3\nbalanced = false\n[operation]\nscenario = read\n"
    cfg = tmp_path / "plain.ini"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0
    count, cycle_ns = re.search(r"read cycles: (\d+) x (\S+) ns", capsys.readouterr().out).groups()
    parsed = parse_config(text)
    arr, drive = build_array(parsed), build_drive(parsed)
    sense = read_word(arr, 0, drive)
    half = halving_time(arr.ideal_reference_resistance(), drive.c_load_f)
    assert sense.sense_delay == pytest.approx(2 * half)
    assert count == "3"
    # the summary prints 6 significant digits
    assert float(cycle_ns) == pytest.approx((drive.setup_time_s + sense.sense_delay) * 1e9, rel=1e-5)


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


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_oversized_array_exits_1_with_one_config_error(tmp_path, capsys, command):
    big = tmp_path / "big.ini"
    big.write_text("[array]\nm_words = 100000000\n[operation]\nscenario = read\n")
    assert main([command, "--config", str(big)]) == 1
    assert capsys.readouterr().err == (
        "config error: array.m_words: more than 1048576 cells with n_bits\n"
    )


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.ini")]) == 1
    assert "config file" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["--config", CONFIG_ENV])
def test_undecodable_config_file_is_one_config_error(tmp_path, monkeypatch, capsys, via):
    # both ways of naming a scenario file read it alike
    cfgdir = tmp_path / "cfgs"
    cfgdir.mkdir()
    bad = cfgdir / "xpointsim.ini"
    bad.write_bytes(b"[array]\nn_bits = 4\xff\n")
    argv = ["validate"]
    if via == CONFIG_ENV:
        monkeypatch.setenv(CONFIG_ENV, str(cfgdir))
    else:
        argv += ["--config", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {bad}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_out_naming_a_file_is_a_parameter_error(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    assert main(["simulate", "--out", "taken"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parameter error: --out: ")
    assert err.count("\n") == 1


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
    # refused by the scenario check, so validate and analyze refuse it too
    cfg = tmp_path / "open.ini"
    cfg.write_text(f"[array]\nline_resistance = {ohms}\n")
    for command in ("validate", "analyze", "simulate"):
        assert main([command, "--config", str(cfg), "--out", "run"]) == 1
        assert capsys.readouterr().err.startswith("config error: array.line_resistance: ")


@pytest.mark.parametrize("ohms", ["1e-11", "1e-18", "1e-300"])
def test_tiny_line_resistance_names_the_key(tmp_path, capsys, ohms):
    # the branch conductances would drop below the rounding error of the
    # wire chain sums and the demo would read or write wrong bits
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(f"[array]\nline_resistance = {ohms}\n")
    for command in ("validate", "analyze", "simulate"):
        assert main([command, "--config", str(cfg), "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: array.line_resistance: "), err
        assert err.count("\n") == 1
        assert "0 means ideal wires" in err


@pytest.mark.parametrize("ohms", ["2e-3", "1.0"])
def test_line_resistance_above_the_floor_runs(tmp_path, capsys, ohms):
    cfg = tmp_path / "wire.ini"
    cfg.write_text(f"[array]\nline_resistance = {ohms}\n")
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0
    assert "word 3 -> '1111'" in capsys.readouterr().out


@pytest.mark.parametrize("ohms", ["1e-300", "1e-10"])
def test_tiny_transistor_r_on_names_the_key(tmp_path, capsys, ohms):
    # the selected row's rail would bury its cells' conductances below the
    # rounding error of the row potential, and current conservation fails
    cfg = tmp_path / "switch.ini"
    cfg.write_text(f"[transistor]\nr_on = {ohms}\n")
    for command in ("validate", "analyze", "simulate"):
        assert main([command, "--config", str(cfg), "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: transistor.r_on: "), err
        assert err.count("\n") == 1


def test_transistor_r_on_above_the_floor_runs(tmp_path, capsys):
    cfg = tmp_path / "switch.ini"
    cfg.write_text("[transistor]\nr_on = 1e-2\n")
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0
    assert "word 3 -> '1111'" in capsys.readouterr().out


def run_cli(*command, stdout=subprocess.PIPE, **env):
    """``xpointsim`` in a child process with ``env`` added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(xpointsim.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, "-m", "xpointsim", *command],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
    )


def test_wired_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = tmp_path / "wired.ini"
    cfg.write_text("[array]\nn_bits = 16\nm_words = 64\nline_resistance = 1.0\n")
    for threads in ("1", "2"):
        run = run_cli("simulate", "--config", str(cfg), "--seed", "1", "--out", threads,
                      OPENBLAS_NUM_THREADS=threads)
        assert run.returncode == 0, run.stderr
    for name in sorted(DEMO_FILES):
        one, two = read_out(tmp_path / "1", name), read_out(tmp_path / "2", name)
        if name == "manifest.txt":
            keep = lambda text: [l for l in text.split("\n") if not l.startswith("wall_clock")]
            one, two = keep(one), keep(two)
        assert one == two, name


def test_closed_stdout_ends_the_run_quietly(tmp_path):
    # the read end of the pipe is closed before the child starts, so its
    # first print meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = run_cli("simulate", "--out", "run", stdout=write_end)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (0, "")
    assert {p.name for p in (tmp_path / "run").iterdir()} == DEMO_FILES


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


def test_zero_write_current_is_one_config_error(tmp_path, capsys):
    # a fully fixed switch used to pass validation and fail in the write
    cfg = tmp_path / "zero.ini"
    cfg.write_text(
        "[transistor]\nr_on = 1000\nr_off = 1e9\ni_sat = 1e-3\n[drive]\nwrite_overdrive = 1e-320\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "config error: drive.write_overdrive: no write current: 9.99989e-321x threshold is 0 A"
    ]
    assert not (tmp_path / "run").exists()


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
