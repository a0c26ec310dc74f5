"""Top-level acceptance checks, one per release gate, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line that every gate prints. Each test is self-contained and states its
tolerance inline.

Hand arithmetic behind the frozen device anchors (defaults: 65 nm pillar,
RA = 10 Ohm um^2, Jc0 = 5.7e6 A/cm^2, tmr = 1.5):

    surface   = pi/4 * 65^2        = 3318.3072 nm^2
    R_P       = 10 / 3318.3072e-6  = 3013.5847 Ohm
    R_AP      = 2.5 * R_P          = 7533.9617 Ohm
    I_C0      = 5.7e6 * 3318.3072e-14 = 1.8914e-4 A
    I_write   = 1.3 * I_C0         = 2.4589e-4 A
"""

import contextlib
import functools
import io
import itertools
import math
import random
import time

import pytest

from test_network import assert_matches_oracle, grid_network, random_case
from xpointsim.array import CrossbarArray
from xpointsim.cli import CONFIG_ENV, main as cli_main
from xpointsim.device import (
    MtjParams,
    MtjState,
    SwitchingParams,
    critical_current,
    mtj_resistance,
    switching_delay,
)
from xpointsim.network import equivalent_resistance
from xpointsim.ops import (
    DriveConfig,
    WriteMode,
    WriteRequest,
    compare_sensing_power,
    read_cycle_time,
    read_word,
    serial_sneak_profile,
    trace_to_csv,
    write_word,
)
from xpointsim.perf import (
    ArchitectureConfig,
    cell_area,
    cell_area_asymptotic,
    cell_area_physical_floor,
)

PARAMS = MtjParams()
R_P = mtj_resistance(MtjState.P, PARAMS)
R_AP = mtj_resistance(MtjState.AP, PARAMS)
I_C0 = critical_current(PARAMS)
TAU = 10e-9
VECTORS = [f"{i:04b}" for i in range(16)]


def gate(fn):
    label = fn.__name__.removeprefix("test_").replace("_", " ")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            detail = fn(*args, **kwargs)
        except BaseException as exc:
            print(f"\n[FAIL] {label}: {exc}")
            raise
        print(f"\n[PASS] {label}" + (f" ({detail})" if detail else ""))

    return wrapper


@gate
def test_area_model_anchor_points():
    for n, want in ((4, 28.0), (32, 3.5), (64, 1.75)):
        assert abs(cell_area_asymptotic(n) - want) <= 1e-9
    assert abs(cell_area_asymptotic(32, a_select_f2=405.0) - 12.65625) <= 1e-9
    cfg = ArchitectureConfig(n_bits=4, m_words=1024)
    exact = cell_area(cfg)
    assert abs(exact - 28.203125) <= 1e-9
    variant = cell_area(ArchitectureConfig(n_bits=4, m_words=1024, balanced=False))
    assert abs(variant - 28.1484375) <= 1e-9
    assert abs(variant - 28.14) < 0.05
    return f"exact {exact} F^2/bit, {variant} on the plain layout"


@gate
def test_junction_pitch_floor():
    floor = cell_area_physical_floor(65.0, 40.0)
    assert abs(floor - 1.515) <= 0.01
    return f"{floor:.6f} F^2/bit at 40 nm on a 65 nm process"


@gate
def test_device_electrical_anchors():
    assert abs(R_P - 3014.0) <= 1.0
    assert abs(R_AP - 7535.0) <= 3.0
    assert abs(I_C0 * 1e6 - 189.0) <= 1.0
    assert I_C0 < 200e-6
    return (
        f"R_P {R_P:.1f} Ohm, R_AP {R_AP:.1f} Ohm, "
        f"threshold {I_C0 * 1e6:.1f} uA"
    )


@gate
def test_fast_write_switching_delay():
    dyn = SwitchingParams.lumped_fit(PARAMS)
    assert switching_delay(1.3 * I_C0, PARAMS, dyn) == pytest.approx(
        TAU, rel=1e-12
    )
    fast = switching_delay(3.0 * I_C0, PARAMS, dyn)
    assert 0.75e-9 <= fast <= 3e-9
    return f"3x threshold switches in {fast * 1e9:.2f} ns"


@gate
def test_solver_against_dense_oracle():
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    count = 100
    for _ in range(count):
        assert_matches_oracle(random_case(rng), rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    return f"{count} random grids to 1e-9, KCL < 1e-12, {elapsed:.2f} s"


@gate
def test_sneak_path_structure():
    # removing the addressed device leaves a single three-device route
    net = grid_network([["P", "P"], ["P", "P"]], {}, skip={(0, 0)})
    r = equivalent_resistance(net, "b0", "w0")
    assert r == pytest.approx(3 * R_P, rel=1e-12)
    # a destructive sneak current would need the route resistance to drop
    # below the addressed high state; even the all-low route cannot
    worst = math.inf
    for s in itertools.product((R_P, R_AP), repeat=3):
        route = sum(s)
        worst = min(worst, route)
        assert route >= R_AP
        states = [["P", "AP" if s[2] == R_AP else "P"],
                  ["AP" if s[0] == R_AP else "P", "AP" if s[1] == R_AP else "P"]]
        path = equivalent_resistance(
            grid_network(states, {}, skip={(0, 0)}), "b0", "w0"
        )
        assert path == pytest.approx(route, rel=1e-12)
    return f"single route 3 R_P = {3 * R_P:.1f} Ohm, floor {worst:.1f} >= R_AP {R_AP:.1f}"


@gate
def test_protocol_round_trip_and_timing():
    drive = DriveConfig()
    bound = 2 * TAU + drive.setup_time_s
    for data in VECTORS:
        for mode in (WriteMode.PARALLEL, WriteMode.SERIAL, WriteMode.SELF_ENABLE_SERIAL):
            arr = CrossbarArray(4, 4)
            trace = write_word(arr, WriteRequest(1, data, mode), drive)
            assert read_word(arr, 1, drive).bits == data, (data, mode)
            if mode is WriteMode.PARALLEL:
                assert len(trace.phases) <= 2
                assert trace.total_time <= bound * (1 + 1e-9)
    # the four-word demonstration: write the last word, then scan
    arr = CrossbarArray(4, 4)
    write_word(arr, WriteRequest(3, "1111", WriteMode.PARALLEL), drive)
    scans = [read_word(arr, w, drive).bits for w in range(4)]
    assert scans == ["0000", "0000", "0000", "1111"]
    t_cycle = read_cycle_time(arr.ideal_reference_resistance(), drive.c_load_f, arr.balanced)
    t_scan = 4 * (drive.setup_time_s + t_cycle)
    assert 4e-9 <= t_scan <= 6e-9
    return (
        f"16 vectors x 3 modes round-trip, parallel <= 2 phases within "
        f"{bound * 1e9:.1f} ns, 4-word scan {t_scan * 1e9:.2f} ns"
    )


@gate
def test_full_scan_at_the_paper_word_width():
    # every word of a seeded 64-bit x 1024-word array at 0 ohm reads back
    # what it stores; the margin floor waits for a placement that gives the
    # reference cells the wire of their data cells
    arr = CrossbarArray(64, 1024)
    rng = random.Random(64)
    for w in range(arr.m_words):
        arr.set_word(w, "".join(rng.choice("01") for _ in range(arr.n_bits)))
    drive = DriveConfig()
    start = time.perf_counter()
    worst = math.inf
    for w in range(arr.m_words):
        sense = read_word(arr, w, drive)
        assert sense.bits == arr.get_word(w), w
        worst = min(worst, min(map(abs, sense.per_bit_margin)))
    elapsed = time.perf_counter() - start
    return f"1024 words x 64 bits in {elapsed:.2f} s, smallest |margin| {worst:.0f} Ohm"


@gate
def test_self_enable_switch_counts():
    arr = CrossbarArray(4, 4)
    arr.set_word(2, "1011")
    trace = write_word(
        arr, WriteRequest(2, "1010", WriteMode.SELF_ENABLE_PARALLEL)
    )
    assert trace.switch_count() == 1
    assert arr.get_word(2) == "1010"
    for before, target in itertools.product(VECTORS, VECTORS):
        arr = CrossbarArray(4, 4)
        arr.set_word(1, before)
        trace = write_word(
            arr, WriteRequest(1, target, WriteMode.SELF_ENABLE_PARALLEL)
        )
        hamming = sum(a != b for a, b in zip(before, target))
        assert trace.switch_count() == hamming, (before, target)
        assert arr.get_word(1) == target
    return "switch count equals Hamming distance for all 256 word pairs"


@gate
def test_power_orderings():
    mixed = [v for v in VECTORS if "0" in v and "1" in v]
    for data in mixed:
        arr = CrossbarArray(4, 4)
        arr.set_word(0, data)
        rep = compare_sensing_power(arr, 0)
        assert rep.parallel_j < rep.serial_j, data
        ap_savings = [s for s, b in zip(rep.per_bit_saving, data) if b == "1"]
        p_savings = [s for s, b in zip(rep.per_bit_saving, data) if b == "0"]
        assert min(ap_savings) > max(p_savings), data

    arr = CrossbarArray(4, 4)
    profile = serial_sneak_profile(arr, 0, 0, "1")
    currents = [i for _, i in profile]
    baseline = currents[0]
    for prev, nxt in zip(currents, currents[1:]):
        assert nxt > prev
    assert all(i > baseline for i in currents[1:])
    ua = ", ".join(f"{i * 1e6:.0f}" for i in currents)
    return f"sensing parallel < serial for all mixed words; source uA vs floating lines: {ua}"


@gate
def test_parallel_sensing_beats_serial_at_the_paper_word_width():
    # the orderings of test_power_orderings at a 64-bit word: alternating,
    # half-ones and seeded random words in a 64 x 4 array
    rng = random.Random(64)
    words = ["01" * 32, "0" * 32 + "1" * 32, "".join(rng.choice("01") for _ in range(64))]
    least = math.inf
    for data in words:
        arr = CrossbarArray(64, 4)
        arr.set_word(0, data)
        rep = compare_sensing_power(arr, 0)
        assert rep.parallel_j < rep.serial_j, data
        ap_savings = [s for s, b in zip(rep.per_bit_saving, data) if b == "1"]
        p_savings = [s for s, b in zip(rep.per_bit_saving, data) if b == "0"]
        assert min(ap_savings) > max(p_savings), data
        least = min(least, 1.0 - rep.parallel_j / rep.serial_j)
    return f"parallel sensing saves at least {least:.1%} of serial at 64 bits"


@gate
def test_switching_energy_envelope():
    arr = CrossbarArray(4, 4)
    trace = write_word(arr, WriteRequest(0, "1111", WriteMode.PARALLEL))
    per_cell = trace.total_energy / 4
    assert 0.2e-12 <= per_cell <= 4e-12
    return f"{per_cell * 1e12:.3f} pJ per switched cell at the default drive"


@gate
def test_rerun_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[operation]\nsweep_n_bits = 2..8\nsweep_m_words = 64,1024\n")
    for run in ("a", "b"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["simulate", "--seed", "3", "--out", f"demo_{run}"]) == 0
            assert (
                cli_main(["sweep", "--config", str(cfg), "--out", f"sw_{run}"]) == 0
            )
    compared = 0
    for stem, names in (
        ("demo", ("waveform.csv", "phases.csv", "reads.csv", "summary.txt")),
        ("sw", ("sweep.csv", "summary.txt")),
    ):
        for name in names:
            a = (tmp_path / f"{stem}_a" / name).read_bytes()
            b = (tmp_path / f"{stem}_b" / name).read_bytes()
            assert a == b, name
            compared += 1
    arr1 = CrossbarArray(4, 4)
    arr2 = CrossbarArray(4, 4)
    req = WriteRequest(2, "0110", WriteMode.SERIAL)
    assert trace_to_csv(write_word(arr1, req)) == trace_to_csv(write_word(arr2, req))
    return f"{compared} output files byte-identical across reruns"
