"""Write and read protocols simulated against the nodal solver.

The timing anchor used throughout: at the default 1.3x overdrive the
switching time is exactly 10 ns, so a single forced phase lasts one
setup time plus 10 ns (give or take the femtosecond slop the event loop
adds to push accumulated progress over 1.0).
"""

import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import refined_solve
from xpointsim import network, ops
from xpointsim.array import CrossbarArray
from xpointsim.device import MtjParams, MtjState, TransistorModel, critical_current, switching_delay
from xpointsim.errors import (
    ConvergenceError,
    IndeterminateReadError,
    MisreadError,
    ParameterError,
    ReadDisturbError,
    SimulationError,
    WriteFailureError,
)
from xpointsim.network import LineBias, solve_network
from xpointsim.ops import (
    DriveConfig,
    WriteMode,
    WriteRequest,
    compare_sensing_power,
    halving_time,
    read_cycle_time,
    read_word,
    select_word,
    serial_sneak_profile,
    trace_to_csv,
    write_word,
)

TAU = 10e-9
ALL_VECTORS = ["".join(bits) for bits in itertools.product("01", repeat=4)]


def fresh(n_bits=4, m_words=4, **kw):
    return CrossbarArray(n_bits, m_words, **kw)


def complement(vector):
    return "".join("1" if c == "0" else "0" for c in vector)


# every write mode, with and without 1 ohm of wire per segment; the ids of
# the cases without wire resistance are the bare mode names
MODES_AND_WIRES = [pytest.param(m, 0.0, id=str(m)) for m in WriteMode] + [
    pytest.param(m, 1.0, id=f"{m}-1ohm") for m in WriteMode
]


# -- request validation ------------------------------------------------------


def test_write_request_validation():
    arr = fresh()
    with pytest.raises(ParameterError, match="data"):
        WriteRequest(0, "101", WriteMode.PARALLEL).validate(arr)
    with pytest.raises(ParameterError, match="data"):
        WriteRequest(0, "10x1", WriteMode.PARALLEL).validate(arr)
    with pytest.raises(ParameterError, match="word_addr"):
        WriteRequest(9, "1011", WriteMode.PARALLEL).validate(arr)


def test_select_word_rejects_unknown_phase():
    from xpointsim.ops import select_word

    with pytest.raises(ParameterError, match="phase"):
        select_word(fresh(), 0, "2")


# -- round trips -------------------------------------------------------------


@pytest.mark.parametrize("mode, line_resistance", MODES_AND_WIRES)
def test_round_trip_all_vectors(mode, line_resistance):
    for vector in ALL_VECTORS:
        arr = fresh(line_resistance=line_resistance)
        write_word(arr, WriteRequest(1, vector, mode), DriveConfig())
        assert read_word(arr, 1).bits == vector
        # neighbours keep their reset state: no write disturb at this size
        for other in (0, 2, 3):
            assert arr.get_word(other) == "0000"


@pytest.mark.parametrize("mode, line_resistance", MODES_AND_WIRES)
def test_round_trip_overwriting_complement(mode, line_resistance):
    drive = DriveConfig()
    for vector in ALL_VECTORS:
        arr = fresh(line_resistance=line_resistance)
        arr.set_word(2, complement(vector))
        write_word(arr, WriteRequest(2, vector, mode), drive)
        assert arr.get_word(2) == vector
        assert read_word(arr, 2).bits == vector


def test_round_trip_every_word_address():
    arr = fresh(4, 6)
    drive = DriveConfig()
    for w in range(6):
        vector = format(w * 5 % 16, "04b")
        write_word(arr, WriteRequest(w, vector, WriteMode.PARALLEL), drive)
    for w in range(6):
        assert read_word(arr, w).bits == format(w * 5 % 16, "04b")


# -- parallel write timing and phases ---------------------------------------


def test_parallel_write_uses_at_most_two_phases():
    drive = DriveConfig()
    for vector in ALL_VECTORS:
        arr = fresh()
        arr.set_word(0, "".join("1" if c == "0" else "0" for c in vector))
        trace = write_word(arr, WriteRequest(0, vector, WriteMode.PARALLEL), drive)
        assert len(trace.phases) <= 2
        bound = 2 * TAU + drive.setup_time_s
        assert trace.total_time <= bound * (1 + 1e-9)


def test_parallel_phase_zero_runs_before_phase_one():
    arr = fresh()
    arr.set_word(0, "0101")
    trace = write_word(arr, WriteRequest(0, "1010", WriteMode.PARALLEL))
    assert [p.label for p in trace.phases] == ["phase-0", "phase-1"]
    assert trace.phases[0].t_end <= trace.phases[1].t_start


def test_single_polarity_write_is_one_phase_of_tau():
    drive = DriveConfig()
    arr = fresh()
    trace = write_word(arr, WriteRequest(0, "1111", WriteMode.PARALLEL), drive)
    assert [p.label for p in trace.phases] == ["phase-1"]
    assert trace.switch_count() == 4
    assert trace.total_time == pytest.approx(TAU + drive.setup_time_s, rel=1e-9)


def test_write_is_self_timed_by_the_pending_flips():
    # only one bit differs, so the forced phase still lasts tau but only
    # one switch event fires; the identical-data write costs setup alone
    drive = DriveConfig()
    arr = fresh()
    arr.set_word(0, "0011")
    trace = write_word(arr, WriteRequest(0, "1011", WriteMode.PARALLEL), drive)
    assert trace.switch_count() == 1
    again = write_word(arr, WriteRequest(0, "1011", WriteMode.PARALLEL), drive)
    assert again.switch_count() == 0
    assert again.total_energy == 0.0
    assert again.total_time == pytest.approx(drive.setup_time_s, rel=1e-9)


def test_switch_events_name_the_written_cells():
    arr = fresh()
    trace = write_word(arr, WriteRequest(0, "1001", WriteMode.PARALLEL))
    flipped = {e.device for e in trace.events if e.kind == "switch"}
    assert flipped == {"w0:b0e", "w0:b3e"}
    assert not [e for e in trace.events if e.kind == "disturb-switch"]


def test_wired_parallel_phase_flips_its_cells_in_one_step():
    # the regulated sources hold every addressed cell at exactly the write
    # current, so the cells of one phase share one switching delay and flip
    # together; a regulation error of 1e-10 relative would already split a
    # phase into several flips ~1e-19 s apart, each with its own solve
    drive = DriveConfig()
    for vector in ALL_VECTORS:
        arr = fresh(line_resistance=1.0)
        arr.set_word(1, complement(vector))
        trace = write_word(arr, WriteRequest(1, vector, WriteMode.PARALLEL), drive)
        for phase in trace.phases:
            stamps = {
                e.t for e in trace.events
                if e.kind == "switch" and phase.t_start < e.t <= phase.t_end
            }
            assert len(stamps) == 1, (vector, phase.label)
        ideal_end = drive.setup_time_s + TAU
        assert trace.phases[0].t_end == pytest.approx(ideal_end, rel=1e-12, abs=0.0), vector


def test_trace_has_balanced_phase_markers():
    arr = fresh()
    trace = write_word(arr, WriteRequest(1, "1010", WriteMode.PARALLEL))
    kinds = [e.kind for e in trace.events]
    assert kinds.count("phase-start") == kinds.count("phase-end") == len(trace.phases)
    times = [s.t for s in trace.samples]
    assert times == sorted(times)


# -- serial write ------------------------------------------------------------


def test_serial_write_runs_one_subphase_per_bit():
    drive = DriveConfig()
    arr = fresh()
    trace = write_word(arr, WriteRequest(0, "0110", WriteMode.SERIAL), drive)
    assert [p.label for p in trace.phases] == [
        "bit0-phase-0", "bit1-phase-1", "bit2-phase-1", "bit3-phase-0",
    ]
    # bits 1 and 2 flip (tau each); bits 0 and 3 are already parallel and
    # cost setup only
    expected = 4 * drive.setup_time_s + 2 * TAU
    assert trace.total_time == pytest.approx(expected, rel=1e-9)
    assert trace.switch_count() == 2


def test_serial_write_is_slower_than_parallel_for_same_data():
    drive = DriveConfig()
    a1 = fresh()
    a2 = fresh()
    tp = write_word(a1, WriteRequest(0, "1110", WriteMode.PARALLEL), drive)
    ts = write_word(a2, WriteRequest(0, "1110", WriteMode.SERIAL), drive)
    assert ts.total_time > tp.total_time
    assert a1.get_word(0) == a2.get_word(0) == "1110"


def test_single_bit_word_serial_equals_parallel():
    drive = DriveConfig()
    a1 = fresh(1, 2)
    a2 = fresh(1, 2)
    tp = write_word(a1, WriteRequest(0, "1", WriteMode.PARALLEL), drive)
    ts = write_word(a2, WriteRequest(0, "1", WriteMode.SERIAL), drive)
    assert tp.total_time == pytest.approx(ts.total_time, rel=1e-9)
    assert tp.total_energy == pytest.approx(ts.total_energy, rel=1e-6)


# -- self-enable write -------------------------------------------------------


def test_self_enable_single_differing_bit_gives_one_switch():
    arr = fresh()
    write_word(arr, WriteRequest(0, "1011", WriteMode.PARALLEL))
    trace = write_word(arr, WriteRequest(0, "1010", WriteMode.SELF_ENABLE_SERIAL))
    assert trace.switch_count() == 1
    assert arr.get_word(0) == "1010"
    assert trace.phases[0].label == "read-before-write"


@pytest.mark.parametrize("mode", [WriteMode.SELF_ENABLE_SERIAL, WriteMode.SELF_ENABLE_PARALLEL])
def test_self_enable_switch_count_equals_hamming_distance(mode):
    drive = DriveConfig()
    for before, after in itertools.product(ALL_VECTORS, ALL_VECTORS):
        arr = fresh()
        arr.set_word(1, before)
        trace = write_word(arr, WriteRequest(1, after, mode), drive)
        hamming = sum(a != b for a, b in zip(before, after))
        assert trace.switch_count() == hamming
        assert arr.get_word(1) == after


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "plain"])
def test_read_before_write_supply_is_its_line_currents(balanced):
    # the read phase charges the currents its solve put on the driven
    # segments; the plain layout's ideal reference branch carries none
    arr = fresh(balanced=balanced)
    arr.set_word(1, "0110")
    trace = write_word(arr, WriteRequest(1, "1010", WriteMode.SELF_ENABLE_PARALLEL))
    read = trace.phases[0]
    assert read.label == "read-before-write"
    assert sorted(read.source_currents) == sorted(arr.segments)
    assert read.supply_a == pytest.approx(sum(read.source_currents.values()), rel=1e-12)


def test_self_enable_identical_data_is_read_only():
    arr = fresh()
    arr.set_word(0, "0110")
    trace = write_word(arr, WriteRequest(0, "0110", WriteMode.SELF_ENABLE_SERIAL))
    assert trace.switch_count() == 0
    assert [p.label for p in trace.phases] == ["read-before-write"]


def test_seeded_self_enable_serial_writes_carry_no_progress():
    # a partial reversal relaxes when its pulse ends; carried into later
    # writes, the progress half-selected cells gathered flipped the idle
    # w203:b0o in write 82 and w7:b0o in write 106 of this sequence
    rng = random.Random(1)
    arr = fresh(4, 256)
    for w in range(256):
        arr.set_word(w, "".join(rng.choice("01") for _ in range(4)))
    for _ in range(120):
        w = rng.randrange(256)
        data = "".join(rng.choice("01") for _ in range(4))
        write_word(arr, WriteRequest(w, data, WriteMode.SELF_ENABLE_SERIAL))
        assert arr.get_word(w) == data


# -- write failure -----------------------------------------------------------


def test_underdriven_write_raises_write_failure():
    arr = fresh(4, 4, write_overdrive=0.9)  # below the switching threshold
    with pytest.raises(WriteFailureError, match="w0"):
        write_word(arr, WriteRequest(0, "1111", WriteMode.PARALLEL))


def test_a_write_that_misses_a_bit_names_it(monkeypatch):
    # a phase that never runs leaves its bits unwritten; the read-back after
    # the write names the word, both bit strings and the first wrong cell
    arr = fresh()
    run = ops._run_phase

    def skipping(array, trace, label, word_addr, phase, *rest):
        if phase != "1":
            run(array, trace, label, word_addr, phase, *rest)

    monkeypatch.setattr(ops, "_run_phase", skipping)
    with pytest.raises(WriteFailureError, match=r"^word 2 reads back '0000', wanted '0110' \(w2:b1e\)$"):
        write_word(arr, WriteRequest(2, "0110", WriteMode.PARALLEL))


def test_a_cell_that_never_flips_ends_the_phase(monkeypatch):
    # a cell whose flip is never stored stays pending through every step:
    # the phase gives up after its step budget instead of looping forever
    arr = fresh()
    store = arr.store
    monkeypatch.setattr(arr, "store", lambda k, value: None if k == 9 else store(k, value))
    with pytest.raises(ConvergenceError, match="^phase-1: switching cascade did not terminate$"):
        write_word(arr, WriteRequest(2, "0110", WriteMode.PARALLEL))


def test_a_pinned_drive_is_corrected_while_its_pins_hold():
    # a drive that pins nodes at the volts its base pins them at is the
    # base's correction, within 1e-12 of the full solve; a drive that pins
    # them at other volts re-bases with a full solve
    arr = fresh(4, 8)
    random_words(arr, 2)
    solver = write_solver(arr, 3 * 4 + np.arange(4))

    def read_network(volts):
        return arr.to_network(dict.fromkeys(arr.segments, LineBias.voltage(volts)), select_word(arr, 3, "read"))

    solve_network(read_network(0.3), solver)
    first = solver.base
    arr.store(3 * 4 + 1, not arr.states[3 * 4 + 1])
    net = read_network(0.3)
    sol, full = solve_network(net, solver), solve_network(net)
    assert solver.corrected and solver.base is first
    assert relative_miss(sol.currents, full.currents) <= 1e-12
    assert relative_miss(sol.rail_currents, full.rail_currents) <= 1e-12
    got, want = (np.array([s.source_currents[line] for line in arr.segments]) for s in (sol, full))
    assert relative_miss(got, want) <= 1e-12
    net = read_network(0.25)
    sol = solve_network(net, solver)
    assert not solver.corrected and solver.base is not first
    assert relative_miss(sol.currents, solve_network(net).currents) <= 1e-12


def test_write_times_at_the_design_point_match_the_closed_form():
    # a 64-bit word of a scrambled 64x1024 array: a parallel write of its
    # complement takes one setup and two switching delays at the write
    # current, a serial write one setup and one delay per bit, as analyze
    # charges them
    arr = fresh(64, 1024)
    rng = np.random.default_rng(1)
    arr.store(np.arange(arr.states.size), rng.random(arr.states.size) < 0.5)
    drive, w = DriveConfig(), arr.m_words // 2 + 1
    tau = switching_delay(arr.write_current, arr.params, arr.dynamics)
    for mode, want in ((WriteMode.PARALLEL, 2 * tau + drive.setup_time_s),
                       (WriteMode.SERIAL, 64 * (tau + drive.setup_time_s))):
        trace = write_word(arr, WriteRequest(w, complement(arr.get_word(w)), mode), drive)
        assert trace.total_time == pytest.approx(want, rel=1e-9, abs=0.0)


def test_random_writes_at_the_design_point_take_one_solve_per_phase(monkeypatch):
    # a phase's addressed cells carry the write current to within the
    # regulation's tolerance, so they flip as one group: 20 random parallel
    # writes to a scrambled 64x1024 array solve once per phase, each writes
    # its word, and no other cell changes. Flipping only the cells due within
    # 1e-12 of the first, some of these phases took a second or third solve
    arr = fresh(64, 1024)
    rng = np.random.default_rng(1)
    arr.store(np.arange(arr.states.size), rng.integers(0, 2, arr.states.size).astype(bool))
    solves, solve = [], ops.solve_network
    monkeypatch.setattr(ops, "solve_network", lambda *a: solves.append(1) or solve(*a))
    for _ in range(20):
        w = int(rng.integers(arr.m_words))
        data = "".join("01"[b] for b in rng.integers(0, 2, arr.n_bits).tolist())
        before, solves[:] = arr.states.copy(), []
        trace = write_word(arr, WriteRequest(w, data, WriteMode.PARALLEL))
        assert len(solves) == len(trace.phases) == 2
        others = np.ones(arr.states.size, dtype=bool)
        others[w * 64 : (w + 1) * 64] = False
        assert arr.get_word(w) == data and np.array_equal(arr.states[others], before[others])


def test_flips_within_the_regulation_spread_are_one_group():
    # a step lasts until its first flip is due, with a margin that carries
    # that flip past its delay; remaining times 1e-11 apart, as regulation
    # rounding leaves them, are in its group, and the step lasts until the
    # last of them is due; a flip 1e-6 later is not. The bound follows the
    # delay's sensitivity to its current, 1.3 / 0.3 times the doubled
    # tolerance at 1.3x overdrive: 8e-10 apart still groups, 1e-9 does not
    i_c = critical_current(MtjParams())
    i, limits = -1.3 * i_c, np.full(16, i_c)

    def step(*later):
        return ops._step_time([(r, 9 + j, i) for j, r in enumerate(later)] + [(1.0, 5, i)], limits)

    assert step() == step(1.0 + 1e-6) == step(1.0 + 5e-13) == 1.0 + 1e-12
    assert step(1.0 + 1e-6, 1.0 + 1e-11) == (1.0 + 1e-11) * (1.0 + 1e-12)
    assert step(1.0 + 8e-10) == (1.0 + 8e-10) * (1.0 + 1e-12)
    assert step(1.0 + 1e-9) == 1.0 + 1e-12


# -- reading -----------------------------------------------------------------


def test_read_cycle_time_is_the_reference_halving_time():
    arr = fresh()
    drive = DriveConfig()
    r_ref = arr.ideal_reference_resistance()
    expected = r_ref * drive.c_load_f * math.log(2)
    assert read_cycle_time(r_ref, drive.c_load_f, True) == pytest.approx(expected, rel=1e-12)
    assert read_cycle_time(r_ref, drive.c_load_f, True) == pytest.approx(1.1937e-9, rel=1e-3)
    # the plain layout spends a second cycle on its compare
    assert read_cycle_time(r_ref, drive.c_load_f, False) == pytest.approx(2 * expected, rel=1e-12)


def test_read_is_non_destructive():
    arr = fresh()
    arr.set_word(0, "1010")
    arr.set_word(1, "0110")
    before = arr.resistances.copy()  # the live resistances, as they are now
    read_word(arr, 0)
    read_word(arr, 1)
    assert np.array_equal(arr.resistances, before)


def test_read_margin_signs_follow_the_data():
    arr = fresh()
    arr.set_word(0, "1001")
    sense = read_word(arr, 0)
    assert sense.bits == "1001"
    for j, bit in enumerate("1001"):
        margin = sense.per_bit_margin[j]
        assert margin < 0 if bit == "1" else margin > 0


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reads_follow_their_word_under_permutation_within_parity(data):
    # at 0 ohm a read pins every segment, so the unselected rows carry no
    # current and a read depends on the word's cells, the segments of its
    # parity and the reference row serving that parity: permuting the
    # stored words within each parity class moves every read with its word
    n_bits = data.draw(st.integers(1, 8), label="n_bits")
    m_words = 2 * data.draw(st.integers(1, 16), label="m_words / 2")
    words = data.draw(
        st.lists(st.text("01", min_size=n_bits, max_size=n_bits),
                 min_size=m_words, max_size=m_words),
        label="words",
    )
    moved = {}
    for parity in (0, 1):
        cls = list(range(parity, m_words, 2))
        moved.update(zip(cls, data.draw(st.permutations(cls), label=f"parity {parity}")))
    before, after = fresh(n_bits, m_words), fresh(n_bits, m_words)
    for w, word in enumerate(words):
        before.set_word(w, word)
        after.set_word(moved[w], word)
    for w in range(m_words):
        here, there = read_word(before, w), read_word(after, moved[w])
        assert here.bits == there.bits == words[w]
        assert there.per_bit_margin == pytest.approx(here.per_bit_margin, rel=1e-12, abs=0.0)
        for pair, moved_pair in zip(here.branch_currents, there.branch_currents):
            assert moved_pair == pytest.approx(pair, rel=1e-12, abs=0.0)


def test_read_branch_current_ordering():
    # low-resistance parallel cells pull the most current, references sit
    # between the two data states, and everything stays under threshold
    arr = fresh()
    arr.set_word(0, "0101")
    sense = read_word(arr, 0)
    i_c = critical_current(arr.params)
    for j, bit in enumerate("0101"):
        i_data, i_ref = sense.branch_currents[j]
        if bit == "0":
            assert i_data > i_ref
        else:
            assert i_data < i_ref
        assert abs(i_data) < i_c and abs(i_ref) < i_c


def test_read_delay_uses_fixed_sense_clock():
    arr = fresh()
    arr.set_word(0, "1100")
    drive = DriveConfig()
    sense = read_word(arr, 0, drive)
    clock = read_cycle_time(arr.ideal_reference_resistance(), drive.c_load_f, True)
    assert sense.sense_delay == pytest.approx(clock, rel=1e-12)
    # a '0' race is won by the low-resistance data branch, a '1' race by
    # the reference branch, so '0' decisions land first
    for j, bit in enumerate("1100"):
        for k, other in enumerate("1100"):
            if bit == "0" and other == "1":
                assert sense.per_bit_delay[j] < sense.per_bit_delay[k]
    # each bit's delay is the halving time of the faster of its branches
    v = drive.v_read
    for (i_data, i_ref), delay in zip(sense.branch_currents, sense.per_bit_delay):
        assert delay == pytest.approx(halving_time(min(v / i_data, v / i_ref), drive.c_load_f), rel=1e-12)


def test_read_matches_isolated_branch_prediction():
    """The mesh-loaded decision agrees with the ideal two-resistor race for
    a healthy spread of stored patterns."""
    import random

    rng = random.Random(20260814)
    drive = DriveConfig()
    for _ in range(25):
        arr = fresh(4, 6)
        for w in range(6):
            arr.set_word(w, "".join(rng.choice("01") for _ in range(4)))
        w = rng.randrange(6)
        assert read_word(arr, w, drive).bits == arr.get_word(w)


def test_read_scan_allocates_no_dense_nodal_matrix():
    # a read of 4x1024 has 1034 nodes; its 1026 rows are eliminated before
    # the factorisation, so no 1034 x 1034 matrix (8.6 MB) is ever built
    arr = fresh(m_words=1024)
    read_word(arr, 0)
    tracemalloc.start()
    try:
        read_word(arr, 511)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_wide_word_write_bounds_the_fill_of_each_group(monkeypatch):
    # a write pins no kept node; without wires the 128 segments of a 64-bit
    # word are one layer, and its 258 eliminated rows one group whose fill
    # is one 128 x 258 x 128 product. Its 258 x 64 x 64 pair products at
    # once would take 8.5 MB
    arr = fresh(64, 256)
    core = arr.to_network({}, {}).core
    assert (core.n_layers, core.width, core.group_rows, core.span) == (1, 128, 258, 128)
    peaks, solve_kept = [], network.NodalCore._solve_kept

    def measured(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        x = solve_kept(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return x

    monkeypatch.setattr(network.NodalCore, "_solve_kept", measured)
    tracemalloc.start()
    try:
        write_word(arr, WriteRequest(0, "1" * 64, WriteMode.PARALLEL))
    finally:
        tracemalloc.stop()
    assert peaks and max(peaks) < 2e6


def test_wired_write_allocates_no_dense_schur_complement():
    # a 16x128 array with wires keeps 3,120 nodes: a dense S over them is
    # 78 MB, its blocks over 66 layers of at most 48 nodes 3.6 MB
    arr = fresh(16, 128, line_resistance=1.0)
    rng = random.Random(1)
    for w in range(128):
        arr.set_word(w, "".join(rng.choice("01") for _ in range(16)))
    tracemalloc.start()
    try:
        write_word(arr, WriteRequest(5, "1010" * 4, WriteMode.PARALLEL))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_repeated_writes_leave_no_memory_on_the_core():
    # random words change random numbers of bits, so successive writes
    # regulate different numbers of sources; whatever a solve allocates for
    # them must be freed with it, not kept on the array's core
    arr = fresh(64, 256)
    rng = random.Random(5)
    tracemalloc.start()
    try:
        for k in range(20):
            data = "".join(rng.choice("01") for _ in range(64))
            write_word(arr, WriteRequest(rng.randrange(256), data, WriteMode.PARALLEL))
            if k == 1:
                after_second = tracemalloc.get_traced_memory()[0]
        grown = tracemalloc.get_traced_memory()[0] - after_second
    finally:
        tracemalloc.stop()
    assert grown < 1e6


def test_repeated_wired_writes_keep_a_bounded_factored_base():
    # with wires the array's write solver keeps its factored base across
    # writes, and a write to another word adds that word's unit columns to
    # it. Writes that flip one cell each leave the change since the base was
    # factored small, so only the limit on those columns, 32 MB at this
    # 16x128 array (about 30 words), makes the solver factor again: 60 such
    # writes would otherwise keep about 65 MB
    arr = fresh(16, 128, line_resistance=1.0)
    random_words(arr, 6)
    rng = random.Random(6)
    tracemalloc.start()
    try:
        for k, w in enumerate(rng.sample(range(128), 60)):
            word = arr.get_word(w)
            j = rng.randrange(16)
            write_word(arr, WriteRequest(w, word[:j] + complement(word[j]) + word[j + 1 :], WriteMode.PARALLEL))
            if k == 1:
                after_second = tracemalloc.get_traced_memory()[0]
        grown = tracemalloc.get_traced_memory()[0] - after_second
    finally:
        tracemalloc.stop()
    assert grown < 40e6  # the limit's 32 MB and a fifth more


def numbers_and_labels(result, path="", out=None):
    """The values of a result's fields, dataclasses, dicts and sequences opened, listed by
    field path; a dict adds its keys and a sequence its length under the path."""
    out = {} if out is None else out
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            numbers_and_labels(getattr(result, field.name), f"{path}.{field.name}", out)
    elif isinstance(result, dict):
        out.setdefault(path + ".keys", []).append(tuple(result))
        for value in result.values():
            numbers_and_labels(value, path, out)
    elif isinstance(result, (tuple, list)):
        out.setdefault(path + ".len", []).append(len(result))
        for value in result:
            numbers_and_labels(value, path, out)
    else:
        out.setdefault(path, []).append(result)
    return out


def assert_results_agree(got, want, rel):
    """Two results of one operation: every label, bit string and count equal, and every
    float within ``rel`` of the largest magnitude of its field (a sneak overhead, a
    ratio to the ideal drive, is compared as 1 + overhead)."""
    got, want = numbers_and_labels(got), numbers_and_labels(want)
    assert got.keys() == want.keys()
    for path, values in want.items():
        if not all(type(v) is float for v in values):
            assert got[path] == values, path
            continue
        shift = 1.0 if path.endswith("sneak_overhead") else 0.0
        scale = np.abs(np.array(values) + shift).max(initial=0.0)
        assert np.allclose(got[path], values, rtol=0.0, atol=rel * scale), path


@pytest.mark.parametrize("line_resistance, rel", [(0.0, 0.0), (1.0, 1e-11)], ids=["bare", "wired"])
def test_interleaved_operations_match_a_fresh_array_each(line_resistance, rel):
    # reads and writes on one array share its compiled core and the tables
    # the core keeps per pin pattern and per driver rows; none of them may
    # carry anything from one operation into the next, so the stored words
    # are the array's whole state. With wires, a write's first solve corrects
    # the base an earlier write left, and a read after a write corrects the
    # read base: an operation's bits, events, phases and stored words are
    # those of a fresh array holding the same words, and its numbers are
    # within 1e-11 of them; without wires they are the same numbers
    arr = fresh(4, 8, line_resistance=line_resistance)
    drive = DriveConfig()
    steps = [
        ("read", 0), ("write", (1, "1011", WriteMode.PARALLEL)), ("read", 1),
        ("read", 0), ("write", (4, "0110", WriteMode.PARALLEL)), ("read", 4),
        ("write", (1, "0100", WriteMode.PARALLEL)), ("read", 1),
        ("write", (6, "1001", WriteMode.SERIAL)), ("read", 6),
        ("write", (4, "1100", WriteMode.SELF_ENABLE_SERIAL)), ("read", 4),
        ("write", (6, "0101", WriteMode.SELF_ENABLE_PARALLEL)), ("read", 6),
    ]
    for kind, arg in steps:
        alone = fresh(4, 8, line_resistance=line_resistance)
        for w in range(8):
            alone.set_word(w, arr.get_word(w))
        if kind == "read":
            assert_results_agree(read_word(arr, arg, drive), read_word(alone, arg, drive), rel)
        else:
            req = WriteRequest(*arg)
            assert_results_agree(write_word(arr, req, drive), write_word(alone, req, drive), rel)
            assert [arr.get_word(w) for w in range(8)] == [alone.get_word(w) for w in range(8)]


# -- the per-write solver ---------------------------------------------------


def write_solver(arr, cells):
    """The solver a write of ``cells`` takes."""
    return network.BaseSolver(arr.core, ops._write_reach(arr, cells))


def relative_miss(got, want):
    """The largest difference of two arrays relative to the largest of ``want``."""
    return float(np.abs(got - want).max(initial=0.0) / np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("mode", list(WriteMode), ids=str)
@pytest.mark.parametrize("n_bits, m_words", [(4, 8), (8, 16), (16, 64)], ids=["4x8", "8x16", "16x64"])
@pytest.mark.parametrize("line_resistance", [0.0, 1.0], ids=["bare", "wired"])
def test_write_phases_match_the_full_solve(monkeypatch, mode, n_bits, m_words, line_resistance):
    # every phase's solution, corrected from the write's base or not, is the
    # full solve of its network; without wires within 1e-12 relative. With
    # wires the full solve is itself only about 1e-11 relative off an
    # extended-precision solve, so two solves of one network agree within
    # 1e-11 (6.7e-12 the worst seen over 120 seeded writes). The bits, the
    # events and the phase labels are those of writes solved in full
    rng = random.Random(n_bits * m_words + int(line_resistance))
    # each write overwrites a word's complement, and every word holds both
    # values, so each write drives both polarities and every bit
    words = ["01" + "".join(rng.choice("01") for _ in range(n_bits - 2)) for _ in range(m_words)]
    requests = [WriteRequest(w, complement(words[w]), mode) for w in rng.sample(range(m_words), 3)]
    bound = 1e-12 if line_resistance == 0.0 else 1e-11
    solve, corrected = ops.solve_network, []

    def checked(net, solver=None):  # a read's base is solved without one
        sol = solve(net, solver)
        if solver is None:
            return sol
        assert solver.base is not None  # no correction failed a check and fell back
        corrected.append(solver.corrected)
        full = solve(net)
        assert relative_miss(sol.currents, full.currents) <= bound
        assert relative_miss(sol.rail_currents, full.rail_currents) <= bound
        lines = list(full.source_currents)
        got, want = (np.array([s.source_currents[line] for line in lines]) for s in (sol, full))
        assert relative_miss(got, want) <= bound
        return sol

    def write_all():
        arr = fresh(n_bits, m_words, line_resistance=line_resistance)
        for w, data in enumerate(words):
            arr.set_word(w, data)
        traces = [write_word(arr, req) for req in requests]
        return [arr.get_word(w) for w in range(m_words)], traces

    monkeypatch.setattr(ops, "solve_network", checked)
    bits, traces = write_all()
    monkeypatch.setattr(ops, "solve_network", lambda net, solver: solve(net))  # every phase solved in full
    full_bits, full_traces = write_all()
    assert any(corrected)
    assert bits == full_bits
    for trace, full in zip(traces, full_traces):
        assert [(e.kind, e.device) for e in trace.events] == [(e.kind, e.device) for e in full.events]
        assert [ph.label for ph in trace.phases] == [ph.label for ph in full.phases]


def phase_network(arr, word, phase, bits):
    """The network of one write phase of ``bits`` of ``word``."""
    return arr.to_network(ops._write_sources(arr, word, phase, bits), select_word(arr, word, phase))


def counted_full_solves(monkeypatch):
    """The calls of the full solve from now on, one entry each."""
    calls, solve_full = [], network._solve_full
    monkeypatch.setattr(network, "_solve_full", lambda *a: calls.append(1) or solve_full(*a))
    return calls


@pytest.mark.parametrize("line_resistance", [0.0, 1.0], ids=["bare", "wired"])
def test_a_flip_outside_the_reach_extends_the_base(monkeypatch, line_resistance):
    # a flipped cell of the written word is a dipole within the write's
    # reach, a correction; a cell of another word flipped by a disturb is
    # outside it: its two nodes join the reach through the base's factor,
    # and the next solve is corrected from the same base, with no full solve
    arr = fresh(4, 8, line_resistance=line_resistance)
    random_words(arr, 3)
    solver = write_solver(arr, 2 * 4 + np.arange(4))
    solve_network(phase_network(arr, 2, "0", [0, 1]), solver)
    first = solver.base
    arr.store(2 * 4 + 1, not arr.states[2 * 4 + 1])
    net = phase_network(arr, 2, "1", [2, 3])
    sol = solve_network(net, solver)
    assert solver.corrected and solver.base is first
    assert np.allclose(sol.currents, solve_network(net).currents, rtol=0.0, atol=1e-12 * arr.write_current)
    disturbed = arr.core.ends[:, 5 * 4 + 2]
    assert (solver.base.place[disturbed] < 0).all()
    arr.store(5 * 4 + 2, not arr.states[5 * 4 + 2])
    net = phase_network(arr, 2, "1", [2, 3])
    full = counted_full_solves(monkeypatch)
    sol = solve_network(net, solver)
    assert solver.corrected and solver.base is first and full == []
    assert (solver.base.place[disturbed] >= 0).all()
    assert np.allclose(sol.currents, solve_network(net).currents, rtol=0.0, atol=1e-12 * arr.write_current)


@pytest.mark.parametrize("line_resistance", [0.0, 1.0], ids=["bare", "wired"])
def test_a_write_sequence_matches_writes_solved_in_full(monkeypatch, line_resistance):
    # 50 seeded parallel and self-enable serial writes on one 8x16 array keep
    # one write solver. With wires a write's first solve corrects the base
    # factored for an earlier write, whose unit columns grow by the write's
    # reach, until the cells flipped since pass the bound and it factors
    # again; without wires, a core of one layer, the bound is nil and a write
    # factors again at its first solve. Every solve
    # through it is the full solve of its network within 1e-12 without wires
    # and 1e-11 with them, the bits, events and phase labels are those of
    # writes solved in full, and each factored base costs one full solve, no
    # other
    rng = random.Random(40)
    modes = [WriteMode.PARALLEL, WriteMode.SELF_ENABLE_SERIAL]
    requests = [WriteRequest(rng.randrange(16), "".join(rng.choice("01") for _ in range(8)), rng.choice(modes))
                for _ in range(50)]
    words = ["".join(rng.choice("01") for _ in range(8)) for _ in range(16)]
    bound = 1e-12 if line_resistance == 0.0 else 1e-11
    solve, solve_full, bases, full = ops.solve_network, network._solve_full, [], []

    def checked(net, solver=None):
        monkeypatch.setattr(network, "_solve_full", lambda *a: full.append(1) or solve_full(*a))
        sol = solve(net, solver)
        monkeypatch.setattr(network, "_solve_full", solve_full)
        assert solver.base is not None  # no correction failed a check and fell back
        if not any(factor is solver.factor for factor in bases):
            bases.append(solver.factor)
        want = solve(net)
        assert relative_miss(sol.currents, want.currents) <= bound
        assert relative_miss(sol.rail_currents, want.rail_currents) <= bound
        lines = list(want.source_currents)
        got, wanted = (np.array([s.source_currents[line] for line in lines]) for s in (sol, want))
        assert relative_miss(got, wanted) <= bound
        return sol

    def write_all():
        arr = fresh(8, 16, line_resistance=line_resistance)
        for w, data in enumerate(words):
            arr.set_word(w, data)
        return [write_word(arr, req) for req in requests], [arr.get_word(w) for w in range(16)]

    monkeypatch.setattr(ops, "solve_network", checked)
    traces, bits = write_all()
    monkeypatch.setattr(ops, "solve_network", lambda net, solver: solve(net))  # every phase solved in full
    full_traces, full_bits = write_all()
    assert bits == full_bits
    for trace, want in zip(traces, full_traces):
        assert [(e.kind, e.device) for e in trace.events] == [(e.kind, e.device) for e in want.events]
        assert [ph.label for ph in trace.phases] == [ph.label for ph in want.phases]
    # with wires the flipped cells pass the bound at least twice
    assert len(full) == len(bases) >= 3


def test_a_corrupted_base_falls_back_to_the_full_solve():
    # a correction from a wrong base fails the conservation check, so the
    # phase is solved again in full and that solution stands; the solver
    # drops the base, and its next solve re-bases
    arr = fresh(4, 8)
    random_words(arr, 4)
    solver = write_solver(arr, 3 * 4 + np.arange(4))
    solve_network(phase_network(arr, 3, "0", [0]), solver)
    source = arr.core.terminal[arr.core.line_index[arr.host_segment(3, 1)]]
    solver.base.cols[1 + solver.base.place[source]] *= 1.5
    net = phase_network(arr, 3, "1", [1])
    sol = solve_network(net, solver)
    full = solve_network(net)
    assert solver.base is None
    assert np.array_equal(sol.volts, full.volts) and sol.source_currents == full.source_currents
    solve_network(phase_network(arr, 3, "1", [2]), solver)
    assert not solver.corrected and solver.base is not None


@pytest.mark.parametrize("line_resistance", [0.0, 1.0], ids=["bare", "wired"])
def test_a_correction_costs_the_rank_of_its_change(monkeypatch, line_resistance):
    # after an earlier write, a serial write of an 8-bit word that differs in
    # every bit: each solve of its run after the first is the run's base
    # corrected for the cells flipped since that first solve, and no row
    # saturates, so no rail's shunt changes. A change of rank r costs one
    # r x r system, whatever places it touches; the only other system is
    # the 1 x 1 regulation of the phase's one source
    arr = fresh(8, 16, line_resistance=line_resistance)
    random_words(arr, 31)
    write_word(arr, WriteRequest(3, complement(arr.get_word(3)), WriteMode.PARALLEL))
    solve, solve_linear, systems, calls = ops.solve_network, np.linalg.solve, [], []
    full = counted_full_solves(monkeypatch)

    def counted(asm, solver):
        start, states = len(systems), arr.states.copy()
        sol = solve(asm, solver)
        calls.append((start, len(systems), states, sol, len(full)))
        return sol

    monkeypatch.setattr(ops, "solve_network", counted)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: systems.append(a.shape) or solve_linear(a, b))
    write_word(arr, WriteRequest(9, complement(arr.get_word(9)), WriteMode.SERIAL))
    (_, _, base_states, _, factored), *later = calls
    assert len(later) >= 7
    for start, end, states, sol, full_solves in later:
        r = int(np.count_nonzero(states != base_states))
        assert r >= 1 and not sol.clamped and full_solves == factored
        assert end > start and max(systems[start:end]) <= (r, r)


def reference_drive(asm):
    """The components of the drive ``asm`` binds, as :func:`oracle.refined_solve` takes
    them: every edge, every rail that conducts, to a fixed node of its own, and each
    regulated source with its cell; the rails ohmic."""
    core = asm.core
    ohms = np.concatenate([asm.resistance, core.wire_r]).tolist()
    resistors = list(zip(core.edge_a.tolist(), core.edge_b.tolist(), ohms))
    fixed = dict(zip(asm.fixed.tolist(), asm.fixed_volts.tolist()))
    for j, (node, r) in enumerate(zip(core.rail_node.tolist(), asm.rail_r.tolist())):
        if math.isfinite(r):
            resistors.append((node, ("rail", j), r))
            fixed[("rail", j)] = float(asm.rail_volts[j])
    regulated = {
        node: (*core.ends[:, cell].tolist(), float(asm.resistance[cell]), amps)
        for node, cell, amps in zip(asm.reg_nodes.tolist(), asm.reg_cells.tolist(), asm.reg_targets.tolist())
    }
    return resistors, fixed, regulated


def test_the_full_wired_write_solve_matches_an_extended_precision_reference(monkeypatch):
    # the 8x8 1 ohm/segment demo's write (all ones into the last word of the
    # state --seed 1 scrambles), then a self-enable serial write of a word's
    # complement: at every step the full solve's source currents are within
    # 2e-11, relative to the largest, of the dense solve refined in extended
    # precision, which shares no code with the package's solver
    arr = fresh(8, 8, line_resistance=1.0)
    rng = random.Random(1)
    for w in range(arr.m_words):
        arr.set_word(w, "".join("01"[rng.getrandbits(1)] for _ in range(arr.n_bits)))
    solve, misses = ops.solve_network, []

    def checked(asm, solver):
        full = solve(asm)
        assert not full.clamped  # the reference's rails are ohmic
        resistors, fixed, regulated = reference_drive(asm)
        sources = refined_solve(resistors, fixed, regulated=regulated)[1]
        want = np.array([sources[node] for node in asm.reg_nodes.tolist()])
        got = np.array([full.source_currents[line] for line in asm.regulated], dtype=np.longdouble)
        misses.append(float(np.abs(got - want).max() / np.abs(want).max()))
        return solve(asm, solver)

    monkeypatch.setattr(ops, "solve_network", checked)
    write_word(arr, WriteRequest(7, "1" * 8, WriteMode.PARALLEL))
    write_word(arr, WriteRequest(2, complement(arr.get_word(2)), WriteMode.SELF_ENABLE_SERIAL))
    assert len(misses) >= 9
    assert max(misses) <= 2e-11


def full_solve_read(arr, word, drive):
    """Bits, margins and branch currents of one read from a solve of the
    whole read network, bit by bit as the sense amplifiers pair them."""
    sol = ops._read_solution(arr, word, drive)
    r_ideal = arr.ideal_reference_resistance()
    bits, margins, currents = "", [], []
    for j in range(arr.n_bits):
        i_data = sol.source_currents[arr.host_segment(word, j)]
        if arr.balanced:
            i_ref = sol.source_currents[arr.sibling_segment(word, j)]
            r_ref = drive.v_read / i_ref
        else:
            r_ref = r_ideal
            i_ref = drive.v_read / r_ref
        r_data = drive.v_read / i_data
        bits += "1" if r_data > r_ref else "0"
        margins.append(r_ref - r_data)
        currents.append((i_data, i_ref))
    return bits, margins, currents


@settings(max_examples=40, deadline=None)
@given(
    n_bits=st.integers(1, 8),
    half_words=st.integers(1, 16),
    balanced=st.booleans(),
    line_resistance=st.sampled_from([0.0, 2.0]),
    seed=st.integers(0, 2**16),
)
def test_read_is_its_base_plus_a_rank_two_correction(
    n_bits, half_words, balanced, line_resistance, seed
):
    # every read of the cached idle solution and its correction matches a
    # solve of the whole read network. Without wires the two agree to
    # rounding. With wires both take a segment's current as the sum of its
    # cells' currents; over 450 random arrays of this space they differed by
    # at most 5.6e-12 in a margin and 2.7e-12 in a branch current (8.9e-11
    # when the full solve took the wire current at the segment terminal)
    arr = fresh(n_bits, 2 * half_words, balanced=balanced, line_resistance=line_resistance)
    rng = random.Random(seed)
    for w in range(arr.m_words):
        arr.set_word(w, "".join(rng.choice("01") for _ in range(n_bits)))
    drive = DriveConfig()
    rel = 1e-12 if line_resistance == 0.0 else 2e-11
    for w in rng.sample(range(arr.m_words), min(arr.m_words, 4)):
        sense = read_word(arr, w, drive)
        bits, margins, currents = full_solve_read(arr, w, drive)
        assert sense.bits == bits
        assert sense.per_bit_margin == pytest.approx(margins, rel=rel)
        assert np.allclose(sense.branch_currents, currents, rtol=rel, atol=0.0)


def test_idle_selectors_leaving_their_saturation_fail_as_the_full_solve():
    # a leaky, weak word selector saturates most idle rows of a wired array,
    # and a read moves further idle rows across their saturation current:
    # each read must raise the error a solve of the whole read network gives
    switch = TransistorModel(r_on=1000.0, r_off=1e4, i_sat=1.92e-5)
    arr = fresh(4, 8, line_resistance=1000.0, transistor=switch)
    rng = random.Random(3)
    for w in range(arr.m_words):
        arr.set_word(w, "".join(rng.choice("01") for _ in range(arr.n_bits)))
    drive = DriveConfig()
    on = LineBias.voltage(drive.v_read)
    idle = solve_network(arr.to_network(dict.fromkeys(arr.segments, on), {})).clamped
    flipped = set()
    for w in range(arr.m_words):
        sol = ops._read_solution(arr, w, drive)
        flipped |= (sol.clamped ^ idle) - set(select_word(arr, w, "read"))
        j, seg = next(
            (j, seg)
            for j in range(arr.n_bits)
            for seg in (arr.host_segment(w, j), arr.sibling_segment(w, j))
            if not sol.source_currents[seg] > 0.0
        )
        with pytest.raises(IndeterminateReadError) as info:
            read_word(arr, w, drive)
        assert str(info.value) == (
            f"word {w} bit {j}: segment {seg} carries {sol.source_currents[seg]:.3g} A, "
            "so its branch resistance cannot be sensed"
        )
    assert flipped


def test_mixed_sequence_reads_like_a_fresh_array():
    # 200 seeded steps on one array, writes in every mode and reads: the
    # cached read base is re-solved in place after each write, and every
    # read equals the read of a fresh array holding the same words
    arr = fresh(4, 16)
    rng = random.Random(200)
    modes = list(WriteMode)
    for _ in range(200):
        w = rng.randrange(arr.m_words)
        if rng.random() < 0.5:
            data = "".join(rng.choice("01") for _ in range(arr.n_bits))
            write_word(arr, WriteRequest(w, data, rng.choice(modes)))
            continue
        alone = fresh(4, 16)
        for v in range(arr.m_words):
            alone.set_word(v, arr.get_word(v))
        assert read_word(arr, w) == read_word(alone, w)


def random_words(arr, seed):
    rng = random.Random(seed)
    for w in range(arr.m_words):
        arr.set_word(w, "".join(rng.choice("01") for _ in range(arr.n_bits)))


def read_rows(arr, w):
    """The rows a balanced read of word ``w`` grounds: its own and its parity's reference row."""
    return [w, arr.m_words + w % 2]


def test_a_row_at_fault_raises_only_in_the_reads_that_select_it():
    # without wires the first read enters every row's read in the table,
    # faulty rows too: word 5 disturbs a cell whose threshold is set to half
    # its read current, and word 6's idle potential is set beyond what its
    # selector can pull without overflow. Each raises in its own reads only,
    # with the text of the checks of the read's rows, and no other read
    # moves from what a base without the faults gives
    arr = fresh(4, 8)
    random_words(arr, 7)
    drive = DriveConfig()
    net = arr.to_network(dict.fromkeys(arr.segments, LineBias.voltage(drive.v_read)), {})
    hot = 5 * arr.n_bits + 2  # cell k = word * n_bits + bit
    i_read = ops._read_solution(arr, 5, drive).currents[hot]
    limits = arr.critical_currents.copy()
    limits[hot] = abs(i_read) / 2
    base, clean = network.ReadBase(net, limits), network.ReadBase(net, arr.critical_currents)
    base.volts[base.core.terminal[base.core.line_index["w6"]]] = np.finfo(float).max
    for _ in range(2):
        for w in (0, 1, 2, 3, 4, 7):  # the first of them builds the table
            rows = read_rows(arr, w)
            assert np.array_equal(base.read(rows)[0], clean.read(rows)[0])
        with pytest.raises(ReadDisturbError) as info:
            base.read(read_rows(arr, 5))
        assert str(info.value) == (
            f"read current {abs(i_read) * 1e6:.1f} uA reaches the switching "
            f"threshold of w5:{arr.host_segment(5, 2)}"
        )
        with pytest.raises(SimulationError, match=r"^node potentials beyond float range on: w6$"):
            base.read(read_rows(arr, 6))


def test_zero_ohm_reads_look_their_rows_up(monkeypatch):
    # once the table of a 0 ohm array exists a read solves and balances
    # nothing; a write re-solves the base in place at its word's row, and
    # that row alone is entered again, when a read first selects it
    arr = fresh(4, 16)
    random_words(arr, 11)
    read_word(arr, 0)
    calls, entered = [], []

    def counted(name, fn):
        def count(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return count

    monkeypatch.setattr(network, "_balance", counted("_balance", network._balance))
    monkeypatch.setattr(network.ReadBase, "_rows", counted("_rows", network.ReadBase._rows))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    entries = network.ReadBase._entries

    def entering(self, rows):
        entered.append([self.core.rows[r] for r in rows.tolist()])
        return entries(self, rows)

    monkeypatch.setattr(network.ReadBase, "_entries", entering)
    for w in range(arr.m_words):
        read_word(arr, w)
    assert calls == [] and entered == []
    write_word(arr, WriteRequest(9, complement(arr.get_word(9)), WriteMode.PARALLEL))
    for w in (2, 3, 8):  # word 3 shares word 9's reference row
        read_word(arr, w)
    assert entered == []
    for _ in range(2):
        assert read_word(arr, 9).bits == arr.get_word(9)
    assert entered == [["w9"]]


def test_a_read_re_solves_the_words_stored_since_the_last(monkeypatch):
    # the array's one writer marks each word it stores: the next read
    # re-solves exactly that word's row of the cached base, a read after no
    # store re-solves nothing, and states take no write past the writer
    arr, alone = fresh(4, 8), fresh(4, 8)
    random_words(arr, 4)
    read_word(arr, 0)
    solved, solve = [], network.ReadBase.solve

    def recorded(self, resistance, rows=None):
        solved.append(rows.tolist())
        return solve(self, resistance, rows)

    monkeypatch.setattr(network.ReadBase, "solve", recorded)
    read_word(arr, 1)
    assert solved == []
    arr.set_word(5, complement(arr.get_word(5)))
    assert read_word(arr, 2).bits == arr.get_word(2)
    assert read_word(arr, 5).bits == arr.get_word(5)
    assert solved == [[5]]
    monkeypatch.undo()
    for w in range(arr.m_words):
        alone.set_word(w, arr.get_word(w))
    assert [read_word(arr, w) for w in range(8)] == [read_word(alone, w) for w in range(8)]
    with pytest.raises(ValueError):
        arr.states[0] = True


@pytest.mark.parametrize("line_resistance", [0.0, 1.0], ids=["bare", "wired"])
def test_a_read_names_its_rows(monkeypatch, line_resistance):
    # once the base exists, a read passes its two row indices to it: a scan
    # of every word builds no row drivers and parses no selector
    arr = fresh(4, 16, line_resistance=line_resistance)
    random_words(arr, 13)
    read_word(arr, 0)
    calls = []
    monkeypatch.setattr(ops, "select_word", lambda *a: calls.append("select_word"))
    monkeypatch.setattr(network, "_rail_pair", lambda *a: calls.append("_rail_pair"))
    assert [read_word(arr, w).bits for w in range(arr.m_words)] == [arr.get_word(w) for w in range(arr.m_words)]
    assert calls == []


def test_a_wired_scan_solves_in_full_once(monkeypatch):
    # the idle read base is the one full solve of a wired scan, and no idle
    # row saturates: every read is its correction at the two rows it
    # grounds, whose systems are at most 2 x 2
    arr = fresh(4, 16, line_resistance=1.0)
    random_words(arr, 19)
    on = LineBias.voltage(DriveConfig().v_read)
    assert not solve_network(arr.to_network(dict.fromkeys(arr.segments, on), {})).clamped
    ends, systems = [], []
    solve_full, solve = network._solve_full, np.linalg.solve

    def counted(*args):
        x = solve_full(*args)
        ends.append(len(systems))  # the systems solved by the end of this full solve
        return x

    monkeypatch.setattr(network, "_solve_full", counted)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: systems.append(a.shape) or solve(a, b))
    assert [read_word(arr, w).bits for w in range(arr.m_words)] == [arr.get_word(w) for w in range(arr.m_words)]
    (end,) = ends
    assert len(systems) > end and max(systems[end:]) <= (2, 2)


def test_a_wired_read_after_a_write_factors_nothing(monkeypatch):
    # a write changes the stored words: the wired read base corrects its idle
    # drive for the cells the write flipped, whose nodes join its reach
    # through its factor, so the reads after the write solve nothing in full
    # and are the reads of the whole read network within 2e-11
    arr = fresh(4, 16, line_resistance=1.0)
    random_words(arr, 29)
    drive = DriveConfig()
    read_word(arr, 0, drive)
    write_word(arr, WriteRequest(5, complement(arr.get_word(5)), WriteMode.PARALLEL), drive)
    full = counted_full_solves(monkeypatch)
    senses = [read_word(arr, w, drive) for w in (5, 4, 11)]
    assert full == []
    monkeypatch.undo()
    for w, sense in zip((5, 4, 11), senses):
        bits, margins, currents = full_solve_read(arr, w, drive)
        assert sense.bits == bits == arr.get_word(w)
        assert sense.per_bit_margin == pytest.approx(margins, rel=2e-11)
        assert np.allclose(sense.branch_currents, currents, rtol=2e-11, atol=0.0)


def test_a_wired_read_after_a_fallback_reads_as_a_fresh_array():
    # a read corrected from a corrupted base fails the conservation check and
    # is solved again in full, which drops the base: the next read re-solves
    # the idle base first, so it is the read of a fresh array
    arr, alone = fresh(4, 8, line_resistance=1.0), fresh(4, 8, line_resistance=1.0)
    random_words(arr, 23)
    random_words(alone, 23)
    read_word(arr, 0)
    base = arr.read_base[1]
    base.solver.base.cols[1 : base.solver.base.size] *= 1.5
    assert read_word(arr, 1).bits == arr.get_word(1)
    assert base.solver.base is None
    assert read_word(arr, 2) == read_word(alone, 2)
    assert base.solver.base is base.base


@pytest.mark.parametrize("line_resistance", [0.0, 1.0], ids=["bare", "wired"])
def test_a_write_binds_its_drive_once(monkeypatch, line_resistance):
    # a self-enable serial write of a 16-bit word in which every bit differs
    # runs 16 phases; its drive is bound and checked for anchoring once, and
    # its steps solve the array's live conductances: no step derives branch
    # resistances or conductances from scratch, and the one network the
    # write takes is the one it binds
    arr = fresh(16, 16, line_resistance=line_resistance)
    random_words(arr, 17)
    read_word(arr, 5)  # the read base is solved before the write
    calls = []
    for owner, name in ((network, "build_network"), (network, "_check_anchored"),
                        (network, "_conductances"), (CrossbarArray, "to_network")):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, m=method, n=name: calls.append(n) or m(*a))
    data = complement(arr.get_word(5))
    trace = write_word(arr, WriteRequest(5, data, WriteMode.SELF_ENABLE_SERIAL))
    assert [ph.label for ph in trace.phases[1:]] == [f"bit{j}-phase-{data[j]}" for j in range(16)]
    assert sorted(calls) == ["_check_anchored", "build_network", "to_network"]


def test_a_misread_is_an_error():
    # the reference cells sit at the far end of their segments, so 20 ohm
    # per segment leaves word 62's data cells a different wire than their
    # references: the read senses '0000', which is not what the word
    # stores, and raises naming the first wrong cell instead of returning it
    def word_62(line_resistance):
        arr = fresh(4, 64, line_resistance=line_resistance)
        for w in (0, 62):
            arr.set_word(w, "0101")
        return read_word(arr, 62)

    assert word_62(0.0).bits == "0101"
    with pytest.raises(MisreadError, match=r"^word 62 reads '0000', stored '0101' \(w62:b1e\)$"):
        word_62(20.0)


def test_a_sense_tie_names_the_word_and_bit():
    # without tunnel magnetoresistance a data cell and its reference have
    # one resistance, and the race between their branches cannot be called
    arr = fresh(params=MtjParams(tmr=0.0))
    with pytest.raises(IndeterminateReadError, match=r"^word 1 bit 0: sense race too close to call: \S+ vs \S+ Ohm$"):
        read_word(arr, 1)


def test_sense_load_must_be_positive():
    # the race's halving times need a positive load; a branch that carries
    # no positive current is refused by read_word, by segment
    for c_load in (0.0, -1e-15):
        with pytest.raises(ParameterError, match="^c_load_f: must be positive$"):
            DriveConfig(c_load_f=c_load)


def test_overdriven_read_raises_disturb():
    arr = fresh()
    hot = DriveConfig(v_read=1.2)
    with pytest.raises(ReadDisturbError):
        read_word(arr, 0, hot)


@pytest.mark.filterwarnings("error")
def test_overflowing_read_is_a_simulation_error():
    # 1e300 V across junctions of about 1e-299 ohm: the drive is finite but
    # the potentials overflow float range, which no conservation check can
    # judge, so the solve names the lines instead of violating an invariant,
    # and numpy warns of nothing on the way
    arr = fresh(params=MtjParams(surface_nm2=1e300))
    with pytest.raises(SimulationError, match="beyond float range on: "):
        read_word(arr, 0, DriveConfig(v_read=1e300))


@pytest.mark.filterwarnings("error")
def test_overflow_inside_the_solve_is_a_simulation_error():
    # 1 ohm wire segments under 1e308 V: the drive is finite, but the
    # solve overflows and inf - inf leaves NaN potentials, which must be
    # named like an overflow and not fail the conservation check
    arr = fresh(line_resistance=1.0)
    with pytest.raises(SimulationError, match="beyond float range on: "):
        read_word(arr, 0, DriveConfig(v_read=1e308))


def test_segment_returning_current_is_an_indeterminate_read():
    # at 1e6 ohm/segment the far segment of word 0 is fed by its neighbours
    # through the mesh and returns current to its source
    arr = fresh(line_resistance=1e6)
    with pytest.raises(IndeterminateReadError, match=r"word 0 bit 3: segment b3e carries -1\.28e-10 A"):
        read_word(arr, 0)


def test_plain_layout_read_costs_two_cycles():
    arr = fresh(4, 4, balanced=False)
    arr.set_word(0, "1010")
    drive = DriveConfig()
    sense = read_word(arr, 0, drive)
    assert sense.bits == "1010"
    half = halving_time(arr.ideal_reference_resistance(), drive.c_load_f)
    assert sense.sense_delay == pytest.approx(2 * half, rel=1e-12)


def test_four_word_readout_fits_the_nominal_cycle_budget():
    arr = fresh()
    drive = DriveConfig()
    write_word(arr, WriteRequest(3, "1111", WriteMode.PARALLEL), drive)
    total = 0.0
    for w in range(4):
        sense = read_word(arr, w, drive)
        total += drive.setup_time_s + sense.sense_delay
    assert 4e-9 <= total <= 6e-9
    assert read_word(arr, 3).bits == "1111"


# -- energy accounting -------------------------------------------------------


@pytest.mark.parametrize("mode", list(WriteMode), ids=str)
def test_trace_energy_is_sum_of_phase_energies(mode):
    arr = fresh()
    arr.set_word(0, "0101")
    trace = write_word(arr, WriteRequest(0, "1010", mode))
    assert trace.total_energy == pytest.approx(
        sum(p.energy_j for p in trace.phases), rel=1e-12
    )
    assert trace.total_energy > 0.0


def test_full_word_write_energy_is_about_three_picojoule_per_cell():
    arr = fresh()
    trace = write_word(arr, WriteRequest(0, "1111", WriteMode.PARALLEL))
    per_cell = trace.total_energy / 4
    assert per_cell == pytest.approx(1.2 * arr.write_current * TAU, rel=0.05)


def test_parallel_write_energy_beats_serial():
    drive = DriveConfig()
    a1 = fresh()
    a2 = fresh()
    ep = write_word(a1, WriteRequest(0, "1111", WriteMode.PARALLEL), drive).total_energy
    es = write_word(a2, WriteRequest(0, "1111", WriteMode.SERIAL), drive).total_energy
    assert ep < es


def test_parallel_phase_sneak_overhead_is_small_for_full_words():
    arr = fresh()
    trace = write_word(arr, WriteRequest(0, "1111", WriteMode.PARALLEL))
    (phase,) = trace.phases
    assert phase.supply_a == pytest.approx(4 * arr.write_current, rel=0.01)
    assert abs(phase.sneak_overhead) < 0.01


# -- trace serialization -----------------------------------------------------


def test_trace_csv_shape():
    arr = fresh()
    trace = write_word(arr, WriteRequest(0, "1100", WriteMode.PARALLEL))
    csv = trace_to_csv(trace)
    lines = csv.split("\n")
    assert csv.endswith("\n")
    header = lines[0].split(",")
    assert header[0] == "time_ns"
    assert header[1] == "source_current_uA"
    assert all(h.startswith("i_") and h.endswith("_uA") for h in header[2:])
    assert len(lines) == len(trace.samples) + 2  # header + rows + trailing ""
    for row in lines[1:-1]:
        assert len(row.split(",")) == len(header)
        float(row.split(",")[0])  # parses


@pytest.mark.parametrize("mode, line_resistance", MODES_AND_WIRES)
def test_waveform_repeats_no_row(mode, line_resistance):
    # a phase end, the next phase start and the end of the trace each take
    # a zero sample at one time; the waveform keeps only the first of them
    drive = DriveConfig()
    for vector in ALL_VECTORS:
        arr = fresh(line_resistance=line_resistance)
        arr.set_word(1, "0110")
        trace = write_word(arr, WriteRequest(1, vector, mode), drive)
        rows = trace_to_csv(trace).split("\n")
        assert all(here != there for here, there in zip(rows, rows[1:])), vector


@pytest.mark.parametrize("mode, line_resistance", MODES_AND_WIRES)
def test_waveform_has_no_sample_between_step_edges(mode, line_resistance):
    # currents are constant between two solves, so a sample that repeats
    # the one before it at a later time, and is repeated again after, adds
    # nothing to the staircase; only a phase boundary keeps its row, as in
    # a serial write's setup-only phase of a bit that already holds its data
    drive = DriveConfig()
    for vector in ALL_VECTORS:
        arr = fresh(line_resistance=line_resistance)
        arr.set_word(1, "0110")
        trace = write_word(arr, WriteRequest(1, vector, mode), drive)
        bounds = {t for p in trace.phases for t in (p.t_start, p.t_end)}
        for a, b, c in zip(trace.samples, trace.samples[1:], trace.samples[2:]):
            padding = a.t < b.t < c.t and b.t not in bounds and (
                a.source_currents == b.source_currents == c.source_currents
                and a.supply_a == b.supply_a == c.supply_a
            )
            assert not padding, (vector, b.t)


def test_trace_csv_is_deterministic():
    def run():
        arr = fresh()
        arr.set_word(2, "0101")
        trace = write_word(arr, WriteRequest(2, "1010", WriteMode.PARALLEL))
        return trace_to_csv(trace)

    assert run() == run()


# -- sensing power comparison ------------------------------------------------


def test_parallel_read_energy_beats_serial_for_every_vector():
    drive = DriveConfig()
    for vector in ALL_VECTORS:
        arr = fresh()
        arr.set_word(0, vector)
        report = compare_sensing_power(arr, 0, drive)
        assert report.parallel_j < report.serial_j
        assert all(0.0 < s < 1.0 for s in report.per_bit_saving)


def test_antiparallel_bits_save_more_than_parallel_bits():
    drive = DriveConfig()
    for vector in ALL_VECTORS:
        if vector in ("0000", "1111"):
            continue
        arr = fresh()
        arr.set_word(0, vector)
        report = compare_sensing_power(arr, 0, drive)
        ap = [s for s, b in zip(report.per_bit_saving, vector) if b == "1"]
        p = [s for s, b in zip(report.per_bit_saving, vector) if b == "0"]
        assert min(ap) > max(p)


def test_sensing_power_solves_the_full_read_once(monkeypatch):
    solves = []

    def counting(net):
        solves.append(net)
        return solve_network(net)

    arr = fresh()
    arr.set_word(0, "0110")
    # the read base solves its idle drive in the network module, the serial
    # sub-cycles in ops
    monkeypatch.setattr(network, "solve_network", counting)
    monkeypatch.setattr(ops, "solve_network", counting)
    compare_sensing_power(arr, 0)
    # one whole-word read plus one serial sub-cycle per bit
    assert len(solves) == arr.n_bits + 1


def test_single_bit_word_has_no_serial_saving():
    arr = fresh(1, 2)
    report = compare_sensing_power(arr, 0)
    assert report.parallel_j == pytest.approx(report.serial_j, rel=1e-9)
    assert report.per_bit_saving == (0.0,)


# -- sneak profile -----------------------------------------------------------


def test_sneak_profile_grows_with_floating_lines():
    arr = fresh()
    profile = serial_sneak_profile(arr, 0, 0, "1")
    counts = [n for n, _ in profile]
    currents = [i for _, i in profile]
    assert counts == [0, 1, 2, 3]
    assert all(a < b for a, b in zip(currents, currents[1:]))
    # fully parallel companion drive leaves only the bare write current
    assert currents[0] == pytest.approx(arr.write_current, rel=1e-2)
    # fully serial pays a strict sneak penalty
    assert currents[-1] > 1.5 * arr.write_current


def test_sneak_profile_does_not_touch_state():
    arr = fresh()
    arr.set_word(0, "0101")
    before = arr.resistances.copy()  # the live resistances, as they are now
    serial_sneak_profile(arr, 0, 2, "1")
    serial_sneak_profile(arr, 0, 1, "0")
    assert np.array_equal(arr.resistances, before)


def test_sneak_profile_validates_bit_value():
    with pytest.raises(ParameterError, match="bit_value"):
        serial_sneak_profile(fresh(), 0, 0, "x")


def test_sneak_penalty_grows_with_array_size():
    small = serial_sneak_profile(fresh(4, 4), 0, 0, "1")[-1][1]
    large = serial_sneak_profile(fresh(8, 8), 0, 0, "1")[-1][1]
    assert large > small
