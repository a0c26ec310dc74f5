"""Write and read protocols simulated against the nodal solver.

The timing anchor used throughout: at the default 1.3x overdrive the
switching time is exactly 10 ns, so a single forced phase lasts one
setup time plus 10 ns (give or take the femtosecond slop the event loop
adds to push accumulated progress over 1.0).
"""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpointsim import network, ops
from xpointsim.array import CrossbarArray
from xpointsim.device import MtjParams, MtjState, critical_current
from xpointsim.errors import (
    IndeterminateReadError,
    ParameterError,
    ReadDisturbError,
    SimulationError,
    WriteFailureError,
)
from xpointsim.network import solve_network
from xpointsim.ops import (
    DriveConfig,
    WriteMode,
    WriteRequest,
    compare_sensing_power,
    read_cycle_time,
    read_word,
    sense_bit,
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


# -- sensing primitive -------------------------------------------------------


def test_sense_bit_frozen_values():
    decision = sense_bit(5e3, 3e3, 1e-15, 1.2)
    assert decision.bit == "1"
    assert decision.delay == pytest.approx(3e3 * 1e-15 * math.log(2), rel=1e-12)
    other = sense_bit(2e3, 3e3, 1e-15, 1.2)
    assert other.bit == "0"
    assert other.delay == pytest.approx(2e3 * 1e-15 * math.log(2), rel=1e-12)


def test_sense_bit_tie_is_indeterminate():
    with pytest.raises(IndeterminateReadError):
        sense_bit(5e3, 5e3, 1e-15, 1.2)
    with pytest.raises(IndeterminateReadError):
        sense_bit(5e3, 5e3 * (1 + 1e-9), 1e-15, 1.2)


def test_sense_bit_validation():
    with pytest.raises(ParameterError):
        sense_bit(-1.0, 5e3, 1e-15, 1.2)
    with pytest.raises(ParameterError):
        sense_bit(5e3, 5e3, 0.0, 1.2)


# -- reading -----------------------------------------------------------------


def test_read_cycle_time_is_the_reference_halving_time():
    arr = fresh()
    drive = DriveConfig()
    expected = arr.ideal_reference_resistance() * drive.c_load_f * math.log(2)
    assert read_cycle_time(arr, drive) == pytest.approx(expected, rel=1e-12)
    assert read_cycle_time(arr, drive) == pytest.approx(1.1937e-9, rel=1e-3)


def test_read_is_non_destructive():
    arr = fresh()
    arr.set_word(0, "1010")
    arr.set_word(1, "0110")
    before = arr.resistances
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
    assert sense.sense_delay == pytest.approx(read_cycle_time(arr, drive), rel=1e-12)
    # a '0' race is won by the low-resistance data branch, a '1' race by
    # the reference branch, so '0' decisions land first
    for j, bit in enumerate("1100"):
        for k, other in enumerate("1100"):
            if bit == "0" and other == "1":
                assert sense.per_bit_delay[j] < sense.per_bit_delay[k]


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


def test_wide_word_write_forms_its_fill_in_bounded_blocks(monkeypatch):
    # a write pins no kept node, so each of the 258 eliminated rows of a
    # 64-bit word adds 64 x 64 fill products; formed all at once they would
    # take 8.5 MB per array, so they go in blocks of at most _FILL_BLOCK
    calls = []
    pair_index, block_solve = network._pair_index, network._FreeBlock.solve

    def recording(lane_k, nk):
        calls.append(lane_k.shape)
        return pair_index(lane_k, nk)

    def marking(block, *args):
        calls.append("solve")
        return block_solve(block, *args)

    monkeypatch.setattr(network, "_pair_index", recording)
    monkeypatch.setattr(network._FreeBlock, "solve", marking)
    arr = fresh(64, 256)
    write_word(arr, WriteRequest(0, "1" * 64, WriteMode.PARALLEL))
    # the free block compiles the targets of its first block of rows once;
    # each solve forms the rest
    first, solves = calls[0], []
    for call in calls[1:]:
        if call == "solve":
            solves.append([first])
        else:
            solves[-1].append(call)
    assert solves
    for shapes in solves:
        assert all(rows * width**2 <= network._FILL_BLOCK for rows, width in shapes)
        assert {width for _rows, width in shapes} == {64}
        assert sum(rows for rows, _width in shapes) == 258
        assert len(shapes) == 17


@pytest.mark.parametrize("line_resistance", [0.0, 1.0], ids=["bare", "wired"])
def test_interleaved_operations_match_a_fresh_array_each(line_resistance):
    # reads and writes on one array share its compiled core and the tables
    # the core keeps per pin pattern and per driver rows; none of them may
    # carry anything from one operation into the next, so the stored words
    # are the array's whole state
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
            assert read_word(arr, arg, drive) == read_word(alone, arg, drive)
        else:
            req = WriteRequest(*arg)
            assert write_word(arr, req, drive) == write_word(alone, req, drive)
            assert [arr.get_word(w) for w in range(8)] == [alone.get_word(w) for w in range(8)]


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
    # 1e300 S wire segments under 1.8e8 V: the drive is finite, but the
    # solve overflows and inf - inf leaves NaN potentials, which must be
    # named like an overflow and not fail the conservation check
    arr = fresh(line_resistance=1e-300)
    with pytest.raises(SimulationError, match="beyond float range on: "):
        read_word(arr, 0, DriveConfig(v_read=1.8e8))


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
    assert sense.sense_delay == pytest.approx(2 * read_cycle_time(arr, drive), rel=1e-12)


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
    before = arr.resistances
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
