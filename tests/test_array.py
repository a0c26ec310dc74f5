"""Array construction: layout structure, addressing, state bookkeeping."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpointsim.array import CrossbarArray, REF_ROWS
from xpointsim.device import MtjState, TransistorModel, critical_current, mtj_resistance
from xpointsim.errors import ParameterError
from xpointsim.network import CrossbarNetwork, LineBias, RowDriver, build_network, solve_network
from xpointsim.ops import WriteMode, WriteRequest, select_word, write_word


def test_balanced_layout_lines():
    arr = CrossbarArray(4, 4)
    assert arr.word_rows == ["w0", "w1", "w2", "w3"]
    assert arr.ref_rows == list(REF_ROWS)
    assert arr.segments == [
        "b0e", "b0o", "b1e", "b1o", "b2e", "b2o", "b3e", "b3o",
    ]


def test_balanced_cell_count_and_placement():
    arr = CrossbarArray(4, 6)
    # one data cell per (word, bit) plus one reference cell per segment
    assert len(arr.cell_keys) == len(arr.resistances) == 6 * 4 + 2 * 4
    assert arr.states.size == 6 * 4
    cells = set(arr.cell_keys)
    assert len(cells) == len(arr.cell_keys)

    for w in range(6):
        for j in range(4):
            host = arr.host_segment(w, j)
            assert host.endswith("e" if w % 2 == 0 else "o")
            # cell k = word * n_bits + bit
            assert arr.cell_keys[w * 4 + j] == (arr.word_row(w), host)
            # no cell on the sibling segment for this word
            sib = arr.sibling_segment(w, j)
            assert (arr.word_row(w), sib) not in cells


def test_reference_rows_cover_opposite_parity_segments():
    arr = CrossbarArray(3, 4)
    cells = set(arr.cell_keys)
    # the reference cells follow the data cells
    assert all(row in REF_ROWS for row, _seg in arr.cell_keys[arr.states.size:])
    for j in range(3):
        assert ("ref_e", f"b{j}o") in cells
        assert ("ref_o", f"b{j}e") in cells
        assert ("ref_e", f"b{j}e") not in cells
        assert ("ref_o", f"b{j}o") not in cells


def test_every_segment_carries_same_device_count():
    """Both halves of a bit column load the sense amplifier identically."""
    arr = CrossbarArray(4, 8)
    per_segment = {seg: 0 for seg in arr.segments}
    for _row, seg in arr.cell_keys:
        per_segment[seg] += 1
    counts = set(per_segment.values())
    assert counts == {8 // 2 + 1}  # half the words plus one reference cell


def test_serving_reference_row_matches_parity():
    arr = CrossbarArray(2, 4)
    assert arr.serving_ref_row(0) == "ref_e"
    assert arr.serving_ref_row(1) == "ref_o"
    assert arr.serving_ref_row(2) == "ref_e"
    refs = {row for row, _seg in arr.cell_keys[arr.states.size:]}
    assert refs == {"ref_e", "ref_o"}
    assert all(row.startswith("w") for row, _seg in arr.cell_keys[:arr.states.size])


def test_host_and_sibling_segments():
    arr = CrossbarArray(4, 4)
    assert arr.host_segment(0, 2) == "b2e"
    assert arr.sibling_segment(0, 2) == "b2o"
    assert arr.host_segment(1, 2) == "b2o"
    assert arr.sibling_segment(1, 2) == "b2e"
    assert arr.segments_for_bit(2) == ("b2e", "b2o")


def test_plain_layout_structure():
    arr = CrossbarArray(4, 4, balanced=False)
    assert arr.ref_rows == []
    assert arr.segments == ["b0", "b1", "b2", "b3"]
    assert len(arr.cell_keys) == arr.states.size == 16
    assert arr.host_segment(1, 2) == "b2"
    with pytest.raises(ParameterError):
        arr.sibling_segment(0, 0)
    with pytest.raises(ParameterError):
        arr.serving_ref_row(0)


def test_construction_validation():
    with pytest.raises(ParameterError, match="m_words"):
        CrossbarArray(4, 5)  # balanced layout needs parity pairs
    CrossbarArray(4, 5, balanced=False)  # fine without references
    with pytest.raises(ParameterError, match="n_bits"):
        CrossbarArray(0, 4)
    with pytest.raises(ParameterError, match="m_words"):
        CrossbarArray(4, 0)


@pytest.mark.parametrize("line_resistance", [-1.0, math.nan, math.inf])
def test_line_resistance_must_be_finite_and_non_negative(line_resistance):
    with pytest.raises(ParameterError, match="line_resistance"):
        CrossbarArray(4, 4, line_resistance=line_resistance)


def test_address_validation():
    arr = CrossbarArray(4, 4)
    with pytest.raises(ParameterError, match="word_addr"):
        arr.word_row(4)
    with pytest.raises(ParameterError, match="word_addr"):
        arr.word_row(-1)
    with pytest.raises(ParameterError, match="bit"):
        arr.host_segment(0, 4)
    with pytest.raises(ParameterError, match="word_addr"):
        arr.state(4, 0)
    with pytest.raises(ParameterError, match="bit"):
        arr.state(0, 4)


def test_word_state_round_trip():
    arr = CrossbarArray(4, 4)
    assert arr.get_word(0) == "0000"  # everything starts parallel
    arr.set_word(0, "1011")
    assert arr.get_word(0) == "1011"
    assert arr.state(0, 0) is MtjState.AP
    assert arr.state(0, 1) is MtjState.P
    # '1' cells sit at the high-resistance state
    resistance = dict(zip(arr.cell_keys, arr.resistances))
    r_ap = resistance[("w0", "b0e")]
    r_p = resistance[("w0", "b1e")]
    assert r_ap > r_p
    assert r_ap / r_p == pytest.approx(1.0 + arr.params.tmr, rel=1e-12)


def test_set_word_validation():
    arr = CrossbarArray(4, 4)
    with pytest.raises(ParameterError, match="data"):
        arr.set_word(0, "101")
    with pytest.raises(ParameterError, match="data"):
        arr.set_word(0, "10x1")


def test_set_word_checks_the_whole_string_before_storing():
    arr = CrossbarArray(4, 4)
    arr.set_word(0, "0110")
    with pytest.raises(ParameterError, match="'2'"):
        arr.set_word(0, "1121")
    assert arr.get_word(0) == "0110"


def test_write_current_is_overdriven_critical_current():
    arr = CrossbarArray(4, 4)
    assert arr.write_current == pytest.approx(
        1.3 * critical_current(arr.params), rel=1e-12
    )
    assert arr.write_current == pytest.approx(2.458865665102477e-4, rel=1e-12)
    hard = CrossbarArray(4, 4, write_overdrive=1.5)
    assert hard.write_current == pytest.approx(
        1.5 * critical_current(arr.params), rel=1e-12
    )
    # past the supply headroom the default selector cannot be sized
    with pytest.raises(ParameterError, match="r_on"):
        CrossbarArray(4, 4, write_overdrive=3.0)


def test_word_selector_is_bitwidth_scaled():
    """The word selector carries every cell current at once, so it is laid
    out n_bits times wider than a cell selector: 1/n the resistance, n
    times the saturation current."""
    arr = CrossbarArray(4, 4)
    cell = arr.cell_transistor
    row = arr.row_driver_model
    assert row.r_on == pytest.approx(cell.r_on / 4, rel=1e-12)
    assert row.i_sat == pytest.approx(4 * cell.i_sat, rel=1e-12)
    assert row.r_off == cell.r_off

    wide = CrossbarArray(8, 4)
    assert wide.row_driver_model.r_on == pytest.approx(cell.r_on / 8, rel=1e-12)


def test_rows_left_unselected_carry_the_idle_selector():
    arr = CrossbarArray(4, 4)
    arr.set_word(1, "0110")
    drivers = select_word(arr, 1, "read")
    assert list(drivers) == ["w1", "ref_o"]
    bias = {seg: LineBias.voltage(0.3) for seg in arr.segments}
    net = arr.to_network(bias, drivers)
    # the same read with every row's driver spelled out and no idle driver
    every_row = {row: drivers.get(row, RowDriver(arr.row_driver_model)) for row in net.rows}
    spelled = CrossbarNetwork.on_core(net.core, net.resistance, every_row, bias, net.v_dd)
    assert spelled.idle is None
    assert np.array_equal(solve_network(net).volts, solve_network(spelled).volts)
    # the idle selector follows a replaced word-selector model
    arr.row_driver_model = TransistorModel(r_on=500.0, r_off=1e8, i_sat=1e-3)
    asm = build_network(arr.to_network(bias, select_word(arr, 1, "read")))
    rail_r = dict(zip(net.rows, asm.rail_r.reshape(-1, 2).tolist()))
    assert rail_r["w0"] == rail_r["ref_e"] == [1e8, 1e8]
    assert rail_r["w1"] == [1e8, 500.0]


def test_reference_cells_sit_at_the_midpoint():
    arr = CrossbarArray(4, 4)
    resistance = dict(zip(arr.cell_keys, arr.resistances))
    r_p = resistance[("w0", "b0e")]
    r_ref = resistance[("ref_e", "b0o")]
    assert r_ref == pytest.approx(1.75 * r_p, rel=1e-12)
    # and through the selector the ideal branches keep the ordering
    r_lo = arr.ideal_branch_resistance(MtjState.P)
    r_mid = arr.ideal_reference_resistance()
    r_hi = arr.ideal_branch_resistance(MtjState.AP)
    assert r_lo < r_mid < r_hi


def test_to_network_is_solvable():
    arr = CrossbarArray(4, 4)
    arr.set_word(2, "0110")
    drivers = {
        r: RowDriver(arr.row_driver_model, nmos_on=(r == "w2"))
        for r in arr.word_rows + arr.ref_rows
    }
    bias = {seg: LineBias.voltage(0.3) for seg in arr.segments}
    sol = solve_network(arr.to_network(bias, drivers))
    assert sol.kcl_residual < 1e-12
    # the grounded word's cells carry visibly more than leakage
    for j in range(4):
        tag = arr.tag("w2", arr.host_segment(2, j))
        assert abs(sol.device_currents[tag]) > 1e-5


def test_network_tags_are_row_colon_segment():
    arr = CrossbarArray(2, 2)
    assert arr.tag("w0", "b1e") == "w0:b1e"
    net = arr.to_network({}, {})
    tags = {b.tag for b in net.branches}
    assert "w0:b0e" in tags and "ref_o:b0e" in tags
    assert len(tags) == len(net.branches)


def test_single_bit_array_works():
    arr = CrossbarArray(1, 2)
    assert arr.segments == ["b0e", "b0o"]
    arr.set_word(1, "1")
    assert arr.get_word(1) == "1"


def test_line_resistance_flows_into_network():
    arr = CrossbarArray(2, 2, line_resistance=5.0)
    assert arr.to_network({}, {}).line_resistance == 5.0
    assert math.isfinite(arr.row_driver_model.r_off)


def assert_network_follows_the_states(arr):
    """Each data cell's branch sits at the resistance of the state the
    array reports for it; each reference cell at the reference resistance."""
    resistance = dict(zip(arr.cell_keys, arr.to_network({}, {}).resistance))
    for w in range(arr.m_words):
        word = arr.get_word(w)
        for j in range(arr.n_bits):
            state = arr.state(w, j)
            assert word[j] == ("1" if state is MtjState.AP else "0")
            cell = (arr.word_row(w), arr.host_segment(w, j))
            assert resistance.pop(cell) == mtj_resistance(state, arr.params)
    r_ref = mtj_resistance(MtjState.P, arr.ref_params)
    assert set(resistance) == {
        (row, seg) for row in arr.ref_rows for seg in arr.segments
        if seg.endswith("o" if row == "ref_e" else "e")
    }
    assert all(r == r_ref for r in resistance.values())


@settings(max_examples=12, deadline=None)
@given(
    line_resistance=st.sampled_from([0.0, 1.0]),
    stores=st.lists(st.tuples(st.integers(0, 3), st.text("01", min_size=4, max_size=4))),
    seed=st.integers(0, 2**32 - 1),
)
def test_network_resistances_follow_the_stored_states(line_resistance, stores, seed):
    arr = CrossbarArray(4, 4, line_resistance=line_resistance)
    for w, data in stores:
        arr.set_word(w, data)
        assert_network_follows_the_states(arr)
    rng = random.Random(seed)
    for mode in WriteMode:
        w = rng.randrange(arr.m_words)
        data = "".join(rng.choice("01") for _ in range(arr.n_bits))
        write_word(arr, WriteRequest(w, data, mode))
        assert arr.get_word(w) == data
        assert_network_follows_the_states(arr)
