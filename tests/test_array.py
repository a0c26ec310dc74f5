"""Array construction: layout structure, addressing, state bookkeeping."""

import math

import numpy as np
import pytest

from xpointsim.array import CrossbarArray, REF_ROWS
from xpointsim.device import MtjState, TransistorModel, critical_current
from xpointsim.errors import ParameterError
from xpointsim.network import CrossbarNetwork, LineBias, RowDriver, build_network, solve_network
from xpointsim.ops import select_word


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
    assert sum(1 for _ in arr.cells()) == 6 * 4 + 2 * 4

    for w in range(6):
        for j in range(4):
            host = arr.host_segment(w, j)
            assert host.endswith("e" if w % 2 == 0 else "o")
            assert arr.device_at(arr.word_row(w), host) is not None
            # no cell on the sibling segment for this word
            sib = arr.sibling_segment(w, j)
            with pytest.raises(KeyError):
                arr.device_at(arr.word_row(w), sib)


def test_reference_rows_cover_opposite_parity_segments():
    arr = CrossbarArray(3, 4)
    for j in range(3):
        assert arr.device_at("ref_e", f"b{j}o") is not None
        assert arr.device_at("ref_o", f"b{j}e") is not None
        with pytest.raises(KeyError):
            arr.device_at("ref_e", f"b{j}e")
        with pytest.raises(KeyError):
            arr.device_at("ref_o", f"b{j}o")


def test_every_segment_carries_same_device_count():
    """Both halves of a bit column load the sense amplifier identically."""
    arr = CrossbarArray(4, 8)
    per_segment = {seg: 0 for seg in arr.segments}
    for _row, seg, _dev in arr.cells():
        per_segment[seg] += 1
    counts = set(per_segment.values())
    assert counts == {8 // 2 + 1}  # half the words plus one reference cell


def test_serving_reference_row_matches_parity():
    arr = CrossbarArray(2, 4)
    assert arr.serving_ref_row(0) == "ref_e"
    assert arr.serving_ref_row(1) == "ref_o"
    assert arr.serving_ref_row(2) == "ref_e"
    assert arr.is_reference_row("ref_e")
    assert not arr.is_reference_row("w0")


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
    assert sum(1 for _ in arr.cells()) == 16
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
    with pytest.raises(ParameterError, match="no cell"):
        arr.set_device("w0", "b0o", arr.device_at("w0", "b0e"))


def test_word_state_round_trip():
    arr = CrossbarArray(4, 4)
    assert arr.get_word(0) == "0000"  # everything starts parallel
    arr.set_word(0, "1011")
    assert arr.get_word(0) == "1011"
    assert arr.state(0, 0) is MtjState.AP
    assert arr.state(0, 1) is MtjState.P
    # '1' cells sit at the high-resistance state
    r_ap = arr.device_at("w0", "b0e").resistance
    r_p = arr.device_at("w0", "b1e").resistance
    assert r_ap > r_p
    assert r_ap / r_p == pytest.approx(1.0 + arr.params.tmr, rel=1e-12)


def test_set_word_validation():
    arr = CrossbarArray(4, 4)
    with pytest.raises(ParameterError, match="data"):
        arr.set_word(0, "101")
    with pytest.raises(ParameterError, match="data"):
        arr.set_word(0, "10x1")


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
    r_p = arr.device_at("w0", "b0e").resistance
    r_ref = arr.device_at("ref_e", "b0o").resistance
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
