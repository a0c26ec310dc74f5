"""Closed-form area/speed/power models and the sweep driver.

Frozen expectations below are hand-evaluated from the model definitions:

* default periphery at N=4, M=1024:
  (4*40 + 4*112 + 1026*112) / 4096 = 115520/4096 = 28.203125 F²
  on the plain layout, which has no reference words:
  115296/4096 = 28.1484375 F²
* N=1, M=1: (40 + 112 + 3*112) / 1 = 488 F²
* asymptote: 112/4 = 28, 112/32 = 3.5, 112/64 = 1.75, 405/32 = 12.65625
* junction-pitch floor at 65/40 nm: 4*(40/65)^2 = 6400/4225 = 1.51479...
"""

import csv
import math

import pytest

from xpointsim.array import CrossbarArray
from xpointsim.errors import ParameterError
from xpointsim.ops import (
    DriveConfig,
    TraceSample,
    WriteMode,
    WriteRequest,
    halving_time,
    read_word,
    write_word,
)
from xpointsim.perf import (
    ArchitectureConfig,
    SWEEP_CSV_HEADER,
    cell_area,
    cell_area_asymptotic,
    cell_area_physical_floor,
    dynamic_energy,
    dynamic_power,
    sweep_area,
    sweep_to_csv,
)


class _Waveform:
    def __init__(self, samples):
        self.samples = samples


def staircase(points):
    """Build an explicit staircase waveform from (t, supply) corners."""
    samples = []
    prev = None
    for t, supply in points:
        if prev is not None and t > prev[0] and supply != prev[1]:
            samples.append(TraceSample(t, {}, prev[1]))
        samples.append(TraceSample(t, {}, supply))
        prev = (t, supply)
    return _Waveform(samples)


# -- area model --------------------------------------------------------------


def test_cell_area_default_point():
    cfg = ArchitectureConfig(n_bits=4, m_words=1024)
    assert cell_area(cfg) == pytest.approx(28.203125, abs=1e-9)
    assert cell_area(ArchitectureConfig(4, 1024, balanced=False)) == pytest.approx(
        28.1484375, abs=1e-9
    )


def test_cell_area_single_word_single_bit():
    cfg = ArchitectureConfig(n_bits=1, m_words=1)
    assert cell_area(cfg) == pytest.approx(488.0, abs=1e-9)


def test_cell_area_converges_to_asymptote():
    asym = cell_area_asymptotic(4)
    area = cell_area(ArchitectureConfig(n_bits=4, m_words=1 << 20))
    assert area == pytest.approx(asym, rel=1e-4)
    assert abs(cell_area(ArchitectureConfig(4, 1024)) - asym) < 0.01 * asym


def test_cell_area_strictly_decreasing_in_both_dimensions():
    for n in (1, 2, 4, 8, 16, 32):
        assert cell_area(ArchitectureConfig(2 * n, 256)) < cell_area(
            ArchitectureConfig(n, 256)
        )
    for m in (4, 16, 64, 256, 1024):
        assert cell_area(ArchitectureConfig(4, 2 * m)) < cell_area(
            ArchitectureConfig(4, m)
        )


def test_asymptotic_area_anchor_points():
    assert cell_area_asymptotic(4) == pytest.approx(28.0, abs=1e-9)
    assert cell_area_asymptotic(32) == pytest.approx(3.5, abs=1e-9)
    assert cell_area_asymptotic(64) == pytest.approx(1.75, abs=1e-9)
    assert cell_area_asymptotic(32, a_select_f2=405.0) == pytest.approx(
        12.65625, abs=1e-9
    )


def test_physical_floor():
    assert cell_area_physical_floor(65.0, 40.0) == pytest.approx(
        6400.0 / 4225.0, abs=1e-12
    )
    assert cell_area_physical_floor(65.0, 40.0) == pytest.approx(1.515, abs=0.01)
    assert cell_area_physical_floor(65.0, 65.0) == pytest.approx(4.0, abs=1e-12)
    assert cell_area_physical_floor(64.0, 32.0) == pytest.approx(1.0, abs=1e-12)


def test_config_validation_names_the_field():
    with pytest.raises(ParameterError, match="n_bits"):
        ArchitectureConfig(n_bits=0)
    with pytest.raises(ParameterError, match="a_select_f2"):
        ArchitectureConfig(a_select_f2=-1.0)
    with pytest.raises(ParameterError, match="f_data_hz"):
        ArchitectureConfig(f_data_hz=0.0)
    with pytest.raises(ParameterError, match="n_bits"):
        cell_area_asymptotic(0)
    with pytest.raises(ParameterError, match="f_feature_nm"):
        cell_area_physical_floor(0.0, 40.0)


@pytest.mark.parametrize("f_feature_nm, f_memory_nm", [(1e-300, 40.0), (1e-10, 1e308)])
def test_physical_floor_beyond_float_range_names_the_keys(f_feature_nm, f_memory_nm):
    # the square of the ratio overflows in the first case, the ratio itself
    # in the second
    with pytest.raises(ParameterError, match="f_feature_nm and f_memory_nm:"):
        cell_area_physical_floor(f_feature_nm, f_memory_nm)


# -- energy integration ------------------------------------------------------


def test_dynamic_energy_of_rectangular_pulse():
    pulse = staircase([(0.0, 0.0), (1e-9, 1e-4), (2e-9, 0.0)])
    # 100 uA for 1 ns at 1.2 V
    assert dynamic_energy(pulse, 1.2) == pytest.approx(0.12e-12, rel=1e-12)


def test_dynamic_energy_empty_and_zero_waveforms():
    assert dynamic_energy(_Waveform([]), 1.2) == 0.0
    flat = staircase([(0.0, 0.0), (5e-9, 0.0)])
    assert dynamic_energy(flat, 1.2) == 0.0


def test_dynamic_energy_linear_in_supply_and_additive():
    first = staircase([(0.0, 0.0), (1e-9, 2e-4), (3e-9, 0.0)])
    second = staircase([(3e-9, 0.0), (4e-9, 1e-4), (6e-9, 0.0)])
    e1 = dynamic_energy(first, 1.2)
    assert dynamic_energy(first, 2.4) == pytest.approx(2 * e1, rel=1e-12)
    combined = _Waveform(first.samples + second.samples)
    assert dynamic_energy(combined, 1.2) == pytest.approx(
        e1 + dynamic_energy(second, 1.2), rel=1e-12
    )


def test_dynamic_energy_matches_trace_bookkeeping():
    """The trapezoidal integral over a real protocol trace reproduces the
    rectangle sum the trace builder accumulated."""
    arr = CrossbarArray(4, 4)
    arr.set_word(0, "0101")
    trace = write_word(arr, WriteRequest(0, "1010", WriteMode.PARALLEL))
    assert dynamic_energy(trace, arr.v_dd) == pytest.approx(
        trace.total_energy, rel=1e-9
    )


def test_dynamic_power_scales_energy_by_throughput():
    assert dynamic_power(2e-12, 100e6) == pytest.approx(0.2e-3, rel=1e-12)
    with pytest.raises(ParameterError, match="f_data_hz"):
        dynamic_power(1e-12, 0.0)


# -- sweeps ------------------------------------------------------------------


def sweep(arch, n_range, m_range, arr=None):
    """The sweep of the models ``arr`` simulates, a default 4x4 array's unless given."""
    arr = arr or CrossbarArray(4, 4)
    return sweep_area(
        arch, n_range, m_range, arr.params, arr.dynamics, arr.cell_transistor, DriveConfig(), 1.3
    )


def test_sweep_single_point_matches_direct_evaluation():
    cfg = ArchitectureConfig()
    (row,) = sweep(cfg, [4], [1024])
    assert row.area_exact_f2 == cell_area(ArchitectureConfig(4, 1024))
    assert row.area_asymptotic_f2 == cell_area_asymptotic(4)
    assert row.write_time_parallel_s == pytest.approx(20e-9, rel=1e-9)
    assert row.write_time_serial_s == pytest.approx(40e-9, rel=1e-9)


def test_sweep_rows_are_sorted_and_deduplicated():
    rows = sweep(ArchitectureConfig(), [8, 2, 4, 4], [64, 16, 64])
    keys = [(r.n_bits, r.m_words) for r in rows]
    assert keys == [(2, 16), (2, 64), (4, 16), (4, 64), (8, 16), (8, 64)]


def test_sweep_area_decreases_with_word_count():
    rows = sweep(ArchitectureConfig(), [4], [16, 64, 256, 1024, 4096])
    areas = [r.area_exact_f2 for r in rows]
    assert all(a > b for a, b in zip(areas, areas[1:]))
    assert areas[-1] > 28.0  # approaches the asymptote from above


def test_sweep_speed_density_tradeoff():
    """Doubling the word width halves the asymptotic area but the serial
    write time keeps growing linearly."""
    ns = [2, 4, 8, 16, 32, 64]
    by_n = {r.n_bits: r for r in sweep(ArchitectureConfig(), ns, [1024])}
    for a, b in zip(ns, ns[1:]):
        assert by_n[b].area_asymptotic_f2 == pytest.approx(
            by_n[a].area_asymptotic_f2 / 2, rel=1e-12
        )
        assert by_n[b].write_time_serial_s == pytest.approx(
            2 * by_n[a].write_time_serial_s, rel=1e-9
        )
        assert by_n[b].write_time_parallel_s == by_n[a].write_time_parallel_s


def test_sweep_read_time_matches_protocol_clock():
    arr = CrossbarArray(4, 4)
    (row,) = sweep(ArchitectureConfig(), [4], [4], arr)
    assert row.read_time_s == pytest.approx(
        read_word(arr, 0, DriveConfig()).sense_delay, rel=1e-12
    )


def test_plain_sweep_row_reads_in_two_halving_times_without_reference_words():
    (row,) = sweep(ArchitectureConfig(balanced=False), [4], [1024])
    r_ref = CrossbarArray(4, 2, balanced=False).ideal_reference_resistance()
    assert row.read_time_s == pytest.approx(
        2 * halving_time(r_ref, DriveConfig().c_load_f), rel=1e-12
    )
    assert row.area_exact_f2 == pytest.approx(28.1484375, abs=1e-9)


def test_sweep_write_energy_matches_protocol_scale():
    # ideal full-word figure: one switching energy per bit
    arr = CrossbarArray(4, 4)
    (row,) = sweep(ArchitectureConfig(), [4], [4], arr)
    trace = write_word(arr, WriteRequest(0, "1111", WriteMode.PARALLEL))
    assert row.write_energy_j == pytest.approx(trace.total_energy, rel=0.01)


def test_sweep_rejects_empty_ranges():
    with pytest.raises(ParameterError, match="ranges"):
        sweep(ArchitectureConfig(), [], [4])


# -- CSV contract ------------------------------------------------------------


def test_sweep_csv_header_and_shape():
    rows = sweep(ArchitectureConfig(), [2, 4], [16, 1024])
    csv = sweep_to_csv(rows)
    lines = csv.split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert csv.endswith("\n")
    assert len(lines) == 2 + len(rows)  # header + rows + trailing ""


def test_sweep_csv_round_trips_bit_exactly():
    rows = sweep(ArchitectureConfig(), [2, 4, 8], [16, 256])
    text = sweep_to_csv(rows)
    parsed = list(csv.DictReader(text.splitlines()))
    assert len(parsed) == len(rows)
    for row, back in zip(rows, parsed):
        assert int(back["n_bits"]) == row.n_bits
        assert int(back["m_words"]) == row.m_words
        assert float(back["area_exact_f2"]) == row.area_exact_f2
        assert float(back["write_time_ns_serial"]) == row.write_time_serial_s * 1e9
        assert float(back["read_time_ns"]) == row.read_time_s * 1e9
        assert float(back["write_energy_pj"]) == row.write_energy_j * 1e12
    # re-serializing the parsed floats reproduces the exact byte stream
    columns = SWEEP_CSV_HEADER.split(",")
    rebuilt = [SWEEP_CSV_HEADER]
    for back in parsed:
        rebuilt.append(
            ",".join(
                back[c] if c in ("n_bits", "m_words") else repr(float(back[c]))
                for c in columns
            )
        )
    assert "\n".join(rebuilt) + "\n" == text
