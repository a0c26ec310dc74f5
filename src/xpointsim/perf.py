"""Closed-form area, speed and power models plus design-space sweeps.

The area model counts only the CMOS periphery: sense amplifiers and write
drivers (one each per bit column) and the word selection pair (one per
word, plus one for each of the two reference words of the balanced
layout; the plain layout has none). Dividing by the bit count gives
the mean footprint per stored bit in units of F², the square of the CMOS
feature size. The memory devices themselves sit above the logic, so for
large arrays the per-bit figure is limited by the selection pair alone,
and ultimately by the junction pitch (four squares of the memory-layer
feature size).

Timing and energy figures here are the analytic ideals (no sneak, no
decode overhead): a serial word write costs one switching time per bit, a
parallel write two switching times (one per polarity), and a read the
time :func:`~xpointsim.ops.read_cycle_time` charges the simulated read of
its layout. Circuit-level numbers including sneak overhead come from
:mod:`xpointsim.ops` traces; :func:`dynamic_energy` integrates those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .array import reference_branch_resistance
from .device import _write_current, reference_params, switching_delay
from .errors import ParameterError
from .ops import halving_time, read_cycle_time

__all__ = [
    "ArchitectureConfig",
    "PerfRow",
    "SWEEP_CSV_HEADER",
    "cell_area",
    "cell_area_asymptotic",
    "cell_area_physical_floor",
    "dynamic_energy",
    "dynamic_power",
    "sweep_area",
    "sweep_to_csv",
]


@dataclass(frozen=True)
class ArchitectureConfig:
    """Peripheral-circuit footprint and throughput parameters.

    Areas are in F². The defaults describe the slow-write design point
    (10 ns switching); a selection pair sized for the fast 3x-threshold
    write grows to about 405 F².
    """

    n_bits: int = 4
    m_words: int = 1024
    balanced: bool = True
    a_sense_f2: float = 40.0
    a_write_f2: float = 112.0
    a_select_f2: float = 112.0
    f_feature_nm: float = 65.0
    f_memory_nm: float = 40.0
    v_dd: float = 1.2
    f_data_hz: float = 100e6

    def __post_init__(self):
        if self.n_bits < 1:
            raise ParameterError("n_bits: must be at least 1")
        if self.m_words < 1:
            raise ParameterError("m_words: must be at least 1")
        for name in (
            "a_sense_f2",
            "a_write_f2",
            "a_select_f2",
            "f_feature_nm",
            "f_memory_nm",
            "v_dd",
            "f_data_hz",
        ):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name}: must be positive")


def cell_area(cfg):
    """Mean CMOS footprint per bit, in F².

    Sums one sense amplifier and one write driver per bit column plus one
    selection pair per word and divides by the stored bit count. The two
    reference words of the balanced layout need selection pairs but store
    no data; the plain layout has no reference words.
    """
    words_with_selectors = cfg.m_words + (2 if cfg.balanced else 0)
    periphery = (
        cfg.n_bits * cfg.a_sense_f2
        + cfg.n_bits * cfg.a_write_f2
        + words_with_selectors * cfg.a_select_f2
    )
    return periphery / (cfg.n_bits * cfg.m_words)


def cell_area_asymptotic(n_bits, a_select_f2=112.0):
    """Large-array limit of :func:`cell_area`: the selection pair alone.

    With many words per array the per-column circuits amortize to nothing
    and the per-bit area is the word selection pair shared by the word's
    bits.
    """
    if n_bits < 1:
        raise ParameterError("n_bits: must be at least 1")
    if not a_select_f2 > 0.0:
        raise ParameterError("a_select_f2: must be positive")
    return a_select_f2 / n_bits


def cell_area_physical_floor(f_feature_nm, f_memory_nm):
    """Junction-pitch bound on the per-bit area, in CMOS F².

    The device layer cannot pack tighter than 4 squares of its own
    feature size; expressed against the CMOS feature this is
    4*(f_memory/f_feature)^2.
    """
    if not (f_feature_nm > 0.0 and f_memory_nm > 0.0):
        raise ParameterError("f_feature_nm and f_memory_nm: must be positive")
    ratio = f_memory_nm / f_feature_nm
    floor = 4.0 * (ratio * ratio)
    if math.isinf(floor):
        raise ParameterError(
            f"f_feature_nm and f_memory_nm: a feature ratio of {ratio:g} "
            "puts the pitch floor beyond float range"
        )
    return floor


def dynamic_energy(trace, v_dd):
    """Supply energy of one operation: integral of v_dd times the drawn
    current over the trace waveform, by the trapezoidal rule.

    The traces produced by :mod:`xpointsim.ops` are explicit staircases
    (every step carries samples on both edges), so the trapezoidal result
    equals the exact rectangle sum. An empty waveform integrates to zero.
    """
    if not trace.samples:
        return 0.0
    times = np.array([s.t for s in trace.samples])
    supply = np.array([s.supply_a for s in trace.samples])
    return float(v_dd * np.trapezoid(supply, times))


def dynamic_power(energy_j, f_data_hz):
    """Average power at a given operation throughput."""
    if not f_data_hz > 0.0:
        raise ParameterError("f_data_hz: must be positive")
    return energy_j * f_data_hz


# -- design-space sweeps -----------------------------------------------------


SWEEP_CSV_HEADER = (
    "n_bits,m_words,area_exact_f2,area_asymptotic_f2,write_time_ns_serial,"
    "write_time_ns_parallel,read_time_ns,write_energy_pj,read_energy_pj"
)


@dataclass(frozen=True)
class PerfRow:
    """One swept design point. Times in seconds, energies in joules."""

    n_bits: int
    m_words: int
    area_exact_f2: float
    area_asymptotic_f2: float
    write_time_serial_s: float
    write_time_parallel_s: float
    read_time_s: float
    write_energy_j: float
    read_energy_j: float


def sweep_to_csv(rows):
    """The sweep table under :data:`SWEEP_CSV_HEADER`, in its ns, pJ and F²."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        values = (
            row.area_exact_f2, row.area_asymptotic_f2, row.write_time_serial_s * 1e9,
            row.write_time_parallel_s * 1e9, row.read_time_s * 1e9,
            row.write_energy_j * 1e12, row.read_energy_j * 1e12,
        )
        lines.append(",".join([str(row.n_bits), str(row.m_words), *map(repr, values)]))
    return "\n".join(lines) + "\n"


def _sweep_point(cfg, n, m, params, dynamics, drive, overdrive, r_cell_on):
    i_write = _write_current(params, overdrive)
    tau = switching_delay(i_write, params, dynamics)
    r_ref_branch = reference_branch_resistance(reference_params(params), r_cell_on, n)
    t_half = halving_time(r_ref_branch, drive.c_load_f)
    point = replace(cfg, n_bits=n, m_words=m)
    return PerfRow(
        n_bits=n,
        m_words=m,
        area_exact_f2=cell_area(point),
        area_asymptotic_f2=cell_area_asymptotic(n, cfg.a_select_f2),
        write_time_serial_s=n * tau,
        write_time_parallel_s=2 * tau,
        read_time_s=read_cycle_time(r_ref_branch, drive.c_load_f, cfg.balanced),
        # ideal full-word figures: every bit switched at the regulated write
        # current; two branch-cycles per bit near the reference, on both layouts
        write_energy_j=n * cfg.v_dd * i_write * tau,
        read_energy_j=n * cfg.v_dd * (2 * drive.v_read / r_ref_branch) * t_half,
    )


def sweep_area(cfg, n_range, m_range, params, dynamics, transistor, drive, overdrive):
    """Evaluate the closed-form models of one chip over a grid of word widths/counts.

    The chip is the built models: the junction ``params``, its switching
    ``dynamics``, the cell ``transistor``, the ``drive`` and the write
    ``overdrive``, as :func:`~xpointsim.config.build_array` hands them to
    the simulator. Points are independent pure evaluations; rows come back
    sorted by (n_bits, m_words) so the table is order-deterministic
    regardless of the ranges' own ordering.
    """
    n_list = sorted(set(int(n) for n in n_range))
    m_list = sorted(set(int(m) for m in m_range))
    if not n_list or not m_list:
        raise ParameterError("sweep ranges: must be non-empty")
    return tuple(
        _sweep_point(cfg, n, m, params, dynamics, drive, overdrive, transistor.r_on)
        for n in n_list
        for m in m_list
    )
