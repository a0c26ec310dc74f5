"""Write and read protocols, simulated against the nodal solver.

:func:`write_word` is the one write entry point and :func:`read_word` the
one read entry point; both return what the operation did (an
:class:`OperationTrace` or a :class:`SenseResult`).

Writes
------
A write runs as one or two phases (parallel) or as one sub-operation per
bit (serial). The self-enable modes first read the word and then drive
only the bits that differ, on the same parallel or serial schedule.
Within a phase the addressed cells are driven by regulated
bit-line current sources: the source magnitude is iterated until the
addressed junction carries exactly the programmed write current, so the
source supplies the write current plus whatever the sneak paths steal.
The word selector sets the return rail: pull-up for the '0' phase (current
leaves the cell through the bit line), pull-down for the '1' phase.

Phases are self-timed: a phase lasts until the last of its pending
junctions has accumulated a full switching delay, so a phase whose targets
already hold their data costs only the setup interval. Switching progress
is integrated between consecutive flip events, during which every branch
current is constant, so the integration is exact rather than sampled.
Progress belongs to the phase that built it: when the phase's pulse ends,
a partial reversal relaxes back, so no cell carries progress into the
next phase or operation.

In every mode a segment without a source floats. A serial write
therefore floats every bit line but one, and the sneak current through
those floating lines is what makes the serial source current exceed the
write current.

Reads
-----
All bits of a word are sensed in one cycle. The selected word row and the
reference row of matching parity are grounded through their selectors and
every column segment is driven at the read voltage. Each bit's sense
amplifier races the discharge of its two segments; the balanced layout
guarantees both segments collect the same sneak current, so the comparison
reduces to data resistance versus reference resistance. The cycle time is
fixed by the slowest deciding branch, the reference branch. The plain
layout has no reference rows: it compares against the ideal reference
branch resistance instead and spends a second cycle on the compare.

Energy bookkeeping: the supply current of an interval is the summed
magnitude of the regulated source currents (writes) or of the driven
segment currents (reads); energy integrates V_dd times that current over
the trace, exactly, since currents are piecewise constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .device import MtjState, switching_delay, switching_step
from .errors import (
    ConvergenceError,
    IndeterminateReadError,
    ParameterError,
    ReadDisturbError,
    WriteFailureError,
)
from .network import LineBias, RowDriver, solve_network

__all__ = [
    "BitDecision",
    "DriveConfig",
    "OperationTrace",
    "PhaseSummary",
    "SenseResult",
    "SensingPowerReport",
    "TraceEvent",
    "TraceSample",
    "WriteMode",
    "WriteRequest",
    "compare_sensing_power",
    "halving_time",
    "read_cycle_time",
    "read_word",
    "select_word",
    "sense_bit",
    "serial_sneak_profile",
    "trace_to_csv",
    "write_word",
]

_TIE_REL = 1e-6
LN2 = math.log(2.0)


@dataclass(frozen=True)
class DriveConfig:
    """Operating-point knobs shared by all protocol simulations."""

    v_read: float = 0.3
    setup_time_s: float = 1e-10
    c_load_f: float = 300e-15

    def __post_init__(self):
        if not 0.0 < self.v_read:
            raise ParameterError("v_read: must be positive")
        if self.setup_time_s < 0.0:
            raise ParameterError("setup_time_s: must be non-negative")
        if not self.c_load_f > 0.0:
            raise ParameterError("c_load_f: must be positive")


class WriteMode(Enum):
    PARALLEL = "parallel"
    SERIAL = "serial"
    SELF_ENABLE_SERIAL = "self_enable_serial"
    SELF_ENABLE_PARALLEL = "self_enable_parallel"


@dataclass(frozen=True)
class WriteRequest:
    word_addr: int
    data: str
    mode: WriteMode = WriteMode.PARALLEL

    def validate(self, array):
        array.word_row(self.word_addr)
        if len(self.data) != array.n_bits:
            raise ParameterError(
                f"data: expected {array.n_bits} bits, got {len(self.data)}"
            )
        for ch in self.data:
            if ch not in "01":
                raise ParameterError(f"data: invalid bit character {ch!r}")


@dataclass(frozen=True)
class TraceEvent:
    t: float
    kind: str  # phase-start | switch | phase-end | disturb | disturb-switch
    device: str
    current: float


@dataclass(frozen=True)
class TraceSample:
    t: float
    source_currents: dict  # line -> A, constant until the next sample
    supply_a: float


@dataclass(frozen=True)
class PhaseSummary:
    label: str
    t_start: float
    t_end: float
    source_currents: dict  # final regulated values, line -> A
    supply_a: float
    sneak_overhead: float  # (supply - ideal drive) / ideal drive
    energy_j: float


@dataclass(frozen=True)
class OperationTrace:
    events: tuple
    samples: tuple
    phases: tuple
    total_time: float
    total_energy: float

    def switch_count(self):
        return sum(1 for e in self.events if e.kind == "switch")


@dataclass(frozen=True)
class SenseResult:
    bits: str
    per_bit_margin: tuple  # reference branch resistance minus data branch
    sense_delay: float
    branch_currents: tuple  # (data, reference) A per bit
    per_bit_delay: tuple


@dataclass(frozen=True)
class BitDecision:
    bit: str
    delay: float


@dataclass(frozen=True)
class SensingPowerReport:
    parallel_j: float
    serial_j: float
    saving_ratio: float
    per_bit_saving: tuple
    bits: str


# -- bias construction ----------------------------------------------------


def select_word(array, word_addr, phase):
    """Row drivers of the rows one word's operation selects.

    Phase '0' pulls the word line to the positive rail (pull-up on), phase
    '1' and reads ground it (pull-down on). Reads additionally ground the
    reference row serving the word's parity. Every row left out keeps its
    selector off (see :meth:`~xpointsim.array.CrossbarArray.to_network`).
    """
    if phase not in ("0", "1", "read"):
        raise ParameterError(f"phase: expected '0', '1' or 'read', got {phase!r}")
    row = array.word_row(word_addr)
    model = array.row_driver_model
    drivers = {row: RowDriver(model, pmos_on=phase == "0", nmos_on=phase != "0")}
    if phase == "read" and array.balanced:
        drivers[array.serving_ref_row(word_addr)] = RowDriver(model, nmos_on=True)
    return drivers


# -- regulated solving -----------------------------------------------------


def _regulated_solve(array, drivers, targets):
    """Drive each addressed cell at its target through a regulated source.

    ``targets`` maps segment -> (cell tag, target current); every other
    line floats. The solver forms the exact transfer resistances from its
    own factorisation (see :mod:`xpointsim.network`), re-solving only when
    a selector saturates, and checks each cell within 1e-10 relative.
    """
    bias = {seg: LineBias.regulated(tag, amps) for seg, (tag, amps) in targets.items()}
    sol = solve_network(array.to_network(bias, drivers))
    return sol, {seg: sol.source_currents[seg] for seg in targets}


# -- trace assembly --------------------------------------------------------


class _TraceBuilder:
    def __init__(self, v_dd):
        self.v_dd = v_dd
        self.t = 0.0
        self.events = []
        self.samples = []
        self.phases = []
        self._phase = None  # (label, t_start, first sample) of the open phase

    def event(self, kind, device, current):
        self.events.append(TraceEvent(self.t, kind, device, current))

    def sample(self, currents, supply):
        # close the previous step with a sample at the new timestamp, so
        # the waveform is an explicit staircase: rectangle and trapezoid
        # integration then agree exactly; a repeat of the last sample at
        # its own time is a zero-width step and is dropped
        if self.samples:
            last = self.samples[-1]
            same = last.supply_a == supply and last.source_currents == currents
            if same and self.t == last.t:
                return
            if self.t > last.t and not same:
                self.samples.append(
                    TraceSample(self.t, dict(last.source_currents), last.supply_a)
                )
        self.samples.append(TraceSample(self.t, dict(currents), supply))

    def open_phase(self, label, setup_s):
        """Start a phase with the supply off, then charge its setup time."""
        self.event("phase-start", label, 0.0)
        self.sample({}, 0.0)
        # the last sample is at t_start: appended here, or the previous
        # phase's closing sample when this one repeated it
        self._phase = (label, self.t, len(self.samples) - 1)
        self.t += setup_s

    def close_phase(self, source_currents, supply_a, sneak_overhead):
        label, t_start, first_sample = self._phase
        self.event("phase-end", label, 0.0)
        self.sample({}, 0.0)
        self.phases.append(
            PhaseSummary(
                label=label,
                t_start=t_start,
                t_end=self.t,
                source_currents=source_currents,
                supply_a=supply_a,
                sneak_overhead=sneak_overhead,
                energy_j=self.energy(first_sample),
            )
        )

    def energy(self, first_sample):
        """V_dd times the supply, summed exactly over the staircase steps."""
        samples = self.samples[first_sample:]
        energy = 0.0
        for here, there in zip(samples, samples[1:]):
            energy += self.v_dd * here.supply_a * (there.t - here.t)
        return energy

    def finish(self):
        self.sample({}, 0.0)
        return OperationTrace(
            events=tuple(self.events),
            samples=tuple(self.samples),
            phases=tuple(self.phases),
            total_time=self.t,
            total_energy=self.energy(0),
        )


# -- the phase engine ------------------------------------------------------


def _run_phase(array, trace, label, word_addr, phase, active, setup_s):
    """Drive ``active`` bits of one word until they hold their targets.

    ``active`` maps bit index -> target MtjState. ``phase`` is '0' or '1';
    callers are expected to put P targets in phase '0' and AP targets in
    phase '1'. ``setup_s`` is the select/decode time charged before the
    sources engage; the two phases of a parallel write share one decode,
    so its second phase passes 0.

    Only *pending* cells are driven: a bit whose junction already holds
    its target is never addressed, and each source releases the moment
    its own cell flips. Forcing the write current through an
    already-switched junction would need well over the supply across its
    high resistance, and that potential couples through the floating
    mesh hard enough to disturb the word's own idle cells. Segments
    without a source float; tying them to a rail would open two-junction
    leak paths from every driven segment into the rail.
    """
    trace.open_phase(label, setup_s)

    drivers = select_word(array, word_addr, phase)
    row = array.word_row(word_addr)

    def pending_bits():
        return {
            bit for bit, st in active.items() if array.state(word_addr, bit) is not st
        }

    def targets_for(bits):
        targets = {}
        for bit in sorted(bits):
            seg = array.host_segment(word_addr, bit)
            sign = 1.0 if active[bit] is MtjState.AP else -1.0
            targets[seg] = (array.tag(row, seg), sign * array.write_current)
        return targets

    targeted = {word_addr * array.n_bits + bit for bit in active}
    pending = pending_bits()
    ideal_drive = len(pending) * array.write_current
    phase_sources = {}
    phase_supply = 0.0
    reported_disturb = set()
    progress = {}  # cell index -> switching progress, dropped with the phase
    guard = 0
    while pending:
        guard += 1
        if guard > 4 * array.n_bits + 16:
            raise ConvergenceError(f"{label}: switching cascade did not terminate")
        sol, sources = _regulated_solve(array, drivers, targets_for(pending))
        supply = sum(abs(v) for v in sources.values())
        if not phase_sources:
            # reported phase numbers: captured with every pending source on
            phase_sources, phase_supply = dict(sources), supply
        trace.sample(sol.source_currents, supply)

        # one pass over the supra-threshold cells: a stabilising current
        # clears a cell's progress, a destabilised reference cell (always
        # parallel) is a disturb, and a destabilised data cell is
        # scheduled to flip
        flips = []
        for k in np.flatnonzero(np.abs(sol.currents) > array.critical_currents).tolist():
            i = float(sol.currents[k])
            if k >= array.states.size:
                tag = array.tag(*array.cell_keys[k])
                if i > 0.0 and tag not in reported_disturb:
                    reported_disturb.add(tag)
                    trace.event("disturb", tag, i)
            elif (i > 0.0) == array.states[k]:
                progress.pop(k, None)
            else:
                tau = switching_delay(i, array.params, array.dynamics)
                flips.append(((1.0 - progress.get(k, 0.0)) * tau, k, i))
        if not flips:
            stuck = sorted(pending)[0]
            raise WriteFailureError(
                f"{label}: insufficient drive, "
                f"{array.tag(row, array.host_segment(word_addr, stuck))} "
                "never reaches its switching threshold"
            )

        dt = min(f[0] for f in flips) * (1.0 + 1e-12)
        trace.t += dt
        for _remaining, k, i in flips:
            state = MtjState.AP if array.states[k] else MtjState.P
            new, progress[k] = switching_step(
                state, progress.get(k, 0.0), i, array.params, dt, array.dynamics
            )
            if new is not state:
                array.states[k] = new is MtjState.AP
                kind = "switch" if k in targeted else "disturb-switch"
                trace.event(kind, array.tag(*array.cell_keys[k]), i)
        pending = pending_bits()

    trace.close_phase(
        phase_sources,
        phase_supply,
        (phase_supply - ideal_drive) / ideal_drive
        if phase_sources and ideal_drive
        else 0.0,
    )


def _verify_written(array, req):
    stored = array.get_word(req.word_addr)
    if stored != req.data:
        row = array.word_row(req.word_addr)
        bad = next(j for j in range(array.n_bits) if stored[j] != req.data[j])
        raise WriteFailureError(
            f"word {req.word_addr} reads back {stored!r}, wanted {req.data!r} "
            f"({array.tag(row, array.host_segment(req.word_addr, bad))})"
        )


_TARGET_STATE = {"0": MtjState.P, "1": MtjState.AP}


def _read_before_write(array, drive, trace, word_addr):
    """Sense the stored word as the first phase of a self-enable write."""
    trace.open_phase("read-before-write", drive.setup_time_s)
    sense = read_word(array, word_addr, drive)
    currents = _read_currents_by_segment(array, word_addr, sense)
    supply = sum(a + b for a, b in sense.branch_currents)
    trace.sample(currents, supply)
    trace.t += sense.sense_delay
    trace.close_phase(currents, supply, 0.0)
    return sense.bits


def write_word(array, req, drive=None):
    """Write one word with the protocol ``req.mode`` names.

    The self-enable modes read the word first and drive only the bits
    that differ. The serial modes then run one sub-phase per driven bit,
    each with its own setup, while every other bit line floats. The
    parallel modes run all '0' targets, then all '1' targets, under one
    word selection, so decode setup is charged once and the whole write
    fits in one setup plus two switching times.
    """
    drive = drive or DriveConfig()
    req.validate(array)
    trace = _TraceBuilder(array.v_dd)
    bits = range(array.n_bits)
    if req.mode in (WriteMode.SELF_ENABLE_SERIAL, WriteMode.SELF_ENABLE_PARALLEL):
        stored = _read_before_write(array, drive, trace, req.word_addr)
        bits = [j for j in bits if stored[j] != req.data[j]]
    if req.mode in (WriteMode.SERIAL, WriteMode.SELF_ENABLE_SERIAL):
        for j in bits:
            phase = req.data[j]
            target = {j: _TARGET_STATE[phase]}
            _run_phase(
                array, trace, f"bit{j}-phase-{phase}", req.word_addr, phase, target,
                drive.setup_time_s,
            )
    else:
        setup = drive.setup_time_s
        for phase in "01":
            active = {j: _TARGET_STATE[phase] for j in bits if req.data[j] == phase}
            if active:
                _run_phase(
                    array, trace, f"phase-{phase}", req.word_addr, phase, active, setup
                )
                setup = 0.0  # phase-1 reuses the word selection of phase-0
    _verify_written(array, req)
    return trace.finish()


# -- reading ---------------------------------------------------------------


def sense_bit(r_data_branch, r_ref_branch, c_load, v_dd):
    """Behavioural discharge race between the two precharged branches.

    The faster (lower-resistance) branch crosses the latch threshold first;
    the data bit is '1' when the data branch is the slower one. The delay
    is the winning branch's RC halving time.
    """
    if not (r_data_branch > 0.0 and r_ref_branch > 0.0):
        raise ParameterError("branch resistance: must be positive")
    if not (c_load > 0.0 and v_dd > 0.0):
        raise ParameterError("sense amplifier: c_load and v_dd must be positive")
    spread = abs(r_data_branch - r_ref_branch) / max(r_data_branch, r_ref_branch)
    if spread <= _TIE_REL:
        raise IndeterminateReadError(
            f"sense race too close to call: {r_data_branch:.6g} vs "
            f"{r_ref_branch:.6g} Ohm"
        )
    bit = "1" if r_data_branch > r_ref_branch else "0"
    delay = halving_time(min(r_data_branch, r_ref_branch), c_load)
    return BitDecision(bit=bit, delay=delay)


def halving_time(r_ohm, c_f):
    """Time for a branch of ``r_ohm`` to discharge ``c_f`` to half its voltage."""
    return r_ohm * c_f * LN2


def read_cycle_time(array, drive=None):
    """Fixed sense clock: the halving time of the reference branch."""
    drive = drive or DriveConfig()
    return halving_time(array.ideal_reference_resistance(), drive.c_load_f)


def _read_solution(array, word_addr, drive, driven_bits=None):
    """Solve the read bias; optionally drive only some bits (serial sensing)."""
    drivers = select_word(array, word_addr, "read")
    on, off = LineBias.voltage(drive.v_read), LineBias.floating()
    bias = {}
    for j in range(array.n_bits):
        driven = driven_bits is None or j in driven_bits
        for seg in array.segments_for_bit(j):
            bias[seg] = on if driven else off
    return solve_network(array.to_network(bias, drivers))


def _assert_no_read_disturb(array, sol):
    over = np.flatnonzero(np.abs(sol.currents) >= array.critical_currents)
    if over.size:
        i = float(sol.currents[over[0]])
        raise ReadDisturbError(
            f"read current {abs(i) * 1e6:.1f} uA reaches the switching "
            f"threshold of {array.tag(*array.cell_keys[over[0]])}"
        )


def _read_currents_by_segment(array, word_addr, sense):
    currents = {}
    for j in range(array.n_bits):
        i_data, i_ref = sense.branch_currents[j]
        currents[array.host_segment(word_addr, j)] = i_data
        if array.balanced:
            currents[array.sibling_segment(word_addr, j)] = i_ref
    return currents


def read_word(array, word_addr, drive=None):
    """Sense all bits of one word.

    The decision for each bit uses the effective branch resistances seen
    by the sense amplifier, v_read over the segment source currents, so
    whatever sneak current the mesh adds is included. In the balanced
    layout the reference branch is the sibling segment, which picks up
    the same sneak current, and one cycle decides. The plain layout has
    no reference rows: each bit is compared against the ideal reference
    branch resistance, and the compare step costs a second cycle.
    """
    drive = drive or DriveConfig()
    sol = _read_solution(array, word_addr, drive)
    _assert_no_read_disturb(array, sol)
    if array.balanced:
        cycles = 1
    else:
        cycles = 2
        r_ideal = array.ideal_reference_resistance()

    bits = []
    margins = []
    currents = []
    delays = []

    def segment_current(bit, segment):
        # a segment that returns current has no branch resistance to sense
        i = sol.source_currents[segment]
        if not i > 0.0:
            raise IndeterminateReadError(
                f"word {word_addr} bit {bit}: segment {segment} carries "
                f"{i:.3g} A, so its branch resistance cannot be sensed"
            )
        return i

    for j in range(array.n_bits):
        i_data = segment_current(j, array.host_segment(word_addr, j))
        if array.balanced:
            i_ref = segment_current(j, array.sibling_segment(word_addr, j))
            r_ref = drive.v_read / i_ref
        else:
            r_ref = r_ideal
            i_ref = drive.v_read / r_ref
        r_data = drive.v_read / i_data
        decision = sense_bit(r_data, r_ref, drive.c_load_f, array.v_dd)
        bits.append(decision.bit)
        margins.append(r_ref - r_data)
        currents.append((i_data, i_ref))
        delays.append(decision.delay)
    return SenseResult(
        bits="".join(bits),
        per_bit_margin=tuple(margins),
        sense_delay=cycles * read_cycle_time(array, drive),
        branch_currents=tuple(currents),
        per_bit_delay=tuple(delays),
    )


# -- power studies ---------------------------------------------------------


def compare_sensing_power(array, word_addr, drive=None):
    """Energy of one whole-word read: all bits at once versus bit-serial.

    Serial sensing floats the idle columns, so each sub-cycle's source
    current picks up sneak current on top of the branch currents; parallel
    sensing drives every column and suppresses the sneak entirely. Both
    modes are charged the same fixed cycle time per sense.
    """
    drive = drive or DriveConfig()
    if not array.balanced:
        raise ParameterError("compare_sensing_power: needs the balanced layout")
    t_cycle = read_cycle_time(array, drive)
    v_dd = array.v_dd

    sense = read_word(array, word_addr, drive)
    e_parallel = []
    e_serial = []
    for j, (i_data, i_ref) in enumerate(sense.branch_currents):
        host = array.host_segment(word_addr, j)
        sibling = array.sibling_segment(word_addr, j)
        solo = _read_solution(array, word_addr, drive, driven_bits={j})
        i_ser = solo.source_currents[host] + solo.source_currents[sibling]
        e_parallel.append(v_dd * (i_data + i_ref) * t_cycle)
        e_serial.append(v_dd * i_ser * t_cycle)
    parallel_j = sum(e_parallel)
    serial_j = sum(e_serial)
    savings = tuple(
        1.0 - (p / s) if s > 0.0 else 0.0 for p, s in zip(e_parallel, e_serial)
    )
    return SensingPowerReport(
        parallel_j=parallel_j,
        serial_j=serial_j,
        saving_ratio=1.0 - parallel_j / serial_j if serial_j > 0.0 else 0.0,
        per_bit_saving=savings,
        bits=sense.bits,
    )


def serial_sneak_profile(array, word_addr, bit, bit_value="1", drive=None):
    """Source current of a one-bit write versus the number of floating lines.

    Interpolates between a fully parallel write (every other bit column is
    co-driven with its own regulated source, writing the same value to its
    own cell of the word) and a fully serial sub-step (every other column
    floats). With 0, 1, ... companions converted to floating lines, the
    addressed cell always carries exactly the regulated write current, so
    any growth of the bit-line source current is pure sneak overhead fed
    through the floating columns. Returns (floating line count, source
    current magnitude) pairs. Solves only; no junction state is changed.

    The numbers depend on the stored data. On a word whose cells all have
    the same resistance the co-driven segments sit at matching potentials
    and the zero-floating entry collapses to the bare write current; on a
    mixed word the potential imbalance itself circulates current through
    the floating rows, which is physical but obscures the trend.
    """
    drive = drive or DriveConfig()
    if bit_value not in ("0", "1"):
        raise ParameterError(f"bit_value: expected '0' or '1', got {bit_value!r}")
    phase = bit_value
    row = array.word_row(word_addr)
    seg = array.host_segment(word_addr, bit)
    sign = 1.0 if bit_value == "1" else -1.0
    drivers = select_word(array, word_addr, phase)
    others = [j for j in range(array.n_bits) if j != bit]

    profile = []
    for n_floating in range(len(others) + 1):
        targets = {seg: (array.tag(row, seg), sign * array.write_current)}
        for j in others[n_floating:]:
            s = array.host_segment(word_addr, j)
            targets[s] = (array.tag(row, s), sign * array.write_current)
        _sol, sources = _regulated_solve(array, drivers, targets)
        profile.append((n_floating, abs(sources[seg])))
    return profile


# -- trace serialization ----------------------------------------------------


def trace_to_csv(trace):
    """Waveform CSV: time, total supply current, then one column per line."""
    lines = sorted({line for s in trace.samples for line in s.source_currents})
    header = ["time_ns", "source_current_uA"] + [f"i_{line}_uA" for line in lines]
    rows = [",".join(header)]
    for s in trace.samples:
        cells = [f"{s.t * 1e9:.6f}", f"{s.supply_a * 1e6:.6f}"]
        for line in lines:
            cells.append(f"{s.source_currents.get(line, 0.0) * 1e6:.6f}")
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"
