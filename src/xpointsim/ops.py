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
Flips due within the spread the regulation leaves between a phase's cells
are one event. Progress belongs to the phase that built it: when the
phase's pulse ends, a partial reversal relaxes back, so no cell carries
progress into the next phase or operation.

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
:func:`read_cycle_time` is the one sense clock of both layouts; the
closed-form models of :mod:`xpointsim.perf` charge a read the same time.

Reads differ only at the two rows they ground, which a read names by
index: the word's row and the reference row of its parity. The array
caches a :class:`~xpointsim.network.ReadBase`, the read drive with every
row idle, solved and checked (KCL, read disturb) once per stored state and
``v_read``. With wires a read is the correction at its two rows through
a :class:`~xpointsim.network.BaseSolver` of its own, whose factored base a
change of the stored words corrects rather than solves again; without,
each row's read is its own, and a read looks up its two rows' reads. A
read that senses bits other than the stored ones raises
:class:`~xpointsim.errors.MisreadError`, naming the first wrong cell: a
misread is never returned as a bit string.

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
    MisreadError,
    ParameterError,
    WriteFailureError,
)
from . import network
from .network import _REG_TOL, BaseSolver, LineBias, ReadBase, RowDriver, solve_network

__all__ = [
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
    "serial_sneak_profile",
    "trace_to_csv",
    "write_word",
]

_TIE_REL = 1e-6
# the flips of one step that are one group: the regulation holds each
# addressed cell within _REG_TOL of the write current, so two cells of a
# phase carry currents up to twice that apart, and a switching delay
# 1 / (rate (|i| - i_c)) moves |i| / (|i| - i_c) times as much as its current
_GROUP_TOL = 2.0 * _REG_TOL
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
        array.check_data(self.word_addr, self.data)


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
    source_currents: dict  # driven segment -> A, as the read's solve returned them


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


def _write_sources(array, word_addr, phase, bits):
    """Regulated sources that hold the write current of ``phase`` in ``bits``.

    Segment -> source, in the order of ``bits``. A source makes the solver
    drive its cell (by index) at exactly the write current: into the cell
    for phase '1', out of it for phase '0'. The solver forms the exact
    transfer resistances from its own factorisation (see
    :mod:`xpointsim.network`) and checks each cell within 1e-10 relative.
    """
    amps = array.write_current if phase == "1" else -array.write_current
    return {
        array.host_segment(word_addr, bit): LineBias.regulated(word_addr * array.n_bits + bit, amps)
        for bit in bits
    }


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


def _run_phase(array, trace, label, word_addr, phase, bits, setup_s, solve, asm):
    """Drive ``bits`` of one word until they hold the state of ``phase``.

    ``phase`` is '0' (parallel) or '1' (antiparallel). ``setup_s`` is the
    select/decode time charged before the sources engage; the two phases
    of a parallel write share one decode, so its second phase passes 0.

    Only *pending* cells are driven: a bit whose junction already holds
    its target is never addressed, and each source releases the moment
    its own cell flips. Forcing the write current through an
    already-switched junction would need well over the supply across its
    high resistance, and that potential couples through the floating
    mesh hard enough to disturb the word's own idle cells. Segments
    without a source float; tying them to a rail would open two-junction
    leak paths from every driven segment into the rail.

    ``asm`` is the write's drive, bound once: the phase selects its row's
    rail pair and binds its sources on it, and each step keeps on only the
    sources of cells still pending. ``solve`` is the array's write
    :class:`~xpointsim.network.BaseSolver`, which every solve of the phase
    passes to :func:`~xpointsim.network.solve_network` with ``asm``.
    """
    trace.open_phase(label, setup_s)

    asm.select(select_word(array, word_addr, phase))
    target = phase == "1"
    sources = _write_sources(array, word_addr, phase, bits)
    asm.regulate(sources)
    cells = asm.sources[2]
    driven = set(cells.tolist())
    phase_sources, phase_supply, overhead = {}, 0.0, 0.0
    reported_disturb = set()
    progress = {}  # cell index -> switching progress, dropped with the phase
    guard = 0
    while (pending := array.states[cells] != target).any():
        guard += 1
        if guard > 4 * array.n_bits + 16:
            raise ConvergenceError(f"{label}: switching cascade did not terminate")
        asm.keep(pending)
        sol = solve_network(asm, solve)
        supply = sum(abs(v) for v in sol.source_currents.values())
        if not phase_sources:
            # reported phase numbers: captured with every pending source on
            phase_sources, phase_supply = dict(sol.source_currents), supply
            ideal_drive = len(asm.regulated) * array.write_current
            overhead = (supply - ideal_drive) / ideal_drive if ideal_drive else 0.0
        trace.sample(sol.source_currents, supply)

        # one pass over the supra-threshold cells: a stabilising current
        # clears a cell's progress, a destabilised reference cell (always
        # parallel) is a disturb, and a destabilised data cell is
        # scheduled to flip
        flips = []
        for k in np.flatnonzero(np.abs(sol.currents) > array.critical_currents).tolist():
            i = float(sol.currents[k])
            if k >= array.states.size:
                if i > 0.0 and k not in reported_disturb:
                    reported_disturb.add(k)
                    trace.event("disturb", array.tag(k), i)
            elif (i > 0.0) == array.states[k]:
                progress.pop(k, None)
            else:
                tau = switching_delay(i, array.params, array.dynamics)
                flips.append(((1.0 - progress.get(k, 0.0)) * tau, k, i))
        if not flips:
            stuck = array.tag(asm.reg_cells[0])
            raise WriteFailureError(
                f"{label}: insufficient drive, {stuck} never reaches its switching threshold"
            )

        # every destabilised cell advances by the step; the flips of the
        # first's group complete in it, in cell-index order
        dt = _step_time(flips, array.critical_currents)
        trace.t += dt
        for _remaining, k, i in flips:
            state = MtjState.AP if array.states[k] else MtjState.P
            new, progress[k] = switching_step(
                state, progress.get(k, 0.0), i, array.params, dt, array.dynamics
            )
            if new is not state:
                array.store(k, new is MtjState.AP)
                kind = "switch" if k in driven else "disturb-switch"
                trace.event(kind, array.tag(k), i)

    trace.close_phase(phase_sources, phase_supply, overhead)


def _step_time(flips, critical_currents):
    """How long a step of ``flips``, each (remaining time, cell, current),
    lasts: until the first is due, with a margin that carries its progress
    past 1.0, or, if its group (the flips due within ``_GROUP_TOL`` of it,
    scaled by the delay's sensitivity to its current) reaches past that,
    until the group's last is due, with the same margin."""
    first, k, i = min(flips)
    due = first * (1.0 + _GROUP_TOL * abs(i) / (abs(i) - critical_currents[k]))
    dt, last = first * (1.0 + 1e-12), max(r for r, _, _ in flips if r <= due)
    return dt if last <= dt else last * (1.0 + 1e-12)


def _verify_written(array, req):
    stored = array.get_word(req.word_addr)
    if stored != req.data:
        bad = next(j for j in range(array.n_bits) if stored[j] != req.data[j])
        raise WriteFailureError(
            f"word {req.word_addr} reads back {stored!r}, wanted {req.data!r} "
            f"({array.tag(req.word_addr * array.n_bits + bad)})"
        )


def _read_before_write(array, drive, trace, word_addr):
    """Sense the stored word as the first phase of a self-enable write."""
    trace.open_phase("read-before-write", drive.setup_time_s)
    sense = read_word(array, word_addr, drive)
    currents = sense.source_currents
    # bit by bit, as the balanced sense amplifiers pair data and reference
    supply = sum(sum(map(currents.get, array.segments_for_bit(j))) for j in range(array.n_bits))
    trace.sample(currents, supply)
    trace.t += sense.sense_delay
    trace.close_phase(currents, supply, 0.0)
    return sense.bits


def _write_reach(array, cells):
    """The reach of a write of branches ``cells``: their two nodes and their lines' terminals."""
    core = array.core
    nodes = np.concatenate([core.cell_row[cells], core.cell_col[cells]])
    return np.concatenate([nodes, core.terminal[core.node_line[nodes]]])


def write_word(array, req, drive=None):
    """Write one word with the protocol ``req.mode`` names.

    The self-enable modes read the word first and drive only the bits
    that differ. The serial modes then run one sub-phase per driven bit,
    each with its own setup, while every other bit line floats. The
    parallel modes run all '0' targets, then all '1' targets, under one
    word selection, so decode setup is charged once and the whole write
    fits in one setup plus two switching times.

    The array keeps one :class:`~xpointsim.network.BaseSolver` for its
    writes, and each write is one run of it: reached to the write's cells'
    nodes and their lines' terminals, its first solve corrects the base
    factored for an earlier write, unless the cells flipped since pass the
    solver's bound, and the run's base is dropped when the write returns.
    """
    drive = drive or DriveConfig()
    req.validate(array)
    trace = _TraceBuilder(array.v_dd)
    bits = range(array.n_bits)
    if req.mode in (WriteMode.SELF_ENABLE_SERIAL, WriteMode.SELF_ENABLE_PARALLEL):
        stored = _read_before_write(array, drive, trace, req.word_addr)
        bits = [j for j in bits if stored[j] != req.data[j]]
    # every phase selects the word's row and drives some of these of its
    # cells: the drive is bound once, to the array's live branches, through
    # the network module's build_network as the read base's is, and the
    # solver finds the branches each flip, this write's or an earlier one's,
    # changed in those conductances
    asm = network.build_network(array.to_network({}, select_word(array, req.word_addr, "1")))
    asm.resistance, asm.g = array.resistances, array.conductances
    cells = req.word_addr * array.n_bits + np.asarray(bits, dtype=np.intp)
    # its factored bases cover the nodes each write reaches it to, no others
    reach = _write_reach(array, cells)
    solve = array.write_solver = array.write_solver or BaseSolver(array.core, reach[:0])
    solve.reach_to(reach)
    try:
        if req.mode in (WriteMode.SERIAL, WriteMode.SELF_ENABLE_SERIAL):
            for j in bits:
                phase = req.data[j]
                _run_phase(
                    array, trace, f"bit{j}-phase-{phase}", req.word_addr, phase, [j],
                    drive.setup_time_s, solve, asm,
                )
        else:
            setup = drive.setup_time_s
            for phase in "01":
                targets = [j for j in bits if req.data[j] == phase]
                if targets:
                    _run_phase(
                        array, trace, f"phase-{phase}", req.word_addr, phase, targets, setup, solve, asm
                    )
                    setup = 0.0  # phase-1 reuses the word selection of phase-0
    finally:  # the factored base stays for the next write
        solve.close()
    _verify_written(array, req)
    return trace.finish()


# -- reading ---------------------------------------------------------------


def halving_time(r_ohm, c_f):
    """Time for a branch of ``r_ohm`` to discharge ``c_f`` to half its voltage."""
    return r_ohm * c_f * LN2


def read_cycle_time(r_ref_branch, c_load_f, balanced):
    """Time to sense one read: the halving time of the reference branch,
    twice on the plain layout, which spends a second cycle on the compare."""
    return (1 if balanced else 2) * halving_time(r_ref_branch, c_load_f)


def _read_solution(array, word_addr, drive, driven_bits=None):
    """Solve the read bias in full; optionally drive only some bits (serial sensing).

    The segments of every driven bit sit at the read voltage; the rest float.
    """
    drivers = select_word(array, word_addr, "read")
    bits = [j for j in range(array.n_bits) if driven_bits is None or j in driven_bits]
    on = LineBias.voltage(drive.v_read)
    bias = {seg: on for j in bits for seg in array.segments_for_bit(j)}
    return solve_network(array.to_network(bias, drivers))


def _read_base(array, v_read):
    """The array's :class:`ReadBase` for ``v_read``, re-solved at the words
    the array marks changed since it was last used (a word's row is its index)."""
    cached, array.read_base = array.read_base, None  # dropped if this raises
    key = (v_read, array.row_driver_model)
    if cached is None or cached[0] != key:
        net = array.to_network(dict.fromkeys(array.segments, LineBias.voltage(v_read)), {})
        cached = (key, ReadBase(net, array.critical_currents))
    elif array.changed:
        cached[1].solve(array.resistances, np.flatnonzero(array.changed_words))
    if array.changed:  # a base just built holds every stored word
        array.changed_words[:] = array.changed = False
    array.read_base = cached
    return cached[1]


def read_word(array, word_addr, drive=None):
    """Sense all bits of one word.

    The decision for each bit uses the effective branch resistances seen
    by the sense amplifier, v_read over the segment source currents, so
    whatever sneak current the mesh adds is included. In the balanced
    layout the reference branch is the sibling segment, which picks up
    the same sneak current, and one cycle decides. The plain layout has
    no reference rows: each bit is compared against the ideal reference
    branch resistance, and the compare step costs a second cycle.

    Each bit is a behavioural discharge race between its two precharged
    branches: the faster (lower-resistance) one crosses the latch threshold
    first, so the bit is '1' when the data branch is slower, and its delay is
    the winner's RC halving time. The first bit whose branches are within
    1e-6 relative or whose segment returns current raises, naming the bit.
    A word that senses other bits than it stores raises ``MisreadError``,
    naming the first wrong cell.
    """
    drive = drive or DriveConfig()
    # the word's row and, balanced, its parity's reference row; parity() checks the word
    rows = [word_addr, array.m_words + array.parity(word_addr)][: 1 + array.balanced]
    src, segs = _read_base(array, drive.v_read).read(rows)
    # a bit is sensed on its cell's segment against the reference cell's
    v, r_ideal, i_seg = drive.v_read, array.ideal_reference_resistance(), src[segs]
    with np.errstate(divide="ignore", invalid="ignore"):
        r_data = v / i_seg[0]
        r_ref = v / i_seg[1] if array.balanced else np.full(array.n_bits, r_ideal)
        spread = np.abs(r_data - r_ref) / np.maximum(r_data, r_ref)
    bad = ~(i_seg > 0.0).all(axis=0) | (spread <= _TIE_REL)
    if bad.any():  # the first bit that cannot be sensed raises, data segment first
        j = int(bad.argmax())
        for k in segs[:, j].tolist():
            if not src[k] > 0.0:  # a segment returning current has no branch to sense
                raise IndeterminateReadError(
                    f"word {word_addr} bit {j}: segment {array.segments[k]} carries "
                    f"{src[k]:.3g} A, so its branch resistance cannot be sensed"
                )
        raise IndeterminateReadError(f"word {word_addr} bit {j}: sense race too close to call: "
                                     f"{r_data[j]:.6g} vs {r_ref[j]:.6g} Ohm")
    ones, first = r_data > r_ref, word_addr * array.n_bits
    bits = "".join("01"[one] for one in ones.tolist())
    wrong = ones != array.states[first : first + array.n_bits]
    if wrong.any():
        raise MisreadError(f"word {word_addr} reads {bits!r}, stored {array.get_word(word_addr)!r} "
                           f"({array.tag(first + int(wrong.argmax()))})")
    i_ref = i_seg[1] if array.balanced else v / r_ref
    return SenseResult(
        bits=bits,
        per_bit_margin=tuple((r_ref - r_data).tolist()),
        sense_delay=read_cycle_time(r_ideal, drive.c_load_f, array.balanced),
        branch_currents=tuple(zip(i_seg[0].tolist(), i_ref.tolist())),
        per_bit_delay=tuple(halving_time(np.minimum(r_data, r_ref), drive.c_load_f).tolist()),
        source_currents=dict(zip(array.segments, src.tolist())),
    )


# -- power studies ---------------------------------------------------------


def compare_sensing_power(array, word_addr, drive=None):
    """Energy of one whole-word read: all bits at once versus bit-serial.

    Serial sensing floats the idle columns, so each sub-cycle's source
    current picks up sneak current on top of the branch currents; parallel
    sensing drives every column and suppresses the sneak entirely. Both
    modes are charged the read's sense time per sense.
    """
    drive = drive or DriveConfig()
    if not array.balanced:
        raise ParameterError("compare_sensing_power: needs the balanced layout")
    sense = read_word(array, word_addr, drive)
    t_cycle, v_dd = sense.sense_delay, array.v_dd
    e_parallel = []
    e_serial = []
    for j, (i_data, i_ref) in enumerate(sense.branch_currents):
        solo = _read_solution(array, word_addr, drive, driven_bits={j})
        i_ser = sum(map(solo.source_currents.get, array.segments_for_bit(j)))
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


def serial_sneak_profile(array, word_addr, bit, bit_value="1"):
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
    if bit_value not in ("0", "1"):
        raise ParameterError(f"bit_value: expected '0' or '1', got {bit_value!r}")
    drivers = select_word(array, word_addr, bit_value)
    seg = array.host_segment(word_addr, bit)
    others = [j for j in range(array.n_bits) if j != bit]

    profile = []
    for n_floating in range(len(others) + 1):
        sources = _write_sources(array, word_addr, bit_value, [bit] + others[n_floating:])
        sol = solve_network(array.to_network(sources, drivers))
        profile.append((n_floating, abs(sol.source_currents[seg])))
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

