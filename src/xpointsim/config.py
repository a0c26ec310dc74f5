"""Scenario configuration.

A scenario is described by a plain INI file (the :mod:`configparser`
dialect: ``[section]`` headers, ``key = value`` pairs, ``#`` or ``;``
comments). Every section and every key is optional; an empty file gives
the default 4x4 demonstration scenario. Unknown sections or keys are
rejected, and validation reports *all* problems at once, each one naming
the offending ``section.key``.

Each key is declared once, as a field of its section dataclass made by
``_key``: the field holds the default, the converter from INI text and
the range check of that key alone; the ``build_*`` functions turn the
sections into the simulator's models. Conversion problems are reported
first, then range problems in section and key order, then the problems
that span keys.

Sections and keys, with defaults:

``[device]``
    ``tmr`` (1.5), ``surface_nm2`` (65 nm circular pillar),
    ``ra_ohm_um2`` (10.0), ``jc0_a_cm2`` (5.7e6).

``[dynamics]``
    ``xi`` (40.0), ``polarization`` (0.62), ``moment_a_m2``,
    ``rate_per_amp``: a number, ``auto`` (calibrate so 1.3x threshold
    switches in 10 ns) or ``physics`` (derive the rate from xi,
    polarization and moment).

``[transistor]``
    ``r_on``, ``r_off``, ``i_sat``: numbers, never re-sized, or ``auto``
    (size the switch for the configured write operating point).

``[array]``
    ``n_bits`` (4), ``m_words`` (4), at most 2^20 cells between them;
    ``balanced`` (true), ``line_resistance`` (0.0) in ohms per segment.

``[drive]``
    ``v_dd`` (1.2), ``v_read`` (0.3), ``write_overdrive`` (1.3),
    ``setup_time_s`` (1e-10), ``c_load_f`` (3e-13).

``[architecture]``
    per-column and per-word periphery areas in F^2: ``a_sense_f2`` (40),
    ``a_write_f2`` (112), ``a_select_f2`` (112); ``f_feature_nm`` (65),
    ``f_memory_nm`` (40), ``f_data_hz`` (1e8).

``[operation]``
    ``scenario``: ``demo`` | ``write`` | ``read`` | ``sweep``;
    ``word_addr`` (0); ``data``: a bit string or ``random``; ``mode``:
    ``parallel`` | ``serial`` | ``self_enable_serial`` |
    ``self_enable_parallel``; ``sweep_n_bits`` and ``sweep_m_words``:
    comma-separated integers, ``a..b`` inclusive ranges allowed, at most
    4096 entries each and 4096 points in their grid.

``parse_config`` fully validates the scenario, including the device and
drive invariants of the underlying models, before anything is simulated.
``serialize_config`` emits a canonical INI rendering such that
``parse_config(serialize_config(cfg)) == cfg`` exactly (floats are
written with ``repr`` precision).
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass

from .array import CrossbarArray, _checked_models
from .device import MtjParams, SwitchingParams, TransistorModel, _write_current
from .errors import ConfigError, ParameterError
from .ops import DriveConfig, WriteMode
from .perf import ArchitectureConfig


# -- value converters --------------------------------------------------------


def _float(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _int(raw):
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _float_or(*words):
    """A number, or one of the sentinel ``words``."""

    def convert(raw):
        lowered = raw.strip().lower()
        return lowered if lowered in words else _float(raw)

    return convert


def _one_of(names, make=str):
    """One of ``names``, passed to ``make``."""

    def convert(raw):
        lowered = raw.strip().lower()
        if lowered not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {raw!r}")
        return make(lowered)

    return convert


def _data(raw):
    stripped = raw.strip()
    if stripped.lower() == "random":
        return "random"
    if not stripped or any(ch not in "01" for ch in stripped):
        raise ValueError(f"expected a bit string or 'random', got {raw!r}")
    return stripped


_SWEEP_CAP = 4096  # entries per sweep list and points per sweep grid
_CELL_CAP = 1 << 20  # data cells of one array, n_bits x m_words


def _int_list(raw):
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = _int(lo_s), _int(hi_s)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
        else:
            lo = hi = _int(part)
        # sized from the bounds, so an oversized range is never built
        if len(out) + hi - lo + 1 > _SWEEP_CAP:
            raise ValueError(f"more than {_SWEEP_CAP} entries")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"expected at least one integer, got {raw!r}")
    return tuple(out)


# -- single-key range checks -------------------------------------------------


def _check(test, problem):
    """Range check of one value; sentinel strings such as ``auto`` are exempt."""
    return lambda value: None if isinstance(value, str) or test(value) else problem


_positive = _check(lambda v: v > 0.0, "must be positive")
_non_negative = _check(lambda v: v >= 0.0, "must be non-negative")
_at_least_1 = _check(lambda v: v >= 1, "must be at least 1")
_entries_at_least_1 = _check(lambda v: min(v) >= 1, "entries must be at least 1")


def _key(default, parse=_float, check=None):
    """A section field: the key's default, INI converter and range check."""
    return dataclasses.field(default=default, metadata={"parse": parse, "check": check})


# -- sections ----------------------------------------------------------------


@dataclass(frozen=True)
class DeviceSection:
    tmr: float = _key(MtjParams.tmr, check=_non_negative)
    surface_nm2: float = _key(MtjParams.surface_nm2, check=_positive)
    ra_ohm_um2: float = _key(MtjParams.ra_ohm_um2, check=_positive)
    jc0_a_cm2: float = _key(MtjParams.jc0_a_cm2, check=_positive)


@dataclass(frozen=True)
class DynamicsSection:
    xi: float = _key(SwitchingParams.xi, check=_positive)
    polarization: float = _key(
        SwitchingParams.polarization,
        check=_check(lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
    )
    moment_a_m2: float = _key(SwitchingParams.moment_a_m2, check=_positive)
    rate_per_amp: float | str = _key("auto", _float_or("auto", "physics"), _positive)


@dataclass(frozen=True)
class TransistorSection:
    r_on: float | str = _key("auto", _float_or("auto"), _positive)
    r_off: float | str = _key("auto", _float_or("auto"), _positive)
    i_sat: float | str = _key("auto", _float_or("auto"), _positive)


@dataclass(frozen=True)
class ArraySection:
    n_bits: int = _key(4, _int, _at_least_1)
    m_words: int = _key(4, _int, _at_least_1)
    balanced: bool = _key(True, _bool)
    line_resistance: float = _key(0.0, check=_non_negative)


@dataclass(frozen=True)
class DriveSection:
    v_dd: float = _key(1.2, check=_positive)
    v_read: float = _key(DriveConfig.v_read, check=_positive)
    write_overdrive: float = _key(1.3, check=_positive)
    setup_time_s: float = _key(DriveConfig.setup_time_s, check=_non_negative)
    c_load_f: float = _key(DriveConfig.c_load_f, check=_positive)


@dataclass(frozen=True)
class ArchitectureSection:
    a_sense_f2: float = _key(ArchitectureConfig.a_sense_f2, check=_positive)
    a_write_f2: float = _key(ArchitectureConfig.a_write_f2, check=_positive)
    a_select_f2: float = _key(ArchitectureConfig.a_select_f2, check=_positive)
    f_feature_nm: float = _key(ArchitectureConfig.f_feature_nm, check=_positive)
    f_memory_nm: float = _key(ArchitectureConfig.f_memory_nm, check=_positive)
    f_data_hz: float = _key(ArchitectureConfig.f_data_hz, check=_positive)


@dataclass(frozen=True)
class OperationSection:
    scenario: str = _key("demo", _one_of(("demo", "write", "read", "sweep")))
    word_addr: int = _key(0, _int)
    data: str = _key("1111", _data)
    mode: WriteMode = _key(
        WriteMode.PARALLEL, _one_of(tuple(m.value for m in WriteMode), WriteMode)
    )
    sweep_n_bits: tuple = _key((2, 4, 8, 16, 32, 64), _int_list, _entries_at_least_1)
    sweep_m_words: tuple = _key((1024,), _int_list, _entries_at_least_1)


@dataclass(frozen=True)
class ScenarioConfig:
    device: DeviceSection = dataclasses.field(default_factory=DeviceSection)
    dynamics: DynamicsSection = dataclasses.field(default_factory=DynamicsSection)
    transistor: TransistorSection = dataclasses.field(
        default_factory=TransistorSection
    )
    array: ArraySection = dataclasses.field(default_factory=ArraySection)
    drive: DriveSection = dataclasses.field(default_factory=DriveSection)
    architecture: ArchitectureSection = dataclasses.field(
        default_factory=ArchitectureSection
    )
    operation: OperationSection = dataclasses.field(default_factory=OperationSection)


def default_config():
    """The scenario an empty file describes."""
    return ScenarioConfig()


_SECTION_TYPES = {f.name: f.default_factory for f in dataclasses.fields(ScenarioConfig)}
_SCHEMA = {
    section: {f.name: f.metadata.get("parse", _float) for f in dataclasses.fields(cls)}
    for section, cls in _SECTION_TYPES.items()
}


def parse_config(text):
    """Parse and fully validate a scenario description.

    Raises :class:`ConfigError` carrying the complete list of problems;
    each entry names the ``section.key`` (or the input line) involved.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([str(exc).replace("\n", " ")]) from None

    errors = []
    values = {}
    if parser.defaults():
        errors.append("DEFAULT: top-level keys outside a section are not allowed")
    for section in parser.sections():
        schema = _SCHEMA.get(section)
        if schema is None:
            errors.append(f"{section}: unknown section")
            continue
        for key, raw in parser.items(section):
            convert = schema.get(key)
            if convert is None:
                errors.append(f"{section}.{key}: unknown key")
                continue
            try:
                values.setdefault(section, {})[key] = convert(raw)
            except ValueError as exc:
                errors.append(f"{section}.{key}: {exc}")

    sections, flagged = {}, set()
    for name, cls in _SECTION_TYPES.items():
        section = cls(**values.get(name, {}))
        for field in dataclasses.fields(section):
            check = field.metadata.get("check")
            problem = check and check(getattr(section, field.name))
            if problem:
                errors.append(f"{name}.{field.name}: {problem}")
                flagged.add(name)
        sections[name] = section
    cfg = ScenarioConfig(**sections)
    errors.extend(_cross_validate(cfg, flagged))
    if errors:
        raise ConfigError(errors)
    return cfg


def _cross_validate(cfg, flagged):
    """Checks that span keys; ``flagged`` names the sections with a range problem."""
    errors = []
    arr, tr, op = cfg.array, cfg.transistor, cfg.operation
    if arr.balanced and arr.m_words >= 1 and arr.m_words % 2 != 0:
        errors.append("array.m_words: the balanced layout needs an even word count")
    if arr.n_bits * arr.m_words > _CELL_CAP:
        errors.append(f"array.m_words: more than {_CELL_CAP} cells with n_bits")
    if all(isinstance(r, float) for r in (tr.r_on, tr.r_off)) and tr.r_off <= tr.r_on:
        errors.append("transistor.r_off: must exceed r_on")
    # the derived models can fail (a 0 ohm junction, no voltage headroom at the
    # requested operating point, a threshold current the rate fit cannot use, a
    # switch or wire the array cannot resolve): surface that at parse time, but
    # only for a device, array, drive and switch that are otherwise valid, so
    # that one bad value is not reported twice; no array is built
    if not errors and flagged.isdisjoint(
        ("device", "array", "drive", "architecture", "dynamics", "transistor")
    ):
        section = "device"
        try:
            if not _write_current(build_device(cfg), cfg.drive.write_overdrive) > 0.0:
                section = "drive"  # refused before a switch is sized for it
                raise ParameterError(f"write_overdrive: no write current: "
                                     f"{cfg.drive.write_overdrive:g}x threshold is 0 A")
            for section, build in (("transistor", build_transistor), ("dynamics", build_dynamics)):
                build(cfg)
            section = None  # the array's refusals name their own keys
            _checked_models(build_device(cfg), build_transistor(cfg), arr.n_bits, arr.balanced,
                            arr.line_resistance)
        except ParameterError as exc:
            errors.append(f"{section}.{exc}" if section else str(exc))

    if len(op.sweep_n_bits) * len(op.sweep_m_words) > _SWEEP_CAP:
        errors.append(
            f"operation.sweep_m_words: more than {_SWEEP_CAP} sweep points with sweep_n_bits"
        )
    if op.word_addr < 0 or (arr.m_words >= 1 and op.word_addr >= arr.m_words):
        errors.append(
            f"operation.word_addr: must be in [0, {arr.m_words}) "
            f"for the configured array"
        )
    if (
        op.scenario == "write"
        and op.data != "random"
        and arr.n_bits >= 1
        and len(op.data) != arr.n_bits
    ):
        errors.append(
            f"operation.data: expected {arr.n_bits} bits for the "
            f"configured array, got {len(op.data)}"
        )
    return errors


# -- canonical serialization -------------------------------------------------


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, WriteMode):
        return value.value
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def serialize_config(cfg):
    """Canonical INI rendering; parsing it back reproduces ``cfg`` exactly."""
    out = io.StringIO()
    for section, schema in _SCHEMA.items():
        holder = getattr(cfg, section)
        out.write(f"[{section}]\n")
        for key in schema:
            out.write(f"{key} = {_format_value(getattr(holder, key))}\n")
        out.write("\n")
    return out.getvalue()


# -- builders: config -> model objects ---------------------------------------


def build_device(cfg):
    """The junction the ``[device]`` section describes."""
    return MtjParams(**dataclasses.asdict(cfg.device))


def build_dynamics(cfg):
    """Materialize the switching-rate model the config describes."""
    dyn = cfg.dynamics
    if dyn.rate_per_amp == "auto":
        rate = SwitchingParams.lumped_fit(build_device(cfg)).rate_per_amp
    elif dyn.rate_per_amp == "physics":
        rate = None
    else:
        rate = dyn.rate_per_amp
    return SwitchingParams(
        xi=dyn.xi,
        polarization=dyn.polarization,
        moment_a_m2=dyn.moment_a_m2,
        rate_per_amp=rate,
    )


def build_transistor(cfg):
    """The cell's access switch: the keys the file sets, the ``auto`` ones
    sized for the drive point by :meth:`TransistorModel.default_for`."""
    fixed = {k: v for k, v in dataclasses.asdict(cfg.transistor).items() if v != "auto"}
    return TransistorModel.default_for(
        build_device(cfg), v_dd=cfg.drive.v_dd, overdrive=cfg.drive.write_overdrive, **fixed
    )


def build_array(cfg):
    """Construct the configured crossbar in its all-parallel initial state."""
    return CrossbarArray(
        cfg.array.n_bits,
        cfg.array.m_words,
        params=build_device(cfg),
        dynamics=build_dynamics(cfg),
        transistor=build_transistor(cfg),
        balanced=cfg.array.balanced,
        line_resistance=cfg.array.line_resistance,
        v_dd=cfg.drive.v_dd,
        write_overdrive=cfg.drive.write_overdrive,
    )


def build_drive(cfg):
    return DriveConfig(
        v_read=cfg.drive.v_read,
        setup_time_s=cfg.drive.setup_time_s,
        c_load_f=cfg.drive.c_load_f,
    )


def build_architecture(cfg):
    """Periphery model for the configured array shape."""
    return ArchitectureConfig(
        n_bits=cfg.array.n_bits,
        m_words=cfg.array.m_words,
        balanced=cfg.array.balanced,
        v_dd=cfg.drive.v_dd,
        **dataclasses.asdict(cfg.architecture),
    )
