"""Scenario configuration.

A scenario is described by a plain INI file (the :mod:`configparser`
dialect: ``[section]`` headers, ``key = value`` pairs, ``#`` or ``;``
comments). Every section and every key is optional; an empty file gives
the default 4x4 demonstration scenario. Unknown sections or keys are
rejected, and validation reports *all* problems at once, each one naming
the offending ``section.key``.

Sections and keys, with defaults:

``[device]``
    ``tmr`` (1.5), ``surface_nm2`` (65 nm circular pillar), ``tox_nm``
    (0.85), ``ra_ohm_um2`` (10.0), ``jc0_a_cm2`` (5.7e6), ``barrier_ev``
    (1.0).

``[dynamics]``
    ``xi`` (40.0), ``polarization`` (0.62), ``moment_a_m2``,
    ``rate_per_amp``: a number, ``auto`` (calibrate so 1.3x threshold
    switches in 10 ns) or ``physics`` (derive the rate from xi,
    polarization and moment).

``[transistor]``
    ``r_on``, ``r_off``, ``i_sat``: numbers or ``auto`` (size the switch
    for the configured write operating point).

``[array]``
    ``n_bits`` (4), ``m_words`` (4), ``balanced`` (true),
    ``line_resistance`` (0.0) in ohms per segment.

``[drive]``
    ``v_dd`` (1.2), ``v_read`` (0.3), ``write_overdrive`` (1.3),
    ``setup_time_s`` (1e-10), ``sample_dt_s`` (5e-10), ``c_load_f``
    (3e-13).

``[architecture]``
    per-column and per-word periphery areas in F^2: ``a_sense_f2`` (40),
    ``a_write_f2`` (112), ``a_select_f2`` (112); ``f_feature_nm`` (65),
    ``f_memory_nm`` (40), ``f_data_hz`` (1e8).

``[operation]``
    ``scenario``: ``demo`` | ``write`` | ``read`` | ``sweep``;
    ``word_addr`` (0); ``data``: a bit string or ``random``; ``mode``:
    ``parallel`` | ``serial`` | ``self_enable_serial`` |
    ``self_enable_parallel``; ``sweep_n_bits`` and ``sweep_m_words``:
    comma-separated integers, ``a..b`` inclusive ranges allowed.

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

from .array import CrossbarArray
from .device import MtjParams, SwitchingParams, TransistorModel
from .errors import ConfigError, ParameterError
from .ops import DriveConfig, WriteMode
from .perf import ArchitectureConfig

_SCENARIOS = ("demo", "write", "read", "sweep")


@dataclass(frozen=True)
class DynamicsSection:
    xi: float = 40.0
    polarization: float = 0.62
    moment_a_m2: float = 456e3 * (math.pi / 4.0 * 65.0**2 * 1e-18) * 1.3e-9
    rate_per_amp: float | str = "auto"


@dataclass(frozen=True)
class TransistorSection:
    r_on: float | str = "auto"
    r_off: float | str = "auto"
    i_sat: float | str = "auto"


@dataclass(frozen=True)
class ArraySection:
    n_bits: int = 4
    m_words: int = 4
    balanced: bool = True
    line_resistance: float = 0.0


@dataclass(frozen=True)
class DriveSection:
    v_dd: float = 1.2
    v_read: float = 0.3
    write_overdrive: float = 1.3
    setup_time_s: float = 1e-10
    sample_dt_s: float = 5e-10
    c_load_f: float = 300e-15


@dataclass(frozen=True)
class ArchitectureSection:
    a_sense_f2: float = 40.0
    a_write_f2: float = 112.0
    a_select_f2: float = 112.0
    f_feature_nm: float = 65.0
    f_memory_nm: float = 40.0
    f_data_hz: float = 100e6


@dataclass(frozen=True)
class OperationSection:
    scenario: str = "demo"
    word_addr: int = 0
    data: str = "1111"
    mode: WriteMode = WriteMode.PARALLEL
    sweep_n_bits: tuple = (2, 4, 8, 16, 32, 64)
    sweep_m_words: tuple = (1024,)


@dataclass(frozen=True)
class ScenarioConfig:
    device: MtjParams = dataclasses.field(default_factory=MtjParams)
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


def _rate(raw):
    lowered = raw.strip().lower()
    if lowered in ("auto", "physics"):
        return lowered
    return _float(raw)


def _auto_float(raw):
    lowered = raw.strip().lower()
    if lowered == "auto":
        return "auto"
    return _float(raw)


def _scenario(raw):
    lowered = raw.strip().lower()
    if lowered not in _SCENARIOS:
        raise ValueError(
            f"expected one of {', '.join(_SCENARIOS)}, got {raw!r}"
        )
    return lowered


def _data(raw):
    stripped = raw.strip()
    if stripped.lower() == "random":
        return "random"
    if not stripped or any(ch not in "01" for ch in stripped):
        raise ValueError(f"expected a bit string or 'random', got {raw!r}")
    return stripped


def _mode(raw):
    try:
        return WriteMode(raw.strip().lower())
    except ValueError:
        valid = ", ".join(m.value for m in WriteMode)
        raise ValueError(f"expected one of {valid}, got {raw!r}") from None


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
            out.extend(range(lo, hi + 1))
        else:
            out.append(_int(part))
    if not out:
        raise ValueError(f"expected at least one integer, got {raw!r}")
    return tuple(out)


_SCHEMA = {
    "device": {
        "tmr": _float,
        "surface_nm2": _float,
        "tox_nm": _float,
        "ra_ohm_um2": _float,
        "jc0_a_cm2": _float,
        "barrier_ev": _float,
    },
    "dynamics": {
        "xi": _float,
        "polarization": _float,
        "moment_a_m2": _float,
        "rate_per_amp": _rate,
    },
    "transistor": {"r_on": _auto_float, "r_off": _auto_float, "i_sat": _auto_float},
    "array": {
        "n_bits": _int,
        "m_words": _int,
        "balanced": _bool,
        "line_resistance": _float,
    },
    "drive": {
        "v_dd": _float,
        "v_read": _float,
        "write_overdrive": _float,
        "setup_time_s": _float,
        "sample_dt_s": _float,
        "c_load_f": _float,
    },
    "architecture": {
        "a_sense_f2": _float,
        "a_write_f2": _float,
        "a_select_f2": _float,
        "f_feature_nm": _float,
        "f_memory_nm": _float,
        "f_data_hz": _float,
    },
    "operation": {
        "scenario": _scenario,
        "word_addr": _int,
        "data": _data,
        "mode": _mode,
        "sweep_n_bits": _int_list,
        "sweep_m_words": _int_list,
    },
}

_SECTION_TYPES = {
    "device": MtjParams,
    "dynamics": DynamicsSection,
    "transistor": TransistorSection,
    "array": ArraySection,
    "drive": DriveSection,
    "architecture": ArchitectureSection,
    "operation": OperationSection,
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

    sections = {}
    for name, cls in _SECTION_TYPES.items():
        try:
            sections[name] = cls(**values.get(name, {}))
        except ParameterError as exc:
            errors.append(f"{name}.{exc}")
            sections[name] = None

    # a failed section falls back to defaults so the cross-field checks can
    # still inspect everything else; the config is only returned error-free
    cfg = ScenarioConfig(
        **{
            name: section if section is not None else cls()
            for (name, cls), section in zip(
                _SECTION_TYPES.items(), sections.values()
            )
        }
    )
    errors.extend(_cross_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _positive(errors, section, mapping):
    for key, value in mapping.items():
        if not value > 0.0:
            errors.append(f"{section}.{key}: must be positive")


def _cross_validate(cfg):
    """Range and consistency checks spanning more than one key."""
    errors = []
    arr, drv, op = cfg.array, cfg.drive, cfg.operation

    if arr.n_bits < 1:
        errors.append("array.n_bits: must be at least 1")
    if arr.m_words < 1:
        errors.append("array.m_words: must be at least 1")
    elif arr.balanced and arr.m_words % 2 != 0:
        errors.append(
            "array.m_words: the balanced layout needs an even word count"
        )
    if arr.line_resistance < 0.0:
        errors.append("array.line_resistance: must be non-negative")

    _positive(
        errors,
        "drive",
        {
            "v_dd": drv.v_dd,
            "v_read": drv.v_read,
            "write_overdrive": drv.write_overdrive,
            "sample_dt_s": drv.sample_dt_s,
            "c_load_f": drv.c_load_f,
        },
    )
    if drv.setup_time_s < 0.0:
        errors.append("drive.setup_time_s: must be non-negative")

    _positive(
        errors,
        "architecture",
        {k: getattr(cfg.architecture, k) for k in _SCHEMA["architecture"]},
    )

    dyn = cfg.dynamics
    if not dyn.xi > 0.0:
        errors.append("dynamics.xi: must be positive")
    if not 0.0 < dyn.polarization < 1.0:
        errors.append("dynamics.polarization: must be in (0, 1)")
    if not dyn.moment_a_m2 > 0.0:
        errors.append("dynamics.moment_a_m2: must be positive")
    if isinstance(dyn.rate_per_amp, float) and not dyn.rate_per_amp > 0.0:
        errors.append("dynamics.rate_per_amp: must be positive")

    tr = cfg.transistor
    for key in ("r_on", "r_off", "i_sat"):
        value = getattr(tr, key)
        if isinstance(value, float) and not value > 0.0:
            errors.append(f"transistor.{key}: must be positive")
    if (
        isinstance(tr.r_on, float)
        and isinstance(tr.r_off, float)
        and tr.r_off <= tr.r_on
    ):
        errors.append("transistor.r_off: must exceed r_on")
    if not errors:
        # the derived switch sizing can fail (no voltage headroom at the
        # requested operating point), surface that at parse time
        try:
            if build_transistor(cfg) is None:
                TransistorModel.default_for(
                    cfg.device, v_dd=drv.v_dd, overdrive=drv.write_overdrive
                )
        except ParameterError as exc:
            errors.append(f"transistor.{exc}")

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
    for key in ("sweep_n_bits", "sweep_m_words"):
        if any(v < 1 for v in getattr(op, key)):
            errors.append(f"operation.{key}: entries must be at least 1")
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


def build_dynamics(cfg):
    """Materialize the switching-rate model the config describes."""
    dyn = cfg.dynamics
    if dyn.rate_per_amp == "auto":
        rate = SwitchingParams.lumped_fit(cfg.device).rate_per_amp
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
    """Access switch model, or None when fully derived from the drive point."""
    tr = cfg.transistor
    explicit = {
        key: getattr(tr, key)
        for key in ("r_on", "r_off", "i_sat")
        if not isinstance(getattr(tr, key), str)
    }
    if not explicit:
        return None
    if len(explicit) < 3:
        base = TransistorModel.default_for(
            cfg.device, v_dd=cfg.drive.v_dd, overdrive=cfg.drive.write_overdrive
        )
        filled = {
            key: explicit.get(key, getattr(base, key))
            for key in ("r_on", "r_off", "i_sat")
        }
    else:
        filled = explicit
    return TransistorModel(**filled)


def build_array(cfg):
    """Construct the configured crossbar in its all-parallel initial state."""
    return CrossbarArray(
        cfg.array.n_bits,
        cfg.array.m_words,
        params=cfg.device,
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
        sample_dt_s=cfg.drive.sample_dt_s,
        c_load_f=cfg.drive.c_load_f,
    )


def build_architecture(cfg, n_bits=None, m_words=None):
    """Periphery model for the configured (or an overridden) array shape."""
    arch = cfg.architecture
    return ArchitectureConfig(
        n_bits=cfg.array.n_bits if n_bits is None else n_bits,
        m_words=cfg.array.m_words if m_words is None else m_words,
        a_sense_f2=arch.a_sense_f2,
        a_write_f2=arch.a_write_f2,
        a_select_f2=arch.a_select_f2,
        f_feature_nm=arch.f_feature_nm,
        f_memory_nm=arch.f_memory_nm,
        v_dd=cfg.drive.v_dd,
        f_data_hz=arch.f_data_hz,
    )
