"""Scenario file parsing, validation, and canonical serialization."""

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpointsim.array import CrossbarArray
from xpointsim.config import (
    ArchitectureSection,
    ArraySection,
    DriveSection,
    DynamicsSection,
    OperationSection,
    ScenarioConfig,
    TransistorSection,
    _SCHEMA,
    _auto_float,
    _float,
    _format_value,
    _int_list,
    _rate,
    build_architecture,
    build_array,
    build_drive,
    build_dynamics,
    build_transistor,
    default_config,
    parse_config,
    serialize_config,
)
from xpointsim.device import MtjParams, SwitchingParams, TransistorModel
from xpointsim.errors import ConfigError, ParameterError
from xpointsim.ops import DriveConfig, WriteMode
from xpointsim.perf import ArchitectureConfig, cell_area


def errors_of(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.errors


# -- defaults and round trip -------------------------------------------------


def test_empty_file_gives_defaults():
    cfg = parse_config("")
    assert cfg == default_config()
    assert cfg.device == MtjParams()
    assert cfg.array == ArraySection()
    assert cfg.operation.scenario == "demo"


def test_comments_and_inline_comments_are_ignored():
    cfg = parse_config(
        "# leading comment\n"
        "[array]\n"
        "n_bits = 8   ; trailing note\n"
        "m_words = 16 # another\n"
    )
    assert cfg.array.n_bits == 8
    assert cfg.array.m_words == 16


def test_default_round_trip_is_exact():
    cfg = default_config()
    assert parse_config(serialize_config(cfg)) == cfg


def test_customized_round_trip_is_exact():
    cfg = ScenarioConfig(
        device=MtjParams(tmr=1.1, surface_nm2=3000.0, ra_ohm_um2=12.5),
        dynamics=DynamicsSection(xi=55.0, rate_per_amp=6.25e8),
        transistor=TransistorSection(r_on=1500.0, r_off=2e9, i_sat=6e-4),
        array=ArraySection(n_bits=6, m_words=8, balanced=True, line_resistance=2.5),
        drive=DriveSection(v_dd=1.1, v_read=0.25, write_overdrive=1.2),
        architecture=ArchitectureSection(a_select_f2=405.0, f_data_hz=2e8),
        operation=OperationSection(
            scenario="write",
            word_addr=5,
            data="101010",
            mode=WriteMode.SELF_ENABLE_SERIAL,
            sweep_n_bits=(2, 3, 4),
            sweep_m_words=(16, 1024),
        ),
    )
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    # serializing again is byte-stable
    assert serialize_config(parse_config(text)) == text


@settings(max_examples=40, deadline=None)
@given(
    tmr=st.floats(0.5, 4.0, allow_nan=False),
    surface=st.floats(1e3, 1e4),
    v_read=st.floats(0.05, 0.5),
    overdrive=st.floats(1.05, 2.0),
    line_r=st.floats(0.0, 50.0),
    n_bits=st.integers(1, 8),
    rate=st.one_of(st.just("auto"), st.just("physics"), st.floats(1e6, 1e12)),
)
def test_round_trip_property(tmr, surface, v_read, overdrive, line_r, n_bits, rate):
    cfg = ScenarioConfig(
        device=MtjParams(tmr=tmr, surface_nm2=surface),
        dynamics=DynamicsSection(rate_per_amp=rate),
        array=ArraySection(n_bits=n_bits, m_words=4, line_resistance=line_r),
        drive=DriveSection(v_read=v_read, write_overdrive=overdrive),
        operation=OperationSection(data="1" * n_bits, scenario="write"),
    )
    assert parse_config(serialize_config(cfg)) == cfg


_KEYS = [(section, key) for section, schema in _SCHEMA.items() for key in schema]
_KNOWN = {f"{section}.{key}" for section, key in _KEYS} | set(_SCHEMA) | {"DEFAULT"}
_JUNK = st.one_of(
    st.sampled_from(["auto", "physics", "random", "true", "off", "demo", "serial", ""]),
    st.text("01aex.,-+ ", max_size=6),
)


def _wild_value(section, key, default):
    """INI text for one key: a rescaled default, any number, sentinel or junk."""
    if key in ("n_bits", "m_words"):  # arrays stay at 8x8 or smaller
        return st.one_of(
            st.integers(-2, 8).map(str), st.sampled_from(["", "x", "1.5", "nan", "auto"])
        )
    if _SCHEMA[section][key] is _int_list:
        ints = st.lists(st.integers(-2, 9), max_size=3)
        return st.one_of(ints.map(lambda v: ",".join(map(str, v))), _JUNK)
    extremes = st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e300, 1.8e308])
    values = [
        st.floats().map(repr), extremes.map(repr), st.integers(-10, 10).map(str), _JUNK
    ]
    if isinstance(default, float):
        values.append(st.integers(-6, 6).map(lambda k: repr(default * 10.0**k)))
    return st.one_of(values)


@st.composite
def _scenario_texts(draw):
    # every key is written; most keep their default, so many draws parse
    wild = draw(st.sets(st.sampled_from(_KEYS), max_size=3))
    defaults = default_config()
    text = ""
    for section, schema in _SCHEMA.items():
        text += f"[{section}]\n"
        for key in schema:
            default = getattr(getattr(defaults, section), key)
            value = _format_value(default)
            if (section, key) in wild:
                value = draw(_wild_value(section, key, default))
            text += f"{key} = {value}\n"
    return text


@settings(max_examples=300, deadline=None)
@given(text=_scenario_texts())
def test_every_key_declaration_rejects_by_name_or_builds(text):
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for entry in exc.errors:
            assert entry.split(":")[0] in _KNOWN, entry
        return
    build_dynamics(cfg)
    build_transistor(cfg)
    build_drive(cfg)
    build_architecture(cfg)
    try:
        build_array(cfg)
    except ParameterError as exc:
        # checks only the compiled array makes: a line resistance the
        # solver cannot resolve, or a word selector or reference cell whose
        # derived value underflows
        allowed = (
            "line_resistance:", "r_on: must be positive", "surface_nm2: must be positive"
        )
        assert str(exc).startswith(allowed), exc
    assert parse_config(serialize_config(cfg)) == cfg


def test_section_defaults_are_the_models_defaults():
    cfg = default_config()
    assert build_drive(cfg) == DriveConfig()
    assert build_dynamics(cfg) == SwitchingParams.lumped_fit(cfg.device)
    assert build_architecture(
        cfg, n_bits=ArchitectureConfig.n_bits, m_words=ArchitectureConfig.m_words
    ) == ArchitectureConfig()
    array_defaults = inspect.signature(CrossbarArray).parameters
    for section, key in (
        ("drive", "v_dd"),
        ("drive", "write_overdrive"),
        ("array", "balanced"),
        ("array", "line_resistance"),
    ):
        assert getattr(getattr(cfg, section), key) == array_defaults[key].default, key


@pytest.mark.parametrize(
    "text, first",
    [
        ("[device]\nsurface_nm2 = 5e-324\n", "transistor.r_on: "),
        ("[drive]\nwrite_overdrive = 5e-324\n", "transistor.r_on: "),
        (
            "[device]\nsurface_nm2 = 1e-310\n"
            "[transistor]\nr_on = 1000\nr_off = 1e9\ni_sat = 1e-3\n",
            "dynamics.rate_per_amp: ",
        ),
    ],
)
def test_underflowing_write_current_is_a_config_error(text, first):
    # the write current, or the product the rate fit divides by, is 0
    (err,) = errors_of(text)
    assert err.startswith(first)


# -- error collection --------------------------------------------------------


def test_all_errors_reported_at_once():
    errs = errors_of(
        "[device]\n"
        "tmr = -0.5\n"
        "bogus = 1\n"
        "[nope]\n"
        "x = 2\n"
        "[drive]\n"
        "v_read = hello\n"
    )
    assert len(errs) == 4
    assert any(e.startswith("device.tmr:") for e in errs)
    assert any(e.startswith("device.bogus:") and "unknown key" in e for e in errs)
    assert any(e.startswith("nope:") and "unknown section" in e for e in errs)
    assert any(e.startswith("drive.v_read:") and "number" in e for e in errs)


_FLOAT_KEYS = [
    f"{section}.{key}"
    for section, schema in _SCHEMA.items()
    for key, convert in schema.items()
    if convert in (_float, _rate, _auto_float)
]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", _FLOAT_KEYS)
def test_non_finite_numbers_are_rejected(name, raw):
    section, key = name.split(".")
    errs = errors_of(f"[{section}]\n{key} = {raw}\n")
    assert f"{name}: expected a finite number, got {raw!r}" in errs


def test_keys_before_any_section_are_rejected():
    with pytest.raises(ConfigError):
        parse_config("tmr = 1.5\n[device]\n")


def test_default_section_is_rejected():
    errs = errors_of("[DEFAULT]\nv_dd = 1.0\n")
    assert any("DEFAULT" in e for e in errs)


def test_duplicate_key_is_a_parse_error():
    with pytest.raises(ConfigError):
        parse_config("[array]\nn_bits = 4\nn_bits = 8\n")


def test_bad_enum_values_name_the_field():
    errs = errors_of("[operation]\nscenario = fly\nmode = sideways\n")
    assert any(e.startswith("operation.scenario:") for e in errs)
    assert any(e.startswith("operation.mode:") and "parallel" in e for e in errs)


def test_bad_bit_string_named():
    errs = errors_of("[operation]\ndata = 10x1\n")
    assert errs == ["operation.data: expected a bit string or 'random', got '10x1'"]


# -- cross-field validation --------------------------------------------------


def test_balanced_layout_needs_even_word_count():
    errs = errors_of("[array]\nm_words = 5\n")
    assert any(e.startswith("array.m_words:") and "even" in e for e in errs)
    cfg = parse_config("[array]\nm_words = 5\nbalanced = false\n")
    assert cfg.array.m_words == 5


def test_word_addr_must_address_the_array():
    errs = errors_of("[operation]\nword_addr = 4\n")
    assert any(e.startswith("operation.word_addr:") for e in errs)


def test_write_data_width_must_match_array():
    errs = errors_of("[operation]\nscenario = write\ndata = 10\n")
    assert any(e.startswith("operation.data:") and "4 bits" in e for e in errs)
    # the demo scenario supplies its own pattern, so width is not checked
    parse_config("[array]\nn_bits = 8\nm_words = 4\n")


def test_random_data_is_accepted_for_writes():
    cfg = parse_config("[operation]\nscenario = write\ndata = random\n")
    assert cfg.operation.data == "random"


def test_sweep_lists_reject_nonpositive_entries():
    errs = errors_of("[operation]\nsweep_n_bits = 0,4\n")
    assert any(e.startswith("operation.sweep_n_bits:") for e in errs)
    errs = errors_of("[operation]\nsweep_m_words = 16,-1\n")
    assert errs == ["operation.sweep_m_words: entries must be at least 1"]


def test_sweep_range_syntax():
    cfg = parse_config("[operation]\nsweep_n_bits = 2..5\nsweep_m_words = 1,4..6\n")
    assert cfg.operation.sweep_n_bits == (2, 3, 4, 5)
    assert cfg.operation.sweep_m_words == (1, 4, 5, 6)
    errs = errors_of("[operation]\nsweep_n_bits = 5..2\n")
    assert any("empty range" in e for e in errs)


def test_polarization_range_checked():
    errs = errors_of("[dynamics]\npolarization = 1.5\n")
    assert errs == ["dynamics.polarization: must be in (0, 1)"]


def test_transistor_ordering_checked():
    errs = errors_of("[transistor]\nr_on = 100.0\nr_off = 50.0\ni_sat = 1e-3\n")
    assert any(e.startswith("transistor.r_off:") for e in errs)


def test_infeasible_drive_point_caught_at_parse_time():
    # 3x threshold through the junction needs more than 1.2 V
    errs = errors_of("[drive]\nwrite_overdrive = 3.0\n")
    assert any(e.startswith("transistor.r_on:") for e in errs)


# -- builders ----------------------------------------------------------------


def test_build_array_applies_dimensions_and_drive():
    cfg = parse_config(
        "[array]\nn_bits = 2\nm_words = 6\n"
        "[drive]\nwrite_overdrive = 1.5\n"
        "[operation]\ndata = 11\nword_addr = 5\n"
    )
    arr = build_array(cfg)
    assert (arr.n_bits, arr.m_words) == (2, 6)
    assert arr.write_current == pytest.approx(
        1.5 * 1.3 ** -1 * 2.458865665102477e-4, rel=1e-12
    )


def test_build_drive_maps_fields():
    cfg = parse_config("[drive]\nv_read = 0.2\nc_load_f = 1e-13\n")
    drive = build_drive(cfg)
    assert drive.v_read == 0.2
    assert drive.c_load_f == 1e-13
    assert drive.setup_time_s == 1e-10


def test_build_dynamics_sentinels():
    cfg = default_config()
    auto = build_dynamics(cfg)
    assert auto.rate_per_amp == SwitchingParams.lumped_fit(cfg.device).rate_per_amp

    phys = build_dynamics(
        dataclasses.replace(
            cfg, dynamics=DynamicsSection(rate_per_amp="physics")
        )
    )
    assert phys.rate_per_amp is None
    assert phys.rate() > 0.0

    fixed = build_dynamics(
        dataclasses.replace(cfg, dynamics=DynamicsSection(rate_per_amp=2e9))
    )
    assert fixed.rate() == 2e9


def test_build_transistor_sentinels():
    assert build_transistor(default_config()) is None

    cfg = parse_config("[transistor]\nr_on = 1000.0\nr_off = 1e9\ni_sat = 1e-3\n")
    assert build_transistor(cfg) == TransistorModel(1000.0, 1e9, 1e-3)

    partial = parse_config("[transistor]\nr_off = 5e8\n")
    built = build_transistor(partial)
    base = TransistorModel.default_for(partial.device)
    assert built.r_off == 5e8
    assert built.r_on == base.r_on
    assert built.i_sat == base.i_sat


def test_build_architecture_cross_module_consistency():
    cfg = default_config()
    arch = build_architecture(cfg, n_bits=4, m_words=1024)
    assert cell_area(arch) == pytest.approx(28.203125, abs=1e-9)
    assert arch.v_dd == cfg.drive.v_dd
    shaped = build_architecture(cfg)
    assert (shaped.n_bits, shaped.m_words) == (4, 4)
