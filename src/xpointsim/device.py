"""Compact device models: the storage junction and its access transistor.

The junction is a two-terminal resistor whose value depends on the relative
magnetisation of its two layers. Everything here is quasi-static: a device
has a state (parallel or antiparallel) and a resistance determined by that
state. Switching progress is not device state: :func:`switching_step`
advances a progress figure its caller holds for the length of one pulse,
while the through-current exceeds the critical threshold in the
destabilising direction.

Sign convention, used consistently across the package: positive device
current flows from the bit-line terminal to the word-line terminal and
drives the parallel state toward antiparallel. Negative current drives the
reverse transition.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError

__all__ = [
    "MtjParams",
    "MtjState",
    "SwitchingParams",
    "TransistorModel",
    "critical_current",
    "mtj_resistance",
    "reference_params",
    "reference_surface",
    "switching_delay",
    "switching_step",
]

BOHR_MAGNETON = 9.2740100783e-24  # J/T
ELEMENTARY_CHARGE = 1.602176634e-19  # C
EULER_GAMMA = 0.5772156649015329
# the lumped rate fit point: 1.3x the threshold current switches in 10 ns
_FIT_DELAY_S = 10e-9
_FIT_OVERDRIVE = 1.3


class MtjState(Enum):
    """Relative orientation of the free layer: parallel stores '0'."""

    P = "P"
    AP = "AP"


def _require(condition, name, message):
    if not condition:
        raise ParameterError(f"{name}: {message}")


@dataclass(frozen=True)
class MtjParams:
    """Geometry and electrical constants of one junction.

    surface_nm2 defaults to a 65 nm diameter circular pillar. The
    resistance-area product and the critical current density are the two
    calibration constants; everything else is derived from them.
    """

    tmr: float = 1.5
    surface_nm2: float = math.pi / 4.0 * 65.0**2
    ra_ohm_um2: float = 10.0
    jc0_a_cm2: float = 5.7e6

    def __post_init__(self):
        _require(self.tmr >= 0.0, "tmr", "must be non-negative")
        _require(self.surface_nm2 > 0.0, "surface_nm2", "must be positive")
        _require(self.ra_ohm_um2 > 0.0, "ra_ohm_um2", "must be positive")
        _require(self.jc0_a_cm2 > 0.0, "jc0_a_cm2", "must be positive")
        # a ratio that underflows is a 0 ohm junction, a short no solve can carry
        r_p, area = mtj_resistance(MtjState.P, self), self.surface_nm2
        _require(r_p > 0.0, "ra_ohm_um2", f"leaves a 0 ohm junction over {area:g} nm^2")


def mtj_resistance(state, params):
    """Two-terminal resistance in the given state.

    The parallel state sits at the calibrated resistance-area product over
    the junction surface; antiparallel adds the TMR.
    """
    r_p = params.ra_ohm_um2 * 1e6 / params.surface_nm2  # 1 um^2 = 1e6 nm^2
    if state is MtjState.P:
        return r_p
    return (1.0 + params.tmr) * r_p


def reference_surface(params):
    """Junction surface whose parallel resistance equals (R_P + R_AP) / 2.

    Reference cells are plain parallel-state junctions made larger or
    smaller instead of being biased differently, so the midpoint resistance
    comes out of the same process: s_ref = s / (1 + tmr/2).
    """
    return params.surface_nm2 / (1.0 + 0.5 * params.tmr)


def reference_params(params):
    """Parameters of a reference cell matched to ``params``.

    The reference junction never switches; modelling it with tmr = 0 keeps
    both nominal states at the midpoint resistance.
    """
    return dataclasses.replace(
        params, surface_nm2=reference_surface(params), tmr=0.0
    )


def critical_current(params):
    """Threshold current below which no switching occurs, in amperes."""
    return params.jc0_a_cm2 * params.surface_nm2 * 1e-14  # 1 nm^2 = 1e-14 cm^2


def _write_current(params, overdrive):
    """The write current: ``overdrive`` times the threshold current."""
    return overdrive * critical_current(params)


@dataclass(frozen=True)
class SwitchingParams:
    """Dynamic constants for the precessional switching-delay model.

    Two ways to get a usable rate:

    * physics route: the rate per ampere of overdrive is computed from the
      thermal stability factor ``xi``, the spin ``polarization`` and the
      free-layer ``moment_a_m2``;
    * lumped route: :meth:`lumped_fit` pins ``rate_per_amp`` so that 1.3x
      threshold switches in 10 ns, which is how the model is calibrated
      against measured write pulses.
    """

    xi: float = 40.0
    polarization: float = 0.62
    moment_a_m2: float = 456e3 * (math.pi / 4.0 * 65.0**2 * 1e-18) * 1.3e-9
    rate_per_amp: float | None = None

    def __post_init__(self):
        _require(self.xi > 0.0, "xi", "must be positive")
        _require(0.0 < self.polarization < 1.0, "polarization", "must be in (0, 1)")
        _require(self.moment_a_m2 > 0.0, "moment_a_m2", "must be positive")
        if self.rate_per_amp is not None:
            _require(self.rate_per_amp > 0.0, "rate_per_amp", "must be positive")
        else:
            # a moment so small that q * m underflows leaves the physics
            # rate without a finite value
            scale = self._moment_scale()
            _require(
                scale > 0.0 and BOHR_MAGNETON * self.polarization / scale < math.inf,
                "moment_a_m2",
                f"{self.moment_a_m2:g} A*m^2 gives no finite physics rate",
            )

    def _moment_scale(self):
        return ELEMENTARY_CHARGE * self.moment_a_m2 * (1.0 + self.polarization**2)

    @classmethod
    def lumped_fit(cls, params):
        """Calibrate the rate so 1.3x threshold switches in 10 ns."""
        i_c = critical_current(params)
        scale = _FIT_DELAY_S * (_FIT_OVERDRIVE - 1.0) * i_c
        _require(
            0.0 < scale < math.inf,
            "rate_per_amp",
            f"cannot be fitted to a threshold current of {i_c:g} A",
        )
        return cls(rate_per_amp=1.0 / scale)

    def rate(self):
        """Switching rate per ampere of overdrive, 1/(A*s)."""
        if self.rate_per_amp is not None:
            return self.rate_per_amp
        bracket = EULER_GAMMA + math.log(math.pi**2 * self.xi / 4.0)
        _require(
            bracket > 0.0,
            "xi",
            "too small: the thermal-activation bracket is not positive",
        )
        return (2.0 / bracket) * BOHR_MAGNETON * self.polarization / self._moment_scale()


def switching_delay(current_a, params, dyn):
    """Mean time to switch under a constant current, seconds.

    Returns ``math.inf`` at or below the critical current: in this
    quasi-static model, sub-threshold current never switches the device.
    """
    overdrive = abs(current_a) - critical_current(params)
    if overdrive <= 0.0:
        return math.inf
    speed = dyn.rate() * overdrive
    # the phase engine asks twice per switching cell and solve: the message
    # is formatted only when the check fails
    if not (0.0 < speed < math.inf and 1.0 / speed < math.inf):
        raise ParameterError(
            f"rate_per_amp: a switching rate of {speed:g} /s at {overdrive:g} A over "
            "threshold puts the switching delay beyond float range"
        )
    return 1.0 / speed


def _destabilising_sign(state):
    # positive current drives P -> AP; negative drives AP -> P
    return 1.0 if state is MtjState.P else -1.0


def switching_step(state, progress, current_a, params, dt_s, dyn):
    """Advance one junction by ``dt_s`` under a constant current.

    ``progress`` is the accumulated fraction of a switching event, in units
    of the instantaneous delay; returns the new ``(state, progress)``.
    Destabilising supra-threshold current accumulates progress linearly in
    time and flips the state once a full delay has elapsed. A
    supra-threshold current in the stabilising direction actively restores
    the magnetisation, discarding any partial progress. Sub-threshold
    current of either sign returns the progress it was given.
    """
    if abs(current_a) <= critical_current(params):
        return state, progress
    if math.copysign(1.0, current_a) != _destabilising_sign(state):
        return state, 0.0
    progress += dt_s / switching_delay(current_a, params, dyn)
    if progress >= 1.0:
        return (MtjState.AP if state is MtjState.P else MtjState.P), 0.0
    return state, progress


@dataclass(frozen=True)
class TransistorModel:
    """Piecewise-linear access transistor: ohmic up to a saturation current."""

    r_on: float
    r_off: float
    i_sat: float

    def __post_init__(self):
        _require(self.r_on > 0.0, "r_on", "must be positive")
        _require(self.r_off > self.r_on, "r_off", "must exceed r_on")
        _require(self.i_sat > 0.0, "i_sat", "must be positive")

    @classmethod
    def default_for(cls, params, v_dd=1.2, overdrive=1.3, **fixed):
        """Size the switch so the nominal write path carries ``overdrive`` x threshold.

        ``fixed`` gives any of ``r_on``, ``r_off`` and ``i_sat`` as they
        are; each one it leaves out is sized here, the off resistance to
        1e9 ohm. A sized on-resistance absorbs whatever headroom the
        parallel-state junction leaves at ``v_dd`` and must stay below
        ``r_off``; a fixed one is neither re-sized nor re-bounded.
        Saturation is set at twice the write current so normal operation
        stays in the ohmic region.
        """
        i_write = _write_current(params, overdrive)
        sized = {"r_off": 1e9, "i_sat": 2.0 * i_write}
        if "r_on" not in fixed:
            _require(
                i_write > 0.0, "r_on", f"no write current: {overdrive:g}x threshold is 0 A"
            )
            r_on = sized["r_on"] = v_dd / i_write - mtj_resistance(MtjState.P, params)
            r_off = fixed.get("r_off", sized["r_off"])
            _require(
                r_on > 0.0,
                "r_on",
                f"no headroom: {overdrive:g}x threshold through the junction "
                f"already needs more than {v_dd:g} V",
            )
            _require(
                r_on < r_off,
                "r_on",
                f"sized to {r_on:g} ohm for a {i_write:g} A write current, "
                f"not below the {r_off:g} ohm off resistance",
            )
        return cls(**{**sized, **fixed})

