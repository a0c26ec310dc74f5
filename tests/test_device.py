"""Device model tests.

The frozen numbers below are derived by hand before the implementation and
kept as the oracle for the derived quantities:

    surface  = pi/4 * 65^2            = 3318.307240354219 nm^2
    R_P      = 10 Ohm.um^2 / surface  = 1e7 / 3318.307240354219 = 3013.5847 Ohm
    R_AP     = R_P * (1 + 1.5)        = 7533.9617 Ohm
    R_mid    = (R_P + R_AP) / 2       = 1.75 * R_P = 5273.7732 Ohm
    s_ref    = surface * R_P / R_mid  = surface / 1.75 = 1896.1756 nm^2
    I_C0     = 5.7e6 A/cm^2 * surface = 5.7e6 * 3318.307e-14 = 189.144 uA
    slope    = 1 / (10 ns * 0.3 * I_C0)   (fit so tau(1.3 I_C0) = 10 ns)
    tau(3 I_C0) = 1 / (slope * 2 * I_C0) = 10 ns * 0.3 / 2 = 1.5 ns exactly
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpointsim.device import (
    MtjParams,
    MtjState,
    SwitchingParams,
    TransistorModel,
    critical_current,
    mtj_resistance,
    reference_params,
    reference_surface,
    switching_delay,
    switching_step,
)
from xpointsim.errors import ParameterError

SURFACE = math.pi / 4.0 * 65.0**2
R_P = 1e7 / SURFACE
I_C0 = 5.7e6 * SURFACE * 1e-14


@pytest.fixture
def params():
    return MtjParams()


@pytest.fixture
def dyn(params):
    return SwitchingParams.lumped_fit(params)


class TestResistance:
    def test_parallel_anchor(self, params):
        r = mtj_resistance(MtjState.P, params)
        assert r == pytest.approx(R_P, rel=1e-12)
        assert abs(r - 3014.0) <= 1.0

    def test_antiparallel_anchor(self, params):
        r = mtj_resistance(MtjState.AP, params)
        assert r == pytest.approx(2.5 * R_P, rel=1e-12)
        assert abs(r - 7535.0) <= 3.0

    @given(tmr=st.floats(0.0, 5.0), surface=st.floats(100.0, 1e5))
    def test_ratio_is_one_plus_tmr(self, tmr, surface):
        p = MtjParams(tmr=tmr, surface_nm2=surface)
        assert mtj_resistance(MtjState.AP, p) == pytest.approx(
            (1.0 + tmr) * mtj_resistance(MtjState.P, p), rel=1e-12
        )

    def test_zero_tmr_degenerates(self):
        p = MtjParams(tmr=0.0)
        assert mtj_resistance(MtjState.AP, p) == mtj_resistance(MtjState.P, p)

    def test_write_safety_boundary_at_tmr_2(self):
        # R_AP < 3 R_P exactly when tmr < 2
        below = MtjParams(tmr=1.999)
        above = MtjParams(tmr=2.001)
        assert mtj_resistance(MtjState.AP, below) < 3 * mtj_resistance(MtjState.P, below)
        assert mtj_resistance(MtjState.AP, above) > 3 * mtj_resistance(MtjState.P, above)

    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError, match="tmr"):
            MtjParams(tmr=-0.5)
        with pytest.raises(ParameterError, match="surface_nm2"):
            MtjParams(surface_nm2=-1.0)
        with pytest.raises(ParameterError, match="ra_ohm_um2"):
            MtjParams(ra_ohm_um2=0.0)


def r_p_at(surface_nm2, params):
    """Parallel-state resistance of ``params`` resized to ``surface_nm2``."""
    return mtj_resistance(MtjState.P, dataclasses.replace(params, surface_nm2=surface_nm2))


class TestBarrierFormula:
    def test_anchored_to_ra_product(self, params):
        r = r_p_at(params.surface_nm2, params)
        assert r == pytest.approx(1e7 / SURFACE, rel=1e-12)

    def test_inverse_surface_scaling(self, params):
        half = r_p_at(2.0 * params.surface_nm2, params)
        assert half == pytest.approx(0.5 * R_P, rel=1e-12)

    @given(s1=st.floats(200.0, 2e4), s2=st.floats(200.0, 2e4))
    def test_area_product_invariant(self, s1, s2):
        p = MtjParams()
        assert r_p_at(s1, p) * s1 == pytest.approx(r_p_at(s2, p) * s2, rel=1e-9)

    def test_reference_sizing(self, params):
        s_ref = reference_surface(params)
        assert s_ref == pytest.approx(SURFACE / 1.75, rel=1e-12)
        assert abs(s_ref - 1896.0) <= 2.0
        # diameter of the equivalent circular pillar
        assert math.sqrt(4.0 * s_ref / math.pi) == pytest.approx(49.14, abs=0.05)
        r_ref = r_p_at(s_ref, params)
        mid = 0.5 * (
            mtj_resistance(MtjState.P, params) + mtj_resistance(MtjState.AP, params)
        )
        assert r_ref == pytest.approx(mid, rel=1e-9)

    def test_reference_surface_edge_cases(self):
        assert reference_surface(MtjParams(tmr=0.0)) == pytest.approx(SURFACE, rel=1e-12)
        assert reference_surface(MtjParams(tmr=3.0)) == pytest.approx(0.4 * SURFACE, rel=1e-12)

    def test_reference_params_resistance(self, params):
        ref = reference_params(params)
        assert mtj_resistance(MtjState.P, ref) == pytest.approx(1.75 * R_P, rel=1e-9)


class TestCriticalCurrent:
    def test_anchor(self, params):
        i = critical_current(params)
        assert i == pytest.approx(I_C0, rel=1e-12)
        assert abs(i * 1e6 - 189.0) <= 1.0
        assert i < 200e-6

    @given(scale=st.floats(0.1, 10.0))
    def test_linear_in_surface(self, scale):
        p = MtjParams()
        scaled = MtjParams(surface_nm2=p.surface_nm2 * scale)
        assert critical_current(scaled) == pytest.approx(
            critical_current(p) * scale, rel=1e-12
        )


class TestSwitchingDelay:
    def test_fit_point_exact(self, params, dyn):
        assert switching_delay(1.3 * I_C0, params, dyn) == pytest.approx(10e-9, rel=1e-12)

    def test_fast_point_within_window(self, params, dyn):
        tau = switching_delay(3.0 * I_C0, params, dyn)
        assert tau == pytest.approx(1.5e-9, rel=1e-12)
        assert 0.75e-9 <= tau <= 3e-9

    def test_no_switch_at_or_below_threshold(self, params, dyn):
        assert switching_delay(I_C0, params, dyn) == math.inf
        assert switching_delay(0.5 * I_C0, params, dyn) == math.inf
        assert switching_delay(0.0, params, dyn) == math.inf

    def test_strictly_decreasing(self, params, dyn):
        ratios = [1.05, 1.2, 1.5, 2.0, 3.0, 5.0]
        taus = [switching_delay(r * I_C0, params, dyn) for r in ratios]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_near_threshold_divergence(self, params, dyn):
        assert switching_delay(1.01 * I_C0, params, dyn) > 10 * switching_delay(
            1.5 * I_C0, params, dyn
        )

    def test_physics_route_matches_hand_formula(self, params):
        # independent arithmetic for the thermal-bracket rate expression
        mu_b = 9.2740100783e-24
        q = 1.602176634e-19
        xi, pol = 40.0, 0.62
        moment = 456e3 * (SURFACE * 1e-18) * 1.3e-9
        bracket = 0.5772156649015329 + math.log(math.pi**2 * xi / 4.0)
        slope = (2.0 / bracket) * mu_b * pol / (q * moment * (1.0 + pol**2))
        dyn = SwitchingParams(xi=xi, polarization=pol, moment_a_m2=moment)
        overdrive = 0.5 * I_C0
        assert switching_delay(I_C0 + overdrive, params, dyn) == pytest.approx(
            1.0 / (slope * overdrive), rel=1e-9
        )

    def test_degenerate_thermal_bracket_rejected(self, params):
        # xi small enough that C + ln(pi^2 xi / 4) <= 0
        bad = SwitchingParams(xi=1e-3, polarization=0.62, moment_a_m2=2e-18)
        with pytest.raises(ParameterError, match="xi"):
            switching_delay(2 * I_C0, params, bad)

    def test_delay_beyond_float_range_names_the_rate(self, params):
        # 1e308 /(A s) times 10 A over threshold overflows the rate
        fast = SwitchingParams(rate_per_amp=1e308)
        with pytest.raises(ParameterError) as info:
            switching_delay(I_C0 + 10.0, params, fast)
        assert str(info.value) == (
            "rate_per_amp: a switching rate of inf /s at 10 A over threshold "
            "puts the switching delay beyond float range"
        )

    def test_underflowing_moment_rejected_at_construction(self):
        # q * 5e-324 underflows to 0: the rate would divide by zero
        with pytest.raises(ParameterError, match="moment_a_m2"):
            SwitchingParams(moment_a_m2=5e-324)
        # a fitted rate never uses the moment
        assert SwitchingParams(moment_a_m2=5e-324, rate_per_amp=1e9).rate() == 1e9

    @pytest.mark.parametrize("rate", [5e-324, 1e-310])
    def test_delay_beyond_float_range_names_the_rate(self, params, rate):
        # rate x overdrive underflows to 0 (a division by zero), or to a
        # subnormal whose inverse is inf
        with pytest.raises(ParameterError, match="rate_per_amp:"):
            switching_delay(1.3 * I_C0, params, SwitchingParams(rate_per_amp=rate))

    def test_infinite_switching_rate_names_the_rate(self, params):
        # rate x overdrive overflows to inf: the delay would be 0, and a
        # write step would divide its time step by it
        with pytest.raises(ParameterError, match="rate_per_amp:"):
            switching_delay(1e296, params, SwitchingParams(rate_per_amp=1e13))


class TestSwitchingStep:
    def test_flip_after_exactly_tau(self, params, dyn):
        tau = switching_delay(3 * I_C0, params, dyn)
        state, progress = switching_step(MtjState.P, 0.0, 3 * I_C0, params, tau, dyn)
        assert state is MtjState.AP
        assert progress == 0.0

    def test_accumulated_flip_within_one_dt(self, params, dyn):
        tau = switching_delay(2 * I_C0, params, dyn)
        dt = tau / 100.0
        t = 0.0
        state, progress = MtjState.P, 0.0
        while state is MtjState.P:
            state, progress = switching_step(state, progress, 2 * I_C0, params, dt, dyn)
            t += dt
            assert t < tau + 2 * dt
        assert t >= tau - 1e-18

    def test_subthreshold_never_flips(self, params, dyn):
        # a full second
        state, progress = switching_step(MtjState.P, 0.0, 0.9 * I_C0, params, 1.0, dyn)
        assert state is MtjState.P
        assert progress == 0.0

    def test_progress_persists_across_gap(self, params, dyn):
        # sub-threshold current returns the progress it was given; whoever
        # holds the progress decides how long it lasts
        tau = switching_delay(3 * I_C0, params, dyn)
        state, progress = switching_step(MtjState.P, 0.0, 3 * I_C0, params, 0.5 * tau, dyn)
        assert progress == pytest.approx(0.5)
        for current in (0.0, 0.9 * I_C0, -0.9 * I_C0, I_C0):
            assert switching_step(state, progress, current, params, 1.0, dyn) == (
                state, progress,
            )
        state, progress = switching_step(state, progress, 3 * I_C0, params, 0.5 * tau, dyn)
        assert state is MtjState.AP

    def test_polarity_convention(self, params, dyn):
        # positive current (free -> reference) drives P -> AP only
        def progress(state, current):
            return switching_step(state, 0.0, current, params, 1e-10, dyn)[1]

        assert progress(MtjState.P, 3 * I_C0) > 0
        assert progress(MtjState.P, -3 * I_C0) == 0.0
        assert progress(MtjState.AP, -3 * I_C0) > 0
        assert progress(MtjState.AP, 3 * I_C0) == 0.0

    def test_stabilising_current_clears_progress(self, params, dyn):
        state, progress = switching_step(MtjState.P, 0.7, -3 * I_C0, params, 1e-10, dyn)
        assert progress == 0.0
        assert state is MtjState.P


class TestTransistor:
    def test_defaults_sized_for_nominal_path(self, params):
        t = TransistorModel.default_for(params)
        i_write = 1.3 * I_C0
        assert t.r_on == pytest.approx(1.2 / i_write - R_P, rel=1e-12)
        assert t.i_sat == pytest.approx(2 * i_write, rel=1e-12)
        assert t.r_off == 1e9

    def test_infeasible_sizing_rejected(self, params):
        # 3x I_C0 through R_P alone already exceeds 1.2 V
        with pytest.raises(ParameterError, match="r_on"):
            TransistorModel.default_for(params, overdrive=3.0)

    def test_fixed_r_on_skips_the_headroom_check(self, params):
        # 1.3x I_C0 through R_P needs 0.74 V: 0.1 V leaves no headroom to size
        # r_on into, but a fixed r_on is not sized
        with pytest.raises(ParameterError, match="no headroom"):
            TransistorModel.default_for(params, v_dd=0.1)
        t = TransistorModel.default_for(params, v_dd=0.1, r_on=100.0)
        assert (t.r_on, t.r_off) == (100.0, 1e9)
        assert t.i_sat == pytest.approx(2 * 1.3 * I_C0, rel=1e-12)
