import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonholo.control import (WrapperSpec, driving_force, feedback_law,
                             longitudinal_accel, preview_max_curvature,
                             steer_derivative_chain, steering_saturation,
                             steering_torque, target_speed, wrapper,
                             wrapper_deriv)
from nonholo.models import DriveInput, Variant, eom_rhs
from nonholo.params import ControlGains
from nonholo.path import CurvatureProfile

import oracles


class TestWrapperFamily:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 1000, math.inf])
    def test_origin_conditions(self, n):
        spec = WrapperSpec(n, 0.7)
        assert wrapper(spec, 0.0) == 0.0
        assert wrapper_deriv(spec, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_n2_is_scaled_arctan(self):
        spec = WrapperSpec(2, math.pi / 2.0)
        for x in (-3.0, -0.4, 0.0, 0.7, 10.0):
            assert wrapper(spec, x) == pytest.approx(math.atan(x), rel=1e-15)

    def test_n2_saturates(self):
        spec = WrapperSpec(2, 1.0)
        assert wrapper(spec, 1e9) == pytest.approx(1.0, abs=1e-6)
        assert wrapper(spec, 1e9) < 1.0
        for bound in (1.0, 0.0257, 0.7, 6.0, math.pi / 2):
            for x in (1e300, -1e300):
                assert abs(wrapper(WrapperSpec(2, bound), x)) < bound

    def test_against_quadrature(self):
        for n in range(2, 9):
            for x in (-2.5, -0.7, 0.3, 0.7, 1.9):
                got = wrapper(WrapperSpec(n, 1.0), x)
                ref = oracles.wrapper_by_quadrature(n, 1.0, x)
                assert got == pytest.approx(ref, abs=1e-10)

    def test_clamp_is_exact(self):
        spec = WrapperSpec(math.inf, 0.3)
        assert wrapper(spec, 0.1) == 0.1
        assert wrapper(spec, 5.0) == 0.3
        assert wrapper(spec, -5.0) == -0.3
        assert wrapper_deriv(spec, 0.0) == 1.0
        assert wrapper_deriv(spec, 1.0) == 0.0

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_recurrence_closure_at_large_argument(self, n):
        spec = WrapperSpec(n, 1.0)
        assert wrapper(spec, 1e6) == pytest.approx(1.0, abs=1e-6)
        assert wrapper(spec, -1e6) == pytest.approx(-1.0, abs=1e-6)

    @settings(max_examples=150)
    @given(n=st.integers(2, 10), g_sat=st.floats(0.05, 5.0),
           x=st.floats(-50.0, 50.0))
    def test_odd_bounded_unit_slope(self, n, g_sat, x):
        spec = WrapperSpec(n, g_sat)
        g = wrapper(spec, x)
        assert wrapper(spec, -x) == pytest.approx(-g, abs=1e-14)
        assert abs(g) <= g_sat
        d = wrapper_deriv(spec, x)
        assert 0.0 < d <= 1.0

    @given(n=st.integers(2, 8), x=st.floats(-5.0, 5.0))
    def test_derivative_consistent(self, n, x):
        spec = WrapperSpec(n, 1.0)
        h = 1e-6
        fd = (wrapper(spec, x + h) - wrapper(spec, x - h)) / (2 * h)
        assert wrapper_deriv(spec, x) == pytest.approx(fd, abs=1e-8)


class TestSteering:
    def test_all_laws_vanish_at_zero(self, gains):
        for law in ("linear", "nonlinear", "wrapped"):
            assert feedback_law(gains, law)(0.0, 0.0, 0.1) == 0.0

    def test_far_field_heading(self, gains):
        # the nonlinear law is zero at the heading -arctan(k2*e), which far
        # from the path points straight across it
        heading = -math.atan(gains.k2 * 1e12)
        assert heading == pytest.approx(-math.pi / 2, abs=1e-9)
        assert feedback_law(gains, "nonlinear")(1e12, heading, None) == 0.0
        gsat = 0.0257
        far = feedback_law(gains, "wrapped")(1e12, 0.0, gsat)
        c = math.pi / (2 * gsat)
        expected = math.atan(c * gains.k1 * (0.0 + math.pi / 2)) / c
        assert far == pytest.approx(expected, abs=1e-6)

    @given(e=st.floats(-100.0, 100.0), th=st.floats(-3.0, 3.0))
    def test_odd_symmetry(self, e, th):
        gains = ControlGains()
        for law in ("linear", "nonlinear", "wrapped"):
            fb = feedback_law(gains, law)
            plus = fb(e, th, 0.05)
            minus = fb(-e, -th, 0.05)
            assert plus == pytest.approx(-minus, abs=1e-15)

    @given(e=st.floats(-1e6, 1e6), th=st.floats(-500.0, 500.0))
    def test_wrapped_strictly_inside_bound(self, e, th):
        gains = ControlGains()
        out = feedback_law(gains, "wrapped")(e, th, 0.0257)
        assert abs(out) < 0.0257

    def test_wrapped_n2_strictly_inside_bound_when_saturated(self, gains,
                                                             rng):
        # the float arctan of a huge argument rounds to pi/2, which puts
        # the scaled value on or one ulp past gamma_sat for most bounds
        fb = feedback_law(gains)
        for gsat in rng.uniform(1e-3, 1.0, 200):
            out = fb(0.0, 1e300, gsat)
            assert -gsat < out < -0.999 * gsat

    def test_wrapped_deviates_from_linear_at_third_order(self, gains, rng):
        gsat = 0.5
        wrapped = feedback_law(gains, "wrapped")
        linear = feedback_law(gains, "linear")
        for _ in range(10):
            e0 = rng.uniform(-1.0, 1.0)
            th0 = rng.uniform(-0.5, 0.5)
            def diff(scale):
                w = wrapped(scale * e0, scale * th0, gsat)
                lin = linear(scale * e0, scale * th0, gsat)
                return w - lin
            d1, d2 = diff(1e-2), diff(5e-3)
            if abs(d1) < 1e-16:
                continue
            assert d2 / d1 == pytest.approx(0.125, rel=0.15)

    def test_saturation_examples(self, gains, params):
        got = steering_saturation(20.0, gains, params)
        assert got == pytest.approx(math.atan(4.0 * 2.57 / 400.0), rel=1e-14)
        assert got == pytest.approx(0.025694, abs=1e-6)
        assert steering_saturation(0.0, gains, params) == params.gamma_max
        assert steering_saturation(1e-3, gains, params) == params.gamma_max
        # continuity where both branches meet
        v_star = math.sqrt(gains.a_lat_max * params.l / math.tan(params.gamma_max))
        lo = steering_saturation(v_star * (1 - 1e-9), gains, params)
        hi = steering_saturation(v_star * (1 + 1e-9), gains, params)
        assert lo == pytest.approx(hi, rel=1e-6)

    def test_torque_servo(self, gains):
        assert steering_torque(0.2, 0.2, gains) == 0.0
        assert abs(steering_torque(10.0, 0.0, gains)) == \
            pytest.approx(1.0, abs=1e-2)
        assert abs(steering_torque(10.0, 0.0, gains)) < 1.0
        for gamma in (1e300, -1e300):
            assert abs(steering_torque(gamma, 0.0, gains)) < gains.T_sat
        delta = 1e-8
        assert steering_torque(delta, 0.0, gains) / delta == \
            pytest.approx(-6.0, rel=1e-6)


class TestLongitudinal:
    def test_target_speed_values(self, gains):
        assert target_speed(0.0, gains) == 30.0
        assert target_speed(0.004 * math.pi, gains) == \
            pytest.approx(17.8412, abs=1e-3)
        sharp = ControlGains(a_lat_max=12.0)
        assert target_speed(math.pi / 50.0, sharp) == \
            pytest.approx(13.8198, abs=1e-3)

    def test_preview_max_curvature(self, n4_profile):
        # window fully before the peak: max at the leading edge
        assert preview_max_curvature(n4_profile, 10.0, 50.0) == \
            pytest.approx(n4_profile.kappa(60.0), rel=1e-12)
        # window straddling the peak at s = 125
        assert preview_max_curvature(n4_profile, 100.0, 50.0) == \
            pytest.approx(n4_profile.kappa_max, rel=1e-12)
        # whole-period window on the short path
        sharp = CurvatureProfile.periodic(4, 50.0)
        assert preview_max_curvature(sharp, 17.3, 50.0) == \
            pytest.approx(sharp.kappa_max, rel=1e-12)
        assert preview_max_curvature(CurvatureProfile.straight(), 5.0, 50.0) == 0.0

    def test_longitudinal_accel(self, gains):
        assert longitudinal_accel(20.0, 20.0, gains) == 0.0
        assert longitudinal_accel(0.0, 1e6, gains) == pytest.approx(6.0, abs=1e-3)
        assert abs(longitudinal_accel(0.0, 1e6, gains)) < 6.0
        for v_des in (1e300, -1e300):
            assert abs(longitudinal_accel(0.0, v_des, gains)) < \
                gains.a_long_max
        small = longitudinal_accel(19.999, 20.0, gains)
        assert small == pytest.approx(-(-5.0) * 0.001, rel=1e-6)
        assert small > 0.0

    def test_driving_force_zero_steer(self, params):
        F = driving_force(2.0, 0.0, 0.0, 0.0, 20.0, params)
        assert F.F_R == pytest.approx(params.m1 * 2.0, rel=1e-15)
        assert F.iota == 0.0 and F.a1 == 0.0 and F.a2 == 0.0

    def test_driving_force_inverts_longitudinal_dynamics(self, params, rng):
        for _ in range(100):
            a_des = rng.uniform(-6.0, 6.0)
            gamma = rng.uniform(-1.0, 1.0)
            gd = rng.uniform(-0.5, 0.5)
            gdd = rng.uniform(-1.0, 1.0)
            sigma1 = rng.uniform(1.0, 30.0)
            F = driving_force(a_des, gamma, gd, gdd, sigma1, params)
            u = DriveInput(gamma=gamma, gamma_dot=gd, gamma_ddot=gdd,
                           F_R=F.F_R)
            dy = eom_rhs(Variant.SKATE_FORCE, [0.0, 0.0, 0.0, sigma1], u,
                         params)
            assert dy[3] == pytest.approx(a_des, abs=1e-12)

    def test_driving_force_split_identity(self, params, rng):
        for _ in range(30):
            a_des = rng.uniform(-5.0, 5.0)
            gamma = rng.uniform(-0.8, 0.8)
            F = driving_force(a_des, gamma, 0.3, -0.2, 15.0, params)
            recomposed = params.m1 * ((1.0 + F.iota) * a_des + F.a1 + F.a2)
            assert F.F_R == pytest.approx(recomposed, rel=1e-12, abs=1e-9)


class TestDerivativeChain:
    @settings(max_examples=300)
    @given(k1=st.floats(-3.0, -0.01), k2=st.floats(0.001, 0.2),
           s=st.floats(0.0, 1000.0), e=st.floats(-20.0, 20.0),
           th=st.floats(-1.0, 1.0), gsat=st.floats(1e-3, 1.0))
    def test_gamma_fb_is_the_feedback_law(self, params, n4_profile, k1, k2,
                                          s, e, th, gsat):
        gains = ControlGains(k1=k1, k2=k2)
        cmd = steer_derivative_chain(s, e, th, 20.0, 0.0, n4_profile, gains,
                                     gsat, params)
        assert cmd.gamma_fb == feedback_law(gains)(e, th, gsat)

    def test_rates_are_path_frame_kinematics(self, params, gains, n4_profile,
                                             rng):
        for _ in range(50):
            s, e = rng.uniform(0.0, 1000.0), rng.uniform(-20.0, 20.0)
            th, v = rng.uniform(-1.0, 1.0), rng.uniform(1.0, 30.0)
            cmd = steer_derivative_chain(s, e, th, v, 0.5, n4_profile, gains,
                                         0.05, params)
            kap = n4_profile.kappa(s)
            sd = v * math.cos(th) / (1.0 - kap * e)
            assert cmd.rates == (
                sd, v * math.sin(th),
                v * math.tan(cmd.gamma_des) / params.l - kap * sd)

    def test_steady_state_on_constant_curvature(self, params, gains):
        prof = CurvatureProfile.circle(200.0)
        cmd = steer_derivative_chain(40.0, 0.0, 0.0, 20.0, 0.0, prof, gains,
                                     0.0257, params)
        assert cmd.gamma_fb == 0.0
        assert cmd.gamma_des == pytest.approx(math.atan(params.l / 200.0))
        assert cmd.gamma_dot == 0.0
        assert cmd.gamma_ddot == 0.0

    def test_matches_finite_differences_along_flow(self, params, gains,
                                                   n4_profile):
        V = 20.0
        gsat = steering_saturation(V, gains, params)
        prof = n4_profile

        rng = np.random.default_rng(7)
        for _ in range(5):
            y0 = np.array([rng.uniform(0.0, 1000.0), rng.uniform(-3.0, 3.0),
                           rng.uniform(-0.3, 0.3)])
            cmd = steer_derivative_chain(y0[0], y0[1], y0[2], V, 0.0, prof,
                                         gains, gsat, params)
            fd1, fd2 = oracles.steer_derivatives_by_flow(y0, V, prof, gains,
                                                         gsat, params)
            assert cmd.gamma_dot == pytest.approx(fd1, abs=1e-6)
            assert cmd.gamma_ddot == pytest.approx(fd2, abs=1e-4)
