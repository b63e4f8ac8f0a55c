import math

import numpy as np
import pytest

from nonholo.control import steering_saturation
from nonholo.errors import SteeringSingularity, TubeSingularity
from nonholo.models import DriveInput, Variant, eom_rhs
from nonholo.path import CurvatureProfile, build_path
from nonholo.pathframe import TrackPoint, pathframe_rhs
from nonholo.sim import rk4_step


class TestPointwiseForms:
    def test_feedforward_keeps_errors_zero(self, n4_table, params):
        for s in (0.0, 100.0, 333.0, 625.0):
            kappa = n4_table.kappa_at(s)
            gamma = math.atan(kappa * params.l)
            dy = pathframe_rhs(Variant.SKATE_KINEMATIC, TrackPoint.REAR_AXLE,
                               [s, 0.0, 0.0], DriveInput(gamma=gamma),
                               n4_table, params, V=20.0)
            assert dy[0] == pytest.approx(20.0, rel=1e-14)
            assert dy[1] == 0.0
            assert dy[2] == pytest.approx(0.0, abs=1e-16)

    def test_non_finite_s_raises(self, n4_table, params):
        with pytest.raises(ValueError, match="s = nan"):
            pathframe_rhs(Variant.SKATE_KINEMATIC, TrackPoint.REAR_AXLE,
                          [math.nan, 0.0, 0.0], DriveInput(gamma=0.0),
                          n4_table, params, V=20.0)

    def test_straight_path_reduction(self, straight_table, params):
        V, e, th, gamma = 18.0, 2.5, 0.2, 0.1
        dy = pathframe_rhs(Variant.SKATE_KINEMATIC, TrackPoint.REAR_AXLE,
                           [50.0, e, th], DriveInput(gamma=gamma),
                           straight_table, params, V=V)
        assert dy[0] == pytest.approx(V * math.cos(th))
        assert dy[1] == pytest.approx(V * math.sin(th))
        assert dy[2] == pytest.approx(V * math.tan(gamma) / params.l)

    def test_sigma_rows_match_absolute_model(self, n4_table, params, rng):
        # the speed/steering-rate equations are untouched by the transform
        for _ in range(30):
            s = rng.uniform(0.0, 1000.0)
            e = rng.uniform(-5.0, 5.0)
            th = rng.uniform(-0.5, 0.5)
            g = rng.uniform(-0.6, 0.6)
            s1 = rng.uniform(5.0, 30.0)
            s2 = rng.uniform(-0.5, 0.5)
            u = DriveInput(T_s=0.7, F_R=400.0, F_F=150.0)
            rel = pathframe_rhs(Variant.SKATE_FORCE_TORQUE_STEER,
                                TrackPoint.REAR_AXLE, [s, e, th, g, s1, s2],
                                u, n4_table, params)
            absd = eom_rhs(Variant.SKATE_FORCE_TORQUE_STEER,
                           [0.0, 0.0, 0.3, g, s1, s2], u, params)
            assert rel[3] == absd[3]
            assert rel[4] == absd[4]
            assert rel[5] == absd[5]

    def test_feedback_linearized_form(self, n4_table, params):
        dy = pathframe_rhs(Variant.SKATE_FORCE, TrackPoint.REAR_AXLE,
                           [10.0, 1.0, 0.1, 20.0],
                           DriveInput(gamma=0.05), n4_table, params,
                           a_des=1.5)
        assert dy[3] == 1.5

    def test_tube_singularity(self, params):
        table = build_path(CurvatureProfile.circle(100.0))
        with pytest.raises(TubeSingularity):
            pathframe_rhs(Variant.SKATE_KINEMATIC, TrackPoint.REAR_AXLE,
                          [0.0, 100.0, 0.0], DriveInput(gamma=0.0),
                          table, params, V=10.0)


# a valid (state, input) per skate variant; V = 20 is passed to every call
_VALID = {
    Variant.SKATE_KINEMATIC: ([10.0, 0.5, 0.1], DriveInput(gamma=0.1)),
    Variant.SKATE_FORCE:
        ([10.0, 0.5, 0.1, 20.0], DriveInput(gamma=0.1, F_R=300.0)),
    Variant.SKATE_TORQUE_STEER:
        ([10.0, 0.5, 0.1, 0.1, 0.0], DriveInput(T_s=0.5)),
    Variant.SKATE_FORCE_TORQUE_STEER:
        ([10.0, 0.5, 0.1, 0.1, 20.0, 0.0], DriveInput(T_s=0.5, F_R=300.0)),
}


class TestRejections:
    @pytest.mark.parametrize("variant", [v for v in Variant if v not in _VALID])
    def test_non_skate_variant(self, variant, n4_table, params):
        with pytest.raises(ValueError, match="skate variants only"):
            pathframe_rhs(variant, TrackPoint.REAR_AXLE,
                          [10.0, 0.5, 0.1] + [0.0] * (variant.n_states - 3),
                          DriveInput(), n4_table, params, V=20.0)

    @pytest.mark.parametrize("point", list(TrackPoint))
    @pytest.mark.parametrize("variant", list(_VALID))
    def test_state_length(self, variant, point, n4_table, params):
        y, u = _VALID[variant]
        assert len(pathframe_rhs(variant, point, y, u, n4_table, params,
                                 V=20.0)) == len(y)
        for bad in (y[:-1], y + [0.0]):
            with pytest.raises(ValueError, match=f"got {len(bad)}"):
                pathframe_rhs(variant, point, bad, u, n4_table, params, V=20.0)

    @pytest.mark.parametrize("variant", list(_VALID))
    def test_forbidden_input(self, variant, n4_table, params):
        y, u = _VALID[variant]
        for name in variant.forbidden:
            with pytest.raises(ValueError, match=f"input {name} "):
                pathframe_rhs(variant, TrackPoint.REAR_AXLE, y,
                              u._replace(**{name: 1.0}), n4_table, params,
                              V=20.0)

    @pytest.mark.parametrize("V", [None, 0.0, -1.0])
    @pytest.mark.parametrize("variant", [Variant.SKATE_KINEMATIC,
                                         Variant.SKATE_TORQUE_STEER])
    def test_constrained_speed_needs_V(self, variant, V, n4_table, params):
        y, u = _VALID[variant]
        with pytest.raises(ValueError, match="V > 0"):
            pathframe_rhs(variant, TrackPoint.REAR_AXLE, y, u, n4_table,
                          params, V=V)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("variant", list(_VALID))
    def test_steering_singularity(self, variant, sign, n4_table, params):
        y, u = _VALID[variant]
        gamma = sign * 0.5 * math.pi
        if variant.torque_steer:
            y = y[:3] + [gamma] + y[4:]
        else:
            u = u._replace(gamma=gamma)
        for point in TrackPoint:
            with pytest.raises(SteeringSingularity):
                pathframe_rhs(variant, point, y, u, n4_table, params, V=20.0)


class TestOnPathInvariance:
    def test_manifold_exactly_invariant(self, n4_table, n4_profile, params):
        # feedforward-only loop started on the path stays on it exactly
        V = 20.0

        def rhs(t, y):
            gamma = math.atan(n4_table.kappa_at(y[0]) * params.l)
            return pathframe_rhs(Variant.SKATE_KINEMATIC, TrackPoint.REAR_AXLE,
                                 y, DriveInput(gamma=gamma), n4_table, params,
                                 V=V)

        y = [0.0, 0.0, 0.0]
        for k in range(2000):
            y = rk4_step(rhs, k * 0.005, y, 0.005)
        # tan(atan(kappa*l)) costs one ulp, so "exact" means roundoff level
        assert abs(y[1]) < 1e-12
        assert abs(y[2]) < 1e-13
        assert y[0] == pytest.approx(2000 * 0.005 * V, rel=1e-12)


def _wrapped_law(params, gains, gamma_sat):
    c = math.pi / (2.0 * gamma_sat)
    k1, k2 = gains.k1, gains.k2

    def law(kappa_ff, e, th):
        return math.atan(kappa_ff * params.l) \
            + math.atan(c * k1 * (th + math.atan(k2 * e))) / c
    return law


class TestTwoRouteConsistency:
    """Absolute-frame simulation + projection vs direct path-frame simulation."""

    @pytest.mark.parametrize("variant,horizon", [
        (Variant.SKATE_KINEMATIC, 30.0),
        (Variant.SKATE_FORCE, 8.0),
        (Variant.SKATE_TORQUE_STEER, 8.0),
        (Variant.SKATE_FORCE_TORQUE_STEER, 8.0),
    ])
    def test_lateral_deviation_matches(self, variant, horizon, n4_table,
                                       params, gains):
        V = 20.0
        gamma_sat = steering_saturation(V, gains, params)
        law = _wrapped_law(params, gains, gamma_sat)
        d = params.d
        cT = math.pi / (2.0 * gains.T_sat)

        def inputs(s, e, th, extra):
            kappa_ff = n4_table.kappa_at(s)
            gdes = law(kappa_ff, e, th)
            if variant is Variant.SKATE_KINEMATIC:
                return DriveInput(gamma=gdes)
            if variant is Variant.SKATE_FORCE:
                # constant-derivative steering: same policy on both routes
                return DriveInput(gamma=gdes, F_R=300.0)
            T_s = math.atan(cT * gains.k_s * (extra[0] - gdes)) / cT
            if variant is Variant.SKATE_TORQUE_STEER:
                return DriveInput(T_s=T_s)
            return DriveInput(T_s=T_s, F_R=250.0, F_F=50.0)

        extra0 = {Variant.SKATE_KINEMATIC: [],
                  Variant.SKATE_FORCE: [V],
                  Variant.SKATE_TORQUE_STEER: [0.0, 0.0],
                  Variant.SKATE_FORCE_TORQUE_STEER: [0.0, V, 0.0]}[variant]
        y_rel = [0.0, -5.0, 0.0] + extra0

        def rhs_rel(t, y):
            return pathframe_rhs(variant, TrackPoint.REAR_AXLE, y,
                                 inputs(y[0], y[1], y[2], y[3:]), n4_table,
                                 params, V=V)

        # absolute route: states (x_G, y_G, psi) + the same extra states
        x_R0, y_R0, psi0 = 0.0, -5.0, 0.0
        y_abs = [x_R0 + d, y_R0, psi0] + extra0
        hint = [0.0]

        def project_R(y):
            psi = y[2]
            x_R = y[0] - d * math.cos(psi)
            y_Rp = y[1] - d * math.sin(psi)
            return n4_table.project(x_R, y_Rp, psi, hint=hint[0], window=1.0)

        def rhs_abs(t, y):
            q = project_R(y)
            return eom_rhs(variant, y, inputs(q.s_C, q.e_C, q.theta_C, y[3:]),
                           params, V=V)

        dt = 1e-3
        n = int(round(horizon / dt))
        worst = 0.0
        s_prev = -1.0
        monotone = True
        for k in range(n):
            y_rel = rk4_step(rhs_rel, k * dt, y_rel, dt)
            y_abs = rk4_step(rhs_abs, k * dt, y_abs, dt)
            q = project_R(y_abs)
            hint[0] = q.s_C
            worst = max(worst, abs(q.e_C - y_rel[1]))
            if q.s_C <= s_prev:
                monotone = False
            s_prev = q.s_C
        assert worst < 1e-6
        assert monotone

    def test_point_G_tracking_consistency(self, n4_table, params, gains):
        # same cross-check with the centre of mass as the tracked point
        V = 20.0
        gamma_sat = steering_saturation(V, gains, params)
        law = _wrapped_law(params, gains, gamma_sat)
        d = params.d

        def rhs_rel(t, y):
            u = DriveInput(gamma=law(n4_table.kappa_at(y[0]), y[1], y[2]))
            return pathframe_rhs(Variant.SKATE_KINEMATIC,
                                 TrackPoint.CENTER_OF_MASS, y, u, n4_table,
                                 params, V=V)

        y_rel = [0.0, -5.0, 0.0]
        y_abs = [0.0, -5.0, 0.0]  # x_G, y_G, psi with G over the path normal
        hint = [0.0]

        def project_G(y):
            return n4_table.project(y[0], y[1], y[2], hint=hint[0], window=1.0)

        def rhs_abs(t, y):
            q = project_G(y)
            u = DriveInput(gamma=law(q.kappa_C, q.e_C, q.theta_C))
            return eom_rhs(Variant.SKATE_KINEMATIC, y, u, params, V=V)

        dt = 1e-3
        worst = 0.0
        for k in range(8000):
            y_rel = rk4_step(rhs_rel, k * dt, y_rel, dt)
            y_abs = rk4_step(rhs_abs, k * dt, y_abs, dt)
            q = project_G(y_abs)
            hint[0] = q.s_C
            worst = max(worst, abs(q.e_C - y_rel[1]))
        assert worst < 1e-6
