import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from nonholo.control import (feedback_law, steering_saturation,
                             steering_torque, target_speed)
from nonholo.errors import GuardTripped, SteeringSingularity, TubeSingularity
from nonholo.models import DriveInput, Variant, eom_rhs
from nonholo.params import ControlGains
from nonholo.path import CurvatureProfile, build_path
from nonholo import sim as sim_module
from nonholo.sim import (FIGURES, Scenario, _make_loop, count_zero_crossings,
                         integrate, named_scenario, rk4_step, run_scenario)
from oracles import composed_longitudinal_loop, rk4_step_reference


@dataclass(frozen=True)
class CountingProfile(CurvatureProfile):
    """A curvature profile that records its kappa() evaluations."""

    calls: list = field(default_factory=list, compare=False)

    def kappa(self, s, *cos):
        self.calls.append(s)
        return super().kappa(s, *cos)


class TestIntegrate:
    def test_constant_when_derivative_vanishes(self):
        ts, ys = integrate(lambda t, y: (0.0, 0.0), [1.5, -2.0], 0.01, 1.0)
        assert np.all(ys[:, 0] == 1.5)
        assert np.all(ys[:, 1] == -2.0)
        assert ts[-1] == pytest.approx(1.0)

    def test_kinematic_circle(self, params):
        # fixed steering traces a circle of radius l/tan(gamma) at point R
        rho = 50.0
        gamma = math.atan(params.l / rho)
        u = DriveInput(gamma=gamma)
        V = 20.0

        def rhs(t, y):
            return eom_rhs(Variant.SKATE_KINEMATIC, y, u, params, V=V)

        period = 2.0 * math.pi * rho / V
        dt = period / round(period / 1e-3)  # one revolution exactly
        y0 = [params.d, 0.0, 0.0]  # rear axle point starts at the origin
        ts, ys = integrate(rhs, y0, dt, period)
        x_R = ys[:, 0] - params.d * np.cos(ys[:, 2])
        y_R = ys[:, 1] - params.d * np.sin(ys[:, 2])
        # back at the start after one revolution
        assert abs(x_R[-1] - x_R[0]) < 1e-6
        assert abs(y_R[-1] - y_R[0]) < 1e-6
        # and on a circle of radius rho throughout
        radius = np.hypot(x_R - 0.0, y_R - rho)
        assert np.max(np.abs(radius - rho)) < 1e-6

    def test_fourth_order_convergence(self, params):
        u = DriveInput(gamma=0.35)
        V = 20.0

        def rhs(t, y):
            return eom_rhs(Variant.SKATE_KINEMATIC, y, u, params, V=V)

        y0 = [0.0, 0.0, 0.0]
        _, ref = integrate(rhs, y0, 1e-4, 2.0)
        _, coarse = integrate(rhs, y0, 0.04, 2.0)
        _, fine = integrate(rhs, y0, 0.02, 2.0)
        err_coarse = np.max(np.abs(coarse[-1] - ref[-1]))
        err_fine = np.max(np.abs(fine[-1] - ref[-1]))
        assert 10.0 < err_coarse / err_fine < 22.0

    @pytest.mark.parametrize("name", ["fig16", "fig18", "fig20"])
    def test_row_capture_matches_mode_function(self, name):
        sc = replace(named_scenario(name), duration=0.05)
        y0, loop, columns = _make_loop(sc)
        ts, ys, rows = integrate(loop, y0, sc.dt, sc.duration, rows=True)
        assert rows.shape == (51, len(columns))
        for k in range(len(ts)):
            _, row = loop(ts[k], list(ys[k]), True)
            assert np.array_equal(rows[k], row), k

    def test_guard_reports_time(self, params):
        sc = Scenario(name="inward", profile=CurvatureProfile.circle(200.0),
                      mode="none",
                      duration=15.0, V=20.0, e0=0.0, theta0=math.pi / 2.0)
        with pytest.raises(GuardTripped) as err:
            run_scenario(sc)
        assert 9.0 < err.value.time < 11.0


def coupled_rhs(n, kind):
    """A nonlinear right-hand side on n states that returns a derivative of
    type ``kind``, and with ``diag`` also a row of two diagnostics."""
    def rhs(t, y, diag=False):
        dy = kind(math.sin(t + y[(i + 1) % n]) * (i + 1) - 0.3 * y[i]
                  + 0.1 * y[i - 1] ** 2 for i in range(n))
        return (dy, (sum(y), t)) if diag else dy
    return rhs


class TestRk4Step:
    """The written-out step equals the comprehension form bit for bit."""

    KINDS = [list, tuple, lambda items: np.array(list(items))]

    @pytest.mark.parametrize("kind", KINDS, ids=["list", "tuple", "ndarray"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_step_equals_reference(self, n, kind):
        rhs = coupled_rhs(n, kind)
        y = [0.7 * i - 1.1 for i in range(n)]
        for k in range(20):
            t = 0.013 * k
            want = rk4_step_reference(rhs, t, y, 0.013)
            assert rk4_step(rhs, t, y, 0.013) == want
            assert rk4_step(rhs, t, y, 0.013, rhs(t, y)) == want
            # a given stage 1 is used as given, not recomputed
            other = rhs(t + 0.5, y)
            assert rk4_step(rhs, t, y, 0.013, other) == \
                rk4_step_reference(rhs, t, y, 0.013, other)
            y = want

    @pytest.mark.parametrize("kind", KINDS, ids=["list", "tuple", "ndarray"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_integrate_equals_reference(self, n, kind):
        rhs = coupled_rhs(n, kind)
        y = [0.7 * i - 1.1 for i in range(n)]
        want, want_rows = [y], []
        for k in range(50):
            t = k * 0.02
            a, row = rhs(t, y, True)
            want_rows.append(row)
            y = rk4_step_reference(rhs, t, y, 0.02, a)
            want.append(y)
        want_rows.append(rhs(50 * 0.02, y, True)[1])
        _, ys = integrate(rhs, want[0], 0.02, 1.0)
        assert ys.tolist() == want
        _, ys, rows = integrate(rhs, want[0], 0.02, 1.0, rows=True)
        assert ys.tolist() == want
        assert rows.tolist() == [list(row) for row in want_rows]

    @pytest.mark.parametrize("stage", [2, 3, 4])
    def test_guard_in_a_later_stage_reports_the_step_start(self, stage):
        calls = []

        def rhs(t, y):
            calls.append(t)
            if len(calls) == 4 * 7 + stage:   # step 7, the given stage
                raise TubeSingularity("1 - kappa*e = 0")
            return (1.0, -y[0])

        with pytest.raises(GuardTripped) as err:
            integrate(rhs, [0.0, 1.0], 0.01, 1.0)
        assert err.value.time == 7 * 0.01
        assert isinstance(err.value.cause, TubeSingularity)

    @pytest.mark.parametrize("length", [2, 4])
    def test_derivative_of_wrong_length_raises(self, length):
        def rhs(t, y):
            return [1.0] * length

        with pytest.raises(ValueError):
            rk4_step(rhs, 0.0, [0.0, 0.0, 0.0], 0.01)
        with pytest.raises(ValueError):
            integrate(rhs, [0.0, 0.0, 0.0], 0.01, 0.1)


# each figure's settings, written out apart from sim._FIGURES; every figure
# starts at V = 20 m/s and e0 = -10 m
FIGURE_SETTINGS = {
    "fig13": dict(profile=CurvatureProfile.straight(), mode="steer_only",
                  duration=30.0),
    "fig14": dict(profile=CurvatureProfile.circle(200.0), mode="steer_only",
                  duration=35.0, theta0=math.radians(20.0)),
    "fig16": dict(profile=CurvatureProfile.periodic(4, 250.0),
                  mode="steer_only", duration=50.0),
    "fig17": dict(profile=CurvatureProfile.periodic(4, 250.0),
                  mode="steer_torque", duration=50.0),
    "fig18": dict(profile=CurvatureProfile.periodic(4, 250.0),
                  mode="steer_torque", duration=50.0,
                  gains=ControlGains(t_L=0.3)),
    "fig20": dict(profile=CurvatureProfile.periodic(4, 250.0),
                  mode="steer_longitudinal", duration=60.0),
    "fig21": dict(profile=CurvatureProfile.periodic(4, 50.0),
                  mode="steer_longitudinal", duration=30.0,
                  gains=ControlGains(a_lat_max=12.0)),
}


class TestScenarios:
    @pytest.mark.parametrize("dt", [1e-3, 0.005])
    def test_named_scenarios_are_pinned(self, dt):
        assert FIGURES == ("fig13", "fig14", "fig16", "fig17", "fig18",
                           "fig20", "fig21")
        assert tuple(FIGURE_SETTINGS) == FIGURES
        for name, settings in FIGURE_SETTINGS.items():
            expected = Scenario(name=name, dt=dt, V=20.0, e0=-10.0,
                                **settings)
            got = named_scenario(name, dt) if dt != 1e-3 \
                else named_scenario(name)
            assert got == expected
            assert repr(got) == repr(expected)
        with pytest.raises(ValueError, match="unknown scenario 'fig15'"):
            named_scenario("fig15")

    def test_steps_max(self, monkeypatch):
        """A run of more than STEPS_MAX steps is refused before anything is
        allocated, naming dt below the default and duration otherwise."""
        sc = named_scenario("fig13")
        monkeypatch.setattr(sim_module, "STEPS_MAX", 30000)
        replace(sc, duration=30.0)
        with pytest.raises(ValueError, match="key 'duration': 30.001 s at "
                           "dt = 0.001 s is more than 30000 steps"):
            replace(sc, duration=30.001)
        with pytest.raises(ValueError, match="key 'dt'"):
            replace(sc, dt=5e-4)
        with pytest.raises(ValueError, match="key 'duration'"):
            replace(sc, dt=2e-3, duration=60.002)

    def test_determinism(self):
        sc = named_scenario("fig13")
        a = run_scenario(sc)
        b = run_scenario(sc)
        for col in ("e_C", "theta_C", "gamma_des", "s_C"):
            assert np.array_equal(a[col], b[col])

    def test_fig13_initial_conditions_and_shape(self):
        trace = run_scenario(named_scenario("fig13"))
        assert trace["e_C"][0] == -10.0
        assert trace["theta_C"][0] == 0.0
        assert np.all(np.isclose(np.diff(trace.t), 1e-3))
        assert count_zero_crossings(trace["e_C"]) == 0

    def test_fig14_reaches_circle_steering(self):
        trace = run_scenario(named_scenario("fig14"))
        assert trace["gamma_des"][-1] == pytest.approx(
            math.atan(2.57 / 200.0), abs=1e-6)
        assert abs(trace["gamma_fb"][-1]) < 1e-6

    def test_fig21_settings(self):
        sc = named_scenario("fig21")
        assert sc.profile.s_T == 50.0
        assert sc.gains.a_lat_max == 12.0
        assert 1.0 / sc.profile.kappa_max == pytest.approx(15.9, abs=0.1)

    def test_constrained_speed_column_is_constant(self):
        trace = run_scenario(named_scenario("fig13", dt=2e-3))
        assert np.all(trace["sigma1"] == 20.0)

    def test_residuals_below_tolerance_for_all_figures(self):
        for name in FIGURES:
            sc = named_scenario(name, dt=5e-3)
            trace = run_scenario(sc)
            assert float(np.max(trace["resid_max"])) < 1e-8, name

    def test_trace_csv(self, tmp_path):
        trace = run_scenario(named_scenario("fig13", dt=0.01))
        dest = tmp_path / "trace.csv"
        trace.to_csv(dest)
        lines = dest.read_text().splitlines()
        assert lines[0].startswith("t,x_G,y_G,psi,gamma,sigma1,sigma2,s_C,e_C")
        assert lines[0].count(",") == 23
        first = lines[1].split(",")
        # torque and longitudinal diagnostics are absent for fig13
        cols = lines[0].split(",")
        assert first[cols.index("T_s")] == ""
        assert first[cols.index("F_R")] == ""
        assert len(lines) == 2 + len(trace.t) - 1

    def test_summary_fields(self):
        trace = run_scenario(named_scenario("fig13", dt=2e-3))
        s = trace.summary()
        assert s["settle_time"] < 20.0
        assert s["zero_crossings"] == 0
        assert s["max_abs_e"] == 10.0
        assert s["peak_a_lat"] < 4.0

    def test_straight_table_covers_longitudinal_run(self):
        # the speed schedule drives sigma1 from 20 m/s up to v_max = 30 m/s,
        # so a table sized from V alone (760 m) would pin the pose
        sc = Scenario(name="straight", profile=CurvatureProfile.straight(),
                      mode="steer_longitudinal", duration=30.0, dt=0.005,
                      e0=-2.0)
        trace = run_scenario(sc)
        assert trace["s_C"][-1] > 20.0 * 30.0 * 1.1 + 100.0
        th, d = trace["theta_C"], sc.params.d
        np.testing.assert_allclose(trace["x_G"], trace["s_C"] + d * np.cos(th),
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(trace["y_G"], trace["e_C"] + d * np.sin(th),
                                   rtol=0.0, atol=1e-9)

    def test_negative_radius_mirrors_fig14(self):
        sc = named_scenario("fig14", dt=0.005)
        mirror = replace(sc, profile=CurvatureProfile.circle(-200.0),
                         e0=-sc.e0, theta0=-sc.theta0)
        a, b = run_scenario(sc), run_scenario(mirror)
        for col, sign in (("x_G", 1.0), ("y_G", -1.0), ("psi", -1.0),
                          ("s_C", 1.0), ("e_C", -1.0), ("theta_C", -1.0),
                          ("gamma", -1.0), ("a_lat", -1.0)):
            np.testing.assert_allclose(b[col], sign * a[col], rtol=0.0,
                                       atol=1e-12, err_msg=col)

    def test_tube_validation_at_start(self, params, gains):
        with pytest.raises(ValueError, match="tube"):
            Scenario(name="bad", profile=CurvatureProfile.circle(50.0),
                     mode="steer_only",
                     duration=1.0, V=10.0, e0=60.0, s0=10.0)

    @staticmethod
    def _kappa_calls(name, n):
        sc = named_scenario(name)
        p = sc.profile
        prof = CountingProfile(p.kind, p.kappa_const, p.kappa_max, p.s_T, p.N)
        sc = replace(sc, profile=prof, duration=n * sc.dt)
        table = build_path(prof)
        prof.calls.clear()
        run_scenario(sc, table)
        return len(prof.calls)

    def test_kappa_calls_per_steer_only_run(self):
        # 4 RK4 stages per step, the final-state row and one residual
        # evaluation per row: 4n + 1 + (n + 1)
        assert self._kappa_calls("fig16", 100) == 5 * 100 + 2

    def test_kappa_calls_per_steer_longitudinal_run(self):
        # the stage calls kappa(s) once, as the derivative chain did
        assert self._kappa_calls("fig20", 100) == 5 * 100 + 2

    @pytest.mark.parametrize("name", ["fig17", "fig18"])
    def test_torque_column_is_the_servo(self, name):
        sc = replace(named_scenario(name), duration=2.0)
        trace = run_scenario(sc)
        servo = [steering_torque(g, g_des, sc.gains)
                 for g, g_des in zip(trace["gamma"], trace["gamma_des"])]
        assert np.array_equal(servo, trace["T_s"])

    @pytest.mark.parametrize("law,n", [("linear", 2), ("nonlinear", 2),
                                       ("wrapped", 2), ("wrapped", 3),
                                       ("wrapped", math.inf)])
    def test_feedback_steer_reproduces_trace(self, law, n):
        sc = replace(named_scenario("fig16", dt=0.01), duration=2.0, law=law,
                     wrapper_n=n)
        trace = run_scenario(sc)
        gsat = steering_saturation(sc.V, sc.gains, sc.params)
        fb = feedback_law(sc.gains, law, n)
        got = [fb(e, th, gsat)
               for e, th in zip(trace["e_C"], trace["theta_C"])]
        assert np.array_equal(got, trace["gamma_fb"])


def _longitudinal(case: str) -> Scenario:
    """A steer_longitudinal scenario for one case of the stage test below."""
    base, profile, over = {
        "straight": (None, CurvatureProfile.straight(), {}),
        "circle": (None, CurvatureProfile.circle(200.0), {}),
        "circle_cw": (None, CurvatureProfile.circle(-200.0), {}),
        "fig20": ("fig20", None, {}),
        # fig21's preview_dist is its s_T: every window holds a peak
        "fig21": ("fig21", None, {}),
        "fig21_short_preview": ("fig21", None, {"preview_dist": 20.0}),
        # gains so high that gamma_fb and a_des round onto their bounds
        "saturated": ("fig20", None, {"k1": -1e17, "k_a": -1e17}),
    }[case]
    if base is None:
        sc = Scenario(name=case, profile=profile, mode="steer_longitudinal",
                      duration=1.0)
    else:
        sc = named_scenario(base)
    return replace(sc, gains=replace(sc.gains, **over))


class TestFusedLongitudinalStage:
    """The simulator's steer_longitudinal stage is the composed public
    functions (``oracles.composed_longitudinal_loop``), bit for bit."""

    STATES = 5000

    @pytest.mark.parametrize("case", ["straight", "circle", "circle_cw",
                                      "fig20", "fig21", "fig21_short_preview",
                                      "saturated"])
    def test_random_states_equal_composed(self, case):
        sc = _longitudinal(case)
        _, fused, columns = _make_loop(sc)
        composed = composed_longitudinal_loop(sc)
        rng = np.random.default_rng(15)
        n = self.STATES
        states = np.column_stack([rng.uniform(-100.0, 1100.0, n),
                                  rng.uniform(-12.0, 12.0, n),
                                  rng.uniform(-1.4, 1.4, n),
                                  rng.uniform(-5.0, 45.0, n)]).tolist()
        states.append([10.0, 1.0, 0.1, 0.0])
        rows = []
        for y in states:
            assert fused(0.0, y) == composed(0.0, y), y
            got = fused(0.0, y, True)
            assert got == composed(0.0, y, True), y
            rows.append(got[1])
        rows = dict(zip(columns, np.array(rows).T))

        # the states reach every branch of the stage
        s1, p, g = rows["sigma1"], sc.params, sc.gains
        assert np.count_nonzero(s1 <= 0.0) > n // 20   # gamma_sat = gamma_max
        gsat = np.array([steering_saturation(v, g, p) for v in s1])
        fb_edge = np.abs(rows["gamma_fb"]) == np.nextafter(gsat, 0.0)
        a_edge = np.abs(rows["a_des"]) == math.nextafter(g.a_long_max, 0.0)
        assert (fb_edge.any() and a_edge.any()) == (case == "saturated")
        if sc.profile.kind == "periodic":
            peak = rows["v_des"] == target_speed(sc.profile.kappa_max, g)
            assert peak.all() if case == "fig21" \
                else peak.any() and not peak.all()

    @pytest.mark.parametrize("radius,y,exc", [
        (200.0, [5.0, 200.0, 0.1, 20.0], TubeSingularity),
        # arctan(kappa*l) near pi/2 plus a positive feedback passes it
        (1e-3, [0.0, 0.0, -1.0, 5.0], SteeringSingularity),
        # gamma = pi/2 - 1e-7, inside the 1e-9 guard of driving_force
        (2.57e-7, [0.0, 0.0, 0.0, 5.0], None),
    ])
    def test_guards_raise_as_composed(self, radius, y, exc):
        sc = Scenario(name="guard", profile=CurvatureProfile.circle(radius),
                      mode="steer_longitudinal", duration=1.0)
        _, fused, _ = _make_loop(sc)
        composed = composed_longitudinal_loop(sc)
        for diag in (False, True):
            if exc is None:
                assert fused(0.0, y, diag) == composed(0.0, y, diag)
                continue
            for loop in (fused, composed):
                with pytest.raises(Exception) as err:
                    loop(0.0, y, diag)
                assert type(err.value) is exc

    @pytest.mark.parametrize("name", ["fig20", "fig21"])
    def test_integration_equals_composed(self, name):
        sc = replace(named_scenario(name), duration=2.0)
        y0, fused, _ = _make_loop(sc)
        got = integrate(fused, y0, sc.dt, sc.duration, rows=True)
        want = integrate(composed_longitudinal_loop(sc), y0, sc.dt,
                         sc.duration, rows=True)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
