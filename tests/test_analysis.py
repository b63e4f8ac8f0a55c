import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonholo.analysis import (DEFAULT_SCENARIOS, EquivalenceScenario,
                              _integrate_open_loop, _sine_steer,
                              kinematic_stability, linearize_kinematic,
                              linearize_longitudinal, linearize_steering,
                              routh_hurwitz_kinematic, stability_grid,
                              verify_equivalence)
from nonholo.control import (longitudinal_accel, target_speed,
                             wrapper, WrapperSpec)
from nonholo import analysis
from nonholo.errors import (DegenerateEquilibrium, GuardTripped,
                            LagrangeSingularity, SingularEncounter)
from nonholo.models import DriveInput, Variant, eom_floats
from nonholo.sim import integrate

TABLE5 = dict(V=20.0, l=2.57, k1=-0.5, k2=0.02)
CLI_KAPPAS = (0.0, 0.005, 0.012566370614359173)


def assert_grid_matches_scalar(k1_values, k2_values, kappa, V, l,
                               band=1e-8):
    """Each batched stability_grid row equals the per-point reference."""
    rows = stability_grid(k1_values, k2_values, kappa, V, l, band)
    assert len(rows) == len(k1_values) * len(k2_values)
    bound = kappa ** 2 * l / (1.0 + kappa ** 2 * l ** 2)
    points = [(float(a), float(b)) for a in k1_values for b in k2_values]
    for row, (k1, k2) in zip(rows, points):
        verdict = kinematic_stability(kappa, V, l, k1, k2)
        near = abs(k1) < band or abs(k1 * k2 - bound) < band
        assert row == (k1, k2, routh_hurwitz_kinematic(kappa, l, k1, k2),
                       float(np.max(np.real(verdict.eigenvalues))),
                       verdict.agree, near)
        assert row[2] == verdict.criterion_stable


def fd_jacobian(f, x0, h=1e-6):
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    f0 = np.asarray(f(x0))
    J = np.zeros((len(f0), n))
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = h * max(1.0, abs(x0[j]))
        J[:, j] = (np.asarray(f(x0 + dx)) - np.asarray(f(x0 - dx))) \
            / (2.0 * dx[j])
    return J


def wrapped(x, sat):
    return wrapper(WrapperSpec(2, sat), x)


class TestKinematicLinearization:
    def test_reference_eigenvalues(self):
        model = linearize_kinematic(0.0, **TABLE5)
        # independent route: roots of the characteristic polynomial
        a1 = -TABLE5["V"] * TABLE5["k1"] / TABLE5["l"]
        a0 = -TABLE5["V"] ** 2 / TABLE5["l"] * TABLE5["k1"] * TABLE5["k2"]
        roots = np.roots([1.0, a1, a0])
        assert np.allclose(sorted(model.eigenvalues().real),
                           sorted(roots.real), rtol=1e-12)
        # published rounding solved the quadratic from 4-decimal coefficients
        assert np.allclose(sorted(model.eigenvalues().real),
                           [-3.4385, -0.4526], atol=2e-4)

    def test_marginal_when_k1_zero(self):
        model = linearize_kinematic(0.0, 20.0, 2.57, 0.0, 0.02)
        assert np.allclose(model.eigenvalues(), [0.0, 0.0], atol=1e-14)

    def test_disturbance_matrix_is_zero(self):
        for kappa in (0.0, 1.0 / 200.0, 0.004 * math.pi):
            model = linearize_kinematic(kappa, **TABLE5)
            assert np.all(model.B == 0.0)
            full = linearize_kinematic(kappa, full=True, **TABLE5)
            assert np.all(full.B == 0.0)
            assert full.A[0, 1] == pytest.approx(TABLE5["V"] * kappa)

    def test_matches_finite_differences(self, params, gains):
        V, l = 20.0, params.l
        gsat = 0.0257
        for kappa in (0.0, 1.0 / 200.0, 0.004 * math.pi):
            def f(x):
                e, th = x
                gamma = math.atan(kappa * l) + wrapped(
                    gains.k1 * (th + math.atan(gains.k2 * e)), gsat)
                one = 1.0 - kappa * e
                sdot = V * math.cos(th) / one
                return [V * math.sin(th),
                        V * math.tan(gamma) / l - kappa * sdot]

            A_fd = fd_jacobian(f, [0.0, 0.0])
            A = linearize_kinematic(kappa, V, l, gains.k1, gains.k2).A
            assert np.allclose(A, A_fd, rtol=1e-6, atol=1e-8)


class TestRouthHurwitz:
    def test_table5_gains_stable_for_any_curvature(self):
        for kappa in (0.0, 0.005, 0.05, 0.5):
            assert routh_hurwitz_kinematic(kappa, 2.57, -0.5, 0.02)

    def test_positive_k1_unstable(self):
        assert not routh_hurwitz_kinematic(0.0, 2.57, 0.1, 0.02)

    def test_boundary_flip_matches_eigenvalues(self):
        kappa, l, k1 = 0.01, 2.57, -0.5
        bound = kappa ** 2 * l / (1.0 + kappa ** 2 * l ** 2)
        assert bound == pytest.approx(2.5698e-4, abs=2e-6)
        for sign in (-1.0, 1.0):
            k2 = (bound + sign * 1e-6) / k1
            verdict = kinematic_stability(kappa, 20.0, l, k1, k2)
            assert verdict.agree
            # k1*k2 = bound + sign*1e-6; stable iff k1*k2 < bound
            assert verdict.stable == (sign < 0)

    def test_grid_agreement(self):
        k1 = np.linspace(-2.0, 0.5, 16)
        k2 = np.linspace(-0.05, 0.1, 16)
        for kappa in (0.0, 1.0 / 200.0, 0.004 * math.pi):
            rows = stability_grid(k1, k2, kappa, 20.0, 2.57)
            checked = [r for r in rows if not r[5]]
            assert checked
            assert all(r[4] for r in checked)

    @pytest.mark.parametrize("kappa", CLI_KAPPAS)
    def test_grid_equals_scalar_reference(self, kappa):
        assert_grid_matches_scalar(np.linspace(-2.0, 0.5, 80),
                                   np.linspace(-0.05, 0.1, 80), kappa, 20.0,
                                   2.57)

    @settings(max_examples=60, deadline=None)
    @given(kappa=st.sampled_from(CLI_KAPPAS) | st.floats(0.0, 0.2),
           k1=st.lists(st.floats(-3.0, 1.0), min_size=1, max_size=5),
           k2=st.lists(st.floats(-0.2, 0.2), max_size=5),
           offset=st.floats(-2e-8, 2e-8))
    def test_grid_equals_scalar_reference_near_boundary(self, kappa, k1, k2,
                                                        offset):
        l = 2.57
        bound = kappa ** 2 * l / (1.0 + kappa ** 2 * l ** 2)
        # points on either side of k1*k2 = bound and of k1 = 0, inside and
        # just outside the boundary band
        k2 = k2 + [(bound + offset) / a for a in k1 if abs(a) > 1e-3]
        k1 = k1 + [offset]
        assert_grid_matches_scalar(np.array(k1), np.array(k2), kappa, 20.0, l)


class TestSteeringLinearization:
    def test_table5_stable_at_zero_curvature(self, params, gains):
        model = linearize_steering(0.0, 20.0, params, gains)
        assert np.max(model.eigenvalues().real) < 0.0

    def test_no_servo_gain_is_marginal(self, params, gains):
        from dataclasses import replace
        model = linearize_steering(0.0, 20.0, params, replace(gains, k_s=0.0))
        eigs = np.sort(model.eigenvalues().real)
        assert np.count_nonzero(np.abs(model.eigenvalues()) < 1e-12) >= 3
        assert eigs[-1] <= 1e-12

    def test_lookahead_changes_only_disturbance(self, params, gains):
        base = linearize_steering(0.004 * math.pi, 20.0, params,
                                  replace(gains, t_L=0.0))
        ahead = linearize_steering(0.004 * math.pi, 20.0, params,
                                   replace(gains, t_L=0.3))
        assert np.array_equal(base.A, ahead.A)
        assert np.array_equal(base.B[:, 0], ahead.B[:, 0])
        assert base.B[3, 1] == 0.0
        assert ahead.B[3, 1] == pytest.approx(base.B[3, 0] * 20.0 * 0.3)

    def test_matches_finite_differences(self, params, gains):
        V, l, J_F = 20.0, params.l, params.J_F
        gsat, Tsat = 0.0257, gains.T_sat
        for kappa in (0.0, 0.004 * math.pi):
            gamma_star = math.atan(kappa * l)

            def f(x, kap_off=0.0, kap_prime=0.0, t_L=0.0):
                e, th, g, s2 = x
                kap_ff = kappa + kap_off + kap_prime * V * t_L
                gdes = math.atan(kap_ff * l) + wrapped(
                    gains.k1 * (th + math.atan(gains.k2 * e)), gsat)
                T_s = wrapped(gains.k_s * (g - gdes), Tsat)
                kap = kappa + kap_off
                one = 1.0 - kap * e
                sdot = V * math.cos(th) / one
                return [V * math.sin(th),
                        V * math.tan(g) / l - kap * sdot,
                        s2,
                        T_s / J_F - V * s2 / (l * math.cos(g) ** 2)]

            x_star = [0.0, 0.0, gamma_star, 0.0]
            A_fd = fd_jacobian(f, x_star)
            model = linearize_steering(kappa, V, params, gains)
            assert np.allclose(model.A, A_fd, rtol=1e-6, atol=1e-6)

            h = 1e-7
            b_fd = (np.array(f(x_star, kap_off=h))
                    - np.array(f(x_star, kap_off=-h))) / (2.0 * h)
            assert np.allclose(model.B[:, 0], b_fd, rtol=1e-6, atol=1e-6)

            ahead = linearize_steering(kappa, V, params,
                                       replace(gains, t_L=0.3))
            bp_fd = (np.array(f(x_star, kap_prime=h, t_L=0.3))
                     - np.array(f(x_star, kap_prime=-h, t_L=0.3))) / (2.0 * h)
            assert np.allclose(ahead.B[:, 1], bp_fd, rtol=1e-6, atol=1e-6)


class TestLongitudinalLinearization:
    def test_speed_row_eigenvalue(self, params, gains):
        model = linearize_longitudinal(0.004 * math.pi, params, gains)
        assert model.A[3, 3] == gains.k_a == -5.0
        assert np.min(np.abs(model.eigenvalues() - (-5.0))) < 1e-9

    def test_equilibrium_speed(self, params, gains):
        model = linearize_longitudinal(0.004 * math.pi, params, gains)
        sigma_star = math.sqrt(gains.a_lat_max / (0.004 * math.pi))
        assert sigma_star == pytest.approx(17.8412, abs=1e-3)
        assert model.A[1, 2] == pytest.approx(sigma_star)

    def test_lateral_block_matches_kinematic(self, params, gains):
        kappa = 0.004 * math.pi
        sigma_star = math.sqrt(gains.a_lat_max / kappa)
        model = linearize_longitudinal(kappa, params, gains)
        kin = linearize_kinematic(kappa, sigma_star, params.l,
                                  gains.k1, gains.k2)
        assert np.allclose(model.A[1:3, 1:3], kin.A)

    def test_degenerate_when_curvature_vanishes(self, params, gains):
        with pytest.raises(DegenerateEquilibrium):
            linearize_longitudinal(0.0, params, gains)
        with pytest.raises(DegenerateEquilibrium):
            linearize_longitudinal(1e-6, params, gains)

    def test_matches_finite_differences(self, params, gains):
        kappa = 0.004 * math.pi
        l = params.l
        sigma_star = math.sqrt(gains.a_lat_max / kappa)

        def f(x, kap_m_off=0.0):
            s, e, th, s1 = x
            gsat = min(params.gamma_max,
                       math.atan(gains.a_lat_max * l / s1 ** 2))
            gamma = math.atan(kappa * l) + wrapped(
                gains.k1 * (th + math.atan(gains.k2 * e)), gsat)
            v_des = target_speed(kappa + kap_m_off, gains)
            a_des = longitudinal_accel(s1, v_des, gains)
            one = 1.0 - kappa * e
            sdot = s1 * math.cos(th) / one
            return [sdot, s1 * math.sin(th),
                    s1 * math.tan(gamma) / l - kappa * sdot, a_des]

        x_star = [3.0, 0.0, 0.0, sigma_star]
        model = linearize_longitudinal(kappa, params, gains)
        A_fd = fd_jacobian(f, x_star)
        assert np.allclose(model.A, A_fd, rtol=1e-6, atol=1e-6)
        h = 1e-8
        b_fd = (np.array(f(x_star, h)) - np.array(f(x_star, -h))) / (2.0 * h)
        assert np.allclose(model.B[:, 0], b_fd, rtol=1e-6, atol=1e-4)


class TestEquivalenceSuite:
    def test_skate_wheel(self, params):
        report = verify_equivalence("skate_wheel", params)
        assert report.passed, report
        assert report.max_deviation < 1e-9

    def test_appell_lagrange(self, params):
        report = verify_equivalence("appell_lagrange", params)
        assert report.passed, report
        assert report.max_deviation < 1e-6

    def test_alt_pseudo_through_zero_steering(self, params):
        report = verify_equivalence("alt_pseudo", params)
        assert report.passed, report
        assert report.max_deviation < 1e-9

    def test_pair_table(self, params):
        # perfbench runs the pairs of DEFAULT_SCENARIOS, so the keys agree
        assert list(analysis._PAIRS) == list(DEFAULT_SCENARIOS)
        assert {pair: row[:2] for pair, row in analysis._PAIRS.items()} == {
            "skate_wheel": (Variant.WHEEL_TORQUE, 1e-9),
            "appell_lagrange": (Variant.SKATE_FORCE_LAGRANGE, 1e-6),
            "alt_pseudo": (Variant.SKATE_FORCE_ALT_PSEUDO, 1e-9)}
        for pair, (other, tol, to_other, to_sigma1) in analysis._PAIRS.items():
            assert verify_equivalence(pair, params, replace(
                DEFAULT_SCENARIOS[pair], duration=0.01)).tol == tol
            if other.wheel:
                assert to_other is to_sigma1 is None
                continue
            # the two maps are inverses
            for g in (-1.2, -0.3, 0.05, 0.7):
                back = to_sigma1(to_other(15.0, g, params.l), g, params.l)
                assert back == pytest.approx(15.0, rel=1e-15)

    def test_lagrange_through_zero_raises(self, params):
        scenario = EquivalenceScenario(duration=10.0, dt=1e-3, sigma1_0=15.0,
                                       gamma_fn=_sine_steer(0.3, 1.0, 0.2),
                                       F_R_fn=lambda t: 200.0)
        with pytest.raises(SingularEncounter):
            verify_equivalence("appell_lagrange", params, scenario=scenario)

    def test_lagrange_rejects_a_step_across_the_band(self, params):
        # no sample comes within 1.2e-3 of gamma = 0, crossed at t = 0.0504 s
        def gamma(t):
            a = 10.0 * (t - 0.0504)
            return 0.3 * math.sin(a), 3.0 * math.cos(a), -30.0 * math.sin(a)
        scenario = EquivalenceScenario(duration=0.2, dt=1e-3, sigma1_0=15.0,
                                       gamma_fn=gamma, F_R_fn=lambda t: 200.0)
        with pytest.raises(SingularEncounter, match="crosses gamma = 0 "
                           "between t = 0.0500 s and 0.0510 s"):
            verify_equivalence("appell_lagrange", params, scenario=scenario)


# each pair's other variant, its initial state and whether it is driven by
# torques; SKATE_FORCE starts from BASE0 in every pair
BASE0 = [0.0, 0.0, 0.0, 15.0]
PAIR_RUNS = {
    "skate_wheel": (Variant.WHEEL_TORQUE, BASE0 + [0.0, 0.0], True),
    "appell_lagrange": (Variant.SKATE_FORCE_LAGRANGE,
                        [0.0, 0.0, 0.0, 15.0 * math.tan(0.3) / 2.57], False),
    "alt_pseudo": (Variant.SKATE_FORCE_ALT_PSEUDO, BASE0, False),
}


def separate_run(variant, y0, sc, params, to_torque, eom=eom_floats,
                 times=None):
    """One variant integrated alone, its drive input built at every stage."""
    def every_stage(t, y):
        if times is not None:
            times.append(t)
        g, gd, gdd = sc.gamma_fn(t)
        fr, ff = sc.F_R_fn(t), sc.F_F_fn(t)
        u = DriveInput(g, gd, gdd, T_R=params.r * fr, T_F=params.r * ff) \
            if to_torque else DriveInput(g, gd, gdd, F_R=fr, F_F=ff)
        if not all(map(math.isfinite, y)):
            return [math.nan] * len(y)
        return eom(variant, y, u, params)
    return integrate(every_stage, y0, sc.dt, sc.duration)[1]


@pytest.fixture
def joined_states(monkeypatch):
    """The joined (n + 1, len) states of each run, even one that raises."""
    runs = []

    def recording(*args):
        out = integrate(*args)
        runs.append(out[1])
        return out
    monkeypatch.setattr(analysis, "integrate", recording)
    return runs


@pytest.mark.parametrize("pair", PAIR_RUNS)
def test_joined_run_equals_separate_runs(params, pair):
    """Each half of a pair's joined run equals that variant's run alone, and
    the drive inputs are built once per distinct stage time for both."""
    other, other0, to_torque = PAIR_RUNS[pair]
    base = replace(DEFAULT_SCENARIOS[pair], duration=1.0)
    times = []

    def counting(t):
        times.append(t)
        return base.gamma_fn(t)

    ref, got = _integrate_open_loop(other, BASE0, other0,
                                    replace(base, gamma_fn=counting), params)
    stage_times = []
    assert np.array_equal(ref, separate_run(Variant.SKATE_FORCE, BASE0, base,
                                            params, False, times=stage_times))
    assert np.array_equal(got, separate_run(other, other0, base, params,
                                            to_torque))
    # stages 2 and 3 share t + dt/2; stage 1 reuses the last stage 4 when
    # t0 + k*dt rounds to the same float as (t0 + (k-1)*dt) + dt
    assert len(times) == len(set(times))
    assert set(times) == set(stage_times)
    n = len(got) - 1
    assert 2 * n < len(times) < 3 * n


GUARD_RUNS = {
    # a ramp that reaches pi/2 trips SKATE_FORCE's tan guard; the
    # alternative pseudo-velocity form is regular there and runs on
    "skate_force": (
        0, Variant.SKATE_FORCE_ALT_PSEUDO, BASE0,
        EquivalenceScenario(duration=4.0, dt=1e-3, sigma1_0=15.0,
                            gamma_fn=lambda t: (0.5 * t, 0.5, 0.0))),
    # a ramp through gamma = 0 at a stage time trips the yaw-rate form
    "skate_force_lagrange": (
        1, Variant.SKATE_FORCE_LAGRANGE,
        [0.0, 0.0, 0.0, 15.0 * math.tan(0.2) / 2.57],
        EquivalenceScenario(duration=3.0, dt=1e-3, sigma1_0=15.0,
                            gamma_fn=lambda t: (0.2 - 0.1 * t, -0.1, 0.0),
                            F_R_fn=lambda t: 200.0)),
}


@pytest.mark.parametrize("name", GUARD_RUNS)
def test_joined_run_guard_names_its_half(params, joined_states, name):
    """A guard in one half raises naming that half, at the step where its
    run alone trips; the other half runs on as it would alone."""
    i, other, other0, sc = GUARD_RUNS[name]
    halves = [(Variant.SKATE_FORCE, BASE0), (other, other0)]
    with pytest.raises(GuardTripped) as alone:
        separate_run(*halves[i], sc, params, False)
    with pytest.raises(SingularEncounter) as joined:
        _integrate_open_loop(other, BASE0, other0, sc, params)
    cause = alone.value.cause
    assert str(joined.value) == (f"{name} hit a guard at t = "
                                 f"{alone.value.time:.4f} s: {cause}")
    assert type(joined.value.__cause__.cause) is type(cause)
    states = np.split(joined_states[0], [4], axis=1)
    assert np.array_equal(states[1 - i], separate_run(*halves[1 - i], sc,
                                                      params, False))


def test_joined_run_lagrange_guard_between_stage_times(params):
    """gamma = 0.2 + 0.3 sin t crosses zero inside the step that starts at
    3.871 s, with no stage time within GAMMA_GUARD of it: the sign change
    trips the yaw-rate form's guard at that step."""
    assert 3.871 < math.pi + math.asin(2.0 / 3.0) < 3.872
    sc = EquivalenceScenario(duration=10.0, dt=1e-3, sigma1_0=15.0,
                             gamma_fn=_sine_steer(0.3, 1.0, 0.2),
                             F_R_fn=lambda t: 200.0)
    lag0 = [0.0, 0.0, 0.0, 15.0 * math.tan(0.2) / params.l]
    with pytest.raises(SingularEncounter, match="^skate_force_lagrange hit a "
                       "guard at t = 3.8710 s: gamma changes sign") as joined:
        _integrate_open_loop(Variant.SKATE_FORCE_LAGRANGE, BASE0, lag0, sc,
                             params)
    assert type(joined.value.__cause__.cause) is LagrangeSingularity


@pytest.mark.parametrize("poisoned", [Variant.SKATE_FORCE,
                                      Variant.WHEEL_TORQUE],
                         ids=lambda v: v.value)
def test_joined_run_nan_stays_in_its_half(params, joined_states, monkeypatch,
                                          poisoned):
    """A NaN that starts in one half names that half and the step it starts
    in; the other half stays finite and equal to its run alone."""
    def eom(variant, y, u, params, V=None):
        out = eom_floats(variant, y, u, params, V)
        if variant is poisoned and y[0] > 10.0:
            out[3] = math.nan
        return out
    monkeypatch.setattr(analysis, "eom_floats", eom)
    other, other0, _ = PAIR_RUNS["skate_wheel"]
    sc = replace(DEFAULT_SCENARIOS["skate_wheel"], duration=1.0)
    runs = {Variant.SKATE_FORCE: (BASE0, False), other: (other0, True)}
    alone = {v: separate_run(v, y0, sc, params, torque, eom)
             for v, (y0, torque) in runs.items()}
    row = int(np.nonzero(np.isnan(alone[poisoned][:, 3]))[0][0])
    assert 0.5 < row * sc.dt < 1.0
    with pytest.raises(SingularEncounter,
                       match=f"^{poisoned.value} diverged at t = "
                             f"{(row - 1) * sc.dt:.4f} s"):
        _integrate_open_loop(other, BASE0, other0, sc, params)
    ref, got = joined_states[0][:, :4], joined_states[0][:, 4:]
    assert np.array_equal(ref, alone[Variant.SKATE_FORCE], equal_nan=True)
    assert np.array_equal(got, alone[other], equal_nan=True)
    clean = got if poisoned is Variant.SKATE_FORCE else ref
    assert np.all(np.isfinite(clean))
