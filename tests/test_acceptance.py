"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. Where a criterion bounds a transient, the point from which the
bound must hold is computed from the linearized closed loop and the
controller limits, not fitted to a trace: criterion 4 asserts 0.02 m beyond
the distance the slow eigenvalue needs, and criterion 6 asserts 0.5 m/s at
the curvature apexes, where the speed schedule promises it.
"""

import importlib
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nonholo.analysis import (linearize_kinematic, stability_grid,
                              verify_equivalence)
from nonholo.control import (WrapperSpec, driving_force, feedback_law,
                             longitudinal_accel, preview_max_curvature,
                             steer_derivative_chain, steering_saturation,
                             steering_torque, target_speed, wrapper)
from nonholo.models import (DriveInput, Variant, constraining_forces,
                            constraint_residuals, eom_floats, eom_rhs)
from nonholo.path import (CurvatureProfile, PathQuery, build_path,
                          frame_rates_inverse)
from nonholo.pathframe import rates
from nonholo.sim import (_build_table, _make_loop, count_zero_crossings,
                         named_scenario, run_scenario)

import oracles


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def fig13():
    return run_scenario(named_scenario("fig13"))


@pytest.fixture(scope="module")
def fig16():
    return run_scenario(named_scenario("fig16"))


@pytest.fixture(scope="module")
def fig17():
    return run_scenario(named_scenario("fig17"))


@pytest.fixture(scope="module")
def fig18():
    return run_scenario(named_scenario("fig18"))


@pytest.fixture(scope="module")
def fig20():
    return run_scenario(named_scenario("fig20"))


@pytest.fixture(scope="module")
def fig21():
    return run_scenario(named_scenario("fig21"))


def test_criterion_01_straight_path_convergence():
    t0 = time.perf_counter()
    trace = run_scenario(named_scenario("fig13"))
    wall = time.perf_counter() - t0

    e = trace["e_C"]
    t = trace.t
    converged = bool(np.all(np.abs(e[t >= 30.0 - 1e-9]) < 0.05))
    crossings = count_zero_crossings(e)

    window = (t >= 20.0) & (t <= 28.0) & (np.abs(e) > 1e-12)
    slope = np.polyfit(t[window], np.log(np.abs(e[window])), 1)[0]
    eigs = np.sort(linearize_kinematic(0.0, 20.0, 2.57, -0.5, 0.02)
                   .eigenvalues().real)
    slow = eigs[-1]
    eig_ok = np.allclose(eigs, [-3.4385, -0.4526], atol=2e-4)
    rate_ok = abs(slope - slow) < 0.1 * abs(slow)

    ok = report(1, converged and crossings <= 1 and eig_ok and rate_ok
                and wall < 1.0,
                f"|e(30s)| = {abs(e[-1]):.2e} m, {crossings} zero crossings, "
                f"decay rate {slope:.4f} vs eigenvalue {slow:.4f}, "
                f"runtime {wall:.2f} s")
    assert ok


def test_criterion_02_circular_path():
    trace = run_scenario(named_scenario("fig14"))
    t = trace.t
    late = t >= 30.0 - 1e-9
    gamma_circle = math.atan(2.57 / 200.0)
    fb = float(np.max(np.abs(trace["gamma_fb"][late])))
    des_err = float(np.max(np.abs(trace["gamma_des"][late] - gamma_circle)))
    a_lat = float(trace["a_lat"][-1])
    ok = report(2, fb < 1e-3 and des_err < 1e-3 and abs(a_lat - 2.0) < 0.02,
                f"|gamma_fb| = {fb:.2e} rad, |gamma_des - arctan(l/200)| = "
                f"{des_err:.2e} rad, steady a_lat = {a_lat:.4f} m/s^2")
    assert ok


def test_criterion_03_exact_tracking_varying_curvature():
    sc = replace(named_scenario("fig16"), e0=0.0, theta0=0.0, duration=100.0)
    trace = run_scenario(sc)
    worst = float(np.max(np.abs(trace["e_C"])))
    laps = trace["s_C"][-1] / 1000.0
    ok = report(3, worst < 1e-6 and laps > 2.0 - 1e-9,
                f"max |e_C| = {worst:.2e} m over {laps:.2f} laps")
    assert ok


def test_criterion_04_fig16_regression(fig16):
    sc = named_scenario("fig16")
    V, e0, gains, params = sc.V, sc.e0, sc.gains, sc.params
    # Straight-path linearization: curvature only adds damping (-kappa^2*l
    # in the e-row), so kappa* = 0 gives the slowest decay along the path.
    lam_fast, lam_slow = -np.sort(
        linearize_kinematic(0.0, V, params.l, gains.k1, gains.k2)
        .eigenvalues().real)
    # From (e0, 0) the linear loop gives
    #   e(t) = e0*(lam_fast*exp(-lam_slow*t) - lam_slow*exp(-lam_fast*t))
    #          / (lam_fast - lam_slow),
    # bounded by amp*exp(-lam_slow*t), so it enters 0.02 m at s_star.
    amp = abs(e0) * lam_fast / (lam_fast - lam_slow)
    s_star = V * math.log(amp / 0.02) / lam_slow
    # Margin for the saturated start. The wrapper bounds |gamma_fb| by
    # gamma_sat = arctan(a_lat_max*l/V^2), well below the initial demand
    # |k1*arctan(k2*e0)|, so the feedback turns the car toward the path at
    # most at V*tan(gamma_sat)/l = a_lat_max/V. The linear loop's largest
    # heading is theta_pk = max|e'|/V, reached at t_pk; at the capped rate
    # the saturated loop builds it within t_sat = theta_pk*V/a_lat_max,
    # after which the wrapper is near-linear and the error trails the
    # linear solution by no more than t_sat. With the defaults
    # t_sat = 0.83 s (16.6 m), under one second of travel.
    t_pk = math.log(lam_fast / lam_slow) / (lam_fast - lam_slow)
    theta_pk = (abs(e0) * lam_fast * lam_slow / (lam_fast - lam_slow)
                * (math.exp(-lam_slow * t_pk) - math.exp(-lam_fast * t_pk))
                / V)
    s_bound = s_star + V * theta_pk * V / gains.a_lat_max

    trace = fig16
    s, e, t = trace["s_C"], trace["e_C"], trace.t
    beyond = s > s_bound
    # a run that never gets past s_bound fails the clause
    worst_e = float(np.max(np.abs(e[beyond]))) if beyond.any() else math.inf
    # same decay-rate check as criterion 1, on the same time window
    window = (t >= 20.0) & (t <= 28.0) & (np.abs(e) > 1e-12)
    slope = np.polyfit(t[window], np.log(np.abs(e[window])), 1)[0]
    rate_ok = abs(slope + lam_slow) < 0.1 * lam_slow
    tail = trace.t >= trace.t[-1] - 10.0
    fb_tail = float(np.max(np.abs(trace["gamma_fb"][tail])))
    prof = CurvatureProfile.periodic(4, 250.0)
    ff_err = max(abs(trace["gamma_ff"][i] - math.atan(prof.kappa(s[i]) * 2.57))
                 for i in range(0, len(s), 100))
    ok = report(4, worst_e < 0.02 and rate_ok and fb_tail < 1e-3
                and ff_err < 1e-12,
                f"max |e_C| after {s_bound:.1f} m = {worst_e:.4f} m (bound "
                f"0.02; linear loop enters it at s* = {s_star:.1f} m, plus "
                f"{s_bound - s_star:.1f} m for the saturated start), "
                f"decay rate {slope:.4f} vs eigenvalue {-lam_slow:.4f}, "
                f"tail |gamma_fb| = {fb_tail:.2e}, ff err = {ff_err:.1e}")
    assert ok


def test_criterion_05_lookahead_sweep():
    values = (0.0, 0.1, 0.3, 0.5, 0.7)
    rms = {}
    for t_L in values:
        sc = named_scenario("fig17")
        sc = replace(sc, gains=replace(sc.gains, t_L=t_L))
        trace = run_scenario(sc)
        tail = trace.t >= 20.0
        rms[t_L] = float(np.sqrt(np.mean(trace["e_C"][tail] ** 2)))
    best = min(rms, key=rms.get)
    ok = report(5, best == 0.3 and rms[0.3] < rms[0.0] and rms[0.3] < rms[0.7]
                and rms[0.0] > 0.05,
                "rms e_C = " + ", ".join(f"{k:g}: {v:.4f}"
                                         for k, v in rms.items())
                + f" (min at t_L = {best:g} s)")
    assert ok


def _apex_speed_errors(trace, profile):
    """|sigma1 - v_des| where s_C passes each curvature apex after 20 s."""
    s = trace["s_C"]
    late = trace.t >= 20.0
    first = math.ceil(s[late][0] / profile.s_T - 0.5)
    last = math.floor(s[-1] / profile.s_T - 0.5)
    apexes = (np.arange(first, last + 1) + 0.5) * profile.s_T
    idx = np.searchsorted(s, apexes)
    return np.abs(trace["sigma1"][idx] - trace["v_des"][idx])


def _geometric_a1_floor(sc):
    """Lower bound on max|a1| while tracking the scenario's periodic path.

    On the path at the scheduled speed v, gamma = arctan(kappa*l) and
    gamma' = l*kappa'*v/(1 + (kappa*l)^2). Since sin/cos^3 >= tan >= id on
    [0, pi/2), a1 = (m2/m1)*sin(gamma)/cos(gamma)^3*gamma'*sigma1 is at least
    (m2/m1)*gamma*gamma'*v. It is evaluated at s_T/3, where
    gamma*gamma' ~ kappa*kappa' ~ (1 - cos)*sin of the curvature phase
    peaks. The preview spans a whole period, so v = target_speed(kappa_max).
    """
    params, prof = sc.params, sc.profile
    v = target_speed(prof.kappa_max, sc.gains)
    s = prof.s_T / 3.0
    kl = prof.kappa(s) * params.l
    gamma_dot = params.l * prof.kappa_prime(s) * v / (1.0 + kl * kl)
    return params.m2 / params.m1 * math.atan(kl) * gamma_dot * v


def _exact_inverse_clause(trace, a1_floor):
    """Steering geometry forces |a1| >= a1_floor after 20 s, and the exact
    inverse still holds sigma1' = a_des to 1e-3 of it. The naive force
    F_R = m1*a_des would leave |sigma1' - a_des| of about |a1|."""
    late = trace.t >= 20.0
    a1 = float(np.max(np.abs(trace["a1"][late])))
    sigma1_dot = np.gradient(trace["sigma1"], trace.t)
    resid = float(np.max(np.abs(sigma1_dot - trace["a_des"])[late]))
    return a1 >= a1_floor and resid < 1e-3 * a1_floor, a1, resid


def test_criterion_06_longitudinal_scenarios(fig20, fig21):
    sc20 = named_scenario("fig20")
    t20 = fig20.t >= 20.0
    # The schedule's job: speed matches v_des at every apex, and |a_lat|
    # stays within a_lat_max. Between apexes sigma1 chases v_des, which
    # moves faster than the a_long_max-bounded a_des can follow.
    apex_err = _apex_speed_errors(fig20, sc20.profile)
    a_lat_max = float(np.max(np.abs(fig20["a_lat"][t20])))
    chase = fig20["sigma1"][t20] - fig20["v_des"][t20]
    t_late = fig20.t[t20]
    iota_max = float(np.max(fig20["iota"]))
    a12 = max(float(np.max(np.abs(fig20["a1"]))),
              float(np.max(np.abs(fig20["a2"]))))
    a_des_max = float(np.max(np.abs(fig20["a_des"])))
    mu20 = max(float(np.max(np.abs(fig20["mu_R"]))),
               float(np.max(np.abs(fig20["mu_F"]))))

    a1_floor = _geometric_a1_floor(named_scenario("fig21"))
    inverse_ok, a1_21, resid21 = _exact_inverse_clause(fig21, a1_floor)
    # not vacuous: fig20's gentler corners do not force such an a1
    gentle_fails = not _exact_inverse_clause(fig20, a1_floor)[0]
    mu21 = max(float(np.max(np.abs(fig21["mu_R"]))),
               float(np.max(np.abs(fig21["mu_F"]))))

    ok = report(
        6,
        len(apex_err) > 0 and bool(np.all(apex_err < 0.5))
        and a_lat_max <= sc20.gains.a_lat_max * (1.0 + 1e-6)
        and iota_max < 0.01 and a12 < 0.1 * a_des_max
        and inverse_ok and gentle_fails and mu21 > mu20,
        f"fig20 max|sigma1 - v_des| at {len(apex_err)} apexes after 20 s = "
        f"{float(np.max(apex_err, initial=0.0)):.1e} m/s (bound 0.5), "
        f"max|a_lat| = {a_lat_max:.8f} m/s^2 (bound {sc20.gains.a_lat_max:g}), "
        f"chase between apexes {chase.max():.2f} m/s over at "
        f"t = {t_late[chase.argmax()]:.1f} s, {-chase.min():.2f} m/s under "
        f"at t = {t_late[chase.argmin()]:.1f} s (not bounded); "
        f"iota = {iota_max:.1e}, max(a1,a2) = {a12:.1e} vs "
        f"0.1*max|a_des| = {0.1 * a_des_max:.2f}; fig21 max|a1| = "
        f"{a1_21:.4f} vs geometric floor {a1_floor:.4f} m/s^2, "
        f"max|sigma1' - a_des| = {resid21:.1e} (bound {1e-3 * a1_floor:.1e}), "
        f"clause fails on fig20: {gentle_fails}, "
        f"mu peaks {mu21:.2f} > {mu20:.2f}")
    assert ok


def _columns(trace, i, names):
    return [float(trace[name][i]) for name in names]


def test_plant_rows_are_the_model_rows(fig17, fig20):
    """The loops integrate the models' sigma2' and sigma1' rows, bit for bit.

    At sampled committed states each loop's inputs are rebuilt through the
    public control calls, so a private copy of either row that drifts from
    the model (and from the exact inverse driving_force) fails here.
    """
    sc = named_scenario("fig17")
    p, g = sc.params, sc.gains
    _, loop, _ = _make_loop(sc)
    gsat = steering_saturation(sc.V, g, p)
    for i in np.linspace(0, len(fig17.t) - 1, 50).astype(int):
        s, e, th, gam, s2 = _columns(fig17, i, ("s_C", "e_C", "theta_C",
                                                "gamma", "sigma2"))
        gdes = math.atan(sc.profile.kappa(s + sc.V * g.t_L) * p.l) \
            + feedback_law(g)(e, th, gsat)
        u = DriveInput(T_s=steering_torque(gam, gdes, g))
        y = _columns(fig17, i, ("x_G", "y_G", "psi")) + [gam, s2]
        assert loop(fig17.t[i], [s, e, th, gam, s2])[4] \
            == eom_floats(Variant.SKATE_TORQUE_STEER, y, u, p, sc.V)[4]

    sc = named_scenario("fig20")
    _, loop, _ = _make_loop(sc)
    for i in np.linspace(0, len(fig20.t) - 1, 50).astype(int):
        s, e, th, s1 = _columns(fig20, i, ("s_C", "e_C", "theta_C", "sigma1"))
        v_des = target_speed(
            preview_max_curvature(sc.profile, s, g.preview_dist), g)
        a_des = longitudinal_accel(s1, v_des, g)
        cmd = steer_derivative_chain(s, e, th, s1, a_des, sc.profile, g,
                                     steering_saturation(s1, g, p), p)
        F = driving_force(a_des, cmd.gamma_des, cmd.gamma_dot,
                          cmd.gamma_ddot, s1, p)
        u = DriveInput(gamma=cmd.gamma_des, gamma_dot=cmd.gamma_dot,
                       gamma_ddot=cmd.gamma_ddot, F_R=F.F_R)
        y = _columns(fig20, i, ("x_G", "y_G", "psi")) + [s1]
        assert loop(fig20.t[i], [s, e, th, s1])[3] \
            == eom_floats(Variant.SKATE_FORCE, y, u, p)[3]


def test_criterion_07_model_equivalence(params):
    reports = {pair: verify_equivalence(pair, params)
               for pair in ("skate_wheel", "appell_lagrange", "alt_pseudo")}
    ok = report(7, all(r.passed for r in reports.values()),
                ", ".join(f"{p}: {r.max_deviation:.2e} (tol {r.tol:g})"
                          for p, r in reports.items()))
    assert ok


def test_criterion_08_constraint_residuals(params, fig13, fig16, fig20, fig21):
    worst = 0.0
    for trace in (fig13, fig16, fig20, fig21):
        worst = max(worst, float(np.max(trace["resid_max"])))
    for name in ("fig14", "fig17"):
        trace = run_scenario(named_scenario(name))
        worst = max(worst, float(np.max(trace["resid_max"])))

    # wheel constraints: open-loop torque-driven run checked per step
    y = [0.0, 0.0, 0.0, 0.1, 18.0, 0.0, 0.0, 0.0]
    dt = 1e-3
    worst_wheel = 0.0
    from nonholo.sim import rk4_step
    for k in range(10000):
        t = k * dt
        u = DriveInput(T_s=0.5 * math.sin(0.8 * t),
                       T_R=120.0 + 60.0 * math.sin(0.4 * t),
                       T_F=40.0 * math.cos(0.6 * t))

        def rhs(tt, yy):
            return eom_rhs(Variant.WHEEL_TORQUE_TORQUE_STEER, yy, u, params)

        y = rk4_step(rhs, t, y, dt)
        res = constraint_residuals(Variant.WHEEL_TORQUE_TORQUE_STEER, y,
                                   rhs(t, y), u, params)
        worst_wheel = max(worst_wheel, float(np.max(np.abs(res))))
    ok = report(8, worst < 1e-8 and worst_wheel < 1e-8,
                f"max skate-trace residual = {worst:.2e}, "
                f"max wheel residual = {worst_wheel:.2e} (tol 1e-8)")
    assert ok


def test_resid_max_matches_scalar_reference(params, fig13, fig16, fig17,
                                            fig20, fig21):
    """resid_max, computed on whole columns, equals the scalar
    models.constraint_residuals on Earth-frame rates rebuilt row by row."""
    l, d = params.l, params.d
    for name, trace in (("fig13", fig13), ("fig16", fig16), ("fig17", fig17),
                        ("fig20", fig20), ("fig21", fig21)):
        sc = named_scenario(name)
        table = _build_table(sc)
        V = sc.V if sc.variant.constrained_speed else None
        for i in np.linspace(0, len(trace.t) - 1, 40).astype(int):
            s, e, th, gam, sp, psi = _columns(
                trace, i, ("s_C", "e_C", "theta_C", "gamma", "sigma1", "psi"))
            kap = sc.profile.kappa(s)
            q = PathQuery(s_C=s, e_C=e, psi_C=table.pose_at(s)[2],
                          kappa_C=kap, theta_C=th)
            xd, yd, pd = frame_rates_inverse(
                *rates(kap, e, th, sp, math.tan(gam), l), q)
            dy = [xd - d * pd * math.sin(psi), yd + d * pd * math.cos(psi), pd]
            # gamma is state 3 of the torque-steer model, an input otherwise
            y = _columns(trace, i, ("x_G", "y_G", "psi")) + [gam]
            ref = np.max(np.abs(constraint_residuals(
                sc.variant, y, dy, DriveInput(gamma=gam), params, V)))
            assert abs(trace["resid_max"][i] - ref) <= 1e-12, (name, i)


def test_criterion_09_constraining_force_oracles(params):
    rng = np.random.default_rng(42)
    worst_lag, worst_newton = 0.0, 0.0
    for _ in range(1000):
        sigma1 = rng.uniform(1.0, 30.0)
        psi = rng.uniform(-math.pi, math.pi)
        gamma = rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
        gd = rng.uniform(-0.5, 0.5)
        gdd = rng.uniform(-1.0, 1.0)
        F_R = rng.uniform(-2000.0, 2000.0)
        F_F = rng.uniform(-2000.0, 2000.0)
        forces = constraining_forces(sigma1, gamma, gd, gdd, F_R, F_F, params)
        lam = oracles.lagrange_multipliers(sigma1, gamma, gd, gdd, F_R, F_F,
                                           params)
        newton = oracles.newtonian_forces(sigma1, psi, gamma, gd, gdd, F_R,
                                          F_F, params)
        worst_lag = max(worst_lag, abs(forces.F_R_lat + lam[0]),
                        abs(forces.F_F_lat + lam[1]))
        worst_newton = max(worst_newton, abs(forces.F_R_lat - newton[0]),
                           abs(forces.F_F_lat - newton[1]))
    ok = report(9, worst_lag < 1e-10 and worst_newton < 1e-9,
                f"vs Lagrange multipliers: {worst_lag:.2e} (tol 1e-10), "
                f"vs Newtonian forces: {worst_newton:.2e} (tol 1e-9) "
                f"at 1000 random states")
    assert ok


def test_criterion_10_stability_map():
    k1 = np.linspace(-2.0, 0.5, 50)
    k2 = np.linspace(-0.05, 0.1, 50)
    total, agreed = 0, 0
    for kappa in (0.0, 1.0 / 200.0, 0.004 * math.pi):
        for row in stability_grid(k1, k2, kappa, 20.0, 2.57):
            if row[5]:
                continue
            total += 1
            agreed += int(row[4])
    ok = report(10, total > 0 and agreed == total,
                f"{agreed}/{total} grid points agree outside the boundary band")
    assert ok


def test_criterion_11_wrapper_family():
    worst = 0.0
    xs = np.linspace(-4.0, 4.0, 100)
    for n in range(2, 9):
        for x in xs:
            got = wrapper(WrapperSpec(n, 1.0), float(x))
            ref = oracles.wrapper_by_quadrature(n, 1.0, float(x))
            worst = max(worst, abs(got - ref))
    clamp_exact = all(
        wrapper(WrapperSpec(math.inf, 0.7), x)
        == min(max(x, -0.7), 0.7)
        for x in np.linspace(-3.0, 3.0, 41))
    ok = report(11, worst < 1e-8 and clamp_exact,
                f"recurrence vs quadrature: {worst:.2e} over n = 2..8 at "
                f"100 points (tol 1e-8); clamp exact: {clamp_exact}")
    assert ok


def test_criterion_12_derivative_chain(params, gains, fig16):
    V = 20.0
    gsat = steering_saturation(V, gains, params)
    prof = CurvatureProfile.periodic(4, 250.0)

    worst1, worst2 = 0.0, 0.0
    idx = np.linspace(5000, len(fig16.t) - 1, 8).astype(int)
    for i in idx:
        y0 = np.array([fig16["s_C"][i], fig16["e_C"][i], fig16["theta_C"][i]])
        cmd = steer_derivative_chain(y0[0], y0[1], y0[2], V, 0.0, prof,
                                     gains, gsat, params)
        fd1, fd2 = oracles.steer_derivatives_by_flow(y0, V, prof, gains,
                                                     gsat, params)
        worst1 = max(worst1, abs(fd1 - cmd.gamma_dot))
        worst2 = max(worst2, abs(fd2 - cmd.gamma_ddot))
    ok = report(12, worst1 < 1e-6 and worst2 < 1e-4,
                f"gamma_dot vs FD: {worst1:.2e} (tol 1e-6), "
                f"gamma_ddot vs FD: {worst2:.2e} (tol 1e-4) "
                f"at 8 states along the simulated flow")
    assert ok


def test_criterion_13_path_closure():
    details = []
    ok = True
    for N in (2, 3, 4, 5):
        table = build_path(CurvatureProfile.periodic(N, 250.0))
        gap = math.hypot(table.x[-1] - table.x[0], table.y[-1] - table.y[0])
        heading = table.psi[-1] - table.psi[0]
        good = gap < 1e-6 * table.perimeter \
            and abs(heading - 2.0 * math.pi) < 1e-9
        ok = ok and good
        details.append(f"N={N}: gap {gap:.1e} m, heading {heading:.12f}")
    ok = report(13, ok, "; ".join(details))
    assert ok


def test_traces_match_benchmark_reference(fig13, fig16, fig17, fig18, fig20,
                                          fig21):
    """Seed-0 digests of the named figures agree with perfbench's reference.

    The benchmark's own digest and comparison (1e-12, relative above 1) are
    used, so a change that moves a trace fails here as well as there.
    """
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        checks = importlib.import_module("checks")
    finally:
        sys.path.remove(bench)
    traces = {"lateral": {"fig13": fig13, "fig16": fig16, "fig17": fig17,
                          "fig18": fig18},
              "longitudinal": {"fig20": fig20, "fig21": fig21}}
    problems = []
    for workload, figures in traces.items():
        reference = checks.load_reference(workload)
        for name, trace in figures.items():
            assert name in reference, f"{workload}/{name} has no digest"
            problems += checks.compare(checks.trace_digest(trace),
                                       reference[name], name)
    assert not problems, problems[:10]
