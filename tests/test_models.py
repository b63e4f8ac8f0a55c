import math

import numpy as np
import pytest

from nonholo.errors import LagrangeSingularity, SteeringSingularity
from nonholo.models import (DriveInput, Variant,
                            constraining_forces, constraint_residuals, eom_rhs)
from nonholo.params import GRAVITY

import oracles


def random_state_and_input(rng, variant, gamma_limit=1.3):
    fields = variant.states
    y = []
    for name in fields:
        if name in ("x_G", "y_G"):
            y.append(rng.uniform(-100.0, 100.0))
        elif name in ("psi", "phi_R", "phi_F"):
            y.append(rng.uniform(-math.pi, math.pi))
        elif name == "gamma":
            y.append(rng.uniform(-gamma_limit, gamma_limit))
        elif name.startswith("sigma1"):
            y.append(rng.uniform(1.0, 30.0))
        else:
            y.append(rng.uniform(-1.0, 1.0))
    kwargs = {}
    if "gamma" not in fields:
        kwargs["gamma"] = rng.uniform(-gamma_limit, gamma_limit)
        if variant is Variant.SKATE_FORCE_LAGRANGE:
            kwargs["gamma"] = rng.uniform(0.05, gamma_limit) * rng.choice([-1, 1])
        if not variant.constrained_speed:
            kwargs["gamma_dot"] = rng.uniform(-0.5, 0.5)
            kwargs["gamma_ddot"] = rng.uniform(-1.0, 1.0)
    if variant.wheel and not variant.constrained_speed:
        kwargs["T_R"] = rng.uniform(-600.0, 600.0)
        kwargs["T_F"] = rng.uniform(-600.0, 600.0)
    elif not variant.constrained_speed and not variant.wheel:
        kwargs["F_R"] = rng.uniform(-2000.0, 2000.0)
        kwargs["F_F"] = rng.uniform(-2000.0, 2000.0)
    if "sigma2" in fields:
        kwargs["T_s"] = rng.uniform(-1.0, 1.0)
    V = rng.uniform(5.0, 30.0) if variant.constrained_speed else None
    return y, DriveInput(**kwargs), V


# what each row of Variant states, written out by value: the state fields,
# the inputs read, and the sets of variants behind each flag
FORCE_INPUTS = ("gamma", "gamma_dot", "gamma_ddot", "F_R", "F_F")
ROWS = {
    "skate_kinematic": (("x_G", "y_G", "psi"), ("gamma",)),
    "skate_force": (("x_G", "y_G", "psi", "sigma1"), FORCE_INPUTS),
    "skate_torque_steer": (("x_G", "y_G", "psi", "gamma", "sigma2"),
                           ("T_s",)),
    "skate_force_torque_steer": (
        ("x_G", "y_G", "psi", "gamma", "sigma1", "sigma2"),
        ("T_s", "F_R", "F_F")),
    "wheel_kinematic": (("x_G", "y_G", "psi", "phi_R", "phi_F"), ("gamma",)),
    "wheel_torque": (("x_G", "y_G", "psi", "sigma1", "phi_R", "phi_F"),
                     ("gamma", "gamma_dot", "gamma_ddot", "T_R", "T_F")),
    "wheel_torque_steer": (
        ("x_G", "y_G", "psi", "gamma", "sigma2", "phi_R", "phi_F"), ("T_s",)),
    "wheel_torque_torque_steer": (
        ("x_G", "y_G", "psi", "gamma", "sigma1", "sigma2", "phi_R", "phi_F"),
        ("T_s", "T_R", "T_F")),
    "skate_force_alt_pseudo": (("x_G", "y_G", "psi", "sigma1_hat"),
                               FORCE_INPUTS),
    "skate_force_lagrange": (("x_G", "y_G", "psi", "sigma1_bar"),
                             FORCE_INPUTS),
}
CONSTANT_SPEED = {"skate_kinematic", "skate_torque_steer", "wheel_kinematic",
                  "wheel_torque_steer"}
WHEEL = {"wheel_kinematic", "wheel_torque", "wheel_torque_steer",
         "wheel_torque_torque_steer"}
TORQUE_STEER = {"skate_torque_steer", "skate_force_torque_steer",
                "wheel_torque_steer", "wheel_torque_torque_steer"}


class TestVariantRows:
    def test_values_states_and_inputs(self):
        assert [v.value for v in Variant] == list(ROWS)
        for value, (states, inputs) in ROWS.items():
            variant = Variant(value)
            assert variant.value == value
            assert variant.states == states
            assert variant.inputs == inputs
            assert variant.n_states == len(states)

    def test_flags(self):
        assert {v.value for v in Variant if v.constrained_speed} == \
            CONSTANT_SPEED
        assert {v.value for v in Variant if v.wheel} == WHEEL
        assert {v.value for v in Variant if v.torque_steer} == TORQUE_STEER

    def test_forbidden_inputs(self):
        for variant in Variant:
            assert variant.forbidden == tuple(
                n for n in DriveInput._fields if n not in variant.inputs)
            assert variant.forbidden_zeros == (0.0,) * len(variant.forbidden)
            assert variant.forbidden_values(DriveInput()) == \
                variant.forbidden_zeros


class TestDriveInput:
    FIELDS = ("gamma", "gamma_dot", "gamma_ddot", "F_R", "F_F", "T_R", "T_F",
              "T_s")

    def test_fields_are_read_only(self):
        u = DriveInput(gamma=0.1)
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(u, name, 1.0)
        assert u == DriveInput(gamma=0.1)

    def test_keyword_construction_and_defaults(self):
        assert DriveInput._fields == self.FIELDS
        assert tuple(DriveInput()) == (0.0,) * 8
        for i, name in enumerate(self.FIELDS):
            u = DriveInput(**{name: 2.5})
            assert getattr(u, name) == 2.5
            assert tuple(u) == (0.0,) * i + (2.5,) + (0.0,) * (7 - i)
        assert DriveInput(0.1, 0.2, 0.3, F_R=4.0) == \
            DriveInput(gamma=0.1, gamma_dot=0.2, gamma_ddot=0.3, F_R=4.0)
        with pytest.raises(TypeError):
            DriveInput(torque=1.0)

    def test_validate_for_names_first_nonzero_forbidden_input(self):
        for variant in Variant:
            DriveInput().validate_for(variant)
            # -0.0 == 0.0, so a negative zero is not an input
            DriveInput(**dict.fromkeys(variant.forbidden, -0.0)) \
                .validate_for(variant)
            for i, name in enumerate(variant.forbidden):
                later = dict.fromkeys(variant.forbidden[i:], 1.0)
                for value in (1.0, -1e-300, math.nan, math.inf):
                    u = DriveInput(**{**later, name: value})
                    with pytest.raises(
                            ValueError,
                            match=f"^input {name} is not used by "
                                  f"{variant.value} and must be zero$"):
                        u.validate_for(variant)


class TestKinematicExamples:
    def test_straight_motion(self, params):
        dy = eom_rhs(Variant.SKATE_KINEMATIC, [0.0, 0.0, 0.0],
                     DriveInput(gamma=0.0), params, V=20.0)
        assert np.allclose(dy, [20.0, 0.0, 0.0])

    def test_yaw_rate_on_circle(self, params):
        rho = 100.0
        gamma = math.atan(params.l / rho)
        dy = eom_rhs(Variant.SKATE_KINEMATIC, [0.0, 0.0, 0.0],
                     DriveInput(gamma=gamma), params, V=20.0)
        assert dy[2] == pytest.approx(20.0 / rho, rel=1e-12)

    def test_wheel_kinematic_spin_rates(self, params):
        gamma = 0.2
        V = 18.0
        dy = eom_rhs(Variant.WHEEL_KINEMATIC, [0.0, 0.0, 0.3, 0.0, 0.0],
                     DriveInput(gamma=gamma), params, V=V)
        skate = eom_rhs(Variant.SKATE_KINEMATIC, [0.0, 0.0, 0.3],
                        DriveInput(gamma=gamma), params, V=V)
        assert np.allclose(dy[:3], skate)
        assert dy[3] == pytest.approx(V / params.r)
        assert dy[4] == pytest.approx(V / (params.r * math.cos(gamma)))

    def test_point_R_reduction(self, params, rng):
        # the rear axle point obeys x_R' = sigma1 cos(psi), y_R' = sigma1 sin(psi)
        for _ in range(50):
            y, u, V = random_state_and_input(rng, Variant.SKATE_FORCE)
            dy = eom_rhs(Variant.SKATE_FORCE, y, u, params)
            psi, sigma1 = y[2], y[3]
            psidot = dy[2]
            xRdot = dy[0] + params.d * psidot * math.sin(psi)
            yRdot = dy[1] - params.d * psidot * math.cos(psi)
            assert xRdot == pytest.approx(sigma1 * math.cos(psi), abs=1e-10)
            assert yRdot == pytest.approx(sigma1 * math.sin(psi), abs=1e-10)


class TestConstraintResiduals:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_residuals_vanish(self, variant, params, rng):
        worst = 0.0
        for _ in range(1000):
            y, u, V = random_state_and_input(rng, variant)
            dy = eom_rhs(variant, y, u, params, V=V)
            assert type(dy) is np.ndarray and dy.dtype == np.float64
            # the state's container does not change a bit of the result
            for same in (tuple(y), np.array(y)):
                assert eom_rhs(variant, same, u, params,
                               V=V).tobytes() == dy.tobytes()
            res = constraint_residuals(variant, y, dy, u, params, V=V)
            worst = max(worst, float(np.max(np.abs(res))))
        assert worst < 1e-12

    def test_residual_count(self, params, rng):
        cases = {
            Variant.SKATE_FORCE: 2,
            Variant.SKATE_KINEMATIC: 3,
            Variant.WHEEL_TORQUE: 4,
            Variant.WHEEL_KINEMATIC: 5,
        }
        for variant, n in cases.items():
            y, u, V = random_state_and_input(rng, variant)
            dy = eom_rhs(variant, y, u, params, V=V)
            assert len(constraint_residuals(variant, y, dy, u, params, V=V)) == n


class TestSkateWheelEquivalence:
    def test_rhs_match_under_torque_mapping(self, params, rng):
        for _ in range(100):
            y, u, _ = random_state_and_input(rng, Variant.SKATE_FORCE)
            ut = DriveInput(gamma=u.gamma, gamma_dot=u.gamma_dot,
                            gamma_ddot=u.gamma_ddot,
                            T_R=params.r * u.F_R, T_F=params.r * u.F_F)
            dy_s = eom_rhs(Variant.SKATE_FORCE, y, u, params)
            dy_w = eom_rhs(Variant.WHEEL_TORQUE, list(y) + [0.1, -0.2],
                           ut, params)
            assert np.allclose(dy_w[:4], dy_s, rtol=1e-12, atol=1e-12)

    def test_wheel_angles_decoupled(self, params, rng):
        for variant in map(Variant, sorted(WHEEL)):
            y, u, V = random_state_and_input(rng, variant)
            dy = eom_rhs(variant, y, u, params, V=V)
            y2 = list(y)
            y2[-2] += 2.1
            y2[-1] -= 4.7
            dy2 = eom_rhs(variant, y2, u, params, V=V)
            assert np.array_equal(dy, dy2)


class TestAppellMatrixOracle:
    def test_torque_steer_accelerations_solve_the_appell_system(self, params,
                                                                rng):
        # the printed closed forms vs a direct solve of the 2x2 system
        # M [s1', s2']^T = [Pi1, T_s]^T - gyroscopic terms
        p = params
        worst = 0.0
        for _ in range(200):
            g = rng.uniform(-1.3, 1.3)
            s1 = rng.uniform(1.0, 30.0)
            s2 = rng.uniform(-1.0, 1.0)
            F_R = rng.uniform(-2000.0, 2000.0)
            F_F = rng.uniform(-2000.0, 2000.0)
            T_s = rng.uniform(-1.0, 1.0)
            t, c = math.tan(g), math.cos(g)
            M = np.array([[p.m1 + p.m2 * t * t, p.J_F / p.l * t],
                          [p.J_F / p.l * t, p.J_F]])
            rhs = np.array([F_R + F_F / c - p.m2 * t / c ** 2 * s1 * s2,
                            T_s - p.J_F / (p.l * c * c) * s1 * s2])
            sig = np.linalg.solve(M, rhs)
            u = DriveInput(T_s=T_s, F_R=F_R, F_F=F_F)
            dy = eom_rhs(Variant.SKATE_FORCE_TORQUE_STEER,
                         [0.0, 0.0, 0.3, g, s1, s2], u, params)
            worst = max(worst, abs(dy[4] - sig[0]), abs(dy[5] - sig[1]))
        assert worst < 1e-12


class TestAlternateForms:
    def test_alt_pseudo_rhs_consistency(self, params, rng):
        # with sigma1_hat = sigma1/cos(gamma) both forms give the same
        # (x', y', psi') and d/dt sigma1_hat = (d/dt sigma1)/cos + sigma1*...
        for _ in range(50):
            y, u, _ = random_state_and_input(rng, Variant.SKATE_FORCE)
            g = u.gamma
            y_alt = [y[0], y[1], y[2], y[3] / math.cos(g)]
            dy = eom_rhs(Variant.SKATE_FORCE, y, u, params)
            dy_alt = eom_rhs(Variant.SKATE_FORCE_ALT_PSEUDO, y_alt, u, params)
            assert np.allclose(dy_alt[:3], dy[:3], rtol=1e-10, atol=1e-12)
            expected = dy[3] / math.cos(g) \
                + y[3] * u.gamma_dot * math.sin(g) / math.cos(g) ** 2
            assert dy_alt[3] == pytest.approx(expected, rel=1e-9, abs=1e-10)

    def test_alt_pseudo_regular_at_pi_half(self, params):
        u = DriveInput(gamma=0.5 * math.pi, F_R=100.0)
        dy = eom_rhs(Variant.SKATE_FORCE_ALT_PSEUDO, [0, 0, 0, 10.0], u, params)
        assert np.all(np.isfinite(dy))

    def test_lagrange_rhs_consistency(self, params, rng):
        for _ in range(50):
            y, u, _ = random_state_and_input(rng, Variant.SKATE_FORCE_LAGRANGE)
            g = u.gamma
            sigma1 = y[3]
            y_lag = [y[0], y[1], y[2], sigma1 * math.tan(g) / params.l]
            dy = eom_rhs(Variant.SKATE_FORCE, y, u, params)
            dy_lag = eom_rhs(Variant.SKATE_FORCE_LAGRANGE, y_lag, u, params)
            assert np.allclose(dy_lag[:3], dy[:3], rtol=1e-9, atol=1e-11)
            # sigma1_bar = psi' so its derivative is psi''
            psidd = dy[3] * math.tan(g) / params.l \
                + sigma1 * u.gamma_dot / (params.l * math.cos(g) ** 2)
            assert dy_lag[3] == pytest.approx(psidd, rel=1e-9, abs=1e-11)

    def test_lagrange_singular_at_zero(self, params):
        u = DriveInput(gamma=0.0, F_R=10.0)
        with pytest.raises(LagrangeSingularity):
            eom_rhs(Variant.SKATE_FORCE_LAGRANGE, [0, 0, 0, 0.1], u, params)

    def test_steering_guard(self, params):
        u = DriveInput(gamma=0.5 * math.pi - 1e-10)
        with pytest.raises(SteeringSingularity):
            eom_rhs(Variant.SKATE_KINEMATIC, [0, 0, 0], u, params, V=10.0)

    def test_unused_inputs_rejected(self, params):
        with pytest.raises(ValueError, match="T_s"):
            eom_rhs(Variant.SKATE_KINEMATIC, [0, 0, 0],
                    DriveInput(gamma=0.1, T_s=1.0), params, V=10.0)
        with pytest.raises(ValueError, match="F_R"):
            eom_rhs(Variant.WHEEL_TORQUE, [0, 0, 0, 10, 0, 0],
                    DriveInput(gamma=0.1, F_R=5.0), params)
        # every variant: each input it does not use, a state of the wrong
        # length, and a missing constant speed
        for variant in Variant:
            y = [0.0, 0.0, 0.0] + [0.5] * (len(variant.states) - 3)
            u = DriveInput()
            V = 10.0 if variant.constrained_speed else None
            for name in ("gamma", "gamma_dot", "gamma_ddot", "F_R", "F_F",
                         "T_R", "T_F", "T_s"):
                if name not in variant.inputs:
                    with pytest.raises(ValueError, match=name):
                        eom_rhs(variant, y, DriveInput(**{name: 1.0}),
                                params, V=V)
            for bad in (y[:-1], y + [0.0]):
                with pytest.raises(ValueError, match="expects"):
                    eom_rhs(variant, bad, u, params, V=V)
            if V is not None:
                for bad_V in (None, 0.0, -1.0):
                    with pytest.raises(ValueError, match="V > 0"):
                        eom_rhs(variant, y, u, params, V=bad_V)


class TestConstrainingForces:
    def test_zero_at_straight_steering(self, params):
        forces = constraining_forces(25.0, 0.0, 0.0, 0.0, 800.0, 0.0, params)
        assert forces.F_R_lat == 0.0
        assert forces.F_F_lat == 0.0

    def test_matches_lagrange_multipliers(self, params, rng):
        worst = 0.0
        for _ in range(300):
            sigma1 = rng.uniform(1.0, 30.0)
            gamma = rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
            gd = rng.uniform(-0.5, 0.5)
            gdd = rng.uniform(-1.0, 1.0)
            F_R = rng.uniform(-2000.0, 2000.0)
            F_F = rng.uniform(-2000.0, 2000.0)
            forces = constraining_forces(sigma1, gamma, gd, gdd, F_R, F_F, params)
            lam1, lam2 = oracles.lagrange_multipliers(
                sigma1, gamma, gd, gdd, F_R, F_F, params)
            worst = max(worst, abs(forces.F_R_lat + lam1),
                        abs(forces.F_F_lat + lam2))
        assert worst < 1e-10

    def test_matches_newtonian_evaluation(self, params, rng):
        worst = 0.0
        for _ in range(300):
            sigma1 = rng.uniform(1.0, 30.0)
            psi = rng.uniform(-math.pi, math.pi)
            gamma = rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
            gd = rng.uniform(-0.5, 0.5)
            gdd = rng.uniform(-1.0, 1.0)
            F_R = rng.uniform(-2000.0, 2000.0)
            F_F = rng.uniform(-2000.0, 2000.0)
            forces = constraining_forces(sigma1, gamma, gd, gdd, F_R, F_F, params)
            newt = oracles.newtonian_forces(
                sigma1, psi, gamma, gd, gdd, F_R, F_F, params)
            worst = max(worst, abs(forces.F_R_lat - newt[0]),
                        abs(forces.F_F_lat - newt[1]))
        assert worst < 1e-9

    def test_force_to_weight_ratio_definition(self, params):
        forces = constraining_forces(20.0, 0.3, 0.1, 0.05, 500.0, 200.0, params)
        l, d, m1 = params.l, params.d, params.m1
        assert forces.mu_R == pytest.approx(
            forces.F_R_lat * l / (m1 * GRAVITY * (l - d)), rel=1e-14)
        assert forces.mu_F == pytest.approx(
            forces.F_F_lat * l / (m1 * GRAVITY * d), rel=1e-14)

