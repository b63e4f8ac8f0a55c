import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonholo.errors import AmbiguousProjection, NonClosure, TubeSingularity
from nonholo import path as path_module
from nonholo.path import (CurvatureProfile, PathQuery, PathTable, build_path,
                          frame_rates, frame_rates_inverse, reconstruct_pose,
                          wrap_angle, write_csv)
from oracles import frenet_table_by_loop

KAPPA_N4 = 0.004 * math.pi


def _read_csv(path, closed):
    """A table read back from ``PathTable.to_csv``, as strided column views."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return PathTable(*data.T, closed=closed)


class TestCurvatureProfile:
    def test_periodic_zero_at_origin(self, n4_profile):
        assert n4_profile.kappa(0.0) == 0.0

    def test_periodic_peak_at_half_period(self, n4_profile):
        assert n4_profile.kappa(125.0) == pytest.approx(
            n4_profile.kappa_max, rel=1e-15)

    def test_table5_peak_curvature(self, n4_profile):
        assert n4_profile.kappa_max == pytest.approx(KAPPA_N4, rel=1e-12)

    def test_straight_and_circle(self):
        assert CurvatureProfile.straight().kappa(123.4) == 0.0
        assert CurvatureProfile.circle(200.0).kappa(-5.0) == 0.005

    @given(st.floats(-2000.0, 2000.0))
    def test_periodicity(self, s):
        prof = CurvatureProfile.periodic(4, 250.0)
        assert prof.kappa(s + 250.0) == pytest.approx(prof.kappa(s), abs=1e-14)

    def test_closure_condition_enforced(self):
        with pytest.raises(ValueError, match="closure"):
            CurvatureProfile(kind="periodic", kappa_max=0.01, s_T=250.0, N=4)

    @pytest.mark.parametrize("prof", [
        CurvatureProfile.periodic(4, 250.0), CurvatureProfile.periodic(3, 50.0),
        CurvatureProfile.circle(-80.0), CurvatureProfile.straight()])
    def test_array_kappa_matches_scalar(self, prof):
        s = np.linspace(-300.0, 1300.0, 4001)
        expected = [prof.kappa(float(v)) for v in s]
        # numpy's cos may differ from libm's in the last bit on some CPUs
        np.testing.assert_allclose(np.broadcast_to(prof.kappa(s, np.cos),
                                                   s.shape),
                                   expected, rtol=0.0, atol=1e-15)

    def test_derivatives_match_finite_differences(self, n4_profile):
        h = 1e-6
        for s in (3.0, 70.0, 125.0, 200.0):
            fd1 = (n4_profile.kappa(s + h) - n4_profile.kappa(s - h)) / (2 * h)
            fd2 = (n4_profile.kappa(s + h) - 2 * n4_profile.kappa(s)
                   + n4_profile.kappa(s - h)) / h ** 2
            assert n4_profile.kappa_prime(s) == pytest.approx(fd1, abs=1e-9)
            assert n4_profile.kappa_second(s) == pytest.approx(fd2, abs=1e-4)


class TestBuildPath:
    def test_straight(self):
        table = build_path(CurvatureProfile.straight(), step=0.5, length=100.0)
        assert np.all(table.psi == 0.0)
        assert np.all(table.y == 0.0)
        assert table.x[0] == 0.0 and table.x[-1] == pytest.approx(100.0)

    def test_heading_gain_per_period(self, n4_table):
        # integral of the periodic curvature over one period is kappa_max*s_T/2
        i = int(round(250.0 / n4_table.step))
        assert n4_table.psi[i] - n4_table.psi[0] == pytest.approx(
            math.pi / 2.0, abs=1e-9)

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_closed_figures(self, N):
        table = build_path(CurvatureProfile.periodic(N, 250.0))
        assert table.closed
        assert table.perimeter == pytest.approx(N * 250.0)
        gap = math.hypot(table.x[-1] - table.x[0], table.y[-1] - table.y[0])
        assert gap < 1e-6 * table.perimeter
        assert table.psi[-1] == pytest.approx(2.0 * math.pi, abs=1e-9)
        # N corners: N local maxima of curvature along the lap
        k = table.kappa[:-1]
        peaks = np.count_nonzero((k > np.roll(k, 1)) & (k > np.roll(k, -1)))
        assert peaks == N

    def test_nonclosure_guard(self, n4_table):
        # the N-fold symmetry cancels per-period integration error, so a
        # defective closed table is the way to exercise the guard
        y = n4_table.y.copy()
        y[-1] += 0.01
        with pytest.raises(NonClosure):
            PathTable(n4_table.s, n4_table.x, y, n4_table.psi,
                      n4_table.kappa, closed=True)

    def test_initial_pose_offsets(self):
        table = build_path(CurvatureProfile.straight(), step=0.5, length=10.0,
                           x0=3.0, y0=-2.0, psi0=math.pi / 2.0)
        assert table.x[-1] == pytest.approx(3.0, abs=1e-12)
        assert table.y[-1] == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("prof,kwargs", [
        (CurvatureProfile.straight(), dict(length=1234.5)),
        (CurvatureProfile.circle(200.0), {}),
        (CurvatureProfile.circle(-80.0), {}),
        (CurvatureProfile.periodic(4, 250.0), {}),
        (CurvatureProfile.periodic(4, 50.0), {}),
        (CurvatureProfile.periodic(3, 250.0), dict(step=0.05)),
        (CurvatureProfile.periodic(5, 250.0), dict(step=0.07, length=900.0)),
        (CurvatureProfile.periodic(4, 250.0),
         dict(x0=3.0, y0=-2.0, psi0=0.7)),
    ])
    def test_matches_scalar_loop(self, prof, kwargs):
        table = build_path(prof, **kwargs)
        step = kwargs.pop("step", 0.1)
        expected = frenet_table_by_loop(prof, step, **kwargs)
        for name, col in zip(PathTable._COLUMNS, expected):
            got = getattr(table, name)
            assert got.shape == col.shape
            assert np.max(np.abs(got - col)) <= 1e-12, name

    @pytest.mark.parametrize("kwargs,key", [
        (dict(step=0.0), "step"), (dict(step=-0.1), "step"),
        (dict(step=math.nan), "step"), (dict(step=math.inf), "step"),
        (dict(length=0.0), "length"), (dict(length=-5.0), "length"),
        (dict(length=math.nan), "length"), (dict(length=math.inf), "length"),
        (dict(length=1e17), "length"),
        (dict(length=1e300, step=1e-300), "step"),
        (dict(length=10.0, step=1e-9), "step"),
        (dict(), "length"),
    ])
    def test_bad_step_or_length_names_the_key(self, kwargs, key):
        with pytest.raises(ValueError, match=f"key '{key}'"):
            build_path(CurvatureProfile.straight(), **kwargs)

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(path_module, "PATH_STEPS_MAX", 100)
        at_cap = build_path(CurvatureProfile.straight(), step=1.0, length=100.0)
        assert len(at_cap.s) == 101
        with pytest.raises(ValueError, match="key 'length'"):
            build_path(CurvatureProfile.straight(), step=1.0, length=101.0)
        # a closed figure's length is its own, so its step is named
        with pytest.raises(ValueError, match="key 'step'"):
            build_path(CurvatureProfile.periodic(4, 250.0), step=1.0)

    def test_csv_round_trip(self, tmp_path, n4_table):
        dest = tmp_path / "path.csv"
        n4_table.to_csv(dest)
        header = dest.read_text().splitlines()[0]
        assert header == "s,x,y,psi,kappa"
        back = _read_csv(dest, closed=True)
        assert np.allclose(back.x, n4_table.x, atol=1e-9)
        assert np.allclose(back.psi, n4_table.psi, atol=1e-9)


def test_write_csv_matches_row_wise_format(tmp_path, rng):
    # 2500 rows cross several block boundaries and end in a partial block;
    # the expected bytes are those of the row-by-row f-string writer
    n = 2500
    special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e300,
               0.0, 1.0, 0.1, 1.0 / 3.0, 123456789012.5, 2.0 ** 53]
    cols = [np.arange(n) * 0.001,
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            None,
            np.resize(np.array(special), n),
            [float(v) for v in rng.uniform(-1e6, 1e6, n)],
            [i % 2 for i in range(n)]]
    header = ["t", "wide", "absent", "special", "listed", "flag"]
    dest = tmp_path / "out.csv"
    write_csv(dest, header, cols)
    expected = ",".join(header) + "\n" + "".join(
        ",".join("" if c is None else f"{c[i]:.12g}" for c in cols)
        + "\n" for i in range(n))
    assert dest.read_bytes() == expected.encode("utf-8")


class TestWrapAngle:
    def test_range_and_ties(self):
        assert wrap_angle(math.pi) == -math.pi
        assert wrap_angle(-math.pi) == -math.pi
        assert wrap_angle(3.0 * math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(0.25) == 0.25

    @given(st.floats(-50.0, 50.0))
    def test_wrapped_into_interval(self, angle):
        w = wrap_angle(angle)
        assert -math.pi <= w < math.pi
        # differs from the input by an integer number of turns
        turns = (angle - w) / (2.0 * math.pi)
        assert turns == pytest.approx(round(turns), abs=1e-9)


class TestProjection:
    def test_point_on_path(self, n4_table):
        i = 4000
        q = n4_table.project(float(n4_table.x[i]), float(n4_table.y[i]),
                             float(n4_table.psi[i]))
        assert q.e_C == pytest.approx(0.0, abs=1e-9)
        assert q.theta_C == pytest.approx(0.0, abs=1e-12)
        assert q.s_C == pytest.approx(n4_table.s[i], abs=1e-6)

    def test_straight_path_by_construction(self, straight_table):
        q = straight_table.project(5.0, 2.0, 0.1)
        assert q.s_C == pytest.approx(5.0, abs=1e-9)
        assert q.e_C == pytest.approx(2.0, abs=1e-12)
        assert q.theta_C == pytest.approx(0.1, abs=1e-12)

    def test_left_normal_offset(self, n4_table):
        i = int(round(37.5 / n4_table.step))
        psi = float(n4_table.psi[i])
        x = float(n4_table.x[i]) - math.sin(psi)
        y = float(n4_table.y[i]) + math.cos(psi)
        q = n4_table.project(x, y, psi)
        assert q.e_C == pytest.approx(1.0, abs=1e-6)
        assert q.s_C == pytest.approx(37.5, abs=1e-6)

    def test_ambiguous_at_circle_center(self):
        rho = 50.0
        s = np.linspace(0.0, 2 * math.pi * rho, 3142)
        table = PathTable(s, rho * np.sin(s / rho), rho * (1 - np.cos(s / rho)),
                          s / rho, np.full_like(s, 1.0 / rho), closed=True)
        with pytest.raises(AmbiguousProjection):
            table.project(0.0, rho, 0.0)

    def test_hint_keeps_s_continuous_across_seam(self, n4_table):
        # a query just past the seam, hinted from just before it
        q = n4_table.project(float(n4_table.x[3]), float(n4_table.y[3]),
                             float(n4_table.psi[3]), hint=999.8)
        assert q.s_C == pytest.approx(1000.3, abs=1e-6)

    def test_round_trip_pose(self, n4_table, rng):
        # reconstruct a pose from path coordinates, project it, rebuild it
        for _ in range(200):
            s = rng.uniform(0.0, n4_table.perimeter)
            kappa = n4_table.kappa_at(s)
            e_lim = 0.5 / max(abs(kappa), 1e-6)
            e = rng.uniform(-min(e_lim, 30.0), min(e_lim, 30.0))
            theta = rng.uniform(-1.5, 1.5)
            pose = reconstruct_pose(n4_table, s, e, theta)
            q = n4_table.project(*pose, hint=s)
            again = reconstruct_pose(n4_table, q.s_C, q.e_C, q.theta_C)
            assert np.allclose(again, pose, atol=1e-9)
            assert q.e_C == pytest.approx(e, abs=1e-8)

    @pytest.mark.parametrize("args, hint, name", [
        ((math.nan, 0.0, 0.0), 1.0, "x"),
        ((0.0, 0.0, 0.0), math.nan, "hint"),
        ((1.0, 0.0, math.nan), 0.0, "psi"),
        ((math.nan, 0.0, 0.0), None, "x"),
        ((math.inf, 0.0, 0.0), None, "x"),
        ((0.0, -math.inf, math.nan), math.nan, "y"),
    ], ids=["x_hinted", "hint", "psi", "x_unhinted", "x_inf", "first_named"])
    def test_non_finite_input_raises(self, n4_table, args, hint, name):
        with pytest.raises(ValueError, match=f"{name} = "):
            n4_table.project(*args, hint=hint)

    @pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_window_raises(self, n4_table, window):
        for hint in (None, 10.0):
            with pytest.raises(ValueError, match="window = "):
                n4_table.project(1.0, 2.0, 0.1, hint=hint, window=window)

    def test_query_fields_are_floats(self, n4_table):
        for hint in (None, 999.8):
            q = n4_table.project(np.float64(1.0), 2.0, 0.1, hint=hint)
            assert all(type(v) is float for v in q._asdict().values())


class TestTableArrays:
    def test_read_only_copies(self):
        s = np.arange(11) * 0.5
        cols = [s, s.copy(), np.zeros(11), np.zeros(11), np.zeros(11)]
        table = PathTable(*cols, closed=False)
        for name in ("s", "x", "y", "psi", "kappa"):
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 1.0
        assert not np.shares_memory(table.x, cols[1])
        cols[1][0] = 7.0        # the caller's own array stays writable
        assert cols[1][0] == 7.0

    def test_caller_writes_do_not_reach_the_table(self):
        s = np.linspace(0.0, 10.0, 101)
        x = s.copy()
        table = PathTable(s, x, np.zeros(101), np.zeros(101), np.zeros(101),
                          closed=False)
        before = table.pose_at(3.5)     # builds the float mirror
        x[:] = 100.0
        many = tuple(float(v[0]) for v in table.pose_at_many([3.5]))
        assert table.pose_at(3.5) == before == many == (3.5, 0.0, 0.0)

    def test_vectorized_lookup_builds_no_float_mirror(self):
        table = build_path(CurvatureProfile.straight(), length=10.0)
        table.pose_at_many(np.linspace(0.0, 10.0, 7))
        assert "_floats" not in vars(table)

    def test_read_only_view_is_copied(self):
        # a read-only view does not freeze the array under it
        s = np.arange(11) * 0.5
        x = s.copy()
        view = x.view()
        view.flags.writeable = False
        table = PathTable(s, view, np.zeros(11), np.zeros(11), np.zeros(11),
                          closed=False)
        x[:] = 7.0
        assert table.x[3] == 1.5

    def test_build_keeps_its_columns(self):
        # the five fresh columns go into the table as they are, so the peak
        # holds no second copy of them (40 bytes a step)
        tracemalloc.start()
        try:
            table = build_path(CurvatureProfile.periodic(4, 250.0), step=0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (len(table.s) - 1) < 128


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_scalar_lookup_of_non_finite_s_raises(s, n4_table, straight_table):
    for table in (n4_table, straight_table):
        for lookup in (table.pose_at, table.kappa_at):
            with pytest.raises(ValueError, match=f"s = {s}"):
                lookup(s)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
@pytest.mark.filterwarnings("error")
def test_vectorized_lookup_of_non_finite_s_raises(s, n4_table,
                                                  straight_table):
    for table in (n4_table, straight_table):
        with pytest.raises(ValueError, match=f"s = {s}"):
            table.pose_at_many([1.0, s, 2.0])


def _csv_table(tmp_path):
    # nonzero s0, read back as strided column views of one array
    src = build_path(CurvatureProfile.periodic(3, 200.0))
    PathTable(src.s + 37.0, src.x, src.y, src.psi, src.kappa,
              closed=True).to_csv(tmp_path / "t.csv")
    return _read_csv(tmp_path / "t.csv", closed=True)


@pytest.mark.parametrize("kind", ["open", "closed_seam", "clockwise", "csv"])
def test_pose_at_many_matches_pose_at(kind, tmp_path, rng):
    # the vectorized lookup against the scalar reference; np.cos and
    # math.cos may differ in the last bit, so not bitwise
    if kind == "open":
        table = build_path(CurvatureProfile.straight(), length=200.0,
                           psi0=0.7)
        s = np.concatenate([rng.uniform(-50.0, 250.0, 400),
                            [-1.0, 0.0, 200.0, 201.0]])
    elif kind == "closed_seam":
        table = build_path(CurvatureProfile.periodic(4, 250.0))
        s = np.concatenate([rng.uniform(-2.0, 2.0, 200),
                            rng.uniform(998.0, 1002.0, 200),
                            rng.uniform(-3000.0, 3000.0, 200)])
    elif kind == "clockwise":
        table = build_path(CurvatureProfile.circle(-80.0))
        s = rng.uniform(-600.0, 1200.0, 400)
    else:
        table = _csv_table(tmp_path)
        s = np.concatenate([rng.uniform(0.0, 700.0, 400), [37.0, 637.0]])
    many = np.column_stack(table.pose_at_many(s))
    one = np.array([table.pose_at(float(v)) for v in s])
    assert np.all(np.abs(many - one) <= 1e-12 * np.maximum(1.0, np.abs(one)))


class TestPathQuery:
    FIELDS = ("s_C", "e_C", "psi_C", "kappa_C", "theta_C")

    def test_fields_are_read_only(self, n4_table):
        q = n4_table.project(1.0, 2.0, 0.1)
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(q, name, 0.0)

    def test_keyword_construction(self):
        assert PathQuery._fields == self.FIELDS
        q = PathQuery(s_C=1.0, e_C=2.0, psi_C=3.0, kappa_C=4.0, theta_C=5.0)
        assert [getattr(q, n) for n in self.FIELDS] == [1.0, 2.0, 3.0, 4.0, 5.0]
        # every field is required: no defaults
        with pytest.raises(TypeError):
            PathQuery(s_C=1.0, e_C=2.0, psi_C=3.0, kappa_C=4.0)


class TestFrameRates:
    def test_straight_motion(self):
        q = PathQuery(s_C=5.0, e_C=0.0, psi_C=0.0, kappa_C=0.0, theta_C=0.0)
        assert frame_rates(20.0, 0.0, 0.0, q) == pytest.approx((20.0, 0.0, 0.0))

    def test_on_path_tangent_motion(self, n4_table, rng):
        # moving along the path at speed V gives s' = V, e' = 0
        for _ in range(20):
            s = rng.uniform(0.0, 1000.0)
            x, y, psi = n4_table.pose_at(s)
            q = n4_table.project(x, y, psi, hint=s)
            V = 17.0
            sdot, edot, thetadot = frame_rates(
                V * math.cos(psi), V * math.sin(psi), V * q.kappa_C, q)
            assert sdot == pytest.approx(V, abs=1e-6)
            assert edot == pytest.approx(0.0, abs=1e-7)
            assert thetadot == pytest.approx(0.0, abs=1e-7)

    def test_inverse_recovers_rates(self, rng):
        for _ in range(100):
            q = PathQuery(s_C=0.0, e_C=rng.uniform(-20, 20),
                          psi_C=rng.uniform(-3, 3),
                          kappa_C=rng.uniform(-0.01, 0.01),
                          theta_C=0.0)
            rates = (rng.uniform(-30, 30), rng.uniform(-30, 30),
                     rng.uniform(-1, 1))
            back = frame_rates_inverse(*frame_rates(*rates, q), q)
            assert np.allclose(back, rates, atol=1e-12)

    def test_tube_singularity(self):
        q = PathQuery(s_C=0.0, e_C=100.0, psi_C=0.0, kappa_C=0.01, theta_C=0.0)
        with pytest.raises(TubeSingularity):
            frame_rates(1.0, 0.0, 0.0, q)


@settings(max_examples=30)
@given(e=st.floats(-20.0, 20.0), theta=st.floats(-1.4, 1.4),
       s=st.floats(10.0, 990.0))
def test_projection_round_trip_property(e, theta, s):
    table = _shared_table()
    if abs(table.kappa_at(s) * e) >= 0.5:
        return
    pose = reconstruct_pose(table, s, e, theta)
    q = table.project(*pose, hint=s)
    assert abs(q.e_C - e) < 1e-7
    assert abs(q.theta_C - theta) < 1e-9
    assert abs(q.s_C - s) < 1e-6


_TABLE_CACHE = {}


def _shared_table():
    if "n4" not in _TABLE_CACHE:
        _TABLE_CACHE["n4"] = build_path(CurvatureProfile.periodic(4, 250.0))
    return _TABLE_CACHE["n4"]
