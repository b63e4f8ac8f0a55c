"""Planar reference paths and Earth-frame <-> path-frame conversion.

A path is generated by integrating the Frenet equations

    dx/ds = cos(psi),  dy/ds = sin(psi),  dpsi/ds = kappa(s)

for a prescribed curvature profile, and stored as a uniformly sampled table.
Positions and headings are interpolated with cubic Hermite polynomials (the
exact derivatives cos(psi), sin(psi) and kappa are known at every sample),
which keeps interpolation error far below integrator truncation error at the
default 0.1 m step. Curvature itself is interpolated linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import AmbiguousProjection, NonClosure, TubeSingularity

DEFAULT_STEP = 0.1
PATH_STEPS_MAX = 2_000_000  # a build peaks near 112 bytes a step, 0.22 GB at the cap
TUBE_EPS = 1e-9
CLOSURE_RTOL = 1e-6
_TIE_DIST = 1e-9          # equidistance tolerance for ambiguity detection
_TIE_SEPARATION = 1e-3    # fraction of perimeter separating distinct minima
_CSV_BLOCK = 256          # CSV rows per % operation; keeps each block's
                          # strings below malloc's 128 KiB mmap threshold


def write_csv(dest, header, columns) -> None:
    """Write equal-length columns at ``%.12g``; a None column stays empty."""
    present = [c for c in columns if c is not None]
    line = ",".join("" if c is None else "%.12g" for c in columns) + "\n"
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(present[0]), _CSV_BLOCK):
            rows = np.column_stack([c[i:i + _CSV_BLOCK] for c in present])
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def _finite(s: float) -> float:
    if not math.isfinite(s):
        raise ValueError(f"path lookup: s = {s} is not finite")
    return s


def wrap_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi), rounding to the nearest whole turn.

    Half-turn ties resolve deterministically: exactly +pi maps to -pi (and
    -pi stays), which keeps every output inside the half-open interval.
    """
    return angle - 2.0 * math.pi * math.floor(angle / (2.0 * math.pi) + 0.5)


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature as a function of arc length: straight, circle or periodic.

    The periodic profile is kappa(s) = kappa_max/2 * (1 - cos(2*pi*s/s_T));
    with kappa_max*s_T = 4*pi/N it generates a closed figure with N corners
    and perimeter N*s_T.
    """

    kind: str
    kappa_const: float = 0.0
    kappa_max: float = 0.0
    s_T: float = 0.0
    N: int = 0

    def __post_init__(self):
        if self.kind not in ("straight", "circle", "periodic"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "circle" and not 0.0 < abs(self.kappa_const) < math.inf:
            raise ValueError("circle needs a finite, nonzero curvature")
        if self.kind == "periodic":
            if self.N < 2 or self.s_T <= 0.0 or self.kappa_max < 0.0:
                raise ValueError("periodic profile needs N >= 2, s_T > 0, kappa_max >= 0")
            closure = self.kappa_max * self.s_T
            target = 4.0 * math.pi / self.N
            if abs(closure - target) > 1e-12 * target:
                raise ValueError(
                    f"closure condition violated: kappa_max*s_T = {closure:.15g}, "
                    f"expected 4*pi/N = {target:.15g}")

    @classmethod
    def straight(cls) -> "CurvatureProfile":
        return cls(kind="straight")

    @classmethod
    def circle(cls, radius: float) -> "CurvatureProfile":
        """A negative radius gives a clockwise circle."""
        if radius == 0.0:
            raise ValueError("circle needs a nonzero radius")
        return cls(kind="circle", kappa_const=1.0 / radius)

    @classmethod
    def periodic(cls, N: int, s_T: float) -> "CurvatureProfile":
        if not (N >= 2 and 0.0 < s_T < math.inf):
            # checked before kappa_max divides by N*s_T
            raise ValueError("periodic profile needs N >= 2 and a finite s_T > 0")
        return cls(kind="periodic", kappa_max=4.0 * math.pi / (N * s_T),
                   s_T=s_T, N=N)

    def kappa(self, s, cos=math.cos):
        """Curvature at s: a float with math.cos, an array with np.cos."""
        if self.kind == "straight":
            return 0.0
        if self.kind == "circle":
            return self.kappa_const
        return 0.5 * self.kappa_max * (1.0 - cos(2.0 * math.pi * s / self.s_T))

    def kappa_prime(self, s: float) -> float:
        """d kappa / d s."""
        if self.kind != "periodic":
            return 0.0
        return self.kappa_max * math.pi / self.s_T * math.sin(2.0 * math.pi * s / self.s_T)

    def kappa_second(self, s: float) -> float:
        """d^2 kappa / d s^2."""
        if self.kind != "periodic":
            return 0.0
        return (2.0 * self.kappa_max * (math.pi / self.s_T) ** 2
                * math.cos(2.0 * math.pi * s / self.s_T))

    def natural_length(self) -> float | None:
        """Length closing the figure, if the profile defines one."""
        if self.kind == "periodic":
            return self.N * self.s_T
        if self.kind == "circle":
            return 2.0 * math.pi / abs(self.kappa_const)
        return None


class PathQuery(NamedTuple):
    """Result of projecting a pose onto a path."""

    s_C: float       # arc length of the closest path point
    e_C: float       # signed lateral deviation, positive left of the path
    psi_C: float     # path heading at the closest point
    kappa_C: float   # path curvature at the closest point
    theta_C: float   # relative yaw, wrapped to [-pi, pi)


class PathTable:
    """Arc-length sampled path with pose lookup and closest-point projection.

    Immutable after construction: the arrays are read-only. A read-only
    float array that owns its memory, as :func:`build_path` hands over, is
    kept as it is; anything else is copied, so the caller may go on writing
    its own. Queries are re-entrant. A lookup at a non-finite s raises
    ValueError naming s.
    """

    _COLUMNS = ("s", "x", "y", "psi", "kappa")

    def __init__(self, s, x, y, psi, kappa, closed: bool):
        for name, col in zip(self._COLUMNS, (s, x, y, psi, kappa)):
            if not (isinstance(col, np.ndarray) and col.dtype == float
                    and col.base is None and not col.flags.writeable):
                col = np.array(col, dtype=float)
                col.flags.writeable = False
            setattr(self, name, col)
        if not (len(self.s) == len(self.x) == len(self.y)
                == len(self.psi) == len(self.kappa)):
            raise ValueError("sample arrays must have equal length")
        if len(self.s) < 2:
            raise ValueError("path table needs at least two samples")
        steps = np.diff(self.s)
        if np.any(steps <= 0.0):
            raise ValueError("s must be strictly increasing")
        self.step = float(steps[0])
        if np.max(np.abs(steps - self.step)) > 1e-9 * self.step:
            raise ValueError("s must be uniformly sampled")
        self.closed = closed
        self.length = float(self.s[-1] - self.s[0])
        self.perimeter = self.length if closed else 0.0
        if closed:
            gap = math.hypot(self.x[-1] - self.x[0], self.y[-1] - self.y[0])
            if gap > CLOSURE_RTOL * self.perimeter:
                raise NonClosure(
                    f"endpoint misses start by {gap:.3e} m "
                    f"(> {CLOSURE_RTOL:g} * perimeter); integration step too coarse")

    # -- lookup ----------------------------------------------------------

    @cached_property
    def _floats(self) -> tuple[list[float], ...]:
        """The columns as Python lists, read by the scalar queries only."""
        return tuple(getattr(self, name).tolist() for name in self._COLUMNS)

    def _reduce(self, s: float) -> float:
        S = self._floats[0]
        if self.closed:
            return (s - S[0]) % self.perimeter + S[0]
        return min(max(s, S[0]), S[-1])

    def _segment(self, s: float) -> tuple[int, float]:
        S = self._floats[0]
        sr = self._reduce(s)
        i = int((sr - S[0]) / self.step)
        i = min(max(i, 0), len(S) - 2)
        u = (sr - S[i]) / self.step
        return i, u

    def _kappa(self, i: int, u: float) -> float:
        K = self._floats[4]
        return (1.0 - u) * K[i] + u * K[i + 1]

    def kappa_at(self, s: float) -> float:
        """Curvature at arc length s, linearly interpolated."""
        return self._kappa(*self._segment(_finite(s)))

    def pose_at(self, s: float) -> tuple[float, float, float]:
        """(x, y, psi) at arc length s via cubic Hermite interpolation."""
        i, u = self._segment(_finite(s))
        return self._hermite(i, u, math.cos, math.sin, *self._floats[1:])

    def _pose_kappa(self, s: float) -> tuple[float, float, float, float]:
        """pose_at(s) and kappa_at(s) from one segment lookup."""
        i, u = self._segment(s)
        return (*self._hermite(i, u, math.cos, math.sin, *self._floats[1:]),
                self._kappa(i, u))

    def pose_at_many(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`pose_at` for an array of arc lengths."""
        s = np.asarray(s, dtype=float)
        bad = ~np.isfinite(s)
        if bad.any():
            _finite(float(s[bad].flat[0]))
        if self.closed:
            sr = (s - self.s[0]) % self.perimeter + self.s[0]
        else:
            sr = np.clip(s, self.s[0], self.s[-1])
        i = np.clip(((sr - self.s[0]) / self.step).astype(int), 0, len(self.s) - 2)
        u = (sr - self.s[i]) / self.step
        return self._hermite(i, u, np.cos, np.sin,
                             self.x, self.y, self.psi, self.kappa)

    def _hermite(self, i, u, cos, sin, X, Y, P, K):
        """Hermite pose on segment(s) i at u: float lists with math, arrays with np."""
        w = (1.0 - u) ** 2
        h00 = (1.0 + 2.0 * u) * w
        h10 = u * w * self.step         # the tangent weights times the step
        h01 = u * u * (3.0 - 2.0 * u)
        h11 = u * u * (u - 1.0) * self.step
        j = i + 1
        p0, p1 = P[i], P[j]
        x = h00 * X[i] + h10 * cos(p0) + h01 * X[j] + h11 * cos(p1)
        y = h00 * Y[i] + h10 * sin(p0) + h01 * Y[j] + h11 * sin(p1)
        psi = h00 * p0 + h10 * K[i] + h01 * p1 + h11 * K[j]
        return x, y, psi

    # -- projection ------------------------------------------------------

    def project(self, x: float, y: float, psi: float,
                hint: float | None = None, window: float = 5.0) -> PathQuery:
        """Closest-point projection of a pose onto the path.

        Without a hint the whole table is searched and a tie between two
        distinct minima raises :class:`AmbiguousProjection`. With a hint only
        a local window of the table is searched (the closest point moves
        continuously along a trajectory) and the returned s_C is continuous
        with the hint, i.e. not reduced modulo the perimeter. A non-finite
        x, y, psi or hint raises ValueError naming the first one, and so
        does a window that is not finite and positive.
        """
        x, y, psi = float(x), float(y), float(psi)
        hint = None if hint is None else float(hint)
        for name, v in (("x", x), ("y", y), ("psi", psi), ("hint", hint)):
            if v is not None and not math.isfinite(v):
                raise ValueError(f"project: {name} = {v} is not finite")
        if not 0.0 < window < math.inf:
            raise ValueError(f"project: window = {window} is not finite and > 0")
        S = self._floats[0]
        if hint is None:
            i0 = self._global_nearest(x, y)
            s_guess = S[i0]
        else:
            i0 = self._local_nearest(x, y, hint, window)
            s_guess = S[0] + i0 * self.step

        s_star, (xc, yc, psic, kap) = self._refine(x, y, s_guess)
        e = -(x - xc) * math.sin(psic) + (y - yc) * math.cos(psic)
        theta = wrap_angle(psi - psic)
        if hint is not None and self.closed:
            # unwrap next to the hint so s_C stays monotone along a run
            delta = (s_star - hint + 0.5 * self.perimeter) % self.perimeter \
                - 0.5 * self.perimeter
            s_out = hint + delta
        else:
            s_out = s_star
        return PathQuery(s_C=s_out, e_C=e, psi_C=psic, kappa_C=kap,
                         theta_C=theta)

    def _global_nearest(self, x: float, y: float) -> int:
        pts = self.x[:-1] if self.closed else self.x
        d2 = (pts - x) ** 2 + ((self.y[:-1] if self.closed else self.y) - y) ** 2
        dist = np.sqrt(d2)
        dmin = float(dist.min())
        ties = np.nonzero(dist <= dmin + _TIE_DIST)[0]
        if len(ties) > 1:
            span = self.perimeter if self.closed else self.length
            tied_s = self.s[ties]
            if self.closed:
                # arc extent of the tied set, allowing it to cross the seam
                gaps = np.diff(np.append(tied_s, tied_s[0] + span))
                extent = span - float(np.max(gaps))
            else:
                extent = float(tied_s[-1] - tied_s[0])
            if extent > _TIE_SEPARATION * span:
                raise AmbiguousProjection(
                    f"equidistant path points ({dmin:.6g} m) spread over "
                    f"{extent:.3g} m of arc from ({x:.6g}, {y:.6g}); "
                    f"closest point is not unique")
        return int(ties[0])

    def _local_nearest(self, x: float, y: float, hint: float, window: float) -> int:
        n = len(self.s)
        ic = int(round((self._reduce(hint) - self._floats[0][0]) / self.step))
        k = max(1, int(math.ceil(window / self.step)))
        lo, hi = ic - k, ic + k + 1
        wraps = self.closed and (lo < 0 or hi > n - 1)   # crosses the seam
        idx = np.arange(lo, hi) % (n - 1) if wraps else slice(max(0, lo), min(n, hi))
        d2 = (self.x[idx] - x) ** 2 + (self.y[idx] - y) ** 2
        j = int(d2.argmin())
        return int(idx[j]) if wraps else idx.start + j

    def _refine(self, x: float, y: float, s0: float):
        """Closest-point s near s0 and its lookup, Newton's last one if at s."""
        # Newton iteration on the tangency condition (P - C(s)) . t(s) = 0,
        # equivalently on the derivative of the squared distance.
        s = s0
        for _ in range(12):
            s_look = s
            xc, yc, psic, kap = look = self._pose_kappa(s)
            tx, ty = math.cos(psic), math.sin(psic)
            rx, ry = x - xc, y - yc
            g = rx * tx + ry * ty
            if abs(g) < 1e-12:
                break
            # d/ds [(P-C).t] = -|t|^2 + (P-C).(kappa*n) = -(1 - kappa*e)
            e_loc = -rx * ty + ry * tx
            gp = -(1.0 - kap * e_loc)
            if abs(gp) < TUBE_EPS:
                break
            ds = -g / gp
            ds = max(-self.step, min(self.step, ds))
            s += ds
            if abs(ds) < 1e-13 * max(1.0, abs(s)):
                break
        s = self._reduce(s)        # also clamps s to an open table's range
        return s, look if s == s_look else self._pose_kappa(s)

    # -- CSV -------------------------------------------------------------

    def to_csv(self, path) -> None:
        write_csv(path, self._COLUMNS,
                  [getattr(self, name) for name in self._COLUMNS])


def _running_sum(start: float, steps) -> np.ndarray:
    """start, then start plus each step in turn, added left to right."""
    return np.add.accumulate(np.concatenate(([start], steps)))


def build_path(profile: CurvatureProfile, step: float = DEFAULT_STEP,
               length: float | None = None,
               x0: float = 0.0, y0: float = 0.0, psi0: float = 0.0) -> PathTable:
    """Integrate the Frenet equations with fixed-step RK4 in arc length.

    For periodic (and circular) profiles the generated table covers one full
    closed figure by default and is checked for closure. A step or length
    that is not finite and positive, or a table of more than
    ``PATH_STEPS_MAX`` steps, raises ValueError naming ``step`` or
    ``length`` before anything is allocated.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"key 'step': must be finite and > 0, not {step:g} m")
    # a table too long for its step blames the step below the default or
    # at the natural length, else the length
    key = "step" if step < DEFAULT_STEP or length is None else "length"
    if length is None:
        length = profile.natural_length()
        if length is None:
            raise ValueError("key 'length': a straight path needs a length")
    if not 0.0 < length < math.inf:
        raise ValueError(f"key 'length': must be finite and > 0, not {length:g} m")
    if not length / step <= PATH_STEPS_MAX:
        raise ValueError(f"key '{key}': {length:g} m at step {step:g} m is "
                         f"more than {PATH_STEPS_MAX} table steps")
    n = max(1, round(length / step))
    h = length / n

    # kappa does not depend on the state, so every RK4 increment of psi is
    # known up front, and each column is one running sum of the increments
    s = np.arange(n + 1.0) * h
    kap = np.broadcast_to(profile.kappa(s, np.cos), s.shape)
    k1, si = kap[:-1], s[:-1]
    k2 = profile.kappa(si + 0.5 * h, np.cos)    # stage 3 is stage 2
    k4 = profile.kappa(si + h, np.cos)          # not kap[1:]: i*h + h may differ
    psi = _running_sum(psi0, h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k2 + k4))
    p1 = psi[:-1]
    p2, p3, p4 = p1 + 0.5 * h * k1, p1 + 0.5 * h * k2, p1 + h * k2
    x = _running_sum(x0, h / 6.0 * (np.cos(p1) + 2.0 * np.cos(p2)
                                    + 2.0 * np.cos(p3) + np.cos(p4)))
    y = _running_sum(y0, h / 6.0 * (np.sin(p1) + 2.0 * np.sin(p2)
                                    + 2.0 * np.sin(p3) + np.sin(p4)))

    closed = profile.kind in ("circle", "periodic") and \
        abs(length - (profile.natural_length() or -1.0)) <= 1e-9 * length
    for col in (s, x, y, psi, kap):
        col.flags.writeable = False     # so that PathTable keeps, not copies
    return PathTable(s, x, y, psi, kap, closed=closed)


# -- differential transformation ------------------------------------------

def frame_rates(xdot: float, ydot: float, psidot: float,
                query: PathQuery) -> tuple[float, float, float]:
    """Earth- to path-frame rates s_C', e_C', theta_C'; kept for the paper."""
    denom = 1.0 - query.kappa_C * query.e_C
    if abs(denom) < TUBE_EPS:
        raise TubeSingularity(
            f"1 - kappa*e = {denom:.3e}: point at the path's curvature center")
    c, s = math.cos(query.psi_C), math.sin(query.psi_C)
    sdot = (c * xdot + s * ydot) / denom
    edot = -xdot * s + ydot * c
    thetadot = psidot - query.kappa_C * sdot
    return sdot, edot, thetadot


def frame_rates_inverse(sdot: float, edot: float, thetadot: float,
                        query: PathQuery) -> tuple[float, float, float]:
    """Path-frame to Earth-frame rates (x', y', psi'); kept for the paper."""
    c, s = math.cos(query.psi_C), math.sin(query.psi_C)
    factor = (1.0 - query.kappa_C * query.e_C) * sdot
    xdot = factor * c - edot * s
    ydot = factor * s + edot * c
    psidot = query.kappa_C * sdot + thetadot
    return xdot, ydot, psidot


def reconstruct_pose(table: PathTable, s: float, e: float,
                     theta: float) -> tuple[float, float, float]:
    """Earth-frame pose (x, y, psi) of a point given its path coordinates."""
    xc, yc, psic = table.pose_at(s)
    return (xc - e * math.sin(psic), yc + e * math.cos(psic), psic + theta)
