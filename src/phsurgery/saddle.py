"""Linear hyperbolic saddle, radial slow-down, and annulus transit statistics.

The model flow on the unit disk D^k is x' = rho(x) * diag(rates) * x, where
rho(x) = rhobar(|x|) is a radial bump equal to rho0 inside radius delta and
equal to 1 outside radius 2*delta.  Everything here is deterministic: fixed
step RK4, seeded sampling, and exact annulus transits.

Because rho depends on |x| only, the slowed flow is a time change of the
linear one (Katok's slow-down): x(t) = exp(sigma(t) A) x0 with
dsigma/dt = rho(|exp(sigma A) x0|).  `time_change_transits` computes every
annulus transit from that closed-form orbit; the RK4 transit `_transit_batch`,
one pass of `_rk4_rows`, is kept as the measured oracle.  Both return one
`TransitReport`, whose fields are arrays with a row per transit.  `_rk4_rows`
is the one RK4 loop of the slowed flow and its tangent map.

Scale invariance is the organizing fact: rhobar's transition has width delta
by construction, so x -> x/delta conjugates the annulus dynamics at scale
delta to the one at scale 1.  Transit times and transit Jacobians are
therefore delta-independent: a suite runs `transit_campaign` once, and
checks the symmetry by rerunning the exact kernel on a rescaled subsample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dualnum import dexp, value

# Transition sharpness for the flat-ended bump profile.  sigma(r)=exp(-M/r)
# gives sup|S'| ~= 1.5616 (measured on a 2e6 grid); the steeper M=1 variant
# has sup|S'| = 2 exactly, which breaks the strict slope bound |rhobar'|<1/delta
# for every rho0 <= 1/2.
_TRANSITION_SHARPNESS = 0.75
_TRANSITION_SUP_SLOPE = 1.5617
_TRANSIT_PANELS = 16  # Gauss-Legendre panels of the time-change quadrature
# the 32-point Gauss-Legendre rule on [0, 1] of each panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
_CLOCK_ITERATIONS = 100  # a bound on the safeguarded Newton loop of `slowed_clock`


class DomainEscape(RuntimeError):
    """Trajectory left the unit disk (or the chart atlas); `row` names it in its batch."""

    def __init__(self, time, point, row=None):
        self.time = time
        self.point = np.asarray(point)
        self.row = row
        super().__init__(f"trajectory escaped at t={time:.6g}, |x|={np.linalg.norm(self.point):.6g}")


class NonExitingOrbit(RuntimeError):
    """Annulus orbit that reaches no boundary sphere within 64 doublings of its bracket."""


class InfeasibleRates(ValueError):
    """Rate configuration violates a required inequality; message names it."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SaddleSpec:
    """Diagonal linear saddle x' = diag(rates) x on D^k.

    rates must contain at least one negative and one positive entry.  The
    derived per-time bounds exp(min rate) <= |Da^t v|/|v| <= exp(max rate)
    hold with constant 1 because the generator is diagonal.
    """

    rates: tuple

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "rate_array", np.array(rates))  # the rates, built once
        self.rate_array.flags.writeable = False
        if len(rates) < 2:
            raise InfeasibleRates("saddle dimension must be >= 2")
        if not any(r < 0 for r in rates) or not any(r > 0 for r in rates):
            raise InfeasibleRates("saddle needs at least one negative and one positive rate")

    @property
    def k(self):
        return len(self.rates)

    @property
    def lam_prime(self):
        """Slowest contraction bound: exp(min rate) <= 1."""
        return math.exp(min(self.rates))

    @property
    def mu_prime(self):
        """Fastest expansion bound: exp(max rate) >= 1."""
        return math.exp(max(self.rates))


@dataclass(frozen=True)
class AnosovModel:
    """Block model of the restricted flow: stable / flow-direction / unstable.

    The center block is exactly the flow direction with rate 0.  lam and mu
    are the comparison constants of the three-scale rate chain and must
    bracket the block rates: stable <= log lam < 0 < log mu <= unstable.
    """

    stable_rates: tuple
    unstable_rates: tuple
    lam: float
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "stable_rates", tuple(float(r) for r in self.stable_rates))
        object.__setattr__(self, "unstable_rates", tuple(float(r) for r in self.unstable_rates))
        if not (0 < self.lam < 1 < self.mu):
            raise InfeasibleRates("need lam < 1 < mu")
        if not all(r <= math.log(self.lam) for r in self.stable_rates):
            raise InfeasibleRates("stable rates must be <= log(lam) < 0")
        if not all(r >= math.log(self.mu) for r in self.unstable_rates):
            raise InfeasibleRates("unstable rates must be >= log(mu) > 0")

    @property
    def dims(self):
        return (len(self.stable_rates), 1, len(self.unstable_rates))

    @property
    def rates(self):
        """Full rate tuple in block order (stable, flow, unstable)."""
        return self.stable_rates + (0.0,) + self.unstable_rates


def _transition(r):
    """Flat-ended C-infinity increasing step [0,1] -> [0,1] of floats, arrays or (nested) duals."""
    x = value(r)
    inside = (x > 0.0) & (x < 1.0)
    r = r + np.where(inside, 0.0, 0.5 - x)  # the flat ends: evaluated at 1/2, masked out
    with np.errstate(under="ignore"):
        a = dexp(-_TRANSITION_SHARPNESS / r)
        b = dexp(-_TRANSITION_SHARPNESS / (1.0 - r))
    return a / (a + b) * inside + (x >= 1.0)


@dataclass(frozen=True)
class BumpProfile:
    """Radial slow-down profile rhobar on [0, inf).

    rhobar = rho0 on [0, delta], rises strictly on (delta, 2*delta) through a
    flat-ended smooth transition, and equals 1 from 2*delta on.  Construction
    rejects parameters for which the slope bound |rhobar'| < 1/delta cannot
    hold, i.e. (1 - rho0) * sup|S'| >= 1.
    """

    delta: float
    rho0: float
    constant: bool = False  # rhobar == rho0 everywhere (analysis helper)

    def __post_init__(self):
        if not np.all(np.asarray(self.delta) > 0):  # one delta, or one per row of a batch
            raise ValueError("delta must be positive")
        object.__setattr__(self, "_slope_scale", (1.0 - self.rho0) / self.delta)
        if self.constant:
            if not self.rho0 > 0:
                raise ValueError("constant profile needs rho0 > 0")
            return
        if not 0 < self.rho0 < 1:
            raise ValueError("rho0 must lie in (0, 1)")
        if (1.0 - self.rho0) * _TRANSITION_SUP_SLOPE >= 1.0:
            raise ValueError(
                f"slope bound violated: (1-rho0)*sup|S'| = "
                f"{(1.0 - self.rho0) * _TRANSITION_SUP_SLOPE:.4f} >= 1"
            )

    @classmethod
    def flat(cls, rho0, delta=0.1):
        """Constant profile rhobar == rho0 (e.g. rho0=1 for the unperturbed saddle)."""
        return cls(delta=delta, rho0=rho0, constant=True)

    def value(self, s):
        """rhobar(s); accepts scalars, arrays, and duals."""
        if self.constant:
            return self.rho0 + 0.0 * s
        r = (s - self.delta) / self.delta
        return self.rho0 + (1.0 - self.rho0) * _transition(r)

    def slope(self, s):
        """rhobar'(s), closed form."""
        return self.value_and_slope(s)[1]

    def _exps(self, s):
        """(ri, ci, a, b): the clipped transition coordinate, 1 - ri, and their exps."""
        r = (s - self.delta) / self.delta
        # clipped where a or b underflows to 0, so that off (0, 1) the value
        # is exactly 0 or 1 and the slope exactly 0, as `value`'s
        ri = np.minimum(np.maximum(r, 1e-12), 1 - 1e-12)
        ci = 1.0 - ri
        return ri, ci, np.exp(-_TRANSITION_SHARPNESS / ri), np.exp(-_TRANSITION_SHARPNESS / ci)

    def array_value(self, s):
        """rhobar(s) of floats or arrays, the first value of `value_and_slope` without the slope."""
        if self.constant:
            return self.rho0 + 0.0 * s
        _, _, a, b = self._exps(s)
        return self.rho0 + (1.0 - self.rho0) * (a / (a + b))

    def value_and_slope(self, s):
        """(rhobar(s), rhobar'(s)) of floats or arrays, from one pair of exps."""
        if self.constant:
            return self.rho0 + 0.0 * s, np.zeros(np.shape(s))
        ri, ci, a, b = self._exps(s)
        da, db = a * _TRANSITION_SHARPNESS / ri**2, b * _TRANSITION_SHARPNESS / ci**2
        ab = a + b
        return (self.rho0 + (1.0 - self.rho0) * (a / ab),
                self._slope_scale * ((da * b + a * db) / ab**2))

    def __call__(self, x):
        """rho(x) = rhobar(|x|) for a point or an (n, k) batch."""
        return self.array_value(_norm(np.asarray(x, dtype=float)))


def pick_rho0(lam, mu, lam_prime, mu_prime, k=None, volume_mode=False):
    """Deterministic admissible slow-down exponent rho0.

    Returns the midpoint of the feasible interval (0, ub), where ub collects
    the slowed-rate domination bound (lam'/mu')^rho0 > max(lam, 1/mu) and, in
    volume mode, the two k-th-root bounds lam < lam'^(rho0/k) and
    mu'^(rho0/k) < mu.
    """
    if not lam < 1 < mu:
        raise InfeasibleRates(f"need lam < 1 < mu, got lam={lam}, mu={mu}")
    if not (lam < lam_prime <= 1):
        raise InfeasibleRates(f"need lam < lam' <= 1, got lam'={lam_prime}")
    if not (1 <= mu_prime < mu):
        raise InfeasibleRates(f"need 1 <= mu' < mu, got mu'={mu_prime}")
    if volume_mode and (k is None or k < 2):
        raise InfeasibleRates("volume mode needs the disk dimension k >= 2")

    ub = 1.0
    q = lam_prime / mu_prime
    floor = max(lam, 1.0 / mu)
    if q < 1.0:
        ub = min(ub, math.log(floor) / math.log(q))
    if volume_mode:
        if lam_prime < 1.0:
            ub = min(ub, k * math.log(lam) / math.log(lam_prime))
        if mu_prime > 1.0:
            ub = min(ub, k * math.log(mu) / math.log(mu_prime))
    if ub <= 0:
        raise InfeasibleRates("empty feasible interval for rho0")
    return 0.5 * ub


def domination_holds(rho0, lam, mu, lam_prime, mu_prime, k=None, volume_mode=False):
    """Check the inequalities that `pick_rho0` solves, at a given rho0."""
    ok = (lam_prime / mu_prime) ** rho0 > max(lam, 1.0 / mu)
    if volume_mode:
        ok = ok and lam < lam_prime ** (rho0 / k) and mu_prime ** (rho0 / k) < mu
    return bool(ok)


# ---------------------------------------------------------------------------
# integration

DEFAULT_STEP = 1e-3  # time units; the slowed field has O(1) time derivatives
# at every delta because the bump varies on the orbit's own time scale.


def _field(spec, profile, x):
    """rho(x) X(x) on an (n, k) batch."""
    return (spec.rate_array * x) * profile(x)[:, None]


def _field_and_jacobian(spec, profile, x):
    """rho X and D(rho X) = X grad(rho)^T + rho diag(rates) on an (n, k) batch.

    r, rho and the profile slope are evaluated once for both.
    """
    r = _norm(x)
    rho, slope = profile.value_and_slope(r)
    rates = spec.rate_array
    X = rates * x
    with np.errstate(invalid="ignore", divide="ignore"):
        gradrho = np.where(r[:, None] > 0, slope[:, None] * x / r[:, None], 0.0)
    A = X[:, :, None] * gradrho[:, None, :] + rho[:, None, None] * np.diag(rates)[None, :, :]
    return X * rho[:, None], A


def rk4_step(f, t, y, h):
    """One classical RK4 step of y' = f(t, y); y is a float or an ndarray."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _fixed_steps(t, step):
    """(number of steps, signed step) covering time t with steps of at most `step`."""
    nsteps = max(1, int(math.ceil(abs(t) / step)))
    return nsteps, math.copysign(abs(t) / nsteps, t)


def _radius(x):
    """|x| of a point, or per row of an (n, k) batch, rounded like `np.linalg.norm(point)`.

    The 1-D norm is a dot product; `vecdot` computes the same dot product row
    by row, where the `axis=` norm sums the squares and can differ in the last
    bit.
    """
    return np.sqrt(np.vecdot(x, x))


def _norm(x):
    """|x| along the last axis, equal to `np.linalg.norm(x, axis=-1)` bit for bit: rho's radius."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _raise_first_escape(escapes):
    """Raise DomainEscape naming the outermost row at the first of (time, point, row) escapes."""
    if escapes:
        t0 = min(e[0] for e in escapes)
        first = [e for e in escapes if e[0] == t0]
        raise DomainEscape(*first[int(np.argmax(_radius(np.array([e[1] for e in first]))))])


def _tally(counters, counts):
    """Add the dict counts into the dict counters, if given."""
    if counters is not None:
        for name, value in counts.items():
            counters[name] = counters.get(name, 0) + value


def _tangent_field(spec, profile, y):
    """(rho X, D(rho X) J) on packed rows y = [x | vec J] of an (n, k + k*k) batch.

    D(rho X) J = X (grad rho^T J) + rho diag(rates) J with grad rho = rho'(r) x / r,
    a rank-one update that a flat profile skips; the x columns are `_field`'s.
    """
    k = spec.k
    x, J = y[:, :k], y[:, k:].reshape(-1, k, k)
    r = _norm(x)
    rho, slope = profile.value_and_slope(r)
    rates = spec.rate_array
    out = np.empty(y.shape)  # C order: the J columns reshape to a view
    X = np.multiply(rates, x)
    np.multiply(X, rho[:, None], out=out[:, :k])
    DJ = np.multiply((rho[:, None] * rates)[:, :, None], J, out=out[:, k:].reshape(-1, k, k))
    if not profile.constant:  # slope / r is 0 off the shell, the origin included
        g = slope / (r + (r == 0.0))
        DJ += X[:, :, None] * (g[:, None] * np.einsum("nl,nlj->nj", x, J))[:, None, :]
    return out


def _rk4_rows(spec, profile, blocks):
    """One fixed-step RK4 pass of rows over stacked blocks, packed [x | vec J], J(0) = Id.

    A block (x, delta, h, nsteps, transit) gives (n, k) points their delta,
    step, step count (one, or one per row) and kind.  A transit row (entered
    on a sphere, moving in) stops on the step after which |x| leaves (delta,
    2 delta); after the loop one `_bisect_crossing` call finds every crossing
    time in (0, h] and one step takes the rows there.  A row stops on reaching
    the unit sphere.  The live rows' state and times stay in loop-local
    arrays until an event step (a crossing, an escape or a last step) writes
    them back.  Returns per block (x, J, t, stop), stop per row "outer",
    "inner", "escape" or "trapped" (all steps taken), and counters.
    """
    sizes = [len(b[0]) for b in blocks]
    delta, h, nsteps, transit = (np.concatenate([np.broadcast_to(v, m) for v, m in zip(c, sizes)])
                                 for c in list(zip(*blocks))[1:])
    x = np.vstack([b[0] for b in blocks]).astype(float)
    n, k = x.shape
    state = np.hstack([x, np.tile(np.eye(k).ravel(), (n, 1))])
    counters = dict.fromkeys(("rk4_iterations", "row_steps", "bisection_steps"), 0)
    t, target = np.zeros(n), np.zeros(n)
    stop = np.where(_radius(x) >= 1.0, "escape", "trapped")
    live = (stop == "trapped") & (nsteps > 0)
    while live.any():  # one row set; every live row takes one step per iteration
        idx = np.flatnonzero(live)
        p, hi, dn = replace(profile, delta=delta[idx]), h[idx, None], delta[idx]
        half, sixth, dn2 = 0.5 * hi, hi / 6.0, 2 * dn  # `rk4_step`'s stage factors and 2 delta
        tr, left, last, crossing = transit[idx], nsteps[idx], nsteps[idx].min(), transit[idx].any()
        y, ti = state[idx], t[idx]  # the live rows' state and times, kept here until an event
        while True:
            k1 = _tangent_field(spec, p, y)
            k2 = _tangent_field(spec, p, y + half * k1)
            k3 = _tangent_field(spec, p, y + half * k2)
            k4 = _tangent_field(spec, p, y + hi * k3)
            sn = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            counters["rk4_iterations"] += 1
            counters["row_steps"] += len(idx)
            it = counters["rk4_iterations"]
            if not np.isfinite(sn).all():
                raise FloatingPointError(f"non-finite state at step {it}")
            crossed = tr
            if crossing:  # only a transit row crosses
                rn = _norm(sn[:, :k])
                out_hi = rn >= dn2
                crossed = tr & (out_hi | (rn <= dn))
            escaped = _radius(sn[:, :k]) >= 1.0
            tn = ti + hi[:, 0]
            if crossed.any() or escaped.any() or last <= it:
                break
            y, ti = sn, tn
        # the event step, written back; a crossed row keeps its pre-step state for the bisection
        if crossed.any():
            target[idx[crossed]] = np.where(out_hi, dn2, dn)[crossed]
            stop[idx[crossed]] = np.where(out_hi, "outer", "inner")[crossed]
        stop[idx[~crossed & escaped]] = "escape"
        live[idx[crossed | escaped | (left <= it)]] = False
        state[idx] = np.where(crossed[:, None], y, sn)
        t[idx] = np.where(crossed, ti, tn)
    if len(rows := np.flatnonzero(target)):
        p = replace(profile, delta=delta[rows])
        tau = _bisect_crossing(spec, p, state[rows, :k], h[rows], target[rows], counters)
        state[rows] = rk4_step(lambda _, y: _tangent_field(spec, p, y), 0.0, state[rows],
                               tau[:, None])
        t[rows] += tau
        counters["rk4_iterations"] += 1
        counters["row_steps"] += len(rows)
    columns = (state[:, :k], state[:, k:].reshape(n, k, k), t, stop)
    return list(zip(*(np.split(v, np.cumsum(sizes)[:-1]) for v in columns))), counters


def _flow_rows(spec, profile, x, t, step):
    """(points, J) of the (n, k) rows x after time t, one or one per row.

    DomainEscape names the first escape.
    """
    x = np.asarray(x, dtype=float)
    t = np.broadcast_to(t, len(x))
    nsteps, h = np.array([_fixed_steps(s, step) if s else (0, 0.0) for s in t]).T
    [(points, J, times, stop)], _ = _rk4_rows(spec, profile, [
        (x, profile.delta, h, nsteps.astype(int), False)])
    _raise_first_escape([(times[i], points[i], int(i)) for i in np.flatnonzero(stop == "escape")])
    return points, J


def flow_slow(spec, profile, x, t, step=DEFAULT_STEP):
    """Flow of x' = rho(x) X(x) for time t (either sign), fixed-step RK4.

    The points of `variational_flow_slow`, without its orientation check: x is
    an (n, k) batch and t one time or one per row, and each row equals its
    one-row call bit for bit.  Raises DomainEscape as soon as a row reaches
    the unit sphere.  For rho == 1 this reproduces the closed form
    exp(t diag(rates)) x.
    """
    return _flow_rows(spec, profile, x, t, step)[0]


def variational_flow_slow(spec, profile, x, t, step=DEFAULT_STEP):
    """Flow together with its tangent map J(t), J' = D(rho X) J, J(0) = Id.

    x is an (n, k) batch and t one time or one per row; returns the (n, k)
    points and the (n, k, k) maps, each row equal to its one-row call bit for
    bit.  J stays orientation preserving; non-finite entries abort with
    diagnostics.
    """
    points, J = _flow_rows(spec, profile, x, t, step)
    if (np.linalg.det(J) <= 0).any():
        raise FloatingPointError("tangent map lost orientation")
    return points, J


# ---------------------------------------------------------------------------
# annulus transits


# every value of `TransitReport.crossing_class`
CROSSING_CLASSES = ("inner->outer", "outer->inner", "outer->outer", "inner->inner", "trapped")


@dataclass(frozen=True)
class TransitReport:
    """Crossings of the annulus delta <= |x| <= 2*delta: one transit or a batch.

    A batch has one array per field, one row per transit (the spheres as
    string arrays, the tangent maps as (n, k, k)).  len() counts its rows,
    an int index gives one transit and a slice, mask or index array a batch.
    """

    entry: np.ndarray
    exit: np.ndarray
    time: np.ndarray
    entry_sphere: np.ndarray  # "inner" | "outer"
    exit_sphere: np.ndarray   # "inner" | "outer" | "trapped"
    jacobian: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.time)  # a TypeError for one transit

    def __getitem__(self, rows):
        return TransitReport(self.entry[rows], self.exit[rows], self.time[rows],
                             self.entry_sphere[rows], self.exit_sphere[rows],
                             self.jacobian[rows])

    @property
    def crossing_class(self):
        """"entry->exit", or "trapped", per row; a str for one transit."""
        cls = np.where(self.exit_sphere == "trapped", "trapped",
                       self.entry_sphere + "->" + self.exit_sphere)
        return cls if cls.ndim else str(cls)

    @property
    def class_counts(self):
        """Rows per crossing class of a batch, every class listed ("trapped" included)."""
        cls = self.crossing_class
        return {c: int((cls == c).sum()) for c in CROSSING_CLASSES}


def _entry_spheres(spec, profile, entries):
    """Per entry row, whether it sits on the inner sphere (else the outer one).

    Raises ValueError naming the first row that is off both spheres or whose
    velocity does not point into the annulus.
    """
    delta = profile.delta
    r0 = np.linalg.norm(entries, axis=1)
    inner = np.abs(r0 - delta) < np.abs(r0 - 2 * delta)
    # d|x|/dt has the sign of the quadratic form sum(rates_i * x_i^2)
    q = np.sum(spec.rate_array * entries * entries, axis=1)
    off_sphere = np.abs(r0 - np.where(inner, delta, 2 * delta)) > 1e-8 * delta
    wrong_way = np.where(inner, q <= 0, q >= 0)
    if (off_sphere | wrong_way).any():
        i = int(np.argmax(off_sphere | wrong_way))
        if off_sphere[i]:
            raise ValueError(f"entry {i} not on a boundary sphere: |x|={r0[i]:.6g}")
        if inner[i]:
            raise ValueError(f"entry {i} on the inner sphere must move outward")
        raise ValueError(f"entry {i} on the outer sphere must move inward")
    return inner


def _transit_steps(spec, rho0, step, budget=None):
    """RK4 steps in a transit budget, by default ten slowest-axis transits."""
    if budget is None:
        budget = 10.0 * math.log(2.0) / (rho0 * min(map(abs, spec.rates)))
    return int(math.ceil(budget / step))


def _transit_batch(spec, profile, entries, step=DEFAULT_STEP, budget=None):
    """RK4 annulus transits, one `_rk4_rows` call; one TransitReport row per entry row.

    Each row is the packed state [x | vec J] of a point and its tangent map.
    The exit is found by the endpoint test |x| outside [delta, 2 delta] after
    each step, so an orbit that dips below delta for less than one step is
    reported as outer->outer.  This is the oracle of `time_change_transits`.
    A crossed row holds its exit state and time, a trapped row its last step.
    """
    inner = _entry_spheres(spec, profile, entries)
    [(exits, J, t, stop)], _ = _rk4_rows(spec, profile, [
        (entries, profile.delta, step, _transit_steps(spec, profile.rho0, step, budget), True)])
    return TransitReport(entries, exits, t, np.where(inner, "inner", "outer"), stop, J)


def _bisect_crossing(spec, profile, x0, h, target, counters=None):
    """Crossing times tau in (0, h] with |x(tau)| = target, bisected to 1e-10.

    x0 holds one row per orbit, h and target one number or one per row;
    every row starts from the bracket [0, h].  counters["bisection_steps"]
    counts the batched RK4 steps.
    """
    f = lambda _, z: _field(spec, profile, z)
    counters = {"bisection_steps": 0} if counters is None else counters

    def radius(tau):
        counters["bisection_steps"] += 1
        return _radius(rk4_step(f, 0.0, x0, tau[:, None]))

    hi = np.full(len(x0), h)
    sign_hi = radius(hi) - target
    return _bisect_root(lambda tau: (radius(tau) - target) * sign_hi, np.zeros(len(x0)), hi,
                        tol=1e-10)


def _bracket(done, start):
    """Per row, start + w with w = 1, 2, 4, ... the first width at which `done` holds."""
    width = np.ones_like(start)
    for _ in range(64):
        ok = done(start + width)
        if ok.all():
            return start + width
        width = np.where(ok, width, 2.0 * width)
    raise NonExitingOrbit("an annulus orbit never reaches a boundary sphere")


def _bisect_root(fn, lo, hi, tol=0.0):
    """Per row, the root of an increasing fn with fn(lo) <= 0 < fn(hi).

    The brackets halve together; a row stops once its bracket is shorter
    than tol, and the loop ends when no midpoint of a running row lies
    strictly inside its bracket.  tol 0 bisects to the last bit of the root.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active = hi - lo >= tol
        if not (active & (lo < mid) & (mid < hi)).any():
            break
        up = fn(mid) > 0
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)
    return 0.5 * (lo + hi)


def _panels(x2, a, sigma):
    """The `_TRANSIT_PANELS` equal panels of [0, sigma] in turn, as (width, e2, r).

    Row m of x2 holds x0**2 of the orbit exp(s A) x0, A = diag(a), and sigma[m]
    its end; e2 is exp(2 s A) at the panel's 32 Gauss-Legendre nodes s, an
    (n, 32, k) array, and r the radii there.
    """
    width = sigma / _TRANSIT_PANELS
    for p in range(_TRANSIT_PANELS):
        e2 = np.exp(2.0 * a * (width[:, None] * (p + _GL_NODES))[:, :, None])
        yield width, e2, np.sqrt(np.einsum("nk,nmk->nm", x2, e2))


def _clock_time(x2, a, sigma, profile):
    """T(sigma) = int_0^sigma ds / rho(|exp(s A) x0|) per row, by the transit quadrature."""
    T = np.zeros(len(sigma))
    for width, _, r in _panels(x2, a, sigma):
        T += width * (_GL_WEIGHTS / profile.array_value(r)).sum(axis=1)
    return T


def slowed_clock(spec, profile, x0, t, counters=None):
    """Exact points of the slowed flow: row m of the (n, k) batch x0 after time t[m].

    t is one time or one per row.  The orbit is exp(sigma A) x0, and sigma
    solves T(sigma) = t, where T(sigma) = int_0^sigma ds / rho(|exp(s A) x0|)
    is evaluated by the quadrature of `time_change_transits`.  rho lies
    between rho0 and 1, so [rho0 t, t] (ordered) brackets the root.  Newton's
    step sigma += (t - T) rho starts from rho(|x0|) t; each evaluation
    narrows the bracket, and a step that leaves it is replaced by bisection.
    A row stops once its Newton step is below 1e-9 sigma (the next is below
    rounding) or its bracket has closed.  A row at the origin stays there.
    Adds `clock_rows` and `clock_newton_iterations` (batched iterations)
    into the dict `counters`, if given.
    """
    x0 = np.asarray(x0, dtype=float)
    a = spec.rate_array
    x2 = x0 * x0
    t = np.broadcast_to(np.asarray(t, dtype=float), len(x0))
    lo, hi = np.sort([profile.rho0 * t, t], axis=0)
    sigma = profile.array_value(_norm(x0)) * t
    rows, iterations = np.arange(len(x0)), 0
    while len(rows) and iterations < _CLOCK_ITERATIONS:
        iterations += 1
        s = sigma[rows]
        f = _clock_time(x2[rows], a, s, profile) - t[rows]
        r = np.sqrt((x2[rows] * np.exp(2.0 * a * s[:, None])).sum(axis=1))
        lo[rows], hi[rows] = np.where(f < 0.0, s, lo[rows]), np.where(f < 0.0, hi[rows], s)
        newton = s - f * profile.array_value(r)
        inside = (lo[rows] <= newton) & (newton <= hi[rows])
        sigma[rows] = np.where(inside, newton, 0.5 * (lo[rows] + hi[rows]))
        moving = ~inside | (np.abs(newton - s) > 1e-9 * np.abs(newton))
        rows = rows[moving & (hi[rows] - lo[rows] > 1e-15 * hi[rows])]
    _tally(counters, {"clock_rows": len(x0), "clock_newton_iterations": iterations})
    return x0 * np.exp(a * sigma[:, None])


def time_change_transits(spec, profile, entries, counters=None):
    """Exact annulus transits of the slowed saddle; one TransitReport row per entry row.

    The orbit of x0 is exp(sigma A) x0, A = diag(rates), run at the clock
    dsigma/dt = rho(r(sigma)), where r^2(sigma) = sum x0_i^2 exp(2 a_i sigma)
    is strictly convex.  So an inner entry leaves through the outer sphere,
    and an outer entry leaves through the inner sphere exactly when the
    radial minimum r(sigma_min) is below delta, else through the outer
    sphere.  Every exit parameter sigma* is a bracketed root, bisected in
    sigma; no grazing dip is missed and no orbit is trapped.

    The transit time is T = int_0^sigma* ds / rho(r(s)), and the tangent map
    at fixed time T is J = exp(sigma* A) + (A x_exit) (x) grad sigma with
    grad sigma = rho(r(sigma*)) int_0^sigma* rho'(r) / (rho^2 r) exp(2 s A) x0 ds.
    Both integrals use composite 32-point Gauss-Legendre on `_TRANSIT_PANELS` equal
    panels of [0, sigma*], evaluated one panel at a time (`_panels`).  profile.delta is
    one number or one per entry row.  Adds `transit_rows` and
    `transit_root_iterations` (batched root-finding evaluations) into the dict
    `counters`, if given.
    """
    entries = np.asarray(entries, dtype=float)
    inner = _entry_spheres(spec, profile, entries)
    a = spec.rate_array
    x2 = entries * entries
    n, k = entries.shape
    d2 = np.float_power(np.broadcast_to(profile.delta, n), 2)  # libm pow, as delta**2 rounds
    per_row = replace(profile, delta=np.reshape(profile.delta, (-1, 1)))  # on (n, m) radii
    _tally(counters, {"transit_rows": n})

    # per row sum_i c_i exp(2 a_i s): r^2 for c = x0^2, d(r^2)/dsigma / 2 for c = a x0^2
    two_a = 2.0 * a
    exp_sum = lambda c, s: (c * np.exp(two_a * s[:, None])).sum(axis=1)

    def counted(fn):  # fn, adding each batched root-finding evaluation to counters
        def tallied(s):
            _tally(counters, {"transit_root_iterations": 1})
            return fn(s)
        return tallied

    # outer entries: the radial minimum sigma_min is the root of the increasing
    # d(r^2)/dsigma; an orbit that drops below delta first needs no minimum
    outer = np.flatnonzero(~inner)
    x2o, ax2o, d2o = x2[outer], a * x2[outer], d2[outer]
    hi = _bracket(counted(lambda s: (exp_sum(ax2o, s) > 0) | (exp_sum(x2o, s) < d2o)),
                  np.zeros(len(outer)))
    s_min = hi.copy()
    turned = exp_sum(ax2o, hi) > 0
    ax2t = ax2o[turned]
    s_min[turned] = _bisect_root(counted(lambda s: exp_sum(ax2t, s)), np.zeros(len(ax2t)),
                                 hi[turned])
    dips = exp_sum(x2o, s_min) < d2o

    # the exits, in one bisection of sign (r^2 - level): "down" rows reach the
    # inner sphere from [0, sigma_min] (sign -1), "up" rows the outer one
    down, up = outer[dips], np.concatenate([np.flatnonzero(inner), outer[~dips]])
    start = np.concatenate([np.zeros(len(down) + int(inner.sum())), s_min[~dips]])
    x2u, exit2 = x2[up], 4.0 * d2[up]
    hi = np.concatenate([s_min[dips], _bracket(counted(lambda s: exp_sum(x2u, s) >= exit2),
                                               start[len(down):])])
    rows = np.concatenate([down, up])
    x2r, level = x2[rows], np.concatenate([d2[down], exit2])
    sign = np.repeat([-1.0, 1.0], [len(down), len(up)])
    sigma = np.empty(n)
    sigma[rows] = _bisect_root(counted(lambda s: sign * (exp_sum(x2r, s) - level)), start, hi)

    T = np.zeros(n)
    grad = np.zeros((n, k))
    for width, e2, r in _panels(x2, a, sigma):
        rho, slope = per_row.value_and_slope(r)
        T += width * (_GL_WEIGHTS / rho).sum(axis=1)
        g = _GL_WEIGHTS * slope / (rho * rho * r)
        grad += width[:, None] * np.einsum("nm,nmk->nk", g, e2)
    scale = np.exp(a * sigma[:, None])
    exits = entries * scale
    grad *= entries * per_row.value_and_slope(np.linalg.norm(exits, axis=1, keepdims=True))[0]
    J = scale[:, :, None] * np.eye(k) + (a * exits)[:, :, None] * grad[:, None, :]
    exit_sphere = np.full(n, "outer")
    exit_sphere[down] = "inner"
    return TransitReport(entries, exits, T, np.where(inner, "inner", "outer"), exit_sphere, J)


def transit_differences(exact, oracle, delta):
    """Largest differences between two transit batches for the same entries.

    Times are compared absolutely, exit points relative to delta and tangent
    maps relative to the exact map's norm.
    """
    frobenius = lambda J: _radius(J.reshape(len(J), -1))
    return {
        "class_mismatches": int((exact.crossing_class != oracle.crossing_class).sum()),
        "time": float(np.abs(exact.time - oracle.time).max()),
        "exit_over_delta": float(_radius(exact.exit - oracle.exit).max()) / delta,
        "jacobian_rel": float((frobenius(exact.jacobian - oracle.jacobian)
                               / frobenius(exact.jacobian)).max()),
    }


def distortions(J):
    """Sup of the largest singular value over a stack of maps, and over their inverses.

    (1 / the smallest singular value is inf once the SVD rounds it to 0.)
    """
    sup = lambda M: float(np.linalg.svd(M, compute_uv=False)[:, 0].max())
    return sup(J), sup(np.linalg.inv(J))


def sample_entries(spec, delta, n, rng):
    """Seeded boundary-sphere entries pointing into the annulus, half of them inner.

    Directions are drawn once per seed and scaled to the requested radius,
    so the entries at two deltas hold the same direction set.  Pure axis
    entries are prepended (row i is the axis of rate i) so the closed-form
    crossings are always sampled.
    """
    k = spec.k
    rates = spec.rate_array
    # radial entries: unstable axes on the inner sphere, stable ones on the outer
    axes = np.diag(np.where(rates > 0, delta, 2 * delta))
    n_inner = n // 2
    inner, outer = [], []
    while sum(len(b) for b in inner) < n_inner or sum(len(b) for b in outer) < n - n_inner:
        dirs = rng.standard_normal((4 * n, k))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        q = np.sum(rates * dirs**2, axis=1)
        inner.append(dirs[q > 1e-6])
        outer.append(dirs[q < -1e-6])
    inner = np.vstack(inner)[:n_inner] * delta
    outer = np.vstack(outer)[: n - n_inner] * 2 * delta
    return np.vstack([axes, inner, outer])


def transit_campaign(spec, profile, n_entries, seed, counters=None):
    """Exact transits (`time_change_transits`) of seeded entries, one TransitReport row each.

    No class is "trapped", and its count is kept at zero in `class_counts`.
    One seed draws the same directions at every delta (`sample_entries`), so
    the campaign at c delta is this one with entries and exits scaled by c.
    `counters` goes to `time_change_transits`.
    """
    entries = sample_entries(spec, profile.delta, n_entries, np.random.default_rng(seed))
    return time_change_transits(spec, profile, entries, counters=counters)


def shear_bound_margin(spec, profile, x, v):
    """Margin of <D(rho X) v, v> <= (C2 |grad rho| |x| + C3) |v|^2 per row of (n, k) x and v.

    C2 = max|rates| and C3 = log(mu') depend only on the saddle.  Returns
    rhs - lhs per row (nonnegative where the bound holds).
    """
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    A = _field_and_jacobian(spec, profile, x)[1]
    lhs = (v[:, None, :] @ A @ v[:, :, None])[:, 0, 0]
    r = _radius(x)
    c2 = max(abs(spec.rate_array))
    c3 = math.log(spec.mu_prime)
    return (c2 * np.abs(profile.slope(r)) * r + c3) * np.vecdot(v, v) - lhs
