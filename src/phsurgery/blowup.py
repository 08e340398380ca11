"""Blow-up of D^k at the origin: charts, lifted flow, densities, power atlas.

The blown-up disk replaces the origin by the projective space of lines.  In
the i-th affine chart a point is (u_1, ..., u_k) with u_i the radial-like
coordinate; the blow-down map sends it to x_j = u_j * u_i (j != i),
x_i = u_i.  The exceptional set is {u_i = 0}.

For the slowed saddle field rho(x) * diag(rates) * x the chart push-forward
is diagonal-linear in u with chart rates

    du_i/dt = rho * rates_i * u_i,      du_j/dt = rho * (rates_j - rates_i) * u_j,

which extends smoothly across the exceptional set.  Its one RK4 loop is
`_lifted_pass`, which steps the live rows of a batch, each in its own chart.

The radial power atlas (Katok-Lewis) declares u -> |u|^alpha u a chart near
the origin.  With alpha = -(k-1)/k the pulled-back volume density becomes
bounded away from zero on the exceptional set.

Every operation takes a `BlowupPoint` that is one point or a batch, and has
one formula, written for a batch: a point is computed as its one-row batch,
so each row of a batch equals its one-point call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .saddle import (DEFAULT_STEP, _fixed_steps, _radius, _raise_first_escape, _rk4_rows,
                     rk4_step)

_CHART_SWITCH = 1.05  # hysteresis: transition once an affine coordinate passes this


@dataclass(frozen=True)
class BlowupPoint:
    """Chart-indexed point of the blown-up disk, or a batch of them.

    A point is an int `chart`, the 0-based index of the radial coordinate,
    with `u` of shape (k,).  A batch has one chart per row (an int applies
    to every row) and `u` of shape (n, k); len() is its row count and
    indexing picks rows.  Under the canonical chart-selection rule
    (dominant coordinate of the underlying line, ties to the smallest
    index) the affine coordinates satisfy |u_j| <= 1.
    """

    chart: int | np.ndarray
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim not in (1, 2):
            raise ValueError(f"u must have shape (k,) or (n, k), not {u.shape}")
        chart = int(self.chart) if u.ndim == 1 else np.broadcast_to(
            np.asarray(self.chart, dtype=int), u.shape[:1])
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "chart", chart)
        charts = np.atleast_1d(chart)
        bad = (charts < 0) | (charts >= u.shape[-1])
        if bad.any():
            m = int(np.argmax(bad))
            raise ValueError(f"chart index {charts[m]} of row {m} out of range for "
                             f"k={u.shape[-1]}")

    @property
    def k(self):
        return self.u.shape[-1]

    def __len__(self):
        if self.u.ndim == 1:
            raise TypeError("a single BlowupPoint has no len(); use .batch()")
        return len(self.u)

    def __getitem__(self, rows):
        """Row m of a batch as a point; a slice, mask or index array as a batch."""
        return BlowupPoint(self.chart[rows], self.u[rows])

    def batch(self):
        """A point as its one-row batch; a batch as it is."""
        return self if self.u.ndim == 2 else BlowupPoint(np.array([self.chart]), self.u[None])

    def like(self, values):
        """Per-row values of `batch()` in the shape of self: a point keeps row 0."""
        return values if self.u.ndim == 2 else values[0]

    def radial(self):
        """The radial coordinate u_chart of each row."""
        b = self.batch()
        return self.like(b.u[np.arange(len(b)), b.chart])

    def line(self):
        """Homogeneous line coordinates (1 in the chart slot)."""
        b = self.batch()
        ell = b.u.copy()
        ell[np.arange(len(b)), b.chart] = 1.0
        return self.like(ell)


def _blowdown(charts, U):
    """The blow-down formula on rows U, row m read in chart charts[m]."""
    rows = np.arange(len(U))
    x = U * U[rows, charts][:, None]
    x[rows, charts] = U[rows, charts]
    return x


def blowdown(p: BlowupPoint) -> np.ndarray:
    """Project to D^k: x_j = u_j u_i, x_i = u_i.  Collapses {u_i = 0} to 0."""
    b = p.batch()
    return p.like(_blowdown(b.chart, b.u))


def lift(x) -> BlowupPoint:
    """Canonical chart representative of a nonzero point of D^k, or of each row of a batch.

    Raises ValueError naming the first row at the origin.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    origin = ~X.any(axis=1)
    if origin.any():
        raise ValueError(f"row {int(np.argmax(origin))} is the origin, which has no "
                         "canonical lift")
    rows = np.arange(len(X))
    charts = np.argmax(np.abs(X), axis=1)  # argmax takes the smallest index on ties
    u = X / X[rows, charts][:, None]
    u[rows, charts] = X[rows, charts]
    p = BlowupPoint(charts, u)
    return p if x.ndim == 2 else p[0]


def chart_transition(p: BlowupPoint, target) -> BlowupPoint:
    """Represent the same blown-up point in chart `target` (an int, or one per row).

    With t = u[target]: u / t, then 1/t at the old chart and t u_chart at
    the target; a row whose target is its chart takes t = 1, which keeps
    its coordinates.  Raises ValueError naming the first row whose
    u[target] vanishes.
    """
    b = p.batch()
    rows = np.arange(len(b))
    target = np.broadcast_to(np.asarray(target, dtype=int), len(b))
    stay = target == b.chart
    t = b.u[rows, target]
    vanish = (t == 0.0) & ~stay
    if vanish.any():
        m = int(np.argmax(vanish))
        raise ValueError(f"row {m}: line coordinate u[{target[m]}] vanishes; "
                         f"chart {target[m]} undefined here")
    t = np.where(stay, 1.0, t)
    u = b.u / t[:, None]
    u[rows, b.chart] = 1.0 / t
    u[rows, target] = t * b.u[rows, b.chart]
    return p.like(BlowupPoint(target, u))


def transition_jacobian(p: BlowupPoint, target) -> np.ndarray:
    """Derivative of the chart transition map at p (closed form), (k, k) per row.

    With t = u[target]: row target holds t and u_chart, column target -line / t^2,
    the other diagonal entries 1/t (0 at the chart); a row that stays gets the identity.
    """
    b = p.batch()
    n, k = b.u.shape
    rows, diag = np.arange(n), np.arange(k)
    target = np.broadcast_to(np.asarray(target, dtype=int), n)
    stay = b.chart == target
    t = np.where(stay, 1.0, b.u[rows, target])[:, None]
    J = np.zeros((n, k, k))
    J[:, diag, diag] = 1.0 / t
    J[rows, b.chart, b.chart] = 0.0
    J[rows, :, target] = -b.line() / t**2
    J[rows, target, :] = 0.0
    J[rows, target, target] = b.u[rows, b.chart]
    J[rows, target, b.chart] = t[:, 0]
    J[stay] = np.eye(k)
    return p.like(J)


# ---------------------------------------------------------------------------
# lifted slow-down flow


def _chart_rate_matrix(rates):
    """Per-chart diagonal factors d[i, j] = rates_j - rates_i, d[i, i] = rates_i."""
    a = np.asarray(rates, dtype=float)
    d = a - a[:, None]
    np.fill_diagonal(d, a)
    return d


@dataclass(frozen=True)
class LiftedSaddle:
    """Chart dynamics of the slowed saddle on the blown-up disk.

    `chart_rates` is a `_chart_rate_matrix` for every row or an (n, k, k)
    stack of one per row; `rho` is a profile of the blow-down point, or a
    constant rho0 for every row or one per row.  Every method takes one
    chart index per row, so a batch may mix charts.
    """

    chart_rates: np.ndarray
    rho: object

    @classmethod
    def of(cls, spec, profile):
        """The lift of `spec` slowed by `profile`; a flat profile is its constant rho0."""
        return cls(_chart_rate_matrix(spec.rates), profile.rho0 if profile.constant else profile)

    def at(self, rows):
        """The lift of the rows `rows` of a batch: per-row stacks cut to those rows."""
        d, rho = self.chart_rates, self.rho
        return LiftedSaddle(d[rows] if d.ndim == 3 else d, rho[rows] if np.ndim(rho) else rho)

    def field(self, charts, u):
        """du/dt for an (n, k) batch, row m in chart charts[m]."""
        d = self.chart_rates
        d = d[charts] if d.ndim == 2 else d[np.arange(len(u)), charts]
        rho = self.rho(_blowdown(charts, u)) if callable(self.rho) else self.rho
        return d * u * np.asarray(rho)[..., None]


def lifted_slow_flow(spec, profile, p: BlowupPoint, t, step=DEFAULT_STEP):
    """Flow the blown-up slow-down field for time t, switching charts as needed.

    Commutes with the flow downstairs through the blow-down map; the
    exceptional set is invariant (u_i multiplies its own derivative, so
    u_i = 0 is preserved exactly, stage by stage).
    """
    return p.like(_lifted_flow_batch(spec, profile, p.batch(), t, step=step))


def _lifted_flow_batch(spec, profile, points: BlowupPoint, t, step=DEFAULT_STEP, counters=None):
    """The batch `points` after time t, one `_lifted_pass` segment of fixed RK4 steps.

    Adds the pass's counters into the dict `counters`, if given.  Raises
    DomainEscape naming the outermost row at the first escape.
    """
    nsteps, h = _fixed_steps(t, step)
    end, _, escapes, done = _lifted_pass(LiftedSaddle.of(spec, profile), points, h,
                                         nsteps if t else 0)
    _tally(counters, done)
    _raise_first_escape(escapes)
    return end


def _tally(counters, counts):
    """Add the dict counts into the dict counters, if given."""
    if counters is not None:
        for name, value in counts.items():
            counters[name] = counters.get(name, 0) + value


def _lifted_pass(lifted, points: BlowupPoint, h, nsteps, segments=1):
    """One RK4 pass of `segments` runs of nsteps steps of h over the rows of `points`.

    nsteps is one count, or one per row for one segment; only live rows are
    stepped.  A row moves, in one `chart_transition` with the others, to the
    dominant chart of its line (the first largest |u_j| off the chart) after a
    step that takes that coordinate past the threshold.  It stops after its
    last step, or on the step whose blow-down reaches the unit sphere.
    Returns the rows at the end, their charts after each segment as a
    (segments, n) array, the escapes as (time, blow-down point, row) in step
    then row order, and the counters.
    """
    charts, U = points.chart.copy(), points.u.copy()
    per_segment = int(np.max(nsteps, initial=0))
    chart_log, escapes = np.empty((segments, len(U)), dtype=int), []
    last = np.broadcast_to(nsteps, len(U)) * segments  # the iteration count of each row
    live, idx = last > 0, np.arange(0)
    counts = np.zeros(3, dtype=int)  # RK4 iterations, row steps, chart switches
    for i in range(segments * per_segment):
        if live.sum() != len(idx):
            idx = np.flatnonzero(live)
            rows, c, field = np.arange(len(idx)), charts[idx], lifted.at(idx).field
        u = rk4_step(lambda _, y: field(c, y), 0.0, U[idx], h)
        x = _blowdown(c, u)  # before the switch
        affine = np.abs(u)
        affine[rows, c] = 0.0
        switch = np.flatnonzero(affine.max(axis=1) > _CHART_SWITCH)
        if switch.size:
            q = chart_transition(BlowupPoint(c[switch], u[switch]), affine[switch].argmax(axis=1))
            c[switch], u[switch] = q.chart, q.u
        charts[idx], U[idx] = c, u
        counts += (1, len(idx), switch.size)
        out = np.flatnonzero(_radius(x) >= 1.0)
        escapes += [(i * h + h, x[m], int(idx[m])) for m in out]
        live[idx[out]] = False
        live &= last > i + 1
        if (i + 1) % per_segment == 0:
            chart_log[i // per_segment] = charts
    counters = dict(zip(("rk4_iterations", "row_steps", "chart_switches"), counts.tolist()))
    return BlowupPoint(charts, U), chart_log, escapes, counters


def core_tangent_maps(spec, rho0, points: BlowupPoint, charts, t):
    """Exact time-t tangent maps of the lift of the saddle slowed by the constant rho0.

    One (k, k) map per row p = (chart c, u) of the batch `points`, read from
    chart c into the chart charts[m] that a flow of p holds at time t.  In
    chart c the flow is u -> g u with g = exp(rho0 d[c] t), and chart c's
    domain is invariant under it; chart transitions compose, so whatever
    charts the orbit passed through, the map is
    transition_jacobian((c, g u), charts[m]) diag(g).
    """
    G = np.exp(rho0 * _chart_rate_matrix(spec.rates)[points.chart] * t)
    moved = BlowupPoint(points.chart, points.u * G)
    return transition_jacobian(moved, charts) * G[:, None, :]


def commutation_campaign(spec, profile, n=1000, seed=0, step=DEFAULT_STEP, counters=None):
    """Blow-down commutation over seeded random (point, time) pairs.

    Each sample steps to its own maturity time (a step multiple in (0, 1]),
    lifted in one `_lifted_pass` and downstairs in one `_rk4_rows` block of
    blow-downs, and is scored there by |blowdown(lifted end) - disk end|.  A
    quarter of the samples start on the exceptional set, whose blow-down
    orbit is the origin.  Returns (max residual, witness dict, exceptional
    dict); the witness is the first sample, in step then sample order, at
    the maximum.  The exceptional dict counts the `samples` that start on
    the set and those that `left` it (a radial coordinate other than 0 at
    maturity), and names the first that left, in the same order, with its
    draw index (`first_left`, None if none did).  Adds the lifted pass's
    counters, and the disk block's as `disk_*`, into the dict `counters`, if
    given, before a DomainEscape of the lifted pass names its sample as its row.
    """
    rng = np.random.default_rng(seed)
    k = spec.k
    rows = np.arange(n)

    charts = rng.integers(0, k, size=n)
    U = rng.uniform(-1.0, 1.0, size=(n, k))
    line_norm = np.sqrt(1.0 + np.sum(U**2, axis=1)
                        - U[rows, charts] ** 2)
    max_rate = max(abs(r) for r in spec.rates)
    safe = 0.45 * math.exp(-max_rate)  # the disk orbit stays inside radius 0.45 up to t = 1
    radial = rng.uniform(-1.0, 1.0, size=n) * safe / line_norm
    on_set = rng.random(n) < 0.25
    radial[on_set] = 0.0
    U[rows, charts] = radial

    nsteps, h = _fixed_steps(1.0, step)
    maturity = rng.integers(1, nsteps + 1, size=n)

    # samples in (maturity, sample) order, where the witnesses and the escape take the first
    order = np.lexsort((rows, maturity))
    start, maturity, on_set = BlowupPoint(charts[order], U[order]), maturity[order], on_set[order]
    end, _, escapes, done = _lifted_pass(LiftedSaddle.of(spec, profile), start, h, maturity)
    [(X, *_)], disk = _rk4_rows(spec, profile, [(blowdown(start), profile.delta, h, maturity, False)],
                                tangent=False)
    _tally(counters, done)
    _tally(counters, {f"disk_{name}": disk[name] for name in ("rk4_iterations", "row_steps")})
    _raise_first_escape([(time, x, int(order[m])) for time, x, m in escapes])
    sample = lambda m: {"chart": int(end.chart[m]), "u": end.u[m].tolist(),
                        "time": int(maturity[m]) * h}
    res = _radius(blowdown(end) - X)
    i = int(np.argmax(res))
    left = np.flatnonzero(on_set & (end.radial() != 0.0))
    exceptional = {"samples": int(on_set.sum()), "left": len(left), "first_left": (
        {"sample": int(order[left[0]]), **sample(left[0])} if len(left) else None)}
    return float(res[i]), {**sample(i), "residual": float(res[i])}, exceptional


# ---------------------------------------------------------------------------
# densities and the radial power atlas


def pullback_volume_density(p: BlowupPoint):
    """Density u_i^(k-1) of the pulled-back volume in chart coordinates.

    Signed: the sign records the chart orientation.  Equals the determinant
    of the blow-down Jacobian.
    """
    return p.like(p.batch().radial() ** (p.k - 1))


@dataclass(frozen=True)
class KLStructure:
    """Radial power-law change of smooth atlas (Katok-Lewis), u -> |u|^alpha u."""

    k: int
    alpha: float

    def __post_init__(self):
        if not (-1.0 < self.alpha <= 0.0):
            raise ValueError("alpha must lie in (-1, 0]")

    @classmethod
    def volume_nondegenerate(cls, k):
        """The exponent alpha = -(k-1)/k that cancels the density zero."""
        return cls(k=k, alpha=-(k - 1) / k)


def f_alpha(kl: KLStructure, p: BlowupPoint):
    """(1 + sum of affine coordinate squares)^(alpha/2)."""
    b = p.batch()
    s2 = np.sum(b.u**2, axis=1) - b.radial() ** 2
    return p.like((1.0 + s2) ** (kl.alpha / 2.0))


def kl_density(kl: KLStructure, p: BlowupPoint):
    """Chart density of the volume pulled back through the power atlas.

    (alpha+1) f^k |u_i|^(k alpha) u_i^(k-1); for alpha = -(k-1)/k the radial
    powers cancel and the value is (1/k) f^k sign(u_i)^(k-1), bounded away
    from 0 on compact chart sets.  On the exceptional set the radial factor
    is 1 when the powers cancel, else 0 or inf by the sign of the power.
    """
    k, a = kl.k, kl.alpha
    b = p.batch()
    ui = b.radial()
    power = k * a + k - 1
    cancel = abs(power) < 1e-12
    exceptional = 1.0 if cancel else 0.0 if power > 0 else math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = np.where(ui == 0.0, exceptional,
                          np.sign(ui) ** (k - 1) if cancel
                          else np.abs(ui) ** (k * a) * ui ** (k - 1))
    return p.like((a + 1.0) * f_alpha(kl, b) ** k * radial)


def kl_chart_map(kl: KLStructure, p: BlowupPoint) -> np.ndarray:
    """Disk coordinates of the power-atlas chart: f |u_i|^alpha * blowdown."""
    b = p.batch()
    ui = b.radial()
    scale = f_alpha(kl, b) * np.abs(ui) ** (1.0 + kl.alpha) * np.sign(ui)
    return p.like(scale[:, None] * b.line())


def new_norm(kl: KLStructure, x):
    """Length |x|^(1+alpha) in the power atlas of a disk point, or of each row of a batch."""
    x = np.asarray(x, dtype=float)
    r = _radius(np.atleast_2d(x)) ** (1.0 + kl.alpha)
    return r if x.ndim == 2 else r[0]


def kl_rate_check(spec, kl: KLStructure, rho0, seed=0):
    """Measure growth of the power-atlas norm under the uniformly slowed saddle.

    In the core region the flow is exp(rho0 t diag(rates)), so the new-norm
    ratio per unit vector direction lies between (lam')^(rho0 t (1+alpha))
    and (mu')^(rho0 t (1+alpha)) -- the advertised division of the rate
    exponents by k when alpha = -(k-1)/k.  Measured on 200 seeded
    directions at t = 1, 2 and 4; returns a dict of measured bounds and the
    regression slope of log-ratio against t.
    """
    rng = np.random.default_rng(seed)
    k = spec.k
    dirs = rng.standard_normal((200, k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    x0 = 1e-3 * dirs  # deep inside the uniformly slowed region
    times = np.array([1.0, 2.0, 4.0])
    amp = np.exp(rho0 * times[:, None] * np.asarray(spec.rates))
    ratio = (new_norm(kl, (amp[:, None, :] * x0).reshape(-1, k)).reshape(len(times), -1)
             / new_norm(kl, x0))
    per_time = ratio ** (1.0 / times[:, None])
    # pure fastest-expansion direction for the regression
    e = np.zeros(k)
    e[int(np.argmax(spec.rates))] = 1e-3
    logratio = np.log(new_norm(kl, amp * e) / new_norm(kl, e))
    return {
        "per_time_lower": float(per_time.min()),
        "per_time_upper": float(per_time.max()),
        "expected_lower": spec.lam_prime ** (rho0 * (1.0 + kl.alpha)),
        "expected_upper": spec.mu_prime ** (rho0 * (1.0 + kl.alpha)),
        "unstable_log_slope": float(np.polyfit(times, logratio, 1)[0]),
        "expected_slope": rho0 * (1.0 + kl.alpha) * max(spec.rates),
    }


def density_regularity_probe(k, beta):
    """Finite-difference derivative of the composed density factor along u_i -> 0.

    The factor is beta evaluated at the power-atlas chart image, for the
    volume exponent alpha = -(k-1)/k, in chart 0 along the affine point
    (0.3, ..., 0.3); beta takes the coordinate columns x[0], ..., x[k-1]
    of a batch.  For a generic smooth positive beta its radial derivative
    blows up like |u_i|^alpha, i.e. the pulled-back density is continuous
    but not C^1 at the exceptional set.  Returns the sweep
    [(u_i, |d factor / d u_i|)] over u_i = 1e-2, ..., 1e-6 and the fitted
    log-log slope.
    """
    kl = KLStructure.volume_nondegenerate(k)
    r = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    eps = r * 1e-3
    u = np.full((2 * len(r), k), 0.3)
    u[:, 0] = np.concatenate([r + eps, r - eps])
    factor = np.broadcast_to(beta(kl_chart_map(kl, BlowupPoint(0, u)).T), len(u))
    d = np.abs((factor[:len(r)] - factor[len(r):]) / (2 * eps))
    if np.all(d > 0):
        slope = float(np.polyfit(np.log(r), np.log(d), 1)[0])
    else:
        slope = 0.0
    return {"sweep": list(zip(r.tolist(), d.tolist())), "log_slope": slope, "alpha": kl.alpha}


# ---------------------------------------------------------------------------
# smoothness probes for the power atlas


def kl_smoothness_probe(spec, rho0=0.5):
    """Numerical C^1 comparison of the slowed saddle in the power atlas at t = 1.

    Returns, at the scales s = 1e-2, 1e-3, 1e-4, the Gateaux nonlinearity
    defects |F(s(w1+w2)) - F(s w1) - F(s w2)| / s of the disk map F, the
    time-1 map in the plain power-atlas chart on D^k (expected to stabilize
    at a positive constant: not C^1 at the origin; the alpha = 0 control is
    linear) and second differences across the exceptional set of the time-1
    map in power-atlas blow-up chart 0 (expected bounded: smooth).  Both
    maps are exact in the uniformly slowed core.
    """
    k = spec.k
    kl = KLStructure.volume_nondegenerate(k)
    rates = np.asarray(spec.rates)
    scales = np.array([1e-2, 1e-3, 1e-4])
    w1 = np.zeros(k)
    w1[int(np.argmin(spec.rates))] = 1.0
    w2 = np.zeros(k)
    w2[int(np.argmax(spec.rates))] = 1.0
    # rows s (w1 + w2), s w1, s w2 for every scale s
    Y = (scales[:, None, None] * np.stack([w1 + w2, w1, w2])).reshape(-1, k)

    def defects(alpha):
        x = np.exp(rho0 * rates) * (_radius(Y)[:, None] ** alpha * Y)
        F = (_radius(x)[:, None] ** (-alpha / (1.0 + alpha)) * x).reshape(len(scales), 3, k)
        return (_radius(F[:, 0] - F[:, 1] - F[:, 2]) / scales).tolist()

    # rows with u_0 = -s, 0, s at the affine point (0.3, ..., 0.3): the affine
    # coordinates move by the projective flow, u_0 by the k-fold-sped power law
    p = BlowupPoint(0, np.full((3 * len(scales), k), 0.3))
    p.u[:, 0] = (scales[:, None] * np.array([-1.0, 0.0, 1.0])).ravel()
    P = np.exp(rho0 * (rates - rates[0])) * p.line()
    moved = BlowupPoint(0, P)  # f_alpha reads the affine coordinates only
    P[:, 0] = (p.radial() * math.exp(rho0 * rates[0] / (1.0 + kl.alpha))
               * (f_alpha(kl, p) / f_alpha(kl, moved)) ** (1.0 / (1.0 + kl.alpha)))
    P = P.reshape(len(scales), 3, k)
    second = _radius(P[:, 0] - 2 * P[:, 1] + P[:, 2]) / scales**2
    return {
        "scales": scales.tolist(),
        "disk_defect": defects(kl.alpha),
        "linear_control_defect": defects(0.0),
        "chart_second_difference": second.tolist(),
    }
