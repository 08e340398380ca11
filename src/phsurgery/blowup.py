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
In the uniformly slowed core the chart dynamics is linear, so
`core_chart_schedule` reads the pass's chart choices off the exact orbits
and `core_tangent_maps` gives their tangent maps.

The radial power atlas (Katok-Lewis) declares u -> |u|^alpha u a chart near
the origin.  With alpha = -(k-1)/k the pulled-back volume density becomes
bounded away from zero on the exceptional set.

Every operation takes a `BlowupPoint` batch and returns one value per row;
the rows are independent, so each equals its one-row call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .saddle import (DEFAULT_STEP, _fixed_steps, _radius, _raise_first_escape, _tally,
                     rk4_step, slowed_clock)

_CHART_SWITCH = 1.05  # hysteresis: transition once an affine coordinate passes this


@dataclass(frozen=True)
class BlowupPoint:
    """A batch of chart-indexed points of the blown-up disk.

    `u` has shape (n, k), and `chart` holds the 0-based index of each row's
    radial coordinate (an int applies to every row).  len() is the row
    count, and a slice, mask or index array picks rows.  Under the
    canonical chart-selection rule (dominant coordinate of the underlying
    line, ties to the smallest index) the affine coordinates satisfy
    |u_j| <= 1.
    """

    chart: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 2:
            raise ValueError(f"u must have shape (n, k), not {u.shape}")
        chart = np.broadcast_to(np.asarray(self.chart, dtype=int), u.shape[:1])
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "chart", chart)
        bad = (chart < 0) | (chart >= u.shape[1])
        if bad.any():
            m = int(np.argmax(bad))
            raise ValueError(f"chart index {chart[m]} of row {m} out of range for k={u.shape[1]}")

    @property
    def k(self):
        return self.u.shape[1]

    def __len__(self):
        return len(self.u)

    def __getitem__(self, rows):
        return BlowupPoint(self.chart[rows], self.u[rows])

    def radial(self):
        """The radial coordinate u_chart of each row."""
        return self.u[np.arange(len(self)), self.chart]

    def line(self):
        """Homogeneous line coordinates (1 in the chart slot)."""
        ell = self.u.copy()
        ell[np.arange(len(self)), self.chart] = 1.0
        return ell


def _blowdown(charts, U):
    """The blow-down formula on rows U, row m read in chart charts[m]."""
    rows = np.arange(len(U))
    x = U * U[rows, charts][:, None]
    x[rows, charts] = U[rows, charts]
    return x


def blowdown(p: BlowupPoint) -> np.ndarray:
    """Project to D^k: x_j = u_j u_i, x_i = u_i.  Collapses {u_i = 0} to 0."""
    return _blowdown(p.chart, p.u)


def lift(x) -> BlowupPoint:
    """Canonical chart representative of each row of an (n, k) batch of points of D^k.

    Raises ValueError naming the first row at the origin.
    """
    X = np.asarray(x, dtype=float)
    origin = ~X.any(axis=1)
    if origin.any():
        raise ValueError(f"row {int(np.argmax(origin))} is the origin, which has no "
                         "canonical lift")
    rows = np.arange(len(X))
    charts = np.argmax(np.abs(X), axis=1)  # argmax takes the smallest index on ties
    u = X / X[rows, charts][:, None]
    u[rows, charts] = X[rows, charts]
    return BlowupPoint(charts, u)


def chart_transition(p: BlowupPoint, target) -> BlowupPoint:
    """Represent the same blown-up point in chart `target` (an int, or one per row).

    With t = u[target]: u / t, then 1/t at the old chart and t u_chart at
    the target; a row whose target is its chart takes t = 1, which keeps
    its coordinates.  Raises ValueError naming the first row whose
    u[target] vanishes.
    """
    rows = np.arange(len(p))
    target = np.broadcast_to(np.asarray(target, dtype=int), len(p))
    stay = target == p.chart
    t = p.u[rows, target]
    vanish = (t == 0.0) & ~stay
    if vanish.any():
        m = int(np.argmax(vanish))
        raise ValueError(f"row {m}: line coordinate u[{target[m]}] vanishes; "
                         f"chart {target[m]} undefined here")
    t = np.where(stay, 1.0, t)
    u = p.u / t[:, None]
    u[rows, p.chart] = 1.0 / t
    u[rows, target] = t * p.u[rows, p.chart]
    return BlowupPoint(target, u)


def transition_jacobian(p: BlowupPoint, target) -> np.ndarray:
    """Derivative of the chart transition map at p (closed form), (k, k) per row.

    With t = u[target]: row target holds t and u_chart, column target -line / t^2,
    the other diagonal entries 1/t (0 at the chart); a row that stays gets the identity.
    """
    n, k = p.u.shape
    rows, diag = np.arange(n), np.arange(k)
    target = np.broadcast_to(np.asarray(target, dtype=int), n)
    stay = p.chart == target
    t = np.where(stay, 1.0, p.u[rows, target])[:, None]
    J = np.zeros((n, k, k))
    J[:, diag, diag] = 1.0 / t
    J[rows, p.chart, p.chart] = 0.0
    J[rows, :, target] = -p.line() / t**2
    J[rows, target, :] = 0.0
    J[rows, target, target] = p.u[rows, p.chart]
    J[rows, target, p.chart] = t[:, 0]
    J[stay] = np.eye(k)
    return J


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

    `chart_rates` is the saddle's `_chart_rate_matrix`; `rho` is a profile of
    the blow-down point, or a constant rho0.  Every method takes one chart
    index per row, so a batch may mix charts.
    """

    chart_rates: np.ndarray
    rho: object

    @classmethod
    def of(cls, spec, profile):
        """The lift of `spec` slowed by `profile`; a flat profile is its constant rho0."""
        return cls(_chart_rate_matrix(spec.rates), profile.rho0 if profile.constant else profile)

    def field(self, charts, rates, u):
        """du/dt of an (n, k) batch, row m in chart charts[m], rates = chart_rates[charts]."""
        rho = self.rho(_blowdown(charts, u)) if callable(self.rho) else self.rho
        return rates * u * np.asarray(rho)[..., None]


def lifted_slow_flow(spec, profile, p: BlowupPoint, t, step=DEFAULT_STEP):
    """Flow the batch p by the blown-up slow-down field for time t, switching charts as needed.

    Commutes with the flow downstairs through the blow-down map; the
    exceptional set is invariant (u_i multiplies its own derivative, so
    u_i = 0 is preserved exactly, stage by stage).
    """
    return _lifted_flow_batch(spec, profile, p, t, step=step)


def _lifted_flow_batch(spec, profile, points: BlowupPoint, t, step=DEFAULT_STEP, counters=None):
    """The batch `points` after time t, one `_lifted_pass` segment of fixed RK4 steps.

    Adds the pass's counters into the dict `counters`, if given.  Raises
    DomainEscape naming the outermost row at the first escape.
    """
    nsteps, h = _fixed_steps(t, step)
    end, escapes, done = _lifted_pass(LiftedSaddle.of(spec, profile), points, h, nsteps if t else 0)
    _tally(counters, done)
    _raise_first_escape(escapes)
    return end


def _chart_switches(affine, charts):
    """The chart rule of `_lifted_pass` for lines along the trailing k axis.

    affine holds the |affine coordinates| of lines in the chart that
    `charts` gives each (its own coordinate is ignored).  Returns whether
    a line has a coordinate past the switch threshold, and the chart it
    moves to: the first largest coordinate off its chart.
    """
    off = np.where(np.arange(affine.shape[-1]) == charts[..., None], 0.0, affine)
    return off.max(axis=-1) > _CHART_SWITCH, off.argmax(axis=-1)


def _lifted_pass(lifted, points: BlowupPoint, h, nsteps):
    """One RK4 pass of nsteps steps of h (one count, or one per row) over the rows of `points`.

    Only live rows are stepped.  A row moves, in one `chart_transition` with
    the others, to the dominant chart of its line (the first largest |u_j| off
    the chart) after a step that takes that coordinate past the threshold.  It
    stops after its last step, or on the step whose blow-down reaches the unit
    sphere.  Returns the rows at the end, the escapes as (time, blow-down
    point, row) in step then row order, and the counters.
    """
    charts, U = points.chart.copy(), points.u.copy()
    escapes = []
    last = np.broadcast_to(nsteps, len(U))
    live, idx = last > 0, np.arange(0)
    counts = np.zeros(3, dtype=int)  # RK4 iterations, row steps, chart switches
    for i in range(int(np.max(nsteps, initial=0))):
        if live.sum() != len(idx):
            idx = np.flatnonzero(live)
            c = charts[idx]
            rates = lifted.chart_rates[c]
        u = rk4_step(lambda _, y: lifted.field(c, rates, y), 0.0, U[idx], h)
        x = _blowdown(c, u)  # before the switch
        over, target = _chart_switches(np.abs(u), c)
        switch = np.flatnonzero(over)
        if switch.size:
            q = chart_transition(BlowupPoint(c[switch], u[switch]), target[switch])
            c[switch], u[switch] = q.chart, q.u
            rates[switch] = lifted.chart_rates[q.chart]
        charts[idx], U[idx] = c, u
        counts += (1, len(idx), switch.size)
        out = np.flatnonzero(_radius(x) >= 1.0)
        escapes += [(i * h + h, x[m], int(idx[m])) for m in out]
        live[idx[out]] = False
        live &= last > i + 1
    counters = dict(zip(("rk4_iterations", "row_steps", "chart_switches"), counts.tolist()))
    return BlowupPoint(charts, U), escapes, counters


def core_chart_schedule(rates, rho0, points: BlowupPoint, h, nsteps, segments):
    """The charts that `_lifted_pass`'s rule picks along exact core orbits, and their escapes.

    Row m of the batch `points` flows by the saddle of rates[m] slowed by the
    constant rho0[m] (one each, or one for every row) for `segments` runs of
    nsteps steps of h.  In the core the lifted flow is linear in every chart:
    the line of a row is l(t) = l(0) exp(rho0 rates t), coordinate by
    coordinate, and its chart-c affine coordinates are l_j(t) / l_c(t).  At
    each step end t_i = i h a row moves to the first largest of them once it
    passes the switch threshold, as the pass moves it after the step.  A row
    whose blow-down exp(rho0 rates t_i) x(0) reaches the unit sphere stops
    there with that step's chart.  Returns the charts after each segment as
    a (segments, n) array, the escapes as (time, blow-down point, row) in
    step then row order, and the counter `chart_switches`.
    """
    n, k = points.u.shape
    growth = np.broadcast_to(np.asarray(rho0, dtype=float), n)[:, None] * np.broadcast_to(
        np.asarray(rates, dtype=float), (n, k))
    charts, line, x0 = points.chart.copy(), np.abs(points.line()), blowdown(points)
    radial = np.abs(points.radial())
    live = np.ones(n, dtype=bool)
    chart_log, escapes, switches = np.empty((segments, n), dtype=int), [], 0
    steps = np.arange(nsteps)
    for seg in range(segments):
        t = (seg * nsteps + steps) * h + h  # the step ends of the segment, as the pass sums them
        ell = line[:, None, :] * np.exp(growth[:, None, :] * t[:, None])  # (n, nsteps, k)
        out = (radial[:, None] * _radius(ell) >= 1.0) & live[:, None]
        stop = np.where(out.any(axis=1), out.argmax(axis=1), nsteps)  # the last step taken
        start = np.zeros(n, dtype=int)
        todo = np.flatnonzero(live)
        while len(todo):  # each round takes every row's next switch
            rows = np.arange(len(todo))
            c = charts[todo]
            over, target = _chart_switches(ell[todo] / ell[todo, :, c][:, :, None], c[:, None])
            over &= (steps >= start[todo, None]) & (steps <= stop[todo, None])
            hit = over.any(axis=1)
            at = over.argmax(axis=1)[hit]
            charts[todo[hit]] = target[rows[hit], at]
            start[todo[hit]] = at + 1
            switches += int(hit.sum())
            todo = todo[hit]
        for m in np.lexsort((np.arange(n), stop))[:int((stop < nsteps).sum())]:
            escapes.append((t[stop[m]], x0[m] * np.exp(growth[m] * t[stop[m]]), int(m)))
        live &= stop == nsteps
        chart_log[seg] = charts
    return chart_log, escapes, {"chart_switches": switches}


def core_tangent_maps(spec, rho0, points: BlowupPoint, charts, t):
    """Exact time-t tangent maps of the lift of the saddle slowed by the constant rho0.

    One (k, k) map per row p = (chart c, u) of the batch `points` (t one
    time, or an (n, 1) column of one per row), read from chart c into the
    chart charts[m] that a flow of p holds at time t.  In
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

    Each sample steps to its own maturity time (a step multiple in (0, 1])
    in one `_lifted_pass`, and is scored by |blowdown(lifted end) - exact
    end|, the exact end being `saddle.slowed_clock` of its blow-down at that
    time.  A quarter of the samples start on the exceptional set, whose
    blow-down orbit is the origin (sample 0 if the draw puts none there).
    Returns (max residual, witness dict, exceptional dict); the witness is
    the first sample, in step then sample order, at the maximum.  The
    exceptional dict counts the `samples` that start on the set and those
    that `left` it (a radial coordinate other than 0 at maturity), and names
    the first that left, in the same order, with its draw index
    (`first_left`, None if none did).  Adds the lifted pass's
    counters and the clock's into the dict `counters`, if given, before a
    DomainEscape of the lifted pass names its sample as its row.
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
    on_set[0] |= not on_set.any()  # exceptional-invariance always has a sample to read
    radial[on_set] = 0.0
    U[rows, charts] = radial

    nsteps, h = _fixed_steps(1.0, step)
    maturity = rng.integers(1, nsteps + 1, size=n)

    # samples in (maturity, sample) order, where the witnesses and the escape take the first
    order = np.lexsort((rows, maturity))
    start, maturity, on_set = BlowupPoint(charts[order], U[order]), maturity[order], on_set[order]
    end, escapes, done = _lifted_pass(LiftedSaddle.of(spec, profile), start, h, maturity)
    _tally(counters, done)
    X = slowed_clock(spec, profile, blowdown(start), maturity * h, counters)
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
    return p.radial() ** (p.k - 1)


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
    s2 = np.sum(p.u**2, axis=1) - p.radial() ** 2
    return (1.0 + s2) ** (kl.alpha / 2.0)


def kl_density(kl: KLStructure, p: BlowupPoint):
    """Chart density of the volume pulled back through the power atlas.

    (alpha+1) f^k |u_i|^(k alpha) u_i^(k-1); for alpha = -(k-1)/k the radial
    powers cancel and the value is (1/k) f^k sign(u_i)^(k-1), bounded away
    from 0 on compact chart sets.  On the exceptional set the radial factor
    is 1 when the powers cancel, else 0 or inf by the sign of the power.
    """
    k, a = kl.k, kl.alpha
    ui = p.radial()
    power = k * a + k - 1
    cancel = abs(power) < 1e-12
    exceptional = 1.0 if cancel else 0.0 if power > 0 else math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = np.where(ui == 0.0, exceptional,
                          np.sign(ui) ** (k - 1) if cancel
                          else np.abs(ui) ** (k * a) * ui ** (k - 1))
    return (a + 1.0) * f_alpha(kl, p) ** k * radial


def kl_chart_map(kl: KLStructure, p: BlowupPoint) -> np.ndarray:
    """Disk coordinates of the power-atlas chart: f |u_i|^alpha * blowdown."""
    ui = p.radial()
    scale = f_alpha(kl, p) * np.abs(ui) ** (1.0 + kl.alpha) * np.sign(ui)
    return scale[:, None] * p.line()


def new_norm(kl: KLStructure, x):
    """Length |x|^(1+alpha) in the power atlas of each row of an (n, k) batch of disk points."""
    return _radius(np.asarray(x, dtype=float)) ** (1.0 + kl.alpha)


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
    logratio = np.log(new_norm(kl, amp * e) / new_norm(kl, e[None]))
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
