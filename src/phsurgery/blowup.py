"""Blow-up of D^k at the origin: charts, lifted flow, densities, power atlas.

The blown-up disk replaces the origin by the projective space of lines.  In
the i-th affine chart a point is (u_1, ..., u_k) with u_i the radial-like
coordinate; the blow-down map sends it to x_j = u_j * u_i (j != i),
x_i = u_i.  The exceptional set is {u_i = 0}.

For the slowed saddle field rho(x) * diag(rates) * x the chart push-forward
is diagonal-linear in u with chart rates

    du_i/dt = rho * rates_i * u_i,      du_j/dt = rho * (rates_j - rates_i) * u_j,

which extends smoothly across the exceptional set.

The radial power atlas (Katok-Lewis) declares u -> |u|^alpha u a chart near
the origin.  With alpha = -(k-1)/k the pulled-back volume density becomes
bounded away from zero on the exceptional set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dualnum
from .saddle import DEFAULT_STEP, DomainEscape, _field, _fixed_steps, rk4_step

_CHART_SWITCH = 1.05  # hysteresis: transition once an affine coordinate passes this


@dataclass(frozen=True)
class BlowupPoint:
    """Chart-indexed point of the blown-up disk.

    chart is the 0-based index of the radial coordinate.  Under the
    canonical chart-selection rule (dominant coordinate of the underlying
    line, ties to the smallest index) the affine coordinates satisfy
    |u_j| <= 1.
    """

    chart: int
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if not 0 <= self.chart < len(self.u):
            raise ValueError(f"chart index {self.chart} out of range for k={len(self.u)}")

    @property
    def k(self):
        return len(self.u)

    def line(self):
        """Homogeneous line coordinates (1 in the chart slot)."""
        ell = self.u.copy()
        ell[self.chart] = 1.0
        return ell


def blowdown(p: BlowupPoint) -> np.ndarray:
    """Project to D^k: x_j = u_j u_i, x_i = u_i.  Collapses {u_i = 0} to 0."""
    x = p.u * p.u[p.chart]
    x[p.chart] = p.u[p.chart]
    return x


def _blowdown_rows(charts, U):
    """`blowdown` of every row of an (n, k) batch, row m read in chart charts[m]."""
    rows = np.arange(len(U))
    x = U * U[rows, charts][:, None]
    x[rows, charts] = U[rows, charts]
    return x


def lift(x) -> BlowupPoint:
    """Canonical chart representative of a nonzero point of D^k."""
    x = np.asarray(x, dtype=float)
    if np.all(x == 0.0):
        raise ValueError("the origin has no canonical lift")
    chart = int(np.argmax(np.abs(x)))  # argmax takes the smallest index on ties
    u = x / x[chart]
    u[chart] = x[chart]
    return BlowupPoint(chart=chart, u=u)


def chart_transition(p: BlowupPoint, target: int) -> BlowupPoint:
    """Represent the same blown-up point in another chart."""
    if target == p.chart:
        return BlowupPoint(p.chart, p.u.copy())
    t = p.u[target]
    if t == 0.0:
        raise ValueError(f"line coordinate u[{target}] vanishes; chart {target} undefined here")
    u = p.u / t
    u[p.chart] = 1.0 / t
    u[target] = p.u[target] * p.u[p.chart]
    return BlowupPoint(chart=target, u=u)


def transition_jacobian(p: BlowupPoint, target: int) -> np.ndarray:
    """Derivative of the chart transition map at p (closed form)."""
    return _transition_jacobians(np.array([p.chart]), p.u[None], np.array([target]))[0]


def _transition_jacobians(charts, U, targets):
    """(n, k, k) chart-transition Jacobians, row m from charts[m] to targets[m].

    With t = u[target]: row target holds t and u_chart, column target -line / t^2,
    the other diagonal entries 1/t (0 at the chart); a row that stays gets the identity.
    """
    n, k = U.shape
    rows, diag = np.arange(n), np.arange(k)
    stay = charts == targets
    t = np.where(stay, 1.0, U[rows, targets])[:, None]
    line = U.copy()
    line[rows, charts] = 1.0
    J = np.zeros((n, k, k))
    J[:, diag, diag] = 1.0 / t
    J[rows, charts, charts] = 0.0
    J[rows, :, targets] = -line / t**2
    J[rows, targets, :] = 0.0
    J[rows, targets, targets] = U[rows, charts]
    J[rows, targets, charts] = t[:, 0]
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

    Every method takes one chart index per row, so a batch may mix charts.
    """

    spec: object
    profile: object

    def __post_init__(self):
        object.__setattr__(self, "chart_rates", _chart_rate_matrix(self.spec.rates))

    def field(self, charts, u):
        """du/dt for an (n, k) batch, row m in chart charts[m]."""
        rho = self.profile(_blowdown_rows(charts, u))
        return self.chart_rates[charts] * u * rho[:, None]


def lifted_slow_flow(spec, profile, p: BlowupPoint, t, step=DEFAULT_STEP):
    """Flow the blown-up slow-down field for time t, switching charts as needed.

    Commutes with the flow downstairs through the blow-down map; the
    exceptional set is invariant (u_i multiplies its own derivative, so
    u_i = 0 is preserved exactly, stage by stage).
    """
    charts, U = _lifted_flow_batch(spec, profile, [p], t, step=step)
    return BlowupPoint(int(charts[0]), U[0])


def _chart_step(lifted, charts, U, t, h):
    """Advance the rows U in place by one RK4 step in their own charts, then switch.

    Raises DomainEscape if a row leaves the disk.  A row switches to the
    dominant chart of its line once an affine coordinate exceeds the
    threshold.
    """
    U[:] = rk4_step(lambda _, u: lifted.field(charts, u), t, U, h)
    x = _blowdown_rows(charts, U)
    r = np.linalg.norm(x, axis=1)
    if (r >= 1.0).any():
        raise DomainEscape(t + h, x[int(np.argmax(r))])
    absU = np.abs(U)
    absU[np.arange(len(U)), charts] = 0.0
    for m in np.flatnonzero(absU.max(axis=1) > _CHART_SWITCH):
        p = BlowupPoint(int(charts[m]), U[m])
        affine = np.abs(p.line())
        affine[p.chart] = 1.0
        q = chart_transition(p, int(np.argmax(affine)))
        charts[m] = q.chart
        U[m] = q.u


def _lifted_flow_batch(spec, profile, points, t, step=DEFAULT_STEP):
    """Fixed-step RK4 on chart coordinates for a batch of BlowupPoints.

    Chart transitions are applied between steps once an affine coordinate
    exceeds the switch threshold.  Returns the end charts (n,) and chart
    coordinates (n, k).
    """
    charts = np.array([p.chart for p in points], dtype=int)
    U = np.stack([p.u for p in points]).astype(float)
    if t == 0:
        return charts, U

    nsteps, h = _fixed_steps(t, step)
    lifted = LiftedSaddle(spec, profile)
    for istep in range(nsteps):
        _chart_step(lifted, charts, U, istep * h, h)
    return charts, U


def core_tangent_maps(spec, rho0, points, charts, t):
    """Exact time-t tangent maps of the lift of the saddle slowed by the constant rho0.

    One (k, k) map per start point p = (chart c, u), read from chart c into
    the chart charts[m] that a flow of p holds at time t.  In chart c the
    flow is u -> g u with g = exp(rho0 d[c] t), and chart c's domain is
    invariant under it; chart transitions compose, so whatever charts the
    orbit passed through, the map is
    transition_jacobian((c, g u), charts[m]) diag(g).
    """
    start = np.array([p.chart for p in points], dtype=int)
    G = np.exp(rho0 * _chart_rate_matrix(spec.rates)[start] * t)
    U = np.stack([p.u for p in points]) * G
    return _transition_jacobians(start, U, np.asarray(charts, dtype=int)) * G[:, None, :]


def commutation_campaign(spec, profile, n=1000, seed=0, step=DEFAULT_STEP,
                         t_max=1.0, radius=0.45):
    """Blow-down commutation over seeded random (point, time) pairs.

    Integrates the lifted flow in charts and the slow-down flow downstairs
    side by side; each sample is scored at its own maturity time (a step
    multiple in (0, t_max]) by |blowdown(lifted end) - disk end|.  A quarter
    of the samples start on the exceptional set, whose blow-down orbit is
    the origin.  Returns (max residual, witness dict).
    """
    rng = np.random.default_rng(seed)
    k = spec.k
    rows = np.arange(n)

    charts = rng.integers(0, k, size=n)
    U = rng.uniform(-1.0, 1.0, size=(n, k))
    line_norm = np.sqrt(1.0 + np.sum(U**2, axis=1)
                        - U[rows, charts] ** 2)
    max_rate = max(abs(r) for r in spec.rates)
    safe = radius * math.exp(-max_rate * t_max)
    radial = rng.uniform(-1.0, 1.0, size=n) * safe / line_norm
    radial[rng.random(n) < 0.25] = 0.0
    U[rows, charts] = radial

    X = _blowdown_rows(charts, U)

    nsteps, h = _fixed_steps(t_max, step)
    maturity = rng.integers(1, nsteps + 1, size=n)
    due = {}
    for i, m in enumerate(maturity):
        due.setdefault(int(m), []).append(i)

    lifted = LiftedSaddle(spec, profile)
    disk_field = lambda _, y: _field(spec, profile, y)
    worst = -1.0
    witness = None
    for istep in range(1, nsteps + 1):
        _chart_step(lifted, charts, U, (istep - 1) * h, h)
        X = rk4_step(disk_field, (istep - 1) * h, X, h)
        for i in due.get(istep, ()):
            p = BlowupPoint(int(charts[i]), U[i])
            res = float(np.linalg.norm(blowdown(p) - X[i]))
            if res > worst:
                worst = res
                witness = {"chart": int(charts[i]), "u": U[i].tolist(),
                           "time": istep * h, "residual": res}
    return worst, witness


# ---------------------------------------------------------------------------
# densities and the radial power atlas


def pullback_volume_density(p: BlowupPoint) -> float:
    """Density u_i^(k-1) of the pulled-back volume in chart coordinates.

    Signed: the sign records the chart orientation.  Equals the determinant
    of the blow-down Jacobian.
    """
    return float(p.u[p.chart] ** (p.k - 1))


def blowdown_jacobian(p: BlowupPoint) -> np.ndarray:
    """Exact derivative of the blow-down map at p (via dual numbers)."""
    i = p.chart

    def comp(u, m):
        return u[m] * u[i] if m != i else u[i]

    return np.array(dualnum.jacobian(
        [lambda u, m=m: comp(u, m) for m in range(p.k)], list(p.u)))


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


def f_alpha(kl: KLStructure, p: BlowupPoint) -> float:
    """(1 + sum of affine coordinate squares)^(alpha/2)."""
    s2 = float(np.sum(p.u**2) - p.u[p.chart] ** 2)
    return (1.0 + s2) ** (kl.alpha / 2.0)


def kl_density(kl: KLStructure, p: BlowupPoint) -> float:
    """Chart density of the volume pulled back through the power atlas.

    (alpha+1) f^k |u_i|^(k alpha) u_i^(k-1); for alpha = -(k-1)/k the radial
    powers cancel and the value is (1/k) f^k sign(u_i)^(k-1), bounded away
    from 0 on compact chart sets.
    """
    k, a = kl.k, kl.alpha
    f = f_alpha(kl, p)
    ui = p.u[p.chart]
    power = k * a + k - 1
    if ui == 0.0:
        if abs(power) < 1e-12:
            return (a + 1.0) * f**k
        return 0.0 if power > 0 else math.inf
    if abs(power) < 1e-12:
        radial = float(np.sign(ui)) ** (k - 1)
    else:
        radial = abs(ui) ** (k * a) * ui ** (k - 1)
    return (a + 1.0) * f**k * radial


def kl_chart_map(kl: KLStructure, p: BlowupPoint) -> np.ndarray:
    """Disk coordinates of the power-atlas chart: f |u_i|^alpha * blowdown."""
    f = f_alpha(kl, p)
    scale = f * abs(p.u[p.chart]) ** (1.0 + kl.alpha) * np.sign(p.u[p.chart])
    return scale * p.line()


def new_norm(kl: KLStructure, x) -> float:
    """Length of a disk point in the power atlas: |x|^(1+alpha)."""
    return float(np.linalg.norm(np.asarray(x, dtype=float)) ** (1.0 + kl.alpha))


def kl_rate_check(spec, kl: KLStructure, rho0, times=(1.0, 2.0, 4.0),
                  n_samples=200, seed=0):
    """Measure growth of the power-atlas norm under the uniformly slowed saddle.

    In the core region the flow is exp(rho0 t diag(rates)), so the new-norm
    ratio per unit vector direction lies between (lam')^(rho0 t (1+alpha))
    and (mu')^(rho0 t (1+alpha)) -- the advertised division of the rate
    exponents by k when alpha = -(k-1)/k.  Returns a dict of measured
    bounds and the regression slope of log-ratio against t.
    """
    rng = np.random.default_rng(seed)
    k = spec.k
    dirs = rng.standard_normal((n_samples, k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = 1e-3  # deep inside the uniformly slowed region
    lo = math.inf
    hi = -math.inf
    logratio = np.zeros(len(times))
    for it, t in enumerate(times):
        amp = np.exp(rho0 * t * np.asarray(spec.rates))
        for d in dirs:
            x0 = base * d
            x1 = amp * x0
            ratio = new_norm(kl, x1) / new_norm(kl, x0)
            r = ratio ** (1.0 / t)
            lo = min(lo, r)
            hi = max(hi, r)
        # pure fastest-expansion direction for the regression
        e = np.zeros(k)
        e[int(np.argmax(spec.rates))] = base
        logratio[it] = math.log(new_norm(kl, np.exp(rho0 * t * np.asarray(spec.rates)) * e)
                                / new_norm(kl, e))
    if len(times) > 1:
        slope = float(np.polyfit(times, logratio, 1)[0])
    else:
        slope = float(logratio[0] / times[0])
    return {
        "per_time_lower": lo,
        "per_time_upper": hi,
        "expected_lower": spec.lam_prime ** (rho0 * (1.0 + kl.alpha)),
        "expected_upper": spec.mu_prime ** (rho0 * (1.0 + kl.alpha)),
        "unstable_log_slope": slope,
        "expected_slope": rho0 * (1.0 + kl.alpha) * max(spec.rates),
    }


def density_regularity_probe(k, beta, radii=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                             alpha=None, direction=None):
    """Finite-difference derivative of the composed density factor along u_i -> 0.

    The factor is beta evaluated at the power-atlas chart image; for a
    generic smooth positive beta its radial derivative blows up like
    |u_i|^alpha, i.e. the pulled-back density is continuous but not C^1 at
    the exceptional set.  Returns the sweep [(u_i, |d factor / d u_i|)] and
    the fitted log-log slope.
    """
    if alpha is None:
        alpha = -(k - 1) / k
    kl = KLStructure(k=k, alpha=alpha)
    if direction is None:
        direction = np.full(k, 0.3)
    out = []
    for r in radii:
        def factor(ui):
            u = direction.copy()
            u[0] = ui
            p = BlowupPoint(chart=0, u=u)
            return beta(kl_chart_map(kl, p))

        eps = r * 1e-3
        d = (factor(r + eps) - factor(r - eps)) / (2 * eps)
        out.append((r, abs(d)))
    rs = np.log([a for a, _ in out])
    ds = np.array([b for _, b in out])
    if np.all(ds > 0):
        slope = float(np.polyfit(rs, np.log(ds), 1)[0])
    else:
        slope = 0.0
    return {"sweep": out, "log_slope": slope, "alpha": alpha}


# ---------------------------------------------------------------------------
# smoothness probes for the power atlas


def gateaux_defect(map_fn, w1, w2, s):
    """|F(s(w1+w2)) - F(s w1) - F(s w2)| / s: nonlinearity near 0.

    For a map that is C^1 at the origin with F(0)=0 this tends to 0 with s;
    for the slowed saddle read in the plain power-atlas chart on D^k it
    tends to a positive constant (the map is homogeneous but not linear).
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    return float(np.linalg.norm(map_fn(s * (w1 + w2)) - map_fn(s * w1) - map_fn(s * w2)) / s)


def kl_disk_time_map(spec, kl: KLStructure, rho0, t):
    """Time-t map of the slowed saddle in the plain power-atlas chart on D^k."""
    amp = np.exp(rho0 * t * np.asarray(spec.rates))

    def F(y):
        y = np.asarray(y, dtype=float)
        ry = np.linalg.norm(y)
        if ry == 0.0:
            return np.zeros_like(y)
        x = ry**kl.alpha * y
        x = amp * x
        rx = np.linalg.norm(x)
        return rx ** (-kl.alpha / (1.0 + kl.alpha)) * x

    return F


def kl_blowup_time_map(spec, kl: KLStructure, rho0, t, chart=0):
    """Time-t map of the lifted slowed saddle in a power-atlas blow-up chart.

    Exact in the uniformly slowed core: affine coordinates move by the
    projective flow, the radial coordinate by the k-fold-sped power law.
    """
    rates = np.asarray(spec.rates)
    i = chart

    def F(u):
        u = np.asarray(u, dtype=float)
        p = BlowupPoint(chart=i, u=u)
        aff = np.exp(rho0 * t * (rates - rates[i])) * p.line()
        aff[i] = 1.0
        f0 = f_alpha(kl, p)
        p1_line = BlowupPoint(chart=i, u=np.where(np.arange(len(u)) == i, 0.0, aff))
        f1 = f_alpha(kl, p1_line)
        scale = math.exp(rho0 * t * rates[i] / (1.0 + kl.alpha))
        ui = u[i] * scale * (f0 / f1) ** (1.0 / (1.0 + kl.alpha))
        out = aff
        out[i] = ui
        return out

    return F


def kl_smoothness_probe(spec, rho0=0.5, t=1.0, scales=(1e-2, 1e-3, 1e-4)):
    """Numerical C^1 comparison of the slowed saddle in the power atlas.

    Returns Gateaux nonlinearity defects of the disk map (expected to
    stabilize at a positive constant: not C^1 at the origin) and second
    differences across the exceptional set of the blow-up chart map
    (expected bounded: smooth).
    """
    k = spec.k
    kl = KLStructure.volume_nondegenerate(k)
    w1 = np.zeros(k)
    w1[int(np.argmin(spec.rates))] = 1.0
    w2 = np.zeros(k)
    w2[int(np.argmax(spec.rates))] = 1.0

    disk = kl_disk_time_map(spec, kl, rho0, t)
    disk_defect = [gateaux_defect(disk, w1, w2, s) for s in scales]
    ident = kl_disk_time_map(spec, KLStructure(k=k, alpha=0.0), rho0, t)
    control_defect = [gateaux_defect(ident, w1, w2, s) for s in scales]

    chart_map = kl_blowup_time_map(spec, kl, rho0, t)
    base = np.full(k, 0.3)
    second = []
    for s in scales:
        pts = []
        for ui in (-s, 0.0, s):
            u = base.copy()
            u[0] = ui
            pts.append(chart_map(u))
        second.append(float(np.linalg.norm(pts[0] - 2 * pts[1] + pts[2]) / s**2))
    return {
        "scales": list(scales),
        "disk_defect": disk_defect,
        "linear_control_defect": control_defect,
        "chart_second_difference": second,
    }
