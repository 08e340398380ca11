"""Cone fields over the product flow and their measured hyperbolicity margins.

The model tangent space is R^k + R^(s+c+u): first the disk (chart) block,
then the restricted-flow blocks in the order stable, flow direction,
unstable.  Cones are metric balls of directions around a center subspace;
the restricted-flow block always evolves by the exact rate cocycle.  The
disk block evolves by an exact tangent map too: the closed-form chart map
in the uniformly slowed core (`blowup.core_tangent_maps`), the time-change
map across the annulus (`saddle.transit_campaign`).

A batch of tangent maps is one (n, d, d) array: `ProductModel.full_maps`
builds the block maps from an (n, k, k) stack of disk maps, and
`_frame_pass` maps a cone frame through the whole stack at once.  The core
campaigns read the chart of each exact core orbit at every checkpoint from
one `blowup.core_chart_schedule` call and return a `CoreConeReport` each;
`crossing_cone_statistics` returns the four crossing statistics of any
batch of transits as a dict.

The campaigns measure, rather than assume, the three quantities the cone
criterion needs: invariance of the unstable cone (after a reported burn-in),
its minimal expansion exponent, and the domination gap over vectors that
remain in the complementary cone.  In the uniformly slowed core the chart
dynamics is exactly linear, with disk-block exponents

    rho0 * rate_i   (radial)   and   rho0 * (rate_j - rate_i)  (projective),

so the admissibility threshold for rho0 is visible in the data: once the
projective spread rho0*(max-min) reaches the restricted unstable rate, the
unstable cone stops being invariant and domination fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blowup, saddle
from .blowup import BlowupPoint
from .saddle import DEFAULT_STEP, AnosovModel, SaddleSpec


@dataclass(frozen=True)
class ConeSpec:
    """Directions within angle `aperture` of the span of the orthonormal `center` columns."""

    center: np.ndarray
    aperture: float

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", c)
        if not 0.0 < self.aperture < math.pi / 4:
            raise ValueError("aperture must lie in (0, pi/4)")
        gram = c.T @ c
        if np.abs(gram - np.eye(c.shape[1])).max() > 1e-12:
            raise ValueError("center basis must be orthonormal to 1e-12")


def angle_to_center(v, cone: ConeSpec):
    """Product-metric angle between each row of v and the cone's center subspace."""
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=1)
    if (norms == 0).any():
        raise ValueError("zero vector has no direction")
    proj = np.linalg.norm(v @ cone.center, axis=1)
    return np.arccos(np.clip(proj / norms, 0.0, 1.0))


def in_cone(v, cone: ConeSpec):
    """Whether each row of v lies strictly inside the cone."""
    return angle_to_center(v, cone) < cone.aperture


# ---------------------------------------------------------------------------
# the product model and its frames


@dataclass(frozen=True)
class ProductModel:
    """Disk block + restricted-flow blocks, with index bookkeeping."""

    spec: SaddleSpec
    anosov: AnosovModel

    @property
    def dim(self):
        s, c, u = self.anosov.dims
        return self.spec.k + s + c + u

    def axes(self, which):
        """Unit vectors spanning a named block: 'disk' | 's' | 'c' | 'u' | 'cs'."""
        k = self.spec.k
        s, c, _ = self.anosov.dims
        a, b = {"disk": (0, k), "s": (k, k + s), "c": (k + s, k + s + c),
                "u": (k + s + c, self.dim), "cs": (0, k + s + c)}[which]
        return np.eye(self.dim, b - a, -a)

    def unstable_cone(self, omega):
        return ConeSpec(center=self.axes("u"), aperture=omega)

    def center_stable_cone(self, omega):
        return ConeSpec(center=self.axes("cs"), aperture=omega)

    def full_maps(self, J_disk, times):
        """(n, d, d) block tangent maps from an (n, k, k) stack of disk maps.

        Row m is diag(J_disk[m], exp(rates * times[m])): the disk map and the
        exact restricted cocycle at time times[m].
        """
        k = self.spec.k
        M = np.zeros((len(J_disk), self.dim, self.dim))
        M[:, :k, :k] = J_disk
        diag = np.arange(k, self.dim)
        M[:, diag, diag] = np.exp(np.asarray(self.anosov.rates) * np.asarray(times)[:, None])
        return M

    def reversed(self):
        """Time-reversed model: all rates negated, comparison constants swapped."""
        spec = SaddleSpec(rates=tuple(-r for r in self.spec.rates))
        an = self.anosov
        anosov = AnosovModel(
            stable_rates=tuple(sorted(-r for r in an.unstable_rates)),
            unstable_rates=tuple(sorted(-r for r in an.stable_rates)),
            lam=1.0 / an.mu, mu=1.0 / an.lam)
        return ProductModel(spec=spec, anosov=anosov)


def random_directions(n, dim, seed):
    """n seeded pseudo-random unit vectors in R^dim (normalized normal draws)."""
    g = np.random.default_rng(seed).standard_normal((n, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def cone_boundary_frame(model: ProductModel, cone: ConeSpec, n, seed):
    """Unit vectors on (and in) a cone: sampled boundary rows, tilts and center axes.

    The first n rows are seeded pseudo-random directions at angle exactly
    `aperture`; then come the center axes +-C and the axis-aligned boundary
    tilts, which do not depend on the seed.  The center axes are included
    because worst growth behavior lives both on the boundary and on the
    extreme center directions.
    """
    d = model.dim
    C = cone.center
    m = C.shape[1]
    # orthonormal complement
    full, _ = np.linalg.qr(np.hstack([C, np.eye(d)]))
    W = full[:, m:d]
    cdirs = random_directions(n, m, seed)
    wdirs = random_directions(n, d - m, seed + 1)
    vecs = (math.cos(cone.aperture) * cdirs @ C.T
            + math.sin(cone.aperture) * wdirs @ W.T)
    # axis-aligned boundary tilts cos C_i +- sin W_j: worst cases of the closed-form bounds
    tilts = (math.cos(cone.aperture) * C.T[:, None, None, :]
             + np.array([1.0, -1.0])[:, None] * math.sin(cone.aperture) * W.T[:, None, :])
    return np.vstack([vecs, C.T, -C.T, tilts.reshape(-1, d)])


# ---------------------------------------------------------------------------
# propagation


def propagate(state, t, frame, *, spec, anosov, rho0, step=DEFAULT_STEP):
    """Apply the block tangent map of the uniformly slowed product to a frame.

    The disk block is the tangent map of the saddle slowed by the constant
    rho0 at each disk point of the (n, k) batch `state` (rho == rho0 must
    hold along the orbit); the restricted block is the exact cocycle.  frame
    rows are model tangent vectors.  One RK4 pass (t one time or one per
    row) returns the n points at their times and the n propagated frames,
    each its one-row call's.
    """
    model = ProductModel(spec=spec, anosov=anosov)
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[1] != model.dim:
        raise ValueError(f"frame must hold rows of dimension {model.dim}, not shape {frame.shape}")
    end, J = saddle.variational_flow_slow(spec, saddle.BumpProfile.flat(rho0), state, t, step=step)
    images = np.stack([frame @ M.T for M in model.full_maps(J, np.broadcast_to(t, len(J)))])
    return end, images


def _frame_pass(maps, frame, cone):
    """Angles to the cone's center and growth factors of every frame row under every map.

    maps is an (n, d, d) stack; returns two (n, N) arrays, row m for map m,
    from one `angle_to_center` call on all images.
    """
    images = frame @ maps.transpose(0, 2, 1)
    n, rows, d = images.shape
    angles = angle_to_center(images.reshape(n * rows, d), cone).reshape(n, rows)
    return angles, np.linalg.norm(images, axis=2) / np.linalg.norm(frame, axis=1)


# ---------------------------------------------------------------------------
# campaign reports


@dataclass
class CoreConeReport:
    """Measured cone statistics over orbit segments in the uniformly slowed core."""

    burn_in: float | None
    min_u_exponent: float       # log growth rate on the unstable cone
    domination_exponent: float  # log of the domination ratio rate
    violations: list

    def passed(self, min_exponent=None):
        ok = not self.violations and self.domination_exponent > 0.0
        if self.burn_in is not None:
            ok = ok and self.burn_in <= 1.0
        if min_exponent is not None:
            ok = ok and self.min_u_exponent >= min_exponent
        return bool(ok)


def _inner_orbit_points(model: ProductModel, n_orbits, seed, radius):
    """Chart basepoints in the uniformly slowed core, as one batch.

    The first k points are the chart fixed points (the invariant axis lines
    on the exceptional set): these are the orbits where the projective
    spread exponent acts for all time, hence the worst cases.  The rest mix
    generic exceptional-set points (every third) and nearby disk points
    across charts.  Point m takes, from one seeded stream in point order,
    k uniform draws in (-0.6, 0.6) and, off the exceptional set, one radial
    draw in (0.2, 1).
    """
    k = model.spec.k
    m = np.arange(max(0, n_orbits - k))
    charts = m % k
    off = m % 3 != 0
    width = k + off
    start = np.cumsum(width) - width
    R = np.random.default_rng(seed).random(int(width.sum()))
    # numpy's uniform(lo, hi) is lo + (hi - lo) * random(), draw for draw
    U = -0.6 + (0.6 - -0.6) * R[start[:, None] + np.arange(k)]
    line = U.copy()
    line[m, charts] = 1.0
    radial = np.zeros(len(m))
    radial[off] = (0.2 + (1.0 - 0.2) * R[start[off] + k]) * radius / saddle._radius(line[off])
    U[m, charts] = radial
    return BlowupPoint(np.concatenate([np.arange(k), charts]), np.vstack([np.zeros((k, k)), U]))


def _cones_and_frames(model: ProductModel, omega, n_vectors, seed):
    """(cone, frame) for the unstable cone, then for the center-stable cone, of aperture omega."""
    ucone = model.unstable_cone(omega)
    cscone = model.center_stable_cone(omega)
    return ((ucone, cone_boundary_frame(model, ucone, n_vectors, seed)),
            (cscone, cone_boundary_frame(model, cscone, n_vectors, seed + 7)))


# checkpoint times of the core campaign's exponents
_CAMPAIGN_TIMES = (1.0, 2.0, 4.0)


def inner_cone_campaign(spec, anosov, rho0, omega, *, n_vectors=1000, n_orbits=24,
                        seed=0, step=DEFAULT_STEP, reverse=False):
    """The `CoreConeReport` of the one-run call of `inner_cone_campaigns`."""
    run = dict(rho0=rho0, n_vectors=n_vectors, n_orbits=n_orbits, seed=seed, reverse=reverse)
    return inner_cone_campaigns(spec, anosov, omega, [run], step=step)[0][0]


def inner_cone_campaigns(spec, anosov, omega, runs, *, step=DEFAULT_STEP):
    """Cone invariance, expansion and domination in the uniformly slowed core, per run.

    A run is a dict of `inner_cone_campaign`'s keywords rho0, n_vectors,
    n_orbits, seed and reverse (the time-reversed flow, whose statistics must
    reproduce by symmetry).  Orbits run in the blow-up charts, the exceptional
    set included, where the slowed field is exactly linear: the orbits of all
    runs are blocks of one `blowup.core_chart_schedule` call, each row with
    its run's rates and rho0, which reads the chart the lifted RK4 flow would
    hold every 0.25, with the steps of one lifted-flow call per segment, off
    the exact orbit.  At each checkpoint the disk block is the closed-form
    tangent map into that chart, and the restricted block moves by the exact
    cocycle.  Each report equals its lone call's: burn-in time after which
    every sampled unstable-cone boundary vector is strictly inside, minimum
    expansion exponent over the unstable cone, domination exponent against
    vectors that stay in the center-stable cone, and backward invariance of
    that cone.  A row that reaches the unit sphere stops there and keeps its
    chart, and its run fails with a `domain-escape` violation.  Returns
    (reports, the schedule's counters).
    """
    tmax = max(_CAMPAIGN_TIMES)
    # checkpoints every 0.25 time units up to tmax
    grid = [round(0.25 * i, 10) for i in range(1, int(round(tmax / 0.25)) + 1)]
    model = ProductModel(spec=spec, anosov=anosov)
    models = [model.reversed() if run["reverse"] else model for run in runs]
    # keep whole segments inside the uniformly slowed core (and the disk)
    radii = [min(0.012, 0.5 * math.exp(-run["rho0"] * max(map(abs, m.spec.rates)) * tmax))
             for m, run in zip(models, runs)]
    points = [_inner_orbit_points(m, run["n_orbits"], run["seed"] + 3, r)
              for m, run, r in zip(models, runs, radii)]
    sizes = [len(p) for p in points]
    nsteps, h = saddle._fixed_steps(0.25, step)
    chart_log, escapes, counters = blowup.core_chart_schedule(
        np.repeat([m.spec.rates for m in models], sizes, axis=0),
        np.repeat([run["rho0"] for run in runs], sizes),
        BlowupPoint(np.concatenate([p.chart for p in points]), np.vstack([p.u for p in points])),
        h, nsteps, len(grid))
    reports, lo = [], 0
    for m, run, p in zip(models, runs, points):
        hi = lo + len(p)
        escaped = [{"type": "domain-escape", "orbit": row - lo, "time": t, "point": x.tolist()}
                   for t, x, row in escapes if lo <= row < hi]
        reports.append(_core_report(m, run, omega, p, grid, chart_log[:, lo:hi], escaped))
        lo = hi
    return reports, counters


def _core_report(model, run, omega, points, grid, chart_log, escapes):
    """One run's `CoreConeReport` from its orbits' charts at the checkpoints and its escapes."""
    spec, rho0 = model.spec, run["rho0"]
    (ucone, uframe), (cscone, csframe) = _cones_and_frames(model, omega, run["n_vectors"],
                                                           run["seed"])
    min_u_exp = dom_exp = math.inf
    member_frac, burn_in, violations = {}, None, []
    n, times = len(points), np.repeat(grid, len(points))  # every checkpoint's maps, one stack
    tiled = BlowupPoint(np.tile(points.chart, len(grid)), np.tile(points.u, (len(grid), 1)))
    maps = model.full_maps(blowup.core_tangent_maps(spec, rho0, tiled, chart_log.ravel(),
                                                    times[:, None]), times)
    maps = maps.reshape(len(grid), n, model.dim, model.dim)

    for t, M, M_inv in zip(grid, maps, np.linalg.inv(maps)):
        ang, growth_u = _frame_pass(M, uframe, ucone)
        inside = ang < omega
        member_frac[t] = float(inside.mean(axis=1).min())
        if inside.all() and burn_in is None:
            burn_in = t
        angb, _ = _frame_pass(M_inv, csframe, cscone)
        back_bad = ~(angb < omega + 1e-12).all(axis=1)
        gap = np.full(n, math.inf)
        if t in _CAMPAIGN_TIMES:
            expo_u = np.log(growth_u).min(axis=1) / t
            min_u_exp = min(min_u_exp, float(expo_u.min()))
            angf, growth_cs = _frame_pass(M, csframe, cscone)
            # staying vectors: inside the cs cone now (boundary tolerated)
            stay = angf <= omega + 1e-12
            expo_cs = np.where(stay, np.log(growth_cs) / t, -math.inf).max(axis=1)
            gap = np.where(stay.any(axis=1), expo_u - expo_cs, math.inf)
            dom_exp = min(dom_exp, float(gap.min()))
        for m in np.flatnonzero(back_bad | (gap <= 0)):
            if back_bad[m]:
                violations.append({
                    "type": "cs-backward-invariance", "time": t, "orbit": int(m),
                    "angle": float(angb[m].max()), "aperture": omega})
            if gap[m] <= 0:
                violations.append({
                    "type": "domination", "time": t, "orbit": int(m),
                    "u_exponent": float(expo_u[m]), "cs_exponent": float(expo_cs[m])})
    # invariance after burn-in: membership must not regress
    if burn_in is None:
        violations.append({"type": "u-invariance", "detail": "never fully inside"})
    else:
        violations.extend({"type": "u-invariance", "time": t, "fraction": member_frac[t]}
                          for t in grid if t > burn_in and member_frac[t] < 1.0)
    return CoreConeReport(burn_in=burn_in, min_u_exponent=min_u_exp,
                          domination_exponent=dom_exp, violations=violations + escapes)


def crossing_cone_campaign(spec, profile, anosov, omega, *, n_entries=200,
                           n_vectors=200, seed=0):
    """(`crossing_cone_statistics`, transits) over the transits of `saddle.transit_campaign`.

    The entries are the same directions at every delta, scaled, so the
    statistics at c delta are these up to rounding.
    """
    transits = saddle.transit_campaign(spec, profile, n_entries, seed + 11)
    return crossing_cone_statistics(spec, anosov, omega, transits, n_vectors=n_vectors,
                                    seed=seed), transits


def crossing_cone_statistics(spec, anosov, omega, transits, *, n_vectors=200, seed=0):
    """Cone damage across the transition shell over a batch of annulus transits.

    For each transit with tangent map M: the aperture ratio max angle(M v)
    / omega over unstable-cone vectors (how much the cone opens), the
    minimal expansion on the unstable cone, and the backward quantities for
    the center-stable cone under the inverse maps; each is the worst over
    the batch, keyed as in the cones suite's report.
    """
    model = ProductModel(spec=spec, anosov=anosov)
    (ucone, uframe), (cscone, csframe) = _cones_and_frames(model, omega, n_vectors, seed)
    M = model.full_maps(transits.jacobian, transits.time)
    ang, growth = _frame_pass(M, uframe, ucone)
    angb, growth_b = _frame_pass(np.linalg.inv(M), csframe, cscone)
    return {"aperture_ratio": float(ang.max()) / omega, "min_expansion": float(growth.min()),
            "backward_aperture": float(angb.max()) / omega,
            "backward_contraction": float(growth_b.min())}


def rate_chain_check(spec, anosov, rho0, *, region="far"):
    """Three-scale chain: stable < lam^t < center < mu^t < unstable growth.

    The product flow's tangent map is diagonal, so the growth extremes in
    each invariant block (disk directions count as center) are its diagonal
    entries there; they are read at t = 1 and 2 and compared against the
    comparison constants.  The outer comparisons are tight for the block
    model, so they are asserted up to 1e-9; the center comparisons must hold
    with a strictly positive margin, which is returned.  region 'far' uses
    the unperturbed flow, 'core' the uniformly slowed one.
    """
    model = ProductModel(spec=spec, anosov=anosov)
    rho = 1.0 if region == "far" else rho0
    blocks = (("s", model.axes("s")), ("c", np.hstack([model.axes("c"), model.axes("disk")])),
              ("u", model.axes("u")))

    lam, mu = anosov.lam, anosov.mu
    ok = True
    witnesses = []
    center_margin = math.inf
    for t in (1.0, 2.0):
        disk_J = np.diag(np.exp(rho * np.asarray(spec.rates) * t))
        diagonal = np.diagonal(model.full_maps(disk_J[None], [t])[0])
        for name, E in blocks:
            growth = diagonal @ E  # a block axis grows by its diagonal entry
            lo, hi = float(growth.min()), float(growth.max())
            if name == "s" and hi > lam**t * (1.0 + 1e-9):
                ok = False
                witnesses.append({"block": "s", "time": t, "growth": hi, "bound": lam**t})
            if name == "u" and lo < mu**t * (1.0 - 1e-9):
                ok = False
                witnesses.append({"block": "u", "time": t, "growth": lo, "bound": mu**t})
            if name == "c":
                margin = min(math.log(lo) - t * math.log(lam), t * math.log(mu) - math.log(hi))
                center_margin = min(center_margin, margin / t)
                if margin <= 0:
                    ok = False
                    witnesses.append({"block": "c", "time": t, "low": lo, "high": hi,
                                      "lam_t": lam**t, "mu_t": mu**t})
    return {"ok": ok, "region": region, "rho0": rho0,
            "center_margin": center_margin, "witnesses": witnesses}
