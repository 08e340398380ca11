"""Verification suites: each runs a battery of measured checks and reports.

A check is a dict with a name, a pass flag, the measured quantities (with a
human-readable `meaning` naming what the constant instantiates), and witness
data when it fails.  Suites never raise on a failed check; they embed the
witness so the caller can decide (the CLI turns any failure into exit 1).
An RK4 flow that has a closed form (the flat lifted core, the Moser map) is
checked against it rather than against its own run at half the step.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; every suite draws from it

from . import blowup, cones, forms, homogeneous as hg, saddle
from .blowup import BlowupPoint, KLStructure
from .config import CampaignConfig
from .dualnum import Dual, dsqrt


def _check(name, passed, meaning, measured=None, witness=None):
    out = {"name": name, "passed": bool(passed), "meaning": meaning,
           "measured": _plain(measured or {})}
    if witness is not None and not passed:
        out["witness"] = _plain(witness)
    return out


def _plain(obj):
    """Recursively convert numpy scalars/arrays for serialization."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def _suite(name, checks):
    return {"name": name, "passed": all(c["passed"] for c in checks), "checks": checks}


def _classes_realized(counts):
    """The three realizable crossing classes occur and inner->inner does not."""
    return (counts["inner->inner"] == 0
            and all(counts[c] > 0 for c in ("inner->outer", "outer->inner", "outer->outer")))


def _one_per_type(violations):
    """Representative witnesses covering every violation type: the first two of each."""
    out, seen = [], {}
    for v in violations:
        kind = v.get("type", "unknown")
        if seen.get(kind, 0) < 2:
            out.append(v)
            seen[kind] = seen.get(kind, 0) + 1
    return out


# ---------------------------------------------------------------------------
# saddle suite


def run_saddle_suite(cfg: CampaignConfig):
    spec = cfg.saddle_spec()
    rho0 = cfg.resolved_rho0()
    profile = cfg.bump_profile()
    tol = cfg.tolerances
    checks = []

    # bump profile contract (strict increase is below float resolution at the
    # flat ends, so it is asserted on the middle of the transition)
    s = np.linspace(profile.delta, 2 * profile.delta, 1002)[1:-1]
    vals, slopes = profile.value_and_slope(s)
    second = np.diff(vals, 2) / (s[1] - s[0]) ** 2
    mid = (s > 1.05 * profile.delta) & (s < 1.95 * profile.delta)
    checks.append(_check(
        "bump-contract", bool(
            (np.abs(slopes) < 1.0 / profile.delta).all()
            and (np.diff(vals) >= 0).all()
            and (np.diff(vals[mid]) > 0).all()
            and profile.value(profile.delta / 2) == rho0
            and profile.value(3 * profile.delta) == 1.0
            and np.all(np.isfinite(second))),
        "slow-down profile: flat at rho0, rising transition with "
        "|slope| < 1/delta (strict increase checked where it is float "
        "resolvable), flat at 1, bounded curvature",
        measured={"max_slope_times_delta": float(np.abs(slopes).max() * profile.delta),
                  "midpoint_value": profile.value(1.5 * profile.delta),
                  "max_curvature_times_delta2": float(np.abs(second).max() * profile.delta**2)}))

    # slow-down reduces speed
    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(-0.6, 0.6, size=(500, cfg.k))
    pts = pts[np.linalg.norm(pts, axis=1) < 0.95]
    speed_ratio = profile(pts)
    outside = np.linalg.norm(pts, axis=1) >= 2 * profile.delta
    checks.append(_check(
        "slow-down-reduces-speed",
        bool((speed_ratio <= 1.0 + 1e-15).all() and np.allclose(speed_ratio[outside], 1.0)),
        "the slowed field is never faster than the saddle and matches it "
        "outside twice the transition radius",
        measured={"max_ratio": float(speed_ratio.max()),
                  "min_ratio_outside": float(speed_ratio[outside].min())}))

    # shear bound with the |x| factor explicit
    r = rng.uniform(profile.delta, 2 * profile.delta, size=1000)
    x = rng.standard_normal((1000, cfg.k))
    x *= (r / saddle._radius(x))[:, None]
    margin = float(saddle.shear_bound_margin(spec, profile, x,
                                             rng.standard_normal((1000, cfg.k))).min())
    checks.append(_check(
        "shear-bound", margin >= -1e-12,
        "transition-shell shear: <D(rho X)v, v> bounded by "
        "(max|rate| |grad rho| |x| + log mu') |v|^2",
        measured={"min_margin": margin}))

    # admissible rho0 selection
    lamp, mup = spec.lam_prime, spec.mu_prime
    auto = saddle.pick_rho0(cfg.lam, cfg.mu, lamp, mup, k=cfg.k,
                            volume_mode=cfg.volume_mode)
    grid = np.arange(0.01, 1.0, 0.01)
    feasible = [r for r in grid if saddle.domination_holds(
        r, cfg.lam, cfg.mu, lamp, mup, k=cfg.k, volume_mode=True)]
    ok_grid = saddle.domination_holds(auto, cfg.lam, cfg.mu, lamp, mup,
                                      k=cfg.k, volume_mode=cfg.volume_mode)
    interval = [min(feasible), max(feasible)] if feasible else []
    checks.append(_check(
        "rho0-selection", bool(ok_grid and interval and interval[0] <= auto <= interval[1]),
        "the picked slow-down exponent satisfies the rate-domination "
        "inequalities (grid-swept oracle)",
        measured={"rho0": auto, "volume_feasible_interval": interval},
        witness=None if feasible else {
            "empty_grid": "no rho0 in 0.01, 0.02, ..., 0.99 meets the volume-mode "
                          "domination inequalities"}))

    # closed-form transit times of the exact kernel, one axis row per call
    e_u = np.zeros(cfg.k)
    e_u[int(np.argmax(spec.rates))] = profile.delta
    rep_u, = saddle.time_change_transits(spec, saddle.BumpProfile.flat(rho0, profile.delta),
                                         e_u[None, :])
    expected_u = math.log(2.0) / (rho0 * max(spec.rates))
    e_s = np.zeros(cfg.k)
    e_s[int(np.argmin(spec.rates))] = 2 * profile.delta
    rep_s, = saddle.time_change_transits(spec, saddle.BumpProfile.flat(1.0, profile.delta),
                                         e_s[None, :])
    expected_s = math.log(2.0) / abs(min(spec.rates))
    checks.append(_check(
        "transit-closed-forms",
        abs(rep_u.time - expected_u) < 1e-6 and abs(rep_s.time - expected_s) < 1e-6,
        "axis transits against the exact crossing times of r' = rho r",
        measured={"radial_unstable_T": rep_u.time, "expected_u": expected_u,
                  "stable_axis_T": rep_s.time, "expected_s": expected_s}))

    # the exact shell campaign, once, at the sweep's first delta; each later
    # delta reruns only the RK4 oracle's rows, rescaled (see `_oracle_rows`)
    d0 = cfg.delta_sweep[0]
    ref = saddle.transit_campaign(spec, saddle.BumpProfile(delta=d0, rho0=rho0),
                                  cfg.samples, cfg.seed)
    row_sets = _oracle_rows(spec, rho0, ref, cfg.delta_sweep)
    picked = row_sets[d0]
    by_delta = {str(d): saddle.distortions(t.jacobian) for d, t in row_sets.items()}
    ratio, ratio_inv = (max(v) / min(v) for v in zip(*by_delta.values()))
    distortion, distortion_inv = saddle.distortions(ref.jacobian)
    checks.append(_check(
        "distortion-uniformity",
        ratio < tol["distortion_ratio"] and ratio_inv < tol["distortion_ratio"],
        "sup singular value of transit tangent maps, and of their inverses, at the first "
        "delta; on the oracle rows, rescaled, both sups hold across the delta sweep",
        measured={"distortion": distortion, "inverse_distortion": distortion_inv,
                  "ratio": ratio},
        witness={"rows": len(picked), "row_distortions_by_delta": by_delta}))
    checks.append(_check(
        "transit-time-scaling", True,
        "mean transit time at the first delta (reported, not asserted: the crossing "
        "time of a ratio-2 shell is scale free, as time-change-oracle checks)",
        measured={"mean_T": float(ref.time.mean())}))
    checks.append(_check(
        "transit-classes", _classes_realized(ref.class_counts),
        "entry/exit classification at the first delta: the three realizable crossing "
        "classes occur; inner->inner is empty because the radial quadratic form "
        "strictly increases along orbits",
        measured={"class_counts": ref.class_counts}))

    # one stacked RK4 pass: the oracle rows as transits at the first delta; at
    # the configured delta the probes and their central-difference neighbours.
    # The probes' end points are compared with the exact slowed clock.  A probe
    # whose rows reach the unit sphere has error inf; the first such row of
    # each block is the witness.
    probes = np.array([np.resize([0.12, 0.05, -0.04, 0.02], cfg.k),
                       np.resize([0.05, -0.15, 0.11, -0.03], cfg.k),
                       e_u * 1.2])
    flow = lambda x: (x, cfg.delta, *saddle._fixed_steps(1.0, cfg.step)[::-1], False)
    [(exits, J_rk4, t_rk4, stop), *flows], counters = saddle._rk4_rows(spec, profile, [
        (picked.entry, d0, cfg.step, saddle._transit_steps(spec, rho0, cfg.step), True),
        flow(probes), flow(_central_points(probes))])
    out = {n: b[3] == "escape" for n, b in zip(("probes", "neighbours"), flows)}
    escapes = {name: {"row": int(i), "time": t[i], "point": x[i]} for (name, gone), (x, _, t, _)
               in zip(out.items(), flows) for i in np.flatnonzero(gone)[:1]}
    witness = {"escapes": escapes} if escapes else None
    (ends, J, *_), (fd_ends, *_) = flows
    Jfd = _central_jacobians(lambda _: fd_ends, probes)
    fd_errs = np.where(out["probes"] | out["neighbours"].reshape(len(probes), -1).any(axis=1),
                       np.inf, [np.linalg.norm(a - b) / np.linalg.norm(b) for a, b in zip(J, Jfd)])
    exact = saddle.slowed_clock(spec, profile, probes, 1.0, counters)
    rich = np.where(out["probes"], np.inf, saddle._radius(ends - exact))
    checks.append(_check(
        "tangent-map-oracle", fd_errs.max() < tol["jacobian_fd"],
        "variational tangent maps match central finite differences",
        measured={"max_relative_error": float(fd_errs.max())}, witness=witness))
    checks.append(_check(
        "richardson", rich.max() < tol["richardson"],
        "the fixed-step integrator's end points match the exact slowed clock",
        measured={"max_residual": float(rich.max())}, witness=witness))

    # the RK4 oracle rows at the first delta; at each later delta the same
    # rows against the first delta's, rescaled
    oracle = saddle.TransitReport(picked.entry, exits, t_rk4, picked.entry_sphere, stop, J_rk4)
    rk4 = saddle.transit_differences(picked, oracle, d0)
    rescaled = {str(d): saddle.transit_differences(row_sets[d], replace(
        picked, entry=picked.entry * (d / d0), exit=picked.exit * (d / d0)), d)
        for d in cfg.delta_sweep[1:]}
    worst = lambda diffs: max(diffs[key] for key in ("time", "exit_over_delta", "jacobian_rel"))
    worst_rescaled = max(map(worst, rescaled.values()))
    checks.append(_check(
        "time-change-oracle",
        rk4["class_mismatches"] == 0 and worst(rk4) < tol["time_change_oracle"]
        and all(v["class_mismatches"] == 0 for v in rescaled.values()) and worst_rescaled < 1e-9,
        "exact time-change transits (closed-form orbit, Gauss-Legendre time and tangent "
        "map) against fixed-step RK4 transits at the first delta (class, time, exit / delta, "
        "tangent map), and at every other delta against the first delta's, rescaled",
        measured={"max_time_error": rk4["time"],
                  "max_exit_error_over_delta": rk4["exit_over_delta"],
                  "max_jacobian_rel_error": rk4["jacobian_rel"],
                  "class_mismatches": rk4["class_mismatches"],
                  "rows_by_delta": {str(d0): len(picked)},
                  "max_rescaling_error": worst_rescaled},
        witness={"rk4": {str(d0): {"rows": len(picked), **rk4}}, "rescaling": rescaled}))

    return {**_suite("saddle", checks), "counters": counters}


def _oracle_rows(spec, rho0, reports, deltas):
    """{delta: transits} of the RK4 oracle subsample of a transit campaign at deltas[0].

    The rows are the first two non-axis rows of each crossing class, then
    the axis rows (the first k, see `saddle.sample_entries`), 12 at most.
    x -> c x maps slowed orbits at delta onto orbits at c delta with the
    same times and tangent maps, so one exact-kernel call reruns these rows
    at every later delta, entries scaled by delta / deltas[0].
    """
    k = spec.k
    cls = reports.crossing_class[k:]
    picked = np.concatenate([k + np.flatnonzero(cls == c)[:2]
                             for c in sorted(saddle.CROSSING_CLASSES)])
    rows = np.sort(np.concatenate([picked, np.arange(min(k, 12 - len(picked)))]))
    later = np.repeat(deltas[1:], len(rows))
    rescaled = saddle.time_change_transits(spec, saddle.BumpProfile(delta=later, rho0=rho0), (
        np.tile(reports.entry[rows], (len(deltas) - 1, 1)) * (later / deltas[0])[:, None]))
    return {deltas[0]: reports[rows], **{d: rescaled[i * len(rows):(i + 1) * len(rows)]
                                         for i, d in enumerate(deltas[1:])}}


# ---------------------------------------------------------------------------
# blowup suite


def _random_points(rng, n, k, bound, floor=None):
    """n seeded chart points, u uniform in (-bound, bound)^k and one chart per row.

    With a floor, a radial coordinate below 0.05 in size is set to it.
    """
    u = rng.uniform(-bound, bound, size=(n, k))
    p = BlowupPoint(rng.integers(0, k, size=n), u)
    if floor is not None:
        radial = p.radial()
        u[np.arange(n), p.chart] = np.where(np.abs(radial) < 0.05, floor, radial)
    return p


def _escaping(run):
    """(run(), None), or (None, the witness of its DomainEscape or forms.PathDegenerate)."""
    try:
        return run(), None
    except saddle.DomainEscape as err:
        return None, {"type": "domain-escape", "row": err.row, "time": err.time, "point": err.point}
    except forms.PathDegenerate as exc:
        return None, {"type": type(exc).__name__, "s": exc.s, "point": exc.x, "message": str(exc)}


def _central_points(x, eps=1e-6):
    """The neighbours x +- eps e_i of every row of x, as (2 n k, k) rows [row, sign, i]."""
    shifts = np.array([1.0, -1.0])[:, None, None] * eps * np.eye(x.shape[1])
    return (x[:, None, None, :] + shifts).reshape(-1, x.shape[1])


def _central_jacobians(fn, x, eps=1e-6):
    """Central-difference Jacobians at every row of x, from one call of fn on its neighbours."""
    n, k = x.shape
    y = fn(_central_points(x, eps)).reshape(n, 2, k, k)  # [row, sign, i]: fn at x +- eps e_i
    return (y[:, 0] - y[:, 1]).transpose(0, 2, 1) / (2 * eps)


def run_blowup_suite(cfg: CampaignConfig):
    spec = cfg.saddle_spec()
    rho0 = cfg.resolved_rho0()
    profile = cfg.bump_profile()
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    checks = []
    k = cfg.k

    # round trips
    X = rng.uniform(-0.5, 0.5, size=(1000, k))
    X = X[saddle._radius(X) >= 1e-3]
    targets = rng.integers(0, k, size=len(X))
    p = blowup.lift(X)
    worst_rt = float(saddle._radius(blowup.blowdown(p) - X).max())
    movable = p.u[np.arange(len(X)), targets] != 0.0
    p, X = p[movable], X[movable]
    q = blowup.chart_transition(p, targets[movable])
    back = blowup.chart_transition(q, p.chart)
    worst_tr = max(float(saddle._radius(blowup.blowdown(q) - X).max(initial=0.0)),
                   float(np.abs(back.u - p.u).max(initial=0.0)))
    checks.append(_check(
        "chart-round-trips", worst_rt < 1e-12 and worst_tr < 1e-12,
        "lift/blow-down and chart-transition round trips",
        measured={"lift_roundtrip": worst_rt, "transition_roundtrip": worst_tr}))

    # commutation campaign; exceptional-invariance reads its samples that start on
    # the exceptional set.  A sample that leaves the disk fails these two checks
    # alone, as a row that leaves fails the lifted-flow check below
    counters = {}
    campaign, escape = _escaping(lambda: blowup.commutation_campaign(
        spec, profile, n=cfg.samples, seed=cfg.seed, step=cfg.step, counters=counters))
    worst, wit, exceptional = campaign or (math.inf, escape, escape)
    # a sample on the exceptional set blows down to the origin on both sides:
    # the check compares no orbit unless a sample starts off the set
    off_set = cfg.samples - (exceptional["samples"] if campaign else 0)
    if not off_set:
        wit = {**wit, "samples_off_the_set": off_set}
    checks.append(_check(
        "blow-down-commutation", worst < tol["commutation"] and off_set > 0,
        "lifted flow then blow-down equals blow-down then flow, over random "
        "(point, time) pairs including chart switches and the transition shell",
        measured={"max_residual": worst}, witness=wit))
    checks.append(_check(
        "exceptional-invariance",
        escape is None and exceptional["samples"] > 0 and exceptional["left"] == 0,
        "the exceptional set {u_i = 0} is exactly flow invariant", witness=exceptional))

    # density identities and nondegeneracy floors
    floors = {}
    match_worst = 0.0
    for kk in (2, 3, 4):
        kl = KLStructure.volume_nondegenerate(kk)
        p = _random_points(rng, 60, kk, 1.0, floor=0.3)
        charts = np.repeat(p.chart, 2 * kk)  # the chart of each neighbour row
        J1 = _central_jacobians(lambda u: blowup.blowdown(BlowupPoint(charts, u)), p.u)
        J2 = _central_jacobians(lambda u: blowup.kl_chart_map(kl, BlowupPoint(charts, u)), p.u)
        match_worst = max(
            match_worst,
            float(np.abs(np.linalg.det(J1) - blowup.pullback_volume_density(p)).max()),
            float(np.abs(np.linalg.det(J2) - blowup.kl_density(kl, p)).max()))
        # grid minimization over the chart box, its corner included
        box = np.vstack([rng.choice(np.linspace(-1.0, 1.0, 21), size=(4000, kk)), np.ones(kk)])
        floors[kk] = float(np.abs(blowup.kl_density(kl, BlowupPoint(0, box))).min())
    exact_floor = {kk: (1.0 / kk) * kk ** (-(kk - 1) / 2.0) for kk in (2, 3, 4)}
    checks.append(_check(
        "density-identities", match_worst < tol["density_match"],
        "pulled-back and power-atlas chart densities match finite-difference "
        "Jacobian determinants",
        measured={"max_mismatch": match_worst}))
    checks.append(_check(
        "density-nondegeneracy",
        all(floors[kk] >= exact_floor[kk] * (1 - 1e-9) for kk in floors),
        "with the volume exponent the chart density is bounded away from 0; "
        "the box minimum equals (1/k) k^(-(k-1)/2)",
        measured={"box_minimum_by_k": {str(kk): floors[kk] for kk in floors},
                  "exact_infimum_by_k": {str(kk): exact_floor[kk] for kk in exact_floor}}))

    # chart independence of reported quantities: densities transform by the
    # transition Jacobian determinant
    p = _random_points(rng, 200, k, 0.9, floor=0.2)
    targets = rng.integers(0, k, size=200)
    moves = (p.u[np.arange(200), targets] != 0.0) & (targets != p.chart)
    p, targets = p[moves], targets[moves]
    q = blowup.chart_transition(p, targets)
    det = np.linalg.det(blowup.transition_jacobian(p, targets))
    defect = np.abs(blowup.pullback_volume_density(p)
                    - blowup.pullback_volume_density(q) * det)
    worst_ci = float(defect.max(initial=0.0))
    checks.append(_check(
        "chart-independence", worst_ci < 1e-10,
        "chart densities agree across transitions after the Jacobian factor",
        measured={"max_cocycle_defect": worst_ci}))

    # power-atlas rates: exponent division by k
    kl = KLStructure(k=k, alpha=cfg.resolved_alpha())
    rates = blowup.kl_rate_check(spec, kl, rho0, seed=cfg.seed)
    rate_ok = (rates["per_time_upper"] <= rates["expected_upper"] * (1 + 1e-9)
               and rates["per_time_lower"] >= rates["expected_lower"] * (1 - 1e-9)
               and abs(rates["unstable_log_slope"] - rates["expected_slope"]) < 1e-9)
    checks.append(_check(
        "power-atlas-rates", rate_ok,
        "new-norm growth bounds divide the rate exponents by k",
        measured=rates))

    # smoothness probes
    probe = blowup.kl_smoothness_probe(spec, rho0=rho0)
    dd = probe["disk_defect"]
    disk_nonsmooth = min(dd) > 0.1 and max(dd) / min(dd) < 1.5
    chart_smooth = max(probe["chart_second_difference"]) < 10.0
    control = max(probe["linear_control_defect"]) < 1e-12
    checks.append(_check(
        "power-atlas-smoothness", disk_nonsmooth and chart_smooth and control,
        "the slowed saddle is not C^1 at the origin in the power atlas "
        "downstairs but is smooth in the blow-up chart",
        measured=probe))

    # closed-form core tangent map against finite differences of the RK4
    # lifted flow, on the uniformly slowed profile where the closed form
    # holds, and the RK4 end point against the exact orbit exp(rho0 d[0] t) u0
    flat = saddle.BumpProfile.flat(rho0)
    p0 = BlowupPoint(chart=0, u=np.array([[0.05] + [0.3] * (k - 1)]))
    eps = 1e-6
    rows = np.vstack([p0.u, _central_points(p0.u, eps)])
    end, escape = _escaping(lambda: blowup._lifted_flow_batch(
        spec, flat, BlowupPoint(0, rows), 1.0, step=cfg.step, counters=counters))
    err = rich = math.inf
    if end is not None:
        charts, U = end.chart, end.u
        J = blowup.core_tangent_maps(spec, rho0, p0, charts[:1], 1.0)[0]
        cols = (U[1:k + 1] - U[k + 1:]).T / (2 * eps)  # column i: central difference along e_i
        same = (charts[1:k + 1] == charts[0]) & (charts[k + 1:] == charts[0])
        rel = np.abs(J - cols).max(axis=0) / np.maximum(np.abs(cols).max(axis=0), 1.0)
        err = float(rel[same].max(initial=0.0))
        exact = BlowupPoint(0, p0.u * np.exp(rho0 * blowup._chart_rate_matrix(spec.rates)[0]))
        rich = float(np.linalg.norm(blowup.blowdown(end[:1]) - blowup.blowdown(exact)))
    checks.append(_check(
        "lifted-tangent-oracle", err < tol["jacobian_fd"] and rich < tol["richardson"],
        "closed-form core tangent maps match finite differences of the RK4 "
        "lifted flow; its end point blows down onto the exact flat-core orbit",
        measured={"fd_relative_error": err, "richardson": rich}, witness=escape))

    return {**_suite("blowup", checks), "counters": counters}


# ---------------------------------------------------------------------------
# cones suite


def run_cones_suite(cfg: CampaignConfig):
    spec = cfg.saddle_spec()
    anosov = cfg.anosov_model()
    rho0 = cfg.resolved_rho0()
    tol = cfg.tolerances
    checks = []
    log_mu = math.log(cfg.mu)

    # the forward, reversed and negative-control core campaigns, in one chart schedule;
    # pick_rho0 returns the midpoint of (0, largest rho0 meeting the domination inequality)
    bad_rho0 = 1.5 * (2 * saddle.pick_rho0(cfg.lam, cfg.mu, spec.lam_prime, spec.mu_prime))
    run = dict(rho0=rho0, n_vectors=cfg.samples, n_orbits=cfg.cone_orbits, seed=cfg.seed)
    (fwd, rev, neg), counters = cones.inner_cone_campaigns(spec, anosov, cfg.omega, [
        {**run, "reverse": False}, {**run, "reverse": True},
        dict(rho0=bad_rho0, n_vectors=max(cfg.samples // 4, 64),
             n_orbits=max(cfg.cone_orbits // 2, 8), seed=cfg.seed, reverse=False)],
        step=cfg.step)
    checks.append(_check(
        "core-cone-campaign",
        fwd.passed(min_exponent=log_mu - tol["expansion_deficit"]),
        "unstable-cone invariance, minimal expansion exponent, and "
        "domination over center-stable vectors in the uniformly slowed core",
        measured={"min_u_exponent": fwd.min_u_exponent,
                  "required": log_mu - tol["expansion_deficit"],
                  "domination_exponent": fwd.domination_exponent,
                  "burn_in": fwd.burn_in,
                  "violations": len(fwd.violations)},
        witness={"violations": _one_per_type(fwd.violations)}))

    # extreme exponents live on the mirror-symmetric invariant axes, so the
    # expansion minima coincide; the domination minimum also sees generic
    # orbits (chart-dependent bookkeeping constants), hence a noise allowance
    sym = (abs(rev.min_u_exponent - fwd.min_u_exponent) < 1e-9
           and abs(rev.domination_exponent - fwd.domination_exponent) < 0.15)
    checks.append(_check(
        "time-symmetry",
        rev.passed(min_exponent=log_mu - tol["expansion_deficit"]) and sym,
        "the time-reversed campaign reproduces the forward statistics "
        "(exactly on the invariant axes, within sampling noise off them)",
        measured={"reversed_min_u_exponent": rev.min_u_exponent,
                  "reversed_domination_exponent": rev.domination_exponent,
                  "forward_domination_exponent": fwd.domination_exponent}))

    chain_far = cones.rate_chain_check(spec, anosov, rho0, region="far")
    chain_core = cones.rate_chain_check(spec, anosov, rho0, region="core")
    checks.append(_check(
        "rate-chain",
        chain_far["ok"] and chain_core["ok"]
        and chain_core["center_margin"] > chain_far["center_margin"] > 0,
        "three-scale growth chain holds in both regions, with wider center "
        "margins in the slowed core",
        measured={"far_center_margin": chain_far["center_margin"],
                  "core_center_margin": chain_core["center_margin"]},
        witness={"far": chain_far["witnesses"], "core": chain_core["witnesses"]}))

    neg_types = {v["type"] for v in neg.violations}
    chain_bound = min(log_mu, -math.log(cfg.lam)) / max(abs(r) for r in spec.rates)
    neg_chain = cones.rate_chain_check(spec, anosov, 1.5 * chain_bound, region="core")
    checks.append(_check(
        "negative-controls",
        (not neg.passed()) and "domination" in neg_types and not neg_chain["ok"],
        "with the domination inequality deliberately violated the "
        "campaign reports violations and the rate chain breaks "
        "(the checkers are not vacuous)",
        measured={"forced_rho0": bad_rho0,
                  "violation_types": sorted(neg_types),
                  "domination_exponent": neg.domination_exponent,
                  "chain_forced_rho0": 1.5 * chain_bound},
        witness={"violations": _one_per_type(neg.violations)}))

    # the crossing campaign, once, at the sweep's first delta; each later delta
    # reruns only the oracle rows of its transits, rescaled (see `_oracle_rows`)
    n_vectors = min(cfg.samples, 256)
    try:
        ref, transits = cones.crossing_cone_campaign(
            spec, saddle.BumpProfile(delta=cfg.delta_sweep[0], rho0=rho0), anosov, cfg.omega,
            n_entries=cfg.crossing_entries, n_vectors=n_vectors, seed=cfg.seed)
    except ValueError as exc:
        checks.append(_check(
            "crossing-cone-stability", False,
            "cone control across the transition shell (no admissible "
            "slow-down profile exists for the forced rho0)",
            measured={"rho0": rho0}, witness={"error": str(exc)}))
    else:
        row_sets = _oracle_rows(spec, rho0, transits, cfg.delta_sweep)
        stats = {str(d): cones.crossing_cone_statistics(spec, anosov, cfg.omega, t,
                                                        n_vectors=n_vectors, seed=cfg.seed)
                 for d, t in row_sets.items()}
        ratio = max(max(v) / min(v) for v in zip(*(s.values() for s in stats.values())))
        picked = row_sets[cfg.delta_sweep[0]]
        same_classes = all((t.crossing_class == picked.crossing_class).all()
                           for t in row_sets.values())
        counts = transits.class_counts
        checks.append(_check(
            "crossing-cone-stability",
            ratio < tol["cone_ratio"] and same_classes and _classes_realized(counts)
            and ref["min_expansion"] > 0,
            "cone aperture growth and worst expansion across the transition shell at the "
            "first delta, all crossing classes exercised; on the oracle rows, rescaled, "
            "the four statistics and the classes hold across the delta sweep",
            measured={**ref, "class_counts": counts, "ratio": ratio},
            witness={"rows": len(picked), "row_statistics_by_delta": stats,
                     "same_classes": same_classes}))

    # cocycle property of the propagation
    model = cones.ProductModel(spec=spec, anosov=anosov)
    x0 = np.zeros(cfg.k)
    x0[0] = 1e-3
    frame = np.eye(model.dim)[:3]
    slowed = dict(spec=spec, anosov=anosov, rho0=rho0, step=cfg.step)
    # the flows over 0.7 and 0.3 from x0 are one RK4 pass
    ends, (one, part) = cones.propagate(np.stack([x0, x0]), [0.7, 0.3], frame, **slowed)
    _, (two,) = cones.propagate(ends[1:], 0.4, part, **slowed)
    cocycle = float(np.abs(one - two).max())
    checks.append(_check(
        "cocycle-property", cocycle < 1e-8,
        "propagation over t+s equals propagation over t then s",
        measured={"max_difference": cocycle}))

    # membership invariances
    rng = np.random.default_rng(cfg.seed)
    ucone = model.unstable_cone(cfg.omega)
    # vectors around a center axis, spread so that both memberships occur
    V = ucone.center[:, 0] + math.tan(cfg.omega) / math.sqrt(model.dim) * rng.standard_normal(
        (50, model.dim))
    inside = cones.in_cone(V, ucone)
    counts = {"inside": int(inside.sum()), "outside": int((~inside).sum())}
    # a uniform metric weight w scales every vector by sqrt(w); the center's span stays
    scale_ok = bool((inside == cones.in_cone(3.7 * V, ucone)).all()
                    and (inside == cones.in_cone(math.sqrt(2.0) * V, ucone)).all())
    checks.append(_check(
        "membership-invariance", scale_ok and min(counts.values()) > 0,
        "cone membership is scale invariant in the vector and under uniform "
        "metric reweighting", measured=counts))

    return {**_suite("cones", checks), "counters": counters}


# ---------------------------------------------------------------------------
# volume suite


def run_volume_suite(cfg: CampaignConfig):
    tol = cfg.tolerances
    checks = []
    k = 4
    profile = saddle.BumpProfile(delta=0.2, rho0=cfg.resolved_rho0())
    X = forms.saddle_field()

    def rho(x):
        return profile.value(dsqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]))

    rng = np.random.default_rng(cfg.seed)
    probes = rng.uniform(-0.55, 0.55, size=(cfg.samples, k))
    radii = np.linalg.norm(probes, axis=1)
    # make sure the transition shell is well represented
    shell = probes[(radii > profile.delta) & (radii < 2 * profile.delta)]
    extra = rng.standard_normal((100, k))
    extra *= (rng.uniform(profile.delta * 1.05, profile.delta * 1.95, size=100)
              / np.linalg.norm(extra, axis=1))[:, None]
    probes = np.vstack([probes, extra])

    vol = forms.Form.volume(k)
    residual, control = forms.verify_rho_volume(rho, X, vol, probes)
    checks.append(_check(
        "slowed-volume-identity",
        residual < tol["volume_residual"] and control > tol["volume_control_min"],
        "the slowed flow preserves volume/rho exactly; without the 1/rho "
        "factor the defect is macroscopic in the transition shell",
        measured={"max_residual": residual, "negative_control": control,
                  "n_probes": len(probes), "n_shell_probes": int(len(shell) + 100)}))

    probe2 = blowup.density_regularity_probe(2, lambda x: 1.0 + x[0])
    probe2_quad = blowup.density_regularity_probe(2, lambda x: 1.0 + x[0] ** 2)
    probe2_const = blowup.density_regularity_probe(2, lambda x: 1.0)
    d_first = [b for _, b in probe2["sweep"]]
    d_quad = [b for _, b in probe2_quad["sweep"]]
    ok = (abs(probe2["log_slope"] - probe2["alpha"]) < 0.05
          and d_first[-1] > 10 * d_first[0]
          and max(d_quad) / max(min(d_quad), 1e-12) < 1.5
          and max(b for _, b in probe2_const["sweep"]) == 0.0)
    checks.append(_check(
        "density-regularity-probe", ok,
        "generic densities lose C^1 at the exceptional set at the power-law "
        "rate alpha; densities with flat low-order terms stay regular",
        measured={"generic_slope": probe2["log_slope"], "alpha": probe2["alpha"],
                  "quadratic_derivatives": d_quad,
                  "constant_derivatives": [b for _, b in probe2_const["sweep"]]}))

    return {**_suite("volume", checks), "dimension": k}


# ---------------------------------------------------------------------------
# moser suite


def run_moser_suite(cfg: CampaignConfig):
    tol = cfg.tolerances
    checks = []
    X = forms.saddle_field()
    rng = np.random.default_rng(cfg.seed)
    probes = rng.uniform(-0.4, 0.4, size=(200, 4))

    # calculus identities on random polynomial forms
    worst_dd, worst_cartan, worst_leibniz = _form_identity_probes(rng, probes[:50])
    checks.append(_check(
        "exterior-calculus-identities",
        np.max([worst_dd, worst_cartan, worst_leibniz]) < tol["moser_identity"],
        "d^2 = 0, the homotopy (Cartan) identity, and the Leibniz rules on "
        "random polynomial forms",
        measured={"d_squared": worst_dd, "cartan": worst_cartan,
                  "leibniz": worst_leibniz}))

    eta0 = forms.moser_eta0()
    vol = forms.Form.volume(4)
    gens = forms.invariant_products()
    gamma = lambda x: cfg.moser_strength * (gens[0](x) + gens[3](x))
    beta = forms.moser_beta(gamma)
    # the primitive's two defects and X beta, on one shared probe point
    d_defect, invariance_defect, worst_inv = forms.forms_max_at(
        [forms.d(eta0) - vol, forms.lie(X, eta0), forms.lie(X, forms.Form.from_scalar(4, beta))],
        probes)
    checks.append(_check(
        "invariant-primitive",
        d_defect < tol["moser_identity"] and invariance_defect < tol["moser_identity"],
        "the primitive x1 dx2^dx3^dx4 differentiates to the volume and is "
        "saddle invariant",
        measured={"d_defect": d_defect, "invariance_defect": invariance_defect}))

    # beta: exact integrals and invariance
    beta_c = forms.moser_beta(lambda x: 3.7)
    beta_p = forms.moser_beta(lambda x: x[0] * x[2])
    exact_ok = (abs(beta_c([0.3, 0.1, 0.2, 0.4]) - 3.7) < 1e-12
                and abs(beta_p([0.3, 0.1, 0.2, 0.4]) - 0.03) < 1e-12)
    # the corrected product-rule identity: d(beta eta0) = beta vol + dbeta ^ eta0
    lhs = forms.d(eta0.scale(beta))
    rhs = vol.scale(beta) + forms.wedge(forms.d(forms.Form.from_scalar(4, beta)), eta0)
    prod_defect = forms.form_max_at(lhs - rhs, probes[:40])
    checks.append(_check(
        "averaged-density-solution",
        exact_ok and worst_inv < tol["moser_invariance"] and prod_defect < 1e-9,
        "the radial average solves d/dx1(x1 beta) = gamma, inherits saddle "
        "invariance, and satisfies d(beta eta0) = beta vol + dbeta ^ eta0",
        measured={"max_X_beta": worst_inv, "product_rule_defect": prod_defect}))

    # the normalizing map
    alpha = (lambda s, g0, g3: lambda x: 1.0 + s * (g0(x) + g3(x)))(
        cfg.moser_strength, gens[0], gens[3])
    # the maps are defined on |x| < moser_radius only: start points outside
    # it are skipped and counted, and a check left without points fails
    inside = lambda pts: saddle._radius(pts) < cfg.moser_radius
    h = forms.MoserMap(alpha=alpha, radius=cfg.moser_radius, steps=cfg.moser_steps)
    starts = probes[:16] * 0.8
    starts = starts[inside(starts)]

    # one forward pass of h moves the transport starts (with their tangents),
    # the origin, the commutation points x and a_t x (a_t = exp(t amp)), and
    # the closed-form check's start x0 when it is inside; rows move on their
    # own.  A row that leaves the radius, or meets a density that is not
    # positive, stops the pass: every image is then NaN, so the two checks
    # that read the pass fail with the stop as witness, and the others report
    tgrid = np.linspace(-1.0, 1.0, 9)
    amp = np.array([-1.0, -1.0, 1.0, 1.0])
    xs = probes[:12] * 0.35
    at = np.exp(amp * tgrid[:, None])
    pairs = at * xs[:, None, :]
    ok = inside(xs)
    keep = inside(pairs) & ok[:, None]
    x0 = np.array([0.1, 0.15, -0.1, 0.2])
    x0_rows = x0[None, :] if inside(x0) else np.zeros((0, 4))
    rows = np.concatenate([starts, np.zeros((1, 4)), xs[ok], pairs[keep], x0_rows])
    y, stop = _escaping(lambda: h(Dual(rows, np.ones(len(rows)))))
    stops = {"forward_pass": stop} if stop else {}
    if stop:
        y = Dual(np.full_like(rows, math.nan), np.full(len(rows), math.nan))
    m = len(starts)
    fw, inv = h.transport_residuals(Dual(y.re[:m], y.du[:m]))
    tp = np.maximum(np.abs(fw), np.abs(inv))
    hx = np.zeros_like(xs)
    h_origin, hx[ok], h_pairs, h_x0 = np.split(
        y.re[m:], np.cumsum([1, ok.sum(), keep.sum()]))
    origin_fixed = float(np.linalg.norm(h_origin))
    comm = saddle._radius(h_pairs - (at * hx[:, None, :])[keep])
    worst_comm = max(comm, default=math.nan)
    # the audit evaluates Y_s off the pass, where the density may also fail
    result, stop = _escaping(lambda: forms.equivariance_audit(h, X, probes[:20]))
    worst_commutator, audit = (math.nan, {"generator_audit": stop}) if stop else (result[0], {})
    checks.append(_check(
        "volume-normalization",
        tp.size and comm.size and max(tp) < tol["moser_transport"] and origin_fixed < 1e-12
        and worst_comm < tol["moser_commutation"]
        and worst_commutator < tol["moser_commutator"],
        "the normalizing map transports the flat volume onto the perturbed "
        "one (both direction conventions), fixes the origin, commutes with "
        "the saddle flow, and its generator commutes infinitesimally",
        measured={"max_transport_residual": max(tp, default=math.nan),
                  "origin_image": origin_fixed,
                  "max_commutation_defect": worst_comm,
                  "max_generator_commutator": worst_commutator},
        witness={"skipped_transport_probes": 16 - len(tp),
                 "skipped_commutation_pairs": 12 * len(tgrid) - len(comm),
                 **stops, **audit}))

    # identity and negative controls
    # with alpha = 1 every RK4 stage's speed is exactly 0 (beta sums w * 0.0),
    # so h_id is the identity at any step count, and one step tests it
    h_id = forms.MoserMap(alpha=lambda x: 1.0, radius=cfg.moser_radius, steps=1)
    starts = probes[:8] * 0.8
    starts = starts[inside(starts)]
    ident = saddle._radius(h_id(starts) - starts)
    h_bad = forms.MoserMap(alpha=lambda x: 1.0 + 0.2 * x[0], radius=cfg.moser_radius)
    bad_comm, _ = forms.equivariance_audit(h_bad, X, probes[:10])
    checks.append(_check(
        "normalization-controls",
        ident.size and max(ident) < 1e-12 and bad_comm > 1e-3,
        "trivial density gives the identity map; a non-invariant density is "
        "detected by the commutator audit",
        measured={"identity_defect": max(ident, default=math.nan),
                  "non_invariant_commutator": bad_comm},
        witness={"skipped_identity_probes": 8 - len(ident)}))

    # the s-integration against the closed-form inverse of h, the primitive
    # y1 beta_alpha(y) = integral of alpha over [0, y1] (h moves x1 alone)
    y0 = list(h_x0.T)
    rich = max(np.abs(y0[0] * forms.moser_beta(alpha)(y0) - x0[0]), default=math.nan)
    checks.append(_check(
        "normalization-richardson", rich < tol["richardson"],
        "the RK4 normalizing map matches its closed form: the primitive "
        "y1 beta_alpha(y) of the density along x1 takes h(x0) back to x0_1",
        measured={"residual": rich},
        witness={"start_point": x0, "moser_radius": cfg.moser_radius, **stops}))

    # h_bad is audited and never integrates: h and the identity control make every pass
    counters = {key: h.counters[key] + h_id.counters[key] for key in h.counters}
    return {**_suite("moser", checks), "dimension": 4, "counters": counters}


def _form_identity_probes(rng, probes):
    """Random polynomial forms: d^2, Cartan, Leibniz defects."""
    dim = 4

    def rand_poly():
        c = rng.uniform(-1, 1, size=4)
        e = rng.integers(0, 3, size=(3, dim))
        return (lambda c=c, e=e: lambda x: c[3] + sum(
            c[m] * math.prod(x[i] ** int(e[m, i]) for i in range(dim) if e[m, i])
            for m in range(3)))()

    def rand_form(degree):
        idxs = list(combinations(range(dim), degree))
        picks = rng.choice(len(idxs), size=min(3, len(idxs)), replace=False)
        return forms.Form(dim, degree, {idxs[i]: rand_poly() for i in picks})

    X = [rand_poly() for _ in range(dim)]
    defects = []  # (identity, defect form) pairs
    for degree in (0, 1, 2):
        a = rand_form(degree)
        if degree + 2 <= dim:
            defects.append(("dd", forms.d(forms.d(a))))
        defects.append(("cartan", forms.lie(X, a) - forms.lie_cartan(X, a)))
        b = rand_form(1)
        if degree + 1 <= dim:
            lhs = forms.d(forms.wedge(a, b))
            rhs = forms.wedge(forms.d(a), b) + forms.wedge(a, forms.d(b)).scale(
                (-1.0) ** degree)
            defects.append(("leibniz", lhs - rhs))
            lhs2 = forms.lie(X, forms.wedge(a, b))
            rhs2 = forms.wedge(forms.lie(X, a), b) + forms.wedge(a, forms.lie(X, b))
            defects.append(("leibniz", lhs2 - rhs2))
    sizes = forms.forms_max_at([form for _, form in defects], probes)
    # np.max keeps a NaN defect, where max() would drop it
    return tuple(float(np.max([v for (name, _), v in zip(defects, sizes) if name == key]))
                 for key in ("dd", "cartan", "leibniz"))


# ---------------------------------------------------------------------------
# homogeneous suite


def run_homogeneous_suite(cfg: CampaignConfig):
    tol = cfg.tolerances
    checks = []
    rng = np.random.default_rng(cfg.seed)

    for n in cfg.n_values:
        sub = []
        # algebra and group invariants
        B = hg.random_algebra_element(n, rng, 20)
        g = hg.taylor_expm(B)
        # negative control: a Hermitian perturbation leaves the algebra
        P = np.zeros((n + 1, n + 1), dtype=complex)
        P[0, 0] = 1e-6
        round_trip = hg.algebra_element(*hg.block_decompose(B, n), n)
        members_ok = (hg.in_su(B, n).all() and np.abs(round_trip - B).max() < 1e-14
                      and not hg.in_su(B + P, n, tol=1e-9).any())
        worst_grp = float(hg.group_invariant_defect(g, n).max())
        worst_exp = float(np.abs(hg.spectral_expm(B) - g).max())
        sub.append(("algebra-group-invariants",
                    members_ok and worst_grp < tol["group_invariant"]
                    and worst_exp < 1e-12 and hg.signature_ok(n, "split")
                    and hg.signature_ok(n, "diag"),
                    {"max_group_defect": worst_grp, "max_expm_cross_check": worst_exp}))

        # geodesic / horocycle structure
        d_law = float(np.abs(hg.geodesic(n, 0.3) @ hg.geodesic(n, 0.4)
                             - hg.geodesic(n, 0.7)).max())
        h_law = float(np.abs(hg.horocycle(n, "s", 0.3) @ hg.horocycle(n, "s", 0.2)
                             - hg.horocycle(n, "s", 0.5)).max())
        rs, ru = hg.horocycle_scaling_residual(n, 0.7, 0.31)
        rs2, ru2 = hg.horocycle_scaling_residual(n, -1.3, -0.11)
        sub.append(("flow-horocycle-structure",
                    max(d_law, h_law) < 1e-14
                    and max(rs, ru, rs2, ru2) < tol["horocycle_scaling"],
                    {"one_parameter_laws": max(d_law, h_law),
                     "horocycle_scaling": max(rs, ru, rs2, ru2)}))

        # T-conjugation between the two form pictures
        rel, transfer = hg.conjugate_forms_check(n, seed=cfg.seed)
        t0_ok = np.abs(hg.T0 - (1 / math.sqrt(2)) * np.array([[1, 1], [-1, 1]])).max() == 0
        sub.append(("form-conjugation",
                    rel < 1e-14 and transfer < tol["t_conjugation"] and t0_ok,
                    {"form_relation": rel, "member_transfer": transfer}))

        # transversal conjugation and the product structure; the tuple is
        # drawn left to right, in the order of the per-sample draws
        draws = [(0.07 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)),
                  0.07 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)),
                  rng.uniform(-1.5, 1.5), hg.psu11_generator(rng)) for _ in range(100)]
        v1, v2, t, D = map(np.array, zip(*draws))
        conj, prod = hg.local_product_residuals(v1, v2, hg.psu11_element(D, n), t)
        worst_conj, worst_prod = float(conj.max()), float(prod.max())
        big_t = float(hg.local_product_residuals(
            0.1j * np.ones(n - 1), 0.02 * np.ones(n - 1), np.eye(n + 1), 5.0)[0])
        sigma0 = hg.transversal_element(np.zeros(n - 1), np.zeros(n - 1))
        sub.append(("local-product-structure",
                    worst_conj < tol["conj_residual"]
                    and worst_prod < tol["conj_residual"]
                    and big_t < 1e-8
                    and np.abs(sigma0 - np.eye(n + 1)).max() == 0.0,
                    {"conjugation_residual": worst_conj,
                     "product_residual": worst_prod,
                     "large_time_residual": big_t}))

        # stabilizer subgroup
        w, B = map(np.array, zip(*[(hg.w_sample(n, rng), hg.random_algebra_element(n, rng))
                                   for _ in range(20)]))
        g = hg.taylor_expm(B)
        A = np.eye(n - 1, dtype=complex)
        A[0, 0] = np.exp(0.6j)
        roots = hg.w_element(np.stack([A, A]), np.array([1, -1]))
        w_ok = bool(hg.w_membership(w, n).all()
                    and (hg.group_invariant_defect(w, n) < tol["group_invariant"]).all()
                    and hg.coset_equal(w @ g, g, n).all()
                    and not hg.coset_equal(hg.horocycle(n, "s", 0.1) @ g, g, n).any()
                    and (hg.stabilizer_intersection_defect(w, n) >= 0.0).all()
                    and hg.w_membership(roots, n).all()
                    and hg.stabilizer_intersection_defect(roots[0], n) > 0.1)
        sub.append(("stabilizer-subgroup", w_ok, {}))

        # local diffeomorphism rank
        ld = hg.local_diffeo_check(n)
        sub.append(("local-diffeo-rank",
                    ld["full_rank"] and all(
                        v["rank"] == v["expected"] for v in ld["summands"].values()),
                    {"total_rank": ld["total_rank"],
                     "expected": ld["expected_total"],
                     "smallest_singular_value": ld["smallest_singular_value"]}))

        for name, ok, measured in sub:
            checks.append(_check(
                f"{name}-n{n}", ok,
                f"{name.replace('-', ' ')} for the rank-one group at n={n}",
                measured=measured))

    return _suite("homogeneous", checks)


SUITE_RUNNERS = {
    "saddle": run_saddle_suite,
    "blowup": run_blowup_suite,
    "cones": run_cones_suite,
    "volume": run_volume_suite,
    "moser": run_moser_suite,
    "homogeneous": run_homogeneous_suite,
}
