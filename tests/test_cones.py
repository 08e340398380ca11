import math

import numpy as np
import pytest

from phsurgery import blowup, cli, cones, saddle, suites
from phsurgery.blowup import BlowupPoint
from phsurgery.cones import ConeSpec, ProductModel
from phsurgery.config import CampaignConfig
from phsurgery.saddle import AnosovModel, BumpProfile, SaddleSpec


@pytest.fixture(scope="module")
def spec():
    return SaddleSpec(rates=(-1.0, -1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def anosov():
    return AnosovModel(stable_rates=(-2.0,), unstable_rates=(2.0,),
                       lam=math.exp(-2), mu=math.exp(2))


@pytest.fixture(scope="module")
def model(spec, anosov):
    return ProductModel(spec=spec, anosov=anosov)


class TestMembership:
    def test_center_vector_always_inside(self, model):
        uc = model.unstable_cone(0.1)
        assert cones.in_cone(model.axes("u").T, uc).tolist() == [True]

    def test_orthogonal_vector_outside(self, model):
        uc = model.unstable_cone(0.1)
        assert cones.in_cone(model.axes("s").T, uc).tolist() == [False]

    def test_half_and_double_tilt(self, model):
        uc = model.unstable_cone(0.1)
        e_u = model.axes("u")[:, 0]
        e_s = model.axes("s")[:, 0]
        inside = math.cos(0.05) * e_u + math.sin(0.05) * e_s
        outside = math.cos(0.2) * e_u + math.sin(0.2) * e_s
        assert cones.in_cone(np.stack([inside, outside]), uc).tolist() == [True, False]

    def test_zero_vector_rejected(self, model):
        with pytest.raises(ValueError):
            cones.in_cone(np.zeros((1, model.dim)), model.unstable_cone(0.1))

    def test_scaling_invariances(self, model):
        # a uniform metric weight 3 scales every vector by sqrt(3); the center's span stays
        uc = model.unstable_cone(0.2)
        V = uc.center[:, 0] + 0.08 * np.random.default_rng(0).standard_normal((100, model.dim))
        base = cones.in_cone(V, uc)
        assert base.shape == (100,) and base.any() and not base.all()
        assert (base == cones.in_cone(7.3 * V, uc)).all()
        assert (base == cones.in_cone(math.sqrt(3.0) * V, uc)).all()
        assert base.tolist() == [cones.in_cone(V[m:m + 1], uc)[0] for m in range(len(V))]

    def test_rotated_center_matches_qr_angles(self, model):
        # the angle is read off the validated orthonormal center as given; for
        # any orthonormal center that equals the angle to the span of its QR factor
        d, m = model.dim, 3
        center, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((d, m)))
        cone = ConeSpec(center=center, aperture=0.3)
        V = np.random.default_rng(9).standard_normal((200, d))
        Q, _ = np.linalg.qr(cone.center)
        cos = np.linalg.norm(V @ Q, axis=1) / np.linalg.norm(V, axis=1)
        expected = np.arccos(np.clip(cos, 0.0, 1.0))
        assert np.abs(cones.angle_to_center(V, cone) - expected).max() < 1e-15

    def test_aperture_validation(self, model):
        with pytest.raises(ValueError):
            ConeSpec(center=model.axes("u"), aperture=1.0)
        with pytest.raises(ValueError):
            ConeSpec(center=np.ones((model.dim, 2)), aperture=0.1)


class TestBoundaryFrame:
    N = 64

    @pytest.fixture(params=["u", "cs"])
    def cone(self, request, model):
        return {"u": model.unstable_cone, "cs": model.center_stable_cone}[request.param](0.1)

    def frame(self, model, cone, seed):
        return cones.cone_boundary_frame(model, cone, self.N, seed)

    def test_rows_have_unit_norm(self, model, cone):
        frame = self.frame(model, cone, 42)
        m = cone.center.shape[1]
        assert frame.shape == (self.N + 2 * m + 2 * m * (model.dim - m), model.dim)
        assert np.abs(np.linalg.norm(frame, axis=1) - 1.0).max() < 1e-12

    def test_sampled_rows_and_tilts_sit_at_the_aperture(self, model, cone):
        frame = self.frame(model, cone, 42)
        m = cone.center.shape[1]
        boundary = np.vstack([frame[:self.N], frame[self.N + 2 * m:]])
        assert np.abs(cones.angle_to_center(boundary, cone) - cone.aperture).max() < 1e-12

    def test_seed_moves_only_the_sampled_rows(self, model, cone):
        frame = self.frame(model, cone, 42)
        assert np.array_equal(frame, self.frame(model, cone, 42))
        other = self.frame(model, cone, 49)
        assert np.array_equal(frame[self.N:], other[self.N:])
        assert (frame[:self.N] != other[:self.N]).any(axis=1).all()


def test_full_maps_rows_are_block_maps(model, spec, anosov):
    rng = np.random.default_rng(4)
    J = rng.standard_normal((3, spec.k, spec.k))
    times = np.array([0.3, 1.0, 2.5])
    maps = model.full_maps(J, times)
    assert maps.shape == (3, model.dim, model.dim)
    for m, t in enumerate(times):
        block = np.zeros((model.dim, model.dim))
        block[:spec.k, :spec.k] = J[m]
        block[spec.k:, spec.k:] = np.diag(np.exp(np.asarray(anosov.rates) * t))
        assert (maps[m] == block).all()


class TestPropagate:
    def test_identity_at_zero(self, spec, anosov, model):
        frame = np.eye(model.dim)[:4]
        _, (out,) = cones.propagate(np.array([[1e-3, 0, 0, 0]]), 0.0, frame,
                                    spec=spec, anosov=anosov, rho0=0.5)
        assert out == pytest.approx(frame)

    def test_pure_unstable_growth(self, spec, anosov, model):
        e_u = np.zeros((1, model.dim))
        e_u[0, model.dim - 1] = 1.0
        _, (out,) = cones.propagate(np.array([[1e-3, 0, 0, 0]]), 1.0, e_u,
                                    spec=spec, anosov=anosov, rho0=0.5)
        assert np.linalg.norm(out) == pytest.approx(math.exp(2.0), rel=1e-9)

    def test_mixed_vector_matches_blocks(self, spec, anosov, model):
        rho0 = 0.5
        x0 = np.array([[1e-3, 1e-3, 0, 0]])
        v = np.ones((1, model.dim)) / math.sqrt(model.dim)
        _, (out,) = cones.propagate(x0, 1.0, v, spec=spec, anosov=anosov, rho0=rho0)
        expected = np.concatenate([np.exp(rho0 * np.asarray(spec.rates)),
                                   np.exp(np.asarray(anosov.rates))]) * v[0]
        assert out[0] == pytest.approx(expected, rel=1e-9)

    def test_frame_must_be_rows_of_the_model_dimension(self, spec, anosov, model):
        slowed = dict(spec=spec, anosov=anosov, rho0=0.5)
        x0 = np.array([[1e-3, 0, 0, 0]])
        for frame in (np.eye(model.dim)[0], np.eye(model.dim + 1)[:2]):
            with pytest.raises(ValueError, match=f"rows of dimension {model.dim}"):
                cones.propagate(x0, 1.0, frame, **slowed)

    def test_lifted_kind(self, spec):
        from phsurgery.blowup import BlowupPoint, core_tangent_maps
        p = BlowupPoint(chart=0, u=np.zeros((1, 4)))
        J = core_tangent_maps(spec, 0.5, p, [0], 1.0)[0]
        # chart of a contracting axis: radial -rho0, affine spreads
        growth = np.linalg.norm(J, axis=0)
        assert growth[0] == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert growth[2] == pytest.approx(math.exp(1.0), rel=1e-14)

    def test_cocycle_property(self, spec, anosov, model):
        rho0 = 0.5
        x0 = np.array([[2e-3, 1e-3, 5e-4, 0]])
        frame = np.eye(model.dim)[:3]
        _, whole = cones.propagate(x0, 0.9, frame, spec=spec, anosov=anosov, rho0=rho0)
        mid, (part,) = cones.propagate(x0, 0.4, frame, spec=spec, anosov=anosov, rho0=rho0)
        # the point the first leg ends at is the flow's own
        assert mid.tobytes() == saddle.flow_slow(spec, BumpProfile.flat(rho0), x0, 0.4).tobytes()
        _, parts = cones.propagate(mid, 0.5, part, spec=spec, anosov=anosov, rho0=rho0)
        assert np.abs(whole - parts).max() < 1e-8
        # both legs from x0 as rows of one pass, on a frame that the restricted
        # block moves too: each row is its one-row call's
        slowed = dict(spec=spec, anosov=anosov, rho0=rho0)
        full = np.eye(model.dim)
        ends, images = cones.propagate(np.vstack([x0, x0]), [0.9, 0.4], full, **slowed)
        for t, end, image in zip((0.9, 0.4), ends, images):
            (one_end,), (one_image,) = cones.propagate(x0, t, full, **slowed)
            assert end.tobytes() == one_end.tobytes() and image.tobytes() == one_image.tobytes()


@pytest.fixture(scope="module")
def campaign(spec, anosov):
    return cones.inner_cone_campaign(spec, anosov, 0.5, 0.1,
                                     n_vectors=256, n_orbits=12, seed=42)


class TestCoreCampaign:
    def test_passes_at_admissible_rho0(self, campaign):
        assert campaign.passed(min_exponent=2.0 - 0.05)
        assert campaign.burn_in <= 1.0
        assert not any(v["type"] == "cs-backward-invariance" for v in campaign.violations)

    def test_expansion_within_closed_form_bracket(self, campaign):
        # the unstable component alone gives growth >= cos(omega) e^{2t}, and
        # the pure unstable axis realizes exactly 2, so the measured minimum
        # must land in [2 + log cos omega, 2] whatever the chart bookkeeping
        lower = 2.0 + math.log(math.cos(0.1))
        assert lower - 1e-9 <= campaign.min_u_exponent <= 2.0 + 1e-9

    def test_domination_near_chart_spread_gap(self, campaign):
        # worst staying vector lives on the largest chart exponent 2*rho0 = 1,
        # so the ideal gap is 1; transitions can only shave a bounded amount
        assert 0.9 < campaign.domination_exponent <= 1.0 + 1e-9

    def test_report_fields(self, campaign):
        assert isinstance(campaign, cones.CoreConeReport)
        assert campaign.violations == []
        assert campaign.burn_in == 0.25

    def test_negative_control_fails(self, spec, anosov):
        neg = cones.inner_cone_campaign(spec, anosov, 1.5, 0.1,
                                        n_vectors=128, n_orbits=8, seed=42)
        assert not neg.passed()
        types = {v["type"] for v in neg.violations}
        assert "domination" in types
        assert neg.domination_exponent < 0

    def test_violations_in_time_then_orbit_order(self, spec, anosov):
        # the witnesses are picked from this order: time, orbit, and per
        # orbit cs-backward before domination
        neg = cones.inner_cone_campaign(spec, anosov, 1.5, 0.1,
                                        n_vectors=128, n_orbits=8, seed=42)
        rank = {"cs-backward-invariance": 0, "domination": 1}
        keyed = [(v["time"], v["orbit"], rank[v["type"]])
                 for v in neg.violations if v["type"] in rank]
        assert {r for _, _, r in keyed} == {0, 1}
        assert len({(t, m) for t, m, _ in keyed}) < len(keyed)
        assert keyed == sorted(keyed)
        assert all(v["type"] == "u-invariance" for v in neg.violations[len(keyed):])

    def test_tiny_aperture_recovers_block_rates(self, spec, anosov):
        # as the cone degenerates to the unstable axis, the measured
        # exponents converge to the exact block rates
        tight = cones.inner_cone_campaign(spec, anosov, 0.5, 1e-4,
                                          n_vectors=64, n_orbits=8, seed=42)
        assert tight.min_u_exponent == pytest.approx(2.0, abs=1e-4)
        assert tight.domination_exponent == pytest.approx(1.0, abs=1e-3)

    def test_coarse_step_reads_every_checkpoint(self, spec, anosov, campaign):
        # step 0.3 does not divide the 0.25 checkpoint grid; each segment takes
        # the steps of its own lifted-flow call, so every checkpoint is read at its own time.
        # The expansion minimum lives on the invariant axes, where RK4 error
        # does not enter the closed-form maps.
        coarse = cones.inner_cone_campaign(spec, anosov, 0.5, 0.1,
                                           n_vectors=256, n_orbits=12, seed=42, step=0.3)
        assert coarse.passed(min_exponent=2.0 - 0.05)
        assert coarse.min_u_exponent == pytest.approx(campaign.min_u_exponent, abs=1e-9)

    def test_reversed_reproduces_statistics(self, spec, anosov, campaign):
        rev = cones.inner_cone_campaign(spec, anosov, 0.5, 0.1,
                                        n_vectors=256, n_orbits=12, seed=42,
                                        reverse=True)
        assert rev.min_u_exponent == pytest.approx(campaign.min_u_exponent, abs=1e-9)
        assert rev.domination_exponent == pytest.approx(campaign.domination_exponent,
                                                        abs=0.15)


class TestCrossingCampaign:
    def test_unperturbed_cone_stays_inside(self, spec, anosov):
        flat = BumpProfile.flat(1.0, delta=0.1)
        rep, _ = cones.crossing_cone_campaign(spec, flat, anosov, 0.1,
                                              n_entries=40, n_vectors=64, seed=5)
        assert rep["aperture_ratio"] <= 1.0 + 1e-9
        assert rep["min_expansion"] > 0

    def test_delta_stability(self, spec, anosov):
        out = {}
        for delta in (0.1, 0.001):
            prof = BumpProfile(delta=delta, rho0=0.5)
            out[delta], _ = cones.crossing_cone_campaign(spec, prof, anosov, 0.1,
                                                         n_entries=50, n_vectors=64,
                                                         seed=5)
        a, b = out[0.1], out[0.001]
        assert a["aperture_ratio"] == pytest.approx(b["aperture_ratio"], rel=1e-9)
        assert a["min_expansion"] == pytest.approx(b["min_expansion"], rel=1e-9)
        assert a["backward_contraction"] > 0

    def test_classes_recorded(self, spec, anosov):
        prof = BumpProfile(delta=0.1, rho0=0.5)
        _, transits = cones.crossing_cone_campaign(spec, prof, anosov, 0.1,
                                                   n_entries=60, n_vectors=32, seed=5)
        counts = transits.class_counts
        assert counts["inner->inner"] == 0
        assert counts["inner->outer"] > 0
        assert counts["outer->outer"] > 0


class TestRateChain:
    def test_far_region_margins(self, spec, anosov):
        out = cones.rate_chain_check(spec, anosov, 0.5, region="far")
        assert out["ok"]
        assert out["center_margin"] == pytest.approx(1.0, abs=1e-9)

    def test_core_region_wider(self, spec, anosov):
        far = cones.rate_chain_check(spec, anosov, 0.5, region="far")
        core = cones.rate_chain_check(spec, anosov, 0.5, region="core")
        assert core["ok"]
        assert core["center_margin"] > far["center_margin"]

    def test_negative_control(self, spec, anosov):
        out = cones.rate_chain_check(spec, anosov, 3.0, region="core")
        assert not out["ok"]
        assert any(w["block"] == "c" for w in out["witnesses"])


def _sampled_rate_chain(spec, anosov, rho0, *, region="far", seed=0):
    """The rate chain measured on 25 seeded normal rows plus +-axes per block.

    This is how `rate_chain_check` measured the chain before it read the
    diagonal of the block map; kept here as its oracle.
    """
    model = ProductModel(spec=spec, anosov=anosov)
    rho = 1.0 if region == "far" else rho0
    rng = np.random.default_rng(seed)

    def block_dirs(E):
        d = rng.standard_normal((25, E.shape[1]))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return np.vstack([d @ E.T, E.T, -E.T])

    blocks = (("s", model.axes("s")), ("c", np.hstack([model.axes("c"), model.axes("disk")])),
              ("u", model.axes("u")))
    lam, mu = anosov.lam, anosov.mu
    ok, witnesses, center_margin = True, [], math.inf
    for t in (1.0, 2.0):
        disk_J = np.diag(np.exp(rho * np.asarray(spec.rates) * t))
        M = model.full_maps(disk_J[None], [t])[0]
        for name, E in blocks:
            V = block_dirs(E)
            growth = np.linalg.norm(V @ M.T, axis=1) / np.linalg.norm(V, axis=1)
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


@pytest.mark.parametrize("fields", [
    {},
    {"saddle_rates": [-1.0] * 4 + [1.0] * 4},
    {"anosov_stable": [-3.0, -2.0], "anosov_unstable": [2.0, 3.0]},
], ids=["k4", "k8", "anosov2d"])
def test_rate_chain_diagonal_equals_sampled_rows(fields):
    # on a diagonal map the block axes reach both growth extremes, so the
    # sampled rows never move the result: the dicts are equal at every seed
    cfg = CampaignConfig(**fields)
    spec, anosov, rho0 = cfg.saddle_spec(), cfg.anosov_model(), cfg.resolved_rho0()
    chain_bound = min(math.log(cfg.mu), -math.log(cfg.lam)) / max(abs(r) for r in spec.rates)
    forced = 1.5 * chain_bound
    for rho, region in ((rho0, "far"), (rho0, "core"), (forced, "core")):
        exact = cones.rate_chain_check(spec, anosov, rho, region=region)
        for seed in range(10):
            assert exact == _sampled_rate_chain(spec, anosov, rho, region=region, seed=seed)
    assert not cones.rate_chain_check(spec, anosov, forced, region="core")["ok"]


def _angle_over_length(v, cone, _angle=cones.angle_to_center):
    """The angle to the center divided by |v|: not scale invariant."""
    return _angle(v, cone) / np.linalg.norm(v, axis=-1)


def test_membership_invariance_fails_for_a_scale_dependent_angle(monkeypatch):
    cfg = CampaignConfig(samples=64, crossing_entries=40, cone_orbits=8,
                         delta_sweep=[0.1, 0.01], moser_steps=40, step=0.01)

    def membership():
        checks = suites.run_cones_suite(cfg)["checks"]
        return next(c for c in checks if c["name"] == "membership-invariance")

    assert membership()["passed"]
    monkeypatch.setattr(cones, "angle_to_center", _angle_over_length)
    assert not membership()["passed"]


def test_membership_invariance_counts_both_outcomes(monkeypatch):
    cfg = CampaignConfig(samples=64, crossing_entries=40, cone_orbits=8,
                         delta_sweep=[0.1, 0.01], moser_steps=40, step=0.01)

    def membership():
        checks = suites.run_cones_suite(cfg)["checks"]
        return next(c for c in checks if c["name"] == "membership-invariance")

    check = membership()
    assert check["passed"]
    assert check["measured"]["inside"] > 0 and check["measured"]["outside"] > 0
    assert check["measured"]["inside"] + check["measured"]["outside"] == 50
    # scale invariant, but the draws never test an outside vector
    monkeypatch.setattr(cones, "in_cone", lambda v, cone: np.ones(len(v), dtype=bool))
    check = membership()
    assert check["measured"] == {"inside": 50, "outside": 0}
    assert not check["passed"]


# runs shaped like the cones suite's forward, reversed and negative-control campaigns
_RUNS = [dict(rho0=0.5, n_vectors=64, n_orbits=12, seed=42, reverse=False),
         dict(rho0=0.5, n_vectors=64, n_orbits=12, seed=42, reverse=True),
         dict(rho0=1.5, n_vectors=32, n_orbits=10, seed=7, reverse=False)]


@pytest.mark.parametrize("k, step", [(4, 0.01), (8, 0.01), (4, 0.3)])
def test_stacked_campaigns_equal_lone_calls(anosov, k, step):
    # rows of different rate tables, rho0 and sizes in one pass; step 0.3
    # does not divide the 0.25 checkpoint grid
    spec = SaddleSpec(rates=(-1.0,) * (k // 2) + (1.0,) * (k // 2))
    reports, _ = cones.inner_cone_campaigns(spec, anosov, 0.1, _RUNS, step=step)
    assert not reports[2].passed() and reports[0].passed()
    for report, run in zip(reports, _RUNS):
        assert vars(report) == vars(cones.inner_cone_campaign(spec, anosov, omega=0.1,
                                                              step=step, **run))


@pytest.mark.parametrize("step", [0.01, 0.3])
def test_stacked_pass_equals_one_lifted_call_per_segment(step):
    # the charts that one stacked `core_chart_schedule` call reads at each
    # checkpoint, and its switch count, are those of one `_lifted_flow_batch`
    # call per 0.25 segment from the last end
    spec = SaddleSpec(rates=(-1.0, -1.0, 1.0, 1.0))
    rev = SaddleSpec(rates=(1.0, 1.0, -1.0, -1.0))
    rng = np.random.default_rng(3)
    starts = []
    for _ in range(2):
        charts, U = rng.integers(0, 4, size=6), rng.uniform(-0.6, 0.6, size=(6, 4))
        U[np.arange(6), charts] *= 1e-3  # inside radius 0.001 of the exceptional set
        starts.append(BlowupPoint(charts, U))
    nsteps, h = saddle._fixed_steps(0.25, step)
    log, escapes, counters = blowup.core_chart_schedule(
        np.repeat([spec.rates, rev.rates], 6, axis=0), np.repeat([0.5, 1.5], 6),
        BlowupPoint(np.concatenate([p.chart for p in starts]), np.vstack([p.u for p in starts])),
        h, nsteps, 16)
    assert escapes == [] and counters["chart_switches"] > 0
    done = {}
    for block, (s, rho0, here) in enumerate(zip((spec, rev), (0.5, 1.5), starts)):
        for charts in log[:, 6 * block:6 * block + 6]:
            here = blowup._lifted_flow_batch(s, BumpProfile.flat(rho0), here, 0.25, step=step,
                                             counters=done)
            assert (charts == here.chart).all()
    assert counters == {"chart_switches": done["chart_switches"]}


def _segment_passes(blocks, h, nsteps, segments):
    """Oracle of `core_chart_schedule`: one `_lifted_pass` per segment and block, from the last end.

    blocks holds (rates, rho0, points); a row that escaped takes no more
    steps.  Returns the chart log over the stacked rows, the escapes as
    (step, row, blow-down point) with steps counted from 1 over the whole run,
    in step then row order, and the chart switches.
    """
    logs, escapes, switches, offset = [], [], 0, 0
    for rates, rho0, points in blocks:
        lifted = blowup.LiftedSaddle.of(SaddleSpec(rates=tuple(rates)), BumpProfile.flat(rho0))
        counts, log = np.full(len(points), nsteps), []
        for segment in range(segments):
            points, out, counters = blowup._lifted_pass(lifted, points, h, counts)
            switches += counters["chart_switches"]
            for time, x, row in out:
                escapes.append((segment * nsteps + round(time / h), offset + row, x))
                counts[row] = 0
            log.append(points.chart)
        logs.append(np.array(log))
        offset += len(points)
    return np.hstack(logs), sorted(escapes, key=lambda e: e[:2]), switches


def _append_rows(points, charts, U):
    return BlowupPoint(np.append(points.chart, charts), np.vstack([points.u, U]))


@pytest.mark.parametrize("k, step", [(4, 1e-2), (4, 1e-3), (8, 1e-2), (8, 1e-3)])
def test_core_chart_schedule_equals_lifted_passes(anosov, k, step):
    # the core campaigns' orbits at the forward, reversed and negative-control
    # rates and rho0, and three rows that test the rule's corners: two
    # unstable coordinates that pass the threshold on the same step (the larger
    # wins), a row that switches once and later reaches the unit sphere, and
    # one that switches on the step it escapes (the pass switches it): the
    # closed-form schedule reads the charts, the switch count and the escapes
    # of the RK4 passes
    spec = SaddleSpec(rates=(-1.0,) * (k // 2) + (1.0,) * (k // 2))
    model = ProductModel(spec=spec, anosov=anosov)
    blocks = []
    for m, rho0, n_orbits in ((model, 0.5, 12), (model.reversed(), 0.5, 12), (model, 1.5, 10)):
        p = cones._inner_orbit_points(m, n_orbits, 45, min(0.012, 0.5 * math.exp(-4.0 * rho0)))
        blocks.append([m.spec.rates, rho0, p])
    tie, later = np.zeros(k), np.zeros(k)
    tie[[0, k - 2, k - 1]] = 1e-3, 0.9, 0.90002  # in chart 0, a stable axis
    blocks[0][2] = _append_rows(blocks[0][2], 0, tie)
    later[[0, k - 1]] = 0.3, 0.5  # x = (0.3, 0, ..., 0, 0.15) in chart 0: switches near t = 0.25
    blocks[2][2] = _append_rows(blocks[2][2], 0, later)
    # rates (-1, 1, 2, ...), rho0 1.5, x on the (1, 2) plane in chart 1: u_2 e^{1.5 t} passes
    # 1.05 at t = 0.5053 and |x| passes 1 at t = 0.5056, both in the step ending at 0.51 or 0.506
    u = np.zeros(k)
    u[2] = 1.05 * math.exp(-1.5 * 0.5053)
    u[1] = 1.0 / math.sqrt(math.exp(3.0 * 0.5056) + u[2] ** 2 * math.exp(6.0 * 0.5056))
    blocks.append([(-1.0, 1.0) + (2.0,) * (k - 2), 1.5, BlowupPoint([1], u[None])])
    nsteps, h = saddle._fixed_steps(0.25, step)
    log, escapes, counters = blowup.core_chart_schedule(
        np.vstack([np.broadcast_to(r, (len(p), k)) for r, _, p in blocks]),
        np.concatenate([np.full(len(p), r0) for _, r0, p in blocks]),
        BlowupPoint(np.concatenate([p.chart for *_, p in blocks]),
                    np.vstack([p.u for *_, p in blocks])), h, nsteps, 16)
    oracle_log, oracle_escapes, switches = _segment_passes(blocks, h, nsteps, 16)
    assert (log == oracle_log).all()
    assert counters == {"chart_switches": switches} and switches > 0
    n = len(log[0])
    assert log[-1, len(blocks[0][2]) - 1] == k - 1  # the tie row, in the larger coordinate's chart
    assert ([(round(time / h), row) for time, _, row in escapes]
            == [(oracle_step, row) for oracle_step, row, _ in oracle_escapes])
    assert [row for *_, row in escapes] == [n - 1, n - 2]
    assert 0.505 < escapes[0][0] <= 0.51 and 1.0 < escapes[1][0] < 4.0
    assert log[-1, n - 2] == k - 1 and log[-1, n - 1] == 2
    for (_, x, _), (*_, oracle_x) in zip(escapes, oracle_escapes):
        assert np.linalg.norm(x) >= 1.0 and np.linalg.norm(oracle_x) >= 1.0
        assert np.abs(x - oracle_x).max() < 1e-6


# the disk relabelling that maps the reversed default rates (1, 1, -1, -1)
# onto the forward ones: coordinate i of the relabelled point is coordinate
# sigma[i] of the original, and chart c becomes chart sigma[c] (sigma is an
# involution)
_SIGMA = np.array([2, 3, 0, 1])


@pytest.mark.parametrize("seed", [1, 3, 42])
def test_reversed_core_campaign_is_the_relabelled_forward_one(monkeypatch, seed):
    # at the default rates the reversed campaign equals, bit for bit, the
    # forward one on its orbit points and frames with the disk coordinates
    # permuted by sigma; seeds 1 and 3 fail `time-symmetry`, where the plain
    # forward campaign differs, so those reds come from which orbits and
    # frames are drawn, not from a time asymmetry
    cfg = CampaignConfig(samples=64, cone_orbits=8, step=0.01, seed=seed)
    args = (cfg.saddle_spec(), cfg.anosov_model(), cfg.resolved_rho0(), cfg.omega)
    run = dict(n_vectors=cfg.samples, n_orbits=cfg.cone_orbits, seed=seed, step=cfg.step)
    rev = cones.inner_cone_campaign(*args, reverse=True, **run)
    plain = cones.inner_cone_campaign(*args, **run)
    points, frames = cones._inner_orbit_points, cones._cones_and_frames

    def relabelled_points(model, *rest):
        p = points(model.reversed(), *rest)
        return BlowupPoint(_SIGMA[p.chart], p.u[:, _SIGMA])

    def relabelled_frames(model, *rest):
        perm = np.concatenate([_SIGMA, np.arange(len(_SIGMA), model.dim)])
        return tuple((cone, frame[:, perm]) for cone, frame in frames(model.reversed(), *rest))

    monkeypatch.setattr(cones, "_inner_orbit_points", relabelled_points)
    monkeypatch.setattr(cones, "_cones_and_frames", relabelled_frames)
    relabelled = cones.inner_cone_campaign(*args, **run)
    assert vars(relabelled) == vars(rev)
    assert (vars(plain) == vars(rev)) is (seed == 42)


_SMALL = dict(samples=64, step=0.01, delta_sweep=[0.1, 0.01, 0.001])


def test_cones_suite_makes_one_stacked_lifted_pass(monkeypatch):
    # the three core campaigns' orbits are one closed-form chart schedule, and
    # no lifted RK4 pass runs in the suite
    calls = []
    for owner, name in ((blowup, "_lifted_pass"), (blowup, "_lifted_flow_batch"),
                        (blowup, "core_chart_schedule"),
                        (cones, "inner_cone_campaign"), (cones, "inner_cone_campaigns")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _real=real, _name=name, **kw:
                            calls.append((_name, args)) or _real(*args, **kw))
    cfg = CampaignConfig(**_SMALL)
    report = cli.build_report(cfg, ("cones",))
    assert [name for name, _ in calls] == ["inner_cone_campaigns", "core_chart_schedule"]
    _, _, start, h, nsteps, segments = calls[1][1]
    # forward and reversed orbits, then the negative control's
    assert len(start) == 2 * cfg.cone_orbits + max(cfg.cone_orbits // 2, 8) == 60
    assert (h, nsteps, segments) == (0.01, 25, 16)
    assert report["passed"]
    # the 24 switches of the RK4 pass that the schedule replaced
    assert report["timing"]["counters"] == {"cones": {"chart_switches": 24}}
    assert "chart_switches" not in cli.canonical_json(cli.strip_timing(report))


def _push_last_control_orbit(monkeypatch):
    """Start the last orbit of a 12-orbit run on an unstable axis at radius 0.99."""
    real = cones._inner_orbit_points

    def pushed(model, n_orbits, seed, radius):
        points = real(model, n_orbits, seed, radius)
        if n_orbits != 12:
            return points
        charts, U, axis = points.chart.copy(), points.u.copy(), int(np.argmax(model.spec.rates))
        charts[-1], U[-1] = axis, 0.0
        U[-1, axis] = 0.99
        return BlowupPoint(charts, U)

    monkeypatch.setattr(cones, "_inner_orbit_points", pushed)


def test_escaping_control_row_fails_only_its_campaign(monkeypatch):
    # the last orbit of the negative control starts on an unstable axis at
    # radius 0.99 and reaches the unit sphere in its first segment; it stops
    # there, and the forward and reversed campaigns report as before
    cfg = CampaignConfig(**_SMALL)
    spec, anosov, rho0 = cfg.saddle_spec(), cfg.anosov_model(), cfg.resolved_rho0()
    bad_rho0 = 1.5 * (2 * saddle.pick_rho0(cfg.lam, cfg.mu, spec.lam_prime, spec.mu_prime))
    runs = [dict(rho0=rho0, n_vectors=64, n_orbits=24, seed=0, reverse=False),
            dict(rho0=rho0, n_vectors=64, n_orbits=24, seed=0, reverse=True),
            dict(rho0=bad_rho0, n_vectors=64, n_orbits=12, seed=0, reverse=False)]
    checks = lambda: {c["name"]: c for c in suites.run_cones_suite(cfg)["checks"]}
    before = cones.inner_cone_campaigns(spec, anosov, 0.1, runs, step=0.01)[0]
    before_checks = checks()
    _push_last_control_orbit(monkeypatch)
    (fwd, rev, neg), counters = cones.inner_cone_campaigns(spec, anosov, 0.1, runs, step=0.01)
    assert vars(fwd) == vars(before[0]) and vars(rev) == vars(before[1])
    escape = [v for v in neg.violations if v["type"] == "domain-escape"]
    assert len(escape) == 1 and escape[0]["orbit"] == 11
    assert 0.0 < escape[0]["time"] <= 0.25
    assert np.linalg.norm(escape[0]["point"]) >= 1.0
    assert not neg.passed()
    # the row stops on the first step end at which its exact orbit 0.99 exp(rho0 t)
    # on the unstable axis reaches the sphere
    steps = round(escape[0]["time"] / 0.01)
    assert steps == np.argmax(0.99 * np.exp(bad_rho0 * 0.01 * np.arange(1, 26)) >= 1.0) + 1
    assert counters == {"chart_switches": 24}
    after = checks()
    for name in ("core-cone-campaign", "time-symmetry"):
        assert after[name] == before_checks[name]
    assert "domain-escape" in after["negative-controls"]["measured"]["violation_types"]


def test_negative_controls_witness_names_an_escaped_control_row(monkeypatch):
    # at unstable rate 3.1 the forced rho0 is no longer past the domination
    # threshold, so the check is red; its witness lists the control's
    # violations, here the escape of its pushed row with orbit, time and point
    cfg = CampaignConfig(**_SMALL, anosov_unstable=[3.1])
    check = lambda: next(c for c in suites.run_cones_suite(cfg)["checks"]
                         if c["name"] == "negative-controls")
    assert check()["witness"] == {"violations": []}
    _push_last_control_orbit(monkeypatch)
    red = check()
    assert not red["passed"] and red["measured"]["violation_types"] == ["domain-escape"]
    [escape] = red["witness"]["violations"]
    assert escape["type"] == "domain-escape" and escape["orbit"] == 11
    assert 0.0 < escape["time"] <= 0.25 and np.linalg.norm(escape["point"]) >= 1.0
    # the escaped row's step: the first at which 0.99 exp(rho0 t) reaches 1
    spec = cfg.saddle_spec()
    bad_rho0 = 1.5 * (2 * saddle.pick_rho0(cfg.lam, cfg.mu, spec.lam_prime, spec.mu_prime))
    steps = round(escape["time"] / 0.01)
    assert steps == np.argmax(0.99 * np.exp(bad_rho0 * 0.01 * np.arange(1, 26)) >= 1.0) + 1
