import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phsurgery import blowup, dualnum, saddle
from phsurgery.blowup import BlowupPoint, KLStructure
from phsurgery.saddle import BumpProfile, SaddleSpec


@pytest.fixture(scope="module")
def spec2():
    return SaddleSpec(rates=(-1.0, 1.0))


@pytest.fixture(scope="module")
def spec4():
    return SaddleSpec(rates=(-1.0, -1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def profile():
    return BumpProfile(delta=0.1, rho0=0.5)


class TestCharts:
    def test_blowdown_formula(self):
        p = BlowupPoint(chart=0, u=np.array([0.1, 0.5]))
        assert blowup.blowdown(p) == pytest.approx([0.1, 0.05])

    def test_exceptional_collapses(self):
        p = BlowupPoint(chart=1, u=np.array([0.7, 0.0, -0.2]))
        assert blowup.blowdown(p) == pytest.approx([0.0, 0.0, 0.0])

    def test_lift_formula_and_ties(self):
        q = blowup.lift(np.array([0.3, 0.1]))
        assert q.chart == 0
        assert q.u == pytest.approx([0.3, 1 / 3])
        tie = blowup.lift(np.array([0.1, 0.1]))
        assert tie.chart == 0

    def test_lift_rejects_origin(self):
        with pytest.raises(ValueError):
            blowup.lift(np.zeros(3))

    def test_transition_example(self):
        p = BlowupPoint(chart=0, u=np.array([0.1, 0.5]))
        q = blowup.chart_transition(p, 1)
        assert q.chart == 1
        assert q.u == pytest.approx([2.0, 0.05])
        assert blowup.blowdown(q) == pytest.approx(blowup.blowdown(p))

    def test_transition_identity_and_inverse(self):
        p = BlowupPoint(chart=0, u=np.array([0.1, 0.5, -0.3]))
        same = blowup.chart_transition(p, 0)
        assert same.u == pytest.approx(p.u)
        q = blowup.chart_transition(blowup.chart_transition(p, 2), 0)
        assert q.u == pytest.approx(p.u, abs=1e-12)

    def test_transition_rejects_vanishing_line(self):
        p = BlowupPoint(chart=0, u=np.array([0.1, 0.0]))
        with pytest.raises(ValueError):
            blowup.chart_transition(p, 1)

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.floats(min_value=-0.7, max_value=0.7), min_size=2, max_size=4))
    def test_roundtrip_property(self, coords):
        x = np.asarray(coords)
        if np.linalg.norm(x) < 1e-6 or np.linalg.norm(x) >= 1:
            return
        p = blowup.lift(x)
        assert np.linalg.norm(blowup.blowdown(p) - x) < 1e-14
        assert np.abs(np.delete(p.u, p.chart)).max() <= 1 + 1e-12

    def test_transition_jacobian_matches_fd(self):
        p = BlowupPoint(chart=0, u=np.array([0.2, 0.5, -0.4]))
        J = blowup.transition_jacobian(p, 1)
        eps = 1e-7
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            col = (blowup.chart_transition(BlowupPoint(0, p.u + e), 1).u
                   - blowup.chart_transition(BlowupPoint(0, p.u - e), 1).u) / (2 * eps)
            assert J[:, i] == pytest.approx(col, abs=1e-6)

    def test_transition_jacobians_equal_entrywise_formula(self):
        # every (chart, target) pair of a k = 4 batch, the same chart included,
        # against the entry-by-entry closed form bit for bit
        rng = np.random.default_rng(3)
        charts, targets = np.divmod(np.arange(16), 4)
        U = rng.uniform(-0.9, 0.9, size=(16, 4))
        J = blowup._transition_jacobians(charts, U, targets)
        for m, (i, tgt) in enumerate(zip(charts, targets)):
            t = U[m, tgt]
            ref = np.eye(4) if i == tgt else np.zeros((4, 4))
            for l in range(4 if i != tgt else 0):
                if l == tgt:
                    ref[tgt, tgt], ref[tgt, i] = U[m, i], t
                elif l == i:
                    ref[i, tgt] = -1.0 / t**2
                else:
                    ref[l, l], ref[l, tgt] = 1.0 / t, -U[m, l] / t**2
            assert (J[m] == ref).all()
            one = blowup.transition_jacobian(BlowupPoint(int(i), U[m]), int(tgt))
            assert (one == J[m]).all()

    @pytest.mark.parametrize("rates", [(-1.0, 1.0), (-1.0, -1.0, 1.0, 1.0),
                                       (-1.0,) * 4 + (1.0,) * 4, (-1.3, 0.7, 0.2, -0.4)])
    def test_chart_rates_match_dual_push_forward(self, rates):
        # push the saddle field rates * x through each chart map with dual
        # numbers at a generic probe: u' = (Dphi)^-1 rates phi(u) = d[i] u
        k = len(rates)
        probe = [0.35 + 0.011 * j for j in range(k)]
        d = blowup._chart_rate_matrix(rates)
        for i in range(k):
            phi = [lambda u, m=m: u[m] * u[i] if m != i else u[i] for m in range(k)]
            J = np.array(dualnum.jacobian(phi, probe))
            x = np.array([f(probe) for f in phi])
            udot = np.linalg.solve(J, np.asarray(rates) * x)
            assert np.abs(udot / np.asarray(probe) - d[i]).max() < 1e-12


def _mixed_points():
    """Twelve points in mixed charts: one on the exceptional set, some in the
    transition shell, and some that switch charts within time 1.2."""
    rng = np.random.default_rng(4)
    points = [BlowupPoint(int(c), rng.uniform(-0.3, 0.3, size=4))
              for c in rng.integers(0, 4, size=12)]
    points[0].u[points[0].chart] = 0.0
    return points


class TestLiftedField:
    @pytest.fixture()
    def batch(self):
        # every chart, blow-down radii across the core, the shell and beyond
        rng = np.random.default_rng(9)
        charts = np.arange(12) % 4
        U = rng.uniform(-0.25, 0.25, size=(12, 4))
        U[5, charts[5]] = 0.0  # on the exceptional set
        return charts, U

    def test_rows_match_one_row_calls(self, spec4, profile, batch):
        lifted = blowup.LiftedSaddle(spec4, profile)
        charts, U = batch
        F = lifted.field(charts, U)
        for m in range(len(U)):
            one = slice(m, m + 1)
            assert (lifted.field(charts[one], U[one]) == F[one]).all()


class TestLiftedFlow:
    def test_exceptional_invariance(self, spec2, profile):
        p = BlowupPoint(chart=0, u=np.array([0.0, 0.4]))
        q = blowup.lifted_slow_flow(spec2, profile, p, 2.0)
        assert q.u[q.chart] == 0.0

    def test_chart_closed_form_unperturbed(self, spec2):
        # chart of the contracting axis: radial rate -1, affine rate +2
        flat = BumpProfile.flat(1.0)
        p = BlowupPoint(chart=0, u=np.array([0.01, 0.2]))
        q = blowup.lifted_slow_flow(spec2, flat, p, 0.5)
        assert q.u[0] == pytest.approx(0.01 * math.exp(-0.5), rel=1e-10)
        assert q.u[1] == pytest.approx(0.2 * math.exp(1.0), rel=1e-10)

    def test_commutation_with_chart_switch(self, spec2, profile):
        p = BlowupPoint(chart=0, u=np.array([0.02, 0.9]))
        q = blowup.lifted_slow_flow(spec2, profile, p, 1.2)
        x = saddle.flow_slow(spec2, profile, blowup.blowdown(p), 1.2)
        assert q.chart == 1  # the expanding affine coordinate took over
        assert np.linalg.norm(blowup.blowdown(q) - x) < 1e-10

    def test_commutation_campaign(self, spec4, profile):
        worst, witness = blowup.commutation_campaign(spec4, profile, n=200, seed=1)
        assert worst < 1e-7
        assert witness["residual"] == worst

    def test_batch_matches_single_points(self, spec4, profile):
        points = _mixed_points()
        charts, U = blowup._lifted_flow_batch(spec4, profile, points, 1.2)
        assert (charts != [p.chart for p in points]).any()
        for p, chart, u in zip(points, charts, U):
            q = blowup.lifted_slow_flow(spec4, profile, p, 1.2)
            assert q.chart == chart
            assert (q.u == u).all()

    def test_atlas_escape(self, spec2):
        flat = BumpProfile.flat(1.0)
        p = BlowupPoint(chart=1, u=np.array([0.0, 0.5]))
        with pytest.raises(saddle.DomainEscape):
            blowup.lifted_slow_flow(spec2, flat, p, 2.0)

    def test_variational_against_fd(self, spec2, profile):
        # the orbit stays inside |x| < delta, where rho == rho0 and the
        # closed form holds
        p = BlowupPoint(chart=0, u=np.array([0.05, 0.3]))
        q = blowup.lifted_slow_flow(spec2, profile, p, 1.0)
        J = blowup.core_tangent_maps(spec2, profile.rho0, [p], [q.chart], 1.0)[0]
        eps = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            qa = blowup.lifted_slow_flow(spec2, profile, BlowupPoint(0, p.u + e), 1.0)
            qb = blowup.lifted_slow_flow(spec2, profile, BlowupPoint(0, p.u - e), 1.0)
            col = (qa.u - qb.u) / (2 * eps)
            assert J[:, i] == pytest.approx(col, rel=1e-5, abs=1e-7)

    def test_core_tangent_maps_match_central_differences(self, spec4):
        # one RK4 call on every mixed point and its +-eps neighbours; the
        # closed form reads each map into the chart the flow ends in.  At
        # rho == 0.5 the rows need t = 2.4 to switch charts.
        flat = BumpProfile.flat(0.5)
        points = _mixed_points()
        eps = 1e-6
        shifted = [BlowupPoint(p.chart, p.u + sign * eps * e)
                   for p in points for sign in (1, -1) for e in np.eye(4)]
        all_charts, U = blowup._lifted_flow_batch(spec4, flat, points + shifted, 2.4, step=1e-3)
        n = len(points)
        charts = all_charts[:n]
        assert (charts != [p.chart for p in points]).any()
        J = blowup.core_tangent_maps(spec4, 0.5, points, charts, 2.4)
        ends = U[n:].reshape(n, 2, 4, 4)
        assert (all_charts[n:].reshape(n, 8) == charts[:, None]).all()
        for m in range(n):
            fd = (ends[m, 0] - ends[m, 1]).T / (2 * eps)
            assert np.abs(J[m] - fd).max() < 1e-6 * np.abs(fd).max()


class TestDensities:
    def test_pullback_value(self):
        p = BlowupPoint(chart=1, u=np.array([0.5, 0.1, 0.2]))
        assert blowup.pullback_volume_density(p) == pytest.approx(0.01)

    def test_pullback_vanishes_on_exceptional(self):
        p = BlowupPoint(chart=0, u=np.array([0.0, 0.3, 0.3]))
        assert blowup.pullback_volume_density(p) == 0.0

    def test_pullback_matches_jacobian(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            u = rng.uniform(-0.9, 0.9, size=k)
            p = BlowupPoint(chart=int(rng.integers(0, k)), u=u)
            det = np.linalg.det(blowup.blowdown_jacobian(p))
            assert abs(det - blowup.pullback_volume_density(p)) < 1e-8

    def test_kl_density_cancellation(self):
        kl = KLStructure(k=2, alpha=-0.5)
        p = BlowupPoint(chart=0, u=np.array([0.3, 0.0]))
        assert blowup.kl_density(kl, p) == pytest.approx(0.5)
        pneg = BlowupPoint(chart=0, u=np.array([-0.3, 0.0]))
        assert blowup.kl_density(kl, pneg) == pytest.approx(-0.5)

    def test_alpha_zero_reduces_to_pullback(self):
        kl = KLStructure(k=3, alpha=0.0)
        p = BlowupPoint(chart=0, u=np.array([0.4, 0.2, -0.1]))
        assert blowup.kl_density(kl, p) == pytest.approx(
            blowup.pullback_volume_density(p))

    def test_kl_density_matches_chart_jacobian(self):
        rng = np.random.default_rng(1)
        kl = KLStructure.volume_nondegenerate(3)
        for _ in range(20):
            u = rng.uniform(-0.9, 0.9, size=3)
            if abs(u[0]) < 0.05:
                u[0] = 0.2
            p = BlowupPoint(chart=0, u=u)
            eps = 1e-6
            J = np.zeros((3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = eps
                J[:, i] = (blowup.kl_chart_map(kl, BlowupPoint(0, u + e))
                           - blowup.kl_chart_map(kl, BlowupPoint(0, u - e))) / (2 * eps)
            assert abs(np.linalg.det(J) - blowup.kl_density(kl, p)) < 1e-6

    def test_box_infimum(self):
        for k in (2, 3, 4):
            kl = KLStructure.volume_nondegenerate(k)
            corner = BlowupPoint(chart=0, u=np.ones(k))
            expected = (1.0 / k) * k ** (-(k - 1) / 2.0)
            assert abs(blowup.kl_density(kl, corner)) == pytest.approx(expected)


class TestNewNorm:
    def test_values(self):
        kl = KLStructure(k=2, alpha=-0.5)
        assert blowup.new_norm(kl, [1.0, 0.0]) == 1.0
        assert blowup.new_norm(kl, [0.04, 0.0]) == pytest.approx(0.2)

    def test_monotone(self):
        kl = KLStructure(k=4, alpha=-0.75)
        r = np.linspace(0.01, 1.0, 50)
        vals = [blowup.new_norm(kl, [ri, 0.0, 0.0, 0.0]) for ri in r]
        assert (np.diff(vals) > 0).all()

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            KLStructure(k=2, alpha=-1.0)
        with pytest.raises(ValueError):
            KLStructure(k=2, alpha=0.5)


class TestPowerAtlas:
    def test_rate_division_by_k(self, spec2):
        kl = KLStructure(k=2, alpha=-0.5)
        out = blowup.kl_rate_check(spec2, kl, 0.5, times=(1.0,), n_samples=50)
        assert out["expected_upper"] == pytest.approx(math.exp(0.25))
        assert out["per_time_upper"] <= out["expected_upper"] * (1 + 1e-12)
        assert out["per_time_lower"] >= out["expected_lower"] * (1 - 1e-12)

    def test_log_slope_regression(self, spec2):
        kl = KLStructure(k=2, alpha=-0.5)
        out = blowup.kl_rate_check(spec2, kl, 0.5, times=(1.0, 2.0, 4.0))
        assert out["unstable_log_slope"] == pytest.approx(out["expected_slope"], rel=1e-9)

    def test_alpha_zero_recovers_plain_rates(self, spec2):
        kl = KLStructure(k=2, alpha=0.0)
        out = blowup.kl_rate_check(spec2, kl, 0.5, times=(1.0,))
        assert out["expected_upper"] == pytest.approx(math.exp(0.5))

    def test_smoothness_probe(self, spec2):
        probe = blowup.kl_smoothness_probe(spec2)
        dd = probe["disk_defect"]
        assert min(dd) > 0.1 and max(dd) / min(dd) < 1.5
        assert max(probe["linear_control_defect"]) < 1e-12
        assert max(probe["chart_second_difference"]) < 10.0


class TestDensityRegularity:
    def test_generic_density_blows_up_at_rate_alpha(self):
        out = blowup.density_regularity_probe(2, lambda x: 1.0 + x[0])
        assert out["log_slope"] == pytest.approx(-0.5, abs=0.02)
        derivs = [b for _, b in out["sweep"]]
        assert derivs[-1] > 50 * derivs[0]

    def test_flat_density_stays_bounded(self):
        out = blowup.density_regularity_probe(2, lambda x: 1.0 + x[0] ** 2)
        derivs = [b for _, b in out["sweep"]]
        assert max(derivs) / min(derivs) < 1.5

    def test_constant_density_smooth(self):
        out = blowup.density_regularity_probe(2, lambda x: 1.0)
        assert max(b for _, b in out["sweep"]) == 0.0
