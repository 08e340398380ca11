import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phsurgery import blowup, cli, dualnum, saddle, suites
from phsurgery.blowup import BlowupPoint, KLStructure
from phsurgery.config import CampaignConfig
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
        p = BlowupPoint(chart=0, u=np.array([[0.1, 0.5]]))
        assert blowup.blowdown(p)[0] == pytest.approx([0.1, 0.05])

    def test_exceptional_collapses(self):
        p = BlowupPoint(chart=1, u=np.array([[0.7, 0.0, -0.2]]))
        assert blowup.blowdown(p)[0] == pytest.approx([0.0, 0.0, 0.0])

    def test_lift_formula_and_ties(self):
        q = blowup.lift(np.array([[0.3, 0.1], [0.1, 0.1]]))
        assert q.chart.tolist() == [0, 0]  # row 1 is a tie
        assert q.u[0] == pytest.approx([0.3, 1 / 3])

    def test_lift_rejects_origin(self):
        with pytest.raises(ValueError):
            blowup.lift(np.zeros((1, 3)))

    def test_transition_example(self):
        p = BlowupPoint(chart=0, u=np.array([[0.1, 0.5]]))
        q = blowup.chart_transition(p, 1)
        assert q.chart[0] == 1
        assert q.u[0] == pytest.approx([2.0, 0.05])
        assert blowup.blowdown(q)[0] == pytest.approx(blowup.blowdown(p)[0])

    def test_transition_identity_and_inverse(self):
        p = BlowupPoint(chart=0, u=np.array([[0.1, 0.5, -0.3]]))
        same = blowup.chart_transition(p, 0)
        assert same.u[0] == pytest.approx(p.u[0])
        q = blowup.chart_transition(blowup.chart_transition(p, 2), 0)
        assert q.u[0] == pytest.approx(p.u[0], abs=1e-12)

    def test_transition_rejects_vanishing_line(self):
        p = BlowupPoint(chart=0, u=np.array([[0.1, 0.0]]))
        with pytest.raises(ValueError):
            blowup.chart_transition(p, 1)

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.floats(min_value=-0.7, max_value=0.7), min_size=2, max_size=4))
    def test_roundtrip_property(self, coords):
        x = np.asarray([coords])
        if np.linalg.norm(x) < 1e-6 or np.linalg.norm(x) >= 1:
            return
        p = blowup.lift(x)
        assert np.linalg.norm(blowup.blowdown(p) - x) < 1e-14
        assert np.abs(np.delete(p.u[0], p.chart[0])).max() <= 1 + 1e-12

    def test_transition_jacobian_matches_fd(self):
        p = BlowupPoint(chart=0, u=np.array([[0.2, 0.5, -0.4]]))
        J = blowup.transition_jacobian(p, 1)[0]
        eps = 1e-7
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            col = (blowup.chart_transition(BlowupPoint(0, p.u + e), 1).u
                   - blowup.chart_transition(BlowupPoint(0, p.u - e), 1).u)[0] / (2 * eps)
            assert J[:, i] == pytest.approx(col, abs=1e-6)

    def test_transition_jacobians_equal_entrywise_formula(self):
        # every (chart, target) pair of a k = 4 batch, the same chart included,
        # against the entry-by-entry closed form bit for bit
        rng = np.random.default_rng(3)
        charts, targets = np.divmod(np.arange(16), 4)
        U = rng.uniform(-0.9, 0.9, size=(16, 4))
        J = blowup.transition_jacobian(BlowupPoint(charts, U), targets)
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
            one = blowup.transition_jacobian(BlowupPoint(int(i), U[m:m + 1]), int(tgt))
            assert (one[0] == J[m]).all()

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
            J = np.array([[dualnum.partial(f, probe, j) for j in range(k)] for f in phi])
            x = np.array([f(probe) for f in phi])
            udot = np.linalg.solve(J, np.asarray(rates) * x)
            assert np.abs(udot / np.asarray(probe) - d[i]).max() < 1e-12


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestPointOrBatch:
    """Every operation on a batch equals its rows' one-row calls bit for bit."""

    @pytest.fixture()
    def batch(self):
        # k = 4, every chart; row 3 on the exceptional set (target its own
        # chart), row 5 on it too (moving chart); rows 0-3 stay, 4-11 move
        rng = np.random.default_rng(11)
        charts = np.arange(12) % 4
        U = rng.uniform(-0.9, 0.9, size=(12, 4))
        U[3, 3] = U[5, 1] = 0.0
        targets = (charts + np.arange(12) // 4) % 4
        return BlowupPoint(charts, U), targets

    @pytest.mark.parametrize("op", [
        "blowdown", "line", "radial", "pullback", "f_alpha", "kl_density",
        "kl_density_zero_alpha", "kl_density_negative_power", "kl_chart_map"])
    def test_point_functions(self, batch, op):
        p, _ = batch
        kl = KLStructure.volume_nondegenerate(4)
        fn = {
            "blowdown": blowup.blowdown,
            "line": BlowupPoint.line,
            "radial": BlowupPoint.radial,
            "pullback": blowup.pullback_volume_density,
            "f_alpha": lambda q: blowup.f_alpha(kl, q),
            "kl_density": lambda q: blowup.kl_density(kl, q),
            "kl_density_zero_alpha": lambda q: blowup.kl_density(KLStructure(4, 0.0), q),
            "kl_density_negative_power": lambda q: blowup.kl_density(KLStructure(4, -0.9), q),
            "kl_chart_map": lambda q: blowup.kl_chart_map(kl, q),
        }[op]
        rows = fn(p)
        assert len(rows) == len(p)
        for m in range(len(p)):
            assert _bits(fn(p[m:m + 1])) == _bits(rows[m])

    def test_exceptional_rows_of_kl_density(self, batch):
        p, _ = batch
        assert blowup.kl_density(KLStructure(4, -0.9), p)[3] == math.inf
        assert blowup.kl_density(KLStructure(4, 0.0), p)[3] == 0.0
        cancel = blowup.kl_density(KLStructure.volume_nondegenerate(4), p)[3]
        assert cancel == 0.25 * blowup.f_alpha(KLStructure.volume_nondegenerate(4), p[3:4])[0] ** 4

    def test_transitions_and_jacobians(self, batch):
        p, targets = batch
        q = blowup.chart_transition(p, targets)
        J = blowup.transition_jacobian(p, targets)
        assert (q.chart == targets).all()
        for m in range(len(p)):
            one = blowup.chart_transition(p[m:m + 1], int(targets[m]))
            assert one.chart[0] == q.chart[m] and _bits(one.u) == _bits(q.u[m])
            assert _bits(blowup.transition_jacobian(p[m:m + 1], int(targets[m]))) == _bits(J[m])
        assert _bits(q.u[:4]) == _bits(p.u[:4])  # target == chart keeps the row
        assert q.radial()[5] == 0.0  # the exceptional set maps to itself

    def test_lift_and_new_norm(self, batch):
        p, _ = batch
        kl = KLStructure.volume_nondegenerate(4)
        x = blowup.blowdown(p)
        x = x[np.abs(x).max(axis=1) > 0]
        lifted, norms = blowup.lift(x), blowup.new_norm(kl, x)
        for m in range(len(x)):
            one = blowup.lift(x[m:m + 1])
            assert one.chart[0] == lifted.chart[m] and _bits(one.u) == _bits(lifted.u[m])
            assert _bits(blowup.new_norm(kl, x[m:m + 1])) == _bits(norms[m])

    def test_errors_name_the_first_bad_row(self):
        p = BlowupPoint([0, 1, 1, 1], [[0.1, 0.5], [0.2, 0.3], [0.0, 0.4], [0.0, 0.1]])
        with pytest.raises(ValueError, match="row 2"):
            blowup.chart_transition(p, 0)
        with pytest.raises(ValueError, match="row 1 is the origin"):
            blowup.lift([[0.1, 0.2], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="of row 1 out of range"):
            BlowupPoint([0, 2], np.zeros((2, 2)))

    def test_len_and_rows(self, batch):
        # a point is a one-row batch: u of shape (k,), and so an int row index, is refused
        p, _ = batch
        assert len(p) == 12 and len(p[2:5]) == 3 and p[7:8].chart.tolist() == [3]
        assert p[:1].u.shape == (1, 4)
        with pytest.raises(ValueError, match=r"shape \(n, k\), not \(4,\)"):
            p[0]
        with pytest.raises(ValueError, match=r"shape \(n, k\), not \(2,\)"):
            BlowupPoint(0, np.array([0.1, 0.5]))


def _mixed_points():
    """A batch of twelve points in mixed charts: one on the exceptional set,
    some in the transition shell, and some that switch charts within time 1.2."""
    rng = np.random.default_rng(4)
    charts = rng.integers(0, 4, size=12)
    U = rng.uniform(-0.3, 0.3, size=(12, 4))
    U[0, charts[0]] = 0.0
    return BlowupPoint(charts, U)


def _step_and_switch(lifted, charts, U, h):
    """One RK4 step of the rows U in their charts, in place, then the chart switch row by row.

    Every row with an affine coordinate past the threshold moves, one at a
    time, to the first argmax of |line| (chart slot 1.0) by the one-point
    transition u / t, 1/t, u_target u_chart.  Returns the blow-down of the
    rows after the step, before any switch.
    """
    U[:] = saddle.rk4_step(lambda _, u: lifted.field(charts, lifted.chart_rates[charts], u),
                           0.0, U, h)
    x = blowup._blowdown(charts, U)
    absU = np.abs(U)
    absU[np.arange(len(U)), charts] = 0.0
    for m in np.flatnonzero(absU.max(axis=1) > blowup._CHART_SWITCH):
        i = int(charts[m])
        line = np.abs(U[m])
        line[i] = 1.0
        target = int(np.argmax(line))
        t_m = U[m, target]
        u = U[m] / t_m
        u[i] = 1.0 / t_m
        u[target] = U[m, target] * U[m, i]
        charts[m], U[m] = target, u
    return x


def _per_row_switching_flow(spec, profile, points, t, step=saddle.DEFAULT_STEP):
    """Oracle of `_lifted_flow_batch`: the chart switch made row by row."""
    charts, U = points.chart.copy(), points.u.copy()
    nsteps, h = saddle._fixed_steps(t, step)
    lifted = blowup.LiftedSaddle.of(spec, profile)
    for _ in range(nsteps):
        _step_and_switch(lifted, charts, U, h)
    return charts, U


def _lockstep_commutation(spec, profile, n, seed, step):
    """Oracle of `commutation_campaign`: every sample runs all steps to t = 1.

    The samples are drawn as the campaign draws them; after each step the
    samples maturing there are scored against the exact clock of their
    blow-downs at that time, and the witness is kept when a step's
    worst residual beats every earlier one.  A sample that starts on the
    exceptional set and is off it at its maturity has left it; the first in
    step then sample order is named.  At the first step where the blow-down
    of a sample not yet matured reaches the unit sphere, it raises
    DomainEscape naming the outermost such sample and its draw index.
    """
    rng = np.random.default_rng(seed)
    k = spec.k
    rows = np.arange(n)
    charts = rng.integers(0, k, size=n)
    U = rng.uniform(-1.0, 1.0, size=(n, k))
    line_norm = np.sqrt(1.0 + np.sum(U**2, axis=1) - U[rows, charts] ** 2)
    safe = 0.45 * math.exp(-max(abs(r) for r in spec.rates))
    radial = rng.uniform(-1.0, 1.0, size=n) * safe / line_norm
    on_set = rng.random(n) < 0.25
    on_set[0] |= not on_set.any()
    radial[on_set] = 0.0
    U[rows, charts] = radial
    X = blowup._blowdown(charts, U)
    nsteps, h = saddle._fixed_steps(1.0, step)
    maturity = rng.integers(1, nsteps + 1, size=n)
    lifted = blowup.LiftedSaddle.of(spec, profile)
    worst, witness, left = -1.0, None, []
    for istep in range(1, nsteps + 1):
        x = _step_and_switch(lifted, charts, U, h)
        r = np.where(maturity >= istep, saddle._radius(x), -np.inf)
        if (r >= 1.0).any():
            m = int(np.argmax(r))
            raise saddle.DomainEscape(istep * h, x[m], m)
        due = np.flatnonzero(maturity == istep)
        if not due.size:
            continue
        left += [{"sample": int(m), "chart": int(charts[m]), "u": U[m].tolist(), "time": istep * h}
                 for m in due if on_set[m] and U[m, charts[m]] != 0.0]
        exact = saddle.slowed_clock(spec, profile, X[due], istep * h)
        res = saddle._radius(blowup._blowdown(charts[due], U[due]) - exact)
        i = int(np.argmax(res))
        if res[i] > worst:
            worst = float(res[i])
            witness = {"chart": int(charts[due[i]]), "u": U[due[i]].tolist(),
                       "time": istep * h, "residual": worst}
    return worst, witness, {"samples": int(on_set.sum()), "left": len(left),
                            "first_left": left[0] if left else None}


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
        lifted = blowup.LiftedSaddle.of(spec4, profile)
        charts, U = batch
        rates = lifted.chart_rates[charts]
        F = lifted.field(charts, rates, U)
        for m in range(len(U)):
            one = slice(m, m + 1)
            assert (lifted.field(charts[one], rates[one], U[one]) == F[one]).all()

    def test_flat_profile_is_its_constant(self, spec4, batch):
        # rho0 + 0.0 * |x| is rho0, so the constant skips the blow-down and the
        # norm without moving a bit
        charts, U = batch
        flat = BumpProfile.flat(0.5)
        table = blowup._chart_rate_matrix(spec4.rates)
        rates = table[charts]
        F = blowup.LiftedSaddle(table, flat).field(charts, rates, U)
        lifted = blowup.LiftedSaddle.of(spec4, flat)
        assert lifted.rho == 0.5
        assert lifted.field(charts, rates, U).tobytes() == F.tobytes()


class TestLiftedFlow:
    def test_exceptional_invariance(self, spec2, profile):
        p = BlowupPoint(chart=0, u=np.array([[0.0, 0.4]]))
        q = blowup.lifted_slow_flow(spec2, profile, p, 2.0)
        assert q.radial()[0] == 0.0

    def test_chart_closed_form_unperturbed(self, spec2):
        # chart of the contracting axis: radial rate -1, affine rate +2
        flat = BumpProfile.flat(1.0)
        p = BlowupPoint(chart=0, u=np.array([[0.01, 0.2]]))
        q = blowup.lifted_slow_flow(spec2, flat, p, 0.5)
        assert q.u[0, 0] == pytest.approx(0.01 * math.exp(-0.5), rel=1e-10)
        assert q.u[0, 1] == pytest.approx(0.2 * math.exp(1.0), rel=1e-10)

    def test_commutation_with_chart_switch(self, spec2, profile):
        p = BlowupPoint(chart=0, u=np.array([[0.02, 0.9]]))
        q = blowup.lifted_slow_flow(spec2, profile, p, 1.2)
        x = saddle.flow_slow(spec2, profile, blowup.blowdown(p), 1.2)
        assert q.chart[0] == 1  # the expanding affine coordinate took over
        assert np.linalg.norm(blowup.blowdown(q) - x) < 1e-10

    def test_commutation_campaign(self, spec4, profile):
        worst, witness, exceptional = blowup.commutation_campaign(spec4, profile, n=200, seed=1)
        assert worst < 1e-7
        assert witness["residual"] == worst
        assert exceptional["samples"] > 0
        assert (exceptional["left"], exceptional["first_left"]) == (0, None)

    @pytest.mark.parametrize("k", [4, 8])
    def test_commutation_campaign_matches_lockstep_oracle(self, k):
        # samples stop at their maturity; the worst residual, its witness and
        # the exceptional samples are those of running every sample to t = 1
        spec = SaddleSpec(rates=(-1.0,) * (k // 2) + (1.0,) * (k // 2))
        prof = BumpProfile(delta=0.2, rho0=0.5)
        out = blowup.commutation_campaign(spec, prof, n=300, seed=k, step=0.01)
        assert out == _lockstep_commutation(spec, prof, 300, k, 0.01)

    def test_commutation_escape_matches_lockstep_oracle(self, spec4):
        # at three times the unslowed speed samples leave the disk before they
        # mature, two of them at the first escape step: the campaign names that
        # time and the outer of the two as stepping every sample in lockstep does
        fast = BumpProfile.flat(3.0)
        with pytest.raises(saddle.DomainEscape) as oracle:
            _lockstep_commutation(spec4, fast, 200, 3, 0.01)
        with pytest.raises(saddle.DomainEscape) as err:
            blowup.commutation_campaign(spec4, fast, n=200, seed=3, step=0.01)
        assert 0.0 < oracle.value.time < 1.0
        assert err.value.time == pytest.approx(oracle.value.time, rel=1e-15)
        assert err.value.point.tobytes() == oracle.value.point.tobytes()
        assert err.value.row == oracle.value.row  # the sample's draw index
        assert str(err.value) == str(oracle.value)

    def test_batch_matches_single_points(self, spec4, profile):
        points = _mixed_points()
        end = blowup._lifted_flow_batch(spec4, profile, points, 1.2)
        assert (end.chart != points.chart).any()
        for m in range(len(points)):
            q = blowup.lifted_slow_flow(spec4, profile, points[m:m + 1], 1.2)
            assert q.chart[0] == end.chart[m]
            assert (q.u[0] == end.u[m]).all()

    def test_batched_switch_equals_per_row_switch(self, spec4, profile):
        points = _mixed_points()
        end = blowup._lifted_flow_batch(spec4, profile, points, 1.2)
        charts, U = _per_row_switching_flow(spec4, profile, points, 1.2)
        assert (charts != points.chart).any()
        assert (end.chart == charts).all()
        assert end.u.tobytes() == U.tobytes()

    def test_pass_stops_an_escaping_row(self, spec2):
        # the row on the expanding axis reaches the unit sphere near t = log 2
        # and stays where it was then; the other rows equal their own pass
        lifted = blowup.LiftedSaddle.of(spec2, BumpProfile.flat(1.0))
        points = BlowupPoint([1, 0, 1], np.array([[0.0, 0.5], [0.02, 0.3], [0.0, 0.01]]))
        end, escapes, counters = blowup._lifted_pass(lifted, points, 0.01, 200)
        [(time, x, row)] = escapes
        assert row == 0 and np.linalg.norm(x) >= 1.0 and time == pytest.approx(0.7)
        steps = round(time / 0.01)
        assert counters["row_steps"] == 3 * 200 - (200 - steps)
        alone, *_ = blowup._lifted_pass(lifted, points[:1], 0.01, steps)
        assert end.chart[0] == alone.chart[0] and end.u[0].tobytes() == alone.u[0].tobytes()
        rest, *_ = blowup._lifted_pass(lifted, points[1:], 0.01, 200)
        assert (end.chart[1:] == rest.chart).all() and end.u[1:].tobytes() == rest.u.tobytes()

    @pytest.mark.parametrize("flat", [False, True])
    def test_pass_equals_stepping_with_rates_gathered_per_stage(self, spec4, profile, flat):
        # the pass gathers each row's chart rates once for a step's four stages
        # and again after a switch; `rk4_step` on the field, which gathers them
        # in every stage, gives the same rows bit for bit, for mixed charts,
        # switches and per-row step counts
        lifted = blowup.LiftedSaddle.of(spec4, BumpProfile.flat(0.7) if flat else profile)
        points = _mixed_points()
        counts = np.array([0, 120, 7, 120, 60, 1, 0, 33, 119, 45, 90, 120])
        end, _, counters = blowup._lifted_pass(lifted, points, 0.01, counts)
        charts, U = points.chart.copy(), points.u.copy()
        for i in range(counts.max()):
            live = counts > i
            c, u = charts[live], U[live]
            _step_and_switch(lifted, c, u, 0.01)
            charts[live], U[live] = c, u
        assert counters["chart_switches"] > 0 and len(set(points.chart)) == 4
        assert (end.chart == charts).all() and end.u.tobytes() == U.tobytes()

    @pytest.mark.parametrize("flat", [False, True])
    def test_per_row_counts_equal_lone_passes(self, spec4, profile, flat):
        # each row takes its own count of steps, and ends where its lone pass of
        # that count ends, bit for bit, with the bump profile or the constant
        # rho0 of a flat one (rows of other rates and rho0: the chart-schedule
        # oracle tests in test_cones.py)
        lifted = blowup.LiftedSaddle.of(spec4, BumpProfile.flat(0.7) if flat else profile)
        points = _mixed_points()
        counts = np.array([0, 120, 7, 120, 60, 1, 0, 33, 119, 45, 90, 120])
        end, escapes, counters = blowup._lifted_pass(lifted, points, 0.01, counts)
        assert escapes == [] and (end.chart != points.chart).any()
        assert counters["row_steps"] == counts.sum()
        assert counters["rk4_iterations"] == counts.max()
        for m, count in enumerate(counts):
            alone, *_ = blowup._lifted_pass(lifted, points[m:m + 1], 0.01, int(count))
            assert end.chart[m] == alone.chart[0]
            assert end.u[m].tobytes() == alone.u[0].tobytes()
        still = counts == 0
        assert (end.chart[still] == points.chart[still]).all()
        assert end.u[still].tobytes() == points.u[still].tobytes()

    def test_atlas_escape(self, spec2):
        flat = BumpProfile.flat(1.0)
        p = BlowupPoint(chart=1, u=np.array([[0.0, 0.5]]))
        with pytest.raises(saddle.DomainEscape):
            blowup.lifted_slow_flow(spec2, flat, p, 2.0)

    def test_variational_against_fd(self, spec2, profile):
        # the orbit stays inside |x| < delta, where rho == rho0 and the
        # closed form holds
        p = BlowupPoint(chart=0, u=np.array([[0.05, 0.3]]))
        q = blowup.lifted_slow_flow(spec2, profile, p, 1.0)
        J = blowup.core_tangent_maps(spec2, profile.rho0, p, q.chart, 1.0)[0]
        eps = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            qa = blowup.lifted_slow_flow(spec2, profile, BlowupPoint(0, p.u + e), 1.0)
            qb = blowup.lifted_slow_flow(spec2, profile, BlowupPoint(0, p.u - e), 1.0)
            col = (qa.u - qb.u)[0] / (2 * eps)
            assert J[:, i] == pytest.approx(col, rel=1e-5, abs=1e-7)

    def test_core_tangent_maps_match_central_differences(self, spec4):
        # one RK4 call on every mixed point and its +-eps neighbours; the
        # closed form reads each map into the chart the flow ends in.  At
        # rho == 0.5 the rows need t = 2.4 to switch charts.
        flat = BumpProfile.flat(0.5)
        points = _mixed_points()
        eps = 1e-6
        shifted = (points.u[:, None, None, :]
                   + np.array([1.0, -1.0])[:, None, None] * eps * np.eye(4)).reshape(-1, 4)
        start = BlowupPoint(np.concatenate([points.chart, np.repeat(points.chart, 8)]),
                            np.vstack([points.u, shifted]))
        end = blowup._lifted_flow_batch(spec4, flat, start, 2.4, step=1e-3)
        all_charts, U = end.chart, end.u
        n = len(points)
        charts = all_charts[:n]
        assert (charts != points.chart).any()
        J = blowup.core_tangent_maps(spec4, 0.5, points, charts, 2.4)
        ends = U[n:].reshape(n, 2, 4, 4)
        assert (all_charts[n:].reshape(n, 8) == charts[:, None]).all()
        for m in range(n):
            fd = (ends[m, 0] - ends[m, 1]).T / (2 * eps)
            assert np.abs(J[m] - fd).max() < 1e-6 * np.abs(fd).max()


class TestDensities:
    def test_pullback_value(self):
        p = BlowupPoint(chart=1, u=np.array([[0.5, 0.1, 0.2]]))
        assert blowup.pullback_volume_density(p)[0] == pytest.approx(0.01)

    def test_pullback_vanishes_on_exceptional(self):
        p = BlowupPoint(chart=0, u=np.array([[0.0, 0.3, 0.3]]))
        assert blowup.pullback_volume_density(p)[0] == 0.0

    def test_pullback_matches_jacobian(self):
        # the blow-down Jacobian by dual numbers, from the chart formula
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            u = rng.uniform(-0.9, 0.9, size=k)
            i = int(rng.integers(0, k))
            p = BlowupPoint(chart=i, u=u[None])
            phi = [lambda w, m=m: w[m] * w[i] if m != i else w[i] for m in range(k)]
            J = [[dualnum.partial(f, list(u), j) for j in range(k)] for f in phi]
            assert abs(np.linalg.det(np.array(J)) - blowup.pullback_volume_density(p)[0]) < 1e-8

    def test_kl_density_cancellation(self):
        kl = KLStructure(k=2, alpha=-0.5)
        p = BlowupPoint(chart=0, u=np.array([[0.3, 0.0], [-0.3, 0.0]]))
        assert blowup.kl_density(kl, p) == pytest.approx([0.5, -0.5])

    def test_alpha_zero_reduces_to_pullback(self):
        kl = KLStructure(k=3, alpha=0.0)
        p = BlowupPoint(chart=0, u=np.array([[0.4, 0.2, -0.1]]))
        assert blowup.kl_density(kl, p)[0] == pytest.approx(
            blowup.pullback_volume_density(p)[0])

    def test_kl_density_matches_chart_jacobian(self):
        rng = np.random.default_rng(1)
        kl = KLStructure.volume_nondegenerate(3)
        for _ in range(20):
            u = rng.uniform(-0.9, 0.9, size=3)
            if abs(u[0]) < 0.05:
                u[0] = 0.2
            p = BlowupPoint(chart=0, u=u[None])
            eps = 1e-6
            J = np.zeros((3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = eps
                J[:, i] = (blowup.kl_chart_map(kl, BlowupPoint(0, p.u + e))
                           - blowup.kl_chart_map(kl, BlowupPoint(0, p.u - e)))[0] / (2 * eps)
            assert abs(np.linalg.det(J) - blowup.kl_density(kl, p)[0]) < 1e-6

    def test_box_infimum(self):
        for k in (2, 3, 4):
            kl = KLStructure.volume_nondegenerate(k)
            corner = BlowupPoint(chart=0, u=np.ones((1, k)))
            expected = (1.0 / k) * k ** (-(k - 1) / 2.0)
            assert abs(blowup.kl_density(kl, corner)[0]) == pytest.approx(expected)


class TestNewNorm:
    def test_values(self):
        kl = KLStructure(k=2, alpha=-0.5)
        values = blowup.new_norm(kl, [[1.0, 0.0], [0.04, 0.0]])
        assert values[0] == 1.0 and values[1] == pytest.approx(0.2)

    def test_monotone(self):
        kl = KLStructure(k=4, alpha=-0.75)
        x = np.zeros((50, 4))
        x[:, 0] = np.linspace(0.01, 1.0, 50)
        assert (np.diff(blowup.new_norm(kl, x)) > 0).all()

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            KLStructure(k=2, alpha=-1.0)
        with pytest.raises(ValueError):
            KLStructure(k=2, alpha=0.5)


class TestPowerAtlas:
    def test_rate_division_by_k(self, spec2):
        kl = KLStructure(k=2, alpha=-0.5)
        out = blowup.kl_rate_check(spec2, kl, 0.5)
        assert out["expected_upper"] == pytest.approx(math.exp(0.25))
        assert out["per_time_upper"] <= out["expected_upper"] * (1 + 1e-12)
        assert out["per_time_lower"] >= out["expected_lower"] * (1 - 1e-12)

    def test_log_slope_regression(self, spec2):
        kl = KLStructure(k=2, alpha=-0.5)
        out = blowup.kl_rate_check(spec2, kl, 0.5)
        assert out["unstable_log_slope"] == pytest.approx(out["expected_slope"], rel=1e-9)

    def test_alpha_zero_recovers_plain_rates(self, spec2):
        kl = KLStructure(k=2, alpha=0.0)
        out = blowup.kl_rate_check(spec2, kl, 0.5)
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


def _reduced_config():
    """The reduced criterion-10 config at step 0.01 and seed 2."""
    return CampaignConfig(samples=64, crossing_entries=40, cone_orbits=8,
                          delta_sweep=[0.1, 0.01], moser_steps=40, step=0.01, seed=2)


def _lifted_oracle(cfg):
    return next(c for c in suites.run_blowup_suite(cfg)["checks"]
                if c["name"] == "lifted-tangent-oracle")


def test_blowup_suite_makes_no_half_step_lifted_pass(monkeypatch):
    # besides the commutation campaign's, the suite's one lifted pass is the
    # tangent-oracle batch at the configured step: the oracle's end point is
    # compared with the exact flat-core orbit, not with a rerun
    batch, flow, steps, lone = blowup._lifted_flow_batch, blowup.lifted_slow_flow, [], []

    def counted_batch(spec, profile, points, t, step=saddle.DEFAULT_STEP, **kwargs):
        steps.append(step)
        return batch(spec, profile, points, t, step=step, **kwargs)

    def counted_lone(*args, **kwargs):
        lone.append(args)
        return flow(*args, **kwargs)

    monkeypatch.setattr(blowup, "_lifted_flow_batch", counted_batch)
    monkeypatch.setattr(blowup, "lifted_slow_flow", counted_lone)
    cfg = _reduced_config()
    assert suites.run_blowup_suite(cfg)["passed"]
    assert lone == [] and steps == [cfg.step]


def test_lifted_tangent_oracle_fails_a_scaled_lifted_field(monkeypatch):
    # a control for `lifted-tangent-oracle`: the lifted field scaled by
    # 1 + 1e-6 moves its finite differences by about 1e-6, under their 1e-5
    # bound, and step halving cannot see it, since both runs share it; the
    # exact orbit of the flat core does
    cfg = _reduced_config()
    spec, flat = cfg.saddle_spec(), BumpProfile.flat(cfg.resolved_rho0())
    p0 = BlowupPoint(0, np.array([[0.05, 0.3, 0.3, 0.3]]))  # the oracle's start point
    field = blowup.LiftedSaddle.field
    monkeypatch.setattr(blowup.LiftedSaddle, "field", lambda self, charts, rates, u:
                        (1.0 + 1e-6) * field(self, charts, rates, u))
    check = _lifted_oracle(cfg)
    ends = [blowup.lifted_slow_flow(spec, flat, p0, 1.0, step=h) for h in (cfg.step, cfg.step / 2)]
    halving = np.linalg.norm(blowup.blowdown(ends[0]) - blowup.blowdown(ends[1]))
    tol = cfg.tolerances
    assert check["measured"]["fd_relative_error"] < tol["jacobian_fd"]
    assert halving < tol["richardson"] < check["measured"]["richardson"]
    assert not check["passed"]


_BLOWUP_CHECKS = ["chart-round-trips", "blow-down-commutation", "exceptional-invariance",
                  "density-identities", "density-nondegeneracy", "chart-independence",
                  "power-atlas-rates", "power-atlas-smoothness", "lifted-tangent-oracle"]


def test_escaping_lifted_rows_fail_only_their_checks(monkeypatch):
    # a lifted field 40 times too fast takes commutation samples and the
    # tangent oracle's rows out of the disk: those two checks, and
    # exceptional-invariance, which reads the commutation pass, fail with a
    # domain-escape witness, and every other check still reports and passes;
    # the counters still hold the campaign's clock
    cfg = _reduced_config()
    field = blowup.LiftedSaddle.field
    monkeypatch.setattr(blowup.LiftedSaddle, "field",
                        lambda self, charts, rates, u: 40.0 * field(self, charts, rates, u))
    out = suites.run_blowup_suite(cfg)
    checks = {c["name"]: c for c in out["checks"]}
    assert list(checks) == _BLOWUP_CHECKS
    failed = [name for name, c in checks.items() if not c["passed"]]
    assert failed == ["blow-down-commutation", "exceptional-invariance", "lifted-tangent-oracle"]
    assert set(out["counters"]) == {"rk4_iterations", "row_steps", "chart_switches",
                                    "clock_rows", "clock_newton_iterations"}
    for name in failed:
        witness = checks[name]["witness"]
        assert witness["type"] == "domain-escape" and 0.0 < witness["time"] <= 1.0
        assert np.linalg.norm(witness["point"]) >= 1.0 and isinstance(witness["row"], int)
    assert checks["blow-down-commutation"]["measured"] == {"max_residual": "inf"}
    # the witness is the campaign's DomainEscape, its row the sample's draw index
    with pytest.raises(saddle.DomainEscape) as err:
        blowup.commutation_campaign(cfg.saddle_spec(), cfg.bump_profile(), n=cfg.samples,
                                    seed=cfg.seed, step=cfg.step)
    for name in ("blow-down-commutation", "exceptional-invariance"):
        witness = checks[name]["witness"]
        assert (witness["row"], witness["time"]) == (err.value.row, err.value.time)
        assert witness["point"] == err.value.point.tolist()


def test_exceptional_invariance_fails_a_drift_off_the_set(monkeypatch):
    # a control for `exceptional-invariance`: a drift of 1e-12 in du_c/dt
    # moves every commutation sample that starts on the exceptional set off
    # it, which the check names, while the blow-downs move by far less than
    # the 1e-7 bound of blow-down-commutation
    cfg = _reduced_config()
    field = blowup.LiftedSaddle.field

    def drifting(self, charts, rates, u):
        du = field(self, charts, rates, u)
        du[np.arange(len(u)), charts] += 1e-12
        return du

    monkeypatch.setattr(blowup.LiftedSaddle, "field", drifting)
    checks = {c["name"]: c for c in suites.run_blowup_suite(cfg)["checks"]}
    check = checks["exceptional-invariance"]
    assert not check["passed"] and checks["blow-down-commutation"]["passed"]
    assert checks["blow-down-commutation"]["measured"]["max_residual"] < cfg.tolerances["commutation"]
    witness = check["witness"]
    assert 0 < witness["left"] == witness["samples"]
    _, _, oracle = _lockstep_commutation(cfg.saddle_spec(), cfg.bump_profile(), cfg.samples,
                                         cfg.seed, cfg.step)
    assert witness == suites._plain(oracle)
    first = witness["first_left"]
    assert first["u"][first["chart"]] != 0.0 and 0.0 < first["time"] <= 1.0


def test_exceptional_invariance_never_lacks_a_sample():
    # at seed 1 the draw puts no commutation sample on the exceptional set at
    # samples 1, 2 and 4; sample 0 is put there, without a further draw, so
    # the check reads one sample and does not fail for a count of 0
    cfg = replace(_reduced_config(), seed=1)
    for n in range(1, 17):
        draw = np.random.default_rng(1)  # the campaign's draws up to the exceptional set
        draw.integers(0, cfg.k, size=n), draw.uniform(-1.0, 1.0, size=(n, cfg.k))
        draw.uniform(-1.0, 1.0, size=n)
        drawn = int((draw.random(n) < 0.25).sum())
        checks = {c["name"]: c for c in suites.run_blowup_suite(replace(cfg, samples=n))["checks"]}
        assert checks["exceptional-invariance"]["passed"], n
        _, _, exceptional = blowup.commutation_campaign(cfg.saddle_spec(), cfg.bump_profile(),
                                                        n=n, seed=1, step=cfg.step)
        assert exceptional == {"samples": max(drawn, 1), "left": 0, "first_left": None}
        assert (drawn == 0) == (n in (1, 2, 4))


def test_commutation_fails_without_a_sample_off_the_set():
    # at samples 1 the one commutation sample is put on the exceptional set,
    # where both sides blow down to the origin: no disk orbit is compared, so
    # blow-down-commutation fails, alone, with the count of samples off the
    # set in its witness, and its residual reads 0
    for seed in (0, 1, 2):
        cfg = replace(_reduced_config(), samples=1, seed=seed)
        checks = {c["name"]: c for c in suites.run_blowup_suite(cfg)["checks"]}
        check = checks["blow-down-commutation"]
        assert [name for name, c in checks.items() if not c["passed"]] == [check["name"]]
        assert check["witness"]["samples_off_the_set"] == 0
        assert check["measured"]["max_residual"] == 0.0


def test_blowup_counters_count_every_lifted_pass():
    # the commutation campaign's lifted pass steps every sample to its maturity,
    # at most 100 steps, and its clock solves one row per sample; the other
    # lifted pass is lifted-tangent-oracle (2k + 1 rows, t = 1)
    cfg = _reduced_config()
    report = cli.build_report(cfg, ("blowup",))
    counters = report["timing"]["counters"]["blowup"]
    assert set(counters) == {"rk4_iterations", "row_steps", "chart_switches",
                             "clock_rows", "clock_newton_iterations"}
    campaign = {}
    blowup.commutation_campaign(cfg.saddle_spec(), cfg.bump_profile(), n=cfg.samples,
                                seed=cfg.seed, step=cfg.step, counters=campaign)
    assert counters["rk4_iterations"] - campaign["rk4_iterations"] == 100
    assert counters["row_steps"] - campaign["row_steps"] == (2 * cfg.k + 1) * 100
    assert 0 < campaign["rk4_iterations"] <= 100 and counters["chart_switches"] > 0
    assert counters["clock_rows"] == campaign["clock_rows"] == cfg.samples
    assert counters["clock_newton_iterations"] == campaign["clock_newton_iterations"]
    assert 0 < counters["clock_newton_iterations"] <= saddle._CLOCK_ITERATIONS
    assert "counters" not in report["suites"]["blowup"]
    assert "chart_switches" not in cli.canonical_json(cli.strip_timing(report))
