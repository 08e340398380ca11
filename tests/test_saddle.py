import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phsurgery import cones, saddle, suites
from phsurgery.config import DEFAULT_TOLERANCES, CampaignConfig
from phsurgery.saddle import (AnosovModel, BumpProfile, DomainEscape, InfeasibleRates,
                              SaddleSpec)


def _scalar_bisection(spec, profile, x0, h, target, tol=1e-10):
    """Crossing time of one orbit x0 by scalar bisection: the oracle for the batched locator."""
    f = lambda _, z: saddle._field(spec, profile, z)
    radius = lambda tau: np.linalg.norm(saddle.rk4_step(f, 0.0, x0[None], tau))
    lo, hi = 0.0, h
    sign_hi = radius(h) - target
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        if (radius(mid) - target) * sign_hi > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def spec2():
    return SaddleSpec(rates=(-1.0, 1.0))


@pytest.fixture(scope="module")
def spec4():
    return SaddleSpec(rates=(-1.0, -1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def profile():
    return BumpProfile(delta=0.1, rho0=0.5)


@pytest.fixture(scope="module")
def sixty(spec4, profile):
    """A seeded 60-row entry batch that covers all three crossing classes."""
    return saddle.sample_entries(spec4, profile.delta, 60, np.random.default_rng(21))


@pytest.fixture(scope="module")
def rk4_sixty(spec4, profile, sixty):
    """RK4 transits of `sixty` at a given step, each step integrated once per module."""
    done = {}

    def at(step):
        if step not in done:
            done[step] = saddle._transit_batch(spec4, profile, sixty, step=step)
        return done[step]

    return at


class TestSpecs:
    def test_derived_bounds(self, spec4):
        assert spec4.lam_prime == pytest.approx(math.exp(-1))
        assert spec4.mu_prime == pytest.approx(math.exp(1))

    def test_rejects_degenerate(self):
        with pytest.raises(InfeasibleRates):
            SaddleSpec(rates=(1.0, 2.0))
        with pytest.raises(InfeasibleRates):
            SaddleSpec(rates=(-1.0,))

    def test_anosov_invariants(self):
        m = AnosovModel(stable_rates=(-2.0,), unstable_rates=(2.0,),
                        lam=math.exp(-2), mu=math.exp(2))
        assert m.dims == (1, 1, 1)
        assert m.rates == (-2.0, 0.0, 2.0)
        with pytest.raises(InfeasibleRates):
            AnosovModel(stable_rates=(-1.0,), unstable_rates=(2.0,),
                        lam=math.exp(-2), mu=math.exp(2))


class TestBump:
    def test_plateau_values(self, profile):
        assert profile([0.05, 0.0]) == 0.5
        assert profile([0.3, 0.0]) == 1.0

    def test_midpoint_value(self, profile):
        # transition is symmetric, so the midpoint sits halfway up
        assert profile([0.15, 0.0]) == pytest.approx(0.75)

    def test_monotone_across_annulus(self, profile):
        s = np.linspace(0.10001, 0.19999, 500)
        v = profile.value(s)
        assert (np.diff(v) >= 0).all()

    def test_slope_bound_construction(self):
        with pytest.raises(ValueError):
            BumpProfile(delta=0.1, rho0=0.2)  # (1-rho0) sup|S'| >= 1

    def test_slope_matches_dual_derivative(self, profile):
        from phsurgery.dualnum import Dual
        for s0 in (0.11, 0.13, 0.15, 0.18, 0.199):
            exact = profile.value(Dual(s0, 1.0)).du
            assert profile.slope(s0) == pytest.approx(exact, rel=1e-12)

    def test_transition_equals_clipped_formula(self):
        # oracle: clip into (0, 1), evaluate, then overwrite the flat ends
        r = np.concatenate([np.linspace(-0.5, 1.5, 100001), [0.0, 1.0, 1e-13, 1 - 1e-13]])
        m = saddle._TRANSITION_SHARPNESS
        ri = np.clip(r, 1e-12, 1 - 1e-12)
        with np.errstate(under="ignore"):
            a, b = np.exp(-m / ri), np.exp(-m / (1.0 - ri))
        old = np.where((r > 0.0) & (r < 1.0), a / (a + b), np.where(r >= 1.0, 1.0, 0.0))
        assert np.array_equal(saddle._transition(r), old)
        assert [saddle._transition(float(x)) for x in r[-4:]] == old[-4:].tolist()

    @pytest.mark.parametrize("prof", [BumpProfile(delta=0.1, rho0=0.5),
                                      BumpProfile(delta=0.03, rho0=0.77),
                                      BumpProfile.flat(0.4)], ids=["bump", "narrow", "flat"])
    def test_value_and_slope_equal_value_and_the_closed_form_slope(self, prof):
        # both flat ends, r within 1e-12 of 0 and of 1, and the transition;
        # the slope oracle is the clipped closed form on its own pair of exps
        d, m = prof.delta, saddle._TRANSITION_SHARPNESS
        r = np.concatenate([np.linspace(-0.5, 1.5, 20001),
                            [0.0, 1.0, 1e-13, 5e-13, 1e-12, 2e-12, 1 - 1e-13, 1 - 5e-13,
                             1 - 1e-12, 1 - 2e-12, -1e-13, 1 + 1e-13]])
        s = d + d * r
        val, slope = prof.value_and_slope(s)
        assert val.tobytes() == prof.value(s).tobytes() == prof.array_value(s).tobytes()
        rs = (s - d) / d
        ri = np.clip(rs, 1e-12, 1 - 1e-12)
        with np.errstate(under="ignore"):
            a, b = np.exp(-m / ri), np.exp(-m / (1.0 - ri))
            old = (a * m / ri**2 * b + a * (b * m / (1.0 - ri) ** 2)) / (a + b) ** 2
        old = np.where((rs <= 0.0) | (rs >= 1.0), 0.0, old)
        expected = np.zeros_like(s) if prof.constant else (1.0 - prof.rho0) / d * old
        assert slope.tobytes() == expected.tobytes()
        assert prof.slope(s).tobytes() == slope.tobytes()
        for i in range(len(s) - 12, len(s)):
            v, sl = prof.value_and_slope(float(s[i]))
            assert (v, sl) == (prof.value(float(s[i])), slope[i]) == (val[i], slope[i])
            assert prof.array_value(float(s[i])) == v

    def test_dual_columns_equal_scalar_duals(self, profile):
        from phsurgery.dualnum import Dual

        def parts(d):
            return parts(d.re) + parts(d.du) if isinstance(d, Dual) else [d]

        # below delta, at delta, inside, at 2 delta, beyond
        s = np.array([0.03, 0.1, 0.1 + 1e-13, 0.13, 0.15, 0.199, 0.2, 0.31])
        seeds = [lambda t: Dual(t, 1.0), lambda t: Dual(Dual(t, 1.0), Dual(1.0, 0.0))]
        for seed in seeds:
            columns = parts(profile.value(seed(s)))
            for k, sk in enumerate(s):
                scalars = parts(profile.value(seed(sk)))
                assert [np.broadcast_to(c, s.shape)[k] for c in columns] == scalars
        flat = parts(profile.value(seeds[1](np.array([0.03, 0.31]))))
        assert (flat[0] == [0.5, 1.0]).all() and not np.any(flat[1:])

    @settings(max_examples=30, derandomize=True)
    @given(st.floats(min_value=0.36, max_value=0.99))
    def test_slope_bound_for_feasible_rho0(self, rho0):
        prof = BumpProfile(delta=0.05, rho0=rho0)
        s = np.linspace(0.05, 0.1, 1000)
        assert (np.abs(prof.slope(s)) < 1.0 / 0.05).all()


class TestPickRho0:
    def test_symmetric_example_plain(self):
        rho0 = saddle.pick_rho0(math.exp(-2), math.exp(2), math.exp(-1), math.exp(1))
        assert rho0 == pytest.approx(0.5)
        assert saddle.domination_holds(rho0, math.exp(-2), math.exp(2),
                                       math.exp(-1), math.exp(1))

    def test_neutral_saddle_always_feasible(self):
        rho0 = saddle.pick_rho0(0.5, 2.0, 1.0, 1.0)
        assert rho0 == pytest.approx(0.5)
        for r in (0.01, 0.5, 0.99):
            assert saddle.domination_holds(r, 0.5, 2.0, 1.0, 1.0)

    def test_volume_mode_against_grid_oracle(self):
        lam, mu = math.exp(-2), math.exp(2)
        lamp, mup = math.exp(-1), math.exp(1)
        rho0 = saddle.pick_rho0(lam, mu, lamp, mup, k=4, volume_mode=True)
        grid = np.arange(0.01, 1.0, 0.01)
        feasible = [r for r in grid
                    if (lamp / mup) ** r > max(lam, 1 / mu)
                    and lam < lamp ** (r / 4) and mup ** (r / 4) < mu]
        assert feasible
        assert min(feasible) <= rho0 <= max(feasible)

    def test_infeasible_named(self):
        with pytest.raises(InfeasibleRates, match="lam'"):
            saddle.pick_rho0(0.5, 2.0, 0.4, 1.0)
        with pytest.raises(InfeasibleRates, match="mu'"):
            saddle.pick_rho0(0.5, 2.0, 1.0, 2.5)
        with pytest.raises(InfeasibleRates, match="lam < 1 < mu"):
            saddle.pick_rho0(1.5, 2.0, 1.0, 1.0)


class TestFlow:
    def test_linear_closed_form(self, spec2):
        flat = BumpProfile.flat(1.0)
        y = saddle.flow_slow(spec2, flat, np.array([[1e-2, 1e-3]]), 1.0)[0]
        assert y == pytest.approx([math.exp(-1) * 1e-2, math.exp(1) * 1e-3], rel=1e-9)

    def test_core_product_form(self, spec2, profile):
        x = np.array([[0.02, 0.01]])
        y = saddle.flow_slow(spec2, profile, x, 0.5)
        exact = np.exp(0.5 * 0.5 * np.array([-1.0, 1.0])) * x
        assert y == pytest.approx(exact, rel=1e-12)

    def test_escape_reported(self, spec2):
        flat = BumpProfile.flat(1.0)
        with pytest.raises(DomainEscape) as err:
            saddle.flow_slow(spec2, flat, np.array([[0.0, 0.5]]), 2.0)
        assert err.value.time > 0

    def test_richardson_annulus_crossing(self, spec4, profile):
        x = np.zeros((1, 4))
        x[0, 2] = 0.09
        x[0, 0] = 0.03
        half = saddle.flow_slow(spec4, profile, x, 1.5, step=saddle.DEFAULT_STEP / 2)
        assert np.linalg.norm(saddle.flow_slow(spec4, profile, x, 1.5) - half) < 1e-8

    def test_batch_matches_single_points(self, spec4, profile):
        x = np.random.default_rng(8).uniform(-0.3, 0.3, size=(12, 4))
        batch = saddle.flow_slow(spec4, profile, x, 0.7)
        single = np.vstack([saddle.flow_slow(spec4, profile, x[m:m + 1], 0.7)
                            for m in range(len(x))])
        assert (batch == single).all()

    def test_batch_escape_names_the_row(self, spec2):
        flat = BumpProfile.flat(1.0)
        x = np.array([[0.01, 0.01], [0.0, 0.5], [0.02, 0.0]])
        with pytest.raises(DomainEscape) as err:
            saddle.flow_slow(spec2, flat, x, 2.0)
        assert err.value.time == pytest.approx(math.log(2.0), abs=1e-3)
        assert err.value.point[0] == 0.0 and np.linalg.norm(err.value.point) >= 1.0

    def test_negative_time(self, spec2, profile):
        x = np.array([[0.03, 0.02]])
        y = saddle.flow_slow(spec2, profile, x, 0.4)
        back = saddle.flow_slow(spec2, profile, y, -0.4)
        assert back == pytest.approx(x, abs=1e-12)


class TestRk4Step:
    @pytest.mark.parametrize("lam,h", [(-1.3, 0.1), (0.7, 0.25), (2.0, -0.05)])
    def test_linear_growth_factor(self, lam, h):
        z = lam * h
        factor = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        f = lambda _, y: lam * y
        assert saddle.rk4_step(f, 0.0, 0.8, h) == pytest.approx(0.8 * factor, rel=1e-14)
        y0 = np.array([[0.3, -1.1], [2.0, 0.0]])
        assert saddle.rk4_step(f, 0.0, y0, h) == pytest.approx(y0 * factor, rel=1e-14)

    def test_stage_times(self):
        # Simpson weights: a cubic right-hand side in t integrates exactly
        y = saddle.rk4_step(lambda t, _: 3.0 * t**2, 1.0, 0.0, 0.5)
        assert y == pytest.approx(1.5**3 - 1.0, rel=1e-15)


class TestVariational:
    def test_identity_at_zero_time(self, spec2, profile):
        _, (J,) = saddle.variational_flow_slow(spec2, profile, np.array([[0.05, 0.01]]), 0.0)
        assert J == pytest.approx(np.eye(2))

    def test_constant_rho_diagonal(self, spec2):
        flat = BumpProfile.flat(0.5)
        _, (J,) = saddle.variational_flow_slow(spec2, flat, np.array([[1e-3, 1e-3]]), 2.0)
        assert J == pytest.approx(np.diag(np.exp(0.5 * 2.0 * np.array([-1.0, 1.0]))),
                                  rel=1e-10)

    def test_batch_rows_match_single_points(self, spec4, profile):
        x = np.random.default_rng(9).uniform(-0.15, 0.15, size=(5, 4))
        points, J = saddle.variational_flow_slow(spec4, profile, x, 0.8, step=0.01)
        assert points.shape == (5, 4) and J.shape == (5, 4, 4)
        for m, (p, Jm) in enumerate(zip(points, J)):
            (p1,), (J1,) = saddle.variational_flow_slow(spec4, profile, x[m:m + 1], 0.8, step=0.01)
            assert (p == p1).all() and (Jm == J1).all()

    def test_per_row_times_match_single_points(self, spec4, profile):
        # one pass over rows of their own times, zero and negative included;
        # an escape names its row and time, as a lone call's
        x = np.random.default_rng(10).uniform(-0.15, 0.15, size=(4, 4))
        times = [0.8, 0.3, 0.0, -0.5]
        points, J = saddle.variational_flow_slow(spec4, profile, x, times, step=0.01)
        for m, (t, p, Jm) in enumerate(zip(times, points, J)):
            p1, J1 = saddle.variational_flow_slow(spec4, profile, x[m:m + 1], t, step=0.01)
            assert p.tobytes() == p1.tobytes() and Jm.tobytes() == J1.tobytes()
        far = np.array([[0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.5]])
        with pytest.raises(DomainEscape) as err:
            saddle.variational_flow_slow(spec4, BumpProfile.flat(1.0), far, [0.1, 2.0])
        with pytest.raises(DomainEscape) as lone:
            saddle.variational_flow_slow(spec4, BumpProfile.flat(1.0), far[1:], 2.0)
        assert (err.value.row, err.value.time) == (1, lone.value.time)

    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("flat", [False, True], ids=["bump", "flat"])
    def test_points_equal_flow_slow(self, k, flat):
        # the saddle suite's `richardson` reads these points in place of a
        # flow_slow call at the same step; a one-row call gives its row
        spec = SaddleSpec(rates=(-1.0,) * (k // 2) + (1.0,) * (k // 2))
        prof = BumpProfile.flat(0.5) if flat else BumpProfile(delta=0.1, rho0=0.5)
        x = np.random.default_rng(k).uniform(-0.05, 0.05, size=(6, k))
        points, _ = saddle.variational_flow_slow(spec, prof, x, 1.0, step=0.01)
        assert points.tobytes() == saddle.flow_slow(spec, prof, x, 1.0, step=0.01).tobytes()
        point, _ = saddle.variational_flow_slow(spec, prof, x[:1], 1.0, step=0.01)
        assert point.tobytes() == points[:1].tobytes()

    def test_matches_finite_differences(self, spec4, profile):
        rng = np.random.default_rng(3)
        x = np.empty((5, 4))
        for row in x:
            row[:] = rng.standard_normal(4)
            row *= rng.uniform(0.05, 0.25) / np.linalg.norm(row)
        _, J = saddle.variational_flow_slow(spec4, profile, x, 1.0)
        eps = 1e-6
        # central-difference neighbours x +- eps e_i, (probe, sign, i) in row order
        shifts = np.stack([np.eye(4), -np.eye(4)]) * eps
        ends = saddle.flow_slow(spec4, profile, (x[:, None, None, :] + shifts).reshape(-1, 4), 1.0)
        ends = ends.reshape(5, 2, 4, 4)
        Jfd = (ends[:, 0] - ends[:, 1]).transpose(0, 2, 1) / (2 * eps)
        for Jm, Jfdm in zip(J, Jfd):
            assert np.linalg.norm(Jm - Jfdm) / np.linalg.norm(Jfdm) < 1e-5
            assert np.linalg.det(Jm) > 0


def _per_step_transits(spec, profile, entries, step):
    """RK4 transits that bisect each crossing step as it is taken, one call per step.

    The oracle of the deferred crossing bisection of `saddle._rk4_rows`.
    """
    n, k = entries.shape
    delta = profile.delta
    state = np.hstack([entries, np.tile(np.eye(k).ravel(), (n, 1))])
    t, alive, exit_sphere = np.zeros(n), np.ones(n, dtype=bool), np.full(n, "trapped")
    f = lambda _, y: saddle._tangent_field(spec, profile, y)
    for _ in range(saddle._transit_steps(spec, profile.rho0, step)):
        idx = np.flatnonzero(alive)
        if not len(idx):
            break
        sn = saddle.rk4_step(f, 0.0, state[idx], step)
        rn = np.linalg.norm(sn[:, :k], axis=1)
        out_hi = rn >= 2 * delta
        crossed = out_hi | (rn <= delta)
        if crossed.any():
            rows, hi = idx[crossed], out_hi[crossed]
            tau = saddle._bisect_crossing(spec, profile, state[rows, :k], step,
                                          np.where(hi, 2 * delta, delta))
            state[rows] = saddle.rk4_step(f, 0.0, state[rows], tau[:, None])
            t[rows] += tau
            exit_sphere[rows] = np.where(hi, "outer", "inner")
            alive[rows] = False
        state[idx[~crossed]] = sn[~crossed]
        t[idx[~crossed]] += step
    return state, t, exit_sphere


class TestTangentField:
    @pytest.mark.parametrize("k", [4, 8])
    def test_rank_one_product_equals_the_jacobian_oracle(self, k):
        # D(rho X) J as a rank-one update against the full Jacobian times J:
        # within 1e-14 on the shell; off it (the origin included) and on a flat
        # profile equal bit for bit but for the sign of a zero entry, which no
        # RK4 stage sum can see; the x columns are `_field`'s bit for bit
        spec = SaddleSpec(rates=(-1.0,) * (k // 2) + (1.0,) * (k // 2))
        rng = np.random.default_rng(k)
        radii = np.concatenate([[0.0, 0.1, 0.2], rng.uniform(0.0, 0.1, 19),
                                rng.uniform(0.1, 0.2, 20), rng.uniform(0.2, 0.95, 20)])
        dirs = rng.standard_normal((len(radii), k))
        x = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii[:, None]
        J = rng.standard_normal((len(radii), k, k))
        J[:, 0, 1] = 0.0
        y = np.hstack([x, J.reshape(len(radii), -1)])
        for prof in (BumpProfile(delta=0.1, rho0=0.5), BumpProfile.flat(0.5)):
            out = saddle._tangent_field(spec, prof, y)
            assert out[:, :k].tobytes() == saddle._field(spec, prof, x).tobytes()
            DJ = out[:, k:].reshape(-1, k, k)
            oracle = saddle._field_and_jacobian(spec, prof, x)[1] @ J
            shell = prof.slope(np.linalg.norm(x, axis=1)) != 0.0
            assert shell.sum() == (0 if prof.constant else 20)
            assert np.array_equal(DJ[~shell], oracle[~shell])
            err = np.linalg.norm(DJ - oracle, axis=(1, 2)) / np.linalg.norm(oracle, axis=(1, 2))
            assert err.max() < 1e-14


class TestRowDriver:
    def test_rows_equal_their_one_row_calls(self, spec4, sixty):
        # transits at two deltas and steps, flows at two more, one row leaving
        # the disk: each row of the stacked pass equals its one-row pass
        profile = BumpProfile(delta=0.1, rho0=0.5)
        escaping = np.array([[0.0, 0.0, 0.9, 0.1], [0.05, 0.02, 0.1, 0.0]])
        blocks = [(sixty[:8], 0.1, 0.01, 300, True),
                  (sixty[8:14] * 0.5, 0.05, 0.02, 60, True),
                  (np.random.default_rng(3).uniform(-0.3, 0.3, (4, 4)), 0.07, 0.005, 90, False),
                  (escaping, 0.1, 0.01, 120, False)]
        stacked, counters = saddle._rk4_rows(spec4, profile, blocks)
        for (x, *rest), out in zip(blocks, stacked):
            for i in range(len(x)):
                [one], _ = saddle._rk4_rows(spec4, profile, [(x[i:i + 1], *rest)])
                assert all(a[i:i + 1].tobytes() == b.tobytes() for a, b in zip(out, one))
        stops = np.concatenate([out[3] for out in stacked])
        assert {"outer", "inner", "trapped", "escape"} <= set(stops)
        assert stacked[3][3].tolist() == ["escape", "trapped"]
        assert np.linalg.norm(stacked[3][0][0]) >= 1.0
        # one bisection for every crossing of the pass: its sign step, then the
        # 28 halvings that take the widest bracket, 0.02, below 1e-10
        assert counters["bisection_steps"] == 1 + math.ceil(math.log2(0.02 / 1e-10)) == 29
        assert counters["rk4_iterations"] == 1 + max(
            int(np.ceil(t / h - 1e-9)) for (_, _, h, _, _), out in zip(blocks, stacked)
            for t in out[2])

    def test_per_row_counts_escape_and_trap(self, spec4, sixty):
        # one step count per row in two blocks, next to a block of transits: a
        # row with count 0 keeps its point and identity map at time 0, the
        # others take their own count, and an escaping row stops while its
        # neighbour runs on to its count
        profile = BumpProfile(delta=0.1, rho0=0.5)
        escaping = np.array([[0.0, 0.0, 0.9, 0.1], [0.05, 0.02, 0.1, 0.0]])
        blocks = [(sixty[:8], 0.1, 0.01, 300, True),
                  (np.random.default_rng(3).uniform(-0.3, 0.3, (4, 4)), 0.07, 0.005,
                   np.array([0, 1, 45, 90]), False),
                  (escaping, 0.1, 0.01, np.array([120, 30]), False)]
        out, _ = saddle._rk4_rows(spec4, profile, blocks)
        x, J, t, stop = out[1]
        assert x[0].tobytes() == blocks[1][0][0].tobytes() and (J[0] == np.eye(4)).all()
        assert t.tolist() == pytest.approx([0.0, 0.005, 0.225, 0.45], abs=1e-15)
        assert stop.tolist() == ["trapped"] * 4
        assert out[2][3].tolist() == ["escape", "trapped"]
        assert np.linalg.norm(out[2][0][0]) >= 1.0 and out[2][2][1] == pytest.approx(0.3)

    @pytest.mark.parametrize("step", [1e-2, 1e-3])
    def test_deferred_bisection_equals_per_step_bisection(self, spec4, profile, sixty,
                                                          rk4_sixty, step):
        state, t, exit_sphere = _per_step_transits(spec4, profile, sixty, step)
        rep = rk4_sixty(step)
        assert rep.exit.tobytes() == state[:, :4].tobytes()
        assert rep.jacobian.tobytes() == state[:, 4:].reshape(-1, 4, 4).tobytes()
        assert rep.time.tobytes() == t.tobytes()
        assert rep.exit_sphere.tolist() == exit_sphere.tolist()

    def test_one_bisection_call_per_pass(self, spec4, profile, sixty, monkeypatch):
        calls = []
        real = saddle._bisect_crossing
        monkeypatch.setattr(saddle, "_bisect_crossing",
                            lambda *args: calls.append(len(args[2])) or real(*args))
        rep = saddle._transit_batch(spec4, profile, sixty, step=1e-2)
        assert calls == [len(sixty)] and (rep.exit_sphere != "trapped").all()
        saddle.flow_slow(spec4, profile, sixty[:3] * 0.5, 0.5, step=1e-2)
        assert calls == [len(sixty)]  # a pass without transits bisects nothing


class TestTransit:
    def test_radial_unstable_exact_time(self, spec2):
        flat = BumpProfile.flat(0.5, delta=0.1)
        rep, = saddle._transit_batch(spec2, flat, np.array([[0.0, 0.1]]))
        assert rep.time == pytest.approx(math.log(2) / 0.5, abs=1e-6)
        assert rep.crossing_class == "inner->outer"
        assert abs(np.linalg.norm(rep.exit) - 0.2) < 1e-9

    def test_stable_axis_unperturbed(self, spec2):
        flat = BumpProfile.flat(1.0, delta=0.1)
        rep, = saddle._transit_batch(spec2, flat, np.array([[0.2, 0.0]]))
        assert rep.time == pytest.approx(math.log(2), abs=1e-6)
        assert rep.crossing_class == "outer->inner"

    def test_budget_guard(self, spec2, profile):
        entry = np.array([[0.2, 0.0]])  # stable axis: legitimate but slow
        rep, = saddle._transit_batch(spec2, profile, entry, budget=0.01)
        assert rep.exit_sphere == "trapped"

    def test_default_budget_covers_the_slowest_axis(self):
        # the unstable axis at rate 0.005 takes log 2 / (rho0 0.005) = 277 at
        # rho0 = 0.5, beyond a budget that ignored the rates
        spec = SaddleSpec(rates=(-1.5, 0.005))
        flat = BumpProfile.flat(0.5, delta=0.1)
        entries = np.array([[0.0, 0.1], [0.2, 0.0]])
        rk4 = saddle._transit_batch(spec, flat, entries, step=0.5)
        exact = saddle.time_change_transits(spec, flat, entries)
        assert (rk4.exit_sphere != "trapped").all()
        assert (rk4.crossing_class == exact.crossing_class).all()
        assert rk4.time[0] == pytest.approx(math.log(2.0) / (0.5 * 0.005), rel=1e-6)

    def test_entry_validation(self, spec2, profile):
        with pytest.raises(ValueError, match="outward"):
            saddle._transit_batch(spec2, profile, np.array([[0.1, 0.0]]))
        with pytest.raises(ValueError, match="boundary sphere"):
            saddle._transit_batch(spec2, profile, np.array([[0.15, 0.0]]))
        with pytest.raises(ValueError, match="inward"):
            saddle._transit_batch(spec2, profile, np.array([[0.0, 0.2]]))
        # a batch names its first bad row
        with pytest.raises(ValueError, match="entry 1 on the inner sphere"):
            saddle._transit_batch(spec2, profile, np.array([[0.0, 0.1], [0.1, 0.0], [0.15, 0.0]]))

    @pytest.mark.parametrize("step", [1e-2, 1e-3])
    def test_batched_crossing_matches_scalar_bisection(self, spec4, profile, rk4_sixty, step):
        # start a fraction of a step before seeded exits through both spheres
        reports = rk4_sixty(step)
        exits = np.array([r.exit for r in reports])
        x0 = saddle.flow_slow(spec4, profile, exits, -0.37 * step, step=step)
        target = np.where([r.exit_sphere == "outer" for r in reports],
                          2 * profile.delta, profile.delta)
        assert len(set(target)) == 2
        tau = saddle._bisect_crossing(spec4, profile, x0, step, target)
        for row, tau_row, target_row in zip(x0, tau, target):
            assert tau_row == _scalar_bisection(spec4, profile, row, step, target_row)
            assert 0.0 < tau_row < step

    def test_campaign_scale_invariance(self, spec4):
        stats = {}
        for delta in (0.1, 0.001):
            prof = BumpProfile(delta=delta, rho0=0.5)
            stats[delta] = saddle.transit_campaign(spec4, prof, 50, seed=11)
        a, b = stats[0.1], stats[0.001]
        assert saddle.distortions(a.jacobian) == pytest.approx(saddle.distortions(b.jacobian),
                                                               rel=1e-9)
        assert a.time.mean() == pytest.approx(b.time.mean(), rel=1e-9)
        assert a.class_counts == b.class_counts
        assert a.class_counts["inner->inner"] == 0

    def test_shear_bound_everywhere(self, spec4, profile):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = rng.uniform(0.1, 0.2)
            x = rng.standard_normal((1, 4))
            x *= r / np.linalg.norm(x)
            v = rng.standard_normal((1, 4))
            assert saddle.shear_bound_margin(spec4, profile, x, v)[0] >= -1e-12


class TestTimeChange:
    @pytest.mark.parametrize("step", [1e-2, 1e-3])
    def test_matches_rk4_transits(self, spec4, profile, sixty, rk4_sixty, step):
        exact = saddle.time_change_transits(spec4, profile, sixty)
        diff = saddle.transit_differences(exact, rk4_sixty(step), profile.delta)
        assert diff["class_mismatches"] == 0
        bound = DEFAULT_TOLERANCES["time_change_oracle"]
        assert diff["time"] < bound
        assert diff["exit_over_delta"] < bound
        assert diff["jacobian_rel"] < bound
        assert ({r.crossing_class for r in exact}
                == {"inner->outer", "outer->inner", "outer->outer"})

    def test_panel_doubling_moves_nothing(self, spec4, profile, sixty, monkeypatch):
        a = saddle.time_change_transits(spec4, profile, sixty)
        monkeypatch.setattr(saddle, "_TRANSIT_PANELS", 2 * saddle._TRANSIT_PANELS)
        b = saddle.time_change_transits(spec4, profile, sixty)
        diff = saddle.transit_differences(a, b, profile.delta)
        assert diff["class_mismatches"] == 0
        assert diff["time"] < 1e-12
        assert diff["jacobian_rel"] < 1e-12

    def test_scale_invariance(self, spec4, sixty):
        small = saddle.sample_entries(spec4, 0.001, 60, np.random.default_rng(21))
        big = saddle.time_change_transits(spec4, BumpProfile(delta=0.1, rho0=0.5), sixty)
        tiny = saddle.time_change_transits(spec4, BumpProfile(delta=0.001, rho0=0.5), small)
        for a, b in zip(big, tiny):
            assert a.crossing_class == b.crossing_class
            assert b.time == pytest.approx(a.time, rel=1e-12)
            assert np.linalg.norm(b.exit / 0.001 - a.exit / 0.1) < 1e-12
            assert np.linalg.norm(b.jacobian - a.jacobian) < 1e-12 * np.linalg.norm(a.jacobian)

    def test_rk4_transits_are_scale_free(self, spec4, profile, sixty, rk4_sixty):
        # the fact the suite's rescaling leg rests on, for the RK4 oracle too
        small = saddle.sample_entries(spec4, 0.001, 60, np.random.default_rng(21))
        tiny = saddle._transit_batch(spec4, BumpProfile(delta=0.001, rho0=0.5), small,
                                     step=1e-2)
        for a, b in zip(rk4_sixty(1e-2), tiny):
            assert a.crossing_class == b.crossing_class
            assert b.time == pytest.approx(a.time, rel=1e-12)
            assert np.linalg.norm(b.exit / 0.001 - a.exit / profile.delta) < 1e-12
            assert np.linalg.norm(b.jacobian - a.jacobian) < 1e-12 * np.linalg.norm(a.jacobian)

    def test_axis_closed_forms(self):
        # distinct rates; with rho == rho0 the axis orbit is r = r0 exp(rho0 |rate| t)
        spec = SaddleSpec(rates=(-2.0, -0.5, 1.0, 3.0))
        flat = BumpProfile.flat(0.5, delta=0.1)
        axes = saddle.sample_entries(spec, 0.1, 2, np.random.default_rng(0))[:4]
        for rep, rate in zip(saddle.time_change_transits(spec, flat, axes), spec.rates):
            assert rep.crossing_class == ("inner->outer" if rate > 0 else "outer->inner")
            assert abs(rep.time - math.log(2) / (0.5 * abs(rate))) < 1e-12
            expected = np.diag(np.exp(0.5 * np.asarray(spec.rates) * rep.time))
            assert np.abs(rep.jacobian - expected).max() < 1e-12

    def test_grazing_entry(self, spec2, profile):
        # an outer entry whose radial minimum 2|x1 x2| is delta * sqrt(1 - 1e-9)
        d2, m2 = 4 * profile.delta**2, profile.delta**2 * (1 - 1e-9)
        plus, minus = math.sqrt(d2 + m2), math.sqrt(d2 - m2)
        entry = np.array([[(plus + minus) / 2, (plus - minus) / 2]])
        rep = saddle.time_change_transits(spec2, profile, entry)[0]
        assert rep.crossing_class == "outer->inner"
        assert np.linalg.norm(rep.exit) == pytest.approx(profile.delta, rel=1e-12)
        # the RK4 endpoint test does not see the dip below delta within one step
        rk4 = saddle._transit_batch(spec2, profile, entry, step=1e-2)[0]
        assert rk4.crossing_class == "outer->outer"


@pytest.mark.parametrize("k", [4, 8])
def test_panel_radii_match_the_summed_squares(k):
    # `_panels` contracts the k axis with einsum; its radii agree with the
    # summed squares to rounding, though the order of the sum may differ
    rng = np.random.default_rng(3)
    x2 = rng.standard_normal((254, k)) ** 2 * 0.01
    a = np.repeat([-1.0, 1.0], k // 2)
    sigma = rng.uniform(0.1, 4.0, size=254)
    for _, e2, r in saddle._panels(x2, a, sigma):
        summed = np.sqrt((x2[:, None, :] * e2).sum(axis=2))
        assert (np.abs(r - summed) <= 1e-14 * summed).all()


class TestSlowedClock:
    @pytest.fixture(scope="class")
    def shell_rows(self, spec4):
        """40 seeded points at radii 0.05-0.25 and times in (0, 1]: most cross the shell."""
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((40, 4))
        x0 *= rng.uniform(0.05, 0.25, size=(40, 1)) / np.linalg.norm(x0, axis=1, keepdims=True)
        return x0, rng.integers(1, 5, size=40) * 0.25

    def test_rk4_error_falls_like_h4(self, spec4, profile, shell_rows):
        x0, t = shell_rows
        counters = {}
        exact = saddle.slowed_clock(spec4, profile, x0, t, counters)
        assert counters["clock_rows"] == 40 and 1 < counters["clock_newton_iterations"] < 20
        errors = []
        for h in (1e-2, 5e-3, 2.5e-3):
            [(x, *_)], _ = saddle._rk4_rows(spec4, profile, [
                (x0, profile.delta, h, np.round(t / h).astype(int), False)])
            errors.append(float(np.abs(x - exact).max()))
        assert errors[0] < 1e-9
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 < coarse / fine < 20.0  # 2^4 = 16

    def test_lands_on_the_exit_point_at_the_transit_time(self, spec4, profile, sixty):
        transits = saddle.time_change_transits(spec4, profile, sixty)
        x = saddle.slowed_clock(spec4, profile, transits.entry, transits.time)
        assert np.abs(x - transits.exit).max() < 1e-12 * profile.delta

    def test_origin_and_rows_off_the_shell(self, spec4, profile):
        # the origin stays there; a core orbit runs at rho0 and a far one at 1
        a = np.asarray(spec4.rates)
        core = np.array([[0.02, -0.01, 0.01, 0.005], [0.0, 0.0, 0.03, 0.0]])  # |x(t)| < delta
        far = np.array([[0.6, -0.5, 0.1, 0.0], [0.0, 0.0, 0.3, -0.3]])  # |x(t)| > 2 delta
        x0 = np.vstack([np.zeros((2, 4)), core, far])
        t = np.array([0.7, 0.0, 0.9, 0.5, 0.4, 0.8])
        x = saddle.slowed_clock(spec4, profile, x0, t)
        assert (x[:2] == 0.0).all()
        assert np.abs(x[2:4] - core * np.exp(profile.rho0 * t[2:4, None] * a)).max() < 1e-16
        assert np.abs(x[4:] - far * np.exp(t[4:, None] * a)).max() < 1e-15
        assert saddle._radius(x[2:4]).max() < profile.delta < 2 * profile.delta
        assert saddle._radius(x[4:]).min() > 2 * profile.delta

    def test_bisects_a_newton_cycle(self, spec4):
        # the orbit starts outside 2 delta and ends in the core; from sigma = t
        # (rho = 1 at the start) plain Newton jumps between 3 and 0.027 for
        # ever; the bracket catches it, and the point is the root's to rounding
        slow = BumpProfile(delta=0.1, rho0=0.37)
        a = np.asarray(spec4.rates)
        x0, t = np.array([[0.12, -0.2, 0.013, 0.0045]]), np.array([3.0])
        time = lambda s: saddle._clock_time(x0 * x0, a, s, slow) - t
        radius = lambda s: saddle._radius(x0 * np.exp(a * s))
        first = t - time(t) * slow(x0 * np.exp(a * t))
        assert first == pytest.approx(0.027, abs=1e-3)
        assert first - time(first) * slow(x0 * np.exp(a * first)) == pytest.approx(t, rel=1e-9)
        root = saddle._bisect_root(time, np.array([0.37 * 3.0]), t)
        x = saddle.slowed_clock(spec4, slow, x0, t)
        assert np.abs(x - x0 * np.exp(a * root)).max() < 1e-15
        assert radius(0.0) > 2 * slow.delta > slow.delta > radius(root)

    def test_rows_equal_one_row_calls(self, spec4, profile, shell_rows):
        x0, t = shell_rows
        x = saddle.slowed_clock(spec4, profile, x0, t)
        for m in range(len(x0)):
            assert _bits(saddle.slowed_clock(spec4, profile, x0[m:m + 1], t[m])) == _bits(x[m])

    def test_quadrature_rule_is_built_once(self, spec4, profile, sixty, monkeypatch):
        def fail(n):
            raise AssertionError("leggauss called at run time")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", fail)
        transits = saddle.time_change_transits(spec4, profile, sixty)
        saddle.slowed_clock(spec4, profile, sixty, transits.time)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestTransitPointOrBatch:
    """A TransitReport batch: each row equals its one-row call bit for bit."""

    @pytest.fixture(params=["exact", "rk4"])
    def kernel(self, request, spec4, profile):
        if request.param == "exact":
            return lambda entries: saddle.time_change_transits(spec4, profile, entries)
        # a short budget leaves the slow rows trapped, so every class shows up
        return lambda entries: saddle._transit_batch(spec4, profile, entries, step=1e-2,
                                                     budget=1.5)

    def test_rows_equal_one_row_calls(self, kernel, sixty):
        batch = kernel(sixty)
        assert len(batch) == len(sixty) == batch.time.shape[0]
        for m in range(len(batch)):
            one, = kernel(sixty[m:m + 1])
            row = batch[m]
            for name in ("entry", "exit", "time", "jacobian"):
                assert _bits(getattr(one, name)) == _bits(getattr(row, name)), (m, name)
            assert (one.entry_sphere, one.exit_sphere) == (row.entry_sphere, row.exit_sphere)
            assert one.crossing_class == row.crossing_class == batch.crossing_class[m]
            assert isinstance(row.crossing_class, str)

    def test_indexing_and_iteration(self, kernel, sixty):
        batch = kernel(sixty)
        classes = batch.crossing_class
        assert classes.shape == (len(sixty),)
        assert len(batch[3:9]) == 6 and list(batch[3:9].crossing_class) == list(classes[3:9])
        mask = classes == classes[5]
        assert len(batch[mask]) == mask.sum() and set(batch[mask].crossing_class) == {classes[5]}
        picked = batch[np.array([7, 2])]
        assert _bits(picked.time) == _bits(batch.time[[7, 2]])
        assert [rep.crossing_class for rep in batch] == list(classes)
        assert _bits([rep.time for rep in batch]) == _bits(batch.time)
        with pytest.raises(TypeError):
            len(batch[0])

    def test_trapped_rows(self, spec4, profile, sixty):
        batch = saddle._transit_batch(spec4, profile, sixty, step=1e-2, budget=1.5)
        trapped = batch.exit_sphere == "trapped"
        assert trapped.any() and not trapped.all()
        assert (batch.crossing_class[trapped] == "trapped").all()
        assert (batch.crossing_class[~trapped] != "trapped").all()


def test_saddle_suite_passes_at_k8():
    # every suite at perfbench's campaign-reduced config with four -1 and
    # four +1 rates
    cfg = CampaignConfig(saddle_rates=[-1.0] * 4 + [1.0] * 4, samples=64,
                         crossing_entries=40, cone_orbits=8, delta_sweep=[0.1, 0.01],
                         moser_steps=40, step=0.01)
    out = {name: run(cfg) for name, run in suites.SUITE_RUNNERS.items()}
    assert len(out) == 6
    assert [(name, c["name"]) for name, suite in out.items()
            for c in suite["checks"] if not c["passed"]] == []
    oracle = next(c for c in out["saddle"]["checks"] if c["name"] == "time-change-oracle")
    assert all(rows <= 12 for rows in oracle["measured"]["rows_by_delta"].values())
    # the volume and Moser suites verify the 4-d saddle whatever the rates
    assert len(cfg.saddle_rates) == 8
    assert out["volume"]["dimension"] == out["moser"]["dimension"] == 4


def _oracle_check(cfg):
    return next(c for c in suites.run_saddle_suite(cfg)["checks"]
                if c["name"] == "time-change-oracle")


_SMALL = dict(samples=64, step=0.01, delta_sweep=[0.1, 0.01, 0.001])


def _counted_saddle_suite(monkeypatch, cfg):
    # runs the saddle suite with every RK4 entry point of `saddle` counted
    calls = []
    for name in ("_rk4_rows", "_bisect_crossing", "_transit_batch", "flow_slow",
                 "variational_flow_slow"):
        real = getattr(saddle, name)
        monkeypatch.setattr(saddle, name, lambda *args, _real=real, _name=name, **kw:
                            calls.append((_name, args)) or _real(*args, **kw))
    checks = {c["name"]: c for c in suites.run_saddle_suite(cfg)["checks"]}
    # one `_rk4_rows` call holds every RK4 row of the suite, its crossings are
    # bisected in one call, and no thin RK4 entry point runs
    assert [name for name, _ in calls] == ["_rk4_rows", "_bisect_crossing"]
    return calls[0][1][2], checks


def test_saddle_suite_runs_rk4_transits_once(monkeypatch):
    # the oracle block, transits at the sweep's first delta and the configured
    # step, is the suite's only RK4 transit set
    cfg = CampaignConfig(**_SMALL, delta=0.05)
    (oracle, *flows), checks = _counted_saddle_suite(monkeypatch, cfg)
    budget = math.ceil(10 * math.log(2.0) / (cfg.resolved_rho0() * 1.0) / cfg.step)
    assert oracle[1:] == (0.1, 0.01, budget, True)
    assert not any(transit for *_, transit in flows)
    check = checks["time-change-oracle"]
    assert check["passed"]
    assert check["measured"]["rows_by_delta"] == {"0.1": len(oracle[0])}
    assert check["measured"]["max_rescaling_error"] < 1e-9


def _probes(cfg):
    """The saddle suite's three probes of `tangent-map-oracle` and `richardson`."""
    e_u = np.zeros(cfg.k)
    e_u[int(np.argmax(cfg.saddle_spec().rates))] = cfg.delta
    return np.array([np.resize([0.12, 0.05, -0.04, 0.02], cfg.k),
                     np.resize([0.05, -0.15, 0.11, -0.03], cfg.k), e_u * 1.2])


def _richardson(cfg):
    return next(c for c in suites.run_saddle_suite(cfg)["checks"] if c["name"] == "richardson")


def test_saddle_suite_runs_flow_slow_twice(monkeypatch):
    # the slow flow runs as two blocks of the one stacked pass, at the
    # configured delta and step: the 3 probes and their 6k central-difference
    # neighbours; no block reruns the probes at half the step, since
    # `richardson` reads the exact slowed clock
    cfg = CampaignConfig(**_SMALL, delta=0.05)
    blocks, checks = _counted_saddle_suite(monkeypatch, cfg)
    assert len(blocks) == 3
    _, probes, neighbours = blocks
    assert probes[1:] == neighbours[1:] == (0.05, 0.01, 100, False)
    assert (len(probes[0]), len(neighbours[0])) == (3, 6 * cfg.k)
    assert all(block[2] == cfg.step for block in blocks)
    assert checks["richardson"]["passed"] and checks["tangent-map-oracle"]["passed"]


def test_no_probe_block_outlasts_the_oracle_transits(monkeypatch):
    # at step 0.01 (saddle-default sizes, seed 2) the stacked pass lasts as
    # long as its slowest oracle transit: its steps up to and including the
    # crossing step, then the one step to the bisected crossing time
    cfg = CampaignConfig(samples=250, step=0.01, seed=2)
    real, passes = saddle._rk4_rows, []
    monkeypatch.setattr(saddle, "_rk4_rows", lambda *args: passes.append(real(*args)) or passes[-1])
    counters = suites.run_saddle_suite(cfg)["counters"]
    [([(_, _, t_oracle, stop), *_], _)] = passes
    assert set(stop) <= {"inner", "outer"}
    longest = int(np.ceil(t_oracle / cfg.step).max())
    assert counters["rk4_iterations"] == longest + 1
    assert longest > saddle._fixed_steps(1.0, cfg.step)[0]


def test_saddle_report_with_delta_off_the_sweep_equals_the_reference():
    # the probes run at delta 0.05 and the oracle rows at 0.1 in the one pass;
    # the values equal those of one RK4 call per row set and of the exact
    # slowed clock (recorded from the stacked pass, and recomputed here from
    # the thin calls)
    cfg = CampaignConfig(samples=64, step=0.01, delta=0.05, delta_sweep=[0.1, 0.01])
    checks = {c["name"]: c for c in suites.run_saddle_suite(cfg)["checks"]}
    assert checks["tangent-map-oracle"]["measured"] == {"max_relative_error": 5.529497525463891e-10}
    assert checks["richardson"]["measured"] == {"max_residual": 1.3294898515425757e-10}
    assert checks["time-change-oracle"]["measured"] == {
        "max_time_error": 2.338854443451055e-09, "max_exit_error_over_delta": 8.993192701315644e-11,
        "max_jacobian_rel_error": 7.611299432138014e-10, "class_mismatches": 0,
        "rows_by_delta": {"0.1": 8}, "max_rescaling_error": 5.489961307248299e-16}
    spec, profile, probes = cfg.saddle_spec(), cfg.bump_profile(), _probes(cfg)
    ends, J = saddle.variational_flow_slow(spec, profile, probes, 1.0, step=cfg.step)
    Jfd = suites._central_jacobians(
        lambda x: saddle.flow_slow(spec, profile, x, 1.0, step=cfg.step), probes)
    assert max(np.linalg.norm(a - b) / np.linalg.norm(b) for a, b in zip(J, Jfd)) == (
        checks["tangent-map-oracle"]["measured"]["max_relative_error"])
    exact = saddle.slowed_clock(spec, profile, probes, 1.0)
    assert saddle._radius(ends - exact).max() == checks["richardson"]["measured"]["max_residual"]


@pytest.mark.parametrize("rates", [[-1.0, -1.0, 1.0, 1.0], [-1.0] * 4 + [1.0] * 4],
                         ids=["k4", "k8"])
def test_richardson_equals_clock_residual(rates):
    cfg = CampaignConfig(**_SMALL, saddle_rates=rates)
    spec, profile, probes = cfg.saddle_spec(), cfg.bump_profile(), _probes(cfg)
    ends = saddle.flow_slow(spec, profile, probes, 1.0, step=cfg.step)
    exact = saddle.slowed_clock(spec, profile, probes, 1.0)
    assert _richardson(cfg)["measured"]["max_residual"] == float(saddle._radius(ends - exact).max())


def test_richardson_fails_a_scaled_tangent_field(monkeypatch):
    # a control for `richardson`: the slowed field scaled by 1 + 1e-6 moves
    # the probes' RK4 end points by about 3e-7, which the exact clock sees;
    # step halving cannot see it, since both of its runs share the field
    cfg = CampaignConfig(**_SMALL)
    spec, profile, probes = cfg.saddle_spec(), cfg.bump_profile(), _probes(cfg)
    field = saddle._tangent_field
    monkeypatch.setattr(saddle, "_tangent_field",
                        lambda spec, profile, y: (1.0 + 1e-6) * field(spec, profile, y))
    check = _richardson(cfg)
    a, b = (saddle.flow_slow(spec, profile, probes, 1.0, step=h) for h in (cfg.step, cfg.step / 2))
    halving = float(saddle._radius(a - b).max())
    assert halving < cfg.tolerances["richardson"] < check["measured"]["max_residual"]
    assert not check["passed"]


def test_transit_closed_forms_fail_when_axis_times_are_off(monkeypatch):
    # the exact kernel's axis transit times, scaled by 1 + 1e-5, miss log 2 / (rho0 rate)
    cfg = CampaignConfig(**_SMALL)
    closed_forms = lambda: next(c for c in suites.run_saddle_suite(cfg)["checks"]
                                if c["name"] == "transit-closed-forms")
    assert closed_forms()["passed"]
    real = saddle.time_change_transits

    def skewed(spec, profile, entries, **kw):
        rep = real(spec, profile, entries, **kw)
        axis = (entries != 0).sum(axis=1) == 1
        return replace(rep, time=np.where(axis, rep.time * (1 + 1e-5), rep.time))

    monkeypatch.setattr(saddle, "time_change_transits", skewed)
    check = closed_forms()
    assert not check["passed"]
    measured = check["measured"]
    assert abs(measured["radial_unstable_T"] - measured["expected_u"]) > 1e-6
    assert abs(measured["stable_axis_T"] - measured["expected_s"]) > 1e-6


def test_time_change_oracle_fails_when_a_delta_is_not_rescaled(monkeypatch):
    # at delta = 0.01 the exact kernel runs the oracle rows at another rho0,
    # so its transits are not the delta = 0.1 transits rescaled
    real = saddle.time_change_transits

    def skewed(spec, profile, entries, **kw):
        rep = real(spec, profile, entries, **kw)
        at = np.broadcast_to(profile.delta, len(entries)) == 0.01
        if at.any():
            other = real(spec, BumpProfile(delta=0.01, rho0=0.9 * profile.rho0), entries[at], **kw)
            for name in ("exit", "time", "exit_sphere", "jacobian"):
                getattr(rep, name)[at] = getattr(other, name)
        return rep

    monkeypatch.setattr(saddle, "time_change_transits", skewed)
    check = _oracle_check(CampaignConfig(**_SMALL))
    assert not check["passed"]
    assert check["measured"]["max_rescaling_error"] > 1e-9
    rescaling = check["witness"]["rescaling"]
    assert rescaling["0.01"]["time"] > 1e-9
    assert rescaling["0.001"]["time"] < 1e-9
    # the RK4 leg at the first delta is untouched
    assert check["measured"]["max_time_error"] < DEFAULT_TOLERANCES["time_change_oracle"]


def _count_calls(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends (name, profile, rows) per call."""
    real = getattr(module, name)

    def counted(spec, profile, *args, **kw):
        rows = len(args[0]) if name == "time_change_transits" else None
        calls.append((name, profile, rows))
        return real(spec, profile, *args, **kw)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("suite", ["saddle", "cones"])
def test_one_shell_campaign_per_suite(monkeypatch, suite):
    # at a 3-delta sweep the campaign runs at the first delta only; the later
    # deltas run the exact kernel on the oracle rows, at most 12 per delta
    calls = []
    for module, name in ((saddle, "transit_campaign"), (cones, "crossing_cone_campaign"),
                         (saddle, "time_change_transits")):
        _count_calls(monkeypatch, module, name, calls)
    cfg = CampaignConfig(**_SMALL, crossing_entries=40, cone_orbits=8)
    out = suites.SUITE_RUNNERS[suite](cfg)
    assert all(c["passed"] for c in out["checks"])
    campaigns = [(name, p.delta) for name, p, _ in calls if name != "time_change_transits"]
    if suite == "saddle":
        assert campaigns == [("transit_campaign", 0.1)]
    else:
        assert campaigns == [("crossing_cone_campaign", 0.1), ("transit_campaign", 0.1)]
    shells = [(p.delta, rows) for name, p, rows in calls
              if name == "time_change_transits" and not p.constant]
    # the campaign's call, then one call for the later deltas, one delta per row
    assert len(shells) == 2 and shells[0][0] == 0.1
    later, rows = shells[1]
    assert 2 <= rows <= 24 and later.tolist() == [0.01] * (rows // 2) + [0.001] * (rows // 2)


class _FixedWidthShell(BumpProfile):
    """A bump rising over (delta, delta + 0.05): a width not proportional to delta."""

    def value(self, s):
        if self.constant:
            return super().value(s)
        return self.rho0 + (1.0 - self.rho0) * saddle._transition((s - self.delta) / 0.05)

    def value_and_slope(self, s):
        if self.constant:
            return super().value_and_slope(s)
        # the profile of width 0.05, shifted from 0.05 to delta
        return BumpProfile(0.05, self.rho0).value_and_slope(np.asarray(s) - self.delta + 0.05)

    def array_value(self, s):
        return self.value_and_slope(s)[0]


def test_shell_not_proportional_to_delta_fails_the_rescaling_leg(monkeypatch):
    # x -> c x no longer maps the shell dynamics at delta onto those at c delta
    monkeypatch.setattr(saddle, "BumpProfile", _FixedWidthShell)
    cfg = CampaignConfig(**_SMALL, crossing_entries=40, cone_orbits=8)
    checks = {c["name"]: c for c in suites.run_saddle_suite(cfg)["checks"]}
    oracle = checks["time-change-oracle"]
    assert not oracle["passed"]
    assert oracle["measured"]["max_rescaling_error"] > 1e-9
    # the spreads across delta are measured on the rescaled rows, not assumed:
    # here they exceed their bounds (about 3.0 and 5.4 against 2)
    distortion = checks["distortion-uniformity"]
    assert not distortion["passed"]
    assert distortion["measured"]["ratio"] > DEFAULT_TOLERANCES["distortion_ratio"]
    cross = next(c for c in suites.run_cones_suite(cfg)["checks"]
                 if c["name"] == "crossing-cone-stability")
    assert not cross["passed"]
    assert cross["measured"]["ratio"] > DEFAULT_TOLERANCES["cone_ratio"]


def test_thinnest_oracle_margin():
    # saddle-default, seed 8: a shallow outer->inner row leaves RK4 a time error
    # of about 4.2e-8 against the 1e-7 bound
    check = _oracle_check(CampaignConfig(samples=250, step=0.01, seed=8))
    assert check["passed"]
    assert check["measured"]["max_time_error"] == pytest.approx(4.175e-8, rel=1e-3)
    assert check["measured"]["max_time_error"] < DEFAULT_TOLERANCES["time_change_oracle"]


def test_oracle_rows_of_the_seeded_campaign():
    # the 254-row campaign at 250 samples and seed 42: the first two non-axis
    # rows of each crossing class present, as np.unique over the classes picked
    cfg = CampaignConfig(samples=250)
    spec, rho0, d0 = cfg.saddle_spec(), cfg.resolved_rho0(), cfg.delta_sweep[0]
    ref = saddle.transit_campaign(spec, BumpProfile(delta=d0, rho0=rho0), cfg.samples, cfg.seed)
    cls = ref.crossing_class[spec.k:]
    picked = np.concatenate([spec.k + np.flatnonzero(cls == c)[:2] for c in np.unique(cls)])
    rows = np.sort(np.concatenate([picked, np.arange(min(spec.k, 12 - len(picked)))]))
    assert len(ref) == 254 and rows.tolist() == [0, 1, 2, 3, 4, 5, 129, 130, 168, 187]
    oracle = suites._oracle_rows(spec, rho0, ref, [d0])[d0]
    assert np.array_equal(oracle.entry, ref.entry[rows])
