import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from phsurgery import forms
from phsurgery.forms import (DegreeError, Form, MoserMap, PathDegenerate, d, interior,
                             lie, lie_cartan, wedge)
from phsurgery.dualnum import Dual, dsqrt, partial, value
from phsurgery.saddle import BumpProfile


@pytest.fixture(scope="module")
def probes():
    rng = np.random.default_rng(9)
    return rng.uniform(-0.4, 0.4, size=(100, 4))


@pytest.fixture(scope="module")
def X():
    return forms.saddle_field()


class TestCalculus:
    def test_d_of_constant_one_form_vanishes(self, probes):
        dx1 = Form(4, 1, {(0,): lambda x: 1.0})
        assert forms.form_max_at(d(dx1), probes) == 0.0

    def test_interior_of_two_form(self):
        e1 = [lambda x: 1.0] + [lambda x: 0.0] * 3
        w12 = Form(4, 2, {(0, 1): lambda x: 1.0})
        out = interior(e1, w12)
        assert out.evaluate([0.0] * 4) == {(0,): 0.0, (1,): 1.0}

    def test_divergence_free_volume_invariance(self, probes, X):
        vol = Form.volume(4)
        assert forms.form_max_at(lie(X, vol), probes) == 0.0

    def test_d_squared_and_cartan_and_leibniz(self, probes):
        rng = np.random.default_rng(4)
        worst_dd, worst_cartan, worst_leibniz = 0.0, 0.0, 0.0
        from phsurgery.suites import _form_identity_probes
        worst_dd, worst_cartan, worst_leibniz = _form_identity_probes(rng, probes[:30])
        assert worst_dd < 1e-10
        assert worst_cartan < 1e-10
        assert worst_leibniz < 1e-10

    def test_wedge_anticommutes(self, probes):
        a = Form(4, 1, {(0,): lambda x: x[1], (2,): lambda x: x[3] ** 2})
        b = Form(4, 1, {(1,): lambda x: x[0] * x[2]})
        ab = wedge(a, b)
        ba = wedge(b, a)
        flip = ba.scale(-1.0)
        assert forms.form_max_at(ab - flip, probes) < 1e-14

    def test_degree_overflow_raises(self):
        top = Form.volume(4)
        with pytest.raises(DegreeError):
            d(top)
        with pytest.raises(DegreeError):
            wedge(top, Form(4, 1, {(0,): lambda x: 1.0}))
        with pytest.raises(DegreeError):
            interior([lambda x: 1.0] * 4, Form.from_scalar(4, lambda x: 1.0))

    def test_dimension_cap(self):
        with pytest.raises(DegreeError):
            Form.volume(7)
        assert Form.volume(6).degree == 6

    def test_invariant_product_generators_exact(self, X):
        rng = np.random.default_rng(12)
        for g in forms.invariant_products():
            for x in rng.uniform(-1, 1, size=(20, 4)):
                xb = [float(c) for c in x]
                xg = sum(X[i](xb) * partial(g, xb, i) for i in range(4))
                assert xg == 0.0  # exact: the rates cancel termwise


def _chained(f, g):
    return lambda x: f(x) + g(x)


def _chained_add(a, b):
    """Form addition as written before `_summed`: set order, one closure per repeat."""
    out = {}
    for idx in set(a.coeffs) | set(b.coeffs):
        fa, fb = a.coeffs.get(idx), b.coeffs.get(idx)
        out[idx] = fb if fa is None else fa if fb is None else _chained(fa, fb)
    return Form(a.dim, a.degree, out)


def _chained_d(form):
    terms = {}
    for idx, f in form.coeffs.items():
        for j in range(form.dim):
            ins = forms._insert_index(j, idx)
            if ins is not None:
                terms.setdefault(ins[0], []).append((ins[1], j, f))

    def make(termlist):
        def coeff(x):
            total = 0.0
            for sign, j, f in termlist:
                total = total + sign * partial(f, x, j)
            return total

        return coeff

    return Form(form.dim, form.degree + 1, {idx: make(t) for idx, t in terms.items()})


def _chained_wedge(a, b):
    out = {}
    for ia, fa in a.coeffs.items():
        for ib, fb in b.coeffs.items():
            if set(ia) & set(ib):
                continue
            merged = tuple(sorted(ia + ib))
            prod = (lambda f, g, s: lambda x: s * f(x) * g(x))(fa, fb, forms._merge_sign(ia, ib))
            out[merged] = _chained(out[merged], prod) if merged in out else prod
    return Form(a.dim, a.degree + b.degree, out)


def _chained_interior(X, form):
    out = {}
    for idx, f in form.coeffs.items():
        for pos, j in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            term = (lambda f, Xj, s: lambda x: s * Xj(x) * f(x))(f, X[j], (-1) ** pos)
            out[rest] = _chained(out[rest], term) if rest in out else term
    return Form(form.dim, form.degree - 1, out)


def _chained_lie(X, form):
    n = form.dim
    out = {}

    def add(idx, fn):
        out[idx] = _chained(out[idx], fn) if idx in out else fn

    for idx, f in form.coeffs.items():
        def xf(x, f=f):
            total = 0.0
            for j in range(n):
                total = total + X[j](x) * partial(f, x, j)
            return total

        add(idx, xf)
        for pos, im in enumerate(idx):
            for j in range(n):
                if j == im:
                    add(idx, (lambda f, Xm, j: lambda x: f(x) * partial(Xm, x, j))(f, X[im], j))
                    continue
                if j in idx:
                    continue
                ins = forms._insert_index(j, idx[:pos] + idx[pos + 1:])
                if ins is None:
                    continue
                add(ins[0], (lambda f, Xm, j, s: lambda x: s * f(x) * partial(Xm, x, j))
                    (f, X[im], j, (-1) ** pos * ins[1]))
    return Form(n, form.degree, out)


def _random_polynomial(rng, dim):
    """Three monomials c * x0^p0 ... x_{dim-1}^p_{dim-1}, powers in {0, 1, 2}."""
    monomials = [(float(rng.normal()), [int(p) for p in rng.integers(0, 3, dim)])
                 for _ in range(3)]

    def f(x):
        total = 0.0
        for c, powers in monomials:
            term = c
            for xi, p in zip(x, powers):
                if p:
                    term = term * xi ** p
            total = total + term
        return total

    return f


def _random_form(rng, dim, degree):
    idxs = [idx for idx in combinations(range(dim), degree) if rng.random() < 0.7]
    return Form(dim, degree, {idx: _random_polynomial(rng, dim) for idx in idxs})


def _same_bits(new, old, probes):
    """Same index set, and every coefficient equal bit for bit on the probe columns.

    A zero may differ in sign only: the chained d started each sum at 0.0,
    and adding 0.0 to both sides maps -0.0 to 0.0 and leaves every other
    value as it is.
    """
    assert set(new.coeffs) == set(old.coeffs)
    cols = list(probes.T)
    new_values, old_values = new.evaluate(cols), old.evaluate(cols)
    for idx in old.coeffs:
        a = np.broadcast_to(new_values[idx], len(probes)) + 0.0
        b = np.broadcast_to(old_values[idx], len(probes)) + 0.0
        assert a.tobytes() == b.tobytes(), idx


class TestSummed:
    def test_insertion_order_and_lone_term(self):
        f, g, h = (lambda x: 1.0), (lambda x: 2.0), (lambda x: 4.0)
        out = forms._summed([((2,), f), ((0,), g), ((2,), h), ((1,), h)])
        assert list(out) == [(2,), (0,), (1,)]
        assert out[(0,)] is g and out[(1,)] is h
        assert out[(2,)]([0.0]) == 5.0

    def test_sums_left_to_right(self):
        terms = [((), lambda x: 1e16), ((), lambda x: 1.0), ((), lambda x: -1e16)]
        # (1e16 + 1) rounds to 1e16, so the left-to-right sum is 0, not 1
        assert forms._summed(terms)[()](None) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_operations_match_chained_accumulation(self, seed, probes):
        rng = np.random.default_rng(seed)
        X = [_random_polynomial(rng, 4) for _ in range(4)]
        for degree in range(5):
            a, b = _random_form(rng, 4, degree), _random_form(rng, 4, degree)
            _same_bits(a + b, _chained_add(a, b), probes)
            _same_bits(lie(X, a), _chained_lie(X, a), probes)
            if degree < 4:
                _same_bits(d(a), _chained_d(a), probes)
            if degree > 0:
                _same_bits(interior(X, a), _chained_interior(X, a), probes)
                # the identity probes chain these: d of a contraction
                _same_bits(d(interior(X, a)), _chained_d(_chained_interior(X, a)), probes)
            for other in range(5 - degree):
                c = _random_form(rng, 4, other)
                _same_bits(wedge(a, c), _chained_wedge(a, c), probes)


class TestSlowedVolume:
    def test_identity_and_control(self, X):
        profile = BumpProfile(delta=0.2, rho0=0.5)

        def rho(x):
            return profile.value(dsqrt(x[0] * x[0] + x[1] * x[1]
                                       + x[2] * x[2] + x[3] * x[3]))

        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.45, 0.45, size=(300, 4))
        residual, control = forms.verify_rho_volume(rho, X, Form.volume(4), pts)
        assert residual < 1e-10
        assert control > 1e-3

    def test_constant_rho_trivial(self, X, probes):
        residual, control = forms.verify_rho_volume(lambda x: 1.0, X,
                                                    Form.volume(4), probes)
        assert residual == 0.0
        assert control == 0.0

    def test_noninvariant_volume_rejected(self, X, probes):
        bad = Form.volume(4).scale(lambda x: 1.0 + x[0])
        with pytest.raises(ValueError, match="not invariant"):
            forms.verify_rho_volume(lambda x: 1.0, X, bad, probes)


class TestPrimitive:
    def test_d_eta0_is_volume(self, probes):
        eta0 = forms.moser_eta0()
        diff = d(eta0) - Form.volume(4)
        assert forms.form_max_at(diff, probes) == 0.0

    def test_eta0_invariant(self, probes, X):
        assert forms.form_max_at(lie(X, forms.moser_eta0()), probes) == 0.0

    def test_cartan_cross_check(self, probes, X):
        eta0 = forms.moser_eta0()
        diff = lie(X, eta0) - lie_cartan(X, eta0)
        assert forms.form_max_at(diff, probes) < 1e-14


def _equal_bits(a, b):
    """a and b are equal bit for bit, signed zeros included, component by component."""
    if isinstance(a, Dual) or isinstance(b, Dual):
        assert isinstance(a, Dual) and isinstance(b, Dual)
        _equal_bits(a.re, b.re)
        _equal_bits(a.du, b.du)
    else:
        # a constant dual part of x1 picks up the node axis's trailing unit
        # axes: equal sizes, equal bits
        assert np.size(a) == np.size(b)
        a, b = np.broadcast_arrays(a, b)
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestBeta:
    def test_constant(self):
        beta = forms.moser_beta(lambda x: 3.7)
        assert beta([0.3, 0.1, 0.2, 0.4]) == pytest.approx(3.7, abs=1e-13)

    def test_linear_times_coordinate(self):
        beta = forms.moser_beta(lambda x: x[0] * x[2])
        assert beta([0.3, 0.1, 0.2, 0.4]) == pytest.approx(0.03, abs=1e-13)

    def test_removable_singularity(self):
        gamma = lambda x: 1.0 + x[0] + x[2]
        beta = forms.moser_beta(gamma)
        assert beta([0.0, 0.5, 0.25, 0.1]) == pytest.approx(1.25)

    def test_solves_radial_ode(self):
        # d/dx1 (x1 beta) = gamma, checked with dual numbers
        from phsurgery.dualnum import Dual
        gamma = lambda x: 1.0 + 0.3 * x[0] * x[2] + 0.1 * x[1] * x[3]
        beta = forms.moser_beta(gamma)
        for x1 in (0.05, 0.2, -0.3):
            x = [Dual(x1, 1.0), 0.4, -0.2, 0.3]
            out = x[0] * beta(x)
            got = out.du
            want = gamma([x1, 0.4, -0.2, 0.3])
            assert got == pytest.approx(want, rel=1e-10)

    def test_invariance_inherited(self, X):
        gens = forms.invariant_products()
        gamma = lambda x: 0.05 * (gens[0](x) + gens[3](x))
        beta = forms.moser_beta(gamma)
        rng = np.random.default_rng(6)
        for x in rng.uniform(-0.4, 0.4, size=(100, 4)):
            xb = [float(c) for c in x]
            xbeta = sum(X[i](xb) * partial(beta, xb, i) for i in range(4))
            assert abs(xbeta) < 1e-9

    def test_closed_form_for_the_suite_density(self):
        # gamma = s (x1 x3 + x2 x4) averages to s (x1 x3 / 2 + x2 x4)
        s = 0.1
        gens = forms.invariant_products()
        beta = forms.moser_beta(lambda x: s * (gens[0](x) + gens[3](x)))
        rng = np.random.default_rng(14)
        for x in rng.uniform(-0.4, 0.4, size=(50, 4)).tolist():
            want = s * (x[0] * x[2] / 2 + x[1] * x[3])
            assert abs(beta(x) - want) < 1e-15

    def test_exact_for_degree_15_in_x1(self):
        beta = forms.moser_beta(lambda x: x[0] ** 15 * x[3])
        for x1 in (0.45, -0.3, 1.0):
            assert beta([x1, 0.2, -0.1, 0.7]) == pytest.approx(x1 ** 15 / 16 * 0.7,
                                                               rel=1e-14)

    def test_agrees_with_adaptive_quadrature(self):
        # a smooth non-polynomial gamma: the 8-node rule's error is far below
        # rounding on |x1| <= 0.5, so the bound is a few ulps of beta
        from scipy.integrate import quad
        gamma = lambda x: np.exp(x[0]) * x[2]
        beta = forms.moser_beta(gamma)
        rng = np.random.default_rng(15)
        for x in rng.uniform(-0.5, 0.5, size=(20, 4)).tolist():
            want, _ = quad(lambda t: gamma([t * x[0], *x[1:]]), 0.0, 1.0, epsabs=0.0,
                           epsrel=1e-13)
            assert abs(beta(x) - want) < 1e-15

    @staticmethod
    def _per_node_beta(gamma):
        """beta as one gamma call per node, summed by `sum` in node order."""
        return lambda x: sum(w * gamma([t * x[0], *x[1:]])
                             for t, w in zip(forms._THETA, forms._WEIGHT))

    @pytest.mark.parametrize("gamma", [
        lambda x: 0.1 * (x[0] * x[2] + x[1] * x[3]),
        lambda x: 1.0 + x[0] ** 3 * x[1] - 0.7 * x[0] * x[3] ** 2,
        lambda x: 3.7,
    ], ids=["suite-density", "polynomial", "constant"])
    def test_one_broadcast_call_equals_per_node_sum(self, gamma):
        from phsurgery.dualnum import seed
        rng = np.random.default_rng(18)
        broadcast, per_node = forms.moser_beta(gamma), self._per_node_beta(gamma)
        point = rng.uniform(-0.4, 0.4, 4).tolist()
        # as many rows as nodes: a node axis read as the row axis would pass
        # shape checks, but not equality
        columns = list(rng.uniform(-0.4, 0.4, (8, 4)).T)
        # one and two rows: numpy's pairwise reduction reorders the adds of
        # (8,) and (8, 1) arrays, so a reduction over the node axis fails here
        one_row, two_rows = list(rng.uniform(-0.4, 0.4, (1, 4)).T), list(
            rng.uniform(-0.4, 0.4, (2, 4)).T)
        # one point carrying 8 tangents: only the dual parts are columns
        tangents = [Dual(c, t) for c, t in zip(point, rng.uniform(-1, 1, (4, 8)))]
        for x in (point, columns, one_row, two_rows, tangents):
            _equal_bits(broadcast(x), per_node(x))
            for j in range(4):
                # dual parts from `seed` are the constants 0 and 1, without
                # the node axis; nested seeds give second derivatives
                _equal_bits(broadcast(seed(x, j)), per_node(seed(x, j)))
                for i in range(4):
                    _equal_bits(broadcast(seed(seed(x, j), i)), per_node(seed(seed(x, j), i)))

    def test_corrected_product_rule(self, probes):
        # d(beta eta0) = beta vol + dbeta ^ eta0
        gamma = lambda x: 0.1 * x[0] * x[2]
        beta = forms.moser_beta(gamma)
        eta0 = forms.moser_eta0()
        lhs = d(eta0.scale(beta))
        rhs = Form.volume(4).scale(beta) + wedge(d(Form.from_scalar(4, beta)), eta0)
        assert forms.form_max_at(lhs - rhs, probes[:30]) < 1e-9


@pytest.fixture(scope="module")
def h():
    gens = forms.invariant_products()
    alpha = lambda x: 1.0 + 0.1 * (gens[0](x) + gens[3](x))
    return MoserMap(alpha=alpha, radius=0.5, steps=400)


def _transport_residuals(h, points):
    """`transport_residuals` of start points: the forward pass with tangents, then the call."""
    return h.transport_residuals(h(Dual(points, 1.0)))


def _separate_residuals(h, points):
    """Transport residuals from a forward and an inverse pass of their own."""
    rows = np.reshape(points, (-1, 4))
    one = np.ones(len(rows))
    y = h(Dual(rows, one))
    back = h.inverse(Dual(y.re, one))
    a = h.alpha(list(y.re.T))
    return y.du * a - 1.0, back.du - a


def _four_component_integrate(h, x, s0, s1):
    """The Moser map's RK4 written over all four components (x2..x4 stay put)."""
    x = [float(c) for c in x]
    step = (s1 - s0) / h.steps
    s = s0
    for _ in range(h.steps):
        k1 = h.velocity(s, x)
        y = [c + 0.5 * step * k for c, k in zip(x, k1)]
        k2 = h.velocity(s + 0.5 * step, y)
        y = [c + 0.5 * step * k for c, k in zip(x, k2)]
        k3 = h.velocity(s + 0.5 * step, y)
        y = [c + step * k for c, k in zip(x, k3)]
        k4 = h.velocity(s + step, y)
        x = [c + (step / 6.0) * (a + 2 * b + 2 * cc + dd)
             for c, a, b, cc, dd in zip(x, k1, k2, k3, k4)]
        s += step
    return np.array(x)


class TestMoserMap:
    def test_trivial_density_is_identity(self):
        h = MoserMap(alpha=lambda x: 1.0, radius=0.5, steps=100)
        x = np.array([0.2, -0.1, 0.05, 0.3])
        assert np.linalg.norm(h(x) - x) < 1e-13

    def test_one_component_flow_matches_four_component_loop(self, h):
        rng = np.random.default_rng(12)
        for x in [np.zeros(4), np.array([0.1, 0.15, -0.1, 0.2]),
                  *rng.uniform(-0.2, 0.2, size=(4, 4))]:
            assert (h(x) == _four_component_integrate(h, x, 0.0, 1.0)).all()
            assert (h.inverse(x) == _four_component_integrate(h, x, 1.0, 0.0)).all()

    def test_fixes_origin(self, h):
        assert np.linalg.norm(h(np.zeros(4))) == 0.0

    def test_transport_both_conventions(self, h):
        rng = np.random.default_rng(8)
        for x in rng.uniform(-0.3, 0.3, size=(5, 4)):
            fw, inv = _transport_residuals(h, x)
            assert abs(fw) < 1e-6
            assert abs(inv) < 1e-6

    def test_inverse_roundtrip(self, h):
        x = np.array([0.15, 0.1, -0.2, 0.25])
        assert np.linalg.norm(h.inverse(h(x)) - x) < 1e-10

    def test_commutes_with_saddle(self, h):
        amp = np.array([-1.0, -1.0, 1.0, 1.0])
        x = np.array([0.1, -0.08, 0.12, 0.05])
        for t in (-1.0, -0.5, 0.5, 1.0):
            at = np.exp(amp * t)
            assert np.linalg.norm(h(at * x) - at * h(x)) < 1e-6

    def test_generator_commutes(self, h):
        X = forms.saddle_field()
        rng = np.random.default_rng(10)
        worst, _ = forms.equivariance_audit(h, X, rng.uniform(-0.3, 0.3, (10, 4)))
        assert worst < 1e-8

    def test_noninvariant_density_detected(self):
        X = forms.saddle_field()
        h_bad = MoserMap(alpha=lambda x: 1.0 + 0.2 * x[0], radius=0.5, steps=100)
        rng = np.random.default_rng(11)
        worst, witness = forms.equivariance_audit(h_bad, X, rng.uniform(-0.3, 0.3, (10, 4)))
        assert worst > 1e-3
        assert witness is not None

    def test_path_degeneracy_detected(self):
        h_bad = MoserMap(alpha=lambda x: 1.0 + 40.0 * x[0] * x[2], radius=0.5, steps=100)
        with pytest.raises(PathDegenerate):
            h_bad(np.array([0.3, 0.0, -0.3, 0.0]))

    def test_batch_rows_equal_one_row_calls(self, h):
        batch = np.array([[0.0, 0.0, 0.0, 0.0],
                          [0.1, 0.15, -0.1, 0.2],
                          [0.0, 0.3, -0.2, 0.1],
                          [-0.25, 0.1, 0.3, -0.05],
                          [0.3, -0.2, 0.25, 0.1],
                          [-0.05, -0.2, -0.3, -0.1],
                          [0.2, 0.0, 0.0, 0.0]])
        before = batch.copy()
        fw, inv = h(batch), h.inverse(batch)
        assert (batch == before).all()  # the input is not moved in place
        for i, x in enumerate(batch):
            assert (fw[i] == h(x)).all()
            assert (inv[i] == h.inverse(x)).all()

    def test_one_rk4_step_calls_alpha_once_per_stage(self):
        # each stage evaluates alpha once, at the point (theta = 1) and on
        # the 8 nodes of beta, for every row together, whatever the number
        # of rows
        gens = forms.invariant_products()
        calls = []

        def alpha(x):
            calls.append(np.shape(x[0]))
            return 1.0 + 0.1 * (gens[0](x) + gens[3](x))

        h = MoserMap(alpha=alpha, radius=0.5, steps=1)
        rng = np.random.default_rng(19)
        for points in (rng.uniform(-0.2, 0.2, 4), rng.uniform(-0.2, 0.2, (1, 4)),
                       rng.uniform(-0.2, 0.2, (50, 4))):
            calls.clear()
            h(points)
            n = len(np.reshape(points, (-1, 4)))
            assert calls == [(9, n)] * 4

    def test_velocity_equals_density_and_beta_calls(self, h):
        # one alpha call on theta = 1 and the nodes gives the field of a
        # density call and a beta call, bit for bit, into every dual part
        from phsurgery.dualnum import seed
        beta = forms.moser_beta(lambda x: h.alpha(x) - 1.0)
        rng = np.random.default_rng(21)
        point = rng.uniform(-0.3, 0.3, 4).tolist()
        columns = list(rng.uniform(-0.3, 0.3, (8, 4)).T)
        tangent = [Dual(columns[0], rng.uniform(-1, 1, 8)), *columns[1:]]
        for x in (point, columns, tangent, *(seed(columns, j) for j in range(4)),
                  seed(seed(point, 0), 2)):
            for s in (0.0, 0.3, 1.0):
                v = h.velocity(s, x)
                assert v[1:] == [0.0, 0.0, 0.0]
                _equal_bits(v[0], -beta(x) * x[0] / ((1.0 - s) + s * h.alpha(x)))

    def test_empty_batch(self, h):
        assert h(np.zeros((0, 4))).shape == (0, 4)
        assert h.inverse(np.zeros((0, 4))).shape == (0, 4)
        fw, inv = _transport_residuals(h, np.zeros((0, 4)))
        assert fw.shape == inv.shape == (0,)

    @pytest.mark.parametrize("radius", [0.5, 5.0])
    def test_degenerate_row_is_named(self, radius):
        # the middle row leaves the radius 0.5; inside radius 5 its density
        # turns negative instead
        h_bad = MoserMap(alpha=lambda x: 1.0 + 40.0 * x[0] * x[2], radius=radius, steps=100)
        batch = np.array([[0.1, 0.1, 0.1, 0.1],
                          [0.3, 0.0, -0.3, 0.0],
                          [-0.1, 0.2, 0.0, 0.1]])
        with pytest.raises(PathDegenerate) as info:
            h_bad(batch)
        assert (info.value.x[1:] == batch[1, 1:]).all()
        if radius == 0.5:
            assert np.linalg.norm(info.value.x) > radius
            # an escape names the radius, not a density
            assert math.isnan(info.value.density)
            assert str(info.value).startswith("escaped the radius 0.5 (|x| = 0.5")
        else:
            assert info.value.density <= 0.0
            assert str(info.value).startswith("degenerate density -")

    def test_batched_transport_equals_per_row_calls(self, h):
        rng = np.random.default_rng(16)
        points = rng.uniform(-0.3, 0.3, size=(5, 4))
        fw, inv = _transport_residuals(h, points)
        for i, x in enumerate(points):
            fw1, inv1 = _transport_residuals(h, x)
            assert fw[i] == fw1[0] and inv[i] == inv1[0]

    def test_one_forward_pass_serves_transport_and_other_images(self, h):
        # transport starts first, then rows whose plain images are wanted:
        # one dual pass gives those images bit for bit and the forward
        # residuals of a pass of their own; the closed-form inverse leg
        # agrees with an RK4 inverse pass, its oracle, to rounding
        rng = np.random.default_rng(20)
        starts = rng.uniform(-0.3, 0.3, (16, 4))
        others = np.concatenate([np.zeros((1, 4)), rng.uniform(-0.2, 0.2, (40, 4))])
        rows = np.concatenate([starts, others])
        y = h(Dual(rows, np.ones(len(rows))))
        assert (y.re[16:] == h(others)).all()
        fw, inv = h.transport_residuals(Dual(y.re[:16], y.du[:16]))
        fw0, inv0 = _separate_residuals(h, starts)
        assert (fw == fw0).all()
        assert np.abs(inv - inv0).max() < 1e-13

    def test_moser_suite_makes_four_passes(self, monkeypatch):
        # one forward pass (transport, origin, commutation and x0 rows) and
        # the one-step identity control; the inverse transport leg and the
        # closed-form check of the map read the primitive and make no pass
        from phsurgery import suites
        from phsurgery.config import CampaignConfig
        integrate, passes = MoserMap._integrate, []

        def counted(self, x, s0, s1):
            passes.append((self.steps, s0, s1))
            return integrate(self, x, s0, s1)

        monkeypatch.setattr(MoserMap, "_integrate", counted)
        assert suites.run_moser_suite(CampaignConfig(moser_steps=20))["passed"]
        assert passes == [(20, 0.0, 1.0), (1, 0.0, 1.0)]

    def test_map_counters_go_to_timing_and_are_stripped(self):
        from phsurgery import cli
        from phsurgery.config import CampaignConfig
        cfg = CampaignConfig(samples=64, crossing_entries=40, cone_orbits=8,
                             delta_sweep=[0.1, 0.01], moser_steps=40, step=0.01, seed=2)
        report = cli.build_report(cfg, ("moser",))
        # the forward pass of h at 40 steps, the identity control at 1
        assert report["timing"]["counters"] == {"moser": {"map_passes": 2, "rk4_steps": 41}}
        assert "counters" not in report["suites"]["moser"]
        assert "map_passes" not in cli.canonical_json(cli.strip_timing(report))

    def test_moser_report_equals_the_reference(self):
        # every measured value of the six checks at moser_steps 200, seed 42
        # (the moser-default workload), bit for bit: repr gives the shortest
        # round-trip digits and tells -0.0 from 0.0
        from phsurgery import suites
        from phsurgery.config import CampaignConfig
        report = suites.run_moser_suite(CampaignConfig(moser_steps=200, seed=42))
        assert report["passed"]
        assert repr({c["name"]: c["measured"] for c in report["checks"]}) == repr({
            "exterior-calculus-identities": {"d_squared": 2.7755575615628914e-17,
                                             "cartan": 2.220446049250313e-16,
                                             "leibniz": 2.220446049250313e-16},
            "invariant-primitive": {"d_defect": 0.0, "invariance_defect": 0.0},
            "averaged-density-solution": {"max_X_beta": 5.204170427930421e-18,
                                          "product_rule_defect": 0.0},
            "volume-normalization": {"max_transport_residual": 1.5543122344752192e-15,
                                     "origin_image": 0.0,
                                     "max_commutation_defect": 2.7755575615628914e-16,
                                     "max_generator_commutator": 8.673617379884035e-19},
            "normalization-controls": {"identity_defect": 0.0,
                                       "non_invariant_commutator": 0.012054960867364047},
            "normalization-richardson": {"residual": 4.163336342344337e-17}})

    def test_counters_count_the_steps_taken(self):
        h = MoserMap(alpha=lambda x: 1.0 + 40.0 * x[0] * x[2], radius=0.5, steps=100)
        h(np.zeros((2, 4)))
        h.inverse(np.zeros(4))
        assert h.counters == {"map_passes": 2, "rk4_steps": 200}
        # the escaping row stops the pass at the step it leaves the radius;
        # the escape's s is the time of its point, the end of that step
        with pytest.raises(PathDegenerate) as info:
            h(np.array([0.3, 0.0, -0.3, 0.0]))
        assert h.counters == {"map_passes": 3, "rk4_steps": 200 + round(info.value.s * 100)}
        # a copy starts from zero
        assert replace(h, steps=10).counters == {"map_passes": 0, "rk4_steps": 0}

    def test_normalization_check_fails_a_scaled_moser_field(self, monkeypatch):
        # a control for `normalization-richardson`: Y_s scaled by 1 + 1e-3 is
        # a wrong field that step halving cannot see, since both runs share
        # it; the closed-form inverse of the true map does
        from phsurgery import suites
        from phsurgery.config import CampaignConfig
        speed = MoserMap._speed
        monkeypatch.setattr(MoserMap, "_speed",
                            lambda self, s, x, theta: (1.0 + 1e-3) * speed(self, s, x, theta))
        cfg = CampaignConfig(samples=64, crossing_entries=40, cone_orbits=8,
                             delta_sweep=[0.1, 0.01], moser_steps=40, step=0.01, seed=2)
        check = next(c for c in suites.run_moser_suite(cfg)["checks"]
                     if c["name"] == "normalization-richardson")
        x0 = np.array([0.1, 0.15, -0.1, 0.2])  # the check's start point
        h = MoserMap(alpha=lambda x: 1.0 + cfg.moser_strength * (x[0] * x[2] + x[1] * x[3]),
                     radius=cfg.moser_radius, steps=cfg.moser_steps)
        halving = np.linalg.norm(h(x0) - replace(h, steps=2 * h.steps)(x0))
        tol = cfg.tolerances["richardson"]
        assert halving < tol < check["measured"]["residual"]
        assert not check["passed"]


    def test_transport_check_fails_a_scaled_primitive(self, monkeypatch, h):
        # a control for the inverse transport leg: beta scaled by 1 + 1e-3
        # makes the primitive's derivative 1e-3 alpha too large, while the
        # forward RK4 leg never reads beta and stays at rounding level
        from phsurgery import suites
        from phsurgery.config import CampaignConfig
        beta = forms.moser_beta

        def scaled(gamma):
            b = beta(gamma)
            return lambda x: (1.0 + 1e-3) * b(x)

        monkeypatch.setattr(forms, "moser_beta", scaled)
        fw, inv = _transport_residuals(h, np.random.default_rng(22).uniform(-0.3, 0.3, (8, 4)))
        assert np.abs(fw).max() < 1e-13
        assert 5e-4 < np.abs(inv).min() and np.abs(inv).max() < 2e-3
        cfg = CampaignConfig(samples=64, crossing_entries=40, cone_orbits=8,
                             delta_sweep=[0.1, 0.01], moser_steps=40, step=0.01, seed=2)
        check = next(c for c in suites.run_moser_suite(cfg)["checks"]
                     if c["name"] == "volume-normalization")
        assert not check["passed"]
        assert 5e-4 < check["measured"]["max_transport_residual"] < 2e-3
        assert check["measured"]["max_commutation_defect"] < cfg.tolerances["moser_commutation"]

    def test_identity_control_fails_a_moving_field(self, monkeypatch):
        # a control for the one-step identity map: an offset of 1e-9 in the
        # speed moves every start by 1e-9 in the one step
        from phsurgery import suites
        from phsurgery.config import CampaignConfig
        speed = MoserMap._speed
        monkeypatch.setattr(MoserMap, "_speed",
                            lambda self, s, x, theta: speed(self, s, x, theta) + 1e-9)
        check = next(c for c in suites.run_moser_suite(CampaignConfig(moser_steps=20))["checks"]
                     if c["name"] == "normalization-controls")
        assert not check["passed"]
        assert check["measured"]["identity_defect"] == pytest.approx(1e-9, rel=1e-6)

    def test_escaping_row_fails_only_the_checks_that_read_the_pass(self):
        # at strength 40 a forward row leaves the radius 0.5 at s = 0.325, and
        # the density turns negative at probes of the generator audit: the
        # two checks that read the pass fail with the stop as witness, and
        # the other four checks still report
        from phsurgery import suites
        from phsurgery.config import CampaignConfig
        cfg = CampaignConfig(moser_strength=40.0, moser_steps=40)
        checks = {c["name"]: c for c in suites.run_moser_suite(cfg)["checks"]}
        assert list(checks) == [
            "exterior-calculus-identities", "invariant-primitive", "averaged-density-solution",
            "volume-normalization", "normalization-controls", "normalization-richardson"]
        assert [n for n, c in checks.items() if not c["passed"]] == [
            "volume-normalization", "normalization-richardson"]
        for name in ("volume-normalization", "normalization-richardson"):
            stop = checks[name]["witness"]["forward_pass"]
            assert stop["type"] == "PathDegenerate" and stop["s"] == pytest.approx(0.325)
            assert np.linalg.norm(stop["point"]) > cfg.moser_radius
            assert stop["message"].startswith("escaped the radius 0.5")
        audit = checks["volume-normalization"]["witness"]["generator_audit"]
        assert audit["message"].startswith("degenerate density -")
        assert checks["normalization-richardson"]["measured"]["residual"] == "nan"


def _per_point_form_max(form, probes):
    """Oracle of `form_max_at`: the same reduction, one probe at a time."""
    worst = 0.0
    for x in probes:
        for v in form.evaluate(list(x)).values():
            worst = max(worst, abs(value(v)))
    return worst


def _per_point_audit(h, X, probes, s_values=(0.0, 0.5, 1.0)):
    """Oracle of `equivariance_audit`: the same commutators, one probe at a time."""
    worst, witness = 0.0, None
    for s in s_values:
        for x in probes:
            x = [float(c) for c in x]
            Xx = [value(Xi(x)) for Xi in X]
            Yx = [value(c) for c in h.velocity(s, x)]
            DY = np.array([[partial(lambda y, i=i: h.velocity(s, list(y))[i], x, j)
                            for j in range(4)] for i in range(4)])
            DX = np.array([[partial(lambda y, i=i: X[i](list(y)), x, j)
                            for j in range(4)] for i in range(4)])
            comm = DY @ np.asarray(Xx) - DX @ np.asarray(Yx)
            size = float(np.linalg.norm(comm))
            if size > worst:
                worst, witness = size, {"s": s, "x": x, "commutator": comm.tolist()}
    return worst, witness


class TestBatchedEvaluation:
    def test_form_max_at_equals_per_point_loop(self, monkeypatch, probes):
        from phsurgery import suites
        from phsurgery.config import CampaignConfig
        batched, seen = forms.forms_max_at, []

        def checked(batch, pts):
            got = batched(batch, pts)
            assert got == [_per_point_form_max(form, pts) for form in batch]
            seen.append(got)
            return got

        # each caller evaluates its forms in one call
        monkeypatch.setattr(forms, "forms_max_at", checked)
        suites._form_identity_probes(np.random.default_rng(4), probes[:30])
        assert [len(got) for got in seen] == [12]
        # the slowed-volume forms, transition shell included
        assert suites.run_volume_suite(CampaignConfig(samples=60))["passed"]
        assert [len(got) for got in seen] == [12, 3] and max(seen[1]) > 1e-3

    def test_audit_equals_per_point_loop(self, h, X):
        rng = np.random.default_rng(10)
        bad = MoserMap(alpha=lambda x: 1.0 + 0.2 * x[0], radius=0.5, steps=100)
        for hh in (h, bad):
            pts = rng.uniform(-0.3, 0.3, (12, 4))
            assert forms.equivariance_audit(hh, X, pts) == _per_point_audit(hh, X, pts)

    def test_forward_mode_derivative_matches_central_differences(self, h):
        from phsurgery.dualnum import Dual
        pts = np.random.default_rng(17).uniform(-0.2, 0.2, size=(6, 4))
        eps = 10.0 ** -np.arange(4.0, 10.0)
        shift = np.zeros((2, len(eps), 1, 4))
        shift[:, :, 0, 0] = [eps, -eps]
        for fn in (h, h.inverse):
            y = fn(Dual(pts, np.ones(len(pts))))
            assert (y.re == fn(pts)).all()
            moved = fn((pts + shift).reshape(-1, 4))[:, 0].reshape(2, len(eps), len(pts))
            fd = (moved[0] - moved[1]) / (2 * eps[:, None])
            # truncation error plus rounding of the difference quotient
            assert (np.abs(fd - y.du) < (eps ** 2 + 1e-15 / eps)[:, None]).all()

    def test_transport_residuals_at_rounding_level(self, h):
        fw, inv = _transport_residuals(h, np.random.default_rng(8).uniform(-0.3, 0.3, (8, 4)))
        assert np.abs(fw).max() < 1e-13 and np.abs(inv).max() < 1e-13


def _seeds_of(x):
    """The seeds that reach point x, outermost first: () for the probes.

    A seed gives every coordinate a one-hot dual part, 1.0 and 0.0 along its
    directions: one direction for `dualnum.seed(x, j)`, four on a leading axis
    for the vector seed of a `forms._Point`.  Its entry lists the coordinate
    each direction seeds: (j,) for the former, (0, 1, 2, 3) for the latter.
    """
    path = []
    while isinstance(x[0], Dual):
        # rows are coordinates, columns directions
        dirs = np.array([np.ravel(c.du) for c in x])
        assert (np.sort(dirs, axis=0) == np.eye(len(x))[:, -1:]).all()
        path.append(tuple(int(j) for j in np.argmax(dirs, axis=0)))
        x = [c.re for c in x]
    return tuple(path)


_ALL = (0, 1, 2, 3)


def _logged(log, name, f):
    """Leaf f that logs (name, seeds of the point) at every call."""
    def leaf(x):
        log.append((name, _seeds_of(x)))
        return f(x)

    return leaf


class TestPointCache:
    @staticmethod
    def _forms(log):
        rng = np.random.default_rng(23)
        X = [_logged(log, f"X{i}", _random_polynomial(rng, 4)) for i in range(4)]
        a = Form(4, 1, {idx: _logged(log, f"a{idx}", _random_polynomial(rng, 4))
                        for idx in [(0,), (1,), (3,)]})
        b = Form(4, 1, {idx: _logged(log, f"b{idx}", _random_polynomial(rng, 4))
                        for idx in [(1,), (2,)]})
        return {"lie-of-wedge": lie(X, wedge(a, b)), "d-of-d": d(d(a)),
                "d-of-wedge": d(wedge(a, b))}

    @pytest.mark.parametrize("name", ["lie-of-wedge", "d-of-d"])
    def test_each_leaf_runs_once_per_point_and_seed(self, name, probes):
        from collections import Counter
        log = []
        form = self._forms(log)[name]
        cached = forms.form_max_at(form, probes)
        once = Counter(log)
        # every (leaf, point) pair once: the probes, or the seeded copies of
        # them that the form asks for
        assert set(once.values()) == {1}
        log.clear()
        plain = form.evaluate(list(probes.T))
        # the plain path asks the same leaves at the same derivative levels,
        # one scalar seed per direction of the cached vector seeds
        depths = lambda pairs: {(leaf, len(s)) for leaf, s in pairs}
        assert depths(log) == depths(once)
        if name == "lie-of-wedge":
            # without the cache the Leibniz terms call the same leaves again
            assert len(log) > 3 * len(once)
            assert {s for _, s in once} == {(), (_ALL,)}
            assert {s for _, s in log} == {(), ((0,),), ((1,),), ((2,),), ((3,),)}
        else:
            # d(d(a)) asks for the leaves only at the twice-seeded copy
            assert {s for _, s in once} == {(_ALL, _ALL)}
        assert cached == max(float(np.max(np.abs(np.broadcast_to(value(v), len(probes)))))
                             for v in plain.values())

    def test_one_call_runs_each_leaf_once_across_its_forms(self, probes):
        from collections import Counter
        log = []
        batch = self._forms(log)
        together = forms.forms_max_at(list(batch.values()), probes)
        once = Counter(log)
        assert set(once.values()) == {1}
        apart, pairs = [], []
        for form in batch.values():
            log.clear()
            apart.append(forms.form_max_at(form, probes))
            pairs.append(set(log))
        assert together == apart
        assert set(once) == set().union(*pairs)
        # d(a ^ b) asks for the leaves of a and b at the probes and their
        # seeded copies, as lie(X, a ^ b) does: the shared point runs them once
        assert pairs[0] & pairs[2]

    def test_nothing_is_cached_across_calls(self, probes):
        log = []
        form = self._forms(log)["lie-of-wedge"]
        first = forms.form_max_at(form, probes[:50])
        calls = list(log)
        log.clear()
        second = forms.form_max_at(form, probes[50:])
        assert log == calls
        assert second == _per_point_form_max(form, probes[50:])
        assert first == _per_point_form_max(form, probes[:50])

    def test_plain_list_runs_uncached_with_the_same_values(self, probes):
        log = []
        form = self._forms(log)["lie-of-wedge"]
        cols = list(probes.T)
        cached = form.evaluate(forms._Point(cols))
        n_cached = len(log)
        log.clear()
        plain = form.evaluate(cols)
        assert len(log) > n_cached
        assert list(plain) == list(cached)
        for idx in plain:
            _equal_bits(plain[idx], cached[idx])


def _scalar_seeded_audit(h, X, probes):
    """`equivariance_audit` built column by column: one scalar seed per Jacobian column."""
    from phsurgery.dualnum import seed, tangent
    per_probe = forms._per_probe
    probes = np.asarray(probes, dtype=float).reshape(-1, 4)
    x, n = list(probes.T), len(probes)
    DX = per_probe([[partial(X[i], x, j) for j in range(4)] for i in range(4)], n)
    Xx = per_probe([Xi(x) for Xi in X], n)
    sizes, comms = [], []
    for s in forms._AUDIT_TIMES:
        Yx = per_probe(h.velocity(s, x), n)
        DY = np.stack([per_probe([tangent(v) for v in h.velocity(s, seed(x, j))], n)
                       for j in range(4)], axis=-1)
        comm = (DY @ Xx[..., None] - DX @ Yx[..., None])[..., 0]
        comms.append(comm)
        sizes.append(forms._radius(comm))
    worst = float(np.max(sizes, initial=0.0))
    if worst == 0.0:
        return worst, None
    k, i = np.unravel_index(np.argmax(sizes), np.shape(sizes))
    return worst, {"s": forms._AUDIT_TIMES[k], "x": probes[i].tolist(),
                   "commutator": comms[k][i].tolist()}


class TestVectorSeeds:
    """One vector-seeded copy per derivative level gives the scalar seeds' bits."""

    @pytest.mark.parametrize("rows", [1, 2, 100])
    def test_point_equals_plain_list_bit_for_bit(self, X, probes, rows):
        rng = np.random.default_rng(31)
        batch = TestPointCache._forms([])
        # the Moser suite's averaged density solution: gamma on the node stack
        beta = forms.moser_beta(_random_polynomial(rng, 4))
        batch["lie-of-beta"] = lie(X, Form.from_scalar(4, beta))
        # exact zero derivatives, whose sign follows the seeds' 0.0
        batch["d-of-x1-squared"] = d(Form(4, 1, {(0,): lambda x: x[0] * x[0]}))
        cols = list(probes[:rows].T)
        for name, form in batch.items():
            cached, plain = form.evaluate(forms._Point(cols)), form.evaluate(cols)
            assert list(cached) == list(plain), name
            for idx in plain:
                _equal_bits(cached[idx], plain[idx])

    def test_audit_equals_scalar_seeded_audit(self, h, X, probes):
        bad = MoserMap(alpha=lambda x: 1.0 + 0.2 * x[0], radius=0.5)
        for hh in (h, bad):
            for pts in (probes[:20], probes[:1]):
                assert forms.equivariance_audit(hh, X, pts) == _scalar_seeded_audit(hh, X, pts)

    def test_audit_raises_the_same_path_degenerate(self, X, probes):
        # the verify-moser density at moser_strength: 40 goes negative
        gens = forms.invariant_products()
        h40 = MoserMap(alpha=lambda x: 1.0 + 40.0 * (gens[0](x) + gens[3](x)), radius=0.5)
        raised = []
        for audit in (forms.equivariance_audit, _scalar_seeded_audit):
            with pytest.raises(PathDegenerate) as exc:
                audit(h40, X, probes[:20])
            raised.append(exc.value)
        vector, scalar = raised
        assert (vector.s, str(vector)) == (scalar.s, str(scalar))
        _equal_bits(vector.x, scalar.x)
        _equal_bits(vector.density, scalar.density)


class TestNaNPropagates:
    @pytest.fixture
    def nan_probe(self, probes):
        pts = probes[:10].copy()
        pts[3, 1] = math.nan
        return pts

    def test_form_max_at(self, probes, nan_probe):
        assert math.isnan(forms.form_max_at(Form(4, 0, {(): lambda x: math.nan}), probes))
        assert math.isnan(forms.form_max_at(Form(4, 1, {(2,): lambda x: x[1]}), nan_probe))
        # in a batch the NaN stays with its own form
        nan_first, fine = forms.forms_max_at(
            [Form(4, 1, {(2,): lambda x: x[1]}), Form(4, 0, {(): lambda x: x[0]})], nan_probe)
        assert math.isnan(nan_first) and fine == np.abs(nan_probe[:, 0]).max()

    def test_x_beta_reduction(self, X, nan_probe):
        # the reduction of the averaged-density-solution check
        gens = forms.invariant_products()
        beta = forms.moser_beta(lambda x: 0.1 * (gens[0](x) + gens[3](x)))
        assert math.isnan(forms.form_max_at(lie(X, Form.from_scalar(4, beta)), nan_probe))
        assert forms.form_max_at(lie(X, Form.from_scalar(4, beta)), nan_probe[4:]) < 1e-9

    def test_equivariance_audit_keeps_the_witness(self, h, X, nan_probe):
        worst, witness = forms.equivariance_audit(h, X, nan_probe)
        assert math.isnan(worst)
        assert witness["s"] == 0.0 and witness["x"][0] == nan_probe[3, 0]
        assert math.isnan(witness["x"][1])

    def test_form_identity_defects(self, monkeypatch, probes):
        from phsurgery import suites
        batched = forms.forms_max_at

        def nan_second(batch, pts):
            sizes = batched(batch, pts)
            sizes[1] = math.nan
            return sizes

        # the second form is degree 0's Cartan defect
        monkeypatch.setattr(forms, "forms_max_at", nan_second)
        dd, cartan, leibniz = suites._form_identity_probes(np.random.default_rng(4), probes[:10])
        assert math.isnan(cartan) and dd < 1e-10 and leibniz < 1e-10
