import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phsurgery.dualnum import Dual, dexp, dlog, dsqrt, partial, value

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
positive = st.floats(min_value=0.1, max_value=10, allow_nan=False)


def test_arithmetic_rules():
    x = Dual(2.0, 1.0)
    y = x * x + 3 * x - 1
    assert y.re == 9.0 and y.du == 7.0
    q = (x * x) / x
    assert q.re == pytest.approx(2.0) and q.du == pytest.approx(1.0)


@settings(max_examples=50, derandomize=True)
@given(finite, finite)
def test_product_rule(a, b):
    x = Dual(a, 1.0)
    f = (x + 1.5) * (x * x - b)
    expected = (a * a - b) + (a + 1.5) * 2 * a
    assert f.du == pytest.approx(expected, rel=1e-12, abs=1e-9)


@settings(max_examples=50, derandomize=True)
@given(positive)
def test_transcendental_chain(a):
    x = Dual(a, 1.0)
    y = dexp(dlog(x))
    assert y.re == pytest.approx(a, rel=1e-12)
    assert y.du == pytest.approx(1.0, rel=1e-12)
    s = dsqrt(x)
    assert s.du == pytest.approx(0.5 / math.sqrt(a), rel=1e-12)


def test_nested_duals_give_second_derivatives():
    # f(t) = exp(t^2): f''(t) = (2 + 4 t^2) exp(t^2)
    t0 = 0.7

    def fprime(t):
        inner = Dual(t, 1.0)
        return dexp(inner * inner).du

    d2 = partial(lambda v: fprime(v[0]), [t0], 0)
    expected = (2 + 4 * t0 * t0) * math.exp(t0 * t0)
    assert d2 == pytest.approx(expected, rel=1e-10)
    assert value(dexp(Dual(Dual(t0, 1.0), 0.0) ** 2)) == pytest.approx(math.exp(t0 * t0))


def test_gradient():
    f = lambda x: x[0] * x[1] + dsqrt(x[1])
    g = [partial(f, [2.0, 4.0], i) for i in range(2)]
    assert g[0] == pytest.approx(4.0)
    assert g[1] == pytest.approx(2.0 + 0.25)


def test_float_cast_is_refused():
    with pytest.raises(TypeError):
        float(Dual(1.0, 2.0))


def test_numpy_on_the_left_defers_to_dual():
    x = Dual(3.0, 1.0)
    y = np.float64(2) * x
    assert isinstance(y, Dual) and (y.re, y.du) == (6.0, 2.0)
    col = np.array([1.0, 2.0, 4.0])
    z = col * x
    assert isinstance(z, Dual)
    assert (z.re == [3.0, 6.0, 12.0]).all() and (z.du == col).all()
    w = col - Dual(col, 1.0)
    assert isinstance(w, Dual) and (w.re == 0.0).all() and w.du == -1.0


def test_column_duals_equal_elementwise_duals():
    a = np.array([0.3, 1.7, 2.5])
    col = Dual(a, np.array([1.0, -2.0, 0.5]))
    out = dexp(col * col) / (1.0 + dsqrt(col)) - dlog(col) ** 3
    for k in range(len(a)):
        one = Dual(a[k], col.du[k])
        ref = dexp(one * one) / (1.0 + dsqrt(one)) - dlog(one) ** 3
        assert out.re[k] == ref.re and out.du[k] == ref.du
