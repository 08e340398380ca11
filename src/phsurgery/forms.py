"""Exterior calculus in dimension <= 6 over dual-number coefficients.

Forms carry coefficient *functions* indexed by strictly increasing index
tuples; derivatives are taken exactly with first-order dual numbers at
evaluation time, so d, interior product, Lie derivative and wedge are all
closed operations on coefficient closures.  This keeps the volume-form
bookkeeping honest: the d^2 = 0, Cartan and Leibniz identities are checked
at probes, not assumed.

`forms_max_at` evaluates a batch of forms on one `_Point`: the probe columns
with a value cache keyed by closure, and one seeded `_Point` per coordinate
for the partial derivatives, nested seeds included.  Every closure the forms
build, and every leaf and vector-field component they call, then runs at most
once per point and seeded point within the call; a plain list of coordinates
takes the uncached path and gives the same values.

The second half implements the equivariant volume normalization for the
standard 4-dimensional saddle: the invariant primitive eta0, the averaged
density solution beta, and the normalizing flow map, whose inverse along x1
is the closed-form primitive y1 beta_alpha(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dualnum
from .dualnum import Dual, seed, tangent, value
from .saddle import _radius, rk4_step

MAX_DIM = 6


class DegreeError(ValueError):
    pass


class PathDegenerate(RuntimeError):
    """The interpolated volume family lost positivity, or a row left the map's radius.

    An escape gives the radius it left and a NaN density."""

    def __init__(self, s, x, density, radius=None):
        self.s = s
        self.x = np.asarray(x)
        self.density = density
        if radius is None:
            message = f"degenerate density {density:.3g} at s={s:.3f}, x={self.x}"
        else:
            message = (f"escaped the radius {radius:g} (|x| = {np.linalg.norm(self.x):.3g}) "
                       f"at s={s:.3f}, x={self.x}")
        super().__init__(message)


def _const(c):
    return lambda x: c


_MISSING = object()


class _Point(list):
    """Coordinates of a point with a per-closure value cache.

    `values` maps a closure to its value here; `seeds` maps a coordinate j
    to the `_Point` of `seed(self, j)`.  Both live as long as the point."""

    __slots__ = ("values", "seeds")

    def __init__(self, coords):
        super().__init__(coords)
        self.values = {}
        self.seeds = {}


def _at(f, x):
    """f(x), computed once per closure on a `_Point` and every time on anything else."""
    if type(x) is not _Point:
        return f(x)
    v = x.values.get(f, _MISSING)
    if v is _MISSING:
        v = x.values[f] = f(x)
    return v


def partial(f, x, i):
    """`dualnum.partial`, with one seeded `_Point` per coordinate of a `_Point` x."""
    if type(x) is not _Point:
        return dualnum.partial(f, x, i)
    s = x.seeds.get(i)
    if s is None:
        s = x.seeds[i] = _Point(seed(x, i))
    return tangent(_at(f, s))


@dataclass
class Form:
    """Exterior form of fixed degree with callable coefficients.

    coeffs maps strictly increasing index tuples to functions of the point;
    missing tuples are zero.  Coefficients must accept dual components and
    numpy columns, and may return a constant for every point.
    """

    dim: int
    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim > MAX_DIM:
            raise DegreeError(f"dimension {self.dim} exceeds supported maximum {MAX_DIM}")
        if not 0 <= self.degree <= self.dim:
            raise DegreeError(f"degree {self.degree} out of range for dimension {self.dim}")
        for idx in self.coeffs:
            if list(idx) != sorted(set(idx)):
                raise DegreeError(f"index tuple {idx} is not strictly increasing")
            if len(idx) != self.degree:
                raise DegreeError(f"index tuple {idx} has wrong length for degree {self.degree}")

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree, {})

    @classmethod
    def volume(cls, dim):
        return cls(dim, dim, {tuple(range(dim)): _const(1.0)})

    @classmethod
    def from_scalar(cls, dim, f):
        return cls(dim, 0, {(): f})

    def evaluate(self, x):
        """Coefficient values at x as a dict; x holds floats, probe columns or duals of them."""
        return {idx: _at(f, x) for idx, f in self.coeffs.items()}

    def __add__(self, other):
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise DegreeError("can only add forms of equal dimension and degree")
        return Form(self.dim, self.degree,
                    _summed([*self.coeffs.items(), *other.coeffs.items()]))

    def __sub__(self, other):
        return self + other.scale(_const(-1.0))

    def scale(self, g):
        """Multiply by a scalar function (or constant)."""
        if not callable(g):
            g = _const(g)
        return Form(self.dim, self.degree,
                    {idx: (lambda f: lambda x: _at(g, x) * _at(f, x))(f)
                     for idx, f in self.coeffs.items()})


def _summed(terms):
    """One coefficient per index from (index, function) terms, indices in first-seen order.

    The coefficient of an index sums its terms' values left to right in the
    order given; a lone term is returned as is.
    """
    groups = {}
    for idx, fn in terms:
        groups.setdefault(idx, []).append(fn)

    def total(fns):
        def coeff(x):
            acc = _at(fns[0], x)
            for fn in fns[1:]:
                acc = acc + _at(fn, x)
            return acc

        return coeff

    return {idx: fns[0] if len(fns) == 1 else total(fns) for idx, fns in groups.items()}


def _insert_index(j, idx):
    """Insert j into the increasing tuple idx; returns (tuple, sign) or None."""
    if j in idx:
        return None
    pos = sum(1 for i in idx if i < j)
    return tuple(idx[:pos]) + (j,) + tuple(idx[pos:]), (-1) ** pos


def d(form: Form) -> Form:
    """Exterior derivative; coefficients differentiated with dual numbers."""
    if form.degree >= form.dim:
        raise DegreeError("d of a top-degree form overflows; it vanishes identically")
    terms = []
    for idx, f in form.coeffs.items():
        for j in range(form.dim):
            ins = _insert_index(j, idx)
            if ins is None:
                continue
            new_idx, sign = ins
            terms.append((new_idx, (lambda f, j, s: lambda x: s * partial(f, x, j))(f, j, sign)))
    return Form(form.dim, form.degree + 1, _summed(terms))


def wedge(a: Form, b: Form) -> Form:
    if a.dim != b.dim:
        raise DegreeError("wedge needs a common dimension")
    if a.degree + b.degree > a.dim:
        raise DegreeError(f"wedge degree {a.degree}+{b.degree} overflows dimension {a.dim}")
    terms = []
    for ia, fa in a.coeffs.items():
        for ib, fb in b.coeffs.items():
            if set(ia) & set(ib):
                continue
            sign = _merge_sign(ia, ib)
            terms.append((tuple(sorted(ia + ib)),
                          (lambda f, g, s: lambda x: s * _at(f, x) * _at(g, x))(fa, fb, sign)))
    return Form(a.dim, a.degree + b.degree, _summed(terms))


def _merge_sign(ia, ib):
    """Sign of the shuffle sorting ia + ib."""
    seq = list(ia + ib)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def interior(X, form: Form) -> Form:
    """Contraction with the vector field X (list of component functions)."""
    if form.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    terms = []
    for idx, f in form.coeffs.items():
        for pos, j in enumerate(idx):
            terms.append((idx[:pos] + idx[pos + 1:],
                          (lambda f, Xj, s: lambda x: s * _at(Xj, x) * _at(f, x))
                          (f, X[j], (-1) ** pos)))
    return Form(form.dim, form.degree - 1, _summed(terms))


def lie(X, form: Form) -> Form:
    """Lie derivative along X via the Leibniz expansion.

    L_X (f dx_I) = (Xf) dx_I + f * sum_m dx_{i_1} ^ ... ^ dX^{i_m} ^ ...;
    independent of the Cartan route, which `lie_cartan` provides for
    cross-checking.
    """
    n = form.dim
    terms = []
    for idx, f in form.coeffs.items():
        def xf(x, f=f):
            total = 0.0
            for j in range(n):
                total = total + _at(X[j], x) * partial(f, x, j)
            return total

        terms.append((idx, xf))
        for pos, im in enumerate(idx):
            for j in range(n):
                # replace slot pos by j with coefficient d_j X^{i_m}
                if j == im:
                    terms.append((idx, (lambda f, Xm, j: lambda x: _at(f, x) * partial(Xm, x, j))
                                  (f, X[im], j)))
                    continue
                if j in idx:
                    continue
                rest = idx[:pos] + idx[pos + 1:]
                ins = _insert_index(j, rest)
                if ins is None:
                    continue
                new_idx, s_ins = ins
                sgn = (-1) ** pos * s_ins
                terms.append((new_idx, (lambda f, Xm, j, s:
                                        lambda x: s * _at(f, x) * partial(Xm, x, j))
                              (f, X[im], j, sgn)))
    return Form(n, form.degree, _summed(terms))


def lie_cartan(X, form: Form) -> Form:
    """L_X = i_X d + d i_X (the homotopy formula)."""
    first = interior(X, d(form)) if form.degree < form.dim else Form.zero(form.dim, form.degree)
    second = d(interior(X, form)) if form.degree > 0 else Form.zero(form.dim, form.degree)
    return first + second


def forms_max_at(forms, probes) -> list[float]:
    """Largest coefficient magnitude of each form over an (n, dim) batch of probe points.

    Every coefficient of every form is evaluated on the probe columns, as one
    shared `_Point`: each closure runs at most once on the columns and once on
    each seeded copy of them that a derivative asks for, however many forms
    hold it.  A NaN value makes its form's entry NaN.  The cache dies with the call."""
    probes = np.asarray(probes, dtype=float)
    point = _Point(probes.T)
    return [float(np.max(np.abs([np.broadcast_to(value(v), len(probes))
                                 for v in form.evaluate(point).values()]), initial=0.0))
            for form in forms]


def form_max_at(form: Form, probes) -> float:
    """`forms_max_at` of one form."""
    return forms_max_at([form], probes)[0]


# ---------------------------------------------------------------------------
# slowed-volume identity


def verify_rho_volume(rho, X, m: Form, probes):
    """Residuals of the slow-down volume identity at probe points.

    Returns (max |L_{rho X} (m/rho)|, max |L_{rho X} m|): the first is the
    identity under test, the second its negative control (dividing by rho
    is what makes the slowed flow volume preserving).  Raises ValueError
    unless L_X m = 0 (the input volume is invariant).
    """
    rhoX = [(lambda Xi: lambda x: _at(rho, x) * _at(Xi, x))(Xi) for Xi in X]
    m_over_rho = m.scale(lambda x: 1.0 / _at(rho, x))
    base, residual, control = forms_max_at(
        [lie(X, m), lie(rhoX, m_over_rho), lie(rhoX, m)], probes)
    if base > 1e-9:
        raise ValueError(f"input volume is not invariant: max |L_X m| = {base:.3g}")
    return residual, control


# ---------------------------------------------------------------------------
# equivariant volume normalization (dimension 4 saddle)


def saddle_field():
    """Generator of the standard 4-d saddle: rates (-1, -1, +1, +1)."""
    signs = (-1.0, -1.0, 1.0, 1.0)
    return [(lambda s, i: lambda x: s * x[i])(s, i) for i, s in enumerate(signs)]


def moser_eta0() -> Form:
    """Invariant primitive of the standard volume: x1 dx2 ^ dx3 ^ dx4."""
    return Form(4, 3, {(1, 2, 3): lambda x: x[0]})


# 8-point Gauss-Legendre rule on [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_THETA = (_GL_NODES + 1.0) / 2.0
_WEIGHT = _GL_WEIGHTS / 2.0
# theta = 1 (the point itself) ahead of the nodes: one call of alpha gives
# the density at x and gamma on the nodes
_THETA_AT_X = np.concatenate([[1.0], _THETA])


def moser_beta(gamma):
    """Solve d/dx1 (x1 beta) = gamma by radial averaging.

    beta(x) = integral of gamma(theta x1, x2, x3, x4) for theta in [0, 1],
    on an 8-point Gauss-Legendre rule: exact for gamma of degree <= 15 in
    x1.  The rule has no node at theta = 0 and no moving endpoint, so floats,
    (nested) duals and numpy columns all pass through it; beta can be
    differentiated like any other coefficient.  If gamma is invariant under
    the saddle flow, so is beta.

    gamma is called once, on all nodes: it receives (8, ...) node arrays
    (theta on a leading axis ahead of the axes of the widest coordinate)
    and must accept arrays.  The weighted sum then runs node by node, in
    the order of the 8-term sum over one node per call.
    """

    def beta(x):
        nd = _width(x)
        return _node_sum(gamma(_on_nodes(_node_axis(_THETA, nd), x)), nd)

    return beta


def _width(x):
    """Widest ndim over the coordinates of a point, and over their dual parts."""
    return max(_leaf_ndim(c) for c in x)


def _leaf_ndim(c):
    """Widest ndim over the components of a (nested) dual, or of a plain value."""
    if isinstance(c, Dual):
        return max(_leaf_ndim(c.re), _leaf_ndim(c.du))
    return np.ndim(c)


def _node_axis(v, nd):
    """Per-node values v (nodes or weights) on a leading axis ahead of nd unit axes."""
    return v.reshape(-1, *[1] * nd)


def _on_nodes(theta, x):
    """The point stack [theta x1, x2, x3, x4] for theta from `_node_axis`."""
    x1, *rest = x
    return [theta * x1, *rest]


def _node(g, nd, k):
    """Node k (an index or a slice) of g, component by component into duals.

    A component without the node axis is constant over the nodes."""
    if isinstance(g, Dual):
        return Dual(_node(g.re, nd, k), _node(g.du, nd, k))
    return g[k] if np.ndim(g) > nd else g


def _node_sum(g, nd, start=0.0):
    """Gauss-Legendre weighted sum of g over its leading node axis.

    Runs component by component into duals; a component without the node
    axis is constant over the nodes.  One broadcast multiply by the weights,
    then a left fold in node order from `start`: 0.0 for the innermost real
    part, as `sum` starts, and -0.0, which keeps the first term, for a dual
    part.  numpy's reduction is that fold bit for bit, signed zeros included,
    with two or more elements per node; (8,) and (8, 1) arrays it sums
    pairwise, so those keep the Python fold."""
    if isinstance(g, Dual):
        return Dual(_node_sum(g.re, nd, start), _node_sum(g.du, nd, -0.0))
    ndim = np.ndim(g)
    # the weights ahead of g's own axes, or of all but its node axis
    terms = _node_axis(_WEIGHT, ndim - 1 if ndim > nd else ndim) * g
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0, initial=start)
    for term in terms:
        start = start + term
    return start


@dataclass
class MoserMap:
    """Normalizing diffeomorphism between the flat volume and alpha * volume.

    h = h(1) of the interpolation flow for omega_s = ((1-s) + s*alpha) vol,
    built so that h transports the flat volume to the alpha one:
    det Dh(x) * alpha(h(x)) = 1, so its inverse along x1 is the primitive
    y1 beta_alpha(y) (`moser_beta`).  The generating field Y_s is radial along
    x1 (the invariant-primitive direction) and commutes with the saddle when
    alpha is saddle invariant (checked by the audits, not assumed here).
    Points are one 4-vector or an (n, 4) batch; every row moves on its own.
    """

    alpha: object
    radius: float
    steps: int = 1000
    # work done by the passes of this map: `_integrate` calls and RK4 steps
    counters: dict = field(init=False, repr=False, compare=False, default_factory=lambda:
                           dict.fromkeys(("map_passes", "rk4_steps"), 0))

    def velocity(self, s, x):
        """Y_s solving  i_{Y_s} omega_s = -(omega_1 - omega_0) primitive.

        With eta = beta * eta0 the only nonzero component is along x1:
        Y_1 = -beta(x) x1 / density_s(x), beta solving d/dx1 (x1 beta) =
        alpha - 1 (`moser_beta`).  x is a point of floats or duals, or four
        columns of a batch.
        """
        return [self._speed(s, x, _node_axis(_THETA_AT_X, _width(x))), 0.0, 0.0, 0.0]

    def _speed(self, s, x, theta):
        """The x1 component of Y_s, from one call of alpha on theta = 1 and the nodes.

        theta is `_THETA_AT_X` on its node axis.  alpha works elementwise and
        1.0 * x1 is exact, so node 0 is alpha(x) bit for bit."""
        nd = theta.ndim - 1
        a = self.alpha(_on_nodes(theta, x))
        den = (1.0 - s) + s * _node(a, nd, 0)
        bad = np.asarray(value(den)) <= 0.0
        if bad.any():
            i = np.flatnonzero(bad)[0]
            point = np.array([value(c) for c in x], dtype=float).reshape(4, -1)[:, i]
            raise PathDegenerate(s, point, np.ravel(value(den))[i])
        beta = _node_sum(_node(a, nd, slice(1, None)) - 1.0, nd)
        return -beta * x[0] / den

    def _integrate(self, x, s0, s1):
        """RK4 in s for x1 alone: Y_s moves only x1, so x2..x4 are parameters.

        x is a point or an (n, 4) batch.  Dual(x, t) carries the tangent t e1
        (t a float or a column) through the same steps to Dual(h(x), t dh1/dx1):
        forward mode through RK4 is RK4 on the variational equation."""
        out = np.array(value(x), dtype=float)
        rows = out.reshape(-1, 4)
        x1, *rest = rows.T
        if isinstance(x, Dual):
            x1 = Dual(x1, x.du)
        # the coordinates are columns: one axis behind the node axis
        theta = _node_axis(_THETA_AT_X, 1)
        f = lambda s, y: self._speed(s, [y, *rest], theta)
        h = (s1 - s0) / self.steps
        s = s0
        self.counters["map_passes"] += 1
        for _ in range(self.steps):
            x1 = rk4_step(f, s, x1, h)
            self.counters["rk4_steps"] += 1
            s += h
            r = np.sqrt(sum(c * c for c in [value(x1), *rest]))
            if (r > self.radius).any():
                i = np.argmax(r)
                raise PathDegenerate(s, [value(x1)[i], *(c[i] for c in rest)], math.nan,
                                     radius=self.radius)
        rows[:, 0] = value(x1)
        return Dual(out, x1.du) if isinstance(x, Dual) else out

    def __call__(self, x):
        return self._integrate(x, 0.0, 1.0)

    def inverse(self, y):
        return self._integrate(y, 1.0, 0.0)

    def transport_residuals(self, y):
        """Both readings of the volume transport at each row of a forward image.

        y = h(Dual(x, 1)) for a point or an (n, 4) batch x: the images h(x)
        with the tangents dh1/dx1.  forward: det Dh(x) * alpha(h(x)) - 1   (h
        carries the flat volume to the alpha volume); det Dh = dh1/dx1, since
        x2..x4 stay put.  The forward pass is the caller's, so one that needs
        other images of h gets them from the same pass, and it is the RK4 side
        that can fail.  inverse: det DA(y) - alpha(y) at y = h(x), where
        A(y) = y1 beta_alpha(y), the integral of alpha over [0, y1], is the
        closed-form inverse of h along x1 (`moser_beta`); det DA = dA/dy1 comes
        from one call of beta seeded on y1, and no inverse pass is made.
        """
        rows = np.reshape(y.re, (-1, 4))
        x1, *rest = rows.T
        a = self.alpha([x1, *rest])
        y1 = Dual(x1, np.ones(len(rows)))
        return y.du * a - 1.0, tangent(y1 * moser_beta(self.alpha)([y1, *rest])) - a


_AUDIT_TIMES = (0.0, 0.5, 1.0)


def equivariance_audit(h: MoserMap, X, probes):
    """Largest commutator |[X, Y_s]| over probes and the interpolation times s = 0, 1/2, 1.

    [X, Y](x) = DY(x) X(x) - DX(x) Y(x), assembled with dual numbers on the
    probe columns; zero exactly when the normalizing field commutes with the
    saddle.  The witness is the first (s, probe) at the maximum; a NaN
    commutator is the maximum.
    """
    probes = np.asarray(probes, dtype=float).reshape(-1, 4)
    x, n = list(probes.T), len(probes)
    DX = _per_probe([[partial(X[i], x, j) for j in range(4)] for i in range(4)], n)
    Xx = _per_probe([Xi(x) for Xi in X], n)
    sizes, comms = [], []
    for s in _AUDIT_TIMES:
        Yx = _per_probe(h.velocity(s, x), n)
        # one seeded velocity call per column j gives all four rows of DY
        DY = np.stack([_per_probe([tangent(v) for v in h.velocity(s, seed(x, j))], n)
                       for j in range(4)], axis=-1)
        comm = (DY @ Xx[..., None] - DX @ Yx[..., None])[..., 0]
        comms.append(comm)
        sizes.append(_radius(comm))
    worst = float(np.max(sizes, initial=0.0))
    if worst == 0.0:
        return worst, None
    k, i = np.unravel_index(np.argmax(sizes), np.shape(sizes))
    return worst, {"s": _AUDIT_TIMES[k], "x": probes[i].tolist(),
                   "commutator": comms[k][i].tolist()}


def _per_probe(entries, n):
    """(n, 4) array from four columns or constants; (n, 4, 4) from four lists of them."""
    if isinstance(entries[0], list):
        return np.stack([_per_probe(row, n) for row in entries], axis=1)
    return np.stack([np.broadcast_to(value(c), n) for c in entries], axis=1)


def invariant_products():
    """Generators x1 x3, x1 x4, x2 x3, x2 x4 of the saddle-invariant algebra."""
    pairs = [(0, 2), (0, 3), (1, 2), (1, 3)]
    return [(lambda i, j: lambda x: x[i] * x[j])(i, j) for i, j in pairs]
