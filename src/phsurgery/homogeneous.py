"""Matrix model of the complex hyperbolic geodesic flow at the group level.

Everything is exact (n+1) x (n+1) complex linear algebra for the special
unitary group of a signature-(n,1) Hermitian form.  Two equivalent forms
are kept: the diagonal one J = diag(1, ..., 1, -1) and the off-diagonal
one with lower block J0 = [[0, 1], [1, 0]]; the constant matrix T built
from T0 = (1/sqrt 2) [[1, 1], [-1, 1]] conjugates one group onto the other.

The geodesic one-parameter subgroup, the stable/unstable horocycles, the
tangent-vector stabilizer W(n-1) and the exp-image transversal of v-block
matrices give a completely checkable local product structure: conjugating
the transversal by the geodesic element scales its two column parameters
by exp(-t) and exp(+t), while the horocycle parameters scale by
exp(-+ 2t) -- the rate separation that makes the flow a saddle times a
faster base.

Every operation takes one (n+1) x (n+1) matrix or an (m, n+1, n+1) stack
and is one formula on the trailing axes, so a single matrix is the 2-D
case; flags and residuals come back one per stack row.  Parameter vectors
(v1, v2) are (n-1,) or (m, n-1), and a time t is a float or an (m,) array.
"""

from __future__ import annotations

import math

import numpy as np

J0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
T0 = (1.0 / math.sqrt(2.0)) * np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex)


def _h(M):
    """Conjugate transpose of a matrix or of every matrix of a stack."""
    return M.conj().swapaxes(-1, -2)


def _max_abs(M):
    """Largest |entry| of a matrix, or one per matrix of a stack."""
    return np.abs(M).max(axis=(-2, -1))


def _identity(n, lead=()):
    """The (n+1) x (n+1) identity, repeated over the leading shape `lead`."""
    return np.broadcast_to(np.eye(n + 1, dtype=complex), (*lead, n + 1, n + 1)).copy()


def form_matrix(n, kind):
    """Gram matrix of the signature-(n,1) form: 'diag' or 'split'."""
    if kind == "diag":
        m = np.eye(n + 1, dtype=complex)
        m[n, n] = -1.0
        return m
    if kind == "split":
        m = np.eye(n + 1, dtype=complex)
        m[n - 1:, n - 1:] = J0
        return m
    raise ValueError(f"unknown form kind {kind!r}")


def signature_ok(n, kind):
    """Whether the Gram matrix is Hermitian with n positive and one negative eigenvalue."""
    m = form_matrix(n, kind)
    eig = np.linalg.eigvalsh(m)
    return bool(np.abs(m - _h(m)).max() <= 1e-10
                and (eig > 1e-10).sum() == n and (eig < -1e-10).sum() == 1)


def conjugator(n):
    """T = blockdiag(Id, T0): maps the split-form group to the diagonal-form one."""
    T = np.eye(n + 1, dtype=complex)
    T[n - 1:, n - 1:] = T0
    return T


# ---------------------------------------------------------------------------
# algebra and group elements (split form unless stated)


def in_su(B, n, tol=1e-12):
    """Membership in the split-form special unitary algebra."""
    if B.shape[-2:] != (n + 1, n + 1):
        raise ValueError(f"matrix shape {B.shape} does not match n={n}")
    J = form_matrix(n, "split")
    return ((np.abs(np.trace(B, axis1=-2, axis2=-1)) <= tol)
            & (_max_abs(_h(B) @ J + J @ B) <= tol))


def block_decompose(B, n):
    """Split B into (A, v, D): the u(n-1) block, the column pair, the 2x2 tail.

    For algebra members the lower-left block is determined as -J0 v*^T and
    D = [[a, ib], [ic, -conj(a)]] with real b, c.
    """
    return B[..., : n - 1, : n - 1], B[..., : n - 1, n - 1:], B[..., n - 1:, n - 1:]


def algebra_element(A, v, D, n):
    """Assemble a split-form algebra element from blocks (validated).

    The stack shape comes from v, of shape (n-1, 2) or (m, n-1, 2); A and D
    broadcast against it.
    """
    B = np.zeros(v.shape[:-2] + (n + 1, n + 1), dtype=complex)
    B[..., : n - 1, : n - 1] = A
    B[..., : n - 1, n - 1:] = v
    B[..., n - 1:, : n - 1] = -J0 @ _h(v)
    B[..., n - 1:, n - 1:] = D
    if not in_su(B, n).all():
        raise ValueError("blocks do not satisfy the algebra constraints")
    return B


def random_algebra_element(n, rng, count=None):
    """Seeded generic member of the split-form algebra (entries of scale 0.3), or a stack of count.

    A stack draws one block of normals: those of count single calls, in their order.
    """
    m = n - 1
    Z = rng.standard_normal((1 if count is None else count, 2 * m * m + 4 * m + 3))
    X, Y, V, W = np.split(Z[:, :-3], np.cumsum([m * m, m * m, 2 * m]), axis=1)
    X = X.reshape(-1, m, m) + 1j * Y.reshape(-1, m, m)
    A = 0.3 * 0.5 * (X - X.conj().swapaxes(1, 2))
    v = 0.3 * (V.reshape(-1, m, 2) + 1j * W.reshape(-1, m, 2))
    b, c, re_a = (Z[:, -3:] * 0.3).T
    a = re_a - 0.5j * np.trace(A, axis1=1, axis2=2).imag
    D = np.stack([a, 1j * b, 1j * c, -np.conj(a)], axis=1).reshape(-1, 2, 2)
    B = algebra_element(A, v, D, n)
    return B[0] if count is None else B


def group_invariant_defect(g, n, kind="split"):
    """Max of the form-preservation and determinant residuals."""
    J = form_matrix(n, kind)
    e = np.linalg.det(g) - 1.0
    # libm's hypot, as abs() of one complex; numpy's array |z| can differ in the last bit
    return np.maximum(_max_abs(_h(g) @ J @ g - J), np.hypot(e.real, e.imag))


def taylor_expm(A):
    """Scaling-and-squaring 20-term Taylor exponential: the group exponential.

    Each matrix of a stack gets its own scaling exponent s and is squared s
    times.  `spectral_expm` is its oracle in the homogeneous suite.
    """
    norm = np.linalg.norm(A, ord=np.inf, axis=(-2, -1))
    s = np.ceil(np.log2(np.maximum(norm, 0.25) / 0.25)).astype(int)
    X = A / (2.0 ** s)[..., None, None]
    out = term = np.eye(A.shape[-1], dtype=complex)
    for m in range(1, 21):
        term = term @ X / m
        out = out + term
    for i in range(s.max(initial=0)):
        out = np.where((s > i)[..., None, None], out @ out, out)
    return out


def spectral_expm(A):
    """V diag(exp w) V^-1 from the eigendecomposition of A, one per stack row.

    Moler and Van Loan's eigenvector method: an algorithm family apart from
    Taylor scaling and squaring, so it serves as `taylor_expm`'s oracle.  It
    needs A diagonalizable with well-conditioned eigenvectors, which the
    generic algebra elements the suite draws are.
    """
    w, V = np.linalg.eig(A)
    return (V * np.exp(w)[..., None, :]) @ np.linalg.inv(V)


def conjugate_forms_check(n, seed=0):
    """Residuals of the T-conjugation between the two form pictures.

    Returns (form-relation residual |T^* J_diag T - J_split|, worst
    member-transfer residual): 20 seeded split-form group elements pushed
    through T must preserve the diagonal form.
    """
    T = conjugator(n)
    rel = float(_max_abs(_h(T) @ form_matrix(n, "diag") @ T - form_matrix(n, "split")))
    rng = np.random.default_rng(seed)
    g_split = taylor_expm(random_algebra_element(n, rng, 20))
    g_diag = T @ g_split @ np.linalg.inv(T)
    return rel, float(group_invariant_defect(g_diag, n, "diag").max())


# ---------------------------------------------------------------------------
# geodesic flow, horocycles, stabilizer, transversal


def geodesic(n, t):
    """d_t: identity block + diag(exp t, exp -t) tail (split form); one per entry of t."""
    g = _identity(n, np.shape(t))
    g[..., n - 1, n - 1] = np.exp(t)
    g[..., n, n] = np.exp(-t)
    return g


def horocycle(n, kind, t):
    """Strong stable ('s') or unstable ('u') horocycle element."""
    g = np.eye(n + 1, dtype=complex)
    if kind == "s":
        g[n - 1, n] = 1j * t
    elif kind == "u":
        g[n, n - 1] = 1j * t
    else:
        raise ValueError("horocycle kind must be 's' or 'u'")
    return g


def horocycle_scaling_residual(n, t, tau):
    """|d_t h^s_tau d_-t - h^s_(tau e^{2t})| and the unstable counterpart."""
    dt = geodesic(n, t)
    dti = geodesic(n, -t)
    rs = np.abs(dt @ horocycle(n, "s", tau) @ dti
                - horocycle(n, "s", tau * math.exp(2 * t))).max()
    ru = np.abs(dt @ horocycle(n, "u", tau) @ dti
                - horocycle(n, "u", tau * math.exp(-2 * t))).max()
    return float(rs), float(ru)


def transversal_generator(v1, v2):
    """The algebra element A(v1, v2) that `transversal_element` exponentiates."""
    return algebra_element(0.0, np.stack([v1, v2], axis=-1), 0.0, v1.shape[-1] + 1)


def transversal_element(v1, v2):
    """sigma(v1, v2) = exp of the pure-v algebra element; |(v1, v2)| < 0.5 per row."""
    norm = np.sqrt(np.sum(np.abs(v1) ** 2 + np.abs(v2) ** 2, axis=-1))
    if (norm >= 0.5).any():
        raise ValueError(f"transversal parameter too large: {norm.max():.3g} >= 0.5")
    return taylor_expm(transversal_generator(v1, v2))


def local_product_residuals(v1, v2, u, t):
    """(|d_t sigma d_t^{-1} - sigma'|, |d_t sigma u - sigma' d_t u|) per row.

    Here sigma = sigma(v1, v2), sigma' = sigma(e^{-t} v1, e^t v2) and u lies
    in the embedded lower-block group.  Zero means the geodesic flow acts as
    a product in the coordinates (v1, v2, base element): saddle on the
    transversal parameters, geodesic flow on the base.
    """
    n = v1.shape[-1] + 1
    d = geodesic(n, t)
    d_sigma = d @ transversal_element(v1, v2)
    # the conjugated parameters may exceed the size gate, so exponentiate directly
    sigma_t = taylor_expm(transversal_generator(np.exp(-t)[..., None] * v1,
                                                np.exp(t)[..., None] * v2))
    return (_max_abs(d_sigma @ geodesic(n, -t) - sigma_t),
            _max_abs(d_sigma @ u - sigma_t @ d @ u))


def psu11_generator(rng):
    """Seeded generator [[a, ib], [ic, -a]] of the lower-block group (scale 0.4)."""
    a = rng.standard_normal() * 0.4
    b, c = rng.standard_normal(2) * 0.4
    return np.array([[a, 1j * b], [1j * c, -a]], dtype=complex)


def psu11_element(D, n):
    """exp(D) embedded as the lower-right block; D is (2, 2) or (m, 2, 2)."""
    g = _identity(n, D.shape[:-2])
    g[..., n - 1:, n - 1:] = taylor_expm(D)
    return g


def w_element(A, root=1):
    """Stabilizer element blockdiag(A, conj(lam), conj(lam)), lam^2 = det A.

    Both square roots produce members (`root` = +-1, or one per row): the
    stabilizer double covers the unitary group of the A block.
    """
    n = A.shape[-1] + 1
    if np.abs(A @ _h(A) - np.eye(n - 1)).max() > 1e-10:
        raise ValueError("A block must be unitary")
    lam = root * np.sqrt(np.linalg.det(A) + 0j)
    g = np.zeros(A.shape[:-2] + (n + 1, n + 1), dtype=complex)
    g[..., : n - 1, : n - 1] = A
    g[..., n - 1, n - 1] = g[..., n, n] = np.conj(lam)
    return g


def w_sample(n, rng):
    """Seeded stabilizer element (random unitary block, random root)."""
    X = rng.standard_normal((n - 1, n - 1)) + 1j * rng.standard_normal((n - 1, n - 1))
    Q, R = np.linalg.qr(X)
    Q = Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))
    return w_element(Q, root=1 if rng.random() < 0.5 else -1)


def w_membership(g, n):
    """Whether g has the stabilizer block pattern with lam^2 = det(A block), to 1e-9."""
    A = g[..., : n - 1, : n - 1]
    lam_bar = g[..., n - 1, n - 1]
    rest = g.copy()
    rest[..., : n - 1, : n - 1] = rest[..., n - 1, n - 1] = rest[..., n, n] = 0.0
    return ((_max_abs(rest) <= 1e-9)
            & (np.abs(lam_bar - g[..., n, n]) <= 1e-9)
            & (_max_abs(A @ _h(A) - np.eye(n - 1)) <= 1e-9)
            & (np.abs(np.conj(lam_bar) ** 2 - np.linalg.det(A)) <= 1e-9))


def coset_equal(g1, g2, n):
    """Equality in the stabilizer quotient: g1 g2^{-1} in W(n-1)."""
    return w_membership(g1 @ np.linalg.inv(g2), n)


def stabilizer_intersection_defect(g, n):
    """Distance of a stabilizer member from the trivial joint elements.

    A stabilizer member that also lies in the embedded lower-block group
    must have identity A block, forcing lam = +-1, i.e. g = Id or
    g = blockdiag(Id, -Id_2); both project to the identity of the
    center-quotient base group.  Returns 0 exactly on that pair.
    """
    if not w_membership(g, n).all():
        raise ValueError("expected a stabilizer member")
    off_identity = _max_abs(g[..., : n - 1, : n - 1] - np.eye(n - 1))
    flip = np.eye(n + 1, dtype=complex)
    flip[n - 1, n - 1] = flip[n, n] = -1.0
    d = np.minimum(_max_abs(g - np.eye(n + 1)), _max_abs(g - flip))
    return np.minimum(np.where(off_identity > 1e-9, off_identity, d), 1.0)


# ---------------------------------------------------------------------------
# the local product parametrization


def _realify(basis):
    """Real matrix with one column (re and im parts) per member of a stack."""
    flat = basis.reshape(len(basis), -1)
    return np.concatenate([flat.real, flat.imag], axis=1).T


def stabilizer_algebra_basis(n):
    """Real basis of the stabilizer algebra: blockdiag(A, x, x), x = -tr(A)/2."""
    m = n - 1
    A = []
    for j in range(m):
        A.append(np.zeros((m, m), dtype=complex))
        A[-1][j, j] = 1j
    for j in range(m):
        for l in range(j + 1, m):
            for upper, lower in ((1.0, -1.0), (1j, 1j)):
                A.append(np.zeros((m, m), dtype=complex))
                A[-1][j, l], A[-1][l, j] = upper, lower
    A = np.array(A)
    B = np.zeros((len(A), n + 1, n + 1), dtype=complex)
    B[:, :m, :m] = A
    B[:, n - 1, n - 1] = B[:, n, n] = -np.trace(A, axis1=-2, axis2=-1) / 2.0
    return B


def transversal_algebra_basis(n):
    """Real basis of the pure-v block directions (4(n-1) of them)."""
    cells = [(row, col, phase)
             for col in range(2) for row in range(n - 1) for phase in (1.0, 1j)]
    v = np.zeros((len(cells), n - 1, 2), dtype=complex)
    for i, (row, col, phase) in enumerate(cells):
        v[i, row, col] = phase
    return algebra_element(0.0, v, 0.0, n)


def base_algebra_basis(n):
    """Real basis of the embedded lower-block algebra (3 directions)."""
    B = np.zeros((3, n + 1, n + 1), dtype=complex)
    B[:, n - 1:, n - 1:] = [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1j], [0.0, 0.0]],
                            [[0.0, 0.0], [1j, 0.0]]]
    return B


def local_diffeo_check(n):
    """Rank of the assembled derivative of (w, sigma, u) -> w sigma u at Id.

    The three summands must be independent and span the whole algebra:
    (n-1)^2 + (4n-4) + 3 = n^2 + 2n.  Returns a report with the summand
    dimensions, the total rank, and the smallest singular value of the
    assembled basis matrix.
    """
    parts = {
        "stabilizer": stabilizer_algebra_basis(n),
        "transversal": transversal_algebra_basis(n),
        "base": base_algebra_basis(n),
    }
    expected = {"stabilizer": (n - 1) ** 2, "transversal": 4 * n - 4, "base": 3}
    report = {"n": n, "expected_total": n * n + 2 * n, "summands": {}}
    for name, basis in parts.items():
        if not in_su(basis, n, tol=1e-10).all():
            raise AssertionError(f"{name} basis member left the algebra")
        rank = int(np.linalg.matrix_rank(_realify(basis), tol=1e-10))
        report["summands"][name] = {"dim": len(basis), "rank": rank,
                                    "expected": expected[name]}
    full = _realify(np.concatenate(list(parts.values())))
    sv = np.linalg.svd(full, compute_uv=False)
    report["total_rank"] = int(np.linalg.matrix_rank(full, tol=1e-10))
    report["smallest_singular_value"] = float(sv.min())
    report["full_rank"] = report["total_rank"] == report["expected_total"]
    return report
