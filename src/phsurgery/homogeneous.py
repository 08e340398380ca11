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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

J0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
T0 = (1.0 / math.sqrt(2.0)) * np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex)


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


@dataclass(frozen=True)
class HermitianForm:
    """Signature-(n,1) Hermitian form with its Gram matrix."""

    n: int
    kind: str  # 'diag' | 'split'

    @property
    def matrix(self):
        return form_matrix(self.n, self.kind)

    def signature_ok(self, tol=1e-10):
        m = self.matrix
        if np.abs(m - m.conj().T).max() > tol:
            return False
        eig = np.linalg.eigvalsh(m)
        return int((eig > tol).sum()) == self.n and int((eig < -tol).sum()) == 1


def conjugator(n):
    """T = blockdiag(Id, T0): maps the split-form group to the diagonal-form one."""
    T = np.eye(n + 1, dtype=complex)
    T[n - 1:, n - 1:] = T0
    return T


# ---------------------------------------------------------------------------
# algebra and group elements (split form unless stated)


def in_su(B, n, kind="split", tol=1e-12):
    """Membership in the special unitary algebra of the chosen form."""
    B = np.asarray(B, dtype=complex)
    if B.shape != (n + 1, n + 1):
        raise ValueError(f"matrix shape {B.shape} does not match n={n}")
    J = form_matrix(n, kind)
    return bool(abs(np.trace(B)) <= tol and np.abs(B.conj().T @ J + J @ B).max() <= tol)


def block_decompose(B, n):
    """Split B into (A, v, D): the u(n-1) block, the column pair, the 2x2 tail.

    For algebra members the lower-left block is determined as -J0 v*^T and
    D = [[a, ib], [ic, -conj(a)]] with real b, c.
    """
    B = np.asarray(B, dtype=complex)
    A = B[: n - 1, : n - 1]
    v = B[: n - 1, n - 1:]
    D = B[n - 1:, n - 1:]
    return A, v, D


def algebra_element(A, v, D, n):
    """Assemble a split-form algebra element from blocks (validated)."""
    B = np.zeros((n + 1, n + 1), dtype=complex)
    B[: n - 1, : n - 1] = A
    B[: n - 1, n - 1:] = v
    B[n - 1:, : n - 1] = -J0 @ v.conj().T
    B[n - 1:, n - 1:] = D
    if not in_su(B, n):
        raise ValueError("blocks do not satisfy the algebra constraints")
    return B


def random_algebra_element(n, rng, scale=0.3):
    """Seeded generic member of the split-form algebra."""
    X = rng.standard_normal((n - 1, n - 1)) + 1j * rng.standard_normal((n - 1, n - 1))
    A = scale * 0.5 * (X - X.conj().T)
    v = scale * (rng.standard_normal((n - 1, 2)) + 1j * rng.standard_normal((n - 1, 2)))
    b, c = rng.standard_normal(2) * scale
    re_a = rng.standard_normal() * scale
    a = re_a - 0.5j * np.trace(A).imag
    D = np.array([[a, 1j * b], [1j * c, -np.conj(a)]], dtype=complex)
    return algebra_element(A, v, D, n)


def group_invariant_defect(g, n, kind="split"):
    """Max of the form-preservation and determinant residuals."""
    g = np.asarray(g, dtype=complex)
    J = form_matrix(n, kind)
    return float(max(np.abs(g.conj().T @ J @ g - J).max(), abs(np.linalg.det(g) - 1.0)))


def taylor_expm(A, terms=20):
    """Scaling-and-squaring Taylor exponential; independent of scipy's Pade."""
    A = np.asarray(A, dtype=complex)
    norm = np.linalg.norm(A, ord=np.inf)
    s = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    X = A / (2**s)
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for m in range(1, terms + 1):
        term = term @ X / m
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def conjugate_forms_check(n, n_samples=20, seed=0):
    """Residuals of the T-conjugation between the two form pictures.

    Returns (form-relation residual |T^* J_diag T - J_split|, worst
    member-transfer residual): split-form group elements pushed through T
    must preserve the diagonal form.
    """
    T = conjugator(n)
    Jd = form_matrix(n, "diag")
    Js = form_matrix(n, "split")
    rel = float(np.abs(T.conj().T @ Jd @ T - Js).max())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        g_split = expm(random_algebra_element(n, rng))
        g_diag = T @ g_split @ np.linalg.inv(T)
        worst = max(worst, group_invariant_defect(g_diag, n, "diag"))
    return rel, worst


# ---------------------------------------------------------------------------
# geodesic flow, horocycles, stabilizer, transversal


def geodesic(n, t):
    """d_t: identity block + diag(exp t, exp -t) tail (split form)."""
    g = np.eye(n + 1, dtype=complex)
    g[n - 1, n - 1] = math.exp(t)
    g[n, n] = math.exp(-t)
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


def transversal_element(v1, v2):
    """sigma(v1, v2) = exp of the pure-v algebra element; |(v1, v2)| < 0.5."""
    v1 = np.atleast_1d(np.asarray(v1, dtype=complex))
    v2 = np.atleast_1d(np.asarray(v2, dtype=complex))
    if len(v1) != len(v2):
        raise ValueError("v1 and v2 must have equal length n-1")
    norm = math.sqrt(float(np.sum(np.abs(v1) ** 2 + np.abs(v2) ** 2)))
    if norm >= 0.5:
        raise ValueError(f"transversal parameter too large: {norm:.3g} >= 0.5")
    return expm(transversal_generator(v1, v2))


def transversal_generator(v1, v2):
    """The algebra element A(v1, v2) that `transversal_element` exponentiates."""
    v1 = np.atleast_1d(np.asarray(v1, dtype=complex))
    v2 = np.atleast_1d(np.asarray(v2, dtype=complex))
    n = len(v1) + 1
    return algebra_element(np.zeros((n - 1, n - 1), dtype=complex),
                           np.column_stack([v1, v2]),
                           np.zeros((2, 2), dtype=complex), n)


def conj_identity_residual(v1, v2, t):
    """|d_t sigma(v1, v2) d_t^{-1} - sigma(e^{-t} v1, e^t v2)|."""
    v1 = np.atleast_1d(np.asarray(v1, dtype=complex))
    v2 = np.atleast_1d(np.asarray(v2, dtype=complex))
    n = len(v1) + 1
    lhs = geodesic(n, t) @ transversal_element(v1, v2) @ geodesic(n, -t)
    # the conjugated parameters may exceed the size gate, so exponentiate directly
    rhs = expm(transversal_generator(np.exp(-t) * v1, np.exp(t) * v2))
    return float(np.abs(lhs - rhs).max())


def psu11_embed(n, u2x2):
    """Embed a 2x2 split-form unitary as the lower-right block."""
    g = np.eye(n + 1, dtype=complex)
    g[n - 1:, n - 1:] = u2x2
    return g


def psu11_sample(n, rng, scale=0.4):
    """Seeded element of the embedded lower-block group."""
    a = rng.standard_normal() * scale
    b, c = rng.standard_normal(2) * scale
    D = np.array([[a, 1j * b], [1j * c, -a]], dtype=complex)
    return psu11_embed(n, expm(D))


def product_form_residual(v1, v2, u, t):
    """|d_t sigma(v) u - sigma(e^{-t} v1, e^t v2) d_t u| for embedded u.

    Zero means the geodesic flow acts as a product in the coordinates
    (v1, v2, base element): saddle on the transversal parameters, geodesic
    flow on the base.
    """
    v1 = np.atleast_1d(np.asarray(v1, dtype=complex))
    v2 = np.atleast_1d(np.asarray(v2, dtype=complex))
    n = len(v1) + 1
    lhs = geodesic(n, t) @ transversal_element(v1, v2) @ u
    rhs = expm(transversal_generator(np.exp(-t) * v1, np.exp(t) * v2)) @ geodesic(n, t) @ u
    return float(np.abs(lhs - rhs).max())


def w_element(A, root=1, n=None):
    """Stabilizer element blockdiag(A, conj(lam), conj(lam)), lam^2 = det A.

    Both square roots produce members (`root` = +-1): the stabilizer double
    covers the unitary group of the A block.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if n is None:
        n = A.shape[0] + 1
    if np.abs(A @ A.conj().T - np.eye(n - 1)).max() > 1e-10:
        raise ValueError("A block must be unitary")
    lam = root * np.sqrt(np.linalg.det(A) + 0j)
    g = np.zeros((n + 1, n + 1), dtype=complex)
    g[: n - 1, : n - 1] = A
    g[n - 1, n - 1] = np.conj(lam)
    g[n, n] = np.conj(lam)
    return g


def w_sample(n, rng):
    """Seeded stabilizer element (random unitary block, random root)."""
    X = rng.standard_normal((n - 1, n - 1)) + 1j * rng.standard_normal((n - 1, n - 1))
    Q, R = np.linalg.qr(X)
    Q = Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))
    return w_element(Q, root=1 if rng.random() < 0.5 else -1, n=n)


def w_membership(g, n, tol=1e-9):
    """Whether g has the stabilizer block pattern with lam^2 = det(A block)."""
    g = np.asarray(g, dtype=complex)
    A = g[: n - 1, : n - 1]
    if np.abs(g[: n - 1, n - 1:]).max() > tol or np.abs(g[n - 1:, : n - 1]).max() > tol:
        return False
    if abs(g[n - 1, n]) > tol or abs(g[n, n - 1]) > tol:
        return False
    lam_bar1, lam_bar2 = g[n - 1, n - 1], g[n, n]
    if abs(lam_bar1 - lam_bar2) > tol:
        return False
    if np.abs(A @ A.conj().T - np.eye(n - 1)).max() > tol:
        return False
    lam = np.conj(lam_bar1)
    return bool(abs(lam**2 - np.linalg.det(A)) <= tol)


def coset_equal(g1, g2, n, tol=1e-9):
    """Equality in the stabilizer quotient: g1 g2^{-1} in W(n-1)."""
    return w_membership(np.asarray(g1) @ np.linalg.inv(np.asarray(g2)), n, tol)


def stabilizer_intersection_defect(g, n, tol=1e-9):
    """Distance of a stabilizer member from the trivial joint elements.

    A stabilizer member that also lies in the embedded lower-block group
    must have identity A block, forcing lam = +-1, i.e. g = Id or
    g = blockdiag(Id, -Id_2); both project to the identity of the
    center-quotient base group.  Returns 0 exactly on that pair.
    """
    g = np.asarray(g, dtype=complex)
    if not w_membership(g, n, tol):
        raise ValueError("expected a stabilizer member")
    A = g[: n - 1, : n - 1]
    off_identity = np.abs(A - np.eye(n - 1)).max()
    if off_identity > tol:
        return float(min(off_identity, 1.0))
    flip = np.eye(n + 1, dtype=complex)
    flip[n - 1, n - 1] = flip[n, n] = -1.0
    d = min(np.abs(g - np.eye(n + 1)).max(), np.abs(g - flip).max())
    return float(min(d, 1.0))


# ---------------------------------------------------------------------------
# the local product parametrization


def _realify(M):
    """Flatten a complex matrix into a real vector (re and im parts)."""
    M = np.asarray(M, dtype=complex)
    return np.concatenate([M.real.ravel(), M.imag.ravel()])


def stabilizer_algebra_basis(n):
    """Real basis of the stabilizer algebra: blockdiag(A, x, x), x = -tr(A)/2."""
    basis = []
    m = n - 1

    def emb(A):
        B = np.zeros((n + 1, n + 1), dtype=complex)
        B[:m, :m] = A
        x = -np.trace(A) / 2.0
        B[n - 1, n - 1] = x
        B[n, n] = x
        return B

    for j in range(m):
        E = np.zeros((m, m), dtype=complex)
        E[j, j] = 1j
        basis.append(emb(E))
    for j in range(m):
        for l in range(j + 1, m):
            E = np.zeros((m, m), dtype=complex)
            E[j, l], E[l, j] = 1.0, -1.0
            basis.append(emb(E))
            E = np.zeros((m, m), dtype=complex)
            E[j, l], E[l, j] = 1j, 1j
            basis.append(emb(E))
    return basis


def transversal_algebra_basis(n):
    """Real basis of the pure-v block directions (4(n-1) of them)."""
    basis = []
    for col in range(2):
        for row in range(n - 1):
            for phase in (1.0, 1j):
                v = np.zeros((n - 1, 2), dtype=complex)
                v[row, col] = phase
                basis.append(algebra_element(np.zeros((n - 1, n - 1), dtype=complex),
                                             v, np.zeros((2, 2), dtype=complex), n))
    return basis


def base_algebra_basis(n):
    """Real basis of the embedded lower-block algebra (3 directions)."""
    out = []
    for D in (np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
              np.array([[0.0, 1j], [0.0, 0.0]], dtype=complex),
              np.array([[0.0, 0.0], [1j, 0.0]], dtype=complex)):
        B = np.zeros((n + 1, n + 1), dtype=complex)
        B[n - 1:, n - 1:] = D
        out.append(B)
    return out


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
    cols = []
    for name, basis in parts.items():
        mat = np.column_stack([_realify(B) for B in basis])
        rank = int(np.linalg.matrix_rank(mat, tol=1e-10))
        report["summands"][name] = {"dim": len(basis), "rank": rank,
                                    "expected": expected[name]}
        for B in basis:
            if not in_su(B, n, tol=1e-10):
                raise AssertionError(f"{name} basis member left the algebra")
        cols.append(mat)
    full = np.column_stack(cols)
    sv = np.linalg.svd(full, compute_uv=False)
    report["total_rank"] = int(np.linalg.matrix_rank(full, tol=1e-10))
    report["smallest_singular_value"] = float(sv.min())
    report["full_rank"] = report["total_rank"] == report["expected_total"]
    return report
