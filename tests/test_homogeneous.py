import math

import numpy as np
import pytest
from scipy.linalg import expm

from phsurgery import homogeneous as hg
from phsurgery import suites
from phsurgery.config import CampaignConfig


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(123)


def _stack(draw, m=5):
    return np.stack([draw() for _ in range(m)])


def _one_algebra_element(n, rng):
    """One element drawn call by call: the reference of `random_algebra_element`'s stack."""
    X = rng.standard_normal((n - 1, n - 1)) + 1j * rng.standard_normal((n - 1, n - 1))
    A = 0.3 * 0.5 * (X - X.conj().T)
    v = 0.3 * (rng.standard_normal((n - 1, 2)) + 1j * rng.standard_normal((n - 1, 2)))
    b, c = rng.standard_normal(2) * 0.3
    re_a = rng.standard_normal() * 0.3
    a = re_a - 0.5j * np.trace(A).imag
    D = np.array([[a, 1j * b], [1j * c, -np.conj(a)]], dtype=complex)
    return hg.algebra_element(A, v, D, n)


class TestFormsAndAlgebra:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_signatures(self, n):
        assert hg.signature_ok(n, "diag")
        assert hg.signature_ok(n, "split")

    def test_t0_entries(self):
        expected = (1 / math.sqrt(2)) * np.array([[1, 1], [-1, 1]])
        assert np.abs(hg.T0 - expected).max() == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_is_member_with_zero_blocks(self, n):
        Z = np.zeros((3, n + 1, n + 1), dtype=complex)
        assert hg.in_su(Z, n).all()
        A, v, D = hg.block_decompose(Z, n)
        assert not A.any() and not v.any() and not D.any()

    def test_geodesic_generator_blocks(self):
        n = 3
        eps = 1e-8
        B = (hg.geodesic(n, eps) - np.eye(n + 1)) / eps
        assert hg.in_su(B, n, tol=1e-7)
        A, v, D = hg.block_decompose(B, n)
        assert np.abs(A).max() < 1e-7 and np.abs(v).max() < 1e-7
        assert D == pytest.approx(np.array([[1, 0], [0, -1]]), abs=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_membership_and_roundtrip(self, n, rng):
        B = _stack(lambda: hg.random_algebra_element(n, rng))
        assert hg.in_su(B, n).all()
        A, v, D = hg.block_decompose(B, n)
        assert np.abs(hg.algebra_element(A, v, D, n) - B).max() < 1e-14
        # lower-left is determined by the column pair
        assert np.abs(B[:, n - 1:, : n - 1] + hg.J0 @ v.conj().swapaxes(-1, -2)).max() == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 20])
    def test_stacked_draw_equals_single_calls(self, n, m):
        # one block of normals, in the order of m single calls: the same
        # elements bit for bit, and the generator left in the same state
        stacked, single = np.random.default_rng(5), np.random.default_rng(5)
        B = hg.random_algebra_element(n, stacked, m)
        assert B.shape == (m, n + 1, n + 1)
        assert B.tobytes() == _stack(lambda: _one_algebra_element(n, single), m).tobytes()
        assert stacked.bit_generator.state == single.bit_generator.state
        one = hg.random_algebra_element(n, stacked)
        assert one.shape == (n + 1, n + 1)
        assert one.tobytes() == _one_algebra_element(n, single).tobytes()
        assert stacked.bit_generator.state == single.bit_generator.state

    def test_hermitian_perturbation_rejected(self, rng):
        B = _stack(lambda: hg.random_algebra_element(3, rng))
        P = np.zeros((4, 4), dtype=complex)
        P[0, 0] = 1e-5
        assert not hg.in_su(B + P, 3, tol=1e-9).any()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exponential_lands_in_group(self, n, rng):
        # scipy's Pade approximant is the oracle of both the run's kernels
        B = _stack(lambda: hg.random_algebra_element(n, rng), m=20)
        g = expm(B)
        assert (hg.group_invariant_defect(g, n) < 1e-10).all()
        assert np.abs(hg.taylor_expm(B) - g).max() < 1e-13
        spectral = hg.spectral_expm(B)
        assert np.abs(spectral - g).max() < 1e-13
        assert np.abs(spectral - hg.taylor_expm(B)).max() < 1e-13


class TestConjugation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_form_relation_and_transfer(self, n):
        rel, worst = hg.conjugate_forms_check(n, seed=3)
        assert rel < 1e-14
        assert worst < 1e-9

    def test_identity_maps_to_identity(self):
        T = hg.conjugator(3)
        assert np.abs(T @ np.eye(4) @ np.linalg.inv(T) - np.eye(4)).max() < 1e-15


class TestFlowSubgroups:
    def test_identity_elements(self):
        assert np.abs(hg.geodesic(2, 0.0) - np.eye(3)).max() == 0.0
        assert np.abs(hg.horocycle(2, "s", 0.0) - np.eye(3)).max() == 0.0

    def test_one_parameter_laws(self):
        n = 3
        assert np.abs(hg.geodesic(n, np.array([0.3, -0.2])) @ hg.geodesic(n, 0.4)
                      - hg.geodesic(n, np.array([0.7, 0.2]))).max() < 1e-15
        assert np.abs(hg.horocycle(n, "u", 0.2) @ hg.horocycle(n, "u", 0.5)
                      - hg.horocycle(n, "u", 0.7)).max() == 0.0

    @pytest.mark.parametrize("t,tau", [(0.7, 0.31), (-1.3, -0.11), (2.0, 1.0)])
    def test_horocycle_scaling(self, t, tau):
        rs, ru = hg.horocycle_scaling_residual(2, t, tau)
        assert rs < 1e-10 and ru < 1e-10

    def test_members_of_group(self):
        g = np.stack([hg.geodesic(2, 0.9), hg.horocycle(2, "s", 1.3),
                      hg.horocycle(2, "u", -0.4)])
        assert (hg.group_invariant_defect(g, 2) < 1e-12).all()


class TestTransversal:
    def test_zero_gives_identity(self):
        assert np.abs(hg.transversal_element(np.zeros((2, 1)), np.zeros((2, 1)))
                      - np.eye(3)).max() == 0.0

    def test_exp_inverse(self, rng):
        v1 = 0.1 * rng.standard_normal((3, 2))
        v2 = 0.1 * rng.standard_normal((3, 2))
        g = hg.transversal_element(v1, v2)
        ginv = hg.transversal_element(-v1, -v2)
        assert np.abs(g @ ginv - np.eye(4)).max() < 1e-12

    def test_member_invariants(self):
        g = hg.transversal_element(np.array([0.1]), np.array([0.0]))
        assert hg.group_invariant_defect(g, 2) < 1e-12

    def test_size_gate(self):
        with pytest.raises(ValueError, match="too large"):
            hg.transversal_element(np.array([0.5]), np.array([0.4]))
        # one row past the gate rejects the stack
        with pytest.raises(ValueError, match="too large"):
            hg.transversal_element(np.array([[0.1], [0.5]]), np.array([[0.0], [0.4]]))

    def test_conjugation_scales_parameters(self):
        # the geodesic conjugation acts as the saddle on (v1, v2)
        B = hg.transversal_generator(np.array([0.07 + 0.02j]), np.array([0.03j]))
        n = 2
        t = 0.9
        conj = hg.geodesic(n, t) @ B @ hg.geodesic(n, -t)
        expected = hg.transversal_generator(np.array([0.07 + 0.02j]) * math.exp(-t),
                                            np.array([0.03j]) * math.exp(t))
        assert np.abs(conj - expected).max() < 1e-14

    @pytest.mark.parametrize("t", [0.0, 0.7, 5.0])
    def test_conj_identity(self, t):
        r, _ = hg.local_product_residuals(np.array([0.05j, 0.02]), np.array([0.01, 0.03j]),
                                          np.eye(4), t)
        assert r < (1e-10 if t <= 1 else 1e-8)

    def test_product_form(self, rng):
        draws = [(0.06 * (rng.standard_normal(1) + 1j * rng.standard_normal(1)),
                  0.06 * (rng.standard_normal(1) + 1j * rng.standard_normal(1)),
                  hg.psu11_generator(rng), rng.uniform(-1.5, 1.5)) for _ in range(100)]
        v1, v2, D, t = map(np.array, zip(*draws))
        _, prod = hg.local_product_residuals(v1, v2, hg.psu11_element(D, 2), t)
        assert prod.shape == (100,)
        assert prod.max() < 1e-9

    def test_product_form_reduces_to_conjugation_at_identity(self):
        v1, v2 = np.array([0.05]), np.array([0.02j])
        r1, r2 = hg.local_product_residuals(v1, v2, np.eye(3, dtype=complex), 0.8)
        assert abs(r1 - r2) < 1e-12


class TestStabilizer:
    def test_identity_member(self):
        assert hg.w_membership(np.eye(4, dtype=complex), 3)

    def test_double_cover(self):
        A = np.array([[np.exp(0.6j)]])
        w = hg.w_element(np.stack([A, A]), np.array([1, -1]))
        assert hg.w_membership(w, 2).all()
        assert (hg.group_invariant_defect(w, 2) < 1e-12).all()
        assert np.abs(w[0] + w[1])[1:, 1:].max() == 0.0

    def test_root_constraint_enforced(self):
        g = np.diag([np.exp(0.6j), 1.0, 1.0]).astype(complex)
        assert not hg.w_membership(g, 2)  # lam = 1 but det A != 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coset_relation(self, n, rng):
        g = expm(_stack(lambda: hg.random_algebra_element(n, rng)))
        w = _stack(lambda: hg.w_sample(n, rng))
        assert hg.coset_equal(g, g, n).all()
        assert hg.coset_equal(w @ g, g, n).all()
        assert hg.coset_equal(g, w @ g, n).all()
        assert not hg.coset_equal(hg.horocycle(n, "s", 0.1) @ g, g, n).any()

    def test_trivial_intersection(self):
        A = np.eye(1, dtype=complex) * np.exp(0.6j)
        assert hg.stabilizer_intersection_defect(hg.w_element(A), 2) > 0.1
        flip = np.eye(3, dtype=complex)
        flip[1, 1] = flip[2, 2] = -1.0
        assert hg.stabilizer_intersection_defect(flip, 2) == 0.0
        assert hg.stabilizer_intersection_defect(np.eye(3, dtype=complex), 2) == 0.0
        with pytest.raises(ValueError, match="stabilizer member"):
            hg.stabilizer_intersection_defect(np.stack([flip, hg.horocycle(2, "s", 0.1)]), 2)


class TestLocalDiffeo:
    @pytest.mark.parametrize("n,expected", [(2, 8), (3, 15), (4, 24)])
    def test_full_rank(self, n, expected):
        out = hg.local_diffeo_check(n)
        assert out["expected_total"] == expected
        assert out["total_rank"] == expected
        assert out["full_rank"]
        dims = {k: v["dim"] for k, v in out["summands"].items()}
        assert dims == {"stabilizer": (n - 1) ** 2, "transversal": 4 * n - 4, "base": 3}

    def test_summands_independent(self):
        out = hg.local_diffeo_check(3)
        for v in out["summands"].values():
            assert v["rank"] == v["expected"]
        assert out["smallest_singular_value"] > 0.5

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bases_are_member_stacks(self, n):
        for basis, size in ((hg.stabilizer_algebra_basis(n), (n - 1) ** 2),
                            (hg.transversal_algebra_basis(n), 4 * n - 4),
                            (hg.base_algebra_basis(n), 3)):
            assert basis.shape == (size, n + 1, n + 1)
            assert hg.in_su(basis, n, tol=1e-10).all()


def _same_rows(stacked, one_row):
    """stacked[i] equals one_row(i) bit for bit, for every row i."""
    rows = np.array([one_row(i) for i in range(len(stacked))])
    stacked = np.asarray(stacked)
    assert stacked.shape == rows.shape and stacked.dtype == rows.dtype
    assert stacked.tobytes() == rows.tobytes()


class TestStacks:
    """An (m, n+1, n+1) stack gives, row by row, its 2-D calls' bits."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_algebra_and_group_operations(self, n):
        rng = np.random.default_rng(7 + n)
        B = _stack(lambda: hg.random_algebra_element(n, rng))
        # rows 1 and 3 leave the algebra
        bumped = B + np.array([0, 1e-6, 0, 1e-3, 0])[:, None, None] * np.eye(n + 1)
        _same_rows(hg.in_su(bumped, n, tol=1e-9), lambda i: hg.in_su(bumped[i], n, tol=1e-9))
        assert hg.in_su(bumped, n, tol=1e-9).tolist() == [True, False, True, False, True]
        g = hg.taylor_expm(B)
        _same_rows(hg.spectral_expm(B), lambda i: hg.spectral_expm(B[i]))
        for kind in ("split", "diag"):
            _same_rows(hg.group_invariant_defect(g, n, kind),
                       lambda i: hg.group_invariant_defect(g[i], n, kind))
        for block in range(3):
            _same_rows(hg.block_decompose(B, n)[block],
                       lambda i: hg.block_decompose(B[i], n)[block])
        A, v, D = hg.block_decompose(B, n)
        _same_rows(hg.algebra_element(A, v, D, n),
                   lambda i: hg.algebra_element(A[i], v[i], D[i], n))
        bad = D + np.array([0, 0, 0.1, 0, 0])[:, None, None] * np.eye(2)
        with pytest.raises(ValueError, match="algebra constraints"):
            hg.algebra_element(A, v, bad, n)  # row 2 has trace 0.2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_taylor_rows_scale_and_square_independently(self, n):
        rng = np.random.default_rng(11 + n)
        B = _stack(lambda: hg.random_algebra_element(n, rng))
        B = B * np.array([0.01, 1.0, 3.0, 10.0, 40.0])[:, None, None]
        norms = np.linalg.norm(B, ord=np.inf, axis=(-2, -1))
        exponents = [max(0, math.ceil(math.log2(x / 0.25))) if x > 0.25 else 0 for x in norms]
        assert exponents[0] == 0 and len(set(exponents)) == 5
        E = hg.taylor_expm(B)
        _same_rows(E, lambda i: hg.taylor_expm(B[i]))
        g = expm(B)
        assert (np.abs(E - g).max(axis=(-2, -1)) < 1e-12 * np.abs(g).max(axis=(-2, -1))).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_flow_and_transversal_operations(self, n):
        rng = np.random.default_rng(17 + n)
        t = rng.uniform(-1.5, 1.5, 5)
        _same_rows(hg.geodesic(n, t), lambda i: hg.geodesic(n, t[i]))
        v1 = 0.07 * (rng.standard_normal((5, n - 1)) + 1j * rng.standard_normal((5, n - 1)))
        v2 = 0.07 * (rng.standard_normal((5, n - 1)) + 1j * rng.standard_normal((5, n - 1)))
        _same_rows(hg.transversal_generator(v1, v2),
                   lambda i: hg.transversal_generator(v1[i], v2[i]))
        _same_rows(hg.transversal_element(v1, v2),
                   lambda i: hg.transversal_element(v1[i], v2[i]))
        D = _stack(lambda: hg.psu11_generator(rng))
        u = hg.psu11_element(D, n)
        _same_rows(u, lambda i: hg.psu11_element(D[i], n))
        conj, prod = hg.local_product_residuals(v1, v2, u, t)
        _same_rows(conj, lambda i: hg.local_product_residuals(v1[i], v2[i], u[i], t[i])[0])
        _same_rows(prod, lambda i: hg.local_product_residuals(v1[i], v2[i], u[i], t[i])[1])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stabilizer_operations(self, n):
        rng = np.random.default_rng(23 + n)
        w = _stack(lambda: hg.w_sample(n, rng))
        A = w[:, : n - 1, : n - 1]
        roots = np.array([1, -1, -1, 1, -1])
        _same_rows(hg.w_element(A, roots), lambda i: hg.w_element(A[i], roots[i]))
        flip = np.eye(n + 1, dtype=complex)
        flip[n - 1, n - 1] = flip[n, n] = -1.0
        members = np.concatenate([w[:3], [np.eye(n + 1, dtype=complex), flip]])
        _same_rows(hg.stabilizer_intersection_defect(members, n),
                   lambda i: hg.stabilizer_intersection_defect(members[i], n))
        assert hg.stabilizer_intersection_defect(members, n)[3:].tolist() == [0.0, 0.0]
        g = hg.taylor_expm(_stack(lambda: hg.random_algebra_element(n, rng)))
        # rows 0, 2 and 4 are stabilizer members, rows 1 and 3 are not
        mixed = np.where(np.array([1, 0, 1, 0, 1], dtype=bool)[:, None, None], w, g)
        _same_rows(hg.w_membership(mixed, n), lambda i: hg.w_membership(mixed[i], n))
        assert hg.w_membership(mixed, n).tolist() == [True, False, True, False, True]
        _same_rows(hg.coset_equal(mixed @ g, g, n),
                   lambda i: hg.coset_equal(mixed[i] @ g[i], g[i], n))


def _per_sample_measured(cfg):
    """The homogeneous suite's sampled quantities, one 2-D call per sample.

    This is the per-sample loop the suite ran before its checks became one
    stacked call each; it consumes the generator in the same order.
    """
    rng = np.random.default_rng(cfg.seed)
    out = {}
    for n in cfg.n_values:
        worst_grp = worst_exp = 0.0
        for _ in range(20):
            B = hg.random_algebra_element(n, rng)
            g = hg.taylor_expm(B)
            worst_grp = max(worst_grp, float(hg.group_invariant_defect(g, n)))
            worst_exp = max(worst_exp, float(np.abs(hg.spectral_expm(B) - g).max()))
        T = hg.conjugator(n)
        transfer_rng = np.random.default_rng(cfg.seed)
        transfer = 0.0
        for _ in range(20):
            g = hg.taylor_expm(hg.random_algebra_element(n, transfer_rng))
            g_diag = T @ g @ np.linalg.inv(T)
            transfer = max(transfer, float(hg.group_invariant_defect(g_diag, n, "diag")))
        worst_conj = worst_prod = 0.0
        for _ in range(100):
            v1 = 0.07 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
            v2 = 0.07 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
            t = float(rng.uniform(-1.5, 1.5))
            u = hg.psu11_element(hg.psu11_generator(rng), n)
            conj, prod = hg.local_product_residuals(v1, v2, u, t)
            worst_conj, worst_prod = max(worst_conj, float(conj)), max(worst_prod, float(prod))
        w_ok = True
        for _ in range(20):
            w = hg.w_sample(n, rng)
            g = hg.taylor_expm(hg.random_algebra_element(n, rng))
            w_ok = bool(w_ok and hg.w_membership(w, n) and hg.coset_equal(w @ g, g, n)
                        and not hg.coset_equal(hg.horocycle(n, "s", 0.1) @ g, g, n))
        out[n] = {"max_group_defect": worst_grp, "max_expm_cross_check": worst_exp,
                  "member_transfer": transfer, "conjugation_residual": worst_conj,
                  "product_residual": worst_prod, "stabilizer": w_ok}
    return out


@pytest.mark.parametrize("seed", [2, 42])
def test_suite_equals_per_sample_loop(seed):
    cfg = CampaignConfig(seed=seed)
    report = {c["name"]: c for c in suites.run_homogeneous_suite(cfg)["checks"]}
    for n, expected in _per_sample_measured(cfg).items():
        measured = {key: value for name in ("algebra-group-invariants", "form-conjugation",
                                            "local-product-structure")
                    for key, value in report[f"{name}-n{n}"]["measured"].items()}
        for key in ("max_group_defect", "max_expm_cross_check", "member_transfer",
                    "conjugation_residual", "product_residual"):
            assert measured[key] == expected[key], (n, key)
        assert report[f"stabilizer-subgroup-n{n}"]["passed"] is expected["stabilizer"]
        assert all(c["passed"] for c in report.values())


def _taylor8(A):
    """exp(A) cut after its A^7 / 7! term: an exponential wrong by about |A|^8 / 8!."""
    out = term = np.eye(A.shape[-1], dtype=complex)
    for m in range(1, 8):
        term = term @ A / m
        out = out + term
    return out


def test_truncated_group_exponential_fails_the_invariants(monkeypatch):
    # the spectral cross-check must catch a wrong Taylor kernel
    monkeypatch.setattr(hg, "taylor_expm", _taylor8)
    cfg = CampaignConfig()
    report = {c["name"]: c for c in suites.run_homogeneous_suite(cfg)["checks"]}
    for n in cfg.n_values:
        check = report[f"algebra-group-invariants-n{n}"]
        assert not check["passed"]
        assert check["measured"]["max_expm_cross_check"] > 1e-12
