import math

import numpy as np
import pytest
from scipy.linalg import expm

from phsurgery import homogeneous as hg


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(123)


class TestFormsAndAlgebra:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_signatures(self, n):
        assert hg.HermitianForm(n=n, kind="diag").signature_ok()
        assert hg.HermitianForm(n=n, kind="split").signature_ok()

    def test_t0_entries(self):
        expected = (1 / math.sqrt(2)) * np.array([[1, 1], [-1, 1]])
        assert np.abs(hg.T0 - expected).max() == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_is_member_with_zero_blocks(self, n):
        Z = np.zeros((n + 1, n + 1), dtype=complex)
        assert hg.in_su(Z, n)
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
        B = hg.random_algebra_element(n, rng)
        assert hg.in_su(B, n)
        A, v, D = hg.block_decompose(B, n)
        assert np.abs(hg.algebra_element(A, v, D, n) - B).max() < 1e-14
        # lower-left is determined by the column pair
        assert np.abs(B[n - 1:, : n - 1] + hg.J0 @ v.conj().T).max() == 0.0

    def test_hermitian_perturbation_rejected(self, rng):
        B = hg.random_algebra_element(3, rng)
        P = np.zeros((4, 4), dtype=complex)
        P[0, 0] = 1e-5
        assert not hg.in_su(B + P, 3, tol=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exponential_lands_in_group(self, n, rng):
        for _ in range(5):
            B = hg.random_algebra_element(n, rng)
            g = expm(B)
            assert hg.group_invariant_defect(g, n) < 1e-10
            assert np.abs(hg.taylor_expm(B) - g).max() < 1e-13


class TestConjugation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_form_relation_and_transfer(self, n):
        rel, worst = hg.conjugate_forms_check(n, n_samples=20, seed=3)
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
        assert np.abs(hg.geodesic(n, 0.3) @ hg.geodesic(n, 0.4)
                      - hg.geodesic(n, 0.7)).max() < 1e-15
        assert np.abs(hg.horocycle(n, "u", 0.2) @ hg.horocycle(n, "u", 0.5)
                      - hg.horocycle(n, "u", 0.7)).max() == 0.0

    @pytest.mark.parametrize("t,tau", [(0.7, 0.31), (-1.3, -0.11), (2.0, 1.0)])
    def test_horocycle_scaling(self, t, tau):
        rs, ru = hg.horocycle_scaling_residual(2, t, tau)
        assert rs < 1e-10 and ru < 1e-10

    def test_members_of_group(self):
        for g in (hg.geodesic(2, 0.9), hg.horocycle(2, "s", 1.3),
                  hg.horocycle(2, "u", -0.4)):
            assert hg.group_invariant_defect(g, 2) < 1e-12


class TestTransversal:
    def test_zero_gives_identity(self):
        assert np.abs(hg.transversal_element(np.zeros(1), np.zeros(1))
                      - np.eye(3)).max() == 0.0

    def test_exp_inverse(self, rng):
        v1 = 0.1 * rng.standard_normal(2)
        v2 = 0.1 * rng.standard_normal(2)
        g = hg.transversal_element(v1, v2)
        ginv = hg.transversal_element(-v1, -v2)
        assert np.abs(g @ ginv - np.eye(4)).max() < 1e-12

    def test_member_invariants(self):
        g = hg.transversal_element(np.array([0.1]), np.array([0.0]))
        assert hg.group_invariant_defect(g, 2) < 1e-12

    def test_size_gate(self):
        with pytest.raises(ValueError, match="too large"):
            hg.transversal_element(np.array([0.5]), np.array([0.4]))

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
        r = hg.conj_identity_residual(np.array([0.05j, 0.02]), np.array([0.01, 0.03j]), t)
        assert r < (1e-10 if t <= 1 else 1e-8)

    def test_product_form(self, rng):
        worst = 0.0
        for _ in range(100):
            v1 = 0.06 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
            v2 = 0.06 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
            u = hg.psu11_sample(2, rng)
            t = float(rng.uniform(-1.5, 1.5))
            worst = max(worst, hg.product_form_residual(v1, v2, u, t))
        assert worst < 1e-9

    def test_product_form_reduces_to_conjugation_at_identity(self):
        v1, v2 = np.array([0.05]), np.array([0.02j])
        r1 = hg.product_form_residual(v1, v2, np.eye(3, dtype=complex), 0.8)
        r2 = hg.conj_identity_residual(v1, v2, 0.8)
        assert abs(r1 - r2) < 1e-12


class TestStabilizer:
    def test_identity_member(self):
        assert hg.w_membership(np.eye(4, dtype=complex), 3)

    def test_double_cover(self):
        A = np.array([[np.exp(0.6j)]])
        for root in (1, -1):
            w = hg.w_element(A, root=root, n=2)
            assert hg.w_membership(w, 2)
            assert hg.group_invariant_defect(w, 2) < 1e-12

    def test_root_constraint_enforced(self):
        g = np.diag([np.exp(0.6j), 1.0, 1.0]).astype(complex)
        assert not hg.w_membership(g, 2)  # lam = 1 but det A != 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coset_relation(self, n, rng):
        g = expm(hg.random_algebra_element(n, rng))
        w = hg.w_sample(n, rng)
        assert hg.coset_equal(g, g, n)
        assert hg.coset_equal(w @ g, g, n)
        assert hg.coset_equal(g, w @ g, n)
        assert not hg.coset_equal(hg.horocycle(n, "s", 0.1) @ g, g, n)

    def test_trivial_intersection(self):
        A = np.eye(1, dtype=complex) * np.exp(0.6j)
        assert hg.stabilizer_intersection_defect(hg.w_element(A, n=2), 2) > 0.1
        flip = np.eye(3, dtype=complex)
        flip[1, 1] = flip[2, 2] = -1.0
        assert hg.stabilizer_intersection_defect(flip, 2) == 0.0
        assert hg.stabilizer_intersection_defect(np.eye(3, dtype=complex), 2) == 0.0


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
