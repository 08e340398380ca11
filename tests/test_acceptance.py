"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
happen.  The heavyweight campaigns run once per session through module
fixtures and are shared by the criteria that consume them.
"""

import json
import math
import time

import numpy as np
import pytest
import yaml

from phsurgery import blowup, cli, cones, forms, saddle, suites
from phsurgery.blowup import BlowupPoint, KLStructure
from phsurgery.config import CampaignConfig


@pytest.fixture(scope="module")
def cfg():
    return CampaignConfig()  # the full-size worked-example defaults, seed 42


@pytest.fixture(scope="module")
def saddle_suite(cfg):
    t0 = time.perf_counter()
    out = suites.run_saddle_suite(cfg)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def cones_suite(cfg):
    t0 = time.perf_counter()
    out = suites.run_cones_suite(cfg)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def blowup_suite(cfg):
    return suites.run_blowup_suite(cfg)


@pytest.fixture(scope="module")
def moser_suite(cfg):
    return suites.run_moser_suite(cfg)


def _get(suite, name):
    return next(c for c in suite["checks"] if c["name"] == name)


def _line(k, ok, detail):
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_blowdown_commutation(cfg):
    spec = cfg.saddle_spec()
    profile = cfg.bump_profile()
    t0 = time.perf_counter()
    worst, _, _ = blowup.commutation_campaign(spec, profile, n=1000, seed=cfg.seed,
                                              step=cfg.step)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 30.0
    _line(1, ok, f"max commutation residual {worst:.3e} (< 1e-07) over 1000 "
                 f"(point, time) pairs in {elapsed:.1f}s (< 30s)")
    assert worst < 1e-7
    assert elapsed < 30.0


def test_criterion_02_volume_identity(cfg):
    out = suites.run_volume_suite(cfg)
    check = _get(out, "slowed-volume-identity")
    residual = check["measured"]["max_residual"]
    control = check["measured"]["negative_control"]
    n = check["measured"]["n_probes"]
    ok = residual < 1e-10 and control >= 1e-3 and n >= 1000
    _line(2, ok, f"slowed-volume residual {residual:.3e} (< 1e-10) at {n} probes "
                 f"incl. the transition shell; negative control {control:.3e} (>= 1e-3)")
    assert ok


def test_criterion_03_density_formulas(cfg):
    rng = np.random.default_rng(cfg.seed)
    worst_match = 0.0
    floors = {}
    for k in (2, 3, 4):
        kl = KLStructure.volume_nondegenerate(k)
        for _ in range(100):
            u = rng.uniform(-1.0, 1.0, size=k)
            chart = int(rng.integers(0, k))
            if abs(u[chart]) < 0.05:
                u[chart] = 0.3
            p = BlowupPoint(chart=chart, u=u[None])
            eps = 1e-6
            J1 = np.zeros((k, k))
            J2 = np.zeros((k, k))
            for i in range(k):
                e = np.zeros(k)
                e[i] = eps
                pa, pb = BlowupPoint(chart, p.u + e), BlowupPoint(chart, p.u - e)
                J1[:, i] = (blowup.blowdown(pa) - blowup.blowdown(pb))[0] / (2 * eps)
                J2[:, i] = (blowup.kl_chart_map(kl, pa)
                            - blowup.kl_chart_map(kl, pb))[0] / (2 * eps)
            worst_match = max(
                worst_match,
                abs(np.linalg.det(J1) - blowup.pullback_volume_density(p)[0]),
                abs(np.linalg.det(J2) - blowup.kl_density(kl, p)[0]))
        # minimize |density| over the chart box, its corner included
        box = np.vstack([rng.uniform(-1, 1, size=(4000, k)), np.ones(k)])
        floors[k] = float(np.abs(blowup.kl_density(kl, BlowupPoint(0, box))).min())
    match_ok = worst_match < 1e-6
    floor_ok = all(floors[k] > 0.05 for k in floors)
    _line(3, match_ok and floor_ok,
          f"density-vs-Jacobian mismatch {worst_match:.3e} (< 1e-6); box minima "
          + ", ".join(f"k={k}: {floors[k]:.5f}" for k in floors)
          + " (required > 0.05; the k=4 infimum is exactly 1/32 = 0.03125, so "
            "this leg cannot pass as stated - see the nondegeneracy analysis)")
    assert match_ok
    assert floor_ok, (
        "box minimum over {|u_j| <= 1} with alpha = -(k-1)/k is "
        "(1/k) k^(-(k-1)/2) = 0.03125 for k=4 < 0.05; the 0.05 floor is "
        "unattainable for k=4 (it holds for k=2: 0.3536 and k=3: 0.1111)")


def test_criterion_04_distortion_uniformity(cfg, saddle_suite):
    unif = _get(saddle_suite, "distortion-uniformity")
    scaling = _get(saddle_suite, "transit-time-scaling")
    distortion = unif["measured"]["distortion"]
    ratio = unif["measured"]["ratio"]
    mean_t = scaling["measured"]["mean_T"]
    elapsed = saddle_suite["elapsed"]
    ok = unif["passed"] and elapsed < 300.0
    _line(4, ok, f"distortion {distortion:.6f}, its ratio across the delta sweep "
                 f"{ratio:.6f} (< 2); mean transit time {mean_t:.6f} (reported); "
                 f"suite elapsed {elapsed:.0f}s (< 300s)")
    assert unif["passed"]
    assert elapsed < 300.0


def test_criterion_05_core_cone_campaign(cfg, cones_suite):
    core = _get(cones_suite, "core-cone-campaign")
    sym = _get(cones_suite, "time-symmetry")
    neg = _get(cones_suite, "negative-controls")
    mu = core["measured"]["min_u_exponent"]
    kappa = core["measured"]["domination_exponent"]
    ok = core["passed"] and sym["passed"] and neg["passed"]
    _line(5, ok, f"min expansion exponent {mu:.5f} (>= {2 - 0.05}); domination "
                 f"exponent {kappa:.5f} (> 0 i.e. ratio > 1); reversed suite "
                 f"matches; forced inadmissible rho0 fails as required")
    assert mu >= 2.0 - 0.05
    assert kappa > 0.0
    assert sym["passed"]
    assert neg["passed"]


def test_criterion_06_crossing_cone_stability(cfg, cones_suite):
    cross = _get(cones_suite, "crossing-cone-stability")
    m = cross["measured"]
    ok = cross["passed"]
    _line(6, ok, f"aperture ratio {m['aperture_ratio']:.6f}, worst expansion "
                 f"{m['min_expansion']:.6f}; largest spread of the four cone statistics "
                 f"across the delta sweep {m['ratio']:.6f} (< 2); classes "
                 f"{m['class_counts']} (inner->inner provably empty)")
    assert ok


def test_criterion_07_moser_suite(cfg, moser_suite):
    names = ["exterior-calculus-identities", "invariant-primitive",
             "averaged-density-solution", "volume-normalization",
             "normalization-controls"]
    measured = {n: _get(moser_suite, n)["measured"] for n in names}
    ok = all(_get(moser_suite, n)["passed"] for n in names)
    vn = measured["volume-normalization"]
    _line(7, ok, f"primitive and identities to 1e-10; X(beta) "
                 f"{measured['averaged-density-solution']['max_X_beta']:.2e} (< 1e-9); "
                 f"transport {vn['max_transport_residual']:.2e} (< 1e-6); "
                 f"commutation {vn['max_commutation_defect']:.2e} (< 1e-6); "
                 f"generator commutator {vn['max_generator_commutator']:.2e} (< 1e-8)")
    assert ok
    assert measured["averaged-density-solution"]["max_X_beta"] < 1e-9
    assert vn["max_transport_residual"] < 1e-6
    assert vn["max_commutation_defect"] < 1e-6
    assert vn["max_generator_commutator"] < 1e-8


def test_criterion_08_homogeneous_suite(cfg):
    t0 = time.perf_counter()
    out = suites.run_homogeneous_suite(cfg)
    elapsed = time.perf_counter() - t0
    ok = out["passed"] and elapsed < 60.0
    worst_conj = max(_get(out, f"local-product-structure-n{n}")["measured"]
                     ["conjugation_residual"] for n in (2, 3, 4))
    ranks = {n: _get(out, f"local-diffeo-rank-n{n}")["measured"]["total_rank"]
             for n in (2, 3, 4)}
    _line(8, ok, f"n in {{2,3,4}}: invariants to 1e-10, conjugation residual "
                 f"{worst_conj:.2e} (< 1e-9), local-diffeo ranks {ranks} "
                 f"(= n^2+2n), elapsed {elapsed:.1f}s (< 60s)")
    assert out["passed"]
    assert elapsed < 60.0
    assert ranks == {2: 8, 3: 15, 4: 24}


def test_criterion_09_oracle_equivalence(cfg, saddle_suite, blowup_suite, moser_suite):
    tangent = _get(saddle_suite, "tangent-map-oracle")
    rich = _get(saddle_suite, "richardson")
    lifted = _get(blowup_suite, "lifted-tangent-oracle")
    moser_rich = _get(moser_suite, "normalization-richardson")
    ok = all(c["passed"] for c in (tangent, rich, lifted, moser_rich))
    _line(9, ok, f"tangent maps vs finite differences "
                 f"{tangent['measured']['max_relative_error']:.2e} (< 1e-5) and "
                 f"{lifted['measured']['fd_relative_error']:.2e} (< 1e-5); "
                 f"closed-form residuals {rich['measured']['max_residual']:.2e} (slowed saddle), "
                 f"{lifted['measured']['richardson']:.2e} (lifted core) "
                 f"and {moser_rich['measured']['residual']:.2e} (Moser map); each < 1e-8")
    assert ok


def test_criterion_10_determinism(tmp_path):
    # the determinism property is sample-size free; a reduced campaign keeps
    # the double run affordable while exercising every suite end to end
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "samples": 64, "crossing_entries": 40, "cone_orbits": 8,
        "delta_sweep": [0.1, 0.01], "moser_steps": 200,
    }), encoding="utf-8")
    outs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        code = cli.main(["all", "--config", str(config), "--seed", "42",
                         "--out", str(outdir)])
        assert code == 0
        outs.append(json.loads((outdir / "all_report.json").read_text()))
    s1 = cli.canonical_json(cli.strip_timing(outs[0]))
    s2 = cli.canonical_json(cli.strip_timing(outs[1]))
    ok = s1 == s2
    _line(10, ok, f"two seeded end-to-end runs produce byte-identical reports "
                  f"excluding timing ({len(s1)} bytes compared)")
    assert ok
