"""Release gate: every shipping criterion as one test, in order.

Each test checks one numbered criterion at its stated tolerance against the
independently coded oracles in oracles.py, asserts the stated runtime budget
where one exists, and prints a single summary line (visible under -s, or in
the failure report otherwise). Random structures come from fixed streams so
every line is reproducible bit for bit.

The Monte Carlo criteria carry pilot-frozen seeds; none of the asserted
bounds is tighter than a quarter of the measured margin. Criterion 11's
importance-vs-direct comparison is run in a window wide enough that both
estimators produce hit mass (the window the shipped defaults aim at is
dominated by a channel the fixed-direction tilt cannot reach, and the
estimator reports itself unreliable there; the last block asserts exactly
that self-report).
"""
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles as o
from test_oracles import FROZEN_GOE_RATE
from test_rate import random_pd_profile, random_structure

from kronldp import make_structure
from kronldp.mde import right_edge, solve_mde, stieltjes_real
from kronldp.model import stream
from kronldp.montecarlo import (block_resolvent_trace, importance_tail,
                                profile_histogram, tail_probability,
                                tilted_outlier_check)
from kronldp.outlier import largest_outlier, tilt_for_target
from kronldp.rate import f_value, phi_maps, rate_curve, rate_function

GOE = make_structure([[0.0]], [[[1.0]]])


def _report(num, detail):
    print(f"criterion {num:02d} PASS  {detail}")


# ---------------------------------------------------------------------------
# 1-2: deterministic spectral oracles

def test_c01_semicircle_mde_oracle():
    t0 = time.perf_counter()
    zs = [complex(re, im) for re in np.linspace(-3.0, 3.0, 20)
          for im in np.geomspace(0.05, 5.0, 5)]
    worst = max(abs(solve_mde(GOE, z).m[0, 0] - o.semicircle_m(z)) for z in zs)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(1, f"max |m - semicircle| = {worst:.2e} on {len(zs)} z "
               f"({elapsed:.2f}s)")


def test_c02_edge_oracles():
    t0 = time.perf_counter()
    e1 = abs(right_edge(GOE).r_inf - 2.0)
    two = make_structure([[0.0]], [[[1.0]], [[1.0]]])
    e2 = abs(right_edge(two).r_inf - 2.0 * np.sqrt(2.0))
    atoms = make_structure([[1.7, 0.0], [0.0, -0.3]], [])
    atom_edge = right_edge(atoms).r_inf
    elapsed = time.perf_counter() - t0
    assert e1 <= 1e-10
    assert e2 <= 1e-10
    assert atom_edge == 1.7  # atoms are exact, not approximate
    assert elapsed < 5.0
    _report(2, f"edge errors {max(e1, e2):.2e}, atom edge exact "
               f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3-4: crossover identity and trace-one invariant share one sweep

@pytest.fixture(scope="module")
def crossover_sweep():
    t0 = time.perf_counter()
    rng = stream(23, 5)
    out = {"f": 0.0, "trace": 0.0, "eig": np.inf, "points": 0}
    for i in range(10):
        st = random_structure(rng, [1, 2, 3][i % 3])
        edge = right_edge(st).r_inf
        profiles = [random_pd_profile(rng, st.L) for _ in range(5)]
        for psi in profiles:
            for x in (edge + 0.5, edge + 2.0):
                theta_hi = -stieltjes_real(st, x)[0] / 2.0
                for theta in np.linspace(theta_hi / 20, 0.999 * theta_hi, 20):
                    out["f"] = max(out["f"], abs(f_value(st, theta, x, psi)))
                    _, phi_hat = phi_maps(st, theta, x, psi)
                    out["trace"] = max(out["trace"],
                                       abs(np.trace(phi_hat).real - 1.0))
                    out["eig"] = min(out["eig"],
                                     float(np.linalg.eigvalsh(phi_hat).min()))
                    out["points"] += 1
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_c03_crossover_identity_suite(crossover_sweep):
    s = crossover_sweep
    assert s["points"] == 10 * 5 * 2 * 20
    assert s["f"] <= 1e-7
    assert s["elapsed"] < 120.0
    _report(3, f"max |F| = {s['f']:.2e} over {s['points']} points "
               f"({s['elapsed']:.1f}s)")


def test_c04_trace_one_invariant(crossover_sweep):
    s = crossover_sweep
    assert s["trace"] <= 1e-10
    assert s["eig"] > 0.0
    _report(4, f"max |Tr phi_hat - 1| = {s['trace']:.2e}, "
               f"min eigenvalue = {s['eig']:.3f}")


# ---------------------------------------------------------------------------
# 5-6: rate function against quadrature; beta order and monotonicity

def test_c05_goe_rate_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for x in (2.5, 3.0, 4.0):
        got = rate_function(GOE, x).value
        assert got == pytest.approx(o.goe_rate(x), abs=1e-4)
        assert got == pytest.approx(FROZEN_GOE_RATE[x], abs=1e-4)
        worst = max(worst, abs(got - o.goe_rate(x)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, f"max |I - quadrature| = {worst:.2e} at x in {{2.5,3,4}} "
               f"({elapsed:.2f}s)")


def test_c06_beta_order_and_monotonicity():
    rng = stream(29, 1)
    worst_gap = -np.inf
    for ell in (1, 2, 3):
        st = random_structure(rng, ell)
        x = right_edge(st).r_inf + 1.0
        i1 = rate_function(st, x).value
        i2 = rate_function(make_structure(st.a0, list(st.a), beta=2), x).value
        worst_gap = max(worst_gap, i2 - 2.0 * i1)
        assert i2 <= 2.0 * i1 + 1e-6
    vals = [r.value for r in rate_curve(GOE, 2.0 + np.linspace(0.3, 1.5, 5))]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    _report(6, f"max I_2 - 2 I_1 = {worst_gap:.2e}, 5-point curve increasing")


# ---------------------------------------------------------------------------
# 7-8: outlier equation and its empirical counterpart

def test_c07_bbp_outlier_oracle():
    t0 = time.perf_counter()
    one = np.ones((1, 1))
    worst = max(abs(largest_outlier(GOE, th, one).Z - o.bbp_z(th))
                for th in (0.6, 0.75, 1.0, 2.0, 5.0))
    sub = abs(largest_outlier(GOE, 0.4, one).Z - right_edge(GOE).r_inf)
    inv = abs(tilt_for_target(GOE, 2.5, one) - 1.0)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert sub <= 1e-8
    assert inv <= 1e-6
    assert elapsed < 10.0
    _report(7, f"max |Z - (2 theta + 1/(2 theta))| = {worst:.2e}, "
               f"subcritical err {sub:.2e}, inversion err {inv:.2e} "
               f"({elapsed:.2f}s)")


def test_c08_tilted_measure_check():
    t0 = time.perf_counter()
    chk = tilted_outlier_check(GOE, 1.0, np.eye(1), 400, 100, rng=3)
    err1 = abs(chk.mean_lambda1 - 2.5)
    flat = make_structure(np.zeros((2, 2)), [np.eye(2)])
    chk2 = tilted_outlier_check(flat, 1.0, np.eye(2) / 2, 400, 100, rng=5)
    err2 = abs(chk2.mean_lambda1 - chk2.predicted_z)
    elapsed = time.perf_counter() - t0
    assert err1 <= 0.1
    assert err2 <= 0.15
    assert elapsed < 120.0
    _report(8, f"scalar |mean - 2.5| = {err1:.4f}, block |mean - Z| = "
               f"{err2:.4f} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 9-10: finite-N spectra against their deterministic limits

def test_c09_block_resolvent_vs_mde():
    t0 = time.perf_counter()
    rng = stream(37, 8)
    worst = 0.0
    for i, ell in enumerate((1, 2, 3)):
        st = random_structure(rng, ell)
        z = right_edge(st).r_inf + 1.0 + 1.0j
        g = block_resolvent_trace(st, 500, 50, z, rng=201 + i)
        m = solve_mde(st, z).m
        worst = max(worst, float(np.max(np.abs(g - m))))
    elapsed = time.perf_counter() - t0
    assert worst <= 0.05
    assert elapsed < 180.0
    _report(9, f"max entrywise |trace - M(z)| = {worst:.2e} over 3 "
               f"structures ({elapsed:.1f}s)")


def test_c10_profile_wishart_density():
    t0 = time.perf_counter()
    h = profile_histogram(2, 100, 100_000, rng=11, bins=20)
    mean_err = float(np.max(np.abs(h.mean_profile - np.eye(2) / 2)))
    probs = o.wishart_l2_bin_probs(100, h.p_edges, h.c_edges)
    hot = h.counts >= 500
    rel = np.max(np.abs(h.counts[hot] / h.reps - probs[hot]) / probs[hot])
    elapsed = time.perf_counter() - t0
    assert mean_err <= 0.01
    assert hot.sum() >= 10
    assert rel <= 0.1
    assert elapsed < 120.0
    _report(10, f"mean profile err {mean_err:.1e}, rel density err "
                f"{rel:.3f} on {int(hot.sum())} bins ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 11: tail-rate trend and importance cross-check

def test_c11_tail_rate_trend_and_importance():
    t0 = time.perf_counter()
    oracle = o.goe_rate(2.2)

    # finite-N rate estimates sharpen toward the limit as N grows
    closer = 0
    primary = None
    for seed in (101, 202, 303):
        rates = [tail_probability(GOE, 2.2, 0.1, n, 100_000, seed,
                                  sampler="tridiagonal").rate_hat
                 for n in (25, 50, 100)]
        if primary is None:
            primary = rates
        closer += abs(rates[2] - oracle) < abs(rates[0] - oracle)
    assert closer >= 2
    assert primary[0] > primary[1] > primary[2]
    assert abs(primary[2] - oracle) < abs(primary[0] - oracle)
    assert 0.5 * oracle <= primary[2] <= 2.0 * oracle

    # importance estimate against a 1e7-rep direct run, in a window where
    # a mild explicit tilt keeps the weights tame (pilot: ess ~ 460)
    direct = tail_probability(GOE, 2.5, 0.45, 100, 10_000_000, 51,
                              sampler="tridiagonal")
    imp = importance_tail(GOE, 2.5, 0.45, 100, 20_000, 52, theta=0.05)
    ratio = imp.p_hat / direct.p_hat
    assert not imp.unreliable
    assert imp.ess > 100
    assert 1.0 / 3.0 <= ratio <= 3.0

    # at the shipped default tilt the narrow deep window is out of reach
    # for a fixed-direction proposal; the estimator must say so
    deep = importance_tail(GOE, 2.5, 0.05, 100, 1500, 7)
    assert deep.unreliable
    assert deep.ess < 10

    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    _report(11, f"rate_hat {primary[0]:.4f} > {primary[1]:.4f} > "
                f"{primary[2]:.4f} vs I = {oracle:.4f} ({closer}/3 groups "
                f"closer), importance/direct = {ratio:.3f} "
                f"(ess {imp.ess:.0f}), deep window self-reports "
                f"({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 12: the shipped binary verifies itself

def test_c12_verify_subcommand(tmp_path):
    doc = {"command": "verify", "seed": 1,
           "structure": {"beta": 1, "A0": [[0.0]], "A": [[[1.0]]]}}
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    script = shutil.which("kronldp")
    cmd = [script] if script else [sys.executable, "-m", "kronldp.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--config", str(cfg),
                                 "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    report = (tmp_path / "out" / "verify.txt").read_text(encoding="utf-8")
    assert "10/10 checks passed" in report
    # a loose bound: the ten checks run one after another in about 50 s on a 2-core machine
    assert elapsed < 600.0
    _report(12, f"verify exit 0, 10/10 checks, {elapsed:.0f}s wall")
