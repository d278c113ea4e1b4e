"""Self-contained invariant suites behind the verify subcommand.

Each check pins one contract of the library to a closed form, an independent
quadrature, or a seeded sampling experiment, at a size that runs in minutes
on a laptop. run_checks executes them in order and reports one line per
check; nothing here depends on the test suite, so a shipped install can
verify itself.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mde import right_edge, solve_mde, _cache_for
from .model import make_structure, stream
from .montecarlo import (block_resolvent_trace, profile_histogram,
                         tilted_outlier_check)
from .outlier import largest_outlier, tilt_for_target
from .rate import f_value, phi_maps, rate_curve, rate_function


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    detail: str


# ---------------------------------------------------------------------------
# closed forms and quadratures the checks compare against

def _semicircle_m(z):
    """Stieltjes transform (integral of 1/(t-z)) of the semicircle law."""
    z = complex(z)
    root = np.sqrt((z - 2.0) * (z + 2.0))  # factored: no cancellation next to the edge
    m = (-z + root) / 2.0
    if m.imag * np.sign(z.imag or 1.0) < 0:
        m = (-z - root) / 2.0
    return m


def _goe_rate_quadrature(x):
    """(1/2) integral of sqrt(t^2-4) from 2 to x; t = 2 + s^2 heals the edge."""
    nodes, weights = leggauss(64)
    half = math.sqrt(x - 2.0) / 2.0
    s = half * (nodes + 1.0)
    vals = 2.0 * s * s * np.sqrt(s * s + 4.0)
    return float(half * np.dot(weights, vals)) / 2.0


def _wishart_density_bins(n, p_edges, c_edges, rule=24):
    """Bin-averaged normalized density of (psi_11, Re psi_12) for L = 2:
    proportional to det(psi)^((n-3)/2) on the lens det > 0. The edges must
    cover the full support for the normalization to be correct."""
    power = (n - 3) / 2.0
    nodes, weights = leggauss(rule)
    pm, ph = (p_edges[:-1] + p_edges[1:]) / 2, np.diff(p_edges) / 2
    cm, ch = (c_edges[:-1] + c_edges[1:]) / 2, np.diff(c_edges) / 2
    pp = pm[:, None] + ph[:, None] * nodes[None, :]          # (bp, rule)
    cc = cm[:, None] + ch[:, None] * nodes[None, :]          # (bc, rule)
    det = (pp * (1.0 - pp))[:, None, :, None] - (cc * cc)[None, :, None, :]
    f = np.where(det > 0, np.abs(det) ** power, 0.0)
    mass = np.einsum("a,b,iajb->ij", weights, weights,
                     np.swapaxes(f, 1, 2)) * ph[:, None] * ch[None, :]
    mass /= mass.sum()
    return mass / (np.diff(p_edges)[:, None] * np.diff(c_edges)[None, :])


def _random_structure(rng, ell):
    k = int(rng.integers(1, 3))
    mats = []
    for _ in range(k):
        g = rng.standard_normal((ell, ell))
        m = (g + g.T) / 2.0
        mats.append(m / max(np.linalg.norm(m, 2), 1e-3))
    g = rng.standard_normal((ell, ell))
    return make_structure(0.3 * (g + g.T) / 2.0, mats)


def _random_pd_profile(rng, ell):
    c = np.eye(ell) + 0.6 * rng.standard_normal((ell, ell))
    g = c @ c.T + 0.05 * np.eye(ell)
    return g / np.trace(g)


def _goe():
    return make_structure([[0.0]], [[[1.0]]])


# ---------------------------------------------------------------------------
# the checks

def _check_mde_semicircle():
    st = _goe()
    worst = 0.0
    for re in np.linspace(-3.0, 3.0, 10):
        for im in np.geomspace(0.05, 5.0, 10):
            z = complex(re, im)
            got = solve_mde(st, z).m[0, 0]
            worst = max(worst, abs(got - _semicircle_m(z)))
    return worst <= 1e-10, f"max |m - semicircle| = {worst:.2e} on 100 z (tol 1e-10)"


def _check_support_edges():
    errs = []
    errs.append(abs(right_edge(_goe()).r_inf - 2.0))
    two = make_structure([[0.0]], [[[1.0]], [[1.0]]])
    errs.append(abs(right_edge(two).r_inf - 2.0 * math.sqrt(2.0)))
    atoms = make_structure(np.diag([1.7, -0.3]), [])
    exact = right_edge(atoms).r_inf == 1.7
    worst = max(errs)
    return worst <= 1e-10 and exact, (
        f"edge errors {worst:.2e} (tol 1e-10), atom edge exact: {exact}")


@functools.cache
def _crossover_sweep():
    """Shared sweep: the K(theta, phi_hat) = L J identity defect and the
    trace/positivity of phi_hat over random structures, profiles and tilts."""
    rng = stream(41, 9)
    worst_f = 0.0
    worst_trace = 0.0
    min_eig = math.inf
    for i in range(10):
        ell = [1, 2, 3][i % 3]
        st = _random_structure(rng, ell)
        edge = right_edge(st).r_inf
        cache = _cache_for(st)
        profiles = [_random_pd_profile(rng, ell) for _ in range(5)]
        for x in (edge + 0.5, edge + 2.0):
            m_x = float(np.trace(cache.m_matrix(x)).real) / ell
            theta_x = -m_x / 2.0
            for psi in profiles:
                for theta in np.linspace(theta_x / 20.0, 0.999 * theta_x, 20):
                    worst_f = max(worst_f, abs(f_value(st, theta, x, psi)))
                    _, phi_hat = phi_maps(st, theta, x, psi)
                    worst_trace = max(worst_trace,
                                      abs(float(np.trace(phi_hat).real) - 1.0))
                    min_eig = min(min_eig, float(np.linalg.eigvalsh(phi_hat)[0]))
    return {"worst_f": worst_f, "worst_trace": worst_trace, "min_eig": min_eig}


def _check_crossover_identity():
    s = _crossover_sweep()
    return s["worst_f"] <= 1e-7, (
        f"max |L J - K| defect = {s['worst_f']:.2e} over 2000 points (tol 1e-7)")


def _check_profile_trace():
    s = _crossover_sweep()
    ok = s["worst_trace"] <= 1e-10 and s["min_eig"] > 0.0
    return ok, (f"max |Tr phi_hat - 1| = {s['worst_trace']:.2e} (tol 1e-10), "
                f"min eigenvalue = {s['min_eig']:.2e}")


def _check_rate_goe():
    st = _goe()
    worst = 0.0
    for x in (2.5, 3.0, 4.0):
        got = rate_function(st, x).value
        worst = max(worst, abs(got - _goe_rate_quadrature(x)))
    return worst <= 1e-4, f"max |I - quadrature| = {worst:.2e} at x in {{2.5,3,4}} (tol 1e-4)"


def _check_rate_order():
    rng = stream(67, 2)
    worst_gap = -math.inf
    for ell in (1, 2, 3):
        st = _random_structure(rng, ell)
        x = right_edge(st).r_inf + 1.0
        i1 = rate_function(st, x).value
        i2 = rate_function(make_structure(st.a0, list(st.a), beta=2), x).value
        worst_gap = max(worst_gap, i2 - 2.0 * i1)
    st = _goe()
    grid = 2.0 + np.linspace(0.3, 1.5, 5)
    vals = [r.value for r in rate_curve(st, grid)]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    ok = worst_gap <= 1e-6 and increasing
    return ok, (f"max I_2 - 2 I_1 = {worst_gap:.2e} (tol 1e-6), "
                f"5-point curve increasing: {increasing}")


def _check_outlier_bbp():
    st = _goe()
    psi = np.ones((1, 1))
    worst = 0.0
    for theta in (0.6, 0.75, 1.0, 2.0, 5.0):
        z = largest_outlier(st, theta, psi).Z
        worst = max(worst, abs(z - (2.0 * theta + 1.0 / (2.0 * theta))))
    sub = largest_outlier(st, 0.4, psi).Z
    edge_err = abs(sub - right_edge(st).r_inf)
    tilt_err = abs(tilt_for_target(st, 2.5, psi) - 1.0)
    ok = worst <= 1e-8 and edge_err <= 1e-8 and tilt_err <= 1e-12
    return ok, (f"max |Z - BBP| = {worst:.2e} (tol 1e-8), subcritical edge err "
                f"{edge_err:.2e}, tilt inversion err {tilt_err:.2e} (tol 1e-12)")


def _check_tilted_mean():
    st = _goe()
    chk = tilted_outlier_check(st, 1.0, [[1.0]], 400, 100, rng=3)
    err1 = abs(chk.mean_lambda1 - 2.5)
    flat = make_structure(np.zeros((2, 2)), [np.eye(2)])
    chk2 = tilted_outlier_check(flat, 1.0, np.eye(2) / 2, 400, 100, rng=5)
    err2 = abs(chk2.mean_lambda1 - chk2.predicted_z)
    ok = err1 <= 0.1 and err2 <= 0.15
    return ok, (f"scalar |mean - 2.5| = {err1:.4f} (tol 0.1), block variant "
                f"|mean - Z| = {err2:.4f} (tol 0.15)")


def _check_resolvent_mde():
    rng = stream(61, 4)
    worst = 0.0
    for i, ell in enumerate((1, 2, 3)):
        st = _random_structure(rng, ell)
        z = right_edge(st).r_inf + 1.0 + 1.0j
        g = block_resolvent_trace(st, 500, 50, z, rng=71 + i)
        worst = max(worst, float(np.abs(g - solve_mde(st, z).m).max()))
    return worst <= 0.05, (
        f"max entrywise |trace - M(z)| = {worst:.4f} over 3 structures (tol 0.05)")


def _check_profile_wishart():
    h = profile_histogram(2, 100, 10**5, rng=11, bins=20)
    mean_err = float(np.abs(h.mean_profile - np.eye(2) / 2).max())
    mask = h.counts >= 500
    ana = _wishart_density_bins(100, h.p_edges, h.c_edges)
    rel = float((np.abs(h.empirical_density[mask] - ana[mask]) / ana[mask]).max())
    ok = mean_err <= 0.01 and rel <= 0.1 and int(mask.sum()) > 0
    return ok, (f"mean profile err {mean_err:.4f} (tol 0.01), density rel err "
                f"{rel:.4f} on {int(mask.sum())} bins with >= 500 hits (tol 0.1)")


CHECKS = [
    ("mde-semicircle", _check_mde_semicircle),
    ("support-edges", _check_support_edges),
    ("crossover-identity", _check_crossover_identity),
    ("profile-trace", _check_profile_trace),
    ("rate-goe", _check_rate_goe),
    ("rate-order", _check_rate_order),
    ("outlier-bbp", _check_outlier_bbp),
    ("tilted-mean", _check_tilted_mean),
    ("resolvent-mde", _check_resolvent_mde),
    ("profile-wishart", _check_profile_wishart),
]


def run_checks(names=None, emit=None) -> list:
    """Run the named checks (all by default), emitting one table line each;
    names is a non-empty list of check names, and anything else a
    ValueError: an empty list would report a run that checked nothing."""
    wanted = list(names) if names is not None else [n for n, _ in CHECKS]
    if isinstance(names, str) or not wanted or not all(isinstance(n, str) for n in wanted):
        raise ValueError(f"names must be a non-empty list of check names (strings), "
                         f"got {names!r}")
    table = dict(CHECKS)
    unknown = [n for n in wanted if n not in table]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    _crossover_sweep.cache_clear()
    results = []
    for name in wanted:
        t0 = time.perf_counter()
        passed, detail = table[name]()
        res = CheckResult(name=name, passed=passed,
                          elapsed=time.perf_counter() - t0, detail=detail)
        results.append(res)
        if emit is not None:
            emit(render_line(res))
    return results


def render_line(res: CheckResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    return f"{res.name:<20} {status:<5} {res.elapsed:7.1f}s  {res.detail}"


def render_table(results) -> str:
    header = f"{'check':<20} {'state':<5} {'time':>8}  detail"
    lines = [header, "-" * len(header)]
    lines += [render_line(r) for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed "
                 f"in {sum(r.elapsed for r in results):.1f}s")
    return "\n".join(lines)
