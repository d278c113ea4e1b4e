"""Tilted free energy F = beta(L J - K), its building blocks and the
profile optimizer.

Expected values come from tests/oracles.py (closed forms and quadrature
frozen before this module existed) plus hand-computed constants for the
small exact cases spelled out inline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.optimize import minimize, minimize_scalar

import eps_reference as ref
import oracles as o
from kronldp import (
    ConvergenceError,
    DegenerateModelError,
    DomainError,
    apply_S,
    f_value,
    j_value,
    k_value,
    log_potential,
    make_structure,
    phi_maps,
    rate_breakdown,
    rate_curve,
    rate_function,
    right_edge,
    stream,
    stieltjes_real,
    sup_theta,
)
from kronldp import rate as rate_mod
from kronldp.mde import _SpectralCache, _cache_for
from kronldp.outlier import lambda_sym
from test_oracles import FROZEN_GOE_RATE


@pytest.fixture(scope="module")
def sc():
    """Single GOE block: semicircle law, edge 2."""
    return make_structure(np.zeros((1, 1)), [np.ones((1, 1))])


@pytest.fixture(scope="module")
def dirac():
    """Noiseless scalar: the limiting law is a point mass at 0."""
    return make_structure(np.zeros((1, 1)), [])


@pytest.fixture(scope="module")
def pair():
    """L=2 with unequal diagonal noise plus a flip coupling."""
    return make_structure(
        np.diag([0.3, -0.1]),
        [np.diag([1.0, 0.5]), 0.4 * np.array([[0.0, 1.0], [1.0, 0.0]])],
    )


@pytest.fixture(scope="module")
def pair_result(pair):
    edge = right_edge(pair).r_inf
    return rate_function(pair, edge + 1.0)


@pytest.fixture(scope="module")
def herm2():
    """Complex Hermitian L=2 structure, beta=2."""
    ah = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    return make_structure(
        0.3 * np.eye(2), [ah / np.sqrt(2.0), np.eye(2) / np.sqrt(2.0)], beta=2
    )


def random_structure(rng, ell):
    k = int(rng.integers(1, 3))
    mats = []
    for _ in range(k):
        g = rng.standard_normal((ell, ell))
        m = (g + g.T) / 2.0
        mats.append(m / max(np.linalg.norm(m, 2), 1e-3))
    g = rng.standard_normal((ell, ell))
    return make_structure(0.3 * (g + g.T) / 2.0, mats)


def random_complex(i):
    """Random complex structure i: L = 2 + i % 3, k = 1 + i % 3, beta = 2,
    from stream(900 + i); each matrix is a complex Hermitian Gaussian of unit
    spectral norm, and A_0 is 0.3 times the first."""
    rng, ell = stream(900 + i), 2 + i % 3
    hs = []
    for _ in range(2 + i % 3):
        g = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
        h = (g + g.conj().T) / 2.0
        hs.append(h / np.linalg.norm(h, 2))
    return make_structure(0.3 * hs[0], hs[1:], beta=2)


def random_pd_profile(rng, ell):
    c = np.eye(ell) + 0.6 * rng.standard_normal((ell, ell))
    g = c @ c.T + 0.05 * np.eye(ell)
    return g / np.trace(g)


def twin(st):
    """The beta = 2 structure with st's matrices: its rate is I_2 of st."""
    return make_structure(st.a0, list(st.a), beta=2)


# ---------------------------------------------------------------------------
# J

def test_j_point_mass_lower_branch_is_zero(dirac):
    # the inverse branch telescopes exactly for a point mass at 0
    for theta in (0.1, 0.3, 0.49):
        assert j_value(dirac, 1.0, theta) == pytest.approx(0.0, abs=1e-12)


def test_j_point_mass_upper_branch_value(dirac):
    # J(1, 1) = 1 - (1 + ln 2)/2 - U(1)/2 with U(1) = 0
    assert j_value(dirac, 1.0, 1.0) == pytest.approx(0.5 - 0.5 * np.log(2.0),
                                                     abs=1e-12)


def test_j_matches_quadrature_oracle(sc):
    for x in (2.3, 3.0, 4.0):
        for theta in (0.05, 0.2, o.goe_theta_star(x), 1.5, 3.0):
            assert j_value(sc, x, theta) == pytest.approx(o.goe_j(x, theta),
                                                          abs=1e-9)


def test_j_branches_join_continuously(sc):
    m3 = o.semicircle_m(3.0).real
    theta_x = -m3 / 2.0
    below = j_value(sc, 3.0, theta_x - 1e-8)
    above = j_value(sc, 3.0, theta_x + 1e-8)
    assert below == pytest.approx(above, abs=1e-7)


def test_j_rejects_bad_arguments(sc):
    with pytest.raises(ValueError):
        j_value(sc, 3.0, 0.0)
    with pytest.raises(DomainError):
        j_value(sc, 1.5, 1.0)


# ---------------------------------------------------------------------------
# K

def test_k_zero_tilt_flat_profile_costs_nothing():
    s2 = make_structure(np.zeros((2, 2)), [np.eye(2)])
    assert k_value(s2, 0.0, np.eye(2) / 2.0) == pytest.approx(0.0, abs=1e-13)


def test_k_zero_tilt_skewed_profile():
    s2 = make_structure(np.zeros((2, 2)), [np.eye(2)])
    want = 0.5 * (np.log(3.0 / 16.0) + 2.0 * np.log(2.0))
    assert k_value(s2, 0.0, np.diag([0.75, 0.25])) == pytest.approx(want,
                                                                    abs=1e-13)


def test_k_scalar_values(sc):
    # L=1, A0=0: K = theta^2; with A0=1: K = theta^2 + theta
    assert k_value(sc, 0.7, np.ones((1, 1))) == pytest.approx(0.49, abs=1e-13)
    shifted = make_structure(np.ones((1, 1)), [np.ones((1, 1))])
    assert k_value(shifted, 1.0, np.ones((1, 1))) == pytest.approx(2.0,
                                                                   abs=1e-13)


def test_k_singular_profile_is_minus_infinity():
    s2 = make_structure(np.zeros((2, 2)), [np.eye(2)])
    assert k_value(s2, 1.0, np.diag([1.0, 0.0])) == -np.inf


def test_k_rejects_bad_profiles():
    s2 = make_structure(np.zeros((2, 2)), [np.eye(2)])
    with pytest.raises(ValueError):
        k_value(s2, 1.0, np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        k_value(s2, 1.0, np.diag([1.5, -0.5]))


def test_k_beta_two_equals_beta_one_on_real_inputs(pair):
    psi = np.diag([0.7, 0.3])
    assert k_value(twin(pair), 0.9, psi) == pytest.approx(
        k_value(pair, 0.9, psi), abs=1e-14)


# ---------------------------------------------------------------------------
# phi maps

def test_phi_maps_semicircle_point(sc):
    varphi, phi_hat = phi_maps(sc, 1.0, 3.0, np.ones((1, 1)))
    # -m_sc(3)/2 = (3 - sqrt(5))/4
    assert varphi[0, 0] == pytest.approx((3.0 - np.sqrt(5.0)) / 4.0, abs=1e-10)
    assert phi_hat[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_phi_hat_unit_trace_positive_definite():
    rng = stream(31, 4)
    for _ in range(8):
        ell = int(rng.integers(1, 4))
        st = random_structure(rng, ell)
        edge = right_edge(st).r_inf
        x = edge + float(rng.uniform(0.2, 2.0))
        psi = random_pd_profile(rng, ell)
        cache = _cache_for(st)
        theta_x = -float(np.trace(cache.m_matrix(x)).real) / (2 * ell)
        for theta in (0.3 * theta_x, theta_x, 2.5 * theta_x):
            varphi, phi_hat = phi_maps(st, theta, x, psi)
            assert np.trace(phi_hat).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(phi_hat).min() > 0.0
            assert np.linalg.eigvalsh(varphi).min() > 0.0


def test_phi_maps_requires_positive_theta(sc):
    with pytest.raises(ValueError):
        phi_maps(sc, 0.0, 3.0, np.ones((1, 1)))


# ---------------------------------------------------------------------------
# F

def test_f_zero_tilt_is_zero(sc):
    assert f_value(sc, 0.0, 3.0, np.ones((1, 1))) == 0.0


def test_f_vanishes_below_crossover_everywhere():
    # the identity K(theta, phi_hat) = L J(x, theta) on 2 theta <= -m(x):
    # 10 random structures, two x each, 5 profiles, 20 tilt values
    rng = stream(41, 9)
    worst = 0.0
    for i in range(10):
        ell = [1, 2, 3][i % 3]
        st = random_structure(rng, ell)
        edge = right_edge(st).r_inf
        cache = _cache_for(st)
        profiles = [random_pd_profile(rng, ell) for _ in range(5)]
        for x in (edge + 0.5, edge + 2.0):
            m_x = float(np.trace(cache.m_matrix(x)).real) / ell
            theta_x = -m_x / 2.0
            for psi in profiles:
                for theta in np.linspace(theta_x / 20.0, 0.999 * theta_x, 20):
                    worst = max(worst, abs(f_value(st, theta, x, psi)))
    assert worst <= 1e-7


def test_f_matches_goe_oracle(sc):
    for x in (2.4, 3.0):
        for theta in (0.1, 0.5, 1.0, 2.0):
            assert f_value(sc, theta, x, np.ones((1, 1))) == pytest.approx(
                o.goe_f(x, theta), abs=1e-9)


def test_f_beta_two_doubles_real_structure(pair):
    edge = right_edge(pair).r_inf
    psi = np.eye(2) / 2.0
    f1 = f_value(pair, 0.8, edge + 1.0, psi)
    f2 = f_value(twin(pair), 0.8, edge + 1.0, psi)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-12)
    assert f1 > 0.0


def test_f_envelope_semicircle(sc):
    # F(theta_x + tau) <= (x + b0) tau - a tau^2 with a = Tr[psi S(psi)]/4;
    # for L=1 the linear coefficient is sharp enough to hold pointwise
    x = 3.0
    theta_x = -o.semicircle_m(x).real / 2.0
    for tau in np.linspace(0.05, 6.0, 40):
        f = f_value(sc, theta_x + tau, x, np.ones((1, 1)))
        assert f <= x * tau - 0.25 * tau * tau + 1e-9


def test_f_envelope_general_structures():
    # dropping K's positive cross terms and bounding det(phi_hat) below by
    # det(P/theta) leaves F <= (L x + b0/2) theta - 4 a tau^2 + C(x) with
    # C(x) = -ln det P / 2 - (L/2)(ln L + 1 + ln 2 + U(x)); unlike the
    # L=1 form this survives structures whose noise misses A0's directions
    rng = stream(43, 2)
    for ell in (2, 3):
        st = random_structure(rng, ell)
        edge = right_edge(st).r_inf
        x = edge + 1.3
        cache = _cache_for(st)
        m_mat = cache.m_matrix(x)
        theta_x = -float(np.trace(m_mat).real) / (2 * ell)
        p = -m_mat / (2.0 * ell)
        psi = np.eye(ell) / ell
        q = float(np.trace(psi @ apply_S(st, psi)).real)
        a = ell * ell * q / 4.0
        b0 = 2.0 * ell * np.linalg.norm(st.a0, 2)
        c_x = (-0.5 * np.linalg.slogdet(p)[1]
               - 0.5 * ell * (np.log(ell) + 1.0 + np.log(2.0)
                              + log_potential(st, x)))
        for tau in np.linspace(0.05, 8.0, 40):
            theta = theta_x + tau
            f = f_value(st, theta, x, psi)
            bound = (ell * x + b0 / 2.0) * theta - 4.0 * a * tau * tau + c_x
            assert f <= bound + 1e-9


def test_f_zero_crossing_point(pair):
    # beyond theta_x + (x+b0)/a + 1 the quadratic term has won
    edge = right_edge(pair).r_inf
    x = edge + 1.0
    psi = np.eye(2) / 2.0
    q = float(np.trace(psi @ apply_S(pair, psi)).real)
    a = 4.0 * q / 4.0
    b0 = 4.0 * np.linalg.norm(pair.a0, 2)
    cache = _cache_for(pair)
    theta_x = -float(np.trace(cache.m_matrix(x)).real) / 4.0
    assert f_value(pair, theta_x + (x + b0) / a + 1.0, x, psi) <= 0.0


# ---------------------------------------------------------------------------
# sup over theta

def _newton_start(st, x, psi):
    """theta_x and a/b of the rate module docstring: every maximizer of
    theta -> F(theta, x, psi) lies in [theta_x, theta_x + max(a/b, 0)]."""
    ell = st.L
    m_mat = _cache_for(st).m_matrix(x)
    s_psi = apply_S(st, psi)
    a = ell * (x + float(np.trace(m_mat @ s_psi).real) - float(np.trace(st.a0 @ psi).real))
    b = 2.0 * ell * ell * float(np.trace(psi @ s_psi).real)
    return -float(np.trace(m_mat).real) / (2.0 * ell), a / b


def test_sup_theta_goe_closed_form(sc):
    theta_star, f_star = sup_theta(sc, 2.5, np.ones((1, 1)))
    assert f_star == pytest.approx(FROZEN_GOE_RATE[2.5], abs=1e-8)
    assert theta_star == pytest.approx(o.goe_theta_star(2.5), abs=1e-6)


def test_sup_theta_never_negative():
    rng = stream(47, 3)
    for _ in range(5):
        ell = int(rng.integers(1, 4))
        st = random_structure(rng, ell)
        edge = right_edge(st).r_inf
        theta_star, f_star = sup_theta(st, edge + float(rng.uniform(0.1, 1.5)),
                                       random_pd_profile(rng, ell))
        assert f_star >= 0.0
        assert theta_star > 0.0


def _brute_sup(st, x, psi, theta_hi):
    """Max of f_value on a dense theta grid, refined around the best node."""
    theta_x = -float(np.trace(_cache_for(st).m_matrix(x)).real) / (2.0 * st.L)
    grid = theta_x + (theta_hi - theta_x) * np.linspace(0.0, 1.0, 1501) ** 2
    vals = [f_value(st, th, x, psi) for th in grid]
    i = int(np.argmax(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(lambda th: -f_value(st, th, x, psi),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * (1.0 + hi)})
    return max(vals[i], -float(res.fun))


def test_sup_theta_matches_brute_force():
    """The exact sup against a dense grid over [theta_x, theta_x + 2 a/b],
    twice as far as any maximizer can lie and beyond the old eps cap, so it
    pins the uncapped sup."""
    rng = stream(53, 1)
    interior = 0
    for case in range(12):
        ell = case % 3 + 1
        beta = case // 3 % 2 + 1
        st = random_structure(rng, ell)
        x = right_edge(st).r_inf + float(rng.uniform(0.1, 1.5))
        if beta == 2:
            st = twin(st)
        psi = random_pd_profile(rng, ell)
        if case >= 6 and ell > 1:
            v = rng.standard_normal(ell)
            psi = np.outer(v, v) / (v @ v)  # rank one
        theta_x, t_hi = _newton_start(st, x, psi)
        theta_hi = theta_x + 2.0 * max(t_hi, 1e-3)
        theta_star, f_star = sup_theta(st, x, psi)
        brute = _brute_sup(st, x, psi, theta_hi)
        assert f_star >= brute - 1e-12
        assert abs(f_star - brute) <= 1e-10 * abs(brute) + 1e-14
        if f_star > 0.0:
            assert f_value(st, theta_star, x, psi) == \
                pytest.approx(f_star, rel=1e-10)
            interior += theta_x < theta_star <= theta_x + t_hi
    assert interior >= 6


# ---------------------------------------------------------------------------
# rate function

def test_rate_goe_frozen_values(sc):
    for x, want in FROZEN_GOE_RATE.items():
        res = rate_function(sc, x)
        assert res.value == pytest.approx(want, abs=1e-8)
        assert res.stability_flag


def test_rate_goe_optimal_tilt(sc):
    res = rate_function(sc, 3.0)
    assert res.theta_star == pytest.approx(o.goe_theta_star(3.0), abs=1e-6)


def test_rate_vanishes_toward_edge(sc):
    res = rate_function(sc, 2.01)
    assert 0.0 <= res.value <= 1e-3


def test_rate_beta_two_doubles(pair, pair_result):
    res2 = rate_function(twin(pair), pair_result.x)
    assert abs(res2.value - 2.0 * pair_result.value) <= 1e-6


def test_rate_result_invariants(pair, pair_result):
    res = pair_result
    assert res.value >= -1e-8
    psi = res.psi_star.psi
    assert np.trace(psi).real == pytest.approx(1.0, abs=1e-12)
    q = float(np.trace(psi @ apply_S(pair, psi)).real)
    assert res.epsilon_used == pytest.approx(q, rel=1e-12)
    theta_x, t_hi = _newton_start(pair, res.x, psi)
    assert theta_x < res.theta_star <= theta_x + t_hi
    # stability_flag is the one certificate; diagnostics count work, the gap,
    # how many screened starts gave the MDE polish a candidate and the
    # runner-up candidate's value
    assert set(res.diagnostics) == {"fevals", "first_order_gap", "candidates", "runner_up"}


def test_rate_is_bitwise_reproducible(pair, herm2):
    """No start is random, so a rate depends on nothing but the structure
    and x: two calls, the first on a cold spectral cache, agree bit for
    bit, diagnostics included."""
    for plain in (pair, herm2, random_structure(stream(710), 3)):
        st = make_structure(plain.a0, list(plain.a), beta=plain.beta)
        x = right_edge(st).r_inf + 0.6
        first, again = rate_function(st, x), rate_function(st, x)
        assert (first.value, first.theta_star, first.epsilon_used, first.stability_flag) == \
            (again.value, again.theta_star, again.epsilon_used, again.stability_flag)
        assert np.array_equal(first.psi_star.psi, again.psi_star.psi)
        assert first.diagnostics == again.diagnostics


def test_rate_one_s_application_per_evaluation(pair, monkeypatch):
    """S(Psi) is shared by both traces of the sup over theta and the
    gradient: every profile evaluation applies S exactly once, and the
    search counts every evaluation once in fevals."""
    counts = {"evaluations": 0, "inside": 0, "busy": False}
    objective = rate_mod._profile_objective

    def counted_objective(*args):
        counts["evaluations"] += 1
        counts["busy"] = True
        try:
            return objective(*args)
        finally:
            counts["busy"] = False

    def counted_s(structure, t):
        counts["inside"] += counts["busy"]
        return apply_S(structure, t)

    monkeypatch.setattr(rate_mod, "_profile_objective", counted_objective)
    monkeypatch.setattr(rate_mod, "apply_S", counted_s)
    # a search takes ~5 evaluations on pair, whose diagonal projectors are
    # stationary starts, and ~35 on rs710: count over six points of each
    fevals = 0
    for st in (pair, random_structure(stream(710), 2)):
        edge = right_edge(st).r_inf
        fevals += sum(rate_function(st, edge + dx).diagnostics["fevals"]
                      for dx in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
    assert fevals > 100
    assert counts["inside"] == counts["evaluations"] == fevals


def test_rate_complex_structure(herm2):
    edge = right_edge(herm2).r_inf
    res = rate_function(herm2, edge + 1.0)
    psi = res.psi_star.psi
    assert res.value > 0.0
    assert res.stability_flag
    assert np.max(np.abs(psi - psi.conj().T)) <= 1e-12


def test_rate_degenerate_model_raises():
    with pytest.raises(DegenerateModelError):
        rate_function(make_structure(np.diag([1.0, 0.0]), []), 2.0)


def test_known_defect_rank_one_saddle_is_certified():
    """At rs717 (L = 4), x = r_inf + 1.5, a tight L-BFGS-B run from the
    default seed's best start ends at 1.872535239467589, an exactly rank-one
    saddle of the C C* parametrization whose first-order test on trace-one
    PSD profiles fails (gap -0.108). The MDE polish of every screened start
    returns 1.8720636046291, the value that seeds 1-4 of the former random
    starts reached too (to 3e-15), with the first-order test passed; the
    beta = 2 twin's rate is twice that."""
    st = random_structure(stream(717), 4)
    res = rate_function(st, right_edge(st).r_inf + 1.5)
    assert res.value <= 1.8720636046296 + 1e-9
    assert res.stability_flag
    assert res.diagnostics["first_order_gap"] >= -rate_mod._GAP_TOL


def test_known_defect_certified_local_minimum():
    """On a random complex L = 3 structure at r_inf + 0.6 (cx934) two
    certified optima compete: 0.86159651644636 and 0.8739172156205739,
    1.4 % higher (first-order gap -4.2e-8). Both solve the MDE at x
    (ROADMAP item 2). A projector start C = u u* stays exactly rank one
    under L-BFGS-B, since every factor gradient 2 (G - Tr[G Psi]) C / Tr
    has u* on the right, and when only the lowest-screened start was
    polished, seeds 3-5 and 11 certified the higher one. The MDE polish of
    every screened start reaches the lower one at seeds 0-11 (measured
    0.8615965164463582 to ...586, 2.1e-15 relative at most), and so does
    the search from the eigenprojector starts alone, which reports the
    higher optimum as its runner-up; the enumeration of candidates stays
    the only global certificate."""
    st = random_complex(34)
    res = rate_function(st, right_edge(st).r_inf + 0.6)
    assert res.stability_flag
    assert res.value == pytest.approx(0.86159651644636, rel=1e-12)
    assert res.diagnostics["runner_up"] == pytest.approx(0.873917215621, abs=1e-12)


def test_rate_reaches_the_lower_of_two_certified_optima_at_cx989():
    """On a random complex L = 4 structure at r_inf + 0.1 (cx989) two
    certified optima compete: 0.065457322925 and 0.066579669407, 1.7 %
    higher. The search that filled its starts with random factors returned
    the higher one at 9 of seeds 0-11, the default seed among them, with its
    first-order test passed. M(x)'s eigenprojectors reach the lower one, and
    the higher one shows as the runner-up candidate."""
    st = random_complex(89)
    res = rate_function(st, right_edge(st).r_inf + 0.1)
    assert res.stability_flag
    assert res.value == pytest.approx(0.065457322925, abs=1e-12)
    assert res.diagnostics["runner_up"] == pytest.approx(0.066579669407, abs=1e-12)


def test_rate_search_never_evaluates_the_log_potential(sc, pair, herm2, monkeypatch):
    """F(theta_x) = 0 is an identity (the `rate` module docstring), so
    neither sup_theta nor the profile search needs U(x): both run with the
    log potential disabled."""
    def disabled(self, x):
        raise AssertionError("the rate search evaluated U(x)")

    monkeypatch.setattr(_SpectralCache, "log_potential", disabled)
    for st in (sc, pair, herm2):
        edge = right_edge(st).r_inf
        assert rate_function(st, edge + 1.0).stability_flag
        assert sup_theta(st, edge + 0.5, np.eye(st.L) / st.L)[1] > 0.0
    with pytest.raises(AssertionError, match="evaluated U"):
        f_value(pair, 0.5, right_edge(pair).r_inf + 1.0, np.eye(2) / 2.0)


def test_rate_requires_x_beyond_edge(sc):
    with pytest.raises(DomainError):
        rate_function(sc, 1.9)


def test_rate_breakdown_consistency(pair):
    edge = right_edge(pair).r_inf
    bd = rate_breakdown(pair, 0.8, edge + 1.0, np.eye(2) / 2.0)
    assert bd.F == pytest.approx(1.0 * (2.0 * bd.J - bd.K), abs=1e-12)
    assert np.trace(bd.phi_hat).real == pytest.approx(1.0, abs=1e-10)
    # f_value is rate_breakdown's F: one assembly, bit for bit
    assert bd.F == f_value(pair, 0.8, edge + 1.0, np.eye(2) / 2.0)


@pytest.mark.parametrize("name", ["herm2", "twin-702"])
def test_sup_theta_and_f_take_beta_from_the_structure(name, herm2):
    """At a beta = 2 optimum, sup_theta, f_value and rate_breakdown equal the
    rate: each is beta g with the structure's beta, not half of it."""
    st = herm2 if name == "herm2" else twin(random_structure(stream(702), 4))
    x = right_edge(st).r_inf + 0.5
    res = rate_function(st, x)
    psi, theta = res.psi_star.psi, res.theta_star
    assert sup_theta(st, x, psi)[1] == pytest.approx(res.value, rel=1e-12)
    assert f_value(st, theta, x, psi) == pytest.approx(res.value, rel=1e-12)
    assert rate_breakdown(st, theta, x, psi).F == pytest.approx(res.value, rel=1e-12)


def test_rate_direct_sum_oracle():
    """A0 = diag(0, 0.3), A_j = E_jj: two decoupled GOE blocks, the second
    shifted by 0.3, so I(x) = min(I_GOE(x), I_GOE(x - 0.3)) = I_GOE(x - 0.3);
    the same after conjugating every matrix by one rotation."""
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    c, s = np.cos(0.7), np.sin(0.7)
    u = np.array([[c, -s], [s, c]])
    plain = make_structure(np.diag([0.0, 0.3]), [e11, e22])
    rotated = make_structure(u @ plain.a0 @ u.T, [u @ a @ u.T for a in plain.a])
    for st in (plain, rotated):
        for x in (2.5, 2.8, 3.3):
            want = o.goe_rate_closed(x - 0.3)
            assert rate_function(st, x).value == pytest.approx(want, abs=1e-8)
            assert rate_function(twin(st), x).value == \
                pytest.approx(2.0 * want, abs=1e-8)


def test_rate_finds_the_optimum_on_an_eigenvector_of_s_id():
    """The optimum sits on S(Id)'s second eigenvector; with purely random
    starts, seeds 0 and 2 of 0-9 stopped at 0.338857 against 0.221524.
    I_2 = 2 I_1 holds exactly for a real structure, so a missed minimum at
    either beta shows as a broken ratio."""
    st = random_structure(stream(705), 4)
    st2 = make_structure(st.a0, list(st.a), beta=2)
    x = right_edge(st).r_inf + 0.4
    i1, i2 = rate_function(st, x).value, rate_function(st2, x).value
    assert abs(i2 - 2.0 * i1) <= 1e-10


@pytest.mark.parametrize("sigma, shift, x, low_q", [
    (0.2, 2.5, 3.0, False),
    (0.05, 2.4, 2.6, False),
    (0.01, 2.48, 2.503, True),
    (0.01, 4.0, 4.023, True),
])
def test_rate_direct_sum_with_a_low_noise_block(sigma, shift, x, low_q):
    """A0 = diag(0, shift), A1 = E11, A2 = sigma E22: a GOE block and a
    shifted GOE block of noise sigma, so I(x) = min(I_GOE(x),
    I_GOE((x - shift)/sigma)). The eps ladder from eps = q0 returned
    I_GOE(3) = 0.714627 for the first case and 0.246607 for the third. In
    the last two cases the optimum is E22, whose q = 1e-4 lies below
    q0 / 1024: a search at that eps missed it (0.235194 and 0.808189). The
    uncapped, unconstrained search reaches it and certifies it."""
    st = make_structure(np.diag([0.0, shift]), [np.diag([1.0, 0.0]), np.diag([0.0, sigma])])
    want = min(o.goe_rate_closed(x), o.goe_rate_closed((x - shift) / sigma))
    res = rate_function(st, x)
    assert res.value == pytest.approx(want, abs=1e-8)
    assert res.stability_flag
    if low_q:
        assert np.allclose(res.psi_star.psi, np.diag([0.0, 1.0]), atol=1e-12)
        assert res.epsilon_used == pytest.approx(sigma ** 2, rel=1e-12)


@pytest.mark.parametrize("shift, x", [(1.0, 2.5), (-1.0, 3.0), (1.5, 2.2)])
def test_rate_with_a_profile_that_s_annihilates(shift, x):
    """A0 = diag(0, shift), A = [E11]: a GOE block next to a noiseless one
    at shift < 2. S annihilates E22 (q = 0, an eigenprojector of S(Id) and
    so a start), where the sup over theta is +inf; the rate is I_GOE(x),
    at psi* = E11."""
    st = make_structure(np.diag([0.0, shift]), [np.diag([1.0, 0.0])])
    assert sup_theta(st, x, np.diag([0.0, 1.0])) == (np.inf, np.inf)
    res = rate_function(st, x)
    assert res.value == pytest.approx(o.goe_rate_closed(x), rel=1e-12)
    assert res.stability_flag
    assert np.allclose(res.psi_star.psi, np.diag([1.0, 0.0]), atol=1e-12)


def test_rate_with_noise_proportional_to_the_identity():
    """A_j = c_j Id: X = A_0 (x) Id + Id (x) W with W a GOE (GUE) of scale
    A = (sum_j c_j^2)^(1/2) Id, whose rate `single_noise_rate` has in
    closed form. With a repeated eigenvalue of A_0 (or A_0 = 0) the optimum
    M~ lies on a continuum of MDE solutions, where its Newton Jacobian can
    be exactly singular; such a start fails only itself in the stacked
    polish, and every one of these 144 points lands on a candidate (version
    0.9.10 found none on 77 of them). Measured worst 4.0e-15 max(1, I),
    bound 1e-13."""
    a0s = [np.zeros((2, 2)), np.zeros((3, 3)), np.diag([0.0, 0.0, 1.0]), np.diag([0.0, 0.0, 0.1]),
           np.diag([1.0, 1.0, 0.0]), 0.3 * np.eye(2)]
    for a0 in a0s:
        ell = len(a0)
        for c in ([1.0], [1.0, 1.0], [0.5, 1.0, 1.0]):
            a = np.sqrt(sum(cj * cj for cj in c)) * np.eye(ell)
            for beta in (1, 2):
                st = make_structure(a0, [cj * np.eye(ell) for cj in c], beta=beta)
                edge = right_edge(st).r_inf
                for dx in (0.05, 0.1, 0.7, 2.0):
                    want = o.single_noise_rate(a0, a, beta, edge + dx)
                    res = rate_function(st, edge + dx)
                    assert abs(res.value - want) <= 1e-13 * max(1.0, want)
                    assert res.stability_flag and res.diagnostics["candidates"] >= 1


# the tight L-BFGS-B tolerance of the reference searches below
_TIGHT_OPTIONS = {"ftol": 1e-15, "gtol": 1e-10, "maxiter": 500}


# the random starts of the reference searches below: their own seed, and
# random factors filling up to this count
_REFERENCE_SEED, _REFERENCE_STARTS = 0, 8


def _random_fill(st, seeds, key):
    """seeds filled up to _REFERENCE_STARTS with random perturbations of the
    identity factor from stream(_REFERENCE_SEED, 7, key)."""
    ell, rng = st.L, stream(_REFERENCE_SEED, 7, key)
    seeds = list(seeds)
    while len(seeds) < _REFERENCE_STARTS:
        c = np.eye(ell) / np.sqrt(ell) + 0.7 * rng.standard_normal((ell, ell))
        if not st.is_real:
            c = c + 0.7j * rng.standard_normal((ell, ell))
        seeds.append(c)
    return seeds


def _top_projector(st):
    w, v = np.linalg.eigh(st.a0)
    top = v[:, -1] if abs(w[-1]) > 1e-12 else np.eye(st.L)[:, 0]
    return np.outer(top, top.conj())


def _ladder_seed_factors(st, rung, warm):
    """Start factors of the eps ladder the certified search replaced: the
    identity, the top eigenprojector of A_0, random perturbations, a warm factor."""
    seeds = _random_fill(st, [np.eye(st.L), _top_projector(st)], rung)
    if warm is not None:
        seeds.insert(0, np.array(warm))
    return seeds


def _ladder_rate(st, x):
    """The eps ladder on the eps-constrained reference: eps = q0 2^-rung for
    rungs 0-11, each warm-started from the last, until two rungs agree to
    1e-4 relative. Returns the last rung's value."""
    ell, complex_params = st.L, not st.is_real
    id_l = np.eye(ell) / ell
    s_id = apply_S(st, id_l)
    q0 = rate_mod._re_trace(id_l, s_id)
    base = rate_mod._curve_base(st, x)
    values, warm = [], None
    for rung in range(12):
        eps = q0 * 2.0 ** -rung
        th_hi = ref.theta_cap(st, x, eps)
        runs = [minimize(ref.objective, rate_mod._pack(c0, complex_params),
                         args=(st, base, s_id, eps, th_hi), method="L-BFGS-B",
                         jac=True, options=_TIGHT_OPTIONS)
                for c0 in _ladder_seed_factors(st, rung, warm)]
        c = rate_mod._unpack(min(runs, key=lambda out: out.fun).x, ell, complex_params)
        psi = c @ c.conj().T
        psi, s_psi, _ = ref.feasible(st, psi / np.trace(psi).real, eps, s_id)
        values.append(ref.capped_sup(st, psi, s_psi, th_hi, base)[1])
        w, v = np.linalg.eigh(psi)
        warm = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        if len(values) > 1 and (abs(values[-1] - values[-2])
                                <= 1e-4 * max(1.0, abs(values[-1]))):
            break
    return values[-1]


def _tilt_residual(st, x, theta, psi):
    """|L lambda_sym(theta, x, phi_hat) - 1|: zero where the sampler tilt
    L theta with profile phi_hat(theta, x, psi) plants the outlier at x."""
    phi_hat = phi_maps(st, theta, x, psi)[1]
    return abs(st.L * lambda_sym(st, theta, x, phi_hat) - 1.0)


def test_certified_search_agrees_with_the_eps_ladder():
    """60 points: random L = 2-4 structures, beta 1 and 2, three distances
    from the edge. The uncapped, unconstrained search matches the eps ladder
    of the eps-constrained reference (eps_reference.py) to 1e-12 relative,
    except where the ladder stops short of the global minimum; there the
    new value is lower and satisfies I_2 = 2 I_1, which the ladder's does
    not (stream(705), L = 4: a missed start at x = r_inf + 0.4, beta = 1,
    and a slow approach to the rank-one optimum at the rest).
    At every point the optimal tilt plants the outlier at x to 1e-10, and
    a profile a third of the way to a random one does not (> 1e-3)."""
    lower = set()
    for i in range(10):
        plain = random_structure(stream(700 + i), 2 + i % 3)
        edge = right_edge(plain).r_inf
        for dx in (0.05, 0.4, 1.5):
            x = edge + dx
            values = {}
            for beta in (1, 2):
                st = make_structure(plain.a0, list(plain.a), beta=beta)
                res = rate_function(st, x)
                values[beta] = res.value
                old = _ladder_rate(st, x)
                assert res.stability_flag
                assert res.value <= old * (1.0 + 1e-12)
                if abs(res.value - old) > 1e-12 * old:
                    lower.add((i, dx, beta))
                assert _tilt_residual(st, x, res.theta_star, res.psi_star.psi) <= 1e-10
                rng = stream(710, i, beta)
                psi = 0.7 * res.psi_star.psi + 0.3 * random_pd_profile(rng, st.L)
                theta = sup_theta(st, x, psi)[0]
                assert _tilt_residual(st, x, theta, psi) > 1e-3
            if any(key[:2] == (i, dx) for key in lower):
                assert values[2] == pytest.approx(2.0 * values[1], rel=1e-12)
    assert (5, 0.4, 1) in lower
    assert all(i == 5 for i, _, _ in lower)


def _random_seed_factors(st, s_id):
    """The start factors of the search before it went seed-free: the
    identity, the top eigenprojector of A_0, the eigenprojectors of S(Id)
    and random factors up to _REFERENCE_STARTS, each distinct profile once."""
    seeds = [np.eye(st.L), _top_projector(st)]
    seeds += [np.outer(u, u.conj()) for u in np.linalg.eigh(s_id)[1].T]
    distinct, profiles = [], []
    for c in _random_fill(st, seeds, 10):
        p = c @ c.conj().T
        p = p / np.trace(p).real
        if all(np.abs(p - q).max() > 1e-12 for q in profiles):
            distinct.append(c)
            profiles.append(p)
    return distinct


def _full_multistart(st, x):
    """The eps-constrained reference at eps = q0 / 1024 from the search's
    former starts, random ones included (_random_seed_factors), every one
    polished to _TIGHT_OPTIONS and the best kept. Returns (value, summed
    nfev)."""
    ell, complex_params = st.L, not st.is_real
    id_l = np.eye(ell) / ell
    s_id = apply_S(st, id_l)
    eps = rate_mod._re_trace(id_l, s_id) / 1024.0
    base = rate_mod._curve_base(st, x)
    th_hi = ref.theta_cap(st, x, eps)
    runs = [minimize(ref.objective, rate_mod._pack(c0, complex_params),
                     args=(st, base, s_id, eps, th_hi), method="L-BFGS-B",
                     jac=True, options=_TIGHT_OPTIONS)
            for c0 in _random_seed_factors(st, s_id)]
    best = min(runs, key=lambda out: out.fun).x
    return ref.projected_value(st, best, base, s_id, eps, th_hi), sum(out.nfev for out in runs)


def rotated_direct_sum(rng, ell):
    """A bench-like L = ell direct sum: GOE blocks shifted in [-0.3, 0.3] and
    scaled in [0.75, 1.25], every matrix conjugated by one random rotation."""
    shifts, scales = rng.uniform(-0.3, 0.3, ell), rng.uniform(0.75, 1.25, ell)
    q = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
    eye = np.eye(ell)
    return make_structure(q @ np.diag(shifts) @ q.T,
                          [g * q @ np.outer(eye[j], eye[j]) @ q.T for j, g in enumerate(scales)])


def test_screened_search_matches_the_full_multistart():
    """The uncapped search, screening every start into its candidate's
    Newton basin and polishing every screened start on the MDE, gives the
    value of the eps-constrained reference at eps = q0 / 1024 with every
    start polished, on the 60 points of the eps ladder test, on 12 points
    of rotated L = 2 direct sums and on rs746 (L = 3) at r_inf + 0.1,
    beta = 1 and 2, with at most 0.6 times the evaluations (measured 2748
    against 16866). rs746 is where the next-looser screen, ftol 1e-1 and
    gtol 1, misses the optimum: 0.1066 against 0.0237 at beta = 1. A value
    may sit above the reference's only by the polish's own resolution,
    1e-14 max(1, I): the largest rise is 3.3e-15 at stream(703), L = 2,
    x = r_inf + 1.5, beta = 2, and the largest relative difference 6.6e-14
    at stream(703), x = r_inf + 0.05, beta = 2."""
    points = []
    for i in range(10):
        plain = random_structure(stream(700 + i), 2 + i % 3)
        edge = right_edge(plain).r_inf
        points += [(make_structure(plain.a0, list(plain.a), beta=beta), edge + dx)
                   for dx in (0.05, 0.4, 1.5) for beta in (1, 2)]
    for i in range(6):
        plain = rotated_direct_sum(stream(27, i), 2)
        edge = right_edge(plain).r_inf
        points += [(make_structure(plain.a0, list(plain.a), beta=1 + i % 2), edge + dx)
                   for dx in (0.25, 0.75)]
    plain = random_structure(stream(746), 3)
    points += [(make_structure(plain.a0, list(plain.a), beta=beta), right_edge(plain).r_inf + 0.1)
               for beta in (1, 2)]
    fevals = full_nfev = 0
    for st, x in points:
        res = rate_function(st, x)
        value, nfev = _full_multistart(st, x)
        assert res.stability_flag
        assert res.value == pytest.approx(value, rel=1e-12)
        assert res.value <= value + 1e-14 * max(1.0, value)
        fevals += res.diagnostics["fevals"]
        full_nfev += nfev
    assert fevals <= 0.6 * full_nfev


def _polish_points(pair, herm2):
    """The certified points of the MDE polish tests: pair, herm2 (beta = 2)
    and rs710-rs719 (L = 2, 3, 4 cycling) at r_inf + 0.05, 0.5 and 2."""
    sts = [pair, herm2] + [random_structure(stream(n), 2 + (n - 710) % 3) for n in range(710, 720)]
    return [(st, right_edge(st).r_inf + dx) for st in sts for dx in (0.05, 0.5, 2.0)]


def test_mde_polish_lands_on_the_second_real_solution(pair, herm2, monkeypatch):
    """The search polishes every screened start in one stacked Newton on the
    MDE at x (the `rate` module docstring) and returns the least candidate:
    the M~ that candidate landed on, the one whose (M(x) - M~)/Tr(M(x) - M~)
    is Psi* (measured within 7.8e-16), gives the optimal tilt,
    theta* = -Tr M~/(2L), with theta* computed by sup_theta at Psi*.
    Measured worst 2.8e-15 relative on these 36 points, bound 1e-14. M~ is
    not the physical root: it sits beyond M(x) by 2 L (theta* - theta_x) in
    trace."""
    landed = []
    newton = rate_mod._newton_polish

    def recorded(*args, **kwargs):
        m, ok = newton(*args, **kwargs)
        landed.append(m[ok].copy())
        return m, ok

    monkeypatch.setattr(rate_mod, "_newton_polish", recorded)
    for st, x in _polish_points(pair, herm2):
        landed.clear()
        res = rate_function(st, x)
        assert res.stability_flag
        assert len(landed) == 1  # one stacked polish
        assert 1 <= res.diagnostics["candidates"] <= len(landed[0])
        m_x = _cache_for(st).m_matrix(x)
        d = m_x - landed[0]
        miss = np.abs(d / np.trace(d, axis1=1, axis2=2).real[:, None, None]
                      - res.psi_star.psi).max(axis=(1, 2))
        assert miss.min() <= 1e-14
        m_t = landed[0][miss.argmin()]
        theta = -np.trace(m_t).real / (2.0 * st.L)
        assert abs(theta - res.theta_star) <= 1e-14 * res.theta_star
        assert np.max(np.abs(m_t - m_x)) > 1e-3


def test_rate_evaluates_no_screened_start_twice(pair, herm2, monkeypatch):
    """One rate point calls _sup_curve once per screen evaluation (fevals,
    each inside _profile_objective) and once per polished M~ whose
    D = M(x) - M~ passes the candidate's PSD test, and nowhere else: each
    L-BFGS run hands its last point on, so no screened start is evaluated
    again. On the 36 points of the MDE polish tests and dsum at the
    benchmark's six x."""
    counts = {"evaluations": 0, "inside": 0, "outside": 0, "busy": False}
    objective, sup_curve, newton = (rate_mod._profile_objective, rate_mod._sup_curve,
                                    rate_mod._newton_polish)
    landed = []

    def counted_objective(*args):
        counts["evaluations"] += 1
        counts["busy"] = True
        try:
            return objective(*args)
        finally:
            counts["busy"] = False

    def counted_sup_curve(*args):
        counts["inside" if counts["busy"] else "outside"] += 1
        return sup_curve(*args)

    def recorded(*args, **kwargs):
        m, ok = newton(*args, **kwargs)
        landed.append(m[ok].copy())
        return m, ok

    monkeypatch.setattr(rate_mod, "_profile_objective", counted_objective)
    monkeypatch.setattr(rate_mod, "_sup_curve", counted_sup_curve)
    monkeypatch.setattr(rate_mod, "_newton_polish", recorded)
    dsum = make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    points = _polish_points(pair, herm2) + [(dsum, x) for x in (2.5, 2.65, 2.8, 3.0, 3.3, 3.6)]
    for st, x in points:
        for key in ("evaluations", "inside", "outside"):
            counts[key] = 0
        landed.clear()
        res = rate_function(st, x)
        d = _cache_for(st).m_matrix(x) - landed[0]
        w = np.linalg.eigvalsh(0.5 * (d + d.conj().swapaxes(-1, -2)))
        admissible = int(np.sum((w.sum(axis=1) > 0.0) & (w[:, 0] >= -1e-12 * w.sum(axis=1))))
        assert counts["inside"] == counts["evaluations"] == res.diagnostics["fevals"]
        assert counts["outside"] == admissible >= res.diagnostics["candidates"] >= 1


def test_rate_without_a_candidate_is_a_numerical_failure(pair, herm2, monkeypatch):
    """The MDE polish is the search's one landing: where it gives no screened
    start a candidate, rate_function raises a ConvergenceError naming x and
    the number of screened starts, on each of these 36 points."""
    monkeypatch.setattr(rate_mod, "_newton_polish",
                        lambda structure, z, m0, tol: (m0.copy(), np.zeros(len(z), dtype=bool)))
    for st, x in _polish_points(pair, herm2):
        with pytest.raises(ConvergenceError,
                           match=rf"no candidate for the rate at x={x}: the MDE polish of "
                                 rf"\d+ screened starts gave none"):
            rate_function(st, x)


def _dyson_free_energy(st, x, m):
    """The Dyson free-energy functional at x, written from its definition:
    U_x(M') = -1 - (1/L) [ln det(-M') + Tr((x - A_0) M') + Tr(M' S[M']) / 2].
    Its gradient in M' vanishes exactly on the MDE at x; at M' = M(x) it
    is the log potential U(x)."""
    sign, logdet = np.linalg.slogdet(-m)
    assert abs(sign - 1.0) <= 1e-12  # -M' positive definite
    bracket = (logdet + np.trace((x * np.eye(st.L) - st.a0) @ m).real
               + 0.5 * np.trace(m @ apply_S(st, m)).real)
    return -1.0 - bracket / st.L


def test_rate_is_the_free_energy_gap(pair, herm2):
    """The rate is the free-energy gap between the MDE's two real solutions
    at x (ROADMAP item 2): I = (beta L/2)(U_x(M~) - U(x)) to 1e-13
    max(1, I), and M~ = M(x) - 2L (theta* - theta_x) Psi* solves the MDE,
    ||Id + (x - A_0 + S[M~]) M~||_2 <= 1e-13 max(1, ||M~||_2). On the 45
    certified points of pair, herm2, lownoise (A_0 = diag(0, 2.48),
    A = [E11, 0.01 E22]) and rs710-rs715 with their beta = 2 twins, at
    r_inf + 0.05, 0.5 and 2, the measured worsts are 4.1e-15 (gap) and
    5.4e-15 (defect); scaling apply_S by 1 + 1e-6 inside `rate` only gives
    2.8e-6 and 4.4e-6."""
    lownoise = make_structure(np.diag([0.0, 2.48]), [np.diag([1.0, 0.0]), np.diag([0.0, 0.01])])
    rs = [random_structure(stream(n), 2 + (n - 710) % 3) for n in range(710, 716)]
    for st in [pair, herm2, lownoise] + rs + [twin(st) for st in rs]:
        L = st.L
        for dx in (0.05, 0.5, 2.0):
            x = right_edge(st).r_inf + dx
            res = rate_function(st, x)
            assert res.stability_flag
            m_x = stieltjes_real(st, x)[1]
            theta_x = -np.trace(m_x).real / (2.0 * L)
            m_t = m_x - 2.0 * L * (res.theta_star - theta_x) * res.psi_star.psi
            gap = 0.5 * st.beta * L * (_dyson_free_energy(st, x, m_t) - log_potential(st, x))
            assert abs(gap - res.value) <= 1e-13 * max(1.0, res.value)
            defect = np.eye(L) + (x * np.eye(L) - st.a0 + apply_S(st, m_t)) @ m_t
            assert np.linalg.norm(defect, 2) <= 1e-13 * max(1.0, np.linalg.norm(m_t, 2))


def single_noise_structure(rng, ell, beta, scale=1.0):
    """A k' = 1 structure (ROADMAP item 3): a dense A_0 = scale (g + g*)/2
    (complex Hermitian at beta = 2) that does not commute with A, a real
    symmetric one with ||A|| = 1."""
    g = rng.standard_normal((ell, ell))
    a = (g + g.T) / 2.0
    g = rng.standard_normal((ell, ell))
    if beta == 2:
        g = g + 1j * rng.standard_normal((ell, ell))
    return make_structure(scale * (g + g.conj().T) / 2.0, [a / np.linalg.norm(a, 2)], beta=beta)


@pytest.mark.parametrize("i", range(24))
def test_single_noise_rate_matches_the_closed_form(i):
    """X = A_0 (x) Id + A (x) W with one GOE/GUE W is the direct sum of
    A_0 + d A over W's eigenvalues d, so r_inf = max(f(-2), f(2)) with
    f(d) = lambda_max(A_0 + d A), and by contraction I_beta(x) = beta
    min(I_GOE(d_+), I_GOE(-d_-)) (`oracles.single_noise_rate`). right_edge
    matches within 4e-15 relative (measured 4.9e-16), and rate_function at
    r_inf + 0.1, 0.7 and 2 within 1e-13 (measured 2.6e-14 on the 24
    structures, most of it the closed form's own rounding; the L-BFGS-B
    polish of version 0.9.5 stopped up to 8.2e-12 short). L = 2, 3, 4
    cycling, beta = 1 for i // 3 even and 2 for odd."""
    st = single_noise_structure(stream(32, i), 2 + i % 3, 1 + i // 3 % 2)
    a0, a = st.a0, st.a[0]
    edge = o.single_noise_edge(a0, a)
    assert abs(right_edge(st).r_inf - edge) <= 4e-15 * abs(edge)
    for dx in (0.1, 0.7, 2.0):
        res = rate_function(st, edge + dx)
        want = o.single_noise_rate(a0, a, st.beta, edge + dx)
        assert res.stability_flag
        assert abs(res.value - want) <= 1e-13 * want


# ---------------------------------------------------------------------------
# L >= 2 oracles of the profile optimizer: gradient, invariances, envelope

# few derandomized examples: every one costs several rate_function calls
ORACLE_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True)
# the gate of the MDE's one continuation (tests/test_mde.py): a few solve
# ladders per example, so more examples
CONTINUATION_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
CASES = hs.tuples(hs.integers(0, 2 ** 16), hs.sampled_from([2, 3]), hs.sampled_from([1, 2]))


def random_unitary(rng, ell, beta):
    g = rng.standard_normal((ell, ell))
    if beta == 2:
        g = g + 1j * rng.standard_normal((ell, ell))
    return np.linalg.qr(g)[0]


def conjugated(st, u):
    return make_structure(u @ st.a0 @ u.conj().T, [u @ a @ u.conj().T for a in st.a],
                          beta=st.beta)


def oracle_case(case):
    """(rng, structure, x) for one drawn (seed, L, beta); at beta = 2 the
    structure is conjugated by a random unitary, so it is complex."""
    seed, ell, beta = case
    rng = stream(61, seed)
    st = random_structure(rng, ell)
    st = conjugated(make_structure(st.a0, list(st.a), beta=beta),
                    random_unitary(rng, ell, beta) if beta == 2 else np.eye(ell))
    return rng, st, right_edge(st).r_inf + float(rng.uniform(0.2, 1.0))


def _relative_gradient_error(v, args):
    value, grad, _ = rate_mod._profile_objective(v, *args)
    h = 1e-6
    num = np.array([(rate_mod._profile_objective(v + h * e, *args)[0]
                     - rate_mod._profile_objective(v - h * e, *args)[0]) / (2.0 * h)
                    for e in np.eye(len(v))])
    assert value > 0.0
    return np.linalg.norm(num - grad) / np.linalg.norm(grad)


@ORACLE_SETTINGS
@given(case=CASES)
def test_profile_gradient_matches_central_differences(case):
    rng, st, x = oracle_case(case)
    ell = st.L
    complex_params = not st.is_real
    args = (st, rate_mod._curve_base(st, x))
    # a random factor
    c = rng.standard_normal((ell, ell)) + (1j * rng.standard_normal((ell, ell))
                                           if complex_params else 0.0)
    assert _relative_gradient_error(rate_mod._pack(c, complex_params), args) <= 1e-6

    # of a few near-rank-one profiles the one of least q = Tr[Psi S(Psi)],
    # where the sup over theta reaches furthest
    def q_of(psi):
        return rate_mod._re_trace(psi, apply_S(st, psi))

    near_rank_one = []
    for _ in range(20):
        u = rng.standard_normal(ell) + (1j * rng.standard_normal(ell) if complex_params else 0.0)
        g = np.outer(u, u.conj()) / np.vdot(u, u).real + 0.05 * np.eye(ell)
        near_rank_one.append(g / np.trace(g).real)
    psi = min(near_rank_one, key=q_of)
    assert q_of(psi) < q_of(np.eye(ell) / ell)
    w, u = np.linalg.eigh(psi)
    c = u * np.sqrt(w)
    assert _relative_gradient_error(rate_mod._pack(c, complex_params), args) <= 1e-6


def _explicit_objective(v, st, x):
    """_profile_objective written out from the module docstring's formulas,
    term by term: Re Tr[a b] as np.trace(a @ b), a with its P S(Psi) and
    A_0 terms apart, G from S(P) and A_0, and the explicit inverse of
    P + t Psi; the sup over theta by the same Newton descent from a/b."""
    L, complex_params = st.L, not st.is_real
    m = _cache_for(st).m_matrix(x)
    p, theta_x = -m / (2.0 * L), -np.trace(m).real / (2.0 * L)
    c = rate_mod._unpack(v, L, complex_params)
    psi = c @ c.conj().T
    tr = np.trace(psi).real
    psi = psi / tr
    s_psi = apply_S(st, psi)
    a = L * (x - 2.0 * L * np.trace(p @ s_psi).real - np.trace(st.a0 @ psi).real)
    b = 2.0 * L * L * np.trace(psi @ s_psi).real
    r_inv = np.linalg.inv(np.linalg.cholesky(p))
    mu = np.linalg.eigvalsh(r_inv @ psi @ r_inv.conj().T).clip(0.0)
    t = top = a / b if a > 0.0 else 0.0
    for _ in range(100 if t > 0.0 else 0):
        q = mu / (1.0 + t * mu)
        d1, d2 = a - b * t - 0.5 * q.sum(), 0.5 * (q * q).sum() - b
        if d1 >= 0.0:
            break
        step = d1 / d2 if d2 < 0.0 else np.inf
        if step >= t:
            top = 0.0
            break
        t = top = t - step
        if step <= 1e-15 * t:
            break
    f = st.beta * (top * (a - 0.5 * b * top) - 0.5 * np.log1p(top * mu).sum())
    if not f > 0.0:
        return 0.0, np.zeros_like(v)
    g = st.beta * (top * L * (-2.0 * L * apply_S(st, p) - st.a0)
                   - 2.0 * L * L * top * top * s_psi - 0.5 * top * np.linalg.inv(p + top * psi))
    g = 0.5 * (g + g.conj().T)
    g = g - np.trace(g @ psi).real * np.eye(L)
    return f, rate_mod._pack(2.0 * g @ c / tr, complex_params)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_profile_objective_matches_its_explicit_formulas(ell, beta):
    """The one-pass objective (H = 2 L S(P) + A_0, Re Tr by vdot, the
    gradient made Hermitian once) matches the formulas written out, to
    1e-13 max(1, |f|) in value and 1e-12 relative in gradient, on random,
    rank-one projector and near-singular profiles."""
    rng = stream(41, ell, beta)
    st = random_structure(rng, ell)
    if beta == 2:
        st = conjugated(twin(st), random_unitary(rng, ell, 2))
    complex_params = not st.is_real
    x = right_edge(st).r_inf + float(rng.uniform(0.2, 1.0))
    base = rate_mod._curve_base(st, x)

    def factor(shape):
        c = rng.standard_normal(shape)
        return c + 1j * rng.standard_normal(shape) if complex_params else c

    factors = []
    for _ in range(5):
        factors.append(factor((ell, ell)))  # random
        u = factor(ell)
        factors.append(np.outer(u, np.eye(ell)[0]))  # C C* = u u*, a rank-one projector
        w, q = np.linalg.eigh(random_pd_profile(rng, ell))
        factors.append(q * np.sqrt(np.r_[1e-9, w[1:]]))  # near-singular
    positive = 0
    for c in factors:
        v = rate_mod._pack(c, complex_params)
        value, grad, _ = rate_mod._profile_objective(v, st, base)
        want, want_grad = _explicit_objective(v, st, x)
        assert abs(value - want) <= 1e-13 * max(1.0, abs(want))
        assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)
        positive += want > 0.0
    assert positive >= len(factors) // 2


@pytest.mark.parametrize("complex_params", [False, True])
def test_re_trace_is_the_real_trace_of_the_product(complex_params):
    """_re_trace(a, b) = Re Tr[a b] for a Hermitian a, b, by vdot."""
    rng = stream(41, 7)
    for ell in (1, 2, 3, 4, 8):
        a, b = (rng.standard_normal((ell, ell)) for _ in range(2))
        if complex_params:
            a, b = a + 1j * rng.standard_normal((ell, ell)), b + 1j * rng.standard_normal((ell, ell))
        a, b = a + a.conj().T, b + b.conj().T
        want = np.trace(a @ b).real
        assert abs(rate_mod._re_trace(a, b) - want) <= 1e-14 * np.abs(a).sum() * np.abs(b).max()


def test_stationary_start_takes_no_step(pair, monkeypatch):
    """A start whose gradient already meets the screen's gtol test
    (max |gradient| <= gtol) is taken as it is, one evaluation and no step:
    on a direct sum each of the L eigenprojectors of S(Id) is such a start,
    so only the other distinct starts step. pair is one too in effect: A_0
    and every A_j map diagonal matrices to diagonal ones, so M(x) and G are
    diagonal at the diagonal projectors. rs710 has no such start. The
    result is bitwise the one where every start steps, each stationary one
    run again with no gtol test (gtol -1): there every trial step fails the
    Armijo test or moves the start by a rounding-sized step, and the polish
    lands where it did."""
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    dsum = make_structure(np.diag([0.0, 0.3]), [e11, e22])
    cases = [(dsum, 2.8, 2), (rotated_direct_sum(stream(27, 0), 2), None, 2), (pair, None, 2),
             (random_structure(stream(710), 2), None, 0)]
    lbfgs = rate_mod._lbfgs
    evaluations = []

    def counted(structure, base, v):
        point, fevals = lbfgs(structure, base, v)
        evaluations.append(fevals)
        return point, fevals

    def every_start_steps(structure, base, v):
        point, fevals = lbfgs(structure, base, v)
        if fevals > 1:
            return point, fevals
        with monkeypatch.context() as mp, np.errstate(divide="ignore", invalid="ignore"):
            # a zero gradient makes the first trial step NaN: the 1e6 sentinel
            mp.setattr(rate_mod, "_SCREEN_OPTIONS", {**rate_mod._SCREEN_OPTIONS, "gtol": -1.0})
            return lbfgs(structure, base, v)

    for st, x, skipped in cases:
        x = x if x is not None else right_edge(st).r_inf + 0.75
        starts = len(rate_mod._seed_factors(st, rate_mod._curve_base(st, x)))
        with monkeypatch.context() as mp:
            mp.setattr(rate_mod, "_lbfgs", counted)
            evaluations.clear()
            res = rate_function(st, x)
        assert res.stability_flag and res.diagnostics["candidates"] >= 1
        assert len(evaluations) == starts
        assert sum(n > 1 for n in evaluations) == starts - skipped
        assert sum(evaluations) == res.diagnostics["fevals"]
        with monkeypatch.context() as mp:
            mp.setattr(rate_mod, "_lbfgs", every_start_steps)
            want = rate_function(st, x)
        assert (res.value, res.theta_star, res.epsilon_used) == \
            (want.value, want.theta_star, want.epsilon_used)
        assert np.array_equal(res.psi_star.psi, want.psi_star.psi)
        assert want.diagnostics["fevals"] > res.diagnostics["fevals"] or skipped == 0
        for key in ("first_order_gap", "candidates"):
            assert res.diagnostics[key] == want.diagnostics[key]
        assert res.stability_flag == want.stability_flag


def test_direct_sum_runs_l_plus_one_starts(monkeypatch):
    """On a direct sum the eigenprojectors of A_0, S(Id) and M(x) coincide,
    so a point runs L + 1 starts, the identity and the L eigenprojectors,
    and each eigenprojector is a stationary start of one evaluation: dsum
    at the benchmark's six x, and rotated L = 2 and L = 3 direct sums 0.25
    and 0.75 right of the edge. The benchmark's rate plans are such points."""
    lbfgs = rate_mod._lbfgs
    evaluations = []

    def counted(structure, base, v):
        point, fevals = lbfgs(structure, base, v)
        evaluations.append(fevals)
        return point, fevals

    monkeypatch.setattr(rate_mod, "_lbfgs", counted)
    dsum = make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    points = [(dsum, x) for x in (2.5, 2.65, 2.8, 3.0, 3.3, 3.6)]
    for ell, count in ((2, 6), (3, 3)):
        for i in range(count):
            st = rotated_direct_sum(stream(27, i), ell)
            points += [(st, right_edge(st).r_inf + dx) for dx in (0.25, 0.75)]
    for st, x in points:
        evaluations.clear()
        res = rate_function(st, x)
        assert res.stability_flag
        assert len(evaluations) == st.L + 1
        assert evaluations.count(1) == st.L
        assert sum(evaluations) == res.diagnostics["fevals"]


@ORACLE_SETTINGS
@given(case=CASES)
def test_rate_invariant_under_unitary_conjugation(case):
    rng, st, x = oracle_case(case)
    rot = conjugated(st, random_unitary(rng, st.L, st.beta))
    want = rate_function(st, x).value
    assert rate_function(rot, x).value == pytest.approx(want, abs=1e-10 * max(1.0, want))


@ORACLE_SETTINGS
@given(case=CASES, shift=hs.floats(-1.0, 1.0))
def test_rate_shift_of_a0_shifts_x(case, shift):
    _, st, x = oracle_case(case)
    moved = make_structure(st.a0 + shift * np.eye(st.L), list(st.a), beta=st.beta)
    want = rate_function(st, x).value
    assert rate_function(moved, x + shift).value == \
        pytest.approx(want, abs=1e-10 * max(1.0, want))


@ORACLE_SETTINGS
@given(case=CASES, scale=hs.floats(0.5, 2.0))
def test_rate_scale_invariance(case, scale):
    _, st, x = oracle_case(case)
    scaled = make_structure(scale * st.a0, [scale * a for a in st.a], beta=st.beta)
    want = rate_function(st, x).value
    assert rate_function(scaled, scale * x).value == \
        pytest.approx(want, abs=1e-10 * max(1.0, want))


@ORACLE_SETTINGS
@given(case=CASES)
def test_rate_optimal_tilt_places_the_outlier_at_x(case):
    # the sampler tilt L theta* with profile phi_hat* plants the outlier at x
    _, st, x = oracle_case(case)
    res = rate_function(st, x)
    assert _tilt_residual(st, x, res.theta_star, res.psi_star.psi) <= 1e-10


@ORACLE_SETTINGS
@given(case=CASES)
def test_rate_envelope_identity(case):
    # I'(x) = dF/dx at the optimum held fixed; this pins theta* and Psi*
    _, st, x = oracle_case(case)
    res = rate_function(st, x)
    h = 1e-4
    di = (rate_function(st, x + h).value - rate_function(st, x - h).value) / (2.0 * h)
    psi = res.psi_star.psi
    df = (f_value(st, res.theta_star, x + h, psi)
          - f_value(st, res.theta_star, x - h, psi)) / (2.0 * h)
    assert di == pytest.approx(df, rel=1e-6)


def test_rate_slope_is_beta_l_times_the_tilt_above_theta_x():
    """I'(x) = beta L (theta* - theta_x), an equality for every L >= 2 point:
    central differences (h = 1e-4) of rate_function on 8 structures of the
    60-point family at d = 0.3 and 1.5 right of the edge, beta 1 and 2.
    Measured worst 8.1e-8 relative, at stream(701), L = 3, d = 0.3,
    beta = 1, where theta* itself is that far off (its beta = 2 twin gives
    4.3e-9); the other 31 points are within 1.7e-8. Bound 2e-7."""
    h = 1e-4
    for i in range(8):
        plain = random_structure(stream(700 + i), 2 + i % 3)
        edge = right_edge(plain).r_inf
        for d in (0.3, 1.5):
            x = edge + d
            for beta in (1, 2):
                st = make_structure(plain.a0, list(plain.a), beta=beta)
                res = rate_function(st, x)
                theta_x = -float(np.trace(_cache_for(st).m_matrix(x)).real) / (2.0 * st.L)
                slope = (rate_function(st, x + h).value
                         - rate_function(st, x - h).value) / (2.0 * h)
                assert slope == pytest.approx(beta * st.L * (res.theta_star - theta_x),
                                              rel=2e-7)


# ---------------------------------------------------------------------------
# rate curve

def test_rate_curve_goe_monotone(sc):
    values = [r.value for r in rate_curve(sc, [2.2, 2.5, 3.0])]
    assert values == sorted(values)
    assert values[0] > 0.0


def test_rate_curve_continuous_at_edge(sc):
    res = rate_curve(sc, [2.0 + 1e-3])[0]
    assert abs(res.value) <= 1e-2


def test_rate_curve_increasing_with_duplicates(pair):
    edge = right_edge(pair).r_inf
    curve = rate_curve(pair, [edge + 0.5, edge + 1.0, edge + 1.0, edge + 1.5])
    values = [r.value for r in curve]
    assert values[0] < values[1] < values[3]
    # each point is its own search from the same starts: a repeat is exact
    assert values[1] == values[2]
