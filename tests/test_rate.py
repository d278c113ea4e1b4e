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

import oracles as o
from kronldp import (
    DegenerateModelError,
    DomainError,
    OptConfig,
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
    sup_theta,
    theta_cap,
)
from kronldp import rate as rate_mod
from kronldp.mde import _cache_for
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


def random_pd_profile(rng, ell):
    c = np.eye(ell) + 0.6 * rng.standard_normal((ell, ell))
    g = c @ c.T + 0.05 * np.eye(ell)
    return g / np.trace(g)


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
    with pytest.raises(ValueError):
        k_value(s2, 1.0, np.eye(2) / 2.0, beta=3)


def test_k_beta_two_equals_beta_one_on_real_inputs(pair):
    psi = np.diag([0.7, 0.3])
    assert k_value(pair, 0.9, psi, beta=2) == pytest.approx(
        k_value(pair, 0.9, psi, beta=1), abs=1e-14)


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
    f1 = f_value(pair, 0.8, edge + 1.0, psi, beta=1)
    f2 = f_value(pair, 0.8, edge + 1.0, psi, beta=2)
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
# theta cap and sup

def test_theta_cap_semicircle_value(sc):
    # -m_sc(3) + 4(4+0)/1 = (3-sqrt(5))/2 + 16
    want = (3.0 - np.sqrt(5.0)) / 2.0 + 16.0
    assert theta_cap(sc, 4.0, 3.0, 1.0) == pytest.approx(want, abs=1e-9)


def test_theta_cap_scales_like_inverse_eps(pair):
    edge = right_edge(pair).r_inf
    big = theta_cap(pair, 3.0, edge + 1.0, 1e-3)
    small = theta_cap(pair, 3.0, edge + 1.0, 1.0)
    m_eta = small - 4.0 * (3.0 + 4.0 * np.linalg.norm(pair.a0, 2)) / 4.0
    assert big == pytest.approx(m_eta + 1e3 * (small - m_eta), rel=1e-12)


def test_theta_cap_requires_eta_beyond_edge(pair):
    with pytest.raises(DomainError):
        theta_cap(pair, 3.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        theta_cap(pair, 3.0, right_edge(pair).r_inf + 1.0, 0.0)


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


def _brute_sup(st, x, psi, beta, theta_hi):
    """Max of f_value on a dense theta grid, refined around the best node."""
    theta_x = -float(np.trace(_cache_for(st).m_matrix(x)).real) / (2.0 * st.L)
    grid = theta_x + (theta_hi - theta_x) * np.linspace(0.0, 1.0, 1501) ** 2
    vals = [f_value(st, th, x, psi, beta=beta) for th in grid]
    i = int(np.argmax(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(lambda th: -f_value(st, th, x, psi, beta=beta),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * (1.0 + hi)})
    return max(vals[i], -float(res.fun))


def test_sup_theta_matches_brute_force():
    rng = stream(53, 1)
    interior = 0
    for case in range(12):
        ell = case % 3 + 1
        beta = case // 3 % 2 + 1
        st = random_structure(rng, ell)
        x = right_edge(st).r_inf + float(rng.uniform(0.1, 1.5))
        psi = random_pd_profile(rng, ell)
        if case >= 6 and ell > 1:
            v = rng.standard_normal(ell)
            psi = np.outer(v, v) / (v @ v)  # rank one
        eps = float(np.trace(psi.T @ apply_S(st, psi.T)))
        theta_hi = theta_cap(st, x + 1.0, 0.5 * (right_edge(st).r_inf + x), eps)
        theta_star, f_star = sup_theta(st, x, psi, beta=beta, eps=eps)
        brute = _brute_sup(st, x, psi, beta, theta_hi)
        assert f_star >= brute - 1e-12
        assert abs(f_star - brute) <= 1e-10 * abs(brute) + 1e-14
        if f_star > 0.0:
            assert f_value(st, theta_star, x, psi, beta=beta) == \
                pytest.approx(f_star, rel=1e-10)
            interior += theta_star < theta_hi
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
    res2 = rate_function(pair, pair_result.x, beta=2)
    assert abs(res2.value - 2.0 * pair_result.value) <= 1e-6


def test_rate_ladder_values_non_increasing(pair_result):
    ladder = [v for _, v in pair_result.diagnostics["ladder"]]
    assert all(b <= a + 1e-9 for a, b in zip(ladder, ladder[1:]))


def test_rate_result_invariants(pair, pair_result):
    res = pair_result
    assert res.value >= -1e-8
    psi = res.psi_star.psi
    assert np.trace(psi).real == pytest.approx(1.0, abs=1e-12)
    q = float(np.trace(psi.T @ apply_S(pair, psi.T)).real)
    assert q >= res.epsilon_used - 1e-10
    cap = theta_cap(pair, res.x + 1.0,
                    0.5 * (right_edge(pair).r_inf + res.x), res.epsilon_used)
    assert 0.0 <= res.theta_star <= cap


def test_rate_deterministic_under_seed(pair, pair_result):
    again = rate_function(pair, pair_result.x, opt_config=OptConfig(seed=0))
    assert again.value == pair_result.value
    assert again.theta_star == pair_result.theta_star


def test_rate_one_s_application_per_evaluation(pair, monkeypatch):
    import kronldp.rate as rate_mod

    calls = {"n": 0}

    def counted(structure, t):
        calls["n"] += 1
        return apply_S(structure, t)

    monkeypatch.setattr(rate_mod, "apply_S", counted)
    # one search per point takes ~70 evaluations here: count over three points
    edge = right_edge(pair).r_inf
    fevals = sum(rate_function(pair, edge + dx).diagnostics["fevals"]
                 for dx in (0.5, 1.0, 1.5))
    assert fevals > 100
    # S(Psi') is shared by the constraint and both traces of the sup over
    # theta; a second application only follows a projection onto the
    # constraint. Three applications per evaluation would give 3 * fevals.
    assert calls["n"] <= 1.2 * fevals


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


def test_rate_requires_x_beyond_edge(sc):
    with pytest.raises(DomainError):
        rate_function(sc, 1.9)


def test_rate_breakdown_consistency(pair):
    edge = right_edge(pair).r_inf
    bd = rate_breakdown(pair, 0.8, edge + 1.0, np.eye(2) / 2.0)
    assert bd.F == pytest.approx(1.0 * (2.0 * bd.J - bd.K), abs=1e-12)
    assert np.trace(bd.phi_hat).real == pytest.approx(1.0, abs=1e-10)
    assert bd.F == pytest.approx(
        f_value(pair, 0.8, edge + 1.0, np.eye(2) / 2.0), abs=1e-12)


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
            assert rate_function(st, x, beta=2).value == \
                pytest.approx(2.0 * want, abs=1e-8)


def test_rate_finds_the_optimum_on_an_eigenvector_of_s_id():
    """The optimum sits on S(Id)'s second eigenvector; with purely random
    starts, seeds 0 and 2 of 0-9 stopped at 0.338857 against 0.221524.
    I_2 = 2 I_1 holds exactly for a real structure, so a missed minimum at
    either beta shows as a broken ratio."""
    st = random_structure(stream(705), 4)
    st2 = make_structure(st.a0, list(st.a), beta=2)
    x = right_edge(st).r_inf + 0.4
    for seed in range(10):
        cfg = OptConfig(seed=seed)
        i1 = rate_function(st, x, opt_config=cfg).value
        i2 = rate_function(st2, x, opt_config=cfg).value
        assert abs(i2 - 2.0 * i1) <= 1e-10


@pytest.mark.parametrize("sigma, shift, x, excluded", [
    (0.2, 2.5, 3.0, False),
    (0.05, 2.4, 2.6, False),
    (0.01, 2.48, 2.503, True),
    (0.01, 4.0, 4.023, True),
])
def test_rate_direct_sum_with_a_low_noise_block(sigma, shift, x, excluded):
    """A0 = diag(0, shift), A1 = E11, A2 = sigma E22: a GOE block and a
    shifted GOE block of noise sigma, so I(x) = min(I_GOE(x),
    I_GOE((x - shift)/sigma)). The eps ladder from eps = q0 returned
    I_GOE(3) = 0.714627 for the first case and 0.246607 for the third, both
    flagged stable. In the last two cases the optimum E22 has q = 1e-4 <
    eps_1, which the constraint excludes: both searches miss it (0.235194
    and 0.808189), so the eigenprojector itself is returned, flagged
    unstable."""
    st = make_structure(np.diag([0.0, shift]), [np.diag([1.0, 0.0]), np.diag([0.0, sigma])])
    want = min(o.goe_rate_closed(x), o.goe_rate_closed((x - shift) / sigma))
    res = rate_function(st, x)
    assert res.value == pytest.approx(want, abs=1e-8)
    assert res.stability_flag is not excluded
    if excluded:
        assert np.allclose(res.psi_star.psi, np.diag([0.0, 1.0]), atol=1e-12)
        assert "returned the excluded eigenprojector" in res.diagnostics["failed"]


def _ladder_seed_factors(st, cfg, rung, warm, complex_params):
    """Start factors of the eps ladder the certified search replaced: the
    identity, the top eigenprojector of A_0, random perturbations, a warm factor."""
    ell = st.L
    w, v = np.linalg.eigh(st.a0)
    top = v[:, -1] if abs(w[-1]) > 1e-12 else np.eye(ell)[:, 0]
    seeds = [np.eye(ell), np.outer(top, top.conj())]
    rng = stream(cfg.seed, 7, rung)
    while len(seeds) < max(cfg.starts, 2):
        c = np.eye(ell) / np.sqrt(ell) + 0.7 * rng.standard_normal((ell, ell))
        if complex_params:
            c = c + 0.7j * rng.standard_normal((ell, ell))
        seeds.append(c)
    if warm is not None:
        seeds.insert(0, np.array(warm))
    return seeds


def _ladder_rate(st, x, beta):
    """The eps ladder: eps = q0 2^-rung, each rung warm-started from the
    last, until two rungs agree to stab_tol. Returns the last rung's value."""
    cfg = OptConfig()
    ell, complex_params = st.L, not st.is_real
    id_l = np.eye(ell) / ell
    s_id = rate_mod._s_dagger(st, id_l, beta)
    q0 = rate_mod._trace_with(id_l, s_id, beta)
    base = rate_mod._curve_base(st, x, beta)
    values, warm = [], None
    for rung in range(cfg.max_rungs):
        eps = q0 * 2.0 ** -rung
        th_hi = theta_cap(st, x + 1.0, 0.5 * (right_edge(st).r_inf + x), eps)
        runs = [minimize(rate_mod._profile_objective, rate_mod._pack(c0, complex_params),
                         args=(st, beta, base, s_id, eps, th_hi), method="L-BFGS-B",
                         jac=True, options=rate_mod._LBFGS_OPTIONS)
                for c0 in _ladder_seed_factors(st, cfg, rung, warm, complex_params)]
        c = rate_mod._unpack(min(runs, key=lambda out: out.fun).x, ell, complex_params)
        psi = c @ c.conj().T
        psi, s_psi, _ = rate_mod._feasible(st, psi / np.trace(psi).real, eps, beta, s_id)
        values.append(rate_mod._sup_curve(st, psi, s_psi, beta, th_hi, base)[1])
        w, v = np.linalg.eigh(psi)
        warm = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        if len(values) > 1 and abs(values[-1] - values[-2]) <= cfg.stab_tol * max(1.0, abs(values[-1])):
            break
    return values[-1]


def _tilt_residual(st, x, theta, psi):
    """|L lambda_sym(theta, x, phi_hat) - 1|: zero where the sampler tilt
    L theta with profile phi_hat(theta, x, psi) plants the outlier at x."""
    phi_hat = phi_maps(st, theta, x, psi)[1]
    return abs(st.L * lambda_sym(st, theta, x, phi_hat) - 1.0)


def test_certified_search_agrees_with_the_eps_ladder():
    """60 points: random L = 2-4 structures, beta 1 and 2, three distances
    from the edge. The single certified search matches the eps ladder to
    1e-12 relative, except where the ladder stops short of the global
    minimum; there the new value is lower and satisfies I_2 = 2 I_1, which
    the ladder's does not (stream(705), L = 4: a missed start at x = r_inf +
    0.4, beta = 1, and a slow approach to the rank-one optimum at the rest).
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
                old = _ladder_rate(st, x, beta)
                assert res.stability_flag and res.diagnostics["certified"]
                assert res.value <= old * (1.0 + 1e-12)
                if abs(res.value - old) > 1e-12 * old:
                    lower.add((i, dx, beta))
                assert _tilt_residual(st, x, res.theta_star, res.psi_star.psi) <= 1e-10
                rng = stream(710, i, beta)
                psi = 0.7 * res.psi_star.psi + 0.3 * random_pd_profile(rng, st.L)
                theta = sup_theta(st, x, psi, beta=beta)[0]
                assert _tilt_residual(st, x, theta, psi) > 1e-3
            if any(key[:2] == (i, dx) for key in lower):
                assert values[2] == pytest.approx(2.0 * values[1], rel=1e-12)
    assert (5, 0.4, 1) in lower
    assert all(i == 5 for i, _, _ in lower)


# ---------------------------------------------------------------------------
# L >= 2 oracles of the profile optimizer: gradient, invariances, envelope

# few derandomized examples: every one costs several rate_function calls
ORACLE_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True)
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


def _objective_pieces(st, x, beta, eps_of):
    """Arguments of rate_mod._profile_objective at x, with eps = eps_of(q0)."""
    id_l = np.eye(st.L) / st.L
    s_id = rate_mod._s_dagger(st, id_l, beta)
    eps = eps_of(rate_mod._trace_with(id_l, s_id, beta))
    th_hi = theta_cap(st, x + 1.0, 0.5 * (right_edge(st).r_inf + x), eps)
    return (st, beta, rate_mod._curve_base(st, x, beta), s_id, eps, th_hi)


def _relative_gradient_error(v, args):
    value, grad = rate_mod._profile_objective(v, *args)
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
    beta, ell = st.beta, st.L
    complex_params = not st.is_real
    # free: a random factor, with every eps at or below the constraint
    c = rng.standard_normal((ell, ell)) + (1j * rng.standard_normal((ell, ell))
                                           if complex_params else 0.0)
    free = _objective_pieces(st, x, beta, lambda q0: 1e-3 * q0)
    assert _relative_gradient_error(rate_mod._pack(c, complex_params), free) <= 1e-6
    # projected: of a few near-rank-one profiles the one of least
    # q = Tr[Psi' S(Psi')], with eps between q and q0 = q(Id/L), so the
    # projection blends it part of the way toward Id/L
    def q_of(psi):
        return rate_mod._trace_with(psi, rate_mod._s_dagger(st, psi, beta), beta)

    near_rank_one = []
    for _ in range(20):
        u = rng.standard_normal(ell) + (1j * rng.standard_normal(ell) if complex_params else 0.0)
        g = np.outer(u, u.conj()) / np.vdot(u, u).real + 0.05 * np.eye(ell)
        near_rank_one.append(g / np.trace(g).real)
    psi = min(near_rank_one, key=q_of)
    q, q0 = q_of(psi), q_of(np.eye(ell) / ell)
    assert q < q0
    args = _objective_pieces(st, x, beta, lambda _: 0.5 * (q + q0))
    assert rate_mod._feasible(st, psi, args[4], beta, args[3])[2] > 0.0
    w, u = np.linalg.eigh(psi)
    c = u * np.sqrt(w)
    assert _relative_gradient_error(rate_mod._pack(c, complex_params), args) <= 1e-6


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
    psi, beta = res.psi_star.psi, st.beta
    df = (f_value(st, res.theta_star, x + h, psi, beta=beta)
          - f_value(st, res.theta_star, x - h, psi, beta=beta)) / (2.0 * h)
    assert di == pytest.approx(df, rel=1e-6)


# ---------------------------------------------------------------------------
# rate curve

def test_rate_curve_goe_monotone(sc):
    values = [r.value for r in rate_curve(sc, [2.2, 2.5, 3.0])]
    assert values == sorted(values)
    assert values[0] > 0.0


def test_rate_curve_continuous_at_edge(sc):
    res = rate_curve(sc, [2.0 + 1e-3])[0]
    assert abs(res.value) <= 1e-2


def test_rate_curve_warm_start_and_duplicates(pair):
    edge = right_edge(pair).r_inf
    curve = rate_curve(pair, [edge + 0.5, edge + 1.0, edge + 1.0, edge + 1.5])
    values = [r.value for r in curve]
    assert values[0] < values[1] < values[3]
    assert abs(values[1] - values[2]) <= 1e-6
