"""Self-consistency tests for the oracle module.

These freeze the expected values used throughout the suite. They were computed
and cross-checked (closed form vs quadrature vs independent integration route)
before the library existed, so a regression here means the oracles themselves
were touched.
"""

import numpy as np
import pytest

import oracles as o

FROZEN_GOE_RATE = {
    2.2: 0.0605150720600273,
    2.5: 0.2443528194400547,
    3.0: 0.7146273330056354,
    4.0: 2.1471437182129383,
}


def test_semicircle_stieltjes_frozen_points():
    assert o.semicircle_m(2j) == pytest.approx(0.41421356237309515j, abs=1e-14)
    assert o.semicircle_m(3.0).real == pytest.approx(-0.3819660112501051, abs=1e-14)
    assert o.semicircle_m(3.0).imag == 0.0
    assert o.semicircle_m(2.5).real == pytest.approx(-0.5, abs=1e-14)
    # Herglotz branch on both half-axes
    assert o.semicircle_m(-3.0 + 0.05j).imag > 0
    assert o.semicircle_m(3.0 + 0.05j).imag > 0


def test_semicircle_density_and_potential():
    assert o.semicircle_density(0.0) == pytest.approx(1.0 / np.pi, abs=1e-15)
    assert o.semicircle_density(2.5) == 0.0
    assert o.semicircle_log_potential(2.0) == pytest.approx(0.5, abs=1e-14)
    assert o.semicircle_log_potential(3.0) == pytest.approx(1.0353726669943646, abs=1e-13)
    # asymptotics: U(x) - ln x -> 0
    assert abs(o.semicircle_log_potential(1e3) - np.log(1e3)) < 1e-5


def test_potential_derivative_is_minus_m():
    h = 1e-6
    for x in (2.3, 3.0, 5.0):
        num = (o.semicircle_log_potential(x + h) - o.semicircle_log_potential(x - h)) / (2 * h)
        assert num == pytest.approx(-o.semicircle_m(x).real, abs=1e-8)


def test_goe_rate_quadrature_matches_closed_form():
    for x, val in FROZEN_GOE_RATE.items():
        assert o.goe_rate(x) == pytest.approx(val, abs=1e-12)
        assert o.goe_rate_closed(x) == pytest.approx(val, abs=1e-12)


def test_goe_rate_equals_sup_of_f():
    # the rate at x is sup_theta of J - theta^2, attained at theta*(x)
    for x in (2.5, 3.0, 4.0):
        ts = o.goe_theta_star(x)
        assert o.goe_f(x, ts) == pytest.approx(o.goe_rate(x), abs=1e-12)
        grid = np.linspace(1e-3, 3.0 * ts, 3000)
        assert max(o.goe_f(x, t) for t in grid) <= o.goe_rate(x) + 1e-9
    assert o.goe_theta_star(2.5) == pytest.approx(1.0, abs=1e-14)


def test_goe_j_branch_continuity():
    x = 3.0
    th = -o.semicircle_m(x).real / 2.0
    assert o.goe_j(x, th - 1e-12) == pytest.approx(o.goe_j(x, th + 1e-12), abs=1e-9)


def test_goe_f_vanishes_below_theta_x():
    # the below-crossover plateau, here by direct cancellation in closed form
    for x in (2.5, 3.0):
        th_x = -o.semicircle_m(x).real / 2.0
        for frac in (0.1, 0.5, 0.9):
            assert abs(o.goe_f(x, frac * th_x)) < 1e-12


def test_bbp_frozen():
    assert o.bbp_z(0.6) == pytest.approx(2.0333333333333333, abs=1e-15)
    assert o.bbp_z(0.75) == pytest.approx(13.0 / 6.0, abs=1e-15)
    assert o.bbp_z(1.0) == pytest.approx(2.5, abs=1e-15)
    assert o.bbp_z(2.0) == pytest.approx(4.25, abs=1e-15)
    assert o.bbp_z(5.0) == pytest.approx(10.1, abs=1e-15)
    assert o.bbp_z(0.4) == 2.0


def test_dirac_measures():
    assert o.atoms_m(2.0, [0.0]) == pytest.approx(-0.5, abs=1e-15)
    assert o.atoms_log_potential(np.e, [0.0]) == pytest.approx(1.0, abs=1e-15)
    # branch-2 J for the point mass at 0, x=1, theta=1, from the hand formula
    assert 1.0 - 0.5 * (1.0 + np.log(2.0)) == pytest.approx(0.1534264097200273, abs=1e-15)


def test_scaled_semicircle():
    # k=2 with unit coefficients: variance 2, edge 2*sqrt(2)
    assert o.scaled_semicircle_m(3.0, 2.0).real == pytest.approx(-0.5, abs=1e-14)
    edge = 2.0 * np.sqrt(2.0)
    m_edge = o.scaled_semicircle_m(edge + 1e-12, 2.0).real
    assert m_edge == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-5)


def test_log_potential_from_m_route():
    u = o.log_potential_from_m(3.0, lambda s: o.semicircle_m(s).real, 0.0, 1.0)
    assert u == pytest.approx(o.semicircle_log_potential(3.0), abs=1e-9)


def test_wishart_l2_density_normalized():
    assert float(o.wishart_l2_density(0.5, 0.0, 100)) == pytest.approx(63.025357464391796, rel=1e-12)
    pe = np.linspace(0.0, 1.0, 51)
    ce = np.linspace(-0.5, 0.5, 51)
    probs = o.wishart_l2_bin_probs(100, pe, ce, rule=16)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert probs.max() == pytest.approx(0.02395095761421941, rel=1e-9)
    # marginal of psi_11 is Beta(N/2, N/2): symmetric around 1/2
    marg = probs.sum(axis=1)
    assert np.allclose(marg, marg[::-1], atol=1e-12)


def test_single_noise_density_reduces_to_semicircles():
    # commuting A_0 = diag(c), A = diag(g): the mixture of the semicircles of
    # centre c_l and radius 2 |g_l| (a negative g_l reflects its branch);
    # the grid misses the edges, where a root at d = +-2 to rounding would
    # put sqrt(rounding) into rho_sc
    x = np.linspace(-3.0, 3.0, 61) + 1e-3
    c, g = np.array([0.3, -1.0]), np.array([0.5, -1.2])
    want = np.mean([o.semicircle_density((x - cl) / gl) / abs(gl) for cl, gl in zip(c, g)], axis=0)
    got = o.single_noise_density(np.diag(c), np.diag(g), x)
    assert np.max(np.abs(got - want)) <= 1e-12
