"""MDE solver, support edges, real-axis transforms and density extraction.

Expected values come from tests/oracles.py (closed forms and independent
quadrature), frozen before this module existed.
"""

import bisect
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy.optimize import brentq

import oracles as o
from kronldp import mde
from kronldp.model import apply_S, make_structure, s_big, stream
from test_rate import CONTINUATION_SETTINGS, single_noise_structure

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def sc():
    """Single GOE block: limiting law is the standard semicircle."""
    return make_structure(np.zeros((1, 1)), [np.ones((1, 1))])


@pytest.fixture(scope="module")
def sc2():
    """Two independent GOE blocks: semicircle with variance 2, edge 2*sqrt(2)."""
    return make_structure(np.zeros((1, 1)), [np.ones((1, 1)), np.ones((1, 1))])


@pytest.fixture(scope="module")
def atoms():
    return make_structure(np.diag([3.0, 1.0]), [])


@pytest.fixture(scope="module")
def coupled3():
    """L=3 structure with no closed form; exercises generic code paths."""
    rng = stream(97)
    mats = []
    for _ in range(2):
        g = rng.standard_normal((3, 3))
        g = (g + g.T) / 2.0
        mats.append(g / np.linalg.norm(g, 2))
    a0 = np.diag([0.6, 0.0, -0.4])
    return make_structure(a0, mats)


@pytest.fixture(scope="module")
def herm2():
    h = np.array([[0.0, 1j], [-1j, 0.0]])
    return make_structure(np.eye(2) * 0.2, [h, np.eye(2)], beta=2)


# ---------------------------------------------------------------------------
# solver

def test_semicircle_solver_accuracy(sc):
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 5.0))
        sol = mde.solve_mde(sc, z, tol=1e-13)
        assert abs(sol.m[0, 0] - o.semicircle_m(z)) < 1e-10
    # cold starts inside the bulk, close to the axis
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), 10.0 ** rng.uniform(-3, 0))
        sol = mde.solve_mde(sc, z, tol=1e-13)
        assert abs(sol.m[0, 0] - o.semicircle_m(z)) < 1e-10


def test_solver_contract_examples(sc):
    assert mde.solve_mde(sc, 2j).m[0, 0] == pytest.approx(1j * (SQRT2 - 1), abs=1e-12)
    k0 = make_structure(np.array([[1.0]]), [])
    assert mde.solve_mde(k0, 1j).m[0, 0] == pytest.approx((1 + 1j) / 2, abs=1e-12)
    dec = make_structure(np.zeros((2, 2)), [np.diag([1.0, 0.0])])
    got = np.diag(mde.solve_mde(dec, 2j).m)
    assert got[0] == pytest.approx(o.semicircle_m(2j), abs=1e-12)
    assert got[1] == pytest.approx(0.5j, abs=1e-12)


def test_residual_and_tolerance(coupled3):
    sol = mde.solve_mde(coupled3, 0.3 + 0.7j, tol=1e-12)
    assert sol.residual <= 1e-12
    eye = np.eye(3)
    from kronldp.model import apply_S

    defect = eye + ((0.3 + 0.7j) * eye - coupled3.a0 + apply_S(coupled3, sol.m)) @ sol.m
    assert np.linalg.norm(defect, 2) == pytest.approx(sol.residual, rel=1e-6)


def test_conjugate_symmetry(coupled3):
    z = 0.7 + 0.3j
    up = mde.solve_mde(coupled3, z)
    down = mde.solve_mde(coupled3, np.conj(z))
    assert np.max(np.abs(down.m - up.m.conj())) < 1e-12


def test_imaginary_part_psd(coupled3):
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(1e-4, 2.0))
        sol = mde.solve_mde(coupled3, z)
        im = (sol.m - sol.m.conj().T) / 2j
        assert np.linalg.eigvalsh(im).min() > -1e-10


def test_normalization_at_large_offset(sc, coupled3):
    for st in (sc, coupled3):
        z = 1e6j
        sol = mde.solve_mde(st, z)
        dev = np.linalg.norm(z * sol.m + np.eye(st.L), 2)
        assert dev <= 1e-4 * np.linalg.norm(st.a0, 2) + 1e-6


def test_real_z_inside_support_fails(sc):
    with pytest.raises(mde.ConvergenceError):
        mde.solve_mde(sc, 0.0)


@pytest.mark.parametrize("case", ["real", "upper", "axis", "real-or-complex-start"])
def test_solve_batch_branch_rule(sc, herm2, case):
    # one branch rule for every z. Above the axis m^2 + z m + 1 = 0 has one
    # root with Im m > 0 and one with Im m < 0; Newton started next to the
    # second lands on it, which must be turned down in favour of the
    # Herglotz root. At real x = 3 right of the edge it has the negative
    # roots -0.382 (physical, feedback radius m^2 < 1) and -2.618; Newton
    # from -5 lands on the second, which must be turned down, from a real
    # start (the memo's real M) and from a complex one (M(x + i0)) alike.
    # Right of the support a real start and a complex start reach the same
    # M: in real arithmetic at beta = 1, in complex with a complex structure
    from test_rate import random_structure

    if case == "upper":
        z = 1.0 + 0.1j
        physical = o.semicircle_m(z)
        other = -z - physical
        assert physical.imag > 0 > other.imag
        m, ok = mde._solve_batch(sc, np.array([z, z]),
                                 np.array([[[other + 0.01]], [[physical + 0.01]]]), 1e-12)
        assert ok.tolist() == [False, True]
        sol = mde.solve_mde(sc, z, m0=np.array([[other + 0.01]]))
        assert sol.m[0, 0] == pytest.approx(physical, abs=1e-12)
        sol = mde.solve_mde(sc, np.conj(z), m0=np.array([[np.conj(other) + 0.01]]))
        assert sol.m[0, 0] == pytest.approx(np.conj(physical), abs=1e-12)
    elif case == "real-or-complex-start":
        for st in (sc, herm2, random_structure(stream(502), 3)):
            x = mde.right_edge(st).r_inf + np.array([1e-3, 0.1, 1.0])
            m0 = -np.linalg.inv(x[:, None, None] * np.eye(st.L) - st.a0).real
            m_real, ok_real = mde._solve_batch(st, x, m0, 1e-12)
            m_cplx, ok_cplx = mde._solve_batch(st, x, m0.astype(complex), 1e-12)
            assert ok_real.all() and ok_cplx.all()
            assert m_real.dtype == (float if st.beta == 1 else complex)
            assert np.max(np.abs(m_real - m_cplx)) <= 1e-14
    else:
        physical = (np.sqrt(5.0) - 3.0) / 2.0
        m0 = np.array([[[-5.0]], [[-0.4]]], dtype=float if case == "real" else complex)
        m, ok = mde._solve_batch(sc, np.array([3.0, 3.0]), m0, 1e-12)
        assert m.dtype == m0.dtype
        assert ok.tolist() == [False, True]
        assert m[0, 0, 0] == pytest.approx(-3.0 - physical, abs=1e-14)
        assert m[1, 0, 0] == pytest.approx(physical, abs=1e-14)
        sol = mde.solve_mde(sc, 3.0, m0=-5.0 * np.eye(1))
        assert sol.m[0, 0] == pytest.approx(physical, abs=1e-14)


def test_solve_mde_next_to_a_narrow_spike():
    # density ~ 78 and |M| ~ 1e3 at x: the eta continuation reaches x + 1e-6 i
    # only with each rung started from the polynomial through the rungs above
    # (from the rung above alone, Newton stalls at eta = 1.9e-4), and only at a
    # tol above the defect's rounding floor there (2e-12 to 4e-12)
    from test_rate import random_structure

    st = random_structure(stream(727), 4)
    sol = mde.solve_mde(st, 0.17764503222688965 + 1e-6j, tol=1e-10)
    assert sol.residual <= 1e-10
    assert np.linalg.eigvalsh((sol.m - sol.m.conj().T) / 2j).min() >= 0.0
    assert np.trace(sol.m).imag / (np.pi * st.L) == pytest.approx(78.15, abs=5e-3)


def test_solve_mde_names_the_residual_it_reached():
    # at the default tol=1e-12 the last solve of the continuation stalls at
    # the defect's rounding floor (cond(M) ~ 3.7e4 here) with M on the
    # Herglotz branch: the error names the residual, the tol and cond(M)
    from test_rate import random_structure

    st = random_structure(stream(727), 4)
    with pytest.raises(mde.ConvergenceError,
                       match=r"Newton stopped on the branch at residual \S+ > tol=1e-12, with cond\(M\) = "
                             r"3\.7e\+04: .* a larger tol converges"):
        mde.solve_mde(st, 0.17764503222688965 + 1e-6j)


def test_newton_polish_isolates_a_singular_system():
    # A_0 = 0, A = [Id, Id] at x = 3: every diagonal M with entries in
    # {-1, -1/2} solves -M^{-1} = 3 + 2M exactly (M(3) = -Id/2), and at
    # diag(-1, -1/2) the Jacobian D -> (3 + 2M) D + 2 D M kills E_12, so its
    # system is singular. That point fails only itself: each one is accepted
    # with M unchanged, alone and in the stack
    st = make_structure(np.zeros((2, 2)), [np.eye(2), np.eye(2)])
    stack = np.array([-np.eye(2), np.diag([-1.0, -0.5]), -0.5 * np.eye(2)])
    m, ok = mde._newton_polish(st, np.full(3, 3.0), stack.copy(), 1e-12)
    assert ok.all() and np.array_equal(m, stack)
    for start in stack:
        m, ok = mde._newton_polish(st, np.array([3.0]), start[None].copy(), 1e-12)
        assert ok[0] and np.array_equal(m[0], start)


def test_newton_refine_accepts_exactly_where_the_spectral_residual_is_within_tol(coupled3):
    # Newton's merit is ||D||_F of the defect D = Id + B M, but a point is
    # accepted exactly where ||D||_2 <= tol. ||D||_2 <= ||D||_F, so a tol
    # between the two tells the rules apart: per point at max_steps=0 on
    # random stacks, and after Newton from starts 1e-4 off the solution to a
    # tol at the rounding floor, where line searches stall
    rng = np.random.default_rng(5)
    z = rng.uniform(-2.0, 2.0, 60) + 1j * rng.uniform(0.05, 1.0, 60)

    def norms(m):
        d = np.eye(3) + mde._b_batch(coupled3, z, m) @ m
        return np.linalg.norm(d, 2, axis=(1, 2)), np.linalg.norm(d, axis=(1, 2))

    m = rng.standard_normal((60, 3, 3)) + 1j * rng.standard_normal((60, 3, 3))
    spec, frob = norms(m)
    tol = np.choose(np.arange(60) % 3, [0.5 * spec, np.sqrt(spec * frob), 2.0 * frob])
    _, ok = mde._newton_polish(coupled3, z, m.copy(), tol, max_steps=0)
    assert np.array_equal(ok, spec <= tol)
    assert np.count_nonzero((spec <= tol) & (tol < frob)) == 20

    sol = np.array([mde.solve_mde(coupled3, zi).m for zi in z])
    start = sol + 1e-4 * (rng.standard_normal(sol.shape) + 1j * rng.standard_normal(sol.shape))
    m, ok = mde._newton_polish(coupled3, z, start, 1.5e-16)
    spec, frob = norms(m)
    assert np.array_equal(ok, spec <= 1.5e-16)
    assert np.any((spec <= 1.5e-16) & (1.5e-16 < frob)) and not ok.all()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lagrange_reproduces_a_polynomial_through_its_nodes(k):
    # the stacked predictor through k nodes is exact on the polynomials of
    # degree k - 1 (matrix coefficients, complex), to rounding: with nodes
    # per point, grid indices around each new index (a refinement level's
    # form), and with nodes shared by the stack, the eta of the last rungs
    # at the next rung (the rung loop's form)
    rng = np.random.default_rng(k)
    coef = rng.standard_normal((k, 9, 3, 3)) + 1j * rng.standard_normal((k, 9, 3, 3))

    def poly(t):
        return sum(c * np.reshape(t, (-1, 1, 1)) ** j for j, c in enumerate(coef))

    new = rng.integers(0, 200, 9)
    nodes = np.clip(new - k // 2, 0, 200 - k) + np.arange(k)[:, None]
    nodes[nodes >= new] += 1  # k grid indices next to each new one, not it
    got = mde._lagrange(nodes, [poly(t) for t in nodes], new)
    assert np.max(np.abs(got - poly(new))) <= 1e-14 * np.max(np.abs(poly(new)))

    etas = list(mde._ENTRY_RUNGS[:k])
    got = mde._lagrange(etas, [poly(e) for e in etas], mde._ENTRY_RUNGS[k])
    assert np.max(np.abs(got - poly(mde._ENTRY_RUNGS[k]))) <= 1e-14 * np.max(np.abs(coef))
    if k == 1:  # one node is its M, none no start
        assert np.array_equal(got, poly(etas[0]))
        assert mde._lagrange([], [], 0.5) is None


def test_bad_tol_rejected(sc):
    with pytest.raises(ValueError):
        mde.solve_mde(sc, 1j, tol=0.0)


# ---------------------------------------------------------------------------
# edges

def test_edge_semicircle(sc):
    info = mde.right_edge(sc)
    assert info.r_inf == pytest.approx(2.0, abs=1e-10)
    assert info.fold_residual <= 1e-10 and info.fold_steps > 0
    # -m(2) = 1 for the semicircle: the fold's M(r_inf), exact to rounding
    assert info.m_at_edge == pytest.approx(1.0, abs=1e-10)


def test_edge_two_blocks(sc2):
    assert mde.right_edge(sc2).r_inf == pytest.approx(2.0 * SQRT2, abs=1e-10)


def test_edge_atoms_exact(atoms):
    info = mde.right_edge(atoms)
    assert info.r_inf == 3.0
    assert np.isinf(info.m_at_edge)
    assert info.fold_residual == 0.0 and info.fold_steps == 0


def test_left_edge_is_mirror(sc):
    assert mde.left_edge(sc) == pytest.approx(-2.0, abs=1e-10)


def test_edge_shifted_structure():
    st = make_structure(np.array([[1.5]]), [np.ones((1, 1))])
    assert mde.right_edge(st).r_inf == pytest.approx(3.5, abs=1e-10)


def test_edge_two_bands():
    # semicircles of radius 2 at 0 and radius 1 at 10: only the right band counts
    st = make_structure(np.diag([0.0, 10.0]), [np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])
    assert mde.right_edge(st).r_inf == pytest.approx(11.0, abs=1e-10)
    assert mde.left_edge(st) == pytest.approx(-2.0, abs=1e-10)


@pytest.mark.parametrize("shift", [2.48, 4.0])
@pytest.mark.parametrize("ell", [1, 2])
def test_edge_of_a_narrow_band(shift, ell):
    # a semicircle of radius 2e-4 at shift, alone (L = 1) or next to a GOE
    # block (L = 2): the fold walk stops within 2e-2 of the noise radius of
    # the edge, not 2e-2 |x|, and the extended Newton's step test scales
    # with |M| ~ 1e4, so the edge is exact. The rate at r_inf + 1e-4 is the
    # closed form to 1e-11 relative: measured 4.4e-12 at most, the rounding
    # of x - Tr[H Psi] ~ 3e-4 at |x| ~ 4
    from kronldp.rate import rate_function

    sigma = 1e-4
    st = (make_structure(np.array([[shift]]), [np.array([[sigma]])]) if ell == 1 else
          make_structure(np.diag([0.0, shift]), [np.diag([1.0, 0.0]), np.diag([0.0, sigma])]))
    r_inf = mde.right_edge(st).r_inf
    assert r_inf == pytest.approx(shift + 2.0 * sigma, rel=1e-15)
    x = r_inf + 1e-4
    want = min([o.goe_rate_closed((x - shift) / sigma)] + [o.goe_rate_closed(x)] * (ell - 1))
    assert rate_function(st, x).value == pytest.approx(want, rel=1e-11)


def _near_equal_edges(k, gap):
    """A_0 = diag(0, 1) with noise widths g_1 = 1, g_2 = (1 + gap)/2 on one
    matrix (k = 1) or split over two (k = 2): edges 2 and 2 + gap."""
    g = (1.0 + gap) / 2.0
    a = ([np.diag([1.0, g])] if k == 1
         else [np.diag([0.6, 0.8 * g]), np.diag([0.8, 0.6 * g])])
    return make_structure(np.diag([0.0, 1.0]), a), max(2.0, 2.0 + gap)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("gap", [0.02, 0.01, 5e-3, 1e-3, 1e-4, 1e-6, 1e-9, -2e-3, -5e-3])
def test_edge_next_to_a_second_edge(k, gap):
    # r_inf = max_l (c_l + 2 g_l); near the other edge the Jacobian's smallest
    # eigenvalue can be the E_12 cross mode, orthogonal to dM/dz, so the walk
    # goes on until the fold's own mode stands apart
    st, want = _near_equal_edges(k, gap)
    assert mde.right_edge(st).r_inf == pytest.approx(want, abs=1e-12)


def test_edge_next_to_a_second_edge_of_another_noise():
    # edges 2 sqrt(1.09) = 2.088 and 1 + 2 sqrt(0.29) = 2.077
    st = make_structure(np.diag([0.0, 1.0]), [np.diag([1.0, 0.5]), np.diag([0.3, -0.2])])
    assert mde.right_edge(st).r_inf == pytest.approx(2.0 * np.sqrt(1.09), abs=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_coincident_edges_of_different_widths_raise(k):
    # two square-root edges at 2 with widths 1 and 1/2: no simple fold, and no atom
    st, _ = _near_equal_edges(k, 0.0)
    with pytest.raises(mde.ConvergenceError, match="do not separate") as err:
        mde.right_edge(st)
    assert "atom" not in str(err.value)


@pytest.mark.parametrize("a1, beta", [([[0.0, 1.0], [1.0, 0.0]], 1),
                                      ([[0.0, 1.0], [1.0, 0.0]], 2),
                                      (np.eye(2), 1)])
def test_edge_degenerate_kernel(a1, beta):
    # M = m_sc Id, and at the edge the stability operator kills Id and A_1
    # (for A_1 = Id: every D), so the extended Newton system is singular at
    # the solution; the kernel vector, taken along dM/dz inside the multiple
    # eigenspace, still sees all of M's error, so M(r_inf) is exact to rounding
    st = make_structure(np.zeros((2, 2)), [a1], beta=beta)
    info = mde.right_edge(st)
    assert info.r_inf == pytest.approx(2.0, abs=1e-10)
    assert info.m_at_edge == pytest.approx(1.0, abs=1e-12)
    assert info.fold_steps <= 12


def test_edge_atom_on_the_edge_raises():
    # mu = semicircle/2 + delta_5/2: r_inf = 5 is an atom, where M diverges
    # instead of folding; no edge is better than a wrong one
    st = make_structure(np.diag([0.0, 5.0]), [np.diag([1.0, 0.0])])
    with pytest.raises(mde.ConvergenceError, match="atom"):
        mde.right_edge(st)


def test_atom_on_the_left_edge_spares_the_right_edge():
    # mu = delta_-5/2 + semicircle/2: r_inf = 2 is an ordinary square-root
    # fold, so everything measured from it works; only left_edge raises
    st = make_structure(np.diag([-5.0, 0.0]), [np.diag([0.0, 1.0])])
    info = mde.right_edge(st)
    assert info.r_inf == pytest.approx(2.0, abs=1e-10)
    assert info.m_at_edge == pytest.approx(0.5 * (1.0 / 7.0 + 1.0), abs=1e-10)
    # -m(x) = (1/(x+5) + m_sc(x)) / 2 at x = 2.5, where -m_sc(2.5) = 1/2
    q = 0.5 * (1.0 / 7.5 + 0.5)
    assert mde.inverse_neg_stieltjes(st, q) == pytest.approx(2.5, abs=1e-10)
    with pytest.raises(mde.ConvergenceError, match="left edge may carry an atom"):
        mde.left_edge(st)


def test_failed_left_fold_is_kept(monkeypatch):
    # the atom on the left edge is found once: later calls re-raise the
    # failure instead of walking the mirrored fold again
    folds, fold = [], mde._fold

    def recorded(structure, side=1):
        folds.append(side)
        return fold(structure, side)

    monkeypatch.setattr(mde, "_fold", recorded)
    monkeypatch.setattr(mde, "_CACHES", {})
    st = make_structure(np.diag([-5.0, 0.0]), [np.diag([0.0, 1.0])])
    mde.right_edge(st)
    raised = []
    for _ in range(3):
        with pytest.raises(mde.ConvergenceError, match="left edge may carry an atom") as info:
            mde.left_edge(st)
        raised.append(type(info.value))
    assert folds == [1, -1]
    assert raised == [mde.ConvergenceError] * 3


def _gapped():
    """Semicircles at 0 and at 10: r_inf = 12, and x = 5 lies in the gap."""
    return make_structure(np.diag([0.0, 10.0]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


@pytest.mark.parametrize("which, x", [("goe", 1.9), ("goe", 0.0), ("gapped", 5.0)])
def test_m_matrix_left_of_the_edge_raises_before_any_solve(sc, which, x, monkeypatch):
    st = sc if which == "goe" else _gapped()
    cache = mde._cache_for(st)
    calls = []

    stacked = mde._solve_batch

    def recorded(structure, z, *args):
        calls.extend(z.tolist())
        return stacked(structure, z, *args)

    monkeypatch.setattr(mde, "_solve_batch", recorded)
    with pytest.raises(mde.DomainError, match=f"x={x}.*{cache.r_inf}"):
        cache.m_matrix(x)
    assert calls == []


def test_m_matrix_at_the_edge_is_the_fold_solution(sc, atoms):
    cache = mde._cache_for(sc)
    got = cache.m_matrix(cache.r_inf)
    assert got is cache.m_edge
    assert got[0, 0] == pytest.approx(-1.0, abs=1e-14)
    # with atoms only M diverges at the edge
    with pytest.raises(mde.DomainError):
        mde._cache_for(atoms).m_matrix(mde.right_edge(atoms).r_inf)


@pytest.mark.parametrize("call", ["rate", "outlier", "tilt"])
def test_right_side_work_runs_no_left_fold(sc, call, monkeypatch):
    # a cold cache solves the right fold only; the left edge is solved on
    # first use, once
    from kronldp.outlier import largest_outlier, tilt_for_target
    from kronldp.rate import rate_function

    folds, fold = [], mde._fold

    def recorded(structure, side=1):
        folds.append(side)
        return fold(structure, side)

    monkeypatch.setattr(mde, "_fold", recorded)
    monkeypatch.setattr(mde, "_CACHES", {})
    {"rate": lambda: rate_function(sc, 2.5),
     "outlier": lambda: largest_outlier(sc, 1.0, np.ones((1, 1))),
     "tilt": lambda: tilt_for_target(sc, 2.5, np.ones((1, 1)))}[call]()
    assert folds == [1]
    assert mde.left_edge(sc) == mde.left_edge(sc) == pytest.approx(-2.0, abs=1e-10)
    assert folds == [1, -1]


def test_edge_random_structures_square_root_law():
    # no closed form: just inside a square-root edge r the density is
    # c sqrt(r - x), so a 4x longer distance doubles it; just outside, the
    # real-axis solve succeeds. An edge off by more than ~1e-10 breaks one.
    from test_rate import random_structure

    def rho(st, x, eta=1e-13):
        m, e = None, 0.1
        while e > eta:
            m = mde.solve_mde(st, complex(x, e), tol=1e-13, m0=m).m
            e *= 0.2
        m = mde.solve_mde(st, complex(x, eta), tol=1e-13, m0=m).m
        return np.trace(m).imag / (st.L * np.pi)

    for i in range(4):
        st = random_structure(stream(700 + i), [1, 2, 3, 3][i])
        r = mde.right_edge(st).r_inf
        assert rho(st, r - 4e-8) / rho(st, r - 1e-8) == pytest.approx(2.0, abs=1e-3)
        assert np.linalg.eigvalsh(mde.solve_mde(st, r + 1e-9).m).max() < 0


# ---------------------------------------------------------------------------
# real-axis transforms

def test_stieltjes_real_examples(sc):
    m, mat = mde.stieltjes_real(sc, 3.0)
    assert m == pytest.approx((-3.0 + np.sqrt(5.0)) / 2.0, abs=1e-10)
    assert mat.shape == (1, 1)
    pm = make_structure(np.zeros((1, 1)), [])
    assert mde.stieltjes_real(pm, 2.0)[0] == pytest.approx(-0.5, abs=1e-14)


def test_stieltjes_real_asymptotics(coupled3):
    r = mde.right_edge(coupled3).r_inf
    x = 10.0 * (r + 1.0)
    m, _ = mde.stieltjes_real(coupled3, x)
    mu1 = np.trace(coupled3.a0) / 3.0
    assert abs(m + 1.0 / x) <= (abs(mu1) + 2.0) / x ** 2


def test_stieltjes_real_guard(sc):
    with pytest.raises(mde.DomainError):
        mde.stieltjes_real(sc, mde.right_edge(sc).r_inf + 1e-9)


def test_stieltjes_real_negative_definite_monotone(coupled3):
    r = mde.right_edge(coupled3).r_inf
    vals = []
    for x in np.linspace(r + 0.05, r + 3.0, 12):
        m, mat = mde.stieltjes_real(coupled3, x)
        assert np.linalg.eigvalsh(mat).max() < 0
        vals.append(m)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 0 for v in vals)


@pytest.mark.parametrize("beta", [1, 2])
def test_real_m_matches_semicircle(beta, monkeypatch):
    monkeypatch.setattr(mde, "_CACHES", {})
    st = make_structure(np.zeros((1, 1)), [np.ones((1, 1))], beta=beta)
    cache = mde._cache_for(st)
    for gap in np.geomspace(1e-6, 30.0, 40):
        assert cache.m_scalar(2.0 + gap) == pytest.approx(
            o.semicircle_m(2.0 + gap).real, abs=1e-12)
    m, _ = mde.stieltjes_real(st, 2.0 + 2e-8)
    assert abs(m - o.semicircle_m(2.0 + 2e-8).real) <= 1e-12


@pytest.mark.parametrize("beta", [1, 2])
def test_real_m_next_to_the_edge(beta, monkeypatch):
    # GOE/GUE m(2 + d) against the semicircle, cold cache: every point starts
    # from the far-field guess (no memoized solution is near enough). The
    # oracle takes sqrt((z - 2)(z + 2)), exact to the last bit here against
    # 40-digit mpmath. The errors measured here are 3.9e-12, 4.1e-13 and
    # 2.6e-14; the bounds were set from 3.9e-12, 5.3e-13 and 3.7e-14 (the
    # oracle's old sqrt(z^2 - 4) cancelled), rounded up by about a third
    monkeypatch.setattr(mde, "_CACHES", {})
    cache = mde._cache_for(make_structure(np.zeros((1, 1)), [np.ones((1, 1))], beta=beta))
    for d, bound in ((1e-10, 5e-12), (1e-8, 7e-13), (1e-6, 5e-14)):
        assert abs(cache.m_scalar(2.0 + d) - o.semicircle_m(2.0 + d).real) <= bound


def _rotated_direct_sum(rng, ell, beta=1):
    """A direct sum of ell scaled, shifted GOE blocks with every matrix
    conjugated by one random orthogonal Q, drawn as the benchmark draws it."""
    shifts, scales = rng.uniform(-0.3, 0.3, ell), rng.uniform(0.75, 1.25, ell)
    q, _ = np.linalg.qr(rng.standard_normal((ell, ell)))
    mats = [g * np.outer(q[:, j], q[:, j]) for j, g in enumerate(scales)]
    return make_structure(q @ np.diag(shifts) @ q.T, mats, beta=beta)


def _bench_structures():
    h = np.array([[0.0, 1j], [-1j, 0.0]])
    out = {
        "goe": make_structure(np.zeros((1, 1)), [np.ones((1, 1))]),
        "herm": make_structure(np.zeros((2, 2)), [h / SQRT2, np.eye(2) / SQRT2], beta=2),
        "dsum": make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
    }
    for ell in (1, 2, 3):
        out[f"sum-L{ell}"] = _rotated_direct_sum(stream(0, 0, ell), ell)
    out["sum-L2-beta2"] = _rotated_direct_sum(stream(0, 0, 2), 2, beta=2)
    return out


BENCH_STRUCTURES = _bench_structures()
PINNED = ["goe", "herm", "dsum", "sum-L3", "sum-L2"]  # the density tests' structures


def test_cold_build_needs_no_continuation(sc, monkeypatch):
    # both fold walks start Newton from the far-field guess: a cold build
    # makes no solve off the real axis (every solve, a rung of the
    # continuation too, goes through _newton_polish)
    from test_rate import random_structure

    dsum = make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    newton = mde._newton_polish
    at = []

    def recorded(structure, z, *args):
        at.extend(z[z.imag > 0].tolist())
        return newton(structure, z, *args)

    monkeypatch.setattr(mde, "_newton_polish", recorded)
    for st in (sc, dsum, random_structure(stream(502), 3)):
        monkeypatch.setattr(mde, "_CACHES", {})
        mde.left_edge(st)
        assert at == []


def test_real_axis_work_needs_no_continuation(sc, monkeypatch):
    # from a cold cache, every real-axis solve starts Newton from a fold walk
    # solution or from the far-field guess -(x - A_0)^{-1}, next to the edge
    # too (the outlier's first point is r_inf + 1e-9 (1 + |r_inf|)): none
    # needs the eta continuation above the axis
    from kronldp.outlier import largest_outlier, tilt_for_target
    from kronldp.rate import rate_function
    from test_rate import random_structure

    dsum = make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    newton = mde._newton_polish
    at = []

    def recorded(structure, z, *args):
        at.extend(z[z.imag > 0].tolist())
        return newton(structure, z, *args)

    monkeypatch.setattr(mde, "_newton_polish", recorded)
    for st in (sc, dsum, random_structure(stream(502), 3)):
        monkeypatch.setattr(mde, "_CACHES", {})
        r, psi = mde.right_edge(st).r_inf, np.eye(st.L) / st.L
        largest_outlier(st, 1.0, psi)
        tilt_for_target(st, r + 0.5, psi)
        rate_function(st, r + 0.25)
        assert at == []


def test_inverse_examples(sc):
    q = (3.0 - np.sqrt(5.0)) / 2.0
    assert mde.inverse_neg_stieltjes(sc, q) == pytest.approx(3.0, abs=1e-8)
    pm = make_structure(np.zeros((1, 1)), [])
    assert mde.inverse_neg_stieltjes(pm, 0.5) == pytest.approx(2.0, abs=1e-10)


def test_inverse_round_trip(sc, coupled3):
    rng = np.random.default_rng(13)
    for st in (sc, coupled3):
        q_hi = mde.right_edge(st).m_at_edge
        for q in rng.uniform(0.02, 0.9 * min(q_hi, 1.0), 8):
            t = mde.inverse_neg_stieltjes(st, q)
            m, _ = mde.stieltjes_real(st, t)
            assert -m == pytest.approx(q, abs=1e-10)


def test_inverse_next_to_the_edge(sc):
    # t - r_inf = (1 - q)^2 / q ~ 2.5e-7: the bracket solve on the exact m
    # resolves the square-root edge in s = sqrt(t - r_inf)
    q = 0.9995
    assert mde.inverse_neg_stieltjes(sc, q) == pytest.approx(q + 1.0 / q, abs=1e-12)


def test_inverse_a_hair_from_the_edge(sc):
    # t - r_inf ~ 1e-12 to 1e-14: the bracket solve is exact on its own,
    # with no correction steps that could land inside the support
    for q in (1.0 - 1e-6, 1.0 - 1e-7):
        assert mde.inverse_neg_stieltjes(sc, q) == pytest.approx(q + 1.0 / q, abs=1e-12)
    # two semicircles, the second shifted by 0.3: -m(t) = (G(t) + G(t - 0.3)) / 2,
    # G(2 + e) = (2 + e - sqrt(e (4 + e))) / 2, solved in s = sqrt(t - 2.3)
    dsum = make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

    def g(e):
        return (2.0 + e - np.sqrt(e * (4.0 + e))) / 2.0

    for f in (1e-6, 1e-7):
        q = mde.right_edge(dsum).m_at_edge * (1.0 - f)
        s = brentq(lambda s: 0.5 * (g(0.3 + s * s) + g(s * s)) - q, 0.0, 1.0, xtol=1e-300)
        assert mde.inverse_neg_stieltjes(dsum, q) == pytest.approx(2.3 + s * s, abs=1e-12)


def test_inverse_out_of_range(sc):
    with pytest.raises(mde.NoInverseError):
        mde.inverse_neg_stieltjes(sc, 1.5)
    with pytest.raises(mde.NoInverseError):
        mde.inverse_neg_stieltjes(sc, -0.2)


def test_log_potential_semicircle(sc):
    assert mde.log_potential(sc, mde.right_edge(sc).r_inf) == pytest.approx(0.5, abs=1e-10)
    assert mde.log_potential(sc, 2.0) == pytest.approx(0.5, abs=1e-10)
    for x in (2.5, 3.0, 6.0):
        assert mde.log_potential(sc, x) == pytest.approx(
            o.semicircle_log_potential(x), abs=1e-9)


def test_log_potential_accepts_the_edge_to_rounding(sc2):
    # U(2 sigma) = 1/2 + ln sigma; the computed r_inf may round either side of
    # the closed-form edge, and an ulp below it is still the edge
    want = 0.5 + 0.5 * np.log(2.0)
    r = mde.right_edge(sc2).r_inf
    for x in (2.0 * SQRT2, np.nextafter(r, 0.0), np.nextafter(r, 3.0)):
        assert mde.log_potential(sc2, x) == pytest.approx(want, abs=1e-10)
    with pytest.raises(mde.DomainError):
        mde.log_potential(sc2, r - 1e-12)


def test_log_potential_point_mass():
    pm = make_structure(np.zeros((1, 1)), [])
    assert mde.log_potential(pm, np.e) == pytest.approx(1.0, abs=1e-14)


def test_log_potential_far_field(sc):
    assert abs(mde.log_potential(sc, 1e3) - np.log(1e3)) < 1e-5


def test_log_potential_atoms(atoms):
    want = 0.5 * (np.log(2.0) + np.log(4.0))
    assert mde.log_potential(atoms, 5.0) == pytest.approx(want, abs=1e-14)


def test_log_potential_inside_support_raises(sc):
    with pytest.raises(mde.DomainError):
        mde.log_potential(sc, 0.0)


def test_log_potential_derivative_is_minus_m(coupled3):
    r = mde.right_edge(coupled3).r_inf
    h = 1e-6
    for x in (r + 0.3, r + 1.0, r + 2.5):
        num = (mde.log_potential(coupled3, x + h)
               - mde.log_potential(coupled3, x - h)) / (2.0 * h)
        m, _ = mde.stieltjes_real(coupled3, x)
        assert num == pytest.approx(-m, abs=1e-7)


@pytest.mark.parametrize("beta", [1, 2])
def test_log_potential_matches_rotated_semicircles(beta):
    # a rotated direct sum of semicircles of centre a_j and radius 2 g_j:
    # U is the mean over blocks of ln g_j + U_sc((x - a_j) / g_j); A_j = g_j
    # q_j q_j^T gives g_j = Tr A_j and a_j = q_j^T A_0 q_j = Tr(A_0 A_j) / g_j
    for i in range(6):
        st = _rotated_direct_sum(stream(0, 0, 10 + i), 1 + i % 3, beta=beta)
        g = np.trace(st.a, axis1=1, axis2=2).real
        a = np.einsum("ab,jba->j", st.a0, st.a).real / g
        r = mde.right_edge(st).r_inf
        for gap in (0.0, 1e-10, 1e-6, 0.3, 3.0, 30.0):
            want = np.mean([np.log(gj) + o.semicircle_log_potential((r + gap - aj) / gj)
                            for aj, gj in zip(a, g)])
            assert abs(mde.log_potential(st, r + gap) - want) <= 1e-12


# ---------------------------------------------------------------------------
# density

def test_density_semicircle_values(sc):
    d = mde.density(sc, -2.5, 2.5, grid_size=251)
    i0 = np.argmin(np.abs(d.grid))
    assert d.density[i0] == pytest.approx(1.0 / np.pi, abs=1e-4)
    assert d.density[0] <= 1e-4 and d.density[-1] <= 1e-4
    assert np.all(d.density >= 0.0)
    assert abs(d.mass - 1.0) < d.tol_q
    assert d.eta_final > 0
    inside = np.abs(d.grid) <= 2.0 - 1e-6
    assert np.max(np.abs(d.density - o.semicircle_density(d.grid))[inside]) <= 1e-13


def test_density_gue_to_rounding():
    # every grid point at least 1e-6 inside the edge (<= 2.4e-16 measured)
    gue = make_structure(np.zeros((1, 1)), [np.ones((1, 1))], beta=2)
    d = mde.density(gue, -2.5, 2.5, grid_size=4001)
    inside = np.abs(d.grid) <= 2.0 - 1e-6
    assert d.fallback_points == 0
    assert np.max(np.abs(d.density - o.semicircle_density(d.grid))[inside]) <= 1e-13


def test_density_two_block_support(sc2):
    # 2.8 sits inside the variance-2 support (edge 2*sqrt(2) ~ 2.8284),
    # 2*sqrt(2)+0.1 outside
    inside = mde.density(sc2, 2.79, 2.81, grid_size=5)
    assert inside.density[2] > 0.01
    outside = mde.density(sc2, 2.0 * SQRT2 + 0.1, 2.0 * SQRT2 + 0.12, grid_size=3)
    assert np.all(outside.density < 1e-3)


def test_density_symmetric_when_centered():
    rng = stream(51)
    g = rng.standard_normal((2, 2))
    a1 = (g + g.T) / 2.0
    st = make_structure(np.zeros((2, 2)), [a1, np.eye(2) * 0.5])
    r = mde.right_edge(st).r_inf
    d = mde.density(st, -(r + 0.2), r + 0.2, grid_size=161)
    assert np.max(np.abs(d.density - d.density[::-1])) < 1e-6


def test_density_matrix_components(sc2):
    d = mde.density(sc2, -1.0, 1.0, grid_size=21, components=True)
    assert len(d.matrix_components) == 21
    for comp, rho in zip(d.matrix_components, d.density):
        assert np.linalg.eigvalsh((comp + comp.conj().T) / 2.0).min() > -1e-10
        assert np.trace(comp).real / sc2.L == pytest.approx(rho, abs=1e-12)


def test_density_input_validation(sc):
    with pytest.raises(ValueError):
        mde.density(sc, 1.0, -1.0)
    with pytest.raises(ValueError):
        mde.density(sc, -1.0, 1.0, grid_size=1)


def _hand_ladder(st, x, eta_end=0.0):
    """The last M of scalar solve_mde down x + i eta, eta = 1, 0.2, ... above
    max(eta_end, 1e-9) (a cold start at tiny eta can stall near an edge),
    each rung warm-started from the one above."""
    m, eta = None, 1.0
    while eta > max(eta_end, 1e-9):
        m = mde.solve_mde(st, complex(x, eta), m0=m).m
        eta *= 0.2
    return m


def _assert_matches_pointwise(st, d, tol=1e-10):
    """Every grid value (density and matrix components) against the point's
    own eta ladder (_hand_ladder, down to 8e-10), followed by the same axis
    solve (Newton, polish and branch rule) from there."""
    for x, rho, comp in zip(d.grid, d.density, d.matrix_components):
        m, ok = mde._solve_batch(st, np.array([complex(x)]), _hand_ladder(st, x)[None], 1e-12)
        assert ok[0]
        m = m[0]
        assert rho == pytest.approx(max(np.trace(m).imag / (st.L * np.pi), 0.0), abs=tol)
        assert np.max(np.abs(comp - (m - m.conj().T) / (2j * np.pi))) <= tol


@pytest.mark.parametrize("name", ["goe", "herm2", "random-L3"])
def test_density_stacked_solve_matches_pointwise(name, sc, herm2):
    from test_rate import random_structure

    st = {"goe": sc, "herm2": herm2, "random-L3": random_structure(stream(29, 1), 3)}[name]
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.02 * (right - left)
    d = mde.density(st, left - margin, right + margin, grid_size=61, components=True)
    assert d.fallback_points == 0
    _assert_matches_pointwise(st, d)


@pytest.mark.parametrize("name", PINNED)
def test_density_semicircle_mixtures_to_rounding(name):
    # the axis solve is exact to rounding (<= 8.0e-16 measured), with no
    # point handed back. The law is a mixture of semicircles of centre a_j
    # and radius 2 g_j (herm: the standard semicircle); a_j, g_j as in the
    # log-potential test above
    st = BENCH_STRUCTURES[name]
    if name == "herm":
        a, g = [0.0], [1.0]
    else:
        g = np.trace(st.a, axis1=1, axis2=2).real
        a = np.einsum("ab,jba->j", st.a0, st.a).real / g
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.02 * (right - left)
    d = mde.density(st, left - margin, right + margin, grid_size=201)
    assert d.fallback_points == 0
    want = np.mean([o.semicircle_density((d.grid - aj) / gj) / gj for aj, gj in zip(a, g)], axis=0)
    assert np.max(np.abs(d.density - want)) <= 1e-13


class _Work:
    """Counts, while installed, the points the stacked Newton solves (every
    point of every Jacobian built, so the axis step and dM/dz count too), the
    Newton steps of _newton_polish (not its last, full step at the accepted
    points on the real axis), the points _spectral_norm and
    _branch_ok see, and of the former those inside Newton (rechecks). Of a
    density it also records the size of each refinement level (an axis
    solve outside _rung_loop), the points that the levels turned down, and
    the points that went through _rung_loop."""

    def __init__(self, monkeypatch):
        self.points = self.steps = self.norm_points = self.rechecks = self.branch_points = 0
        self.levels, self.level_rejects, self.rung_loop_points = [], 0, 0
        self._in_newton = self._in_rung_loop = False
        jacobian, newton = mde._jacobian, mde._newton_polish
        spectral_norm, branch_ok = mde._spectral_norm, mde._branch_ok
        solve_batch, rung_loop = mde._solve_batch, mde._rung_loop

        def counted_jacobian(structure, b, x):
            self.points += len(np.reshape(b, (-1, structure.L, structure.L)))
            self.steps += self._in_newton
            return jacobian(structure, b, x)

        def counted_norm(d):
            n = len(np.reshape(d, (-1,) + np.shape(d)[-2:]))
            self.norm_points += n
            self.rechecks += n * self._in_newton
            return spectral_norm(d)

        def counted_branch(structure, m):
            self.branch_points += len(m)
            return branch_ok(structure, m)

        def counted_newton(structure, z, *args, **kwargs):
            self._in_newton = True
            try:
                m, ok = newton(structure, z, *args, **kwargs)
            finally:
                self._in_newton = False
            # the axis step runs where Newton accepted a point on the real
            # axis: one Jacobian, not a Newton step (counted all the same
            # where that step's system is singular and its points fail)
            self.steps -= bool(np.any(ok & (np.imag(z) == 0)))
            return m, ok

        def counted_solve(structure, z, m0, tol):
            m, ok = solve_batch(structure, z, m0, tol)
            if not self._in_rung_loop and not np.any(np.imag(z)):
                self.levels.append(len(z))
                self.level_rejects += np.count_nonzero(~ok)
            return m, ok

        def counted_rung_loop(structure, xs):
            self.rung_loop_points += len(xs)
            self._in_rung_loop = True
            try:
                return rung_loop(structure, xs)
            finally:
                self._in_rung_loop = False

        monkeypatch.setattr(mde, "_jacobian", counted_jacobian)
        monkeypatch.setattr(mde, "_newton_polish", counted_newton)
        monkeypatch.setattr(mde, "_spectral_norm", counted_norm)
        monkeypatch.setattr(mde, "_branch_ok", counted_branch)
        monkeypatch.setattr(mde, "_solve_batch", counted_solve)
        monkeypatch.setattr(mde, "_rung_loop", counted_rung_loop)


def _density_from_the_rung_above(st, x_lo, x_hi, grid_size):
    """density() with the zero-order start: each entry rung's stacked Newton,
    and then the axis solve, starts from the rung above at the same x."""
    grid, m = np.linspace(x_lo, x_hi, grid_size), None
    for eta in mde._ENTRY_RUNGS:
        z = grid + 1j * eta
        m0, (m, ok) = m, mde._solve_batch(st, z, m, 1e-11)
        for i in np.flatnonzero(~ok):
            m[i] = mde._solve_point(st, z[i], 1e-11, m0=None if m0 is None else m0[i])
    m, ok = mde._solve_batch(st, grid, m, 1e-12 * np.linalg.cond(m))
    assert ok.all()
    return np.clip(np.trace(m, axis1=1, axis2=2).imag / (st.L * np.pi), 0.0, None)


@pytest.mark.parametrize("name", PINNED)
def test_density_eta_predictor_saves_work(name, monkeypatch):
    # the rung loop on every grid point, extrapolating each rung, and the
    # axis, in eta from the three rungs above, against the zero-order start:
    # the same densities, in at most 0.85x the stacked point solves (0.78x to
    # 0.82x on these structures; the rungs below 1e-3, where the predictor
    # saved most, are gone)
    st = BENCH_STRUCTURES[name]
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.02 * (right - left)
    work = _Work(monkeypatch)
    m, fallbacks = mde._rung_loop(st, np.linspace(left - margin, right + margin, 201))
    predicted, work.points = work.points, 0
    want = _density_from_the_rung_above(st, left - margin, right + margin, 201)
    assert fallbacks == 0 and predicted <= 0.85 * work.points
    rho = np.clip(np.trace(m, axis1=1, axis2=2).imag / (st.L * np.pi), 0.0, None)
    assert np.max(np.abs(rho - want)) <= 1e-12


# stacked Jacobian points per 201-point density before Newton's merit was
# the Frobenius norm and while every rung above the axis took the branch rule
_PARENT_JACOBIAN_POINTS = {"goe": 3210, "herm": 3210, "dsum": 3340, "sum-L3": 3461, "sum-L2": 3370}


@pytest.mark.parametrize("name", PINNED)
def test_density_runs_each_check_only_where_it_decides(name, monkeypatch):
    # the branch rule runs on the axis solve alone, which sets the values:
    # 201 points and no hand-back. The spectral norm runs on the branch
    # rule's points with an Im M and on Newton's rechecks (points whose
    # Frobenius merit cannot decide; 0 to 31 measured, against about 5800
    # spectral-norm points per density before), and Newton takes no more steps
    st = BENCH_STRUCTURES[name]
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.02 * (right - left)
    work = _Work(monkeypatch)
    d = mde.density(st, left - margin, right + margin, grid_size=201)
    assert d.fallback_points == 0
    assert work.branch_points == 201
    assert work.norm_points <= 201 + work.rechecks and work.rechecks <= 40
    assert work.points <= _PARENT_JACOBIAN_POINTS[name]


# the same at 1001 points (measured at version 0.9.2, where every grid point
# ran the rung loop)
_PARENT_JACOBIAN_POINTS_1001 = {"goe": 15968, "herm": 15968, "dsum": 16616, "sum-L3": 17229,
                                "sum-L2": 16775}


@pytest.mark.parametrize("grid_size", [201, 1001])
@pytest.mark.parametrize("name", PINNED)
def test_density_refines_in_x_on_the_axis(name, grid_size, monkeypatch):
    # the rung loop runs on every 8th grid index and the last; two levels
    # fill in the indices at step 2 and then step 1, one stacked axis solve
    # each, and turn no point down. Measured: 0.28x to 0.30x the Jacobian
    # points of version 0.9.2 (the rung loop on every point) at 201 points,
    # 0.25x at 1001
    st = BENCH_STRUCTURES[name]
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.02 * (right - left)
    work = _Work(monkeypatch)
    d = mde.density(st, left - margin, right + margin, grid_size=grid_size)
    assert d.fallback_points == d.refine_fallbacks == work.level_rejects == 0
    assert work.rung_loop_points == {201: 26, 1001: 126}[grid_size]
    assert work.levels == {201: [75, 100], 1001: [375, 500]}[grid_size]
    before = {201: _PARENT_JACOBIAN_POINTS, 1001: _PARENT_JACOBIAN_POINTS_1001}[grid_size]
    assert work.points <= 0.35 * before[name]


def _nearest_start(cache, key):
    """The zero-order memo start: the nearest memoized solution within half
    the distance to the edge, else the far-field guess."""
    i = bisect.bisect_left(cache._m_keys, key)
    near = cache._m_keys[max(i - 1, 0):i + 1]
    if near:
        nearest = min(near, key=lambda t: abs(t - key))
        if abs(nearest - key) < 0.5 * (key - cache.r_inf):
            return cache._m_memo[nearest]
    return mde._far_field_guess(cache.structure, np.array([key]))[0]


def test_memo_predictor_saves_outlier_newton_steps(monkeypatch):
    # a memo miss starts from the line in s = sqrt(x - r_inf) through the two
    # nearest memoized solutions: at the real-axis points of the outlier
    # scans of the benchmark's tilts as version 0.9.6 solved them (every
    # iterate of its monotone search, `_monotone_root`), in that order on a
    # fresh cache, fewer real-axis Newton steps than from the nearest
    # solution alone (measured: 244 against 293 at 99 points), and the same
    # M (measured: 8.9e-16 apart)
    from test_outlier import _monotone_root

    structures = [BENCH_STRUCTURES[name] for name in PINNED]
    points = []
    for st in structures:
        cache = mde._SpectralCache(st)
        walk = len(cache._m_memo)
        for t in np.linspace(0.6, 3.0, 6):
            _monotone_root(cache, st, float(t), np.eye(st.L) / st.L)
        points.append(list(cache._m_memo)[walk:])  # in the order they were solved
    assert sum(map(len, points)) >= 90

    def replay():
        caches = [mde._SpectralCache(st) for st in structures]
        work = _Work(monkeypatch)
        ms = [cache.m_matrix(x) for cache, xs in zip(caches, points) for x in xs]
        return ms, work.steps

    m, steps = replay()
    monkeypatch.setattr(mde._SpectralCache, "_start", _nearest_start)
    m_ref, steps_ref = replay()
    assert steps < steps_ref
    assert max(np.abs(a - b).max() for a, b in zip(m, m_ref)) <= 1e-13


def test_outlier_searches_solve_once_per_root(monkeypatch):
    # the 30 searches of the benchmark's spectral plan at seed 1 (GOE, herm,
    # the seed's L = 2 direct sum, dsum and the fixed L = 3 one, at six
    # tilts each, after the edges and the 201-point density): one exact
    # real-axis solve per root, at Z, and a few anchors. Measured: 29
    # (version 0.9.6, an exact solve at every iterate: 101)
    from kronldp.outlier import largest_outlier

    monkeypatch.setattr(mde, "_CACHES", {})
    structures = [BENCH_STRUCTURES["goe"], BENCH_STRUCTURES["herm"],
                  _rotated_direct_sum(stream(1, 1, 0), 2), BENCH_STRUCTURES["dsum"],
                  BENCH_STRUCTURES["sum-L3"]]
    solve_right, solves = mde._solve_right, []
    for st in structures:
        right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
        margin = 0.02 * (right - left)
        mde.density(st, left - margin, right + margin, grid_size=201)
        with monkeypatch.context() as mp:
            mp.setattr(mde, "_solve_right", lambda *a: solves.append(a[1]) or solve_right(*a))
            for t in np.linspace(0.6, 3.0, 6):
                largest_outlier(st, float(t), np.eye(st.L) / st.L)
    assert len(solves) <= 36


def _record_axis(monkeypatch):
    """Every M an axis solve (_solve_batch at real z) accepts, by x: the
    coarse rung loop's, each level's and each re-solve's, a later solve's
    over an earlier one's."""
    stacked, axis = mde._solve_batch, {}

    def recorded(structure, z, m0, tol):
        m, ok = stacked(structure, z, m0, tol)
        if not np.any(np.imag(z)):
            axis.update(zip(np.real(z)[ok].tolist(), m[ok]))
        return m, ok

    monkeypatch.setattr(mde, "_solve_batch", recorded)
    return axis


def _all_points_rung_loop(st, grid):
    """The axis M of version 0.9.2's density, which ran the rung loop on
    every grid point: the rungs _ENTRY_RUNGS above the axis by Newton alone,
    then the axis by _solve_batch, each point from the quadratic in eta
    through the rungs above; no point may need a hand-back."""
    etas, ms = [], []
    for eta in mde._ENTRY_RUNGS + (0.0,):
        m0 = mde._lagrange(etas, ms, eta)
        solve = mde._solve_batch if eta == 0 else mde._newton_polish
        m, ok = solve(st, grid + 1j * eta, m0, mde._rung_tol(eta, m0))
        assert ok.all()
        etas, ms = etas[-2:] + [eta], ms[-2:] + [m]
    return m


def test_density_fallback_is_counted(coupled3, monkeypatch):
    # a point that the coarse rung loop's axis solve turns down is handed
    # back: re-solved from its own eta continuation, then on the axis again;
    # a point that fails there too raises
    stacked = mde._solve_batch
    grid = np.linspace(-2.0, 2.0, 21)
    calls = []  # the points of the solves on the axis

    def flag_one(structure, z, m0, tol):
        m, ok = stacked(structure, z, m0, tol)
        if not z.imag.any():
            calls.append(z.real.tolist())
            if len(calls) == 1:  # the coarse rung loop's axis solve
                at = z.real == grid[8]
                m[at] = np.nan  # garbage left behind for the re-solve
                ok[at] = False
        return m, ok

    monkeypatch.setattr(mde, "_solve_batch", flag_one)
    d = mde.density(coupled3, -2.0, 2.0, grid_size=21, components=True)
    assert calls[0] == grid[[0, 8, 16, 20]].tolist() and calls[1] == [grid[8]]
    assert d.fallback_points == 1
    _assert_matches_pointwise(coupled3, d)

    def flag_always(structure, z, m0, tol):
        m, ok = stacked(structure, z, m0, tol)
        ok[z == d.grid[4]] = False
        return m, ok

    # grid[4] is a level's point: the level hands it to the rung loop, whose
    # axis solve hands it back to the eta continuation, and that fails too
    monkeypatch.setattr(mde, "_solve_batch", flag_always)
    with pytest.raises(mde.ConvergenceError, match=rf"x=\[{d.grid[4]}\]"):
        mde.density(coupled3, -2.0, 2.0, grid_size=21)


def test_density_level_reject_goes_back_through_the_rung_loop(coupled3, monkeypatch):
    # a point a refinement level turns down is re-solved by _rung_loop,
    # counted in refine_fallbacks and not in fallback_points, and lands where
    # the rung loop on every point puts it, up to the axis solve's rounding
    grid = np.linspace(-2.0, 2.0, 201)
    want = _all_points_rung_loop(coupled3, grid)
    stacked, rung_loop = mde._solve_batch, mde._rung_loop
    through, rejected = [], []

    def reject_once(structure, z, m0, tol):
        m, ok = stacked(structure, z, m0, tol)
        at = np.real(z) == grid[101]
        if at.any() and not rejected:  # the level's solve; the rung loop's stands
            rejected.append(True)
            m[at] = np.nan
            ok[at] = False
        return m, ok

    def recorded(structure, xs):
        through.append(xs.tolist())
        return rung_loop(structure, xs)

    monkeypatch.setattr(mde, "_solve_batch", reject_once)
    monkeypatch.setattr(mde, "_rung_loop", recorded)
    d = mde.density(coupled3, -2.0, 2.0, grid_size=201)
    assert through[1:] == [[grid[101]]]  # after the coarse nodes: the reject
    assert d.refine_fallbacks == 1 and d.fallback_points == 0
    floor = 1e-14 + np.finfo(float).eps * np.linalg.cond(want) ** 2
    ref = np.clip(np.trace(want, axis1=1, axis2=2).imag / (coupled3.L * np.pi), 0.0, None)
    assert np.all(np.abs(d.density - ref) <= floor)


@pytest.mark.parametrize("path, ell", [((719,), 2), ((727,), 4), ((1392651949, 1, 1), 3)])
def test_density_refinement_matches_the_rung_loop_on_every_point(path, ell):
    # the gap structures 719 and 727 (727 also carries a narrow spike,
    # cond(M) ~ 360) and the near-atom structure, 1001 points: no point is
    # handed back, and every density is within the axis solve's rounding,
    # 1e-14 + eps cond(M)^2, of the rung loop run on every point (measured:
    # 0.04, 0.19 and 0.12 of it)
    from test_rate import random_structure

    st = random_structure(stream(*path), ell)
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.02 * (right - left)
    d = mde.density(st, left - margin, right + margin, grid_size=1001)
    want = _all_points_rung_loop(st, d.grid)
    assert d.fallback_points == 0
    floor = 1e-14 + np.finfo(float).eps * np.linalg.cond(want) ** 2
    ref = np.clip(np.trace(want, axis1=1, axis2=2).imag / (st.L * np.pi), 0.0, None)
    assert np.all(np.abs(d.density - ref) <= floor)


def test_density_fallback_recovers_at_a_near_atom(monkeypatch):
    # one direction carries little noise: started from the rung above, Newton
    # at point 111 fails at eta = 0.008 (the fourth rung). The eta predictor
    # gets past it, so the hand-back is forced there: point 111 is turned
    # down by its level, and its rung loop's rung at 0.008 fails once. Its
    # continuation must not retrace the density's own rungs, where it would
    # fail at the same jump
    from test_rate import random_structure

    st = random_structure(stream(1392651949, 1, 1), 3)
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.02 * (right - left)
    base = mde.density(st, left - margin, right + margin, grid_size=201)
    assert base.fallback_points == 0

    newton, x, failed = mde._newton_polish, np.linspace(left - margin, right + margin, 201)[111], set()

    def fail_once(structure, z, m0, tol):
        m, ok = newton(structure, z, m0, tol)
        at, eta = np.real(z) == x, float(z[0].imag)
        if at.any() and eta in (0.0, mde._ENTRY_RUNGS[3]) and eta not in failed:
            failed.add(eta)  # the level's axis solve, then the stacked rung
            m[at] = np.nan
            ok[at] = False
        return m, ok

    monkeypatch.setattr(mde, "_newton_polish", fail_once)
    d = mde.density(st, left - margin, right + margin, grid_size=201)
    assert failed == {0.0, mde._ENTRY_RUNGS[3]}
    assert d.fallback_points == 1 and d.refine_fallbacks == base.refine_fallbacks + 1
    assert np.all(np.isfinite(d.density))


def test_density_catches_a_wrong_root_rung_on_the_axis(sc, monkeypatch):
    # the rungs above the axis run Newton alone, with no branch rule. Put
    # the coarse rung loop's eta = 0.04 rung on the other root 1/m of
    # m^2 + z m + 1 = 0 (Im < 0) at three points inside the bulk: the rungs
    # below follow it down, the axis solve's branch rule turns it down, and
    # the points are re-solved from their own eta continuation
    newton, grid = mde._newton_polish, np.linspace(-2.5, 2.5, 251)
    swapped = np.isin(grid, grid[[40, 112, 176]])  # coarse nodes: every 8th index
    done = []

    def wrong_root(structure, z, m0, tol):
        m, ok = newton(structure, z, m0, tol)
        if z[0].imag == mde._ENTRY_RUNGS[2] and not done:  # the coarse rung
            done.append(True)
            at = np.isin(z.real, grid[swapped])
            m[at] = 1.0 / m[at]
        return m, ok

    monkeypatch.setattr(mde, "_newton_polish", wrong_root)
    d = mde.density(sc, -2.5, 2.5, grid_size=251)
    assert d.fallback_points == 3 and d.refine_fallbacks == 0
    inside = np.abs(d.grid) <= 2.0 - 1e-6
    assert np.max(np.abs(d.density - o.semicircle_density(d.grid))[inside]) <= 1e-13


@pytest.mark.parametrize("fail_at", [mde._ENTRY_RUNGS[3], 0.0])
def test_hand_back_ladder_never_retraces_the_density_rungs(sc, fail_at, monkeypatch):
    # a point that a density rung turns down is handed back, stacked with
    # the rung's other failures, to one continuation down the second ladder.
    # A ladder that met the density's rungs (as 0.1 (1 + |x|) 0.2^k does at
    # |x| = 1, 9 and 49, and nearly at |x| = 1.0001) would fail again at the
    # same jump: no rung of a hand-back at or below 1 lies within a factor
    # 1.5 of a density rung, at any x, and the points land where the rung
    # loop without the failure puts them
    xs = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 1.0001, -1.0001, 9.0, -9.0, 49.0])
    want, _ = mde._rung_loop(sc, xs)
    newton, loop = mde._newton_polish, mde._rung_loop
    failed, ladders, etas = [], [], []  # etas: the Newton solves inside a hand-back

    def fail_once(structure, z, m0, tol):
        m, ok = newton(structure, z, m0, tol)
        if ladders:
            etas.extend(np.imag(z).tolist())
        elif float(np.imag(z[0])) == fail_at and not failed:
            failed.append(True)
            m[:] = np.nan
            ok[:] = False
        return m, ok

    def recorded(structure, xs, *args):
        if not args:
            return loop(structure, xs)
        ladders.append((xs.tolist(), args[:2]))
        try:
            return loop(structure, xs, *args)
        finally:
            etas.append(None)  # the hand-back's end

    monkeypatch.setattr(mde, "_newton_polish", fail_once)
    monkeypatch.setattr(mde, "_rung_loop", recorded)
    m, handed_back = mde._rung_loop(sc, xs)
    assert handed_back == len(xs) and len(ladders) == 1
    (back_xs, (ladder, eta)), = ladders
    assert back_xs == xs.tolist() and eta == fail_at
    rungs = sorted(set(etas[:etas.index(None)]) - {fail_at}, reverse=True)
    assert rungs == list(ladder) and rungs[0] >= 1.0 and rungs[-1] > max(fail_at, 1e-9)
    for r in rungs:
        if r <= 1.0:
            assert all(max(r / e, e / r) > 1.5 for e in mde._ENTRY_RUNGS), r
    assert np.max(np.abs(m - want)) <= 1e-12


@pytest.mark.parametrize("path", [(727,), (1392651949, 1, 1)])
def test_density_rungs_above_the_axis_need_only_the_branch_rule_resolution(path, monkeypatch):
    # a rung above the axis only seeds the next rung's predictor, so it runs
    # Newton alone (a wrong root is the axis solve's branch rule's to catch):
    # solved to 1e-8 instead of 1e-11, it leaves every point where the axis
    # solve puts it, up to that solve's own rounding. That is 1e-14 where M
    # is well conditioned; next to the narrow spike of 727 (cond(M) ~ 360)
    # more Newton steps from the same M scatter the density by 3e-13, and the
    # two tolerances differ by 1.5e-12. Measured: at most 0.032 eps cond(M)^2
    # over 1e-14, at 3 points of 727 and none of the near-atom structure of
    # test_density_fallback_recovers_at_a_near_atom (0.96 and 0.03 on a
    # 1001-point grid, where 1e-13 at x = -0.59, cond(M) = 21, is rounding:
    # either side is within 0.08 and 0.72 of it from the rung loop on every
    # point at its own rung tol)
    from test_rate import random_structure

    st = random_structure(stream(*path), 4 if path == (727,) else 3)
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.02 * (right - left)
    axis = _record_axis(monkeypatch)
    d = mde.density(st, left - margin, right + margin, grid_size=201)
    m = np.array([axis[x] for x in d.grid])
    with monkeypatch.context() as mp:
        mp.setattr(mde, "_rung_tol", lambda eta, m0: 1e-12 * np.linalg.cond(m0) if eta == 0 else 1e-11)
        ref = mde.density(st, left - margin, right + margin, grid_size=201)
    assert d.fallback_points == ref.fallback_points == 0
    floor = 1e-14 + np.finfo(float).eps * np.linalg.cond(m) ** 2
    assert np.all(np.abs(d.density - ref.density) <= floor)


def _single_noise(i):
    """A k = 1 structure with a dense A_0 that does not commute with A:
    L = 2, 3, 4, 2, 3 and beta = 1, 2, 1, 2, 1 for i = 0..4."""
    return single_noise_structure(stream(31, i), 2 + i % 3, 1 + i % 2, scale=0.5)


@pytest.mark.parametrize("i", range(5))
def test_density_matches_the_single_noise_pushforward(i):
    # the semicircle pushed forward by A_0 + d A's eigenvalue branches: 41
    # points across the support, gaps included (<= 3e-14 relative measured,
    # and the gaps read <= 1e-15)
    st = _single_noise(i)
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.05 * (right - left)
    d = mde.density(st, left + margin, right - margin, grid_size=41)
    want = o.single_noise_density(st.a0, st.a[0], d.grid)
    assert d.fallback_points == 0
    assert np.all(np.abs(d.density - want) <= np.where(want > 0, 1e-12 * want, 1e-14))
    assert np.count_nonzero(want) >= 20


@pytest.mark.parametrize("seed, gap", [(719, (-0.12, 0.12)), (727, (-0.01, 0.085))])
def test_density_in_a_gap_is_zero_on_the_physical_branch(seed, gap, monkeypatch):
    # between two bands M(x + i0) is real; the axis solve lands on the root
    # of feedback radius below 1, where the eta ladder read 7.4e-6 (719) and
    # 5.4e-5 (727) on this grid
    from test_rate import random_structure

    st = random_structure(stream(seed), 2 + (seed - 710) % 3)
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    margin = 0.02 * (right - left)
    axis = _record_axis(monkeypatch)
    d = mde.density(st, left - margin, right + margin, grid_size=201)
    inside = (d.grid > gap[0]) & (d.grid < gap[1])
    assert d.fallback_points == 0 and inside.sum() >= 4
    assert d.density[inside].max() <= 1e-14
    m = np.array([axis[x] for x in d.grid])
    im = (m[inside] - np.conj(np.swapaxes(m[inside], 1, 2))) / 2j
    assert np.abs(im).max() <= 1e-13
    assert mde._feedback_radius(st, m[inside]).max() < 1.0


@pytest.mark.parametrize("scale", [1.0 - 1e-3, 1.0, 1.0 + 1e-3])
def test_density_next_to_a_cusp(scale):
    # A_0 = diag(-a, a) with a near a* = 1.1555106222, next to where the two
    # bands meet in a cusp: at 0.999 a* they overlap, at a* a gap of
    # half-width ~6e-4 is open at 0, at 1.001 a* a wider one. No point is handed
    # back; swapping the basis maps A_0 to -A_0 and fixes A_1, so the
    # density is even (the grid is exactly symmetric: step 1/32); near 0 a
    # point's own eta ladder down to 1e-10 agrees to its bias (<= 2.5e-9)
    a = 1.1555106222 * scale
    st = make_structure(np.diag([-a, a]), [np.array([[1.0, 0.5], [0.5, 1.0]]) / 1.5])
    d = mde.density(st, -3.0, 3.0, grid_size=193)
    assert d.fallback_points == 0
    assert np.max(np.abs(d.density - d.density[::-1])) <= 1e-12
    near = mde.density(st, -1e-3, 1e-3, grid_size=9)
    assert near.fallback_points == 0
    for x, rho in zip(near.grid, near.density):
        m, eta = None, 1.0
        while eta > 1e-10:
            m, eta = mde.solve_mde(st, complex(x, eta), m0=m).m, 0.5 * eta
        assert rho == pytest.approx(np.trace(m).imag / (2.0 * np.pi), abs=5e-9)


@pytest.mark.parametrize("sigma, bound", [(1e-3, 1e-9), (1e-4, 1e-7)])
def test_density_across_a_narrow_band(sigma, bound):
    # a rotated direct sum of a GOE block and a block of width 4 sigma at
    # 0.7: |M| ~ 1 / sigma inside the band puts the defect's rounding floor
    # above an absolute 1e-12, so the axis Newton's tol scales with cond(M).
    # The law is the semicircle mixture; away from the band's edges (where
    # rounding x moves the density by sqrt(rounding)) it holds to 3.2e-11
    # and 4.9e-9 relative, the solve's own conditioning
    q, _ = np.linalg.qr(stream(5).standard_normal((2, 2)))
    st = make_structure(q @ np.diag([0.0, 0.7]) @ q.T,
                        [q @ np.diag([1.0, 0.0]) @ q.T, sigma * q @ np.diag([0.0, 1.0]) @ q.T])
    d = mde.density(st, 0.7 - 3.0 * sigma, 0.7 + 3.0 * sigma, grid_size=61)
    u = (d.grid - 0.7) / sigma
    want = 0.5 * (o.semicircle_density(d.grid) + o.semicircle_density(u) / sigma)
    away = np.abs(np.abs(u) - 2.0) > 0.05
    assert d.fallback_points == 0
    assert np.max(np.abs(d.density - want)[away] / want[away]) <= bound


def test_cold_starts_need_no_retry(sc, herm2, monkeypatch):
    # the one cold start above the axis is Newton from the far-field guess at
    # Im z >= 1: a cold cache build never leaves the real axis, the density
    # hands no point back, and a cold solve_mde (the eta continuation, near
    # the axis inside the bulk too) fails no rung and no first attempt. Every
    # solve, a rung's Newton alone and the branch-ruled target's, goes
    # through _newton_polish
    from test_rate import random_structure

    dsum = make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    newton = mde._newton_polish
    oks = []  # the solves above the axis

    def recorded(structure, z, *args):
        m, ok = newton(structure, z, *args)
        if (z.imag > 0).all():
            oks.append(ok.all())
        return m, ok

    monkeypatch.setattr(mde, "_newton_polish", recorded)
    for st in (sc, dsum, herm2, random_structure(stream(502), 3)):
        monkeypatch.setattr(mde, "_CACHES", {})
        oks.clear()
        right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
        assert oks == []
        assert mde.density(st, left, right, grid_size=41).fallback_points == 0
        oks.clear()
        mde.solve_mde(st, right + 0.5)
        for x in np.linspace(left, right, 9)[1:-1]:
            mde.solve_mde(st, complex(x, 1e-3))
        assert len(oks) > 8 and all(oks)


@CONTINUATION_SETTINGS
@given(beta=hs.sampled_from([1, 2]), L=hs.integers(1, 3), k=hs.integers(1, 2),
       seed=hs.integers(0, 2 ** 32 - 1), u=hs.floats(0.0, 1.0),
       log_eta=hs.floats(-6.0, float(np.log10(2.0))), d=hs.floats(1e-3, 2.0))
def test_cold_solve_matches_the_warm_ladder(beta, L, k, seed, u, log_eta, d):
    # a cold solve_mde runs the one continuation (_rung_loop down the second
    # ladder, Newton alone above the target, the branch rule at it). At x +
    # i eta, x across the support and 10 % beyond either edge, and at a real
    # x right of the edge, it lands where the warm ladder by hand does
    rng = np.random.default_rng(seed)
    a = [h / np.linalg.norm(h, 2) for h in (_random_hermitian(rng, beta, L) for _ in range(k))]
    st = make_structure(0.3 * _random_hermitian(rng, beta, L), a, beta=beta)
    right, left = mde.right_edge(st).r_inf, mde.left_edge(st)
    x = left + (1.2 * u - 0.1) * (right - left)
    for z in (complex(x, 10.0 ** log_eta), complex(right + d)):
        cold, warm = mde.solve_mde(st, z), mde.solve_mde(st, z, m0=_hand_ladder(st, z.real, z.imag))
        assert cold.residual <= 1e-12 and warm.residual <= 1e-12
        assert np.max(np.abs(cold.m - warm.m)) <= 1e-10
        assert np.linalg.eigvalsh((cold.m - cold.m.conj().T) / 2j).min() >= 0.0


# ---------------------------------------------------------------------------
# stacked kernels against per-j reference loops

def _random_hermitian(rng, beta, L):
    g = rng.standard_normal((L, L))
    if beta == 2:
        g = g + 1j * rng.standard_normal((L, L))
    return (g + g.conj().T) / 2.0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(beta=hs.sampled_from([1, 2]), L=hs.integers(1, 4), k=hs.integers(0, 3),
       points=hs.sampled_from([1, 7]), real_z=hs.booleans(), mirrored=hs.booleans(),
       seed=hs.integers(0, 2 ** 32 - 1))
@example(beta=2, L=3, k=0, points=7, real_z=False, mirrored=True, seed=1)
@example(beta=1, L=2, k=0, points=1, real_z=True, mirrored=False, seed=2)
def test_stacked_kernels_match_reference_loops(beta, L, k, points, real_z, mirrored, seed):
    # S acts through the structure's cached matrix forms; every kernel must
    # equal the per-j sums. Sum A_j (x) A_j and sum A_j (x) A_j^T agree on
    # real symmetric A_j, so only the beta = 2 cases catch a mix-up.
    rng = np.random.default_rng(seed)
    st = make_structure(_random_hermitian(rng, beta, L),
                        [_random_hermitian(rng, beta, L) for _ in range(k)], beta=beta)
    if mirrored:  # the structure _fold(side=-1) builds
        st = replace(st, a0=-st.a0)
    real_z = real_z and beta == 1
    if real_z:
        z = rng.standard_normal(points)
        m = rng.standard_normal((points, L, L))
    else:
        z = rng.standard_normal(points) + 1j * rng.uniform(0.1, 2.0, points)
        m = rng.standard_normal((points, L, L)) + 1j * rng.standard_normal((points, L, L))
        # Im M shifted both ways, so the Herglotz test says yes and no
        m = m + 1j * rng.uniform(-1.0, 3.0, points)[:, None, None] * np.eye(L)
    x = rng.standard_normal((points, L, L))
    if not real_z:
        x = x + 1j * rng.standard_normal((points, L, L))
    eye = np.eye(L)

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    s_ref = np.array([sum((aj @ mi @ aj for aj in st.a), np.zeros((L, L))) for mi in m])
    b_ref = z[:, None, None] * eye - st.a0 + s_ref
    close(mde._b_batch(st, z, m), b_ref)
    close(np.array([apply_S(st, mi) for mi in m]), s_ref)
    close(s_big(st), sum((np.kron(aj, aj) for aj in st.a), np.zeros((L * L, L * L))))

    jac_ref = np.array([np.kron(bi, eye) + sum((np.kron(aj, (aj @ xi).T) for aj in st.a),
                                                np.zeros((L * L, L * L)))
                        for bi, xi in zip(b_ref, x)])
    close(mde._jacobian(st, b_ref, x), jac_ref)
    close(mde._jacobian(st, b_ref[0], x[0]), jac_ref[0])

    res_ref = np.linalg.norm(eye + b_ref @ m, 2, axis=(1, 2))
    close(mde._residual_batch(st, z, m), res_ref)

    # the radius is taken at a negative definite M, as the real-axis branch
    # test takes it; the reference is the general eigensolve of the map
    neg = np.array([-(h @ h.conj().T) - 0.1 * eye
                    for h in (_random_hermitian(rng, beta, L) for _ in range(points))])
    op_ref = [sum((np.kron(mi @ aj, (aj @ mi).T) for aj in st.a), np.zeros((L * L, L * L)))
              for mi in neg]
    radius_ref = np.array([np.abs(np.linalg.eigvals(op)).max() for op in op_ref])
    close(mde._feedback_radius(st, neg), radius_ref)
    close(mde._feedback_radius(st, neg[0]), radius_ref[0])

    # the branch rule on both stacks: the Herglotz test where Im M is
    # nonzero, the radius (of D -> M* S[D] M) below 1 where it vanishes
    both = np.concatenate([m, neg])
    im = (both - np.conj(np.swapaxes(both, 1, 2))) / 2j
    flat = np.abs(im).max(axis=(1, 2)) <= 1e-10 * (1.0 + np.abs(both).max(axis=(1, 2)))
    herglotz = (np.linalg.eigvalsh(im).min(axis=-1)
                >= -1e-8 * (1.0 + np.linalg.norm(both, 2, axis=(1, 2))))
    radius = np.array([
        np.abs(np.linalg.eigvals(sum((np.kron(mi.conj().T @ aj, (aj @ mi).T) for aj in st.a),
                                     np.zeros((L * L, L * L))))).max()
        for mi in both])
    assert flat[points:].all()
    assert np.array_equal(mde._branch_ok(st, both), np.where(flat, radius < 1.0, herglotz))


# ---------------------------------------------------------------------------
# beta = 2 end to end

def test_hermitian_structure_full_path(herm2):
    info = mde.right_edge(herm2)
    x = info.r_inf + 0.5
    m, mat = mde.stieltjes_real(herm2, x)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(mat).max() < 0
    t = mde.inverse_neg_stieltjes(herm2, -m)
    assert t == pytest.approx(x, abs=1e-9)
    u1 = mde.log_potential(herm2, x)
    u2 = mde.log_potential(herm2, x + 1e-6)
    assert (u2 - u1) / 1e-6 == pytest.approx(-m, abs=1e-5)



def test_real_memo_survives_concurrent_callers():
    # 8 threads x 600 distinct points overflow the 4096-entry memo, so a clear
    # lands while other threads look up their warm starts
    cache = mde._SpectralCache(make_structure(np.zeros((1, 1)), [np.ones((1, 1))]))
    errors, wrong = [], []

    def work(i):
        try:
            for j in range(600):
                x = 2.5 + (8 * j + i) * 1e-4
                got = float(cache.m_matrix(x)[0, 0])
                if abs(got - o.semicircle_m(x).real) > 1e-9:
                    wrong.append(x)
        except Exception as exc:  # the failure under test: report, don't hang
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []
