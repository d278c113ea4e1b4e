"""Outlier determinant equation, its symmetrized form, and tilt inversion.

BBP closed forms from tests/oracles.py anchor the scalar cases; matrix cases
are checked through round trips and method cross-agreement.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.optimize import brentq

import oracles as o
from kronldp import make_structure, mde, outlier, right_edge, stream
from kronldp.mde import DomainError, stieltjes_real
from kronldp.model import _psd_factor, s_big
from kronldp.outlier import (
    OutlierSolve,
    largest_outlier,
    lambda_sym,
    outlier_det,
    tilt_for_target,
)
from kronldp.rate import phi_maps, rate_function
from test_rate import random_pd_profile, random_structure


@pytest.fixture(scope="module")
def sc():
    return make_structure(np.zeros((1, 1)), [np.ones((1, 1))])


@pytest.fixture(scope="module")
def pair():
    return make_structure(
        np.diag([0.3, -0.1]),
        [np.diag([1.0, 0.5]), 0.4 * np.array([[0.0, 1.0], [1.0, 0.0]])],
    )


@pytest.fixture(scope="module")
def herm():
    h = np.array([[0.0, 1j], [-1j, 0.0]])
    return make_structure(0.3 * np.eye(2), [h, np.eye(2)], beta=2)


@pytest.fixture(scope="module")
def rand3():
    return random_structure(stream(502), 3)


@pytest.fixture(scope="module")
def dsum():
    return make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def _counting(monkeypatch, name="lambda_sym"):
    calls = []
    fun = getattr(outlier, name)

    def counted(*args):
        calls.append(args)
        return fun(*args)

    monkeypatch.setattr(outlier, name, counted)
    return calls


ONE = np.ones((1, 1))


def _slope(st, theta, z, psi):
    """_lambda_slope at z with the search's arguments: the cache, h = 2 theta
    Psi and its factor."""
    h = 2.0 * theta * np.asarray(psi)
    return outlier._lambda_slope(outlier._cache_for(st), z, h, _psd_factor(h))


# ---------------------------------------------------------------------------
# determinant

def test_det_vanishes_at_scalar_root(sc):
    # 1 + 2 m_sc(2.5) = 0
    assert outlier_det(sc, 1.0, ONE, 2.5) == pytest.approx(0.0, abs=1e-9)


def test_det_tends_to_one_for_small_tilt(sc):
    assert outlier_det(sc, 1e-12, ONE, 3.0) == pytest.approx(1.0, abs=1e-9)


def test_det_tends_to_one_far_from_spectrum(sc):
    assert outlier_det(sc, 1.0, ONE, 1e3) == pytest.approx(1.0, abs=3e-3)


def test_det_identity_without_noise():
    atoms = make_structure(np.diag([3.0, 1.0]), [])
    assert outlier_det(atoms, 2.0, np.eye(2) / 2.0, 4.0) == 1.0


def test_det_requires_z_beyond_edge(sc):
    with pytest.raises(DomainError):
        outlier_det(sc, 1.0, ONE, 1.5)


# ---------------------------------------------------------------------------
# symmetrized eigenvalue

def test_lambda_scalar_root_value(sc):
    # 2 theta (-m_sc(2.5)) = 2 * 0.5 = 1 at theta=1
    assert lambda_sym(sc, 1.0, 2.5, ONE) == pytest.approx(1.0, abs=1e-10)


def test_lambda_vanishes_with_theta(sc):
    assert lambda_sym(sc, 1e-9, 2.5, ONE) <= 1e-8


def test_lambda_grows_with_theta(pair):
    rng = stream(59, 1)
    edge = right_edge(pair).r_inf
    for _ in range(3):
        c = np.eye(2) + 0.5 * rng.standard_normal((2, 2))
        psi = c @ c.T + 0.05 * np.eye(2)
        psi /= np.trace(psi)
        z = edge + float(rng.uniform(0.1, 1.0))
        theta = float(rng.uniform(0.3, 1.5))
        assert lambda_sym(pair, 2 * theta, z, psi) > lambda_sym(pair, theta, z, psi)


def test_lambda_rejects_indefinite_psi(pair):
    z = right_edge(pair).r_inf + 0.5
    with pytest.raises(ValueError, match="semidefinite"):
        lambda_sym(pair, 1.0, z, np.diag([1.5, -0.5]))
    # a singular profile is served: the nonzero eigenvalues of Q^1/2 B Q^1/2
    # are those of B Q, and the kernel of Q adds zeros
    psi = np.diag([1.0, 0.0])
    q = np.kron(-stieltjes_real(pair, z)[1], 2.0 * psi)
    want = max(0.0, np.linalg.eigvals(s_big(pair) @ q).real.max())
    assert lambda_sym(pair, 1.0, z, psi) == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(theta=hs.floats(0.01, 5.0), c=hs.floats(0.1, 10.0),
       gap=hs.floats(0.01, 5.0), seed=hs.integers(0, 2 ** 16))
def test_lambda_sym_is_linear_in_theta(pair, herm, rand3, theta, c, gap, seed):
    rng = stream(59, 5, seed)
    for st in (pair, herm, rand3):
        psi = random_pd_profile(rng, st.L)
        z = right_edge(st).r_inf + gap
        assert lambda_sym(st, c * theta, z, psi) == pytest.approx(
            c * lambda_sym(st, theta, z, psi), rel=1e-12)


# ---------------------------------------------------------------------------
# largest outlier

def test_bbp_curve(sc):
    for theta in (0.6, 0.75, 1.0, 2.0, 5.0):
        res = largest_outlier(sc, theta, ONE)
        assert res.Z == pytest.approx(o.bbp_z(theta), abs=1e-8)
        assert res.residual <= 1e-9


def test_bbp_subcritical_returns_edge(sc):
    res = largest_outlier(sc, 0.4, ONE)
    assert res.Z == pytest.approx(2.0, abs=1e-6)
    assert res.Z == right_edge(sc).r_inf


def _scan_grid(structure, theta, psi):
    """The 160-point log grid of the reference scans, top down from a bound
    on any root: 1 <= 2 theta ||S_big|| ||Psi|| / (z - r_inf), so c0 + c1
    theta with c1 = 4 ||S_big|| (||Psi|| + 1) clears it with slack."""
    r = right_edge(structure).r_inf
    big = s_big(structure)
    norm_s = np.linalg.norm(big, 2) if big.size else 0.0
    norm_m1 = np.linalg.norm(stieltjes_real(structure, r + 1.0)[1], 2)
    c0 = r + 1.0 + norm_s * norm_m1
    z_top = c0 + 4.0 * norm_s * (np.linalg.norm(psi, 2) + 1.0) * theta
    guard = 1e-9 * (1.0 + abs(r))
    return r, r + np.geomspace(guard, max(z_top - r, 2.0 * guard), 160)[::-1]


def _det_scan(structure, theta, psi):
    """Reference: the top-down scan of the outlier determinant over the
    160-point grid, brentq on its first sign change (Z = r_inf without one).
    Below its largest root the determinant's sign may flip any number of
    times, so only a scan from the top finds that root first."""
    r, zs = _scan_grid(structure, theta, psi)

    def fun(z):
        return outlier_det(structure, theta, psi, z)

    prev_z, prev_f = None, None
    for z in zs:
        f = fun(float(z))
        if prev_f is not None and np.sign(f) != np.sign(prev_f) and prev_f != 0:
            return float(brentq(fun, float(z), prev_z, xtol=1e-12, rtol=1e-15))
        prev_z, prev_f = float(z), f
    return float(r)


def test_methods_agree(sc, pair, dsum, rand3):
    # the lambda path serves every PSD profile: rank one and positive
    # definite profiles give the determinant's largest root. (The reference
    # sees only sign changes; at herm the crossing of lambda_max is a double
    # root, which the determinant touches without changing sign.)
    rng = stream(59, 2)
    roots = 0
    for st in (sc, pair, dsum, rand3):
        for rank_one in (True, False):
            if rank_one:
                u = rng.standard_normal(st.L)
                psi = np.outer(u, u) / (u @ u)
            else:
                psi = random_pd_profile(rng, st.L)
            for theta in (0.7, 1.3, 2.6):
                z_det = _det_scan(st, theta, psi)
                z_lam = largest_outlier(st, theta, psi).Z
                assert z_lam == pytest.approx(z_det, abs=1e-11)
                roots += z_det > right_edge(st).r_inf
    assert roots >= 12


def test_exactly_critical_case_has_no_crossing():
    # det = (1 + theta m(z))^4 touches zero at the edge without changing
    # sign, so the correct answer is Z = r_inf
    crit = make_structure(np.zeros((2, 2)), [np.eye(2)])
    res = largest_outlier(crit, 1.0, np.eye(2) / 2.0)
    assert res.Z == right_edge(crit).r_inf
    assert res.Z == pytest.approx(2.0, abs=1e-6)


def test_outlier_lies_beyond_the_edge(sc, pair):
    for st, theta in ((sc, 2.0), (pair, 0.9)):
        psi = np.eye(st.L) / st.L
        res = largest_outlier(st, theta, psi)
        assert isinstance(res, OutlierSolve)
        assert res.Z >= right_edge(st).r_inf - 1e-10


def _linear_scan(structure, theta, psi):
    """Reference: the top-down scan of lambda - 1 over the 160-point grid,
    brentq on the first sign change (Z = r_inf when there is none)."""
    r, zs = _scan_grid(structure, theta, psi)

    def fun(z):
        return lambda_sym(structure, theta, z, psi) - 1.0

    prev_z, prev_f = None, None
    for z in zs:
        f = fun(float(z))
        if prev_f is not None and np.sign(f) != np.sign(prev_f) and prev_f != 0:
            return float(brentq(fun, float(z), prev_z, xtol=1e-13, rtol=1e-15))
        prev_z, prev_f = float(z), f
    return float(r)


def test_lambda_sym_monotone_in_z(sc, herm, rand3):
    rng = stream(59, 3)
    for st in (sc, herm, rand3):
        r = right_edge(st).r_inf
        zs = r + np.geomspace(1e-8, 10.0, 80)
        for _ in range(3):
            psi = random_pd_profile(rng, st.L)
            theta = float(rng.uniform(0.3, 3.0))
            lam = np.array([lambda_sym(st, theta, float(z), psi) for z in zs])
            assert np.all(lam[1:] <= lam[:-1] * (1.0 + 1e-12))


def test_largest_outlier_matches_linear_scan(sc, pair, herm, rand3):
    rng = stream(59, 4)
    roots = 0
    for st in (sc, pair, herm, rand3):
        for k in range(6):
            psi = ONE if st.L == 1 else random_pd_profile(rng, st.L)
            theta = float(rng.uniform(0.2, 3.0)) if k else 0.45
            z_ref = _linear_scan(st, theta, psi)
            res = largest_outlier(st, theta, psi)
            if z_ref == right_edge(st).r_inf:
                assert res.Z == z_ref
                assert res.residual == 0.0
            else:
                roots += 1
                assert res.Z == pytest.approx(z_ref, abs=1e-11)
    assert roots >= 12
    # GOE at theta <= 1/2 has no outlier
    for theta in (0.3, 0.5):
        assert largest_outlier(sc, theta, ONE).Z == _linear_scan(sc, theta, ONE)


def test_largest_outlier_eval_count(sc, pair, monkeypatch):
    calls = _counting(monkeypatch, "_lambda_slope")
    # no root: one evaluation next to the edge settles it, also once a search
    # with a root has memoized its iterates (none of them has lambda >= 1)
    for st, theta in ((sc, 0.4), (pair, 0.9)):
        psi = np.eye(st.L) / st.L
        for warm in (False, True):
            if warm:
                assert largest_outlier(st, 3.0, psi).Z > right_edge(st).r_inf
            calls.clear()
            res = largest_outlier(st, theta, psi)
            assert res.Z == right_edge(st).r_inf
            assert len(calls) <= 2


def test_largest_outlier_eval_count_with_root(sc, monkeypatch):
    # Newton from r_inf + 3e-9: linear while the square-root edge dominates,
    # quadratic near the root
    calls = _counting(monkeypatch, "_lambda_slope")
    res = largest_outlier(sc, 1.0, ONE)
    assert res.Z == pytest.approx(2.5, abs=1e-11)
    assert len(calls) <= 10


def _profiles(rng, L):
    u = rng.standard_normal(L)
    return np.outer(u, u) / (u @ u), random_pd_profile(rng, L)


def test_inverse_lambda_sym_is_concave_in_z(sc, herm, rand3):
    # the premise of largest_outlier's Newton (module docstring): 1/lambda
    # is concave in z, so its tangent lies above it
    rng = stream(59, 7)
    for st in (sc, herm, rand3):
        zs = right_edge(st).r_inf + np.geomspace(1e-6, 10.0, 60)
        for psi in _profiles(rng, st.L):
            theta = float(rng.uniform(0.3, 3.0))
            h = 1.0 / np.array([lambda_sym(st, theta, float(z), psi) for z in zs])
            # the chord slopes d must not increase; on the uneven grid their
            # differences are scaled back to second differences of h
            d = np.diff(h) / np.diff(zs)
            second = (d[1:] - d[:-1]) * (zs[2:] - zs[:-2]) / 2.0
            assert second.max() <= 1e-10 * np.abs(h).max()


def test_outlier_slope_matches_central_differences(sc, herm, rand3):
    rng = stream(59, 8)
    for st in (sc, herm, rand3):
        r = right_edge(st).r_inf
        for psi in _profiles(rng, st.L):
            theta = float(rng.uniform(0.3, 3.0))
            for gap in (1e-3, 0.1, 2.0):
                z, eps = r + gap, 1e-5 * gap
                lam, slope = _slope(st, theta, z, psi)
                assert lam == pytest.approx(lambda_sym(st, theta, z, psi), rel=1e-14)
                fd = (lambda_sym(st, theta, z + eps, psi)
                      - lambda_sym(st, theta, z - eps, psi)) / (2.0 * eps)
                assert slope == pytest.approx(fd, rel=1e-6)


def test_largest_outlier_climbs_monotonically(sc, herm, dsum, rand3, monkeypatch):
    # the second pass runs on a memo warm with the first pass's iterates:
    # each search starts from one of them, at or left of its root
    calls = _counting(monkeypatch, "_lambda_slope")
    rng = stream(59, 9)
    roots = 0
    for st in (sc, herm, dsum, rand3):
        r = right_edge(st).r_inf
        for psi in _profiles(rng, st.L):
            for warm, thetas in enumerate(((0.7, 1.3, 2.6), (2.6, 1.9, 1.3, 1.0, 0.7))):
                for theta in thetas:
                    calls.clear()
                    res = largest_outlier(st, theta, psi)
                    if res.Z == r:
                        assert len(calls) == 1
                        continue
                    roots += 1
                    zs = [z for _, z, _, _ in calls]
                    assert np.all(np.diff(zs) > 0)
                    assert max(zs) <= res.Z and zs[-1] == res.Z
                    if warm:
                        assert zs[0] > r + 1e-9 * (1.0 + abs(r))
    assert roots >= 40


def _empty_memo(cache):
    """cache with nothing memoized: a search on it starts at r_inf + 1e-9
    (1 + |r_inf|)."""
    cache._m_memo.clear()
    cache._m_keys.clear()
    return cache


def test_memo_start_matches_the_edge_start(sc, pair, herm, rand3, monkeypatch):
    # Z from the shared cache after a density, a rate_function call (which
    # memoizes the points of its inverse and profile search) and the searches
    # at the other thetas (ascending, then descending), against Z from an
    # empty memo, where the search climbs from the edge
    rng = stream(59, 10)
    roots = 0
    for st in (sc, pair, herm, rand3):
        r = right_edge(st).r_inf
        mde.density(st, r - 1.0, r + 0.1, grid_size=21)
        rate_function(st, r + 0.5)
        edge_start = mde._SpectralCache(st)
        thetas = np.linspace(0.3, 3.0, 7)
        for psi in ((ONE,) if st.L == 1 else _profiles(rng, st.L)):
            for theta in np.concatenate([thetas, thetas[::-1]]):
                z = largest_outlier(st, float(theta), psi).Z
                _empty_memo(edge_start)
                with monkeypatch.context() as mp:
                    mp.setattr(outlier, "_cache_for", lambda _: edge_start)
                    want = largest_outlier(st, float(theta), psi).Z
                assert z == pytest.approx(want, abs=1e-13)
                roots += z > r
    assert roots >= 60


def test_largest_outlier_starts_from_the_memo(sc, monkeypatch):
    # GOE after theta = 1.0 (Z = 2.5): the search at theta = 1.1 starts at
    # the memoized 2.5 and takes 4 Newton steps to 2.6545...; measured: 5
    # evaluations, against 8 from r_inf + 3e-9 on an empty memo
    cache = mde._SpectralCache(sc)
    monkeypatch.setattr(outlier, "_cache_for", lambda _: cache)
    largest_outlier(sc, 1.0, ONE)
    calls = _counting(monkeypatch, "_lambda_slope")
    assert largest_outlier(sc, 1.1, ONE).Z == pytest.approx(o.bbp_z(1.1), abs=1e-12)
    assert len(calls) <= 5
    edge_start = cache.r_inf + 1e-9 * (1.0 + abs(cache.r_inf))
    assert all(z != edge_start for _, z, _, _ in calls)
    _empty_memo(cache)
    calls.clear()
    largest_outlier(sc, 1.1, ONE)
    assert calls[0][1] == edge_start and len(calls) == 8


def test_largest_outlier_survives_concurrent_callers(sc, monkeypatch):
    # 8 threads x 600 distinct points overflow the 4096-entry memo, so a
    # clear lands between a search's snapshot of the keys and its probes,
    # while each thread searches the theta grid as it goes
    thetas = np.linspace(0.6, 3.0, 9)
    single = mde._SpectralCache(sc)
    monkeypatch.setattr(outlier, "_cache_for", lambda _: single)
    want = [largest_outlier(sc, float(t), ONE).Z for t in thetas]
    cache = mde._SpectralCache(sc)
    monkeypatch.setattr(outlier, "_cache_for", lambda _: cache)
    errors, got = [], []

    def work(i):
        try:
            for j in range(600):
                cache.m_matrix(2.5 + (8 * j + i) * 1e-4)
                if j % 40 == 0:
                    k = (j // 40 + i) % len(thetas)
                    got.append((k, largest_outlier(sc, float(thetas[k]), ONE).Z))
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
    assert errors == [] and len(got) == 8 * 15
    for k, z in got:
        assert z == pytest.approx(want[k], abs=1e-13)


def test_outlier_requires_positive_theta(sc):
    with pytest.raises(ValueError):
        largest_outlier(sc, 0.0, ONE)


# ---------------------------------------------------------------------------
# tilt inversion

def test_tilt_for_target_goe(sc):
    assert tilt_for_target(sc, 2.5, ONE) == pytest.approx(1.0, abs=1e-6)


def test_tilt_near_threshold(sc):
    theta = tilt_for_target(sc, 2.01, ONE)
    assert theta > 0.5
    z = largest_outlier(sc, theta, ONE).Z
    assert z == pytest.approx(2.01, abs=1e-6)


def test_tilt_round_trip_matrix_case(pair):
    edge = right_edge(pair).r_inf
    x = edge + 0.8
    theta = tilt_for_target(pair, x, np.eye(2) / 2.0)
    _, phi_hat = phi_maps(pair, theta, x, np.eye(2) / 2.0)
    assert largest_outlier(pair, theta, phi_hat).Z == pytest.approx(x, abs=1e-6)


def test_tilt_rejects_singular_psi(pair):
    with pytest.raises(ValueError):
        tilt_for_target(pair, right_edge(pair).r_inf + 0.5, np.diag([1.0, 0.0]))


def _nested_tilt(structure, x, psi, theta_steps=80):
    """Reference: the theta continuation and brentq on Z_phi(theta) - x, with
    a full largest_outlier search at every theta."""
    def z_of(theta):
        _, phi_hat = phi_maps(structure, theta, x, psi)
        return largest_outlier(structure, theta, phi_hat).Z

    theta_lo = -outlier._cache_for(structure).m_scalar(x) / 2.0
    for _ in range(theta_steps):
        theta = theta_lo * 1.15
        if z_of(theta) >= x:
            return float(brentq(lambda t: z_of(t) - x, theta_lo, theta,
                                xtol=1e-11, rtol=1e-14))
        theta_lo = theta
    raise AssertionError("the reference found no bracket")


def _complex_pd_profile(rng, ell):
    c = np.eye(ell) + 0.6 * (rng.standard_normal((ell, ell))
                             + 1j * rng.standard_normal((ell, ell)))
    g = c @ c.conj().T + 0.05 * np.eye(ell)
    return g / np.trace(g).real


def _tilt_cases(sc, herm, dsum, rand3):
    rng = stream(59, 6)
    for st in (sc, herm, dsum, rand3):
        for gap in (0.1, 0.5, 1.5):
            psi = ONE if st.L == 1 else random_pd_profile(rng, st.L)
            yield st, right_edge(st).r_inf + gap, psi
    yield herm, right_edge(herm).r_inf + 10.0, _complex_pd_profile(rng, 2)
    for i in range(12):
        rng = stream(800 + i)
        st = random_structure(rng, 2 + i % 3)
        for gap in (0.05, 0.5, 2.0):
            yield st, right_edge(st).r_inf + gap, random_pd_profile(rng, st.L)


def test_tilt_matches_nested_search(sc, herm, dsum, rand3):
    for st, x, psi in _tilt_cases(sc, herm, dsum, rand3):
        ref = _nested_tilt(st, x, psi)
        theta = tilt_for_target(st, x, psi)
        assert theta == pytest.approx(ref, rel=1e-11)
        _, phi_hat = phi_maps(st, theta, x, psi)
        assert abs(largest_outlier(st, theta, phi_hat).Z - x) <= 1e-9


def test_tilt_eval_count(sc, herm, dsum, rand3, monkeypatch):
    # closed form on the memoized M(x): no eigenvalue search in theta or z
    lam_calls = _counting(monkeypatch)
    outlier_calls = _counting(monkeypatch, "largest_outlier")
    for st, x, psi in _tilt_cases(sc, herm, dsum, rand3):
        cache, reads = outlier._cache_for(st), []
        read = cache.m_matrix
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cache, "m_matrix", lambda z, *a: reads.append(z) or read(z, *a))
            tilt_for_target(st, x, psi)
        assert lam_calls == [] and outlier_calls == []
        assert reads and all(z == x for z in reads)


def test_tilt_failure_reports_lambda():
    # atoms only: S_big = 0, so no tilt moves the top eigenvalue (mu = 0)
    atoms = make_structure(np.diag([1.0, -0.3]), [])
    with pytest.raises(outlier.TiltSearchError, match="mu_max=0"):
        tilt_for_target(atoms, 2.0, np.eye(2) / 2.0)


# ---------------------------------------------------------------------------
# Q's Kronecker factor against a root of the L^2 x L^2 matrix

def _root_reference(st, theta, z, psi):
    """(lambda_sym, its z-slope) from the Hermitian root of the whole L^2 x
    L^2 matrix Q = kron(-M, 2 theta Psi), with dQ/dz built by np.kron."""
    m_mat = outlier._cache_for(st).m_matrix(z)
    big = st.s_op.big
    w, v = np.linalg.eigh(np.kron(-m_mat, 2.0 * theta * psi))
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    vals, vecs = np.linalg.eigh(root @ big @ root)
    lam, top = vals[-1], big @ root @ vecs[:, -1]
    dq = np.kron(-outlier._dm_dz(st, z, m_mat), 2.0 * theta * psi)
    return lam, float(np.real(np.conj(top) @ dq @ top)) / lam


def _factor_cases():
    for ell in (1, 2, 3):
        for beta in (1, 2):
            rng = stream(911, ell, beta)
            mats = []
            for _ in range(2):
                g = rng.standard_normal((ell, ell))
                if beta == 2:
                    g = g + 1j * rng.standard_normal((ell, ell))
                mats.append((g + g.conj().T) / 2.0)
            st = make_structure(0.2 * mats[0], [mats[1], np.eye(ell)], beta=beta)
            g = rng.standard_normal((ell, ell))
            if beta == 2:
                g = g + 1j * rng.standard_normal((ell, ell))
            full = g @ g.conj().T + 0.1 * np.eye(ell)
            vec = g[:, 0]
            rank_one = np.outer(vec, vec.conj())
            for psi in (full / np.trace(full).real, rank_one / np.trace(rank_one).real):
                yield st, psi


@pytest.mark.parametrize("theta", [0.4, 1.3])
def test_kronecker_factor_matches_the_whole_root(theta):
    # C = kron(cholesky(-M), F(2 theta Psi)) is Q^1/2 times a unitary, so
    # lambda_sym and the Hellmann-Feynman slope equal those of Q^1/2
    # (rank-one and full-rank Psi, beta = 1 and 2, L = 1-3)
    for st, psi in _factor_cases():
        r = right_edge(st).r_inf
        for z in (r + 0.05, r + 0.7):
            lam, slope = _slope(st, theta, z, psi)
            ref_lam, ref_slope = _root_reference(st, theta, z, psi)
            assert lam == pytest.approx(ref_lam, rel=1e-13, abs=1e-13)
            assert lambda_sym(st, theta, z, psi) == pytest.approx(ref_lam, rel=1e-13, abs=1e-13)
            assert slope == pytest.approx(ref_slope, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_broadcast_kronecker_product_is_np_kron_bit_for_bit(L):
    # real and complex factors in every pairing the outlier module forms
    rng = stream(911, 5, L)
    real = [rng.standard_normal((L, L)) for _ in range(2)]
    cplx = [r + 1j * rng.standard_normal((L, L)) for r in real]
    for a in (real[0], cplx[0]):
        for b in (real[1], cplx[1]):
            got, want = outlier._kron(a, b), np.kron(a, b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_largest_outlier_factors_its_profile_once(sc, herm, rand3, monkeypatch):
    # 2 theta Psi = F F* is factored once per search, whatever the number of
    # memo probes and Newton iterates, on a cold memo and on a warm one
    factor, calls = outlier._psd_factor, []
    monkeypatch.setattr(outlier, "_psd_factor", lambda h: calls.append(h) or factor(h))
    rng = stream(59, 11)
    for st in (sc, herm, rand3):
        for psi in ((ONE,) if st.L == 1 else _profiles(rng, st.L)):
            for theta in (1.3, 0.8, 2.1, 0.4):
                calls.clear()
                largest_outlier(st, theta, psi)
                assert len(calls) == 1
