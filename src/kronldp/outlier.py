"""Outlier location under exponential tilts.

A rank-one tilt with profile Psi pushes an eigenvalue out of the bulk to the
largest z > r_inf where det(Id_{L^2} + 2 theta S_big (M(z) x Psi)) vanishes
(the finite-rank outlier equation of Benaych-Georges and Nadakuditi). This
module evaluates that determinant, its symmetrized eigenvalue form,
finds the largest root, and inverts theta -> Z(theta) to place the outlier
at a target.

Put Q = -M(z) x 2 theta Psi (positive semidefinite right of the edge) and
B = S_big (Hermitian). det(Id - B Q) = det(Id - Q^1/2 B Q^1/2) (Sylvester),
so the determinant vanishes exactly where an eigenvalue of Q^1/2 B Q^1/2
equals 1, and the largest root is where lambda_max(z) crosses 1. That
crossing is unique because lambda_max^+ = max(lambda_max, 0) cannot grow as
Q shrinks in the Loewner order: if Q_1 <= Q_2, then Q_1^1/2 = K Q_2^1/2 with
||K|| <= 1 (Douglas' lemma), so Q_1^1/2 B Q_1^1/2 = K (Q_2^1/2 B Q_2^1/2)
K* has lambda_max^+ at most ||K||^2 <= 1 times that of Q_2. -M(z) is the
Stieltjes transform of a positive semidefinite matrix-valued measure, so it
shrinks as z grows, and lambda_max is non-increasing in z. This holds for
singular Psi too, where the determinant's sign may flip any number of times
below its largest root.

The crossing is found by Newton on the extended system (Keller 1977) in
the L^2 + 1 unknowns (M, z): {Id + (z - A_0 + S[M]) M = 0, 1/lambda_max(M)
= 1}, the MDE and the outlier equation together, so a search needs one
exact real-axis solve, at the root, instead of one per iterate. It starts
from the largest memoized real-axis point with lambda_max >= 1 and its
exact M, or from just right of the edge when there is none. At an exact M
the first block of a step gives dM = M'(z) dz, so the step in z is
Newton's on h(z) = 1/lambda_max(z) = 1, which needs no bracket: any point
with lambda_max >= 1 lies at or left of the root, and h is concave and
increasing wherever lambda_max > 0. -M(z) = int dV(t) / (z - t) is
operator convex in z > r_inf, S is a positive map, so by the MDE
-M(z)^{-1} = z - A_0 + S[M(z)] is operator concave and increasing, and so
is Q(z)^+ = -M(z)^{-1} x (2 theta Psi)^+ on the range of Q, which does not
depend on z. With y = Q^1/2 x, h(z) = min over y in that range with
y* B y > 0 of y* Q(z)^+ y / y* B y: a minimum of concave increasing
functions. Its tangent lies above it, so that step stays at or below the
root. At a multiple top eigenvalue any v in the eigenspace gives a
supergradient, which keeps the argument (the double root of the herm
structure with a positive definite profile). Off the solution, where M is
the previous step's M + dM, a step is Newton's on the whole system; its
iterate is kept only where it is admissible (right of the edge, -M
positive definite and within a factor 4 of the last -M, at most a fixed
number per search, and a nonsingular step at it), and otherwise the
search re-anchors on the memo's exact M(z) at the current z and steps
again. Iterates may pass the root: that is
harmless, the root being unique with lambda_max < 1 right of it, and an
exact step from there is taken at most halfway to the edge. Once the step
rounds away, M is solved exactly at the root from the last iterate, and
the root is accepted only if the step recomputed there still rounds away.

The gradient is Hellmann-Feynman: d lambda = w* dQ w / lambda with w = B
Q^1/2 v for the top unit eigenvector v, and dQ = -dM x 2 theta Psi, so
d(1/lambda) = tr(dM X) / lambda^3, X = W (2 theta Psi)^T W* for w read as
the L x L matrix W: the row that borders the MDE's Newton Jacobian. Q^1/2
is never formed: with -M = R R* and 2 theta Psi = F F*, C = R x F is
Q^1/2 U for a unitary U (`_probe`), so C* B C has the eigenvalues of
Q^1/2 B Q^1/2 and B C (U* v) = B Q^1/2 v is the same w.

The same monotonicity inverts the tilt in closed form. For theta >=
theta_0 = -m(x)/2, 2 theta phi_hat(theta) = -M/L + tau Psi with M = M(x)
and tau = 2 theta + m(x) >= 0, so the tilt matrix at z = x is affine:
Q = Q_0 + tau Q_1, Q_0 = -M x (-M/L), Q_1 = -M x Psi. At tau = 0 the
outlier sits at r_inf, so lambda_max < 1 and Id - Q_0 B is invertible;
det(Id - B Q) = 0 then reads det(Id - tau H Q_1) = 0 with the Hermitian
H = B (Id - Q_0 B)^{-1} = (Id - B Q_0)^{-1} B (push-through). Its roots are
tau = 1/mu over the positive eigenvalues mu of C* H C, Q_1 = C C*. As Q
grows with tau, lambda_max^+ cannot fall, and it is >= 1 at every root, so
the smallest root, tau = 1/mu_max, is where lambda_max first reaches 1.
No tilt reaches x when mu_max <= 0.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .mde import _cache_for, _eye, _jacobian
from .model import (Profile, StructureSet, _finite, _psd_factor, _sized_psi, apply_S,
                    as_profile)


class TiltSearchError(RuntimeError):
    """No tilt places the outlier at the requested target (numerical failure)."""


@dataclass
class OutlierSolve:
    theta: float
    psi: Profile
    Z: float
    residual: float


def _kron(a, b):
    """np.kron(a, b) of two L x L matrices, bit for bit, as one broadcast
    product: entry ((i, k), (j, l)) is a[i, j] b[k, l]."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def outlier_det(structure: StructureSet, theta, psi, z) -> float:
    """det(Id + 2 theta S_big (M(z) x Psi)) for real z >= r_inf; psi must be
    an L x L profile (`model.Profile`), real at beta = 1."""
    if not theta >= 0:
        raise ValueError("theta must be non-negative")
    psi, z = as_profile(_sized_psi(structure, psi)).psi, _finite(z, "z")
    m_mat = _cache_for(structure).m_matrix(z)
    big = structure.s_op.big
    val = np.linalg.det(np.eye(big.shape[0]) + 2.0 * theta * big @ _kron(m_mat, psi))
    return float(np.real(val))


def _probe(structure, m, f):
    """(C* S_big C, S_big C) with C = chol(-M) x F, so C C* = Q = -M x F F*
    (LinAlgError where -M is not positive definite). F F* = 2 theta Psi is
    factored once per search. A noiseless structure takes the same path:
    S_big = 0 gives lambda_sym = 0, so det = 1 and Z = r_inf."""
    c = _kron(np.linalg.cholesky(-m), f)
    bc = structure.s_op.big @ c
    return c.conj().T @ bc, bc


def _sym(structure, theta, z, psi):
    """_probe at M(z) once theta >= 0 is checked, psi taken as a Profile and
    2 theta Psi factored."""
    if not theta >= 0:
        raise ValueError("theta must be non-negative")
    psi, z = as_profile(_sized_psi(structure, psi)).psi, _finite(z, "z")
    return _probe(structure, _cache_for(structure).m_matrix(z), _psd_factor(2.0 * theta * psi))


def lambda_sym(structure: StructureSet, theta, z, psi) -> float:
    """Largest eigenvalue of sqrt(-M x 2 theta Psi) S_big sqrt(same).

    Its nonzero eigenvalues are those of -2 theta S_big (M x Psi), so it
    reaches 1 at the outlier determinant's largest root (module docstring),
    but through a Hermitian eigenproblem (that of C* S_big C, `_sym`).
    psi must be an L x L profile (`model.Profile`: Hermitian, trace one,
    positive semidefinite), real at beta = 1; lambda -> 0 linearly as
    theta -> 0.
    """
    return _lambda(_sym(structure, theta, z, psi))


def _lambda(sym):
    return float(np.linalg.eigvalsh(sym[0]).max())


def _top(structure, m, h, f):
    """(lambda_sym, X) at M for h = 2 theta Psi = F F*: d lambda_sym =
    -tr(dM X) / lambda_sym with X = W h^T W*, w = S_big C y for the top unit
    eigenvector y of C* S_big C, read as the L x L matrix W (module
    docstring)."""
    sym, bc = _probe(structure, m, f)
    vals, vecs = np.linalg.eigh(sym)
    w = (bc @ vecs[:, -1]).reshape(structure.L, structure.L)
    return float(vals[-1]), w @ h.T @ w.conj().T


def _newton_step(structure, z, m, h, f):
    """(lambda_sym, dz, dM) at (M, z): one Newton step on the extended
    system {Id + B M = 0, 1/lambda_sym(M) = 1}, B = z Id - A_0 + S[M], in
    the L^2 + 1 unknowns (M, z). Its matrix is the MDE's Newton Jacobian
    (`mde._jacobian`) bordered by vec M (the z column) and by the row of
    d(1/lambda) = tr(dM X) / lambda^3 (`_top`). dz is taken real and dM
    Hermitian. Where lambda_sym <= 0 or the bordered system is singular there
    is no step: dz = -inf, dM = None. LinAlgError where -M is not positive
    definite."""
    L, n = structure.L, structure.L ** 2
    lam, x = _top(structure, m, h, f)
    if lam <= 0.0:
        return lam, -np.inf, None
    b = z * _eye(L) - structure.a0 + apply_S(structure, m)
    jac = np.zeros((n + 1, n + 1), dtype=np.result_type(m, x, b))
    jac[:n, :n] = _jacobian(structure, b, m)
    jac[:n, n] = m.reshape(-1)
    jac[n, :n] = x.T.reshape(-1) / lam ** 3
    rhs = np.empty(n + 1, dtype=jac.dtype)
    rhs[:n], rhs[n] = -(_eye(L) + b @ m).reshape(-1), 1.0 - 1.0 / lam
    try:
        delta = np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError:
        return lam, -np.inf, None
    dm = delta[:-1].reshape(L, L)
    return lam, float(delta[-1].real), 0.5 * (dm + dm.conj().T)


# bordered iterates one search may keep; past them every step is anchored
# (the searches of the tests keep at most 7)
_MAX_KEPT = 16


def _within_cap(m, dm):
    """The step cap: -(M + dM) lies within a factor 4 of -M in the Loewner
    order, so it is negative definite and M's linearization is not trusted
    past where M changes by more than that (GOE at theta = 2.6 from the
    memoized z = 3: the line M + M' dz to the root meets -M ~ 0 there)."""
    # -(M + dM) = -M (Id - T), T = (-M)^{-1} dM, whose eigenvalues are real:
    # those of the Hermitian R^{-1} dM R^{-*} for -M = R R*
    t = np.linalg.eigvals(np.linalg.solve(-m, dm)).real
    return -3.0 < t.min() and t.max() < 0.75


def largest_outlier(structure: StructureSet, theta, psi) -> OutlierSolve:
    """Largest z > r_inf solving the outlier equation, or Z = r_inf if none.

    Newton on the extended system (M, z) (`_newton_step`, module docstring)
    from the largest memoized real-axis point with lambda_sym >= 1 and its
    exact M: lambda is non-increasing in z, so those points are a prefix of
    the memo's sorted keys, found by bisection on memo hits (the fold
    walk's points and earlier searches' roots and anchors). Without one,
    from z_0 = r_inf + 1e-9 (1 + |r_inf|), where one evaluation decides
    whether a root exists (lambda < 1: none). An iterate (z + dz, M + dM)
    is kept where admissible: z + dz > r_inf, -(M + dM) within a factor 4
    of -M (`_within_cap`), at most _MAX_KEPT of them per search, and a
    step at it (lambda > 0, a nonsingular bordered system). Otherwise the
    loop re-anchors on the memo's exact M(z) at the current z and steps
    again; from an exact M the step is the proven Newton step on
    1/lambda_sym, which an exact anchor takes whole (solving M there) from
    left of the root and at most halfway to the edge from right of it.
    Once |dz| <= 1e-14 (1 + |z|), M at
    z + dz is solved exactly from M + dM through the memo, and Z is that
    point if the step recomputed there still rounds away; residual is
    |lambda_sym - 1| at Z. Psi is checked (as a Profile), the cache fetched
    and 2 theta Psi = F F* factored once per search.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    prof = as_profile(_sized_psi(structure, psi))  # a Profile is PSD to -1e-12
    h = 2.0 * theta * prof.psi
    f, cache = _psd_factor(h), _cache_for(structure)
    r = cache.r_inf
    keys = cache._keys_above(r)
    # lambda >= 1 on a prefix of the keys: its length, by bisection
    lo = bisect.bisect_left(
        keys, True, key=lambda t: _lambda(_probe(structure, cache.m_matrix(t), f)) < 1.0)
    z = keys[lo - 1] if lo else r + 1e-9 * (1.0 + abs(r))
    m, exact, kept = cache.m_matrix(z), True, 0
    lam, dz, dm = _newton_step(structure, z, m, h, f)
    # at a memoized start lambda < 1 only by rounding (its probe read >= 1),
    # and its step rounds away: it is the root
    if lam < 1.0 and not lo:
        return OutlierSolve(theta=float(theta), psi=prof, Z=float(r), residual=0.0)
    while True:  # a dz of -inf (no step) is never kept: it re-anchors, or halves z - r_inf
        if abs(dz) <= 1e-14 * (1.0 + abs(z)):
            if exact:
                break
            z, exact = z + dz, True
            m = cache.m_matrix(z, m0=m + dm)
        elif kept < _MAX_KEPT and z + dz > r and _within_cap(m, dm):
            z, m, exact, kept = z + dz, m + dm, False, kept + 1
        elif exact:  # the proven step, at most halfway to the edge
            z = max(z + dz, 0.5 * (z + r))
            m = cache.m_matrix(z)
        else:  # re-anchor
            m, exact = cache.m_matrix(z), True
        lam, dz, dm = _newton_step(structure, z, m, h, f)
    return OutlierSolve(theta=float(theta), psi=prof, Z=float(z), residual=abs(lam - 1.0))


def tilt_for_target(structure: StructureSet, x, psi) -> float:
    """Smallest theta whose tilt places the outlier at x, using phi_hat.

    Solves lambda_sym(theta, x, phi_hat(theta, x, Psi)) = 1 in closed form,
    theta = (1/mu - m(x))/2 on the memoized M(x) (module docstring), and
    raises TiltSearchError when mu <= 0. The same theta is in the tilt and
    in phi_hat, so the result is a sampler tilt for `tilted_outlier_check`
    with the profile phi_hat(theta). At L = 1 that is the rate's sampler
    tilt L theta* (`rate.RateResult`); at L >= 2 it is not: the rate's tilt
    solves L lambda_sym(theta*, x, phi_hat(theta*)) = 1, a different theta
    with a different profile. x >= r_inf (the fold's exact M at r_inf).
    """
    x = _finite(x, "x")
    cache = _cache_for(structure)
    psi = as_profile(_sized_psi(structure, psi)).psi
    if np.linalg.eigvalsh(psi).min() <= 0:
        raise ValueError("psi must be positive definite")
    neg_m, big = -cache.m_matrix(x), structure.s_op.big
    h = np.linalg.solve(np.eye(big.shape[0]) - big @ _kron(neg_m, neg_m / structure.L), big)
    c = _kron(np.linalg.cholesky(neg_m), _psd_factor(psi))
    mu = float(np.linalg.eigvalsh(c.conj().T @ h @ c).max())
    if mu <= 0.0:
        raise TiltSearchError(f"no tilt reaches Z={x}: lambda_sym(theta, x, phi_hat) "
                              f"stays below 1 (mu_max={mu:.6g})")
    return (1.0 / mu + float(np.trace(neg_m).real) / structure.L) / 2.0
