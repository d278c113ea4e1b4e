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

The crossing is found by Newton on h(z) = 1/lambda_max(z) = 1 from the
largest memoized real-axis point with lambda_max >= 1, or from just right
of the edge when there is none, with no bracket and no safeguard: any start
with lambda_max >= 1 lies at or left of the root, and h is concave
and increasing wherever lambda_max > 0. -M(z) = int dV(t) / (z - t) is
operator convex in z > r_inf, S is a positive map, so by the MDE
-M(z)^{-1} = z - A_0 + S[M(z)] is operator concave and increasing, and so
is Q(z)^+ = -M(z)^{-1} x (2 theta Psi)^+ on the range of Q, which does not
depend on z. With y = Q^1/2 x, h(z) = min over y in that range with
y* B y > 0 of y* Q(z)^+ y / y* B y: a minimum of concave increasing
functions. Its tangent lies above it, so each Newton iterate stays at or
below the root and climbs toward it. At a multiple top eigenvalue any v in
the eigenspace gives a supergradient, which keeps the argument (the double
root of the herm structure with a positive definite profile). The slope is
Hellmann-Feynman: d lambda / dz = w* (dQ/dz) w / lambda with w = B Q^1/2 v
for the top unit eigenvector v, and dQ/dz = -M'(z) x 2 theta Psi. Q^1/2
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

from .mde import _cache_for, _dm_dz
from .model import Profile, StructureSet, _psd_factor, _sized_psi, as_profile


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
    """det(Id + 2 theta S_big (M(z) x Psi)) for real z >= r_inf."""
    if theta < 0:
        raise ValueError("theta must be non-negative")
    psi = _sized_psi(structure, psi)
    m_mat = _cache_for(structure).m_matrix(z)
    if structure.noiseless:
        return 1.0
    big = structure.s_op.big
    val = np.linalg.det(np.eye(big.shape[0]) + 2.0 * theta * big @ _kron(m_mat, psi))
    return float(np.real(val))


def _probe(cache, z, f):
    """(C* S_big C, S_big C, M(z)) with C = chol(-M(z)) x F, so C C* = Q =
    -M(z) x F F*, or None for a noiseless structure (S_big = 0, so
    lambda_max = 0). F F* = 2 theta Psi is factored once per search."""
    m_mat = cache.m_matrix(z)
    if cache.structure.noiseless:
        return None
    c = _kron(np.linalg.cholesky(-m_mat), f)
    bc = cache.structure.s_op.big @ c
    return c.conj().T @ bc, bc, m_mat


def _sym(structure, theta, z, psi):
    """_probe at z once theta >= 0 and psi (PSD to -1e-12) are checked and
    2 theta Psi is factored."""
    if theta < 0:
        raise ValueError("theta must be non-negative")
    psi = _sized_psi(structure, psi)
    if np.linalg.eigvalsh(psi).min() < -1e-12:
        raise ValueError("psi must be positive semidefinite")
    return _probe(_cache_for(structure), z, _psd_factor(2.0 * theta * psi))


def lambda_sym(structure: StructureSet, theta, z, psi) -> float:
    """Largest eigenvalue of sqrt(-M x 2 theta Psi) S_big sqrt(same).

    Its nonzero eigenvalues are those of -2 theta S_big (M x Psi), so it
    reaches 1 at the outlier determinant's largest root (module docstring),
    but through a Hermitian eigenproblem (that of C* S_big C, `_sym`).
    Requires positive semidefinite psi (up to the -1e-12 a Profile allows);
    lambda -> 0 linearly as theta -> 0.
    """
    return _lambda(_sym(structure, theta, z, psi))


def _lambda(sym):
    return 0.0 if sym is None else float(np.linalg.eigvalsh(sym[0]).max())


def _lambda_slope(cache, z, h, f):
    """(lambda_sym, d lambda_sym / dz) at z for h = 2 theta Psi = F F*: w*
    (dQ/dz) w / lambda with w = S_big C y for the top unit eigenvector y of
    C* S_big C, dQ/dz = -M'(z) x h (Hellmann-Feynman on S_big Q); (A x B) w
    is A W B^T for w read as W, L x L."""
    sym = _probe(cache, z, f)
    if sym is None:
        return 0.0, 0.0
    L = cache.structure.L
    vals, vecs = np.linalg.eigh(sym[0])
    lam, w = float(vals[-1]), (sym[1] @ vecs[:, -1]).reshape(L, L)
    if lam <= 0.0:
        return lam, 0.0
    dq_w = -_dm_dz(cache.structure, z, sym[2]) @ w @ h.T
    return lam, float(np.real(np.vdot(w, dq_w))) / lam


def largest_outlier(structure: StructureSet, theta, psi) -> OutlierSolve:
    """Largest z > r_inf solving the outlier equation, or Z = r_inf if none.

    Newton on 1/lambda_sym = 1 from the largest memoized real-axis point
    with lambda_sym >= 1: lambda is non-increasing in z, so those points are
    a prefix of the memo's sorted keys, found by bisection on memo hits (the
    fold walk's points and earlier searches' iterates). Without one, from
    z_0 = r_inf + 1e-9 (1 + |r_inf|), where one evaluation decides whether a
    root exists (lambda < 1: none). Either start lies at or left of the
    root, and 1/lambda is concave and increasing (module docstring), so
    every iterate climbs toward the root without passing it; Z is the last
    iterate, reached when the step falls to rounding or lambda to 1. Psi is
    checked (as a Profile), the cache fetched and 2 theta Psi = F F*
    factored once per search; every probe and iterate builds C = chol(-M) x
    F from them.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    prof = as_profile(_sized_psi(structure, psi))  # a Profile is PSD to -1e-12
    h = 2.0 * theta * prof.psi
    f, cache = _psd_factor(h), _cache_for(structure)
    r = cache.r_inf
    keys = cache._keys_above(r)
    # lambda >= 1 on a prefix of the keys: its length, by bisection
    lo = bisect.bisect_left(keys, True, key=lambda t: _lambda(_probe(cache, t, f)) < 1.0)
    z = keys[lo - 1] if lo else r + 1e-9 * (1.0 + abs(r))
    lam, slope = _lambda_slope(cache, z, h, f)
    # at a memoized start lambda < 1 only by rounding (its probe read >= 1),
    # and the loop below returns that start: it is the root
    if lam < 1.0 and not lo:
        return OutlierSolve(theta=float(theta), psi=prof, Z=float(r), residual=0.0)
    while lam > 1.0:
        step = lam * (lam - 1.0) / -slope
        if step <= 1e-14 * (1.0 + abs(z)):
            break
        z += step
        lam, slope = _lambda_slope(cache, z, h, f)
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
    cache = _cache_for(structure)
    x = float(x)
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
