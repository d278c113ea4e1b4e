"""Outlier location under exponential tilts.

A rank-one tilt with profile Psi pushes an eigenvalue out of the bulk to the
largest z > r_inf where det(Id_{L^2} + 2 theta S_big (M(z) x Psi)) vanishes.
This module evaluates that determinant, its symmetrized eigenvalue form,
finds the largest root, and inverts theta -> Z(theta) to place the outlier
at a target.

Put Q = -M(z) x 2 theta Psi (positive semidefinite right of the edge) and
B = S_big (Hermitian). det(Id - B Q) = det(Id - Q^1/2 B Q^1/2) (Sylvester),
so the determinant vanishes exactly where an eigenvalue of Q^1/2 B Q^1/2
equals 1, and the largest root is where lambda_max(z) crosses 1, located by
binary search on a fixed log-spaced z grid and refined by brentq. That
crossing is unique because lambda_max^+ = max(lambda_max, 0) cannot grow as
Q shrinks in the Loewner order: if Q_1 <= Q_2, then Q_1^1/2 = K Q_2^1/2 with
||K|| <= 1 (Douglas' lemma), so Q_1^1/2 B Q_1^1/2 = K (Q_2^1/2 B Q_2^1/2)
K* has lambda_max^+ at most ||K||^2 <= 1 times that of Q_2. -M(z) is the
Stieltjes transform of a positive semidefinite matrix-valued measure, so it
shrinks as z grows, and lambda_max is non-increasing in z: lambda - 1
changes sign at most once on the grid. This holds for singular Psi too,
where the determinant's sign may flip any number of times below its
largest root.

The same monotonicity makes the inversion a search at one point: the
outlier sits at or beyond x exactly when lambda_max at z = x is at least 1.
lambda_sym is linear in theta for a fixed profile, so tilt_for_target
solves lambda_sym(theta, x, phi_hat(theta)) = 1 in theta alone, on the one
memoized M(x), with no search in z.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .mde import DomainError, _cache_for
from .model import Profile, StructureSet, as_profile, s_big
from .rate import phi_maps


class TiltSearchError(RuntimeError):
    """No tilt bracket found for the requested target (numerical failure)."""


@dataclass
class OutlierSolve:
    theta: float
    psi: Profile
    Z: float
    bracket: tuple
    residual: float


def _m_kron_psi(structure, z, psi):
    cache = _cache_for(structure)
    if z <= cache.r_inf:
        raise DomainError(f"z={z} must lie right of the edge {cache.r_inf}")
    return cache.m_matrix(float(z)), cache.r_inf


def outlier_det(structure: StructureSet, theta, psi, z) -> float:
    """det(Id + 2 theta S_big (M(z) x Psi)) for real z beyond the edge."""
    if theta < 0:
        raise ValueError("theta must be non-negative")
    psi = np.asarray(psi)
    m_mat, _ = _m_kron_psi(structure, z, psi)
    big = s_big(structure)
    if big.shape[0] == 0 or not big.any():
        return 1.0
    ident = np.eye(big.shape[0])
    val = np.linalg.det(ident + 2.0 * theta * big @ np.kron(m_mat, psi))
    return float(np.real(val))


def lambda_sym(structure: StructureSet, theta, z, psi) -> float:
    """Largest eigenvalue of sqrt(-M x 2 theta Psi) S_big sqrt(same).

    Its nonzero eigenvalues are those of -2 theta S_big (M x Psi), so it
    reaches 1 at the outlier determinant's largest root (module docstring),
    but through a Hermitian eigenproblem.
    Requires positive semidefinite psi (up to the -1e-12 a Profile allows);
    lambda -> 0 linearly as theta -> 0.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    psi = np.asarray(psi)
    if np.linalg.eigvalsh(psi).min() < -1e-12:
        raise ValueError("psi must be positive semidefinite")
    m_mat, _ = _m_kron_psi(structure, z, psi)
    big = s_big(structure)
    if big.shape[0] == 0 or not big.any():
        return 0.0
    q = np.kron(-m_mat, 2.0 * theta * psi)
    w, v = np.linalg.eigh(q)
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return float(np.linalg.eigvalsh(root @ big @ root).max())


def _realized_bracket(structure, theta, psi):
    """Upper end of the z scan: any root satisfies
    1 <= 2 theta ||S_big|| ||Psi|| / (z - r_inf), so c0 + c1 theta with
    c1 = 4 ||S_big|| (||Psi|| + 1) clears it with slack."""
    cache = _cache_for(structure)
    big = s_big(structure)
    norm_s = np.linalg.norm(big, 2) if big.size else 0.0
    norm_psi = np.linalg.norm(psi, 2)
    norm_m1 = np.linalg.norm(cache.m_matrix(cache.r_inf + 1.0), 2)
    c0 = cache.r_inf + 1.0 + norm_s * norm_m1
    c1 = 4.0 * norm_s * (norm_psi + 1.0)
    return c0 + c1 * theta


def largest_outlier(structure: StructureSet, theta, psi) -> OutlierSolve:
    """Largest z > r_inf solving the outlier equation, or Z = r_inf if none.

    lambda_sym - 1 is non-decreasing down a log-spaced z grid between
    r_inf + guard and the realized bound c0 + c1 theta (module docstring),
    so one evaluation at the bottom decides whether a root exists, a binary
    search finds the first grid point with lambda >= 1, and brentq refines
    the root between it and the point above.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    prof = as_profile(psi)
    psi_mat = prof.psi
    r = _cache_for(structure).r_inf
    z_top = _realized_bracket(structure, theta, psi_mat)

    def fun(z):
        return lambda_sym(structure, theta, z, psi_mat) - 1.0

    guard = 1e-9 * (1.0 + abs(r))
    offsets = np.geomspace(guard, max(z_top - r, 2.0 * guard), 160)[::-1]
    zs = [float(z) for z in r + offsets]
    # lambda - 1 >= 0 is monotone along zs: False at the top, True from j on;
    # j = 0 means no sign change
    j = 0
    if fun(zs[-1]) >= 0:
        j = bisect_left(zs, True, 0, len(zs) - 1, key=lambda z: fun(z) >= 0)
    if j == 0:
        return OutlierSolve(theta=float(theta), psi=prof, Z=float(r),
                            bracket=(float(r), float(z_top)), residual=0.0)
    root = brentq(fun, zs[j], zs[j - 1], xtol=1e-12, rtol=1e-15)
    return OutlierSolve(theta=float(theta), psi=prof, Z=float(root),
                        bracket=(zs[j], zs[j - 1]), residual=abs(fun(root)))


def tilt_for_target(structure: StructureSet, x, psi, theta_steps=80) -> float:
    """Smallest theta whose tilt places the outlier at x, using phi_hat.

    Z_phi(theta) := largest_outlier at the profile phi_hat(theta, x, Psi).
    Since lambda_sym is non-increasing in z (module docstring), Z_phi(theta)
    >= x exactly when g(theta) = lambda_sym(theta, x, phi_hat(theta)) - 1 >= 0,
    so the search stays at z = x: each theta costs one eigenproblem on the
    memoized M(x), not a search in z. Continuation runs theta upward from
    theta_0 = -m(x)/2 by factors of 1.15 until g >= 0, then brentq solves
    g = 0. Starting at theta_0 keeps the returned root the smallest one:
    Z_phi(theta_0) = r_inf < x always. On this range 2 theta >= -m(x), so
    phi_hat needs no inverse of -m.
    """
    cache = _cache_for(structure)
    x = float(x)
    if x <= cache.r_inf:
        raise DomainError(f"x={x} must lie right of the edge {cache.r_inf}")
    psi = as_profile(psi).psi
    if np.linalg.eigvalsh(psi).min() <= 0:
        raise ValueError("psi must be positive definite")

    def lam(theta):
        _, phi_hat = phi_maps(structure, theta, x, psi)
        return lambda_sym(structure, theta, x, phi_hat)

    theta_lo = -cache.m_scalar(x) / 2.0
    trace = []
    for _ in range(theta_steps):
        theta = theta_lo * 1.15
        trace.append((theta, lam(theta)))
        if trace[-1][1] >= 1.0:
            return float(brentq(lambda t: lam(t) - 1.0, theta_lo, theta,
                                xtol=1e-11, rtol=1e-14))
        theta_lo = theta
    lines = ", ".join(f"(theta={t:.4g}, lambda_sym={v:.6g})" for t, v in trace[-6:])
    raise TiltSearchError(
        f"no tilt below {theta_lo:.4g} reaches Z={x}: lambda_sym(theta, x, "
        f"phi_hat) stays below 1 (scan tail: {lines})")
