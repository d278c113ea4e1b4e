"""Outlier location under exponential tilts.

A rank-one tilt with profile Psi pushes an eigenvalue out of the bulk to the
largest z > r_inf where det(Id_{L^2} + 2 theta S_big (M(z) x Psi)) vanishes.
This module evaluates that determinant, its symmetrized eigenvalue form
(numerically kinder when Psi is positive definite), finds the largest root,
and inverts theta -> Z(theta) to place the outlier at a target.

For positive definite Psi the largest root is the one crossing of the
monotone lambda_max(z) = 1, located by binary search on a fixed log-spaced
z grid and refined by brentq. Put Q = -M(z) x 2 theta Psi (positive definite
right of the edge) and B = S_big (Hermitian). When lambda_max(Q^1/2 B Q^1/2)
is positive it equals the sup over y with y*By > 0 of y*By / y*Q^-1 y, which
cannot decrease as Q grows in the Loewner order. -M(z) is the Stieltjes
transform of a positive semidefinite matrix-valued measure, so it shrinks as
z grows, and lambda_max is non-increasing in z: lambda - 1 changes sign at
most once on the grid. The determinant of singular Psi has no such property
(below its largest root its sign may flip any number of times), so that
path keeps the top-down linear scan.

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
    method: str
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

    Similar to -2 theta S_big (M x Psi), so it hits 1 exactly where the
    outlier determinant vanishes with a sign change, but through a Hermitian
    eigenproblem. Requires positive definite psi (the square root must not
    collapse); lambda -> 0 linearly as theta -> 0.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    psi = np.asarray(psi)
    if np.linalg.eigvalsh(psi).min() <= 0:
        raise ValueError("psi must be positive definite for the symmetrized "
                         "form; use the determinant root instead")
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


def largest_outlier(structure: StructureSet, theta, psi,
                    method=None) -> OutlierSolve:
    """Largest z > r_inf solving the outlier equation, or Z = r_inf if none.

    Both methods look at the same log-spaced z grid between r_inf + guard and
    the realized bound c0 + c1 theta and refine the sign change nearest the
    top with brentq. With positive definite psi ("lambda-root") lambda - 1 is
    non-decreasing down the grid (module docstring), so one evaluation at the
    bottom decides whether a root exists and a binary search finds the first
    grid point with lambda >= 1. "det-root" scans the grid top down, since the
    determinant's sign is not monotone below its largest root.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    prof = as_profile(psi)
    psi_mat = prof.psi
    cache = _cache_for(structure)
    r = cache.r_inf
    z_top = _realized_bracket(structure, theta, psi_mat)
    if method is None:
        pd = np.linalg.eigvalsh(psi_mat).min() > 1e-12
        method = "lambda-root" if pd else "det-root"
    if method == "lambda-root":
        def fun(z):
            return lambda_sym(structure, theta, z, psi_mat) - 1.0
    elif method == "det-root":
        def fun(z):
            return outlier_det(structure, theta, psi_mat, z)
    else:
        raise ValueError(f"unknown method {method!r}")

    guard = 1e-9 * (1.0 + abs(r))
    offsets = np.geomspace(guard, max(z_top - r, 2.0 * guard), 160)[::-1]
    zs = [float(z) for z in r + offsets]
    j = None  # first grid index past the sign change, counted from the top
    if method == "lambda-root":
        # lambda - 1 >= 0 is monotone along zs: False at the top, True from j on
        if fun(zs[-1]) >= 0:
            j = bisect_left(zs, True, 0, len(zs) - 1, key=lambda z: fun(z) >= 0)
            if j == 0:
                j = None
    else:
        # the determinant's sign may flip many times below the largest root,
        # so only a scan from the top finds that root first
        prev_f = None
        for i, z in enumerate(zs):
            f = fun(z)
            if prev_f is not None and np.sign(f) != np.sign(prev_f) and prev_f != 0:
                j = i
                break
            prev_f = f
    if j is None:
        return OutlierSolve(theta=float(theta), psi=prof, Z=float(r),
                            bracket=(float(r), float(z_top)), method=method,
                            residual=0.0)
    root = brentq(fun, zs[j], zs[j - 1], xtol=1e-12, rtol=1e-15)
    return OutlierSolve(theta=float(theta), psi=prof, Z=float(root),
                        bracket=(zs[j], zs[j - 1]), method=method,
                        residual=abs(fun(root)))


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
