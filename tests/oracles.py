"""Independent closed-form oracles used by the test suite.

Everything in this file is derived from textbook facts about the semicircle
law, Dirac measures, BBP spiked-matrix outliers and the sphere-block Wishart
density. Nothing here imports the package under test; the point is that these
values are computed by a separate route from the library code.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln

# ---------------------------------------------------------------------------
# semicircle law (radius 2, variance 1)

def semicircle_m(z):
    """Stieltjes transform m(z) = int rho(y)/(y-z) dy of the semicircle.

    Solves m^2 + z m + 1 = 0 picking the Herglotz branch (Im m > 0 for
    Im z > 0; m in (-1, 0) for real z > 2).
    """
    z = complex(z)
    s = np.sqrt((z - 2.0) * (z + 2.0) + 0j)  # factored: no cancellation next to the edge
    m = (-z + s) / 2.0
    if m.imag < 0 or (z.imag == 0 and not (-1.0 <= m.real <= 0.0)):
        m = (-z - s) / 2.0
    return m


def semicircle_density(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 2.0, np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi), 0.0)


def semicircle_log_potential(x):
    """U(x) = int ln|x-y| rho_sc(y) dy for x >= 2 (and x^2/4 - 1/2 inside)."""
    x = float(x)
    if abs(x) <= 2.0:
        return x * x / 4.0 - 0.5
    x = abs(x)
    s = np.sqrt(x * x - 4.0)
    return 0.5 + (x * x - 4.0) / 4.0 - x * s / 4.0 + np.log((x + s) / 2.0)


def scaled_semicircle_m(z, var):
    """Stieltjes transform of the semicircle with variance `var` (edge 2*sqrt(var))."""
    z = complex(z)
    edge = 2.0 * np.sqrt(var)
    s = np.sqrt((z - edge) * (z + edge) + 0j)
    m = (-z + s) / (2.0 * var)
    if m.imag < 0 or (z.imag == 0 and m.real < -1.0 / np.sqrt(var)):
        m = (-z - s) / (2.0 * var)
    return m


# ---------------------------------------------------------------------------
# GOE largest-eigenvalue rate function (L=1, k=1, A1=1, A0=0)

def goe_rate(x):
    """I(x) = (1/2) int_2^x sqrt(t^2-4) dt by direct quadrature (x >= 2).

    Substituting t = 2 + s^2 turns the integrand into the smooth
    s^2 sqrt(s^2 + 4), so quad's error estimate is trustworthy.
    """
    if x <= 2.0:
        return 0.0
    val, err = quad(lambda s: s * s * np.sqrt(s * s + 4.0), 0.0, np.sqrt(x - 2.0), limit=200)
    assert err < 1e-10
    return val


def goe_rate_closed(x):
    """Antiderivative check: x*sqrt(x^2-4)/4 - ln((x+sqrt(x^2-4))/2)."""
    if x <= 2.0:
        return 0.0
    s = np.sqrt(x * x - 4.0)
    return x * s / 4.0 - np.log((x + s) / 2.0)


def goe_theta_star(x):
    """Maximizing tilt for the GOE rate at x > 2."""
    return (x + np.sqrt(x * x - 4.0)) / 4.0


def goe_j(x, theta):
    """Two-branch J for the semicircle, all pieces in closed form."""
    m = semicircle_m(x).real
    tt = 2.0 * theta
    if tt <= -m:
        tstar = tt + 1.0 / tt  # -m_sc(t) = 2 theta  <=>  t = 2 theta + 1/(2 theta)
        return theta * tstar - 0.5 * (1.0 + np.log(tt)) - 0.5 * semicircle_log_potential(tstar)
    return theta * x - 0.5 * (1.0 + np.log(tt)) - 0.5 * semicircle_log_potential(x)


def goe_f(x, theta):
    """F(theta, x, psi=1) = J - theta^2 for the GOE structure (beta=1)."""
    if theta == 0.0:
        return 0.0
    return goe_j(x, theta) - theta ** 2


def bbp_z(theta):
    """Largest eigenvalue location under a rank-one tilt of strength 2*theta (GOE)."""
    s = 2.0 * theta
    return s + 1.0 / s if s > 1.0 else 2.0


# ---------------------------------------------------------------------------
# deterministic (k=0) measures: atoms a_1..a_L with equal weight

def atoms_m(z, atoms):
    atoms = np.asarray(atoms, dtype=complex)
    return np.mean(1.0 / (atoms - z))


def atoms_log_potential(x, atoms):
    atoms = np.asarray(atoms, dtype=float)
    return float(np.mean(np.log(np.abs(x - atoms))))


# ---------------------------------------------------------------------------
# single-noise structures: X = A_0 (x) Id + A (x) W with one GOE/GUE W

def single_noise_density(a0, a, x, nodes=4001):
    """Limiting density at the points x of X = A_0 (x) Id + A (x) W, A_0 any
    Hermitian matrix and A real symmetric (they need not commute).

    In W's eigenbasis X is the direct sum of A_0 + d A over W's eigenvalues d,
    so the law is the semicircle pushed forward by each eigenvalue branch
    lambda_l(d) of A_0 + d A, averaged over l:
    (1/L) sum_l sum_{d: lambda_l(d) = x} rho_sc(d) / |lambda_l'(d)|, with
    lambda_l'(d) = v_l* A v_l (Hellmann-Feynman). The roots in (-2, 2) are
    bracketed on `nodes` points and polished by brentq.
    """
    a0, a = np.asarray(a0), np.asarray(a)
    ell = len(a0)
    ds = np.linspace(-2.0, 2.0, nodes)
    lam = np.linalg.eigvalsh(a0[None] + ds[:, None, None] * a[None])

    def branch(d, l):
        return np.linalg.eigvalsh(a0 + d * a)[l]

    out = []
    for xi in np.atleast_1d(np.asarray(x, dtype=float)):
        total = 0.0
        for l in range(ell):
            below = lam[:, l] < xi
            for i in np.flatnonzero(below[:-1] != below[1:]):
                d = brentq(lambda t: branch(t, l) - xi, ds[i], ds[i + 1], xtol=1e-15, rtol=1e-15)
                v = np.linalg.eigh(a0 + d * a)[1][:, l]
                total += semicircle_density(d) / abs(np.real(np.conj(v) @ a @ v))
        out.append(total / ell)
    return np.array(out)


def single_noise_interval(a0, a, t):
    """(d_-, d_+) = {d : f(d) < t} for the convex f(d) = lambda_max(A_0 +
    d A), at a t above r_inf = max(f(-2), f(2)) (`single_noise_edge`), so
    d_- < -2 and d_+ > 2. lambda_1(X) < t exactly when W's spectrum lies in
    this interval. Right of 2, f (convex, f(2) < t) crosses t at most
    once, and does cross where lambda_max(A), the limit of its slope, is
    positive; the end is infinite where f stays below t up to d = 1e8, as
    it does for ever where A is negative semidefinite. The left end is the
    right end of A_0 - d A, negated. Each root is bracketed by doubling, found by
    brentq and polished by one Newton step."""
    a0, a = np.asarray(a0), np.asarray(a)

    def right_end(b):
        def gap(d):
            return np.linalg.eigvalsh(a0 + d * b)[-1] - t

        hi = 4.0
        while gap(hi) < 0.0:
            if hi > 1e8:
                return np.inf
            hi *= 2.0
        d = brentq(gap, 2.0, hi, xtol=1e-15, rtol=1e-15)
        # one Newton step, f'(d) = v* A v (Hellmann-Feynman), takes d from
        # brentq's 1e-15 relative to f's own rounding
        w, v = np.linalg.eigh(a0 + d * b)
        return d - (w[-1] - t) / np.real(np.conj(v[:, -1]) @ b @ v[:, -1])

    return -right_end(-a), right_end(a)


def single_noise_edge(a0, a):
    """r_inf = max(f(-2), f(2)), f(d) = lambda_max(A_0 + d A): the spectrum
    of A_0 + d A over W's semicircle support [-2, 2], whose top is convex
    in d."""
    a0, a = np.asarray(a0), np.asarray(a)
    return max(np.linalg.eigvalsh(a0 + d * a)[-1] for d in (-2.0, 2.0))


def single_noise_rate(a0, a, beta, x):
    """I_beta(x) = beta min(I_GOE(d_+), I_GOE(-d_-)) at x > r_inf, with
    (d_-, d_+) = `single_noise_interval`(A_0, A, x) and a side with no root
    dropped: lambda_1(X) >= x needs W's top eigenvalue at or above d_+ or its
    bottom one at or below d_-, and the contraction principle turns the LDPs
    of lambda_max(W) and lambda_min(W) (rate beta I_GOE, edge 2) into
    this."""
    ends = single_noise_interval(a0, a, x)
    return beta * min(goe_rate_closed(abs(d)) for d in ends if np.isfinite(d))


# ---------------------------------------------------------------------------
# the tilt's shift, assembled whole

def tilt_matrix(structure, u):
    """D = sum_j A_j (x) (U A_j^T U*) for the block matrix U of the unit vector u.

    The tilted sample is X + 2 theta D: tilting the Gaussian law with
    exp(beta N theta <u, X u>) shifts it by this finite-rank matrix. The
    transpose on the inner A_j comes from <u, (A (x) W) u> = Tr[W U A^T U*];
    it only matters when A_j has complex entries. A reference assembly: the
    samplers shift the blocks W_j instead. structure needs only .L and .a.
    """
    u = np.asarray(u)
    L = structure.L
    ublocks = u.reshape(L, -1)  # row a = block u_a
    d = np.zeros((u.size, u.size), dtype=np.result_type(u, structure.a))
    for aj in structure.a:
        bj = ublocks.T @ aj.T @ np.conj(ublocks)  # U A_j^T U*, U = ublocks.T (columns u_a)
        d += np.kron(aj, bj)
    return d


# ---------------------------------------------------------------------------
# profile of a uniform sphere vector, L = 2, beta = 1 (block-Wishart law)
#
# For u uniform on S^(2N-1) split into two N-blocks, the profile
# Psi = [[p, c], [c, 1-p]] has density
#     f(p, c) = det(Psi)^((N-3)/2) / Z(N)  on {p in [0,1], c^2 <= p(1-p)}
# with the normalization in closed form via Dirichlet/Beta integrals:
#     Z(N) = sqrt(pi) * Gamma(a+1) * Gamma(a+3/2) / Gamma(2a+3),  a = (N-3)/2.

def wishart_l2_log_norm(n):
    a = (n - 3.0) / 2.0
    return 0.5 * np.log(np.pi) + gammaln(a + 1.0) + gammaln(a + 1.5) - gammaln(2.0 * a + 3.0)


def wishart_l2_density(p, c, n):
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    a = (n - 3.0) / 2.0
    d = p * (1.0 - p) - c * c
    ok = d > 0.0
    return np.where(ok, np.exp(a * np.log(np.where(ok, d, 1.0)) - wishart_l2_log_norm(n)), 0.0)


def wishart_l2_bin_probs(n, p_edges, c_edges, rule=24):
    """Probability mass of each (p, c) histogram cell under the L=2 profile law.

    Gauss-Legendre product rule per cell; the density vanishes smoothly at the
    domain boundary so clipping to the support costs no accuracy at desk scale.
    """
    nodes, weights = np.polynomial.legendre.leggauss(rule)
    p_edges = np.asarray(p_edges, dtype=float)
    c_edges = np.asarray(c_edges, dtype=float)
    probs = np.zeros((len(p_edges) - 1, len(c_edges) - 1))
    for i in range(len(p_edges) - 1):
        pa, pb = p_edges[i], p_edges[i + 1]
        pm, ph = (pa + pb) / 2.0, (pb - pa) / 2.0
        pv = pm + ph * nodes
        for j in range(len(c_edges) - 1):
            ca, cb = c_edges[j], c_edges[j + 1]
            cm, chh = (ca + cb) / 2.0, (cb - ca) / 2.0
            cv = cm + chh * nodes
            vals = wishart_l2_density(pv[:, None], cv[None, :], n)
            probs[i, j] = ph * chh * np.einsum("i,j,ij->", weights, weights, vals)
    return probs


# ---------------------------------------------------------------------------
# slow independent cross-check: log-potential of any structure from its Stieltjes
# transform, U(x) = lim_T [ln T - int_x^T m(s) ds] evaluated with a finite T
# and the exact two-term tail. Used to validate log_potential implementations
# against freshly solved m values along the way (slow but independent).

def log_potential_from_m(x, m_func, mean, var_c, t_big=None):
    """U(x) = int ln|x-y| dmu(y) given a callable s -> m_mu(s) on (x, inf).

    mean and var_c are the measure's mean and central second moment; the tail
    beyond t_big uses ln(T - mean) - var_c/(2 (T-mean)^2).
    """
    if t_big is None:
        t_big = max(100.0, 100.0 * (abs(x) + 1.0))
    v1, e1 = quad(m_func, x, x + 10.0, limit=400, epsabs=1e-12)
    v2, e2 = quad(m_func, x + 10.0, t_big, limit=800, epsabs=1e-12)
    assert e1 + e2 < 5e-8
    tau = t_big - mean
    return np.log(tau) - var_c / (2.0 * tau * tau) + v1 + v2
