"""Rate function machinery: J, K, the profile maps and the inf-sup optimizer.

The objects here combine the real-axis spectral quantities (Stieltjes
transform, its inverse, the log potential) into the tilted free energy
F(theta, x, Psi) = beta (L J(x, theta) - K(theta, phi_hat)) and optimize it:
sup over theta on a compact interval, then inf over trace-one PSD profiles
Psi subject to Tr[Psi S(Psi)] >= eps, taken as eps -> 0. One search runs
at a small eps: it screens every start loosely, polishes only the best, and
certifies that the optimum does not feel eps (the constraint and the theta
cap are inactive there, and no eigenprojector of S(Id) that the constraint
excludes does better) and passes the first-order test on trace-one PSD
profiles; only an uncertified optimum costs a second search at half that eps
(`rate_function`).

beta is the structure's symmetry class, `StructureSet.beta`: 1 for GOE and
2 for GUE noise. The paper's formulas carry a prime, the transpose at
beta = 1 and the adjoint at beta = 2, on Psi, P and S(Psi). A beta = 1
structure and its profiles are real symmetric (`_sized_psi` rejects a
complex profile there), and a beta = 2 structure and its profiles are
Hermitian, so that prime is the identity on every input and the formulas
below drop it (a prime on g is a t-derivative). I_2 of a real structure is
the rate of its beta = 2 twin, make_structure(A_0, A, beta=2).

The sup over theta is exact. On theta = theta_x + t >= theta_x = -m(x)/2,
phi_hat = (P + t Psi)/theta with P = -M(x)/(2L) positive definite, so
ln det phi_hat = -L ln theta + ln det P + sum_i ln(1 + t mu_i), where
mu_i >= 0 are the eigenvalues of P^{-1} Psi (those of R^{-1} Psi R^{-*},
P = R R*). The -(L/2) ln theta of L J cancels the one of K, leaving
F(theta_x + t) = beta g(t) with

    g(t) = c + a t - b t^2 / 2 - (1/2) sum_i ln(1 + t mu_i),
    a = L (x - 2 L Tr[P S(Psi)] - Tr[A_0 Psi]),  b = 2 L^2 Tr[Psi S(Psi)],

and c = F(theta_x)/beta, which is 0 up to rounding. Since
g''' = -sum_i mu_i^3 / (1 + t mu_i)^3 <= 0, g' is concave: it is negative on
an initial stretch of [0, t_hi] (possibly empty), then non-negative up to its
largest root r, then negative again. Concavity puts every Newton iterate for
g' = 0 started right of r at or right of r (the tangent lies above g'), so
Newton from t_hi descends monotonically onto r, or shows g' < 0 on all of
[0, t_hi] by stepping past 0 or meeting g'' >= 0. The max is then g(0) or g(r)
(g(t_hi) if g'(t_hi) >= 0).

The inf over profiles follows the gradient of sup_theta F, which by the
envelope theorem is that of beta g at the maximizer t: d sup F = Re Tr[G dPsi],
G = beta (t L (-2 L S(P) - A_0) - 2 L^2 t^2 S(Psi) - (t/2) (P + t Psi)^{-1}),
a Hermitian matrix (G = 0 where the sup is F(theta_x) = 0), plus the chain
rule through the blend toward Id/L that meets the constraint. In the factor
of Psi = C C*/Tr(C C*) it is 2 (G - Tr[G Psi] Id) C / Tr(C C*). That
factor gradient vanishes wherever G C = Tr[G Psi] C, so a rank-deficient
Psi can be a stationary point that is no minimum: the first-order test on
trace-one PSD profiles is lambda_min(G) >= Re Tr[G Psi], and where it fails,
F falls from Psi toward G's bottom eigenvector w (the direction w w*).

A note on K: the constant term is (ln det Psi + L ln L) / 2. With the other
sign the identity K(theta, phi_hat) = L J(x, theta) on 2 theta <= -m(x)
fails by exactly L ln L for every L >= 2, which would make F's plateau at 0
(the anchor of the whole variational formula) impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .mde import _cache_for
from .model import Profile, StructureSet, _psd_factor, _sized_psi, apply_S, as_profile, stream


class DegenerateModelError(ValueError):
    """The structure is noiseless (`StructureSet.noiseless`, S = 0): S
    annihilates every profile, and no tilt changes the law."""


@dataclass
class RateBreakdown:
    theta: float
    x: float
    psi: Profile
    J: float
    K: float
    varphi: np.ndarray
    phi_hat: np.ndarray
    F: float


@dataclass
class RateResult:
    """One rate point: the value, the optimal tilt and profile, the eps of
    the last search, and whether the value is trusted not to depend on eps:
    certified at the first search, or, after the second, equal to the first
    to `_STAB_TOL` with no excluded eigenprojector of S(Id) doing better
    (`rate_function`). value is I_beta(x) at the structure's own beta.

    The tilted law that realises the value is the sampler tilt L theta_star
    with profile phi_hat(theta_star, x, psi_star) (`phi_maps`): with it
    `tilted_outlier_check` places the outlier at x, since L lambda_sym(
    theta_star, x, phi_hat) = 1 at the optimum. theta_star itself is the
    rate's tilt, a factor L below the sampler's."""
    x: float
    value: float
    theta_star: float
    psi_star: Profile
    epsilon_used: float
    stability_flag: bool
    diagnostics: dict = field(default_factory=dict)


@dataclass
class OptConfig:
    """Knobs for the profile optimizer; defaults match the CLI. The search
    runs at eps = q0 2^-(max_rungs - 2), and an uncertified one is repeated
    at q0 2^-(max_rungs - 1); seed draws the random starts."""
    max_rungs: int = 12
    seed: int = 0


_SCREEN_OPTIONS = {"ftol": 1e-8, "gtol": 1e-5, "maxiter": 500}  # every profile search start
_LBFGS_OPTIONS = {"ftol": 1e-15, "gtol": 1e-10, "maxiter": 500}  # the best screened start
_STARTS = 8  # starts per search, random ones filling up to this count
_STAB_TOL = 1e-4  # relative agreement of the two searches for a stable value
_GAP_TOL = 1e-5  # first-order gap below -_GAP_TOL fails the first-order test
_ESCAPE_ROUNDS = 5  # polishes from a descent direction off a failed test, per search


def _re_trace(a, b):
    """Re Tr[a b]."""
    return float(np.trace(a @ b).real)


# ---------------------------------------------------------------------------
# pointwise quantities

def j_value(structure: StructureSet, x, theta) -> float:
    """Two-branch tilted log-potential functional J(x, theta), theta > 0,
    x >= r_inf (the fold's exact M at r_inf)."""
    if theta <= 0:
        raise ValueError("theta must be positive (callers use F(0) = 0 instead)")
    cache = _cache_for(structure)
    x = float(x)
    m_x = float(np.trace(cache.m_matrix(x)).real) / structure.L
    head = -0.5 * (1.0 + np.log(2.0 * theta))
    if 2.0 * theta <= -m_x:
        t = cache.inverse_neg_m(2.0 * theta)
        return float(theta * t + head - 0.5 * cache.log_potential(t))
    return float(theta * x + head - 0.5 * cache.log_potential(x))


def k_value(structure: StructureSet, theta, psi) -> float:
    """Tilted cumulant functional K(theta, psi); -inf for singular psi."""
    if theta < 0:
        raise ValueError("theta must be non-negative")
    psi = _sized_psi(structure, psi)
    if np.max(np.abs(psi - psi.conj().T)) > 1e-8:
        raise ValueError("psi must be symmetric/Hermitian")
    if np.linalg.eigvalsh(psi).min() < -1e-10:
        raise ValueError("psi must be positive semi-definite")
    L = structure.L
    sign, logdet = np.linalg.slogdet(psi)
    if sign <= 0 or not np.isfinite(logdet):
        return -np.inf
    quad = _re_trace(psi, apply_S(structure, psi))
    lin = _re_trace(structure.a0, psi)
    return (L * L * theta * theta * quad + L * theta * lin
            + 0.5 * (logdet + L * np.log(L)))


def phi_maps(structure: StructureSet, theta, x, psi):
    """The pair (varphi, phi_hat) entering K along the optimal tilt.

    varphi = -M(max{(-m)^{-1}(2 theta), x}) / (2 theta L), with the inverse
    read as r_inf when 2 theta exceeds the range of -m (the max then resolves
    to x); phi_hat adds (1 + m(x)/(2 theta))_+ Psi and has unit trace;
    x >= r_inf (the fold's exact M at r_inf).
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    cache = _cache_for(structure)
    x = float(x)
    psi = as_profile(_sized_psi(structure, psi)).psi
    L = structure.L
    m_mat = cache.m_matrix(x)
    m_x = float(np.trace(m_mat).real) / L
    two = 2.0 * theta
    if two < -m_x:
        point_mat = cache.m_matrix(cache.inverse_neg_m(two))
    else:
        point_mat = m_mat
    varphi = -point_mat / (two * L)
    plus = max(1.0 + m_x / two, 0.0)
    phi_hat = varphi + plus * psi
    return varphi, phi_hat


def f_value(structure: StructureSet, theta, x, psi) -> float:
    """F(theta, x, psi) = beta (L J - K at phi_hat), beta = structure.beta;
    F(0) := 0 by continuity."""
    if theta < 0:
        raise ValueError("theta must be non-negative")
    if theta == 0:
        return 0.0
    _, phi_hat = phi_maps(structure, theta, x, psi)
    return structure.beta * (structure.L * j_value(structure, x, theta)
                             - k_value(structure, theta, phi_hat))


def rate_breakdown(structure: StructureSet, theta, x, psi) -> RateBreakdown:
    """All intermediate quantities behind one F evaluation."""
    if theta <= 0:
        raise ValueError("theta must be positive for a breakdown")
    prof = as_profile(_sized_psi(structure, psi))
    varphi, phi_hat = phi_maps(structure, theta, x, prof.psi)
    j = j_value(structure, x, theta)
    k = k_value(structure, theta, phi_hat)
    f = structure.beta * (structure.L * j - k)
    return RateBreakdown(theta=float(theta), x=float(x), psi=prof, J=j, K=k,
                         varphi=varphi, phi_hat=phi_hat, F=f)


def theta_cap(structure: StructureSet, m_cap, eta, eps) -> float:
    """Compact-interval endpoint -m(eta) + 4 (m_cap + b0) / (L^2 eps),
    with b0 = 2 L ||A_0|| and eta >= r_inf."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    cache = _cache_for(structure)
    b0 = 2.0 * structure.L * np.linalg.norm(structure.a0, 2)
    return float(-cache.m_scalar(float(eta))
                 + 4.0 * (float(m_cap) + b0) / (structure.L ** 2 * eps))


# ---------------------------------------------------------------------------
# sup over theta

@dataclass
class _CurveBase:
    """Profile-independent pieces of theta -> F(theta, x, .) for one x."""
    x: float
    theta_x: float
    p: np.ndarray
    s_p: np.ndarray
    r_inv: np.ndarray
    c: float


def _curve_base(structure, x) -> _CurveBase:
    """P = -M(x)/(2L), S(P), the inverse of the Cholesky factor R of P,
    and c = F(theta_x, x, .)/beta, which no profile changes."""
    cache = _cache_for(structure)
    L = structure.L
    x = float(x)
    m_mat = cache.m_matrix(x)
    theta_x = -float(np.trace(m_mat).real) / (2.0 * L)
    p = -m_mat / (2.0 * L)
    chol = np.linalg.cholesky(p)
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(chol).real)))
    s_p = apply_S(structure, p)
    tpp = _re_trace(p, s_p)
    lap = _re_trace(structure.a0, p)
    u_x = cache.log_potential(x)
    c = (L * (theta_x * x - 0.5 * (1.0 + np.log(2.0)) - 0.5 * u_x)
         - L * L * tpp - L * lap - 0.5 * (logdet_p + L * np.log(L)))
    return _CurveBase(x=x, theta_x=theta_x, p=p, s_p=s_p, r_inv=np.linalg.inv(chol), c=c)


def _sup_curve(structure, psi, s_psi, theta_hi, base):
    """Exact max of theta -> F(theta, x, psi) on [theta_x, theta_hi].

    s_psi is S(psi). With theta = theta_x + t, F = beta g(t)
    (module docstring). Newton on g' from the right end t_hi descends
    monotonically onto the largest root of g' or leaves [0, t_hi]; the max
    is the larger of g there and g(0). Returns (theta_x, 0) when that max is
    not positive.
    """
    L = structure.L
    a = L * (base.x - 2.0 * L * _re_trace(base.p, s_psi) - _re_trace(structure.a0, psi))
    b = 2.0 * L * L * _re_trace(psi, s_psi)
    # L is small: scalar loops beat numpy's per-call overhead here
    mu = np.linalg.eigvalsh(base.r_inv @ psi @ base.r_inv.conj().T).clip(0.0).tolist()

    def slope(t):
        """g'(t) and g''(t)."""
        q = [m / (1.0 + t * m) for m in mu]
        return a - b * t - 0.5 * sum(q), 0.5 * sum(v * v for v in q) - b

    t = top = (theta_hi - base.theta_x if theta_hi > base.theta_x
               else base.theta_x * 1e-6 + 1e-9)
    d1, d2 = slope(t)
    for _ in range(100):
        if d1 >= 0.0:
            break  # increasing at t_hi, or the root is reached
        step = d1 / d2 if d2 < 0.0 else np.inf
        if step >= t:
            top = 0.0  # g' < 0 on all of [0, t]
            break
        t = top = t - step
        if step <= 1e-15 * t:
            break
        d1, d2 = slope(t)

    g_top = (base.c + top * (a - 0.5 * b * top)
             - 0.5 * sum(math.log1p(top * m) for m in mu))
    if base.c >= g_top:
        top, g_top = 0.0, base.c
    f = structure.beta * g_top
    if f <= 0.0 or not np.isfinite(f):
        return base.theta_x, 0.0
    return base.theta_x + top, f


def sup_theta(structure: StructureSet, x, psi, eps=None):
    """Maximize F over [theta_x, Theta(x+1, (r_inf+x)/2, eps)].

    Exact: one L x L eigendecomposition and a Newton iteration on the
    closed-form derivative (module docstring), no grid. Returns
    (theta_star, F_star) with F_star >= 0 since F(theta_x) = 0 is always
    available. x >= r_inf; left of it the DomainError names x.
    """
    psi = as_profile(_sized_psi(structure, psi)).psi
    x = float(x)
    base = _curve_base(structure, x)
    s_psi = apply_S(structure, psi)
    if eps is None:
        eps = max(_re_trace(psi, s_psi), 1e-300)
    theta_hi = theta_cap(structure, x + 1.0, 0.5 * (_cache_for(structure).r_inf + x), eps)
    return _sup_curve(structure, psi, s_psi, theta_hi, base)


# ---------------------------------------------------------------------------
# inf over profiles

def _seed_factors(structure, cfg, rung, warm, projectors, complex_params):
    """Start factors C for one search: the identity profile, the top
    eigenprojector of A_0, the eigenprojectors of S(Id), seeded random
    perturbations up to _STARTS, and any warm factor."""
    L = structure.L
    seeds = [np.eye(L)]
    w, v = np.linalg.eigh(structure.a0)
    top = v[:, -1] if abs(w[-1]) > 1e-12 else np.eye(L)[:, 0]
    seeds.append(np.outer(top, top.conj()))
    seeds += projectors
    rng = stream(cfg.seed, 7, rung)
    while len(seeds) < _STARTS:
        c = np.eye(L) / np.sqrt(L) + 0.7 * rng.standard_normal((L, L))
        if complex_params:
            c = c + 0.7j * rng.standard_normal((L, L))
        seeds.append(c)
    if warm is not None:
        seeds.insert(0, np.array(warm))
    return seeds


def _pack(c, complex_params):
    """Real parameter vector of C (real and imaginary parts interleaved)."""
    return np.ascontiguousarray(c, complex if complex_params else float).view(float).ravel()


def _unpack(v, L, complex_params):
    return (v.view(complex) if complex_params else v).reshape(L, L)


def _feasible(structure, psi, eps, s_id):
    """(psi, S(psi), s): psi blended toward Id/L by the smallest s with
    Tr[psi S(psi)] >= eps; s_id = S(Id/L). S is applied once unless psi moves."""
    s_psi = apply_S(structure, psi)
    q = _re_trace(psi, s_psi)
    if not q < eps:
        return psi, s_psi, 0.0
    id_l, t_pi = np.eye(structure.L) / structure.L, _re_trace(psi, s_id)
    # smallest root of q(s) = (1-s)^2 q + 2 s (1-s) t_pi + s^2 q0 = eps, in
    # its cancellation-free form; q(0) < eps <= q(1) = q0 puts it in (0, 1]
    a, b, gap = q - 2.0 * t_pi + _re_trace(id_l, s_id), 2.0 * (t_pi - q), eps - q
    den = b + math.sqrt(max(b * b + 4.0 * a * gap, 0.0))
    s = 2.0 * gap / den if den > 2.0 * gap else 1.0  # 1 also where rounding leaves no root
    psi = (1.0 - s) * psi + s * id_l
    return psi, apply_S(structure, psi), s


def _envelope_gradient(structure, base, psi, s_psi, theta):
    """G, the Hermitian gradient in Psi of sup_theta F at its maximizer theta,
    with s_psi = S(psi) (module docstring)."""
    L, t = structure.L, theta - base.theta_x
    g = (t * L * (-2.0 * L * base.s_p - structure.a0) - 2.0 * L * L * t * t * s_psi
         - 0.5 * t * np.linalg.inv(base.p + t * psi))
    return 0.5 * structure.beta * (g + g.conj().T)  # Hermitian up to rounding


def _first_order_gap(structure, base, psi, s_psi, theta, value):
    """(lambda_min(G) - Re Tr[G Psi]) / max(1, value), and G's bottom
    eigenvector w. The gap is <= 0, and 0 at a first-order optimum over the
    trace-one PSD profiles; a negative one is the slope of F from Psi toward
    w w* over max(1, value), so a rank-deficient saddle of the C C*
    parametrization fails it."""
    g = _envelope_gradient(structure, base, psi, s_psi, theta)
    w, v = np.linalg.eigh(g)
    return (w[0] - _re_trace(g, psi)) / max(1.0, value), v[:, 0]


def _profile_objective(v, structure, base, s_id, eps, th_hi):
    """sup_theta F at the profile C C*/Tr(C C*), C = _unpack(v), after the
    projection of _feasible, and its gradient in v (module docstring)."""
    L, complex_params = structure.L, not structure.is_real
    c = _unpack(v, L, complex_params)
    tr = float(np.vdot(c, c).real)
    if not np.isfinite(tr) or tr <= 1e-300:
        return 1e6, np.zeros_like(v)
    psi = c @ c.conj().T / tr
    psi_p, s_psi, s = _feasible(structure, psi, eps, s_id)
    try:
        th, f = _sup_curve(structure, psi_p, s_psi, th_hi, base)
        grad = _envelope_gradient(structure, base, psi_p, s_psi, th)
    except (ValueError, np.linalg.LinAlgError):
        return 1e6, np.zeros_like(v)
    if s > 0.0:
        # psi_p = (1-s) psi + s Id/L keeps q(psi_p) = eps, so with D = Id/L - psi
        # and S(psi_p) half the gradient of q, ds = -(1-s) <S(psi_p), dpsi>/<S(psi_p), D>
        d = np.eye(L) / L - psi
        grad = (1.0 - s) * (grad - np.vdot(d, grad).real / np.vdot(d, s_psi).real * s_psi)
    grad = grad - _re_trace(grad, psi) * np.eye(L)
    return f, _pack(2.0 * grad @ c / tr, complex_params)


def rate_function(structure: StructureSet, x, opt_config=None,
                  warm_start=None) -> RateResult:
    """Rate I_beta(x) of the upper tail at x, beta = structure.beta: inf
    over profiles of sup over tilts. I_2 of a real structure is the rate of
    its beta = 2 twin, make_structure(A_0, A, beta=2).

    Profiles are parametrized as C C*/Tr(C C*) (PSD and trace one for free),
    and the constraint Tr[Psi S(Psi)] >= eps is kept by projecting
    infeasible iterates toward Id/L. A search runs L-BFGS-B on the
    closed-form gradient of the projected sup over theta (module docstring)
    from every start to the screening tolerance `_SCREEN_OPTIONS`, then
    polishes only the start with the lowest screened value to
    `_LBFGS_OPTIONS`. While the polished profile fails the first-order test,
    first_order_gap = (lambda_min(G) - Re Tr[G Psi]) / max(1, value)
    < -_GAP_TOL, it is polished again from the factor of
    0.9 Psi + 0.1 w w*, w the bottom eigenvector of G, for at most
    `_ESCAPE_ROUNDS` rounds, each kept only if it lowers the value.
    `diagnostics["fevals"]` counts the value-and-gradient evaluations of
    every phase, and `diagnostics["first_order_gap"]` holds the returned
    profile's gap.

    One search runs at eps_1 = q0 2^-(max_rungs - 2), q0 = Tr[Id/L S(Id/L)].
    Its optimum is certified when (a) the constraint is inactive there
    (nothing is blended, q > eps_1), (b) theta* lies below the theta cap,
    (c) no eigenprojector of S(Id) with q < eps_1, which the constraint
    excludes, beats the value at its own sup over theta, and (d) the
    first-order test passes. A certified value
    does not depend on eps on the searched profiles, and it is returned with
    `stability_flag` True. Otherwise one more search runs at eps_1 / 2 (the
    last rung), warm-started from the first optimum, and the flag is True
    only if the two values agree to `_STAB_TOL` and no excluded eigenprojector
    beats the last one. If one still does, that eigenprojector, with its
    theta and value, is returned instead: it is feasible at every eps below
    its own q. `diagnostics["certified"]` and, when it is False,
    `diagnostics["failed"]` (the failed conditions, and the eigenprojector
    returned) say which path ran. An optimum with q < eps_1 off the
    eigenprojectors of S(Id) stays out of reach of both searches.

    The sampler tilt that realises I_beta(x) is L theta_star with profile
    phi_hat(theta_star, x, psi_star) (`RateResult`). x >= r_inf (the
    fold's exact M at r_inf).
    """
    cfg = opt_config or OptConfig()
    if cfg.max_rungs < 2:
        raise ValueError(f"max_rungs must be at least 2, got {cfg.max_rungs}")
    if structure.noiseless:
        raise DegenerateModelError(
            "Tr[Psi S(Psi)] vanishes for every profile; the variational "
            "rate function is not defined for a noiseless model")
    x = float(x)
    L = structure.L
    id_l = np.eye(L) / L
    s_id = apply_S(structure, id_l)
    q0 = _re_trace(id_l, s_id)

    if L == 1:
        one = np.ones((1, 1))
        th, val = sup_theta(structure, x, one, eps=q0)
        return RateResult(x=x, value=val, theta_star=th, psi_star=as_profile(one),
                          epsilon_used=q0, stability_flag=True,
                          diagnostics={"ladder": [(q0, val)], "fevals": 1,
                                       "certified": True, "first_order_gap": 0.0})

    complex_params = not structure.is_real
    base = _curve_base(structure, x)
    edge_mid = 0.5 * (_cache_for(structure).r_inf + x)
    projectors = [np.outer(u, u.conj()) for u in np.linalg.eigh(s_id)[1].T]
    # (q, theta, value) of the sup over theta of every eigenprojector of S(Id)
    # at its own q; the ones with q < eps are excluded from the search, and
    # condition (c) reads them
    proj_values = []
    for p in projectors:
        s_p = apply_S(structure, p)
        q = _re_trace(p, s_p)
        th_p = theta_cap(structure, x + 1.0, edge_mid, max(q, 1e-300))
        proj_values.append((q, *_sup_curve(structure, p, s_p, th_p, base)))

    def best_excluded(eps, val):
        """Index of the excluded eigenprojector with the lowest value, if it
        beats val by more than 1e-12 relative; else None."""
        beats = [(f, j) for j, (q, _, f) in enumerate(proj_values)
                 if q < eps and f < val - 1e-12 * max(1.0, abs(val))]
        return min(beats)[1] if beats else None

    fevals = len(projectors)

    def search(rung, warm_c):
        """One multistart at eps = q0 2^-rung: every start screened, the best
        polished, then polished again off any failed first-order test. Returns
        the projected optimum, its first-order gap and the conditions (a)-(d)
        it fails."""
        eps = q0 * 2.0 ** (-rung)
        th_hi = theta_cap(structure, x + 1.0, edge_mid, eps)

        def run(v, options):
            return minimize(_profile_objective, v, args=(structure, base, s_id, eps, th_hi),
                            method="L-BFGS-B", jac=True, options=options)

        def projected(out):
            """(psi, S(psi), s, theta, value) at the projection of a run's optimum."""
            c = _unpack(out.x, L, complex_params)
            psi = c @ c.conj().T
            psi, s_psi, s = _feasible(structure, psi / np.trace(psi).real, eps, s_id)
            return (psi, s_psi, s, *_sup_curve(structure, psi, s_psi, th_hi, base))

        runs = [run(_pack(c0, complex_params), _SCREEN_OPTIONS)
                for c0 in _seed_factors(structure, cfg, rung, warm_c, projectors,
                                        complex_params)]
        runs.append(run(min(runs, key=lambda out: out.fun).x, _LBFGS_OPTIONS))
        psi, s_psi, s, th, val = projected(runs[-1])
        gap, w = _first_order_gap(structure, base, psi, s_psi, th, val)
        for _ in range(_ESCAPE_ROUNDS):
            if gap >= -_GAP_TOL:
                break
            # F falls from psi toward w w*: polish again from a step that way
            step = _psd_factor(0.9 * psi + 0.1 * np.outer(w, w.conj()))
            runs.append(run(_pack(step, complex_params), _LBFGS_OPTIONS))
            point = projected(runs[-1])
            if not point[4] < val:
                break
            psi, s_psi, s, th, val = point
            gap, w = _first_order_gap(structure, base, psi, s_psi, th, val)
        failed = []
        if s > 0.0 or not _re_trace(psi, s_psi) > eps:
            failed.append("a: constraint active")
        if not th < th_hi:
            failed.append("b: theta at cap")
        if best_excluded(eps, val) is not None:
            failed.append("c: an excluded eigenprojector of S(Id) beats the value")
        if gap < -_GAP_TOL:
            failed.append("d: first-order test fails")
        return eps, th, val, psi, gap, sum(out.nfev for out in runs), failed

    rung = cfg.max_rungs - 2
    eps, th, val, psi, gap, n, failed = search(rung, warm_start)
    fevals += n
    ladder = [(eps, val)]
    stable = not failed
    if failed:
        # the last rung, warm-started with a factor of the projected optimum:
        # it is feasible there too, so this search can only improve on val
        first = val
        eps, th, val, psi, gap, n, _ = search(rung + 1, _psd_factor(psi))
        fevals += n
        ladder.append((eps, val))
        j = best_excluded(eps, val)
        stable = bool(abs(val - first) <= _STAB_TOL * max(1.0, abs(val)) and j is None)
        if j is not None:
            # feasible at every eps below its q, so it bounds the eps -> 0 value
            th, val = proj_values[j][1:]
            psi = projectors[j]
            gap = _first_order_gap(structure, base, psi, apply_S(structure, psi), th, val)[0]
            failed.append(f"returned the excluded eigenprojector {j} of S(Id)")

    diagnostics = {"ladder": ladder, "fevals": fevals, "certified": not failed,
                   "first_order_gap": float(gap)}
    if failed:
        diagnostics["failed"] = "; ".join(failed)
    return RateResult(x=x, value=float(val), theta_star=float(th),
                      psi_star=as_profile(psi), epsilon_used=float(eps),
                      stability_flag=stable, diagnostics=diagnostics)


def rate_curve(structure: StructureSet, x_grid, opt_config=None) -> list:
    """Rate function on a grid, warm-starting each point from the previous."""
    results = []
    warm = None
    for x in x_grid:
        res = rate_function(structure, x, opt_config=opt_config, warm_start=warm)
        results.append(res)
        warm = _psd_factor(res.psi_star.psi)
    return results
