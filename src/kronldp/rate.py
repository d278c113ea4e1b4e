"""Rate function machinery: J, K, the profile maps and the inf-sup optimizer.

The objects here combine the real-axis spectral quantities (Stieltjes
transform, its inverse, the log potential) into the tilted free energy
F(theta, x, Psi) = beta (L J(x, theta) - K(theta, phi_hat)) and optimize it:
I_beta(x) is the inf over trace-one PSD profiles Psi of the sup over
theta >= theta_x of F. The paper states it as the limit eps -> 0 of the inf
over profiles with Tr[Psi S(Psi)] >= eps of a sup over theta <= Theta(eps);
that limit is taken exactly here. For fixed Psi the sup over all
theta >= theta_x is finite whenever q = Tr[Psi S(Psi)] > 0 and is found in
closed form below, and the inf over q > 0 of that sup is the eps -> 0 limit
of the constrained inf. So one search minimizes the uncapped sup, with no
constraint and no projection: it screens every start loosely, polishes only
the best, and passes the first-order test on trace-one PSD profiles
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

and c = F(theta_x)/beta, which is 0 up to rounding. Since mu_i >= 0,
g'(t) <= a - b t, which is <= 0 from t_hi = a/b on: every root of g' lies in
[0, t_hi]. If a <= 0 the max is g(0); if b = 0 < a (S annihilates Psi) the
sup is +inf. Otherwise g''' = -sum_i mu_i^3 / (1 + t mu_i)^3 <= 0 makes g'
concave: it is negative on an initial stretch of [0, t_hi] (possibly empty),
then non-negative up to its largest root r, then negative again. Concavity
puts every Newton iterate for g' = 0 started right of r at or right of r
(the tangent lies above g'), so Newton from t_hi descends monotonically onto
r, or shows g' < 0 on all of [0, t_hi] by stepping past 0 or meeting
g'' >= 0. The max is then g(0) or g(r).

The paper's cap Theta(eps) = -m(eta) + 4 (x + 1 + 2 L ||A_0||) / (L^2 eps),
eta = (r_inf + x)/2, never binds for L <= 8. With Tr[P S(Psi)] >= 0 and
Tr[A_0 Psi] >= -||A_0||, the maximizer has theta* - theta_x <= a/b <=
(x + ||A_0||) / (2 L q). Since -m decreases right of r_inf and eta < x,
-m(eta) > -m(x) = 2 theta_x, so Theta(eps) - theta_x >
4 (x + 1 + 2 L ||A_0||) / (L^2 eps). For eps <= q and
x > r_inf >= Tr[A_0]/L >= -||A_0||, the first bound lies below the second
whenever L (x + ||A_0||) < 8 (x + 1 + 2 L ||A_0||), which holds for every
L <= 8: the difference is at least 8 + (16 L - 8) ||A_0|| > 0.

The inf over profiles follows the gradient of sup_theta F, which by the
envelope theorem is that of beta g at the maximizer t: d sup F = Re Tr[G dPsi],
G = beta (t L (-2 L S(P) - A_0) - 2 L^2 t^2 S(Psi) - (t/2) (P + t Psi)^{-1}),
a Hermitian matrix (G = 0 where the sup is F(theta_x) = 0). In the factor
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
    """One rate point: the value, the optimal tilt and profile, and whether
    the profile passes the first-order test (`stability_flag`, the same as
    `diagnostics["certified"]`; `rate_function`). value is I_beta(x) at the
    structure's own beta. epsilon_used is q(psi_star) = Tr[psi_star
    S(psi_star)], the largest eps at which the optimum is feasible for the
    paper's constraint Tr[Psi S(Psi)] >= eps; at L = 1 it is q0.

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
    """Knobs for the profile optimizer; defaults match the CLI. seed draws
    the random starts. max_rungs is read by nothing here: it stays only
    because the benchmark harness reads OptConfig().max_rungs, and the
    benchmark change first on ROADMAP.md's open items deletes it."""
    max_rungs: int = 12
    seed: int = 0


_SCREEN_OPTIONS = {"ftol": 1e-8, "gtol": 1e-5, "maxiter": 500}  # every profile search start
_LBFGS_OPTIONS = {"ftol": 1e-15, "gtol": 1e-10, "maxiter": 500}  # the best screened start
_STARTS = 8  # starts per search, random ones filling up to this count
_GAP_TOL = 1e-5  # first-order gap below -_GAP_TOL fails the first-order test
_ESCAPE_ROUNDS = 5  # polishes from a descent direction off a failed test


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


def _sup_curve(structure, psi, s_psi, base):
    """Exact max of theta -> F(theta, x, psi) over theta >= theta_x.

    s_psi is S(psi). With theta = theta_x + t, F = beta g(t)
    (module docstring). Newton on g' from t_hi = a/b, right of every root of
    g', descends monotonically onto the largest root or leaves [0, t_hi];
    the max is the larger of g there and g(0). Returns (theta_x, 0) when
    that max is not positive, and (inf, inf) when S annihilates psi and
    a > 0, where F grows without bound.
    """
    L = structure.L
    a = L * (base.x - 2.0 * L * _re_trace(base.p, s_psi) - _re_trace(structure.a0, psi))
    b = 2.0 * L * L * _re_trace(psi, s_psi)
    if a > 0.0 and not b > 0.0:
        return np.inf, np.inf
    # L is small: scalar loops beat numpy's per-call overhead here
    mu = np.linalg.eigvalsh(base.r_inv @ psi @ base.r_inv.conj().T).clip(0.0).tolist()

    def slope(t):
        """g'(t) and g''(t)."""
        q = [m / (1.0 + t * m) for m in mu]
        return a - b * t - 0.5 * sum(q), 0.5 * sum(v * v for v in q) - b

    t = top = a / b if a > 0.0 else 0.0  # g' <= a - b t <= 0 right of t
    for _ in range(100 if t > 0.0 else 0):
        d1, d2 = slope(t)
        if d1 >= 0.0:
            break  # the root is reached
        step = d1 / d2 if d2 < 0.0 else np.inf
        if step >= t:
            top = 0.0  # g' < 0 on all of [0, t]
            break
        t = top = t - step
        if step <= 1e-15 * t:
            break

    g_top = (base.c + top * (a - 0.5 * b * top)
             - 0.5 * sum(math.log1p(top * m) for m in mu))
    if base.c >= g_top:
        top, g_top = 0.0, base.c
    f = structure.beta * g_top
    if f <= 0.0 or not np.isfinite(f):
        return base.theta_x, 0.0
    return base.theta_x + top, f


def sup_theta(structure: StructureSet, x, psi):
    """Maximize F over theta >= theta_x = -m(x)/2.

    Exact: one L x L eigendecomposition and a Newton iteration on the
    closed-form derivative (module docstring), no grid and no cap. Returns
    (theta_star, F_star) with F_star >= 0 since F(theta_x) = 0 is always
    available, and (inf, inf) where S annihilates psi and F grows without
    bound. x >= r_inf; left of it the DomainError names x.
    """
    psi = as_profile(_sized_psi(structure, psi)).psi
    base = _curve_base(structure, float(x))
    return _sup_curve(structure, psi, apply_S(structure, psi), base)


# ---------------------------------------------------------------------------
# inf over profiles

def _seed_factors(structure, cfg, warm, projectors, complex_params):
    """Start factors C for the search: the identity profile, the top
    eigenprojector of A_0, the eigenprojectors of S(Id), seeded random
    perturbations up to _STARTS, and any warm factor."""
    L = structure.L
    seeds = [np.eye(L)]
    w, v = np.linalg.eigh(structure.a0)
    top = v[:, -1] if abs(w[-1]) > 1e-12 else np.eye(L)[:, 0]
    seeds.append(np.outer(top, top.conj()))
    seeds += projectors
    rng = stream(cfg.seed, 7, 10)  # a fixed key: another one moves every random start
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


def _profile_objective(v, structure, base):
    """sup_theta F at the profile C C*/Tr(C C*), C = _unpack(v), and its
    gradient in v (module docstring); 1e6 where S annihilates the profile
    and the sup is +inf."""
    L, complex_params = structure.L, not structure.is_real
    c = _unpack(v, L, complex_params)
    tr = float(np.vdot(c, c).real)
    if not np.isfinite(tr) or tr <= 1e-300:
        return 1e6, np.zeros_like(v)
    psi = c @ c.conj().T / tr
    s_psi = apply_S(structure, psi)
    try:
        th, f = _sup_curve(structure, psi, s_psi, base)
        if f == np.inf:
            return 1e6, np.zeros_like(v)
        grad = _envelope_gradient(structure, base, psi, s_psi, th)
    except (ValueError, np.linalg.LinAlgError):
        return 1e6, np.zeros_like(v)
    grad = grad - _re_trace(grad, psi) * np.eye(L)
    return f, _pack(2.0 * grad @ c / tr, complex_params)


def rate_function(structure: StructureSet, x, opt_config=None,
                  warm_start=None) -> RateResult:
    """Rate I_beta(x) of the upper tail at x, beta = structure.beta: inf
    over profiles of sup over tilts. I_2 of a real structure is the rate of
    its beta = 2 twin, make_structure(A_0, A, beta=2).

    Profiles are parametrized as C C*/Tr(C C*) (PSD and trace one for free).
    One search minimizes the exact sup over theta >= theta_x, with no
    constraint on q = Tr[Psi S(Psi)] and no cap on theta (module
    docstring: this is the eps -> 0 limit). It runs L-BFGS-B on the
    closed-form gradient of that sup from every start to the screening
    tolerance `_SCREEN_OPTIONS`, then polishes only the start with the
    lowest screened value to `_LBFGS_OPTIONS`. While the polished profile
    fails the first-order test, first_order_gap = (lambda_min(G) -
    Re Tr[G Psi]) / max(1, value) < -_GAP_TOL, it is polished again from the
    factor of 0.9 Psi + 0.1 w w*, w the bottom eigenvector of G, for at most
    `_ESCAPE_ROUNDS` rounds, each kept only if it lowers the value.

    The result is certified, and `stability_flag` is True, when the returned
    profile passes the first-order test; otherwise `diagnostics["failed"]`
    names the failed condition (d). `diagnostics["fevals"]` counts the
    value-and-gradient evaluations of every phase,
    `diagnostics["first_order_gap"]` holds the returned profile's gap, and
    `epsilon_used` is q(psi_star).

    The sampler tilt that realises I_beta(x) is L theta_star with profile
    phi_hat(theta_star, x, psi_star) (`RateResult`). x >= r_inf (the
    fold's exact M at r_inf).
    """
    cfg = opt_config or OptConfig()
    if structure.noiseless:
        raise DegenerateModelError(
            "Tr[Psi S(Psi)] vanishes for every profile; the variational "
            "rate function is not defined for a noiseless model")
    x = float(x)
    L = structure.L

    if L == 1:
        one = np.ones((1, 1))
        th, val = sup_theta(structure, x, one)
        return RateResult(x=x, value=val, theta_star=th, psi_star=as_profile(one),
                          epsilon_used=_re_trace(one, apply_S(structure, one)),
                          stability_flag=True,
                          diagnostics={"fevals": 1, "certified": True,
                                       "first_order_gap": 0.0})

    complex_params = not structure.is_real
    base = _curve_base(structure, x)
    projectors = [np.outer(u, u.conj())
                  for u in np.linalg.eigh(apply_S(structure, np.eye(L) / L))[1].T]

    def run(v, options):
        return minimize(_profile_objective, v, args=(structure, base),
                        method="L-BFGS-B", jac=True, options=options)

    def optimum(out):
        """(psi, S(psi), theta, value) at a run's optimum."""
        c = _unpack(out.x, L, complex_params)
        psi = c @ c.conj().T
        psi = psi / np.trace(psi).real
        s_psi = apply_S(structure, psi)
        return (psi, s_psi, *_sup_curve(structure, psi, s_psi, base))

    runs = [run(_pack(c0, complex_params), _SCREEN_OPTIONS)
            for c0 in _seed_factors(structure, cfg, warm_start, projectors, complex_params)]
    runs.append(run(min(runs, key=lambda out: out.fun).x, _LBFGS_OPTIONS))
    psi, s_psi, th, val = optimum(runs[-1])
    gap, w = _first_order_gap(structure, base, psi, s_psi, th, val)
    for _ in range(_ESCAPE_ROUNDS):
        if gap >= -_GAP_TOL:
            break
        # F falls from psi toward w w*: polish again from a step that way
        step = _psd_factor(0.9 * psi + 0.1 * np.outer(w, w.conj()))
        runs.append(run(_pack(step, complex_params), _LBFGS_OPTIONS))
        point = optimum(runs[-1])
        if not point[3] < val:
            break
        psi, s_psi, th, val = point
        gap, w = _first_order_gap(structure, base, psi, s_psi, th, val)

    certified = bool(gap >= -_GAP_TOL)
    diagnostics = {"fevals": sum(out.nfev for out in runs), "certified": certified,
                   "first_order_gap": float(gap)}
    if not certified:
        diagnostics["failed"] = "d: first-order test fails"
    return RateResult(x=x, value=float(val), theta_star=float(th),
                      psi_star=as_profile(psi), epsilon_used=_re_trace(psi, s_psi),
                      stability_flag=certified, diagnostics=diagnostics)


def rate_curve(structure: StructureSet, x_grid, opt_config=None) -> list:
    """Rate function on a grid, warm-starting each point from the previous."""
    results = []
    warm = None
    for x in x_grid:
        res = rate_function(structure, x, opt_config=opt_config, warm_start=warm)
        results.append(res)
        warm = _psd_factor(res.psi_star.psi)
    return results
