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
constraint and no projection: it screens every start only into the Newton
basin of an optimum, polishes every screened start on the MDE's second real
solution at x (below), its one landing, keeps the least, and passes the
first-order test on trace-one PSD profiles (`rate_function`).

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

    g(t) = a t - b t^2 / 2 - (1/2) sum_i ln(1 + t mu_i),
    a = L (x - Tr[H Psi]),  b = 2 L^2 Tr[Psi S(Psi)],

with H = 2 L S(P) + A_0 fixed by x: S is self-adjoint under the trace, so
2 L Tr[P S(Psi)] + Tr[A_0 Psi] = Tr[H Psi].

g has no constant term: F(theta_x) = 0 is an identity. With M = M(x),
theta_x = -Tr M/(2L) and the log potential in its Dyson free energy form
U(x) = -1 - (1/L) [ln det(-M) + Tr((x - A_0) M) + (1/2) Tr(M S[M])],
the constant L J(x, theta_x) - K(theta_x, P/theta_x) cancels term by term:
x Tr M, ln det(-M), Tr[A_0 M], Tr[M S(M)], L ln 2 and L ln L each appear once
with each sign, for every negative definite M. So no rate point evaluates
U(x). Since mu_i >= 0,
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
G = beta (-t L H - 2 L^2 t^2 S(Psi) - (t/2) (P + t Psi)^{-1}),
a Hermitian matrix (G = 0 where the sup is F(theta_x) = 0). In the factor
of Psi = C C*/Tr(C C*) it is 2 (G - Tr[G Psi] Id) C / Tr(C C*). That
factor gradient vanishes wherever G C = Tr[G Psi] C, so a rank-deficient
Psi can be a stationary point that is no minimum: the first-order test on
trace-one PSD profiles is lambda_min(G) >= Re Tr[G Psi], and where it fails,
F falls from Psi toward G's bottom eigenvector w (the direction w w*).

The optimum is the MDE's second real solution at x. With t = theta - theta_x
and M~ = -2 L (P + t Psi) = M(x) - 2 L t Psi, S(M~) = -2 L (S(P) + t S(Psi))
and (P + t Psi)^{-1} = -2 L M~^{-1}, so G = beta t L (M~^{-1} + S[M~] - A_0).
At a full-rank optimum G = lambda Id (the trace multiplier): M~ solves the
MDE -M~^{-1} = zeta - A_0 + S[M~] with zeta = -lambda / (L t), and pairing
G with Psi and g'(t) = 0 gives lambda = -L t x, so zeta = x. M~ is not the
physical root M(x), and theta* = -Tr M~/(2 L), Psi* = D / Tr D with
D = M(x) - M~ positive semidefinite. Rank-deficient optima (a direct sum's
rank-one Psi*) were measured to solve it too. Every optimum is such a
candidate, so the search need not rank its starts before it polishes: one
stacked Newton on the MDE at x takes every screened start to the M~ of
its basin, a start's M~ counts only where it is a candidate with a value
no higher than that start's screened one, and the least of them is the
result. The screen then only has to reach a basin, not to rank, and the
starts that reach different optima (two certified ones compete on some
complex L = 3 and 4 structures) are all compared at full precision. No
start is random: the starts are the identity and eigenprojectors of A_0,
S(Id) and M(x) (`_seed_factors`), since an optimum is an MDE solution at x
(Alt-Erdos-Kruger, Doc. Math. 2020) whose tilt puts the outlier at x
(Guionnet-Husson, Ann. Probab. 2020). At a
candidate the first-order test holds identically: G = -beta t L x Id, so
lambda_min(G) = Re Tr[G Psi], and the test's gap measures only rounding.
Where M~ lies on a continuum of solutions (noise proportional to Id and a
repeated eigenvalue of A_0) its Newton Jacobian can be exactly singular;
such a start fails only itself in the stacked Newton (`_newton_polish`).

A note on K: the constant term is (ln det Psi + L ln L) / 2. With the other
sign the identity K(theta, phi_hat) = L J(x, theta) on 2 theta <= -m(x)
fails by exactly L ln L for every L >= 2, which would make F's plateau at 0
(the anchor of the whole variational formula) impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mde import ConvergenceError, _cache_for, _eye, _newton_polish
from .model import Profile, StructureSet, _finite, _sized_psi, apply_S, as_profile


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
    the profile passes the first-order test (`stability_flag`, the one
    certificate; `rate_function`). value is I_beta(x) at the
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
    """Not a knob: the profile search has none, and nothing here reads
    max_rungs. The class stays only because the benchmark harness reads
    OptConfig().max_rungs; it goes with ROADMAP.md's item 1, the benchmark
    change that stops that read."""
    max_rungs: int = 12


# the stopping tests of the L-BFGS screen (`_lbfgs`): ftol on a step's
# relative decrease, gtol on max |gradient|, at most maxiter steps. It
# brings every profile search start only into its candidate's Newton basin:
# the MDE polish of every start lands on the optimum from there. One decade
# tighter than ftol 1e-1, gtol 1, which misses the optimum of rs746 (L = 3,
# r_inf + 0.1) in tests/test_rate.py
_SCREEN_OPTIONS = {"ftol": 1e-2, "gtol": 1e-1, "maxiter": 500}
_MEMORY = 10  # (s, y) pairs the L-BFGS screen keeps
_GAP_TOL = 1e-5  # first-order gap below -_GAP_TOL fails the first-order test


def _re_trace(a, b):
    """Re Tr[a b] for a Hermitian a (the precondition): vdot sums
    conj(a_ij) b_ij = Tr[a* b], which is Tr[a b] where a* = a."""
    return float(np.vdot(a, b).real)


# ---------------------------------------------------------------------------
# pointwise quantities

def j_value(structure: StructureSet, x, theta) -> float:
    """Two-branch tilted log-potential functional J(x, theta), theta > 0,
    x >= r_inf (the fold's exact M at r_inf)."""
    if not theta > 0:
        raise ValueError("theta must be positive (callers use F(0) = 0 instead)")
    x = _finite(x, "x")
    cache = _cache_for(structure)
    m_x = float(np.trace(cache.m_matrix(x)).real) / structure.L
    head = -0.5 * (1.0 + np.log(2.0 * theta))
    if 2.0 * theta <= -m_x:
        t = cache.inverse_neg_m(2.0 * theta)
        return float(theta * t + head - 0.5 * cache.log_potential(t))
    return float(theta * x + head - 0.5 * cache.log_potential(x))


def k_value(structure: StructureSet, theta, psi) -> float:
    """Tilted cumulant functional K(theta, psi); -inf for singular psi.
    psi must be an L x L profile (`model.Profile`), real at beta = 1."""
    if not theta >= 0:
        raise ValueError("theta must be non-negative")
    psi = as_profile(_sized_psi(structure, psi)).psi
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
    if not theta > 0:
        raise ValueError("theta must be positive")
    x = _finite(x, "x")
    cache = _cache_for(structure)
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
    """F(theta, x, psi) = beta (L J - K at phi_hat), beta = structure.beta,
    as `rate_breakdown` assembles it; F(0) := 0 by continuity."""
    if not theta >= 0:
        raise ValueError("theta must be non-negative")
    if theta == 0:
        return 0.0
    return rate_breakdown(structure, theta, x, psi).F


def rate_breakdown(structure: StructureSet, theta, x, psi) -> RateBreakdown:
    """All intermediate quantities behind one F evaluation."""
    if not theta > 0:
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
    """Profile-independent pieces of theta -> F(theta, x, .) for one x.
    dx and h are x and H less lambda_max(A_0) (times Id for H)."""
    x: float
    theta_x: float
    p: np.ndarray
    dx: float
    h: np.ndarray
    r_inv: np.ndarray


def _curve_base(structure, x) -> _CurveBase:
    """P = -M(x)/(2L), x - lambda_max(A_0), H - lambda_max(A_0) Id with
    H = 2 L S(P) + A_0, and the inverse of the Cholesky factor R of P.
    Since Tr Psi = 1, a = L (x - Re Tr[H Psi]) is the difference of the two
    shifted terms, which next to a narrow band at lambda_max(A_0) far from 0
    are small, so a keeps its relative precision where x and Tr[H Psi]
    would cancel. The shift adds a multiple of Id to the envelope gradient
    G, which both the projected gradient and the first-order gap remove."""
    L = structure.L
    x = float(x)
    m_mat = _cache_for(structure).m_matrix(x)
    p = -m_mat / (2.0 * L)
    top = float(np.linalg.eigvalsh(structure.a0)[-1])
    return _CurveBase(x=x, theta_x=-float(np.trace(m_mat).real) / (2.0 * L), p=p, dx=x - top,
                      h=2.0 * L * apply_S(structure, p) + (structure.a0 - top * _eye(L)),
                      r_inv=np.linalg.inv(np.linalg.cholesky(p)))


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
    a = L * (base.dx - _re_trace(base.h, psi))
    b = 2.0 * L * L * _re_trace(psi, s_psi)
    if a > 0.0 and not b > 0.0:
        return np.inf, np.inf
    # L is small: scalar loops beat numpy's per-call overhead here
    mu = np.linalg.eigvalsh(base.r_inv @ psi @ base.r_inv.conj().T).clip(0.0).tolist()

    def slope(t):
        """g'(t) and g''(t)."""
        q = [m / (1.0 + t * m) for m in mu]
        return a - b * t - 0.5 * sum(q), 0.5 * sum([v * v for v in q]) - b

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

    f = structure.beta * (top * (a - 0.5 * b * top)
                          - 0.5 * sum([math.log1p(top * m) for m in mu]))
    if f <= 0.0 or not math.isfinite(f):
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
    x = _finite(x, "x")
    psi = as_profile(_sized_psi(structure, psi)).psi
    base = _curve_base(structure, x)
    return _sup_curve(structure, psi, apply_S(structure, psi), base)


# ---------------------------------------------------------------------------
# inf over profiles

def _seed_factors(structure, base):
    """Start factors C for the search: the identity, the top eigenprojector
    of A_0 and the eigenprojectors of S(Id) and of M(x) (base.p's), each
    distinct profile C C*/Tr once. On a direct sum the three families
    coincide within rounding, so L + 1 starts remain."""
    L = structure.L
    w, v = np.linalg.eigh(structure.a0)
    top = v[:, -1] if abs(w[-1]) > 1e-12 else np.eye(L)[:, 0]
    vectors = [top, *np.linalg.eigh(apply_S(structure, np.eye(L) / L))[1].T,
               *np.linalg.eigh(base.p)[1].T]
    distinct, profiles = [], []
    for c in [np.eye(L)] + [np.outer(u, u.conj()) for u in vectors]:
        p = c @ c.conj().T
        p = p / np.trace(p).real
        if all(np.abs(p - q).max() > 1e-12 for q in profiles):
            distinct.append(c)
            profiles.append(p)
    return distinct


def _pack(c, complex_params):
    """Real parameter vector of C (real and imaginary parts interleaved)."""
    return np.ascontiguousarray(c, complex if complex_params else float).view(float).ravel()


def _unpack(v, L, complex_params):
    return (v.view(complex) if complex_params else v).reshape(L, L)


def _envelope_gradient(structure, base, psi, s_psi, theta):
    """G, the Hermitian gradient in Psi of sup_theta F at its maximizer theta,
    with s_psi = S(psi) (module docstring), plus beta t L lambda_max(A_0) Id
    from base.h's shift: on trace-one profiles the gradient is defined up to
    a multiple of Id, and its every use here removes that multiple."""
    L, t = structure.L, theta - base.theta_x
    g = -t * L * base.h - 2.0 * L * L * t * t * s_psi - 0.5 * t * np.linalg.inv(base.p + t * psi)
    return 0.5 * structure.beta * (g + g.conj().T)  # Hermitian up to rounding


def _first_order_gap(structure, base, psi, s_psi, theta, value):
    """(lambda_min(G) - Re Tr[G Psi]) / max(1, value). The gap is <= 0, and
    0 at a first-order optimum over the trace-one PSD profiles; a negative
    one is the slope of F from Psi toward w w*, w G's bottom eigenvector,
    over max(1, value), so a rank-deficient saddle of the C C*
    parametrization fails it."""
    g = _envelope_gradient(structure, base, psi, s_psi, theta)
    return (np.linalg.eigvalsh(g)[0] - _re_trace(g, psi)) / max(1.0, value)


def _profile_objective(v, structure, base):
    """sup_theta F at the profile C C*/Tr(C C*), C = _unpack(v), its
    gradient in v (module docstring) and the point (psi, S(psi), theta,
    value) there; 1e6, a zero gradient and no point (None) where S
    annihilates the profile and the sup is +inf."""
    L, complex_params = structure.L, not structure.is_real
    c = _unpack(v, L, complex_params)
    tr = float(np.vdot(c, c).real)
    if not np.isfinite(tr) or tr <= 1e-300:
        return 1e6, np.zeros_like(v), None
    psi = c @ c.conj().T / tr
    s_psi = apply_S(structure, psi)
    try:
        th, f = _sup_curve(structure, psi, s_psi, base)
        if f == np.inf:
            return 1e6, np.zeros_like(v), None
        grad = _envelope_gradient(structure, base, psi, s_psi, th)
    except (ValueError, np.linalg.LinAlgError):
        return 1e6, np.zeros_like(v), None
    grad -= _re_trace(grad, psi) * _eye(L)
    return f, _pack(grad @ c * (2.0 / tr), complex_params), (psi, s_psi, th, f)


def _lbfgs(structure, base, v):
    """One L-BFGS run (Liu-Nocedal; Nocedal-Wright, ch. 7) of
    _profile_objective from v to `_SCREEN_OPTIONS`, with no bounds: the
    two-loop recursion over the last _MEMORY pairs (s, y), scaled by
    s'y / y'y, and a step of length 1 along -gradient while no pair is
    kept; Armijo backtracking (c1 = 1e-4) from the full step, halving at
    most 30 times; no pair where y's <= 1e-10 y'y. The run stops where
    max |gradient| <= gtol (a start that meets it takes no step), where a
    step lowers the value by at most ftol max(|f|, |f_new|, 1), after
    maxiter steps, and where every halving fails, at its last accepted
    point. Returns that point (psi, S(psi), theta, value), None at the 1e6
    sentinel, and the number of evaluations, each counted once."""
    f, g, point = _profile_objective(v, structure, base)
    fevals, pairs = 1, []
    for _ in range(_SCREEN_OPTIONS["maxiter"]):
        if np.abs(g).max() <= _SCREEN_OPTIONS["gtol"]:
            break
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d *= (s @ y) / (y @ y)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * (y @ d)) * s
        armijo = 1e-4 * (g @ d)  # c1 times the slope along d
        step = 1.0 if pairs else 1.0 / np.linalg.norm(d)
        for _ in range(31):
            u = v + step * d
            f_new, g_new, p_new = _profile_objective(u, structure, base)
            fevals += 1
            if f_new <= f + step * armijo:
                break
            step *= 0.5
        else:
            break
        s, y = u - v, g_new - g
        if s @ y > 1e-10 * (y @ y):
            pairs = pairs[1 - _MEMORY:] + [(s, y, 1.0 / (s @ y))]
        done = f - f_new <= _SCREEN_OPTIONS["ftol"] * max(abs(f), abs(f_new), 1.0)
        v, f, g, point = u, f_new, g_new, p_new
        if done:
            break
    return point, fevals


def _mde_polish(structure, base, points):
    """Polish screened points (psi, S(psi), theta, value) on the MDE's second
    real solution at x (module docstring): one stacked Newton with no branch
    rule (_newton_polish) from M~0 = M(x) - 2 L (theta - theta_x) psi at
    each point to its M~, at a tol of 1e-12 cond(M~0) per point, since the
    defect's rounding floor grows with |M~|. An M~ is a candidate where
    D = M(x) - M~ is PSD (eigenvalues >= -1e-12 Tr D, the Profile's own
    rounding; measured >= -4e-16 Tr D) with Tr D > 0, and its profile
    psi* = D / Tr D has sup_theta F no higher than its own start's screened
    value, up to 1e-14 max(1, screened): where the screen already reached
    the optimum, the two read it a few ulps apart. Returns the candidates as
    (psi*, S(psi*), theta*, value), in the order of points."""
    L = structure.L
    m_x = -2.0 * L * base.p
    m0 = np.array([m_x - 2.0 * L * (th - base.theta_x) * psi for psi, _, th, _ in points])
    m, ok = _newton_polish(structure, np.full(len(points), base.x), m0,
                           1e-12 * np.linalg.cond(m0))
    idx = np.flatnonzero(ok)
    d = m_x - m[idx]
    w, v = np.linalg.eigh(0.5 * (d + d.conj().swapaxes(-1, -2)))
    candidates = []
    for i, wi, vi in zip(idx, w, v):
        if not (wi.sum() > 0.0 and wi[0] >= -1e-12 * wi.sum()):
            continue
        wi = wi.clip(0.0)
        psi = (vi * (wi / wi.sum())) @ vi.conj().T
        s_psi = apply_S(structure, psi)
        th, val = _sup_curve(structure, psi, s_psi, base)
        screened = points[i][3]
        if val <= screened + 1e-14 * max(1.0, screened):
            candidates.append((psi, s_psi, th, val))
    return candidates


def rate_function(structure: StructureSet, x) -> RateResult:
    """Rate I_beta(x) of the upper tail at x, beta = structure.beta: inf
    over profiles of sup over tilts. I_2 of a real structure is the rate of
    its beta = 2 twin, make_structure(A_0, A, beta=2).

    Profiles are parametrized as C C*/Tr(C C*) (PSD and trace one for free).
    One search minimizes the exact sup over theta >= theta_x, with no
    constraint on q = Tr[Psi S(Psi)] and no cap on theta (module
    docstring: this is the eps -> 0 limit). It runs an L-BFGS loop
    (`_lbfgs`) on the closed-form gradient of that sup from every start, one
    start at a time, to the screening tolerance `_SCREEN_OPTIONS`, which only
    brings the start into the Newton basin of an optimum. No start is
    random (`_seed_factors`), so the result depends on nothing but the
    structure and x. A start that already meets its gtol test,
    max |gradient| <= gtol (on a direct sum, each of the L
    eigenprojectors), takes no step. Each run hands on its last
    point with its tilt and value, so no screened start is evaluated again.
    Every screened start with a finite tilt and value is then polished, in
    one stacked Newton on the MDE at the same x,
    from M~0 = M(x) - 2 L (theta - theta_x) Psi onto the second real
    solution M~ that an optimum is (module docstring); its candidate is
    Psi = (M(x) - M~) / Tr(M(x) - M~) where that is PSD and its value is no
    higher than that start's screened one (`_mde_polish`), and the least
    candidate is the result. That polish is the search's one landing: where
    no screened start gives a candidate, ConvergenceError names x and the
    number of screened starts.

    `stability_flag` is True, and the result certified, when the returned
    profile passes the first-order test, first_order_gap =
    (lambda_min(G) - Re Tr[G Psi]) / max(1, value) >= -_GAP_TOL: a
    first-order optimum, not necessarily the global one. At a candidate the
    test holds identically, since G = -beta t L x Id there (module
    docstring), so the gap measures only rounding. `diagnostics` holds
    `fevals`, the value-and-gradient evaluations of the L-BFGS screen,
    `first_order_gap`, the returned profile's gap, and `candidates`, the
    number of screened starts that gave a candidate (0 at L = 1, where no
    search runs), and `runner_up`, the least candidate value more than
    1e-12 relative above the result (a close competitor) or None;
    `epsilon_used` is q(psi_star). No search step evaluates
    the log potential U(x) (module docstring).

    The sampler tilt that realises I_beta(x) is L theta_star with profile
    phi_hat(theta_star, x, psi_star) (`RateResult`). x >= r_inf (the
    fold's exact M at r_inf).
    """
    x = _finite(x, "x")
    if structure.noiseless:
        raise DegenerateModelError(
            "Tr[Psi S(Psi)] vanishes for every profile; the variational "
            "rate function is not defined for a noiseless model")

    if structure.L == 1:
        one = np.ones((1, 1))
        th, val = sup_theta(structure, x, one)
        return RateResult(x=x, value=val, theta_star=th, psi_star=as_profile(one),
                          epsilon_used=_re_trace(one, apply_S(structure, one)),
                          stability_flag=True,
                          diagnostics={"fevals": 1, "first_order_gap": 0.0, "candidates": 0,
                                       "runner_up": None})

    base = _curve_base(structure, x)
    runs = [_lbfgs(structure, base, _pack(c0, not structure.is_real))
            for c0 in _seed_factors(structure, base)]
    screened = [point for point, _ in runs if point is not None]
    candidates = _mde_polish(structure, base, screened)
    if not candidates:
        raise ConvergenceError(f"no candidate for the rate at x={x}: the MDE polish of "
                               f"{len(screened)} screened starts gave none")
    psi, s_psi, th, val = min(candidates, key=lambda p: p[3])
    gap = _first_order_gap(structure, base, psi, s_psi, th, val)
    rivals = [p[3] for p in candidates if p[3] > val + 1e-12 * abs(val)]
    return RateResult(x=x, value=float(val), theta_star=float(th),
                      psi_star=as_profile(psi), epsilon_used=_re_trace(psi, s_psi),
                      stability_flag=bool(gap >= -_GAP_TOL),
                      diagnostics={"fevals": sum(n for _, n in runs),
                                   "first_order_gap": float(gap),
                                   "candidates": len(candidates),
                                   "runner_up": float(min(rivals)) if rivals else None})


def rate_curve(structure: StructureSet, x_grid) -> list:
    """rate_function at each point of a grid."""
    return [rate_function(structure, x) for x in x_grid]
