"""The eps-constrained profile search, kept as a reference for the tests.

The paper's rate is the limit eps -> 0 of the inf over trace-one PSD
profiles with q = Tr[Psi S(Psi)] >= eps of the sup over theta in
[theta_x, Theta(eps)]. `kronldp.rate` takes that limit exactly (no
constraint, no cap); this module keeps the finite-eps form it replaced: a
theta cap, the projection of infeasible profiles toward Id/L, the capped
exact sup and the projected objective with its chain rule. The tests run
L-BFGS-B on it and compare the values.
"""

from __future__ import annotations

import math

import numpy as np

from kronldp import apply_S
from kronldp import rate as rate_mod
from kronldp.mde import _cache_for

_re_trace = rate_mod._re_trace


def theta_cap(structure, x, eps):
    """The cap Theta = -m(eta) + 4 (x + 1 + b0) / (L^2 eps) on theta, with
    eta = (r_inf + x)/2 and b0 = 2 L ||A_0||."""
    cache = _cache_for(structure)
    b0 = 2.0 * structure.L * np.linalg.norm(structure.a0, 2)
    return float(-cache.m_scalar(0.5 * (cache.r_inf + x))
                 + 4.0 * (x + 1.0 + b0) / (structure.L ** 2 * eps))


def feasible(structure, psi, eps, s_id):
    """(psi, S(psi), s): psi blended toward Id/L by the smallest s with
    Tr[psi S(psi)] >= eps; s_id = S(Id/L)."""
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


def capped_sup(structure, psi, s_psi, theta_hi, base):
    """Exact max of theta -> F(theta, x, psi) on [theta_x, theta_hi], by
    Newton on g' from the right end (the `kronldp.rate` docstring)."""
    L = structure.L
    a = L * (base.x - 2.0 * L * _re_trace(base.p, s_psi) - _re_trace(structure.a0, psi))
    b = 2.0 * L * L * _re_trace(psi, s_psi)
    mu = np.linalg.eigvalsh(base.r_inv @ psi @ base.r_inv.conj().T).clip(0.0).tolist()

    def slope(t):
        q = [m / (1.0 + t * m) for m in mu]
        return a - b * t - 0.5 * sum(q), 0.5 * sum(v * v for v in q) - b

    t = top = (theta_hi - base.theta_x if theta_hi > base.theta_x
               else base.theta_x * 1e-6 + 1e-9)
    d1, d2 = slope(t)
    for _ in range(100):
        if d1 >= 0.0:
            break
        step = d1 / d2 if d2 < 0.0 else np.inf
        if step >= t:
            top = 0.0
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


def objective(v, structure, base, s_id, eps, th_hi):
    """The capped sup at the profile C C*/Tr(C C*), C = _unpack(v), after
    the projection of `feasible`, and its gradient in v, the chain rule
    through the blend included."""
    L, complex_params = structure.L, not structure.is_real
    c = rate_mod._unpack(v, L, complex_params)
    tr = float(np.vdot(c, c).real)
    if not np.isfinite(tr) or tr <= 1e-300:
        return 1e6, np.zeros_like(v)
    psi = c @ c.conj().T / tr
    psi_p, s_psi, s = feasible(structure, psi, eps, s_id)
    try:
        th, f = capped_sup(structure, psi_p, s_psi, th_hi, base)
        grad = rate_mod._envelope_gradient(structure, base, psi_p, s_psi, th)
    except (ValueError, np.linalg.LinAlgError):
        return 1e6, np.zeros_like(v)
    if s > 0.0:
        # psi_p = (1-s) psi + s Id/L keeps q(psi_p) = eps, so with D = Id/L - psi
        # and S(psi_p) half the gradient of q, ds = -(1-s) <S(psi_p), dpsi>/<S(psi_p), D>
        d = np.eye(L) / L - psi
        grad = (1.0 - s) * (grad - np.vdot(d, grad).real / np.vdot(d, s_psi).real * s_psi)
    grad = grad - _re_trace(grad, psi) * np.eye(L)
    return f, rate_mod._pack(2.0 * grad @ c / tr, complex_params)


def projected_value(structure, v, base, s_id, eps, th_hi):
    """The capped sup at the projection of the factor v's profile."""
    ell, complex_params = structure.L, not structure.is_real
    c = rate_mod._unpack(v, ell, complex_params)
    psi = c @ c.conj().T
    psi, s_psi, _ = feasible(structure, psi / np.trace(psi).real, eps, s_id)
    return capped_sup(structure, psi, s_psi, th_hi, base)[1]
