"""Matrix Dyson Equation: solver, spectral density, edges and potentials.

The MDE is -M(z)^{-1} = z Id - A_0 + S[M(z)] with S[T] = sum_j A_j T A_j.
Everything downstream (rate functions, outlier equations) consumes the scalar
Stieltjes transform m(z) = Tr M(z) / L, the right support edge r_inf, the
functional inverse of -m on (r_inf, inf) and the logarithmic potential
U(x) = int ln|x-y| dmu(y).

Solver strategy: one Newton loop; starts: the predictor or the far-field
guess. Every solve at any z with Im z >= 0 is one Newton loop
(`_newton_polish`), stacked over a leading axis of spectral parameters (a
one-point solve is a stack of one); S is one fixed L^2 x L^2 matrix per
structure (`model.SuperOperator`), so it acts on the whole stack as one
matrix product, and so does the noise term of the Jacobian. On the real
axis the loop's last step is one more full step. It starts from the
Lagrange predictor (`_lagrange`) through solutions at hand near the point
(Allgower-Georg 1990), or, where none is near, from the one-step far-field
guess -(z - A_0 + S[G_0])^{-1}, G_0 = -(z - A_0)^{-1}: at Im z >= 1 and
far right of the support the fixed-point map contracts onto the Herglotz
solution (Helton-Rashidi Far-Speicher 2007). Every solution that a value
is read off then passes one branch rule (`_branch_ok`): Im M >= 0, and
where Im M vanishes (off the support) the feedback map D -> M* S[D] M of
spectral radius below 1, which another real root can fail. Above the axis
that is the Herglotz test; on it, it picks M(x + i0).

One continuation in the imaginary offset eta from far above, which
inherits the physical branch, serves every solve without a warm start
(`_rung_loop`): a stack of x walks down a ladder of eta rungs, one stacked
solve each, every point started from the predictor, the quadratic in eta
through the three rungs above at the same x. The rungs above the target
only seed that predictor (Newton alone, to 1e-8); the target's solve
takes the branch rule, which also catches a rung that drifted onto
another root. The density's ladder is 1, 0.2, ..., 1e-3; a one-point
solve, and a point that a density rung turns down (handed back, counted),
walk a second ladder, 2, 0.4, ..., whose rungs lie between the first's.
The density is Im Tr M(x + i0)/(pi L), the continuation's on every 8th
grid point (and the last). M(x + i0) is analytic in x inside the
support, so the other points are filled in on the axis alone, in two
levels (step 2, then step 1), each one stacked axis solve with the branch
rule from the predictor, the cubic in x through the 4 nearest solved
points. A point that a level turns down goes through the continuation,
and is counted.

The right edge r_inf is the fold of the real-axis equation: where the
stability operator D -> D - M S[D] M turns singular, M(x) folds back. A
walk in along the real axis gets close, each step Newton warm-started by
the last and the first from the far-field guess, so a cold cache build
runs no eta continuation at all. Newton on the extended system (the
equation, a kernel vector, its normalization) lands on it to rounding.
The left edge is the mirrored structure's right edge, solved on first use.

On the real axis everything is read off the memoized exact solve M(x), kept
per structure for x >= r_inf (at r_inf the fold's M; left of it a
DomainError before any solve, so callers check nothing). m(x) is its trace
over L. U(x) is the Dyson equation's free energy at M(x) (Alt-Erdos-Kruger
2020),

    U(x) = -1 - (1/L) [ln det(-M) + Tr((x - A_0) M) + Tr(M S[M]) / 2],

whose bracket is stationary in M at the solution: its gradient M^{-1} + x -
A_0 + S[M] is what the MDE sets to 0. So dU/dx = -m(x), the constant is
fixed by U ~ ln x at infinity, and an error dM in the solve moves U only by
O(|dM|^2). (-m)^{-1} is one bracket solve in s = sqrt(t - r_inf), which
makes the edge analytic, on the exact m. The memo starts out with the right
fold walk's solutions; a miss starts Newton from the line in s through the
two nearest memoized solutions, or from the far-field guess where none is
near. Every real-axis solve takes the loop's last step past its residual
test: near the edge the Jacobian's smallest eigenvalue is ~ 2 sqrt(x -
r_inf), so the residual alone would leave M off by up to tol over that.

A noiseless structure (`StructureSet.noiseless`, S = 0) has atoms only: its
edges are A_0's extreme eigenvalues, with no fold, and M(x) = -(x -
A_0)^{-1} is the far-field guess itself (S[G_0] = 0), so m, U and
(-m)^{-1} take the same path as above. Only (-m)^{-1}'s bracket differs,
because -m diverges at the atom r_inf.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, replace

import numpy as np

from .model import StructureSet, _finite, apply_S, structure_hash


class ConvergenceError(RuntimeError):
    """The MDE solver failed to reach the requested tolerance."""


class DomainError(ValueError):
    """Evaluation point inside (or too close to) the spectral support."""


class NoInverseError(ValueError):
    """2*theta outside the range of -m; callers must use branch-2 formulas."""


@dataclass
class MdeSolution:
    z: complex
    m: np.ndarray
    residual: float


@dataclass
class SpectralDensity:
    """Density of the limiting measure on an ascending grid.

    tol_q is the declared quadrature tolerance for the unit-mass invariant;
    it only binds when [grid[0], grid[-1]] covers the whole support.
    eta_final is 1e-3, the last rung above the axis. fallback_points counts
    the points that a rung's stacked solve (the axis' too) handed back to
    the continuation down the second ladder; refine_fallbacks the points
    that a refinement level in x turned down and the continuation solved
    again (`density`).
    """
    grid: np.ndarray
    density: np.ndarray
    eta_final: float
    tol_q: float
    matrix_components: list | None = None
    fallback_points: int = 0
    refine_fallbacks: int = 0

    @property
    def mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))


@dataclass
class SupportInfo:
    r_inf: float
    m_at_edge: float
    fold_residual: float
    fold_steps: int


# ---------------------------------------------------------------------------
# solver: stacked Newton over a leading axis of spectral parameters; a
# one-point solve is a stack of one

@functools.cache
def _eye(L):
    """The L x L identity, built once per L and read-only."""
    eye = np.eye(L)
    eye.flags.writeable = False
    return eye


def _jacobian(structure, b, x):
    """Row-major matrix of D -> B D + S[D] X: kron(B, Id) + sum_j
    kron(A_j, (A_j X)^T), at each point of a stack (a 2-D B, X is a stack of
    one). B = z Id - A_0 + S[M], X = M gives the Newton Jacobian of Id + B M
    (-M^{-1} times the stability operator D -> D - M S[D] M); B = S[V],
    X = V its derivative along V. The noise term of the whole stack is one
    (L^3 x L)(L x G L) product with the structure's k4."""
    L = structure.L
    bs, xs = b.reshape(-1, L, L), x.reshape(-1, L, L)
    g = len(bs)
    noise = (structure.s_op.k4 @ xs.transpose(1, 0, 2).reshape(L, g * L)).reshape(L, L, L, g, L)
    jac = bs[:, :, None, :, None] * _eye(L)[:, None, :] + noise.transpose(3, 0, 4, 1, 2)
    return jac.reshape(b.shape[:-2] + (L * L, L * L))


def _dm_dz(structure, z, m):
    """dM/dz at a solution M(z): differentiating Id + B M = 0 gives
    B M' + S[M'] M = -M, one solve with the Newton Jacobian, which is -M^{-1}
    times the stability operator D -> D - M S[D] M."""
    b = z * _eye(structure.L) - structure.a0 + apply_S(structure, m)
    return np.linalg.solve(_jacobian(structure, b, m), -m.reshape(-1)).reshape(m.shape)


def _spectral_norm(d):
    """Spectral norm of one matrix or of each in a stack, sqrt(lambda_max(D*
    D)): one stacked eigvalsh instead of an SVD per matrix."""
    gram = np.conj(np.swapaxes(d, -1, -2)) @ d
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def _b_batch(structure, z, m):
    """B = z Id - A_0 + S[M] at each point; S acts on the whole stack as one
    (G x L^2)(L^2 x L^2) product."""
    L = structure.L
    s_m = (m.reshape(len(m), L * L) @ structure.s_op.k.T).reshape(m.shape)
    return z[:, None, None] * _eye(L) - structure.a0 + s_m


def _residual_batch(structure, z, m):
    """Spectral norm of the defect Id + B M at each point."""
    return _spectral_norm(_eye(structure.L) + _b_batch(structure, z, m) @ m)


def _far_field_guess(structure, z):
    """-(z - A_0 + S[G_0])^{-1} with G_0 = -(z - A_0)^{-1} at each point: one
    fixed-point step from the far field, the Newton loop's one cold start.
    At large Im z the fixed-point map contracts onto the unique solution
    with Im M > 0 (Helton-Rashidi Far-Speicher 2007); from Im z >= 1 on, and
    far right of the support, Newton from here lands on it."""
    g0 = -np.linalg.inv(z[:, None, None] * _eye(structure.L) - structure.a0)
    return -np.linalg.inv(_b_batch(structure, z, g0))


def _feedback_radius(structure, m):
    """Spectral radius of D -> M* S[D] M at one M or a stack: the largest
    |eigenvalue| of its row-major matrix kron(M*, M^T) k, k = sum_j
    kron(A_j, A_j^T). At a real solution on the branch that continues the
    Herglotz solution it is below 1 (it reaches 1 at the edge, where the
    stability operator Id minus this map turns singular); the other real
    roots (GOE: m^2 > 1) exceed 1. Where Im M is positive semidefinite and
    nonzero at eta = 0 it is 1 (Im M = M* S[Im M] M is its Perron-Frobenius
    eigenvector), so the radius only tells real roots apart."""
    L = structure.L
    mh, mt = np.conj(np.swapaxes(m, -1, -2)), np.swapaxes(m, -1, -2)
    # vec(A D B) = kron(A, B^T) vec D for row-major vec: entry ((a, b),
    # (c, d)) of kron(M*, M^T) is M*[a, c] M^T[b, d]
    c = (mh[..., :, None, :, None] * mt[..., None, :, None, :]).reshape(
        m.shape[:-2] + (L * L, L * L))
    return np.abs(np.linalg.eigvals(c @ structure.s_op.k)).max(axis=-1)


def _branch_ok(structure, m):
    """The branch rule, at a stack of solutions M at any Im z >= 0: Im M =
    (M - M*)/2i is positive semidefinite up to 1e-8 (1 + |M|), and where it
    vanishes (entrywise at most 1e-10 (1 + |M|)) the _feedback_radius is
    below 1. Above the axis Im M > 0 and this is the Herglotz test; on the
    axis inside the support it is the Herglotz test of M(x + i0). Off the
    support M is flat and the radius tells the roots apart: a flat root of
    radius below 1 is M(x + i0), because with T the feedback map, M' =
    sum_k T^k[M^2] >= M^2 > 0, so M + i eta M' is Herglotz for small eta,
    and the Herglotz solution is unique. Each test runs only where it
    applies: eigvalsh on the points with an Im M, the radius on the flat
    ones."""
    im = (m - m.swapaxes(-1, -2).conj()) / 2j
    # off the support Im M is rounding (<= 7e-14 (1 + |M|) on 76 structures);
    # inside it, 1e-10 would put x within ~1e-20 of a square-root edge
    flat = np.abs(im).max(axis=(-2, -1)) <= 1e-10 * (1.0 + np.abs(m).max(axis=(-2, -1)))
    ok, n_flat = np.empty(len(m), dtype=bool), np.count_nonzero(flat)
    if n_flat < len(m):
        ok[~flat] = (np.linalg.eigvalsh(im[~flat]).min(axis=-1)
                     >= -1e-8 * (1.0 + _spectral_norm(m[~flat])))
    if n_flat:
        ok[flat] = _feedback_radius(structure, m[flat]) < 1.0
    return ok


def _newton_polish(structure, z, m0, tol, max_steps=60):
    """The one MDE Newton loop, stacked, to tol (a scalar or one per point),
    with no branch test. It starts from m0 (shape (G, L, L)), or from the
    one-step far-field guess when m0 is None (_far_field_guess, the cold
    start for Im z >= 1). Each step solves the linearization B dM + S[dM] M
    = -D of the defect D = Id + B M, B = z Id - A_0 + S[M], at the points
    not yet accepted, with a halving line search on the merit ||D||_F, one
    reduction where the spectral norm takes an eigensolve. A point is
    accepted where ||D||_2 <= tol. Since ||D||_2 <= ||D||_F <= sqrt(L)
    ||D||_2, the spectral norm is taken only where the merit cannot decide:
    before each step at the points with merit in (tol, sqrt(L) tol], and at
    the end at those still above tol (a line search stalled at the rounding
    floor, a singular system, max_steps). The loop's last step is a full one
    at the accepted points on the real axis, from the B and D it keeps: near
    the edge the Jacobian's smallest eigenvalue is only ~ 2 sqrt(x - r_inf),
    so a residual at tol leaves M off by up to tol over it, and one more
    step squares that error away. M takes the dtype of m0, z and A_0
    together, so with a real structure a real start at real z stays real.

    Where every point steps, a step works on the whole stack, and a line
    search trial that lowers the merit at every point it tries is kept in
    one indexed assignment; copying out the stepping points would change no
    point's arithmetic. A singular system fails alone: where the stacked
    solve raises, each system is solved by itself, and a singular one
    stalls its own point, or at the last step keeps its accepted M and ok
    (a second real root on a continuum of solutions, as the rate search
    meets where the noise is proportional to Id). The rate search polishes
    every screened start in one call. Returns (m, ok); ok is False where
    Newton failed."""
    L = structure.L
    m = (_far_field_guess(structure, z) if m0 is None
         else np.array(m0, dtype=np.result_type(m0, z, structure.a0)))
    b = _b_batch(structure, z, m)
    d = _eye(L) + b @ m  # B and the defect at the current M, for the next step
    res = np.linalg.norm(d, axis=(-2, -1))
    tol = np.broadcast_to(tol, res.shape)
    wide = np.sqrt(L) * tol  # above it, ||D||_2 > tol follows from the merit
    stalled = np.zeros(len(z), dtype=bool)
    for it in range(max_steps + 1):
        above = (res > tol) & ~stalled
        near = np.flatnonzero(above & (res <= wide))
        if len(near):  # a spectral residual within tol stands in for the merit
            spec = _spectral_norm(d[near])
            within = spec <= tol[near]
            res[near] = np.where(within, spec, res[near])
            above[near] = ~within
        idx = np.flatnonzero(above)
        last = it == max_steps or not len(idx)
        if last:  # accept, then the last step at the accepted points on the axis
            ok, above = res <= tol, res > tol  # a NaN merit is neither: it fails
            if above.any():
                ok[above] = _spectral_norm(d[above]) <= tol[above]
            idx = np.flatnonzero(ok & (z.imag == 0))
            if not len(idx):
                break
        zi, mi, bi, di = ((z, m, b, d) if len(idx) == len(z)
                          else (z[idx], m[idx], b[idx], d[idx]))
        jac, rhs = _jacobian(structure, bi, mi), -di.reshape(len(idx), L * L, 1)
        try:
            dm = np.linalg.solve(jac, rhs).reshape(-1, L, L)
        except np.linalg.LinAlgError:  # some system is singular: solve each alone
            dm, solved = np.zeros(mi.shape, np.result_type(jac, rhs)), np.ones(len(idx), bool)
            for i in range(len(idx)):
                try:
                    dm[i] = np.linalg.solve(jac[i], rhs[i]).reshape(L, L)
                except np.linalg.LinAlgError:
                    solved[i] = False
            # a singular point stalls (above tol it fails the acceptance), or
            # at the last step keeps its accepted M
            stalled[idx[~solved]] = True
            idx, zi, mi, dm = idx[solved], zi[solved], mi[solved], dm[solved]
        if last:
            m[idx] = mi + dm
            break
        lam, todo = 1.0, idx
        for _ in range(10):
            cand = mi + lam * dm
            b_new = _b_batch(structure, zi, cand)
            d_new = _eye(L) + b_new @ cand
            r_new = np.linalg.norm(d_new, axis=(-2, -1))
            fell = r_new < res[todo]
            if fell.all():
                m[todo], b[todo], d[todo], res[todo] = cand, b_new, d_new, r_new
                break
            acc = todo[fell]
            m[acc], b[acc], d[acc], res[acc] = cand[fell], b_new[fell], d_new[fell], r_new[fell]
            rest = ~fell
            todo, zi, mi, dm = todo[rest], zi[rest], mi[rest], dm[rest]
            lam /= 2.0
        else:
            stalled[todo] = True
    return m, ok


def _solve_batch(structure, z, m0, tol):
    """The MDE at a stack of spectral parameters z, Im z >= 0, as every
    value that is read off M is solved: _newton_polish, then _branch_ok.
    Returns (m, ok); ok is False where Newton failed or M is off the branch,
    and the caller re-solves those."""
    m, ok = _newton_polish(structure, z, m0, tol)
    ok[ok] = _branch_ok(structure, m[ok])
    return m, ok


def _solve_right(structure, x, m0, tol):
    """M(x) at a stack of real points x right of the support (complex with a
    zero imaginary part, as the continuation passes them, or real), as the
    memo and the fold walk keep it: _solve_batch at the real x from m0 (its
    real part at beta = 1), then the Hermitian part, accepted only where it
    is negative definite. A step of the fold walk into a gap meets a real
    root of radius below 1 that is not. Returns (m, ok)."""
    m, ok = _solve_batch(structure, np.real(x), np.real(m0) if structure.beta == 1 else m0, tol)
    m = 0.5 * (m + m.swapaxes(-1, -2).conj())
    ok[ok] = np.linalg.eigvalsh(m[ok]).max(axis=-1) < 0.0
    return m, ok


def _lagrange(t_nodes, m_nodes, t):
    """The Lagrange predictor that starts a continuation's next Newton solve,
    at every point of a stack at once: the polynomial through the k nodes
    (t_nodes[j], m_nodes[j]), at t. Node j is one stack of M, m_nodes[j] of
    shape (..., L, L); its t_nodes[j] is one per point (shape (...), as t
    is) or one shared by every point (a scalar). One node gives its M, none
    None."""
    tn = np.asarray(t_nodes, dtype=float)
    k = len(tn)
    if not k:
        return None
    eye = np.eye(k, dtype=bool).reshape((k, k) + (1,) * (tn.ndim - 1))
    # w_j = prod_{l != j} (t - t_l) / (t_j - t_l), the diagonal factor 1
    frac = (np.asarray(t, dtype=float) - tn[None]) / (tn[:, None] - tn[None] + eye)
    w = np.where(eye, 1.0, frac).prod(axis=1)
    return np.einsum("j...,j...ab->...ab", w, m_nodes)


def _solve_point(structure, z, tol, m0=None):
    """The solution at one z, Im z >= 0: the Herglotz solution above the axis
    (_solve_batch), and right of the support the real (Hermitian) M(x) that
    continues it (_solve_right). Newton from m0; without m0, or where that
    fails, the continuation (_rung_loop) down the second ladder to Im z,
    which raises a ConvergenceError where it fails."""
    z = complex(z)
    zs, solve = (np.array([z]), _solve_batch) if z.imag > 0 else (np.array([z.real]), _solve_right)
    if m0 is not None:
        m, ok = solve(structure, zs, np.asarray(m0)[None], tol)
        if ok[0]:
            return m[0]
    return _rung_loop(structure, zs.real, _side_rungs(z.imag), z.imag, solve, tol)[0][0]


def solve_mde(structure: StructureSet, z, tol=1e-12, m0=None) -> MdeSolution:
    """Solve the MDE at a spectral parameter z, from m0 if given.

    Im z > 0 returns the Herglotz solution (Im M >= 0): without m0, or where
    Newton from m0 fails to converge or converges off that branch, it is
    reached by the one continuation in eta from far above (`_rung_loop`,
    down the ladder 2, 0.4, ... to Im z). Real z > r_inf returns the
    symmetric (Hermitian) negative-definite branch that continues it,
    reached the same way (the ladder down to 1.6e-9, then the axis).
    Im z < 0 returns the conjugate solution. residual is the spectral norm of
    the defect Id + (z - A_0 + S[M]) M at the returned M.

    tol is absolute, while the defect's rounding floor grows with M's
    condition number: next to a narrow spike (|M| ~ 1e3, as at x =
    0.17764503222688965 on `random_structure(stream(727), 4)` in the tests)
    it is 2e-12 to 6e-12, so the default 1e-12 is out of reach there and
    raises a ConvergenceError that names the residual reached, the tol and
    cond(M), while tol=1e-10 converges.
    """
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if z.imag < 0:
        sol = solve_mde(structure, z.conjugate(), tol=tol,
                        m0=np.conj(m0) if m0 is not None else None)
        return MdeSolution(z=z, m=sol.m.conj(), residual=sol.residual)
    m = _solve_point(structure, z, tol, m0)
    res = float(_residual_batch(structure, np.array([z]), m[None])[0])
    return MdeSolution(z=z, m=m, residual=res)


# ---------------------------------------------------------------------------
# right edge: the fold of the real-axis equation

# the tol of every exact real-axis solve right of the support: the fold
# walk's and the memo's
_REAL_TOL = 1e-12


def _no_fold(x, side, crowded=False):
    why = ("the smallest eigenvalues of the stability operator do not separate, as "
           "where two edges of different widths coincide" if crowded else
           f"the {'right' if side > 0 else 'left'} edge may carry an atom (a point "
           f"mass), where M diverges instead of folding")
    return ConvergenceError(f"no fold of the real-axis Dyson equation near x={side * x:.6g}: {why}")


def _fold(structure, side=1):
    """The right (side=1) or left (side=-1) edge as a fold of Id + (x - A_0 +
    S[M]) M = 0; returns (edge, M(edge), residual, steps, walk), walk the
    (x, M(x)) pairs solved on the way in, or raises ConvergenceError where
    there is no fold (an atom on the edge). The left edge is the right edge
    of the mirror A_0 -> -A_0, whose solution is M'(x) = -M(-x).

    Walk in from ||A_0|| + r + 1, r = 2 sqrt(k) max ||A_j|| the noise
    radius (the support lies within r of A_0's spectrum), where Newton
    starts from the far-field guess (_far_field_guess), by warm-started
    Newton, stepping 0.6 (x - r_hat): r_hat extrapolates the squared
    smallest |eigenvalue| of the Jacobian, linear in x - r_inf near the
    edge, to zero. A step whose solve fails (inside the support or a gap)
    is halved. It stops within 2e-2 r of r_hat, a scale a narrow band
    shares, once that eigenvalue is at most half the next distinct one
    (1e-8 apart): next to a second edge the smallest mode can be that
    edge's, or a cross mode orthogonal to dM/dz (two coincident edges never
    separate). Then
    Newton on {Id + B M = 0, B V + S[V] M = 0, <l, V> = 1}, B = x - A_0 +
    S[M], for (M, x, V)
    (Keller 1977), in least squares: by symmetry the kernel can have more
    than one dimension, which makes the extended Jacobian singular. V starts
    from the eigenvector of the Jacobian's smallest |eigenvalue| at the end
    of the walk; where that eigenvalue is multiple, from the member of its
    eigenspace along dM/dz, the direction M folds in. An arbitrary member
    can be blind to part of M's error (A_1 = Id: V = E_11 misses the other
    diagonal entry), which then shrinks only linearly and stalls near the
    square root of rounding, where the defect, quadratic in it, vanishes.
    It stops once a step is at most 1e-13 max(1, |x|, max |M|), since
    |M| ~ 1/r next to a narrow band.
    """
    if side < 0:
        structure = replace(structure, a0=-structure.a0)
    L, n, eye = structure.L, structure.L ** 2, np.eye(structure.L)
    norms = [np.linalg.norm(aj, 2) for aj in structure.a]
    radius = 2.0 * np.sqrt(max(structure.k, 1)) * (max(norms) if norms else 0.0)
    x = float(np.linalg.norm(structure.a0, 2) + radius + 1.0)
    m = _solve_point(structure, x, _REAL_TOL, m0=_far_field_guess(structure, np.array([x]))[0])
    prev, walk = None, [(x, m)]
    for steps in range(61):
        b = x * eye - structure.a0 + apply_S(structure, m)
        w, vecs = np.linalg.eig(_jacobian(structure, b, m))
        mags = np.sort(np.abs(w))
        lam2 = float(mags[0]) ** 2
        # far from the edge the Jacobian is ~ x - A_0: step by half |lambda|
        gap = (lam2 * (prev[0] - x) / (prev[1] - lam2) if prev and prev[1] > lam2
               else 0.5 * np.sqrt(lam2))
        near = gap < 2e-2 * radius
        others = mags[mags > (1.0 + 1e-8) * mags[0]]
        crowded = near and others.size > 0 and mags[0] > 0.5 * others[0]
        if near and not crowded:
            break
        step = 0.6 * gap
        for _ in range(30):
            m_new, ok = _solve_right(structure, np.array([x - step]), m[None], _REAL_TOL)
            if ok[0]:
                break
            step /= 2.0
        else:
            raise _no_fold(x, side, crowded)
        prev, x, m = (x, lam2), x - step, m_new[0]
        walk.append((x, m))
    else:
        raise _no_fold(x, side, crowded)

    x_walk, size = x, np.inf
    # eig's basis of an eigenspace of more than one dimension is arbitrary:
    # take its member along dM/dz, the direction M folds in
    basis = vecs[:, np.abs(w) <= (1.0 + 1e-8) * np.sqrt(lam2)]
    v = basis @ np.linalg.lstsq(basis, _dm_dz(structure, x, m).reshape(-1))[0]
    v = (v.real if structure.beta == 1 else v) / np.linalg.norm(v)
    ell = np.conj(v)
    for _ in range(61):
        b = x * eye - structure.a0 + apply_S(structure, m)
        jac_m = _jacobian(structure, b, m)
        rhs = np.concatenate([(eye + b @ m).reshape(-1), jac_m @ v, [ell @ v - 1.0]])
        res = float(np.linalg.norm(rhs))
        if size <= 1e-13 * max(1.0, abs(x), np.abs(m).max()):
            break
        vm = v.reshape(L, L)
        jac = np.block([[jac_m, m.reshape(-1, 1), np.zeros((n, n))],
                        [_jacobian(structure, apply_S(structure, vm), vm), v[:, None], jac_m],
                        [np.zeros((1, n + 1)), ell[None, :]]])
        delta = np.linalg.lstsq(jac, -rhs)[0]
        size = float(np.linalg.norm(delta))
        m, x, v = m + delta[:n].reshape(L, L), x + delta[n], v + delta[n + 1:]
        steps += 1
    else:
        raise _no_fold(x_walk, side)
    r, m = float(np.real(x)), 0.5 * (m + m.conj().T)
    if not (res <= 1e-10 and r < x_walk and np.linalg.eigvalsh(m).max() < 0.0):
        raise _no_fold(x_walk, side)
    return side * r, side * m, res, steps, [(side * t, side * mt) for t, mt in walk]


def right_edge(structure: StructureSet) -> SupportInfo:
    """Right endpoint r_inf of the limiting spectral measure, with
    m_at_edge = -m(r_inf) and the fold solve's residual and step count.

    Noiseless (`StructureSet.noiseless`, atoms only): the largest eigenvalue
    of A_0, exact, with m_at_edge infinite. Otherwise the fold of the
    real-axis Dyson equation (see _fold), accurate to rounding on
    square-root edges; ConvergenceError where there is no fold.
    """
    return _cache_for(structure).support


def left_edge(structure: StructureSet) -> float:
    """Left endpoint, the fold of the mirrored structure, solved on first
    use; ConvergenceError where there is no fold (the right-edge quantities
    are still served)."""
    return _cache_for(structure).left


# ---------------------------------------------------------------------------
# per-structure spectral cache

class _SpectralCache:
    """Edges and the memo of exact real-axis solves M(x), per structure; m,
    U and (-m)^{-1} are all read off M. The memo starts out seeded with the
    right fold walk's solutions; the left edge is solved on first use."""

    def __init__(self, structure: StructureSet):
        self.structure = structure
        self._m_memo = {}
        self._m_keys = []  # sorted keys of _m_memo, for the nearest warm start

        if structure.noiseless:
            # atoms only: the edges are A_0's extreme eigenvalues, exact, and
            # -m diverges at r_inf instead of folding
            self.atoms = np.linalg.eigvalsh(structure.a0)
            self.r_inf, self.q_edge = float(self.atoms[-1]), np.inf
            self.support = SupportInfo(r_inf=self.r_inf, m_at_edge=self.q_edge,
                                       fold_residual=0.0, fold_steps=0)
            return

        self.r_inf, self.m_edge, res, steps, walk = _fold(structure)
        self.q_edge = -float(np.trace(self.m_edge).real) / structure.L
        # the walk's solutions warm-start every later real-axis solve nearby
        self._m_memo.update(walk)
        self._m_keys = sorted(self._m_memo)
        self.support = SupportInfo(r_inf=self.r_inf, m_at_edge=self.q_edge,
                                   fold_residual=res, fold_steps=steps)

    @functools.cached_property
    def _left(self):
        """(left edge, None), or (None, the left fold's ConvergenceError):
        a failed fold is kept too, so it is walked once."""
        if self.structure.noiseless:
            return float(self.atoms[0]), None
        try:
            return _fold(self.structure, side=-1)[0], None
        except ConvergenceError as exc:
            return None, exc

    @property
    def left(self):
        edge, failure = self._left
        if failure is not None:
            raise failure
        return edge

    def m_matrix(self, x, m0=None):
        """Real MDE solution M(x), memoized, x >= r_inf: the fold's M at
        r_inf, DomainError before any solve left of it (and at it, with
        atoms only). A miss is one Newton solve to _REAL_TOL from m0 when
        given (the outlier search's converged iterate), else from `_start`,
        and takes the branch rule either way (`_solve_point`). With atoms
        only (S = 0) the equation is linear, M(x) = -(x - A_0)^{-1}: the
        far-field guess is the exact solution, and Newton reaches it in one
        step from any other start."""
        key = float(x)
        if key <= self.r_inf:
            if key == self.r_inf and not self.structure.noiseless:
                return self.m_edge
            raise DomainError(f"x={key} must lie right of the edge {self.r_inf}")
        hit = self._m_memo.get(key)
        if hit is not None:
            return hit
        m = _solve_point(self.structure, key, _REAL_TOL,
                         m0=self._start(key) if m0 is None else m0)
        if len(self._m_memo) > 4096:
            self._m_memo.clear()
            self._m_keys.clear()
        self._m_memo[key] = m
        bisect.insort(self._m_keys, key)
        return m

    def _keys_above(self, x):
        """A snapshot of the memoized keys right of x, ascending. Another
        thread's clear() leaves it usable: m_matrix re-solves a dropped key."""
        keys = list(self._m_keys)
        return keys[bisect.bisect_right(keys, x):]

    def _start(self, key):
        """Newton's start for a memo miss at key, one of the loop's two:
        the predictor (_lagrange) in s = sqrt(x - r_inf), the line through
        the memoized solutions at the two keys nearest to it (M is analytic
        in s at the edge), or the one-step far-field guess
        (_far_field_guess) when the nearest lies half the distance to the
        edge or farther. A key another thread's clear() dropped after the
        keys were read is left out, and so is a second node whose s rounds
        onto the first's."""
        i = bisect.bisect_left(self._m_keys, key)
        near = sorted(self._m_keys[max(i - 2, 0):i + 2], key=lambda t: abs(t - key))[:2]
        s_nodes, m_nodes = [], []
        if near and abs(near[0] - key) < 0.5 * (key - self.r_inf):
            for t in near:
                m, s = self._m_memo.get(t), np.sqrt(t - self.r_inf)
                if m is None or s in s_nodes:
                    break
                s_nodes.append(s)
                m_nodes.append(m)
        if s_nodes:
            return _lagrange(s_nodes, m_nodes, np.sqrt(key - self.r_inf))
        return _far_field_guess(self.structure, np.array([key]))[0]

    def m_scalar(self, x):
        """m(x) = Tr M(x) / L for real x >= r_inf, from the memoized exact solve."""
        return float(np.trace(self.m_matrix(x)).real) / self.structure.L

    def log_potential(self, x):
        """U(x) = int ln|x-y| dmu(y) for x >= r_inf, as the Dyson free energy
        at M = M(x) (the fold's M(r_inf) at the edge):

            U(x) = -1 - (1/L) [ln det(-M) + Tr((x - A_0) M) + Tr(M S[M]) / 2].

        The bracket's gradient in M is M^{-1} + x - A_0 + S[M], which the MDE
        makes 0, so dU/dx = -Tr M / L = -m(x); U ~ ln x as x -> oo fixes the
        constant. Being stationary in M, the bracket moves only by O(|dM|^2)
        under an error dM in the solve, so U is exact to rounding even next
        to the edge, where the real-axis solve itself loses digits. With atoms
        only, M = -(x - A_0)^{-1} makes it (1/L) ln det(x - A_0), and an atom
        at r_inf is a DomainError (U = -inf there)."""
        st = self.structure
        # r_inf is exact to a few ulps: a closed-form edge rounding below it
        # is the edge, not a point inside the support
        if x < self.r_inf - 8.0 * np.spacing(max(1.0, abs(self.r_inf))):
            raise DomainError(f"x={x} is below the right edge {self.r_inf}")
        x = max(x, self.r_inf)
        m = self.m_matrix(x)
        b = x * np.eye(st.L) - st.a0 + 0.5 * apply_S(st, m)
        bracket = np.linalg.slogdet(-m)[1] + np.trace(b @ m).real
        return float(-1.0 - bracket / st.L)

    def inverse_neg_m(self, q):
        """t with -m(t) = q, for q in (0, -m(r_inf+)): one bracket solve in s =
        sqrt(t - r_inf) (the substitution makes the edge analytic) on the
        exact m over [0, 1/sqrt(q)]. At s = 0 the fold gives -m = q_edge > q;
        at the far end -m(t) <= 1/(t - r_inf) = q. With atoms only -m
        diverges at r_inf, so the bracket is [1/sqrt(2 L q), 2/sqrt(q)]: the
        atom at r_inf alone gives -m >= 2q at its left end, and -m <= q/4 at
        its right end. The round trip -m(t) = q holds to ~1e-13 relative.
        Within ~1e-12 of the edge it reads ~1e-10 and worse closer in: there
        the real-axis solve that evaluates m(t) loses digits itself (the
        Jacobian's smallest eigenvalue is ~ 2 sqrt(t - r_inf))."""
        # deferred: the one scipy.optimize use, kept out of `import kronldp`
        from scipy.optimize import brentq

        if q <= 0:
            raise NoInverseError("two_theta must be positive")
        if q >= self.q_edge:
            raise NoInverseError(
                f"two_theta={q} is at or beyond the range of -m "
                f"(sup {self.q_edge:.6g}); no inverse, use branch-2 formulas")

        def f(s):
            return -self.m_scalar(self.r_inf + s * s) - q

        if self.structure.noiseless:
            lo, hi = 1.0 / np.sqrt(2.0 * self.structure.L * q), 2.0 / np.sqrt(q)
        else:
            lo, hi = 0.0, 1.0 / np.sqrt(q)
        s_root = brentq(f, lo, hi, xtol=1e-14)
        return float(self.r_inf + s_root * s_root)


_CACHES: dict = {}


def _cache_for(structure: StructureSet) -> _SpectralCache:
    key = structure_hash(structure)
    cache = _CACHES.get(key)
    if cache is None:
        if len(_CACHES) >= 16:
            _CACHES.pop(next(iter(_CACHES)))
        cache = _SpectralCache(structure)
        _CACHES[key] = cache
    return cache


# ---------------------------------------------------------------------------
# public real-axis operations

def stieltjes_real(structure: StructureSet, x):
    """m(x) and M(x) for real x > r_inf + guard (1e-8)."""
    x = _finite(x, "x")
    cache = _cache_for(structure)
    if x <= cache.r_inf + 1e-8:
        raise DomainError(
            f"x={x} must exceed r_inf={cache.r_inf} by more than 1e-8")
    m_mat = cache.m_matrix(x)
    return float(np.trace(m_mat).real) / structure.L, m_mat


def inverse_neg_stieltjes(structure: StructureSet, two_theta) -> float:
    """t > r_inf with -m(t) = two_theta; NoInverseError outside the range of -m."""
    two_theta = _finite(two_theta, "two_theta")
    return _cache_for(structure).inverse_neg_m(two_theta)


def log_potential(structure: StructureSet, x) -> float:
    """U(x) = int ln|x-y| dmu_inf(y) for x >= r_inf."""
    x = _finite(x, "x")
    return _cache_for(structure).log_potential(x)


# ---------------------------------------------------------------------------
# density on a grid

# density's entry: eta = 1, where Newton converges from the far-field guess,
# down by factors of 0.2, then 1e-3, the last rung above the axis
_ENTRY_RUNGS = tuple(float(e) for e in np.cumprod([1.0] + [0.2] * 4)) + (1e-3,)


def _rung_tol(eta, m0):
    """Newton's tol at a rung of the continuation: 1e-8 above the axis,
    where a rung only seeds the next one's predictor, and on it 1e-12
    cond(M0) per point, M0 the start, because the axis solve sets every
    value the density reports: the defect's rounding floor grows with M's
    condition number, and next to a narrow band |M| ~ 1e3 puts it above an
    absolute 1e-12."""
    return 1e-12 * np.linalg.cond(m0) if eta == 0 else 1e-8


def _side_rungs(eta):
    """The second ladder, down to max(eta, 1e-9): 2 * 0.2^k, for a point that
    the density's ladder hands back and for _solve_point's cold start. It is
    entered at 2, where Newton converges from the far-field guess, and no
    rung lies within a factor 1.5 of a rung of _ENTRY_RUNGS (2 and 2.5 from
    the nearest two, 1.56 from 1e-3), so a point handed back never retraces
    the jump it failed at."""
    return tuple(float(e) for e in 2.0 * 0.2 ** np.arange(14) if e > max(eta, 1e-9))


def _no_solution(structure, e, z, m, tol):
    """The ConvergenceError of the continuation's solve at eta = e, naming
    the points z it left at M = m: where the first is on the branch with its
    residual above tol, the residual, the tol and cond(M) too, because the
    defect's rounding floor grows with cond(M)."""
    res, why = float(_residual_batch(structure, z[:1], m[:1])[0]), "M is off the branch"
    if res > tol and _branch_ok(structure, m[:1])[0]:
        why = (f"Newton stopped on the branch at residual {res:.2g} > tol={tol:.2g}, with "
               f"cond(M) = {np.linalg.cond(m[0]):.2g}: the defect's rounding floor grows "
               f"with cond(M), and a larger tol converges")
    return ConvergenceError(f"no physical solution at x={z.real} (eta={e}): {why}")


def _rung_loop(structure, xs, ladder=_ENTRY_RUNGS, eta=0.0, solve=None, tol=None):
    """M at a stack of points xs + i eta by continuation in eta from far
    above: one stacked solve per rung of ladder (all above eta) and then at
    eta, each point started from the predictor (_lagrange), the quadratic in
    eta through the last three rungs at the same x (fewer: the line, the
    rung itself, the far-field guess). A rung above eta only seeds the
    predictor: Newton alone (_newton_polish) at `_rung_tol`. The solve at eta sets the values:
    `solve` (_solve_batch by default, whose branch rule also turns down a
    point that a rung carried onto another root; _solve_right right of the
    support) at tol (by default `_rung_tol`). On the density's ladder,
    _ENTRY_RUNGS, the points that fail at a rung are handed back once,
    together, down the second ladder (`_side_rungs`) to that rung; that
    ladder hands nothing back, and where it fails ConvergenceError names x.
    Returns (M, the number of points handed back)."""
    etas, ms, handed_back = [], [], 0  # the last three rungs and their M, the newest last
    for e in ladder + (eta,):
        # every point at once, from the rungs above at the same x: near an
        # edge at small eta the neighboring-x solution is too far for Newton,
        # while the same point one rung up is right next door
        z, m0 = xs + 1j * e, _lagrange(etas, ms, e)
        t = tol if e == eta and tol is not None else _rung_tol(e, m0)
        m, ok = (_newton_polish if e > eta else solve or _solve_batch)(structure, z, m0, t)
        bad = np.flatnonzero(~ok)
        if len(bad) and ladder is not _ENTRY_RUNGS:
            raise _no_solution(structure, e, z[bad], m[bad], np.broadcast_to(t, ok.shape)[bad[0]])
        if len(bad):
            m[bad] = _rung_loop(structure, xs[bad], _side_rungs(e), e)[0]
            handed_back += len(bad)
        etas, ms = etas[-2:] + [e], ms[-2:] + [m]
    return m, handed_back


# the density's refinement in x: the rung loop on every _COARSE_STEP-th grid
# index (and the last), then one stacked axis solve per level at these steps
_COARSE_STEP = 8
_REFINE_STEPS = (2, 1)


def _cubic_start(m, solved, new):
    """Newton's start for a refinement level: at each new grid index, the
    cubic (_lagrange, in the grid index) through the 4 solved grid points
    nearest to it (two on each side, or the nearest 4 at an end; all of them
    where fewer are solved)."""
    k = min(4, len(solved))
    first = np.clip(np.searchsorted(solved, new) - k // 2, 0, len(solved) - k)
    nodes = solved[first + np.arange(k)[:, None]]  # (k, P) grid indices
    return _lagrange(nodes, m[nodes], new)


def density(structure: StructureSet, x_lo, x_hi, grid_size=1001,
            components=False) -> SpectralDensity:
    """Spectral density Im Tr M(x + i0) / (pi L) on the real axis.

    Inside the support the solution extends analytically to the real axis
    (Alt-Erdos-Kruger 2020), so Newton at eta = 0 on complex M gives the
    density to rounding, and M(x + i0) is analytic in x there, so solved
    neighbours predict a point between them. The eta continuation
    (`_rung_loop` on the ladder `_ENTRY_RUNGS`) runs on every 8th grid index
    and the last only. Then two refinement levels fill in the indices at
    step 2 and then step 1, each one stacked axis solve (_solve_batch,
    Newton and the branch rule, at the axis tol of `_rung_tol`), every
    point started from the cubic through the 4 nearest solved points
    (`_cubic_start`). A point that a level turns down (Newton fails, or the
    branch rule: the cubic reaches across an edge or a cusp) is re-solved
    by `_rung_loop`, stacked with the level's other rejects, and counted in
    refine_fallbacks; a point that a rung of `_rung_loop` hands back to the
    continuation down the second ladder is counted in fallback_points.
    """
    x_lo, x_hi = _finite(x_lo, "x_lo"), _finite(x_hi, "x_hi")
    if x_hi <= x_lo:
        raise ValueError("x_hi must exceed x_lo")
    if grid_size < 2:
        raise ValueError("need at least two grid points")

    L, n = structure.L, int(grid_size)
    grid = np.linspace(x_lo, x_hi, n)
    solved = np.unique(np.r_[np.arange(0, n, _COARSE_STEP), n - 1])
    m = np.empty((n, L, L), dtype=complex)
    m[solved], fallbacks = _rung_loop(structure, grid[solved])
    refine_fallbacks = 0
    for step in _REFINE_STEPS:
        new = np.setdiff1d(np.arange(0, n, step), solved)
        if not len(new):
            continue
        m0 = _cubic_start(m, solved, new)
        m[new], ok = _solve_batch(structure, grid[new], m0, _rung_tol(0.0, m0))
        if not ok.all():
            again = new[~ok]
            m[again], handed_back = _rung_loop(structure, grid[again])
            fallbacks += handed_back
            refine_fallbacks += len(again)
        solved = np.union1d(solved, new)

    dens = np.clip(np.trace(m, axis1=1, axis2=2).imag / (L * np.pi), 0.0, None)
    h = grid[1] - grid[0]
    tol_q = max(1e-3, 4.0 * h ** 1.5)
    comp_list = (list((m - np.conj(np.swapaxes(m, 1, 2))) / (2j * np.pi))
                 if components else None)
    return SpectralDensity(grid=grid, density=dens, eta_final=_ENTRY_RUNGS[-1],
                           tol_q=tol_q, matrix_components=comp_list,
                           fallback_points=fallbacks, refine_fallbacks=refine_fallbacks)
