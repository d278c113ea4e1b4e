"""Sampling-based checks of the deterministic predictions.

Everything here estimates a quantity the other modules compute exactly:
lambda_1 draws against the support edge, pooled spectra against the density,
block resolvent traces against M(z), window probabilities P(|lambda_1 - x|
<= delta) against the rate function, tilted means against the outlier root,
and profiles of uniform sphere vectors against the renormalized-Wishart law.

Replicates are grouped into fixed-size batches and batch b draws from the
derived stream (seed, b), so estimates are bit-identical for a given integer
master seed and version no matter how batches are scheduled; weight and
indicator sums go through math.fsum, which rounds exactly and is therefore
order-independent. With an integer seed and at least two batches, the
batches run on one forked worker process per CPU of this process's affinity
mask (at most one per batch; `_map_batches`), and the results are gathered
in batch order; where `_processes` allows only one (a single CPU, no fork
start method, a daemonic caller, or a Generator passed instead of an
integer seed) they run in-process, one after the other. The README lists
what each version changed in the draws and in how they are solved.

`model` draws the blocks W_j, under a tilt W_j + 2 theta C_j (the tilted
law's mean, `model._tilt_blocks`); this module solves every dense draw
part by part (`_parts`, `_Part`): lambda_1 and rho(v_1), pooled spectra,
block resolvent traces, window decisions and tilted lambda_1. A structure
whose matrices commute (A_0 = q diag(c) q*, A_j = q diag(a_j) q*: direct
sums, every L = 1 structure) has L parts: in q's basis X is the direct sum
of the N x N blocks c_l + sum_j a_jl W_j, built straight from the drawn W_j.
Any other structure is one part, X itself. No sampler assembles X, and no
batch of matrices is ever held: an importance weight is read off the
blocks.

The dense window estimators (direct and importance) take one draw at a time
and decide the window with no eigensolve, by Cholesky factorizations at the
window ends (`_window_draws`). Long runs on a scalar structure may take
(opt-in) the tridiagonal beta-Hermite reduction, which has exactly the
GOE/GUE eigenvalue law: window membership is two vectorized Sturm counts per
draw. The tilted mean check of a scalar structure always takes it: a
rank-one tilt only shifts the tridiagonal's first diagonal entry
(Bloemendal-Virag), so a tilted draw takes 2N - 1 random numbers and one
tridiagonal bisection instead of a dense matrix and its eigensolve.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh, eigvalsh, eigvalsh_tridiagonal
from scipy.linalg.lapack import dpotrf, zpotrf
from scipy.special import betaincinv

from .mde import right_edge
from .model import (as_profile, profile_vector, rho_profile, structure_hash, _draw_blocks,
                    _draw_stream, _tilt_blocks)
from .outlier import largest_outlier, tilt_for_target

# Draws are grouped into batches of _batch_size(NL, reps) and batch b draws
# from stream (seed, b); nothing is buffered, so these constants only fix
# where one stream ends and the next begins. Changing them changes the draws.
_DENSE_BUFFER = 3.2e7  # matrix entries per batch
_TRI_BATCH = 32768


# ---------------------------------------------------------------------------
# result records

@dataclass(frozen=True)
class TailEstimate:
    """Window-probability estimate for {|lambda_1 - x| <= delta}."""

    x: float
    delta: float
    N: int
    reps: int
    hits: int
    p_hat: float
    rate_hat: float  # -ln(p_hat)/N, +inf when nothing was hit
    ci_low: float
    ci_high: float
    method: str  # "direct" | "importance"
    ess: float | None = None
    unreliable: bool = False
    # processes that drew the batches (1: the caller's); scheduling, not the estimate
    processes: int = field(default=1, compare=False)


@dataclass(frozen=True)
class TiltCheck:
    """Empirical mean of lambda_1 under a tilt (blocks W_j + 2 theta C_j) vs the predicted Z."""

    theta: float
    N: int
    reps: int
    mean_lambda1: float
    sd_lambda1: float
    se_mean: float
    predicted_z: float
    discrepancy: float  # (mean - Z) / se_mean


@dataclass(frozen=True)
class ProfileHistogram:
    """Summary of rho(u) for u uniform on the real (NL-1)-sphere."""

    L: int
    N: int
    reps: int
    mean_profile: np.ndarray
    mean_se: np.ndarray
    entry_sd: np.ndarray
    det_mode: float
    det_frac_below_half: float  # fraction with det rho < L^-L / 2
    # L = 2 only: binned density over (psi_11, Re psi_12), else None
    p_edges: np.ndarray | None = None
    c_edges: np.ndarray | None = None
    counts: np.ndarray | None = None
    empirical_density: np.ndarray | None = None
    analytic_density: np.ndarray | None = None


# ---------------------------------------------------------------------------
# shared helpers

def _batch_size(nl, reps):
    cap = max(1, int(_DENSE_BUFFER // (nl * nl)))
    return max(1, min(512, cap, reps))


def _nbatches(reps, size):
    return -(-reps // size)


def _cpu_count():
    """CPUs this process may run on: its affinity mask, where there is one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _processes(nbatches, rng):
    """How many processes `_map_batches` runs nbatches batches on: one per
    CPU, at most one per batch, or 1 (the caller's) for a Generator, whose
    one stream orders the batches, a single batch or CPU, a platform without
    the fork start method, or a daemonic caller, which may not start
    children."""
    if isinstance(rng, np.random.Generator) or nbatches < 2:
        return 1
    cpus = _cpu_count()
    if cpus < 2:
        return 1
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return min(cpus, nbatches)


def _map_batches(fn, nbatches, rng):
    """[fn(b) for b in range(nbatches)], in batch order.

    Batch b draws from stream (seed, b) whoever runs it, so the results do
    not depend on the schedule. With more than one process (`_processes`)
    the batches go to a pool of forked workers, each of which inherits the
    caller's modules; fn and its results are pickled, so fn is a module-level
    function (or a partial of one). The pool is shut down, every worker
    joined, before the call returns, and an exception raised in a batch is
    re-raised here as its own type.
    """
    processes = _processes(nbatches, rng)
    if processes == 1:
        return [fn(b) for b in range(nbatches)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, range(nbatches)))


# A structure is split into L parts when every matrix is diagonal to this
# many ulps of its norm in the eigenbasis of one generic combination.
_COMMUTE_ULPS = 32


def _parts(structure, n):
    """The parts of X at size N, as `_Part`s: X is unitarily the direct sum
    over parts of c0 (x) Id + sum_j c_j (x) W_j, a P N x P N matrix whose rows
    are those of X in the basis (an L x P block of a unitary) (x) Id.

    When the structure's matrices commute they share an eigenbasis q, and X
    splits into L parts of size 1, c_l + sum_j a_jl W_j. The test
    diagonalizes one generic real combination of A_0 and the A_j (each
    scaled to unit norm) and requires every q* A q to be diagonal to
    _COMMUTE_ULPS ulps of ||A||, so the off-diagonal entries it drops
    perturb X at the rounding level. Otherwise there is one part, X itself.
    """
    mats = np.concatenate([structure.a0[None], structure.a])
    norms = np.linalg.norm(mats, axis=(1, 2))
    weights = np.cos(1.0 + np.arange(len(mats))) / np.where(norms > 0, norms, 1.0)
    q = np.linalg.eigh(np.tensordot(weights, mats, axes=1))[1]
    rotated = q.conj().T @ mats @ q
    diag = np.einsum("jll->jl", rotated).real
    off = np.abs(rotated - diag[:, :, None] * np.eye(structure.L)).max(axis=(1, 2))
    if np.all(off <= _COMMUTE_ULPS * np.finfo(float).eps * norms):
        split = [(q[:, [l]], diag[0, l].reshape(1, 1), diag[1:, l].reshape(-1, 1, 1))
                 for l in range(structure.L)]
    else:
        split = [(np.eye(structure.L), structure.a0, structure.a)]
    return [_Part(basis, c0, c, n, structure.a0.dtype) for basis, c0, c in split]


class _Part:
    """One part of X: `below` tests lambda_1 < t by a LAPACK Cholesky
    factorization of t Id - part, `top` returns lambda_1.

    t Id - part is built straight from the drawn W_j in one reused matrix:
    one broadcast product per noise term on its (P, N, P, N) view, then
    t Id - c0 added to the diagonal of every N x N block. The
    factorization exists exactly when t Id - part is positive definite. The
    transposed (Fortran-ordered) view is factored in place and without a
    copy, as lower triangular (the faster of OpenBLAS's two `potrf`
    variants on this layout; `_fill` writes both triangles); `top` hands
    the same view to the eigensolver (the conjugate of -part, so
    `top_profile` conjugates its eigenvector back).
    """

    def __init__(self, basis, c0, c, n, dtype):
        p = basis.shape[1]
        self.basis = basis
        self.eye, self.c0 = np.eye(p)[:, :, None], c0[:, :, None]
        self.neg_c = -c[:, :, None, :, None]
        self.mat = np.empty((p * n, p * n), dtype=dtype)
        self.view = self.mat.reshape(p, n, p, n)
        self.diag = np.einsum("aibi->abi", self.view)  # writeable view
        self.potrf = zpotrf if np.iscomplexobj(self.mat) else dpotrf

    def _fill(self, blocks, t):
        """Write t Id - part into the reused matrix."""
        if len(blocks):
            np.multiply(self.neg_c[0], blocks[0][None, :, None, :], out=self.view)
        else:
            self.view.fill(0.0)
        for c, w in zip(self.neg_c[1:], blocks[1:]):
            self.view += c * w[None, :, None, :]
        self.diag += t * self.eye - self.c0

    def below(self, blocks, t):
        """Whether every eigenvalue of the part lies below t."""
        self._fill(blocks, t)
        return self.potrf(self.mat.T, lower=1, clean=0, overwrite_a=1)[1] == 0

    def top(self, blocks):
        """The part's largest eigenvalue (minus the smallest of -part)."""
        self._fill(blocks, 0.0)
        return -eigvalsh(self.mat.T, lower=False, overwrite_a=True, check_finite=False,
                         subset_by_index=[0, 0])[0]

    def top_profile(self, blocks):
        """(lambda_1, rho(v_1)) of the part, rho in X's blocks. A part of size
        1 is q (x) Id in X, so v_1 = q (x) w and rho(v_1) = conj(q) q^T with no
        eigenvector computed; a larger part takes its top eigenpair in one
        subset eigensolve."""
        b = self.basis
        if b.shape[1] == 1:
            return self.top(blocks), np.outer(b[:, 0].conj(), b[:, 0])
        self._fill(blocks, 0.0)
        w, y = eigh(self.mat.T, lower=False, overwrite_a=True, check_finite=False,
                    subset_by_index=[0, 0])
        return -w[0], b.conj() @ rho_profile(y[:, 0].conj(), b.shape[1]) @ b.T

    def eigvals(self, blocks):
        """Every eigenvalue of the part, in descending order."""
        self._fill(blocks, 0.0)
        return -np.linalg.eigvalsh(self.mat)

    def resolvent_trace(self, blocks, z):
        """The part's share basis G basis* of X's block traces, G the P x P
        matrix (1/N) Tr[(part - z)^-1_{pq}]; a part of size 1 needs only its
        eigenvalues, G = (1/N) sum_i 1/(lambda_i - z)."""
        p, n = self.view.shape[:2]
        self._fill(blocks, 0.0)
        if p == 1:
            vals, cross = np.linalg.eigvalsh(self.mat), np.ones((1, 1, n))
        else:
            vals, vecs = np.linalg.eigh(self.mat)
            vr = vecs.reshape(p, n, p * n)
            cross = np.einsum("ikm,jkm->ijm", vr, vr.conj())
        vals = -vals
        if np.abs(vals - z).min() < 1e-8:
            raise ValueError("z within 1e-8 of a sampled eigenvalue; resolvent ill-conditioned")
        return self.basis @ (cross @ (1.0 / (vals - z)) / n) @ self.basis.conj().T


def _window_draws(structure, x, delta, n, reps, rng, one_sided, batch, mean=None):
    """The blocks W (each plus the mean, when given) of batch `batch`'s
    draws whose X has lambda_1 in the window: lambda_1 >= x - delta, and for
    a two-sided window also lambda_1 <= x + delta.

    Batch b takes the _batch_size draws from b _batch_size on, from stream
    (seed, b). No eigenvalue is computed: a draw is in the window when some
    part fails the Cholesky test at x - delta and, two-sided, every such
    part passes it at x + delta. The test is exact up to rounding, so a draw
    is placed differently from an eigensolve only when its lambda_1 lies
    within rounding of a window end. The yielded blocks are fresh for every
    draw.
    """
    bs = _batch_size(structure.L * n, reps)
    parts, draws = _draws(structure, n, min(bs, reps - batch * bs), _draw_stream(rng, batch),
                          mean)
    for blocks in draws:
        above = [part for part in parts if not part.below(blocks, x - delta)]
        if above and (one_sided or all(part.below(blocks, x + delta) for part in above)):
            yield blocks


def _clopper_pearson(hits, reps, alpha=0.05):
    # betaincinv(a, b, q) is the Beta(a, b) quantile at q
    lo = 0.0 if hits == 0 else float(betaincinv(hits, reps - hits + 1, alpha / 2))
    hi = 1.0 if hits == reps else float(betaincinv(hits + 1, reps - hits, 1 - alpha / 2))
    return lo, hi


# ---------------------------------------------------------------------------
# lambda_1 draws and spectra

def _draws(structure, n, reps, rng, mean=None):
    """The parts of X at size N and an iterator over reps draws of the blocks W
    from the stream of rng, each plus the mean (added in place) when given."""
    if n < 1 or reps < 1:
        raise ValueError("N and reps must be >= 1")
    gen = _draw_stream(rng)
    draws = (_draw_blocks(structure, n, gen) for _ in range(reps))
    if mean is not None:
        draws = (np.add(blocks, mean, out=blocks) for blocks in draws)
    return _parts(structure, n), draws


def simulate_lambda1(structure, n, reps, rng) -> list:
    """Independent draws of (lambda_1, rho(v_1)) at size N, taken part by
    part (`_Part.top_profile`): lambda_1 is the largest of the parts' and
    v_1 lies in the part that has it."""
    parts, draws = _draws(structure, n, reps, rng)
    tops = (max((part.top_profile(blocks) for part in parts), key=lambda t: t[0])
            for blocks in draws)
    return [(float(lam), as_profile(rho)) for lam, rho in tops]


def empirical_spectrum(structure, n, reps, rng=0, bins=200, span=None):
    """Pooled eigenvalue histogram over reps draws, unit mass per matrix; each
    draw's eigenvalues are its parts' pooled.

    Returns (density, edges) as np.histogram does; with the default span the
    histogram covers every pooled eigenvalue, so the density integrates to 1.
    """
    if span is not None and not span[1] > span[0]:
        raise ValueError("span must have positive width")
    parts, draws = _draws(structure, n, reps, rng)
    eigs = [part.eigvals(blocks) for blocks in draws for part in parts]
    return np.histogram(np.concatenate(eigs), bins=bins, range=span, density=True)


def block_resolvent_trace(structure, n, reps, z, rng=0) -> np.ndarray:
    """Average over reps of the L x L matrix of per-block normalized resolvent
    traces (1/N) Tr[(X - z)^-1_{ij}]; the finite-N counterpart of M(z). Each
    draw's is the sum of its parts' shares (`_Part.resolvent_trace`)."""
    parts, draws = _draws(structure, n, reps, rng)
    z = complex(z)
    if z.imag <= 0 and z.real <= right_edge(structure).r_inf + 1e-8:
        raise ValueError("z must have positive imaginary part or lie right of the support")
    return sum(part.resolvent_trace(blocks, z) for blocks in draws for part in parts) / reps


# ---------------------------------------------------------------------------
# direct window counting

def _dense_batch_hits(structure, x, delta, n, reps, rng, one_sided, batch):
    return sum(1 for _ in _window_draws(structure, x, delta, n, reps, rng, one_sided, batch))


def _sturm_below(d, e2, t):
    """Per column: number of eigenvalues of the tridiagonal (diag d, e^2 = e2)
    lying below t, by counting negative pivots of the shifted LDL sweep.

    d has shape (n, m) and e2 shape (n - 1, m): row i holds entry i of all m
    matrices, so each step of the sweep reads two contiguous rows. A pivot
    below 1e-120 in modulus is replaced by -1e-120 before it is counted and
    divided by (LAPACK's dstebz does the same), so an exactly zero pivot
    counts as negative."""
    q = d[0] - t
    row = np.empty_like(q)
    cnt = np.zeros(q.shape, dtype=np.int64)
    for i in range(d.shape[0]):
        if i:
            np.divide(e2[i - 1], q, out=q)
            np.subtract(d[i], t, out=row)
            np.subtract(row, q, out=q)
        np.copyto(q, -1e-120, where=np.abs(q, out=row) < 1e-120)
        cnt += q < 0
    return cnt


def _tridiagonal_batch(gen, beta, n, m):
    """m draws of the beta-Hermite tridiagonal form of an N x N GOE (beta=1)
    or GUE (beta=2) block, which has the block's eigenvalue law.

    Row i holds entry i of all m draws: d (n, m) with d_i ~ N(0, 2/(beta n)),
    then e2 (n - 1, m) with e_i^2 ~ chi^2_{beta (n-1-i)} / (beta n), one
    chisquare call per row, filled in place. Row 0 is the block's (1, 1)
    entry: Householder reduction from the first column fixes e_1.
    """
    d = np.empty((n, m))
    gen.standard_normal(out=d)
    d *= math.sqrt(2.0 / (beta * n))
    e2 = np.empty((n - 1, m))
    for i in range(n - 1):
        np.divide(gen.chisquare(beta * (n - 1 - i), m), beta * n, out=e2[i])
    return d, e2


def _scalar_coefficients(structure):
    """(c, a) of a scalar structure X = c Id + a W."""
    return float(np.real(structure.a0[0, 0])), float(np.real(structure.a[0][0, 0]))


def _tridiagonal_batch_hits(structure, x, delta, n, reps, rng, one_sided, batch):
    """Hits among batch `batch`'s tridiagonal draws, from stream (seed, b)."""
    c, a = _scalar_coefficients(structure)
    m = min(_TRI_BATCH, reps - batch * _TRI_BATCH)
    if structure.noiseless:
        return m * int(c >= x - delta if one_sided else abs(c - x) <= delta)  # X = c Id
    # lambda_1(X) < s  <=>  all eigenvalues of W below (s-c)/a   (a > 0)
    #                  <=>  no eigenvalue of W below (s-c)/a     (a < 0)

    def below(d, e2, s):
        cnt = _sturm_below(d, e2, (s - c) / a)
        return cnt == n if a > 0 else cnt == 0

    d, e2 = _tridiagonal_batch(_draw_stream(rng, batch), structure.beta, n, m)
    hit = ~below(d, e2, x - delta)
    if not one_sided:
        # only the draws above the lower edge need the upper-edge sweep
        hit[hit] = below(d[:, hit], e2[:, hit], x + delta)
    return int(hit.sum())


def _tridiagonal_ok(structure):
    return structure.L == 1 and structure.k == 1


def tail_probability(structure, x, delta, n, reps, rng, one_sided=False,
                     sampler="dense") -> TailEstimate:
    """Direct-count estimate of P(|lambda_1 - x| <= delta) with an exact
    binomial (Clopper-Pearson) interval.

    sampler="tridiagonal" switches to the beta-Hermite reduction (same
    eigenvalue law, no dense matrices; scalar structures only) for long runs;
    "auto" picks it whenever it applies. Matched-seed comparisons against
    importance_tail require the default dense sampler.

    The dense sampler decides the window by Cholesky factorizations at both
    ends (lambda_1 < x - delta, then lambda_1 < x + delta), block by block
    in the joint eigenbasis when the structure's matrices commute, and never
    computes an eigenvalue. A draw is counted differently from an eigensolve
    only when its lambda_1 lies within rounding of a window end.

    With an integer seed and at least two batches, the batches run on one
    forked process per CPU this process may use (its affinity mask; `taskset
    -c 0` keeps them in-process), at most one per batch; `processes` reports
    how many drew them. The estimate is the same either way.
    """
    if reps < 1 or n < 1:
        raise ValueError("N and reps must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if sampler == "auto":
        sampler = "tridiagonal" if _tridiagonal_ok(structure) else "dense"
    if sampler == "tridiagonal":
        if not _tridiagonal_ok(structure):
            raise ValueError("tridiagonal sampling needs a scalar structure (L=1, k=1)")
        batch_hits, size = _tridiagonal_batch_hits, _TRI_BATCH
    elif sampler == "dense":
        batch_hits, size = _dense_batch_hits, _batch_size(structure.L * n, reps)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    nbatches = _nbatches(reps, size)
    batch = functools.partial(batch_hits, structure, x, delta, n, reps, rng, one_sided)
    hits = sum(_map_batches(batch, nbatches, rng))
    p_hat = hits / reps
    rate_hat = math.inf if hits == 0 else -math.log(p_hat) / n
    lo, hi = _clopper_pearson(hits, reps)
    return TailEstimate(x=float(x), delta=float(delta), N=n, reps=reps, hits=hits,
                        p_hat=p_hat, rate_hat=rate_hat, ci_low=lo, ci_high=hi,
                        method="direct", processes=_processes(nbatches, rng))


# ---------------------------------------------------------------------------
# importance sampling

def importance_tail(structure, x, delta, n, reps, rng, psi=None, theta=None,
                    one_sided=False) -> TailEstimate:
    """Tilted estimate of P(|lambda_1 - x| <= delta).

    Draws X under the exponential tilt exp(beta N theta <u,Xu>) with a fixed
    u realizing psi (default Id/L) and reweights by the exact density ratio

        w = exp(beta N theta (theta T2 - T1)),
        T1 = <u,Xu> - <u,(A0 x Id)u> = sum_j Re Tr[B_j C_j],  T2 = sum_j ||C_j||_F^2,

    the closed form of exp(-beta N theta <u,Xu> + Lambda), with C_j = U A_j^T
    U* (Hermitian) and B_j = W_j + 2 theta C_j the tilted blocks. theta defaults to
    the tilt whose predicted outlier sits at the window's lower edge x - delta
    (tilting to x itself would push most of the mass past the window).

    The reported interval scales the binomial bounds for the tilted hit count
    by the mean hit weight; unlike the direct case it is a heuristic. ess is
    the effective sample size of the hit estimator; below 10 the estimate is
    flagged unreliable.

    A tilted draw is a draw of the blocks W_j + 2 theta C_j, its window
    decided as in `tail_probability`'s dense sampler (Cholesky factorizations
    at both ends, block by block when the matrices commute), and its weight
    is read off the blocks: X is never assembled.
    """
    if reps < 1 or n < 1:
        raise ValueError("N and reps must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    psi = as_profile(np.eye(structure.L) / structure.L if psi is None else psi)
    if theta is None:
        if x - delta <= right_edge(structure).r_inf:
            raise ValueError("window lower edge x - delta must exceed the support "
                             "edge; pass theta explicitly otherwise")
        theta = tilt_for_target(structure, x - delta, psi)
    elif theta < 0:
        raise ValueError("theta must be >= 0")

    u = profile_vector(structure, psi, n, _draw_stream(rng, reps))
    nbatches = _nbatches(reps, _batch_size(structure.L * n, reps))
    batch = functools.partial(_importance_batch_weights, structure, x, delta, n, reps, rng,
                              one_sided, theta, u)
    w_hit = [w for ws in _map_batches(batch, nbatches, rng) for w in ws]
    hits = len(w_hit)

    sum_hit = math.fsum(w_hit)
    p_hat = sum_hit / reps
    rate_hat = math.inf if p_hat <= 0 else -math.log(p_hat) / n
    ess = sum_hit * sum_hit / math.fsum(w * w for w in w_hit) if hits else 0.0
    lo, hi = _clopper_pearson(hits, reps)
    scale = sum_hit / hits if hits else 1.0
    return TailEstimate(x=float(x), delta=float(delta), N=n, reps=reps, hits=hits,
                        p_hat=p_hat, rate_hat=rate_hat, ci_low=lo * scale,
                        ci_high=hi * scale, method="importance", ess=ess,
                        unreliable=ess < 10, processes=_processes(nbatches, rng))


def _importance_batch_weights(structure, x, delta, n, reps, rng, one_sided, theta, u, batch):
    """The weights of batch `batch`'s tilted hits, in draw order."""
    c = _tilt_blocks(structure, u)
    t2 = float(np.vdot(c, c).real)
    weights = []
    for blocks in _window_draws(structure, x, delta, n, reps, rng, one_sided, batch,
                                2.0 * theta * c):
        t1 = float(np.vdot(c, blocks).real)
        weights.append(math.exp(structure.beta * n * theta * (theta * t2 - t1)))
    return weights


def _tilted_tridiagonal_lambda1(structure, theta, n, reps, rng):
    """lambda_1 of reps tilted draws of a scalar structure X = c Id + a W.

    The tilted draw X + 2 theta a^2 u u* is c Id + a (W + 2 theta a u u*). A
    rotation taking u to e_1 leaves the law of W unchanged, and Householder
    tridiagonalization from the first column leaves e_1 e_1^T unchanged, so
    its eigenvalues have the law of those of c Id + a (T + 2 theta a e_1
    e_1^T) for the beta-Hermite T (Bloemendal-Virag): the tilt shifts T's
    first diagonal entry. lambda_1 is c + a times T's top eigenvalue (its bottom one when
    a < 0), one LAPACK bisection (stebz) per draw. Batches are those of
    `_tridiagonal_batch_hits`.
    """
    c, a = _scalar_coefficients(structure)
    if structure.noiseless:
        return np.full(reps, c)
    batch = functools.partial(_tilted_tridiagonal_batch, structure, theta, n, reps, rng)
    return c + a * np.concatenate(_map_batches(batch, _nbatches(reps, _TRI_BATCH), rng))


def _tilted_tridiagonal_batch(structure, theta, n, reps, rng, batch):
    """The spiked tridiagonal's top (a > 0) or bottom (a < 0) eigenvalue for
    each of batch `batch`'s draws, from stream (seed, b)."""
    a = _scalar_coefficients(structure)[1]
    k = n - 1 if a > 0 else 0
    m = min(_TRI_BATCH, reps - batch * _TRI_BATCH)
    d, e2 = _tridiagonal_batch(_draw_stream(rng, batch), structure.beta, n, m)
    d[0] += 2.0 * theta * a
    e = np.sqrt(e2, out=e2)
    return np.array([eigvalsh_tridiagonal(dj, ej, select="i", select_range=(k, k))[0]
                     for dj, ej in zip(d.T, e.T)])


def tilted_outlier_check(structure, theta, psi, n, reps, rng=0) -> TiltCheck:
    """Empirical mean of lambda_1 under the tilt vs the predicted root Z(theta).

    theta is the sampler tilt: the draws are those of `model.sample_tilted`,
    from the blocks W_j + 2 theta C_j, and Z is `largest_outlier`(theta,
    psi). A scalar structure (L = 1, k = 1) draws the spiked tridiagonal form
    of the tilted law (`_tilted_tridiagonal_lambda1`), O(N) per draw; other
    structures draw the blocks of `sample_tilted`, with u = `profile_vector`(psi)
    from stream (seed, 1) and the draws from stream (seed, 0), and take
    lambda_1 part by part (`_Part.top`; a commuting structure's parts are N x N).

    Z = r_inf (no crossing of the outlier equation) is a valid prediction: it
    says the tilt is too weak to pull lambda_1 off the bulk edge.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2 to report a spread")
    if n < 1:
        raise ValueError("N must be >= 1")
    psi = as_profile(psi)
    z_pred = largest_outlier(structure, theta, psi).Z
    if _tridiagonal_ok(structure):
        lams = _tilted_tridiagonal_lambda1(structure, theta, n, reps, rng)
    else:
        u = profile_vector(structure, psi, n, _draw_stream(rng, 1))
        mean = 2.0 * theta * _tilt_blocks(structure, u)
        parts, draws = _draws(structure, n, reps, _draw_stream(rng, 0), mean)
        lams = np.array([max(part.top(blocks) for part in parts) for blocks in draws])
    dev = lams - lams[0]  # all exactly 0 when the draws have no spread
    mean = float(lams[0] + dev.mean())
    sd = float(dev.std(ddof=1))
    se = sd / math.sqrt(reps)
    diff = mean - z_pred
    if se > 0:
        disc = diff / se
    else:
        disc = 0.0 if diff == 0 else math.copysign(math.inf, diff)
    return TiltCheck(theta=float(theta), N=n, reps=reps, mean_lambda1=mean,
                     sd_lambda1=sd, se_mean=se, predicted_z=z_pred,
                     discrepancy=float(disc))


# ---------------------------------------------------------------------------
# profiles of uniform sphere vectors

def _wishart_density_bins(n, p_edges, c_edges, rule=24):
    """Bin-averaged normalized density of (psi_11, Re psi_12) for L = 2:
    proportional to det(psi)^((n-3)/2) on the lens det > 0. The edges must
    cover the full support for the normalization to be correct."""
    power = (n - 3) / 2.0
    nodes, weights = leggauss(rule)
    p_edges = np.asarray(p_edges, dtype=float)
    c_edges = np.asarray(c_edges, dtype=float)
    pm, ph = (p_edges[:-1] + p_edges[1:]) / 2, np.diff(p_edges) / 2
    cm, ch = (c_edges[:-1] + c_edges[1:]) / 2, np.diff(c_edges) / 2
    pp = pm[:, None] + ph[:, None] * nodes[None, :]          # (bp, rule)
    cc = cm[:, None] + ch[:, None] * nodes[None, :]          # (bc, rule)
    det = (pp * (1.0 - pp))[:, None, :, None] - (cc * cc)[None, :, None, :]
    f = np.where(det > 0, np.abs(det) ** power, 0.0)
    mass = np.einsum("a,b,iajb->ij", weights, weights,
                     np.swapaxes(f, 1, 2)) * ph[:, None] * ch[None, :]
    mass /= mass.sum()
    return mass / (np.diff(p_edges)[:, None] * np.diff(c_edges)[None, :])


def profile_histogram(L, n, reps, rng, bins=20) -> ProfileHistogram:
    """Sample rho(u) for u uniform on the real NL-sphere and summarize it.

    For L = 2 the summary carries a binned density over (psi_11, Re psi_12)
    next to the bin-averaged analytic law with exponent (N-L-1)/2.
    """
    if L < 1 or n < L:
        raise ValueError("need L >= 1 and N >= L")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    gen = _draw_stream(rng)
    psis = np.empty((reps, L, L))
    done = 0
    while done < reps:
        m = min(reps - done, max(1, int(2e7 // (L * n))))
        g = gen.standard_normal((m, L, n))
        g /= np.linalg.norm(g.reshape(m, -1), axis=1)[:, None, None]
        psis[done:done + m] = np.einsum("ria,rja->rij", g, g)
        done += m
    dets = np.linalg.det(psis)

    mean = psis.mean(axis=0)
    sd = psis.std(axis=0, ddof=1)
    hist, det_edges = np.histogram(dets, bins=200, range=(0.0, float(L) ** -L))
    det_mode = float((det_edges[np.argmax(hist)] + det_edges[np.argmax(hist) + 1]) / 2)
    frac = float(np.mean(dets < 0.5 * float(L) ** -L))

    if L != 2:
        return ProfileHistogram(L=L, N=n, reps=reps, mean_profile=mean,
                                mean_se=sd / math.sqrt(reps), entry_sd=sd,
                                det_mode=det_mode, det_frac_below_half=frac)
    p_edges = np.linspace(0.0, 1.0, bins + 1)
    c_edges = np.linspace(-0.5, 0.5, bins + 1)
    counts, _, _ = np.histogram2d(psis[:, 0, 0], psis[:, 0, 1],
                                  bins=[p_edges, c_edges])
    emp = counts / (reps * np.diff(p_edges)[:, None] * np.diff(c_edges)[None, :])
    ana = _wishart_density_bins(n, p_edges, c_edges)
    return ProfileHistogram(L=L, N=n, reps=reps, mean_profile=mean,
                            mean_se=sd / math.sqrt(reps), entry_sd=sd,
                            det_mode=det_mode, det_frac_below_half=frac,
                            p_edges=p_edges, c_edges=c_edges, counts=counts,
                            empirical_density=emp, analytic_density=ana)


# ---------------------------------------------------------------------------
# records

def estimate_record(est: TailEstimate, structure, seed) -> dict:
    """Strict-JSON record of a TailEstimate with provenance fields; an
    infinite value (rate_hat when nothing was hit) is written as null."""
    from . import __version__

    rec = {"kind": "tail_estimate", "structure": structure_hash(structure),
           "seed": int(seed), "version": __version__}
    for name in ("x", "delta", "N", "reps", "hits", "p_hat", "rate_hat",
                 "ci_low", "ci_high", "method", "ess", "unreliable"):
        val = getattr(est, name)
        # strict JSON has no Infinity: an infinite rate_hat (no hits) is null
        rec[name] = None if isinstance(val, float) and math.isinf(val) else val
    return rec


def write_jsonl(path, records):
    """Append records (dicts) to a JSON-lines file, one per line."""
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, allow_nan=False) + "\n")
