"""Sampling estimators against the deterministic layers and against each other.

The importance-weight formula is anchored to first principles: its log is
compared with the difference of raw Gaussian block log-densities, which is
what "exact likelihood ratio" means and what a sign or transpose slip would
break. Statistical assertions run on fixed seeds and were calibrated with
pilot runs at a 2x-or-better margin; none is tighter than 4 sample sd.
"""

import concurrent.futures
import json
import math
import multiprocessing
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigvalsh_tridiagonal, hessenberg

from kronldp import make_structure, stream, structure_hash
from kronldp.mde import right_edge, solve_mde
from kronldp.model import (_assemble, _draw_blocks, _draw_stream, _tilt_blocks, profile_vector,
                           rho_profile, sample_tilted)
from kronldp import model, montecarlo
from kronldp.montecarlo import (
    ProfileHistogram,
    TailEstimate,
    _batch_size,
    _clopper_pearson,
    _sturm_below,
    _tilted_tridiagonal_lambda1,
    _tridiagonal_batch,
    block_resolvent_trace,
    empirical_spectrum,
    estimate_record,
    importance_tail,
    profile_histogram,
    simulate_lambda1,
    tail_probability,
    tilted_outlier_check,
    write_jsonl,
)
from oracles import tilt_matrix

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def sc():
    return make_structure([[0.0]], [[[1.0]]])


@pytest.fixture(scope="module")
def pair():
    return make_structure(np.diag([0.2, -0.1]), [np.diag([1.0, 0.5]), 0.4 * FLIP])


@pytest.fixture(scope="module")
def herm():
    h = np.array([[0.0, 1j], [-1j, 0.0]])
    return make_structure(0.3 * np.eye(2), [h, np.eye(2)], beta=2)


# ---------------------------------------------------------------------------
# importance weights are the exact Gaussian density ratio

def _log_block_density_drop(structure, raw, shifted, n):
    """ln p(shifted) - ln p(raw) under the base block law: the Gaussian
    orthogonal/unitary densities are exp(-N Tr W^2/4) resp. exp(-N Tr W^2/2)
    up to a common constant."""
    scale = n / 4.0 if structure.beta == 1 else n / 2.0
    drop = 0.0
    for j in range(structure.k):
        drop -= scale * float(np.real(np.trace(shifted[j] @ shifted[j])
                                      - np.trace(raw[j] @ raw[j])))
    return drop


def _tilt_moments(structure, u):
    """mu = <u,(A0 x Id)u> and T2 = sum_j Tr[C_j^2] = sum_j ||C_j||_F^2
    (Hermitian C_j): the weight formula's terms read off the assembled X."""
    ub, c = np.asarray(u).reshape(structure.L, -1), _tilt_blocks(structure, u)
    mu = float(np.real(np.sum(structure.a0 * (ub.conj() @ ub.T))))
    return mu, float(np.vdot(c, c).real)


@pytest.mark.parametrize("which", ["pair", "herm"])
def test_weight_equals_density_ratio(which, pair, herm):
    st = {"pair": pair, "herm": herm}[which]
    n = 6
    u = profile_vector(st, np.eye(2) / 2, n, stream(5, 1))
    ub = u.reshape(st.L, n)
    mu, t2 = _tilt_moments(st, u)
    for theta in (0.3, 0.7, 1.2):
        for seed in (2, 5):
            raw = _draw_blocks(st, n, stream(seed, 0))
            shifted = np.array([raw[j] + 2 * theta * (ub.T @ st.a[j].T @ np.conj(ub))
                                for j in range(st.k)])
            x_tilted = _assemble(st, shifted, n)
            quad = float(np.real(np.vdot(u, x_tilted @ u)))
            lnw_formula = st.beta * n * theta * (theta * t2 - (quad - mu))
            lnw_density = _log_block_density_drop(st, raw, shifted, n)
            assert lnw_formula == pytest.approx(lnw_density, abs=1e-10)


def test_mean_weight_is_one_at_zero_tilt(sc):
    n, reps = 40, 200
    u = profile_vector(sc, [[1.0]], n, stream(17, reps))
    mu, t2 = _tilt_moments(sc, u)
    gen = stream(17, 0)
    for _ in range(reps):
        x = _assemble(sc, _draw_blocks(sc, n, gen), n)
        quad = float(np.real(np.vdot(u, x @ u)))
        assert math.exp(0.0 * (0.0 * t2 - (quad - mu))) == 1.0


def test_mean_weight_small_tilt(sc):
    n, reps, theta = 50, 4000, 0.05
    u = profile_vector(sc, [[1.0]], n, stream(17, reps))
    mu, t2 = _tilt_moments(sc, u)
    gen = stream(17, 0)
    ws = np.empty(reps)
    for r in range(reps):
        x = sample_tilted(sc, n, theta, u, gen)
        quad = float(np.real(np.vdot(u, x @ u)))
        ws[r] = math.exp(n * theta * (theta * t2 - (quad - mu)))
    assert abs(ws.mean() - 1.0) <= 3.0 / math.sqrt(reps)


def test_change_of_measure_identity(sc):
    # E_tilted[w g(X)] = E[g(X)] for a bounded spectral statistic, checked on
    # matched draws: the tilted matrix is the base matrix plus the shift, so
    # the paired differences carry most of the variance away.
    n, reps, theta = 50, 2000, 0.05
    u = profile_vector(sc, [[1.0]], n, stream(23, reps))
    mu, t2 = _tilt_moments(sc, u)
    shift = 2 * theta * tilt_matrix(sc, u)
    gen = stream(23, 0)
    diffs = np.empty(reps)
    for r in range(reps):
        x = _assemble(sc, _draw_blocks(sc, n, gen), n)
        x_tilted = x + shift
        lam_t = float(np.linalg.eigvalsh(x_tilted)[-1])
        quad = float(np.real(np.vdot(u, x_tilted @ u)))
        w = math.exp(n * theta * (theta * t2 - (quad - mu)))
        diffs[r] = w * min(lam_t, 3.0) - min(float(np.linalg.eigvalsh(x)[-1]), 3.0)
    se = diffs.std(ddof=1) / math.sqrt(reps)
    assert abs(diffs.mean()) <= 5 * se


# ---------------------------------------------------------------------------
# direct window counting

def test_tail_below_bulk_window_is_empty(sc):
    est = tail_probability(sc, 0.0, 0.1, 80, 300, 3)
    assert est.hits == 0
    assert est.p_hat == 0.0
    assert math.isinf(est.rate_hat)
    assert est.ci_low == 0.0
    assert 0.0 < est.ci_high < 0.02
    assert est.method == "direct"


def test_tail_window_at_edge_is_full(sc):
    est = tail_probability(sc, 2.0, 0.3, 200, 200, 5)
    assert est.p_hat >= 0.9


def test_tail_one_sided_dominates_two_sided(sc):
    two = tail_probability(sc, 2.0, 0.12, 80, 400, 11)
    one = tail_probability(sc, 2.0, 0.12, 80, 400, 11, one_sided=True)
    assert one.p_hat >= two.p_hat
    assert two.ci_low <= two.p_hat <= two.ci_high


def test_tail_reproducible_and_seed_sensitive(sc):
    a = tail_probability(sc, 2.05, 0.15, 60, 400, 11)
    b = tail_probability(sc, 2.05, 0.15, 60, 400, 11)
    c = tail_probability(sc, 2.05, 0.15, 60, 400, 12)
    assert (a.p_hat, a.hits, a.ci_low, a.ci_high) == (b.p_hat, b.hits, b.ci_low, b.ci_high)
    assert a.hits != c.hits


def test_tail_accepts_generator_rng(sc):
    est = tail_probability(sc, 2.0, 0.3, 50, 200, stream(9, 0))
    assert 0.0 <= est.p_hat <= 1.0


def test_tail_validation(sc, pair):
    with pytest.raises(ValueError):
        tail_probability(sc, 2.0, 0.0, 50, 100, 0)
    with pytest.raises(ValueError):
        tail_probability(sc, 2.0, 0.1, 50, 0, 0)
    with pytest.raises(ValueError):
        tail_probability(sc, 2.0, 0.1, 50, 100, 0, sampler="fancy")
    with pytest.raises(ValueError):
        tail_probability(pair, 2.0, 0.1, 50, 100, 0, sampler="tridiagonal")


@pytest.mark.parametrize("reps", [1, 7, 400, 18000])
def test_clopper_pearson_equals_beta_quantiles(reps):
    from scipy.stats import beta

    for hits in sorted({0, 1, reps // 3, reps // 2, reps - 1, reps}):
        want_lo = 0.0 if hits == 0 else beta.ppf(0.025, hits, reps - hits + 1)
        want_hi = 1.0 if hits == reps else beta.ppf(0.975, hits + 1, reps - hits)
        assert _clopper_pearson(hits, reps) == (want_lo, want_hi)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about as much to import as the rest of the package
    code = "import sys, kronldp, kronldp.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# tridiagonal reduction agrees with the dense sampler

def _tridiagonals(d, e2):
    """The (m, n, n) stack of tridiagonals with diagonal d[:, c] and squared
    off-diagonal e2[:, c], column c of the (n, m) and (n - 1, m) arrays."""
    n, m = d.shape
    t = np.zeros((m, n, n))
    i = np.arange(n)
    t[:, i, i] = d.T
    t[:, i[:-1], i[1:]] = t[:, i[1:], i[:-1]] = np.sqrt(e2.T)
    return t


def test_sturm_count_matches_eigvalsh():
    rng = np.random.default_rng(8)
    n, m = 7, 60
    d = rng.standard_normal((n, m))
    e2 = rng.chisquare(2.0, (n - 1, m))
    eigs = np.linalg.eigvalsh(_tridiagonals(d, e2))
    # t = d[0, 3] makes the first pivot of column 3 exactly zero
    for t in (-2.0, 0.0, 0.4, 1.7, d[0, 3]):
        assert np.min(np.abs(eigs - t)) > 1e-9
        want = (eigs < t).sum(axis=1)
        assert _sturm_below(d, e2, t).tolist() == want.tolist()


@pytest.mark.parametrize("beta, c, a, x, delta", [
    (1, 0.0, 1.0, 2.0, 0.2),
    (2, 0.0, 1.0, 1.9, 0.15),
    (1, 0.3, -1.5, 3.3, 0.3),
])
@pytest.mark.parametrize("one_sided", [False, True])
def test_tridiagonal_hits_match_dense_eigensolve(beta, c, a, x, delta, one_sided,
                                                 monkeypatch):
    # batches of 128 draws: the 300 draws come from streams (seed, 0), (seed, 1)
    # and (seed, 2), rebuilt here in the layout `_tridiagonal_batch_hits` draws them
    monkeypatch.setattr(montecarlo, "_TRI_BATCH", 128)
    st = make_structure([[c]], [[[a]]], beta=beta)
    n, reps, seed = 8, 300, 19
    want = 0
    for batch, done in enumerate(range(0, reps, 128)):
        m = min(128, reps - done)
        gen = _draw_stream(seed, batch)
        d = gen.standard_normal((n, m)) * math.sqrt(2.0 / (beta * n))
        e2 = np.array([gen.chisquare(beta * (n - 1 - i), m) / (beta * n)
                       for i in range(n - 1)])
        spec = c + a * np.linalg.eigvalsh(_tridiagonals(d, e2))
        lam = spec.max(axis=1)
        want += int(np.sum(lam >= x - delta if one_sided else np.abs(lam - x) <= delta))
    assert 0 < want < reps
    assert tail_probability(st, x, delta, n, reps, seed, one_sided,
                            sampler="tridiagonal").hits == want


def test_tridiagonal_matches_dense_goe(sc):
    pd = tail_probability(sc, 2.0, 0.05, 100, 2000, 31, one_sided=True)
    pt = tail_probability(sc, 2.0, 0.05, 100, 20000, 32, one_sided=True,
                          sampler="tridiagonal")
    sd = math.sqrt(pd.p_hat * (1 - pd.p_hat) / 2000 + pt.p_hat * (1 - pt.p_hat) / 20000)
    assert abs(pd.p_hat - pt.p_hat) <= 4 * sd


def test_tridiagonal_matches_dense_gue():
    gue = make_structure([[0.0]], [[[1.0]]], beta=2)
    pd = tail_probability(gue, 2.0, 0.05, 100, 2000, 31, one_sided=True)
    pt = tail_probability(gue, 2.0, 0.05, 100, 20000, 32, one_sided=True,
                          sampler="tridiagonal")
    sd = math.sqrt(pd.p_hat * (1 - pd.p_hat) / 2000 + pt.p_hat * (1 - pt.p_hat) / 20000)
    assert abs(pd.p_hat - pt.p_hat) <= 4 * sd


def test_tridiagonal_negative_coefficient():
    neg = make_structure([[0.1]], [[[-1.0]]])
    pd = tail_probability(neg, 2.1, 0.05, 100, 2000, 31, one_sided=True)
    pt = tail_probability(neg, 2.1, 0.05, 100, 20000, 32, one_sided=True,
                          sampler="tridiagonal")
    sd = math.sqrt(pd.p_hat * (1 - pd.p_hat) / 2000 + pt.p_hat * (1 - pt.p_hat) / 20000)
    assert abs(pd.p_hat - pt.p_hat) <= 4 * sd


def test_tridiagonal_auto_dispatch(sc, pair):
    t = tail_probability(sc, 2.0, 0.05, 100, 2000, 32, one_sided=True, sampler="auto")
    t_explicit = tail_probability(sc, 2.0, 0.05, 100, 2000, 32, one_sided=True,
                                  sampler="tridiagonal")
    assert t.hits == t_explicit.hits
    d = tail_probability(pair, 1.0, 2.5, 20, 50, 32, sampler="auto")
    d_explicit = tail_probability(pair, 1.0, 2.5, 20, 50, 32, sampler="dense")
    assert d.hits == d_explicit.hits


def _batch_in_row_layout(gen, beta, n, m):
    # the row-by-row batch draw of version 0.2.0's `_tridiagonal_hits`, copied
    # verbatim
    d = np.empty((n, m))
    gen.standard_normal(out=d)
    d *= math.sqrt(2.0 / (beta * n))
    e2 = np.empty((n - 1, m))
    for i in range(n - 1):
        np.divide(gen.chisquare(beta * (n - 1 - i), m), beta * n, out=e2[i])
    return d, e2


@pytest.mark.parametrize("beta, c, a, x, delta, one_sided", [
    (1, 0.0, 1.0, 1.7, 0.25, False),
    (2, 0.2, -0.9, 1.9, 0.3, True),
])
def test_tridiagonal_counts_keep_the_row_layout(beta, c, a, x, delta, one_sided):
    # reps spills past one _TRI_BATCH, so streams (seed, 0) and (seed, 1) are used
    st = make_structure([[c]], [[[a]]], beta=beta)
    n, seed = 10, 41
    reps = montecarlo._TRI_BATCH + 700
    want = 0
    for batch, done in enumerate(range(0, reps, montecarlo._TRI_BATCH)):
        m = min(montecarlo._TRI_BATCH, reps - done)
        d, e2 = _batch_in_row_layout(_draw_stream(seed, batch), beta, n, m)
        got_d, got_e2 = _tridiagonal_batch(_draw_stream(seed, batch), beta, n, m)
        assert np.array_equal(got_d, d) and np.array_equal(got_e2, e2)
        lam = (c + a * np.linalg.eigvalsh(_tridiagonals(d, e2))).max(axis=1)
        want += int(np.sum(lam >= x - delta if one_sided else np.abs(lam - x) <= delta))
    assert 0 < want < reps
    est = tail_probability(st, x, delta, n, reps, seed, one_sided=one_sided,
                           sampler="tridiagonal")
    assert est.hits == want


# ---------------------------------------------------------------------------
# importance sampling

def test_zero_tilt_importance_equals_direct_exactly(sc):
    d = tail_probability(sc, 2.05, 0.15, 60, 400, 11)
    i = importance_tail(sc, 2.05, 0.15, 60, 400, 11, theta=0.0)
    assert i.p_hat == d.p_hat
    assert i.hits == d.hits
    assert i.ci_low == d.ci_low and i.ci_high == d.ci_high
    assert i.ess == i.hits
    assert i.method == "importance" and not i.unreliable


def test_importance_matches_direct_mild_tilt(sc):
    # same-channel window with a subcritical tilt: the regime where the
    # fixed-direction estimator is valid (weights spread over e^{+-1}, not
    # e^{+-10}); calibrated ratio 1.10 at these seeds
    d = tail_probability(sc, 2.5, 0.45, 100, 2 * 10**5, 51, sampler="tridiagonal")
    i = importance_tail(sc, 2.5, 0.45, 100, 5000, 52, theta=0.05)
    assert not i.unreliable
    assert i.ess > 100
    assert 0.5 <= i.p_hat / d.p_hat <= 2.0


def test_importance_deep_tail_flags_itself(sc):
    # supercritical default tilt against a bulk-edge window: the weights are
    # lognormal with sd(ln w) ~ theta sqrt(2N) >> 1 and the estimator must
    # report that it cannot be trusted rather than return a quiet number
    est = importance_tail(sc, 2.5, 0.05, 100, 1500, 7)
    assert est.unreliable
    assert est.ess < 10


def test_importance_needs_reachable_target(sc):
    with pytest.raises(ValueError, match="support edge"):
        importance_tail(sc, 2.0, 0.5, 50, 10, 1)


def test_importance_rejects_negative_theta(sc):
    with pytest.raises(ValueError):
        importance_tail(sc, 2.5, 0.25, 50, 10, 1, theta=-0.5)


# ---------------------------------------------------------------------------
# per-draw dense estimators reproduce the batched algorithm bit for bit

def _kron_assemble(structure, blocks, n):
    x = np.kron(structure.a0, np.eye(n, dtype=structure.a0.dtype))
    for aj, wj in zip(structure.a, blocks):
        x += np.kron(aj, wj)
    return x


def _reference_window(structure, x, delta, n, reps, seed, one_sided, theta=None):
    """The batched algorithm the per-draw estimators replaced: batch b holds
    _batch_size draws from stream (seed, b), X is built with np.kron (from
    the blocks shifted by the tilted law's mean 2 theta C_j for importance
    sampling) and every draw is diagonalized. Returns (hits, p_hat); p_hat
    is the weighted one when theta is given."""
    nl = structure.L * n
    if theta is not None:
        u = profile_vector(structure, np.eye(structure.L) / structure.L, n,
                           _draw_stream(seed, reps))
        mu, t2 = _tilt_moments(structure, u)
        ub = u.reshape(structure.L, n)
        mean = np.array([2.0 * theta * (ub.T @ aj.T @ np.conj(ub)) for aj in structure.a])
    bs = _batch_size(nl, reps)
    weights = []
    for batch, done in enumerate(range(0, reps, bs)):
        gen = _draw_stream(seed, batch)
        for _ in range(min(bs, reps - done)):
            blocks = _draw_blocks(structure, n, gen)
            if theta is not None and theta > 0:
                blocks = blocks + mean
            xm = _kron_assemble(structure, blocks, n)
            lam = np.linalg.eigvalsh(xm)[-1]
            if not (lam >= x - delta if one_sided else abs(lam - x) <= delta):
                continue
            if theta is None:
                weights.append(1.0)
            else:
                quad = float(np.real(np.vdot(u, xm @ u)))
                weights.append(math.exp(structure.beta * n * theta
                                        * (theta * t2 - (quad - mu))))
    return len(weights), math.fsum(weights) / reps


@pytest.fixture(scope="module")
def dsum():
    return make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_assemble_equals_kron_form_bitwise(sc, dsum, herm, pair):
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    generic = make_structure(-0.7 * (h + h.conj().T), [h @ h.conj().T, np.eye(2)], beta=2)
    # off-diagonal blocks -0.5 Id + 0 W_1: the kron form leaves signed zeros there
    zeros = make_structure([[0.1, -0.5], [-0.5, 0.2]], [np.diag([1.0, 0.5])])
    # L = 3, k = 3 with dense complex A_j pins the (L, N, L, N) view past L = 2
    g = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    herm3 = g + np.conj(np.swapaxes(g, 1, 2))
    wide = make_structure(herm3[0], herm3[1:], beta=2)
    for st in (sc, dsum, herm, pair, generic, zeros, wide):
        n = 7
        blocks = _draw_blocks(st, n, stream(4, 0))
        assert _assemble(st, blocks, n).tobytes() == _kron_assemble(st, blocks, n).tobytes()


@pytest.fixture(scope="module")
def rot3():
    """Commuting L = 3, beta = 2: every matrix is q diag(.) q* for one complex
    unitary q, so X is unitarily the direct sum of three GUE-driven blocks."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))

    def rot(d):
        return q @ np.diag(d) @ q.conj().T

    return make_structure(rot([0.2, -0.1, 0.0]), [rot([1.0, 0.5, -0.8]), rot([0.3, 0.9, 0.4])],
                          beta=2)


@pytest.mark.parametrize("which", ["goe", "dsum", "herm", "pair", "rot3"])
@pytest.mark.parametrize("one_sided", [False, True])
def test_dense_estimators_match_batched_reference(which, one_sided, sc, dsum, herm, pair, rot3):
    st = {"goe": sc, "dsum": dsum, "herm": herm, "pair": pair, "rot3": rot3}[which]
    n = 12 if st.L == 1 else 6
    reps, seed, x, delta = 700, 41, 2.2, 0.2
    assert _batch_size(st.L * n, reps) < reps  # at least two streams
    hits, p_hat = _reference_window(st, x, delta, n, reps, seed, one_sided)
    assert 0 < hits < reps
    d = tail_probability(st, x, delta, n, reps, seed, one_sided=one_sided)
    assert (d.hits, d.p_hat) == (hits, p_hat)
    for theta in (0.0, 0.05):
        hits, p_hat = _reference_window(st, x, delta, n, reps, seed, one_sided, theta)
        i = importance_tail(st, x, delta, n, reps, seed, theta=theta, one_sided=one_sided)
        assert (i.hits, i.p_hat) == (hits, p_hat)


@pytest.fixture
def serial(monkeypatch):
    """Every batch runs in this process, where a recorder can see it."""
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)


def _record_cholesky_shapes(monkeypatch):
    shapes = []
    for name in ("dpotrf", "zpotrf"):
        def recorded(a, *args, _potrf=getattr(montecarlo, name), **kwargs):
            shapes.append(a.shape)
            return _potrf(a, *args, **kwargs)
        monkeypatch.setattr(montecarlo, name, recorded)
    return shapes


def test_commuting_structure_factors_only_n_by_n(herm, monkeypatch, serial):
    # herm's matrices commute: X is unitarily two N x N blocks, and neither
    # the count nor the tilted count ever factors the 2N x 2N matrix
    shapes = _record_cholesky_shapes(monkeypatch)
    n = 20
    tail_probability(herm, 2.2, 0.2, n, 200, 3)
    importance_tail(herm, 2.2, 0.2, n, 200, 3, theta=0.05)
    assert shapes and set(shapes) == {(n, n)}


def test_nearly_commuting_structure_is_factored_whole(dsum, monkeypatch, serial):
    # a 1e-9 off-diagonal entry breaks the joint eigenbasis: one 2N x 2N part
    shapes = _record_cholesky_shapes(monkeypatch)
    n = 10
    bent = make_structure(dsum.a0, [dsum.a[0] + 1e-9 * FLIP, dsum.a[1]])
    tail_probability(dsum, 2.2, 0.2, n, 50, 3)
    assert set(shapes) == {(n, n)}
    shapes.clear()
    tail_probability(bent, 2.2, 0.2, n, 50, 3)
    assert set(shapes) == {(2 * n, 2 * n)}


def _record_eigensolver_sizes(monkeypatch):
    """The sizes of the matrices handed to any symmetric eigensolver."""
    solvers = [np.linalg.eigh, np.linalg.eigvalsh, scipy.linalg.eigh, scipy.linalg.eigvalsh]
    sizes = []
    for module in (np.linalg, scipy.linalg, model, montecarlo):
        for name, f in list(vars(module).items()):
            if any(f is s for s in solvers):
                def recorded(a, *args, _f=f, **kwargs):
                    sizes.append(np.shape(a)[0])
                    return _f(a, *args, **kwargs)
                monkeypatch.setattr(module, name, recorded)
    return sizes


@pytest.mark.parametrize("which", ["goe", "herm", "pair"])
def test_window_estimators_make_no_eigensolve(which, sc, herm, pair, monkeypatch, serial):
    # the window is decided by Cholesky factorizations alone: no matrix of
    # the draw's size reaches an eigensolver (the L x L split and the tilt
    # search stay far smaller than N)
    st = {"goe": sc, "herm": herm, "pair": pair}[which]
    x = right_edge(st).r_inf + 0.2
    sizes = _record_eigensolver_sizes(monkeypatch)
    n = 16
    assert tail_probability(st, x, 0.15, n, 300, 9).hits > 0
    assert importance_tail(st, x, 0.15, n, 300, 9).hits > 0
    assert importance_tail(st, x, 0.15, n, 300, 9, theta=0.05, one_sided=True).hits > 0
    assert sizes and max(sizes) < n


def test_dense_tail_holds_no_batch_buffer(sc, serial):
    # three batches, all drawn here: the reused N x N matrix is the largest
    # thing held
    n = 100
    tracemalloc.start()
    try:
        tail_probability(sc, 2.5, 0.45, n, 1100, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * n * 8 <= peak < 20 * n * n * 8


# ---------------------------------------------------------------------------
# batches on worker processes give the in-process results bit for bit

class _BatchFailure(Exception):
    pass


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def _on_cpus(monkeypatch, cpus, call):
    """call() with the batch helper seeing `cpus` CPUs; no worker may outlive it."""
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_cpu_count", lambda: cpus)
        out = call()
    assert multiprocessing.active_children() == []
    return out


@pytest.fixture(scope="module")
def gue():
    return make_structure([[0.0]], [[[1.0]]], beta=2)


@pytest.mark.parametrize("which, sampler", [
    ("goe", "dense"), ("herm", "dense"), ("pair", "dense"),
    ("goe", "tridiagonal"), ("gue", "tridiagonal"),
    ("goe", "importance"), ("herm", "importance"), ("pair", "importance")])
@pytest.mark.parametrize("one_sided", [False, True])
def test_worker_processes_give_the_in_process_estimate(which, sampler, one_sided, sc, gue,
                                                       herm, pair, monkeypatch):
    # herm commutes (beta = 2), pair does not (beta = 1); three batches each
    monkeypatch.setattr(montecarlo, "_TRI_BATCH", 128)
    st = {"goe": sc, "gue": gue, "herm": herm, "pair": pair}[which]
    n, reps = 8 if st.L == 1 else 4, 1100 if sampler != "tridiagonal" else 300
    x, delta = right_edge(st).r_inf, 0.3

    def call():
        if sampler == "importance":
            return importance_tail(st, x, delta, n, reps, 13, theta=0.05, one_sided=one_sided)
        return tail_probability(st, x, delta, n, reps, 13, one_sided=one_sided,
                                sampler=sampler)

    alone, pooled = _on_cpus(monkeypatch, 1, call), _on_cpus(monkeypatch, 2, call)
    assert (alone.processes, pooled.processes) == (1, 2)
    assert 0 < alone.hits < reps
    assert (pooled.hits, pooled.p_hat, pooled.ess) == (alone.hits, alone.p_hat, alone.ess)
    assert pooled == alone


def test_noiseless_tridiagonal_count_is_exact(monkeypatch):
    # X = c Id: every draw is c, so the count is all or nothing in every batch
    monkeypatch.setattr(montecarlo, "_TRI_BATCH", 128)
    st = make_structure([[0.5]], [[[0.0]]])
    for x, hits in ((0.6, 300), (0.9, 0)):
        for cpus in (1, 2):
            est = _on_cpus(monkeypatch, cpus, lambda: tail_probability(
                st, x, 0.2, 8, 300, 5, sampler="tridiagonal"))
            assert (est.hits, est.processes) == (hits, cpus)


def test_worker_processes_give_the_in_process_tilted_lambda1(gue, monkeypatch):
    monkeypatch.setattr(montecarlo, "_TRI_BATCH", 128)
    st = make_structure([[0.2]], [[[-0.8]]])

    def call(structure):
        return lambda: _tilted_tridiagonal_lambda1(structure, 0.7, 12, 300, 17)

    for structure in (st, gue):
        alone = _on_cpus(monkeypatch, 1, call(structure))
        pooled = _on_cpus(monkeypatch, 2, call(structure))
        assert alone.shape == (300,)
        assert pooled.tobytes() == alone.tobytes()


def test_a_generator_runs_its_batches_in_process(sc, monkeypatch):
    # a Generator is one stream, which orders the batches
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    est = _on_cpus(monkeypatch, 2, lambda: tail_probability(
        sc, 2.0, 0.3, 8, 1100, np.random.default_rng(3)))
    assert est.processes == 1 and 0 < est.hits < est.reps


def test_a_daemonic_caller_runs_its_batches_in_process(sc, monkeypatch):
    # a daemonic process may not start children: the batches run in it, and
    # the estimate is the one drawn here
    want = _on_cpus(monkeypatch, 1, lambda: tail_probability(sc, 2.0, 0.3, 8, 1100, 3))
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def run():
        try:
            send.send(tail_probability(sc, 2.0, 0.3, 8, 1100, 3))
        except BaseException as exc:
            send.send(repr(exc))

    proc = ctx.Process(target=run, daemon=True)
    proc.start()
    try:
        assert recv.poll(120), "the daemonic caller sent nothing"
        got = recv.recv()
    finally:
        proc.join(10)
    assert got == want and got.processes == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("sampler", ["dense", "tridiagonal"])
def test_a_failed_batch_raises_its_own_error(sc, sampler, monkeypatch):
    def fail(*args, **kwargs):
        raise _BatchFailure("drawn in a worker")

    monkeypatch.setattr(montecarlo, "_TRI_BATCH", 128)
    monkeypatch.setattr(montecarlo, "_draw_blocks", fail)
    monkeypatch.setattr(montecarlo, "_tridiagonal_batch", fail)
    with pytest.raises(_BatchFailure, match="drawn in a worker"):
        _on_cpus(monkeypatch, 2, lambda: tail_probability(sc, 2.0, 0.3, 8, 1100, 3,
                                                          sampler=sampler))
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# lambda_1 draws, spectra and resolvent traces, part by part

@pytest.fixture(scope="module")
def cgen():
    """Non-commuting, beta = 2: one part, X itself."""
    return make_structure(0.3 * np.diag([1.0, -1.0]), [[[1.0, 0.5j], [-0.5j, 0.2]], FLIP],
                          beta=2)


def _by_parts_and_whole(call, st, n, reps, seed):
    """(what `call` returns, the same from the draws assembled whole): lambda_1
    and rho(v_1) per draw, the pooled histogram, or the mean block traces."""
    gen = _draw_stream(seed)
    xs = [_assemble(st, _draw_blocks(st, n, gen), n) for _ in range(reps)]
    if call == "simulate":
        got = [(lam, prof.psi) for lam, prof in simulate_lambda1(st, n, reps, seed)]
        tops = [np.linalg.eigh(x) for x in xs]
        return got, [(w[-1], rho_profile(v[:, -1], st.L)) for w, v in tops]
    if call == "spectrum":
        got = empirical_spectrum(st, n, reps, rng=seed, bins=17)
        return got, np.histogram([np.linalg.eigvalsh(x) for x in xs], bins=17, density=True)
    z = right_edge(st).r_inf + 0.5 + 0.3j
    resolvents = [np.linalg.inv(x - z * np.eye(len(x))).reshape(st.L, n, st.L, n) for x in xs]
    return (block_resolvent_trace(st, n, reps, z, rng=seed),
            np.mean([np.einsum("ikjk->ij", r) / n for r in resolvents], axis=0))


@pytest.mark.parametrize("call", ["simulate", "spectrum", "resolvent"])
@pytest.mark.parametrize("which", ["dsum", "rot3", "pair", "cgen", "atoms"])
def test_parts_match_the_whole_matrix(call, which, dsum, rot3, pair, cgen):
    # commuting beta = 1 and 2, non-commuting beta = 1 and 2, atoms only
    st = {"dsum": dsum, "rot3": rot3, "pair": pair, "cgen": cgen,
          "atoms": make_structure(np.diag([3.0, 1.0]), [])}[which]
    got, want = _by_parts_and_whole(call, st, 15, 6, 3)
    if call == "simulate":
        for (lam, rho), (lam_ref, rho_ref) in zip(got, want, strict=True):
            assert abs(lam - lam_ref) <= 1e-12
            assert np.abs(rho - rho_ref).max() <= 1e-12
    else:
        assert np.abs(np.asarray(got[0]) - want[0]).max() <= 1e-12
        assert np.abs(np.asarray(got[1]) - want[1]).max() <= 1e-12


@pytest.mark.parametrize("call", ["simulate", "spectrum", "resolvent"])
@pytest.mark.parametrize("which", ["dsum", "rot3"])
def test_commuting_draws_solve_only_n_by_n(call, which, dsum, rot3, monkeypatch):
    # the matrices commute: every eigensolve is one part's N x N matrix, and
    # the NL x NL draw never reaches an eigensolver
    st = {"dsum": dsum, "rot3": rot3}[which]
    sizes = _record_eigensolver_sizes(monkeypatch)
    n = 12
    if call == "simulate":
        simulate_lambda1(st, n, 3, 5)
    elif call == "spectrum":
        empirical_spectrum(st, n, 3, rng=5)
    else:
        block_resolvent_trace(st, n, 3, 1j, rng=5)
    assert sizes and max(sizes) == n


def test_simulate_edge_location(sc):
    rows = simulate_lambda1(sc, 500, 40, 21)
    lams = np.array([lam for lam, _ in rows])
    assert 1.95 <= lams.mean() <= 2.05
    for _, prof in rows[:5]:
        assert prof.psi.shape == (1, 1)
        assert prof.psi[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_simulate_deterministic_atoms():
    atoms = make_structure(np.diag([3.0, 1.0]), [])
    rows = simulate_lambda1(atoms, 50, 5, 0)
    for lam, prof in rows:
        assert lam == pytest.approx(3.0, abs=1e-12)
        assert prof.psi == pytest.approx(np.diag([1.0, 0.0]), abs=1e-12)


def test_simulate_reproducible(sc):
    a = [lam for lam, _ in simulate_lambda1(sc, 30, 4, 13)]
    b = [lam for lam, _ in simulate_lambda1(sc, 30, 4, 13)]
    c = [lam for lam, _ in simulate_lambda1(sc, 30, 4, 14)]
    assert a == b
    assert a != c


def test_simulate_validation(sc):
    with pytest.raises(ValueError):
        simulate_lambda1(sc, 30, 0, 1)


# ---------------------------------------------------------------------------
# pooled spectra

def test_spectrum_matches_semicircle(sc):
    dens, edges = empirical_spectrum(sc, 1000, 10, rng=3, bins=40)
    mids = (edges[:-1] + edges[1:]) / 2
    semi = np.where(np.abs(mids) < 2,
                    np.sqrt(np.maximum(4 - mids**2, 0.0)) / (2 * np.pi), 0.0)
    assert np.abs(dens - semi).max() <= 0.02
    assert np.sum(dens * np.diff(edges)) == pytest.approx(1.0, abs=1e-12)
    # no pooled eigenvalue strays past the edge by more than 0.2
    assert edges[0] >= -2.2 and edges[-1] <= 2.2


def test_spectrum_span_and_validation(sc):
    dens, edges = empirical_spectrum(sc, 100, 5, rng=1, bins=10, span=(-3.0, 3.0))
    assert edges[0] == -3.0 and edges[-1] == 3.0
    with pytest.raises(ValueError):
        empirical_spectrum(sc, 100, 5, rng=1, span=(1.0, 1.0))


# ---------------------------------------------------------------------------
# block resolvent traces

def test_resolvent_semicircle_value(sc):
    g = block_resolvent_trace(sc, 500, 10, 2j, rng=41)
    assert abs(g[0, 0] - (math.sqrt(2) - 1) * 1j) <= 0.02


def test_resolvent_respects_block_structure():
    flat = make_structure(np.zeros((2, 2)), [np.diag([1.0, 0.0])])
    g = block_resolvent_trace(flat, 300, 10, 2j, rng=19)
    # block 1 is a free GOE, block 2 the zero matrix, and they do not mix
    assert abs(g[0, 0] - (math.sqrt(2) - 1) * 1j) <= 0.03
    assert abs(g[1, 1] - 0.5j) <= 1e-8
    assert abs(g[0, 1]) <= 1e-8 and abs(g[1, 0]) <= 1e-8


def test_resolvent_matches_mde_off_axis():
    rng = np.random.default_rng(7)
    a0 = rng.normal(size=(3, 3))
    a0 = (a0 + a0.T) / 4
    mats = []
    for _ in range(2):
        m = rng.normal(size=(3, 3))
        mats.append((m + m.T) / 3)
    st = make_structure(a0, mats)
    z = right_edge(st).r_inf + 1 + 1j
    g = block_resolvent_trace(st, 200, 10, z, rng=13)
    m_ref = solve_mde(st, z).m
    assert np.abs(g - m_ref).max() <= 0.05


def test_resolvent_validation(sc):
    with pytest.raises(ValueError):
        block_resolvent_trace(sc, 50, 2, 1.0, rng=0)  # real z inside the bulk
    g = block_resolvent_trace(sc, 50, 2, 3.0, rng=0)  # real z beyond the edge is fine
    assert abs(g[0, 0].imag) <= 0.05


# ---------------------------------------------------------------------------
# tilted means vs the outlier prediction

def test_tilted_mean_hits_outlier(sc):
    chk = tilted_outlier_check(sc, 1.0, [[1.0]], 400, 100, rng=3)
    assert chk.predicted_z == pytest.approx(2.5, abs=1e-9)
    assert abs(chk.mean_lambda1 - 2.5) <= 0.1
    assert chk.se_mean > 0
    assert abs(chk.discrepancy) < 5


def test_tilted_mean_subcritical_stays_at_edge(sc):
    chk = tilted_outlier_check(sc, 0.4, [[1.0]], 200, 50, rng=3)
    assert chk.predicted_z == pytest.approx(2.0, abs=1e-6)
    assert abs(chk.mean_lambda1 - 2.0) <= 0.1


def test_tilted_mean_block_critical():
    flat = make_structure(np.zeros((2, 2)), [np.eye(2)])
    chk = tilted_outlier_check(flat, 1.0, np.eye(2) / 2, 300, 60, rng=5)
    assert abs(chk.mean_lambda1 - chk.predicted_z) <= 0.15


def test_tilted_check_validation(sc):
    with pytest.raises(ValueError):
        tilted_outlier_check(sc, 1.0, [[1.0]], 50, 1, rng=0)


@pytest.mark.parametrize("c, a_list", [(0.5, []), (0.5, [[[0.0]]]), (-1.3, [[[0.0]]])],
                         ids=["no-noise", "zero-coefficient", "inexact-sum"])
def test_tilted_check_without_spread(c, a_list):
    # every draw is c = Z, so se = 0 and the discrepancy is exactly 0; 200
    # copies of -1.3 do not sum to 200 (-1.3) in floating point
    st = make_structure([[c]], a_list)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chk = tilted_outlier_check(st, 1.0, [[1.0]], 20, 200, rng=0)
    assert chk.mean_lambda1 == chk.predicted_z == c
    assert chk.se_mean == 0.0
    assert chk.discrepancy == 0.0


def test_tilted_check_of_a_scalar_structure_draws_no_dense_matrix(sc, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense tilted draw")

    monkeypatch.setattr(montecarlo._Part, "top", dense)
    chk = tilted_outlier_check(sc, 1.0, [[1.0]], 100, 50, rng=2)
    assert abs(chk.discrepancy) < 5


def test_tilted_check_solves_a_commuting_structure_block_by_block(herm, monkeypatch):
    # herm's matrices commute, so each tilted draw is two N x N eigenvalue
    # problems; lambda_1 is the one of sample_tilted's dense draw, the same
    # blocks from the same stream
    n, reps, theta, seed = 30, 40, 0.8, 4
    psi = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    u = profile_vector(herm, psi, n, _draw_stream(seed, 1))
    gen = _draw_stream(seed, 0)
    want = np.mean([np.linalg.eigvalsh(sample_tilted(herm, n, theta, u, gen))[-1]
                    for _ in range(reps)])
    sides = []

    def recorded(solver):
        def solve(a, *args, **kwargs):
            sides.append(a.shape[0])
            return solver(a, *args, **kwargs)
        return solve

    monkeypatch.setattr(montecarlo, "eigvalsh", recorded(scipy.linalg.eigvalsh), raising=False)
    chk = tilted_outlier_check(herm, theta, psi, n, reps, rng=seed)
    assert sides and max(sides) < 2 * n
    assert abs(chk.mean_lambda1 - want) <= 1e-12


def test_no_sampler_builds_the_whole_tilt_shift(pair, monkeypatch):
    # a tilted draw is a draw of the shifted blocks W_j + 2 theta C_j, its
    # weight is read off the blocks: neither the NL x NL shift 2 theta D nor
    # X itself is ever assembled
    def whole(*args, **kwargs):
        raise AssertionError("NL x NL matrix assembled")

    assert not hasattr(model, "tilt_matrix") and not hasattr(montecarlo, "_assemble")
    monkeypatch.setattr(model, "_assemble", whole)
    est = importance_tail(pair, 2.6, 0.2, 10, 60, 1, theta=0.3)
    assert est.hits > 0 and est.p_hat > 0
    chk = tilted_outlier_check(pair, 0.5, np.eye(2) / 2, 10, 20, 1)
    assert math.isfinite(chk.mean_lambda1) and chk.sd_lambda1 > 0


@pytest.mark.parametrize("call", ["importance", "tilted"])
def test_complex_profile_at_beta_one_is_rejected(pair, call):
    psi = [[0.5, 0.2j], [-0.2j, 0.5]]
    with pytest.raises(ValueError, match="psi"):
        if call == "importance":
            importance_tail(pair, 2.6, 0.2, 10, 20, 1, psi=psi, theta=0.1)
        else:
            tilted_outlier_check(pair, 0.1, psi, 10, 20, 1)


def _unitary_with_first_column(u, rng):
    """A unitary (orthogonal for real u) Q with Q e_1 = u."""
    g = rng.standard_normal((u.size, u.size))
    if np.iscomplexobj(u):
        g = g + 1j * rng.standard_normal((u.size, u.size))
    g[:, 0] = u
    q, r = np.linalg.qr(g)
    return q * (r[0, 0] / abs(r[0, 0]))


@pytest.mark.parametrize("beta", [1, 2])
def test_tilt_is_a_shift_of_the_first_tridiagonal_entry(beta):
    # W + c u u* = Q (W' + c e_1 e_1*) Q* with W' = Q* W Q; Householder
    # reduction of W' from its first column fixes e_1, and a diagonal unitary
    # makes the off-diagonal |e|, so W + c u u* has the eigenvalues of the
    # real tridiagonal T + c e_1 e_1^T
    n, c = 30, 1.7
    rng = stream(23, beta)
    st = make_structure([[0.0]], [[[1.0]]], beta=beta)
    w = _draw_blocks(st, n, rng)[0]
    u = rng.standard_normal(n) + (1j * rng.standard_normal(n) if beta == 2 else 0.0)
    u /= np.linalg.norm(u)
    q = _unitary_with_first_column(u, rng)
    assert np.allclose(q[:, 0], u, atol=1e-14)
    t, h = hessenberg(q.conj().T @ w @ q, calc_q=True)
    assert np.allclose(h[:, 0], np.eye(n)[0], atol=1e-14)
    d = np.real(np.diagonal(t)).copy()
    d[0] += c
    got = eigvalsh_tridiagonal(d, np.abs(np.diagonal(t, -1)))
    want = np.linalg.eigvalsh(w + c * np.outer(u, u.conj()))
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("a", [0.8, -0.8])
@pytest.mark.parametrize("theta", [0.3, 1.0])
def test_tilted_tridiagonal_law_matches_dense(beta, a, theta):
    from scipy.stats import ks_2samp

    n, reps, c = 40, 2000, 0.2
    st = make_structure([[c]], [[[a]]], beta=beta)
    tri = _tilted_tridiagonal_lambda1(st, theta, n, reps, stream(47, beta))
    u = profile_vector(st, [[1.0]], n, stream(48, beta, 1))
    gen = stream(48, beta, 0)
    dense = np.array([np.linalg.eigvalsh(sample_tilted(st, n, theta, u, gen))[-1]
                      for _ in range(reps)])
    se = math.sqrt(tri.var(ddof=1) / reps + dense.var(ddof=1) / reps)
    assert abs(tri.mean() - dense.mean()) <= 5.0 * se
    assert ks_2samp(tri, dense).pvalue > 1e-4


# ---------------------------------------------------------------------------
# profiles of uniform sphere vectors

def test_profile_histogram_two_blocks():
    h = profile_histogram(2, 100, 10**5, rng=11, bins=20)
    assert np.abs(h.mean_profile - np.eye(2) / 2).max() <= 0.005
    assert h.mean_se.max() <= 1e-3
    # determinant concentrates at its maximum 1/4 for N >> L
    assert 0.2 <= h.det_mode <= 0.2501
    assert h.det_frac_below_half <= 0.01
    # binned density against the bin-averaged det^((N-3)/2) law
    mask = h.counts >= 500
    assert mask.sum() >= 10
    rel = np.abs(h.empirical_density[mask] - h.analytic_density[mask])
    rel /= h.analytic_density[mask]
    assert rel.max() <= 0.1
    areas = np.diff(h.p_edges)[:, None] * np.diff(h.c_edges)[None, :]
    assert np.sum(h.empirical_density * areas) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(h.analytic_density * areas) == pytest.approx(1.0, abs=1e-12)


def test_profile_histogram_against_oracle_counts():
    import oracles as o

    h = profile_histogram(2, 100, 10**5, rng=11, bins=20)
    probs = o.wishart_l2_bin_probs(100, h.p_edges, h.c_edges)
    expected = probs * h.counts.sum()
    mask = expected >= 500
    rel = np.abs(h.counts[mask] - expected[mask]) / expected[mask]
    assert rel.max() <= 0.1


def test_profile_histogram_one_and_three_blocks():
    h1 = profile_histogram(1, 40, 500, rng=2)
    assert h1.mean_profile[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert h1.counts is None and h1.analytic_density is None
    h3 = profile_histogram(3, 50, 2 * 10**4, rng=2)
    assert np.abs(h3.mean_profile - np.eye(3) / 3).max() <= 0.02
    assert h3.p_edges is None


def test_profile_histogram_validation():
    with pytest.raises(ValueError):
        profile_histogram(3, 2, 100, rng=0)  # N < L
    with pytest.raises(ValueError):
        profile_histogram(2, 10, 0, rng=0)


# ---------------------------------------------------------------------------
# records and config plumbing

def test_estimate_record_fields(sc):
    est = tail_probability(sc, 0.0, 0.1, 30, 50, 3)  # zero hits -> infinite rate
    rec = estimate_record(est, sc, 3)
    assert rec["kind"] == "tail_estimate"
    assert rec["structure"] == structure_hash(sc)
    assert rec["seed"] == 3
    assert rec["rate_hat"] is None
    assert rec["method"] == "direct" and rec["ess"] is None
    json.dumps(rec)  # must be serializable as-is


def test_write_jsonl_appends(tmp_path, sc):
    est = tail_probability(sc, 2.0, 0.3, 30, 50, 3)
    rec = estimate_record(est, sc, 3)
    path = tmp_path / "runs.jsonl"
    write_jsonl(path, [rec])
    write_jsonl(path, [rec])
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == json.loads(lines[1]) == rec
