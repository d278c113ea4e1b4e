"""Structure sets, sampling, tilts and eigenvector profiles."""

import math
import sys
import threading

import numpy as np
import pytest

import kronldp
from kronldp.model import (
    Profile,
    _assemble,
    _draw_blocks,
    _draw_stream,
    StructureError,
    apply_S,
    as_profile,
    make_structure,
    profile_vector,
    rho_profile,
    s_big,
    sample_tilted,
    stream,
    structure_from_dict,
    structure_hash,
    structure_to_dict,
    validate,
)
from oracles import tilt_matrix

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def pair_structure():
    return make_structure(np.diag([0.5, -0.5]), [np.diag([1.0, 2.0]), FLIP])


@pytest.fixture(scope="module")
def herm_structure():
    h = np.array([[0.0, 1j], [-1j, 0.0]])
    return make_structure(np.eye(2) * 0.3, [h, np.eye(2)], beta=2)


def test_make_structure_rejects_bad_input():
    with pytest.raises(StructureError):
        make_structure(np.zeros((2, 3)), [])
    with pytest.raises(StructureError):
        make_structure(np.zeros((2, 2)), [np.zeros((3, 3))])
    with pytest.raises(StructureError):
        make_structure(np.zeros((2, 2)), [], beta=3)
    with pytest.raises(StructureError):
        # complex data is only legal for the Hermitian symmetry class
        make_structure(np.array([[0.0, 1j], [-1j, 0.0]]), [], beta=1)


def test_make_structure_stores_the_hermitian_part(pair_structure, herm_structure):
    # validate accepts asymmetry up to 1e-12; the samplers read one triangle
    # and the MDE the whole matrix, so the stored matrices are exactly Hermitian
    st = make_structure(np.zeros((2, 2)), [[[1.0, 5e-13], [0.0, 1.0]], np.eye(2)])
    assert st.a[0][0, 1] == st.a[0][1, 0] == 2.5e-13
    x = _assemble(st, _draw_blocks(st, 5, _draw_stream(1)), 5)
    assert np.array_equal(x, x.T)
    h = make_structure([[0.3 + 4e-13j, 1j], [-1j, 0.1]], [np.eye(2)], beta=2)
    assert np.array_equal(h.a0, [[0.3, 1j], [-1j, 0.1]])
    # exactly Hermitian input is stored bit for bit, signed zeros included,
    # so its hash is the one it had before the Hermitian part was stored
    signed = make_structure(np.array([[complex(-1.0, -0.0), 0.5j], [-0.5j, complex(2.0, -0.0)]]),
                            [-0.5 * FLIP], beta=2)
    assert np.signbit(signed.a0.imag).tolist() == [[True, False], [True, True]]
    assert structure_hash(pair_structure) == "ae927d26f6187fb9"
    assert structure_hash(herm_structure) == "4ae7b35f00578bbd"
    assert structure_hash(signed) == "e9a351f51c5567af"


def test_validate_reports_asymmetry(pair_structure):
    from kronldp.model import StructureSet

    assert validate(pair_structure) == []
    # bypass make_structure to build a broken instance
    brok = StructureSet(L=2, k=1, beta=1, a0=np.zeros((2, 2)),
                        a=np.array([[[0.0, 1.0], [0.0, 0.0]]]))
    msgs = validate(brok)
    assert any("symmetric" in m for m in msgs)


def test_apply_s_is_linear(pair_structure):
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((2, 2, 2))
    a, b = 0.7, -1.3
    lhs = apply_S(pair_structure, a * x + b * y)
    rhs = a * apply_S(pair_structure, x) + b * apply_S(pair_structure, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_s_hand_value():
    st = make_structure(np.zeros((2, 2)), [FLIP])
    out = apply_S(st, np.diag([1.0, 0.0]))
    assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-15)


def test_apply_s_preserves_hermiticity(herm_structure):
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = g + g.conj().T
    out = apply_S(herm_structure, h)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_s_big_matches_apply_s_on_vec(pair_structure):
    rng = np.random.default_rng(2)
    big = s_big(pair_structure)
    for _ in range(5):
        x = rng.standard_normal((2, 2))
        x = x + x.T
        lhs = (big @ x.reshape(-1)).reshape(2, 2)
        assert np.max(np.abs(lhs - apply_S(pair_structure, x))) < 1e-12


def test_superoperator_is_shared_read_only_by_concurrent_readers():
    # 8 threads race to first use of a fresh structure's S: every reader
    # sees the finished forms, which no caller can write
    rng = np.random.default_rng(3)
    herm = [(g + g.conj().T) / 2 for g in rng.standard_normal((4, 3, 3))
            + 1j * rng.standard_normal((4, 3, 3))]
    st = make_structure(herm[0], herm[1:], beta=2)
    t = herm[0] @ herm[1]
    want = sum(aj @ t @ aj for aj in st.a)
    barrier, errors = threading.Barrier(8), []

    def work():
        try:
            barrier.wait(timeout=30)
            for _ in range(200):
                if np.max(np.abs(apply_S(st, t) - want)) > 1e-13:
                    errors.append("wrong S[T]")
        except Exception as exc:  # the failure under test: report, don't hang
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    forms = st.s_op
    assert not any(a.flags.writeable for a in (forms.k, forms.k4, forms.big))
    big = s_big(st)
    big[0, 0] += 1.0
    assert s_big(st)[0, 0] == forms.big[0, 0] != big[0, 0]


def test_structure_dict_round_trip(pair_structure, herm_structure):
    for st in (pair_structure, herm_structure):
        doc = structure_to_dict(st)
        back = structure_from_dict(doc)
        assert structure_hash(back) == structure_hash(st)
    with pytest.raises(StructureError):
        structure_from_dict({"L": 2, "k": 0, "beta": 1})  # missing a0


def test_sample_mean_is_deterministic_part(pair_structure):
    n, reps = 40, 300
    rng = stream(123)
    acc = np.zeros((2 * n, 2 * n))
    for _ in range(reps):
        acc += _assemble(pair_structure, _draw_blocks(pair_structure, n, rng), n)
    acc /= reps
    target = np.kron(pair_structure.a0, np.eye(n))
    # entry standard error <= 2*sqrt(2)/sqrt(reps*N); allow the Gaussian max
    # over all (2N)^2 entries plus slack
    scale = 2.0 * np.sqrt(2.0) / np.sqrt(reps * n)
    assert np.max(np.abs(acc - target)) < scale * (np.sqrt(2.0 * np.log(acc.size)) + 3.0)


@pytest.mark.parametrize("beta", [1, 2])
def test_entry_variance_scaling(beta):
    st = make_structure(np.zeros((1, 1)), [np.ones((1, 1))], beta=beta)
    rng = stream(17, beta)
    n, reps = 30, 400
    off, diag = [], []
    for _ in range(reps):
        x = _assemble(st, _draw_blocks(st, n, rng), n)
        off.append(x[0, 1])
        diag.append(x[2, 2])
    off, diag = np.array(off), np.array(diag)
    if beta == 1:
        assert n * off.var() == pytest.approx(1.0, abs=0.25)
        assert n * diag.var() == pytest.approx(2.0, abs=0.5)
    else:
        assert n * np.mean(np.abs(off) ** 2) == pytest.approx(1.0, abs=0.25)
        assert np.max(np.abs(diag.imag)) < 1e-14
        assert n * diag.var() == pytest.approx(1.0, abs=0.3)


def test_operator_norm_stays_bounded(pair_structure):
    # crude exponential-tightness proxy: nothing escapes the deterministic bound
    bound = (np.linalg.norm(pair_structure.a0, 2)
             + 2.0 * sum(np.linalg.norm(aj, 2) for aj in pair_structure.a) + 1.0)
    rng = stream(29)
    tops = [np.linalg.eigvalsh(_assemble(pair_structure, _draw_blocks(pair_structure, 60, rng),
                                         60))[-1] for _ in range(200)]
    assert max(tops) < bound


def test_sampling_reproducible(pair_structure):
    u = profile_vector(pair_structure, np.eye(2) / 2.0, 50, stream(7))
    a = sample_tilted(pair_structure, 50, 0.3, u, 7)
    b = sample_tilted(pair_structure, 50, 0.3, u, 7)
    c = sample_tilted(pair_structure, 50, 0.3, u, 8)
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, c)


def test_stream_is_pinned():
    # every random test structure and the benchmark's fixed direct sums come
    # from stream(); a change of bit generator or seed derivation shows here
    assert stream(0, 0, 2).standard_normal(4).tolist() == [
        1.4638732642954329, 0.6670197020938433, 0.7506733927049692, -0.11134872966780032]
    assert stream(7, 3).random(2).tolist() == [0.4130290155584696, 0.18247657885780033]


def test_draw_stream_is_pinned():
    # every Monte Carlo draw comes from _draw_stream(); a change of its bit
    # generator or seed derivation shows here
    assert _draw_stream(0, 0, 2).standard_normal(4).tolist() == [
        -0.9840738557035651, 0.40104737691404657, -0.9266492928355051, 1.0787449507953266]
    gen = stream(7, 3)
    assert _draw_stream(gen, 1) is gen


def _blocks_from_normals(beta, n, k, z):
    """W_1..W_k rebuilt entry by entry from the normals z, in the layout the
    `_draw_blocks` docstring states."""
    it = iter(z.tolist())
    re = np.zeros((k, n, n))
    im = np.zeros((k, n, n))
    for j in range(k):
        for a in range(n):
            for b in range(a, n):
                var = (2.0 if a == b else 1.0) if beta == 1 else (1.0 if a == b else 0.5)
                re[j, a, b] = re[j, b, a] = next(it) * math.sqrt(var / n)
        if beta == 2:
            for a in range(n):
                for b in range(a + 1, n):
                    im[j, a, b] = next(it) * math.sqrt(0.5 / n)
                    im[j, b, a] = -im[j, a, b]
    assert next(it, None) is None
    if beta == 1:
        return re
    w = np.empty((k, n, n), dtype=complex)
    w.real, w.imag = re, im
    return w


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_draw_blocks_layout(beta, n):
    st = make_structure([[0.1]], [[[1.0]], [[0.5]]], beta=beta)
    count = st.k * (n * (n + 1) // 2 if beta == 1 else n * n)
    gen, twin = stream(11, n, beta), stream(11, n, beta)
    blocks = _draw_blocks(st, n, gen)
    z = twin.standard_normal(count)
    assert gen.standard_normal() == twin.standard_normal()
    want = _blocks_from_normals(beta, n, st.k, z)
    assert blocks.dtype == want.dtype and blocks.shape == (st.k, n, n)
    assert blocks.tobytes() == want.tobytes()


def test_zero_tilt_equals_plain_draw(pair_structure):
    n = 40
    u = np.zeros(2 * n)
    u[0] = 1.0
    a = _assemble(pair_structure, _draw_blocks(pair_structure, n, stream(5, 0)), n)
    b = sample_tilted(pair_structure, n, 0.0, u, stream(5, 0))
    assert a.tobytes() == b.tobytes()


def test_tilt_matrix_rank_and_symmetry(pair_structure):
    n = 25
    u = profile_vector(pair_structure, np.eye(2) / 2.0, n, stream(9))
    d = tilt_matrix(pair_structure, u)
    assert np.max(np.abs(d - d.conj().T)) < 1e-12
    # each A_j (x) (U A_j U*) has rank <= L^2, so the sum is finite rank
    assert np.linalg.matrix_rank(d, tol=1e-10) <= pair_structure.L ** 2 * pair_structure.k


def test_tilted_draw_is_the_draw_of_shifted_blocks(pair_structure, herm_structure):
    # the tilt moves each block's mean by 2 theta C_j, so X built from the
    # shifted blocks is the untilted X plus 2 theta D (tilt_matrix)
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    h3 = g + np.conj(np.swapaxes(g, 1, 2))
    wide = make_structure(h3[0], h3[1:], beta=2)
    n = 9
    for st in (pair_structure, herm_structure, wide):
        u = profile_vector(st, np.eye(st.L) / st.L, n, stream(3))
        for theta in (0.3, 1.7):
            for seed in (1, 2):
                got = sample_tilted(st, n, theta, u, seed)
                want = (_assemble(st, _draw_blocks(st, n, _draw_stream(seed)), n)
                        + 2.0 * theta * tilt_matrix(st, u))
                assert np.abs(got - want).max() <= 1e-13


def test_tilted_draw_validates_u(pair_structure):
    with pytest.raises(ValueError):
        sample_tilted(pair_structure, 10, 0.5, np.ones(20), stream(0))
    with pytest.raises(ValueError):
        sample_tilted(pair_structure, 10, -0.1, np.eye(20)[0], stream(0))
    with pytest.raises(ValueError, match="real"):
        sample_tilted(pair_structure, 10, 0.5, 1j * np.eye(20)[0], stream(0))


def test_profile_validation():
    with pytest.raises(ValueError):
        as_profile(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        as_profile(np.array([[0.5, 0.3], [0.2, 0.5]]))  # not symmetric
    with pytest.raises(ValueError):
        as_profile(np.diag([1.5, -0.5]))  # not PSD
    p = as_profile(np.diag([0.25, 0.75]))
    assert isinstance(p, Profile) and p.L == 2


def test_rho_profile_of_unit_vector_is_profile():
    rng = stream(31)
    u = rng.standard_normal(60)
    u /= np.linalg.norm(u)
    psi = rho_profile(u, 3)
    as_profile(psi)  # validates PSD, Hermitian, trace 1


@pytest.mark.parametrize("psi", [np.diag([0.25, 0.75]),
                                 np.array([[0.5, 0.2], [0.2, 0.5]]),
                                 np.diag([1.0, 0.0])])
def test_profile_vector_hits_target(pair_structure, psi):
    u = profile_vector(pair_structure, psi, 50, stream(41))
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(rho_profile(u, 2) - psi)) < 1e-12


def test_profile_vector_complex_target(herm_structure):
    psi = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    u = profile_vector(herm_structure, psi, 60, stream(43))
    assert np.max(np.abs(rho_profile(u, 2) - psi)) < 1e-12


def test_profile_vector_needs_enough_dimensions(pair_structure):
    with pytest.raises(ValueError):
        profile_vector(pair_structure, np.eye(2) / 2.0, 1, stream(0))


# ---------------------------------------------------------------------------
# a profile must have the structure's size, and be real at beta = 1

PROFILE_CALLS = ["phi_maps", "f_value", "rate_breakdown", "sup_theta", "k_value",
                 "lambda_sym", "largest_outlier", "tilt_for_target", "outlier_det",
                 "profile_vector"]


def _profile_call(call, psi):
    """One public function that takes a profile, called with psi on dsum."""
    st = make_structure(np.diag([0.0, 0.3]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    calls = {
        "phi_maps": lambda: kronldp.phi_maps(st, 2.0, 3.0, psi),
        "f_value": lambda: kronldp.f_value(st, 2.0, 3.0, psi),
        "rate_breakdown": lambda: kronldp.rate_breakdown(st, 2.0, 3.0, psi),
        "sup_theta": lambda: kronldp.sup_theta(st, 3.0, psi),
        "k_value": lambda: kronldp.k_value(st, 2.0, psi),
        "lambda_sym": lambda: kronldp.lambda_sym(st, 2.0, 3.0, psi),
        "largest_outlier": lambda: kronldp.largest_outlier(st, 2.0, psi),
        "tilt_for_target": lambda: kronldp.tilt_for_target(st, 3.0, psi),
        "outlier_det": lambda: kronldp.outlier_det(st, 2.0, psi, 3.0),
        "profile_vector": lambda: profile_vector(st, psi, 10, stream(0)),
    }
    return calls[call]()


@pytest.mark.parametrize("call", PROFILE_CALLS)
def test_profile_of_another_size_is_rejected(call):
    # a 1 x 1 psi on an L = 2 structure was broadcast by phi_maps (and so
    # f_value and rate_breakdown) and ended in a matmul error elsewhere
    with pytest.raises(ValueError, match=r"psi must be L x L = 2 x 2"):
        _profile_call(call, np.ones((1, 1)))


@pytest.mark.parametrize("call", PROFILE_CALLS)
def test_complex_profile_at_beta_one_is_rejected(call):
    # beta = 1 profiles are real symmetric: the rate formulas rely on psi^T = psi
    psi = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    with pytest.raises(ValueError, match=r"psi must be real at beta = 1"):
        _profile_call(call, psi)


@pytest.mark.parametrize("psi, message", [
    # an asymmetry of 2e-6 passed np.allclose's default rtol = 1e-5, and
    # lambda_sym read one triangle of psi while sup_theta read all of it
    (np.array([[0.5, 0.3], [0.300002, 0.5]]), r"profile must be symmetric/Hermitian"),
    # k_value, lambda_sym and outlier_det took any trace
    (np.diag([0.7, 0.7]), r"profile trace"),
    # a NaN entry was reported as an asymmetry and an infinite one as a trace
    (np.array([[0.5, np.nan], [np.nan, 0.5]]), r"profile entries must be finite"),
    (np.diag([np.inf, 0.0]), r"profile entries must be finite"),
], ids=["asymmetric", "trace", "nan", "inf"])
@pytest.mark.parametrize("call", PROFILE_CALLS)
def test_invalid_profile_is_rejected(call, psi, message):
    with pytest.raises(ValueError, match=message):
        _profile_call(call, psi)


def test_profile_is_stored_as_its_exact_hermitian_part():
    # within the 1e-10 a profile may be asymmetric, every function sees its
    # Hermitian part: psi and psi^T give the same lambda_sym bit for bit
    psi = np.array([[0.5, 0.3], [0.3 + 4e-11, 0.5]])
    stored = as_profile(psi).psi
    assert np.array_equal(stored, stored.T) and np.array_equal(stored, (psi + psi.T) / 2)
    exact = np.array([[0.5, 0.3], [0.3, 0.5]])
    assert as_profile(exact).psi.tobytes() == exact.tobytes()
    st = make_structure(np.diag([0.3, -0.1]), [np.diag([1.0, 0.5]), 0.4 * (1.0 - np.eye(2))])
    z = kronldp.right_edge(st).r_inf + 0.5
    assert kronldp.lambda_sym(st, 1.0, z, psi) == kronldp.lambda_sym(st, 1.0, z, psi.T)


@pytest.mark.parametrize("call", ["f_value", "sup_theta", "k_value", "lambda_sym",
                                  "tilt_for_target", "outlier_det"])
def test_real_profile_of_complex_dtype_is_taken_as_real_at_beta_one(call):
    psi = np.array([[0.5, 0.25], [0.25, 0.5]])
    assert _profile_call(call, psi.astype(complex)) == _profile_call(call, psi)


NAN, INF = float("nan"), float("inf")
NON_FINITE_CALLS = {  # each call on GOE, and the argument its error names
    "largest_outlier theta": (lambda st: kronldp.largest_outlier(st, NAN, [[1.0]]), "theta"),
    "tail_probability x": (lambda st: kronldp.tail_probability(st, NAN, 0.1, 20, 100, 1), "x"),
    "tail_probability delta": (lambda st: kronldp.tail_probability(st, 3.0, NAN, 20, 100, 1),
                               "delta"),
    "importance_tail theta": (lambda st: kronldp.importance_tail(st, 3.0, 0.1, 20, 100, 1,
                                                                 theta=NAN), "theta"),
    "lambda_sym theta": (lambda st: kronldp.lambda_sym(st, NAN, 3.0, [[1.0]]), "theta"),
    "outlier_det theta": (lambda st: kronldp.outlier_det(st, NAN, [[1.0]], 3.0), "theta"),
    "outlier_det z": (lambda st: kronldp.outlier_det(st, 1.0, [[1.0]], NAN), "z"),
    "lambda_sym z": (lambda st: kronldp.lambda_sym(st, 1.0, NAN, [[1.0]]), "z"),
    "density x_lo": (lambda st: kronldp.density(st, NAN, 2.5), "x_lo"),
    "density x_hi": (lambda st: kronldp.density(st, -2.5, INF), "x_hi"),
    "rate_function x": (lambda st: kronldp.rate_function(st, NAN), "x"),
    "sup_theta x": (lambda st: kronldp.sup_theta(st, NAN, [[1.0]]), "x"),
    "stieltjes_real x": (lambda st: kronldp.stieltjes_real(st, NAN), "x"),
    "tilt_for_target x": (lambda st: kronldp.tilt_for_target(st, NAN, [[1.0]]), "x"),
    "j_value x": (lambda st: kronldp.j_value(st, NAN, 1.0), "x"),
    "phi_maps x": (lambda st: kronldp.phi_maps(st, 1.0, NAN, [[1.0]]), "x"),
    "log_potential x": (lambda st: kronldp.log_potential(st, NAN), "x"),
    "inverse_neg_stieltjes two_theta": (lambda st: kronldp.inverse_neg_stieltjes(st, NAN),
                                        "two_theta"),
    "solve_mde z": (lambda st: kronldp.solve_mde(st, complex(NAN, 1.0)), "z"),
    "block_resolvent_trace z": (lambda st: kronldp.block_resolvent_trace(st, 10, 2,
                                                                         complex(NAN, 1.0)), "z"),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS)
def test_non_finite_argument_is_rejected_before_any_solve(call, monkeypatch):
    # NaN passed guards written theta <= 0 and delta <= 0: largest_outlier
    # returned Z = 3, the samplers p_hat = 0, lambda_sym, outlier_det and
    # block_resolvent_trace NaN, and the real-axis calls and solve_mde raised
    # a ConvergenceError. Each is a ValueError naming the argument, raised
    # on a cold cache before a solve or a draw
    from kronldp import mde, montecarlo

    def forbidden(*args, **kwargs):
        raise AssertionError("solved or drew before checking its arguments")

    monkeypatch.setattr(mde, "_CACHES", {})
    monkeypatch.setattr(mde, "_newton_polish", forbidden)
    monkeypatch.setattr(montecarlo, "_draw_blocks", forbidden)
    fn, name = NON_FINITE_CALLS[call]
    with pytest.raises(ValueError, match=rf"^{name} must be") as err:
        fn(make_structure(np.zeros((1, 1)), [np.ones((1, 1))]))
    assert not isinstance(err.value, mde.DomainError)
