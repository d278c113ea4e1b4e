"""Structure matrices, superoperators and the draws of Gaussian Kronecker matrices.

The model is X = sum_j A_j (x) W_j + A_0 (x) Id_N with deterministic L x L
matrices A_j and independent GOE (beta=1) or GUE (beta=2) blocks W_j. This
module owns the deterministic data (`StructureSet`), the superoperators
S[T] = sum_j A_j T A_j and S_big = sum_j A_j (x) A_j, the draws, and the
block profile map rho.

S is one fixed linear map per structure, so its matrix forms
(`SuperOperator`) are built once per structure, on first use, and are
read-only: concurrent readers share them safely. `apply_S`, `s_big` and the
stacked kernels of `mde` all read them, so every module uses one definition
of S.

One draw path, `_draw_stream` -> `_draw_blocks` (the W_j, plus 2 theta C_j
under a tilt) -> `_assemble` (X): this module draws, `montecarlo` solves.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, Philox, SeedSequence


class StructureError(ValueError):
    """A structure set violates the model assumptions."""


@dataclass(frozen=True)
class StructureSet:
    """Deterministic model data: dimensions, symmetry class and matrices.

    Immutable after construction; safe for concurrent shared reads. Use
    :func:`make_structure` or :func:`structure_from_dict` instead of calling
    the constructor with raw arrays.
    """

    L: int
    k: int
    beta: int
    a0: np.ndarray
    a: np.ndarray  # shape (k, L, L); empty (0, L, L) when k = 0

    def __post_init__(self):
        self.a0.setflags(write=False)
        self.a.setflags(write=False)

    @property
    def is_real(self) -> bool:
        return self.beta == 1

    @functools.cached_property
    def s_op(self) -> SuperOperator:
        """S's matrix forms (`SuperOperator`), built on first use."""
        return _superoperator(self.a)

    @functools.cached_property
    def noiseless(self) -> bool:
        """S = 0 exactly: the limit law is A_0's atoms and X = A_0 (x) Id_N.
        The one test every module makes for "no noise"."""
        return not self.s_op.k.any()


def make_structure(a0, a_list, beta=1) -> StructureSet:
    """Build a validated StructureSet from A_0 and the list [A_1, ..., A_k]."""
    mats = [np.array(m, dtype=np.complex128) for m in (list(a_list) if a_list is not None else [])]
    a0c = np.array(a0, dtype=np.complex128)
    if a0c.ndim != 2 or a0c.shape[0] != a0c.shape[1]:
        raise StructureError("A0 must be a square matrix")
    L = a0c.shape[0]
    for i, m in enumerate(mats):
        if m.shape != (L, L):
            raise StructureError(f"A{i + 1} has shape {m.shape}, expected ({L}, {L})")
    if beta == 1:
        for name, m in [("A0", a0c)] + [(f"A{i + 1}", m) for i, m in enumerate(mats)]:
            if np.any(m.imag != 0):
                raise StructureError(f"{name} has complex entries but beta=1")
        a0c = a0c.real
        mats = [m.real for m in mats]
    a = np.array(mats) if mats else np.zeros((0, L, L), dtype=a0c.dtype)
    s = StructureSet(L=L, k=a.shape[0], beta=int(beta), a0=a0c, a=a)
    violations = validate(s)
    if violations:
        raise StructureError("; ".join(violations))
    # validate allows asymmetry up to 1e-12; the samplers read one triangle
    # and the MDE the whole matrix, so both get the exactly Hermitian part.
    # Exactly Hermitian input is kept bit for bit (and so is its hash).
    a = np.array([_hermitian_part(m) for m in a], dtype=a.dtype).reshape(a.shape)
    return StructureSet(L=L, k=s.k, beta=s.beta, a0=_hermitian_part(a0c), a=a)


def _hermitian_part(m):
    adj = m.conj().T
    return m if np.array_equal(m, adj) else (m + adj) / 2


def validate(structure: StructureSet) -> list:
    """Return every invariant violation as a human-readable string.

    Empty list means the structure satisfies the model assumptions.
    """
    v = []
    L, k, beta = structure.L, structure.k, structure.beta
    if L < 1:
        v.append("L must be >= 1")
    if k < 0:
        v.append("k must be >= 0")
    if beta not in (1, 2):
        v.append("beta must be 1 or 2")
    mats = [("A0", structure.a0)] + [(f"A{j + 1}", m) for j, m in enumerate(structure.a)]
    for name, mat in mats:
        if mat.shape != (L, L):
            v.append(f"{name} has shape {mat.shape}, expected ({L}, {L})")
            continue
        if not np.all(np.isfinite(mat)):
            v.append(f"{name} has non-finite entries")
            continue
        if beta == 1:
            if np.iscomplexobj(mat) and np.any(mat.imag != 0):
                v.append(f"{name} has complex entries but beta=1")
            elif not np.allclose(mat, mat.T, atol=1e-12, rtol=0.0):
                v.append(f"{name} is not symmetric")
        else:
            if not np.allclose(mat, mat.conj().T, atol=1e-12, rtol=0.0):
                v.append(f"{name} is not Hermitian")
    return v


def structure_hash(structure: StructureSet) -> str:
    """Short stable content hash, used to key caches and tag output files."""
    h = hashlib.sha256()
    h.update(f"{structure.L},{structure.k},{structure.beta}".encode())
    h.update(np.ascontiguousarray(structure.a0).tobytes())
    h.update(np.ascontiguousarray(structure.a).tobytes())
    return h.hexdigest()[:16]


def _is_number(x) -> bool:
    """A finite JSON number: Python's json also reads NaN and Infinity."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and (isinstance(x, int) or math.isfinite(x)))


def _finite(value, name) -> float:
    """value as a float; a ValueError naming `name` where it is NaN or
    infinite, so a library entry point rejects it before any solve or draw."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _entry(x, name):
    if _is_number(x):
        return float(x)
    if isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)):
        return complex(x[0], x[1])
    raise StructureError(f"{name} entries must be finite numbers or [re, im] pairs of "
                         f"finite numbers, got {x!r}")


def parse_number(value, name, kind=float):
    """A finite JSON number as kind (an integral one for int); anything
    else, a boolean, NaN or Infinity included, raises StructureError naming
    `name`."""
    if not _is_number(value) or (kind is int and not float(value).is_integer()):
        what = "int" if kind is int else "a finite number"
        raise StructureError(f"{name} must be {what}, got {json.dumps(value)}")
    return kind(value)


def parse_matrix(rows, name) -> list:
    """A matrix given in JSON as a list of rows whose entries are each a
    number, or a [re, im] pair of numbers for a complex entry; anything else
    raises StructureError naming `name`."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise StructureError(f"{name} must be a list of rows, got {rows!r}")
    return [[_entry(x, name) for x in row] for row in rows]


def structure_from_dict(doc) -> StructureSet:
    """Parse the JSON schema {"L", "k", "beta", "A0", "A"}; complex as [re, im]."""
    try:
        beta, a0, mats = doc["beta"], doc["A0"], list(doc.get("A", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed structure document: {exc!r}") from exc
    a0 = parse_matrix(a0, "A0")
    a_list = [parse_matrix(mat, f"A{j + 1}") for j, mat in enumerate(mats)]
    s = make_structure(a0, a_list, beta=parse_number(beta, "beta", int))
    if "L" in doc and parse_number(doc["L"], "L", int) != s.L:
        raise StructureError(f"declared L={doc['L']} but A0 is {s.L}x{s.L}")
    if "k" in doc and parse_number(doc["k"], "k", int) != s.k:
        raise StructureError(f"declared k={doc['k']} but {s.k} matrices given")
    return s


def format_matrix(mat, beta) -> list:
    """The JSON rows `parse_matrix` reads: numbers at beta = 1, [re, im] pairs at beta = 2."""
    if beta == 1:
        return [[float(x) for x in row] for row in np.real(mat)]
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


def structure_to_dict(structure: StructureSet) -> dict:
    return {
        "L": structure.L,
        "k": structure.k,
        "beta": structure.beta,
        "A0": format_matrix(structure.a0, structure.beta),
        "A": [format_matrix(m, structure.beta) for m in structure.a],
    }


# ---------------------------------------------------------------------------
# superoperators

@dataclass(frozen=True)
class SuperOperator:
    """The matrix forms of S, read-only. With vec T the row-major flattening
    of an L x L matrix:

    k    (L^2, L^2): vec S[T] = k vec T, k = sum_j A_j (x) A_j^T. On a stack
         of G matrices S is one (G x L^2)(L^2 x L^2) product.
    k4   (L^3, L): k4[(a, c, d), e] = sum_j A_j[a, c] A_j[d, e], the noise
         term of the Newton Jacobian, (S[D] X)[a, b] = sum k4[(a, c, d), e]
         D[c, d] X[e, b].
    big  (L^2, L^2): S_big = sum_j A_j (x) A_j, the operator of the outlier
         equation.

    For real symmetric A_j, k and big coincide; for complex Hermitian A_j
    they differ (A_j^T = conj A_j).
    """

    k: np.ndarray
    k4: np.ndarray
    big: np.ndarray


def _superoperator(a) -> SuperOperator:
    """SuperOperator of the stack a of A_j, shape (k, L, L), k >= 0."""
    L = a.shape[-1]
    t = np.einsum("jac,jde->acde", a, a)  # sum_j A_j[a, c] A_j[d, e]
    forms = SuperOperator(k=t.transpose(0, 3, 1, 2).reshape(L * L, L * L),
                          k4=t.reshape(L ** 3, L),
                          big=t.transpose(0, 2, 1, 3).reshape(L * L, L * L))
    for arr in (forms.k, forms.k4, forms.big):
        arr.setflags(write=False)
    return forms


def apply_S(structure: StructureSet, t) -> np.ndarray:
    """S[T] = sum_j A_j T A_j (linear, PSD-preserving on Hermitian PSD T)."""
    t = np.asarray(t)
    if t.shape != (structure.L, structure.L):
        raise ValueError(f"T has shape {t.shape}, expected ({structure.L}, {structure.L})")
    return (structure.s_op.k @ t.reshape(-1)).reshape(t.shape)


def s_big(structure: StructureSet) -> np.ndarray:
    """S_big = sum_j A_j (x) A_j on L^2-dimensional vectors, lexicographic
    index (a, b); a writable copy of the structure's read-only form."""
    return structure.s_op.big.copy()


# ---------------------------------------------------------------------------
# draws

def stream(seed, *path) -> Generator:
    """Counter-based RNG stream for (master seed, task index...) derivations.

    An integer seed plus a path of task indices gives an independent,
    reproducible Philox stream; a Generator passes through unchanged. It is
    kept for model inputs, not draws: the random test structures, the
    benchmark's fixed and seeded structures and the structures of `verify`
    all come from it, so keeping it
    keeps those inputs as they are. Monte Carlo draws use `_draw_stream`.
    """
    if isinstance(seed, Generator):
        return seed
    return Generator(Philox(SeedSequence((int(seed),) + tuple(int(p) for p in path))))


def _draw_stream(seed, *path) -> Generator:
    """`stream`'s derivation on SFC64, numpy's fastest normal and chi-square source."""
    if isinstance(seed, Generator):
        return seed
    return Generator(SFC64(SeedSequence((int(seed),) + tuple(int(p) for p in path))))


@functools.lru_cache(maxsize=8)
def _block_layout(beta, n, k):
    """(scale, index) of `_draw_blocks` for k blocks of size N: the factor of
    each normal a block draws, and the map from the drawn normals to the
    entries of the blocks. Cached and read-only."""
    a, b = np.triu_indices(n)  # the upper triangle, row by row
    t = a.size
    pos = np.empty((n, n), dtype=np.intp)
    pos[a, b] = pos[b, a] = np.arange(t)
    if beta == 1:
        scale = np.where(a == b, math.sqrt(2.0 / n), math.sqrt(1.0 / n))
        index = pos + t * np.arange(k)[:, None, None]
    else:
        # per block N^2 normals: the real parts of the upper triangle, then the
        # imaginary parts of the strict upper triangle; after all k blocks the
        # negated imaginary parts (for the lower triangle) and one zero
        s = t - n
        spos = np.full((n, n), -1, dtype=np.intp)
        au, bu = np.triu_indices(n, 1)
        spos[au, bu] = spos[bu, au] = np.arange(s)
        scale = np.concatenate([np.where(a == b, math.sqrt(1.0 / n), math.sqrt(0.5 / n)),
                                np.full(s, math.sqrt(0.5 / n))])
        upper = np.arange(n)[:, None] < np.arange(n)[None, :]
        j = np.arange(k)[:, None, None]
        index = np.empty((k, n, 2 * n), dtype=np.intp)
        index[:, :, 0::2] = pos + n * n * j
        index[:, :, 1::2] = np.where(upper, n * n * j + t + spos, k * n * n + s * j + spos)
        index[:, np.arange(n), 2 * np.arange(n) + 1] = k * (n * n + s)
    scale.setflags(write=False)
    index.setflags(write=False)
    return scale, index


def _draw_blocks(structure: StructureSet, n, rng) -> np.ndarray:
    """Draw W_1..W_k, shape (k, N, N), from one standard normal per
    independent real, drawn block after block.

    GOE: block j takes N(N+1)/2 normals, the upper triangle (diagonal
    included) row by row; entry (a, b) = entry (b, a) is its normal times
    sqrt(2/N) on the diagonal and sqrt(1/N) off it, so the entry variance is
    (1 + delta_ab)/N. GUE: block j takes N^2 normals, first the upper
    triangle row by row as real parts (times sqrt(1/N) on the diagonal,
    sqrt(1/(2N)) off it), then the strict upper triangle row by row as
    imaginary parts (times sqrt(1/(2N))); entry (b, a) is the conjugate of
    (a, b), so every entry has variance 1/N. The blocks are filled from the
    normals by one `np.take` through the cached map of `_block_layout`.
    """
    k = structure.k
    scale, index = _block_layout(structure.beta, n, k)
    if structure.beta == 1:
        g = rng.standard_normal((k, scale.size))
        g *= scale
        return np.take(g, index)
    s = n * (n - 1) // 2
    src = np.empty(k * (n * n + s) + 1)
    g = src[:k * n * n].reshape(k, n * n)
    rng.standard_normal(out=g)
    g *= scale
    np.negative(g[:, n * n - s:], out=src[k * n * n:-1].reshape(k, s))
    src[-1] = 0.0
    return np.take(src, index).view(np.complex128)


def _assemble(structure: StructureSet, blocks, n) -> np.ndarray:
    """X = sum_j A_j (x) W_j + A_0 (x) Id, C-ordered.

    One broadcast product per term on the (L, N, L, N) view of X: entry
    (a, i, b, l) is A_0[a, b] Id[i, l] + A_1[a, b] W_1[i, l] + ..., the same
    products summed in the same order as the np.kron form, so X is
    bit-identical to it.
    """
    L = structure.L
    out = np.empty((L * n, L * n), dtype=structure.a0.dtype)
    x4 = out.reshape(L, n, L, n)
    eye = np.eye(n, dtype=structure.a0.dtype)
    np.multiply(structure.a0[:, None, :, None], eye[None, :, None, :], out=x4)
    for aj, wj in zip(structure.a, blocks):
        x4 += aj[:, None, :, None] * wj[None, :, None, :]
    return out


def _tilt_blocks(structure: StructureSet, u) -> np.ndarray:
    """C_j = U A_j^T U*, shape (k, N, N), U's columns the blocks of u. The tilt
    exp(beta N theta <u, X u>) = exp(beta N theta sum_j Tr[W_j C_j]) moves the
    law of each W_j by its mean 2 theta C_j (complete the square), nothing else."""
    ub = np.asarray(u).reshape(structure.L, -1)  # row a = block u_a
    return ub.T @ np.swapaxes(structure.a, 1, 2) @ np.conj(ub)


def sample_tilted(structure: StructureSet, n, theta, u, rng) -> np.ndarray:
    """One NL x NL draw of the tilted measure: X of the blocks W_j + 2 theta C_j."""
    if not theta >= 0:
        raise ValueError("theta must be >= 0")
    u = np.asarray(u)
    if u.size != n * structure.L:
        raise ValueError(f"u has length {u.size}, expected N*L = {n * structure.L}")
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError("u must be a unit vector")
    if structure.beta == 1 and np.iscomplexobj(u):
        raise ValueError("u must be real at beta = 1")
    blocks = _draw_blocks(structure, n, _draw_stream(rng))
    blocks += 2.0 * theta * _tilt_blocks(structure, u)
    return _assemble(structure, blocks, n)


# ---------------------------------------------------------------------------
# profiles

@dataclass(frozen=True)
class Profile:
    """Trace-one positive semi-definite L x L matrix (eigenvector profile).

    The one rule for a valid profile: finite, Hermitian to 1e-10 entrywise
    (no relative slack), trace 1 to 1e-12 and eigenvalues >= -1e-12. psi is
    stored as its exact Hermitian part (exactly Hermitian input bit for
    bit), so a function that reads one triangle and one that reads the
    whole matrix see the same profile."""

    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi)
        if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
            raise ValueError("profile must be a square matrix")
        if not np.isfinite(psi).all():
            raise ValueError("profile entries must be finite")
        if not np.allclose(psi, psi.conj().T, atol=1e-10, rtol=0.0):
            raise ValueError("profile must be symmetric/Hermitian")
        psi = np.array(_hermitian_part(psi))
        if abs(np.trace(psi).real - 1.0) > 1e-12:
            raise ValueError(f"profile trace {np.trace(psi)!r} != 1")
        w = np.linalg.eigvalsh(psi)
        if w.min() < -1e-12:
            raise ValueError(f"profile not positive semidefinite: min eigenvalue {w.min():.3e}")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def L(self) -> int:
        return self.psi.shape[0]


def as_profile(psi) -> Profile:
    """Coerce a matrix (or Profile) to a validated Profile."""
    if isinstance(psi, Profile):
        return psi
    return Profile(np.asarray(psi, dtype=np.result_type(np.asarray(psi), np.float64)))


def _sized_psi(structure: StructureSet, psi) -> np.ndarray:
    """psi (a matrix or Profile) as an array; a ValueError unless it is L x L,
    and real at beta = 1 (where a zero imaginary part is dropped)."""
    psi = psi.psi if isinstance(psi, Profile) else np.asarray(psi)
    if psi.shape != (structure.L, structure.L):
        raise ValueError(f"psi must be L x L = {structure.L} x {structure.L}, got {psi.shape}")
    if structure.beta == 1 and np.iscomplexobj(psi):
        if np.any(psi.imag != 0):
            raise ValueError("psi must be real at beta = 1")
        psi = psi.real
    return psi


def _psd_factor(h) -> np.ndarray:
    """F with F F* = h for Hermitian PSD h: v sqrt(w), rounding below 0 clipped."""
    w, v = np.linalg.eigh(h)
    return v * np.sqrt(np.clip(w, 0.0, None))


def rho_profile(w, L) -> np.ndarray:
    """Block Gram matrix rho(w)_{ij} = <w_i, w_j> of an NL vector."""
    w = np.asarray(w)
    if w.size % L:
        raise ValueError(f"vector length {w.size} not divisible by L={L}")
    b = w.reshape(L, -1)
    return b.conj() @ b.T


def profile_vector(structure: StructureSet, psi, n, rng) -> np.ndarray:
    """Unit NL vector u with rho(u) = psi exactly (within 1e-12).

    Built as u_a = sum_b conj(C)_{ab} f_b from a factorization psi = C C* and
    random orthonormal f_1..f_L; the conjugate on C is what makes the Gram
    matrix come out as psi rather than its transpose. At beta = 1 u, and so
    psi, is real.
    """
    L = structure.L
    if n < L:
        raise ValueError(f"N={n} cannot host {L} orthonormal block directions")
    psi = as_profile(_sized_psi(structure, psi)).psi
    gen = _draw_stream(rng)
    c = _psd_factor(psi)  # psi = c c*
    if structure.beta == 1:
        g = gen.standard_normal((n, L))
    else:
        g = gen.standard_normal((n, L)) + 1j * gen.standard_normal((n, L))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.real(np.diagonal(r)) + (np.real(np.diagonal(r)) == 0))
    blocks = (np.conj(c) @ q.T)  # row a = u_a
    u = blocks.reshape(-1)
    return u / np.linalg.norm(u)
