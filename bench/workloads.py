"""Seeded inputs, timed operations and correctness checks of the workloads.

Every workload is a closed loop with one client: one process calls the
public kronldp API one operation after another, each call starting when the
previous one and its checks are done. Only the calls are timed; the checks run
between them, untimed and (in the traced run) untraced. Every operation is
checked against a closed form or a cross-check, so a faster wrong program
cannot score.

The work in a run is fixed by the workload seed and by ``scale``: the run does
the same operations on the same inputs however fast the program is, so the
times of two versions of the program compare like for like.

All calls go through attribute lookups on the imported modules at call time
(``K.right_edge``, ``K.cli.main``), so the traced run sees them once the
recorder has patched those names.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import minimize, rosen

import kronldp as K
import kronldp.cli  # noqa: F401  (binds K.cli)

SEEDED = "random"  # name prefix of the seed-drawn units; the rest are fixed references

# Work per run is sized so that scale 1 takes about this long on a 2-core box.
NOMINAL_SECONDS = 25.0

# --- oracles -------------------------------------------------------------
# Semicircle edges (GOE, and the beta = 2 structure below, whose S[Id] = Id).
SEMICIRCLE_EDGES = (-2.0, 2.0)
# Direct sum of a GOE block and a GOE block shifted by DSUM_SHIFT.
DSUM_SHIFT = 0.3
EDGE_TOL = 1e-6
BBP_TOL = 1e-8
ROUND_TRIP_TOL = 1e-8
RATE_TOL = 1e-6
DSUM_XS = (2.5, 2.65, 2.8, 3.0, 3.3, 3.6)
# Tail window that still holds hits at N = 100, and the tilted-mean target.
TAIL_X, TAIL_DELTA = 2.5, 0.45
IMPORTANCE_THETA = 0.05
TILT_THETA = 1.0
TILT_MEAN_TOL = 0.1
BINOMIAL_SIGMAS = 5.0


def goe_rate(x):
    """I_GOE(x) = x sqrt(x^2 - 4)/4 - ln((x + sqrt(x^2 - 4))/2) for x >= 2."""
    if x <= 2.0:
        return 0.0
    s = math.sqrt(x * x - 4.0)
    return x * s / 4.0 - math.log((x + s) / 2.0)


def bbp_outlier(theta):
    """GOE outlier under a rank-one tilt theta: 2 theta + 1/(2 theta), theta >= 1/2."""
    return 2.0 * theta + 1.0 / (2.0 * theta)


# --- structures ----------------------------------------------------------

def goe():
    return K.make_structure(np.zeros((1, 1)), [np.ones((1, 1))])


def gue():
    return K.make_structure(np.zeros((1, 1)), [np.ones((1, 1))], beta=2)


def herm():
    """beta = 2, L = 2: (h (x) W1 + Id (x) W2)/sqrt(2) with h = [[0, i], [-i, 0]].

    h is a Hermitian unitary with eigenvalues +-1, so the model splits into
    two independent GUE blocks (W1 + W2)/sqrt(2) and (W2 - W1)/sqrt(2): the
    limit law is the semicircle and lambda_1 is the larger of two
    independent GUE top eigenvalues.
    """
    h = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    return K.make_structure(np.zeros((2, 2)), [h / math.sqrt(2.0), np.eye(2) / math.sqrt(2.0)],
                            beta=2)


def dsum():
    """A0 = diag(0, 0.3), A_j = E_jj: a GOE block and a shifted GOE block."""
    return K.make_structure(np.diag([0.0, DSUM_SHIFT]),
                            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


@dataclass
class DirectSum:
    """A structure unitarily equivalent to a direct sum of L scaled, shifted
    GOE blocks s_j + sigma_j W_j, so its spectrum has closed forms: the
    density is the mixture of the blocks' semicircles, the edges are
    min(s_j - 2 sigma_j) and max(s_j + 2 sigma_j), and the rate of lambda_1
    right of the edge is beta min_j I_GOE((x - s_j) / sigma_j) (one block
    pulls its top eigenvalue out; the others stay below x)."""

    structure: object
    shifts: tuple
    scales: tuple

    @property
    def edges(self):
        return (min(s - 2.0 * g for s, g in zip(self.shifts, self.scales)),
                max(s + 2.0 * g for s, g in zip(self.shifts, self.scales)))

    def rate(self, x, goe_rate):
        beta = self.structure.beta
        return beta * min(goe_rate((x - s) / g) for s, g in zip(self.shifts, self.scales))

    def with_beta(self, beta):
        st = self.structure
        return DirectSum(K.make_structure(st.a0, list(st.a), beta=beta), self.shifts, self.scales)


def rotated_direct_sum(rng, ell):
    """Seed-drawn L = ell direct sum: shifts in [-0.3, 0.3], scales in
    [0.75, 1.25], every matrix conjugated by one random orthogonal Q. The
    conjugation (Q (x) Id) leaves the spectrum alone but makes A0 and the
    A_j dense, so the program gets no help from a diagonal structure."""
    shifts = rng.uniform(-0.3, 0.3, ell)
    scales = rng.uniform(0.75, 1.25, ell)
    q, _ = np.linalg.qr(rng.standard_normal((ell, ell)))
    eye = np.eye(ell)
    mats = [g * q @ np.outer(eye[j], eye[j]) @ q.T for j, g in enumerate(scales)]
    st = K.make_structure(q @ np.diag(shifts) @ q.T, mats)
    return DirectSum(st, tuple(float(v) for v in shifts), tuple(float(v) for v in scales))


def dsum_sum():
    return DirectSum(dsum(), (0.0, DSUM_SHIFT), (1.0, 1.0))


def fixed_direct_sum(ell):
    """The rotated direct sum of size ell drawn from stream 0: the same
    structure in every run, whatever the workload seed."""
    return rotated_direct_sum(K.stream(0, 0, ell), ell)


def mc_seed(seed, *path):
    """Integer Monte Carlo seed derived from the workload seed and a path."""
    return int(np.random.SeedSequence((int(seed),) + path).generate_state(1)[0])


# --- machine speed ------------------------------------------------------

# On a shared host the speed of identical work drifts by tens of percent over
# spells of seconds to minutes. Each workload times a fixed calibration kernel
# between its operations, one shaped like its own work and never calling
# kronldp, and reports each operation's time scaled by the kernel's reference
# time over its time around that operation. The reference times are the
# kernels' medians on the 2-core Xeon OpenBLAS box the bounds were set on, so
# cal_wall_s reads as seconds at that box's typical speed.
CAL_REFERENCE_S = {"interpreter": 0.08, "dense": 0.05}


def _interpreter_kernel(rng):
    """What the solvers' inner loops are made of: small dense eigensolves, a
    Python loop over their values, a Nelder-Mead run, and a few mid-size
    eigensolves."""
    a = rng.standard_normal((5, 5))
    a = a + a.T
    acc = 0.0
    for i in range(500):
        w = np.linalg.eigvalsh(a + (i * 1e-3) * np.eye(5))
        acc += sum(v * v for v in w.tolist())
    b = rng.standard_normal((100, 100))
    b = b + b.T
    for _ in range(5):
        acc += np.linalg.eigvalsh(b)[-1]
    minimize(rosen, np.zeros(4), method="Nelder-Mead",
             options={"maxiter": 1000, "xatol": 0.0, "fatol": 0.0})


def _dense_kernel(rng):
    """What the samplers are made of: Gaussian draws and dense eigensolves at
    N = 100 and N = 400."""
    for n, reps in ((100, 75), (400, 1)):
        for _ in range(reps):
            g = rng.standard_normal((n, n))
            np.linalg.eigvalsh(g + g.T)


KERNELS = {"interpreter": _interpreter_kernel, "dense": _dense_kernel}


def calibrate(kernel):
    """Seconds taken by one run of the named calibration kernel."""
    start = time.perf_counter()
    KERNELS[kernel](np.random.default_rng(0))
    return time.perf_counter() - start


# --- the run ------------------------------------------------------------

@dataclass
class Run:
    """Times operations, checks their results and counts failures."""

    kernel: str
    recorder: object = None
    # (unit, label, seconds, count, index of the calibration just before it)
    times: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)  # calibrate() before each op, and at the end
    attempted: int = 0
    failed: int = 0
    dense_draws: int = 0

    def op(self, unit, label, call, check, count=1):
        """Time call(); run check(result) untimed; return the result.

        An operation counts `count` attempts. It fails as a whole if it
        raises, else once per problem its check reports (at most `count`).
        """
        self.attempted += count
        self.calibrate()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # every failure is counted, never fatal
            self.failed += count
            self.failures.append(f"{unit}/{label}: raised {exc!r}")
            return None
        self.times.append((unit, label, time.perf_counter() - start, count,
                           len(self.calibrations) - 1))
        if self.recorder is None:
            problems = check(result)
        else:
            with self.recorder.paused():
                problems = check(result)
        if problems:
            self.failed += min(count, len(problems))
            self.failures += [f"{unit}/{label}: {p}" for p in problems]
        return result

    def calibrate(self):
        if self.recorder is None:
            self.calibrations.append(calibrate(self.kernel))
        else:
            with self.recorder.paused():
                self.calibrations.append(calibrate(self.kernel))

    def calibrated_seconds(self, keep):
        """Summed time of the operations whose unit passes keep(), each scaled
        by the kernel's reference time over the mean of the calibrations just
        before and just after it: its time at the reference speed."""
        ref, cal = CAL_REFERENCE_S[self.kernel], self.calibrations
        return sum(t * 2.0 * ref / (cal[k] + cal[k + 1])
                   for unit, _, t, _, k in self.times if keep(unit))

    def per_unit(self):
        out = {}
        for unit, _, t, _, _ in self.times:
            out[unit] = out.get(unit, 0.0) + t
        return out

    def per_point(self, label):
        return [t / n for _, lab, t, n, _ in self.times if lab == label]

    def seconds_of(self, label):
        return sum(t for _, lab, t, _, _ in self.times if lab == label)


def _problem(ok, message):
    return [] if ok else [message]


def _interleave(refs, seeded):
    """The reference units with the seeded ones spread evenly between them, in
    order: the timed reference work then spans the whole run, so a slow spell
    of the machine weighs on fewer of its units."""
    out = list(refs)
    for j in reversed(range(len(seeded))):
        out.insert(round((j + 1) * len(refs) / (len(seeded) + 1)), seeded[j])
    return out


# --- spectral -------------------------------------------------------------

def spectral_plan(seed, scale):
    """GOE, the beta = 2 structure, dsum and a fixed rotated L = 3 direct
    sum, with seed-drawn rotated direct sums (one at scale 1) spread between
    them; their L runs through 1, 2, 3 from an offset set by the seed. Every
    structure's edges have a closed form."""
    fixed = fixed_direct_sum(3)
    refs = [("goe", goe(), SEMICIRCLE_EDGES, True),
            ("herm", herm(), SEMICIRCLE_EDGES, False),
            ("dsum", dsum(), dsum_sum().edges, False),
            ("fixed-L3", fixed.structure, fixed.edges, False)]
    seeded = []
    for i in range(max(1, round(scale))):
        ell = (1, 2, 3)[(seed + i) % 3]
        ds = rotated_direct_sum(K.stream(seed, 1, i), ell)
        seeded.append((f"{SEEDED}{i}-L{ell}", ds.structure, ds.edges, False))
    return _interleave(refs, seeded)


def spectral_unit(run, name, st, edges, is_goe, oracles):
    got = run.op(name, "edges", lambda: (K.right_edge(st).r_inf, K.left_edge(st)),
                 lambda e: _problem(abs(e[0] - edges[1]) <= EDGE_TOL and abs(e[1] - edges[0]) <= EDGE_TOL,
                          f"edges {e} vs oracle {edges}"))
    if got is None:
        return
    right, left = got
    margin = 0.02 * (right - left)
    run.op(name, "density",
           lambda: K.density(st, left - margin, right + margin, grid_size=201),
           lambda d: _problem(abs(d.mass - 1.0) <= d.tol_q,
                              f"mass {d.mass} off 1 by more than tol_q {d.tol_q}"))
    psi = np.eye(st.L) / st.L
    thetas = np.linspace(0.6, 3.0, 6)

    def check_outliers(zs):
        if is_goe:
            return [f"Z({t:.2f}) = {z!r} vs BBP {oracles['bbp'](t)!r}"
                    for t, z in zip(thetas, zs) if abs(z - oracles["bbp"](t)) > BBP_TOL]
        return [f"Z({t:.2f}) = {z!r} below the edge {right!r}"
                for t, z in zip(thetas, zs) if not z >= right]

    run.op(name, "outliers", lambda: [K.largest_outlier(st, float(t), psi).Z for t in thetas],
           check_outliers)
    target = right + 0.5

    def check_tilt(theta):
        _, phi_hat = K.phi_maps(st, theta, target, psi)
        z = K.largest_outlier(st, theta, phi_hat).Z
        return _problem(abs(z - target) <= ROUND_TRIP_TOL,
                        f"Z at the returned tilt is {z!r}, target {target!r}")

    run.op(name, "tilt", lambda: K.tilt_for_target(st, target, psi), check_tilt)


# --- rate -----------------------------------------------------------------

@dataclass
class RateConfig:
    name: str
    model: DirectSum
    xs: list
    pair_of: str | None = None  # beta = 1 config whose values bound this one

    @property
    def structure(self):
        return self.model.structure


def rate_plan(seed, scale):
    """dsum at six x-points, one config each; a fixed rotated L = 2 direct
    sum as beta = 1 and beta = 2; and seed-drawn ones (one at scale 1) as
    beta = 1 on even and beta = 2 on odd seeds, then alternating. Each direct
    sum is asked for two x-points, 0.25 and 0.75 right of its edge."""
    fixed = fixed_direct_sum(2)
    xs = [fixed.edges[1] + 0.25, fixed.edges[1] + 0.75]
    refs = [RateConfig("dsum", dsum_sum(), [x]) for x in DSUM_XS]
    refs += [RateConfig("fixed-L2-b1", fixed, xs),
             RateConfig("fixed-L2-b2", fixed.with_beta(2), xs, pair_of="fixed-L2-b1")]
    seeded = []
    for i in range(max(1, round(scale))):
        ds = rotated_direct_sum(K.stream(seed, 2, i), 2)
        right = ds.edges[1]
        xs = [right + 0.25, right + 0.75]
        name = f"{SEEDED}{i}-L2"
        beta = 1 + (seed + i) % 2
        seeded.append(RateConfig(f"{name}-b{beta}", ds.with_beta(beta), xs))
    return _interleave(refs, seeded)


def _cli_rate(cfg, workdir):
    """One batch run: write the config, call kronldp.cli.main, read rate.csv."""
    out = workdir / cfg.name
    path = workdir / f"{cfg.name}.json"
    path.write_text(json.dumps({"command": "rate",
                                "structure": K.structure_to_dict(cfg.structure),
                                "rate": {"x_grid": cfg.xs}}), encoding="utf-8")
    code = K.cli.main(["--config", str(path), "--out", str(out)])
    rows = []
    if code == 0:
        with open(out / "rate.csv", newline="", encoding="utf-8") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    shutil.rmtree(out, ignore_errors=True)
    path.unlink()
    return code, rows


def _last_rung_eps(st):
    """Smallest eps the default ladder reaches: q0 2^-(max_rungs - 1),
    q0 = Tr[Id/L S(Id/L)]. A point that used a larger eps stopped early,
    which the optimizer only does once the ladder is stable."""
    q0 = sum(float(np.trace(aj @ aj.conj().T).real) for aj in st.a) / st.L ** 2
    return q0 * 2.0 ** -(K.OptConfig().max_rungs - 1)


def rate_unit(run, cfg, workdir, values, oracles):
    def check(result):
        code, rows = result
        if code != 0:
            return [f"kronldp exited {code}"] * len(cfg.xs)
        got_xs = [r["x"] for r in rows]
        if len(rows) != len(cfg.xs) or any(abs(a - b) > 1e-12 for a, b in zip(got_xs, cfg.xs)):
            return [f"rate.csv holds x = {got_xs}, asked for {cfg.xs}"] * len(cfg.xs)
        vals = [r["rate"] for r in rows]
        values[cfg.name] = vals
        problems = []
        for x, v in zip(cfg.xs, vals):
            exact = cfg.model.rate(x, oracles["goe_rate"])
            if abs(v - exact) > RATE_TOL:
                problems.append(f"I({x}) = {v!r} vs closed form {exact!r}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            problems.append(f"I not increasing: {vals}")
        eps_last = _last_rung_eps(cfg.structure)
        problems += [f"x = {r['x']}: eps ladder ran to its last rung (unstable)"
                     for r in rows if not r["epsilon"] > eps_last * (1.0 + 1e-9)]
        if cfg.pair_of is not None and cfg.pair_of in values:
            problems += [f"I_2({x}) = {v2!r} > 2 I_1 = {2 * v1!r}"
                         for x, v1, v2 in zip(cfg.xs, values[cfg.pair_of], vals)
                         if v2 > 2.0 * v1 + RATE_TOL]
        return problems

    run.op(cfg.name, "rate_point", lambda: _cli_rate(cfg, workdir), check, count=len(cfg.xs))


# --- tail -------------------------------------------------------------------

@dataclass
class TailSizes:
    dense_goe: int
    dense_herm: int
    tridiagonal: int
    gue_tridiagonal: int
    importance: int
    tilted: int


def tail_plan(seed, scale):
    """Reps for each sampler call; floors keep every check meaningful."""
    def reps(nominal, floor):
        return max(floor, round(nominal * scale))

    return TailSizes(dense_goe=reps(18_000, 2_000), dense_herm=reps(5_000, 1_000),
                     tridiagonal=reps(500_000, 30_000), gue_tridiagonal=reps(200_000, 20_000),
                     importance=reps(4_000, 1_000), tilted=reps(200, 20))


def _binomial_gap(p1, n1, p2, n2):
    """|p1 - p2| in units of the combined binomial standard deviation."""
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    sigma = math.sqrt(max(pooled * (1.0 - pooled), 1e-300) * (1.0 / n1 + 1.0 / n2))
    return abs(p1 - p2) / sigma


def tail_units(run, seed, sizes, oracles):
    x, delta = TAIL_X, TAIL_DELTA
    g, h = goe(), herm()
    est = {}

    def dense(unit, st, n, reps, key):
        e = run.op(unit, "dense",
                   lambda: K.tail_probability(st, x, delta, n, reps, mc_seed(seed, 3, key),
                                              sampler="dense"),
                   lambda e: _problem(0 < e.hits < e.reps, f"{e.hits} hits in {e.reps} draws"))
        run.dense_draws += 0 if e is None else e.reps
        return e

    # The two structures' operations alternate, so each structure's time is
    # spread over the run rather than caught in one slow spell of the machine.
    # GOE, N = 100: dense count, tridiagonal count, importance, tilted mean.
    # herm, N = 50: lambda_1 is the larger of two independent GUE(50) top
    # eigenvalues, so P(window) = P(max <= x + d) - P(max < x - d) follows from
    # the one-sided GUE tail q = P(lambda_1 >= x - d) as 1 - (1 - q)^2 (the mass
    # beyond x + d is below 1e-9 at N = 50).
    est["dense"] = dense("goe", g, 100, sizes.dense_goe, 0)
    est["herm"] = dense("herm", h, 50, sizes.dense_herm, 4)
    est["tri"] = run.op(
        "goe", "tridiagonal",
        lambda: K.tail_probability(g, x, delta, 100, sizes.tridiagonal, mc_seed(seed, 3, 1),
                                   sampler="tridiagonal"),
        lambda e: [] if est["dense"] is None else _problem(
            _binomial_gap(est["dense"].p_hat, est["dense"].reps, e.p_hat, e.reps) <= BINOMIAL_SIGMAS,
            f"tridiagonal p = {e.p_hat!r} vs dense p = {est['dense'].p_hat!r}"))

    def check_gue(e):
        if est["herm"] is None:
            return []
        q = e.p_hat
        pred = 1.0 - (1.0 - q) ** 2
        sd_pred = 2.0 * (1.0 - q) * math.sqrt(max(q * (1.0 - q), 1e-300) / e.reps)
        ph, nh = est["herm"].p_hat, est["herm"].reps
        sd = math.sqrt(max(pred * (1.0 - pred), 1e-300) / nh + sd_pred ** 2)
        return _problem(abs(ph - pred) <= BINOMIAL_SIGMAS * sd,
                        f"dense beta-2 p = {ph!r} vs two-GUE prediction {pred!r}")

    run.op("herm", "gue_tridiagonal",
           lambda: K.tail_probability(gue(), x, delta, 50, sizes.gue_tridiagonal,
                                      mc_seed(seed, 3, 5), one_sided=True,
                                      sampler="tridiagonal"),
           check_gue)

    def check_importance(e):
        problems = _problem(not e.unreliable, f"importance estimate flagged unreliable (ESS {e.ess})")
        if est["tri"] is not None:
            ratio = e.p_hat / est["tri"].p_hat
            problems += _problem(1.0 / 3.0 <= ratio <= 3.0,
                                 f"importance / tridiagonal = {ratio!r}")
        return problems

    run.op("goe", "importance",
           lambda: K.importance_tail(g, x, delta, 100, sizes.importance, mc_seed(seed, 3, 2),
                                     theta=IMPORTANCE_THETA),
           check_importance)
    target = oracles["bbp"](TILT_THETA)
    run.op("goe", "tilted",
           lambda: K.tilted_outlier_check(g, TILT_THETA, np.ones((1, 1)), 400, sizes.tilted,
                                          mc_seed(seed, 3, 3)),
           lambda c: _problem(abs(c.mean_lambda1 - target) <= TILT_MEAN_TOL
                              and abs(c.predicted_z - target) <= BBP_TOL,
                              f"tilted mean {c.mean_lambda1!r}, predicted {c.predicted_z!r}, "
                              f"BBP {target!r}"))


# --- entry points ---------------------------------------------------------

ORACLES = {"bbp": bbp_outlier, "goe_rate": goe_rate}


def plan(workload, seed, scale):
    """Seed-determined inputs of one run (the part of set-up that is ours)."""
    if workload == "spectral":
        return spectral_plan(seed, scale)
    if workload == "rate":
        return rate_plan(seed, scale)
    if workload == "tail":
        return tail_plan(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


def execute(workload, seed, inputs, workdir, recorder=None, oracles=None):
    """Run the timed loop over the planned inputs; return the Run record."""
    oracles = ORACLES if oracles is None else oracles
    run = Run("dense" if workload == "tail" else "interpreter", recorder)
    if workload == "spectral":
        for name, st, edges, is_goe in inputs:
            spectral_unit(run, name, st, edges, is_goe, oracles)
    elif workload == "rate":
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        values = {}
        for cfg in inputs:
            rate_unit(run, cfg, workdir, values, oracles)
    else:
        tail_units(run, seed, inputs, oracles)
    run.calibrate()
    return run


def summary(run):
    """End-to-end figures of a run.

    wall_s and structure_s cover the fixed reference structures only. The
    seed-drawn structures run and are checked like the others, but their cost
    depends on the seed (their L, shifts and scales), which would put the
    seed's variance into a gated time; their time is reported as
    seeded_wall_s. cal_wall_s is the same work at the reference speed of the
    machine (Run.calibrated_seconds).
    """
    units = run.per_unit()
    ref = [t for u, t in units.items() if not u.startswith(SEEDED)]
    points = run.per_point("rate_point")
    dense_s = run.seconds_of("dense")
    return {
        "cal_wall_s": run.calibrated_seconds(lambda unit: not unit.startswith(SEEDED)),
        "cal_s": statistics.median(run.calibrations),
        "wall_s": sum(ref),
        "structure_s": statistics.median(ref) if ref else 0.0,
        "seeded_wall_s": sum(t for u, t in units.items() if u.startswith(SEEDED)),
        "rate_point_s": statistics.median(points) if points else 0.0,
        "dense_draws_per_s": run.dense_draws / dense_s if dense_s > 0 else 0.0,
    }
