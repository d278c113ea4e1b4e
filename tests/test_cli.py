"""Exit codes, file contracts, and override plumbing of the batch front end.

Most tests invoke main() in-process with a config written to tmp_path; one
test goes through the installed console script to cover the entry point.
Numeric expectations reuse the closed-form GOE oracles (rate quadrature
values from test_oracles, the closed-form GOE rate, BBP map
2*theta + 1/(2*theta)); everything else
here is contract, not math: which files appear, which exit code fires,
which stream carries the diagnostic.
"""
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from kronldp import cli, mde
from kronldp.cli import main
from kronldp.mde import NoInverseError, _SpectralCache, right_edge
from kronldp.model import structure_from_dict
from kronldp.outlier import TiltSearchError, largest_outlier

from oracles import goe_rate_closed
from test_oracles import FROZEN_GOE_RATE

GOE_DOC = {"beta": 1, "A0": [[0.0]], "A": [[[1.0]]]}
PAIR_DOC = {"beta": 1, "A0": [[0.2, 0.0], [0.0, -0.1]],
            "A": [[[1.0, 0.0], [0.0, 0.5]], [[0.0, 0.4], [0.4, 0.0]]]}
# run_meta.json keys of one rate point; stability_flag is its one certificate
RATE_POINT_KEYS = {"x", "fevals", "stability_flag", "optimality_residual", "first_order_gap",
                   "candidates", "runner_up"}


def run_cli(tmp_path, doc, *flags, name="run.json"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    return main(["--config", str(cfg), "--out", str(out), *flags]), out


def reject_non_json_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    body = [line.split(",") for line in lines[1:]]
    return header, body


# ---------------------------------------------------------------------------
# density

def test_density_semicircle_mass(tmp_path):
    doc = {"command": "density", "structure": GOE_DOC, "seed": 1, "density": {}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    header, body = read_csv(out / "density.csv")
    assert header == ["x", "density", "cell_mass"]
    mass = sum(float(row[2]) for row in body)
    assert mass == pytest.approx(1.0, abs=1e-3)
    support = json.loads((out / "support.json").read_text())
    assert support["r_inf"] == pytest.approx(2.0, abs=1e-10)
    assert support["left_edge"] == pytest.approx(-2.0, abs=1e-10)
    assert support["m_at_edge"] == pytest.approx(1.0, abs=1e-10)
    assert support["fold_residual"] <= 1e-10 and support["fold_steps"] > 0


def test_density_atoms_only_edge_is_exact(tmp_path):
    doc = {"command": "density", "seed": 1,
           "structure": {"beta": 1, "A0": [[1.7, 0.0], [0.0, -0.3]], "A": []}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    support = json.loads((out / "support.json").read_text(),
                         parse_constant=reject_non_json_constant)
    assert support["r_inf"] == 1.7
    # the Stieltjes transform blows up at an atom: null, not Infinity
    assert support["m_at_edge"] is None
    assert support["fold_residual"] == 0.0 and support["fold_steps"] == 0
    # no continuous part to tabulate
    _, body = read_csv(out / "density.csv")
    assert body == []


def test_density_rerun_is_byte_identical(tmp_path):
    doc = {"command": "density", "structure": GOE_DOC, "seed": 1,
           "density": {"grid_size": 201}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("density.csv", "support.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    meta = json.loads((outs[0] / "run_meta.json").read_text())
    assert meta["command"] == "density"
    assert meta["seed"] == 1
    assert "density.csv" in meta["files"]


def test_run_meta_lists_only_the_files_the_run_wrote(tmp_path):
    # an output directory that already holds an unrelated file and an older
    # density.csv: run_meta.json names the rate run's own file, not the
    # directory's listing
    out = tmp_path / "out"
    out.mkdir()
    (out / "unrelated.txt").write_text("kept\n", encoding="utf-8")
    (out / "density.csv").write_text("x,density,cell_mass\n", encoding="utf-8")
    doc = {"command": "rate", "structure": GOE_DOC, "seed": 1, "rate": {"x_grid": [3.0]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    assert json.loads((out / "run_meta.json").read_text())["files"] == ["rate.csv"]
    assert (out / "unrelated.txt").read_text(encoding="utf-8") == "kept\n"


def test_density_run_meta_reports_the_points_solved_again(tmp_path, monkeypatch):
    # run_meta.json carries the density's fallback_points and
    # refine_fallbacks: 0 and 0 on GOE and with no noise, and a refinement
    # level's reject (forced at the grid's second point) is counted
    atoms = {"beta": 1, "A0": [[1.7, 0.0], [0.0, -0.3]], "A": []}
    for structure, sub in ((GOE_DOC, "goe"), (atoms, "atoms")):
        (tmp_path / sub).mkdir()
        doc = {"command": "density", "structure": structure, "seed": 1, "density": {"grid_size": 201}}
        code, out = run_cli(tmp_path / sub, doc)
        assert code == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["fallback_points"] == 0 and meta["refine_fallbacks"] == 0

    stacked, rejected = mde._solve_batch, []

    def reject_once(structure, z, m0, tol):
        m, ok = stacked(structure, z, m0, tol)
        at = np.real(z) == np.linspace(-2.1, 2.1, 201)[1]
        if at.any() and not rejected:  # the level's solve; the rung loop's stands
            rejected.append(True)
            ok[at] = False
        return m, ok

    monkeypatch.setattr(mde, "_solve_batch", reject_once)
    doc = {"command": "density", "structure": GOE_DOC, "seed": 1,
           "density": {"grid_size": 201, "x_lo": -2.1, "x_hi": 2.1}}
    (tmp_path / "rejected").mkdir()
    code, out = run_cli(tmp_path / "rejected", doc)
    assert code == 0 and rejected
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["fallback_points"] == 0 and meta["refine_fallbacks"] == 1


LEFT_ATOM_DOC = {"beta": 1, "A0": [[-5.0, 0.0], [0.0, 0.0]], "A": [[[0.0, 0.0], [0.0, 1.0]]]}


def test_density_with_x_lo_survives_a_failed_left_fold(tmp_path, capsys):
    # block 1 is the atom -5 with no noise, so the left fold fails; an
    # explicit x_lo needs no left edge, and support.json says it has none
    doc = {"command": "density", "structure": LEFT_ATOM_DOC, "seed": 1,
           "density": {"x_lo": -3.0, "x_hi": 3.0, "grid_size": 61}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    support = json.loads((out / "support.json").read_text())
    assert support["left_edge"] is None
    assert support["r_inf"] == pytest.approx(2.0, abs=1e-10)
    assert "support.json" in json.loads((out / "run_meta.json").read_text())["files"]
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and "atom" in err


def test_density_without_x_lo_fails_on_the_left_fold_before_writing(tmp_path, capsys):
    doc = {"command": "density", "structure": LEFT_ATOM_DOC, "seed": 1,
           "density": {"x_hi": 3.0, "grid_size": 61}}
    code, out = run_cli(tmp_path, doc)
    assert code == 2
    assert list(out.iterdir()) == []
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rate

def test_rate_goe_matches_quadrature_and_skips_bulk(tmp_path, capsys):
    doc = {"command": "rate", "structure": GOE_DOC, "seed": 1,
           "rate": {"x_grid": [1.5, 2.5, 3.0]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    err = capsys.readouterr().err
    assert "1.5" in err and "skipped" in err
    _, body = read_csv(out / "rate.csv")
    got = {float(row[0]): float(row[1]) for row in body}
    assert set(got) == {2.5, 3.0}
    assert got[2.5] == pytest.approx(FROZEN_GOE_RATE[2.5], abs=1e-3)
    assert got[3.0] == pytest.approx(FROZEN_GOE_RATE[3.0], abs=1e-3)


def test_rate_run_meta_reports_each_point(tmp_path):
    doc = {"command": "rate", "structure": PAIR_DOC, "seed": 1,
           "rate": {"x_grid": [3.0, 3.5]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    header, _ = read_csv(out / "rate.csv")
    assert header == ["x", "rate", "theta_star", "epsilon"]
    points = json.loads((out / "run_meta.json").read_text(),
                        parse_constant=reject_non_json_constant)["rate_points"]
    assert [p["x"] for p in points] == [3.0, 3.5]
    for p in points:
        # one certified search per point, at the optimum of the tilt identity;
        # stability_flag is the one certificate
        assert set(p) == RATE_POINT_KEYS
        assert p["fevals"] > 0
        assert p["stability_flag"] is True
        assert p["optimality_residual"] <= 1e-10
        assert p["first_order_gap"] >= -1e-5
        assert p["candidates"] >= 1


def test_rate_without_a_candidate_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # where the MDE polish gives no screened start a candidate, the point is
    # a numerical failure (exit 2) that names x, and no file is written
    import kronldp.rate as rate_mod

    monkeypatch.setattr(rate_mod, "_newton_polish",
                        lambda structure, z, m0, tol: (m0.copy(), np.zeros(len(z), dtype=bool)))
    doc = {"command": "rate", "structure": PAIR_DOC, "seed": 1,
           "rate": {"x_grid": [3.0, 3.5]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 2
    assert "no candidate for the rate at x=3.0" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())


def test_rate_command_never_evaluates_the_log_potential(tmp_path, monkeypatch):
    # F(theta_x) = 0 is an identity: the rate command needs no U(x), so it
    # runs with the log potential disabled (an internal error, exit 4, if not)
    def disabled(self, x):
        raise AssertionError("the rate command evaluated U(x)")

    monkeypatch.setattr(_SpectralCache, "log_potential", disabled)
    doc = {"command": "rate", "structure": PAIR_DOC, "seed": 1,
           "rate": {"x_grid": [3.0]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    (p,) = json.loads((out / "run_meta.json").read_text())["rate_points"]
    assert set(p) == RATE_POINT_KEYS and p["stability_flag"] is True


def test_rate_run_meta_reports_one_certified_search_at_low_noise(tmp_path):
    # GOE next to a block of noise 0.01 shifted by 4: the optimum is E22,
    # whose q = Tr[E22 S(E22)] = 1e-4 lies far below q0 = Tr[Id/2 S(Id/2)];
    # one search reaches and certifies it, and the epsilon column holds its q
    low_noise = {"beta": 1, "A0": [[0.0, 0.0], [0.0, 4.0]],
                 "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.01]]]}
    doc = {"command": "rate", "structure": low_noise, "seed": 1,
           "rate": {"x_grid": [4.023]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    (p,) = json.loads((out / "run_meta.json").read_text(),
                      parse_constant=reject_non_json_constant)["rate_points"]
    assert set(p) == RATE_POINT_KEYS
    assert p["stability_flag"] is True and p["candidates"] >= 1
    _, body = read_csv(out / "rate.csv")
    # I_GOE((4.023 - 4) / 0.01), below I_GOE(4.023)
    want = goe_rate_closed((4.023 - 4.0) / 0.01)
    assert float(body[0][1]) == pytest.approx(want, rel=1e-12)
    assert float(body[0][3]) == pytest.approx(1e-4, rel=1e-12)


def test_rate_beta2_at_most_twice_beta1(tmp_path):
    st = structure_from_dict(PAIR_DOC)
    edge = right_edge(st).r_inf
    grid = [edge + 0.5, edge + 1.0]
    vals = {}
    for beta in (1, 2):
        doc = {"command": "rate", "seed": 1,
               "structure": dict(PAIR_DOC, beta=beta),
               "rate": {"x_grid": grid}}
        code, out = run_cli(tmp_path, doc, name=f"b{beta}.json")
        assert code == 0
        _, body = read_csv(out / "rate.csv")
        vals[beta] = [float(row[1]) for row in body]
    for i2, i1 in zip(vals[2], vals[1]):
        assert i2 <= 2.0 * i1 + 1e-6


def test_rate_degenerate_model_exits_3(tmp_path, capsys):
    doc = {"command": "rate", "seed": 1,
           "structure": {"beta": 1, "A0": [[2.0, 0.0], [0.0, 1.0]], "A": []},
           "rate": {"x_grid": [3.0]}}
    code, _ = run_cli(tmp_path, doc)
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_rate_missing_grid_is_config_error(tmp_path, capsys):
    doc = {"command": "rate", "structure": GOE_DOC, "seed": 1, "rate": {}}
    code, _ = run_cli(tmp_path, doc)
    assert code == 1
    assert "x_grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# outlier

def test_outlier_bbp_column(tmp_path):
    doc = {"command": "outlier", "structure": GOE_DOC, "seed": 1,
           "outlier": {"theta_grid": [0.6, 1.0, 2.0]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    _, body = read_csv(out / "outlier.csv")
    z = [float(row[1]) for row in body]
    for got, theta in zip(z, (0.6, 1.0, 2.0)):
        assert got == pytest.approx(2 * theta + 1 / (2 * theta), abs=1e-6)


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_draws_and_tail_record(tmp_path):
    doc = {"command": "simulate", "structure": GOE_DOC, "seed": 7,
           "simulate": {"N": 60, "reps": 40, "x": 2.05, "delta": 0.15}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    _, body = read_csv(out / "simulate.csv")
    assert len(body) == 40
    rec = json.loads((out / "tail.jsonl").read_text().splitlines()[0])
    assert rec["kind"] == "tail_estimate"
    assert rec["seed"] == 7
    assert rec["method"] == "direct"
    assert rec["version"]
    assert rec["structure"]
    assert 0.0 <= rec["p_hat"] <= 1.0


def test_simulate_reports_its_sampler_processes(tmp_path, monkeypatch):
    # three dense batches: two worker processes draw them when two CPUs are
    # there, the caller alone when one is, and the files are the same
    import multiprocessing

    from kronldp import montecarlo

    doc = {"command": "simulate", "structure": GOE_DOC, "seed": 7,
           "simulate": {"N": 8, "reps": 1100, "x": 2.0, "delta": 0.3}}
    files = {}
    for cpus in (1, 2):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        (tmp_path / str(cpus)).mkdir()
        code, out = run_cli(tmp_path / str(cpus), doc)
        assert code == 0
        assert multiprocessing.active_children() == []
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["sampler_processes"] == cpus
        files[cpus] = [(out / name).read_bytes() for name in ("simulate.csv", "tail.jsonl")]
    assert files[1] == files[2]
    del doc["simulate"]["x"], doc["simulate"]["delta"]
    (tmp_path / "draws").mkdir()
    code, out = run_cli(tmp_path / "draws", doc)
    assert json.loads((out / "run_meta.json").read_text())["sampler_processes"] == 1


HERM_DOC = {"beta": 2, "A0": [[0.3, 0.0], [0.0, 0.3]],
            "A": [[[0.0, [0.0, 1.0]], [[0.0, -1.0], 0.0]], [[1.0, 0.0], [0.0, 1.0]]]}


@pytest.mark.parametrize("doc", [PAIR_DOC, HERM_DOC], ids=["beta1", "beta2"])
def test_simulate_reports_the_mean_profile(tmp_path, doc):
    # run_meta.json carries the mean rho(v_1), [re, im] pairs at beta = 2;
    # simulate.csv keeps its two columns
    from kronldp.montecarlo import simulate_lambda1

    run = {"command": "simulate", "structure": doc, "seed": 7, "simulate": {"N": 20, "reps": 6}}
    code, out = run_cli(tmp_path, run)
    assert code == 0
    assert read_csv(out / "simulate.csv")[0] == ["rep", "lambda1"]
    got = json.loads((out / "run_meta.json").read_text())["mean_profile"]
    draws = simulate_lambda1(structure_from_dict(doc), 20, 6, 7)
    want = np.mean([prof.psi for _, prof in draws], axis=0)
    if doc["beta"] == 2:
        got = np.array(got) @ [1.0, 1j]
    assert np.array(got).shape == (2, 2)
    assert np.abs(got - want).max() <= 1e-15
    assert np.trace(got).real == pytest.approx(1.0, abs=1e-12)


def test_simulate_zero_hits_writes_strict_json(tmp_path):
    doc = {"command": "simulate", "structure": GOE_DOC, "seed": 7,
           "simulate": {"N": 20, "reps": 10, "x": 6.0, "delta": 0.1}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    rec = json.loads((out / "tail.jsonl").read_text().splitlines()[0],
                     parse_constant=reject_non_json_constant)
    assert rec["hits"] == 0
    # the rate estimate is infinite without hits: null, not "inf" or Infinity
    assert rec["rate_hat"] is None


def test_simulate_zero_reps_exits_1(tmp_path, capsys):
    doc = {"command": "simulate", "structure": GOE_DOC, "seed": 1,
           "simulate": {"N": 20, "reps": 0}}
    code, _ = run_cli(tmp_path, doc)
    assert code == 1
    assert "reps must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("structure, params, named", [
    (GOE_DOC, {"delta": -0.1}, "delta"),
    (GOE_DOC, {"delta": 0.1, "sampler": "tridiag"}, "tridiag"),
    (PAIR_DOC, {"delta": 0.1, "sampler": "tridiagonal"}, "tridiagonal"),
], ids=["negative-delta", "unknown-sampler", "tridiagonal-at-L2"])
def test_simulate_tail_failure_writes_no_file(tmp_path, capsys, structure, params, named):
    # the tail window's parameters are checked by the tail estimate, after
    # the draws: both are computed before either file is written, so a bad
    # window leaves no simulate.csv behind (it was written, then exit 1)
    doc = {"command": "simulate", "structure": structure, "seed": 1,
           "simulate": {"N": 10, "reps": 5, "x": 2.5, **params}}
    code, out = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err and named in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, params, named", [
    ("outlier", {"theta_grid": [1.0, None]}, "outlier.theta_grid"),
    ("rate", {"x_grid": [2.5, [3]]}, "rate.x_grid"),
    ("simulate", {"N": 10, "reps": None}, "simulate.reps"),
    ("simulate", {"N": 10.5, "reps": 5}, "simulate.N"),
    ("density", {"grid_size": "201"}, "density.grid_size"),
    ("simulate", {"N": 10, "reps": 5, "x": 2.5}, "simulate.delta"),
])
def test_malformed_numeric_param_is_config_error(tmp_path, capsys, command, params, named):
    # a value that is not a number, or half of the tail window, is named
    # as a config error, not an internal error or a silently skipped file
    doc = {"command": command, "structure": GOE_DOC, "seed": 1, command: params}
    code, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err and named in err


@pytest.mark.parametrize("command, params, named", [
    ("outlier", {"theta_grid": [float("nan"), 1.0]}, "outlier.theta_grid"),
    ("rate", {"x_grid": [float("inf"), 2.5]}, "rate.x_grid"),
    ("simulate", {"N": 10, "reps": 5, "x": float("nan"), "delta": 0.1}, "simulate.x"),
])
def test_non_finite_number_is_config_error(tmp_path, capsys, command, params, named):
    # Python's json reads NaN and Infinity: they are named as config errors
    # before any output file is written, not carried into a CSV row (outlier
    # wrote nan,3,nan), a solve (rate exited 2) or a record that strict JSON
    # cannot hold (simulate wrote its CSV and then exited 1)
    doc = {"command": command, "structure": GOE_DOC, "seed": 1, command: params}
    code, out = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err and named in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("structure, params, named", [
    (PAIR_DOC, {"psi": [[0.5, "0.1"], [0.1, 0.5]]}, "outlier.psi"),
    (PAIR_DOC, {"psi": [[0.5, None], [0.1, 0.5]]}, "outlier.psi"),
    (PAIR_DOC, {"psi": [[0.5, [0.1, 0.0]], [[0.1, 0.0], 0.5]]}, "outlier.psi"),
    ({"beta": 1, "A0": [["0.5"]], "A": [[[1.0]]]}, {}, "A0"),
    ({"beta": 1, "A0": [[0.5]], "A": [[[True]]]}, {}, "A1"),
])
def test_malformed_matrix_entry_is_config_error(tmp_path, capsys, structure, params, named):
    # matrix entries are JSON numbers, or [re, im] pairs where complex
    # entries are allowed; a string, a boolean or a null is named, not
    # coerced or misreported as a property of the matrix
    doc = {"command": "outlier", "structure": structure, "seed": 1,
           "outlier": {"theta_grid": [1.0], **params}}
    code, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err and named in err


@pytest.mark.parametrize("field, value", [
    ("beta", 1.9), ("beta", "2"), ("beta", True),
    ("L", 1.9), ("L", "1"), ("L", True),
    ("k", 1.9), ("k", "1"), ("k", True),
])
def test_non_integer_structure_field_is_config_error(tmp_path, capsys, field, value):
    # beta, L and k are integral JSON numbers: a fraction, a string or a
    # boolean is named, not truncated or coerced to an integer
    doc = {"command": "outlier", "structure": {**GOE_DOC, field: value}, "seed": 1,
           "outlier": {"theta_grid": [1.0]}}
    code, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err and f"{field} must be int" in err


@pytest.mark.parametrize("value", [True, "1", -1])
def test_malformed_seed_is_config_error(tmp_path, capsys, value):
    # the seed is a non-negative integral JSON number: a boolean or a string
    # is not coerced, and a negative seed is named rather than left to the
    # random number generator's own message
    doc = {"command": "simulate", "structure": GOE_DOC, "seed": value,
           "simulate": {"N": 4, "reps": 2}}
    code, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err and "seed" in err


def test_outlier_psi_of_another_size_is_config_error(tmp_path, capsys):
    doc = {"command": "outlier", "structure": PAIR_DOC, "seed": 1,
           "outlier": {"theta_grid": [1.0], "psi": (np.eye(3) / 3).tolist()}}
    code, out = run_cli(tmp_path, doc)
    assert code == 1
    assert "psi must be L x L = 2 x 2" in capsys.readouterr().err
    assert not (out / "outlier.csv").exists()


def test_outlier_complex_psi_at_beta2(tmp_path):
    # at beta = 2 a Hermitian profile may have [re, im] entries
    structure = {**PAIR_DOC, "beta": 2}
    doc = {"command": "outlier", "structure": structure, "seed": 1,
           "outlier": {"theta_grid": [1.0], "psi": [[0.5, [0.0, 0.1]], [[0.0, -0.1], 0.5]]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    _, body = read_csv(out / "outlier.csv")
    psi = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    want = largest_outlier(structure_from_dict(structure), 1.0, psi).Z
    assert float(body[0][1]) == pytest.approx(want, abs=1e-12)


def test_simulate_seed_override_changes_draws(tmp_path):
    doc = {"command": "simulate", "structure": GOE_DOC, "seed": 7,
           "simulate": {"N": 30, "reps": 10}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    outs = {}
    for tag, flags in (("a", []), ("b", []), ("c", ["--seed", "8"])):
        out = tmp_path / tag
        assert main(["--config", str(cfg), "--out", str(out), *flags]) == 0
        outs[tag] = (out / "simulate.csv").read_bytes()
    assert outs["a"] == outs["b"]
    assert outs["a"] != outs["c"]


# ---------------------------------------------------------------------------
# config plumbing

def test_malformed_json_names_the_problem(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_structure_field_named(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"command": "rate", "seed": 1})
    assert code == 1
    assert "'structure'" in capsys.readouterr().err


def test_unknown_command_named(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"command": "transmogrify",
                                 "structure": GOE_DOC})
    assert code == 1
    assert "'command'" in capsys.readouterr().err


def test_invalid_structure_rejected(tmp_path, capsys):
    doc = {"command": "density", "seed": 1,
           "structure": {"beta": 1, "A0": [[0.0, 1.0], [0.0, 0.0]], "A": []}}
    code, _ = run_cli(tmp_path, doc)
    assert code == 1
    assert "structure" in capsys.readouterr().err


def test_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.HANDLERS, "density", broken)
    code, _ = run_cli(tmp_path, {"command": "density", "structure": GOE_DOC})
    assert code == 4
    err = capsys.readouterr().err
    assert "internal error" in err and "boom" in err


@pytest.mark.parametrize("error", [NoInverseError, TiltSearchError])
def test_numerical_failures_exit_2(tmp_path, capsys, monkeypatch, error):
    # NoInverseError is a ValueError and TiltSearchError a RuntimeError:
    # neither may fall through to the config-error or internal-error codes
    def failing(cfg):
        raise error("no solution")

    monkeypatch.setitem(cli.HANDLERS, "outlier", failing)
    code, _ = run_cli(tmp_path, {"command": "outlier", "structure": GOE_DOC,
                                 "outlier": {"theta_grid": [1.0]}})
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "no solution" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_command_flag_overrides_config(tmp_path):
    doc = {"command": "density", "structure": GOE_DOC, "seed": 1,
           "outlier": {"theta_grid": [1.0]}}
    code, out = run_cli(tmp_path, doc, "--command", "outlier")
    assert code == 0
    assert (out / "outlier.csv").exists()
    assert not (out / "density.csv").exists()


def test_threads_field_is_config_error(tmp_path, capsys):
    # runs are serial; a leftover thread count is named, not silently ignored
    doc = {"command": "outlier", "structure": GOE_DOC, "seed": 1, "threads": 2,
           "outlier": {"theta_grid": [1.0]}}
    code, _ = run_cli(tmp_path, doc)
    assert code == 1
    assert "'threads' was removed" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--threads", "2"], ["--command", "transmogrify"]])
def test_usage_errors_exit_1(tmp_path, capsys, flags):
    # a command-line usage error is a config error, not argparse's 2 (which
    # here means a numerical failure)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "run.json"), *flags])
    assert exc.value.code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_version_matches_pyproject():
    # both are bumped by hand, and run_meta.json and tail.jsonl stamp
    # __version__; a regex, since Python 3.10 has no tomllib
    from pathlib import Path

    from kronldp import __version__

    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == __version__


def test_cells_are_locale_free_17g(tmp_path):
    doc = {"command": "outlier", "structure": GOE_DOC, "seed": 1,
           "outlier": {"theta_grid": [1.0 / 3.0]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    _, body = read_csv(out / "outlier.csv")
    cell = body[0][0]
    assert cell == f"{1.0 / 3.0:.17g}"
    assert float(cell) == 1.0 / 3.0  # round-trip exact


# ---------------------------------------------------------------------------
# verify subcommand (single fast suite here; the full run is the
# acceptance gate and lives in test_acceptance)

def test_verify_subset_writes_report(tmp_path):
    doc = {"command": "verify", "structure": GOE_DOC, "seed": 1,
           "verify": {"checks": ["mde-semicircle", "support-edges"]}}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    report = (out / "verify.txt").read_text()
    assert "mde-semicircle" in report and "PASS" in report
    assert "2/2 checks passed" in report


def test_verify_unknown_check_is_config_error(tmp_path, capsys):
    doc = {"command": "verify", "structure": GOE_DOC, "seed": 1,
           "verify": {"checks": ["no-such-suite"]}}
    code, _ = run_cli(tmp_path, doc)
    assert code == 1
    assert "no-such-suite" in capsys.readouterr().err


@pytest.mark.parametrize("checks", [["support-edges", 3], "rate-goe", {"rate-goe": True}, []],
                         ids=["non-string-name", "one-string", "object", "empty"])
def test_verify_checks_not_a_list_of_names_is_config_error(tmp_path, capsys, checks):
    # a non-string name was an internal error (exit 4, a TypeError in the
    # message join), one string was read as its characters ("unknown
    # checks: r, a, t, e, ..."), and an empty list ran no check and wrote
    # "0/0 checks passed" with exit 0; all name the field and exit 1, and
    # write no verify.txt
    doc = {"command": "verify", "structure": GOE_DOC, "seed": 1, "verify": {"checks": checks}}
    code, out = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err and "verify.checks" in err
    assert "unknown checks" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("names", [["support-edges", 3], "rate-goe", []])
def test_run_checks_rejects_names_that_are_not_strings(names):
    from kronldp.verify import run_checks

    with pytest.raises(ValueError, match="list of check names"):
        run_checks(names=names)


# ---------------------------------------------------------------------------
# console script

def test_console_script_entry_point(tmp_path):
    doc = {"command": "outlier", "structure": GOE_DOC, "seed": 1,
           "outlier": {"theta_grid": [1.0]}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "kronldp.cli", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    _, body = read_csv(tmp_path / "out" / "outlier.csv")
    assert float(body[0][1]) == pytest.approx(2.5, abs=1e-6)


def test_import_does_not_load_scipy_optimize():
    # the package's one scipy.optimize use, brentq in the spectral cache's
    # inverse of -m, imports it on its first call, so a fresh process that
    # imports the package and its CLI never loads it
    code = "import sys, kronldp, kronldp.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
