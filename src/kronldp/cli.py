"""Batch front end: one JSON config, one command, reproducible files out.

A run is described by a single JSON document with a "command" discriminator
and a parameter block named after the command; --command, --seed and --out
override the corresponding config fields. Numeric CSV cells are
written with repr-faithful 17-significant-digit formatting so re-running a
config byte-reproduces the file bodies; wall-clock metadata goes to a
separate run_meta.json that is allowed to differ between runs, together with
the names of the files the run wrote and what a command reports about its
own work (for rate: each point's profile search evaluations, stability flag
(its certificate), optimality residual and first-order gap; for simulate:
the mean profile rho(v_1) of the draws).

Exit codes: 0 success, 1 config error (a command-line usage error
included), 2 numerical failure (no MDE convergence or no fold at the edge,
a point inside the support, 2 theta outside the range of -m, no tilt
reaching a target, a singular linear system), 3 degenerate model, 4
internal error (an unexpected exception, reported on stderr).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .mde import (ConvergenceError, DomainError, NoInverseError, density,
                  left_edge, right_edge)
from .model import (StructureError, format_matrix, parse_matrix, parse_number,
                    structure_from_dict, structure_hash)
from .montecarlo import estimate_record, simulate_lambda1, tail_probability, write_jsonl
from .outlier import TiltSearchError, lambda_sym, largest_outlier
from .rate import DegenerateModelError, phi_maps, rate_function
from .verify import render_table, run_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4

COMMANDS = ("density", "rate", "outlier", "simulate", "verify")


class ConfigError(ValueError):
    """Malformed or incomplete run configuration; exits with code 1."""


@dataclass
class RunConfig:
    structure: object
    command: str
    params: dict
    output_dir: Path
    seed: int
    meta: dict = field(default_factory=dict)  # command-specific run_meta.json entries
    files: list = field(default_factory=list)  # the output files this run wrote

    def out(self, name) -> Path:
        """The path of output file `name`, recorded for run_meta.json's files."""
        self.files.append(name)
        return self.output_dir / name


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _require(doc, field, kind):
    if field not in doc:
        raise ConfigError(f"config field '{field}' is missing")
    val = doc[field]
    if not isinstance(val, kind):
        raise ConfigError(f"config field '{field}' must be {kind.__name__}, "
                          f"got {type(val).__name__}")
    return val


def load_config(path, overrides) -> RunConfig:
    """Parse and validate the JSON config, applying CLI overrides."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    command = overrides.command or _require(doc, "command", str)
    if command not in COMMANDS:
        raise ConfigError(f"config field 'command' must be one of "
                          f"{', '.join(COMMANDS)}; got '{command}'")

    if "structure" not in doc:
        raise ConfigError("config field 'structure' is missing")
    try:
        structure = structure_from_dict(doc["structure"])
    except (StructureError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'structure' is invalid: {exc}") from exc

    try:
        seed = (overrides.seed if overrides.seed is not None
                else parse_number(doc.get("seed", 0), "seed", int))
    except StructureError as exc:
        raise ConfigError(str(exc)) from exc
    if seed < 0:
        raise ConfigError(f"config field 'seed' must be non-negative, got {seed}")
    if "threads" in doc:
        raise ConfigError("config field 'threads' was removed: the CPU affinity "
                          "mask sets the sampler processes")

    out = Path(overrides.out or doc.get("output_dir", "."))
    params = doc.get(command, {})
    if not isinstance(params, dict):
        raise ConfigError(f"config field '{command}' must be an object")
    return RunConfig(structure=structure, command=command, params=params,
                     output_dir=out, seed=seed)


def _write_rows(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(c) if not isinstance(c, str) else c for c in row)
              for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_meta(cfg: RunConfig, started):
    meta = {
        "command": cfg.command,
        "seed": cfg.seed,
        "structure": structure_hash(cfg.structure),
        "version": __version__,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "elapsed_seconds": round(time.time() - started, 3),
        "files": sorted(cfg.files),
        **cfg.meta,
    }
    (cfg.output_dir / "run_meta.json").write_text(
        json.dumps(meta, indent=2, allow_nan=False) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands

def cmd_density(cfg: RunConfig) -> int:
    st = cfg.structure
    info = right_edge(st)
    lo, hi = cfg.params.get("x_lo"), cfg.params.get("x_hi")
    try:
        left = left_edge(st)
    except ConvergenceError as exc:
        if lo is None:
            raise  # the grid starts at the left edge: nothing is written
        print(f"warning: {exc}; left_edge written as null", file=sys.stderr)
        left = None
    lo = left - 0.1 if lo is None else parse_number(lo, "density.x_lo")
    hi = info.r_inf + 0.1 if hi is None else parse_number(hi, "density.x_hi")
    grid_size = parse_number(cfg.params.get("grid_size", 1001), "density.grid_size", int)
    if st.noiseless:
        # noiseless, atoms only: no continuous density to tabulate, but the edge is exact
        rows = []
        cfg.meta.update(fallback_points=0, refine_fallbacks=0)
    else:
        dens = density(st, lo, hi, grid_size=grid_size)
        cell = np.zeros_like(dens.density)
        h = dens.grid[1] - dens.grid[0]
        cell[1:] = (dens.density[1:] + dens.density[:-1]) * h / 2.0
        rows = list(zip(dens.grid, dens.density, cell))
        # the points the stacked solves turned down and solved again
        cfg.meta.update(fallback_points=dens.fallback_points,
                        refine_fallbacks=dens.refine_fallbacks)
    _write_rows(cfg.out("density.csv"),
                ["x", "density", "cell_mass"], rows)
    support = {
        "r_inf": info.r_inf,
        # infinite when noiseless; strict JSON has no Infinity, so null
        "m_at_edge": info.m_at_edge if np.isfinite(info.m_at_edge) else None,
        "fold_residual": info.fold_residual,
        "fold_steps": info.fold_steps,
        "left_edge": left,
    }
    cfg.out("support.json").write_text(
        json.dumps(support, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_rate(cfg: RunConfig) -> int:
    st = cfg.structure
    grid = cfg.params.get("x_grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("config field 'rate.x_grid' must be a non-empty list")
    edge = right_edge(st).r_inf
    usable = []
    for x in (parse_number(v, "rate.x_grid") for v in grid):
        if x <= edge:
            print(f"warning: x = {x} is not beyond the support edge "
                  f"{edge:.6f}; row skipped", file=sys.stderr)
        else:
            usable.append(x)
    results = [rate_function(st, x) for x in usable]
    rows = [(x, r.value, r.theta_star, r.epsilon_used)
            for x, r in zip(usable, results)]
    _write_rows(cfg.out("rate.csv"),
                ["x", "rate", "theta_star", "epsilon"], rows)
    cfg.meta["rate_points"] = [_rate_point_meta(st, x, r) for x, r in zip(usable, results)]
    return EXIT_OK


def _rate_point_meta(st, x, res):
    """run_meta.json entry of one rate point. stability_flag is the one
    certificate: Psi* passes rate_function's first-order test on the
    trace-one PSD profiles, whose first-order gap is 0 at a first-order
    optimum and below -1e-5 where it fails; candidates counts the screened
    starts that the MDE polish, the search's one landing, took to an
    admissible candidate, and runner_up is the least candidate value above
    the rate, or null (`rate_function`). The optimality residual is
    |L lambda_sym(theta*, x, phi_hat*) - 1|: at the optimum the tilt L theta*
    with profile phi_hat* = phi_hat(theta*, x, Psi*) plants the outlier at x."""
    phi_hat = phi_maps(st, res.theta_star, x, res.psi_star.psi)[1]
    return {"x": x, "fevals": res.diagnostics["fevals"], "stability_flag": res.stability_flag,
            "optimality_residual": abs(st.L * lambda_sym(st, res.theta_star, x, phi_hat) - 1.0),
            "first_order_gap": res.diagnostics["first_order_gap"],
            "candidates": res.diagnostics["candidates"],
            "runner_up": res.diagnostics["runner_up"]}


def cmd_outlier(cfg: RunConfig) -> int:
    st = cfg.structure
    grid = cfg.params.get("theta_grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("config field 'outlier.theta_grid' must be a non-empty list")
    psi = cfg.params.get("psi")
    if psi is None:
        psi = np.eye(st.L) / st.L
    else:
        try:
            psi = np.array(parse_matrix(psi, "psi"))
        except StructureError as exc:
            raise ConfigError(f"config field 'outlier.psi' is invalid: {exc}") from exc
        if st.beta == 1 and np.iscomplexobj(psi):
            raise ConfigError("config field 'outlier.psi' has [re, im] entries but beta=1")
    results = [largest_outlier(st, parse_number(t, "outlier.theta_grid"), psi) for t in grid]
    rows = [(t, r.Z, r.residual) for t, r in zip(grid, results)]
    _write_rows(cfg.out("outlier.csv"), ["theta", "Z", "residual"], rows)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    st = cfg.structure
    n = parse_number(cfg.params.get("N", 100), "simulate.N", int)
    reps = parse_number(cfg.params.get("reps", 0), "simulate.reps", int)
    if reps <= 0:
        raise ConfigError("reps must be positive")
    if n <= 0:
        raise ConfigError("N must be positive")
    x, delta = cfg.params.get("x"), cfg.params.get("delta")
    if (x is None) != (delta is None):
        raise ConfigError("config fields 'simulate.x' and 'simulate.delta' go "
                          "together: give both for tail.jsonl, or neither")
    if x is not None:
        x, delta = parse_number(x, "simulate.x"), parse_number(delta, "simulate.delta")
    # every draw and the tail estimate before any file: a failure leaves none
    draws = simulate_lambda1(st, n, reps, cfg.seed)
    est = None if x is None else tail_probability(
        st, x, delta, n, reps, cfg.seed, sampler=cfg.params.get("sampler", "dense"))
    rows = [(i, lam) for i, (lam, _) in enumerate(draws)]
    _write_rows(cfg.out("simulate.csv"), ["rep", "lambda1"], rows)
    cfg.meta["mean_profile"] = format_matrix(np.mean([p.psi for _, p in draws], axis=0), st.beta)
    cfg.meta["sampler_processes"] = 1  # the lambda_1 draws are one stream, drawn here
    if est is not None:
        out = cfg.out("tail.jsonl")
        out.unlink(missing_ok=True)
        write_jsonl(out, [estimate_record(est, st, cfg.seed)])
        cfg.meta["sampler_processes"] = est.processes
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    names = cfg.params.get("checks")
    if names is not None and not (isinstance(names, list) and names
                                  and all(isinstance(n, str) for n in names)):
        raise ConfigError("config field 'verify.checks' must be a non-empty list of check "
                          f"names (strings), got {json.dumps(names)}")
    results = run_checks(names=names, emit=print)
    report = render_table(results)
    cfg.out("verify.txt").write_text(report + "\n", encoding="utf-8")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"first failing suite: {failed[0]}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


HANDLERS = {
    "density": cmd_density,
    "rate": cmd_rate,
    "outlier": cmd_outlier,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """argparse's usage errors exit 2, the code of a numerical failure here;
    they are config errors. --help and --version still exit 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: config error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kronldp",
        description="Rate functions and rare-event checks for Gaussian "
                    "Kronecker random matrices.")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--command", choices=COMMANDS,
                        help="override the config's command")
    parser.add_argument("--seed", type=int, help="override the config's seed")
    parser.add_argument("--out", help="override the config's output directory")
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    started = time.time()
    try:
        cfg = load_config(args.config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: output dir not writable: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        code = HANDLERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateModelError as exc:
        print(f"degenerate model: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ConvergenceError, DomainError, NoInverseError, TiltSearchError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # bad parameter values rejected inside the library are config errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # anything else is a bug: keep its traceback for the report
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    _write_meta(cfg, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
