"""kronldp benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload spectral|rate|tail --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports kronldp
from the checkout's src/. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is a
JSON detail record (provenance, error rate, failures, per-structure times).

--seconds sets the amount of work, not a deadline: a run does the seeded work
that takes about that long on a 2-core box (workloads.NOMINAL_SECONDS),
so both sides of a comparison do identical work.

--trace 0 runs the workload untraced in a fresh process and reports the
end-to-end metrics; set-up is measured in that process and in SETUP_PROBES
more fresh processes, and the median is reported. Both times are scaled to
the machine's reference speed by a calibration kernel timed in the same
process (workloads.calibrate). --trace 1 runs the same work twice, untraced
and traced, each in a fresh process, and reports the per-layer metrics and
the tracing overhead (traced minus untraced wall time).

This file uses the standard library only and never imports kronldp, so
every timed process starts cold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("spectral", "rate", "tail")
SETUP_PROBES = 2
BUDGET_S = 170.0  # every run must end within 180 s

# per-layer metrics: "<layer>.<function>" spans reported as .calls and .self_s
SPANS = ["mde.right_edge", "mde.left_edge", "mde.density",
         "outlier.largest_outlier", "outlier.tilt_for_target",
         "outlier.lambda_sym", "outlier.outlier_det",
         "rate.rate_function", "rate.phi_maps", "model.sample_tilted",
         "montecarlo.dense", "montecarlo.tridiagonal", "montecarlo.importance_tail",
         "montecarlo.tilted_outlier_check", "cli.main"]
COUNTS = ["mde.density.points", "rate.fevals", "rate.rungs",
          "montecarlo.draws", "montecarlo.hits"]


class WorkerError(RuntimeError):
    pass


def spawn(args, mode, deadline):
    """Run one fresh worker process to completion; return (spawn time, its JSON)."""
    worker = Path(__file__).resolve().parent / "worker.py"
    cmd = [sys.executable, str(worker), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--mode", mode]
    # One BLAS thread: the workers are single clients on a small shared box,
    # where a second BLAS thread spinning between calls slows the timed work
    # and makes it drift. The CLI's own thread count is left at its default.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("KRONLDP_THREADS", None)
    start = time.monotonic()
    timeout = deadline - start
    if timeout <= 0:
        raise WorkerError("time budget exhausted")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed nothing")
    return start, json.loads(lines[-1])


def end_to_end(args, deadline):
    setups, cal_setups = [], []
    for mode in ["setup"] * SETUP_PROBES + ["run"]:
        start, res = spawn(args, mode, deadline)
        setups.append(res["ready"] - start)
        cal_setups.append(setups[-1] * res["setup_speed"])
    metrics = {
        "cal_wall_s": (res["cal_wall_s"], "s"),
        "setup_s": (statistics.median(cal_setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    detail = {"setup_samples_s": setups, "cal_setup_samples_s": cal_setups,
              "wall_s": res["wall_s"], "cal_s": res["cal_s"]}
    return res, metrics, detail


def per_layer(args, deadline):
    _, base = spawn(args, "run", deadline)
    _, res = spawn(args, "trace", deadline)
    layers, counts = res["layers"], res["counts"]
    metrics = {}
    for name in SPANS:
        row = layers.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    scan = sum(layers.get(n, {}).get("calls", 0) for n in ("outlier.lambda_sym", "outlier.outlier_det"))
    metrics["outlier.scan_evals"] = (scan, "count")
    draws, hits = counts.get("montecarlo.draws", 0), counts.get("montecarlo.hits", 0)
    ess, ess_draws = counts.get("montecarlo.ess", 0.0), counts.get("montecarlo.importance_draws", 0)
    metrics["montecarlo.hit_frac"] = (hits / draws if draws else 0.0, "ratio")
    metrics["montecarlo.ess"] = (ess, "count")
    metrics["montecarlo.ess_per_draw"] = (ess / ess_draws if ess_draws else 0.0, "ratio")
    # raw times, the calibration kernel's time, and user-facing figures too
    # workload-specific to gate, all from the untraced run
    metrics["wall_s"] = (base["wall_s"], "s")
    metrics["cal_s"] = (base["cal_s"], "s")
    metrics["structure_s"] = (base["structure_s"], "s")
    metrics["rate_point_s"] = (base["rate_point_s"], "s")
    metrics["dense_draws_per_s"] = (base["dense_draws_per_s"], "1/s")
    metrics["seeded_wall_s"] = (base["seeded_wall_s"], "s")
    # tracing covers the whole timed section, reference and seed-drawn units
    traced, untraced = (r["wall_s"] + r["seeded_wall_s"] for r in (res, base))
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.top_spans_s"] = (res["top_spans_s"], "s")
    metrics["trace.loop_overhead_s"] = (traced - res["top_spans_s"], "s")
    detail = {"untraced": {k: base[k] for k in ("attempted", "failed", "failures", "units")},
              "spans_file": res["spans_file"]}
    # the checks of both runs count
    res["attempted"] += base["attempted"]
    res["failed"] += base["failed"]
    return res, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + BUDGET_S
    try:
        res, metrics, detail = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    detail.update(error_rate=res["failed"] / res["attempted"], ops=res["attempted"],
                  failures=res["failures"], units=res["units"], provenance=res["provenance"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
