"""One fresh benchmark process: import kronldp from the checkout, build the
seeded inputs, optionally run the timed loop, and print one JSON line.

Started by run.py, never by hand. A fresh process means a cold per-structure
spectral cache, as every kronldp command-line run has.

    python3 bench/worker.py --workload W --seed N --seconds S --mode setup|run|trace
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_CALIBRATIONS = 3


def _import_program():
    """Import kronldp from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import kronldp

    if not Path(kronldp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"kronldp was imported from {kronldp.__file__}, not from {ROOT / 'src'}")


def _git_commit():
    """HEAD of the checkout if it is a git work tree (read from .git, no git call)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas():
    """(runtime config string, threads in effect) of numpy's OpenBLAS, if found."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", ""), ("openblas_", "64_")):
            try:
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            return get_config().decode(), int(get_threads())
    return None, None


def provenance(workload, seed, scale):
    import numpy
    import scipy

    config, threads = _openblas()
    nproc = len(os.sched_getaffinity(0))
    return {
        "machine": f"{nproc}-core {(config or 'unknown BLAS').split()[0]} box",
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "scale": scale,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    scale = args.seconds / workloads.NOMINAL_SECONDS
    inputs = workloads.plan(args.workload, args.seed, scale)
    ready = time.monotonic()
    # machine speed at set-up, to scale the set-up time as the run's time is
    cal = statistics.median(workloads.calibrate("interpreter") for _ in range(SETUP_CALIBRATIONS))
    out = {"ready": ready, "setup_speed": workloads.CAL_REFERENCE_S["interpreter"] / cal}
    if args.mode != "setup":
        recorder = None
        if args.mode == "trace":
            from tracer import Recorder

            recorder = Recorder()
            recorder.install()
        OUT_DIR.mkdir(exist_ok=True)
        workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
        try:
            run = workloads.execute(args.workload, args.seed, inputs, workdir, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        out.update(workloads.summary(run))
        out.update(attempted=run.attempted, failed=run.failed, failures=run.failures,
                   units=run.per_unit(),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   provenance=provenance(args.workload, args.seed, scale))
        if recorder is not None:
            layers, top = recorder.layers()
            spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            recorder.write(spans)
            out.update(layers=layers, counts=dict(recorder.counts), top_spans_s=top,
                       spans_file=str(spans.relative_to(ROOT)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
