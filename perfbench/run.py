"""Run one benchmark workload against the gtr sources beside this directory.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
traced run does a fixed number of rounds, so its counts repeat exactly. The
lines before it give the calibration reading, the sample counts and any
failed check. A copy of the result goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is one caller, and the host has few cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One core. On the reference host a second core gives anything from none to
# all of its time, from one second to the next, so work spread over two
# threads ran anywhere from 0.9 to 2 times as fast as on one.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("wide", "deep", "live")
CALIBRATION_STEPS = 2_000_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a reading of host speed."""
    started = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_STEPS):
        x += i
    return time.perf_counter() - started


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same workload on inputs a hundred times smaller")
    p.add_argument("--sql-jobs", type=int, default=None,
                   help="evaluate_suite workers (default: os.cpu_count(), as in the CLI)")
    return p.parse_args(argv)


def _import_gtr():
    src = ROOT / "src"
    if not (src / "gtr" / "__init__.py").is_file():
        raise SystemExit(f"error: no gtr sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import gtr

    if Path(gtr.__file__).resolve().parent != (src / "gtr").resolve():
        raise SystemExit(f"error: imported gtr from {gtr.__file__}, not from {src}")


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        jobs: int | None = None):
    """Run one workload; return (result dict, session, check failures)."""
    from perfbench import checks, tracing, workloads

    spec = workloads.SPECS[workload]
    if size == "tiny":
        spec = workloads.TINY[workload]
    jobs = jobs or os.cpu_count()
    workdir = ROOT / "perfbench" / ".work" / f"{workload}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    try:
        session = workloads.Session(spec, seed, seconds, workdir, jobs, fixed_rounds=trace)
        with tracer.installed() if tracer else contextlib.nullcontext():
            world = session.run()
        failures = checks.check_all(session, world)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        values = tracer.per_layer()
    else:
        values = {name: {"value": value, "unit": workloads.E2E_UNITS[name]}
                  for name, value in session.end_to_end().items()}
    result = {
        "correct": not failures,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": values,
    }
    return result, session, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_gtr()
    before = calibrate()
    result, session, failures = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                    args.size, args.sql_jobs)
    after = calibrate()
    print(f"calibration_s start={before:.4f} end={after:.4f} "
          f"({CALIBRATION_STEPS} pure-Python steps; not a metric)")
    print("samples " + json.dumps(session.sample_counts(), sort_keys=True))
    print("unscaled_end_to_end " + json.dumps(session.end_to_end(scaled=False)))
    if args.trace:
        print("traced_end_to_end " + json.dumps(session.end_to_end()))
    for message in failures[:20]:
        print("CHECK FAILED: " + message)
    for message in session.errors[:20]:
        print("OPERATION FAILED: " + message)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail = dict(result, calibration_s=[before, after], samples=session.samples,
                  sample_times=session.sample_times, gauge_s=session.gauge.readings,
                  gauge_times=session.gauge_times)
    (out_dir / name).write_text(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
