"""One workload in a fresh, single-threaded interpreter.

Started by ``run.py``; not meant to be run by hand.  It prepares every
job's arguments, then runs the jobs back to back, pass after pass over
the job list, and records each job's time.  After the first full pass
it stops before a job that would end past ``--seconds`` (so
``--seconds 0`` runs exactly one pass).  Timings, failures and peak
RSS go to the ``--out`` file.  With ``--trace 1`` the tracer is
installed after preparation and its totals and spans are written too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_reflarr(names) -> dict:
    """Import reflarr modules from this checkout's ``src`` only."""
    sys.path.insert(0, str(SRC))
    mods = {name.split(".")[-1]: importlib.import_module(name) for name in names}
    pkg = sys.modules["reflarr"]
    if Path(pkg.__file__).resolve().parent != SRC / "reflarr":
        raise ImportError(f"reflarr imported from {pkg.__file__}, not from {SRC}")
    return mods


def run_jobs(inputs, seconds, tracer, out_dir) -> dict:
    workload = inputs["workload"]
    reflarr = import_reflarr(("reflarr.cyclo",) + workloads.MODULES[workload])
    spec_dir = out_dir / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    variants = [
        [(job, workloads.prepare(workload, job, reflarr, spec_dir)) for job in jobs]
        for jobs in inputs["variants"]
    ]
    if tracer is not None:
        tracer.install()
    passes, failures, attempted = [], [], 0
    last = {}  # label -> latest time, to predict the next run of the job
    start = time.perf_counter()
    while True:
        p = len(passes)
        times = {}
        passes.append({"variant": p % len(variants), "jobs": times})
        for j, (job, args) in enumerate(variants[p % len(variants)]):
            label = job["label"]
            if p and time.perf_counter() - start + last[label] > seconds:
                if not times:
                    passes.pop()
                return {
                    "kernel": reflarr["cyclo"].KERNEL,
                    "passes": passes,
                    "attempted": attempted,
                    "failures": failures,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                }
            if tracer is not None:
                tracer.job = j
            attempted += 1
            t0 = time.perf_counter()
            try:
                why = workloads.run_job(workload, job, args, reflarr)
            except Exception:  # a job that raises counts as failed
                why = traceback.format_exc(limit=3)
            except SystemExit as exc:
                why = f"exit {exc.code}"
            times[label] = last[label] = time.perf_counter() - t0
            if why is not None:
                failures.append({"pass": p, "job": label, "why": why})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    inputs = json.loads(args.inputs.read_text())
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    result = run_jobs(inputs, args.seconds, tracer, args.out.parent)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if args.spans is not None:
            labels = [job["label"] for job in inputs["variants"][0]]
            tracer.write_spans(args.spans, labels)
    args.out.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
