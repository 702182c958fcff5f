"""The reflarr benchmark: exact-arithmetic workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``verify-catalog``, ``kappa-sweep``, ``lattice`` or ``all``.
Each workload runs as a closed loop with one client: its jobs run back
to back in one fresh single-threaded worker process, on inputs made
from the seed before timing starts, and every output is checked
against a reference the benchmark computes without reflarr.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: a fresh interpreter until the workload's reflarr modules
  are imported, median of probes before and after the worker.
* ``wall_s``: one pass over the job list, as the sum of each job's
  slowest time over the passes of the run.
* ``largest_job_s``: the slowest time of the job named in
  ``workloads.LARGEST``.
* ``peak_rss_mb``: peak resident memory of the worker.

The worker runs passes until ``--seconds`` are used up.  On a shared
host the speed of identical work bursts upward for seconds at a time;
the slowest sample of a job tracks the host's sustained speed and
repeats from run to run far better than the median, which depends on
how much of the run fell into bursts.  The records keep every job
time, and the table also shows the median-based figures.  ``--trace 1`` runs one untraced and one traced
pass, each in its own fresh process, and reports the per-layer
metrics.  The last line of standard output is one JSON object;
a table goes to standard error and a record with the run's metadata
to ``perfbench/out/records``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5  # on each side of the worker
DEADLINE_S = 170  # a run must exit within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "largest_job_s": "s", "peak_rss_mb": "MB"}

# Functions whose call count and self time are per-layer metrics.
TRACED_FUNCTIONS = (
    "kappa.a_indices",
    "repfamily.chi",
    "repfamily.check_periodicity",
    "repfamily.galois_check",
    "repfamily.kernel_of_Rn",
    "matgroup.GroupModel.generate",
    "matgroup.GroupModel.reflections",
    "matgroup.GroupModel.classes",
    "matgroup.GroupModel.center",
    "arrangement.Arrangement.from_group",
    "arrangement.Arrangement.from_covectors",
    "arrangement.Arrangement.hyperplane_of_root",
    "arrangement.Arrangement.poincare_polynomial",
    "linalg.rref",
    "linalg.solve",
    "linalg.proportionality",
    "linalg.Matrix.matvec",
    "linalg.Matrix.__mul__",
    "linalg.Matrix.det",
    "cyclo.CycNum.__init__",
    "cyclo.CycNum.__mul__",
    "cyclo.CycNum.__add__",
    "cyclo.CycNum.inverse",
    "cyclo.kernel.mul_reduce",
    "cyclo.kernel.poly_reduce",
    "monodromy.integrate_path",
    "monodromy.monodromy_matrix",
    "quadmap.build_phi",
    "catalog.build",
    "cli.main",
)

DERIVED = {
    "cyclo.CycNum.constructions": "count",
    "matgroup.generate.new_per_product": "ratio",
    "linalg.proportionality.hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for fn in TRACED_FUNCTIONS:
        if fn != "cyclo.CycNum.__init__":  # counted as constructions
            units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units.update(DERIVED)
    return units


def per_layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    fns = trace["functions"]

    def calls(name):
        return fns.get(name, [0, 0.0, 0.0])[0]

    values = {}
    for name in per_layer_units():
        if name in DERIVED:
            continue
        prefix, kind = name.rsplit(".", 1)
        if kind == "calls":
            values[name] = calls(prefix)
        elif prefix in LAYERS:
            values[name] = sum(v[2] for k, v in fns.items() if k.startswith(prefix + "."))
        else:
            values[name] = fns.get(prefix, [0, 0.0, 0.0])[2]
    products = sum(
        c for parent, name, c, _ in trace["by_parent"]
        if parent == "matgroup.GroupModel.generate" and name == "linalg.Matrix.__mul__"
    )
    prop_calls = calls("linalg.proportionality")
    values.update({
        "cyclo.CycNum.constructions": calls("cyclo.CycNum.__init__"),
        "matgroup.generate.new_per_product":
            trace["counters"]["generate.new_elements"] / products if products else 0.0,
        "linalg.proportionality.hit_ratio":
            trace["counters"]["proportionality.hits"] / prop_calls if prop_calls else 0.0,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.spans": trace["spans"],
    })
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# -- processes --------------------------------------------------------

def child_env() -> dict:
    """Single-threaded numeric libraries and a fixed string hash."""
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import {modules}; "
    "print(sys.modules['reflarr'].__file__, flush=True)"
)


def time_setup(workload: str) -> float:
    """Seconds from spawning an interpreter until the workload's reflarr
    modules are imported."""
    code = PROBE.format(modules=", ".join(workloads.MODULES[workload]))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        status = proc.wait(timeout=60)
    if status != 0 or Path(line).resolve() != SRC / "reflarr" / "__init__.py":
        raise RuntimeError(f"setup probe failed: exit {status}, imported {line!r}")
    return elapsed


def run_worker(name: str, inputs_path: Path, seconds: float, trace: bool,
               deadline: float) -> dict:
    out = OUT / f"{name}.result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs_path),
           "--out", str(out), "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(OUT / f"{name}.spans.jsonl")]
    out.unlink(missing_ok=True)
    subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                   check=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# -- one workload -----------------------------------------------------

def job_samples(result: dict) -> dict:
    """Label -> every time measured for that job in the run."""
    samples = {}
    for p in result["passes"]:
        for label, t in p["jobs"].items():
            samples.setdefault(label, []).append(t)
    return samples


def pass_time(result: dict) -> float:
    """Time of the first (in a one-pass run, the only) full pass."""
    return sum(result["passes"][0]["jobs"].values())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    inputs = workloads.make_inputs(workload, seed)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    inputs_path = OUT / f"{tag}.inputs.json"
    inputs_path.write_text(json.dumps(inputs, sort_keys=True))

    medians = {}
    if trace:
        plain = run_worker(tag + "-untraced", inputs_path, 0, False, deadline)
        traced = run_worker(tag, inputs_path, 0, True, deadline)
        runs = [plain, traced]
        metrics = per_layer_metrics(traced["trace"], pass_time(traced), pass_time(plain))
        a_calls = metrics["kappa.a_indices.calls"]["value"]
        expected = workloads.A_INDICES_CALLS[workload]
        problems = [] if a_calls == expected else [
            f"traced kappa.a_indices calls {a_calls}, expected {expected}"]
    else:
        # probes before and after the worker sample the machine's speed
        # at both ends of the run; the first one only writes bytecode
        time_setup(workload)
        setups = [time_setup(workload) for _ in range(SETUP_PROBES)]
        result = run_worker(tag, inputs_path, seconds, False, deadline)
        setups += [time_setup(workload) for _ in range(SETUP_PROBES)]
        runs = [result]
        samples = job_samples(result)
        largest = samples[workloads.LARGEST[workload]]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(max(ts) for ts in samples.values()),
            "largest_job_s": max(largest),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        medians = {
            "median_wall_s": sum(statistics.median(ts) for ts in samples.values()),
            "median_largest_job_s": statistics.median(largest),
        }
        problems = []

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    record = {
        "meta": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": platform.python_version(),
            "kernel": runs[0]["kernel"],
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "jobs": [list(p["jobs"]) for r in runs for p in r["passes"]],
        },
        "metrics": metrics,
        "medians": medians,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "problems": problems,
        "passes": [p for r in runs for p in r["passes"]],
    }
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (records / f"{tag}-{stamp}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def print_table(record: dict) -> None:
    meta = record["meta"]
    print(f"{meta['workload']} (seed {meta['seed']}, kernel {meta['kernel']}, "
          f"{len(record['passes'])} passes)", file=sys.stderr)
    rows = dict(record["metrics"])
    rows.update({k: {"value": v, "unit": "s"} for k, v in record["medians"].items()})
    rows["failed_frac"] = {"value": record["failed_frac"], "unit": "ratio"}
    for name, m in rows.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for f in record["failures"]:
        print(f"  FAILED pass {f['pass']} {f['job']}: {f['why']}", file=sys.stderr)
    for p in record["problems"]:
        print(f"  PROBLEM {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "reflarr" / "__init__.py").is_file():
        print(f"error: no reflarr source under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        records.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
        print_table(records[-1])

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['meta']['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
