"""Checks of the benchmark's own inputs, references, tracer and records.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import run
import workloads
from tracer import Tracer
from worker import import_reflarr

SEEDS = (1, 2, 3)


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def references(inputs) -> list:
    return [[(job["label"], job["ref"]) for job in jobs] for jobs in inputs["variants"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_byte_identical_inputs(workload, seed):
    assert dump(workloads.make_inputs(workload, seed)) == dump(
        workloads.make_inputs(workload, seed)
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_but_not_references(workload):
    runs = [workloads.make_inputs(workload, seed) for seed in SEEDS]
    refs = [sorted(dump(ref) for ref in references(r)[0]) for r in runs]
    assert refs[0] == refs[1] == refs[2]
    if workload == "lattice":
        seeded = [[job["change"] for job in r["variants"][0]] for r in runs]
    elif workload == "kappa-sweep":
        seeded = [[job["label"] for job in r["variants"][0]] for r in runs]
    else:
        seeded = [r["variants"][0][0]["cli_seed"] for r in runs]
    assert len({dump(s) for s in seeded}) == len(SEEDS)
    # within a run the variants draw fresh seeded inputs too
    assert len({dump(v) for v in runs[0]["variants"]}) == workloads.VARIANTS


def test_coordinate_changes_are_invertible_with_small_entries():
    for seed in SEEDS:
        for jobs in workloads.make_inputs("lattice", seed)["variants"]:
            for job in jobs:
                m = job["change"]
                assert workloads.integer_det(m) != 0
                assert all(-2 <= x <= 2 for row in m for x in row)


def test_references_match_published_values():
    verify = {job["label"]: job["ref"]
              for job in workloads.make_inputs("verify-catalog", 0)["variants"][0]}
    assert verify == {
        "G4": {"order": 24, "kappa": 6},
        "G12": {"order": 48, "kappa": 2},
        "B4": {"order": 384, "kappa": 2},
        "D4": {"order": 192, "kappa": 2},
        "G(3,1,3)": {"order": 162, "kappa": 6},
    }
    sweep = workloads.make_inputs("kappa-sweep", 0)["variants"][0]
    assert len(sweep) == 27
    assert max(job["ref"]["order"] for job in sweep) == 1296
    by_label = {job["label"]: job["ref"] for job in sweep}
    assert by_label["G(6,1,3)"] == {"order": 1296, "kappa": 6}
    assert by_label["G(4,4,2)"] == {"order": 8, "kappa": 2}
    assert by_label["G(5,5,3)"] == {"order": 150, "kappa": 10}
    lattice = {job["label"]: job["ref"]["poincare"]
               for job in workloads.make_inputs("lattice", 0)["variants"][0]}
    assert lattice["A4"] == [1, 10, 35, 50, 24]
    assert lattice["D4"] == [1, 12, 50, 84, 45]
    for label, _, _, covectors, coexponents in workloads.lattice_arrangements():
        assert sum(coexponents) == len(covectors), label


@pytest.mark.parametrize("seed", SEEDS)
def test_lattice_reference_survives_the_coordinate_change(seed, tmp_path):
    reflarr = import_reflarr(("reflarr.cyclo", "reflarr.arrangement"))
    for job in workloads.make_inputs("lattice", seed)["variants"][0]:
        if job["label"] not in ("B3", "G(3,3,3)"):
            continue
        args = workloads.prepare("lattice", job, reflarr, tmp_path)
        assert workloads.run_job("lattice", job, args, reflarr) is None


def test_tracer_counts_calls_through_every_binding_site():
    reflarr = import_reflarr(("reflarr.cli", "reflarr.kappa", "reflarr.repfamily",
                              "reflarr.catalog"))
    original = reflarr["kappa"].a_indices
    tracer = Tracer().install()
    try:
        # cli and repfamily hold their own bindings of a_indices
        assert reflarr["cli"].main(["kappa-table", "--family", "2,1,2", "--json"]) == 0
        catalog = reflarr["catalog"]
        built = catalog.build(catalog.GroupSpec.imprimitive(2, 1, 2))
        reflarr["repfamily"].check_periodicity(built.group, built.arrangement)
    finally:
        tracer.uninstall()
    assert reflarr["kappa"].a_indices is original
    assert reflarr["cli"].a_indices is original
    stats = tracer.summary()["functions"]
    assert stats["kappa.a_indices"][0] == 2
    assert stats["cli.main"][0] == 1
    assert stats["cyclo.kernel.mul_reduce"][0] > 0
    assert stats["cyclo.CycNum.__init__"][0] > 0
    # aggregated layers keep no spans; every span has a traced name
    names = {span[0] for span in tracer.spans}
    assert "kappa.a_indices" in names
    assert not any(n.startswith(("cyclo.", "linalg.")) for n in names)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert len(spec["per_layer"]) <= 128


def test_compare_refuses_records_of_different_kernels(tmp_path, capsys):
    def record(kernel):
        path = tmp_path / f"{kernel}.json"
        path.write_text(json.dumps({
            "meta": {"kernel": kernel, "workload": "lattice", "trace": 0},
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
        }))
        return str(path)

    assert compare.main([record("python"), "--", record("compiled")]) == 2
    assert "kernel" in capsys.readouterr().err
    assert compare.main([record("python"), "--", record("python")]) == 0


def test_kernel_microbenchmark_still_runs():
    """benchmarks/bench_kernel.py, which the README cites, keeps working."""
    import importlib.util
    import random

    import_reflarr(("reflarr.cyclo",))
    path = Path(run.ROOT) / "benchmarks" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.bench_mul_reduce(bench._kernel_py, 12, random.Random(0)) > 0
    assert bench.bench_group_build() > 0
