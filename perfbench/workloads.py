"""Workload definitions: seeded inputs, independent references, jobs.

Inputs and references are plain JSON data built here without importing
reflarr, so a reference can never inherit a defect of the code it
checks.  Only :func:`run_job` touches reflarr, through the module
objects the worker passes in.

A run's inputs are ``VARIANTS`` pass variants, each a full job list.
Pass ``p`` of a run uses variant ``p % VARIANTS``; on ``lattice`` and
``verify-catalog`` each variant draws its own seeded input (coordinate
change or CLI seed), so one run averages over several draws and two
seeds differ less than two single draws would.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial, lcm

WORKLOADS = ("verify-catalog", "kappa-sweep", "lattice")
VARIANTS = 8

# The job each workload reports as ``largest_job_s``, fixed by name so
# the metric cannot switch jobs when timings shift.
LARGEST = {"verify-catalog": "B4", "kappa-sweep": "G(6,1,3)", "lattice": "D4"}

# reflarr modules each workload calls; ``setup_s`` times their import.
MODULES = {
    "verify-catalog": ("reflarr.cli", "reflarr.monodromy"),
    "kappa-sweep": ("reflarr.catalog", "reflarr.kappa"),
    "lattice": ("reflarr.arrangement",),
}

# kappa.a_indices calls in one traced pass: 7+6+6+6+7 from the verify
# command (kappa 6 groups run two Galois checks), one per sweep job.
A_INDICES_CALLS = {"verify-catalog": 32, "kappa-sweep": 27, "lattice": 0}

# Shephard-Todd table values for the two exceptional groups.
_EXCEPTIONAL = {4: (24, 6), 12: (48, 2)}


def imprimitive_order(d: int, e: int, r: int) -> int:
    """|G(de,e,r)| = (de)^r r! / e."""
    return (d * e) ** r * factorial(r) // e


def imprimitive_kappa(d: int, e: int, r: int) -> int:
    """kappa of G(de,e,r): 1 in rank 1, 2 for G(e,e,2), else lcm(2, de)."""
    if r == 1:
        return 1
    if d == 1 and r == 2:
        return 2
    return lcm(2, d * e)


def imprimitive_label(d: int, e: int, r: int) -> str:
    return f"G({d * e},{e},{r})"


# -- verify-catalog ---------------------------------------------------

_CATALOG = (
    ("G4", {"kind": "exceptional", "st": 4}),
    ("G12", {"kind": "exceptional", "st": 12}),
    ("B4", {"kind": "coxeter", "type": "B", "n": 4}),
    ("D4", {"kind": "coxeter", "type": "D", "n": 4}),
    ("G(3,1,3)", {"kind": "imprimitive", "d": 3, "e": 1, "r": 3}),
)


def _catalog_reference(spec: dict) -> dict:
    if spec["kind"] == "exceptional":
        order, kappa = _EXCEPTIONAL[spec["st"]]
    else:
        if spec["kind"] == "coxeter":
            d, e = {"B": (2, 1), "D": (1, 2)}[spec["type"]]
            r = spec["n"]
        else:
            d, e, r = spec["d"], spec["e"], spec["r"]
        order, kappa = imprimitive_order(d, e, r), imprimitive_kappa(d, e, r)
    return {"order": order, "kappa": kappa}


def _verify_inputs(rng: random.Random) -> list:
    variants = []
    for _ in range(VARIANTS):
        cli_seed = rng.randrange(1_000_000)
        variants.append(
            [
                {"label": label, "spec": spec, "cli_seed": cli_seed,
                 "ref": _catalog_reference(spec)}
                for label, spec in _CATALOG
            ]
        )
    return variants


# -- kappa-sweep ------------------------------------------------------

SWEEP_ORDER_BOUND = 10_000


def sweep_parameters() -> list:
    """Every G(de,e,r) with de <= 6, r in {2, 3} and |W| <= 10,000,
    leaving out the degenerate G(1,1,2)."""
    out = []
    for de in range(1, 7):
        for e in range(1, de + 1):
            if de % e:
                continue
            d = de // e
            for r in (2, 3):
                if de == 1 and r == 2:
                    continue
                if imprimitive_order(d, e, r) <= SWEEP_ORDER_BOUND:
                    out.append((d, e, r))
    return out


def _sweep_inputs(rng: random.Random) -> list:
    jobs = [
        {"label": imprimitive_label(d, e, r), "d": d, "e": e, "r": r,
         "ref": {"order": imprimitive_order(d, e, r),
                 "kappa": imprimitive_kappa(d, e, r)}}
        for d, e, r in sweep_parameters()
    ]
    variants = []
    for _ in range(VARIANTS):
        order = list(jobs)
        rng.shuffle(order)
        variants.append(order)
    return variants


# -- lattice ----------------------------------------------------------

def _unit(order: int, k: int, c: int = 1) -> list:
    """c * zeta_order^k as an exponent-coefficient vector."""
    v = [0] * order
    v[k % order] = c
    return v


def _covector(n: int, order: int, terms) -> list:
    """The form sum c * zeta^k * x_i over (i, c, k) terms."""
    row = [[0] * order for _ in range(n)]
    for i, c, k in terms:
        row[i] = [a + b for a, b in zip(row[i], _unit(order, k, c))]
    return row


def _monomial_covectors(n: int, m: int, coordinate: bool) -> list:
    """x_i - zeta_m^k x_j for all pairs and k < m, plus x_i if asked."""
    order = m if m > 2 else 1
    rows = [_covector(n, order, [(i, 1, 0)]) for i in range(n)] if coordinate else []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(m):
                if m == 2:  # zeta_2 = -1 over Q
                    rows.append(_covector(n, 1, [(i, 1, 0), (j, -1 if k == 0 else 1, 0)]))
                else:
                    rows.append(_covector(n, order, [(i, 1, 0), (j, -1, k)]))
    return rows


# (label, field order, dimension, covectors, coexponents)
def lattice_arrangements() -> list:
    return [
        ("A4", 1, 5, _monomial_covectors(5, 1, False), (1, 2, 3, 4)),
        ("B3", 1, 3, _monomial_covectors(3, 2, True), (1, 3, 5)),
        ("D4", 1, 4, _monomial_covectors(4, 2, False), (1, 3, 3, 5)),
        ("G(3,3,3)", 3, 3, _monomial_covectors(3, 3, False), (1, 4, 4)),
        ("G(3,1,3)", 3, 3, _monomial_covectors(3, 3, True), (1, 4, 7)),
        ("G(4,4,3)", 4, 3, _monomial_covectors(3, 4, False), (1, 5, 6)),
    ]


def coexponent_poincare(coexponents) -> list:
    """Ascending coefficients of prod (1 + n_i t)."""
    poly = [1]
    for n in coexponents:
        poly = [a + n * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def integer_det(m) -> Fraction:
    rows = [[Fraction(x) for x in r] for r in m]
    n, det = len(rows), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def coordinate_change(n: int, rng: random.Random) -> list:
    """A random invertible integer n x n matrix, entries in [-2, 2]."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if integer_det(m) != 0:
            return m


def transform(covector: list, change: list) -> list:
    """alpha -> alpha M: the same hyperplane in coordinates x = M y."""
    n, order = len(covector), len(covector[0])
    out = []
    for j in range(n):
        acc = [0] * order
        for i in range(n):
            if change[i][j]:
                acc = [a + change[i][j] * b for a, b in zip(acc, covector[i])]
        out.append(acc)
    return out


def _lattice_inputs(rng: random.Random) -> list:
    arrangements = lattice_arrangements()
    variants = []
    for _ in range(VARIANTS):
        changes = {}
        jobs = []
        for label, order, n, covs, coexp in arrangements:
            if n not in changes:
                changes[n] = coordinate_change(n, rng)
            jobs.append(
                {"label": label, "order": order, "change": changes[n],
                 "covectors": [transform(c, changes[n]) for c in covs],
                 "ref": {"poincare": coexponent_poincare(coexp)}}
            )
        variants.append(jobs)
    return variants


_MAKERS = {
    "verify-catalog": _verify_inputs,
    "kappa-sweep": _sweep_inputs,
    "lattice": _lattice_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    """All pass variants of a run, from the seed alone."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {"workload": workload, "seed": seed, "variants": _MAKERS[workload](rng)}


# -- running one job --------------------------------------------------

def prepare(workload: str, job: dict, reflarr: dict, spec_dir) -> dict:
    """Turn one job's plain data into the arguments the program takes.

    Runs before timing starts: spec files are written and covectors
    become CycNum values here.
    """
    if workload == "verify-catalog":
        path = spec_dir / f"{job['label']}.json"
        if not path.exists():
            path.write_text(json.dumps(job["spec"], sort_keys=True))
        return {"argv": ["verify", str(path), "--suite", "all", "--json",
                         "--seed", str(job["cli_seed"])]}
    if workload == "lattice":
        cyc = reflarr["cyclo"].CycNum
        return {"covectors": [[cyc(job["order"], x) for x in row]
                              for row in job["covectors"]]}
    return {}


def run_job(workload: str, job: dict, args: dict, reflarr: dict) -> str | None:
    """Run one job; None if its output matches the reference, else why not."""
    ref = job["ref"]
    if workload == "verify-catalog":
        buf = io.StringIO()
        with redirect_stdout(buf):
            status = reflarr["cli"].main(args["argv"])
        if status != 0:
            return f"exit code {status}"
        report = json.loads(buf.getvalue())
        got = {"order": report["group"]["order"], "kappa": report["kappa"]}
        if not report["all_pass"]:
            failed = [c["name"] for c in report["checks"] if not c["pass"]]
            return f"checks failed: {failed}"
    elif workload == "kappa-sweep":
        catalog = reflarr["catalog"]
        built = catalog.build(
            catalog.GroupSpec.imprimitive(job["d"], job["e"], job["r"]),
            SWEEP_ORDER_BOUND,
        )
        rep = reflarr["kappa"].a_indices(built.group, built.arrangement)
        got = {"order": built.group.order, "kappa": rep.kappa}
        divisors = tuple(k for k in range(1, ref["kappa"] + 1) if ref["kappa"] % k == 0)
        if rep.indices != divisors:
            return f"indices {rep.indices} are not the divisors of {ref['kappa']}"
    else:
        arr = reflarr["arrangement"].Arrangement.from_covectors(args["covectors"])
        got = {"poincare": arr.poincare_polynomial()}
    if got != ref:
        return f"got {got}, expected {ref}"
    return None
