"""Command-line front end.

Reports are built as plain JSON-serializable dicts ("schema": 1); the
aligned-text rendering is a pure function of that structure, so both
output modes carry identical content.  Exit codes: 0 all checks pass,
1 a named check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from functools import cache
from math import gcd

from . import quadmap
from .arrangement import Arrangement
from .catalog import GroupSpec, SUPPORTED_EXCEPTIONALS, build
from .cyclo import KERNEL, parse_literal
from .kappa import a_indices, divisor_closed, kappa_formula, reference_kappa_table
from .matgroup import DEFAULT_ORDER_BOUND, NotFiniteWithinBound
from .repfamily import (
    check_periodicity,
    chi,
    g4_table_check,
    galois_check,
    kernel_of_Rn,
)

SCHEMA = 1


def _fmt_cyc(x) -> str:
    s = repr(x)
    return s[len("CycNum(") : -1] if s.startswith("CycNum(") else s


def _load_spec(path: str) -> GroupSpec:
    with open(path) as fh:
        return GroupSpec.from_json(json.load(fh))


def _summary(built) -> dict:
    g, arr = built.group, built.arrangement
    verdict = arr.irreducibility() if arr.is_essential() else None
    return {
        "label": built.label,
        "order": g.order,
        "hyperplanes": len(arr),
        "center": len(g.center),
        "classes": len(g.classes),
        "essential": arr.is_essential(),
        "irreducible": None if verdict is None else verdict.irreducible,
        "kernel": KERNEL,
    }


def _phi_section(built) -> dict:
    arr = built.arrangement
    p = quadmap.build_phi(arr)
    surjective, rank = quadmap.is_surjective(p)
    rep = quadmap.equivariance_defect(p, built.group)
    return {
        "rank": rank,
        "target_dim": p.dim_s2,
        "surjective": surjective,
        "equivariance_defects": len(rep.violations),
        "sum_of_squares_zero": rep.sum_of_squares_zero,
    }


def _kappa_section(built) -> dict:
    rep = a_indices(built.group, built.arrangement)
    return {
        "indices": list(rep.indices),
        "kappa": rep.kappa,
        "witnesses": {str(k): list(v) for k, v in sorted(rep.witnesses.items())},
    }


def _chi_section(built, n_range) -> dict:
    g, arr = built.group, built.arrangement
    lo, hi = n_range
    table = {}
    for n in range(lo, hi + 1):
        table[str(n)] = [_fmt_cyc(v) for v in chi(g, arr, n).values]
    return {
        "classes": [
            {"representative": cls[0], "size": len(cls), "order": g.element_order(cls[0])}
            for cls in g.classes
        ],
        "values": table,
    }


def _phi_checks(built, seed, add):
    g, arr = built.group, built.arrangement
    sec = _phi_section(built)
    irr = arr.irreducibility().irreducible if arr.is_essential() else False
    add(
        "phi_surjective_iff_irreducible",
        sec["surjective"] == irr,
        f"rank {sec['rank']} of {sec['target_dim']}",
    )
    add(
        "hyperplane_bound",
        len(arr) >= g.dim * (g.dim + 1) // 2 if irr else True,
        f"|A| = {len(arr)}",
    )


def _kappa_checks(built, seed, add):
    rep = a_indices(built.group, built.arrangement)
    add("kappa_divisor_closed", divisor_closed(rep), f"kappa: {rep.kappa}")
    if built.spec.kind == "imprimitive":
        expect = kappa_formula(built.spec.d, built.spec.e, built.spec.r)
        add("kappa_formula", rep.kappa == expect, f"formula: {expect}")
    if built.spec.kind == "exceptional":
        expect = reference_kappa_table()[built.spec.st]
        add("kappa_reference", rep.kappa == expect, f"table: {expect}")


def _chi_checks(built, seed, add):
    g, arr = built.group, built.arrangement
    rep = a_indices(g, arr)
    period = check_periodicity(g, arr)
    add("period", period == rep.kappa, f"period: {period}")
    for n in range(rep.kappa + 1):
        kernel_of_Rn(g, arr, n)
    add("kernels", True, f"n = 0..{rep.kappa}")
    coprime = [n for n in range(1, rep.kappa) if gcd(n, rep.kappa) == 1]
    failure = next((n for n in coprime if not galois_check(g, arr, n)), None)
    detail = "chi_n = c_n o chi_1" if failure is None else f"fails at n = {failure}"
    add("galois", failure is None, detail)
    if built.spec.kind == "exceptional" and built.spec.st == 4:
        add("g4_table", g4_table_check(built), "six rows")


def _monodromy_checks(built, seed, add):
    if built.group.dim > 2:
        add("monodromy", True, "skipped: rank > 2")
    else:
        add("monodromy", *_monodromy_check(built, seed))


SUITES = {
    "phi": _phi_checks,
    "kappa": _kappa_checks,
    "chi": _chi_checks,
    "monodromy": _monodromy_checks,
}


def _guarded(checks, name, fn):
    """fn(), or None once an ArithmeticError it raised is recorded as
    the failed check ``name``: exact arithmetic that contradicts itself
    is a failed check, not a crash."""
    try:
        return fn()
    except ArithmeticError as exc:
        checks.append({"name": name, "pass": False, "detail": str(exc)})
        return None


def _run_checks(built, suites, seed) -> list:
    checks = []

    def add(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    for suite in suites:
        _guarded(checks, suite, lambda: SUITES[suite](built, seed, add))
    return checks


def _monodromy_check(built, seed):
    from . import monodromy as mn

    g, arr = built.group, built.arrangement
    z = mn.default_basepoint(arr, seed=seed)
    tr = mn.loop_around(arr, 0, z)
    winding = tr.integrals / (2j * cmath.pi)
    if abs(winding[0] - 1) > 1e-6 or any(abs(w) > 1e-6 for w in winding[1:]):
        return False, "loop winding off"
    br = mn.braided_reflection_path(arr, 0, z)
    d = arr.hyperplanes[0].d
    entry = mn.monodromy_matrix(arr, br, 1.0)[0, 0]
    if abs(entry - cmath.exp(2j * cmath.pi / d)) > 1e-6:
        return False, "braided-reflection eigenvalue off"
    import random

    rng = random.Random(seed)
    chis = [chi(g, arr, h) for h in (0, 1, 2)]
    for _ in range(20):
        wi = rng.randrange(g.order)
        path = mn.straight_path_to(arr, wi, z, seed=seed)
        for h, chi_h in enumerate(chis):
            t = mn.monodromy_trace(arr, path, h)
            if abs(t - chi_h.at(wi).embed()) > 1e-5:
                return False, f"trace mismatch at element {wi}, h = {h}"
    return True, "loops, local data, 20 traces"


# -- commands --------------------------------------------------------


def _cmd_analyze(args) -> tuple[int, dict]:
    built = build(_load_spec(args.spec), args.order_bound)
    report = {
        "schema": SCHEMA,
        "command": "analyze",
        "group": _summary(built),
        "phi": _phi_section(built),
        "kappa": _kappa_section(built),
    }
    return 0, report


def _parse_family(text: str):
    """``D,E,R`` as three ranges, each part ``N`` or ``LO..HI`` with
    1 <= LO <= HI; anything else is refused by name."""
    parts, out = text.split(","), []
    for part in parts:
        lo, dots, hi = part.partition("..")
        try:
            lo = int(lo)
            hi = int(hi) if dots else lo
        except ValueError:
            continue
        if 1 <= lo <= hi:
            out.append(range(lo, hi + 1))
    if len(parts) != 3 or len(out) != 3:
        raise ValueError(
            "--family must be d,e,r, each N or LO..HI with 1 <= LO <= HI, "
            f"got {text!r}"
        )
    return out


def _cmd_kappa_table(args) -> tuple[int, dict]:
    dr, er, rr = _parse_family(args.family)
    rows = []
    for d in dr:
        for e in er:
            for r in rr:
                if d == 1 and e == 1 and r <= 2:
                    continue
                try:
                    built = build(GroupSpec.imprimitive(d, e, r), args.order_bound)
                except ValueError:
                    continue
                rep = a_indices(built.group, built.arrangement)
                rows.append(
                    {
                        "group": built.label,
                        "order": built.group.order,
                        "hyperplanes": len(built.arrangement),
                        "indices": list(rep.indices),
                        "kappa": rep.kappa,
                        "formula": kappa_formula(d, e, r),
                        "center": len(built.group.center),
                    }
                )
    ok = all(row["kappa"] == row["formula"] for row in rows)
    report = {
        "schema": SCHEMA,
        "command": "kappa-table",
        "rows": rows,
        "all_match_formula": ok,
    }
    return (0 if ok else 1), report


def _parse_range(text: str):
    """``LO..HI`` as two ints with LO <= HI; anything else is refused by name."""
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError
    except ValueError:
        raise ValueError(f"--n-range must be LO..HI with LO <= HI, got {text!r}") from None
    return lo, hi


def _cmd_chi(args) -> tuple[int, dict]:
    n_range = _parse_range(args.n_range)
    built = build(_load_spec(args.spec), args.order_bound)
    report = {
        "schema": SCHEMA,
        "command": "chi",
        "group": _summary(built),
        "chi": _chi_section(built, n_range),
    }
    return 0, report


def _cmd_verify(args) -> tuple[int, dict]:
    built = build(_load_spec(args.spec), args.order_bound)
    suites = tuple(SUITES) if args.suite == "all" else (args.suite,)
    checks = _run_checks(built, suites, args.seed)
    g, arr = built.group, built.arrangement
    kappa = _guarded(checks, "report_kappa", lambda: a_indices(g, arr).kappa)
    period = (
        _guarded(checks, "report_period", lambda: check_periodicity(g, arr))
        if "chi" in suites
        else None
    )
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "group": _summary(built),
        "kappa": kappa,
        "period": period,
        "seed": args.seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    return (0 if report["all_pass"] else 1), report


def _cmd_poincare(args) -> tuple[int, dict]:
    with open(args.arrangement) as fh:
        data = json.load(fh)
    covs = data.get("covectors") if isinstance(data, dict) else None
    if not isinstance(covs, list) or not all(isinstance(c, list) for c in covs):
        raise ValueError("an arrangement file must be an object with a list of rows 'covectors'")
    order = data.get("cyclotomic_order", 1)
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValueError(f"'cyclotomic_order' must be a positive int, got {order!r}")
    arr = Arrangement.from_covectors([[parse_literal(x, order) for x in c] for c in covs])
    report = {
        "schema": SCHEMA,
        "command": "poincare",
        "hyperplanes": len(arr),
        "essential": arr.is_essential(),
        "coefficients": arr.poincare_polynomial(),
    }
    return 0, report


# -- rendering -------------------------------------------------------


def render_text(obj, indent: int = 0) -> str:
    """Aligned plain-text view of a JSON report (pure function)."""
    lines = []
    pad = "  " * indent
    if isinstance(obj, dict):
        if obj and all(not isinstance(v, (dict, list)) for v in obj.values()):
            width = max(len(str(k)) for k in obj)
            for k, v in obj.items():
                lines.append(f"{pad}{str(k).ljust(width)}  {v}")
        else:
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    lines.append(render_text(v, indent + 1))
                else:
                    lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(render_text(v, indent))
                lines.append("")
            else:
                lines.append(f"{pad}{v}")
        while lines and lines[-1] == "":
            lines.pop()
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(lines)


@cache  # a parser can parse any number of argument lists
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflarr", description="reflection arrangement workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--order-bound", type=int, default=DEFAULT_ORDER_BOUND)

    p = sub.add_parser("analyze", help="group, phi and kappa summary")
    p.add_argument("spec")
    common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("kappa-table", help="kappa over an imprimitive family")
    p.add_argument("--family", default="1..3,1..3,2..3")
    common(p)
    p.set_defaults(fn=_cmd_kappa_table)

    p = sub.add_parser("chi", help="character family table")
    p.add_argument("spec")
    p.add_argument("--n-range", default="0..5")
    common(p)
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("spec")
    p.add_argument(
        "--suite",
        default="all",
        choices=[*SUITES, "all"],
    )
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("poincare", help="Poincare polynomial of covectors")
    p.add_argument("arrangement")
    common(p)
    p.set_defaults(fn=_cmd_poincare)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.order_bound <= 0:
            raise ValueError(f"--order-bound must be positive, got {args.order_bound}")
        status, report = args.fn(args)
    except (OSError, ValueError, KeyError, NotFiniteWithinBound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
