"""Scalars picked up by roots under the group action.

For each hyperplane H and each w with w.r_H = zeta_K^e r_H the order
K / gcd(e, K) of the scalar is recorded; kappa is the lcm of all such
orders.  The orders do not change under conjugation, so they are read
from one root-line row per conjugacy class, decoded from the class's
first element's code (:attr:`Arrangement.class_rows`), not recomputed
from matrices.  The realized index set is always the full divisor set
of kappa, there is a closed formula in the monomial family, and a
reference table covers the exceptional types.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .arrangement import Arrangement
from .matgroup import GroupModel


@dataclass(frozen=True)
class AIndexReport:
    indices: tuple  # sorted orders realized by some (w, H)
    kappa: int
    witnesses: dict  # order -> (element index, hyperplane index)


def a_indices(g: GroupModel, a: Arrangement) -> AIndexReport:
    """Sweep one row per conjugacy class for root-line eigenvalues.

    A pair (w, H) contributes when w maps the root line of H to itself;
    the order of its eigenvalue zeta_K^e is K / gcd(e, K), recorded with
    a witness.  Conjugates realize the same orders and classes come by
    least element, so the class minima give the first (w, H) in index
    order.  g must be the arrangement's own group.
    """
    a.require_group(g)
    mod = len(a.units)
    orders = [mod // gcd(e, mod) for e in range(mod)]
    witnesses: dict[int, tuple[int, int]] = {}
    for cls, (perm, exps) in zip(g.classes, a.class_rows):
        for hi, (j, e) in enumerate(zip(perm, exps)):
            if j == hi and orders[e] not in witnesses:
                witnesses[orders[e]] = (cls[0], hi)
    indices = tuple(sorted(witnesses))
    return AIndexReport(indices=indices, kappa=lcm(*indices), witnesses=witnesses)


def divisor_closed(report: AIndexReport) -> bool:
    """Whether the realized indices are exactly the divisors of kappa."""
    return set(report.indices) == {
        k for k in range(1, report.kappa + 1) if report.kappa % k == 0
    }


def kappa_formula(d: int, e: int, r: int) -> int:
    """Closed form for the monomial family G(de,e,r).

    Rank 1 gives the (cyclic) group order; G(e,e,2) gives 2;
    everything else gives lcm(2, de): a transposition-like reflection
    negates its own root, so 2 always occurs, and the diagonal part
    supplies all of mu_de.
    """
    if d < 1 or e < 1 or r < 1:
        raise ValueError("parameters must be positive")
    de = d * e
    if r == 1:
        if d < 2:
            raise ValueError("G(e,e,1) is trivial")
        return d
    if de == 1 and r == 2:
        raise ValueError("G(1,1,2) is degenerate in rank 2")
    if d == 1 and r == 2:
        return 2
    return lcm(2, de)


def reference_kappa_table() -> dict[int, int]:
    """kappa for the exceptional groups, by Shephard-Todd number."""
    return {
        4: 6,
        5: 6,
        6: 12,
        7: 12,
        8: 4,
        9: 8,
        10: 12,
        11: 24,
        12: 2,
        13: 8,
        14: 6,
        15: 24,
        16: 10,
        17: 20,
        18: 30,
        19: 60,
        20: 6,
        21: 12,
        22: 4,
        23: 2,
        24: 2,
        25: 6,
        26: 6,
        27: 6,
        28: 2,
        29: 4,
        30: 2,
        31: 4,
        32: 6,
        33: 6,
        34: 6,
        35: 2,
        36: 2,
        37: 2,
    }
