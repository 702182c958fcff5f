"""Time the intersection lattice and the Poincare polynomial on it.

For the six arrangements of the lattice benchmark, in standard
coordinates, reports the minimum over repeated runs of:

- ``flats``: ``Arrangement.flats``, the flats by rank with their masks,
  the covers of each flat read from the residues of the other forms
  modulo its own
- ``mobius``: the rest of ``Arrangement.poincare_polynomial``, the
  Mobius function on mask inclusion and the sum, with the flats given

Each arrangement is built from its linear forms once, untimed.  A4 is
the braid arrangement x_i - x_j in dimension 5, not essential; the
other five are essential reflection arrangements.

Run with:  python3 benchmarks/bench_lattice.py
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

# the checkout's reflarr, without PYTHONPATH or an install
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reflarr.arrangement import Arrangement
from reflarr.cyclo import CycNum

REPEATS = 20


def monomial_forms(n: int, m: int, coordinate: bool) -> list:
    """x_i - zeta_m^k x_j for i < j and k < m, after the x_i if asked."""
    z, one, zero = CycNum.zeta(m), CycNum.one(), CycNum.zero()
    forms = [[one if k == i else zero for k in range(n)] for i in range(n)] if coordinate else []
    for i, j in itertools.combinations(range(n), 2):
        for e in range(m):
            forms.append([one if k == i else -z ** e if k == j else zero for k in range(n)])
    return forms


# (label, forms, coefficients of the Poincare polynomial)
ARRANGEMENTS = (
    ("A4", monomial_forms(5, 1, False), [1, 10, 35, 50, 24]),
    ("B3", monomial_forms(3, 2, True), [1, 9, 23, 15]),
    ("D4", monomial_forms(4, 2, False), [1, 12, 50, 84, 45]),
    ("G(3,3,3)", monomial_forms(3, 3, False), [1, 9, 24, 16]),
    ("G(3,1,3)", monomial_forms(3, 3, True), [1, 12, 39, 28]),
    ("G(4,4,3)", monomial_forms(3, 4, False), [1, 12, 41, 30]),
)


def _stages(arr: Arrangement) -> tuple:
    """Seconds for the flats and for the rest of the polynomial."""
    clock = time.perf_counter
    t0 = clock()
    lattice = arr.flats()
    t1 = clock()
    arr.flats = lambda: lattice  # the polynomial reads the flats just timed
    try:
        t2 = clock()
        arr.poincare_polynomial()
        t3 = clock()
    finally:
        del arr.flats
    return t1 - t0, t3 - t2


def main() -> None:
    print(f"{'arrangement':<12}{'|A|':>5}{'flats':>10}{'mobius':>10}   (min ms)")
    for label, forms, poly in ARRANGEMENTS:
        arr = Arrangement.from_covectors(forms)
        if arr.poincare_polynomial() != poly:
            raise AssertionError(f"{label}: P(t) is {arr.poincare_polynomial()}, not {poly}")
        best = [float("inf")] * 2
        for _ in range(REPEATS):
            best = [min(b, t) for b, t in zip(best, _stages(arr))]
        print(f"{label:<12}{len(arr):>5}" + "".join(f"{t * 1e3:>10.2f}" for t in best))


if __name__ == "__main__":
    main()
