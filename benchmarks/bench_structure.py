"""Time the group and arrangement stages, one at a time.

For B4, G(6,1,3), G(6,1,4) and G(5,1,4), reports the minimum over
repeated runs of each stage on a freshly generated group:

- ``generate``: the closure on line data, ``GroupModel.generate``: one
  ``bytes.translate`` per product, or a tuple gather for G(5,1,4),
  whose K L = 340 values do not fit a byte; one pass, as the four
  groups are generated by reflections
- ``inverses``: each element's inverse, by inverting its stored code
  (that of the element's inverse) and looking the result up
- ``classes``: the conjugacy classes, from the table and the inverses
- ``reflections``: the reflection test, eigenvalue and order once per
  class, each root from the closure line it scales, and each
  hyperplane's linear form once
- ``root_lines``: the closure line of each hyperplane, looked up by
  its reflection's root
- ``a_indices``: ``Arrangement.from_group`` plus ``kappa.a_indices``,
  which reads one root-line row per conjugacy class from the code of
  the class's first element
- ``irreducibility``: the root-graph verdict on a fresh arrangement,
  read from one reflection row per orbit; the group's invariant form
  is not built
- ``equivariance``: ``quadmap.equivariance_defect`` of the squares map
  on the same arrangement (the map built untimed): one dot product per
  (generator, hyperplane), image hyperplanes from the generators' rows

Each stage reads the ones before it, already computed.  The generators
are those of ``catalog.build``.

Run with:  python3 benchmarks/bench_structure.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# the checkout's reflarr, without PYTHONPATH or an install
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reflarr.arrangement import Arrangement
from reflarr.catalog import GroupSpec, build
from reflarr.kappa import a_indices
from reflarr.matgroup import GroupModel
from reflarr.quadmap import build_phi, equivariance_defect

GROUPS = (
    ("B4", GroupSpec.coxeter("B", 4), 10_000, 20),
    ("G(6,1,3)", GroupSpec.imprimitive(6, 1, 3), 10_000, 10),
    ("G(6,1,4)", GroupSpec.imprimitive(6, 1, 4), 40_000, 3),
    ("G(5,1,4)", GroupSpec.imprimitive(5, 1, 4), 20_000, 3),
)
STAGES = ("generate", "inverses", "classes", "reflections", "root_lines",
          "a_indices", "irreducibility", "equivariance")


def _stages(gens, bound) -> list:
    """Seconds per stage, in STAGES order, on one fresh closure."""
    clock = time.perf_counter
    t0 = clock()
    g = GroupModel.generate(gens, bound)
    t1 = clock()
    g.inverses
    t2 = clock()
    g.classes
    t3 = clock()
    g.reflections
    t4 = clock()
    g.root_lines
    t5 = clock()
    a_indices(g, Arrangement.from_group(g))
    t6 = clock()
    arr = Arrangement.from_group(g)
    t7 = clock()
    arr.irreducibility()
    t8 = clock()
    p = build_phi(arr)
    t9 = clock()
    equivariance_defect(p, g)
    t10 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t8 - t7, t10 - t9]


def main() -> None:
    print(f"{'group':<10}{'|W|':>7}" + "".join(f"{s:>15}" for s in STAGES) + "   (min ms)")
    for label, spec, bound, repeats in GROUPS:
        g = build(spec, bound).group
        best = [float("inf")] * len(STAGES)
        for _ in range(repeats):
            best = [min(b, t) for b, t in zip(best, _stages(g.generators, bound))]
        print(f"{label:<10}{g.order:>7}" + "".join(f"{t * 1e3:>15.2f}" for t in best))


if __name__ == "__main__":
    main()
