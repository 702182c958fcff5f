"""Time the numeric monodromy layer.

Reports the minimum over repeated runs of ``monodromy.integrate_path``
on two fixed paths in the G12 complement: a 96-sample central loop
z -> exp(2 pi i t) z whose steps all turn by less than pi/4 (no
bisection), and the same loop with 6 samples, every step of which is
bisected.  Then the minimum time of ``cli._monodromy_check`` (the
``verify`` monodromy suite: loops, a braided reflection and 20 traces
against chi_0..chi_2) on G4 and on G12, seed 0, reusing one built group
per spec.

Run with:  python3 benchmarks/bench_monodromy.py
"""

from __future__ import annotations

import cmath
import sys
import time
from pathlib import Path

import numpy as np

# the checkout's reflarr, without PYTHONPATH or an install
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reflarr import cli, monodromy
from reflarr.catalog import GroupSpec, build

PATH_REPEATS = 300
CHECK_REPEATS = 20


def _min_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _central_loop(z, samples: int) -> np.ndarray:
    ts = np.linspace(0.0, 1.0, samples)
    return np.array([z * cmath.exp(2j * cmath.pi * t) for t in ts])


def main() -> None:
    built = {st: build(GroupSpec.exceptional(st)) for st in (4, 12)}
    arr = built[12].arrangement
    z = monodromy.default_basepoint(arr, seed=0)
    print(f"{'integrate_path on G12 (|A| = 12)':<44}{'min us':>10}")
    for label, samples in (
        ("96-sample loop, no step bisected", _central_loop(z, 96)),
        ("6-sample loop, every step bisected", _central_loop(z, 6)),
    ):
        t = _min_time(lambda: monodromy.integrate_path(arr, samples), PATH_REPEATS)
        print(f"{label:<44}{t * 1e6:>10.1f}")
    print(f"\n{'cli._monodromy_check, seed 0':<44}{'min ms':>10}")
    total = 0.0
    for st, b in built.items():
        t = _min_time(lambda: cli._monodromy_check(b, 0), CHECK_REPEATS)
        total += t
        print(f"{'G' + str(st):<44}{t * 1e3:>10.2f}")
    print(f"{'G4 + G12':<44}{total * 1e3:>10.2f}")


if __name__ == "__main__":
    main()
