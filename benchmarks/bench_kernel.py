"""Time the cyclotomic coefficient kernel.

Times ``mul_reduce`` (cyclic convolution + reduction modulo the
cyclotomic polynomial) on random integer coefficient vectors for a few
field orders, then times a small end-to-end workload (building the
order-24 rank-2 exceptional group).

Run with:  python3 benchmarks/bench_kernel.py
"""

from __future__ import annotations

import random
import time

from reflarr import _kernel_py
from reflarr.cyclo import KERNEL, cyclotomic_poly

ORDERS = (12, 24, 60, 120)
REPEATS = 20_000


def _vectors(m: int, count: int, rng: random.Random):
    deg = len(cyclotomic_poly(m)) - 1
    out = []
    for _ in range(count):
        v = [0] * m
        for i in range(deg):
            v[i] = rng.randrange(-99, 100)
        out.append(v)
    return out


def bench_mul_reduce(kernel, m: int, rng: random.Random) -> float:
    phi = cyclotomic_poly(m)
    pairs = list(zip(_vectors(m, 64, rng), _vectors(m, 64, rng)))
    t0 = time.perf_counter()
    for k in range(REPEATS):
        a, b = pairs[k % len(pairs)]
        kernel.mul_reduce(list(a), b, m, phi)
    return time.perf_counter() - t0


def bench_group_build() -> float:
    from reflarr.catalog import GroupSpec, build

    t0 = time.perf_counter()
    build(GroupSpec.exceptional(4))
    return time.perf_counter() - t0


def main() -> None:
    rng = random.Random(0)
    print(f"{'order':>6}  {'mul_reduce x' + str(REPEATS):>18}")
    for m in ORDERS:
        print(f"{m:>6}  {bench_mul_reduce(_kernel_py, m, rng):>17.3f}s")
    t_build = bench_group_build()
    print(f"group build (order 24, rank 2, {KERNEL} kernel): {t_build:.3f}s")


if __name__ == "__main__":
    main()
