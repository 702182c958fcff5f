"""Time the cyclotomic coefficient kernel and the CycNum scalar layer.

Times ``mul_reduce`` (cyclic convolution + reduction modulo the
cyclotomic polynomial) on random integer coefficient vectors for a few
field orders; then ``CycNum`` ``+``, ``-``, ``*`` and ``inverse`` per
operand class (a general value with a general value, a rational, an
``int`` or zero) at orders 4, 12 and 24; then a small end-to-end
workload (building the order-24 rank-2 exceptional group).

Run with:  python3 benchmarks/bench_kernel.py
"""

from __future__ import annotations

import operator
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

# the checkout's reflarr, without PYTHONPATH or an install
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reflarr import _kernel_py
from reflarr.cyclo import KERNEL, CycNum, cyclotomic_poly

ORDERS = (12, 24, 60, 120)
REPEATS = 20_000
SCALAR_ORDERS = (4, 12, 24)
SCALAR_REPEATS = 20_000
INVERSE_REPEATS = 2_000


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


def _per_op_us(fn, args, repeats: int) -> float:
    t0 = time.perf_counter()
    for k in range(repeats):
        fn(*args[k % len(args)])
    return (time.perf_counter() - t0) / repeats * 1e6


def bench_scalars(m: int, rng: random.Random) -> dict:
    """Microseconds per CycNum operation at order m, by operand class:
    {class: (+, -, *)}, and {"inverse": (general, rational)}."""
    general = [CycNum(m, v, rng.randrange(1, 10)) for v in _vectors(m, 64, rng)]
    rationals = [
        CycNum.rational(Fraction(rng.randrange(-99, 100), rng.randrange(1, 100)))
        for _ in general
    ]
    partners = {
        "general x general": general[1:] + general[:1],
        "rational x general": rationals,
        "int x general": [rng.randrange(-99, 100) for _ in general],
        "general + 0": [CycNum.zero(m)] * len(general),
    }
    out = {}
    for kind, ys in partners.items():
        pairs = list(zip(general, ys))
        out[kind] = tuple(
            _per_op_us(op, pairs, SCALAR_REPEATS)
            for op in (operator.add, operator.sub, operator.mul)
        )
    out["inverse"] = tuple(
        _per_op_us(CycNum.inverse, [(x,) for x in xs if not x.is_zero()], INVERSE_REPEATS)
        for xs in (general, rationals)
    )
    return out


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
    print(f"\n{'order':>6}  {'CycNum operands':<20}{'+ us':>8}{'- us':>8}{'* us':>8}")
    for m in SCALAR_ORDERS:
        rows = bench_scalars(m, rng)
        inverse = rows.pop("inverse")
        for kind, (add, sub, mul) in rows.items():
            print(f"{m:>6}  {kind:<20}{add:>8.2f}{sub:>8.2f}{mul:>8.2f}")
        print(f"{m:>6}  {'inverse':<20}general {inverse[0]:.2f} us, rational {inverse[1]:.2f} us")
    t_build = bench_group_build()
    print(f"group build (order 24, rank 2, {KERNEL} kernel): {t_build:.3f}s")


if __name__ == "__main__":
    main()
