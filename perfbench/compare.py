"""Compare benchmark records of two commits, metric by metric.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each side is one or more records written by ``run.py`` for the same
workload and trace mode.  Prints each side's median and quartiles per
metric and the change of the medians.  Records taken with different
arithmetic kernels (``reflarr.cyclo.KERNEL``) are refused: a speed-up
only counts against the same kernel.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(paths) -> list:
    return [json.loads(open(p).read()) for p in paths]


def check_comparable(records) -> str | None:
    """Why the records cannot be compared, or None if they can."""
    for key in ("kernel", "workload", "trace"):
        values = {json.dumps(r["meta"][key]) for r in records}
        if len(values) > 1:
            return f"records differ in {key}: {', '.join(sorted(values))}"
    return None


def summarize(records, name) -> tuple:
    values = [r["metrics"][name]["value"] for r in records]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        print("error: each side needs at least one record", file=sys.stderr)
        return 2
    why = check_comparable(base + new)
    if why is not None:
        print(f"error: refusing to compare: {why}", file=sys.stderr)
        return 2
    print(f"{'metric':<48} {'base median [q1, q3]':>30} {'new median [q1, q3]':>30} {'change':>8}")
    for name, m in base[0]["metrics"].items():
        if name not in new[0]["metrics"]:
            continue
        b, n = summarize(base, name), summarize(new, name)
        change = f"{(n[1] - b[1]) / b[1]:+.1%}" if b[1] else "n/a"
        print(f"{name:<48} {b[1]:>12.6g} [{b[0]:.4g}, {b[2]:.4g}] "
              f"{n[1]:>12.6g} [{n[0]:.4g}, {n[2]:.4g}] {change:>8}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
