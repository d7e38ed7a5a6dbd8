"""Timing comparison of the pure and compiled sweep kernels.

Runs each kernel on a representative workload with both backends and
prints a table of wall times and speedups.  Usage:

    python3 benchmarks/bench_kernels.py
"""

import time

from polyweight._kernels import pure
from polyweight.classify import ClassificationContext
from polyweight.groups import build_go_odd, build_gsp

try:
    from polyweight._kernels import _fast as fast
except ImportError:
    fast = None


def tables_of(datum, p, r):
    return ClassificationContext(datum, p, r).tables()


def workloads():
    gsp4 = tables_of(build_gsp(4), 2, 2)
    go5 = tables_of(build_go_odd(5), 2, 2)
    return [
        ("pair_witness_sweep", "gsp(4) radius 2",
         lambda impl: impl.pair_witness_sweep(gsp4, 2)),
        ("poly_consistency_sweep", "go(5) radius 2",
         lambda impl: impl.poly_consistency_sweep(go5, 2)),
        ("predicate_flags_box", "go(5) p^r=4 radius 4",
         lambda impl: impl.predicate_flags_box(go5, 4, 4)),
        ("decompose_unique_sweep", "gsp(4) p^r=4 radius 5",
         lambda impl: impl.decompose_unique_sweep(gsp4, 4, 5)),
    ]


def timed(run, impl, repeats):
    best = None
    value = None
    for _ in range(repeats):
        begin = time.perf_counter()
        value = run(impl)
        elapsed = time.perf_counter() - begin
        if best is None or elapsed < best:
            best = elapsed
    return best, value


def main():
    rows = []
    for name, instance, run in workloads():
        pure_time, pure_value = timed(run, pure, 1)
        if fast is None:
            rows.append((name, instance, pure_time, None))
            continue
        fast_time, fast_value = timed(run, fast, 3)
        if pure_value != fast_value:
            raise SystemExit(f"backend mismatch in {name} on {instance}")
        rows.append((name, instance, pure_time, fast_time))

    header = f"{'kernel':<24} {'instance':<24} {'pure':>9} {'fast':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, instance, pure_time, fast_time in rows:
        if fast_time is None:
            print(f"{name:<24} {instance:<24} {pure_time:>8.3f}s {'n/a':>9} {'n/a':>8}")
        else:
            print(
                f"{name:<24} {instance:<24} {pure_time:>8.3f}s "
                f"{fast_time:>8.3f}s {pure_time / fast_time:>7.1f}x"
            )
    if fast is None:
        print("\ncompiled backend not built; showing pure times only")


if __name__ == "__main__":
    main()
