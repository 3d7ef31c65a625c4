#!/usr/bin/env python3
"""Benchmark the kernel backends and the series builders on top of them.

Covers the hot loops: sparse series multiplication (cusp-form
generation), table counting with per-value tallies and the divisor-sum
sieve (Eisenstein series), for every importable backend; truncated dense
multiplication (basis expansion), which is the NumPy FFT on every backend;
then the cusp form itself, built by Frobenius digits on the selected
backend, and the square-full sum of the leading constant of Delta mod 7.
Times are the best of --repeat runs.

    python benchmarks/bench_kernels.py [--prec 1000000] [--repeat 3]
"""

import argparse
import time

import numpy as np

from modpforms import kernels
from modpforms.basis import GradedForm
from modpforms.densities import class_density, euler_constant_C, squarefull_buckets
from modpforms.module import build_module, classify_classes
from modpforms.series import delta_power, eta_cubed


def _time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(prec, repeat):
    backends = kernels.backends()
    eta = eta_cubed(3, prec)
    dense = eta.dense().coeffs
    dense_small_a = np.random.default_rng(0).integers(0, 7, size=20000, dtype=np.uint8)
    dense_small_b = np.random.default_rng(1).integers(0, 7, size=20000, dtype=np.uint8)
    table = delta_power(3, 1, prec).coeffs
    bounds = np.array([prec // 100, prec // 10, prec], dtype=np.int64)

    columns = [
        ("mul_sparse", f"({prec} coeffs)"),
        ("count", f"({prec})"),
        ("sigma", f"({prec // 10})"),
        ("sigma", f"({prec})"),
    ]
    rows = []
    for name, impl in backends.items():
        times = [
            _time(lambda: impl.mul_sparse(dense, eta.exponents, eta.coefficients, 3, prec), repeat),
            _time(lambda: impl.count_segments(table, bounds, 3), repeat),
            _time(lambda: impl.sigma_sieve(prec // 10, 3, 7), repeat),
            _time(lambda: impl.sigma_sieve(prec, 3, 7), repeat),
        ]
        rows.append((name, times))

    print(f"{'backend':<8}" + "".join(f" {label:>12}" for label, _ in columns))
    print(f"{'':8}" + "".join(f" {size:>12}" for _, size in columns))
    for name, times in rows:
        print(f"{name:<8}" + "".join(f" {t * 1000:>10.1f}ms" for t in times))
    if len(rows) == 2:
        speedups = [a / b if b else 0 for a, b in zip(rows[0][1], rows[1][1])]
        print(
            f"{'speedup':<8}"
            + "".join(f" {s:>11.2f}x" for s in speedups)
            + "   (numpy time / cython time)"
        )

    t = _time(lambda: kernels.mul_dense(dense_small_a, dense_small_b, 7, 20000), repeat)
    print(f"mul_dense (20k x 20k): {t * 1000:.1f}ms")

    # scan throughput, the counting engineering target
    for name, impl in backends.items():
        t = _time(lambda: impl.count_segments(table, bounds[-1:], 3), repeat)
        print(f"scan throughput [{name}]: {prec / t / 1e6:.0f}M coefficients/s")

    for p in (3, 7):
        t = _time(lambda: delta_power(p, 1, prec), repeat)
        print(f"delta_power p={p} [{kernels.BACKEND}]: {t * 1000:.1f}ms ({prec} coeffs)")

    module = build_module(GradedForm(delta_power(7, 1, 4009), 12))
    report = classify_classes(module)
    beta = 1 - class_density(report.nilpotent_classes, report.modulus)
    cu = euler_constant_C(report.invertible_classes, report.modulus, beta)
    for s_bound in (10**8, 10**10):
        t = _time(
            lambda: squarefull_buckets(
                module, module.f_coords, cu, s_bound, report.invertible_classes
            ),
            repeat,
        )
        print(f"squarefull_buckets delta mod 7 (S = {s_bound:.0e}): {t * 1000:.1f}ms")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--prec", type=int, default=10**6)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    bench(args.prec, args.repeat)
