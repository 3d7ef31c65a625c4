#!/usr/bin/env python3
"""Benchmark the q-series kernels and the series builders on top of them.

Covers the hot loops: sparse series multiplication (cusp-form
generation) on both of its routes, pair sums for a sparse dense operand
and shifted adds otherwise, at p = 3 and at p = 251 (250 distinct
coefficients), table counting with per-value tallies, the divisor-sum
sieve (Eisenstein series) and truncated dense multiplication (basis
expansion); then the cusp form itself, built by Frobenius digits, the
square-full sum of the leading constant of Delta mod 7 and the
decomposition oracle of Delta^2 mod 3.  Times are the best of --repeat
runs.

    python benchmarks/bench_kernels.py [--prec 1000000] [--repeat 3]
"""

import argparse
import time

import numpy as np

from modpforms import kernels
from modpforms.basis import GradedForm
from modpforms.counting import decomposition_oracle, oracle_components
from modpforms.densities import class_density, euler_constant_C, squarefull_buckets
from modpforms.module import build_module, classify_classes
from modpforms.series import delta_power, eta_cubed, mul


def _time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _sparse_case(p, prec):
    """eta^6 and the nonzero terms of eta^3 mod p: the second product of Delta."""
    eta3 = eta_cubed(p, prec)
    exps = np.flatnonzero(eta3.coeffs)
    return eta3.coeffs, mul(eta3, eta3).coeffs, exps, eta3.coeffs[exps]


def bench(prec, repeat):
    eta3, eta6, exps, coefs = _sparse_case(3, prec)
    eta3_251, eta6_251, exps_251, coefs_251 = _sparse_case(251, prec)
    dense_small_a = np.random.default_rng(0).integers(0, 7, size=20000, dtype=np.uint8)
    dense_small_b = np.random.default_rng(1).integers(0, 7, size=20000, dtype=np.uint8)
    table = delta_power(3, 1, prec).coeffs
    bounds = np.array([prec // 100, prec // 10, prec], dtype=np.int64)

    cases = [
        (
            f"mul_sparse eta^3 * eta^3 mod 3, pair sums ({prec} coeffs)",
            lambda: kernels.mul_sparse(eta3, exps, coefs, 3, prec),
        ),
        (
            f"mul_sparse eta^6 * eta^3 mod 3, shifted adds ({prec} coeffs)",
            lambda: kernels.mul_sparse(eta6, exps, coefs, 3, prec),
        ),
        (
            f"mul_sparse eta^3 * eta^3 mod 251, pair sums ({prec} coeffs)",
            lambda: kernels.mul_sparse(eta3_251, exps_251, coefs_251, 251, prec),
        ),
        (
            f"mul_sparse eta^6 * eta^3 mod 251, shifted adds ({prec} coeffs)",
            lambda: kernels.mul_sparse(eta6_251, exps_251, coefs_251, 251, prec),
        ),
        (f"count_segments ({prec})", lambda: kernels.count_segments(table, bounds, 3)),
        (f"sigma_sieve ({prec // 10})", lambda: kernels.sigma_sieve(prec // 10, 3, 7)),
        (f"sigma_sieve ({prec})", lambda: kernels.sigma_sieve(prec, 3, 7)),
        (
            "mul_dense (20k x 20k)",
            lambda: kernels.mul_dense(dense_small_a, dense_small_b, 7, 20000),
        ),
    ]
    for label, fn in cases:
        print(f"{label}: {_time(fn, repeat) * 1000:.1f}ms")

    # scan throughput, the counting engineering target
    t = _time(lambda: kernels.count_segments(table, bounds[-1:], 3), repeat)
    print(f"scan throughput: {prec / t / 1e6:.0f}M coefficients/s")

    for p in (3, 7):
        t = _time(lambda: delta_power(p, 1, prec), repeat)
        print(f"delta_power p={p}: {t * 1000:.1f}ms ({prec} coeffs)")

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

    components = oracle_components(GradedForm(delta_power(3, 2, 4009), 24))
    for x in (10**5, 10**6):
        t = _time(lambda: decomposition_oracle(components, x, 3), repeat)
        print(f"decomposition_oracle delta^2 mod 3 (X = {x:.0e}): {t * 1000:.1f}ms")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--prec", type=int, default=10**6)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    bench(args.prec, args.repeat)
