#!/usr/bin/env python3
"""Benchmark the q-series kernels and the series builders on top of them.

Covers the hot loops: sparse series multiplication (cusp-form
generation) on both of its routes, pair sums for a sparse dense operand
and shifted adds otherwise, at p = 3 and at p = 251 (250 distinct
coefficients), the pair-sum products behind Delta mod 3 and mod 7 at
--prec and ten times it with their tracemalloc peaks, table counting
with per-value tallies (alone and with the square-free counts in the
same pass), the square-free mask, the
divisor-sum sieve (Eisenstein series) at p = 7 and p = 251, truncated dense multiplication (basis
expansion; a product and a square of the same sizes) and row combinations mod p (the weight-228 echelon basis mod
3 at 38,009 coefficients, and 20 x 20,000 at p = 251); then the cusp
form itself, built by Frobenius digits, the weight-228 basis mod 3 built
cold, the exponents 8c (c < 20) of its Delta^c in one shared digit walk
against one power each, the module of Delta^19 mod 3 and the batched
status pass on its sampled matrices, the generalized eigenspaces of a
64-dimensional split block at p = 3, 7 and 251 (decompose's step), the
Euler products and square-full sums of the leading constants of Delta
mod 7 (S up to the cap 10^12) and Delta^5 mod 3, each with its
tracemalloc peak, and the decomposition oracle of Delta^2 mod 3.  Times
are the best of --repeat runs.

    python benchmarks/bench_kernels.py [--prec 1000000] [--repeat 3]
"""

import argparse
import time
import tracemalloc

import numpy as np

from modpforms import basis, kernels, linalg
from modpforms.arith import squarefree_mask
from modpforms.basis import GradedForm, _mod_monomials, miller_basis
from modpforms.counting import decomposition_oracle, oracle_components
from modpforms.densities import class_density, euler_constant_C, squarefull_buckets
from modpforms.module import (
    _eigenspaces,
    _statuses,
    build_module,
    work_precision,
)
from modpforms.series import delta_power, eta_cubed, mul, power, powers


def _time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees during one more run of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sparse_case(p, prec):
    """eta^6 and the nonzero terms of eta^3 mod p: the second product of Delta."""
    eta3 = eta_cubed(p, prec)
    exps = np.flatnonzero(eta3.coeffs)
    return eta3.coeffs, mul(eta3, eta3).coeffs, exps, eta3.coeffs[exps]


def _delta_pair_products(prec):
    """(p, label, mul_sparse arguments) of the first sparse product of Delta mod 3 and mod 7."""
    eta3 = eta_cubed(3, prec).coeffs[::3]
    exps3 = np.flatnonzero(eta3)
    eta7 = eta_cubed(7, prec).coeffs
    dilated = np.zeros(prec, dtype=np.uint8)
    dilated[::7] = eta7[: -(-prec // 7)]
    exps7 = np.flatnonzero(dilated)
    return [
        (3, "eta^3 * eta^3 (square)", (eta3, exps3, eta3[exps3], 3, len(eta3))),
        (7, "eta^3 * eta^3(q^7)", (eta7, exps7, dilated[exps7], 7, prec)),
    ]


def _split_block(p, dim=64):
    """A dim x dim matrix mod p with eigenvalues 0, 1 and 2 and Jordan blocks, in a random basis."""
    rng = np.random.default_rng(p)
    action = np.triu(rng.integers(0, p, size=(dim, dim)), 1) + np.diag(rng.integers(0, 3, size=dim))
    # a product of unit triangular matrices is invertible
    lower = np.tril(rng.integers(0, p, size=(dim, dim)), -1) + np.eye(dim, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(dim, dim)), 1) + np.eye(dim, dtype=np.int64)
    basis = (lower @ upper) % p
    return (linalg.inverse(basis, p) @ action @ basis) % p


def bench(prec, repeat):
    eta3, eta6, exps, coefs = _sparse_case(3, prec)
    eta3_251, eta6_251, exps_251, coefs_251 = _sparse_case(251, prec)
    dense_small_a = np.random.default_rng(0).integers(0, 7, size=20000, dtype=np.uint8)
    dense_small_b = np.random.default_rng(1).integers(0, 7, size=20000, dtype=np.uint8)
    table = delta_power(3, 1, prec).coeffs
    bounds = np.array([prec // 100, prec // 10, prec], dtype=np.int64)
    # the echelon step of miller_basis(3, 228, 38009): 20 monomials, 20 output rows
    mono = [m.coeffs for m in _mod_monomials(3, 228, work_precision(228))]
    echelon = linalg.inverse(np.stack([m[:20] for m in mono]), 3)
    rng = np.random.default_rng(2)
    mix_251 = rng.integers(0, 251, size=(20, 20))
    rows_251 = rng.integers(0, 251, size=(20, 20000), dtype=np.uint8)

    sf_mask = squarefree_mask(prec)

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
        (
            f"count_segments with the square-free mask ({prec})",
            lambda: kernels.count_segments(table, bounds, 3, sf_mask),
        ),
        (f"squarefree_mask ({prec})", lambda: squarefree_mask(prec)),
        (f"sigma_sieve ({prec // 10})", lambda: kernels.sigma_sieve(prec // 10, 3, 7)),
        (f"sigma_sieve ({prec})", lambda: kernels.sigma_sieve(prec, 3, 7)),
        (f"sigma_sieve mod 251 ({prec})", lambda: kernels.sigma_sieve(prec, 3, 251)),
        (
            "mul_dense (20k x 20k)",
            lambda: kernels.mul_dense(dense_small_a, dense_small_b, 7, 20000),
        ),
        (
            # the same sizes as the row above; a square takes one spectrum
            "mul_dense square (20k x 20k)",
            lambda: kernels.mul_dense(dense_small_a, dense_small_a, 7, 20000),
        ),
        (
            f"combine weight-228 echelon mod 3 (20 x 20 by 20 x {len(mono[0])})",
            lambda: kernels.combine(echelon, mono, 3),
        ),
        (
            "combine mod 251 (20 x 20 by 20 x 20000)",
            lambda: kernels.combine(mix_251, rows_251, 251),
        ),
    ]
    for label, fn in cases:
        print(f"{label}: {_time(fn, repeat) * 1000:.1f}ms")

    # the pair-sum products behind Delta mod 3 (eta^3 squared, on the lattice
    # 3Z) and Delta mod 7 (eta^3 times eta^3(q^7)), each with its tracemalloc peak
    for n in (prec, 10 * prec):
        for p, label, args in _delta_pair_products(n):

            def product():
                return kernels.mul_sparse(*args)

            t, peak = _time(product, repeat), _traced_peak(product)
            print(f"mul_sparse {label} mod {p} ({n} coeffs): {t * 1000:.1f}ms, peak {peak / 1e6:.1f} MB")

    # scan throughput, the counting engineering target
    t = _time(lambda: kernels.count_segments(table, bounds[-1:], 3), repeat)
    print(f"scan throughput: {prec / t / 1e6:.0f}M coefficients/s")

    for p in (3, 7):
        t = _time(lambda: delta_power(p, 1, prec), repeat)
        print(f"delta_power p={p}: {t * 1000:.1f}ms ({prec} coeffs)")

    # weight 228, the largest of the h-table
    prec228 = work_precision(228)

    def cold_basis():
        basis._basis_cache.clear()
        miller_basis(3, 228, prec228)

    t = _time(cold_basis, repeat)
    print(f"miller_basis weight 228 mod 3, cold ({prec228} coeffs): {t * 1000:.1f}ms")
    eta3_228 = eta_cubed(3, prec228 - 1)
    exponents = [8 * c for c in range(1, 20)]
    t = _time(lambda: powers(eta3_228, exponents), repeat)
    print(f"powers eta^3 mod 3, exponents 8c for c < 20, one walk: {t * 1000:.1f}ms")
    t = _time(lambda: [power(eta3_228, e) for e in exponents], repeat)
    print(f"power eta^3 mod 3, exponents 8c for c < 20, one call each: {t * 1000:.1f}ms")

    # the basis is cached after the first run
    delta19 = GradedForm(delta_power(3, 19, prec228), 228)
    t = _time(lambda: build_module(delta19), repeat)
    print(f"build_module delta^19 mod 3 ({prec228} coeffs): {t * 1000:.1f}ms")
    sampled = list(build_module(delta19).per_prime.values())
    t = _time(lambda: _statuses(sampled, 3), repeat)
    print(f"_statuses delta^19 mod 3 ({len(sampled)} sampled matrices): {t * 1000:.1f}ms")

    for p in (3, 7, 251):
        mat = _split_block(p)
        rows = linalg.identity(len(mat), p)
        t = _time(lambda: _eigenspaces(rows, {}, mat, p), repeat)
        print(f"_eigenspaces 64-dim split block mod {p}: {t * 1000:.1f}ms")

    # Delta^5 mod 3: conductor 27, dim 4, 16 buckets; each time comes with the
    # tracemalloc peak of one more run (the primes up to 10^6 are cached by then)
    for p, k, s_bounds in ((7, 1, (10**8, 10**10, 10**12)), (3, 5, (10**10,))):
        module = build_module(GradedForm(delta_power(p, k, 10009), 12 * k))
        report = module.report
        beta = 1 - class_density(report.nilpotent_classes, report.modulus)
        name = "delta" if k == 1 else f"delta^{k}"

        def euler():
            return euler_constant_C(report.invertible_classes, report.modulus, beta)

        t, peak = _time(euler, repeat), _traced_peak(euler)
        print(f"euler_constant_C {name} mod {p}: {t * 1000:.1f}ms, peak {peak / 1e6:.1f} MB")
        cu = euler()
        for s_bound in s_bounds:

            def buckets():
                return squarefull_buckets(
                    module, module.f_coords, cu, s_bound, report.invertible_classes
                )

            t, peak = _time(buckets, repeat), _traced_peak(buckets)
            print(
                f"squarefull_buckets {name} mod {p} (S = {s_bound:.0e}): {t * 1000:.1f}ms, "
                f"peak {peak / 1e6:.1f} MB"
            )

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
