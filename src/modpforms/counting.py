"""Empirical coefficient statistics and the exact decomposition oracle.

Tables are byte-packed; counting runs through the NumPy kernels in one
pass per checkpoint segment.  The oracle re-derives every coefficient at
an index coprime to p from pure-component class data alone (square-full
part, nilpotent part, unit part) and compares against the table; when
those agree for every index, the module machinery, the conductor, the
recurrences and the invertible-class group have all been validated at
once.  It runs as a prime-power sieve over blocks of indices: one batched
matrix product per prime power and per class of the primes above the
square root of the range, instead of a factorization per index.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .arith import primes_upto, squarefree_mask
from .errors import InternalInvariantError
from .module import build_module, classify_classes, decompose

DEFAULT_XMAX_CAP = 10**6
DEFAULT_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)
# indices per oracle block: the sieve holds O(ORACLE_BLOCK * dim) integers whatever X is
ORACLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class CoeffTable:
    p: int
    x_max: int
    coeffs: np.ndarray


@dataclass
class CountReport:
    checkpoints: list
    pi: list
    pi_sf: list = None
    per_value: dict = None  # a -> list of counts per checkpoint
    predicted: list = None
    ratios: list = None


def coefficient_table(expr_text, p, x_max):
    """Evaluate a form expression into a dense coefficient table of at most DEFAULT_XMAX_CAP."""
    from .expr import evaluate, parse_form_expression

    if x_max > DEFAULT_XMAX_CAP:
        raise ValueError(f"x_max {x_max} exceeds the configured cap {DEFAULT_XMAX_CAP}")
    form = evaluate(parse_form_expression(expr_text, p), p, x_max)
    return CoeffTable(p, x_max, form.series.coeffs)


def table_of_series(qs, x_max=None):
    x_max = x_max or qs.prec
    return CoeffTable(qs.p, x_max, qs.coeffs[:x_max])


def _segment_counts(coeffs, mask, bounds, p, threads):
    """Count through kernels.count_segments(_masked), in one block per thread.

    The thread count is clamped to the CPU count and the table length; one
    thread counts the whole table as its single block.  Per-block tallies
    are integers merged by summation, so the result is independent of the
    thread count.
    """
    threads = max(1, min(threads, os.cpu_count() or 1, len(coeffs)))
    edges = np.linspace(0, len(coeffs), threads + 1, dtype=np.int64)

    def block(i):
        lo, hi = int(edges[i]), int(edges[i + 1])
        local = np.clip(bounds, lo, hi) - lo
        if mask is None:
            return kernels.count_segments(coeffs[lo:hi], local, p)
        return kernels.count_segments_masked(coeffs[lo:hi], mask[lo:hi], local, p)

    if threads == 1:
        return block(0)
    from concurrent.futures import ThreadPoolExecutor

    totals = np.zeros(len(bounds), dtype=np.int64)
    by_value = np.zeros((len(bounds), p), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for t, v in pool.map(block, range(threads)):
            totals += t
            by_value += v
    return totals, by_value


def _counts(table, checkpoints, by_value, threads, squarefree):
    """(checkpoints, nonzero counts, per-value counts or None), over square-free indices if asked."""
    bounds = _checked_bounds(checkpoints, table.x_max)
    mask = squarefree_mask(table.x_max) if squarefree else None
    totals, vals = _segment_counts(table.coeffs, mask, bounds, table.p, threads)
    per_value = {a: vals[:, a].tolist() for a in range(1, table.p)} if by_value else None
    return bounds.tolist(), totals.tolist(), per_value


def count_pi(table, checkpoints, by_value=False, threads=1):
    """Nonzero-coefficient counts at each checkpoint, optionally per value."""
    bounds, totals, per_value = _counts(table, checkpoints, by_value, threads, False)
    return CountReport(bounds, totals, per_value=per_value)


def count_pi_sf(table, checkpoints, by_value=False, threads=1):
    """Counts restricted to square-free indices."""
    bounds, totals, per_value = _counts(table, checkpoints, by_value, threads, True)
    return CountReport(bounds, pi=None, pi_sf=totals, per_value=per_value)


def _checked_bounds(checkpoints, x_max):
    bounds = np.array(sorted(int(c) for c in checkpoints), dtype=np.int64)
    if len(bounds) == 0:
        raise ValueError("need at least one checkpoint")
    if bounds[0] < 0:
        raise ValueError(f"checkpoint {bounds[0]} is negative")
    if bounds[-1] > x_max:
        raise ValueError("checkpoint beyond the table range")
    return bounds


def oracle_components(f, **build_kwargs):
    """The pure component modules of a form, for the oracle."""
    parts = decompose(build_module(f, **build_kwargs))
    if not all(classify_classes(part.module).pure for part in parts):
        raise InternalInvariantError("decomposition produced a non-pure part")
    return [part.module for part in parts]


def _exact_multiples(lo, size, q, qe):
    """Offsets i < size with qe exactly the power of q dividing lo + i (qe = q^e)."""
    idx = np.arange((-lo) % qe, size, qe)
    return idx[(lo + idx) // qe % q != 0]


def _large_prime_part(n, small):
    """n with every prime of ``small`` divided out: 1 or the one prime factor left."""
    rest = n.copy()
    lo, hi = int(n[0]), int(n[-1]) + 1
    for q in small:
        qe = q
        while qe < hi:
            rest[(-lo) % qe :: qe] //= q
            qe *= q
    return rest


def decomposition_oracle(components, X, p):
    """Predicted coefficients for every index n < X coprime to p.

    For each pure component, n = m * m' * m'' with m'' the square-full
    part, m' the product of exponent-one primes in nilpotent classes and
    m the product of exponent-one primes in invertible classes; the
    predicted coefficient is a_1 of T_m T_m' T_m'' f on the component
    module, summed over the components.

    This is a sieve, not a per-index loop: each component keeps one
    coordinate row per n, starting at f, and each prime power q^e exactly
    dividing n multiplies its row by the module's T_{q^e} for q's class, in
    one batched product for all such n.  Square-full parts come first, then
    nilpotent, then invertible exponent-one primes, each by increasing q.
    Primes with q^2 < X go one at a time; the one prime with q^2 >= X an
    n may have is its largest and divides it once, so it comes last in
    its pass, batched by class.  Blocks of ORACLE_BLOCK indices keep
    memory independent of X.

    Returns the predictions (uint8) for the indices 1 <= n < X not
    divisible by p, in increasing order.
    """
    small = [q for q in primes_upto(math.isqrt(max(X - 1, 0))).tolist() if q != p]
    for module in components:
        module.require_conductor()
    out = [np.zeros(0, dtype=np.uint8)]
    for lo in range(1, X, ORACLE_BLOCK):
        n = np.arange(lo, min(lo + ORACLE_BLOCK, X), dtype=np.int64)
        coprime = n % p != 0
        # multiples of p keep their factors p here, but their rows are dropped
        large = np.where(coprime, _large_prime_part(n, small), 1)
        total = np.zeros(len(n), dtype=np.int64)
        for module in components:
            total += _component_block(module, lo, len(n), small, large)
        out.append((total % p)[coprime].astype(np.uint8))
    return np.concatenate(out)


def _component_block(module, lo, size, small, large):
    """a_1 of the predicted operator chain for n = lo .. lo + size - 1 on one component."""
    report = classify_classes(module)
    p = module.p
    hi = lo + size
    rows = np.tile(module.f_coords.astype(np.int64), (size, 1))
    small_classes = module.class_of(np.array(small, dtype=np.int64)).tolist()

    def apply(idx, u, e):
        if len(idx):
            rows[idx] = linalg.matvec(rows[idx], module.prime_power_matrix(u, e), p)

    # square-full parts: f'' = T_{m''} f
    for q, u in zip(small, small_classes):
        qe, e = q * q, 2
        while qe < hi:
            apply(_exact_multiples(lo, size, q, qe), u, e)
            qe, e = qe * q, e + 1
    # exponent-one primes, nilpotent classes (f' = T_{m'} f'') then invertible ones
    has_large = np.flatnonzero(large > 1)
    large_classes = module.class_of(large[has_large])
    for classes in (report.nilpotent_classes, report.invertible_classes):
        for q, u in zip(small, small_classes):
            if u in classes:
                apply(_exact_multiples(lo, size, q, q), u, 1)
        for u in sorted(classes):
            apply(has_large[large_classes == u], u, 1)
    return rows @ module.vector_series[:, 1].astype(np.int64) % p


def oracle_check(table, components, X):
    """Compare oracle predictions against a coefficient table.

    Returns (matches, total, mismatches) where mismatches lists at most
    the first 20 offending (n, predicted, actual) triples, in increasing n.
    """
    if X > table.x_max:
        raise ValueError("oracle range beyond the table")
    n = np.arange(1, X, dtype=np.int64)
    n = n[n % table.p != 0]
    predicted = decomposition_oracle(components, X, table.p)
    actual = table.coeffs[n]
    bad = np.flatnonzero(predicted != actual)
    mismatches = [(int(n[i]), int(predicted[i]), int(actual[i])) for i in bad[:20]]
    return len(n) - len(bad), len(n), mismatches


def compare_report(empirical, profile, squarefree=False):
    """Attach predictions and empirical/predicted ratios to a count report."""
    from .densities import predict

    points = predict(profile, empirical.checkpoints)
    counts = empirical.pi_sf if squarefree and empirical.pi_sf else empirical.pi
    empirical.predicted = [pt.value for pt in points]
    empirical.ratios = [
        (c / pt.value if pt.value else float("nan")) for c, pt in zip(counts, points)
    ]
    return empirical
