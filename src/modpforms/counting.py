"""Empirical coefficient statistics and the exact decomposition oracle.

Tables are byte-packed; counting runs through the NumPy kernels in one
pass per checkpoint segment.  The oracle re-derives every coefficient at
an index coprime to p from pure-component class data alone (square-full
part, nilpotent part, unit part) and compares against the table; when
those agree for every index, the module machinery, the conductor, the
recurrences and the invertible-class group have all been validated at
once.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .arith import factor_with_spf, spf_sieve, squarefree_mask
from .errors import InternalInvariantError
from .module import classify_classes, decompose

DEFAULT_XMAX_CAP = 10**6
DEFAULT_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)


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


def coefficient_table(expr_text, p, x_max, cap=DEFAULT_XMAX_CAP):
    """Evaluate a form expression into a dense coefficient table."""
    from .expr import evaluate, parse_form_expression

    if x_max > cap:
        raise ValueError(f"x_max {x_max} exceeds the configured cap {cap}")
    form = evaluate(parse_form_expression(expr_text, p), p, x_max)
    return CoeffTable(p, x_max, form.series.coeffs)


def table_of_series(qs, x_max=None):
    x_max = x_max or qs.prec
    return CoeffTable(qs.p, x_max, qs.coeffs[:x_max])


def _segment_counts(coeffs, mask, bounds, p, threads):
    """Count through kernels.count_segments(_masked), optionally in blocks across threads.

    The thread count is clamped to the CPU count and the table length.
    Per-block tallies are integers merged by summation, so the result is
    independent of the thread count.
    """
    threads = min(threads, os.cpu_count() or 1, len(coeffs))
    if threads <= 1:
        if mask is None:
            return kernels.count_segments(coeffs, bounds, p)
        return kernels.count_segments_masked(coeffs, mask, bounds, p)
    from concurrent.futures import ThreadPoolExecutor

    edges = np.linspace(0, len(coeffs), threads + 1, dtype=np.int64)

    def block(i):
        lo, hi = int(edges[i]), int(edges[i + 1])
        local = np.clip(bounds, lo, hi) - lo
        if mask is None:
            return kernels.count_segments(coeffs[lo:hi], local, p)
        return kernels.count_segments_masked(coeffs[lo:hi], mask[lo:hi], local, p)

    totals = np.zeros(len(bounds), dtype=np.int64)
    by_value = np.zeros((len(bounds), p), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for t, v in pool.map(block, range(threads)):
            totals += t
            by_value += v
    return totals, by_value


def count_pi(table, checkpoints, by_value=False, threads=1):
    """Nonzero-coefficient counts at each checkpoint, optionally per value."""
    bounds = _checked_bounds(checkpoints, table.x_max)
    totals, vals = _segment_counts(table.coeffs, None, bounds, table.p, threads)
    report = CountReport(list(map(int, bounds)), [int(t) for t in totals])
    if by_value:
        report.per_value = {
            a: [int(vals[i][a]) for i in range(len(bounds))] for a in range(1, table.p)
        }
    return report


def count_pi_sf(table, checkpoints, by_value=False, threads=1):
    """Counts restricted to square-free indices."""
    bounds = _checked_bounds(checkpoints, table.x_max)
    mask = squarefree_mask(table.x_max)
    totals, vals = _segment_counts(table.coeffs, mask, bounds, table.p, threads)
    report = CountReport(list(map(int, bounds)), pi=None, pi_sf=[int(t) for t in totals])
    if by_value:
        report.per_value = {
            a: [int(vals[i][a]) for i in range(len(bounds))] for a in range(1, table.p)
        }
    return report


def _checked_bounds(checkpoints, x_max):
    bounds = np.array(sorted(int(c) for c in checkpoints), dtype=np.int64)
    if len(bounds) == 0:
        raise ValueError("need at least one checkpoint")
    if bounds[0] < 0:
        raise ValueError(f"checkpoint {bounds[0]} is negative")
    if bounds[-1] > x_max:
        raise ValueError("checkpoint beyond the table range")
    return bounds


@dataclass(frozen=True)
class OracleComponent:
    """Class data of one pure component, ready for per-index evaluation."""

    module: object
    nil_classes: frozenset
    inv_classes: frozenset


def oracle_components(f, seed=0, **build_kwargs):
    """Pure components of a form with their class partitions, for the oracle."""
    from .module import build_module

    module = build_module(f, **build_kwargs)
    parts = decompose(module, seed=seed)
    out = []
    for part in parts:
        report = classify_classes(part.module)
        if not report.pure:
            raise InternalInvariantError("decomposition produced a non-pure part")
        out.append(
            OracleComponent(
                part.module,
                frozenset(report.nilpotent_classes),
                frozenset(report.invertible_classes),
            )
        )
    return out


@dataclass(frozen=True)
class OracleRecord:
    n: int
    predicted: int
    parts: tuple  # per component: (m, m_prime, m_dfull) split


def decomposition_oracle(components, X, p):
    """Predicted coefficients for every index n < X coprime to p.

    For each pure component, n = m * m' * m'' with m'' the square-full
    part, m' the product of exponent-one primes in nilpotent classes and
    m the product of exponent-one primes in invertible classes; the
    predicted coefficient is the first-coefficient functional of the
    corresponding operator chain applied on the component module.
    """
    spf = spf_sieve(max(X - 1, 3))
    records = []
    caches = [{} for _ in components]
    for n in range(1, X):
        if n % p == 0:
            continue
        fac = factor_with_spf(n, spf)
        total = 0
        parts = []
        for comp, cache in zip(components, caches):
            value, split = _component_prediction(comp, fac, cache)
            total = (total + value) % p
            parts.append(split)
        records.append(OracleRecord(n, total, tuple(parts)))
    return records


def _component_prediction(comp, fac, cache):
    module = comp.module
    p = module.p
    v = module.f_coords
    m = m_prime = m_dfull = 1
    # square-full part first: f'' = T_{m''} f
    for q, e in fac.items():
        if e >= 2:
            m_dfull *= q**e
            key = ("pp", q % module.conductor, e)
            if key not in cache:
                cache[key] = module.prime_power_matrix(module.class_of(q), e)
            v = linalg.matvec(v, cache[key], p)
    if v.any():
        # nilpotent exponent-one primes: f' = T_{m'} f''
        for q, e in fac.items():
            if e == 1 and q % module.conductor in comp.nil_classes:
                m_prime *= q
                v = module.apply_class(v, q % module.conductor)
                if not v.any():
                    break
    if v.any():
        # invertible exponent-one primes, then the a_1 functional
        for q, e in fac.items():
            if e == 1 and q % module.conductor in comp.inv_classes:
                m *= q
                v = module.apply_class(v, q % module.conductor)
    value = module.coefficient(v, 1) if v.any() else 0
    return value, (m, m_prime, m_dfull)


def oracle_check(table, components, X):
    """Compare oracle predictions against a coefficient table.

    Returns (matches, total, mismatches) where mismatches lists at most
    the first 20 offending (n, predicted, actual) triples.
    """
    if X > table.x_max:
        raise ValueError("oracle range beyond the table")
    records = decomposition_oracle(components, X, table.p)
    matches = 0
    mismatches = []
    for rec in records:
        actual = int(table.coeffs[rec.n])
        if actual == rec.predicted:
            matches += 1
        elif len(mismatches) < 20:
            mismatches.append((rec.n, rec.predicted, actual))
    return matches, len(records), mismatches


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
