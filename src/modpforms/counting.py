"""Empirical coefficient statistics and the exact decomposition oracle.

Counts and the oracle read the evaluated q-series itself: a QSeries of
precision X stands for the coefficients a_n, n < X, and counting runs
through the NumPy kernels in one pass over them, which gives the counts
over all indices and over the square-free ones together.  The oracle
re-derives every coefficient at an index coprime to p from pure-component
class data alone (square-full part, nilpotent part, unit part) and
compares against the series; when those agree for every index, the module
machinery, the conductor, the recurrences and the invertible-class group
have all been validated at once.  It runs as a prime-power sieve over
blocks of indices: one batched matrix product per prime power and per
class of the primes above the square root of the range, instead of a
factorization per index.
"""

import math

import numpy as np

from . import kernels, linalg
from .arith import primes_upto, squarefree_mask
from .errors import InternalInvariantError
from .module import build_module, decompose

DEFAULT_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)
# indices per oracle block: the sieve holds O(ORACLE_BLOCK * dim) integers whatever X is
ORACLE_BLOCK = 1 << 16


class CountReport:
    __slots__ = ("checkpoints", "pi", "pi_sf", "per_value", "predicted", "ratios")

    def __init__(self, checkpoints, pi, pi_sf=None, per_value=None, predicted=None, ratios=None):
        self.checkpoints, self.pi, self.pi_sf = checkpoints, pi, pi_sf
        self.per_value = per_value  # a -> list of counts per checkpoint
        self.predicted, self.ratios = predicted, ratios


def coefficient_table(expr_text, p, x_max):
    """The series of a form expression to x_max coefficients, at most series.MAX_PREC."""
    from .expr import evaluate, parse_form_expression

    return evaluate(parse_form_expression(expr_text, p), p, x_max).series


def count_pi(qs, checkpoints):
    """Nonzero-coefficient counts of a series at each checkpoint, in total and per value.

    The same pass over the coefficients also gives pi_sf, the counts over
    square-free indices.  Checkpoints may not pass the series precision.
    """
    bounds = _checked_bounds(checkpoints, qs.prec)
    mask = squarefree_mask(int(bounds[-1]))
    totals, vals, sf_totals, _ = kernels.count_segments(qs.coeffs, bounds, qs.p, mask)
    return CountReport(bounds.tolist(), totals.tolist(), sf_totals.tolist(), _per_value(vals))


def count_pi_sf(qs, checkpoints):
    """Counts restricted to square-free indices."""
    bounds = _checked_bounds(checkpoints, qs.prec)
    mask = squarefree_mask(int(bounds[-1]))
    totals, vals = kernels.count_segments_masked(qs.coeffs, mask, bounds, qs.p)
    return CountReport(bounds.tolist(), pi=None, pi_sf=totals.tolist(), per_value=_per_value(vals))


def _per_value(by_value):
    """Per-value count lists keyed by the nonzero values 1 .. p-1."""
    return {a: by_value[:, a].tolist() for a in range(1, by_value.shape[1])}


def _checked_bounds(checkpoints, prec):
    bounds = np.array(sorted(int(c) for c in checkpoints), dtype=np.int64)
    if len(bounds) == 0:
        raise ValueError("need at least one checkpoint")
    if bounds[0] < 0:
        raise ValueError(f"checkpoint {bounds[0]} is negative")
    if bounds[-1] > prec:
        raise ValueError("checkpoint beyond the series precision")
    return bounds


def oracle_components(f, **build_kwargs):
    """The pure component modules of a form, for the oracle; the parent needs a conductor too."""
    module = build_module(f, **build_kwargs)
    module.require_conductor()
    parts = decompose(module)
    if not all(part.module.report.pure for part in parts):
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
    report = module.report
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


def oracle_check(qs, components, X):
    """Compare oracle predictions against the coefficients of a series below X.

    Returns (matches, total, mismatches) where mismatches lists at most
    the first 20 offending (n, predicted, actual) triples, in increasing n.
    """
    if X > qs.prec:
        raise ValueError("oracle range beyond the series precision")
    n = np.arange(1, X, dtype=np.int64)
    n = n[n % qs.p != 0]
    predicted = decomposition_oracle(components, X, qs.p)
    actual = qs.coeffs[n]
    bad = np.flatnonzero(predicted != actual)
    mismatches = [(int(n[i]), int(predicted[i]), int(actual[i])) for i in bad[:20]]
    return len(n) - len(bad), len(n), mismatches


def compare_report(empirical, profile, squarefree=False):
    """Attach predictions and empirical/predicted ratios to a count report."""
    from .densities import predict

    counts = empirical.pi_sf if squarefree else empirical.pi
    if counts is None:
        kind = "square-free" if squarefree else "all-index"
        raise ValueError(f"a comparison of {kind} counts needs a report with {kind} counts")
    points = predict(profile, empirical.checkpoints)
    empirical.predicted = [pt.value for pt in points]
    empirical.ratios = [
        (c / pt.value if pt.value else float("nan")) for c, pt in zip(counts, points)
    ]
    return empirical
