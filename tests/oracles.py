"""Independent exact oracles used to freeze expected values.

Everything here is deliberately computed by a different route than the
package: integer convolutions term by term, direct divisor sums, Fraction
Gaussian elimination.  Slow but unarguable.  The package's former routes
for dense products, divisor sums, the two-add divisor-pair sieve, the
two-pass square-free count, powers, cusp-form powers, square-full sums,
the prime sieve over all integers, sparse products, products at full
length without the support-lattice step, row combinations in int64,
weight bases one monomial at a time, restriction to a submodule, the
decomposition oracle, row reduction one row at a time, the module
closure, the per-matrix status and determinant, the int64 batched
elimination, the nilpotence-order search, the multiset enumeration of
nilpotent images, the one-vector solve in a row span, the eigenspaces
from the minimal polynomial and its roots and the class table walked
through every unit class are kept here as differential references for
the fast paths that replaced them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from modpforms import kernels, linalg
from modpforms.basis import _monomials
from modpforms.errors import (
    InternalInvariantError,
    SpanNotClosedError,
    SplittingFieldNeededError,
)
from modpforms.arith import multiplicative_order
from modpforms.hecke import ell_s_ell
from modpforms.module import (
    INVERTIBLE,
    MAX_CONDUCTOR_EXPONENT,
    MIXED,
    NILPOTENT,
)
from modpforms.series import QSeries, delta_power, eisenstein, mul, one, power, zero


@lru_cache(maxsize=None)
def integer_delta(prec):
    """q * prod_{n < prec} (1 - q^n)^24 over the integers, term by term."""
    body = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        for _ in range(24):
            # multiply by (1 - q^n)
            for i in range(prec - 1, n - 1, -1):
                body[i] -= body[i - n]
    return tuple([0] + body[: prec - 1])


def tau(n):
    return integer_delta(max(n + 1, 32))[n]


@lru_cache(maxsize=None)
def integer_delta_power(k, prec):
    """Integer coefficients of the k-th power of the weight-12 cusp form."""
    d = integer_delta(prec)
    out = [1] + [0] * (prec - 1)
    for _ in range(k):
        nxt = [0] * prec
        for i, c in enumerate(out):
            if c:
                for j in range(prec - i):
                    if d[j]:
                        nxt[i + j] += c * d[j]
        out = nxt
    return tuple(out)


def sigma(n, e):
    return sum(d**e for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def integer_eisenstein(k, prec):
    const = {4: 240, 6: -504}[k]
    e = {4: 3, 6: 5}[k]
    return tuple([1] + [const * sigma(n, e) for n in range(1, prec)])


def dense_euler_product_modp(p, prec):
    """prod_{n < prec} (1 - q^n) mod p, multiplied out term by term."""
    out = np.zeros(prec, dtype=np.int64)
    out[0] = 1
    for n in range(1, prec):
        out[n:] = (out[n:] - out[: prec - n]) % p
    return out % p


def poly_mul_modp(a, b, p, prec):
    full = np.convolve(a.astype(np.int64), b.astype(np.int64))[:prec]
    return full % p


def mul_dense_convolve(a, b, p, out_len):
    """Truncated dense product mod p by an exact integer convolution."""
    n = min(len(a), out_len)
    m = min(len(b), out_len)
    full = np.convolve(a[:n].astype(np.int64), b[:m].astype(np.int64))
    out = np.zeros(out_len, dtype=np.uint8)
    k = min(out_len, len(full))
    out[:k] = (full[:k] % p).astype(np.uint8)
    return out


def mul_full_length(a, b):
    """Truncated product of two QSeries by series.mul's kernel choice at full length.

    The route before the support-lattice step: the sparse kernel when an
    operand has at most max(8, 5% of out_len) nonzero entries, the FFT
    otherwise.
    """
    out_len = min(a.prec, b.prec)
    budget = max(8, int(0.05 * out_len))
    for dense, other in ((a, b), (b, a)):
        idx = np.flatnonzero(other.coeffs != 0)
        if len(idx) <= budget:
            return QSeries(
                a.p, kernels.mul_sparse(dense.coeffs, idx, other.coeffs[idx], a.p, out_len)
            )
    return QSeries(a.p, kernels.mul_dense(a.coeffs, b.coeffs, a.p, out_len))


def sigma_sieve_walk(prec, e, p):
    """sigma_e(n) mod p for 0 <= n < prec by adding d^e to every multiple of d."""
    acc = np.zeros(prec, dtype=np.int64)
    for d in range(1, prec):
        acc[d::d] += pow(d, e, p)
    return (acc % p).astype(np.uint8)


def sigma_sieve_divisor_pairs(prec, e, p):
    """sigma_e(n) mod p by two strided adds per divisor d with d^2 < prec, in uint32.

    The route before the one-add uint16 sieve: the step for d adds d^e to
    every n = d*m with m >= d and m^e to those with m > d.
    """
    acc = np.zeros(prec, dtype=np.uint32)
    powers = np.array([pow(r, e, p) for r in range(p)], dtype=np.uint8)
    cofactor_powers = np.tile(powers, -(-prec // p))[:prec]
    # one step adds at most 2(p-1) to an entry
    chunk = (2**32 - 1) // (2 * (p - 1))
    d = 1
    while d * d < prec:
        last = (prec - 1) // d
        acc[d * d :: d] += powers[d % p]
        acc[d * (d + 1) :: d] += cofactor_powers[d + 1 : last + 1]
        if d % chunk == 0:
            acc %= p
        d += 1
    return (acc % p).astype(np.uint8)


def count_segments_two_pass(table, mask, bounds, p):
    """Counts at each bound over all indices, then over the masked ones in a second pass.

    The route before the one-pass key count: the masked pass copies
    table[mask != 0] and counts it up to the number of masked indices below
    each bound.  Returns ((totals, by_value), (kept_totals, kept_by_value)).
    """

    def tally(values, ends):
        by_value = np.zeros((len(ends), p), dtype=np.int64)
        for i, b in enumerate(ends):
            by_value[i] = np.bincount(values[:b], minlength=p)[:p]
        return by_value[:, 1:].sum(axis=1), by_value

    kept = [np.count_nonzero(mask[:b]) for b in bounds]
    return tally(table, bounds), tally(table[mask != 0], kept)


def counts_per_index(table, mask, bounds, p):
    """The same counts as count_segments_two_pass, tallied one index at a time in Python."""
    out = {"all": [], "kept": []}
    all_counts, kept_counts = [0] * p, [0] * p
    n = 0
    for b in sorted(bounds):
        while n < b:
            all_counts[int(table[n])] += 1
            if mask[n]:
                kept_counts[int(table[n])] += 1
            n += 1
        out["all"].append(list(all_counts))
        out["kept"].append(list(kept_counts))
    return out


def power_by_squaring(a, e):
    """e-th power of a QSeries by binary square-and-multiply of integer convolutions."""
    result = one(a.p, a.prec).coeffs
    base = a.coeffs
    while e:
        if e & 1:
            result = mul_dense_convolve(result, base, a.p, a.prec)
        e >>= 1
        if e:
            base = mul_dense_convolve(base, base, a.p, a.prec)
    return QSeries(a.p, result)


def mul_sparse_shifted_adds(dense, exps, coefs, p, out_len):
    """Truncated sparse product mod p: one shifted add of c * dense per term, in uint32.

    Exponents must ascend.  Caches c * dense for every distinct c and
    reduces every 2^32 / ((p-1)^2 + 1) terms.
    """
    acc = np.zeros(out_len, dtype=np.uint32)
    d32 = dense[:out_len].astype(np.uint32)
    chunk = max(1, (2**32 - 1) // ((p - 1) * (p - 1) + 1) - 1)
    scaled = {}
    for start in range(0, len(exps), chunk):
        for e, c in zip(exps[start : start + chunk], coefs[start : start + chunk]):
            e = int(e)
            if e >= out_len:
                break
            c = int(c)
            if c not in scaled:
                scaled[c] = d32 * np.uint32(c)
            acc[e:] += scaled[c][: out_len - e]
        if start + chunk < len(exps):
            acc %= p
    return (acc % p).astype(np.uint8)


def combine_int64(coefs, rows, p):
    """(coefs @ rows) mod p as uint8, with the rows widened to int64 and one matrix product."""
    wide = np.stack([np.asarray(row) for row in rows]).astype(np.int64)
    return ((np.asarray(coefs, dtype=np.int64) % p) @ wide % p).astype(np.uint8)


def delta_power_by_eta_products(p, k, prec):
    """q^k times the cube-of-eta series multiplied by itself 8k - 1 times, by shifted adds."""
    if k == 0:
        return one(p, prec)
    if prec <= k:
        return zero(p, prec)
    body = prec - k
    # the nonzero cube-of-eta terms (-1)^m (2m+1) q^{m(m+1)/2}, one m at a time
    exps, coefs = [], []
    m = 0
    while m * (m + 1) // 2 < body:
        c = (-1) ** m * (2 * m + 1) % p
        if c:
            exps.append(m * (m + 1) // 2)
            coefs.append(c)
        m += 1
    exps, coefs = np.array(exps, dtype=np.int64), np.array(coefs, dtype=np.uint8)
    acc = np.zeros(body, dtype=np.uint8)
    acc[exps] = coefs
    for _ in range(8 * k - 1):
        acc = mul_sparse_shifted_adds(acc, exps, coefs, p, body)
    out = np.zeros(prec, dtype=np.uint8)
    out[k:] = acc
    return QSeries(p, out)


def miller_basis_per_monomial(p, k, prec):
    """The echelon rows of basis.miller_basis, each monomial built on its own.

    The route before shared Frobenius digits: delta_power for each
    Delta^c, power for each E4^a, every product through mul, then the
    inverse of the leading block applied in int64.
    """
    e4, e6 = eisenstein(p, 4, prec), eisenstein(p, 6, prec)
    rows = []
    for a, b, c in _monomials(k):
        term = delta_power(p, c, prec)
        if a:
            term = mul(term, power(e4, a))
        if b:
            term = mul(term, e6)
        rows.append(term.coeffs)
    dim = len(rows)
    mono = np.stack(rows)
    return combine_int64(linalg.inverse(mono[:, :dim], p), mono, p)


def int_poly_mul(a, b, prec):
    out = [0] * prec
    for i, ai in enumerate(a[:prec]):
        if ai:
            for j, bj in enumerate(b[: prec - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def fraction_echelon(rows):
    """Reduced echelon form over Q; returns rows as Fraction lists."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def primes_full_sieve(n):
    """arith.primes_upto by a sieve over every integer <= n, odd or even."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return np.flatnonzero(sieve).astype(np.int64)


def spf_sieve(n):
    """Smallest prime factor of each index 0..n (entry 0 is 0, entry 1 is 1)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    spf[1] = 1
    for q in range(2, math.isqrt(n) + 1):
        if spf[q] == 0:
            multiples = spf[q * q :: q]
            multiples[multiples == 0] = q
    # what no prime <= sqrt(n) divides is prime
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    return spf


def factor_with_spf(n, spf):
    """Factorization of n <= len(spf) - 1 as a dict prime -> exponent."""
    out = {}
    while n > 1:
        q = int(spf[n])
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        out[q] = e
    return out


def squarefull_numbers(bound):
    """(n, factorization) for square-full n <= bound, via n = a^2 b^3 with b square-free."""
    amax = int(math.isqrt(bound))
    spf = spf_sieve(max(amax, int(round(bound ** (1 / 3))) + 2, 3))
    out = []
    b = 1
    while b**3 <= bound:
        fb = factor_with_spf(b, spf)
        if all(e == 1 for e in fb.values()):
            a = 1
            while a * a * b**3 <= bound:
                fa = factor_with_spf(a, spf)
                fac = {q: 2 * e for q, e in fa.items()}
                for q, e in fb.items():
                    fac[q] = fac.get(q, 0) + 3 * e
                out.append((a * a * b**3, fac))
                a += 1
        b += 1
    out.sort()
    return out


def squarefull_buckets_walk(module, seed, cu, s_bound, inv_classes):
    """densities.squarefull_buckets by enumeration: each square-full s <= s_bound in turn.

    Factors every s, applies T_{q^e} for its prime powers in increasing q,
    and adds C(U,s)/s to the bucket of the image; same return values.
    """
    p = module.p
    c = module.conductor
    inv_set = set(inv_classes)
    ppm_cache = {}
    sums = {}
    vecs = {}
    for s, fac in squarefull_numbers(s_bound):
        if s % p == 0:
            continue
        v = seed
        adjust = 1.0
        for q, e in sorted(fac.items()):
            key = (q % c, e)
            if key not in ppm_cache:
                ppm_cache[key] = module.prime_power_matrix(module.class_of(q), e)
            v = linalg.matvec(v, ppm_cache[key], p)
            if not v.any():
                break
            if q % c in inv_set:
                adjust /= 1.0 + 1.0 / q
        if not v.any():
            continue
        key = v.tobytes()
        sums[key] = sums.get(key, 0.0) + cu.value * adjust / s
        vecs[key] = v
    tail = 2.2 * cu.value / math.sqrt(s_bound)
    return sums, vecs, tail


def solve_in_rowspan(rows, vec, p):
    """Coefficients x with x @ rows == vec, or None if vec is outside the span."""
    k = rows.shape[0]
    aug = np.concatenate([rows.T % p, (vec % p).reshape(-1, 1)], axis=1)
    m, pivots = linalg.rref(aug, p)
    if aug.shape[1] - 1 in pivots:
        return None
    x = np.zeros(k, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = m[r, -1]
    return x


def restrict_per_row(rows, mat, p):
    """module._restrict for one matrix, one solve_in_rowspan per image row."""
    img = (rows @ mat) % p
    out = np.zeros((rows.shape[0], rows.shape[0]), dtype=np.int64)
    for i in range(rows.shape[0]):
        x = solve_in_rowspan(rows, img[i], p)
        if x is None:
            raise InternalInvariantError("subspace not stable under the sampled action")
        out[i] = x
    return out


def min_poly(mat, p):
    """Minimal polynomial coefficients [c_0, ..., c_{d-1}, 1] of mat over F_p."""
    n = mat.shape[0]
    powers = [linalg.identity(n, p).ravel()]
    while True:
        d = len(powers)
        stacked = np.stack(powers)
        nxt = linalg.matpow(mat, d, p).ravel()
        x = solve_in_rowspan(stacked, nxt, p)
        if x is not None:
            return [int((-c) % p) for c in x] + [1]
        powers.append(nxt)
        if d > n:
            raise InternalInvariantError("minimal polynomial search exceeded the dimension")


def poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_divmod_linear(coeffs, root, p):
    """Divide a polynomial by (x - root); returns quotient (remainder must be 0)."""
    out = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = (acc * root + coeffs[i]) % p
        out[i - 1] = acc
    if (acc * root + coeffs[0]) % p:
        raise InternalInvariantError(f"{root} is not a root")
    return out


def strip_linear_factors(coeffs, p):
    """All roots in F_p (with multiplicity) and the rootless cofactor."""
    roots = []
    while len(coeffs) > 1:
        for x in range(p):
            if poly_eval(coeffs, x, p) == 0:
                roots.append(x)
                coeffs = poly_divmod_linear(coeffs, x, p)
                break
        else:
            break
    return roots, coeffs


def eigenspaces_by_min_poly(rows, nil_by_mat, mat, p):
    """module._eigenspaces through the minimal polynomial and its roots in F_p.

    The generalized eigenspace of a root lambda of multiplicity m is the
    kernel of (restr - lambda*I)^m; an irreducible factor of degree above
    one raises SplittingFieldNeededError.
    """
    restr = restrict_per_row(rows, mat, p)
    roots, leftover = strip_linear_factors(min_poly(restr, p), p)
    if len(leftover) > 1:
        raise SplittingFieldNeededError(
            "a sampled action has an irreducible factor of degree "
            f"{len(leftover) - 1} in its minimal polynomial over F_{p}"
        )
    ident = linalg.identity(rows.shape[0], p)
    out = []
    for lam in sorted(set(roots)):
        power = linalg.matpow((restr - lam * ident) % p, roots.count(lam), p)
        sub = (linalg.nullspace(power, p) @ rows) % p
        out.append((sub, {**nil_by_mat, mat.tobytes(): lam == 0}))
    return out


@dataclass(frozen=True)
class OracleRecord:
    n: int
    predicted: int
    parts: tuple  # per component: (m, m_prime, m_dfull) split


def decomposition_oracle_per_index(components, X, p):
    """counting.decomposition_oracle one index at a time, as OracleRecords.

    Factors each n < X coprime to p and, on each pure component, splits
    n = m * m' * m'' (m'' square-full, m' the exponent-one primes in
    nilpotent classes, m those in invertible classes), then applies
    T_{m''}, T_{m'} and T_m to f's coordinates prime by prime in
    increasing q and reads a_1.
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
        for module, cache in zip(components, caches):
            value, split = _component_prediction(module, fac, cache)
            total = (total + value) % p
            parts.append(split)
        records.append(OracleRecord(n, total, tuple(parts)))
    return records


def _component_prediction(module, fac, cache):
    report = module.report
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
            if e == 1 and q % module.conductor in report.nilpotent_classes:
                m_prime *= q
                v = linalg.matvec(v, module.prime_power_matrix(q % module.conductor, 1), p)
                if not v.any():
                    break
    if v.any():
        # invertible exponent-one primes, then the a_1 functional
        for q, e in fac.items():
            if e == 1 and q % module.conductor in report.invertible_classes:
                m *= q
                v = linalg.matvec(v, module.prime_power_matrix(q % module.conductor, 1), p)
    value = module.coefficient(v, 1) if v.any() else 0
    return value, (m, m_prime, m_dfull)


def rref_row_by_row(mat, p):
    """linalg.rref clearing each pivot column one row at a time."""
    m = mat.astype(np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if len(nz) == 0:
            continue
        i = r + nz[0]
        m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for j in range(rows):
            if j != r and m[j, c]:
                m[j] = (m[j] - m[j, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def closure_row_basis(seed, matrices, p, max_dim):
    """module._closure with one solve_in_rowspan per image and row_basis per new row."""
    rows = [seed % p]
    span_rref = linalg.row_basis(np.stack(rows), p)
    queue = [rows[0]]
    while queue:
        v = queue.pop()
        for mat in matrices:
            w = linalg.matvec(v, mat, p)
            if not w.any() or solve_in_rowspan(span_rref, w, p) is not None:
                continue
            rows.append(w)
            queue.append(w)
            span_rref = linalg.row_basis(np.stack(rows), p)
            if len(rows) > max_dim:
                raise SpanNotClosedError(f"closure exceeded the dimension cap {max_dim}")
    return np.stack(rows)


def det(mat, p):
    """Determinant mod p by Gaussian elimination, one row at a time."""
    m = mat.astype(np.int64) % p
    n = m.shape[0]
    d = 1
    for c in range(n):
        nz = np.flatnonzero(m[c:, c])
        if len(nz) == 0:
            return 0
        i = c + nz[0]
        if i != c:
            m[[c, i]] = m[[i, c]]
            d = -d
        d = d * int(m[c, c]) % p
        inv = pow(int(m[c, c]), p - 2, p)
        for j in range(c + 1, n):
            if m[j, c]:
                m[j] = (m[j] - m[j, c] * inv * m[c]) % p
    return d % p


def invertible_int64(mats, p):
    """module._invertible with int64 entries, as it was before the int32 elimination."""
    m = mats.astype(np.int64) % p
    n, r, _ = m.shape
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    stack = np.arange(n)
    for c in range(r):
        nonzero = m[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        pivot_row = c + nonzero.argmax(axis=1)
        pivot = m[stack, pivot_row]
        m[stack, pivot_row] = m[:, c]
        m[:, c] = pivot
        factors = m[:, c + 1 :, c] * inverse[pivot[:, c]][:, None] % p
        m[:, c + 1 :] = (m[:, c + 1 :] - factors[:, :, None] * pivot[:, None, :]) % p
    return ok


def status_of(mat, p):
    """Status of one matrix: M^r == 0 by matpow, then its determinant."""
    if not linalg.matpow(mat, mat.shape[0], p).any():
        return NILPOTENT
    if det(mat, p) != 0:
        return INVERTIBLE
    return MIXED


def nilpotent_matrices_per_matrix(module):
    """module.nilpotent_matrices, each candidate tested by status_of."""
    if module.conductor:
        source = [module.prime_power_matrix(u, 1) for u in module.report.statuses]
    else:
        source = module.per_prime.values()
    distinct = {mat.tobytes(): mat for mat in source}
    keys = [key for key in sorted(distinct) if status_of(distinct[key], module.p) == NILPOTENT]
    return [distinct[key] for key in keys]


def class_table_by_recurrence(per_prime, p, weight, r):
    """module._detect_conductor by walking the trace recurrence through every class.

    For each p^e, e <= MAX_CONDUCTOR_EXPONENT, the first sampled prime g
    that generates the units gives M_0 = 2*Id, M_1 = T_g and
    M_{j+1} = M_j T_g - d M_{j-1} for j < phi, all kept, and the table
    {g^j: M_j}.  Returns (conductor, table, None) or (None, None, reason),
    with the package's reasons.
    """
    two_id = 2 * linalg.identity(r, p) % p
    failure = None
    for exponent in range(1, MAX_CONDUCTOR_EXPONENT + 1):
        cand = p**exponent
        phi = cand - cand // p
        gen = None
        for ell in per_prime:
            if multiplicative_order(ell % cand, cand) == phi:
                gen = ell
                break
        if gen is None:
            failure = f"modulus {cand}: no sampled prime generates the unit classes"
            continue
        g = gen % cand
        d = ell_s_ell(g, weight, p)
        mats = [two_id, per_prime[gen]]
        for _ in range(phi - 1):
            mats.append((mats[-1] @ mats[1] - d * mats[-2]) % p)
        if (mats[phi] != two_id).any():
            failure = (
                f"modulus {cand}: the class table of prime {gen} does not close "
                f"cyclically onto 2*Id"
            )
            continue
        table = {pow(g, j, cand): mats[j] for j in range(phi)}
        violation = None
        for ell, mat in per_prime.items():
            if (table[ell % cand] != mat).any():
                violation = ell
                break
        if violation is not None:
            failure = (
                f"modulus {cand}: primes {gen} and {violation} give inconsistent "
                f"class actions"
            )
            continue
        return cand, table, None
    return None, None, f"no conductor candidate passed ({failure})"


def nilpotence_order_bfs(module):
    """module.strict_nilpotence_order as a breadth-first search over distinct vectors.

    Level j holds every distinct nonzero vector reached from the seed by j
    nilpotent actions; h is the last nonempty level.
    """
    mats = nilpotent_matrices_per_matrix(module)
    vec = module.f_coords
    level = {vec.tobytes(): vec}
    h = 0
    while True:
        nxt = {}
        for v in level.values():
            for m in mats:
                w = linalg.matvec(v, m, module.p)
                if w.any():
                    nxt[w.tobytes()] = w
        if not nxt:
            return h
        level = nxt
        h += 1
        if h > module.dim:
            raise InternalInvariantError("nilpotence order exceeded the module dimension")


def nilpotent_images_by_multisets(module, source, height):
    """Image bytes -> ordered class-tuple count, over height-fold nilpotent products.

    The former route of densities._nilpotent_walk: one chain of
    class matrices per multiset of nilpotent classes, in the multiset's
    order, weighted by the multinomial count of its orderings (which
    assumes the class matrices commute); a chain that turns zero drops out.
    """
    nil = module.report.nilpotent_classes
    out = {}
    for multiset in combinations_with_replacement(nil, height):
        v = np.asarray(source, dtype=np.int64) % module.p
        for u in multiset:
            v = linalg.matvec(v, module.prime_power_matrix(u, 1), module.p)
            if not v.any():
                break
        else:
            perms = math.factorial(height)
            for u in set(multiset):
                perms //= math.factorial(multiset.count(u))
            out[v.tobytes()] = out.get(v.tobytes(), 0) + perms
    return out
