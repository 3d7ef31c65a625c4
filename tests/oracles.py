"""Independent exact oracles used to freeze expected values.

Everything here is deliberately computed by a different route than the
package: integer convolutions term by term, direct divisor sums, Fraction
Gaussian elimination.  Slow but unarguable.  The package's former routes
for dense products, divisor sums, powers, cusp-form powers, square-full
sums, sparse products and the decomposition oracle are kept here as
differential references for the fast paths that replaced them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from modpforms import linalg
from modpforms.series import QSeries, one, zero


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


def sigma_sieve_walk(prec, e, p):
    """sigma_e(n) mod p for 0 <= n < prec by adding d^e to every multiple of d."""
    acc = np.zeros(prec, dtype=np.int64)
    for d in range(1, prec):
        acc[d::d] += pow(d, e, p)
    return (acc % p).astype(np.uint8)


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
