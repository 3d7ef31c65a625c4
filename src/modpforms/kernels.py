"""The q-series kernels, in NumPy.

Every function works on uint8 coefficient arrays (entries reduced mod p,
p < 256).  Accumulation is done in wider integer dtypes and reduced mod p
in chunks sized so no intermediate can overflow.

Dense products are exact floating-point FFT convolutions of the centred
residues, guarded by Percival's rounding-error bound: O(n log n) instead of
schoolbook O(n m).  The divisor-sum sieve walks divisor pairs (d, m) with
d <= m, so it takes about sqrt(N) vectorised steps instead of N.
"""

import math

import numpy as np

from .errors import InternalInvariantError

# perfbench/job.py reads this and reports it with every job
BACKEND = "numpy"

# float64 unit roundoff; also taken as the error of the FFT's precomputed
# roots of unity (Percival's beta)
_EPS = 2.0**-53


def fft_error_bound(norm_a, norm_b, size):
    """Percival's bound on the max error of a float64 FFT convolution.

    For vectors of 2-norms norm_a and norm_b convolved through FFTs of
    length size = 2^n, every output entry is within
    |a| |b| ((1+eps)^{3n} (1+eps sqrt 5)^{3n+1} (1+beta)^{3n} - 1)
    of the exact integer (Percival 2003, Math. Comp. 72, Theorem 5.1).
    """
    n = (size - 1).bit_length()
    # (1+eps)^{3n} (1+beta)^{3n} with beta = eps
    log_growth = 6 * n * math.log1p(_EPS) + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
    return norm_a * norm_b * math.expm1(log_growth)


def mul_dense(a, b, p, out_len):
    """Truncated product of two dense coefficient arrays mod p.

    The residues are centred into (-p/2, p/2) and convolved exactly by a
    float64 real FFT of power-of-two length >= n + m - 1, then rounded and
    reduced.  The rounding error is checked against Percival's bound first.
    """
    n = min(len(a), out_len)
    m = min(len(b), out_len)
    x = _centred(a[:n], p)
    y = _centred(b[:m], p)
    size = 1 << (n + m - 2).bit_length()
    # einsum rather than a BLAS dot, whose thread start-up costs milliseconds
    bound = fft_error_bound(
        math.sqrt(np.einsum("i,i", x, x)), math.sqrt(np.einsum("i,i", y, y)), size
    )
    if not bound < 0.5:
        raise InternalInvariantError(
            f"FFT rounding bound {bound:.3g} is not below 1/2 at length {size}"
        )
    # np.fft is loaded on first use, so importing the package does not pay for it
    spectrum = np.fft.rfft(x, size)
    spectrum *= np.fft.rfft(y, size)
    k = min(out_len, n + m - 1)
    prod = np.fft.irfft(spectrum, size)[:k]
    out = np.zeros(out_len, dtype=np.uint8)
    out[:k] = np.rint(prod).astype(np.int64) % p
    return out


def _centred(residues, p):
    """Residues in [0, p) as float64 values in (-p/2, p/2)."""
    x = residues.astype(np.float64)
    x[x > p // 2] -= p
    return x


def mul_sparse(dense, exps, coefs, p, out_len):
    """Truncated product of a dense array by a sparse one (exponent/coef lists) mod p."""
    acc = np.zeros(out_len, dtype=np.uint32)
    d32 = dense[:out_len].astype(np.uint32)
    # chunk so that chunk_terms * (p-1)^2 stays below 2^32
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


def sigma_sieve(prec, e, p):
    """sigma_e(n) mod p for 0 <= n < prec (index 0 set to 0).

    Walks the divisor pairs n = d*m with d <= m: the step for d adds d^e
    to every such n and m^e to those with m > d, so d only runs up to
    sqrt(prec).  m^e mod p is read from a table indexed by m mod p.
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


def count_segments(table, bounds, p):
    """Cumulative nonzero counts and per-value counts at each bound.

    ``bounds`` must be increasing.  Returns (totals, by_value) with
    totals[i] = #{n < bounds[i] : table[n] != 0} and
    by_value[i, v] = #{n < bounds[i] : table[n] == v}.
    """
    k = len(bounds)
    totals = np.zeros(k, dtype=np.int64)
    by_value = np.zeros((k, p), dtype=np.int64)
    cum = np.zeros(p, dtype=np.int64)
    prev = 0
    for i, b in enumerate(bounds):
        seg = table[prev:b]
        cum += np.bincount(seg, minlength=p)[:p]
        by_value[i] = cum
        totals[i] = cum[1:].sum()
        prev = b
    return totals, by_value


def count_segments_masked(table, mask, bounds, p):
    """Same as count_segments but restricted to indices where mask is nonzero."""
    k = len(bounds)
    totals = np.zeros(k, dtype=np.int64)
    by_value = np.zeros((k, p), dtype=np.int64)
    cum = np.zeros(p, dtype=np.int64)
    prev = 0
    for i, b in enumerate(bounds):
        seg = table[prev:b][mask[prev:b] != 0]
        cum += np.bincount(seg, minlength=p)[:p]
        by_value[i] = cum
        totals[i] = cum[1:].sum()
        prev = b
    return totals, by_value
