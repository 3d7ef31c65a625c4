"""The q-series kernels, in NumPy.

Every function works on uint8 coefficient arrays (entries reduced mod p,
p < 256).  Accumulation is done in wider integer dtypes and reduced mod p
in chunks sized so no intermediate can overflow, or in float64 sums that
stay exact integers.

Dense products are exact floating-point FFT convolutions of the centred
residues, guarded by Percival's rounding-error bound: O(n log n) instead of
schoolbook O(n m).  The divisor-sum sieve walks divisor pairs (d, m) with
d <= m, so it takes about sqrt(N) vectorised steps instead of N.

Linear combinations of coefficient rows mod p (weight bases, module
series) go through combine, which sums scaled uint8 rows in the same
uint16/uint32 accumulators as the sparse product's shifted adds
(_accumulator), so no full-length row is widened to int64.
"""

import functools
import math

import numpy as np

from .errors import InternalInvariantError

# perfbench/job.py reads this and reports it with every job
BACKEND = "numpy"

# Sparse products take pair sums when the dense operand has at most
# out_len / _PAIR_RATIO nonzero entries, and shifted adds otherwise.  Pair
# sums cost about 10 ns per pair and shifted adds about 0.1 ns per entry and
# term, plus fixed costs per call.  Over the recorded sparse products of the
# three benchmark workloads (2-CPU x86-64, NumPy 2.4) the summed kernel time
# is flat for ratios 32 to 128 and lowest at 64 (h_table 124.3 ms; 148.4 ms
# at 8, 149.4 ms at 256; scan 337.7 ms, 1221 ms at 8).
_PAIR_RATIO = 64

# (term, nonzero entry) pairs per np.bincount call: the block's int64 indices
# and float64 weights take 4 MB whatever the operand sizes
_PAIR_BLOCK = 1 << 18

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
    """Truncated product of a dense array by a sparse one (exponent/coef lists) mod p.

    When the dense operand is itself sparse (at most out_len / _PAIR_RATIO
    nonzero entries), every (term, nonzero entry) pair is summed into its
    output index by np.bincount; otherwise each term adds a shifted,
    scaled copy of the dense operand.  Either way at most three arrays of
    out_len entries are live, whatever the number of distinct coefficients.
    """
    exps = np.asarray(exps, dtype=np.int64)
    keep = exps < out_len
    exps, coefs = exps[keep], np.asarray(coefs)[keep]
    dense = dense[:out_len]
    if np.count_nonzero(dense) * _PAIR_RATIO <= out_len:
        acc = _pair_sums(dense, exps, coefs, p, out_len)
    else:
        acc = _shifted_adds(dense, exps, coefs, p, out_len)
    if acc.dtype == np.uint16:
        return np.take(_residue_table(p), acc)
    acc %= p
    return acc.astype(np.uint8)


def _pair_sums(dense, exps, coefs, p, out_len):
    """The product's exact integer coefficients, as a bincount over index pairs.

    Each (term, nonzero entry) pair adds at most (p-1)^2 and an output
    index receives at most one pair per term, so the float64 sums are exact
    integers, returned in uint16 when that holds them and in int64 otherwise.
    """
    # np.flatnonzero scans a bool mask several times faster than uint8
    nonzero = np.flatnonzero(dense != 0)
    values = dense[nonzero].astype(np.float64)
    order = np.argsort(exps, kind="stable")
    exps, weights = exps[order], coefs[order].astype(np.float64)
    # term i pairs with the first widths[i] nonzero entries below out_len;
    # exponents ascend, so widths descend
    widths = np.searchsorted(nonzero, out_len - exps)
    exact = np.uint16 if len(exps) * (p - 1) ** 2 < 2**16 else np.int64
    acc = None
    start = 0
    while start < len(exps) and widths[start]:
        width = int(widths[start])
        stop = start + max(1, _PAIR_BLOCK // width)
        block = (exps[start:stop], weights[start:stop], nonzero[:width], values[:width], out_len)
        if acc is None:
            acc = _pair_block_sums(*block)
        else:
            acc += _pair_block_sums(*block)
        start = stop
    if acc is None:
        return np.zeros(out_len, dtype=exact)
    return acc[:out_len].astype(exact)


def _pair_block_sums(exps, weights, nonzero, values, out_len):
    """Sums over the pairs of the given terms and nonzero entries, in out_len + 1 bins.

    The last bin collects the pairs past out_len.
    """
    idx = exps[:, None] + nonzero[None, :]
    np.minimum(idx, out_len, out=idx)
    w = weights[:, None] * values[None, :]
    return np.bincount(idx.ravel(), weights=w.ravel(), minlength=out_len + 1)


def _shifted_adds(dense, exps, coefs, p, out_len):
    """The product's coefficients up to multiples of p, one shifted add per term.

    Terms run in coefficient order, so one buffer holds c * dense for the
    current coefficient.  Entries accumulate as _accumulator(p) says.
    """
    dt, cadence = _accumulator(p)
    wide = dense.astype(dt)
    scaled = np.empty_like(wide)
    acc = np.zeros(out_len, dtype=dt)
    order = np.argsort(coefs, kind="stable")
    current = None
    for i, (e, c) in enumerate(zip(exps[order].tolist(), coefs[order].tolist()), 1):
        if c != current:
            np.multiply(wide, c, out=scaled)
            current = c
        acc[e : e + len(wide)] += scaled[: out_len - e]
        if i % cadence == 0:
            acc %= p
    return acc


def _accumulator(p):
    """The dtype and reduction cadence for sums of products of two residues mod p.

    Entries accumulate in uint16 when 255 terms of (p-1)^2 fit (p <= 17)
    and in uint32 otherwise.  An entry reduced mod p and then given
    ``cadence`` more terms stays below the dtype's maximum, so reducing
    every ``cadence`` terms keeps every entry from wrapping.
    """
    dt = np.uint16 if (p - 1) ** 2 <= 256 else np.uint32
    cadence = (int(np.iinfo(dt).max) - (p - 1)) // (p - 1) ** 2
    return dt, cadence


def combine(coefs, rows, p):
    """(coefs @ rows) mod p as uint8, without widening the rows to int64.

    coefs is an m x r matrix (or a vector of r) of integers, taken mod p;
    rows holds r uint8 rows of residues of equal length, as a 2-D array, a
    strided view or a list.  Each output row sums its scaled rows in the
    accumulator of _accumulator(p), skipping zero coefficients, and is
    reduced mod p every cadence terms and at the end.  The result has the
    shape of coefs @ rows.
    """
    coefs = np.asarray(coefs, dtype=np.int64) % p
    matrix = np.atleast_2d(coefs)
    if matrix.shape[1] != len(rows):
        raise ValueError(f"{matrix.shape[1]} coefficients per output row for {len(rows)} rows")
    dt, cadence = _accumulator(p)
    n = len(rows[0])
    out = np.empty((matrix.shape[0], n), dtype=np.uint8)
    acc = np.empty(n, dtype=dt)
    scaled = np.empty(n, dtype=dt)
    for i, row_coefs in enumerate(matrix.tolist()):
        acc[:] = 0
        terms = 0
        for c, row in zip(row_coefs, rows):
            if c:
                np.multiply(row, dt(c), out=scaled)
                acc += scaled
                terms += 1
                if terms % cadence == 0:
                    acc %= p
        if dt == np.uint16:
            np.take(_residue_table(p), acc, out=out[i])
        else:
            np.remainder(acc, p, out=out[i], casting="unsafe")
    return out if coefs.ndim == 2 else out[0]


@functools.lru_cache(maxsize=None)
def _residue_table(p):
    """n mod p for every n < 2^16: reduces a uint16 array in one lookup, twice as fast as %."""
    # 0, 1, ..., p-1 repeated: (np.arange(2**16) % p) would raise the peak RSS by 1 MB
    table = np.tile(np.arange(p, dtype=np.uint8), -(-(2**16) // p))[: 2**16]
    table.flags.writeable = False
    return table


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
    """Same as count_segments but restricted to indices where mask is nonzero.

    ``mask`` has the length of ``table``.
    """
    kept = np.array([np.count_nonzero(mask[:b]) for b in bounds], dtype=np.int64)
    return count_segments(table[mask != 0], kept, p)
