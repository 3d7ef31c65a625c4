"""The q-series kernels, in NumPy.

Every function works on uint8 coefficient arrays (entries reduced mod p,
p < 256).  Accumulation is done in wider integer dtypes and reduced mod p
in chunks sized so no intermediate can overflow, or in float64 sums that
stay exact integers.

Dense products are exact floating-point FFT convolutions of the centred
residues, guarded by Percival's rounding-error bound: O(n log n) instead of
schoolbook O(n m); a square takes one transform.  Sparse products by a
sparse operand sum their index pairs one cache-sized output window at a
time, so the sums never take an array of the product's length, and a
square takes each unordered pair once.  The divisor-sum sieve walks
divisor pairs (d, m) with d <= m: one strided add per d adds d^e + m^e to
every n = d*m at once, so it takes about sqrt(N) vectorised steps instead
of N, in a uint16 accumulator.

The checkpoint counts tally each block of the table with one np.bincount
over the value plus p times a 0/1 mask bit, so the counts over all indices
and over the masked ones (the square-free indices) come from one pass.

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

# output indices per pair-sum window: its float64 bins take 512 KB, which
# stay in a 2 MB L2 cache (2^15 and 2^17 were no faster on the Delta mod 3
# and mod 7 products at 10^6 and 10^7)
_PAIR_WINDOW = 1 << 16

# (term, nonzero entry) pairs per np.bincount call: the chunk's int64 entry
# and output indices and float64 weights take 2 MB whatever the operand sizes
_PAIR_BLOCK = 1 << 16

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
    When a and b hold the same residues (compared by value, as _pair_sums
    compares its operands), the product is a square: one rfft, whose
    spectrum is squared.
    """
    n = min(len(a), out_len)
    m = min(len(b), out_len)
    square = np.array_equal(a[:n], b[:m])
    x = _centred(a[:n], p)
    y = x if square else _centred(b[:m], p)
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
    spectrum *= spectrum if square else np.fft.rfft(y, size)
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
    nonzero entries), the (term, nonzero entry) pairs are summed into their
    output indices one window at a time (_pair_sums): the exact sums and
    the uint8 result are the only arrays of out_len entries.  Otherwise each
    term adds a shifted, scaled copy of the dense operand, with at most
    three arrays of out_len entries live, whatever the number of distinct
    coefficients.
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
        return _reduce(acc, p, np.empty(out_len, dtype=np.uint8))
    acc %= p
    return acc.astype(np.uint8)


def _pair_sums(dense, exps, coefs, p, out_len):
    """The product's exact integer coefficients, summed over index pairs one window at a time.

    The output is filled _PAIR_WINDOW indices at a time.  For each window,
    two searchsorted calls on the sorted nonzero positions give every
    term the run of entries whose pairs land in it; the pairs are built
    at most _PAIR_BLOCK at a time and summed by np.bincount into float64
    bins of the window's size.  When the terms are the nonzero entries of
    dense (a square), term i pairs only with the entries past it, at twice
    the weight, and with itself once, so every unordered pair is taken
    once.  Each (term, nonzero entry) pair adds at most (p-1)^2 and an
    output index receives at most one pair per term, so the sums are exact
    integers, returned in uint16 when that holds them and in int64
    otherwise.  Nothing but the output has out_len entries.
    """
    # np.flatnonzero scans a bool mask several times faster than uint8
    nonzero = np.flatnonzero(dense != 0)
    values = dense[nonzero].astype(np.float64)
    order = np.argsort(exps, kind="stable")
    exps, weights = exps[order], coefs[order].astype(np.float64)
    out = np.zeros(out_len, dtype=np.uint16 if len(exps) * (p - 1) ** 2 < 2**16 else np.int64)
    square = np.array_equal(exps, nonzero) and np.array_equal(weights, values)
    if square:
        past_diagonal = np.arange(1, len(exps) + 1)
        diagonal, diagonal_weights = 2 * exps, weights * weights
        weights = 2 * weights
    for lo in range(0, out_len, _PAIR_WINDOW):
        hi = min(lo + _PAIR_WINDOW, out_len)
        # only the terms below hi reach the window; exponents ascend
        terms = exps[: np.searchsorted(exps, hi)]
        starts = np.searchsorted(nonzero, lo - terms)
        stops = np.searchsorted(nonzero, hi - terms)
        if square:
            np.maximum(starts, past_diagonal[: len(terms)], out=starts)
            np.maximum(stops, starts, out=stops)
        bins = _window_sums(terms - lo, weights, starts, stops, nonzero, values, hi - lo)
        if square:
            first, last = np.searchsorted(diagonal, (lo, hi))
            bins[diagonal[first:last] - lo] += diagonal_weights[first:last]
        out[lo:hi] = bins
    return out


def _window_sums(offsets, weights, starts, stops, nonzero, values, width):
    """Sums over the pairs (term i, entry j) with starts[i] <= j < stops[i], in width bins.

    offsets[i] + nonzero[j] is the pair's bin.  Consecutive terms are
    taken together while their pairs number at most _PAIR_BLOCK (a term
    with more is taken alone; it has at most width).
    """
    counts = stops - starts
    ends = np.cumsum(counts)
    bins = None
    first = 0
    while first < len(counts):
        base = int(ends[first - 1]) if first else 0
        last = max(first + 1, int(np.searchsorted(ends, base + _PAIR_BLOCK, side="right")))
        run = counts[first:last]
        total = int(ends[last - 1]) - base
        if total:
            # the entry of each pair: its run's start plus its place in the run
            j = np.repeat(starts[first:last] - (ends[first:last] - run - base), run)
            j += np.arange(total)
            idx = nonzero[j]
            idx += np.repeat(offsets[first:last], run)
            w = values[j]
            del j
            w *= np.repeat(weights[first:last], run)
            sums = np.bincount(idx, weights=w, minlength=width)
            if bins is None:
                bins = sums
            else:
                bins += sums
        first = last
    return np.zeros(width) if bins is None else bins


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
            _reduce(acc, p, out[i])
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


# sigma_sieve's accumulator; its reduction cadence follows from the dtype's maximum
_SIEVE_ACC = np.uint16


def sigma_sieve(prec, e, p):
    """sigma_e(n) mod p for 0 <= n < prec (index 0 set to 0).

    Walks the divisor pairs n = d*m with d <= m, d^2 < prec: the step for d
    is one strided add of d^e + m^e to n = d*m for m = d, d+1, ..., read
    from a row of r^e + (m mod p)^e for the residue r of d.  The d run
    through one residue class mod p at a time, so one such row is alive.  The add at
    n = d^2 counts d^e twice, so the accumulator starts at -d^e mod p
    there.  Every entry stays below p + 2(p-1) * steps, so it is reduced
    through _residue_table every ``cadence`` steps and fits _SIEVE_ACC.
    """
    top = math.isqrt(max(prec - 1, 0))
    powers = np.array([pow(r, e, p) for r in range(p)], dtype=np.uint16)
    acc = np.zeros(prec, dtype=_SIEVE_ACC)
    d = np.arange(1, top + 1)
    acc[d * d] = (p - powers[d % p]) % p
    cofactor_powers = np.tile(powers.astype(np.uint8), -(-prec // p))[:prec]
    row = np.empty(prec, dtype=np.uint16)
    cadence = (int(np.iinfo(_SIEVE_ACC).max) - (p - 1)) // (2 * (p - 1))
    steps = 0
    for r in range(p):
        first = r or p
        if first > top:
            continue
        # the longest add in the class is the first one's, to m = (prec-1) // first
        width = (prec - 1) // first + 1
        np.add(cofactor_powers[:width], powers[r], out=row[:width])
        for d in range(first, top + 1, p):
            acc[d * d :: d] += row[d : (prec - 1) // d + 1]
            steps += 1
            if steps % cadence == 0:
                _reduce(acc, p, acc)
    del row
    return _reduce(acc, p, np.empty(prec, dtype=np.uint8))


# entries per np.take or np.bincount call on a full-length array: both widen
# their indices to intp, 512 KB a call whatever the array length
_INDEX_BLOCK = 1 << 16


def _reduce(acc, p, out):
    """Write acc mod p into out (acc itself allowed), one _residue_table lookup per block."""
    table = _residue_table(p)
    for lo in range(0, len(acc), _INDEX_BLOCK):
        out[lo : lo + _INDEX_BLOCK] = np.take(table, acc[lo : lo + _INDEX_BLOCK])
    return out


def count_segments(table, bounds, p, mask=None):
    """Cumulative nonzero counts and per-value counts at each bound.

    ``bounds`` must be increasing.  Returns (totals, by_value) with
    totals[i] = #{n < bounds[i] : table[n] != 0} and
    by_value[i, v] = #{n < bounds[i] : table[n] == v}.

    Given a 0/1 byte ``mask`` at least bounds[-1] long, the same pass also
    counts over the indices where it is 1 and returns (totals, by_value,
    kept_totals, kept_by_value).  Each block of at most _INDEX_BLOCK
    indices is one np.bincount of the key table[n] + p * mask[n] (uint8
    for p < 128, uint16 above): bins below p count the indices outside the
    mask and bins from p those inside.
    """
    width = p if mask is None else 2 * p
    if mask is not None:
        key_dtype = np.uint8 if width <= 256 else np.uint16
        key = np.empty(min(_INDEX_BLOCK, int(bounds[-1])), dtype=key_dtype)
    tallies = np.empty((len(bounds), width), dtype=np.int64)
    cum = np.zeros(width, dtype=np.int64)
    prev = 0
    for i, b in enumerate(int(b) for b in bounds):
        for lo in range(prev, b, _INDEX_BLOCK):
            hi = min(lo + _INDEX_BLOCK, b)
            if mask is None:
                block = table[lo:hi]
            else:
                block = key[: hi - lo]
                np.multiply(mask[lo:hi], p, out=block)
                block += table[lo:hi]
            cum += np.bincount(block, minlength=width)
        tallies[i] = cum
        prev = b
    if mask is None:
        return tallies[:, 1:].sum(axis=1), tallies
    kept = tallies[:, p:]
    by_value = tallies[:, :p] + kept
    return by_value[:, 1:].sum(axis=1), by_value, kept[:, 1:].sum(axis=1), kept


def count_segments_masked(table, mask, bounds, p):
    """count_segments over the indices where the 0/1 byte mask is 1 only."""
    return count_segments(table, bounds, p, mask)[2:]
