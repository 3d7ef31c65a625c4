# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled implementations of the hot kernels.

Same contracts as _kernels_py: uint8 coefficient arrays with entries
reduced mod p (p < 256), accumulation in wide integers with chunked
reduction so nothing overflows.  There is no compiled dense product:
``kernels.mul_dense`` is the NumPy FFT on every backend.
"""

import numpy as np

cimport numpy as cnp

cnp.import_array()

BACKEND = "cython"


def mul_sparse(dense, exps, coefs, int p, Py_ssize_t out_len):
    """Truncated product of a dense array by a sparse one mod p.

    Scaled copies of the dense operand are precomputed once per distinct
    coefficient value, so the inner loop is a plain vector add.
    """
    cdef cnp.ndarray[cnp.uint8_t, ndim=1] dd = np.ascontiguousarray(dense[:out_len], dtype=np.uint8)
    arr_e = np.ascontiguousarray(exps, dtype=np.int64)
    arr_c = np.ascontiguousarray(coefs, dtype=np.uint8)
    if arr_e.shape[0] > 1 and (np.diff(arr_e) <= 0).any():
        order = np.argsort(arr_e, kind="stable")
        arr_e, arr_c = arr_e[order], arr_c[order]
    cdef cnp.ndarray[cnp.int64_t, ndim=1] ee = arr_e
    cdef cnp.ndarray[cnp.uint8_t, ndim=1] cc = arr_c
    cdef cnp.ndarray[cnp.uint32_t, ndim=1] acc = np.zeros(out_len, dtype=np.uint32)
    cdef cnp.ndarray[cnp.uint8_t, ndim=1] out = np.zeros(out_len, dtype=np.uint8)
    cdef Py_ssize_t nd = dd.shape[0]
    cdef Py_ssize_t nt = ee.shape[0]
    cdef Py_ssize_t t, i, e, lo, hi, start, end, done
    cdef unsigned int c
    cdef unsigned int* pa = <unsigned int*> acc.data
    cdef unsigned char* pd = <unsigned char*> dd.data
    cdef long chunk = 4294967295L // ((p - 1) * (p - 1) + 1) - 1
    cdef Py_ssize_t block = 1 << 16
    if chunk < 1:
        chunk = 1
    # process the accumulator in cache-resident blocks; exponents ascend,
    # so each block stops scanning terms at the first exponent beyond it
    lo = 0
    while lo < out_len:
        hi = lo + block
        if hi > out_len:
            hi = out_len
        done = 0
        for t in range(nt):
            e = ee[t]
            if e >= hi:
                break
            start = lo if lo > e else e
            end = e + nd
            if end > hi:
                end = hi
            c = cc[t]
            for i in range(start, end):
                pa[i] += c * <unsigned int> pd[i - e]
            done += 1
            if done == chunk:
                for i in range(lo, hi):
                    pa[i] = pa[i] % <unsigned int> p
                done = 0
        lo = hi
    for i in range(out_len):
        out[i] = <unsigned char> (acc[i] % <unsigned int> p)
    return out


def sigma_sieve(Py_ssize_t prec, int e, int p):
    """sigma_e(n) mod p for 0 <= n < prec (index 0 set to 0)."""
    cdef cnp.ndarray[cnp.uint32_t, ndim=1] acc = np.zeros(prec, dtype=np.uint32)
    cdef cnp.ndarray[cnp.uint8_t, ndim=1] out = np.zeros(prec, dtype=np.uint8)
    cdef Py_ssize_t d, m, done
    cdef unsigned int dp, base
    cdef int t
    cdef long chunk = 4294967295L // p - 1
    done = 0
    for d in range(1, prec):
        base = <unsigned int> (d % p)
        dp = 1
        for t in range(e):
            dp = dp * base % <unsigned int> p
        if dp != 0:
            m = d
            while m < prec:
                acc[m] += dp
                m += d
        done += 1
        if done == chunk:
            for m in range(prec):
                acc[m] = acc[m] % <unsigned int> p
            done = 0
    for m in range(prec):
        out[m] = <unsigned char> (acc[m] % <unsigned int> p)
    return out


def count_segments(table, bounds, int p):
    """Cumulative nonzero and per-value counts at each (increasing) bound."""
    cdef cnp.ndarray[cnp.uint8_t, ndim=1] tt = np.ascontiguousarray(table, dtype=np.uint8)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] bb = np.ascontiguousarray(bounds, dtype=np.int64)
    cdef Py_ssize_t k = bb.shape[0]
    cdef cnp.ndarray[cnp.int64_t, ndim=1] totals = np.zeros(k, dtype=np.int64)
    cdef cnp.ndarray[cnp.int64_t, ndim=2] by_value = np.zeros((k, p), dtype=np.int64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] cum = np.zeros(p, dtype=np.int64)
    cdef Py_ssize_t prev = 0, i, n
    cdef long long nz = 0
    for i in range(k):
        for n in range(prev, bb[i]):
            cum[tt[n]] += 1
            if tt[n] != 0:
                nz += 1
        prev = bb[i]
        totals[i] = nz
        by_value[i, :] = cum
    return totals, by_value


def count_segments_masked(table, mask, bounds, int p):
    """Same as count_segments, restricted to indices where mask is nonzero."""
    cdef cnp.ndarray[cnp.uint8_t, ndim=1] tt = np.ascontiguousarray(table, dtype=np.uint8)
    cdef cnp.ndarray[cnp.uint8_t, ndim=1] mm = np.ascontiguousarray(mask, dtype=np.uint8)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] bb = np.ascontiguousarray(bounds, dtype=np.int64)
    cdef Py_ssize_t k = bb.shape[0]
    cdef cnp.ndarray[cnp.int64_t, ndim=1] totals = np.zeros(k, dtype=np.int64)
    cdef cnp.ndarray[cnp.int64_t, ndim=2] by_value = np.zeros((k, p), dtype=np.int64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] cum = np.zeros(p, dtype=np.int64)
    cdef Py_ssize_t prev = 0, i, n
    cdef long long nz = 0
    for i in range(k):
        for n in range(prev, bb[i]):
            if mm[n] != 0:
                cum[tt[n]] += 1
                if tt[n] != 0:
                    nz += 1
        prev = bb[i]
        totals[i] = nz
        by_value[i, :] = cum
    return totals, by_value
