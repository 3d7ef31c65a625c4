import math

import numpy as np
import pytest

from modpforms import kernels, series
from modpforms.errors import InternalInvariantError

from oracles import mul_dense_convolve, sigma_sieve_walk


def _random_case(rng, p, n):
    return rng.integers(0, p, size=n, dtype=np.uint8)


class TestKernelContracts:
    def test_mul_dense_truncation(self):
        a = np.array([1, 2, 3], dtype=np.uint8)
        b = np.array([4, 5], dtype=np.uint8)
        out = kernels.mul_dense(a, b, 7, 4)
        # (1 + 2q + 3q^2)(4 + 5q) = 4 + 13q + 22q^2 + 15q^3
        assert list(out) == [4, 13 % 7, 22 % 7, 15 % 7]

    def test_sigma_small_values(self):
        out = kernels.sigma_sieve(7, 3, 7)
        expect = [0] + [sum(d**3 for d in range(1, n + 1) if n % d == 0) % 7 for n in range(1, 7)]
        assert list(out) == expect

    def test_count_segments_cumulative(self):
        table = np.array([0, 1, 2, 0, 1], dtype=np.uint8)
        totals, by_value = kernels.count_segments(table, np.array([2, 5]), 3)
        assert list(totals) == [1, 3]
        assert by_value[1][1] == 2 and by_value[1][2] == 1

        # a random table and mask, against np.bincount over each prefix
        p = 7
        rng = np.random.default_rng(2)
        table = _random_case(rng, p, 5000)
        mask = rng.integers(0, 2, size=5000).astype(np.uint8)
        bounds = np.array([1, 100, 2500, 5000], dtype=np.int64)
        for got, keep in (
            (kernels.count_segments(table, bounds, p), np.ones(5000, dtype=bool)),
            (kernels.count_segments_masked(table, mask, bounds, p), mask != 0),
        ):
            expect = np.array([np.bincount(table[:b][keep[:b]], minlength=p) for b in bounds])
            assert np.array_equal(got[1], expect)
            assert np.array_equal(got[0], expect[:, 1:].sum(axis=1))

    def test_chunked_reduction_exactness(self):
        # at p = 251 the uint32 accumulator is reduced mid-loop every 68,717
        # terms; 140,000 terms of (p-1)^2 at exponent 0 cross that twice and
        # wrap without it.  Random products for p in {3, 5, 251} ride along.
        # Each case is checked against np.convolve-then-mod in int64.
        rng = np.random.default_rng(1)
        nterms = 140_000
        cases = [
            (
                251,
                np.full(8, 250, dtype=np.uint8),
                np.zeros(nterms, dtype=np.int64),
                np.full(nterms, 250, dtype=np.uint8),
                8,
            )
        ]
        for p in (3, 5, 251):
            dense = _random_case(rng, p, 2000)
            exps = np.sort(rng.choice(2000, size=900, replace=False)).astype(np.int64)
            coefs = rng.integers(1, p, size=900, dtype=np.uint8)
            cases.append((p, dense, exps, coefs, 2000))
        for p, dense, exps, coefs, out_len in cases:
            got = kernels.mul_sparse(dense, exps, coefs, p, out_len)
            sparse_dense = np.zeros(out_len, dtype=np.int64)
            np.add.at(sparse_dense, exps, coefs.astype(np.int64))
            assert np.array_equal(got, mul_dense_convolve(dense, sparse_dense, p, out_len))


class TestMulDenseAgainstConvolution:
    """The FFT product against np.convolve-then-mod, bit for bit."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 251])
    @pytest.mark.parametrize(
        "n,m,out_len",
        [
            (1, 1, 1),
            (1, 1, 5),
            (1, 40, 40),
            (40, 1, 20),
            (300, 170, 100),
            (300, 170, 469),
            (300, 170, 468),
            (300, 170, 1000),
            (2, 2, 3),
            (129, 129, 257),
            (256, 256, 511),
            (257, 256, 512),
        ],
    )
    def test_random_operands(self, p, n, m, out_len):
        rng = np.random.default_rng(1000 * p + n + m + out_len)
        a = _random_case(rng, p, n)
        b = _random_case(rng, p, m)
        got = kernels.mul_dense(a, b, p, out_len)
        assert got.dtype == np.uint8 and len(got) == out_len
        assert np.array_equal(got, mul_dense_convolve(a, b, p, out_len))

    def test_adversarial_extreme_residues(self):
        # every entry +-(p-1)/2 after centring: the largest norms and outputs.
        # Against a constant operand h the product is h times the prefix sums
        # of the other operand, exact in int64 (np.convolve is too slow here).
        p, n = 251, 2**17
        half = (p - 1) // 2
        rng = np.random.default_rng(7)
        signs = np.where(rng.integers(0, 2, n) == 1, 1, -1)
        a = (signs * half % p).astype(np.uint8)
        b = np.full(n, half, dtype=np.uint8)
        for x, centred in ((a, signs * half), (b, np.full(n, half))):
            expect = (half * np.cumsum(centred)) % p
            assert np.array_equal(kernels.mul_dense(x, b, p, n), expect.astype(np.uint8))

    def test_bound_holds_at_the_largest_legal_input(self):
        # both operands of length MAX_PREC with every entry at the extreme
        # residue (p-1)/2, evaluated from the norms alone
        p, n = 251, series.MAX_PREC
        norm = (p - 1) / 2 * math.sqrt(n)
        size = 1 << (2 * n - 2).bit_length()
        bound = kernels.fft_error_bound(norm, norm, size)
        assert bound < 0.5
        assert kernels.fft_error_bound(norm, norm, 2 * size) > bound

    def test_bound_failure_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(kernels, "fft_error_bound", lambda *args: 0.5)
        ones = np.ones(4, dtype=np.uint8)
        with pytest.raises(InternalInvariantError, match="FFT rounding bound"):
            kernels.mul_dense(ones, ones, 3, 4)


class TestSigmaSieveAgainstDivisorWalk:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 251])
    @pytest.mark.parametrize("e", [3, 5])
    def test_prefixes_at_square_boundaries(self, p, e):
        for prec in (1, 2, 3, 4, 5, 9, 10, 16, 17, 49, 50, 121, 122, 2000):
            got = kernels.sigma_sieve(prec, e, p)
            assert got.dtype == np.uint8 and got[0] == 0
            assert np.array_equal(got, sigma_sieve_walk(prec, e, p))

    def test_large_prefix(self):
        assert np.array_equal(kernels.sigma_sieve(50000, 5, 7), sigma_sieve_walk(50000, 5, 7))
