import importlib
import math
import sys
import types

import numpy as np
import pytest

import modpforms
from modpforms import _kernels_py, kernels, series
from modpforms.errors import InternalInvariantError

from oracles import mul_dense_convolve, sigma_sieve_walk

BACKENDS = kernels.backends()
PAIRS = [("numpy", other) for other in BACKENDS if other != "numpy"]


def _random_case(rng, p, n):
    return rng.integers(0, p, size=n, dtype=np.uint8)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled backend not built")
class TestBackendEquivalence:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_mul_sparse(self, pair):
        a_impl, b_impl = (BACKENDS[name] for name in pair)
        rng = np.random.default_rng(1)
        for p in (3, 5, 251):
            dense = _random_case(rng, p, 2000)
            nterms = 900  # enough terms to cross the chunked-reduction path at p=251
            exps = np.sort(rng.choice(2000, size=nterms, replace=False)).astype(np.int64)
            coefs = rng.integers(1, p, size=nterms, dtype=np.uint8)
            x = a_impl.mul_sparse(dense, exps, coefs, p, 2000)
            y = b_impl.mul_sparse(dense, exps, coefs, p, 2000)
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_sigma_sieve(self, pair):
        a_impl, b_impl = (BACKENDS[name] for name in pair)
        for p, e in ((3, 3), (7, 5), (251, 3)):
            assert np.array_equal(
                a_impl.sigma_sieve(500, e, p), b_impl.sigma_sieve(500, e, p)
            )

    @pytest.mark.parametrize("pair", PAIRS)
    def test_counting(self, pair):
        a_impl, b_impl = (BACKENDS[name] for name in pair)
        rng = np.random.default_rng(2)
        table = _random_case(rng, 7, 5000)
        mask = rng.integers(0, 2, size=5000).astype(np.uint8)
        bounds = np.array([1, 100, 2500, 5000], dtype=np.int64)
        ta, va = a_impl.count_segments(table, bounds, 7)
        tb, vb = b_impl.count_segments(table, bounds, 7)
        assert np.array_equal(ta, tb) and np.array_equal(va, vb)
        ta, va = a_impl.count_segments_masked(table, mask, bounds, 7)
        tb, vb = b_impl.count_segments_masked(table, mask, bounds, 7)
        assert np.array_equal(ta, tb) and np.array_equal(va, vb)


class TestKernelContracts:
    def test_mul_dense_truncation(self):
        impl = BACKENDS[kernels.BACKEND]
        a = np.array([1, 2, 3], dtype=np.uint8)
        b = np.array([4, 5], dtype=np.uint8)
        out = kernels.mul_dense(a, b, 7, 4)
        # (1 + 2q + 3q^2)(4 + 5q) = 4 + 13q + 22q^2 + 15q^3
        assert list(out) == [4, 13 % 7, 22 % 7, 15 % 7]

    def test_compiled_backend_keeps_the_fft_dense_product(self, monkeypatch):
        fake = types.ModuleType("modpforms._kernels_cy")
        fake.BACKEND = "fake"
        for name in (
            "mul_dense",
            "mul_sparse",
            "sigma_sieve",
            "count_segments",
            "count_segments_masked",
        ):
            setattr(fake, name, lambda *args: None)
        monkeypatch.delenv("MODPFORMS_PURE", raising=False)
        monkeypatch.setitem(sys.modules, "modpforms._kernels_cy", fake)
        monkeypatch.setattr(modpforms, "_kernels_cy", fake, raising=False)
        try:
            importlib.reload(kernels)
            assert kernels.BACKEND == "fake"
            assert kernels.mul_sparse is fake.mul_sparse
            assert kernels.mul_dense is _kernels_py.mul_dense
        finally:
            monkeypatch.undo()
            importlib.reload(kernels)

    def test_sigma_small_values(self):
        out = kernels.sigma_sieve(7, 3, 7)
        expect = [0] + [sum(d**3 for d in range(1, n + 1) if n % d == 0) % 7 for n in range(1, 7)]
        assert list(out) == expect

    def test_count_segments_cumulative(self):
        table = np.array([0, 1, 2, 0, 1], dtype=np.uint8)
        totals, by_value = kernels.count_segments(table, np.array([2, 5]), 3)
        assert list(totals) == [1, 3]
        assert by_value[1][1] == 2 and by_value[1][2] == 1

    def test_chunked_reduction_exactness(self):
        # force many same-coefficient terms so the uint32 accumulator wraps
        # without the chunked reduction; compare against exact int64 arithmetic
        p = 251
        n = 40000
        dense = np.full(n, p - 1, dtype=np.uint8)
        exps = np.arange(0, n, 1, dtype=np.int64)[:90000]
        coefs = np.full(len(exps), p - 1, dtype=np.uint8)
        got = kernels.mul_sparse(dense, exps, coefs, p, n)
        sparse_dense = np.zeros(n, dtype=np.int64)
        sparse_dense[exps] = p - 1
        exact = np.convolve(dense.astype(np.int64), sparse_dense)[:n] % p
        assert np.array_equal(got.astype(np.int64), exact)


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
        bound = _kernels_py.fft_error_bound(norm, norm, size)
        assert bound < 0.5
        assert _kernels_py.fft_error_bound(norm, norm, 2 * size) > bound

    def test_bound_failure_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(_kernels_py, "fft_error_bound", lambda *args: 0.5)
        ones = np.ones(4, dtype=np.uint8)
        with pytest.raises(InternalInvariantError, match="FFT rounding bound"):
            _kernels_py.mul_dense(ones, ones, 3, 4)


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
