import math
import tracemalloc

import numpy as np
import pytest

from modpforms import kernels, series
from modpforms.errors import InternalInvariantError
from modpforms.series import QSeries, eta_cubed, mul

from oracles import (
    combine_int64,
    count_segments_two_pass,
    counts_per_index,
    mul_dense_convolve,
    mul_full_length,
    mul_sparse_shifted_adds,
    pair_sums_full_length,
    sigma_sieve_divisor_pairs,
    sigma_sieve_walk,
)


def _random_case(rng, p, n):
    return rng.integers(0, p, size=n, dtype=np.uint8)


def _sparse_reference(dense, exps, coefs, p, out_len):
    """The truncated sparse product by np.convolve-then-mod in int64."""
    keep = exps < out_len
    sparse = np.zeros(out_len, dtype=np.int64)
    np.add.at(sparse, exps[keep], coefs[keep].astype(np.int64))
    return mul_dense_convolve(dense, sparse, p, out_len)


def _with_nonzeros(rng, p, out_len, count):
    """A uint8 array of out_len entries with exactly count nonzero residues."""
    dense = np.zeros(out_len, dtype=np.uint8)
    dense[rng.choice(out_len, size=count, replace=False)] = rng.integers(1, p, size=count)
    return dense


@pytest.fixture
def routes(monkeypatch):
    """The names of the sparse-product routes taken, in call order."""
    taken = []
    for name in ("_pair_sums", "_shifted_adds"):
        route = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name, lambda *args, name=name, route=route: taken.append(name) or route(*args)
        )
    return taken


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
        masks = [
            rng.integers(0, 2, size=5000).astype(np.uint8),
            np.zeros(5000, dtype=np.uint8),
            np.ones(5000, dtype=np.uint8),
        ]
        for bounds in ([1, 100, 2500, 5000], [0, 0, 1, 4999]):
            bounds = np.array(bounds, dtype=np.int64)
            cases = [(kernels.count_segments(table, bounds, p), np.ones(5000, dtype=bool))]
            cases += [(kernels.count_segments_masked(table, m, bounds, p), m != 0) for m in masks]
            for got, keep in cases:
                expect = np.array(
                    [np.bincount(table[:b][keep[:b]], minlength=p) for b in bounds]
                )
                assert np.array_equal(got[1], expect)
                assert np.array_equal(got[0], expect[:, 1:].sum(axis=1))

    def test_chunked_reduction_exactness(self):
        # at p = 251 the uint32 accumulator is reduced mid-loop every 68,719
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
            assert np.array_equal(got, _sparse_reference(dense, exps, coefs, p, out_len))


PRIMES = [3, 5, 7, 11, 13, 17, 19, 251]


class TestMulSparseAgainstConvolution:
    """Both sparse-product routes against np.convolve-then-mod, bit for bit."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_either_side_of_the_crossover(self, p, routes):
        # the dense operand is at the pair-sum limit, then one nonzero past it
        rng = np.random.default_rng(p)
        out_len = 40 * kernels._PAIR_RATIO
        exps = np.sort(rng.choice(out_len, size=60, replace=False)).astype(np.int64)
        coefs = rng.integers(1, p, size=60, dtype=np.uint8)
        for count, route in ((40, "_pair_sums"), (41, "_shifted_adds")):
            dense = _with_nonzeros(rng, p, out_len, count)
            got = kernels.mul_sparse(dense, exps, coefs, p, out_len)
            assert got.dtype == np.uint8 and len(got) == out_len
            assert np.array_equal(got, _sparse_reference(dense, exps, coefs, p, out_len))
            assert routes.pop() == route

    @pytest.mark.parametrize("p", PRIMES)
    def test_edge_operands(self, p, routes):
        rng = np.random.default_rng(100 + p)
        none = np.zeros(0, dtype=np.int64)
        for out_len, dense in (
            (500, _with_nonzeros(rng, p, 500, 3)),
            (500, _random_case(rng, p, 500)),
            (1, np.array([0], dtype=np.uint8)),
            (1, np.array([p - 1], dtype=np.uint8)),
            # a dense operand shorter than the product
            (500, _random_case(rng, p, 120)),
        ):
            # shuffled exponents, two thirds of them at or beyond out_len
            exps = rng.permutation(np.arange(0, 3 * out_len, max(1, out_len // 20)))
            coefs = rng.integers(1, p, size=len(exps), dtype=np.uint8)
            for e, c in ((exps, coefs), (none, none.astype(np.uint8)), (exps[:1], coefs[:1])):
                got = kernels.mul_sparse(dense, e, c, p, out_len)
                assert len(got) == out_len
                assert np.array_equal(got, _sparse_reference(dense, e, c, p, out_len))
        assert set(routes) == {"_pair_sums", "_shifted_adds"}

    def test_repeated_exponents_on_the_pair_route(self, routes):
        # three terms of (p-1)^2 land on index 0: 187,500 does not fit uint16
        p = 251
        dense = np.zeros(100, dtype=np.uint8)
        dense[0] = p - 1
        exps = np.zeros(3, dtype=np.int64)
        coefs = np.full(3, p - 1, dtype=np.uint8)
        got = kernels.mul_sparse(dense, exps, coefs, p, 100)
        assert got[0] == 3 * (p - 1) ** 2 % p and not got[1:].any()
        assert routes == ["_pair_sums"]

    def test_uint16_reduce_cadence_at_17(self, routes):
        # at p = 17 a uint16 entry is reduced every 255 terms of 16 * 16; 600
        # such terms at exponent 0 cross that twice and wrap without it
        p, out_len, nterms = 17, 50, 600
        dense = np.full(out_len, 16, dtype=np.uint8)
        exps = np.zeros(nterms, dtype=np.int64)
        coefs = np.full(nterms, 16, dtype=np.uint8)
        got = kernels.mul_sparse(dense, exps, coefs, p, out_len)
        assert np.all(got == nterms * 256 % p)
        assert np.array_equal(got, _sparse_reference(dense, exps, coefs, p, out_len))
        assert routes == ["_shifted_adds"]

    @pytest.mark.parametrize("nonzeros", [None, 3000])
    def test_memory_is_bounded_by_out_len(self, nonzeros, routes):
        # 250 distinct coefficients mod 251; a kernel that keeps one scaled
        # copy of the dense operand per coefficient peaks at 250 arrays
        p, out_len = 251, 200_000
        rng = np.random.default_rng(251)
        if nonzeros is None:
            dense = _random_case(rng, p, out_len)
            exps = np.sort(rng.choice(out_len, size=250, replace=False)).astype(np.int64)
            coefs = np.arange(1, p, dtype=np.uint8)
            limit = 4 * out_len * 4
        else:
            # 2000 terms by 3000 nonzeros: pairs in blocks, never all at once
            dense = _with_nonzeros(rng, p, out_len, nonzeros)
            exps = np.sort(rng.choice(out_len, size=2000, replace=False)).astype(np.int64)
            coefs = (np.arange(2000) % (p - 1) + 1).astype(np.uint8)
            limit = 4 * out_len * 8 + 16 * kernels._PAIR_BLOCK
        tracemalloc.start()
        try:
            got = kernels.mul_sparse(dense, exps, coefs, p, out_len)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit
        assert routes == ["_shifted_adds" if nonzeros is None else "_pair_sums"]
        # np.convolve would take minutes here; the FFT product is checked
        # against it above
        sparse = np.zeros(out_len, dtype=np.uint8)
        sparse[exps] = coefs
        assert np.array_equal(got, kernels.mul_dense(dense, sparse, p, out_len))

    def test_uint16_reduction_memory_at_1e6(self, routes):
        # shifted adds at p = 3 hold three uint16 arrays (6 MB); the result
        # is reduced from the accumulator in blocks, since one whole-array
        # lookup would widen its indices to 8 MB of intp
        p, out_len = 3, 10**6
        rng = np.random.default_rng(3)
        dense = _random_case(rng, p, out_len)
        exps = np.arange(0, 300, 7, dtype=np.int64)
        coefs = (np.arange(len(exps)) % (p - 1) + 1).astype(np.uint8)
        tracemalloc.start()
        try:
            got = kernels.mul_sparse(dense, exps, coefs, p, out_len)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * out_len
        assert routes == ["_shifted_adds"]
        assert np.array_equal(got, mul_sparse_shifted_adds(dense, exps, coefs, p, out_len))


WINDOW = kernels._PAIR_WINDOW


def _pair_case(rng, p, out_len, square):
    """A pair-route operand (at most out_len / 64 nonzero entries, some past out_len) and terms.

    For a square the terms are the operand's own nonzero entries below
    out_len; otherwise two thirds of them, shuffled, lie at or past out_len.
    """
    dense = _with_nonzeros(rng, p, out_len + 40, max(1, out_len // kernels._PAIR_RATIO))
    if square:
        exps = np.flatnonzero(dense[:out_len])
        return dense, exps, dense[exps]
    exps = rng.permutation(np.arange(0, 3 * out_len, max(1, 3 * out_len // 700)))
    return dense, exps, rng.integers(1, p, size=len(exps), dtype=np.uint8)


def _exact_pair_sums(dense, exps, coefs, p, out_len):
    """kernels._pair_sums on the operands as mul_sparse hands them over."""
    keep = exps < out_len
    return kernels._pair_sums(dense[:out_len], exps[keep], coefs[keep], p, out_len)


class TestPairSumsAgainstFullLength:
    """The windowed pair sums against the bins of the product's length, bit for bit."""

    @pytest.mark.parametrize("p", [3, 5, 7, 251])
    @pytest.mark.parametrize(
        "out_len", [1, 2, 1000, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW - 1, 2 * WINDOW, 2 * WINDOW + 1]
    )
    @pytest.mark.parametrize("square", [False, True])
    def test_exact_sums(self, p, out_len, square, routes):
        rng = np.random.default_rng(out_len + p + square)
        dense, exps, coefs = _pair_case(rng, p, out_len, square)
        got = _exact_pair_sums(dense, exps, coefs, p, out_len)
        expect = pair_sums_full_length(dense, exps, coefs, p, out_len)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)
        product = kernels.mul_sparse(dense, exps, coefs, p, out_len)
        assert np.array_equal(product, expect % p)
        assert routes[-1] == "_pair_sums"

    def test_int64_sums_at_251(self):
        # 700 terms of up to 250^2 overflow uint16, so the sums come in int64
        p, out_len = 251, 2 * WINDOW + 1
        dense, exps, coefs = _pair_case(np.random.default_rng(251), p, out_len, False)
        got = _exact_pair_sums(dense, exps, coefs, p, out_len)
        assert got.dtype == np.int64 and got.max() >= 2**16
        assert np.array_equal(got, pair_sums_full_length(dense, exps, coefs, p, out_len))

    @pytest.mark.parametrize("p", [3, 251])
    def test_empty_operands(self, p, routes):
        out_len = WINDOW + 1
        rng = np.random.default_rng(p)
        dense, exps, coefs = _pair_case(rng, p, out_len, False)
        none = np.zeros(0, dtype=np.int64)
        zero = np.zeros(out_len, dtype=np.uint8)
        for d, e, c in (
            (zero, exps, coefs),
            (dense, none, none.astype(np.uint8)),
            (zero, none, none.astype(np.uint8)),
            # every term at or past out_len
            (dense, exps[exps >= out_len], coefs[exps >= out_len]),
        ):
            got = _exact_pair_sums(d, e, c, p, out_len)
            assert len(got) == out_len and not got.any()
            assert np.array_equal(got, pair_sums_full_length(d, e, c, p, out_len))
            assert not kernels.mul_sparse(d, e, c, p, out_len).any()
        assert set(routes) == {"_pair_sums"}

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_small_pair_blocks(self, monkeypatch, block):
        # a window's pairs split across many chunks, and terms with more
        # pairs than a chunk taken alone
        monkeypatch.setattr(kernels, "_PAIR_BLOCK", block)
        p, out_len = 7, WINDOW + 1
        for square in (False, True):
            dense, exps, coefs = _pair_case(np.random.default_rng(block), p, out_len, square)
            got = _exact_pair_sums(dense, exps, coefs, p, out_len)
            assert np.array_equal(got, pair_sums_full_length(dense, exps, coefs, p, out_len))

    @pytest.mark.parametrize("p,step", [(3, 3), (7, 7)])
    def test_delta_products_against_full_length(self, p, step, routes):
        # the products behind Delta mod 3 and mod 7 across three windows:
        # eta^3 squared (on the lattice 3Z mod 3) and eta^3 times eta^3(q^7)
        prec = 3 * WINDOW + 2
        eta3 = eta_cubed(p, prec)
        other = eta3
        if p == 7:
            dilated = np.zeros(prec, dtype=np.uint8)
            dilated[::step] = eta3.coeffs[: -(-prec // step)]
            other = QSeries(p, dilated)
        got = mul(eta3, other)
        assert got == mul_full_length(eta3, other)
        idx = np.flatnonzero(other.coeffs)
        exact = pair_sums_full_length(eta3.coeffs, idx, other.coeffs[idx], p, prec)
        assert np.array_equal(got.coeffs, exact % p)
        assert set(routes) == {"_pair_sums"}

    def test_memory_apart_from_the_output_is_bounded(self):
        # about 10^5 pairs below out_len = 10^7: bins the product's length
        # would take 80 MB; windows and chunks take a fixed size
        p, out_len = 7, 10**7
        rng = np.random.default_rng(7)
        dense = _with_nonzeros(rng, p, out_len, 450)
        exps = np.sort(rng.choice(out_len, size=450, replace=False)).astype(np.int64)
        coefs = rng.integers(1, p, size=450, dtype=np.uint8)
        tracemalloc.start()
        try:
            got = kernels._pair_sums(dense, exps, coefs, p, out_len)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - got.nbytes < 64 * kernels._PAIR_BLOCK + 16 * WINDOW
        # every pair summed where it lands, and nothing anywhere else
        nonzero = np.flatnonzero(dense)
        idx = (exps[:, None] + nonzero[None, :]).ravel()
        w = (coefs[:, None].astype(np.int64) * dense[nonzero][None, :]).ravel()
        keep = idx < out_len
        assert 0.8e5 < np.count_nonzero(keep) < 1.2e5
        where, which = np.unique(idx[keep], return_inverse=True)
        assert np.array_equal(got[where], np.bincount(which, weights=w[keep]))
        assert np.count_nonzero(got) == np.count_nonzero(got[where])


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

    @pytest.mark.parametrize("p", [3, 7, 251])
    @pytest.mark.parametrize("n,out_len", [(1, 1), (1, 3), (300, 100), (300, 599), (300, 1000), (4097, 8193)])
    def test_square_takes_one_spectrum(self, monkeypatch, p, n, out_len):
        # equal residues are squared from one rfft, whether one array or an
        # equal copy; operands differing in one entry (or in length below
        # out_len) take two
        rng = np.random.default_rng(10 * p + n)
        a = _random_case(rng, p, n)
        other = a.copy()
        other[-1] = (other[-1] + 1) % p
        longer = np.append(a, (int(a[0]) + 1) % p).astype(np.uint8)
        transforms = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *args: transforms.append(1) or rfft(*args))
        for b, square in ((a, True), (a.copy(), True), (other, n > out_len), (longer, n >= out_len)):
            transforms.clear()
            got = kernels.mul_dense(a, b, p, out_len)
            assert len(transforms) == (1 if square else 2)
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


def _sieve_cadence(p):
    """Steps between sigma_sieve's in-loop reductions, from its accumulator's maximum."""
    return (int(np.iinfo(kernels._SIEVE_ACC).max) - (p - 1)) // (2 * (p - 1))


class TestSigmaSieveAgainstDivisorWalk:
    """The one-add uint16 sieve against the divisor walk and the two-add uint32 sieve."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 131, 251])
    @pytest.mark.parametrize("e", [3, 5])
    def test_prefixes_at_square_boundaries(self, p, e):
        precs = [1, 2, 3, 4, 5, 9, 10, 16, 17, 49, 50, 121, 122, p * p, p * p + 1, 2000]
        cadence = _sieve_cadence(p)
        if cadence < 300:
            # the sieve takes isqrt(prec - 1) steps: one short of a reduction
            # (every 130 steps at p = 251), exactly at one, one past it, and
            # past the second
            precs += [k * k + 1 for k in (cadence - 1, cadence, cadence + 1, 2 * cadence + 1)]
        for prec in precs:
            got = kernels.sigma_sieve(prec, e, p)
            assert got.dtype == np.uint8 and got[0] == 0
            assert np.array_equal(got, sigma_sieve_divisor_pairs(prec, e, p)), prec
            if prec <= 70000:
                assert np.array_equal(got, sigma_sieve_walk(prec, e, p)), prec

    def test_large_prefix(self):
        assert np.array_equal(kernels.sigma_sieve(50000, 5, 7), sigma_sieve_walk(50000, 5, 7))

    @pytest.mark.parametrize("p", [7, 11, 13])
    @pytest.mark.parametrize("e", [3, 5])
    def test_narrow_accumulator_needs_the_in_loop_reduction(self, monkeypatch, p, e):
        # in uint16 no entry below 10^7 wraps even without the reduction (the
        # largest sum, at n = 8648640 for p = 251, e = 5, is 55,817), so it is
        # exercised in uint8: at p = 7 it comes every 20 steps, and
        # n = 102960 (60 divisor pairs) wraps a uint8 entry without it
        monkeypatch.setattr(kernels, "_SIEVE_ACC", np.uint8)
        prec = 110000
        got = kernels.sigma_sieve(prec, e, p)
        assert np.array_equal(got, sigma_sieve_divisor_pairs(prec, e, p))

    def test_peak_memory(self):
        # uint16 accumulator, one uint16 row and one uint8 cofactor table:
        # 5 bytes an entry and a block (the uint32 route peaked at 10 MB)
        tracemalloc.start()
        kernels.sigma_sieve(10**6, 3, 7)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 5e6 + 12 * kernels._INDEX_BLOCK


class TestCountSegments:
    """The one-pass key count against the two-pass masked count and a per-index tally."""

    @pytest.mark.parametrize("p", [3, 7, 127, 128, 131, 251])
    def test_against_two_passes(self, p):
        rng = np.random.default_rng(p)
        n = 3 * kernels._INDEX_BLOCK + 123
        table = _random_case(rng, p, n)
        table[rng.random(n) < 0.5] = 0
        masks = [
            rng.integers(0, 2, size=n).astype(np.uint8),
            np.zeros(n, dtype=np.uint8),
            np.ones(n, dtype=np.uint8),
        ]
        block = kernels._INDEX_BLOCK
        for bounds in ([n], [0, 5, 5, n], [1, block, block + 1, n - 1]):
            bounds = np.array(bounds, dtype=np.int64)
            plain = kernels.count_segments(table, bounds, p)
            for mask in masks:
                got = kernels.count_segments(table, bounds, p, mask)
                (totals, by_value), (kept_totals, kept_by_value) = count_segments_two_pass(
                    table, mask, bounds, p
                )
                for a, b in zip(got, (totals, by_value, kept_totals, kept_by_value)):
                    assert np.array_equal(a, b)
                for a, b in zip(plain, got[:2]):
                    assert np.array_equal(a, b)
                masked = kernels.count_segments_masked(table, mask, bounds, p)
                for a, b in zip(masked, got[2:]):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("p", [5, 251])
    def test_per_index_tally_across_small_blocks(self, monkeypatch, p):
        monkeypatch.setattr(kernels, "_INDEX_BLOCK", 7)
        rng = np.random.default_rng(10 + p)
        table = _random_case(rng, p, 300)
        mask = rng.integers(0, 2, size=300).astype(np.uint8)
        bounds = [0, 5, 5, 6, 13, 14, 299, 300]
        expect = counts_per_index(table, mask, bounds, p)
        totals, by_value, kept_totals, kept_by_value = kernels.count_segments(
            table, np.array(bounds), p, mask
        )
        assert by_value.tolist() == expect["all"]
        assert kept_by_value.tolist() == expect["kept"]
        assert totals.tolist() == [sum(row[1:]) for row in expect["all"]]
        assert kept_totals.tolist() == [sum(row[1:]) for row in expect["kept"]]

    def test_peak_memory_is_a_block(self):
        # the keys and bincount's intp copy of them are one block, not the table
        p, n = 7, 10**6
        table = np.ones(n, dtype=np.uint8)
        mask = np.ones(n, dtype=np.uint8)
        tracemalloc.start()
        kernels.count_segments(table, np.array([10**3, n]), p, mask)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 16 * kernels._INDEX_BLOCK


class TestCombineAgainstInt64:
    """The row-combination kernel against the int64 matrix product, bit for bit."""

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 19, 251])
    @pytest.mark.parametrize("m,r,n", [(1, 1, 1), (1, 5, 300), (4, 7, 1000), (20, 20, 38)])
    def test_random_rows(self, p, m, r, n):
        rng = np.random.default_rng(100 * p + m + r + n)
        # coefficients outside [0, p), negative ones and zeros included
        coefs = rng.integers(-2 * p, 2 * p, size=(m, r))
        coefs[:, ::3] = 0
        rows = _random_case(rng, p, r * n).reshape(r, n)
        rows[r // 2] = 0
        got = kernels.combine(coefs, rows, p)
        assert got.dtype == np.uint8 and got.shape == (m, n)
        assert np.array_equal(got, combine_int64(coefs, rows, p))

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 19, 251])
    def test_vectors_views_and_lists(self, p):
        rng = np.random.default_rng(p)
        B = _random_case(rng, p, 6 * 500).reshape(6, 500)
        vec = rng.integers(-p, p, size=6)
        # a vector of coefficients gives one row, as coefs @ rows does
        got = kernels.combine(vec, B, p)
        assert got.shape == (500,)
        assert np.array_equal(got, combine_int64(vec, B, p))
        # a strided view and a list of rows, as build_module and linear_combine pass them
        assert np.array_equal(kernels.combine(vec, B[:, ::p], p), combine_int64(vec, B[:, ::p], p))
        assert np.array_equal(kernels.combine(vec, list(B), p), combine_int64(vec, B, p))
        # all-zero coefficients and all-zero rows
        assert not kernels.combine(np.zeros(6, dtype=np.int64), B, p).any()
        assert not kernels.combine(vec, np.zeros_like(B), p).any()

    def test_cadence_reduction(self):
        # at p = 17 the uint16 accumulator is reduced every 255 terms; 300
        # terms of 16 * 16 wrap without that reduction
        p, r = 17, 300
        coefs = np.full((1, r), 16)
        rows = np.full((r, 4), 16, dtype=np.uint8)
        got = kernels.combine(coefs, rows, p)
        assert np.array_equal(got, combine_int64(coefs, rows, p))
        assert got.tolist() == [[r * 256 % p] * 4]

    def test_accumulator_rule(self):
        # uint16 while 255 terms of (p-1)^2 fit, uint32 above; the cadence
        # keeps a reduced entry plus cadence terms within the dtype
        assert kernels._accumulator(17) == (np.uint16, 255)
        assert kernels._accumulator(19)[0] == np.uint32
        for p in PRIMES:
            dt, cadence = kernels._accumulator(p)
            assert (p - 1) + cadence * (p - 1) ** 2 <= np.iinfo(dt).max
            assert (p - 1) + (cadence + 1) * (p - 1) ** 2 > np.iinfo(dt).max

    def test_row_count_must_match(self):
        rows = np.zeros((3, 10), dtype=np.uint8)
        with pytest.raises(ValueError, match="coefficients per output row"):
            kernels.combine(np.ones((2, 4), dtype=np.int64), rows, 3)
