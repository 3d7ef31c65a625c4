"""Each arith helper against a brute-force loop, for every n <= 2000.

The smallest-prime-factor sieve lives in the test oracles, which factor
with it; it is checked here with the package's helpers.
"""

import math

import numpy as np
import pytest

from modpforms import arith
from modpforms.arith import (
    discrete_log,
    factorize,
    is_odd_prime_power,
    is_prime,
    multiplicative_order,
    primes_upto,
    squarefree_mask,
    totient,
)

from oracles import factor_with_spf, primes_full_sieve, spf_sieve

N = 2000


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def brute_factorization(n):
    out = {}
    d = 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    return out


def brute_squarefree(n):
    return n >= 1 and all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


PRIMES = [n for n in range(N + 1) if brute_is_prime(n)]


def test_is_prime():
    assert [n for n in range(-3, N + 1) if is_prime(n)] == PRIMES


def test_primes_upto_from_a_fresh_sieve_and_from_the_cache():
    # ascending bounds each sieve afresh; descending ones cut the cached sieve
    for n in list(range(-1, N + 1)) + list(range(N, -2, -1)):
        got = primes_upto(n)
        assert got.dtype == np.int64
        assert got.tolist() == [q for q in PRIMES if q <= n]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 9, 25, 26, 10**4])
def test_odd_only_sieve_matches_is_prime(monkeypatch, n):
    monkeypatch.setattr(arith, "_prime_cache", {})
    got = primes_upto(n)
    assert got.dtype == np.int64 and not got.flags.writeable
    assert got.tolist() == [q for q in range(n + 1) if is_prime(q)]


def test_odd_only_sieve_matches_full_sieve(monkeypatch):
    monkeypatch.setattr(arith, "_prime_cache", {})
    got = primes_upto(10**6)
    assert got.dtype == np.int64 and not got.flags.writeable
    assert np.array_equal(got, primes_full_sieve(10**6))
    # a smaller bound is cut from the cached sieve
    assert np.array_equal(primes_upto(10**5), got[got <= 10**5])
    assert arith._prime_cache.keys() == {10**6}


def test_factorize():
    for n in range(-2, N + 1):
        assert factorize(n) == brute_factorization(n)


@pytest.mark.parametrize(
    "size", sorted({1, 2, 3, 4} | {d * d + e for d in range(2, 45) for e in (0, 1)})
)
def test_factor_with_spf(size):
    spf = spf_sieve(size)
    assert len(spf) == size + 1
    assert spf[0] == 0 and spf[1] == 1
    for n in range(2, size + 1):
        fac = brute_factorization(n)
        assert spf[n] == min(fac)
        assert factor_with_spf(n, spf) == fac


def test_totient():
    for n in range(1, N + 1):
        assert totient(n) == sum(math.gcd(u, n) == 1 for u in range(n))


def test_is_odd_prime_power():
    for n in range(-3, N + 1):
        expect = n % 2 == 1 and len(brute_factorization(n)) == 1
        assert is_odd_prime_power(n) == expect


@pytest.mark.parametrize("m", [p for p in PRIMES if 2 < p < 256] + [9, 25, 27, 49, 81, 125])
def test_multiplicative_order(m):
    for g in range(m):
        if math.gcd(g, m) != 1:
            with pytest.raises(ValueError):
                multiplicative_order(g, m)
            continue
        order, x = 1, g
        while x != 1:
            x = x * g % m
            order += 1
        assert multiplicative_order(g, m) == order


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_discrete_log_on_every_unit(p, e):
    m = p**e
    phi = m - m // p
    for g in (2, 3, 5, 6, 7, 10):
        if g % p == 0:
            continue
        n = multiplicative_order(g, m)
        logs, x = {}, 1
        for j in range(n):
            logs[x] = j
            x = x * g % m
        for u in range(2 * m):
            if u % m in logs:
                assert discrete_log(u, g, m) == logs[u % m]
            else:
                with pytest.raises(ValueError, match="is not a power of"):
                    discrete_log(u, g, m)
        if n == phi:
            assert len(logs) == phi


def test_discrete_log_at_251_to_the_4th():
    m = 251**4
    phi = m - m // 251
    g = 11  # the least prime whose class generates the units mod 251^4
    assert multiplicative_order(g, m) == phi
    assert all(multiplicative_order(q, m) < phi for q in (2, 3, 5, 7))
    rng = np.random.default_rng(251)
    for j in [0, 1, 2, phi - 1, phi // 2, phi // 251] + rng.integers(0, phi, 200).tolist():
        assert discrete_log(pow(g, j, m), g, m) == j
    with pytest.raises(ValueError):
        discrete_log(251, g, m)


def test_squarefree_mask():
    expect = [int(brute_squarefree(n)) for n in range(N)]
    for n in range(N + 1):
        mask = squarefree_mask(n)
        assert mask.dtype == np.uint8
        assert mask.tolist() == expect[:n]


def test_squarefree_mask_against_every_square():
    # the mask strikes prime squares only; striking every q^2 gives the same bytes
    n = 200_003
    expect = np.ones(n, dtype=np.uint8)
    expect[0] = 0
    for q in range(2, math.isqrt(n - 1) + 1):
        expect[q * q :: q * q] = 0
    assert np.array_equal(squarefree_mask(n), expect)
