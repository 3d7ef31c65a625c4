"""Elementary number theory: primality, factoring, sieves, unit orders and discrete logs.

The Hecke action at each prime, the conductor search over unit classes,
the Euler products, the square-full sums and the square-free counts all
take their primes and factorizations from here.
"""

import functools
import math

import numpy as np

_prime_cache = {}
_NO_PRIMES = np.zeros(0, dtype=np.int64)
_NO_PRIMES.flags.writeable = False


def is_prime(n):
    """Primality by trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def primes_upto(n):
    """The primes <= n as a read-only int64 array.

    The largest sieve made so far is cached and smaller bounds are cut
    from it.  The entries are NumPy integers: convert with ``.tolist()``
    before ``pow(., ., m)``, dict keys or JSON.
    """
    if n < 2:
        return _NO_PRIMES
    best = max((b for b in _prime_cache if b >= n), default=None)
    if best is not None:
        arr = _prime_cache[best]
        return arr[: np.searchsorted(arr, n, side="right")]
    # odd numbers only: entry i stands for 2i + 1, and entry 0 (for 1) for 2
    sieve = np.ones((n + 1) // 2, dtype=bool)
    for q in range(3, math.isqrt(n) + 1, 2):
        if sieve[q // 2]:
            sieve[q * q // 2 :: q] = False
    arr = np.flatnonzero(sieve).astype(np.int64, copy=False)
    arr *= 2
    arr += 1
    arr[0] = 2
    arr.flags.writeable = False
    _prime_cache.clear()
    _prime_cache[n] = arr
    return arr


def factorize(n):
    """Prime factorization by trial division, as a dict prime -> exponent ({} for n <= 1)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_odd_prime_power(q):
    return q % 2 == 1 and len(factorize(q)) == 1


def totient(n):
    """Euler's phi(n): the number of units mod n, from the factorization of n."""
    for q in factorize(n):
        n = n // q * (q - 1)
    return n


def multiplicative_order(g, m):
    """Order of g in the unit group mod m."""
    if math.gcd(g, m) != 1:
        raise ValueError(f"{g} is not a unit mod {m}")
    order = totient(m)
    for q in factorize(order):
        while order % q == 0 and pow(g, order // q, m) == 1:
            order //= q
    return order


def discrete_log(u, g, m):
    """The least j >= 0 with g^j = u mod m, by Pohlig-Hellman; ValueError if there is none.

    j is read one mixed-radix digit per prime factor q of the order n of g
    (with multiplicity): each digit is the exponent of a power of g^(n/q),
    found in the table of its q powers.
    """
    n, digits = _order_digits(g, m)
    j, step = 0, 1
    for q in digits:
        target = pow(u * pow(g, -j, m), n // (step * q), m)
        j += step * _digit_table(pow(g, n // q, m), q, m).get(target, 0)
        step *= q
    if pow(g, j, m) != u % m:
        raise ValueError(f"{u} is not a power of {g} mod {m}")
    return j


@functools.lru_cache(maxsize=None)
def _order_digits(g, m):
    """(the order n of g mod m, the prime factors of n with multiplicity)."""
    n = multiplicative_order(g, m)
    return n, tuple(q for q, k in factorize(n).items() for _ in range(k))


@functools.lru_cache(maxsize=None)
def _digit_table(root, q, m):
    """root^d mod m -> d for the q exponents d < q."""
    return {pow(root, d, m): d for d in range(q)}


def squarefree_mask(n):
    """Byte mask of square-free indices below n (index 0 excluded)."""
    mask = np.ones(n, dtype=np.uint8)
    if n:
        mask[0] = 0
    # a square divides n exactly when the square of a prime does
    for q in primes_upto(math.isqrt(max(n - 1, 0))).tolist():
        mask[q * q :: q * q] = 0
    return mask
