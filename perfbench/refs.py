"""Reference values for the benchmark's correctness checks.

Everything here is computed from classical formulas with this file's own
sieves and products; nothing imports ``modpforms``.  The sources are:

* Ramanujan's congruences for the weight-12 cusp form Delta:
  tau(n) = n^2 sigma_1(n) (mod 3), n sigma_1(n) (mod 5), n sigma_3(n) (mod 7);
* E4 = 1 + 240 sum sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n;
* E_{p+1} = E2 (mod p) and theta Delta = E2 Delta, so E6 Delta (mod 5) and
  E4^2 Delta = E8 Delta (mod 7) have coefficients n tau(n) (mod p);
* the Selberg-Delange Euler product for the count of n <= x with
  tau(n) != 0 (mod p), a multiplicative condition;
* Delta^k = q^k prod (1 - q^m)^(24k) over the integers, for q-expansion
  prefixes;
* the paper's h-table and its quoted constants.
"""

import math
from fractions import Fraction

import numpy as np

# tau(n) = n^J sigma_E(n) (mod p): p -> (J, E)
TAU_CONGRUENCE = {3: (2, 1), 5: (1, 1), 7: (1, 3)}

# the paper's h-table for Delta^k mod 3; alpha is 1/2 for every k
H_TABLE = {1: 0, 2: 1, 4: 2, 5: 3, 7: 4, 8: 5, 10: 4, 11: 5, 13: 4, 14: 5, 16: 4, 17: 5, 19: 6}
H_TABLE_ALPHA = Fraction(1, 2)

# constants quoted in the paper, to the digits it gives
PAPER_C_U_DELTA_MOD3 = 0.2913  # C(U) for Delta mod 3
PAPER_C_SF_DELTA2_MOD7 = 0.5976  # square-free constant of Delta^2 mod 7
PAPER_ALPHA_DELTA2_MOD7 = Fraction(1, 6)
PAPER_TOLERANCE = 5e-4

# the program's default prime bound; truncating the reference products at
# the same bound leaves only the program's own square-full tail between them
PRIME_BOUND = 10**6


def primes_upto(n):
    """Primes <= n, by a boolean sieve over odd numbers."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            q = 2 * i + 1
            odd[q * q // 2 :: q] = False
    return np.concatenate([[2], 2 * np.flatnonzero(odd) + 1]).astype(np.int64)


def sigma_mod(n, e, p):
    """sigma_e(k) mod p for 0 <= k < n (entry 0 is 0).

    Every divisor pair d * m = k with d <= m is visited once from its
    smaller member d <= sqrt(k): d^e + m^e is added at k (d^e once when
    d = m).  That is sqrt(n) vectorised steps.
    """
    powmod = np.array([pow(r, e, p) for r in range(p)], dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    top = n - 1
    for d in range(1, math.isqrt(top) + 1):
        m = np.arange(d, top // d + 1, dtype=np.int64)
        contrib = powmod[m % p] + powmod[d % p]
        contrib[0] = powmod[d % p]  # m = d: the divisor d counted once
        acc[d * m] += contrib
    return acc % p


def tau_mod(n, p):
    """tau(k) mod p for 0 <= k < n, from Ramanujan's congruence."""
    j, e = TAU_CONGRUENCE[p]
    k = np.arange(n, dtype=np.int64) % p
    return (k**j % p) * sigma_mod(n, e, p) % p


def theta_delta_mod(n, p):
    """k tau(k) mod p: the table of E6*Delta mod 5 and of E4^2*Delta mod 7."""
    k = np.arange(n, dtype=np.int64) % p
    return k * tau_mod(n, p) % p


def eisenstein_mod(n, weight, p):
    """The weight-4 or weight-6 Eisenstein series mod p, n coefficients."""
    const, e = {4: (240, 3), 6: (-504, 5)}[weight]
    out = const % p * sigma_mod(n, e, p) % p
    out[0] = 1
    return out


def squarefree_mask(n):
    """Boolean mask of square-free k in [0, n); k = 0 is excluded."""
    mask = np.ones(n, dtype=bool)
    mask[0] = False
    for q in primes_upto(math.isqrt(max(n - 1, 0))):
        mask[int(q) * int(q) :: int(q) * int(q)] = False
    return mask


def count_report(table, p, checkpoints):
    """pi, pi_sf and per-value counts of a table at each checkpoint.

    pi(x) counts k < x with a nonzero entry (k = 0 included, as the
    program counts it); pi_sf counts square-free k >= 1 only.
    """
    table = np.asarray(table)
    sf = squarefree_mask(len(table))
    out = {"pi": [], "pi_sf": [], "per_value": {str(a): [] for a in range(1, p)}}
    for x in checkpoints:
        head = table[:x]
        out["pi"].append(int(np.count_nonzero(head)))
        out["pi_sf"].append(int(np.count_nonzero(head[sf[:x]])))
        values = np.bincount(head, minlength=p)
        for a in range(1, p):
            out["per_value"][str(a)].append(int(values[a]))
    return out


def delta_power_prefix(k, n):
    """The first n integer coefficients of Delta^k = q^k prod (1 - q^m)^(24k)."""
    if n <= k:
        return [0] * n
    body = [1] + [0] * (n - k - 1)
    for m in range(1, n - k):
        for _ in range(24 * k):  # multiply by (1 - q^m)
            for i in range(n - k - 1, m - 1, -1):
                body[i] -= body[i - m]
    return [0] * k + body


def form_prefix(terms, p, n):
    """Prefix mod p of sum c * Delta^k over (c, k) pairs."""
    acc = [0] * n
    for c, k in terms:
        for i, a in enumerate(delta_power_prefix(k, n)):
            acc[i] += c * a
    return [a % p for a in acc]


def delta_power_mod(k, n, p):
    """Delta^k mod p to n coefficients, as products of the congruence table."""
    base = tau_mod(n, p)
    out = base
    for _ in range(k - 1):
        out = np.convolve(out, base)[:n] % p
    return out


def hecke_T(coeffs, ell, weight, p, n):
    """First n coefficients of T_l f for a weight-k form f and a prime l != p:
    a_m(T_l f) = a_{lm}(f) + l^{k-1} a_{m/l}(f)."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if len(coeffs) < ell * (n - 1) + 1:
        raise ValueError("not enough coefficients for T_l")
    out = coeffs[: ell * (n - 1) + 1 : ell].copy()
    out[::ell] += pow(ell, weight - 1, p) * coeffs[: (n - 1) // ell + 1]
    return out % p


def prime_in_class(u, modulus):
    """The smallest prime congruent to u modulo modulus."""
    bound = 64 * modulus
    while True:
        pr = primes_upto(bound)
        hits = pr[pr % modulus == u % modulus]
        if len(hits):
            return int(hits[0])
        bound *= 4


def zero_set(p):
    """Unit classes u mod p with tau(l) = 0 (mod p) for primes l = u (mod p)."""
    j, e = TAU_CONGRUENCE[p]
    return {u for u in range(1, p) if (1 + pow(u, e, p)) % p == 0}


def alpha_delta(p):
    """Density of primes l with tau(l) = 0 (mod p)."""
    return Fraction(len(zero_set(p)), p - 1)


def _multiplicative_order(u, p):
    o, x = 1, u % p
    while x != 1:
        x = x * u % p
        o += 1
    return o


def delta_constant(p, bound=PRIME_BOUND):
    """Selberg-Delange constant c of #{n <= x : tau(n) != 0 mod p}.

    Nonvanishing of tau mod p is multiplicative, so the count is
    c x / (log x)^alpha with
        c = (1 / Gamma(beta)) prod_l (1 - 1/l)^beta L_l,  beta = 1 - alpha,
    L_l = sum_k [tau(l^k) != 0] / l^k.  For l = p, L_l = 1.  For l != p,
    tau(l^k) = l^{Jk} (1 + u + ... + u^k) with u = l^E mod p, which
    vanishes exactly when o | k + 1, o being the order of u (or p when
    u = 1); so L_l = 1/(1 - x) - x^{o-1} / (1 - x^o) with x = 1/l.
    """
    j, e = TAU_CONGRUENCE[p]
    beta = 1 - alpha_delta(p)
    pr = primes_upto(bound)
    order = {}
    for r in range(1, p):
        u = pow(r, e, p)
        order[r] = p if u == 1 else _multiplicative_order(u, p)
    coprime = pr[pr != p]
    o = np.array([order.get(r, 0) for r in range(p)], dtype=np.float64)[coprime % p]
    x = 1.0 / coprime
    local = 1.0 / (1.0 - x) - x ** (o - 1) / (1.0 - x**o)
    log_c = float(beta) * np.sum(np.log1p(-1.0 / pr)) + np.sum(np.log(local))
    return math.exp(log_c) / math.gamma(float(beta))


def euler_C(u_classes, modulus, beta, bound=PRIME_BOUND):
    """C(U) = (1 / Gamma(beta)) prod_l (1 - 1/l)^beta (1 + [l mod modulus in U] / l)."""
    pr = primes_upto(bound)
    x = 1.0 / pr
    in_u = np.isin(pr % modulus, sorted(u_classes))
    log_c = float(beta) * np.sum(np.log1p(-x)) + np.sum(np.log1p(x[in_u]))
    return math.exp(log_c) / math.gamma(float(beta))


def delta2_mod3_constant(bound=PRIME_BOUND):
    """The paper's closed form for c(Delta^2 mod 3):
    C(U)/3 * prod_{l = 1 (3)} (1 - l^-3)^-1 * prod_{l = 2 (3)} (1 - l^-2)^-1."""
    pr = primes_upto(bound).astype(np.float64)
    one, two = pr[pr % 3 == 1], pr[pr % 3 == 2]
    log_extra = -np.sum(np.log1p(-(one**-3.0))) - np.sum(np.log1p(-(two**-2.0)))
    return euler_C({1}, 3, Fraction(1, 2), bound) / 3 * math.exp(float(log_extra))
