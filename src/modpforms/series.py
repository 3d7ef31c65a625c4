"""Exact truncated q-series arithmetic over a prime field F_p.

Coefficients are stored one byte per entry (p < 256) in immutable NumPy
arrays.  Products pick a sparse kernel when one operand has few nonzero
terms and an exact FFT convolution otherwise.

Powers use Frobenius: over F_p, f^p = f(q^p), so f^e is the product of
f(q^{p^j})^{d_j} over the base-p digits d_j of e.  powers takes a set of
exponents in one walk over their digits, so exponents that agree in their
lowest digits share those partial products.  The weight-12 level-one
cusp form and its powers come from the sparse cube-of-eta identity

    sum_{m >= 0} (-1)^m (2m+1) q^{m(m+1)/2},

whose 8k-th power (shifted by q^k) is the k-th power of the cusp form; a
digit expansion of 8k takes about its base-p digit sum of sparse products
instead of 8k - 1, and delta_powers takes every k of a weight basis from
one such walk.  Mod 3 the cube of eta vanishes off the multiples of 3
(3 divides 2m + 1 whenever 3 does not divide m(m+1)/2), and so does every
factor and partial product of that power: mul multiplies such operands
on the lattice 3Z, at a third of the length.  A product with a constant
operand c is c times the other operand, a row scaling, not a product.
"""

import math

import numpy as np

from . import kernels
from .arith import is_prime
from .errors import BudgetExceededError

# Largest precision a single series may occupy.  Callers look it up at call
# time (hecke reads series.MAX_PREC), so one assignment moves the cap everywhere.
MAX_PREC = 10**7

# Operands at least this dense (fraction of nonzero entries) take the dense
# multiplication path.
_SPARSE_FRACTION = 0.05


def _check_modulus(p):
    if not isinstance(p, (int, np.integer)) or p >= 256 or p == 2 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime < 256, got {p!r}")


def check_prec(prec):
    """A series length must be positive and at most MAX_PREC; checked before any allocation."""
    if prec < 1:
        raise ValueError("prec must be positive")
    if prec > MAX_PREC:
        raise BudgetExceededError(f"prec {prec} exceeds the cap {MAX_PREC}")


class QSeries:
    """Truncated power series mod p: coefficients a_0 .. a_{prec-1}."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        _check_modulus(p)
        arr = np.asarray(coeffs)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("need a one-dimensional, non-empty coefficient array")
        if arr.dtype != np.uint8 or arr.max(initial=0) >= p:
            arr = (arr.astype(np.int64) % p).astype(np.uint8)
        else:
            arr = arr.copy()
        arr.flags.writeable = False
        self.p = int(p)
        self.coeffs = arr

    @property
    def prec(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return int(self.coeffs[n])

    def is_zero(self):
        return not self.coeffs.any()

    def truncate(self, prec):
        if prec > self.prec:
            raise ValueError("cannot extend a series by truncation")
        return self if prec == self.prec else QSeries(self.p, self.coeffs[:prec])

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.p == other.p
            and self.prec == other.prec
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.p, self.coeffs.tobytes()))

    def __add__(self, other):
        return linear_combine([(1, self), (1, other)])

    def __sub__(self, other):
        return linear_combine([(1, self), (self.p - 1, other)])

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            return linear_combine([(other, self)])
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, e):
        return power(self, e)

    def __repr__(self):
        head = ", ".join(str(int(c)) for c in self.coeffs[:8])
        tail = ", ..." if self.prec > 8 else ""
        return f"QSeries(p={self.p}, prec={self.prec}, [{head}{tail}])"


def zero(p, prec):
    return QSeries(p, np.zeros(prec, dtype=np.uint8))


def one(p, prec):
    c = np.zeros(prec, dtype=np.uint8)
    c[0] = 1
    return QSeries(p, c)


def eta_cubed(p, prec):
    """The series sum_{m(m+1)/2 < prec} (-1)^m (2m+1) q^{m(m+1)/2} mod p: about sqrt(2 prec) terms."""
    _check_modulus(p)
    check_prec(prec)
    m = np.arange(math.isqrt(2 * prec) + 1)
    m = m[m * (m + 1) // 2 < prec]
    out = np.zeros(prec, dtype=np.uint8)
    out[m * (m + 1) // 2] = np.where(m % 2, -(2 * m + 1), 2 * m + 1) % p
    return QSeries(p, out)


def delta_power(p, k, prec):
    """k-th power of the weight-12 cusp form mod p, to prec coefficients.

    Computed as q^k times power(cube-of-eta series, 8k), so the Frobenius
    digits of 8k set the number of sparse products.  A precision above
    MAX_PREC raises BudgetExceededError.
    """
    return delta_powers(p, [k], prec)[0]


def delta_powers(p, ks, prec):
    """delta_power(p, k, prec) for each k of ks, in their order.

    Every power q^k (cube-of-eta)^(8k) comes from one powers call at the
    length prec - k of the smallest positive k, each truncated to its own
    prec - k, so the exponents 8k share their low Frobenius digits.
    """
    _check_modulus(p)
    ks = [int(k) for k in ks]
    if any(k < 0 for k in ks):
        raise ValueError("k must be non-negative")
    check_prec(prec)
    live = sorted({k for k in ks if 0 < k < prec})
    out = {}
    if live:
        bodies = powers(eta_cubed(p, prec - live[0]), [8 * k for k in live])
        for i, k in enumerate(live):
            coeffs = np.zeros(prec, dtype=np.uint8)
            coeffs[k:] = bodies[i].coeffs[: prec - k]
            # each body is dropped once shifted, so the two lists never coexist
            bodies[i] = None
            out[k] = QSeries(p, coeffs)
    return [one(p, prec) if k == 0 else out[k] if k in out else zero(p, prec) for k in ks]


_EISENSTEIN = {4: (240, 3), 6: (-504, 5)}


def eisenstein(p, k, prec):
    """Level-one Eisenstein series of weight 4 or 6, reduced mod p."""
    _check_modulus(p)
    check_prec(prec)
    if k not in _EISENSTEIN:
        raise ValueError(f"unsupported weight {k}; only 4 and 6 are provided")
    const, e = _EISENSTEIN[k]
    c = const % p
    if c == 0:
        return one(p, prec)
    # c * r mod p for every residue r, indexed by the sieve's residues
    scaled = (np.arange(p) * c % p).astype(np.uint8)
    out = scaled[kernels.sigma_sieve(prec, e, p)]
    out[0] = 1
    return QSeries(p, out)


def mul(a, b):
    """Truncated product at the smaller precision.

    When one operand is a constant c (zero past q^0), the product is c
    times the other, one kernels.combine row scaling.  Otherwise an
    operand with at most max(8, _SPARSE_FRACTION * out_len) nonzero
    entries goes to kernels.mul_sparse, and the rest to the FFT
    kernels.mul_dense.  When both operands vanish off the multiples of some
    s > 1 (_support_step), so does the product, and its entries at the
    multiples of s are the product of a[::s] and b[::s] at length
    ceil(out_len / s), by the kernel the full length would take.  Mod 3
    every product behind Delta^k runs there at s = 3 (see the module
    docstring).
    """
    if a.p != b.p:
        raise ValueError("mismatched moduli")
    out_len = min(a.prec, b.prec)
    x, y = a.coeffs[:out_len], b.coeffs[:out_len]
    for const, other in ((x, y), (y, x)):
        if not const[1:].any():
            return QSeries(a.p, kernels.combine([int(const[0])], [other], a.p))
    budget = max(8, int(_SPARSE_FRACTION * out_len))
    s = _support_step(x, y)
    if s == 1:
        return QSeries(a.p, _mul_coeffs(x, y, a.p, out_len, budget))
    out = np.zeros(out_len, dtype=np.uint8)
    out[::s] = _mul_coeffs(x[::s], y[::s], a.p, -(-out_len // s), budget)
    return QSeries(a.p, out)


def _mul_coeffs(x, y, p, out_len, budget):
    """The truncated product of two coefficient arrays, by the sparse or the FFT kernel."""
    for dense, other in ((x, y), (y, x)):
        idx = np.flatnonzero(other != 0)
        if len(idx) <= budget:
            return kernels.mul_sparse(dense, idx, other[idx], p, out_len)
    return kernels.mul_dense(x, y, p, out_len)


def _support_step(x, y):
    """A step s such that x and y both vanish off the multiples of s; 1 if none is found.

    The candidate is the gcd of the first three positive exponents with a
    nonzero coefficient in each operand.  It is used only if taking every
    s-th entry keeps every nonzero entry of both, so a missed lattice costs
    speed and a wrong one is never used.
    """
    counts = [np.count_nonzero(c) for c in (x, y)]
    s = 0
    for c, count in zip((x, y), counts):
        s = _exponent_gcd(c, s, min(3, count - (c[0] != 0)))
    if s > 1 and all(count == np.count_nonzero(c[::s]) for c, count in zip((x, y), counts)):
        return s
    return 1


def _exponent_gcd(c, g, terms):
    """gcd of g and the first `terms` positive exponents of c with a nonzero coefficient.

    c must have that many.  Scans prefixes of growing width and stops once
    the gcd is 1, so a dense c costs a few dozen entries.
    """
    start, width = 1, 64
    while terms and g != 1:
        for e in np.flatnonzero(c[start : start + width] != 0)[:terms]:
            g = math.gcd(g, start + int(e))
            terms -= 1
        start += width
        width *= 8
    return g


def power(a, e):
    """e-th power, truncated at a's precision: powers(a, [e])[0]."""
    return powers(a, [e])[0]


def powers(a, exponents):
    """a^e truncated at a's precision for each e of exponents, in their order.

    Frobenius is a ring endomorphism of F_p[[q]], so a^(p^j) = a(q^(p^j)).
    With e = sum_j d_j p^j in base p, the power is the product of
    a(q^(p^j))^(d_j): the digit sum of e, less one, products through mul.
    Every factor is a dilation of a, so a sparse a takes only sparse
    products.  The exponents are walked as a tree of their base-p digits,
    lowest digit first and depth first: exponents that agree in their J
    lowest digits share the partial product over those digits, the digits
    of one level are taken in increasing order from one running product,
    and only the partial products on the current path are alive.  A
    dilation by a step >= prec is the constant a_0, as is every dilation
    of a constant a, and a_0^(p^j) = a_0: what is left of e past that
    point, r, contributes the scalar a_0^r, not products.
    """
    exponents = [int(e) for e in exponents]
    if any(e < 0 for e in exponents):
        raise ValueError("exponent must be non-negative")
    out = [None] * len(exponents)
    _power_walk(a, not a.coeffs[1:].any(), list(enumerate(exponents)), None, 1, out)
    return out


def _power_walk(a, constant, group, partial, step, out):
    """Fill out[i] = partial * a^rest for each (i, rest) of group; the digits below step are done.

    partial is the product over the digits already walked (None for 1);
    constant says that every dilation of a is its constant term.
    """
    p, prec = a.p, a.prec
    if constant or step >= prec:
        for i, rest in group:
            out[i] = _scaled(partial, pow(int(a.coeffs[0]), rest, p), p, prec)
        return
    by_digit = {}
    for i, rest in group:
        if rest:
            by_digit.setdefault(rest % p, []).append((i, rest // p))
        else:
            out[i] = _scaled(partial, 1, p, prec)
    if not by_digit:
        return
    factor = _dilate(a, step)
    running, reached = partial, 0
    for digit in sorted(by_digit):
        for _ in range(digit - reached):
            running = factor if running is None else mul(running, factor)
        reached = digit
        _power_walk(a, constant, by_digit[digit], running, min(step * p, prec), out)


def _scaled(partial, c, p, prec):
    """c times partial, where None stands for the series 1."""
    if partial is None:
        coeffs = np.zeros(prec, dtype=np.uint8)
        coeffs[0] = c
        return QSeries(p, coeffs)
    return partial if c == 1 else linear_combine([(c, partial)])


def _dilate(a, step):
    """a(q^step) at a's precision."""
    if step == 1:
        return a
    out = np.zeros(a.prec, dtype=np.uint8)
    out[::step] = a.coeffs[: -(-a.prec // step)]
    return QSeries(a.p, out)


def linear_combine(pairs):
    """F_p-linear combination of series, truncated at the smallest precision."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (scalar, series) pair")
    p = pairs[0][1].p
    if any(s.p != p for _, s in pairs):
        raise ValueError("mismatched moduli")
    prec = min(s.prec for _, s in pairs)
    coefs = [int(scalar) % p for scalar, _ in pairs]
    return QSeries(p, kernels.combine(coefs, [s.coeffs[:prec] for _, s in pairs], p))
