"""Exact truncated q-series arithmetic over a prime field F_p.

Coefficients are stored one byte per entry (p < 256) in immutable NumPy
arrays.  Products pick a sparse kernel when one operand has few nonzero
terms and an exact FFT convolution otherwise.

Powers use Frobenius: over F_p, f^p = f(q^p), so f^e is the product of
f(q^{p^j})^{d_j} over the base-p digits d_j of e.  The weight-12 level-one
cusp form and its powers come from the sparse cube-of-eta identity

    sum_{m >= 0} (-1)^m (2m+1) q^{m(m+1)/2},

whose 8k-th power (shifted by q^k) is the k-th power of the cusp form; a
digit expansion of 8k takes about its base-p digit sum of sparse products
instead of 8k - 1.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .arith import is_prime

# Largest precision a single series may occupy (overridable per call where
# an operation can grow precision, e.g. index dilation).
MAX_PREC = 10**7

# Operands at least this dense (fraction of nonzero entries) take the dense
# multiplication path.
_SPARSE_FRACTION = 0.05


def _check_modulus(p):
    if not isinstance(p, (int, np.integer)) or p >= 256 or p == 2 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime < 256, got {p!r}")


@dataclass(frozen=True)
class FpElement:
    """A residue in [0, p) for an odd prime p."""

    value: int
    p: int

    def __post_init__(self):
        _check_modulus(self.p)
        object.__setattr__(self, "value", int(self.value) % self.p)

    def __add__(self, other):
        return FpElement(self.value + self._coerce(other), self.p)

    def __sub__(self, other):
        return FpElement(self.value - self._coerce(other), self.p)

    def __mul__(self, other):
        return FpElement(self.value * self._coerce(other), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("0 is not invertible")
        return FpElement(pow(self.value, self.p - 2, self.p), self.p)

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mismatched moduli")
            return other.value
        return int(other)

    def __int__(self):
        return self.value


def _as_residue(x, p):
    """Accept FpElement or plain int scalars."""
    if isinstance(x, FpElement):
        if x.p != p:
            raise ValueError("mismatched moduli")
        return x.value
    return int(x) % p


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
        if isinstance(other, (int, np.integer, FpElement)):
            return linear_combine([(other, self)])
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, e):
        return power(self, e)

    def __repr__(self):
        head = ", ".join(str(int(c)) for c in self.coeffs[:8])
        tail = ", ..." if self.prec > 8 else ""
        return f"QSeries(p={self.p}, prec={self.prec}, [{head}{tail}])"


@dataclass(frozen=True)
class SparseSeries:
    """Sparse truncated series: strictly increasing exponents, nonzero coefficients."""

    p: int
    prec: int
    exponents: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        _check_modulus(self.p)
        exps = np.asarray(self.exponents, dtype=np.int64)
        coefs = np.asarray(self.coefficients, dtype=np.uint8)
        if len(exps) != len(coefs):
            raise ValueError("exponent/coefficient length mismatch")
        if len(exps) and (np.any(np.diff(exps) <= 0) or exps[0] < 0):
            raise ValueError("exponents must be strictly increasing and non-negative")
        if len(exps) and exps[-1] >= self.prec:
            raise ValueError("exponent beyond declared precision")
        if np.any(coefs == 0) or np.any(coefs >= self.p):
            raise ValueError("coefficients must be nonzero residues")
        exps.flags.writeable = False
        coefs.flags.writeable = False
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coefficients", coefs)

    def dense(self):
        out = np.zeros(self.prec, dtype=np.uint8)
        out[self.exponents] = self.coefficients
        return QSeries(self.p, out)


def zero(p, prec):
    return QSeries(p, np.zeros(prec, dtype=np.uint8))


def one(p, prec):
    c = np.zeros(prec, dtype=np.uint8)
    c[0] = 1
    return QSeries(p, c)


def eta_cubed(p, prec):
    """The sparse series sum_{m(m+1)/2 < prec} (-1)^m (2m+1) q^{m(m+1)/2} mod p."""
    _check_modulus(p)
    if prec < 1:
        raise ValueError("prec must be positive")
    exps, coefs = [], []
    m = 0
    while m * (m + 1) // 2 < prec:
        c = (-1) ** m * (2 * m + 1) % p
        if c:
            exps.append(m * (m + 1) // 2)
            coefs.append(c)
        m += 1
    return SparseSeries(p, prec, np.array(exps, dtype=np.int64), np.array(coefs, dtype=np.uint8))


def delta_power(p, k, prec, cap=MAX_PREC):
    """k-th power of the weight-12 cusp form mod p, to prec coefficients.

    Computed as q^k times power(cube-of-eta series, 8k), so the Frobenius
    digits of 8k set the number of sparse products.  Precision is capped
    (override cap= for more).
    """
    _check_modulus(p)
    if k < 0:
        raise ValueError("k must be non-negative")
    if prec < 1:
        raise ValueError("prec must be positive")
    if prec > cap:
        raise ValueError(f"prec {prec} exceeds the cap {cap}; pass cap= to override")
    if k == 0:
        return one(p, prec)
    if prec <= k:
        return zero(p, prec)
    out = np.zeros(prec, dtype=np.uint8)
    out[k:] = power(eta_cubed(p, prec - k), 8 * k).coeffs
    return QSeries(p, out)


_EISENSTEIN = {4: (240, 3), 6: (-504, 5)}


def eisenstein(p, k, prec):
    """Level-one Eisenstein series of weight 4 or 6, reduced mod p."""
    _check_modulus(p)
    if prec > MAX_PREC:  # before the divisor sieve allocates its table
        raise ValueError(f"prec {prec} exceeds the cap {MAX_PREC}")
    if k not in _EISENSTEIN:
        raise ValueError(f"unsupported weight {k}; only 4 and 6 are provided")
    const, e = _EISENSTEIN[k]
    c = const % p
    if c == 0:
        return one(p, prec)
    out = kernels.sigma_sieve(prec, e, p).astype(np.int64)
    out = (out * c) % p
    out[0] = 1
    return QSeries(p, out)


def _sparsify(f, max_terms):
    idx = np.flatnonzero(f.coeffs)
    if len(idx) > max_terms:
        return None
    return SparseSeries(f.p, f.prec, idx.astype(np.int64), f.coeffs[idx])


def mul(a, b):
    """Truncated product at the smaller precision.

    An operand with at most max(8, _SPARSE_FRACTION * out_len) nonzero
    entries goes to kernels.mul_sparse; otherwise the product is the FFT
    kernels.mul_dense.
    """
    if isinstance(a, SparseSeries):
        a = a.dense()
    if isinstance(b, SparseSeries):
        b = b.dense()
    if a.p != b.p:
        raise ValueError("mismatched moduli")
    out_len = min(a.prec, b.prec)
    budget = max(8, int(_SPARSE_FRACTION * out_len))
    for dense, other in ((a, b), (b, a)):
        sp = _sparsify(other, budget)
        if sp is not None:
            return QSeries(
                a.p,
                kernels.mul_sparse(dense.coeffs, sp.exponents, sp.coefficients, a.p, out_len),
            )
    return QSeries(a.p, kernels.mul_dense(a.coeffs, b.coeffs, a.p, out_len))


def power(a, e):
    """e-th power, truncated at a's precision.

    Frobenius is a ring endomorphism of F_p[[q]], so a^(p^j) = a(q^(p^j)).
    With e = sum_j d_j p^j in base p, the power is the product of
    a(q^(p^j))^(d_j): the digit sum of e, less one, products through mul.
    Every factor is a dilation of a, so a sparse a takes only sparse
    products.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    if isinstance(a, SparseSeries):
        a = a.dense()
    result = None
    step = 1
    while e:
        e, digit = divmod(e, a.p)
        if digit:
            factor = _dilate(a, step)
            for _ in range(digit):
                result = factor if result is None else mul(result, factor)
        # every dilation by a step >= prec is the constant a_0
        step = min(step * a.p, a.prec)
    return one(a.p, a.prec) if result is None else result


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
    prec = min(s.prec for _, s in pairs)
    acc = np.zeros(prec, dtype=np.int64)
    for scalar, s in pairs:
        if s.p != p:
            raise ValueError("mismatched moduli")
        c = _as_residue(scalar, p)
        if c:
            acc += c * s.coeffs[:prec].astype(np.int64)
    return QSeries(p, acc % p)
