"""Weight-graded linear algebra for level-one forms.

The echelonized basis of the weight-k space is built once over the
integers (where its pivots are 1, so echelon shape survives reduction mod
any prime) and then re-expanded mod p at whatever precision callers need.
Coordinates of a form are read off its first dim coefficients; a full
round-trip check guards against wrong weight lifts.
"""

import threading
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import InternalInvariantError, NotInSpanError
from .series import QSeries, delta_power, eisenstein, linear_combine, mul, power

_SLACK = 8


@dataclass(frozen=True)
class GradedForm:
    """A q-expansion together with an integral weight lift."""

    series: QSeries
    weight: int

    def __post_init__(self):
        if self.weight < 0 or self.weight % 2:
            raise ValueError("weight lift must be a non-negative even integer")

    @property
    def p(self):
        return self.series.p

    @property
    def prec(self):
        return self.series.prec


@dataclass(frozen=True)
class WeightBasis:
    p: int
    weight: int
    dim: int
    basis: tuple

    @property
    def prec(self):
        return self.basis[0].prec

    def matrix(self):
        """dim x prec uint8 array of basis coefficient rows."""
        return np.stack([b.coeffs for b in self.basis])


def dim_level_one(k):
    """Dimension of the weight-k level-one space (0 for odd or negative k)."""
    if k < 0 or k % 2:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


def _monomials(k):
    """Exponent triples (a, b, c) with 4a + 6b + 12c = k, c = 0..dim-1, b in {0,1}."""
    out = []
    for c in range(dim_level_one(k)):
        r = k - 12 * c
        if r % 4 == 0:
            out.append((r // 4, 0, c))
        else:
            out.append(((r - 6) // 4, 1, c))
    return out


def _int_series_mul(a, b, prec):
    out = [0] * prec
    for i, ai in enumerate(a[:prec]):
        if ai:
            for j, bj in enumerate(b[: prec - i]):
                out[i + j] += ai * bj
    return out


def _int_series_pow(a, e, prec):
    result = [1] + [0] * (prec - 1)
    base = list(a[:prec]) + [0] * max(0, prec - len(a))
    while e:
        if e & 1:
            result = _int_series_mul(result, base, prec)
        e >>= 1
        if e:
            base = _int_series_mul(base, base, prec)
    return result


def _int_eisenstein(k, prec):
    const, e = {4: 240, 6: -504}[k], {4: 3, 6: 5}[k]
    out = [0] * prec
    out[0] = 1
    for d in range(1, prec):
        for m in range(d, prec, d):
            out[m] += const * d**e
    return out


def _int_delta(prec):
    # q * (cube-of-eta series)^8 over the integers
    if prec <= 1:
        return [0] * prec
    body = [0] * (prec - 1)
    m = 0
    while m * (m + 1) // 2 < prec - 1:
        body[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
        m += 1
    body = _int_series_pow(body, 8, prec - 1)
    return [0] + body


def _int_monomial(a, b, c, prec):
    out = [1] + [0] * (prec - 1)
    if a:
        out = _int_series_mul(out, _int_series_pow(_int_eisenstein(4, prec), a, prec), prec)
    if b:
        out = _int_series_mul(out, _int_series_pow(_int_eisenstein(6, prec), b, prec), prec)
    if c:
        out = _int_series_mul(out, _int_series_pow(_int_delta(prec), c, prec), prec)
    return out


_elim_cache = {}
_elim_lock = threading.Lock()


def _elimination_matrix(k):
    """Integer matrix U with U @ monomials = echelon basis (pivots 1).

    The monomial with delta-exponent c starts at q^c with leading
    coefficient 1, so the leading dim x dim block is unitriangular and its
    exact inverse is integral.
    """
    with _elim_lock:
        if k in _elim_cache:
            return _elim_cache[k]
    dim = dim_level_one(k)
    mono = [_int_monomial(a, b, c, dim) for a, b, c in _monomials(k)]
    L = [[mono[j][i] for i in range(dim)] for j in range(dim)]  # row j = monomial j
    if any(L[i][i] != 1 for i in range(dim)):
        raise InternalInvariantError("leading block is not unitriangular")
    # monomial j starts at q^j with coefficient 1, so L is upper unitriangular;
    # its exact integer inverse U gives the echelon rows U @ monomials
    U = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        U[i][i] = 1
        for j in range(i + 1, dim):
            U[i][j] = -sum(U[i][t] * L[t][j] for t in range(i, j))
    with _elim_lock:
        _elim_cache[k] = U
    return U


_basis_cache = {}
_basis_lock = threading.Lock()


def miller_basis(p, k, prec):
    """Echelonized basis of the weight-k space mod p, to prec coefficients.

    Basis element i has a 1 at q^i and zeros at every other q^j with
    j < dim.  Raises for odd weights and for precisions below dim.
    """
    series._check_modulus(p)
    if k % 2 or k < 0:
        raise ValueError("level-one spaces of odd or negative weight vanish")
    dim = dim_level_one(k)
    if dim == 0:
        raise ValueError(f"the weight-{k} space is zero")
    if prec < dim:
        raise ValueError(f"precision {prec} is below the dimension {dim}")
    with _basis_lock:
        cached = _basis_cache.get((p, k))
        if cached is not None and cached.prec >= prec:
            return WeightBasis(p, k, dim, tuple(b.truncate(prec) for b in cached.basis))

    U = _elimination_matrix(k)
    mono = _mod_monomials(p, k, prec)
    rows = []
    for i in range(dim):
        pairs = [(U[i][j] % p, mono[j]) for j in range(dim) if U[i][j] % p]
        rows.append(linear_combine(pairs) if pairs else series.zero(p, prec))
    for i, row in enumerate(rows):
        head = row.coeffs[:dim]
        if head[i] != 1 or np.count_nonzero(head) != 1:
            raise InternalInvariantError("echelon property lost after reduction")
    out = WeightBasis(p, k, dim, tuple(rows))
    with _basis_lock:
        cached = _basis_cache.get((p, k))
        if cached is None or cached.prec < prec:
            _basis_cache[(p, k)] = out
    return out


def _mod_monomials(p, k, prec):
    """The generating monomials of weight k reduced mod p, sharing power tables."""
    mono = _monomials(k)
    e4_pows = {}
    e4 = None
    e6 = eisenstein(p, 6, prec) if any(b for _, b, _ in mono) else None
    out = []
    for a, b, c in mono:
        term = delta_power(p, c, prec)
        if a:
            if a not in e4_pows:
                if e4 is None:
                    e4 = eisenstein(p, 4, prec)
                e4_pows[a] = power(e4, a)
            term = mul(term, e4_pows[a])
        if b:
            term = mul(term, e6)
        out.append(term)
    return out


def to_coordinates(f, basis):
    """Coordinates of f in the echelon basis, verified by full reconstruction."""
    if f.weight != basis.weight:
        raise ValueError("weight lift does not match the basis weight")
    if f.p != basis.p:
        raise ValueError("mismatched moduli")
    if f.prec < basis.dim:
        raise ValueError("form precision is below the basis dimension")
    coords = f.series.coeffs[: basis.dim].copy()
    recon = from_coordinates(coords, basis, f.prec)
    diff = np.flatnonzero(recon.coeffs != f.series.coeffs)
    if len(diff):
        raise NotInSpanError(
            f"series disagrees with its weight-{basis.weight} reconstruction "
            f"at q^{int(diff[0])}; wrong weight lift or invalid form"
        )
    return coords


def from_coordinates(coords, basis, prec):
    """Linear combination of basis elements, regenerating the basis if prec grows."""
    coords = np.asarray(coords)
    if len(coords) != basis.dim:
        raise ValueError("coordinate length must equal the basis dimension")
    if prec > basis.prec:
        basis = miller_basis(basis.p, basis.weight, prec)
    pairs = [(int(c), b.truncate(prec)) for c, b in zip(coords, basis.basis)]
    return linear_combine(pairs) if pairs else series.zero(basis.p, prec)
