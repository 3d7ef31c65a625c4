"""Weight-graded linear algebra for level-one forms.

The echelonized basis of the weight-k space is built mod p from the
monomials E4^a E6^b Delta^c: the monomial with Delta-exponent c starts at
q^c with coefficient 1, so the leading dim x dim block of the monomials is
unitriangular and its inverse mod p turns them into the echelon basis.
Each basis is cached per (p, k) and re-expanded when callers need more
precision.  Coordinates of a form are read off its first dim coefficients;
a full round-trip check guards against wrong weight lifts.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, linalg, series
from .errors import InternalInvariantError, NotInSpanError
from .series import QSeries, delta_power, eisenstein, mul, power


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


_basis_cache = {}


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
    cached = _basis_cache.get((p, k))
    if cached is not None and cached.prec >= prec:
        return WeightBasis(p, k, dim, tuple(b.truncate(prec) for b in cached.basis))

    mono = [m.coeffs for m in _mod_monomials(p, k, prec)]
    U = linalg.inverse(np.stack([m[:dim] for m in mono]), p)
    rows = kernels.combine(U, mono, p)
    if not np.array_equal(rows[:, :dim], np.eye(dim)):
        raise InternalInvariantError("echelon property lost after reduction")
    out = _basis_cache[(p, k)] = WeightBasis(p, k, dim, tuple(QSeries(p, r) for r in rows))
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
    rows = [b.coeffs[:prec] for b in basis.basis]
    return QSeries(basis.p, kernels.combine(coords, rows, basis.p))
