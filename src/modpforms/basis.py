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
from .series import QSeries, delta_powers, eisenstein, mul, powers


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


@dataclass(frozen=True, eq=False)
class WeightBasis:
    """The echelon basis of a weight space: one read-only dim x prec uint8 matrix of rows."""

    p: int
    weight: int
    dim: int
    rows: np.ndarray

    @property
    def prec(self):
        return self.rows.shape[1]

    def matrix(self):
        """dim x prec uint8 array of basis coefficient rows (read-only, not a copy)."""
        return self.rows


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
        return WeightBasis(p, k, dim, cached.rows[:, :prec])

    mono = [m.coeffs for m in _mod_monomials(p, k, prec)]
    U = linalg.inverse(np.stack([m[:dim] for m in mono]), p)
    rows = kernels.combine(U, mono, p)
    if not np.array_equal(rows[:, :dim], np.eye(dim)):
        raise InternalInvariantError("echelon property lost after reduction")
    rows.flags.writeable = False
    out = _basis_cache[(p, k)] = WeightBasis(p, k, dim, rows)
    return out


def _mod_monomials(p, k, prec):
    """The generating monomials of weight k reduced mod p.

    Every Delta^c comes from one delta_powers walk and every E4^a from one
    powers walk, so exponents share their low Frobenius digits; mul turns a
    product by a constant (E4 mod 3 and 5, E6 mod 3 and 7) into a scaling.
    """
    mono = _monomials(k)
    e4_exps = sorted({a for a, _, _ in mono if a})
    e4_pows = dict(zip(e4_exps, powers(eisenstein(p, 4, prec), e4_exps))) if e4_exps else {}
    e6 = eisenstein(p, 6, prec) if any(b for _, b, _ in mono) else None
    # each Delta^c is replaced by its monomial, so one list of rows is alive
    out = delta_powers(p, [c for _, _, c in mono], prec)
    for i, (a, b, _) in enumerate(mono):
        if a:
            out[i] = mul(out[i], e4_pows[a])
        if b:
            out[i] = mul(out[i], e6)
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
    return QSeries(basis.p, kernels.combine(coords, basis.rows[:, :prec], basis.p))
