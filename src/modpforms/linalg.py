"""Dense linear algebra over F_p for the small matrices of Hecke modules.

Everything works on int64 NumPy arrays with entries in [0, p); dimensions
stay below the module-size cap (64), so cubic algorithms are fine.  There
is no polynomial arithmetic: eigenvalues come from singularity tests
(module._eigenspaces), and coordinates from the batched solve_rows.
"""

import numpy as np

from .errors import InternalInvariantError


def identity(n, p):
    return np.eye(n, dtype=np.int64) % p


def matmul(a, b, p):
    return (a @ b) % p


def matvec(v, m, p):
    """Row vector, or each row of a stack, times matrix."""
    return (v @ m) % p


def matpow(a, e, p):
    result = identity(a.shape[0], p)
    base = a % p
    while e:
        if e & 1:
            result = matmul(result, base, p)
        e >>= 1
        if e:
            base = matmul(base, base, p)
    return result


def rref(mat, p):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = mat.astype(np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if len(nz) == 0:
            continue
        i = r + nz[0]
        m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def inverse(mat, p):
    """Inverse of a square matrix over F_p; raises if it is singular."""
    n = mat.shape[0]
    aug = np.concatenate([mat % p, identity(n, p)], axis=1)
    red, pivots = rref(aug, p)
    if pivots != list(range(n)):
        raise InternalInvariantError("matrix not invertible")
    return red[:, n:]


def nullspace(mat, p):
    """Basis rows of {x : x @ mat^T = 0}, i.e. kernel of the row-action x -> x @ mat.

    Computed as the classical right-kernel of mat^T.
    """
    m, pivots = rref(mat.T % p, p)
    n = mat.shape[0]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-m[r, c]) % p
    return basis


def solve_rows(rows, images, p):
    """Coefficients x with x @ rows == images, or None if an image is outside the span.

    rows must be independent, so each solution is unique: one rref of rows
    gives its pivot columns, and the inverse of the pivot block solves the
    whole stack of images (one per row) in one product.
    """
    _, pivots = rref(rows, p)
    if len(pivots) != rows.shape[0]:
        raise InternalInvariantError("rows are not independent")
    x = (images[:, pivots] @ inverse(rows[:, pivots], p)) % p
    if ((x @ rows) % p != images).any():
        return None
    return x


def row_basis(mat, p):
    """Independent rows spanning the row space (rref rows, zero rows dropped)."""
    m, pivots = rref(mat, p)
    return m[: len(pivots)]
