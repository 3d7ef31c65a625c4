"""Finite Hecke modules of level-one forms over F_p.

The module generated by a form is closed off inside its weight-graded
ambient space and the action of every sampled prime index is stored as a
matrix.  Two layers of congruence structure are then detected:

* the full conductor: a p-power modulus c such that the action matrix
  depends only on the prime's class mod c.  The unit group mod c is
  cyclic and a two-dimensional pseudo-representation trace satisfies
  t(g^{j+1}) = t(g^j) t(g) - d(g) t(g^{j-1}) with t(1) = 2, so one
  sampled prime whose class generates the units fills the whole table,
  which must close cyclically onto 2*Id and match every sampled prime.
  Detection can fail honestly: for large modules the finite quotient
  acting on the module is not abelian and no congruence modulus exists.

* the status modulus: a (usually much smaller) p-power modulus on which
  just the nilpotent / invertible / mixed status is constant.  This is
  determined by the semisimplified eigen-system, hence always a
  congruence datum for the reducible representations in scope, and it is
  what the density exponent needs.

Classification, purity, the strict order of nilpotence (a breadth-first
search over the distinct nilpotent action matrices, so it does not need
the full conductor), the canonical pure decomposition and the group of
invertible actions sit on top.

One function, _assemble, turns basis rows and per-prime matrices into a
module, for build_module and submodule alike; both put images into module
coordinates through one batched solve, linalg.solve_rows.  Only the
classes and prime_power_matrix members read the class table; everything
else takes T_l for a class u as prime_power_matrix(u, 1).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .arith import multiplicative_order, primes_upto
from .basis import (
    GradedForm,
    dim_level_one,
    from_coordinates,
    miller_basis,
    to_coordinates,
)
from .errors import (
    BudgetExceededError,
    ConductorNotFoundError,
    InternalInvariantError,
    SpanNotClosedError,
    SplittingFieldNeededError,
)
from .hecke import ell_s_ell
from .series import QSeries

GENERATOR_BOUND = 50  # the closure runs over the T_l with l at most this
DEFAULT_SAMPLE_BOUND = 2000
DIMENSION_CAP = 64
GAMMA_ORDER_CAP = 100000
MAX_CONDUCTOR_EXPONENT = 4
_SLACK = 8

NILPOTENT = "nilpotent"
INVERTIBLE = "invertible"
MIXED = "mixed"


def _status_of(mat, p):
    if linalg.is_nilpotent(mat, p):
        return NILPOTENT
    if linalg.det(mat, p) != 0:
        return INVERTIBLE
    return MIXED


class HeckeModule:
    """The finite module generated by a form under the prime-index operators.

    Vectors are rows over F_p in the module basis; the stored q-expansions
    of the basis vectors provide exact coefficient functionals.  The
    conductor and per-class matrices are present only when the sampled
    action is class-determined; the status structure is always present.
    Modules are built by build_module and submodule, which both end in
    _assemble.  Only classes and prime_power_matrix read the class table:
    callers group primes with class_of and take T_{l^e} from
    prime_power_matrix, which computes each matrix once, as
    classify_classes does the class report.
    """

    def __init__(
        self,
        p,
        weight,
        ambient,
        ambient_coords,
        vector_series,
        per_prime,
        conductor,
        class_matrices,
        status_modulus,
        status_by_class,
        f_coords,
    ):
        self.p = p
        self.weight = weight
        self.ambient = ambient
        self.ambient_coords = ambient_coords  # r x dim, rows = module basis
        self.vector_series = vector_series  # r x prec uint8
        self.per_prime = per_prime  # sampled prime -> r x r action matrix
        self.conductor = conductor  # None when the action is not class-determined
        self.class_matrices = class_matrices
        self.status_modulus = status_modulus
        self.status_by_class = status_by_class
        self.f_coords = f_coords
        self._report = None  # classify_classes memo
        self._powers = {}  # (class, e) -> read-only T_{l^e} matrix

    @property
    def dim(self):
        return self.ambient_coords.shape[0]

    def require_conductor(self):
        if self.conductor is None:
            raise ConductorNotFoundError(
                "the sampled Hecke action is not determined by congruence classes "
                "(non-abelian finite quotient); class-based data is unavailable"
            )

    @property
    def classes(self):
        self.require_conductor()
        return sorted(self.class_matrices)

    @property
    def scalar_map(self):
        """Class u -> the scalar l*S_l = u^(k-1) mod p; empty without a conductor."""
        if self.conductor is None:
            return {}
        return {u: ell_s_ell(u, self.weight, self.p) for u in self.classes}

    def class_of(self, ell):
        """Class of a prime, or the int64 array of classes of an int64 array of primes."""
        classes = self.classes
        u = ell % self.conductor
        is_class = np.zeros(self.conductor, dtype=bool)
        is_class[classes] = True
        bad = np.flatnonzero(~np.atleast_1d(is_class[u]))
        if len(bad):
            raise ConductorNotFoundError(
                f"{np.atleast_1d(ell)[bad[0]]} is not a unit class mod {self.conductor}"
            )
        return u

    def apply_class(self, vec, u):
        return linalg.matvec(vec, self.prime_power_matrix(u, 1), self.p)

    def prime_power_matrix(self, u, e):
        """Action of the index-l^e operator for any prime l in class u (read-only, memoized)."""
        self.require_conductor()
        if (u, e) not in self._powers:
            if e == 0:
                mat = linalg.identity(self.dim, self.p)
            elif e == 1:
                mat = self.class_matrices[u].copy()
            else:
                s = ell_s_ell(u, self.weight, self.p)
                a = self.class_matrices[u]
                prev = self.prime_power_matrix(u, e - 2)
                mat = (self.prime_power_matrix(u, e - 1) @ a - s * prev) % self.p
            mat.flags.writeable = False
            self._powers[u, e] = mat
        return self._powers[u, e]

    def nilpotent_matrices(self):
        """Distinct nilpotent action matrices (class table if known, else sampled)."""
        if self.conductor:
            source = [self.prime_power_matrix(u, 1) for u in self.classes]
        else:
            source = self.per_prime.values()
        return [mat for mat in _distinct(source) if linalg.is_nilpotent(mat, self.p)]

    def coefficient(self, vec, n):
        """a_n of the form with the given module coordinates."""
        if n >= self.vector_series.shape[1]:
            raise ValueError("coefficient index beyond stored precision")
        return int(vec.astype(np.int64) @ self.vector_series[:, n].astype(np.int64)) % self.p

    def vector_to_series(self, vec, prec=None):
        prec = prec or self.vector_series.shape[1]
        if prec <= self.vector_series.shape[1]:
            coeffs = (vec.astype(np.int64) @ self.vector_series[:, :prec].astype(np.int64)) % self.p
            return QSeries(self.p, coeffs)
        amb = linalg.matvec(vec, self.ambient_coords, self.p)
        return from_coordinates(amb, self.ambient, prec)


@dataclass(frozen=True)
class ClassReport:
    modulus: int
    statuses: dict
    nilpotent_classes: tuple
    invertible_classes: tuple
    mixed_classes: tuple
    pure: bool


@dataclass(frozen=True)
class GammaGroup:
    """Multiplicative closure of the invertible class actions."""

    elements: tuple  # int64 matrices
    contains_scalars: bool

    @property
    def order(self):
        return len(self.elements)


@dataclass(frozen=True)
class PureComponent:
    """One pure summand of the canonical decomposition."""

    module: HeckeModule
    nil_classes: frozenset  # status classes of the PARENT acting nilpotently
    coords_in_parent: np.ndarray


@dataclass(frozen=True)
class EquidistributionReport:
    criterion_holds: bool
    eigenform_converse_applies: bool
    primitive_root_shortcut: bool
    gamma_order: int
    gamma_contains_scalars: bool
    scalar_values: tuple


def _tl_coords(series_rows, ell, scalar, dim, p):
    """First-dim coefficients of T_l applied to each row's q-expansion."""
    idx = ell * np.arange(dim)
    out = series_rows[:, idx].astype(np.int64)
    j = np.arange(0, dim, ell) // ell
    out[:, ::ell] += scalar * series_rows[:, j].astype(np.int64)
    return out % p


def work_precision(weight, sample_bound=DEFAULT_SAMPLE_BOUND):
    """q-expansion precision at which build_module reads T_l for every sampled l."""
    return sample_bound * max(dim_level_one(weight) - 1, 1) + 1 + _SLACK


def _closure(seed, matrices, p, max_dim):
    """Rows spanning the closure of seed under the matrices, seed first.

    Breadth-first: each new image outside the current span is appended and
    queued; raises SpanNotClosedError once the span exceeds max_dim.
    """
    rows = [seed % p]
    span_rref = linalg.row_basis(np.stack(rows), p)
    queue = [rows[0]]
    while queue:
        v = queue.pop()
        for mat in matrices:
            w = linalg.matvec(v, mat, p)
            if not w.any() or linalg.solve_in_rowspan(span_rref, w, p) is not None:
                continue
            rows.append(w)
            queue.append(w)
            span_rref = linalg.row_basis(np.stack(rows), p)
            if len(rows) > max_dim:
                raise SpanNotClosedError(f"closure exceeded the dimension cap {max_dim}")
    return np.stack(rows)


def check_sample_bound(sample_bound):
    if sample_bound < GENERATOR_BOUND:
        raise ValueError(f"sample_bound must be at least the generator bound {GENERATOR_BOUND}")


def build_module(f, sample_bound=DEFAULT_SAMPLE_BOUND, require_conductor=True):
    """Close the span of f under the prime-index operators and detect conductors.

    f must be nonzero and supported on indices coprime to p (apply the W
    projector first).  With require_conductor (the default), a module
    whose sampled action is not class-determined raises
    ConductorNotFoundError; pass require_conductor=False for quantities
    that only need the status structure (alpha) or the raw matrices (h).
    """
    p, k = f.p, f.weight
    check_sample_bound(sample_bound)
    dim = dim_level_one(k)
    work_prec = work_precision(k, sample_bound)

    ambient = miller_basis(p, k, work_prec)
    g = GradedForm(f.series.truncate(min(f.prec, work_prec)), k)
    f_amb = to_coordinates(g, ambient).astype(np.int64)
    if not f_amb.any():
        raise ValueError("cannot build the module of the zero form")
    B = ambient.matrix()  # dim x work_prec

    f_full = (f_amb @ B.astype(np.int64)) % p
    if f_full[::p].any():
        raise ValueError(
            "form has nonzero coefficients at indices divisible by p; "
            "apply the W projector first"
        )

    sampled = [ell for ell in primes_upto(sample_bound).tolist() if ell != p]
    gens = [ell for ell in sampled if ell <= GENERATOR_BOUND]

    gen_mats = [_tl_coords(B, ell, ell_s_ell(ell, k, p), dim, p) for ell in gens]
    V = _closure(f_amb, gen_mats, p, DIMENSION_CAP)  # r x dim, in ambient coordinates
    S = ((V @ B.astype(np.int64)) % p).astype(np.uint8)

    images = np.concatenate([_tl_coords(S, ell, ell_s_ell(ell, k, p), dim, p) for ell in sampled])
    x = linalg.solve_rows(V, images, p)
    if x is None:
        raise InternalInvariantError("a sampled image left the module span")
    per_prime = dict(zip(sampled, np.split(x, len(sampled))))
    return _assemble(p, k, ambient, V, S, per_prime, require_conductor)


def _assemble(p, weight, ambient, ambient_coords, vector_series, per_prime, require_conductor):
    """The module on the given basis rows, with the first row as its seed.

    Detects the conductor (raising ConductorNotFoundError when it is
    missing and required) and then the status modulus.
    """
    r = ambient_coords.shape[0]
    conductor, class_matrices, failure = _detect_conductor(per_prime, p, weight, r)
    if conductor is None and require_conductor:
        raise ConductorNotFoundError(failure)
    status_modulus, status_by_class = _detect_status(per_prime, p, r)
    f_coords = np.zeros(r, dtype=np.int64)
    f_coords[0] = 1
    return HeckeModule(
        p,
        weight,
        ambient,
        ambient_coords,
        vector_series,
        per_prime,
        conductor,
        class_matrices,
        status_modulus,
        status_by_class,
        f_coords,
    )


def _detect_conductor(per_prime, p, weight, r):
    """Smallest p-power modulus whose classes explain every sampled action matrix.

    Seeds the per-class table from one sampled prime whose class generates
    the (cyclic) unit group, through the pseudo-representation trace
    recurrence; accepts when the table closes cyclically onto 2*Id and
    matches every sampled prime.
    """
    two_id = 2 * linalg.identity(r, p) % p
    failure = None
    for exponent in range(1, MAX_CONDUCTOR_EXPONENT + 1):
        cand = p**exponent
        phi = cand - cand // p
        gen = None
        for ell in per_prime:
            if multiplicative_order(ell % cand, cand) == phi:
                gen = ell
                break
        if gen is None:
            failure = f"modulus {cand}: no sampled prime generates the unit classes"
            continue
        g = gen % cand
        d = ell_s_ell(g, weight, p)
        mats = [two_id, per_prime[gen]]
        for _ in range(phi - 1):
            mats.append((mats[-1] @ mats[1] - d * mats[-2]) % p)
        if (mats[phi] != two_id).any():
            failure = (
                f"modulus {cand}: the class table of prime {gen} does not close "
                f"cyclically onto 2*Id"
            )
            continue
        table = {pow(g, j, cand): mats[j] for j in range(phi)}
        violation = None
        for ell, mat in per_prime.items():
            if (table[ell % cand] != mat).any():
                violation = ell
                break
        if violation is not None:
            failure = (
                f"modulus {cand}: primes {gen} and {violation} give inconsistent "
                f"class actions"
            )
            continue
        return cand, table, None
    return None, None, f"no conductor candidate passed ({failure})"


def _detect_status(per_prime, p, r):
    """Smallest p-power modulus with class-constant nilpotent/invertible status.

    Every unit class must carry a sampled prime.  This is the semisimple
    layer of the action, so it exists (with a small modulus) whenever the
    underlying representations are reducible with p-power conductors.
    """
    statuses = {ell: _status_of(mat, p) for ell, mat in per_prime.items()}
    failure = None
    for exponent in range(1, MAX_CONDUCTOR_EXPONENT + 1):
        cand = p**exponent
        by_class = {}
        ok = True
        for ell, st in statuses.items():
            u = ell % cand
            if by_class.setdefault(u, st) != st:
                ok = False
                break
        if not ok:
            failure = f"modulus {cand}: status not constant on classes"
            continue
        units = [u for u in range(1, cand) if u % p]
        missing = [u for u in units if u not in by_class]
        if missing:
            failure = f"modulus {cand}: classes {missing[:4]} have no sampled prime"
            continue
        return cand, by_class
    raise ConductorNotFoundError(
        f"no modulus explains the nilpotent/invertible pattern ({failure})"
    )


def classify_classes(module):
    """Per-class statuses and the purity flag, computed once per module.

    Classes refer to the full conductor when it was detected, and to the
    status modulus otherwise.
    """
    if module._report is not None:
        return module._report
    p = module.p
    if module.conductor is not None:
        statuses = {u: _status_of(module.prime_power_matrix(u, 1), p) for u in module.classes}
        modulus = module.conductor
    else:
        statuses = dict(module.status_by_class)
        modulus = module.status_modulus
    nil = tuple(sorted(u for u, s in statuses.items() if s == NILPOTENT))
    inv = tuple(sorted(u for u, s in statuses.items() if s == INVERTIBLE))
    mixed = tuple(sorted(u for u, s in statuses.items() if s == MIXED))
    module._report = ClassReport(modulus, statuses, nil, inv, mixed, pure=not mixed)
    return module._report


def strict_nilpotence_order(module):
    """Longest chain of nilpotent-prime actions that keeps the seed nonzero.

    Runs a breadth-first search over the distinct nilpotent action
    matrices, so it works whether or not the action is class-determined.
    """
    if not classify_classes(module).pure:
        raise ValueError("module is not pure; decompose into pure parts first")
    vec = module.f_coords
    if not vec.any():
        raise ValueError("seed vector is zero")
    mats = module.nilpotent_matrices()
    level = {vec.tobytes(): vec}
    h = 0
    while True:
        nxt = {}
        for v in level.values():
            for m in mats:
                w = linalg.matvec(v, m, module.p)
                if w.any():
                    nxt[w.tobytes()] = w
        if not nxt:
            return h
        level = nxt
        h += 1
        if h > module.dim:
            raise InternalInvariantError("nilpotence order exceeded the module dimension")


def gamma_group(module):
    """Closure of the invertible class matrices under multiplication."""
    module.require_conductor()
    p = module.p
    r = module.dim
    gens = [module.prime_power_matrix(u, 1) for u in classify_classes(module).invertible_classes]
    elements = {linalg.identity(r, p).tobytes(): linalg.identity(r, p)}
    frontier = list(elements.values())
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = linalg.matmul(x, g, p)
                key = y.tobytes()
                if key not in elements:
                    elements[key] = y
                    nxt.append(y)
        if len(elements) > GAMMA_ORDER_CAP:
            raise BudgetExceededError(
                f"the invertible-class group exceeded the order cap {GAMMA_ORDER_CAP}"
            )
        frontier = nxt
    contains = all(
        (lam * linalg.identity(r, p) % p).tobytes() in elements for lam in range(1, p)
    )
    return GammaGroup(tuple(elements.values()), contains)


def _restrict(rows, mats, p):
    """Actions of the matrices on the row space spanned by rows, in the rows basis."""
    x = linalg.solve_rows(rows, np.concatenate([(rows @ mat) % p for mat in mats]), p)
    if x is None:
        raise InternalInvariantError("subspace not stable under the sampled action")
    return np.split(x, len(mats))


def submodule(parent, vec):
    """The module generated by a vector inside a parent module.

    Closure runs over the parent's sampled matrices; the conductor and
    status structures are re-detected on the restricted action (they can
    be smaller than the parent's, e.g. for an eigenform inside a larger
    module).
    """
    p = parent.p
    if parent.conductor:
        source = [parent.prime_power_matrix(u, 1) for u in parent.classes]
    else:
        source = _distinct(parent.per_prime.values())
    W = _closure(vec, source, p, parent.dim)  # a subspace: the cap never binds
    restricted = dict(zip(parent.per_prime, _restrict(W, parent.per_prime.values(), p)))
    series = ((W @ parent.vector_series.astype(np.int64)) % p).astype(np.uint8)
    amb = (W @ parent.ambient_coords) % p
    return _assemble(p, parent.weight, parent.ambient, amb, series, restricted, False)


def _distinct(mats):
    seen = {}
    for m in mats:
        seen.setdefault(m.tobytes(), m)
    return [seen[k] for k in sorted(seen)]


def decompose(module):
    """Canonical decomposition of the module seed into pure components.

    Refines the whole module, one distinct sampled matrix at a time, into
    the generalized eigenspaces of each matrix on each block, recording on
    every block which matrices act with eigenvalue 0.  The final blocks are
    the joint generalized eigenspaces; blocks where the seed projects to
    zero are dropped and the rest grouped by their sets of
    nilpotently-acting status classes.  Raises SplittingFieldNeededError
    when an eigen-system is not rational over F_p.
    """
    if classify_classes(module).pure:
        nil_status = frozenset(
            u for u, st in module.status_by_class.items() if st == NILPOTENT
        )
        return [PureComponent(module, nil_status, module.f_coords.copy())]
    blocks = [(linalg.identity(module.dim, module.p), {})]
    for mat in _distinct(module.per_prime.values()):
        blocks = [sub for rows, nil in blocks for sub in _eigenspaces(rows, nil, mat, module.p)]
    return _group_blocks(module, blocks)


def _eigenspaces(rows, nil_by_mat, mat, p):
    """The generalized eigenspaces of mat on the block spanned by rows, as blocks."""
    (restr,) = _restrict(rows, [mat], p)
    roots, leftover = linalg.strip_linear_factors(linalg.min_poly(restr, p), p)
    if len(leftover) > 1:
        raise SplittingFieldNeededError(
            "a sampled action has an irreducible factor of degree "
            f"{len(leftover) - 1} in its minimal polynomial over F_{p}"
        )
    ident = linalg.identity(rows.shape[0], p)
    out = []
    for lam in sorted(set(roots)):
        power = linalg.matpow((restr - lam * ident) % p, roots.count(lam), p)
        sub = (linalg.nullspace(power, p) @ rows) % p
        out.append((sub, {**nil_by_mat, mat.tobytes(): lam == 0}))
    return out


def _group_blocks(module, blocks):
    p = module.p
    stacked = np.concatenate([rows for rows, _ in blocks])
    x = linalg.solve_in_rowspan(stacked, module.f_coords, p)
    if x is None:
        raise InternalInvariantError("seed vector escaped the block decomposition")
    # the nilpotent status-class set of each block, validated across samples
    groups = {}
    offset = 0
    for rows, nil_by_mat in blocks:
        d = rows.shape[0]
        part = (x[offset : offset + d] @ rows) % p
        offset += d
        if not part.any():
            continue
        nil_classes = set()
        for u in sorted({ell % module.status_modulus for ell in module.per_prime}):
            flags = {
                nil_by_mat[module.per_prime[ell].tobytes()]
                for ell in module.per_prime
                if ell % module.status_modulus == u
            }
            if len(flags) != 1:
                raise ConductorNotFoundError(
                    f"status class {u} is not nilpotent-consistent on a pure component"
                )
            if flags.pop():
                nil_classes.add(u)
        key = frozenset(nil_classes)
        groups.setdefault(key, np.zeros(module.dim, dtype=np.int64))
        groups[key] = (groups[key] + part) % p
    out = []
    for key in sorted(groups, key=sorted):
        part = groups[key]
        comp = submodule(module, part)
        out.append(PureComponent(comp, key, part))
    return out


def pure_decomposition(f, **build_kwargs):
    """Split a form into its canonical pure summands, as graded forms.

    Purity only needs the action matrices, so the class-determined
    conductor is not required here.
    """
    build_kwargs.setdefault("require_conductor", False)
    module = build_module(f, **build_kwargs)
    return [
        GradedForm(module.vector_to_series(part.coords_in_parent, f.prec), f.weight)
        for part in decompose(module)
    ]


def equidistribution_report(module):
    """Sufficient/necessary equidistribution criteria for the values of the module's seed."""
    gamma = gamma_group(module)
    p = module.p
    shortcut = multiplicative_order(2, p) == p - 1
    converse = False
    scalar_values = ()
    if module.dim == 1:
        invertible = classify_classes(module).invertible_classes
        scalar_values = tuple(
            sorted({int(module.prime_power_matrix(u, 1)[0, 0]) for u in invertible})
        )
        # on a line, Gamma is the group these scalars generate in F_p^x
        converse = gamma.order < p - 1
    return EquidistributionReport(
        criterion_holds=gamma.contains_scalars or shortcut,
        eigenform_converse_applies=converse,
        primitive_root_shortcut=shortcut,
        gamma_order=gamma.order,
        gamma_contains_scalars=gamma.contains_scalars,
        scalar_values=scalar_values,
    )
