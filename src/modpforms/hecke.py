"""Hecke-type operators on q-expansions at level one.

The prime-index operator acts by a_n -> a_{ln} + l^{k-1} a_{n/l} (the
diamond action is trivial at level one, so the l*S_l scalar is l^{k-1}
read from the weight lift).  Composite indices coprime to p are reduced
to prime powers through T_{l^{n+1}} = T_{l^n} T_l - l S_l T_{l^{n-1}}
and multiplicativity.  Every operator records its exact output precision:
T_l divides the known coefficient range by l.
"""

from dataclasses import dataclass

import numpy as np

from . import series
from .arith import factorize, is_prime
from .basis import GradedForm
from .series import QSeries


@dataclass(frozen=True)
class HeckeOpSpec:
    """Symbolic operator name: kind in {T, U, V, W, S} plus an index."""

    kind: str
    index: int = 1

    def __post_init__(self):
        if self.kind not in ("T", "U", "V", "W", "S"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.index < 1:
            raise ValueError("operator index must be positive")


def ell_s_ell(ell, weight, p):
    """The scalar l*S_l = l^{k-1} mod p attached to a weight-k lift."""
    return pow(ell, weight - 1, p)


def t_ell_coefficients(a, ell, weight, prec, p):
    """The first prec coefficients a_{ln} + l^{k-1} a_{n/l} of T_l along the last axis of a."""
    out = a[..., : ell * prec : ell].astype(np.int64)
    out[..., ::ell] += ell_s_ell(ell, weight, p) * a[..., : (prec - 1) // ell + 1].astype(np.int64)
    return out % p


def apply_T_ell(f, ell):
    """Prime-index Hecke operator; output precision floor(prec / l)."""
    p = f.p
    if ell == p:
        raise ValueError("index equals the characteristic; use apply_U_m")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    out_prec = f.prec // ell
    if out_prec < 1:
        raise ValueError(f"precision {f.prec} too small for T_{ell}")
    coeffs = t_ell_coefficients(f.series.coeffs, ell, f.weight, out_prec, p)
    return GradedForm(QSeries(p, coeffs), f.weight)


def _t_prime_power(f, ell, e):
    """T_{l^e} via the three-term recurrence, tracking shrinking precision."""
    if e == 0:
        return f
    s = ell_s_ell(ell, f.weight, p := f.p)
    prev, cur = f, apply_T_ell(f, ell)
    for _ in range(e - 1):
        nxt = apply_T_ell(cur, ell)
        trimmed = prev.series.coeffs[: nxt.prec].astype(np.int64)
        coeffs = (nxt.series.coeffs.astype(np.int64) - s * trimmed) % p
        prev, cur = cur, GradedForm(QSeries(p, coeffs), f.weight)
    return cur


def apply_T_m(f, m):
    """Composite Hecke operator for m coprime to the characteristic."""
    if m < 1:
        raise ValueError("index must be positive")
    if m % f.p == 0:
        raise ValueError("index shares a factor with the characteristic")
    if f.prec // m < 1:
        raise ValueError(f"precision {f.prec} too small for T_{m}")
    out = f
    for ell, e in sorted(factorize(m).items()):
        out = _t_prime_power(out, ell, e)
    return out


def apply_S_m(f, m):
    """Scalar operator S_m = m^(k-2) at level one, for m coprime to p."""
    if m % f.p == 0:
        raise ValueError("index shares a factor with the characteristic")
    s = pow(m, f.weight - 2, f.p)
    return GradedForm(s * f.series, f.weight)


def _check_p_power(m, p):
    j = 0
    while m % p == 0:
        m //= p
        j += 1
    if m != 1:
        raise ValueError(f"index must be a power of {p} at level one")
    return j


def apply_U_m(f, m):
    """a_n -> a_{mn} for m a power of the characteristic; precision floor(prec/m)."""
    _check_p_power(m, f.p)
    if m == 1:
        return f
    out_prec = f.prec // m
    if out_prec < 1:
        raise ValueError(f"precision {f.prec} too small for U_{m}")
    return QSeries(f.p, f.coeffs[: m * out_prec : m])


def apply_V_m(f, m):
    """Index dilation a_n -> coefficient at q^{mn}; precision m*prec, capped at series.MAX_PREC."""
    _check_p_power(m, f.p)
    if m == 1:
        return f
    out_prec = min(m * f.prec, series.MAX_PREC)
    out = np.zeros(out_prec, dtype=np.uint8)
    src = f.coeffs[: (out_prec - 1) // m + 1]
    out[: m * len(src) : m] = src
    return QSeries(f.p, out)


def apply_W(f):
    """Projector onto coefficients at indices coprime to p (index 0 included)."""
    out = f.coeffs.copy()
    out[:: f.p] = 0
    return QSeries(f.p, out)


def apply_operator(spec, f):
    """Dispatch a HeckeOpSpec to a QSeries; T and S need f as a GradedForm (a weight lift)."""
    if spec.kind in ("T", "S"):
        apply = apply_T_m if spec.kind == "T" else apply_S_m
        return apply(f, spec.index).series
    s = f.series if isinstance(f, GradedForm) else f
    if spec.kind == "U":
        return apply_U_m(s, spec.index)
    if spec.kind == "V":
        return apply_V_m(s, spec.index)
    return apply_W(s)
