"""Coefficient statistics of level-one modular forms over prime fields.

The package computes every ingredient of the asymptotic count of nonzero
q-expansion coefficients (finite Hecke modules, purity, the density
exponent alpha, the nilpotence order h, frobenian densities and the
Euler-product leading constants) and validates them against direct
coefficient counting and an exact decomposition oracle, which re-derives
every coefficient at an index coprime to p by a prime-power sieve.
"""

from .basis import GradedForm, WeightBasis, from_coordinates, miller_basis, to_coordinates
from .counting import (
    CountReport,
    coefficient_table,
    count_pi,
    count_pi_sf,
    decomposition_oracle,
    oracle_check,
    oracle_components,
)
from .densities import (
    AsymptoticProfile,
    GroupDescriptor,
    alpha_of_group,
    class_density,
    euler_constant_C,
    multi_frobenian_density,
    predict,
    profile,
)
from .errors import (
    ConductorNotFoundError,
    FormSyntaxError,
    InternalInvariantError,
    ModpFormsError,
    NotInSpanError,
    SpanNotClosedError,
    SplittingFieldNeededError,
)
from .expr import evaluate, parse_form_expression
from .hecke import (
    HeckeOpSpec,
    apply_T_ell,
    apply_T_m,
    apply_U_m,
    apply_V_m,
    apply_W,
)
from .module import (
    HeckeModule,
    build_module,
    decompose,
    equidistribution_report,
    gamma_group,
    strict_nilpotence_order,
    submodule,
)
from .series import QSeries, delta_power, eisenstein, eta_cubed

__version__ = "0.1.0"
