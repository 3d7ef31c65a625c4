"""The package's records: tuples with named fields, and three plain classes.

Importing the package generates no code: the value records are
typing.NamedTuple classes, the three records with input checks keep them
in a __new__, and HeckeModule, WeightBasis and CountReport are plain
classes.  A cold import of the command line loads neither dataclasses
nor csv, and the command line unfreezes the objects it froze for its
command's collections.
"""

import gc
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import modpforms
from modpforms.basis import GradedForm
from modpforms.densities import (
    AsymptoticProfile,
    ComponentProfile,
    EulerConstant,
    GroupDescriptor,
    PredictedPoint,
    ValueProfile,
)
from modpforms.errors import BudgetExceededError
from modpforms.expr import Atom, BinOp, IntLit, Pow, _DeltaPower
from modpforms.hecke import HeckeOpSpec
from modpforms.module import (
    ClassReport,
    EquidistributionReport,
    GammaGroup,
    HeckeModule,
    PureComponent,
)
from modpforms.series import delta_power

_SERIES = delta_power(3, 1, 8)

# record -> its fields in order, with one value for each
RECORDS = [
    (Atom, {"name": "delta"}),
    (IntLit, {"value": 7}),
    (BinOp, {"op": "+", "left": Atom("E4"), "right": IntLit(1)}),
    (Pow, {"base": Atom("delta"), "exponent": 3}),
    (_DeltaPower, {"coef": 2, "k": 5}),
    (GradedForm, {"series": _SERIES, "weight": 12}),
    (HeckeOpSpec, {"kind": "T", "index": 2}),
    (GroupDescriptor, {"kind": "dihedral", "parameter": 3}),
    (EulerConstant, {"value": 0.5, "tail": 1e-3, "beta": Fraction(1, 2), "prime_bound": 1000}),
    (ValueProfile, {"h": 1, "c": 0.25, "err": 0.01}),
    (
        AsymptoticProfile,
        {"alpha": Fraction(1, 2), "h": 0, "c": 0.3, "c_err": 0.0, "per_value": {},
         "degenerate": False},
    ),
    (
        ComponentProfile,
        {"alpha": Fraction(1, 2), "h": 0, "c": 0.0, "c_err": 0.0, "per_value": {},
         "report": None, "module": None},
    ),
    (PredictedPoint, {"x": 100.0, "value": 20.0, "low": 19.0, "high": 21.0}),
    (
        ClassReport,
        {"modulus": 3, "statuses": {1: "invertible", 2: "nilpotent"},
         "nilpotent_classes": (2,), "invertible_classes": (1,), "mixed_classes": (),
         "pure": True},
    ),
    (GammaGroup, {"elements": ("g",), "contains_scalars": False}),
    (PureComponent, {"module": None, "nil_classes": frozenset({2}), "coords_in_parent": None}),
    (
        EquidistributionReport,
        {"criterion_holds": True, "eigenform_converse_applies": False,
         "primitive_root_shortcut": True, "gamma_order": 2, "gamma_contains_scalars": True,
         "scalar_values": (1, 2)},
    ),
]
_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=_IDS)
def test_record_keeps_field_order_and_keywords(cls, fields):
    assert cls._fields == tuple(fields)
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert type(by_keyword) is cls
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
    assert tuple(by_position) == tuple(by_keyword) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields", RECORDS, ids=_IDS)
def test_record_rejects_attribute_assignment(cls, fields):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        record.not_a_field = 1  # no instance dict either
    assert record._replace(**{name: fields[name]}) == record


def test_record_reprs_name_their_class():
    assert repr(HeckeOpSpec("U", 3)) == "HeckeOpSpec(kind='U', index=3)"
    assert repr(Pow(Atom("delta"), 2)) == "Pow(base=Atom(name='delta'), exponent=2)"


def test_defaults():
    assert HeckeOpSpec("T") == ("T", 1)
    assert GroupDescriptor("A4").parameter == 0
    prof = AsymptoticProfile(Fraction(1, 2), 0, 1.0, 0.0)
    assert prof.per_value is None and prof.degenerate is False


class TestInputChecks:
    def test_graded_form_weight(self):
        for weight in (3, -2):
            with pytest.raises(ValueError, match="non-negative even integer"):
                GradedForm(_SERIES, weight)

    def test_operator_kind_and_index(self):
        with pytest.raises(ValueError, match="unknown operator kind 'Q'"):
            HeckeOpSpec("Q")
        with pytest.raises(ValueError, match="operator index must be positive"):
            HeckeOpSpec("T", 0)

    def test_w_takes_index_one_only(self):
        assert HeckeOpSpec("W", 1).index == 1
        with pytest.raises(ValueError, match="W takes index 1 only, got 5"):
            HeckeOpSpec("W", 5)

    @pytest.mark.parametrize(
        "kind, parameter, error, message",
        [
            ("A6", 0, ValueError, "unknown group kind 'A6'"),
            ("dihedral", 0, ValueError, "dihedral needs a positive order parameter"),
            ("PSL2", 6, ValueError, "PSL2 needs an odd prime power, got 6"),
            ("PGL2", 10**13, BudgetExceededError, "exceeds the cap"),
        ],
    )
    def test_group_descriptor(self, kind, parameter, error, message):
        with pytest.raises(error, match=message):
            GroupDescriptor(kind, parameter)
        assert "PSL2" in GroupDescriptor.KINDS


def _synthetic_module():
    eye = np.eye(1, dtype=np.int64)
    return HeckeModule(
        3, 12, None, eye, eye.astype(np.uint8), {2: eye}, None, None,
        "a synthetic module has no class table", 3, {1: "invertible", 2: "invertible"},
        np.ones(1, dtype=np.int64),
    )


def test_hecke_module_equality_is_identity():
    m, twin = _synthetic_module(), _synthetic_module()
    assert m == m and m != twin
    assert len({m, twin, m}) == 2
    assert m.report.invertible_classes == (1, 2) and m.report.pure


def test_cold_cli_import_loads_neither_dataclasses_nor_csv():
    src = Path(modpforms.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    code = "import sys, modpforms.cli; print(sorted({'dataclasses', 'csv'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_main_unfreezes_what_it_froze(capsys):
    from modpforms import cli

    assert cli.main(["expand", "--p", "3", "--form", "delta", "--prec", "4"]) == 0
    assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        cli.main(["expand", "--p", "3"])
    assert gc.get_freeze_count() == 0
    capsys.readouterr()
