"""Command-line interface.

Deterministic output: fixed key order, floats at 12 significant digits,
no randomness (--seed is accepted and ignored).  Exit codes: 0 success,
2 input error, 3 mathematical failure (conductor not found, splitting
field needed), 4 internal invariant failure.

Each command parses and evaluates its form once, builds at most one Hecke
module, and formats what the library's report builders return.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import numpy as np

from . import counting, densities, hecke, module as module_mod
from .basis import GradedForm
from .densities import GroupDescriptor, alpha_of_group
from .errors import (
    BudgetExceededError,
    ConductorNotFoundError,
    FormSyntaxError,
    InternalInvariantError,
    ModpFormsError,
    NotInSpanError,
    SplittingFieldNeededError,
)
from .expr import evaluate, parse_form_expression


def _fmt_float(x):
    return f"{x:.12g}"


def _ser(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _ser(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _ser(v, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, Fraction):
        out.append(json.dumps(str(obj)))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(str(obj)))


def canonical_json(obj):
    out = []
    _ser(obj, out)
    return "".join(out)


def _emit_json(payload):
    sys.stdout.write(canonical_json(payload) + "\n")


def _emit_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_fmt_float(v) if isinstance(v, float) else v for v in row]
        )
    sys.stdout.write(buf.getvalue())


def _parse_checkpoints(text):
    return [int(t) for t in text.split(",") if t.strip()]


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _module_prec(args, ast):
    """--prec, or the module work precision for the weight read off a short probe."""
    if args.prec:
        return args.prec
    return module_mod.work_precision(evaluate(ast, args.p, 32).weight, args.sample_bound)


def _evaluate_form(args, prec=None):
    ast = parse_form_expression(args.form, args.p)
    return evaluate(ast, args.p, prec or _module_prec(args, ast))


def _evaluate_with_table(args, xmax):
    """One evaluation to max(x_max, module precision): the module's form and the x_max table."""
    ast = parse_form_expression(args.form, args.p)
    prec = _module_prec(args, ast)
    f = evaluate(ast, args.p, max(xmax, prec))
    return GradedForm(f.series.truncate(prec), f.weight), counting.table_of_series(f.series, xmax)


def _leading_constants(args, f):
    return densities.profile(
        f,
        squarefree=args.squarefree,
        prime_bound=args.prime_bound,
        sfull_bound=args.sfull_bound,
        sample_bound=args.sample_bound,
    )


def _per_value_payload(profile):
    out = {}
    for a in sorted(profile.per_value):
        v = profile.per_value[a]
        out[str(a)] = None if v is None else {"h": v.h, "c": v.c, "err": v.err}
    return out


def cmd_expand(args):
    f = _evaluate_form(args, prec=args.prec)
    coeffs = [int(c) for c in f.series.coeffs]
    if args.out == "csv":
        _emit_csv(["n", "a_n"], list(enumerate(coeffs)))
    else:
        _emit_json(
            {"p": args.p, "form": args.form, "weight": f.weight, "prec": f.prec, "coeffs": coeffs}
        )
    return 0


def cmd_hecke(args):
    need = args.prec * args.index
    f = _evaluate_form(args, prec=need)
    spec = hecke.HeckeOpSpec(args.op, args.index)
    series = hecke.apply_operator(spec, f)
    coeffs = [int(c) for c in series.coeffs]
    payload = {
        "p": args.p,
        "form": args.form,
        "op": args.op,
        "index": args.index,
        "weight": f.weight,
        "prec": series.prec,
        "coeffs": coeffs,
    }
    if args.out == "csv":
        _emit_csv(["n", "a_n"], list(enumerate(coeffs)))
    else:
        _emit_json(payload)
    return 0


def cmd_module(args):
    f = _evaluate_form(args)
    mod = module_mod.build_module(f, sample_bound=args.sample_bound)
    report = module_mod.classify_classes(mod)
    prof = densities.module_profile(mod, with_constants=False)
    equi = module_mod.equidistribution_report(mod)
    classes = []
    for u in mod.classes:
        classes.append(
            {
                "class": u,
                "status": report.statuses[u],
                "scalar": mod.scalar_map[u],
                "matrix": [[int(x) for x in row] for row in mod.prime_power_matrix(u, 1)],
            }
        )
    _emit_json(
        {
            "p": args.p,
            "form": args.form,
            "weight": f.weight,
            "dim": mod.dim,
            "conductor": mod.conductor,
            "pure": report.pure,
            "alpha": prof.alpha,
            "h": prof.h,
            "classes": classes,
            "gamma_order": equi.gamma_order,
            "gamma_contains_scalars": equi.gamma_contains_scalars,
            "equidistribution": {
                "criterion_holds": equi.criterion_holds,
                "eigenform_converse_applies": equi.eigenform_converse_applies,
                "primitive_root_shortcut": equi.primitive_root_shortcut,
            },
        }
    )
    return 0


def cmd_decompose(args):
    f = _evaluate_form(args)
    mod = module_mod.build_module(f, sample_bound=args.sample_bound, require_conductor=False)
    payload_parts = []
    for pp in densities.component_profiles(mod, with_constants=False):
        sub = pp.module
        payload_parts.append(
            {
                "dim": sub.dim,
                "conductor": sub.conductor,
                "class_modulus": pp.report.modulus,
                "nil_classes": sorted(pp.report.nilpotent_classes),
                "alpha": pp.alpha,
                "h": pp.h,
                "coeffs_prefix": [
                    int(c) for c in sub.vector_to_series(sub.f_coords, 16).coeffs
                ],
            }
        )
    _emit_json(
        {
            "p": args.p,
            "form": args.form,
            "weight": f.weight,
            "components": payload_parts,
        }
    )
    return 0


def cmd_predict(args):
    f = _evaluate_form(args)
    prof = _leading_constants(args, f)
    payload = {
        "p": args.p,
        "form": args.form,
        "squarefree": bool(args.squarefree),
        "degenerate": prof.degenerate,
    }
    if not prof.degenerate:
        payload.update(
            {
                "alpha": prof.alpha,
                "h": prof.h,
                "c": prof.c,
                "c_err": prof.c_err,
                "per_value": _per_value_payload(prof),
            }
        )
        marks = args.checkpoints or (str(args.xmax) if args.xmax else None)
        if marks:
            points = densities.predict(prof, _parse_checkpoints(marks))
            payload["predictions"] = [
                {"x": pt.x, "value": pt.value, "low": pt.low, "high": pt.high}
                for pt in points
            ]
    _emit_json(payload)
    return 0


def _checkpoints(args, xmax):
    """--checkpoints up to x_max, or the default checkpoints up to x_max and x_max itself."""
    if args.checkpoints:
        return [c for c in _parse_checkpoints(args.checkpoints) if c <= xmax] or [xmax]
    marks = [c for c in counting.DEFAULT_CHECKPOINTS if c <= xmax]
    return marks if xmax in marks else marks + [xmax]


def _count_report(args, table):
    checkpoints = _checkpoints(args, table.x_max)
    report = counting.count_pi(table, checkpoints, by_value=True, threads=args.threads)
    report.pi_sf = counting.count_pi_sf(table, checkpoints, threads=args.threads).pi_sf
    return report


def _emit_counts(args, report, prof=None):
    """The count table; compare passes its profile and gets the prediction columns."""
    values = sorted(report.per_value)
    compare = prof is not None
    if args.out == "csv":
        predicted = ["predicted", "ratio"] if compare else []
        rows = []
        for i, x in enumerate(report.checkpoints):
            row = [x, report.pi[i], report.pi_sf[i]]
            if compare:
                row += [float(report.predicted[i]), float(report.ratios[i])]
            rows.append(row + [report.per_value[a][i] for a in values])
        _emit_csv(["x", "pi", "pi_sf"] + predicted + [f"a={a}" for a in values], rows)
        return
    payload = {"p": args.p, "form": args.form}
    if compare:
        payload.update(
            {"squarefree": bool(args.squarefree), "alpha": prof.alpha, "h": prof.h, "c": prof.c}
        )
    payload.update({"checkpoints": report.checkpoints, "pi": report.pi, "pi_sf": report.pi_sf})
    if compare:
        payload.update({"predicted": report.predicted, "ratio": report.ratios})
    payload["per_value"] = {str(a): report.per_value[a] for a in values}
    _emit_json(payload)


def cmd_count(args):
    table = counting.table_of_series(_evaluate_form(args, prec=args.xmax).series)
    _emit_counts(args, _count_report(args, table))
    return 0


def cmd_compare(args):
    f, table = _evaluate_with_table(args, args.xmax)
    report = _count_report(args, table)
    prof = _leading_constants(args, f)
    _emit_counts(args, counting.compare_report(report, prof, args.squarefree), prof)
    return 0


def cmd_oracle(args):
    f, table = _evaluate_with_table(args, args.xmax)
    comps = counting.oracle_components(f, sample_bound=args.sample_bound)
    matches, total, mismatches = counting.oracle_check(table, comps, args.xmax)
    if args.out == "json":
        _emit_json(
            {
                "p": args.p,
                "form": args.form,
                "xmax": args.xmax,
                "matches": matches,
                "checked": total,
                "mismatches": [list(m) for m in mismatches],
            }
        )
    else:
        sys.stdout.write(f"match: {matches}/{total}\n")
    return 0 if matches == total else 1


def cmd_alpha_group(args):
    descriptor = GroupDescriptor(args.case, args.param)
    _emit_json(
        {
            "case": args.case,
            "param": args.param,
            "alpha": alpha_of_group(descriptor),
        }
    )
    return 0


def cmd_constants(args):
    f = _evaluate_form(args)
    mod = module_mod.build_module(f, sample_bound=args.sample_bound)
    payload_parts = []
    for pp in densities.component_profiles(mod, with_constants=False):
        cu = pp.euler_constant(args.prime_bound)
        payload_parts.append(
            {
                "conductor": pp.module.conductor,
                "invertible_classes": sorted(pp.report.invertible_classes),
                "beta": 1 - pp.alpha,
                "value": cu.value,
                "tail": cu.tail,
                "prime_bound": cu.prime_bound,
            }
        )
    _emit_json({"p": args.p, "form": args.form, "components": payload_parts})
    return 0


# every flag a command may take; each command declares the ones it reads
_FLAGS = {
    "--p": dict(type=int, required=True),
    "--form": dict(required=True),
    "--prec": dict(type=_positive_int, default=None),
    "--xmax": dict(type=_positive_int, default=None),
    "--checkpoints": dict(default=None),
    "--sample-bound": dict(type=int, default=module_mod.DEFAULT_SAMPLE_BOUND),
    "--prime-bound": dict(type=int, default=densities.DEFAULT_PRIME_BOUND),
    "--sfull-bound": dict(type=int, default=densities.DEFAULT_SFULL_BOUND),
    "--squarefree": dict(action="store_true"),
    "--out": dict(choices=("json", "csv"), default="json"),
    "--seed": dict(type=int, default=0),
    "--threads": dict(type=int, default=1),
    "--op": dict(choices=("T", "U", "V", "W", "S"), required=True),
    "--index": dict(type=_positive_int, default=1),
    "--case": dict(required=True, choices=GroupDescriptor.KINDS),
    "--param": dict(type=int, default=0),
}
_FORM = ("--p", "--form")
# no command reads --seed: the seven commands that take it accept it only
# because the benchmark runner (perfbench/run.py) appends one to every job
_MODULE = _FORM + ("--prec", "--sample-bound", "--seed")
_PREDICT = _MODULE + ("--squarefree", "--prime-bound", "--sfull-bound", "--xmax", "--checkpoints")
_COUNT = _FORM + ("--xmax", "--checkpoints", "--threads", "--out", "--seed")
# oracle prints the bare match line unless asked for --out json
_ORACLE = _FORM + ("--xmax", "--prec", "--sample-bound", "--seed")
_ORACLE += (("--out", dict(choices=("text", "json"), default="text")),)

# command -> (handler, flags, defaults); a flag is a key of _FLAGS or a
# (flag, keywords) pair of its own
_COMMANDS = {
    "expand": (cmd_expand, _FORM + ("--prec", "--out"), dict(prec=64)),
    "hecke": (cmd_hecke, _FORM + ("--prec", "--out", "--op", "--index"), dict(prec=64)),
    "module": (cmd_module, _MODULE, {}),
    "decompose": (cmd_decompose, _MODULE, {}),
    "predict": (cmd_predict, _PREDICT, {}),
    "count": (cmd_count, _COUNT, dict(xmax=10**6)),
    "compare": (cmd_compare, _PREDICT + ("--threads", "--out"), dict(xmax=10**6)),
    "oracle": (cmd_oracle, _ORACLE, dict(xmax=10**4)),
    "alpha-group": (cmd_alpha_group, ("--case", "--param"), {}),
    "constants": (cmd_constants, _MODULE + ("--prime-bound",), {}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modpforms",
        description="Coefficient statistics of level-one modular forms over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags, defaults) in _COMMANDS.items():
        # no abbreviations: "alpha-group --p 3" would otherwise set --param
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            flag, keywords = (flag, _FLAGS[flag]) if isinstance(flag, str) else flag
            sp.add_argument(flag, **keywords)
        sp.set_defaults(func=func, **defaults)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("--threads must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConductorNotFoundError, SplittingFieldNeededError) as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 3
    except (BudgetExceededError, FormSyntaxError, NotInSpanError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ModpFormsError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
