"""Command-line interface.

Deterministic output: fixed key order, floats at 12 significant digits,
no randomness (--seed is accepted and ignored).  Exit codes: 0 success,
2 input error, 3 mathematical failure (conductor not found, splitting
field needed), 4 internal invariant failure.

Each command parses and evaluates its form once, builds at most one Hecke
module, and formats what the library's report builders return.
"""

import argparse
import gc
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
from .series import check_prec


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
    import csv  # only csv output needs it: the other commands never load it

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


def _module_prec(args, ast, xmax=0, own_module=True):
    """--prec, or the module work precision for the weight read off a short probe.

    A command that builds the module of the form itself (own_module) meets
    the errors it would meet later before the form is evaluated at
    max(x_max, work precision): the series cap on that precision, then
    build_module's checks through module.ambient_precision.  predict and
    compare build theirs at the weights of the U_p tower, which only the
    evaluated form shows.
    """
    if args.prec:
        return args.prec
    weight = evaluate(ast, args.p, 32).weight
    if not own_module:
        return module_mod.work_precision(weight, args.sample_bound)
    check_prec(max(xmax, module_mod.work_precision(weight, args.sample_bound)))
    return module_mod.ambient_precision(weight, args.sample_bound)


def _evaluate_form(args, prec=None, own_module=True):
    ast = parse_form_expression(args.form, args.p)
    return evaluate(ast, args.p, prec or _module_prec(args, ast, own_module=own_module))


def _evaluate_with_series(args, xmax, own_module=True):
    """One evaluation to max(x_max, module precision): the module's form and the x_max series.

    When x_max is the longer, the x_max series is the evaluated one itself.
    """
    ast = parse_form_expression(args.form, args.p)
    prec = _module_prec(args, ast, xmax, own_module)
    f = evaluate(ast, args.p, max(xmax, prec))
    return GradedForm(f.series.truncate(prec), f.weight), f.series.truncate(xmax)


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
    n, m = args.prec, args.index
    # the input precision that gives n coefficients: T_m and U_m read a_{mn},
    # V_m reads a_{n/m}; V's output, not its input, must stay under the cap
    need = {"T": n * m, "U": n * m, "V": -(-n // m)}.get(args.op, n)
    check_prec(n)
    spec = hecke.HeckeOpSpec(args.op, m)
    f = _evaluate_form(args, prec=need)
    series = hecke.apply_operator(spec, f).truncate(n)
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
    mod.require_conductor()
    prof = densities.module_profile(mod, with_constants=False)
    equi = module_mod.equidistribution_report(mod)
    classes = [
        {
            "class": u,
            "status": status,
            "scalar": hecke.ell_s_ell(u, mod.weight, mod.p),
            "matrix": [[int(x) for x in row] for row in mod.prime_power_matrix(u, 1)],
        }
        for u, status in mod.report.statuses.items()
    ]
    _emit_json(
        {
            "p": args.p,
            "form": args.form,
            "weight": f.weight,
            "dim": mod.dim,
            "conductor": mod.conductor,
            "pure": mod.report.pure,
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
    mod = module_mod.build_module(f, sample_bound=args.sample_bound)
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
    f = _evaluate_form(args, own_module=False)
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


def _count_report(args, qs):
    return counting.count_pi(qs, _checkpoints(args, qs.prec))


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
    _emit_counts(args, _count_report(args, _evaluate_form(args, prec=args.xmax).series))
    return 0


def cmd_compare(args):
    f, qs = _evaluate_with_series(args, args.xmax, own_module=False)
    report = _count_report(args, qs)
    prof = _leading_constants(args, f)
    _emit_counts(args, counting.compare_report(report, prof, args.squarefree), prof)
    return 0


def cmd_oracle(args):
    f, qs = _evaluate_with_series(args, args.xmax)
    comps = counting.oracle_components(f, sample_bound=args.sample_bound)
    matches, total, mismatches = counting.oracle_check(qs, comps, args.xmax)
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
    mod.require_conductor()
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
_COUNT = _FORM + ("--xmax", "--checkpoints", "--out", "--seed")
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
    "compare": (cmd_compare, _PREDICT + ("--out",), dict(xmax=10**6)),
    "oracle": (cmd_oracle, _ORACLE, dict(xmax=10**4)),
    "alpha-group": (cmd_alpha_group, ("--case", "--param"), {}),
    "constants": (cmd_constants, _MODULE + ("--prime-bound",), {}),
}


def build_parser(command=None):
    """The argument parser; given a command name, with that command's flags only.

    The usage line lists every command either way, so argparse's messages
    and exit codes are the full parser's for any command line that starts
    with the given command.
    """
    parser = argparse.ArgumentParser(
        prog="modpforms",
        description="Coefficient statistics of level-one modular forms over F_p",
    )
    # a metavar would also rename the argument in the full parser's messages
    # for a missing or unknown command, which a lazy parser never prints
    listed = {} if command is None else dict(metavar="{" + ",".join(_COMMANDS) + "}")
    sub = parser.add_subparsers(dest="command", required=True, **listed)
    for name, (func, flags, defaults) in _COMMANDS.items():
        if command not in (None, name):
            continue
        # no abbreviations: "alpha-group --p 3" would otherwise set --param
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            flag, keywords = (flag, _FLAGS[flag]) if isinstance(flag, str) else flag
            sp.add_argument(flag, **keywords)
        sp.set_defaults(func=func, **defaults)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # build the invoked command's flags only; help and unknown commands get the full parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    # what the imports built lives as long as the process: frozen, it is not rescanned
    # by the command's collections (unfrozen on return, for in-process callers)
    gc.freeze()
    try:
        args = build_parser(command).parse_args(argv)
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
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
