import argparse
import csv
import importlib
import io
import json
import sys

import numpy as np
import pytest

from modpforms import hecke, kernels, series
from modpforms.cli import build_parser, canonical_json, main
from modpforms.errors import BudgetExceededError
from modpforms.expr import evaluate, parse_form_expression


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def count_calls(monkeypatch, module_name, name, record=None):
    """Count the calls of a package function through every modpforms module binding it.

    Each call appends ``record(*args, **kwargs)``, or the function's name.
    """
    original = getattr(importlib.import_module(f"modpforms.{module_name}"), name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(record(*args, **kwargs) if record else name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "modpforms":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


class TestCanonicalJson:
    def test_float_format(self):
        assert canonical_json({"x": 0.29134567890123456}) == '{"x": 0.291345678901}'

    def test_fraction_and_types(self):
        from fractions import Fraction

        s = canonical_json(
            {"a": Fraction(1, 2), "b": [True, None, 3], "c": "t"}
        )
        assert s == '{"a": "1/2", "b": [true, null, 3], "c": "t"}'
        json.loads(s)


class TestModuleCommand:
    def test_delta_square_mod3(self, capsys):
        code, out, _ = run_cli(
            capsys, "module", "--p", "3", "--form", "delta^2", "--sample-bound", "600"
        )
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 2
        assert data["conductor"] == 9
        assert data["pure"] is True
        assert data["h"] == 1
        assert data["alpha"] == "1/2"
        by_class = {c["class"]: c for c in data["classes"]}
        assert by_class[1]["matrix"] == [[2, 0], [0, 2]]
        assert by_class[2]["status"] == "nilpotent"
        assert data["equidistribution"]["criterion_holds"] is True

    def test_deterministic_output(self, capsys):
        args = ("module", "--p", "3", "--form", "delta^2", "--sample-bound", "600")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSeedIsIgnored:
    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "--p", "7", "--form", "delta^2-delta"),
            ("predict", "--p", "7", "--form", "delta^2", "--squarefree"),
        ],
    )
    def test_same_output_for_every_seed(self, capsys, argv):
        runs = [run_cli(capsys, *argv, "--seed", seed) for seed in ("0", "1", "2")]
        assert runs[0][0] == 0
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestPredictCommand:
    def test_mod7_squarefree(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "predict", "--p", "7", "--form", "delta^2", "--squarefree",
            "--prime-bound", "200000", "--sample-bound", "600",
        )
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == "1/6"
        assert data["h"] == 0
        assert abs(data["c"] - 0.5976) < 5e-4

    def test_degenerate_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "predict", "--p", "3", "--form", "delta^9", "--squarefree",
            "--prec", "20000", "--sample-bound", "600",
        )
        assert code == 0
        assert json.loads(out)["degenerate"] is True


class TestExpandAndHecke:
    def test_expand_json(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--p", "3", "--form", "delta", "--prec", "14")
        data = json.loads(out)
        assert code == 0
        assert data["coeffs"] == [0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 2]

    def test_expand_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--p", "3", "--form", "delta", "--prec", "5", "--out", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "a_n"]
        assert rows[2] == ["1", "1"]

    def test_hecke_t2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hecke", "--p", "3", "--form", "delta^2", "--op", "T", "--index", "2",
            "--prec", "20",
        )
        data = json.loads(out)
        assert code == 0
        assert data["coeffs"][:8] == [0, 1, 0, 0, 1, 0, 0, 2]  # the cusp form

    def test_hecke_w(self, capsys):
        code, out, _ = run_cli(
            capsys, "hecke", "--p", "3", "--form", "delta", "--op", "W", "--prec", "12"
        )
        data = json.loads(out)
        assert data["coeffs"] == [0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0]

    @pytest.mark.parametrize(
        "p,op,index",
        [(3, "T", 1), (3, "U", 1), (3, "V", 1), (3, "W", 1), (5, "S", 1)]
        + [(5, "T", 6), (3, "U", 3), (3, "V", 3), (3, "V", 9), (3, "W", 5), (5, "S", 2)],
    )
    def test_hecke_prints_prec_coefficients(self, capsys, p, op, index):
        n = 20
        code, out, _ = run_cli(
            capsys, "hecke", "--p", str(p), "--form", "delta", "--op", op,
            "--index", str(index), "--prec", str(n),
        )
        f = evaluate(parse_form_expression("delta", p), p, 4 * n * index)
        expect = hecke.apply_operator(hecke.HeckeOpSpec(op, index), f).coeffs[:n]
        data = json.loads(out)
        assert code == 0
        assert data["prec"] == n and data["coeffs"] == expect.tolist()


class TestCountsAndOracle:
    def test_count_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count", "--p", "3", "--form", "delta", "--xmax", "10000",
            "--checkpoints", "1000,10000",
        )
        data = json.loads(out)
        assert code == 0
        assert data["checkpoints"] == [1000, 10000]
        assert data["pi"][0] > 0
        assert data["pi_sf"][0] <= data["pi"][0]
        assert sum(data["per_value"][a][1] for a in ("1", "2")) == data["pi"][1]

    def test_unsorted_checkpoints_label_their_counts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count", "--p", "3", "--form", "delta", "--xmax", "10000",
            "--checkpoints", "10000,1000",
        )
        data = json.loads(out)
        assert code == 0
        assert data["checkpoints"] == [1000, 10000]
        assert data["pi"][0] < data["pi"][1]

    def test_count_reports_xmax_after_default_checkpoints(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--p", "5", "--form", "E6*delta", "--xmax", "50000"
        )
        data = json.loads(out)
        assert code == 0
        assert data["checkpoints"] == [1000, 10000, 50000]
        assert len(data["pi"]) == len(data["pi_sf"]) == 3

    def test_compare_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--p", "3", "--form", "delta", "--xmax", "10000",
            "--checkpoints", "1000,10000", "--squarefree",
            "--prime-bound", "100000", "--sample-bound", "600", "--out", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["x", "pi", "pi_sf", "predicted", "ratio", "a=1", "a=2"]
        assert len(rows) == 3

    @pytest.mark.parametrize("form,p", [("E4*delta", 7), ("E6", 251)])
    def test_count_matches_a_per_index_tally(self, capsys, monkeypatch, form, p):
        # one counting pass: the square-free counts come with the plain ones
        passes = count_calls(monkeypatch, "kernels", "count_segments")
        masked = count_calls(monkeypatch, "kernels", "count_segments_masked")
        code, out, _ = run_cli(
            capsys, "count", "--p", str(p), "--form", form, "--xmax", "2000",
            "--checkpoints", "0,5,5",
        )
        data = json.loads(out)
        assert code == 0 and len(passes) == 1 and masked == []
        coeffs = json.loads(
            run_cli(capsys, "expand", "--p", str(p), "--form", form, "--prec", "5")[1]
        )["coeffs"]
        squarefree = [False, True, True, True, False]
        assert data["checkpoints"] == [0, 5, 5]
        assert data["pi"] == [0] + [sum(1 for c in coeffs if c)] * 2
        assert data["pi_sf"] == [0] + [sum(1 for c, sf in zip(coeffs, squarefree) if c and sf)] * 2
        assert data["per_value"] == {
            str(a): [0] + [coeffs.count(a)] * 2 for a in range(1, p)
        }

    def test_oracle_match_line(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--p", "3", "--form", "delta^2", "--xmax", "2000",
            "--sample-bound", "600",
        )
        assert code == 0
        assert out.strip() == "match: 1333/1333"

    def test_oracle_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--p", "3", "--form", "delta", "--xmax", "1000",
            "--sample-bound", "600", "--out", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert data["matches"] == data["checked"]
        assert data["mismatches"] == []

    def test_oracle_json_reports_mismatches_and_exits_1(self, capsys, monkeypatch):
        # flip 31 coefficients handed to the oracle, all at n = 1 mod 3; the first 20 are listed
        from modpforms import counting

        flipped = list(range(1, 1000, 33))
        check = counting.oracle_check

        def corrupted(qs, components, X):
            coeffs = qs.coeffs.copy()
            coeffs[flipped] = (coeffs[flipped] + 1) % 3
            return check(series.QSeries(qs.p, coeffs), components, X)

        monkeypatch.setattr(counting, "oracle_check", corrupted)
        argv = ("oracle", "--p", "3", "--form", "delta", "--xmax", "1000", "--sample-bound", "600")
        code, out, _ = run_cli(capsys, *argv, "--out", "json")
        truth = series.delta_power(3, 1, 1000).coeffs
        data = json.loads(out)
        assert code == 1
        assert (data["matches"], data["checked"]) == (666 - 31, 666)
        assert data["mismatches"] == [[n, int(truth[n]), (int(truth[n]) + 1) % 3] for n in flipped[:20]]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (1, "match: 635/666\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--p", "3", "--form", "delta", "--xmax", "10000"),
            (
                "compare", "--p", "3", "--form", "delta", "--xmax", "10000", "--squarefree",
                "--prime-bound", "100000", "--sample-bound", "600",
            ),
            ("oracle", "--p", "3", "--form", "delta", "--xmax", "10000", "--sample-bound", "600"),
        ],
    )
    def test_counts_read_the_evaluated_series(self, capsys, monkeypatch, argv):
        # past the module precision, counts and the oracle get the evaluated series, not a copy
        from modpforms import cli, counting

        evaluated, handed = [], []
        evaluate_form = cli.evaluate

        def spy_evaluate(*args):
            form = evaluate_form(*args)
            evaluated.append(form.series)
            return form

        monkeypatch.setattr(cli, "evaluate", spy_evaluate)
        for name in ("count_pi", "oracle_check"):

            def spy(qs, *args, original=getattr(counting, name)):
                handed.append(qs)
                return original(qs, *args)

            monkeypatch.setattr(counting, name, spy)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(handed) == 1 and handed[0] is evaluated[-1]
        assert handed[0].prec == 10000


class TestWorkPerCommand:
    def test_module_builds_one_module(self, capsys, monkeypatch):
        builds = count_calls(monkeypatch, "module", "build_module")
        code, _, _ = run_cli(
            capsys, "module", "--p", "3", "--form", "delta^2", "--sample-bound", "600"
        )
        assert code == 0
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            (
                "compare", "--p", "3", "--form", "delta", "--xmax", "10000",
                "--squarefree", "--prime-bound", "100000", "--sample-bound", "600",
            ),
            ("oracle", "--p", "3", "--form", "delta^2", "--xmax", "2000", "--sample-bound", "600"),
        ],
    )
    def test_form_evaluated_once_after_the_weight_probe(self, capsys, monkeypatch, argv):
        evaluations = count_calls(monkeypatch, "expr", "evaluate")
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(evaluations) <= 2

    def test_predict_checks_each_layer_at_full_precision_once(self, capsys, monkeypatch):
        precisions = count_calls(
            monkeypatch, "basis", "to_coordinates", record=lambda f, basis: f.prec
        )
        builds = count_calls(monkeypatch, "module", "build_module")
        code, _, _ = run_cli(capsys, "predict", "--p", "3", "--form", "delta")
        assert code == 0
        assert precisions.count(max(precisions)) == len(builds) >= 1

    @pytest.mark.parametrize("index", [101, 1001])
    def test_series_outside_every_weight_is_input_error(self, capsys, monkeypatch, index):
        # one coefficient off, inside and beyond the weight-lift probe
        from modpforms import cli, expr
        from modpforms.basis import GradedForm
        from modpforms.series import QSeries

        def corrupted(ast, p, prec):
            f = expr.evaluate(ast, p, prec)
            if prec <= index:
                return f
            coeffs = f.series.coeffs.copy()
            coeffs[index] = (int(coeffs[index]) + 1) % p
            return GradedForm(QSeries(p, coeffs), f.weight)

        monkeypatch.setattr(cli, "evaluate", corrupted)
        code, _, err = run_cli(capsys, "predict", "--p", "3", "--form", "delta")
        assert code == 2
        assert "input error" in err


class TestAlphaGroupAndConstants:
    def test_alpha_group(self, capsys):
        code, out, _ = run_cli(capsys, "alpha-group", "--case", "dihedral", "--param", "2")
        assert code == 0
        assert json.loads(out)["alpha"] == "3/4"

    def test_alpha_group_psl2(self, capsys):
        code, out, _ = run_cli(capsys, "alpha-group", "--case", "PSL2", "--param", "5")
        assert json.loads(out)["alpha"] == "1/4"

    def test_constants(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "constants", "--p", "3", "--form", "delta",
            "--prime-bound", "100000", "--sample-bound", "600",
        )
        data = json.loads(out)
        assert code == 0
        comp = data["components"][0]
        assert comp["beta"] == "1/2"
        assert abs(comp["value"] - 0.2913) < 5e-4
        assert comp["tail"] < 5e-4


class TestExitCodes:
    def test_syntax_error_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--p", "3", "--form", "E5")
        assert code == 2
        assert "input error" in err

    def test_ambient_cap_is_input_error(self, capsys, monkeypatch):
        from modpforms import module

        monkeypatch.setattr(module, "AMBIENT_CAP", 1000)
        code, _, err = run_cli(
            capsys, "module", "--p", "3", "--form", "delta^2", "--sample-bound", "600"
        )
        assert code == 2
        assert err == (
            "input error: the weight-24 basis at 1209 coefficients has 3627 entries, "
            "above the cap 1000\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("module",),
            ("decompose",),
            ("constants", "--prime-bound", "1000"),
            ("oracle", "--xmax", "100"),
        ],
    )
    def test_ambient_cap_is_checked_before_evaluation(self, capsys, monkeypatch, argv):
        # the cap and its message as in test_ambient_cap_is_input_error, while
        # any evaluation past the precision-32 weight probe fails the test
        from modpforms import cli, module

        evaluate = cli.evaluate

        def probe_only(ast, p, prec):
            assert prec <= 32, f"evaluated at {prec} coefficients"
            return evaluate(ast, p, prec)

        monkeypatch.setattr(module, "AMBIENT_CAP", 1000)
        monkeypatch.setattr(cli, "evaluate", probe_only)
        code, out, err = run_cli(
            capsys, argv[0], "--p", "3", "--form", "delta^2", "--sample-bound", "600", *argv[1:]
        )
        assert (code, out) == (2, "")
        assert err == (
            "input error: the weight-24 basis at 1209 coefficients has 3627 entries, "
            "above the cap 1000\n"
        )

    def test_sample_bound_is_checked_before_the_ambient_cap(self, capsys, monkeypatch):
        from modpforms import module

        monkeypatch.setattr(module, "AMBIENT_CAP", 10)
        code, _, err = run_cli(
            capsys, "module", "--p", "3", "--form", "delta^2", "--sample-bound", "30"
        )
        assert code == 2
        assert "generator bound 50" in err

    def test_conductor_failure_is_math_error(self, capsys):
        code, _, err = run_cli(
            capsys, "module", "--p", "3", "--form", "delta^7", "--sample-bound", "600"
        )
        assert code == 3
        assert "mathematical failure" in err

    @pytest.mark.parametrize(
        "command", [("module",), ("constants",), ("oracle", "--xmax", "1000"), ("predict",)]
    )
    def test_missing_conductor_names_the_detection_reason(self, capsys, command):
        # Delta^7 mod 3: every command that needs a conductor prints the same reason
        code, _, err = run_cli(capsys, *command, "--p", "3", "--form", "delta^7")
        assert code == 3
        assert err == (
            "mathematical failure: no conductor candidate passed "
            "(modulus 81: primes 2 and 7 give inconsistent class actions)\n"
        )

    def test_internal_invariant_failure_has_its_own_code(self, capsys, monkeypatch):
        from modpforms import linalg

        # a wrong inverse breaks the echelon basis or makes the sampled
        # images leave the module span
        monkeypatch.setattr(linalg, "inverse", lambda mat, p: np.zeros_like(mat))
        code, _, err = run_cli(
            capsys, "module", "--p", "3", "--form", "delta^2", "--sample-bound", "600"
        )
        assert code == 4
        assert "internal error" in err

    def test_gamma_order_cap_is_a_budget(self, capsys, monkeypatch, delta2_mod3_module):
        from modpforms import module

        monkeypatch.setattr(module, "GAMMA_ORDER_CAP", 1)
        with pytest.raises(BudgetExceededError, match="order cap 1"):
            module.gamma_group(delta2_mod3_module)
        code, _, err = run_cli(capsys, "module", "--p", "3", "--form", "delta^2")
        assert code == 2
        assert "order cap 1" in err

    @pytest.mark.parametrize("mode", [(), ("--squarefree",)], ids=["full", "squarefree"])
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--sfull-bound", "0", "sfull_bound must be at least 1"),
            ("--sfull-bound", "-5", "sfull_bound must be at least 1"),
            ("--sfull-bound", str(10**13), "square-full bound cap"),
            ("--prime-bound", str(10**9), "prime bound cap"),
        ],
    )
    def test_predict_bounds_are_input_errors(self, capsys, flag, value, message, mode):
        code, out, err = run_cli(
            capsys, "predict", "--p", "3", "--form", "delta", *mode, flag, value
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_group_parameter_cap_is_a_budget(self, capsys):
        code, _, err = run_cli(capsys, "alpha-group", "--case", "PSL2", "--param", str(10**20 + 1))
        assert code == 2
        assert "cap" in err


# the flags each command reads, and a valid value of each flag that every
# command once took, so that an argv differs from a valid one by one flag
READS = {
    "expand": "--p --form --prec --out",
    "hecke": "--p --form --prec --out --op --index",
    "module": "--p --form --prec --sample-bound --seed",
    "decompose": "--p --form --prec --sample-bound --seed",
    "constants": "--p --form --prec --sample-bound --seed --prime-bound",
    "predict": "--p --form --prec --sample-bound --seed --squarefree --prime-bound "
    "--sfull-bound --xmax --checkpoints",
    "count": "--p --form --xmax --checkpoints --out --seed",
    "compare": "--p --form --prec --sample-bound --seed --squarefree --prime-bound "
    "--sfull-bound --xmax --checkpoints --out",
    "oracle": "--p --form --xmax --prec --sample-bound --seed --out",
    "alpha-group": "--case --param",
}
SHARED_FLAGS = {
    "--p": "3", "--form": "delta", "--prec": "20", "--xmax": "1000", "--checkpoints": "1000",
    "--gen-bound": "50", "--sample-bound": "600", "--prime-bound": "100000",
    "--sfull-bound": "1000", "--squarefree": None, "--out": "json", "--seed": "1",
    "--threads": "1",
}
BASE_ARGV = {"hecke": ("--op", "T"), "alpha-group": ("--case", "dihedral", "--param", "2")}
UNREAD = [
    (command, flag)
    for command, reads in READS.items()
    for flag in SHARED_FLAGS
    if flag not in reads.split()
]


def _base_argv(command):
    form = () if command == "alpha-group" else ("--p", "3", "--form", "delta")
    return [command, *form, *BASE_ARGV.get(command, ())]


def _parse_outcome(parser, argv, capsys):
    """(exit code or None, stdout, stderr, parsed flags or None) of one parse."""
    try:
        parsed, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        parsed, code = None, exc.code
    out = capsys.readouterr()
    return code, out.out, out.err, parsed


class TestLazyParser:
    """main builds the invoked command's flags only, with the full parser's behaviour."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["-h", "count"],
            ["frobnicate", "--p", "3"],
            ["count", "--bogus"],
            ["count", "--p", "3"],
            ["count", "--p", "3", "--form", "delta", "--op", "T"],
            ["alpha-group", "--p", "3"],
            ["alpha-group", "--case", "nonsense"],
            ["hecke", "--p", "3", "--form", "delta", "--op", "Q"],
            ["count", "--p", "3", "--form", "delta", "--xmax", "0"],
        ]
        + [[command, "--help"] for command in READS],
    )
    def test_exits_match_the_full_parser(self, capsys, monkeypatch, argv):
        from modpforms import cli

        full = _parse_outcome(build_parser(), argv, capsys)
        built = []
        monkeypatch.setattr(
            cli, "build_parser", lambda command=None: built.append(command) or build_parser(command)
        )
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out, out.err) == full[:3]
        assert full[0] in (0, 2)
        assert built == [argv[0] if argv and argv[0] in READS else None]

    @pytest.mark.parametrize("command", sorted(READS))
    def test_parsed_flags_match_the_full_parser(self, capsys, command):
        argv = _base_argv(command)
        for flag in READS[command].split():
            if flag not in argv and flag in SHARED_FLAGS:
                value = SHARED_FLAGS[flag]
                argv += [flag] + ([value] if value else [])
        lazy = _parse_outcome(build_parser(command), argv, capsys)
        assert lazy == _parse_outcome(build_parser(), argv, capsys)
        assert lazy[0] is None and lazy[3]["command"] == command

    def test_lazy_parser_has_one_command(self):
        (commands,) = [
            a for a in build_parser("count")._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert list(commands.choices) == ["count"]


class TestFlagTable:
    def test_each_command_declares_the_flags_it_reads(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for command, reads in READS.items():
            sub = commands.choices[command]
            declared = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            assert declared == set(reads.split()), command
            sub.parse_args(_base_argv(command)[1:])

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_flag_is_a_usage_error(self, monkeypatch, command, flag):
        from modpforms import cli

        monkeypatch.setattr(cli, "evaluate", lambda *args: pytest.fail("form evaluated"))
        value = SHARED_FLAGS[flag]
        with pytest.raises(SystemExit) as exc:
            main(_base_argv(command) + [flag] + ([value] if value else []))
        assert exc.value.code == 2

    def test_no_abbreviated_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["alpha-group", "--case", "dihedral", "--p", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--p", "3", "--form", "delta", "--xmax", "0"),
            ("expand", "--p", "3", "--form", "delta", "--prec", "0"),
        ],
    )
    def test_zero_bound_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_negative_checkpoint_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--p", "3", "--form", "delta", "--xmax", "1000",
            "--checkpoints=-5,100",
        )
        assert code == 2
        assert out == ""
        assert "negative" in err

    def test_sample_bound_below_the_generator_bound(self, capsys):
        code, out, err = run_cli(
            capsys, "module", "--p", "3", "--form", "delta", "--sample-bound", "49"
        )
        assert code == 2
        assert out == ""
        assert "generator bound 50" in err

    @pytest.mark.parametrize("command", ["predict", "compare"])
    def test_sample_bound_is_checked_before_the_tower(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, "--p", "3", "--form", "delta", "--sample-bound", "30"
        )
        assert code == 2
        assert out == ""
        assert "generator bound 50" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--p", "7", "--form", "E4", "--xmax", str(series.MAX_PREC + 1)),
            ("expand", "--p", "7", "--form", "E6", "--prec", str(series.MAX_PREC + 1)),
            ("hecke", "--p", "7", "--form", "E4", "--op", "U", "--index", "200000"),
            ("module", "--p", "7", "--form", "E4", "--sample-bound", str(series.MAX_PREC)),
        ],
    )
    def test_eisenstein_precision_is_capped_before_the_sieve(self, capsys, monkeypatch, argv):
        sieve = kernels.sigma_sieve

        def guarded(prec, e, p):
            assert prec <= series.MAX_PREC, f"divisor sieve of {prec} coefficients"
            return sieve(prec, e, p)

        monkeypatch.setattr(kernels, "sigma_sieve", guarded)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"exceeds the cap {series.MAX_PREC}" in err
