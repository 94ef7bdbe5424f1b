"""Parser, printer, command, and report-schema tests.

Every grammar production gets at least one accepting and one rejecting
case; reports are checked for the fixed field order and byte stability.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import paraclaw
from paraclaw import claws, cli
from paraclaw.cli import cmd_claws, cmd_classify, cmd_dims, cmd_verify, main
from paraclaw.grammar import (
    IndexOutOfRange, ParseError, TimeDerivativeOnRHS, expr_to_source, parse,
    parse_expression,
)
from paraclaw.claws import AnsatzSpec, find_conservation_laws
from paraclaw.expr import Expr, base_var, jet_var, mono_encode
from corpus import CORPUS
from util import (
    GOLDEN_PATH, benchmark_non_ma_problems, claws_corpus_reports, corollary_decides,
    golden_ansatz_specs, no_search, perfbench_problems, random_non_ma_problems,
    searched_claws_output, split_ma_classify, split_refused, suite_corollary_routes_agree,
    t, u, u11, u12, u22, ux, uxx, x,
)


def run_paraclaw(args: list[str], timeout: float | None = None,
                 **env: str) -> subprocess.CompletedProcess:
    """``python -m paraclaw *args`` in a child process that runs the same
    copy of paraclaw as this one, whether from a source checkout or an
    install; nothing but PATH, the package location and ``env`` is passed."""
    return subprocess.run(
        [sys.executable, "-m", "paraclaw", *args], capture_output=True,
        text=True, timeout=timeout, env=child_env(**env))


def child_env(**env: str) -> dict[str, str]:
    """PATH, the location of this process's paraclaw and ``env``: the whole
    environment of a child ``python -m paraclaw``."""
    package_root = os.path.dirname(os.path.dirname(paraclaw.__file__))
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, **env}


class TestGrammarAccepts:
    def test_file(self):
        pf = parse("n=1; u_t = u_xx + u*u_x")
        assert pf.n == 1
        assert pf.G == uxx + u * ux

    def test_file_with_digit_indices(self):
        pf = parse("n=2; u_t = u_11*u_22 - u_12^2")
        assert pf.G == u11 * u22 - u12 ** 2

    def test_expr_sum_and_difference(self):
        assert parse_expression("u + u - u", 1) == u

    def test_term_products_and_quotients(self):
        assert parse_expression("u*u/u", 1) == u

    def test_unary_minus(self):
        assert parse_expression("-u", 1) == -u
        assert parse_expression("-u^2", 1) == -(u ** 2)

    def test_factor_power(self):
        assert parse_expression("u_x^3", 1) == ux ** 3
        assert parse_expression("u^0", 1) == Expr.const(1)

    def test_atom_parenthesized(self):
        assert parse_expression("(u + 1)^2", 1) == (u + 1) ** 2

    def test_atom_rational_literal(self):
        assert parse_expression("1/2", 1) == Expr.const(Fraction(1, 2))
        assert parse_expression("3/4*u", 1) == Fraction(3, 4) * u

    def test_coefficient_types(self):
        G = parse("n=1; u_t = 2*u_xx + u*u_x - 3 + 12345678901234567890*t^2").G
        assert {type(c) for c in G.num.terms.values()} == {int}
        quarter = parse_expression("3/4*u", 1).num.terms[jet_var().unit]
        assert type(quarter) is Fraction and quarter == Fraction(3, 4)
        two = parse_expression("4/2*u", 1).num.terms[jet_var().unit]
        assert type(two) is int and two == 2

    def test_idents(self):
        assert parse_expression("t", 1) == t
        assert parse_expression("x", 1) == x
        assert parse_expression("x1 + x2", 2) == x + Expr.symbol(base_var(2))
        assert parse_expression("u_xx", 1) == uxx
        assert parse_expression("u_112", 2) == Expr.symbol(jet_var((1, 1, 2)))

    def test_options(self):
        pf = parse("n=1; u_t = u*u_xx; ref u = 1; ref u_x = -1/2; "
                   "jet_degree = 2; base_degree = 1; order = 1")
        assert pf.reference_jet == {jet_var(): Fraction(1),
                                    jet_var((1,)): Fraction(-1, 2)}
        assert (pf.jet_degree, pf.base_degree, pf.max_jet_order) == (2, 1, 1)

    def test_whitespace_insignificant(self):
        a = parse("n=1;u_t=u_xx")
        b = parse("n = 1 ;\n u_t  =\n   u_xx")
        assert a == b


class TestGrammarRejects:
    @pytest.mark.parametrize("source", [
        "u_t = u_xx",            # missing n header
        "n=1 u_t = u_xx",        # missing semicolon
        "n=0; u_t = u_xx",       # n out of range
        "n=1; v_t = u_xx",       # wrong lhs
        "n=1; u_t = u +",        # dangling operator in expr
        "n=1; u_t = u * * u",    # dangling operator in term
        "n=1; u_t = --u",        # only one unary minus allowed
        "n=1; u_t = u^-1",       # power wants a plain INT
        "n=1; u_t = u^u",
        "n=1; u_t = (u",         # unbalanced parenthesis
        "n=1; u_t = ()",
        "n=1; u_t = u_xx; nope = 3",    # unknown option
        "n=1; u_t = u_xx; ref u 1",     # option missing '='
        "n=1; u_t = u_xx; ref u = 1/0",
        "n=1; u_t = u@u",        # bad character
        "n=1; u_t = v",          # unknown identifier
        "n=1; u_t = u_",         # empty index list
        "n=1; u_t = u_x1",       # mixed indices
        "n=2; u_t = x",          # bare x needs n = 1
        "n=2; u_t = u_x",        # x-aliases need n = 1
        "n=1; u_t = u_xx extra", # trailing garbage
        "n=1; u_t = x12",        # x takes a single digit
        "n=1; u_t = u_xx^\u00b2",      # digits are ASCII: not a superscript two,
        "n=2; u_t = u_\u0661\u0661 + u_22",  # Arabic-Indic digits in an index
        "n=1; u_t = u_xx*\u0661\u0662",     # or in a literal
    ])
    def test_rejected(self, source):
        with pytest.raises(ParseError):
            parse(source)

    @pytest.mark.parametrize("source,exc", [
        ("n=1; u_t = u_tt", TimeDerivativeOnRHS),
        ("n=1; u_t = u_xt", TimeDerivativeOnRHS),
        ("n=2; u_t = u_1t", TimeDerivativeOnRHS),
        ("n=1; u_t = x2*u_xx", IndexOutOfRange),
        ("n=2; u_t = u_13", IndexOutOfRange),
        ("n=1; u_t = u_0", IndexOutOfRange),
        ("n=2; u_t = x3", IndexOutOfRange),
    ])
    def test_rejected_specific(self, source, exc):
        with pytest.raises(exc):
            parse(source)

    @pytest.mark.parametrize("source, message", [
        ("n=1; u_t = u_xx^\u00b2", "unexpected character '\u00b2' at 1:17"),
        ("n=2; u_t = u_\u0661\u0661 + u_22", "unexpected character '\u0661' at 1:14"),
        ("n=1; u_t = u_xx*\u0661\u0662", "unexpected character '\u0661' at 1:17"),
    ], ids=["superscript-exponent", "arabic-indic-index", "arabic-indic-literal"])
    def test_non_ascii_digits(self, tmp_path, capsys, source, message):
        f = tmp_path / "digits.pde"
        f.write_text(source, encoding="utf-8")
        assert main(["classify", str(f)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    @pytest.mark.parametrize("source, message", [
        ("n=1; u_t = u_xx; ref u_xx = 1; ref u_xx = -1", "repeated clause 'ref u_xx' at 1:32"),
        ("n=1; u_t = u_xx; ref u_x = 1; jet_degree = 2; ref u_1 = 2",
         "repeated clause 'ref u_1' at 1:47"),
        ("n=1; u_t = u_xx; jet_degree = 1; order = 2; jet_degree = 2",
         "repeated clause 'jet_degree' at 1:45"),
    ], ids=["ref", "ref-alias", "option"])
    def test_repeated_clause(self, tmp_path, capsys, source, message):
        # a repeated clause used to keep its last value silently
        f = tmp_path / "repeated.pde"
        f.write_text(source)
        assert main(["classify", str(f)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"
        with pytest.raises(ParseError, match="^repeated clause "):
            parse(source)

    def test_division_by_zero_literal(self):
        with pytest.raises(ParseError):
            parse("n=1; u_t = 1/0")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("n=1;\nu_t = u +\n;")
        assert err.value.line == 3

    def test_expected_token_set(self):
        with pytest.raises(ParseError) as err:
            parse("n=1; u_t = ;")
        assert "RATIONAL" in err.value.expected


class TestParseEquivalence:
    """The raw-term parser and the regex lexer against the Expr-for-every-
    atom route and the character-loop lexer of tests/util.py."""

    def test_matches_reference_route(self):
        from util import suite_parse_equivalence
        assert suite_parse_equivalence() == {
            "valid": 300, "parsed": 300, "malformed": 596, "malformed_errors": 401,
            "budget": 30, "past_max_terms": 8, "past_max_nesting": 6,
            "near_limit": 100, "past_limit": 66}


class TestLazyPositions:
    """The lexer keeps each token's offset, and a ParseError finds its line
    and column from it only when raised: each position equals the one the
    character-loop lexer of tests/util.py counts."""

    @pytest.mark.parametrize("source, line, col", [
        ("n=1;\r\nu_t = u_xx\r\n  + u $ 2", 3, 7),
        ("n=1; u_t = u_xx +\n", 2, 1),
        ("n=2; u_t = u_11 +\t\u3000u_13", 1, 20),
        ("n=1; u_t = u_xx; ref u = 1\n; ref u = 2", 2, 3),
        ("n=1; u_t = u_xx\n  + {digits}*u", 2, 5),
    ], ids=["character-after-crlf", "end-after-newline", "name-after-tab-and-u3000",
            "repeated-ref-on-line-2", "long-literal-on-line-2"])
    def test_position_matches_reference(self, source, line, col):
        from paraclaw.grammar import _Parser
        from util import ReferenceParser, _parse_outcome
        source = source.format(digits="9" * (sys.get_int_max_str_digits() + 1))
        got = _parse_outcome(_Parser, source, None)
        assert got == _parse_outcome(ReferenceParser, source, None)
        assert got[2:] == (line, col) and f" at {line}:{col}" in got[1]


class TestParseWork:
    """Counts, not timings: what a parse does besides building its value."""

    def test_each_name_resolves_once(self, monkeypatch):
        from paraclaw import grammar
        resolved = []
        for name in ("base_var", "jet_var"):
            real = getattr(grammar, name)
            monkeypatch.setattr(grammar, name,
                                lambda *args, real=real: resolved.append(args) or real(*args))
        grammar._symbol.cache_clear()
        text = "n=2; u_t = u_11 + u_22 + x1*u_1*u_11 - t*u_1^2 + u_11*u_22; ref u_1 = 1/2"
        assert parse(text) == parse(text)
        # u_11, u_22, x1, u_1 and t, read 20 times in the two parses
        assert len(resolved) == grammar._symbol.cache_info().misses == 5
        for _ in range(2):  # an illegal name is refused at its token each time, and not kept
            with pytest.raises(IndexOutOfRange, match="out of range 1..2 at 1:19$"):
                parse("n=2; u_t = u_11 + u_13")
        assert grammar._symbol.cache_info().currsize == 5

    def test_valid_parses_find_no_position(self, monkeypatch):
        from paraclaw import grammar
        problems = perfbench_problems()

        def refuse(source, offset):
            raise AssertionError("a valid input read a position")

        monkeypatch.setattr(grammar, "_position", refuse)
        files = expressions = 0
        for workload in problems.WORKLOADS:
            for pass_index in range(3):
                for req in problems.generate(workload, 1, pass_index):
                    pf = parse(req["source"] + "\n")
                    files += 1
                    for arg in req["args"]:
                        if arg.startswith(("--density=", "--flux=")):
                            parse_expression(arg.split("=", 1)[1], pf.n)
                            expressions += 1
        assert (files, expressions) == (330, 473)
        with pytest.raises(AssertionError, match="read a position"):
            parse("n=1; u_t = u_xx +")

    def test_monomial_factor_builds_the_raw_product(self, monkeypatch):
        # a factor m with the int coefficient 1 shifts the keys: the terms,
        # key order and coefficient types that _add_product would build
        from paraclaw import grammar
        from paraclaw.expr import _add_product
        texts = ["3/2*x1*x2*u", "(u_1 + 2*u)*u_2*x1 - u*u_1", "(1/3*u - u_2)*u^2*t",
                 "2*u/3*u_1*u_1", "x1*(u + 1/2*u_1)*(u_2)", "(2/2*u)*x2 + u*(2/2) + x2*(2/2*u)"]

        def read(text):
            value = grammar._Parser(text, 2).parse_expr()
            return [(m, type(c), c) for m, c in value.items()]

        shifts = []
        real = grammar._shifted
        monkeypatch.setattr(grammar, "_shifted",
                            lambda terms, m: shifts.append(m) or real(terms, m))
        got = [read(text) for text in texts]
        assert len(shifts) == 18

        def via_product(terms, m):
            out = {}
            _add_product(out, terms, {m: 1})
            return out

        monkeypatch.setattr(grammar, "_shifted", via_product)
        assert got == [read(text) for text in texts]

    def test_long_whitespace_runs_lex_in_linear_time(self):
        # 2 * 10^5 characters of whitespace: a lexer that rescans a trailing
        # run from each start in it takes minutes, a linear one milliseconds
        from paraclaw.grammar import _Parser
        from util import ReferenceParser, _parse_outcome
        run = " \n" * 10**5
        start = time.perf_counter()
        assert parse("n=1; u_t = u_xx" + run).G == parse("n=1; u_t = u_xx").G
        assert parse("n=1; u_t = u_xx" + run + "+ u").G == parse("n=1; u_t = u_xx + u").G
        truncated = "n=1; u_t = u_xx +" + run
        got = _parse_outcome(_Parser, truncated, None)
        assert time.perf_counter() - start < 2
        assert got == _parse_outcome(ReferenceParser, truncated, None)
        assert got[2:] == (10**5 + 1, 1)


class TestArguments:
    """cli's argument reader: argparse's syntax, help and usage errors,
    with the reference parser of tests/util.py as the oracle."""

    def test_matches_argparse(self):
        from util import suite_argv_equivalence
        assert suite_argv_equivalence() == {
            "valid": 300, "dash": 300, "dash_refused_by_argparse": 141,
            "space": 215, "equals": 180, "repeat": 231, "negative": 105,
            "prefix": 166, "dashes": 109, "attached": 47,
            "unknown": 43, "ambiguous": 34, "missing_value": 28,
            "missing_required": 43, "bad_int": 39, "json_text": 37,
            "second_file": 40, "no_command": 36, "unrecognized_reported": 78,
            "strays": 300, "strays_read": 3, "strays_reported": 236,
            "strays_after_command_error": 61}

    def test_value_may_start_with_a_dash(self):
        # argparse refused this README example with exit 2
        from paraclaw.cli import _read_args
        from util import argv_outcome, reference_arg_parser
        argv = ["verify", "heat.pde", "--density", "u", "--flux", "-u_x"]
        assert _read_args(argv) == {"command": "verify", "file": "heat.pde",
                                    "density": "u", "flux": ["-u_x"], "as_json": True}
        assert argv_outcome(reference_arg_parser().parse_args, argv)[:2] == ("exit", 2)

    def test_negative_number_is_the_file(self):
        # no option looks like a negative number, so argparse reads "-5" as
        # the file, and so does the reader
        from paraclaw.cli import _read_args
        from util import reference_arg_parser
        argv = ["classify", "-5"]
        assert _read_args(argv) == {"command": "classify", "file": "-5", "symbolic": False,
                                    "as_json": True}
        assert vars(reference_arg_parser().parse_args(argv)) == _read_args(argv)

    @pytest.mark.parametrize("argv, stderr", [
        (["claws"], "usage: paraclaw claws [-h] [--jet-degree JET_DEGREE] "
                    "[--base-degree BASE_DEGREE] [--order ORDER] [--unsafe-order] "
                    "[--symbolic] [--force] [--json | --text] file\n"
                    "paraclaw claws: error: the following arguments are required: file\n"),
        (["verify", "f", "--flux", "0"],
         "usage: paraclaw verify [-h] --density DENSITY --flux FLUX [--json | --text] file\n"
         "paraclaw verify: error: the following arguments are required: --density\n"),
        (["dims", "-n", "x"], "usage: paraclaw dims [-h] -n N [-r R] [--json | --text]\n"
                              "paraclaw dims: error: argument -n: invalid int value: 'x'\n"),
        (["claws", "f", "--j", "2"],
         "usage: paraclaw claws [-h] [--jet-degree JET_DEGREE] "
         "[--base-degree BASE_DEGREE] [--order ORDER] [--unsafe-order] "
         "[--symbolic] [--force] [--json | --text] file\n"
         "paraclaw claws: error: ambiguous option: --j could match --jet-degree, --json\n"),
        ([], "usage: paraclaw [-h] {classify,claws,verify,dims} ...\n"
             "paraclaw: error: the following arguments are required: command\n"),
        (["classify", "f", "--json=1"],
         "usage: paraclaw classify [-h] [--symbolic] [--json | --text] file\n"
         "paraclaw classify: error: argument --json: ignored explicit argument '1'\n"),
        (["classify", "f", "--text", "--"],
         "usage: paraclaw [-h] {classify,claws,verify,dims} ...\n"
         "paraclaw: error: unrecognized arguments: --\n"),
        (["classify", "f", "g", "--json", "h"],
         "usage: paraclaw [-h] {classify,claws,verify,dims} ...\n"
         "paraclaw: error: unrecognized arguments: g h\n"),
        (["--bogus", "claws", "-q=1", "f", "--", "g"],
         "usage: paraclaw [-h] {classify,claws,verify,dims} ...\n"
         "paraclaw: error: unrecognized arguments: --bogus -q=1 g\n"),
        (["dims", "-n", "1", "x", "--"],
         "usage: paraclaw [-h] {classify,claws,verify,dims} ...\n"
         "paraclaw: error: unrecognized arguments: x --\n"),
        (["verify", "f", "g", "--flux", "0"],
         "usage: paraclaw verify [-h] --density DENSITY --flux FLUX [--json | --text] file\n"
         "paraclaw verify: error: the following arguments are required: --density\n"),
        (["classify", "f", "-h=1"],
         "usage: paraclaw classify [-h] [--symbolic] [--json | --text] file\n"
         "paraclaw classify: error: argument -h/--help: ignored explicit argument '1'\n"),
    ], ids=["no-file", "no-density", "bad-int", "ambiguous", "no-command", "switch-value",
            "stray-dashes", "second-and-third-file", "unknown-options", "dims-positional",
            "stray-after-missing-option", "help-value"])
    def test_usage_error(self, capsys, monkeypatch, argv, stderr):
        # the error is argparse's, which reports every unrecognized argument
        # under the top-level usage, after the command's own errors; its
        # usage lines wrap at the terminal width, so the terminal is wide
        from util import argv_outcome, reference_arg_parser
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", stderr)
        assert argv_outcome(reference_arg_parser().parse_args, argv) == ("exit", 2, "", stderr)

    @pytest.mark.parametrize("argv", [["-h"], ["--he"], ["classify", "-h"],
                                      ["claws", "f", "--help"], ["verify", "--h"],
                                      ["dims", "-n", "1", "-h"]])
    def test_help(self, capsys, argv):
        from util import argv_outcome, reference_arg_parser
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        command = argv[0] if argv[0][0] != "-" else None
        assert out.startswith(f"usage: paraclaw {command or '[-h]'}")
        assert argv_outcome(reference_arg_parser().parse_args, argv) == ("exit", 0, out, "")

    def test_readme_command_lines_run(self, tmp_path):
        """Every line of README's command-line usage block exits 0 on the
        README's heat.pde and burgers.pde, and the claws --text example
        prints what README shows, up to its elapsed time."""
        import re
        import shlex
        readme = open(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                   "README.md"), encoding="utf-8").read()
        section = readme[readme.index("## Command line"):readme.index("### Grammar")]
        (tmp_path / "heat.pde").write_text("n=1; u_t = u_xx")
        (tmp_path / "burgers.pde").write_text(
            re.search(r"```\n(n=1; u_t = [^\n]*)\n```", section).group(1))

        def run(line):
            args = shlex.split(line, comments=True)[1:]
            return run_paraclaw([str(tmp_path / a) if a.endswith(".pde") else a
                                 for a in args], timeout=30)

        usage = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        lines = [line for line in usage.splitlines() if line.startswith("paraclaw ")]
        assert len(lines) == 4
        for line in lines:
            proc = run(line)
            assert proc.returncode == 0, (line, proc.stderr)
        example = re.search(r"```sh\n\$ (paraclaw claws [^\n]*)\n(.*?)```", section, re.S)
        shown = example.group(2).splitlines()
        proc = run(example.group(1))
        assert proc.returncode == 0, proc.stderr
        printed = proc.stdout.splitlines()
        assert shown[-1].startswith("elapsed: ") and printed[-1].startswith("elapsed: ")
        assert printed[:-1] == shown[:-1]


class TestNestingLimit:
    @staticmethod
    def nested(depth: int) -> str:
        return "n=1; u_t = " + "(" * depth + "u_xx" + ")" * depth

    def test_modest_depth_parses(self):
        assert parse(self.nested(50)).G == uxx
        assert parse_expression("-(" * 50 + "u" + ")" * 50, 1) == u

    @pytest.mark.parametrize("depth", [400, 3000])
    def test_deep_nesting_is_a_parse_error(self, depth, tmp_path, capsys):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(self.nested(depth))
        f = tmp_path / "deep.pde"
        f.write_text(self.nested(depth))
        assert main(["classify", str(f)]) == 2
        assert "parse error" in capsys.readouterr().err


class TestParseBudget:
    def test_products_within_the_budget_parse(self):
        G = parse("n=2; u_t = u_11 + u_22 + (u+u_1+u_2+x1+x2+t)^8").G
        assert len(G.num.terms) == 1287 + 2
        e = parse_expression("((1+u)/(2+u))^60", 1)
        assert (e.num, e.den) == (((1 + u) ** 60).num, ((2 + u) ** 60).num)
        assert parse_expression("u^0 + 0^3", 1) == 1

    @pytest.mark.parametrize("source", [
        "(u+u_1+u_2+x1+x2+t)^10",
        "(1+u)^200",
        "(1+u+u_1)^20*(1+u+u_2)^20",
        "1/(1+u+u_1+u_2+x1+x2+t)^12",
        "u^30000",
    ])
    def test_past_the_budget_is_a_parse_error(self, source):
        with pytest.raises(ParseError, match="MAX_TERMS = 20000"):
            parse_expression(source, 2)


class TestExponentLimit:
    """A monomial exponent lives in a 32-bit field whose top bit is a guard:
    a parsed exponent that reaches 2^31 is a parse error at its operator,
    and a search product that would is an error, never a wrapped field."""

    PAST = "exponent past 2147483647 = 2^31 - 1"

    def test_nested_powers_multiply_the_exponent(self):
        assert parse_expression("((u^99)^99)^99", 1).num.terms == {
            mono_encode([(jet_var(), 970299)]): 1}
        assert parse_expression("((u^2048)^1024)^1023*(u^2047)^1024*u^1023*x", 1).num.terms == {
            mono_encode([(base_var(1), 1), (jet_var(), 2 ** 31 - 1)]): 1}

    @pytest.mark.parametrize("source, what, where", [
        ("((u^2048)^1024)^1024", "power", "1:16"),
        ("((((u^99)^99)^99)^99)^99", "power", "1:22"),
        ("(((u^2048)^1024)^1023)*(((u^2048)^1024)^1023)", "product", "1:23"),
        ("(((u^2048)^1024)^1023 + 1)^3", "power", "1:27"),
        ("1/((u^2048)^1024)^1023 + 1/(((u^2048)^1024)^1023 + 1)", "sum", "1:24"),
    ], ids=["first-power-past", "99^5", "product", "binomial-power", "sum-of-quotients"])
    def test_exponent_past_the_field(self, tmp_path, capsys, source, what, where):
        with pytest.raises(ParseError, match=f"^{what} has an {re.escape(self.PAST)} "
                                             f"at {where}$"):
            parse_expression(source, 1)
        f = tmp_path / "power.pde"
        f.write_text(f"n=1; u_t = u_xx + {source}")
        assert main(["classify", str(f)]) == 2
        line, col = map(int, where.split(":"))
        assert capsys.readouterr().err == \
            f"parse error: {what} has an {self.PAST} at {line}:{col + 18}\n"

    def test_search_product_past_the_field(self, tmp_path, capsys):
        # G holds u^(2^31 - 1); at jet degree 3 the assembly multiplies a
        # u^(2^31 - 2) of l*_G by the u^2 of Q = E_u(u^3).  G is affine in
        # u_xx, so the corollary does not decide it and it is searched
        f = tmp_path / "top.pde"
        f.write_text("n=1; u_t = u_xx + ((u^2048)^1024)^1023*(u^2047)^1024*u^1023; "
                     "jet_degree = 3")
        assert main(["classify", str(f)]) == 0
        capsys.readouterr()
        assert main(["claws", str(f)]) == 1
        assert capsys.readouterr().err == \
            "error: a monomial exponent would pass 2147483647 = 2^31 - 1\n"


    def test_corollary_answers_before_a_product_past_the_field(self, tmp_path, capsys):
        # with u_xx^2 in G the search would overflow as above, but G is not
        # affine in u_xx and strictly parabolic, so no law exists and none
        # is searched for
        f = tmp_path / "top.pde"
        f.write_text("n=1; u_t = u_xx + u_xx^2 + ((u^2048)^1024)^1023*(u^2047)^1024*u^1023; "
                     "jet_degree = 3")
        assert main(["claws", str(f)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert (report["parabolicity"], report["ma"]["n1_affine"], report["laws"]) == \
            ("strict", False, [])


class TestLongLiterals:
    """A number literal longer than Python converts to an int is a parse
    error with its position, wherever the grammar reads a number."""

    LIMIT = 4300
    LONG = "1" * (LIMIT + 1)

    @pytest.fixture(autouse=True)
    def int_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(self.LIMIT)
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("source, where", [
        ("n=1; u_t = u_xx + {}*u", "1:19"),
        ("n={}; u_t = u_xx", "1:3"),
        ("n=1; u_t = u*u_xx; ref u = {}", "1:28"),
        ("n=1; u_t = u*u_xx; ref u = 1/{}", "1:30"),
        ("n=1; u_t = u_xx; order = {}", "1:26"),
        ("n=1; u_t = u_xx + u^{}", "1:21"),
    ], ids=["coefficient", "n", "ref", "ref-denominator", "option", "exponent"])
    def test_problem_file(self, tmp_path, capsys, source, where):
        f = tmp_path / "long.pde"
        f.write_text(source.format(self.LONG))
        assert main(["classify", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: number literal longer than {self.LIMIT} digits at {where}\n")

    def test_verify_density(self, tmp_path, capsys):
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        assert main(["verify", str(f), "--density", f"{self.LONG}*u", "--flux", "0"]) == 2
        assert capsys.readouterr().err == (
            f"parse error: number literal longer than {self.LIMIT} digits at 1:1\n")

    def test_longest_literal_parses(self):
        assert parse_expression("9" * self.LIMIT, 1) == Expr.const(10 ** self.LIMIT - 1)

    def test_power_of_a_constant_is_not_charged_to_the_budget(self):
        # 10^4299 expands nothing, so u^9999 may take 19996 of the 20000
        # term pairs; nor does a constant reached through a rational
        # function; a power of a monomial is still charged, since no other
        # rule bounds its exponent
        assert parse_expression("10^4299*u^9999", 1) == 10 ** 4299 * u ** 9999
        assert parse_expression("(2*u/u)^12000", 1) == 2 ** 12000
        with pytest.raises(ParseError, match="^expression expands past MAX_TERMS = 20000 "
                                             "term products at 1:2$"):
            parse_expression("u^10002", 1)

    @pytest.mark.parametrize("source, where", [
        ("n=1; u_t = 3^10000*u_xx", "1:13"),
        ("n=1; u_t = {}^9999*u_xx".format("7" * 300), "1:312"),
        ("n=1; u_t = u_xx + (1/3)^10000*u", "1:24"),
        ("n=1; u_t = 10^4300*u_xx", "1:14"),
    ], ids=["base-3", "300-digit-base", "denominator", "one-past"])
    def test_power_past_the_limit(self, tmp_path, capsys, source, where):
        # the 300-digit base is refused at the ^ from bit lengths, before the
        # power is built; 3^10000, (1/3)^10000 and 10^4300 pass that bound,
        # are built, and are then refused by the digit-limit rule
        f = tmp_path / "power.pde"
        f.write_text(source)
        start = time.perf_counter()
        assert main(["classify", str(f)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"parse error: power has a coefficient longer than {self.LIMIT} digits "
            f"at {where}\n")

    @pytest.mark.parametrize("source, what, where", [
        ("n=1; u_t = 9^4500*9^4500*u_xx", "product", "1:18"),
        ("n=1; u_t = u_xx/9^4500/9^4500", "quotient", "1:23"),
        ("n=1; u_t = (9^4500*u + 1)*(9^4500*u_xx + 1)", "product", "1:26"),
        ("n=1; u_t = 9^4500*(9^4500*u + 1)*u_xx", "product", "1:18"),
        ("n=1; u_t = u_xx + (9^4500*u + 1)^2", "power", "1:33"),
    ], ids=["single-terms", "constant-quotient", "polynomials", "coefficient-polynomial",
            "polynomial-power"])
    def test_product_past_the_limit(self, tmp_path, capsys, source, what, where):
        # each factor is under the limit; the product is refused at its operator
        f = tmp_path / "product.pde"
        f.write_text(source)
        start = time.perf_counter()
        assert main(["classify", str(f)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"parse error: {what} has a coefficient longer than {self.LIMIT} digits "
            f"at {where}\n")

    @pytest.mark.parametrize("source, what, where", [
        ("n=1; u_t = (10^4299*u_xx/(u_x+1))*10^4299", "product", "1:34"),
        ("n=1; u_t = u_xx*(u/(u_x+10^4299))^2", "power", "1:34"),
        ("n=1; u_t = u_xx*(u/(u_x+10^4299))*(u/(u_x+10^4299))", "product", "1:34"),
        ("n=1; u_t = u_xx*(u/(u_x+10^2000))^3", "power", "1:34"),
        ("n=1; u_t = u_xx + (10^4299*u/(u_x+1))*10^4299", "product", "1:38"),
    ], ids=["coefficient-quotient", "quotient-power", "quotients", "quotient-cube",
            "coefficient-quotient-in-sum"])
    def test_rational_past_the_limit(self, tmp_path, capsys, source, what, where):
        # a rational function's product or power is refused at its operator,
        # like a polynomial's; these exited 1 with Python's digit-limit error
        f = tmp_path / "rational.pde"
        f.write_text(source)
        assert main(["classify", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: {what} has a coefficient longer than {self.LIMIT} digits "
            f"at {where}\n")

    def test_verify_density_past_the_limit(self, tmp_path, capsys):
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        assert main(["verify", str(f), "--density", "(10^4299*u/(x+1))*10^4299",
                     "--flux", "0"]) == 2
        assert capsys.readouterr().err == (
            f"parse error: product has a coefficient longer than {self.LIMIT} digits "
            "at 1:18\n")

    def test_product_at_the_limit_parses(self, tmp_path, capsys):
        # 10^4299 has exactly LIMIT digits
        f = tmp_path / "product.pde"
        f.write_text("n=1; u_t = 10^2150*10^2149*u_xx")
        assert main(["classify", str(f)]) == 0
        assert capsys.readouterr().err == ""
        assert parse_expression("u/(1/10)^2150*10^2149", 1) == 10 ** 4299 * u
        assert parse_expression("u/10^2150/10^2149", 1) == u / 10 ** 4299

    NINES = "9" * LIMIT

    @pytest.mark.parametrize("source, where", [
        ("n=1; u_t = u_xx + {0}*u + {0}*u", "1:4322"),
        ("n=1; u_t = u_xx - {0}*u - {0}*u", "1:4322"),
        ("n=1; u_t = ({0}*u + {0}*u)*u_x", "1:4316"),
        ("n=1; u_t = {0}*u/(u_x + 1) + {0}*u/(u_x + 1)", "1:4325"),
    ], ids=["sum", "difference", "sum-times-factor", "rational"])
    def test_sum_past_the_limit(self, tmp_path, capsys, source, where):
        # each term is at the limit; the sum is refused at its + or -
        f = tmp_path / "sum.pde"
        f.write_text(source.format(self.NINES))
        start = time.perf_counter()
        assert main(["classify", str(f)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"parse error: sum has a coefficient longer than {self.LIMIT} digits "
            f"at {where}\n")

    def test_sum_at_the_limit_parses(self, tmp_path, capsys):
        # 9*10^4299 has exactly LIMIT digits, 10^4300 one more
        f = tmp_path / "sum.pde"
        f.write_text("n=1; u_t = u_xx + 5*10^4299*u + 4*10^4299*u")
        assert main(["classify", str(f)]) == 0
        assert capsys.readouterr().err == ""
        f.write_text("n=1; u_t = u_xx + 5*10^4299*u + 5*10^4299*u")
        assert main(["classify", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: sum has a coefficient longer than {self.LIMIT} digits at 1:31\n")

    @staticmethod
    def literal(q) -> str:
        """The rational q as a literal or a quotient of literals."""
        q = Fraction(q)
        text = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        return f"({text})"

    @staticmethod
    def digits(q: Fraction) -> int:
        """The digits of the longer of q's numerator and denominator."""
        return max(len(str(abs(q.numerator))), len(str(q.denominator)))

    def refused_at(self, source: str, col: int | None, what: str) -> None:
        """parse_expression refuses source at 1:col for a coefficient past
        the limit, or, for col None, parses it."""
        if col is None:
            parse_expression(source, 1)
            return
        with pytest.raises(ParseError) as err:
            parse_expression(source, 1)
        assert str(err.value) == (f"{what} has a coefficient longer than {self.LIMIT} "
                                  f"digits at 1:{col}")

    @pytest.mark.parametrize("source, col, what", [
        ("(u + 10^2200)*10^2200*2", 14, "product"),
        ("10^2200*(u + 10^2200)*3", 8, "product"),
        ("(u + 10^2200)*10^2200", 14, "product"),
        ("(u + 10^2200)*10^2200/10^2200", 14, "product"),
        ("(u + 10^2200)/(1/10^2200)", 14, "quotient"),
    ], ids=["later-factor", "coefficient-first", "last-operator", "later-division",
            "constant-quotient"])
    def test_refused_at_the_operator_that_builds_it(self, source, col, what):
        # each "*" and "/" builds its result, and the digit-limit rule
        # refuses it there, whatever operators follow in the same term
        self.refused_at(source, col, what)

    def test_product_length_is_exact(self):
        # the digit-limit rule against the digits of the built product,
        # seeded, around the boundary, on ints and on fractions that cancel,
        # on the polynomial and the rational route
        import random
        rng = random.Random(137)

        def digits(k):
            return rng.randint(10 ** (k - 1), 10 ** k - 1)

        cases = []
        sys.set_int_max_str_digits(0)  # no limit while the digits are counted
        for _ in range(200):
            d = rng.randint(1, self.LIMIT - 1)
            x = digits(d) * rng.choice((1, -1))
            y = digits(max(1, self.LIMIT - d + rng.randint(-1, 2)))
            g = digits(rng.randint(1, 30))
            for a, b in ((Fraction(x), Fraction(y)), (Fraction(1, abs(x)), Fraction(3, y)),
                         (Fraction(x * g, 7), Fraction(11, y * g)),
                         (Fraction(x * g, 7), Fraction(y, 13 * g))):
                if self.digits(a) > self.LIMIT or self.digits(b) > self.LIMIT:
                    continue  # not an operand: a literal that long is refused
                cases.append((self.literal(a), self.literal(b), self.digits(a * b) > self.LIMIT))
        sys.set_int_max_str_digits(self.LIMIT)
        for a, b, long in cases:
            self.refused_at(f"{a}*{b}*u", len(a) + 1 if long else None, "product")
            rational = f"({a}*u/(u_x + 1))*{b}"
            self.refused_at(rational, rational.rindex("*") + 1 if long else None, "product")
        assert 100 < sum(long for _, _, long in cases) < len(cases) - 100

    def test_power_at_the_limit_parses(self, tmp_path, capsys):
        # 10^4299 has exactly LIMIT digits
        f = tmp_path / "power.pde"
        f.write_text("n=1; u_t = 10^4299*u_xx")
        assert main(["classify", str(f)]) == 0
        assert capsys.readouterr().err == ""
        assert parse_expression("(10/9)^4299", 1) \
            == Expr.const(Fraction(10 ** 4299, 9 ** 4299))

    def test_power_length_is_exact(self):
        # the digit-limit rule against the digits of the built power,
        # seeded, around the boundary, for bases from 2 to 60 digits long
        # and their reciprocals
        import random
        rng = random.Random(131)
        cases = []
        sys.set_int_max_str_digits(0)  # no limit while the digits are counted
        for _ in range(300):
            a = rng.randint(2, 10 ** rng.randint(1, 60)) * rng.choice((1, -1))
            k0 = self.LIMIT * 10 // (len(str(abs(a))) * 10 - 5)
            for k in range(max(1, k0 - 3), k0 + 4):
                cases.append((a, k, len(str(abs(a) ** k)) > self.LIMIT))
        sys.set_int_max_str_digits(self.LIMIT)
        for a, k, long in cases:
            base = self.literal(a if k % 2 else Fraction(1, a))
            self.refused_at(f"{base}^{k}*u", len(base) + 1 if long else None, "power")
        assert 100 < sum(long for _, _, long in cases) < len(cases) - 100
        for k, long in ((self.LIMIT - 1, False), (self.LIMIT, True)):
            self.refused_at(f"10^{k}*u", 3 if long else None, "power")
            self.refused_at(f"(10*u/u_x)^{k}", 11 if long else None, "power")
        for a in (-1, 0, 1):  # no bit-length refusal, at the largest k the budget allows
            assert parse_expression(f"({a})^9999*u", 1) == a * u

    def test_rule_holds_on_random_expressions(self):
        # seeded fuzzing of the digit-limit rule: every parse returns a value
        # within the limit that prints, or a ParseError with its position
        pytest.importorskip("hypothesis")
        import re
        from hypothesis import HealthCheck, given, settings, strategies as st

        limit = self.LIMIT
        literal = st.one_of(
            st.tuples(st.sampled_from("123456789"), st.integers(limit - 2, limit))
            .map(lambda t: t[0] * t[1]),
            st.integers(limit - 3, limit - 1).map(lambda k: "1" + "0" * k),
            st.integers(limit - 3, limit - 1).map(lambda k: f"10^{k}"),
            st.sampled_from(["1", "2", "3", "1/3"]))
        leaf = st.one_of(literal, st.sampled_from(["u", "u_x", "x"]))
        polynomials = st.recursive(leaf, lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(inner, literal).map(lambda t: f"{t[0]}/{t[1]}"),
        ), max_leaves=5)
        divisors = st.recursive(leaf, lambda inner: st.tuples(inner, st.sampled_from("+-*"), inner)
                                .map(lambda t: f"({t[0]} {t[1]} {t[2]})"), max_leaves=2)

        @st.composite
        def expressions(draw):
            # at most two quotients by non-constants, so rational sums stay small
            source = draw(polynomials)
            for _ in range(draw(st.integers(0, 2))):
                quotient = f"({draw(polynomials)})/{draw(divisors)}"
                if draw(st.booleans()):
                    quotient = f"({quotient})^{draw(st.integers(1, 3))}"
                source = f"{source} {draw(st.sampled_from('+-*'))} {quotient}"
            return source

        seen = {"parsed": 0, "refused": 0}

        @settings(max_examples=100, derandomize=True, database=None, deadline=None,
                  suppress_health_check=list(HealthCheck))
        @given(expressions())
        def check(source):
            try:
                e = parse_expression(source, 1)
            except ParseError as err:
                assert err.line >= 1 and err.col >= 1 and re.search(r" at \d+:\d+", str(err))
                seen["refused"] += 1
                return
            bound = 10 ** limit
            assert all(abs(c.numerator) < bound and c.denominator < bound
                       for c in (*e.num.terms.values(), *e.den.terms.values()))
            expr_to_source(e, 1)
            seen["parsed"] += 1

        check()
        assert seen["parsed"] >= 30 and seen["refused"] >= 30, seen


class TestRoundTrip:
    @pytest.mark.parametrize("source", [
        "n=1; u_t = u_xx",
        "n=1; u_t = u_xx + u*u_x; ref u = 1/2",
        "n=2; u_t = u_11*u_22 - u_12^2; ref u_11 = 1; ref u_22 = 1",
        "n=1; u_t = u*u_xx - 3/2*u_x^2 + t*x; jet_degree = 2; base_degree = 1; order = 2",
        "n=2; u_t = u_11 + u_22 + (u_11 + u_22)^2",
    ])
    def test_parse_print_parse(self, source):
        # the report's equation text reads back to the same G
        pf = parse(source)
        assert parse(f"n={pf.n}; {pf.equation_text()}").G == pf.G

    def test_expr_to_source_is_reparseable(self):
        e = u * uxx - Fraction(3, 2) * ux ** 2 + x * t - 7
        assert parse_expression(expr_to_source(e, 1), 1) == e
        e2 = (ux + 1) / (u ** 2 - 2)
        assert parse_expression(expr_to_source(e2, 1), 1) == e2

    def test_random_problem_files_round_trip(self):
        import random
        from paraclaw.grammar import ProblemFile
        from util import random_poly, random_spatial_symbols
        rng = random.Random(51)
        for _ in range(25):
            n = rng.choice((1, 2))
            G = random_poly(rng, random_spatial_symbols(n))
            pf = ProblemFile(n=n, G=G)
            assert parse(f"n={n}; {pf.equation_text()}").G == G


class TestCommands:
    def test_classify_heat(self):
        report = cmd_classify(parse("n=1; u_t = u_xx"))
        assert list(report) == ["schema_version", "n", "equation", "parabolicity",
                                "ma", "laws", "warnings"]
        assert report["parabolicity"] == "strict"
        assert report["ma"] == {"minor_affine": True, "residue_vanishes": None,
                                "n1_affine": True}
        assert report["laws"] == [] and report["warnings"] == []

    def test_classify_weak_warns(self):
        report = cmd_classify(parse("n=1; u_t = u*u_xx"))
        assert report["parabolicity"] == "weak"
        assert any("weakly parabolic" in w for w in report["warnings"])

    def test_claws_heat_base_degree_2(self):
        pf = parse("n=1; u_t = u_xx")
        report = cmd_claws(pf, AnsatzSpec(2, 1, 2))
        assert len(report["laws"]) >= 3
        assert any(law["characteristic"] == "x^2 - 2*t" for law in report["laws"])
        for law in report["laws"]:
            assert law["order"] <= 2
            assert law["flux"] is not None

    def test_verify_command(self):
        pf = parse("n=1; u_t = u_xx")
        good = cmd_verify(pf, "u", ["-u_x"])
        assert good["verified"] is True
        assert good["characteristic"] == "1"
        bad = cmd_verify(pf, "u", ["u_x"])
        assert bad["verified"] is False

    def test_verify_needs_n_fluxes(self):
        pf = parse("n=2; u_t = u_11 + u_22")
        with pytest.raises(ValueError):
            cmd_verify(pf, "u", ["-u_1"])

    def test_dims_report(self):
        report = cmd_dims(1, 0)
        assert report == {"schema_version": 1, "n": 1, "r": 0,
                          "tableau_dim": 2, "system_dim": 7,
                          "deprolongation_dim": 5}

    def test_dims_up_to_the_printable_digits(self, monkeypatch):
        # for n = 2 the tableau dimension is 2r + 5
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        r = (10 ** 4300 - 6) // 2
        assert cmd_dims(2, r)["tableau_dim"] == 10 ** 4300 - 1
        with pytest.raises(ValueError, match="have more than 4300 digits$"):
            cmd_dims(2, r + 1)


class TestReportWriter:
    """main prints cli._json(report), which must be json.dumps(report,
    indent=2) byte for byte."""

    @staticmethod
    def check(report) -> None:
        assert cli._json(report) == json.dumps(report, indent=2)

    def test_golden_reports(self):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert len(golden) == 52
        for outcome in golden.values():
            report = json.loads(outcome["stdout"])
            self.check(report)
            assert cli._json(report) + "\n" == outcome["stdout"]

    def test_benchmark_reports(self, tmp_path, capsys):
        # the 330 seed-1 requests of the three benchmark workloads, run by main
        problems = perfbench_problems()
        count = 0
        for workload in problems.WORKLOADS:
            for pass_index in range(3):
                requests = problems.generate(workload, 1, pass_index)
                paths = problems.write_files(requests, str(tmp_path))
                for req, file in zip(requests, paths):
                    assert main(problems.argv(req, file)) == 0
                    out = capsys.readouterr().out
                    report = json.loads(out)
                    self.check(report)
                    assert out == json.dumps(report, indent=2) + "\n"
                    count += 1
        assert count == 330

    def test_report_shapes(self):
        classified = cmd_classify(parse("n=2; u_t = u_11 + u_22"))
        assert classified["ma"]["n1_affine"] is None
        assert classified["laws"] == [] and classified["warnings"] == []
        self.check(classified)
        self.check(cmd_classify(parse("n=1; u_t = u*u_xx")))  # a warning
        self.check(cmd_verify(parse("n=1; u_t = u_xx"), "u", ["-u_x"]))
        big = cmd_dims(60, 400)
        assert big["tableau_dim"] > 2 ** 200
        self.check(big)
        self.check(cmd_dims(1, 0))
        for value in ({}, [], {"a": {}, "b": [[], {}]}, [None, True, False, 0, -12, 10 ** 40],
                      {"q\"uote\\": "caf\u00e9 \u2211 \U0001d54f\n\t\x00\x7f", "": ""}):
            self.check(value)
        with pytest.raises(TypeError):
            cli._json({"a": 1.5})


class TestMainEntry:
    def test_exit_zero_and_json(self, tmp_path, capsys):
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        assert main(["classify", str(f)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["equation"] == "u_t = u_xx"

    def test_exit_two_on_parse_error(self, tmp_path, capsys):
        f = tmp_path / "bad.pde"
        f.write_text("n=1; u_t = u_tt")
        assert main(["classify", str(f)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_exit_one_on_not_parabolic(self, tmp_path, capsys):
        f = tmp_path / "backward.pde"
        f.write_text("n=1; u_t = -u_xx")
        assert main(["claws", str(f)]) == 1
        assert "not parabolic" in capsys.readouterr().err
        assert main(["claws", str(f), "--force"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert any("force" in w for w in report["warnings"])

    @pytest.mark.parametrize("source, argv, shown", [
        ("n=2; u_t = u_11 + u_22",
         ["verify", "--density", "(x1^2 + x2^2 - 4*t)*u",
          "--flux", "-((x1^2 + x2^2 - 4*t)*u_1 - 2*x1*u)",
          "--flux", "-((x1^2 + x2^2 - 4*t)*u_2 - 2*x2*u)"],
         ["u_t = u_11 + u_22   (n = 2)",
          "density: x1^2*u + x2^2*u - 4*t*u",
          "flux: ['-x1^2*u_1 - x2^2*u_1 + 4*t*u_1 + 2*x1*u', "
          "'-x1^2*u_2 - x2^2*u_2 + 4*t*u_2 + 2*x2*u']",
          "verified: True",
          "characteristic: x1^2 + x2^2 - 4*t (order 0)"]),
        (None, ["dims", "-n", "2", "-r", "1"],
         ["tableau_dim(n=2, r=1) = 7", "system_dim = 12", "deprolongation_dim = 7"]),
        ("n=2; u_t = u_11*u_22 - u_12^2", ["classify"],
         ["u_t = u_11*u_22 - u_12^2   (n = 2)",
          "parabolicity: weak",
          "monge-ampere: minor_affine = True, residue_vanishes = n/a, n1_affine = n/a",
          "laws: 0",
          "warning: weakly parabolic symbol at the reference jet",
          "warning: singular symbol at the reference jet; residue test skipped"]),
    ], ids=["verify", "dims", "warnings"])
    def test_text_report(self, tmp_path, capsys, source, argv, shown):
        if source is not None:
            f = tmp_path / "problem.pde"
            f.write_text(source)
            argv = [argv[0], str(f), *argv[1:]]
        assert main([*argv, "--text"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1].startswith("elapsed: ")
        assert printed[:-1] == shown

    @pytest.mark.parametrize("command", [["classify"], ["classify", "--symbolic"],
                                         ["claws"]], ids=["classify", "symbolic", "claws"])
    @pytest.mark.parametrize("source, point", [
        ("n=1; u_t = u_xx/u_x", "u_1 = 0, u_11 = 0"),
        ("n=2; u_t = (u_11 + u_22)/u_1", "u_1 = 0, u_11 = 0, u_22 = 0"),
        # only the entry u_11/u_1 has a denominator that vanishes there
        ("n=2; u_t = u_11/u_1 + u_22/(1 + u_2)", "u_1 = 0, u_2 = 0, u_11 = 0, u_22 = 0"),
    ], ids=["n1", "n2", "n2-one-entry"])
    def test_exit_one_on_denominator_vanishing_at_reference_jet(
            self, tmp_path, capsys, command, source, point):
        f = tmp_path / "singular.pde"
        f.write_text(source)
        assert main([*command, str(f)]) == 1
        assert capsys.readouterr().err == (
            f"error: a denominator of the symbol vanishes at the reference jet "
            f"{point}; choose another with a ref clause\n")
        # a ref clause moves the jet; claws then refuses the rational G
        f.write_text(source + "; ref u_1 = 1")
        assert main([*command, str(f)]) == (1 if command == ["claws"] else 0)
        assert "reference jet" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["classify"], ["classify", "--symbolic"],
                                         ["claws"]], ids=["classify", "symbolic", "claws"])
    def test_ref_of_a_jet_absent_from_g_changes_no_report(self, tmp_path, capsys, command):
        # the reference jet is read only at the jets G holds
        reports = []
        for source in ("n=2; u_t = u_11 + u_22", "n=2; u_t = u_11 + u_22; ref u_1 = 1"):
            f = tmp_path / "problem.pde"
            f.write_text(source)
            assert main([*command, str(f)]) == 0
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1] and reports[0].err == ""

    def test_polynomial_symbol_of_a_rational_g(self, tmp_path, capsys):
        # G's denominator u vanishes at the default jet, but the symbol
        # sigma = xi_1^2 + xi_2^2 is a polynomial, so both classifications
        # go through; claws refuses the rational G
        f = tmp_path / "rational.pde"
        f.write_text("n=2; u_t = u_11 + u_22 + 1/u")
        for command in (["classify"], ["classify", "--symbolic"]):
            assert main([*command, str(f)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["parabolicity"] == "strict"
            assert report["ma"]["residue_vanishes"] is True
        assert main(["claws", str(f)]) == 1
        assert capsys.readouterr().err == "error: expression is not polynomial in {u}\n"

    def test_symbol_form_built_once_per_request(self, tmp_path, capsys, monkeypatch):
        from paraclaw import parabolic
        calls = []

        def counted(eq):
            calls.append(eq)
            return symbol_form(eq)
        symbol_form = parabolic.symbol_form
        monkeypatch.setattr(parabolic, "symbol_form", counted)
        f = tmp_path / "problem.pde"
        f.write_text("n=2; u_t = u_11 + u_22 + u_11^2")
        for command in (["classify"], ["classify", "--symbolic"], ["claws"],
                        ["claws", "--symbolic"]):
            calls.clear()
            assert main([*command, str(f)]) == 0
            assert len(calls) == 1, command
        capsys.readouterr()

    @pytest.mark.parametrize("source", ["n=1; u_t = u_x", "n=1; u_t = 0*u_xx"],
                             ids=["transport", "zero-symbol"])
    def test_claws_on_degenerate_symbol(self, tmp_path, capsys, source):
        # the order-2 bound on characteristics is a theorem for a strictly
        # parabolic symbol; on a degenerate one a law of order 4 is reported
        f = tmp_path / "degenerate.pde"
        f.write_text(source)
        assert main(["claws", str(f), "--jet-degree", "2"]) == 0
        laws = json.loads(capsys.readouterr().out)["laws"]
        assert [(law["characteristic"], law["order"]) for law in laws] == [
            ("1", 0), ("u", 0), ("u_xx", 2), ("u_xxxx", 4)]
        for law in laws:
            fluxes = [f"--flux={X}" for X in law["flux"]]
            assert main(["verify", str(f), "--density", law["density"], *fluxes]) == 0
            assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("options, flags, spec", [
        ("", [], AnsatzSpec()),
        ("; jet_degree = 2; base_degree = 1; order = 1", [], AnsatzSpec(1, 2, 1)),
        ("; jet_degree = 2", ["--base-degree", "2"], AnsatzSpec(2, 2, 2)),
        ("; order = 1", ["--order", "2", "--jet-degree", "0"], AnsatzSpec(2, 0, 0)),
    ], ids=["defaults", "file", "file-and-flag", "flag-over-file"])
    def test_claws_bounds_from_flags_then_file_then_defaults(
            self, tmp_path, capsys, monkeypatch, options, flags, spec):
        from paraclaw import cli
        searched = []

        def search(eq, got, force=False):
            searched.append(got)
            return []
        monkeypatch.setattr(cli, "find_conservation_laws", search)
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx" + options)
        assert main(["claws", str(f), *flags]) == 0
        assert searched == [spec]
        capsys.readouterr()

    def test_exit_one_on_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/f.pde"]) == 1

    def test_reports_byte_stable(self, tmp_path, capsys):
        f = tmp_path / "burgers.pde"
        f.write_text("n=1; u_t = u_xx + u*u_x; jet_degree = 2")
        assert main(["claws", str(f)]) == 0
        first = capsys.readouterr().out
        assert main(["claws", str(f)]) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert list(report) == ["schema_version", "n", "equation", "parabolicity",
                                "ma", "laws", "warnings"]
        law = report["laws"][0]
        assert list(law) == ["density", "flux", "characteristic", "order"]

    def test_text_mode_has_timing(self, tmp_path, capsys):
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        assert main(["classify", str(f), "--text"]) == 0
        out = capsys.readouterr().out
        assert "elapsed:" in out and "parabolicity: strict" in out

    @pytest.mark.parametrize("source, symbols", [
        ("n=1; u_t = u_xx/(1+u^2)", "{u}"),
        ("n=1; u_t = u_xx/(1+x^2)", "{x1}"),
    ])
    def test_claws_rational_equation_exits_one(self, tmp_path, capsys, source, symbols):
        f = tmp_path / "rational.pde"
        f.write_text(source)
        assert main(["claws", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: expression is not polynomial in {symbols}\n"

    def test_verify_density_past_order_limit_exits_one(self, tmp_path, capsys):
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        assert main(["verify", str(f), "--density", "u_" + "x" * 12, "--flux", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: density has jet order 12 > 11: its time derivative needs "
            "the equation prolonged past the order limit 12\n")
        assert main(["verify", str(f), "--density", "u_" + "x" * 11, "--flux", "0"]) == 0

    def test_verify_rational_density_exits_one(self, tmp_path, capsys):
        # the Euler operator of the characteristic refuses a density whose
        # denominator holds a jet
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        assert main(["verify", str(f), "--density", "u_1/u", "--flux", "0"]) == 1
        assert capsys.readouterr() == ("", "error: expression is not polynomial in {u}\n")

    @pytest.mark.parametrize("broken", ["cross_validation", "flux_check",
                                        "faddeev_leverrier", "minor_affine_residue"])
    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch, broken):
        from paraclaw import claws, cli, parabolic
        from paraclaw.claws import InvariantViolation
        source, commands = "n=1; u_t = u_xx", [["claws"]]
        if broken == "cross_validation":
            def violated(eq, laws, report=None):
                raise InvariantViolation("MA cross-validation violated: forced")
            monkeypatch.setattr(cli, "cross_validate_ma", violated)
            message = "MA cross-validation violated: forced"
        elif broken == "flux_check":
            monkeypatch.setattr(claws, "_balanced", lambda R, L, LX: False)
            message = "reconstructed flux fails to verify for T = u"
        elif broken == "faddeev_leverrier":
            # an inexact division by k in the real _div_exact: the weak
            # symbol under --symbolic is the one request that still runs
            # Faddeev-LeVerrier, as det g is 0 at the reference jet
            source, commands = "n=2; u_t = u_11", [
                ["classify", "--symbolic"], ["claws", "--symbolic"]]
            monkeypatch.setattr(parabolic, "divmod", lambda a, k: (a // k, 1),
                                raising=False)
            message = "Faddeev-LeVerrier: 1 does not divide -2"
        else:
            # sigma reported not to divide the quartic form 0 of a
            # minor-affine equation
            source, commands = "n=2; u_t = u_11 + u_22", [["classify"], ["claws"]]
            monkeypatch.setattr(parabolic, "_divides", lambda sigma, p, zero: False)
            message = "minor-affine equation with nonzero residue"
        f = tmp_path / "problem.pde"
        f.write_text(source)
        for command in commands:
            assert main([command[0], str(f), *command[1:]]) == 3, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"internal error: {message}\n"

    @pytest.mark.parametrize("source, argv, runs, residue", [
        ("n=2; u_t = u_11 + u_22 + (u_11 + u_22)^2", ["classify"], 0, True),
        ("n=2; u_t = u_11 + u_22 + (u_11 + u_22)^2", ["classify", "--symbolic"], 0, True),
        ("n=2; u_t = u_11 + u_22 + (u_11 + u_22)^2", ["claws"], 0, True),
        ("n=2; u_t = u_11", ["classify"], 0, None),
        ("n=2; u_t = u_11", ["classify", "--symbolic"], 1, None),
        ("n=2; u_t = u_11 - u_22", ["classify"], 1, True),
    ], ids=["strict", "strict-symbolic", "strict-claws", "weak", "weak-symbolic",
            "not-parabolic"])
    def test_faddeev_leverrier_runs_where_the_class_leaves_det_g_open(
            self, tmp_path, capsys, monkeypatch, source, argv, runs, residue):
        # a strict symbol has det g > 0 at the reference jet, and a weak one
        # a zero pivot there, so det g = 0: _det_adjugate runs only on a
        # symbol that is not parabolic, and under --symbolic on one that is
        # not strict; the weak u_11 is still reported singular, with its
        # warning, where its recursion no longer runs
        from paraclaw import parabolic
        calls = []
        real = parabolic._det_adjugate

        def counted(g, one):
            calls.append(len(g))
            return real(g, one)

        monkeypatch.setattr(parabolic, "_det_adjugate", counted)
        f = tmp_path / "problem.pde"
        f.write_text(source)
        assert main([argv[0], str(f), *argv[1:]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == runs
        assert report["ma"]["residue_vanishes"] is residue
        singular = "singular symbol at the reference jet; residue test skipped"
        assert (singular in report["warnings"]) is (residue is None)

    def test_reports_read_no_split(self, tmp_path, monkeypatch):
        # the residue verdict divides q by sigma: with the harmonic split
        # refused, classify, classify --symbolic and claws on the corpus, and
        # one pass of the three benchmark workloads, print what they print
        # when the verdict is the split's N = 0
        problems = perfbench_problems()
        argvs = []
        for entry in CORPUS:
            path = tmp_path / f"{entry.name}.pde"
            path.write_text(entry.source)
            argvs += [["classify", str(path)], ["classify", str(path), "--symbolic"],
                      ["claws", str(path)]]
        for workload in problems.WORKLOADS:
            requests = problems.generate(workload, 1, 0)
            paths = problems.write_files(requests, str(tmp_path / workload))
            argvs += [problems.argv(req, path) for req, path in zip(requests, paths)]

        def answers() -> list[tuple]:
            out = []
            for argv in argvs:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                out.append((code, stdout.getvalue(), stderr.getvalue()))
            return out

        with monkeypatch.context() as m:
            m.setattr(cli, "ma_classify", split_ma_classify)
            m.setattr(claws, "ma_classify", split_ma_classify)
            want = answers()
        with split_refused():
            got = answers()
        assert [a[0] for a in want].count(0) > len(argvs) // 2
        assert got == want

    def test_closed_stdout_exits_one_quietly(self, tmp_path):
        # the reader stops after the first line of a 270 kB report, as
        # `| head -1` does: exit 1, the code of an OSError, with no traceback
        # and no "Exception ignored" line
        f = tmp_path / "weak.pde"
        f.write_text("n=2; u_t = u_1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "paraclaw", "claws", str(f), "--order", "2",
             "--jet-degree", "3", "--base-degree", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_unsafe_order_flag(self, tmp_path, capsys):
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        assert main(["claws", str(f), "--order", "3"]) == 1  # refused without flag
        capsys.readouterr()
        assert main(["claws", str(f), "--order", "3", "--unsafe-order"]) == 0

    def test_verify_subcommand(self, tmp_path, capsys):
        f = tmp_path / "heat2.pde"
        f.write_text("n=2; u_t = u_11 + u_22")
        rc = main(["verify", str(f),
                   "--density", "(x1^2 + x2^2 - 4*t)*u",
                   "--flux", "-((x1^2 + x2^2 - 4*t)*u_1 - 2*x1*u)",
                   "--flux", "-((x1^2 + x2^2 - 4*t)*u_2 - 2*x2*u)"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_byte_stable_across_hash_seeds(self, tmp_path):
        # set/dict iteration must never leak into reports
        f = tmp_path / "heat2.pde"
        f.write_text("n=2; u_t = u_11 + u_22; base_degree = 1")
        outputs = []
        for seed in ("1", "2"):
            proc = run_paraclaw(["claws", str(f)], PYTHONHASHSEED=seed)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_symbolic_residue_flag(self, tmp_path, capsys):
        f = tmp_path / "lap2.pde"
        f.write_text("n=2; u_t = u_11 + u_22 + (u_11 + u_22)^2")
        assert main(["classify", str(f), "--symbolic"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ma"] == {"minor_affine": False, "residue_vanishes": True,
                                "n1_affine": None}

    def test_reader_keeps_no_state_between_calls(self, tmp_path, capsys):
        """Consecutive main calls in one process give the same stdout and
        exit codes on a second round, and a usage error in between changes
        nothing: the argument reader holds no state across calls."""
        import re

        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        calls = [
            ["verify", str(f), "--density", "u", "--flux=-u_x", "--flux", "0"],
            ["verify", str(f), "--density", "u", "--flux=-u_x"],
            ["claws", str(f), "--text"],
            ["claws", str(f)],
        ]

        def run(argv):
            code = main(argv)
            out = capsys.readouterr().out
            return code, re.sub(r"elapsed: \S+", "elapsed: <s>", out)

        first = [run(argv) for argv in calls]
        assert [code for code, _ in first] == [1, 0, 0, 0]
        assert [run(argv) for argv in calls] == first
        with pytest.raises(SystemExit) as usage:
            main(["claws"])
        assert usage.value.code == 2
        assert run(calls[1]) == first[1]

    def test_one_parabolicity_check_per_claws_request(self, tmp_path, capsys,
                                                      monkeypatch):
        # cli classifies once; the search reads the class cached on the
        # equation, also at 2/2/0, where the order bound restricts it
        from paraclaw import cli, parabolic
        calls = []
        computed = []
        real = cli.parabolicity_check
        prop = parabolic.EvolutionEquation.parabolicity
        real_class = prop.func

        def counting(eq):
            calls.append(eq)
            return real(eq)

        def classifying(eq):
            computed.append(eq)
            return real_class(eq)

        monkeypatch.setattr(cli, "parabolicity_check", counting)
        monkeypatch.setattr(prop, "func", classifying)
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        assert main(["claws", str(f)]) == 0
        assert len(calls) == len(computed) == 1
        calls.clear()
        computed.clear()
        assert main(["claws", str(f), "--jet-degree", "2"]) == 0
        assert len(calls) == len(computed) == 1
        f.write_text("n=1; u_t = -u_xx")
        calls.clear()
        classified = []
        monkeypatch.setattr(cli, "ma_classify",
                            lambda *a, **k: classified.append(a))
        assert main(["claws", str(f)]) == 1
        assert capsys.readouterr().err == (
            "error: symbol is not parabolic at the reference jet; "
            "pass --force (force=True in the API) to proceed\n")
        assert len(calls) == 1 and classified == []

    def test_file_options_feed_claws_defaults(self, tmp_path, capsys):
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx; base_degree = 2")
        assert main(["claws", str(f)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert any(law["characteristic"] == "x^2 - 2*t" for law in report["laws"])


class TestCorollary:
    """Only equations of Monge-Ampere type have a nontrivial conservation
    law.  A strictly parabolic polynomial G whose reported verdict
    (n1_affine for n = 1, residue_vanishes for n >= 2) is False has a
    quartic form that is not 0, so `claws` and the API answer it with no
    laws and no search stage unless ``unsafe_order`` asks for one; the
    search over every kept column, the independent route, finds none
    there either."""

    def test_corpus_reports_match_the_search(self):
        decided = [entry for entry in CORPUS if corollary_decides(entry.equation())]
        assert [entry.name for entry in decided] == ["quadratic_diffusion",
                                                     "anisotropic_quartic"]
        for entry in decided:
            eq = entry.equation()
            for spec in golden_ansatz_specs():
                assert claws._laws_of_columns(eq, *claws._plan(eq.n, spec)) == [], entry.name
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
        with no_search():
            got = claws_corpus_reports(entries=decided)
        assert len(got) == 2 * len(golden_ansatz_specs())
        for key, outcome in got.items():
            assert outcome == golden[key], key

    def test_random_reports_match_the_search(self):
        # and the quartic and qdiff requests of wide-ansatz, 2 per pass
        problems = random_non_ma_problems() + benchmark_non_ma_problems()
        assert suite_corollary_routes_agree(problems) == 48 + 18

    def test_api_answers_with_no_search(self):
        # every input the corollary decides here, pointwise or symbolically,
        # has a quartic form that is not 0: find_conservation_laws returns
        # no law with no search
        problems = [(entry.equation(), spec) for entry in CORPUS
                    if corollary_decides(entry.equation()) for spec in golden_ansatz_specs()]
        problems += [(parse(source).equation(), spec)
                     for source, spec in random_non_ma_problems()]
        problems.append((parse("n=2; u_t = u_11 + u_22 + u*u_11^2").equation(), AnsatzSpec()))
        with no_search():
            for eq, spec in problems:
                assert find_conservation_laws(eq, spec) == [], f"u_t = {eq.G} at {spec}"
        assert len(problems) == 2 * 4 + 48 + 1

    def test_symbolic_verdict_decides_symbolic_requests(self, tmp_path, capsys):
        # the residue of u*u_11^2 vanishes at the reference jet u = 0 but
        # not identically: the pointwise verdict is True, the symbolic one
        # False; its quartic form 2u xi_1^4 is not 0 either way, so neither
        # request is searched
        source = "n=2; u_t = u_11 + u_22 + u*u_11^2"
        f = tmp_path / "problem.pde"
        f.write_text(source)
        for flags, residue in (([], True), (["--symbolic"], False)):
            with no_search():
                assert main(["claws", str(f), *flags]) == 0
                want = searched_claws_output(parse(source), AnsatzSpec(), bool(flags))
            out = capsys.readouterr().out
            assert out == want
            report = json.loads(out)
            assert report["laws"] == [] and report["ma"]["residue_vanishes"] is residue

    UNSAFE_ORDER_REPORT = """{
  "schema_version": 1,
  "n": %s,
  "equation": "%s",
  "parabolicity": "strict",
  "ma": {
    "minor_affine": false,
    "residue_vanishes": %s,
    "n1_affine": %s
  },
  "laws": [],
  "warnings": []
}
"""

    @pytest.mark.parametrize("source, code, stdout, stderr", [
        ("n=1; u_t = u_xx + u_xx^2", 0,
         UNSAFE_ORDER_REPORT % (1, "u_t = u_xx^2 + u_xx", "null", "false"), ""),
        ("n=2; u_t = u_11 + u_22 + u_11^2", 0,
         UNSAFE_ORDER_REPORT % (2, "u_t = u_11^2 + u_11 + u_22", "false", "null"), ""),
        ("n=1; u_t = u_xx + u_xx^2 + ((u^2048)^1024)^1023*(u^2047)^1024*u^1023; "
         "jet_degree = 3", 1, "", "error: a monomial exponent would pass 2147483647 = 2^31 - 1\n"),
    ], ids=["n1", "n2", "product-past-the-field"])
    def test_unsafe_order_searches_every_kept_column(self, tmp_path, capsys, monkeypatch,
                                                     source, code, stdout, stderr):
        # --unsafe-order asks for the search that tests the order bound, so
        # a G the corollary decides is searched on the plan's columns: it
        # finds no law, or reports the search's error (the product of
        # test_corollary_answers_before_a_product_past_the_field)
        f = tmp_path / "problem.pde"
        f.write_text(source)
        calls = []
        for name in ("_plan", "assemble_determining_system"):
            real = getattr(claws, name)
            monkeypatch.setattr(claws, name, lambda *args, _name=name, _real=real:
                                calls.append(_name) or _real(*args))
        assert main(["claws", str(f), "--order", "3", "--unsafe-order"]) == code
        assert capsys.readouterr() == (stdout, stderr)
        assert calls == ["_plan", "assemble_determining_system"]

    @pytest.mark.parametrize("source, flags, laws", [
        ("n=2; u_t = u_11 + u_22 + u_11^2; ref u_11 = -1/2", [], 0),
        ("n=1; u_t = u_xx + u_xx^2; ref u_xx = -1/2", [], 0),
        ("n=1; u_t = -u_xx - u_xx^2", ["--force"], 0),
        ("n=2; u_t = u_11*u_22 - u_12^2", [], 1),
        ("n=1; u_t = u_xx", [], 1),
        ("n=2; u_t = (u_11 + u_22 + u_11^2)/(1+u^2)", ["--jet-degree", "0"], 0),
    ], ids=["weak-singular", "weak-not-affine", "forced", "det-hessian", "heat",
            "rational-empty-ansatz"])
    def test_searched(self, tmp_path, capsys, monkeypatch, source, flags, laws):
        # a weak, forced or singular symbol, a True or undecided verdict
        # and a rational G leave the answer to the search
        f = tmp_path / "problem.pde"
        f.write_text(source)
        calls = []
        real = cli.find_conservation_laws
        monkeypatch.setattr(cli, "find_conservation_laws",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        assert main(["claws", str(f), *flags]) == 0
        assert len(json.loads(capsys.readouterr().out)["laws"]) == laws
        assert len(calls) == 1

    @pytest.mark.parametrize("source, flags, stderr", [
        ("n=2; u_t = (u_11 + u_22 + u_11^2)/(1+u^2)", [],
         "error: expression is not polynomial in {u}\n"),
        ("n=2; u_t = u_11 + u_22 + 1/(1+u^2)",
         ["--order", "2", "--jet-degree", "6", "--base-degree", "3"],
         "error: expression is not polynomial in {u}\n"),
        ("n=2; u_t = u_11 + u_22 + 1/(1+u^2)", ["--jet-degree", "9", "--base-degree", "3"],
         "error: 100100 monomials exceed MAX_TERMS = 20000\n"),
        ("n=2; u_t = u_11 + u_22 + u_11^2", ["--jet-degree", "9", "--base-degree", "3"],
         "error: 100100 monomials exceed MAX_TERMS = 20000\n"),
    ], ids=["rational", "rational-2/6/3", "rational-too-large", "ansatz-too-large"])
    def test_search_refusals_kept(self, tmp_path, capsys, source, flags, stderr):
        # each is refused before any search stage runs: a rational G after
        # the size check, with no ansatz built
        f = tmp_path / "problem.pde"
        f.write_text(source)
        with no_search():
            assert main(["claws", str(f), *flags]) == 1
        assert capsys.readouterr().err == stderr


class TestBoundedWork:
    """Inputs that once ran for minutes end within seconds with their
    documented exit code: rational G in the Hessian (the quartic form is
    read off second derivatives), products that expand past
    expr.MAX_TERMS while parsing (exit 2), symbolic residues of
    non-Monge-Ampere G (the verdict is a polynomial identity, with no gcd),
    high powers of rational functions (the gcd's pseudo-remainder
    sequence is primitive over Z), the on-shell D_t T over a rational G (a
    content gcd folds the smaller operand through the coefficients, smallest
    first), ansaetze past expr.MAX_TERMS (counted before any monomial is
    built), tableau dimensions at large r (a closed form), tableau
    dimensions past the digits Python prints (refused, far past them before
    they are computed) and jet orders far past jets.ORDER_GUARD (refused
    before the Euler operator's walk), the Euler operator of a
    quotient density (its numerator walked once, normalized at the root)
    and a law search on a rational G (refused before assembly)."""

    @pytest.mark.parametrize("command, source, code", [
        ("classify", "n=2; u_t = (u_11 + u_22)/(1+u_12^2)", 0),
        ("classify", "n=2; u_t = u_11 + u_22 + u_11^2/(1+u_22^2)", 0),
        ("classify", "n=3; u_t = (u_11+u_22+u_33)/(1+u_12^2+u_13^2)", 0),
        ("claws", "n=2; u_t = (u_11 + u_22)/(1+u_12^2)", 1),
        ("claws --order 2 --jet-degree 3 --base-degree 1",
         "n=2; u_t = (u_11 + u_22)/(1+x1^2+x2^2)", 1),
        ("classify", "n=2; u_t = u_11 + u_22 + (u+u_1+u_2+x1+x2+t)^15", 2),
        ("classify", "n=2; u_t = u_11 + u_22 + (u+u_1+u_2+x1+x2+t)^16", 2),
        ("classify", "n=2; u_t = u_11 + u_22 + (u+u_1+u_2+x1+x2+t)^40", 2),
        ("classify", "n=1; u_t = u_xx + (1+u)^100000", 2),
    ], ids=["rational-2d", "rational-reaction", "rational-3d", "claws-rational",
            "claws-rational-base-2-3-1", "power-15", "power-16", "power-40",
            "power-100000"])
    def test_ends_with_documented_exit_code(self, tmp_path, command, source, code):
        f = tmp_path / "problem.pde"
        f.write_text(source)
        proc = run_paraclaw([*command.split(), str(f)], timeout=8)
        assert proc.returncode == code, proc.stderr
        if code == 1:
            # the jets of G's denominator, or all its symbols when it has none
            symbols = "{u_12}" if "u_12" in source else "{x1, x2}"
            assert proc.stderr == f"error: expression is not polynomial in {symbols}\n"
        if code == 2:
            assert proc.stderr.startswith("parse error: expression expands past "
                                          "MAX_TERMS = 20000 term products")

    @pytest.mark.parametrize("command, source, ma", [
        ("classify --symbolic", "n=2; u_t = u_11 + u_22 + u_11*u_22*u_12",
         {"minor_affine": False, "residue_vanishes": False, "n1_affine": None}),
        ("classify --symbolic",
         "n=3; u_t = u_11 + u_22 + u_33 + u_11*u_22*u_12 + u_33^2",
         {"minor_affine": False, "residue_vanishes": False, "n1_affine": None}),
        ("classify", "n=1; u_t = u_xx + ((1+u)/(2+u))^60",
         {"minor_affine": True, "residue_vanishes": None, "n1_affine": True}),
        ("classify --symbolic",
         "n=3; u_t = u_11 + u_22 + u_33 + u_11*u_22*u_33 + 2*u_12*u_13*u_23"
         " - u_11*u_23^2 - u_22*u_13^2 - u_33*u_12^2;"
         " ref u_11 = 1; ref u_22 = 1; ref u_33 = 1",
         {"minor_affine": True, "residue_vanishes": True, "n1_affine": None}),
        ("classify --symbolic", "n=2; u_t = (u_11 + u_22 + u_11^2)/(2 + u_1^2 + u_2^2)",
         {"minor_affine": False, "residue_vanishes": False, "n1_affine": None}),
    ], ids=["symbolic-2d", "symbolic-3d", "rational-power-60", "symbolic-det-hessian-3d",
            "symbolic-rational"])
    def test_classifies(self, tmp_path, command, source, ma):
        f = tmp_path / "problem.pde"
        f.write_text(source)
        proc = run_paraclaw([*command.split(), str(f)], timeout=8)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ma"] == ma

    def test_symbolic_n5_laplacian_squared_within_cap(self, tmp_path):
        # the verdict divides q by sigma and builds no adjugate Laplacians:
        # 14 ms of request time, where building the split took about 1 s
        # (2-vCPU VM).  Timed in a fresh process, whose symbols take the low
        # slots, and without its start-up
        f = tmp_path / "problem.pde"
        f.write_text("n=5; u_t = u_11 + u_22 + u_33 + u_44 + u_55"
                     " + 3/2*(u_11 + u_22 + u_33 + u_44 + u_55)^2"
                     " + u_1*(u_11 + u_22 + u_33 + u_44 + u_55)")
        timed = ("import sys, time\n"
                 "from paraclaw.cli import main\n"
                 "started = time.perf_counter()\n"
                 "code = main(['classify', '--symbolic', sys.argv[1]])\n"
                 "print(code, time.perf_counter() - started, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", timed, str(f)], capture_output=True,
                              text=True, timeout=8, env=child_env())
        code, elapsed = proc.stderr.split()
        assert code == "0"
        assert float(elapsed) < 0.3
        assert json.loads(proc.stdout)["ma"] == {
            "minor_affine": False, "residue_vanishes": True, "n1_affine": None}

    def test_verifies_over_rational_equation(self, tmp_path):
        f = tmp_path / "problem.pde"
        f.write_text("n=3; u_t = (2/3*t*u_1 - 2/3*u*u_3 - 1/3*x1)/(u_1^2 + 1)")
        density = ("-10/7*x1^2*u_1*u_33 + 15/7*u_1^2*u_2^2 + 25/7*u_1*u_11*u_12^2"
                   " + 2*t*x1*u_1")
        proc = run_paraclaw(["verify", str(f), "--density", density,
                             "--flux", "0", "--flux", "0", "--flux", "0"], timeout=8)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verified"] is False

    def test_verifies_quotient_density(self, tmp_path):
        # E_u of a quotient walks its numerator and normalizes once; the
        # characteristic (16713 characters) is pinned by its digest
        f = tmp_path / "problem.pde"
        f.write_text("n=2; u_t = u_11 + u_22")
        proc = run_paraclaw(["verify", str(f),
                             "--density=3/5*u_112^2*u_122*u_2222^2/(t*x1*x2 + 2/5)",
                             "--flux=0", "--flux=0"], timeout=8)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["verified"] is False
        assert hashlib.sha256(report["characteristic"].encode()).hexdigest() \
            == "917d41db3d3762fcb7cfdc250e180ea33533b033845f6c0932b255f8d4be064a"

    def test_non_ma_claws_is_answered_without_a_search(self, tmp_path):
        # the search at these bounds took 20 s and 750 MiB
        f = tmp_path / "problem.pde"
        f.write_text("n=2; u_t = u_11 + u_22 + u_11^2")
        started = time.monotonic()
        proc = run_paraclaw(["claws", str(f), "--order", "2", "--jet-degree", "6",
                             "--base-degree", "3"], timeout=8)
        assert time.monotonic() - started < 2
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["laws"] == []

    def test_oversized_ansatz_fails_before_enumerating(self, tmp_path):
        f = tmp_path / "problem.pde"
        f.write_text("n=2; u_t = u_11 + u_22")
        proc = run_paraclaw(["claws", str(f), "--jet-degree", "1000"], timeout=8)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.endswith(" monomials exceed MAX_TERMS = 20000\n")

    @pytest.mark.parametrize("args, stderr", [
        (["verify", "--density", "u_" + "x" * 1200, "--flux", "0"],
         "error: density has jet order 1200 > 11: its time derivative needs "
         "the equation prolonged past the order limit 12\n"),
        (["claws", "--unsafe-order", "--order", "1200"],
         "error: max_jet_order 1200 reaches the order limit ORDER_GUARD = 12\n"),
    ], ids=["verify-density", "claws-unsafe-order"])
    def test_order_past_the_limit_is_refused(self, tmp_path, args, stderr):
        f = tmp_path / "heat.pde"
        f.write_text("n=1; u_t = u_xx")
        proc = run_paraclaw([args[0], str(f), *args[1:]], timeout=8)
        assert proc.returncode == 1
        assert proc.stderr == stderr

    @pytest.mark.parametrize("n, r", [("20000", "20000"), ("2000000", "2000000")])
    def test_dims_past_the_printable_digits_is_refused(self, n, r):
        proc = run_paraclaw(["dims", "-n", n, "-r", r], timeout=8)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (f"error: the dimensions for n = {n}, r = {r} have more "
                               "than 4300 digits\n")

    def test_dims_at_large_order(self):
        proc = run_paraclaw(["dims", "-n", "50", "-r", "2000000"], timeout=8)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert (report["n"], report["r"]) == (50, 2000000)
        assert report["tableau_dim"] > 0
