"""Command dispatch and machine-readable reports.

The commands read problem files in the grammar of :mod:`paraclaw.grammar`.
JSON reports follow a fixed schema (see README) and are byte-stable for
identical inputs; elapsed time appears only in --text output.
"""

from __future__ import annotations

import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from .claws import (
    AnsatzSpec, ConservationLaw, InvariantViolation, NotParabolicEquation,
    check_density_order, cross_validate_ma, find_conservation_laws,
    jacobi_potential_order, verify,
)
from .expr import DivisionByZeroExpr
from .grammar import ParseError, ProblemFile, expr_to_source, parse, parse_expression
from .jets import (
    deprolongation_dimension, euler_operator, parabolic_system_dimension,
    tableau_dimension,
)
from .parabolic import Parabolicity, ma_classify, parabolicity_check

__all__ = [
    "cmd_classify", "cmd_claws", "cmd_verify", "cmd_dims",
    "main", "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _law_section(law: ConservationLaw, n: int) -> dict:
    return {
        "density": expr_to_source(law.T, n),
        "flux": [expr_to_source(x, n) for x in law.X],
        "characteristic": expr_to_source(law.Q, n),
        "order": jacobi_potential_order(law),
    }


def _report_skeleton(pf: ProblemFile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": pf.n,
        "equation": pf.equation_text(),
    }


def _classified(pf: ProblemFile, symbolic: bool, force: bool | None = None) -> tuple:
    """(equation, report with no laws yet, Monge-Ampere report).  A symbol
    that is not parabolic is reported as such when force is None, refused
    before it is classified when force is False, and a warning when True."""
    eq = pf.equation()
    report = _report_skeleton(pf)
    warnings: list[str] = []
    verdict = parabolicity_check(eq)
    if verdict is Parabolicity.WEAK:
        warnings.append("weakly parabolic symbol at the reference jet")
    if verdict is Parabolicity.NOT_PARABOLIC and force is not None:
        if not force:
            raise NotParabolicEquation()
        warnings.append("not parabolic at the reference jet; proceeding (--force)")
    ma = ma_classify(eq, symbolic=symbolic)
    if ma.singular_symbol:
        warnings.append("singular symbol at the reference jet; residue test skipped")
    report["parabolicity"] = verdict.value
    report["ma"] = {
        "minor_affine": ma.minor_affine,
        "residue_vanishes": ma.residue_vanishes,
        "n1_affine": ma.n1_affine,
    }
    report["laws"] = []
    report["warnings"] = warnings
    return eq, report, ma


def cmd_classify(pf: ProblemFile, symbolic: bool = False) -> dict:
    return _classified(pf, symbolic)[1]


def cmd_claws(pf: ProblemFile, spec: AnsatzSpec, symbolic: bool = False,
              force: bool = False) -> dict:
    """The claws report: the classified equation, searched by
    :func:`~paraclaw.claws.find_conservation_laws`, its laws cross-checked
    against the pointwise Monge-Ampere verdict."""
    eq, report, ma = _classified(pf, symbolic, force)
    laws = find_conservation_laws(eq, spec, force=True)
    # the cross-check uses the pointwise verdict, so a --symbolic one is not reused
    cross_validate_ma(eq, laws, None if symbolic else ma)
    report["laws"] = [_law_section(law, eq.n) for law in laws]
    return report


def cmd_verify(pf: ProblemFile, density: str, fluxes: list[str]) -> dict:
    eq = pf.equation()
    if len(fluxes) != eq.n:
        raise ValueError(f"expected {eq.n} flux expression(s), got {len(fluxes)}")
    T = parse_expression(density, eq.n)
    X = tuple(parse_expression(f, eq.n) for f in fluxes)
    check_density_order(T)  # bounds the work of E_u and of the on-shell D_t T
    law = ConservationLaw(T, X, euler_operator(T))
    report = _report_skeleton(pf)
    report["density"] = expr_to_source(T, eq.n)
    report["flux"] = [expr_to_source(x, eq.n) for x in X]
    report["verified"] = verify(eq, law)
    report["characteristic"] = expr_to_source(law.Q, eq.n)
    report["order"] = jacobi_potential_order(law)
    report["warnings"] = []
    return report


def cmd_dims(n: int, r: int) -> dict:
    """The dimensions report.  A dimension with more digits than Python prints
    (sys.get_int_max_str_digits) is refused, and a tableau dimension far past
    that is refused before it is computed: it is at least C(n+r+2, k) n/(n+r+2)
    for k = min(n, r+2), and C(n+r+2, k) is at least 2^k and ((n+r+2)/k)^k."""
    limit = sys.get_int_max_str_digits()
    too_long = ValueError(f"the dimensions for n = {n}, r = {r} have more than "
                          f"{limit} digits")
    k = min(n, r + 2)
    if limit and k > 0 and r >= 0 and (
            k > 10 * limit or k * (math.log10(n + r + 2) - math.log10(k)) > 3 * limit):
        raise too_long
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "r": r,
        "tableau_dim": tableau_dimension(n, r),
        "system_dim": parabolic_system_dimension(n),
        "deprolongation_dim": deprolongation_dimension(n),
    }
    if limit and max(report.values()) >= 10 ** limit:
        raise too_long
    return report


# ---------------------------------------------------------------------------
# Rendering and entry point
# ---------------------------------------------------------------------------

def _render_text(report: dict, elapsed: float) -> str:
    lines = []
    if "equation" in report:
        lines.append(f"{report['equation']}   (n = {report['n']})")
    if "parabolicity" in report:
        lines.append(f"parabolicity: {report['parabolicity']}")
    if "ma" in report:
        ma = report["ma"]
        flags = ", ".join(f"{k} = {'n/a' if v is None else v}" for k, v in ma.items())
        lines.append(f"monge-ampere: {flags}")
    if "verified" in report:
        lines.append(f"density: {report['density']}")
        lines.append(f"flux: {report['flux']}")
        lines.append(f"verified: {report['verified']}")
        lines.append(f"characteristic: {report['characteristic']} "
                     f"(order {report['order']})")
    if "laws" in report:
        lines.append(f"laws: {len(report['laws'])}")
        for k, law in enumerate(report["laws"], start=1):
            lines.append(f"  [{k}] Q = {law['characteristic']} (order {law['order']})")
            lines.append(f"      T = {law['density']}")
            lines.append(f"      X = [{', '.join(law['flux'])}]")
    if "tableau_dim" in report:
        lines.append(f"tableau_dim(n={report['n']}, r={report['r']}) = "
                     f"{report['tableau_dim']}")
        lines.append(f"system_dim = {report['system_dim']}")
        lines.append(f"deprolongation_dim = {report['deprolongation_dim']}")
    for w in report.get("warnings", []):
        lines.append(f"warning: {w}")
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for the types a report
    holds: dict (with str keys), list, str, bool, None and int.  dumps
    runs the pure-Python encoder whenever it indents."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + ",".join([f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
                               for k, v in value.items()]) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + ",".join([inner + _json(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"a report holds no {type(value).__name__}")


def _read_problem(path: str) -> ProblemFile:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _ansatz_spec(pf: ProblemFile, args: dict) -> AnsatzSpec:
    """Each bound from its flag, else from the file, else AnsatzSpec's default."""
    bounds = {}
    for field, flag in (("max_jet_order", "order"), ("jet_degree", "jet_degree"),
                        ("base_degree", "base_degree")):
        value = args[flag] if args[flag] is not None else getattr(pf, field)
        if value is not None:
            bounds[field] = value
    return AnsatzSpec(**bounds, unsafe_order=args["unsafe_order"])


# ---------------------------------------------------------------------------
# Arguments
# ---------------------------------------------------------------------------

_DESCRIPTION = ("Conservation laws and Monge-Ampere classification for "
                "evolutionary parabolic equations u_t = G(x, t, u, Du, Hess u).")

# An option string maps to (destination, converter, third, help).  A switch
# has no converter and stores `third`; switches that share a destination
# exclude each other.  A value option is converted with int or str, and
# appends to a list when `third` is true.
_OUTPUT = {
    "--json": ("as_json", None, True, "machine-readable report (default)"),
    "--text": ("as_json", None, False, "human-readable report with timing"),
}

# command -> (help, takes the problem file, options, defaults, required options)
_COMMANDS = {
    "classify": ("parabolicity and Monge-Ampere tests", True,
                 {"--symbolic": ("symbolic", None, True,
                                 "compute the traceless residue over the rational "
                                 "functions of the jet, not at the reference jet"),
                  **_OUTPUT},
                 {"symbolic": False, "as_json": True}, ()),
    "claws": ("find conservation laws", True, {
        "--jet-degree": ("jet_degree", int, False, None),
        "--base-degree": ("base_degree", int, False, None),
        "--order": ("order", int, False,
                    "max jet order of the density ansatz (capped at 2)"),
        "--unsafe-order": ("unsafe_order", None, True,
                           "allow --order above the proven bound of 2"),
        "--symbolic": ("symbolic", None, True,
                       "report the traceless residue computed over the rational "
                       "functions of the jet, not at the reference jet"),
        "--force": ("force", None, True, "proceed despite a non-parabolic symbol"),
        **_OUTPUT,
    }, {"jet_degree": None, "base_degree": None, "order": None, "unsafe_order": False,
        "symbolic": False, "force": False, "as_json": True}, ()),
    "verify": ("check D_t T + Div X = 0 exactly", True, {
        "--density": ("density", str, False, None),
        "--flux": ("flux", str, True, "repeat n times, one expression per direction"),
        **_OUTPUT,
    }, {"density": None, "flux": None, "as_json": True}, ("--density", "--flux")),
    "dims": ("tableau and system dimensions", False, {
        "-n": ("n", int, False, None), "-r": ("r", int, False, None), **_OUTPUT,
    }, {"n": None, "r": 0, "as_json": True}, ("-n",)),
}


def _read_args(argv: list[str]) -> dict:
    """The command and its options, keyed by destination.  An argv that
    starts with the command, spells every option in full, gives each value
    after a space or an "=", and holds exactly the files the command takes
    is read here, by the command table; a value that follows its option
    after a space is taken whatever it starts with.  Every other argv is
    read by argparse (:func:`_parse_args`)."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        return _parse_args(argv)
    _, takes_file, options, defaults, required = _COMMANDS[command]
    args = {"command": command, **defaults}
    seen, switched = set(), {}
    i, count = 1, len(argv)
    while i < count:
        arg = argv[i]
        i += 1
        if arg[:1] != "-" or arg == "-":
            if not takes_file or "file" in args:
                return _parse_args(argv)
            args["file"] = arg
            continue
        name, eq, value = arg.partition("=")
        if name not in options:
            return _parse_args(argv)
        dest, convert, third, _ = options[name]
        if convert is None:
            if eq or switched.setdefault(dest, name) != name:
                return _parse_args(argv)
            args[dest] = third
        else:
            if not eq:
                if i == count:
                    return _parse_args(argv)
                value = argv[i]
                i += 1
            if convert is int:
                try:
                    value = int(value)
                except ValueError:
                    return _parse_args(argv)
            if not third:
                args[dest] = value
            elif args[dest] is None:
                args[dest] = [value]
            else:
                args[dest].append(value)
        seen.add(name)
    if (takes_file and "file" not in args) or not seen.issuperset(required):
        return _parse_args(argv)
    return args


def _parse_args(argv: list[str]) -> dict:
    """argv read by argparse, with a parser built from the command table:
    unique prefixes of long options, "-n3", "--", options before the
    command, the help (exit 0) and every usage error (exit 2).  A value
    option, spelled in full or as a unique prefix, is first joined to the
    next argument by "=", up to any "--", so that its value may start with
    "-", as :func:`_read_args` takes it."""
    import argparse

    parser = argparse.ArgumentParser(prog="paraclaw", description=_DESCRIPTION)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (summary, takes_file, options, defaults, required) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=summary)
        if takes_file:
            sub.add_argument("file", help="problem file, or - for stdin")
        groups = {}
        for opt, (dest, convert, third, text) in options.items():
            if convert is not None:
                sub.add_argument(opt, dest=dest, type=convert, default=defaults[dest],
                                 action="append" if third else "store",
                                 required=opt in required, help=text)
                continue
            if dest not in groups:  # switches that share a destination exclude each other
                shared = sum(spec[0] == dest for spec in options.values()) > 1
                groups[dest] = sub.add_mutually_exclusive_group() if shared else sub
            groups[dest].add_argument(opt, dest=dest, action="store_const", const=third,
                                      default=defaults[dest], help=text)
    joined, options, i = [], None, 0
    while i < len(argv) and argv[i] != "--":
        arg = argv[i]
        i += 1
        if options is None:  # before the command
            options = _COMMANDS[arg][2] if arg in _COMMANDS else None
        else:
            hits = [arg] if arg in options else [
                opt for opt in (*options, "--help") if arg[:2] == "--" and opt.startswith(arg)]
            opt = hits[0] if len(hits) == 1 else None
            if opt in options and options[opt][1] is not None and i < len(argv):
                arg = f"{arg}={argv[i]}"
                i += 1
        joined.append(arg)
    return vars(parser.parse_args(joined + argv[i:]))


def main(argv: list[str] | None = None) -> int:
    args = _read_args(sys.argv[1:] if argv is None else argv)
    command = args["command"]
    started = time.monotonic()
    try:
        if command == "classify":
            report = cmd_classify(_read_problem(args["file"]), symbolic=args["symbolic"])
        elif command == "claws":
            pf = _read_problem(args["file"])
            report = cmd_claws(pf, _ansatz_spec(pf, args),
                               symbolic=args["symbolic"], force=args["force"])
        elif command == "verify":
            report = cmd_verify(_read_problem(args["file"]), args["density"], args["flux"])
        else:
            report = cmd_dims(args["n"], args["r"])
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, DivisionByZeroExpr, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args["as_json"]:
        text = _json(report)
    else:
        text = _render_text(report, time.monotonic() - started)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: stdout goes to devnull, so that the
        # flush at exit writes nowhere instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
