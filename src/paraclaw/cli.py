"""Command dispatch and machine-readable reports.

The commands read problem files in the grammar of :mod:`paraclaw.grammar`.
JSON reports follow a fixed schema (see README) and are byte-stable for
identical inputs; elapsed time appears only in --text output.
"""

from __future__ import annotations

import math
import re
import sys
import time
from json.encoder import encode_basestring_ascii

from .claws import (
    AnsatzSpec, ConservationLaw, InvariantViolation, NotParabolicEquation,
    check_ansatz_size, check_density_order, cross_validate_ma, excluding_verdict,
    find_conservation_laws, jacobi_potential_order, verify,
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
    """The claws report.  A strictly parabolic polynomial G whose reported
    Monge-Ampere verdict (symbolic with ``symbolic``) excludes every
    nontrivial law is answered by the paper's corollary: no laws, after
    the search's size check and with no search.  The verdict is False on
    an open set of strictly parabolic jets, where no nonzero polynomial
    characteristic vanishes, so the search could only return none.  Any
    other equation is searched, and its laws are cross-checked.  Without
    ``--unsafe-order`` the search answers such a G with no search too (its
    quartic form is not 0, :func:`~paraclaw.claws.find_conservation_laws`);
    the corollary is kept for ``--unsafe-order`` requests, which the search
    runs on every kept column, and for the verdict it names."""
    eq, report, ma = _classified(pf, symbolic, force)
    if (report["parabolicity"] == Parabolicity.STRICT and eq.G.is_polynomial
            and excluding_verdict(eq.n, ma)):
        check_ansatz_size(eq.n, spec)
        return report
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
_HELP = {
    "-h": ("help", None, None, "show this help message and exit"),
    "--help": ("help", None, None, None),
}
_OUTPUT = {
    "--json": ("as_json", None, True, "machine-readable report (default)"),
    "--text": ("as_json", None, False, "human-readable report with timing"),
}

# command -> (help, takes the problem file, options, defaults, required options)
_COMMANDS = {
    "classify": ("parabolicity and Monge-Ampere tests", True,
                 {**_HELP,
                  "--symbolic": ("symbolic", None, True,
                                 "compute the traceless residue over the rational "
                                 "functions of the jet, not at the reference jet"),
                  **_OUTPUT},
                 {"symbolic": False, "as_json": True}, ()),
    "claws": ("find conservation laws", True, {
        **_HELP,
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
        **_HELP,
        "--density": ("density", str, False, None),
        "--flux": ("flux", str, True, "repeat n times, one expression per direction"),
        **_OUTPUT,
    }, {"density": None, "flux": None, "as_json": True}, ("--density", "--flux")),
    "dims": ("tableau and system dimensions", False, {
        **_HELP, "-n": ("n", int, False, None), "-r": ("r", int, False, None), **_OUTPUT,
    }, {"n": None, "r": 0, "as_json": True}, ("-n",)),
}


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: paraclaw [-h] {{{','.join(_COMMANDS)}}} ..."
    _, takes_file, options, _, required = _COMMANDS[command]
    parts, group = ["[-h]"], {}
    for opt, (dest, convert, _, _) in options.items():
        if dest == "help":
            continue
        text = opt if convert is None else f"{opt} {dest.upper()}"
        if dest in group:
            parts[group[dest]] = f"{parts[group[dest]][:-1]} | {text}]"
        elif opt in required:
            parts.append(text)
        else:
            group[dest] = len(parts)
            parts.append(f"[{text}]")
    if takes_file:
        parts.append("file")
    return f"usage: paraclaw {command} {' '.join(parts)}"


def _help(command: str | None) -> str:
    def row(name, text):
        if not text:
            return f"  {name}"
        return f"  {name:<22}{text}" if len(name) < 22 else f"  {name}\n{'':24}{text}"

    lines = [_usage(command), ""]
    if command is None:
        lines += [_DESCRIPTION, "", "positional arguments:", f"  {{{','.join(_COMMANDS)}}}"]
        lines += [row(f"  {name}", spec[0]) for name, spec in _COMMANDS.items()]
        lines += ["", "options:", row("-h, --help", _HELP["-h"][3])]
        return "\n".join(lines)
    _, takes_file, options, _, _ = _COMMANDS[command]
    if takes_file:
        lines += ["positional arguments:", row("file", "problem file, or - for stdin"), ""]
    lines += ["options:", row("-h, --help", _HELP["-h"][3])]
    lines += [row(opt if convert is None else f"{opt} {dest.upper()}", text)
              for opt, (dest, convert, _, text) in options.items() if dest != "help"]
    return "\n".join(lines)


def _usage_error(command: str | None, message: str) -> None:
    prog = "paraclaw" if command is None else f"paraclaw {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(command: str | None, options: dict, arg: str) -> tuple:
    """(option string, the value attached to it or None) for an argument
    that starts with "-", as argparse finds it: the whole argument, the part
    before its "=", a unique prefix of a long option, or a short option with
    its value attached (-n3).  (None, None) is a positional: a negative
    number, or an argument with a space; (arg, None) is an unknown option."""
    if arg in options:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in options:
        return name, value
    if arg[1] == "-":
        hits = [opt for opt in options if opt.startswith(name)]
        value = value if eq else None
    else:
        hits = [arg[:2]] if arg[:2] in options else []
        value = arg[2:]
    if len(hits) == 1:
        return hits[0], value
    if hits:
        _usage_error(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None, None
    return arg, None


def _switch(command: str | None, opt: str, value: str | None) -> None:
    """Refuse a value attached to a switch; -h and --help print the help and
    exit 0."""
    name = "-h/--help" if opt in _HELP else opt
    if value is not None:
        _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
    if opt in _HELP:
        print(_help(command))
        raise SystemExit(0)


def _read_args(argv: list[str]) -> dict:
    """The command and its options, keyed by destination, read from argv by
    the command table with argparse's syntax: options before or after the
    file, "--opt value", "--opt=value" and unique prefixes of long options,
    "-n3", "-n 3" and "-n=3", the last value of a repeated option (--flux
    appends), and "--" next to the file.  A value that follows its option
    after a space is taken whatever it starts with.  A usage error prints
    the usage and exits 2; -h and --help print the help and exit 0.  The
    arguments that nothing reads (an unknown option, a second file, "--"
    away from the file) are, as argparse reports them, one usage error
    that names them all, in order, under the top-level usage, after the
    command's own usage errors."""
    stray = []  # the indices of the arguments that nothing reads
    k = 0
    while k < len(argv) and argv[k][:1] == "-" and argv[k] not in ("-", "--"):
        opt, value = _option(None, _HELP, argv[k])
        if opt is None:
            break
        if opt in _HELP:
            _switch(None, opt, value)  # prints the help, or refuses the value
        stray.append(k)
        k += 1
    command = argv[k] if k < len(argv) else None
    if command not in _COMMANDS:
        _usage_error(None, "the following arguments are required: command"
                     if command is None or argv[k:] == ["--"] else
                     f"argument command: invalid choice: {command!r} (choose from "
                     f"{', '.join(map(repr, _COMMANDS))})")
    _, takes_file, options, defaults, required = _COMMANDS[command]
    args = {"command": command, **defaults}
    seen, switched = set(), {}
    file_at = dashes = None
    i, count = k + 1, len(argv)
    while i < count:
        arg = argv[i]
        i += 1
        opt = None
        if arg[:1] == "-" and arg != "-" and dashes is None:
            if arg == "--":
                dashes = i - 1
                continue
            opt, value = _option(command, options, arg)
        if opt is None and takes_file and file_at is None:
            args["file"], file_at = arg, i - 1
            continue
        if opt not in options:  # a positional after the file, or an unknown option
            stray.append(i - 1)
            continue
        dest, convert, third, _ = options[opt]
        if convert is None:
            _switch(command, opt, value)
            if switched.setdefault(dest, opt) != opt:
                _usage_error(command, f"argument {opt}: not allowed with argument "
                                      f"{switched[dest]}")
            args[dest] = third
        else:
            if value is None:
                if i == count:
                    _usage_error(command, f"argument {opt}: expected one argument")
                value = argv[i]
                i += 1
            if convert is int:
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(command, f"argument {opt}: invalid int value: {value!r}")
            if not third:
                args[dest] = value
            elif args[dest] is None:
                args[dest] = [value]
            else:
                args[dest].append(value)
        seen.add(opt)
    # argparse takes "--" only right before or after the file
    if dashes is not None and file_at not in (dashes - 1, dashes + 1):
        stray.append(dashes)
    missing = [opt for opt in required if opt not in seen]
    if takes_file and file_at is None:
        missing.insert(0, "file")
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if stray:
        _usage_error(None, "unrecognized arguments: "
                     + " ".join([argv[j] for j in sorted(stray)]))
    return args


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
        print(_json(report))
    else:
        print(_render_text(report, time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
