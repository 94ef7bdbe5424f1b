"""Command dispatch and machine-readable reports.

The commands read problem files in the grammar of :mod:`paraclaw.grammar`.
JSON reports follow a fixed schema (see README) and are byte-stable for
identical inputs; elapsed time appears only in --text output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

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
    eq, report, ma = _classified(pf, symbolic, force)
    laws = find_conservation_laws(eq, spec, force=True)
    # the cross-check uses the pointwise verdict, so a --symbolic one is not reused
    validation = cross_validate_ma(eq, laws, None if symbolic else ma)
    if not validation.consistent:
        raise InvariantViolation(f"MA cross-validation violated: {validation.detail}")
    report["laws"] = [_law_section(law, eq.n) for law in laws]
    return report


def cmd_verify(pf: ProblemFile, density: str, fluxes: list[str]) -> dict:
    eq = pf.equation()
    if len(fluxes) != eq.n:
        raise ValueError(f"expected {eq.n} flux expression(s), got {len(fluxes)}")
    T = parse_expression(density, eq.n)
    X = tuple(parse_expression(f, eq.n) for f in fluxes)
    check_density_order(T)  # before E_u, whose walk recurses once per order
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


def _read_problem(path: str) -> ProblemFile:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _ansatz_spec(pf: ProblemFile, args: argparse.Namespace) -> AnsatzSpec:
    def pick(flag, file_value, default):
        return flag if flag is not None else (
            file_value if file_value is not None else default)

    return AnsatzSpec(
        max_jet_order=pick(args.order, pf.max_jet_order, 2),
        jet_degree=pick(args.jet_degree, pf.jet_degree, 1),
        base_degree=pick(args.base_degree, pf.base_degree, 0),
        unsafe_order=args.unsafe_order,
    )


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    does not change it."""
    ap = argparse.ArgumentParser(
        prog="paraclaw",
        description="Conservation laws and Monge-Ampere classification for "
                    "evolutionary parabolic equations u_t = G(x, t, u, Du, Hess u).")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="as_json", action="store_true", default=True,
                         help="machine-readable report (default)")
        fmt.add_argument("--text", dest="as_json", action="store_false",
                         help="human-readable report with timing")

    p_classify = sub.add_parser("classify", help="parabolicity and Monge-Ampere tests")
    p_classify.add_argument("file", help="problem file, or - for stdin")
    p_classify.add_argument("--symbolic", action="store_true",
                            help="compute the traceless residue over the rational "
                                 "functions of the jet, not at the reference jet")
    add_output_flags(p_classify)

    p_claws = sub.add_parser("claws", help="find conservation laws")
    p_claws.add_argument("file", help="problem file, or - for stdin")
    p_claws.add_argument("--jet-degree", type=int, default=None)
    p_claws.add_argument("--base-degree", type=int, default=None)
    p_claws.add_argument("--order", type=int, default=None,
                         help="max jet order of the density ansatz (capped at 2)")
    p_claws.add_argument("--unsafe-order", action="store_true",
                         help="allow --order above the proven bound of 2")
    p_claws.add_argument("--symbolic", action="store_true",
                         help="report the traceless residue computed over the "
                              "rational functions of the jet, not at the reference jet")
    p_claws.add_argument("--force", action="store_true",
                         help="proceed despite a non-parabolic symbol")
    add_output_flags(p_claws)

    p_verify = sub.add_parser("verify", help="check D_t T + Div X = 0 exactly")
    p_verify.add_argument("file", help="problem file, or - for stdin")
    p_verify.add_argument("--density", required=True)
    p_verify.add_argument("--flux", action="append", required=True,
                          help="repeat n times, one expression per direction")
    add_output_flags(p_verify)

    p_dims = sub.add_parser("dims", help="tableau and system dimensions")
    p_dims.add_argument("-n", type=int, required=True, dest="n")
    p_dims.add_argument("-r", type=int, default=0, dest="r")
    add_output_flags(p_dims)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "classify":
            report = cmd_classify(_read_problem(args.file), symbolic=args.symbolic)
        elif args.command == "claws":
            pf = _read_problem(args.file)
            report = cmd_claws(pf, _ansatz_spec(pf, args),
                               symbolic=args.symbolic, force=args.force)
        elif args.command == "verify":
            report = cmd_verify(_read_problem(args.file), args.density, args.flux)
        else:
            report = cmd_dims(args.n, args.r)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, DivisionByZeroExpr, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "as_json", True):
        print(json.dumps(report, indent=2))
    else:
        print(_render_text(report, time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
