"""Independent oracles for perfbench: a small exact polynomial reader, span
comparison, and the per-problem checks.

Nothing here imports paraclaw.  Reports are read back from their JSON text
with a parser of the report grammar written for this harness, and every
expectation comes from how the generator built the problem or from the
mathematics recorded in ``expected.json``.  Each reported law is checked
against the conservation identity with total derivatives written here.  Characteristics are compared as
spans, not strings, so a later change may pick other representatives.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# A polynomial is {monomial: Fraction}; a monomial is a sorted tuple of
# (variable name, exponent) pairs.  The empty tuple is the constant monomial.


def _mono_mul(m1, m2):
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def poly_add(p, q, scale=1):
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def poly_const(c):
    c = Fraction(c)
    return {(): c} if c else {}


def poly_var(name):
    return {((name, 1),): Fraction(1)}


def poly_diff(p, name):
    out = {}
    for m, c in p.items():
        for k, (v, e) in enumerate(m):
            if v == name:
                nm = m[:k] + (((v, e - 1),) if e > 1 else ()) + m[k + 1:]
                out[nm] = out.get(nm, 0) + c * e
    return {m: c for m, c in out.items() if c}


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|(.))")


class PolyParseError(ValueError):
    pass


def parse_poly(text: str):
    """Read a polynomial written in the report grammar (``+ - * / ^``, integer
    literals, parentheses, identifiers).  Division is allowed by constants
    only; anything else raises PolyParseError."""
    tokens = []
    for num, name, op in _TOKEN.findall(text):
        if num:
            tokens.append(("num", num))
        elif name:
            tokens.append(("name", name))
        elif op.strip():
            if op not in "+-*/^()":
                raise PolyParseError(f"unexpected {op!r} in {text!r}")
            tokens.append(("op", op))
    tokens.append(("end", ""))
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        acc = term()
        while peek() in (("op", "+"), ("op", "-")):
            sign = 1 if take()[1] == "+" else -1
            acc = poly_add(acc, term(), sign)
        return acc

    def term():
        acc = unary()
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            rhs = unary()
            if op == "*":
                acc = poly_mul(acc, rhs)
            else:
                if set(rhs) - {()} or not rhs:
                    raise PolyParseError(f"non-constant divisor in {text!r}")
                acc = {m: c / rhs[()] for m, c in acc.items()}
        return acc

    def unary():
        if peek() == ("op", "-"):
            take()
            return {m: -c for m, c in factor().items()}
        return factor()

    def factor():
        base = atom()
        if peek() == ("op", "^"):
            take()
            kind, k = take()
            if kind != "num":
                raise PolyParseError(f"bad exponent in {text!r}")
            out = poly_const(1)
            for _ in range(int(k)):
                out = poly_mul(out, base)
            return out
        return base

    def atom():
        kind, val = take()
        if kind == "num":
            return poly_const(int(val))
        if kind == "name":
            return poly_var(val)
        if (kind, val) == ("op", "("):
            inner = expr()
            if take() != ("op", ")"):
                raise PolyParseError(f"unbalanced parentheses in {text!r}")
            return inner
        raise PolyParseError(f"unexpected {val or 'end'!r} in {text!r}")

    out = expr()
    if peek()[0] != "end":
        raise PolyParseError(f"trailing input in {text!r}")
    return out


# ---------------------------------------------------------------------------
# Exact linear algebra over Fraction (independent of paraclaw.linalg)
# ---------------------------------------------------------------------------

def nullspace(matrix, ncols):
    """Basis of {v : matrix v = 0} by Gauss-Jordan elimination."""
    rows = [list(r) for r in matrix]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def span_dim(polys) -> int:
    monos = sorted({m for p in polys for m in p})
    rows = [[p.get(m, 0) for m in monos] for p in polys]
    return len(monos) - len(nullspace(rows, len(monos)))


def same_span(got, want) -> bool:
    """True when the two lists of polynomials span the same space."""
    d = span_dim(got + want)
    return d == span_dim(got) == span_dim(want)


# ---------------------------------------------------------------------------
# Expected characteristic spaces derived from the mathematics
# ---------------------------------------------------------------------------

def base_names(n: int) -> list[str]:
    return ["t"] + (["x"] if n == 1 else [f"x{i}" for i in range(1, n + 1)])


def adjoint_kernel(coeffs, degree: int):
    """Polynomials Q(t, x) of total degree <= degree with
    Q_t + sum_i a_i Q_{x_i x_i} = 0: the characteristics of the linear
    equation u_t = sum_i a_i u_{x_i x_i} within that base degree."""
    a = [Fraction(c) for c in coeffs]
    names = base_names(len(a))
    monos = [tuple((v, e) for v, e in zip(names, exps) if e)
             for exps in itertools.product(range(degree + 1), repeat=len(names))
             if sum(exps) <= degree]
    images = []
    for m in monos:
        q = {m: Fraction(1)}
        img = poly_diff(q, "t")
        for ai, x in zip(a, names[1:]):
            img = poly_add(img, poly_diff(poly_diff(q, x), x), ai)
        images.append(img)
    keys = sorted({k for img in images for k in img})
    matrix = [[img.get(k, 0) for img in images] for k in keys]
    return [{m: c for m, c in zip(monos, vec) if c}
            for vec in nullspace(matrix, len(monos))]


# ---------------------------------------------------------------------------
# Conservation identity on the jet space (independent of paraclaw.jets)
# ---------------------------------------------------------------------------
# Jet variables are named "u" and "u_<sorted spatial digits>"; the n = 1
# spellings x and u_x, u_xx, ... are renamed to x1 and u_1, u_11, ...


def _canonical(name: str) -> str:
    if name == "x":
        return "x1"
    if name.startswith("u_"):
        suffix = name[2:]
        if suffix and set(suffix) == {"x"}:
            return "u_" + "1" * len(suffix)
        if not suffix.isdigit():
            raise PolyParseError(f"not a spatial jet variable: {name!r}")
        return "u_" + "".join(sorted(suffix))
    return name


def parse_jet_poly(text: str):
    out = {}
    for m, c in parse_poly(text).items():
        mono = ()
        for v, e in m:
            mono = _mono_mul(mono, ((_canonical(v), e),))
        out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


def _jet_vars(p) -> set[str]:
    return {v for m in p for v, _ in m if v.startswith("u")}


def _prolong(v: str, i: int) -> str:
    """The jet variable D_i v."""
    digits = v[2:] if v != "u" else ""
    return "u_" + "".join(sorted(digits + str(i)))


def total_derivative(p, i: int):
    """D_i p = dp/dx_i + sum_J u_{Ji} dp/du_J, for a spatial direction i."""
    out = poly_diff(p, f"x{i}")
    for v in _jet_vars(p):
        out = poly_add(out, poly_mul(poly_diff(p, v), poly_var(_prolong(v, i))))
    return out


def conserved(source: str, density: str, fluxes: list[str]) -> bool:
    """True when D_t T + sum_i D_i X_i = 0 on solutions of the problem file's
    equation u_t = G, with u_{Jt} replaced by D_J G."""
    parts = [s.strip() for s in source.split(";")]
    n = int(parts[0].split("=")[1])
    G = parse_jet_poly(parts[1].split("=", 1)[1])
    if len(fluxes) != n:
        return False
    T = parse_jet_poly(density)
    residual = poly_diff(T, "t")
    for v in _jet_vars(T):
        DG = G
        for d in (v[2:] if v != "u" else ""):
            DG = total_derivative(DG, int(d))
        residual = poly_add(residual, poly_mul(poly_diff(T, v), DG))
    for i, X in enumerate(fluxes, 1):
        residual = poly_add(residual, total_derivative(parse_jet_poly(X), i))
    return not residual


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["families"]


def expected_characteristics(problem: dict, family: dict):
    """The expected characteristic space of a claws problem, or None when the
    expectation is a recorded law count."""
    laws = family["laws"]
    if "span" in laws:
        return [parse_poly(s) for s in laws["span"]]
    if "adjoint_kernel" in laws:
        return adjoint_kernel(problem["coeffs"]["a"], problem["base_degree"])
    return None


# ---------------------------------------------------------------------------
# Per-problem checks
# ---------------------------------------------------------------------------

def check_problem(problem: dict, outcome: dict, families: dict) -> list[str]:
    """Every way the outcome of one problem differs from its expectation.

    ``outcome`` holds ``rc`` and ``report`` (the parsed JSON or None)."""
    errors = []
    if outcome.get("error"):
        return [f"raised {outcome['error']}"]
    if outcome["rc"] != 0:
        return [f"exit code {outcome['rc']}: {outcome.get('stderr', '').strip()}"]
    report = outcome["report"]
    family = families[problem["family"]]
    if report.get("warnings"):
        errors.append(f"warnings {report['warnings']}")
    command = problem["command"]
    if command in ("classify", "claws"):
        if report.get("parabolicity") != family["parabolicity"]:
            errors.append(f"parabolicity {report.get('parabolicity')!r}, "
                          f"expected {family['parabolicity']!r}")
        if report.get("ma") != family["ma"]:
            errors.append(f"ma {report.get('ma')}, expected {family['ma']}")
    if command == "classify" and report.get("laws") != []:
        errors.append("classify reported laws")
    if command == "claws":
        errors += _check_laws(problem, report, family)
    if command == "verify":
        want = problem["expect"]
        if report.get("verified") is not want["verified"]:
            errors.append(f"verified {report.get('verified')}, "
                          f"expected {want['verified']}")
        try:
            got_q = parse_poly(report["characteristic"])
        except PolyParseError as exc:
            errors.append(str(exc))
        else:
            if got_q != parse_poly(want["characteristic"]):
                errors.append(f"characteristic {report['characteristic']!r}, "
                              f"expected {want['characteristic']!r}")
    return errors


def _check_laws(problem, report, family) -> list[str]:
    errors = []
    laws = report.get("laws", [])
    missing = sum(1 for law in laws if law["flux"] is None)
    if missing:
        errors.append(f"{missing} law(s) without flux")
    try:
        got = [parse_poly(law["characteristic"]) for law in laws]
        errors += [f"law with density {law['density']!r} is not conserved"
                   for law in laws if law["flux"] is not None
                   and not conserved(problem["source"], law["density"], law["flux"])]
    except PolyParseError as exc:
        return errors + [str(exc)]
    want = expected_characteristics(problem, family)
    if want is None:
        if len(laws) != family["laws"]["count"]:
            errors.append(f"{len(laws)} laws, expected {family['laws']['count']}")
        return errors
    if not same_span(got, want):
        errors.append(f"characteristic span {[l['characteristic'] for l in laws]} "
                      f"differs from the expected dimension-{span_dim(want)} span")
    elif len(laws) != span_dim(want):
        errors.append(f"{len(laws)} laws for a dimension-{span_dim(want)} span")
    return errors
