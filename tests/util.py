"""Shared builders and randomized property suites for the test modules.

The suites here are imported both by the per-module tests and by the
acceptance module (which runs each at >= 100 cases).  All randomness is
seeded; all assertions are exact.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import string
import sys
import tempfile
from fractions import Fraction

from paraclaw import cli, linalg, parabolic
from paraclaw import claws
from paraclaw.claws import (
    AnsatzSpec, ConservationLaw, DeterminingSystem, InvariantViolation,
    NotParabolicEquation, _add_contraction, _adjoint_coefficients,
    _balances, _on_shell_dt, _prolongations, assemble_determining_system,
    cross_validate_ma, find_conservation_laws, generate_ansatz, jacobi_potential_order,
    reconstruct_flux, solve_exact, verify,
)
from paraclaw.expr import (
    AUX, BASE, JET, MAX_EXPONENT, TIME, DivisionByZeroExpr, Expr, Monomial,
    NotPolynomialIn, ONE, Symbol, ZERO, _cleared, aux_var, base_var, jet_var,
    mono_decode, mono_encode, mono_sort_key,
)
from paraclaw.jets import (
    NotInDivergenceImage, TimeJetPresent, _add_terms, _horner, _jet_partials,
    _step, bounded_monomials, build_replacement_table,
    euler_operator, has_time_jets, invert_divergence, reduce_to_spatial,
    spatial_jet_vars, total_derivative,
)
from paraclaw.expr import MAX_TERMS, Poly
from paraclaw.grammar import (
    MAX_NESTING, ParseError, ProblemFile, _as_expr, _Parser, _too_long, expr_to_source,
    parse, parse_expression,
)
from paraclaw.parabolic import (
    EvolutionEquation, MAReport, Parabolicity, PreconditionSpatialDim, SingularSymbol,
    _over, _scaled_split, ma_classify, parabolicity_check,
    quartic_form, symbol_form, xi_symbols,
)
from corpus import CORPUS, CorpusEntry, by_name

# A monomial is an int as wide as its highest slot, and a symbol takes the
# next slot when it is first interned (paraclaw.expr).  The tagged
# reference route interns one column symbol per ansatz monomial, so a jet
# or xi first met after it would make every monomial that holds it a huge
# int.  The symbols the tests search with are interned here, first.
for _n in (1, 2, 3):
    base_var(_n)
    spatial_jet_vars(_n, 6)
    xi_symbols(_n)

t = Expr.symbol(base_var(0))
x = Expr.symbol(base_var(1))
x1, x2 = x, Expr.symbol(base_var(2))
u = Expr.symbol(jet_var())
ux = u1 = Expr.symbol(jet_var((1,)))
u2 = Expr.symbol(jet_var((2,)))
uxx = u11 = Expr.symbol(jet_var((1, 1)))
u12 = Expr.symbol(jet_var((1, 2)))
u22 = Expr.symbol(jet_var((2, 2)))
uxxx = Expr.symbol(jet_var((1, 1, 1)))


def jet(*idx, tp: int = 0) -> Expr:
    return Expr.symbol(jet_var(idx, tp))


def random_poly(rng: random.Random, symbols: list[Symbol], terms: int = 4,
                max_exp: int = 2, coeff: int = 5) -> Expr:
    """Random nonzero polynomial with small integer coefficients."""
    while True:
        acc = ZERO
        for _ in range(rng.randint(1, terms)):
            c = rng.randint(-coeff, coeff)
            term = Expr.const(c)
            for s in rng.sample(symbols, rng.randint(0, min(3, len(symbols)))):
                term = term * Expr.symbol(s) ** rng.randint(1, max_exp)
            acc = acc + term
        if not acc.is_zero:
            return acc


def random_spatial_symbols(n: int, max_order: int = 2) -> list[Symbol]:
    return [base_var(a) for a in range(n + 1)] + spatial_jet_vars(n, max_order)


# ---------------------------------------------------------------------------
# Naive references: the textbook definitions, one partial derivative per
# symbol, kept to check the one-pass and Horner kernels of paraclaw.jets;
# the column-sweep RREF, kept to check paraclaw.linalg; the epsilon-
# derivative quartic form, the Sylvester and principal-minor parabolicity
# test and the inverse-and-trace-equations residue, kept to check the
# Hessian-derivative quartic, the LDL^T verdict and the closed-form residue
# of paraclaw.parabolic; the closed-form residue over Expr, kept to check
# its integer route; the substitution route to the on-shell D_t T, kept to
# check the closed form of paraclaw.claws; the Euler operator of the
# product d G Q, kept to check the auxiliary-equation assembly of
# paraclaw.claws; the tagged route (the ansatz as one Expr with a symbol
# per column, split back into columns by those symbols), kept to check the
# column route of paraclaw.claws; the Expr-level law extraction (combine,
# scale, the on-shell D_t T of a replacement table, the Fraction homotopy
# operator and the Expr identity check), kept to check the integer
# extraction of paraclaw.claws and the integer homotopy core of
# paraclaw.jets; the sum of
# traceless dimensions, kept to check the closed-form tableau dimension;
# the monomial comparison, kept to check mono_sort_key; the sort key and
# printer that decode and name every monomial on each call, kept to check
# the printing memo of paraclaw.expr
# ---------------------------------------------------------------------------

def naive_total_derivative(e: Expr, a: int) -> Expr:
    """D_a e = de/dx^a + sum_J u_{Ja} de/du_J, one Expr.diff per symbol."""
    out = e.diff(base_var(a))
    for s in sorted(s for s in e.symbols() if s.kind == JET):
        d = e.diff(s)
        if not d.is_zero:
            t = jet_var(s.spatial, s.time_power + 1) if a == 0 \
                else jet_var(s.spatial + (a,), s.time_power)
            out = out + Expr.symbol(t) * d
    return out


def naive_lower_prolong(m: Monomial, s: Symbol, t: Symbol) -> Monomial:
    """m / s * t, for a symbol s of m, encoded again from the decoded
    factors of m with the exponent of s lowered and that of t raised."""
    factors = dict(mono_decode(m))
    factors[s] -= 1
    factors[t] = factors.get(t, 0) + 1
    return mono_encode((p, e) for p, e in factors.items() if e)


def naive_euler_operator(e: Expr) -> Expr:
    """sum_I (-1)^|I| D_I de/du_I, with |I| total derivatives per partial."""
    total = ZERO
    for s in sorted(s for s in e.symbols() if s.kind == JET):
        term = e.diff(s)
        for i in s.spatial:
            term = naive_total_derivative(term, i)
        total = total - term if len(s.spatial) % 2 else total + term
    return total


def naive_determining_expression(eq: EvolutionEquation, T: Expr) -> Expr:
    """E_u(reduce(D_t T)): the determining expression on shell, with every
    time jet of D_t T eliminated through a replacement table.  Kept to check
    the characteristic form E_u(dT/dt + G E_u(T)) of paraclaw.claws."""
    return euler_operator(naive_on_shell_dt(eq, T))


def reference_determining_expression(eq: EvolutionEquation, Q: Expr) -> Expr:
    """d dQ/dt + E_u((d G) Q), d the lcm of the denominators of G's
    coefficients, by one Euler walk over the product (d G) Q.  Kept to check
    the auxiliary-equation form d dQ/dt + l_Q(d G) + l*_{dG}(Q) of
    paraclaw.claws.assemble_determining_system."""
    G = eq.G
    d = determining_scale(eq)
    dG = Poly({m: c.numerator * (d // c.denominator) for m, c in G.num.terms.items()})
    dQ = Q.diff(base_var(0))
    return Expr._make(dQ.num.scale(d), dQ.den) + euler_operator(Expr._make(dG, G.den) * Q)


def naive_on_shell_dt(eq: EvolutionEquation, T: Expr) -> Expr:
    """reduce(D_t T): the total time derivative of T, with every time jet
    u_{J,t} then substituted by D_J G.  Kept to check the closed form
    dT/dt + sum_J (D_J G) dT/du_J of paraclaw.claws._on_shell_dt."""
    return reduce_to_spatial(total_derivative(T, 0), build_replacement_table(eq))


def combine(columns: list[dict], vec: dict) -> Expr:
    """sum_k vec[k] * columns[k] as a polynomial, for a sparse vector
    {k: Fraction}."""
    acc: dict = {}
    for k, v in vec.items():
        _add_terms(acc, columns[k], v)
    return Expr._make(Poly(acc), Poly.one())


def reference_invert_divergence(R: Expr, n: int) -> tuple[Expr, ...]:
    """Fluxes X^1..X^n with sum_i D_i X^i = R by the total homotopy
    operator on Fraction coefficients, each jet-degree-d part weighted by
    Fraction(1, d) and the jet-free part integrated in x1 term by term.
    Kept to check the integer core _homotopy of paraclaw.jets and its
    wrapper invert_divergence."""
    if n < 1:
        raise ValueError("need n >= 1")
    if has_time_jets(R):
        raise TimeJetPresent("divergence inversion needs a purely spatial expression")
    if not R.is_polynomial:
        raise NotPolynomialIn(sorted(R.den.symbols()))
    for s in sorted(R.symbols()):
        if not (s.kind == BASE and s.index <= n
                or s.kind == JET and all(i <= n for i in s.spatial)):
            raise ValueError(
                f"R may contain t, x1..x{n} and jets in directions 1..{n} only, not {s}")
    by_degree: dict[int, dict] = {}
    for mono, c in R.num.terms.items():
        d = sum(e for s, e in mono_decode(mono) if s.kind == JET)
        by_degree.setdefault(d, {})[mono] = c
    fluxes: list[dict] = [{} for _ in range(n)]
    for d, terms in sorted(by_degree.items()):
        if d == 0:
            x1_symbol = base_var(1)
            for mono, c in terms.items():
                m = mono_encode((*mono_decode(mono), (x1_symbol, 1)))
                fluxes[0][m] = Fraction(c) / dict(mono_decode(m))[x1_symbol]
            continue
        parts: list[dict] = [{} for _ in range(n)]
        for w, Sw in _horner(terms, None):
            if w:
                u_rest = (jet_var(w[:-1]), 1)
                _add_terms(parts[w[-1] - 1],
                           {mono_encode((*mono_decode(m), u_rest)): c for m, c in Sw.items()}, 1)
            elif Sw:
                remainder = Expr._make(Poly(Sw), Poly.one())
                raise NotInDivergenceImage(
                    f"E_u of the jet-degree-{d} part is {remainder}, not 0")
        for X, P in zip(fluxes, parts):
            _add_terms(X, P, Fraction(1, d))
    return tuple(Expr._make(Poly(X), Poly.one()) for X in fluxes)


def tag(k: int) -> Symbol:
    """c_k, the symbol that tags column k on the tagged route: auxiliary, so
    it sorts after every base and jet variable."""
    return aux_var(k, f"c{k}")


def tagged(columns: list[dict]) -> Expr:
    """sum_k c_k p_k, for the polynomials p_k with these terms."""
    terms = {}
    for k, column in enumerate(columns):
        for m, v in column.items():
            terms[mono_encode((*mono_decode(m), (tag(k), 1)))] = v
    return Expr._make(Poly(terms), Poly.one())


def assembled_expression(eq: EvolutionEquation, densities: list[dict]) -> Expr:
    """sum_k c_k E_k, E_k the determining expression of column k read off
    the rows of assemble_determining_system(eq, densities)."""
    system = assemble_determining_system(eq, densities)
    assert system.ncols == len(densities)
    terms = {}
    for key, row in zip(system.keys, system.rows):
        for k, v in row.items():
            terms[mono_encode((*mono_decode(key), (tag(k), 1)))] = v
    return Expr._make(Poly(terms), Poly.one())


def assembled_for(eq: EvolutionEquation, T: Expr) -> Expr:
    """The determining expression of the polynomial density
    T = sum_k a_k m_k, assembled from its one-term columns {m_k: 1} and
    combined with the a_k."""
    assert T.is_polynomial
    terms = T.num.terms
    E = assembled_expression(eq, [{m: 1} for m in terms])
    return E.substitute({tag(k): a for k, a in enumerate(terms.values())})


def tagged_generate_ansatz(eq: EvolutionEquation, spec: AnsatzSpec) -> tuple[Expr, list[Symbol]]:
    """The density ansatz sum_k c_k m_k over all monomials within the
    bounds, with ``int`` coefficients and the tags c_k, in the column order
    of generate_ansatz."""
    base_monos = bounded_monomials([base_var(a) for a in range(eq.n + 1)], spec.base_degree)
    jet_monos = bounded_monomials(spatial_jet_vars(eq.n, spec.max_jet_order), spec.jet_degree)
    tags = []
    terms = {}
    for jm in jet_monos:
        for bm in base_monos:
            c = tag(len(tags))
            tags.append(c)
            terms[mono_encode((*mono_decode(bm), *mono_decode(jm), (c, 1)))] = 1
    return Expr._make(Poly(terms), Poly.one()), tags


def linear_columns(E: Expr, unknowns: list[Symbol]) -> list[dict]:
    """E, linear homogeneous in the tags ``unknowns``, as sparse columns:
    column k maps each monomial in the base and jet variables to its
    coefficient in E at unknowns[k].  Each term's tag is its auxiliary
    part (:func:`_split_unknowns`); a term that is not one of the tags
    times base and jet variables is an InvariantViolation."""
    columns: list[dict] = [{} for _ in unknowns]
    for key, k, c in _split_unknowns(E, unknowns):
        columns[k][key] = c
    return columns


def _split_unknowns(E: Expr, unknowns: list[Symbol]):
    """(key, k, c) for every term c key unknowns[k] of E, key a monomial in
    the base and jet variables.  Tags are auxiliary symbols, and each term
    is split by one mask of the fields of every auxiliary symbol E holds
    (:func:`aux_fields`), with no monomial decoded: the masked part must be
    exactly the monomial of one tag, so one tag, to the power 1, and no
    other auxiliary factor, and the rest is the key."""
    if not E.is_polynomial:
        raise NotPolynomialIn(E.den.symbols())
    mask = aux_fields(E.num.terms)
    col = {c.unit: k for k, c in enumerate(unknowns)}
    for mono, c in E.num.terms.items():
        tagged = mono & mask
        k = col.get(tagged)
        if k is None:
            raise InvariantViolation(
                "expression is not linear homogeneous in the ansatz unknowns")
        yield mono - tagged, k, c


def aux_fields(terms: dict) -> Monomial:
    """The mask of the fields of every auxiliary symbol that some monomial
    of these terms holds: one decoding, of the bitwise OR of the monomials,
    whose fields are nonzero exactly at the symbols some monomial holds."""
    held = 0
    for m in terms:
        held |= m
    return MAX_EXPONENT * sum(s.unit for s, _ in mono_decode(held) if s.kind == AUX)


def with_tags(E: Expr, tags: list[Symbol]) -> Expr:
    """The terms of the polynomial E whose auxiliary part (:func:`aux_fields`)
    is one of these tags."""
    mask = aux_fields(E.num.terms)
    units = {c.unit for c in tags}
    return Expr._make(Poly({m: c for m, c in E.num.terms.items() if m & mask in units}),
                      Poly.one())


def tagged_determining_expression(eq: EvolutionEquation, Q: Expr) -> Expr:
    """d dQ/dt + l_Q(d G) + l*_{dG}(Q) for the tagged characteristic ansatz
    Q, pushed through the assembly whole: the same refusals as
    assemble_determining_system, and 0 for a zero Q on any G."""
    if Q.is_zero:
        return Q
    G = eq.G
    if not G.is_polynomial:
        raise NotPolynomialIn([s for s in G.den.symbols() if s.kind == JET]
                              or G.den.symbols())
    d, (dG,) = _cleared([G.num.terms])
    out: dict = {}
    _add_terms(out, Q.num.diff(TIME).terms, d)
    _add_contraction(out, _jet_partials(Q.num.terms), _prolongations(dG))
    _add_contraction(out, _adjoint_coefficients(dG), _prolongations(Q.num.terms))
    return Expr._make(Poly(out), Poly.one())


def tagged_stages(eq: EvolutionEquation, spec: AnsatzSpec) -> dict:
    """The law search up to the null space on the tagged route, stage by
    stage: the full ansatz T and its characteristic Q = E_u(T), by one
    Euler walk, with their tags; the indices of the kept tags, those whose
    column of Q is independent of the earlier ones; the determining system
    of Q restricted to the kept tags, split into rows by tag; and its null
    space.  Stops, with the stages so far, at the first refusal, which is
    kept under "error"."""
    T, tags = tagged_generate_ansatz(eq, spec)
    Q = euler_operator(T)
    pivots = linalg.Echelon()
    kept = [k for k, column in enumerate(linear_columns(Q, tags)) if pivots.add(column)]
    stages = {"T": T, "Q": Q, "tags": tags, "kept": kept}
    unknowns = [tags[k] for k in kept]
    try:
        E = tagged_determining_expression(eq, with_tags(Q, unknowns))
    except NotPolynomialIn as exc:
        stages["error"] = exc
        return stages
    rows: dict = {}
    for key, k, c in _split_unknowns(E, unknowns):
        rows.setdefault(key, {})[k] = c
    keys = sorted(rows, key=mono_sort_key)
    stages["system"] = DeterminingSystem(len(unknowns), [rows[key] for key in keys], keys)
    stages["basis"] = solve_exact(stages["system"])
    return stages


def reference_find_conservation_laws(eq: EvolutionEquation, spec: AnsatzSpec,
                                     force: bool = False,
                                     stages: dict | None = None) -> list[ConservationLaw]:
    """find_conservation_laws on the tagged route (:func:`tagged_stages`,
    or its result ``stages`` when the caller has it already),
    with every law extracted on the Expr layer: the null vector's
    characteristic and density by :func:`combine`, both scaled so the
    characteristic is monic, reduce(D_t T) by _on_shell_dt from one
    replacement table, the flux by :func:`reference_invert_divergence` of
    -reduce(D_t T), and the identity checked by _balances; with the same
    checks, exceptions and messages.  Kept to check the column route and
    the integer extraction of paraclaw.claws."""
    if not force and parabolicity_check(eq) is Parabolicity.NOT_PARABOLIC:
        raise NotParabolicEquation()
    stages = stages or tagged_stages(eq, spec)
    if "error" in stages:
        raise stages["error"]
    tags = [stages["tags"][k] for k in stages["kept"]]
    densities = linear_columns(with_tags(stages["T"], tags), tags)
    characteristics = linear_columns(with_tags(stages["Q"], tags), tags)
    kept = linalg.Echelon()
    table = None
    laws = []
    for vec in stages["basis"]:
        Q = combine(characteristics, vec)
        if not kept.add(Q.num.terms):
            raise InvariantViolation("null vector with zero or dependent characteristic")
        scale = Fraction(1) / Q.num.leading()[1]
        T, Q = combine(densities, vec) * scale, Q * scale
        if table is None:
            table = build_replacement_table(eq)
        R = _on_shell_dt(T, table)
        try:
            X = reference_invert_divergence(-R, eq.n)
        except NotInDivergenceImage as exc:
            raise InvariantViolation(
                f"null-space density has no flux: T = {T}") from exc
        law = ConservationLaw(T, X, Q)
        if jacobi_potential_order(law) > 2 and not naive_symbol_is_zero(eq):
            raise InvariantViolation(f"characteristic of jet order > 2 found: {Q}")
        if not _balances(R, X):
            raise InvariantViolation(f"reconstructed flux fails to verify for T = {T}")
        laws.append(law)
    return laws


def naive_tableau_dimension(n: int, r: int) -> int:
    """sum_{s <= r+2} dim Sym^s_0(R^n): the tableau as a sum of traceless
    (harmonic) spatial components, one pair of binomials per degree."""
    return sum(math.comb(n + s - 1, s) - (math.comb(n + s - 3, s - 2) if s >= 2 else 0)
               for s in range(r + 3))


def determining_scale(eq: EvolutionEquation) -> int:
    """d, the lcm of the denominators of the coefficients of a polynomial G:
    the characteristic-form rows of paraclaw.claws are d times
    E_u(reduce(D_t T))."""
    d = 1
    for c in eq.G.num.terms.values():
        d = d * c.denominator // math.gcd(d, c.denominator)
    return d


def _naive_subtract(row: dict, factor: Fraction, other: dict) -> dict:
    """row - factor * other, as a new sparse row."""
    out = dict(row)
    for c, v in other.items():
        acc = out.get(c, Fraction(0)) - factor * v
        if acc:
            out[c] = acc
        else:
            out.pop(c, None)
    return out


def naive_rref(rows: list[dict], ncols: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form by a column sweep: for each column in
    order, take the first remaining row with a nonzero entry there as the
    pivot row and clear that column from every other row.  Kept to check
    the incremental elimination of paraclaw.linalg."""
    work = [dict(r) for r in rows if r]
    reduced: list[dict] = []
    pivots: list[int] = []
    for col in range(ncols):
        pivot_row = None
        for r in work:
            if r.get(col):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = Fraction(1) / pivot_row[col]
        pivot_row = {c: v * inv for c, v in pivot_row.items()}
        for target in (work, reduced):
            for i, r in enumerate(target):
                factor = r.get(col)
                if factor:
                    target[i] = _naive_subtract(r, factor, pivot_row)
        work = [r for r in work if r]
        reduced.append(pivot_row)
        pivots.append(col)
    return reduced, pivots


def rank(rows: list[dict], ncols: int) -> int:
    return len(linalg.rref(rows, ncols)[1])


def _reference_cancel(row: dict, key, other: dict) -> None:
    """row := a row - b other in place, with a, b coprime and a > 0, so that
    the entry at key cancels; other[key] must be positive."""
    a, b = other[key], row[key]
    g = math.gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in other.items():
        acc = row.get(c, 0) - b * v
        if acc:
            row[c] = acc
        else:
            del row[c]


class ReferenceEchelon:
    """The eager fraction-free Gauss-Jordan echelon: every kept row is a
    primitive ``int`` row, positive at its pivot (its smallest key) and 0
    at every other pivot after each :meth:`add`, since a new pivot is
    back-substituted into the kept rows at once, unless it lies below every
    kept pivot (no kept row holds a key below its own pivot).  Kept to
    check the forward-only paraclaw.linalg.Echelon, which back-substitutes
    once, when its reduced rows are read."""

    def __init__(self) -> None:
        self._rows: dict = {}  # pivot key -> primitive int row
        self._lowest = None  # the smallest kept pivot

    @property
    def rows(self) -> dict:
        return {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in self._rows.items()}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: dict) -> bool:
        rest = linalg._integral(row)
        kept = self._rows
        for key in [k for k in rest if k in kept]:
            _reference_cancel(rest, key, kept[key])
        if not rest:
            return False
        pivot = min(rest)
        linalg._make_primitive(rest, pivot)
        if kept and pivot > self._lowest:
            for p, target in kept.items():
                if target.get(pivot):
                    _reference_cancel(target, pivot, rest)
                    linalg._make_primitive(target, p)
        else:
            self._lowest = pivot
        kept[pivot] = rest
        return True


def reference_nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """linalg.nullspace on the Fraction route: the reduced rows of
    :class:`ReferenceEchelon` divided by their pivots, and the vector of
    free column f scaled by the lcm L of the denominators d_p of the
    entries n_p / d_p at f, L e_f - sum_p (n_p L / d_p) e_p, with a
    positive leading entry."""
    echelon = ReferenceEchelon()
    for row in rows:
        echelon.add(row)
        if echelon.rank == ncols:
            break
    reduced = echelon.rows
    by_column: dict[int, list] = {}
    for piv in sorted(reduced):
        for c, v in reduced[piv].items():
            if c != piv:
                by_column.setdefault(c, []).append((piv, v))
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        entries = by_column.get(free, ())
        scale = math.lcm(*(v.denominator for _, v in entries)) if entries else 1
        if entries and entries[0][1] > 0:
            scale = -scale
        vec = {piv: Fraction(-v.numerator * (scale // v.denominator))
               for piv, v in entries}
        vec[free] = Fraction(scale)
        basis.append(vec)
    return basis


def mono_cmp(m1: Monomial, m2: Monomial) -> int:
    """Graded lexicographic order: total degree first, then the earlier
    symbol with the larger exponent wins, over the decoded factors."""
    m1, m2 = mono_decode(m1), mono_decode(m2)
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1 == s2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif s1 < s2:
            return 1
        else:
            return -1
    if i < len(m1):
        return 1
    if j < len(m2):
        return -1
    return 0


def reference_mono_sort_key(m: Monomial) -> list:
    """Sort key of the graded lexicographic order, built on each call:
    [degree, reversed key of the first symbol, its exponent, ...]."""
    key = [0]
    degree = 0
    for s, e in mono_decode(m):
        degree += e
        key += (s._rkey, e)
    key[0] = degree
    return key


def _reference_format_mono(m: Monomial, name) -> str:
    return "*".join(f"{name(s)}^{e}" if e > 1 else name(s) for s, e in mono_decode(m))


def reference_format_poly(p: Poly, name=str) -> str:
    """p printed term by term, highest first, each monomial named anew."""
    if p.is_zero:
        return "0"
    pieces = []
    for m in sorted(p.terms, key=reference_mono_sort_key, reverse=True):
        c = p.terms[m]
        if not m:
            pieces.append(str(c))
        elif c == 1:
            pieces.append(_reference_format_mono(m, name))
        elif c == -1:
            pieces.append("-" + _reference_format_mono(m, name))
        else:
            pieces.append(f"{c}*{_reference_format_mono(m, name)}")
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def naive_quartic_form(eq: EvolutionEquation) -> Expr:
    """q(xi) = d^2/de^2 G(..., u_ij + e xi_i xi_j) at e = 0, by substituting
    the perturbed Hessian into G and differentiating twice in e."""
    xi = xi_symbols(eq.n)
    eps = aux_var(0, "eps")
    bindings = {}
    for i in range(1, eq.n + 1):
        for j in range(i, eq.n + 1):
            s = jet_var((i, j))
            bindings[s] = Expr.symbol(s) + Expr.symbol(eps) \
                * Expr.symbol(xi[i - 1]) * Expr.symbol(xi[j - 1])
    perturbed = eq.G.substitute(bindings)
    return perturbed.diff(eps).diff(eps).substitute({eps: 0})


def leibniz_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant as the signed sum over all permutations."""
    size = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = Fraction(-1 if inversions % 2 else 1)
        for r in range(size):
            term *= m[r][perm[r]]
        total += term
    return total


def symbol_matrix(eq: EvolutionEquation) -> list[list[Expr]]:
    """The symbol matrix of eq entry by entry, g^ii = dG/du_ii and
    g^ij = g^ji = (1/2) dG/du_ij, apart from parabolic's sigma = D_xi G."""
    n = eq.n
    g = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = eq.G.diff(jet_var((i + 1, j + 1)))
            g[i][j] = g[j][i] = d if i == j else d * Fraction(1, 2)
    return g


def symbol_matrix_at(eq: EvolutionEquation) -> list[list[Fraction]]:
    """:func:`symbol_matrix` at the reference jet, entry by entry."""
    return [[entry.eval_fraction(eq.reference_jet) for entry in row]
            for row in symbol_matrix(eq)]


def naive_symbol_is_zero(eq: EvolutionEquation) -> bool:
    """Whether every entry of :func:`symbol_matrix` is 0: G holds no jet of
    order 2, so its symbol sigma = D_xi G is 0."""
    return all(entry.is_zero for row in symbol_matrix(eq) for entry in row)


def naive_parabolicity(eq: EvolutionEquation) -> Parabolicity:
    """Strict iff every leading principal minor of the reference symbol is
    positive (Sylvester); weak iff every principal minor is >= 0."""
    g = symbol_matrix_at(eq)
    n = eq.n
    if all(leibniz_det([row[:k] for row in g[:k]]) > 0 for k in range(1, n + 1)):
        return Parabolicity.STRICT
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if leibniz_det([[g[r][c] for c in subset] for r in subset]) < 0:
                return Parabolicity.NOT_PARABOLIC
    return Parabolicity.WEAK


def naive_invert_matrix(g: list[list[Expr]]) -> list[list[Expr]]:
    """g^-1 column by column, one dense Gauss-Jordan solve per column."""
    n = len(g)
    cols = []
    for j in range(n):
        rhs = [ONE if i == j else ZERO for i in range(n)]
        col = linalg.solve_dense([list(row) for row in g], rhs, ZERO)
        if col is None:
            raise SingularSymbol("symbol matrix is singular")
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def harmonic_split(eq: EvolutionEquation, symbolic: bool = False
                   ) -> tuple[Expr, Expr, Expr, Expr]:
    """(N, D, P, sigma) of parabolic._scaled_split, each divided by its scale."""
    return tuple(_over(p, d) for p, d in _scaled_split(eq, quartic_form(eq), symbolic))


def residue_decomposition(eq: EvolutionEquation, symbolic: bool = False
                          ) -> tuple[Expr, Expr, Expr]:
    """(q0, h, sigma) = (N / D, P / D, sigma) of :func:`harmonic_split`:
    q = q0 + sigma * h with tr_g(q0) = 0."""
    N, D, P, sigma = harmonic_split(eq, symbolic)
    return N / D, P / D, sigma


def naive_residue_decomposition(eq: EvolutionEquation, symbolic: bool = False
                                ) -> tuple[Expr, Expr, Expr]:
    """(q0, h, sigma) with q = q0 + sigma * h and tr_g(q0) = 0: invert g,
    then solve the n(n+1)/2 linear equations tr_g(q - sigma * h) = 0 for
    the coefficients of the quadratic h."""
    if eq.n < 2:
        raise PreconditionSpatialDim("traceless residue needs n >= 2")
    n = eq.n
    xi = xi_symbols(n)
    q = quartic_form(eq)
    if symbolic:
        g = symbol_matrix(eq)
    else:
        g = [[Expr.const(v) for v in row] for row in symbol_matrix_at(eq)]
        q = q.substitute(eq.reference_jet)
    ginv = naive_invert_matrix(g)
    sigma = symbol_quadratic(g)
    pairs = [(k, l) for k in range(n) for l in range(k, n)]
    target = _xi_coefficients(_trace_with(ginv, q, xi), xi)
    columns = [_xi_coefficients(_trace_with(ginv, sigma * Expr.symbol(xi[k])
                                            * Expr.symbol(xi[l]), xi), xi)
               for k, l in pairs]
    monos = [mono_encode(((xi[k], 1), (xi[l], 1))) for k, l in pairs]
    matrix = [[colmap.get(mono, ZERO) for colmap in columns] for mono in monos]
    rhs = [target.get(mono, ZERO) for mono in monos]
    coeffs = linalg.solve_dense(matrix, rhs, ZERO)
    if coeffs is None:
        raise SingularSymbol("trace equations are singular (degenerate symbol)")
    h = ZERO
    for (k, l), c in zip(pairs, coeffs):
        h = h + c * Expr.symbol(xi[k]) * Expr.symbol(xi[l])
    return q - sigma * h, h, sigma


def symbol_quadratic(g) -> Expr:
    """sigma = sum g^ij xi_i xi_j, the symbol quadratic form of the matrix g."""
    xi = xi_symbols(len(g))
    out = ZERO
    for i in range(len(g)):
        for j in range(len(g)):
            out = out + g[i][j] * Expr.symbol(xi[i]) * Expr.symbol(xi[j])
    return out


def _xi_coefficients(e: Expr, xi: list[Symbol]) -> dict[Monomial, Expr]:
    """The coefficients of e over the monomials in xi, for e.den free of xi."""
    assert not e.den.symbols() & set(xi)
    return {m: Expr._make(p, e.den) for m, p in e.num.coefficients_in(frozenset(xi)).items()}


def reference_det_adjugate(g: list[list[Expr]]) -> tuple[Expr, list[list[Expr]]]:
    """(det g, adj g) by Faddeev-LeVerrier over the rational functions,
    with c_k = -tr(g M_k) * (1/k)."""
    n = len(g)
    m = [[ZERO] * n for _ in range(n)]
    c = ONE
    for k in range(1, n + 1):
        adj = [[m[i][j] + c if i == j else m[i][j] for j in range(n)]
               for i in range(n)]
        m = [[sum((g[i][l] * adj[l][j] for l in range(n)), ZERO) for j in range(n)]
             for i in range(n)]
        c = -sum((m[i][i] for i in range(n)), ZERO) * Fraction(1, k)
    det = c if n % 2 == 0 else -c
    if det.is_zero:
        raise SingularSymbol("symbol matrix is singular")
    if n % 2 == 0:
        adj = [[-v for v in row] for row in adj]
    return det, adj


def _trace_with(adj: list[list[Expr]], P: Expr, xi: list[Symbol]) -> Expr:
    """sum adj_ij d^2 P / dxi_i dxi_j over all n^2 index pairs, in Expr."""
    out = ZERO
    for i in range(len(xi)):
        for j in range(len(xi)):
            if adj[i][j].is_zero:
                continue
            out = out + adj[i][j] * P.diff(xi[i]).diff(xi[j])
    return out


def reference_harmonic_split(eq: EvolutionEquation, symbolic: bool = False
                             ) -> tuple[Expr, Expr, Expr, Expr]:
    """(N, D, P, sigma) of :func:`harmonic_split`, every step an Expr
    operation: g and q evaluated by substitution unless ``symbolic``."""
    if eq.n < 2:
        raise PreconditionSpatialDim("traceless residue needs n >= 2")
    n = eq.n
    xi = xi_symbols(n)
    q = quartic_form(eq)
    if symbolic:
        g = symbol_matrix(eq)
    else:
        g = [[Expr.const(v) for v in row] for row in symbol_matrix_at(eq)]
        q = q.substitute(eq.reference_jet)
    det, adj = reference_det_adjugate(g)
    sigma = symbol_quadratic(g)
    Lq = _trace_with(adj, q, xi)
    P = (4 * n + 8) * det * Lq - sigma * _trace_with(adj, Lq, xi)
    D = (2 * n + 8) * (4 * n + 8) * det * det
    return D * q - sigma * P, D, P, sigma


# ---------------------------------------------------------------------------
# Property suites (exact, seeded)
# ---------------------------------------------------------------------------

def suite_commutativity(cases: int = 100, seed: int = 7) -> int:
    """D_a D_b = D_b D_a on random polynomial expressions."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        n = rng.choice((1, 2))
        e = random_poly(rng, random_spatial_symbols(n))
        a = rng.randint(0, n)
        b = rng.randint(0, n)
        lhs = total_derivative(total_derivative(e, a), b)
        rhs = total_derivative(total_derivative(e, b), a)
        assert lhs == rhs, f"D_{a} D_{b} failed on {e}"
        done += 1
    return done


def suite_euler_kills_divergences(cases: int = 100, seed: int = 11) -> int:
    """E_u(sum_i D_i X^i) = 0 for random polynomial fluxes."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        n = rng.choice((1, 2))
        syms = random_spatial_symbols(n)
        div = ZERO
        for i in range(1, n + 1):
            div = div + total_derivative(random_poly(rng, syms), i)
        assert euler_operator(div).is_zero, f"euler did not kill divergence (n={n})"
        done += 1
    return done


def divergence_roundtrip_draws(cases: int = 100, seed: int = 13):
    """(R, n) for random divergences R = sum_i D_i F^i, n = 1 or 2."""
    rng = random.Random(seed)
    for k in range(cases):
        n = 2 if k % 5 == 0 else 1
        order = 1 if n == 2 else rng.choice((1, 2))
        syms = random_spatial_symbols(n, order)
        R = ZERO
        for i in range(1, n + 1):
            R = R + total_derivative(random_poly(rng, syms, terms=3), i)
        yield R, n


def divergence_multid_draws(cases: int = 60, seed: int = 23):
    """(R, n) for random divergences with n = 2 and n = 3 and jet order 2:
    every F^i has an explicit t/x-dependent term, and R has a jet-free
    part."""
    rng = random.Random(seed)
    for k in range(cases):
        n = 2 + k % 2
        bases = [base_var(a) for a in range(n + 1)]
        jets = spatial_jet_vars(n, 2)
        R = random_poly(rng, bases)
        for i in range(1, n + 1):
            flux = random_poly(rng, bases + jets, terms=3) \
                + Expr.symbol(rng.choice(bases)) * random_poly(rng, jets, terms=2)
            R = R + total_derivative(flux, i)
        yield R, n


def divergence_decision_draws(cases: int = 100, seed: int = 29):
    """(R, n) for random divergences R, n = 1..3, half of them plus a
    random polynomial."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.choice((1, 2, 3))
        syms = random_spatial_symbols(n, 2)
        R = ZERO
        for i in range(1, n + 1):
            R = R + total_derivative(random_poly(rng, syms, terms=2), i)
        if rng.random() < 0.5:
            R = R + random_poly(rng, syms, terms=2)
        yield R, n


def _divergence_of(X: tuple[Expr, ...]) -> Expr:
    back = ZERO
    for i, Xi in enumerate(X, start=1):
        back = back + total_derivative(Xi, i)
    return back


def suite_divergence_roundtrip(cases: int = 100, seed: int = 13) -> int:
    """invert_divergence returns fluxes whose divergence is exactly R."""
    done = 0
    for R, n in divergence_roundtrip_draws(cases, seed):
        assert _divergence_of(invert_divergence(R, n)) == R, f"roundtrip failed for R = {R}"
        done += 1
    return done


def suite_divergence_roundtrip_multid(cases: int = 60, seed: int = 23) -> int:
    """Round trips for n = 2 and n = 3 with jet order 2, on
    :func:`divergence_multid_draws`."""
    done = 0
    for R, n in divergence_multid_draws(cases, seed):
        X = invert_divergence(R, n)
        assert len(X) == n
        assert _divergence_of(X) == R, f"roundtrip failed for n={n}, R = {R}"
        done += 1
    return done


def suite_divergence_decision(cases: int = 100, seed: int = 29) -> tuple[int, int]:
    """invert_divergence raises NotInDivergenceImage exactly when E_u(R) != 0,
    and whenever it returns, sum_i D_i X^i == R, on
    :func:`divergence_decision_draws`.  Returns (inverted, rejected)."""
    inverted = rejected = 0
    for R, n in divergence_decision_draws(cases, seed):
        is_divergence = euler_operator(R).is_zero
        try:
            X = invert_divergence(R, n)
        except NotInDivergenceImage:
            assert not is_divergence, f"divergence rejected: R = {R}"
            rejected += 1
            continue
        assert is_divergence, f"E_u(R) != 0 but inversion returned: R = {R}"
        assert _divergence_of(X) == R, f"roundtrip failed for R = {R}"
        inverted += 1
    return inverted, rejected


def _inversion_outcome(invert, R: Expr, n: int) -> tuple:
    try:
        X = invert(R, n)
    except NotInDivergenceImage as exc:
        return "rejected", str(exc)
    return "inverted", X, tuple(_coefficient_types(Xi) for Xi in X)


def _coefficient_types(e: Expr) -> tuple:
    return tuple(sorted({type(c).__name__ for p in (e.num, e.den) for c in p.terms.values()}))


def suite_inversion_equivalence() -> tuple[int, int]:
    """invert_divergence, on the integer homotopy core, equals
    :func:`reference_invert_divergence` on every draw of the three
    divergence suites (100 + 60 + 100 at their seeds 13, 23 and 29), with
    the same coefficient types, and raises NotInDivergenceImage with the
    same message on the same draws.  Returns (inverted, rejected)."""
    counts = {"inverted": 0, "rejected": 0}
    draws = itertools.chain(divergence_roundtrip_draws(), divergence_multid_draws(),
                            divergence_decision_draws())
    for R, n in draws:
        got = _inversion_outcome(invert_divergence, R, n)
        assert got == _inversion_outcome(reference_invert_divergence, R, n), \
            f"inversion differs for n={n}, R = {R}"
        counts[got[0]] += 1
    return counts["inverted"], counts["rejected"]


def _random_input(rng: random.Random, numerator_syms: list[Symbol],
                  denominator_syms: list[Symbol], quotient_exp: int) -> Expr:
    """A random polynomial, or half the time a smaller random quotient with
    exponents <= quotient_exp (the references renormalize a quotient once
    per symbol and per derivative, so quotients must stay small)."""
    if rng.random() < 0.5:
        return random_poly(rng, numerator_syms, terms=5, max_exp=3)
    return random_poly(rng, numerator_syms, terms=3, max_exp=quotient_exp) \
        / random_poly(rng, denominator_syms, terms=2, max_exp=quotient_exp)


def suite_total_derivative_equivalence(cases: int = 100, seed: int = 37) -> int:
    """total_derivative equals naive_total_derivative in every direction
    a = 0..n, on random polynomial and rational inputs over t, x, spatial
    jets of order <= 4 and time jets, for n = 1..3.  Returns the number of
    (input, direction) pairs checked."""
    rng = random.Random(seed)
    checked = 0
    for k in range(cases):
        n = 1 + k % 3
        syms = random_spatial_symbols(n, 4) + [
            jet_var(combo, tp) for tp in (1, 2) for order in range(5 - tp)
            for combo in itertools.combinations_with_replacement(range(1, n + 1), order)]
        e = _random_input(rng, syms, syms, 2)
        for a in range(n + 1):
            assert total_derivative(e, a) == naive_total_derivative(e, a), \
                f"D_{a} differs from the reference on {e}"
            checked += 1
    return checked


def suite_lower_prolong_equivalence(cases: int = 300, seed: int = 71) -> tuple[int, int]:
    """One D_a step of the kernel, m + _step(slot of u_J, a), equals
    naive_lower_prolong at every jet u_J of random monomials over all three
    symbol kinds, time jets among them, exponents 1..3, in every direction
    a = 0..3.  Returns the number of steps checked and how many of them met
    u_{Ja} already in the monomial."""
    rng = random.Random(seed)
    syms = [base_var(a) for a in range(4)] + [
        jet_var(combo, tp) for tp in range(3) for order in range(4 - tp)
        for combo in itertools.combinations_with_replacement(range(1, 4), order)
    ] + [aux_var(k) for k in (1, 2, 5, 9)]
    checked = present = 0
    for _ in range(cases):
        factors = [(s, rng.randint(1, 3)) for s in rng.sample(syms, rng.randint(1, 6))]
        m = mono_encode(factors)
        for s, _ in factors:
            if s.kind != JET:
                continue
            for a in range(4):
                t = jet_var(s.spatial, s.time_power + 1) if a == 0 \
                    else jet_var(s.spatial + (a,), s.time_power)
                assert m + _step(s.slot, a) == naive_lower_prolong(m, s, t), \
                    f"lowering {s} and raising {t} in {mono_decode(m)}"
                checked += 1
                present += any(p == t for p, _ in factors)
    return checked, present


def suite_euler_equivalence(cases: int = 100, seed: int = 41) -> int:
    """euler_operator equals naive_euler_operator on random polynomials over
    t, x and spatial jets of order <= 4, for n = 1..3, half of them divided
    by a random polynomial in t and x (E_u needs a jet-free denominator)."""
    rng = random.Random(seed)
    for k in range(cases):
        n = 1 + k % 3
        bases = [base_var(a) for a in range(n + 1)]
        e = _random_input(rng, bases + spatial_jet_vars(n, 4), bases, 1)
        assert euler_operator(e) == naive_euler_operator(e), \
            f"E_u differs from the reference on {e}"
    return cases


def suite_characteristic_form_corpus() -> int:
    """The characteristic-form determining expression of every column
    equals the on-shell reference on the density ansatz of every corpus
    entry at 2/2/1 and 2/2/2, each column tagged.  Returns the number of
    (entry, bounds) pairs checked."""
    checked = 0
    for entry in CORPUS:
        eq = entry.equation()
        for spec in (AnsatzSpec(2, 2, 1), AnsatzSpec(2, 2, 2)):
            densities = generate_ansatz(eq.n, spec)[0]
            assert assembled_expression(eq, densities) \
                == determining_scale(eq) * naive_determining_expression(eq, tagged(densities)), \
                f"characteristic form differs on {entry.name} at {spec}"
            checked += 1
    return checked


def suite_characteristic_form_random(cases: int = 60, seed: int = 43) -> int:
    """The same identity on random polynomial equations u_t = G and random
    polynomial densities T over t, x and spatial jets of order <= 2, for
    n = 1..3.  Every G has an explicit t term and an explicit x term."""
    rng = random.Random(seed)
    for k in range(cases):
        n = 1 + k % 3
        syms = random_spatial_symbols(n)
        jets = spatial_jet_vars(n, 2)
        explicit = {base_var(0), base_var(rng.randint(1, n))}
        G = ZERO
        while not explicit <= G.symbols():
            G = random_poly(rng, syms, terms=3)
            for s in explicit:
                G = G + rng.choice((-3, -2, -1, 1, 2, 3)) * Expr.symbol(s) \
                    * Expr.symbol(rng.choice(jets))
        eq = EvolutionEquation(n, G)
        T = random_poly(rng, syms, terms=4)
        assert assembled_for(eq, T) == determining_scale(eq) * naive_determining_expression(eq, T), \
            f"characteristic form differs for u_t = {G}, T = {T}"
    return cases


def suite_auxiliary_form_corpus() -> int:
    """The determining expression of every characteristic column of the
    density ansatz equals :func:`reference_determining_expression` on every
    :func:`rational_corpus` equation at 2/2/1 and 2/2/2, each column tagged.
    Returns the number of (equation, bounds) pairs checked."""
    checked = 0
    for name, eq in rational_corpus():
        for spec in (AnsatzSpec(2, 2, 1), AnsatzSpec(2, 2, 2)):
            densities, characteristics = generate_ansatz(eq.n, spec)
            assert assembled_expression(eq, densities) \
                == reference_determining_expression(eq, tagged(characteristics)), \
                f"auxiliary form differs on {name} at {spec}"
            checked += 1
    return checked


def suite_auxiliary_form_random(cases: int = 60, seed: int = 89) -> int:
    """The same identity for the characteristic Q = E_u(T) of a random
    polynomial density T, on random polynomial equations u_t = G over t, x
    and spatial jets of order <= 2, for n = 1..3.  Every G has an explicit t
    term and an explicit x term and rational coefficients, and every T has
    a term in a second-order jet, so Q may reach order 4."""
    rng = random.Random(seed)
    for k in range(cases):
        n = 1 + k % 3
        syms = random_spatial_symbols(n)
        jets = spatial_jet_vars(n, 2)
        G = random_poly(rng, syms, terms=3) * Fraction(rng.randint(1, 5), rng.randint(1, 4)) \
            + Fraction(rng.randint(1, 5), 3) * t * Expr.symbol(rng.choice(jets)) \
            + Fraction(-1, rng.randint(2, 5)) * Expr.symbol(base_var(rng.randint(1, n))) \
            * Expr.symbol(rng.choice(jets))
        T = random_poly(rng, syms, terms=4) + Fraction(1, 7) \
            * Expr.symbol(rng.choice(jets[n + 1:])) * Expr.symbol(rng.choice(syms))
        eq = EvolutionEquation(n, G)
        Q = euler_operator(T)
        assert assembled_for(eq, T) == reference_determining_expression(eq, Q), \
            f"auxiliary form differs for u_t = {G}, T = {T}"
    return cases


def suite_on_shell_corpus() -> int:
    """The closed-form on-shell D_t T of every law the search reports on the
    corpus (at the bounds of :func:`suite_cross_validation`) equals the
    substitution reference.  Returns the number of laws checked."""
    checked = 0
    for entry in CORPUS:
        eq = entry.equation()
        spec = AnsatzSpec(2, 1, 2 if eq.n == 1 else 1)
        table = build_replacement_table(eq)
        for law in find_conservation_laws(eq, spec):
            assert _on_shell_dt(law.T, table) == naive_on_shell_dt(eq, law.T), \
                f"on-shell D_t T differs on {entry.name} for T = {law.T}"
            checked += 1
    return checked


def suite_on_shell_random(cases: int = 60, seed: int = 53) -> int:
    """The same identity on random equations u_t = G and random densities T
    over t, x and spatial jets of order <= 2, for n = 1..3.  G and T have
    explicit t and x terms and rational coefficients; every third G is a
    quotient by 1 + u_1^2, and about half the other T are small quotients
    (a rational T over a rational G in three dimensions took over 5 s on
    either route)."""
    rng = random.Random(seed)
    for k in range(cases):
        rational_G = k % 3 == 2
        n = 1 + (k // 3 if rational_G else k) % 3
        syms = random_spatial_symbols(n)
        jets = syms[n + 1:]
        G = random_poly(rng, syms, terms=3) * Fraction(rng.randint(1, 5), rng.randint(1, 7)) \
            + Fraction(rng.randint(1, 5), 3) * t * Expr.symbol(rng.choice(jets)) \
            + Fraction(-1, rng.randint(2, 5)) * Expr.symbol(base_var(rng.randint(1, n)))
        T = Fraction(rng.randint(1, 5), 2) * t * x * Expr.symbol(rng.choice(jets))
        if rational_G:
            G = G / (1 + u1 ** 2)
            T = T + random_poly(rng, syms, terms=4) * Fraction(rng.randint(1, 9), 7)
        else:
            T = T + _random_input(rng, syms, syms, 1) * Fraction(rng.randint(1, 9), 7)
        eq = EvolutionEquation(n, G)
        assert _on_shell_dt(T, build_replacement_table(eq)) == naive_on_shell_dt(eq, T), \
            f"on-shell D_t T differs for u_t = {G}, T = {T}"
    return cases


def rational_corpus() -> list[tuple[str, EvolutionEquation]]:
    """Every corpus equation, and each with G replaced by 2/3 G + 1/6 u_1
    (a parabolic equation whose coefficients have denominators)."""
    out = []
    for entry in CORPUS:
        eq = entry.equation()
        out.append((entry.name, eq))
        G = eq.G * Fraction(2, 3) + Fraction(1, 6) * Expr.symbol(jet_var((1,)))
        out.append((f"{entry.name} (2/3 G + u_1/6)", EvolutionEquation(eq.n, G)))
    return out


def suite_integer_assembly() -> int:
    """On :func:`rational_corpus` at 2/2/1, the rows assembled from every
    characteristic column of the ansatz are ``int`` and equal d times the
    rows of the on-shell reference
    linear_columns(naive_determining_expression(eq, T)) of the tagged
    ansatz T, key by key; the row order is not compared, since the null
    space is the same under any row order.  Returns the number of equations
    checked."""
    checked = 0
    for name, eq in rational_corpus():
        densities = generate_ansatz(eq.n, AnsatzSpec(2, 2, 1))[0]
        system = assemble_determining_system(eq, densities)
        d = determining_scale(eq)
        reference: dict = {}
        tags = [tag(k) for k in range(len(densities))]
        columns = linear_columns(naive_determining_expression(eq, tagged(densities)), tags)
        for k, column in enumerate(columns):
            for key, c in column.items():
                reference.setdefault(key, {})[k] = d * c
        assert dict(zip(system.keys, system.rows)) == reference, name
        assert len(system.keys) == len(system.rows) == len(reference), name
        assert all(type(c) is int for row in system.rows for c in row.values()), name
        checked += 1
    return checked


def suite_reported_coefficients_are_fractions() -> int:
    """Every coefficient of every law's T, Q and X found on
    :func:`rational_corpus` at 2/2/1 is a Fraction: no ``int`` of the
    integer assembly and no float reaches a law.  Returns the number of
    laws checked."""
    laws = 0
    for name, eq in rational_corpus():
        for law in find_conservation_laws(eq, AnsatzSpec(2, 2, 1), force=True):
            for e in (law.T, law.Q, *law.X):
                for poly in (e.num, e.den):
                    assert all(type(c) is Fraction for c in poly.terms.values()), \
                        f"{name}: {e}"
            laws += 1
    return laws


def _residue_outcome(decompose, eq: EvolutionEquation, symbolic: bool):
    try:
        return decompose(eq, symbolic)
    except SingularSymbol:
        return "singular"


def _random_parabolic_like(rng: random.Random, n: int, extra: Expr) -> EvolutionEquation:
    """u_t = sum_i c_i u_ii + extra, with random rational reference values
    for every symbol (so some symbols are singular at the reference jet)."""
    G = extra
    for i in range(1, n + 1):
        G = G + rng.randint(1, 3) * Expr.symbol(jet_var((i, i)))
    ref = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in G.symbols()}
    return EvolutionEquation(n, G, ref)


def split_ma_classify(eq: EvolutionEquation, symbolic: bool = False) -> MAReport:
    """ma_classify with the residue verdict N = 0 of the harmonic split
    (parabolic._scaled_split) in place of the division of q by sigma."""
    minor = eq.quartic.is_zero
    if eq.n == 1:
        return MAReport(minor, minor)
    try:
        N = _scaled_split(eq, eq.quartic, symbolic)[0][0]
    except SingularSymbol:
        return MAReport(minor, None, singular_symbol=True)
    return MAReport(minor, None, residue_vanishes=N.is_zero)


def residue_verdict(eq: EvolutionEquation, symbolic: bool):
    """ma_classify(eq, symbolic).residue_vanishes, asserted, with the whole
    report, equal to that of :func:`split_ma_classify`, whose verdict is
    whether ma_traceless_residue's q0 = N / D vanishes; "vanishing
    denominator" where both raise DivisionByZeroExpr."""
    outcomes = []
    for classify in (ma_classify, split_ma_classify):
        try:
            outcomes.append(classify(eq, symbolic))
        except DivisionByZeroExpr:
            outcomes.append("vanishing denominator")
    got, want = outcomes
    assert got == want, \
        f"residue verdict differs for u_t = {eq.G} (symbolic={symbolic}): {got} != {want}"
    return got if isinstance(got, str) else got.residue_vanishes


def suite_residue_equivalence(cases: int = 36, seed: int = 47) -> dict:
    """The closed-form (q0, h, sigma) of :func:`residue_decomposition` equals
    naive_residue_decomposition, or both raise SingularSymbol, and the
    verdict of ma_classify (sigma divides q) is whether the naive q0
    vanishes: on every corpus entry with n >= 2, pointwise and symbolic; on
    random G for n = 2..4 pointwise; and on random G for n = 2
    symbolically.  The random pointwise G are polynomials of degree <= 6
    in the Hessian and first-order data.  A symbolic G has one term
    quadratic in the Hessian and one Hessian entry times first-order data:
    the gcds that normalize the naive route's rational coefficients run
    for minutes on richer G, such as u_11*u_12*u_22.  The verdict alone,
    against the split's (:func:`residue_verdict`), is also checked on
    ``cases // 6`` such symbolic G for n = 3 and on the rational G of
    SPLIT_RATIONAL_SOURCES, symbolic, at the default jet and at a random
    one.  Drawn after all of those, every pointwise draw checked against
    the naive route is checked again, route and verdict, at a random
    rational reference jet, and counted under ("random jet", verdict).
    Returns the number of (equation, mode) pairs checked against the
    naive route, and how many draws had each verdict."""
    rng = random.Random(seed)
    problems = [(entry.equation(), symbolic) for entry in CORPUS
                if entry.equation().n >= 2 for symbolic in (False, True)]
    lower = [base_var(1), jet_var(), jet_var((1,))]

    def symbolic_draw(n: int) -> EvolutionEquation:
        hess = [s for s in spatial_jet_vars(n, 2) if s.order == 2]
        extra = rng.randint(1, 5) * Expr.symbol(rng.choice(hess)) \
            * Expr.symbol(rng.choice(hess)) \
            + rng.randint(-5, 5) * Expr.symbol(rng.choice(lower)) \
            * Expr.symbol(rng.choice(hess))
        return _random_parabolic_like(rng, n, extra)

    for k in range(cases):
        n = 2 + k % 3
        hess = [s for s in spatial_jet_vars(n, 2) if s.order == 2]
        extra = random_poly(rng, hess + lower, terms=3, max_exp=2)
        problems.append((_random_parabolic_like(rng, n, extra), False))
        if n == 2:
            problems.append((symbolic_draw(2), True))
    verdict_only = [(symbolic_draw(3), True) for _ in range(cases // 6)]
    for source in SPLIT_RATIONAL_SOURCES:
        eq = parse(source).equation()
        point = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for s in sorted(eq.G.symbols())}
        verdict_only += [(eq, True), (eq, False),
                         (EvolutionEquation(eq.n, eq.G, point), False)]
    at_random_jets = [(EvolutionEquation(eq.n, eq.G, {
        s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in sorted(eq.G.symbols())}),
        False) for eq, symbolic in problems if not symbolic]
    counts = {"naive route": len(problems)}
    for k, (eq, symbolic) in enumerate(problems + at_random_jets):
        got = _residue_outcome(residue_decomposition, eq, symbolic)
        want = _residue_outcome(naive_residue_decomposition, eq, symbolic)
        assert got == want if isinstance(got, str) or isinstance(want, str) \
            else tuple(got) == tuple(want), \
            f"residue differs for u_t = {eq.G} (symbolic={symbolic})"
        verdict = residue_verdict(eq, symbolic)
        assert verdict == (None if want == "singular" else want[0].is_zero), \
            f"residue verdict differs for u_t = {eq.G} (symbolic={symbolic})"
        key = verdict if k < len(problems) else ("random jet", verdict)
        counts[key] = counts.get(key, 0) + 1
    for eq, symbolic in verdict_only:
        verdict = residue_verdict(eq, symbolic)
        counts[verdict] = counts.get(verdict, 0) + 1
    return counts


@contextlib.contextmanager
def split_refused():
    """Within the block, parabolic._scaled_split and parabolic._trace_with
    raise AssertionError."""
    real = parabolic._scaled_split, parabolic._trace_with

    def refuse(*args):
        raise AssertionError("the harmonic split ran")

    parabolic._scaled_split = parabolic._trace_with = refuse
    try:
        yield
    finally:
        parabolic._scaled_split, parabolic._trace_with = real


def _split_outcome(split, eq: EvolutionEquation, symbolic: bool):
    try:
        return tuple(split(eq, symbolic))
    except SingularSymbol:
        return "singular"
    except DivisionByZeroExpr:
        return "vanishing denominator"


SPLIT_SYMBOLIC_SOURCES = (
    "n=2; u_t = u_11 + u_22 + u_11*u_22*u_12",
    "n=2; u_t = 1/2*u_11 + 3/2*u_22 + 2/3*(u_11*u_22 - u_12^2);"
    " ref u_11 = 1; ref u_22 = 1",
    "n=3; u_t = u_11 + u_22 + u_33 + u_11*u_22*u_33 + 2*u_12*u_13*u_23"
    " - u_11*u_23^2 - u_22*u_13^2 - u_33*u_12^2; ref u_11 = 1; ref u_22 = 1; ref u_33 = 1",
    "n=3; u_t = u_11 + u_22 + u_33 + u_11*u_22*u_12 + u_33^2",
    "n=3; u_t = u_11 + 2*u_22 + u_33 + 1/2*u_12*u_23 - u_1*u_13^2",
    # det(g) = 0 identically in the jet
    "n=2; u_t = u_11",
    "n=2; u_t = (u_11 + 2*u_12 + u_22)^2 + u_1",
    "n=3; u_t = u_11 + u_22 + u_1*u_12",
)
SPLIT_RATIONAL_SOURCES = (
    "n=2; u_t = (u_11 + u_22)/(1 + u_1^2) + u_11*u_22 - u_12^2",
    "n=2; u_t = (u_11 + u_22 + u_11^2)/(2 + u_1^2 + u_2^2)",
    "n=2; u_t = (u_11 + u_22)/(2*u_1 + 1)",
    "n=2; u_t = u_11 + u_22 + u_12^2/(1 + u_1^2)",
    "n=2; u_t = u_11*u_22/(1 + u_1) + u_22",
    "n=2; u_t = (u_11 + u_22)/(1 + u_11)",
    "n=2; u_t = u_11 + u_22 + u_12^2/(3 + u_11)",
    "n=3; u_t = (u_11 + u_22 + u_33)/(1 + u_1^2)",
)


def suite_split_equivalence(cases: int = 45, seed: int = 83) -> dict:
    """:func:`harmonic_split`, on int numerators, against the Expr route
    reference_harmonic_split: equal (N, D, P, sigma), or the same
    SingularSymbol or vanishing-denominator outcome.  Draws: every corpus
    entry with n >= 2, pointwise and symbolic; ``cases`` random polynomial
    G for n = 2..4 pointwise, sum c_i u_ii plus a random polynomial in the
    Hessian and first-order data with a rational factor, at random
    rational reference values (c_i = 0 or a negative c_i gives singular and
    weak or non-parabolic symbols); the symbolic polynomial G of
    SPLIT_SYMBOLIC_SOURCES and ``cases // 3`` random ones for n = 2 with one
    term quadratic in the Hessian; the rational G of
    SPLIT_RATIONAL_SOURCES, with denominators in first-order data and in
    the Hessian, symbolic and at two reference jets, the default and a
    random one.  Each random reference value is drawn over G's symbols in
    symbol order, so the draws do not depend on set order.  On every draw
    the residue verdict of ma_classify is checked against the split's
    (:func:`residue_verdict`).  Returns the number of draws of each kind,
    mode and outcome, with the parabolicity verdict of each pointwise
    draw, and the number with each residue verdict."""
    rng = random.Random(seed)
    draws = [("corpus", entry.equation(), symbolic) for entry in CORPUS
             if entry.equation().n >= 2 for symbolic in (False, True)]
    for k in range(cases):
        n = 2 + k % 3
        hess = [s for s in spatial_jet_vars(n, 2) if s.order == 2]
        lower = [base_var(1), jet_var(), jet_var((1,)), jet_var((n,))]
        G = random_poly(rng, hess + lower, terms=3, max_exp=2) \
            * Fraction(rng.randint(1, 5), rng.randint(1, 4))
        for i in range(1, n + 1):
            G = G + Fraction(rng.choice((-1, 0, 1, 1, 2, 3)), rng.randint(1, 3)) \
                * Expr.symbol(jet_var((i, i)))
        ref = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in sorted(G.symbols())}
        draws.append(("pointwise", EvolutionEquation(n, G, ref), False))
    symbolic = [parse(source).equation() for source in SPLIT_SYMBOLIC_SOURCES]
    for _ in range(cases // 3):
        hess = [s for s in spatial_jet_vars(2, 2) if s.order == 2]
        extra = Fraction(rng.randint(1, 5), rng.randint(1, 3)) \
            * Expr.symbol(rng.choice(hess)) * Expr.symbol(rng.choice(hess)) \
            + rng.randint(-5, 5) * Expr.symbol(jet_var((1,))) * Expr.symbol(rng.choice(hess))
        symbolic.append(_random_parabolic_like(rng, 2, extra))
    draws += [("symbolic", eq, True) for eq in symbolic]
    for source in SPLIT_RATIONAL_SOURCES:
        eq = parse(source).equation()
        point = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for s in sorted(eq.G.symbols())}
        draws += [("rational", eq, True), ("rational", eq, False),
                  ("rational", EvolutionEquation(eq.n, eq.G, point), False)]
    counts: dict = {}
    for kind, eq, symbolic in draws:
        got = _split_outcome(harmonic_split, eq, symbolic)
        want = _split_outcome(reference_harmonic_split, eq, symbolic)
        assert got == want, f"split differs for u_t = {eq.G} (symbolic={symbolic})"
        verdict = ("verdict", residue_verdict(eq, symbolic))
        counts[verdict] = counts.get(verdict, 0) + 1
        key = (kind, "symbolic" if symbolic else "pointwise",
               want if isinstance(want, str) else "split")
        if not symbolic and want != "vanishing denominator":
            key += (parabolicity_check(eq).value,)
        counts[key] = counts.get(key, 0) + 1
    return counts


def suite_quartic_equivalence(cases: int = 60, seed: int = 59) -> dict:
    """quartic_form equals naive_quartic_form, and symbol_form the quadratic
    form of symbol_matrix, on every corpus entry, on two G rational in
    first-order data, and on random polynomial G for n = 1..3 with products
    of up to three Hessian entries ("seeded"); and, drawn after those, on
    ``cases // 4`` random G of each of three shapes that D_xi's one walk
    over a monomial's fields meets: n = 4 ("n = 4"), and for n = 1..3 a
    Hessian entry raised to a power 2..4 ("powers") and Hessian terms over
    first-order data, where the quotient rule runs ("quotients").  Returns
    the number of equations of each kind checked."""
    rng = random.Random(seed)
    eqs = [entry.equation() for entry in CORPUS]
    eqs += [EvolutionEquation(1, uxx / (1 + u ** 2)),
            EvolutionEquation(2, (u11 + u22) / (2 + u1 ** 2) + u11 * u22)]
    for k in range(cases):
        n = 1 + k % 3
        hess = [s for s in spatial_jet_vars(n, 2) if s.order == 2]
        lower = [base_var(0), base_var(1), jet_var(), jet_var((1,))]
        G = random_poly(rng, hess + lower, terms=4, max_exp=3)
        for _ in range(rng.randint(1, 2)):
            G = G + random_poly(rng, lower, terms=2) * math.prod(
                (Expr.symbol(rng.choice(hess)) for _ in range(rng.randint(2, 3))), start=ONE)
        eqs.append(EvolutionEquation(n, G))
    kinds = [("seeded", eq) for eq in eqs]
    hess4 = [s for s in spatial_jet_vars(4, 2) if s.order == 2]
    lower = [base_var(1), jet_var(), jet_var((1,))]
    for k in range(cases // 4):
        G = random_poly(rng, hess4 + lower, terms=4, max_exp=2) + random_poly(rng, lower, terms=2) \
            * Expr.symbol(rng.choice(hess4)) * Expr.symbol(rng.choice(hess4))
        kinds.append(("n = 4", EvolutionEquation(4, G)))
        n = 1 + k % 3
        hess = [s for s in spatial_jet_vars(n, 2) if s.order == 2]
        G = random_poly(rng, hess + lower, terms=3, max_exp=2) + random_poly(rng, lower, terms=2) \
            * Expr.symbol(rng.choice(hess)) ** rng.randint(2, 4) * Expr.symbol(rng.choice(hess))
        kinds.append(("powers", EvolutionEquation(n, G)))
        G = random_poly(rng, hess + lower, terms=3, max_exp=2) \
            / (rng.randint(1, 3) + random_poly(rng, lower, terms=2) ** 2) \
            + Expr.symbol(rng.choice(hess)) * Expr.symbol(rng.choice(hess)) \
            / (rng.randint(1, 3) + Expr.symbol(rng.choice(lower)))
        kinds.append(("quotients", EvolutionEquation(n, G)))
    counts: dict = {}
    for kind, eq in kinds:
        assert symbol_form(eq) == symbol_quadratic(symbol_matrix(eq)), \
            f"symbol differs for u_t = {eq.G} (n={eq.n})"
        assert quartic_form(eq) == naive_quartic_form(eq), \
            f"quartic form differs for u_t = {eq.G} (n={eq.n})"
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def _random_symmetric(rng: random.Random, n: int) -> list[list[Fraction]]:
    """B^T D B / d for a random integer B, some of whose entries are zero,
    and a random diagonal D: of 1s (positive definite or semidefinite), or
    of -1, 0 and 1 (often indefinite).  Rank-deficient B give singular
    matrices, whose elimination meets zero pivots."""
    rows = rng.randint(n - 1, n + 1)
    B = [[rng.choice([0, rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(n)]
         for _ in range(rows)]
    D = [rng.choice([1] if rng.random() < 0.6 else [-1, 0, 1]) for _ in range(rows)]
    d = rng.randint(1, 3)
    return [[Fraction(sum(B[r][i] * D[r] * B[r][j] for r in range(rows)), d)
             for j in range(n)] for i in range(n)]


def _jet_symbol_draw(rng: random.Random, n: int, g: list[list[Fraction]],
                     rational: bool) -> EvolutionEquation:
    """u_t = G at a random rational reference jet, where G's symbol there is
    g and depends on the jet: the coefficient of u_ij is an affine function
    of u, u_1 or x1 that takes the value of g there, and one product of two
    Hessian entries, each minus its reference value, adds Hessian terms to
    the symbol that vanish there.  When ``rational``, G is divided by one
    of u, u_1 or x1 minus its reference value and a positive m, a
    denominator that is -m there, and the numerator's coefficients carry
    the factor -m."""
    hess = [s for s in spatial_jet_vars(n, 2) if s.order == 2]
    lower = [jet_var(), jet_var((1,)), base_var(1)]
    point = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in hess + lower}
    at = {s: Expr.symbol(s) - point[s] for s in hess + lower}
    m = Fraction(rng.randint(1, 5), rng.randint(1, 3)) if rational else Fraction(-1)
    G = rng.randint(-2, 2) * at[rng.choice(hess)] * at[rng.choice(hess)]
    for i in range(n):
        for j in range(i, n):
            c = -m * g[i][j] * (1 if i == j else 2) + rng.randint(-2, 2) * at[rng.choice(lower)]
            G = G + c * jet(i + 1, j + 1)
    if rational:
        G = G / (at[rng.choice(lower)] - m)
    return EvolutionEquation(n, G, point)


def suite_parabolicity_equivalence(cases: int = 600, seed: int = 61) -> dict:
    """parabolicity_check agrees with naive_parabolicity on seeded random
    symmetric rational symbols, n = 1..4.  G is linear in the Hessian,
    G = sum_i g_ii u_ii + sum_{i<j} 2 g_ij u_ij, so its symbol is g at any
    jet.  Returns the count of each verdict, and under ("zero pivot",
    verdict) the count of matrices with a vanishing leading principal
    minor, where the elimination meets a zero pivot.  Drawn after those,
    ``cases // 3`` symbols that depend on the jet and ``cases // 6``
    rational G whose denominator is negative at the reference jet (see
    :func:`_jet_symbol_draw`), each at a random rational reference jet and
    with the symbol of a further random symmetric matrix there, are
    counted under ("jet", verdict) and ("rational", verdict)."""
    rng = random.Random(seed)
    counts: dict = {}
    for k in range(cases):
        n = 1 + k % 4
        g = _random_symmetric(rng, n)
        G = ZERO
        for i in range(n):
            for j in range(i, n):
                G = G + (1 if i == j else 2) * g[i][j] * jet(i + 1, j + 1)
        eq = EvolutionEquation(n, G)
        got = parabolicity_check(eq)
        assert got is naive_parabolicity(eq), f"verdict differs on {g}"
        counts[got] = counts.get(got, 0) + 1
        if any(leibniz_det([row[:m] for row in g[:m]]) == 0 for m in range(1, n + 1)):
            counts["zero pivot", got] = counts.get(("zero pivot", got), 0) + 1
    draws = [("jet", k, False) for k in range(cases // 3)] \
        + [("rational", k, True) for k in range(cases // 6)]
    for kind, k, rational in draws:
        n = 1 + k % 4
        eq = _jet_symbol_draw(rng, n, _random_symmetric(rng, n), rational)
        got = parabolicity_check(eq)
        assert got is naive_parabolicity(eq), f"verdict differs on u_t = {eq.G}"
        counts[kind, got] = counts.get((kind, got), 0) + 1
    return counts


def suite_triviality_filter(cases: int = 100, seed: int = 17) -> int:
    """Densities that are total spatial divergences have characteristic 0."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        S = random_poly(rng, [base_var(1), jet_var(), jet_var((1,))])
        T = total_derivative(S, 1)
        assert euler_operator(T).is_zero, f"divergence density not filtered: S={S}"
        done += 1
    return done


def corpus_specs(rng: random.Random, n: int) -> AnsatzSpec:
    if n == 1:
        return AnsatzSpec(max_jet_order=rng.choice((1, 2)),
                          jet_degree=rng.choice((1, 2)),
                          base_degree=rng.choice((0, 1, 2)))
    return AnsatzSpec(max_jet_order=rng.choice((1, 2)),
                      jet_degree=1,
                      base_degree=rng.choice((0, 1)))


def suite_solver_soundness(cases: int = 100, seed: int = 19) -> int:
    """Every law produced by the finder verifies exactly (randomized bounds
    over the built-in corpus)."""
    rng = random.Random(seed)
    done = 0
    entries = [e for e in CORPUS]
    while done < cases:
        entry = rng.choice(entries)
        eq = entry.equation()
        spec = corpus_specs(rng, eq.n)
        laws = find_conservation_laws(eq, spec)
        for law in laws:
            assert law.X is not None, f"flux missing for {entry.name}"
            assert verify(eq, law), f"law fails to verify for {entry.name}: T={law.T}"
            assert not law.Q.is_zero
        done += 1
    return done


def naive_find_conservation_laws(eq: EvolutionEquation, spec: AnsatzSpec,
                                 force: bool = False) -> list[ConservationLaw]:
    """The law search over the full ansatz: every null vector of the full
    determining system is extracted; a vector whose characteristic is 0 is
    dropped as trivial, and one whose characteristic depends on those
    already kept is dropped as a duplicate.  Laws are scaled so their
    characteristic is monic, and their fluxes are reconstructed, as in
    find_conservation_laws."""
    if not force and parabolicity_check(eq) is Parabolicity.NOT_PARABOLIC:
        raise NotParabolicEquation()
    densities, characteristics = generate_ansatz(eq.n, spec)
    system = assemble_determining_system(eq, densities)
    kept = linalg.Echelon()
    laws = []
    for vec in solve_exact(system):
        Q = combine(characteristics, vec)
        if Q.is_zero or not kept.add(Q.num.terms):
            continue
        scale = Fraction(1) / Q.num.leading()[1]
        T = combine(densities, vec) * scale
        laws.append(ConservationLaw(T, reconstruct_flux(eq, T), Q * scale))
    return laws


def suite_restricted_search_equivalence(cases: int = 200, seed: int = 67) -> int:
    """find_conservation_laws returns the laws of naive_find_conservation_laws,
    in the same order, with the same T, X and Q, printed alike, on every
    corpus equation at the default bounds, on seeded random (corpus entry,
    corpus_specs) pairs, on :func:`rational_corpus` at 2/2/1, on the
    backward heat equation -u_xx (not parabolic, so searched with force) at
    2/2/2, and on the transport equation u_x (weakly parabolic, with a law
    of order 4) at 2/2/1.  Returns the number of laws compared."""
    rng = random.Random(seed)
    problems = [(entry.name, entry.equation(), AnsatzSpec(), False) for entry in CORPUS]
    for _ in range(cases):
        entry = rng.choice(CORPUS)
        eq = entry.equation()
        problems.append((entry.name, eq, corpus_specs(rng, eq.n), False))
    problems += [(name, eq, AnsatzSpec(2, 2, 1), True) for name, eq in rational_corpus()]
    problems.append(("backward heat", EvolutionEquation(1, -uxx), AnsatzSpec(2, 2, 2), True))
    problems.append(("transport", EvolutionEquation(1, ux), AnsatzSpec(2, 2, 1), False))
    compared = 0
    for name, eq, spec, force in problems:
        laws = find_conservation_laws(eq, spec, force)
        reference = naive_find_conservation_laws(eq, spec, force)
        assert laws == reference, f"laws differ on {name} at {spec}"
        assert [_law_text(law) for law in laws] == [_law_text(law) for law in reference], \
            f"laws print differently on {name} at {spec}"
        compared += len(laws)
    return compared


def _law_text(law: ConservationLaw) -> tuple:
    return str(law.T), tuple(str(Xi) for Xi in law.X), str(law.Q)


def _law_types(law: ConservationLaw) -> tuple:
    return tuple(_coefficient_types(e) for e in (law.T, law.Q, *law.X))


def random_law_equation(rng: random.Random, n: int) -> EvolutionEquation:
    """A random polynomial equation u_t = G with laws, G = sum_i a_i u_ii
    with rational a_i > 0 plus either a constant rational drift
    sum_i b_i u_i and half the time a random source term in t and x, or
    sum_i D_i F^i for random F^i in t, x and the jets of order <= 1 with
    rational coefficients.  So u is always a density, and the drift
    equations have t- and x-weighted laws at larger bounds; a source term
    gives reduce(D_t T) a jet-free part, integrated in x1."""
    G = ZERO
    for i in range(1, n + 1):
        G = G + Fraction(rng.randint(1, 5), rng.randint(1, 3)) * jet(i, i)
    if rng.random() < 0.5:
        for i in range(1, n + 1):
            G = G + Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * jet(i)
        if rng.random() < 0.5:
            G = G + random_poly(rng, [base_var(a) for a in range(n + 1)], terms=2) \
                * Fraction(1, rng.randint(1, 3))
    else:
        syms = random_spatial_symbols(n, 1)
        for i in range(1, n + 1):
            F = random_poly(rng, syms, terms=2, coeff=3) * Fraction(1, rng.randint(1, 3))
            G = G + total_derivative(F, i)
    return EvolutionEquation(n, G)


def suite_extraction_equivalence(cases: int = 60, seed: int = 97) -> int:
    """find_conservation_laws, extracting each law on integer term dicts,
    returns the laws of :func:`reference_find_conservation_laws`, in the
    same order, with the same T, X and Q, printed alike and with the same
    coefficient types: on every corpus equation at the default bounds and
    at 2/1/2 (n = 1) or 2/1/1, on :func:`rational_corpus` at 2/2/1 (with
    force), and on ``cases`` seeded :func:`random_law_equation` draws
    (n = 1 or 2, with force) at 2/1..2/0..2 (n = 1) or 2/1..2/0..1 (n = 2).
    Returns the number of laws compared."""
    rng = random.Random(seed)
    problems = []
    for entry in CORPUS:
        eq = entry.equation()
        problems.append((entry.name, eq, AnsatzSpec(), False))
        problems.append((entry.name, eq, AnsatzSpec(2, 1, 2 if eq.n == 1 else 1), False))
    problems += [(name, eq, AnsatzSpec(2, 2, 1), True) for name, eq in rational_corpus()]
    for k in range(cases):
        n = 1 + k % 2
        eq = random_law_equation(rng, n)
        spec = AnsatzSpec(2, rng.randint(1, 2), rng.randint(0, 2 if n == 1 else 1))
        problems.append((f"u_t = {eq.G}", eq, spec, True))
    compared = 0
    for name, eq, spec, force in problems:
        laws = find_conservation_laws(eq, spec, force)
        reference = reference_find_conservation_laws(eq, spec, force)
        assert laws == reference, f"laws differ on {name} at {spec}"
        assert [_law_text(law) for law in laws] == [_law_text(law) for law in reference], \
            f"laws print differently on {name} at {spec}"
        assert [_law_types(law) for law in laws] == [_law_types(law) for law in reference], \
            f"coefficient types differ on {name} at {spec}"
        compared += len(laws)
    return compared


def _search_outcome(search, eq: EvolutionEquation, spec: AnsatzSpec, force: bool) -> tuple:
    """The laws a search returns, with their text and coefficient types, or
    the type and message of its refusal."""
    try:
        laws = search(eq, spec, force)
    except (NotParabolicEquation, NotPolynomialIn) as exc:
        return type(exc).__name__, str(exc)
    return "laws", laws, [_law_text(law) for law in laws], [_law_types(law) for law in laws]


def recorded_search(eq: EvolutionEquation, spec: AnsatzSpec, force: bool) -> tuple[dict, tuple]:
    """(calls, outcome): find_conservation_laws run with the arguments and
    result of each of its staged calls recorded by name, as [args, result],
    the result None for a call that raised, and its :func:`_search_outcome`."""
    names = ("generate_ansatz", "assemble_determining_system", "solve_exact")
    real = {name: getattr(claws, name) for name in names}
    calls: dict = {}

    def recording(name):
        def wrapper(*args):
            calls[name] = [args, None]
            calls[name][1] = real[name](*args)
            return calls[name][1]
        return wrapper

    for name in names:
        setattr(claws, name, recording(name))
    try:
        outcome = _search_outcome(find_conservation_laws, eq, spec, force)
    finally:
        for name, fn in real.items():
            setattr(claws, name, fn)
    return calls, outcome


def suite_column_route_equivalence(cases: int = 40, seed: int = 103) -> dict:
    """The column route of paraclaw.claws gives the results of the tagged
    route, :func:`tagged_stages`, stage by stage as the search ran them: the
    density and characteristic columns are those of the tagged T and
    Q = E_u(T); the search assembles the kept columns; the determining
    system has the same column count and the same row under each key (in
    any row order, which the null space does not depend on), and the same null
    space; and the laws are those of :func:`reference_find_conservation_laws`,
    or the refusal has the same type and message.  On every corpus equation
    at the default bounds and at 2/2/1, on :func:`rational_corpus` at 2/2/1
    with force, and on ``cases`` seeded random equations u_t = G (n = 1 or
    2) at 2/1..2/0..2 (n = 1) or 2/1..2/0..1 (n = 2): a
    :func:`random_law_equation` with force, the same over 1 + x1^2 (a
    rational G, refused unless no column is kept) with force, and a random
    polynomial G with rational coefficients, with and without force (so
    refused when it is not parabolic).  Each equation the search would
    answer with no plan is searched with unsafe_order
    (:func:`plan_route_spec`).  Returns the counts of
    :func:`_compare_column_route`."""
    rng = random.Random(seed)
    problems = []
    for entry in CORPUS:
        eq = entry.equation()
        problems += [(entry.name, eq, AnsatzSpec(), False),
                     (entry.name, eq, AnsatzSpec(2, 2, 1), False)]
    problems += [(name, eq, AnsatzSpec(2, 2, 1), True) for name, eq in rational_corpus()]
    for k in range(cases):
        n = 1 + k % 2
        spec = AnsatzSpec(2, rng.randint(1, 2), rng.randint(0, 2 if n == 1 else 1))
        kind = k // 2 % 4
        if kind < 2:
            G = random_law_equation(rng, n).G
            if kind == 1:
                G = G / (1 + x1 ** 2)
        else:
            syms = random_spatial_symbols(n)
            G = random_poly(rng, syms, terms=3) * Fraction(rng.randint(1, 5), rng.randint(1, 4)) \
                + Fraction(rng.randint(1, 5), 3) * Expr.symbol(rng.choice(syms[n + 1:]))
        problems.append((f"u_t = {G}", EvolutionEquation(n, G), spec, kind != 3))
    counts = dict.fromkeys(ROUTE_COUNTS, 0)
    for name, eq, spec, force in problems:
        _compare_column_route(f"{name} at {spec}", eq, spec, force, counts)
    return counts


def random_strict_law_equation(rng: random.Random, n: int) -> EvolutionEquation:
    """A :func:`random_law_equation` draw plus, for n >= 2, c times the sum
    of the 2x2 principal minors of the Hessian, a random rational c != 0:
    a divergence, so u stays a density, and a Monge-Ampere term, so that
    the principal part is nonlinear; drawn again until the symbol is
    strictly parabolic at the reference jet."""
    while True:
        G = random_law_equation(rng, n).G
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                G = G + c * (jet(i, i) * jet(j, j) - jet(i, j) ** 2)
        eq = EvolutionEquation(n, G)
        if parabolicity_check(eq) is Parabolicity.STRICT:
            return eq


def random_strict_quartic_equation(rng: random.Random, n: int) -> EvolutionEquation:
    """A :func:`random_strict_law_equation` draw plus c u_11^2, a random
    rational c != 0: its quartic form 2 c xi_1^4 is not 0, so the search
    finds no law on it with no plan, and its symbol at the reference jet,
    where u_11 = 0, is the draw's, so strictly parabolic."""
    eq = random_strict_law_equation(rng, n)
    c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return EvolutionEquation(n, eq.G + c * jet(1, 1) ** 2)


def random_quartic_coefficient_equation(rng: random.Random, n: int) -> EvolutionEquation:
    """u_t = (1 + w^2) G + c v u_11^2 for a :func:`random_strict_law_equation`
    draw G, a random monomial w in x and u, a random polynomial v != 0 in
    x, u and u_1, and a random rational c != 0: coefficients that depend on
    x and u, and the quartic form 2 c v xi_1^4, not 0 (G's is 0); drawn
    again until the symbol is strictly parabolic at the reference jet."""
    coefficients = [base_var(a) for a in range(1, n + 1)] + [jet_var()]
    while True:
        G = random_strict_law_equation(rng, n).G
        w = random_poly(rng, coefficients, terms=1, max_exp=1)
        v = random_poly(rng, coefficients + [jet_var((1,))], terms=2, max_exp=1)
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        eq = EvolutionEquation(n, (1 + w * w) * G + c * v * jet(1, 1) ** 2)
        if naive_parabolicity(eq) is Parabolicity.STRICT:
            return eq


@contextlib.contextmanager
def no_search():
    """Within the block, each stage of the law search in paraclaw.claws
    (``generate_ansatz``, ``_plan``, ``_pure_u_columns``,
    ``assemble_determining_system`` and ``solve_exact``) raises
    AssertionError."""
    names = ("generate_ansatz", "_plan", "_pure_u_columns", "assemble_determining_system",
             "solve_exact")
    real = {name: getattr(claws, name) for name in names}

    def refuse(*args):
        raise AssertionError("the law search ran")

    for name in names:
        setattr(claws, name, refuse)
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(claws, name, fn)


def suite_no_law_with_a_quartic_form(cases: int = 3, seed: int = 211,
                                     weak_and_forced: bool = False) -> dict:
    """A polynomial G whose quartic form is not 0 has no law: on ``cases``
    seeded :func:`random_quartic_coefficient_equation` draws (strictly
    parabolic), n = 1, 2, 3 in turn, or with ``weak_and_forced`` on
    ``cases`` :func:`random_weak_and_forced` pairs with a quartic form,
    n = 2, 3 in turn, at every golden spec, find_conservation_laws returns
    none with no search (:func:`no_search`), and the search over every
    kept column of the plan, ``claws._laws_of_columns``, finds none
    either.  Returns the counts of problems and of kept columns searched."""
    rng = random.Random(seed)
    problems = []
    for k in range(cases):
        if weak_and_forced:
            problems += random_weak_and_forced(rng, 2 + k % 2, True)
        else:
            problems.append((random_quartic_coefficient_equation(rng, 1 + k % 3), False))
    counts = {"problems": 0, "columns": 0}
    for eq, force in problems:
        assert not naive_quartic_form(eq).is_zero
        for spec in golden_ansatz_specs():
            where = f"u_t = {eq.G} at {spec}"
            with no_search():
                assert find_conservation_laws(eq, spec, force) == [], where
            densities, characteristics = claws._plan(eq.n, spec)
            assert claws._laws_of_columns(eq, densities, characteristics) == [], where
            counts["problems"] += 1
            counts["columns"] += len(densities)
    return counts


def xi_to_jets(F: Expr, n: int) -> Expr:
    """The polynomial F in the jets and xi_1..xi_n with each xi^a read as
    the jet u_a: every term's xi factors, of any degree, become one jet
    factor, indexed by the xi's indices in order."""
    assert F.is_polynomial
    index = {s: i for i, s in enumerate(xi_symbols(n), start=1)}
    terms: dict = {}
    for m, c in F.num.terms.items():
        word, rest = [], []
        for s, k in mono_decode(m):
            if s in index:
                word += [index[s]] * k
            else:
                rest.append((s, k))
        key = mono_encode(rest + [(jet_var(tuple(word)), 1)] if word else rest)
        terms[key] = terms.get(key, 0) + c
    return Expr._make(Poly({m: c for m, c in terms.items() if c}), Poly.one())


def top_order_term(eq: EvolutionEquation, Q: Expr) -> Expr:
    """2 sigma D_xi Q + q Q, read with xi^a <-> u_a (:func:`xi_to_jets`),
    for the symbol sigma = symbol_form(eq) and the quartic form
    q = quartic_form(eq), with D_xi = sum_{i <= j} xi_i xi_j d/du_ij."""
    xi = [Expr.symbol(s) for s in xi_symbols(eq.n)]
    D_Q = ZERO
    for i in range(1, eq.n + 1):
        for j in range(i, eq.n + 1):
            D_Q = D_Q + xi[i - 1] * xi[j - 1] * Q.diff(jet_var((i, j)))
    return xi_to_jets(2 * symbol_form(eq) * D_Q + quartic_form(eq) * Q, eq.n)


def order_four_part(E: Expr) -> Expr:
    """The terms of the polynomial E that hold a jet of order 4."""
    return Expr._make(Poly({m: c for m, c in E.num.terms.items()
                            if any(s.kind == JET and s.order == 4 for s, _ in mono_decode(m))}),
                      Poly.one())


def suite_top_order_identity(cases: int = 12, seed: int = 191) -> dict:
    """The auxiliary equation at top order: for a characteristic Q of order
    <= 2, the terms of the assembled determining expression of its density
    T that hold a jet of order 4 (:func:`assembled_for`, d times the
    expression, d the lcm of G's denominators) are d times
    :func:`top_order_term`.  On ``cases`` seeded G, n = 1, 2, 3 in turn,
    alternately a :func:`random_strict_law_equation` (quartic form 0) and
    a :func:`random_strict_quartic_equation` (not 0), at 2/3/1 (n = 1),
    2/2/1 (n = 2) or 2/2/0 (n = 3); the densities are every plan column
    whose characteristic holds no jet of order >= 3 and three seeded
    combinations of the basis of V, the combinations of the plan's
    characteristics of order <= 2 (the null space of the rows of the
    monomials with a jet of order >= 3).  Returns the counts of
    characteristics checked, of those with 2 sigma D_xi Q != 0 and of
    those with q Q != 0."""
    rng = random.Random(seed)
    counts = {"characteristics": 0, "sigma_terms": 0, "quartic_terms": 0}
    for k in range(cases):
        n = 1 + k % 3
        draw = random_strict_quartic_equation if k % 2 else random_strict_law_equation
        eq = draw(rng, n)
        spec = (AnsatzSpec(2, 3, 1), AnsatzSpec(2, 2, 1), AnsatzSpec(2, 2, 0))[n - 1]
        densities, characteristics = claws._plan(n, spec)
        high: dict = {}  # monomial with a jet of order >= 3 -> its row
        for j, Q in enumerate(characteristics):
            for m, c in Q.items():
                if any(s.kind == JET and s.order >= 3 for s, _ in mono_decode(m)):
                    high.setdefault(m, {})[j] = c
        V = reference_nullspace(list(high.values()), len(characteristics))
        bounded = set(range(len(characteristics))) - {k for row in high.values() for k in row}
        vectors = [{k: Fraction(1)} for k in sorted(bounded)]
        for _ in range(3):
            vec: dict = {}
            for v in rng.sample(V, min(3, len(V))):
                c = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                for j, a in v.items():
                    vec[j] = vec.get(j, 0) + c * a
            vectors.append({j: a for j, a in vec.items() if a})
        scale = determining_scale(eq)
        q = quartic_form(eq)
        for vec in vectors:
            T, Q = combine(list(densities), vec), combine(list(characteristics), vec)
            want = top_order_term(eq, Q)
            assert order_four_part(assembled_for(eq, T)) == scale * want, \
                f"u_t = {eq.G} at {spec}: T = {T}"
            counts["characteristics"] += 1
            counts["sigma_terms"] += not (want - xi_to_jets(q * Q, n)).is_zero
            counts["quartic_terms"] += not (q * Q).is_zero
    return counts


def pure_u_places(densities) -> list[int]:
    """The places of the pure-u columns t^b x^a u^k among these one-term
    density columns."""
    return [k for k, (m,) in enumerate(densities)
            if all(s.kind == BASE or s == jet_var() for s, _ in mono_decode(m))]


def compare_pure_u_route(eq: EvolutionEquation, spec: AnsatzSpec, force: bool = False) -> int:
    """The search of a polynomial G whose symbol is not 0 and whose quartic
    form is 0, which reads its pure-u columns off, against the search over
    every kept column of the plan, ``claws._laws_of_columns``: the same
    laws, printed alike (T, every flux and Q).  The columns it reads off
    are the plan's pure-u columns, in the same order.  The search runs
    with ``generate_ansatz`` and ``_plan`` replaced by a function that
    fails, so it calls neither.  Returns the number of laws."""
    assert takes_pure_u_route(eq, spec)
    real = claws.generate_ansatz, claws._plan

    def no_plan(*args):
        raise AssertionError("a minor-affine search read the plan")

    claws.generate_ansatz = claws._plan = no_plan
    try:
        laws = find_conservation_laws(eq, spec, force)
    finally:
        claws.generate_ansatz, claws._plan = real
    densities, characteristics = claws._plan(eq.n, spec)
    planned = claws._laws_of_columns(eq, densities, characteristics)
    where = f"u_t = {eq.G} at {spec}"
    assert [_law_text(law) for law in laws] == [_law_text(law) for law in planned], where
    places = pure_u_places(densities)
    assert claws._pure_u_columns(eq.n, spec) \
        == ([densities[k] for k in places], [characteristics[k] for k in places]), where
    return len(laws)


def random_weak_law_equation(rng: random.Random, n: int) -> EvolutionEquation:
    """A :func:`random_law_equation` draw (n >= 2) with u_nn set to 0,
    drawn again until its symbol at the reference jet is weakly parabolic:
    a symbol that is not 0 but singular, and a quartic form of 0."""
    assert n >= 2
    while True:
        eq = EvolutionEquation(n, random_law_equation(rng, n).G.substitute({jet_var((n, n)): 0}))
        if naive_parabolicity(eq) is Parabolicity.WEAK:
            return eq


def random_weak_and_forced(rng: random.Random, n: int, quartic: bool) -> list:
    """Two (equation, force) draws the search answers with no plan although
    their symbol is not strictly parabolic: a :func:`random_weak_law_equation`
    (n >= 2), plus c u_11^2, a random rational c != 0, when ``quartic``
    (u_11 = 0 at the reference jet, so the class is the draw's), without
    force; and the backward equation u_t = -G of a
    :func:`random_strict_quartic_equation` (``quartic``) or
    :func:`random_strict_law_equation` draw, whose symbol is not
    parabolic, with force.  The quartic form is not 0 exactly when
    ``quartic``."""
    weak = random_weak_law_equation(rng, n)
    strict = (random_strict_quartic_equation if quartic else random_strict_law_equation)(rng, n)
    if quartic:
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        weak = EvolutionEquation(n, weak.G + c * jet(1, 1) ** 2)
    return [(weak, False), (EvolutionEquation(n, -strict.G), True)]


def minor_affine_reports():
    """(name, report) of every `paraclaw claws` report on a strictly
    parabolic polynomial G whose quartic form is 0: the golden corpus
    (tests/golden/claws_corpus.json) and the claws requests of the
    wide-ansatz and flux-heavy benchmark workloads at seeds 1, 2 and
    1000003, passes 0-2, run here."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    requests = []
    for key, record in golden.items():
        requests.append((key, by_name(key.split()[0]).equation(), record["stdout"]))
    problems = perfbench_problems()
    with tempfile.TemporaryDirectory() as workdir:
        for workload in ("wide-ansatz", "flux-heavy"):
            for seed in (1, 2, 1000003):
                for pass_index in (0, 1, 2):
                    batch = problems.generate(workload, seed, pass_index)
                    for req, path in zip(batch, problems.write_files(batch, workdir)):
                        assert req["command"] == "claws" and "--unsafe-order" not in req["args"]
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out):
                            cli.main(problems.argv(req, path))
                        name = f"{workload} seed {seed} pass {pass_index}: {req['source']}"
                        requests.append((name, parse(req["source"]).equation(), out.getvalue()))
    for name, eq, stdout in requests:
        if takes_pure_u_route(eq, AnsatzSpec()):
            yield name, json.loads(stdout)


# what :func:`_compare_column_route` counts
ROUTE_COUNTS = ("problems", "refusals", "laws")


def _compare_column_route(where: str, eq: EvolutionEquation, spec: AnsatzSpec,
                          force: bool, counts: dict) -> None:
    """One problem of :func:`suite_column_route_equivalence`: the search's
    staged calls against :func:`tagged_stages`, and its outcome against
    :func:`reference_find_conservation_laws`; counts the problem, a
    refusal and the laws.  The search generates its ansatz, assembles
    every kept column and solves that system as it is, with no row added,
    so its system and its null space are the tagged ones; a refusal, of a
    symbol that is not parabolic without force or of a rational G, runs no
    stage.  A problem the search would answer with no plan
    (:func:`takes_no_plan`: on its pure-u columns, or with no law where
    the quartic form is not 0) is searched at its :func:`plan_route_spec`,
    so the plan route is compared."""
    spec = plan_route_spec(eq, spec)
    calls, outcome = recorded_search(eq, spec, force)
    stages = tagged_stages(eq, spec)

    def reference(eq, spec, force):
        return reference_find_conservation_laws(eq, spec, force, stages)

    assert outcome == _search_outcome(reference, eq, spec, force), f"outcomes differ on {where}"
    counts["problems"] += 1
    if outcome[0] != "laws":
        counts["refusals"] += 1
    if outcome[0] in ("NotParabolicEquation", "NotPolynomialIn"):
        assert not calls, where
        return
    densities, characteristics = calls["generate_ansatz"][1]
    assert densities == linear_columns(stages["T"], stages["tags"]), where
    assert characteristics == linear_columns(stages["Q"], stages["tags"]), where
    kept = stages["kept"]
    index = {id(T): k for k, T in enumerate(densities)}
    assembled = calls["assemble_determining_system"][0][1]
    assert [index[id(T)] for T in assembled] == kept, where
    if "error" in stages:
        assert outcome[0] != "laws" and calls["assemble_determining_system"][1] is None, where
        return
    system, reference = calls["assemble_determining_system"][1], stages["system"]
    rows = {key: row for key, row in zip(reference.keys, reference.rows) if row}
    assert system.ncols == len(kept), where
    assert len(system.keys) == len(system.rows) == len(rows), where
    assert dict(zip(system.keys, system.rows)) == rows, where
    assert calls["solve_exact"][0][0] is system, where
    assert calls["solve_exact"][1] == stages["basis"], where
    counts["laws"] += len(outcome[1])


def takes_pure_u_route(eq: EvolutionEquation, spec: AnsatzSpec) -> bool:
    """Whether find_conservation_laws searches the pure-u columns
    t^b x^a u^k with no plan: on a polynomial G whose symbol is not 0 and
    whose quartic form (:func:`naive_quartic_form`) is 0, without
    unsafe_order."""
    return takes_no_plan(eq, spec) and naive_quartic_form(eq).is_zero


def takes_no_plan(eq: EvolutionEquation, spec: AnsatzSpec) -> bool:
    """Whether find_conservation_laws answers with no plan: on a polynomial
    G whose symbol is not 0 (:func:`naive_symbol_is_zero`), strict, weak
    or not parabolic alike, without unsafe_order.  It searches the pure-u
    columns where the quartic form is 0 (:func:`takes_pure_u_route`), and
    returns no law with no search where it is not."""
    return eq.G.is_polynomial and not spec.unsafe_order and not naive_symbol_is_zero(eq)


def plan_route_spec(eq: EvolutionEquation, spec: AnsatzSpec) -> AnsatzSpec:
    """Bounds at which the search of eq takes the plan route: where it
    would answer with no plan (:func:`takes_no_plan`), the same bounds with
    unsafe_order, which search every kept column of the same plan, so
    give the same laws (``max_jet_order`` is at most 2); otherwise spec."""
    if takes_no_plan(eq, spec):
        return AnsatzSpec(spec.max_jet_order, spec.jet_degree, spec.base_degree, True)
    return spec


def suite_time_linearity(cases: int = 12, seed: int = 139) -> dict:
    """E_u(t^b m) = t^b E_u(m), and the assembly's l_Q(d G) + sum_L A_L D_L Q
    is built once per t-free monomial m of the columns t^b m, as S_m of
    Q = E_u(m), with d dQ/dt = d b t^(b-1) E_u(m): on equations whose G holds an
    explicit t, at base degrees 2 and 3, :func:`_compare_column_route`
    finds the columns, the key -> row mapping, the null space and the
    laws of the tagged route, or the same refusal.  The equations are
    u_xx + t u_xx^2 + t u (strict, with the quartic form 2 t xi^4, so
    answered with no plan), t u_11 + u_22 + t^2 u_1, a
    :func:`rational_corpus` entry times (1 + t), the same over 1 + t^2 (a
    rational G, refused), all with force, and ``cases`` seeded random
    G = a u_ii + t p, p a polynomial in t, x and the jets of order <= 1,
    with force, except that every fourth has a < 0 and no force, so it is
    refused as not parabolic; those whose symbol is not 0 are searched
    with unsafe_order (:func:`plan_route_spec`).  The full
    ansatz of each polynomial G is also assembled with its columns in
    reverse order, which must give the same key -> row mapping: S_m does
    not depend on which column meets m first.
    Returns the counts of :func:`_compare_column_route`."""
    rng = random.Random(seed)
    tt = Expr.symbol(TIME)
    name, rational = rational_corpus()[3]  # burgers (2/3 G + u_1/6)
    equations = [
        ("u_xx + t u_xx^2 + t u", 1, uxx + tt * uxx ** 2 + tt * u),
        ("t u_11 + u_22 + t^2 u_1", 2, tt * u11 + u22 + tt ** 2 * u1),
        (f"{name} times (1 + t)", 1, rational.G * (1 + tt)),
        (f"{name} times (1 + t) over 1 + t^2", 1, rational.G * (1 + tt) / (1 + tt ** 2)),
    ]
    for k in range(cases):
        n = 1 + k % 2
        a = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * (-1 if k % 4 == 3 else 1)
        G = a * jet(*[rng.randint(1, n)] * 2)
        G = G + tt * random_poly(rng, random_spatial_symbols(n, 1), terms=2, coeff=3) \
            * Fraction(1, rng.randint(1, 3))
        equations.append((f"u_t = {G}", n, G))
    counts = dict.fromkeys(ROUTE_COUNTS, 0)
    for k, (name, n, G) in enumerate(equations):
        eq = EvolutionEquation(n, G)
        for base_degree in (2, 3):
            spec = AnsatzSpec(2, 1 if n == 2 else 2 - base_degree % 2, base_degree)
            force = k < 4 or (k - 4) % 4 != 3
            _compare_column_route(f"{name} at {spec}", eq, spec, force, counts)
            if G.is_polynomial:
                densities = generate_ansatz(eq.n, spec)[0]
                forward = assemble_determining_system(eq, densities)
                backward = assemble_determining_system(eq, densities[::-1])
                flipped = [{len(densities) - 1 - c: v for c, v in row.items()}
                           for row in backward.rows]
                assert dict(zip(forward.keys, forward.rows)) \
                    == dict(zip(backward.keys, flipped)), name
    return counts


def golden_ansatz_specs() -> list[AnsatzSpec]:
    """GOLDEN_SPECS as AnsatzSpecs, None as the default bounds."""
    return [AnsatzSpec(*spec) if spec else AnsatzSpec() for spec in GOLDEN_SPECS]


def t_free(densities: list[dict]) -> set:
    """The t-free monomials m of the one-term density columns {t^b m: 1}."""
    return {mono_encode((s, e) for s, e in mono_decode(m) if s != TIME) for (m,) in densities}


def suite_returned_columns_are_fresh() -> int:
    """generate_ansatz returns a new dict for every column, and the search
    keeps nothing of what it returned: emptying every density and every
    characteristic it returned and putting a constant in each
    characteristic changes no later search.  Each corpus entry at the
    golden specs, searched on the plan (:func:`plan_route_spec`), gives the
    outcome it gave before the mutation.  Returns the number of searches
    compared."""
    done = 0
    for entry in CORPUS:
        eq = entry.equation()
        for spec in golden_ansatz_specs():
            spec = plan_route_spec(eq, spec)
            want = _search_outcome(find_conservation_laws, eq, spec, False)
            densities, characteristics = generate_ansatz(eq.n, spec)
            columns = densities + characteristics
            assert len({id(column) for column in columns}) == len(columns), entry.name
            for column in columns:
                column.clear()
            for Q in characteristics:
                Q[()] = 1
            assert _search_outcome(find_conservation_laws, eq, spec, False) == want, \
                f"a mutated column changed the search on {entry.name} at {spec}"
            done += 1
    return done


def planted_rows(rng: random.Random, nrows: int, ncols: int, entry) -> list[dict]:
    """Sparse rows over ncols columns with planted dependencies: zero rows,
    repeated rows, scaled rows and combinations of two or three earlier
    rows among fresh sparse ones; ``entry(rng)`` draws a nonzero entry."""
    rows: list[dict] = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.08:
            rows.append({})
        elif kind < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.3 and rows:
            f = entry(rng)
            rows.append({c: f * v for c, v in rng.choice(rows).items()})
        elif kind < 0.5 and len(rows) >= 3:
            combo: dict = {}
            for row in rng.sample(rows, rng.randint(2, 3)):
                f = entry(rng)
                for c, v in row.items():
                    combo[c] = combo.get(c, 0) + f * v
            rows.append({c: v for c, v in combo.items() if v})
        else:
            density = rng.choice([0.05, 0.15, 0.4])
            rows.append({c: entry(rng) for c in rng.sample(range(ncols), ncols)
                         if rng.random() < density})
    return rows


def _entry_draws() -> dict:
    """Seeded draws of a nonzero ``int``, ``Fraction`` or either entry."""
    draws = {
        "int": lambda rng: rng.choice([-1, 1]) * rng.randint(1, 9),
        "fraction": lambda rng: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                         rng.randint(1, 6)),
    }
    draws["mixed"] = lambda rng: draws[rng.choice(["int", "fraction"])](rng)
    return draws


def suite_rank_echelon_equivalence(cases: int = 120, seed: int = 149) -> dict:
    """linalg.Echelon answers as :class:`ReferenceEchelon`, row by row, and
    leaves its input as it was; both end at the same rank and the same
    reduced rows, and agree on the reduced rows read in the middle of a
    run, before more rows are added.  On ``cases`` seeded sparse matrices
    (:func:`planted_rows`, up to 60 rows and 40 columns) with ``int``,
    ``Fraction`` and mixed entries, every third one over string keys, and
    on the pivot pass over the characteristic columns of every corpus
    equation at the default bounds and at 2/2/1.  Returns the number of
    rows added, of those kept, and of reads in the middle of a run."""
    draws = _entry_draws()
    rng = random.Random(seed)
    matrices = []
    for k in range(cases):
        kind = ("int", "fraction", "mixed")[k % 3]
        rows = planted_rows(rng, rng.randint(1, 60), rng.randint(1, 40), draws[kind])
        if k % 3 == 1:
            rows = [{f"c{c:03d}": v for c, v in row.items()} for row in rows]
        matrices.append((f"{kind} case {k}", rows))
    for entry in CORPUS:
        for spec in (AnsatzSpec(), AnsatzSpec(2, 2, 1)):
            matrices.append((f"{entry.name} at {spec}",
                             generate_ansatz(entry.equation().n, spec)[1]))
    counts = {"rows": 0, "kept": 0, "reads": 0}
    for where, rows in matrices:
        echelon, reference = linalg.Echelon(), ReferenceEchelon()
        reads = set(rng.sample(range(len(rows)), min(len(rows), rng.randint(0, 3))))
        for k, row in enumerate(rows):
            before = dict(row)
            got = echelon.add(row)
            assert got is reference.add(row), where
            assert row == before, where
            counts["rows"] += 1
            counts["kept"] += got
            if k in reads:
                assert echelon.rows == reference.rows, f"{where}, after row {k}"
                counts["reads"] += 1
        assert echelon.rank == reference.rank, where
        assert echelon.rows == reference.rows, where
    return counts


def suite_nullspace_equivalence(cases: int = 150, seed: int = 163) -> dict:
    """linalg.nullspace returns the vectors of :func:`reference_nullspace`,
    in the same order, with ``Fraction`` entries of denominator 1: on
    ``cases`` seeded sparse systems (:func:`planted_rows` with ``int``,
    ``Fraction`` and mixed entries over a random subset of the columns, so
    that some columns are empty, and every fifth one square or tall with
    dense rows, mostly of full rank), and on solve_exact of the law search
    over every corpus equation at the default bounds and at 2/2/1 and of
    heat_2d at 2/2/2.  Returns the number of systems, of those with an
    empty column and of full rank, and of vectors compared."""
    draws = _entry_draws()
    rng = random.Random(seed)
    counts = {"systems": 0, "empty_column": 0, "full_rank": 0, "vectors": 0}

    def compare(where: str, got: list[dict], rows: list[dict], ncols: int) -> None:
        expected = reference_nullspace(rows, ncols)
        assert got == expected, where
        assert all(type(v) is Fraction and v.denominator == 1
                   for vec in got for v in vec.values()), where
        used = {c for row in rows for c in row}
        counts["systems"] += 1
        counts["empty_column"] += len(used) < ncols
        counts["full_rank"] += not expected
        counts["vectors"] += len(got)

    for k in range(cases):
        entry = draws[("int", "fraction", "mixed")[k % 3]]
        ncols = rng.randint(1, 40)
        if k % 5 == 0:
            rows = [{c: entry(rng) for c in range(ncols) if rng.random() < 0.7}
                    for _ in range(ncols + rng.randint(0, 4))]
        else:
            columns = rng.sample(range(ncols), rng.randint(1, ncols))
            rows = [{columns[c]: v for c, v in row.items()} for row in planted_rows(
                rng, rng.randint(0, 50), len(columns), entry)]
        compare(f"case {k}", linalg.nullspace(rows, ncols), rows, ncols)
    searches = [(entry.name, entry.equation(), spec) for entry in CORPUS
                for spec in (AnsatzSpec(), AnsatzSpec(2, 2, 1))]
    heat_2d = next(entry for entry in CORPUS if entry.name == "heat_2d")
    searches.append(("heat_2d", heat_2d.equation(), AnsatzSpec(2, 2, 2)))
    for name, eq, spec in searches:
        densities, characteristics = generate_ansatz(eq.n, spec)
        pivots = ReferenceEchelon()
        system = assemble_determining_system(
            eq, [T for T, Q in zip(densities, characteristics) if pivots.add(Q)])
        compare(f"{name} at {spec}", solve_exact(system), system.rows, system.ncols)
    return counts


def suite_linear_extraction(cases: int = 100, seed: int = 31) -> int:
    """For every null vector v of the system over every column, trivial ones
    included, over the corpus at the default bounds and over seeded
    randomized bounds: the characteristic combined from the columns
    E_u(m_k) is E_u(T_v), and the density combined from the columns m_k is
    the tagged ansatz with v substituted, T_v.  Returns the number of
    vectors checked."""
    rng = random.Random(seed)
    problems = [(entry, AnsatzSpec()) for entry in CORPUS]
    for _ in range(cases):
        entry = rng.choice(CORPUS)
        problems.append((entry, corpus_specs(rng, entry.equation().n)))
    checked = 0
    for entry, spec in problems:
        eq = entry.equation()
        densities, characteristics = generate_ansatz(eq.n, spec)
        T_ansatz = tagged(densities)
        system = assemble_determining_system(eq, densities)
        for vec in solve_exact(system):
            T = T_ansatz.substitute({tag(k): vec.get(k, 0) for k in range(len(densities))})
            assert combine(densities, vec) == T, f"density differs on {entry.name}"
            assert combine(characteristics, vec) == euler_operator(T), \
                f"characteristic differs on {entry.name}: T = {T}"
            checked += 1
    return checked


def suite_cross_validation() -> int:
    """cross_validate_ma raises on no equation of the corpus."""
    checked = 0
    for entry in CORPUS:
        eq = entry.equation()
        spec = AnsatzSpec(max_jet_order=2, jet_degree=1,
                          base_degree=2 if eq.n == 1 else 1)
        laws = find_conservation_laws(eq, spec)
        cross_validate_ma(eq, laws)  # raises InvariantViolation on a violation
        checked += 1
    assert checked >= 10
    return checked


def searched_claws_output(pf: ProblemFile, spec: AnsatzSpec, symbolic: bool = False) -> str:
    """What ``paraclaw claws`` prints for a request that ends in a report:
    the classified report, the laws of find_conservation_laws
    cross-checked against the pointwise verdict, as JSON."""
    eq, report, ma = cli._classified(pf, symbolic, False)
    laws = find_conservation_laws(eq, spec, force=True)
    cross_validate_ma(eq, laws, None if symbolic else ma)
    report["laws"] = [cli._law_section(law, eq.n) for law in laws]
    return json.dumps(report, indent=2) + "\n"


def corollary_decides(eq: EvolutionEquation, symbolic: bool = False) -> bool:
    """A strictly parabolic polynomial G whose Monge-Ampere verdict excludes
    every nontrivial law (naming the verdict as the README does)."""
    ma = ma_classify(eq, symbolic)
    verdict = ma.n1_affine if eq.n == 1 else ma.residue_vanishes
    return (eq.G.is_polynomial and verdict is False
            and parabolicity_check(eq) is Parabolicity.STRICT)


def random_non_ma_problems(draws: int = 150, seed: int = 39) -> list[tuple[str, AnsatzSpec]]:
    """Seeded random problem files u_t = sum_i a_i u_ii + P + R, with P a
    random polynomial in the second-order jets (so most G are not affine in
    them), R one in the base coordinates and jets of order <= 1, and random
    rational reference values for some jets of G, for n = 1, 2, 3 in turn;
    kept when the corollary decides them, each with bounds up to 2/3/2
    (n = 1), 2/2/2 (n = 2) or 2/2/1 (n = 3)."""
    rng = random.Random(seed)
    kept = []
    for k in range(draws):
        n = k % 3 + 1
        second = [s for s in spatial_jet_vars(n, 2) if s.order == 2]
        G = sum((rng.randint(1, 3) * Expr.symbol(s) for s in second
                 if len(set(s.spatial)) == 1), ZERO)
        G = G + random_poly(rng, second, terms=2) \
            + random_poly(rng, random_spatial_symbols(n, 1), terms=2, max_exp=1)
        jets = sorted(s for s in G.symbols() if s.kind == JET)
        refs = "".join(f"; ref {expr_to_source(Expr.symbol(s), n)} = "
                       f"{Fraction(rng.randint(-2, 2), rng.randint(1, 3))}"
                       for s in rng.sample(jets, rng.randint(0, len(jets))))
        source = f"n={n}; u_t = {expr_to_source(G, n)}{refs}"
        if not corollary_decides(parse(source).equation()):
            continue
        spec = AnsatzSpec(2, rng.randint(1, 3 if n == 1 else 2),
                          rng.randint(0, 2 if n < 3 else 1))
        kept.append((source, spec))
    return kept


def benchmark_non_ma_problems() -> list[tuple[str, AnsatzSpec]]:
    """The claws requests of the wide-ansatz benchmark workload at seeds 1,
    2 and 1000003, passes 0-2, that the corollary decides, as (problem
    source, bounds)."""
    problems = perfbench_problems()
    kept = []
    for seed in (1, 2, 1000003):
        for pass_index in (0, 1, 2):
            for req in problems.generate("wide-ansatz", seed, pass_index):
                if corollary_decides(parse(req["source"]).equation()):
                    flags = dict(zip(req["args"][::2], map(int, req["args"][1::2])))
                    kept.append((req["source"], AnsatzSpec(
                        flags["--order"], flags["--jet-degree"], flags["--base-degree"])))
    return kept


def suite_corollary_routes_agree(problems: list[tuple[str, AnsatzSpec]]) -> int:
    """On each (problem source, bounds) the corollary decides, the search
    over every kept column of the plan (``claws._laws_of_columns``, the
    route that does not read the quartic form) finds no law, and
    ``paraclaw claws``, with every search stage refused (:func:`no_search`),
    prints the report of :func:`searched_claws_output`, with exit 0 and no
    stderr.  Returns the number of problems."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.pde")
        for source, spec in problems:
            pf = parse(source)
            eq = pf.equation()
            assert corollary_decides(eq), source
            assert claws._laws_of_columns(eq, *claws._plan(eq.n, spec)) == [], source
            want = searched_claws_output(pf, spec)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
            argv = ["claws", path, "--order", str(spec.max_jet_order),
                    "--jet-degree", str(spec.jet_degree),
                    "--base-degree", str(spec.base_degree)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with no_search(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            assert (code, stdout.getvalue(), stderr.getvalue()) == (0, want, ""), source
    return len(problems)


# ---------------------------------------------------------------------------
# Problem-file parsing: the reference route.  The expression half of the
# grammar with an Expr for every atom and full Expr arithmetic at every
# operator, and the lexer as a character loop, kept to check the raw-term
# parser and the regex lexer of paraclaw.grammar
# ---------------------------------------------------------------------------

def reference_tokenize(source: str) -> list[tuple]:
    """grammar._tokenize, one character at a time, each token with its line
    and column in place of its offset."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        for kind, first, rest in (("num", string.digits, string.digits),
                                  ("name", string.ascii_letters,
                                   string.ascii_letters + string.digits + "_")):
            if ch in first:
                j = i + 1
                while j < len(source) and source[j] in rest:
                    j += 1
                tokens.append((kind, source[i:j], line, start_col))
                col += j - i
                i = j
                break
        else:
            if ch not in "+-*/^()=;":
                raise ParseError(f"unexpected character {ch!r}", line, col)
            tokens.append((ch, ch, line, start_col))
            i += 1
            col += 1
    tokens.append(("end", "", line, col))
    return tokens


class ReferenceParser(_Parser):
    """grammar._Parser with the reference lexer, whose tokens carry their line
    and column, and the Expr route for every expression production; files,
    options and names are the grammar's.
    Every "+", "-", "*", "/" and "^" builds its Expr, each product of a
    power in turn, and the digit-limit rule checks it at that operator."""

    def __init__(self, source: str, n: int | None = None):
        self.tokens = reference_tokenize(source)
        self.pos = 0
        self.n = n
        self.depth = 0
        self.work = 0

    def fail(self, message: str, tok: tuple, expected: tuple[str, ...] = (),
             error: type = ParseError):
        raise error(message, tok[2], tok[3], expected) from None

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self) -> Expr:
        acc = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            acc = acc + rhs if op[0] == "+" else acc - rhs
            self.check("sum", op, acc)
        return acc

    def parse_term(self) -> Expr:
        acc = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            rhs = self.parse_unary()
            if op[0] == "*":
                self.charge_products(op, (acc.num, rhs.num), (acc.den, rhs.den))
                acc = acc * rhs
                self.check("product", op, acc)
            else:
                if rhs.is_zero:
                    raise ParseError("division by zero", op[2], op[3])
                self.charge_products(op, (acc.num, rhs.den), (acc.den, rhs.num))
                acc = acc / rhs
                self.check("quotient", op, acc)
        return acc

    def charge_products(self, op: tuple, *products) -> None:
        self.charge(op, sum(len(p.terms) * len(q.terms) for p, q in products))

    def check(self, what: str, op: tuple, value: Expr) -> None:
        if _too_long(value):
            self.too_long(what, op)

    def parse_unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return -self.parse_factor()
        return self.parse_factor()

    def parse_factor(self) -> Expr:
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            op = self.advance()
            k = self.number(self.expect("num"))
            num, den = (atom.num, atom.den) if k else (Poly.one(), Poly.one())
            for _ in range(k - 1):
                if atom.symbols():  # a constant's power is not charged
                    self.charge_products(op, (num, atom.num), (den, atom.den))
                num, den = num * atom.num, den * atom.den
                self.check("power", op, Expr(num, den, _raw=True))
            return Expr(num, den, _raw=True)
        return atom

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return Expr.const(self.number(tok))
        if tok[0] == "name":
            self.advance()
            return Expr.symbol(self.symbol_from_name(tok))
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok[2], tok[3])
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {tok[1] or 'end of input'!r}",
                         tok[2], tok[3], ("RATIONAL", "ident", "("))


# whitespace between tokens: str.isspace() characters, "\n" the only line break
_SPACES = ("", "", "", " ", "  ", "\t", "\n", " \n\t", "\r\n", "\x0b", " ",
           " ", "　")
# one-character mutations: the grammar's characters, whitespace, and
# non-ASCII digits and letters, which are not digits or names
_MUTATIONS = "0123456789+-*/^()=;_ \t\nuxtnr" + "²١１é "


def _source_names(n: int) -> list[str]:
    if n == 1:
        return ["t", "x", "u", "u_x", "u_xx"]
    return (["t", "u"] + [f"x{i}" for i in range(1, n + 1)]
            + [f"u_{i}" for i in range(1, n + 1)]
            + [f"u_{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)])


def random_expression_source(rng: random.Random, n: int, rational: bool) -> str:
    """A seeded random expression in the file grammar: integer, long and p/q
    literals, ^0 and ^k, unary minus, nested parentheses and division by
    constants, with random whitespace; with ``rational``, also division by
    monomials and polynomials."""
    names = _source_names(n)

    def ws() -> str:
        return rng.choice(_SPACES)

    def atom(depth: int) -> str:
        r = rng.random()
        if depth < 2 and r < 0.2:
            return "(" + ws() + expr(depth + 1) + ws() + ")"
        if r < 0.24:
            return str(rng.randrange(10 ** 19, 10 ** 24))
        if r < 0.45:
            return str(rng.randint(0, 9))
        if r < 0.5:
            return f"{rng.randint(1, 9)}{ws()}/{ws()}{rng.randint(1, 9)}"
        return rng.choice(names)

    def factor(depth: int) -> str:
        out = atom(depth)
        if rng.random() < 0.2:
            out += ws() + "^" + ws() + str(rng.choice((0, 1, 2, 3)))
        return out

    def unary(depth: int) -> str:
        return ("-" + ws() if rng.random() < 0.2 else "") + factor(depth)

    def term(depth: int) -> str:
        out = unary(depth)
        for _ in range(rng.randint(0, 2)):
            r = rng.random()
            if r < 0.65 or (r >= 0.85 and not rational):
                out += ws() + "*" + ws() + unary(depth)
            elif r < 0.85:
                k = rng.randint(1, 12)
                out += ws() + "/" + ws() + rng.choice((str(k), f"(-{k})", f"({k}/7)"))
            elif r < 0.93:
                out += ws() + "/" + ws() + rng.choice(names)
            else:  # a polynomial (or zero) divisor with no parentheses inside
                out += ws() + "/" + ws() + "(" + expr(2) + ")"
        return out

    def expr(depth: int) -> str:
        out = term(depth)
        for _ in range(rng.randint(0, 3 - depth)):
            out += ws() + rng.choice("+-") + ws() + term(depth)
        return out

    return expr(0)


def _parse_outcome(parser_class, text: str, n: int | None) -> tuple:
    """The text read as grammar.parse reads it (n None) or as
    grammar.parse_expression does: ("ok", the ProblemFile or Expr, the term
    pairs charged) or (error class, message, line, column)."""
    try:
        p = parser_class(text, n)
        if n is None:
            value = p.parse_file()
        else:
            value = _as_expr(p.parse_expr())
            p.expect("end")
    except ParseError as exc:
        return (type(exc), str(exc), exc.line, exc.col)
    return ("ok", value, p.work)


# A mutation that turns a digit of a literal into "^" can leave a power with
# a five-digit exponent or more.  The reference route multiplies it out one
# product at a time up to the budget, with coefficients that grow each
# time: about a second per input.  Such mutations are not checked; the
# budget draws below test exponents at the edge of the budget.
_HUGE_POWER = re.compile(r"\^\s*[0-9]{5}")


@contextlib.contextmanager
def _counting_poly_products():
    """Count the term pairs that Poly products multiply, in a one-item list."""
    multiplied = [0]
    real = Poly.__mul__

    def counting(p: Poly, q: Poly) -> Poly:
        multiplied[0] += len(p.terms) * len(q.terms)
        return real(p, q)

    Poly.__mul__ = counting
    try:
        yield multiplied
    finally:
        Poly.__mul__ = real


def _budget_source(rng: random.Random) -> str:
    """An expression (n = 2) whose products or nesting may pass MAX_TERMS or
    MAX_NESTING."""
    names = _source_names(2)

    def poly() -> str:
        return "(" + " + ".join(rng.sample(names, rng.randint(2, 6))) + ")"

    kind = rng.randrange(4)
    if kind == 0:  # one power
        return f"{rng.choice(('', '0*', '3/7*', '1/'))}{poly()}^{rng.randint(6, 40)}"
    if kind == 1:  # a chain of products and powers
        out = rng.choice(("", "0*", "-")) + poly()
        for _ in range(rng.randint(3, 12)):
            out += "*" + poly() + f"^{rng.randint(1, 4)}"
        return out
    if kind == 2:  # a single-term power at the edge of the budget
        base = rng.choice(names + ["0", "(0)", "2", "(3/4)"])
        # each product pairs the numerators' one term and the denominators'
        # one term; a constant base is not charged, so its power parses or
        # meets the digit limit
        edge = MAX_TERMS if "0" in base else MAX_TERMS // 2
        return f"{base}^{rng.randint(edge - 2, edge + 3)}"
    depth = rng.randint(MAX_NESTING - 2, MAX_NESTING + 2)
    return "".join(rng.choice(("(", "-(", "2*(")) for _ in range(depth)) \
        + rng.choice(names) + ")" * depth


def _near_limit_source(rng: random.Random, limit: int) -> str:
    """An expression (n = 1) of number literals at or near the digit limit
    and their powers, whose products, quotients, sums and powers may pass
    it; some quotients are by polynomials."""
    half = limit // 2

    def literal() -> str:
        r = rng.random()
        if r < 0.2:
            return f"10^{rng.choice((half - 1, half, half + 1, limit - 1))}"
        if r < 0.3:
            return rng.choice("123456789") * rng.randint(limit - 2, limit)
        if r < 0.4:
            return f"(1/10^{rng.choice((half, half + 1))})"
        return rng.choice(("1", "2", "3", "(1/3)", "(-2)"))

    def factor(depth: int) -> str:
        r = rng.random()
        if depth < 2 and r < 0.25:
            out = "(" + expr(depth + 1) + ")"
        elif r < 0.65:
            out = literal()
        else:
            out = rng.choice(("u", "u_x", "x", "(u + 1)", "(u_x - x)"))
        return f"({out})^{rng.randint(2, 3)}" if rng.random() < 0.1 else out

    def term(depth: int) -> str:
        out = factor(depth)
        for _ in range(rng.randint(1, 3)):
            op = rng.choice("**/")
            out += op + (literal() if op == "/" and rng.random() < 0.6 else factor(depth))
        return out

    def expr(depth: int) -> str:
        out = term(depth)
        for _ in range(rng.randint(0, 2)):
            out += rng.choice((" + ", " - ")) + term(depth)
        return out

    return expr(0)


def suite_parse_equivalence(cases: int = 300, seed: int = 73) -> dict:
    """The grammar's parser against the reference route on seeded inputs:
    random valid expressions (bare, n = 1..3, and as problem files),
    truncations and one-character mutations of them, and inputs that pass
    the parse budget or the nesting limit, or come near it.  Each pair of
    outcomes must be equal: the same Expr or ProblemFile and the same term
    pairs charged, or the same ParseError class, message, line and column.
    The last draws, at the least digit limit Python allows, hold literals
    near it, so the digit-limit rule refuses some at an operator.  On
    inputs with no rational sum, the grammar's parser multiplies no more
    term pairs than it charged (than MAX_TERMS, when it refuses the input).
    Returns the draw counts."""
    rng = random.Random(seed)
    counts = {"valid": 0, "parsed": 0, "malformed": 0, "malformed_errors": 0,
              "budget": 0, "past_max_terms": 0, "past_max_nesting": 0,
              "near_limit": 0, "past_limit": 0}

    def check(text: str, n: int | None, polynomial: bool = False) -> tuple:
        with _counting_poly_products() as multiplied:
            got = _parse_outcome(_Parser, text, n)
        if polynomial:  # no rational sum, whose products go uncharged
            assert multiplied[0] <= (got[2] if got[0] == "ok" else MAX_TERMS), text
        want = _parse_outcome(ReferenceParser, text, n)
        assert got == want, f"{text!r}: {got} != {want}"
        if got[0] == "ok":
            assert (parse(text) if n is None else parse_expression(text, n)) == got[1]
        return got

    for _ in range(cases):
        n = rng.randint(1, 3)
        rational = rng.random() < 0.3
        text = random_expression_source(rng, n, rational)
        if rng.random() < 0.5:
            text, n = f"n{rng.choice(_SPACES)}={n};{rng.choice(_SPACES)}u_t = {text}", None
            if rng.random() < 0.3:
                text += "; ref u = 1/2; jet_degree = 2"
        counts["valid"] += 1
        counts["parsed"] += check(text, n, not rational)[0] == "ok"
        for _ in range(2):
            k = rng.randrange(len(text) + 1)
            edit = rng.randrange(4)
            if edit == 0:
                bad = text[:k]
            elif edit == 1:
                bad = text[:k] + rng.choice(_MUTATIONS) + text[k:]
            elif edit == 2:
                bad = text[:k] + rng.choice(_MUTATIONS) + text[k + 1:]
            else:
                bad = text[:k] + text[k + 1:]
            if _HUGE_POWER.search(bad):
                continue
            counts["malformed"] += 1
            counts["malformed_errors"] += check(bad, n)[0] != "ok"
    for _ in range(cases // 10):
        outcome = check(_budget_source(rng), 2, polynomial=True)
        counts["budget"] += 1
        if outcome[0] != "ok":
            counts["past_max_terms"] += "MAX_TERMS" in outcome[1]
            counts["past_max_nesting"] += "nested deeper" in outcome[1]
    old_limit = sys.get_int_max_str_digits()
    limit = sys.int_info.str_digits_check_threshold  # the least limit allowed
    sys.set_int_max_str_digits(limit)
    try:
        for _ in range(cases // 3):
            outcome = check(_near_limit_source(rng, limit), 1)
            counts["near_limit"] += 1
            counts["past_limit"] += outcome[0] != "ok" and f"longer than {limit}" in outcome[1]
    finally:
        sys.set_int_max_str_digits(old_limit)
    return counts


# ---------------------------------------------------------------------------
# Command-line arguments: the reader against argparse
# ---------------------------------------------------------------------------

def reference_arg_parser() -> argparse.ArgumentParser:
    """The argparse parser that read the command line before cli's own
    reader, kept as the reference for it."""
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


def argv_outcome(read, argv: list[str]) -> tuple:
    """("args", the options by destination) or ("exit", code, stdout,
    stderr) for one reading of argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = read(list(argv))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())
    return ("args", args)


_INT_VALUES = ("0", "1", "2", "7", "12", "-1", "-3", "+2", " 4", "5 ", "007", "-02",
               "1_0", "٣")
_STR_VALUES = ("u", "0", "u_x", "-", "", "x*u + 1", "=u", "a=b", "u_xx/2")
_DASH_VALUES = ("-u_x", "-1/2*u", "--flux", "-x", "-u + 1", "-3")
_FILES = ("p.pde", "-", "dir/x y.pde", "")
# arguments that no command reads where they stand: a second file, a dims
# positional, unknown options and "--" away from the file
_STRAYS = ("q.pde", "r.pde", "-", "--bogus", "-x", "--jsonx", "-q=1", "--")


def _unique_prefixes(options) -> dict:
    """Each long option's shortest prefix that names it alone."""
    out = {}
    for opt in options:
        if opt.startswith("--"):
            k = 3
            while sum(o.startswith(opt[:k]) for o in options) > 1:
                k += 1
            out[opt] = opt[:k]
    return out


def random_argv(rng: random.Random, command: str, dash: bool = False,
                omit: str | None = None, strays: int = 0) -> tuple:
    """A valid argv for command drawn from cli's option table: the file
    and options in random order, each option spelled in full, as a unique
    prefix or (short) with its value attached, its value after a space or
    an "=", options repeated, padded and signed ints, and "--" before or
    after the file.  With dash, one value after a space starts with "-";
    omit names an option, or "file", left out; strays adds that many
    arguments drawn from _STRAYS, each where an option could stand.
    Returns (argv, the same argv with every value after a space joined to
    its option by "=", the forms drawn)."""
    _, takes_file, options, _, required = cli._COMMANDS[command]
    prefixes = _unique_prefixes(options)
    forms = set()
    items = []  # (tokens, joined tokens)
    for opt, (dest, convert, third, _) in options.items():
        if dest in ("help", "as_json") or opt == omit:
            continue
        times = rng.choice((0, 1, 1, 2, 3)) if opt not in required else rng.randint(1, 3)
        for _ in range(times):
            name = opt
            if opt in prefixes and rng.random() < 0.4:
                name = rng.choice((prefixes[opt], opt[:rng.randint(len(prefixes[opt]),
                                                                    len(opt))]))
                forms.add("prefix")
            if convert is None:
                items.append(([name], [name]))
                continue
            value = rng.choice(_INT_VALUES if convert is int else _STR_VALUES)
            if value[:1] == "-" and value != "-":
                forms.add("negative")
            form = rng.choice(("space", "space", "equals")
                              + (() if opt.startswith("--") else ("attached",)))
            forms.add(form)
            if form == "space":
                items.append(([name, value], [f"{name}={value}"]))
            else:
                items.append(([f"{name}={value}" if form == "equals" else name + value],) * 2)
        if times > 1:
            forms.add("repeat")
    if dash:
        value_options = [(o, spec) for o, spec in options.items() if spec[1] is not None]
        opt, (_, convert, _, _) = rng.choice(value_options)
        value = rng.choice(_DASH_VALUES if convert is str else ("-3", "-3_0", "-0"))
        items.append(([opt, value], [f"{opt}={value}"]))
    items += [([rng.choice(_STRAYS)],) * 2 for _ in range(strays)]
    switch = rng.choice(("", "", "--json", "--text"))
    if switch:
        items += [([switch], [switch])] * rng.randint(1, 2)
    rng.shuffle(items)
    if takes_file and omit != "file":
        file = rng.choice(_FILES)
        where = rng.randrange(4)
        if where == 0:
            forms.add("dashes")
            items.append((["--", file],) * 2)
        elif where == 1:
            forms.add("dashes")
            items.append(([file, "--"],) * 2)
        else:
            items.insert(rng.randint(0, len(items)), ([file],) * 2)
    argv = [command] + [tok for toks, _ in items for tok in toks]
    joined = [command] + [tok for _, toks in items for tok in toks]
    return argv, joined, forms


def malformed_argv(rng: random.Random, kind: str) -> list[str]:
    """An argv with one usage error of the given kind, built on a valid
    one: an unknown or ambiguous option, a missing value, a missing
    required option or file, a bad int, --json with --text, a second file,
    or no command."""
    command = rng.choice({"ambiguous": ("claws",), "bad_int": ("claws", "dims"),
                          "missing_value": ("claws", "verify", "dims")}
                         .get(kind, tuple(cli._COMMANDS)))
    _, takes_file, options, _, required = cli._COMMANDS[command]
    if kind == "missing_required":
        return random_argv(rng, command, omit=rng.choice(
            (("file",) if takes_file else ()) + required))[0]
    argv = [a for a in random_argv(rng, command)[0] if a != "--"]
    if kind == "unknown":
        argv.insert(rng.randint(1, len(argv)),
                    rng.choice(("--bogus", "-x", "--jsonx", "--symbolicx", "-q=1")))
    elif kind == "ambiguous":
        argv.insert(rng.randint(1, len(argv)), rng.choice(("--j", "--j=2", "--=2")))
    elif kind == "missing_value":
        argv.append(rng.choice([o for o, spec in options.items() if spec[1] is not None]))
    elif kind == "bad_int":
        opt = rng.choice([o for o, spec in options.items() if spec[1] is int])
        argv[1:1] = rng.choice(([opt, rng.choice(("x", "1.5", "", "3e2", "0x10"))],
                                [f"{opt}=" + rng.choice(("x", "", "2.0"))]))
    elif kind == "json_text":
        argv[1:1] = rng.sample(["--json", "--text"], 2)
    elif kind == "second_file":
        argv.insert(rng.randint(1, len(argv)), rng.choice(("q.pde", "-")))
    else:
        argv = rng.choice(([], ["--json"], ["classfy", "p.pde"], ["--", "classify", "p.pde"],
                           ["-x", "dims", "-n", "1"]))
    return argv


def values_joined(argv: list[str]) -> list[str]:
    """argv as cli's reader takes it: after the command and up to any
    "--", each option that takes a value, spelled in full or as the one
    long option (-h and --help among them) that starts with it, joined by
    "=" to the argument after it, whatever that starts with."""
    k = next((k for k, arg in enumerate(argv) if arg in cli._COMMANDS or arg == "--"),
             len(argv))
    if argv[k:k + 1] in ([], ["--"]):
        return list(argv)
    options = cli._COMMANDS[argv[k]][2]
    names = [*options, "-h", "--help"]
    out, rest = argv[:k + 1], iter(argv[k + 1:])
    for arg in rest:
        if arg == "--":
            return out + [arg, *rest]
        hits = [name for name in names if name == arg] or \
            [name for name in names if arg.startswith("--") and name.startswith(arg)]
        if len(hits) == 1 and options.get(hits[0], (None, None))[1] is not None:
            value = next(rest, None)
            arg = arg if value is None else f"{arg}={value}"
        out.append(arg)
    return out


def suite_argv_equivalence(cases: int = 300, seed: int = 151) -> dict:
    """cli's argument reader against argparse with the reference parser,
    on seeded argvs drawn per command from the option table, on malformed
    ones with one usage error each, and on valid ones with one to three
    strays (a second or third file, a dims positional, an unknown option,
    "--" away from the file; sometimes an unknown option before the
    command, or a required argument left out).  Both must accept the same
    argvs with equal values for every destination, and refuse the same
    ones with exit 2 and the same stderr, byte for byte.  The one
    exception is a value after a space that starts with "-": the reader
    takes it, where argparse refuses it unless it reads as a negative
    number or holds a space.  So on a valid draw with such a value the
    reader's values must equal both readers' on the argv with that value
    joined to its option by "=", and on a malformed or stray draw the
    reference reads the argv with every value joined to its option
    (:func:`values_joined`).  Returns the draw counts."""
    rng = random.Random(seed)
    ref = reference_arg_parser()
    read = cli._read_args

    def reference(argv):
        return vars(ref.parse_args(argv))

    counts = {"valid": 0, "dash": 0, "dash_refused_by_argparse": 0}
    for _ in range(cases):
        command = rng.choice(tuple(cli._COMMANDS))
        argv, joined, forms = random_argv(rng, command)
        got, want = argv_outcome(read, argv), argv_outcome(reference, argv)
        assert got[0] == "args" and got == want, f"{argv}: {got} != {want}"
        counts["valid"] += 1
        for form in forms:
            counts[form] = counts.get(form, 0) + 1
        argv, joined, _ = random_argv(rng, rng.choice(("claws", "verify", "dims")), dash=True)
        got = argv_outcome(read, argv)
        want = argv_outcome(reference, joined)
        assert got[0] == "args" and got == argv_outcome(read, joined) == want, \
            f"{argv}: {got} != {want}"
        plain = argv_outcome(reference, argv)
        assert plain == got or plain[:2] == ("exit", 2), f"{argv}: {plain}"
        counts["dash"] += 1
        counts["dash_refused_by_argparse"] += plain[0] == "exit"
    kinds = ("unknown", "ambiguous", "missing_value", "missing_required", "bad_int",
             "json_text", "second_file", "no_command")
    counts["unrecognized_reported"] = 0
    for _ in range(cases):
        kind = rng.choice(kinds)
        argv = malformed_argv(rng, kind)
        got, want = argv_outcome(read, argv), argv_outcome(reference, values_joined(argv))
        assert got[:3] == ("exit", 2, "") and got == want, f"{kind} {argv}: {got} != {want}"
        # counted as argparse reads the argv as given
        counts["unrecognized_reported"] += \
            "unrecognized arguments: " in argv_outcome(reference, argv)[3]
        counts[kind] = counts.get(kind, 0) + 1
    counts.update(strays=0, strays_read=0, strays_reported=0, strays_after_command_error=0)
    for _ in range(cases):
        command = rng.choice(tuple(cli._COMMANDS))
        _, takes_file, _, _, required = cli._COMMANDS[command]
        omit = rng.choice((None, None, None) + (("file",) if takes_file else ()) + required)
        argv = random_argv(rng, command, omit=omit, strays=rng.randint(1, 3))[0]
        if rng.random() < 0.2:
            argv.insert(0, rng.choice(("--bogus", "-x", "-q=1")))
        got, want = argv_outcome(read, argv), argv_outcome(reference, values_joined(argv))
        counts["strays"] += 1
        if want[0] == "args":  # "-" in place of the file, or "--" next to it
            assert got == want, f"{argv}: {got} != {want}"
            counts["strays_read"] += 1
            continue
        assert got[:3] == ("exit", 2, "") and got == want, f"{argv}: {got} != {want}"
        reported = "unrecognized arguments: " in want[3]
        counts["strays_reported"] += reported
        counts["strays_after_command_error"] += not reported
    return counts


# ---------------------------------------------------------------------------
# Golden corpus reports
# ---------------------------------------------------------------------------

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "claws_corpus.json")


def perfbench_problems():
    """The benchmark's problem generator, perfbench/problems.py, loaded from
    the checkout as a module."""
    import importlib.util
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "problems.py")
    spec = importlib.util.spec_from_file_location("perfbench_problems", path)
    problems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(problems)
    return problems

# (order, jet degree, base degree) flags; None runs with the default bounds.
GOLDEN_SPECS = (None, (2, 2, 1), (2, 3, 1), (2, 2, 2))


def claws_corpus_reports(spec_major: bool = False, entries=CORPUS,
                         specs=GOLDEN_SPECS) -> dict[str, dict]:
    """`paraclaw claws` on every corpus entry (or every one of ``entries``)
    under every golden spec (or every one of ``specs``), keyed
    "<entry> <order>/<jet degree>/<base degree>" ("default" for no flags):
    exit code, stdout (the JSON report) and stderr.  The requests run
    entry by entry, or spec by spec with ``spec_major``, in one process."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for entry in entries:
            paths[entry.name] = os.path.join(tmp, f"{entry.name}.pde")
            with open(paths[entry.name], "w", encoding="utf-8") as fh:
                fh.write(entry.source)
        requests = [(entry, spec) for entry in entries for spec in specs]
        if spec_major:
            requests.sort(key=lambda request: specs.index(request[1]))
        for entry, spec in requests:
            path = paths[entry.name]
            argv = ["claws", path]
            label = "default"
            if spec is not None:
                argv += ["--order", str(spec[0]), "--jet-degree", str(spec[1]),
                         "--base-degree", str(spec[2])]
                label = "/".join(map(str, spec))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            out[f"{entry.name} {label}"] = {
                "exit": code, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue().replace(path, "<file>")}
    return out


def write_claws_golden() -> None:
    """Record the golden reports; run once, from the commit whose reports
    are the reference:
    ``PYTHONPATH=src:tests python -c "import util; util.write_claws_golden()"``."""
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(claws_corpus_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")


# The equations whose symbol is 0 (G of order 1), which the search answers
# on the plan, and whose laws have characteristics that hold u or a jet
ZERO_SYMBOL_CORPUS = (
    CorpusEntry("zero_convection", "n=1; u_t = u*u_x"),
    CorpusEntry("transport", "n=1; u_t = u_x"),
    CorpusEntry("zero_convection_2d", "n=2; u_t = u_1 + u*u_2"),
    CorpusEntry("transport_2d", "n=2; u_t = u_1"),
)
ZERO_SYMBOL_SPECS = GOLDEN_SPECS + ((2, 4, 3),)
ZERO_SYMBOL_PATH = os.path.join(os.path.dirname(__file__), "zero_symbol_claws.json")


def zero_symbol_pins(reports: dict[str, dict]) -> dict[str, dict]:
    """The pin of each :func:`claws_corpus_reports` record: its exit code,
    stderr, law count and the sha256 of its stdout (the report at 2/4/3 on
    transport_2d is 1.3 MB)."""
    return {key: {"exit": record["exit"], "stderr": record["stderr"],
                  "laws": len(json.loads(record["stdout"])["laws"]),
                  "sha256": hashlib.sha256(record["stdout"].encode()).hexdigest()}
            for key, record in reports.items()}


def write_zero_symbol_pins() -> None:
    """Record the pins of the `paraclaw claws` reports on ZERO_SYMBOL_CORPUS
    at ZERO_SYMBOL_SPECS; run once, from the commit whose reports are the
    reference:
    ``PYTHONPATH=src:tests python -c "import util; util.write_zero_symbol_pins()"``."""
    reports = claws_corpus_reports(entries=ZERO_SYMBOL_CORPUS, specs=ZERO_SYMBOL_SPECS)
    with open(ZERO_SYMBOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(zero_symbol_pins(reports), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def trace_matrix_nullity(n: int, r: int) -> int:
    """Null-space dimension of the spatial trace Sym^(r+2) R^(n+1) -> Sym^r,
    computed from the explicit matrix (independent of tableau_dimension)."""
    k = r + 2
    source = list(itertools.combinations_with_replacement(range(n + 1), k))
    target = {mi: j for j, mi in
              enumerate(itertools.combinations_with_replacement(range(n + 1), r))}
    rows: list[dict] = [dict() for _ in target] or []
    for colidx, mi in enumerate(source):
        counts = {}
        for a in mi:
            counts[a] = counts.get(a, 0) + 1
        for i in range(1, n + 1):
            m = counts.get(i, 0)
            if m < 2:
                continue
            reduced = list(mi)
            reduced.remove(i)
            reduced.remove(i)
            rowidx = target[tuple(reduced)]
            rows[rowidx][colidx] = rows[rowidx].get(colidx, Fraction(0)) \
                + Fraction(m * (m - 1))
    return len(source) - (rank(rows, len(source)) if rows else 0)


def heat_polynomial_space(n: int, degree: int) -> list[dict]:
    """Coefficient-dict basis of polynomial solutions f(t, x) of
    f_t + Laplacian f = 0 with joint total degree <= degree.

    Monomial keys are exponent tuples (e_t, e_x1, .., e_xn); differentiation
    is done directly on the dicts, independent of the jets machinery.
    """
    monos = [m for m in itertools.product(range(degree + 1), repeat=n + 1)
             if sum(m) <= degree]
    index = {m: i for i, m in enumerate(monos)}

    def add_to(row: dict, mono: tuple, coeff: Fraction) -> None:
        if mono in index:
            row[index[mono]] = row.get(index[mono], Fraction(0)) + coeff
        elif coeff:
            raise AssertionError("derivative left the truncated space")

    rows: dict[tuple, dict] = {}
    for m in monos:
        # f_t + sum_i f_{x_i x_i}, coefficient-wise
        if m[0] >= 1:
            key = m[:0] + (m[0] - 1,) + m[1:]
            rows.setdefault(key, {})
            add_to(rows[key], m, Fraction(m[0]))
        for i in range(1, n + 1):
            if m[i] >= 2:
                key = m[:i] + (m[i] - 2,) + m[i + 1:]
                rows.setdefault(key, {})
                add_to(rows[key], m, Fraction(m[i] * (m[i] - 1)))
    basis = linalg.nullspace(list(rows.values()), len(monos))
    return [{monos[i]: v for i, v in vec.items()} for vec in basis]


def expr_coefficient_vector(e: Expr, n: int, degree: int) -> list[Fraction]:
    """Coefficient vector of a base-variable polynomial over the monomial
    basis used by heat_polynomial_space."""
    monos = [m for m in itertools.product(range(degree + 1), repeat=n + 1)
             if sum(m) <= degree]
    index = {m: i for i, m in enumerate(monos)}
    vec = [Fraction(0)] * len(monos)
    assert e.is_polynomial
    for mono, c in e.num.terms.items():
        exps = [0] * (n + 1)
        for s, p in mono_decode(mono):
            assert s.kind == "base", f"non-base symbol {s} in characteristic"
            exps[s.index] = p
        vec[index[tuple(exps)]] = c
    return vec


def span_equal(vectors_a: list[list[Fraction]], vectors_b: list[list[Fraction]]) -> bool:
    rows_a = [{i: v for i, v in enumerate(vec) if v} for vec in vectors_a]
    rows_b = [{i: v for i, v in enumerate(vec) if v} for vec in vectors_b]
    ncols = max(len(v) for v in vectors_a + vectors_b)
    ra = rank(rows_a, ncols)
    rb = rank(rows_b, ncols)
    rab = rank(rows_a + rows_b, ncols)
    return ra == rb == rab


def in_span(vector: list[Fraction], vectors: list[list[Fraction]]) -> bool:
    rows = [{i: v for i, v in enumerate(vec) if v} for vec in vectors]
    ncols = len(vector)
    extra = {i: v for i, v in enumerate(vector) if v}
    return rank(rows + [extra], ncols) == rank(rows, ncols)
