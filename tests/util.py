"""Shared builders and randomized property suites for the test modules.

The suites here are imported both by the per-module tests and by the
acceptance module (which runs each at >= 100 cases).  All randomness is
seeded; all assertions are exact.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import random
import re
import string
import tempfile
from fractions import Fraction

from paraclaw import cli, linalg
from paraclaw.claws import (
    AnsatzSpec, ConservationLaw, DeterminingSystem, NotParabolicEquation,
    _determining_expression, _on_shell_dt, assemble_determining_system, combine,
    cross_validate_ma, find_conservation_laws, generate_ansatz, linear_columns,
    reconstruct_flux, solve_exact, verify,
)
from paraclaw.expr import (
    JET, DivisionByZeroExpr, Expr, Monomial, ONE, Symbol, ZERO, ansatz_unknown,
    aux_var, base_var, jet_symbol, jet_var, mono_cmp, mono_mul,
)
from paraclaw.jets import (
    NotInDivergenceImage, _lower, _lower_prolong, _prolong,
    build_replacement_table, euler_operator, invert_divergence,
    reduce_to_spatial, spatial_jet_vars, total_derivative,
)
from paraclaw.corpus import CORPUS
from paraclaw.expr import MAX_TERMS, Poly
from paraclaw.grammar import (
    MAX_NESTING, ParseError, _as_expr, _Parser, parse, parse_expression,
)
from paraclaw.parabolic import (
    EvolutionEquation, Parabolicity, PreconditionSpatialDim, SingularSymbol,
    _harmonic_split, _residue_decomposition, ma_classify, parabolicity_check,
    quartic_form, symbol_form, xi_symbols,
)

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
# check the closed form of paraclaw.claws; the sum of traceless dimensions,
# kept to check the closed-form tableau dimension
# ---------------------------------------------------------------------------

def naive_total_derivative(e: Expr, a: int) -> Expr:
    """D_a e = de/dx^a + sum_J u_{Ja} de/du_J, one Expr.diff per symbol."""
    out = e.diff(base_var(a))
    for s in sorted(s for s in e.symbols() if s.kind == JET):
        d = e.diff(s)
        if not d.is_zero:
            out = out + Expr.symbol(jet_symbol(s.jet.append(a))) * d
    return out


def naive_lower_prolong(m: Monomial, idx: int, t: Symbol) -> Monomial:
    """m / u_J * u_{Ja} for u_J the idx-th symbol of m and t = u_{Ja}, by a
    general monomial product."""
    return mono_mul(_lower(m, idx), ((t, 1),))


def naive_euler_operator(e: Expr) -> Expr:
    """sum_I (-1)^|I| D_I de/du_I, with |I| total derivatives per partial."""
    total = ZERO
    for s in sorted(s for s in e.symbols() if s.kind == JET):
        term = e.diff(s)
        for i in s.jet.spatial:
            term = naive_total_derivative(term, i)
        total = total - term if len(s.jet.spatial) % 2 else total + term
    return total


def naive_determining_expression(eq: EvolutionEquation, T: Expr) -> Expr:
    """E_u(reduce(D_t T)): the determining expression on shell, with every
    time jet of D_t T eliminated through a replacement table.  Kept to check
    the characteristic form E_u(dT/dt + G E_u(T)) of paraclaw.claws."""
    return euler_operator(naive_on_shell_dt(eq, T))


def naive_on_shell_dt(eq: EvolutionEquation, T: Expr) -> Expr:
    """reduce(D_t T): the total time derivative of T, with every time jet
    u_{J,t} then substituted by D_J G.  Kept to check the closed form
    dT/dt + sum_J (D_J G) dT/du_J of paraclaw.claws._on_shell_dt."""
    return reduce_to_spatial(total_derivative(T, 0), build_replacement_table(eq))


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


def naive_quartic_form(eq: EvolutionEquation) -> Expr:
    """q(xi) = d^2/de^2 G(..., u_ij + e xi_i xi_j) at e = 0, by substituting
    the perturbed Hessian into G and differentiating twice in e."""
    xi = xi_symbols(eq.n)
    eps = aux_var(0, "eps")
    bindings = {}
    for i in range(1, eq.n + 1):
        for j in range(i, eq.n + 1):
            s = eq.hessian_entry(i, j)
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


def naive_parabolicity(eq: EvolutionEquation) -> Parabolicity:
    """Strict iff every leading principal minor of the reference symbol is
    positive (Sylvester); weak iff every principal minor is >= 0."""
    g = symbol_form(eq).at_reference(eq.reference_jet)
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
    sf = symbol_form(eq)
    if symbolic:
        g = [list(row) for row in sf.g]
    else:
        ref = eq.reference_jet
        g = [[Expr.const(entry.eval_fraction(ref)) for entry in row] for row in sf.g]
        q = q.substitute(ref)
    ginv = naive_invert_matrix(g)
    sigma = ZERO
    for i in range(n):
        for j in range(n):
            sigma = sigma + g[i][j] * Expr.symbol(xi[i]) * Expr.symbol(xi[j])
    pairs = [(k, l) for k in range(n) for l in range(k, n)]
    target = _trace_with(ginv, q, xi).poly_coefficients(xi)
    columns = [_trace_with(ginv, sigma * Expr.symbol(xi[k]) * Expr.symbol(xi[l]),
                           xi).poly_coefficients(xi) for k, l in pairs]
    monos = [((xi[k], 2),) if k == l else ((xi[k], 1), (xi[l], 1))
             for k, l in pairs]
    matrix = [[colmap.get(mono, ZERO) for colmap in columns] for mono in monos]
    rhs = [target.get(mono, ZERO) for mono in monos]
    coeffs = linalg.solve_dense(matrix, rhs, ZERO)
    if coeffs is None:
        raise SingularSymbol("trace equations are singular (degenerate symbol)")
    h = ZERO
    for (k, l), c in zip(pairs, coeffs):
        h = h + c * Expr.symbol(xi[k]) * Expr.symbol(xi[l])
    return q - sigma * h, h, sigma


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
    """(N, D, P, sigma) of parabolic._harmonic_split, every step an Expr
    operation: g and q evaluated by substitution unless ``symbolic``."""
    if eq.n < 2:
        raise PreconditionSpatialDim("traceless residue needs n >= 2")
    n = eq.n
    xi = xi_symbols(n)
    q = quartic_form(eq)
    sf = symbol_form(eq)
    if not symbolic:
        ref = eq.reference_jet
        sf = type(sf)(n, tuple(tuple(Expr.const(entry.eval_fraction(ref))
                                     for entry in row) for row in sf.g))
        q = q.substitute(ref)
    det, adj = reference_det_adjugate([list(row) for row in sf.g])
    sigma = sf.sigma()
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


def suite_divergence_roundtrip(cases: int = 100, seed: int = 13) -> int:
    """invert_divergence returns fluxes whose divergence is exactly R."""
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        n = 2 if k % 5 == 0 else 1
        order = 1 if n == 2 else rng.choice((1, 2))
        syms = random_spatial_symbols(n, order)
        R = ZERO
        for i in range(1, n + 1):
            R = R + total_derivative(random_poly(rng, syms, terms=3), i)
        X = invert_divergence(R, n)
        back = ZERO
        for i, Xi in enumerate(X, start=1):
            back = back + total_derivative(Xi, i)
        assert back == R, f"roundtrip failed for R = {R}"
        done += 1
    return done


def suite_divergence_roundtrip_multid(cases: int = 60, seed: int = 23) -> int:
    """Round trips for n = 2 and n = 3 with jet order 2: every flux has an
    explicit t/x-dependent term, and R has a jet-free part."""
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        n = 2 + k % 2
        bases = [base_var(a) for a in range(n + 1)]
        jets = spatial_jet_vars(n, 2)
        R = random_poly(rng, bases)
        for i in range(1, n + 1):
            flux = random_poly(rng, bases + jets, terms=3) \
                + Expr.symbol(rng.choice(bases)) * random_poly(rng, jets, terms=2)
            R = R + total_derivative(flux, i)
        X = invert_divergence(R, n)
        assert len(X) == n
        back = ZERO
        for i, Xi in enumerate(X, start=1):
            back = back + total_derivative(Xi, i)
        assert back == R, f"roundtrip failed for n={n}, R = {R}"
        done += 1
    return done


def suite_divergence_decision(cases: int = 100, seed: int = 29) -> tuple[int, int]:
    """invert_divergence raises NotInDivergenceImage exactly when E_u(R) != 0,
    and whenever it returns, sum_i D_i X^i == R.  R is a random divergence,
    half the time plus a random polynomial.  Returns (inverted, rejected)."""
    rng = random.Random(seed)
    inverted = rejected = 0
    for _ in range(cases):
        n = rng.choice((1, 2, 3))
        syms = random_spatial_symbols(n, 2)
        R = ZERO
        for i in range(1, n + 1):
            R = R + total_derivative(random_poly(rng, syms, terms=2), i)
        if rng.random() < 0.5:
            R = R + random_poly(rng, syms, terms=2)
        is_divergence = euler_operator(R).is_zero
        try:
            X = invert_divergence(R, n)
        except NotInDivergenceImage:
            assert not is_divergence, f"divergence rejected: R = {R}"
            rejected += 1
            continue
        assert is_divergence, f"E_u(R) != 0 but inversion returned: R = {R}"
        back = ZERO
        for i, Xi in enumerate(X, start=1):
            back = back + total_derivative(Xi, i)
        assert back == R, f"roundtrip failed for R = {R}"
        inverted += 1
    return inverted, rejected


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
    """_lower_prolong equals naive_lower_prolong at every jet of random
    monomials over all four symbol kinds, time jets among them, exponents
    1..3, in every direction a = 0..3.  Returns the number of steps checked
    and how many of them met u_{Ja} already in the monomial."""
    rng = random.Random(seed)
    syms = [base_var(a) for a in range(4)] + [
        jet_var(combo, tp) for tp in range(3) for order in range(4 - tp)
        for combo in itertools.combinations_with_replacement(range(1, 4), order)
    ] + [ansatz_unknown(k) for k in (1, 5)] + [aux_var(k) for k in (1, 5)]
    checked = present = 0
    for _ in range(cases):
        m = tuple(sorted((s, rng.randint(1, 3))
                         for s in rng.sample(syms, rng.randint(1, 6))))
        for idx, (s, _) in enumerate(m):
            if s.kind != JET:
                continue
            for a in range(4):
                t = _prolong(s, a)
                assert _lower_prolong(m, idx, t) == naive_lower_prolong(m, idx, t), \
                    f"lowering {s} and raising {t} in {m}"
                checked += 1
                present += any(p == t for p, _ in m)
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
    """The characteristic-form determining expression equals the on-shell
    reference on the density ansatz of every corpus entry at 2/2/1 and
    2/2/2.  Returns the number of (entry, bounds) pairs checked."""
    checked = 0
    for entry in CORPUS:
        eq = entry.equation()
        for spec in (AnsatzSpec(2, 2, 1), AnsatzSpec(2, 2, 2)):
            T, _ = generate_ansatz(eq, spec)
            assert _determining_expression(eq, euler_operator(T)) \
                == determining_scale(eq) * naive_determining_expression(eq, T), \
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
        assert _determining_expression(eq, euler_operator(T)) \
            == determining_scale(eq) * naive_determining_expression(eq, T), \
            f"characteristic form differs for u_t = {G}, T = {T}"
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
    """On :func:`rational_corpus` at 2/2/1, the rows assembled from the
    characteristic of the ansatz, over every unknown of the ansatz, are
    ``int`` and equal d times the rows of the on-shell reference
    linear_columns(naive_determining_expression(eq, T)), under the same
    keys, in mono_cmp order.  Returns the number of equations checked."""
    checked = 0
    for name, eq in rational_corpus():
        T, unknowns = generate_ansatz(eq, AnsatzSpec(2, 2, 1))
        system = full_ansatz_system(eq, euler_operator(T), unknowns)
        d = determining_scale(eq)
        reference: dict = {}
        columns = linear_columns(naive_determining_expression(eq, T), unknowns)
        for k, column in enumerate(columns):
            for key, c in column.items():
                reference.setdefault(key, {})[k] = d * c
        assert system.keys == sorted(reference, key=functools.cmp_to_key(mono_cmp)), name
        assert system.rows == [reference[key] for key in system.keys], name
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


def suite_residue_equivalence(cases: int = 36, seed: int = 47) -> int:
    """The closed-form (q0, h, sigma) of paraclaw.parabolic equals
    naive_residue_decomposition, or both raise SingularSymbol, and the
    verdict of ma_classify (N = 0) is whether the naive q0 vanishes: on every
    corpus entry with n >= 2, pointwise and symbolic; on random G for
    n = 2..4 pointwise; and on random G for n = 2 symbolically.  The random
    pointwise G are polynomials of degree <= 6 in the Hessian and
    first-order data.  A symbolic G has one term quadratic in the Hessian
    and one Hessian entry times first-order data: the gcds that normalize
    the naive route's rational coefficients run for minutes on richer G,
    such as u_11*u_12*u_22.  Returns the number of (equation,
    mode) pairs checked."""
    rng = random.Random(seed)
    problems = [(entry.equation(), symbolic) for entry in CORPUS
                if entry.equation().n >= 2 for symbolic in (False, True)]
    for k in range(cases):
        n = 2 + k % 3
        hess = [s for s in spatial_jet_vars(n, 2) if s.jet.order == 2]
        lower = [base_var(1), jet_var(), jet_var((1,))]
        extra = random_poly(rng, hess + lower, terms=3, max_exp=2)
        problems.append((_random_parabolic_like(rng, n, extra), False))
        if n == 2:
            extra = rng.randint(1, 5) * Expr.symbol(rng.choice(hess)) \
                * Expr.symbol(rng.choice(hess)) \
                + rng.randint(-5, 5) * Expr.symbol(rng.choice(lower)) \
                * Expr.symbol(rng.choice(hess))
            problems.append((_random_parabolic_like(rng, n, extra), True))
    for eq, symbolic in problems:
        got = _residue_outcome(_residue_decomposition, eq, symbolic)
        want = _residue_outcome(naive_residue_decomposition, eq, symbolic)
        assert got == want if isinstance(got, str) or isinstance(want, str) \
            else tuple(got) == tuple(want), \
            f"residue differs for u_t = {eq.G} (symbolic={symbolic})"
        verdict = ma_classify(eq, symbolic).residue_vanishes
        assert verdict == (None if want == "singular" else want[0].is_zero), \
            f"residue verdict differs for u_t = {eq.G} (symbolic={symbolic})"
    return len(problems)


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
    """parabolic._harmonic_split, on int numerators, against the Expr route
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
    random one.  Returns the number of draws of each kind, mode and
    outcome, with the parabolicity verdict of each pointwise draw."""
    rng = random.Random(seed)
    draws = [("corpus", entry.equation(), symbolic) for entry in CORPUS
             if entry.equation().n >= 2 for symbolic in (False, True)]
    for k in range(cases):
        n = 2 + k % 3
        hess = [s for s in spatial_jet_vars(n, 2) if s.jet.order == 2]
        lower = [base_var(1), jet_var(), jet_var((1,)), jet_var((n,))]
        G = random_poly(rng, hess + lower, terms=3, max_exp=2) \
            * Fraction(rng.randint(1, 5), rng.randint(1, 4))
        for i in range(1, n + 1):
            G = G + Fraction(rng.choice((-1, 0, 1, 1, 2, 3)), rng.randint(1, 3)) \
                * Expr.symbol(jet_var((i, i)))
        ref = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in G.symbols()}
        draws.append(("pointwise", EvolutionEquation(n, G, ref), False))
    symbolic = [parse(source).equation() for source in SPLIT_SYMBOLIC_SOURCES]
    for _ in range(cases // 3):
        hess = [s for s in spatial_jet_vars(2, 2) if s.jet.order == 2]
        extra = Fraction(rng.randint(1, 5), rng.randint(1, 3)) \
            * Expr.symbol(rng.choice(hess)) * Expr.symbol(rng.choice(hess)) \
            + rng.randint(-5, 5) * Expr.symbol(jet_var((1,))) * Expr.symbol(rng.choice(hess))
        symbolic.append(_random_parabolic_like(rng, 2, extra))
    draws += [("symbolic", eq, True) for eq in symbolic]
    for source in SPLIT_RATIONAL_SOURCES:
        eq = parse(source).equation()
        point = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in eq.G.symbols()}
        draws += [("rational", eq, True), ("rational", eq, False),
                  ("rational", EvolutionEquation(eq.n, eq.G, point), False)]
    counts: dict = {}
    for kind, eq, symbolic in draws:
        got = _split_outcome(lambda e, sym: _harmonic_split(e, quartic_form(e), sym),
                             eq, symbolic)
        want = _split_outcome(reference_harmonic_split, eq, symbolic)
        assert got == want, f"split differs for u_t = {eq.G} (symbolic={symbolic})"
        key = (kind, "symbolic" if symbolic else "pointwise",
               want if isinstance(want, str) else "split")
        if not symbolic and want != "vanishing denominator":
            key += (parabolicity_check(eq).value,)
        counts[key] = counts.get(key, 0) + 1
    return counts


def suite_quartic_equivalence(cases: int = 60, seed: int = 59) -> int:
    """quartic_form equals naive_quartic_form on every corpus entry, on two
    G rational in first-order data, and on random polynomial G for
    n = 1..3 with products of up to three Hessian entries.  Returns the
    number of equations checked."""
    rng = random.Random(seed)
    eqs = [entry.equation() for entry in CORPUS]
    eqs += [EvolutionEquation(1, uxx / (1 + u ** 2)),
            EvolutionEquation(2, (u11 + u22) / (2 + u1 ** 2) + u11 * u22)]
    for k in range(cases):
        n = 1 + k % 3
        hess = [s for s in spatial_jet_vars(n, 2) if s.jet.order == 2]
        lower = [base_var(0), base_var(1), jet_var(), jet_var((1,))]
        G = random_poly(rng, hess + lower, terms=4, max_exp=3)
        for _ in range(rng.randint(1, 2)):
            G = G + random_poly(rng, lower, terms=2) * math.prod(
                (Expr.symbol(rng.choice(hess)) for _ in range(rng.randint(2, 3))), start=ONE)
        eqs.append(EvolutionEquation(n, G))
    for eq in eqs:
        assert quartic_form(eq) == naive_quartic_form(eq), \
            f"quartic form differs for u_t = {eq.G} (n={eq.n})"
    return len(eqs)


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


def suite_parabolicity_equivalence(cases: int = 600, seed: int = 61) -> dict:
    """parabolicity_check agrees with naive_parabolicity on seeded random
    symmetric rational symbols, n = 1..4.  G is linear in the Hessian,
    G = sum_i g_ii u_ii + sum_{i<j} 2 g_ij u_ij, so its symbol is g at any
    jet.  Returns the count of each verdict, and under ("zero pivot",
    verdict) the count of matrices with a vanishing leading principal
    minor, where the elimination meets a zero pivot."""
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


def full_ansatz_system(eq: EvolutionEquation, Q_ansatz: Expr,
                       unknowns: list[Symbol]) -> DeterminingSystem:
    """The determining system of the characteristic ansatz Q_ansatz over
    every unknown of its density ansatz: the assembled system, whose
    unknowns are those of Q_ansatz, in ansatz order, with a zero column for
    each ansatz monomial whose characteristic is 0."""
    system = assemble_determining_system(eq, Q_ansatz)
    assert system.unknowns == [c for c, Q in zip(unknowns, linear_columns(Q_ansatz, unknowns))
                               if Q]
    column = {c: k for k, c in enumerate(unknowns)}
    rows = [{column[system.unknowns[k]]: v for k, v in row.items()} for row in system.rows]
    return DeterminingSystem(unknowns, rows, system.keys)


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
    T_ansatz, unknowns = generate_ansatz(eq, spec)
    Q_ansatz = euler_operator(T_ansatz)
    system = full_ansatz_system(eq, Q_ansatz, unknowns)
    densities = linear_columns(T_ansatz, unknowns)
    characteristics = linear_columns(Q_ansatz, unknowns)
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


def suite_linear_extraction(cases: int = 100, seed: int = 31) -> int:
    """For every null vector v, trivial ones included, over the corpus at the
    default bounds and over seeded randomized bounds: the characteristic read
    off the columns of E_u(T_ansatz) is E_u(T_v), and the density built from
    the ansatz columns is T_ansatz with v substituted.  Returns the number
    of vectors checked."""
    rng = random.Random(seed)
    problems = [(entry, AnsatzSpec()) for entry in CORPUS]
    for _ in range(cases):
        entry = rng.choice(CORPUS)
        problems.append((entry, corpus_specs(rng, entry.equation().n)))
    checked = 0
    for entry, spec in problems:
        eq = entry.equation()
        T_ansatz, unknowns = generate_ansatz(eq, spec)
        Q_ansatz = euler_operator(T_ansatz)
        system = full_ansatz_system(eq, Q_ansatz, unknowns)
        densities = linear_columns(T_ansatz, unknowns)
        characteristics = linear_columns(Q_ansatz, unknowns)
        for vec in solve_exact(system):
            T = T_ansatz.substitute({c: vec.get(k, 0) for k, c in enumerate(unknowns)})
            assert combine(densities, vec) == T, f"density differs on {entry.name}"
            assert combine(characteristics, vec) == euler_operator(T), \
                f"characteristic differs on {entry.name}: T = {T}"
            checked += 1
    return checked


def suite_cross_validation() -> int:
    """cross_validate_ma reports zero violations over the whole corpus."""
    checked = 0
    for entry in CORPUS:
        eq = entry.equation()
        spec = AnsatzSpec(max_jet_order=2, jet_degree=1,
                          base_degree=2 if eq.n == 1 else 1)
        laws = find_conservation_laws(eq, spec)
        result = cross_validate_ma(eq, laws)
        assert result.consistent, f"violation on {entry.name}: {result.detail}"
        checked += 1
    assert checked >= 10
    return checked


# ---------------------------------------------------------------------------
# Problem-file parsing: the reference route.  The expression half of the
# grammar with an Expr for every atom and full Expr arithmetic at every
# operator, and the lexer as a character loop, kept to check the raw-term
# parser and the regex lexer of paraclaw.grammar
# ---------------------------------------------------------------------------

def reference_tokenize(source: str) -> list[tuple]:
    """grammar._tokenize, one character at a time."""
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
    """grammar._Parser with the reference lexer and the Expr route for every
    expression production; files, options and names are the grammar's."""

    def __init__(self, source: str, n: int | None = None):
        self.tokens = reference_tokenize(source)
        self.pos = 0
        self.n = n
        self.depth = 0
        self.work = 0

    def parse_expr(self) -> Expr:
        acc = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> Expr:
        acc = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            rhs = self.parse_unary()
            if op[0] == "*":
                self.charge_products(op, (acc.num, rhs.num), (acc.den, rhs.den))
                acc = acc * rhs
            else:
                if rhs.is_zero:
                    raise ParseError("division by zero", op[2], op[3])
                self.charge_products(op, (acc.num, rhs.den), (acc.den, rhs.num))
                acc = acc / rhs
        return acc

    def charge_products(self, op: tuple, *products) -> None:
        self.charge(op, sum(len(p.terms) * len(q.terms) for p, q in products))

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
                self.charge_products(op, (num, atom.num), (den, atom.den))
                num, den = num * atom.num, den * atom.den
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
        # each product pairs the denominators' one term, and the numerators'
        # one term unless the base is zero
        edge = MAX_TERMS if "0" in base else MAX_TERMS // 2
        return f"{base}^{rng.randint(edge - 2, edge + 3)}"
    depth = rng.randint(MAX_NESTING - 2, MAX_NESTING + 2)
    return "".join(rng.choice(("(", "-(", "2*(")) for _ in range(depth)) \
        + rng.choice(names) + ")" * depth


def suite_parse_equivalence(cases: int = 300, seed: int = 73) -> dict:
    """The grammar's parser against the reference route on seeded inputs:
    random valid expressions (bare, n = 1..3, and as problem files),
    truncations and one-character mutations of them, and inputs that pass
    the parse budget or the nesting limit, or come near it.  Each pair of
    outcomes must be equal: the same Expr or ProblemFile and the same term
    pairs charged, or the same ParseError class, message, line and column.
    On inputs with no rational sum, the grammar's parser multiplies no more
    term pairs than it charged (than MAX_TERMS, when it refuses the input).
    Returns the draw counts."""
    rng = random.Random(seed)
    counts = {"valid": 0, "parsed": 0, "malformed": 0, "malformed_errors": 0,
              "budget": 0, "past_max_terms": 0, "past_max_nesting": 0}

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
    return counts


# ---------------------------------------------------------------------------
# Golden corpus reports
# ---------------------------------------------------------------------------

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "claws_corpus.json")

# (order, jet degree, base degree) flags; None runs with the default bounds.
GOLDEN_SPECS = (None, (2, 2, 1), (2, 3, 1), (2, 2, 2))


def claws_corpus_reports() -> dict[str, dict]:
    """`paraclaw claws` on every corpus entry under every golden spec, keyed
    "<entry> <order>/<jet degree>/<base degree>" ("default" for no flags):
    exit code, stdout (the JSON report) and stderr."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for entry in CORPUS:
            path = os.path.join(tmp, f"{entry.name}.pde")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(entry.source)
            for spec in GOLDEN_SPECS:
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
    rank = linalg.rank(rows, len(source)) if rows else 0
    return len(source) - rank


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
        for s, p in mono:
            assert s.kind == "base", f"non-base symbol {s} in characteristic"
            exps[s.index] = p
        vec[index[tuple(exps)]] = c
    return vec


def span_equal(vectors_a: list[list[Fraction]], vectors_b: list[list[Fraction]]) -> bool:
    rows_a = [{i: v for i, v in enumerate(vec) if v} for vec in vectors_a]
    rows_b = [{i: v for i, v in enumerate(vec) if v} for vec in vectors_b]
    ncols = max(len(v) for v in vectors_a + vectors_b)
    ra = linalg.rank(rows_a, ncols)
    rb = linalg.rank(rows_b, ncols)
    rab = linalg.rank(rows_a + rows_b, ncols)
    return ra == rb == rab


def in_span(vector: list[Fraction], vectors: list[list[Fraction]]) -> bool:
    rows = [{i: v for i, v in enumerate(vec) if v} for vec in vectors]
    ncols = len(vector)
    extra = {i: v for i, v in enumerate(vector) if v}
    return linalg.rank(rows + [extra], ncols) == linalg.rank(rows, ncols)
