"""Conservation-law search on second-order density ansaetze.

The pipeline: enumerate a polynomial density ansatz T in the base
coordinates and spatial jets of order <= 2 (the order bound is licensed by
the structure theory -- characteristics of evolutionary parabolic
equations depend on at most second derivatives); keep only the monomials
whose characteristics are independent, so that no trivial law is ever
solved for; assemble the determining system in characteristic form; solve
the system exactly; reconstruct fluxes by divergence inversion.

Characteristic form.  On u_t = G the on-shell time derivative is
reduce(D_t T) = dT/dt + sum_J (D_J G) dT/du_J, and integrating each term by
parts gives reduce(D_t T) = dT/dt + G Q + Div(...) with Q = E_u(T) (Olver,
GTM 107; Anco & Bluman 2002).  E_u kills divergences and commutes with
d/dt, so the determining system is dQ/dt + E_u(G Q) = 0, on solutions
D_t Q + l*_G(Q) = 0 (l_Q is self-adjoint): the auxiliary equation of every
characteristic, in Q alone.  Flux reconstruction and verification evaluate
reduce(D_t T) in that closed form, D_J G read off a replacement table, and
integrate nothing by parts: an independent second route to the identity.

Sign convention: D_t T + Div X = 0 on solutions.  Laws are identified by
their characteristics Q = E_u(T) (densities differing by a spatial
divergence share Q) and reported with Q scaled monic under the global
monomial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Iterator

from . import linalg
from .expr import (
    ANSATZ, JET, MAX_TERMS, TIME, Expr, Monomial, NotPolynomialIn, Poly,
    Symbol, ansatz_unknown, base_var, mono_sort_key,
)
from .jets import (
    ORDER_GUARD, NotInDivergenceImage, OrderOverflow, ReplacementTable,
    TimeJetPresent, bounded_monomials, build_replacement_table, euler_operator,
    has_time_jets, invert_divergence, spatial_jet_order, spatial_jet_vars,
    total_derivative,
)
from .parabolic import EvolutionEquation, MAReport, Parabolicity, ma_classify, \
    parabolicity_check

__all__ = [
    "AnsatzTooLarge", "FluxReconstructionFailed", "NotParabolicEquation",
    "InvariantViolation",
    "AnsatzSpec", "ConservationLaw", "DeterminingSystem", "CrossValidation",
    "generate_ansatz", "assemble_determining_system", "linear_columns", "combine",
    "solve_exact", "check_density_order",
    "find_conservation_laws", "verify", "characteristic",
    "jacobi_potential_order", "reconstruct_flux", "cross_validate_ma",
]


class AnsatzTooLarge(ValueError):
    """The requested ansatz has more than MAX_TERMS monomials."""


class FluxReconstructionFailed(NotInDivergenceImage):
    """The on-shell time derivative of the density is not a spatial
    divergence: the density is not a conservation law."""


class NotParabolicEquation(ValueError):
    """The symbol is not parabolic at the reference jet (use force to override)."""

    def __init__(self) -> None:
        super().__init__("symbol is not parabolic at the reference jet; "
                         "pass force=True to proceed")


class InvariantViolation(RuntimeError):
    """An output invariant failed; indicates a bug, never accepted output."""


@dataclass(frozen=True)
class AnsatzSpec:
    """Bounds for the density ansatz.

    ``max_jet_order`` is capped at 2 -- the proven search space -- unless
    ``unsafe_order`` is set (useful only to confirm experimentally that
    nothing new appears at order 3), and is always below ORDER_GUARD: the
    on-shell time derivative of a kept law is refused from that order on.
    """

    max_jet_order: int = 2
    jet_degree: int = 1
    base_degree: int = 0
    unsafe_order: bool = False

    def __post_init__(self) -> None:
        if min(self.max_jet_order, self.jet_degree, self.base_degree) < 0:
            raise ValueError("ansatz bounds must be non-negative")
        if self.max_jet_order > 2 and not self.unsafe_order:
            raise ValueError(
                "max_jet_order > 2 needs unsafe_order=True (--unsafe-order)")
        if self.max_jet_order >= ORDER_GUARD:
            raise ValueError(f"max_jet_order {self.max_jet_order} reaches the order "
                             f"limit ORDER_GUARD = {ORDER_GUARD}")


@dataclass(frozen=True)
class ConservationLaw:
    """Density T, spatial fluxes X, and characteristic Q = E_u(T); all
    purely spatial."""

    T: Expr
    X: tuple[Expr, ...]
    Q: Expr


@dataclass
class DeterminingSystem:
    """Exact homogeneous linear system in the ansatz coefficients.

    One row per monomial of dQ/dt + E_u(G Q) in the base and jet variables,
    for Q = E_u(T_ansatz), scaled by the lcm d of the denominators of G;
    ``rows`` are sparse {column: coefficient} over ``unknowns``, with
    ``int`` coefficients for an ``int`` ansatz."""

    unknowns: list[Symbol]
    rows: list[dict] = field(default_factory=list)
    keys: list[Monomial] = field(default_factory=list)

    @property
    def num_equations(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CrossValidation:
    """Consistency of found laws with the Monge-Ampere classifier."""

    consistent: bool
    law_count: int
    report: MAReport
    detail: str = ""


# ---------------------------------------------------------------------------
# Ansatz generation and determining system
# ---------------------------------------------------------------------------

def generate_ansatz(eq: EvolutionEquation, spec: AnsatzSpec) -> tuple[Expr, list[Symbol]]:
    """Density ansatz sum_k c_k m_k over all monomials within the bounds,
    with ``int`` coefficients.

    Monomials are products of a base monomial in {t, x^1..x^n} (joint total
    degree <= base_degree) and a jet monomial in the spatial jets of order
    <= max_jet_order (total degree <= jet_degree).  The monomials are
    counted before any is built: there are C(n+r, r) jets of order <= r,
    and C(k+d, d) monomials of degree <= d in k symbols."""
    jet_count = comb(eq.n + spec.max_jet_order, spec.max_jet_order)
    count = (comb(eq.n + 1 + spec.base_degree, spec.base_degree)
             * comb(jet_count + spec.jet_degree, spec.jet_degree))
    if count > MAX_TERMS:
        raise AnsatzTooLarge(f"{count} monomials exceed MAX_TERMS = {MAX_TERMS}")
    base_syms = [base_var(a) for a in range(eq.n + 1)]
    jet_syms = spatial_jet_vars(eq.n, spec.max_jet_order)
    base_monos = bounded_monomials(base_syms, spec.base_degree)
    jet_monos = bounded_monomials(jet_syms, spec.jet_degree)
    unknowns = []
    terms = {}
    k = 0
    for jm in jet_monos:
        for bm in base_monos:
            k += 1
            c = ansatz_unknown(k)
            unknowns.append(c)
            terms[bm + jm + ((c, 1),)] = 1  # base < jet < ansatz: sorted
    return Expr._make(Poly(terms), Poly.one()), unknowns


def assemble_determining_system(eq: EvolutionEquation, Q_ansatz: Expr) -> DeterminingSystem:
    """The linear determining equations of the characteristic ansatz
    Q_ansatz = E_u(T_ansatz), in the ansatz unknowns of Q_ansatz: the
    coefficient of every monomial in the base and jet variables of
    d (dQ/dt + E_u(G Q)) = d E_u(reduce(D_t T_ansatz)) (see the module
    docstring).  d, the lcm of the denominators of G's coefficients, keeps
    every step on ``int`` coefficients for an ``int`` ansatz; it changes
    neither the null space nor the reduced rows.  No time jet occurs, so
    no replacement table is built.  The rows are filled in one pass over
    the terms."""
    unknowns = sorted(s for s in Q_ansatz.symbols() if s.kind == ANSATZ)
    rows: dict = {}
    for key, k, c in _split_unknowns(_determining_expression(eq, Q_ansatz), unknowns):
        rows.setdefault(key, {})[k] = c
    keys = sorted(rows, key=mono_sort_key)
    return DeterminingSystem(unknowns, [rows[key] for key in keys], keys)


def _determining_expression(eq: EvolutionEquation, Q: Expr) -> Expr:
    """d dQ/dt + E_u((d G) Q) for Q = E_u(T), d the lcm of the denominators
    of G's coefficients, so an ``int`` Q keeps every step on ``int``
    coefficients.  For a rational-function G, d is read off its numerator
    and d G keeps G's denominator."""
    G = eq.G
    d = lcm(*(c.denominator for c in G.num.terms.values()))
    dG = Poly({m: c.numerator * (d // c.denominator) for m, c in G.num.terms.items()})
    dQ = Q.diff(TIME)
    return Expr._make(dQ.num.scale(d), dQ.den) + euler_operator(Expr._make(dG, G.den) * Q)


def _on_shell_dt(T: Expr, table: ReplacementTable) -> Expr:
    """reduce(D_t T) = dT/dt + sum_J (D_J G) dT/du_J: the time derivative of
    the purely spatial density T on the prolonged equation, with each D_J G
    read off the table.

    A quotient T is differentiated by the quotient rule, so for a
    polynomial G only the final quotient is normalized.  Raises
    TimeJetPresent when T holds a time jet, and OrderOverflow past the
    order limit (:func:`check_density_order`)."""
    if has_time_jets(T):
        raise TimeJetPresent("the on-shell time derivative needs a purely spatial density")
    check_density_order(T)

    def on_shell(p: Expr) -> Expr:
        R = p.diff(TIME)
        for s in sorted(s for s in p.symbols() if s.kind == JET):
            R = R + p.diff(s) * table.entry(s.jet.append(0))
        return R

    if T.is_polynomial:
        return on_shell(T)
    num, den = Expr._make(T.num, Poly.one()), Expr._make(T.den, Poly.one())
    return (on_shell(num) * den - num * on_shell(den)) / (den * den)


def check_density_order(T: Expr) -> None:
    """Raise OrderOverflow when the density T has jet order >= ORDER_GUARD,
    the one limit on how far the equation is prolonged."""
    order = spatial_jet_order(T)
    if order >= ORDER_GUARD:
        raise OrderOverflow(
            f"density has jet order {order} > {ORDER_GUARD - 1}: its time "
            f"derivative needs the equation prolonged past the order limit "
            f"{ORDER_GUARD}")


def linear_columns(E: Expr, unknowns: list[Symbol]) -> list[dict]:
    """E, linear homogeneous in the ansatz unknowns, as sparse columns:
    column k maps each monomial in the base and jet variables to its
    coefficient in E at unknowns[k].  Each term's unknown is its last pair
    (:func:`_split_unknowns`); a term that is not one of the unknowns times
    base and jet variables is an InvariantViolation."""
    columns: list[dict] = [{} for _ in unknowns]
    for key, k, c in _split_unknowns(E, unknowns):
        columns[k][key] = c
    return columns


def _split_unknowns(E: Expr, unknowns: list[Symbol]) -> Iterator[tuple[Monomial, int, object]]:
    """(key, k, c) for every term c key unknowns[k] of E, key a monomial in
    the base and jet variables.  ANSATZ sorts after BASE and JET (only AUX
    sorts later), so the unknown is the term's last pair and the pair before
    it, if any, is a base or jet variable."""
    if not E.is_polynomial:
        raise NotPolynomialIn(E.den.symbols())
    col = {c: k for k, c in enumerate(unknowns)}
    for mono, c in E.num.terms.items():
        if mono:
            (s, e), key = mono[-1], mono[:-1]
            k = col.get(s)
            if k is not None and e == 1 and not (key and key[-1][0].kind == ANSATZ):
                yield key, k, c
                continue
        raise InvariantViolation(
            "expression is not linear homogeneous in the ansatz unknowns")


def combine(columns: list[dict], vec: dict) -> Expr:
    """sum_k vec[k] * columns[k] as a polynomial, for a sparse vector
    {k: Fraction}."""
    acc: dict = {}
    for k, v in vec.items():
        for mono, c in columns[k].items():
            got = acc.get(mono)
            acc[mono] = v * c if got is None else got + v * c
    return Expr._make(Poly({m: c for m, c in acc.items() if c}), Poly.one())


def solve_exact(system: DeterminingSystem) -> list[dict]:
    """Basis of the null space as sparse vectors {column: Fraction}, by
    exact Gaussian elimination with deterministic pivoting (first nonzero
    column in the unknown order)."""
    return linalg.nullspace(system.rows, len(system.unknowns))


# ---------------------------------------------------------------------------
# Laws
# ---------------------------------------------------------------------------

def characteristic(T: Expr) -> Expr:
    """Q = E_u(T), the defining function of the law with density T."""
    return euler_operator(T)


def jacobi_potential_order(law: ConservationLaw) -> int:
    """Largest jet order in the (already spatial) characteristic."""
    return spatial_jet_order(law.Q)


def reconstruct_flux(eq: EvolutionEquation, T: Expr) -> tuple[Expr, ...]:
    """Fluxes X with D_t T + Div X = 0 on solutions."""
    return _flux(_on_shell_dt(T, build_replacement_table(eq)), eq.n)


def _flux(R: Expr, n: int) -> tuple[Expr, ...]:
    """Fluxes X with R + Div X = 0, for R = reduce(D_t T)."""
    try:
        return invert_divergence(-R, n)
    except NotInDivergenceImage as exc:
        raise FluxReconstructionFailed(str(exc)) from exc


def verify(eq: EvolutionEquation, law: ConservationLaw) -> bool:
    """Exact check of reduce(D_t T) + sum_i D_i X^i = 0."""
    if law.X is None:
        raise ValueError("law has no flux to verify")
    if len(law.X) != eq.n:
        raise ValueError(f"expected {eq.n} fluxes, got {len(law.X)}")
    return _balances(_on_shell_dt(law.T, build_replacement_table(eq)),
                     law.X)


def _balances(R: Expr, X: tuple[Expr, ...]) -> bool:
    """R + sum_i D_i X^i == 0, for R = reduce(D_t T)."""
    for i, Xi in enumerate(X, start=1):
        R = R + total_derivative(Xi, i)
    return R.is_zero


def find_conservation_laws(eq: EvolutionEquation, spec: AnsatzSpec | None = None,
                           force: bool = False) -> list[ConservationLaw]:
    """All conservation laws within the ansatz bounds, up to equivalence.

    E_u is linear, so the characteristic of every null vector v is M v,
    with M = E_u(T_ansatz) read off once as columns over the unknowns, and
    its density is sum_k v_k m_k.  E_u kills exactly the divergences, so
    densities with the same characteristic are the same law.  The search
    therefore first keeps only the ansatz monomials m_k whose
    characteristic E_u(m_k) is linearly independent of those of the
    earlier monomials, in unknown order (a monomial with E_u(m_k) = 0 is
    dropped), and assembles, from the kept columns of M alone, and solves
    the determining system of that restricted ansatz.  M is injective
    there, so each null vector is one
    law: a vector whose characteristic is 0 or dependent on the kept ones
    is an InvariantViolation.  The laws are those the full ansatz gives
    after dropping trivial and dependent null vectors, in the same order:
    E_u(dT/dt) = d/dt E_u(T), so ker M lies in the null space, and the
    null vector of each free column that is not a pivot of M has a
    characteristic that depends on those of earlier null vectors.

    Each law is scaled so its characteristic is monic.  Every null-space
    density has a flux, reconstructed by exact divergence inversion.
    Every returned law satisfies the conservation identity exactly.  A
    characteristic of jet order > 2 is an InvariantViolation on a strictly
    parabolic symbol, where the order bound is a theorem; otherwise (a
    weak or, with force, a non-parabolic symbol) the law is kept, and the
    symbol is classified only when such a law turns up.  Each law's
    on-shell D_t T is computed once, from the one replacement table, and
    serves both its flux and its identity check; the table is built only
    when the first law is kept."""
    spec = spec or AnsatzSpec()
    if not force and parabolicity_check(eq) is Parabolicity.NOT_PARABOLIC:
        raise NotParabolicEquation()
    T_full, unknowns = generate_ansatz(eq, spec)
    Q_full = characteristic(T_full)
    pivots = linalg.Echelon()
    keep = {c: Q for c, Q in zip(unknowns, linear_columns(Q_full, unknowns))
            if pivots.add(Q)}

    def restricted(E: Expr) -> Expr:  # each term of T_full and Q_full ends in its one unknown
        return Expr._make(Poly({m: c for m, c in E.num.terms.items()
                                if m[-1][0] in keep}), Poly.one())

    system = assemble_determining_system(eq, restricted(Q_full))
    basis = solve_exact(system)
    densities = linear_columns(restricted(T_full), system.unknowns)
    characteristics = [keep[c] for c in system.unknowns]
    kept = linalg.Echelon()
    table: ReplacementTable | None = None
    laws: list[ConservationLaw] = []
    for vec in basis:
        Q = combine(characteristics, vec)
        if not kept.add(Q.num.terms):
            raise InvariantViolation("null vector with zero or dependent characteristic")
        scale = Fraction(1) / Q.num.leading()[1]
        T, Q = combine(densities, vec) * scale, Q * scale
        if table is None:
            table = build_replacement_table(eq)
        R = _on_shell_dt(T, table)
        try:
            X = _flux(R, eq.n)
        except FluxReconstructionFailed as exc:
            raise InvariantViolation(
                f"null-space density has no flux: T = {T}") from exc
        law = ConservationLaw(T, X, Q)
        if (jacobi_potential_order(law) > 2
                and parabolicity_check(eq) is Parabolicity.STRICT):
            raise InvariantViolation(
                f"characteristic of jet order > 2 found: {Q}")
        if not _balances(R, X):
            raise InvariantViolation(f"reconstructed flux fails to verify for T = {T}")
        laws.append(law)
    return laws


def cross_validate_ma(eq: EvolutionEquation, laws: list[ConservationLaw],
                      report: MAReport | None = None) -> CrossValidation:
    """Check the structural implication: a nontrivial conservation law forces
    the Monge-Ampere verdict (n1_affine for n = 1, vanishing traceless
    residue for n >= 2).  A violation is an implementation bug.

    ``report`` is the pointwise ``ma_classify(eq)``, computed here when not
    given."""
    if report is None:
        report = ma_classify(eq)
    if not laws:
        return CrossValidation(True, 0, report, "no laws, nothing to check")
    if eq.n == 1:
        ok, which = report.n1_affine, "n1_affine"
    else:
        ok, which = report.residue_vanishes, "residue_vanishes"
    if ok is None:
        return CrossValidation(True, len(laws), report,
                               f"{which} undecided (singular symbol)")
    if ok:
        return CrossValidation(True, len(laws), report, f"{which} holds")
    return CrossValidation(False, len(laws), report,
                           f"{len(laws)} nontrivial law(s) but {which} is false")
