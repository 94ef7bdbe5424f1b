"""Conservation-law search on second-order density ansaetze.

The pipeline: enumerate a polynomial density ansatz T in the base
coordinates and spatial jets of order <= 2 (the order bound is licensed by
the structure theory -- characteristics of evolutionary parabolic
equations depend on at most second derivatives); assemble the determining
system in characteristic form; solve the system exactly; filter trivial
laws by their characteristic; reconstruct fluxes by divergence inversion.

Characteristic form.  On u_t = G the on-shell time derivative is
reduce(D_t T) = dT/dt + sum_J (D_J G) dT/du_J, and integrating each term by
parts gives reduce(D_t T) = dT/dt + G Q + Div(...) with Q = E_u(T) (Olver,
GTM 107; Anco & Bluman 2002).  E_u kills divergences, so the determining
system is E_u(dT/dt + G Q) = 0 over the ansatz: no time jet is ever
eliminated, and the search builds no replacement table.  Flux
reconstruction and verification still restrict D_t T to the equation
through a replacement table, which makes verification an independent
second route to the conservation identity.

Sign convention: D_t T + Div X = 0 on solutions.  Laws are identified by
their characteristics Q = E_u(T) (densities differing by a spatial
divergence share Q) and reported with Q scaled monic under the global
monomial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .expr import (
    ANSATZ, BASE, JET, MAX_TERMS, TIME, Expr, Monomial, NotPolynomialIn, Poly,
    Symbol, ansatz_unknown, base_var, mono_sort_key,
)
from .jets import (
    ORDER_GUARD, NotInDivergenceImage, OrderOverflow, ReplacementTable,
    bounded_monomials, build_replacement_table, euler_operator, invert_divergence,
    reduce_to_spatial, spatial_jet_order, spatial_jet_vars, total_derivative,
)
from .parabolic import EvolutionEquation, MAReport, Parabolicity, ma_classify, \
    parabolicity_check

__all__ = [
    "AnsatzTooLarge", "FluxReconstructionFailed", "NotParabolicEquation",
    "InvariantViolation",
    "AnsatzSpec", "ConservationLaw", "DeterminingSystem", "CrossValidation",
    "generate_ansatz", "assemble_determining_system", "linear_columns", "combine",
    "solve_exact",
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


class InvariantViolation(RuntimeError):
    """An output invariant failed; indicates a bug, never accepted output."""


@dataclass(frozen=True)
class AnsatzSpec:
    """Bounds for the density ansatz.

    ``max_jet_order`` is capped at 2 -- the proven search space -- unless
    ``unsafe_order`` is set (useful only to confirm experimentally that
    nothing new appears at order 3).
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

    One row per monomial of E_u(dT/dt + G Q) in the base and jet variables,
    with T = T_ansatz and Q = E_u(T_ansatz) (the characteristic form of
    E_u(reduce(D_t T_ansatz))), scaled by the lcm d of the denominators
    of G; ``rows`` are sparse {column: coefficient} over ``unknowns``, with
    ``int`` coefficients for an ``int`` ansatz.  ``Q_ansatz`` =
    E_u(T_ansatz), or None for a system not built by
    :func:`assemble_determining_system`."""

    unknowns: list[Symbol]
    rows: list[dict] = field(default_factory=list)
    keys: list[Monomial] = field(default_factory=list)
    Q_ansatz: Expr | None = None

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
    <= max_jet_order (total degree <= jet_degree)."""
    base_syms = [base_var(a) for a in range(eq.n + 1)]
    jet_syms = spatial_jet_vars(eq.n, spec.max_jet_order)
    base_monos = bounded_monomials(base_syms, spec.base_degree)
    jet_monos = bounded_monomials(jet_syms, spec.jet_degree)
    count = len(base_monos) * len(jet_monos)
    if count > MAX_TERMS:
        raise AnsatzTooLarge(f"{count} monomials exceed MAX_TERMS = {MAX_TERMS}")
    unknowns = []
    terms = {}
    k = 0
    for jm in jet_monos:
        for bm in base_monos:
            k += 1
            c = ansatz_unknown(k)
            unknowns.append(c)
            mono = tuple(sorted(bm + jm + ((c, 1),), key=lambda p: p[0].key))
            terms[mono] = 1
    return Expr._make(Poly(terms), Poly.one()), unknowns


def assemble_determining_system(eq: EvolutionEquation, T_ansatz: Expr,
                                max_jet_order: int = 2) -> DeterminingSystem:
    """Extract the linear determining equations for T_ansatz.

    Computes d E_u(dT/dt + G Q) with Q = E_u(T_ansatz), where E_u(dT/dt + G Q)
    equals E_u(reduce(D_t T_ansatz)) (see the module docstring), and turns
    the coefficient of every monomial in the base and jet variables into one
    homogeneous equation in the ansatz unknowns.  Denominators are cleared
    once, up front: d is the lcm of the denominators of G's coefficients,
    so on the ``int`` ansatz of :func:`generate_ansatz` every step runs on
    ``int`` coefficients and the rows are d times the rows of
    E_u(dT/dt + G Q), with ``int`` entries.  The scale changes neither the
    null space nor the reduced rows.  No time jet occurs, so no replacement
    table is built.  The system keeps Q_ansatz, from which the law search
    reads its characteristics."""
    order = spatial_jet_order(T_ansatz)
    if order > max_jet_order:
        raise ValueError(f"ansatz jet order {order} exceeds allowed {max_jet_order}")
    unknowns = sorted(s for s in T_ansatz.symbols() if s.kind == ANSATZ)
    Q_ansatz = characteristic(T_ansatz)
    E = _determining_expression(eq, T_ansatz, Q_ansatz)
    rows: dict = {}
    for k, column in enumerate(linear_columns(E, unknowns)):
        for key, c in column.items():
            rows.setdefault(key, {})[k] = c
    system = DeterminingSystem(unknowns, Q_ansatz=Q_ansatz)
    for key in sorted(rows, key=mono_sort_key):
        system.rows.append(rows[key])
        system.keys.append(key)
    return system


def _determining_expression(eq: EvolutionEquation, T: Expr, Q: Expr) -> Expr:
    """d E_u(dT/dt + G Q) for Q = E_u(T): E_u(reduce(D_t T)) in characteristic
    form, with no time jet and no replacement table.  d is the lcm of the
    denominators of G's coefficients, and the result is computed as
    E_u(d dT/dt + (d G) Q), so an ``int`` T keeps every step on ``int``
    coefficients.  For a rational-function G, d is read off its numerator
    and d G keeps G's denominator."""
    G = eq.G
    d = lcm(*(c.denominator for c in G.num.terms.values()))
    dG = Poly({m: c.numerator * (d // c.denominator) for m, c in G.num.terms.items()})
    dT = T.diff(TIME)
    return euler_operator(Expr._make(dT.num.scale(d), dT.den)
                          + Expr._make(dG, G.den) * Q)


def _on_shell_dt(T: Expr, table: ReplacementTable) -> Expr:
    """reduce(D_t T): the time derivative of T on the prolonged equation.

    Raises OrderOverflow when T has jet order >= the table's max order, as
    D_t T then holds time jets the table cannot eliminate."""
    order = spatial_jet_order(T)
    if order >= table.max_order:
        raise OrderOverflow(
            f"density has jet order {order} > {table.max_order - 1}: its time "
            f"derivative needs the equation prolonged past the order limit "
            f"{table.max_order}")
    return reduce_to_spatial(total_derivative(T, 0), table)


def linear_columns(E: Expr, unknowns: list[Symbol]) -> list[dict]:
    """E, linear homogeneous in the ansatz unknowns, as sparse columns:
    column k maps each monomial in the base and jet variables to its
    coefficient in E at unknowns[k]."""
    if not E.is_polynomial:
        raise NotPolynomialIn(E.den.symbols())
    col = {c: k for k, c in enumerate(unknowns)}
    columns: list[dict] = [{} for _ in unknowns]
    for mono, c in E.num.terms.items():
        outside = [p for p in mono if p[0].kind not in (BASE, JET)]
        if len(outside) != 1 or outside[0][1] != 1 or outside[0][0] not in col:
            raise InvariantViolation(
                "expression is not linear homogeneous in the ansatz unknowns")
        columns[col[outside[0][0]]][tuple(p for p in mono if p is not outside[0])] = c
    return columns


def combine(columns: list[dict], vec: list[Fraction]) -> Expr:
    """sum_k vec[k] * columns[k] as a polynomial, over the nonzero vec[k]."""
    acc: dict = {}
    for k, v in enumerate(vec):
        if not v:
            continue
        for mono, c in columns[k].items():
            got = acc.get(mono)
            acc[mono] = v * c if got is None else got + v * c
    return Expr._make(Poly({m: c for m, c in acc.items() if c}), Poly.one())


def solve_exact(system: DeterminingSystem) -> list[list[Fraction]]:
    """Basis of the null space, by exact Gaussian elimination with
    deterministic pivoting (first nonzero column in the unknown order)."""
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
    return _flux(_on_shell_dt(T, build_replacement_table(eq, ORDER_GUARD)), eq.n)


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
    return _balances(_on_shell_dt(law.T, build_replacement_table(eq, ORDER_GUARD)),
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
    its density is sum_k v_k m_k.  Trivial laws (characteristic 0) are
    dropped; a law is kept only when its characteristic is linearly
    independent of those already kept; each law is scaled so its
    characteristic is monic.  Every null-space density has a flux,
    reconstructed by exact divergence inversion.  Every returned law
    satisfies the conservation identity exactly and has characteristic of
    jet order <= 2.  Q_ansatz = E_u(T_ansatz) is computed once, for the
    assembly and the characteristics.  Each law's on-shell D_t T is
    computed once, from the one replacement table, and serves both its flux
    and its identity check; the table is built only when the first law is
    kept."""
    spec = spec or AnsatzSpec()
    if not force and parabolicity_check(eq) is Parabolicity.NOT_PARABOLIC:
        raise NotParabolicEquation(
            "symbol is not parabolic at the reference jet; pass force=True to proceed")
    T_ansatz, unknowns = generate_ansatz(eq, spec)
    system = assemble_determining_system(eq, T_ansatz, spec.max_jet_order)
    basis = solve_exact(system)
    densities = linear_columns(T_ansatz, unknowns)
    characteristics = linear_columns(system.Q_ansatz, unknowns)
    kept = linalg.Echelon()
    table: ReplacementTable | None = None
    laws: list[ConservationLaw] = []
    for vec in basis:
        Q = combine(characteristics, vec)
        if Q.is_zero:
            continue  # density is a spatial divergence: trivial
        if not kept.add(Q.num.terms):
            continue  # Q is a combination of the characteristics already kept
        scale = Fraction(1) / Q.num.leading()[1]
        T, Q = combine(densities, vec) * scale, Q * scale
        if table is None:
            table = build_replacement_table(eq, ORDER_GUARD)
        R = _on_shell_dt(T, table)
        try:
            X = _flux(R, eq.n)
        except FluxReconstructionFailed as exc:
            raise InvariantViolation(
                f"null-space density has no flux: T = {T}") from exc
        law = ConservationLaw(T, X, Q)
        if jacobi_potential_order(law) > 2:
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
