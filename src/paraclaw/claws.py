"""Conservation-law search on second-order density ansaetze.

The pipeline: enumerate a polynomial density ansatz T in the base
coordinates and spatial jets of order <= 2 (the order bound is licensed by
the structure theory -- characteristics of evolutionary parabolic
equations depend on at most second derivatives); keep only the monomials
whose characteristics are independent, so that no trivial law is ever
solved for; assemble the determining system in characteristic form; solve
the system exactly; reconstruct fluxes by divergence inversion.  On a
polynomial G whose symbol sigma is not 0, where the bound is a theorem,
the auxiliary equation's top-order term 2 sigma D_xi Q + q Q decides the
search (:func:`find_conservation_laws`): where the symbol's quartic form
q is 0 it forces every characteristic to be a function of (t, x, u), and
the search keeps only the pure-u columns t^b x^a u^k, read off with no
plan; where q is not 0 it forces every characteristic to be 0, and there
is no law and no search.  The ansatz is linear in its coefficients, so it
is held as columns from start to finish: one ``int`` term dict per
monomial for its density and one for its characteristic, computed only
where the columns are generated, and one determining-system column per
kept monomial, assembled from that characteristic.

Characteristic form.  On u_t = G the on-shell time derivative is
reduce(D_t T) = dT/dt + sum_J (D_J G) dT/du_J, and integrating each term by
parts gives reduce(D_t T) = dT/dt + G Q + Div(...) with Q = E_u(T) (Olver,
GTM 107; Anco & Bluman 2002).  E_u kills divergences and commutes with
d/dt, so the determining system is dQ/dt + E_u(G Q) = 0, on solutions
D_t Q + l*_G(Q) = 0 (l_Q is self-adjoint): the auxiliary equation of every
characteristic, in Q alone.  It is assembled written out, with total
derivatives and products only: E_u(G Q) = l_Q(G) + l*_G(Q) for a
characteristic Q (Helmholtz: l*_Q = l_Q), and l*_G(Q) = sum_L A_L D_L Q
with |L| <= 2 and the A_L built from G alone, so no Euler operator walks
the product G Q.  G must be a polynomial there.  Every other step
evaluates reduce(D_t T) in that closed form and integrates nothing by
parts: an independent second route to the identity.  The search extracts
each law on ``int`` term dicts, as d reduce(D_t T) = d dT/dt + l_T(d G),
with D_J(d G) built by prefix as in the assembly, and inverts it with the
integer homotopy core of :mod:`paraclaw.jets`; ``verify`` and
``reconstruct_flux``, whose T may be rational, read D_J G off a
replacement table of Exprs; both memos are a :class:`~paraclaw.jets.Prolonged`
by J.  On term dicts, every sum and product and the clearing of G's
denominators run through the raw-term kernel of :mod:`paraclaw.expr`
(``_add_terms``, ``_add_product``, ``_cleared``).

Sign convention: D_t T + Div X = 0 on solutions.  Laws are identified by
their characteristics Q = E_u(T) (densities differing by a spatial
divergence share Q) and reported with Q scaled monic under the global
monomial order.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from . import linalg
from .expr import (
    JET, MAX_TERMS, TIME, Expr, FrozenValue, Monomial, NotPolynomialIn, Poly, Value,
    _add_product, _add_terms, _cleared, _exponent, _shifted, base_var, jet_var,
)
from .jets import (
    ORDER_GUARD, NotInDivergenceImage, OrderOverflow, Prolonged,
    TimeJetPresent, _add_total_derivative, _derivative_terms, _euler_terms,
    _jet_partials, _homotopy, _over,
    bounded_monomials, build_replacement_table, has_time_jets,
    invert_divergence, spatial_jet_order, spatial_jet_vars, total_derivative,
)
from .parabolic import EvolutionEquation, InvariantViolation, MAReport, Parabolicity, \
    ma_classify

__all__ = [
    "AnsatzTooLarge", "FluxReconstructionFailed", "NotParabolicEquation",
    "InvariantViolation",
    "AnsatzSpec", "ConservationLaw", "DeterminingSystem",
    "generate_ansatz", "assemble_determining_system",
    "solve_exact", "check_ansatz_size", "check_density_order",
    "find_conservation_laws", "verify",
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
                         "pass --force (force=True in the API) to proceed")


class AnsatzSpec(FrozenValue):
    """Bounds for the density ansatz.

    ``max_jet_order`` is capped at 2 -- the proven search space -- unless
    ``unsafe_order`` is set (useful only to confirm experimentally that
    nothing new appears at order 3), and is always below ORDER_GUARD: the
    on-shell time derivative of a kept law is refused from that order on.
    """

    __slots__ = ("max_jet_order", "jet_degree", "base_degree", "unsafe_order")

    def __init__(self, max_jet_order: int = 2, jet_degree: int = 1, base_degree: int = 0,
                 unsafe_order: bool = False) -> None:
        if min(max_jet_order, jet_degree, base_degree) < 0:
            raise ValueError("ansatz bounds must be non-negative")
        if max_jet_order > 2 and not unsafe_order:
            raise ValueError(
                "max_jet_order > 2 needs unsafe_order=True (--unsafe-order)")
        if max_jet_order >= ORDER_GUARD:
            raise ValueError(f"max_jet_order {max_jet_order} reaches the order "
                             f"limit ORDER_GUARD = {ORDER_GUARD}")
        self._set(max_jet_order, jet_degree, base_degree, unsafe_order)


class ConservationLaw(FrozenValue):
    """Density T, spatial fluxes X, and characteristic Q = E_u(T); all
    purely spatial."""

    __slots__ = ("T", "X", "Q")

    def __init__(self, T: Expr, X: tuple[Expr, ...], Q: Expr) -> None:
        self._set(T, X, Q)


class DeterminingSystem(Value):
    """Exact homogeneous linear system in the coefficients of ``ncols``
    density columns.

    One row per monomial in the base and jet variables of
    sum_k v_k (dQ_k/dt + E_u(G Q_k)), Q_k = E_u(T_k), scaled by the lcm d
    of the denominators of G; ``rows`` are sparse {column index: ``int``
    coefficient}, and ``keys[i]`` is the monomial of ``rows[i]``.  Rows
    come in the order their keys are first met, column by column, and are
    not sorted (the reduced row echelon form, and so the null space, is the
    same under any row order); so the smallest column of each row is the
    column that first met its key, and these columns never decrease down
    the rows."""

    __slots__ = ("ncols", "rows", "keys")

    def __init__(self, ncols: int, rows: list[dict] | None = None,
                 keys: list[Monomial] | None = None) -> None:
        self._set(ncols, [] if rows is None else rows, [] if keys is None else keys)

    @property
    def num_equations(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Ansatz generation and determining system
# ---------------------------------------------------------------------------

def generate_ansatz(n: int, spec: AnsatzSpec) -> tuple[list[dict], list[dict]]:
    """The density ansatz as two parallel lists of ``int`` term dicts, one
    column per monomial m_k within the bounds in n space dimensions:
    ``densities[k]`` is m_k and ``characteristics[k]`` is E_u(m_k).

    Monomials are products of a base monomial in {t, x^1..x^n} (joint total
    degree <= base_degree) and a jet monomial in the spatial jets of order
    <= max_jet_order (total degree <= jet_degree).  The monomials are
    counted before any is built (:func:`check_ansatz_size`).  E_u commutes
    with multiplication by t, so E_u(t^b m) = t^b E_u(m): one raw Euler walk
    per t-free monomial m gives the characteristics of all its t^b multiples,
    each key shifted by t^b.  Every returned dict is new."""
    check_ansatz_size(n, spec)
    base_syms = [base_var(a) for a in range(n + 1)]
    jet_syms = spatial_jet_vars(n, spec.max_jet_order)
    base_monos = bounded_monomials(base_syms, spec.base_degree)
    jet_monos = bounded_monomials(jet_syms, spec.jet_degree)
    densities = [{bm + jm: 1} for jm in jet_monos for bm in base_monos]
    characteristics = []
    walks: dict = {}  # t-free m -> E_u(m)
    for (m,) in densities:
        b = _exponent(m, TIME)
        m -= b * TIME.unit
        Q = walks.get(m)
        if Q is None:
            Q = walks[m] = _euler_terms({m: 1})
        characteristics.append(_times_t(Q, b))
    return densities, characteristics


def check_ansatz_size(n: int, spec: AnsatzSpec) -> None:
    """Raise AnsatzTooLarge when the ansatz of these bounds in n space
    dimensions has more than MAX_TERMS monomials, counted, not built: there
    are C(n+r, r) jets of order <= r, and C(k+d, d) monomials of degree
    <= d in k symbols."""
    jet_count = comb(n + spec.max_jet_order, spec.max_jet_order)
    count = (comb(n + 1 + spec.base_degree, spec.base_degree)
             * comb(jet_count + spec.jet_degree, spec.jet_degree))
    if count > MAX_TERMS:
        raise AnsatzTooLarge(f"{count} monomials exceed MAX_TERMS = {MAX_TERMS}")


def _pure_u_columns(n: int, spec: AnsatzSpec) -> tuple[list[dict], list[dict]]:
    """The density and characteristic columns of the pure-u monomials
    t^b x^a u^k of the ansatz of these bounds in n space dimensions,
    1 <= k <= jet_degree and deg(t^b x^a) <= base_degree, in column order:
    k first, then the base monomials as :func:`generate_ansatz` orders
    them.  Each characteristic E_u(t^b x^a u^k) = k t^b x^a u^(k-1) is
    read off.  The caller checks the size (:func:`check_ansatz_size`)."""
    base_monos = bounded_monomials([base_var(a) for a in range(n + 1)], spec.base_degree)
    u = jet_var().unit
    powers = range(1, spec.jet_degree + 1)
    return ([{bm + k * u: 1} for k in powers for bm in base_monos],
            [{bm + (k - 1) * u: k} for k in powers for bm in base_monos])


def _plan(n: int, spec: AnsatzSpec) -> tuple[list[dict], list[dict]]:
    """(densities, characteristics) of the columns the search keeps, for
    the ansatz of these bounds in n space dimensions: those whose
    characteristic is independent of those of the earlier columns, in
    column order.  Only a search on a symbol of 0 or with ``unsafe_order``
    reads the plan (:func:`find_conservation_laws`)."""
    densities, characteristics = generate_ansatz(n, spec)
    pivots = linalg.Echelon()
    keep = [k for k, Q in enumerate(characteristics) if pivots.add(Q)]
    return [densities[k] for k in keep], [characteristics[k] for k in keep]


def assemble_determining_system(eq: EvolutionEquation, densities: Sequence[dict],
                                characteristics: Sequence[dict]) -> DeterminingSystem:
    """The linear determining equations of the one-term ``int`` density
    columns T_k = {t^b m: 1} and their characteristics Q_k = E_u(T_k), in
    parallel lists of one length (ValueError otherwise), as from
    :func:`generate_ansatz`: the coefficient of every monomial in the base
    and jet variables of sum_k v_k d (dQ_k/dt + E_u(G Q_k)) =
    sum_k v_k d E_u(reduce(D_t T_k)) (see the module docstring).

    Each column's expression is d dQ/dt + l_Q(d G) + sum_L A_L D_L Q, from
    the auxiliary equation, which holds only for a characteristic: E_u(f g)
    = l*_f(g) + l*_g(f) for any f and g, and Helmholtz gives l*_Q = l_Q for
    Q = E_u(T) (Olver, GTM 107), so E_u((d G) Q) = l_Q(d G) + l*_{dG}(Q).
    No Euler operator runs: each Q is given.  d, the lcm of the
    denominators of G's coefficients, keeps every step on ``int``
    coefficients; it changes neither the null space nor the reduced rows.
    The D_J(d G) memo and the A_L of l*_{dG} are built once for all
    columns, and no replacement table is built.  Multiplying by t commutes
    with every D_i, d/du_J and product, so for T = t^b m, Q = t^b E_u(m),
    the expression is t^b S_m + d b t^(b-1) E_u(m), with
    S_m = l_Q(d G) + sum_L A_L D_L Q for Q = E_u(m), for any G: S_m is
    built once per distinct m, from the first such Q with t^b shifted off,
    the prolongation memo of E_u(m) and one pass for the dQ/du_J.

    With no columns the system is empty on any G.  Otherwise a
    rational-function G raises NotPolynomialIn before any assembly, naming
    the jets of G.den, or all its symbols when it has none."""
    columns = list(zip(densities, characteristics, strict=True))
    if not columns:
        return DeterminingSystem(0)
    G = eq.G
    if not G.is_polynomial:
        raise _not_polynomial(G)
    d, (dG,) = _cleared([G.num.terms])
    D_G = _prolongations(dG)
    A = _adjoint_coefficients(dG)
    spatial: dict = {}  # t-free m -> (S_m, E_u(m))
    rows: dict = {}
    for k, ((m,), Q) in enumerate(columns):
        b = _exponent(m, TIME)
        m -= b * TIME.unit
        got = spatial.get(m)
        if got is None:
            D_Q = _prolongations(_times_t(Q, -b))
            Q = D_Q[()]
            S: dict = {}
            _add_contraction(S, _jet_partials(Q), D_G)
            _add_contraction(S, A, D_Q)
            got = spatial[m] = S, Q
        E, Q = got
        if b:  # t^b S_m + d d/dt (t^b Q) = t^b S_m + d b t^(b-1) Q
            E = _times_t(E, b)
            _add_terms(E, _times_t(Q, b - 1), d * b)
        for key, c in E.items():
            rows.setdefault(key, {})[k] = c
    return DeterminingSystem(len(columns), list(rows.values()), list(rows))


def _not_polynomial(G: Expr) -> NotPolynomialIn:
    """The refusal of a search on the rational-function G: it names the
    jets of G.den, or all its symbols when it has none."""
    return NotPolynomialIn([s for s in G.den.symbols() if s.kind == JET] or G.den.symbols())


def _times_t(terms: dict, b: int) -> dict:
    """The terms of t^b p, for the polynomial p with these terms; for
    b < 0, every term of p must hold t^-b.  For b = 0, terms itself."""
    return _shifted(terms, b * TIME.unit) if b else terms


def _add_contraction(out: dict, a: dict[tuple[int, ...], dict], D_b: dict) -> None:
    """out += sum_J a_J D_J b in place, for the terms a_J of polynomials by
    the index word J and the :func:`_prolongations` memo D_b of the purely
    spatial polynomial b.  With a_J = dQ/du_J (:func:`jets._jet_partials`
    of Q) this is the linearization l_Q(b); with the
    :func:`_adjoint_coefficients` A_L of f it is the adjoint l*_f(b)."""
    for J, a_J in a.items():
        _add_product(out, a_J, D_b[J])


def _adjoint_coefficients(f: dict) -> dict[tuple[int, ...], dict]:
    """The coefficients A_L of l*_f(Q) = sum_J (-D)_J(f_J Q) = sum_L A_L D_L Q,
    f_J = df/du_J, for the purely spatial polynomial with terms f, by the
    index word L, zeros dropped.  By the Leibniz rule each split of the word
    J into L and the rest adds (-1)^|J| D_rest(f_J) to A_L, so the A_L come
    from f alone and have |L| <= 2 when f has jet order <= 2."""
    A: dict = {}
    for J, f_J in _jet_partials(f).items():
        D_f_J = _prolongations(f_J)
        sign = -1 if len(J) % 2 else 1
        for split in range(1 << len(J)):
            L = tuple(a for k, a in enumerate(J) if split >> k & 1)
            rest = tuple(a for k, a in enumerate(J) if not split >> k & 1)
            _add_terms(A.setdefault(L, {}), D_f_J[rest], sign)
    return {L: A_L for L, A_L in A.items() if A_L}


def _prolongations(terms: dict) -> Prolonged:
    """The memo of the terms of D_J p, by the word J, for the polynomial p
    with these terms."""
    return Prolonged(terms, _derivative_terms)


def _on_shell_dt(T: Expr, table: Prolonged) -> Expr:
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
            R = R + p.diff(s) * table[s.spatial]
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


def solve_exact(system: DeterminingSystem) -> list[dict]:
    """Basis of the null space as sparse vectors {column: Fraction}, by
    exact Gaussian elimination with deterministic pivoting (first nonzero
    column in column order).

    The null space is the same under any row order, so the rows are fed to
    the elimination in an order that keeps it cheap.  First, for each
    distinct smallest column, in decreasing order, its sparsest row: each
    has its pivot below every kept one, so they are independent, and a
    system of full rank stops after them (``linalg.nullspace`` stops at
    full rank).  Then the other rows, last-first: in assembly order a row's
    smallest column is the column that first met its key, so a new pivot
    again mostly lies below the kept ones.  Each row is reduced forward
    only, and the kept rows are back-substituted once, at the end.  Zero
    rows are skipped."""
    leaders: dict = {}  # smallest column -> its sparsest row
    rest = []
    for row in reversed(system.rows):
        if not row:
            continue
        k = min(row)
        lead = leaders.get(k)
        if lead is None or len(row) < len(lead):
            leaders[k], row = row, lead
        if row is not None:
            rest.append(row)
    order = [leaders[k] for k in sorted(leaders, reverse=True)] + rest
    return linalg.nullspace(order, system.ncols)


# ---------------------------------------------------------------------------
# Laws
# ---------------------------------------------------------------------------

def jacobi_potential_order(law: ConservationLaw) -> int:
    """Largest jet order in the (already spatial) characteristic."""
    return spatial_jet_order(law.Q)


def reconstruct_flux(eq: EvolutionEquation, T: Expr) -> tuple[Expr, ...]:
    """Fluxes X with D_t T + Div X = 0 on solutions."""
    try:
        return invert_divergence(-_on_shell_dt(T, build_replacement_table(eq)), eq.n)
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


def _balanced(R: dict, L: int, LX: list[dict]) -> bool:
    """L R == sum_i D_i (L X^i), exactly, for the polynomial R and the
    scaled fluxes L X^i of :func:`jets._homotopy` with these terms: the
    search's identity check, on raw terms."""
    residual: dict = {}
    _add_terms(residual, R, L)
    for i, LXi in enumerate(LX, start=1):
        _add_total_derivative(residual, LXi, i, -1)
    return not residual


def _combination(columns: Sequence[dict], vec: dict) -> dict:
    """The terms of sum_k vec[k] columns[k], for a sparse null vector
    {k: integral Fraction} and ``int`` columns: an ``int`` polynomial."""
    acc: dict = {}
    for k, v in vec.items():
        _add_terms(acc, columns[k], v.numerator)
    return acc


def find_conservation_laws(eq: EvolutionEquation, spec: AnsatzSpec | None = None,
                           force: bool = False) -> list[ConservationLaw]:
    """All conservation laws within the ansatz bounds, up to equivalence.

    E_u is linear, so the characteristic of every null vector v is M v,
    with M the columns E_u(m_k) of :func:`generate_ansatz`, and its density
    is sum_k v_k m_k.  E_u kills exactly the divergences, so densities with
    the same characteristic are the same law.  The search therefore first
    keeps only the ansatz monomials m_k whose characteristic E_u(m_k) is
    linearly independent of those of the earlier monomials, in column
    order (a monomial with E_u(m_k) = 0 is dropped; the kept columns
    depend on n and the bounds alone, :func:`_plan`), and assembles, from
    the kept columns of M alone, and solves the determining system of that
    restricted ansatz.  M is injective there, so each null vector is one
    law: a vector whose characteristic is 0 or dependent on the kept ones
    is an InvariantViolation.  The laws are
    those the full ansatz gives after dropping trivial and dependent null
    vectors, in the same order: E_u(dT/dt) = d/dt E_u(T), so ker M lies in
    the null space, and the null vector of each free column that is not a
    pivot of M has a characteristic that depends on those of earlier null
    vectors.

    Let N be the null space and sigma = D_xi G and q = D_xi sigma the
    symbol and its quartic form, D_xi = sum_{i <= j} xi_i xi_j d/du_ij.  On
    a polynomial G with sigma != 0 (G of order 2: strictly or weakly
    parabolic, or, with force, not parabolic) the characteristic of every
    law has jet order <= 2, the paper's order bound, here with no use of
    definiteness, and the auxiliary equation's top-order term then decides
    the search with no plan:

    0. The order bound.  Let Q = M v have order r >= 3.  The jets of order
       r + 2 in dQ/dt + l_Q(G) + l*_G(Q) come only from
       sum_{|J| = r} Q_{u_J} G_{u_kl} u_{J+kl}, twice: once from l_Q(G)
       and once from G_{u_kl} D_k D_l Q in l*_G(Q).  Every other term has
       order <= r + 1: dQ/dt has order r; D_J G has order <= r + 1 for
       |J| < r, and so have the other terms of D_J G for |J| = r and of
       D_k D_l Q; D_k(G_{u_kl}) D_l Q and the terms of l*_G(Q) from
       G_{u_k} and G_u have order <= max(3, r + 1); and
       D_k D_l(G_{u_kl}) Q has order <= max(4, r), below r + 2 only as
       r >= 3.  The u_K of order r + 2 enter linearly, with coefficients
       of order <= r, so on a null vector each coefficient is 0.  Read
       with xi^a <-> u_a, that part is 2 sigma P_Q, where
       P_Q = sum_{|J| = r} Q_{u_J} xi^J is the principal symbol of l_Q.  The polynomials in xi over the
       polynomials in (t, x) and the jets form an integral domain, and
       sigma != 0 and P_Q != 0 (Q has order r), so 2 sigma P_Q != 0: a
       contradiction.  So r <= 2, and steps 1-4 use only sigma != 0.

    Where q = 0 (``MAReport.minor_affine``), N lies in the span of the
    pure-u columns t^b x^a u^k, and the search assembles those alone
    (:func:`_pure_u_columns`):

    1. The top-order term.  For a characteristic Q of order <= 2, the
       order-4 part of dQ/dt + l_Q(G) + l*_G(Q) comes only from
       Q_{u_ij} D_i D_j G, G_{u_kl} D_k D_l Q and Q D_k D_l(G_{u_kl}), and
       it is 2 sigma D_xi Q + q Q, read with xi^a <-> u_a.  On a null
       vector it is 0.  With q = 0 and sigma != 0 this gives D_xi Q = 0,
       in the same integral domain, so Q holds no u_ij and has order
       <= 1.  Q is E_u of a density, so its linearization l_Q is
       self-adjoint (the Helmholtz conditions; Olver, GTM 107, ch. 5); the
       principal symbol of the adjoint of a scalar operator of order r is
       (-1)^r times its own, so Q has even order: Q = Q(t, x, u).
    2. The density.  E_u maps the part of jet degree k to jet degree k - 1
       and does not raise the degree in (t, x), so T' = integral of Q du
       lies in the span of the pure-u columns, and E_u(T - T') = 0.
    3. The same basis.  u^k is the first jet monomial of its degree, so
       every pure-u column is kept, and T' is M v' for a v' on them.  M is
       injective on the kept columns, so the null vector v of T is v', and
       N lies in the span of the pure-u columns.  The null space of their
       system is N restricted to that span, so N itself, and
       ``linalg.nullspace``'s basis, which depends only on the space and
       the column order, is that of the search on every kept column.

    Where q != 0, N = 0, and the search returns no law with no system:

    4. No characteristic.  Fix a jet point U and a direction xi, and let
       g(s) = G(U + s xi xi^T), moving each u_ij by s xi_i xi_j.  Along
       that line d/ds = D_xi, so g' = sigma and g'' = q there, and the
       top-order term of step 1 reads 2 g' Q' + g'' Q = 0, which times Q
       is (g' Q^2)' = 0: g' Q^2 is constant in s.  G is a polynomial, and
       where q(U, xi) != 0, g' is a polynomial in s of degree >= 1, so the
       polynomial Q must vanish on the whole line, at U too.  q is a
       nonzero polynomial, so it is not 0 on an open set of (U, xi), and
       Q vanishes at every U of that set, an open set of jet points:
       Q = 0.  M is injective on the kept columns, so v = 0.  On a G that
       is not of Monge-Ampere type q != 0, so this decides every input of
       the paper's corollary too: only equations of Monge-Ampere type have
       a nontrivial law (:func:`cross_validate_ma`).

    The size check runs once, after the parabolicity refusal and before
    any route is chosen, so AnsatzTooLarge is raised at the same bounds on
    every route, before sigma or q is read.  A rational G has no
    determining system (the assembly needs a polynomial), so it is refused
    with no ansatz built, unless jet_degree is 0: then every column's
    characteristic is 0, none is kept and there is no law.  (With a jet,
    the column u, whose characteristic is 1, is kept.)  The symbol's class
    is read only to refuse a symbol that is not parabolic without force.
    The routes' cheap tests come first: G a polynomial, then
    ``unsafe_order``; only then are sigma and q read off the equation,
    which computes each once (``EvolutionEquation.symbol`` and
    ``quartic``).  A symbol of 0 (G of order <= 1, which the classifier
    calls weak) and ``unsafe_order``, where the order bound does not hold
    or is under test, search every kept column of the plan.
    :func:`_laws_of_columns` extracts the laws."""
    spec = spec or AnsatzSpec()
    if not force and eq.parabolicity is Parabolicity.NOT_PARABOLIC:
        raise NotParabolicEquation()
    check_ansatz_size(eq.n, spec)
    if not eq.G.is_polynomial:
        if spec.jet_degree:
            raise _not_polynomial(eq.G)
        return []
    if not spec.unsafe_order and not eq.symbol.is_zero:
        if eq.quartic.is_zero:
            return _laws_of_columns(eq, *_pure_u_columns(eq.n, spec))
        return []
    return _laws_of_columns(eq, *_plan(eq.n, spec))


def _laws_of_columns(eq: EvolutionEquation, densities: Sequence[dict],
                     characteristics: Sequence[dict]) -> list[ConservationLaw]:
    """The laws of the determining system of these kept density columns
    and their characteristics, one per null vector, in the null space's
    order (see :func:`find_conservation_laws`).

    Each law is scaled so its characteristic is monic.  Every null-space
    density has a flux, reconstructed by exact divergence inversion.
    Every returned law satisfies the conservation identity exactly.  A
    characteristic of jet order > 2 is an InvariantViolation wherever the
    symbol is not 0, where the order bound is a theorem: an
    ``unsafe_order`` search, which tests the bound, and the pure-u route
    reach it.  On a symbol of 0 (G of order <= 1) the law is kept.

    Each law is extracted on ``int`` term dicts, and only the finished law
    becomes an Expr: the null vector's characteristic Q and density T are
    ``int`` combinations of the kept columns;
    R = d reduce(D_t T) = d dT/dt + l_T(d G), with each D_J(d G) read off
    one prolongation memo per search (no replacement table is built); the
    homotopy core inverts R to (L, L X) and the identity
    L R = sum_i D_i (L X^i) is checked exactly.  The reported law is T and
    Q over Q's leading coefficient c, and the fluxes -(L X^i) / (c d L),
    with ``Fraction`` coefficients."""
    basis = solve_exact(assemble_determining_system(eq, densities, characteristics))
    kept = linalg.Echelon()
    laws: list[ConservationLaw] = []
    d, (dG,) = _cleared([eq.G.num.terms])  # G is a polynomial: a rational one has no search
    D_G = _prolongations(dG)
    for vec in basis:
        Q = _combination(characteristics, vec)
        if not kept.add(Q):
            raise InvariantViolation("null vector with zero or dependent characteristic")
        lead = Poly(Q).leading()[1]
        T = _combination(densities, vec)
        R: dict = {}  # d reduce(D_t T) = d dT/dt + l_T(d G)
        _add_terms(R, Poly(T).diff(TIME).terms, d)
        _add_contraction(R, _jet_partials(T), D_G)
        T_law = _over(T, lead)
        try:
            L, LX = _homotopy(R, eq.n)
        except NotInDivergenceImage as exc:
            raise InvariantViolation(
                f"null-space density has no flux: T = {T_law}") from exc
        law = ConservationLaw(T_law, tuple(_over(LXi, -lead * d * L) for LXi in LX),
                              _over(Q, lead))
        if jacobi_potential_order(law) > 2 and not eq.symbol.is_zero:
            raise InvariantViolation(
                f"characteristic of jet order > 2 found: {law.Q}")
        if not _balanced(R, L, LX):
            raise InvariantViolation(f"reconstructed flux fails to verify for T = {T_law}")
        laws.append(law)
    return laws


def cross_validate_ma(eq: EvolutionEquation, laws: list[ConservationLaw],
                      report: MAReport | None = None) -> None:
    """Check the paper's corollary on the laws of a search: only equations
    of Monge-Ampere type have a nontrivial law, so a law forces n1_affine
    for n = 1 and a vanishing traceless residue for n >= 2.  A law on an
    equation where that verdict is False is an implementation bug, raised
    as InvariantViolation; a True or undecided (None, a singular symbol)
    verdict excludes nothing.

    ``report`` is the reported ``ma_classify(eq)``, pointwise or symbolic;
    it is computed here, pointwise, when not given."""
    if not laws:
        return
    if report is None:
        report = ma_classify(eq)
    which = "n1_affine" if eq.n == 1 else "residue_vanishes"
    if getattr(report, which) is False:
        raise InvariantViolation(f"MA cross-validation violated: {len(laws)} nontrivial "
                                 f"law(s) but {which} is false")
