"""Classifier tests: symbol forms, parabolicity verdicts, the quartic form,
minor affinity (with a minor-basis oracle), and the traceless residue (with
a polynomial-division oracle)."""

import inspect
import itertools
import random
import time
from fractions import Fraction

import pytest

from paraclaw import parabolic
from paraclaw.expr import DivisionByZeroExpr, Expr, Poly, ZERO, base_var, divexact, jet_var
from paraclaw.grammar import parse
from paraclaw.parabolic import (
    EvolutionEquation, Parabolicity, PreconditionSpatialDim, SingularSymbol,
    ma_classify, ma_traceless_residue,
    parabolicity_check, quartic_form, symbol_form, xi_symbols,
)
from util import (
    harmonic_split, jet, random_poly, rank, reference_harmonic_split, residue_decomposition,
    suite_parabolicity_equivalence,
    suite_quartic_equivalence,
    suite_residue_equivalence, suite_split_equivalence, symbol_matrix, symbol_matrix_at,
    symbol_quadratic, u, u11, u12, u22, ux, uxx, x,
)


XI1, XI2 = (Expr.symbol(s) for s in xi_symbols(2))
LAPLACIAN = u11 + u22
DET_HESS = u11 * u22 - u12 ** 2
LAP3 = jet(1, 1) + jet(2, 2) + jet(3, 3)
DET_HESS3 = sum(
    (sign * jet(*sorted((1, p[0]))) * jet(*sorted((2, p[1]))) * jet(*sorted((3, p[2])))
     for p, sign in (((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1),
                     ((1, 3, 2), -1), ((3, 2, 1), -1), ((2, 1, 3), -1))),
    ZERO)


def det_hess_eq():
    return EvolutionEquation(2, DET_HESS,
                             {jet_var((1, 1)): 1, jet_var((2, 2)): 1})


class TestEvolutionEquation:
    def test_rejects_time_jets(self):
        with pytest.raises(ValueError):
            EvolutionEquation(1, Expr.symbol(jet_var((), 1)))

    def test_rejects_third_order(self):
        with pytest.raises(ValueError):
            EvolutionEquation(1, Expr.symbol(jet_var((1, 1, 1))))

    def test_names_the_lowest_bad_symbol(self):
        # u_t = u_xxx + u_xxxx: both jets are bad, u_111 sorts first
        with pytest.raises(ValueError, match=r"^G must have jet order <= 2 \(u_111\)$"):
            EvolutionEquation(1, jet(1, 1, 1) + jet(1, 1, 1, 1))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            EvolutionEquation(1, u22)
        with pytest.raises(ValueError):
            EvolutionEquation(1, uxx + Expr.symbol(base_var(2)))

    def test_rejects_n_below_one_and_auxiliary_symbols(self):
        with pytest.raises(ValueError, match=r"^spatial dimension n must be >= 1$"):
            EvolutionEquation(0, ZERO)
        xi1 = xi_symbols(2)[0]
        with pytest.raises(ValueError, match=rf"^G may not contain {xi1.kind} symbols \(xi1\)$"):
            EvolutionEquation(2, u11 + u22 + Expr.symbol(xi1))

    def test_reference_jet_binds_every_symbol(self):
        eq = EvolutionEquation(1, x * u * uxx, {jet_var(): Fraction(2)})
        assert eq.reference_jet[jet_var()] == 2
        assert eq.reference_jet[jet_var((1, 1))] == 0
        assert eq.reference_jet[base_var(1)] == 0
        assert set(eq.reference_jet) >= eq.G.symbols()


def reference_symbol_matrix(eq: EvolutionEquation) -> tuple:
    """The symbol matrix g at the reference jet: the matrix 2 s g of the
    terms of s sigma that eq.symbol_at_reference holds, int coefficients
    with a positive int scale s, divided by 2 s."""
    s, sigma = eq.symbol_at_reference
    assert type(s) is int and s > 0
    assert all(type(c) is int and c for c in sigma.values())
    return tuple(tuple(Fraction(v, 2 * s) for v in row)
                 for row in parabolic._matrix(sigma, eq.n, 0))


class TestSymbolForm:
    # sigma = D_xi G against the matrix of util.symbol_matrix, built entry
    # by entry from G.diff(u_ij)

    def test_heat(self):
        eq = EvolutionEquation(1, uxx)
        assert symbol_matrix(eq) == [[Expr.const(1)]]
        assert symbol_form(eq) == symbol_quadratic(symbol_matrix(eq)) == XI1 ** 2
        assert reference_symbol_matrix(eq) == ((1,),)

    def test_det_hessian_is_adjugate(self):
        eq = det_hess_eq()
        g = symbol_matrix(eq)
        assert g[0][0] == u22 and g[1][1] == u11
        assert g[0][1] == g[1][0] == -u12
        sigma = symbol_form(eq)
        assert sigma == symbol_quadratic(g) == u22 * XI1 ** 2 - 2 * u12 * XI1 * XI2 + u11 * XI2 ** 2
        assert sigma.substitute(eq.reference_jet) == XI1 ** 2 + XI2 ** 2
        assert reference_symbol_matrix(eq) == ((1, 0), (0, 1))

    def test_quasilinear_readoff(self):
        eq = EvolutionEquation(1, u * uxx, {jet_var(): 3})
        assert symbol_matrix(eq) == [[u]]
        assert symbol_form(eq) == symbol_quadratic(symbol_matrix(eq)) == u * XI1 ** 2
        assert reference_symbol_matrix(eq) == ((3,),)

    def test_sigma_matches_derivative_definition(self):
        rng = random.Random(23)
        hess = [jet_var((1, 1)), jet_var((1, 2)), jet_var((2, 2))]
        xi = xi_symbols(2)
        for _ in range(20):
            G = random_poly(rng, hess + [jet_var(), base_var(1)])
            eq = EvolutionEquation(2, G)
            sigma = symbol_form(eq)
            assert sigma == symbol_quadratic(symbol_matrix(eq))
            expected = ZERO
            for (i, j), s in (((1, 1), hess[0]), ((1, 2), hess[1]), ((2, 2), hess[2])):
                expected = expected + G.diff(s) \
                    * Expr.symbol(xi[i - 1]) * Expr.symbol(xi[j - 1])
            assert sigma == expected


class TestParabolicity:
    def test_heat_strict(self):
        assert parabolicity_check(EvolutionEquation(1, uxx)) is Parabolicity.STRICT

    def test_degenerate_at_zero_jet(self):
        eq = EvolutionEquation(1, uxx ** 2)
        assert parabolicity_check(eq) is Parabolicity.WEAK

    def test_backward_heat(self):
        assert parabolicity_check(EvolutionEquation(1, -uxx)) \
            is Parabolicity.NOT_PARABOLIC

    def test_reference_jet_matters(self):
        ref = {jet_var(): 1}
        assert parabolicity_check(EvolutionEquation(1, u * uxx)) is Parabolicity.WEAK
        assert parabolicity_check(EvolutionEquation(1, u * uxx, ref)) \
            is Parabolicity.STRICT

    def test_semidefinite_needs_all_principal_minors(self):
        # g = [[0, 0], [0, 1]] has leading minors 0, 0 but is PSD;
        # g = [[0, 1], [1, 0]] has the same leading minors and is indefinite.
        psd = EvolutionEquation(2, u22)
        indef = EvolutionEquation(2, u12)
        assert parabolicity_check(psd) is Parabolicity.WEAK
        assert parabolicity_check(indef) is Parabolicity.NOT_PARABOLIC

    def test_strict_2d(self):
        assert parabolicity_check(EvolutionEquation(2, LAPLACIAN)) \
            is Parabolicity.STRICT

    def test_matches_sylvester_and_principal_minors(self):
        counts = suite_parabolicity_equivalence()
        for verdict in Parabolicity:
            assert counts[verdict] >= 100
        assert counts["zero pivot", Parabolicity.WEAK] >= 50
        assert counts["zero pivot", Parabolicity.NOT_PARABOLIC] >= 50
        # symbols that depend on the jet, and rational G whose denominator
        # is negative there, at random rational reference jets
        assert {key: count for key, count in counts.items()
                if isinstance(key, tuple) and key[0] != "zero pivot"} == {
            ("jet", Parabolicity.STRICT): 39, ("jet", Parabolicity.WEAK): 109,
            ("jet", Parabolicity.NOT_PARABOLIC): 52, ("rational", Parabolicity.STRICT): 27,
            ("rational", Parabolicity.WEAK): 50, ("rational", Parabolicity.NOT_PARABOLIC): 23}


class TestQuarticForm:
    def test_heat_vanishes(self):
        assert quartic_form(EvolutionEquation(1, uxx)).is_zero

    def test_squared_second_derivative(self):
        q = quartic_form(EvolutionEquation(1, uxx ** 2))
        assert q == 2 * Expr.symbol(xi_symbols(1)[0]) ** 4

    def test_det_hessian_rank_one_direction(self):
        assert quartic_form(det_hess_eq()).is_zero

    def test_matches_unordered_pair_assembly(self):
        # q(xi) over the Hessian coordinates I <= J equals
        # sum_{I,J} d2G/du_I du_J xi^I xi^J over all ordered pairs
        rng = random.Random(31)
        hess = [jet_var((1, 1)), jet_var((1, 2)), jet_var((2, 2))]
        pair_of = {hess[0]: (1, 1), hess[1]: (1, 2), hess[2]: (2, 2)}
        xi = xi_symbols(2)

        def xi_pow(pair):
            i, j = pair
            return Expr.symbol(xi[i - 1]) * Expr.symbol(xi[j - 1])

        for _ in range(20):
            G = random_poly(rng, hess + [jet_var((1,)), base_var(0)])
            eq = EvolutionEquation(2, G)
            q = quartic_form(eq)
            assembled = ZERO
            for sI, sJ in itertools.product(hess, repeat=2):
                assembled = assembled + G.diff(sI).diff(sJ) \
                    * xi_pow(pair_of[sI]) * xi_pow(pair_of[sJ])
            assert q == assembled

    def test_matches_epsilon_derivative_reference(self):
        assert suite_quartic_equivalence() == {
            "seeded": 75, "n = 4": 15, "powers": 15, "quotients": 15}

    def test_reads_first_derivatives_off_the_symbol(self, monkeypatch):
        # D_xi walks G's numerator once, with no Poly.diff per Hessian
        # coordinate, for the symbol sigma = D_xi G, and q = D_xi sigma
        # reads sigma, not G
        eq = EvolutionEquation(2, LAPLACIAN + u11 ** 2 + u12 * u22 + u12 ** 3)
        walked = []
        real_derivation = parabolic._xi_derivation

        def recording_derivation(n):
            derive = real_derivation(n)

            def record(p):
                walked.append(p)
                return derive(p)
            return record

        def refused(self, s):
            raise AssertionError("Poly.diff ran")

        monkeypatch.setattr(parabolic, "_xi_derivation", recording_derivation)
        monkeypatch.setattr(Poly, "diff", refused)
        q = quartic_form(eq)
        assert len(walked) == 2
        assert walked[0] is eq.G.num and walked[1] is eq.symbol.num
        walked.clear()
        assert quartic_form(eq) == q
        assert len(walked) == 1 and walked[0] is eq.symbol.num


def minor_affine_oracle_2d(G: Expr) -> bool:
    """For constant-coefficient G in the Hessian entries only: solve the
    linear system expressing G in the minor basis {1, u_11, u_12, u_22, det}."""
    hess = [jet_var((1, 1)), jet_var((1, 2)), jet_var((2, 2))]
    basis = [Expr.const(1), u11, u12, u22, DET_HESS]
    monos = sorted({m for b in basis + [G] for m in b.num.terms})
    index = {m: i for i, m in enumerate(monos)}

    def vec(e):
        return {index[m]: c for m, c in e.num.terms.items()}

    rows = [vec(b) for b in basis]
    without = rank(rows, len(monos))
    with_g = rank(rows + [vec(G)], len(monos))
    return with_g == without


class TestMinorAffine:
    def test_heat(self):
        assert ma_classify(EvolutionEquation(1, uxx)).minor_affine

    def test_det_hessian_with_oracle(self):
        assert ma_classify(det_hess_eq()).minor_affine
        assert minor_affine_oracle_2d(DET_HESS)

    def test_laplacian_squared_fails_with_oracle(self):
        G = LAPLACIAN + LAPLACIAN ** 2
        eq = EvolutionEquation(2, G)
        assert not ma_classify(eq).minor_affine
        assert not minor_affine_oracle_2d(G)
        q = quartic_form(eq)
        assert q == 2 * (XI1 ** 2 + XI2 ** 2) ** 2

    def test_oracle_agreement_on_constant_hessian_corpus(self):
        rng = random.Random(41)
        hess = [jet_var((1, 1)), jet_var((1, 2)), jet_var((2, 2))]
        for _ in range(25):
            G = random_poly(rng, hess)
            assert ma_classify(EvolutionEquation(2, G)).minor_affine \
                == minor_affine_oracle_2d(G)

    def test_congruence_invariance(self):
        # constant invertible spatial change of coordinates: Hessian entries
        # transform by congruence H -> S^T H S; minor-affinity is unchanged
        rng = random.Random(43)
        hess = {(1, 1): u11, (1, 2): u12, (2, 1): u12, (2, 2): u22}
        for _ in range(20):
            while True:
                S = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
                if S[0][0] * S[1][1] - S[0][1] * S[1][0] != 0:
                    break
            G = random_poly(rng, [jet_var((1, 1)), jet_var((1, 2)), jet_var((2, 2))])
            transformed = {}
            for (i, j) in ((1, 1), (1, 2), (2, 2)):
                acc = ZERO
                for k in (1, 2):
                    for l in (1, 2):
                        acc = acc + S[k - 1][i - 1] * S[l - 1][j - 1] * hess[(k, l)]
                transformed[jet_var((i, j))] = acc
            G2 = G.substitute(transformed)
            assert ma_classify(EvolutionEquation(2, G)).minor_affine \
                == ma_classify(EvolutionEquation(2, G2)).minor_affine


class TestTracelessResidue:
    def test_heat_2d_zero(self):
        assert ma_traceless_residue(EvolutionEquation(2, LAPLACIAN)).is_zero

    def test_laplacian_squared_divisible(self):
        eq = EvolutionEquation(2, LAPLACIAN + LAPLACIAN ** 2)
        q0, h, sigma = residue_decomposition(eq)
        assert q0.is_zero
        assert h == 2 * (XI1 ** 2 + XI2 ** 2)
        assert sigma == XI1 ** 2 + XI2 ** 2

    def test_anisotropic_not_divisible_division_oracle(self):
        eq = EvolutionEquation(2, LAPLACIAN + u11 ** 2)
        q0, _h, sigma = residue_decomposition(eq)
        assert not q0.is_zero
        # oracle: polynomial division remainder of q by sigma
        q = quartic_form(eq).substitute(eq.reference_jet)
        with pytest.raises(ValueError):
            divexact(q.num, sigma.num)

    def test_divisibility_iff_zero_residue(self):
        # q = sigma * (arbitrary quadratic) must give residue 0
        eq = EvolutionEquation(2, LAPLACIAN + (u11 + u22) * (u11 + 3 * u22))
        q0, h, sigma = residue_decomposition(eq)
        q = quartic_form(eq).substitute(eq.reference_jet)
        assert (q - sigma * h).is_zero == q0.is_zero
        assert q0.is_zero == (divexact_ok(q, sigma))

    def test_postcheck_decomposition_and_trace(self):
        from util import _trace_with
        from util import naive_invert_matrix as _invert_matrix
        for G in (LAPLACIAN + LAPLACIAN ** 2,
                  LAPLACIAN + u11 ** 2,
                  LAPLACIAN + u11 * u22,
                  2 * u11 + 3 * u22 + u12 + (u11 + 2 * u12) ** 2):
            eq = EvolutionEquation(2, G)
            q0, h, sigma = residue_decomposition(eq)
            q = quartic_form(eq).substitute(eq.reference_jet)
            assert (q - q0 - sigma * h).is_zero
            g = [[Expr.const(v) for v in row] for row in symbol_matrix_at(eq)]
            ginv = _invert_matrix(g)
            assert _trace_with(ginv, q0, xi_symbols(2)).is_zero

    def test_n1_rejected(self):
        with pytest.raises(PreconditionSpatialDim):
            ma_traceless_residue(EvolutionEquation(1, uxx))

    def test_singular_symbol(self):
        eq = EvolutionEquation(2, u11 ** 2 + u22 ** 2)  # g = 0 at zero jet
        with pytest.raises(SingularSymbol):
            ma_traceless_residue(eq)

    def test_symbolic_mode(self):
        # the residue is pointwise only; the symbolic verdict is
        # ma_classify's, which the Expr route's N = 0 decides alike
        assert list(inspect.signature(ma_traceless_residue).parameters) == ["eq"]
        for G, vanishes in ((LAPLACIAN + LAPLACIAN ** 2, True), (LAPLACIAN + u11 ** 2, False)):
            eq = EvolutionEquation(2, G)
            assert ma_classify(eq, symbolic=True).residue_vanishes is vanishes
            assert reference_harmonic_split(eq, symbolic=True)[0].is_zero is vanishes

    @pytest.mark.parametrize("source, vanishes", [
        ("n=3; u_t = u_11 + u_22 + u_33 + u_11*u_22*u_12 + u_33^2", False),
        ("n=3; u_t = u_11 + 2*u_22 + u_33 + 1/2*u_12*u_23 - u_1*u_13^2", False),
    ], ids=["cubic", "first_order_coefficient"])
    def test_bounded_on_n3(self, source, vanishes):
        # symbolically, normalizing N / D took 12 s on the first and did not
        # end in 100 s on the second; at the reference jet it is one scaling
        eq = parse(source).equation()
        start = time.perf_counter()
        q0 = ma_traceless_residue(eq)
        assert time.perf_counter() - start < 1.0
        assert q0.is_zero is vanishes is ma_classify(eq).residue_vanishes
        assert q0.is_polynomial and q0 == residue_decomposition(eq)[0]

    def test_matches_inverse_and_trace_equation_reference(self):
        assert suite_residue_equivalence() == {
            "naive route": 58, True: 31, False: 53, None: 2, "vanishing denominator": 2,
            ("random jet", True): 16, ("random jet", False): 25}

    def test_integer_split_matches_expr_route(self):
        assert suite_split_equivalence() == {
            ("corpus", "pointwise", "split", "strict"): 5,
            ("corpus", "symbolic", "split"): 5,
            ("pointwise", "pointwise", "singular", "not_parabolic"): 5,
            ("pointwise", "pointwise", "singular", "weak"): 3,
            ("pointwise", "pointwise", "split", "not_parabolic"): 24,
            ("pointwise", "pointwise", "split", "strict"): 13,
            ("rational", "pointwise", "singular", "weak"): 1,
            ("rational", "pointwise", "split", "not_parabolic"): 3,
            ("rational", "pointwise", "split", "strict"): 10,
            ("rational", "pointwise", "vanishing denominator"): 2,
            ("rational", "symbolic", "split"): 8,
            ("symbolic", "symbolic", "singular"): 3,
            ("symbolic", "symbolic", "split"): 20,
            ("verdict", True): 34,
            ("verdict", False): 54,
            ("verdict", None): 12,
            ("verdict", "vanishing denominator"): 2,
        }

    @pytest.mark.parametrize("G, ref, vanishes", [
        (LAP3 + DET_HESS3, {jet_var((i, i)): 1 for i in (1, 2, 3)}, True),
        (LAP3 + u11 ** 2, {}, False),
        (LAP3 + u11 * u22 * u12 + jet(3, 3) ** 2, {}, False),
    ], ids=["det_hessian", "anisotropic", "not_monge_ampere"])
    def test_symbolic_n3_agrees_with_random_points(self, G, ref, vanishes):
        # Schwartz-Zippel: a nonzero polynomial of the jet is nonzero at most
        # random rational points.  N = c det^2 q0 is built by ring operations
        # alone, so the symbolic N of the Expr route must specialize to the
        # package's pointwise one, and the pointwise residue must vanish at
        # every point exactly when the symbolic verdict says it vanishes
        eq = EvolutionEquation(3, G, ref)
        assert ma_classify(eq, symbolic=True).residue_vanishes is vanishes
        N = reference_harmonic_split(eq, symbolic=True)[0]
        rng = random.Random(53)
        checked = nonzero = 0
        for _ in range(12):
            point = {s: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for s in G.symbols()}
            eq_at_point = EvolutionEquation(3, G, point)
            at_point = ma_classify(eq_at_point)
            if at_point.singular_symbol:
                continue
            assert N.substitute(point) == harmonic_split(eq_at_point)[0]
            checked += 1
            nonzero += not at_point.residue_vanishes
        assert checked >= 8
        assert (nonzero == 0) == vanishes


def divexact_ok(a: Expr, b: Expr) -> bool:
    try:
        divexact(a.num, b.num)
        return True
    except ValueError:
        return False


class TestMAClassify:
    def test_burgers(self):
        rep = ma_classify(EvolutionEquation(1, uxx + u * ux))
        assert rep.minor_affine and rep.n1_affine
        assert rep.residue_vanishes is None

    def test_quadratic_in_uxx(self):
        rep = ma_classify(EvolutionEquation(1, uxx + uxx ** 2))
        assert rep.n1_affine is False and rep.minor_affine is False

    def test_n1_affine_is_second_uxx_derivative(self):
        # n = 1: q = G_{u_xx u_xx} xi^4, so both verdicts are one test
        s = jet_var((1, 1))
        for G, affine in ((uxx + u * ux, True), (uxx / (1 + ux ** 2), True),
                          (uxx ** 3, False), (u * uxx ** 2 + ux, False)):
            rep = ma_classify(EvolutionEquation(1, G))
            assert G.diff(s).diff(s).is_zero is affine
            assert rep.n1_affine is rep.minor_affine is affine

    def test_det_hessian(self):
        rep = ma_classify(det_hess_eq())
        assert rep.minor_affine and rep.residue_vanishes
        assert rep.n1_affine is None

    def test_both_verdicts_reported(self):
        rep = ma_classify(EvolutionEquation(2, LAPLACIAN + LAPLACIAN ** 2))
        assert rep.minor_affine is False
        assert rep.residue_vanishes is True

    @pytest.mark.parametrize("source, vanishes", [
        ("n=2; u_t = (u_11 + u_22)/(2*u_1 + 1); ref u_1 = -1/2", True),
        ("n=2; u_t = (u_11 + u_22 + u_11^2)/(1 + u_1); ref u_1 = -1", False),
    ], ids=["laplacian", "not_monge_ampere"])
    def test_symbolic_where_the_symbol_has_no_value(self, source, vanishes):
        # the symbol's denominator vanishes at the reference jet: the
        # pointwise verdict is refused, and the symbolic one runs
        # Faddeev-LeVerrier in the jet, as the pointwise class is unknown
        eq = parse(source).equation()
        with pytest.raises(DivisionByZeroExpr, match="choose another with a ref clause$"):
            ma_classify(eq)
        report = ma_classify(eq, symbolic=True)
        assert (report.singular_symbol, report.residue_vanishes) == (False, vanishes)

    def test_singular_symbol_becomes_flag(self):
        rep = ma_classify(EvolutionEquation(2, u11 ** 2 + u22 ** 2))
        assert rep.singular_symbol
        assert rep.residue_vanishes is None

    def test_quartic_form_computed_once(self, monkeypatch):
        calls = []

        def counted(eq):
            calls.append(eq)
            return quartic_form(eq)
        monkeypatch.setattr(parabolic, "quartic_form", counted)
        for symbolic in (False, True):
            calls.clear()
            ma_classify(EvolutionEquation(2, LAPLACIAN + u11 ** 2), symbolic)
            assert len(calls) == 1

    def test_minor_affine_implies_residue_vanishes(self):
        from corpus import CORPUS
        for entry in CORPUS:
            rep = ma_classify(entry.equation())
            if rep.minor_affine and rep.residue_vanishes is not None:
                assert rep.residue_vanishes, entry.name
