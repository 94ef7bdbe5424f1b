"""Conservation-law pipeline tests: ansatz enumeration, determining systems,
exact null spaces, the finder on the classic equations, verification, and
the Monge-Ampere cross-validation."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import paraclaw
from paraclaw import claws, linalg, cli
from paraclaw.claws import (
    AnsatzSpec, AnsatzTooLarge, ConservationLaw, FluxReconstructionFailed,
    InvariantViolation, NotParabolicEquation, assemble_determining_system,
    cross_validate_ma, find_conservation_laws, generate_ansatz,
    jacobi_potential_order, reconstruct_flux, solve_exact, verify,
)
from paraclaw.expr import Expr, aux_var, base_var, jet_var, mono_decode, mono_encode
from paraclaw.jets import (
    ORDER_GUARD, OrderOverflow, TimeJetPresent, build_replacement_table, euler_operator,
    spatial_jet_order, total_derivative,
)
from paraclaw.parabolic import EvolutionEquation, ma_classify
from corpus import CORPUS, by_name
from util import (
    GOLDEN_PATH, GOLDEN_SPECS, characteristic_columns, claws_corpus_reports, combine,
    expr_coefficient_vector, heat_polynomial_space, in_span, linear_columns, rank, span_equal,
    suite_auxiliary_form_corpus, suite_auxiliary_form_random,
    suite_characteristic_form_corpus, suite_characteristic_form_random,
    suite_column_route_equivalence, suite_cross_validation, suite_time_linearity,
    suite_extraction_equivalence, suite_integer_assembly, tag, tagged,
    jet, suite_linear_extraction, suite_on_shell_corpus, suite_on_shell_random,
    suite_reported_coefficients_are_fractions, suite_restricted_search_equivalence,
    suite_returned_columns_are_fresh,
    suite_solver_soundness, suite_triviality_filter,
    t, u, u1, u11, u12, u2, u22, ux, uxx, x, x1, x2,
)


HEAT = EvolutionEquation(1, uxx)
BURGERS = EvolutionEquation(1, uxx + u * ux)
HEAT2 = EvolutionEquation(2, u11 + u22)


def monomial_set(densities):
    """The ansatz monomials (as canonical keys), one per density column."""
    out = set()
    for T in densities:
        assert list(T.values()) == [1]
        out.add(str(combine([T], {0: 1})))
    return out


def keys(*exprs):
    return {str(e) for e in exprs}


class TestGenerateAnsatz:
    def test_constant_plus_u(self):
        densities, characteristics = generate_ansatz(HEAT.n, AnsatzSpec(0, 1, 0))
        assert len(densities) == len(characteristics) == 2
        assert monomial_set(densities) == keys(Expr.const(1), u)

    def test_base_degree_one(self):
        densities, characteristics = generate_ansatz(HEAT.n, AnsatzSpec(0, 1, 1))
        assert len(densities) == len(characteristics) == 6
        assert monomial_set(densities) == keys(Expr.const(1), x, t, u, x * u, t * u)

    def test_counting_formula_n2(self):
        # 7 jet monomials (1; u; u_1, u_2; u_11, u_12, u_22) x 10 base
        # monomials of joint degree <= 2 in (t, x1, x2)
        densities, characteristics = generate_ansatz(HEAT2.n, AnsatzSpec(2, 1, 2))
        assert len(densities) == len(characteristics) == 7 * 10

    def test_characteristic_columns_are_int_euler_derivatives(self):
        densities, characteristics = generate_ansatz(HEAT2.n, AnsatzSpec(2, 2, 1))
        for T, Q in zip(densities, characteristics):
            assert combine([Q], {0: 1}) == euler_operator(combine([T], {0: 1}))
            assert all(type(c) is int for c in Q.values())

    def test_guard(self):
        # 210 jet monomials x 165 base monomials = 34650 > MAX_TERMS
        with pytest.raises(AnsatzTooLarge, match="MAX_TERMS = 20000"):
            generate_ansatz(HEAT2.n, AnsatzSpec(2, 4, 8))

    def test_guard_counts_before_enumerating(self, monkeypatch):
        def enumerate_nothing(*args):
            raise AssertionError("the ansatz was enumerated before the budget check")

        monkeypatch.setattr(claws, "spatial_jet_vars", enumerate_nothing)
        monkeypatch.setattr(claws, "bounded_monomials", enumerate_nothing)
        with pytest.raises(AnsatzTooLarge,
                           match="^230230 monomials exceed MAX_TERMS = 20000$"):
            generate_ansatz(HEAT2.n, AnsatzSpec(2, 20, 0))
        with pytest.raises(AnsatzTooLarge):
            generate_ansatz(9, AnsatzSpec(10, 1, 0, True))

    def test_order_cap_needs_unsafe_flag(self):
        with pytest.raises(ValueError):
            AnsatzSpec(max_jet_order=3)
        spec = AnsatzSpec(max_jet_order=3, unsafe_order=True)
        densities, _ = generate_ansatz(HEAT.n, spec)
        assert spatial_jet_order(tagged(densities)) == 3

    def test_order_limit_holds_with_unsafe_flag(self):
        AnsatzSpec(max_jet_order=ORDER_GUARD - 1, unsafe_order=True)
        with pytest.raises(ValueError, match=r"ORDER_GUARD = 12$"):
            AnsatzSpec(max_jet_order=ORDER_GUARD, unsafe_order=True)


def columns(*monomials):
    """(densities, characteristics): the one-term ``int`` density columns
    {m: 1} of these monomials and their E_u, as generate_ansatz returns
    them."""
    densities = [{m: 1} for T in monomials for m in T.num.terms]
    return densities, characteristic_columns(densities)


class TestDeterminingSystem:
    def test_conserved_density_gives_empty_system(self):
        system = assemble_determining_system(HEAT, *columns(u))
        assert system.ncols == 1 and system.num_equations == 0
        assert solve_exact(system) == [{0: Fraction(1)}]

    def test_divergence_density_gives_empty_system(self):
        system = assemble_determining_system(HEAT, *columns(ux))
        assert system.num_equations == 0
        # ... but the characteristic vanishes: trivial downstream
        assert euler_operator(ux).is_zero

    def test_u_squared_is_forced_to_zero(self):
        system = assemble_determining_system(HEAT, *columns(u ** 2))
        assert solve_exact(system) == []
        # E_u(2 u u_xx) = 4 u_xx: one equation forcing the coefficient to 0
        assert euler_operator(2 * u * uxx) == 4 * uxx

    def test_rows_are_indexed_by_column(self):
        # E_u(u^2) = 2u gives E_u(2 u u_xx) = 4 u_xx on the heat equation,
        # and E_u(x u) = x and E_u(u) = 1 give 0
        system = assemble_determining_system(HEAT, *columns(u ** 2, x * u, u))
        assert system.ncols == 3
        assert system.keys == [jet_var((1, 1)).unit]
        assert system.rows == [{0: 4}]

    def test_columns_and_characteristics_pair_up(self):
        # the densities and their characteristics are parallel lists: lists
        # of different lengths are refused, whichever is the shorter and on
        # a rational G too, before any row is built
        densities, characteristics = columns(u ** 2, x * u, u)
        rational = EvolutionEquation(1, uxx / (1 + x ** 2))
        for eq in (HEAT, rational):
            for args in ((densities, characteristics[:2]), (densities[:2], characteristics),
                         ([], characteristics), (densities, [])):
                with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is "):
                    assemble_determining_system(eq, *args)

    def test_column_route_matches_tagged_route(self):
        counts = suite_column_route_equivalence(cases=80)
        assert counts["problems"] == 4 * len(CORPUS) + 80
        assert counts["refusals"] >= 10 and counts["laws"] > 80

    def test_elimination_order_keeps_the_null_space(self):
        # solve_exact feeds the rows in an order of its own; the basis is the
        # one of the rows as given, on the corpus systems and on seeded
        # sparse rows with zero, repeated and dependent rows, shuffled
        import random
        from util import planted_rows
        for entry in CORPUS:
            for spec in (AnsatzSpec(), AnsatzSpec(2, 2, 1)):
                system = assemble_determining_system(
                    entry.equation(), *generate_ansatz(entry.equation().n, spec))
                assert solve_exact(system) == linalg.nullspace(system.rows, system.ncols)
        rng = random.Random(157)
        for _ in range(100):
            ncols = rng.randint(1, 30)
            rows = planted_rows(rng, rng.randint(0, 40), ncols,
                                lambda rng: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)))
            rng.shuffle(rows)
            system = claws.DeterminingSystem(ncols, rows, list(range(len(rows))))
            assert solve_exact(system) == linalg.nullspace(rows, ncols)

    def test_time_multiples_share_their_t_free_part(self):
        counts = suite_time_linearity(cases=12)
        assert counts["problems"] == 2 * (4 + 12)
        assert counts["refusals"] >= 2 + 2 * 3 and counts["laws"] > 20

    @pytest.mark.parametrize("n, spec", [
        *((n, AnsatzSpec(*bounds) if bounds else AnsatzSpec())
          for n in (1, 2) for bounds in GOLDEN_SPECS),
        (2, AnsatzSpec(2, 4, 3)), (3, AnsatzSpec(2, 3, 2)), (1, AnsatzSpec(2, 6, 4)),
        (2, AnsatzSpec(2, 3, 3)), (2, AnsatzSpec(3, 2, 1, unsafe_order=True)),
    ], ids=[f"n{n}-{'/'.join(map(str, bounds)) if bounds else 'default'}"
            for n in (1, 2) for bounds in GOLDEN_SPECS]
       + ["heat_2d-2/4/3", "heat_3d-2/3/2", "burgers-2/6/4", "det_hessian-2/3/3",
          "unsafe-3/2/1"])
    def test_order_four_rows_cut_out_v(self, n, spec):
        # fact 1, which step 1 of the pure-u route's proof reads: a
        # combination of characteristics is E_u of the same combination of
        # densities, whose linearization is self-adjoint and so of even
        # order.  So a combination of order <= 4 with no term of order 4
        # has order <= 2: the rows of order 4 cut out the combinations of
        # order <= 2.  Checked directly on every kept column of the plan and
        # on seeded combinations of up to four of them; at 3/2/1 the
        # characteristics reach order 6
        import random
        rng = random.Random(227)
        characteristics = claws._plan(n, spec)[1]
        vectors = [{k: Fraction(1)} for k in range(len(characteristics))]
        for _ in range(40):
            picked = rng.sample(range(len(characteristics)), min(4, len(characteristics)))
            vectors.append({k: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                            for k in picked})
        orders = {spatial_jet_order(combine(characteristics, vec)) for vec in vectors}
        assert all(order % 2 == 0 for order in orders), orders
        # E_u of a jet monomial of degree 1 is 0 or 1
        assert max(orders) == (2 * spec.max_jet_order if spec.jet_degree > 1 else 0)

    def test_rational_refusals_are_unchanged(self):
        # every rational_corpus equation, and the same over 1 + x1^2 (a
        # rational G), searched with force where the order bound would
        # restrict the search (2/2/1) and where nothing is kept, so S is
        # empty (2/0/1), has the outcome of the reference route: a rational
        # G is refused unless nothing is kept, and is refused as not
        # polynomial even where its symbol cannot be classified
        from util import _search_outcome, rational_corpus, reference_find_conservation_laws
        refused = 0
        corpus = rational_corpus()
        problems = corpus + [(f"{name} over 1 + x1^2", EvolutionEquation(eq.n, eq.G / (1 + x1 ** 2)))
                             for name, eq in corpus]
        problems.append(("u_xx/u at u = 0", EvolutionEquation(1, uxx / u)))
        for name, eq in problems:
            for spec in (AnsatzSpec(2, 2, 1), AnsatzSpec(2, 0, 1)):
                got = _search_outcome(find_conservation_laws, eq, spec, True)
                assert got == _search_outcome(reference_find_conservation_laws, eq, spec, True), \
                    f"{name} at {spec}"
                refused += got[0] == "NotPolynomialIn"
                assert got[0] == "laws" or spec.jet_degree
        assert refused == len(corpus) + 1

    # the tagged route of tests/util.py splits an Expr linear in the column
    # tags c_k back into columns
    def test_linear_columns_split_off_the_unknown(self):
        c1, c2 = Expr.symbol(tag(1)), Expr.symbol(tag(2))
        E = 3 * c1 * x * ux + c2 - c1
        assert linear_columns(E, [tag(1), tag(2)]) == [
            {mono_encode(((base_var(1), 1), (jet_var((1,)), 1))): 3, 0: -1}, {0: 1}]

    @pytest.mark.parametrize("E", [
        Expr.symbol(tag(1)) * u + ux,
        Expr.symbol(tag(1)) * Expr.symbol(tag(2)),
        Expr.symbol(tag(1)) ** 2 * u,
        Expr.symbol(tag(1)) * Expr.symbol(aux_var(9)),
        Expr.symbol(tag(3)) * u,
    ], ids=["no-unknown", "c1*c2", "c1^2", "aux", "other-tag"])
    def test_linear_columns_refuse_a_nonlinear_term(self, E):
        with pytest.raises(InvariantViolation, match="not linear homogeneous"):
            linear_columns(E, [tag(1), tag(2)])

    def test_rational_equation_escapes_fragment(self):
        from paraclaw.expr import NotPolynomialIn
        eq = EvolutionEquation(1, uxx / u, {jet_var(): 1})
        with pytest.raises(NotPolynomialIn):
            find_conservation_laws(eq, AnsatzSpec(2, 1, 0))


class TestPureURoute:
    """A polynomial G whose symbol is not 0 and whose quartic form is 0 is
    searched on its pure-u columns t^b x^a u^k, with no plan, whether the
    symbol is strictly or weakly parabolic or, with force, not parabolic:
    the auxiliary equation's top-order term 2 sigma D_xi Q + q Q forces
    Q = Q(t, x, u)."""

    def test_top_order_identity(self):
        # on seeded G with and without a quartic form, n = 1-3, both terms
        # of the identity are seen
        from util import suite_top_order_identity
        assert suite_top_order_identity() == {
            "characteristics": 220, "sigma_terms": 144, "quartic_terms": 110}

    def test_matches_the_plan_route_on_corpus_and_seeded_equations(self):
        # every minor-affine strict corpus entry (heat, burgers, heat_2d,
        # det_hessian_flow, heat_plus_det, porous_medium u*u_xx, ...) and
        # seeded ones, n = 1-3, then seeded weakly parabolic draws, n = 2, 3,
        # and backward strict ones searched with force, at every golden spec
        import random
        from util import compare_pure_u_route, golden_ansatz_specs, \
            random_strict_law_equation, random_weak_and_forced, takes_pure_u_route
        rng = random.Random(197)
        equations = [entry.equation() for entry in CORPUS]
        equations = [eq for eq in equations if takes_pure_u_route(eq, AnsatzSpec())]
        assert len(equations) == 10
        equations += [random_strict_law_equation(rng, 1 + k % 3) for k in range(6)]
        laws = sum(compare_pure_u_route(eq, spec)
                   for eq in equations for spec in golden_ansatz_specs())
        assert laws == 114
        rng = random.Random(229)
        problems = [pair for k in range(4) for pair in random_weak_and_forced(rng, 2 + k % 2, False)]
        laws = sum(compare_pure_u_route(eq, spec, force)
                   for eq, force in problems for spec in golden_ansatz_specs())
        assert laws == 92

    @pytest.mark.parametrize("source, spec, count", [
        ("n=2; u_t = u_11 + u_22", (2, 4, 3), 10),
        ("n=3; u_t = u_11 + 2*u_22 + 3*u_33", (2, 3, 2), 10),
        ("n=1; u_t = u_xx + u*u_x", (2, 6, 4), 1),
        ("n=2; u_t = u_11*u_22 - u_12^2; ref u_11 = 1; ref u_22 = 1", (2, 3, 3), 3),
    ], ids=["heat_2d-2/4/3", "heat_3d-2/3/2", "burgers-2/6/4", "det_hessian-2/3/3"])
    def test_matches_the_plan_route_at_gate_bounds(self, source, spec, count):
        from paraclaw.grammar import parse
        from util import compare_pure_u_route
        assert compare_pure_u_route(parse(source).equation(), AnsatzSpec(*spec)) == count

    def test_minor_affine_laws_hold_no_jet_but_u(self):
        # every law of a golden-corpus or benchmark report on a strictly
        # parabolic minor-affine G has a characteristic in t, x and u alone
        from paraclaw.grammar import parse_expression
        from paraclaw.expr import BASE
        from util import minor_affine_reports
        reports = laws = 0
        for name, report in minor_affine_reports():
            reports += 1
            for law in report["laws"]:
                Q = parse_expression(law["characteristic"], report["n"])
                assert all(s.kind == BASE or s == jet_var() for s in Q.symbols()), name
                laws += 1
        assert (reports, laws) == (103, 241)

    def test_size_check_comes_first_on_both_routes(self):
        # 2/7/3 at n = 2 has 34 320 monomials; the cap 2/6/3 has 18 480: the
        # pure-u route, the no-law route, a rational G, the transport u_1
        # (symbol 0, the plan) and unsafe_order are all refused, with and
        # without force; with force, before the symbol or the quartic form
        # is built.  At jet_degree 0, 2/0/60 has C(63, 3) = 39 711 monomials
        equations = (lambda: EvolutionEquation(2, u11 + u22),
                     lambda: by_name("laplacian_squared").equation(),
                     lambda: EvolutionEquation(2, (u11 + u22) / (1 + x1 ** 2)),
                     lambda: EvolutionEquation(2, u1))
        for make in equations:
            for spec, count in ((AnsatzSpec(2, 7, 3), 34320),
                                (AnsatzSpec(2, 7, 3, unsafe_order=True), 34320),
                                (AnsatzSpec(2, 0, 60), 39711)):
                for force in (False, True):
                    eq = make()
                    with pytest.raises(AnsatzTooLarge, match=f"^{count} monomials"):
                        find_conservation_laws(eq, spec, force)
                    assert not force or not {"symbol", "quartic"} & vars(eq).keys()
        assert len(find_conservation_laws(HEAT2, AnsatzSpec(2, 6, 3))) == 10

    def test_route_reads_cheap_tests_first(self):
        # a rational G or unsafe_order takes the plan route without building
        # the symbol or the quartic form; a symbol of 0 builds the symbol
        # and its class, not the quartic form; a polynomial G whose symbol
        # is not 0 reads each once, whether its quartic form is 0 or not
        rational = EvolutionEquation(1, uxx / (1 + x ** 2))
        unsafe = EvolutionEquation(1, uxx)
        find_conservation_laws(rational, AnsatzSpec(2, 0, 1), True)
        find_conservation_laws(unsafe, AnsatzSpec(2, 1, 0, unsafe_order=True), True)
        for eq in (rational, unsafe):
            assert not {"symbol", "parabolicity", "quartic"} & vars(eq).keys()
        transport = EvolutionEquation(1, ux)
        find_conservation_laws(transport, AnsatzSpec(2, 1, 0))
        assert {"symbol", "parabolicity"} <= vars(transport).keys()
        assert "quartic" not in vars(transport)
        for eq, laws in ((EvolutionEquation(2, u11 + u22), 1),
                         (by_name("laplacian_squared").equation(), 0),
                         (EvolutionEquation(2, u11), 1),
                         (EvolutionEquation(2, u11 + u11 ** 2), 0)):
            assert len(find_conservation_laws(eq, AnsatzSpec(2, 1, 0))) == laws
            assert {"symbol", "parabolicity", "quartic"} <= vars(eq).keys()

    def test_claws_builds_the_quartic_form_once(self, monkeypatch, tmp_path, capsys):
        from paraclaw import parabolic
        calls = []
        real = parabolic.quartic_form

        def counting(eq):
            calls.append(eq)
            return real(eq)

        monkeypatch.setattr(parabolic, "quartic_form", counting)
        path = tmp_path / "heat2.pde"
        path.write_text("n=2; u_t = u_11 + u_22")
        assert cli.main(["claws", str(path)]) == 0
        assert len(calls) == 1 and json.loads(capsys.readouterr().out)["laws"]


class TestQuarticRoute:
    """A polynomial G whose quartic form q is not 0 has no law, whatever
    the class of its symbol: along each rank-one line U + s xi xi^T the
    auxiliary equation's top-order term reads (sigma Q^2)' = 0 with sigma a
    polynomial of degree >= 1 in s, so Q = 0, and the search returns none
    after the size check, with no plan, no assembly and no solve."""

    def test_no_law_over_every_kept_column(self):
        # seeded strict G, n = 1-3, with x- and u-dependent coefficients,
        # then seeded weakly parabolic G, n = 2, 3, and backward strict ones
        # searched with force, at every golden spec
        from util import suite_no_law_with_a_quartic_form
        assert suite_no_law_with_a_quartic_form() == {"problems": 12, "columns": 1650}
        assert suite_no_law_with_a_quartic_form(cases=2, weak_and_forced=True) \
            == {"problems": 16, "columns": 3166}

    @pytest.mark.parametrize("source", [
        "n=2; u_t = u_11 + u_22 + u*(u_11 + u_22)^2",
        "n=2; u_t = u_11 + u_22 + x1*(u_11 + u_22)^3",
        "n=2; u_t = u_11 + 2*u_22 - (u_11 + 2*u_22)^2/5 + u_1",
        "n=3; u_t = u_11 + u_22 + u_33 + (u_11 + u_22 + u_33)^2",
    ], ids=["u-coefficient", "x1-cubic", "anisotropic-drift", "n3-laplacian_squared"])
    def test_every_kept_column_agrees(self, source):
        # a u- and an x-dependent coefficient, a drift on an anisotropic
        # symbol and n = 3: no search, and the system over every kept
        # column has no null vector
        from paraclaw.grammar import parse
        from util import no_search
        eq = parse(source).equation()
        for spec in (AnsatzSpec(2, 2, 1), AnsatzSpec(2, 3, 1), AnsatzSpec(2, 2, 2)):
            with no_search():
                assert find_conservation_laws(eq, spec) == []
            densities, characteristics = claws._plan(eq.n, spec)
            system = assemble_determining_system(eq, densities, characteristics)
            assert system.ncols == len(densities) and solve_exact(system) == []


class TestAuxiliaryForm:
    """The determining expression d dQ/dt + l_Q(d G) + l*_{dG}(Q) of a
    characteristic Q; the Euler walk over the product, d dQ/dt + E_u(d G Q),
    of tests/util.py is the reference."""

    def test_matches_euler_reference_on_rational_corpus(self):
        assert suite_auxiliary_form_corpus() == 4 * len(CORPUS)

    def test_matches_euler_reference_on_random_equations(self):
        assert suite_auxiliary_form_random(cases=100) == 100

    @pytest.mark.parametrize("G, named", [
        ((u11 + u22) / (1 + x1 ** 2 + x2 ** 2), "{x1, x2}"),
        ((u11 + u22) / (1 + x1 * u ** 2), "{u}"),
        (u11 + u22 / (3 + u1), "{u_1}"),
    ], ids=["base", "base-and-jet", "jet"])
    def test_rational_equation_refused_before_any_walk(self, monkeypatch, G, named):
        from paraclaw.expr import NotPolynomialIn

        def no_walk(*args):
            raise AssertionError("a kernel ran before the refusal")

        densities, characteristics = columns(u ** 2)
        monkeypatch.setattr(claws, "_add_total_derivative", no_walk)
        monkeypatch.setattr(claws, "_jet_partials", no_walk)
        with pytest.raises(NotPolynomialIn, match=f"^expression is not polynomial in {named}$"):
            assemble_determining_system(EvolutionEquation(2, G), densities, characteristics)

    def test_zero_characteristic_on_rational_equation(self):
        eq = EvolutionEquation(2, (u11 + u22) / (1 + x1 ** 2))
        system = assemble_determining_system(eq, [], [])
        assert system.ncols == 0 and system.rows == []
        assert find_conservation_laws(eq, AnsatzSpec(2, 0, 1)) == []


class TestCharacteristicForm:
    """The search assembles dQ/dt + E_u(G Q) for Q = E_u(T); the on-shell
    route E_u(reduce(D_t T)) of tests/util.py is the reference."""

    def test_matches_on_shell_reference_on_corpus(self):
        assert suite_characteristic_form_corpus() == 2 * len(CORPUS)

    def test_matches_on_shell_reference_on_random_equations(self):
        assert suite_characteristic_form_random(cases=60) == 60

    def test_integer_rows_are_scaled_on_shell_rows(self):
        assert suite_integer_assembly() == 2 * len(CORPUS)

    def test_reported_coefficients_are_fractions(self):
        assert suite_reported_coefficients_are_fractions() > 2 * len(CORPUS)

    def test_search_builds_no_replacement_table(self, monkeypatch):
        # each law's d reduce(D_t T) is d dT/dt + l_T(d G), with the D_J(d G)
        # of one prolongation memo per search, so no search, with or
        # without laws, builds a replacement table or takes the Expr route
        def no_table(*args):
            raise AssertionError("a search built a replacement table")

        monkeypatch.setattr(claws, "build_replacement_table", no_table)
        monkeypatch.setattr(claws, "_on_shell_dt", no_table)
        eq = by_name("laplacian_squared").equation()
        assert find_conservation_laws(eq, AnsatzSpec(2, 2, 1)) == []
        for eq, spec in ((HEAT, AnsatzSpec(2, 1, 1)), (BURGERS, AnsatzSpec(2, 2, 1)),
                         (HEAT2, AnsatzSpec(2, 1, 1))):
            assert find_conservation_laws(eq, spec)

    def test_verify_still_eliminates_time_jets(self, monkeypatch):
        # the identity check reads the on-shell R = d reduce(D_t T), free of
        # time jets, that the flux was inverted from: the same terms, once
        # per law
        inverted, checked = [], []
        real_homotopy, real_balanced = claws._homotopy, claws._balanced

        def tracking_homotopy(R, n):
            inverted.append(R)
            return real_homotopy(R, n)

        def tracking_balanced(R, L, LX):
            checked.append(R)
            return real_balanced(R, L, LX)

        monkeypatch.setattr(claws, "_homotopy", tracking_homotopy)
        monkeypatch.setattr(claws, "_balanced", tracking_balanced)
        laws = find_conservation_laws(HEAT, AnsatzSpec(2, 1, 1))
        assert laws and len(inverted) == len(checked) == len(laws)
        assert all(R is got for R, got in zip(checked, inverted))
        assert all(s.kind != "jet" or s.time_power == 0
                   for R in checked for m in R for s, _ in mono_decode(m))

    def test_extraction_matches_expr_reference(self):
        assert suite_extraction_equivalence(cases=60) > 150


class TestOnShellDt:
    """reduce(D_t T) in closed form, dT/dt + sum_J (D_J G) dT/du_J; the
    substitution of the time jets of D_t T in tests/util.py is the
    reference."""

    def test_matches_substitution_on_corpus_laws(self):
        assert suite_on_shell_corpus() >= 19

    def test_matches_substitution_on_random_equations(self):
        assert suite_on_shell_random(cases=60) == 60

    def test_time_jet_rejected(self):
        with pytest.raises(TimeJetPresent):
            claws._on_shell_dt(jet(tp=1), build_replacement_table(HEAT))

    def test_order_limit(self):
        table = build_replacement_table(HEAT)
        claws._on_shell_dt(jet(*[1] * 11), table)
        with pytest.raises(OrderOverflow, match=r"^density has jet order 12 > 11: "):
            claws._on_shell_dt(jet(*[1] * 12), table)

    def test_search_and_verify_substitute_nothing(self, monkeypatch):
        def no_substitute(*args):
            raise AssertionError("Expr.substitute was called")

        monkeypatch.setattr(Expr, "substitute", no_substitute)
        for eq, spec in ((HEAT, AnsatzSpec(2, 1, 2)), (BURGERS, AnsatzSpec(2, 1, 1)),
                         (HEAT2, AnsatzSpec(2, 1, 1))):
            laws = find_conservation_laws(eq, spec)
            assert laws and all(verify(eq, law) for law in laws)
            assert reconstruct_flux(eq, laws[-1].T) == laws[-1].X


class TestSolveExact:
    def test_empty_system_identity(self):
        system = _system(3, [])
        assert solve_exact(system) == [{0: 1}, {1: 1}, {2: 1}]

    def test_single_relation(self):
        system = _system(2, [{0: Fraction(1), 1: Fraction(1)}])
        assert solve_exact(system) == [{0: Fraction(1), 1: Fraction(-1)}]

    def test_two_relations(self):
        system = _system(3, [{0: Fraction(2)}, {1: Fraction(1), 2: Fraction(-3)}])
        assert solve_exact(system) == [{1: Fraction(3), 2: Fraction(1)}]


def _system(m, rows):
    from paraclaw.claws import DeterminingSystem
    return DeterminingSystem(m, rows)


def kept_columns(characteristics):
    """The indices of the columns the search keeps: those independent of
    the earlier ones."""
    pivots = linalg.Echelon()
    return [k for k, Q in enumerate(characteristics) if pivots.add(Q)]


class TestFindConservationLaws:
    def test_heat_base_degree_2(self):
        laws = find_conservation_laws(HEAT, AnsatzSpec(2, 1, 2))
        chars = [law.Q for law in laws]
        vectors = [expr_coefficient_vector(q, 1, 2) for q in chars]
        for target in (Expr.const(1), x, x ** 2 - 2 * t):
            assert in_span(expr_coefficient_vector(target, 1, 2), vectors)
        for law in laws:
            assert verify(HEAT, law)

    def test_heat_flux_for_backward_polynomial(self):
        laws = find_conservation_laws(HEAT, AnsatzSpec(2, 1, 2))
        law = next(l for l in laws if l.Q == x ** 2 - 2 * t)
        assert law.T == (x ** 2 - 2 * t) * u
        expected_flux = -((x ** 2 - 2 * t) * ux - 2 * x * u)
        assert total_derivative(law.X[0], 1) \
            == total_derivative(expected_flux, 1)

    def test_burgers_unique_mass_law(self):
        laws = find_conservation_laws(BURGERS, AnsatzSpec(2, 2, 0))
        assert len(laws) == 1
        law = laws[0]
        assert law.Q == Expr.const(1)
        assert law.T == u
        assert law.X == (-(ux + u ** 2 / 2),)
        assert verify(BURGERS, law)

    def test_completeness_matches_heat_polynomial_oracle(self):
        for degree in (1, 2, 3):
            laws = find_conservation_laws(HEAT, AnsatzSpec(2, 1, degree))
            got = [expr_coefficient_vector(law.Q, 1, degree) for law in laws]
            oracle = heat_polynomial_space(1, degree)
            assert len(oracle) == degree + 1  # d+1 polynomial heat solutions
            monos = sorted({m for sol in oracle for m in sol})
            want = []
            import itertools
            all_monos = [m for m in itertools.product(range(degree + 1), repeat=2)
                         if sum(m) <= degree]
            for sol in oracle:
                want.append([sol.get(m, Fraction(0)) for m in all_monos])
            assert span_equal(got, want)

    def test_characteristics_deduplicated_and_monic(self):
        laws = find_conservation_laws(HEAT, AnsatzSpec(2, 1, 3))
        keys = {str(law.Q) for law in laws}
        assert len(keys) == len(laws)
        for law in laws:
            assert law.Q.num.leading()[1] == 1

    def test_independence_not_proportionality(self, monkeypatch):
        # null vectors v_a, v_b, v_a + v_b of the restricted system: Q_a + Q_b
        # is proportional to neither Q_a nor Q_b, yet depends on them.  The
        # restricted search never yields such a vector, so it fails loudly
        # instead of being dropped
        spec = AnsatzSpec(2, 1, 2)
        characteristics = generate_ansatz(HEAT.n, spec)[1]
        kept = [characteristics[k] for k in kept_columns(characteristics)]
        Qs = []

        def dependent_basis(system):
            va, vb = solve_exact(system)[:2]
            vab = {k: va.get(k, 0) + vb.get(k, 0) for k in sorted(va.keys() | vb.keys())}
            Qs.extend(combine(kept, v) for v in (va, vb, vab))
            return [va, vb, vab]

        monkeypatch.setattr(claws, "solve_exact", dependent_basis)
        with pytest.raises(InvariantViolation,
                           match="null vector with zero or dependent characteristic"):
            find_conservation_laws(HEAT, spec)
        monic = {str(Q * (1 / Q.num.leading()[1])) for Q in Qs}
        assert len(monic) == 3

    def test_null_vector_without_flux_is_internal_error(self, monkeypatch):
        # a forged null vector: T = u^2 has an independent characteristic
        # 2u, but reduce(D_t T) = 2 u u_xx is not a divergence
        spec = AnsatzSpec(2, 2, 0)
        densities, characteristics = generate_ansatz(HEAT.n, spec)
        column = densities.index({mono_encode([(jet_var(), 2)]): 1})

        def forged_basis(system):
            return [{kept_columns(characteristics).index(column): Fraction(1)}]

        monkeypatch.setattr(claws, "solve_exact", forged_basis)
        with pytest.raises(InvariantViolation,
                           match=r"^null-space density has no flux: T = 1/2\*u\^2$"):
            find_conservation_laws(HEAT, spec)

    def test_order_bound_enforced_where_the_symbol_is_not_zero(self, monkeypatch):
        # a strict and a weak symbol are bounded; a symbol of 0 (a G of
        # order 1) is not, and its laws are kept
        monkeypatch.setattr(claws, "jacobi_potential_order", lambda law: 3)
        for eq in (HEAT, EvolutionEquation(2, u11)):
            with pytest.raises(InvariantViolation, match="jet order > 2"):
                find_conservation_laws(eq, AnsatzSpec(2, 1, 0))
        transport = EvolutionEquation(1, ux)
        assert [law.Q for law in find_conservation_laws(transport, AnsatzSpec(2, 1, 0))] \
            == [Expr.const(1)]

    def test_null_dimension_is_law_count(self, monkeypatch):
        # the restricted ansatz leaves one null vector per law; a strictly
        # parabolic polynomial G whose quartic form is not 0 is answered
        # with no solve, and the solve over every kept column leaves none
        from util import takes_no_plan, takes_pure_u_route
        dims = []

        def recording(system):
            basis = solve_exact(system)
            dims.append(len(basis))
            return basis

        monkeypatch.setattr(claws, "solve_exact", recording)
        total = quartic = 0
        for entry in CORPUS:
            eq = entry.equation()
            for spec in (AnsatzSpec(), AnsatzSpec(2, 1, 2 if eq.n == 1 else 1)):
                dims.clear()
                laws = find_conservation_laws(eq, spec)
                if takes_no_plan(eq, spec) and not takes_pure_u_route(eq, spec):
                    assert dims == [], f"{entry.name} at {spec}"
                    system = assemble_determining_system(eq, *claws._plan(eq.n, spec))
                    dims.append(len(solve_exact(system)))
                    quartic += 1
                assert dims == [len(laws)], f"{entry.name} at {spec}"
                total += len(laws)
        assert total > 20 and quartic

    def test_matches_full_ansatz_search(self):
        assert suite_restricted_search_equivalence() > 200

    def test_heat_3d_jet_degree_2(self):
        from paraclaw.grammar import parse
        eq = parse("n=3; u_t = u_11 + 2*u_22 + 3*u_33").equation()
        laws = find_conservation_laws(eq, AnsatzSpec(2, 2, 2))
        assert len(laws) == 10
        for law in laws:
            assert verify(eq, law)
            assert jacobi_potential_order(law) <= 2
        monos = sorted({m for law in laws for m in law.Q.num.terms},
                       key=str)
        rows = [{monos.index(m): c for m, c in law.Q.num.terms.items()}
                for law in laws]
        assert rank(rows, len(monos)) == 10

    def test_not_parabolic_blocks_without_force(self):
        backward = EvolutionEquation(1, -uxx)
        with pytest.raises(NotParabolicEquation):
            find_conservation_laws(backward, AnsatzSpec(2, 1, 0))
        laws = find_conservation_laws(backward, AnsatzSpec(2, 1, 0), force=True)
        assert [law.Q for law in laws] == [Expr.const(1)]

    def test_weakly_parabolic_allowed(self):
        eq = EvolutionEquation(1, u * uxx)  # degenerate at the zero jet
        find_conservation_laws(eq, AnsatzSpec(2, 1, 0))

    def test_det_hessian_flow_laws(self):
        # fully nonlinear MA flow: det Hess = D_1(u_1 u_22) - D_2(u_1 u_12)
        eq = by_name("det_hessian_flow").equation()
        laws = find_conservation_laws(eq, AnsatzSpec(2, 1, 0))
        assert len(laws) == 1
        law = laws[0]
        assert law.Q == Expr.const(1) and law.T == u
        assert verify(eq, law)
        from util import u12
        div = total_derivative(u1 * u22, 1) - total_derivative(u1 * u12, 2)
        assert div == eq.G

    def test_convection_diffusion_drift_family(self):
        # characteristics solve f_t + f_xx - f_x = 0: includes t + x
        eq = by_name("convection_diffusion").equation()
        laws = find_conservation_laws(eq, AnsatzSpec(2, 1, 1))
        assert any(law.Q == t + x for law in laws)
        for law in laws:
            assert verify(eq, law)

    def test_forced_heat_keeps_mass_law(self):
        # explicit x-dependence in G flows through the replacement table
        eq = by_name("forced_heat").equation()
        laws = find_conservation_laws(eq, AnsatzSpec(2, 1, 1))
        mass = next(l for l in laws if l.Q == Expr.const(1))
        assert verify(eq, mass)
        # D_t u = u_xx + x = D_x(u_x + x^2/2)
        assert total_derivative(mass.X[0], 1) == -(uxx + x)

    def test_three_dimensional_heat(self):
        from paraclaw.grammar import parse
        from paraclaw.expr import base_var
        x3 = Expr.symbol(base_var(3))
        eq = parse("n=3; u_t = u_11 + u_22 + u_33").equation()
        laws = find_conservation_laws(eq, AnsatzSpec(2, 1, 1))
        chars = {str(law.Q) for law in laws}
        for target in (Expr.const(1), x1, x2, x3):
            assert str(target) in chars
        for law in laws:
            assert verify(eq, law)

    def test_second_order_bound_on_returned_laws(self):
        for entry in CORPUS:
            eq = entry.equation()
            spec = AnsatzSpec(2, 1, 1 if eq.n == 2 else 2)
            for law in find_conservation_laws(eq, spec):
                assert jacobi_potential_order(law) <= 2


class TestVerify:
    def test_heat_mass(self):
        assert verify(HEAT, ConservationLaw(u, (-ux,), Expr.const(1)))

    def test_sign_convention(self):
        assert not verify(HEAT, ConservationLaw(u, (ux,), Expr.const(1)))

    def test_heat_2d_radial_density(self):
        f = x1 ** 2 + x2 ** 2 - 4 * t
        X = (-(f * u1 - 2 * x1 * u), -(f * u2 - 2 * x2 * u))
        assert verify(HEAT2, ConservationLaw(f * u, X, f))

    def test_missing_flux_rejected(self):
        with pytest.raises(ValueError):
            verify(HEAT, ConservationLaw(u, None, Expr.const(1)))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            verify(HEAT2, ConservationLaw(u, (-u1,), Expr.const(1)))


class TestCharacteristic:
    def test_mass(self):
        assert euler_operator(u) == Expr.const(1)
        assert jacobi_potential_order(ConservationLaw(u, None, euler_operator(u))) == 0

    def test_backward_heat_multiplier(self):
        T = (x ** 2 - 2 * t) * u
        assert euler_operator(T) == x ** 2 - 2 * t

    def test_second_order_characteristic(self):
        T = u * uxx
        Q = euler_operator(T)
        assert Q == 2 * uxx
        assert jacobi_potential_order(ConservationLaw(T, None, Q)) == 2

    def test_linear_extraction_suite(self):
        # every null vector, trivial ones included
        assert suite_linear_extraction() > 1000

    def test_triviality_filter_suite(self):
        assert suite_triviality_filter(cases=100) == 100


class TestFluxReconstruction:
    def test_burgers_flux(self):
        X = reconstruct_flux(BURGERS, u)
        assert X == (-(ux + u ** 2 / 2),)

    def test_non_density_fails(self):
        with pytest.raises(FluxReconstructionFailed):
            reconstruct_flux(HEAT, u ** 2)


class TestCrossValidation:
    def test_heat_consistent(self):
        laws = find_conservation_laws(HEAT, AnsatzSpec(2, 1, 2))
        assert cross_validate_ma(HEAT, laws) is None

    def test_burgers_consistent(self):
        laws = find_conservation_laws(BURGERS, AnsatzSpec(2, 2, 0))
        assert len(laws) == 1
        assert cross_validate_ma(BURGERS, laws) is None

    def test_heat_plus_det_hessian(self):
        # det Hess = D_1(u_1 u_22) - D_2(u_1 u_12): T = u has a flux
        eq = by_name("heat_plus_det").equation()
        laws = find_conservation_laws(eq, AnsatzSpec(2, 1, 0))
        assert any(law.Q == Expr.const(1) for law in laws)
        for law in laws:
            assert verify(eq, law)
        assert cross_validate_ma(eq, laws) is None

    def test_empty_laws_always_consistent(self):
        nonma = by_name("quadratic_diffusion").equation()
        assert cross_validate_ma(nonma, []) is None

    def test_laws_on_non_affine_n1_equation_raise(self):
        # the 3 laws of the heat equation, held against u_t = u_xx + u_xx^2
        laws = find_conservation_laws(HEAT, AnsatzSpec(2, 1, 2))
        assert len(laws) == 3
        nonma = by_name("quadratic_diffusion").equation()
        with pytest.raises(InvariantViolation) as info:
            cross_validate_ma(nonma, laws)
        assert str(info.value) == ("MA cross-validation violated: 3 nontrivial law(s) "
                                   "but n1_affine is false")

    def test_law_on_nonvanishing_residue_raises(self):
        # the law T = u of heat_2d, held against u_t = u_11 + u_22 + u_11^2
        laws = find_conservation_laws(HEAT2, AnsatzSpec(2, 1, 0))
        assert len(laws) == 1
        nonma = by_name("anisotropic_quartic").equation()
        with pytest.raises(InvariantViolation) as info:
            cross_validate_ma(nonma, laws)
        assert str(info.value) == ("MA cross-validation violated: 1 nontrivial law(s) "
                                   "but residue_vanishes is false")

    def test_undecided_residue_passes(self):
        # det Hess u at its default reference jet 0 has a singular symbol, so
        # the residue test is undecided and the check passes
        laws = find_conservation_laws(HEAT2, AnsatzSpec(2, 1, 0))
        eq = EvolutionEquation(2, u11 * u22 - u12 ** 2)
        report = ma_classify(eq)
        assert report.singular_symbol and report.residue_vanishes is None
        assert cross_validate_ma(eq, laws, report) is None
        assert cross_validate_ma(eq, laws) is None

    def test_corpus_suite(self):
        assert suite_cross_validation() >= 10


class TestSolverSoundness:
    def test_randomized_bounds_suite(self):
        # the full 100-case run lives in the acceptance module
        assert suite_solver_soundness(cases=40) == 40


class TestGoldenCorpus:
    @staticmethod
    def check(got):
        # claws reports recorded before law extraction became linear; a
        # difference is a finding to explain, not a file to re-record
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            want = json.load(fh)
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key] == want[key], key

    def test_reports_byte_identical(self):
        self.check(claws_corpus_reports())

    def test_reports_byte_identical_spec_major(self):
        # the requests run spec-major: other bounds run between the
        # requests of one entry
        self.check(claws_corpus_reports(spec_major=True))

    def test_reports_free_of_symbol_creation_order(self, tmp_path, capsys):
        # a monomial's int depends on the order in which the process
        # interned its symbols, so no report may: a fresh process interns a
        # seeded shuffle of base, jet (order <= 6 at n = 3) and auxiliary
        # symbols first, and then runs the golden corpus and the hash-seed
        # input under claws and classify --symbolic
        heat2 = tmp_path / "heat2.pde"
        heat2.write_text("n=2; u_t = u_11 + u_22; base_degree = 1")
        requests = [["claws", str(heat2)], ["classify", str(heat2), "--symbolic"]]
        script = textwrap.dedent(f"""
            import contextlib, io, itertools, json, random
            from paraclaw.expr import _SYMBOLS, aux_var, base_var, jet_var
            makers = [(base_var, (a,)) for a in range(4)]
            makers += [(jet_var, (word, tp)) for order in range(7) for tp in range(order + 1)
                       for word in itertools.combinations_with_replacement((1, 2, 3), order - tp)]
            makers += [(aux_var, (k, name)) for k in range(1, 4)
                       for name in ("", f"xi{{k}}", f"c{{k}}")]
            random.Random(37).shuffle(makers)
            for make, args in makers:
                make(*args)
            assert len(_SYMBOLS) == len(makers)  # t is interned at import
            from paraclaw import cli
            import util
            reports = []
            for argv in {requests!r}:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    reports.append([cli.main(argv), out.getvalue()])
            print(json.dumps({{"golden": util.claws_corpus_reports(), "reports": reports}}))
        """)
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        package_root = os.path.dirname(os.path.dirname(paraclaw.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={"PATH": "/usr/bin:/bin",
                                   "PYTHONPATH": os.pathsep.join([package_root, tests_dir])})
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        self.check(got["golden"])
        for argv, (code, out) in zip(requests, got["reports"]):
            assert cli.main(argv) == code == 0
            assert capsys.readouterr().out == out, argv


class TestZeroSymbol:
    """A G of order 1 has a symbol of 0: the order bound does not hold, so
    the search runs on every kept column of the plan, and its laws have
    characteristics that hold u or a jet (u u_x: Q = u, u^2, ...; u_x:
    Q = u_11, ...), which no golden or benchmark report has.  Their
    reports are pinned in tests/zero_symbol_claws.json."""

    def test_reports_match_the_pins(self):
        # at the golden specs and 2/4/3; every law verifies, and each
        # equation has laws whose characteristic holds u or a jet
        from paraclaw.expr import JET
        from paraclaw.grammar import parse_expression
        from util import ZERO_SYMBOL_CORPUS, ZERO_SYMBOL_PATH, ZERO_SYMBOL_SPECS, \
            zero_symbol_pins
        reports = claws_corpus_reports(entries=ZERO_SYMBOL_CORPUS, specs=ZERO_SYMBOL_SPECS)
        with open(ZERO_SYMBOL_PATH, encoding="utf-8") as fh:
            assert zero_symbol_pins(reports) == json.load(fh)
        equations = {entry.name: entry.equation() for entry in ZERO_SYMBOL_CORPUS}
        held = dict.fromkeys(equations, 0)
        for key, record in reports.items():
            name = key.split()[0]
            eq = equations[name]
            for law in json.loads(record["stdout"])["laws"]:
                T, Q, *X = (parse_expression(text, eq.n)
                            for text in (law["density"], law["characteristic"], *law["flux"]))
                assert verify(eq, ConservationLaw(T, tuple(X), Q)), key
                held[name] += any(s.kind == JET for s in Q.symbols())
        assert held == {"zero_convection": 17, "transport": 109, "zero_convection_2d": 40,
                        "transport_2d": 1550}


class TestSearchMemos:
    """The search keeps no process-wide memo: the columns generate_ansatz
    returns are the caller's, and nothing a later search reads."""

    def test_returned_columns_are_fresh(self):
        assert suite_returned_columns_are_fresh() == 4 * len(CORPUS)
