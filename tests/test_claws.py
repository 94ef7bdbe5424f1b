"""Conservation-law pipeline tests: ansatz enumeration, determining systems,
exact null spaces, the finder on the classic equations, verification, and
the Monge-Ampere cross-validation."""

import json
from fractions import Fraction

import pytest

from paraclaw import claws, linalg
from paraclaw.claws import (
    AnsatzSpec, AnsatzTooLarge, ConservationLaw, FluxReconstructionFailed,
    InvariantViolation, NotParabolicEquation, assemble_determining_system,
    cross_validate_ma, find_conservation_laws, generate_ansatz,
    jacobi_potential_order, reconstruct_flux, solve_exact, verify,
)
from paraclaw.corpus import CORPUS, by_name
from paraclaw.expr import Expr, aux_var, base_var, jet_var
from paraclaw.jets import (
    ORDER_GUARD, OrderOverflow, TimeJetPresent, build_replacement_table, euler_operator,
    spatial_jet_order, total_derivative,
)
from paraclaw.parabolic import EvolutionEquation
from util import (
    GOLDEN_PATH, claws_corpus_reports, combine, expr_coefficient_vector,
    heat_polynomial_space, in_span, linear_columns, rank, span_equal,
    suite_auxiliary_form_corpus, suite_auxiliary_form_random,
    suite_characteristic_form_corpus, suite_characteristic_form_random,
    suite_column_route_equivalence, suite_cross_validation, suite_time_linearity,
    suite_extraction_equivalence, suite_integer_assembly, tag, tagged,
    jet, suite_linear_extraction, suite_on_shell_corpus, suite_on_shell_random,
    suite_reported_coefficients_are_fractions, suite_restricted_search_equivalence,
    suite_memos_change_no_result, suite_memos_shared_by_threads,
    suite_returned_columns_are_fresh,
    suite_solver_soundness, suite_triviality_filter,
    t, u, u1, u11, u2, u22, ux, uxx, x, x1, x2,
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
        densities, characteristics = generate_ansatz(HEAT, AnsatzSpec(0, 1, 0))
        assert len(densities) == len(characteristics) == 2
        assert monomial_set(densities) == keys(Expr.const(1), u)

    def test_base_degree_one(self):
        densities, characteristics = generate_ansatz(HEAT, AnsatzSpec(0, 1, 1))
        assert len(densities) == len(characteristics) == 6
        assert monomial_set(densities) == keys(Expr.const(1), x, t, u, x * u, t * u)

    def test_counting_formula_n2(self):
        # 7 jet monomials (1; u; u_1, u_2; u_11, u_12, u_22) x 10 base
        # monomials of joint degree <= 2 in (t, x1, x2)
        densities, characteristics = generate_ansatz(HEAT2, AnsatzSpec(2, 1, 2))
        assert len(densities) == len(characteristics) == 7 * 10

    def test_characteristic_columns_are_int_euler_derivatives(self):
        densities, characteristics = generate_ansatz(HEAT2, AnsatzSpec(2, 2, 1))
        for T, Q in zip(densities, characteristics):
            assert combine([Q], {0: 1}) == euler_operator(combine([T], {0: 1}))
            assert all(type(c) is int for c in Q.values())

    def test_guard(self):
        # 210 jet monomials x 165 base monomials = 34650 > MAX_TERMS
        with pytest.raises(AnsatzTooLarge, match="MAX_TERMS = 20000"):
            generate_ansatz(HEAT2, AnsatzSpec(2, 4, 8))

    def test_guard_counts_before_enumerating(self, monkeypatch):
        def enumerate_nothing(*args):
            raise AssertionError("the ansatz was enumerated before the budget check")

        monkeypatch.setattr(claws, "spatial_jet_vars", enumerate_nothing)
        monkeypatch.setattr(claws, "bounded_monomials", enumerate_nothing)
        with pytest.raises(AnsatzTooLarge,
                           match="^230230 monomials exceed MAX_TERMS = 20000$"):
            generate_ansatz(HEAT2, AnsatzSpec(2, 20, 0))
        with pytest.raises(AnsatzTooLarge):
            generate_ansatz(EvolutionEquation(9, u11), AnsatzSpec(10, 1, 0, True))

    def test_order_cap_needs_unsafe_flag(self):
        with pytest.raises(ValueError):
            AnsatzSpec(max_jet_order=3)
        spec = AnsatzSpec(max_jet_order=3, unsafe_order=True)
        densities, _ = generate_ansatz(HEAT, spec)
        assert spatial_jet_order(tagged(densities)) == 3

    def test_order_limit_holds_with_unsafe_flag(self):
        AnsatzSpec(max_jet_order=ORDER_GUARD - 1, unsafe_order=True)
        with pytest.raises(ValueError, match=r"ORDER_GUARD = 12$"):
            AnsatzSpec(max_jet_order=ORDER_GUARD, unsafe_order=True)


def columns(*monomials):
    """The one-term ``int`` density columns {m: 1} of these monomials, as
    generate_ansatz returns them."""
    return [{m: 1} for T in monomials for m in T.num.terms]


class TestDeterminingSystem:
    def test_conserved_density_gives_empty_system(self):
        system = assemble_determining_system(HEAT, columns(u))
        assert system.ncols == 1 and system.num_equations == 0
        assert solve_exact(system) == [{0: Fraction(1)}]

    def test_divergence_density_gives_empty_system(self):
        system = assemble_determining_system(HEAT, columns(ux))
        assert system.num_equations == 0
        # ... but the characteristic vanishes: trivial downstream
        assert euler_operator(ux).is_zero

    def test_u_squared_is_forced_to_zero(self):
        system = assemble_determining_system(HEAT, columns(u ** 2))
        assert solve_exact(system) == []
        # E_u(2 u u_xx) = 4 u_xx: one equation forcing the coefficient to 0
        assert euler_operator(2 * u * uxx) == 4 * uxx

    def test_rows_are_indexed_by_column(self):
        # E_u(u^2) = 2u gives E_u(2 u u_xx) = 4 u_xx on the heat equation,
        # and E_u(x u) = x and E_u(u) = 1 give 0
        system = assemble_determining_system(HEAT, columns(u ** 2, x * u, u))
        assert system.ncols == 3
        assert system.keys == [((jet_var((1, 1)), 1),)]
        assert system.rows == [{0: 4}]

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
                    entry.equation(), generate_ansatz(entry.equation(), spec)[0])
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

    # the tagged route of tests/util.py splits an Expr linear in the column
    # tags c_k back into columns
    def test_linear_columns_split_off_the_unknown(self):
        c1, c2 = Expr.symbol(tag(1)), Expr.symbol(tag(2))
        E = 3 * c1 * x * ux + c2 - c1
        assert linear_columns(E, [tag(1), tag(2)]) == [
            {((base_var(1), 1), (jet_var((1,)), 1)): 3, (): -1}, {(): 1}]

    @pytest.mark.parametrize("E", [
        Expr.symbol(tag(1)) * u + ux,
        Expr.symbol(tag(1)) * Expr.symbol(tag(2)),
        Expr.symbol(tag(1)) ** 2 * u,
        Expr.symbol(tag(1)) * Expr.symbol(aux_var(9)),
    ], ids=["no-unknown", "c1*c2", "c1^2", "aux"])
    def test_linear_columns_refuse_a_nonlinear_term(self, E):
        with pytest.raises(InvariantViolation, match="not linear homogeneous"):
            linear_columns(E, [tag(1), tag(2)])

    def test_rational_equation_escapes_fragment(self):
        from paraclaw.expr import NotPolynomialIn
        eq = EvolutionEquation(1, uxx / u, {jet_var(): 1})
        with pytest.raises(NotPolynomialIn):
            find_conservation_laws(eq, AnsatzSpec(2, 1, 0))


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

        Q = columns(u ** 2)
        monkeypatch.setattr(claws, "_add_total_derivative", no_walk)
        monkeypatch.setattr(claws, "_jet_partials", no_walk)
        with pytest.raises(NotPolynomialIn, match=f"^expression is not polynomial in {named}$"):
            assemble_determining_system(EvolutionEquation(2, G), Q)

    def test_zero_characteristic_on_rational_equation(self):
        eq = EvolutionEquation(2, (u11 + u22) / (1 + x1 ** 2))
        system = assemble_determining_system(eq, [])
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
        assert all(s.kind != "jet" or s.jet.time_power == 0
                   for R in checked for m in R for s, _ in m)

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
        characteristics = generate_ansatz(HEAT, spec)[1]
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
        densities, characteristics = generate_ansatz(HEAT, spec)
        column = densities.index({((jet_var(), 2),): 1})

        def forged_basis(system):
            return [{kept_columns(characteristics).index(column): Fraction(1)}]

        monkeypatch.setattr(claws, "solve_exact", forged_basis)
        with pytest.raises(InvariantViolation,
                           match=r"^null-space density has no flux: T = 1/2\*u\^2$"):
            find_conservation_laws(HEAT, spec)

    def test_order_bound_enforced_only_on_strict_symbols(self, monkeypatch):
        monkeypatch.setattr(claws, "jacobi_potential_order", lambda law: 3)
        with pytest.raises(InvariantViolation, match="jet order > 2"):
            find_conservation_laws(HEAT, AnsatzSpec(2, 1, 0))
        transport = EvolutionEquation(1, ux)
        assert [law.Q for law in find_conservation_laws(transport, AnsatzSpec(2, 1, 0))] \
            == [Expr.const(1)]

    def test_null_dimension_is_law_count(self, monkeypatch):
        # the restricted ansatz leaves one null vector per law
        dims = []

        def recording(system):
            basis = solve_exact(system)
            dims.append(len(basis))
            return basis

        monkeypatch.setattr(claws, "solve_exact", recording)
        total = 0
        for entry in CORPUS:
            eq = entry.equation()
            for spec in (AnsatzSpec(), AnsatzSpec(2, 1, 2 if eq.n == 1 else 1)):
                dims.clear()
                laws = find_conservation_laws(eq, spec)
                assert dims == [len(laws)], f"{entry.name} at {spec}"
                total += len(laws)
        assert total > 20

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
        assert cross_validate_ma(HEAT, laws).consistent

    def test_burgers_consistent(self):
        laws = find_conservation_laws(BURGERS, AnsatzSpec(2, 2, 0))
        result = cross_validate_ma(BURGERS, laws)
        assert result.consistent and result.law_count == 1

    def test_heat_plus_det_hessian(self):
        # det Hess = D_1(u_1 u_22) - D_2(u_1 u_12): T = u has a flux
        eq = by_name("heat_plus_det").equation()
        laws = find_conservation_laws(eq, AnsatzSpec(2, 1, 0))
        assert any(law.Q == Expr.const(1) for law in laws)
        for law in laws:
            assert verify(eq, law)
        assert cross_validate_ma(eq, laws).consistent

    def test_empty_laws_always_consistent(self):
        nonma = by_name("quadratic_diffusion").equation()
        assert cross_validate_ma(nonma, []).consistent

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
        # the search memos are warm with other bounds between the requests
        # of one entry
        self.check(claws_corpus_reports(spec_major=True))


class TestSearchMemos:
    """The G-independent half of the search (E_u of the ansatz monomials,
    the kept columns, the tables of each t-free characteristic part) is
    memoized for the process; the memos change no result."""

    def test_warm_searches_match_cold_ones(self):
        assert suite_memos_change_no_result() == {"problems": 82, "warm": 186}

    def test_returned_columns_are_fresh(self):
        assert suite_returned_columns_are_fresh() == 4 * len(CORPUS)

    def test_memos_shared_by_threads(self):
        assert suite_memos_shared_by_threads() == 4 * 4 * len(CORPUS)

    def test_every_memo_is_bounded(self, monkeypatch):
        # the monomial memos are lru_caches of MEMO_SIZE entries, and _KEPT
        # is emptied when it reaches MEMO_SIZE, so after MEMO_SIZE + 2
        # stores it holds the last two; an empty ansatz keeps the searches
        # cheap at large n
        from util import clear_search_memos
        assert claws._characteristic.cache_info().maxsize == claws.MEMO_SIZE
        assert claws._tables.cache_info().maxsize == claws.MEMO_SIZE
        monkeypatch.setattr(claws, "generate_ansatz", lambda eq, spec: ([], []))
        clear_search_memos()
        try:
            for n in range(1, claws.MEMO_SIZE + 3):
                find_conservation_laws(EvolutionEquation(n, u11), AnsatzSpec(), True)
            assert list(claws._KEPT) == [(n - 1, AnsatzSpec()), (n, AnsatzSpec())]
        finally:
            clear_search_memos()
