"""Jet-calculus tests: total derivatives, replacement tables, the Euler
operator, divergence inversion, and the dimension combinatorics with their
trace-matrix oracle."""

import pytest

from paraclaw.expr import Expr, MultiIndex, ZERO, base_var, jet_var
from paraclaw.jets import (
    NotInDivergenceImage, TimeJetPresent, _lower_prolong, bounded_monomials,
    build_replacement_table, deprolongation_dimension, euler_operator,
    invert_divergence, iterated_total_derivative, parabolic_system_dimension,
    reduce_to_spatial, spatial_jet_vars, tableau_dimension, total_derivative,
)
from paraclaw.parabolic import EvolutionEquation
from util import (
    jet, naive_tableau_dimension, suite_commutativity, suite_divergence_decision,
    suite_divergence_roundtrip, suite_divergence_roundtrip_multid,
    suite_euler_equivalence, suite_euler_kills_divergences,
    suite_lower_prolong_equivalence, suite_total_derivative_equivalence, t,
    trace_matrix_nullity,
    u, u1, u11, u12, u2, u22, ux, uxx, uxxx, x, x1, x2,
)


@pytest.fixture(scope="module")
def heat():
    return EvolutionEquation(1, uxx)


@pytest.fixture(scope="module")
def heat_table(heat):
    return build_replacement_table(heat)


class TestTotalDerivative:
    def test_of_u(self):
        assert total_derivative(u, 1) == ux

    def test_leibniz_expansion(self):
        assert total_derivative(u * ux, 1) == ux ** 2 + u * uxx

    def test_time_direction(self):
        assert total_derivative(ux, 0) == jet(1, tp=1)

    def test_chain_through_base(self):
        assert total_derivative(x * u, 1) == u + x * ux

    def test_raises_order_by_at_most_one(self):
        e = x * uxx ** 2 + u
        before = max(s.jet.order for s in e.symbols() if s.kind == "jet")
        after_e = total_derivative(e, 1)
        after = max(s.jet.order for s in after_e.symbols() if s.kind == "jet")
        assert after <= before + 1

    def test_quotient_rule(self):
        assert total_derivative(u / x, 1) == (x * ux - u) / x ** 2
        assert total_derivative(x1 / u2, 1) == (u2 - x1 * u12) / u2 ** 2
        # the denominator does not depend on x2: D_2 acts on the numerator only
        assert total_derivative(u * u2 / x1, 2) == (u2 ** 2 + u * jet(2, 2)) / x1

    def test_matches_per_symbol_reference(self):
        # polynomial and rational inputs, n = 1..3, every direction a = 0..n
        assert suite_total_derivative_equivalence(cases=100) == 299


class TestLowerProlong:
    """D_a moves one power of u_J to u_{Ja} in one step."""

    def test_prolonged_jet_already_present(self):
        s1, s11 = jet_var((1,)), jet_var((1, 1))
        m = ((s1, 2), (s11, 1))
        assert _lower_prolong(m, 0, s11) == ((s1, 1), (s11, 2))
        assert total_derivative(ux ** 2 * uxx, 1) == 2 * ux * uxx ** 2 + ux ** 2 * uxxx

    def test_inserted_between_later_symbols(self):
        m = ((base_var(1), 1), (jet_var(), 3), (jet_var((2, 2)), 2))
        assert _lower_prolong(m, 1, jet_var((1,))) == (
            (base_var(1), 1), (jet_var(), 2), (jet_var((1,)), 1), (jet_var((2, 2)), 2))

    def test_matches_the_general_product_on_random_monomials(self):
        checked, present = suite_lower_prolong_equivalence()
        assert checked >= 1000 and present >= 50


class TestIteratedTotalDerivative:
    def test_empty_index(self):
        e = x * u ** 2
        assert iterated_total_derivative(e, MultiIndex()) == e

    def test_mixed_second_both_orders(self):
        expected = 2 * u1 * u2 + 2 * u * u12
        assert iterated_total_derivative(u ** 2, MultiIndex((1, 2))) == expected
        d21 = total_derivative(total_derivative(u ** 2, 2), 1)
        assert d21 == expected

    def test_second_derivative_of_coordinate(self):
        assert iterated_total_derivative(x, MultiIndex((1, 1))).is_zero

    def test_commutativity_suite(self):
        assert suite_commutativity(cases=100) == 100


class TestReplacementTable:
    def test_entry_is_equation(self, heat_table):
        assert heat_table.entry(MultiIndex((), 1)) == uxx

    def test_spatial_prolongation(self, heat_table):
        assert heat_table.entry(MultiIndex((1,), 1)) == uxxx

    def test_burgers_mixed_entries_consistent(self):
        eq = EvolutionEquation(1, uxx + u * ux)
        table = build_replacement_table(eq)
        # entry(Jx, 1) is D_x entry(J, 1), and the substitution of u_{J,t}
        # agrees with it: reduce(D_x u_{xt}) = entry(xx, 1) = D_x D_x G
        e_prefix = table.entry(MultiIndex((1, 1), 1))
        via_reduce = reduce_to_spatial(
            total_derivative(jet(1, tp=1), 1), table)
        via_space = total_derivative(total_derivative(eq.G, 1), 1)
        assert e_prefix == via_reduce == via_space

    def test_requires_time_power(self, heat_table):
        with pytest.raises(ValueError):
            heat_table.entry(MultiIndex((1,)))
        with pytest.raises(ValueError):
            heat_table.entry(MultiIndex((), 2))


class TestReduceToSpatial:
    def test_equation_itself(self, heat_table):
        assert reduce_to_spatial(jet(tp=1) - uxx, heat_table).is_zero

    def test_already_spatial(self, heat_table):
        assert reduce_to_spatial(ux, heat_table) == ux

    def test_nonlinear_equation(self):
        eq = EvolutionEquation(1, ux ** 2)
        table = build_replacement_table(eq)
        # u_xt = D_x(u_x^2) = 2 u_x u_xx
        assert reduce_to_spatial(jet(1, tp=1) * ux, table) == 2 * ux ** 2 * uxx


class TestEulerOperator:
    def test_of_u(self):
        assert euler_operator(u) == Expr.const(1)

    def test_first_order_square(self):
        assert euler_operator(ux ** 2) == -2 * uxx

    def test_backward_heat_density(self):
        assert euler_operator((x ** 2 - 2 * t) * uxx - 2 * u).is_zero

    def test_rejects_time_jets(self):
        with pytest.raises(TimeJetPresent):
            euler_operator(jet(tp=1))

    def test_annihilates_divergences_suite(self):
        assert suite_euler_kills_divergences(cases=100) == 100

    def test_mixed_third_order(self):
        # E_u(u_1 u_12) = D_1 u_12 - D_1 D_2 u_1 = 0 and
        # E_u(u * u_112) = u_112 - D_1 D_1 D_2 u = 0: both are divergences
        assert euler_operator(u1 * u12).is_zero
        assert euler_operator(u * jet(1, 1, 2)).is_zero
        # -D_1(u_2 u_12) - D_2(u_1 u_12) + D_1 D_2(u_1 u_2): the Hessian determinant
        assert euler_operator(u1 * u2 * u12) == u11 * u22 - u12 ** 2

    def test_rational_in_base_coordinates(self):
        # E_u(u_1^2 / x1) = -D_1(2 u_1 / x1) = -2 u_11 / x1 + 2 u_1 / x1^2
        assert euler_operator(u1 ** 2 / x1) == -2 * u11 / x1 + 2 * u1 / x1 ** 2

    def test_matches_naive_reference(self):
        assert suite_euler_equivalence(cases=100) == 100


class TestInvertDivergence:
    def test_basic(self):
        R = ux ** 2 + u * uxx
        X = invert_divergence(R, 1)
        assert total_derivative(X[0], 1) == R
        assert X[0] == u * ux

    def test_zero(self):
        assert invert_divergence(ZERO, 3) == (ZERO, ZERO, ZERO)

    def test_two_dimensional(self):
        R = u1 * u2 + u * u12
        X = invert_divergence(R, 2)
        back = total_derivative(X[0], 1) + total_derivative(X[1], 2)
        assert back == R

    def test_not_a_divergence(self):
        with pytest.raises(NotInDivergenceImage):
            invert_divergence(u, 1)

    def test_roundtrip_suite(self):
        assert suite_divergence_roundtrip(cases=100) == 100

    def test_roundtrip_suite_two_and_three_dimensions(self):
        assert suite_divergence_roundtrip_multid(cases=60) == 60

    def test_decides_exactly_by_euler_operator(self):
        inverted, rejected = suite_divergence_decision(cases=100)
        assert inverted + rejected == 100
        assert inverted >= 20 and rejected >= 20

    def test_jet_free_part_goes_to_first_flux(self):
        X = invert_divergence(t * x1 * x2, 2)
        assert X == (t * x1 ** 2 * x2 / 2, ZERO)

    def test_rejects_directions_beyond_n(self):
        with pytest.raises(ValueError):
            invert_divergence(u2, 1)
        with pytest.raises(ValueError):
            invert_divergence(x2, 1)
        with pytest.raises(TimeJetPresent):
            invert_divergence(jet(1, tp=1), 1)

    def test_names_the_lowest_out_of_range_symbol(self):
        with pytest.raises(ValueError, match=r"only, not x2$"):
            invert_divergence(u2 + x2, 1)
        with pytest.raises(ValueError, match=r"only, not u_2$"):
            invert_divergence(jet(2, 2, 2) + u22 + u2, 1)


class TestEnumeration:
    def test_spatial_jet_vars(self):
        assert spatial_jet_vars(2, 2) == [
            jet_var(), jet_var((1,)), jet_var((2,)),
            jet_var((1, 1)), jet_var((1, 2)), jet_var((2, 2)),
        ]

    def test_bounded_monomials_count(self):
        syms = [base_var(0), base_var(1), base_var(2)]
        assert len(bounded_monomials(syms, 2)) == 10  # C(5, 2)


class TestDimensions:
    def test_tableau_examples(self):
        assert tableau_dimension(1, 0) == 2
        assert tableau_dimension(2, 0) == 5
        assert tableau_dimension(2, 1) == 7

    def test_tableau_closed_form_matches_traceless_sum(self):
        for n in range(1, 31):
            for r in range(41):
                assert tableau_dimension(n, r) == naive_tableau_dimension(n, r), (n, r)

    def test_tableau_against_trace_matrix_oracle(self):
        for n in range(1, 5):
            for r in range(5):
                assert tableau_dimension(n, r) == trace_matrix_nullity(n, r), (n, r)

    def test_system_dimensions(self):
        assert parabolic_system_dimension(1) == 7
        assert parabolic_system_dimension(2) == 12
        assert [deprolongation_dimension(n) for n in (1, 2, 3)] == [5, 7, 9]
