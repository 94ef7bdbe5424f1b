"""Expression-kernel tests: canonical forms, differentiation, substitution,
coefficient extraction, and the algebra properties that make the zero test
trustworthy."""

import copy
import functools
import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import paraclaw
from paraclaw.expr import (
    ANSATZ, AUX, BASE, JET, DivisionByZeroExpr, Expr, NotPolynomialIn, Poly,
    Symbol, ZERO, ONE, ansatz_unknown, aux_var, base_var, divexact, jet_var,
    mono_cmp, mono_sort_key, monomial_expr, poly_coefficients, poly_gcd,
    substitute, diff,
)
from util import random_poly, u, u11, u12, u22, ux, uxx, x


class TestNormalize:
    def test_like_terms_collect(self):
        assert u + u == 2 * u

    def test_binomial_identity_is_zero(self):
        assert ((x + 1) ** 2 - (x ** 2 + 2 * x + 1)).is_zero

    def test_rational_cancellation(self):
        # oracle: cross-multiply and compare canonical numerators
        quotient = (ux * uxx) / ux
        assert quotient * ux == ux * uxx
        assert quotient == uxx

    def test_denominator_made_monic(self):
        e = ux / (2 * u)
        assert e.den == Poly.variable(jet_var())
        assert e.num == Poly.variable(jet_var((1,))).scale(Fraction(1, 2))

    def test_division_by_zero_polynomial(self):
        with pytest.raises(DivisionByZeroExpr):
            u / (u - u)

    def test_semantically_equal_inputs_identical(self):
        a = (u + 1) * (u - 1)
        b = u ** 2 - 1
        assert a == b
        assert a.canonical_key() == b.canonical_key()


class TestDiff:
    def test_power_rule(self):
        assert diff(ux ** 2, jet_var((1,))) == 2 * ux

    def test_product_with_other_symbols(self):
        assert diff(x * u, base_var(1)) == u

    def test_hessian_determinant_entry(self):
        assert diff(u11 * u22 - u12 ** 2, jet_var((1, 2))) == -2 * u12

    def test_linear(self):
        assert diff(3 * u + 5 * ux, jet_var()) == Expr.const(3)

    def test_quotient_rule(self):
        assert diff(ux / u, jet_var()) == -ux / u ** 2

    def test_derivation_property_random(self):
        rng = random.Random(2)
        syms = [base_var(1), jet_var(), jet_var((1,))]
        for _ in range(100):
            e1 = random_poly(rng, syms)
            e2 = random_poly(rng, syms)
            s = rng.choice(syms)
            assert diff(e1 * e2, s) == diff(e1, s) * e2 + e1 * diff(e2, s)


class TestSubstitute:
    def test_equation_substitution(self):
        ut = Expr.symbol(jet_var((), 1))
        assert substitute(ut - uxx, {jet_var((), 1): uxx}).is_zero

    def test_polynomial_expansion(self):
        assert substitute(u ** 2, {jet_var(): x + 1}) == x ** 2 + 2 * x + 1

    def test_rational_target(self):
        assert substitute(ux / u, {jet_var(): Expr.const(1)}) == ux

    def test_simultaneous_not_sequential(self):
        e = u * ux
        got = substitute(e, {jet_var(): ux, jet_var((1,)): u})
        assert got == ux * u

    def test_zero_denominator_detected(self):
        with pytest.raises(DivisionByZeroExpr):
            substitute(ux / u, {jet_var(): ZERO})


class TestPolyCoefficients:
    def test_linear_ansatz(self):
        c1 = Expr.symbol(ansatz_unknown(1))
        c2 = Expr.symbol(ansatz_unknown(2))
        e = c1 * ux ** 2 + c2 * x * ux
        got = poly_coefficients(e, [jet_var((1,))])
        assert got == {
            ((jet_var((1,)), 2),): c1,
            ((jet_var((1,)), 1),): c2 * x,
        }

    def test_zero_expression(self):
        assert poly_coefficients(ZERO, [jet_var()]) == {}

    def test_expand_and_collect(self):
        # oracle: coefficient of u^k is (d/du)^k e / k! at u = 0
        e = (x + u) ** 2
        got = poly_coefficients(e, [jet_var()])
        expected = {}
        work = e
        fact = 1
        for k in range(3):
            coeff = work.substitute({jet_var(): 0}) / fact
            if not coeff.is_zero:
                key = ((jet_var(), k),) if k else ()
                expected[key] = coeff
            work = work.diff(jet_var())
            fact *= k + 1
        assert got == expected

    def test_not_polynomial_raises(self):
        with pytest.raises(NotPolynomialIn):
            poly_coefficients(ux / u, [jet_var()])

    def test_reassembly_random(self):
        rng = random.Random(3)
        syms = [base_var(0), base_var(1), jet_var(), jet_var((1,))]
        for _ in range(100):
            e = random_poly(rng, syms)
            vars_ = rng.sample(syms, rng.randint(1, len(syms)))
            acc = ZERO
            for mono, coeff in poly_coefficients(e, vars_).items():
                acc = acc + coeff * monomial_expr(mono)
            assert acc == e


class TestAlgebraProperties:
    def test_ring_laws_random(self):
        rng = random.Random(5)
        syms = [base_var(1), jet_var(), jet_var((1,))]
        for _ in range(100):
            e1 = random_poly(rng, syms)
            e2 = random_poly(rng, syms)
            assert e1 * e2 == e2 * e1
            assert e1 + e2 - e2 == e1

    def test_subtraction_random(self):
        rng = random.Random(6)
        syms = [base_var(1), jet_var(), jet_var((1,))]
        for _ in range(100):
            p, q = random_poly(rng, syms).num, random_poly(rng, syms).num
            p_terms, q_terms = dict(p.terms), dict(q.terms)
            assert (p - q).terms == (p + (-q)).terms
            assert p.terms == p_terms and q.terms == q_terms  # operands untouched
            assert (p - p).is_zero
            assert (Poly() - q).terms == (-q).terms
        assert 3 - u == Expr.const(3) + (-u)

    def test_zero_test_complete_on_rational_fragment(self):
        rng = random.Random(8)
        syms = [base_var(1), jet_var()]
        for _ in range(60):
            p = random_poly(rng, syms)
            q = random_poly(rng, syms)
            r = random_poly(rng, syms)
            # identities that vanish as rational functions, in disguised form
            assert ((p / q) * (q / r) * (r / p) - 1).is_zero
            assert (p * r / r - p).is_zero
            assert (p / q + r / q - (p + r) / q).is_zero
            # and a certificate that nonzero stays nonzero
            assert not (p ** 2 + 1).is_zero

    def test_gcd_common_factor_random(self):
        rng = random.Random(9)
        syms = [base_var(1), jet_var()]
        for _ in range(40):
            p = random_poly(rng, syms, terms=3)
            q = random_poly(rng, syms, terms=3)
            r = random_poly(rng, syms, terms=2)
            g = poly_gcd((p * r).num, (q * r).num)
            monic_r = r.num.scale(1 / r.num.leading()[1])
            divexact(g, monic_r)  # raises if r does not divide the gcd

    def test_powers(self):
        assert (u / x) ** 0 == ONE
        assert (u / x) ** -2 == x ** 2 / u ** 2
        assert u ** 3 == u * u * u


class TestOrdering:
    def test_global_symbol_order(self):
        syms = [jet_var((1, 1)), ansatz_unknown(1), base_var(0), jet_var((), 1),
                jet_var(), base_var(1), jet_var((1,)), jet_var((2,))]
        assert sorted(syms) == [
            base_var(0), base_var(1), jet_var(), jet_var((1,)), jet_var((2,)),
            jet_var((), 1), jet_var((1, 1)), ansatz_unknown(1),
        ]

    def test_jet_order_breaks_ties_by_time_power(self):
        # |I| + t equal: more time derivatives sorts later
        assert jet_var((1, 1)) < jet_var((1,), 1) < jet_var((), 2)

    def test_monomial_order_is_graded(self):
        lead = (x ** 2 + x * u + u).num.leading()[0]
        assert monomial_expr(lead) == x ** 2

    def test_deterministic_printing(self):
        e = u22 * u11 - u12 * u12 + 3
        assert str(e) == "u_11*u_22 - u_12^2 + 3"

    def test_sort_key_matches_mono_cmp(self):
        """mono_sort_key sorts random monomials over all four symbol kinds,
        time jets among them, exactly as mono_cmp orders them."""
        rng = random.Random(211)
        symbols = [base_var(a) for a in range(4)] + [ansatz_unknown(k) for k in (1, 2, 9)] \
            + [aux_var(k) for k in (1, 3)]
        for order in range(4):
            for tp in range(order + 1):
                for spatial in itertools.combinations_with_replacement(
                        range(1, 4), order - tp):
                    symbols.append(jet_var(spatial, tp))
        for _ in range(40):
            monos = set()
            for _ in range(rng.randint(0, 60)):
                chosen = rng.sample(symbols, rng.randint(0, 4))
                monos.add(tuple(sorted(((s, rng.randint(1, 3)) for s in chosen),
                                       key=lambda p: p[0].key)))
            monos = list(monos)
            rng.shuffle(monos)
            assert sorted(monos, key=mono_sort_key) == \
                sorted(monos, key=functools.cmp_to_key(mono_cmp))


class TestSymbolHash:
    def test_display_name_is_not_identity(self):
        a, b = aux_var(3, "a"), aux_var(3, "b")
        assert a == b and hash(a) == hash(b)
        assert str(a) != str(b)

    def test_separately_built_jets_are_interchangeable_keys(self):
        s1, s2 = jet_var((1, 2)), jet_var((2, 1))
        assert s1 is not s2
        assert s1 == s2 and hash(s1) == hash(s2)
        table = {s1: "mixed"}
        assert table[s2] == "mixed"
        assert Poly({((s1, 1),): Fraction(1)}) == Poly({((s2, 1),): Fraction(1)})

    def test_kinds_with_equal_index_differ(self):
        syms = [base_var(1), ansatz_unknown(1), aux_var(1)]
        assert len(set(syms)) == 3
        assert all(a != b for i, a in enumerate(syms) for b in syms[i + 1:])
        assert base_var(0) != jet_var()
        assert jet_var((1,)) != jet_var((), 1)


def _order_key(s: Symbol) -> tuple:
    """The documented order key, built from the attributes."""
    if s.kind == JET:
        return (1, s.jet.order, s.jet.time_power, s.jet.spatial)
    return ({BASE: 0, ANSATZ: 2, AUX: 3}[s.kind], s.index)


class TestSymbolContract:
    """A symbol hashes, compares and sorts as its order key, in C."""

    SYMBOLS = [base_var(a) for a in range(3)] + [
        jet_var(spatial, tp) for spatial, tp in
        [((), 0), ((1,), 0), ((2,), 0), ((), 1), ((1, 1), 0), ((1, 2), 0),
         ((2,), 1), ((), 2), ((1, 1, 2), 0)]
    ] + [ansatz_unknown(k) for k in (1, 2, 10)] + [aux_var(k) for k in (1, 2, 10)]

    def test_comparisons_agree_with_order_key(self):
        for a in self.SYMBOLS:
            for b in self.SYMBOLS:
                ka, kb = _order_key(a), _order_key(b)
                assert (a < b) == (ka < kb) and (a <= b) == (ka <= kb)
                assert (a > b) == (ka > kb) and (a >= b) == (ka >= kb)
                assert (a == b) == (ka == kb)

    def test_sorted_and_max_agree_with_order_key(self):
        rng = random.Random(5)
        for _ in range(20):
            syms = rng.sample(self.SYMBOLS, rng.randint(1, len(self.SYMBOLS)))
            assert sorted(syms) == sorted(syms, key=_order_key)
            assert max(syms) is max(syms, key=_order_key)

    def test_hash_is_free_of_the_hash_seed(self):
        package_root = os.path.dirname(os.path.dirname(paraclaw.__file__))
        code = "from paraclaw.expr import jet_var; print(hash(jet_var((1, 2))))"
        hashes = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root,
                 "PYTHONHASHSEED": seed}).stdout for seed in ("1", "2")]
        assert hashes[0] == hashes[1] == f"{hash(jet_var((1, 2)))}\n"

    def test_hash_equality_and_order_are_the_tuple_slots(self):
        assert Symbol.__hash__ is tuple.__hash__
        assert Symbol.__eq__ is tuple.__eq__
        assert Symbol.__lt__ is tuple.__lt__

    def test_attributes_are_read_only(self):
        s = jet_var((1,))
        for attr in ("kind", "index", "jet", "name", "_rkey"):
            with pytest.raises(AttributeError):
                setattr(s, attr, getattr(s, attr))
        assert str(Expr.symbol(jet_var((1,)))) == "u_1"

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda e: pickle.loads(pickle.dumps(e))])
    def test_copy_and_pickle_keep_equality_and_names(self, clone):
        xi = Expr.symbol(aux_var(1, "xi1"))
        e = (xi * u11 + 3 * x * ux ** 2) / (u + Expr.symbol(ansatz_unknown(2)))
        got = clone(e)
        assert got == e
        assert str(got) == str(e) == "(3*x1*u_1^2 + u_11*xi1)/(u + c2)"
        for s in got.symbols():
            assert type(s) is Symbol and s in e.symbols()
        assert {s.name for s in got.symbols()} == {s.name for s in e.symbols()}
