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
    AUX, BASE, JET, DivisionByZeroExpr, Expr, NotPolynomialIn, Poly,
    Symbol, ZERO, ONE, _add_terms, aux_var, base_var, divexact,
    jet_var, mono_decode, mono_encode, mono_sort_key, poly_gcd,
    MAX_EXPONENT, MAX_TERMS, TIME, ExponentOverflow, _add_product, format_poly,
)
from paraclaw.grammar import expr_to_source
from paraclaw.jets import _derivative_terms
from util import linear_columns, mono_cmp, random_poly, tag, u, u11, u12, u22, ux, uxx, x


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
        assert str(a) == str(b)


class TestDiff:
    def test_power_rule(self):
        assert (ux ** 2).diff(jet_var((1,))) == 2 * ux

    def test_product_with_other_symbols(self):
        assert (x * u).diff(base_var(1)) == u

    def test_hessian_determinant_entry(self):
        assert (u11 * u22 - u12 ** 2).diff(jet_var((1, 2))) == -2 * u12

    def test_linear(self):
        assert (3 * u + 5 * ux).diff(jet_var()) == Expr.const(3)

    def test_quotient_rule(self):
        assert (ux / u).diff(jet_var()) == -ux / u ** 2

    def test_every_derivative_goes_through_one_quotient_rule(self, monkeypatch):
        from paraclaw import expr, jets, parabolic
        seen = []
        real = expr._derived

        def recording(e, derive):
            seen.append(e)
            return real(e, derive)

        for module in (expr, jets, parabolic):
            monkeypatch.setattr(module, "_derived", recording)
        e = ux * uxx / (1 + u)
        eq = parabolic.EvolutionEquation(1, e)
        sigma = eq.symbol
        for call, arg, want in (
                (lambda: e.diff(jet_var()), e, -ux * uxx / (1 + u) ** 2),
                (lambda: jets.total_derivative(e, 1), e, _derivative_by_hand(e)),
                (lambda: parabolic.symbol_form(eq), eq.G, sigma),
                (lambda: parabolic.quartic_form(eq), sigma, ZERO)):
            seen.clear()
            assert call() == want
            assert len(seen) == 1 and seen[0] is arg

    def test_derivation_property_random(self):
        rng = random.Random(2)
        syms = [base_var(1), jet_var(), jet_var((1,))]
        for _ in range(100):
            e1 = random_poly(rng, syms)
            e2 = random_poly(rng, syms)
            s = rng.choice(syms)
            assert (e1 * e2).diff(s) == e1.diff(s) * e2 + e1 * e2.diff(s)


def _derivative_by_hand(e: Expr) -> Expr:
    """D_1 e = de/dx1 + sum_J u_J1 de/du_J for e in x1, u, u_1 and u_11."""
    return e.diff(base_var(1)) + ux * e.diff(jet_var()) + uxx * e.diff(jet_var((1,))) \
        + Expr.symbol(jet_var((1, 1, 1))) * e.diff(jet_var((1, 1)))


class TestSubstitute:
    def test_equation_substitution(self):
        ut = Expr.symbol(jet_var((), 1))
        assert (ut - uxx).substitute({jet_var((), 1): uxx}).is_zero

    def test_polynomial_expansion(self):
        assert (u ** 2).substitute({jet_var(): x + 1}) == x ** 2 + 2 * x + 1

    def test_rational_target(self):
        assert (ux / u).substitute({jet_var(): Expr.const(1)}) == ux

    def test_simultaneous_not_sequential(self):
        e = u * ux
        got = e.substitute({jet_var(): ux, jet_var((1,)): u})
        assert got == ux * u

    def test_zero_denominator_detected(self):
        with pytest.raises(DivisionByZeroExpr):
            (ux / u).substitute({jet_var(): ZERO})


class TestPolyCoefficients:
    def test_linear_ansatz(self):
        c1 = Expr.symbol(aux_var(1))
        c2 = Expr.symbol(aux_var(2))
        e = c1 * ux ** 2 + c2 * x * ux
        got = e.num.coefficients_in(frozenset([jet_var((1,))]))
        assert got == {
            mono_encode([(jet_var((1,)), 2)]): c1.num,
            mono_encode([(jet_var((1,)), 1)]): (c2 * x).num,
        }

    def test_zero_expression(self):
        assert ZERO.num.coefficients_in(frozenset([jet_var()])) == {}

    def test_expand_and_collect(self):
        # oracle: coefficient of u^k is (d/du)^k e / k! at u = 0
        e = (x + u) ** 2
        got = e.num.coefficients_in(frozenset([jet_var()]))
        expected = {}
        work = e
        fact = 1
        for k in range(3):
            coeff = work.substitute({jet_var(): 0}) / fact
            if not coeff.is_zero:
                key = mono_encode([(jet_var(), k)]) if k else 0
                expected[key] = coeff.num
            work = work.diff(jet_var())
            fact *= k + 1
        assert got == expected

    def test_not_polynomial_raises(self):
        # the columns of a quotient in the column tags of tests/util.py
        c1 = Expr.symbol(tag(1))
        with pytest.raises(NotPolynomialIn):
            linear_columns(c1 * ux / u, [tag(1)])

    def test_reassembly_random(self):
        rng = random.Random(3)
        syms = [base_var(0), base_var(1), jet_var(), jet_var((1,))]
        for _ in range(100):
            e = random_poly(rng, syms)
            vars_ = rng.sample(syms, rng.randint(1, len(syms)))
            acc = Poly()
            for mono, coeff in e.num.coefficients_in(frozenset(vars_)).items():
                acc = acc + coeff.mono_shift(mono)
            assert acc == e.num


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

    def test_gcd_with_zero(self):
        # gcd(0, 0) = 0, and gcd(p, 0) = gcd(0, p) is p made monic
        p = (2 * x * u + 4 * u).num
        assert poly_gcd(Poly(), Poly()).is_zero
        assert poly_gcd(p, Poly()) == poly_gcd(Poly(), p) == (x * u + 2 * u).num

    def test_gcd_with_one_term_is_the_common_monomial(self):
        rng = random.Random(12)
        syms = [base_var(1), jet_var(), jet_var((1,))]
        for _ in range(60):
            p = random_poly(rng, syms, terms=4).num
            t = random_poly(rng, syms, terms=1, max_exp=3).num
            # each symbol to the least exponent it has in any term of either
            least = [(s, min(dict(mono_decode(m)).get(s, 0) for m in (*p.terms, *t.terms)))
                     for s in syms]
            want = Poly({mono_encode([(s, e) for s, e in least if e]): Fraction(1)})
            assert poly_gcd(t, p) == want and poly_gcd(p, t) == want

    def test_product_cancels_crosswise(self, monkeypatch):
        # (a/b)(c/d) takes gcd(a, d) and gcd(c, b), not gcd(a c, b d); the
        # canonical form is unique, so it is _make's, coefficient types too
        from paraclaw import expr
        rng = random.Random(11)
        syms = [base_var(1), jet_var(), jet_var((1,))]
        for _ in range(60):
            p, q, r, s = (random_poly(rng, syms, terms=3) for _ in range(4))
            for e1, e2 in ((p / q, q * r / p), (p / (q * r), s * r), (r / s, p),
                           (p / q, r / s), (-p / q, q / p), (0 * p, r / s)):
                got, want = e1 * e2, Expr._make(e1.num * e2.num, e1.den * e2.den)
                for part in ("num", "den"):
                    assert {m: (type(c), c) for m, c in getattr(got, part).terms.items()} \
                        == {m: (type(c), c) for m, c in getattr(want, part).terms.items()}
        calls, depth = [], [0]

        def counting(a, b):  # the outermost calls; poly_gcd recurses through itself
            if not depth[0]:
                calls.append((a, b))
            depth[0] += 1
            try:
                return poly_gcd(a, b)
            finally:
                depth[0] -= 1

        e = p / q
        monkeypatch.setattr(expr, "poly_gcd", counting)
        assert e * r == r * e
        # gcd(r, q) each way, and none against r's denominator 1
        assert calls == [(r.num, e.den), (r.num, e.den)]

    def test_quotient_cancels_crosswise(self):
        # (a/b)/(c/d) takes gcd(a, c) and gcd(d, b), not gcd(a d, b c); the
        # canonical form is unique, so it is _make's, coefficient types too
        rng = random.Random(13)
        syms = [base_var(1), jet_var(), jet_var((1,))]
        for _ in range(60):
            p, q, r, s = (random_poly(rng, syms, terms=3) for _ in range(4))
            for e1, e2 in ((p / q, r / p), (p * r / q, r), (r / s, p / (q * s)),
                           (p / q, r / s), (-p / q, q / p), (0 * p, r / s),
                           (p, Expr.const(Fraction(-3, 2))), (Expr.const(2), q / p)):
                got, want = e1 / e2, Expr._make(e1.num * e2.den, e1.den * e2.num)
                for part in ("num", "den"):
                    assert {m: (type(c), c) for m, c in getattr(got, part).terms.items()} \
                        == {m: (type(c), c) for m, c in getattr(want, part).terms.items()}
        for numerator in (p / q, ZERO, 3):
            with pytest.raises(DivisionByZeroExpr):
                numerator / (0 * p)
        with pytest.raises(DivisionByZeroExpr):
            p / 0

    def test_powers(self):
        assert (u / x) ** 0 == ONE
        assert (u / x) ** -2 == x ** 2 / u ** 2
        assert u ** 3 == u * u * u

    def test_power_of_int_polynomial_keeps_int_coefficients(self):
        rng = random.Random(10)
        syms = [base_var(1), jet_var(), jet_var((1,))]
        for k in range(40):
            p = Poly({m: int(c) for m, c in random_poly(rng, syms).num.terms.items()})
            e = k % 4
            power = p ** e
            product = Poly({0: 1})
            for _ in range(e):
                product = product * p
            assert power == product
            assert all(type(c) is int for c in power.terms.values())
        half = Poly({mono_encode([(jet_var(), 1)]): Fraction(1, 2)})
        assert (half ** 3).terms == {mono_encode([(jet_var(), 3)]): Fraction(1, 8)}


    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    def test_raw_term_kernel_random(self, kind):
        # +, -, *, diff and _add_terms all accumulate through the raw-term
        # kernel: each result equals a naive dict sum, holds no zero, leaves
        # its operands alone and keeps exact coefficient types
        rng = random.Random({"int": 11, "fraction": 12, "mixed": 13}[kind])
        syms = [base_var(1), jet_var(), jet_var((1,))]

        def coefficient():
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            if kind == "fraction" or kind == "mixed" and rng.random() < 0.5:
                return Fraction(c, rng.randint(1, 3))
            return c

        def random_terms():
            return {mono_encode((s, rng.randint(1, 2))
                                for s in rng.sample(syms, rng.randint(0, 2))): coefficient()
                    for _ in range(rng.randint(0, 6))}

        def times(m1, m2):
            return mono_encode((*mono_decode(m1), *mono_decode(m2)))

        def lowered(m, s):
            exponents = dict(mono_decode(m))
            e = exponents.pop(s)
            if e > 1:
                exponents[s] = e - 1
            return mono_encode(exponents.items()), e

        def naive(pairs):
            acc = {}
            for m, c in pairs:
                acc[m] = acc.get(m, 0) + Fraction(c)
            return {m: c for m, c in acc.items() if c}

        for _ in range(200):
            a, b = random_terms(), random_terms()
            before = [(dict(p), {m: type(c) for m, c in p.items()}) for p in (a, b)]
            s = rng.choice(syms)
            results = {
                "+": ((Poly(a) + Poly(b)).terms, naive([*a.items(), *b.items()])),
                "-": ((Poly(a) - Poly(b)).terms,
                      naive([*a.items(), *((m, -c) for m, c in b.items())])),
                "*": ((Poly(a) * Poly(b)).terms,
                      naive((times(m1, m2), c1 * c2)
                            for m1, c1 in a.items() for m2, c2 in b.items())),
                "diff": (Poly(a).diff(s).terms,
                         naive((m2, c * e) for m, c in a.items() if s in dict(mono_decode(m))
                               for m2, e in [lowered(m, s)])),
            }
            for factor in (None, 2, -1, Fraction(1), Fraction(3, 7)):
                out = dict(b)
                _add_terms(out, a, factor)
                scale = 1 if factor is None else factor
                results[factor] = (out, naive([*b.items(), *((m, c * scale)
                                                            for m, c in a.items())]))
            assert (Poly(a) - Poly(a)).is_zero
            assert [(dict(p), {m: type(c) for m, c in p.items()}) for p in (a, b)] == before
            for op, (got, want) in results.items():
                assert got == want, op
                assert all(got.values()), op
                types = {type(c) for c in got.values()}
                assert types <= {int, Fraction}, op
                if type(op) is Fraction:
                    assert all(type(got[m]) is Fraction for m in a if m in got), op
                elif kind == "int":
                    assert types <= {int}, op
                elif kind == "fraction":
                    assert types <= {Fraction}, op


class TestOrdering:
    def test_global_symbol_order(self):
        syms = [jet_var((1, 1)), aux_var(1), base_var(0), jet_var((), 1),
                jet_var(), base_var(1), jet_var((1,)), jet_var((2,))]
        assert sorted(syms) == [
            base_var(0), base_var(1), jet_var(), jet_var((1,)), jet_var((2,)),
            jet_var((), 1), jet_var((1, 1)), aux_var(1),
        ]

    def test_jet_order_breaks_ties_by_time_power(self):
        # |I| + t equal: more time derivatives sorts later
        assert jet_var((1, 1)) < jet_var((1,), 1) < jet_var((), 2)

    def test_monomial_order_is_graded(self):
        lead = (x ** 2 + x * u + u).num.leading()[0]
        assert mono_decode(lead) == ((base_var(1), 2),)

    def test_deterministic_printing(self):
        e = u22 * u11 - u12 * u12 + 3
        assert str(e) == "u_11*u_22 - u_12^2 + 3"

    def test_leading_term_follows_the_symbols_not_the_slots(self):
        # x1 sorts before every auxiliary symbol, but a fresh one takes a
        # later slot, so a larger packed int: an order read off the int
        # would put it first
        x1 = base_var(1)
        w = aux_var(9001, "w_fresh_for_leading")
        assert w.slot > x1.slot
        p = Poly({x1.unit: 3, w.unit: 2})
        assert p.leading() == (x1.unit, 3)
        assert max(p.terms, key=mono_sort_key) == x1.unit
        assert format_poly(p) == "3*x1 + 2*w_fresh_for_leading"

    def test_sort_key_matches_mono_cmp(self):
        """mono_sort_key sorts random monomials over all three symbol kinds,
        time jets among them, exactly as mono_cmp orders them."""
        rng = random.Random(211)
        symbols = [base_var(a) for a in range(4)] + [aux_var(k) for k in (1, 2, 3, 9)]
        for order in range(4):
            for tp in range(order + 1):
                for spatial in itertools.combinations_with_replacement(
                        range(1, 4), order - tp):
                    symbols.append(jet_var(spatial, tp))
        for _ in range(40):
            monos = set()
            for _ in range(rng.randint(0, 60)):
                chosen = rng.sample(symbols, rng.randint(0, 4))
                monos.add(mono_encode((s, rng.randint(1, 3)) for s in chosen))
            monos = list(monos)
            rng.shuffle(monos)
            assert sorted(monos, key=mono_sort_key) == \
                sorted(monos, key=functools.cmp_to_key(mono_cmp))


class TestPrintingMemo:
    """format_poly, mono_sort_key and leading read one memo of each
    monomial's sort key and text; the per-call printer of util is the
    reference."""

    @staticmethod
    def scrambled_symbols(rng: random.Random) -> list:
        """Fresh base, jet and aux symbols for n = 1-3, interned in a
        shuffled order, so that their slots do not follow their order."""
        makers = [functools.partial(base_var, a) for a in range(20, 26)]
        makers += [functools.partial(aux_var, k, f"s{k}") for k in range(7100, 7106)]
        makers += [functools.partial(jet_var, [rng.randint(1, 3) for _ in range(k)], tp)
                   for k in (3, 4, 5) for tp in (0, 1)]
        rng.shuffle(makers)
        return [make() for make in makers]

    def random_poly(self, rng: random.Random, symbols: list) -> Poly:
        terms = {}
        for _ in range(rng.randint(1, 6)):
            chosen = rng.sample(symbols, rng.randint(0, 4))
            m = mono_encode((s, rng.choice([1, 1, 2, 3, 17])) for s in chosen)
            terms[m] = rng.choice([1, -1, rng.randint(-9, 9) or 5, Fraction(1), Fraction(-1),
                                   Fraction(4), Fraction(rng.randint(1, 9), rng.randint(2, 7)),
                                   Fraction(rng.randint(-9, -1), rng.randint(2, 7))])
        return Poly(terms)

    def test_printer_matches_the_reference(self):
        from paraclaw.grammar import _source_name
        from util import reference_format_poly, reference_mono_sort_key
        rng = random.Random(401)
        extra = self.scrambled_symbols(rng)
        assert sorted(extra) != sorted(extra, key=lambda s: s.slot)
        for n in (1, 2, 3):
            spatial = [base_var(a) for a in range(n + 1)]
            for order in range(3):
                for tp in range(order + 1):
                    words = itertools.combinations_with_replacement(range(1, n + 1), order - tp)
                    spatial += [jet_var(word, tp) for word in words]
            spatial += [s for s in extra if s.kind != JET or max(s.spatial, default=1) <= n]
            printable = [s for s in spatial if s.kind == BASE
                         or (s.kind == JET and not s.time_power)]
            for _ in range(150):
                p = self.random_poly(rng, spatial)
                assert format_poly(p) == reference_format_poly(p)
                assert sorted(p.terms, key=mono_sort_key, reverse=True) == \
                    sorted(p.terms, key=reference_mono_sort_key, reverse=True)
                assert p.leading()[0] == max(p.terms, key=reference_mono_sort_key)
                q = self.random_poly(rng, printable)
                assert format_poly(q, _source_name(n)) == reference_format_poly(q, _source_name(n))
                e = Expr._make(q, Poly({0: 1}))
                assert expr_to_source(e, n) == reference_format_poly(e.num, _source_name(n))
        assert format_poly(Poly()) == reference_format_poly(Poly()) == "0"
        assert format_poly(Poly({0: Fraction(-7, 3)})) == "-7/3"

    def test_one_namer_per_dimension(self):
        from paraclaw.grammar import _source_name
        assert _source_name(2) is _source_name(2) and _source_name(1) is not _source_name(2)
        assert _source_name.cache_info().maxsize == MAX_TERMS

    def test_each_symbol_named_once_per_namer(self):
        named = []

        def name(s):
            named.append(s)
            return s.name.upper()

        a, b, c = aux_var(7250, "a"), aux_var(7251, "b"), aux_var(7252, "c")
        p = Poly({mono_encode([(a, 2), (b, 1)]): 3, mono_encode([(b, 3)]): -1, c.unit: 1})
        q = Poly({mono_encode([(a, 1), (c, 4)]): Fraction(1, 2), mono_encode([(a, 2), (b, 1)]): 1})
        assert format_poly(p, name) == "3*A^2*B - B^3 + C"
        assert format_poly(q, name) == "1/2*A*C^4 + A^2*B"
        assert format_poly(p, name) == "3*A^2*B - B^3 + C"
        assert sorted(named) == [a, b, c]

    def test_refused_symbol_printed_first_by_str(self):
        # the memo is keyed by the namer, so str's text of a time jet or an
        # aux symbol does not reach the file grammar, which refuses them
        for s in (jet_var((1,), 1), jet_var((), 2), aux_var(7200, "refused")):
            for e in (Expr.symbol(s), Expr.symbol(s) ** 2 * u - 3 * x, u / (Expr.symbol(s) + 1)):
                assert str(e)
                for _ in range(2):  # a namer that raised left no entry
                    with pytest.raises(ValueError, match="cannot print"):
                        expr_to_source(e, 1)

    def test_memo_never_holds_more_than_max_terms(self):
        # the memo is an lru_cache of MAX_TERMS entries: once full it evicts
        # the least recently read entry, here the oldest power of s, and
        # keeps the text of s, which every power reads
        from paraclaw import expr
        s = aux_var(7300, "bounded")
        sizes = []
        for k in range(1, MAX_TERMS + 50):
            format_poly(Poly({mono_encode([(s, k)]): 1}))
            sizes.append(expr._printed.cache_info().currsize)
        info = expr._printed.cache_info()
        assert info.maxsize == MAX_TERMS and max(sizes) == sizes[-1] == MAX_TERMS
        assert format_poly(Poly({s.unit: 3})) == "3*bounded"
        assert expr._printed.cache_info().misses == info.misses
        assert format_poly(Poly({mono_encode([(s, 5)]): 2})) == "2*bounded^5"
        assert expr._printed.cache_info().misses == info.misses + 1


class TestSymbolHash:
    def test_display_name_is_not_identity(self):
        a, b = aux_var(3, "a"), aux_var(3, "b")
        assert a == b and hash(a) == hash(b)
        assert str(a) != str(b)

    def test_separately_built_jets_are_interchangeable_keys(self):
        # the word is sorted before interning, so any order gives one symbol
        s1, s2 = jet_var((1, 2)), jet_var((2, 1))
        assert s1 is s2 and s1.spatial == (1, 2)
        assert s1 == s2 and hash(s1) == hash(s2)
        table = {s1: "mixed"}
        assert table[s2] == "mixed"
        assert Poly({s1.unit: Fraction(1)}) == Poly({s2.unit: Fraction(1)})

    def test_kinds_with_equal_index_differ(self):
        syms = [base_var(1), aux_var(1)]
        assert len(set(syms)) == 2
        assert all(a != b for i, a in enumerate(syms) for b in syms[i + 1:])
        assert base_var(0) != jet_var()
        assert jet_var((1,)) != jet_var((), 1)


def _order_key(s: Symbol) -> tuple:
    """The documented order key, built from the attributes."""
    if s.kind == JET:
        return (1, s.order, s.time_power, s.spatial)
    return ({BASE: 0, AUX: 2}[s.kind], s.index)


class TestSymbolContract:
    """A symbol hashes, compares and sorts as its order key, in C."""

    SYMBOLS = [base_var(a) for a in range(3)] + [
        jet_var(spatial, tp) for spatial, tp in
        [((), 0), ((1,), 0), ((2,), 0), ((), 1), ((1, 1), 0), ((1, 2), 0),
         ((2,), 1), ((), 2), ((1, 1, 2), 0)]
    ] + [aux_var(k) for k in (1, 2, 3, 10)]

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
        for attr in ("kind", "index", "name", "_rkey", "order", "time_power", "spatial"):
            with pytest.raises(AttributeError):
                setattr(s, attr, getattr(s, attr))
        assert str(Expr.symbol(jet_var((1,)))) == "u_1"
        # only a jet has an index word
        assert not hasattr(base_var(1), "spatial") and not hasattr(aux_var(1), "order")

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda e: pickle.loads(pickle.dumps(e)), copy.copy])
    def test_copy_and_pickle_keep_equality_and_names(self, clone):
        # every public value type comes back equal and printed the same, and
        # its jet symbols come back as the interned ones
        from paraclaw.claws import (
            AnsatzSpec, assemble_determining_system, find_conservation_laws, generate_ansatz,
        )
        from paraclaw.grammar import parse
        from paraclaw.parabolic import ma_classify
        xi = Expr.symbol(aux_var(1, "xi1"))
        e = (xi * u11 + 3 * x * ux ** 2) / (u + Expr.symbol(aux_var(2)))
        got = clone(e)
        assert got == e
        assert str(got) == str(e) == "(3*x1*u_1^2 + u_11*xi1)/(u + w2)"
        for s in got.symbols():
            assert type(s) is Symbol and s in e.symbols()
            assert s.kind != JET or s is jet_var(s.spatial, s.time_power)
        assert {s.name for s in got.symbols()} == {s.name for s in e.symbols()}
        pf = parse("n=2; u_t = u_11 + u_22 + u_1*u_12; ref u_1 = 1; jet_degree = 1")
        eq, spec = pf.equation(), AnsatzSpec(2, 1, 1)
        columns = generate_ansatz(eq.n, AnsatzSpec(1, 1, 0))
        values = [base_var(0), base_var(2), jet_var(), jet_var((2, 1), 1), aux_var(3),
                  aux_var(1, "xi1"), e, spec, find_conservation_laws(eq, spec)[0],
                  ma_classify(eq), pf, eq, assemble_determining_system(eq, *columns)]
        for value in values:
            got = clone(value)
            assert type(got) is type(value) and repr(got) == repr(value), value
            assert got == value, value
        assert all(s is jet_var(s.spatial) for s in clone(eq).reference_jet)
        assert clone(jet_var((2, 1), 1)) is jet_var((1, 2), 1)
        assert clone(aux_var(1, "xi1")).name == "xi1"
        # base and auxiliary symbols are interned too, aux on index and name
        assert base_var(0) is TIME and clone(base_var(0)) is TIME
        assert clone(base_var(2)) is base_var(2) is Symbol(BASE, 2)
        assert clone(aux_var(1, "xi1")) is aux_var(1, "xi1") is not aux_var(1)
        assert clone(aux_var(3)) is aux_var(3, "w3")
        assert all(s is base_var(s.index) for s in clone(x * Expr.symbol(base_var(2))).symbols())


class TestValueClasses:
    """AnsatzSpec, ConservationLaw, DeterminingSystem, ProblemFile and
    MAReport are plain classes whose fields are their slots: built by
    position or keyword, equal on equal fields, printed as dataclasses
    print, and the frozen ones refuse assignment and hash their fields."""

    def _fresh(self):
        # each value built twice, once by position and once by keyword
        from paraclaw.claws import AnsatzSpec, ConservationLaw, DeterminingSystem
        from paraclaw.grammar import ProblemFile
        from paraclaw.parabolic import MAReport
        half = {jet_var((1,)): Fraction(1, 2)}
        return [
            (AnsatzSpec(2, 2, 1), AnsatzSpec(max_jet_order=2, jet_degree=2, base_degree=1),
             AnsatzSpec(2, 2, 2),
             "AnsatzSpec(max_jet_order=2, jet_degree=2, base_degree=1, unsafe_order=False)"),
            (ConservationLaw(u, (-ux,), ONE), ConservationLaw(T=u, X=(-ux,), Q=ONE),
             ConservationLaw(u, (ux,), ONE),
             "ConservationLaw(T=Expr(u), X=(Expr(-u_1),), Q=Expr(1))"),
            (DeterminingSystem(2, [{0: 1, 1: -3}], [TIME.unit]),
             DeterminingSystem(ncols=2, rows=[{0: 1, 1: -3}], keys=[TIME.unit]),
             DeterminingSystem(2),
             f"DeterminingSystem(ncols=2, rows=[{{0: 1, 1: -3}}], keys=[{TIME.unit}])"),
            (ProblemFile(1, uxx, half, 2), ProblemFile(n=1, G=uxx, reference_jet=half,
                                                      jet_degree=2),
             ProblemFile(1, uxx, half),
             "ProblemFile(n=1, G=Expr(u_11), reference_jet={u_1: Fraction(1, 2)}, "
             "jet_degree=2, base_degree=None, max_jet_order=None)"),
            (MAReport(True, None, residue_vanishes=True),
             MAReport(minor_affine=True, n1_affine=None, singular_symbol=False,
                      residue_vanishes=True),
             MAReport(False, None, residue_vanishes=True),
             "MAReport(minor_affine=True, n1_affine=None, singular_symbol=False, "
             "residue_vanishes=True)"),
        ]

    def test_equality_and_repr(self):
        values = self._fresh()
        for a, b, other, text in values:
            assert a == b and not a != b and a is not b, text
            assert a != other and not a == other, text
            assert repr(a) == repr(b) == text
        # instances of two classes are never equal, whatever their fields
        assert all(a != c for a, *_ in values for c, *_ in values if type(a) is not type(c))
        from paraclaw.claws import ConservationLaw, DeterminingSystem
        fields = (2, [{0: 1}], [7])
        assert ConservationLaw(*fields) != DeterminingSystem(*fields)
        assert values[0][0] != (2, 2, 1, False)

    def test_frozen_values_refuse_assignment_and_hash_their_fields(self):
        from paraclaw.claws import AnsatzSpec, ConservationLaw, DeterminingSystem
        from paraclaw.grammar import ProblemFile
        from paraclaw.parabolic import MAReport
        for a, b, other, _ in self._fresh():
            field = type(a).__slots__[0]
            if type(a) in (AnsatzSpec, ConservationLaw, MAReport):
                with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                    setattr(a, field, getattr(other, field))
                with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                    delattr(a, field)
                assert a == b
            else:
                assert type(a) in (DeterminingSystem, ProblemFile)
                with pytest.raises(TypeError):
                    hash(a)
                setattr(a, field, getattr(other, field))
                assert getattr(a, field) == getattr(other, field)
        assert hash(MAReport(False, True)) == hash(MAReport(False, True))
        assert DeterminingSystem(0).rows is not DeterminingSystem(0).rows
        assert ProblemFile(1, u).reference_jet is not ProblemFile(1, u).reference_jet

    @pytest.mark.parametrize("bounds, message", [
        ((-1,), "ansatz bounds must be non-negative"),
        ((2, 1, -1), "ansatz bounds must be non-negative"),
        ((3,), "max_jet_order > 2 needs unsafe_order=True (--unsafe-order)"),
        ((12, 1, 0, True), "max_jet_order 12 reaches the order limit ORDER_GUARD = 12"),
    ])
    def test_ansatz_spec_bounds(self, bounds, message):
        from paraclaw.claws import AnsatzSpec
        with pytest.raises(ValueError) as exc:
            AnsatzSpec(*bounds)
        assert str(exc.value) == message

    def test_ma_report_invariant(self):
        from paraclaw.parabolic import InvariantViolation, MAReport
        with pytest.raises(InvariantViolation) as exc:
            MAReport(True, None, residue_vanishes=False)
        assert str(exc.value) == "minor-affine equation with nonzero residue"
        assert MAReport(False, None, residue_vanishes=False).residue_vanishes is False


class TestMonomialEncoding:
    """A monomial is one int, sum e_s 2^(32 slot(s)); decoding is its inverse."""

    def test_round_trip(self):
        # seeded random factors over base, auxiliary and high-order jet
        # symbols, exponents up to the field limit
        rng = random.Random(37)
        symbols = [base_var(a) for a in range(4)] + [aux_var(k, f"r{k}") for k in (1, 7)]
        symbols += [jet_var(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 9))),
                            rng.randint(0, 2)) for _ in range(30)]
        symbols = list(dict.fromkeys(symbols))  # distinct, so no exponents add
        for _ in range(300):
            chosen = rng.sample(symbols, rng.randint(0, 6))
            factors = tuple(sorted((s, rng.choice([1, 2, rng.randint(1, MAX_EXPONENT),
                                                   MAX_EXPONENT]))
                                   for s in chosen))
            m = mono_encode(factors)
            assert mono_decode(m) == factors
            assert m == sum(e << (32 * s.slot) for s, e in factors)
            assert mono_encode(reversed(factors)) == m

    def test_repeated_symbols_add(self):
        assert mono_encode([(jet_var(), 2), (jet_var(), 3)]) == 5 * jet_var().unit
        assert mono_encode([]) == 0 and mono_decode(0) == ()

    def test_exponent_past_the_field_raises(self):
        s = jet_var((1, 2))
        with pytest.raises(ExponentOverflow):
            mono_encode([(s, MAX_EXPONENT + 1)])
        with pytest.raises(ExponentOverflow):
            mono_encode([(s, MAX_EXPONENT), (s, 1)])
        with pytest.raises(ValueError):
            mono_encode([(s, 0)])

    def test_kernel_results_raise_instead_of_carrying(self):
        u_, x_ = jet_var(), base_var(1)
        top = {mono_encode([(u_, MAX_EXPONENT), (x_, 1)]): 1}
        out = {}
        _add_product(out, top, {x_.unit: 1, 0: 2})
        assert out == {mono_encode([(u_, MAX_EXPONENT), (x_, 2)]): 1,
                       mono_encode([(u_, MAX_EXPONENT), (x_, 1)]): 2}
        with pytest.raises(ExponentOverflow):
            _add_product({}, top, {u_.unit: 1})
        with pytest.raises(ExponentOverflow):
            Poly(top) * Poly({u_.unit: 1})
        with pytest.raises(ExponentOverflow):
            Poly(top).mono_shift(u_.unit)
        # D_x u_1^(2^31 - 1) * u: the u_1 of D_x u is one power too many
        with pytest.raises(ExponentOverflow):
            _derivative_terms({mono_encode([(u_, 1), (jet_var((1,)), MAX_EXPONENT)]): 1}, 1)
        # the largest exponent itself is kept, and lowered by d/du
        assert Poly(top).diff(u_).terms == {mono_encode([(u_, MAX_EXPONENT - 1),
                                                         (x_, 1)]): MAX_EXPONENT}

    def test_symbols_decode_the_or_of_the_monomials(self):
        # Poly.symbols and Expr.symbols against the decode of each monomial,
        # over late-interned (high) slots and exponents up to the field limit
        rng = random.Random(41)
        symbols = [base_var(a) for a in range(3)] + [jet_var((1,)), jet_var()]
        symbols += [aux_var(k, f"h{k}") for k in range(7400, 7440)]
        for _ in range(200):
            polys = []
            for _ in range(2):
                terms = {}
                for _ in range(rng.randint(0, 5)):
                    chosen = rng.sample(symbols, rng.randint(0, 4))
                    terms[mono_encode((s, rng.choice([1, 2, MAX_EXPONENT - 1, MAX_EXPONENT]))
                                      for s in chosen)] = rng.randint(1, 4)
                polys.append(Poly(terms))
            decoded = [{s for m in p.terms for s, _ in mono_decode(m)} for p in polys]
            assert [p.symbols() for p in polys] == decoded
            if polys[1].terms:
                assert Expr(*polys, _raw=True).symbols() == decoded[0] | decoded[1]
        assert Poly().symbols() == set() == Poly({0: 3}).symbols()
        top = aux_var(7439, "h7439")
        assert Poly({mono_encode([(top, MAX_EXPONENT)]): 1}).symbols() == {top}

    def test_pickled_polynomial_is_free_of_slots(self):
        # unpickled in a process that interns its symbols in another order
        e = (x * Expr.symbol(base_var(2)) * u11 + 3 * ux ** 2) / (u + 2)
        package_root = os.path.dirname(os.path.dirname(paraclaw.__file__))
        code = ("import pickle, sys\n"
                "from paraclaw.expr import aux_var, jet_var\n"
                "aux_var(5), jet_var((2, 2, 1)), jet_var((1,)), jet_var()\n"
                "print(pickle.loads(sys.stdin.buffer.read()))")
        proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(e),
                              capture_output=True, check=True,
                              env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
        assert proc.stdout.decode() == f"{e}\n"
