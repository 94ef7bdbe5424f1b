"""Acceptance gate: one test per criterion, exact tolerances, stated runtime
caps, and one visible pass line per criterion (printed outside capture)."""

import time
from fractions import Fraction

import pytest

from paraclaw.claws import (
    AnsatzSpec, find_conservation_laws, jacobi_potential_order, verify,
)
from paraclaw.expr import Expr
from paraclaw.jets import (
    deprolongation_dimension, parabolic_system_dimension, tableau_dimension,
)
from paraclaw.parabolic import ma_classify
from corpus import CORPUS, by_name
from util import (
    expr_coefficient_vector, heat_polynomial_space, in_span, span_equal,
    suite_commutativity, suite_cross_validation, suite_divergence_roundtrip,
    suite_euler_kills_divergences, suite_solver_soundness,
    t, trace_matrix_nullity, u, ux, x, x1, x2,
)


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)
    return _announce


def oracle_vectors(n: int, degree: int) -> list[list[Fraction]]:
    import itertools
    monos = [m for m in itertools.product(range(degree + 1), repeat=n + 1)
             if sum(m) <= degree]
    out = []
    for sol in heat_polynomial_space(n, degree):
        out.append([sol.get(m, Fraction(0)) for m in monos])
    return out


def test_criterion_1_heat_characteristic_space(announce):
    started = time.monotonic()
    eq = by_name("heat").equation()
    laws = find_conservation_laws(eq, AnsatzSpec(max_jet_order=2, jet_degree=1,
                                                 base_degree=3))
    for law in laws:
        assert verify(eq, law)
    got = [expr_coefficient_vector(law.Q, 1, 3) for law in laws]
    oracle = oracle_vectors(1, 3)
    assert len(oracle) == 4
    assert span_equal(got, oracle)
    for target in (Expr.const(1), x, x ** 2 - 2 * t, x ** 3 - 6 * x * t):
        assert in_span(expr_coefficient_vector(target, 1, 3), got)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    announce(f"[PASS] criterion 1: heat characteristics span "
             f"{{1, x, x^2-2t, x^3-6xt}}, dimension 4, all verified "
             f"({elapsed:.2f}s)")


def test_criterion_2_burgers_unique_law(announce):
    started = time.monotonic()
    eq = by_name("burgers").equation()
    laws = find_conservation_laws(eq, AnsatzSpec(max_jet_order=2, jet_degree=2,
                                                 base_degree=0))
    assert len(laws) == 1
    law = laws[0]
    assert law.Q == Expr.const(1)
    assert law.T == u
    assert law.X == (-(ux + u ** 2 / 2),)
    assert verify(eq, law)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    announce(f"[PASS] criterion 2: Burgers has exactly one law, Q = 1, "
             f"X = -(u_x + u^2/2), verified exactly ({elapsed:.2f}s)")


def test_criterion_3_heat_2d_characteristics(announce):
    started = time.monotonic()
    eq = by_name("heat_2d").equation()
    laws = find_conservation_laws(eq, AnsatzSpec(max_jet_order=2, jet_degree=1,
                                                 base_degree=2))
    for law in laws:
        assert verify(eq, law)
    got = [expr_coefficient_vector(law.Q, 2, 2) for law in laws]
    for target in (Expr.const(1), x1, x2, x1 ** 2 + x2 ** 2 - 4 * t):
        assert in_span(expr_coefficient_vector(target, 2, 2), got)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    announce(f"[PASS] criterion 3: 2d heat characteristics include "
             f"{{1, x1, x2, x1^2+x2^2-4t}}, all verified ({elapsed:.2f}s)")


def test_criterion_4_non_ma_negative_control(announce):
    started = time.monotonic()
    eq = by_name("quadratic_diffusion").equation()
    laws = find_conservation_laws(eq, AnsatzSpec(max_jet_order=2, jet_degree=2,
                                                 base_degree=2))
    assert laws == []
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    announce(f"[PASS] criterion 4: u_t = u_xx + u_xx^2 has zero nontrivial "
             f"laws at order <= 2, degrees <= 2 ({elapsed:.2f}s)")


def test_criterion_5_second_order_bound(announce):
    started = time.monotonic()
    checked = 0
    for entry in CORPUS:
        eq = entry.equation()
        spec = AnsatzSpec(max_jet_order=2, jet_degree=2 if eq.n == 1 else 1,
                          base_degree=2 if eq.n == 1 else 1)
        for law in find_conservation_laws(eq, spec):
            assert jacobi_potential_order(law) <= 2, entry.name
            checked += 1
    order3 = []
    heat3 = find_conservation_laws(
        by_name("heat").equation(),
        AnsatzSpec(max_jet_order=3, jet_degree=1, base_degree=3, unsafe_order=True))
    burgers3 = find_conservation_laws(
        by_name("burgers").equation(),
        AnsatzSpec(max_jet_order=3, jet_degree=2, base_degree=0, unsafe_order=True))
    for law in heat3 + burgers3:
        assert jacobi_potential_order(law) <= 2
        if jacobi_potential_order(law) == 3:
            order3.append(law)
    assert not order3
    elapsed = time.monotonic() - started
    announce(f"[PASS] criterion 5: jacobi potential order <= 2 across corpus "
             f"({checked} laws); order-3 reruns of heat/Burgers add nothing "
             f"({elapsed:.2f}s)")


def test_criterion_6_ma_classifier_table(announce):
    started = time.monotonic()
    rows = []

    rep = ma_classify(by_name("heat").equation())
    assert rep.minor_affine and rep.n1_affine
    rows.append("heat: affine/true")

    rep = ma_classify(by_name("burgers").equation())
    assert rep.n1_affine
    rows.append("burgers: true")

    rep = ma_classify(by_name("det_hessian_flow").equation())
    assert rep.minor_affine and rep.residue_vanishes
    rows.append("det-hessian: minor_affine, residue 0")

    rep = ma_classify(by_name("laplacian_squared").equation())
    assert rep.minor_affine is False
    assert rep.residue_vanishes is True
    rows.append("laplacian^2: minor_affine false, residue 0")

    rep = ma_classify(by_name("anisotropic_quartic").equation())
    assert rep.residue_vanishes is False
    rows.append("u_11^2: residue != 0")

    rep = ma_classify(by_name("quadratic_diffusion").equation())
    assert rep.n1_affine is False
    rows.append("u_xx^2: n1_affine false")

    elapsed = time.monotonic() - started
    announce(f"[PASS] criterion 6: MA classifier table exact "
             f"({'; '.join(rows)}) ({elapsed:.2f}s)")


def test_criterion_7_property_suites(announce):
    started = time.monotonic()
    counts = {
        "commutativity": suite_commutativity(cases=100),
        "euler-kills-divergences": suite_euler_kills_divergences(cases=100),
        "divergence-roundtrip": suite_divergence_roundtrip(cases=100),
        "solver-soundness": suite_solver_soundness(cases=100),
    }
    assert all(c >= 100 for c in counts.values())
    corpus_checked = suite_cross_validation()
    assert corpus_checked >= 10
    elapsed = time.monotonic() - started
    announce(f"[PASS] criterion 7: property suites exact, "
             f"{counts} cases, cross-validation clean on "
             f"{corpus_checked}-equation corpus ({elapsed:.2f}s)")


def test_criterion_8_combinatorial_anchors(announce):
    started = time.monotonic()
    for n in range(1, 5):
        for r in range(5):
            assert tableau_dimension(n, r) == trace_matrix_nullity(n, r)
    assert parabolic_system_dimension(1) == 7
    for n in range(1, 6):
        assert deprolongation_dimension(n) == 2 * n + 3
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    announce(f"[PASS] criterion 8: tableau dims match trace-matrix oracle "
             f"(n<=4, r<=4), system dim(1) = 7, deprolongation = 2n+3 "
             f"({elapsed:.2f}s)")
