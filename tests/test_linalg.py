"""Exact sparse linear algebra: the incremental RREF against the column-sweep
reference, the forward-only echelon against the eager one, null spaces
against the Fraction route, the independence test and particular
solutions, over seeded random rational, integer and mixed matrices."""

import copy
import random
from fractions import Fraction

import pytest

from paraclaw import linalg
from corpus import CORPUS
from util import naive_rref, suite_nullspace_equivalence, suite_rank_echelon_equivalence

SHAPES = [(1, 1), (3, 3), (8, 8), (12, 5), (20, 6), (4, 15), (6, 24), (0, 4)]


def _entry(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))


def _int_entry(rng: random.Random) -> int:
    return rng.choice([-1, 1]) * rng.randint(1, 6)


def _mixed_entry(rng: random.Random) -> int | Fraction:
    return _int_entry(rng) if rng.random() < 0.5 else _entry(rng)


ENTRIES = {"fraction": _entry, "int": _int_entry, "mixed": _mixed_entry}


def _random_rows(rng: random.Random, nrows: int, ncols: int,
                 entry=_entry) -> list[dict]:
    """Sparse rows with zero rows, duplicate and scaled rows, and rows that
    combine earlier ones mixed in, so most matrices are rank-deficient.
    Keys are inserted in random order."""
    density = rng.choice([0.15, 0.3, 0.6])
    rows: list[dict] = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.25 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.4 and rows:
            f = entry(rng)
            rows.append({c: f * v for c, v in rng.choice(rows).items()})
        elif kind < 0.55 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            fa, fb = entry(rng), entry(rng)
            combo = {c: fa * a.get(c, 0) + fb * b.get(c, 0) for c in a.keys() | b.keys()}
            rows.append({c: v for c, v in combo.items() if v})
        else:
            rows.append({c: entry(rng) for c in range(ncols) if rng.random() < density})
    rng.shuffle(rows)
    return [_shuffled(rng, row) for row in rows]


def _shuffled(rng: random.Random, row: dict) -> dict:
    """row with its keys inserted in random order: the result must not
    depend on dict order."""
    keys = list(row)
    rng.shuffle(keys)
    return {c: row[c] for c in keys}


def _cases(seed: int, per_shape: int = 25, entry=_entry):
    rng = random.Random(seed)
    for nrows, ncols in SHAPES:
        for _ in range(per_shape):
            yield _random_rows(rng, nrows, ncols, entry), ncols


def _all_fractions(rows: list[dict]) -> bool:
    return all(type(v) is Fraction for row in rows for v in row.values())


def _dot(row: dict, vec: dict) -> Fraction:
    return sum((v * vec.get(c, 0) for c, v in row.items()), Fraction(0))


def test_rref_matches_column_sweep():
    count = 0
    for rows, ncols in _cases(seed=101):
        before = copy.deepcopy(rows)
        assert linalg.rref(rows, ncols) == naive_rref(rows, ncols)
        assert rows == before
        count += 1
    assert count == 25 * len(SHAPES)


@pytest.mark.parametrize("kind", ["int", "mixed"])
def test_rref_of_integer_and_mixed_rows(kind):
    """Integer and mixed int/Fraction rows give the reference RREF, and
    every entry that comes back is a Fraction, never an int or a float."""
    for rows, ncols in _cases(seed=151, entry=ENTRIES[kind]):
        before = copy.deepcopy(rows)
        reduced, pivots = linalg.rref(rows, ncols)
        assert (reduced, pivots) == naive_rref(rows, ncols)
        assert _all_fractions(reduced)
        assert rows == before
        kept = linalg.Echelon()
        for row in rows:
            kept.add(row)
        assert _all_fractions(kept.rows.values())
        for vec in linalg.nullspace(rows, ncols):
            assert all(type(v) is Fraction and v.denominator == 1 for v in vec.values())
            for row in rows:
                assert _dot(row, vec) == 0


def test_rref_stops_at_full_rank():
    """rref consumes rows only until ncols pivots are kept: a generator of
    rows is not advanced past the row that completes the rank."""
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 3, 2: 1}, {2: 5}, {0: 1}, {1: 1}]
    consumed = []

    def generate():
        for k, row in enumerate(rows):
            consumed.append(k)
            yield row

    assert linalg.rref(generate(), 3) == naive_rref(rows, 3)
    assert consumed == [0, 1, 2, 3]
    assert linalg.rref(iter(rows), 4) == naive_rref(rows, 4)  # never full rank


def test_rref_early_exit_equals_full_elimination():
    """On seeded random systems, full-rank ones (square and tall, where the
    exit fires before the last row) and rank-deficient ones, rref equals
    the column-sweep RREF of every row and the echelon of every row."""
    rng = random.Random(139)
    full = deficient = 0
    for k in range(120):
        ncols = rng.randint(1, 8)
        nrows = ncols + rng.randint(0, 6)
        if k % 2:
            rows = _random_rows(rng, nrows, ncols, ENTRIES["mixed"])
        else:
            rows = [{c: _mixed_entry(rng) for c in range(ncols) if rng.random() < 0.6}
                    for _ in range(nrows)]
        expected = naive_rref(rows, ncols)
        echelon = linalg.Echelon()
        for row in rows:
            echelon.add(row)
        assert linalg.rref(rows, ncols) == expected
        assert [echelon.rows[p] for p in expected[1]] == expected[0]
        if len(expected[1]) == ncols:
            full += 1
        else:
            deficient += 1
    assert full >= 30 and deficient >= 30


def test_rref_ignores_explicit_zero_entries():
    rng = random.Random(103)
    for rows, ncols in _cases(seed=107, per_shape=5):
        padded = [{**r, **{c: Fraction(0) for c in range(ncols)
                           if c not in r and rng.random() < 0.3}} for r in rows]
        assert linalg.rref(padded, ncols) == naive_rref(rows, ncols)


def test_nullspace_annihilates_every_row():
    for rows, ncols in _cases(seed=109):
        basis = linalg.nullspace(rows, ncols)
        rank = len(naive_rref(rows, ncols)[1])
        assert len(basis) == ncols - rank
        for vec in basis:
            assert list(vec) == sorted(vec) and all(0 <= c < ncols for c in vec)
            assert all(v and v.denominator == 1 for v in vec.values())
            assert next(iter(vec.values())) > 0
            for row in rows:
                assert _dot(row, vec) == 0
        assert len(naive_rref(basis, ncols)[1]) == len(basis)


def test_echelon_add_is_true_exactly_when_rank_grows():
    for rows, ncols in _cases(seed=113):
        kept = linalg.Echelon()
        rank = 0
        for k, row in enumerate(rows):
            before = dict(row)
            new_rank = len(naive_rref(rows[:k + 1], ncols)[1])
            assert kept.add(row) is (new_rank > rank)
            assert row == before
            rank = new_rank
        reduced, pivots = naive_rref(rows, ncols)
        assert sorted(kept.rows) == pivots
        assert [kept.rows[p] for p in pivots] == reduced


def test_rank_echelon_answers_as_echelon():
    # the forward-only echelon against the eager reference: planted
    # dependencies over int, Fraction and mixed rows and string keys, and
    # the corpus pivot passes at the default bounds and at 2/2/1, with
    # reduced rows read in the middle of runs
    counts = suite_rank_echelon_equivalence(cases=120)
    assert counts["rows"] > 3000 and 0 < counts["kept"] < counts["rows"]
    assert counts["reads"] > 100


def test_nullspace_matches_fraction_route():
    # random sparse systems, with empty columns and of full rank, and the
    # corpus searches and heat_2d at 2/2/2
    counts = suite_nullspace_equivalence(cases=150)
    assert counts["systems"] == 150 + 2 * len(CORPUS) + 1
    assert counts["empty_column"] > 50 and counts["full_rank"] > 20
    assert counts["vectors"] > 1000


def test_echelon_over_orderable_keys():
    """Keys need only an order: string columns give the same echelon as the
    integer columns they sort like."""
    def name(c: int) -> str:
        return f"c{c:03d}"

    for rows, ncols in _cases(seed=127, per_shape=5):
        kept = linalg.Echelon()
        for row in rows:
            kept.add({name(c): v for c, v in row.items()})
        reduced, pivots = naive_rref(rows, ncols)
        assert sorted(kept.rows) == [name(p) for p in pivots]
        assert [kept.rows[name(p)] for p in pivots] == \
            [{name(c): v for c, v in r.items()} for r in reduced]


def test_solve_particular():
    rng = random.Random(131)
    for rows, ncols in _cases(seed=137, per_shape=10):
        x0 = [_entry(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(ncols)]
        rhs = [_dot(row, dict(enumerate(x0))) for row in rows]
        sol = linalg.solve_particular(rows, rhs, ncols)
        assert sol is not None
        assert [_dot(row, dict(enumerate(sol))) for row in rows] == rhs
        nonzero = [k for k, row in enumerate(rows) if row]
        if nonzero:
            k = rng.choice(nonzero)
            bad = rows + [rows[k]]
            assert linalg.solve_particular(bad, rhs + [rhs[k] + 1], ncols) is None


def test_oracles_share_no_elimination_with_the_package(monkeypatch):
    # the acceptance oracles (rank, span_equal, in_span, the trace matrix,
    # the heat polynomial space) and the residue's naive route eliminate
    # with tests/util.py's own routines, never paraclaw.linalg's
    from paraclaw.jets import tableau_dimension
    from paraclaw.parabolic import EvolutionEquation
    from util import (
        heat_polynomial_space, in_span, naive_residue_decomposition, naive_nullspace, rank,
        reference_solve_dense, span_equal, trace_matrix_nullity, u11, u22,
    )

    def refuse(*args):
        raise AssertionError("an oracle called paraclaw.linalg")

    for name in ("rref", "nullspace", "solve_particular", "solve_dense", "Echelon"):
        monkeypatch.setattr(linalg, name, refuse)
    assert [trace_matrix_nullity(n, r) for n in (1, 2, 3) for r in (0, 2)] \
        == [tableau_dimension(n, r) for n in (1, 2, 3) for r in (0, 2)]
    assert len(heat_polynomial_space(2, 3)) == 10
    half = [Fraction(1, 2), Fraction(0), Fraction(3)]
    vectors = [[Fraction(1), Fraction(0), Fraction(6)], [Fraction(0), Fraction(1), Fraction(0)]]
    assert rank([dict(enumerate(v)) for v in vectors], 3) == 2
    assert span_equal(vectors, [half, vectors[1]]) and in_span(half, vectors)
    assert not in_span([Fraction(0), Fraction(0), Fraction(1)], vectors)
    for symbolic in (False, True):
        q0, _h, _sigma = naive_residue_decomposition(
            EvolutionEquation(2, u11 + u22 + (u11 + u22) ** 2), symbolic)
        assert q0.is_zero
    rows = [{0: Fraction(1), 2: Fraction(-1)}, {1: Fraction(2), 2: Fraction(4)}]
    assert naive_nullspace(rows, 3) == [{0: Fraction(1), 1: Fraction(-2), 2: Fraction(1)}]
    assert reference_solve_dense([[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]],
                                 [Fraction(4), Fraction(5)], Fraction(0)) == [1, 2]
    assert reference_solve_dense([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                                 [Fraction(1), Fraction(2)], Fraction(0)) is None
