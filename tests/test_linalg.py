"""Exact sparse linear algebra: the incremental RREF against the column-sweep
reference, null spaces, the independence test and particular solutions,
over seeded random rational, integer and mixed matrices."""

import copy
import random
from fractions import Fraction

import pytest

from paraclaw import linalg
from util import naive_rref

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


def _dot(row: dict, vec: list[Fraction]) -> Fraction:
    return sum((v * vec[c] for c, v in row.items()), Fraction(0))


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
            assert all(type(v) is Fraction and v.denominator == 1 for v in vec)
            for row in rows:
                assert _dot(row, vec) == 0


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
            assert len(vec) == ncols
            assert all(v.denominator == 1 for v in vec)
            assert next(v for v in vec if v) > 0
            for row in rows:
                assert _dot(row, vec) == 0
        vec_rows = [{c: v for c, v in enumerate(vec) if v} for vec in basis]
        assert linalg.rank(vec_rows, ncols) == len(basis)


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
        rhs = [_dot(row, x0) for row in rows]
        sol = linalg.solve_particular(rows, rhs, ncols)
        assert sol is not None
        assert [_dot(row, sol) for row in rows] == rhs
        nonzero = [k for k, row in enumerate(rows) if row]
        if nonzero:
            k = rng.choice(nonzero)
            bad = rows + [rows[k]]
            assert linalg.solve_particular(bad, rhs + [rhs[k] + 1], ncols) is None
