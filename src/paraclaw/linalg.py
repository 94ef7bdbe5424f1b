"""Exact rational linear algebra: sparse RREF, null spaces, independence
tests, particular solutions, determinants.

Rows are sparse dicts ``{column: Fraction}``.  All sparse elimination is
one incremental Gauss-Jordan loop, :class:`Echelon`, which pivots each new
row on its smallest remaining column; ``rref`` feeds it the rows in order
and sorts the result by pivot.  The reduced row echelon form is unique for
a fixed column order, so the result does not depend on the row order.
Everything is exact -- no floating point anywhere, which is what keeps
determining-system null spaces honest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

SparseRow = dict  # dict[int, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _subtract(row: SparseRow, factor: Fraction, other: SparseRow) -> None:
    """row -= factor * other, in place."""
    for c, v in other.items():
        acc = row.get(c, _F0) - factor * v
        if acc:
            row[c] = acc
        else:
            row.pop(c, None)


def rref(rows: list[SparseRow], ncols: int) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column per row), in increasing
    pivot order.  Input rows are not mutated.
    """
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    pivots = sorted(echelon.rows)
    return [echelon.rows[p] for p in pivots], pivots


def _primitive_signed(entries: SparseRow, ncols: int) -> list[Fraction]:
    """The dense vector with these nonzero entries, scaled to a primitive
    integer vector whose first nonzero entry is positive."""
    lcm = 1
    for v in entries.values():
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    ints = {i: int(v * lcm) for i, v in entries.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[min(ints)] < 0:
        g = -g
    vec = [_F0] * ncols
    for i, v in ints.items():
        vec[i] = Fraction(v // g)
    return vec


def nullspace(rows: list[SparseRow], ncols: int) -> list[list[Fraction]]:
    """Basis of the null space of the homogeneous system, one vector per free
    column, each scaled to a primitive integer vector with positive leading
    entry."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        entries = {free: _F1}
        for row, piv in zip(reduced, pivots):
            coeff = row.get(free)
            if coeff:
                entries[piv] = -coeff
        basis.append(_primitive_signed(entries, ncols))
    return basis


class Echelon:
    """Incremental Gauss-Jordan echelon of sparse rows over orderable keys:
    every kept row has entry 1 at its pivot, its smallest key, and 0 at
    every other pivot.  So the kept rows, sorted by pivot, are the reduced
    row echelon form of the rows added so far."""

    def __init__(self) -> None:
        self.rows: dict = {}  # pivot key -> row

    def add(self, row: SparseRow) -> bool:
        """Keep row and return True when it is linearly independent of the
        kept rows; return False otherwise.  The input is not mutated."""
        rest = {c: v for c, v in row.items() if v}
        for key in [k for k in rest if k in self.rows]:
            _subtract(rest, rest[key], self.rows[key])
        if not rest:
            return False
        pivot = min(rest)
        inv = 1 / rest[pivot]
        rest = {c: v * inv for c, v in rest.items()}
        for kept in self.rows.values():
            factor = kept.get(pivot)
            if factor:
                _subtract(kept, factor, rest)
        self.rows[pivot] = rest
        return True


def solve_particular(rows: list[SparseRow], rhs: Sequence[Fraction],
                     ncols: int) -> list[Fraction] | None:
    """One exact solution of A x = rhs with free variables set to 0, or None
    if the system is inconsistent."""
    augmented = []
    for r, b in zip(rows, rhs):
        row = dict(r)
        if b:
            row[ncols] = Fraction(b)
        augmented.append(row)
    reduced, pivots = rref(augmented, ncols + 1)
    sol = [_F0] * ncols
    for row, piv in zip(reduced, pivots):
        if piv == ncols:
            return None
        sol[piv] = row.get(ncols, _F0)
    return sol


def solve_dense(matrix: list[list], rhs: list, zero) -> list | None:
    """Gauss-Jordan over any exact field (Fraction or Expr entries).

    Returns the unique solution, or None when the matrix is singular.
    Entries need +, -, *, / and == comparison against ``zero``.
    """
    m = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(m):
        piv = None
        for r in range(col, m):
            if not (a[r][col] == zero):
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(m):
            if r == col:
                continue
            factor = a[r][col]
            if factor == zero:
                continue
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][m] for r in range(m)]


def det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant of a square Fraction matrix, by Gaussian elimination."""
    m = [row[:] for row in matrix]
    size = len(m)
    value = _F1
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return _F0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            value = -value
        value *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return value


def rank(rows: list[SparseRow], ncols: int) -> int:
    return len(rref(rows, ncols)[1])
