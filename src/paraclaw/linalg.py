"""Exact rational linear algebra: sparse RREF, null spaces, independence
tests and particular solutions.

Rows are sparse dicts ``{column: coefficient}`` with ``int`` or ``Fraction``
entries.  All sparse elimination is one incremental Gauss-Jordan loop,
:class:`Echelon`, which runs fraction-free, after Bareiss (Math. Comp. 22,
1968): each row is scaled to integers once, eliminated with Python ints,
and kept primitive by dividing out the gcd of its entries (where Bareiss
divides exactly by the previous pivot).  ``rref`` divides by the pivots
once, at the end, and returns ``Fraction`` rows sorted by pivot.  The
reduced row echelon form is unique for a fixed column order, so the result
depends neither on the row order nor on the arithmetic.  Everything is exact -- no
floating point anywhere, which is what keeps determining-system null
spaces honest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

SparseRow = dict  # dict[key, int | Fraction]

_F0 = Fraction(0)


def rref(rows: list[SparseRow], ncols: int) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column per row), in increasing
    pivot order; the rows have ``Fraction`` entries.  Input rows are not
    mutated.
    """
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    reduced = echelon.rows
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def nullspace(rows: list[SparseRow], ncols: int) -> list[list[Fraction]]:
    """Basis of the null space of the homogeneous system, one vector per free
    column, each scaled to a primitive integer vector with positive leading
    entry.

    The vector of free column f is L e_f - sum_p (n_p L / d_p) e_p over the
    reduced rows with entry n_p / d_p (in lowest terms) at f, where L is
    the lcm of the d_p.  It is primitive: a prime dividing L divides some d_p
    to its full power in L, and then not n_p L / d_p.  Each such pivot p is
    smaller than f, so the sign of the vector is set by the first of them.
    """
    reduced, pivots = rref(rows, ncols)
    by_column: dict[int, list] = {}
    for row, piv in zip(reduced, pivots):
        for c, v in row.items():
            if c != piv:
                by_column.setdefault(c, []).append((piv, v))
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_F0] * ncols
        entries = by_column.get(free, ())
        scale = lcm(*(v.denominator for _, v in entries)) if entries else 1
        if entries and entries[0][1] > 0:
            scale = -scale
        vec[free] = Fraction(scale)
        for piv, v in entries:
            vec[piv] = Fraction(-v.numerator * (scale // v.denominator))
        basis.append(vec)
    return basis


def _integral(row: SparseRow) -> SparseRow:
    """The nonzero entries of row times the lcm of their denominators: an
    ``int`` row, for ``int``, ``Fraction`` or mixed entries."""
    den = 1
    for v in row.values():
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _cancel(row: SparseRow, key, other: SparseRow) -> None:
    """row := a row - b other in place, with a, b coprime and a > 0, so that
    the entry at key cancels; other[key] must be positive."""
    a, b = other[key], row[key]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in other.items():
        acc = row.get(c, 0) - b * v
        if acc:
            row[c] = acc
        else:
            del row[c]


def _make_primitive(row: SparseRow, pivot) -> None:
    """Divide row in place by the gcd of its entries, signed so that the
    entry at pivot is positive."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


class Echelon:
    """Incremental fraction-free Gauss-Jordan echelon of sparse rows over
    orderable keys.

    Rows with ``int``, ``Fraction`` or mixed entries are accepted; each is
    scaled to an ``int`` row once, in :meth:`add`.  Every kept row is a
    primitive ``int`` row, positive at its pivot (its smallest key) and 0
    at every other pivot, so the kept rows divided by their pivot entries,
    :attr:`rows`, are the reduced row echelon form of the rows added so
    far."""

    def __init__(self) -> None:
        self._rows: dict = {}  # pivot key -> primitive int row

    @property
    def rows(self) -> dict:
        """pivot key -> reduced row: the kept row divided by its pivot entry,
        with ``Fraction`` entries."""
        return {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in self._rows.items()}

    def add(self, row: SparseRow) -> bool:
        """Keep row and return True when it is linearly independent of the
        kept rows; return False otherwise.  The input is not mutated."""
        rest = _integral(row)
        kept = self._rows
        for key in [k for k in rest if k in kept]:
            _cancel(rest, key, kept[key])
        if not rest:
            return False
        pivot = min(rest)
        _make_primitive(rest, pivot)
        for p, target in kept.items():
            if target.get(pivot):
                _cancel(target, pivot, rest)
                _make_primitive(target, p)
        kept[pivot] = rest
        return True


def solve_particular(rows: list[SparseRow], rhs: Sequence[Fraction],
                     ncols: int) -> list[Fraction] | None:
    """One exact solution of A x = rhs with free variables set to 0, or None
    if the system is inconsistent."""
    augmented = []
    for r, b in zip(rows, rhs):
        row = dict(r)
        if b:
            row[ncols] = b
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


def rank(rows: list[SparseRow], ncols: int) -> int:
    return len(rref(rows, ncols)[1])
