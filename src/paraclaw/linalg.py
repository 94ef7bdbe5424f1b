"""Exact rational linear algebra: sparse RREF, null spaces, independence
tests and particular solutions.

Rows are sparse dicts ``{column: coefficient}`` with ``int`` or ``Fraction``
entries.  All sparse elimination is one loop, ``_reduce``, run by one
incremental echelon, :class:`Echelon`, fraction-free, after Bareiss (Math.
Comp. 22, 1968): each row is scaled to integers once, eliminated with
Python ints, and kept primitive by dividing out the gcd of its entries
(where Bareiss divides exactly by the previous pivot).  A row is reduced
forward only, at its kept pivots, smallest first, which is all that an
independence test reads; the kept rows are back-substituted once, at the
end, when a reduced row is read.  ``nullspace`` reads its vectors off
those ``int`` rows, and ``rref`` divides them by the pivots and returns
``Fraction`` rows sorted by pivot.  The reduced row echelon form is unique
for a fixed column order, so the result depends neither on the row order
nor on the arithmetic.  Everything is exact -- no floating point anywhere,
which is what keeps determining-system null spaces honest.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

SparseRow = dict  # dict[key, int | Fraction]

_F0 = Fraction(0)


def rref(rows: list[SparseRow], ncols: int) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column per row), in increasing
    pivot order; the rows have ``Fraction`` entries.  Input rows are not
    mutated, and are consumed only up to full rank (:func:`_full_rank`).
    """
    reduced = _full_rank(rows, ncols).rows
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def nullspace(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of the null space of the homogeneous system, one vector per free
    column, each scaled to a primitive integer vector with positive leading
    entry.  Vectors are sparse: {column: Fraction} over their nonzero
    entries, in increasing column order.

    Read off the primitive ``int`` rows of the reduced echelon: with
    a_p / d_p the entry r_p[f] / r_p[p] of the row of pivot p at the free
    column f, in lowest terms, and L the lcm of the d_p, the vector of f is
    L e_f - sum_p a_p (L / d_p) e_p.  It is primitive: a prime dividing L
    divides some d_p to its full power in L, and then not a_p L / d_p.
    Each such pivot p is smaller than f, so the sign of the vector is set
    by the first of them.
    """
    reduced = _full_rank(rows, ncols).reduced()
    by_column: dict[int, list] = {}
    for p in sorted(reduced):
        row = reduced[p]
        d = row[p]
        for c, a in row.items():
            if c != p:
                g = gcd(a, d)
                by_column.setdefault(c, []).append((p, a // g, d // g))
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        entries = by_column.get(free, ())
        scale = lcm(*(d for _, _, d in entries)) if entries else 1
        if entries and entries[0][1] > 0:
            scale = -scale
        vec = {p: Fraction(-a * (scale // d)) for p, a, d in entries}
        vec[free] = Fraction(scale)
        basis.append(vec)
    return basis


def _full_rank(rows: list[SparseRow], ncols: int) -> Echelon:
    """The echelon of rows, added until every one of the ``ncols`` columns
    is a pivot: every later row would reduce to 0."""
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
        if echelon.rank == ncols:
            break
    return echelon


def _integral(row: SparseRow) -> SparseRow:
    """The nonzero entries of row times the lcm of their denominators: an
    ``int`` row, for ``int``, ``Fraction`` or mixed entries."""
    den = 1
    for v in row.values():
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _reduce(row: SparseRow, kept: dict, own=None) -> None:
    """Cancel the ``int`` row in place at each of its keys that is a kept
    pivot other than own, smallest first: row := a row - b kept[key], with
    a, b coprime and a > 0.  Each kept row holds no key below its pivot, so
    a cancellation brings in only larger keys; one that is a kept pivot
    joins the heap as it enters."""
    heap = [k for k in row if k in kept and k != own]
    heapify(heap)
    while heap:
        key = heappop(heap)
        b = row.get(key)
        if b is None:  # cancelled on the way
            continue
        other = kept[key]
        a = other[key]
        g = gcd(a, b)
        if g != 1:
            a //= g
            b //= g
        if a != 1:
            for c in row:
                row[c] *= a
        for c, v in other.items():
            acc = row.get(c)
            if acc is None:
                row[c] = -b * v
                if c in kept:
                    heappush(heap, c)
            else:
                acc -= b * v
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
    """Incremental fraction-free echelon of sparse rows over orderable keys.

    Rows with ``int``, ``Fraction`` or mixed entries are accepted; each is
    scaled to an ``int`` row once, in :meth:`add`, and reduced forward
    only.  Every kept row is a primitive ``int`` row, positive at its pivot
    (its smallest key); :meth:`reduced` back-substitutes them once, so
    that each is also 0 at every other pivot."""

    def __init__(self) -> None:
        self._rows: dict = {}  # pivot key -> primitive int row

    @property
    def rows(self) -> dict:
        """pivot key -> reduced row: the :meth:`reduced` row divided by its
        pivot entry, with ``Fraction`` entries."""
        return {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in self.reduced().items()}

    @property
    def rank(self) -> int:
        """The number of kept rows: the rank of the rows added so far."""
        return len(self._rows)

    def add(self, row: SparseRow) -> bool:
        """Keep row and return True when it is linearly independent of the
        kept rows; return False otherwise.  The input is not mutated."""
        rest = _integral(row)
        _reduce(rest, self._rows)
        if not rest:
            return False
        pivot = min(rest)
        _make_primitive(rest, pivot)
        self._rows[pivot] = rest
        return True

    def reduced(self) -> dict:
        """pivot key -> kept row, back-substituted in place, largest pivot
        first, so each row is cancelled only by rows already reduced: the
        kept rows over their pivot entries are the reduced row echelon form
        of the rows added so far."""
        kept = self._rows
        for p in sorted(kept, reverse=True):
            _reduce(kept[p], kept, p)
            _make_primitive(kept[p], p)
        return kept


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
