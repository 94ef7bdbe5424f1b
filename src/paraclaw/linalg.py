"""Exact rational linear algebra: sparse RREF, null spaces, independence
tests and particular solutions.

Rows are sparse dicts ``{column: coefficient}`` with ``int`` or ``Fraction``
entries.  All sparse elimination is one incremental Gauss-Jordan loop,
:class:`Echelon`, which runs fraction-free, after Bareiss (Math. Comp. 22,
1968): each row is scaled to integers once, eliminated with Python ints,
and kept primitive by dividing out the gcd of its entries (where Bareiss
divides exactly by the previous pivot).  ``rref`` divides by the pivots
once, at the end, and returns ``Fraction`` rows sorted by pivot.  An
independence test that reads no reduced row runs forward only, on the same
cancellation, in :class:`RankEchelon`.  The
reduced row echelon form is unique for a fixed column order, so the result
depends neither on the row order nor on the arithmetic.  Everything is exact -- no
floating point anywhere, which is what keeps determining-system null
spaces honest.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Sequence

SparseRow = dict  # dict[key, int | Fraction]

_F0 = Fraction(0)


def rref(rows: list[SparseRow], ncols: int) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column per row), in increasing
    pivot order; the rows have ``Fraction`` entries.  Input rows are not
    mutated.  Every key is a column below ``ncols``, so once ``ncols``
    pivots are kept every later row reduces to 0: ``rows`` is consumed only
    up to full rank.
    """
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
        if echelon.rank == ncols:
            break
    reduced = echelon.rows
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def nullspace(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of the null space of the homogeneous system, one vector per free
    column, each scaled to a primitive integer vector with positive leading
    entry.  Vectors are sparse: {column: Fraction} over their nonzero
    entries, in increasing column order.

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
        entries = by_column.get(free, ())
        scale = lcm(*(v.denominator for _, v in entries)) if entries else 1
        if entries and entries[0][1] > 0:
            scale = -scale
        vec = {piv: Fraction(-v.numerator * (scale // v.denominator))
               for piv, v in entries}
        vec[free] = Fraction(scale)
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
    far.  A new pivot is back-substituted into the kept rows only when it
    is above the smallest kept pivot: no kept row holds a key below its
    own pivot."""

    def __init__(self) -> None:
        self._rows: dict = {}  # pivot key -> primitive int row
        self._lowest = None  # the smallest kept pivot

    @property
    def rows(self) -> dict:
        """pivot key -> reduced row: the kept row divided by its pivot entry,
        with ``Fraction`` entries."""
        return {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in self._rows.items()}

    @property
    def rank(self) -> int:
        """The number of kept rows: the rank of the rows added so far."""
        return len(self._rows)

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
        if kept and pivot > self._lowest:
            for p, target in kept.items():
                if target.get(pivot):
                    _cancel(target, pivot, rest)
                    _make_primitive(target, p)
        else:  # no kept row holds a key below its own pivot: none holds this one
            self._lowest = pivot
        kept[pivot] = rest
        return True


class RankEchelon:
    """Forward-only fraction-free echelon of sparse rows over orderable keys:
    the independence test of :class:`Echelon` without its reduced rows.

    Every kept row is a primitive ``int`` row, positive at its pivot (its
    smallest key), and is never touched again.  An incoming row is
    cancelled at each of its keys that is a kept pivot, smallest first, so
    each cancellation brings in only larger keys; it is independent exactly
    when something is left.  :meth:`add` answers as ``Echelon.add`` does,
    row by row, without scanning the kept rows."""

    def __init__(self) -> None:
        self._rows: dict = {}  # pivot key -> primitive int row

    @property
    def rank(self) -> int:
        """The number of kept rows: the rank of the rows added so far."""
        return len(self._rows)

    def add(self, row: SparseRow) -> bool:
        """Keep row and return True when it is linearly independent of the
        kept rows; return False otherwise.  The input is not mutated."""
        rest = _integral(row)
        kept = self._rows
        heap = [k for k in rest if k in kept]  # the kept pivots in rest
        heapify(heap)
        while heap:
            key = heappop(heap)
            if key not in rest:  # cancelled on the way
                continue
            other = kept[key]
            new = [c for c in other if c not in rest and c in kept]
            _cancel(rest, key, other)
            for c in new:
                heappush(heap, c)
        if not rest:
            return False
        pivot = min(rest)
        _make_primitive(rest, pivot)
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
