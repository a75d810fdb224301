"""Exact linear algebra over the rationals.

Matrices are small (desk scale: up to a few thousand rows/columns) and
usually sparse.  Entries are ``fractions.Fraction`` values kept in a
``(row, col) -> value`` map with zeros omitted.  Everything is exact:
no floats, no tolerances, anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


def rational_str(q) -> str:
    """Render a rational as ``p/q``, or plain ``p`` when the denominator is 1.

    >>> rational_str(Fraction(-3, 6))
    '-1/2'
    >>> rational_str(Fraction(4, 2))
    '2'
    >>> rational_str(-5)
    '-5'
    """
    if type(q) is int:
        return str(q)
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class _MatrixFields(NamedTuple):
    rows: int
    cols: int
    entries: dict


class RationalMatrix(_MatrixFields):
    """A rows x cols matrix of rationals, nonzero entries only: immutable,
    equal by value to matrices only, and unhashable (``entries`` is a dict).
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        clean = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry position {(i, j)} out of range")
            v = Fraction(v)
            if v:
                clean[(i, j)] = v
        return super().__new__(cls, rows, cols, clean)

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = None

    @classmethod
    def from_rows(cls, data, cols=None):
        """Build a matrix from an iterable of dense rows."""
        data = [list(row) for row in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = Fraction(v)
                if v:
                    entries[(i, j)] = v
        return cls(len(data), cols, entries)

    def __getitem__(self, pos) -> Fraction:
        return self.entries.get(pos, Fraction(0))

    def to_rows(self):
        """Dense list-of-lists copy."""
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out


def _sparse_rows(m: RationalMatrix):
    rows = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def _rref_rows(m: RationalMatrix):
    """Row-reduce; returns (list of pivot rows as sparse dicts, pivot columns)."""
    rows = _sparse_rows(m)
    reduced = []
    pivots = []
    for col in range(m.cols):
        pivot_row = None
        for idx, row in enumerate(rows):
            if row.get(col):
                pivot_row = rows.pop(idx)
                break
        if pivot_row is None:
            continue
        inv = 1 / pivot_row[col]
        pivot_row = {j: v * inv for j, v in pivot_row.items()}
        for other in (reduced, rows):
            for k, row in enumerate(other):
                f = row.get(col)
                if not f:
                    continue
                new = dict(row)
                for j, v in pivot_row.items():
                    w = new.get(j, Fraction(0)) - f * v
                    if w:
                        new[j] = w
                    else:
                        new.pop(j, None)
                other[k] = new
        reduced.append(pivot_row)
        pivots.append(col)
    return reduced, pivots


def rref(m: RationalMatrix) -> RationalMatrix:
    """Reduced row echelon form (pivot rows first, zero rows trailing)."""
    reduced, _ = _rref_rows(m)
    entries = {}
    for i, row in enumerate(reduced):
        for j, v in row.items():
            entries[(i, j)] = v
    return RationalMatrix(m.rows, m.cols, entries)


def rank(m: RationalMatrix) -> int:
    return len(_rref_rows(m)[1])


def kernel_basis(m: RationalMatrix):
    """A basis of the right kernel {v : M v = 0}, one vector per free column.

    Vectors are tuples of ``Fraction`` with 1 in their free coordinate;
    the list is ordered by free column, so the output is deterministic.
    """
    reduced, pivots = _rref_rows(m)
    pivot_of = {col: i for i, col in enumerate(pivots)}
    basis = []
    for free in range(m.cols):
        if free in pivot_of:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for col, i in pivot_of.items():
            v[col] = -reduced[i].get(free, Fraction(0))
        basis.append(tuple(v))
    return basis
