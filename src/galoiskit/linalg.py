"""Exact linear algebra over Q.

``nullspace`` takes an integer matrix and eliminates without fractions;
``SpanSolver`` grows an echelon basis of rational vectors one vector at a
time and expresses each dependent vector in the ones before it.  Everything
here is pure and deterministic; pivots are chosen first-nonzero so results
are canonical for a given input.
"""

from fractions import Fraction
from math import gcd


def nullspace(rows):
    """Canonical basis (rational vectors) of the right nullspace of an
    integer matrix.

    Fraction-free Gauss-Jordan that keeps every row primitive.  The reduced
    row echelon form is unique, so the basis vector for free column fc has
    -row[fc] / row[pc] at each pivot column pc: the basis elimination over
    Q gives.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    m = [_primitive(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r]
        pc = p[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([pc * a - f * b for a, b in zip(m[i], p)])
        pivots.append(c)
        r += 1
        # rows below the pivots that became zero carry no constraint
        m[r:] = [row for row in m[r:] if any(row)]
        if r == len(m):
            break
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g in (0, 1) else [v // g for v in row]


class SpanSolver:
    """Incremental echelon span that can express dependent vectors.

    ``insert`` returns None when the vector was independent (and absorbed),
    otherwise the coefficients writing it as a combination of the vectors
    inserted before it.
    """

    def __init__(self):
        self.count = 0
        self._rows = []  # (reduced vector, pivot index, expression list)

    def insert(self, vec):
        zero = Fraction(0)
        r = list(vec)
        expr = [zero] * self.count
        for row, pivot, row_expr in self._rows:
            c = r[pivot]
            if c:
                for i, rv in enumerate(row):
                    if rv:
                        r[i] = r[i] - c * rv
                for i, re_ in enumerate(row_expr):
                    if re_:
                        expr[i] = expr[i] + c * re_
        pivot = next((i for i, v in enumerate(r) if v), None)
        if pivot is None:
            return expr
        inv = 1 / r[pivot]
        row = [v * inv for v in r]
        # the reduced row equals (original_new - sum expr_i * original_i) / lead
        row_expr = [-e * inv for e in expr] + [zero] * (self.count - len(expr))
        row_expr.append(inv)
        self._rows.append((row, pivot, row_expr))
        self.count += 1
        return None

