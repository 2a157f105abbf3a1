"""Exact Gaussian elimination over an arbitrary field.

Matrices are lists of row lists whose entries support field arithmetic
(Fraction, prime-field or extension-field elements); ``nullspace`` takes
integer matrices and eliminates without fractions.  Everything here is
pure and deterministic; pivots are chosen first-nonzero so results are
canonical for a given input.
"""

from fractions import Fraction
from math import gcd


def rref(rows, field):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = _inv(m[r][c])
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_columns(cols, target, field):
    """Solve sum_i x_i * cols[i] = target; return list x or None."""
    if not cols:
        return [] if not any(target) else None
    nrows = len(cols[0])
    aug = [[cols[j][i] for j in range(len(cols))] + [target[i]] for i in range(nrows)]
    red, pivots = rref(aug, field)
    ncols = len(cols)
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [field.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


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


def solve_many_columns(cols, targets, field):
    """Solve sum_i x_i * cols[i] = t for each target t with one elimination.

    Returns a list of solution vectors (None entries for inconsistent
    targets); requires the columns to be linearly independent.
    """
    if not cols:
        return [[] if not any(t) else None for t in targets]
    nrows = len(cols[0])
    ncols = len(cols)
    aug = [
        [cols[j][i] for j in range(ncols)] + [t[i] for t in targets]
        for i in range(nrows)
    ]
    red, pivots = rref(aug, field)
    out = []
    for k in range(len(targets)):
        col = ncols + k
        # inconsistent iff some non-pivot row has a nonzero entry there
        ok = True
        for r in range(len(red)):
            lead = next((c for c in range(ncols) if red[r][c]), None)
            if lead is None and red[r][col]:
                ok = False
                break
        if not ok:
            out.append(None)
            continue
        x = [field.zero] * ncols
        for r, c in enumerate(pivots):
            if c < ncols:
                x[c] = red[r][col]
        out.append(x)
    return out


class SpanSolver:
    """Incremental echelon span that can express dependent vectors.

    ``insert`` returns None when the vector was independent (and absorbed),
    otherwise the coefficients writing it as a combination of the vectors
    inserted before it.
    """

    def __init__(self, field):
        self.field = field
        self.count = 0
        self._rows = []  # (reduced vector, pivot index, expression list)

    def insert(self, vec):
        zero = self.field.zero
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
        inv = _inv(r[pivot])
        row = [v * inv for v in r]
        # the reduced row equals (original_new - sum expr_i * original_i) / lead
        row_expr = [-e * inv for e in expr] + [zero] * (self.count - len(expr))
        row_expr.append(inv)
        self._rows.append((row, pivot, row_expr))
        self.count += 1
        return None


def _inv(c):
    if isinstance(c, Fraction):
        return 1 / c
    return c.inverse()
