"""Exact linear algebra over Q, and lattice reduction over Z.

``SpanSolver`` is the one fraction-free elimination: it grows an echelon
basis one vector at a time, each an integer vector times a rational scale,
and expresses each dependent vector in the ones before it.  ``nullspace``
is a pass of it over the columns of an integer matrix.  Fractions appear
only in the results; pivots are chosen first-nonzero so results are
canonical for a given input, and equal to elimination over Q.  ``lll``
reduces a lattice basis on integers alone and returns its exact Gram
determinants.  Everything here is pure and deterministic.
"""

from fractions import Fraction
from math import gcd, lcm


def nullspace(rows):
    """Canonical basis (rational vectors) of the right nullspace of an
    integer matrix.

    One ``SpanSolver`` pass over the columns, left to right.  A column that
    depends on the columns before it is a free column of the reduced row
    echelon form R, and the coefficients x writing it in the independent
    (pivot) columns are its entries in R.  So the vector with 1 at free
    column c and -x[k] at the k-th pivot column is the basis vector that
    elimination over Q gives, in the same order.
    """
    if not rows:
        return []
    span = SpanSolver()
    pivots, basis = [], []
    for c, column in enumerate(zip(*rows)):
        x = span.insert_int(column, Fraction(1))
        if x is None:
            pivots.append(c)
            continue
        v = [Fraction(0)] * len(rows[0])
        v[c] = Fraction(1)
        for pc, xk in zip(pivots, x):
            v[pc] = -xk
        basis.append(v)
    return basis


class SpanSolver:
    """Incremental echelon span that can express dependent vectors.

    ``insert`` returns None when the vector was independent (and absorbed),
    otherwise the coefficients writing it as a combination of the vectors
    inserted before it.

    Elimination is fraction-free.  The j-th inserted vector is kept as
    s[j] * w[j] with w[j] an integer vector, and each stored row is an
    integer vector R with an integer expression E, R = sum E[j] * w[j].  A
    new w is reduced by r <- a*r - c*R with a/c = R[pivot]/r[pivot] in
    lowest terms, e the same way, and (r, e) is kept primitive.  Each
    integer row is a nonzero multiple of the rational row that dividing by
    pivots would give, so pivots (first nonzero) and coefficients agree with
    elimination over Q.  Fractions appear only in a returned dependence.
    """

    def __init__(self):
        self.count = 0
        self._rows = []  # (integer row R, pivot index, integer expression E)
        self._scales = []  # (numerator, denominator) of each s[j]

    def insert(self, vec):
        """Insert a rational vector (Fractions or ints)."""
        d = lcm(*(v.denominator for v in vec))
        w = [v.numerator * (d // v.denominator) for v in vec]
        g = gcd(*w) or 1
        return self.insert_int([v // g for v in w] if g > 1 else w, Fraction(g, d))

    def insert_int(self, w, scale):
        """Insert the vector scale * w, for an integer vector w and a nonzero
        rational scale."""
        r, e, e_new = list(w), [0] * self.count, 1
        for row, pivot, row_expr in self._rows:
            c = r[pivot]
            if c:
                a = row[pivot]
                g = gcd(a, c)
                a, c = a // g, c // g
                r = [a * x - c * y for x, y in zip(r, row)]
                # e[k] is still 0 for every k past this row's expression
                e = [a * x - c * y for x, y in zip(e, row_expr)] + e[len(row_expr):]
                e_new *= a
                g = gcd(e_new, *r, *e)
                if g > 1:
                    r, e, e_new = [x // g for x in r], [x // g for x in e], e_new // g
        num, den = scale.numerator, scale.denominator
        pivot = next((i for i, v in enumerate(r) if v), None)
        if pivot is None:
            # 0 = sum e[j] * w[j] + e_new * w
            return [Fraction(-x * num * sd, e_new * den * sn)
                    for x, (sn, sd) in zip(e, self._scales)]
        self._rows.append((r, pivot, e + [e_new]))
        self._scales.append((num, den))
        self.count += 1
        return None


def lll(rows):
    """LLL-reduce linearly independent integer rows, exactly.

    Cohen's integral LLL (*A Course in Computational Algebraic Number
    Theory*, Alg. 2.6.7) with delta = 3/4: no fractions and no floats.
    Returns (b, d): b spans the same lattice, and d[i] (d[0] = 1) is the
    Gram determinant of b[:i], so the squared Gram-Schmidt length of b[i]
    is exactly d[i + 1] / d[i].  lam[k][j] = d[j + 1] * mu[k][j] is an
    integer, and every division below is exact.
    """
    b = [list(r) for r in rows]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u:
                d[k + 1] = u
            else:
                raise ValueError("lll needs linearly independent rows")

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]  # unchanged by the swap
        d_new = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (d_new * t + lk * lam[i][k]) // d[k + 1]
        d[k] = d_new

    if n:
        gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce(k, k - 1)
        # Lovasz: swap unless |b*_k|^2 >= (3/4 - mu^2) |b*_(k-1)|^2
        if 4 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < 3 * d[k] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b, d
