"""Exact linear algebra over Q, and lattice reduction over Z.

``nullspace`` is the one exact echelon.  It reduces integer rows
fraction-free and reads a canonical kernel basis off the echelon by
back-substitution.  Minimal polynomials and coordinates in a power basis
(``numfield``), subfield membership and fixed fields (``galois``) are all
read from its kernels.  Fractions appear only in the results; pivots are
chosen first-nonzero so results are canonical for a given input, and equal
to elimination over Q.  ``lll``
reduces a lattice basis on integers alone and returns its exact Gram
determinants.  Everything here is pure and deterministic.
"""

from fractions import Fraction
from math import gcd


def nullspace(rows, rank=None):
    """Canonical basis (rational vectors) of the right nullspace of an
    integer matrix: per free column c of its reduced row echelon form, the
    kernel vector with 1 at c and 0 at the other free columns.

    Each row r is reduced by the stored rows in turn: a row R with pivot p
    (its first nonzero column) clears column p by r <- a*r - c*R, with
    a/c = R[p]/r[p] in lowest terms, and r is made primitive after every
    step.  A nonzero result is stored; it is a nonzero multiple of the row
    that dividing by pivots over Q would give.  When the echelon reaches n
    or ``rank``, the rank the caller expects, the kernel so far is returned
    if it vanishes exactly on every row not yet read; a wrong hint changes
    only the cost.
    """
    if not rows:
        return []
    n, echelon = len(rows[0]), {}  # pivot column -> primitive integer row
    for i, row in enumerate(rows):
        r = _primitive(row)
        for p, R in echelon.items():
            if r and r[p]:
                g = gcd(R[p], r[p])
                a, c = R[p] // g, r[p] // g
                r = _primitive([a * x - c * y for x, y in zip(r, R)])
        if r:
            echelon[next(k for k, x in enumerate(r) if x)] = r
        if (r and len(echelon) in (rank, n)) or i == len(rows) - 1:
            kernel = _back_substitute(echelon, n)
            if all(not sum(row[k] * x for k, x in v.items())
                   for _, v in kernel for row in rows[i + 1:]):
                break
    zero = Fraction(0)
    return [[Fraction(v[k], v[c]) if k in v else zero for k in range(n)] for c, v in kernel]


def _primitive(r):
    """An integer row divided by its content, or None if it is zero."""
    g = gcd(*r)
    return [x // g for x in r] if g > 1 else r if g else None


def _back_substitute(echelon, n):
    """(c, v) per free column c, v the nonzero entries of an integer kernel
    vector, found at each pivot p < c, in decreasing order, from row p."""
    kernel, pivots = [], sorted(echelon.items(), reverse=True)
    for c in range(n):
        if c not in echelon:
            v = {c: 1}
            for p, R in pivots:
                if p < c and (s := sum(R[k] * x for k, x in v.items())):
                    g = gcd(s, R[p])
                    if R[p] != g:
                        v = {k: R[p] // g * x for k, x in v.items()}
                    v[p] = -s // g
            kernel.append((c, v))
    return kernel


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
