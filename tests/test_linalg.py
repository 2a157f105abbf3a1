import random
from fractions import Fraction
from math import lcm

import pytest

from galoiskit import linalg
from galoiskit.linalg import SpanSolver, lll, nullspace

from helpers import FractionSpanSolver, _det, rref_nullspace


def _random_rational(rng):
    return Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 7, 12)))


def _sequence(rng, dim, length):
    """Rational vectors of Q^dim: random ones, planted combinations of
    earlier ones, zero vectors, repeats and rescaled repeats."""
    out = []
    for _ in range(length):
        kind = rng.random()
        if out and kind < 0.3:
            picks = rng.sample(out, min(len(out), rng.randint(1, 3)))
            coeffs = [_random_rational(rng) for _ in picks]
            out.append([sum(c * v[i] for c, v in zip(coeffs, picks)) for i in range(dim)])
        elif kind < 0.35:
            out.append([Fraction(0)] * dim)
        elif out and kind < 0.45:
            scale = _random_rational(rng) or Fraction(1)
            out.append([scale * x for x in rng.choice(out)])
        else:
            density = rng.choice((0.3, 0.7, 1.0))
            out.append([_random_rational(rng) if rng.random() < density else Fraction(0)
                        for _ in range(dim)])
    return out


class TestSpanSolverMatchesFractionOracle:
    @pytest.mark.parametrize("dim", [1, 2, 5, 9])
    def test_random_sequences(self, dim):
        rng = random.Random(900 + dim)
        for _ in range(20):
            solver, oracle = SpanSolver(), FractionSpanSolver()
            dependent = 0
            for vec in _sequence(rng, dim, 2 * dim + 3):
                got, want = solver.insert(vec), oracle.insert(vec)
                assert got == want
                assert (got is None) == (want is None)
                if got is not None:
                    dependent += 1
                    assert all(isinstance(c, Fraction) for c in got)
                    assert len(got) == solver.count
                assert solver.count == oracle.count
            assert dependent >= dim + 3

    def test_scaled_integer_vectors(self):
        # insert_int(w, s) is insert of s * w
        rng = random.Random(7)
        for _ in range(20):
            solver, oracle = SpanSolver(), FractionSpanSolver()
            for vec in _sequence(rng, 6, 12):
                d = lcm(*(x.denominator for x in vec))
                w = [int(x * d) for x in vec]
                scale = Fraction(rng.choice((1, -3, 5)), d * rng.choice((1, 2, 9)))
                assert solver.insert_int(w, scale) == oracle.insert([scale * x for x in w])

    def test_planted_dependence(self):
        basis = [[Fraction(1, 2), 3, 0, Fraction(-5, 3)],
                 [0, Fraction(2, 7), 1, 4],
                 [Fraction(9), 0, Fraction(-1, 4), 0]]
        coeffs = [Fraction(3, 5), Fraction(-7), Fraction(1, 11)]
        solver = SpanSolver()
        for v in basis:
            assert solver.insert(v) is None
        target = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(4)]
        assert solver.insert(target) == coeffs
        assert solver.insert([0, 0, 0, 0]) == [0, 0, 0]
        assert solver.insert(basis[1]) == [0, 1, 0]
        assert solver.insert([0, 0, 0, 1]) is None
        assert solver.count == 4


def _integer_matrix(rng, nrows, ncols, rank, density):
    """A seeded nrows x ncols integer matrix of rank at most rank (left
    times right factor; density thins the right one), with a zero row, a
    repeated row and a rescaled repeat inserted."""
    left = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(ncols)]
             for _ in range(rank)]
    rows = [[sum(a * r[j] for a, r in zip(lrow, right)) for j in range(ncols)] for lrow in left]
    for extra in ([0] * ncols, list(rng.choice(rows)), [-3 * x for x in rng.choice(rows)]):
        rows.insert(rng.randrange(len(rows) + 1), extra)
    return rows


# (rows, columns, rank of the factors, density of the right factor)
NULLSPACE_SHAPES = [
    (6, 6, 3, 1.0),  # square, rank-deficient, dense
    (6, 6, 3, 0.3),  # square, sparse
    (12, 4, 4, 1.0),  # tall, full column rank
    (12, 5, 2, 0.5),  # tall, rank-deficient
    (3, 9, 3, 1.0),  # wide
    (4, 8, 1, 0.6),  # wide, rank one
    (5, 5, 0, 1.0),  # rank 0: every row zero
    (9, 9, 9, 0.4),  # square, full rank if the factors allow
]


class TestNullspaceMatchesFractionOracle:
    @pytest.mark.parametrize("shape", NULLSPACE_SHAPES, ids=str)
    def test_every_hint(self, shape):
        nrows, ncols, rank, density = shape
        rng = random.Random(str(shape))
        for _ in range(6):
            rows = _integer_matrix(rng, nrows, ncols, rank, density)
            expected = rref_nullspace(rows)
            true_rank = ncols - len(expected)
            assert true_rank <= rank
            for hint in (None, true_rank, true_rank - 1, true_rank + 1):
                got = nullspace(rows, rank=hint)
                assert got == expected
                assert all(type(x) is Fraction for v in got for x in v)

    def test_a_right_hint_reads_no_row_past_it(self, monkeypatch):
        # rank 2 is reached at the third row; the rows after it are only
        # checked against the kernel, never reduced
        rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 1], [1, 3, 4, 5], [3, 7, 10, 13]]
        reduced = []
        primitive = linalg._primitive
        monkeypatch.setattr(linalg, "_primitive", lambda r: reduced.append(r) or primitive(r))
        assert nullspace(rows, rank=2) == rref_nullspace(rows)
        assert not any(r is rows[3] or r is rows[4] for r in reduced)

    def test_a_later_row_that_cuts_the_kernel_is_read(self, monkeypatch):
        # the first two rows reach the hinted rank 2, with kernel spanned by
        # e3 and e4; the fourth row cuts it, so the check fails and
        # elimination goes on to rank 3
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [2, 3, 0, 0], [0, 0, 1, 5], [1, 1, 2, 10]]
        calls = []
        back_substitute = linalg._back_substitute
        monkeypatch.setattr(linalg, "_back_substitute",
                            lambda *args: calls.append(len(args[0])) or back_substitute(*args))
        assert nullspace(rows, rank=2) == rref_nullspace(rows) == [[0, 0, -5, 1]]
        assert calls == [2, 3]


def _gram_schmidt(rows):
    """(squared lengths of b*_i, mu) of integer rows, over Fractions."""
    stars, norms, mu = [], [], []
    for v in rows:
        w = [Fraction(x) for x in v]
        coeffs = []
        for star, norm in zip(stars, norms):
            m = sum(x * y for x, y in zip(v, star)) / norm
            coeffs.append(m)
            w = [a - m * b for a, b in zip(w, star)]
        stars.append(w)
        norms.append(sum(x * x for x in w))
        mu.append(coeffs)
    return norms, mu


def _gram_det(rows):
    return _det([[Fraction(sum(x * y for x, y in zip(u, v))) for v in rows] for u in rows]) if rows else 1


def _integer_coordinates(old, new):
    """x with old = x * new, over Q: new has independent rows, so each old
    row v gives a one-dimensional kernel of the matrix with columns new + [v]."""
    coords = []
    for v in old:
        cols = [list(c) for c in zip(*(list(new) + [v]))]
        (kernel,) = rref_nullspace(cols)
        coords.append([-c / kernel[-1] for c in kernel[:-1]])
    return coords


def _independent(rng, n, cols, size):
    while True:
        rows = [[rng.randint(-size, size) for _ in range(cols)] for _ in range(n)]
        if _gram_det(rows):
            return rows


def _bases():
    """Seeded independent integer bases: random ones with entries up to
    10**30, skewed ones (columns scaled by up to 2**90; an identity beside a
    huge last column over a modulus row, as in a knapsack), and ones that
    are already reduced."""
    rng = random.Random(31)
    out = []
    for n in (1, 2, 3, 5, 8):
        out.append(_independent(rng, n, n + rng.randint(0, 2), 10 ** rng.randint(1, 30)))
    for n in (3, 5):
        scales = [2 ** rng.randint(0, 90) for _ in range(n)]
        out.append([[x * s for x, s in zip(row, scales)] for row in _independent(rng, n, n, 50)])
    for n in (3, 6, 10):
        big = 2 ** rng.randint(40, 120)
        out.append([[int(i == j) for j in range(n)] + [rng.randrange(big)] for i in range(n)]
                   + [[0] * n + [big]])
    for n in (4, 7):
        out.append(lll(_independent(rng, n, n, 3))[0])
        out.append([[int(i == j) * (i + 1) for j in range(n)] for i in range(n)])
    return out


class TestLLL:
    @pytest.mark.parametrize("rows", _bases())
    def test_reduced_exactly_against_fraction_oracle(self, rows):
        b, d = lll(rows)
        norms, mu = _gram_schmidt(b)
        assert len(b) == len(rows) and len(d) == len(rows) + 1 and d[0] == 1
        for i in range(len(b)):
            assert all(isinstance(x, int) for x in b[i])
            # d_i is the Gram determinant of the first i rows
            assert d[i + 1] == _gram_det(b[:i + 1])
            assert Fraction(d[i + 1], d[i]) == norms[i]
            assert all(abs(m) <= Fraction(1, 2) for m in mu[i])
            if i:
                assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]

    @pytest.mark.parametrize("rows", _bases())
    def test_same_lattice(self, rows):
        b, d = lll(rows)
        assert d[-1] == _gram_det(rows)
        for coords in (_integer_coordinates(rows, b), _integer_coordinates(b, rows)):
            assert all(c.denominator == 1 for row in coords for c in row)

    def test_reduced_input_is_a_fixed_point(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert lll(rows) == (rows, [1, 1, 1, 1])

    def test_finds_the_short_vector_of_a_knapsack(self):
        # 3a + 5b + 13c = 0 (mod 2**10) has the short solution (1, 2, -1)
        weights = [3 * 2 ** 30, 5 * 2 ** 30, 13 * 2 ** 30]
        rows = [[int(i == j) for j in range(3)] + [w] for i, w in enumerate(weights)]
        rows.append([0, 0, 0, 2 ** 40])
        b, d = lll(rows)
        assert b[0] in ([1, 2, -1, 0], [-1, -2, 1, 0]) and d[1] == 6

    @pytest.mark.parametrize("rows", [[[0, 0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]])
    def test_dependent_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            lll(rows)
