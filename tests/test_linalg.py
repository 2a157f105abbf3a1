import random
from fractions import Fraction
from math import lcm

import pytest

from galoiskit.linalg import SpanSolver, lll

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
