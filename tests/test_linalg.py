import random
from fractions import Fraction
from math import lcm

import pytest

from galoiskit.linalg import SpanSolver

from helpers import FractionSpanSolver


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
