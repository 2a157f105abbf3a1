import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galoiskit import QQ, FieldMismatchError, modscreen
from galoiskit.poly import (
    Polynomial,
    poly_compose_power,
    poly_content_and_primitive,
    poly_gcd,
    poly_squarefree_decomposition,
    poly_squarefree_part,
    render_poly,
)
from galoiskit.scalars import PrimeField, is_prime, power, primes_below

from helpers import P, brute_force_monic_divisors, poly_resultant, sylvester_resultant


rational = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
)
small_poly = st.lists(rational, min_size=0, max_size=6).map(lambda cs: Polynomial(QQ, cs))
nonzero_poly = small_poly.filter(lambda p: not p.is_zero)


class TestArithmetic:
    def test_exact_division(self):
        quo, rem = divmod(P(-1, 0, 1), P(-1, 1))
        assert quo == P(1, 1)
        assert rem.is_zero

    def test_difference_of_squares(self):
        assert P(1, 0, 1) * P(-1, 0, 1) == P(-1, 0, 0, 0, 1)

    def test_divrem_with_remainder(self):
        p, q = P(5, 2, 0, 1), P(1, 0, 1)
        quo, rem = divmod(p, q)
        assert quo == P(0, 1) and rem == P(5, 1)
        assert quo * q + rem == p

    def test_field_mismatch_rejected(self):
        gf5 = PrimeField(5)
        with pytest.raises(FieldMismatchError):
            P(1, 1) + Polynomial(gf5, [gf5.one])

    def test_division_by_zero_polynomial(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(1, 1), Polynomial.zero(QQ))

    @given(small_poly, small_poly, small_poly)
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(small_poly, nonzero_poly)
    @settings(max_examples=60, deadline=None)
    def test_divrem_roundtrip(self, p, q):
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.is_zero or rem.degree < q.degree


class TestGcd:
    def test_gcd_against_brute_force_linear_factors(self):
        p, q = P(-1, 0, 1), P(-1, 0, 0, 1)
        common = [d for d in brute_force_monic_divisors(p, 2, 6)
                  if (q % d).is_zero]
        # the only common monic divisor of positive degree is x - 1
        assert max(common, key=lambda d: d.degree) == P(-1, 1)
        assert poly_gcd(p, q) == P(-1, 1)

    def test_gcd_with_zero(self):
        p = P(-4, 0, 2)
        assert poly_gcd(p, Polynomial.zero(QQ)) == p.monic()

    def test_gcd_idempotent(self):
        p = P(1, 0, 1)
        assert poly_gcd(p, p) == p

    def test_gcd_of_two_zeros_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Polynomial.zero(QQ), Polynomial.zero(QQ))

    @given(nonzero_poly, nonzero_poly, nonzero_poly)
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both_with_planted_factor(self, p, q, f):
        g = poly_gcd(p * f, q * f)
        assert (p * f % g).is_zero
        assert (q * f % g).is_zero
        if f.degree > 0:
            assert (g % f.monic()).is_zero or g.degree >= f.degree

    def test_gcd_matches_euclid(self):
        # random rational pairs, coprime or with a planted common factor,
        # against the plain Euclidean algorithm
        rng = random.Random(11)

        def rand_poly(deg):
            return Polynomial(QQ, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
                                   for _ in range(deg)] + [Fraction(rng.randint(1, 4))])

        for _ in range(30):
            p, q = rand_poly(rng.randint(0, 6)), rand_poly(rng.randint(0, 6))
            if rng.random() < 0.5:
                f = rand_poly(rng.randint(1, 3))
                p, q = p * f, q * f
            a, b = p, q
            while b:
                a, b = b, a % b
            assert poly_gcd(p, q) == a.monic()

    def test_gcd_prime_that_divides_a_leading_coefficient_or_the_resultant(self):
        # coprime over Q, yet equal mod the first prime tried: the gcd falls
        # back to Euclid; a leading coefficient divisible by it moves the test
        # to the next prime
        prime = next(primes_below(30))
        assert poly_gcd(P(0, 1), P(prime, 1)) == P(1)
        assert poly_gcd(P(1, prime), P(0, 1)) == P(1)
        assert poly_gcd(P(prime, 1) * P(1, 1), P(0, 1) * P(1, 1)) == P(1, 1)


class TestContent:
    def test_zero(self):
        assert poly_content_and_primitive(Polynomial.zero(QQ)) == (0, [0])

    def test_negative_leading_coefficient(self):
        # the content takes the sign, so the primitive part leads positive
        assert poly_content_and_primitive(P(6, -4, -2)) == (-2, [-3, 2, 1])

    def test_fractional_coefficients(self):
        p = P(Fraction(3, 4), 0, Fraction(-9, 2), Fraction(3, 8))
        c, prim = poly_content_and_primitive(p)
        assert (c, prim) == (Fraction(3, 8), [2, 0, -12, 1])
        assert P(*prim) * c == p

    @given(nonzero_poly)
    @settings(max_examples=60, deadline=None)
    def test_content_times_primitive(self, p):
        c, prim = poly_content_and_primitive(p)
        assert P(*prim) * c == p and prim[-1] > 0
        assert math.gcd(*prim) == 1


class TestScalarHelpers:
    def test_power_matches_builtin_and_repeated_products(self):
        for base in (-3, 2, 7):
            for k in range(12):
                assert power(base, k, 1) == pow(base, k) == math.prod([base] * k)
        assert power(5, 13, 1, lambda a, b: a * b % 11) == pow(5, 13, 11)
        x = P(1, 1)
        assert power(x, 0, P(1)) == P(1) and power(x, 1, P(1)) == x
        assert power(x, 5, P(1)) == x * x * x * x * x

    def test_power_refuses_a_negative_exponent(self):
        with pytest.raises(ValueError):
            power(2, -1, 1)
        with pytest.raises(ValueError):
            P(1, 1) ** -2

    def test_primes_below_begin_like_a_fresh_scan(self):
        scan = [p for p in range((1 << 60) - 1, (1 << 60) - 3000, -1) if is_prime(p)]
        walk = primes_below(60)
        assert [next(walk) for _ in scan] == scan
        assert list(itertools.islice(primes_below(60), len(scan))) == scan

    def test_place_primes_are_the_same_on_every_call(self):
        first, second = list(modscreen.primes()), list(modscreen.primes())
        assert first == second and len(first) == 2048
        assert first == [p for p in range((1 << 30) - 1, first[-1] - 1, -1) if is_prime(p)]

    def test_primes_below_stop_at_two(self):
        assert list(primes_below(4)) == [13, 11, 7, 5, 3, 2]
        assert list(primes_below(1)) == []


class TestSquarefree:
    def test_repeated_linear_factor(self):
        p = P(-1, 1) * P(-1, 1) * P(2, 1)
        assert poly_squarefree_part(p) == (P(-1, 1) * P(2, 1)).monic()

    def test_already_squarefree(self):
        assert poly_squarefree_part(P(-2, 0, 1)) == P(-2, 0, 1)

    def test_perfect_square_of_cubic(self):
        p = P(-1, 0, 0, 1) ** 2  # (x^3 - 1)^2
        g = poly_squarefree_part(p)
        assert g == P(-1, 0, 0, 1)
        assert poly_gcd(g, g.derivative()).degree == 0

    @given(nonzero_poly)
    @settings(max_examples=40, deadline=None)
    def test_squarefree_part_has_no_repeats(self, p):
        g = poly_squarefree_part(p * p)
        if g.degree > 0:
            assert poly_gcd(g, g.derivative()).degree == 0

    def test_decomposition_reconstructs(self):
        p = P(-1, 1) ** 3 * P(1, 1) * P(1, 0, 1) ** 2
        parts = poly_squarefree_decomposition(p)
        acc = Polynomial.one(QQ)
        for part, mult in parts:
            acc = acc * part ** mult
        assert acc == p.monic()


class TestResultant:
    def test_disjoint_quadratics(self):
        # prod(a^2 - 3) over a = +-sqrt(2) equals (2-3)(2-3) = 1
        assert poly_resultant(P(-2, 0, 1), P(-3, 0, 1)) == 1

    def test_degree_one_left_factor(self):
        q = P(7, 0, 3, 1)
        assert poly_resultant(P(-5, 1), q) == q.evaluate(5)

    def test_sign_convention(self):
        assert poly_resultant(P(-2, 0, 1), P(-1, 1)) == -1

    def test_zero_iff_common_factor(self):
        assert poly_resultant(P(-1, 0, 1), P(-1, 1)) == 0
        assert poly_resultant(P(-1, 0, 1), P(1, 1, 1)) != 0

    @given(nonzero_poly, nonzero_poly)
    @settings(max_examples=40, deadline=None)
    def test_matches_sylvester_determinant(self, p, q):
        if p.degree < 1 or q.degree < 1:
            return
        assert poly_resultant(p, q) == sylvester_resultant(p, q)

    @given(nonzero_poly, nonzero_poly, nonzero_poly)
    @settings(max_examples=30, deadline=None)
    def test_planted_common_factor_vanishes(self, p, q, f):
        if f.degree < 1 or p.degree < 0 or q.degree < 0:
            return
        assert poly_resultant(p * f, q * f) == 0


class TestComposePower:
    def test_cubing_substitution(self):
        assert poly_compose_power(P(-2, 0, 1), 3) == P(-2, 0, 0, 0, 0, 0, 1)

    def test_linear_to_cyclotomic_shape(self):
        assert poly_compose_power(P(-1, 1), 7) == P(-1, 0, 0, 0, 0, 0, 0, 1)

    def test_coefficient_spreading(self):
        assert poly_compose_power(P(-1, -2, 1), 2) == P(-1, 0, -2, 0, 1)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_compose_power(P(1, 1), 0)


class TestRender:
    @given(small_poly)
    @settings(max_examples=60, deadline=None)
    def test_render_parse_roundtrip(self, p):
        from galoiskit.parsing import parse_poly

        assert parse_poly(render_poly(p)) == p
