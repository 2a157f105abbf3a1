import itertools
import random

import pytest

from galoiskit import QQ, qfactor
from galoiskit.modscreen import ModImage
from galoiskit.numfield import ExtensionField
from galoiskit.poly import Polynomial
from galoiskit.qfactor import (
    factor_degrees_mod_p,
    factor_mod_p,
    factor_over_Q,
    is_irreducible_over_Q,
    is_squarefree_q,
)
from galoiskit.scalars import PrimeField

from helpers import P, PF, swinnerton_dyer


class TestFactorModP:
    def test_square_mod_2(self):
        gf2 = PrimeField(2)
        fac = factor_mod_p(PF(gf2, 1, 0, 1))
        assert [( [c.value for c in g.coeffs], m) for g, m in fac] == [([1, 1], 2)]
        assert fac.expand(gf2) == PF(gf2, 1, 0, 1)

    def test_splits_mod_5(self):
        gf5 = PrimeField(5)
        fac = factor_mod_p(PF(gf5, 1, 0, 1))
        # 2^2 = 4 = -1 and 3^2 = 9 = -1 mod 5, so the roots are 2 and 3
        roots = sorted((-g.coeff(0)).value for g, _ in fac)
        assert roots == [2, 3]

    def test_irreducible_mod_3(self):
        gf3 = PrimeField(3)
        # no residue squares to -1 mod 3: 0, 1, 1
        assert all((r * r) % 3 != 2 for r in range(3))
        fac = factor_mod_p(PF(gf3, 1, 0, 1))
        assert len(fac.factors) == 1 and fac.factors[0][1] == 1

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_random_products_recovered(self):
        gf7 = PrimeField(7)
        rng = random.Random(7)
        # squares mod 7 are {1, 2, 4}: x^2 + 1 has no root; x^2 + x + 3 has
        # discriminant -11 = 3, a non-square
        irreducibles = [PF(gf7, 3, 1), PF(gf7, 5, 1), PF(gf7, 1, 0, 1), PF(gf7, 3, 1, 1)]
        for _ in range(10):
            picks = [rng.choice(irreducibles) for _ in range(rng.randint(1, 3))]
            prod = Polynomial.one(gf7)
            for q in picks:
                prod = prod * q
            fac = factor_mod_p(prod, seed=rng.randint(0, 100))
            assert fac.expand(gf7) == prod
            got = sorted(
                (tuple(c.value for c in g.coeffs),)
                for g, m in fac
                for _ in range(m)
            )
            want = sorted((tuple(c.value for c in q.coeffs),) for q in picks)
            assert got == want


class TestFactorOverQ:
    def test_x4_minus_1_matches_brute_force(self):
        p = P(-1, 0, 0, 0, 1)
        # exhaustive check over integer factor candidates of degree <= 2
        from helpers import brute_force_monic_divisors

        divisors = {tuple(d.coeffs) for d in brute_force_monic_divisors(p, 2, 3)}
        assert tuple(P(-1, 1).coeffs) in divisors
        assert tuple(P(1, 1).coeffs) in divisors
        assert tuple(P(1, 0, 1).coeffs) in divisors
        fac = factor_over_Q(p)
        assert [tuple(g.coeffs) for g, _ in fac.factors] == [
            tuple(P(-1, 1).coeffs),
            tuple(P(1, 1).coeffs),
            tuple(P(1, 0, 1).coeffs),
        ]
        assert fac.expand(QQ) == p

    def test_quintic_irreducible_via_mod5_exhaustion(self):
        p = P(-1, -1, 0, 0, 0, 1)
        # oracle: no root mod 5, no monic quadratic divisor mod 5
        gf5 = PrimeField(5)
        p5 = PF(gf5, -1, -1, 0, 0, 0, 1)
        assert all(p5.evaluate(r) for r in range(5))
        for b in range(5):
            for c in range(5):
                q = PF(gf5, c, b, 1)
                assert not (p5 % q).is_zero
        assert is_irreducible_over_Q(p)

    def test_content_extraction(self):
        fac = factor_over_Q(P(-6, 0, 6))
        assert fac.unit == 6
        assert [tuple(g.coeffs) for g, _ in fac.factors] == [
            tuple(P(-1, 1).coeffs),
            tuple(P(1, 1).coeffs),
        ]
        assert fac.expand(QQ) == P(-6, 0, 6)

    def test_x4_plus_1_irreducible_by_quadratic_exhaustion(self):
        p = P(1, 0, 0, 0, 1)
        # oracle: no rational roots (1, -1 fail); no monic integer quadratic
        # factor pair with coefficients bounded by 2
        assert p.evaluate(1) and p.evaluate(-1)
        found = False
        for b1, c1 in itertools.product(range(-2, 3), repeat=2):
            q = P(c1, b1, 1)
            if (p % q).is_zero:
                found = True
        assert not found
        assert is_irreducible_over_Q(p)

    def test_rational_root_filtering(self):
        assert is_irreducible_over_Q(P(-2, 0, 1))
        assert not is_irreducible_over_Q(P(-4, 0, 1))

    def test_multiplicity_structure(self):
        p = P(-1, 1) ** 3 * P(1, 0, 1) ** 2
        fac = factor_over_Q(p)
        assert sorted(m for _, m in fac.factors) == [2, 3]
        assert fac.expand(QQ) == p

    def test_non_monic_reconstruction(self):
        p = P(3, -1) * P(2, 5) * P(1, 1, 7)
        fac = factor_over_Q(p)
        assert fac.expand(QQ) == p
        for g, _ in fac.factors:
            assert g.lc == 1

    def test_refactoring_irreducibles_is_identity(self):
        for ints in [(-2, 0, 1), (1, 1, 1), (-2, 0, 0, 1), (1, 0, 0, 0, 1)]:
            p = P(*ints)
            fac = factor_over_Q(p)
            assert len(fac.factors) == 1
            g = fac.factors[0][0]
            refac = factor_over_Q(g)
            assert refac.factors[0][0] == g

    def test_planted_multiset_recovery(self):
        rng = random.Random(11)
        irreducibles = [P(-2, 0, 1), P(1, 1, 1), P(-2, 0, 0, 1), P(3, 1), P(-1, 3)]
        for trial in range(8):
            picks = [rng.choice(irreducibles) for _ in range(rng.randint(1, 3))]
            prod = Polynomial.one(QQ)
            for q in picks:
                prod = prod * q
            fac = factor_over_Q(prod, seed=trial)
            assert fac.expand(QQ) == prod
            got = sorted(
                tuple(g.coeffs) for g, m in fac.factors for _ in range(m)
            )
            want = sorted(tuple(q.monic().coeffs) for q in picks)
            assert got == want

    def test_degree_conservation(self):
        p = P(4, 0, -5, 0, 1) * P(1, 2, 3, 4)
        fac = factor_over_Q(p)
        assert sum(g.degree * m for g, m in fac.factors) == p.degree

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_over_Q(Polynomial.zero(QQ))

    def test_determinism_across_seeds_is_canonical(self):
        p = P(-1, 0, 0, 0, 0, 0, 0, 0, 1)  # x^8 - 1
        a = [tuple(g.coeffs) for g, _ in factor_over_Q(p, seed=1).factors]
        b = [tuple(g.coeffs) for g, _ in factor_over_Q(p, seed=99).factors]
        assert a == b


def _product(pieces):
    prod = Polynomial.one(QQ)
    for q in pieces:
        prod = prod * q
    return prod


def _assert_recovers(pieces):
    """The planted irreducible pieces are exactly the factors found."""
    prod = _product(pieces)
    fac = factor_over_Q(prod)
    assert fac.expand(QQ) == prod
    got = sorted(tuple(g.coeffs) for g, m in fac.factors for _ in range(m))
    assert got == sorted(tuple(q.monic().coeffs) for q in pieces)


# irreducible over Q: linear, Eisenstein at 5 (non-monic), cyclotomic, and
# Swinnerton-Dyer factors, which split into degree <= 2 pieces mod every prime
PIECES = [
    P(0, 1), P(-1, 1), P(2, 1), P(3, 2), P(5, 0, 0, 3), P(1, 1, 1),
    swinnerton_dyer(2, 3), swinnerton_dyer(2, 5), swinnerton_dyer(3, 7),
]


class TestRecombination:
    def test_many_modular_factors(self):
        pieces = [swinnerton_dyer(2, 3), swinnerton_dyer(2, 5), swinnerton_dyer(3, 7, 11)]
        assert factor_degrees_mod_p(_product(pieces), 17) == [2] * 8
        _assert_recovers(pieces)

    def test_non_monic_factor(self):
        # lc = 6 scales the d-1 and constant-term tests of every subset
        _assert_recovers([P(5, 0, 0, 3), swinnerton_dyer(2, 3), P(-7, 2)])

    def test_factor_x(self):
        # f(0) = 0 switches the constant-term test off until x is removed
        _assert_recovers([P(0, 1), swinnerton_dyer(2, 5), P(1, 1, 1)])

    def test_linear_factors(self):
        _assert_recovers([P(-1, 1), P(2, 1), P(3, 2), P(-5, 1), swinnerton_dyer(2, 3)])

    def test_swinnerton_dyer_irreducible_without_trial_division(self, monkeypatch):
        # degree 16, eight quadratics mod every prime: 162 trial divisions
        # when every subset is divided blindly
        calls = []
        divide = qfactor._zx_divide_exact

        def counting(a, b):
            calls.append(b)
            return divide(a, b)

        monkeypatch.setattr(qfactor, "_zx_divide_exact", counting)
        assert is_irreducible_over_Q(swinnerton_dyer(2, 3, 5, 7))
        assert len(calls) < 10

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(2)
        for trial in range(20):
            prod = _product(rng.choice(PIECES) for _ in range(rng.randint(2, 4)))
            fac = factor_over_Q(prod, seed=trial)
            got = sorted((tuple(g.coeffs), m) for g, m in fac.factors)
            expr = sympy.Poly([int(c) for c in reversed(prod.coeffs)], x)
            _, sym_factors = sympy.factor_list(expr)
            want = []
            for g, m in sym_factors:
                ints = [int(c) for c in reversed(g.all_coeffs())]
                want.append((tuple(P(*ints).monic().coeffs), m))
            assert got == sorted(want)


class TestHelpers:
    def test_is_squarefree_q(self):
        assert is_squarefree_q(P(-2, 0, 1))
        assert not is_squarefree_q(P(-2, 0, 1) ** 2)

    def test_factor_degrees_mod_p(self):
        p = P(-1, -1, 0, 0, 0, 1)
        assert factor_degrees_mod_p(p, 2) == [2, 3]
        # 7 divides the discriminant check path: just needs to not crash
        assert factor_degrees_mod_p(p, 3) in ([5], None)


class TestModImage:
    """Z_p[x]/(m mod p) on qfactor's _zp_ routines: x^2+1 at p = 5 is
    (x-2)(x+2), so the image has zero divisors."""

    @pytest.fixture
    def img(self):
        return ModImage(ExtensionField(QQ, P(1, 0, 1)), 5)

    def test_inverse_of_a_unit(self, img):
        for a in ([1, 1], [3], [0, 1], [4, 1]):
            assert img.mul(a, img.inv(a)) == [1]

    @pytest.mark.parametrize("a", [[], [3, 1], [2, 1]])
    def test_zero_and_zero_divisors_have_no_inverse(self, img, a):
        with pytest.raises(ZeroDivisionError):
            img.inv(a)

    def test_powers_match_repeated_products(self, img):
        a = [1, 1]
        acc = [1]
        for k in range(8):
            assert img.pow(a, k) == acc
            assert img.mul(img.pow(a, -k), acc) == [1]
            acc = img.mul(acc, a)

    def test_ext_gcd_refuses_common_factors(self):
        a, b = [1, 1], [1, 0, 1]
        s, t = qfactor._zp_ext_gcd(a, b, 5)
        assert qfactor._zp_add(qfactor._zp_mul(s, a, 5), qfactor._zp_mul(t, b, 5), 5) == [1]
        with pytest.raises(ZeroDivisionError):
            qfactor._zp_ext_gcd([3, 1], [1, 0, 1], 5)
