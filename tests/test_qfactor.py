import ast
import inspect
import itertools
import math
import random
import textwrap
from fractions import Fraction

import pytest

from galoiskit import QQ, linalg, qfactor
from galoiskit.poly import Polynomial, poly_content_and_primitive, poly_squarefree_decomposition
from galoiskit.qfactor import (
    factor_degrees_mod_p,
    factor_mod_p,
    factor_over_Q,
    is_irreducible_over_Q,
)
from galoiskit.scalars import PrimeField
from galoiskit.permgroup import DEFAULT_WITNESS_PRIMES
from galoiskit.splitting import splitting_field

from helpers import (
    P,
    PF,
    reducing_divmod,
    schoolbook_divmod,
    schoolbook_mul,
    schoolbook_powmod,
    swinnerton_dyer,
    sylvester_resultant,
    zassenhaus_recombine,
)


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
            fac = factor_mod_p(prod)
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
            fac = factor_over_Q(prod)
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


def _knapsack_and_oracle(f, seed=1):
    """The knapsack's factors of a primitive squarefree integer f, and the
    Zassenhaus oracle's on the same lifted modular factors."""
    p, blocks, degrees = qfactor._choose_prime(f)
    rng = random.Random(seed ^ p)
    mod_factors = sorted(g for block, d in blocks for g in qfactor._zp_equal_degree(block, d, p, rng))
    bound = qfactor._mignotte_bound(f)
    pool, pk = qfactor._HenselTree(f, mod_factors, p).lift(f, 2 * bound)
    want = zassenhaus_recombine(f, pool, pk, bound, degrees)
    got = qfactor._knapsack(f, mod_factors, p)
    return sorted(map(qfactor._zx_primitive, got)), sorted(map(qfactor._zx_primitive, want))


# irreducible over Q: linear, Eisenstein at 5 and at 2 (two non-monic),
# cyclotomic (x^2+x+1, x^8+1), and Swinnerton-Dyer factors, which split into
# degree <= 2 pieces mod every prime
PIECES = [
    P(0, 1), P(-1, 1), P(2, 1), P(3, 2), P(5, 0, 0, 3), P(1, 1, 1), P(-2, 0, 0, 0, 1),
    P(2, 4, 0, 0, 0, 7), P(1, 0, 0, 0, 0, 0, 0, 0, 1),
    swinnerton_dyer(2, 3), swinnerton_dyer(2, 5), swinnerton_dyer(3, 7), swinnerton_dyer(2, 3, 5),
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
        # when every subset is divided blindly.  Degree 64 has 32 quadratics
        # mod every prime, past any subset search
        calls = []
        divide = qfactor._zx_divide_exact

        def counting(a, b):
            calls.append(b)
            return divide(a, b)

        monkeypatch.setattr(qfactor, "_zx_divide_exact", counting)
        for radicands in ((2, 3, 5, 7), (2, 3, 5, 7, 11, 13)):
            calls.clear()
            assert is_irreducible_over_Q(swinnerton_dyer(*radicands))
            assert len(calls) < 10

    def test_knapsack_matches_zassenhaus_on_products(self):
        rng = random.Random(3)
        cases = [[P(5, 0, 0, 3), swinnerton_dyer(2, 3), P(-7, 2)],
                 [P(0, 1), swinnerton_dyer(2, 5), P(1, 1, 1)],
                 [P(-1, 1), P(2, 1), P(3, 2), P(-5, 1), swinnerton_dyer(2, 3)]]
        cases += [rng.sample(PIECES, rng.randint(2, 5)) for _ in range(25)]
        for trial, pieces in enumerate(cases):
            _, f = poly_content_and_primitive(_product(pieces))
            got, want = _knapsack_and_oracle(f, seed=trial)
            assert got == want
            assert len(got) == len(pieces)

    def test_knapsack_matches_zassenhaus_on_the_tenth_root_of_two_norm(self, monkeypatch):
        # the degree-90 Trager norm that splitting x^10 - 2 factors: 23
        # factors mod 13, [10, 40, 40] over Z
        norms = []
        factor = qfactor._factor_squarefree_int

        def recording(f):
            if len(f) == 91:
                norms.append(list(f))
            return factor(f)

        monkeypatch.setattr(qfactor, "_factor_squarefree_int", recording)
        splitting_field(P(-2, *[0] * 9, 1))
        (f,) = norms
        got, want = _knapsack_and_oracle(f)
        assert got == want
        assert sorted(len(g) - 1 for g in got) == [10, 40, 40]

    def test_lattice_path_has_no_floating_point(self):
        # no true division, float literal or float() call anywhere on the path
        for fn in (qfactor._knapsack, qfactor._split_by_blocks, qfactor._power_sums,
                   qfactor._root_bound, qfactor._iroot_ceil, linalg.lll):
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
            for node in ast.walk(tree):
                assert not isinstance(node, ast.Div)
                assert not (isinstance(node, ast.Constant) and isinstance(node.value, float))
                assert not (isinstance(node, ast.Name) and node.id == "float")

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(2)
        for trial in range(20):
            prod = _product(rng.choice(PIECES) for _ in range(rng.randint(2, 4)))
            fac = factor_over_Q(prod)
            got = sorted((tuple(g.coeffs), m) for g, m in fac.factors)
            expr = sympy.Poly([int(c) for c in reversed(prod.coeffs)], x)
            _, sym_factors = sympy.factor_list(expr)
            want = []
            for g, m in sym_factors:
                ints = [int(c) for c in reversed(g.all_coeffs())]
                want.append((tuple(P(*ints).monic().coeffs), m))
            assert got == sorted(want)


def _scaled(q, c):
    """c**deg(q) * q(x/c), an integer polynomial whose roots are c times q's."""
    return P(*[int(a * c ** (q.degree - i)) for i, a in enumerate(q.coeffs)])


def _recorded_lifts(monkeypatch):
    """The moduli p**k of every later _HenselTree lift, in order."""
    seen = []
    lift = qfactor._HenselTree.lift

    def recording(self, f, target):
        out = lift(self, f, target)
        seen.append(out[1])
        return out

    monkeypatch.setattr(qfactor._HenselTree, "lift", recording)
    return seen


def _lift_setup(f):
    p, blocks, _ = qfactor._choose_prime(f)
    rng = random.Random(p)
    return p, sorted(g for block, d in blocks for g in qfactor._zp_equal_degree(block, d, p, rng))


class TestGradualLift:
    """The knapsack lifts from the precision of its first full power-sum
    column, and each further lift continues the last one."""

    def test_matches_zassenhaus_above_the_start_precision(self, monkeypatch):
        # every factor has a coefficient past the first p**k, so no factor
        # is reconstructed until a continued lift: constants 2*10^45 and
        # 10^60, and Swinnerton-Dyer roots scaled by about 10^9 (two more lifts)
        cases = [[P(2 * 10**45, 0, 0, 1), P(10**60, 0, 0, 0, 1)],
                 [_scaled(swinnerton_dyer(2, 3, 5), 10**9), _scaled(swinnerton_dyer(3, 7), 10**9 + 7)]]
        for pieces in cases:
            _, f = poly_content_and_primitive(_product(pieces))
            seen = _recorded_lifts(monkeypatch)
            got, want = _knapsack_and_oracle(f)
            assert got == want
            assert len(got) == len(pieces)
            start = seen[1]  # seen[0] is the oracle's lift to twice the bound
            assert all(max(abs(c) for c in g) > start for g in got)
            assert len(seen) > 2 and seen[2:] == sorted(seen[2:])

    def test_large_coefficients_match_zassenhaus(self):
        pieces = [P(7, 10**30, 0, 1), P(1, 0, -3 * 10**25, 0, 1)]
        _, f = poly_content_and_primitive(_product(pieces))
        got, want = _knapsack_and_oracle(f)
        assert got == want
        assert sorted(len(g) - 1 for g in got) == [3, 4]

    def test_continued_lift_equals_a_lift_from_scratch(self, monkeypatch):
        _, f = poly_content_and_primitive(swinnerton_dyer(2, 3, 5) * P(-7, 2))
        p, factors = _lift_setup(f)
        tree = qfactor._HenselTree(f, factors, p)
        steps = []
        hensel_step = qfactor._hensel_step

        def recording(f, g, h, s, t, m):
            steps.append(m)
            return hensel_step(f, g, h, s, t, m)

        for k in (5, 13, 26, 27, 60):
            fresh = qfactor._HenselTree(f, factors, p).lift(f, p ** k)
            last = tree.k
            monkeypatch.setattr(qfactor, "_hensel_step", recording)
            steps.clear()
            assert tree.lift(f, p ** k) == fresh
            monkeypatch.setattr(qfactor, "_hensel_step", hensel_step)
            # never again from p: every step ends past the last modulus
            assert steps and min(steps) > p ** last

    def test_modulus_is_the_least_power_at_or_above_the_target(self):
        _, f = poly_content_and_primitive(swinnerton_dyer(2, 3) * P(1, 1, 1))
        p, factors = _lift_setup(f)
        for target in (2, p, p + 1, p ** 7 - 1, p ** 7, 10**40, 3**200 + 1):
            pool, pk = qfactor._HenselTree(f, factors, p).lift(f, target)
            k = round(math.log(pk, p))
            assert pk == p ** k and p ** (k - 1) < target <= pk
            prod = [f[-1] % pk]
            for g in pool:
                prod = qfactor._zp_mul(prod, g, pk)
            assert prod == [c % pk for c in f]


class TestHelpers:
    def test_power_sums_exact_and_mod_m(self):
        roots = [1, 2, -3, 5, 5, -7]
        g = [1]
        for r in roots:
            g = [a - r * b for a, b in zip([0] + g, g + [0])]
        exact = [sum(r ** j for r in roots) for j in range(1, 10)]
        assert qfactor._power_sums(g, 9) == exact
        assert qfactor._power_sums([c % 101 for c in g], 9, 101) == [s % 101 for s in exact]

    def test_is_squarefree_q(self):
        assert poly_squarefree_decomposition(P(-2, 0, 1)) == [(P(-2, 0, 1), 1)]
        assert poly_squarefree_decomposition(P(-2, 0, 1) ** 2) == [(P(-2, 0, 1), 2)]

    def test_factor_degrees_mod_p(self):
        p = P(-1, -1, 0, 0, 0, 1)
        assert factor_degrees_mod_p(p, 2) == [2, 3]
        # 7 divides the discriminant check path: just needs to not crash
        assert factor_degrees_mod_p(p, 3) in ([5], None)
        # Seeded non-monic rational inputs at every witness prime.  F is the
        # primitive integer form; a prime dividing a denominator of the monic
        # form divides lc(F), and res(F, F') = +-lc(F) * disc(F).
        rng = random.Random(7)
        seen = {"degrees": 0, "lc": 0, "disc": 0, "denominator": 0}
        for _ in range(20):
            n = rng.randint(3, 12)
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 7)))
                      for _ in range(n)]
            coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.choice((1, 2, 3))))
            h = Polynomial(QQ, coeffs)
            scale = math.lcm(*(c.denominator for c in coeffs))
            ints = [int(c * scale) for c in coeffs]
            g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
            F = P(*(c // g for c in ints))
            res = sylvester_resultant(F, F.derivative())
            denominators = math.prod(c.denominator for c in h.monic().coeffs)
            for prime in DEFAULT_WITNESS_PRIMES:
                got = factor_degrees_mod_p(h, prime)
                assert factor_degrees_mod_p(h.monic(), prime) == got
                if denominators % prime == 0:
                    seen["denominator"] += 1
                    assert got is None
                if F.lc % prime == 0:
                    seen["lc"] += 1
                    assert got is None
                elif res % prime == 0:
                    seen["disc"] += 1
                    assert got is None
                else:
                    seen["degrees"] += 1
                    fac = factor_mod_p(F.map_coefficients(PrimeField(prime).coerce,
                                                          PrimeField(prime)))
                    assert all(m == 1 for _, m in fac)
                    assert got == sorted(f.degree for f, _ in fac)
        assert all(seen.values()), seen


class TestResidueRing:
    """Z_5[x]/(x^2+1) on qfactor's _zp_ routines: x^2+1 at p = 5 is
    (x-2)(x+2), so the ring has zero divisors."""

    F = [1, 0, 1]

    def test_inverse_of_a_unit(self):
        mul = qfactor._zp_mulmod(self.F, 5)
        for a in ([1, 1], [3], [0, 1], [4, 1]):
            assert mul(a, qfactor._zp_inverse(a, self.F, 5)) == [1]

    @pytest.mark.parametrize("a", [[], [3, 1], [2, 1]])
    def test_zero_and_zero_divisors_have_no_inverse(self, a):
        with pytest.raises(ZeroDivisionError):
            qfactor._zp_inverse(a, self.F, 5)

    def test_powers_match_repeated_products(self):
        mul = qfactor._zp_mulmod(self.F, 5)
        a = [1, 1]
        inv = qfactor._zp_inverse(a, self.F, 5)
        acc = [1]
        for k in range(8):
            assert qfactor._zp_powmod(a, k, self.F, 5) == acc
            assert mul(qfactor._zp_powmod(inv, k, self.F, 5), acc) == [1]
            acc = mul(acc, a)

    def test_ext_gcd_refuses_common_factors(self):
        a, b = [1, 1], [1, 0, 1]
        s, t = qfactor._zp_ext_gcd(a, b, 5)
        assert qfactor._zp_add(qfactor._zp_mul(s, a, 5), qfactor._zp_mul(t, b, 5), 5) == [1]
        with pytest.raises(ZeroDivisionError):
            qfactor._zp_ext_gcd([3, 1], [1, 0, 1], 5)


# moduli of the int-list kernel: tiny primes, the Cantor-Zassenhaus pool's
# largest, seven primes just above 2**20, a Mersenne prime past 2**60, and
# Hensel moduli p**k of 207, 634 and 671 bits
KERNEL_MODULI = (2, 3, 313, 1048583, 1048589, 1048601, 1048609, 1048613, 1048627, 1048633,
                 2**61 - 1, 313**25, 3**400, (2**61 - 1)**11)


def _modulus_id(m):
    return str(m) if m < 2**64 else f"{m.bit_length()}-bit"


def _operand(rng, length, m, density=1.0):
    """Ascending coefficients in [0, m) of exactly this length: each entry
    nonzero with the given probability, the last always nonzero."""
    out = [rng.randrange(1, m) if rng.random() < density else 0 for _ in range(length)]
    if out:
        out[-1] = rng.randrange(1, m)
    return out


def _unit(rng, m):
    while True:
        c = rng.randrange(1, m)
        if math.gcd(c, m) == 1:
            return c


class TestModularKernel:
    """_zp_mul (schoolbook or packed), _zp_divmod, and _zp_powmod and
    _zp_mulmod (packed reduction rows) against the schoolbook oracles of
    helpers.py."""

    @pytest.mark.parametrize("m", KERNEL_MODULI, ids=_modulus_id)
    def test_mul(self, m):
        rng = random.Random(m % 1000)
        lengths = [(0, 5), (3, 0), (1, 1), (1, 100), (2, 47), (3, 7), (12, 12),
                   (16, 31), (47, 54), (54, 54), (99, 100), (100, 100)]
        for la, lb in lengths:
            for da, db in ((1.0, 1.0), (0.12, 1.0), (0.12, 0.12)):
                a, b = _operand(rng, la, m, da), _operand(rng, lb, m, db)
                assert qfactor._zp_mul(a, b, m) == schoolbook_mul(a, b, m)
                assert qfactor._zp_mul(b, a, m) == schoolbook_mul(a, b, m)

    @pytest.mark.parametrize("m", KERNEL_MODULI, ids=_modulus_id)
    def test_divmod(self, m):
        rng = random.Random(m % 1001)
        for lb in (1, 2, 5, 30, 54):
            for la in (0, lb - 1, lb, 2 * lb - 1, 100):
                for density in (1.0, 0.12):
                    a = _operand(rng, la, m, density)
                    b = _operand(rng, lb - 1, m, density) + [_unit(rng, m)]
                    assert qfactor._zp_divmod(a, b, m) == schoolbook_divmod(a, b, m)

    @pytest.mark.parametrize("m", (3, 313, 1048583, 2**61 - 1, 3**40, 313**25), ids=_modulus_id)
    def test_divmod_matches_the_reducing_routine(self, m):
        # reducing only the digit the quotient reads changes neither output,
        # for primes and prime powers, constant divisors, dividends shorter
        # than the divisor and dividends with entries outside [0, m)
        rng = random.Random(m % 1003)
        for lb in (1, 2, 7, 30):
            for la in (0, 1, lb - 1, lb, 3 * lb):
                for spread in (0, m):
                    a = [rng.randrange(-spread * m, m + spread * m) for _ in range(la)]
                    b = _operand(rng, lb - 1, m, 0.5) + [_unit(rng, m)]
                    assert qfactor._zp_divmod(a, b, m) == reducing_divmod(a, b, m)

    @pytest.mark.parametrize("m", KERNEL_MODULI, ids=_modulus_id)
    def test_powmod(self, m):
        rng = random.Random(m % 1002)
        cases = [(1, 5), (5, 33), (20, 17)] + ([(54, 33)] if m < 2**64 else [])
        for deg, e in cases:
            for lc in ((1, _unit(rng, m)) if m < 2**64 else (1,)):
                f = _operand(rng, deg, m, 0.5) + [lc]
                for la in (deg, deg + 3):
                    a = _operand(rng, la, m, 0.5)
                    for k in (0, 1, 2, e):
                        assert qfactor._zp_powmod(a, k, f, m) == schoolbook_powmod(a, k, f, m)
                    mul = qfactor._zp_mulmod(f, m)
                    b, c = (schoolbook_divmod(_operand(rng, deg, m), f, m)[1] for _ in range(2))
                    product = schoolbook_divmod(schoolbook_mul(b, c, m), f, m)[1]
                    assert mul(b, c) == product
        # a large exponent, split into two oracle-checked halves
        f = _operand(rng, 12, m) + [1]
        a = _operand(rng, 12, m)
        big = qfactor._zp_powmod(a, 2**40 + 9, f, m)
        half = qfactor._zp_powmod(a, 2**39, f, m)
        rest = schoolbook_powmod(a, 9, f, m)
        square = schoolbook_divmod(schoolbook_mul(half, half, m), f, m)[1]
        assert big == schoolbook_divmod(schoolbook_mul(square, rest, m), f, m)[1]


def _irreducible_mod(f, p):
    """Brute force: monic f has no monic divisor of degree 1 .. deg(f)/2."""
    for e in range(1, (len(f) - 1) // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            if not schoolbook_divmod(f, list(tail) + [1], p)[1]:
                return False
    return True


class TestEqualDegreeAndPacking:
    """Cantor-Zassenhaus with the Frobenius table (odd p, d >= 2) and the
    trace map (p = 2), and Kronecker slots of machine-word and wider widths."""

    # (p, d, number of irreducibles); mod 2 there are 2 of degree 3, 3 of degree 4
    @pytest.mark.parametrize("p, d, count", [(3, 2, 3), (3, 3, 4), (3, 4, 3), (13, 2, 4),
                                             (13, 3, 3), (2, 3, 2), (2, 4, 3)])
    def test_equal_degree_split(self, p, d, count):
        rng = random.Random(100 * p + d)
        irreducibles = set()
        while len(irreducibles) < count:
            g = [rng.randrange(p) for _ in range(d)] + [1]
            if _irreducible_mod(g, p):
                irreducibles.add(tuple(g))
        f = [1]
        for g in irreducibles:
            f = schoolbook_mul(f, list(g), p)
        got = qfactor._zp_equal_degree(f, d, p, random.Random(p))
        assert sorted(map(tuple, got)) == sorted(irreducibles)
        prod = [1]
        for g in got:
            assert len(g) - 1 == d and _irreducible_mod(g, p)
            prod = schoolbook_mul(prod, g, p)
        assert prod == f

    @pytest.mark.parametrize("p", [3, 13, 313])
    def test_frobenius_table_is_the_pth_power(self, p):
        rng = random.Random(p)
        f = _operand(rng, 9, p) + [1]
        frobenius = qfactor._zp_frobenius(f, p, qfactor._zp_mulmod(f, p))
        for h in ([], [1], [0, 1], _operand(rng, 5, p), _operand(rng, 9, p, 0.5)):
            assert frobenius(h) == schoolbook_powmod(h, p, f, p)

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 11])
    def test_pack_round_trip_at_full_slots(self, w):
        top = 256 ** w - 1
        for a in ([top], [top] * 7, [0, top, 1, top]):
            x = qfactor._zp_pack(a, w)
            assert x == sum(c << 8 * w * i for i, c in enumerate(a))
            assert qfactor._zp_unpack(x, w, len(a), 256 ** w) == a
            assert qfactor._zp_unpack(x, w, len(a) + 2, 7) == [c % 7 for c in a] + [0, 0]

    def test_slots_round_up_to_machine_words(self):
        assert [qfactor._slot_bytes(2 ** b - 1) for b in (1, 8, 9, 16, 17, 32, 33, 64, 65, 80)] == [
            1, 1, 2, 2, 4, 4, 8, 8, 9, 10]


class TestFactorModPFrozen:
    """factor_mod_p on fixed inputs; the expected factors were computed
    before the packed kernel and checked by expansion."""

    CASES = [
        (3, [1, 1, 2, 2, 2, 1, 0, 1, 0, 1, 1, 1, 2, 1, 2, 2, 1], [0, 1],
         [([0, 1], 2), ([2, 1], 1), ([1, 1, 1, 1, 0, 1, 1, 1], 1),
          ([2, 2, 1, 1, 0, 2, 2, 2, 1], 1)]),
        (313, [132, 148, 95, 118, 75, 115, 95, 66, 36, 272, 109, 150, 15, 220, 1], [64, 1],
         [([64, 1], 2), ([264, 270, 155, 3, 1], 1),
          ([157, 70, 50, 57, 63, 108, 254, 231, 148, 217, 1], 1)]),
        (1048583, [224035, 517860, 568569, 536400, 610304, 152307, 943176, 635411, 978569,
                   831884, 825878, 248301, 1], [552634, 1],
         [([552634, 1], 2), ([224035, 517860, 568569, 536400, 610304, 152307, 943176, 635411,
                              978569, 831884, 825878, 248301, 1], 1)]),
    ]

    @pytest.mark.parametrize("p, f, g, want", CASES)
    def test_frozen(self, p, f, g, want):
        field = PrimeField(p)
        poly = PF(field, *f) * PF(field, *g) ** 2
        fac = factor_mod_p(poly)
        assert [([c.value for c in h.coeffs], m) for h, m in fac.factors] == want
        assert fac.expand(field) == poly

    def test_pth_power_multiplicity(self):
        # (x^2+x+1) * x^2 mod 2: x^2 is left after Yun's loop as a square,
        # and its root x has multiplicity 2, not 4
        gf2 = PrimeField(2)
        fac = factor_mod_p(PF(gf2, 1, 1, 1) * PF(gf2, 0, 1) ** 2)
        assert [([c.value for c in h.coeffs], m) for h, m in fac.factors] == [
            ([0, 1], 2), ([1, 1, 1], 1)]

    def test_products_with_pth_powers_expand_back(self):
        rng = random.Random(5)
        for p in (2, 3, 5):
            field = PrimeField(p)
            for _ in range(60):
                poly = PF(field, 1)
                for _ in range(rng.randint(1, 3)):
                    q = PF(field, *[rng.randrange(p) for _ in range(rng.randint(1, 3))], 1)
                    poly = poly * q ** rng.randint(1, 7)
                assert factor_mod_p(poly).expand(field) == poly
