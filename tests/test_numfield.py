import random
import sys
from copy import deepcopy
from fractions import Fraction
from pathlib import Path
from math import gcd, lcm
from operator import add, sub

import pytest

from galoiskit import QQ, DegreeCapError, FieldMismatchError
from galoiskit import linalg, modscreen, numfield
from galoiskit.checks import collect_checks
from galoiskit.cli import _load_chain_file
from galoiskit.numfield import (
    ExtElement,
    ExtensionField,
    FieldTower,
    _power_coords,
    _power_relation,
    element_sort_key,
    factor_over_number_field,
    minimal_polynomial,
    roots_in_field,
)
from galoiskit.parsing import parse_poly
from galoiskit.poly import Polynomial
from galoiskit.qfactor import factor_over_Q, is_irreducible_over_Q
from galoiskit.radical import normalize_chain, realize_chain, verify_nested_normal_radical
from galoiskit.scalars import PrimeField
from galoiskit.splitting import splitting_field

from helpers import (FractionSpanSolver, P, fraction_mul, multi_target_flatten, poly_extended_gcd,
                     poly_resultant, random_rational, rational_sequence)


def tower_q_sqrt2():
    t = FieldTower.rationals()
    ext = t.absolute.ext
    return t.adjoin(P(-2, 0, 1).map_coefficients(ext.coerce, ext), "g1")


def tower_q_sqrt2_sqrt3():
    t = tower_q_sqrt2()
    ext = t.absolute.ext
    return t.adjoin(P(-3, 0, 1).map_coefficients(ext.coerce, ext), "g2")


def shifted_relation(f, s):
    """Minimal polynomial over Q of z = y + s*theta in F[y]/(f)."""
    F = f.field
    return _power_relation(_power_coords(F.gen * s, 1, f), F.degree * f.degree)[0]


def assert_norm_by_resultants(g, norm):
    """norm(v) == Res(m, g(v)) at N + 1 rational points, N = [F:Q] deg g,
    with g(v) read as a polynomial in theta and m the field's modulus."""
    F = g.field
    for v in range(F.degree * g.degree + 1):
        h = Polynomial(QQ, g.evaluate(F.coerce(v)).coeffs)
        assert norm.evaluate(Fraction(v)) == poly_resultant(F.modulus, h)


class TestAdjoin:
    def test_adjoin_sqrt2(self):
        t = tower_q_sqrt2()
        assert t.degree == 2
        g = t.absolute.gen_images[0]
        assert g * g == 2

    def test_adjoin_sqrt3_over_sqrt2(self):
        # (a + b*sqrt2)^2 = 3 needs a^2 + 2 b^2 = 3 and 2ab = 0; a = 0 gives
        # b^2 = 3/2 and b = 0 gives a^2 = 3, neither rational, so x^2 - 3
        # stays irreducible and the tower has degree 4
        t = tower_q_sqrt2_sqrt3()
        assert t.degree == 4
        s2, s3 = t.absolute.gen_images
        assert s2 * s2 == 2 and s3 * s3 == 3

    def test_adjoin_reducible_rejected(self):
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        with pytest.raises(ValueError):
            t.adjoin(P(-2, 0, 1).map_coefficients(ext.coerce, ext), "bad")

    def test_non_monic_auto_normalized(self):
        t = FieldTower.rationals()
        ext = t.absolute.ext
        t2 = t.adjoin(P(-4, 0, 2).map_coefficients(ext.coerce, ext), "g1")
        assert t2.degree == 2

    def test_degree_cap(self):
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        with pytest.raises(DegreeCapError):
            t.adjoin(P(-3, 0, 1).map_coefficients(ext.coerce, ext), "g2", degree_cap=3)

    def test_base_other_than_q_rejected(self):
        # every field is built over Q; a relative extension is flattened by adjoin
        ext = tower_q_sqrt2().absolute.ext
        with pytest.raises(ValueError):
            ExtensionField(ext, P(-3, 0, 1).map_coefficients(ext.coerce, ext))
        gf5 = PrimeField(5)
        with pytest.raises(ValueError):
            ExtensionField(gf5, Polynomial(gf5, [2, 0, 1]))

    def test_degree_formula_along_tower(self):
        t = tower_q_sqrt2_sqrt3()
        assert t.degree == 2 * 2
        assert t.absolute.min_poly.degree == t.degree
        stages = [deg for _, deg, _ in t.stages]
        prod = 1
        for d in stages:
            prod *= d
        assert prod == t.degree


class TestElementArithmetic:
    def test_inverse_of_one_plus_sqrt2(self):
        t = tower_q_sqrt2()
        s2 = t.absolute.gen_images[0]
        inv = (1 + s2).inverse()
        assert inv == s2 - 1
        assert (1 + s2) * inv == 1

    def test_inverse_roundtrip_random(self):
        t = tower_q_sqrt2_sqrt3()
        ext = t.absolute.ext
        rng = random.Random(3)
        for _ in range(10):
            coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            a = ext.from_rep(coords)
            if not a:
                continue
            assert a * a.inverse() == 1

    def test_defining_relation_cube(self):
        t = FieldTower.rationals()
        ext = t.absolute.ext
        t = t.adjoin(P(-2, 0, 0, 1).map_coefficients(ext.coerce, ext), "c")
        c = t.absolute.gen_images[0]
        assert c ** 3 == 2

    def test_negative_powers(self):
        t = tower_q_sqrt2()
        s2 = t.absolute.gen_images[0]
        assert s2 ** -2 == Fraction(1, 2)

    def test_inverse_of_zero_rejected(self):
        t = tower_q_sqrt2()
        with pytest.raises(ZeroDivisionError):
            t.absolute.ext.zero.inverse()


def random_coords(n, rng):
    """Rational coordinates that reach the edge cases: zero, a unit,
    negatives, numerators and denominators up to 2**64."""
    kind = rng.randrange(5)
    coords = [Fraction(0)] * n
    if kind == 1:
        coords[rng.randrange(n)] = Fraction(rng.choice((1, -1)))
    elif kind > 1:
        bits = (3, 20, 64)[kind - 2]
        coords = [Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))
                  if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
    return coords


def assert_normal(e, field):
    """Integer coordinates over one positive denominator, in lowest terms."""
    assert e.field == field and len(e.num) == field.degree
    assert all(type(v) is int for v in e.num) and type(e.den) is int
    assert e.den > 0 and gcd(e.den, *e.num) == 1


class TestIntegerRepresentation:
    """Elements as integer vectors over one denominator, against one Fraction
    per coefficient (helpers.fraction_mul) on fields of degree 1, 2, 4 and
    24."""

    MODULI = {"degree-1": P(-5, 3), "degree-2": P(-5, 1, 7), "degree-4": P(2, 3, 0, 0, 6)}

    @pytest.fixture(params=list(MODULI) + ["x^4+x+1"])
    def field(self, request):
        if request.param == "x^4+x+1":
            return request.getfixturevalue("corpus_fields")["x^4+x+1"].field.ext
        return ExtensionField(QQ, self.MODULI[request.param].monic())

    def test_operations_match_the_oracle(self, field):
        n, rng = field.degree, random.Random(field.degree)
        elts = [field.from_rep([0] * n)] + [field.from_rep(random_coords(n, rng)) for _ in range(7)]
        for a, b in list(zip(elts, elts[::-1])) + [(e, e) for e in elts]:
            ac, bc = a.coeffs, b.coeffs
            assert (a == b) == (ac == bc)
            checks = [(a, ac), (a + b, tuple(map(add, ac, bc))), (a - b, tuple(map(sub, ac, bc))),
                      (-a, tuple(-c for c in ac)), (a * b, fraction_mul(field, ac, bc))]
            for k in (0, 1, -3, Fraction(-7, 2**64 + 13)):
                checks += [(a * k, tuple(c * k for c in ac)), (k * a, tuple(c * k for c in ac))]
            for got, want in checks:
                assert_normal(got, field)
                assert got.coeffs == want and got.sort_key() == want
                assert bool(got) == any(want)
                assert hash(got) == hash((n, want))

    def test_inverse_matches_the_oracle(self, field):
        n, rng = field.degree, random.Random(100 + field.degree)
        one = (Fraction(1),) + (Fraction(0),) * (n - 1)
        for _ in range(6):
            a = field.from_rep(random_coords(n, rng))
            if not a:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
                continue
            inv = a.inverse()
            assert_normal(inv, field)
            assert fraction_mul(field, a.coeffs, inv.coeffs) == one

    def test_rationals_and_equal_values(self, field):
        n, rng = field.degree, random.Random(200 + field.degree)
        for k in (0, -1, 5, Fraction(-3, 2**64 + 1)):
            c = field.coerce(k)
            assert_normal(c, field)
            assert c.coeffs == (Fraction(k),) + (Fraction(0),) * (n - 1)
            assert c == k and field.from_rep([k]) == c
        zeros = [field.zero, field.coerce(0), field.from_rep([]), field.one - 1]
        assert all(z.num == (0,) * n and z.den == 1 for z in zeros)
        a = field.from_rep([Fraction(rng.randint(-2**64, 2**64), rng.randint(1, 2**64))
                            for _ in range(n)])
        same = [a, (a + a) * Fraction(1, 2), a - field.one + 1, a * 3 - a - a]
        assert len(set(same)) == 1 and {a: "a"}[same[-1]] == "a"
        assert len({a, a + 1, field.zero, zeros[-1]}) == 3


class TestModularInverse:
    """The field inverse against Euclid over Q (helpers.poly_extended_gcd)."""

    @staticmethod
    def oracle(a):
        g, s, _ = poly_extended_gcd(a.rep_poly(), a.field.modulus)
        assert g.degree == 0
        return a.field.from_rep((s % a.field.modulus).coeffs)

    def test_rational_modulus(self):
        # 6x^4 + 3x + 2 over the rationals, monic: x^4 + x/2 + 1/3
        m = P(2, 3, 0, 0, 6).monic()
        assert m.coeff(1) == Fraction(1, 2) and is_irreducible_over_Q(m)
        ext = ExtensionField(QQ, m)
        rng = random.Random(11)
        for _ in range(12):
            a = ext.from_rep([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)])
            if a:
                assert a.inverse() == self.oracle(a)

    def test_degree_one_and_huge_coefficients(self):
        ext = ExtensionField(QQ, P(-5, 3))  # root 5/3
        big = Fraction(3**300 + 1, 2**200 - 1)
        assert ext.from_rep([big]).inverse() == ext.from_rep([1 / big])
        quartic = ExtensionField(QQ, P(-3, 1, 0, 0, 1))
        rng = random.Random(12)
        for _ in range(3):
            a = quartic.from_rep([Fraction(rng.getrandbits(300) - 2**299, rng.getrandbits(200) + 1)
                                  for _ in range(4)])
            inv = a.inverse()
            assert inv == self.oracle(a)
            assert max(abs(c.numerator).bit_length() for c in inv.coeffs) > 1000

    def test_degree_40_splitting_field(self):
        e = splitting_field(P(-2, 0, 0, 0, 0, 1) * P(1, 0, 1))
        assert e.degree == 40
        r = e.roots
        a = r[0] + 2 * r[1] + r[-1] * r[0] + 3
        assert a * a.inverse() == 1

    def test_zero_divisor_raises_at_once(self):
        # x - 1 modulo x^2 - 1 = (x - 1)(x + 1)
        ext = ExtensionField(QQ, P(-1, 0, 1))
        with pytest.raises(ArithmeticError, match="reducible"):
            ext.from_rep([-1, 1]).inverse()
        with pytest.raises(ZeroDivisionError):
            ext.zero.inverse()
        with pytest.raises(ArithmeticError, match="reducible"):
            ext.from_rep([1, 1]).inverse()
        # x + 2 is a unit there: (x + 2)(2/3 - x/3) = 1
        assert ext.from_rep([2, 1]).inverse() == ext.from_rep([Fraction(2, 3), Fraction(-1, 3)])

    @pytest.mark.parametrize("factors", [(P(-2, 0, 1), P(-3, 0, 1)),
                                         (P(-2, 0, 0, 1), P(1, 1, 0, 1))],
                             ids=["(x^2-2)(x^2-3)", "(x^3-2)(x^3+x+1)"])
    def test_reducible_algebras(self, factors):
        # every multiple of a factor is a zero divisor, every other element a unit
        ext = ExtensionField(QQ, factors[0] * factors[1])
        rng = random.Random(13)
        for _ in range(10):
            g = P(*(random_rational(rng) for _ in range(ext.degree)))
            for f in factors:
                a = ext.from_rep((f * g % ext.modulus).coeffs)
                if a:
                    with pytest.raises(ArithmeticError, match="reducible"):
                        a.inverse()
            a = ext.from_rep(g.coeffs)
            if a and poly_extended_gcd(g, ext.modulus)[0].degree == 0:
                assert a.inverse() == self.oracle(a)

    @pytest.mark.parametrize("bits", [8, 100])
    def test_matches_sympy_invert(self, bits):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(bits)

        def to_sympy(coeffs):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                              x, domain="QQ")

        # x^n + 2x + 2 and x^n - 3x^2/4 + 3/2 (4x^n - 3x^2 + 6) are Eisenstein at 2 and 3
        moduli = ([P(2, 2, *[0] * (n - 2), 1) for n in (2, 3, 5, 8, 12)]
                  + [P(Fraction(3, 2), 0, Fraction(-3, 4), *[0] * (n - 3), 1) for n in (3, 7)])
        for m in moduli:
            ext = ExtensionField(QQ, m)
            # sympy takes about 2 s on one degree-12 inverse at 100 bits
            for _ in range(3 if bits == 8 else 1):
                coeffs = [Fraction(rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(bits) + 1)
                          for _ in range(m.degree)]
                want = to_sympy(coeffs).invert(to_sympy(m.coeffs)).all_coeffs()
                assert ext.from_rep(coeffs).inverse() == ext.from_rep(
                    [Fraction(int(c.p), int(c.q)) for c in reversed(want)])


class TestMinimalPolynomial:
    def test_sqrt2_plus_sqrt3(self):
        # oracle: expand (x^2 - 5)^2 - 24 = x^4 - 10 x^2 + 1
        oracle = P(-5, 0, 1) ** 2 - P(24)
        assert oracle == P(1, 0, -10, 0, 1)
        t = tower_q_sqrt2_sqrt3()
        s2, s3 = t.absolute.gen_images
        mp = minimal_polynomial(s2 + s3)
        assert mp == oracle
        assert not mp.evaluate(s2 + s3)
        from galoiskit.qfactor import is_irreducible_over_Q

        assert is_irreducible_over_Q(mp)

    def test_rational_element(self):
        assert minimal_polynomial(Fraction(2)) == P(-2, 1)
        t = tower_q_sqrt2()
        two = t.absolute.ext.coerce(2)
        assert minimal_polynomial(two) == P(-2, 1)

    def test_generator_keeps_its_defining_polynomial(self):
        t = tower_q_sqrt2_sqrt3()
        s2 = t.absolute.gen_images[0]
        assert minimal_polynomial(s2) == P(-2, 0, 1)

    def test_reads_one_kernel_vector_below_full_degree(self, monkeypatch):
        # sqrt2 has degree 2 in a degree-4 field: z**2, z**3 and z**4 are
        # all dependent, and only the first of them is back-substituted
        t = tower_q_sqrt2_sqrt3()
        read, back_substitute = [], linalg._back_substitute

        def spy(*args):
            for c, v in back_substitute(*args):
                read.append(c)
                yield c, v

        monkeypatch.setattr(linalg, "_back_substitute", spy)
        assert minimal_polynomial(t.absolute.gen_images[0]) == P(-2, 0, 1)
        assert read == [2]

    def test_degree_divides_field_degree(self):
        t = tower_q_sqrt2_sqrt3()
        ext = t.absolute.ext
        rng = random.Random(5)
        for _ in range(6):
            a = ext.from_rep([Fraction(rng.randint(-3, 3)) for _ in range(4)])
            mp = minimal_polynomial(a)
            assert t.degree % mp.degree == 0
            assert not mp.evaluate(a)


class TestPrimitiveElement:
    def test_two_stage_combination(self):
        t = tower_q_sqrt2_sqrt3()
        a = t.absolute
        assert a.min_poly == P(1, 0, -10, 0, 1)
        s2, s3 = a.gen_images
        assert a.theta == s2 + s3 * a.theta_combo[1]
        assert a.theta_combo == (1, 1)

    def test_single_stage_is_the_generator(self):
        t = tower_q_sqrt2()
        a = t.absolute
        assert a.min_poly == P(-2, 0, 1)
        assert a.theta == a.gen_images[0]

    def test_rationals_degenerate(self):
        t = FieldTower.rationals()
        a = t.absolute
        assert a.degree == 1
        assert a.min_poly == P(-1, 1)
        assert a.theta == 1

    def test_flattening_roundtrip(self):
        # substituting generator images into each stage polynomial gives zero
        t = tower_q_sqrt2_sqrt3()
        s2, s3 = t.absolute.gen_images
        assert s2 * s2 - 2 == t.absolute.ext.zero
        assert s3 * s3 - 3 == t.absolute.ext.zero


class TestTrager:
    def test_split_x2_minus_2_over_its_field(self):
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        s2 = t.absolute.gen_images[0]
        fac = factor_over_number_field(P(-2, 0, 1).map_coefficients(ext.coerce, ext))
        assert [g.degree for g, _ in fac.factors] == [1, 1]
        roots = sorted((-g.coeff(0) for g, _ in fac.factors), key=element_sort_key)
        assert roots == sorted([s2, -s2], key=element_sort_key)

    def test_irreducible_quadratic_stays(self):
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        fac = factor_over_number_field(P(-3, 0, 1).map_coefficients(ext.coerce, ext))
        assert [(g.degree, m) for g, m in fac.factors] == [(2, 1)]

    def test_cyclotomic_splits_over_itself(self):
        t = FieldTower.rationals()
        ext = t.absolute.ext
        t = t.adjoin(P(1, 1, 1).map_coefficients(ext.coerce, ext), "z")
        ext = t.absolute.ext
        z = t.absolute.gen_images[0]
        fac = factor_over_number_field(P(1, 1, 1).map_coefficients(ext.coerce, ext))
        roots = sorted((-g.coeff(0) for g, _ in fac.factors), key=element_sort_key)
        assert roots == sorted([z, z * z], key=element_sort_key)

    def test_reconstruction_and_idempotence(self):
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        p = P(-4, 0, 0, 0, 1).map_coefficients(ext.coerce, ext)  # x^4 - 4
        fac = factor_over_number_field(p)
        assert fac.expand(ext) == p
        for g, _ in fac.factors:
            refac = factor_over_number_field(g)
            assert len(refac.factors) == 1 and refac.factors[0][0] == g

    def test_multiplicity_handling(self):
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        s2 = t.absolute.gen_images[0]
        x = Polynomial.x(ext)
        lin = x - Polynomial.constant(ext, s2)
        p = lin * lin * (x + Polynomial.constant(ext, 1))
        fac = factor_over_number_field(p)
        assert sorted(m for _, m in fac.factors) == [1, 2]
        assert fac.expand(ext) == p

    def test_roots_in_field(self):
        t = tower_q_sqrt2_sqrt3()
        s2, s3 = t.absolute.gen_images
        roots = roots_in_field(P(-2, 0, 1), t.absolute.ext)
        assert roots == sorted([s2, -s2], key=element_sort_key)
        assert roots_in_field(P(-5, 0, 1), t.absolute.ext) == []

    def test_norm_of_quadratic_over_sqrt2(self):
        # norm of x^2 - sqrt2 over Q(sqrt2) is (x^2 - sqrt2)(x^2 + sqrt2)
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        s2 = t.absolute.gen_images[0]
        x = Polynomial.x(ext)
        g = x * x - Polynomial.constant(ext, s2)
        n = shifted_relation(g, 0)
        assert n == P(-2, 0, 0, 0, 1)
        assert_norm_by_resultants(g, n)

    def test_norm_matches_resultant_of_minpoly(self):
        # for a linear x - e the norm is the characteristic polynomial of e;
        # cross-check against resultant-based evaluation at N + 1 points
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        s2 = t.absolute.gen_images[0]
        x = Polynomial.x(ext)
        g = x - Polynomial.constant(ext, 1 + s2)
        n = shifted_relation(g, 0)
        # conjugates of 1 + sqrt2 are 1 +- sqrt2: (x-1)^2 - 2
        assert n == P(-1, -2, 1)
        assert_norm_by_resultants(g, n)

    def test_shift_search_rejects_until_relation_has_full_degree(self, monkeypatch):
        # x^2 - 2 over Q(sqrt2): z = y + s*sqrt2 has the values
        # (+-1 + s)*sqrt2 and their conjugates, so s = 0 gives x^2 - 2,
        # s = +-1 gives x^3 - 8x, and s = 2 the norm (x^2 - 2)(x^2 - 18)
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        s2 = t.absolute.gen_images[0]
        x = Polynomial.x(ext)
        f = P(-2, 0, 1).map_coefficients(ext.coerce, ext)
        assert shifted_relation(f, 0) == P(-2, 0, 1)
        assert shifted_relation(f, 1) == shifted_relation(f, -1) == P(0, -8, 0, 1)
        norm = shifted_relation(f, 2)
        assert norm == P(36, 0, -20, 0, 1) == P(-2, 0, 1) * P(-18, 0, 1)
        assert_norm_by_resultants(f.compose(x - Polynomial.constant(ext, s2 * 2)), norm)

        seen = []

        def spy(powers, limit, target=None):
            relation, coords = _power_relation(powers, limit, target)
            seen.append(relation)
            return relation, coords

        monkeypatch.setattr(numfield, "_power_relation", spy)
        fac = factor_over_number_field(f)
        assert seen == [P(-2, 0, 1), P(0, -8, 0, 1), P(0, -8, 0, 1), norm]
        assert [g for g, _ in fac.factors] == sorted(
            [x - Polynomial.constant(ext, s2), x + Polynomial.constant(ext, s2)],
            key=lambda g: g.sort_key())

    def test_power_relation_limit(self):
        # three independent vectors of Q^3 and no dependence within the
        # limit; a fourth vector is the dependence, and writes the target
        basis = [((1, 0, 0), Fraction(1)), ((0, 2, 0), Fraction(1, 2)), ((0, 0, 1), Fraction(1))]
        with pytest.raises(ArithmeticError):
            _power_relation(iter(basis), 2)
        relation, coords = _power_relation(
            iter(basis + [((4, 6, 10), Fraction(1, 2))]), 3, (1, 1, 1))
        assert relation == P(-2, -3, -5, 1)
        assert coords == [1, 1, 1]


def _as_power(vec, k=1):
    """A rational vector as (integer vector w, rational scale s), s * w ==
    vec, with w k times the cleared vector."""
    d = lcm(*(x.denominator for x in vec))
    return [k * x.numerator * (d // x.denominator) for x in vec], Fraction(1, k * d)


def _oracle_relation(powers, limit, target=None):
    """``_power_relation`` by ``FractionSpanSolver``: the powers are inserted
    until the first dependence, and a copy of the span writes the target."""
    span = FractionSpanSolver()
    for j, (w, s) in enumerate(powers[:limit + 1]):
        if (x := span.insert_int(w, s)) is not None:
            coords = deepcopy(span).insert(target) if j == limit and target is not None else None
            return Polynomial(QQ, [-c for c in x] + [Fraction(1)]), coords
    raise ArithmeticError


def _outcome(relation, *args):
    try:
        return relation(*args)
    except ArithmeticError:
        return ArithmeticError


class TestPowerRelationMatchesFractionOracle:
    """The relation and each target's coordinates, one target per call,
    equal the Fraction oracle's on seeded power sequences."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 9])
    def test_random_sequences(self, dim):
        rng = random.Random(900 + dim)
        kinds = []
        for trial in range(40):
            limit = max(0, dim - rng.choice((0, 0, 1, 2)))
            # dense vectors are independent with high probability, and one
            # in two trials of them plants a dependence at the limit; the
            # sequences plant zeros, repeats and combinations anywhere
            if trial % 2:
                vecs = [[random_rational(rng) for _ in range(dim)] for _ in range(dim + 1)]
                if trial % 4 == 1:
                    coeffs = [random_rational(rng) for _ in range(limit)]
                    vecs[limit] = [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(dim)]
            else:
                vecs = rational_sequence(rng, dim, dim + 1)
            powers = [_as_power(v, rng.choice((1, 1, 6))) for v in vecs]
            targets = rational_sequence(rng, dim, 3) + [vecs[0], [0] * dim]
            for target in targets:
                got = _outcome(_power_relation, iter(powers), limit, target)
                assert got == _outcome(_oracle_relation, powers, limit, target)
                kinds.append("none" if got is ArithmeticError else "early" if got[0].degree < limit
                             else "outside" if got[1] is None else "full")
        assert {"early", "full"} <= set(kinds)
        if dim > 1:
            assert {"none", "outside"} <= set(kinds)

    def test_scaled_integer_vectors(self):
        # (w, s) and (k*w, s/k) are the same power
        rng = random.Random(7)
        for _ in range(20):
            vecs = rational_sequence(rng, 6, 7)
            powers = [_as_power(v, rng.choice((1, -3, 5))) for v in vecs]
            for target in rational_sequence(rng, 6, 3):
                want = _outcome(_power_relation, (_as_power(v) for v in vecs), 6, target)
                assert _outcome(_power_relation, iter(powers), 6, target) == want
                assert _outcome(_oracle_relation, powers, 6, target) == want

    def test_planted_dependence(self):
        basis = [[Fraction(1, 2), 3, 0, Fraction(-5, 3)],
                 [0, Fraction(2, 7), 1, 4],
                 [Fraction(9), 0, Fraction(-1, 4), 0]]
        coeffs = [Fraction(3, 5), Fraction(-7), Fraction(1, 11)]
        planted = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(4)]
        powers = [_as_power([Fraction(x) for x in v]) for v in basis + [planted]]
        targets = [planted, [0, 0, 0, 0], basis[1], [0, 0, 0, 1]]
        # the last target lies outside the span of the three powers
        for target, want in zip(targets, [coeffs, [0, 0, 0], [0, 1, 0], None]):
            relation, coords = _power_relation(iter(powers), 3, target)
            assert relation == Polynomial(QQ, [-c for c in coeffs] + [Fraction(1)])
            assert coords == want
        assert _power_relation(iter(powers), 3) == (relation, None)

    def test_early_dependence_has_no_coordinates(self):
        # z**2 == z**0 in Q^3: the relation x^2 - 1 before the limit
        powers = [((1, 0, 2), Fraction(1, 3)), ((0, 1, 0), Fraction(1)), ((2, 0, 4), Fraction(1, 6))]
        relation, coords = _power_relation(iter(powers), 3, (1, 1, 1))
        assert relation == P(-1, 0, 1) and coords is None
        assert _oracle_relation(powers, 3, (1, 1, 1)) == (relation, None)


class TestIntegerPowers:
    """Power relations run on integers: no field product, no polynomial
    remainder."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = {"_mul": 0, "__mod__": 0}
        for owner, name in ((ExtensionField, "_mul"), (Polynomial, "__mod__")):
            original = getattr(owner, name)

            def spy(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, spy)
        return calls

    def test_minimal_polynomial(self, spies):
        t = tower_q_sqrt2_sqrt3()
        a = sum(t.absolute.gen_images, t.absolute.ext.one)
        spies.update(_mul=0, __mod__=0)
        # (x - 1)^4 - 10 (x - 1)^2 + 1 for 1 + sqrt2 + sqrt3
        assert minimal_polynomial(a) == P(-8, 16, -4, -4, 1)
        assert spies == {"_mul": 0, "__mod__": 0}

    def test_trager_shift_search(self, spies):
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        f = P(-2, 0, 1).map_coefficients(ext.coerce, ext)
        spies.update(_mul=0, __mod__=0)
        assert numfield._squarefree_norm(f) == (2, P(36, 0, -20, 0, 1))
        assert spies == {"_mul": 0, "__mod__": 0}

    def test_flatten(self, spies):
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        m = P(-3, 0, 1).map_coefficients(ext.coerce, ext)
        spies.update(_mul=0, __mod__=0)
        absolute = numfield._flatten(t.absolute, m, "g2")
        assert spies == {"_mul": 0, "__mod__": 0}
        assert absolute.min_poly == P(1, 0, -10, 0, 1)
        s2, s3 = absolute.gen_images
        assert s2 * s2 == 2 and s3 * s3 == 3

    def test_flatten_linear_stage(self):
        # a root of y - (1 + sqrt2) is already in Q(sqrt2): theta + y = 1 + 2*sqrt2
        t = tower_q_sqrt2()
        ext = t.absolute.ext
        s2 = t.absolute.gen_images[0]
        m = Polynomial(ext, [-(s2 + 1), ext.one])
        absolute = numfield._flatten(t.absolute, m, "r")
        assert absolute.min_poly == P(-7, -2, 1)
        s2_new, r = absolute.gen_images
        assert s2_new * s2_new == 2
        assert r == s2_new + 1


# the sources the benchmark splits, and its radical chains
CORPUS_SOURCES = ["(x^5-2)*(x^2+1)", "x^9-2", "x^7-2", "x^10-2", "x^4+x+1", "(x^3-2)*(x^3-3)",
                  "x^5-2", "x^4-2", "x^5-5*x+12", "x^5+x^4-4*x^3-3*x^2+3*x+1"]
CORPUS_CHAINS = ["sqrt2_then_sqrt_1_plus_r1", "cbrt2_then_cbrt3", "cbrt2_then_sqrt_r1",
                 "sqrt3_then_cbrt_1_plus_r1"]
ROOT = Path(__file__).resolve().parents[1]


def chain_tower(name):
    description = _load_chain_file(ROOT / "bench" / "chains" / f"{name}.json")
    return normalize_chain(realize_chain(description))


class TestTragerAtPlaces:
    """Splitting fields factor over each field of their tower at the places
    of the splitting prime, which carries every embedding of the field."""

    def test_place_norm_is_the_power_relation_norm(self, monkeypatch):
        met = []
        at_places = numfield._norm_at_places

        def spy(f, place):
            met.append((f, place, at_places(f, place)))
            return met[-1][2]

        monkeypatch.setattr(numfield, "_norm_at_places", spy)
        for text in CORPUS_SOURCES:
            splitting_field(parse_poly(text))
        for name in CORPUS_CHAINS:
            chain_tower(name)
        placed = [(f, found) for f, place, found in met if place is not None]
        # the norms of a radical chain's own stages have no place
        assert len(placed) == 25 and len(met) == 29
        for f, found in placed:
            s, norm, k = found
            assert numfield._squarefree_norm(f) == (s, norm)

    @pytest.mark.parametrize("text", ["(x^5-2)*(x^2+1)", "x^10-2"])
    def test_no_norm_by_power_relation(self, monkeypatch, text):
        callers, relation = [], numfield._power_relation

        def spy(powers, limit, target=None):
            callers.append(sys._getframe(1).f_code.co_name)
            return relation(powers, limit, target)

        monkeypatch.setattr(numfield, "_power_relation", spy)
        splitting_field(parse_poly(text))
        assert "_flatten" in callers and "_squarefree_norm" not in callers

    def test_pull_back_takes_no_field_inverse(self, monkeypatch):
        inverse, inverses = ExtElement.inverse, []

        def spy(e):
            frame = sys._getframe(1)
            while frame and frame.f_code.co_name != "_trager_squarefree":
                frame = frame.f_back
            inverses.append(frame is not None)
            return inverse(e)

        monkeypatch.setattr(ExtElement, "inverse", spy)
        with collect_checks() as log:
            verify_nested_normal_radical(chain_tower("cbrt2_then_sqrt_r1"))
        # every pull-back ends in the product check
        assert any(name == "trager.reconstruction" for name, _, _ in log)
        assert not any(inverses)

    def test_pull_back_matches_the_exact_route(self, monkeypatch):
        # x^4-2 over Q(sqrt2), and x^6+3 over Q(sqrt-3) and over the field
        # of x^3-2, split into factors of several degrees; the same
        # factorizations by Euclid over the field
        for base_text, text in (("x^2-2", "x^4-2"), ("x^2+3", "x^6+3"), ("x^3-2", "x^6+3")):
            base = splitting_field(parse_poly(base_text))
            source = parse_poly(text)
            place = modscreen.find(base.tower, [h for h, _ in factor_over_Q(source).factors]
                                   + [base.squarefree_source])
            f = source.map_coefficients(base.field.ext.coerce, base.field.ext)
            found = factor_over_number_field(f, place)
            with monkeypatch.context() as mp:
                mp.setattr(numfield, "MAX_LIFT_BITS", 0)
                assert factor_over_number_field(f, place) == found
            assert len(found.factors) > 1

    def test_one_shift_scan_past_the_cap(self, monkeypatch):
        # past the lift cap the places give no norm for the squarefree
        # x^6+3 over the field of x^3-2, and the scan is not repeated
        base = splitting_field(parse_poly("x^3-2"))
        source = parse_poly("x^6+3")
        place = modscreen.find(base.tower, [h for h, _ in factor_over_Q(source).factors]
                               + [base.squarefree_source])
        f = source.map_coefficients(base.field.ext.coerce, base.field.ext)
        calls, at_places = [], numfield._norm_at_places
        monkeypatch.setattr(numfield, "MAX_LIFT_BITS", 0)
        monkeypatch.setattr(numfield, "_norm_at_places", lambda *a: calls.append(at_places(*a)) or calls[-1])
        assert len(factor_over_number_field(f, place).factors) > 1
        assert calls == [None]


def replayed_adjunctions(tower):
    """(previous absolute field, stage polynomial, new absolute field) for
    each stage of a tower, replayed from Q."""
    t = FieldTower.rationals()
    for name, _, m in tower.stages:
        prev, t = t.absolute, t.adjoin(m, name, verify=False)
        yield prev, m, t.absolute


def replayed_fields(ints):
    """The absolute field after each stage of the splitting tower of the
    polynomial with these coefficients, from Q up."""
    adjunctions = list(replayed_adjunctions(splitting_field(P(*ints)).tower))
    return [adjunctions[0][0]] + [cur for _, _, cur in adjunctions]


def random_elements(ext, rng, count=12):
    return [ext.from_rep([Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 9)))
                          for _ in range(ext.degree)]) for _ in range(count)]


TOWERS = [(1, 1, 0, 0, 1), (-2, 0, 0, 0, 0, 1), (-6, 0, -5, 0, 1)]
TOWER_IDS = ["x^4+x+1", "x^5-2", "(x^2-2)(x^2-3)"]


class TestSubstitution:
    """A lift is the substitution theta_prev -> t: one integer
    matrix-vector product that must agree with Horner at t."""

    @pytest.mark.parametrize("ints", TOWERS, ids=TOWER_IDS)
    def test_lift_from_prev_matches_horner(self, ints):
        fields = replayed_fields(ints)
        assert len(fields) >= 3
        rng = random.Random(len(ints))
        for prev, cur in zip(fields, fields[1:]):
            t = cur.lift_from_prev(prev.theta)
            assert t.field == cur.ext
            assert not prev.min_poly.evaluate(t)
            for e in random_elements(prev.ext, rng):
                assert cur.lift_from_prev(e) == e.rep_poly().evaluate(t)
            assert cur.lift_from_prev(Fraction(-7, 3)) == cur.ext.coerce(Fraction(-7, 3))
            assert cur.lift_from_prev(4) == cur.ext.coerce(4)

    def test_lift_rejects_an_element_of_another_field(self):
        t = tower_q_sqrt2_sqrt3()
        other = FieldTower.rationals()
        other = other.adjoin(P(-5, 0, 1).map_coefficients(other.absolute.ext.coerce,
                                                          other.absolute.ext), "g1")
        sqrt5 = other.absolute.theta
        assert sqrt5 * sqrt5 == 5
        with pytest.raises(FieldMismatchError):
            t.absolute.lift_from_prev(sqrt5)
        # an element of the top field is not one of the previous field either
        with pytest.raises(FieldMismatchError):
            t.absolute.lift_from_prev(t.absolute.theta)

    def test_rational_scale_makes_no_field_product(self, monkeypatch):
        ext = tower_q_sqrt2_sqrt3().absolute.ext
        a = random_elements(ext, random.Random(3), 1)[0]
        want = a * ext.coerce(Fraction(-5, 6))
        calls = []
        original = ExtensionField._mul

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ExtensionField, "_mul", spy)
        assert a * Fraction(-5, 6) == want
        assert Fraction(-5, 6) * a == want
        assert a * 3 == a + a + a
        assert not calls


def tower_with_linear_stage():
    # a root of y - (1 + sqrt2) over Q(sqrt2): d = 1
    t = tower_q_sqrt2()
    ext = t.absolute.ext
    return t.adjoin(Polynomial(ext, [-(t.absolute.gen_images[0] + 1), ext.one]), "r")


class TestAdjunctionLift:
    """Each adjunction reads only theta_old's image off its kernel; its one
    lift map gives the old generators, and y' = (theta_new - theta_old')/c.
    These equal the images that one kernel with every generator as a target
    writes, and theta is the combination of the generators, exactly."""

    TOWERS = {
        "sqrt2_sqrt3": tower_q_sqrt2_sqrt3,
        "linear_stage": tower_with_linear_stage,
        "x^9-2": lambda: splitting_field(parse_poly("x^9-2")).tower,
        "(x^5-2)*(x^2+1)": lambda: splitting_field(parse_poly("(x^5-2)*(x^2+1)")).tower,
        "cbrt2_then_sqrt_r1": lambda: realize_chain(_load_chain_file(
            ROOT / "bench" / "chains" / "cbrt2_then_sqrt_r1.json")).tower,
    }

    @pytest.mark.parametrize("name", TOWERS)
    def test_images_match_the_multi_target_reading(self, name):
        tower, read = self.TOWERS[name](), 0
        for prev, m, cur in replayed_adjunctions(tower):
            combo = zip(cur.gen_images, cur.theta_combo)
            assert sum((g * c for g, c in combo), cur.ext.zero) == cur.theta
            if prev.degree == 1:
                # over Q, theta_new = y and the old generators are rationals
                assert cur.gen_images == tuple(cur.ext.coerce(g.coeffs[0]) for g in prev.gen_images) \
                    + (cur.theta,)
                continue
            ext, c, images = multi_target_flatten(prev, m)
            assert ext == cur.ext and cur.theta_combo == prev.theta_combo + (c,)
            assert list(cur.gen_images) + [cur.lift_from_prev(prev.theta)] == images
            read += 1
        assert read == len(tower.stages) - 1
