import itertools
import random
from fractions import Fraction

import pytest

from galoiskit import DegreeCapError, FieldMismatchError, modscreen
from galoiskit.numfield import FieldTower, minimal_polynomial
from galoiskit.permgroup import _splitting_degree_lower_bound
from galoiskit.poly import Polynomial
from galoiskit.qfactor import factor_mod_p, factor_over_Q
from galoiskit.scalars import PrimeField
from galoiskit.splitting import (
    _HUNT_PAIR_EXPS,
    _HUNT_SINGLE_EXPS,
    _hunt_root,
    splitting_degree,
    splitting_field,
)

from helpers import P, unsieved_find
from test_goldens import GOLDEN, _poly


class TestSplittingDegrees:
    def test_quadratic_radical(self):
        e = splitting_field(P(-2, 0, 1))
        assert e.degree == 2
        assert len(e.roots) == 2
        assert e.roots[0] == -e.roots[1]

    def test_cyclotomic_quadratic(self):
        assert splitting_degree(P(1, 1, 1)) == 2

    def test_already_split(self):
        e = splitting_field(P(2, -3, 1))  # (x-1)(x-2)
        assert e.degree == 1
        assert sorted(r.coeffs[0] for r in e.roots) == [1, 2]

    def test_cubic_radical_degree_six(self):
        # [Q(cbrt2):Q] = 3, then the quadratic cofactor stays irreducible,
        # doubling the degree; the engine asserts the degree formula
        assert splitting_degree(P(-2, 0, 0, 1)) == 6

    def test_cyclic_cubic(self):
        assert splitting_degree(P(-1, -3, 0, 1)) == 3

    def test_eighth_roots_of_unity(self):
        e = splitting_field(P(1, 0, 0, 0, 1))
        assert e.degree == 4
        assert len(e.roots) == 4
        # adjoining one root yields the others as its powers
        z = e.field.gen_images[0]
        assert {z, z ** 3, z ** 5, z ** 7} == set(e.roots)

    def test_quintic_radical_degree_twenty(self):
        assert splitting_degree(P(-2, 0, 0, 0, 0, 1)) == 20

    def test_tenth_root_of_two_degree_forty(self):
        # the Trager norm here has degree 90, 23 factors mod 13 and factors
        # [10, 40, 40] over Z: the knapsack's case rather than a subset search
        assert splitting_degree(P(-2, *[0] * 9, 1)) == 40

    def test_every_root_evaluates_to_zero(self):
        p = P(-2, 0, 0, 1)
        e = splitting_field(p)
        for r in e.roots:
            assert not p.evaluate(r)


class TestNormalization:
    def test_squarefree_invariance(self):
        p = P(-2, 0, 1)
        e1 = splitting_field(p)
        e2 = splitting_field(p * p)
        assert e1.degree == e2.degree
        assert [minimal_polynomial(r) for r in e1.roots] == [
            minimal_polynomial(r) for r in e2.roots
        ]
        assert any("squarefree" in n for n in e2.notes)

    def test_splitting_over_base(self):
        base = splitting_field(P(-2, 0, 1))
        e = splitting_field(P(-3, 0, 1), base=base)
        assert e.degree == 4
        assert len(e.roots) == 4  # +-sqrt2, +-sqrt3
        lifted = e.lift_from_base(base.roots[0])
        assert lifted in e.roots

    def test_split_over_base_already_split(self):
        base = splitting_field(P(-2, 0, 1))
        e = splitting_field(P(-4, 0, 1), base=base)  # x^2 - 4 splits over Q
        assert e.degree == base.degree
        assert len(e.roots) == 4  # +-sqrt2 from the base source, +-2 new

    def test_degree_one_inputs_rejected(self):
        with pytest.raises(ValueError):
            splitting_field(P(5))


class TestDegreeCap:
    def test_cap_honored(self):
        with pytest.raises(DegreeCapError):
            splitting_field(P(-2, 0, 0, 1), degree_cap=3)

    def test_generic_quintic_refused_quickly(self):
        # splitting degree 120 is provably beyond the default cap of 64
        with pytest.raises(DegreeCapError) as err:
            splitting_field(P(-1, -1, 0, 0, 0, 1))
        assert "provably" in str(err.value)

    @pytest.mark.parametrize("label,ints,degree", [g[:3] for g in GOLDEN],
                             ids=[g[0] for g in GOLDEN])
    def test_lower_bound_divides_golden_degree(self, label, ints, degree):
        factors = [h for h, _ in factor_over_Q(_poly(label, ints)).factors]
        assert degree % _splitting_degree_lower_bound(factors) == 0

    @pytest.mark.parametrize("ints, bound", [
        ((1, 1, 0, 0, 0, 0, 1), 720),  # x^6+x+1: S6
        ((-20, 24, 0, 0, 0, 0, 1), 360),  # x^6+24x-20: A6
        ((-1, -1, 0, 0, 0, 0, 0, 1), 5040),  # x^7-x-1: S7
    ])
    def test_certified_groups_refused_at_once(self, ints, bound):
        with pytest.raises(DegreeCapError) as err:
            splitting_field(P(*ints))
        assert err.value.attempted == bound


def _exact_scan(q, roots):
    """The first exact root of q among +-r**e, then +-r**e * s**f, in the
    hunt's candidate order."""
    rs = [r for r in roots if r]
    power = {(i, e): r ** e for i, r in enumerate(rs)
             for e in set(_HUNT_SINGLE_EXPS) | set(_HUNT_PAIR_EXPS)}
    singles = (power[(i, e)] for i in range(len(rs)) for e in _HUNT_SINGLE_EXPS)
    pairs = (power[(i, e)] * power[(j, f)] for i in range(len(rs)) for j in range(len(rs))
             if i != j for e in _HUNT_PAIR_EXPS for f in _HUNT_PAIR_EXPS)
    for c in itertools.chain(singles, pairs):
        for cand in (c, -c):
            if not q.evaluate(cand):
                return cand
    return None


@pytest.fixture(scope="module", params=[(1, 1, 0, 0, 1), (-2, 0, 0, 0, 0, 1)],
                ids=["x^4+x+1", "x^5-2"])
def placed(request):
    return splitting_field(P(*request.param))


class TestPlace:
    @pytest.mark.parametrize("n", [9, 7, 10])
    def test_binomial_sieve_finds_the_unsieved_place(self, n, monkeypatch):
        # x^n - 2 has n distinct roots mod p only if n divides p - 1, so
        # passing over the other primes untested changes no answer
        f = P(-2, *[0] * (n - 1), 1)
        rationals = FieldTower.rationals()
        ext = rationals.absolute.ext
        tower = rationals.adjoin(f.map_coefficients(ext.coerce, ext), "g1", verify=False)
        tests = []
        splits = modscreen._splits
        monkeypatch.setattr(modscreen, "_splits", lambda h, p: tests.append(p) or splits(h, p))
        for t in (rationals, tower):
            sieved = modscreen.find(t, [f])
            tested = len(tests)
            plain = unsieved_find(t, [f])
            assert (sieved.prime, sieved.root, sieved.gens) == (plain.prime, plain.root, plain.gens)
            assert all((p - 1) % n == 0 for p in tests[:tested])
            tests.clear()

    def test_ring_map_on_p_integral_elements(self, placed):
        place, ext = placed.place, placed.field.ext
        p = place.prime
        assert not modscreen.horner(place.images(ext.modulus.coeffs), place.root, p)
        rng = random.Random(ext.degree)

        def draw():
            return ext.from_rep([Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7)))
                                 for _ in range(ext.degree)])

        for _ in range(25):
            a, b = draw(), draw()
            assert place(a + b) == (place(a) + place(b)) % p
            assert place(a * b) == place(a) * place(b) % p
            assert place(a * Fraction(5, 3)) == place(a) * 5 * pow(3, -1, p) % p
        assert place(ext.from_rep([Fraction(1, p)])) is None
        # the place follows the tower: theta's image combines the
        # generator images as theta combines the generators
        field = placed.field
        assert [place(g) for g in field.gen_images] == list(place.gens)
        assert place(field.theta) == place.root

    def test_prime_splits_the_source_completely(self, placed):
        p = placed.place.prime
        source = placed.squarefree_source
        gf = PrimeField(p)
        fac = factor_mod_p(source.map_coefficients(gf.coerce, gf))
        assert [(g.degree, m) for g, m in fac.factors] == [(1, 1)] * source.degree
        assert modscreen._splits(placed.place.images(source.coeffs), p)
        images = [placed.place(r) for r in placed.roots]
        assert len(set(images)) == len(images)
        src = placed.place.images(source.coeffs)
        assert all(not modscreen.horner(src, v, p) for v in images)

    @pytest.mark.parametrize("label, ints", [g[:2] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
    def test_place_carries_every_embedding(self, label, ints):
        # theta's images are the [F:Q] roots of its minimal polynomial mod p,
        # the place's own among them, and each embedding sends the tower
        # generators to roots of the source where its theta image says
        e = splitting_field(_poly(label, ints))
        place, field = e.place, e.field
        p, conjugates = place.prime, place.conjugates
        m, src = place.images(field.min_poly.coeffs), place.images(e.squarefree_source.coeffs)
        assert len(set(conjugates)) == len(conjugates) == e.degree
        assert all(modscreen.horner(m, a, p) == 0 for a in conjugates)
        assert place.root in conjugates
        for a, gens in place.embeddings:
            assert [modscreen.Place(p, a)(g) for g in field.gen_images] == list(gens)
            assert all(modscreen.horner(src, b, p) == 0 for b in gens)

    def test_hunt_returns_the_exact_scans_root(self, placed):
        ext = placed.field.ext
        r = placed.roots
        x = Polynomial.x(ext)

        def linear(c):
            return x - Polynomial.constant(ext, c)

        queries = [
            linear(r[1] ** 2 * r[2] ** -1) * linear(r[3] ** -3),  # a single comes first
            linear(-r[1] * r[2] ** 2) * linear(ext.coerce(5)),  # a pair
            x * x - Polynomial.constant(ext, 3 * r[0] ** 2 + 1),  # no monomial root
        ]
        def hunted(q, place):
            # the root, checked against the quotient that comes with it
            hit = _hunt_root(q, list(r), place, placed.squarefree_source)
            if hit is None:
                return None
            root, quotient = hit
            assert quotient * linear(root) == q
            return root

        for q in queries:
            want = _exact_scan(q, r)
            assert hunted(q, placed.place) == want
            if want is not None:  # the full scan without a place is the slow case
                assert hunted(q, None) == want
        assert want is None


@pytest.fixture(scope="module", params=[((-2, 0, 1), (-3, 0, 1)), ((-229, 0, 1), (1, 1, 0, 0, 1)),
                                        ((-5, 0, 1), (-2, 0, 0, 0, 0, 1))],
                ids=["x^2-3 over x^2-2", "x^4+x+1 over x^2-229", "x^5-2 over x^2-5"])
def over_base(request):
    base_ints, ints = request.param
    base = splitting_field(P(*base_ints))
    return base, splitting_field(P(*ints), base=base)


class TestLiftFromBase:
    """The lift from the base is one substitution theta_base -> t, composed
    of every adjunction's lift: it agrees with Horner at t."""

    def test_matches_horner(self, over_base):
        base, e = over_base
        assert len(e.tower.stages) > len(base.tower.stages)
        t = e.lift_from_base(base.field.theta)
        assert t.field == e.field.ext
        assert not base.field.min_poly.evaluate(t)
        rng = random.Random(e.degree)
        ext = base.field.ext
        for _ in range(12):
            a = ext.from_rep([Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 9)))
                              for _ in range(ext.degree)])
            assert e.lift_from_base(a) == a.rep_poly().evaluate(t)
        assert e.lift_from_base(Fraction(2, 7)) == e.field.ext.coerce(Fraction(2, 7))

    def test_base_roots_lift_to_roots(self, over_base):
        base, e = over_base
        lifted = [e.lift_from_base(r) for r in base.roots]
        assert len(set(lifted)) == len(lifted)
        assert set(lifted) <= set(e.roots)
        assert all(not base.squarefree_source.evaluate(r) for r in lifted)

    def test_rejects_an_element_of_another_field(self, over_base):
        _, e = over_base
        with pytest.raises(FieldMismatchError):
            e.lift_from_base(e.field.theta)
