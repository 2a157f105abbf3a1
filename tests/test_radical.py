import random
from fractions import Fraction

import pytest

from galoiskit import ChainFormatError, DegreeCapError, permgroup, splitting
from galoiskit.galois import galois_group
from galoiskit.numfield import minimal_polynomial
from galoiskit.radical import (
    abelian_layer_embeddings,
    associated_group_chain,
    necessary_condition_verdict,
    normalize_chain,
    quintic_group_witness,
    realize_chain,
    verify_nested_normal_radical,
)
from galoiskit.splitting import splitting_field
from galoiskit.numfield import factor_over_number_field

from helpers import P


@pytest.fixture(scope="module")
def chain_sqrt2():
    return realize_chain([(2, 2)])


@pytest.fixture(scope="module")
def tower_sqrt2(chain_sqrt2):
    return normalize_chain(chain_sqrt2)


@pytest.fixture(scope="module")
def chain_nested():
    return realize_chain([(2, 2), (2, "1 + r1")])


@pytest.fixture(scope="module")
def tower_nested(chain_nested):
    return normalize_chain(chain_nested)


@pytest.fixture(scope="module")
def tower_cubic():
    return normalize_chain(realize_chain([(3, 2)]))


class TestRealizeChain:
    def test_sqrt2(self, chain_sqrt2):
        assert chain_sqrt2.degree == 2
        a = chain_sqrt2.stages[0].generator
        assert a * a == 2

    def test_nested_radical(self, chain_nested):
        assert chain_nested.degree == 4
        a1, a2 = (s.generator for s in chain_nested.stages)
        assert a1 * a1 == 2
        assert a2 * a2 == 1 + a1

    def test_degenerate_square_stage(self):
        ch = realize_chain([(2, 4)])
        assert ch.degree == 1
        assert ch.stages[0].generator == 2
        assert ch.stages[0].degree == 1

    def test_stage_one_allows_rational_radicand_expression(self):
        ch = realize_chain([(2, "1 + 1")])
        assert ch.degree == 2

    def test_zero_radicand_rejected(self):
        with pytest.raises(ChainFormatError):
            realize_chain([(2, 0)])

    def test_small_characteristic_degree_rejected(self):
        with pytest.raises(ChainFormatError):
            realize_chain([(1, 2)])

    def test_empty_chain_rejected(self):
        with pytest.raises(ChainFormatError):
            realize_chain([])

    def test_unknown_radical_name_rejected(self):
        from galoiskit.errors import ParseError

        with pytest.raises(ParseError):
            realize_chain([(2, "1 + r7")])


class TestNormalizeChain:
    def test_sqrt2_tower(self, tower_sqrt2):
        # N = 2; x^2 - 1 splits over Q so E_1 = Q; E_2 = Q(sqrt2)
        assert tower_sqrt2.lcm_degree == 2
        assert [lv.degree for lv in tower_sqrt2.levels] == [1, 2]
        s = tower_sqrt2.stages[0]
        assert len(s.orbit) == 1
        assert s.orbit_poly == P(-2, 1)
        assert s.kummer_poly == P(-2, 0, 1)

    def test_nested_tower_reaches_degree_eight(self, tower_nested):
        assert tower_nested.lcm_degree == 2
        assert [lv.degree for lv in tower_nested.levels] == [1, 2, 8]
        s2 = tower_nested.stages[1]
        # orbit of 1 + sqrt2 is {1 + sqrt2, 1 - sqrt2}; the layer polynomial
        # is (x^2 - (1+sqrt2))(x^2 - (1-sqrt2)) = x^4 - 2 x^2 - 1
        assert len(s2.orbit) == 2
        assert s2.orbit_poly == P(-1, -2, 1)
        assert s2.kummer_poly == P(-1, 0, -2, 0, 1)
        fresh = splitting_field(P(-1, 0, -2, 0, 1))
        assert fresh.degree == 8

    def test_cubic_radical_tower(self, tower_cubic):
        assert tower_cubic.lcm_degree == 3
        assert [lv.degree for lv in tower_cubic.levels] == [2, 6]
        assert splitting_field(P(-2, 0, 0, 1)).degree == 6

    def test_chain_embeddings_exhibited(self, tower_nested):
        # images of a_1, a_2 exist in each level and satisfy the relations
        s1, s2 = tower_nested.stages
        a1 = s1.a_images[0]
        assert a1 * a1 == 2
        b1, b2 = s2.a_images
        assert b1 * b1 == 2
        assert b2 * b2 == 1 + b1

    def test_every_level_splits_a_rational_polynomial(self, tower_nested):
        for idx, level in enumerate(tower_nested.levels):
            poly = tower_nested.defining_polynomial(idx)
            from galoiskit.poly import poly_squarefree_part

            sq = poly_squarefree_part(poly)
            distinct = {r for r in level.roots if not sq.evaluate(r)}
            assert len(distinct) == sq.degree


class TestVerifyTower:
    def test_constructed_towers_pass(self, tower_sqrt2, tower_nested, tower_cubic):
        for t in (tower_sqrt2, tower_nested, tower_cubic):
            report = verify_nested_normal_radical(t)
            assert report.all_passed, report.to_dict()

    def test_planted_violation_reported(self, tower_nested):
        # hand-built tower with k not dividing N: condition 3 must fail,
        # reported rather than raised
        bad = tower_nested.replace(lcm_degree=3)
        report = verify_nested_normal_radical(bad)
        assert not report.all_passed
        failing = [c.name for c in report.conditions if not c.passed]
        assert any("kummer" in name or "cyclotomic" in name for name in failing)


class TestAssociatedChain:
    def test_sqrt2_chain(self, tower_sqrt2):
        groups = associated_group_chain(tower_sqrt2)
        assert [g.order for g in groups] == [2, 2, 1]

    def test_cubic_chain_is_s3_a3_1(self, tower_cubic):
        groups = associated_group_chain(tower_cubic)
        assert [g.order for g in groups] == [6, 3, 1]
        # quotients are abelian: C2 then C3
        from galoiskit.permgroup import solvable_via_abelian_chain

        cert = solvable_via_abelian_chain(groups[1:] if groups[0] == groups[1] else groups)
        assert cert.accepted

    def test_nested_chain(self, tower_nested):
        groups = associated_group_chain(tower_nested)
        assert [g.order for g in groups] == [8, 8, 4, 1]
        from galoiskit.permgroup import solvable_via_abelian_chain

        assert solvable_via_abelian_chain(groups).accepted

    def test_layers_embed_and_are_abelian(self, tower_nested, tower_cubic):
        for t in (tower_nested, tower_cubic):
            layers = abelian_layer_embeddings(t)
            for label, order, target, emb in layers:
                assert emb is not None, (label, order, target)

    def test_polynomials_splitting_inside_chain_have_solvable_groups(self, chain_nested):
        # end to end: a rational polynomial whose roots all lie in R_n is
        # solvable by radicals by construction, so its group must be solvable
        ext = chain_nested.tower.absolute.ext
        a1 = chain_nested.stages[0].generator
        for elt in (a1, 1 + a1, a1 * Fraction(3, 2)):
            q = minimal_polynomial(elt)
            fac = factor_over_number_field(q.map_coefficients(ext.coerce, ext))
            if not all(g.degree == 1 for g, _ in fac.factors):
                continue  # some conjugate escapes R_n; the guarantee is void
            e = splitting_field(q)
            from galoiskit.permgroup import is_solvable

            ok, _ = is_solvable(galois_group(e).perm_group())
            assert ok


class TestQuinticWitness:
    def test_s5_certified_with_exact_mod2_factors(self):
        p = P(-1, -1, 0, 0, 0, 1)
        ev = quintic_group_witness(p)
        assert ev.conclusion == "NOT_SOLVABLE"
        assert ev.certified_group == "S5"
        assert ev.samples[0] == (2, (2, 3))
        # reproduce the mod-2 factorization bit-exactly
        from galoiskit.qfactor import factor_mod_p
        from galoiskit.scalars import PrimeField
        from helpers import PF

        gf2 = PrimeField(2)
        fac = factor_mod_p(PF(gf2, -1, -1, 0, 0, 0, 1))
        got = sorted(tuple(c.value for c in g.coeffs) for g, _ in fac.factors)
        # ascending coefficients: x^3+x^2+1 is (1,0,1,1), x^2+x+1 is (1,1,1)
        assert got == [(1, 0, 1, 1), (1, 1, 1)]

    def test_f20_compatible_inconclusive(self):
        ev = quintic_group_witness(P(-2, 0, 0, 0, 0, 1))
        assert ev.conclusion == "INCONCLUSIVE"
        assert ev.certified_group is None
        for _, ctype in ev.samples:
            # cycle types available in F20: identity, 4-cycles, double
            # transpositions, 5-cycles (ascending degree lists)
            assert ctype in ((1, 1, 1, 1, 1), (1, 4), (1, 2, 2), (5,))

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            quintic_group_witness(P(-4, 0, 1) * P(-1, 0, 0, 1))

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            quintic_group_witness(P(-2, 0, 1))


class TestVerdicts:
    def test_x5_minus_2_solvable(self):
        v = necessary_condition_verdict(P(-2, 0, 0, 0, 0, 1))
        assert v.verdict == "SOLVABLE_GROUP"
        assert v.group_order == 20
        assert v.derived_series_orders == (20, 5, 1)
        assert v.certificate is not None and v.certificate.accepted
        assert "necessary" in v.note

    def test_quintic_cycle_types_scanned_once(self, monkeypatch):
        # the quintic witness and the splitting-degree bound share one scan
        primes = []
        scan = permgroup.factor_degrees_mod_p

        def counting(h, prime):
            primes.append(prime)
            return scan(h, prime)

        monkeypatch.setattr(permgroup, "factor_degrees_mod_p", counting)
        permgroup._scan_cycle_types.cache_clear()
        assert necessary_condition_verdict(P(-2, 0, 0, 0, 0, 1)).verdict == "SOLVABLE_GROUP"
        assert len(primes) == 25

    def test_x5_minus_x_minus_1_not_solvable(self):
        v = necessary_condition_verdict(P(-1, -1, 0, 0, 0, 1))
        assert v.verdict == "NOT_SOLVABLE_BY_RADICALS"
        assert v.derived_series_orders == (120, 60, 60)
        assert v.quintic_evidence is not None
        assert v.quintic_evidence.certified_group == "S5"

    def test_small_solvable(self):
        v = necessary_condition_verdict(P(-2, 0, 1))
        assert v.verdict == "SOLVABLE_GROUP"
        assert v.derived_series_orders == (2, 1)

    def test_degree_cap_propagates(self):
        # x^6-2 (group D6, order 12) has no cycle-type certificate, so the
        # verdict must build its splitting field and refuse at the cap
        with pytest.raises(DegreeCapError):
            necessary_condition_verdict(P(-2, 0, 0, 0, 0, 0, 1), degree_cap=10)

    def test_sextic_certified_without_building_a_field(self, monkeypatch):
        # x^6+x+1 has group S6 (order 720): the cycle-type certificate
        # decides it even under a cap of 20, and no field is built
        def no_field(*args, **kwargs):
            raise AssertionError("splitting field built")

        monkeypatch.setattr(splitting, "splitting_field", no_field)
        v = necessary_condition_verdict(P(1, 1, 0, 0, 0, 0, 1), degree_cap=20)
        assert v.verdict == "NOT_SOLVABLE_BY_RADICALS"
        assert v.group_order == 720
        assert v.derived_series_orders == (720, 360, 360)
        assert v.quintic_evidence is None
        ev = v.cycle_type_evidence
        assert ev.certified_group == "S6"
        assert (7, (1, 5)) in ev.samples and (3, (1, 2, 3)) in ev.samples
        assert "mod 7" in ev.detail and "mod 3" in ev.detail
        assert v.to_dict()["cycle_type_witness"] == ev.to_dict()

    def test_a_n_certificate_has_no_group_order(self):
        # x^6+24x-20 has group A6: primitive by (1,5), a single 3-cycle from
        # a (1,1,1,3) type, and never a transposition
        v = necessary_condition_verdict(P(-20, 24, 0, 0, 0, 0, 1))
        assert v.verdict == "NOT_SOLVABLE_BY_RADICALS"
        assert v.group_order is None
        assert v.derived_series_orders == (360, 360)
        assert v.cycle_type_evidence.certified_group == "A6"

    def test_reports_without_certificate_lack_the_key(self):
        for poly in (P(-2, 0, 0, 0, 0, 0, 1), P(-1, -1, 0, 0, 0, 1)):
            assert "cycle_type_witness" not in necessary_condition_verdict(poly).to_dict()

    @pytest.mark.parametrize("factors, certified, key", [
        ((P(-1, -1, 0, 0, 0, 1), P(-2, 1)), "S5", "quintic_witness"),
        ((P(1, 1, 0, 0, 0, 0, 1), P(1, 0, 1)), "S6", "cycle_type_witness"),
        # x^8+x+1 = (x^2+x+1)(x^6-x^5+x^3-x^2+1)
        ((P(1, 1, 1), P(1, 0, -1, 1, 0, -1, 1)), "S6", "cycle_type_witness"),
    ])
    def test_reducible_input_certified_by_a_factor(self, monkeypatch, factors, certified, key):
        # the group of each factor's splitting field is a quotient of the
        # whole group, so a certified factor decides without building a field
        def no_field(*args, **kwargs):
            raise AssertionError("splitting field built")

        monkeypatch.setattr(splitting, "splitting_field", no_field)
        p = factors[0] * factors[1]
        v = necessary_condition_verdict(p)
        assert v.verdict == "NOT_SOLVABLE_BY_RADICALS"
        assert v.group_order is None
        assert v.derived_series_orders == ()
        d = v.to_dict()
        assert d[key]["certified_group"] == certified
        assert d["quintic_witness"] is None or key == "quintic_witness"
        assert "cycle_type_witness" not in d or key == "cycle_type_witness"
        assert "quotient of the whole group" in v.note

    def test_reducible_quintic_factor_reports_no_quintic_witness(self):
        # x^5-2 (group F20) is inconclusive; the verdict builds the field
        v = necessary_condition_verdict(P(-2, 0, 0, 0, 0, 1) * P(-3, 1))
        assert v.verdict == "SOLVABLE_GROUP"
        assert v.group_order == 20
        assert v.quintic_evidence is None

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            necessary_condition_verdict(P(3))


def _samples(text):
    # "2:23 7:113" -> [(2, (2, 3)), (7, (1, 1, 3))]
    return [(int(p), tuple(map(int, t))) for p, t in (s.split(":") for s in text.split())]


_A5_SAMPLES = ("3:5 7:113 11:113 13:5 17:113 19:5 23:122 29:113 31:5 37:122 41:113 "
               "43:113 47:5 53:5 59:5 61:5 67:5 71:113 73:5 79:113 83:122 89:122 97:5")
_F20_SAMPLES = ("3:14 7:14 11:5 13:14 17:14 19:122 23:14 29:122 31:5 37:14 41:5 43:14 "
                "47:14 53:14 59:122 61:5 67:14 71:5 73:14 79:122 83:14 89:122 97:14")
_A6_SAMPLES = ("7:15 11:15 13:15 17:15 19:15 23:1113 29:24 31:15 37:1122 41:24 43:15 "
               "47:15 53:15 59:1113 61:24 67:24 71:1122 73:1122 79:1122 83:15 89:1122 97:15")


@pytest.mark.parametrize("text, primes, samples, group, detail", [
    ("x^5-x-1", None, "2:23", "S5", "cycle type (2, 3) mod 2 occurs only in S5"),
    ("x^5+20*x+16", None, _A5_SAMPLES, "A5",
     "a 3-cycle restricts the group to A5 or S5; both are non-solvable"),
    ("x^5-2", None, _F20_SAMPLES, None,
     "all observed cycle types fit the solvable transitive subgroups of S5"),
    ("x^5-2", (2, 5), "", None, "no usable prime in the configured list"),
    ("x^6+x+1", None, "2:6 3:123 5:33 7:15", "S6",
     "type (1, 5) mod 7 makes the group 2-transitive, hence primitive; "
     "type (1, 2, 3) mod 3 to the power 3 is a transposition; "
     "a primitive group with a transposition is S6 (Jordan)"),
    ("x^6+24*x-20", None, _A6_SAMPLES, "A6",
     "type (1, 5) mod 7 makes the group 2-transitive, hence primitive; "
     "type (1, 1, 1, 3) mod 23 to the power 1 is a 3-cycle; "
     "a primitive group with a 3-cycle contains A6 (Jordan); A6 and S6 are both non-solvable"),
    ("x^7-x-1", None, "2:7 3:25", "S7",
     "degree 7 is prime, so the transitive group is primitive; "
     "type (2, 5) mod 3 to the power 5 is a transposition; "
     "a primitive group with a transposition is S7 (Jordan)"),
])
def test_witness_wording(text, primes, samples, group, detail):
    # the reported evidence word for word, under quintic_witness at degree 5
    # and under cycle_type_witness above it
    from galoiskit.parsing import parse_poly

    v = necessary_condition_verdict(parse_poly(text), primes=primes)
    ev = v.quintic_evidence or v.cycle_type_evidence
    assert ev.to_dict() == {
        "samples": [{"prime": p, "factor_degrees": list(t)} for p, t in _samples(samples)],
        "certified_group": group,
        "conclusion": "INCONCLUSIVE" if group is None else "NOT_SOLVABLE",
        "detail": detail,
    }


# sextics with their groups, as named by sympy (S6TransitiveSubgroups)
SEXTICS = [
    ((1, 1, 0, 0, 0, 0, 1), "S6"),
    ((-1, -1, 0, 0, 0, 0, 1), "S6"),
    ((5, -3, 0, 2, 0, 0, 1), "S6"),
    ((-20, 24, 0, 0, 0, 0, 1), "A6"),
    ((-2, 0, 0, 0, 0, 0, 1), "D6"),
    ((3, 0, 0, 3, 0, 0, 1), "G18"),
    ((-1, 0, -3, 0, 0, 0, 1), "A4"),
    ((1, 1, 1, 1, 1, 1, 1), "C6"),
]


def _random_irreducible(rng, degree):
    from galoiskit.qfactor import is_irreducible_over_Q

    while True:
        ints = tuple(rng.randint(-5, 5) for _ in range(degree)) + (1,)
        if is_irreducible_over_Q(P(*ints)):
            return ints


def _random_sextics(count, seed=6):
    rng = random.Random(seed)
    return [_random_irreducible(rng, 6) for _ in range(count)]


class TestCycleTypeWitnessAgainstSympy:
    """The certificate never claims more than sympy's group, and finds
    S6 and A6 on these inputs."""

    @pytest.mark.parametrize("ints, name", SEXTICS, ids=[n for _, n in SEXTICS])
    def test_known_sextics(self, ints, name):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.numberfields.galoisgroups import galois_group

        x = sympy.Symbol("x")
        group, _ = galois_group(sympy.Poly(list(reversed(ints)), x), by_name=True)
        assert group.name == name
        self._agree(ints, name)

    def test_random_sextics(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.numberfields.galoisgroups import galois_group

        x = sympy.Symbol("x")
        for ints in _random_sextics(12):
            group, _ = galois_group(sympy.Poly(list(reversed(ints)), x), by_name=True)
            self._agree(ints, group.name)

    @staticmethod
    def _agree(ints, name):
        # under a cap of 1 any verdict that builds a field is refused, so a
        # returned verdict came from the certificate alone
        try:
            v = necessary_condition_verdict(P(*ints), degree_cap=1)
        except DegreeCapError:
            assert name not in ("S6", "A6"), ints
            return
        assert v.verdict == "NOT_SOLVABLE_BY_RADICALS"
        assert v.cycle_type_evidence.certified_group == name, ints


# quintics with their groups, as named by sympy (S5TransitiveSubgroups)
QUINTICS = [
    ((-1, -1, 0, 0, 0, 1), "S5"),
    ((16, 20, 0, 0, 0, 1), "A5"),
    ((-2, 0, 0, 0, 0, 1), "M20"),
    ((12, -5, 0, 0, 0, 1), "D5"),
    ((1, 3, -3, -4, 1, 1), "C5"),
]


class TestReducibleVerdictAgainstSympy:
    """A certificate from one factor of a product fires only when sympy
    names that factor's group S_n or A_n, and a refusal comes only when it
    names neither."""

    SMALL = (P(-2, 1), P(1, 0, 1), P(-1, -1, 1), P(-2, 0, 0, 1))

    def test_products_with_a_small_factor(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.numberfields.galoisgroups import galois_group

        x = sympy.Symbol("x")
        rng = random.Random(8)
        factors = QUINTICS + SEXTICS
        factors += [(_random_irreducible(rng, n), None) for n in (5, 5, 6, 6)]
        for ints, known in factors:
            n = len(ints) - 1
            small = rng.choice(self.SMALL)
            name = galois_group(sympy.Poly(list(reversed(ints)), x), by_name=True)[0].name
            assert known in (None, name)
            # under a cap of 1 any verdict that builds a field is refused
            try:
                v = necessary_condition_verdict(P(*ints) * small, degree_cap=1)
            except DegreeCapError:
                assert name not in (f"S{n}", f"A{n}"), ints
                continue
            ev = v.quintic_evidence if n == 5 else v.cycle_type_evidence
            assert v.verdict == "NOT_SOLVABLE_BY_RADICALS"
            assert v.group_order is None
            assert ev.certified_group == name, ints
