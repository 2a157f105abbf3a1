import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from galoiskit import QQ, FieldMismatchError, SoundnessError, modscreen
from galoiskit import galois as galois_module
from galoiskit import numfield, permgroup
from galoiskit.checks import collect_checks
from galoiskit.cli import EXIT_OK, EXIT_SOUNDNESS, main
from galoiskit.galois import (
    Automorphism,
    GaloisGroup,
    fixed_field,
    galois_group,
    intermediate_field,
    orbit,
    orbit_min_poly,
    restriction_homomorphism,
    subgroup_fixing,
)
from galoiskit.linalg import nullspace
from galoiskit.numfield import ExtensionField, minimal_polynomial
from galoiskit.parsing import evaluate_in_field
from galoiskit.permgroup import PermGroup, all_subgroups, closure
from galoiskit.poly import Polynomial, _clear_denominators
from galoiskit.qfactor import factor_degrees_mod_p, factor_mod_p, is_irreducible_over_Q
from galoiskit.scalars import PrimeField
from galoiskit.splitting import splitting_field

from helpers import (P, every_image_orbit, exact_stabilizer, exhaustive_galois_group,
                     left_coset_representatives, orbit_poly, rref_nullspace)
from test_goldens import GOLDEN, _poly


@pytest.fixture(scope="module")
def e_sqrt2():
    return splitting_field(P(-2, 0, 1))


@pytest.fixture(scope="module")
def g_sqrt2(e_sqrt2):
    return galois_group(e_sqrt2)


@pytest.fixture(scope="module")
def e_cubic():
    return splitting_field(P(-2, 0, 0, 1))


@pytest.fixture(scope="module")
def g_cubic(e_cubic):
    return galois_group(e_cubic)


@pytest.fixture(scope="module")
def e_octic():
    return splitting_field(P(1, 0, 0, 0, 1))


@pytest.fixture(scope="module")
def g_octic(e_octic):
    return galois_group(e_octic)


def _listing(G):
    return [(a.theta_image, a.root_permutation) for a in G.automorphisms], G.identity_index


DIFFERENTIAL = [(label, _poly(label, ints)) for label, ints, *_ in GOLDEN] + [
    ("x^8+1", P(1, 0, 0, 0, 0, 0, 0, 0, 1)),
    ("(x^2-2)(x^2-3)(x^2-5)", P(-2, 0, 1) * P(-3, 0, 1) * P(-5, 0, 1)),
    ("3x^3-2", P(-2, 0, 0, 3)),
    ("x^3-2/27", Polynomial(QQ, [Fraction(-2, 27), 0, 0, 1])),
]


class TestGaloisGroup:
    def test_order_two_with_conjugation(self, e_sqrt2, g_sqrt2):
        assert g_sqrt2.order == 2 == e_sqrt2.degree
        s2 = e_sqrt2.roots[1]
        other = next(a for a in g_sqrt2.automorphisms if not a.root_permutation.is_identity)
        assert other.apply(s2) == -s2
        assert other.apply(3 + s2 * 2) == 3 - s2 * 2

    def test_s3_fully_realized(self, e_cubic, g_cubic):
        assert g_cubic.order == 6 == e_cubic.degree
        perms = {a.root_permutation.images for a in g_cubic.automorphisms}
        assert perms == set(itertools.permutations(range(3)))

    def test_klein_four(self, g_octic):
        assert g_octic.order == 4
        # composition table: every non-identity element squares to identity
        for i in range(4):
            j = g_octic.compose(i, i)
            assert j == g_octic.identity_index
        for i in range(4):
            for j in range(4):
                assert g_octic.compose(i, j) == g_octic.compose(j, i)

    def test_trivial_group_on_split_input(self):
        e = splitting_field(P(-1, 0, 1))
        g = galois_group(e)
        assert g.order == 1

    def test_homomorphism_property_on_elements(self, e_cubic, g_cubic):
        rng = random.Random(1)
        ext = e_cubic.field.ext
        for _ in range(5):
            a = ext.from_rep([Fraction(rng.randint(-2, 2)) for _ in range(6)])
            b = ext.from_rep([Fraction(rng.randint(-2, 2)) for _ in range(6)])
            for i in (0, 1, len(g_cubic.automorphisms) - 1):
                g = g_cubic.automorphisms[i]
                assert g.apply(a * b) == g.apply(a) * g.apply(b)
                assert g.apply(a + b) == g.apply(a) + g.apply(b)

    def test_rationals_fixed(self, g_cubic):
        ext = g_cubic.field.ext
        for q in (Fraction(2), Fraction(-7, 3), Fraction(0)):
            for a in g_cubic.automorphisms:
                assert a.apply(q) == ext.coerce(q)

    def test_identity_applies_identically(self, e_cubic, g_cubic):
        ident = g_cubic.automorphisms[g_cubic.identity_index]
        for r in e_cubic.roots:
            assert ident.apply(r) == r

    def test_composition_matches_permutations(self, g_cubic):
        for i in range(g_cubic.order):
            for j in range(g_cubic.order):
                k = g_cubic.compose(i, j)
                gi, gj = g_cubic.automorphisms[i], g_cubic.automorphisms[j]
                composed_theta = gi.apply(gj.theta_image)
                assert composed_theta == g_cubic.automorphisms[k].theta_image


class TestThetaImageEnumeration:
    @pytest.mark.parametrize("ints", [(-2, 0, 1), (1, 1, 1), (1, 0, 0, 0, 1), (-2, 0, 0, 1)])
    def test_matches_factoring_minpoly_over_the_field(self, ints):
        # the slow route: factor min_poly(theta) over E itself; every linear
        # factor root is a theta-image.  The enumerated group must agree.
        from galoiskit.numfield import element_sort_key, factor_over_number_field

        e = splitting_field(P(*ints))
        g = galois_group(e)
        ext = e.field.ext
        mp = e.field.min_poly.map_coefficients(ext.coerce, ext)
        fac = factor_over_number_field(mp)
        assert all(h.degree == 1 for h, _ in fac.factors)  # E is normal
        roots_of_minpoly = sorted((-h.coeff(0) for h, _ in fac.factors), key=element_sort_key)
        enumerated = sorted((a.theta_image for a in g.automorphisms), key=element_sort_key)
        assert roots_of_minpoly == enumerated


class TestOrbits:
    def test_rational_orbit_is_singleton(self, g_cubic):
        assert len(orbit(g_cubic, Fraction(5))) == 1

    def test_sqrt2_orbit(self, e_sqrt2, g_sqrt2):
        s2 = e_sqrt2.roots[1]
        assert set(orbit(g_sqrt2, s2)) == {s2, -s2}

    def test_cbrt2_orbit_is_root_set(self, e_cubic, g_cubic):
        r = e_cubic.field.gen_images[0]
        assert set(orbit(g_cubic, r)) == set(e_cubic.roots)

    def test_orbit_min_poly_examples(self, e_sqrt2, g_sqrt2):
        s2 = e_sqrt2.roots[1]
        assert orbit_min_poly(g_sqrt2, s2) == P(-2, 0, 1)
        assert orbit_min_poly(g_sqrt2, Fraction(5)) == P(-5, 1)

    def test_sqrt2_plus_sqrt3(self):
        e = splitting_field(P(-2, 0, 1) * P(-3, 0, 1))
        g = galois_group(e)
        s2 = next(r for r in e.roots if r * r == 2 and r.sort_key() > (-r).sort_key())
        s3 = next(r for r in e.roots if r * r == 3)
        q = orbit_min_poly(g, s2 + s3)
        assert q == P(1, 0, -10, 0, 1)
        assert len(orbit(g, s2 + s3)) == 4

    def test_orbit_poly_equals_minimal_polynomial(self, e_cubic, g_cubic):
        rng = random.Random(9)
        ext = e_cubic.field.ext
        for _ in range(8):
            a = ext.from_rep([Fraction(rng.randint(-3, 3)) for _ in range(6)])
            q = orbit_min_poly(g_cubic, a)
            assert q == minimal_polynomial(a)
            assert q.lc == 1
            assert is_irreducible_over_Q(q)
            assert len(orbit(g_cubic, a)) == q.degree
            assert g_cubic.order % q.degree == 0


class TestCorrespondence:
    def test_full_group_fixes_only_rationals(self, g_cubic):
        b = fixed_field(g_cubic, range(g_cubic.order))
        assert b.degree == 1

    def test_trivial_subgroup_fixes_everything(self, g_cubic):
        b = fixed_field(g_cubic, [g_cubic.identity_index])
        assert b.degree == 6

    def test_octic_order_two_subgroup_gives_sqrt2(self, e_octic, g_octic):
        # zeta8 + zeta8^-1 squares to 2; its stabilizer has order 2 and the
        # fixed field is Q(sqrt2)
        z = e_octic.field.gen_images[0]
        elt = z + z.inverse()
        assert elt * elt == 2
        stab = tuple(
            i for i in range(g_octic.order) if g_octic.apply(i, elt) == elt
        )
        assert len(stab) == 2
        b = fixed_field(g_octic, stab)
        assert b.degree == 2
        assert b.contains(elt)
        # the primitive element generates Q(sqrt2): its square is rational
        mp = b.min_poly
        assert mp.degree == 2 and mp.coeff(1) == 0

    def test_contains_rejects_elements_outside(self, e_cubic, g_cubic):
        # omega = r2/r1 is a cube root of unity, so 2*omega + 1 = sqrt(-3);
        # its stabilizer is A3 and the fixed field Q(sqrt(-3)) holds no
        # cube root of 2
        r1, r2, _ = e_cubic.roots
        s = 2 * r2 / r1 + 1
        assert s * s == -3
        stab = [i for i in range(g_cubic.order) if g_cubic.apply(i, s) == s]
        assert len(stab) == 3
        b = fixed_field(g_cubic, stab)
        assert b.degree == 2
        assert b.contains(s) and b.contains(s * s + Fraction(1, 2))
        for r in e_cubic.roots:
            assert not b.contains(r)
            assert not b.contains(r + s)

    def test_non_subgroup_rejected(self, g_cubic):
        non_identity = [i for i in range(6) if i != g_cubic.identity_index]
        with pytest.raises(ValueError):
            fixed_field(g_cubic, non_identity[:1] if g_cubic.identity_index in non_identity[:1] else [non_identity[0]])

    def test_out_of_range_indices_are_not_a_subgroup(self, g_cubic):
        # -1 would wrap to the last automorphism, an involution here
        ident = g_cubic.identity_index
        for idx in ((ident, -1), (ident, g_cubic.order)):
            assert not g_cubic.is_subgroup(idx)
            with pytest.raises(ValueError):
                fixed_field(g_cubic, idx)

    def test_subgroup_fixing_bounds(self, e_cubic, g_cubic):
        b_q = fixed_field(g_cubic, range(g_cubic.order))
        assert len(subgroup_fixing(g_cubic, b_q)) == g_cubic.order
        b_e = fixed_field(g_cubic, [g_cubic.identity_index])
        assert subgroup_fixing(g_cubic, b_e) == (g_cubic.identity_index,)

    def test_real_cubic_subfield_stabilizer(self, e_cubic, g_cubic):
        r = e_cubic.field.gen_images[0]
        b = intermediate_field(g_cubic, [r])
        assert b.degree == 3
        idx = subgroup_fixing(g_cubic, b)
        assert len(idx) == 2

    def test_duality_full_lattice_s3(self, e_cubic, g_cubic):
        pg = g_cubic.perm_group()
        perm_to_idx = {a.root_permutation: i for i, a in enumerate(g_cubic.automorphisms)}
        for h in all_subgroups(pg):
            idx = tuple(sorted(perm_to_idx[p] for p in h.elements))
            b = fixed_field(g_cubic, idx)
            assert set(subgroup_fixing(g_cubic, b)) == set(idx)
            assert h.order * b.degree == g_cubic.order
            # round trip through the field side: same degree and minimal
            # polynomial for the re-derived fixed field
            b2 = fixed_field(g_cubic, subgroup_fixing(g_cubic, b))
            assert b2.degree == b.degree
            assert b2.min_poly == b.min_poly or b2.min_poly.degree == b.min_poly.degree


class TestRestriction:
    def test_restriction_to_whole_field(self, e_cubic, g_cubic):
        b = fixed_field(g_cubic, [g_cubic.identity_index])
        res = restriction_homomorphism(g_cubic, b, e_cubic.source)
        assert res.image.order == g_cubic.order
        assert len(res.kernel) == 1

    def test_cyclotomic_quotient_of_cubic(self, e_cubic, g_cubic):
        r0, r1 = e_cubic.roots[0], e_cubic.roots[1]
        zeta = r1 / r0
        b = intermediate_field(g_cubic, [zeta])
        assert b.degree == 2
        res = restriction_homomorphism(g_cubic, b, P(1, 1, 1))
        assert res.image.order == 2
        assert len(res.kernel) == 3
        kernel_group_orders = sorted(
            g_cubic.perm(i).order() for i in res.kernel
        )
        assert kernel_group_orders == [1, 3, 3]  # A3
        # homomorphism property on all 36 pairs is asserted inside; check the
        # mapping is onto both image elements
        assert set(res.mapping) == {0, 1}

    def test_non_normal_intermediate_rejected(self, e_cubic, g_cubic):
        r = e_cubic.field.gen_images[0]
        b = intermediate_field(g_cubic, [r])
        with pytest.raises(ValueError):
            restriction_homomorphism(g_cubic, b, P(-2, 0, 0, 1))

    def test_poly_not_splitting_in_e_rejected(self, e_sqrt2, g_sqrt2):
        b = fixed_field(g_sqrt2, range(2))
        with pytest.raises(ValueError):
            restriction_homomorphism(g_sqrt2, b, P(-3, 0, 1))


class TestIntegerKernel:
    @pytest.mark.parametrize("name", ["x^3-2", "x^4+x+1", "x^5-2"])
    def test_apply_matches_substitution(self, corpus_groups, name):
        # oracle: evaluate the element's residue polynomial at theta_image
        # with ordinary field arithmetic
        G = corpus_groups[name]
        ext = G.field.ext
        rng = random.Random(11)
        elements = [ext.zero, ext.coerce(Fraction(-7, 3))] + [
            ext.from_rep([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(ext.degree)])
            for _ in range(3)
        ]
        for g in G.automorphisms:
            assert g.apply(Fraction(5, 2)) == ext.coerce(Fraction(5, 2))
            for a in elements:
                substituted = a.rep_poly().map_coefficients(ext.coerce, ext)
                assert g.apply(a) == substituted.evaluate(g.theta_image)

    def test_apply_rejects_an_element_of_another_field(self, corpus_groups):
        G = corpus_groups["x^4+x+1"]
        other = corpus_groups["x^5-2"].field.theta
        with pytest.raises(FieldMismatchError):
            G.automorphisms[0].apply(other)

    @pytest.mark.parametrize("name", ["x^3-2", "x^4+x+1", "x^5-2"])
    def test_action_matrix_holds_powers_up_to_n(self, corpus_groups, name):
        # column j is d * theta'**j for j = 0..n; column n feeds the root check
        G = corpus_groups[name]
        ext = G.field.ext
        n = ext.degree
        for g in G.automorphisms[:6]:
            rows, d = g.action_matrix
            assert all(len(row) == n + 1 for row in rows)
            power = ext.one
            for j in range(n + 1):
                assert tuple(Fraction(row[j], d) for row in rows) == power.coeffs
                power = power * g.theta_image

    @pytest.mark.parametrize("name", ["x^3-2", "x^4-1", "x^4+x+1"])
    def test_subgroup_generators_match_a_greedy_index_search(self, corpus_groups, name):
        # oracle: walk the indices in order and keep each one outside the
        # span of those kept so far
        G = corpus_groups[name]
        for H in all_subgroups(G.perm_group()):
            idx = sorted(G.index_of_perm(p) for p in H.elements)
            gens, span = [], {G.identity_index}
            for i in idx:
                if i not in span:
                    gens.append(i)
                    span = set(G.subgroup_indices_closure(gens))
            assert galois_module._subgroup_generators(G, idx) == gens

    @pytest.mark.parametrize("name", ["x^3-2", "x^4+x+1"])
    def test_fixed_field_primitive_matches_orbit_search(self, corpus_groups, name):
        # oracle: the first basis element, then combination, whose full
        # Fraction orbit has the subfield's degree
        G = corpus_groups[name]
        ext = G.field.ext
        for H in all_subgroups(G.perm_group()):
            idx = [G.index_of_perm(p) for p in H.elements]
            B = fixed_field(G, idx)
            candidates = [list(b) for b in B.basis]
            for k in range(1, 40):
                vec = [Fraction(0)] * ext.degree
                for j, b in enumerate(B.basis):
                    for i, c in enumerate(b):
                        vec[i] += k ** j * c
                candidates.append(vec)
            expected = next(ext.from_rep(v) for v in candidates
                            if len(every_image_orbit(G, ext.from_rep(v))) == B.degree)
            assert B.primitive == expected

    def test_apply_and_orbit_poly_skip_field_multiply(self, corpus_groups, monkeypatch):
        G = corpus_groups["x^4+x+1"]
        ext = G.field.ext
        rng = random.Random(5)
        a = ext.from_rep([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(ext.degree)])
        calls = []
        original = ExtensionField._mul

        def counting(self, x, y):
            calls.append(1)
            return original(self, x, y)

        monkeypatch.setattr(ExtensionField, "_mul", counting)
        a * a
        assert calls  # the counter sees ordinary multiplication
        calls.clear()
        for g in G.automorphisms:
            g.apply(a)
        q = orbit_min_poly(G, a)
        assert calls == []
        assert q.degree == len(orbit(G, a))

    @pytest.mark.parametrize("shape", [
        (6, 6, 3),  # square, rank-deficient
        (10, 4, 4),  # tall, full column rank: trivial nullspace
        (10, 5, 2),  # tall, rank-deficient
        (3, 7, 3),  # wide
        (4, 8, 1),  # wide, rank one
        (5, 5, 0),  # all zero
    ])
    def test_nullspace_matches_fraction_oracle(self, shape):
        nrows, ncols, rank = shape
        rng = random.Random(100 * nrows + 10 * ncols + rank)
        for _ in range(4):
            left = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(nrows)]
            right = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rank)]
            rows = [[sum(l * r[j] for l, r in zip(lrow, right)) for j in range(ncols)]
                    for lrow in left]
            rows.insert(rng.randrange(nrows + 1), [0] * ncols)  # a zero row
            expected = rref_nullspace(rows)
            assert nullspace(rows) == expected
            assert len(expected) >= ncols - rank
            for v in expected:
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)

    def test_nullspace_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(3)
        for nrows, ncols in [(4, 6), (7, 3), (5, 5), (6, 6)]:
            rank = rng.randint(1, min(nrows, ncols))
            left = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(nrows)]
            right = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(rank)]
            rows = [[sum(l * r[j] for l, r in zip(lrow, right)) for j in range(ncols)]
                    for lrow in left]
            expected = [[Fraction(int(v.p), int(v.q)) for v in vec]
                        for vec in sympy.Matrix(rows).nullspace()]
            assert nullspace(rows) == expected

    def test_a_wrong_generator_matrix_still_fails_the_degree_check(self, corpus_groups,
                                                                   monkeypatch):
        # the echelon stops at the rank [G:H] predicts only if the kernel so
        # far vanishes on every later row, so a transposition given a
        # 3-cycle's matrix yields the 3-cycle's fixed space, of dimension 8
        G = corpus_groups["x^4+x+1"]
        swap = next(i for i in range(G.order) if G.perm(i).order() == 2)
        three = next(i for i in range(G.order) if G.perm(i).order() == 3)
        action_matrix = Automorphism.action_matrix.fget
        wrong = {id(G.automorphisms[swap]): G.automorphisms[three]}
        monkeypatch.setattr(Automorphism, "action_matrix",
                            property(lambda a: action_matrix(wrong.get(id(a), a))))
        with pytest.raises(SoundnessError) as err:
            fixed_field(G, (G.identity_index, swap))
        assert err.value.check_name == "fixed_field.degree_equals_index"
        assert err.value.detail == "dim 8 * |H| 2 != [E:Q] 24"

    def test_lattice_runs_every_check(self, corpus_groups, monkeypatch):
        G = corpus_groups["x^4+x+1"]
        calls, apply = [], Automorphism.apply
        monkeypatch.setattr(Automorphism, "apply", lambda a, x: calls.append(a) or apply(a, x))
        with collect_checks() as log:
            for idx in _subgroups(G):
                subgroup_fixing(G, fixed_field(G, idx))
        assert len(log) == 384 and all(ok for _, ok, _ in log)
        # 74 exact applies when rational candidates of the primitive search
        # were applied too: every automorphism fixes them
        assert len(calls) == 45
        assert Counter(name for name, _, _ in log) == {
            "fixed_field.degree_equals_index": 30, "fixed_field.primitive_degree": 30,
            "orbit_min_poly.coefficients_rational": 264, "subgroup_fixing.is_subgroup": 30,
            "subgroup_fixing.order_equals_index": 30}


def _act_as_identity(monkeypatch, corrupt):
    """Give each automorphism that corrupt(a) picks the identity's action
    d*I on the first n columns of its matrix, the ones fixed fields read."""
    action_matrix = Automorphism.action_matrix.fget

    def patched(a):
        rows, d = action_matrix(a)
        if not corrupt(a):
            return rows, d
        return [[d * (i == j) for j in range(len(row))] for i, row in enumerate(rows)], d

    monkeypatch.setattr(Automorphism, "action_matrix", property(patched))


@pytest.fixture(scope="module")
def x4m2_x4m3_group():
    return galois_group(splitting_field(P(-2, 0, 0, 0, 1) * P(-3, 0, 0, 0, 1)))


def _lattice_group(request, name):
    fixture = {"x^7-2": "x7m2_group", "(x^4-2)(x^4-3)": "x4m2_x4m3_group"}.get(name)
    if fixture:
        return request.getfixturevalue(fixture)
    return request.getfixturevalue("corpus_groups")[name]


def _two_generator_subgroup(G):
    """The first subgroup with two generators, and those generators."""
    return next((idx, gens) for idx in _subgroups(G)
                if len(gens := galois_module._subgroup_generators(G, idx)) == 2)


class TestFixedSpaceChain:
    """Each fixed space is solved inside the one of its chain predecessor
    <g1, ..., g(m-1)>, read from the group's cache or solved on the way."""

    @pytest.mark.parametrize("name", ["x^4+x+1", "x^7-2", "(x^4-2)(x^4-3)"])
    def test_bases_match_the_stacked_rows_in_any_order(self, request, name):
        # oracle: Gauss-Jordan over Fractions on the rows d*(M_g - I) of
        # every generator; a fresh copy of the group has nothing cached
        G = _lattice_group(request, name)
        n = G.field.degree
        subgroups = _subgroups(G)
        expected = {}
        for idx in subgroups:
            rows = [[0] * n]
            for i in galois_module._subgroup_generators(G, idx):
                matrix, d = G.automorphisms[i].action_matrix
                rows += [[v - d * (r == j) for j, v in enumerate(row[:n])]
                         for r, row in enumerate(matrix)]
            expected[idx] = tuple(map(tuple, rref_nullspace(rows)))
        shuffled = list(subgroups)
        random.Random(name).shuffle(shuffled)
        for order in (subgroups, shuffled):
            fresh = G.replace()
            for idx in order:
                assert fixed_field(fresh, idx).basis == expected[idx]

    def test_a_wrong_last_generator_over_a_cached_space_fails_the_degree_check(
            self, corpus_groups, monkeypatch):
        # the cache supplies K = <g1>, never H itself, though H was solved
        # before, so H's own last generator is read: acting as the
        # identity, it leaves K's space
        G = corpus_groups["x^4+x+1"].replace()
        n = G.field.degree
        idx, (first, last) = _two_generator_subgroup(G)
        K = G.subgroup_indices_closure([first])
        fixed_field(G, K)
        fixed_field(G, idx)
        assert K in G._fixed_spaces and idx in G._fixed_spaces
        _act_as_identity(monkeypatch, lambda a: a is G.automorphisms[last])
        with collect_checks() as log, pytest.raises(SoundnessError) as err:
            fixed_field(G, idx)
        assert err.value.check_name == "fixed_field.degree_equals_index"
        assert err.value.detail == f"dim {n // len(K)} * |H| {len(idx)} != [E:Q] {n}"
        assert [(name, ok) for name, ok, _ in log] == [("fixed_field.degree_equals_index", False)]

    def test_a_wrong_matrix_inside_a_solved_chain_raises(self, corpus_groups, monkeypatch, capsys):
        # K = <g1> is solved on the way to H and checked against [G:K]
        # without a record_check entry; the CLI builds its own group, whose
        # automorphism with the same permutation is corrupted too
        G = corpus_groups["x^4+x+1"].replace()
        n = G.field.degree
        idx, (first, _) = _two_generator_subgroup(G)
        K = G.subgroup_indices_closure([first])
        _act_as_identity(monkeypatch, lambda a: a.root_permutation == G.perm(first))
        with collect_checks() as log, pytest.raises(SoundnessError) as err:
            fixed_field(G, idx)
        assert err.value.check_name == "fixed_field.degree_equals_index"
        assert err.value.detail == f"dim {n} * |K| {len(K)} != [E:Q] {n}"
        assert log == [] and K not in G._fixed_spaces
        assert main(["fixed", "x^4+x+1", "--subgroup", ",".join(map(str, idx))]) == EXIT_SOUNDNESS
        assert "fixed_field.degree_equals_index" in capsys.readouterr().err

    @pytest.mark.parametrize("name, checks, applies", [("x^7-2", 478, 40),
                                                       ("(x^4-2)(x^4-3)", 1173, 169)])
    def test_lattice_check_and_apply_counts(self, request, monkeypatch, name, checks, applies):
        # x^4+x+1's are pinned in test_lattice_runs_every_check
        G = _lattice_group(request, name).replace()
        calls, apply = [], Automorphism.apply
        monkeypatch.setattr(Automorphism, "apply", lambda a, x: calls.append(a) or apply(a, x))
        with collect_checks() as log:
            for idx in _subgroups(G):
                subgroup_fixing(G, fixed_field(G, idx))
        assert len(log) == checks and all(ok for _, ok, _ in log)
        assert len(calls) == applies


class TestGeneratorEnumeration:
    """The group is the closure of exactly verified generators."""

    @pytest.mark.parametrize("label, poly", DIFFERENTIAL, ids=[d[0] for d in DIFFERENTIAL])
    def test_matches_exhaustive_enumeration(self, label, poly):
        e = splitting_field(poly)
        assert _listing(galois_group(e)) == _listing(exhaustive_galois_group(e))

    def test_exact_work_only_for_generators(self, monkeypatch):
        # candidates are read off the place's conjugates: each one checked
        # is a generator, and no minimal polynomial is computed
        e = splitting_field(P(-2, 0, 0, 0, 0, 0, 0, 1))
        exact, minpolys = [], []
        check, minpoly = galois_module._sends_theta_to_a_root, numfield.minimal_polynomial

        def spy(a):
            exact.append(a)
            return check(a)

        monkeypatch.setattr(galois_module, "_sends_theta_to_a_root", spy)
        for module in (numfield, galois_module):
            monkeypatch.setattr(module, "minimal_polynomial", lambda a: minpolys.append(a) or minpoly(a),
                                raising=False)
        g = galois_group(e)
        assert g.order == 42 and not minpolys
        generators = [a for a in g.automorphisms if a._action is not None]
        assert 0 < len(exact) <= 6
        assert all(any(a is b for b in generators) for a in exact)

    @pytest.mark.parametrize("ints", [(-2, 0, 0, 1), (1, 1, 0, 0, 1), (-2, 0, 0, 0, 0, 1)],
                             ids=["x^3-2", "x^4+x+1", "x^5-2"])
    def test_root_check_matches_horner(self, ints):
        # the check read off the action matrix against m(theta') by Horner,
        # on every automorphism and on perturbed images that are no roots
        e = splitting_field(P(*ints))
        field = e.field
        rng = random.Random(len(ints))
        for a in galois_group(e).automorphisms[:8]:
            for image in (a.theta_image, a.theta_image + Fraction(1, rng.randint(1, 5)),
                          a.theta_image * Fraction(rng.choice((-3, 2, 7)), 2)):
                b = Automorphism(field, image)
                horner = not field.min_poly.evaluate(image)
                assert galois_module._sends_theta_to_a_root(b) is horner

    @pytest.mark.parametrize("ints", [(1, 1, 0, 0, 1), (-2, 0, 0, 0, 0, 1)],
                             ids=["x^4+x+1", "x^5-2"])
    def test_same_group_without_a_screening_image(self, monkeypatch, ints):
        # with no place from the tower the group is read at a prime of its
        # own search, and the field, its roots and its group are the same
        screened = splitting_field(P(*ints))
        assert screened.place is not None
        expected = _listing(galois_group(screened))
        monkeypatch.setattr(modscreen, "find", lambda *args, **kwargs: None)
        unscreened = splitting_field(P(*ints))
        assert unscreened.place is None
        assert unscreened.field.min_poly == screened.field.min_poly
        assert unscreened.roots == screened.roots
        assert _listing(galois_group(unscreened)) == expected

    def test_too_few_verified_automorphisms_fail_the_order_check(self, monkeypatch, capsys):
        check = galois_module._sends_theta_to_a_root

        def reject_non_identity(a):
            return a.is_identity and check(a)

        monkeypatch.setattr(galois_module, "_sends_theta_to_a_root", reject_non_identity)
        e = splitting_field(P(-2, 0, 0, 1))
        with pytest.raises(SoundnessError) as err:
            galois_group(e)
        assert err.value.check_name == "galois.order_equals_degree"
        assert main(["group", "x^3-2"]) == EXIT_SOUNDNESS
        assert "galois.order_equals_degree" in capsys.readouterr().err

    @pytest.mark.parametrize("poly", [P(1, 1, 0, 0, 1), P(-2, 0, 0, 1) * P(-3, 0, 0, 1)],
                             ids=["x^4+x+1", "(x^3-2)(x^3-3)"])
    def test_theta_images_read_off_permutations(self, poly):
        # sigma(tau(theta)), applied exactly, is the image of theta under
        # sigma o tau that enumeration reads off the permutation
        G = galois_group(splitting_field(poly))
        thetas = [a.theta_image for a in G.automorphisms]
        for i in range(G.order):
            for j in range(G.order):
                assert G.apply(i, thetas[j]) == thetas[G.compose(i, j)]

    def test_only_candidates_are_applied(self, monkeypatch):
        # each candidate passing the root check is applied to every root
        # once, to find its permutation; the closure applies nothing
        e = splitting_field(P(-2, 0, 0, 0, 0, 0, 0, 0, 0, 1))
        passed, applied = [], []
        check, apply = galois_module._sends_theta_to_a_root, Automorphism.apply

        def spy_check(a):
            passed.append(check(a))
            return passed[-1]

        def spy_apply(a, x):
            applied.append(a)
            return apply(a, x)

        monkeypatch.setattr(galois_module, "_sends_theta_to_a_root", spy_check)
        monkeypatch.setattr(Automorphism, "apply", spy_apply)
        g = galois_module._enumerate_galois_group(e)
        assert g.order == 54
        assert len(applied) == sum(passed) * len(e.roots) < g.order


SCREENED = [("x^4+x+1", P(1, 1, 0, 0, 1)), ("x^5-2", P(-2, 0, 0, 0, 0, 1)),
            ("(x^3-2)(x^3-3)", P(-2, 0, 0, 1) * P(-3, 0, 0, 1))]


def _seeded_elements(E):
    """A rational, a root, a root combination and an element with
    fractional coordinates: stabilizers of several sizes."""
    rng = random.Random(E.degree)
    ext, roots = E.field.ext, E.roots
    return [ext.coerce(Fraction(3, 2)), roots[0], roots[0] + 2 * roots[-1],
            ext.from_rep([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ext.degree)])]


def _subgroups(G):
    return [tuple(sorted(G.index_of_perm(p) for p in H.elements)) for H in all_subgroups(G.perm_group())]


def _correspondence(G, subgroups):
    """Per subgroup its fixed field (the minimal polynomial is the primitive
    element's orbit polynomial) and the subgroup fixing that field; per
    seeded element its stabilizer and orbit."""
    out = []
    for idx in subgroups:
        B = fixed_field(G, idx)
        out.append((idx, B.basis, B.primitive, B.min_poly, subgroup_fixing(G, B)))
    elements = _seeded_elements(G.splitting)
    for a in elements:
        out.append((galois_module._stabilizer(G, [a]), orbit(G, a)))
    out.append(galois_module._stabilizer(G, elements[1:]))
    return out


def _screen_lets_every_sigma_through(G, monkeypatch):
    """Give every automorphism the identity's theta-image in the residue
    table, so that every sigma survives the stabilizer screen and is checked
    exactly unless the closure of the fixers verified before it holds it."""
    place, thetas = G.residues
    monkeypatch.setitem(vars(G), "residues", (place, (thetas[G.identity_index],) * G.order))


@pytest.fixture(scope="module", params=SCREENED, ids=[s[0] for s in SCREENED])
def screened_and_exact(request):
    """The group screened at its place, and the correspondence computed on
    the same field built with no place, whose group finds a prime itself,
    with every fixed-point test exact."""
    poly = request.param[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modscreen, "find", lambda *args, **kwargs: None)
        exact = galois_group(splitting_field(poly))
    assert exact.splitting.place is None
    with pytest.MonkeyPatch.context() as mp:
        _screen_lets_every_sigma_through(exact, mp)
        expected = _correspondence(exact, _subgroups(exact))
    G = galois_group(splitting_field(poly))
    return G, _subgroups(G), expected, exact


class TestSubgroupOfIndices:
    @pytest.mark.parametrize("name", ["x^3-2", "x^4+x+1", "x^5-2"])
    def test_index_closure_matches_the_permutation_closure(self, corpus_groups, name):
        G = corpus_groups[name]
        rng = random.Random(name)
        sets = [rng.sample(range(G.order), rng.randint(1, 4)) for _ in range(30)]
        sets += [[G.identity_index] + s for s in sets[:10]] + [list(h) for h in _subgroups(G)]
        outcomes = set()
        for idx in sets:
            group = closure([G.perm(i) for i in idx], degree=len(G.splitting.roots))
            closed = tuple(sorted(map(G.index_of_perm, group.elements)))
            assert G.subgroup_indices_closure(idx) == closed
            assert G.is_subgroup(idx) == (set(idx) == set(closed))
            outcomes.add(set(idx) == set(closed))
        assert outcomes == {True, False}
        # products are computed as the closure needs them: one per element
        # of a cyclic subgroup, and no table
        fresh = G.replace()
        g = max(range(G.order), key=lambda i: G.perm(i).order())
        assert len(fresh.subgroup_indices_closure([g])) == len(fresh._products) == G.perm(g).order()

    @pytest.mark.parametrize("name", ["x^4+x+1", "x^7-2"])
    def test_the_correspondence_builds_no_permutation_group(self, request, monkeypatch, name):
        # generators, cosets and closures are read on indices: a fresh copy
        # of the group builds no PermGroup over the whole lattice
        G = _lattice_group(request, name)
        subgroups, fresh, built = _subgroups(G), G.replace(), []
        post_init = PermGroup.__post_init__
        monkeypatch.setattr(PermGroup, "__post_init__", lambda H: built.append(H) or post_init(H))
        for module in (permgroup, galois_module):
            monkeypatch.setattr(module, "closure", lambda *args, **kwargs: built.append(args))
        monkeypatch.setattr(GaloisGroup, "subgroup", lambda *args: built.append(args))
        for idx in subgroups:
            B = fixed_field(fresh, idx)
            assert subgroup_fixing(fresh, B) == idx
            assert len(orbit(fresh, B.primitive)) == B.degree
        for a in _seeded_elements(fresh.splitting):
            orbit(fresh, a)
        assert built == []

    def test_matches_the_hand_built_group(self, screened_and_exact):
        G, subgroups, _, _ = screened_and_exact
        for idx in subgroups:
            perms = tuple(G.perm(i) for i in idx)
            H = PermGroup(len(G.splitting.roots), perms, perms)
            assert G.subgroup(idx) == H
            assert G.subgroup(reversed(idx)) == H
        assert G.subgroup(range(G.order)) == G.perm_group()


@pytest.fixture(scope="module")
def x7m2_group():
    return galois_group(splitting_field(P(-2, 0, 0, 0, 0, 0, 0, 1)))


class TestPlaceScreen:
    """Stabilizers, orbits and primitive elements screened at the place."""

    def test_same_answers_as_without_a_place(self, screened_and_exact):
        G, subgroups, expected, exact = screened_and_exact
        assert G.splitting.place is not None
        assert _correspondence(G, subgroups) == expected
        # with no place, the group screens at the prime it finds itself
        assert _correspondence(exact, _subgroups(exact)) == expected
        for a in _seeded_elements(G.splitting):
            assert orbit(G, a) == every_image_orbit(G, a)
            assert orbit_min_poly(G, a) == orbit_poly(G, orbit(G, a))

    def test_orbit_polynomials_match_the_exact_expansion(self, screened_and_exact):
        G, subgroups, expected, exact = screened_and_exact
        # the no-place group's fixed fields, against the expansion in E
        for _, _, primitive, min_poly, _ in expected[:len(subgroups)]:
            assert min_poly == orbit_poly(G, orbit(G, primitive))
        # with no place, the largest prime below 2**30 where m factors into
        # n distinct linear factors, at the least of its roots there
        m = exact.field.min_poly
        p = next(q for q in modscreen.primes() if factor_degrees_mod_p(m, q) == [1] * m.degree)
        gf = PrimeField(p)
        roots = [-g.coeff(0).value % p for g, _ in factor_mod_p(m.map_coefficients(gf.coerce, gf))]
        assert (exact.residues[0].prime, exact.residues[0].root) == (p, min(roots))

    def test_every_survivor_is_checked_exactly(self, screened_and_exact, monkeypatch):
        G, subgroups, expected, _ = screened_and_exact
        _screen_lets_every_sigma_through(G, monkeypatch)
        assert _correspondence(G, subgroups) == expected

    def test_coset_representatives_match_the_index_walk(self, screened_and_exact):
        G, subgroups, _, _ = screened_and_exact
        stabilizers = [galois_module._stabilizer(G, [a]) for a in _seeded_elements(G.splitting)]
        for idx in subgroups + stabilizers:
            assert galois_module._coset_representatives(G, idx) == left_coset_representatives(G, idx)

    def test_exact_applies_bounded_by_the_subgroup(self, x7m2_group, monkeypatch):
        G = x7m2_group
        calls = []
        apply = Automorphism.apply

        def spy(self, a):
            calls.append(self)
            return apply(self, a)

        monkeypatch.setattr(Automorphism, "apply", spy)
        primitive = galois_module._primitive_of_subspace
        # the primitive element's stabilizer is H by construction: after it
        # is chosen, its orbit polynomial comes from power sums, with no apply
        monkeypatch.setattr(galois_module, "_primitive_of_subspace",
                            lambda *args: (primitive(*args), calls.clear())[0])
        for idx in _subgroups(G):
            B = fixed_field(G, idx)
            assert calls == [] and G.order // len(idx) == B.degree
            assert subgroup_fixing(G, B) == idx
            assert len(calls) <= len(idx)
            calls.clear()
            assert len(orbit(G, B.primitive)) == B.degree
            assert len(calls) <= len(idx) + B.degree

    # applying every survivor of the screen takes 136 and 113 applies
    @pytest.mark.parametrize("name, bound", [("x^7-2", 34), ("x^4+x+1", 45)])
    def test_stabilizers_apply_only_outside_the_verified_closure(self, request, monkeypatch,
                                                                 name, bound):
        if name == "x^7-2":
            G = request.getfixturevalue("x7m2_group")
        else:
            G = request.getfixturevalue("corpus_groups")[name]
        calls = []
        apply = Automorphism.apply

        def spy(self, a):
            calls.append(self)
            return apply(self, a)

        def built():
            return [a._action is not None for a in G.automorphisms]

        monkeypatch.setattr(Automorphism, "apply", spy)
        applies = 0
        for idx in _subgroups(G):
            B = fixed_field(G, idx)
            before = built()
            calls.clear()
            assert subgroup_fixing(G, B) == idx
            applies += len(calls)
            # every sigma applied had its action matrix built by fixed_field
            assert built() == before
        assert applies <= bound

    def test_stabilizers_match_the_exact_oracle(self, screened_and_exact):
        G, _, _, exact = screened_and_exact
        for group in (G, exact):
            elements = _seeded_elements(group.splitting)
            for some in [[a] for a in elements] + [elements[1:], elements[::-1], []]:
                assert galois_module._stabilizer(group, some) == exact_stabilizer(group, some)


def _p_integral_element(ext, rng):
    """Random coordinates over denominators far below any place's prime."""
    return ext.from_rep([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7]))
                         for _ in range(ext.degree)])


class TestResidueOrbitPolynomial:
    """Orbit polynomials from exact power sums, against the exact expansion
    in E, and the residue table the group is read off."""

    def test_matches_the_exact_expansion(self, x7m2_group):
        # the fields of SCREENED, and their seeded elements, are checked so
        # in TestPlaceScreen
        G = x7m2_group
        for idx in _subgroups(G):
            B = fixed_field(G, idx)
            assert B.min_poly == orbit_poly(G, orbit(G, B.primitive))

    @pytest.mark.parametrize("name", ["x^4+x+1", "(x^4-2)(x^4-3)"])
    def test_lattices_match_the_exact_expansion(self, corpus_groups, name):
        if name == "x^4+x+1":
            G = corpus_groups[name]
        else:
            G = galois_group(splitting_field(P(-2, 0, 0, 0, 1) * P(-3, 0, 0, 0, 1)))
        subgroups = _subgroups(G)
        assert len(subgroups) == {"x^4+x+1": 30, "(x^4-2)(x^4-3)": 90}[name]
        for idx in subgroups:
            B = fixed_field(G, idx)
            assert B.min_poly == orbit_poly(G, orbit(G, B.primitive))

    def test_reads_powers_not_residues(self, corpus_groups, monkeypatch):
        # the orbit of 97*(r1 + r2) - 55*r3 in the field of x^4+x+1 has 12
        # elements, one per coset of a stabilizer of order 2: its
        # polynomial reads the 13 powers a**0 .. a**12, and no place and no
        # automorphism
        G = corpus_groups["x^4+x+1"]
        r = G.splitting.roots
        a = 97 * (r[0] + r[1]) - 55 * r[2]
        stab = galois_module._stabilizer(G, (a,))
        drawn, used = [], []
        power_coords = numfield._power_coords

        def spy(*args):
            for v in power_coords(*args):
                drawn.append(v)
                yield v

        monkeypatch.setattr(galois_module, "_power_coords", spy)
        monkeypatch.setattr(modscreen.Place, "__call__", lambda *args: used.append(args))
        monkeypatch.setattr(Automorphism, "apply", lambda *args: used.append(args))
        f = galois_module._orbit_min_poly(G, a, stab)
        assert len(stab) == 2 and f.degree == 12 and len(drawn) == 13 and used == []
        assert f == minimal_polynomial(a)

    def test_exact_vanishing_test_matches_evaluation(self, corpus_groups):
        # the correspondence sessions' x^4+x+1 draws at seeds 1, 2 and 3:
        # coordinates and denominators of about 136 bits
        G = corpus_groups["x^4+x+1"]
        env = {f"r{i + 1}": r for i, r in enumerate(G.splitting.roots)}
        for text in ("-2*r2+1*r3", "2*r1+3*r2-2*r3", "-2*r1+2*r2", "-2*r1+1*r4", "1*r2-1*r3+3*r4",
                     "-1*r1+2*r3", "3*r2-1*r3", "3*r2-2*r3+1*r4", "1*r1-1*r2"):
            a = evaluate_in_field(text, G.field.ext, env)
            f = orbit_min_poly(G, a)
            fi, _ = _clear_denominators(f.coeffs)
            for b in (a, a + 1, a - 1):
                powers = numfield._power_coords(b, 0, Polynomial.x(b.field))
                powers = list(itertools.islice(powers, f.degree + 1))
                assert galois_module._vanishes(fi, powers) == (f.evaluate(b) == 0) == (b == a)

    def test_denominator_divisible_by_the_prime(self, corpus_groups):
        # no prime is inverted: a denominator divisible by the place's prime
        # only enters delta
        G = corpus_groups["x^3-2"]
        p, ext, roots = G.residues[0].prime, G.field.ext, G.splitting.roots
        for a in (ext.gen * Fraction(1, p), roots[0] * Fraction(3, p * p) + roots[1],
                  ext.from_rep([Fraction(1, p), 2, Fraction(-5, 7 * p)])):
            assert a.den % p == 0
            assert orbit_min_poly(G, a) == orbit_poly(G, orbit(G, a))

    def test_element_of_another_field_is_refused(self, corpus_groups):
        # the coercion refuses it before any residue or apply is taken
        G, other = corpus_groups["x^3-2"], corpus_groups["x^2-2"].splitting.roots[0]
        B = intermediate_field(corpus_groups["x^2-2"], [other])
        for call in (orbit_min_poly, orbit, lambda G, r: subgroup_fixing(G, [r]),
                     lambda G, r: subgroup_fixing(G, B), lambda G, r: intermediate_field(G, [r])):
            with pytest.raises(FieldMismatchError):
                call(G, other)

    def test_degree_one_field(self):
        E = splitting_field(P(-6, 1, 1))  # (x - 2)(x + 3)
        G = galois_group(E)
        assert G.field.degree == 1 and G.order == 1
        for c in (Fraction(3, 7), Fraction(-2), Fraction(5, G.residues[0].prime)):
            assert orbit_min_poly(G, c) == P(0, 1) - Polynomial.constant(QQ, c)
        assert fixed_field(G, (0,)).min_poly.degree == 1

    @pytest.mark.parametrize("name", ["x^4+x+1", "x^5-2"])
    def test_place_is_a_ring_map(self, corpus_groups, name):
        # the residue table the stabilizer screen reads: each sigma(theta)'s
        # image at the place, a root of m mod p
        G = corpus_groups[name]
        place, thetas = G.residues
        m, ext = G.field.min_poly, G.field.ext
        p, rng = place.prime, random.Random(len(name))
        assert place.modulus == p and modscreen.horner(place.images(m.coeffs), place.root, p) == 0
        for _ in range(4):
            a, b = (_p_integral_element(ext, rng) for _ in range(2))
            assert place(a * b) == place(a) * place(b) % p
            assert place(a + b) == (place(a) + place(b)) % p
        for g, b in zip(G.automorphisms, thetas):
            assert place(g.theta_image) == b
            assert modscreen.horner(place.images(m.coeffs), b, p) == 0

    def test_a_corrupted_trace_form_is_rejected(self, corpus_groups, monkeypatch):
        # a wrong trace gives power sums that are not integers, and a
        # polynomial that does not vanish at the element is refused
        G = corpus_groups["x^4+x+1"]
        a = G.splitting.roots[0] + 2 * G.splitting.roots[1]
        assert orbit_min_poly(G, a) == orbit_poly(G, orbit(G, a))
        T, D = G._trace_form
        monkeypatch.setitem(vars(G), "_trace_form", ([T[0], T[1] + 1] + T[2:], D))
        with pytest.raises(SoundnessError) as err:
            orbit_min_poly(G, a)
        assert err.value.check_name == "orbit_min_poly.coefficients_rational"
        monkeypatch.setitem(vars(G), "_trace_form", (T, D))
        monkeypatch.setattr(galois_module, "_vanishes", lambda F, powers: False)
        with pytest.raises(SoundnessError) as err:
            orbit_min_poly(G, a)
        assert err.value.check_name == "orbit_min_poly.coefficients_rational"

    def test_no_residue_place_raises(self, monkeypatch, capsys):
        # no place from the tower and no prime of the search: the group has
        # no conjugates to be read from
        monkeypatch.setattr(modscreen, "find", lambda *args, **kwargs: None)
        monkeypatch.setattr(modscreen, "primes", lambda: iter(()))
        with pytest.raises(SoundnessError) as err:
            galois_group(splitting_field(P(-2, 0, 0, 1)))
        assert err.value.check_name == "galois.residue_place"
        assert main(["group", "x^3-2"]) == EXIT_SOUNDNESS
        assert "galois.residue_place" in capsys.readouterr().err

    def test_roots_sharing_a_residue_pass_over_the_prime(self, monkeypatch, capsys):
        # at p = 11 the roots of (x^2-5)(x^2-x-1) map to 7, 4, 4, 8: the
        # group is read at a later prime, and the report is the same
        argv = ["group", "(x^2-5)*(x^2-x-1)", "--json"]
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr().out
        primes = modscreen.primes
        monkeypatch.setattr(modscreen, "primes", lambda: itertools.chain([11], primes()))
        E = splitting_field(P(-5, 0, 1) * P(-1, -1, 1))
        assert E.place.prime == 11 and [E.place(r) for r in E.roots] == [7, 4, 4, 8]
        assert galois_group(E).residues[0].prime != 11
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_a_corrupted_power_sum_raises(self, monkeypatch, capsys):
        # a**1 read as a + 1 * scale: its power sums no longer belong to
        # one orbit
        power_coords = numfield._power_coords

        def corrupt(*args):
            for k, (w, scale) in enumerate(power_coords(*args)):
                yield ([w[0] + 1] + w[1:] if k == 1 else w), scale

        monkeypatch.setattr(galois_module, "_power_coords", corrupt)
        G = galois_group(splitting_field(P(-2, 0, 1)))
        with pytest.raises(SoundnessError) as err:
            orbit_min_poly(G, G.splitting.roots[0])
        assert err.value.check_name == "orbit_min_poly.coefficients_rational"
        assert main(["minpoly", "x^2-2", "--element", "r1"]) == EXIT_SOUNDNESS
        assert "orbit_min_poly.coefficients_rational" in capsys.readouterr().err
