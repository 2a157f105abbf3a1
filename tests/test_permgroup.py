import math
import signal

import pytest
from hypothesis import given, settings, strategies as st

from galoiskit.permgroup import (
    CyclicGroupZ,
    DirectSumZ,
    Permutation,
    UnitGroup,
    all_subgroups,
    aut_cyclic,
    closure,
    coset_representatives,
    cycle_type_certificate,
    derived_subgroup,
    find_embedding,
    is_abelian,
    is_normal,
    is_solvable,
    single_cycle_power,
    solvable_via_abelian_chain,
    unit_group,
)
from galoiskit.errors import GroupOrderLimitError

from helpers import backtrack_embedding, coset_walk_subgroups, element_walk_subgroups


def s_n(n):
    return closure([Permutation([1, 0] + list(range(2, n))),
                    Permutation(list(range(1, n)) + [0])])


BUILT = {
    "S5": lambda: s_n(5),
    "A5": lambda: closure([Permutation((1, 2, 0, 3, 4)), Permutation((1, 2, 3, 4, 0))]),
    # the symmetries of a hexagon
    "D6": lambda: closure([Permutation((1, 2, 3, 4, 5, 0)), Permutation((0, 5, 4, 3, 2, 1))]),
    "C2^3": lambda: closure([Permutation((1, 0, 2, 3, 4, 5)), Permutation((0, 1, 3, 2, 4, 5)),
                             Permutation((0, 1, 2, 3, 5, 4))]),
}


class TestClosure:
    def test_transposition(self):
        g = closure([Permutation((1, 0))])
        assert g.order == 2

    def test_s3_from_generators(self):
        g = closure([Permutation((1, 0, 2)), Permutation((1, 2, 0))])
        assert g.order == 6
        # brute force: all 6 permutations of 3 points appear
        import itertools

        assert set(p.images for p in g.elements) == set(itertools.permutations(range(3)))

    def test_empty_generators(self):
        g = closure([], degree=4)
        assert g.order == 1 and g.is_trivial

    def test_order_bound(self):
        with pytest.raises(ValueError):
            s8 = closure([Permutation([1, 0] + list(range(2, 8))),
                          Permutation(list(range(1, 8)) + [0])])

    def test_order_bound_is_an_engine_limit(self, monkeypatch):
        from galoiskit import permgroup

        monkeypatch.setattr(permgroup, "MAX_CLOSURE_ORDER", 5)
        with pytest.raises(GroupOrderLimitError, match="bound 5"):
            closure([Permutation((1, 2, 0)), Permutation((1, 0, 2))])

    def test_closure_idempotent(self):
        g = s_n(4)
        again = closure(g.elements, degree=4)
        assert again.elements == g.elements


class TestPower:
    def test_negative_powers_are_powers_of_the_inverse(self):
        # a guard: a negative power once looped forever
        def hang(signum, frame):
            raise TimeoutError("Permutation power did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            for p in (Permutation((1, 2, 0)), Permutation((2, 0, 3, 4, 1))):
                inv = p.inverse()
                for k in (0, 1, 2, 3, 7):
                    expected = Permutation.identity(p.degree)
                    for _ in range(k):
                        expected = expected * inv
                    assert p ** -k == expected
                    assert p ** k * p ** -k == Permutation.identity(p.degree)
                assert p ** -1 == inv and p ** -4 == inv * inv * inv * inv
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestNormality:
    def test_a3_in_s3(self):
        s3 = s_n(3)
        a3 = derived_subgroup(s3)
        assert a3.order == 3
        assert is_normal(a3, s3)

    def test_order_two_not_normal_in_s3(self):
        s3 = s_n(3)
        h = closure([Permutation((1, 0, 2))])
        assert not is_normal(h, s3)

    def test_group_normal_in_itself(self):
        s3 = s_n(3)
        assert is_normal(s3, s3)

    def test_non_subgroup_rejected(self):
        s3 = s_n(3)
        h = closure([Permutation((1, 0, 2, 3))])
        with pytest.raises(ValueError):
            is_normal(h, s3)


class TestDerivedSeries:
    def test_abelian_derived_trivial(self):
        c4 = closure([Permutation((1, 2, 3, 0))])
        assert derived_subgroup(c4).is_trivial

    def test_s3_derived_is_a3(self):
        s3 = s_n(3)
        d = derived_subgroup(s3)
        assert d.order == 3
        assert all(p.is_identity or len(p.cycles()[0]) == 3 for p in d.elements)

    def test_s4_derived_is_a4(self):
        assert derived_subgroup(s_n(4)).order == 12

    def test_s4_series(self):
        ok, series = is_solvable(s_n(4))
        assert ok
        assert [g.order for g in series] == [24, 12, 4, 1]

    def test_s5_stalls_at_a5(self):
        ok, series = is_solvable(s_n(5))
        assert not ok
        assert [g.order for g in series] == [120, 60, 60]

    def test_a5_perfect(self):
        _, series = is_solvable(s_n(5))
        a5 = series[1]
        assert derived_subgroup(a5).order == a5.order

    def test_trivial_group_solvable(self):
        ok, series = is_solvable(closure([], degree=3))
        assert ok and len(series) == 1

    def test_derived_normal_and_decreasing(self):
        g = s_n(4)
        _, series = is_solvable(g)
        for a, b in zip(series, series[1:]):
            assert is_normal(b, a)
            assert b.order < a.order or (a.order == b.order == series[-1].order)


class TestAbelian:
    def test_klein_four(self):
        v4 = closure([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
        assert is_abelian(v4)

    def test_s3_not_abelian(self):
        s3 = s_n(3)
        assert not is_abelian(s3)
        a = Permutation((1, 0, 2))
        b = Permutation((1, 2, 0))
        assert a * b != b * a

    def test_cyclic_groups_abelian(self):
        for n in (2, 3, 4, 5, 6):
            cn = closure([Permutation(list(range(1, n)) + [0])])
            assert is_abelian(cn)


class TestAbelianChain:
    def test_s3_chain_accepted(self):
        s3 = s_n(3)
        a3 = derived_subgroup(s3)
        cert = solvable_via_abelian_chain([s3, a3, closure([], degree=3)])
        assert cert.accepted
        assert [s.quotient_order for s in cert.steps] == [2, 3]

    def test_s5_chain_rejected_at_a5(self):
        s5 = s_n(5)
        a5 = derived_subgroup(s5)
        cert = solvable_via_abelian_chain([s5, a5, closure([], degree=5)])
        assert not cert.accepted
        assert "step 1" in cert.failure

    def test_abelian_group_direct(self):
        v4 = closure([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
        cert = solvable_via_abelian_chain([v4, closure([], degree=4)])
        assert cert.accepted

    def test_shape_errors(self):
        s3 = s_n(3)
        a3 = derived_subgroup(s3)
        with pytest.raises(ValueError):
            solvable_via_abelian_chain([a3, s3])  # not descending
        with pytest.raises(ValueError):
            solvable_via_abelian_chain([s3, a3])  # nontrivial tail

    def test_agrees_with_is_solvable(self):
        for g in (s_n(3), s_n(4), closure([Permutation((1, 2, 3, 0))])):
            ok, series = is_solvable(g)
            assert ok
            assert solvable_via_abelian_chain(series).accepted

    def test_coset_representatives_cover(self):
        s3 = s_n(3)
        a3 = derived_subgroup(s3)
        reps = coset_representatives(Permutation.__mul__, s3.elements, a3.elements)
        assert len(reps) == 2


class TestUnitGroups:
    def test_u8_klein(self):
        u = unit_group(8)
        assert u.elements() == (1, 3, 5, 7)
        assert all(u.op(a, a) == 1 for a in u.elements())

    def test_u5_cyclic_generated_by_2(self):
        u = unit_group(5)
        powers = [2]
        while powers[-1] != 1:
            powers.append(u.op(powers[-1], 2))
        assert powers == [2, 4, 3, 1]

    def test_u2_trivial(self):
        assert unit_group(2).elements() == (1,)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            unit_group(1)


class TestAutCyclic:
    def test_aut_z5(self):
        u, witness = aut_cyclic(5)
        assert len(witness) == 4
        # oracle: exhaustive additive bijections of Z_5
        brute = _brute_force_automorphisms(5)
        assert sorted(witness.values()) == sorted(brute)

    def test_aut_z2_identity_only(self):
        _, witness = aut_cyclic(2)
        assert list(witness.values()) == [(0, 1)]

    def test_aut_z12(self):
        u, witness = aut_cyclic(12)
        assert sorted(witness) == [1, 5, 7, 11]
        brute = _brute_force_automorphisms(12)
        assert sorted(witness.values()) == sorted(brute)

    def test_count_is_euler_phi_up_to_30(self):
        for n in range(2, 31):
            phi = sum(1 for a in range(1, n) if math.gcd(a, n) == 1)
            _, witness = aut_cyclic(n)
            assert len(witness) == phi


def _brute_force_automorphisms(n):
    """All additive bijections of Z_n, found without unit-group reasoning.

    For n <= 6 this searches every permutation.  Beyond that it uses only
    the elementary fact that additivity forces f(k) = k*f(1), and checks
    bijectivity and additivity of every resulting map exhaustively.
    """
    import itertools

    out = []
    if n <= 6:
        for images in itertools.permutations(range(n)):
            if images[0] != 0:
                continue
            if all(images[(i + j) % n] == (images[i] + images[j]) % n
                   for i in range(n) for j in range(n)):
                out.append(images)
        return out
    for m in range(n):
        images = tuple(m * k % n for k in range(n))
        if sorted(images) != list(range(n)):
            continue
        if all(images[(i + j) % n] == (images[i] + images[j]) % n
               for i in range(n) for j in range(n)):
            out.append(images)
    return out


class TestEmbeddings:
    def test_klein_four_onto_u8(self):
        v4 = closure([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
        emb = find_embedding(v4, UnitGroup(8))
        assert emb is not None
        assert len(set(dict(emb.mapping).values())) == 4  # onto U(8)

    def test_c4_into_z4(self):
        c4 = closure([Permutation((1, 2, 3, 0))])
        assert find_embedding(c4, CyclicGroupZ(4)) is not None

    def test_nonabelian_into_abelian_impossible(self):
        s3 = s_n(3)
        assert find_embedding(s3, CyclicGroupZ(6)) is None
        assert find_embedding(s3, UnitGroup(7)) is None
        assert find_embedding(s3, DirectSumZ(6, 3)) is None

    def test_too_small_target(self):
        c4 = closure([Permutation((1, 2, 3, 0))])
        assert find_embedding(c4, CyclicGroupZ(2)) is None

    def test_c4_not_into_klein(self):
        c4 = closure([Permutation((1, 2, 3, 0))])
        assert find_embedding(c4, DirectSumZ(2, 2)) is None

    def test_v4_into_z2_squared(self):
        v4 = closure([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
        emb = find_embedding(v4, DirectSumZ(2, 2))
        assert emb is not None
        mapping = dict(emb.mapping)
        for a in mapping:
            for b in mapping:
                assert mapping[a * b] == emb.target.op(mapping[a], mapping[b])

    def test_matches_the_backtracking_oracle(self):
        # every abelian subgroup of S4 and S5, and C2^3, into cyclic, unit
        # and direct-sum targets: too small, of the wrong exponent, or not
        # embedding for want of elements of the right orders
        c2_cubed = closure([Permutation((1, 0, 2, 3, 4, 5)), Permutation((0, 1, 3, 2, 4, 5)),
                            Permutation((0, 1, 2, 3, 5, 4))])
        groups = [H for n in (4, 5) for H in all_subgroups(s_n(n)) if is_abelian(H)] + [c2_cubed]
        targets = ([CyclicGroupZ(n) for n in range(1, 9)] + [UnitGroup(n) for n in range(2, 25)]
                   + [DirectSumZ(k, c) for k in (2, 3, 4, 6) for c in (1, 2, 3)])
        found = 0
        for H in groups:
            for target in targets:
                emb = find_embedding(H, target)
                assert emb == backtrack_embedding(H, target), (H, target)
                found += emb is not None
        assert (len(groups), len(targets), found) == (109, 43, 2146)

    def test_target_order_counts_elements(self):
        assert [CyclicGroupZ(n).order for n in (1, 6, 8)] == [1, 6, 8]
        assert [UnitGroup(n).order for n in (2, 8, 15, 24)] == [1, 4, 8, 8]
        assert [DirectSumZ(k, c).order for k, c in ((2, 3), (6, 2))] == [2 ** 3, 6 ** 2]


class TestSubgroupEnumeration:
    def test_s3_has_six_subgroups(self):
        assert len(all_subgroups(s_n(3))) == 6

    def test_s4_has_thirty_subgroups(self):
        assert len(all_subgroups(s_n(4))) == 30

    @pytest.mark.parametrize("name, build, count", [
        ("S3", lambda: s_n(3), 6),
        ("S4", lambda: s_n(4), 30),
        ("D4", lambda: closure([Permutation((1, 2, 3, 0)), Permutation((0, 3, 2, 1))]), 10),
        ("F20", lambda: affine_line(5, 2), 14),
        ("F42", lambda: affine_line(7, 3), 26),
        # C3 x C3 on two blocks of three points, with the involution
        # inverting both factors
        ("(C3xC3):C2", lambda: closure([Permutation((1, 2, 0, 3, 4, 5)),
                                        Permutation((0, 1, 2, 4, 5, 3)),
                                        Permutation((0, 2, 1, 3, 5, 4))]), 28),
    ], ids=["S3", "S4", "D4", "F20", "F42", "(C3xC3):C2"])
    def test_coset_walk_matches_the_element_walk(self, name, build, count):
        G = build()
        found, expected = all_subgroups(G), element_walk_subgroups(G)
        assert len(found) == count
        # the same subgroups, in the same order, with the same generators
        assert found == expected
        assert [H.generators for H in found] == [H.generators for H in expected]

    @pytest.mark.parametrize("name, count", [
        ("x^2-2", 2), ("x^2+x+1", 2), ("x^3-2", 6), ("x^3-3x-1", 2), ("x^4-1", 2),
        ("x^4+1", 5), ("x^4+x+1", 30), ("x^5-2", 14),
        ("S5", 156), ("A5", 59), ("D6", 16), ("C2^3", 16),
    ])
    def test_index_walk_matches_the_permutation_walks(self, corpus_groups, name, count):
        # the elements against the element walk, the generators against
        # the same coset walk on Permutation products
        G = BUILT[name]() if name in BUILT else corpus_groups[name].perm_group()
        found = all_subgroups(G)
        assert len(found) == count
        assert [H.elements for H in found] == [H.elements for H in element_walk_subgroups(G)]
        assert [H.generators for H in found] == [H.generators for H in coset_walk_subgroups(G)]


def _permutations(n):
    return st.permutations(range(n)).map(Permutation)


class TestProducts:
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(_permutations(n), _permutations(n))))
    @settings(max_examples=200, deadline=None)
    def test_product_is_the_validated_composition(self, pair):
        p, q = pair
        expected = Permutation(tuple(p.images[j] for j in q.images))
        assert p * q == expected
        assert (p * q).images == expected.images and hash(p * q) == hash(expected)
        assert type(p * q) is Permutation

    def test_unequal_degrees_raise(self):
        p, q = Permutation((1, 0)), Permutation((1, 2, 0))
        for a, b in ((p, q), (q, p)):
            with pytest.raises(ValueError):
                a * b


# ---------------------------------------------------------------------------
# cycle-type certificates


def cycle_types(n, largest=None):
    """Every cycle type of S_n, as an ascending tuple of lengths."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in cycle_types(n - first, first):
            yield rest + (first,)


def type_of(perm):
    lengths = [len(c) for c in perm.cycles()]
    return tuple(sorted([1] * (perm.degree - sum(lengths)) + lengths))


def is_prime(m):
    return m >= 2 and all(m % q for q in range(2, m))


def perm_on(points, f):
    index = {x: i for i, x in enumerate(points)}
    return Permutation([index[f(x)] for x in points])


def affine_line(p, g):
    """AGL(1, p): x -> x + 1 and x -> g*x on F_p."""
    points = list(range(p))
    return closure([perm_on(points, lambda x: (x + 1) % p),
                    perm_on(points, lambda x: g * x % p)])


def projective_line(q, scale):
    """x -> x + 1, x -> scale*x, x -> -1/x on F_q and infinity (None): PGL(2, q)
    for a generator scale of F_q*, PSL(2, q) for a generator of the squares."""
    points = list(range(q)) + [None]

    def invert(x):
        if x is None:
            return 0
        return None if x == 0 else -pow(x, -1, q) % q

    return closure([perm_on(points, lambda x: None if x is None else (x + 1) % q),
                    perm_on(points, lambda x: None if x is None else scale * x % q),
                    perm_on(points, invert)])


def linear_f2_cube(affine):
    """GL(3, 2) on the 7 nonzero vectors of F_2^3, or AGL(3, 2) on all 8."""

    def linear(images):
        def f(v):
            out = 0
            for bit, image in enumerate(images):
                if v >> bit & 1:
                    out ^= image
            return out
        return f

    points = list(range(0 if affine else 1, 8))
    gens = [linear((1, 3, 4)), linear((2, 4, 1))]
    if affine:
        gens.append(lambda v: v ^ 1)
    return closure([perm_on(points, f) for f in gens])


def alternating(n):
    long_cycle = list(range(1, n)) + [0] if n % 2 else [0] + list(range(2, n)) + [1]
    return closure([Permutation([1, 2, 0] + list(range(3, n))), Permutation(long_cycle)])


# transitive groups of degree n that do not contain A_n, with their orders
SMALL_TRANSITIVE = [
    ("C5", lambda: closure([Permutation((1, 2, 3, 4, 0))]), 5),
    ("D5", lambda: closure([Permutation((1, 2, 3, 4, 0)), Permutation((0, 4, 3, 2, 1))]), 10),
    ("F20", lambda: affine_line(5, 2), 20),
    ("C6", lambda: closure([Permutation((1, 2, 3, 4, 5, 0))]), 6),
    ("S3 wr C2", lambda: closure([Permutation((1, 0, 2, 3, 4, 5)), Permutation((1, 2, 0, 3, 4, 5)),
                                  Permutation((3, 4, 5, 0, 1, 2))]), 72),
    ("PSL(2,5)", lambda: projective_line(5, 4), 60),
    ("PGL(2,5)", lambda: projective_line(5, 2), 120),
    ("F42", lambda: affine_line(7, 3), 42),
    ("GL(3,2)", lambda: linear_f2_cube(False), 168),
    ("PSL(2,7)", lambda: projective_line(7, 2), 168),
    ("PGL(2,7)", lambda: projective_line(7, 3), 336),
    ("AGL(3,2)", lambda: linear_f2_cube(True), 1344),
]


class TestCycleTypeCertificate:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_single_cycle_power_matches_permutation_powers(self, n):
        for ctype in cycle_types(n):
            perm = Permutation.of_cycle_type(ctype)
            assert type_of(perm) == ctype
            powers = {}  # prime length -> first exponent giving that single cycle
            q = Permutation.identity(n)
            for e in range(1, perm.order() + 1):
                q = q * perm
                lengths = [len(c) for c in q.cycles()]
                if len(lengths) == 1 and is_prime(lengths[0]):
                    powers.setdefault(lengths[0], e)
            claim = single_cycle_power(ctype)
            if claim is None:
                assert not powers, ctype
                continue
            exponent, p = claim
            assert p == min(powers), ctype
            assert [len(c) for c in (perm ** exponent).cycles()] == [p], ctype
            q = Permutation.identity(n)
            for _ in range(exponent):
                q = q * perm
            assert q == perm ** exponent

    @pytest.mark.parametrize("name, build, order", SMALL_TRANSITIVE,
                             ids=[g[0] for g in SMALL_TRANSITIVE])
    def test_no_certificate_without_alternating_group(self, name, build, order):
        g = build()
        assert g.order == order
        types = sorted({type_of(p) for p in g.elements})
        assert cycle_type_certificate(g.degree, list(enumerate(types))) is None

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_symmetric_and_alternating_certified(self, n):
        a_n = alternating(n)
        assert a_n.order == math.factorial(n) // 2
        types = sorted({type_of(p) for p in a_n.elements})
        cert = cycle_type_certificate(n, list(enumerate(types)))
        assert cert.group == "A_n or S_n"
        assert (n - 3 >= cert.power[3] > 2) or (n == 5 and cert.power[3] == 3)
        s_types = sorted({type_of(p) for p in s_n(n).elements})
        cert = cycle_type_certificate(n, list(enumerate(s_types)))
        assert cert.group == "S_n"
        assert cert.power[3] == 2

    def test_certificate_names_its_proof(self):
        cert = cycle_type_certificate(6, [(2, (6,)), (3, (1, 2, 3)), (5, (3, 3)), (7, (1, 5))])
        assert cert.group == "S_n"
        assert cert.primitivity == (7, (1, 5))
        assert cert.power == (3, (1, 2, 3), 3, 2)
        # without a (1, n-1) type a composite degree gives no primitivity
        assert cycle_type_certificate(6, [(3, (1, 2, 3))]) is None
        # a prime degree is primitive by itself
        cert = cycle_type_certificate(7, [(3, (2, 5))])
        assert cert.primitivity is None and cert.power == (3, (2, 5), 5, 2)
