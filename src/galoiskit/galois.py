"""Galois groups of splitting fields and the Galois correspondence.

Automorphisms are defined by where they send the primitive element theta,
and the induced root permutation is derived, never searched.  E is normal,
so at a degree-one place (``modscreen``) where theta's minimal polynomial
splits, its roots mod p are the images of the sigma(theta), one for each
automorphism sigma (Stauduhar's residues), and sigma(g_i), g_i a tower
generator, is the root with g_i's image at theta -> that conjugate.  In
sorted order of these generator images, a candidate outside the closure so
far is verified exactly on its integer action matrix, and the group is
``permgroup.closure`` of the verified generators' root permutations, bounded
by [E:Q]: a Galois extension E has at most [E:Q] automorphisms, so a closure
of [E:Q] elements is the whole group.  The other automorphisms are read off
their permutations, never applied: theta is sum c_i * g_i over tower
generators g_i that are roots, so sigma(theta) is sum c_i * roots[sigma(g_i)].

The correspondence runs on integers: each automorphism caches its action as
``numfield``'s substitution map theta -> theta', the integer matrix of the
powers theta'**j, j <= n, over a common denominator, so applying it is one
matrix-vector product and the root check m(theta') = 0 is that matrix times
the coefficients of m.  Rationals appear only in the results.

Fixed fields are solved along a chain (Neubuser's cyclic extension method):
for H's greedy generators g1, ..., gm and K = <g1, ..., g(m-1)>, Fix(H) is
the kernel of the integer matrix d*(M_gm - I)*W, W an integer basis of
Fix(K) (W = I for K = 1), mapped back through W, by a row echelon that
stops at the rank dim K - [G:H] once the kernel vanishes on the rows left.
The group's cache supplies K, solved and checked if missing, never the H
asked for.  Fix(K)'s canonical vector at a free column f is 1 at f and 0
at K's other free columns, so an element of Fix(K) has its last nonzero
entry at one of them: the kernel's canonical vector at f, mapped through W
and divided by its entry at f, is Fix(H)'s, with no second echelon.

Orbit polynomials come from exact power sums.  E is Galois, so each of
the [G:H] conjugates of a, H its stabilizer, is sigma(a) for |H| of the
n automorphisms, and Tr(a**k) / |H| is the k-th power sum of the orbit.
The traces are read off a's powers and the trace form Tr(theta**j), and
Newton's identities turn the power sums into the coefficients on integers
(Cohen, GTM 138): no prime, no lift, no reconstruction and no apply.  The
result is accepted only when it vanishes at a exactly, on the same power
vectors.

Whether sigma fixes a is screened mod p at the place the group was read
at, where sigma(den * a) maps to a's numerators evaluated at
sigma(theta)'s image, and only a survivor is checked exactly: for a
stabilizer, a group, only one outside the closure of the fixers verified
so far; for a primitive element of H's fixed space, every
one outside H; and an orbit applies one sigma per left coset of the
stabilizer (``permgroup``).
"""

import itertools
from functools import cached_property
from fractions import Fraction
from math import lcm
from operator import mul

from .checks import record_check
from .errors import SoundnessError
from .linalg import integer_kernel, nullspace
from .numfield import _power_coords, _Substitution, element_sort_key, roots_in_field
from .permgroup import (PermGroup, Permutation, _small_generating_set, close_under, closure,
                        coset_representatives, is_normal)
from .poly import Polynomial, _clear_denominators, _zx_primitive, poly_squarefree_part
from .qfactor import _power_sums, factor_over_Q
from .scalars import QQ, Record
from .splitting import SplittingField
from . import modscreen


class Automorphism:
    """A field automorphism, stored as the image of the primitive element.

    Its action is the substitution theta -> theta_image, built on first use
    from the first n + 1 powers of theta_image: ``action_matrix`` is (M, d)
    with row i of M holding, in column j, d times the i-th rational
    coordinate of theta_image**j.
    """

    __slots__ = ("field", "theta_image", "root_permutation", "_action")

    def __init__(self, field, theta_image, root_permutation=None):
        self.field = field  # AbsoluteField
        self.theta_image = theta_image
        self.root_permutation = root_permutation
        self._action = None

    def _map(self):
        if self._action is None:
            self._action = _Substitution(self.theta_image, self.field.ext, self.field.degree + 1)
        return self._action

    @property
    def action_matrix(self):
        m = self._map()
        return m.rows, m.den

    def apply(self, a):
        """Image of a field element: substitute theta -> theta_image."""
        return self._map()(a)

    @property
    def is_identity(self):
        return self.theta_image == self.field.theta

    def __repr__(self):
        perm = self.root_permutation.cycle_notation() if self.root_permutation else "?"
        return f"Automorphism({perm})"


class GaloisGroup(Record):
    """All automorphisms of a splitting field over Q, in canonical order."""

    splitting: SplittingField
    automorphisms: tuple
    identity_index: int
    residues: tuple = None  # (enumeration's place, each sigma_i(theta)'s image there)

    @property
    def order(self):
        return len(self.automorphisms)

    def __post_init__(self):
        # permutation -> index, and the tables of compose and _fixed_space
        self.__dict__.update(_index_by_perm={a.root_permutation: i for i, a in enumerate(self.automorphisms)},
                             _products={}, _fixed_spaces={})

    @property
    def field(self):
        return self.splitting.field

    def perm(self, i) -> Permutation:
        return self.automorphisms[i].root_permutation

    def perm_group(self) -> PermGroup:
        return self.subgroup(range(self.order))

    def subgroup(self, indices) -> PermGroup:
        """The permutation group of the automorphisms at the given indices,
        which form a subgroup; its elements generate it."""
        perms = tuple(sorted(map(self.perm, indices)))
        return PermGroup(len(self.splitting.roots), perms, perms)

    @cached_property
    def _trace_form(self):
        """(T, D): Tr(theta**j) = T[j] / D for j < n, with D = c**(n-1) for
        c the leading coefficient of theta's minimal polynomial m cleared
        to integers.  c * theta is a root of the monic integer
        M(y) = c**(n-1) * m(y / c), whose power sums S_j are integers by
        Newton's identities, and T[j] = S_j * c**(n-1-j)."""
        mi, c = _clear_denominators(self.field.min_poly.coeffs)
        n = len(mi) - 1
        M = [v * c ** (n - 1 - j) for j, v in enumerate(mi[:n])] + [1]
        S = [n] + _power_sums(M, n - 1)
        return [s * c ** (n - 1 - j) for j, s in enumerate(S)], c ** (n - 1)

    def index_of_perm(self, perm) -> int:
        try:
            return self._index_by_perm[perm]
        except KeyError:
            raise KeyError(f"permutation {perm} is not induced by any automorphism") from None

    def compose(self, i, j) -> int:
        """Index of automorphism i applied after j, computed on first use."""
        if (k := self._products.get((i, j))) is None:
            k = self._products[i, j] = self.index_of_perm(self.perm(i) * self.perm(j))
        return k

    def apply(self, i, a):
        return self.automorphisms[i].apply(a)

    def subgroup_indices_closure(self, indices):
        """Indices of the subgroup generated by the given automorphisms."""
        return close_under(self.compose, indices, self.identity_index)

    def is_subgroup(self, indices) -> bool:
        idx = set(indices)
        return (idx.issubset(range(self.order)) and self.identity_index in idx
                and len(self.subgroup_indices_closure(idx)) == len(idx))

    def __repr__(self):
        return f"GaloisGroup(order={self.order})"


def galois_group(E: SplittingField) -> GaloisGroup:
    """Enumerate G(E, Q) and verify #G = [E:Q] as a hard runtime assertion."""
    if E._group_cache:
        return E._group_cache[0]
    group = _enumerate_galois_group(E)
    E._group_cache.append(group)
    return group


def _enumerate_galois_group(E: SplittingField) -> GaloisGroup:
    field, roots, n = E.field, E.roots, E.field.degree
    place, root_images = _residue_place(E)
    if n == 1:
        identity = Automorphism(field, field.theta, Permutation.identity(len(roots)))
        return GaloisGroup(E, (identity,), 0, (place, (place.root,)))

    root_index = {r: i for i, r in enumerate(roots)}
    active = [(g, c) for g, c in zip(field.gen_images, field.theta_combo) if c]
    combo, gen_pos = [c for _, c in active], tuple(root_index[g] for g, _ in active)
    # E is normal, so the place's conjugates are the images a of the
    # sigma(theta), and sigma(g_i) is the root whose image is g_i's at
    # theta -> a: each conjugate's generator images, as root indices
    at = {v: i for i, v in enumerate(root_images)}
    conjugates = {tuple(at[modscreen.Place(place.prime, a)(g)] for g, _ in active): a
                  for a in place.conjugates}

    def theta_image(tup):
        """sigma(theta) = sum c_i * sigma(g_i), for sigma(g_i) = roots[tup[i]]."""
        return sum((roots[i] * c for c, i in zip(combo, tup)), field.ext.zero)

    # a candidate in the closure of the verified generators costs no
    # arithmetic; only generators are applied exactly
    generators, group, keys = {}, closure([], degree=len(roots)), {gen_pos}
    for tup in sorted(conjugates):
        if group.order == n:
            break
        if tup in keys:
            continue
        a = Automorphism(field, theta_image(tup))
        if not _sends_theta_to_a_root(a):
            continue
        images = [root_index.get(a.apply(r)) for r in roots]
        if None in images:
            raise SoundnessError("galois.root_permutation", "automorphism image is not a root")
        a.root_permutation = Permutation(images)
        generators[a.root_permutation] = a
        group = closure(generators, degree=len(roots), max_order=n)
        keys = {tuple(p.images[k] for k in gen_pos) for p in group.elements}

    record_check(
        "galois.order_equals_degree",
        group.order == n,
        f"found {group.order} automorphisms in a degree-{n} field",
    )
    # every other sigma(theta) is read off its permutation
    tuples = [tuple(p.images[k] for k in gen_pos) for p in group.elements]
    autos = [generators.get(p) or Automorphism(field, theta_image(t), p)
             for p, t in zip(group.elements, tuples)]

    perms = [a.root_permutation for a in autos]
    record_check("galois.action_faithful", len(set(perms)) == len(perms))
    identity_index = next(i for i, a in enumerate(autos) if a.root_permutation.is_identity)
    record_check("galois.identity_is_identity_map", autos[identity_index].is_identity)
    if n <= 64:
        perm_set = set(perms)
        closed = all((p * q) in perm_set for p in perms for q in perms)
        record_check("galois.multiplication_table_closed", closed)
        record_check("galois.inverses_present", all(p.inverse() in perm_set for p in perms))
    return GaloisGroup(E, tuple(autos), identity_index, (place, tuple(map(conjugates.get, tuples))))


def _residue_place(E: SplittingField):
    """(place, the roots' images there), at the first place that carries
    every embedding and gives the roots distinct images: the splitting
    field's, else one of ``modscreen.split`` at a prime of ``modscreen.primes``."""
    m = E.field.min_poly.coeffs
    own = (modscreen.split(modscreen.Place(p).images(m), p) for p in modscreen.primes())
    for place in itertools.chain([E.place], own):
        images = place and place.conjugates and [place(r) for r in E.roots]
        if images and None not in images and len(set(images)) == len(images):
            return place, images
    raise SoundnessError("galois.residue_place", "no prime gives theta's conjugates and distinct root images")


def _sends_theta_to_a_root(a: Automorphism) -> bool:
    """m(theta') == 0 for theta's minimal polynomial m: column j of the
    action matrix is d * theta'**j for j <= n, so the matrix times the
    cleared coefficients of m is dm * d * m(theta')."""
    rows, _ = a.action_matrix
    mi, _ = _clear_denominators(a.field.min_poly.coeffs)
    return not any(sum(map(mul, row, mi)) for row in rows)


# ---------------------------------------------------------------------------
# orbits and the explicit minimal-polynomial formula


def orbit(G: GaloisGroup, a):
    """The set {g(a) : g in G} in canonical order: one image per left coset
    g*Stab(a), whose members all send a to g(a)."""
    a = G.field.ext.coerce(a)
    return _orbit(G, a, _stabilizer(G, (a,)))


def _orbit(G: GaloisGroup, a, stab):
    """The orbit of a, given its stabilizer."""
    images = (G.automorphisms[i].apply(a) for i in _coset_representatives(G, stab))
    return tuple(sorted(images, key=element_sort_key))


def _coset_representatives(G: GaloisGroup, stab):
    """The first index of each left coset g*stab, in index order."""
    return coset_representatives(G.compose, range(G.order), stab)


def orbit_min_poly(G: GaloisGroup, a) -> Polynomial:
    """prod (x - w) over the orbit of a: its minimal polynomial over Q."""
    a = G.field.ext.coerce(a)
    return _orbit_min_poly(G, a, _stabilizer(G, (a,)))


def _orbit_min_poly(G: GaloisGroup, a, stab) -> Polynomial:
    """prod (x - w) over the orbit of a, given its stabilizer, from power sums.

    With delta = den * D, D = c**(n-1) from the trace form, delta * a is
    integral (c * theta is), so the orbit power sums P_k of delta * a are
    the integers delta**k * Tr(a**k) / |stab|; Tr(a**k) is a**k's
    coordinates against the trace form.  Newton's identities
    k * e_k = sum (-1)**(i-1) * e_(k-i) * P_i, divided exactly by k, give
    the monic integer F = prod (y - delta * w), and the orbit polynomial is
    f(x) = F(delta * x) / delta**m, monic of degree m.  A power sum or e_k
    that is not an integer is an engine fault; f is accepted only when
    F(delta * a) = 0 exactly, on the same powers of a.
    """
    m = G.order // len(stab)
    T, D = G._trace_form
    delta = a.den * D
    powers = list(itertools.islice(_power_coords(a, 0, Polynomial.x(a.field)), m + 1))
    e, sums, f = [1], [], None
    for k, (w, s) in enumerate(powers[1:], 1):
        P, r = divmod(delta ** k * s.numerator * sum(map(mul, w, T)),
                      s.denominator * D * len(stab))
        sums.append(P)
        ek, q = divmod(sum((-1) ** i * e[k - 1 - i] * v for i, v in enumerate(sums)), k)
        if r or q:
            break
        e.append(ek)
    else:
        F = [(-1) ** (m - j) * e[m - j] * delta ** j for j in range(m + 1)]
        if _vanishes(F, powers):
            f = Polynomial(QQ, [Fraction(v, delta ** m) for v in F])
    for _ in range(m + 1):
        record_check(
            "orbit_min_poly.coefficients_rational",
            f is not None,
            "the orbit's power sums are not integers, or their polynomial does not vanish at the element",
        )
    return f


def _vanishes(F, powers):
    """sum F_j * z**j == 0 for integers F_j, given z's powers j <= deg as
    (integer vector, rational scale) pairs from ``_power_coords``."""
    L = lcm(*(s.denominator for _, s in powers))
    us = [v * s.numerator * (L // s.denominator) for v, (_, s) in zip(F, powers)]
    return not any(_combination(us, (w for w, _ in powers), [0] * len(powers[0][0])))


# ---------------------------------------------------------------------------
# intermediate fields and the correspondence


class IntermediateField(Record):
    """A subfield Q <= B <= E, presented inside E."""

    field: object  # the ambient AbsoluteField
    generators: tuple  # elements of E generating B
    primitive: object  # a single element generating B
    min_poly: Polynomial  # minimal polynomial of the primitive element over Q
    degree: int
    basis: tuple  # rational coordinate vectors spanning B as a Q-subspace

    def contains(self, element) -> bool:
        # the basis is independent, so element lies in B exactly when the
        # columns [basis | element] have a kernel
        columns = [_clear_denominators(b)[0] for b in self.basis] + [element.num]
        return bool(nullspace(list(zip(*columns)), rank=len(self.basis)))

    def __repr__(self):
        return f"IntermediateField(degree={self.degree})"


def fixed_field(G: GaloisGroup, subgroup_indices) -> IntermediateField:
    """Solve for the subspace fixed pointwise by a subgroup H and present it
    with a primitive element; asserts [B:Q] = #G / #H."""
    idx = tuple(sorted(set(subgroup_indices)))
    if not G.is_subgroup(idx):
        raise ValueError("indices do not form a subgroup (closure or inverses missing)")
    n = G.field.degree
    space = _fixed_space(G, _subgroup_generators(G, idx), len(idx))
    dim = len(space)
    record_check(
        "fixed_field.degree_equals_index",
        dim * len(idx) == n,
        f"dim {dim} * |H| {len(idx)} != [E:Q] {n}",
    )
    G._fixed_spaces[idx] = space
    # each canonical vector is 1 at the last nonzero entry of its multiple
    zero, tops = Fraction(0), [next(v for v in reversed(w) if v) for w in space]
    basis = [[Fraction(v, t) if v else zero for v in w] for w, t in zip(space, tops)]
    # no automorphism outside H fixes the primitive element: H is its stabilizer
    primitive = _primitive_of_subspace(G, basis, idx)
    mp = _orbit_min_poly(G, primitive, idx)
    record_check("fixed_field.primitive_degree", mp.degree == dim)
    return IntermediateField(
        field=G.field,
        generators=(primitive,),
        primitive=primitive,
        min_poly=mp,
        degree=dim,
        basis=tuple(tuple(b) for b in basis),
    )


def _fixed_space(G: GaloisGroup, gens, order):
    """Integer multiples of the canonical basis of the space fixed by
    <gens>, of the given order, solved inside the space of <gens[:-1]>."""
    n = G.field.degree
    if not gens:
        return [[int(i == j) for i in range(n)] for j in range(n)]
    K = G.subgroup_indices_closure(gens[:-1])
    if (W := G._fixed_spaces.get(K)) is None:
        W = _fixed_space(G, gens[:-1], len(K))
        if len(W) * len(K) != n:
            raise SoundnessError("fixed_field.degree_equals_index",
                                 f"dim {len(W)} * |K| {len(K)} != [E:Q] {n}")
        G._fixed_spaces[K] = W
    matrix, d = G.automorphisms[gens[-1]].action_matrix
    # column j of d*(M - I)*W is M*w_j, a combination of M's columns, less d*w_j
    columns = list(zip(*matrix))
    rows = zip(*(_combination(w, columns, [-d * v for v in w]) for w in W))
    return [_zx_primitive(_combination(u.values(), map(W.__getitem__, u), [0] * n))
            for _, u in integer_kernel(list(rows), rank=len(W) - n // order)]


def _combination(coeffs, vectors, start):
    """start + sum c * v over the coefficients c and integer vectors v."""
    for c, v in zip(coeffs, vectors):
        if c:
            start = [a + c * b for a, b in zip(start, v)]
    return start


def _subgroup_generators(G: GaloisGroup, idx):
    """A small generating subset of a subgroup given by indices, which
    follow the canonical order of the permutations."""
    return _small_generating_set(G.compose, sorted(idx), G.identity_index)


def _primitive_of_subspace(G: GaloisGroup, basis, idx):
    """First element of H's fixed subspace that no automorphism outside H
    fixes, so that its orbit has the full size [G:H]."""
    ext = G.field.ext
    outside = sorted(set(range(G.order)).difference(idx))

    # the basis vectors, then sum k**j * basis[j] for k = 1, 2, ...
    combos = ([sum(k ** j * b[i] for j, b in enumerate(basis)) for i in range(len(basis[0]))]
              for k in range(1, 40))
    for vec in itertools.chain(basis, combos):
        e = ext.from_rep(vec)
        # every automorphism fixes a rational
        if outside and not any(e.num[1:]):
            continue
        if not any(G.automorphisms[i].apply(e) == e for i in _survivors(G, e, outside)):
            return e
    raise SoundnessError("fixed_field.primitive_search", "no primitive element found for subfield")


def _survivors(G: GaloisGroup, e, among):
    """The indices among those given that may fix e, in order: the place mod
    p, a ring map, sends sigma(den * e) to e's numerators at sigma(theta)'s
    image, so a value other than the identity's proves sigma(e) != e."""
    place, thetas = G.residues
    p = place.prime
    num = [c % p for c in e.num]
    fixed = modscreen.horner(num, thetas[G.identity_index], p)
    return [i for i in among if modscreen.horner(num, thetas[i], p) == fixed]


def _stabilizer(G: GaloisGroup, elements) -> tuple:
    """Indices of the automorphisms fixing every element of the list.  The
    fixers of e form a group, so a survivor is applied only outside the
    closure of the fixers verified so far, and the stabilizer is that closure."""
    idx = range(G.order)
    for e in elements:
        fixers, group = [], {G.identity_index}
        survivors = _survivors(G, e, idx)
        for i in survivors:
            if i not in group and G.automorphisms[i].apply(e) == e:
                fixers.append(i)
                group = set(G.subgroup_indices_closure(fixers))
        idx = [i for i in survivors if i in group]
    return tuple(idx)


def subgroup_fixing(G: GaloisGroup, B) -> tuple:
    """Indices of all automorphisms fixing B pointwise (a verified subgroup)."""
    if isinstance(B, IntermediateField):
        gens = B.generators
        expected = G.order // B.degree
    else:
        gens = tuple(B)
        expected = None
    idx = _stabilizer(G, tuple(map(G.field.ext.coerce, gens)))
    record_check("subgroup_fixing.is_subgroup", G.is_subgroup(idx))
    if expected is not None:
        record_check(
            "subgroup_fixing.order_equals_index",
            len(idx) == expected,
            f"|H| {len(idx)} != [E:K]/[B:K] {expected}",
        )
    return idx


def intermediate_field(G: GaloisGroup, elements) -> IntermediateField:
    """The subfield of E generated by the given elements, via its stabilizer."""
    elems = tuple(map(G.field.ext.coerce, elements))
    B = fixed_field(G, _stabilizer(G, elems))
    for e in elems:
        record_check("intermediate_field.contains_generators", B.contains(e))
    return B.replace(generators=elems or B.generators)


class RestrictionHomomorphism(Record):
    """The restriction map G(E,K) -> G(B,K) for a normal intermediate B."""

    mapping: tuple  # index in G -> index in image group
    kernel: tuple  # indices in G restricting to the identity on B
    image: PermGroup  # permutations of the roots of B's defining polynomial
    roots: tuple  # roots of the defining polynomial, canonical order


def restriction_homomorphism(G: GaloisGroup, B: IntermediateField,
                             defining_poly: Polynomial) -> RestrictionHomomorphism:
    """Restrict every automorphism to B, checking normality, surjectivity
    onto a group of order [B:Q], and that the kernel is exactly the
    subgroup fixing B."""
    if defining_poly.field != QQ:
        raise ValueError("the defining polynomial of B must be rational")
    sq = poly_squarefree_part(defining_poly)
    b_roots = []
    for h, _ in factor_over_Q(sq).factors:
        found = roots_in_field(h, G.field)
        if len(found) != h.degree:
            raise ValueError("the supplied polynomial does not split inside E")
        b_roots.extend(found)
    b_roots = tuple(sorted(set(b_roots), key=element_sort_key))
    for r in b_roots:
        if not B.contains(r):
            raise ValueError(
                "B is not normal over Q: a conjugate root escapes B")

    kernel = _stabilizer(G, b_roots)
    fixing_B = subgroup_fixing(G, B)
    record_check(
        "restriction.kernel_is_subgroup_fixing_B",
        set(kernel) == set(fixing_B),
        "kernel of the restriction differs from the stabilizer of B",
    )

    root_pos = {r: i for i, r in enumerate(b_roots)}
    perms = []
    for a in G.automorphisms:
        images = []
        for r in b_roots:
            s = a.apply(r)
            j = root_pos.get(s)
            if j is None:
                raise SoundnessError("restriction.image_is_root", "restricted image escaped the root set")
            images.append(j)
        perms.append(Permutation(images))
    image_elements = tuple(sorted(set(perms)))
    image = PermGroup(len(b_roots), image_elements, image_elements)
    position = {p: k for k, p in enumerate(image_elements)}
    mapping = tuple(position[p] for p in perms)

    record_check(
        "restriction.surjective_onto_GBK",
        image.order == B.degree,
        f"image order {image.order} != [B:Q] {B.degree}",
    )
    record_check(
        "restriction.order_product",
        image.order * len(kernel) == G.order,
        "image order times kernel order must equal #G",
    )
    record_check("restriction.kernel_normal", is_normal(G.subgroup(kernel), G.perm_group()))
    hom_ok = all(
        mapping[G.compose(i, j)] == position.get(perms[i] * perms[j])
        for i in range(G.order)
        for j in range(G.order)
    )
    record_check("restriction.homomorphism_property", hom_ok)
    return RestrictionHomomorphism(mapping, kernel, image, b_roots)
