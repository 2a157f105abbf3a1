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
the coefficients of m; and fixed fields are the nullspace of the integer
rows d*(M - I) on the first n columns, a fraction-free row echelon that
stops once it reaches the rank n - [G:H] and its kernel vanishes on the
rows left.  Rationals appear only in the results.

Orbit polynomials come from residues.  The place is lifted to p**k by
Newton iteration, the group permutes the p-adic roots of m there, and
sigma(a) maps to a's coordinates evaluated at sigma(theta)'s image, so the
product over one sigma per coset of the stabilizer is expanded on scalars
and reconstructed over one denominator; no automorphism is applied and no
product is taken in E.  A candidate is accepted only when it has the
orbit's degree and vanishes at a exactly, by Horner on integer vectors;
otherwise k doubles, up to a proven height bound.

Whether sigma fixes a is screened with the same images mod p, where
sigma(den * a) maps to a's numerators evaluated at sigma(theta)'s image,
and only a survivor is checked exactly: for a stabilizer, a group, only one
outside the ``permgroup.closure`` of the fixers verified so far; for a
primitive element of H's fixed space, every one outside H; and an orbit
applies one sigma per left coset of the stabilizer (``permgroup``).
"""

import itertools
from functools import cached_property
from fractions import Fraction
from math import gcd
from operator import mul

from .checks import record_check
from .errors import SoundnessError
from .linalg import SpanSolver, nullspace
from .numfield import _Substitution, element_sort_key, roots_in_field
from .permgroup import (PermGroup, Permutation, _small_generating_set, closure,
                        coset_representatives, is_normal)
from .poly import Polynomial, _clear_denominators, poly_squarefree_part
from .qfactor import _rational_reconstruction, factor_over_Q
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
    def _lift(self):
        """[k, the place lifted to p**k, {index: the image there of
        sigma(theta)}], the group's one residue table: at k = 1, the
        conjugates enumeration read.  Stabilizers screen at k = 1 and orbit
        polynomials at any k; ``_theta_images`` raises k."""
        return [1, self.residues[0], dict(enumerate(self.residues[1]))]

    def _theta_images(self, k, indices=None):
        """The images of sigma_i(theta), i in indices (default all), at the
        place lifted to p**k or beyond, each evaluated once per precision."""
        j, place, images = self._lift
        if j < k:
            j = max(k, 2 * j)
            place, images = place.lift(self.field.min_poly, j), {}
            self._lift[:] = j, place, images
        indices = range(self.order) if indices is None else indices
        for i in set(indices) - images.keys():
            images[i] = place(self.automorphisms[i].theta_image)
        return [images[i] for i in indices]

    @cached_property
    def _index_by_perm(self):
        return {a.root_permutation: i for i, a in enumerate(self.automorphisms)}

    def index_of_perm(self, perm) -> int:
        try:
            return self._index_by_perm[perm]
        except KeyError:
            raise KeyError(f"permutation {perm} is not induced by any automorphism") from None

    def compose(self, i, j) -> int:
        """Index of automorphism i applied after j."""
        return self.index_of_perm(self.perm(i) * self.perm(j))

    def apply(self, i, a):
        return self.automorphisms[i].apply(a)

    def subgroup_indices_closure(self, indices):
        """Indices of the subgroup generated by the given automorphisms."""
        group = closure([self.perm(i) for i in indices], degree=len(self.splitting.roots),
                        max_order=self.order)
        return tuple(sorted(map(self.index_of_perm, group.elements)))

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
    return [G.index_of_perm(g) for g in coset_representatives(G.perm_group(), G.subgroup(stab))]


def orbit_min_poly(G: GaloisGroup, a) -> Polynomial:
    """prod (x - w) over the orbit of a: its minimal polynomial over Q."""
    a = G.field.ext.coerce(a)
    return _orbit_min_poly(G, a, _stabilizer(G, (a,)))


def _orbit_min_poly(G: GaloisGroup, a, stab) -> Polynomial:
    """prod (x - w) over the orbit of a, given its stabilizer, from residues.

    sigma(a) maps to num(b) / den, b sigma(theta)'s image mod p**k; the
    product over one sigma per coset is reconstructed over one denominator
    (for den * a, rescaled, when p divides den).  With theta's minimal
    polynomial cleared to integers (leading c, the others below r in size),
    delta = den * c**(n-1) makes delta * a integral and its conjugates at
    most s = c**(n-1) * sum |num_j| r**j (Cauchy), so the denominator
    divides delta**m and it and each numerator are at most
    H = (delta * (1 + s))**m.  A candidate of degree m vanishing at a is
    a's minimal polynomial; until one does, k doubles, and once p**k / 2
    passes H**2 the reconstruction cannot miss it.
    """
    reps, n = _coset_representatives(G, stab), G.field.degree
    m, p = len(reps), G._lift[1].prime
    mi, c = _clear_denominators(G.field.min_poly.coeffs)
    r, delta = 1 + max(map(abs, mi)), a.den * c ** (n - 1)
    s = c ** (n - 1) * sum(abs(v) * r ** j for j, v in enumerate(a.num))
    height = (delta * (1 + s)) ** (2 * m)
    scale = a.den if a.den % p == 0 else 1
    # at least p: a random residue then passes as a numerator one time in p
    den_bound, k = max((delta // scale) ** m, p), 1
    while True:
        pk = p ** k
        num, inv = [x % pk for x in a.num], pow(a.den // scale, -1, pk)
        acc = [1]
        for b in G._theta_images(k, reps):
            w = modscreen.horner(num, b % pk, pk) * inv % pk
            acc = [(u - w * v) % pk for u, v in zip([0] + acc, acc + [0])]
        candidate = _rational_reconstruction(acc, pk, den_bound)
        if candidate is not None:
            nums, den = candidate
            f = Polynomial(QQ, [Fraction(x, den * scale ** (m - j)) for j, x in enumerate(nums)])
            if f.degree == m and _vanishes_at(f, a):
                break
        if pk >> 1 >= height:
            f = None
            break
        k *= 2
    for _ in range(m + 1):
        record_check(
            "orbit_min_poly.coefficients_rational",
            f is not None,
            "no reconstructed orbit polynomial vanished at the element within the height bound",
        )
    return f


def _vanishes_at(f, a):
    """f(a) == 0 by Horner on integer vectors, f cleared to integers F_j
    and a = num / den: acc / scale is the value so far, each step takes it
    to value * a + F_j, and both are divided by their gcd."""
    ext = a.field
    fi, _ = _clear_denominators(f.coeffs)
    acc, scale = [fi[-1]] + [0] * (ext.degree - 1), 1
    for j in range(len(fi) - 2, -1, -1):
        scale *= ext._int_rows[1] * a.den
        acc = ext._int_mul(acc, a.num)
        acc[0] += fi[j] * scale
        g = gcd(scale, *acc)
        acc, scale = [x // g for x in acc], scale // g
    return not any(acc)


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
        span = SpanSolver()
        for b in self.basis:
            span.insert(b)
        return span.insert(element.coeffs) is not None

    def __repr__(self):
        return f"IntermediateField(degree={self.degree})"


def fixed_field(G: GaloisGroup, subgroup_indices) -> IntermediateField:
    """Solve for the subspace fixed pointwise by a subgroup H and present it
    with a primitive element; asserts [B:Q] = #G / #H."""
    idx = tuple(sorted(set(subgroup_indices)))
    if not G.is_subgroup(idx):
        raise ValueError("indices do not form a subgroup (closure or inverses missing)")
    n = G.field.degree
    # a zero row moves no pivot, and leaves the whole space for H = 1
    rows = [[0] * n]
    for i in _subgroup_generators(G, idx):
        matrix, d = G.automorphisms[i].action_matrix
        # rows of d * (M - I) on the first n columns
        for r, row in enumerate(matrix):
            row = list(row[:n])
            row[r] -= d
            rows.append(row)
    basis = nullspace(rows, rank=n - n // len(idx))
    dim = len(basis)
    record_check(
        "fixed_field.degree_equals_index",
        dim * len(idx) == n,
        f"dim {dim} * |H| {len(idx)} != [E:Q] {n}",
    )
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


def _subgroup_generators(G: GaloisGroup, idx):
    """A small generating subset of a subgroup given by indices, which
    follow the canonical order of the permutations."""
    return [G.index_of_perm(p) for p in _small_generating_set(G.subgroup(idx))]


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
        if not any(G.automorphisms[i].apply(e) == e for i in _survivors(G, e, outside)):
            return e
    raise SoundnessError("fixed_field.primitive_search", "no primitive element found for subfield")


def _survivors(G: GaloisGroup, e, among):
    """The indices among those given that may fix e, in order: the place mod
    p, a ring map, sends sigma(den * e) to e's numerators at sigma(theta)'s
    image, so a value other than the identity's proves sigma(e) != e."""
    p = G._lift[1].prime
    thetas, num = G._theta_images(1), [c % p for c in e.num]
    fixed = modscreen.horner(num, thetas[G.identity_index] % p, p)
    return [i for i in among if modscreen.horner(num, thetas[i] % p, p) == fixed]


def _stabilizer(G: GaloisGroup, elements) -> tuple:
    """Indices of the automorphisms fixing every element of the list.  The
    fixers of e form a group, so a survivor is applied only outside the
    closure of the fixers verified so far, and the stabilizer is that closure."""
    idx = range(G.order)
    for e in elements:
        fixers, group = [], closure([], degree=len(G.splitting.roots))
        survivors = _survivors(G, e, idx)
        for i in survivors:
            if G.perm(i) not in group and G.automorphisms[i].apply(e) == e:
                fixers.append(G.perm(i))
                group = closure(fixers, max_order=G.order)
        idx = [i for i in survivors if G.perm(i) in group]
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
