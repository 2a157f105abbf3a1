"""Finite permutation-group theory at desk scale.

Groups are fully enumerated (no stabilizer chains); the closure bound keeps
everything honest.  Composition convention: (g * h)(i) = g(h(i)), so
permutations act on the left.

Subgroups of a known group close on element indices (``close_under``), and
greedy generators and coset representatives take the group's product as an
argument: the lattice reads one Cayley table, and a Galois group computes
each product when a closure first asks for it.  An embedding into an
abelian target (Z_n, U(n), a sum of copies of Z_n) is a graph in
G x target closed by the same ``close_under``.

Frobenius cycle types, read off factor degrees mod small primes, live here
too: they certify a group containing A_n and bound a splitting degree before
any field is built, so the verdict and the cap refusal need no field layer.
"""

import functools
import itertools
import math
from typing import Optional

from .checks import record_check
from .errors import GroupOrderLimitError
from .qfactor import _PRIME_POOL, factor_degrees_mod_p
from .scalars import Record, is_prime, power


class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images}")
        self.images = images

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def of_cycle_type(cls, lengths):
        """Disjoint cycles of the given lengths on consecutive points."""
        images = []
        for length in lengths:
            start = len(images)
            images.extend(range(start + 1, start + length))
            images.append(start)
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        # (self * other)(i) = self(other(i)), a bijection: no re-check
        if len(self.images) != len(other.images):
            raise ValueError(f"degrees differ: {self.degree} and {other.degree}")
        product = object.__new__(Permutation)
        product.images = tuple(map(self.images.__getitem__, other.images))
        return product

    def __pow__(self, k):
        base = self if k >= 0 else self.inverse()
        return power(base, abs(k), Permutation.identity(len(self.images)))

    def inverse(self):
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Permutation(out)

    @property
    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def order(self):
        k = 1
        p = self
        while not p.is_identity:
            p = p * self
            k += 1
        return k

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                seen.add(i)
                continue
            cyc = [i]
            seen.add(i)
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_notation(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cyc)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation{self.images}"


MAX_CLOSURE_ORDER = 5040


class PermGroup(Record):
    """A fully enumerated permutation group, elements in canonical order."""

    degree: int
    elements: tuple
    generators: tuple = ()
    element_set: frozenset = None
    _hidden = ("element_set",)

    def __post_init__(self):
        if self.element_set is None:
            object.__setattr__(self, "element_set", frozenset(self.elements))

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, p):
        return p in self.element_set

    def is_subgroup_of(self, other):
        return self.element_set <= other.element_set

    @property
    def is_trivial(self):
        return len(self.elements) == 1

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def close_under(product, generators, identity, max_order=None):
    """Sorted elements of the group generated under product(g, p), the
    element g * p, closed breadth-first from the identity.  Raises
    GroupOrderLimitError past max_order elements."""
    seen, frontier = {identity}, {identity}
    while frontier:
        frontier = {product(g, p) for p in frontier for g in generators} - seen
        seen |= frontier
        if max_order is not None and len(seen) > max_order:
            raise GroupOrderLimitError(f"group order exceeds the bound {max_order}")
    return tuple(sorted(seen))


def closure(generators, degree=None, max_order=None) -> PermGroup:
    """Full element enumeration by breadth-first products of the generators
    (``close_under``), past max_order elements (default MAX_CLOSURE_ORDER)
    a GroupOrderLimitError."""
    gens = list(generators)
    if degree is None:
        if not gens:
            raise ValueError("closure of an empty set needs an explicit degree")
        degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError("generators act on different numbers of points")
    elements = close_under(Permutation.__mul__, gens, Permutation.identity(degree),
                           MAX_CLOSURE_ORDER if max_order is None else max_order)
    return PermGroup(degree, elements, tuple(gens))


def _verify_subgroup(H: PermGroup, G: PermGroup):
    if not H.is_subgroup_of(G):
        raise ValueError("H is not contained in G")


def is_normal(H: PermGroup, G: PermGroup) -> bool:
    """gHg^-1 == H for all g in G (H verified to be a subgroup of G)."""
    _verify_subgroup(H, G)
    hset = H.element_set
    for g in G.elements:
        gi = g.inverse()
        for h in H.elements:
            if g * h * gi not in hset:
                return False
    return True


def derived_subgroup(G: PermGroup) -> PermGroup:
    """Closure of all commutators g h g^-1 h^-1."""
    comms = set()
    for g in G.elements:
        gi = g.inverse()
        for h in G.elements:
            comms.add(g * h * gi * h.inverse())
    return closure(sorted(comms), degree=G.degree, max_order=max(MAX_CLOSURE_ORDER, G.order))


def derived_series(G: PermGroup):
    """G >= G' >= G'' >= ... down to the fixed point of the derived map."""
    series = [G]
    while True:
        nxt = derived_subgroup(series[-1])
        if nxt.order == series[-1].order:
            if not nxt.is_trivial:
                series.append(nxt)
            break
        series.append(nxt)
        if nxt.is_trivial:
            break
    return series


def is_solvable(G: PermGroup):
    """(solvable?, derived series); solvable iff the series reaches 1."""
    series = derived_series(G)
    return series[-1].is_trivial, series


def is_abelian(G: PermGroup) -> bool:
    els = G.elements
    for i, g in enumerate(els):
        for h in els[i + 1:]:
            if g * h != h * g:
                return False
    return True


# ---------------------------------------------------------------------------
# cycle-type certificates (Jordan)


class CycleTypeCertificate(Record):
    """Proof that a transitive group of degree n contains A_n, read off the
    cycle types of elements it is known to contain.

    ``group`` is "S_n" or "A_n or S_n".  ``primitivity`` is the (label,
    cycle type) pair of a type (1, n-1), or None when n is prime.  ``power``
    is (label, cycle type, exponent, p): that type raised to the exponent is
    a single p-cycle.
    """

    group: str
    primitivity: Optional[tuple]
    power: tuple


def single_cycle_power(lengths):
    """(exponent, p) such that a permutation with these cycle lengths,
    raised to the exponent, is a single p-cycle for a prime p; the least
    such p, or None.

    It needs exactly one cycle of length p and no other length divisible by
    p: the lcm of the other lengths then kills every other cycle and is
    prime to p, so the p-cycle survives as a p-cycle.
    """
    for p in sorted(set(lengths)):
        if not is_prime(p) or lengths.count(p) != 1:
            continue
        others = [c for c in lengths if c != p]
        if all(c % p for c in others):
            return math.lcm(1, *others), p
    return None


def cycle_type_certificate(n, samples) -> Optional[CycleTypeCertificate]:
    """Certify that a transitive group of degree n contains A_n, from a
    sequence of (label, sorted cycle type) samples of its elements; None if
    they do not.

    The group is primitive when n is prime, or when some type is (1, n-1):
    the point stabilizer then holds an (n-1)-cycle, so the group is
    2-transitive.  Jordan (Wielandt, Finite Permutation Groups, section 13):
    a primitive group containing a transposition is S_n, and one containing
    a p-cycle with p prime and p <= n - 3 contains A_n.  At n = 5 a 3-cycle
    also forces A_5 or S_5, the only transitive subgroups of S_5 with order
    divisible by 3.
    """
    primitivity = None
    if not is_prime(n):
        primitivity = next((s for s in samples if s[1] == (1, n - 1)), None)
        if primitivity is None:
            return None
    transposition = None
    small_cycle = None
    for label, ctype in samples:
        step = single_cycle_power(ctype)
        if step is None:
            continue
        exponent, p = step
        if p == 2 and transposition is None:
            transposition = (label, ctype, exponent, p)
        elif p > 2 and (p <= n - 3 or (n == 5 and p == 3)) and small_cycle is None:
            small_cycle = (label, ctype, exponent, p)
    if transposition is not None:
        return CycleTypeCertificate("S_n", primitivity, transposition)
    if small_cycle is not None:
        return CycleTypeCertificate("A_n or S_n", primitivity, small_cycle)
    return None


# ---------------------------------------------------------------------------
# Frobenius cycle types, and the provable lower bound for early degree-cap
# refusal; both run before any field is built

DEFAULT_WITNESS_PRIMES = tuple(_PRIME_POOL[:25])  # the primes up to 97


def scan_cycle_types(h, primes=None):
    """Frobenius cycle types of an irreducible rational h, one per good prime
    of the list (default ``DEFAULT_WITNESS_PRIMES``), until they certify
    that the group of h is S_n; returns (samples, certificate or None).

    Factor degrees mod a good prime are the cycle type of a Frobenius
    element, so the group holds an element of every sampled type
    (``cycle_type_certificate``).
    """
    return _scan_cycle_types(h, tuple(primes) if primes else DEFAULT_WITNESS_PRIMES)


@functools.lru_cache(maxsize=32)
def _scan_cycle_types(h, primes):
    # one scan per (polynomial, prime list): a verdict's quintic
    # witness and the splitting-degree bound ask for the same one
    samples = []
    certificate = None
    for prime in primes:
        degrees = factor_degrees_mod_p(h, prime)
        if degrees is None:
            continue
        samples.append((prime, tuple(degrees)))
        certificate = cycle_type_certificate(h.degree, samples)
        if certificate is not None and certificate.group == "S_n":
            break
    return tuple(samples), certificate


def _splitting_degree_lower_bound(factors) -> int:
    """A divisor of the splitting-field degree, from Frobenius cycle types of
    the irreducible rational factors of the source.

    The order of a Frobenius element, the lcm of its cycle lengths, divides
    the group order, which equals the splitting degree.  Each irreducible
    rational factor's splitting field sits normally inside the full one, so
    its bound divides too.  When the cycle types certify that a factor of
    degree n has group S_n, or A_n or S_n, its bound is n! or n!/2.
    """
    bound = 1
    for h in factors:
        if h.degree < 2:
            continue
        samples, certificate = scan_cycle_types(h)
        bound = math.lcm(bound, *(d for _, degrees in samples for d in degrees))
        if certificate is not None:
            order = math.factorial(h.degree)
            bound = math.lcm(bound, order if certificate.group == "S_n" else order // 2)
    return bound


# ---------------------------------------------------------------------------
# abelian-quotient chain certificates


class ChainStepWitness(Record):
    group_order: int
    subgroup_order: int
    quotient_order: int
    normal: bool
    quotient_abelian: bool


class ChainCertificate(Record):
    accepted: bool
    steps: tuple
    failure: str = ""

    def to_dict(self):
        return {
            "accepted": self.accepted,
            "steps": [
                {
                    "group_order": s.group_order,
                    "subgroup_order": s.subgroup_order,
                    "quotient_order": s.quotient_order,
                    "normal": s.normal,
                    "quotient_abelian": s.quotient_abelian,
                }
                for s in self.steps
            ],
            "failure": self.failure,
        }


def coset_representatives(product, elements, subgroup):
    """The first of the elements in each left coset g * subgroup, in the
    order of the elements, for the group product(g, h) = g * h."""
    reps, covered = [], set()
    for g in elements:
        if g not in covered:
            reps.append(g)
            covered.update(product(g, h) for h in subgroup)
    return reps


def _quotient_abelian(G: PermGroup, H: PermGroup) -> bool:
    """Abelianness of G/H checked on coset representatives."""
    reps = coset_representatives(Permutation.__mul__, G.elements, H.elements)
    hset = H.element_set

    def same_coset(a, b):
        return a.inverse() * b in hset

    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            if not same_coset(a * b, b * a):
                return False
    return True


def solvable_via_abelian_chain(chain) -> ChainCertificate:
    """Certify a descending chain G_0 >= G_1 >= ... >= G_n = 1 as exhibiting
    solvability: each step normal with abelian quotient.

    Shape violations (non-descending, nontrivial tail) raise; mathematical
    failures are reported in the certificate.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    for a, b in zip(chain, chain[1:]):
        if not b.is_subgroup_of(a):
            raise ValueError("chain is not descending")
    if not chain[-1].is_trivial:
        raise ValueError("chain must end with the trivial group")
    steps = []
    for i, (g, h) in enumerate(zip(chain, chain[1:])):
        normal = is_normal(h, g)
        abelian = _quotient_abelian(g, h) if normal else False
        steps.append(ChainStepWitness(g.order, h.order, g.order // h.order, normal, abelian))
        if not normal:
            return ChainCertificate(False, tuple(steps), f"step {i}: subgroup not normal")
        if not abelian:
            return ChainCertificate(False, tuple(steps), f"step {i}: quotient not abelian")
    return ChainCertificate(True, tuple(steps))


# ---------------------------------------------------------------------------
# subgroup enumeration (for the Galois duality tests)


def all_subgroups(G: PermGroup):
    """Every subgroup, by breadth-first closure over added generators: one g
    per right coset Hg, the first in canonical order, since <H, hg> = <H, g>;
    on indices into G.elements, with one Cayley table."""
    position = {g: i for i, g in enumerate(G.elements)}
    table = [[position[g * h] for h in G.elements] for g in G.elements]
    identity = position[Permutation.identity(G.degree)]
    found = {(identity,): ()}  # member indices -> generator indices
    frontier = list(found)
    while frontier:
        nxt = []
        for H in frontier:
            covered = set(H)
            for g in range(len(G.elements)):
                if g not in covered:
                    covered.update(table[h][g] for h in H)
                    K = close_under(lambda a, b: table[a][b], found[H] + (g,), identity)
                    if K not in found:
                        found[K] = found[H] + (g,)
                        nxt.append(K)
        frontier = nxt
    groups = [PermGroup(G.degree, tuple(sorted(G.elements[i] for i in K)),
                        tuple(G.elements[i] for i in gens)) for K, gens in found.items()]
    return sorted(groups, key=lambda H: (H.order, tuple(p.images for p in H.elements)))


# ---------------------------------------------------------------------------
# cyclic and unit groups; embeddings of Galois layers


class _AbelianTarget:
    """An embedding target listed by ``elements``: its order is their count."""

    @property
    def order(self):
        return len(self.elements())


class CyclicGroupZ(_AbelianTarget, Record):
    """The additive group Z_n."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")

    def elements(self):
        return tuple(range(self.modulus))

    def identity(self):
        return 0

    def op(self, a, b):
        return (a + b) % self.modulus

    def describe(self):
        return f"Z_{self.modulus}"


class UnitGroup(_AbelianTarget, Record):
    """U(n): residues coprime to n under multiplication."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("unit groups need n >= 2")

    def elements(self):
        n = self.modulus
        return tuple(a for a in range(1, n) if math.gcd(a, n) == 1)

    def identity(self):
        return 1

    def op(self, a, b):
        return a * b % self.modulus

    def describe(self):
        return f"U({self.modulus})"


class DirectSumZ(_AbelianTarget, Record):
    """Direct sum of m copies of Z_n; elements are m-tuples."""

    modulus: int
    copies: int

    def __post_init__(self):
        if self.modulus < 1 or self.copies < 1:
            raise ValueError("need modulus >= 1 and copies >= 1")

    def elements(self):
        return tuple(itertools.product(range(self.modulus), repeat=self.copies))

    def identity(self):
        return (0,) * self.copies

    def op(self, a, b):
        return tuple((x + y) % self.modulus for x, y in zip(a, b))

    def describe(self):
        return f"Z_{self.modulus}^{self.copies}"


def unit_group(n: int) -> UnitGroup:
    return UnitGroup(n)


def aut_cyclic(n: int):
    """All automorphisms of the additive group Z_n, with the verified
    isomorphism onto U(n) (multiplication maps k -> m*k).

    Returns (UnitGroup, {m: image tuple of the automorphism}).
    """
    if n < 2:
        raise ValueError("aut_cyclic needs n >= 2")
    U = UnitGroup(n)
    witness = {}
    for m in U.elements():
        auto = tuple(m * k % n for k in range(n))
        # verify additivity and bijectivity exhaustively (desk scale)
        record_check("aut_cyclic.bijective", sorted(auto) == list(range(n)))
        ok = all(auto[(i + j) % n] == (auto[i] + auto[j]) % n for i in range(n) for j in range(n))
        record_check("aut_cyclic.additive", ok)
        witness[m] = auto
    # the correspondence is an isomorphism: composition matches multiplication
    for m1 in U.elements():
        for m2 in U.elements():
            composed = tuple(witness[m1][witness[m2][k]] for k in range(n))
            record_check("aut_cyclic.homomorphism", composed == witness[U.op(m1, m2)])
    return U, witness


class Embedding(Record):
    """A verified injective homomorphism from a PermGroup into a target."""

    target: object
    mapping: tuple  # pairs (Permutation, target element), group order long


def find_embedding(G: PermGroup, target):
    """Search for an injective homomorphism G -> target; None is definitive
    at desk scale.

    The target is one of CyclicGroupZ, UnitGroup, DirectSumZ.  Since all
    targets are abelian, non-abelian G fails immediately.  The greedy
    generators g_i of G take images t_i in the target's element order, each
    t_i with t_i**order(g_i) = e; the pairs (g_i, t_i) close
    (``close_under``) to a subgroup of G x target, the graph of an injective
    homomorphism on <g_i> exactly when both projections are one to one.
    """
    if G.order > target.order or (G.order > 1 and not is_abelian(G)):
        return None
    unit = (Permutation.identity(G.degree), target.identity())
    gens = _small_generating_set(Permutation.__mul__, G.elements, unit[0])
    images = target.elements()

    def product(a, b):
        return a[0] * b[0], target.op(a[1], b[1])

    def graphs(pairs):
        # graphs of injective homomorphisms on <gens> extending the pairs,
        # in the order the images are tried
        graph = close_under(product, pairs, unit)
        if any(len(set(side)) < len(graph) for side in zip(*graph)):
            return
        if len(pairs) == len(gens):
            yield graph
            return
        g = gens[len(pairs)]
        k = g.order()
        for t in images:
            if power(t, k, unit[1], target.op) == unit[1]:
                yield from graphs(pairs + [(g, t)])

    graph = next(graphs([]), None)
    if graph is None:
        return None
    mapping = dict(graph)
    # final verification: homomorphism on all pairs, injective
    record_check("embedding.injective", len(set(mapping.values())) == len(mapping))
    record_check("embedding.homomorphism", all(mapping[a * b] == target.op(mapping[a], mapping[b])
                                                for a in mapping for b in mapping))
    # close_under sorted the graph by permutation images
    return Embedding(target, graph)


def _small_generating_set(product, elements, identity):
    """Greedy generators of a group: each of its elements, in the given
    order, that lies outside the closure (``close_under``) of those before."""
    gens, span = [], {identity}
    for g in elements:
        if g not in span:
            gens.append(g)
            span = set(close_under(product, gens, identity))
    return gens
