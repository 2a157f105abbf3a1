"""Degree-one places: scalar mod-p images of absolute fields for screening.

A place of Q(theta) at a prime p sends theta to a root a of its minimal
polynomial mod p and an element with p-integral coordinates e_k to
sum e_k * a**k: a ring homomorphism, so a nonzero image proves an element
nonzero, while an element with no image and every survivor are tested
exactly.  The prime splits each irreducible factor of the rational source
into distinct linear factors, so it splits completely in every field of
the tower; a new generator goes to a root of the adjoined factor's image,
and theta to the combination of generator images that theta is of the
generators.

A place found by ``find`` or ``split`` also carries every embedding of its
field, so the [F:Q] roots of theta's minimal polynomial mod p: ``numfield``
factors over the field at them, and ``galois`` reads the group off them.
The place lifts them to roots mod p**k, with the inverse Vandermonde rows
that interpolate at them, by one Hensel tree of the linear factors
x - a, each lift continuing the last (``qfactor._HenselTree``).
"""

import itertools
import random
from math import lcm
from operator import mul

from .qfactor import _HenselTree, _zp_equal_degree, _zp_mod, _zp_powmod
from .scalars import primes_below


class Place:
    """theta -> root mod modulus (the prime unless given), with the images
    of the tower generators; from ``find``, also the source (its rational
    factors, their roots mod p) and the embeddings, (theta's image,
    generator images) for each, or None."""

    def __init__(self, prime, root=1, gens=(), modulus=None, source=None, embeddings=None):
        self.prime, self.root, self.gens = prime, root, gens
        self.modulus = modulus or prime
        self.source, self.embeddings = source, embeddings
        self._tree, self._lifts = None, {}

    @property
    def conjugates(self):
        """theta's image under every embedding, or None."""
        return self.embeddings and [a for a, _ in self.embeddings]

    def __call__(self, e):
        """Image of a rational or a field element (integer coordinates num
        over one denominator den), or None when p divides the denominator."""
        q = self.modulus
        num, den = (e.num, e.den) if hasattr(e, "num") else ((e.numerator,), e.denominator)
        return horner(num, self.root, q) * pow(den, -1, q) % q if den % self.prime else None

    def lift(self, m, k):
        """(theta's conjugates lifted to roots of its minimal polynomial m
        mod p**k, the rows of the inverse Vandermonde matrix at them), once
        per k.  One Hensel tree of the linear factors x - a serves every k;
        a lift continues from the tree's last precision, and a k below it
        reads the roots there mod p**k."""
        if k not in self._lifts:
            p, pk = self.prime, self.prime ** k
            # m is monic: the tree's leading coefficient is 1
            self._tree = self._tree or _HenselTree([1], [[-a % p, 1] for a in self.conjugates], p)
            mk = Place(p, modulus=p ** max(k, self._tree.k)).images(m.coeffs)
            roots = [-g[0] % pk for g in self._tree.lift(mk, pk)[0]]
            self._lifts[k] = roots, _inverse_vandermonde(mk, roots, pk)
        return self._lifts[k]

    def images(self, coeffs):
        out = [self(c) for c in coeffs]
        return None if None in out else out

    def extend(self, q, combo, modulus):
        """The place after adjoining a root of the monic q, when the new
        theta is sum combo_i * gen_i with minimal polynomial modulus.  Each
        embedding extends by the source's roots where its image of q
        vanishes, kept when theta's images are deg modulus distinct roots of
        it; the new generator goes to the least root of q's image here."""
        p, m = self.prime, Place(self.prime).images(modulus.coeffs)
        if m is None:
            return None
        out = []
        for a, gens in self.embeddings or ():
            qa = Place(p, a).images(q.coeffs)
            out += [(sum(map(mul, combo, gens + (b,))) % p, gens + (b,))
                    for b in self.source[1] if qa and not horner(qa, b, p)]
        thetas = {a for a, _ in out}
        if out and len(thetas) == len(out) == len(m) - 1 and not any(horner(m, a, p) for a in thetas):
            gens = self.gens + (min(g[-1] for _, g in out if g[:-1] == self.gens),)
        else:
            own, out = split(self.images(q.coeffs), p), None
            if own is None:
                return None
            gens = self.gens + (own.root,)
        place = Place(p, sum(map(mul, combo, gens)) % p, gens, source=self.source, embeddings=out)
        return None if horner(m, place.root, p) else place


def _inverse_vandermonde(m, roots, q):
    """Row t holds the x**t coefficients of the Lagrange polynomials
    (m / (x - a)) / m'(a) at the roots a of m mod q: row t times the values
    of a polynomial of degree < deg m at the roots is its t-th coefficient."""
    columns = []
    for a in roots:
        quo = list(itertools.accumulate(reversed(m[1:]), lambda acc, c: (acc * a + c) % q))[::-1]
        inv = pow(horner(quo, a, q), -1, q)
        columns.append([c * inv % q for c in quo])
    return list(zip(*columns))


def horner(f, v, p):
    """f(v) mod p for residues f, ascending."""
    acc = 0
    for c in reversed(f):
        acc = (acc * v + c) % p
    return acc


def vanishes(place, f):
    """A test that the polynomial f vanishes at a field element: its image
    at the place screens, and only a survivor is evaluated exactly."""
    img = place.images(f.coeffs) if place is not None else None

    def test(e):
        v = place(e) if img is not None else None
        return (v is None or not horner(img, v, place.prime)) and not f.evaluate(e)

    return test


def _splits(h, p):
    """x**p == x mod (h, p): the monic h splits into distinct linear factors."""
    return _zp_powmod([0, 1], p, h, p) == _zp_mod([0, 1], h, p)


def split(h, p):
    """theta -> the least root of h, residues mod p of a monic polynomial,
    with every root an embedding; None unless h splits into distinct linear
    factors."""
    if h is not None and _splits(h, p):
        roots = sorted(-g[0] % p for g in _zp_equal_degree(h, 1, p, random.Random(p)))
        return Place(p, roots[0], embeddings=[(a, ()) for a in roots])


def primes():
    """The 2048 largest primes below 2**30, descending."""
    return itertools.islice(primes_below(30), 2048)


def find(tower, factors):
    """The place of the tower's field, followed along its stages from Q, at
    the largest prime below 2**30 where each monic rational factor splits
    into distinct linear factors (tested in the order given, cheapest
    first); None after 2048 primes.  A binomial x**n - a has n distinct
    roots mod p only if n divides p - 1, so other primes are passed over
    untested.  The roots of the factors mod p are found once, at the prime
    accepted, and every embedding follows them."""
    combo = tower.absolute.theta_combo
    moduli = [m.field.modulus for _, _, m in tower.stages[1:]] + [tower.absolute.min_poly]
    step = lcm(*(f.degree for f in factors if not any(f.coeffs[1:-1])))
    for p in primes():
        images = (p - 1) % step == 0 and [Place(p).images(f.coeffs) for f in factors]
        if not images or any(h is None or not _splits(h, p) for h in images):
            continue
        rng = random.Random(p)
        roots = sorted({-g[0] % p for h in images for g in _zp_equal_degree(h, 1, p, rng)})
        place = Place(p, source=(tuple(factors), roots), embeddings=[(1, ())])
        for i, ((_, _, m), modulus) in enumerate(zip(tower.stages, moduli)):
            place = place and place.extend(m, combo[:i + 1], modulus)
        if place is not None:
            return place
    return None
