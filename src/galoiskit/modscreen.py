"""Degree-one places: scalar mod-p images of absolute fields for screening.

A place of Q(theta) at a prime p sends theta to a root a of its minimal
polynomial mod p and an element with p-integral coordinates e_k to
sum e_k * a**k: a ring homomorphism, so a nonzero image proves an element
nonzero, while an element with no image and every survivor are tested
exactly.  The prime splits each irreducible factor of the rational source
into distinct linear factors, so it splits completely in every field of
the tower; a new generator goes to a root of the adjoined factor's image,
and theta to the combination of generator images that theta is of the
generators.  Where theta's image is a simple root of its minimal
polynomial mod p, Newton iteration lifts it to a root mod p**k, and the
place to a ring map onto the integers mod p**k.
"""

import itertools
import random
from math import lcm

from .qfactor import _zp_equal_degree, _zp_mod, _zp_powmod
from .scalars import primes_below


class Place:
    """theta -> root mod modulus (the prime unless lifted), with the images
    of the tower generators."""

    def __init__(self, prime, root=1, gens=(), modulus=None):
        self.prime, self.root, self.gens = prime, root, gens
        self.modulus = modulus or prime

    def __call__(self, e):
        """Image of a rational or a field element (integer coordinates num
        over one denominator den), or None when p divides the denominator."""
        q = self.modulus
        num, den = (e.num, e.den) if hasattr(e, "num") else ((e.numerator,), e.denominator)
        return horner(num, self.root, q) * pow(den, -1, q) % q if den % self.prime else None

    def images(self, coeffs):
        out = [self(c) for c in coeffs]
        return None if None in out else out

    def extend(self, q, combo, modulus):
        """The place after adjoining a root of the monic q, when the new
        theta is sum combo_i * gen_i with minimal polynomial modulus."""
        p, qbar = self.prime, self.images(q.coeffs)
        if qbar is None or not _splits(qbar, p):
            return None
        factors = _zp_equal_degree(qbar, 1, p, random.Random(p))
        gens = self.gens + (min(-g[0] % p for g in factors),)
        place = Place(p, sum(c * g for c, g in zip(combo, gens)) % p, gens)
        m = place.images(modulus.coeffs)
        return place if m is not None and not horner(m, place.root, p) else None

    def lift(self, f, k):
        """This place lifted to the root of the p-integral f mod p**k by
        Newton iteration, each step doubling the precision; None when f has
        no image or the root is not simple."""
        p, pk = self.prime, self.prime ** k
        fk = Place(p, modulus=pk).images(f.coeffs)
        df = [i * c for i, c in enumerate(fk)][1:] if fk else None
        if not df or not horner(df, self.root, p):
            return None
        a, q = self.root, self.modulus
        while q < pk:
            q = min(q * q, pk)
            a = (a - horner(fk, a, q) * pow(horner(df, a, q), -1, q)) % q
        return Place(p, a % pk, modulus=pk)


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


def primes():
    """The 2048 largest primes below 2**30, descending."""
    return itertools.islice(primes_below(30), 2048)


def find(tower, factors):
    """The place of the tower's field, followed along its stages from Q, at
    the largest prime below 2**30 where each monic rational factor splits
    into distinct linear factors (tested in the order given, cheapest
    first); None after 2048 primes.  A binomial x**n - a has n distinct
    roots mod p only if n divides p - 1, so other primes are passed over
    untested."""
    combo = tower.absolute.theta_combo
    moduli = [m.field.modulus for _, _, m in tower.stages[1:]] + [tower.absolute.min_poly]
    step = lcm(*(f.degree for f in factors if not any(f.coeffs[1:-1])))
    for p in primes():
        place = Place(p)
        if (p - 1) % step or any(h is None or not _splits(h, p)
                                 for h in (place.images(f.coeffs) for f in factors)):
            continue
        for i, ((_, _, m), modulus) in enumerate(zip(tower.stages, moduli)):
            place = place and place.extend(m, combo[:i + 1], modulus)
        if place is not None:
            return place
    return None
