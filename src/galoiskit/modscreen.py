"""Mod-p images of absolute fields for cheap zero prescreening.

Mapping an exact computation into Z_p[x]/(minpoly mod p) is a ring
homomorphism wherever every denominator stays invertible, so an exact zero
always maps to zero.  A prescreen can therefore discard nonzero candidates
cheaply; survivors still get an exact verification, which keeps soundness
independent of the prime chosen here.  Products reduce by packed rows
built once per image (``qfactor._zp_mulmod``).
"""

from fractions import Fraction

from .qfactor import _trim, _zp_add, _zp_inverse, _zp_mulmod, _zp_powmod

_SCREEN_PRIMES = (1048583, 1048589, 1048601, 1048609, 1048613, 1048627, 1048633)


class ModImage:
    """Ring image of an ExtensionField over Q at a fixed prime."""

    def __init__(self, ext, prime):
        self.prime = prime
        self.n = ext.degree
        self.modulus = [self._frac(c) for c in ext.modulus.coeffs]
        if len(_trim(list(self.modulus))) != ext.degree + 1:
            raise ZeroDivisionError("leading coefficient vanished mod p")
        self.mul = _zp_mulmod(self.modulus, prime)

    def _frac(self, c):
        p = self.prime
        num = c.numerator % p
        den = c.denominator % p
        if den == 0:
            raise ZeroDivisionError("denominator vanished mod p")
        return num * pow(den, -1, p) % p

    def element(self, e):
        return _trim([self._frac(c) for c in e.coeffs])

    def scalar(self, c):
        return _trim([self._frac(Fraction(c))])

    def combine(self, scalars, elements):
        """Image of sum(s * e) for integers s and element images e."""
        p = self.prime
        acc = [0] * self.n
        for s, e in zip(scalars, elements):
            for i, c in enumerate(e):
                acc[i] += s * c
        return _trim([c % p for c in acc])

    def neg(self, a):
        return [(-c) % self.prime for c in a]

    def inv(self, a):
        """Ring inverse; raises ZeroDivisionError when a is a zero divisor."""
        return _zp_inverse(a, self.modulus, self.prime)

    def pow(self, a, k):
        if k < 0:
            return self.pow(self.inv(a), -k)
        return _zp_powmod(a, k, self.modulus, self.prime, self.mul)

    def eval_poly(self, coeff_images, v):
        """Horner evaluation of a polynomial given by element images."""
        acc = []
        for c in reversed(coeff_images):
            acc = _zp_add(self.mul(acc, v), c, self.prime)
        return acc


def make_image(ext):
    """Build a ModImage at the first usable screening prime, or None."""
    for p in _SCREEN_PRIMES:
        try:
            return ModImage(ext, p)
        except ZeroDivisionError:
            continue
    return None
