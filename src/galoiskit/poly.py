"""Dense univariate polynomial algebra over a pluggable coefficient field.

Coefficients are stored in ascending degree order with no trailing zeros,
so ``coeffs[i]`` is the coefficient of x**i and the zero polynomial has an
empty coefficient tuple.  All operations are exact and pure; polynomials
are immutable and freely shareable.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatchError
from .scalars import QQ, power, primes_below


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) if not _is_element(c, field) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (field.coerce(c),))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient (raises on the zero polynomial)."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((len(self.coeffs), self.coeffs))

    def _same_field(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(f"polynomials over {self.field} and {other.field}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.field, out)

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [self.field.zero] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = out[i] - c
        return Polynomial(self.field, out)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            # scalar multiple
            c = self.field.coerce(other) if not _is_element(other, self.field) else other
            return Polynomial(self.field, [a * c for a in self.coeffs])
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(self.field)
        out = [self.field.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, Polynomial.one(self.field))

    def __divmod__(self, other):
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.degree < other.degree:
            return Polynomial.zero(self.field), self
        rem = list(self.coeffs)
        dlc = other.lc
        dd = other.degree
        # a monic divisor needs no inverse, and the leading term cancels
        monic = dlc == self.field.one
        inv = None
        quot = [self.field.zero] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c, rem[i] = rem[i], self.field.zero
            if not c:
                continue
            if inv is None and not monic:
                inv = _invert(dlc)
            quot[i - dd] = q = c if monic else c * inv
            for j, oc in enumerate(other.coeffs[:-1]):
                rem[i - dd + j] = rem[i - dd + j] - q * oc
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- other operations ----------------------------------------------

    def monic(self):
        if self.is_zero:
            return self
        lc = self.lc
        if lc == self.field.one:
            return self
        inv = _invert(lc)
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        return Polynomial(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, v):
        """Horner evaluation, where a run of k zero coefficients costs one
        power v**(k+1): x**N - w takes O(log N) products.

        v may be an element of this polynomial's field, a coercible scalar,
        or an element of a larger field into which the coefficients coerce
        (evaluating a rational polynomial at a number-field element).
        """
        if _is_element(v, self.field) or getattr(v, "field", None) is None:
            v, field, lift = self.field.coerce(v), self.field, lambda c: c
        else:
            field, lift = v.field, v.field.coerce
        acc, gap = field.zero, 0
        for c in reversed(self.coeffs):
            if c:
                acc = acc * (v if gap == 0 else v ** (gap + 1)) + lift(c) if acc else lift(c)
                gap = 0
            else:
                gap += 1
        return acc * v ** gap if gap and acc else acc

    def compose(self, other):
        """Return self(other(x))."""
        self._same_field(other)
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * other + Polynomial.constant(self.field, c)
        return acc

    def map_coefficients(self, fn, field):
        return Polynomial(field, [fn(c) for c in self.coeffs])

    def sort_key(self):
        """Canonical ordering key: degree, then coefficient vector."""
        return (len(self.coeffs), tuple(self.field.sort_key(c) for c in self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.field!r}, {render_poly(self)!r})"


def _is_element(x, field):
    if field is QQ or isinstance(field, type(QQ)):
        return isinstance(x, Fraction)
    # PrimeField / ExtensionField elements carry a .field attribute
    return getattr(x, "field", None) == field


def _invert(c):
    if isinstance(c, Fraction):
        return 1 / c
    return c.inverse()


# ---------------------------------------------------------------------------
# module-level operations


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean algorithm.

    Over Q, coprime inputs return 1 at once: at the first prime below
    2**30 (the walk of ``modscreen``'s places) dividing neither leading
    coefficient of their primitive integer parts, the gcd mod p has
    at least the degree of the gcd over Q, so a unit gcd mod p proves it.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    p._same_field(q)
    if p.field == QQ and p and q and _coprime_mod_prime(p, q):
        return Polynomial.one(QQ)
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _coprime_mod_prime(p: Polynomial, q: Polynomial) -> bool:
    from .qfactor import _trim, _zp_gcd

    a = poly_content_and_primitive(p)[1]
    b = poly_content_and_primitive(q)[1]
    prime = next(x for x in primes_below(30) if a[-1] % x and b[-1] % x)
    return len(_zp_gcd(_trim([c % prime for c in a]), _trim([c % prime for c in b]), prime)) == 1


def poly_squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic: the product of p's distinct irreducible factors."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return Polynomial.one(p.field)
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def poly_squarefree_decomposition(p: Polynomial):
    """Yun's algorithm (characteristic zero).

    Returns [(monic squarefree part, multiplicity)] with
    p = lc(p) * prod part**multiplicity.
    """
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    out = []
    f = p.monic()
    if f.degree == 0:
        return out
    d = f.derivative()
    g = poly_gcd(f, d)
    if g.degree == 0:
        return [(f, 1)]
    w = f // g
    y = d // g
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        h = poly_gcd(w, z)
        if h.degree > 0:
            out.append((h.monic(), i))
        w = w // h
        y = z // h
        i += 1
    return out


def poly_compose_power(p: Polynomial, k: int) -> Polynomial:
    """Return p(x**k)."""
    if k < 1:
        raise ValueError("compose power requires k >= 1")
    if p.is_zero:
        return p
    out = [p.field.zero] * (p.degree * k + 1)
    for i, c in enumerate(p.coeffs):
        out[i * k] = c
    return Polynomial(p.field, out)


def poly_content_and_primitive(p: Polynomial):
    """For a rational polynomial: content c and primitive integer coefficient
    list (ascending) with p = c * primitive, primitive having gcd 1 and
    positive leading coefficient."""
    if p.field != QQ:
        raise ValueError("content extraction is for rational polynomials")
    if p.is_zero:
        return Fraction(0), [0]
    ints, den = _clear_denominators(p.coeffs)
    primitive = _zx_primitive(ints)
    return Fraction(ints[-1] // primitive[-1], den), primitive


def _clear_denominators(coeffs):
    """(integers, d) with coeffs[i] == integers[i] / d and d the least
    common denominator of the rational coefficients."""
    d = lcm(1, *(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _zx_primitive(a):
    """a over the gcd of its entries, leading entry positive; zeros as they are."""
    g = gcd(*a)
    if g == 0:
        return list(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def poly_from_int_coeffs(field, ints):
    return Polynomial(field, [field.coerce(c) for c in ints])


# ---------------------------------------------------------------------------
# rendering (shared by reports and the parser round-trip)


def render_coeff(c) -> str:
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return str(c)


def render_poly(p: Polynomial, var: str = "x") -> str:
    """Render with descending powers, parseable by the expression parser."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if not c:
            continue
        if isinstance(c, Fraction):
            neg = c < 0
            mag = -c if neg else c
        else:
            neg = False
            mag = c
        if i == 0:
            body = render_coeff(mag)
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            body = xpow if mag == p.field.one else f"{render_coeff(mag)}*{xpow}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)
