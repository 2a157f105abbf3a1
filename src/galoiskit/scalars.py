"""Exact scalar fields: arbitrary-precision rationals and prime fields.

Rationals are ``fractions.Fraction`` values (always reduced, positive
denominator), wrapped by the singleton field object ``QQ``.  Prime fields
carry their own element class so that mod-p values cannot silently mix
with rationals or with a different modulus.

Three helpers serve every layer: ``power``, the one square-and-multiply
loop; ``primes_below``, the one cached descending walk over primes; and
``Record``, the base of the engine's immutable value classes.
"""

import itertools
import operator
from fractions import Fraction

Rational = Fraction


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power(base, k, one, mul=operator.mul):
    """base**k for k >= 0 by square-and-multiply, starting from one."""
    if k < 0:
        raise ValueError("negative power")
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def primes_below(bits):
    """The primes below 2**bits, descending; each found on first use and
    cached."""
    found = _PRIMES_BELOW.setdefault(bits, [])
    for i in itertools.count():
        if i == len(found):
            p = (found[-1] if found else 1 << bits) - 1
            while p > 1 and not is_prime(p):
                p -= 1
            if p < 2:
                return
            found.append(p)
        yield found[i]


_PRIMES_BELOW = {}


class Record:
    """An immutable record, a frozen dataclass without the code generation.

    A subclass lists its fields as class annotations, in constructor order,
    and a class attribute gives a field its default.  Records of the same
    class compare and hash as the tuple of their fields, except those named
    in ``_hidden``, which ``repr`` leaves out too.  Assignment raises
    AttributeError; ``__post_init__`` runs once the fields are set.
    """

    _hidden = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        # each field once: by position, by keyword or by default
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})

    def _key(self):
        return tuple(getattr(self, f) for f in self._shown)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RationalField:
    """The field of rational numbers; elements are Fraction values."""

    characteristic = 0
    name = "QQ"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def sort_key(self, x):
        return x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("galoiskit.QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeFieldElement:
    """A residue in Z/p for prime p."""

    __slots__ = ("value", "field")

    def __init__(self, value, field):
        self.value = value % field.p
        self.field = field

    def _check(self, other):
        if isinstance(other, int):
            return PrimeFieldElement(other, self.field)
        if isinstance(other, PrimeFieldElement):
            if other.field != self.field:
                from .errors import FieldMismatchError

                raise FieldMismatchError(f"mixed moduli {self.field.p} and {other.field.p}")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElement(self.value + o.value, self.field)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.field)

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElement(self.value - o.value, self.field)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElement(self.value * o.value, self.field)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return PrimeFieldElement(pow(self.value, self.field.p - 2, self.field.p), self.field)

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return PrimeFieldElement(pow(self.value, k, self.field.p), self.field)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.field.p
        if isinstance(other, PrimeFieldElement):
            return self.field == other.field and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


class PrimeField:
    """The field Z/p; p is verified prime at construction."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"

    @property
    def zero(self):
        return PrimeFieldElement(0, self)

    @property
    def one(self):
        return PrimeFieldElement(1, self)

    def coerce(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.field != self:
                from .errors import FieldMismatchError

                raise FieldMismatchError(f"mixed moduli {self.p} and {x.field.p}")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(x, self)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return PrimeFieldElement(x.numerator, self) / PrimeFieldElement(x.denominator, self)
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def sort_key(self, x):
        return x.value

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("galoiskit.GF", self.p))

    def __repr__(self):
        return self.name
