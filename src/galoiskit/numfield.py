"""Arithmetic in finite extensions of Q.

Every field is a quotient Q[x]/(m) for a monic irreducible m over Q.  A
tower of adjunctions is flattened at each stage to a primitive element, so
every working field is an absolute field Q(theta); towers are a
construction device that remembers where each generator went.

An element is stored as integer coordinates over one positive denominator
in lowest terms (Cohen, GTM 138, 4.2.2), so sums, scalings and products run
on integers with one gcd each; ``Fraction`` is only the rational view
``coeffs``.  Inverses are read off one ``linalg.integer_kernel`` and
checked by one exact product.

One routine finds minimal polynomials over Q: the coordinate vectors of
1, z, ..., z**limit are the columns of one ``linalg.integer_kernel``, whose
first free column is the first dependent power and whose kernel vector
there is the relation (Cohen, GTM 138, Alg. 2.3.1).  One further column
may be a target, read off as coordinates in the power basis when the
relation has full degree.  It serves ``minimal_polynomial``, the
primitive-element search of each adjunction with theta_old as its one
target, and Trager's norm over a field without places (below).  The
powers of z = w + u*y in F[y]/(m) are computed on integer
theta-coordinates over one rational scale, and the kernel is read on
integers, so only the results are ``Fraction``.

One substitution map a(theta) -> a(t), an integer matrix of the powers of t
over one denominator, moves elements up the tower and through automorphisms
by one integer matrix-vector product.  Each adjunction builds one, from
theta_old's image, and it also gives the old generators' images.
"""

from fractions import Fraction
from itertools import islice
from math import ceil, gcd, lcm
from operator import add, mul, sub

from .checks import record_check
from .errors import DEFAULT_DEGREE_CAP, DegreeCapError, FieldMismatchError, PrimitiveSearchError
from .linalg import integer_kernel
from .poly import (
    Polynomial,
    _clear_denominators,
    poly_gcd,
    poly_squarefree_decomposition,
    poly_squarefree_part,
)
from .qfactor import (MAX_LIFT_BITS, Factorization, _HenselTree, _rational_reconstruction,
                      _root_bound, _sorted_factors, _symmetric, _zp_gcd, _zp_product,
                      _zp_squarefree_image, factor_over_Q)
from .scalars import QQ, power
from . import modscreen

PRIMITIVE_SEARCH_RANGE = 20


class ExtElement:
    """An element of an ExtensionField: integer coordinates ``num`` over one
    positive denominator ``den`` in lowest terms, gcd(den, *num) == 1, so
    zero is (0, ..., 0) over 1.  ``coeffs`` is the rational view."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        self.field = field
        self.num = num  # tuple of ints, length == field.degree
        self.den = den

    @property
    def coeffs(self):
        """The rational coordinates, built on demand."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    def _other(self, x):
        if isinstance(x, ExtElement):
            if x.field is self.field or x.field == self.field:
                return x
            raise FieldMismatchError("elements of different extension fields")
        try:
            return self.field.coerce(x)
        except TypeError:
            return NotImplemented

    def _combine(self, other, op):
        """op on the coordinates over the lcm of the two denominators."""
        o = self._other(other)
        if o is NotImplemented:
            return o
        den = lcm(self.den, o.den)
        a = self.num if self.den == den else [v * (den // self.den) for v in self.num]
        b = o.num if o.den == den else [v * (den // o.den) for v in o.num]
        return _reduced(self.field, list(map(op, a, b)), den)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return ExtElement(self.field, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return _reduced(self.field, [v * k for v in self.num], self.den * other.denominator)
        o = self._other(other)
        if o is NotImplemented:
            return o
        return self.field._mul(self, o)

    __rmul__ = __mul__

    def inverse(self):
        """One ``linalg.integer_kernel`` on the columns A*theta**j, j < n,
        A = den*a (each an integer vector over its own denominator d_j), and
        the constant 1, accepted only when a*b == 1 exactly.  For a unit the
        first free column is the last: its vector v gives
        sum v_j*d_j*theta**j = -v_n / A.  An earlier free column is a
        dependence among the A*theta**j, so a is a zero divisor."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f, n = self.field, self.field.degree
        if not any(self.num[1:]):
            c = self.num[0]
            return ExtElement(f, (self.den if c > 0 else -self.den,) + f._zeros, abs(c))
        columns = [ExtElement(f, self.num)]
        for _ in range(n - 1):
            columns.append(columns[-1] * f.gen)
        rows = [[x.num[i] for x in columns] + [int(i == 0)] for i in range(n)]
        c, v = next(integer_kernel(rows))
        if c < n:
            raise ArithmeticError("modulus is reducible: gcd with element is nonconstant")
        s = -self.den if v[n] > 0 else self.den
        b = _reduced(f, [s * v.get(j, 0) * x.den for j, x in enumerate(columns)], abs(v[n]))
        if self * b != f.one:
            raise ArithmeticError("inverse failed its exact check (internal)")
        return b

    def __truediv__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.field.one)

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            if other.field is not self.field and other.field != self.field:
                return NotImplemented
        else:
            try:
                other = self.field.coerce(other)
            except (TypeError, FieldMismatchError):
                return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.field.degree, self.coeffs))

    def __bool__(self):
        return any(self.num)

    def rep_poly(self):
        """Residue representation as a polynomial over Q."""
        return Polynomial(self.field.base, self.coeffs)

    def sort_key(self):
        return self.coeffs

    def __repr__(self):
        from .poly import render_poly

        return render_poly(self.rep_poly(), self.field.gen_name)


def _reduced(field, num, den):
    """num/den in lowest terms, for an integer list num and den > 0."""
    g = gcd(den, *num) if den > 1 else 1
    return ExtElement(field, tuple(v // g for v in num) if g > 1 else tuple(num), den // g)


class ExtensionField:
    """Q[x]/(m): residues modulo a monic polynomial m over Q."""

    characteristic = 0

    def __init__(self, base, modulus: Polynomial, gen_name: str = "a"):
        if base != QQ:
            raise ValueError(f"extension fields are built over QQ only, not {base!r}")
        if modulus.field != base:
            raise FieldMismatchError("modulus must live over the base field")
        if modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        self.base = base
        self.modulus = modulus.monic()
        self.degree = modulus.degree
        self.gen_name = gen_name
        self.name = f"{base.name}[{gen_name}]"
        self._hash = hash(("galoiskit.Ext", base, self.modulus.coeffs))
        # reduction rows x**(n+j) mod modulus, j < n-1, as integer rows over
        # one common denominator d
        n = self.degree
        self._zeros = (0,) * (n - 1)
        rows = []
        row = tuple(-self.modulus.coeff(i) for i in range(n))
        for _ in range(n - 1):
            rows.append(row)
            shifted = (Fraction(0),) + row[:-1]
            top = row[-1]
            row = tuple(s + top * r for s, r in zip(shifted, rows[0])) if top else shifted
        d = lcm(1, *(c.denominator for row in rows for c in row))
        self._int_rows = (
            [tuple(c.numerator * (d // c.denominator) for c in row) for row in rows],
            d,
        )

    def _mul(self, a, b):
        """The product of two elements: ``_int_mul`` on their integer
        coordinates, then one normalization."""
        return _reduced(self, self._int_mul(a.num, b.num), a.den * b.den * self._int_rows[1])

    def _int_mul(self, ai, bi):
        """Product of two integer coefficient vectors reduced modulo the
        defining polynomial, scaled by the reduction rows' denominator d:
        for a = ai/da and b = bi/db the result r satisfies a*b = r/(da*db*d).
        """
        n = self.degree
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(ai):
            if x:
                for j, y in enumerate(bi):
                    if y:
                        conv[i + j] += x * y
        rows, d = self._int_rows
        out = [conv[i] * d for i in range(n)]
        for j in range(n - 1):
            c = conv[n + j]
            if c:
                row = rows[j]
                for i in range(n):
                    if row[i]:
                        out[i] += c * row[i]
        return out

    @property
    def zero(self):
        return ExtElement(self, (0,) * self.degree)

    @property
    def one(self):
        return ExtElement(self, (1,) + self._zeros)

    @property
    def gen(self):
        if self.degree == 1:
            # x = root of the linear modulus: the residue is a constant
            return self.coerce(-self.modulus.coeff(0))
        return ExtElement(self, (0, 1) + self._zeros[1:])

    def coerce(self, x):
        if isinstance(x, ExtElement):
            if x.field is self or x.field == self:
                return x
            raise FieldMismatchError("cannot coerce element of an unrelated field")
        if isinstance(x, (int, Fraction)):
            return ExtElement(self, (x.numerator,) + self._zeros, x.denominator)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def from_rep(self, coeffs):
        """Element from rational coefficients (length at most the degree)."""
        if len(coeffs) > self.degree:
            raise ValueError("representation longer than field degree")
        num, den = _clear_denominators(coeffs)
        return ExtElement(self, tuple(num) + (0,) * (self.degree - len(num)), den)

    def sort_key(self, x):
        return x.coeffs

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ExtensionField)
            and other.degree == self.degree
            and other.modulus.coeffs == self.modulus.coeffs
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.name


def q_coords(x):
    """Rational coordinates of x with respect to the power basis."""
    return x.coeffs


def element_sort_key(x):
    """Canonical ordering key: ascending residue coefficient vector."""
    return x.coeffs


# ---------------------------------------------------------------------------
# absolute fields and towers


class AbsoluteField:
    """Q(theta) together with images of the tower generators in theta, and
    ``lift_from_prev``, the adjunction's map from the previous absolute
    field (None over Q)."""

    def __init__(self, ext, gen_names=(), gen_images=(), theta_combo=(), lift_from_prev=None):
        self.ext = ext
        self.min_poly = ext.modulus
        self.gen_names = tuple(gen_names)
        self.gen_images = tuple(gen_images)
        self.theta_combo = tuple(theta_combo)  # theta = sum combo_i * gen_i
        self.lift_from_prev = lift_from_prev

    @property
    def degree(self):
        return self.ext.degree

    @property
    def theta(self):
        return self.ext.gen

    def __repr__(self):
        return f"AbsoluteField(degree={self.degree}, generators={list(self.gen_names)})"


class FieldTower:
    """Stages of adjunctions over Q, flattened to an absolute field."""

    def __init__(self, stages, absolute):
        self.stages = tuple(stages)
        self.absolute = absolute

    @classmethod
    def rationals(cls):
        x = Polynomial.x(QQ)
        ext = ExtensionField(QQ, x - Polynomial.one(QQ), "a")
        return cls((), AbsoluteField(ext))

    @property
    def degree(self):
        return self.absolute.degree

    def generator(self, i):
        return self.absolute.gen_images[i]

    def adjoin(self, m: Polynomial, name: str, verify: bool = True,
               degree_cap: int = DEFAULT_DEGREE_CAP):
        """Adjoin a root of monic irreducible m (over the current absolute field).

        Returns the extended tower; the new absolute field can lift elements
        of the old one via ``lift_from_prev``.
        """
        cur = self.absolute
        if m.field != cur.ext:
            raise FieldMismatchError("stage polynomial must live over the current field")
        m = m.monic()
        if m.degree < 1:
            raise ValueError("stage polynomial must have degree >= 1")
        new_degree = self.degree * m.degree
        if new_degree > degree_cap:
            raise DegreeCapError(
                f"adjunction would reach degree {new_degree} > cap {degree_cap}",
                attempted=new_degree, cap=degree_cap)
        if verify:
            fac = factor_over_number_field(m)
            if len(fac.factors) != 1 or fac.factors[0][1] != 1:
                raise ValueError("stage polynomial is reducible over the base field")
        absolute = _flatten(cur, m, name)
        stage = (name, m.degree, m)
        return FieldTower(self.stages + (stage,), absolute)

    def __repr__(self):
        names = ", ".join(s[0] for s in self.stages) or "-"
        return f"FieldTower(degree={self.degree}, stages=[{names}])"


def _flatten(cur: AbsoluteField, m: Polynomial, name: str) -> AbsoluteField:
    """Flatten (current absolute field) + one stage to a new primitive element.

    theta_new = theta_old + c * y, y the new generator, for the first c in
    1, -1, 2, -2, ... whose minimal polynomial has full degree; the classical
    primitive element theorem guarantees all but finitely many c work.  Its
    kernel reads one target, theta_old, whose image theta_old' gives the
    adjunction's one substitution map; that map lifts the old generators,
    and y' = (theta_new - theta_old') / c.  Over Q, theta_new = y.
    """
    n = cur.degree * m.degree
    if cur.degree == 1:
        new_ext = ExtensionField(QQ, m.map_coefficients(lambda c: c.coeffs[0], QQ), "a")
        theta_prev = new_ext.coerce(cur.theta.coeffs[0])
        y, combo = new_ext.gen, (0,) * len(cur.gen_names) + (1,)
    else:
        # powers of theta_old + c*y live in cur.ext[y]/(m)
        target = cur.theta.coeffs + (0,) * (n - cur.degree)
        for c in map(_center_sequence, range(1, 2 * PRIMITIVE_SEARCH_RANGE + 1)):
            min_poly, coords = _power_relation(_power_coords(cur.theta, c, m), n, target)
            if min_poly.degree == n:
                break
        else:
            raise PrimitiveSearchError(
                f"no primitive element of the form theta + c*gen with |c| <= {PRIMITIVE_SEARCH_RANGE}")
        if coords is None:
            raise PrimitiveSearchError("theta escaped the power basis (internal)")
        new_ext = ExtensionField(QQ, min_poly, "a")
        theta_prev = new_ext.from_rep(coords)
        y, combo = (new_ext.gen - theta_prev) * Fraction(1, c), cur.theta_combo + (c,)
    lift = _Substitution(theta_prev, cur.ext)
    return AbsoluteField(new_ext, cur.gen_names + (name,), tuple(map(lift, cur.gen_images)) + (y,),
                         combo, lift)


def minimal_polynomial(a) -> Polynomial:
    """Monic minimal polynomial of a over Q by linear algebra on powers.

    Independent of any Galois-group machinery: the first rational linear
    dependence among the powers 1, a, ..., a**n, n = [E:Q].
    """
    if isinstance(a, (int, Fraction)):
        return Polynomial(QQ, [-Fraction(a), Fraction(1)])
    if not isinstance(a, ExtElement):
        raise TypeError(f"cannot take a minimal polynomial of {a!r}")
    return _power_relation(_power_coords(a, 0, Polynomial.x(a.field)), a.field.degree)[0]


def _power_relation(powers, limit, target=None):
    """(monic minimal polynomial over Q, coordinates) from the first
    rational linear dependence among the vectors s_j * w_j of 1, z, z**2, ...

    The first limit + 1 integer vectors w_j and an optional rational target
    with its denominators cleared, D * t, are the columns of one kernel.
    Its first free column d is the first dependent power, and the kernel
    vector v there gives the relation z**d + sum v_j * s_d / (v_d * s_j) * z**j.
    When d == limit, the j-th coordinate of t in the basis z**j, j < limit,
    is -v_j / (v_t * D * s_j) for v the kernel vector at t's column.  The
    coordinates are None without a target, for a target outside that span
    and when d < limit.  Only d's vector and then t's are back-substituted.
    """
    powers = list(islice(powers, limit + 1))
    columns = [w for w, _ in powers]
    if target is not None:
        t, D = _clear_denominators(target)
        columns.append(t)
    kernel = integer_kernel(list(zip(*columns)))
    d, v = next(kernel, (limit + 1, None))
    if d > limit:
        raise ArithmeticError(f"no linear dependence among {limit + 1} powers (internal)")
    s_d = powers[d][1]
    relation = Polynomial(QQ, [v.get(j, 0) * s_d / (v[d] * s) for j, (_, s) in enumerate(powers[:d])]
                          + [Fraction(1)])
    if d < limit or (v := next(kernel, (None, None))[1]) is None:
        return relation, None
    return relation, [-v.get(j, 0) / (v[limit + 1] * D * s) for j, (_, s) in enumerate(powers[:limit])]


def _power_coords(w: ExtElement, u, m: Polynomial):
    """Coordinates of 1, z, z**2, ... for z = w + u*y in F[y]/(m), with
    F = Q(theta), w in F, u rational and m monic over F.

    Each power is yielded as (integer vector, scale): deg m blocks of integer
    theta-coordinates, one per power of y, and a rational scale.  A step
    multiplies every block by the cleared w, shifts the blocks by u*y and
    folds the top one back through the cleared coefficients of m, all with
    ``ExtensionField._int_mul``; one gcd keeps the vector primitive.
    """
    F = w.field
    n, d = F.degree, m.degree
    wi, dw = w.num, w.den
    un, ud = Fraction(u).as_integer_ratio()
    dm = lcm(*(e.den for e in m.coeffs[:d]))
    mi = [[v * (dm // e.den) for v in e.num] for e in m.coeffs[:d]]
    # z * blocks = (ud*dm * w*blocks + un*dw*d_rows*dm * y*blocks
    #               - un*dw * top*m) / (dw * d_rows * ud * dm)
    d_rows = F._int_rows[1]
    w_scale, y_scale, top_scale = ud * dm, un * dw * d_rows * dm, un * dw
    step = Fraction(1, dw * d_rows * ud * dm)
    blocks = [[1] + [0] * (n - 1)] + [[0] * n for _ in range(d - 1)]
    scale = Fraction(1)
    while True:
        yield [v for b in blocks for v in b], scale
        shifted = [[0] * n] + blocks[:-1]
        out = []
        for b, s, mb in zip(blocks, shifted, mi):
            out.append([w_scale * x + y_scale * y - top_scale * t for x, y, t in
                        zip(F._int_mul(wi, b), s, F._int_mul(mb, blocks[-1]))])
        g = gcd(*(v for b in out for v in b)) or 1
        blocks = [[v // g for v in b] for b in out]
        scale *= step * g


class _Substitution:
    """a(theta) -> a(t) from a source field into t's field: row i of
    ``rows`` holds, in column j, ``den`` times the i-th rational coordinate
    of t**j for the first k powers (k defaults to the source degree)."""

    __slots__ = ("source", "target", "rows", "den")

    def __init__(self, t: ExtElement, source, k=None):
        powers = _power_coords(t, 0, Polynomial.x(t.field))
        columns = [next(powers) for _ in range(k or source.degree)]
        d = lcm(*(s.denominator for _, s in columns))
        scaled = [[v * (s.numerator * (d // s.denominator)) for v in w] for w, s in columns]
        self.source, self.target = source, t.field
        self.rows, self.den = tuple(zip(*scaled)), d

    def __call__(self, a):
        if isinstance(a, (int, Fraction)):
            return self.target.coerce(a)
        if a.field is not self.source and a.field != self.source:
            raise FieldMismatchError("element does not belong to the source field of the map")
        ai = a.num
        return _reduced(self.target, [sum(map(mul, row, ai)) for row in self.rows],
                        self.den * a.den)


# ---------------------------------------------------------------------------
# Trager factorization over a number field
#
# For f monic and squarefree over F = Q(theta), the norm of f(x - s*theta)
# is the characteristic polynomial over Q of z = y + s*theta acting on
# A = F[y]/(f).  A is a product of number fields, so the minimal polynomial
# of z is squarefree; it has degree [F:Q] * deg f exactly when that norm is
# squarefree, and it then equals the norm.  An irreducible factor h of the
# norm gives the factor gcd(f(x - s*theta), h) of f(x - s*theta) over F.
# At the places of a splitting prime p (``modscreen.find``), theta goes to
# the n roots a_i of its modulus in Z_p, the norm is prod f^(i)(x - s*a_i)
# (Trager, SYMSAC 1976), that gcd has the image gcd(f^(i)(x - s*a_i), h),
# and its coefficients are interpolated at the a_i (Encarnacion, JSC 20,
# 1995).  The power-relation norm and Euclid over F serve other fields.


def _center_sequence(k):
    # 0, 1, -1, 2, -2, ...
    if k == 0:
        return 0
    half = (k + 1) // 2
    return half if k % 2 == 1 else -half


def _squarefree_norm(f: Polynomial):
    """(s, norm) for the first shift s in 0, 1, -1, 2, ... at which the
    minimal polynomial of y + s*theta in F[y]/(f) has full degree."""
    F = f.field
    n = F.degree * f.degree
    for k in range(0, 4 * n + 1):
        s = _center_sequence(k)
        norm = _power_relation(_power_coords(F.gen * s, 1, f), n)[0]
        if norm.degree == n:
            return s, norm
    raise ArithmeticError("no squarefree norm found (internal)")


def _trager_squarefree(f: Polynomial, place=None, found=None):
    """Irreducible factors of a monic squarefree f over an absolute field;
    found is ``_norm_at_places(f, place)``, or falsy if it gave none."""
    F = f.field
    if f.degree == 1:
        return [f]
    s, norm, k = found or _squarefree_norm(f) + (None,)
    nf = factor_over_Q(norm)
    if len(nf.factors) == 1:
        return [f]
    hs, ok = [h for h, _ in nf.factors], False
    for out in _factors_at_places(f, place, s, hs, k) if found else ():
        if ok := _product(out, F) == f:
            break
    if not ok:
        theta, x = F.gen, Polynomial.x(F)
        shifted = f.compose(x - Polynomial.constant(F, theta * s)) if s else f
        gs = [poly_gcd(shifted, h.map_coefficients(F.coerce, F)) for h in hs]
        out = [(g.compose(x + Polynomial.constant(F, theta * s)) if s else g).monic()
               for g in gs if g.degree]
        ok = _product(out, F) == f
    record_check("trager.reconstruction", ok, "product of Trager factors must reproduce the input")
    return out


def _image_at(f, a, s, p, q):
    """f^(a)(x - s*a) mod q, a power of p: f's coefficients at theta -> a,
    shifted by Taylor's formula."""
    return _taylor(modscreen.Place(p, a, modulus=q).images(f.coeffs), -s * a, q)


def _taylor(c, t, q):
    """c(x + t) mod q for ascending residues c."""
    c = list(c)
    for i in range(len(c) - 1 if t % q else 0):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] = (c[j] + t * c[j + 1]) % q
    return c


def _norm_at_places(f, place):
    """(s, norm, k) for the first shift s whose product of images
    prod f^(i)(x - s*a_i) is squarefree mod p, so the norm is squarefree,
    with the norm read from that product mod p**k; None without embeddings,
    when p divides a denominator of f, or past the cap.  The roots of f, a
    factor of the source, are at most the source's Fujiwara bound R, and
    theta's conjugates at most R_t, that of the modulus.  With T the lcm of
    their cleared leading coefficients, T**n * N(x/T) lies in Z[x] with
    coefficients at most (1 + ceil(T*(R + |s|*R_t)))**n, n = deg N."""
    F, p = f.field, place and place.prime
    conj = place and place.conjugates
    if not conj or len(conj) != F.degree or any(c.den % p == 0 for c in f.coeffs):
        return None
    n = F.degree * f.degree
    s = next((s for s in map(_center_sequence, range(4 * n + 1)) if _zp_squarefree_image(
        _zp_product([_image_at(f, a, s, p, p) for a in conj], p), p)), None)
    if s is None:
        return None
    cleared = [_clear_denominators(h.coeffs)[0] for h in place.source[0] + (F.modulus,)]
    R = max(Fraction(*_root_bound(c)) for c in cleared[:-1])
    T, R_t = lcm(*(c[-1] for c in cleared)), Fraction(*_root_bound(cleared[-1]))
    bound, k = 2 * (1 + ceil(T * (R + abs(s) * R_t))) ** n, 1
    while p ** k <= bound:
        k += 1
    if (p ** k).bit_length() > MAX_LIFT_BITS:
        return None
    pk, roots = p ** k, place.lift(F.modulus, 1 << (k - 1).bit_length())[0]
    prod = _zp_product([_image_at(f, a % pk, s, p, pk) for a in roots], pk)
    scale = [T ** (n - j) for j in range(n + 1)]
    return s, Polynomial(QQ, [Fraction(_symmetric(c * t, pk), t) for c, t in zip(prod, scale)]), k


def _factors_at_places(f, place, s, hs, k):
    """Candidate factors of f, one per factor h of its norm, at p**K for K
    the least power of two from k on, then doubling up to the cap: the
    factorization into gcds with the h of f(x - s*a_i) mod p, Hensel
    lifted (each doubling of K continues the last lift), each factor
    shifted back by s*a_i, and each coefficient read from its images by
    interpolation at the a_i and reconstruction."""
    F, p = f.field, place.prime
    hp = [modscreen.Place(p).images(h.coeffs) for h in hs]
    leaves = [[_zp_gcd(_image_at(f, a, s, p, p), h, p) for h in hp] for a in place.conjugates]
    if any(len(h) - 1 != F.degree * (len(g) - 1) for lv in leaves for g, h in zip(lv, hp)):
        return
    K, trees = 1 << (k - 1).bit_length(), None
    while (p ** K).bit_length() <= MAX_LIFT_BITS:
        pK, (roots, rows) = p ** K, place.lift(F.modulus, K)
        fs = [_image_at(f, a, s, p, pK) for a in roots]
        trees = trees or [_HenselTree(fa, lv, p) for fa, lv in zip(fs, leaves)]
        images = [[_taylor(g, s * a, pK) for g in tree.lift(fa, pK)[0]]
                  for a, fa, tree in zip(roots, fs, trees)]
        out = []
        for j, leaf in enumerate(leaves[0]):
            found = [_rational_reconstruction([sum(map(mul, row, (g[j][t] for g in images))) % pK
                                               for row in rows], pK) for t in range(len(leaf) - 1)]
            if None not in found:
                out.append(Polynomial(F, [_reduced(F, *c) for c in found] + [F.one]))
        if len(out) == len(hs):
            yield out
        K *= 2


def _product(polys, field):
    acc = Polynomial.one(field)
    for p in polys:
        acc = acc * p
    return acc


def factor_over_number_field(p: Polynomial, place=None) -> Factorization:
    """Trager's method: squarefree split, shifted norms, factor over Q, pull
    back; at the places of ``place``, found for a source that p divides,
    where a norm found squarefree also spares the squarefree split."""
    F = p.field
    if not isinstance(F, ExtensionField):
        raise ValueError("factor_over_number_field expects an extension-field polynomial")
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = p.lc
    if p.degree == 0:
        return Factorization(unit, ())
    if F.degree == 1:
        pq = p.map_coefficients(lambda c: c.coeffs[0], QQ)
        qf = factor_over_Q(pq)
        pairs = [(g.map_coefficients(F.coerce, F), m) for g, m in qf.factors]
        return Factorization(unit, _sorted_factors(pairs))
    # a norm found at the places is squarefree, which proves p squarefree;
    # a part other than p is scanned at the places in its turn
    f, pairs = p.monic(), []
    found = f.degree > 1 and _norm_at_places(f, place)
    for part, mult in [(f, 1)] if found else poly_squarefree_decomposition(p):
        if part != f:
            found = part.degree > 1 and _norm_at_places(part, place)
        pairs += [(g, mult) for g in _trager_squarefree(part, place, found)]
    return Factorization(unit, _sorted_factors(pairs))


def roots_in_field(q: Polynomial, field):
    """All roots of a rational polynomial q that lie in the given field."""
    if q.field != QQ:
        raise ValueError("roots_in_field expects a rational polynomial")
    if isinstance(field, AbsoluteField):
        field = field.ext
    qf = poly_squarefree_part(q).map_coefficients(field.coerce, field)
    fac = factor_over_number_field(qf)
    roots = [-g.coeff(0) for g, _ in fac.factors if g.degree == 1]
    return sorted(roots, key=element_sort_key)
