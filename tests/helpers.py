"""Shared test helpers: polynomial constructors and brute-force oracles.

The oracles here are deliberately independent of the library's own
algorithms: trial division over bounded integer candidates, Sylvester
determinants, exhaustive residue searches.  Expected values in the tests
were computed with these and then frozen.
"""

import itertools
from fractions import Fraction
from math import gcd

from galoiskit import QQ, modscreen
from galoiskit.qfactor import _symmetric, _zp_mul, _zx_divide_exact, _zx_primitive
from galoiskit.galois import Automorphism, GaloisGroup
from galoiskit.numfield import element_sort_key, minimal_polynomial
from galoiskit.permgroup import MAX_CLOSURE_ORDER, Permutation, closure
from galoiskit.poly import Polynomial, poly_from_int_coeffs


def P(*ints):
    """Rational polynomial from ascending integer coefficients."""
    return poly_from_int_coeffs(QQ, list(ints))


def PF(field, *ints):
    return poly_from_int_coeffs(field, list(ints))


def int_polys(max_degree, bound):
    """All monic integer polynomials of degree 1..max_degree, |coeff| <= bound."""
    for deg in range(1, max_degree + 1):
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=deg):
            yield P(*coeffs, 1)


def divides(d, p):
    return (p % d).is_zero


def brute_force_monic_divisors(p, max_degree, bound):
    """Monic integer-coefficient divisors of p by trial division."""
    return [d for d in int_polys(max_degree, bound) if divides(d, p)]


def sylvester_resultant(p, q):
    """res(p, q) via the Sylvester determinant (row convention matching
    res(p, q) = lc(p)**deg(q) * prod q(roots of p))."""
    m, n = p.degree, q.degree
    size = m + n
    rows = []
    pc = [p.coeff(m - i) for i in range(m + 1)]  # descending
    qc = [q.coeff(n - i) for i in range(n + 1)]
    for i in range(n):
        rows.append([Fraction(0)] * i + pc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + qc + [Fraction(0)] * (size - n - 1 - i))
    return _det(rows)


def poly_resultant(p, q):
    """Resultant with the convention res(p, q) = lc(p)**deg(q) * prod q(a_i),
    the product over the roots a_i of p counted with multiplicity.

    Uses res(p, q) = (-1)**(deg p * deg q) res(q, p) and, for r = q mod p,
    res(p, q) = lc(p)**(deg q - deg r) * res(p, r); exact over any field.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of a zero polynomial")
    if p.field != q.field:
        raise ValueError("resultant of polynomials over different fields")
    a, b = p, q
    acc = p.field.one
    sign = 1
    while True:
        if a.degree == 0:
            acc = acc * a.lc ** b.degree
            break
        if b.degree == 0:
            acc = acc * b.lc ** a.degree
            break
        if b.degree < a.degree:
            if (a.degree * b.degree) % 2 == 1:
                sign = -sign
            a, b = b, a
            continue
        r = b % a
        if r.is_zero:
            return p.field.zero
        acc = acc * a.lc ** (b.degree - r.degree)
        b = r
    return acc if sign == 1 else -acc


def _det(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def swinnerton_dyer(*radicands):
    """prod (x ± √a1 ± ... ± √ak) as a rational polynomial.

    Irreducible over Q for distinct primes a_i, yet it splits into linear
    and quadratic factors mod every prime: the worst case for subset
    recombination.  Each radicand a doubles the degree: Horner evaluation
    of S at x + √a over Z[x][√a] gives S(x + √a) = A + √a·B, and
    S(x + √a)·S(x - √a) = A² - a·B².
    """
    x = P(0, 1)
    s = x
    for a in radicands:
        A, B = P(0), P(0)
        for c in reversed(s.coeffs):
            A, B = A * x + B * a + P(c), A + B * x
        s = A * A - B * B * a
    return s


def rref_nullspace(rows):
    """Right nullspace basis of a rational matrix by plain Fraction
    Gauss-Jordan: for each free column fc of the reduced row echelon form R,
    the vector with 1 at fc and -R[r][fc] at the pivot column of row r."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def random_rational(rng):
    return Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 7, 12)))


def rational_sequence(rng, dim, length):
    """Rational vectors of Q^dim: random ones, planted combinations of
    earlier ones, zero vectors, repeats and rescaled repeats."""
    out = []
    for _ in range(length):
        kind = rng.random()
        if out and kind < 0.3:
            picks = rng.sample(out, min(len(out), rng.randint(1, 3)))
            coeffs = [random_rational(rng) for _ in picks]
            out.append([sum(c * v[i] for c, v in zip(coeffs, picks)) for i in range(dim)])
        elif kind < 0.35:
            out.append([Fraction(0)] * dim)
        elif out and kind < 0.45:
            scale = random_rational(rng) or Fraction(1)
            out.append([scale * x for x in rng.choice(out)])
        else:
            density = rng.choice((0.3, 0.7, 1.0))
            out.append([random_rational(rng) if rng.random() < density else Fraction(0)
                        for _ in range(dim)])
    return out


class FractionSpanSolver:
    """Incremental echelon span over Fractions: each reduced row is divided
    by its pivot, and each dependent vector is written in the vectors
    inserted before it.  The oracle for ``numfield._power_relation``."""

    def __init__(self):
        self.count = 0
        self._rows = []  # (reduced vector, pivot index, expression list)

    def insert_int(self, w, scale):
        return self.insert([scale * v for v in w])

    def insert(self, vec):
        zero = Fraction(0)
        r = list(vec)
        expr = [zero] * self.count
        for row, pivot, row_expr in self._rows:
            c = r[pivot]
            if c:
                for i, rv in enumerate(row):
                    if rv:
                        r[i] = r[i] - c * rv
                for i, re_ in enumerate(row_expr):
                    if re_:
                        expr[i] = expr[i] + c * re_
        pivot = next((i for i, v in enumerate(r) if v), None)
        if pivot is None:
            return expr
        inv = 1 / r[pivot]
        row = [v * inv for v in r]
        # the reduced row equals (original_new - sum expr_i * original_i) / lead
        row_expr = [-e * inv for e in expr] + [zero] * (self.count - len(expr))
        row_expr.append(inv)
        self._rows.append((row, pivot, row_expr))
        self.count += 1
        return None


def poly_extended_gcd(p, q):
    """(g, s, t) with g = gcd(p, q) monic and s*p + t*q = g, by Euclid over
    the coefficient field: the oracle for the modular field inverse."""
    f = p.field
    a, b = p, q
    sa, sb = Polynomial.one(f), Polynomial.zero(f)
    ta, tb = Polynomial.zero(f), Polynomial.one(f)
    while not b.is_zero:
        quo, rem = divmod(a, b)
        a, b = b, rem
        sa, sb = sb, sa - quo * sb
        ta, tb = tb, ta - quo * tb
    if a.is_zero:
        raise ValueError("extended gcd of two zero polynomials")
    inv = 1 / a.lc
    return a.monic(), sa * inv, ta * inv


def fraction_mul(field, a, b):
    """The product of two rational coordinate vectors of Q[x]/(m), one
    Fraction per coefficient, reduced by the modulus over Q: the oracle
    for the field's integer product."""
    rem = Polynomial(QQ, list(a)) * Polynomial(QQ, list(b)) % field.modulus
    return tuple(rem.coeff(i) for i in range(field.degree))


def schoolbook_mul(a, b, m):
    """Product mod m of ascending coefficient lists, without trailing zeros."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    while out and out[-1] == 0:
        out.pop()
    return out


def schoolbook_divmod(a, b, m):
    """Long division mod m by b, whose leading coefficient is a unit mod m."""
    rem = [c % m for c in a]
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, m)
    for k in range(len(quo) - 1, -1, -1):
        q = rem[k + len(b) - 1] * inv % m
        quo[k] = q
        for j, c in enumerate(b):
            rem[k + j] = (rem[k + j] - q * c) % m
    for v in (quo, rem):
        while v and v[-1] == 0:
            v.pop()
    return quo, rem


def schoolbook_powmod(a, e, f, m):
    """a**e mod (f, m) by e multiplications, each followed by a division."""
    acc = schoolbook_divmod([1], f, m)[1]
    for _ in range(e):
        acc = schoolbook_divmod(schoolbook_mul(acc, a, m), f, m)[1]
    return acc


def exhaustive_galois_group(E):
    """Every automorphism of a splitting field E, by exhaustion: each
    distinct theta-image sum(c_k * r_k), over tuples of distinct conjugate
    roots r_k of the tower generators, is checked exactly against theta's
    minimal polynomial; root permutations come from applying each image."""
    field = E.field
    roots = E.roots
    active = [(g, c) for g, c in zip(field.gen_images, field.theta_combo) if c]
    allowed = []
    for g, _ in active:
        mp = minimal_polynomial(g)
        allowed.append([r for r in roots if not mp.evaluate(r)])
    images = {field.theta: None} if field.degree == 1 else {}
    for tup in itertools.product(*allowed):
        if len(set(tup)) != len(tup):
            continue
        value = field.ext.zero
        for (_, c), r in zip(active, tup):
            value = value + r * c
        if value not in images and not field.min_poly.evaluate(value):
            images[value] = None
    root_index = {r: i for i, r in enumerate(roots)}
    autos = []
    for image in images:
        a = Automorphism(field, image)
        a.root_permutation = Permutation([root_index[a.apply(r)] for r in roots])
        autos.append(a)
    autos.sort(key=lambda a: a.root_permutation.images)
    identity_index = next(i for i, a in enumerate(autos) if a.root_permutation.is_identity)
    return GaloisGroup(E, tuple(autos), identity_index)


def exact_stabilizer(G, elements):
    """The indices of the automorphisms fixing every given element, each
    automorphism applied exactly to each element."""
    return tuple(i for i, g in enumerate(G.automorphisms) if all(g.apply(e) == e for e in elements))


def every_image_orbit(G, a):
    """The orbit of a field element: its image under every automorphism,
    duplicates dropped, in canonical order."""
    return tuple(sorted(dict.fromkeys(g.apply(a) for g in G.automorphisms), key=element_sort_key))


def left_coset_representatives(G, stab):
    """The first index of each left coset g*stab of a Galois group, found by
    walking the indices in order and composing with every member of stab."""
    covered, reps = set(), []
    for i in range(G.order):
        if i not in covered:
            covered.update(G.compose(i, h) for h in stab)
            reps.append(i)
    return reps


def orbit_poly(G, orb):
    """prod (x - w) over the given orbit, expanded in E on integer
    coefficient vectors over one running denominator, with each coefficient
    asserted rational: the oracle for the power-sum route of
    ``galois.orbit_min_poly``, independent of its powers and traces, about
    m**2 / 2 products in E for m elements."""
    ext = G.field.ext
    n = ext.degree
    d_rows = ext._int_rows[1]
    # acc / den is the product so far, acc[k] the coefficient of x**k
    acc, den = [[1] + [0] * (n - 1)], 1
    for w in orb:
        scale = w.den * d_rows
        shifted = [[0] * n] + [[v * scale for v in c] for c in acc]
        for k, c in enumerate(acc):
            shifted[k] = [s - t for s, t in zip(shifted[k], ext._int_mul(c, w.num))]
        den *= scale
        g = den
        for c in shifted:
            g = gcd(g, *c)
            if g == 1:
                break
        acc = [[v // g for v in c] for c in shifted] if g > 1 else shifted
        den //= g
    assert not any(v for c in acc for v in c[1:]), "a symmetric function of an orbit escaped Q"
    return Polynomial(QQ, [Fraction(c[0], den) for c in acc])


def unsieved_find(tower, factors):
    """``modscreen.find`` without its binomial pre-sieve: every prime below
    2**30, from the top, gets the full splitting test."""
    combo = tower.absolute.theta_combo
    moduli = [m.field.modulus for _, _, m in tower.stages[1:]] + [tower.absolute.min_poly]
    for p in modscreen.primes():
        place = modscreen.Place(p)
        if any(h is None or not modscreen._splits(h, p)
               for h in (place.images(f.coeffs) for f in factors)):
            continue
        for i, ((_, _, m), modulus) in enumerate(zip(tower.stages, moduli)):
            place = place and place.extend(m, combo[:i + 1], modulus)
        if place is not None:
            return place
    return None


def zassenhaus_recombine(f, pool, pk, bound, degrees):
    """Pruned Zassenhaus recombination of the monic factors of f lifted mod
    pk: the oracle for the knapsack in ``qfactor``.

    A true factor h of f appears mod pk as lc(f) * prod(subset), which is
    (lc(f) / lc(h)) * h: it divides lc(f) * f, and its coefficients lie
    within bound.  Subsets are tried smallest first.  Before a subset pays
    for its product and for the exact division that alone accepts a factor,
    it must pass these necessary conditions, cheapest first:

    - its degree and its cofactor's lie in the degree set (Musser);
    - its next-to-leading coefficient, lc(f) times the sum of the factors'
      ones, lies within bound (the d-1 test of Abbott, Shoup and Zimmermann);
    - its constant term is nonzero and divides lc(f) * f(0), unless f(0) = 0;
    - every coefficient of the product lies within bound.
    """
    result = []
    size = 1
    while 2 * size <= len(pool):
        lc, n = f[-1], len(f) - 1
        degs = [len(g) - 1 for g in pool]
        traces = [lc * g[-2] for g in pool]
        for subset in itertools.combinations(range(len(pool)), size):
            d = sum(map(degs.__getitem__, subset))
            if not (degrees >> d) & 1 or not (degrees >> (n - d)) & 1:
                continue
            if abs(_symmetric(sum(map(traces.__getitem__, subset)), pk)) > bound:
                continue
            if f[0]:
                const = lc
                for i in subset:
                    const = const * pool[i][0] % pk
                const = _symmetric(const, pk)
                if const == 0 or lc * f[0] % const:
                    continue
            cand = [lc % pk]
            for i in subset:
                cand = _zp_mul(cand, pool[i], pk)
            cand = [_symmetric(c, pk) for c in cand]
            if any(abs(c) > bound for c in cand):
                continue
            cand = _zx_primitive(cand)
            quo = _zx_divide_exact(f, cand)
            if quo is not None:
                result.append(cand)
                f = _zx_primitive(quo)
                chosen = set(subset)
                pool = [g for i, g in enumerate(pool) if i not in chosen]
                break
        else:
            size += 1
    if len(f) > 1:
        result.append(f)
    return result


def element_walk_subgroups(G):
    """Every subgroup of a permutation group, by breadth-first closure of
    each subgroup found with every element outside it added as a generator:
    the oracle for ``permgroup.all_subgroups``, which adds one element per
    right coset."""
    trivial = closure([], degree=G.degree)
    found = {trivial.element_set: trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in G.elements:
                if g in H.element_set:
                    continue
                K = closure(list(H.generators) + [g], degree=G.degree,
                            max_order=max(MAX_CLOSURE_ORDER, G.order))
                if K.element_set not in found:
                    found[K.element_set] = K
                    nxt.append(K)
        frontier = nxt
    return sorted(found.values(), key=lambda H: (H.order, tuple(p.images for p in H.elements)))
