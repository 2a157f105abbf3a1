"""Complete factorization of univariate polynomials over Q and over GF(p).

The rational pipeline: content removal, Yun squarefree decomposition,
reduction mod a good prime (chosen by distinct-degree factorization, whose
degree sets across up to five primes may already prove irreducibility),
Cantor-Zassenhaus factorization there (with a Frobenius table for factors
of degree >= 2), and van Hoeij's knapsack recombination on power sums with
an exact integer LLL (``linalg.lll``).  Quadratic Hensel lifting feeds it
from the least p**k that fills its first power-sum column, and squares
p**k, continuing the same lift, only when the lattice needs more.  Exact
division alone accepts a factor, and an exact dimension count proves it
irreducible.
Cantor-Zassenhaus draws its random splitting polynomials from
``random.Random(p)`` for the prime p: the factors are unique and returned in
canonical order, so the draws change only the path to them, and callers
pass no randomness in.

Internally the hot kernels work on plain int lists (ascending coefficients)
mod p or mod p**k; Polynomial objects appear only at the API boundary.
All modular work of the engine runs on these lists: packed (Kronecker)
products, whose slots of up to 8 bytes are machine words read in one
memoryview cast, packed reduction rows for a fixed modulus, balanced
products, and the rational reconstruction that reads ``numfield``'s Trager
factors back from their p-adic images.
"""

import math
import random
import struct
import sys

from .errors import EngineLimitError
from .linalg import lll, nullspace
from .poly import (
    Polynomial,
    _zx_primitive,
    poly_content_and_primitive,
    poly_from_int_coeffs,
    poly_squarefree_decomposition,
)
from .scalars import QQ, PrimeField, Record, is_prime, power

# _zp_mul packs when schoolbook products outnumber output coefficients this much
_PACK_RATIO = 6

# memoryview codes of the machine-word slot widths, whose slots are read in
# one cast on a little-endian machine
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}

_PRIME_POOL = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
]


class Factorization(Record):
    """unit * prod(factor**multiplicity) reconstructs the input exactly."""

    unit: object
    factors: tuple  # of (monic irreducible Polynomial, multiplicity)

    def expand(self, field):
        out = Polynomial.constant(field, self.unit)
        for f, m in self.factors:
            out = out * f ** m
        return out

    def __iter__(self):
        return iter(self.factors)


def _sorted_factors(pairs):
    return tuple(sorted(pairs, key=lambda fm: (fm[0].sort_key(), fm[1])))


# ---------------------------------------------------------------------------
# int-list arithmetic mod m (ascending coefficients, no trailing zeros)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_add(a, b, m):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _trim(out)


def _zp_sub(a, b, m):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _trim(out)


def _zp_mul(a, b, m):
    """Product mod m of lists with entries in [0, m): schoolbook over the
    sparser operand's nonzero entries when that is cheap, else one product
    of the packed operands (Kronecker substitution)."""
    if not a or not b:
        return []
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a
    size = len(a) + len(b) - 1
    if (len(a) - a.count(0)) * len(b) < _PACK_RATIO * size:
        out = [0] * size
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _trim([c % m for c in out])
    w = _slot_bytes(min(len(a), len(b)) * max(a) * max(b))
    return _trim(_zp_unpack(_zp_pack(a, w) * _zp_pack(b, w), w, size, m))


def _slot_bytes(bound):
    """Bytes per Kronecker slot for entries at most bound, rounded up to a
    machine word of 1, 2, 4 or 8 bytes when one holds them."""
    w = max(1, -(-bound.bit_length() // 8))
    return w if w > 8 else 1 << (w - 1).bit_length()


def _zp_pack(a, w):
    """One integer holding a's entries, each below 256**w, in w-byte slots."""
    code = _WORDS.get(w)
    if code:
        return int.from_bytes(struct.pack(f"<{len(a)}{code}", *a), "little")
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")


def _zp_unpack(x, w, count, m):
    """The first count w-byte slots of x, each reduced mod m."""
    data = x.to_bytes(w * count, "little")
    code = _WORDS.get(w)
    if code:
        return [c % m for c in memoryview(data).cast(code)]
    return [int.from_bytes(data[i:i + w], "little") % m for i in range(0, w * count, w)]


def _zp_product(polys, m):
    """The product mod m of a nonempty list, multiplied in balanced pairs."""
    while len(polys) > 1:
        polys = [_zp_mul(a, b, m) for a, b in zip(polys[::2], polys[1::2])] + polys[len(polys) & ~1:]
    return polys[0]


def _zp_mulmod(f, m):
    """The product of residues mod a fixed f of degree n over Z/m.

    Row j packs x**(n+j) mod f into one integer, so a product reduces by
    n - 1 big-integer multiply-adds.  Row j is x * (row j-1) with its top
    slot folded back through row 0; its slots stay unreduced, below
    n * m**2, so slots are sized for n**2 * m**3.  Below degree 3 the one
    slot past n is folded through x**n mod f: packing would cost more.
    """
    n = len(f) - 1
    inv = pow(f[-1], -1, m)
    xn = [-c * inv % m for c in f[:-1]]  # x**n mod f
    if n <= 2:
        def fold(a, b):
            c = _zp_mul(a, b, m)
            return c if len(c) <= n else _trim([(x + c[n] * r) % m for x, r in zip(c, xn)])

        return fold
    w = _slot_bytes(n * n * m ** 3)
    rows = [_zp_pack(xn, w)]
    low, top = (1 << 8 * w * n) - 1, 8 * w * (n - 1)
    for _ in range(n - 2):
        rows.append((rows[-1] << 8 * w & low) + (rows[-1] >> top) % m * rows[0])

    def mul(a, b):
        c = _zp_mul(a, b, m)
        return c if len(c) <= n else _zp_fold(c[n:], rows, _zp_pack(c[:n], w), w, n, m)

    return mul


def _zp_fold(coeffs, rows, acc, w, n, m):
    """acc + sum(coeffs[j] * rows[j]) for rows packed in w-byte slots,
    unpacked to n residues mod m."""
    for c, row in zip(coeffs, rows):
        if c:
            acc += c * row
    return _trim(_zp_unpack(acc, w, n, m))


def _zp_divmod(a, b, m):
    """Division mod m; the leading coefficient of b must be invertible.
    Only the digit the quotient reads is reduced in the loop, and the
    remainder once at the end."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    db, dlc = len(b) - 1, b[-1]
    inv = pow(dlc, -1, m)
    if len(a) - 1 < db:
        return [], _trim(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        q = a[i] * inv % m
        if q:
            quot[i - db] = q
            for j, bc in enumerate(b):
                a[i - db + j] -= q * bc
    return _trim(quot), _trim([c % m for c in a[:db]])


def _zp_mod(a, b, m):
    return _zp_divmod(a, b, m)[1]


def _zp_monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _zp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _zp_mod(a, b, p)
    return _zp_monic(a, p)


def _zp_powmod(a, e, f, p):
    """a**e mod (f, p)."""
    return power(_zp_mod(a, f, p), e, [1], _zp_mulmod(f, p))


def _zp_derivative(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _zp_squarefree_decomposition(f, p):
    """[(g_i, m_i)] with f monic = prod g_i**m_i, each g_i monic squarefree."""
    out = []
    if len(f) - 1 < 1:
        return out
    d = _zp_derivative(f, p)
    if not d:
        # f = h(x**p); a p-th root just reads every p-th coefficient
        return [(g, m * p) for g, m in _zp_squarefree_decomposition(f[::p], p)]
    g = _zp_gcd(f, d, p)
    w = _zp_divmod(f, g, p)[0]
    i = 1
    while len(w) > 1:
        y = _zp_gcd(w, g, p)
        z = _zp_divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        g = _zp_divmod(g, y, p)[0]
        i += 1
    if len(g) > 1:
        # g is a p-th power: the call takes its root and scales by p
        out.extend(_zp_squarefree_decomposition(g, p))
    return out


def _zp_distinct_degree(f, p):
    """Split monic squarefree f into [(product_of_degree_d_factors, d)]."""
    out = []
    h = x = [0, 1]
    cur = list(f)
    d = 0
    while len(cur) - 1 >= 2 * (d + 1):
        d += 1
        h = _zp_powmod(h, p, cur, p)
        g = _zp_gcd(_zp_sub(h, x, p), cur, p)
        if len(g) > 1:
            out.append((g, d))
            cur = _zp_divmod(cur, g, p)[0]
            h = _zp_mod(h, cur, p)
    if len(cur) > 1:
        out.append((cur, len(cur) - 1))
    return out


def _zp_frobenius(f, p, mul):
    """h -> h**p mod (f, p) for residues h, by one table: row i packs
    x**(i*p) mod f, and h**p = sum(h_i * x**(i*p)) since h_i**p = h_i."""
    n = len(f) - 1
    xp = _zp_powmod([0, 1], p, f, p)
    powers = [[1], xp]
    for _ in range(n - 2):
        powers.append(mul(powers[-1], xp))
    w = _slot_bytes(n * p * p)
    rows = [_zp_pack(row, w) for row in powers]

    return lambda h: _zp_fold(h, rows, 0, w, n, p)


def _zp_equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of a monic product of degree-d irreducibles.

    For odd p and d >= 2, a**((p**d - 1)/2) is (a * a**p * ... *
    a**(p**(d-1)))**((p - 1)/2), the conjugates taken from a Frobenius
    table; at d = 1 the table would cost more than the one power it saves.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    mul = _zp_mulmod(f, p)
    frobenius = _zp_frobenius(f, p, mul) if d > 1 and p > 2 else None
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) <= 1:
            continue
        if p == 2:
            # trace map replaces the (p**d - 1)/2 power in characteristic 2
            b, t = a, a
            for _ in range(d - 1):
                b = mul(b, b)
                t = _zp_add(t, b, p)
            g = _zp_gcd(t, f, p)
        else:
            if frobenius:
                b = c = a
                for _ in range(d - 1):
                    c = frobenius(c)
                    b = mul(b, c)
                b = power(b, (p - 1) // 2, [1], mul)
            else:
                b = _zp_powmod(a, (p ** d - 1) // 2, f, p)
            g = _zp_gcd(_zp_sub(b, [1], p), f, p)
        if 1 < len(g) < len(f):
            rest = _zp_divmod(f, g, p)[0]
            return _zp_equal_degree(g, d, p, rng) + _zp_equal_degree(rest, d, p, rng)


def _zp_factor_squarefree(f, p, rng):
    """Monic irreducible factors of a monic squarefree f mod p."""
    out = []
    for block, d in _zp_distinct_degree(f, p):
        out.extend(_zp_equal_degree(block, d, p, rng))
    return sorted(out)


def factor_mod_p(p_poly: Polynomial) -> Factorization:
    """Factor over GF(p): squarefree split, then distinct- and equal-degree."""
    field = p_poly.field
    if not isinstance(field, PrimeField):
        raise ValueError("factor_mod_p expects a polynomial over a prime field")
    if p_poly.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    p = field.p
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    rng = random.Random(p)
    ints = [c.value for c in p_poly.coeffs]
    unit = field.coerce(ints[-1])
    monic = _zp_monic(ints, p)
    pairs = []
    for part, mult in _zp_squarefree_decomposition(monic, p):
        for irr in _zp_factor_squarefree(part, p, rng):
            pairs.append((poly_from_int_coeffs(field, irr), mult))
    return Factorization(unit, _sorted_factors(pairs))


def factor_degrees_mod_p(p_poly: Polynomial, prime: int):
    """Sorted degree list of the irreducible factors of a rational p_poly mod
    prime, or None when prime divides the leading coefficient of its
    primitive integer form or its discriminant (the caller should skip that
    prime).  A distinct-degree block of degree D with factors of degree d
    holds D/d of them, so no block is split.
    """
    fp = _zp_squarefree_image(poly_content_and_primitive(p_poly)[1], prime)
    if fp is None:
        return None
    blocks = _zp_distinct_degree(_zp_monic(fp, prime), prime)
    return sorted(d for block, d in blocks for _ in range((len(block) - 1) // d))


def _zp_squarefree_image(f_int, p):
    """The integer list f_int reduced mod p, or None unless the reduction is
    squarefree of full degree."""
    if f_int[-1] % p == 0:
        return None
    fp = _trim([c % p for c in f_int])
    return fp if len(_zp_gcd(fp, _zp_derivative(fp, p), p)) == 1 else None


def _rational_reconstruction(residues, m, den_bound=None):
    """(nums, den) with nums[i] = residues[i] * den mod m, den at most
    D = min(den_bound, sqrt(m/2)) and |nums[i]| at most (m/2) / D, or None;
    bounds whose product is at most m/2 make the answer unique.  A residue
    not small once scaled by the denominator so far runs Wang's
    half-extended Euclid for the rest."""
    half = m >> 1
    dbound = math.isqrt(half) if den_bound is None else min(den_bound, math.isqrt(half))
    bound = half // dbound
    den, nums = 1, []
    for r in residues:
        t = r * den % m
        if t > half:
            t -= m
        if abs(t) > bound:
            r0, r1, v0, v1 = m, t % m, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, v0, v1 = r1, r0 - q * r1, v1, v0 - q * v1
            den *= abs(v1)
            if v1 == 0 or den > dbound:
                return None
            nums = [x * abs(v1) for x in nums]
            t = r1 if v1 > 0 else -r1
        nums.append(t)
    return nums, den


# ---------------------------------------------------------------------------
# integer polynomial helpers


def _zx_divide_exact(a, b):
    """Exact division in Z[x]; returns quotient or None if it fails."""
    if not b:
        return None
    a = list(a)
    db, blc = len(b) - 1, b[-1]
    if len(a) - 1 < db:
        return None if _trim(a) else []
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c % blc:
            return None
        q = c // blc
        quot[i - db] = q
        if q:
            for j, bc in enumerate(b):
                a[i - db + j] -= q * bc
    return quot if not _trim(a) else None


def _mignotte_bound(f):
    """Coefficient bound for any integer factor of f (Mignotte style)."""
    n = len(f) - 1
    norm = math.isqrt(sum(c * c for c in f)) + 1
    return (1 << n) * norm * abs(f[-1])


def _symmetric(c, m):
    c %= m
    return c - m if c > m // 2 else c


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, pairwise with a recombination tree)


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h mod q to mod m, for q | m | q**2, given s*g + t*h = 1
    mod m/q.  h must be monic and stays monic; g absorbs lc(f)."""
    e = _zp_sub(f, _zp_mul(g, h, m), m)
    q, r = _zp_divmod(_zp_mul(s, e, m), h, m)
    return _zp_add(_zp_add(g, _zp_mul(t, e, m), m), _zp_mul(q, g, m), m), _zp_add(h, r, m)


def _bezout_step(g, h, s, t, m):
    """Lift s*g + t*h = 1 from mod q to mod m, for q | m | q**2, with g and
    h known mod m and h monic."""
    b = _zp_sub(_zp_add(_zp_mul(s, g, m), _zp_mul(t, h, m), m), [1], m)
    c, d = _zp_divmod(_zp_mul(s, b, m), h, m)
    return _zp_sub(s, d, m), _zp_sub(_zp_sub(t, _zp_mul(t, b, m), m), _zp_mul(c, g, m), m)


def _zp_inverse(a, f, p):
    """s with s*a = 1 mod (f, p) and deg s < deg f, by half-extended Euclid;
    raises ZeroDivisionError unless a and f are coprime mod p."""
    r0, r1 = list(f), list(a)
    s0, s1 = [], [1]
    while len(r1) > 1:
        q, r = _zp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zp_sub(s0, _zp_mul(q, s1, p), p)
    if not r1:
        raise ZeroDivisionError("polynomials are not coprime mod p")
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _zp_ext_gcd(a, b, p):
    """(s, t) with s*a + t*b = 1 mod p; raises ZeroDivisionError unless a
    and b are coprime."""
    s = _zp_inverse(a, b, p)
    return s, _zp_divmod(_zp_sub([1], _zp_mul(s, a, p), p), b, p)[0]


class _HenselTree:
    """f = lc(f) * prod(factors) mod p, for monic pairwise coprime factors,
    lifted on request to the least p**k at or above a target.

    Each node halves its leaves and keeps g = lc * (product of the first
    half) and the monic h (product of the rest) mod p**k, with s*g + t*h = 1
    mod p**kb.  A lift runs through p**ceil(k/2**i) (each step at most
    squares the modulus), lifts s and t only when a step needs them, and
    continues from the last p**k, never from p.
    """

    __slots__ = ("p", "k", "root")

    def __init__(self, f, factors, p):
        self.p, self.k = p, 1
        self.root = self._build(factors, f[-1] % p)[0]

    def _build(self, leaves, lc):
        # (node, lc * product of leaves mod p): a node is [g, h, s, t, kb,
        # left, right], a leaf None; each node multiplies two products
        p = self.p
        if len(leaves) == 1:
            return None, _zp_mul([lc], leaves[0], p)
        half = len(leaves) // 2
        left, g = self._build(leaves[:half], lc)
        right, h = self._build(leaves[half:], 1)
        s, t = _zp_ext_gcd(g, h, p)
        return [g, h, s, t, 1, left, right], _zp_mul(g, h, p)

    def lift(self, f, target):
        """(the factors lifted to monic factors mod p**k, p**k) for the least
        p**k >= target, and at least the last p**k; f may be given exactly
        or mod any multiple of p**k."""
        p, k, pk = self.p, self.k, self.p ** self.k
        while pk < target:
            pk *= p
            k += 1
        chain = []
        while k > self.k:
            chain.append(k)
            k = (k + 1) // 2
        chain = [(j, p ** j) for j in [self.k] + chain[::-1]]
        self.k = chain[-1][0]
        return self._lift(self.root, [c % pk for c in f], chain), pk

    def _lift(self, node, f, chain):
        if node is None:
            return [_zp_monic(f, chain[-1][1])]
        g, h, s, t, kb, left, right = node
        for (a, _), (b, pb) in zip(chain, chain[1:]):
            while kb < b - a:
                kb = min(2 * kb, a)
                s, t = _bezout_step(g, h, s, t, self.p ** kb)
            g, h = _hensel_step(f, g, h, s, t, pb)
        node[:5] = g, h, s, t, kb
        return self._lift(left, g, chain) + self._lift(right, h, chain)


# ---------------------------------------------------------------------------
# factoring over Z: prime choice, Hensel lifting, knapsack recombination


def _choose_prime(f_int):
    """Pick primes keeping f squarefree; prefer the one with fewest factors.

    Returns (p, distinct-degree blocks of f mod p, degree set), where bit d
    of the degree set is set when every prime tried has a subset of factors
    of total degree d (Musser): the degree of any factor of f over Z lies in
    that set.  Both the factor count and the degree set follow from the
    distinct-degree blocks, since a block of degree D with factors of degree
    d holds D/d of them; only the chosen prime is split further.
    """
    n = len(f_int) - 1
    best = None
    degrees = (1 << (n + 1)) - 1
    tried = 0
    for p in _PRIME_POOL:
        fp = _zp_squarefree_image(f_int, p)
        if fp is None:
            continue
        blocks = _zp_distinct_degree(_zp_monic(fp, p), p)
        count, sums = 0, 1
        for block, d in blocks:
            for _ in range((len(block) - 1) // d):
                sums |= sums << d
                count += 1
        degrees &= sums
        tried += 1
        if best is None or count < best[0]:
            best = (count, p, blocks)
        if degrees == 1 | 1 << n or tried >= 5:
            break
    if best is None:
        raise ArithmeticError("no usable prime found for factorization")
    return best[1:] + (degrees,)


def _factor_squarefree_int(f_int):
    """Irreducible integer factors of a primitive squarefree f in Z[x]."""
    n = len(f_int) - 1
    if n <= 1:
        return [list(f_int)]
    p, blocks, degrees = _choose_prime(f_int)
    if degrees == 1 | 1 << n:
        return [list(f_int)]
    rng = random.Random(p)
    mod_factors = []
    for block, d in blocks:
        mod_factors.extend(_zp_equal_degree(block, d, p, rng))
    return _knapsack(f_int, sorted(mod_factors), p)


# Recombination squares p**k past its first lift only while the square has
# at most MAX_LIFT_BITS bits; past that it stops with an engine limit.  Of the
# 55 recombinations in the seed-1 benchmark corpus, 52 end at their first
# lift (5 to 73 bits) and three need a second, to 11 or 32 bits;
# S(2,3,5,7,11,13) ends at 73 bits.  Tiny inputs such as x^2 - x need a
# second lift, because B_1 leaves p**k too few bits.  The cost of a lift
# grows about threefold per doubling: lifting the 23 factors of the degree-90
# norm met in splitting x^10 - 2 to 3790 bits takes 0.9 s, to 7579 bits
# 2.1 s (one Xeon vCPU).
MAX_LIFT_BITS = 1 << 12

# Bits of each power-sum column fed to one lattice reduction: enough to cut
# several rows at once, few enough that LLL works on small integers.  On
# S(2,3,5,7,11,13), 32 factors mod every prime, reductions take 1.2 s with
# 20-bit columns and 0.08 s with 60-bit ones.
_COLUMN_BITS = 60


def _knapsack(f, mod_factors, p):
    """Irreducible factors of f from its monic factors mod p (van Hoeij).

    f = lc * prod(g_i) mod p**k after lifting.  A factor h of f over Z is
    lc(h) * prod(g_i : i in S) mod p**k for a subset S, whose indicator
    vector w is what this finds.  Power sums add over products, so column j
    of the lattice holds t_ij = lc**j * Tr_j(g_i) mod p**k, and sum(t_ij
    over S) = T_j + m * p**k where T_j = lc**j * Tr_j(h) is an integer with
    |T_j| <= B_j = n * (|lc| * R)**j for a root bound R.  Only the top a
    bits are kept: c_ij = round(t_ij * 2**a / p**k) with 2**a * B_j <= p**k,
    beside a modulus row 2**a.  Then the lattice holds (w, sum(c_ij over S)
    - m * 2**a), whose column entry is T_j * 2**a / p**k plus |S| rounding
    errors of at most 1/2 each: at most 1 + r/2 in absolute value.  So with
    N columns every factor vector has squared norm at most r + N*(1 + r/2)**2.

    After each reduction, a trailing row whose exact |b*|**2 exceeds that
    bound is dropped: a vector v = sum(c_k * b_k) with c_last != 0 has
    |v| >= |b*_last|, so every factor vector lies in the span of the rows
    kept.  The rows kept project (first r coordinates) onto a span V that
    contains every factor vector.  When V is spanned by the indicator
    vectors of s disjoint blocks covering the pool (each pool index's column
    of the projection picks its block), every factor of f is a union of
    blocks, so f has at most s irreducible factors.  When the products of
    s - 1 blocks divide f exactly, they and the cofactor are s factors of f,
    which are therefore irreducible.
    A weak lattice only costs columns, more precision or time, never a
    wrong answer.

    The argument holds at any precision p**k: rows are dropped only by the
    exact Gram-Schmidt test, a split is accepted only by exact division,
    and irreducibility comes from the dimension count.  So the lift starts
    at the least p**k giving column 1 all _COLUMN_BITS bits (or at twice
    the coefficient bound, if lower), and a candidate that fails exact
    division, or columns that run out, continue the lift to p**(2k).
    """
    n, lc, r = len(f) - 1, f[-1], len(mod_factors)
    num, den = _root_bound(f)
    # 2**_COLUMN_BITS * B_1, B_1 = n * |lc| * R
    target = min(2 * _mignotte_bound(f), -(-(n * abs(lc) * num << _COLUMN_BITS) // den))
    tree = _HenselTree(f, mod_factors, p)
    rows = [[int(i == j) for j in range(r)] for i in range(r)]
    norm4 = 4 * r  # 4 * squared norm bound of a factor vector
    fresh = True  # rows not yet checked for a partition
    while True:
        pool, pk = tree.lift(f, target)
        sums = [_power_sums(g, n, pk) for g in pool]
        for j in range(1, n + 1):
            # the largest a with 2**a * B_j <= p**k, at most _COLUMN_BITS
            a = min(_COLUMN_BITS, (pk * den ** j // (n * (abs(lc) * num) ** j)).bit_length() - 1)
            if 2 * a <= norm4.bit_length():
                break  # this precision leaves too few bits above B_j
            scale = pow(lc, j, pk)
            col = [((s[j - 1] * scale % pk << a + 1) + pk) // (2 * pk) for s in sums]
            if any(col):  # else every sum is a multiple of 2**a: no constraint
                rows = [row + [sum(x * c for x, c in zip(row, col))] for row in rows]
                rows.append([0] * (len(rows[0]) - 1) + [1 << a])
                norm4 += (r + 2) ** 2
                rows, d = lll(rows)
                while 4 * d[len(rows)] > norm4 * d[len(rows) - 1]:
                    rows.pop()
                if not rows:
                    raise ArithmeticError("knapsack lattice lost the factor vectors")
                fresh = True
            if fresh:
                factors = _split_by_blocks(f, rows, pool, pk)
                if factors is not None:
                    return factors
                fresh = False
        target = pk * pk
        if target.bit_length() > MAX_LIFT_BITS:
            raise EngineLimitError(
                f"factor recombination needs more than {MAX_LIFT_BITS} bits of p-adic precision")


def _split_by_blocks(f, rows, pool, pk):
    """The irreducible factors of f when the projected rows span the
    indicator vectors of disjoint blocks covering the pool, and the products
    of all blocks but the last divide f exactly; else None (see _knapsack)."""
    blocks = {}
    for i in range(len(pool)):
        blocks.setdefault(tuple(row[i] for row in rows), []).append(i)
    if any(not any(key) for key in blocks) or len(blocks) > len(rows):
        return None
    if len(blocks) > 1 and nullspace([list(v) for v in zip(*blocks)]):
        return None  # the block columns are dependent, so V is smaller
    lc, out = f[-1], []
    for block in list(blocks.values())[:-1]:
        cand = _zp_product([[lc % pk]] + [pool[i] for i in block], pk)
        cand = _zx_primitive([_symmetric(c, pk) for c in cand])
        quo = _zx_divide_exact(f, cand)
        if quo is None:
            return None
        out.append(cand)
        f = quo
    return out + [_zx_primitive(f)]


def _power_sums(g, count, m=None):
    """Tr_1 .. Tr_count of the roots of monic g, mod m, or exactly when no
    m is given (Newton's identities)."""
    d = len(g) - 1
    e = g[-2::-1]  # e[i - 1] is the coefficient of x**(d - i)
    out = []
    for j in range(1, count + 1):
        s = j * e[j - 1] if j <= d else 0
        for i in range(1, min(j - 1, d) + 1):
            s += e[i - 1] * out[j - i - 1]
        out.append(-s % m if m else -s)
    return out


def _root_bound(f):
    """(num, den) with |alpha| <= num / den for every complex root of f.

    Fujiwara: |alpha| <= 2 * max(|a_(n-i) / a_n| ** (1/i)), with a_0
    halved; each i-th root is rounded up to a multiple of 1/den.
    """
    n, lc, den = len(f) - 1, abs(f[-1]), 1 << 8
    top = 0
    for i in range(1, n + 1):
        c = abs(f[n - i]) * den ** i
        q = -(-c // (lc * (2 if i == n else 1)))
        top = max(top, _iroot_ceil(q, i))
    return 2 * top, den


def _iroot_ceil(x, i):
    """The least q >= 0 with q**i >= x."""
    if x <= 1:
        return max(x, 0)
    q = 1 << -(-x.bit_length() // i)
    while True:
        y = ((i - 1) * q + x // q ** (i - 1)) // i
        if y >= q:
            break
        q = y
    return q if q ** i >= x else q + 1


# ---------------------------------------------------------------------------
# public rational API


def factor_over_Q(p: Polynomial) -> Factorization:
    """Complete irreducible factorization over Q.

    Returns unit (the leading coefficient times rational content structure)
    and monic irreducible factors with multiplicities; multiplying out
    reproduces the input bit-exactly.
    """
    if p.field != QQ:
        raise ValueError("factor_over_Q expects a rational polynomial")
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = p.lc
    if p.degree == 0:
        return Factorization(unit, ())
    pairs = []
    for part, mult in poly_squarefree_decomposition(p):
        _, ints = poly_content_and_primitive(part)
        for fac in _factor_squarefree_int(ints):
            fq = poly_from_int_coeffs(QQ, fac).monic()
            pairs.append((fq, mult))
    return Factorization(unit, _sorted_factors(pairs))


def is_irreducible_over_Q(p: Polynomial) -> bool:
    if p.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    fac = factor_over_Q(p)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1
