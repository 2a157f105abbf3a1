"""Complete factorization of univariate polynomials over Q and over GF(p).

The rational pipeline is classic Zassenhaus: content removal, Yun squarefree
decomposition, reduction mod a good prime, Cantor-Zassenhaus factorization
there, quadratic Hensel lifting to a Mignotte-style coefficient bound, and
subset recombination.  Recombination prunes subsets by the factor-degree
sets of up to five primes and by the d-1, constant-term and coefficient-
bound tests before any trial division; exact division alone accepts a
factor.  There is no LLL (van Hoeij) recombination.

Internally the hot kernels work on plain int lists (ascending coefficients)
mod p or mod p**k; Polynomial objects appear only at the API boundary.
All modular work of the engine runs on these lists: packed (Kronecker)
products, packed reduction rows for a fixed modulus, and the CRT primes and
rational reconstruction behind ``numfield``'s field inverse.
"""

import itertools
import math
import random
from dataclasses import dataclass

from .poly import (
    Polynomial,
    poly_content_and_primitive,
    poly_from_int_coeffs,
    poly_squarefree_decomposition,
)
from .scalars import QQ, PrimeField, is_prime

DEFAULT_SEED = 1
# _zp_mul packs when schoolbook products outnumber output coefficients this much
_PACK_RATIO = 6

_PRIME_POOL = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
]


@dataclass(frozen=True)
class Factorization:
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
    w = (min(len(a), len(b)) * max(a) * max(b)).bit_length() // 8 + 1
    return _trim(_zp_unpack(_zp_pack(a, w) * _zp_pack(b, w), w, size, m))


def _zp_pack(a, w):
    """One integer holding a's entries, each below 256**w, in w-byte slots."""
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")


def _zp_unpack(x, w, count, m):
    """The first count w-byte slots of x, each reduced mod m."""
    data = x.to_bytes(w * count, "little")
    return [int.from_bytes(data[i:i + w], "little") % m for i in range(0, w * count, w)]


def _zp_mulmod(f, m):
    """The product of residues mod a fixed f of degree n over Z/m.

    Row j packs x**(n+j) mod f into one integer, so a product reduces by
    n - 1 big-integer multiply-adds.  Row j is x * (row j-1) with its top
    slot folded back through row 0; its slots stay unreduced, below
    n * m**2, so slots are sized for n**2 * m**3.
    """
    n = len(f) - 1
    w = (n * n * m ** 3).bit_length() // 8 + 1
    inv = pow(f[-1], -1, m)
    rows = [_zp_pack([-c * inv % m for c in f[:-1]], w)]
    low, top = (1 << 8 * w * n) - 1, 8 * w * (n - 1)
    for _ in range(n - 2):
        rows.append((rows[-1] << 8 * w & low) + (rows[-1] >> top) % m * rows[0])

    def mul(a, b):
        c = _zp_mul(a, b, m)
        if len(c) <= n:
            return c
        acc = _zp_pack(c[:n], w)
        for cj, row in zip(c[n:], rows):
            if cj:
                acc += cj * row
        return _trim(_zp_unpack(acc, w, n, m))

    return mul


def _zp_divmod(a, b, m):
    """Division mod m; the leading coefficient of b must be invertible."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    db, dlc = len(b) - 1, b[-1]
    inv = pow(dlc, -1, m)
    if len(a) - 1 < db:
        return [], _trim(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % m
        if c:
            q = c * inv % m
            quot[i - db] = q
            for j, bc in enumerate(b):
                a[i - db + j] = (a[i - db + j] - q * bc) % m
        else:
            a[i] = 0
    return _trim(quot), _trim([c % m for c in a])


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


def _zp_powmod(a, e, f, p, mul=None):
    """a**e mod (f, p); mul, when given, is _zp_mulmod(f, p)."""
    mul = mul or _zp_mulmod(f, p)
    result, base = [1], _zp_mod(a, f, p)
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


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


def _zp_equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of a monic product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    mul = _zp_mulmod(f, p)
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


def factor_mod_p(p_poly: Polynomial, seed: int = DEFAULT_SEED) -> Factorization:
    """Factor over GF(p): squarefree split, then distinct- and equal-degree."""
    field = p_poly.field
    if not isinstance(field, PrimeField):
        raise ValueError("factor_mod_p expects a polynomial over a prime field")
    if p_poly.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    p = field.p
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    rng = random.Random(seed)
    ints = [c.value for c in p_poly.coeffs]
    unit = field.coerce(ints[-1])
    monic = _zp_monic(ints, p)
    pairs = []
    for part, mult in _zp_squarefree_decomposition(monic, p):
        for irr in _zp_factor_squarefree(part, p, rng):
            pairs.append((poly_from_int_coeffs(field, irr), mult))
    return Factorization(unit, _sorted_factors(pairs))


def factor_degrees_mod_p(p_poly: Polynomial, prime: int, seed: int = DEFAULT_SEED):
    """Sorted degree list of the irreducible factors of p_poly mod prime.

    Only meaningful when the reduction stays squarefree; returns None when
    it does not (the caller should skip that prime).
    """
    field = PrimeField(prime)
    ints = _trim([field.coerce(c).value for c in p_poly.coeffs])
    if not ints or len(ints) - 1 != p_poly.degree:
        return None
    monic = _zp_monic(ints, prime)
    if len(_zp_gcd(monic, _zp_derivative(monic, prime), prime)) > 1:
        return None
    rng = random.Random(seed)
    return sorted(len(f) - 1 for f in _zp_factor_squarefree(monic, prime, rng))


def _crt_primes():
    """Primes below 2**60, descending; found on first use and cached."""
    for i in itertools.count():
        if i == len(_CRT_PRIMES):
            p = (_CRT_PRIMES[-1] if _CRT_PRIMES else 1 << 60) - 1
            while not is_prime(p):
                p -= 1
            _CRT_PRIMES.append(p)
        yield _CRT_PRIMES[i]


_CRT_PRIMES = []


def _rational_reconstruction(residues, m):
    """(nums, den) with nums[i] = residues[i] * den mod m and |nums[i]|,
    den <= sqrt(m/2), or None.  A residue not small once scaled by the
    denominator so far runs Wang's half-extended Euclid for the rest."""
    half, bound = m >> 1, math.isqrt(m >> 1)
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
            if v1 == 0 or den > bound:
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


def _zx_primitive(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
    if g == 0:
        return list(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


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
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to mod m**2.

    h must be monic and stays monic; g absorbs the leading coefficient of f.
    """
    mm = m * m
    e = [c % mm for c in _zp_sub(f, _zp_mul(g, h, mm), mm)]
    q, r = _zp_divmod(_zp_mul(s, e, mm), h, mm)
    g1 = _zp_add(_zp_add(g, _zp_mul(t, e, mm), mm), _zp_mul(q, g, mm), mm)
    h1 = _zp_add(h, r, mm)
    b = _zp_sub(_zp_add(_zp_mul(s, g1, mm), _zp_mul(t, h1, mm), mm), [1], mm)
    c, d = _zp_divmod(_zp_mul(s, b, mm), h1, mm)
    s1 = _zp_sub(s, d, mm)
    t1 = _zp_sub(_zp_sub(t, _zp_mul(t, b, mm), mm), _zp_mul(c, g1, mm), mm)
    return g1, h1, s1, t1


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


def _hensel_lift_tree(f, factors, p, target):
    """Lift f = lc(f) * prod(factors) from mod p to mod p**(2**j) >= target.

    factors are monic mod p and pairwise coprime; returns (lifted monic
    factors, modulus).
    """
    k = 1
    m = p
    while m < target:
        m *= m
        k *= 2

    def build(f_node, leaves, modulus):
        if len(leaves) == 1:
            return [_zp_monic([c % modulus for c in f_node], modulus)]
        half = len(leaves) // 2
        g = [f_node[-1] % p]
        for leaf in leaves[:half]:
            g = _zp_mul(g, leaf, p)
        h = [1]
        for leaf in leaves[half:]:
            h = _zp_mul(h, leaf, p)
        s, t = _zp_ext_gcd(g, h, p)
        m_cur = p
        while m_cur < modulus:
            g, h, s, t = _hensel_step(f_node, g, h, s, t, m_cur)
            m_cur *= m_cur
        return build(g, leaves[:half], modulus) + build(h, leaves[half:], modulus)

    return build([c % m for c in f], factors, m), m


# ---------------------------------------------------------------------------
# Zassenhaus over Z


def _choose_prime(f_int, seed):
    """Pick primes keeping f squarefree; prefer the one with fewest factors.

    Returns (p, factors mod p, degree set), where bit d of the degree set is
    set when every prime tried has a subset of factors of total degree d
    (Musser): the degree of any factor of f over Z lies in that set.
    """
    n = len(f_int) - 1
    lc = f_int[-1]
    best = None
    degrees = (1 << (n + 1)) - 1
    tried = 0
    for p in _PRIME_POOL:
        if lc % p == 0:
            continue
        fp = _trim([c % p for c in f_int])
        if len(_zp_gcd(fp, _zp_derivative(fp, p), p)) > 1:
            continue
        rng = random.Random(seed ^ p)
        factors = _zp_factor_squarefree(_zp_monic(fp, p), p, rng)
        sums = 1
        for g in factors:
            sums |= sums << (len(g) - 1)
        degrees &= sums
        tried += 1
        if best is None or len(factors) < len(best[1]):
            best = (p, factors)
        if degrees == 1 | 1 << n or tried >= 5:
            break
    if best is None:
        raise ArithmeticError("no usable prime found for factorization")
    return best + (degrees,)


def _factor_squarefree_int(f_int, seed):
    """Irreducible integer factors of a primitive squarefree f in Z[x]."""
    n = len(f_int) - 1
    if n <= 1:
        return [list(f_int)]
    p, mod_factors, degrees = _choose_prime(f_int, seed)
    if degrees == 1 | 1 << n:
        return [list(f_int)]
    bound = _mignotte_bound(f_int)
    lifted, pk = _hensel_lift_tree(f_int, mod_factors, p, 2 * bound)
    return _recombine(f_int, lifted, pk, bound, degrees)


def _recombine(f, pool, pk, bound, degrees):
    """Zassenhaus recombination of the monic factors of f lifted mod pk.

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


# ---------------------------------------------------------------------------
# public rational API


def is_squarefree_q(p: Polynomial) -> bool:
    """Squarefreeness over Q, tested mod good primes first.

    Squarefree mod a prime not dividing the leading coefficient implies
    squarefree over Q, which avoids the coefficient blowup of an exact
    Euclidean remainder sequence on large inputs; only when every sampled
    prime divides the discriminant does this fall back to the exact gcd.
    """
    if p.is_zero:
        raise ValueError("squarefreeness of the zero polynomial")
    if p.degree <= 1:
        return True
    _, ints = poly_content_and_primitive(p)
    rejected = 0
    for prime in _PRIME_POOL:
        if ints[-1] % prime == 0:
            continue
        fp = _trim([c % prime for c in ints])
        if len(_zp_gcd(fp, _zp_derivative(fp, prime), prime)) == 1:
            return True
        rejected += 1
        if rejected >= 12:
            break
    from .poly import poly_gcd

    return poly_gcd(p, p.derivative()).degree == 0


def factor_over_Q(p: Polynomial, seed: int = DEFAULT_SEED) -> Factorization:
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
    if is_squarefree_q(p):
        # skip Yun: the exact gcd in there is the only expensive step
        parts = [(p.monic(), 1)]
    else:
        parts = poly_squarefree_decomposition(p)
    pairs = []
    for part, mult in parts:
        if part.degree == 0:
            continue
        _, ints = poly_content_and_primitive(part)
        for fac in _factor_squarefree_int(ints, seed):
            fq = poly_from_int_coeffs(QQ, fac).monic()
            pairs.append((fq, mult))
    return Factorization(unit, _sorted_factors(pairs))


def is_irreducible_over_Q(p: Polynomial, seed: int = DEFAULT_SEED) -> bool:
    if p.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    fac = factor_over_Q(p, seed=seed)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1
