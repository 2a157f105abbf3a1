"""Splitting fields over Q, with the explicit list of all roots.

The construction loop factors over the current field, adjoins a root of the
first nonlinear irreducible factor in canonical order, re-flattens, and
repeats until the polynomial splits.  A cheap monomial "root hunt" finds
roots that are products of powers of known roots (cyclotomic and radical
polynomials split this way) before falling back to Trager factorization.
The hunt screens candidates by one scalar Horner evaluation each at a
degree-one place (``modscreen``), found once per call and extended at each
adjunction; the result carries it for ``galois`` and ``radical``.  A
survivor is verified by dividing it out.

An input whose splitting degree is provably beyond the cap (``permgroup``'s
Frobenius bound) is refused before the number-field layer is loaded.
"""

import itertools
import math
from typing import Callable, Optional

from .checks import record_check
from .errors import DEFAULT_DEGREE_CAP, DegreeCapError
from .permgroup import _splitting_degree_lower_bound
from .poly import Polynomial, poly_squarefree_part
from .qfactor import factor_over_Q
from .scalars import QQ, Record
from . import modscreen


class SplittingField(Record):
    """An absolute field containing, and generated by, all roots of a
    rational polynomial; equal only to itself."""

    tower: "FieldTower"
    roots: tuple  # all roots of the squarefree part, canonical order
    source: Polynomial  # full rational polynomial (base source included)
    squarefree_source: Polynomial
    base: Optional["SplittingField"]
    lift_from_base: Optional[Callable]
    notes: tuple
    place: Optional[modscreen.Place] = None  # degree-one place of the field
    factors: tuple = ()  # monic irreducible rational factors of squarefree_source
    # cache slot: the Galois group is unique per field, so repeated
    # correspondence work does not re-enumerate automorphisms
    _group_cache: list = None

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        if self._group_cache is None:
            object.__setattr__(self, "_group_cache", [])

    @property
    def field(self):
        return self.tower.absolute

    @property
    def degree(self):
        return self.tower.degree

    def __repr__(self):
        return f"SplittingField(degree={self.degree}, roots={len(self.roots)})"


def splitting_field(p: Polynomial, base: Optional[SplittingField] = None,
                    degree_cap: int = DEFAULT_DEGREE_CAP) -> SplittingField:
    """Construct the splitting field of p over Q (or over a prior splitting
    field), returning the field together with all roots in canonical order.
    """
    if p.field != QQ:
        raise ValueError("splitting_field expects a rational polynomial")
    if p.degree < 1:
        raise ValueError("splitting_field expects degree >= 1")
    notes = []
    sq = poly_squarefree_part(p)
    if sq != p.monic():
        notes.append("input replaced by its squarefree part (separability normalization)")
    factors = [h for h, _ in factor_over_Q(sq).factors]
    bound = _splitting_degree_lower_bound(factors)
    already = 1 if base is None else base.degree
    # [E:Q] is divisible both by the bound and by the base degree
    provable = math.lcm(bound, already)
    if provable > degree_cap:
        raise DegreeCapError(
            f"splitting degree is provably >= {provable} (Frobenius cycle types), "
            f"beyond the cap {degree_cap}",
            attempted=provable, cap=degree_cap)
    # the number-field layer loads only once no refusal has come
    from .numfield import FieldTower, _Substitution, element_sort_key, factor_over_number_field

    if base is None:
        tower = FieldTower.rationals()
        roots = []
        source = p
    else:
        tower = base.tower
        roots = list(base.roots)
        source = base.source * p
        base_theta = base.field.theta  # lifted with the roots
    sq_source = poly_squarefree_part(source)
    place = modscreen.find(tower, factors if base is None else factors + [base.squarefree_source])
    if base is not None:
        factors = list(base.factors) + [h for h in factors if h not in base.factors]

    # entries: (polynomial over the current absolute ext, known_irreducible)
    cur = tower.absolute
    entries = [(sq.map_coefficients(cur.ext.coerce, cur.ext), sq.degree == 1)]
    while True:
        # extract linear factors and hunted roots until nothing cheap remains
        progressed = True
        while progressed:
            progressed = False
            nxt = []
            for q, known in entries:
                q = q.monic()
                while q.degree >= 1:
                    if q.degree == 1:
                        _add_root(roots, -q.coeff(0))
                        q = Polynomial.one(q.field)
                        progressed = True
                        break
                    hit = _hunt_root(q, roots, place, sq_source)
                    if hit is None:
                        break
                    root, q = hit
                    _add_root(roots, root)
                    known = False
                    progressed = True
                if q.degree >= 1:
                    nxt.append((q, known))
            entries = nxt
        if not entries:
            break
        entries.sort(key=lambda e: e[0].sort_key())
        q, known = entries[0]
        if not known:
            fac = factor_over_number_field(q, place)
            entries = [(g, True) for g, _ in fac.factors] + entries[1:]
            continue
        # adjoin a root of the first nonlinear irreducible factor
        name = f"g{len(tower.stages) + 1}"
        tower = tower.adjoin(q, name, verify=False, degree_cap=degree_cap)
        place = place and place.extend(tower.stages[-1][2], tower.absolute.theta_combo,
                                       tower.absolute.min_poly)
        lift = tower.absolute.lift_from_prev
        roots = [lift(r) for r in roots]
        if base is not None:
            base_theta = lift(base_theta)
        new_gen = tower.absolute.gen_images[-1]
        _add_root(roots, new_gen)
        lifted = []
        for g, _ in entries:
            lifted.append((g.map_coefficients(lift, tower.absolute.ext), False))
        q_lifted = lifted[0][0]
        x = Polynomial.x(q_lifted.field)
        cofactor, rem = divmod(q_lifted, x - Polynomial.constant(q_lifted.field, new_gen))
        record_check("splitting.adjoined_root_divides", rem.is_zero)
        entries = [(cofactor, False)] + lifted[1:]

    roots.sort(key=element_sort_key)
    record_check(
        "splitting.root_count_equals_squarefree_degree",
        len(roots) == sq_source.degree,
        f"{len(roots)} roots vs degree {sq_source.degree}",
    )
    # a root is a root of one irreducible factor: each factor with fewer
    # terms than the source (so a cheaper Horner evaluation) whose image
    # vanishes at the root's image is tried exactly, then the whole source
    cheaper = [h for h in factors if sum(map(bool, h.coeffs)) < sum(map(bool, sq_source.coeffs))]
    screens = [modscreen.vanishes(place, h) for h in cheaper] if place else []
    for r in roots:
        hit = screens and place(r) is not None and any(t(r) for t in screens)
        record_check("splitting.root_evaluates_to_zero", hit or not sq_source.evaluate(r))

    return SplittingField(
        tower=tower,
        roots=tuple(roots),
        source=source,
        squarefree_source=sq_source,
        base=base,
        lift_from_base=None if base is None else _Substitution(base_theta, base.field.ext),
        notes=tuple(notes),
        place=place,
        factors=tuple(factors),
    )


def splitting_degree(p: Polynomial, degree_cap: int = DEFAULT_DEGREE_CAP) -> int:
    """[E:Q] for the splitting field E of p over Q."""
    return splitting_field(p, degree_cap=degree_cap).degree


def _add_root(roots, r):
    if r not in roots:
        roots.append(r)


# ---------------------------------------------------------------------------
# monomial root hunt


_HUNT_SINGLE_EXPS = (-3, -2, -1, 2, 3)
_HUNT_PAIR_EXPS = (-2, -1, 1, 2)


def _hunt_root(q: Polynomial, roots, place, source):
    """Look for a root of q among +-r_i**e * r_j**f for known roots r, all
    roots of the rational squarefree source.

    Purely an optimization: a miss sends the caller to Trager factorization.
    Candidates are tried in a fixed order and the first exact root wins; the
    place only skips those whose image proves them no root, so the answer
    is the same with any place or none.  Returns (root, q / (x - root)) or
    None: dividing by x - c is the exact test, since its partial sums are
    those of a Horner evaluation at c and its remainder is q(c).
    """
    from .numfield import ExtElement

    F = q.field
    nonzero = [r for r in roots if r and isinstance(r, ExtElement) and r.field == F]
    if F.degree == 1 or not nonzero:
        return None
    screen = place.images(q.coeffs) if place else None
    images = [place(r) if screen else None for r in nonzero]
    p = place.prime if screen else None
    n = len(nonzero)
    image_powers = {(i, e): None if v is None or (e < 0 and not v) else pow(v, e, p)
                    for i, v in enumerate(images) for e in _HUNT_SINGLE_EXPS + (1,)}
    # every known root is a root of the squarefree source f = x*g + f(0),
    # divided by x when f(0) = 0, so r**-1 = -g(r)/f(0): a Horner evaluation
    # where a field inverse would cost many products
    f0, *g = source.coeffs if source.coeffs[0] else source.coeffs[1:]
    g = Polynomial(QQ, g)
    x = Polynomial.x(F)
    exact_powers = {}

    def exact_power(i, e):
        if (i, e) not in exact_powers:
            r = nonzero[i]
            exact_powers[(i, e)] = (g.evaluate(r) * (-1 / f0) if e == -1 else
                                    exact_power(i, -1) ** -e if e < 0 else r ** e)
        return exact_powers[(i, e)]

    singles = (((i, e),) for i in range(n) for e in _HUNT_SINGLE_EXPS)
    pairs = (((i, e), (j, f)) for i in range(n) for j in range(n) if i != j
             for e in _HUNT_PAIR_EXPS for f in _HUNT_PAIR_EXPS)
    for terms in itertools.chain(singles, pairs):
        vs = [image_powers[t] for t in terms]
        v = None if None in vs else math.prod(vs) % p
        for sign in (1, -1):
            if v is not None and modscreen.horner(screen, v if sign == 1 else p - v, p):
                continue
            cand = exact_power(*terms[0])
            cand = cand * exact_power(*terms[1]) if len(terms) == 2 else cand
            cand = cand if sign == 1 else -cand
            quotient, rem = divmod(q, x - Polynomial.constant(F, cand))
            if rem.is_zero:
                record_check("splitting.hunted_root_divides", True)
                return cand, quotient
    return None
