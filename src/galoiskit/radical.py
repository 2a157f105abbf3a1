"""Radical chains, their normalization to nested normal radical towers, and
the necessary-condition verdict for solvability by radicals.

A chain adjoins elements a_i with a_i**k_i lying in the previous stage; it
is generally not normal.  Normalization rebuilds it inside a tower of
splitting fields: first the cyclotomic field of x**N - 1 for N = lcm(k_i),
then one Kummer layer per stage, splitting prod(x**k_i - w) over the orbit
of the radicand.  Every layer is the splitting field of an explicit
rational polynomial, so the whole tower is normal over Q and its associated
group chain has abelian quotients.

The verdict proves non-solvability without building a field when Frobenius
cycle types certify that the group of an irreducible factor f of degree
n >= 5 contains A_n (``permgroup.cycle_type_certificate``).  Factor
degrees of f mod a good prime are the cycle type of a Frobenius element,
so the group holds an element of every observed type.  It is primitive
when n is prime or when some type is (1, n-1).  A type with exactly one
cycle of prime length p, and no other length divisible by p, raised to the
lcm of the other lengths is a single p-cycle.  By Jordan's theorems a
primitive group with a transposition is S_n, and one with a p-cycle,
p <= n - 3, contains A_n; at n = 5 a 3-cycle already forces A_5 or S_5.
A_n is perfect for n >= 5, so the derived series stalls at it and no
radical formula exists.  The group of f's splitting field is a quotient of
the whole group, and a group with a non-solvable quotient is not solvable,
so one certified factor decides a reducible input too.  A SOLVABLE verdict
always comes from an enumerated group.

The field layers (``splitting``, ``numfield``, ``galois``, ``modscreen``,
``parsing``) are imported inside the functions that build fields, and by the
verdict only once no certificate has decided, so a certified verdict loads
none of them.
"""

import math
from fractions import Fraction
from typing import Optional

from .checks import record_check
from .errors import DEFAULT_DEGREE_CAP, ChainFormatError
from .permgroup import (
    ChainCertificate,
    DirectSumZ,
    Permutation,
    UnitGroup,
    find_embedding,
    is_normal,
    is_solvable,
    scan_cycle_types,
    solvable_via_abelian_chain,
)
from .poly import Polynomial, poly_compose_power, poly_squarefree_part, render_poly
from .qfactor import factor_over_Q, is_irreducible_over_Q
from .scalars import QQ, Record


# ---------------------------------------------------------------------------
# radical chains


class ChainStage(Record):
    k: int
    radicand_text: str
    radicand: object  # b_i as an element of the realized top field
    generator: object  # a_i as an element of the realized top field
    degree: int  # [R_i : R_{i-1}]


class RadicalChain(Record):
    description: tuple  # of (k, radicand_text)
    stages: tuple  # of ChainStage
    tower: "FieldTower"  # realization of R_n

    @property
    def degree(self):
        return self.tower.degree

    def __repr__(self):
        ks = ",".join(str(s.k) for s in self.stages)
        return f"RadicalChain(k=[{ks}], degree={self.degree})"


def _normalize_radicand(radicand):
    if isinstance(radicand, str):
        return radicand
    if isinstance(radicand, (int, Fraction)):
        return str(radicand)
    raise ChainFormatError(f"radicand must be a string or rational, got {radicand!r}")


def realize_chain(description, degree_cap: int = DEFAULT_DEGREE_CAP) -> RadicalChain:
    """Build the tower R_0 = Q < R_1 < ... < R_n for a chain description.

    Each stage is a pair (k, radicand) with k >= 2 and the radicand an
    expression in the previously adjoined radicals r1, ..., r(i-1).  The
    stage adjoins a root of the first irreducible factor of x**k - b in
    canonical order; when that factor is linear the stage is realized by an
    element already present and the tower does not grow.
    """
    from .numfield import FieldTower, factor_over_number_field
    from .parsing import evaluate_in_field

    description = [(int(k), _normalize_radicand(b)) for k, b in description]
    if not description:
        raise ChainFormatError("empty radical chain (lcm of characteristic degrees undefined)")
    for k, _ in description:
        if k < 2:
            raise ChainFormatError(f"characteristic degree {k} < 2 adjoins nothing")
    tower = FieldTower.rationals()
    gens = []
    texts = []
    degrees = []
    for i, (k, text) in enumerate(description, start=1):
        ext = tower.absolute.ext
        env = {f"r{j + 1}": g for j, g in enumerate(gens)}
        b = evaluate_in_field(text, ext, env)
        if not b:
            raise ChainFormatError(f"stage {i}: radicand evaluates to zero")
        x = Polynomial.x(ext)
        poly = x ** k - Polynomial.constant(ext, b)
        fac = factor_over_number_field(poly)
        m = fac.factors[0][0]
        if m.degree == 1:
            a = -m.coeff(0)
        else:
            tower = tower.adjoin(m, f"r{i}", verify=False, degree_cap=degree_cap)
            lift = tower.absolute.lift_from_prev
            gens = [lift(g) for g in gens]
            a = tower.absolute.gen_images[-1]
        gens.append(a)
        texts.append(text)
        degrees.append(m.degree)
    # re-evaluate every stage in the final field for the records
    ext = tower.absolute.ext
    stages = []
    for i, ((k, text), deg) in enumerate(zip(description, degrees), start=1):
        env = {f"r{j + 1}": g for j, g in enumerate(gens)}
        b = evaluate_in_field(text, ext, env)
        a = gens[i - 1]
        record_check("realize_chain.radical_relation", a ** k == b,
                     f"stage {i}: a^{k} must equal the radicand")
        stages.append(ChainStage(k, text, b, a, deg))
    return RadicalChain(tuple(description), tuple(stages), tower)


# ---------------------------------------------------------------------------
# normalization (nested normal radical towers)


class TowerStage(Record):
    """Data for the Kummer layer E_i -> E_{i+1} built from chain stage i."""

    k: int
    radicand_in_level: object  # b as an element of E_i
    orbit: tuple  # O(b) under G(E_i, Q), elements of E_i
    orbit_poly: Polynomial  # Q_b over Q
    kummer_poly: Polynomial  # Q_b(x**k) over Q
    level: "SplittingField"  # E_{i+1}
    defining_poly: Polynomial  # rational polynomial whose splitting field is E_{i+1}
    a_images: tuple  # images of a_1..a_i in E_{i+1}
    base_gens_in_level: tuple  # generators of E_i as elements of E_{i+1}


class NormalRadicalTower(Record):
    """E_0 = Q < E_1 < ... < E_{n+1} with per-stage Kummer data."""

    chain: RadicalChain
    lcm_degree: int  # N
    cyclotomic: "SplittingField"  # E_1, splitting field of x**N - 1
    stages: tuple  # of TowerStage
    level_generators_in_top: tuple  # per level, generator images in E_{n+1}

    @property
    def levels(self):
        return (self.cyclotomic,) + tuple(s.level for s in self.stages)

    @property
    def top(self):
        return self.levels[-1]

    def defining_polynomial(self, level_index: int) -> Polynomial:
        """Rational polynomial whose splitting field is E_{level_index+1}."""
        if level_index == 0:
            return self.cyclotomic.source
        return self.stages[level_index - 1].defining_poly

    def __repr__(self):
        degs = [lv.degree for lv in self.levels]
        return f"NormalRadicalTower(N={self.lcm_degree}, degrees={degs})"


def normalize_chain(chain: RadicalChain,
                    degree_cap: int = DEFAULT_DEGREE_CAP) -> NormalRadicalTower:
    """Construct the normalization of a radical chain.

    N is the lcm of the characteristic degrees; E_1 splits x**N - 1; each
    further level splits Q_b(x**k) over the previous one, where Q_b is the
    orbit minimal polynomial of the stage radicand.  The inclusions
    R_i < E_{i+1} are maintained constructively by choosing, at each level,
    the first k-th root of the radicand image in canonical order.
    """
    from .galois import _orbit, _orbit_min_poly, _stabilizer, galois_group
    from .numfield import element_sort_key
    from .parsing import evaluate_in_field
    from .splitting import splitting_field

    n_lcm = 1
    for s in chain.stages:
        n_lcm = math.lcm(n_lcm, s.k)
    x = Polynomial.x(QQ)
    cyclo_poly = x ** n_lcm - Polynomial.one(QQ)
    e1 = splitting_field(cyclo_poly, degree_cap=degree_cap)
    levels = [e1]
    level_gens = [list(e1.field.gen_images)]  # per level, images in current top
    a_images = []  # images of a_1..a_j in the current top level
    stages = []
    defining = cyclo_poly
    for i, s in enumerate(chain.stages, start=1):
        level = levels[-1]
        g_level = galois_group(level)
        env = {f"r{j + 1}": a for j, a in enumerate(a_images)}
        b = evaluate_in_field(s.radicand_text, level.field.ext, env)
        record_check("normalize.radicand_nonzero", bool(b),
                     f"stage {i}: radicand vanished in E_{i}")
        stab = _stabilizer(g_level, (b,))
        orb = _orbit(g_level, b, stab)
        q_b = _orbit_min_poly(g_level, b, stab)
        kummer = poly_compose_power(q_b, s.k)
        nxt = splitting_field(kummer, base=level, degree_cap=degree_cap)
        lift = nxt.lift_from_base
        a_images = [lift(a) for a in a_images]
        level_gens = [[lift(g) for g in gl] for gl in level_gens]
        base_gens = tuple(lift(g) for g in level.field.gen_images)
        b_up = lift(b)
        k_roots = [r for r in nxt.roots if r ** s.k == b_up]
        record_check("normalize.radical_root_exists", bool(k_roots),
                     f"stage {i}: no k-th root of the radicand in E_{i + 1}")
        a_img = min(k_roots, key=element_sort_key)
        a_images.append(a_img)
        # the inclusion R_i < E_{i+1}: every chain relation holds on the images
        env_up = {f"r{j + 1}": a for j, a in enumerate(a_images)}
        for j, cs in enumerate(chain.stages[:i], start=1):
            b_j = evaluate_in_field(cs.radicand_text, nxt.field.ext, env_up)
            record_check(
                "normalize.chain_embedding",
                a_images[j - 1] ** cs.k == b_j,
                f"stage {i}: relation a_{j}^{cs.k} = b_{j} fails in E_{i + 1}",
            )
        defining = defining * kummer
        level_gens.append(list(nxt.field.gen_images))
        stages.append(TowerStage(
            k=s.k,
            radicand_in_level=b,
            orbit=orb,
            orbit_poly=q_b,
            kummer_poly=kummer,
            level=nxt,
            defining_poly=defining,
            a_images=tuple(a_images),
            base_gens_in_level=base_gens,
        ))
        levels.append(nxt)
    return NormalRadicalTower(
        chain=chain,
        lcm_degree=n_lcm,
        cyclotomic=e1,
        stages=tuple(stages),
        level_generators_in_top=tuple(tuple(gl) for gl in level_gens),
    )


# ---------------------------------------------------------------------------
# independent verification of the defining conditions


class ConditionReport(Record):
    name: str
    passed: bool
    detail: str = ""


class TowerReport(Record):
    conditions: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.conditions)

    def to_dict(self):
        return {
            "all_passed": self.all_passed,
            "conditions": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.conditions
            ],
        }


def verify_nested_normal_radical(t: NormalRadicalTower) -> TowerReport:
    """Re-check the three defining conditions of a nested normal radical
    tower, independently of how it was built.  Failures are reported, not
    raised."""
    from .galois import galois_group, orbit
    from .splitting import splitting_field
    from . import modscreen

    conditions = []

    # condition 1: E_1 is the splitting field of x**N - 1
    n_lcm = t.lcm_degree
    x = Polynomial.x(QQ)
    cyclo = x ** n_lcm - Polynomial.one(QQ)
    fresh_degree = splitting_field(
        cyclo, degree_cap=max(DEFAULT_DEGREE_CAP, t.cyclotomic.degree)).degree
    roots_of_unity = list(filter(modscreen.vanishes(t.cyclotomic.place, cyclo), t.cyclotomic.roots))
    cond1 = (
        fresh_degree == t.cyclotomic.degree
        and len(set(roots_of_unity)) == n_lcm
        and _generated_by_roots(t.cyclotomic)
    )
    conditions.append(ConditionReport(
        "cyclotomic_level_splits_x^N-1",
        cond1,
        f"N={n_lcm}, [E_1:Q]={t.cyclotomic.degree}, fresh degree {fresh_degree}, "
        f"{len(set(roots_of_unity))} roots of unity found",
    ))

    # condition 2: every level is normal over Q (splitting field of an
    # explicit rational polynomial, witnessed by containing all its roots)
    for idx, level in enumerate(t.levels):
        poly = t.defining_polynomial(idx)
        sq = poly_squarefree_part(poly)
        distinct = set(filter(modscreen.vanishes(level.place, sq), level.roots))
        ok = len(distinct) == sq.degree and _generated_by_roots(level)
        conditions.append(ConditionReport(
            f"level_{idx + 1}_normal_over_Q",
            ok,
            f"[E_{idx + 1}:Q]={level.degree}; {len(distinct)}/{sq.degree} roots of its "
            "defining rational polynomial lie in the level",
        ))

    # condition 3: each k_i divides N, and each level above E_1 splits
    # prod(x**k - w) over the recomputed orbit of the stage radicand
    for i, s in enumerate(t.stages, start=1):
        divides = n_lcm % s.k == 0
        level_below = t.levels[i - 1]
        g_below = galois_group(level_below)
        fresh_orbit = orbit(g_below, s.radicand_in_level)
        orbit_ok = tuple(fresh_orbit) == tuple(s.orbit)
        ext = level_below.field.ext
        xk = Polynomial.x(ext)
        prod = Polynomial.one(ext)
        for w in s.orbit:
            prod = prod * (xk ** s.k - Polynomial.constant(ext, w))
        stored = s.kummer_poly.map_coefficients(ext.coerce, ext)
        poly_ok = prod == stored
        kroots = set(filter(modscreen.vanishes(s.level.place, s.kummer_poly), s.level.roots))
        split_ok = len(kroots) == poly_squarefree_part(s.kummer_poly).degree
        ok = divides and orbit_ok and poly_ok and split_ok
        conditions.append(ConditionReport(
            f"stage_{i}_kummer_layer",
            ok,
            f"k={s.k} divides N={n_lcm}: {divides}; orbit recomputed: {orbit_ok}; "
            f"product matches: {poly_ok}; splits in E_{i + 1}: {split_ok}",
        ))
    return TowerReport(tuple(conditions))


def _generated_by_roots(level) -> bool:
    """Only the identity automorphism fixes every root (so roots generate)."""
    from .galois import _stabilizer, galois_group

    g = galois_group(level)
    return _stabilizer(g, level.roots) == (g.identity_index,)


# ---------------------------------------------------------------------------
# associated group chain


def associated_group_chain(t: NormalRadicalTower):
    """Groups G_0 > G_1 > ... associated with Q < E_1 < ... < E_{n+1}:
    G_j fixes E_j pointwise inside G = G(E_top, Q).  Normality of each step
    and the index identity #(G_j)/#(G_{j+1}) = [E_{j+1} : E_j] are asserted.
    """
    from .galois import galois_group, subgroup_fixing

    top = t.top
    g = galois_group(top)
    groups = [g.perm_group()]
    prev_degree = 1
    for j, level in enumerate(t.levels):
        gens = t.level_generators_in_top[j]
        idx = subgroup_fixing(g, tuple(gens))
        sub = g.subgroup(idx)
        record_check(
            "associated_chain.step_normal",
            is_normal(sub, groups[-1]),
            f"G_{j + 1} must be normal in G_{j}",
        )
        record_check(
            "associated_chain.index_equals_degree",
            groups[-1].order * prev_degree == sub.order * level.degree,
            f"#G_{j}/#G_{j + 1} must equal [E_{j + 1}:E_{j}]",
        )
        groups.append(sub)
        prev_degree = level.degree
    record_check("associated_chain.ends_trivial", groups[-1].is_trivial)
    return groups


def abelian_layer_embeddings(t: NormalRadicalTower):
    """Embeddings certifying every layer abelian: the cyclotomic layer into
    U(N), each Kummer layer G(E_{i+1}, E_i) into a direct sum of copies of
    Z_{k_i}.  Returns [(label, group order, target description, Embedding)].
    """
    from .galois import galois_group, subgroup_fixing

    out = []
    g1 = galois_group(t.cyclotomic)
    target = UnitGroup(t.lcm_degree)
    emb = find_embedding(g1.perm_group(), target)
    record_check("abelian_layers.cyclotomic_embeds_in_units",
                 emb is not None, f"G(E_1,Q) must embed into U({t.lcm_degree})")
    out.append(("cyclotomic", g1.order, target.describe(), emb))
    for i, s in enumerate(t.stages, start=1):
        g_up = galois_group(s.level)
        idx = subgroup_fixing(g_up, s.base_gens_in_level)
        layer = g_up.subgroup(idx)
        target = DirectSumZ(s.k, len(s.orbit))
        emb = find_embedding(layer, target)
        record_check(
            "abelian_layers.kummer_embeds_in_cyclic_sum",
            emb is not None,
            f"G(E_{i + 1},E_{i}) must embed into {target.describe()}",
        )
        out.append((f"kummer_{i}", layer.order, target.describe(), emb))
    return out


# ---------------------------------------------------------------------------
# the necessary-condition verdict


class CycleTypeEvidence(Record):
    """Frobenius cycle types of an irreducible polynomial, sampled mod primes."""

    samples: tuple  # of (prime, cycle type tuple)
    certified_group: Optional[str]  # when forced: "S5" for S5, "A6" for A6 or S6, ...
    conclusion: str  # "NOT_SOLVABLE" or "INCONCLUSIVE"
    detail: str = ""

    def to_dict(self):
        return {
            "samples": [{"prime": p, "factor_degrees": list(t)} for p, t in self.samples],
            "certified_group": self.certified_group,
            "conclusion": self.conclusion,
            "detail": self.detail,
        }


def quintic_group_witness(p: Polynomial, primes=None) -> CycleTypeEvidence:
    """Identify the Galois group of an irreducible quintic from factor-degree
    patterns mod good primes, without building the degree-120 splitting field.

    Factor degrees mod p are the cycle type of a Frobenius element.  Among
    the transitive subgroups of S5 {C5, D5, F20, A5, S5}: a (2,3) pattern is
    an order-6 element, present only in S5; a lone transposition (1,1,1,2)
    also forces S5; a 3-cycle (1,1,3) forces A5 or S5.  Any of these
    certifies a non-solvable group.  Seeing only F20-compatible patterns is
    INCONCLUSIVE: a positive solvability verdict must come from an actual
    group computation.
    """
    if p.degree != 5:
        raise ValueError("the quintic witness needs a degree-5 polynomial")
    sq = poly_squarefree_part(p)
    if sq.degree != 5:
        raise ValueError("the quintic witness needs a squarefree quintic")
    if not is_irreducible_over_Q(sq):
        raise ValueError("the quintic witness needs an irreducible quintic")
    return _witness(sq, primes)


def _witness(h: Polynomial, primes) -> CycleTypeEvidence:
    """The cycle-type evidence of a monic h of degree n >= 5 already proved
    irreducible: NOT_SOLVABLE when the types certify a group containing
    A_n, else INCONCLUSIVE.  Only the wording is special at n = 5; above
    it the power step is re-checked on an explicit permutation and the
    detail gives Jordan's reasons.
    """
    n = h.degree
    samples, certificate = scan_cycle_types(h, primes)
    if certificate is None:
        if not samples:
            detail = "no usable prime in the configured list"
        elif n == 5:
            detail = "all observed cycle types fit the solvable transitive subgroups of S5"
        else:
            detail = f"no observed cycle type certifies A{n}"
        return CycleTypeEvidence(samples, None, "INCONCLUSIVE", detail)
    prime, ctype, exponent, p = certificate.power
    group = f"S{n}" if p == 2 else f"A{n}"
    if n == 5:
        detail = (f"cycle type {ctype} mod {prime} occurs only in S5" if p == 2
                  else "a 3-cycle restricts the group to A5 or S5; both are non-solvable")
        return CycleTypeEvidence(samples, group, "NOT_SOLVABLE", detail)
    cycles = (Permutation.of_cycle_type(ctype) ** exponent).cycles()
    record_check("cycle_type_witness.power_is_single_cycle",
                 [len(c) for c in cycles] == [p],
                 f"type {ctype} mod {prime} to the power {exponent}")
    if certificate.primitivity is None:
        reasons = [f"degree {n} is prime, so the transitive group is primitive"]
    else:
        reasons = [f"type {certificate.primitivity[1]} mod {certificate.primitivity[0]} "
                   "makes the group 2-transitive, hence primitive"]
    kind = "transposition" if p == 2 else f"{p}-cycle"
    reasons.append(f"type {ctype} mod {prime} to the power {exponent} is a {kind}")
    if p == 2:
        reasons.append(f"a primitive group with a transposition is S{n} (Jordan)")
    else:
        reasons.append(f"a primitive group with a {p}-cycle contains A{n} (Jordan); "
                       f"A{n} and S{n} are both non-solvable")
    return CycleTypeEvidence(samples, group, "NOT_SOLVABLE", "; ".join(reasons))


class SolvabilityVerdict(Record):
    verdict: str  # "SOLVABLE_GROUP" or "NOT_SOLVABLE_BY_RADICALS"
    group_order: Optional[int]
    derived_series_orders: tuple
    certificate: Optional[ChainCertificate]
    quintic_evidence: Optional[CycleTypeEvidence]
    note: str
    cycle_type_evidence: Optional[CycleTypeEvidence] = None  # degree >= 6

    def to_dict(self):
        out = {
            "verdict": self.verdict,
            "group_order": self.group_order,
            "derived_series_orders": list(self.derived_series_orders),
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "quintic_witness": self.quintic_evidence.to_dict() if self.quintic_evidence else None,
            "note": self.note,
        }
        if self.cycle_type_evidence is not None:
            out["cycle_type_witness"] = self.cycle_type_evidence.to_dict()
        return out


_NECESSARY_NOTE = (
    "a solvable group is the necessary condition for solvability by radicals; "
    "sufficiency is outside this engine's scope"
)


def necessary_condition_verdict(p: Polynomial, degree_cap: int = DEFAULT_DEGREE_CAP,
                                primes=None) -> SolvabilityVerdict:
    """Decide the necessary condition: a solvable Galois group, or a
    definitive NOT_SOLVABLE_BY_RADICALS witness.

    Solvability by radicals forces a solvable group (every radical chain
    normalizes to a tower with abelian layers), so a non-solvable group is
    a proof that no radical expression of the roots exists.
    """
    if p.degree < 1:
        raise ValueError("the verdict needs a polynomial of degree >= 1")
    sq = poly_squarefree_part(p)
    factors = [h for h, _ in factor_over_Q(sq).factors]
    whole = len(factors) == 1
    evidence = None
    # the group of each factor's splitting field is a quotient of the whole
    # group, and a quotient of a solvable group is solvable
    for h in factors:
        if h.degree < 5:
            continue
        witness = _witness(h, primes)
        if witness.conclusion == "NOT_SOLVABLE":
            return _certified_verdict(h, witness, whole)
        if whole and h.degree == 5:
            evidence = witness
    # no certificate decided: only now are the field layers loaded
    from .galois import galois_group
    from .splitting import splitting_field

    e = splitting_field(sq, degree_cap=degree_cap)
    g = galois_group(e)
    solvable, series = is_solvable(g.perm_group())
    return SolvabilityVerdict(
        verdict="SOLVABLE_GROUP" if solvable else "NOT_SOLVABLE_BY_RADICALS",
        group_order=g.order,
        derived_series_orders=tuple(s.order for s in series),
        certificate=solvable_via_abelian_chain(series) if solvable else None,
        quintic_evidence=evidence,
        note=(_NECESSARY_NOTE if solvable
              else "the derived series stalls before reaching the trivial group"),
    )


def _certified_verdict(h, evidence, whole):
    """NOT_SOLVABLE_BY_RADICALS for an irreducible factor h of degree n
    whose group is certified to be S_n, or to contain A_n.  When h is the
    whole squarefree input the derived series is given in closed form:
    S_n > A_n = A_n' (is_solvable's convention repeats the perfect group),
    since closure cannot enumerate these groups beyond order 5040.
    Otherwise the whole group is not identified, only its quotient.  The
    evidence is reported as the quintic witness at n = 5."""
    n = h.degree
    half = math.factorial(n) // 2
    symmetric = evidence.certified_group == f"S{n}"
    note = f"derived series stalls at a perfect subgroup of order {half}"
    if whole:
        group_order = 2 * half if symmetric else None
        series = (2 * half, half, half) if symmetric else (half, half)
    else:
        group_order, series = None, ()
        note = (f"the group of the factor {render_poly(h)} is a quotient of the whole "
                f"group; its {note}, so the whole group is not solvable")
    return SolvabilityVerdict(
        verdict="NOT_SOLVABLE_BY_RADICALS",
        group_order=group_order,
        derived_series_orders=series,
        certificate=None,
        quintic_evidence=evidence if n == 5 else None,
        note=note,
        cycle_type_evidence=None if n == 5 else evidence,
    )
