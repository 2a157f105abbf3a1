"""A differential sweep against sympy: on seeded irreducible polynomials of
degree 3 to 6 with small coefficients, the order of ``galois_group`` is
that of sympy's ``galois_group`` wherever the splitting degree is within
the default cap (and sympy's order exceeds the cap wherever the engine
refuses), and the ``solvable`` verdict is sympy's ``is_solvable`` wherever
the engine answers.  sympy is a test-only oracle; without it the sweep is
skipped."""

import random

import pytest

from galoiskit import DegreeCapError, galois_group, necessary_condition_verdict, splitting_field
from galoiskit.errors import DEFAULT_DEGREE_CAP

from helpers import P

sympy = pytest.importorskip("sympy")
from sympy.polys.numberfields.galoisgroups import galois_group as sympy_galois_group  # noqa: E402

x = sympy.Symbol("x")


def _sweep(count=48, seed=2026):
    """Monic irreducible integer polynomials, ascending coefficients, of
    degrees 3, 4, 5, 6 in turn; each lower coefficient is 0 with
    probability 1/2 (so smaller groups turn up), else drawn from -3..3."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        ints = [0 if rng.random() < 0.5 else rng.randint(-3, 3) for _ in range(3 + len(out) % 4)] + [1]
        if ints[0] and sympy.Poly(ints[::-1], x).is_irreducible:
            out.append(ints)
    return out


@pytest.fixture(scope="module")
def swept():
    """(ascending coefficients, sympy's group) for each polynomial."""
    return [(ints, sympy_galois_group(sympy.Poly(ints[::-1], x))[0]) for ints in _sweep()]


def test_sweep_reaches_several_groups(swept):
    assert {group.order() for _, group in swept} >= {6, 8, 12, 20, 24, 48, 120, 720}


def test_group_order_matches_sympy(swept):
    wrong = []
    for ints, group in swept:
        try:
            order = galois_group(splitting_field(P(*ints))).order
        except DegreeCapError:
            order = None
        if order != (group.order() if group.order() <= DEFAULT_DEGREE_CAP else None):
            wrong.append((ints, order, group.order()))
    assert wrong == []


def test_solvable_verdict_matches_sympy(swept):
    wrong = []
    for ints, group in swept:
        try:
            verdict = necessary_condition_verdict(P(*ints)).verdict
        except DegreeCapError:
            continue
        if (verdict == "SOLVABLE_GROUP") != group.is_solvable:
            wrong.append((ints, verdict))
    assert wrong == []
